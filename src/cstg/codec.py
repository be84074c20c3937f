"""Canonical text serialization for drawings and certificates.

Documents are single-line canonical JSON (sorted keys, compact separators,
trailing newline), so encoding is byte-deterministic and encode(decode(x))
is the identity on well-formed documents.

Drawing document (format tag "cstg-1"):

    {"format": "cstg-1", "model": "...", "n": ...,
     "params":    {...}               # halfcircle: {"signs": "UL..."}
                                      # points: {"points": [[x, y], ...]}
     "crossings": [[r1, r2], ...]     # explicit only, ranks r1 < r2, each once
     "rotations": [[...], ...]        # optional, ccw, one list per vertex
     "anchor":    {"order": [...], "v0": k}}   # optional

Certificate document: {"kind": "...", "vertices": [...]}.

Every integer field (``n``, crossing ranks, rotation and anchor members,
``v0``, point coordinates, certificate vertices) must be a JSON integer:
``true``, ``0.9`` and ``"0"`` are parse errors naming the field, not
values to convert.

Decoding only parses: shape, fields and integer types fail here with
ParseError (and the explicit size cap before any crossing entry is read), as
does any text ``json.loads`` refuses, a key given twice in one object and
a key that its object does not take.
Every drawing invariant is ``Drawing``'s own check, re-raised here as
ValidationError with its message.  A crossing table written as encoding
writes it is parsed a piece of about 64 KB at a time, each piece one flat
JSON array of its ranks with no list per entry, and folded into the
table's stacked rows before the next piece is read, so only one piece's
ranks are ever alive; any other text, an indented document say, takes the
general parse, whose entry lists pass a hand-built table's check, raising
ParseError here, and are folded in one run.  Either way ``Drawing`` gets
the folded rows (``_Ranks``) and checks their entries as it would check a
hand-built table's.  A repeated entry is looked for, reading the entries
again, only when the table holds fewer pairs than the document lists or
a later step fails, and is named first.  Encoding lists the entries in
rank order from the stacked rows the drawing holds and writes each edge's
entries with one join over the decimal names of its partners' ranks, so
no string is built per entry.
"""

from __future__ import annotations

import json
from collections import Counter
from typing import Tuple

from .drawing import (MODELS, Certificate, Drawing, _check_explicit_n, _flat_ranks,
                      _later_partners, _rank_grid, _Ranks)
from .errors import CstgError, InvalidCertificate, ParseError, SizeLimit, ValidationError

FORMAT_TAG = "cstg-1"


def _require_ints(values, field: str) -> None:
    """ParseError unless every value is a JSON integer (bool is not one)."""
    for x in values:
        if type(x) is not int:
            raise ParseError(f"field {field!r}: {x!r} is not an integer")


def _canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


def _parse(text: str):
    """The JSON value of a document; ParseError for anything ``json.loads``
    refuses (a syntax error, an integer literal past Python's digit limit,
    nesting past the recursion limit) and for a repeated key."""
    try:
        return json.loads(text, object_pairs_hook=_unique_keys)
    except json.JSONDecodeError as exc:
        raise ParseError(f"line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    except ValueError:  # int() of a literal past the interpreter's digit limit
        raise ParseError("an integer literal has too many digits") from None
    except RecursionError:
        raise ParseError("document nested too deeply") from None


_TABLE = '"crossings":[['
_NO_DIGITS = str.maketrans("", "", "0123456789")
_PIECE = 1 << 16  # about this many characters of table text are parsed at a time


def _parse_drawing(text: str):
    """``_parse(text)``, with a crossing table written as ``encode_drawing``
    writes it read into a ``_Ranks`` a piece at a time: the rest of the
    document, with ``NaN`` in the table's place, must parse with that one
    ``NaN`` as its top-level ``crossings``, and the text from the first
    ``"crossings":[[`` to the next ``]]`` must be ``[[r,r],[r,r],...]``
    with digits only between the brackets and commas.  Each piece of about
    ``_PIECE`` characters, cut at an entry boundary, is parsed as one flat
    JSON array of its ranks and folded into the table's rows over the
    document's n before the next is read.  Any other text takes the general
    parse, and so fails or succeeds as it would."""
    at = text.find(_TABLE)
    end = text.find("]]", at)
    if at < 0 or end < 0:
        return _parse(text)
    start = at + len(_TABLE)
    seen = []

    def constant(name):
        seen.append(name)
        return seen  # the table's placeholder, found again by identity

    try:
        doc = json.loads(text[:start - 2] + "NaN" + text[end + 2:],
                         object_pairs_hook=_unique_keys, parse_constant=constant)
        if len(seen) != 1 or type(doc) is not dict or doc.get("crossings") is not seen:
            return _parse(text)
        table = _Ranks(doc.get("n"), lambda: _runs(text, start, end))
        for ranks in _runs(text, start, end):
            table.fold(ranks)
    except (ValueError, RecursionError, ParseError):
        return _parse(text)
    doc["crossings"] = table
    return doc


def _runs(text: str, start: int, end: int):
    """The ranks of the table text ``text[start:end]``, ``r,r],[...],[r,r``,
    as one flat list per piece of about ``_PIECE`` characters cut at an
    entry boundary ``],[``; ValueError at a piece that is not two runs of
    digits per entry or that ``json.loads`` refuses (a leading zero, an
    empty rank, a literal past the digit limit)."""
    while True:
        cut = text.find("],[", start + _PIECE, end)
        piece = text[start:end if cut < 0 else cut]
        skeleton = piece.translate(_NO_DIGITS)
        if skeleton != ",],[" * (len(skeleton) // 4) + ",":
            raise ValueError("not a table as encoding writes it")
        yield json.loads("[" + piece.replace("],[", ",") + "]")
        if cut < 0:
            return
        start = cut + 3


def _refuse_unknown(obj: dict, known, where: str = "") -> None:
    """ParseError naming the keys of obj that are not known, and where obj is."""
    if set(obj) - known:
        raise ParseError(f"unknown fields {sorted(set(obj) - known)}{where}")


def _unique_keys(pairs) -> dict:
    """One JSON object; a key given twice would be read last-wins."""
    obj = dict(pairs)
    if len(obj) != len(pairs):
        key = next(k for k, count in Counter(k for k, _ in pairs).items() if count > 1)
        raise ParseError(f"field {key!r} is repeated")
    return obj


def encode_drawing(d: Drawing) -> str:
    doc = {"format": FORMAT_TAG, "model": d.model, "n": d.n}
    field = MODELS[d.model].payload
    # json writes a tuple as a list; an explicit table's text goes in for []
    if field == "crossings":
        doc["crossings"] = []
    elif field is not None:
        doc["params"] = {field: getattr(d, field)}
    if d.rotations is not None:
        doc["rotations"] = [list(r) for r in d.rotations]
    if d.anchor is not None:
        doc["anchor"] = {"v0": d.anchor[0], "order": list(d.anchor[1])}
    text = _canonical(doc)
    if field == "crossings":
        text = text.replace('"crossings":[]', '"crossings":' + _crossings_text(d), 1)
    return text


def _crossings_text(d: Drawing) -> str:
    """The table as json writes its sorted entries, read in rank order from
    the drawing's stacked rows."""
    names = list(map(str, _rank_grid(d.n)[1]))
    # one join per edge over the names of its partners: no string per entry
    rows = (f"[{r1}," + f"],[{r1},".join(later) + "]"
            for r1, later in _later_partners(d.n, d.crossings.bits, names))
    return "[" + ",".join(rows) + "]"


def decode_drawing(text: str) -> Drawing:
    doc = _parse_drawing(text)
    if not isinstance(doc, dict):
        raise ParseError("document is not an object")
    if doc.get("format") != FORMAT_TAG:
        raise ParseError(f"field 'format': expected {FORMAT_TAG!r}, got {doc.get('format')!r}")
    for field in ("n", "model"):
        if field not in doc:
            raise ParseError(f"field {field!r} missing")
    n = doc["n"]
    model = doc["model"]
    _require_ints((n,), "n")
    _refuse_unknown(doc, {"format", "n", "model", "params", "crossings", "rotations", "anchor"})

    # an unknown model reads no payload here, and Drawing names it
    spec = MODELS[model] if isinstance(model, str) and model in MODELS else None
    payload = spec and spec.payload
    params = doc.get("params", {})
    raw = params.get(payload) if isinstance(params, dict) else None
    if raw is not None and payload != "crossings":  # an explicit model takes no params
        _refuse_unknown(params, {payload}, " in 'params'")
    fields = {}
    if payload == "signs":
        if not isinstance(raw, str):
            raise ParseError("field 'params.signs' missing for halfcircle model")
        fields["signs"] = raw
    elif payload == "points":
        if not isinstance(raw, list) or len(raw) != n:
            raise ParseError("field 'params.points' must list n integer pairs")
        for p in raw:
            if not (isinstance(p, list) and len(p) == 2):
                raise ParseError(f"field 'params.points': {p!r} is not a pair")
            _require_ints(p, "params.points")
        fields["points"] = tuple((x, y) for x, y in raw)
    elif payload == "crossings":
        raw = doc.get("crossings")
        if raw is None:
            raise ParseError("field 'crossings' missing for explicit model")
        raw = fields["crossings"] = _check_crossings(raw, n)
    try:
        if spec and payload in (None, "crossings") and "params" in doc:
            raise ParseError(f"{model} model takes no 'params'")
        if payload != "crossings" and "crossings" in doc:
            raise ParseError("'crossings' is only valid for the explicit model")
        rotations = _decode_rotations(doc["rotations"], n) if "rotations" in doc else None
        anchor = _decode_anchor(doc["anchor"]) if "anchor" in doc else None
        d = Drawing(n=n, model=model, rotations=rotations, anchor=anchor, **fields)
    except CstgError as exc:
        if payload == "crossings":
            _refuse_repeats(raw)
        if isinstance(exc, (ParseError, ValidationError, SizeLimit)):
            raise
        raise ValidationError(str(exc)) from exc
    # each entry sets two bits in each of its edges' ints
    if payload == "crossings" and sum(map(int.bit_count, d.crossings.bits)) < 4 * raw.count:
        _refuse_repeats(raw)
    return d


def _check_crossings(raw, n: int) -> _Ranks:
    """The table as ``_Ranks``: a recognised table as it is, and a general
    one once it is a list of integer pairs (else ParseError naming its first
    bad entry); SizeLimit past the explicit cap before any entry is read."""
    if not isinstance(raw, (list, _Ranks)):
        raise ParseError("field 'crossings' must be a list of rank pairs")
    _check_explicit_n(n)  # a huge n fails before its entries are read
    return raw if type(raw) is _Ranks else _Ranks.listed(n, _flat_ranks(raw, ParseError))


def _refuse_repeats(raw: _Ranks) -> None:
    """ParseError naming the first entry the table lists twice, if any."""
    counts = Counter(raw.entries())
    if len(counts) < raw.count:
        entry = next(e for e, count in counts.items() if count > 1)
        raise ParseError(f"field 'crossings': entry {list(entry)} is repeated")


def _decode_rotations(raw, n: int) -> Tuple[Tuple[int, ...], ...]:
    if not (isinstance(raw, list) and len(raw) == n):
        raise ParseError("field 'rotations' must hold one list per vertex")
    for v, seq in enumerate(raw):
        if not isinstance(seq, list):
            raise ParseError(f"rotation at vertex {v} is not a list")
        _require_ints(seq, "rotations")
    return tuple(map(tuple, raw))


def _decode_anchor(raw) -> Tuple[int, Tuple[int, ...]]:
    if not (isinstance(raw, dict) and "v0" in raw and "order" in raw):
        raise ParseError("field 'anchor' must carry 'v0' and 'order'")
    _refuse_unknown(raw, {"v0", "order"}, " in 'anchor'")
    order = raw["order"]
    _require_ints((raw["v0"],), "anchor.v0")
    if not isinstance(order, list):
        raise ParseError("field 'anchor.order' must be a list")
    _require_ints(order, "anchor.order")
    return (raw["v0"], tuple(order))


def encode_certificate(c: Certificate) -> str:
    return _canonical({"kind": c.kind, "vertices": list(c.vertices)})


def decode_certificate(text: str) -> Certificate:
    doc = _parse(text)
    if not isinstance(doc, dict) or "kind" not in doc or "vertices" not in doc:
        raise ParseError("certificate document must carry 'kind' and 'vertices'")
    _refuse_unknown(doc, {"kind", "vertices"})
    vs = doc["vertices"]
    if not isinstance(vs, list):
        raise ParseError("field 'vertices' must be a list")
    _require_ints(vs, "vertices")
    try:
        return Certificate(kind=doc["kind"], vertices=tuple(vs))
    except InvalidCertificate as exc:
        raise ValidationError(str(exc)) from exc


def _read(path) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return fh.read()
        except UnicodeDecodeError as exc:
            raise ParseError(f"{path}: not UTF-8 text (byte {exc.start})") from None


def load_drawing(path) -> Drawing:
    return decode_drawing(_read(path))


def save_drawing(d: Drawing, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(encode_drawing(d))


def load_certificate(path) -> Certificate:
    return decode_certificate(_read(path))


def save_certificate(c: Certificate, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(encode_certificate(c))
