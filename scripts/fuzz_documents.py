"""Seeded document fuzzer: mutated documents through every reading subcommand.

Builds small drawing and certificate documents with the library's
generators (convex, twisted, half-circle, points, the explicit restriction
of a half-circle drawing to its anchored order, with its rotations and a
declared anchor, and the explicit restriction of twisted 9 to all its
vertices, with its rotations and no anchor, the shape of the benchmark's
C48 and T48 documents), then makes ``--count`` mutants of them.
A mutant takes one to three edits of the parsed document, each a random
node of its JSON tree: drop a key or a list member, repeat one (an object
key is written twice), retype a value, nudge an integer, shorten or lengthen
a string, reverse, shuffle or cut a list.  Some mutants then have their text
cut, or one byte replaced by a random one (which may not be UTF-8).

Each mutant runs through ``cli.dispatch`` for every subcommand that reads a
document of its kind: a drawing through ``verify --self``, ``verify`` with
a certificate, ``extract pattern``, ``extract planepath``, the three
oracles, ``render`` and both ``tables``; a certificate through ``verify``
and ``render --overlay`` on its drawing.  The integer flags start at
``--m1 3 --m2 3``, ``--m-override 2`` and, for the oracles, ``--budget-nodes
2000``; each mutant nudges one of the four as an edit nudges an integer,
so a count may fall below its floor.  ``extract planepath`` writes its
path with ``--out``, and its star with ``--star-out`` when the base drawing
is one whose m = 2 takes the increasing branch (half-circle 10 and its
anchored restriction), so a failure between the two writes shows.  Each
command's output files are removed before it runs.  The run fails on any
exit code outside {0, 2, 3, 4}, on any exit but 3 from a command given a
count below its floor, on any ``InternalInvariantBroken`` in a command's
output (bad input must be refused at the boundary, not found by a deep
invariant), on a non-zero exit that leaves one of its ``--out`` and
``--star-out`` files behind, on a ``*.tmp`` file left in the work
directory, and on any exception that escapes ``dispatch``, naming the seed,
the mutant, its edits and the argv.  The mutants of a seed are fixed, so a
failure is reproduced by the same ``--seed`` and a ``--count`` past the
mutant's index.

The codec reads an explicit table a piece of about ``codec._PIECE``
characters at a time; the run sets it to 16 characters, two or three
entries, so that the table of every explicit base document spans many
pieces and each mutant's edits fall in pieces on either side of a cut.

Every base document has n <= 12, and an edit moves an integer by at most
one or flips its sign, so n stays at 16 or less.  Implicit documents have
no size cap yet, and a large n would run unbounded.

    python scripts/fuzz_documents.py --seed 1 --count 200

Standard library only; it exits 1 on a failure and 0 otherwise.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import io
import json
import os
import random
import sys
import tempfile
import traceback
from unittest import mock

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from cstg import codec, drawing, generators  # noqa: E402
from cstg.cli import dispatch  # noqa: E402
from cstg.planepath import extract_plane_path  # noqa: E402

ALLOWED_EXITS = (0, 2, 3, 4)
# each integer flag: its value before the nudge, and the least count it takes
FLAGS = {"--m1": (3, 2), "--m2": (3, 2), "--m-override": (2, 1), "--budget-nodes": (2000, 1)}
OUTPUT_FLAGS = ("--out", "--star-out")
RETYPED = ("x", "", 1.5, True, False, None, [], {}, [0, 1], {"n": 3})
SHORT_PIECE = 16  # characters of a crossing table the codec parses at a time


class Obj(list):
    """A JSON object as its (key, value) pairs, so a key can be written twice."""


def load(text: str):
    return json.loads(text, object_pairs_hook=lambda pairs: Obj(list(p) for p in pairs))


def dump(node) -> str:
    if isinstance(node, Obj):
        return "{" + ",".join(f"{json.dumps(k)}:{dump(v)}" for k, v in node) + "}"
    if isinstance(node, list):
        return "[" + ",".join(map(dump, node)) + "]"
    return json.dumps(node)


def base_documents():
    """(name, drawing text, certificate texts, whether m = 2 takes the
    increasing branch, the one with a star) for each base drawing."""
    hc = generators.gen_halfcircle(10, seed=3)
    ad = generators.anchored_view(hc)
    restricted = drawing.induced_subdrawing(hc, (ad.v0,) + ad.order)
    anchored = dataclasses.replace(restricted, anchor=(0, tuple(range(1, hc.n))))
    twisted = generators.gen_twisted(9)
    drawings = {
        "convex 8": generators.gen_convex(8),
        "twisted 9": twisted,
        "half-circle 10": hc,
        "points 8": generators.gen_straightline(generators.gen_horton(3)),
        "explicit anchored 10": anchored,
        "explicit twisted 9": drawing.induced_subdrawing(twisted, range(twisted.n)),
    }
    # an unanchored explicit drawing names no anchor: its certificates are
    # built on the drawing it restricts, whose labels it keeps
    sources = {"explicit twisted 9": twisted}
    docs = []
    for name, d in drawings.items():
        plane = extract_plane_path(generators.anchored_view(sources.get(name, d)), m_override=2)
        certs = [plane.path, drawing.Certificate(drawing.CONVEX, tuple(range(d.n)))]
        if plane.bipartite is not None:
            certs.append(plane.bipartite)
        docs.append((name, codec.encode_drawing(d), [codec.encode_certificate(c) for c in certs],
                     plane.bipartite is not None))
    return docs


def nodes(tree, label="doc", parent=None, idx=None):
    """(label, parent, index, node) for every node of a parsed document, the
    root first; ``parent[index]`` holds the node (in an ``Obj``, its pair)."""
    yield label, parent, idx, tree
    if isinstance(tree, Obj):
        for i, (key, child) in enumerate(tree):
            yield from nodes(child, f"{label}.{key}", tree, i)
    elif isinstance(tree, list):
        for i, child in enumerate(tree):
            yield from nodes(child, f"{label}[{i}]", tree, i)


def copy(node):
    return load(dump(node))


def nudge(rng: random.Random, value: int) -> int:
    """value moved by one, or its sign flipped."""
    return value + rng.choice((-1, 1)) if rng.random() < 0.8 else -value


def mutate(rng: random.Random, tree):
    """One edit of ``tree``, in place where it can be; (tree, what it did)."""
    label, parent, idx, node = rng.choice(list(nodes(tree)))
    hows = ["retype"]
    if isinstance(node, list) and node:
        hows += ["drop", "repeat", "reverse", "shuffle", "cut"]
    if type(node) is int:
        hows.append("nudge")
    if isinstance(node, str):
        hows.append("resize")
    how = rng.choice(hows)
    if how in ("retype", "nudge", "resize"):
        if how == "retype":
            new = copy(rng.choice([v for v in RETYPED if v != node or type(v) is not type(node)]))
        elif how == "nudge":
            new = nudge(rng, node)
        else:
            new = node + rng.choice(node or "UL") if rng.random() < 0.5 else node[:-1]
        if parent is None:
            tree = new
        elif isinstance(parent, Obj):
            parent[idx][1] = new
        else:
            parent[idx] = new
        return tree, f"{how} {label} to {dump(new)}"
    at = rng.randrange(len(node))
    if how == "drop":
        del node[at]
    elif how == "repeat":  # in an Obj, the key is written twice
        twin = [node[at][0], copy(node[at][1])] if isinstance(node, Obj) else copy(node[at])
        node.insert(at, twin)
    elif how == "reverse":
        node.reverse()
    elif how == "shuffle":
        rng.shuffle(node)
    else:
        del node[at:]
    return tree, f"{how} {label}" + (f" at {at}" if how in ("drop", "repeat", "cut") else "")


def mutant(rng: random.Random, text: str):
    """(bytes, edits) of one mutant of the document ``text``."""
    tree, edits = load(text), []
    for _ in range(rng.randint(1, 3)):
        tree, what = mutate(rng, tree)
        edits.append(what)
    data = (dump(tree) + "\n").encode()
    roll = rng.random()
    if roll < 0.1:
        at = rng.randrange(len(data))
        data = data[:at]
        edits.append(f"cut the text at byte {at}")
    elif roll < 0.2:
        at, byte = rng.randrange(len(data)), rng.randrange(256)
        data = data[:at] + bytes([byte]) + data[at + 1:]
        edits.append(f"byte {at} to {byte:#04x}")
    return data, edits


def commands(kind: str, work: str, flags, star: bool):
    """The argv lists that read the document at ``work``/doc, of ``kind``
    "drawing" or "certificate", with the integer flags ``flags``; the other
    document is ``work``/other.  ``extract planepath`` writes its path, and
    its star too when ``star`` says the base drawing has one."""
    doc, other = os.path.join(work, "doc"), os.path.join(work, "other")
    budget = ["--budget-nodes", str(flags["--budget-nodes"])]
    outs = ["--out", os.path.join(work, "p.json")]
    if star:
        outs += ["--star-out", os.path.join(work, "s.json")]

    def given(*names):
        return [arg for name in names for arg in (name, str(flags[name]))]

    if kind == "certificate":
        return [["verify", other, doc],
                ["render", other, "--overlay", doc, "--out", os.path.join(work, "o.svg")]]
    return [
        ["verify", doc, "--self"],
        ["verify", doc, other],
        ["extract", "pattern", doc, *given("--m1", "--m2")],
        ["extract", "planepath", doc, *given("--m-override"), *outs],
        ["oracle", "maxconvex", doc, *budget],
        ["oracle", "maxtwisted", doc, *budget],
        ["oracle", "planepath", doc, *budget, "--out", os.path.join(work, "w.json")],
        ["render", doc, "--out", os.path.join(work, "d.svg")],
        ["tables", "chi", doc, "--out", os.path.join(work, "chi.csv")],
        ["tables", "phi", doc, "--out", os.path.join(work, "phi.csv")],
    ]


def case(docs, seed: int, index: int):
    """(base name, kind, mutant bytes, edits, the other document's text, the
    integer flags, whether the base has a star) of mutant ``index`` of seed
    ``seed`` over the base documents ``docs``; one flag is nudged."""
    rng = random.Random(f"{seed}/{index}")
    name, drawing_text, cert_texts, star = rng.choice(docs)
    cert_text = rng.choice(cert_texts)
    kind = rng.choice(("drawing", "drawing", "certificate"))
    data, edits = mutant(rng, drawing_text if kind == "drawing" else cert_text)
    flags = {flag: value for flag, (value, _) in FLAGS.items()}
    flag = rng.choice(list(FLAGS))
    flags[flag] = nudge(rng, flags[flag])
    other = cert_text if kind == "drawing" else drawing_text
    return name, kind, data, edits, other, flags, star


def run(seed: int, count: int, report=print) -> int:
    """Fuzz ``count`` mutants of seed ``seed``; the number of failures."""
    docs = base_documents()
    failures = 0
    with tempfile.TemporaryDirectory() as work, mock.patch.object(codec, "_PIECE", SHORT_PIECE):
        for index in range(count):
            name, kind, data, edits, other, flags, star = case(docs, seed, index)
            with open(os.path.join(work, "doc"), "wb") as f:
                f.write(data)
            with open(os.path.join(work, "other"), "w", encoding="utf-8") as f:
                f.write(other)
            for argv in commands(kind, work, flags, star):
                # a count below its floor is refused as invalid input
                refused = any(flag in argv and value < FLAGS[flag][1]
                              for flag, value in flags.items())
                outs = [argv[at + 1] for at, arg in enumerate(argv) if arg in OUTPUT_FLAGS]
                for out in outs:
                    if os.path.exists(out):
                        os.remove(out)
                sink = io.StringIO()
                try:
                    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                        code = dispatch(argv)
                except Exception:
                    code, error = None, traceback.format_exc()
                allowed = (3,) if refused else ALLOWED_EXITS
                # a failed command writes nothing, and no command leaves a temporary file
                written = [out for out in outs if code != 0 and os.path.exists(out)]
                stray = sorted(f for f in os.listdir(work) if f.endswith(".tmp"))
                for f in stray:
                    os.remove(os.path.join(work, f))
                if (code in allowed and "InternalInvariantBroken" not in sink.getvalue()
                        and not written and not stray):
                    continue
                failures += 1
                outcome = f"exit {code}: {sink.getvalue()}" if code is not None else error
                if written:
                    outcome += f"\n  left {', '.join(written)} behind"
                if stray:
                    outcome += f"\n  left {', '.join(stray)} in the work directory"
                report(f"seed {seed} mutant {index}: {kind} of {name}, {'; '.join(edits)}\n"
                       f"  argv: cstg {' '.join(argv)}\n  document: {data[:400]!r}\n"
                       f"  {outcome}")
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--count", type=int, default=100, help="mutants to run")
    opts = parser.parse_args(argv)
    failures = run(opts.seed, opts.count)
    print(f"fuzz_documents: seed {opts.seed}, {opts.count} mutants, {failures} failures")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
