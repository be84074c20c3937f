"""Workloads of the cstg benchmark: corpus set-up, ops and output checks.

Set-up builds a workload's corpus from the seed and encodes its documents,
which are then written to files.
One op is a short sequence of CLI calls run in-process through
``cstg.cli.dispatch`` with stdout and stderr captured.  Checks run after the
op, outside its timed interval.  Sizes were chosen so that one pass over the
corpus fits an 18 s run on a 2-core machine; see README.md.
"""

from __future__ import annotations

import hashlib
import io
import math
import os
import random
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from typing import Dict, List, Optional

from cstg import cli, codec, generators
from cstg.chromatics import VALID_COLORS, ChiCache, validate_observation
from cstg.cli import EXIT_EXHAUSTED, EXIT_OK
from cstg.drawing import (
    CONVEX,
    PLANE_PATH,
    TWISTED,
    Certificate,
    induced_subdrawing,
    verify_certificate,
)
from cstg.extraction import extract_pattern
from cstg.planepath import extract_plane_path


@dataclass
class Step:
    rc: int
    out: str
    err: str


def cli_step(argv: List[str]) -> Step:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        rc = cli.dispatch(argv)
    return Step(rc, out.getvalue(), err.getvalue())


def file_sha256(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def report_fields(text: str) -> Dict[str, str]:
    """`key: value` lines of a CLI report."""
    fields = {}
    for line in text.splitlines():
        key, sep, value = line.partition(": ")
        if sep:
            fields[key] = value
    return fields


class Documents:
    """The documents a set-up encodes, kept in memory until `write()`.

    Set-up time is the generation and encoding of the corpus; the file
    writes are timed apart (README.md, How a run works).
    """

    def __init__(self, workdir: str):
        self.workdir = workdir
        self.texts: Dict[str, str] = {}

    def drawing(self, d, name: str) -> str:
        return self._add(name, codec.encode_drawing(d))

    def certificate(self, c, name: str) -> str:
        return self._add(name, codec.encode_certificate(c))

    def _add(self, name: str, text: str) -> str:
        path = os.path.join(self.workdir, name)
        self.texts[path] = text
        return path

    def write(self) -> None:
        for path, text in self.texts.items():
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)


def expect_rc(step: Step, allowed, what: str) -> List[str]:
    if step.rc in allowed:
        return []
    return [f"{what}: exit code {step.rc}, expected {sorted(allowed)}; stderr {step.err.strip()!r}"]


class Op:
    """One op: CLI steps over input documents, writing output documents."""

    key = ""
    label = ""
    inputs: List[str] = []
    outputs: List[str] = []

    def run(self) -> List[Step]:
        raise NotImplementedError

    def check(self, steps: List[Step]) -> List[str]:
        raise NotImplementedError

    def clear_outputs(self) -> None:
        for path in self.outputs:
            if os.path.exists(path):
                os.remove(path)

    def digests(self, steps: List[Step]) -> Dict[str, str]:
        """sha256 of the exit codes and captured text, and of each output document."""
        h = hashlib.sha256()
        for step in steps:
            h.update(f"{step.rc}\0{step.out}\0{step.err}\0".encode("utf-8"))
        found = {"steps": h.hexdigest()}
        for path in self.outputs:
            found[os.path.basename(path)] = file_sha256(path) if os.path.exists(path) else "absent"
        return found


def _certificate_problems(drawing, path: str, kind: str, size: Optional[int]) -> List[str]:
    """Re-verifies an output certificate document with verify_certificate."""
    if not os.path.exists(path):
        return [f"certificate {os.path.basename(path)} missing"]
    cert = codec.load_certificate(path)
    problems = []
    if cert.kind != kind:
        problems.append(f"certificate kind {cert.kind}, expected {kind}")
    if size is not None and len(cert.vertices) != size:
        problems.append(f"certificate size {len(cert.vertices)}, expected {size}")
    report = verify_certificate(drawing, cert)
    if not report.ok:
        problems.append(f"certificate fails verify_certificate: {report.failure}")
    return problems


# -- extract ---------------------------------------------------------------


class ExtractOp(Op):
    """extract pattern, verify it, extract planepath --m-override 16, verify it."""

    def __init__(self, key, drawing, workdir, n, m):
        self.key = key
        self.label = f"extract n={n} M={m}"
        self.n, self.m = n, m
        self.drawing = drawing
        self.cert = os.path.join(workdir, f"{key}.cert.json")
        self.path = os.path.join(workdir, f"{key}.path.json")
        self.inputs = [drawing]
        self.outputs = [self.cert, self.path]

    def run(self):
        m = str(self.m)
        steps = [cli_step(["extract", "pattern", self.drawing, "--m1", m, "--m2", m, "--out", self.cert])]
        if steps[0].rc == EXIT_OK:
            steps.append(cli_step(["verify", self.drawing, self.cert]))
        steps.append(cli_step(["extract", "planepath", self.drawing, "--m-override", "16", "--out", self.path]))
        steps.append(cli_step(["verify", self.drawing, self.path]))
        return steps

    def check(self, steps):
        d = codec.load_drawing(self.drawing)
        problems = expect_rc(steps[0], (EXIT_OK, EXIT_EXHAUSTED), "extract pattern")
        outcome = report_fields(steps[0].out).get("outcome")
        if steps[0].rc == EXIT_OK:
            if outcome not in (CONVEX, TWISTED):
                problems.append(f"extract pattern exited 0 with outcome {outcome!r}")
            else:
                problems += _certificate_problems(d, self.cert, outcome, self.m)
            problems += expect_rc(steps[1], (EXIT_OK,), "verify pattern")
        elif steps[0].rc == EXIT_EXHAUSTED:
            if outcome != "exhausted":
                problems.append(f"extract pattern exited 4 with outcome {outcome!r}")
            if os.path.exists(self.cert):
                problems.append("exhausted extraction wrote a certificate")
        path_step, verify_step = steps[-2], steps[-1]
        problems += expect_rc(path_step, (EXIT_OK,), "extract planepath")
        problems += expect_rc(verify_step, (EXIT_OK,), "verify planepath")
        if path_step.rc == EXIT_OK:
            reported = report_fields(path_step.out).get("path vertices", "").split(" ")[0]
            size = int(reported) if reported.isdigit() else None
            if size is None:
                problems.append("planepath report lacks a vertex count")
            problems += _certificate_problems(d, self.path, PLANE_PATH, size)
        return problems


def build_extract(seed: int, size: str, docs: Documents) -> List[Op]:
    # n spread evenly over the range and M alternating, so only the sign
    # vectors vary with the seed; their cost is heavy-tailed (README.md)
    sizes = {"full": (64, 96, (6, 8), 384), "tiny": (24, 32, (4,), 4)}
    lo, hi, ms, count = sizes[size]
    rng = random.Random(f"cstg-extract-{seed}")
    ops = []
    for i in range(count):
        n = lo + i * (hi - lo + 1) // count
        m = ms[i % len(ms)]
        key = f"x{i:03d}"
        doc = docs.drawing(generators.gen_halfcircle(n, seed=rng.getrandbits(32)), f"{key}.json")
        ops.append(ExtractOp(key, doc, docs.workdir, n, m))
    rng.shuffle(ops)
    return ops


# -- scan ------------------------------------------------------------------


class ScanOp(Op):
    """verify --self, tables phi, tables chi: the exhaustive cubic layer."""

    def __init__(self, key, label, drawing, workdir, n):
        self.key = key
        self.label = label
        self.n = n
        self.drawing = drawing
        self.phi = os.path.join(workdir, f"{key}.phi.csv")
        self.chi = os.path.join(workdir, f"{key}.chi.csv")
        self.inputs = [drawing]
        self.outputs = [self.phi, self.chi]

    def run(self):
        return [
            cli_step(["verify", self.drawing, "--self"]),
            cli_step(["tables", "phi", self.drawing, "--out", self.phi]),
            cli_step(["tables", "chi", self.drawing, "--out", self.chi]),
        ]

    def check(self, steps):
        n = self.n
        problems = expect_rc(steps[0], (EXIT_OK,), "verify --self")
        problems += expect_rc(steps[1], (EXIT_OK,), "tables phi")
        problems += expect_rc(steps[2], (EXIT_OK,), "tables chi")
        want = f"self-check passed ({math.comb(n - 1, 3)} triples)\n"
        if steps[0].out != want:
            problems.append(f"verify --self printed {steps[0].out!r}, expected {want!r}")
        if problems:
            return problems
        cache = ChiCache(generators.anchored_view(codec.load_drawing(self.drawing)))
        return self._check_phi(cache) + self._check_chi(cache)

    def _check_phi(self, cache) -> List[str]:
        with open(self.phi, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        if lines[:2] != ["# cstg-phi-1", "i,j,a,b"]:
            return ["phi table header malformed"]
        want = [(i, j) for i in range(1, self.n - 1) for j in range(i + 1, self.n)]
        values = {}
        for line, pair in zip(lines[2:], want):
            i, j, a, b = (int(x) for x in line.split(","))
            if (i, j) != pair:
                return [f"phi row {line!r} out of order, expected pair {pair}"]
            values[pair] = (a, b)
        if len(lines) - 2 != len(want):
            return [f"phi table has {len(lines) - 2} rows, expected {len(want)}"]
        # every sampled row must satisfy the DP recurrence over the table's rows
        for i, j in want[:: max(1, len(want) // 48)] + want[-1:]:
            a, b = 2, 2
            for k in range(1, i):
                color = cache.get(k, i, j)
                if color == "100":
                    a = max(a, values[(k, i)][0] + 1)
                elif color == "001":
                    b = max(b, values[(k, i)][1] + 1)
            if values[(i, j)] != (a, b):
                return [f"phi({i},{j}) = {values[(i, j)]}, recurrence gives {(a, b)}"]
        return []

    def _check_chi(self, cache) -> List[str]:
        n = self.n
        want = ((i, j, k) for i in range(1, n - 2) for j in range(i + 1, n - 1) for k in range(j + 1, n))
        stride = max(1, math.comb(n - 1, 3) // 64)
        rows = 0
        with open(self.chi, encoding="utf-8") as fh:
            if fh.readline() != "# cstg-chi-1\n" or fh.readline() != "i,j,k,color\n":
                return ["chi table header malformed"]
            for (i, j, k), line in zip(want, fh):  # want first: no row is skipped
                prefix, _, color = line.rstrip("\n").rpartition(",")
                if prefix != f"{i},{j},{k}" or color not in VALID_COLORS:
                    return [f"chi row {line!r}, expected triple ({i},{j},{k})"]
                if rows % stride == 0 and cache.get(i, j, k) != color:
                    return [f"chi({i},{j},{k}) = {color}, library gives {cache.get(i, j, k)}"]
                rows += 1
            if rows != math.comb(n - 1, 3) or fh.read():
                return [f"chi table row count differs from C({n - 1},3)"]
        return []


def build_scan(seed: int, size: str, docs: Documents) -> List[Op]:
    sizes = {
        "full": (((56, 8), (64, 6), (80, 4), (112, 1), (160, 1)), ((6, 2),)),
        "tiny": (((12, 2), (16, 1)), ((4, 1),)),
    }
    halfcircles, hortons = sizes[size]
    rng = random.Random(f"cstg-scan-{seed}")
    ops = []
    for n, count in halfcircles:
        for r in range(count):
            key = f"s{n}r{r}"
            doc = docs.drawing(generators.gen_halfcircle(n, seed=rng.getrandbits(32)), f"{key}.json")
            ops.append(ScanOp(key, f"scan halfcircle n={n}", doc, docs.workdir, n))
    for k, count in hortons:
        for r in range(count):
            # a seeded relabelling of the Horton set: same geometry, new documents
            points = generators.gen_horton(k)
            rng.shuffle(points)
            key = f"h{k}r{r}"
            doc = docs.drawing(generators.gen_straightline(points), f"{key}.json")
            ops.append(ScanOp(key, f"scan horton n={2 ** k}", doc, docs.workdir, 2 ** k))
    rng.shuffle(ops)
    return ops


# -- oracle ----------------------------------------------------------------


class SearchOp(Op):
    """oracle maxconvex|maxtwisted under a node budget."""

    def __init__(self, key, label, drawing, workdir, kind, budget, extracted=None, known=None):
        self.key = key
        self.label = label
        self.drawing = drawing
        self.kind = kind
        self.budget = budget
        self.extracted = extracted  # certificate extract_pattern found on this drawing
        self.known = known  # the exact answer, for family drawings
        self.witness = os.path.join(workdir, f"{key}.witness.json")
        self.inputs = [drawing]
        self.outputs = [self.witness]

    def run(self):
        what = "maxconvex" if self.kind == CONVEX else "maxtwisted"
        return [cli_step(["oracle", what, self.drawing, "--budget-nodes", str(self.budget), "--out", self.witness])]

    def check(self, steps):
        step = steps[0]
        problems = expect_rc(step, (EXIT_OK, EXIT_EXHAUSTED), "oracle")
        fields = report_fields(step.out)
        try:
            size = int(fields["size"])
            witness = tuple(int(v) for v in fields["witness"].split())
            nodes = int(fields["nodes expanded"])
        except (KeyError, ValueError):
            return problems + [f"oracle report malformed: {step.out!r}"]
        exact = fields.get("exact") == "yes"
        if exact != (step.rc == EXIT_OK):
            problems.append(f"oracle exit code {step.rc} with exact={exact}")
        if len(witness) != size:
            problems.append(f"witness has {len(witness)} vertices, size says {size}")
        if nodes > self.budget + 1:
            problems.append(f"{nodes} nodes expanded under a budget of {self.budget}")
        d = codec.load_drawing(self.drawing)
        if d.model == "halfcircle" and not validate_observation(generators.anchored_view(d)).ok:
            problems.append("drawing fails the self-check")
        if exact:
            problems += _certificate_problems(d, self.witness, self.kind, size)
        elif os.path.exists(self.witness):
            problems.append("inexact search wrote a witness document")
        if witness:
            report = verify_certificate(d, Certificate(self.kind, witness))
            if not report.ok:
                problems.append(f"reported witness fails verify_certificate: {report.failure}")
        if exact and self.extracted is not None and self.extracted.kind == self.kind:
            if size < len(self.extracted.vertices):
                problems.append(
                    f"oracle size {size} below the extracted {self.kind} certificate "
                    f"of size {len(self.extracted.vertices)}"
                )
        if self.known is not None and (not exact or size != self.known):
            problems.append(f"oracle size {size} (exact={exact}), known answer {self.known}")
        return problems


class VerifyOp(Op):
    """verify of a full-size convex or twisted certificate; the answer is known."""

    def __init__(self, key, label, drawing, cert, kind, n):
        self.key = key
        self.label = label
        self.drawing = drawing
        self.cert = cert
        self.expected = f"pass: {kind} certificate, {math.comb(n, 4)} checks\n"
        self.inputs = [drawing, cert]
        self.outputs = []

    def run(self):
        return [cli_step(["verify", self.drawing, self.cert])]

    def check(self, steps):
        problems = expect_rc(steps[0], (EXIT_OK,), "verify")
        if steps[0].out != self.expected:
            problems.append(f"verify printed {steps[0].out!r}, expected {self.expected!r}")
        return problems


class RenderOp(Op):
    """render --overlay of a verified certificate at small n."""

    def __init__(self, key, label, drawing, cert, workdir, n, overlay_edges):
        self.key = key
        self.label = label
        self.drawing = drawing
        self.cert = cert
        self.n = n
        self.overlay_edges = overlay_edges
        self.svg = os.path.join(workdir, f"{key}.svg")
        self.inputs = [drawing, cert]
        self.outputs = [self.svg]

    def run(self):
        return [cli_step(["render", self.drawing, "--out", self.svg, "--overlay", self.cert])]

    def check(self, steps):
        problems = expect_rc(steps[0], (EXIT_OK,), "render")
        if problems:
            return problems
        with open(self.svg, encoding="utf-8") as fh:
            text = fh.read()
        if not (text.startswith('<?xml version="1.0"') and text.endswith("</svg>\n")):
            problems.append("SVG document malformed")
        want = math.comb(self.n, 2) + self.overlay_edges
        if text.count("<polyline ") != want:
            problems.append(f"SVG has {text.count('<polyline ')} polylines, expected {want}")
        if text.count("<circle ") != self.n:
            problems.append(f"SVG has {text.count('<circle ')} vertices, expected {self.n}")
        return problems


def build_oracle(seed: int, size: str, docs: Documents, inject_fault: bool = False) -> List[Op]:
    sizes = {
        # (search sizes, drawings per size, node budget, verify n, render n)
        "full": (range(16, 23), 3, 125_000, 48, 16),
        "tiny": ((8, 10), 1, 20_000, 10, 8),
    }
    search_ns, per_n, budget, verify_n, render_n = sizes[size]
    rng = random.Random(f"cstg-oracle-{seed}")
    ops: List[Op] = []
    workdir = docs.workdir

    def save_drawing(d, key):
        return docs.drawing(d, f"{key}.json")

    def save_cert(cert, key):
        return docs.certificate(cert, f"{key}.cert.json")

    for n in search_ns:
        for r in range(per_n):
            key = f"o{n}r{r}"
            d = generators.gen_halfcircle(n, seed=rng.getrandbits(32))
            doc = save_drawing(d, key)
            ad = generators.anchored_view(d)
            extracted = extract_pattern(ad, 4, 4).certificate
            for kind in (CONVEX, TWISTED):
                ops.append(SearchOp(f"{key}{kind[0]}", f"oracle max{kind} halfcircle n={n}", doc, workdir, kind, budget, extracted))
            if r == 0:
                path = extract_plane_path(ad, m_override=16).path  # verified on return
                cert = save_cert(path, key)
                ops.append(RenderOp(f"{key}svg", f"render halfcircle n={n}", doc, cert, workdir, n, len(path.edges())))

    known_answers = (
        (CONVEX, "twisted", 8, 4),
        (TWISTED, "twisted", 10, 10),
        (TWISTED, "twisted", 12, 12),
        (CONVEX, "convex", 10, 10),
        (CONVEX, "convex", 12, 12),
    )
    for kind, family, m, known in known_answers:
        d = generators.gen_twisted(m) if family == "twisted" else generators.gen_convex(m)
        key = f"k{family}{m}{kind[0]}"
        ops.append(SearchOp(key, f"oracle max{kind} {family} n={m}", save_drawing(d, key), workdir, kind, budget, known=known))

    for kind, gen in ((CONVEX, generators.gen_convex), (TWISTED, generators.gen_twisted)):
        d = gen(verify_n)
        vertices = tuple(range(verify_n))
        if inject_fault and kind == CONVEX:
            vertices = (1, 0) + vertices[2:]  # two vertices swapped: no longer convex
        cert = save_cert(Certificate(kind, vertices), f"v{kind}")
        implicit = save_drawing(d, f"v{kind}")
        explicit = save_drawing(induced_subdrawing(d, range(verify_n)), f"v{kind}x")
        ops.append(VerifyOp(f"v{kind}", f"verify {kind} implicit n={verify_n}", implicit, cert, kind, verify_n))
        ops.append(VerifyOp(f"v{kind}x", f"verify {kind} explicit n={verify_n}", explicit, cert, kind, verify_n))

        small = gen(render_n)
        full = Certificate(kind, tuple(range(render_n)))
        key = f"r{kind}"
        ops.append(RenderOp(key, f"render {kind} n={render_n}", save_drawing(small, key), save_cert(full, key), workdir, render_n, len(full.edges())))

    rng.shuffle(ops)
    return ops


def build(workload: str, seed: int, size: str, docs: Documents, inject_fault: bool = False) -> List[Op]:
    """The workload's ops; their documents are in `docs`, not yet written."""
    if workload == "extract":
        return build_extract(seed, size, docs)
    if workload == "scan":
        return build_scan(seed, size, docs)
    return build_oracle(seed, size, docs, inject_fault)


# op_tail_ms percentile per workload: the highest of 75, 90, 99, 99.9 that
# leaves at least ten timed ops beyond it at the full size and --seconds 18
TAIL_PERCENTILE = {"extract": 90.0, "scan": 75.0, "oracle": 75.0}

# nominal seconds of one full-size pass, measured once on the idle 2-core
# machine; a run times --seconds // PASS_SECONDS whole passes (at least one),
# whatever the speed of the program or the load of the machine
PASS_SECONDS = {"extract": 10.0, "scan": 8.0, "oracle": 10.5}
