"""Command-line interface.

Subcommands: generate, verify, extract, oracle, bench, render, tables.
Exit codes: 0 success, 1 usage error, 2 verification failed, 3 invalid
drawing or input, 4 budget or candidate pool exhausted.  All outputs are
deterministic for fixed argv and seed.  The argument parser is built once
per process and reused by every dispatch call.
"""

from __future__ import annotations

import argparse
import errno
import math
import os
import sys
from contextlib import suppress
from functools import cache
from itertools import chain
from typing import Iterable, List, Optional

from . import codec, generators, oracles, svg
from .chromatics import ChiCache, _chi_blocks, _phi_blocks, phi_table, validate_observation
from .drawing import CONVEX, MODELS, TWISTED, Certificate, _certified, verify_certificate
from .errors import (
    BudgetExhausted,
    CstgError,
    InvalidSelection,
    ParseError,
)
from .extraction import extract_pattern
from .planepath import extract_plane_path

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VERIFY_FAILED = 2
EXIT_INVALID = 3
EXIT_EXHAUSTED = 4


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


@cache
def _build_parser() -> _Parser:
    parser = _Parser(prog="cstg", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="emit a drawing document")
    gen.add_argument(
        "--family",
        required=True,
        choices=["convex", "twisted", "halfcircle", "points", "horton"],
    )
    gen.add_argument("--n", type=int)
    gen.add_argument("--seed", type=int, help="halfcircle only; default 0")
    gen.add_argument("--points", help="points only: integer points as 'x,y;x,y;...'")
    gen.add_argument("--out")

    ver = sub.add_parser("verify", help="check a certificate against a drawing")
    ver.add_argument("drawing")
    ver.add_argument("certificate", nargs="?")
    ver.add_argument("--self", dest="self_check", action="store_true")

    ext = sub.add_parser("extract", help="run an extraction pipeline")
    pipes = ext.add_subparsers(dest="what", required=True)
    pat = pipes.add_parser("pattern", help="convex or twisted pattern")
    pat.add_argument("--m1", type=int, default=4)
    pat.add_argument("--m2", type=int, default=4)
    path = pipes.add_parser("planepath", help="plane path or two-center star")
    path.add_argument("--m-override", type=int)
    path.add_argument("--path-target", type=int)
    path.add_argument("--budget-seconds", type=float)
    path.add_argument("--budget-nodes", type=int)
    path.add_argument("--star-out", help="write the bipartite star document here")
    for pipe in (pat, path):
        pipe.add_argument("drawing")
        pipe.add_argument("--out", help="write the certificate document here")

    orc = sub.add_parser("oracle", help="run a brute-force search")
    orc.add_argument("what", choices=["maxconvex", "maxtwisted", "planepath"])
    orc.add_argument("drawing")
    orc.add_argument("--budget-seconds", type=float)
    orc.add_argument("--budget-nodes", type=int)
    orc.add_argument("--out", help="write the witness certificate here")

    ben = sub.add_parser("bench", help="batch extraction trials, CSV summary")
    ben.add_argument("--n", type=int, required=True)
    ben.add_argument("--trials", type=int, required=True)
    ben.add_argument("--seed", type=int, default=0, help="base seed")
    ben.add_argument("--m1", type=int, default=4)
    ben.add_argument("--m2", type=int, default=4)
    ben.add_argument("--out", required=True)

    ren = sub.add_parser("render", help="render a geometric drawing as SVG")
    ren.add_argument("drawing")
    ren.add_argument("--out", required=True)
    ren.add_argument("--overlay", help="certificate document to highlight")

    tab = sub.add_parser("tables", help="export chi or phi values as CSV")
    tab.add_argument("what", choices=["chi", "phi"])
    tab.add_argument("drawing")
    tab.add_argument("--out", required=True)

    return parser


def _emit(chunks: Iterable[str], out: Optional[str]) -> None:
    """Write an output, an iterable of str chunks (a one-piece document, SVG
    or CSV is ``[text]``), to stdout when ``out`` is None, else to the file
    ``out`` through ``_emit_files``."""
    if out is None:
        sys.stdout.writelines(chunks)
    else:
        _emit_files([(chunks, out)])


def _emit_files(outputs) -> None:
    """Write each (chunks, out) of ``outputs`` to the file ``out``: all of
    them or none.

    The chunks go one by one to the sibling ``<out>.<pid>.tmp``, so only one
    chunk is held at a time.  Only when every temporary file is complete,
    and no ``out`` is a directory, does each replace its ``out``, so an
    ``out`` appears only when complete, and a symlink at ``out`` is
    replaced, not written through.  On any error every temporary file is
    removed and every ``out`` is left as it was; a file error names the
    ``out`` it met.
    """
    tmps = []
    try:
        for chunks, out in outputs:
            tmp = f"{out}.{os.getpid()}.tmp"
            fh = open(tmp, "w", encoding="utf-8")
            tmps.append(tmp)
            with fh:
                fh.writelines(chunks)
        for _, out in outputs:
            if os.path.isdir(out) and not os.path.islink(out):
                raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), out)
        for tmp, (_, out) in zip(tmps, outputs):
            os.replace(tmp, out)
    except BaseException as exc:
        for tmp in tmps:
            with suppress(FileNotFoundError):  # gone once it replaced its out
                os.remove(tmp)
        if isinstance(exc, OSError):  # out: the one the failed step was on
            raise type(exc)(exc.errno, exc.strerror, out) from None
        raise


def _parse_points(raw: str):
    pts = []
    for chunk in raw.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        try:
            x, y = chunk.split(",")
            pts.append((int(x), int(y)))
        except ValueError:
            raise UsageError(f"--points chunk {chunk!r} is not 'x,y' in integers") from None
    return pts


def _cmd_generate(args) -> int:
    # a flag the family does not read is refused, not dropped
    unread = [flag for flag, refused in (
        ("--n", args.n is not None and args.family == "points"),
        ("--seed", args.seed is not None and args.family != "halfcircle"),
        ("--points", args.points is not None and args.family != "points"),
    ) if refused]
    if unread:
        raise UsageError(f"{args.family} family does not read {unread[0]}")
    if args.family == "points":
        if not args.points:
            raise UsageError("points family needs --points")
        d = generators.gen_straightline(_parse_points(args.points))
    elif args.family == "horton":
        if args.n is None:
            raise UsageError("horton family needs --n (a power of two)")
        k = args.n.bit_length() - 1
        if 2**k != args.n:
            raise UsageError(f"--n must be a power of two, got {args.n}")
        d = generators.gen_straightline(generators.gen_horton(k))
    else:
        if args.n is None:
            raise UsageError(f"{args.family} family needs --n")
        if args.family == "convex":
            d = generators.gen_convex(args.n)
        elif args.family == "twisted":
            d = generators.gen_twisted(args.n)
        else:
            d = generators.gen_halfcircle(args.n, seed=args.seed or 0)
    _emit([codec.encode_drawing(d)], args.out)
    return EXIT_OK


def _self_check(d) -> int:
    # codec round-trip must be byte-stable
    text = codec.encode_drawing(d)
    if codec.encode_drawing(codec.decode_drawing(text)) != text:
        print("self-check: codec round-trip failed", file=sys.stderr)
        return EXIT_VERIFY_FAILED
    pattern = MODELS[d.model].pattern
    if pattern:  # the whole drawing is the pattern
        report = verify_certificate(d, Certificate(pattern, tuple(range(d.n))))
    else:
        ad = generators.anchored_view(d)
        obs = validate_observation(ad)
        if not obs.ok:
            print(f"self-check: observation violated at {obs.violation}", file=sys.stderr)
            return EXIT_INVALID
        print(f"self-check passed ({obs.triples_checked} triples)")
        return EXIT_OK
    if not report.ok:
        print(f"self-check: {report.failure}", file=sys.stderr)
        return EXIT_VERIFY_FAILED
    print(f"self-check passed ({report.checked} tuples)")
    return EXIT_OK


def _cmd_verify(args) -> int:
    if args.self_check == (args.certificate is not None):
        raise UsageError("verify takes exactly one of a certificate document and --self")
    d = codec.load_drawing(args.drawing)
    if args.self_check:
        return _self_check(d)
    cert = codec.load_certificate(args.certificate)
    report = verify_certificate(d, cert)
    if report.ok:
        print(f"pass: {cert.kind} certificate, {report.checked} checks")
        return EXIT_OK
    print(f"fail: {report.failure}", file=sys.stderr)
    return EXIT_VERIFY_FAILED


def _budget(args) -> Optional[oracles.OracleBudget]:
    """The search budget the flags set; None when neither flag is given."""
    if args.budget_seconds is None and args.budget_nodes is None:
        return None
    return oracles.OracleBudget(seconds=args.budget_seconds, nodes=args.budget_nodes)


def _cmd_extract(args) -> int:
    if args.what == "planepath" and args.out and args.star_out:
        if os.path.realpath(args.out) == os.path.realpath(args.star_out):
            raise UsageError("--out and --star-out name the same file")
    d = codec.load_drawing(args.drawing)
    ad = generators.anchored_view(d)
    if args.what == "pattern":
        outcome = extract_pattern(ad, args.m1, args.m2)
        for line in outcome.report_lines():
            print(line)
        if outcome.exhausted:
            return EXIT_EXHAUSTED
        if args.out:
            _emit([codec.encode_certificate(outcome.certificate)], args.out)
        return EXIT_OK
    budget = _budget(args)
    outcome = extract_plane_path(
        ad,
        m_override=args.m_override,
        path_target=args.path_target,
        budget=budget,
    )
    if args.star_out and outcome.bipartite is None:
        stats = outcome.stats
        raise InvalidSelection(f"star out unused: m = {stats.m} takes the {stats.branch} branch")
    for line in outcome.report_lines():
        print(line)
    outputs = [(outcome.path, args.out), (outcome.bipartite, args.star_out)]
    _emit_files([([codec.encode_certificate(cert)], out) for cert, out in outputs if out])
    return EXIT_OK


def _cmd_oracle(args) -> int:
    d = codec.load_drawing(args.drawing)
    budget = _budget(args)
    try:
        if args.what == "planepath":
            result = oracles.longest_plane_path_exact(d, budget=budget)
            kind = "plane_path"
        else:
            kind = CONVEX if args.what == "maxconvex" else TWISTED
            result = oracles.max_pattern_exact(d, kind, budget=budget)
    except BudgetExhausted as exc:
        result = exc.payload
    for line in result.report_lines():
        print(line)
    if not result.exact:  # no target is given, so only a budget stops a search
        return EXIT_EXHAUSTED
    if args.out:
        _emit([codec.encode_certificate(_certified(d, kind, result.witness))], args.out)
    return EXIT_OK


BENCH_HEADER = "# cstg-bench-1\ntrial,seed,family,n,m1,m2,outcome,kind,size,stages,edges_built,ref_ceil_8log2n\n"


def _cmd_bench(args) -> int:
    if args.trials < 1:
        raise UsageError(f"--trials must be at least 1, got {args.trials}")
    rows = []
    for trial in range(args.trials):
        seed = args.seed + trial
        ad = generators.anchored_view(generators.gen_halfcircle(args.n, seed=seed))
        outcome = extract_pattern(ad, args.m1, args.m2)  # its certificate is verified
        cert, stats = outcome.certificate, outcome.stats
        kind, size = (cert.kind, len(cert.vertices)) if cert is not None else ("none", 0)
        rows.append(
            f"{trial},{seed},halfcircle,{args.n},{args.m1},{args.m2},"
            f"{stats.outcome},{kind},{size},{stats.stages},{stats.total_edges},"
        )
    # read after the trials, so a bad --n is the drawing's error (exit 3)
    reference = math.ceil(8 * math.log2(args.n))
    _emit([BENCH_HEADER + "".join(f"{row}{reference}\n" for row in rows)], args.out)
    return EXIT_OK


def _cmd_render(args) -> int:
    d = codec.load_drawing(args.drawing)
    overlay = codec.load_certificate(args.overlay) if args.overlay else None
    _emit([svg.render_svg(d, overlay=overlay)], args.out)
    return EXIT_OK


def _cmd_tables(args) -> int:
    d = codec.load_drawing(args.drawing)
    ad = generators.anchored_view(d)
    if args.what == "chi":
        chunks = chain(["# cstg-chi-1\ni,j,k,color\n"], _chi_blocks(ChiCache(ad)._star, ad.n))
    else:
        chunks = chain(["# cstg-phi-1\ni,j,a,b\n"], _phi_blocks(phi_table(ad)))
    _emit(chunks, args.out)
    return EXIT_OK


_COMMANDS = {
    "generate": _cmd_generate,
    "verify": _cmd_verify,
    "extract": _cmd_extract,
    "oracle": _cmd_oracle,
    "bench": _cmd_bench,
    "render": _cmd_render,
    "tables": _cmd_tables,
}


def dispatch(argv: Optional[List[str]] = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        return _COMMANDS[args.command](args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ParseError,) as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except FileNotFoundError as exc:
        print(f"missing file: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except OSError as exc:
        print(f"file error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except CstgError as exc:
        print(f"invalid input: {exc.__class__.__name__}: {exc}", file=sys.stderr)
        return EXIT_INVALID


def main() -> None:
    sys.exit(dispatch())


if __name__ == "__main__":
    main()
