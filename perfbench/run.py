"""Runs one workload of the cstg benchmark and prints its metrics.

    python3 perfbench/run.py --workload extract|scan|oracle --seed N \
        --seconds S --trace 0|1 [--size full|tiny] [--inject-fault]

The program under test is imported from ``src/`` of the checkout that holds
this file; without it the run exits non-zero before printing a result.

A closed loop with one client: ops run back to back, in-process, over the
corpus that set-up wrote.  An untimed warm-up over the first half of the
corpus comes first, then a fixed number of whole timed passes: ``--seconds``
over the workload's nominal pass time (``workloads.PASS_SECONDS``), at least
one.  The pass count never depends on measured time, so every commit is
measured on the same ops.  Every op's outputs are checked outside its timed
interval.  Times are scaled to the machine's idle
speed by a calibration loop timed next to the ops (calibrate.py); the wall
times are in the metadata.  With ``--trace 0`` the last line of
stdout holds the end-to-end metrics; with ``--trace 1`` it holds the
per-layer metrics of one traced pass and the tracing overhead.  A JSON
artefact with run metadata and output digests goes to ``.perfbench_out/``.
The exit code is 0 only when every op passed its checks.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
# set-ups per untraced run; setup_s is their median
SETUP_REPEATS = 7


def load_program() -> None:
    package = SRC / "cstg"
    if not (package / "__init__.py").is_file():
        sys.exit(f"perfbench: no cstg package under {SRC}")
    sys.path.insert(0, str(SRC))
    import cstg

    if Path(cstg.__file__).resolve().parent != package.resolve():
        sys.exit(f"perfbench: imported cstg from {cstg.__file__}, not from {package}")


class Runner:
    """Runs ops and checks their outputs; the first good run of an op is
    checked in full, later runs must reproduce its output digests."""

    def __init__(self, speed):
        self.speed = speed
        self.first_digests = {}  # op key -> digests of its first good run
        self.samples = []  # (op key, wall seconds, index of the probe before it, passed)
        self.failures = []

    def run_op(self, op, tracer=None) -> None:
        op.clear_outputs()
        probe = self.speed.before_timing()
        if tracer is not None:
            tracer.begin_op()
        error = None
        t0 = perf_counter()
        try:
            steps = op.run()
        except Exception:  # a crash inside the program is a failed op
            error = traceback.format_exc(limit=4)
        t1 = perf_counter()
        if tracer is not None:
            tracer.end_op(op.label, t0, t1)
        problems = [error] if error else self._check(op, steps)
        self.samples.append((op.key, t1 - t0, probe, not problems))
        if problems:
            self.failures.append({"op": op.key, "label": op.label, "problems": problems[:3]})

    def scaled(self):
        """(op key, wall seconds, seconds at reference speed, passed, probe
        index) of every op run."""
        self.speed.probe()
        return [(key, wall, self.speed.scale(wall, probe), ok, probe)
                for key, wall, probe, ok in self.samples]

    def _check(self, op, steps):
        digests = op.digests(steps)
        known = self.first_digests.get(op.key)
        if known is not None:
            return [] if digests == known else ["outputs differ from the op's first run"]
        try:
            problems = op.check(steps)
        except Exception:
            problems = ["output check raised: " + traceback.format_exc(limit=4)]
        if not problems:
            self.first_digests[op.key] = digests
        return problems


def tail_percentile(durations, p: float):
    """Value at percentile p and the number of samples strictly beyond it."""
    if len(durations) < 2:
        value = max(durations)
    else:
        value = statistics.quantiles(durations, n=1000, method="inclusive")[round(p * 10) - 1]
    return value, sum(1 for d in durations if d > value)


def run_digest(ops, runner, input_digests) -> str:
    """One sha256 over every op's input and output digests."""
    record = {op.key: [input_digests[op.key], runner.first_digests.get(op.key)] for op in ops}
    return hashlib.sha256(json.dumps(record, sort_keys=True).encode("utf-8")).hexdigest()


def git_revision():
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=30, check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip()


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "cstg").glob("*.py")):
        h.update(path.name.encode("utf-8") + b"\0" + path.read_bytes())
    return h.hexdigest()


def set_up(workloads, args, workdir: Path, speed):
    """Builds the corpus into `workdir`.

    Returns its ops, the seconds to generate and encode its documents (wall
    and at reference speed), and the wall seconds to write them.
    """
    workdir.mkdir(parents=True)
    docs = workloads.Documents(str(workdir))
    gc.collect()
    probe = speed.probe()
    t0 = perf_counter()
    ops = workloads.build(args.workload, args.seed, args.size, docs, args.inject_fault)
    wall = perf_counter() - t0
    speed.probe()
    t1 = perf_counter()
    docs.write()
    return ops, (wall, speed.scale(wall, probe)), perf_counter() - t1


def warm_up(ops, runner) -> int:
    """Runs the first half of the pass untraced; returns its op count.

    A process's first pass ran about 7% slower than its next one.
    """
    half = (len(ops) + 1) // 2
    gc.collect()
    for op in ops[:half]:
        runner.run_op(op)
    return half


def measure(ops, runner, passes: int, rebuild) -> int:
    """The warm-up, then `passes` whole timed passes over the corpus.

    `rebuild()` repeats the set-up SETUP_REPEATS - 1 times, spread evenly
    between the ops, so the set-ups see the machine as the ops do.  Returns
    the number of warm-up samples, which come first.
    """
    half = (len(ops) + 1) // 2
    order = ops[:half] + ops * passes
    at = {round(k * len(order) / SETUP_REPEATS) for k in range(1, SETUP_REPEATS)}
    gc.collect()
    for i, op in enumerate(order):
        if i in at:
            rebuild()
            gc.collect()
        runner.run_op(op)
    return half


def traced_pass(tracing, ops, runner):
    """One traced pass; returns the tracer and (untraced, traced) sample pairs.

    The warm-up comes first.  In the traced pass, each op of the warm-up
    half also runs untraced right next to its traced run, before it for
    even ops and after it for odd ones, so the pair sees the same machine
    and process state and a repeat's advantage cancels.
    """
    half = warm_up(ops, runner)
    tracer = tracing.Tracer()
    pairs = []
    for i, op in enumerate(ops):
        if i < half and i % 2 == 0:
            runner.run_op(op)
        restore = tracing.install(tracer)
        try:
            runner.run_op(op, tracer)
        finally:
            restore()
        traced = len(runner.samples) - 1
        if i < half and i % 2 == 1:
            runner.run_op(op)
            pairs.append((traced + 1, traced))
        elif i < half:
            pairs.append((traced - 1, traced))
    return tracer, pairs


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=["extract", "scan", "oracle"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--size", choices=["full", "tiny"], default="full",
                        help="tiny shrinks every drawing, for the self-test")
    parser.add_argument("--inject-fault", action="store_true",
                        help="oracle only: corrupt one convex certificate (self-test)")
    args = parser.parse_args(argv)
    if args.inject_fault and args.workload != "oracle":
        parser.error("--inject-fault applies to the oracle workload")

    load_program()
    import calibrate
    import tracing
    import workloads

    scratch = ROOT / ".perfbench_tmp" / f"{args.workload}-{os.getpid()}"
    speed = calibrate.SpeedLog()
    runner = Runner(speed)
    passes = max(1, int(args.seconds // workloads.PASS_SECONDS[args.workload]))

    def digests_of(ops):
        return {op.key: [workloads.file_sha256(p) for p in op.inputs] for op in ops}

    def rebuild():
        """A repeat of the set-up, into a directory of its own; its documents
        must equal the corpus's."""
        again, times, write = set_up(workloads, args, scratch / "rebuild", speed)
        setup_times.append(times)
        write_walls.append(write)
        if digests_of(again) != input_digests:
            runner.failures.append({"op": "setup", "label": "set-up repeat",
                                    "problems": ["documents differ from the first set-up"]})
        shutil.rmtree(scratch / "rebuild")

    try:
        ops, times, write = set_up(workloads, args, scratch / "corpus", speed)
        setup_times, write_walls = [times], [write]
        input_digests = digests_of(ops)
        if args.trace:
            tracer, pairs = traced_pass(tracing, ops, runner)
            warm = 0
        else:
            warm = measure(ops, runner, passes, rebuild)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            scratch.parent.rmdir()
        except OSError:
            pass  # another run still uses it

    failed = len(runner.failures)
    attempted = len(runner.samples)
    percentile = workloads.TAIL_PERCENTILE[args.workload]
    samples = runner.scaled()
    all_durations = [scaled for _, _, scaled, _, _ in samples]
    timed = samples[warm:]  # the warm-up is not timed
    durations = [scaled for _, _, scaled, _, _ in timed]
    wall = [w for _, w, _, _, _ in timed]
    passed = sum(1 for _, _, _, ok, _ in timed if ok)
    tail, beyond = tail_percentile(durations, percentile)
    if args.trace:
        metrics = tracing.layer_metrics(tracer)
        overhead = sum(all_durations[t] - all_durations[u] for u, t in pairs)
        metrics["trace.overhead_s"] = (overhead, "s")
    else:
        metrics = {
            "setup_s": (statistics.median(s for _, s in setup_times), "s"),
            "ops_per_s": (passed / sum(durations), "1/s"),
            "op_p50_ms": (statistics.median(durations) * 1000.0, "ms"),
            "op_tail_ms": (tail * 1000.0, "ms"),
            "ok_ratio": ((attempted - failed) / attempted, "ratio"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "size": args.size,
        "python": platform.python_version(),
        "git_revision": git_revision(),
        "src_sha256": source_digest(),
        "nproc": os.cpu_count(),
        "ops_per_pass": len(ops),
        "passes": 1 if args.trace else passes,
        "warm_up_ops": (len(ops) + 1) // 2,
        "ops_run": attempted,
        "fail_ratio": failed / attempted,
        "tail_percentile": percentile,
        "tail_samples": len(durations),
        "tail_samples_beyond": beyond,
        "setup_runs_s": setup_times,
        "setup_writes_s": write_walls,
        "wall": {
            "setup_s": statistics.median(w for w, _ in setup_times),
            "ops_per_s": passed / sum(wall),
            "op_p50_ms": statistics.median(wall) * 1000.0,
            "op_tail_ms": tail_percentile(wall, percentile)[0] * 1000.0,
        },
        "speed_median": calibrate.REFERENCE_S / statistics.median(speed.probes),
        "run_digest": run_digest(ops, runner, input_digests),
    }
    artefact = {
        "meta": meta,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
        "failures": runner.failures,
        "ops": {op.key: {"label": op.label, "inputs": input_digests[op.key],
                         "outputs": runner.first_digests.get(op.key)} for op in ops},
        "samples": samples,
        "probes": speed.probes,
    }
    if args.trace:
        artefact["spans"] = tracer.records
    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    with open(out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json", "w") as fh:
        json.dump(artefact, fh, indent=1)

    for failure in runner.failures[:5]:
        print(f"FAILED {failure['label']} ({failure['op']}): {failure['problems'][0]}", file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"{name:32s} {value:>16.6g} {unit}")
    print("meta " + json.dumps(meta, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": artefact["metrics"],
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
