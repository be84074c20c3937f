"""Traced layer times at half-circle n=256, beside the ROADMAP baseline table.

    python3 perfbench/layers256.py

For each seeded drawing it runs `verify --self`, `tables phi` and
`extract pattern --m1 6 --m2 6` through the CLI, once untraced (wall time
of the CLI call) and once traced (the span of validate_observation,
phi_table and extract_pattern), and prints the medians over the seeds.
"""

from __future__ import annotations

import shutil
import statistics
import sys
from time import perf_counter

from run import ROOT, load_program

SEEDS = 3


def main() -> None:
    load_program()
    import tracing
    from cstg import codec, generators
    from workloads import cli_step

    scratch = ROOT / ".perfbench_tmp" / "layers256"
    scratch.mkdir(parents=True, exist_ok=True)
    calls = {
        "chromatics.validate": lambda d: ["verify", d, "--self"],
        "chromatics.phi": lambda d: ["tables", "phi", d, "--out", str(scratch / "phi.csv")],
        "extraction.extract": lambda d: ["extract", "pattern", d, "--m1", "6", "--m2", "6"],
    }
    wall = {name: [] for name in calls}
    span = {name: [] for name in calls}
    try:
        for seed in range(SEEDS):
            doc = str(scratch / f"d{seed}.json")
            codec.save_drawing(generators.gen_halfcircle(256, seed=seed), doc)
            for name, argv in calls.items():
                t0 = perf_counter()
                rc = cli_step(argv(doc)).rc
                wall[name].append(perf_counter() - t0)
                tracer = tracing.Tracer()
                restore = tracing.install(tracer)
                try:
                    rc = max(rc, cli_step(argv(doc)).rc)
                finally:
                    restore()
                span[name].append(tracer.ms[name] / 1000.0)
                if rc not in (0, 4):
                    sys.exit(f"{name} on seed {seed} exited {rc}")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    print(f"half-circle n=256, medians over seeds 0..{SEEDS - 1}")
    for name in calls:
        print(f"{name:22s} untraced CLI call {statistics.median(wall[name]):7.3f} s"
              f"   traced span {statistics.median(span[name]):7.3f} s")


if __name__ == "__main__":
    main()
