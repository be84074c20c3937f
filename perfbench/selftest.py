"""Self-test of the benchmark, on tiny sizes of every workload.

    python3 perfbench/selftest.py

Runs perfbench/run.py in subprocesses and checks that it emits every metric
BENCHMARK.json names, that counts and output digests repeat for one seed,
that a corrupted certificate fails the run, and that the run refuses to
start without the program's sources.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
# counts that must repeat exactly for one seed
EXACT = (
    "chromatics.triples_checked",
    "chromatics.chi_calls",
    "extraction.stages",
    "ramsey.edges_built",
    "drawing.verify_checks",
    "oracles.nodes",
    "oracles.exact_ratio",
)


def bench(*args, script=HERE / "run.py", cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(script), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def tiny(workload, trace, seed=3, *extra):
    return bench("--workload", workload, "--seed", str(seed), "--seconds", "0.5",
                 "--trace", str(trace), "--size", "tiny", *extra)


def result(done):
    return json.loads(done.stdout.strip().splitlines()[-1])


def meta(done):
    line = next(l for l in done.stdout.splitlines() if l.startswith("meta "))
    return json.loads(line[len("meta "):])


class TinyRuns(unittest.TestCase):
    def test_every_metric_is_emitted_with_its_unit(self):
        for workload in WORKLOADS:
            for trace, group in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=workload, trace=trace):
                    done = tiny(workload, trace)
                    self.assertEqual(done.returncode, 0, done.stderr)
                    res = result(done)
                    self.assertEqual(set(res), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(res["correct"])
                    self.assertEqual(res["failed"], 0)
                    self.assertGreaterEqual(res["attempted"], 1)
                    want = {m["name"]: m["unit"] for m in SPEC[group]}
                    got = {name: m["unit"] for name, m in res["metrics"].items()}
                    self.assertEqual(got, want)

    def test_counts_and_outputs_repeat_for_one_seed(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                runs = [tiny(workload, 1, 5) for _ in range(2)]
                untraced = tiny(workload, 0, 5)
                for done in runs + [untraced]:
                    self.assertEqual(done.returncode, 0, done.stderr)
                first, second = (result(done)["metrics"] for done in runs)
                for name in EXACT:
                    self.assertEqual(first[name]["value"], second[name]["value"], name)
                # identical documents and outputs, whether traced or not
                digests = {meta(done)["run_digest"] for done in runs + [untraced]}
                self.assertEqual(len(digests), 1)
                other = tiny(workload, 0, 6)
                self.assertNotEqual(meta(other)["run_digest"], meta(untraced)["run_digest"])

    def test_layers_show_where_work_happens(self):
        metrics = {w: result(tiny(w, 1))["metrics"] for w in WORKLOADS}
        self.assertEqual(metrics["oracle"]["chromatics.chi_calls"]["value"], 0)
        self.assertGreater(metrics["extract"]["ramsey.edges_built"]["value"], 0)
        self.assertGreater(metrics["scan"]["chromatics.triples_checked"]["value"], 0)
        self.assertGreater(metrics["oracle"]["oracles.nodes"]["value"], 0)

    def test_corrupted_certificate_fails_the_run(self):
        done = tiny("oracle", 0, 3, "--inject-fault")
        self.assertNotEqual(done.returncode, 0)
        res = result(done)
        self.assertFalse(res["correct"])
        self.assertGreaterEqual(res["failed"], 1)
        self.assertLess(res["metrics"]["ok_ratio"]["value"], 1.0)

    def test_refuses_to_run_without_program_sources(self):
        bare = ROOT / ".perfbench_tmp" / "selftest-bare"
        shutil.rmtree(bare, ignore_errors=True)
        try:
            shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
            shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
            done = bench("--workload", "extract", "--seed", "1", "--seconds", "1", "--trace", "0",
                         script=bare / HERE.name / "run.py", cwd=bare)
        finally:
            shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(done.returncode, 0)
        self.assertNotIn('"correct"', done.stdout)


if __name__ == "__main__":
    unittest.main()
