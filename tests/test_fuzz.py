"""Fail-closed behavior on arbitrary crossing data.

Random explicit drawings are mostly not realizable; the pipelines may
reject them (observation violation or a broken theory guarantee) but must
never return an unverified certificate or leak an unrelated exception.
The document fuzzer in ``scripts/`` holds the CLI to the same on mutated
documents.
"""

import importlib.util
import os
import random
import sys
import xml.etree.ElementTree as ET

import pytest
from models import random_explicit, random_rotation_views

from cstg.drawing import AnchoredDrawing, verify_certificate
from cstg.errors import InternalInvariantBroken, ObservationViolated
from cstg.extraction import extract_pattern
from cstg.generators import gen_halfcircle, gen_twisted
from cstg.planepath import extract_plane_path
from cstg.svg import render_svg


class TestFailClosed:
    def test_extraction_on_random_crossing_data(self):
        rng = random.Random(99)
        rejected = completed = 0
        for _ in range(60):
            n = rng.randint(4, 9)
            d = random_explicit(rng, n, density=rng.choice([0.1, 0.3, 0.6]))
            ad = AnchoredDrawing(base=d, v0=0, order=tuple(range(1, n)))
            try:
                out = extract_pattern(ad, 3, 3)
            except (ObservationViolated, InternalInvariantBroken):
                rejected += 1
                continue
            completed += 1
            if out.certificate is not None:
                assert verify_certificate(d, out.certificate).ok
        # both behaviors must actually occur across the sweep
        assert rejected > 0 and completed > 0

    def test_plane_path_on_random_crossing_data(self):
        for ad in random_rotation_views(random.Random(7), 40):
            try:
                out = extract_plane_path(ad, m_override=2)
            except (ObservationViolated, InternalInvariantBroken):
                continue
            assert verify_certificate(ad.base, out.path).ok


class TestSvgWellFormed:
    def test_renders_parse_as_xml(self):
        drawings = [gen_twisted(7), gen_halfcircle(7, seed=2)]
        for d in drawings:
            root = ET.fromstring(render_svg(d))
            assert root.tag.endswith("svg")
            assert len(list(root)) > d.n * (d.n - 1) // 2


def load_fuzzer():
    path = os.path.join(os.path.dirname(os.path.dirname(__file__)), "scripts", "fuzz_documents.py")
    spec = importlib.util.spec_from_file_location("fuzz_documents", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestDocumentFuzzer:
    """scripts/fuzz_documents.py: mutated documents through every
    subcommand that reads one exit 0, 2, 3 or 4, raise nothing, and never
    report an InternalInvariantBroken."""

    def test_mutants_exit_cleanly(self):
        reports = []
        failures = load_fuzzer().run(seed=0, count=1000, report=reports.append)
        assert failures == 0, "\n".join(reports)

    def test_a_stray_exit_exception_or_internal_invariant_is_named(self, monkeypatch):
        fuzzer = load_fuzzer()
        broken = ("invalid input: InternalInvariantBroken: plane_bipartite certificate "
                  "failed: edges (0, 4) and (1, 7) cross")
        outcomes = iter([1, ValueError("escaped"), broken])

        def dispatch(argv):
            outcome = next(outcomes, 0)
            if isinstance(outcome, Exception):
                raise outcome
            if outcome == broken:
                print(broken, file=sys.stderr)
                return 3
            return outcome

        # mutant 0 of seed 6 is a drawing, read by ten commands
        assert fuzzer.case(fuzzer.base_documents(), 6, 0)[1] == "drawing"
        monkeypatch.setattr(fuzzer, "dispatch", dispatch)
        reports = []
        assert fuzzer.run(seed=6, count=2, report=reports.append) == 3
        assert reports[0].startswith("seed 6 mutant 0: ") and "exit 1" in reports[0]
        assert reports[1].startswith("seed 6 mutant 0: ") and "ValueError: escaped" in reports[1]
        assert reports[2].startswith("seed 6 mutant 0: ") and f"exit 3: {broken}" in reports[2]

    def test_a_failed_write_or_a_stray_temporary_is_named(self, monkeypatch):
        # mutant 0 of seed 14 is a drawing of half-circle 10, which has a
        # star, so extract planepath writes --out and --star-out; of the five
        # commands that write a file, the first leaves its star behind on
        # exit 3 and the second leaves a temporary file on exit 0, which is
        # named once
        fuzzer = load_fuzzer()
        assert fuzzer.case(fuzzer.base_documents(), 14, 0)[:2] == ("half-circle 10", "drawing")
        faults = iter(["written", "stray"])
        seen = []

        def dispatch(argv):
            outs = [argv[at + 1] for at, arg in enumerate(argv) if arg in fuzzer.OUTPUT_FLAGS]
            if not outs:
                return 0
            seen.append(argv[0])
            fault = next(faults, None)
            if fault == "written":
                open(outs[-1], "w").close()
                return 3
            if fault == "stray":
                open(f"{outs[0]}.1.tmp", "w").close()
            return 0

        monkeypatch.setattr(fuzzer, "dispatch", dispatch)
        reports = []
        assert fuzzer.run(seed=14, count=1, report=reports.append) == 2
        assert "--star-out" in reports[0]
        assert reports[0].endswith(f"{os.sep}s.json behind")
        assert reports[1].endswith("left w.json.1.tmp in the work directory")
        assert seen == ["extract", "oracle", "render", "tables", "tables"]

    @pytest.mark.parametrize("seed, index, first, second", [(3, 834, 4, 7), (1, 3299, 7, 9)])
    @pytest.mark.parametrize("argv", [["verify", "{}", "--self"],
                                      ["extract", "planepath", "{}", "--m-override", "2"]])
    def test_a_table_against_its_rotations_is_refused_at_decode(self, tmp_path, capsys, seed,
                                                                index, first, second, argv):
        # one crossing rank of the anchored explicit restriction edited: the
        # star search used to find it first, as a failed certificate
        fuzzer = load_fuzzer()
        name, kind, data, *_ = fuzzer.case(fuzzer.base_documents(), seed, index)
        assert (name, kind) == ("explicit anchored 10", "drawing")
        doc = tmp_path / "doc.cstg"
        doc.write_bytes(data)
        assert fuzzer.dispatch([str(doc) if arg == "{}" else arg for arg in argv]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"invalid input: ValidationError: rotation at vertex 1 puts {first} before "
            f"{second}, against its crossings with the anchor edges\n")
