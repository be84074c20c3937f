"""CLI contract: subcommands, exit codes, byte determinism."""

import itertools
import json
import tracemalloc

import pytest
from helpers import BOUNDARY, run
from models import anchored_restriction, violating_documents

from cstg import cli, codec, drawing, generators
from cstg.chromatics import ChiCache, phi_table
from cstg.cli import dispatch
from cstg.errors import ObservationViolated


class TestGenerateVerify:
    @pytest.mark.parametrize("family", [
        ["twisted", "--n", "12"],
        ["twisted", "--n", "20"],
        ["halfcircle", "--n", "10", "--seed", "3"],
        ["horton", "--n", "64"],
    ], ids=["twisted 12", "twisted 20", "half-circle 10", "horton 64"])
    def test_generate_then_self_verify(self, tmp_path, capsys, family):
        out = tmp_path / "d.cstg"
        assert run(capsys, "generate", "--family", *family, "--out", str(out)) == (0, "", "")
        code, stdout, _ = run(capsys, "verify", str(out), "--self")
        assert code == 0
        assert "self-check passed" in stdout

    def test_horton_needs_power_of_two(self, tmp_path, capsys):
        code, _, err = run(capsys, "generate", "--family", "horton", "--n", "10",
                           "--out", str(tmp_path / "h.cstg"))
        assert code == 1
        assert "power of two" in err

    def test_bad_certificate_exits_2(self, tmp_path, capsys):
        drawing = tmp_path / "t.cstg"
        run(capsys, "generate", "--family", "twisted", "--n", "6", "--out", str(drawing))
        cert = tmp_path / "bad.json"
        cert.write_text('{"kind":"convex","vertices":[0,1,2,3,4]}')
        code, _, err = run(capsys, "verify", str(drawing), str(cert))
        assert code == 2
        assert "fail" in err

    def test_certificate_naming_vertex_n_exits_3(self, tmp_path, capsys):
        # vertex n is the first one past the drawing, not only a far one
        drawing = tmp_path / "c12.cstg"
        run(capsys, "generate", "--family", "convex", "--n", "12", "--out", str(drawing))
        cert = tmp_path / "cert.json"
        cert.write_text('{"kind":"convex","vertices":[0,1,2,12]}\n')
        code, stdout, err = run(capsys, "verify", str(drawing), str(cert))
        assert (code, stdout) == (3, "")
        assert err == "invalid input: InvalidCertificate: certificate vertex out of range for drawing\n"

    def test_malformed_drawing_exits_3(self, tmp_path, capsys):
        bad = tmp_path / "bad.cstg"
        bad.write_text('{"format":"cstg-1","model":"halfcircle","n":5,'
                       '"params":{"signs":"UU"}}\n')
        code, _, _ = run(capsys, "verify", str(bad), "--self")
        assert code == 3

    def test_non_integer_rotation_exits_3(self, tmp_path, capsys):
        bad = tmp_path / "rot.cstg"
        bad.write_text('{"format":"cstg-1","model":"convex","n":3,'
                       '"rotations":[[1,"a"],[0,2],[0,1]]}\n')
        code, _, err = run(capsys, "verify", str(bad), "--self")
        assert code == 3
        assert "rotations" in err

    def test_self_check_names_the_violating_triple(self, tmp_path, capsys):
        # an anchored explicit n=4 whose (1,2,3) colors 011
        bad = tmp_path / "bad4.cstg"
        bad.write_text('{"anchor":{"order":[1,2,3],"v0":0},"crossings":[[1,4],[2,3]],'
                       '"format":"cstg-1","model":"explicit","n":4}\n')
        code, _, err = run(capsys, "verify", str(bad), "--self")
        assert code == 3
        assert err == "self-check: observation violated at (1, 2, 3, '011')\n"

    def test_collinear_points_exit_3_naming_the_triple(self, capsys):
        code, stdout, err = run(capsys, "generate", "--family", "points",
                                "--points", "0,0;3,1;2,2;4,4")
        assert (code, stdout) == (3, "")
        assert err == "invalid input: DegenerateInput: collinear triple (0,2,3)\n"

    def test_unknown_flag_exits_1(self, capsys):
        code, _, _ = run(capsys, "generate", "--family", "convex", "--n", "5",
                         "--frobnicate")
        assert code == 1

    # without its payload, or with a flag its family does not read
    @pytest.mark.parametrize("argv, message", [
        (["points"], "points family needs --points"),
        (["horton"], "horton family needs --n (a power of two)"),
        (["convex"], "convex family needs --n"),
        (["convex", "--n", "5", "--seed", "3"], "convex family does not read --seed"),
        (["horton", "--n", "4", "--points", "0,0;1,2"], "horton family does not read --points"),
        (["points", "--n", "3", "--points", "0,0;1,2;3,1"], "points family does not read --n"),
    ], ids=["points", "horton", "convex", "seed elsewhere", "points elsewhere", "n with points"])
    def test_generate_usage_error_writes_nothing(self, tmp_path, capsys, argv, message):
        out = tmp_path / "d.cstg"
        code, stdout, err = run(capsys, "generate", "--family", *argv, "--out", str(out))
        assert (code, stdout, err) == (1, "", f"usage error: {message}\n")
        assert not out.exists()

    def test_verify_takes_exactly_one_of_a_certificate_and_self(self, tmp_path, capsys):
        drawing = tmp_path / "c8.cstg"
        cert = tmp_path / "cert.json"
        run(capsys, "generate", "--family", "convex", "--n", "8", "--out", str(drawing))
        cert.write_text('{"kind":"convex","vertices":[0,1,2,3]}\n')
        want = "usage error: verify takes exactly one of a certificate document and --self\n"
        for argv in ([str(drawing), str(cert), "--self"], [str(drawing)]):
            assert run(capsys, "verify", *argv) == (1, "", want), argv

    def test_self_check_reports_a_broken_round_trip(self, tmp_path, monkeypatch, capsys):
        # the first decode loads the document; the self-check's own decode
        # gets another drawing back, so the re-encoding differs
        path = tmp_path / "c8.cstg"
        run(capsys, "generate", "--family", "convex", "--n", "8", "--out", str(path))
        real, decoded = codec.decode_drawing, []

        def decode(text):
            decoded.append(text)
            return generators.gen_twisted(8) if len(decoded) > 1 else real(text)

        monkeypatch.setattr(codec, "decode_drawing", decode)
        code, stdout, err = run(capsys, "verify", str(path), "--self")
        assert (code, stdout, err) == (2, "", "self-check: codec round-trip failed\n")
        assert len(decoded) == 2

    def test_self_check_reports_a_failing_pattern(self, tmp_path, monkeypatch, capsys):
        # convex 8 read as a twisted certificate fails, and the failure is named
        path = tmp_path / "c8.cstg"
        run(capsys, "generate", "--family", "convex", "--n", "8", "--out", str(path))

        def as_twisted(d, cert):
            twisted = drawing.Certificate(drawing.TWISTED, cert.vertices)
            return drawing.verify_certificate(d, twisted)

        monkeypatch.setattr(cli, "verify_certificate", as_twisted)
        whole = drawing.Certificate("convex", tuple(range(8)))
        report = as_twisted(generators.gen_convex(8), whole)
        assert not report.ok
        code, stdout, err = run(capsys, "verify", str(path), "--self")
        assert (code, stdout, err) == (2, "", f"self-check: {report.failure}\n")


class TestExtract:
    def test_pattern_certificate_round_trip(self, tmp_path, capsys):
        drawing = tmp_path / "t20.cstg"
        cert = tmp_path / "cert.json"
        run(capsys, "generate", "--family", "twisted", "--n", "20", "--out", str(drawing))
        code, stdout, _ = run(capsys, "extract", "pattern", str(drawing),
                              "--m1", "3", "--m2", "8", "--out", str(cert))
        assert code == 0
        assert "outcome: twisted" in stdout
        assert run(capsys, "verify", str(drawing), str(cert))[0] == 0

    def test_explicit_drawing_without_an_anchor_exits_3(self, tmp_path, capsys):
        bare = tmp_path / "e4.cstg"
        bare.write_text('{"crossings":[],"format":"cstg-1","model":"explicit","n":4}\n')
        code, stdout, err = run(capsys, "extract", "pattern", str(bare))
        assert (code, stdout) == (3, "")
        assert err == "invalid input: AnchorUnavailable: explicit drawing without a declared anchor\n"

    def test_exhausted_exits_4(self, tmp_path, capsys):
        drawing = tmp_path / "t4.cstg"
        run(capsys, "generate", "--family", "twisted", "--n", "4", "--out", str(drawing))
        code, stdout, _ = run(capsys, "extract", "pattern", str(drawing),
                              "--m1", "10", "--m2", "10")
        assert code == 4
        assert "exhausted" in stdout

    @pytest.mark.parametrize("flags, named", [
        (["--path-target", "40"], "path target"),
        (["--budget-nodes", "5"], "budget"),
        (["--budget-seconds", "3"], "budget"),
        (["--path-target", "40", "--budget-nodes", "5"], "path target"),
    ])
    def test_planepath_decreasing_branch_refuses_unused_flags(self, tmp_path, capsys,
                                                              flags, named):
        # only the star branch reads them; at m = 16 no star is found
        drawing = tmp_path / "hc64.cstg"
        path_cert = tmp_path / "path.json"
        run(capsys, "generate", "--family", "halfcircle", "--n", "64",
            "--seed", "1", "--out", str(drawing))
        code, stdout, err = run(capsys, "extract", "planepath", str(drawing),
                                "--m-override", "16", *flags, "--out", str(path_cert))
        assert (code, stdout) == (3, "")
        assert err == ("invalid input: InvalidSelection: "
                       f"{named} unused: m = 16 takes the decreasing branch\n")
        assert not path_cert.exists()

    @pytest.mark.parametrize("flags, m, branch", [([], 1, "trivial"),
                                                  (["--m-override", "16"], 16, "decreasing")],
                             ids=["trivial", "decreasing"])
    def test_planepath_star_out_without_a_star_exits_3(self, tmp_path, capsys, flags, m, branch):
        drawing, path_cert, star = (tmp_path / name for name in ("hc64.cstg", "p.json", "s.json"))
        run(capsys, "generate", "--family", "halfcircle", "--n", "64", "--seed", "1",
            "--out", str(drawing))
        code, stdout, err = run(capsys, "extract", "planepath", str(drawing), *flags,
                                "--out", str(path_cert), "--star-out", str(star))
        assert (code, stdout) == (3, "")
        assert err == ("invalid input: InvalidSelection: "
                       f"star out unused: m = {m} takes the {branch} branch\n")
        assert not path_cert.exists() and not star.exists()

    @pytest.mark.parametrize("flags, report", [
        ([], ["branch: trivial", "m: 1", "path vertices: 2 (edges: 1)"]),
        (["--m-override", "16"], ["branch: decreasing", "m: 16", "path vertices: 7 (edges: 6)",
                                  "candidate sizes: 62 18 8 5 3 1", "lds lengths: 19 9 6 4 2 1"]),
    ], ids=["trivial", "decreasing"])
    def test_planepath_report(self, tmp_path, capsys, flags, report):
        # half-circle 64 seed 1: the default m is 1 below n = 2^16, and at
        # m = 16 the decreasing branch runs to a single candidate
        drawing, path_cert = tmp_path / "hc64.cstg", tmp_path / "p.json"
        run(capsys, "generate", "--family", "halfcircle", "--n", "64", "--seed", "1",
            "--out", str(drawing))
        code, stdout, err = run(capsys, "extract", "planepath", str(drawing), *flags,
                                "--out", str(path_cert))
        assert (code, stdout.splitlines(), err) == (0, report, "")
        assert run(capsys, "verify", str(drawing), str(path_cert))[0] == 0

    @pytest.mark.parametrize("n, seed, flags", [("48", "0", ["--path-target", "4"]),
                                                ("64", "1", [])],
                             ids=["half-circle 48", "half-circle 64"])
    def test_planepath_with_star_output(self, tmp_path, capsys, n, seed, flags):
        drawing, path_cert, star = (tmp_path / name for name in ("hc.cstg", "p.json", "s.json"))
        run(capsys, "generate", "--family", "halfcircle", "--n", n,
            "--seed", seed, "--out", str(drawing))
        code, stdout, _ = run(capsys, "extract", "planepath", str(drawing),
                              "--m-override", "2", *flags,
                              "--out", str(path_cert), "--star-out", str(star))
        assert code == 0
        for cert in (path_cert, star):
            assert run(capsys, "verify", str(drawing), str(cert))[0] == 0

    @pytest.mark.parametrize("missing", ["--out", "--star-out"])
    def test_planepath_writes_both_documents_or_neither(self, tmp_path, capsys, missing):
        # half-circle 16 seed 0 has a two-center star at m = 2; either target
        # under a missing directory leaves the other as it was
        drawing = tmp_path / "hc16.cstg"
        codec.save_drawing(generators.gen_halfcircle(16, seed=0), str(drawing))
        targets = {"--out": tmp_path / "p.json", "--star-out": tmp_path / "s.json"}
        targets[missing] = tmp_path / "nodir" / "x.json"
        for target in targets.values():
            if target.parent == tmp_path:
                target.write_bytes(b"earlier\n")
        code, _, err = run(capsys, "extract", "planepath", str(drawing), "--m-override", "2",
                           *(arg for flag, t in targets.items() for arg in (flag, str(t))))
        assert (code, err) == (
            3, f"missing file: [Errno 2] No such file or directory: '{targets[missing]}'\n")
        assert [p.read_bytes() for p in tmp_path.glob("*.json")] == [b"earlier\n"]
        assert list(tmp_path.rglob("*.tmp")) == []

    def test_planepath_star_out_on_a_directory_leaves_the_path_unwritten(self, tmp_path, capsys):
        drawing, path_cert, star = (tmp_path / name for name in ("hc16.cstg", "p.json", "s"))
        codec.save_drawing(generators.gen_halfcircle(16, seed=0), str(drawing))
        star.mkdir()
        code, _, err = run(capsys, "extract", "planepath", str(drawing), "--m-override", "2",
                           "--out", str(path_cert), "--star-out", str(star))
        assert (code, err) == (3, f"file error: [Errno 21] Is a directory: '{star}'\n")
        assert not path_cert.exists() and list(star.iterdir()) == []
        assert list(tmp_path.rglob("*.tmp")) == []

    @pytest.mark.parametrize("star", ["p.json", "./p.json", "sub/../p.json"])
    def test_planepath_out_and_star_out_on_one_file_is_a_usage_error(self, tmp_path, capsys,
                                                                     monkeypatch, star):
        drawing = tmp_path / "hc16.cstg"
        codec.save_drawing(generators.gen_halfcircle(16, seed=0), str(drawing))
        (tmp_path / "sub").mkdir()
        monkeypatch.chdir(tmp_path)
        code, stdout, err = run(capsys, "extract", "planepath", str(drawing), "--m-override", "2",
                                "--out", "p.json", "--star-out", star)
        assert (code, stdout) == (1, "")
        assert err == "usage error: --out and --star-out name the same file\n"
        assert not (tmp_path / "p.json").exists()
        assert list(tmp_path.rglob("*.tmp")) == []

    @pytest.mark.parametrize("flags, named", [
        (["--m-override", "0"], "m override must be at least 1, got 0"),
        (["--m-override", "-3"], "m override must be at least 1, got -3"),
        (["--m-override", "2", "--path-target", "0"], "path target must be at least 2, got 0"),
        (["--m-override", "2", "--path-target", "-5"], "path target must be at least 2, got -5"),
        (["--m-override", "2", "--path-target", "1"], "path target must be at least 2, got 1"),
        # m <= 1 takes the trivial branch, which reads neither a path
        # target nor a budget
        (["--m-override", "1", "--path-target", "40"], "path target unused: m = 1"),
        (["--path-target", "40"], "path target unused: m = 1"),
        (["--m-override", "1", "--budget-nodes", "10"], "budget unused: m = 1"),
        (["--budget-seconds", "5"], "budget unused: m = 1"),
    ])
    def test_planepath_out_of_range_selection_exits_3(self, tmp_path, capsys, flags, named):
        # these used to take the trivial branch or write a one-vertex path
        drawing = tmp_path / "hc64.cstg"
        path_cert = tmp_path / "path.json"
        run(capsys, "generate", "--family", "halfcircle", "--n", "64",
            "--seed", "1", "--out", str(drawing))
        code, out, err = run(capsys, "extract", "planepath", str(drawing), *flags,
                             "--out", str(path_cert))
        assert code == 3
        assert named in err
        assert out == ""
        assert not path_cert.exists()

    @pytest.mark.parametrize("pipeline, flags, refused", [
        ("pattern", ["--m1", "3", "--m2", "3"], ["--budget-nodes", "0"]),
        ("pattern", ["--m1", "3", "--m2", "3"], ["--budget-nodes", "5"]),
        ("pattern", ["--m1", "3", "--m2", "3"], ["--budget-seconds", "0"]),
        ("pattern", ["--m1", "3", "--m2", "3"], ["--budget-seconds", "5"]),
        ("planepath", [], ["--m1", "3"]),
    ], ids=["pattern nodes 0", "pattern nodes 5", "pattern seconds 0", "pattern seconds 5",
            "planepath m1"])
    def test_a_flag_of_the_other_pipeline_is_a_usage_error(self, tmp_path, capsys, pipeline,
                                                           flags, refused):
        # the pattern pipeline takes no budget, and the plane path pipeline no --m1
        drawing = tmp_path / "hc64.cstg"
        run(capsys, "generate", "--family", "halfcircle", "--n", "64", "--seed", "1",
            "--out", str(drawing))
        assert run(capsys, "extract", pipeline, str(drawing), *flags, *refused) == (
            1, "", f"usage error: unrecognized arguments: {' '.join(refused)}\n"
        )


class TestOracle:
    @pytest.mark.parametrize("family, argv, size", [
        (["twisted", "--n", "8"], ["maxconvex"], 4),
        # the twisted drawing's largest convex pattern has 4 vertices,
        # proved in about 6,000 nodes
        (["twisted", "--n", "20"], ["maxconvex", "--budget-nodes", "20000"], 4),
        (["twisted", "--n", "20"], ["maxtwisted"], 20),
        # the twisted colouring bound proves that half-circle 64 seed 0 has
        # no fifth vertex in about 18,000 nodes; the popcount bound needed
        # 1.4 million
        (["halfcircle", "--n", "64", "--seed", "0"], ["maxtwisted", "--budget-nodes", "20000"],
         4),
    ], ids=["convex in twisted 8", "convex in twisted 20", "twisted in twisted 20",
            "twisted in half-circle 64"])
    def test_pattern_report_and_witness(self, tmp_path, capsys, family, argv, size):
        # the witness is verified before --out is written, and verify passes
        # it again
        drawing, witness = tmp_path / "d.cstg", tmp_path / "w.json"
        run(capsys, "generate", "--family", *family, "--out", str(drawing))
        code, stdout, _ = run(capsys, "oracle", argv[0], str(drawing), *argv[1:],
                              "--out", str(witness))
        assert code == 0
        lines = stdout.splitlines()
        assert f"size: {size}" in lines and "exact: yes" in lines
        assert run(capsys, "verify", str(drawing), str(witness))[0] == 0

    def test_the_node_count_is_the_budget_that_finishes(self, tmp_path, capsys):
        # half-circle 16 seed 0 has no twisted pattern past its first
        # 4-vertex one, proved in 405 nodes: a budget of 405 finishes with
        # the same report, and one of 404 runs out
        drawing = tmp_path / "hc16.cstg"
        run(capsys, "generate", "--family", "halfcircle", "--n", "16", "--seed", "0",
            "--out", str(drawing))
        full = run(capsys, "oracle", "maxtwisted", str(drawing))
        assert full == (0, "size: 4\nwitness: 0 1 15 14\nnodes expanded: 405\nexact: yes\n", "")
        assert run(capsys, "oracle", "maxtwisted", str(drawing), "--budget-nodes", "405") == full
        assert run(capsys, "oracle", "maxtwisted", str(drawing), "--budget-nodes", "404")[0] == 4

    def test_planepath_certificate_verifies(self, tmp_path, capsys):
        drawing, cert = tmp_path / "t12.cstg", tmp_path / "p12.json"
        run(capsys, "generate", "--family", "twisted", "--n", "12", "--out", str(drawing))
        code, stdout, _ = run(capsys, "oracle", "planepath", str(drawing), "--out", str(cert))
        assert code == 0
        lines = stdout.splitlines()
        assert "size: 12" in lines and "exact: yes" in lines
        assert run(capsys, "verify", str(drawing), str(cert))[0] == 0

    def test_planepath_through_every_vertex_is_exact(self, tmp_path, capsys):
        # the 12-vertex path is found at node 12, and the search stops there
        drawing = tmp_path / "c12.cstg"
        run(capsys, "generate", "--family", "convex", "--n", "12", "--out", str(drawing))
        code, stdout, _ = run(capsys, "oracle", "planepath", str(drawing),
                              "--budget-nodes", "12")
        assert code == 0
        lines = stdout.splitlines()
        assert "nodes expanded: 12" in lines and "exact: yes" in lines

    def test_budget_exhausted_exits_4(self, tmp_path, capsys):
        drawing = tmp_path / "hc.cstg"
        run(capsys, "generate", "--family", "halfcircle", "--n", "14",
            "--seed", "0", "--out", str(drawing))
        code, stdout, _ = run(capsys, "oracle", "planepath", str(drawing),
                              "--budget-nodes", "5")
        assert code == 4
        assert "lower bound" in stdout
        # the report is printed once, and no witness is written
        witness = tmp_path / "W"
        code, again, _ = run(capsys, "oracle", "planepath", str(drawing),
                             "--budget-nodes", "5", "--out", str(witness))
        assert code == 4
        assert again == stdout == (
            "size: 5\nwitness: 0 1 2 3 4\nnodes expanded: 6\nexact: no (lower bound)\n"
        )
        assert not witness.exists()

    @pytest.mark.parametrize("command", [["oracle", "maxconvex"], ["extract", "planepath"]])
    @pytest.mark.parametrize(
        "flag,value,message",
        [("--budget-nodes", "0", "node budget must be at least 1, got 0"),
         ("--budget-seconds", "0", "time budget must be positive"),
         ("--budget-seconds", "nan", "time budget must be positive")],
    )
    def test_zero_budget_exits_3(self, tmp_path, capsys, command, flag, value, message):
        drawing = tmp_path / "hc.cstg"
        run(capsys, "generate", "--family", "halfcircle", "--n", "14",
            "--seed", "0", "--out", str(drawing))
        code, _, err = run(capsys, *command, str(drawing), flag, value)
        assert code == 3
        assert message in err


class TestDeterminism:
    def test_generate_byte_identical(self, tmp_path, capsys):
        a, b = tmp_path / "a.cstg", tmp_path / "b.cstg"
        for out in (a, b):
            run(capsys, "generate", "--family", "halfcircle", "--n", "24",
                "--seed", "11", "--out", str(out))
        assert a.read_bytes() == b.read_bytes()

    def test_halfcircle_without_a_seed_is_seed_0(self, capsys):
        argv = ["generate", "--family", "halfcircle", "--n", "12"]
        assert run(capsys, *argv) == run(capsys, *argv, "--seed", "0")

    @pytest.mark.parametrize("argv", [
        ["generate", "--family", "halfcircle", "--n", "8", "--seed", "-1"],
        ["bench", "--n", "12", "--trials", "5", "--seed", "-2"],
    ], ids=["generate", "bench"])
    def test_a_negative_seed_exits_3_and_writes_nothing(self, tmp_path, capsys, argv):
        # seed -s would draw what seed s draws, so bench's trials 0 and 4
        # would report different seeds over one drawing
        out = tmp_path / "out"
        code, stdout, err = run(capsys, *argv, "--out", str(out))
        assert (code, stdout) == (3, "")
        assert err == f"invalid input: InvalidSelection: seed must be at least 0, got {argv[-1]}\n"
        assert not out.exists()

    def test_generate_stdout_equals_the_file(self, tmp_path, capsys):
        out = tmp_path / "hc.cstg"
        argv = ["generate", "--family", "halfcircle", "--n", "24", "--seed", "11"]
        assert run(capsys, *argv, "--out", str(out)) == (0, "", "")
        code, stdout, err = run(capsys, *argv)
        assert (code, err) == (0, "")
        assert stdout.encode() == out.read_bytes()

    def test_bench_byte_identical_and_row_count(self, tmp_path, capsys):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for out in (a, b):
            code, _, _ = run(capsys, "bench", "--n", "10", "--trials", "6",
                             "--seed", "5", "--m1", "3", "--m2", "3",
                             "--out", str(out))
            assert code == 0
        assert a.read_bytes() == b.read_bytes()
        rows = [line for line in a.read_text().splitlines()
                if line and not line.startswith("#") and not line.startswith("trial")]
        assert len(rows) == 6

    def test_render_byte_identical(self, tmp_path, capsys):
        drawing = tmp_path / "c.cstg"
        run(capsys, "generate", "--family", "convex", "--n", "5", "--out", str(drawing))
        a, b = tmp_path / "a.svg", tmp_path / "b.svg"
        for out in (a, b):
            assert run(capsys, "render", str(drawing), "--out", str(out))[0] == 0
        assert a.read_bytes() == b.read_bytes()
        text = a.read_text()
        assert text.count("<polyline") == 10  # C(5,2) chords
        assert text.count("<circle") == 5

    def test_tables_outputs(self, tmp_path, capsys):
        drawing = tmp_path / "t.cstg"
        run(capsys, "generate", "--family", "twisted", "--n", "7", "--out", str(drawing))
        chi_csv = tmp_path / "chi.csv"
        phi_csv = tmp_path / "phi.csv"
        assert run(capsys, "tables", "chi", str(drawing), "--out", str(chi_csv))[0] == 0
        assert run(capsys, "tables", "phi", str(drawing), "--out", str(phi_csv))[0] == 0
        chi_rows = chi_csv.read_text().splitlines()
        assert chi_rows[0] == "# cstg-chi-1"
        assert len(chi_rows) == 2 + 20  # header + C(6,3) triples
        assert all(row.endswith("001") for row in chi_rows[2:])
        phi_rows = phi_csv.read_text().splitlines()
        assert len(phi_rows) == 2 + 15  # header + C(6,2) pairs


def reference_chi_table(path):
    """`tables chi` one triple at a time: one ChiCache.get and one line per row."""
    ad = generators.anchored_view(codec.load_drawing(path))
    cache = ChiCache(ad)
    lines = ["# cstg-chi-1\ni,j,k,color\n"]
    for i, j, k in itertools.combinations(range(1, ad.n), 3):
        lines.append(f"{i},{j},{k},{cache.get(i, j, k)}\n")
    return "".join(lines)


def assert_same_lines(got, want):
    """got == want as texts, reported by the first differing line and the
    line counts: a diff of two 180,000-line texts takes minutes."""
    got_lines, want_lines = got.splitlines(keepends=True), want.splitlines(keepends=True)
    for number, (g, w) in enumerate(zip(got_lines, want_lines), 1):
        assert g == w, f"line {number}: {g!r}, expected {w!r}"
    got_count, want_count = len(got_lines), len(want_lines)
    assert got_count == want_count, f"{got_count} lines, expected {want_count}"


class TestTablesChi:
    @pytest.mark.parametrize("name, d", [
        ("convex 9", generators.gen_convex(9)),
        ("twisted 9", generators.gen_twisted(9)),
        ("half-circle 24", generators.gen_halfcircle(24, seed=3)),
        ("horton 16", generators.gen_straightline(generators.gen_horton(4))),
        ("horton 64", generators.gen_straightline(generators.gen_horton(6))),
        # the header only, then one row
        ("half-circle 3", generators.gen_halfcircle(3, seed=1)),
        ("half-circle 4", generators.gen_halfcircle(4, seed=1)),
        # k goes from 9 to 10 inside a block
        ("half-circle 11", generators.gen_halfcircle(11, seed=2)),
        # j = 10 only in the last row; then i = 10 only in the last row
        ("twisted 12", generators.gen_twisted(12)),
        ("twisted 13", generators.gen_twisted(13)),
        # k = 100 only in the last row of each pair
        ("half-circle 101", generators.gen_halfcircle(101, seed=4)),
        # k reaches three digits
        ("half-circle 104", generators.gen_halfcircle(104, seed=9)),
        ("anchored explicit restriction",
         anchored_restriction(generators.gen_halfcircle(16, seed=3))),
    ])
    def test_equals_the_per_triple_table(self, tmp_path, capsys, name, d):
        path = tmp_path / "d.cstg"
        codec.save_drawing(d, str(path))
        out = tmp_path / "chi.csv"
        assert run(capsys, "tables", "chi", str(path), "--out", str(out)) == (0, "", "")
        assert_same_lines(out.read_text(), reference_chi_table(str(path)))


def reference_phi_table(path):
    """`tables phi` one pair at a time: one PhiTable.value and one line per row."""
    ad = generators.anchored_view(codec.load_drawing(path))
    table = phi_table(ad)
    lines = ["# cstg-phi-1\ni,j,a,b\n"]
    for i, j in itertools.combinations(range(1, ad.n), 2):
        value = table.value(i, j)
        lines.append(f"{i},{j},{value.a},{value.b}\n")
    return "".join(lines)


class TestTablesPhi:
    @pytest.mark.parametrize("name, d", [
        ("convex 9", generators.gen_convex(9)),
        ("twisted 9", generators.gen_twisted(9)),
        ("half-circle 24", generators.gen_halfcircle(24, seed=3)),
        # j reaches three digits
        ("half-circle 104", generators.gen_halfcircle(104, seed=9)),
        ("horton 64", generators.gen_straightline(generators.gen_horton(6))),
        ("anchored explicit restriction",
         anchored_restriction(generators.gen_halfcircle(16, seed=3))),
        # b reaches 299: the value codes of columns 256 on pass one byte
        ("twisted 300", generators.gen_twisted(300)),
    ])
    def test_equals_the_per_pair_table(self, tmp_path, capsys, name, d):
        path = tmp_path / "d.cstg"
        codec.save_drawing(d, str(path))
        out = tmp_path / "phi.csv"
        assert run(capsys, "tables", "phi", str(path), "--out", str(out)) == (0, "", "")
        assert_same_lines(out.read_text(), reference_phi_table(str(path)))

    @pytest.mark.parametrize("n", [12, 300])
    def test_twisted_rows_count_predecessors(self, tmp_path, capsys, n):
        # on twisted drawings phi(i,j) = (2, i+1), past one byte at n = 300
        path = tmp_path / "t.cstg"
        codec.save_drawing(generators.gen_twisted(n), str(path))
        out = tmp_path / "phi.csv"
        assert run(capsys, "tables", "phi", str(path), "--out", str(out))[0] == 0
        rows = out.read_text().splitlines()[2:]
        pairs = itertools.combinations(range(1, n), 2)
        assert rows == [f"{i},{j},2,{i + 1}" for i, j in pairs]


@pytest.mark.parametrize("name, d", [
    ("half-circle 16", generators.gen_halfcircle(16, seed=3)),
    ("horton 32", generators.gen_straightline(generators.gen_horton(5))),
])
def test_the_anchored_restriction_has_the_same_tables(tmp_path, capsys, name, d):
    # the tables read through the model's star equal those read from the
    # rows of its explicit restriction to its anchored order
    paths = [tmp_path / "model.cstg", tmp_path / "restriction.cstg"]
    codec.save_drawing(d, str(paths[0]))
    codec.save_drawing(anchored_restriction(d), str(paths[1]))
    assert run(capsys, "verify", str(paths[1]), "--self")[0] == 0
    for table in ("chi", "phi"):
        outs = [path.with_suffix(f".{table}.csv") for path in paths]
        for path, out in zip(paths, outs):
            assert run(capsys, "tables", table, str(path), "--out", str(out)) == (0, "", "")
        assert outs[0].read_bytes() == outs[1].read_bytes()


@pytest.mark.parametrize("table", ["chi", "phi"])
@pytest.mark.parametrize("name, d", list(violating_documents()))
def test_a_table_of_a_violation_exits_3_and_writes_nothing(tmp_path, capsys, table, name, d):
    path = tmp_path / "bad.cstg"
    codec.save_drawing(d, str(path))
    with pytest.raises(ObservationViolated) as info:
        {"chi": reference_chi_table, "phi": reference_phi_table}[table](str(path))
    out = tmp_path / f"{table}.csv"
    code, stdout, err = run(capsys, "tables", table, str(path), "--out", str(out))
    assert (code, stdout) == (3, "")
    assert err == f"invalid input: ObservationViolated: {info.value}\n"
    assert not out.exists()

def traced_peak(*argv):
    """(exit code, tracemalloc peak in bytes) of one dispatch call."""
    tracemalloc.start()
    try:
        code = dispatch(list(argv))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return code, peak


# every command that writes a file, its argv up to the output path; DOC
# stands for half-circle 16 seed 0, which has a two-center star at m = 2
WRITERS = {
    "generate": ["generate", "--family", "twisted", "--n", "9", "--out"],
    "extract pattern": ["extract", "pattern", "DOC", "--out"],
    "extract planepath": ["extract", "planepath", "DOC", "--m-override", "2", "--out"],
    "extract planepath star": ["extract", "planepath", "DOC", "--m-override", "2", "--star-out"],
    "oracle": ["oracle", "maxconvex", "DOC", "--out"],
    "bench": ["bench", "--n", "16", "--trials", "2", "--out"],
    "render": ["render", "DOC", "--out"],
    "tables chi": ["tables", "chi", "DOC", "--out"],
    "tables phi": ["tables", "phi", "DOC", "--out"],
}


def writer_argv(tmp_path, name):
    doc = tmp_path / "hc16.cstg"
    codec.save_drawing(generators.gen_halfcircle(16, seed=0), str(doc))
    return [str(doc) if arg == "DOC" else arg for arg in WRITERS[name]]


class TestTablesStream:
    """`tables --out` streams its blocks into a temporary file that replaces
    the target when complete, and every other `--out` is written the same
    way."""

    def test_chi_holds_less_than_its_csv(self, tmp_path, capsys):
        # half-circle 160 seed 5: a 9.18 MB CSV, written at a 27.9 MB peak
        # when the whole text was joined before the write
        path = tmp_path / "hc160.cstg"
        codec.save_drawing(generators.gen_halfcircle(160, seed=5), str(path))
        out = tmp_path / "chi.csv"
        code, peak = traced_peak("tables", "chi", str(path), "--out", str(out))
        assert code == 0
        assert peak < out.stat().st_size

    def test_phi_holds_its_columns_not_its_text(self, tmp_path, capsys):
        # half-circle 384 seed 5: 3.6 MB when the table was built first
        path = tmp_path / "hc384.cstg"
        codec.save_drawing(generators.gen_halfcircle(384, seed=5), str(path))
        out = tmp_path / "phi.csv"
        code, peak = traced_peak("tables", "phi", str(path), "--out", str(out))
        assert code == 0
        assert peak < 2 * 1024 * 1024

    @pytest.mark.parametrize("what", ["chi", "phi"])
    @pytest.mark.parametrize("name, d", list(violating_documents()))
    def test_violation_leaves_the_target_as_it_was(self, tmp_path, capsys, what, name, d):
        path = tmp_path / "bad.cstg"
        codec.save_drawing(d, str(path))
        out = tmp_path / f"{what}.csv"
        out.write_bytes(b"an earlier table\n")
        code, stdout, _ = run(capsys, "tables", what, str(path), "--out", str(out))
        assert (code, stdout) == (3, "")
        assert out.read_bytes() == b"an earlier table\n"
        assert list(tmp_path.glob("*.tmp")) == []

    @pytest.mark.parametrize("what", ["chi", "phi"])
    @pytest.mark.parametrize("name, d", [
        ("half-circle 3", generators.gen_halfcircle(3, seed=1)),
        ("twisted 13", generators.gen_twisted(13)),
        ("half-circle 40", generators.gen_halfcircle(40, seed=6)),
        ("horton 16", generators.gen_straightline(generators.gen_horton(4))),
    ])
    def test_the_table_goes_only_to_the_file(self, tmp_path, capsys, what, name, d):
        # _emit writes stdout text as it is, which holds only while no table
        # reaches stdout
        path = tmp_path / "d.cstg"
        codec.save_drawing(d, str(path))
        assert run(capsys, "tables", what, str(path)) == (
            1, "", "usage error: the following arguments are required: --out\n"
        )
        assert sorted(p.name for p in tmp_path.iterdir()) == ["d.cstg"]
        out = tmp_path / f"{what}.csv"
        assert run(capsys, "tables", what, str(path), "--out", str(out)) == (0, "", "")
        reference = reference_chi_table if what == "chi" else reference_phi_table
        assert_same_lines(out.read_text(), reference(str(path)))

    @pytest.mark.parametrize("name", sorted(WRITERS))
    def test_symlink_target_is_replaced(self, tmp_path, capsys, name):
        fresh, out = tmp_path / "fresh", tmp_path / "out"
        assert run(capsys, *writer_argv(tmp_path, name), str(fresh))[0] == 0
        elsewhere = tmp_path / "elsewhere"
        elsewhere.write_bytes(b"kept\n")
        out.symlink_to(elsewhere)
        assert run(capsys, *writer_argv(tmp_path, name), str(out))[0] == 0
        assert not out.is_symlink()
        assert out.read_bytes() == fresh.read_bytes()
        assert elsewhere.read_bytes() == b"kept\n"
        assert list(tmp_path.glob("*.tmp")) == []

    @pytest.mark.parametrize("name", sorted(WRITERS))
    def test_missing_directory_names_the_target(self, tmp_path, capsys, name):
        out = tmp_path / "nodir" / "x"
        code, _, err = run(capsys, *writer_argv(tmp_path, name), str(out))
        assert (code, err) == (3, f"missing file: [Errno 2] No such file or directory: '{out}'\n")
        assert not out.parent.exists()
        assert list(tmp_path.rglob("*.tmp")) == []

    @pytest.mark.parametrize("name", sorted(WRITERS))
    def test_directory_target_is_named_and_left_empty(self, tmp_path, capsys, name):
        out = tmp_path / "d"
        out.mkdir()
        code, _, err = run(capsys, *writer_argv(tmp_path, name), str(out))
        assert (code, err) == (3, f"file error: [Errno 21] Is a directory: '{out}'\n")
        assert list(out.iterdir()) == []
        assert list(tmp_path.rglob("*.tmp")) == []


class TestRenderOverlay:
    def test_overlay_strokes_pattern_edges(self, tmp_path, capsys):
        drawing = tmp_path / "t.cstg"
        run(capsys, "generate", "--family", "twisted", "--n", "8", "--out", str(drawing))
        cert = tmp_path / "cert.json"
        cert.write_text(json.dumps({"kind": "plane_path", "vertices": [0, 1, 2, 3]}) + "\n")
        out = tmp_path / "o.svg"
        assert run(capsys, "render", str(drawing), "--out", str(out),
                   "--overlay", str(cert))[0] == 0
        text = out.read_text()
        assert text.count("#cc2222") == 3  # three path edges highlighted

    def test_out_of_range_overlay_exits_3_without_svg(self, tmp_path, capsys):
        # the same check and message as verify, before any drawing work
        drawing = tmp_path / "c12.cstg"
        run(capsys, "generate", "--family", "convex", "--n", "12", "--out", str(drawing))
        cert = tmp_path / "cert.json"
        cert.write_text(json.dumps({"kind": "plane_path", "vertices": [0, 20]}) + "\n")
        out = tmp_path / "o.svg"
        for argv in (["render", str(drawing), "--out", str(out), "--overlay", str(cert)],
                     ["verify", str(drawing), str(cert)]):
            code, stdout, err = run(capsys, *argv)
            assert (code, stdout) == (3, "")
            assert "InvalidCertificate: certificate vertex out of range for drawing" in err
        assert not out.exists()

    @pytest.mark.parametrize("family, edges", [
        (["halfcircle", "--n", "6", "--seed", "1"], 15),
        (["halfcircle", "--n", "64", "--seed", "1"], 2016),
        (["twisted", "--n", "12"], 66),
    ], ids=["half-circle 6", "half-circle 64", "twisted 12"])
    def test_renders_one_polyline_per_edge(self, tmp_path, capsys, family, edges):
        drawing = tmp_path / "d.cstg"
        run(capsys, "generate", "--family", *family, "--out", str(drawing))
        out = tmp_path / "d.svg"
        assert run(capsys, "render", str(drawing), "--out", str(out))[0] == 0
        assert out.read_text().count("<polyline ") == edges  # C(n,2)

    def test_points_family_generate(self, tmp_path, capsys):
        out = tmp_path / "p.cstg"
        code, _, _ = run(capsys, "generate", "--family", "points",
                         "--points", "0,0;10,1;7,9;2,11", "--out", str(out))
        assert code == 0
        assert run(capsys, "verify", str(out), "--self")[0] == 0

    def test_empty_points_chunks_are_skipped(self, tmp_path, capsys):
        out = tmp_path / "p.cstg"
        code, _, _ = run(capsys, "generate", "--family", "points",
                         "--points", ";0,0; 10,1;;7,9;2,11;", "--out", str(out))
        assert code == 0
        assert codec.load_drawing(str(out)).points == ((0, 0), (10, 1), (7, 9), (2, 11))

    def test_main_exits_with_the_dispatch_code(self, tmp_path, monkeypatch, capsys):
        # the console script's entry point reads sys.argv
        missing = str(tmp_path / "missing.cstg")
        monkeypatch.setattr("sys.argv", ["cstg", "verify", missing, "--self"])
        with pytest.raises(SystemExit) as info:
            cli.main()
        assert info.value.code == 3
        assert capsys.readouterr().err.startswith("missing file: ")

    def test_geometry_missing_exits_3(self, tmp_path, capsys):
        bare = tmp_path / "e.cstg"
        bare.write_text('{"crossings":[],"format":"cstg-1","model":"explicit","n":4}\n')
        code, _, err = run(capsys, "render", str(bare), "--out", str(tmp_path / "x.svg"))
        assert code == 3
        assert "GeometryMissing" in err


class TestParserReuse:
    def test_parser_built_once(self, monkeypatch, capsys):
        built = []
        init = cli._Parser.__init__

        def counted(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            init(self, *args, **kwargs)

        monkeypatch.setattr(cli._Parser, "__init__", counted)
        cli._build_parser.cache_clear()
        run(capsys, "generate", "--family", "convex")
        assert built.count("cstg") == 1
        first = len(built)
        run(capsys, "generate", "--family", "twisted")
        assert len(built) == first

    def test_reused_parser_answers_like_a_fresh_one(self, tmp_path, capsys):
        drawing = tmp_path / "hc.cstg"
        assert run(capsys, "generate", "--family", "halfcircle", "--n", "8",
                   "--out", str(drawing))[0] == 0
        calls = [
            ("extract", "nonsense", str(drawing)),
            ("verify", str(drawing), "--self"),
            ("generate", "--n", "5"),
        ]
        fresh = []
        for argv in calls:
            cli._build_parser.cache_clear()
            code, _, err = run(capsys, *argv)
            fresh.append((code, err))
        assert [code for code, _ in fresh] == [1, 0, 1]
        reused = [run(capsys, *argv)[::2] for argv in calls]
        assert reused == fresh


class TestInputErrors:
    """Bad input exits with a named message, never a traceback."""

    def test_non_utf8_document_is_a_parse_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.cstg"
        bad.write_bytes(b'{"format":"cstg-1","model":"convex","n":4}\xff\n')
        for argv in (("verify", str(bad), "--self"),
                     ("extract", "pattern", str(bad))):
            code, stdout, err = run(capsys, *argv)
            assert (code, stdout) == (3, "")
            assert err == f"parse error: {bad}: not UTF-8 text (byte 42)\n"

    def test_non_utf8_certificate_is_a_parse_error(self, tmp_path, capsys):
        drawing = tmp_path / "c.cstg"
        run(capsys, "generate", "--family", "convex", "--n", "5", "--out", str(drawing))
        cert = tmp_path / "c.json"
        cert.write_bytes(b'\xfe{"kind":"convex","vertices":[0,1,2,3,4]}\n')
        code, _, err = run(capsys, "verify", str(drawing), str(cert))
        assert code == 3
        assert err == f"parse error: {cert}: not UTF-8 text (byte 0)\n"

    def test_directory_as_document_exits_3(self, tmp_path, capsys):
        code, stdout, err = run(capsys, "verify", str(tmp_path), "--self")
        assert (code, stdout) == (3, "")
        assert err.startswith("file error: ") and str(tmp_path) in err

    def test_missing_document_exits_3(self, tmp_path, capsys):
        missing = tmp_path / "nope.cstg"
        code, stdout, err = run(capsys, "tables", "phi", str(missing),
                                "--out", str(tmp_path / "phi.csv"))
        assert (code, stdout) == (3, "")
        assert err.startswith("missing file: ") and str(missing) in err

    @pytest.mark.parametrize("points, chunk", [
        ("0,0;1,2,3", "'1,2,3'"),
        ("a,1;2,3;4,0", "'a,1'"),
        ("0,0;1", "'1'"),
    ])
    def test_bad_points_chunk_is_a_usage_error(self, capsys, points, chunk):
        code, stdout, err = run(capsys, "generate", "--family", "points",
                                "--points", points)
        assert (code, stdout) == (1, "")
        assert err == f"usage error: --points chunk {chunk} is not 'x,y' in integers\n"

    def test_extract_pattern_on_an_invalid_triple_exits_3(self, tmp_path, capsys):
        _, d = next(violating_documents())  # (1, 2, 3) colors 011
        path = tmp_path / "bad4.cstg"
        codec.save_drawing(d, str(path))
        code, stdout, err = run(capsys, "extract", "pattern", str(path))
        assert (code, stdout) == (3, "")
        assert err == "invalid input: ObservationViolated: triple (1, 2, 3) colored 011\n"

    @pytest.mark.parametrize("decode, text, message",
                             [row[1:] for row in BOUNDARY],
                             ids=[row[0] for row in BOUNDARY])
    def test_unreadable_document_is_a_parse_error(self, tmp_path, capsys, decode, text,
                                                   message):
        drawing = tmp_path / "c.cstg"
        run(capsys, "generate", "--family", "convex", "--n", "4", "--out", str(drawing))
        doc = tmp_path / "doc"
        doc.write_text(text)
        if decode is codec.decode_drawing:
            argv = ("verify", str(doc), "--self")
        else:
            argv = ("verify", str(drawing), str(doc))
        code, stdout, err = run(capsys, *argv)
        assert (code, stdout) == (3, "")
        assert err == f"parse error: {message}\n"

    def test_render_refuses_a_point_past_the_float_range(self, tmp_path, capsys):
        # the kernels read exact integers, so the drawing itself is valid
        path = tmp_path / "far.cstg"
        far = generators.gen_straightline([(0, 0), (10**400, 1), (2, 5)])
        codec.save_drawing(far, str(path))
        assert run(capsys, "verify", str(path), "--self")[0] == 0
        svg = tmp_path / "far.svg"
        code, stdout, err = run(capsys, "render", str(path), "--out", str(svg))
        assert (code, stdout) == (3, "")
        assert err == "invalid input: SizeLimit: point 1 has a coordinate past the float range\n"
        assert not svg.exists()


class TestBench:
    def test_exhausted_trial(self, tmp_path, capsys):
        out = tmp_path / "b.csv"
        code, _, _ = run(capsys, "bench", "--n", "16", "--trials", "6",
                         "--m1", "5", "--m2", "5", "--out", str(out))
        assert code == 0
        rows = out.read_text().splitlines()[2:]
        assert rows[1].startswith("1,1,halfcircle,16,5,5,exhausted,none,0,")

    def test_jobs_is_a_usage_error(self, tmp_path, capsys):
        out = tmp_path / "b.csv"
        code, _, err = run(capsys, "bench", "--n", "12", "--trials", "3",
                           "--m1", "3", "--m2", "3", "--jobs", "2", "--out", str(out))
        assert code == 1
        assert err == "usage error: unrecognized arguments: --jobs 2\n"
        assert not out.exists()

    def test_family_is_a_usage_error(self, tmp_path, capsys):
        # every trial is a half-circle drawing, so there is nothing to choose
        out = tmp_path / "b.csv"
        code, _, err = run(capsys, "bench", "--n", "12", "--trials", "3", "--m1", "3",
                           "--m2", "3", "--family", "halfcircle", "--out", str(out))
        assert code == 1
        assert err == "usage error: unrecognized arguments: --family halfcircle\n"
        assert not out.exists()

    def test_n_below_two_is_the_drawing_error(self, tmp_path, capsys):
        # the trials run before log2(n) is read, so --n 0 is invalid input
        out = tmp_path / "b.csv"
        code, stdout, err = run(capsys, "bench", "--n", "0", "--trials", "2",
                                "--out", str(out))
        assert (code, stdout) == (3, "")
        assert err == "invalid input: InvalidSelection: drawing n must be at least 2, got 0\n"
        assert not out.exists()

    @pytest.mark.parametrize("n, trials", [("0", "0"), ("12", "-2")])
    def test_trials_below_one_is_a_usage_error(self, tmp_path, capsys, n, trials):
        # no trial would run: --n 0 reached log2(0), and --n 12 wrote a CSV
        # with only its header
        out = tmp_path / "b.csv"
        code, stdout, err = run(capsys, "bench", "--n", n, "--trials", trials,
                                "--out", str(out))
        assert (code, stdout) == (1, "")
        assert err == f"usage error: --trials must be at least 1, got {trials}\n"
        assert not out.exists()
