import gc
import json
import os
import sys
import warnings

import pytest

from retraction_lab import cli, csp, files
from retraction_lab.fixedgraphs import build_two_wrench
from retraction_lab.graphs import Graph

FIXDIR = os.path.join(os.path.dirname(__file__), "..", "fixtures")


def fixture(name):
    return os.path.join(FIXDIR, name)


def run_json(capsys, argv):
    rc = cli.main(argv)
    out = capsys.readouterr().out
    return rc, json.loads(out)


def test_classify_command(capsys):
    rc, doc = run_json(capsys, ["--no-meta", "classify", "-H", fixture("two_wrench.hg")])
    assert rc == 0
    assert doc["class"] == "BIS_EQUIVALENT"
    assert doc["clause"] == "Thm1.ii"
    assert "meta" not in doc


def test_count_command(capsys):
    rc, doc = run_json(
        capsys,
        ["--no-meta", "count", "--mode", "hom", "-G", fixture("k2.hg"), "-H", fixture("k2.hg")],
    )
    assert rc == 0
    assert doc == {"count": "2", "mode": "hom", "method": "bt"}


def test_count_with_instance_file(tmp_path, capsys):
    tw = build_two_wrench()
    (tmp_path / "h.hg").write_text(files.serialize_graph(tw))
    (tmp_path / "inst.inst").write_text(
        "target h.hg\nv x\nv y\ne x y\nl x *\nl y *\n"
    )
    rc, doc = run_json(
        capsys, ["--no-meta", "count", "--mode", "lhom", "-L", str(tmp_path / "inst.inst")]
    )
    assert rc == 0 and doc["count"] == "9"


def test_byte_identical_reports(tmp_path):
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    for out in (out1, out2):
        rc = cli.main(
            ["--no-meta", "--out", str(out), "approx", "--mode", "sur",
             "-G", fixture("p3.hg"), "-H", fixture("k2.hg"),
             "--epsilon", "0.4", "--delta", "0.2", "--seed", "11"]
        )
        assert rc == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_estimate_cuts_command(capsys):
    rc, doc = run_json(
        capsys,
        ["--no-meta", "estimate", "cuts", "-G", fixture("terminal_star.hg"),
         "-H", fixture("j3.hg"), "--alpha", "a", "--beta", "b", "--gamma", "c",
         "-B", "2", "--delta-prime", "0.02"],
    )
    assert rc == 0
    assert doc["estimate"] == 3 and doc["bruteforce"] == 3


CUTS = ["estimate", "cuts", "-G", fixture("terminal_star.hg"), "-H", fixture("j3.hg"),
        "--alpha", "a", "--beta", "b", "--gamma", "c", "-B", "2"]


def test_estimate_cuts_takes_the_approx_oracle_spec(capsys):
    for spec in ("noisy:0.05,0,3", "noisy:0.05,0.1,3", "noisy:0.05,0"):
        rc, doc = run_json(capsys, ["--no-meta", *CUTS, "--oracle", spec])
        assert rc == 0 and doc["estimate"] == 3, spec
    # the retired spellings fail instead of changing meaning
    for spec in ("noisy:0.05,3", "noisy:0.05", "exact-blocked"):
        assert cli.main([*CUTS, "--oracle", spec]) == 1, spec
        assert "error:" in capsys.readouterr().err


def test_types_table_command(capsys):
    rc, doc = run_json(capsys, ["--no-meta", "types", "table", "-k", "1"])
    assert rc == 0
    assert len(doc["rows"]) == 10
    assert doc["rows"][3]["label"] == "T4"
    assert doc["rows"][3]["sizes"] == [5, 4, 1]


def test_csp_commands(tmp_path, capsys):
    (tmp_path / "i.csp").write_text("x a\nx b\nimp a b\n")
    rc, doc = run_json(capsys, ["--no-meta", "csp", "count", str(tmp_path / "i.csp")])
    assert rc == 0 and doc["count"] == "3"
    rc = cli.main(["--no-meta", "csp", "pbrp", "-Q", "1", "-S", "1"])
    assert rc == 0


def test_file_commands_close_their_files(tmp_path, monkeypatch, capsys):
    iv, ie = csp.pbrp_csp(1, {1})
    (tmp_path / "iv.csp").write_text(files.serialize_csp(iv))
    (tmp_path / "ie.csp").write_text(files.serialize_csp(ie))
    (tmp_path / "h.hg").write_text(files.serialize_graph(csp.build_graph_from_csp(iv, ie)))
    (tmp_path / "g.inst").write_text("target h.hg\nv u\nv w\ne u w\nl u 00\nl w *\n")
    pair = ["--iv", str(tmp_path / "iv.csp"), "--ie", str(tmp_path / "ie.csp")]
    unraisable = []
    monkeypatch.setattr(sys, "unraisablehook", unraisable.append)
    with warnings.catch_warnings():
        warnings.simplefilter("error", ResourceWarning)
        for argv in (
            ["csp", "count", str(tmp_path / "iv.csp")],
            ["csp", "build-graph", *pair],
            ["csp", "translate", "--instance", str(tmp_path / "g.inst"), *pair],
        ):
            assert cli.main(["--no-meta", *argv]) == 0, argv
        gc.collect()
    assert not unraisable, [str(u.exc_value) for u in unraisable]


def test_gadget_fixed_outputs_graph(capsys):
    rc = cli.main(["gadget", "fixed", "2-wrench"])
    assert rc == 0
    text = capsys.readouterr().out
    assert files.parse_graph(text) == build_two_wrench()


def test_usage_error_exit_2():
    with pytest.raises(SystemExit) as exc:
        cli.main(["count", "--mode", "bogus"])
    assert exc.value.code == 2


def test_domain_error_exit_1(tmp_path, capsys):
    rc = cli.main(["classify", "-H", str(tmp_path / "missing.hg")])
    assert rc == 1


def test_count_past_the_recursion_limit_exit_1(tmp_path, capsys):
    pattern = Graph([], [(f"a{i}", f"b{i}") for i in range(1100)])
    (tmp_path / "g.hg").write_text(files.serialize_graph(pattern))
    rc = cli.main(
        ["count", "--mode", "sur", "-G", str(tmp_path / "g.hg"), "-H", fixture("two_wrench.hg")]
    )
    assert rc == 1
    assert "surjective count on a 2200-vertex pattern" in capsys.readouterr().err


def test_verify_command(capsys):
    rc = cli.main(["verify", "csp", "--quick"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "csp/parsimony: pass" in out
    assert "csp/lemma33-structure: pass" in out


def test_types_verify_command(capsys):
    rc, doc = run_json(capsys, ["--no-meta", "types", "verify", "-k", "1", "--grid", "1,1,1"])
    assert rc == 0
    assert doc["grid"][0]["match"] is True
