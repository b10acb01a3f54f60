import decimal
import gc
import hashlib
import json
import os
import subprocess
import sys
import time
import warnings

import pytest

from retraction_lab import cli, csp, files, homtypes, reference, verify
from retraction_lab.fixedgraphs import build_cycle, build_j_blocked, build_two_wrench
from retraction_lab.graphs import Graph
from retraction_lab.instances import ListedInstance

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


def test_approx_exact_on_the_2x5_ladder(tmp_path, capsys):
    rungs = [(f"a{i}", f"b{i}") for i in range(5)]
    rails = [(f"{r}{i}", f"{r}{i + 1}") for r in "ab" for i in range(4)]
    ladder = Graph([v for rung in rungs for v in rung], rungs + rails)
    (tmp_path / "ladder.hg").write_text(files.serialize_graph(ladder))
    rc, doc = run_json(
        capsys,
        ["--no-meta", "approx", "--oracle", "exact", "--mode", "comp",
         "--epsilon", "0.2", "--delta", "0.1",
         "-G", str(tmp_path / "ladder.hg"), "-H", fixture("two_wrench.hg")],
    )
    assert rc == 0
    assert (doc["t"], doc["omega"], doc["sampler"]) == (72676, "264692", "collapsed-exact")


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


@pytest.mark.parametrize("argv", (["pbrp", "-S", "1"], ["jq"], ["hk"]))
def test_gadget_fixed_missing_parameter_exit_1(argv, capsys):
    rc = cli.main(["gadget", "fixed", *argv])
    assert rc == 1
    needed = "'k'" if argv == ["hk"] else "'q'"
    assert f"needs parameter {needed}" in capsys.readouterr().err


def test_count_blocked_ret_checks_one_or_all(tmp_path, capsys):
    (tmp_path / "h.hg").write_text(files.serialize_graph(build_two_wrench()))
    # a one-value list (Q) passes, a pinned block (P) counts as one value
    # whatever its list, and * (A) is all four
    good = "target h.hg\nb A 3 *\nb P 1 b,g\nb Q 2 g\nc P A cb\np P b\n"
    (tmp_path / "good.blk").write_text(good)
    rc, doc = run_json(
        capsys, ["--no-meta", "count", "--mode", "ret", "--method", "blocked", "-L", str(tmp_path / "good.blk")]
    )
    assert rc == 0 and doc["count"] == "64"
    (tmp_path / "bad.blk").write_text("target h.hg\nb A 3 b,g\n")
    argv = ["count", "--method", "blocked", "-L", str(tmp_path / "bad.blk"), "--mode"]
    assert cli.main([*argv, "ret"]) == 1
    assert "block 'A' has 2" in capsys.readouterr().err
    # the condition is the retraction mode's: list homomorphisms take any list
    rc, doc = run_json(capsys, ["--no-meta", *argv, "lhom"])
    assert rc == 0 and doc["count"] == "8"


def test_approx_report_past_the_float_range(tmp_path, capsys):
    """Y past 2^1024 (520 isolated vertices plus P3 into the 2-wrench): its
    decimal comes from the integers, 12 significant digits as float's .12g
    writes them."""
    pattern = Graph([f"i{k:03d}" for k in range(520)] + ["a", "b", "c"], [("a", "b"), ("b", "c")])
    (tmp_path / "g.hg").write_text(files.serialize_graph(pattern))
    argv = ["--no-meta", "approx", "--mode", "sur", "-G", str(tmp_path / "g.hg"), "-H", fixture("two_wrench.hg"),
            "--epsilon", "0.5", "--delta", "0.5"]
    rc, doc = run_json(capsys, argv)
    assert rc == 0
    y = doc["Y"]
    with decimal.localcontext() as ctx:
        ctx.prec = 12
        want = decimal.Decimal(y["numerator"]) / decimal.Decimal(y["denominator"])
        assert want > 2**1024 and y["decimal"] == f"{want.normalize():e}"


@pytest.mark.parametrize(
    "argv, size",
    [
        (["--mode", "comp", "--method", "ie", "-G", fixture("p3.hg"), "-H", fixture("h1.hg")], "33554432"),
        (["--mode", "hom", "--method", "enum", "-G", fixture("j3.hg"), "-H", fixture("h2.hg")], "10000000"),
    ],
    ids=["ie-2^25-terms", "enum-10^7-assignments"],
)
def test_reference_count_routes_fail_fast(capsys, argv, size):
    start = time.perf_counter()
    assert cli.main(["count", *argv]) == 1
    assert time.perf_counter() - start < 1.0
    assert f": {size} is past the bound" in capsys.readouterr().err


def test_cli_import_leaves_numpy_out():
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    done = subprocess.run(
        [
            sys.executable, "-c",
            "import sys, retraction_lab.cli; "
            "print([m in sys.modules for m in ('numpy', 'retraction_lab.verify', 'concurrent.futures')])",
        ],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[False, False, False]"


def test_verify_unknown_suite_exit_2_names_the_suites(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", "nosuch"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "'nosuch'" in err and all(repr(name) in err for name in ("approx", "csp", "oracles", "all"))


@pytest.mark.parametrize(
    "command, options",
    [
        (["verify", "csp"], []),
        (["count", "--mode", "sur", "-G", fixture("k2.hg"), "-H", fixture("k2.hg")], ["--no-meta"]),
    ],
    ids=["verify", "count"],
)
def test_output_options_before_or_after_the_command(tmp_path, capsys, verify_run_once, command, options):
    before, after = tmp_path / "before.json", tmp_path / "after.json"
    assert cli.main(options + ["--out", str(before)] + command) == 0
    assert cli.main(command + options + ["--out", str(after)]) == 0
    capsys.readouterr()
    assert before.read_bytes() == after.read_bytes()
    assert "meta" not in json.loads(after.read_text())


def test_usage_error_exit_2():
    with pytest.raises(SystemExit) as exc:
        cli.main(["count", "--mode", "bogus"])
    assert exc.value.code == 2
    # verify has one size, so no --quick
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", "csp", "--quick"])
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "command",
    [["verify", "csp"], ["count", "--mode", "hom", "-G", fixture("k2.hg"), "-H", fixture("k2.hg")]],
    ids=["verify", "count"],
)
def test_unwritable_out_is_refused_before_the_work(tmp_path, capsys, monkeypatch, command):
    ran = []
    monkeypatch.setattr(verify, "run_suite", lambda name: ran.append(name) or [])
    for out in (tmp_path / "missing" / "x.json", tmp_path):
        assert cli.main([*command, "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and "cannot write --out" in captured.err
    assert not ran


def test_failed_command_leaves_out_as_it_was(tmp_path, capsys):
    failing = ["classify", "-H", str(tmp_path / "missing.hg"), "--out"]
    old = tmp_path / "old.json"
    old.write_text("kept\n")
    assert cli.main([*failing, str(old)]) == 1
    assert old.read_text() == "kept\n"
    new = tmp_path / "new.json"
    assert cli.main([*failing, str(new)]) == 1
    assert not new.exists()


def test_domain_error_exit_1(tmp_path, capsys):
    rc = cli.main(["classify", "-H", str(tmp_path / "missing.hg")])
    assert rc == 1


def test_count_past_the_recursion_limit(tmp_path, capsys):
    pattern = Graph([], [(f"a{i}", f"b{i}") for i in range(520)])
    (tmp_path / "g.hg").write_text(files.serialize_graph(pattern))
    argv = ["--no-meta", "count", "--mode", "sur", "-G", str(tmp_path / "g.hg"), "-H", fixture("two_wrench.hg")]
    rc, doc = run_json(capsys, argv)
    assert rc == 0
    tw = files.load_graph(fixture("two_wrench.hg"))
    assert doc["count"] == str(reference.count_surjective_ie(ListedInstance.full(pattern, tw), tw))


def test_verify_command(capsys, verify_run_once):
    rc = cli.main(["verify", "csp"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "csp/parsimony: pass" in out
    assert "csp/lemma33-structure: pass" in out


def test_types_verify_command(capsys):
    rc, doc = run_json(capsys, ["--no-meta", "types", "verify", "-k", "1", "--grid", "1,1,1"])
    assert rc == 0
    assert doc["grid"][0]["match"] is True


def test_types_verify_refuses_a_j_with_too_many_homomorphisms(capsys):
    # J(3, 1, 1) has 16 916 608 homomorphisms into H_12: refused by its count
    assert cli.main(["types", "verify", "-k", "12", "--grid", "3,1,1"]) == 1
    assert "guard is 200000" in capsys.readouterr().err


@pytest.mark.parametrize("grid", ["1,1", "1,x,1"])
def test_types_verify_malformed_grid_names_the_option(capsys, grid):
    assert cli.main(["types", "verify", "--grid", grid]) == 1
    err = capsys.readouterr().err
    assert "--grid" in err and "p,q,t;p,q,t" in err


@pytest.fixture
def read_all_digits():
    """int() of a decimal string of any length; the test's own conversions
    run under Python's default cap, which the CLI lifts only while it runs."""
    limit = sys.get_int_max_str_digits()

    def read(text: str) -> int:
        sys.set_int_max_str_digits(0)
        try:
            return int(text)
        finally:
            sys.set_int_max_str_digits(limit)

    return read


def test_estimate_largecut_at_the_defaults(tmp_path, capsys, read_all_digits):
    c3 = tmp_path / "c3.hg"
    c3.write_text(files.serialize_graph(build_cycle(3)))
    rc, doc = run_json(capsys, ["--no-meta", "estimate", "largecut", "-G", str(c3), "-K", "2"])
    assert rc == 0
    nt4 = homtypes.n_exact(dict(homtypes.enumerate_maximal_types(1))["T4"], 44, 52, 81)
    hist = {int(ell): read_all_digits(v) for ell, v in doc["full_hom_histogram"].items()}
    assert len(doc["full_hom_histogram"]["0"]) > 15000
    cuts = {int(ell): n for ell, n in doc["cuts"].items()}
    assert cuts == {0: 1, 1: 0, 2: 3, 3: 0}
    # the large-cut identity at (p, q, t, s) = (44, 52, 81, 4)
    assert hist == {ell: n * 2 * nt4**3 * 4 ** (4 * ell) for ell, n in cuts.items() if n}


def test_cut_instance_prints_zstar_in_full(tmp_path, capsys, read_all_digits):
    c70 = tmp_path / "c70.hg"
    c70.write_text(files.serialize_graph(build_cycle(70)))
    rc, doc = run_json(
        capsys,
        ["--no-meta", "gadget", "cut-instance", "-G", str(c70), "-H", fixture("j3.hg"),
         "--alpha", "c0", "--beta", "c20", "--gamma", "c40", "-B", "3"],
    )
    assert rc == 0
    assert len(doc["zstar"]) > 4300
    assert read_all_digits(doc["zstar"]) == 2 ** (doc["s"] * doc["r"] * (70 - 3))


def _command_files(tmp_path):
    """Inputs for the commands that read a CSP or blocked file: the CSP pair
    of the bristled path PBRP(1, {1}), the graph it builds, an instance on
    that graph, and J(1, 1, 1) over H_1 as a blocked file."""
    iv, ie = csp.pbrp_csp(1, {1})
    (tmp_path / "iv.csp").write_text(files.serialize_csp(iv))
    (tmp_path / "ie.csp").write_text(files.serialize_csp(ie))
    (tmp_path / "h.hg").write_text(files.serialize_graph(csp.build_graph_from_csp(iv, ie)))
    (tmp_path / "g.inst").write_text("target h.hg\nv u\nv w\ne u w\nl u 00\nl w *\n")
    blocked = build_j_blocked(1, 1, 1)
    (tmp_path / "j.blk").write_text(files.serialize_blocked(blocked, os.path.abspath(fixture("h1.hg"))))
    return {name.split(".")[0]: str(tmp_path / name) for name in ("iv.csp", "ie.csp", "g.inst", "j.blk")}


def _leaf_commands(paths):
    """(id, argv) of every leaf command on the fixtures, exact oracles only."""
    pair = ["--iv", paths["iv"], "--ie", paths["ie"]]
    cuts = ["-G", fixture("terminal_star.hg"), "-H", fixture("j3.hg"),
            "--alpha", "a", "--beta", "b", "--gamma", "c", "-B", "2"]
    large = ["-G", fixture("k2.hg"), "-K", "1", "-p", "1", "-q", "1", "-t", "1", "-s", "1"]
    inst = ["-L", fixture("p3_center_pinned.inst")]
    return [
        ("classify-2-wrench", ["classify", "-H", fixture("two_wrench.hg")]),
        ("classify-c4", ["classify", "-H", fixture("c4.hg")]),
        ("classify-reflexive-c5", ["classify", "-H", fixture("reflexive_c5.hg")]),
        ("count-hom", ["count", "--mode", "hom", "-G", fixture("p3.hg"), "-H", fixture("two_wrench.hg")]),
        ("count-lhom", ["count", "--mode", "lhom", *inst]),
        ("count-ret", ["count", "--mode", "ret", *inst]),
        ("count-sur-ie", ["count", "--mode", "sur", "--method", "ie", "-G", fixture("c4.hg"), "-H", fixture("p3.hg")]),
        ("count-comp-enum", ["count", "--mode", "comp", "--method", "enum", "-G", fixture("c4.hg"), "-H", fixture("k2.hg")]),
        ("count-blocked", ["count", "--mode", "ret", "--method", "blocked", "-L", paths["j"]]),
        ("approx-sur", ["approx", "--mode", "sur", "-G", fixture("p3.hg"), "-H", fixture("k2.hg"),
                        "--epsilon", "0.4", "--delta", "0.2", "--seed", "11"]),
        ("approx-comp", ["approx", "--mode", "comp", "-G", fixture("c4.hg"), "-H", fixture("k2.hg"),
                         "--epsilon", "0.5", "--delta", "0.3", "--seed", "3"]),
        ("gadget-dirichlet", ["gadget", "dirichlet", "0.5", "1.7", "-N", "100"]),
        ("gadget-fixed", ["gadget", "fixed", "2-wrench"]),
        ("gadget-fixed-pbrp", ["gadget", "fixed", "pbrp", "-q", "4", "-S", "1,3,4"]),
        ("gadget-j-block", ["gadget", "j-block", "-p", "2", "-q", "1", "-t", "1"]),
        ("gadget-cut-instance", ["gadget", "cut-instance", *cuts]),
        ("gadget-largecut-instance", ["gadget", "largecut-instance", *large]),
        ("estimate-cuts", ["estimate", "cuts", *cuts, "--delta-prime", "0.02"]),
        ("estimate-largecut", ["estimate", "largecut", *large]),
        ("csp-count", ["csp", "count", paths["iv"]]),
        ("csp-build-graph", ["csp", "build-graph", *pair]),
        ("csp-pbrp", ["csp", "pbrp", "-Q", "4", "-S", "1,3,4"]),
        ("csp-translate", ["csp", "translate", "--instance", paths["g"], *pair]),
        ("types-table", ["types", "table", "-k", "1"]),
        ("types-verify", ["types", "verify", "-k", "1", "--grid", "1,1,1;1,2,1"]),
        ("types-dominance", ["types", "dominance", "-k", "1"]),
        ("verify-csp", ["verify", "csp"]),
    ]


# the --no-meta stdout of each command, digested at the commit before the
# CLI bound one handler per command; verify-csp's, the full-size run, at the
# commit before each verify check ran at one size; approx-sur's and
# approx-comp's when the collapsed draw moved to `approx._binomial` on the
# `pyrng` stream
_PINNED_REPORTS = {
    "classify-2-wrench": "dda941b9ecfe27a4",
    "classify-c4": "f157483f8e5be51c",
    "classify-reflexive-c5": "23d7faaca9cdee43",
    "count-hom": "67d4d8e9fb1f4a18",
    "count-lhom": "512cfdbac57a6e87",
    "count-ret": "9ba3feddbae5a2d4",
    "count-sur-ie": "76b9dbfb65a70f3c",
    "count-comp-enum": "5fc68908ebaad901",
    "count-blocked": "caa4dec8e957a889",
    "approx-sur": "351058e04a299b86",
    "approx-comp": "871a33ab82e152c8",
    "gadget-dirichlet": "7b45c9eeb0dbcced",
    "gadget-fixed": "d6f199a3ba457987",
    "gadget-fixed-pbrp": "fefa8521b2d507f7",
    "gadget-j-block": "ae69fee077c3f968",
    "gadget-cut-instance": "4d3703c0bb95a6ff",
    "gadget-largecut-instance": "2d3e52c343744353",
    "estimate-cuts": "a65fc23b725b20f8",
    "estimate-largecut": "c8c08ec83d74f505",
    "csp-count": "ce07e2b6b8f63400",
    "csp-build-graph": "10ee1403140f0b8b",
    "csp-pbrp": "9aa1d10b9ca95bf4",
    "csp-translate": "16087612fce4786b",
    "types-table": "76c60719df6b1d29",
    "types-verify": "9193e9a1a03fb476",
    "types-dominance": "3e73c7e5709fc469",
    "verify-csp": "78feac8753b641f4",
}


def test_leaf_command_reports_are_pinned(tmp_path, capsys, verify_run_once):
    digests = {}
    for name, argv in _leaf_commands(_command_files(tmp_path)):
        assert cli.main(["--no-meta", *argv]) == 0, name
        digests[name] = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()[:16]
    assert digests == _PINNED_REPORTS


@pytest.mark.parametrize(
    "argv",
    [
        ["gadget", "fixed", "2-wrench"],
        ["gadget", "j-block", "-p", "1", "-q", "1", "-t", "1"],
        ["csp", "build-graph", "--iv", "{iv}", "--ie", "{ie}"],
        ["csp", "translate", "--instance", "{g}", "--iv", "{iv}", "--ie", "{ie}"],
    ],
    ids=["gadget-fixed", "gadget-j-block", "csp-build-graph", "csp-translate"],
)
def test_text_reports_honour_out(tmp_path, capsys, argv):
    argv = [a.format(**_command_files(tmp_path)) for a in argv]
    assert cli.main(argv) == 0
    shown = capsys.readouterr().out
    out = tmp_path / "report.txt"
    assert cli.main([*argv, "--out", str(out)]) == 0
    assert capsys.readouterr().out == ""
    assert shown and out.read_text() == shown


def test_j_block_refuses_a_target_path_that_would_not_read_back(tmp_path, capsys):
    out = tmp_path / "j.blk"
    out.write_text("before\n")
    argv = ["gadget", "j-block", "-p", "1", "-q", "1", "-t", "1", "--target-path", "my dir/H_1.hg"]
    assert cli.main([*argv, "--out", str(out)]) == 1
    assert "'my dir/H_1.hg'" in capsys.readouterr().err
    assert out.read_text() == "before\n"


@pytest.mark.parametrize("pq", (["-p", "10"], ["-q", "10"], ["-p", "0", "-q", "0"], ["-p", "44", "-q", "-1"]))
def test_types_dominance_overrides_p_and_q_together(capsys, pq):
    assert cli.main(["types", "dominance", "-k", "1", *pq]) == 1
    assert "error:" in capsys.readouterr().err


def test_types_dominance_default_is_the_chosen_p_and_q(capsys):
    assert cli.main(["--no-meta", "types", "dominance", "-k", "1"]) == 0
    default = capsys.readouterr().out
    assert cli.main(["--no-meta", "types", "dominance", "-k", "1", "-p", "44", "-q", "52"]) == 0
    assert capsys.readouterr().out == default
