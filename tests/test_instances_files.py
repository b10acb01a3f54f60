import importlib.util
import os

import pytest

from retraction_lab import files
from retraction_lab.csp import CspInstance
from retraction_lab.fixedgraphs import build_two_wrench
from retraction_lab.graphs import Graph
from retraction_lab.instances import (
    Block,
    BlockedInstance,
    Coupling,
    ListedInstance,
    expand_blocked,
)


def test_graph_parse_basics():
    g = files.parse_graph("v a loop\nv b\ne a b\n")
    assert g.is_looped("a") and not g.is_looped("b")
    assert g.has_edge("a", "b")
    # e a a is normalized to a loop
    g2 = files.parse_graph("v a\ne a a\n")
    assert g2.is_looped("a")
    with pytest.raises(files.ParseError):
        files.parse_graph("v a\ne a c\n")
    with pytest.raises(files.ParseError):
        files.parse_graph("v a\nv a\n")
    with pytest.raises(files.ParseError):
        files.parse_graph("w a\n")


def test_graph_roundtrip_idempotent():
    tw = build_two_wrench()
    text = files.serialize_graph(tw)
    once = files.parse_graph(text)
    assert once == tw
    assert files.serialize_graph(once) == text


def test_instance_files(tmp_path):
    target = build_two_wrench()
    (tmp_path / "h.hg").write_text(files.serialize_graph(target))
    text = "target h.hg\nv x\nv y\ne x y\nl x *\nl y b,g\n"
    inst, loaded = files.parse_instance(text, str(tmp_path))
    assert loaded == target
    assert inst.lists["x"] == frozenset(target.vertices)
    assert inst.lists["y"] == frozenset({"b", "g"})
    # omitted list record defaults to the full list
    inst2, _ = files.parse_instance("target h.hg\nv x\n", str(tmp_path))
    assert inst2.lists["x"] == frozenset(target.vertices)
    with pytest.raises(files.ParseError):
        files.parse_instance("target h.hg\nv x\nl x b,zzz\n", str(tmp_path))
    with pytest.raises(files.ParseError):
        files.parse_instance("v x\n", str(tmp_path))


def test_blocked_files(tmp_path):
    target = build_two_wrench()
    (tmp_path / "h.hg").write_text(files.serialize_graph(target))
    text = (
        "target h.hg\n"
        "b A 3 *\n"
        "b u 1 *\n"
        "c u A apex\n"
        "p u b\n"
    )
    blocked, loaded = files.parse_blocked(text, str(tmp_path))
    assert loaded == target
    assert blocked.block("A").multiplicity == 3
    out = files.serialize_blocked(blocked, "h.hg")
    again, _ = files.parse_blocked(out, str(tmp_path))
    assert again == blocked
    with pytest.raises(files.ParseError):
        files.parse_blocked("target h.hg\nb A 0 *\n", str(tmp_path))


_K2 = Graph("xy", [("x", "y")])


def test_blocked_rejects_self_coupling():
    # a block coupled to itself would expand to a looped pattern vertex
    with pytest.raises(ValueError):
        BlockedInstance(
            (Block("s", 1), Block("M", 2)),
            (Coupling("s", "s", "cb"), Coupling("s", "M", "apex")),
            (),
            _K2.vertices,
        )


def test_blocked_file_rejects_self_coupling(tmp_path):
    (tmp_path / "k2.hg").write_text(files.serialize_graph(_K2))
    text = "target k2.hg\nb s 1 *\nb M 2 *\nc s s cb\nc s M apex\n"
    with pytest.raises(files.ParseError):
        files.parse_blocked(text, str(tmp_path))


def test_instance_file_rejects_looped_pattern_vertex(tmp_path):
    # the pattern records parse as in a graph file, so both loop forms are
    # seen, and the irreflexive-pattern error is a ParseError
    (tmp_path / "k2.hg").write_text(files.serialize_graph(_K2))
    for body in ("v x loop\nv y\ne x y\n", "v x\nv y\ne x y\ne x x\n"):
        with pytest.raises(files.ParseError, match="irreflexive"):
            files.parse_instance("target k2.hg\n" + body, str(tmp_path))


def test_csp_files():
    text = "x a\nx b\nimp a b\npin a 1\n"
    inst = files.parse_csp(text)
    assert inst == CspInstance(("a", "b"), (("a", "b"),), (("a", 1),))
    assert files.parse_csp(files.serialize_csp(inst)) == inst
    with pytest.raises(files.ParseError):
        files.parse_csp("imp a b\n")
    with pytest.raises(files.ParseError):
        files.parse_csp("x a\npin a 2\n")


def test_listed_instance_validation():
    k2 = Graph("ab", [("a", "b")])
    looped = Graph([], [("a", "a"), ("a", "b")])
    with pytest.raises(ValueError):
        ListedInstance.full(looped, k2)
    with pytest.raises(ValueError):
        ListedInstance(k2, {"a": frozenset(("zzz",))}, k2.vertices)
    with pytest.raises(ValueError):
        ListedInstance(k2, {"zzz": frozenset(("a",))}, k2.vertices)
    inst = ListedInstance.full(k2, k2)
    pinned = inst.pin("a", "b")
    assert pinned.lists["a"] == frozenset(("b",))
    with pytest.raises(ValueError):
        pinned.pin("a", "a")


def test_blocked_validation():
    tw = build_two_wrench()
    with pytest.raises(ValueError):
        BlockedInstance(
            (Block("A", 2), Block("B", 3)),
            (Coupling("A", "B", "pm"),),
            (),
            tw.vertices,
        )
    with pytest.raises(ValueError):
        BlockedInstance(
            (Block("A", 2), Block("B", 3)),
            (Coupling("A", "B", "apex"),),
            (),
            tw.vertices,
        )
    with pytest.raises(ValueError):
        BlockedInstance((Block("A", 2),), (), (("A", "b"),), tw.vertices)
    with pytest.raises(ValueError):
        BlockedInstance((Block("A", 1),), (), (("A", "nope"),), tw.vertices)
    # a block name becomes a vertex name of the expansion
    with pytest.raises(ValueError):
        BlockedInstance((Block("", 1),), (), (), tw.vertices)


def test_expand_blocked_wirings():
    tw = build_two_wrench()
    b = BlockedInstance(
        (Block("A", 2), Block("B", 2), Block("C", 3), Block("x", 1)),
        (
            Coupling("A", "B", "pm"),
            Coupling("B", "C", "cb"),
            Coupling("x", "C", "apex"),
        ),
        (("x", "b"),),
        tw.vertices,
    )
    inst = expand_blocked(b)
    g = inst.pattern
    assert g.has_edge("A#1", "B#1") and g.has_edge("A#2", "B#2")
    assert not g.has_edge("A#1", "B#2")
    assert all(g.has_edge(f"B#{i}", f"C#{j}") for i in (1, 2) for j in (1, 2, 3))
    assert all(g.has_edge("x", f"C#{j}") for j in (1, 2, 3))
    assert inst.lists["x"] == frozenset(("b",))
    assert inst.lists["A#1"] == frozenset(tw.vertices)


def test_pin_equals_the_validated_instance():
    tw = build_two_wrench()
    pattern = Graph(["u", "v", "w"], [("u", "v"), ("v", "w")])
    inst = ListedInstance(pattern, {"w": frozenset(("b", "g")), "u": frozenset(("r1",))}, tw.vertices)
    before = dict(inst.lists)
    for v in pattern.vertices:
        for t in sorted(inst.lists[v]):
            pinned = inst.pin(v, t)
            assert pinned == ListedInstance(inst.pattern, {**inst.lists, v: {t}}, inst.target_vertices)
            assert list(pinned.lists) == list(pattern.vertices)
    assert inst.lists == before  # pinning copies
    with pytest.raises(ValueError, match="not in the list"):
        inst.pin("w", "r2")
    with pytest.raises(ValueError, match="not in the list"):
        inst.pin("u", "b")


def test_checked_in_fixtures_match_their_generator():
    fixdir = os.path.join(os.path.dirname(__file__), "..", "fixtures")
    spec = importlib.util.spec_from_file_location("regenerate", os.path.join(fixdir, "regenerate.py"))
    regenerate = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(regenerate)
    hg = sorted(name for name in os.listdir(fixdir) if name.endswith(".hg"))
    assert hg == sorted(regenerate.FIXTURES)
    for name, graph in regenerate.FIXTURES.items():
        with open(os.path.join(fixdir, name), encoding="utf-8", newline="") as fh:
            assert fh.read() == files.serialize_graph(graph), name
