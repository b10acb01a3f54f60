import importlib.util
import os

import pytest

from fractions import Fraction

from retraction_lab import csp, files, gadgets, verify
from retraction_lab._seeds import pyrng
from retraction_lab.csp import CspInstance
from retraction_lab.fixedgraphs import build_fixed_graph, build_j_blocked, build_two_wrench
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
    assert blocked.blocks[0] == Block("A", 3)
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
    with pytest.raises(ValueError, match=r"unknown target vertices \['zzz'\]"):
        ListedInstance(k2, {"a": frozenset(("a", "zzz"))}, k2.vertices)  # as many values as targets
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
    assert g.has_edge("A$1", "B$1") and g.has_edge("A$2", "B$2")
    assert not g.has_edge("A$1", "B$2")
    assert all(g.has_edge(f"B${i}", f"C${j}") for i in (1, 2) for j in (1, 2, 3))
    assert all(g.has_edge("x", f"C${j}") for j in (1, 2, 3))
    assert inst.lists["x"] == frozenset(("b",))
    assert inst.lists["A$1"] == frozenset(tw.vertices)


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
    with pytest.raises(ValueError, match="'q' is not a pattern vertex"):
        inst.pin("q", "b")



def test_masks_and_label_lists_give_equal_instances():
    # the lists are stored once, as domain masks (bit i for the i-th sorted
    # target vertex): rebuilding an instance from its label view, restricting
    # its lists and pinning a vertex each equal the instance that labels
    # build afresh, and hash equal
    for seed in range(100):
        pattern, target = verify.random_pattern(seed), verify.random_target(seed)
        tv = target.vertices
        inst = ListedInstance(pattern, verify.random_lists(seed, pattern, target), tv)
        assert inst.domains == tuple(sum(1 << tv.index(t) for t in inst.lists[v]) for v in pattern.vertices)
        again = ListedInstance(pattern, inst.lists, tv)
        assert again == inst and hash(again) == hash(inst)
        rng = pyrng("value-type", seed)
        allowed = frozenset(rng.sample(tv, rng.randint(0, len(tv))))
        cut = ListedInstance(pattern, {v: sv & allowed for v, sv in inst.lists.items()}, tv)
        assert inst.restrict_lists(allowed) == cut and hash(inst.restrict_lists(allowed)) == hash(cut)
        for v, sv in inst.lists.items():
            for t in sorted(sv):
                pinned = ListedInstance(pattern, {**inst.lists, v: frozenset((t,))}, tv)
                assert inst.pin(v, t) == pinned and hash(inst.pin(v, t)) == hash(pinned)


def test_label_view_is_the_lists_given():
    # the view builds one frozenset per distinct mask, so the full lists
    # share one
    for seed in range(100):
        pattern, target = verify.random_pattern(seed), verify.random_target(seed)
        lists = verify.random_lists(seed, pattern, target)
        inst = ListedInstance(pattern, lists, target.vertices)
        assert list(inst.lists.items()) == [(v, lists[v]) for v in pattern.vertices]
        full = ListedInstance.full(pattern, target)
        assert list(full.lists.items()) == [(v, frozenset(target.vertices)) for v in pattern.vertices]
        assert len({id(s) for s in full.lists.values()}) <= 1


def test_a_pin_outside_its_block_list_is_refused(tmp_path):
    # the pin would replace the block's list, dropping it unseen
    k2 = Graph("ab", [("a", "b")])
    with pytest.raises(ValueError, match="pin target 'b' is not in the list of block 'u'"):
        BlockedInstance(
            (Block("u", 1, frozenset({"a"})), Block("v", 1)), (Coupling("u", "v", "cb"),), (("u", "b"),), k2.vertices
        )
    (tmp_path / "k2.hg").write_text(files.serialize_graph(k2))
    with pytest.raises(files.ParseError, match="pin target 'b' is not in the list of block 'u'"):
        files.parse_blocked("target k2.hg\nb u 1 a\nb v 1 *\nc u v cb\np u b\n", str(tmp_path))


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


# (format, text, parse summary or ParseError message), recorded before the
# four parsers read one grammar table; instance and blocked texts resolve
# their target against a directory holding h.hg (the 2-wrench: b, g, r1, r2)
# and bad.hg (a duplicate vertex on line 2)
_PINNED_PARSES = [
    ('graph', 'v a loop\nv b\ne a b\n', (('a', 'b'), ('a',), (('a', 'b'),))),
    ('graph', 'v a\ne a a\n', (('a',), ('a',), ())),
    ('graph', '# only a comment\n\n   \n', ((), (), ())),
    ('graph', 'v a # trailing comment\nv b#c\ne a b\n', (('a', 'b'), (), (('a', 'b'),))),
    ('graph', 'v a\r\nv b\r\ne a b\r\n', (('a', 'b'), (), (('a', 'b'),))),
    ('graph', 'e a b\nv a\nv b\ne b a\n', (('a', 'b'), (), (('a', 'b'),))),
    ('graph', 'v loop\nv x loop\ne loop x\n', (('loop', 'x'), ('x',), (('loop', 'x'),))),
    ('graph', 'v\n', 'line 1: malformed vertex record'),
    ('graph', 'v a b\n', 'line 1: malformed vertex record'),
    ('graph', 'v a loop extra\n', 'line 1: malformed vertex record'),
    ('graph', 'v a\nv a\n', "line 2: duplicate vertex 'a'"),
    ('graph', 'v a\ne a\n', 'line 2: malformed edge record'),
    ('graph', 'v a\ne a b c\n', 'line 2: malformed edge record'),
    ('graph', 'w a\n', "line 1: unknown record 'w'"),
    ('graph', 'target h.hg\nv a\n', "line 1: unknown record 'target'"),
    ('graph', 'v a\nl a *\n', "line 2: unknown record 'l'"),
    ('graph', 'v a\ne a c\n', "edge endpoint 'c' is not a declared vertex"),
    ('graph', 'v a\ne c a\ne a d\n', "edge endpoint 'c' is not a declared vertex"),
    ('graph', 'v a\ne a c\nv a\n', "line 3: duplicate vertex 'a'"),
    ('instance',
     'target h.hg\nv x\nv y\ne x y\nl x *\nl y b,g\n',
     ((('x', 'y'), (), (('x', 'y'),)),
      (('x', ('b', 'g', 'r1', 'r2')), ('y', ('b', 'g'))),
      ('b', 'g', 'r1', 'r2'),
      ('b', 'g', 'r1', 'r2'))),
    ('instance',
     'target h.hg\nv x\n',
     ((('x',), (), ()), (('x', ('b', 'g', 'r1', 'r2')),), ('b', 'g', 'r1', 'r2'), ('b', 'g', 'r1', 'r2'))),
    ('instance',
     '# header\ntarget h.hg # the wrench\nv x\nl x r1\n',
     ((('x',), (), ()), (('x', ('r1',)),), ('b', 'g', 'r1', 'r2'), ('b', 'g', 'r1', 'r2'))),
    ('instance',
     'target h.hg\nv x\nl x b,b,g\n',
     ((('x',), (), ()), (('x', ('b', 'g')),), ('b', 'g', 'r1', 'r2'), ('b', 'g', 'r1', 'r2'))),
    ('instance', 'v x\n', 'missing `target <path>` header'),
    ('instance', '', 'missing `target <path>` header'),
    ('instance', 'target\nv x\n', 'line 1: malformed target header'),
    ('instance', 'target h.hg extra\n', 'line 1: malformed target header'),
    ('instance', 'target h.hg\ntarget h.hg\n', 'line 2: malformed target header'),
    ('instance', 'v x y z\ntarget h.hg\ntarget h.hg\n', 'line 3: malformed target header'),
    ('instance', 'v x y z\n', 'missing `target <path>` header'),
    ('instance', 'target bad.hg\nv x\n', "line 2: duplicate vertex 'a'"),
    ('instance', 'target h.hg\nl x\nv a b c\n', 'line 3: malformed vertex record'),
    ('instance', 'target h.hg\nl x\n', 'line 2: malformed list record'),
    ('instance', 'target h.hg\nv x\nl x b g\n', 'line 3: malformed list record'),
    ('instance', 'target h.hg\nv x\nl x *\nl x b\n', "line 4: duplicate list for 'x'"),
    ('instance',
     'target h.hg\nv x\nl x b,zz,aa\n',
     "line 3: list mentions unknown target vertices ['aa', 'zz']"),
    ('instance', 'target h.hg\nv x\nl y *\nl x zz\n', "line 4: list mentions unknown target vertices ['zz']"),
    ('instance', 'target h.hg\nv x\nl y *\n', "list for undeclared vertex 'y'"),
    ('instance', 'target h.hg\nv x loop\n', 'pattern graphs must be irreflexive'),
    ('instance', 'target h.hg\nv x\ne x x\n', 'pattern graphs must be irreflexive'),
    ('instance', 'target h.hg\nb A 1 *\n', "line 2: unknown record 'b'"),
    ('instance', 'target h.hg\nv x\ne x y\n', "edge endpoint 'y' is not a declared vertex"),
    ('instance', 'target h.hg\nv x\nl x *,b\n', "line 3: list mentions unknown target vertices ['*']"),
    ('instance', 'target h.hg\nv x\ne x z\nl x qq\n', "edge endpoint 'z' is not a declared vertex"),
    ('blocked',
     'target h.hg\nb A 3 *\nb u 1 *\nc u A apex\np u b\n',
     ((('A', 3, None), ('u', 1, None)),
      (('u', 'A', 'apex'),),
      (('u', 'b'),),
      ('b', 'g', 'r1', 'r2'),
      ('b', 'g', 'r1', 'r2'))),
    ('blocked',
     'target h.hg\nb A 2 b,g\nb B 2 *\nc A B pm\nb z 1 r1,r2\nc z A apex\n',
     ((('A', 2, ('b', 'g')), ('B', 2, None), ('z', 1, ('r1', 'r2'))),
      (('A', 'B', 'pm'), ('z', 'A', 'apex')),
      (),
      ('b', 'g', 'r1', 'r2'),
      ('b', 'g', 'r1', 'r2'))),
    ('blocked', 'b A 1 *\n', 'missing `target <path>` header'),
    ('blocked', 'target h.hg\ntarget h.hg\n', 'line 2: malformed target header'),
    ('blocked', 'target bad.hg\nb A 1 *\n', "line 2: duplicate vertex 'a'"),
    ('blocked', 'target h.hg\nb A 1\n', 'line 2: malformed block record'),
    ('blocked', 'target h.hg\nb A x *\n', "line 2: invalid literal for int() with base 10: 'x'"),
    ('blocked', 'target h.hg\nb A 0 *\n', "line 2: block 'A' needs positive multiplicity"),
    ('blocked', 'target h.hg\nb A -1 *\n', "line 2: block 'A' needs positive multiplicity"),
    ('blocked', 'target h.hg\nb A 1 *\nb B 1 *\nc A B\n', 'line 4: malformed coupling record'),
    ('blocked', 'target h.hg\nb A 1 *\nb B 1 *\nc A B xx\n', "line 4: unknown coupling kind 'xx'"),
    ('blocked', 'target h.hg\nb A 1 *\nb B 1 *\nc A B xx\nb C 0 *\n', "line 4: unknown coupling kind 'xx'"),
    ('blocked', 'target h.hg\nb A 1 *\np A\n', 'line 3: malformed pin record'),
    ('blocked', 'target h.hg\nv x\n', "line 2: unknown record 'v'"),
    ('blocked', 'target h.hg\nb A 1 *\nb A 1 *\n', "duplicate block 'A'"),
    ('blocked',
     'target h.hg\nb A 1 *\nc A B cb\n',
     "coupling Coupling(a='A', b='B', kind='cb') references unknown block"),
    ('blocked',
     'target h.hg\nb A 1 *\nb B 2 *\nc A B pm\n',
     'perfect matching A-B joins unequal multiplicities'),
    ('blocked', 'target h.hg\nb A 2 *\np A b\n', "pinned block 'A' must have multiplicity 1"),
    ('blocked', 'target h.hg\nb A 1 zz\n', "block 'A' list mentions unknown target vertices"),
    ('blocked', 'target h.hg\nb A 1 ,\n', "block 'A' list mentions unknown target vertices"),
    ('blocked', 'target h.hg\nb A 1 *\np A zz\n', "pin target 'zz' is not a target vertex"),
    ('csp', 'x a\nx b\nimp a b\npin a 1\n', (('a', 'b'), (('a', 'b'),), (('a', 1),))),
    ('csp', 'x a\nimp a a\npin a 0\n', (('a',), (('a', 'a'),), (('a', 0),))),
    ('csp', 'x\n', 'line 1: malformed variable record'),
    ('csp', 'x a b\n', 'line 1: malformed variable record'),
    ('csp', 'x a\nimp a\n', 'line 2: malformed imp record'),
    ('csp', 'x a\npin a 2\n', 'line 2: malformed pin record'),
    ('csp', 'x a\npin a\n', 'line 2: malformed pin record'),
    ('csp', 'x a\npin a 01\n', 'line 2: malformed pin record'),
    ('csp', 'y a\n', "line 1: unknown record 'y'"),
    ('csp', 'x a\nimp a b\nw\n', "line 3: unknown record 'w'"),
    ('csp', 'imp a b\n', 'Imp(a,b) references undeclared variables'),
    ('csp', 'x a\nx a\n', 'duplicate variables'),
    ('csp', 'x a\npin b 1\n', "pin on undeclared variable 'b'"),
    ('csp', 'x a\npin a 1\npin a 0\n', "multiple pins on 'a'"),
]


def _graph_summary(g):
    return g.vertices, tuple(v for v in g.vertices if g.is_looped(v)), tuple(g.non_loop_edges())


def _parse_summary(fmt, text, base):
    if fmt == "graph":
        return _graph_summary(files.parse_graph(text))
    if fmt == "instance":
        inst, target = files.parse_instance(text, base)
        lists = tuple((v, tuple(sorted(s))) for v, s in inst.lists.items())
        return _graph_summary(inst.pattern), lists, inst.target_vertices, target.vertices
    if fmt == "blocked":
        b, target = files.parse_blocked(text, base)
        blocks = tuple((k.name, k.multiplicity, k.list and tuple(sorted(k.list))) for k in b.blocks)
        return blocks, tuple((c.a, c.b, c.kind) for c in b.couplings), b.pins, b.target_vertices, target.vertices
    inst = files.parse_csp(text)
    return inst.variables, inst.imps, inst.pins


def test_parse_results_and_messages_are_pinned(tmp_path):
    (tmp_path / "h.hg").write_text(files.serialize_graph(build_two_wrench()))
    (tmp_path / "bad.hg").write_text("v a\nv a\n")
    wrong = []
    for fmt, text, want in _PINNED_PARSES:
        try:
            got = _parse_summary(fmt, text, str(tmp_path))
        except files.ParseError as exc:
            got = str(exc)
        if got != want:
            wrong.append((fmt, text, got))
    assert not wrong, wrong


FIXDIR = os.path.join(os.path.dirname(__file__), "..", "fixtures")


def test_everything_the_library_writes_reads_back(tmp_path):
    """parse(serialize(x)) == x for each object a CLI text command prints."""
    iv, ie = csp.pbrp_csp(4, {1, 3, 4})
    h = csp.build_graph_from_csp(iv, ie)
    graphs = [
        build_fixed_graph("j_q", q=3), build_fixed_graph("j_q", q=5), build_fixed_graph("wr_q", q=3),
        build_fixed_graph("2-wrench"), build_fixed_graph("h_k", k=1), build_fixed_graph("h_k", k=3),
        build_fixed_graph("h'_k", k=2), build_fixed_graph("pbrp", q=4, s={1, 3, 4}), h,
    ]
    for g in graphs:
        assert files.parse_graph(files.serialize_graph(g)) == g
    pattern = Graph(["u", "w"], [("u", "w")])
    ret = ListedInstance(pattern, {"u": frozenset((h.vertices[0],))}, h.vertices)
    for inst in (iv, ie, csp.translate_ret_to_csp(ret, iv, ie)):
        assert files.parse_csp(files.serialize_csp(inst)) == inst
    star, j3 = (files.load_graph(os.path.join(FIXDIR, name)) for name in ("terminal_star.hg", "j3.hg"))
    cut = gadgets.build_cut_instance(star, "a", "b", "c", 2, j3, delta_prime=Fraction(1, 20))
    large = gadgets.build_largecut_instance(
        files.load_graph(os.path.join(FIXDIR, "k2.hg")), 1, 2, p=1, q=2, t=1, s=1
    )
    plans = [
        (build_j_blocked(2, 1, 1), build_fixed_graph("h_k", k=1)),
        (build_j_blocked(1, 2, 3, 3), build_fixed_graph("h_k", k=3)),
        (cut.blocked, cut.target),
        (large.blocked, large.target),
    ]
    for blocked, target in plans:
        (tmp_path / "h.hg").write_text(files.serialize_graph(target))
        text = files.serialize_blocked(blocked, "h.hg")
        assert files.parse_blocked(text, str(tmp_path)) == (blocked, target)


def test_expanded_block_names_read_back():
    # a multi-block's expanded names, B$1 .., are tokens of every text format
    g = expand_blocked(build_j_blocked(1, 1, 2)).pattern
    assert "A$1" in g.vertices
    assert files.parse_graph(files.serialize_graph(g)) == g


def test_serializers_refuse_ids_that_would_not_read_back():
    with pytest.raises(ValueError, match="'a b'"):
        files.serialize_graph(Graph(["a b", "c"], [("a b", "c")]))
    star_list = BlockedInstance((Block("A", 2, frozenset({"*"})),), (), (), ("*", "x"))
    with pytest.raises(ValueError, match=r"'\*'"):
        files.serialize_blocked(star_list, "h.hg")
    with pytest.raises(ValueError, match="'my dir/H_1.hg'"):
        files.serialize_blocked(build_j_blocked(1, 1, 1), "my dir/H_1.hg")
    comma = BlockedInstance((Block("A", 1, frozenset({"x,y"})),), (), (), ("x,y",))
    with pytest.raises(ValueError, match="'x,y'"):
        files.serialize_blocked(comma, "h.hg")
    empty = BlockedInstance((Block("A", 1, frozenset()),), (), (), ("x",))
    with pytest.raises(ValueError, match="'A'"):
        files.serialize_blocked(empty, "h.hg")
    pinned = BlockedInstance((Block("A", 1),), (), (("A", "x\ty"),), ("x\ty",))
    with pytest.raises(ValueError, match="pin target"):
        files.serialize_blocked(pinned, "h.hg")
    with pytest.raises(ValueError, match="'x#1'"):
        files.serialize_csp(CspInstance(("x#1",)))
