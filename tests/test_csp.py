import hashlib
from itertools import combinations, product

import pytest
from hypothesis import given, settings, strategies as st

from retraction_lab import csp, exact, files, reference, verify
from retraction_lab._seeds import pyrng
from retraction_lab.fixedgraphs import build_path, build_pbrp, build_two_wrench
from retraction_lab.graphs import DiGraph, Graph, connected_components
from retraction_lab.instances import ListedInstance


def test_count_csp_examples():
    assert csp.count_csp(csp.CspInstance(("x",))) == 2
    imp = csp.CspInstance(("x", "y"), imps=(("x", "y"),))
    assert csp.count_csp(imp) == 3
    pinned = csp.CspInstance(("x", "y"), imps=(("x", "y"),), pins=(("x", 1),))
    assert csp.count_csp(pinned) == 1


def test_count_csp_counts_past_the_enumeration_bound():
    xs = tuple(f"x{i}" for i in range(30))
    assert len(xs) > csp.CSP_ENUM_BOUND
    assert csp.count_csp(csp.CspInstance(xs)) == 2**30
    # a chain x0 => x1 => ... => x29 holds on the 31 monotone assignments
    assert csp.count_csp(csp.CspInstance(xs, tuple(zip(xs, xs[1:])))) == 31


def test_satisfying_assignments_bound():
    xs = tuple(f"x{i}" for i in range(30))
    with pytest.raises(ValueError, match="24 variables to list"):
        csp.satisfying_assignments(csp.CspInstance(xs))


def test_build_graph_two_wrench():
    iv, ie = csp.pbrp_csp(1, {1})
    assert iv.imps == ()
    assert ie.imps == (("x1", "x0"),)
    g = csp.build_graph_from_csp(iv, ie)
    assert g.vertices == ("00", "01", "10", "11")
    assert set(map(frozenset, g.edges())) == {
        frozenset({"00"}), frozenset({"10"}), frozenset({"11"}),
        frozenset({"00", "10"}), frozenset({"10", "11"}), frozenset({"01", "10"}),
    }


def test_build_graph_vacuous_and_self_imp():
    one = csp.CspInstance(("x",))
    complete = csp.build_graph_from_csp(one, csp.CspInstance(("x",)))
    assert complete.edges() == [("0", "0"), ("0", "1"), ("1", "1")]
    self_imp = csp.build_graph_from_csp(one, csp.CspInstance(("x",), imps=(("x", "x"),)))
    assert self_imp.edges() == [("0", "0"), ("1", "1")]


def test_build_digraph_examples():
    one = csp.CspInstance(("x",))
    fwd = csp.CspInstance(("x",), imps=(("x", "x"),))
    empty = csp.CspInstance(("x",))
    dg = csp.build_digraph_from_csp(one, fwd, empty)
    assert sorted(dg.arcs()) == [("0", "0"), ("0", "1"), ("1", "1")]
    both = csp.build_digraph_from_csp(one, fwd, fwd)
    undirected = csp.build_graph_from_csp(one, fwd)
    # the undirected bridge is the directed one with ie both ways: one arc per orientation
    assert set(both.arcs()) == {a for u, v in undirected.edges() for a in ((u, v), (v, u))}
    full = csp.build_digraph_from_csp(one, empty, empty)
    assert len(full.arcs()) == 4


def test_translate_examples():
    iv, ie = csp.pbrp_csp(1, {1})
    h = csp.build_graph_from_csp(iv, ie)
    single = ListedInstance.full(Graph(["w"]), h)
    assert csp.count_csp(csp.translate_ret_to_csp(single, iv, ie)) == len(h.vertices)

    k2 = Graph("uv", [("u", "v")])
    pinned = ListedInstance(
        k2, {"u": frozenset(("00",)), "v": frozenset(("10",))}, h.vertices
    )
    assert csp.count_csp(csp.translate_ret_to_csp(pinned, iv, ie)) == 1
    assert exact.count_retraction(pinned, h) == 1

    full = ListedInstance.full(k2, h)
    assert csp.count_csp(csp.translate_ret_to_csp(full, iv, ie)) == exact.count_retraction(full, h) == 9


def test_translate_rejects_general_lists():
    iv, ie = csp.pbrp_csp(1, {1})
    h = csp.build_graph_from_csp(iv, ie)
    inst = ListedInstance(Graph(["w"]), {"w": frozenset(("00", "10"))}, h.vertices)
    with pytest.raises(ValueError):
        csp.translate_ret_to_csp(inst, iv, ie)


def test_translate_names_and_the_reserved_separator():
    iv, ie = csp.pbrp_csp(1, {1})
    h = csp.build_graph_from_csp(iv, ie)
    inst = ListedInstance(Graph(["w"]), {"w": frozenset(("10",))}, h.vertices)
    out = csp.translate_ret_to_csp(inst, iv, ie)
    assert out.variables == ("w::x0", "w::x1")
    assert out.pins == (("w::x0", 1), ("w::x1", 0))
    # the separator in a vertex or a variable name is refused; names that
    # only form it once joined ("a:" and ":b") are not
    for bad, variables in (("w::1", ("x0", "x1")), ("w", ("x0", "x::1"))):
        iv_bad = csp.CspInstance(variables, ((variables[1], variables[0]),))
        lists = {v: frozenset(("00", "01", "11")) for v in (bad, "u")}
        with pytest.raises(ValueError, match="reserved separator"):
            csp.translate_dirret_to_csp(DiGraph([bad, "u"], [(bad, "u")]), lists, iv_bad, iv_bad, iv_bad)
    joined = csp.CspInstance((":b",))
    out = csp.translate_dirret_to_csp(DiGraph(["a:"]), {"a:": frozenset(("0", "1"))}, joined, joined, joined)
    assert out.variables == ("a::::b",)


def test_pbrp_csp_construction():
    iv, ie = csp.pbrp_csp(2, {1})
    assert iv.imps == (("x2", "x1"),)
    assert len(ie.imps) == 3
    with pytest.raises(ValueError):
        csp.pbrp_csp(2, set())
    with pytest.raises(ValueError):
        csp.pbrp_csp(2, {3})


def test_pbrp_fig2_structure():
    iv, ie = csp.pbrp_csp(4, {1, 3, 4})
    built = csp.build_graph_from_csp(iv, ie)
    path, bristles = csp.pbrp_expected_labels(4, frozenset({1, 3, 4}))
    mapping = {name: f"c{i}" for i, name in path.items()}
    mapping.update({name: f"g{i}" for i, name in bristles.items()})
    core = [c for c in connected_components(built) if len(c) > 1]
    assert len(core) == 1
    assert core[0].relabel(mapping) == build_pbrp(4, {1, 3, 4})


def test_directed_counter_matches_naive():
    for i in range(40):
        rng = pyrng("dircnt", i)
        nt = rng.randint(1, 3)
        tv = [f"h{j}" for j in range(nt)]
        tarcs = [(a, b) for a in tv for b in tv if rng.random() < 0.5]
        target = DiGraph(tv, tarcs)
        np_ = rng.randint(0, 4)
        pv = [f"g{j}" for j in range(np_)]
        parcs = [(a, b) for a in pv for b in pv if rng.random() < 0.3]
        pattern = DiGraph(pv, parcs)
        lists = {v: frozenset(rng.sample(tv, rng.randint(1, nt))) for v in pv}
        assert csp.count_dir_list_hom(pattern, lists, target) == reference.naive_count_digraph(
            pattern, lists, target
        )



def test_directed_list_counts_take_lists_as_an_instance_does():
    # no list means the full list; a value that is not a target vertex, or a
    # list for a vertex outside the pattern, raises ValueError
    pattern = DiGraph("ab", [("a", "b")])
    target = DiGraph("xyz", [("x", "y"), ("y", "z"), ("z", "z")])
    full = {v: frozenset(target.vertices) for v in pattern.vertices}
    assert csp.count_dir_list_hom(pattern, {}, target) == csp.count_dir_list_hom(pattern, full, target) == 3
    assert csp.count_dir_list_hom(pattern, {"a": frozenset("x")}, target) == 1
    with pytest.raises(ValueError, match="unknown target vertices"):
        csp.count_dir_list_hom(pattern, {"a": frozenset("7")}, target)
    with pytest.raises(ValueError, match="unknown pattern vertices"):
        csp.count_dir_list_hom(pattern, {"q": frozenset("x")}, target)

@st.composite
def _csp_instances(draw):
    """At most 8 variables; Imp(x, x) and pins allowed."""
    xs = tuple(f"x{i}" for i in range(draw(st.integers(0, 8))))
    if not xs:
        return csp.CspInstance(xs)
    pairs = st.tuples(st.sampled_from(xs), st.sampled_from(xs))
    imps = tuple(dict.fromkeys(draw(st.lists(pairs, max_size=12))))
    pinned = draw(st.sets(st.sampled_from(xs)))
    pins = tuple((x, draw(st.integers(0, 1))) for x in sorted(pinned))
    return csp.CspInstance(xs, imps, pins)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(_csp_instances())
def test_csp_counters_match_naive(inst):
    truth = reference.naive_csp_assignments(inst)
    assert csp.satisfying_assignments(inst) == truth
    assert csp.count_csp(inst) == len(truth)


@st.composite
def _digraph_instances(draw):
    """A pattern on at most 5 vertices and a target on at most 3, both with
    loops allowed, and random non-empty lists."""
    tv = [f"h{j}" for j in range(draw(st.integers(1, 3)))]
    target = DiGraph(tv, [a for a in product(tv, repeat=2) if draw(st.booleans())])
    pv = [f"g{j}" for j in range(draw(st.integers(0, 5)))]
    pattern = DiGraph(pv, [a for a in product(pv, repeat=2) if draw(st.integers(0, 3)) == 0])
    lists = {v: frozenset(draw(st.sets(st.sampled_from(tv), min_size=1))) for v in pv}
    return pattern, lists, target


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(_digraph_instances())
def test_directed_counter_matches_naive_with_loops(case):
    pattern, lists, target = case
    assert csp.count_dir_list_hom(pattern, lists, target) == reference.naive_count_digraph(
        pattern, lists, target
    )


def test_strip_trivial_components():
    tw = build_two_wrench()
    lone = Graph(list(tw.vertices) + ["s"], tw.edges())
    core = csp.strip_trivial_components(lone)
    assert core.core == tw
    assert len(core.stripped) == 1
    connected = csp.strip_trivial_components(tw)
    assert connected.core == tw and connected.stripped == ()
    two_cores = Graph([], tw.edges() + [(f"z{v}", f"z{v}") for v in "ab"] + [("za", "zb")])
    with pytest.raises(ValueError):
        csp.strip_trivial_components(two_cores)
    # with no non-trivial component, the first component stands in for the core
    trivial = csp.strip_trivial_components(Graph(["s"], [("u", "w"), ("t", "t")]))
    assert trivial.core == Graph(["s"])
    assert trivial.stripped == (Graph([], [("t", "t")]), Graph([], [("u", "w")]))
    with pytest.raises(ValueError, match="empty graph has no core"):
        csp.strip_trivial_components(Graph())


def test_f_value_counts_the_stripped_components():
    # a connected pattern maps into one component: the core's count with the
    # lists cut to the core, plus f_value over the stripped components
    tw = build_two_wrench()
    h = Graph(list(tw.vertices) + ["s"], tw.edges() + [("t", "t"), ("u", "w")])
    sc = csp.strip_trivial_components(h)
    assert sc.core == tw and len(sc.stripped) == 3
    core_v = frozenset(tw.vertices)
    seen = set()
    for i in range(200):
        rng = pyrng("f-value", i)
        g = build_path(rng.randint(1, 6))
        lists = {v: frozenset(rng.sample(h.vertices, rng.randint(1, len(h)))) for v in g.vertices}
        f = sc.f_value(g, lists)
        cut = ListedInstance(g, {v: sv & core_v for v, sv in lists.items()}, tw.vertices)
        total = exact.count_list_hom(ListedInstance(g, lists, h.vertices), h)
        assert total == exact.count_list_hom(cut, tw) + f, i
        seen.add(f > 0)
    assert seen == {False, True}


def test_subtract_wrapper():
    assert csp.subtract_wrapper(9, 1) == 8
    assert csp.subtract_wrapper(7, 7) == 0
    with pytest.raises(ValueError):
        csp.subtract_wrapper(0, 1)


def test_pbrp_construction_output_strips_to_core():
    iv, ie = csp.pbrp_csp(1, {1})
    built = csp.build_graph_from_csp(iv, ie)
    stripped = csp.strip_trivial_components(built)
    assert stripped.stripped == ()
    assert len(stripped.core) == 4


def _digest(texts):
    h = hashlib.sha256()
    for t in texts:
        h.update(t.encode() + b"\0")
    return h.hexdigest()[:16]


def test_bridge_outputs_are_pinned():
    # every bristled-path shape with q <= 4, then 300 cases of the parsimony
    # corpus; the translations' imps are sorted, since only their multiset
    # is part of the construction
    shapes = [
        (q, frozenset(s)) for q in range(1, 5) for r in range(1, q + 1)
        for s in combinations(range(1, q + 1), r)
    ]
    cases = [verify.csp_parsimony_case(i) for i in range(300)]
    graphs = [csp.build_graph_from_csp(*csp.pbrp_csp(q, s)) for q, s in shapes]
    graphs += [h for (_, _, _, h), _ in cases]

    def csp_text(c):
        return repr((c.variables, sorted(c.imps), c.pins))

    digests = {
        "graphs": _digest(files.serialize_graph(g) for g in graphs),
        "digraphs": _digest(repr((dh.vertices, sorted(dh.arcs()))) for _, (*_, dh) in cases),
        "translate_ret": _digest(
            csp_text(csp.translate_ret_to_csp(inst, iv, ie)) for (inst, iv, ie, _), _ in cases
        ),
        "translate_dirret": _digest(
            csp_text(csp.translate_dirret_to_csp(*d[:5])) for _, d in cases
        ),
    }
    assert digests == {
        "graphs": "0a5cf460541d3c2e",
        "digraphs": "f267e5a4b6aeea8b",
        "translate_ret": "80ffb7f2a2d6d325",
        "translate_dirret": "a3389fd52e92e5c1",
    }
