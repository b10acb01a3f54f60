from fractions import Fraction
from itertools import accumulate, combinations, combinations_with_replacement, permutations, product

import hashlib
import math

import pytest
from hypothesis import example, given, settings, strategies as st

from retraction_lab import approx, csp, exact, reference
from retraction_lab._seeds import pyrng
from retraction_lab.fixedgraphs import build_cycle, build_hk, build_path, build_star, build_two_wrench
from retraction_lab.graphs import DiGraph, Graph, _bits
from retraction_lab.instances import Block, BlockedInstance, Coupling, ListedInstance, expand_blocked


K2 = Graph("ab", [("a", "b")])
TW = build_two_wrench()


def test_list_hom_examples():
    assert exact.count_list_hom(ListedInstance.full(K2, K2), K2) == 2
    # ordered adjacent pairs of the 2-wrench: 3 loops + 3 edges twice
    assert exact.count_list_hom(ListedInstance.full(K2, TW), TW) == 9
    single = Graph(["z"])
    assert exact.count_list_hom(ListedInstance.full(single, TW), TW) == 4


def test_retraction_examples():
    # the pinned copy of the target admits only the identity
    copy = Graph(TW.vertices, TW.non_loop_edges())
    pins = {v: frozenset((v,)) for v in TW.vertices}
    inst = ListedInstance(copy, pins, TW.vertices)
    assert exact.count_retraction(inst, TW) == 1

    p3 = build_path(3)
    pinned = ListedInstance(p3, {"c1": frozenset(("b",))}, TW.vertices)
    assert exact.count_retraction(pinned, TW) == 16  # deg(b)^2

    with pytest.raises(ValueError):
        bad = ListedInstance(p3, {"c1": frozenset(("b", "g"))}, TW.vertices)
        exact.count_retraction(bad, TW)
    # an empty list holds neither one nor all of the target vertices
    with pytest.raises(ValueError, match="vertex 'c1' has 0"):
        exact.count_retraction(ListedInstance(p3, {"c1": frozenset()}, TW.vertices), TW)


def test_sur_comp_examples():
    inst = ListedInstance.full(K2, K2)
    assert exact.count_surjective(inst, K2) == 2
    assert exact.count_compaction(inst, K2) == 2
    p3 = ListedInstance.full(build_path(3), K2)
    assert exact.count_surjective(p3, K2) == 2
    assert exact.count_compaction(p3, K2) == 2
    lone = ListedInstance.full(Graph(["z"]), K2)
    assert exact.count_surjective(lone, K2) == 0
    assert exact.count_compaction(lone, K2) == 0


def test_compaction_ie_on_disconnected_target():
    # regression: the alternating sum must range over all non-loop target
    # edges; a looped extra component used to push the sum negative
    h = Graph(["x", "y", "z"], [("x", "y"), ("z", "z")])
    inst = ListedInstance.full(K2, h)
    assert reference.count_compaction_ie(inst, h) == exact.count_compaction(inst, h) == 0
    assert reference.count_surjective_ie(inst, h) == exact.count_surjective(inst, h) == 0


def test_decompose_examples():
    two_k2 = Graph("abcd", [("a", "b"), ("c", "d")])
    assert exact.count_list_hom(ListedInstance.full(two_k2, K2), K2) == 4
    k2_plus_loop = Graph(["x", "y", "z"], [("x", "y"), ("z", "z")])
    inst = ListedInstance.full(K2, k2_plus_loop)
    assert exact.count_list_hom(inst, k2_plus_loop) == 3
    assert reference.count_by_components(inst, k2_plus_loop) == 3
    empty = ListedInstance.full(Graph(), K2)
    assert exact.count_list_hom(empty, K2) == 1


def test_stirling_surjections():
    assert exact.stirling_surjections(3, 2) == 6
    assert exact.stirling_surjections(2, 3) == 0
    assert exact.stirling_surjections(4, 2) == 14
    assert exact.stirling_surjections(0, 0) == 1


def test_stirling_lemma19_window():
    for b in range(2, 11):
        a = math.ceil(2 * b * math.log(b)) + 1
        s = exact.stirling_surjections(a, b)
        assert s <= b**a
        assert Fraction(b**a) * (1 - Fraction(math.exp(-a / (2 * b)))) <= s


def test_blocked_simple_and_roundtrip():
    bi = BlockedInstance((Block("A", 5),), (), (), TW.vertices)
    assert exact.count_blocked(bi, TW) == 4**5
    assert exact.count_list_hom(expand_blocked(bi), TW) == 4**5

    # a J(e)-shaped instance: multi blocks anchored to singletons only
    blocks = (
        Block("u", 1), Block("v", 1), Block("M", 40),
    )
    couplings = (
        Coupling("u", "M", "apex"), Coupling("v", "M", "apex"), Coupling("u", "v", "cb"),
    )
    bi2 = BlockedInstance(blocks, couplings, (("u", "b"),), TW.vertices)
    # u pinned to the center, v ranges over its neighbors, M over common ones
    expected = sum(
        len(TW.neighbors("b") & TW.neighbors(v)) ** 40 for v in TW.neighbors("b")
    )
    assert exact.count_blocked(bi2, TW) == expected


def test_blocked_guard(monkeypatch):
    # coupled multi-blocks whose expansion crosses EXPANSION_GUARD: the guard
    # fires before anything is expanded
    blocks = (Block("A", 6000), Block("B", 6000))
    bi = BlockedInstance(blocks, (Coupling("A", "B", "pm"),), (), TW.vertices)
    monkeypatch.setattr(exact, "expand_blocked", lambda b: pytest.fail("expanded past the guard"))
    with pytest.raises(ValueError, match=r"exceeds the guard \(12000 > 10000\)"):
        exact.count_blocked(bi, TW)


def test_monotonicity_under_list_shrink():
    for i in range(40):
        rng = pyrng("shrink", i)
        n = rng.randint(1, 5)
        vs = [f"g{j}" for j in range(n)]
        edges = [
            (vs[a], vs[b])
            for a in range(n)
            for b in range(a + 1, n)
            if rng.random() < 0.5
        ]
        g = Graph(vs, edges)
        inst = ListedInstance.full(g, TW)
        v = rng.choice(vs)
        drop = rng.choice(sorted(inst.lists[v]))
        shrunk = ListedInstance(
            g, {v: inst.lists[v] - {drop}}, TW.vertices
        )
        for mode in ("lhom", "sur", "comp"):
            assert exact.count(shrunk, TW, mode) <= exact.count(inst, TW, mode)


def test_backtracking_matches_naive_all_modes():
    for i in range(60):
        rng = pyrng("bt-naive", i)
        n_t = rng.randint(1, 4)
        tv = [f"h{j}" for j in range(n_t)]
        tedges = [(a, a) for a in tv if rng.random() < 0.4]
        tedges += [
            (tv[a], tv[b])
            for a in range(n_t)
            for b in range(a + 1, n_t)
            if rng.random() < 0.5
        ]
        target = Graph(tv, tedges)
        n_p = rng.randint(0, 5)
        pv = [f"g{j}" for j in range(n_p)]
        pedges = [
            (pv[a], pv[b])
            for a in range(n_p)
            for b in range(a + 1, n_p)
            if rng.random() < 0.4
        ]
        pattern = Graph(pv, pedges)
        lists = {
            v: frozenset(rng.sample(tv, rng.randint(1, n_t))) for v in pv
        }
        inst = ListedInstance(pattern, lists, target.vertices)
        for mode in ("lhom", "sur", "comp"):
            assert exact.count(inst, target, mode) == reference.naive_count(
                inst, target, mode
            )


@st.composite
def _blocked_instances(draw):
    """Up to four blocks of multiplicity 1-3 (expansion at most 8 vertices)
    into a target on at most 3 vertices with loops; random couplings, lists
    and pins, each pin in its block's list."""
    tv = [f"h{j}" for j in range(draw(st.integers(1, 3)))]
    target = Graph(tv, [e for e in combinations_with_replacement(tv, 2) if draw(st.booleans())])
    mults = draw(st.lists(st.integers(1, 3), min_size=1, max_size=4).filter(lambda ms: sum(ms) <= 8))
    blocks = []
    for i, m in enumerate(mults):
        lst = draw(st.none() | st.frozensets(st.sampled_from(tv), min_size=1))
        blocks.append(Block(f"B{i}", m, lst))
    couplings = []
    for a, b in combinations(blocks, 2):
        kind = draw(st.sampled_from((None, "cb", "pm", "apex")))
        if kind == "pm" and a.multiplicity == b.multiplicity:
            couplings.append(Coupling(a.name, b.name, "pm"))
        elif kind == "apex" and 1 in (a.multiplicity, b.multiplicity):
            apex, other = (a, b) if a.multiplicity == 1 else (b, a)
            couplings.append(Coupling(apex.name, other.name, "apex"))
        elif kind == "cb":
            couplings.append(Coupling(a.name, b.name, "cb"))
    pins = tuple(
        (blk.name, draw(st.sampled_from(tv if blk.list is None else sorted(blk.list))))
        for blk in blocks
        if blk.multiplicity == 1 and draw(st.integers(0, 3)) == 0
    )
    return BlockedInstance(tuple(blocks), tuple(couplings), pins, target.vertices), target


# the path x - y - z with a loop at x
_LOOPED_XYZ = Graph(["x", "y", "z"], [("x", "y"), ("y", "z"), ("x", "x")])


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(_blocked_instances())
@example((  # an uncoupled multi-block next to a coupled one
    BlockedInstance(
        (Block("s", 1), Block("M", 3), Block("N", 2, frozenset("xy"))),
        (Coupling("s", "M", "apex"),), (), _LOOPED_XYZ.vertices,
    ),
    _LOOPED_XYZ,
))
@example((  # a multi-block with a one-value list, anchored to two singletons
    BlockedInstance(
        (Block("s", 1), Block("t", 1), Block("M", 3, frozenset("y"))),
        (Coupling("s", "M", "apex"), Coupling("M", "t", "cb")), (("t", "z"),), _LOOPED_XYZ.vertices,
    ),
    _LOOPED_XYZ,
))
@example((  # coupled multi-blocks: the guarded expansion
    BlockedInstance(
        (Block("s", 1), Block("M", 2), Block("N", 2)),
        (Coupling("M", "N", "pm"), Coupling("s", "N", "apex")), (), _LOOPED_XYZ.vertices,
    ),
    _LOOPED_XYZ,
))
def test_count_blocked_matches_naive(case):
    b, target = case
    assert exact.count_blocked(b, target) == reference.naive_count(expand_blocked(b), target)


def test_blocked_fast_path_random_instances():
    # random anchored-block instances: the multiplicity-exponent evaluation
    # must match counting on the explicit expansion
    from retraction_lab.instances import Block, BlockedInstance, Coupling

    for i in range(40):
        rng = pyrng("blk-rand", i)
        target = TW if rng.random() < 0.5 else Graph(
            "xyz", [("x", "y"), ("y", "z"), ("x", "x")]
        )
        n_single = rng.randint(1, 3)
        n_multi = rng.randint(1, 3)
        blocks = []
        couplings = []
        pins = []
        for s in range(n_single):
            blocks.append(Block(f"s{s}", 1))
            if rng.random() < 0.3:
                pins.append((f"s{s}", rng.choice(target.vertices)))
        for m in range(n_multi):
            k = rng.randint(1, 2)
            lst = None if rng.random() < 0.6 else frozenset(
                rng.sample(target.vertices, rng.randint(1, len(target.vertices)))
            )
            blocks.append(Block(f"m{m}", rng.randint(2, 4), lst))
            for s in range(n_single):
                if rng.random() < 0.6:
                    couplings.append(Coupling(f"s{s}", f"m{m}", "apex"))
        for a in range(n_single):
            for b in range(a + 1, n_single):
                if rng.random() < 0.4:
                    couplings.append(Coupling(f"s{a}", f"s{b}", "cb"))
        bi = BlockedInstance(tuple(blocks), tuple(couplings), tuple(pins), target.vertices)
        assert exact.count_blocked(bi, target) == exact.count_list_hom(
            expand_blocked(bi), target
        )


def test_blocked_fast_path_large_multiplicity():
    # the fast path stays exact when the expansion would be hundreds of
    # vertices (and agrees with it while the guard still allows expanding)
    from retraction_lab.instances import Block, BlockedInstance, Coupling

    blocks = (Block("u", 1), Block("v", 1), Block("M", 400), Block("N", 250))
    couplings = (
        Coupling("u", "M", "apex"), Coupling("v", "M", "apex"),
        Coupling("u", "N", "apex"), Coupling("u", "v", "cb"),
    )
    bi = BlockedInstance(blocks, couplings, (("u", "b"),), TW.vertices)
    assert exact.count_blocked(bi, TW) == exact.count_list_hom(expand_blocked(bi), TW)


def test_blocked_many_components():
    # the sweep merges every state into one at the end of each component, so
    # many components cost no more than one long one
    pairs, lone = 1100, 800
    blocks = tuple(Block(f"s{i}", 1) for i in range(2 * pairs + lone)) + (Block("M", 50),)
    couplings = tuple(Coupling(f"s{i}", f"s{i + 1}", "cb") for i in range(0, 2 * pairs, 2))
    bi = BlockedInstance(blocks, couplings, (), TW.vertices)
    assert exact.count_blocked(bi, TW) == 9**pairs * 4**lone * 4**50
    assert exact.count_list_hom(expand_blocked(bi), TW) == 9**pairs * 4**lone * 4**50


def test_counts_past_the_recursion_limit():
    # counting is one loop over the vertices, so no pattern is too deep for it
    assert exact.count_hom(build_path(1500), TW) == _path_homs(1500, TW)
    # a covering count does not split the pattern into components; the
    # inclusion-exclusion reference does, through its list counts
    edges = ListedInstance.full(Graph([], [(f"a{i}", f"b{i}") for i in range(520)]), TW)
    assert exact.count(edges, TW, "sur") == reference.count_surjective_ie(edges, TW) > 0


def test_listings_past_the_recursion_limit():
    # listing walks stored levels in a loop, so no pattern is too deep for it
    path = build_path(1500)
    hom = next(exact.enumerate_homs(ListedInstance.full(path, TW), TW))
    assert all(TW.has_edge(hom[u], hom[v]) for u, v in path.edges())
    edges = ListedInstance.full(Graph([], [(f"a{i}", f"b{i}") for i in range(520)]), TW)
    image = next(exact._covering(edges, TW, need_edges=False).assignments())
    pv = edges.pattern.vertices
    assert all(TW.has_edge(TW.vertices[image[pv.index(u)]], TW.vertices[image[pv.index(v)]])
               for u, v in edges.pattern.edges())
    assert set(image) == set(range(len(TW.vertices)))


def _padded(listing, keep: int, n: int):
    """The maps of a listing on the pattern induced on vertex mask `keep`, as
    n-tuples with -1 at the vertices outside it."""
    for image in listing:
        out = [-1] * n
        for i, t in zip(_bits(keep), image):
            out[i] = t
        yield tuple(out)


def _listings():
    """Every kernel listing of a seeded corpus, in the kernel's order: list
    instances, covering listings of induced subpatterns with and without
    edges (padded with -1), unweighted witness listings under their cap,
    and digraphs whose patterns and targets have loops."""
    for i in range(250):
        rng = pyrng("enumeration-order", i)
        tv = [f"h{j}" for j in range(rng.randint(1, 4))]
        target = Graph(tv, [e for e in combinations_with_replacement(tv, 2) if rng.random() < 0.5])
        pv = [f"g{j}" for j in range(rng.randint(1, 7))]
        pattern = Graph(pv, [e for e in combinations(pv, 2) if rng.random() < 0.4])
        lists = {v: frozenset(rng.sample(tv, rng.randint(1, len(tv)))) for v in pv}
        listed = ListedInstance(pattern, lists, target.vertices)
        yield exact._search(pattern, lists, target).assignments()
        for need_edges in (False, True):
            for _ in range(3):
                keep = rng.getrandbits(len(pv))
                sub = pattern.induced(pv[i] for i in _bits(keep))
                on_sub = ListedInstance(sub, {v: lists[v] for v in sub.vertices}, target.vertices)
                yield _padded(exact._covering(on_sub, target, need_edges).assignments(), keep, len(pv))
        for mode in ("sur", "comp"):
            yield exact._witness_search(listed, target, mode, weighted=False).assignments()
    for i in range(250):
        rng = pyrng("enumeration-order-digraphs", i)
        tv = [f"h{j}" for j in range(rng.randint(1, 4))]
        target = DiGraph(tv, [e for e in product(tv, repeat=2) if rng.random() < 0.6])
        pv = [f"g{j}" for j in range(rng.randint(1, 6))]
        pattern = DiGraph(pv, [e for e in product(pv, repeat=2) if rng.random() < 0.2])
        lists = {v: frozenset(rng.sample(tv, rng.randint(1, len(tv)))) for v in pv}
        yield exact._search(pattern, lists, target).assignments()


def test_enumeration_order_is_pinned():
    # re-recorded when listings with no coverage goal moved to the walk
    # order of the one level store (the same 10 993 maps, those listings
    # sorted-equal and every covering listing in the same order); the maps
    # of every listing are those of the backtracking lister before the
    # stored levels, as multisets; seeded estimator runs depend on the
    # order of the witnesses
    h = hashlib.sha256()
    maps = 0
    for listing in _listings():
        for image in listing:
            h.update(repr(image).encode())
            maps += 1
        h.update(b"\0")
    assert (maps, h.hexdigest()[:16]) == (10993, "5a1b17c35c92f0d0")


def _naive_images(pattern, lists, target, mode="lhom"):
    """`reference.naive_assignments` that count in `mode`, as sorted tuples of
    target indices."""
    listed = ListedInstance(pattern, lists, target.vertices)
    return sorted(
        tuple(target.index(img[v]) for v in pattern.vertices)
        for img in reference.naive_assignments(listed, target)
        if reference._meets(img, pattern, target, mode)
    )


def test_comp_listing_enters_only_live_children(monkeypatch):
    # comp witnesses on K2 of one edge plus m isolated vertices, named to
    # sort after the edge's ends (z..) or before them (i..): only the edge
    # can realize K2's edge.  The level store computes each state's
    # children once, in one sweep that keeps one level per vertex, and the
    # walk enters only children that complete, whatever the names
    calls = []
    sweep = exact._Search._sweep

    def record(search, kids=None):
        calls.append(kids)
        return sweep(search, kids)

    monkeypatch.setattr(exact._Search, "_sweep", record)
    k2 = Graph("ab", [("a", "b")])
    for m in (24, 70):
        for name in ("z", "i"):
            calls.clear()
            g = Graph(["x", "y"] + [f"{name}{i:02d}" for i in range(m)], [("x", "y")])
            inst = ListedInstance.full(g, k2)
            ts = approx.enumerate_T(inst, k2, "comp")
            [kids] = calls
            assert kids is not None and len(kids) == m + 2, (m, name)
            # U holds x and y, mapped to a and b either way, and up to two others
            t = 2 * (1 + 2 * m + 4 * math.comb(m, 2))
            assert len(ts) == t == approx.count_witnesses(inst, k2, "comp"), (m, name)


def test_listing_levels_keep_no_state_short_of_room():
    # as in `count`, each vertex left covers at most one more goal vertex:
    # no state stored before step i may have more goal vertices uncovered
    # than the n - i vertices still to assign.  The t search's level sizes
    # are pinned: without that limit P3 -> P3 sur stored 24 states
    for g, sizes in ((K2, [1, 2]), (build_path(3), [1, 3, 4])):
        for mode in ("sur", "comp"):
            inst = ListedInstance.full(g, g)
            levels = exact._Levels(exact._witness_search(inst, g, mode, weighted=False))
            assert [len(level) for level in levels.kids] == sizes, (g.vertices, mode)
            assert approx.enumerate_T(inst, g, mode), (g.vertices, mode)


def test_enumeration_leaf_steps_match_naive():
    # the last vertex's values complete maps in place: no vertex (one empty
    # map), one vertex, a second-to-last vertex whose every value empties
    # the last one's domain, covering maps that miss the goal only at the
    # last vertex, and a digraph
    tri, k3 = build_cycle(3), Graph("xyz", [("x", "y"), ("y", "z"), ("x", "z")])
    refl_p3 = Graph("012", [("0", "1"), ("1", "2"), ("0", "0"), ("1", "1"), ("2", "2")])
    two = Graph("uv")
    cases = [
        (Graph(), {}, K2, "lhom"),
        (Graph(), {}, K2, "sur"),
        (Graph(), {}, Graph(), "comp"),
        (Graph(["z"]), {"z": frozenset("bg")}, TW, "lhom"),
        (Graph(["z"]), {"z": frozenset("bg")}, TW, "sur"),
        (Graph(["z"]), {"z": frozenset("a")}, Graph("a"), "sur"),
        (tri, {v: frozenset("ab") for v in tri.vertices}, K2, "lhom"),
        (tri, {v: frozenset("xyz") for v in tri.vertices}, k3, "sur"),
    ]
    # u -> a, then v -> a covers no b; with d -> 2 every vertex is covered
    # but not the edge 1-2: one of the two maps of each misses the goal at
    # its last vertex
    misses = [
        (two, {"u": frozenset("a"), "v": frozenset("ab")}, K2, "sur"),
        (
            Graph("abcd", [("a", "b"), ("c", "d")]),
            {"a": frozenset("0"), "b": frozenset("1"), "c": frozenset("2"), "d": frozenset("12")},
            refl_p3,
            "comp",
        ),
    ]
    for pattern, lists, target, mode in misses:
        assert len(_naive_images(pattern, lists, target)) == 2
        assert len(_naive_images(pattern, lists, target, mode)) == 1
    for pattern, lists, target, mode in cases + misses:
        listed = ListedInstance(pattern, lists, target.vertices)
        if mode == "lhom":
            search = exact._search(pattern, lists, target)
        else:
            search = exact._covering(listed, target, need_edges=mode == "comp")
        got = list(search.assignments())
        assert sorted(got) == _naive_images(pattern, lists, target, mode), (pattern, mode)
        assert len(got) == search.count()
    # a digraph with loops: a 3-cycle of arcs, a looped vertex on it, into a
    # digraph with one loop
    pattern = DiGraph("abc", [("a", "b"), ("b", "c"), ("c", "a"), ("c", "c")])
    target = DiGraph("xyz", [("x", "y"), ("y", "z"), ("z", "x"), ("y", "x"), ("z", "z"), ("x", "z")])
    lists = {v: frozenset(target.vertices) for v in pattern.vertices}
    naive = sorted(
        tuple(target.index(t) for t in img)
        for img in product(target.vertices, repeat=3)
        if all(target.has_arc(img[pattern.index(u)], img[pattern.index(v)]) for u, v in pattern.arcs())
    )
    assert sorted(exact._search(pattern, lists, target).assignments()) == naive != []


def test_listing_matches_naive_on_digraphs_and_covering_goals():
    # `assignments` spreads its own per-vertex neighbor table: digraphs with
    # loops and 2-cycles (out- and in-spreads differ), and sur and comp goals
    for i in range(120):
        rng = pyrng("listing-digraphs", i)
        tv = [f"h{j}" for j in range(rng.randint(1, 4))]
        target = DiGraph(tv, [e for e in product(tv, repeat=2) if rng.random() < 0.6])
        pv = [f"g{j}" for j in range(rng.randint(1, 6))]
        pattern = DiGraph(pv, [e for e in product(pv, repeat=2) if rng.random() < 0.25])
        lists = {v: frozenset(rng.sample(tv, rng.randint(1, len(tv)))) for v in pv}
        got = list(exact._search(pattern, lists, target).assignments())
        assert len(set(got)) == len(got) == reference.naive_count_digraph(pattern, lists, target), i
        for image in got:
            assert all(tv[t] in lists[v] for v, t in zip(pv, image))
            assert all(target.has_arc(tv[image[pattern.index(u)]], tv[image[pattern.index(v)]])
                       for u, v in pattern.arcs())
    for i in range(120):
        rng = pyrng("listing-covering", i)
        tv = [f"h{j}" for j in range(rng.randint(1, 4))]
        target = Graph(tv, [e for e in combinations_with_replacement(tv, 2) if rng.random() < 0.5])
        pv = [f"g{j}" for j in range(rng.randint(1, 7))]
        pattern = Graph(pv, [e for e in combinations(pv, 2) if rng.random() < 0.4])
        lists = {v: frozenset(rng.sample(tv, rng.randint(1, len(tv)))) for v in pv}
        listed = ListedInstance(pattern, lists, tv)
        for mode in ("sur", "comp"):
            search = exact._covering(listed, target, need_edges=mode == "comp")
            assert sorted(search.assignments()) == _naive_images(pattern, lists, target, mode), (i, mode)


def _covering_counts(listed, target, listing=True):
    """sur and comp, then per mode t, Omega and (with `listing`) the number
    of witnesses `enumerate_T` lists."""
    out = [exact.count_surjective(listed, target), exact.count_compaction(listed, target)]
    for mode in ("sur", "comp"):
        out.append(approx.count_witnesses(listed, target, mode))
        out.append(approx.count_witness_extensions(listed, target, mode))
        if listing:
            out.append(len(approx.enumerate_T(listed, target, mode)))
    return out


def test_covering_counts_are_pinned():
    # recorded before the covering state kept the front's values in the
    # packed int: seeded list instances, then comp counts whose front stays
    # wide (a 3 x 5 grid) or long-lived (P40) into the 2-wrench
    h = hashlib.sha256()
    for i in range(1000):
        rng = pyrng("covering-counts", i)
        tv = [f"h{j}" for j in range(rng.randint(1, 4))]
        target = Graph(tv, [e for e in combinations_with_replacement(tv, 2) if rng.random() < 0.5])
        pv = [f"g{j}" for j in range(rng.randint(1, 7))]
        pattern = Graph(pv, [e for e in combinations(pv, 2) if rng.random() < 0.4])
        lists = {v: frozenset(rng.sample(tv, rng.randint(1, len(tv)))) for v in pv}
        h.update(repr(_covering_counts(ListedInstance(pattern, lists, target.vertices), target)).encode())
    cells = [(r, c) for r in range(3) for c in range(5)]
    grid = Graph([], [(f"x{r}{c}", f"x{r + dr}{c + dc}") for r, c in cells for dr, dc in ((0, 1), (1, 0))
                      if r + dr < 3 and c + dc < 5])
    for pattern in (grid, build_path(40)):
        h.update(repr(_covering_counts(ListedInstance.full(pattern, TW), TW, listing=False)).encode())
    assert h.hexdigest()[:16] == "6e2d006b8af18697"


def test_every_cap_counts_what_the_listing_lists():
    # a cap below the goal's size admits no map: P6 onto the 2-wrench with
    # at most 2 of its 4 vertices covered
    p6 = ListedInstance.full(build_path(6), TW)
    for outside in ("blank", "valued"):
        search = exact._search(p6.pattern, p6.lists, TW).cover(15, top=2, outside=outside)
        assert search.count() == sum(1 for _ in search.assignments()) == 0, outside
    assert exact._search(p6.pattern, p6.lists, TW).cover(15, top=2).count() == 0
    # every cap from 0 to n on seeded instances, against the listing and,
    # with no vertex outside, against the naive sur and comp counts
    for i in range(150):
        rng = pyrng("cover-caps", i)
        tv = [f"h{j}" for j in range(rng.randint(1, 4))]
        target = Graph(tv, [e for e in combinations_with_replacement(tv, 2) if rng.random() < 0.5])
        pv = [f"g{j}" for j in range(rng.randint(0, 6))]
        pattern = Graph(pv, [e for e in combinations(pv, 2) if rng.random() < 0.4])
        lists = {v: frozenset(rng.sample(tv, rng.randint(1, len(tv)))) for v in pv}
        full = (1 << len(tv)) - 1
        for edges, mode in ((False, "sur"), (True, "comp")):
            naive = len(_naive_images(pattern, lists, target, mode))
            for outside in (None, "blank", "valued"):
                for top in range(len(pv) + 1):
                    search = exact._search(pattern, lists, target).cover(full, edges, top, outside)
                    got = search.count()
                    assert got == sum(1 for _ in search.assignments()), (i, mode, outside, top)
                    if outside is None:
                        assert got == (naive if len(pv) <= top else 0), (i, mode, top)


def test_cover_refuses_a_digraph_kernel():
    arc = DiGraph("ab", [("a", "b")])
    search = exact._search(arc, {v: frozenset("ab") for v in "ab"}, arc)
    with pytest.raises(ValueError, match="undirected"):
        search.cover(3)


def test_cover_refuses_a_kernel_that_has_a_goal():
    # a goal is set whole: re-covering a witness search with a new cap would
    # drop its `outside` half
    p6 = ListedInstance.full(build_path(6), TW)
    for search in (exact._covering(p6, TW, need_edges=False), exact._witness_search(p6, TW, "sur", False)):
        with pytest.raises(ValueError, match="already has a coverage goal"):
            search.cover(search.full_v, top=2)


def test_large_patterns_with_a_shallow_search_still_count():
    # a star's leaves are peeled after its centre, one level deep (1 100
    # disjoint edges count one component at a time: test_blocked_many_components)
    star = Graph([], [("c", f"l{i}") for i in range(2000)])
    assert exact.count_hom(star, TW) == 4**2000 + 2 * 2**2000 + 1


def test_degenerate_instances():
    # an empty list forces zero in every mode
    inst = ListedInstance(K2, {"a": frozenset()}, K2.vertices)
    for mode in ("lhom", "sur", "comp"):
        assert exact.count(inst, K2, mode) == 0
    # empty target: no images for a non-empty pattern, one empty map otherwise
    empty_t = Graph()
    assert exact.count_list_hom(ListedInstance(K2, {}, ()), empty_t) == 0
    assert exact.count_list_hom(ListedInstance(Graph(), {}, ()), empty_t) == 1
    assert exact.count_surjective(ListedInstance(Graph(), {}, ()), empty_t) == 1


# -- the memoised counter --------------------------------------------------


@st.composite
def _small_instances(draw):
    """A pattern on at most 6 vertices, a target on at most 4 with loops
    allowed, random non-empty lists, and retraction-shaped lists."""
    tv = [f"h{j}" for j in range(draw(st.integers(1, 4)))]
    target = Graph(tv, [e for e in combinations_with_replacement(tv, 2) if draw(st.booleans())])
    pv = [f"g{j}" for j in range(draw(st.integers(0, 6)))]
    pattern = Graph(pv, [e for e in combinations(pv, 2) if draw(st.booleans())])
    lists = {v: frozenset(draw(st.sets(st.sampled_from(tv), min_size=1))) for v in pv}
    pins = {v: frozenset((draw(st.sampled_from(tv)),)) for v in pv if draw(st.booleans())}
    return pattern, target, lists, pins


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(_small_instances())
def test_memoised_counter_matches_naive_all_modes(case):
    pattern, target, lists, pins = case
    listed = ListedInstance(pattern, lists, target.vertices)
    full = ListedInstance.full(pattern, target)
    pinned = ListedInstance(pattern, pins, target.vertices)
    for mode, inst in (
        ("hom", full), ("lhom", listed), ("ret", pinned), ("sur", listed), ("comp", listed),
    ):
        assert exact.count(inst, target, mode) == reference.naive_count(inst, target, mode), mode
    # the covering kernel enumerates what it counts, each map once, and each
    # is a covering homomorphism by the naive check
    tv = target.vertices
    for mode in ("sur", "comp"):
        images = list(exact._covering(listed, target, need_edges=mode == "comp").assignments())
        assert len(set(images)) == len(images) == exact.count(listed, target, mode), mode
        for image in images:
            lists = {v: frozenset((tv[t],)) for v, t in zip(pattern.vertices, image)}
            assert reference.naive_count(ListedInstance(pattern, lists, tv), target, mode) == 1, mode


# Target sizes k whose state fields (k + 1 bits each) sit on either side of
# 8, 16 and 64 bits, and the one-vertex target, whose fields are 2 bits.
_FIELD_SIZES = (1, 7, 8, 9, 15, 16, 17, 63, 64, 65)


def _boundary_targets(directed: bool):
    """(k, loops, target vertices, palette, arcs or edges) per size in
    _FIELD_SIZES, with and without loops.  Vertices are named in index order,
    and the palette of at most 4 vertices holds the highest-index one; pairs
    in the palette are joined often, the other pairs rarely, and with
    `loops` the palette vertices and a few others are looped."""
    for k in _FIELD_SIZES:
        for loops in (False, True):
            rng = pyrng("field-boundary", directed, k, loops)
            tv = [f"h{j:02d}" for j in range(k)]
            palette = sorted({tv[-1], tv[0], *rng.sample(tv, min(k, 2))})
            pairs = list(permutations(tv, 2) if directed else combinations(tv, 2))
            arcs = [e for e in pairs if rng.random() < (0.7 if set(e) <= set(palette) else 0.05)]
            if loops:
                arcs += [(h, h) for h in tv if rng.random() < (0.7 if h in palette else 0.1)]
            yield k, loops, tv, palette, arcs


def _boundary_lists(rng, pv, tv, palette):
    """Lists of 1 to 3 palette values, each holding the highest-index vertex."""
    return {v: frozenset((tv[-1], *rng.sample(palette, rng.randint(0, min(2, len(palette)))))) for v in pv}


def test_packed_fields_at_word_boundaries_match_naive():
    for k, loops, tv, palette, edges in _boundary_targets(directed=False):
        target = Graph(tv, edges)
        rng = pyrng("field-boundary-patterns", k, loops)
        for _ in range(8):
            pv = [f"g{i}" for i in range(rng.randint(1, 4))]
            pattern = Graph(pv, [e for e in combinations(pv, 2) if rng.random() < 0.6])
            listed = ListedInstance(pattern, _boundary_lists(rng, pv, tv, palette), target.vertices)
            # one-or-all lists: a full list on at most one vertex
            free = rng.choice(pv)
            pins = {v: frozenset((tv[-1] if rng.random() < 0.5 else rng.choice(palette),)) for v in pv}
            pins[free] = frozenset(tv)
            pinned = ListedInstance(pattern, pins, target.vertices)
            for mode, inst in (
                ("hom", listed), ("lhom", listed), ("ret", pinned), ("sur", listed), ("comp", listed),
            ):
                assert exact.count(inst, target, mode) == reference.naive_count(inst, target, mode), (
                    k, loops, mode,
                )
            # a covering goal the pattern can reach: the highest palette
            # vertices, at most one per pattern vertex
            goal = sum(1 << target.index(h) for h in palette[-len(pv):])
            search = exact._search(pattern, listed.lists, target).cover(goal)
            want = sum(
                1
                for img in reference.naive_assignments(listed, target)
                if all(goal >> target.index(h) & 1 == 0 or h in img.values() for h in tv)
            )
            assert search.count() == want, (k, loops, "cover")


def test_packed_fields_at_word_boundaries_match_naive_digraphs():
    for k, loops, tv, palette, arcs in _boundary_targets(directed=True):
        target = DiGraph(tv, arcs)
        rng = pyrng("field-boundary-digraphs", k, loops)
        for _ in range(8):
            pv = [f"g{i}" for i in range(rng.randint(1, 4))]
            parcs = [(u, v) for u, v in permutations(pv, 2) if rng.random() < 0.4]
            u, v = rng.sample(pv, 2) if len(pv) > 1 else (pv[0], pv[0])
            parcs += [(u, v), (v, u)]  # a 2-cycle, or a loop on a 1-vertex pattern
            parcs += [(w, w) for w in pv if rng.random() < 0.3]
            pattern = DiGraph(pv, parcs)
            lists = _boundary_lists(rng, pv, tv, palette)
            assert csp.count_dir_list_hom(pattern, lists, target) == reference.naive_count_digraph(
                pattern, lists, target
            ), (k, loops)


# -- draw tables -------------------------------------------------------------


def _check_tables(inst, target, rng, draws=3):
    """Draws from the draw tables of (inst, target), checking each prefix
    sum list a draw reads, in the walk order, against count_list_hom of the
    instance with the vertices drawn before pinned and the list's vertex
    pinned to each of its values; returns how many zero counts the lists
    held and the largest count."""
    search = exact._search(inst.pattern, inst.lists, target)
    tables = exact._Levels(search, inst.pattern.vertices, target.vertices)
    assert tables.total == exact.count_list_hom(inst, target)
    if math.prod(map(len, inst.lists.values())) <= 10**4:
        assert tables.total == reference.naive_count(inst, target)
    if not tables.total:
        return 0, 0
    multi = [v for v in exact._walk_order(inst, target) if len(inst.lists[v]) > 1]
    zeros = largest = 0
    for _ in range(draws):
        seen = []
        tau = tables.draw(rng, lambda acc: seen.append(acc) or acc)
        assert len(seen) == len(multi)
        pinned = inst
        for v, acc in zip(multi, seen):
            counts = [exact.count_list_hom(pinned.pin(v, t), target) for t in sorted(inst.lists[v])]
            assert acc == list(accumulate(counts)), v
            zeros += counts.count(0)
            largest = max(largest, *counts)
            pinned = pinned.pin(v, tau[v])
        assert exact.count_list_hom(pinned, target) == 1
    return zeros, largest


def test_split_counts_match_per_pin_counts():
    # every prefix sum list a draw reads splits the count over the drawn
    # vertex's values: random patterns and lists, some values of zero count,
    # some singleton lists
    tw, h1 = TW, build_hk(1)
    rng = pyrng("tables-random")
    zeros = singles = 0
    for i in range(120):
        target = (tw, h1)[i % 2]
        tv = target.vertices
        pv = [f"g{j}" for j in range(rng.randint(1, 6))]
        pattern = Graph(pv, [e for e in combinations(pv, 2) if rng.random() < 0.4])
        lists = {v: frozenset(rng.sample(tv, rng.randint(1, 3))) for v in pv}
        zeros += _check_tables(ListedInstance(pattern, lists, tv), target, rng)[0]
        singles += sum(len(s) == 1 for s in lists.values())
    assert zeros > 0 and singles > 0
    # an isolated vertex, peeled at its own step
    iso = Graph(["a", "b", "c"], [("a", "b")])
    _check_tables(ListedInstance(iso, {"a": frozenset(("r1", "b"))}, tw.vertices), tw, rng)
    # two multi-valued vertices peeled as the lone neighbours of a pinned one
    star = Graph(["a", "b", "c"], [("a", "b"), ("a", "c")])
    inst = ListedInstance(star, {"a": frozenset(("r1",)), "c": frozenset(("b", "g"))}, tw.vertices)
    assert exact._walk_order(inst, tw) == ["a", "b", "c"]
    assert _check_tables(inst, tw, rng)[0] > 0
    # targets of 1 to 65 vertices, fields on either side of 8, 16 and 64 bits
    for k, loops, tv, palette, edges in _boundary_targets(directed=False):
        target = Graph(tv, edges)
        rng = pyrng("tables-boundary", k, loops)
        for _ in range(4):
            pv = [f"g{i}" for i in range(rng.randint(1, 4))]
            pattern = Graph(pv, [e for e in combinations(pv, 2) if rng.random() < 0.6])
            _check_tables(ListedInstance(pattern, _boundary_lists(rng, pv, tv, palette), tv), target, rng)


def test_split_counts_above_64_bits():
    # hom(P40 -> H_1) pinned along a draw; before any pin, vertex i at t has
    # the number of walks of length i ending at t times the number of length
    # 39 - i starting there
    h1 = build_hk(1)
    n, k = 40, len(h1.vertices)
    adj = [[1 if h1.has_edge(a, b) else 0 for b in h1.vertices] for a in h1.vertices]
    walks = [[1] * k]
    for _ in range(n - 1):
        walks.append([sum(walks[-1][a] * adj[a][b] for a in range(k)) for b in range(k)])
    inst = ListedInstance.full(build_path(n), h1)
    assert _check_tables(inst, h1, pyrng("tables-wide"), draws=1)[1] > 2**64
    search = exact._search(inst.pattern, inst.lists, h1)
    tables = exact._Levels(search, inst.pattern.vertices, h1.vertices)
    seen = []
    tables.draw(pyrng("tables-wide"), lambda acc: seen.append(acc) or acc)
    first = exact._walk_order(inst, h1)[0]
    i = int(first[1:])
    want = [walks[i][h1.vertices.index(t)] * walks[n - 1 - i][h1.vertices.index(t)] for t in sorted(inst.lists[first])]
    assert seen[0] == list(accumulate(want)) and max(want) > 2**64


def test_level_store_total_is_the_count():
    # the store's backward pass against `count`'s own sweep on random
    # patterns and lists: plain graph and digraph kernels, covering kernels
    # with and without edges on random goals, and witness goals whose
    # vertices outside U stay blank or take a value, with no cap, a cap
    # that cannot bind and one that can
    zero = positive = binding = 0
    for i in range(150):
        rng = pyrng("level-store-total", i)
        tv = [f"h{j}" for j in range(rng.randint(1, 4))]
        target = Graph(tv, [e for e in combinations_with_replacement(tv, 2) if rng.random() < 0.5])
        pv = [f"g{j}" for j in range(rng.randint(0, 6))]
        pattern = Graph(pv, [e for e in combinations(pv, 2) if rng.random() < 0.4])
        lists = {v: frozenset(rng.sample(tv, rng.randint(1, len(tv)))) for v in pv}
        dtarget = DiGraph(tv, [e for e in product(tv, repeat=2) if rng.random() < 0.6])
        dpattern = DiGraph(pv, [e for e in product(pv, repeat=2) if rng.random() < 0.2])
        kernels = [(exact._search(pattern, lists, target), None), (exact._search(dpattern, lists, dtarget), None)]
        for edges in (False, True):
            goal = rng.getrandbits(len(tv))
            kernels.append((exact._search(pattern, lists, target).cover(goal, edges), None))
            for outside in ("blank", "valued"):
                uncapped = exact._search(pattern, lists, target).cover(goal, edges, None, outside)
                kernels.append((uncapped, None))
                for top in (len(pv), rng.randint(0, len(pv))):
                    kernels.append((exact._search(pattern, lists, target).cover(goal, edges, top, outside), uncapped))
        for search, uncapped in kernels:
            total = search.count()
            assert exact._Levels(search).total == total, (i, search.full_v, search.top, search.outside)
            zero += not total
            positive += total > 0
            binding += uncapped is not None and total < uncapped.count()
    assert zero > 100 and positive > 1000 and binding > 50, (zero, positive, binding)
    # no weights; draws need a kernel with no coverage goal
    weighted = exact._Search([0, 0], [0, 0], [3, 3], [3, 3], [3, 3], [2, 1])
    with pytest.raises(ValueError, match="no weights"):
        exact._Levels(weighted)
    covering = exact._covering(ListedInstance.full(build_path(3), K2), K2, need_edges=False)
    levels = exact._Levels(covering, build_path(3).vertices, K2.vertices)
    assert levels.total == covering.count() > 0
    with pytest.raises(ValueError, match="no coverage goal"):
        levels.draw(pyrng("covering-draw"))


def test_blocked_weighted_peel_on_a_wide_target():
    # the multi-blocks are peeled, each contributing |domain|^multiplicity,
    # from the fields of a 9-vertex target (H_1) and of a 17-vertex one
    for target in (build_hk(1), Graph([f"h{j:02d}" for j in range(17)], [
        (f"h{i:02d}", f"h{j:02d}") for i, j in combinations(range(17), 2) if (i * j + i + j) % 3 == 0
    ])):
        tv = target.vertices
        rng = pyrng("field-boundary-blocked", len(tv))
        for _ in range(10):
            top = tv[-1]
            lists = [frozenset((top, *rng.sample(tv, 2))) for _ in range(4)]
            blocks = (
                Block("u", 1, lists[0]), Block("v", 1, lists[1]),
                Block("M", rng.randint(2, 3), lists[2]), Block("N", 2, lists[3]),
            )
            couplings = (
                Coupling("u", "M", "apex"), Coupling("v", "M", "apex"),
                Coupling("u", "v", "cb"), Coupling("v", "N", "apex"),
            )
            bi = BlockedInstance(blocks, couplings, (), tv)
            want = reference.naive_count(expand_blocked(bi), target)
            assert exact.count_blocked(bi, target) == want


def test_fields_keyed_by_pattern_index_match_naive():
    # field v holds pattern vertex v's domain whatever v's place in the
    # order: a path and a 2 x 3 grid under scrambled vertex names, and a star
    # whose centre has the highest index, are each swept far from index order
    rng = pyrng("far-from-index-order")
    names = [f"n{j}" for j in rng.sample(range(100), 7)]
    g = names[:6]
    patterns = (
        Graph(names, zip(names, names[1:])),
        Graph(g, [(g[i], g[i + 1]) for i in (0, 1, 3, 4)] + [(g[i], g[i + 3]) for i in range(3)]),
        Graph([], [(f"a{i}", "z") for i in range(6)]),
    )
    for target in (TW, build_cycle(5)):
        tv = target.vertices
        for pattern in patterns:
            pv = pattern.vertices
            full = ListedInstance.full(pattern, target)
            order = exact._search(pattern, full.lists, target)._order()
            assert order != sorted(order), pattern
            assert exact.count(full, target, "hom") == reference.naive_count(full, target, "hom"), pattern
            for _ in range(3):
                lists = {v: frozenset(rng.sample(tv, rng.choice((1, 2, len(tv))))) for v in pv}
                listed = ListedInstance(pattern, lists, tv)
                # the free vertex, lowest in index, goes after the pinned ones
                pins = {v: frozenset((rng.choice(tv),)) for v in pv[1:]}
                pinned = ListedInstance(pattern, pins, tv)
                for mode, inst in (("lhom", listed), ("ret", pinned), ("sur", listed), ("comp", listed)):
                    assert exact.count(inst, target, mode) == reference.naive_count(inst, target, mode), (
                        pattern, mode,
                    )
    # a digraph with 2-cycles under scrambled names, into a looped digraph
    names = [f"d{j}" for j in rng.sample(range(100), 6)]
    arcs = [(names[i], names[i + 1]) for i in range(5)] + [(names[3], names[1]), (names[5], names[2])]
    arcs += [(names[2], names[0]), (names[0], names[2]), (names[5], names[4])]
    pattern = DiGraph(names, arcs)
    target = DiGraph("abcd", [
        ("a", "b"), ("b", "a"), ("b", "c"), ("c", "b"), ("c", "d"),
        ("d", "a"), ("a", "c"), ("b", "d"), ("c", "c"), ("d", "d"),
    ])
    full = {v: frozenset("abcd") for v in names}
    order = exact._search(pattern, full, target)._order()
    assert order != sorted(order)
    for lists in [full] + [
        {v: frozenset(rng.sample("abcd", rng.randint(1, 4))) for v in names} for _ in range(6)
    ]:
        assert csp.count_dir_list_hom(pattern, lists, target) == reference.naive_count_digraph(
            pattern, lists, target
        )


def _adjacency(h: Graph) -> list[list[int]]:
    return [[int(h.has_edge(u, v)) for v in h.vertices] for u in h.vertices]


def _path_homs(n: int, h: Graph) -> int:
    """hom(P_n, H) = 1' A^(n-1) 1, by plain-integer vector products."""
    a = _adjacency(h)
    vec = [1] * len(a)
    for _ in range(n - 1):
        vec = [sum(x * y for x, y in zip(row, vec)) for row in a]
    return sum(vec)


def _cycle_homs(n: int, h: Graph) -> int:
    """hom(C_n, H) = trace(A^n)."""
    a = _adjacency(h)
    total = 0
    for s in range(len(a)):
        vec = [int(i == s) for i in range(len(a))]
        for _ in range(n):
            vec = [sum(x * y for x, y in zip(row, vec)) for row in a]
        total += vec[s]
    return total


def _ladder_homs(k: int, h: Graph) -> int:
    """hom of the 2 x k grid by the row transfer: a column is an adjacent
    pair (a, b), and consecutive columns need A[a][a'] and A[b][b']."""
    a = _adjacency(h)
    cols = [(x, y) for x in range(len(a)) for y in range(len(a)) if a[x][y]]
    vec = {c: 1 for c in cols}
    for _ in range(k - 1):
        vec = {
            (x, y): sum(w for (px, py), w in vec.items() if a[px][x] and a[py][y])
            for x, y in cols
        }
    return sum(vec.values())


def _ladder(k: int) -> Graph:
    # unpadded names, so the sorted vertex order is not the grid order
    name = lambda r, c: f"v{r}_{c}"  # noqa: E731
    edges = [(name(r, c), name(r, c + 1)) for r in range(2) for c in range(k - 1)]
    edges += [(name(0, c), name(1, c)) for c in range(k)]
    return Graph([], edges)


@pytest.mark.parametrize("target", [build_hk(1), TW], ids=["H1", "2-wrench"])
def test_memoised_counter_long_paths_cycles_and_ladders(target):
    assert exact.count_hom(build_path(40), target) == _path_homs(40, target)
    assert exact.count_hom(build_cycle(40), target) == _cycle_homs(40, target)
    for k in (2, 5, 12, 20):
        assert exact.count_hom(_ladder(k), target) == _ladder_homs(k, target), k


@pytest.mark.parametrize(
    "target", [TW, build_path(3), build_cycle(4)], ids=["2-wrench", "P3", "C4"]
)
@pytest.mark.parametrize(
    "pattern", [build_path(8), build_cycle(8), _ladder(4)], ids=["P8", "C8", "2x4"]
)
def test_covering_counts_match_inclusion_exclusion(pattern, target):
    # in C4 two vertices share a neighborhood, so the domains and the covered
    # sets alone do not tell apart which of them an assigned vertex took
    inst = ListedInstance.full(pattern, target)
    assert exact.count_surjective(inst, target) == reference.count_surjective_ie(inst, target)
    assert exact.count_compaction(inst, target) == reference.count_compaction_ie(inst, target)


def test_reference_routes_refuse_past_their_bounds(monkeypatch):
    """Each route that `retraction-lab count` offers refuses one step past
    its bound, naming the size, before it starts; at the bound it runs."""
    many = Graph([f"t{i:04d}" for i in range(9901)])
    # 101 * 9901 = 10^6 + 1 assignments of two isolated vertices
    two = ListedInstance(Graph(["u", "w"]), {"u": frozenset(many.vertices[:101])}, many.vertices)
    with pytest.raises(ValueError, match="assignments to enumerate: 1000001 is past the bound of 1000000"):
        reference.naive_count(two, many)
    # 2^17 terms: 17 target vertices (sur), 16 vertices and one edge (comp)
    wide = Graph([f"t{i:02d}" for i in range(17)])
    edged = Graph([f"t{i:02d}" for i in range(16)], [("t00", "t01")])
    with pytest.raises(ValueError, match="inclusion-exclusion terms: 131072 is past the bound of 65536"):
        reference.count_surjective_ie(ListedInstance.full(K2, wide), wide)
    with pytest.raises(ValueError, match="inclusion-exclusion terms: 131072 is past the bound of 65536"):
        reference.count_compaction_ie(ListedInstance.full(K2, edged), edged)
    # P3 -> K2: 8 assignments; 4 sur terms, 8 comp terms
    inst = ListedInstance.full(build_path(3), K2)
    monkeypatch.setattr(reference, "NAIVE_ASSIGNMENT_BOUND", 8)
    assert reference.naive_count(inst, K2, "sur") == exact.count(inst, K2, "sur") == 2
    monkeypatch.setattr(reference, "NAIVE_ASSIGNMENT_BOUND", 7)
    with pytest.raises(ValueError, match="8 is past the bound of 7"):
        reference.naive_count(inst, K2, "sur")
    monkeypatch.setattr(reference, "IE_TERM_BOUND", 8)
    assert reference.count_compaction_ie(inst, K2) == exact.count_compaction(inst, K2) == 2
    monkeypatch.setattr(reference, "IE_TERM_BOUND", 4)
    assert reference.count_surjective_ie(inst, K2) == 2
    with pytest.raises(ValueError, match="8 is past the bound of 4"):
        reference.count_compaction_ie(inst, K2)
    monkeypatch.setattr(reference, "IE_TERM_BOUND", 3)
    with pytest.raises(ValueError, match="4 is past the bound of 3"):
        reference.count_surjective_ie(inst, K2)


def _plain_order(search) -> list[list[int]]:
    """`_Search._order` written as a plain `min` over every candidate."""
    adj = search.adj
    runs = []
    unseen = (1 << len(adj)) - 1
    while unseen:
        comp = frontier = unseen & -unseen
        while frontier:
            nxt = 0
            for u in _bits(frontier):
                nxt |= adj[u]
            frontier = nxt & ~comp
            comp |= frontier
        unseen &= ~comp
        order = [v for v in _bits(comp) if search.domains[v].bit_count() == 1]
        left = comp & ~search.heavy
        reach = 0
        for v in order:
            left &= ~(1 << v)
            reach |= adj[v]
        while left:
            v = min(
                _bits(reach & left or left),
                key=lambda v: ((reach | adj[v]) & left & ~(1 << v)).bit_count(),
            )
            order.append(v)
            left &= ~(1 << v)
            reach |= adj[v]
        order.extend(_bits(comp & search.heavy))
        runs.append(order)
    return runs


@st.composite
def _order_cases(draw):
    """Random graphs on up to 14 vertices with domains of 1-3 values and a
    few weights > 1."""
    n = draw(st.integers(0, 14))
    adj = [0] * n
    for i, j in combinations(range(n), 2):
        if draw(st.integers(0, 3)) == 0:
            adj[i] |= 1 << j
            adj[j] |= 1 << i
    doms = [draw(st.integers(1, 7)) for _ in range(n)]
    weights = [draw(st.sampled_from((1, 1, 1, 2))) for _ in range(n)]
    return adj, doms, weights


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_order_cases())
def test_order_matches_the_plain_min(case):
    adj, doms, weights = case
    tadj = [0b111, 0b111, 0b111]
    search = exact._Search(adj, adj, doms, tadj, tadj, weights)
    assert search._order() == [v for run in _plain_order(search) for v in run]


def _step_plans():
    """Seeded kernels, each with its listed instance and target when it has
    an undirected one: patterns of one or more components with random lists
    and single-value vertices, digraphs with loops, Imp-CSP instances, block
    graphs whose multi-blocks (heavy vertices) couple only to anchors, and
    the empty pattern."""
    h1 = build_hk(1)
    for i in range(150):
        rng = pyrng("step-plan", i)
        target = (TW, h1)[i % 2]
        tv = target.vertices
        pv = [f"g{j}" for j in range(rng.randint(1, 10))]
        p = rng.choice((0.15, 0.35, 0.6))
        pattern = Graph(pv, [e for e in combinations(pv, 2) if rng.random() < p])
        lists = {v: frozenset(rng.sample(tv, rng.choice((1, 1, 2, 3, len(tv))))) for v in pv}
        yield exact._search(pattern, lists, target), ListedInstance(pattern, lists, tv), target
    for i in range(100):
        rng = pyrng("step-plan-digraphs", i)
        tv = [f"h{j}" for j in range(rng.randint(1, 4))]
        target = DiGraph(tv, [e for e in product(tv, repeat=2) if rng.random() < 0.6])
        pv = [f"g{j}" for j in range(rng.randint(1, 8))]
        pattern = DiGraph(pv, [e for e in product(pv, repeat=2) if rng.random() < 0.2])
        lists = {v: frozenset(rng.sample(tv, rng.randint(1, len(tv)))) for v in pv}
        yield exact._search(pattern, lists, target), None, None
    for i in range(100):
        rng = pyrng("step-plan-csp", i)
        xs = tuple(f"x{j}" for j in range(rng.randint(1, 10)))
        imps = tuple((x, y) for x, y in product(xs, repeat=2) if rng.random() < 0.15)
        pins = tuple((x, rng.randint(0, 1)) for x in xs if rng.random() < 0.2)
        yield csp._imp_search(csp.CspInstance(xs, imps, pins)), None, None
    for i in range(100):
        rng = pyrng("step-plan-blocks", i)
        anchors, multis = rng.randint(1, 5), rng.randint(0, 4)
        n = anchors + multis
        adj = [0] * n
        for a, b in combinations(range(n), 2):
            if a < anchors and rng.random() < 0.4:
                adj[a] |= 1 << b
                adj[b] |= 1 << a
        doms = [rng.randint(1, 511) for _ in range(n)]
        weights = [1] * anchors + [rng.randint(2, 50) for _ in range(multis)]
        yield exact._Search(adj, adj, doms, h1._adj, h1._adj, weights), None, None
    yield exact._search(Graph(), {}, K2), ListedInstance.full(Graph(), K2), K2


def test_step_plan_is_pinned():
    # recorded before the steps spread each vertex's neighbours themselves:
    # the order, every step tuple and the walk order of each kernel
    h = hashlib.sha256()
    plans = 0
    for search, inst, target in _step_plans():
        walk = exact._walk_order(inst, target) if inst is not None else None
        h.update(repr((search._order(), search._steps(), walk)).encode())
        plans += 1
    assert (plans, h.hexdigest()[:16]) == (451, "94978fde39a83d01")


def test_large_star_count():
    # hom(K_{1,n}, H) = sum over the centre's image c of deg(c)^n; a greedy
    # order that scores every candidate at every step spends seconds here
    star = build_star(2000)
    want = sum(TW.degree(c) ** 2000 for c in TW.vertices)
    assert exact.count_hom(star, TW) == want
