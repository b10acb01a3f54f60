from fractions import Fraction
from itertools import combinations, combinations_with_replacement

import math

import pytest
from hypothesis import example, given, settings, strategies as st

from retraction_lab import exact, reference
from retraction_lab._seeds import pyrng
from retraction_lab.fixedgraphs import build_cycle, build_hk, build_path, build_star, build_two_wrench
from retraction_lab.graphs import Graph, _bits
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
    and pins."""
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
        (blk.name, draw(st.sampled_from(tv)))
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
    # each pattern component is its own run of the search, so the recursion
    # depth follows the largest component, not the number of components
    pairs, lone = 1100, 800
    blocks = tuple(Block(f"s{i}", 1) for i in range(2 * pairs + lone)) + (Block("M", 50),)
    couplings = tuple(Coupling(f"s{i}", f"s{i + 1}", "cb") for i in range(0, 2 * pairs, 2))
    bi = BlockedInstance(blocks, couplings, (), TW.vertices)
    assert exact.count_blocked(bi, TW) == 9**pairs * 4**lone * 4**50
    assert exact.count_list_hom(expand_blocked(bi), TW) == 9**pairs * 4**lone * 4**50


def test_search_past_the_recursion_limit_raises_value_error():
    path = build_path(1500)
    with pytest.raises(ValueError, match="list-homomorphism count on a 1500-vertex pattern"):
        exact.count_hom(path, TW)
    with pytest.raises(ValueError, match="enumeration on a 1500-vertex pattern"):
        next(exact.enumerate_homs(ListedInstance.full(path, TW), TW))
    # a covering count cannot split the pattern into components
    edges = ListedInstance.full(Graph([], [(f"a{i}", f"b{i}") for i in range(1100)]), TW)
    for mode, what in (("sur", "surjective"), ("comp", "compaction")):
        with pytest.raises(ValueError, match=f"{what} count on a 2200-vertex pattern"):
            exact.count(edges, TW, mode)


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
    assert search._order() == _plain_order(search)


def test_large_star_count():
    # hom(K_{1,n}, H) = sum over the centre's image c of deg(c)^n; a greedy
    # order that scores every candidate at every step spends seconds here
    star = build_star(2000)
    want = sum(TW.degree(c) ** 2000 for c in TW.vertices)
    assert exact.count_hom(star, TW) == want
