import math

import pytest

from retraction_lab import reference
from retraction_lab._seeds import pyrng
from retraction_lab.fixedgraphs import (
    build_cycle,
    build_hk,
    build_path,
    build_reflexive_path,
    build_two_wrench,
)
from retraction_lab.graphs import (
    Graph,
    common_neighbors,
    connected_components,
    girth,
    neighbor_union,
    neighborhoods,
)


def complete_graph(n):
    vs = [f"v{i}" for i in range(n)]
    return Graph(vs, [(a, b) for i, a in enumerate(vs) for b in vs[i + 1 :]])


def test_girth_examples():
    assert girth(build_cycle(5)) == 5
    assert girth(build_reflexive_path(3)) == math.inf
    assert girth(complete_graph(4)) == 3


def test_girth_loops_are_not_cycles():
    g = Graph([], [("a", "a"), ("a", "b"), ("b", "b")])
    assert girth(g) == math.inf


def test_girth_matches_exhaustive_enumeration():
    for i in range(300):
        rng = pyrng("tg", i)
        n = rng.randint(1, 8)
        vs = [f"v{j}" for j in range(n)]
        edges = []
        for a in range(n):
            if rng.random() < 0.25:
                edges.append((vs[a], vs[a]))
            for b in range(a + 1, n):
                if rng.random() < 0.4:
                    edges.append((vs[a], vs[b]))
        h = Graph(vs, edges)
        assert girth(h) == reference.naive_girth(h)


def test_neighborhoods_h1_center():
    h1 = build_hk(1)
    g1, g2 = neighborhoods(h1, "b")
    assert g1 == frozenset({"r1", "r2", "b", "g"})
    assert g2 == frozenset({"w1", "d1", "r1", "w2", "d2", "r2", "b", "g", "y1"})


def test_neighborhoods_k2_and_isolated():
    k2 = Graph("ab", [("a", "b")])
    assert neighborhoods(k2, "a") == (frozenset({"b"}), frozenset({"a"}))
    lone = Graph(["z"])
    assert neighborhoods(lone, "z") == (frozenset(), frozenset())
    with pytest.raises(ValueError):
        neighborhoods(lone, "missing")


def test_common_neighbors_and_union():
    h1 = build_hk(1)
    assert common_neighbors(h1, ["r1", "r2"]) == frozenset({"b"})
    assert common_neighbors(h1, ["b"]) == h1.neighbors("b")
    with pytest.raises(ValueError):
        common_neighbors(h1, [])
    tw = build_two_wrench()
    assert neighbor_union(tw, ["g"]) == frozenset({"b"})
    assert neighbor_union(tw, []) == frozenset()


def test_gamma2_is_phi_of_gamma():
    for i in range(100):
        rng = pyrng("g2p", i)
        n = rng.randint(1, 6)
        vs = [f"v{j}" for j in range(n)]
        edges = [(a, a) for a in vs if rng.random() < 0.4]
        edges += [
            (vs[a], vs[b])
            for a in range(n)
            for b in range(a + 1, n)
            if rng.random() < 0.5
        ]
        h = Graph(vs, edges)
        for u in vs:
            g1, g2 = neighborhoods(h, u)
            assert g2 == neighbor_union(h, g1)


def test_induced_subgraph():
    tw = build_two_wrench()
    assert tw.induced(tw.vertices) == tw
    sub = tw.induced(["r1", "b"])
    assert sub.edges() == [("b", "b"), ("b", "r1"), ("r1", "r1")]
    assert tw.induced([]) == Graph()
    with pytest.raises(ValueError):
        tw.induced(["nope"])


def test_connected_components():
    g = Graph(["a", "b", "z"], [("a", "b"), ("z", "z")])
    comps = connected_components(g)
    assert [c.vertices for c in comps] == [("a", "b"), ("z",)]
    assert connected_components(build_path(4)) == [build_path(4)]
    assert connected_components(Graph()) == []


def test_loops_in_adjacency_and_flag():
    g = Graph([], [("a", "a"), ("a", "b")])
    assert g.is_looped("a") and not g.is_looped("b")
    assert "a" in g.neighbors("a")
    assert g.degree("a") == 2
