import math
import os
import pickle
import subprocess
import sys
from pathlib import Path

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
    DiGraph,
    Graph,
    common_neighbors,
    connected_components,
    girth,
    neighbor_union,
    neighborhoods,
)
from retraction_lab.instances import ListedInstance


SRC = Path(__file__).resolve().parent.parent / "src"


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


def test_non_loop_edges_is_a_fresh_list():
    g = Graph([], [("a", "a"), ("a", "b"), ("b", "c")])
    edges = g.non_loop_edges()
    assert edges == [("a", "b"), ("b", "c")]
    edges.append(("a", "c"))
    edges.clear()
    assert g.non_loop_edges() == [("a", "b"), ("b", "c")]
    assert not g.has_edge("a", "c")


def test_edge_count_matches_the_edge_list():
    assert Graph().edge_count() == 0
    for i in range(300):
        rng = pyrng("edge-count", i)
        vs = [f"v{j}" for j in range(rng.randint(1, 12))]
        p = rng.random()
        edges = [(a, b) for j, a in enumerate(vs) for b in vs[j:] if rng.random() < p]
        g = Graph(vs, edges)
        assert g.edge_count() == len(g.edges()), i

def test_digraph_equality_hash_repr_and_len():
    d = DiGraph(["c"], [("a", "b"), ("b", "a"), ("b", "b")])
    no_c = DiGraph([], [("b", "b"), ("b", "a"), ("a", "b")])
    assert len(d) == 3 and len(no_c) == 2
    again = DiGraph(["c", "a"], [("b", "b"), ("b", "a"), ("a", "b")])
    assert d == again and hash(d) == hash(again) and len({d, again}) == 1
    assert d != no_c
    assert d != DiGraph(["c"], [("a", "b"), ("b", "a")])  # no loop at b
    assert d != DiGraph(["c"], [("a", "b"), ("b", "b")])  # no arc b -> a
    assert d != Graph(["c"], [("a", "b"), ("b", "b")])
    assert repr(d) == "DiGraph(3 vertices, 3 arcs)"
    assert repr(DiGraph()) == "DiGraph(0 vertices, 0 arcs)" and len(DiGraph()) == 0


_UNPICKLE = """
import pickle, sys
from retraction_lab.fixedgraphs import build_hk, build_path
from retraction_lab.instances import ListedInstance
h1 = build_hk(1)
fresh = [h1, ListedInstance.full(build_path(3), h1).pin("c1", "b")]
for g, f in zip(pickle.loads(sys.stdin.buffer.read()), fresh):
    print(g == f, hash(g) == hash(f), len({g: 1, f: 2}))
"""


def test_pickled_graph_hashes_like_a_fresh_one():
    h1 = build_hk(1)
    # a graph and a listed instance, each with its hash cached before pickling
    values = [h1, ListedInstance.full(build_path(3), h1).pin("c1", "b")]
    for g in values:
        hash(g)
        back = pickle.loads(pickle.dumps(g))
        assert back == g and hash(back) == hash(g)
    assert hash(values[0]) == hash(build_hk(1))
    assert hash(values[1]) == hash(ListedInstance(build_path(3), {"c1": frozenset("b")}, h1.vertices))
    # str hashes are salted per process: a hash that travelled with the
    # pickle would differ from the one the receiving process computes
    env = dict(os.environ, PYTHONHASHSEED="12345")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", _UNPICKLE], input=pickle.dumps(values), env=env,
        capture_output=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr.decode()
    assert done.stdout.decode().split() == ["True", "True", "1"] * 2


_UNPICKLE_LISTS = """
import pickle, sys
from retraction_lab.fixedgraphs import build_path, build_two_wrench
from retraction_lab.instances import ListedInstance
tw = build_two_wrench()
full = ListedInstance.full(build_path(3), tw)
for inst, fresh in zip(pickle.loads(sys.stdin.buffer.read()), (full, full.pin("c0", "b"))):
    try:
        inst.lists["c0"] = frozenset(("g",))
    except TypeError:
        print(inst == fresh, hash(inst) == hash(fresh), len({inst: 1, fresh: 2}))
"""


def test_listed_instance_lists_are_read_only():
    # an instance keys the oracles' caches by its hash, computed once: an
    # edit of its lists in place would leave both stale, so it raises, in
    # an unpickled copy too
    tw = build_two_wrench()
    full = ListedInstance.full(build_path(3), tw)
    values = [full, full.pin("c0", "b")]
    for inst in values:
        hash(inst)
        with pytest.raises(TypeError):
            inst.lists["c0"] = frozenset(("g",))
        with pytest.raises(TypeError):
            del inst.lists["c1"]
        back = pickle.loads(pickle.dumps(inst))
        assert back == inst and hash(back) == hash(inst)
        with pytest.raises(TypeError):
            back.lists["c0"] = frozenset(("g",))
    env = dict(os.environ, PYTHONHASHSEED="54321")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", _UNPICKLE_LISTS], input=pickle.dumps(values), env=env,
        capture_output=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr.decode()
    assert done.stdout.decode().split() == ["True", "True", "1"] * 2
