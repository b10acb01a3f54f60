import hashlib
import json
import math
from itertools import combinations

import pytest

from retraction_lab import classifier as cl
from retraction_lab._seeds import pyrng
from retraction_lab.fixedgraphs import (
    build_cycle,
    build_hk,
    build_hk_prime,
    build_jq,
    build_path,
    build_pbrp,
    build_reflexive_path,
    build_star,
    build_two_wrench,
    build_wr,
)
from retraction_lab.graphs import Graph, _bits, connected_components, girth, is_connected
from retraction_lab.verify import random_graph


def test_trivial_recognizers():
    assert cl.is_irreflexive_star(build_star(3))
    assert cl.is_irreflexive_star(build_path(2))
    assert cl.is_irreflexive_star(Graph(["a"]))
    refl_k2 = build_reflexive_path(2)
    assert cl.is_double_looped_edge(refl_k2)
    assert cl.is_single_looped_vertex(Graph([], [("a", "a")]))
    tw = build_two_wrench()
    assert not cl.is_irreflexive_star(tw)
    assert not cl.is_single_looped_vertex(tw)
    assert not cl.is_double_looped_edge(tw)


def _two_copies(h):
    return Graph(
        [f"{s}.{v}" for s in "ab" for v in h.vertices],
        [(f"{s}.{u}", f"{s}.{v}") for s in "ab" for u, v in h.edges()],
    )


@pytest.mark.parametrize(
    "one",
    [Graph(["v"]), Graph([], [("v", "v")]), build_reflexive_path(2), build_path(3),
     build_reflexive_path(3)],
    ids=["K1", "looped K1", "reflexive K2", "path", "reflexive path"],
)
def test_recognizers_reject_disconnected_graphs(one):
    # each copy alone is a star, a looped vertex, a double-looped edge, a
    # caterpillar or a bristled path; two disjoint copies are none of these
    h = _two_copies(one)
    assert not cl.is_irreflexive_star(h)
    assert not cl.is_single_looped_vertex(h)
    assert not cl.is_double_looped_edge(h)
    assert not cl.is_caterpillar(h)
    assert cl.is_pbrp(h) is None


def test_caterpillar():
    assert cl.is_caterpillar(build_path(5))
    assert not cl.is_caterpillar(build_jq(3))
    assert not cl.is_caterpillar(build_reflexive_path(3))
    assert cl.is_caterpillar(build_star(4))
    comb = Graph([], [("a", "b"), ("b", "c"), ("c", "d"), ("b", "p"), ("c", "q")])
    assert cl.is_caterpillar(comb)


def test_pbrp_recognizer():
    fig2 = cl.is_pbrp(build_pbrp(4, {1, 3, 4}))
    assert fig2 is not None and fig2.q == 4 and fig2.s == frozenset({1, 3, 4})
    tw = cl.is_pbrp(build_two_wrench())
    assert tw is not None and tw.q == 1 and tw.s == frozenset({1})
    assert cl.is_pbrp(build_wr(3)) is None
    plain = cl.is_pbrp(build_reflexive_path(4))
    assert plain is not None and plain.s == frozenset()
    # duplicated bristle position and endpoint bristles are rejected
    double = Graph([], build_reflexive_path(3).edges() + [("c1", "u1"), ("c1", "u2")])
    assert cl.is_pbrp(double) is None
    endpoint = Graph([], build_reflexive_path(3).edges() + [("c0", "u")])
    assert cl.is_pbrp(endpoint) is None


def test_induced_j3():
    j3 = build_jq(3)
    assert cl.has_induced_J3(j3) == frozenset(j3.vertices)
    assert cl.has_induced_J3(build_path(7)) is None
    spider221 = Graph(
        [], [("c", "a0"), ("a0", "a1"), ("c", "b0"), ("b0", "b1"), ("c", "d0")]
    )
    assert cl.has_induced_J3(spider221) is None
    # a J3 with an extra chord is not induced
    chord = Graph([], j3.edges() + [("x1", "y1")])
    assert cl.has_induced_J3(chord) is None


def test_neighborhood_witnesses():
    wr3 = build_wr(3)
    apexed = Graph(
        [], wr3.edges() + [("apex", "apex")] + [("apex", f"l{i}") for i in (1, 2, 3)]
    )
    wits = dict(cl.neighborhood_witnesses(apexed))
    assert wits.get(cl.WITNESS_WR) in ("apex", "c")
    hkp = build_hk_prime(1)
    assert cl.neighborhood_witnesses(hkp) == [(cl.WITNESS_DIST2, "b")]
    assert cl.neighborhood_witnesses(build_cycle(5)) == []


def test_distance2_labeling_on_hk():
    hk = build_hk(2)
    labels = cl.distance2_labeling(hk, "b")
    assert labels is not None
    assert labels["b"] == "b" and labels["g"] == "g"
    assert sorted(labels.values()) == sorted(hk.vertices)
    # no labeling at a looped vertex without the 2-wrench neighborhood
    assert cl.distance2_labeling(hk, "r1") is None


def test_classify_fixture_rows():
    from retraction_lab.verify import classifier_fixture_rows

    for name, h, want_cls, want_clause in classifier_fixture_rows():
        v = cl.classify(h)
        assert (v.cls, v.clause) == (want_cls, want_clause), name


def test_classify_witness_payloads():
    v = cl.classify(build_jq(3))
    assert v.witnesses[0][0] == cl.WITNESS_J3
    assert len(v.witnesses[0][1]) == 7
    v = cl.classify(build_cycle(5))
    assert (cl.WITNESS_ODD_CYCLE, ("c0", "c1", "c2", "c3", "c4")) in v.witnesses
    from retraction_lab.fixedgraphs import build_reflexive_cycle

    v = cl.classify(build_reflexive_cycle(5))
    assert v.witnesses[0][0] == cl.WITNESS_REFL_CYCLE


def test_even_cycle_witnesses():
    for n in (6, 8):
        c = build_cycle(n)
        assert cl.classify(c).witnesses == ((cl.WITNESS_EVEN_PSEUDOTREE, c.vertices),)
    c6 = build_cycle(6)
    pendant = Graph([], c6.edges() + [("c0", "p")])
    assert cl.classify(pendant).witnesses == ((cl.WITNESS_EVEN_PSEUDOTREE, c6.vertices),)
    # a pendant path of length 2 makes an induced J3, and no cycle witness
    path = Graph([], c6.edges() + [("c0", "p"), ("p", "q")])
    assert [label for label, _ in cl.classify(path).witnesses] == [cl.WITNESS_J3]
    # the BFS from c0 closes the 6-cycle before the 5-cycle, and the odd
    # cycle still wins
    c5 = [("c3", "d0")] + [(f"d{i}", f"d{(i + 1) % 5}") for i in range(5)]
    v = cl.classify(Graph([], c6.edges() + c5))
    assert [label for label, _ in v.witnesses] == [cl.WITNESS_J3, cl.WITNESS_ODD_CYCLE]
    assert v.witnesses[1][1] == ("d0", "d1", "d2", "d3", "d4")


def test_classify_combines_components():
    tw = build_two_wrench()
    j3 = build_jq(3)
    both = Graph(
        [f"t.{v}" for v in tw.vertices] + [f"j.{v}" for v in j3.vertices],
        [(f"t.{u}", f"t.{v}") for u, v in tw.edges()]
        + [(f"j.{u}", f"j.{v}") for u, v in j3.edges()],
    )
    v = cl.classify(both)
    assert v.cls == cl.CLASS_SAT
    assert len(v.components) == 2
    # BIS + FP stays BIS; UNCLASSIFIED absorbs BIS but not SAT
    star = build_star(2)
    mix = Graph(
        [f"t.{x}" for x in tw.vertices] + [f"s.{x}" for x in star.vertices],
        [(f"t.{u}", f"t.{v}") for u, v in tw.edges()]
        + [(f"s.{u}", f"s.{v}") for u, v in star.edges()],
    )
    assert cl.classify(mix).cls == cl.CLASS_BIS
    c4 = build_cycle(4)
    with_c4 = Graph(
        [f"t.{x}" for x in tw.vertices] + [f"c.{x}" for x in c4.vertices],
        [(f"t.{u}", f"t.{v}") for u, v in tw.edges()]
        + [(f"c.{u}", f"c.{v}") for u, v in c4.edges()],
    )
    assert cl.classify(with_c4).cls == cl.CLASS_UNCLASSIFIED
    with_both = Graph(
        [f"j.{x}" for x in j3.vertices] + [f"c.{x}" for x in c4.vertices],
        [(f"j.{u}", f"j.{v}") for u, v in j3.edges()]
        + [(f"c.{u}", f"c.{v}") for u, v in c4.edges()],
    )
    assert cl.classify(with_both).cls == cl.CLASS_SAT


def test_unclassified_note():
    v = cl.classify(build_cycle(4))
    assert v.components[0].note
    assert cl.classify(Graph()).cls == cl.CLASS_FP


def test_square_detection():
    assert not cl.is_square_free(build_cycle(4))
    assert cl.is_square_free(build_cycle(5))
    assert cl.is_square_free(build_jq(3))
    k4 = Graph("abcd", [(a, b) for i, a in enumerate("abcd") for b in "abcd"[i + 1 :]])
    assert not cl.is_square_free(k4)
    # girth-3 but square-free stays classifiable
    tri = build_cycle(3)
    assert cl.classify(tri).cls == cl.CLASS_SAT
    assert cl.classify(tri).clause == "Thm5.iii"


def test_girth_five_branch_is_two_mask_loops():
    # classify_component takes its girth >= 5 branch on "square-free and no
    # triangle"; a loop is not a cycle to either, so a looped triangle-free
    # graph, the reflexive P3, has no short cycle
    def branch(h):
        return cl.is_square_free(h) and not cl._short_cycles(h._adj)[0]

    refl_p3 = build_reflexive_path(3)
    assert branch(refl_p3) and girth(refl_p3) == math.inf
    seen = set()
    for i in range(2000):
        rng = pyrng("girth-branch", i)
        n = rng.randint(0, 9)
        h = random_graph(rng, n, rng.choice((0.15, 0.3, 0.5)), "v", loop_p=rng.random())
        assert branch(h) == (girth(h) >= 5), h
        seen.add((branch(h), h.is_irreflexive(), girth(h)))
    # both outcomes, with and without loops, and every short girth
    assert {(b, irr) for b, irr, _ in seen} == {(b, irr) for b in (False, True) for irr in (False, True)}
    assert {3, 4, 5, 6, math.inf} <= {g for _, _, g in seen}


def _old_has_triangle(adj):
    """The triangle test classify_component ran before the one-pass girth
    routine."""
    return any(
        adj[i] & adj[j] & ~(1 << i | 1 << j)
        for i, a in enumerate(adj)
        for j in _bits(a >> i + 1 << i + 1)
    )


def _old_is_square_free(adj):
    """The pair loop is_square_free ran before the one-pass girth routine."""
    n = len(adj)
    for i in range(n):
        for j in range(i + 1, n):
            if (adj[i] & adj[j] & ~(1 << i | 1 << j)).bit_count() >= 2:
                return False
    return True


def _split_graph(rng):
    """0 to 10 vertices dealt into up to three groups, G(n, p) inside each
    group and none between them, each vertex looped with one probability."""
    n = rng.randint(0, 10)
    vs = [f"v{j}" for j in range(n)]
    groups = rng.randint(1, 3)
    group = [rng.randrange(groups) for _ in vs]
    p = rng.choice((0.25, 0.45, 0.7))
    loop_p = rng.choice((0.0, 0.3, 1.0))
    edges = [(v, v) for v in vs if rng.random() < loop_p]
    edges += [
        (vs[a], vs[b])
        for a in range(n)
        for b in range(a + 1, n)
        if group[a] == group[b] and rng.random() < p
    ]
    return Graph(vs, edges)


def test_short_cycle_pass_matches_girth_and_the_tests_it_replaced():
    seen = set()
    for i in range(3000):
        h = _split_graph(pyrng("short-cycles", i))
        adj = h._adj
        flags = cl._short_cycles(adj)
        assert flags == (_old_has_triangle(adj), not _old_is_square_free(adj)), h.edges()
        assert (flags == (False, False)) == (girth(h) >= 5), h.edges()
        assert cl.is_square_free(h) == _old_is_square_free(adj)
        seen.add((flags, h.is_irreflexive(), len(connected_components(h)) > 1))
    # every pair of flags, with and without loops, on one and on several
    # components
    assert len(seen) == 16, sorted(seen)


def test_one_short_cycle_pass_per_component(monkeypatch):
    # the neighborhood witnesses take classify_component's triangle flag, on
    # a looped star (girth >= 5) and on a looped pendant at a C4 alike
    calls = []
    real = cl._short_cycles
    monkeypatch.setattr(cl, "_short_cycles", lambda adj: calls.append(adj) or real(adj))
    star = Graph([], [("b", "b"), ("b", "x"), ("b", "y")])
    assert cl.classify(star).to_json() == {
        "class": cl.CLASS_SAT,
        "clause": "Thm1.iii",
        "witnesses": [{"case": cl.WITNESS_NON_2WRENCH, "vertices": ["b"]}],
        "components": [
            {
                "vertices": ["b", "x", "y"],
                "class": cl.CLASS_SAT,
                "clause": "Thm1.iii",
                "witnesses": [{"case": cl.WITNESS_NON_2WRENCH, "vertices": ["b"]}],
            }
        ],
    }
    assert len(calls) == 1
    calls.clear()
    square = [("c1", "c2"), ("c2", "c3"), ("c3", "c4"), ("c4", "c1"), ("z", "z"), ("z", "c1")]
    three = Graph([], star.edges() + [("p", "q")] + square)
    v = cl.classify(three)
    assert [(cv.cls, cv.clause) for cv in v.components] == [
        (cl.CLASS_SAT, "Thm1.iii"),
        (cl.CLASS_SAT, "Lem27"),
        (cl.CLASS_FP, "Thm1.i"),
    ]
    assert v.witnesses == ((cl.WITNESS_NON_2WRENCH, ("b",)), (cl.WITNESS_NON_2WRENCH, ("z",)))
    assert len(calls) == len(v.components) == 3


def _old_combination(h):
    """classify's combination before the one loop over the component
    verdicts: `any`, `any`, `max` and `next` passes and a witness generator."""
    comps = connected_components(h)
    if not comps:
        return cl.Verdict(cl.CLASS_FP, "Thm1.i", (), ())
    cvs = tuple(cl.classify_component(c) for c in comps)
    if any(cv.cls == cl.CLASS_SAT for cv in cvs):
        overall = cl.CLASS_SAT
    elif any(cv.cls == cl.CLASS_UNCLASSIFIED for cv in cvs):
        overall = cl.CLASS_UNCLASSIFIED
    else:
        rank = {cl.CLASS_FP: 0, cl.CLASS_BIS: 1, cl.CLASS_SAT: 2}
        overall = max((cv.cls for cv in cvs), key=rank.__getitem__)
    deciding = next(cv for cv in cvs if cv.cls == overall)
    witnesses = tuple(w for cv in cvs if cv.cls == overall for w in cv.witnesses)
    return cl.Verdict(overall, deciding.clause, witnesses, cvs)


def test_classify_combines_like_the_generator_passes():
    # components of every class, several with witnesses of their own
    pieces = [
        Graph(["a"]),
        build_star(3),
        Graph(["a"], [("a", "a")]),
        build_reflexive_path(2),
        build_path(5),
        build_two_wrench(),
        build_pbrp(2, {1}),
        build_cycle(5),
        build_cycle(3),
        build_jq(3),
        build_hk(1),
        build_wr(3),
        build_cycle(4),
        Graph("abcde", [(a, b) for a in "ab" for b in "cde"]),
    ]
    mixes = set()
    several_sat = 0
    for i in range(600):
        rng = pyrng("combine", i)
        chosen = [rng.choice(pieces) for _ in range(rng.randint(0, 4))]
        names = rng.sample("pqrstuvw", len(chosen))
        h = Graph(
            [f"{x}.{v}" for x, g in zip(names, chosen) for v in g.vertices],
            [(f"{x}.{u}", f"{x}.{v}") for x, g in zip(names, chosen) for u, v in g.edges()],
        )
        v = cl.classify(h)
        assert v == _old_combination(h), h.edges()
        classes = [cv.cls for cv in v.components]
        mixes.add((tuple(sorted(set(classes))), len(classes) > 1))
        several_sat += classes.count(cl.CLASS_SAT) > 1
    for i in range(600):
        h = _split_graph(pyrng("combine-split", i))
        assert cl.classify(h) == _old_combination(h), h.edges()
    # the empty graph, all FP, BIS with FP, SAT with UNCLASSIFIED, every
    # class at once; and witnesses gathered from several SAT components
    assert {
        ((), False),
        ((cl.CLASS_FP,), True),
        ((cl.CLASS_BIS, cl.CLASS_FP), True),
        ((cl.CLASS_SAT, cl.CLASS_UNCLASSIFIED), True),
        ((cl.CLASS_BIS, cl.CLASS_FP, cl.CLASS_SAT, cl.CLASS_UNCLASSIFIED), True),
    } <= mixes, sorted(mixes)
    assert several_sat >= 50


def _cls(h):
    v = cl.classify(h)
    return v.cls, v.clause, {w[0] for w in v.witnesses}


def test_sat_witnesses_bristle_violations():
    # two bristles on one internal vertex: the neighborhood stops being a
    # 2-wrench there
    refl = build_reflexive_path(3)
    doubled = Graph([], refl.edges() + [("c1", "u1"), ("c1", "u2")])
    cls, clause, labels = _cls(doubled)
    assert (cls, clause) == (cl.CLASS_SAT, "Thm1.iii")
    assert cl.WITNESS_NON_2WRENCH in labels
    # endpoint bristle
    endpoint = Graph([], refl.edges() + [("c0", "u")])
    cls, clause, labels = _cls(endpoint)
    assert cls == cl.CLASS_SAT and cl.WITNESS_NON_2WRENCH in labels
    # a lone looped vertex with one pendant leaf is already hard
    one_bristle = Graph([], [("b", "b"), ("b", "g")])
    cls, clause, labels = _cls(one_bristle)
    assert cls == cl.CLASS_SAT and cl.WITNESS_NON_2WRENCH in labels


def test_sat_witnesses_reflexive_cycles():
    from retraction_lab.fixedgraphs import build_reflexive_cycle

    for n in (5, 6, 7):
        cls, clause, labels = _cls(build_reflexive_cycle(n))
        assert (cls, clause) == (cl.CLASS_SAT, "Thm1.iii")
        assert cl.WITNESS_REFL_CYCLE in labels
    # bristled reflexive cycle: 2-wrench neighborhoods everywhere, the
    # cycle core is the only witness
    c5 = build_reflexive_cycle(5)
    bristled = Graph([], c5.edges() + [("c0", "u")])
    cls, clause, labels = _cls(bristled)
    assert cls == cl.CLASS_SAT and cl.WITNESS_REFL_CYCLE in labels


def test_sat_witnesses_distance2():
    # extending the pendant of a 2-wrench forces the distance-2 sandwich
    tw = build_two_wrench()
    extended = Graph([], tw.edges() + [("g", "y")])
    cls, clause, labels = _cls(extended)
    assert (cls, clause) == (cl.CLASS_SAT, "Thm1.iii")
    assert labels == {cl.WITNESS_DIST2}
    for k in (1, 2, 3):
        cls, clause, labels = _cls(build_hk_prime(k))
        assert cls == cl.CLASS_SAT and cl.WITNESS_DIST2 in labels


def test_sat_witness_wr_star():
    cls, clause, labels = _cls(build_wr(3))
    assert (cls, clause) == (cl.CLASS_SAT, "Thm1.iii")
    assert cl.WITNESS_WR in labels


def test_every_sat_verdict_names_a_witness_of_its_clause():
    # every connected graph on v0..v(n-1), n <= 5, with every set of looped
    # vertices: a SAT verdict always names a witness, and only witnesses
    # its clause's proof uses (Thm5.iii: a J3 or a cycle, which an
    # irreflexive non-caterpillar has; Thm1.iii: the looped dichotomy)
    irreflexive = {cl.WITNESS_J3, cl.WITNESS_ODD_CYCLE, cl.WITNESS_EVEN_PSEUDOTREE}
    looped = {cl.WITNESS_WR, cl.WITNESS_NON_2WRENCH, cl.WITNESS_DIST2, cl.WITNESS_REFL_CYCLE}
    graphs = sat = 0
    for n in range(1, 6):
        names = [f"v{i}" for i in range(n)]
        pairs = list(combinations(names, 2))
        for m in range(1 << len(pairs)):
            edges = [e for j, e in enumerate(pairs) if m >> j & 1]
            if not is_connected(Graph(names, edges)):
                continue
            for loops in range(1 << n):
                h = Graph(names, edges + [(v, v) for i, v in enumerate(names) if loops >> i & 1])
                cv = cl.classify_component(h)
                graphs += 1
                if cv.cls != cl.CLASS_SAT:
                    continue
                sat += 1
                labels = {label for label, _ in cv.witnesses}
                assert labels, (edges, loops)
                if cv.clause == "Thm5.iii":
                    assert labels <= irreflexive, (edges, loops, labels)
                elif cv.clause == "Thm1.iii":
                    assert labels <= looped, (edges, loops, labels)
    assert (graphs, sat) == (23942, 6615)


def test_hk_itself_is_sat_despite_short_cycles():
    # H_k has triangles (the joined tails), so the trichotomy theorems do
    # not apply, but the distance-2 witness needs no girth assumption and
    # upgrades it to SAT
    from retraction_lab.graphs import girth

    h1 = build_hk(1)
    assert girth(h1) == 3
    cls, clause, labels = _cls(h1)
    assert cls == cl.CLASS_SAT
    assert clause == "Lem48"
    assert cl.WITNESS_DIST2 in labels


def _classify_corpus():
    """The benchmark's girth-5 shape (up to 8 vertices, loops with
    probability 1/2, edges 0.3, girth at least 5, the component of v0), then
    small graphs with loops and no girth filter, then the fixture rows, H_k,
    H'_k and cycles."""
    from retraction_lab.verify import classifier_fixture_rows

    for i in range(1500):
        rng = pyrng("classify-girth5", i)
        while True:
            vs = [f"v{j}" for j in range(rng.randint(2, 8))]
            edges = [(v, v) for v in vs if rng.random() < 0.5]
            edges += [(a, b) for j, a in enumerate(vs) for b in vs[j + 1 :] if rng.random() < 0.3]
            h = Graph(vs, edges)
            if girth(h) >= 5:
                yield connected_components(h)[0]
                break
    for i in range(1500):
        rng = pyrng("classify-small", i)
        vs = [f"v{j}" for j in range(rng.randint(1, 7))]
        edges = [(v, v) for v in vs if rng.random() < 0.3]
        edges += [(a, b) for j, a in enumerate(vs) for b in vs[j + 1 :] if rng.random() < 0.35]
        yield Graph(vs, edges)
    for _, h, _, _ in classifier_fixture_rows():
        yield h
    for k in (1, 2, 3):
        yield build_hk(k)
        yield build_hk_prime(k)
    for n in range(3, 13):
        yield build_cycle(n)


def test_classify_verdicts_are_pinned():
    # recorded before the classifier computed girth once per component
    h = hashlib.sha256()
    graphs = 0
    for g in _classify_corpus():
        h.update(json.dumps(cl.classify(g).to_json(), sort_keys=True).encode())
        graphs += 1
    assert (graphs, h.hexdigest()[:16]) == (3028, "c9716aec4de0b7ec")


def test_verdicts_are_immutable_values():
    from retraction_lab.verify import classifier_fixture_rows

    v = cl.classify(build_pbrp(4, {1, 3, 4}))
    shape = cl.is_pbrp(build_pbrp(4, {1, 3, 4}))
    for record, field in ((v, "cls"), (v.components[0], "note"), (shape, "path")):
        with pytest.raises(AttributeError):
            setattr(record, field, None)
    assert (shape.q, shape.s) == (4, frozenset({1, 3, 4}))
    # repr and to_json recorded while the verdicts were frozen dataclasses
    h = hashlib.sha256()
    for _, g, _, _ in classifier_fixture_rows():
        v = cl.classify(g)
        again = cl.classify(Graph(g.vertices, g.edges()))
        assert again == v and hash(again) == hash(v)
        h.update(f"{v!r}\n{cl.is_pbrp(g)!r}\n".encode())
        h.update(json.dumps(v.to_json(), sort_keys=True).encode())
    assert h.hexdigest()[:16] == "d757ad0e7ed0e30b"


def _recognizer_corpus():
    """H_k and H'_k (k = 1..3), J_q (q = 3..5), then 3 200 seeded graphs with
    loops on 7 to 11 vertices in four shapes, so that every recognizer both
    fires and misses: sparse G(n, p), random trees, reflexive paths or
    cycles with pendants placed anywhere, and trees with one extra edge."""
    for k in (1, 2, 3):
        yield build_hk(k)
        yield build_hk_prime(k)
    for q in (3, 4, 5):
        yield build_jq(q)
    for i in range(3200):
        rng = pyrng("recognizers", i)
        n = rng.randint(7, 11)
        vs = [f"v{j:02d}" for j in range(n)]
        rng.shuffle(vs)
        style = i % 4
        loop_p = rng.choice((0.0, 0.3, 0.6, 1.0))
        if style == 0:
            p = rng.choice((0.15, 0.25, 0.35))
            edges = [(a, b) for j, a in enumerate(vs) for b in vs[j + 1 :] if rng.random() < p]
        elif style == 2:
            spine = rng.randint(1, n)
            edges = [(vs[j], vs[j + 1]) for j in range(spine - 1)]
            if spine >= 3 and rng.random() < 0.4:
                edges.append((vs[spine - 1], vs[0]))
            edges += [(vs[rng.randrange(spine)], vs[j]) for j in range(spine, n)]
            edges += [(v, v) for v in vs[:spine]]
            loop_p = 0.1
        else:
            edges = [(vs[rng.randrange(j)], vs[j]) for j in range(1, n)]
            if style == 3:
                edges.append(tuple(rng.sample(vs, 2)))
        edges += [(v, v) for v in vs if rng.random() < loop_p]
        yield Graph(vs, edges)


def _recognizer_outputs(h):
    pbrp = cl.is_pbrp(h)
    return [
        [list(label.items()) for label in cl.induced_j3_embeddings(h)],
        [
            None if (d2 := cl.distance2_labeling(h, v)) is None else list(d2.items())
            for v in h.vertices
        ],
        None if pbrp is None else [pbrp.path, pbrp.bristles],
        cl.is_caterpillar(h),
        cl.reflexive_cycle_core(h),
        cl.neighborhood_witnesses(h),
    ]


def test_recognizer_outputs_are_pinned():
    # the ordered J3 listing matters: gadgets.find_J3_labels labels the cut
    # reduction by the first embedding, which the verdict digest does not pin
    h = hashlib.sha256()
    graphs = 0
    for g in _recognizer_corpus():
        h.update(json.dumps(_recognizer_outputs(g)).encode())
        graphs += 1
    assert (graphs, h.hexdigest()[:16]) == (3209, "e65353f48415f017")
