import functools
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from retraction_lab import exact, homtypes as ht, reference, verify
from retraction_lab.fixedgraphs import build_hk, build_j_blocked
from retraction_lab.gadgets import choose_pq
from retraction_lab.instances import block_vertex_names, expand_blocked


def table(k=1):
    return dict(ht.enumerate_maximal_types(k))


def test_table1_k1_shapes():
    rows = ht.enumerate_maximal_types(1)
    assert [label for label, _ in rows] == [f"T{i}" for i in range(1, 11)]
    sizes = {label: t.sizes() for label, t in rows}
    assert sizes["T1"] == (5, 1, 5)
    assert sizes["T4"] == (5, 4, 1)
    assert sizes["T5"] == (2, 3, 2)
    assert sizes["T10"] == (1, 9, 1)
    t4 = table()["T4"]
    a, b, c, cp, bp, ap = t4.projections()
    assert a == frozenset({"b", "y1"})
    assert b == frozenset({"r1", "r2", "b", "g"})
    assert c == frozenset({"b"})
    assert cp == frozenset({"r1", "r2", "b", "g"})
    assert bp == ap == frozenset({"b"})


def test_table1_larger_k_uses_all_ys():
    for k in (2, 3):
        rows = dict(ht.enumerate_maximal_types(k))
        assert len(rows) == 10
        ys = frozenset(f"y{i}" for i in range(1, k + 1))
        assert rows["T1"].projections()[0] == frozenset({"b"}) | ys
        assert rows["T4"].sizes() == (4 + k, 4, 1)


def test_nonempty_type_conditions():
    t4 = table()["T4"]
    assert ht.is_nonempty_type(t4, 1)
    empty_t2 = ht.HomType(t4.t1, frozenset(), t4.t3)
    assert not ht.is_nonempty_type(empty_t2, 1)
    # g in B and r1 in C violates the complete-join condition
    bad = ht.HomType(
        frozenset({("b", "g")}), frozenset({("r1", "b")}), frozenset({("b", "b")})
    )
    assert not ht.is_nonempty_type(bad, 1)
    with pytest.raises(ValueError):
        ht.is_nonempty_type(
            ht.HomType(frozenset({("g", "r1")}), t4.t2, t4.t3), 1
        )  # (g, r1) is not an edge of H_1


def _maximal(t, k):
    """The maximality check that verify's table lines run."""
    return reference.is_maximal_type_sets(t, k)


def test_maximality():
    rows = table()
    for label, t in rows.items():
        assert _maximal(t, 1), label
    t4 = rows["T4"]
    shrunk = ht.HomType(t4.t1, t4.t2 - {("b", "b")}, t4.t3)
    assert ht.is_nonempty_type(shrunk, 1)
    assert not _maximal(shrunk, 1)
    constant_b = ht.HomType(
        frozenset({("b", "b")}), frozenset({("b", "b")}), frozenset({("b", "b")})
    )
    assert not _maximal(constant_b, 1)


@functools.cache
def _census_bases(k):
    hk = build_hk(k)
    edges = sorted((x, y) for x in hk.vertices for y in hk.neighbors(x))
    return edges, [t for _, t in reference.maximal_types_sets(k)]


@st.composite
def census_types(draw):
    """A type over H_1..H_3: per component, a subset of a maximal type's
    pairs (sometimes all of them) plus at most one random edge pair."""
    k = draw(st.integers(1, 3))
    edges, bases = _census_bases(k)
    base = draw(st.sampled_from(bases))
    parts = []
    for part in (base.t1, base.t2, base.t3):
        keep = part if draw(st.booleans()) else draw(st.sets(st.sampled_from(sorted(part))))
        extra = draw(st.sets(st.sampled_from(edges), max_size=1))
        parts.append(frozenset(keep) | extra)
    return k, ht.HomType(*parts)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(census_types(), st.data())
def test_dropping_pairs_keeps_a_type_nonempty(case, data):
    """Non-emptiness is inherited: dropping pairs from a component of a
    non-empty type, while the component stays non-empty, leaves the type
    non-empty.  This is why single pairs suffice in
    `reference.is_maximal_type_sets`: a non-empty strict superset of a type
    contains a one-pair extension of it, and that extension is non-empty."""
    k, t = case
    if not ht.is_nonempty_type(t, k):
        return
    parts = [t.t1, t.t2, t.t3]
    i = data.draw(st.integers(0, 2))
    keep = data.draw(st.sets(st.sampled_from(sorted(parts[i])), min_size=1))
    parts[i] = frozenset(keep)
    assert ht.is_nonempty_type(ht.HomType(*parts), k)


def test_census_routes_reject_bad_pairs():
    t4 = table()["T4"]
    routes = (ht.is_nonempty_type, reference.is_maximal_type_sets)
    bad = (
        ht.HomType(t4.t1 | {("g", "r1")}, t4.t2, t4.t3),  # not an edge of H_1
        ht.HomType(t4.t1, t4.t2 | {("b", "zz")}, t4.t3),  # unknown vertex
        ht.HomType(t4.t1, t4.t2, t4.t3 | {("g", "y2")}),  # y2 is only in H_2
        ht.HomType(frozenset(), frozenset(), frozenset({("g", "r1")})),
    )
    for route in routes:
        for t in bad:
            with pytest.raises(ValueError):
                route(t, 1)


def test_maximal_types_match_set_route():
    for k in range(1, 7):
        assert ht.enumerate_maximal_types(k) == reference.maximal_types_sets(k), k


def test_symmetry_involution():
    rows = table()
    assert ht.symmetric_partner(rows["T2"]) == ht._type_from_c_sets(
        build_hk(1), frozenset({"r1", "b"}), frozenset({"b"})
    )
    for label, t in rows.items():
        assert ht.symmetric_partner(ht.symmetric_partner(t)) == t


def test_nhat_and_n_exact_examples():
    t4 = table()["T4"]
    assert ht.nhat(t4, 1, 1, 1) == 20
    assert ht.n_exact(t4, 1, 1, 1) == 0
    assert ht.n_exact(t4, 5, 4, 1) == 120 * 24 * 1
    for t in table().values():
        assert ht.n_exact(t, 2, 2, 1) <= ht.nhat(t, 2, 2, 1)


def test_brute_force_grid_matches_formula():
    for p, q, t in ((1, 1, 1), (2, 1, 1)):
        buckets = ht.brute_count_by_type(p, q, t, 1)
        hk = build_hk(1)
        inst = expand_blocked(build_j_blocked(p, q, t))
        from retraction_lab import exact

        assert sum(buckets.values()) == exact.count_retraction(inst, hk)
        for typ, cnt in buckets.items():
            assert ht.n_exact(typ, p, q, t) == cnt
            assert ht.is_nonempty_type(typ, 1)


def _census_per_map(p, q, tt, k):
    """The type census with one dict of images per map (`enumerate_homs`)
    and one HomType per map."""
    hk = build_hk(k)
    blocked = build_j_blocked(p, q, tt, k)
    names = {blk.name: block_vertex_names(blk) for blk in blocked.blocks}
    matchings = [list(zip(names[x], names[y])) for x, y in (("A", "B"), ("C", "C'"), ("B'", "A'"))]
    buckets = {}
    for hom in exact.enumerate_homs(expand_blocked(blocked), hk):
        t = ht.HomType(*(frozenset((hom[x], hom[y]) for x, y in m) for m in matchings))
        buckets[t] = buckets.get(t, 0) + 1
    return buckets


def test_brute_count_by_type_matches_the_per_map_census():
    # the grid the benchmark runs: the same types, counts and order
    for p, q, tt, k in ((1, 1, 1, 1), (2, 2, 1, 1), (1, 2, 1, 1), (2, 1, 1, 1), (1, 1, 1, 2), (1, 2, 1, 2)):
        assert list(ht.brute_count_by_type(p, q, tt, k).items()) == list(_census_per_map(p, q, tt, k).items())


def test_realized_types_lie_under_the_table():
    """Table 1 is complete: on the benchmark's census grid, every realized
    type is non-empty and lies, component by component, under a row or under
    that row's symmetric partner."""
    for p, q, tt, k in ((1, 1, 1, 1), (2, 2, 1, 1), (1, 2, 1, 1), (2, 1, 1, 1), (1, 1, 1, 2), (1, 2, 1, 2)):
        rows = [t for _, t in ht.enumerate_maximal_types(k)]
        tops = rows + [ht.symmetric_partner(t) for t in rows]
        for typ in ht.brute_count_by_type(p, q, tt, k):
            assert ht.is_nonempty_type(typ, k)
            assert any(typ.t1 <= m.t1 and typ.t2 <= m.t2 and typ.t3 <= m.t3 for m in tops), (p, q, tt, k, typ)


def test_brute_count_by_type_refuses_before_enumerating(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("enumerated")

    monkeypatch.setattr(exact._Search, "assignments", refuse)
    # few vertices, many homomorphisms: J(3, 1, 1) has 17 vertices and
    # 16 916 608 homomorphisms into H_12
    assert build_j_blocked(3, 1, 1, 12).expansion_size() == 17
    with pytest.raises(ValueError, match="guard is 200000"):
        ht.brute_count_by_type(3, 1, 1, 12)
    # a J far past the guard is refused as fast, at a small J of its chain
    with pytest.raises(ValueError, match="J\\(40,40,40\\) has at least 1463175 homomorphisms"):
        ht.brute_count_by_type(40, 40, 40, 1)


def test_brute_count_guard_admits_the_grids_in_use():
    # the eq-4 grid (the demo's J(2, 2, 1) among them), the benchmark's two
    # k = 2 points and J(3, 1, 1) into H_3, the J in use with the most
    # homomorphisms
    for p, q, t, k in (
        (1, 1, 1, 1), (2, 2, 1, 1), (1, 2, 1, 1), (2, 1, 1, 1), (1, 1, 1, 2), (1, 2, 1, 2), (3, 1, 1, 3)
    ):
        homs = exact.count_list_hom(expand_blocked(build_j_blocked(p, q, t, k)), build_hk(k))
        assert 0 < homs <= ht.BRUTE_HOM_GUARD
    assert homs == 129_439


def _p_and_q_swapped(real):
    return lambda t, p, q, tt: real(t, q, p, tt)


def test_n_exact_total_catches_a_wrong_n_exact(verify_results, monkeypatch):
    assert verify_results["types/n-exact-total"].passed
    assert ht.n_exact(table()["T4"], 5, 4, 1) > 0
    monkeypatch.setattr(ht, "n_exact", _p_and_q_swapped(ht.n_exact))
    assert not verify.check_n_exact_total().passed


def test_dominance_and_sandwich():
    p, q = choose_pq(1)
    assert (p, q) == (44, 52)
    rep = ht.dominance_report(1, p, q)
    assert rep.window_ok
    assert all(r < 1 for _, r in rep.per_step)
    assert rep.gamma < 1
    per = dict(rep.per_step)
    assert per["T1"] == Fraction(5**44, 4**52)
    assert ht.lemma43_scan(1, p, q, 8) == 1
    assert ht.lemma43_check(1, p, q, 2)


def test_dominance_fails_outside_window():
    # p = q violates q > p, making T2's ratio 1
    rep = ht.dominance_report(1, 44, 44)
    assert not rep.window_ok
    assert not all(r < 1 for _, r in rep.per_step)
