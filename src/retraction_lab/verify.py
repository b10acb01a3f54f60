"""Named property suites: every module's invariants, runnable as machine
checks.  The CLI `verify` command and the acceptance tests share these
implementations, and each check runs at one size, its acceptance size.

A check is declared once, where it is defined: `@_check(suite, name)` above
a function that returns the detail of a pass (or None) and raises
`_Failed(detail)` on a failure.  The declaration adds the check to
SUITES[suite], in definition order, and makes it a function of no arguments
that returns a CheckResult.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, product

from . import approx, csp, exact, files, gadgets, homtypes, reference
from . import classifier as classify
from ._seeds import derive, pyrng
from .fixedgraphs import (
    build_cycle,
    build_hk,
    build_hk_prime,
    build_j_blocked,
    build_jq,
    build_path,
    build_pbrp,
    build_reflexive_cycle,
    build_reflexive_path,
    build_star,
    build_two_wrench,
    build_wr,
)
from .graphs import DiGraph, Graph, connected_components, girth, neighbor_union, neighborhoods
from .instances import Block, BlockedInstance, Coupling, ListedInstance, expand_blocked


@dataclass(frozen=True)
class CheckResult:
    suite: str
    name: str
    passed: bool
    detail: str = ""

    def line(self) -> str:
        status = "pass" if self.passed else "FAIL"
        extra = f" ({self.detail})" if self.detail else ""
        return f"{self.suite}/{self.name}: {status}{extra}"


class _Failed(Exception):
    """A check's failure; its one argument, if any, is the detail."""


# suite -> its checks, in the order they are declared below
SUITES: dict[str, list] = {}


def _run(suite: str, name: str, fn, *args) -> CheckResult:
    """fn(*args) as the result of check suite/name: the one place a
    CheckResult is built."""
    try:
        passed, detail = True, fn(*args)
    except _Failed as failure:
        passed, detail = False, str(failure)
    return CheckResult(suite, name, passed, detail or "")


def _check(suite: str, name: str, per=None):
    """Declare the check suite/name and add it to SUITES[suite].  The
    decorated function returns a pass's detail (or None) and raises
    _Failed(detail) on a failure; the declared check is a function of no
    arguments that returns its CheckResult.  With `per`, the values x to
    check one at a time, the decorated function takes x, and the check
    returns one result per x, named name.format(x)."""

    def declare(fn):
        @functools.wraps(fn)
        def check() -> CheckResult | list[CheckResult]:
            if per is None:
                return _run(suite, name, fn)
            return [_run(suite, name.format(x), fn, x) for x in per]

        SUITES.setdefault(suite, []).append(check)
        return check

    return declare


# -- seeded corpora ------------------------------------------------------------


def random_graph(rng, n: int, p: float, prefix: str, loop_p: float = 0.0) -> Graph:
    """G(n, p) on prefix0 .. prefix{n-1}, each vertex looped with probability
    loop_p.  Per vertex i it draws the loop coin (none when loop_p is 0),
    then the coins of the pairs (i, j), j > i, in order."""
    verts = [f"{prefix}{i}" for i in range(n)]
    edges = []
    for i in range(n):
        if loop_p and rng.random() < loop_p:
            edges.append((verts[i], verts[i]))
        for j in range(i + 1, n):
            if rng.random() < p:
                edges.append((verts[i], verts[j]))
    return Graph(verts, edges)


def random_target(seed, max_n: int = 4) -> Graph:
    rng = pyrng("target", seed)
    return random_graph(rng, rng.randint(1, max_n), 0.5, "h", loop_p=0.4)


def random_pattern(seed, max_n: int = 6, p: float = 0.4) -> Graph:
    rng = pyrng("pattern", seed)
    return random_graph(rng, rng.randint(0, max_n), p, "g")


def random_lists(seed, pattern: Graph, target: Graph) -> dict[str, frozenset[str]]:
    rng = pyrng("lists", seed)
    out = {}
    for v in pattern.vertices:
        if rng.random() < 0.5:
            out[v] = frozenset(target.vertices)
        else:
            k = rng.randint(1, len(target.vertices))
            out[v] = frozenset(rng.sample(target.vertices, k))
    return out


def random_retraction_lists(seed, pattern: Graph, target: Graph) -> dict[str, frozenset[str]]:
    rng = pyrng("retlists", seed)
    out = {}
    for v in pattern.vertices:
        if rng.random() < 0.4:
            out[v] = frozenset((rng.choice(target.vertices),))
        else:
            out[v] = frozenset(target.vertices)
    return out


def random_imp_instance(seed, xs: tuple[str, ...], max_constraints: int = 5) -> csp.CspInstance:
    rng = pyrng("imp", seed)
    k = rng.randint(0, max_constraints)
    imps = []
    for _ in range(k):
        imps.append((rng.choice(xs), rng.choice(xs)))
    return csp.CspInstance(xs, tuple(dict.fromkeys(imps)))


# -- oracles suite --------------------------------------------------------------


@_check("oracles", "oracle-equivalence")
def check_oracle_equivalence() -> str:
    cases = 200
    for i in range(cases):
        target = random_target(("oe", i))
        pattern = random_pattern(("oe", i))
        lists = random_lists(("oe", i), pattern, target)
        inst = ListedInstance(pattern, lists, target.vertices)
        for mode in ("lhom", "sur", "comp"):
            fast = exact.count(inst, target, mode)
            slow = reference.naive_count(inst, target, mode)
            if fast != slow:
                raise _Failed(f"case {i} mode {mode}: {fast} != {slow}")
        if reference.count_surjective_ie(inst, target) != exact.count_surjective(inst, target):
            raise _Failed(f"case {i}: sur ie mismatch")
        if reference.count_compaction_ie(inst, target) != exact.count_compaction(inst, target):
            raise _Failed(f"case {i}: comp ie mismatch")
        # hom and retraction modes on their own shaped instances
        full = ListedInstance.full(pattern, target)
        if exact.count(full, target, "hom") != reference.naive_count(full, target, "hom"):
            raise _Failed(f"case {i}: hom mismatch")
        rinst = ListedInstance(
            pattern, random_retraction_lists(("oe", i), pattern, target), target.vertices
        )
        if exact.count(rinst, target, "ret") != reference.naive_count(rinst, target, "ret"):
            raise _Failed(f"case {i}: ret mismatch")
    return f"{cases} cases x 5 modes"


@_check("oracles", "decomposition")
def check_decomposition() -> str:
    cases = 100
    done = 0
    i = 0
    while done < cases:
        i += 1
        target = random_target(("dec-t", i))
        pattern = random_pattern(("dec-p", i), max_n=6, p=0.25)
        if len(connected_components(pattern)) < 2 or len(connected_components(target)) < 1:
            continue
        lists = random_lists(("dec", i), pattern, target)
        inst = ListedInstance(pattern, lists, target.vertices)
        dec = reference.count_by_components(inst, target)
        raw = exact.count_list_hom(inst, target)
        if dec != raw:
            raise _Failed(f"case {i}: {dec} != {raw}")
        done += 1
    return f"{cases} multi-component cases"


@_check("oracles", "monotonicity")
def check_monotonicity() -> None:
    cases = 60
    for i in range(cases):
        target = random_target(("mono", i))
        pattern = random_pattern(("mono", i), max_n=5)
        if len(pattern) == 0:
            continue
        lists = random_lists(("mono", i), pattern, target)
        inst = ListedInstance(pattern, lists, target.vertices)
        rng = pyrng("mono-shrink", i)
        v = rng.choice(pattern.vertices)
        if len(lists[v]) <= 1:
            continue
        drop = rng.choice(sorted(lists[v]))
        shrunk = dict(lists)
        shrunk[v] = lists[v] - {drop}
        sinst = ListedInstance(pattern, shrunk, target.vertices)
        for mode in ("lhom", "sur", "comp"):
            if exact.count(sinst, target, mode) > exact.count(inst, target, mode):
                raise _Failed(f"case {i} mode {mode}")


@_check("oracles", "lemma19-bounds")
def check_lemma19_bounds() -> str:
    a_max = 200
    for b in range(1, 11):
        lo = max(1, math.ceil(2 * b * math.log(b)) if b > 1 else 1)
        for a in range(lo, a_max + 1):
            s = exact.stirling_surjections(a, b)
            upper = b**a
            lower = Fraction(b**a) * (1 - Fraction(math.exp(-a / (2 * b))))
            if not (lower <= s <= upper):
                raise _Failed(f"a={a} b={b}")
    return f"b<=10, a<={a_max}"


@_check("oracles", "blocked-roundtrip")
def check_blocked_roundtrip() -> str:
    hk = build_hk(1)
    tw = build_two_wrench()
    fixtures = [
        (build_j_blocked(1, 1, 1), hk),
        (build_j_blocked(2, 1, 1), hk),
        (
            BlockedInstance(
                (Block("A", 3), Block("u", 1), Block("v", 1)),
                (Coupling("u", "A", "apex"), Coupling("v", "A", "apex"), Coupling("u", "v", "cb")),
                (("u", "b"),),
                tw.vertices,
            ),
            tw,
        ),
        (BlockedInstance((Block("A", 4),), (), (), tw.vertices), tw),
    ]
    for i, (blocked, target) in enumerate(fixtures):
        fast = exact.count_blocked(blocked, target)
        slow = exact.count_list_hom(expand_blocked(blocked), target)
        if fast != slow:
            raise _Failed(f"fixture {i}: {fast} != {slow}")
    return f"{len(fixtures)} fixtures"


@_check("oracles", "girth-crosscheck")
def check_girth_crosscheck() -> str:
    cases = 200
    for i in range(cases):
        rng = pyrng("girth", i)
        h = random_graph(rng, rng.randint(1, 8), 0.35, "v", loop_p=0.3)
        if girth(h) != reference.naive_girth(h):
            raise _Failed(f"case {i}")
    return f"{cases} graphs <= 8 vertices"


@_check("oracles", "gamma2-phi")
def check_gamma2_phi() -> None:
    cases = 120
    for i in range(cases):
        h = random_target(("g2", i), max_n=6)
        for u in h.vertices:
            g1, g2 = neighborhoods(h, u)
            if g2 != neighbor_union(h, g1):
                raise _Failed(f"case {i} vertex {u}")


@_check("oracles", "parse-roundtrip")
def check_parse_roundtrip() -> None:
    cases = 100
    for i in range(cases):
        h = random_target(("io", i), max_n=6)
        text = files.serialize_graph(h)
        again = files.parse_graph(text)
        if again != h or files.serialize_graph(again) != text:
            raise _Failed(f"case {i}")


# -- csp suite -------------------------------------------------------------------


def csp_parsimony_case(i: int):
    """Case i of the parsimony corpus: an undirected retraction instance with
    its (iv, ie) and the graph they build, and a directed one with its
    (iv, if_, ib) and the digraph they build."""
    rng = pyrng("pars", i)
    nx = rng.randint(1, 4)
    xs = tuple(f"x{j}" for j in range(nx))
    iv = random_imp_instance(("pars-iv", i), xs)
    ie = random_imp_instance(("pars-ie", i), xs)
    h = csp.build_graph_from_csp(iv, ie)
    pattern = random_pattern(("pars-g", i), max_n=5, p=0.5)
    lists = {}
    for v in pattern.vertices:
        if rng.random() < 0.4:
            lists[v] = frozenset((rng.choice(h.vertices),))
        else:
            lists[v] = frozenset(h.vertices)
    inst = ListedInstance(pattern, lists, h.vertices)
    if_ = random_imp_instance(("pars-if", i), xs)
    ib = random_imp_instance(("pars-ib", i), xs)
    dh = csp.build_digraph_from_csp(iv, if_, ib)
    arcs = []
    for a in pattern.vertices:
        for b in pattern.vertices:
            if a != b and rng.random() < 0.3:
                arcs.append((a, b))
    dpattern = DiGraph(pattern.vertices, arcs)
    dlists = {
        v: (frozenset((rng.choice(dh.vertices),)) if rng.random() < 0.4 else frozenset(dh.vertices))
        for v in dpattern.vertices
    }
    return (inst, iv, ie, h), (dpattern, dlists, iv, if_, ib, dh)


@_check("csp", "parsimony")
def check_csp_parsimony() -> str:
    cases = 100
    for i in range(cases):
        (inst, iv, ie, h), (dpattern, dlists, _, if_, ib, dh) = csp_parsimony_case(i)
        lhs = csp.count_csp(csp.translate_ret_to_csp(inst, iv, ie))
        rhs = exact.count_retraction(inst, h)
        if lhs != rhs:
            raise _Failed(f"case {i} undirected: {lhs} != {rhs}")
        lhs = csp.count_csp(csp.translate_dirret_to_csp(dpattern, dlists, iv, if_, ib))
        rhs = csp.count_dir_list_hom(dpattern, dlists, dh)
        if lhs != rhs:
            raise _Failed(f"case {i} directed: {lhs} != {rhs}")
    return f"{cases} cases, undirected + directed"


@_check("csp", "lemma33-structure")
def check_lemma33_structure() -> str:
    cases = 0
    for q in range(1, 5):
        for r in range(1, q + 1):
            for s_tuple in combinations(range(1, q + 1), r):
                s = frozenset(s_tuple)
                iv, ie = csp.pbrp_csp(q, s)
                built = csp.build_graph_from_csp(iv, ie)
                path, bristles = csp.pbrp_expected_labels(q, s)
                expected = set(path.values()) | set(bristles.values())
                comps = connected_components(built)
                core = [c for c in comps if len(c) > 1]
                if len(core) != 1:
                    raise _Failed(f"(q={q}, s={set(s)}): {len(core)} cores")
                if set(core[0].vertices) != expected:
                    raise _Failed(f"(q={q}, s={set(s)}): wrong core")
                for c in comps:
                    if len(c) == 1 and c.loop_mask():
                        raise _Failed(f"(q={q}, s={set(s)}): looped singleton")
                # exact edge match under the sigma labeling
                mapping = {path[i]: f"c{i}" for i in path}
                mapping.update({bristles[i]: f"g{i}" for i in bristles})
                relabeled = core[0].relabel(mapping)
                if relabeled != build_pbrp(q, s):
                    raise _Failed(f"(q={q}, s={set(s)}): not the bristled path")
                cases += 1
    return f"{cases} (q, s) cases"


@_check("csp", "extreme-assignments")
def check_extreme_assignments() -> None:
    cases = 60
    for i in range(cases):
        nx = pyrng("ext", i).randint(1, 4)
        xs = tuple(f"x{j}" for j in range(nx))
        iv = random_imp_instance(("ext-iv", i), xs)
        ie = random_imp_instance(("ext-ie", i), xs)
        h = csp.build_graph_from_csp(iv, ie)
        for name in ("0" * nx, "1" * nx):
            if name in h and not h.is_looped(name):
                raise _Failed(f"case {i}: {name} unlooped")


@_check("csp", "strip-subtract")
def check_strip_and_subtract() -> None:
    tw = build_two_wrench()
    h = Graph(
        list(tw.vertices) + ["s1", "s2", "t1", "t2"],
        tw.edges() + [("s1", "s1"), ("t1", "t2")],
    )
    core = csp.strip_trivial_components(h)
    if core.core != tw or len(core.stripped) != 3:
        raise _Failed("core extraction")
    pattern = build_path(3)
    f = core.f_value(pattern)
    whole = exact.count_list_hom(ListedInstance.full(pattern, h), h)
    part = exact.count_list_hom(ListedInstance.full(pattern, tw), tw)
    if csp.subtract_wrapper(whole, f) != part:
        raise _Failed("subtract identity")
    if csp.subtract_wrapper(5, 5) != 0:
        raise _Failed("k == count branch")
    try:
        csp.subtract_wrapper(0, 1)
    except ValueError:
        pass
    else:
        raise _Failed("negative accepted")


# -- types suite -------------------------------------------------------------------

# Table rows as (C-menu index, C'-menu index) -> expected Nhat base triple,
# with the (4+k)-dependent entry written as None
_TABLE_BASES = {
    "T1": (None, 1, None),
    "T2": (None, 2, 2),
    "T3": (None, 2, 2),
    "T4": (None, 4, 1),
    "T5": (2, 3, 2),
    "T6": (2, 4, 2),
    "T7": (2, 4, 2),
    "T8": (2, 6, 1),
    "T9": (2, 6, 1),
    "T10": (1, 9, 1),
}


@_check("types", "table1-k{}", per=(1, 2, 3))
def check_table1(k: int) -> str:
    rows = homtypes.enumerate_maximal_types(k)
    if len(rows) != 10:
        raise _Failed(f"{len(rows)} rows")
    ys = frozenset(f"y{i}" for i in range(1, k + 1))
    for label, t in rows:
        sizes = t.sizes()
        want = tuple(4 + k if b is None else b for b in _TABLE_BASES[label])
        if sizes != want:
            raise _Failed(f"{label}: sizes {sizes} != {want}")
        if not reference.is_maximal_type_sets(t, k):
            raise _Failed(f"{label} not maximal")
    a1 = dict(rows)["T1"].projections()[0]
    if a1 != frozenset(("b",)) | ys:
        raise _Failed("T1 A-projection")
    return "10 rows, projections and size triples"


@_check("types", "eq4-grid")
def check_eq4_grid() -> str:
    grid = [(1, 1, 1), (2, 2, 1), (1, 2, 1), (2, 1, 1)]
    for p, q, t in grid:
        buckets = homtypes.brute_count_by_type(p, q, t, 1)
        for typ, cnt in buckets.items():
            if homtypes.n_exact(typ, p, q, t) != cnt:
                raise _Failed(f"(p,q,t)=({p},{q},{t})")
            if not homtypes.is_nonempty_type(typ, 1):
                raise _Failed(f"empty realized type at ({p},{q},{t})")
        # zero cases: every maximal type absent from the buckets has N = 0
        for label, typ in homtypes.enumerate_maximal_types(1):
            if typ not in buckets and homtypes.n_exact(typ, p, q, t) != 0:
                raise _Failed(f"{label} should be zero at ({p},{q},{t})")
        total = sum(buckets.values())
        hk = build_hk(1)
        inst = expand_blocked(build_j_blocked(p, q, t))
        if total != exact.count_retraction(inst, hk):
            raise _Failed(f"partition total at ({p},{q},{t})")
    return f"grid {grid}"


@_check("types", "n-exact-total")
def check_n_exact_total() -> str:
    """Each homomorphism of J(5, 4, 1), where N(T4) > 0, has exactly one
    type, so N summed over the non-empty types is the kernel's count of J.
    A non-empty type has a non-empty pair set on each matching, A and A'
    inside Gamma(g), B, C, C' and B' inside Gamma(b), B joined to all of C
    and B' to all of C'."""
    p, q, t = 5, 4, 1

    def subsets(pairs):
        pairs = sorted(pairs)
        return [frozenset(c) for r in range(1, len(pairs) + 1) for c in combinations(pairs, r)]

    totals = []
    for k in (1, 2):
        hk = build_hk(k)
        gb, gg = hk.neighbors("b"), hk.neighbors("g")

        def joined(cs):
            return gb.intersection(*(hk.neighbors(c) for c in cs))

        total = sum(
            homtypes.n_exact(homtypes.HomType(t1, t2, t3), p, q, t)
            for t2 in subsets(homtypes.e_pairs(hk, gb, gb))
            for t1, t3 in product(
                subsets(homtypes.e_pairs(hk, gg, joined({c for c, _ in t2}))),
                subsets(homtypes.e_pairs(hk, joined({c for _, c in t2}), gg)),
            )
        )
        want = exact.count_blocked(build_j_blocked(p, q, t, k), hk)
        if total != want:
            raise _Failed(f"J({p},{q},{t}) into H_{k}: {total} != {want}")
        totals.append(f"H_{k}: {total}")
    return f"J({p},{q},{t}) into " + ", ".join(totals)


@_check("types", "symmetry")
def check_type_symmetry() -> None:
    buckets = homtypes.brute_count_by_type(1, 1, 1, 1)
    for typ, cnt in buckets.items():
        if buckets.get(homtypes.symmetric_partner(typ), 0) != cnt:
            raise _Failed(str(typ.sizes()))


@_check("types", "lemma45-fixed-points")
def check_lemma45_fixed_points() -> None:
    from .graphs import common_neighbors

    for k in (1, 2):
        hk = build_hk(k)
        gb = hk.neighbors("b")
        for label, t in homtypes.enumerate_maximal_types(k):
            _, _, c, cp, _, _ = t.projections()
            for cset in (c, cp):
                inner = frozenset(common_neighbors(hk, cset)) & gb
                outer = frozenset(common_neighbors(hk, inner)) & gb
                if outer != cset:
                    raise _Failed(f"k={k} {label}")


@_check("types", "lemma43-sandwich")
def check_lemma43() -> str:
    p, q = gadgets.choose_pq(1)
    t0 = homtypes.lemma43_scan(1, p, q, 8)
    if t0 is None:
        raise _Failed("no t0 <= 8")
    for t in range(t0, t0 + 4):
        if not homtypes.lemma43_check(1, p, q, t):
            raise _Failed(f"not monotone at t={t}")
    return f"(p,q)=({p},{q}), least t0={t0}"


@_check("types", "lemma47-dominance")
def check_lemma47() -> str:
    p, q = gadgets.choose_pq(1)
    rep = homtypes.dominance_report(1, p, q)
    if not rep.window_ok:
        raise _Failed("window")
    if len(rep.per_step) != 9:
        raise _Failed(f"{len(rep.per_step)} ratios")
    if not all(r < 1 for _, r in rep.per_step) or not rep.gamma < 1:
        raise _Failed("ratio >= 1")
    t1 = dict(rep.per_step)["T1"]
    if t1 != Fraction(4 + 1) ** p / Fraction(4) ** q:
        raise _Failed("T1 closed form")
    return f"gamma={float(rep.gamma):.4f}"


# -- gadgets suite -----------------------------------------------------------------


@_check("gadgets", "dirichlet-property")
def check_dirichlet() -> str:
    cases = 500
    for i in range(cases):
        rng = pyrng("dirichlet", i)
        d = rng.randint(1, 3)
        lams = [Fraction(rng.uniform(0.5, 4.0)).limit_denominator(10**6) for _ in range(d)]
        n = rng.choice((10, 100, 1000))
        ps, r = gadgets.dirichlet_approx(lams, n)
        if not (1 <= r <= n) or any(p < 1 for p in ps):
            raise _Failed(f"case {i}: bad (p, r)")
        for lam, p in zip(lams, ps):
            if abs(r * lam - p) ** d * n > 1:
                raise _Failed(f"case {i}: bound")
    return f"{cases} cases"


def _star_fixture():
    g = Graph(["z", "a", "b", "c"], [("z", "a"), ("z", "b"), ("z", "c")])
    return g, ("a", "b", "c")


@_check("gadgets", "cut-window")
def check_cut_window() -> str:
    g, (a, b, c) = _star_fixture()
    plan = gadgets.build_cut_instance(g, a, b, c, 2, build_jq(3), delta_prime=Fraction(1, 50))
    acc = gadgets.cut_accounting(plan)
    t_true = gadgets.count_multiterminal_cuts_bruteforce(g, a, b, c, 2)
    if acc.t_count != t_true:
        raise _Failed("T mismatch")
    ratio = Fraction(acc.z_value, plan.zstar)
    if not (t_true <= ratio <= t_true + Fraction(1, 4)):
        raise _Failed(f"Z/Z* = {ratio}")
    hom = exact.count_blocked(plan.blocked, plan.target)
    if hom != acc.z_by_edge_factors:
        raise _Failed("blocked count != edge-factor sum")
    est = gadgets.estimate_multiterminal_cuts(plan, gadgets.exact_blocked_oracle, 0.2)
    # the oracle class and the bare exact function must give the same estimate
    est2 = gadgets.estimate_multiterminal_cuts(plan, approx.ExactOracle().count, 0.2)
    if est != t_true or est2 != est:
        raise _Failed(f"estimates {est}, {est2}")
    return f"T={t_true}, Z/Z*={ratio}"


@_check("gadgets", "cut-psi")
def check_cut_psi() -> None:
    j3 = build_jq(3)
    path = Graph(["a", "b", "c"], [("a", "b"), ("b", "c")])
    tri = Graph(["a", "b", "c"], [("a", "b"), ("b", "c"), ("a", "c")])
    for g, budget in ((path, 2), (tri, 3)):
        plan = gadgets.build_cut_instance(g, "a", "b", "c", budget, j3, delta_prime=Fraction(1, 20))
        acc = gadgets.cut_accounting(plan)
        dw = j3.degree("w")
        for rec in acc.records:
            if rec.psi_size != dw ** (rec.kappa - 3):
                raise _Failed(f"{rec.edges}")
    # the bound direction on a fixture with a kappa-4 cut
    g, (a, b, c) = _star_fixture()
    plan = gadgets.build_cut_instance(g, a, b, c, 2, j3, delta_prime=Fraction(1, 50))
    acc = gadgets.cut_accounting(plan)
    dw = j3.degree("w")
    for rec in acc.records:
        if rec.psi_size > dw ** (rec.kappa - 3):
            raise _Failed("upper bound violated")


@_check("gadgets", "bichromatic-forcing")
def check_bichromatic_forcing() -> None:
    # one edge gadget with bichromatically pinned endpoints collapses to a
    # single homomorphism (all auxiliary vertices forced onto the hub)
    j3 = build_jq(3)
    blocks = [Block("u", 1), Block("v", 1)]
    couplings = []
    pins = [("u", "x0"), ("v", "y0")]
    for term, size in (("x0", 3), ("y0", 4), ("z0", 5)):
        name = f"blk:{term}"
        blocks.append(Block(name, size))
        couplings.append(Coupling("u", name, "apex"))
        couplings.append(Coupling("v", name, "apex"))
        tb = f"t:{term}"
        blocks.append(Block(tb, 1))
        pins.append((tb, term))
        couplings.append(Coupling(tb, name, "apex"))
    blocked = BlockedInstance(tuple(blocks), tuple(couplings), tuple(pins), j3.vertices)
    cnt = exact.count_blocked(blocked, j3)
    if cnt != 1:
        raise _Failed(f"count {cnt}")
    inst = expand_blocked(blocked)
    for hom in exact.enumerate_homs(inst, j3):
        if any(hom[x] != "w" for x in inst.pattern.vertices if x.startswith("blk:")):
            raise _Failed("non-hub image")


@_check("gadgets", "largecut-roundtrip")
def check_largecut_roundtrip() -> None:
    k2 = Graph(["u", "v"], [("u", "v")])
    plan = gadgets.build_largecut_instance(k2, 1, 1, p=1, q=1, t=1, s=1)
    if plan.blocked.expansion_size() != 17:
        raise _Failed("expansion size")
    via_blocked = exact.count_blocked(plan.blocked, plan.target)
    via_expand = exact.count_list_hom(expand_blocked(plan.blocked), plan.target)
    if via_blocked != via_expand:
        raise _Failed("count mismatch")
    big = gadgets.build_largecut_instance(build_cycle(3), 2, 1)
    if big.t != 81 or big.s != 4:
        raise _Failed("default parameters")
    try:
        exact.count_blocked(big.blocked, big.target)
    except ValueError:
        pass
    else:
        raise _Failed("guard not enforced")


@_check("gadgets", "largecut-identity")
def check_largecut_identity() -> str:
    """Criterion 11 where N(T4) > 0: 2 cuts(l) N(T4)^n 4^(s l) full
    homomorphisms have cut size l."""
    t4 = dict(homtypes.enumerate_maximal_types(1))["T4"]
    k2 = Graph(["u", "v"], [("u", "v")])
    plans = [
        gadgets.build_largecut_instance(g, 1, 1, p=5, q=4, t=1, s=s)
        for g in (k2, build_path(3))
        for s in (1, 2)
    ]
    plans.append(gadgets.build_largecut_instance(build_cycle(3), 2, 1))
    for plan in plans:
        g = plan.base
        nt4 = homtypes.n_exact(t4, plan.p, plan.q, plan.t)
        hist = gadgets.full_hom_histogram(plan)
        if not hist:
            raise _Failed(f"{len(g)}-vertex base at s={plan.s}: empty histogram")
        for ell in range(len(g.non_loop_edges()) + 1):
            cuts = gadgets.count_large_cuts_bruteforce(g, ell)
            if hist.get(ell, 0) != cuts * 2 * nt4 ** len(g) * 4 ** (plan.s * ell):
                raise _Failed(f"{len(g)}-vertex base at s={plan.s}, l={ell}")
    return "K2, P3 at (5,4,1,1) and (5,4,1,2); C3 at (44,52,81,4)"


@_check("gadgets", "pin-neighborhood")
def check_pin_neighborhood() -> str:
    cases = 50
    for i in range(cases):
        h = random_target(("pinn", i), max_n=4)
        rng = pyrng("pinn-u", i)
        u = rng.choice(h.vertices)
        pattern = random_pattern(("pinn-g", i), max_n=4)
        sub = h.induced(h.neighbors(u))
        lhs = (
            exact.count_list_hom(ListedInstance.full(pattern, sub), sub)
            if len(sub) or len(pattern) == 0
            else 0
        )
        inst = gadgets.pin_neighborhood_instance(pattern, h, u)
        rhs = exact.count_retraction(inst, h)
        if lhs != rhs:
            raise _Failed(f"case {i}: {lhs} != {rhs}")
    return f"{cases} cases"


@_check("gadgets", "j-shapes")
def check_j_shapes() -> None:
    hk = build_hk(1)
    j = build_j_blocked(1, 1, 1)
    if expand_blocked(j).pattern.vertices.__len__() != 9:
        raise _Failed("J(1,1,1) size")
    j2 = build_j_blocked(2, 3, 1)
    if j2.expansion_size() != 17:
        raise _Failed("J(2,3,1) size")
    if gadgets.choose_pq(1) != (44, 52):
        raise _Failed("choose_pq(1)")
    hkp = build_hk_prime(1)
    if len(hkp) != 5 or len(hkp.looped_vertices()) != 3 or len(hkp.non_loop_edges()) != 4:
        raise _Failed("H'_1 shape")
    if len(hk) != 9 or len(hk.looped_vertices()) != 6 or len(hk.non_loop_edges()) != 16:
        raise _Failed("H_1 shape")
    if 2 * hk.edge_count() != 32 + 12 * 1:
        raise _Failed("edge budget")


# -- approx suite ------------------------------------------------------------------


def _acceptance8_fixtures() -> list[tuple[str, Graph]]:
    return [
        ("K2", Graph(["a", "b"], [("a", "b")])),
        ("2-wrench", build_two_wrench()),
        ("P3", build_path(3)),
    ]


def acceptance8_graph(i: int) -> Graph:
    return random_graph(pyrng("acc8-graph", i), 5 + i % 3, 0.5, "g")


def _witness_key(witness) -> tuple:
    us, tau = witness
    return us, tuple(sorted(tau.items()))


@_check("approx", "exact-expectation")
def check_exact_expectation() -> None:
    """The witnesses must be `reference.naive_witnesses`, each once.  Under
    exact weights E[Y] = sum_i omega_i phat_i, the sum of the witnesses'
    first-occurrence counts, which must be the exact sur/comp count; each
    |Omega_i| must be the exact list count of its pinned instance; the
    kernel's t and Omega (`count_witnesses`, `count_witness_extensions`)
    must be the number of witnesses and the sum of those list counts; and
    eq. 9 bounds Omega / t by the count.  The witnesses and the partition
    are found naively, apart from the kernel."""
    for fname, target in _acceptance8_fixtures():
        for gi in range(6):
            g = acceptance8_graph(gi)
            inst = ListedInstance.full(g, target)
            for mode in ("sur", "comp"):
                where = f"{fname} graph {gi} {mode}"
                truth = exact.count(inst, target, mode)
                ts = approx.enumerate_T(inst, target, mode)
                if sorted(map(_witness_key, ts)) != sorted(
                    map(_witness_key, reference.naive_witnesses(inst, target, mode))
                ):
                    raise _Failed(f"{where}: witnesses")
                omegas, firsts = reference.coverage_partition(inst, target, ts)
                if sum(firsts) != truth:
                    raise _Failed(f"{where}: E[Y] = {sum(firsts)} != {truth}")
                for i, ((us, tau), w) in enumerate(zip(ts, omegas)):
                    pinned = inst
                    for u in us:
                        pinned = pinned.pin(u, tau[u])
                    if w != exact.count_list_hom(pinned, target):
                        raise _Failed(f"{where}: |Omega_{i}|")
                if approx.count_witnesses(inst, target, mode) != len(ts):
                    raise _Failed(f"{where}: kernel t")
                if approx.count_witness_extensions(inst, target, mode) != sum(omegas):
                    raise _Failed(f"{where}: kernel Omega")
                if ts and Fraction(sum(omegas), len(ts)) > truth:
                    raise _Failed(f"{where}: eq9 lower bound")


@_check("approx", "jvv-uniformity")
def check_jvv_uniformity() -> str:
    target = build_two_wrench()
    g = build_path(3)
    inst = ListedInstance.full(g, target)
    homs = [tuple(sorted(h.items())) for h in exact.enumerate_homs(inst, target)]
    n = len(homs)
    samples = 10_000
    oracle = approx.ExactOracle()
    rng = pyrng("jvv-uniformity")
    counts: dict = {}
    for _ in range(samples):
        tau = approx.sample_hom(oracle, inst, target, 0.01, rng=rng)
        key = tuple(sorted(tau.items()))
        counts[key] = counts.get(key, 0) + 1
    if set(counts) - set(homs):
        raise _Failed("non-homomorphism sampled")
    tv = Fraction(1, 2) * sum(
        abs(Fraction(counts.get(h, 0), samples) - Fraction(1, n)) for h in homs
    )
    if tv > Fraction(1, 20):
        raise _Failed(f"TV = {float(tv):.4f}")
    return f"TV = {float(tv):.4f} over {samples} samples"


@_check("approx", "padding-identity")
def check_padding() -> str:
    cases = 50
    for i in range(cases):
        target = random_target(("pad", i), max_n=4)
        pattern = random_pattern(("pad", i), max_n=4)
        lists = random_lists(("pad", i), pattern, target)
        inst = ListedInstance(pattern, lists, target.vertices)
        padded = approx.lhom_padding(inst, target)
        want = exact.count_list_hom(inst, target)
        if exact.count_surjective(padded, target) != want:
            raise _Failed(f"case {i} sur")
        if exact.count_compaction(padded, target) != want:
            raise _Failed(f"case {i} comp")
    return f"{cases} cases"


@_check("approx", "powered-count")
def check_powered_count() -> str:
    k2 = Graph(["a", "b"], [("a", "b")])
    inst = ListedInstance.full(build_path(3), k2)
    true = exact.count_list_hom(inst, k2)
    trials = 1000
    fails = 0
    lo, hi = true * math.exp(-0.1), true * math.exp(0.1)
    for i in range(trials):
        oracle = approx.NoisyOracle(0.1, 0.25, seed=derive("powered", i))
        x = approx.powered_count(oracle, inst, k2, 0.1, 1e-3)
        if not (lo <= x <= hi):
            fails += 1
    if fails > max(1, math.ceil(0.002 * trials)):
        raise _Failed(f"{fails}/{trials} failures")
    # delta >= 1/4 means a single call
    oracle = approx.ExactOracle()
    approx.powered_count(oracle, inst, k2, 0.5, 0.25)
    if oracle.calls != 1:
        raise _Failed("powering at delta = 1/4")
    return f"{fails}/{trials} failures"


@_check("approx", "seed-determinism")
def check_coverage_determinism() -> None:
    k2 = Graph(["a", "b"], [("a", "b")])
    inst = ListedInstance.full(acceptance8_graph(0), k2)
    r1 = approx.coverage_mc(inst, k2, "sur", 0.3, 0.2, approx.ExactOracle(), seed=42)
    r2 = approx.coverage_mc(inst, k2, "sur", 0.3, 0.2, approx.ExactOracle(), seed=42)
    if r1.y != r2.y or r1.x_total != r2.x_total:
        raise _Failed()
    # the collapsed sampler and the literal walk agree within the guarantee
    tiny = ListedInstance.full(k2, k2)
    truth = exact.count_compaction(tiny, k2)
    rj = approx.coverage_mc(tiny, k2, "comp", 0.5, 0.3, approx.ExactOracle(), seed=1, force_jvv=True)
    rf = approx.coverage_mc(tiny, k2, "comp", 0.5, 0.3, approx.ExactOracle(), seed=1)
    for run in (rj, rf):
        if not (truth * math.exp(-0.5) <= run.y <= truth * math.exp(0.5)):
            raise _Failed(f"{run.sampler} off-window")


@_check("approx", "algorithm1-statistics")
def check_algorithm1_statistics() -> str:
    """Algorithm 1's (eps, delta) guarantee at eps = 0.2, delta = 0.1, with
    an exact oracle: per fixture, 50 seeded runs in surjective and 50 in
    compaction mode over the first 20 corpus graphs, of which at least 85 of
    the 100 must land within e^(+-eps) of the exact count."""
    eps, delta = 0.2, 0.1
    lo, hi = (Fraction(math.exp(x)).limit_denominator(10**12) for x in (-eps, eps))
    hits = {}
    for fname, target in _acceptance8_fixtures():
        hits[fname] = 0
        for mode in ("sur", "comp"):
            for r in range(50):
                inst = ListedInstance.full(acceptance8_graph(r % 20), target)
                truth = exact.count(inst, target, mode)
                seed = derive("acc8", fname, mode, r)
                run = approx.coverage_mc(inst, target, mode, eps, delta, approx.ExactOracle(), seed)
                hits[fname] += truth * lo <= run.y <= truth * hi
    detail = "; ".join(f"{f}: {h}/100" for f, h in sorted(hits.items()))
    if min(hits.values()) < 85:
        raise _Failed(detail)
    return detail


# -- classify suite ----------------------------------------------------------------


def classifier_fixture_rows() -> list[tuple[str, Graph, str, str]]:
    wr3 = build_wr(3)
    wr3_apex = Graph(
        [],
        wr3.edges() + [("apex", "apex")] + [("apex", f"l{i}") for i in (1, 2, 3)],
    )
    caterpillar = Graph(
        [], [("a", "b"), ("b", "c"), ("c", "d"), ("d", "e"), ("c", "f")]
    )
    return [
        ("irreflexive star", build_star(3), classify.CLASS_FP, "Thm1.i"),
        ("looped vertex", Graph([], [("a", "a")]), classify.CLASS_FP, "Thm1.i"),
        ("reflexive K2", build_reflexive_path(2), classify.CLASS_FP, "Thm1.i"),
        ("2-wrench", build_two_wrench(), classify.CLASS_BIS, "Thm1.ii"),
        ("bristled path fig", build_pbrp(4, {1, 3, 4}), classify.CLASS_BIS, "Thm1.ii"),
        ("reflexive P5", build_reflexive_path(5), classify.CLASS_BIS, "Thm1.ii"),
        ("caterpillar", caterpillar, classify.CLASS_BIS, "Thm1.ii"),
        ("J3", build_jq(3), classify.CLASS_SAT, "Thm5.iii"),
        ("reflexive C5", build_reflexive_cycle(5), classify.CLASS_SAT, "Thm1.iii"),
        ("irreflexive C5", build_cycle(5), classify.CLASS_SAT, "Thm5.iii"),
        ("WR3 apex", wr3_apex, classify.CLASS_SAT, "Lem26"),
        ("irreflexive C4", build_cycle(4), classify.CLASS_UNCLASSIFIED, "unclassified"),
    ]


@_check("classify", "fixture-table")
def check_classifier_table() -> str:
    for name, h, want_cls, want_clause in classifier_fixture_rows():
        v = classify.classify(h)
        if v.cls != want_cls or v.clause != want_clause:
            raise _Failed(f"{name}: got ({v.cls}, {v.clause}), want ({want_cls}, {want_clause})")
    return "12 fixtures"


def _random_girth5_graph(seed, allow_loops: bool) -> Graph:
    rng = pyrng("g5", seed)
    while True:
        h = random_graph(rng, rng.randint(1, 8), 0.25, "v", loop_p=0.5 if allow_loops else 0.0)
        if girth(h) >= 5:
            comps = connected_components(h)
            return comps[pyrng("g5-pick", seed).randrange(len(comps))]


def _simple_paths(h: Graph):
    """Every simple path of h as a vertex list, in both orientations, single
    vertices included."""
    stack = [[v] for v in h.vertices]
    while stack:
        path = stack.pop()
        yield path
        stack += [path + [w] for w in h.neighbors(path[-1]) if w not in path]


def _theorem1_clause(h: Graph) -> tuple[str, str]:
    """(class, clause) of a connected girth >= 5 graph straight from the
    definitions in Theorem 1, by brute force over simple paths; it shares no
    code with the classifier's recognizers.  Desk scale only."""
    vs = h.vertices
    n = len(vs)
    edges = h.non_loop_edges()
    looped = h.looped_vertices()
    if not looped:
        # a star: one vertex adjacent to all others, and n - 1 edges
        if len(edges) == n - 1 and any(len(h.neighbors(c)) == n - 1 for c in vs):
            return classify.CLASS_FP, "Thm1.i"
        # a caterpillar: a tree with a simple path every vertex is on or next to
        if len(edges) == n - 1 and any(
            all(v in path or h.neighbors(v) & set(path) for v in vs) for path in _simple_paths(h)
        ):
            return classify.CLASS_BIS, "Thm1.ii"
        return classify.CLASS_SAT, "Thm5.iii"
    # a looped vertex, or two looped vertices joined by an edge
    if n == 1 or (n == 2 and len(looped) == 2):
        return classify.CLASS_FP, "Thm1.i"
    # a partially bristled reflexive path: an ordering of the looped vertices
    # that induces exactly a path, each unlooped vertex a pendant on its own
    # internal vertex of that path
    lset = set(looped)
    anchors = [h.neighbors(u) for u in vs if u not in lset]
    pendant = all(len(a) == 1 for a in anchors) and len(set(anchors)) == len(anchors)
    if pendant and sum(1 for a, b in edges if a in lset and b in lset) == len(looped) - 1:
        tips = set().union(*anchors)
        for order in _simple_paths(h.induced(looped)):
            if len(order) == len(looped) and tips <= set(order[1:-1]):
                return classify.CLASS_BIS, "Thm1.ii"
    return classify.CLASS_SAT, "Thm1.iii"


def _random_tree_like(seed) -> Graph:
    """A connected girth >= 5 graph on 1..8 vertices: a random tree, at
    times with one more edge, then no loops, all loops, loops at random, or
    loops on the non-leaves and at random on the leaves, so that stars,
    caterpillars, other trees, bristled paths and near misses of each turn
    up."""
    rng = pyrng("thm1", seed)
    while True:
        n = max(rng.randint(1, 8), rng.randint(1, 8))
        vs = [f"v{i}" for i in range(n)]
        edges = [(vs[rng.randrange(j)], vs[j]) for j in range(1, n)]
        if n >= 5 and rng.random() < 0.3:
            edges.append(tuple(rng.sample(vs, 2)))
        tree = Graph(vs, edges)
        style = rng.randrange(4)
        edges += [
            (v, v) for v in vs
            if style == 1
            or style == 2 and rng.random() < 0.5
            or style == 3 and (tree.degree(v) >= 2 or rng.random() < 0.5)
        ]
        h = Graph(vs, edges)
        if girth(h) >= 5:
            return h


@_check("classify", "theorem1-partition")
def check_theorem1_partition() -> str:
    cases = 600
    for i in range(cases):
        h = _random_tree_like(i)
        cv = classify.classify_component(h)
        want = _theorem1_clause(h)
        if (cv.cls, cv.clause) != want:
            raise _Failed(f"case {i}: classifier ({cv.cls}, {cv.clause}), definitions {want}")
    return f"{cases} random girth->=5 components"


@_check("classify", "caterpillar-harary")
def check_caterpillar_harary() -> str:
    cases = 200
    for i in range(cases):
        h = _random_girth5_graph(("cat", i), allow_loops=False)
        is_tree = girth(h) == math.inf
        lhs = classify.is_caterpillar(h)
        rhs = is_tree and classify.has_induced_J3(h) is None
        if lhs != rhs:
            raise _Failed(f"case {i}")
    spider = Graph([], [("c", "a0"), ("a0", "a1"), ("c", "b0"), ("b0", "b1"), ("c", "d0")])
    if classify.has_induced_J3(spider) is not None or not classify.is_caterpillar(spider):
        raise _Failed("legs-2-2-1 spider")
    return f"{cases} cases"


@_check("classify", "pbrp-implies-bis")
def check_pbrp_implies_bis() -> None:
    shapes = [(1, frozenset({1}))]
    for q in (1, 2, 3, 4):
        shapes += [
            (q, frozenset(s))
            for r in range(1, q + 1)
            for s in combinations(range(1, q + 1), r)
        ]
    for q, s in shapes:
        h = build_pbrp(q, s)
        if classify.is_pbrp(h) is None:
            raise _Failed(f"({q}, {set(s)}) unrecognized")
        v = classify.classify(h)
        if v.cls != classify.CLASS_BIS:
            raise _Failed(f"({q}, {set(s)}): {v.cls}")
    for n, want in ((1, classify.CLASS_FP), (2, classify.CLASS_FP), (3, classify.CLASS_BIS)):
        h = build_reflexive_path(n)
        if classify.is_pbrp(h) is None or classify.classify(h).cls != want:
            raise _Failed(f"reflexive path {n}")


@_check("classify", "sat-witnesses")
def check_sat_witnesses() -> str:
    cases = 200
    seen_sat = 0
    for i in range(cases):
        h = _random_girth5_graph(("satw", i), allow_loops=True)
        if h.is_irreflexive():
            continue
        cv = classify.classify_component(h)
        if cv.cls != classify.CLASS_SAT:
            continue
        seen_sat += 1
        labels = {w[0] for w in cv.witnesses}
        if not labels:
            raise _Failed(f"case {i}: no structural witness")
        all_pendant = all(h.degree(v) == 1 for v in h.unlooped_vertices())
        if all_pendant:
            allowed = {classify.WITNESS_WR, classify.WITNESS_NON_2WRENCH, classify.WITNESS_REFL_CYCLE}
        else:
            allowed = {classify.WITNESS_WR, classify.WITNESS_NON_2WRENCH, classify.WITNESS_DIST2}
        if not labels & allowed:
            raise _Failed(f"case {i}: labels {labels} outside proof dichotomy")
    return f"{seen_sat} SAT components examined"


@_check("classify", "component-order")
def check_component_order() -> None:
    rows = classifier_fixture_rows()
    for i in range(0, len(rows) - 1, 2):
        _, h1, _, _ = rows[i]
        _, h2, _, _ = rows[i + 1]
        a = Graph(
            [f"a.{v}" for v in h1.vertices] + [f"b.{v}" for v in h2.vertices],
            [(f"a.{u}", f"a.{v}") for u, v in h1.edges()]
            + [(f"b.{u}", f"b.{v}") for u, v in h2.edges()],
        )
        b = Graph(
            [f"b.{v}" for v in h1.vertices] + [f"a.{v}" for v in h2.vertices],
            [(f"b.{u}", f"b.{v}") for u, v in h1.edges()]
            + [(f"a.{u}", f"a.{v}") for u, v in h2.edges()],
        )
        va, vb = classify.classify(a), classify.classify(b)
        if va.cls != vb.cls:
            raise _Failed(f"pair {i}")


def run_suite(name: str) -> list[CheckResult]:
    if name == "all":
        out = []
        for suite in SUITES:
            out += run_suite(suite)
        return out
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from {sorted(SUITES)} or 'all'")
    out = []
    for fn in SUITES[name]:
        res = fn()
        out += res if isinstance(res, list) else [res]
    return out
