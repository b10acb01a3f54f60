"""Named property suites: every module's invariants, runnable as machine
checks.  The CLI `verify` command and the acceptance tests share these
implementations; `quick` shrinks corpus sizes, never tolerances.
"""
from __future__ import annotations

import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

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
    rebind_target,
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


def worker_count() -> int:
    try:
        return max(1, int(os.environ.get("RETRACTION_LAB_THREADS", "1")))
    except ValueError:
        return 1


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


def check_oracle_equivalence(quick: bool) -> CheckResult:
    cases = 40 if quick else 200
    for i in range(cases):
        target = random_target(("oe", i))
        pattern = random_pattern(("oe", i))
        lists = random_lists(("oe", i), pattern, target)
        inst = ListedInstance(pattern, lists, target.vertices)
        for mode in ("lhom", "sur", "comp"):
            fast = exact.count(inst, target, mode)
            slow = reference.naive_count(inst, target, mode)
            if fast != slow:
                return CheckResult(
                    "oracles", "oracle-equivalence", False,
                    f"case {i} mode {mode}: {fast} != {slow}",
                )
        if reference.count_surjective_ie(inst, target) != exact.count_surjective(inst, target):
            return CheckResult("oracles", "oracle-equivalence", False, f"case {i}: sur ie mismatch")
        if reference.count_compaction_ie(inst, target) != exact.count_compaction(inst, target):
            return CheckResult("oracles", "oracle-equivalence", False, f"case {i}: comp ie mismatch")
        # hom and retraction modes on their own shaped instances
        full = ListedInstance.full(pattern, target)
        if exact.count(full, target, "hom") != reference.naive_count(full, target, "hom"):
            return CheckResult("oracles", "oracle-equivalence", False, f"case {i}: hom mismatch")
        rinst = ListedInstance(
            pattern, random_retraction_lists(("oe", i), pattern, target), target.vertices
        )
        if exact.count(rinst, target, "ret") != reference.naive_count(rinst, target, "ret"):
            return CheckResult("oracles", "oracle-equivalence", False, f"case {i}: ret mismatch")
    return CheckResult("oracles", "oracle-equivalence", True, f"{cases} cases x 5 modes")


def check_decomposition(quick: bool) -> CheckResult:
    cases = 20 if quick else 100
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
            return CheckResult("oracles", "decomposition", False, f"case {i}: {dec} != {raw}")
        done += 1
    return CheckResult("oracles", "decomposition", True, f"{cases} multi-component cases")


def check_monotonicity(quick: bool) -> CheckResult:
    cases = 15 if quick else 60
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
                return CheckResult("oracles", "monotonicity", False, f"case {i} mode {mode}")
    return CheckResult("oracles", "monotonicity", True)


def check_lemma19_bounds(quick: bool) -> CheckResult:
    a_max = 80 if quick else 200
    for b in range(1, 11):
        lo = max(1, math.ceil(2 * b * math.log(b)) if b > 1 else 1)
        for a in range(lo, a_max + 1):
            s = exact.stirling_surjections(a, b)
            upper = b**a
            lower = Fraction(b**a) * (1 - Fraction(math.exp(-a / (2 * b))))
            if not (lower <= s <= upper):
                return CheckResult("oracles", "lemma19-bounds", False, f"a={a} b={b}")
    return CheckResult("oracles", "lemma19-bounds", True, f"b<=10, a<={a_max}")


def check_blocked_roundtrip(quick: bool) -> CheckResult:
    hk = build_hk(1)
    tw = build_two_wrench()
    fixtures = [
        (rebind_target(build_j_blocked(1, 1, 1), hk), hk),
        (rebind_target(build_j_blocked(2, 1, 1), hk), hk),
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
            return CheckResult("oracles", "blocked-roundtrip", False, f"fixture {i}: {fast} != {slow}")
    return CheckResult("oracles", "blocked-roundtrip", True, f"{len(fixtures)} fixtures")


def check_girth_crosscheck(quick: bool) -> CheckResult:
    cases = 60 if quick else 200
    for i in range(cases):
        rng = pyrng("girth", i)
        h = random_graph(rng, rng.randint(1, 8), 0.35, "v", loop_p=0.3)
        if girth(h) != reference.naive_girth(h):
            return CheckResult("oracles", "girth-crosscheck", False, f"case {i}")
    return CheckResult("oracles", "girth-crosscheck", True, f"{cases} graphs <= 8 vertices")


def check_gamma2_phi(quick: bool) -> CheckResult:
    cases = 40 if quick else 120
    for i in range(cases):
        h = random_target(("g2", i), max_n=6)
        for u in h.vertices:
            g1, g2 = neighborhoods(h, u)
            if g2 != neighbor_union(h, g1):
                return CheckResult("oracles", "gamma2-phi", False, f"case {i} vertex {u}")
    return CheckResult("oracles", "gamma2-phi", True)


def check_parse_roundtrip(quick: bool) -> CheckResult:
    cases = 30 if quick else 100
    for i in range(cases):
        h = random_target(("io", i), max_n=6)
        text = files.serialize_graph(h)
        again = files.parse_graph(text)
        if again != h or files.serialize_graph(again) != text:
            return CheckResult("oracles", "parse-roundtrip", False, f"case {i}")
    return CheckResult("oracles", "parse-roundtrip", True)


# -- csp suite -------------------------------------------------------------------


def _csp_parsimony_case(i: int) -> tuple[bool, str]:
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
    lhs = csp.count_csp(csp.translate_ret_to_csp(inst, iv, ie))
    rhs = exact.count_retraction(inst, h)
    if lhs != rhs:
        return False, f"case {i} undirected: {lhs} != {rhs}"
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
    lhsd = csp.count_csp(csp.translate_dirret_to_csp(dpattern, dlists, iv, if_, ib))
    rhsd = csp.count_dir_list_hom(dpattern, dlists, dh)
    if lhsd != rhsd:
        return False, f"case {i} directed: {lhsd} != {rhsd}"
    return True, ""


def check_csp_parsimony(quick: bool) -> CheckResult:
    cases = 20 if quick else 100
    for i in range(cases):
        ok, detail = _csp_parsimony_case(i)
        if not ok:
            return CheckResult("csp", "parsimony", False, detail)
    return CheckResult("csp", "parsimony", True, f"{cases} cases, undirected + directed")


def check_lemma33_structure(quick: bool) -> CheckResult:
    qs = range(1, 3) if quick else range(1, 5)
    cases = 0
    for q in qs:
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
                    return CheckResult("csp", "lemma33-structure", False, f"(q={q}, s={set(s)}): {len(core)} cores")
                if set(core[0].vertices) != expected:
                    return CheckResult("csp", "lemma33-structure", False, f"(q={q}, s={set(s)}): wrong core")
                for c in comps:
                    if len(c) == 1 and c.loop_mask():
                        return CheckResult("csp", "lemma33-structure", False, f"(q={q}, s={set(s)}): looped singleton")
                # exact edge match under the sigma labeling
                mapping = {path[i]: f"c{i}" for i in path}
                mapping.update({bristles[i]: f"g{i}" for i in bristles})
                relabeled = core[0].relabel(mapping)
                if relabeled != build_pbrp(q, s):
                    return CheckResult("csp", "lemma33-structure", False, f"(q={q}, s={set(s)}): not the bristled path")
                cases += 1
    return CheckResult("csp", "lemma33-structure", True, f"{cases} (q, s) cases")


def check_extreme_assignments(quick: bool) -> CheckResult:
    cases = 20 if quick else 60
    for i in range(cases):
        nx = pyrng("ext", i).randint(1, 4)
        xs = tuple(f"x{j}" for j in range(nx))
        iv = random_imp_instance(("ext-iv", i), xs)
        ie = random_imp_instance(("ext-ie", i), xs)
        h = csp.build_graph_from_csp(iv, ie)
        for name in ("0" * nx, "1" * nx):
            if name in h and not h.is_looped(name):
                return CheckResult("csp", "extreme-assignments", False, f"case {i}: {name} unlooped")
    return CheckResult("csp", "extreme-assignments", True)


def check_strip_and_subtract(quick: bool) -> CheckResult:
    tw = build_two_wrench()
    h = Graph(
        list(tw.vertices) + ["s1", "s2", "t1", "t2"],
        tw.edges() + [("s1", "s1"), ("t1", "t2")],
    )
    core = csp.strip_trivial_components(h)
    if core.core != tw or len(core.stripped) != 3:
        return CheckResult("csp", "strip-subtract", False, "core extraction")
    pattern = build_path(3)
    f = core.f_value(pattern)
    whole = exact.count_list_hom(ListedInstance.full(pattern, h), h)
    part = exact.count_list_hom(ListedInstance.full(pattern, tw), tw)
    if csp.subtract_wrapper(whole, f) != part:
        return CheckResult("csp", "strip-subtract", False, "subtract identity")
    if csp.subtract_wrapper(5, 5) != 0:
        return CheckResult("csp", "strip-subtract", False, "k == count branch")
    try:
        csp.subtract_wrapper(0, 1)
        return CheckResult("csp", "strip-subtract", False, "negative accepted")
    except ValueError:
        pass
    return CheckResult("csp", "strip-subtract", True)


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


def check_table1(quick: bool) -> list[CheckResult]:
    ks = (1,) if quick else (1, 2, 3)
    out = []
    for k in ks:
        out.append(_check_table1_single(k))
    return out


def _check_table1_single(k: int) -> CheckResult:
    name = f"table1-k{k}"
    rows = homtypes.enumerate_maximal_types(k)
    if len(rows) != 10:
        return CheckResult("types", name, False, f"{len(rows)} rows")
    ys = frozenset(f"y{i}" for i in range(1, k + 1))
    for label, t in rows:
        sizes = t.sizes()
        want = tuple(4 + k if b is None else b for b in _TABLE_BASES[label])
        if sizes != want:
            return CheckResult("types", name, False, f"{label}: sizes {sizes} != {want}")
        if not reference.is_maximal_type_sets(t, k):
            return CheckResult("types", name, False, f"{label} not maximal")
    a1 = dict(rows)["T1"].projections()[0]
    if a1 != frozenset(("b",)) | ys:
        return CheckResult("types", name, False, "T1 A-projection")
    return CheckResult("types", name, True, "10 rows, projections and size triples")


def check_eq4_grid(quick: bool) -> CheckResult:
    grid = [(1, 1, 1)] if quick else [(1, 1, 1), (2, 2, 1), (1, 2, 1), (2, 1, 1)]
    for p, q, t in grid:
        buckets = homtypes.brute_count_by_type(p, q, t, 1)
        for typ, cnt in buckets.items():
            if homtypes.n_exact(typ, p, q, t) != cnt:
                return CheckResult("types", "eq4-grid", False, f"(p,q,t)=({p},{q},{t})")
            if not homtypes.is_nonempty_type(typ, 1):
                return CheckResult("types", "eq4-grid", False, f"empty realized type at ({p},{q},{t})")
        # zero cases: every maximal type absent from the buckets has N = 0
        for label, typ in homtypes.enumerate_maximal_types(1):
            if typ not in buckets and homtypes.n_exact(typ, p, q, t) != 0:
                return CheckResult("types", "eq4-grid", False, f"{label} should be zero at ({p},{q},{t})")
        total = sum(buckets.values())
        hk = build_hk(1)
        inst = expand_blocked(rebind_target(build_j_blocked(p, q, t), hk))
        if total != exact.count_retraction(inst, hk):
            return CheckResult("types", "eq4-grid", False, f"partition total at ({p},{q},{t})")
    return CheckResult("types", "eq4-grid", True, f"grid {grid}")


def check_type_symmetry(quick: bool) -> CheckResult:
    buckets = homtypes.brute_count_by_type(1, 1, 1, 1)
    for typ, cnt in buckets.items():
        if buckets.get(homtypes.symmetric_partner(typ), 0) != cnt:
            return CheckResult("types", "symmetry", False, str(typ.sizes()))
    return CheckResult("types", "symmetry", True)


def check_lemma45_fixed_points(quick: bool) -> CheckResult:
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
                    return CheckResult("types", "lemma45-fixed-points", False, f"k={k} {label}")
    return CheckResult("types", "lemma45-fixed-points", True)


def check_lemma43(quick: bool) -> CheckResult:
    p, q = gadgets.choose_pq(1)
    t0 = homtypes.lemma43_scan(1, p, q, 8)
    if t0 is None:
        return CheckResult("types", "lemma43-sandwich", False, "no t0 <= 8")
    for t in range(t0, t0 + (2 if quick else 4)):
        if not homtypes.lemma43_check(1, p, q, t):
            return CheckResult("types", "lemma43-sandwich", False, f"not monotone at t={t}")
    return CheckResult("types", "lemma43-sandwich", True, f"(p,q)=({p},{q}), least t0={t0}")


def check_lemma47(quick: bool) -> CheckResult:
    p, q = gadgets.choose_pq(1)
    rep = homtypes.dominance_report(1, p, q)
    if not rep.window_ok:
        return CheckResult("types", "lemma47-dominance", False, "window")
    if len(rep.per_step) != 9:
        return CheckResult("types", "lemma47-dominance", False, f"{len(rep.per_step)} ratios")
    if not all(r < 1 for _, r in rep.per_step) or not rep.gamma < 1:
        return CheckResult("types", "lemma47-dominance", False, "ratio >= 1")
    t1 = dict(rep.per_step)["T1"]
    if t1 != Fraction(4 + 1) ** p / Fraction(4) ** q:
        return CheckResult("types", "lemma47-dominance", False, "T1 closed form")
    return CheckResult("types", "lemma47-dominance", True, f"gamma={float(rep.gamma):.4f}")


# -- gadgets suite -----------------------------------------------------------------


def check_dirichlet(quick: bool) -> CheckResult:
    cases = 100 if quick else 500
    for i in range(cases):
        rng = pyrng("dirichlet", i)
        d = rng.randint(1, 3)
        lams = [Fraction(rng.uniform(0.5, 4.0)).limit_denominator(10**6) for _ in range(d)]
        n = rng.choice((10, 100, 1000))
        ps, r = gadgets.dirichlet_approx(lams, n)
        if not (1 <= r <= n) or any(p < 1 for p in ps):
            return CheckResult("gadgets", "dirichlet-property", False, f"case {i}: bad (p, r)")
        for lam, p in zip(lams, ps):
            if abs(r * lam - p) ** d * n > 1:
                return CheckResult("gadgets", "dirichlet-property", False, f"case {i}: bound")
    return CheckResult("gadgets", "dirichlet-property", True, f"{cases} cases")


def _star_fixture():
    g = Graph(["z", "a", "b", "c"], [("z", "a"), ("z", "b"), ("z", "c")])
    return g, ("a", "b", "c")


def check_cut_window(quick: bool) -> CheckResult:
    g, (a, b, c) = _star_fixture()
    plan = gadgets.build_cut_instance(g, a, b, c, 2, build_jq(3), delta_prime=Fraction(1, 50))
    acc = gadgets.cut_accounting(plan)
    t_true = gadgets.count_multiterminal_cuts_bruteforce(g, a, b, c, 2)
    if acc.t_count != t_true:
        return CheckResult("gadgets", "cut-window", False, "T mismatch")
    ratio = Fraction(acc.z_value, plan.zstar)
    if not (t_true <= ratio <= t_true + Fraction(1, 4)):
        return CheckResult("gadgets", "cut-window", False, f"Z/Z* = {ratio}")
    hom = exact.count_blocked(plan.blocked, plan.target)
    if hom != acc.z_by_edge_factors:
        return CheckResult("gadgets", "cut-window", False, "blocked count != edge-factor sum")
    est = gadgets.estimate_multiterminal_cuts(plan, gadgets.exact_blocked_oracle, 0.2)
    # the oracle class and the bare exact function must give the same estimate
    est2 = gadgets.estimate_multiterminal_cuts(plan, approx.ExactOracle().count, 0.2)
    if est != t_true or est2 != est:
        return CheckResult("gadgets", "cut-window", False, f"estimates {est}, {est2}")
    return CheckResult("gadgets", "cut-window", True, f"T={t_true}, Z/Z*={ratio}")


def check_cut_psi(quick: bool) -> CheckResult:
    j3 = build_jq(3)
    path = Graph(["a", "b", "c"], [("a", "b"), ("b", "c")])
    tri = Graph(["a", "b", "c"], [("a", "b"), ("b", "c"), ("a", "c")])
    for g, budget in ((path, 2), (tri, 3)):
        plan = gadgets.build_cut_instance(g, "a", "b", "c", budget, j3, delta_prime=Fraction(1, 20))
        acc = gadgets.cut_accounting(plan)
        dw = j3.degree("w")
        for rec in acc.records:
            if rec.psi_size != dw ** (rec.kappa - 3):
                return CheckResult("gadgets", "cut-psi", False, f"{rec.edges}")
    # the bound direction on a fixture with a kappa-4 cut
    g, (a, b, c) = _star_fixture()
    plan = gadgets.build_cut_instance(g, a, b, c, 2, j3, delta_prime=Fraction(1, 50))
    acc = gadgets.cut_accounting(plan)
    dw = j3.degree("w")
    for rec in acc.records:
        if rec.psi_size > dw ** (rec.kappa - 3):
            return CheckResult("gadgets", "cut-psi", False, "upper bound violated")
    return CheckResult("gadgets", "cut-psi", True)


def check_bichromatic_forcing(quick: bool) -> CheckResult:
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
        return CheckResult("gadgets", "bichromatic-forcing", False, f"count {cnt}")
    inst = expand_blocked(blocked)
    for hom in exact.enumerate_homs(inst, j3):
        if any(hom[x] != "w" for x in inst.pattern.vertices if x.startswith("blk:")):
            return CheckResult("gadgets", "bichromatic-forcing", False, "non-hub image")
    return CheckResult("gadgets", "bichromatic-forcing", True)


def check_largecut_roundtrip(quick: bool) -> CheckResult:
    k2 = Graph(["u", "v"], [("u", "v")])
    plan = gadgets.build_largecut_instance(k2, 1, 1, p=1, q=1, t=1, s=1)
    if plan.blocked.expansion_size() != 17:
        return CheckResult("gadgets", "largecut-roundtrip", False, "expansion size")
    via_blocked = exact.count_blocked(plan.blocked, plan.target)
    via_expand = exact.count_list_hom(expand_blocked(plan.blocked), plan.target)
    if via_blocked != via_expand:
        return CheckResult("gadgets", "largecut-roundtrip", False, "count mismatch")
    big = gadgets.build_largecut_instance(build_cycle(3), 2, 1)
    if big.t != 81 or big.s != 4:
        return CheckResult("gadgets", "largecut-roundtrip", False, "default parameters")
    try:
        exact.count_blocked(big.blocked, big.target)
        return CheckResult("gadgets", "largecut-roundtrip", False, "guard not enforced")
    except ValueError:
        pass
    return CheckResult("gadgets", "largecut-roundtrip", True)


def check_largecut_identity(quick: bool) -> CheckResult:
    types = dict(homtypes.enumerate_maximal_types(1))
    p3 = Graph(["u", "v", "w"], [("u", "v"), ("v", "w")])
    k2 = Graph(["u", "v"], [("u", "v")])
    for g in ((k2,) if quick else (k2, p3)):
        plan = gadgets.build_largecut_instance(g, 1, 1, p=1, q=1, t=1, s=1)
        nt4 = homtypes.n_exact(types["T4"], 1, 1, 1)
        n = len(g)
        hist = gadgets.full_hom_histogram(plan)
        for ell in range(1, len(g.non_loop_edges()) + 1):
            cuts = gadgets.count_large_cuts_bruteforce(g, ell)
            expected = cuts * 2 * nt4**n * 4 ** (plan.s * ell)
            if hist.get(ell, 0) != expected:
                return CheckResult(
                    "gadgets", "largecut-identity", False,
                    f"{len(g)}-vertex base, l={ell}: {hist.get(ell, 0)} != {expected}",
                )
        # the factored histogram agrees with the direct walk on the K2 plan
        if len(g) == 2 and gadgets.full_hom_histogram_direct(plan) != hist:
            return CheckResult("gadgets", "largecut-identity", False, "factored != direct")
    return CheckResult("gadgets", "largecut-identity", True)


def check_pin_neighborhood(quick: bool) -> CheckResult:
    cases = 15 if quick else 50
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
            return CheckResult("gadgets", "pin-neighborhood", False, f"case {i}: {lhs} != {rhs}")
    return CheckResult("gadgets", "pin-neighborhood", True, f"{cases} cases")


def check_j_shapes(quick: bool) -> CheckResult:
    hk = build_hk(1)
    j = rebind_target(build_j_blocked(1, 1, 1), hk)
    if expand_blocked(j).pattern.vertices.__len__() != 9:
        return CheckResult("gadgets", "j-shapes", False, "J(1,1,1) size")
    j2 = rebind_target(build_j_blocked(2, 3, 1), hk)
    if j2.expansion_size() != 17:
        return CheckResult("gadgets", "j-shapes", False, "J(2,3,1) size")
    if gadgets.choose_pq(1) != (44, 52):
        return CheckResult("gadgets", "j-shapes", False, "choose_pq(1)")
    hkp = build_hk_prime(1)
    if len(hkp) != 5 or len(hkp.looped_vertices()) != 3 or len(hkp.non_loop_edges()) != 4:
        return CheckResult("gadgets", "j-shapes", False, "H'_1 shape")
    if len(hk) != 9 or len(hk.looped_vertices()) != 6 or len(hk.non_loop_edges()) != 16:
        return CheckResult("gadgets", "j-shapes", False, "H_1 shape")
    if 2 * hk.edge_count() != 32 + 12 * 1:
        return CheckResult("gadgets", "j-shapes", False, "edge budget")
    return CheckResult("gadgets", "j-shapes", True)


# -- approx suite ------------------------------------------------------------------


def _acceptance8_fixtures() -> list[tuple[str, Graph]]:
    return [
        ("K2", Graph(["a", "b"], [("a", "b")])),
        ("2-wrench", build_two_wrench()),
        ("P3", build_path(3)),
    ]


def acceptance8_graph(i: int) -> Graph:
    return random_graph(pyrng("acc8-graph", i), 5 + i % 3, 0.5, "g")


def _battery_task(args) -> tuple[str, int, bool]:
    fname, fixture_text, mode, gi, seed, eps, delta = args
    target = files.parse_graph(fixture_text)
    g = acceptance8_graph(gi)
    inst = ListedInstance.full(g, target)
    truth = (
        exact.count_surjective(inst, target)
        if mode == "sur"
        else exact.count_compaction(inst, target)
    )
    run = approx.coverage_mc(inst, target, mode, eps, delta, approx.ExactOracle(), seed)
    if truth == 0:
        ok = run.y == 0
    else:
        ok = (
            Fraction(truth) * Fraction(math.exp(-eps)).limit_denominator(10**12)
            <= run.y
            <= Fraction(truth) * Fraction(math.exp(eps)).limit_denominator(10**12)
        )
    return fname, seed, ok


def algorithm1_battery(
    runs_per_mode: int = 50,
    eps: float = 0.2,
    delta: float = 0.1,
    graphs: int = 20,
) -> dict[str, tuple[int, int]]:
    """Seeded estimator runs per fixture; returns fixture -> (hits, runs).
    Runs split evenly between surjective and compaction mode over the
    seeded graph corpus."""
    tasks = []
    for fname, target in _acceptance8_fixtures():
        text = files.serialize_graph(target)
        for mode_i, mode in enumerate(("sur", "comp")):
            for r in range(runs_per_mode):
                gi = r % graphs
                seed = derive("acc8", fname, mode, r)
                tasks.append((fname, text, mode, gi, seed, eps, delta))
    workers = worker_count()
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as ex:
            results = list(ex.map(_battery_task, tasks, chunksize=4))
    else:
        results = [_battery_task(t) for t in tasks]
    out: dict[str, tuple[int, int]] = {}
    for fname, _, ok in results:
        hits, total = out.get(fname, (0, 0))
        out[fname] = (hits + (1 if ok else 0), total + 1)
    return out


def check_algorithm1_statistics(quick: bool) -> CheckResult:
    runs = 3 if quick else 50
    res = algorithm1_battery(runs_per_mode=runs)
    bad = {f: (h, t) for f, (h, t) in res.items() if h < math.ceil(0.85 * t)}
    detail = "; ".join(f"{f}: {h}/{t}" for f, (h, t) in sorted(res.items()))
    if bad:
        return CheckResult("approx", "algorithm1-statistics", False, detail)
    return CheckResult("approx", "algorithm1-statistics", True, detail)


def check_exact_expectation(quick: bool) -> CheckResult:
    """Under exact weights E[Y] = sum_i omega_i phat_i, the sum of the
    witnesses' first-occurrence counts, which must be the exact sur/comp
    count; each |Omega_i| must be the exact list count of its pinned
    instance; and eq. 9 bounds Omega / t by the count.  The partition is
    counted naively, apart from the kernel."""
    for fname, target in _acceptance8_fixtures():
        for gi in range(2 if quick else 6):
            g = acceptance8_graph(gi)
            inst = ListedInstance.full(g, target)
            for mode in ("sur", "comp"):
                where = f"{fname} graph {gi} {mode}"
                truth = (
                    exact.count_surjective(inst, target)
                    if mode == "sur"
                    else exact.count_compaction(inst, target)
                )
                ts = approx.enumerate_T(inst, target, mode)
                omegas, firsts = reference.coverage_partition(inst, target, ts)
                if sum(firsts) != truth:
                    return CheckResult(
                        "approx", "exact-expectation", False,
                        f"{where}: E[Y] = {sum(firsts)} != {truth}",
                    )
                for i, ((us, tau), w) in enumerate(zip(ts, omegas)):
                    pinned = inst
                    for u in us:
                        pinned = pinned.pin(u, tau[u])
                    if w != exact.count_list_hom(pinned, target):
                        return CheckResult(
                            "approx", "exact-expectation", False, f"{where}: |Omega_{i}|"
                        )
                if ts and Fraction(sum(omegas), len(ts)) > truth:
                    return CheckResult("approx", "exact-expectation", False, f"{where}: eq9 lower bound")
    return CheckResult("approx", "exact-expectation", True)


def check_jvv_uniformity(quick: bool) -> CheckResult:
    target = build_two_wrench()
    g = build_path(3)
    inst = ListedInstance.full(g, target)
    homs = [tuple(sorted(h.items())) for h in exact.enumerate_homs(inst, target)]
    n = len(homs)
    samples = 2000 if quick else 10_000
    oracle = approx.ExactOracle()
    rng = pyrng("jvv-uniformity")
    counts: dict = {}
    for _ in range(samples):
        tau = approx.sample_hom(oracle, inst, target, 0.01, rng=rng)
        key = tuple(sorted(tau.items()))
        counts[key] = counts.get(key, 0) + 1
    if set(counts) - set(homs):
        return CheckResult("approx", "jvv-uniformity", False, "non-homomorphism sampled")
    tv = Fraction(1, 2) * sum(
        abs(Fraction(counts.get(h, 0), samples) - Fraction(1, n)) for h in homs
    )
    bound = Fraction(1, 10) if quick else Fraction(1, 20)
    if tv > bound:
        return CheckResult("approx", "jvv-uniformity", False, f"TV = {float(tv):.4f}")
    return CheckResult("approx", "jvv-uniformity", True, f"TV = {float(tv):.4f} over {samples} samples")


def check_padding(quick: bool) -> CheckResult:
    cases = 15 if quick else 50
    for i in range(cases):
        target = random_target(("pad", i), max_n=4)
        pattern = random_pattern(("pad", i), max_n=4)
        lists = random_lists(("pad", i), pattern, target)
        inst = ListedInstance(pattern, lists, target.vertices)
        padded = approx.lhom_padding(inst, target)
        want = exact.count_list_hom(inst, target)
        if exact.count_surjective(padded, target) != want:
            return CheckResult("approx", "padding-identity", False, f"case {i} sur")
        if exact.count_compaction(padded, target) != want:
            return CheckResult("approx", "padding-identity", False, f"case {i} comp")
    return CheckResult("approx", "padding-identity", True, f"{cases} cases")


def check_powered_count(quick: bool) -> CheckResult:
    k2 = Graph(["a", "b"], [("a", "b")])
    inst = ListedInstance.full(build_path(3), k2)
    true = exact.count_list_hom(inst, k2)
    trials = 100 if quick else 1000
    fails = 0
    lo, hi = true * math.exp(-0.1), true * math.exp(0.1)
    for i in range(trials):
        oracle = approx.NoisyOracle(0.1, 0.25, seed=derive("powered", i))
        x = approx.powered_count(oracle, inst, k2, 0.1, 1e-3)
        if not (lo <= x <= hi):
            fails += 1
    if fails > max(1, math.ceil(0.002 * trials)):
        return CheckResult("approx", "powered-count", False, f"{fails}/{trials} failures")
    # delta >= 1/4 means a single call
    oracle = approx.ExactOracle()
    approx.powered_count(oracle, inst, k2, 0.5, 0.25)
    if oracle.calls != 1:
        return CheckResult("approx", "powered-count", False, "powering at delta = 1/4")
    return CheckResult("approx", "powered-count", True, f"{fails}/{trials} failures")


def check_coverage_determinism(quick: bool) -> CheckResult:
    k2 = Graph(["a", "b"], [("a", "b")])
    inst = ListedInstance.full(acceptance8_graph(0), k2)
    r1 = approx.coverage_mc(inst, k2, "sur", 0.3, 0.2, approx.ExactOracle(), seed=42)
    r2 = approx.coverage_mc(inst, k2, "sur", 0.3, 0.2, approx.ExactOracle(), seed=42)
    if r1.y != r2.y or r1.x_total != r2.x_total:
        return CheckResult("approx", "seed-determinism", False)
    # the collapsed sampler and the literal walk agree within the guarantee
    tiny = ListedInstance.full(k2, k2)
    truth = exact.count_compaction(tiny, k2)
    rj = approx.coverage_mc(tiny, k2, "comp", 0.5, 0.3, approx.ExactOracle(), seed=1, force_jvv=True)
    rf = approx.coverage_mc(tiny, k2, "comp", 0.5, 0.3, approx.ExactOracle(), seed=1)
    for run in (rj, rf):
        if not (truth * math.exp(-0.5) <= run.y <= truth * math.exp(0.5)):
            return CheckResult("approx", "seed-determinism", False, f"{run.sampler} off-window")
    return CheckResult("approx", "seed-determinism", True)


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


def check_classifier_table(quick: bool) -> CheckResult:
    for name, h, want_cls, want_clause in classifier_fixture_rows():
        v = classify.classify(h)
        if v.cls != want_cls or v.clause != want_clause:
            return CheckResult(
                "classify", "fixture-table", False,
                f"{name}: got ({v.cls}, {v.clause}), want ({want_cls}, {want_clause})",
            )
    return CheckResult("classify", "fixture-table", True, "12 fixtures")


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


def check_theorem1_partition(quick: bool) -> CheckResult:
    cases = 150 if quick else 600
    for i in range(cases):
        h = _random_tree_like(i)
        cv = classify.classify_component(h)
        want = _theorem1_clause(h)
        if (cv.cls, cv.clause) != want:
            return CheckResult(
                "classify", "theorem1-partition", False,
                f"case {i}: classifier ({cv.cls}, {cv.clause}), definitions {want}",
            )
    return CheckResult("classify", "theorem1-partition", True, f"{cases} random girth->=5 components")


def check_caterpillar_harary(quick: bool) -> CheckResult:
    cases = 60 if quick else 200
    for i in range(cases):
        h = _random_girth5_graph(("cat", i), allow_loops=False)
        is_tree = girth(h) == math.inf
        lhs = classify.is_caterpillar(h)
        rhs = is_tree and classify.has_induced_J3(h) is None
        if lhs != rhs:
            return CheckResult("classify", "caterpillar-harary", False, f"case {i}")
    spider = Graph([], [("c", "a0"), ("a0", "a1"), ("c", "b0"), ("b0", "b1"), ("c", "d0")])
    if classify.has_induced_J3(spider) is not None or not classify.is_caterpillar(spider):
        return CheckResult("classify", "caterpillar-harary", False, "legs-2-2-1 spider")
    return CheckResult("classify", "caterpillar-harary", True, f"{cases} cases")


def check_pbrp_implies_bis(quick: bool) -> CheckResult:
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
            return CheckResult("classify", "pbrp-implies-bis", False, f"({q}, {set(s)}) unrecognized")
        v = classify.classify(h)
        if v.cls != classify.CLASS_BIS:
            return CheckResult("classify", "pbrp-implies-bis", False, f"({q}, {set(s)}): {v.cls}")
    for n, want in ((1, classify.CLASS_FP), (2, classify.CLASS_FP), (3, classify.CLASS_BIS)):
        h = build_reflexive_path(n)
        if classify.is_pbrp(h) is None or classify.classify(h).cls != want:
            return CheckResult("classify", "pbrp-implies-bis", False, f"reflexive path {n}")
    return CheckResult("classify", "pbrp-implies-bis", True)


def check_sat_witnesses(quick: bool) -> CheckResult:
    cases = 60 if quick else 200
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
        if not labels or labels == {classify.WITNESS_FALLBACK}:
            return CheckResult("classify", "sat-witnesses", False, f"case {i}: no structural witness")
        all_pendant = all(h.degree(v) == 1 for v in h.unlooped_vertices())
        if all_pendant:
            allowed = {classify.WITNESS_WR, classify.WITNESS_NON_2WRENCH, classify.WITNESS_REFL_CYCLE}
        else:
            allowed = {classify.WITNESS_WR, classify.WITNESS_NON_2WRENCH, classify.WITNESS_DIST2}
        if not labels & allowed:
            return CheckResult(
                "classify", "sat-witnesses", False,
                f"case {i}: labels {labels} outside proof dichotomy",
            )
    return CheckResult("classify", "sat-witnesses", True, f"{seen_sat} SAT components examined")


def _kelk_bruteforce(h: Graph) -> bool:
    n = len(h)
    universal = frozenset(v for v in h.vertices if h.neighbors(v) == frozenset(h.vertices))
    if not universal or universal == frozenset(h.vertices):
        return False
    fv = len(universal) * n
    subsets = []
    for r in range(n + 1):
        subsets += [frozenset(c) for c in combinations(h.vertices, r)]
    for s in subsets:
        for t in subsets:
            if all(h.has_edge(a, b) for a in s for b in t):
                if s != universal and t != universal and len(s) * len(t) >= fv:
                    return False
    return True


def check_kelk(quick: bool) -> CheckResult:
    cases = 30 if quick else 80
    for i in range(cases):
        h = random_target(("kelk", i), max_n=5)
        if classify.check_kelk_condition(h) != _kelk_bruteforce(h):
            return CheckResult("classify", "kelk-crosscheck", False, f"case {i}")
    if not classify.check_kelk_condition(build_wr(4)):
        return CheckResult("classify", "kelk-crosscheck", False, "WR4")
    if classify.check_kelk_condition(build_wr(3)):
        return CheckResult("classify", "kelk-crosscheck", False, "WR3")
    return CheckResult("classify", "kelk-crosscheck", True, f"{cases} cases + WR3/WR4")


def check_component_order(quick: bool) -> CheckResult:
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
            return CheckResult("classify", "component-order", False, f"pair {i}")
    return CheckResult("classify", "component-order", True)


# -- registry ----------------------------------------------------------------------

SUITES = {
    "oracles": [
        check_oracle_equivalence,
        check_decomposition,
        check_monotonicity,
        check_lemma19_bounds,
        check_blocked_roundtrip,
        check_girth_crosscheck,
        check_gamma2_phi,
        check_parse_roundtrip,
    ],
    "csp": [
        check_csp_parsimony,
        check_lemma33_structure,
        check_extreme_assignments,
        check_strip_and_subtract,
    ],
    "types": [
        check_table1,
        check_eq4_grid,
        check_type_symmetry,
        check_lemma45_fixed_points,
        check_lemma43,
        check_lemma47,
    ],
    "gadgets": [
        check_dirichlet,
        check_cut_window,
        check_cut_psi,
        check_bichromatic_forcing,
        check_largecut_roundtrip,
        check_largecut_identity,
        check_pin_neighborhood,
        check_j_shapes,
    ],
    "approx": [
        check_exact_expectation,
        check_jvv_uniformity,
        check_padding,
        check_powered_count,
        check_coverage_determinism,
        check_algorithm1_statistics,
    ],
    "classify": [
        check_classifier_table,
        check_theorem1_partition,
        check_caterpillar_harary,
        check_pbrp_implies_bis,
        check_sat_witnesses,
        check_kelk,
        check_component_order,
    ],
}


def run_suite(name: str, quick: bool = False) -> list[CheckResult]:
    if name == "all":
        out = []
        for suite in SUITES:
            out += run_suite(suite, quick)
        return out
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from {sorted(SUITES)} or 'all'")
    out = []
    for fn in SUITES[name]:
        res = fn(quick)
        out += res if isinstance(res, list) else [res]
    return out
