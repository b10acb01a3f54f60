"""Reference oracles: the cross-checks the fast paths are tested against.

Three kinds:
  - naive enumeration (all |V(H)|^|V(G)| assignments, exhaustive cycle
    listing), independent of the search kernel: counts in every mode, CSP
    assignments, and the coverage estimator's witnesses and its partition of
    the union;
  - second routes through a different identity, built on the public
    `exact.count_list_hom`: the product over pattern components of sums over
    target components, and inclusion-exclusion for surjective and compaction
    counts.  They share the kernel's list counts but not its coverage state
    or its component handling;
  - the maximality check of the type table: single-pair augmentation of
    homomorphism types over frozensets of named pairs, with
    `homtypes.is_nonempty_type` as its non-emptiness test, and the ten rows
    derived again by set comprehensions and kept only when maximal
    (`homtypes.enumerate_maximal_types` keeps all ten with no test).
Only run these at desk scale: inclusion-exclusion for compactions makes
2^(|V(H)| + |E(H)|) list counts.  The routes that `retraction-lab count`
offers refuse a larger instance with a ValueError before they start:
`naive_assignments` past NAIVE_ASSIGNMENT_BOUND assignments, the two
inclusion-exclusions past IE_TERM_BOUND terms.
"""
from __future__ import annotations

import math
from itertools import combinations, product

from . import exact
from .csp import CspInstance
from .fixedgraphs import build_hk
from .graphs import DiGraph, Graph, connected_components
from .homtypes import _TABLE_ORDER, HomType, c_menu, e_pairs, is_nonempty_type
from .instances import ListedInstance

# each far above the largest use by the tests, `verify all` and perfbench
# (78 125 assignments, 512 terms), far below a minutes-long run
NAIVE_ASSIGNMENT_BOUND = 10**6
IE_TERM_BOUND = 2**16


def _check_bound(size: int, bound: int, what: str) -> None:
    if size > bound:
        raise ValueError(f"{what}: {size} is past the bound of {bound}")


def naive_assignments(inst: ListedInstance, target: Graph):
    """Yield every list-respecting homomorphism by checking all assignments."""
    pv = inst.pattern.vertices
    pedges = inst.pattern.non_loop_edges()
    domains = [sorted(inst.lists[v]) for v in pv]
    _check_bound(math.prod(map(len, domains)), NAIVE_ASSIGNMENT_BOUND, "assignments to enumerate")
    for combo in product(*domains):
        img = dict(zip(pv, combo))
        if all(target.has_edge(img[u], img[v]) for u, v in pedges):
            yield img


def _meets(img: dict[str, str], pattern: Graph, target: Graph, mode: str) -> bool:
    """Whether the homomorphism `img` of `pattern` counts in `mode`: always
    for hom, lhom and ret; when onto the target's vertices for sur; when
    also realizing every non-loop target edge for comp."""
    if mode in ("hom", "lhom", "ret"):
        return True
    if set(img.values()) != set(target.vertices):
        return False
    if mode == "sur":
        return True
    realized = set()
    for u, v in pattern.non_loop_edges():
        a, b = img[u], img[v]
        if a != b:
            realized.add((min(a, b), max(a, b)))
    return all((min(u, v), max(u, v)) in realized for u, v in target.non_loop_edges())


def naive_count(inst: ListedInstance, target: Graph, mode: str = "lhom") -> int:
    """Exact count by full enumeration, any of the five modes."""
    return sum(_meets(img, inst.pattern, target, mode) for img in naive_assignments(inst, target))


def naive_witnesses(inst: ListedInstance, target: Graph, mode: str) -> list:
    """The coverage estimator's witnesses (U, tau) by full enumeration: U over
    the pattern-vertex subsets of size |V(H)| (sur) or |V(H)| to
    |V(H)| + 2|E(H)| (comp), tau over `naive_assignments` on G[U], kept when
    it counts in `mode`."""
    pv, tv = inst.pattern.vertices, target.vertices
    top = len(tv) if mode == "sur" else len(tv) + 2 * target.edge_count()
    out = []
    for size in range(len(tv), min(len(pv), top) + 1):
        for us in combinations(pv, size):
            sub = ListedInstance(
                inst.pattern.induced(us), {u: inst.lists[u] for u in us}, inst.target_vertices
            )
            for img in naive_assignments(sub, target):
                if _meets(img, sub.pattern, target, mode):
                    out.append((us, img))
    return out


def coverage_partition(inst: ListedInstance, target: Graph, witnesses):
    """For witnesses (U_i, tau_i) in order: (the |Omega_i|, the first-occurrence
    counts), i.e. how many homomorphisms extend tau_i, and how many extend
    tau_i and no earlier witness.  The latter sum to the size of the union,
    and omega_i * phat_i is the i-th of them."""
    omegas = [0] * len(witnesses)
    firsts = [0] * len(witnesses)
    for img in naive_assignments(inst, target):
        first = None
        for i, (us, tau) in enumerate(witnesses):
            if all(img[u] == tau[u] for u in us):
                omegas[i] += 1
                if first is None:
                    first = i
        if first is not None:
            firsts[first] += 1
    return omegas, firsts


def naive_count_digraph(
    pattern: DiGraph, lists: dict[str, frozenset[str]], target: DiGraph
) -> int:
    """Directed list-homomorphism count by full enumeration."""
    pv = pattern.vertices
    domains = [sorted(lists[v]) for v in pv]
    arcs = pattern.arcs()
    total = 0
    for combo in product(*domains):
        img = dict(zip(pv, combo))
        if all(target.has_arc(img[u], img[v]) for u, v in arcs):
            total += 1
    return total


def naive_csp_assignments(inst: CspInstance) -> list[tuple[int, ...]]:
    """Satisfying assignments in variable order, lexicographic, by checking
    every assignment in {0,1}^n."""
    index = {x: i for i, x in enumerate(inst.variables)}
    imps = [(index[x], index[y]) for x, y in inst.imps]
    pins = [(index[x], val) for x, val in inst.pins]
    return [
        a
        for a in product((0, 1), repeat=len(index))
        if all(not a[x] or a[y] for x, y in imps) and all(a[x] == val for x, val in pins)
    ]


def count_by_components(inst: ListedInstance, target: Graph) -> int:
    """List-homomorphism count as the product over pattern components of the
    sum over target components, with the lists restricted to each."""
    tcomps = connected_components(target)
    result = 1
    for comp in connected_components(inst.pattern):
        sub = 0
        for tc in tcomps:
            tcv = frozenset(tc.vertices)
            lists = {v: inst.lists[v] & tcv for v in comp.vertices}
            if all(lists.values()):
                sub += exact.count_list_hom(ListedInstance(comp, lists, tc.vertices), tc)
        result *= sub
    return result


def count_surjective_ie(inst: ListedInstance, target: Graph) -> int:
    """Inclusion-exclusion over the subset W of target vertices hit."""
    tn = len(target.vertices)
    _check_bound(2**tn, IE_TERM_BOUND, "inclusion-exclusion terms")
    total = 0
    for r in range(tn + 1):
        for keep in combinations(target.vertices, r):
            sub = inst.restrict_lists(frozenset(keep))
            total += (-1) ** (tn - r) * exact.count_list_hom(sub, target)
    return total


def count_compaction_ie(inst: ListedInstance, target: Graph) -> int:
    """Inclusion-exclusion over missed requirements (D, F): D the avoided
    target vertices, F the unrealized non-loop target edges; homs land in
    the structure (V \\ D, E(H[V \\ D]) \\ F).

    F ranges over all non-loop edges of H (edges touching D are vacuously
    unrealized; restricting F to H[W] breaks the alternating sum).
    """
    tn = len(target.vertices)
    nl_all = target.non_loop_edges()
    _check_bound(2 ** (tn + len(nl_all)), IE_TERM_BOUND, "inclusion-exclusion terms")
    total = 0
    for r in range(tn + 1):
        for keep in combinations(target.vertices, r):
            inside = target.induced(keep).edges()
            lists = inst.restrict_lists(frozenset(keep)).lists
            for k in range(len(nl_all) + 1):
                for drop in combinations(nl_all, k):
                    struct = Graph(keep, [e for e in inside if e not in drop])
                    sub = ListedInstance(inst.pattern, lists, struct.vertices)
                    total += (-1) ** (tn - r + k) * exact.count_list_hom(sub, struct)
    return total


def enumerate_simple_cycles(h: Graph):
    """All simple cycles (>= 3 distinct vertices) as vertex tuples.

    Each cycle appears once: rooted at its smallest vertex, second vertex
    smaller than last (kills orientation).
    """
    verts = h.vertices
    n = len(verts)
    adj = {v: sorted(h.neighbors(v) - {v}) for v in verts}
    cycles = []

    def extend(path: list[str], allowed: set[str]):
        last = path[-1]
        root = path[0]
        for w in adj[last]:
            if w == root and len(path) >= 3:
                if path[1] < path[-1]:
                    cycles.append(tuple(path))
            elif w in allowed and w > root:
                path.append(w)
                allowed.discard(w)
                extend(path, allowed)
                allowed.add(w)
                path.pop()

    for i, r in enumerate(verts):
        extend([r], set(verts[i + 1 :]))
    return cycles


def naive_girth(h: Graph) -> float:
    """Girth via exhaustive simple-cycle enumeration (|V| small)."""
    cycles = enumerate_simple_cycles(h)
    if not cycles:
        return float("inf")
    return min(len(c) for c in cycles)


def is_maximal_type_sets(t: HomType, k: int) -> bool:
    """Maximality on sets: non-empty, and no type with one more pair in one
    component is non-empty.  Single pairs suffice because non-emptiness
    survives dropping pairs from a component that stays non-empty (a
    property test in `tests/test_types.py`)."""
    if not is_nonempty_type(t, k):
        return False
    hk = build_hk(k)
    pairs = [(x, y) for x in hk.vertices for y in hk.vertices if hk.has_edge(x, y)]
    parts = (t.t1, t.t2, t.t3)
    for i in range(3):
        for pair in pairs:
            if pair in parts[i]:
                continue
            aug = [set(p) for p in parts]
            aug[i].add(pair)
            if is_nonempty_type(HomType(*(frozenset(p) for p in aug)), k):
                return False
    return True


def maximal_types_sets(k: int) -> list[tuple[str, HomType]]:
    """The labeled maximal types derived on sets: B/B' the vertices of
    Gamma(b) adjacent to all of C/C', A/A' the vertices of Gamma(g) adjacent
    to some vertex of B/B', kept when `is_maximal_type_sets` holds."""
    hk = build_hk(k)
    gb, gg = hk.neighbors("b"), hk.neighbors("g")
    menu = c_menu()
    out = []
    for i, j in _TABLE_ORDER:
        c, cp = menu[i], menu[j]
        b = frozenset(v for v in gb if all(hk.has_edge(v, x) for x in c))
        bp = frozenset(v for v in gb if all(hk.has_edge(v, x) for x in cp))
        a = frozenset(u for u in gg if any(hk.has_edge(u, v) for v in b))
        ap = frozenset(u for u in gg if any(hk.has_edge(u, v) for v in bp))
        t = HomType(e_pairs(hk, a, b), e_pairs(hk, c, cp), e_pairs(hk, bp, ap))
        if is_maximal_type_sets(t, k):
            out.append((f"T{len(out) + 1}", t))
    return out
