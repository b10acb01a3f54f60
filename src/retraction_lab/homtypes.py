"""Type analysis for homomorphisms from the pinned vertex gadget J(p, q, t)
to the target H_k.

The type of a homomorphism is the triple of ordered-pair sets it realizes on
the three matchings of J (A-B, C-C', B'-A').  The ten maximal types are
derived from the C/C' projections that Lemma 45's fixed points allow: B/B'
and A/A' follow from C/C', and each component is the full pair set of its
projections.  They are reported in the canonical ten-row order with no
search; `reference.is_maximal_type_sets` checks each row's maximality by
single-pair augmentation in the tests and in `verify`.  Non-emptiness is a
test on the projections, as sets of H_k's vertex names.  N(T) has the
closed form |surj(pt, |T1|)| * |surj(qt, |T2|)| * |surj(pt, |T3|)| and the
crude upper bound Nhat(T) = |T1|^pt |T2|^qt |T3|^pt.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .exact import _kernel, count_list_hom, stirling_surjections
from .fixedgraphs import build_hk, build_j_blocked
from .graphs import Graph, common_neighbors, neighbor_union
from .instances import block_vertex_names, expand_blocked

Pair = tuple[str, str]


@dataclass(frozen=True)
class HomType:
    t1: frozenset[Pair]
    t2: frozenset[Pair]
    t3: frozenset[Pair]

    def projections(self) -> tuple[frozenset[str], ...]:
        """(A, B, C, C', B', A') recomputed from the pair sets."""
        return (
            frozenset(x for x, _ in self.t1),
            frozenset(y for _, y in self.t1),
            frozenset(x for x, _ in self.t2),
            frozenset(y for _, y in self.t2),
            frozenset(x for x, _ in self.t3),
            frozenset(y for _, y in self.t3),
        )

    def sizes(self) -> tuple[int, int, int]:
        return len(self.t1), len(self.t2), len(self.t3)


def symmetric_partner(t: HomType) -> HomType:
    """The involution swapping the two ends of the gadget."""
    rev = lambda s: frozenset((y, x) for x, y in s)
    return HomType(rev(t.t3), rev(t.t2), rev(t.t1))


def e_pairs(h: Graph, xs, ys) -> frozenset[Pair]:
    """E(X, Y): ordered pairs (x, y) with x in X, y in Y, {x,y} an edge."""
    return frozenset((x, y) for x in xs for y in ys if h.has_edge(x, y))


def is_nonempty_type(t: HomType, k: int) -> bool:
    """Non-emptiness of a type: every pair an edge of H_k (else ValueError),
    non-empty components, B/C/C'/B' inside Gamma(b), A/A' inside Gamma(g),
    and the complete joins B-C and B'-C' realized."""
    hk = build_hk(k)
    for part in (t.t1, t.t2, t.t3):
        for x, y in part:
            if not hk.has_edge(x, y):
                raise ValueError(f"pair {(x, y)} is not an edge of H_{k}")
    if not (t.t1 and t.t2 and t.t3):
        return False
    a, b, c, cp, bp, ap = t.projections()
    return (
        (b | c | cp | bp) <= hk.neighbors("b")
        and (a | ap) <= hk.neighbors("g")
        and all(hk.has_edge(x, y) for x in b for y in c)
        and all(hk.has_edge(x, y) for x in bp for y in cp)
    )


# menu-index pairs in the canonical ten-row presentation order
_TABLE_ORDER = [(0, 0), (0, 1), (0, 2), (0, 3), (1, 2), (1, 1), (2, 2), (1, 3), (2, 3), (3, 3)]


def c_menu() -> list[frozenset[str]]:
    """The four possible C / C' projections of a maximal type."""
    return [
        frozenset(("b",)),
        frozenset(("r1", "b")),
        frozenset(("r2", "b")),
        frozenset(("r1", "r2", "b", "g")),
    ]


def _type_from_c_sets(hk: Graph, c: frozenset[str], cp: frozenset[str]) -> HomType:
    """Derive the full type from the C and C' projections: B/B' are the
    common neighbors inside Gamma(b), A/A' the neighbor unions inside
    Gamma(g), and each component is the full pair set of its projections."""
    gb, gg = hk.neighbors("b"), hk.neighbors("g")
    b = common_neighbors(hk, c) & gb
    bp = common_neighbors(hk, cp) & gb
    a = neighbor_union(hk, b) & gg
    ap = neighbor_union(hk, bp) & gg
    return HomType(e_pairs(hk, a, b), e_pairs(hk, c, cp), e_pairs(hk, bp, ap))


def enumerate_maximal_types(k: int) -> list[tuple[str, HomType]]:
    """The maximal types up to symmetry, labeled T1..T10 in table order:
    the type derived from each C/C' menu pair (i, j) with i <= j; the pair
    (j, i) derives the symmetric partner of (i, j)."""
    hk = build_hk(k)
    menu = c_menu()
    return [(f"T{n}", _type_from_c_sets(hk, menu[i], menu[j])) for n, (i, j) in enumerate(_TABLE_ORDER, 1)]


def nhat(t: HomType, p: int, q: int, tt: int) -> int:
    s1, s2, s3 = t.sizes()
    return s1 ** (p * tt) * s2 ** (q * tt) * s3 ** (p * tt)


def n_exact(t: HomType, p: int, q: int, tt: int) -> int:
    """Exact count of gadget homomorphisms of (non-empty) type t: each
    matching surjects onto its pair set."""
    s1, s2, s3 = t.sizes()
    return (
        stirling_surjections(p * tt, s1)
        * stirling_surjections(q * tt, s2)
        * stirling_surjections(p * tt, s3)
    )


# the most homomorphisms brute_count_by_type enumerates; the J in use with
# the most, J(3, 1, 1) into H_3, has 129 439 and takes about 0.6 s (2-core VM,
# Python 3.11)
BRUTE_HOM_GUARD = 200_000


def brute_count_by_type(p: int, q: int, tt: int, k: int) -> dict[HomType, int]:
    """Enumerate every homomorphism from the expanded (J, S_J) to H_k and
    bucket by extracted type: the reference that n_exact is checked against,
    so it refuses a J with more than BRUTE_HOM_GUARD homomorphisms.  The
    kernel lists each map as a tuple of target indices, a map's type is one
    int with a bit per (matching, image pair), and a HomType is built once
    per distinct int.

    J(p, q, t) has blocks of multiplicity pt and qt only, and one more
    vertex in each of A, B, B', A' (or in C and C') extends every
    homomorphism by copying the images of the first ones, so the count never
    falls along the chain J(min(i, pt), min(i, qt), 1), i = 1, 2, ...  The
    guard counts up that chain and refuses at the first J past it, so it
    never counts a J far past the guard."""
    hk = build_hk(k)
    blocked = build_j_blocked(p, q, tt, k)
    a, c = p * tt, q * tt
    for i in range(1, max(a, c) + 1):
        # the last step expands J(pt, qt, 1), which is J(p, q, t)
        inst = expand_blocked(build_j_blocked(min(i, a), min(i, c), 1, k))
        homs = count_list_hom(inst, hk)
        if homs > BRUTE_HOM_GUARD:
            raise ValueError(
                f"J({p},{q},{tt}) has at least {homs} homomorphisms into H_{k}; "
                f"guard is {BRUTE_HOM_GUARD}"
            )
    names = {blk.name: block_vertex_names(blk) for blk in blocked.blocks}
    tv = hk.vertices
    n = len(tv)
    # a map's type as one int: bit (m n + i) n + j for the image pair (i, j)
    # on matching m; per matching edge, its ends' pattern indices and the
    # table of those bits
    pair_bit = [[[1 << (m * n + i) * n + j for j in range(n)] for i in range(n)] for m in range(3)]
    ends = [
        (pair_bit[m], inst.pattern.index(x), inst.pattern.index(y))
        for m, (xs, ys) in enumerate((("A", "B"), ("C", "C'"), ("B'", "A'")))
        for x, y in zip(names[xs], names[ys])
    ]
    by_key: dict[int, int] = {}
    for image in _kernel(inst, hk).assignments():
        key = 0
        for bit, x, y in ends:
            key |= bit[image[x]][image[y]]
        by_key[key] = by_key.get(key, 0) + 1
    buckets: dict[HomType, int] = {}
    for key, maps in by_key.items():
        parts: list[set[Pair]] = [set(), set(), set()]
        while key:
            low = key & -key
            key ^= low
            m, ij = divmod(low.bit_length() - 1, n * n)
            parts[m].add((tv[ij // n], tv[ij % n]))
        buckets[HomType(*map(frozenset, parts))] = maps
    return buckets


@dataclass(frozen=True)
class DominanceReport:
    k: int
    p: int
    q: int
    per_step: tuple[tuple[str, Fraction], ...]  # Nhat(T_i)/Nhat(T4) at t=1
    gamma: Fraction
    window_ok: bool


def dominance_report(k: int, p: int, q: int) -> DominanceReport:
    """Exact per-step ratios Nhat(T_i)/Nhat(T4) for the non-dominant rows and
    their maximum gamma; window_ok records whether (p, q) sits strictly
    inside the dominance window."""
    types = dict(enumerate_maximal_types(k))
    t4 = types["T4"]
    n4 = (Fraction(nhat(t4, p, q, 1)))
    per_step = []
    for label in sorted(types, key=lambda s: int(s[1:])):
        if label == "T4":
            continue
        r = Fraction(nhat(types[label], p, q, 1)) / n4
        per_step.append((label, r))
    gamma = max(r for _, r in per_step)
    window_ok = 4**q > (4 + k) ** p and 9**q < 4**q * (4 + k) ** p
    return DominanceReport(k, p, q, tuple(per_step), gamma, window_ok)


def lemma43_check(k: int, p: int, q: int, tt: int) -> bool:
    """True iff Nhat(T)/2 <= N(T) <= Nhat(T) for every maximal type at these
    parameters (exact integer arithmetic)."""
    for _, t in enumerate_maximal_types(k):
        n = n_exact(t, p, q, tt)
        nh = nhat(t, p, q, tt)
        if not (nh <= 2 * n and n <= nh):
            return False
    return True


def lemma43_scan(k: int, p: int, q: int, t_max: int = 64) -> int | None:
    """Least t in 1..t_max where the sandwich holds for every maximal type."""
    for tt in range(1, t_max + 1):
        if lemma43_check(k, p, q, tt):
            return tt
    return None
