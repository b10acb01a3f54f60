"""Exact counting of homomorphisms, list homomorphisms, retractions,
surjective homomorphisms and compactions.

All counts are exact Python integers.  The core search is backtracking with
forward checking on pattern edges and a per-call memo on the residual state,
so its time follows the number of distinct residual subproblems, not the
count.  The memo key is
  - hom, lhom, ret: the unassigned vertices' domain masks (assigned and
    peeled vertices hold 0);
  - sur: those, plus the target vertices already covered;
  - comp: those, plus the covered target edges and the images of the
    assigned vertices next to an unassigned one.
Counting branches in a fixed order chosen to keep few unassigned vertices
next to assigned ones; enumeration branches most-constrained-first with
lexicographic tie-break.  Both are deterministic.  Surjective/compaction
counts also have an inclusion-exclusion route, which the test suite requires
to agree.
"""
from __future__ import annotations

import math
from array import array
from itertools import combinations
from typing import Iterator

from .graphs import Graph, _bits, connected_components
from .instances import BlockedInstance, ListedInstance, expand_blocked

COUNT_MODES = ("hom", "lhom", "ret", "sur", "comp")

MULTIPLICATIVE_MODES = ("hom", "lhom", "ret")


def stirling_surjections(a: int, b: int) -> int:
    """Number of surjective functions from an a-set onto a b-set."""
    if a < 0 or b < 0:
        raise ValueError("arguments must be non-negative")
    return sum((-1) ** j * math.comb(b, j) * (b - j) ** a for j in range(b + 1))


# -- search kernel ---------------------------------------------------------

# below this many active vertices a memo lookup costs more than the search
_MEMO_MIN_ACTIVE = 3


def _packer(width: int):
    """A function packing a list of `width`-bit masks into a compact memo key:
    one or two bytes per mask instead of a pointer (and, above 256, an int
    object) each; the packing is injective."""
    if width <= 8:
        return bytes
    if width <= 64:
        code = "H" if width <= 16 else "Q"
        return lambda masks: array(code, masks).tobytes()
    return tuple


class _Search:
    """Backtracking state shared by the counting and enumeration entry points.

    A search state is the active (unassigned) vertex set with the active
    vertices' domain masks, forward-checked against every assigned neighbor.
    Assigned and peeled vertices get domain 0, so ``doms`` alone fixes the
    residual subproblem, and `count` memoises on it for the length of one
    call.  `count` branches in a fixed order (see `_order`); `assignments`
    branches most-constrained-first.
    """

    def __init__(self, pattern: Graph, lists: dict[str, frozenset[str]], target: Graph):
        if not pattern.is_irreflexive():
            raise ValueError("pattern graphs must be irreflexive")
        self.pattern = pattern
        self.target = target
        self.pverts = pattern.vertices
        self.tverts = target.vertices
        tindex = {v: i for i, v in enumerate(self.tverts)}
        self.padj = [pattern._adj[i] for i in range(len(self.pverts))]
        self.tadj = [target._adj[i] for i in range(len(self.tverts))]
        self.domains = []
        for v in self.pverts:
            mask = 0
            for t in lists[v]:
                mask |= 1 << tindex[t]
            self.domains.append(mask)

    def count(self, full_v: int | None = None, ebit: list[list[int]] | None = None) -> int:
        """Number of homomorphisms.  With `full_v`, only those whose image
        covers that target-vertex mask; with `ebit` as well (``ebit[i][j]`` is
        the bit of the non-loop target edge ij, 0 for a non-edge or a loop),
        only those that also realize every such edge."""
        if any(d == 0 for d in self.domains):
            return 0
        self.full_v = full_v
        self.ebit = ebit
        self.full_e = 0
        for row in ebit or ():
            for b in row:
                self.full_e |= b
        self._pack = _packer(max(len(self.tverts), self.full_e.bit_length()))
        order = self._order()
        pos = [0] * len(order)
        for k, v in enumerate(order):
            pos[v] = k
        # relabel the pattern so that `order` is the identity: the next vertex
        # to branch on is then the lowest active bit
        self.cadj = [sum(1 << pos[u] for u in _bits(self.padj[v])) for v in order]
        self.image = [-1] * len(order)
        self.memo: dict = {}
        return self._count((1 << len(order)) - 1, [self.domains[v] for v in order], 0, 0)

    def _order(self) -> list[int]:
        """The fixed branching order of `count`: single-value vertices first,
        then greedily the vertex, next to the assigned ones if any is, that
        leaves the fewest unassigned vertices next to assigned ones (ties: the
        lowest index).  In a fixed order every branch reaches the same active
        set after the same number of steps, so the memo separates states only
        by the domains on that frontier: paths, cycles and 2 x k grids take
        time linear in their length."""
        padj = self.padj
        order = [v for v, d in enumerate(self.domains) if d.bit_count() == 1]
        left = (1 << len(padj)) - 1
        reach = 0
        for v in order:
            left &= ~(1 << v)
            reach |= padj[v]
        while left:
            v = min(
                _bits(reach & left or left),
                key=lambda v: ((reach | padj[v]) & left & ~(1 << v)).bit_count(),
            )
            order.append(v)
            left &= ~(1 << v)
            reach |= padj[v]
        return order

    def _count(self, active: int, doms: list[int], cov_v: int, cov_e: int) -> int:
        """Completions of the state; `cov_v`/`cov_e` are the target vertices
        and edges the assigned vertices already cover (0 unless covering)."""
        full_v = self.full_v
        if active == 0:
            return 1 if full_v is None else int(cov_v == full_v and cov_e == self.full_e)
        if full_v is not None and (full_v & ~cov_v).bit_count() > active.bit_count():
            return 0  # each unassigned vertex covers at most one more target vertex
        key = None
        if active.bit_count() >= _MEMO_MIN_ACTIVE:
            key = self._key(active, doms, cov_v, cov_e)
            hit = self.memo.get(key)
            if hit is not None:
                return hit
        padj = self.cadj
        v = (active & -active).bit_length() - 1
        rest = active & ~(1 << v)
        total = 0
        if full_v is None:
            # peel the neighbors of v left with no active neighbor: their
            # domains are final and contribute independently
            lone = [u for u in _bits(padj[v] & rest) if padj[u] & rest == 0]
            left = rest
            for u in lone:
                left &= ~(1 << u)
            for t, nd in self._extend(padj, v, rest, doms):
                factor = 1
                for u in lone:
                    factor *= nd[u].bit_count()
                    nd[u] = 0
                total += factor * self._count(left, nd, 0, 0)
        else:
            ebit = self.ebit
            image = self.image
            assigned_nbrs = list(_bits(padj[v] & ~active)) if ebit else ()
            for t, nd in self._extend(padj, v, rest, doms):
                ce = cov_e
                for u in assigned_nbrs:
                    ce |= ebit[image[u]][t]
                image[v] = t
                total += self._count(rest, nd, cov_v | 1 << t, ce)
        if key is not None:
            self.memo[key] = total
        return total

    def _key(self, active: int, doms: list[int], cov_v: int, cov_e: int):
        """The memo key: the domains, plus, when covering, what is covered
        and, for edges, the images of assigned vertices next to the active
        set (they decide which target edges the active vertices can still
        realize)."""
        if self.full_v is None:
            return self._pack(doms)
        front = 0
        if self.ebit is not None:
            for a in _bits(active):
                front |= self.cadj[a]
        return self._pack(doms + [cov_v, cov_e] + [self.image[u] for u in _bits(front & ~active)])

    def _extend(
        self, padj: list[int], v: int, rest: int, doms: list[int]
    ) -> list[tuple[int, list[int]]]:
        """(t, doms') for each value t of v that leaves every active neighbor
        of v a non-empty domain; doms' is forward-checked, with v's entry 0."""
        tadj = self.tadj
        nbrs = list(_bits(padj[v] & rest))
        out = []
        for t in _bits(doms[v]):
            ta = tadj[t]
            nd = doms[:]
            nd[v] = 0
            for u in nbrs:
                x = nd[u] & ta
                if x == 0:
                    break
                nd[u] = x
            else:
                out.append((t, nd))
        return out

    def assignments(self) -> Iterator[dict[str, str]]:
        """All homomorphisms, as vertex->vertex dicts, deterministic order."""
        n = len(self.pverts)
        if n == 0:
            yield {}
            return
        if any(d == 0 for d in self.domains):
            return
        image = [-1] * n
        yield from self._enumerate((1 << n) - 1, list(self.domains), image)

    def _enumerate(self, active: int, doms: list[int], image: list[int]) -> Iterator[dict[str, str]]:
        if active == 0:
            yield {
                self.pverts[i]: self.tverts[image[i]] for i in range(len(self.pverts))
            }
            return
        v = min(_bits(active), key=lambda i: (doms[i].bit_count(), i))
        rest = active & ~(1 << v)
        for t, nd in self._extend(self.padj, v, rest, doms):
            image[v] = t
            yield from self._enumerate(rest, nd, image)
        image[v] = -1


def _check_same_target(inst: ListedInstance, target: Graph) -> None:
    if inst.target_vertices != target.vertices:
        raise ValueError("instance lists are over a different target vertex set")


def enumerate_homs(inst: ListedInstance, target: Graph) -> Iterator[dict[str, str]]:
    _check_same_target(inst, target)
    return _Search(inst.pattern, inst.lists, target).assignments()


# -- multiplicative modes --------------------------------------------------


def _count_connected(pattern: Graph, lists: dict[str, frozenset[str]], target: Graph) -> int:
    return _Search(pattern, lists, target).count()


def decompose_and_count(inst: ListedInstance, target: Graph, mode: str = "lhom") -> int:
    """Product over pattern components; within each, sum over target
    components with the lists restricted to that component.
    """
    if mode not in MULTIPLICATIVE_MODES:
        raise ValueError(f"mode {mode!r} is not multiplicative-safe")
    if mode == "ret" and not inst.is_retraction_shaped():
        raise ValueError("instance violates the retraction list condition")
    _check_same_target(inst, target)
    tcomps = connected_components(target)
    result = 1
    for comp in connected_components(inst.pattern):
        lists = {v: inst.lists[v] for v in comp.vertices}
        sub = 0
        for tc in tcomps:
            tcv = frozenset(tc.vertices)
            clists = {v: sv & tcv for v, sv in lists.items()}
            if any(not sv for sv in clists.values()):
                continue
            sub += _count_connected(comp, clists, tc)
        result *= sub
        if result == 0:
            return 0
    return result


def count_list_hom(inst: ListedInstance, target: Graph, decompose: bool = True) -> int:
    """Exact number of list homomorphisms from (G, S) to the target."""
    _check_same_target(inst, target)
    if decompose:
        return decompose_and_count(inst, target, "lhom")
    return _count_connected(inst.pattern, inst.lists, target)


def count_hom(pattern: Graph, target: Graph) -> int:
    """hom(G, H) for irreflexive G: all-full lists."""
    return count_list_hom(ListedInstance.full(pattern, target), target)


def count_retraction(inst: ListedInstance, target: Graph) -> int:
    """List-homomorphism count under the one-or-all list condition."""
    _check_same_target(inst, target)
    n = len(target.vertices)
    for v, sv in inst.lists.items():
        if len(sv) not in (1, n):
            raise ValueError(
                f"retraction instance needs |S_v| in {{1, {n}}}; vertex {v!r} has {len(sv)}"
            )
    return count_list_hom(inst, target)


# -- surjective homomorphisms and compactions ------------------------------


def _count_covering(
    inst: ListedInstance, target: Graph, need_edges: bool
) -> int:
    """Count homs surjective on V(H) (and, with `need_edges`, on the non-loop
    edges of H): the memoised search with a coverage state."""
    _check_same_target(inst, target)
    search = _Search(inst.pattern, inst.lists, target)
    tn = len(search.tverts)
    ebit = None
    if need_edges:
        ebit = [[0] * tn for _ in range(tn)]
        for b, (u, v) in enumerate(target.non_loop_edges()):
            i, j = target.index(u), target.index(v)
            ebit[i][j] = ebit[j][i] = 1 << b
    return search.count((1 << tn) - 1, ebit)


def _count_surjective_ie(inst: ListedInstance, target: Graph) -> int:
    """Inclusion-exclusion over the subset W of target vertices hit."""
    _check_same_target(inst, target)
    tn = len(target.vertices)
    total = 0
    for r in range(tn + 1):
        for keep in combinations(target.vertices, r):
            sub = inst.restrict_lists(frozenset(keep))
            c = count_list_hom(sub, target)
            total += (-1) ** (tn - r) * c
    return total


def _count_compaction_ie(inst: ListedInstance, target: Graph) -> int:
    """Inclusion-exclusion over missed requirements (D, F): D the avoided
    target vertices, F the unrealized non-loop target edges; homs land in
    the structure (V \\ D, E(H[V \\ D]) \\ F).

    F ranges over all non-loop edges of H (edges touching D are vacuously
    unrealized; restricting F to H[W] breaks the alternating sum).
    """
    _check_same_target(inst, target)
    tn = len(target.vertices)
    nl_all = target.non_loop_edges()
    total = 0
    for r in range(tn + 1):
        for keep in combinations(target.vertices, r):
            keepset = frozenset(keep)
            sub = target.induced(keep)
            loops = [(v, v) for v in sub.looped_vertices()]
            inside = sub.non_loop_edges()
            sign_w = (-1) ** (tn - r)
            lists = {v: inst.lists[v] & keepset for v in inst.pattern.vertices}
            for k in range(len(nl_all) + 1):
                for drop in combinations(nl_all, k):
                    dropset = {frozenset(e) for e in drop}
                    edges = loops + [e for e in inside if frozenset(e) not in dropset]
                    struct = Graph(keep, edges)
                    c = count_list_hom(
                        ListedInstance(inst.pattern, lists, struct.vertices), struct
                    )
                    total += sign_w * (-1) ** k * c
    return total


def count_surjective(inst: ListedInstance, target: Graph, method: str = "enum") -> int:
    """Exact sur((G,S),H): homomorphisms hitting every target vertex."""
    if method == "enum":
        return _count_covering(inst, target, need_edges=False)
    if method == "ie":
        return _count_surjective_ie(inst, target)
    raise ValueError(f"unknown method {method!r}")


def count_compaction(inst: ListedInstance, target: Graph, method: str = "enum") -> int:
    """Exact comp((G,S),H): surjective and covering every non-loop target edge."""
    if method == "enum":
        return _count_covering(inst, target, need_edges=True)
    if method == "ie":
        return _count_compaction_ie(inst, target)
    raise ValueError(f"unknown method {method!r}")


def count(inst: ListedInstance, target: Graph, mode: str, method: str | None = None) -> int:
    """Mode dispatcher used by the CLI; mode in COUNT_MODES."""
    if mode in ("hom", "lhom"):
        return count_list_hom(inst, target)
    if mode == "ret":
        return count_retraction(inst, target)
    if mode == "sur":
        return count_surjective(inst, target, method or "enum")
    if mode == "comp":
        return count_compaction(inst, target, method or "enum")
    raise ValueError(f"unknown mode {mode!r}")


# -- blocked evaluation ----------------------------------------------------

EXPANSION_GUARD = 10_000


def count_blocked(b: BlockedInstance, target: Graph, guard: int = EXPANSION_GUARD) -> int:
    """Count list homomorphisms of the expansion without building it when the
    block structure allows.

    Fast path: every block with multiplicity > 1 couples only to
    multiplicity-1 blocks.  Then, for each assignment of the singleton
    blocks, the vertices of a multi-block choose values independently from
    the set of common neighbors of their singleton anchors, contributing
    |choices|^multiplicity.  This covers the multiterminal-cut gadgets at
    astronomically large multiplicities.

    Other coupling shapes fall back to expansion (guarded).
    """
    if tuple(sorted(b.target_vertices)) != target.vertices:
        raise ValueError("blocked instance is over a different target vertex set")
    singles = [blk for blk in b.blocks if blk.multiplicity == 1]
    multis = [blk for blk in b.blocks if blk.multiplicity > 1]
    multi_names = {blk.name for blk in multis}
    fast = multis and all(
        c.a not in multi_names or c.b not in multi_names for c in b.couplings
    )
    if not fast:
        # all-singleton instances and coupled multi-blocks both go through
        # the expansion (the real search orders variables properly)
        if b.expansion_size() > guard:
            raise ValueError(
                "blocked instance couples multi-blocks to each other and its "
                f"expansion exceeds the guard ({b.expansion_size()} > {guard})"
            )
        return count_list_hom(expand_blocked(b), target)

    tindex = {v: i for i, v in enumerate(target.vertices)}
    full = (1 << len(target.vertices)) - 1
    tadj = [target._adj[i] for i in range(len(target.vertices))]
    pins = b.pin_map()

    def base_mask(blk) -> int:
        if blk.name in pins:
            return 1 << tindex[pins[blk.name]]
        if blk.list is None:
            return full
        m = 0
        for t in blk.list:
            m |= 1 << tindex[t]
        return m

    single_names = [blk.name for blk in singles]
    single_pos = {n: i for i, n in enumerate(single_names)}
    single_dom = [base_mask(blk) for blk in singles]
    # adjacency among singles, and single anchors per multi-block
    single_adj = [[] for _ in singles]
    multi_anchors = {blk.name: [] for blk in multis}
    for c in b.couplings:
        a_multi, b_multi = c.a in multi_names, c.b in multi_names
        if not a_multi and not b_multi:
            single_adj[single_pos[c.a]].append(single_pos[c.b])
            single_adj[single_pos[c.b]].append(single_pos[c.a])
        elif a_multi:
            multi_anchors[c.a].append(single_pos[c.b])
        else:
            multi_anchors[c.b].append(single_pos[c.a])
    multi_dom = {blk.name: base_mask(blk) for blk in multis}
    multi_mult = {blk.name: blk.multiplicity for blk in multis}

    total = 0
    k = len(singles)

    def rec(i: int, doms: list[int], choice: list[int]) -> None:
        nonlocal total
        if i == k:
            prod = 1
            for blk in multis:
                m = multi_dom[blk.name]
                for s in multi_anchors[blk.name]:
                    m &= tadj[choice[s]]
                c = m.bit_count()
                if c == 0:
                    return
                prod *= c ** multi_mult[blk.name]
            total += prod
            return
        for t in _bits(doms[i]):
            # forward propagation keeps later coupled singles consistent;
            # earlier ones already restricted this domain when they chose
            nd = doms[:]
            ok = True
            for j in single_adj[i]:
                if j > i:
                    x = nd[j] & tadj[t]
                    if x == 0:
                        ok = False
                        break
                    nd[j] = x
            if not ok:
                continue
            choice.append(t)
            rec(i + 1, nd, choice)
            choice.pop()

    rec(0, single_dom, [])
    return total
