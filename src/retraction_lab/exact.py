"""Exact counting of homomorphisms, list homomorphisms, retractions,
surjective homomorphisms and compactions, and the search kernel behind every
exact count in the library.

All counts are exact Python integers.  One kernel, `_Search`, serves the
undirected counts here, the directed and Boolean-CSP counts in `csp` and the
blocked evaluation: backtracking with forward checking over out/in
adjacency masks (an undirected graph is the symmetric case) and a per-call
memo on the residual state, so its time follows the number of distinct
residual subproblems, not the count.  The memo key is
  - hom, lhom, ret: the unassigned vertices' domain masks (assigned and
    peeled vertices hold 0);
  - sur: those, plus the target vertices already covered;
  - comp: those, plus the covered target edges and the images of the
    assigned vertices next to an unassigned one.
Counting branches in a fixed order chosen to keep few unassigned vertices
next to assigned ones, one pattern component after another; enumeration
branches most-constrained-first with lexicographic tie-break.  Both are
deterministic, and both recurse once per vertex they branch on: a search
deeper than Python's recursion limit raises ValueError.  Each mode has this one route; the second routes through
other identities (a product over components, inclusion-exclusion for
surjective and compaction counts) are cross-checks in `reference`.
"""
from __future__ import annotations

import math
import sys
from array import array
from typing import Iterator

from .graphs import DiGraph, Graph, _bits
from .instances import BlockedInstance, ListedInstance, check_retraction_lists, expand_blocked

COUNT_MODES = ("hom", "lhom", "ret", "sur", "comp")


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
    """The backtracking search behind every counter and enumerator here.

    The pattern and the target are out/in adjacency masks over vertex
    indices; an undirected graph passes the same masks as out and in.  A
    pattern arc u -> v needs a target arc from u's image to v's.  The
    pattern masks are loop-free: a caller folds a pattern loop into the
    vertex's domain (see `_search`).

    A search state is the active (unassigned) vertex set with the active
    vertices' domain masks, forward-checked against every assigned neighbor.
    Assigned and peeled vertices get domain 0, so ``doms`` alone fixes the
    residual subproblem, and `count` memoises on it for the length of one
    call.  `count` branches in a fixed order (see `_order`); `assignments`
    branches most-constrained-first.

    `weights` (default all 1) makes vertex v stand for weights[v]
    independent copies of itself: once peeled it contributes
    |domain|^weight.  A vertex of weight > 1 and more than one value must
    have no neighbor of weight > 1; `_order` puts it last in its component,
    so it is always peeled, never branched on.
    """

    def __init__(self, out, inn, domains: list[int], tout, tin, weights: list[int] | None = None):
        self.out, self.inn, self.tout, self.tin = out, inn, tout, tin
        self.adj = out if inn is out else [a | b for a, b in zip(out, inn)]
        self.domains = domains
        self.weights = weights
        self.heavy = 0
        for v, w in enumerate(weights or ()):
            if w > 1 and domains[v].bit_count() > 1:
                self.heavy |= 1 << v

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
        self._pack = _packer(max(len(self.tout), self.full_e.bit_length()))
        runs = self._order()
        order = [v for run in runs for v in run]
        pos = [0] * len(order)
        for k, v in enumerate(order):
            pos[v] = k

        # relabel the pattern so that `order` is the identity: the next vertex
        # to branch on is then the lowest active bit
        def relabel(masks):
            return [sum(1 << pos[u] for u in _bits(masks[v])) for v in order]

        self.cout = relabel(self.out)
        if self.inn is self.out:
            self.cin = self.cadj = self.cout
        else:
            self.cin = relabel(self.inn)
            self.cadj = [a | b for a, b in zip(self.cout, self.cin)]
        self.cw = None if self.weights is None else [self.weights[v] for v in order]
        self.image = [-1] * len(order)
        self.memo: dict = {}
        n = len(order)
        doms = [self.domains[v] for v in order]
        if full_v is not None:
            try:
                return self._count((1 << n) - 1, doms, 0, 0)
            except RecursionError:
                raise _too_deep("compaction count" if ebit else "surjective count", n) from None
        # without coverage each pattern component is a factor of its own, so
        # the recursion is only as deep as one component; a lone vertex
        # contributes |domain|^weight.  Runs cannot share memo keys: a key is
        # 0 outside its run.
        total, lo = 1, 0
        for run in runs:
            hi = lo + len(run)
            if hi - lo == 1:
                total *= doms[lo].bit_count() ** (1 if self.cw is None else self.cw[lo])
            else:
                run_doms = [0] * lo + doms[lo:hi] + [0] * (n - hi)
                try:
                    total *= self._count((1 << hi) - (1 << lo), run_doms, 0, 0)
                except RecursionError:
                    raise _too_deep("list-homomorphism count", n) from None
            if total == 0:
                return 0
            lo = hi
        return total

    def _order(self) -> list[list[int]]:
        """The fixed branching order of `count`, one run per pattern
        component (components by lowest vertex).  Within a run: the
        single-value vertices first, then greedily the vertex, next to the
        assigned ones if any is, that leaves the fewest unassigned vertices
        next to assigned ones (ties: the lowest index), then the vertices of
        weight > 1.  In a fixed order every branch reaches the same active
        set after the same number of steps, so the memo separates states only
        by the domains on that frontier: paths, cycles and 2 x k grids take
        time linear in their length."""
        adj = self.adj
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
            order = [v for v in _bits(comp) if self.domains[v].bit_count() == 1]
            left = comp & ~self.heavy
            reach = 0
            for v in order:
                left &= ~(1 << v)
                reach |= adj[v]
            while left:
                # a frontier candidate leaves at least the rest of the frontier
                # next to assigned vertices, so the first one that leaves no
                # more is the minimum, and the scan stops there
                cand = reach & left
                floor = cand.bit_count() - 1 if cand else 0
                best = left.bit_count()  # above every key
                for u in _bits(cand or left):
                    k = ((reach | adj[u]) & left & ~(1 << u)).bit_count()
                    if k < best:
                        v, best = u, k
                        if k == floor:
                            break
                order.append(v)
                left &= ~(1 << v)
                reach |= adj[v]
            order.extend(_bits(comp & self.heavy))
            runs.append(order)
        return runs

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
            cw = self.cw
            for t, nd in self._extend(self.cout, self.cin, v, rest, doms):
                factor = 1
                for u in lone:
                    factor *= nd[u].bit_count() if cw is None else nd[u].bit_count() ** cw[u]
                    nd[u] = 0
                total += factor * self._count(left, nd, 0, 0)
        else:
            ebit = self.ebit
            image = self.image
            assigned_nbrs = list(_bits(padj[v] & ~active)) if ebit else ()
            for t, nd in self._extend(self.cout, self.cin, v, rest, doms):
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

    def _extend(self, out, inn, v: int, rest: int, doms: list[int]) -> list[tuple[int, list[int]]]:
        """(t, doms') for each value t of v that leaves every active neighbor
        of v a non-empty domain; doms' is forward-checked, with v's entry 0.
        Out-neighbors must land in t's out-neighborhood, in-neighbors in its
        in-neighborhood; with symmetric masks the first check is the whole
        check, so the undirected loop stays as tight as it can be."""
        succ = list(_bits(out[v] & rest))
        pred = None if inn is out else list(_bits(inn[v] & rest))
        tout = self.tout
        res = []
        for t in _bits(doms[v]):
            nd = doms[:]
            nd[v] = 0
            ta = tout[t]
            for u in succ:
                x = nd[u] & ta
                if x == 0:
                    break
                nd[u] = x
            else:
                if pred is None or _narrow(nd, pred, self.tin[t]):
                    res.append((t, nd))
        return res

    def assignments(self) -> Iterator[tuple[int, ...]]:
        """All homomorphisms, each as the tuple of its images' target indices
        in pattern vertex order; deterministic order."""
        n = len(self.domains)
        if any(d == 0 for d in self.domains):
            return
        try:
            yield from self._enumerate((1 << n) - 1, list(self.domains), [-1] * n)
        except RecursionError:
            raise _too_deep("enumeration", n) from None

    def _enumerate(self, active: int, doms: list[int], image: list[int]) -> Iterator[tuple[int, ...]]:
        if active == 0:
            yield tuple(image)
            return
        v = min(_bits(active), key=lambda i: (doms[i].bit_count(), i))
        rest = active & ~(1 << v)
        for t, nd in self._extend(self.out, self.inn, v, rest, doms):
            image[v] = t
            yield from self._enumerate(rest, nd, image)
        image[v] = -1


def _too_deep(what: str, n: int) -> ValueError:
    return ValueError(
        f"{what} on a {n}-vertex pattern: the search recurses once per vertex it "
        f"branches on and went past Python's recursion limit ({sys.getrecursionlimit()})"
    )


def _narrow(doms: list[int], nbrs: list[int], mask: int) -> bool:
    """Intersect the domains of `nbrs` with `mask`; False if one empties."""
    for u in nbrs:
        x = doms[u] & mask
        if x == 0:
            return False
        doms[u] = x
    return True


def _domains(vertices, lists: dict[str, frozenset[str]], tindex: dict[str, int]) -> list[int]:
    """Each vertex's list as a mask over the target indices."""
    out = []
    for v in vertices:
        mask = 0
        for t in lists[v]:
            mask |= 1 << tindex[t]
        out.append(mask)
    return out


def _search(pattern: Graph | DiGraph, lists: dict[str, frozenset[str]], target: Graph | DiGraph) -> _Search:
    """The kernel on two graphs or on two digraphs.  A looped digraph vertex
    needs a looped image: its loop becomes that restriction of its domain.
    (Graph patterns are irreflexive, see `ListedInstance`.)"""
    doms = _domains(pattern.vertices, lists, target._index)
    if isinstance(pattern, Graph):
        return _Search(pattern._adj, pattern._adj, doms, target._adj, target._adj)
    out, inn = list(pattern._out), list(pattern._in)
    tloops = sum(1 << t for t, m in enumerate(target._out) if m >> t & 1)
    for v, m in enumerate(out):
        if m >> v & 1:
            doms[v] &= tloops
            out[v] &= ~(1 << v)
            inn[v] &= ~(1 << v)
    return _Search(out, inn, doms, target._out, target._in)


def _check_same_target(inst: ListedInstance, target: Graph) -> None:
    if inst.target_vertices != target.vertices:
        raise ValueError("instance lists are over a different target vertex set")


def enumerate_homs(inst: ListedInstance, target: Graph) -> Iterator[dict[str, str]]:
    _check_same_target(inst, target)
    pv, tv = inst.pattern.vertices, target.vertices
    search = _search(inst.pattern, inst.lists, target)
    return ({v: tv[t] for v, t in zip(pv, image)} for image in search.assignments())


# -- the five counting modes ------------------------------------------------


def count_list_hom(inst: ListedInstance, target: Graph) -> int:
    """Exact number of list homomorphisms from (G, S) to the target."""
    _check_same_target(inst, target)
    return _search(inst.pattern, inst.lists, target).count()


def count_hom(pattern: Graph, target: Graph) -> int:
    """hom(G, H) for irreflexive G: all-full lists."""
    return count_list_hom(ListedInstance.full(pattern, target), target)


def count_retraction(inst: ListedInstance, target: Graph) -> int:
    """List-homomorphism count under the one-or-all list condition."""
    check_retraction_lists(inst)
    return count_list_hom(inst, target)


def _count_covering(inst: ListedInstance, target: Graph, need_edges: bool) -> int:
    """Count homs surjective on V(H) (and, with `need_edges`, on the non-loop
    edges of H): the memoised search with a coverage state."""
    _check_same_target(inst, target)
    search = _search(inst.pattern, inst.lists, target)
    tn = len(target.vertices)
    ebit = None
    if need_edges:
        ebit = [[0] * tn for _ in range(tn)]
        for b, (u, v) in enumerate(target.non_loop_edges()):
            i, j = target.index(u), target.index(v)
            ebit[i][j] = ebit[j][i] = 1 << b
    return search.count((1 << tn) - 1, ebit)


def count_surjective(inst: ListedInstance, target: Graph) -> int:
    """Exact sur((G,S),H): homomorphisms hitting every target vertex."""
    return _count_covering(inst, target, need_edges=False)


def count_compaction(inst: ListedInstance, target: Graph) -> int:
    """Exact comp((G,S),H): surjective and covering every non-loop target edge."""
    return _count_covering(inst, target, need_edges=True)


def count(inst: ListedInstance, target: Graph, mode: str) -> int:
    """Mode dispatcher used by the CLI; mode in COUNT_MODES."""
    if mode in ("hom", "lhom"):
        return count_list_hom(inst, target)
    if mode == "ret":
        return count_retraction(inst, target)
    if mode == "sur":
        return count_surjective(inst, target)
    if mode == "comp":
        return count_compaction(inst, target)
    raise ValueError(f"unknown mode {mode!r}")


# -- blocked evaluation ----------------------------------------------------

EXPANSION_GUARD = 10_000


def count_blocked(b: BlockedInstance, target: Graph) -> int:
    """Count list homomorphisms of the expansion without building it when the
    block structure allows.

    Fast path: no coupling joins two multi-blocks.  Then the block graph,
    one vertex per block weighted by its multiplicity and one edge per
    coupling, runs on the search kernel: once its singleton anchors are
    assigned, the vertices of a multi-block choose values independently from
    the common neighbors of the anchors' images, contributing
    |choices|^multiplicity; an uncoupled block contributes
    |list|^multiplicity.  This covers the multiterminal-cut gadgets at
    astronomically large multiplicities.

    Coupled multi-blocks fall back to expansion, up to EXPANSION_GUARD
    vertices.
    """
    if tuple(sorted(b.target_vertices)) != target.vertices:
        raise ValueError("blocked instance is over a different target vertex set")
    multi = {blk.name for blk in b.blocks if blk.multiplicity > 1}
    if any(c.a in multi and c.b in multi for c in b.couplings):
        if b.expansion_size() > EXPANSION_GUARD:
            raise ValueError(
                "blocked instance couples multi-blocks to each other and its "
                f"expansion exceeds the guard ({b.expansion_size()} > {EXPANSION_GUARD})"
            )
        return count_list_hom(expand_blocked(b), target)

    full = frozenset(target.vertices)
    lists = {blk.name: full if blk.list is None else blk.list for blk in b.blocks}
    lists.update((name, frozenset((t,))) for name, t in b.pins)
    weight = {blk.name: blk.multiplicity for blk in b.blocks}
    blocks = Graph(weight, [(c.a, c.b) for c in b.couplings])
    doms = _domains(blocks.vertices, lists, target._index)
    weights = [weight[name] for name in blocks.vertices]
    return _Search(blocks._adj, blocks._adj, doms, target._adj, target._adj, weights).count()
