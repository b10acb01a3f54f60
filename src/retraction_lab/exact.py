"""Exact counting of homomorphisms, list homomorphisms, retractions,
surjective homomorphisms and compactions, and the search kernel behind every
exact count in the library.

All counts are exact Python integers.  One kernel, `_Search`, serves the
undirected counts here, the directed and Boolean-CSP counts in `csp` and the
blocked evaluation: forward checking over out/in adjacency masks (an
undirected graph is the symmetric case).  Counting is one sweep along a
fixed vertex order chosen to keep few unassigned vertices next to assigned
ones, one pattern component after another.  Each step extends every
partial map by the next vertex, and partial maps that leave the same
residual state merge into one, their numbers added (the path-decomposition
count of Diaz, Serna and Thilikos), so its time follows the number of
distinct residual states, not the count.  A state is
  - hom, lhom, ret: one int packing every vertex's domain, field v (k + 1
    bits for a k-vertex target) for pattern vertex v, whatever its place in
    the order, with a spare top bit that stays 0; assigned and peeled
    vertices hold 0.  A
    child narrows every unassigned neighbor of the vertex it assigns with
    one multiply (bit 0 of each neighbor's field times the values not next
    to the chosen one, so no field carries into the next), and a
    neighbor's domain emptied exactly when subtracting 1 from each
    neighbor field, its spare bit set, leaves that spare bit clear
    (Lamport's multiple-byte test).  Each child costs a few big-int
    operations over n (k + 1) bits;
  - sur: that int with the target vertices already covered in the k bits
    above the fields;
  - comp: also the covered target edges, in the bits above those, and an
    assigned vertex next to an unassigned one keeps its value (one bit) in
    its own field, cleared once its last neighbor is assigned;
  - under a cap on the vertices with a covering value (the coverage
    estimator's witness counts, `_witness_search`): also that number, in
    the top bits.
  A child step narrows and tests only the fields of unassigned neighbors,
  so the coverage bits pass through it unchanged, and every state is one
  int.
A split count (`_pin_counts`, the exact sampler's pinning step) runs the
same sweep from one state per value t of a chosen vertex and keeps every
number of partial maps as one int with a field per value, so one sweep
returns the count of the instance pinned to each value.
Enumeration backtracks on the same packed int, with the same child step
and borrow test (an assigned vertex's field is left as it is and no longer
read), branching most-constrained-first (fewest values, then the lowest
index), and prunes on the same coverage state as counting; the step that
assigns the last vertex yields each completed map itself, a covering one
once it meets the goal.  Both are deterministic.  Enumeration recurses once
per vertex it branches on but the last, so one deeper than Python's
recursion limit raises ValueError; the library lists only small
patterns.  Each mode has this one route; the second
routes through other identities (a product over components,
inclusion-exclusion for surjective and compaction counts) are cross-checks
in `reference`.
"""
from __future__ import annotations

import math
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

class _Search:
    """The backtracking search behind every counter and enumerator here.

    The pattern and the target are out/in adjacency masks over vertex
    indices; an undirected graph passes the same masks as out and in.  A
    pattern arc u -> v needs a target arc from u's image to v's.  The
    pattern masks are loop-free: a caller folds a pattern loop into the
    vertex's domain (see `_search`).

    A search state holds the unassigned vertices' domain masks,
    forward-checked against every assigned neighbor, packed into one int of
    (k + 1)-bit fields, field v for pattern vertex v; the constructor builds
    that layout once for `count` and `assignments` both.  `count` sweeps a
    fixed order (see `_order`), clears a vertex's field once it is assigned
    or peeled (covering edges, once it also has no unassigned neighbor), so
    the int alone fixes the residual subproblem, and merges the partial
    maps that reach equal ints; `assignments` backtracks on the int,
    branches most-constrained-first and yields each map at the step that
    assigns its last vertex.

    `weights` (default all 1) makes vertex v stand for weights[v]
    independent copies of itself: once peeled it contributes
    |domain|^weight.  A vertex of weight > 1 and more than one value must
    have no neighbor of weight > 1; `_order` puts it last in its component,
    so it is always peeled, never branched on.
    """

    def __init__(self, out, inn, domains: list[int], tout, tin, weights: list[int] | None = None):
        self.digraph = inn is not out
        self.adj = [a | b for a, b in zip(out, inn)] if self.digraph else out
        self.domains = domains
        self.weights = weights
        self.heavy = 0
        for v, w in enumerate(weights or ()):
            if w > 1 and domains[v].bit_count() > 1:
                self.heavy |= 1 << v
        # no coverage goal until `cover` sets one
        self.full_v = self.ebit = self.top = None
        self.full_e = 0
        # the packed layout: field v, w = k + 1 bits, holds pattern vertex
        # v's domain; low_out[v] (low_in[v]) is bit 0 of the field of each
        # out- (in-) neighbor of v, off_out[t] (off_in[t]) the values not in
        # t's out- (in-) neighborhood
        k = len(tout)
        self.w, self.vmask = w, vmask = k + 1, (1 << k) - 1
        lows = []
        for masks in (out, inn) if self.digraph else (out,):
            row = []
            for m in masks:
                lo = 0
                while m:
                    b = m & -m
                    lo |= 1 << (b.bit_length() - 1) * w
                    m ^= b
                row.append(lo)
            lows.append(row)
        self.low_out, self.low_in = lows[0], lows[-1]
        self.off_out = [vmask & ~a for a in tout]
        self.off_in = [vmask & ~a for a in tin] if self.digraph else self.off_out
        x = 0
        for v, d in enumerate(domains):
            x |= d << v * w
        self.packed = x

    def cover(self, full_v: int, edges: bool = False, top: int | None = None) -> "_Search":
        """Set the goal `count` and `assignments` read: only maps whose
        values cover the target-vertex mask `full_v` (value t covers
        ``(1 << t) & full_v``); with `edges`, only those that also realize
        every non-loop target edge between two vertices of `full_v` on a
        pattern edge; with `top`, at most `top` pattern vertices take a
        covering value.  The edges are numbered in index order into
        ``ebit[i][j]``, the bit of the edge that values i and j realize (0 if
        none)."""
        self.full_v, self.top, self.ebit, self.full_e = full_v, top, None, 0
        if edges:
            k, e = self.w - 1, 0
            self.ebit = ebit = [[0] * k for _ in range(k)]
            for i in _bits(full_v):
                # the goal vertices above i next to i
                for j in _bits(full_v & ~self.off_out[i] & ~((2 << i) - 1)):
                    ebit[i][j] = ebit[j][i] = 1 << e
                    e += 1
            self.full_e = (1 << e) - 1
        return self

    def count(self, split: int | None = None) -> int:
        """Number of homomorphisms that meet the coverage goal.

        One sweep along the fixed order (see `_order`): each step extends
        every state by the next vertex, and children that leave the same
        residual subproblem merge into one state whose number of partial
        maps is the sum of theirs.  The key is one int: the domains in
        (k + 1)-bit fields at bits [0, n (k + 1)) (see the module
        docstring) and, covering, the covered target vertices in the k bits
        above them, the covered edges (one bit each) above those and, under
        a cap, the number of vertices with a covering value on top.  A child
        ORs in its value's vertex and edge bits and adds 1 to that number;
        a state's room for the vertices left to cover is worked out once,
        before its children.  With edges to cover, an assigned vertex keeps
        its value (one bit) in its own field while it has an unassigned
        neighbor: a step reads the values of the assigned neighbors of the
        vertex it assigns, for the edges its value realizes, then clears the
        fields of those whose last unassigned neighbor it was.  The count is
        the sum over the states whose coverage bits equal the goal.

        With `split`, a vertex, the counts with that vertex pinned to each
        of its values, from the same one sweep: it starts from one state per
        value t, the vertex's domain {t} and its number of partial maps
        1 << t * `_split_bits` (domains), so that field t of every number,
        and of the returned int, counts the maps with the vertex at t (no
        field can carry into the next).  The order is the one each pinned
        instance gets on its own.  A split takes no weights and no coverage
        goal."""
        if split is not None and (self.weights is not None or self.full_v is not None):
            raise ValueError("a split count takes no weights and no coverage goal")
        if any(d == 0 for d in self.domains):
            return 0
        full_v, full_e, ebit = self.full_v, self.full_e, self.ebit
        n, k, w, vmask = len(self.domains), self.w - 1, self.w, self.vmask
        # a cap no assignment can reach stays out of the search and its keys
        cap = self.top if self.top is not None and self.top < n else None
        order = self._order(split)
        digraph, adj, cw, x = self.digraph, self.adj, self.weights, self.packed
        low_out, low_in, off_out, off_in = self.low_out, self.low_in, self.off_out, self.off_in
        # bit 0 of every field of an unassigned, unpeeled vertex
        low_rest = ((1 << n * w) - 1) // ((1 << w) - 1)
        # state -> number of partial maps
        if split is None:
            states: dict = {x: 1}
            if full_v is not None:
                # the covered vertices start at bit cv_at, the number used
                # at bit used_at
                cv_at = n * w
                used_at = cv_at + k + full_e.bit_length()
                one_used = 0 if cap is None else 1 << used_at
                # ebit with each edge bit moved to its place in the state
                erow = [[e << cv_at + k for e in row] for row in ebit] if full_e else None
        else:
            sb, ss = _split_bits(self.domains), split * w
            x &= ~(vmask << ss)
            states = {x | 1 << ss + t: 1 << t * sb for t in _bits(self.domains[split])}
        active = (1 << n) - 1
        for v in order:
            if not active >> v & 1:
                continue  # peeled
            active ^= 1 << v
            rest = active
            sv = v * w
            low_rest ^= 1 << sv
            clear = ~(vmask << sv)
            s_low = low_out[v] & low_rest
            p_low = low_in[v] & low_rest if digraph else 0
            nb_low = s_low | p_low
            nb_high = nb_low << k
            nxt: dict = {}
            if full_v is None:
                # v's neighbors left with no unassigned neighbor, or v itself
                # if it has none: their domains are final and each contributes
                # |domain|^weight
                nbrs = adj[v] & rest
                lone = [u for u in _bits(nbrs) if not adj[u] & rest] if nbrs else [v]
                peel = [(u * w, 1 if cw is None else cw[u]) for u in lone]
                for u in lone:
                    active &= ~(1 << u)
                    low_rest &= ~(1 << u * w)
                    clear &= ~(vmask << u * w)
                if not nbrs:
                    for x, c in states.items():
                        y = x & clear
                        nxt[y] = nxt.get(y, 0) + c * (x >> sv & vmask).bit_count() ** peel[0][1]
                else:
                    for x, c in states.items():
                        d = x >> sv & vmask
                        while d:
                            b = d & -d
                            d ^= b
                            t = b.bit_length() - 1
                            y = x & ~(s_low * off_out[t])
                            if digraph:
                                y &= ~(p_low * off_in[t])
                            # a neighbor's field of 0, minus 1, borrows its spare bit
                            if (y | nb_high) - nb_low & nb_high != nb_high:
                                continue  # that neighbor's domain emptied
                            f = c
                            for su, wu in peel:
                                f *= (y >> su & vmask).bit_count() ** wu
                            y &= clear
                            nxt[y] = nxt.get(y, 0) + f
            else:
                # each vertex still to assign covers at most one more target
                # vertex, and at most cap - used of them may
                room = rest.bit_count()
                # with edges: the fields of v's assigned neighbors, which
                # hold their values; v keeps its value if it has an
                # unassigned neighbor, and a neighbor whose last one v is
                # has its field cleared
                back, keep = [], 0
                if full_e:
                    keep = adj[v] & rest
                    for u in _bits(adj[v] & ~rest):
                        back.append(u * w)
                        if not adj[u] & rest:
                            clear &= ~(vmask << u * w)
                for x, c in states.items():
                    todo = full_v & ~(x >> cv_at)
                    left = todo.bit_count()
                    spare = 1 if cap is None else cap - (x >> used_at) - left
                    d = x >> sv & vmask
                    if left > room or not spare:
                        if left > room + 1 or spare < 0:
                            continue
                        # v must cover a new target vertex (no room left),
                        # or may not cover a covered one (no cap left)
                        d &= todo if left > room else todo | ~full_v
                        if not d:
                            continue
                    # the edge bits of each assigned neighbor's value
                    rows = [erow[(x >> su & vmask).bit_length() - 1] for su in back] if back else ()
                    x &= clear
                    while d:
                        b = d & -d
                        d ^= b
                        t = b.bit_length() - 1
                        y = x & ~(s_low * off_out[t])
                        if digraph:
                            y &= ~(p_low * off_in[t])
                        if (y | nb_high) - nb_low & nb_high != nb_high:
                            continue  # a neighbor's domain emptied
                        for row in rows:
                            y |= row[t]
                        if keep:
                            y |= b << sv
                        if b & full_v:
                            y = (y | b << cv_at) + one_used
                        nxt[y] = nxt.get(y, 0) + c
            if not nxt:
                return 0
            states = nxt
        if full_v is None:
            return sum(states.values())
        # a child sets no coverage bit outside the goal
        goal = full_v | full_e << k
        return sum(c for x, c in states.items() if x >> cv_at & goal == goal)

    def _order(self, split: int | None = None) -> list[int]:
        """The fixed branching order of `count`: the pattern components one
        after another (components by lowest vertex).  Within a component:
        the single-value vertices first (`split` counts as one), then
        greedily the vertex, next to the assigned ones if any is, that
        leaves the fewest unassigned vertices next to assigned ones (ties:
        the lowest index), then the vertices of weight > 1.  In a fixed order every branch reaches the
        same active set after the same number of steps, so `count`'s states
        differ only in the domains on that frontier: paths, cycles and
        2 x k grids keep a bounded number of states per step."""
        adj, heavy = self.adj, self.heavy
        single = 0
        for v, d in enumerate(self.domains):
            if d.bit_count() == 1:
                single |= 1 << v
        if split is not None:
            single |= 1 << split
        order = []
        unseen = (1 << len(adj)) - 1
        while unseen:
            comp = frontier = unseen & -unseen
            while frontier:
                nxt = 0
                while frontier:
                    b = frontier & -frontier
                    nxt |= adj[b.bit_length() - 1]
                    frontier ^= b
                frontier = nxt & ~comp
                comp |= frontier
            unseen &= ~comp
            reach = 0
            m = comp & single
            while m:
                b = m & -m
                v = b.bit_length() - 1
                order.append(v)
                reach |= adj[v]
                m ^= b
            left = comp & ~single & ~heavy
            while left:
                # a frontier candidate leaves at least the rest of the frontier
                # next to assigned vertices, so the first one that leaves no
                # more is the minimum, and the scan stops there
                cand = reach & left
                floor = cand.bit_count() - 1 if cand else 0
                m = cand or left
                best = left.bit_count()  # above every key
                while m:
                    b = m & -m
                    u = b.bit_length() - 1
                    k = ((reach | adj[u]) & left & ~b).bit_count()
                    if k < best:
                        v, vb, best = u, b, k
                        if k == floor:
                            break
                    m ^= b
                order.append(v)
                left ^= vb
                reach |= adj[v]
            order.extend(_bits(comp & heavy))
        return order

    def assignments(self) -> Iterator[tuple[int, ...]]:
        """The homomorphisms that meet the coverage goal, each as the tuple
        of its images' target indices in pattern vertex order; deterministic
        order."""
        n, w = len(self.domains), self.w
        if any(d == 0 for d in self.domains):
            return
        if not n:
            # the one empty map, which covers an empty goal only
            if not self.full_v:
                yield ()
            return
        # bit 0 of every field
        low = ((1 << n * w) - 1) // ((1 << w) - 1)
        try:
            yield from self._enumerate((1 << n) - 1, low, self.packed, [0] * n, 0, 0, 0)
        except RecursionError:
            raise ValueError(
                f"enumeration on a {n}-vertex pattern: the search recurses once per vertex it "
                "branches on and went past Python's recursion limit"
            ) from None

    def _enumerate(
        self, active: int, low: int, x: int, image: list[int], cov_v: int, cov_e: int, used: int
    ) -> Iterator[tuple[int, ...]]:
        """The completions of packed state `x` that meet the goal, pruned as
        in `count`; `active`, the unassigned vertices, is not empty, `low` is
        bit 0 of each of their fields, and ``image`` holds the others' values.
        The branch vertex is the active one of fewest values (ties: the lowest
        index), and its values go in ascending order.  When it is the last
        active vertex, each of its values completes a map, yielded here once
        it meets the goal, with no child generator."""
        full_v, top = self.full_v, self.top
        if full_v is not None:
            room = active.bit_count()
            if top is not None:
                room = min(room, top - used)
            if (full_v & ~cov_v).bit_count() > room:
                return
        w, vmask = self.w, self.vmask
        # the first field of fewest values; no active field is empty, so
        # one of one value ends the scan
        m, fewest = active, w
        while m:
            b = m & -m
            i = b.bit_length() - 1
            c = (x >> i * w & vmask).bit_count()
            if c < fewest:
                v, fewest = i, c
                if c == 1:
                    break
            m ^= b
        rest = active & ~(1 << v)
        low ^= 1 << v * w
        # the child step and borrow test of `count`
        s_low = self.low_out[v] & low
        p_low = self.low_in[v] & low if self.digraph else 0
        nb_low = s_low | p_low
        nb_high = nb_low << w - 1
        off_out, off_in = self.off_out, self.off_in
        ebit, goal, full_e = self.ebit, full_v or 0, self.full_e
        assigned_nbrs = list(_bits(self.adj[v] & ~active)) if ebit else ()
        d = x >> v * w & vmask
        while d:
            b = d & -d
            d ^= b
            t = b.bit_length() - 1
            y = x & ~(s_low * off_out[t])
            if p_low:
                y &= ~(p_low * off_in[t])
            if (y | nb_high) - nb_low & nb_high != nb_high:
                continue  # a neighbor's domain emptied
            cb = b & goal
            if cb and used == top:
                continue
            ce = cov_e
            for u in assigned_nbrs:
                ce |= ebit[image[u]][t]
            image[v] = t
            if rest:
                yield from self._enumerate(rest, low, y, image, cov_v | cb, ce, used + (cb != 0))
            elif full_v is None or cov_v | cb == full_v and ce == full_e:
                yield tuple(image)


def _split_bits(domains: list[int]) -> int:
    """The width of a field of a split count (see `_Search.count`): above the
    bit length of the product of the domain sizes, which bounds every
    number of partial maps of the sweep."""
    return 1 + sum(d.bit_count().bit_length() for d in domains)


def _domains(vertices, lists: dict[str, frozenset[str]], tindex: dict[str, int]) -> list[int]:
    """Each vertex's list, a subset of the target's vertices, as a mask over
    the target indices: a list of every target vertex is the full mask."""
    k = len(tindex)
    full = (1 << k) - 1
    out = []
    for v in vertices:
        s = lists[v]
        if len(s) == k:
            out.append(full)
            continue
        mask = 0
        for t in s:
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
    """The list homomorphisms of (G, S) as dicts, in the kernel's order: the
    public listing API, kept for callers outside the library's own listings
    (`verify`'s bichromatic-forcing and jvv-uniformity checks) and timed as
    a layer by `perfbench`."""
    _check_same_target(inst, target)
    pv, tv = inst.pattern.vertices, target.vertices
    search = _search(inst.pattern, inst.lists, target)
    return ({v: tv[t] for v, t in zip(pv, image)} for image in search.assignments())


# -- the five counting modes ------------------------------------------------


def count_list_hom(inst: ListedInstance, target: Graph) -> int:
    """Exact number of list homomorphisms from (G, S) to the target."""
    _check_same_target(inst, target)
    return _search(inst.pattern, inst.lists, target).count()


def _pin_counts(inst: ListedInstance, target: Graph, v: str) -> list[int]:
    """count_list_hom(inst.pin(v, t), target) for each t in v's list, in
    sorted order (the target's index order), from one split sweep of the
    kernel (see `_Search.count`) instead of one count per value."""
    _check_same_target(inst, target)
    search = _search(inst.pattern, inst.lists, target)
    i = inst.pattern.index(v)
    width = _split_bits(search.domains)
    packed, mask = search.count(i), (1 << width) - 1
    return [packed >> t * width & mask for t in _bits(search.domains[i])]


def count_hom(pattern: Graph, target: Graph) -> int:
    """hom(G, H) for irreflexive G: all-full lists."""
    return count_list_hom(ListedInstance.full(pattern, target), target)


def count_retraction(inst: ListedInstance, target: Graph) -> int:
    """List-homomorphism count under the one-or-all list condition."""
    check_retraction_lists(inst)
    return count_list_hom(inst, target)


def _covering(inst: ListedInstance, target: Graph, need_edges: bool) -> _Search:
    """The kernel on (inst, target) with the goal of covering every target
    vertex and, with `need_edges`, every non-loop target edge."""
    _check_same_target(inst, target)
    return _search(inst.pattern, inst.lists, target).cover((1 << len(target.vertices)) - 1, need_edges)


def _witness_search(inst: ListedInstance, target: Graph, mode: str, weighted: bool) -> _Search:
    """The covering kernel over an augmented target whose count is the number
    of coverage witnesses (U, tau) of G in `mode` or, `weighted`, the number
    of pairs (witness, list homomorphism of G extending it), which is Omega.

    Unweighted, the values are V(H) plus a value _|_ (index |V(H)|) adjacent
    to every value and to itself and added to every list: the vertices
    outside U take _|_.  Weighted, value h is (h, in) and |V(H)| + h is
    (h, out), adjacent to (h', in or out) when h ~ h', on lists
    S x {in, out}: the vertices in U take an "in" value.  Either way only the
    values of the vertices in U cover a target vertex (and, in comp mode, a
    target edge, through a pattern edge with both ends in U), and at most
    |V(H)| (sur) or |V(H)| + 2|E(H)| (comp) vertices are in U."""
    _check_same_target(inst, target)
    k = len(target.vertices)
    doms = _domains(inst.pattern.vertices, inst.lists, target._index)
    if weighted:
        tadj = [a | a << k for a in target._adj] * 2
        doms = [d | d << k for d in doms]
    else:
        tadj = [a | 1 << k for a in target._adj] + [(1 << k + 1) - 1]
        doms = [d | 1 << k for d in doms]
    top = k if mode == "sur" else k + 2 * target.edge_count()
    adj = inst.pattern._adj
    return _Search(adj, adj, doms, tadj, tadj).cover((1 << k) - 1, mode == "comp", top)


def count_surjective(inst: ListedInstance, target: Graph) -> int:
    """Exact sur((G,S),H): homomorphisms hitting every target vertex."""
    return _covering(inst, target, need_edges=False).count()


def count_compaction(inst: ListedInstance, target: Graph) -> int:
    """Exact comp((G,S),H): surjective and covering every non-loop target edge."""
    return _covering(inst, target, need_edges=True).count()


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

    lists = b.block_lists()
    weight = {blk.name: blk.multiplicity for blk in b.blocks}
    # the block graph, its vertices numbered by sorted block name
    names = sorted(weight)
    index = {name: i for i, name in enumerate(names)}
    adj = [0] * len(names)
    for c in b.couplings:
        i, j = index[c.a], index[c.b]
        adj[i] |= 1 << j
        adj[j] |= 1 << i
    doms = _domains(names, lists, target._index)
    weights = [weight[name] for name in names]
    return _Search(adj, adj, doms, target._adj, target._adj, weights).count()
