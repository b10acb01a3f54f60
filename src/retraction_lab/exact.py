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
    vertices hold 0.  A child narrows every unassigned neighbor of the
    vertex it assigns with one multiply (bit 0 of each neighbor's field
    times the values not next to the chosen one, so no field carries into
    the next), and a neighbor's domain emptied exactly when subtracting 1
    from each neighbor field, its spare bit set, leaves that spare bit
    clear (Lamport's multiple-byte test).  Each child costs a few big-int
    operations over n (k + 1) bits.  The step that assigns a vertex spreads
    its unassigned neighbors into bit 0 of their fields once, for all its
    children, so a count spreads each pattern edge once (`_steps` for
    `count`'s plain loop, `_cover_step` as `_sweep` reaches the step);
  - sur: that int with the target vertices already covered in the k bits
    above the fields;
  - comp: also the covered target edges, in the bits above those, and an
    assigned covering vertex next to an unassigned one keeps its value (one
    bit) in its own field, cleared once its last neighbor is assigned; a
    vertex that covers nothing keeps 0, which realizes no edge;
  - under a cap on the covering vertices (the coverage estimator's witness
    counts, `_witness_search`): also that number, in the top bits.  There
    a vertex may also stay outside U and cover nothing, on the plain
    target and lists: for Omega it still takes a value and narrows its
    neighbors; for t it takes none, so its field needs no value for it and
    a neighbor whose domain empties can still stay out.
  `cover` fixes this layout once.  A child step narrows and tests only the
  fields of unassigned neighbors, so the coverage bits pass through it
  unchanged, and every state is one int.
With no coverage goal `count` sweeps in a loop of its own, which peels and
weighs vertices.  Every other sweep is one method, `_Search._sweep`, with
two outputs, and each of its steps, with a goal or with none, comes from
`_cover_step`.  Per state, its limits (the vertices left to cover against
those left to assign, and the covers a cap leaves) are worked out once, then
one loop per output makes its children.  A covering count adds their numbers
into the next level and counts the last step in place, from the same limits,
without building a level.  The level store (`_Levels`) keeps every level
instead, each state's children as (listed value, index into the next level),
along the walk order (`_walk`) with no goal and along `_order` with one; the
last level is checked against the whole goal.  One backward pass gives each
state its number of completions and keeps the children that complete.  A
listing walks them in a loop, so it enters no dead branch and no pattern is
too deep for it; a draw walks the steps forward over the prefix sums of
those numbers.  Each mode has this one route; the second routes through
other identities (a product over components, inclusion-exclusion for
surjective and compaction counts) are cross-checks in `reference`.
"""
from __future__ import annotations

import math
from bisect import bisect_right
from itertools import accumulate
from typing import Iterator, Sequence

from .graphs import DiGraph, Graph
from .instances import BlockedInstance, ListedInstance, check_retraction_lists, check_target
from .instances import expand_blocked, list_masks

COUNT_MODES = ("hom", "lhom", "ret", "sur", "comp")


def stirling_surjections(a: int, b: int) -> int:
    """Number of surjective functions from an a-set onto a b-set."""
    if a < 0 or b < 0:
        raise ValueError("arguments must be non-negative")
    return sum((-1) ** j * math.comb(b, j) * (b - j) ** a for j in range(b + 1))


# -- search kernel ---------------------------------------------------------


class _Search:
    """The search behind every counter, sampler and lister here.

    The pattern and the target are out/in adjacency masks over vertex
    indices; an undirected graph passes the same masks as out and in.  A
    pattern arc u -> v needs a target arc from u's image to v's.  The
    pattern masks are loop-free: a caller folds a pattern loop into the
    vertex's domain (see `_search`).

    A search state holds the unassigned vertices' domain masks,
    forward-checked against every assigned neighbor, packed into one int of
    (k + 1)-bit fields, field v for pattern vertex v; the constructor packs
    the domains and the target's off-neighborhood masks, and builds no
    per-vertex table.  A sweep follows a fixed order (see `_order`),
    spreads a vertex's unassigned neighbors at the step that assigns it,
    clears a vertex's field once it is assigned or peeled (covering edges,
    once it also has no unassigned neighbor), so the int alone fixes the
    residual subproblem, and merges the partial maps that reach equal ints.
    `count` sweeps in a loop of its own with no coverage goal and through
    `_sweep` with one; `assignments` walks the level store (`_Levels`),
    which draws read too, and which `_sweep` builds.  `cover` sets the
    coverage goal and key layout, once, on an undirected kernel.

    `weights` (default all 1) makes vertex v stand for weights[v]
    independent copies of itself: once peeled it contributes
    |domain|^weight.  A vertex of weight > 1 and more than one value must
    have no neighbor of weight > 1; `_order` puts it last in its component,
    so it is always peeled, never branched on.
    """

    def __init__(self, out, inn, domains: Sequence[int], tout, tin, weights: list[int] | None = None):
        self.digraph = inn is not out
        self.out, self.inn = out, inn
        self.adj = [a | b for a, b in zip(out, inn)] if self.digraph else out
        self.domains = domains
        self.weights = weights
        self.heavy = 0
        for v, w in enumerate(weights or ()):
            if w > 1 and domains[v].bit_count() > 1:
                self.heavy |= 1 << v
        # the packed layout: field v, w = k + 1 bits, holds pattern vertex
        # v's domain; off_out[t] (off_in[t]) is the values not in t's out-
        # (in-) neighborhood.  The step that assigns a vertex spreads its
        # unassigned neighbors into bit 0 of their fields (`_steps` in
        # `count`'s plain loop, `_cover_step` in `_sweep`).
        k = len(tout)
        self.w, self.vmask = w, vmask = k + 1, (1 << k) - 1
        # no coverage goal until `cover` sets one: the key is the fields
        # alone and every value covers nothing (see `cover` for the layout)
        self.goal, self.full_v, self.full_e, self.top, self.outside = False, 0, 0, None, None
        self.erow = None
        self.cv_at = self.ce_at = self.used_at = len(domains) * w
        self.off_out = [vmask & ~a for a in tout]
        self.off_in = [vmask & ~a for a in tin] if self.digraph else self.off_out
        x = 0
        for v, d in enumerate(domains):
            x |= d << v * w
        self.packed = x

    def cover(
        self, full_v: int, edges: bool = False, top: int | None = None, outside: str | None = None
    ) -> "_Search":
        """Set the goal `count` and `assignments` read: only maps whose
        values cover the target-vertex mask `full_v` (value t covers
        ``(1 << t) & full_v``); with `edges`, only those that also realize
        every non-loop target edge between two vertices of `full_v` on a
        pattern edge of two covering vertices; with `top`, at most `top`
        pattern vertices cover.  A vertex that takes a value outside
        `full_v` covers nothing; with `outside`, any vertex may cover
        nothing: "blank", taking no value and narrowing no neighbor (listed
        as value k, for a k-vertex target), or "valued", taking any value
        of its list as usual (value h listed as k + h).  The kernel must be
        undirected and have no goal yet: a goal is set whole, once.

        It fixes the key every covering sweep keys its states by: after the
        fields, the covered target vertices from bit `cv_at`, the covered
        edges from bit `ce_at` and, under a cap, the number used from bit
        `used_at`, numbered in index order into the one edge table,
        ``erow[i][j]``: the key bit of the edge that values i and j realize
        (0 if none); row k, of no value, is the one a field of 0 reads.  A
        `top` no assignment can reach is no cap and stays out of the keys."""
        if self.digraph:
            raise ValueError("a coverage goal needs an undirected kernel")
        if self.goal:
            raise ValueError("the kernel already has a coverage goal")
        self.goal, self.full_v, self.outside = True, full_v, outside
        k, e = self.w - 1, 0
        self.ce_at = ce_at = self.cv_at + k
        if edges:
            self.erow = erow = [[0] * k for _ in range(k + 1)]
            m = full_v
            while m:
                b = m & -m
                m ^= b
                i = b.bit_length() - 1
                # the goal vertices above i next to i
                js = full_v & ~self.off_out[i] & ~((b << 1) - 1)
                while js:
                    c = js & -js
                    js ^= c
                    j = c.bit_length() - 1
                    erow[i][j] = erow[j][i] = 1 << ce_at + e
                    e += 1
            self.full_e = (1 << e) - 1
        self.used_at = ce_at + e
        if top is not None and top < len(self.domains):
            self.top = top
        return self

    def _no_map(self) -> bool:
        """Whether an empty domain leaves no map: unless outside="blank"."""
        return 0 in self.domains and self.outside != "blank"

    def count(self) -> int:
        """Number of homomorphisms that meet the coverage goal.

        With a goal, the covering sweep (`_sweep`).  With none, one sweep
        along the walk order (`_steps`): each step extends every state by
        the next vertex, peels its neighbors left with no unassigned
        neighbor and weighs each peeled vertex's domain, and children that
        leave the same residual subproblem merge into one state whose number
        of partial maps is the sum of theirs."""
        if self.goal:
            return self._sweep()
        if self._no_map():
            return 0
        w, vmask, digraph, cw = self.w, self.vmask, self.digraph, self.weights
        off_out, off_in = self.off_out, self.off_in
        # state -> number of partial maps
        states: dict = {self.packed: 1}
        for v, lone, s_low, p_low, nb_low, nb_high, clear in self._steps():
            sv = v * w
            nxt: dict = {}
            if not nb_low:
                e = 1 if cw is None else cw[v]
                for x, c in states.items():
                    y = x & clear
                    nxt[y] = nxt.get(y, 0) + c * (x >> sv & vmask).bit_count() ** e
            else:
                peel = [(u * w, 1 if cw is None else cw[u]) for u in lone]
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
            if not nxt:
                return 0
            states = nxt
        return sum(states.values())

    def _sweep(self, kids: list | None = None):
        """The covering count or, with `kids`, the level store's sweep.

        It follows `_order` with a goal and the walk order (`_walk`) with
        none (the store only), each step built by `_cover_step` as the sweep
        reaches it.  Per state, once: the values that may cover and whether a
        child that covers nothing is allowed (each vertex left covers at
        most one more goal vertex, and under a cap only so many more may
        cover), so a state that cannot meet the goal, or has no child left,
        is skipped.  A covering child ORs in its value's vertex bit and the
        edge rows of its assigned neighbors' values at that value, adds 1 to
        the number used and keeps its value while it has an unassigned
        neighbor; a child that covers nothing sets no bit and keeps nothing
        (the key's layout is in the module docstring).  With outside="blank"
        the child of no value (listed k) comes first, then per value of the
        vertex's domain, ascending, the child that covers nothing and the
        covering one, each where allowed.

        Then one loop per output.  Without `kids` it adds each child's
        number of partial maps into the next level, but at the last step,
        where the limits leave only children that cover every goal vertex,
        into the count: per child if no goal edge is missing, else per
        covering value whose edge rows realize every missing one; it returns
        the count.  With `kids` it appends per step each state's children as
        [(listed value, index of the child in the next level)], builds all
        n levels, narrowing in-neighbors too on a digraph, and returns the
        order and the last level's states, in index order."""
        n, k, w, vmask = len(self.domains), self.w - 1, self.w, self.vmask
        off_out, off_in, goal, store = self.off_out, self.off_in, self.goal, kids is not None
        full_v, goal_e, erow, cap = self.full_v, self.full_e << self.ce_at, self.erow, self.top
        cv_at, ce_at, used_at, blank = self.cv_at, self.ce_at, self.used_at, self.outside == "blank"
        # a covering child raises the number used by one_used; nonc: the
        # values whose child covers nothing, those outside the goal (with
        # outside="valued", every value, listed from k up)
        one_used = 0 if cap is None else 1 << used_at
        nonc, shift = (vmask, k) if self.outside == "valued" else (vmask & ~full_v, 0)
        order, rest = self._order() if goal else self._walk(), (1 << n) - 1
        # state -> number of partial maps (in the store, its index)
        states: dict = {} if self._no_map() else {self.packed: 1}
        total = 0
        for i, v in enumerate(order):
            rest ^= 1 << v
            clear, s_low, p_low, back, keep = self._cover_step(v, rest)
            # with outside="blank" no borrow test: a neighbor whose domain
            # empties can still take no value
            t_low = 0 if blank else s_low | p_low
            t_high = t_low << k
            sv, room = v * w, n - i - 1
            # tail: the states' children are not added into the next level's
            # numbers (the store lists them; the count's last step counts them)
            tail = store or not room
            nxt: dict = {}
            level = []
            for x, c in states.items():
                todo = full_v & ~(x >> cv_at)
                left = todo.bit_count()
                spare = 1 if cap is None else cap - (x >> used_at) - left
                d = x >> sv & vmask
                # the values that may cover, those whose child covers
                # nothing, and whether the child of no value is allowed
                ins, outs, bare = full_v, nonc, blank
                if left > room or spare <= 0:
                    # v must cover a new goal vertex (no room left), or may
                    # not cover a covered one (no cap left)
                    ins = todo
                    if left > room:
                        outs = bare = 0
                    d &= ins | outs
                    if left > room + 1 or spare < 0 or not d and not bare:
                        if store:
                            level.append([])
                        continue
                if tail:
                    if not store:
                        # the last vertex: every child left covers the goal's
                        # vertices; only a covering value realizes its edges
                        missing = goal_e & ~x
                        if not missing:
                            total += c * ((d & ins).bit_count() + (d & outs).bit_count() + bare)
                            continue
                        rows = [erow[(x >> su & vmask).bit_length() - 1] for su in back]
                        d &= ins
                        while d:
                            b = d & -d
                            d ^= b
                            t = b.bit_length() - 1
                            e = 0
                            for row in rows:
                                e |= row[t]
                            if not missing & ~e:
                                total += c
                        continue
                    # the edge bits of each assigned neighbor's value (a field
                    # of 0 reads the last row, of none)
                    rows = [erow[(x >> su & vmask).bit_length() - 1] for su in back] if back else ()
                    x &= clear
                    ks = [(k, nxt.setdefault(x, len(nxt)))] if bare else []
                    while d:
                        b = d & -d
                        d ^= b
                        t = b.bit_length() - 1
                        y = x & ~(s_low * off_out[t]) & ~(p_low * off_in[t])
                        if t_low and (y | t_high) - t_low & t_high != t_high:
                            continue  # a neighbor's domain emptied
                        if b & outs:
                            ks.append((shift + t, nxt.setdefault(y, len(nxt))))
                        if b & ins:
                            for row in rows:
                                y |= row[t]
                            if keep:
                                y |= b << sv
                            ks.append((t, nxt.setdefault((y | b << cv_at) + one_used, len(nxt))))
                    level.append(ks)
                    continue
                rows = [erow[(x >> su & vmask).bit_length() - 1] for su in back] if back else ()
                x &= clear
                if bare:
                    nxt[x] = nxt.get(x, 0) + c
                while d:
                    b = d & -d
                    d ^= b
                    t = b.bit_length() - 1
                    y = x & ~(s_low * off_out[t])
                    if t_low and (y | t_high) - t_low & t_high != t_high:
                        continue  # a neighbor's domain emptied
                    if outs and b & outs:
                        nxt[y] = nxt.get(y, 0) + c
                    if b & ins:
                        for row in rows:
                            y |= row[t]
                        if keep:
                            y |= b << sv
                        y = (y | b << cv_at) + one_used
                        nxt[y] = nxt.get(y, 0) + c
            if store:
                kids.append(level)
            elif not nxt:
                return total
            states = nxt
        if store:
            return order, states
        # no vertex: the one empty map covers an empty goal only
        return int(not full_v)

    def _cover_step(self, v: int, rest: int) -> tuple:
        """The step of `_sweep` that assigns v, with the vertices of `rest`
        still unassigned, with a goal or none: (clear, s_low, p_low, back,
        keep).  s_low (p_low) is bit 0 of the fields of v's unassigned out-
        (in-) neighbors, as `_steps` splits them (on an undirected kernel,
        out is adj and p_low 0).  With edges to cover, back: the field
        offsets of v's assigned neighbors, whose fields hold their values;
        keep: nonzero if v has an unassigned neighbor, so keeps its value;
        and clear clears, besides v's field, those of the neighbors whose
        last unassigned neighbor v is."""
        w, vmask, adj, edges = self.w, self.vmask, self.adj, self.full_e
        out, inn = self.out[v], self.inn[v] if self.digraph else 0
        clear, s_low, p_low, back = ~(vmask << v * w), 0, 0, []
        # one pass over v's neighbors: the unassigned ones spread into bit 0
        # of their fields, with edges the assigned ones into back
        m = adj[v] if edges else adj[v] & rest
        while m:
            b = m & -m
            m ^= b
            u = b.bit_length() - 1
            if b & rest:
                if b & out:
                    s_low |= 1 << u * w
                if b & inn:
                    p_low |= 1 << u * w
            else:
                back.append(u * w)
                if not adj[u] & rest:
                    clear &= ~(vmask << u * w)
        return clear, s_low, p_low, back, edges and adj[v] & rest

    def _steps(self) -> list[tuple]:
        """The plain sweep's steps, one per vertex v of `_order` not peeled
        before its turn: (v, lone, s_low, p_low, nb_low, nb_high, clear).
        It assigns v and peels lone, v's neighbors left with no unassigned
        neighbor, in index order.  s_low (p_low) is bit 0 of the fields of
        v's unassigned out- (in-) neighbors, nb_low their union (0 when v,
        with none, is peeled itself), nb_high its spare bits; clear clears
        the fields of v and lone."""
        w, k, vmask = self.w, self.w - 1, self.vmask
        adj, digraph, out, inn = self.adj, self.digraph, self.out, self.inn
        # the unassigned, unpeeled vertices
        active = (1 << len(adj)) - 1
        steps = []
        for v in self._order():
            if not active >> v & 1:
                continue  # peeled
            active ^= 1 << v
            clear = ~(vmask << v * w)
            # one pass over v's unassigned neighbors spreads each into bit 0
            # of its field and finds the lone ones
            s_low = p_low = 0
            lone, m = [], adj[v] & active
            while m:
                b = m & -m
                m ^= b
                u = b.bit_length() - 1
                lo = 1 << u * w
                if not digraph:
                    s_low |= lo
                else:
                    if out[v] & b:
                        s_low |= lo
                    if inn[v] & b:
                        p_low |= lo
                if not adj[u] & active:
                    lone.append(u)
            for u in lone:
                active ^= 1 << u
                clear &= ~(vmask << u * w)
            nb_low = s_low | p_low
            steps.append((v, lone, s_low, p_low, nb_low, nb_low << k, clear))
        return steps

    def _walk(self) -> list[int]:
        """The walk order the level store sweeps with no goal, as vertex
        indices: each vertex `_steps` assigns, then those it peels, which
        have no unassigned neighbor left, so their steps narrow nothing."""
        return [u for v, lone, *_ in self._steps() for u in (v, *lone)]

    def _order(self) -> list[int]:
        """The fixed branching order of `count`: the pattern components one
        after another (components by lowest vertex).  Within a component:
        the single-value vertices first, then greedily the vertex, next to
        the assigned ones if any is, that leaves the fewest unassigned
        vertices next to assigned ones (ties: the lowest index), then the
        vertices of weight > 1.  In a fixed order every branch reaches the
        same active set after the same number of steps, so `count`'s states
        differ only in the domains on that frontier: paths, cycles and
        2 x k grids keep a bounded number of states per step."""
        adj, heavy = self.adj, self.heavy
        single = 0
        for v, d in enumerate(self.domains):
            if d.bit_count() == 1:
                single |= 1 << v
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
                # a candidate u leaves the rest of the frontier next to
                # assigned vertices, and adj[u] & beyond besides (u is not
                # its own neighbor), so the key is the size of that; a lone
                # candidate needs no key, and the first one of key 0 is the
                # minimum, where the scan stops
                beyond = left & ~reach
                vb = m = (left & reach) or left
                if m & (m - 1):
                    best = left.bit_count()  # above every key
                    while m:
                        b = m & -m
                        key = (adj[b.bit_length() - 1] & beyond).bit_count()
                        if key < best:
                            vb, best = b, key
                            if not key:
                                break
                        m ^= b
                v = vb.bit_length() - 1
                order.append(v)
                left ^= vb
                reach |= adj[v]
            m = comp & heavy
            while m:
                b = m & -m
                order.append(b.bit_length() - 1)
                m ^= b
        return order

    def assignments(self) -> Iterator[tuple[int, ...]]:
        """The homomorphisms that meet the coverage goal, each as the tuple
        of its images' target indices in pattern vertex order (a vertex
        outside the goal's U listed as `cover` says); deterministic order.
        A depth-first walk of the levels `_Levels` keeps, entering only
        children of positive count, so every branch ends in a map; a loop,
        not a recursion, so no pattern is too deep to list."""
        levels = _Levels(self)
        if not levels.total:
            return
        order, kids = levels.order, levels.kids
        if not order:
            yield ()  # no vertex: the one empty map
            return
        n, image = len(order), [0] * len(order)
        # per step entered, an iterator over its state's children
        stack = [iter(kids[0][0])]
        while stack:
            for t, j in stack[-1]:
                break
            else:
                stack.pop()
                continue
            i = len(stack)
            image[order[i - 1]] = t
            if i < n:
                stack.append(iter(kids[i][j]))
            else:
                yield tuple(image)


def _search(pattern: Graph | DiGraph, lists: dict[str, frozenset[str]], target: Graph | DiGraph) -> _Search:
    """The kernel on two graphs or on two digraphs, with label lists (see
    `instances.list_masks`: no list means the full list, and a malformed one
    raises ValueError).  A looped digraph vertex needs a looped image: its
    loop becomes that restriction of its domain.  (Graph patterns are
    irreflexive, see `ListedInstance`.)"""
    doms = list_masks(pattern.vertices, lists, target.vertices)
    if isinstance(pattern, Graph):
        return _Search(pattern._adj, pattern._adj, doms, target._adj, target._adj)
    doms, out, inn = list(doms), list(pattern._out), list(pattern._in)
    tloops = sum(1 << t for t, m in enumerate(target._out) if m >> t & 1)
    for v, m in enumerate(out):
        if m >> v & 1:
            doms[v] &= tloops
            out[v] &= ~(1 << v)
            inn[v] &= ~(1 << v)
    return _Search(out, inn, doms, target._out, target._in)


def _kernel(inst: ListedInstance, target: Graph) -> _Search:
    """The kernel on an instance and a target, from the instance's masks as
    they are; ValueError unless its lists are over the target's vertices."""
    check_target(inst, target)
    adj = inst.pattern._adj
    return _Search(adj, adj, inst.domains, target._adj, target._adj)


def enumerate_homs(inst: ListedInstance, target: Graph) -> Iterator[dict[str, str]]:
    """The list homomorphisms of (G, S) as dicts, in the kernel's order: the
    public listing API, kept for callers outside the library's own listings
    (`verify`'s bichromatic-forcing and jvv-uniformity checks) and timed as
    a layer by `perfbench`."""
    pv, tv = inst.pattern.vertices, target.vertices
    return ({v: tv[t] for v, t in zip(pv, image)} for image in _kernel(inst, target).assignments())


# -- the five counting modes ------------------------------------------------


def count_list_hom(inst: ListedInstance, target: Graph) -> int:
    """Exact number of list homomorphisms from (G, S) to the target."""
    return _kernel(inst, target).count()


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
    return _kernel(inst, target).cover((1 << len(target.vertices)) - 1, need_edges)


def _witness_search(inst: ListedInstance, target: Graph, mode: str, weighted: bool) -> _Search:
    """The covering kernel whose count is the number of coverage witnesses
    (U, tau) of G in `mode` or, `weighted`, the number of pairs (witness,
    list homomorphism of G extending it), which is Omega.

    It runs on the target and the lists as they are, and its goal lets any
    vertex stay outside U (`cover`'s `outside`).  Unweighted, a vertex
    outside U takes no value, so it narrows no neighbor and a neighbor whose
    list empties can still stay out; a listing gives it value |V(H)|.
    Weighted, it takes a value h of its list as a vertex in U would, listed
    as |V(H)| + h.  Either way only the vertices in U cover a target vertex
    (and, in comp mode, a target edge, through a pattern edge with both ends
    in U), and at most |V(H)| (sur) or |V(H)| + 2|E(H)| (comp) vertices are
    in U."""
    search = _kernel(inst, target)
    k = len(target.vertices)
    top = k if mode == "sur" else k + 2 * target.edge_count()
    return search.cover((1 << k) - 1, mode == "comp", top, "valued" if weighted else "blank")


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


# -- the level store: listing and uniform draws ----------------------------


def _draw(rng, acc: list[int]) -> int:
    """Exact categorical draw: index i with probability proportional to
    acc[i] - acc[i - 1].  r is drawn below the total as
    `random.Random.randrange` draws it, from `getrandbits` of the total's
    bit length until it falls below, so it uses the same random numbers
    without randrange's Python layers; a zero weight is never drawn."""
    if not acc or acc[-1] <= 0:
        raise ValueError("all weights vanish")
    total = acc[-1]
    k = total.bit_length()
    r = rng.getrandbits(k)
    while r >= total:
        r = rng.getrandbits(k)
    return bisect_right(acc, r)


def _walk_order(inst: ListedInstance, target: Graph) -> list[str]:
    """The pattern vertices in the order the plain sweep fixes them."""
    return [inst.pattern.vertices[v] for v in _kernel(inst, target)._walk()]


class _Levels:
    """The one level store: a kernel's sweep (`_Search._sweep`) with its
    levels kept, for listing (`assignments`) and uniform draws (`draw`).
    With no coverage goal the sweep follows the walk order (`_Search._walk`):
    each peeled vertex is a step of its own right after its parent's, with
    no neighbor to narrow.  With a goal it follows `_order`, with the keys
    and limits of the covering count; a state of the last level completes
    exactly when its covered vertices and edges are the goal's.

    The sweep computes each state's children once and keeps them as
    `kids[i][s]`: [(listed value, index of the child in level i + 1)]; a
    level's states are dropped once the next level is made.  One backward
    pass over the kept children gives each state its number of completions,
    `counts[i][s]`, so `total` is the kernel's count, and keeps only the
    children that complete, which a listing walks.  A draw samples forward
    over the same counts, as Dechter (AIJ 1999) samples from bucket
    elimination: each vertex's value over the exact counts with it pinned
    to each value of its list, the self-reducible walk of Jerrum, Valiant
    and Vazirani (TCS 1986), random number for random number.  `names` and
    `labels` name the pattern and target vertices in a draw, and `built`
    counts the draw tables, one per (step, state) pair a draw reached."""

    def __init__(self, search: _Search, names=(), labels=()):
        if search.weights is not None:
            raise ValueError("the level store takes no weights")
        self.search = search
        self.kids = []
        self.order, states = search._sweep(self.kids)
        # a state of the last level completes when it covers the whole goal
        full_v, full_e, cv_at, ce_at = search.full_v, search.full_e, search.cv_at, search.ce_at
        counts = [int(not full_v & ~(x >> cv_at) | full_e & ~(x >> ce_at)) for x in states]
        self.counts = [counts]
        for i in range(len(self.order) - 1, -1, -1):
            after, kids = counts, self.kids[i]
            if 0 in after:  # keep only the children that complete
                kids = self.kids[i] = [[(t, j) for t, j in ks if after[j]] for ks in kids]
            counts = [sum([after[j] for _, j in ks]) for ks in kids]
            self.counts.append(counts)
        self.counts.reverse()
        self.total = sum(self.counts[0])
        self.names, self.labels = names, labels
        self.image = dict.fromkeys(names)
        self.tables: list[dict] = [{} for _ in self.order]
        self.built, self.first = 0, None

    def _table(self, i: int, s: int) -> tuple:
        """The draw table of state s before step i, built once (() past the
        last step): (acc, total, bits, kids, i, the name of the step's vertex
        v).  acc: the prefix sums of the counts with v pinned to each value
        of its list (None for one value), total its last entry (the count of
        state s) and bits total's bit length, the draw's `getrandbits` width;
        kids[p], for the p-th value of the list: None for a count of 0, else
        [the next table once a draw reaches it, the next state's index, the
        value's label]."""
        if i == len(self.order):
            return ()
        table = self.tables[i].get(s)
        if table is None:
            v, after = self.order[i], self.counts[i + 1]
            d = self.search.domains[v]
            counts, kids = [0] * d.bit_count(), [None] * d.bit_count()
            for t, j in self.kids[i][s]:
                # t's place in the list
                p = (d & (1 << t) - 1).bit_count()
                counts[p], kids[p] = after[j], [None, j, self.labels[t]]
            acc = list(accumulate(counts)) if len(kids) > 1 else None
            total = sum(counts)
            table = self.tables[i][s] = (acc, total, total.bit_length(), kids, i, self.names[v])
            self.built += 1
        return table

    def draw(self, rng, weigh=None) -> dict:
        """One homomorphism as a new dict, drawn over each table's prefix
        sums or weigh(prefix sums); ValueError on a kernel with a coverage
        goal or no map.  Over the exact sums the categorical draw is `_draw`'s, inlined: the
        same rejection rule, so the same random numbers."""
        getrandbits = rng.getrandbits
        table = self.first
        if table is None:
            if self.search.goal or not self.total:
                raise ValueError("draws need a kernel with no coverage goal and a map")
            table = self.first = self._table(0, 0)
        image = self.image.copy()
        while table:
            acc, total, bits, kids, i, v = table
            if acc is None:
                kid = kids[0]
            elif weigh is None:
                r = getrandbits(bits)
                while r >= total:
                    r = getrandbits(bits)
                kid = kids[bisect_right(acc, r)]
            else:
                kid = kids[_draw(rng, weigh(acc))]
            image[v] = kid[2]
            table = kid[0]
            if table is None:
                table = kid[0] = self._table(i + 1, kid[1])
        return image


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
    doms = list_masks(names, lists, target.vertices)
    weights = [weight[name] for name in names]
    return _Search(adj, adj, doms, target._adj, target._adj, weights).count()
