"""Approximate-counting complexity classification of Ret(H), with structural
certificates.

Connected components are classified separately and combined: girth >= 5
components get the full trichotomy, irreflexive square-free components get
the irreflexive classification, and looped components with 3- or 4-cycles
are UNCLASSIFIED unless one of the girth-independent neighborhood witnesses
fires (those lemmas need no girth assumption, or only triangle-freeness).
Girth >= 5 is tested as no triangle and no 4-cycle, loops ignored, both
found in one pass over each vertex's neighbors (`_short_cycles`), run once
per component: the neighborhood witnesses take its triangle flag rather
than a pass of their own.  There is one recognizer per shape; each reads the
adjacency masks and answers for any graph, so none needs the girth or a
connectivity check first.  The verdicts and `PbrpShape` are NamedTuples:
immutable, hashable values built at a tuple's cost.

Classes: FP < BIS_EQUIVALENT < SAT_EQUIVALENT, with UNCLASSIFIED absorbing
anything that is not already SAT.
"""
from __future__ import annotations

from itertools import combinations
from typing import NamedTuple

from .fixedgraphs import build_hk
from .graphs import Graph, _bits, connected_components

CLASS_FP = "FP"
CLASS_BIS = "BIS_EQUIVALENT"
CLASS_SAT = "SAT_EQUIVALENT"
CLASS_UNCLASSIFIED = "UNCLASSIFIED"

# the combined class is the highest-ranked one met: UNCLASSIFIED absorbs
# FP and BIS, and SAT absorbs everything
_RANK = {CLASS_FP: 0, CLASS_BIS: 1, CLASS_UNCLASSIFIED: 2, CLASS_SAT: 3}

WITNESS_WR = "WR_q-neighborhood"
WITNESS_NON_2WRENCH = "non-2-Wrench-neighborhood"
WITNESS_DIST2 = "distance-2-structure"
WITNESS_REFL_CYCLE = "reflexive-cycle>=5"
WITNESS_ODD_CYCLE = "odd-cycle"
WITNESS_J3 = "induced-J3"
WITNESS_EVEN_PSEUDOTREE = "even-cycle-pseudotree"

_WITNESS_CLAUSE = {
    WITNESS_WR: "Lem26",
    WITNESS_NON_2WRENCH: "Lem27",
    WITNESS_DIST2: "Lem48",
}

UNCLASSIFIED_NOTE = (
    "outside the proved girth->=5 / irreflexive-square-free classifications; "
    "the known bipartite-permutation and proper-interval easiness classes are "
    "not recognized here"
)


class ComponentVerdict(NamedTuple):
    vertices: tuple[str, ...]
    cls: str
    clause: str
    witnesses: tuple[tuple[str, tuple[str, ...]], ...] = ()
    note: str = ""


class Verdict(NamedTuple):
    cls: str
    clause: str
    witnesses: tuple[tuple[str, tuple[str, ...]], ...]
    components: tuple[ComponentVerdict, ...]

    def to_json(self) -> dict:
        return {
            "class": self.cls,
            "clause": self.clause,
            "witnesses": [
                {"case": label, "vertices": list(vs)} for label, vs in self.witnesses
            ],
            "components": [
                {
                    "vertices": list(c.vertices),
                    "class": c.cls,
                    "clause": c.clause,
                    "witnesses": [
                        {"case": label, "vertices": list(vs)} for label, vs in c.witnesses
                    ],
                    **({"note": c.note} if c.note else {}),
                }
                for c in self.components
            ],
        }


# -- recognizers --------------------------------------------------------------


def _walk(adj: tuple[int, ...], mask: int, i: int) -> list[int]:
    """Vertex indices met inside mask from i, each step to the lowest
    unvisited neighbor, until there is none."""
    order = [i]
    seen = 1 << i
    nxt = adj[i] & mask & ~seen
    while nxt:
        low = nxt & -nxt
        seen |= low
        i = low.bit_length() - 1
        order.append(i)
        nxt = adj[i] & mask & ~seen
    return order


def _path_order(adj: tuple[int, ...], mask: int) -> list[int] | None:
    """The indices of mask in order along the path it induces (loops
    ignored), from its lower-index end; None if it induces no path."""
    start = None
    rest = mask
    while rest:
        low = rest & -rest
        rest ^= low
        i = low.bit_length() - 1
        d = (adj[i] & mask & ~low).bit_count()
        if d > 2:
            return None
        if d < 2 and start is None:
            start = i
    if start is None:  # empty, or every degree is 2: a cycle
        return None
    order = _walk(adj, mask, start)
    return order if len(order) == mask.bit_count() else None


def is_irreflexive_star(h: Graph) -> bool:
    """K_{1,n} for n >= 0 (includes K1 and K2), no loops."""
    if h._loops:
        return False
    n = len(h)
    if n <= 1:
        return True
    if h.edge_count() != n - 1:
        return False
    full = (1 << n) - 1
    for i, a in enumerate(h._adj):
        if a | 1 << i == full:
            return True
    return False


def is_single_looped_vertex(h: Graph) -> bool:
    return h._adj == (1,)


def is_double_looped_edge(h: Graph) -> bool:
    return h._adj == (3, 3)


def is_caterpillar(h: Graph) -> bool:
    """Irreflexive tree whose non-leaf core is a path (possibly empty).

    A cycle lies inside the spine (the vertices of degree >= 2), so a spine
    that induces a path leaves none; every leaf on the spine then makes the
    graph connected."""
    if h._loops:
        return False
    adj = h._adj
    spine = 0
    for i, a in enumerate(adj):
        if a.bit_count() >= 2:
            spine |= 1 << i
    if not spine:  # every degree is 0 or 1: connected only as K1 or K2
        return len(h) <= 1 or adj == (2, 1)
    if _path_order(adj, spine) is None:
        return False
    for i, a in enumerate(adj):
        if not (a & spine or spine >> i & 1):
            return False
    return True


class PbrpShape(NamedTuple):
    """Recognized bristled-path structure: path c_0..c_{Q+1} plus bristles
    keyed by internal position (empty for a plain reflexive path)."""

    path: tuple[str, ...]
    bristles: tuple[tuple[int, str], ...] = ()

    @property
    def q(self) -> int:
        return len(self.path) - 2

    @property
    def s(self) -> frozenset[int]:
        return frozenset(i for i, _ in self.bristles)


def is_pbrp(h: Graph) -> PbrpShape | None:
    """Partially bristled reflexive path: a reflexive path, or a reflexive
    path with unlooped degree-1 bristles at distinct internal positions.
    The path starts at its lower-index end.  A path of looped vertices with
    every unlooped vertex a pendant on it is a connected tree already.
    """
    adj, vs = h._adj, h.vertices
    order = _path_order(adj, h._loops)
    if order is None:
        return None
    path = tuple([vs[i] for i in order])
    # an unlooped vertex's mask is the one bit of its internal anchor
    position = {1 << i: p for p, i in enumerate(order[1:-1], 1)}
    bristles: dict[int, str] = {}
    rest = (1 << len(h)) - 1 & ~h._loops
    while rest:
        low = rest & -rest
        rest ^= low
        u = low.bit_length() - 1
        p = position.get(adj[u])
        if p is None or p in bristles:
            return None
        bristles[p] = vs[u]
    return PbrpShape(path, tuple(sorted(bristles.items())))


_J3_SLOTS = ("w", "x0", "x1", "y0", "y1", "z0", "z1")


def induced_j3_embeddings(h: Graph):
    """Yield labelings {w, x0, x1, y0, y1, z0, z1} of induced J3 subgraphs in
    deterministic (lexicographically increasing) order, arms sorted by their
    middle vertex.  Each vertex added must see exactly its J3 neighbors among
    those chosen so far, itself included, which rules out loops and chords.
    """
    adj, vs = h._adj, h.vertices
    for w, aw in enumerate(adj):
        bw = 1 << w
        if aw & bw:
            continue
        for x0, y0, z0 in combinations(list(_bits(aw)), 3):
            base = bw | 1 << x0 | 1 << y0 | 1 << z0
            if adj[x0] & base != bw or adj[y0] & base != bw or adj[z0] & base != bw:
                continue
            for x1 in _bits(adj[x0] & ~base):
                bx = base | 1 << x1
                if adj[x1] & bx != 1 << x0:
                    continue
                for y1 in _bits(adj[y0] & ~bx):
                    by = bx | 1 << y1
                    if adj[y1] & by != 1 << y0:
                        continue
                    for z1 in _bits(adj[z0] & ~by):
                        if adj[z1] & (by | 1 << z1) == 1 << z0:
                            seven = (w, x0, x1, y0, y1, z0, z1)
                            yield dict(zip(_J3_SLOTS, (vs[i] for i in seven)))


def has_induced_J3(h: Graph) -> frozenset[str] | None:
    """Vertex set of some induced J3, or None."""
    for label in induced_j3_embeddings(h):
        return frozenset(label.values())
    return None


def _is_wr(adj: tuple[int, ...], loops: int, b: int) -> bool:
    """True iff Γ(b) induces the reflexive star WR_q centered at b, q >= 3."""
    nb = adj[b]
    bb = 1 << b
    return (
        nb & ~loops == 0
        and nb.bit_count() >= 4
        and all(adj[v] & nb == 1 << v | bb for v in _bits(nb & ~bb))
    )


def _two_wrench(adj: tuple[int, ...], loops: int, b: int) -> tuple[int, int, int] | None:
    """(r1, r2, g) if the looped b's neighborhood induces a 2-Wrench centered
    at b, else None."""
    nb = adj[b]
    bb = 1 << b
    rs = nb & loops & ~bb
    if nb.bit_count() != 4 or rs.bit_count() != 2:
        return None
    g = (nb & ~loops).bit_length() - 1
    if adj[g] & nb != bb:
        return None
    r1, r2 = (rs & -rs).bit_length() - 1, rs.bit_length() - 1
    if adj[r1] & nb != 1 << r1 | bb or adj[r2] & nb != 1 << r2 | bb:
        return None
    return r1, r2, g


def distance2_labeling(h: Graph, b: str) -> dict[str, str] | None:
    """Labeled embedding showing H'_k <= H[Gamma^2(b)] <= H_k at the looped
    vertex b, with k = deg(g) - 1 read off the graph.  Returns the
    vertex -> H_k-slot map, or None.
    """
    adj, loops = h._adj, h._loops
    bi = h.index(b)
    if not loops >> bi & 1:
        return None
    tw = _two_wrench(adj, loops, bi)
    if tw is None:
        return None
    r1, r2, g = tw
    ys = adj[g] & ~(1 << bi)
    if not ys:
        return None
    # g sees only b in b's neighborhood, so no y is b, r1, r2 or g
    slots = {bi: "b", r1: "r1", r2: "r2", g: "g"}
    slots.update((y, f"y{j}") for j, y in enumerate(_bits(ys), 1))
    for idx, r in ((1, r1), (2, r2)):
        others = adj[r] & ~(1 << r | 1 << bi)
        ws, ds = others & loops, others & ~loops
        if ws.bit_count() > 1 or ds.bit_count() > 1:
            return None
        for m, slot in ((ws, f"w{idx}"), (ds, f"d{idx}")):
            if m:
                v = m.bit_length() - 1
                if v in slots:
                    return None
                slots[v] = slot
    # every edge among the labeled vertices, loops included, is one of H_k's
    hk = build_hk(ys.bit_count())
    within = sum(1 << i for i in slots)
    if any(not hk.has_edge(slots[i], slots[j]) for i in slots for j in _bits(adj[i] & within)):
        return None
    return {h.vertices[i]: slot for i, slot in slots.items()}


def _short_cycles(adj: tuple[int, ...]) -> tuple[bool, bool]:
    """(has a triangle, has a 4-cycle), loops ignored, in one pass over each
    vertex's neighbors.  For a vertex i with neighbors N, and S_j the
    neighbors of a j in N other than i and j: a triangle through i is an S_j
    meeting N, and a 4-cycle through i is two S_j meeting.  A vertex of
    degree <= 1 lies on no cycle."""
    triangle = square = False
    for i, a in enumerate(adj):
        bi = 1 << i
        nb = a & ~bi
        if not nb & nb - 1:
            continue
        met = 0
        rest = nb
        while rest:
            low = rest & -rest
            rest ^= low
            s = adj[low.bit_length() - 1] & ~(bi | low)
            if s & met:
                square = True
            if s & nb:
                triangle = True
            met |= s
    return triangle, square


def neighborhood_witnesses(h: Graph) -> list[tuple[str, str]]:
    """(case-label, vertex) pairs for the looped-neighborhood hardness
    lemmas: WR_q neighborhoods, non-2-Wrench neighborhoods (in triangle-free
    graphs), and the distance-2 sandwich.
    """
    return _neighborhood_witnesses(h, not _short_cycles(h._adj)[0])


def _neighborhood_witnesses(h: Graph, triangle_free: bool) -> list[tuple[str, str]]:
    """`neighborhood_witnesses` on a graph already known to have a triangle
    or not."""
    adj, loops = h._adj, h._loops
    out: list[tuple[str, str]] = []
    rest = loops
    while rest:
        low = rest & -rest
        rest ^= low
        b = low.bit_length() - 1
        v = h.vertices[b]
        if _is_wr(adj, loops, b):
            out.append((WITNESS_WR, v))
        elif _two_wrench(adj, loops, b) is not None:
            if distance2_labeling(h, v) is not None:
                out.append((WITNESS_DIST2, v))
        elif triangle_free and adj[b] & ~loops:
            out.append((WITNESS_NON_2WRENCH, v))
    return out


# -- cycle witnesses ----------------------------------------------------------


def _cycle_witness(h: Graph) -> tuple[str, tuple[str, ...]] | None:
    """An odd cycle's witness if h has an odd cycle, else an even cycle's,
    else None; the vertex set of a cycle (loops ignored) closed by a
    non-tree edge of a BFS, odd when the edge's ends lie at the same depth.
    up[v] is the mask of v and its BFS ancestors, so the cycle closed by
    (u, w) is up[u] ^ up[w] plus their deepest common ancestor."""
    adj = h._adj
    up = [0] * len(adj)
    depth = [0] * len(adj)
    even = None
    for root in range(len(adj)):
        if up[root]:
            continue
        up[root] = 1 << root
        queue = [root]
        for u in queue:
            for w in _bits(adj[u] & ~(1 << u)):
                if not up[w]:
                    up[w] = up[u] | 1 << w
                    depth[w] = depth[u] + 1
                    queue.append(w)
                # a BFS edge joins equal or adjacent depths, and the only
                # ancestor adjacent to u is its parent
                elif depth[w] == depth[u] or even is None and not up[u] >> w & 1:
                    top = max(_bits(up[u] & up[w]), key=depth.__getitem__)
                    cycle = tuple(h.vertices[i] for i in _bits(up[u] ^ up[w] | 1 << top))
                    if depth[w] == depth[u]:
                        return WITNESS_ODD_CYCLE, cycle
                    even = WITNESS_EVEN_PSEUDOTREE, cycle
    return even


def is_square_free(h: Graph) -> bool:
    """True iff no 4-cycle exists: no two vertices with two common neighbors
    besides themselves."""
    return not _short_cycles(h._adj)[1]


def reflexive_cycle_core(h: Graph) -> tuple[str, ...] | None:
    """If every unlooped vertex is a pendant and the looped core is a
    reflexive cycle of length >= 5, its vertex set; else None."""
    adj, loops = h._adj, h._loops
    if loops.bit_count() < 5:
        return None
    for i, a in enumerate(adj):
        if not loops >> i & 1:
            if a.bit_count() != 1:
                return None
        elif (a & loops & ~(1 << i)).bit_count() != 2:
            return None
    # the core is 2-regular: a cycle iff one walk goes all the way round
    if len(_walk(adj, loops, (loops & -loops).bit_length() - 1)) != loops.bit_count():
        return None
    return tuple(h.vertices[i] for i in _bits(loops))


# -- classification -----------------------------------------------------------


def _irreflexive_sat_witnesses(c: Graph) -> list[tuple[str, tuple[str, ...]]]:
    wits: list[tuple[str, tuple[str, ...]]] = []
    j3 = has_induced_J3(c)
    if j3 is not None:
        wits.append((WITNESS_J3, tuple(sorted(j3))))
    cycle = _cycle_witness(c)
    if cycle is not None and (cycle[0] == WITNESS_ODD_CYCLE or not wits):
        wits.append(cycle)
    return wits


def _looped_sat_witnesses(c: Graph) -> list[tuple[str, tuple[str, ...]]]:
    """The witnesses on a looped girth >= 5 component, triangle-free."""
    wits: list[tuple[str, tuple[str, ...]]] = [
        (label, (v,)) for label, v in _neighborhood_witnesses(c, True)
    ]
    rc = reflexive_cycle_core(c)
    if rc is not None:
        wits.append((WITNESS_REFL_CYCLE, rc))
    return wits


def classify_component(c: Graph) -> ComponentVerdict:
    """The verdict on a connected component c; one pass over the masks (no
    triangle, no 4-cycle) chooses between the girth >= 5 trichotomy and the
    others."""
    verts = c.vertices
    triangle, square = _short_cycles(c._adj)
    irr = c.is_irreflexive()
    if not (triangle or square):  # girth >= 5
        if irr:
            if is_irreflexive_star(c):
                return ComponentVerdict(verts, CLASS_FP, "Thm1.i")
            if is_caterpillar(c):
                return ComponentVerdict(verts, CLASS_BIS, "Thm1.ii")
            return ComponentVerdict(
                verts, CLASS_SAT, "Thm5.iii", tuple(_irreflexive_sat_witnesses(c))
            )
        if is_single_looped_vertex(c) or is_double_looped_edge(c):
            return ComponentVerdict(verts, CLASS_FP, "Thm1.i")
        if is_pbrp(c) is not None:
            return ComponentVerdict(verts, CLASS_BIS, "Thm1.ii")
        return ComponentVerdict(
            verts, CLASS_SAT, "Thm1.iii", tuple(_looped_sat_witnesses(c))
        )
    if irr and not square:
        # girth 3 and square-free: never a star or caterpillar
        return ComponentVerdict(
            verts, CLASS_SAT, "Thm5.iii", tuple(_irreflexive_sat_witnesses(c))
        )
    if not irr:
        wits = [(label, (v,)) for label, v in _neighborhood_witnesses(c, not triangle)]
        if wits:
            return ComponentVerdict(
                verts, CLASS_SAT, _WITNESS_CLAUSE[wits[0][0]], tuple(wits)
            )
    return ComponentVerdict(verts, CLASS_UNCLASSIFIED, "unclassified", (), UNCLASSIFIED_NOTE)


def classify(h: Graph) -> Verdict:
    """Classify Ret(h): per-component verdicts combined by FP < BIS < SAT
    with UNCLASSIFIED absorbing unless some component is SAT."""
    comps = connected_components(h)
    if not comps:
        return Verdict(CLASS_FP, "Thm1.i", (), ())
    cvs = []
    top = -1
    for c in comps:
        cv = classify_component(c)
        cvs.append(cv)
        rank = _RANK[cv.cls]
        if rank > top:  # the first component of a higher class decides
            top, deciding, witnesses = rank, cv, cv.witnesses
        elif rank == top:
            witnesses += cv.witnesses
    return Verdict(deciding.cls, deciding.clause, witnesses, tuple(cvs))
