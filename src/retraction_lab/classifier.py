"""Approximate-counting complexity classification of Ret(H), with structural
certificates.

Connected components are classified separately and combined: girth >= 5
components get the full trichotomy, irreflexive square-free components get
the irreflexive classification, and looped components with 3- or 4-cycles
are UNCLASSIFIED unless one of the girth-independent neighborhood witnesses
fires (those lemmas need no girth assumption, or only triangle-freeness).

Classes: FP < BIS_EQUIVALENT < SAT_EQUIVALENT, with UNCLASSIFIED absorbing
anything that is not already SAT.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations

from .fixedgraphs import build_hk
from .graphs import Graph, connected_components, girth, is_connected

CLASS_FP = "FP"
CLASS_BIS = "BIS_EQUIVALENT"
CLASS_SAT = "SAT_EQUIVALENT"
CLASS_UNCLASSIFIED = "UNCLASSIFIED"

_RANK = {CLASS_FP: 0, CLASS_BIS: 1, CLASS_SAT: 2}

WITNESS_WR = "WR_q-neighborhood"
WITNESS_NON_2WRENCH = "non-2-Wrench-neighborhood"
WITNESS_DIST2 = "distance-2-structure"
WITNESS_REFL_CYCLE = "reflexive-cycle>=5"
WITNESS_ODD_CYCLE = "odd-cycle"
WITNESS_J3 = "induced-J3"
WITNESS_EVEN_PSEUDOTREE = "even-cycle-pseudotree"
WITNESS_FALLBACK = "not-PBRP/star-analysis"

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


@dataclass(frozen=True)
class ComponentVerdict:
    vertices: tuple[str, ...]
    cls: str
    clause: str
    witnesses: tuple[tuple[str, tuple[str, ...]], ...] = ()
    note: str = ""


@dataclass(frozen=True)
class Verdict:
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


# -- simple recognizers -----------------------------------------------------


def _require_connected(h: Graph, op: str) -> None:
    if not is_connected(h):
        raise ValueError(f"{op} expects a connected graph")


def is_irreflexive_star(h: Graph) -> bool:
    """K_{1,n} for n >= 0 (includes K1 and K2), no loops."""
    _require_connected(h, "is_irreflexive_star")
    if not h.is_irreflexive():
        return False
    heavy = sum(1 for v in h.vertices if h.degree(v) >= 2)
    return heavy <= 1


def is_single_looped_vertex(h: Graph) -> bool:
    _require_connected(h, "is_single_looped_vertex")
    return len(h) == 1 and not h.is_irreflexive()


def is_double_looped_edge(h: Graph) -> bool:
    _require_connected(h, "is_double_looped_edge")
    return len(h) == 2 and h.is_reflexive() and len(h.non_loop_edges()) == 1


def _path_order(h: Graph) -> list[str] | None:
    """Vertex order of h as a simple path (loops ignored); None otherwise."""
    n = len(h)
    if n == 0:
        return None
    if n == 1:
        return [h.vertices[0]]
    deg = {v: len(h.neighbors(v) - {v}) for v in h.vertices}
    if any(d > 2 for d in deg.values()):
        return None
    ends = sorted(v for v in h.vertices if deg[v] == 1)
    if len(ends) != 2:
        return None
    order = [ends[0]]
    prev: str | None = None
    cur = ends[0]
    while True:
        nxt = [w for w in h.neighbors(cur) - {cur} if w != prev]
        if not nxt:
            break
        if len(nxt) > 1:
            return None
        prev, cur = cur, nxt[0]
        order.append(cur)
    return order if len(order) == n else None


def is_caterpillar(h: Graph) -> bool:
    """Irreflexive tree whose non-leaf core is a path (possibly empty)."""
    if not is_connected(h) or not h.is_irreflexive():
        return False
    if girth(h) != math.inf:
        return False
    spine = [v for v in h.vertices if h.degree(v) >= 2]
    if not spine:
        return True
    return _path_order(h.induced(spine)) is not None


@dataclass(frozen=True)
class PbrpShape:
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
    """
    if not is_connected(h) or girth(h) != math.inf:
        return None
    looped = set(h.looped_vertices())
    unlooped = [v for v in h.vertices if v not in looped]
    if not looped:
        return None
    core = h.induced(looped)
    order = _path_order(core)
    if order is None:
        return None
    if not unlooped:
        return PbrpShape(tuple(order))
    if len(order) < 3:
        return None
    # orientation: _path_order starts from the lexicographically smaller end
    pos = {v: i for i, v in enumerate(order)}
    bristles: dict[int, str] = {}
    for u in unlooped:
        nbrs = h.neighbors(u)
        if len(nbrs) != 1:
            return None
        (c,) = nbrs
        if c not in pos:
            return None
        i = pos[c]
        if i == 0 or i == len(order) - 1:
            return None
        if i in bristles:
            return None
        bristles[i] = u
    return PbrpShape(tuple(order), tuple(sorted(bristles.items())))


# -- induced J3 -------------------------------------------------------------

_J3_EDGES = frozenset(
    {
        frozenset(("w", "x0")), frozenset(("x0", "x1")),
        frozenset(("w", "y0")), frozenset(("y0", "y1")),
        frozenset(("w", "z0")), frozenset(("z0", "z1")),
    }
)


def induced_j3_embeddings(h: Graph):
    """Yield labelings {w, x0, x1, y0, y1, z0, z1} of induced J3 subgraphs in
    deterministic (lexicographically increasing) order, arms sorted by their
    middle vertex.
    """
    for w in h.vertices:
        if h.is_looped(w):
            continue
        nbrs = sorted(h.neighbors(w))
        for x0, y0, z0 in combinations(nbrs, 3):
            base = {w, x0, y0, z0}
            for x1 in sorted(h.neighbors(x0) - base):
                for y1 in sorted(h.neighbors(y0) - base - {x1}):
                    for z1 in sorted(h.neighbors(z0) - base - {x1, y1}):
                        seven = (w, x0, x1, y0, y1, z0, z1)
                        sub = h.induced(seven)
                        if not sub.is_irreflexive():
                            continue
                        edges = {frozenset(e) for e in sub.edges()}
                        label = dict(zip(("w", "x0", "x1", "y0", "y1", "z0", "z1"), seven))
                        rename = {v: k for k, v in label.items()}
                        if {frozenset((rename[a], rename[b])) for a, b in sub.edges()} == _J3_EDGES:
                            yield label


def has_induced_J3(h: Graph) -> frozenset[str] | None:
    """Vertex set of some induced J3, or None."""
    for label in induced_j3_embeddings(h):
        return frozenset(label.values())
    return None


# -- neighborhood witnesses ---------------------------------------------------


def _wr_leaf_count(hb: Graph, b: str) -> int | None:
    """q if hb is the reflexive star WR_q centered at b, else None."""
    if not hb.is_reflexive() or len(hb) < 2:
        return None
    for v in hb.vertices:
        if v == b:
            if hb.neighbors(v) != frozenset(hb.vertices):
                return None
        elif hb.neighbors(v) != frozenset((v, b)):
            return None
    return len(hb) - 1


def _two_wrench_labels(hb: Graph, b: str) -> tuple[str, str, str] | None:
    """(r1, r2, g) if hb is a 2-Wrench centered at b, else None."""
    if len(hb) != 4 or not hb.is_looped(b):
        return None
    looped = set(hb.looped_vertices())
    if len(looped) != 3 or b not in looped:
        return None
    (g,) = set(hb.vertices) - looped
    rs = sorted(looped - {b})
    if hb.neighbors(g) != frozenset((b,)):
        return None
    for r in rs:
        if hb.neighbors(r) != frozenset((r, b)):
            return None
    if hb.neighbors(b) != frozenset(hb.vertices):
        return None
    return rs[0], rs[1], g


def distance2_labeling(h: Graph, b: str) -> dict[str, str] | None:
    """Labeled embedding showing H'_k <= H[Gamma^2(b)] <= H_k at the looped
    vertex b, with k = deg(g) - 1 read off the graph.  Returns the
    vertex -> H_k-slot map, or None.
    """
    if not h.is_looped(b):
        return None
    gb = sorted(h.neighbors(b))
    tw = _two_wrench_labels(h.induced(gb), b)
    if tw is None:
        return None
    r1, r2, g = tw
    ys = sorted(h.neighbors(g) - {b})
    k = len(ys)
    if k < 1:
        return None
    labels = {b: "b", r1: "r1", r2: "r2", g: "g"}
    for i, y in enumerate(ys, 1):
        if y in labels:
            return None
        labels[y] = f"y{i}"
    for idx, r in ((1, r1), (2, r2)):
        others = h.neighbors(r) - {r, b}
        ws = sorted(v for v in others if h.is_looped(v))
        ds = sorted(v for v in others if not h.is_looped(v))
        if len(ws) > 1 or len(ds) > 1:
            return None
        for v, slot in list(zip(ws, (f"w{idx}",))) + list(zip(ds, (f"d{idx}",))):
            if v in labels:
                return None
            labels[v] = slot
    hk = build_hk(k)
    sub = h.induced(labels)
    for u, v in sub.edges():
        if not hk.has_edge(labels[u], labels[v]):
            return None
    return labels


def neighborhood_witnesses(h: Graph) -> list[tuple[str, str]]:
    """(case-label, vertex) pairs for the looped-neighborhood hardness
    lemmas: WR_q neighborhoods, non-2-Wrench neighborhoods (in triangle-free
    graphs), and the distance-2 sandwich.
    """
    triangle_free = girth(h) != 3
    out: list[tuple[str, str]] = []
    for b in h.looped_vertices():
        gb = sorted(h.neighbors(b))
        hb = h.induced(gb)
        q = _wr_leaf_count(hb, b)
        if q is not None and q >= 3:
            out.append((WITNESS_WR, b))
            continue
        tw = _two_wrench_labels(hb, b)
        has_unlooped_nbr = any(v != b and not h.is_looped(v) for v in gb)
        if tw is None:
            if triangle_free and has_unlooped_nbr:
                out.append((WITNESS_NON_2WRENCH, b))
            continue
        if distance2_labeling(h, b) is not None:
            out.append((WITNESS_DIST2, b))
    return out


KELK_BOUND = 12  # check_kelk_condition walks every vertex subset


def check_kelk_condition(h: Graph) -> bool:
    """The biclique-pair condition: F(H) is a proper non-empty subset of
    V(H) and every cross-complete pair (S, T) has S = F, T = F or
    |S||T| < |F||V|.
    """
    n = len(h)
    if n > KELK_BOUND:
        raise ValueError(f"check_kelk_condition is exponential; {n} > bound {KELK_BOUND}")
    full = (1 << n) - 1
    adj = [h._adj[i] for i in range(n)]
    fmask = 0
    for i in range(n):
        if adj[i] == full:
            fmask |= 1 << i
    if fmask == 0 or fmask == full:
        return False
    fv = fmask.bit_count() * n
    for tmask in range(full + 1):
        if tmask == fmask:
            continue
        m = full
        t = tmask
        while t:
            low = t & -t
            m &= adj[low.bit_length() - 1]
            t ^= low
        cap = m.bit_count() - (1 if m == fmask else 0)
        if cap * tmask.bit_count() >= fv:
            return False
    return True


# -- cycle witnesses ----------------------------------------------------------


def _find_odd_cycle(h: Graph) -> tuple[str, ...] | None:
    """Vertex set of an odd closed walk's cycle (loops ignored), via BFS
    2-coloring: a same-color edge closes an odd cycle through the two
    ancestries cut at their meeting point."""
    color: dict[str, int] = {}
    parent: dict[str, str | None] = {}
    for root in h.vertices:
        if root in color:
            continue
        color[root] = 0
        parent[root] = None
        queue = [root]
        while queue:
            u = queue.pop(0)
            for w in sorted(h.neighbors(u) - {u}):
                if w not in color:
                    color[w] = 1 - color[u]
                    parent[w] = u
                    queue.append(w)
                elif color[w] == color[u]:
                    anc_u = [u]
                    while parent[anc_u[-1]] is not None:
                        anc_u.append(parent[anc_u[-1]])
                    anc_w = [w]
                    while parent[anc_w[-1]] is not None:
                        anc_w.append(parent[anc_w[-1]])
                    set_u = set(anc_u)
                    lca = next(x for x in anc_w if x in set_u)
                    path_u = anc_u[: anc_u.index(lca) + 1]
                    path_w = anc_w[: anc_w.index(lca)]
                    return tuple(sorted(set(path_u) | set(path_w)))
    return None


def _find_any_cycle(h: Graph) -> tuple[str, ...] | None:
    """Vertex set of some simple cycle (loops ignored), via DFS back edge."""
    parent: dict[str, str | None] = {}
    for root in h.vertices:
        if root in parent:
            continue
        parent[root] = None
        stack = [(root, iter(sorted(h.neighbors(root) - {root})))]
        onpath = [root]
        while stack:
            u, it = stack[-1]
            advanced = False
            for w in it:
                if w not in parent:
                    parent[w] = u
                    stack.append((w, iter(sorted(h.neighbors(w) - {w}))))
                    onpath.append(w)
                    advanced = True
                    break
                if w != parent[u] and w in onpath:
                    i = onpath.index(w)
                    return tuple(sorted(onpath[i:]))
            if not advanced:
                stack.pop()
                onpath.pop()
    return None


def has_square(h: Graph) -> bool:
    """True iff some 4-cycle exists: two vertices with two common neighbors
    besides themselves."""
    n = len(h)
    for i in range(n):
        for j in range(i + 1, n):
            m = h._adj[i] & h._adj[j] & ~(1 << i) & ~(1 << j)
            if m.bit_count() >= 2:
                return True
    return False


def is_square_free(h: Graph) -> bool:
    return not has_square(h)


def reflexive_cycle_core(h: Graph) -> tuple[str, ...] | None:
    """If every unlooped vertex is a pendant and the looped core is a
    reflexive cycle of length >= 5, its vertex set; else None."""
    looped = set(h.looped_vertices())
    if len(looped) < 5:
        return None
    for v in h.vertices:
        if v not in looped and h.degree(v) != 1:
            return None
    core = h.induced(looped)
    if not is_connected(core):
        return None
    if any(len(core.neighbors(v) - {v}) != 2 for v in core.vertices):
        return None
    return tuple(sorted(looped))


# -- classification -----------------------------------------------------------


def _irreflexive_sat_witnesses(c: Graph) -> list[tuple[str, tuple[str, ...]]]:
    wits: list[tuple[str, tuple[str, ...]]] = []
    j3 = has_induced_J3(c)
    if j3 is not None:
        wits.append((WITNESS_J3, tuple(sorted(j3))))
    odd = _find_odd_cycle(c)
    if odd is not None:
        wits.append((WITNESS_ODD_CYCLE, odd))
    if not wits:
        cyc = _find_any_cycle(c)
        if cyc is not None:
            wits.append((WITNESS_EVEN_PSEUDOTREE, cyc))
    if not wits:
        wits.append((WITNESS_FALLBACK, ()))
    return wits


def _looped_sat_witnesses(c: Graph) -> list[tuple[str, tuple[str, ...]]]:
    wits: list[tuple[str, tuple[str, ...]]] = [
        (label, (v,)) for label, v in neighborhood_witnesses(c)
    ]
    rc = reflexive_cycle_core(c)
    if rc is not None:
        wits.append((WITNESS_REFL_CYCLE, rc))
    if not wits:
        wits.append((WITNESS_FALLBACK, ()))
    return wits


def classify_component(c: Graph) -> ComponentVerdict:
    verts = c.vertices
    g = girth(c)
    irr = c.is_irreflexive()
    if g >= 5:  # includes math.inf
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
    if irr and is_square_free(c):
        # girth 3 and square-free: never a star or caterpillar
        return ComponentVerdict(
            verts, CLASS_SAT, "Thm5.iii", tuple(_irreflexive_sat_witnesses(c))
        )
    if not irr:
        wits = [(label, (v,)) for label, v in neighborhood_witnesses(c)]
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
    cvs = tuple(classify_component(c) for c in comps)
    if any(cv.cls == CLASS_SAT for cv in cvs):
        overall = CLASS_SAT
    elif any(cv.cls == CLASS_UNCLASSIFIED for cv in cvs):
        overall = CLASS_UNCLASSIFIED
    else:
        overall = max((cv.cls for cv in cvs), key=_RANK.__getitem__)
    deciding = next(cv for cv in cvs if cv.cls == overall)
    witnesses = tuple(w for cv in cvs if cv.cls == overall for w in cv.witnesses)
    return Verdict(overall, deciding.clause, witnesses, cvs)
