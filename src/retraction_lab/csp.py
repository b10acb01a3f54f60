"""Boolean CSP machinery over the language {Imp, delta_0, delta_1}.

Covers: exact counting of satisfying assignments, the graph/digraph built
from a pair (resp. triple) of Imp-only instances, the parsimonious
translation of a retraction instance into a CSP instance, the bristled-path
construction, trivial-component stripping and the subtraction wrapper.

Counting runs on the search kernel of `exact`, the same one that counts
undirected instances: a CSP instance is a list-homomorphism problem into
the digraph 0->0, 0->1, 1->1 (Imp), and directed list homomorphisms are
counted there too.

Graph vertices built from CSP instances are named by the assignment's
bitstring in variable order ("010" means x0=0, x1=1, x2=0).
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from operator import or_

from .exact import _search, _Search, count_list_hom
from .graphs import DiGraph, Graph, connected_components
from .instances import ListedInstance, check_retraction_lists

PRODUCT_SEP = "::"  # reserved separator for (pattern vertex, variable) names

CSP_ENUM_BOUND = 24


@dataclass(frozen=True)
class CspInstance:
    """Variables, Imp constraints (ordered pairs) and 0/1 pins."""

    variables: tuple[str, ...]
    imps: tuple[tuple[str, str], ...] = ()
    pins: tuple[tuple[str, int], ...] = ()

    def __post_init__(self):
        if len(set(self.variables)) != len(self.variables):
            raise ValueError("duplicate variables")
        vs = set(self.variables)
        for x, y in self.imps:
            if x not in vs or y not in vs:
                raise ValueError(f"Imp({x},{y}) references undeclared variables")
        seen = set()
        for x, val in self.pins:
            if x not in vs:
                raise ValueError(f"pin on undeclared variable {x!r}")
            if val not in (0, 1):
                raise ValueError("pins must be 0 or 1")
            if x in seen:
                raise ValueError(f"multiple pins on {x!r}")
            seen.add(x)


# Imp(x, y) as a digraph: value 0 may go to 0 or 1, value 1 only to 1
_IMP_OUT = (0b11, 0b10)
_IMP_IN = (0b01, 0b11)


def _imp_search(inst: CspInstance) -> _Search:
    """The instance as list homomorphisms into the digraph 0->0, 0->1, 1->1:
    one pattern arc x -> y per Imp(x, y) with x != y (Imp(x, x) always
    holds), a pinned variable's list is its one value."""
    index = {x: i for i, x in enumerate(inst.variables)}
    out = [0] * len(index)
    inn = [0] * len(index)
    for x, y in inst.imps:
        if x != y:
            out[index[x]] |= 1 << index[y]
            inn[index[y]] |= 1 << index[x]
    doms = [0b11] * len(index)
    for x, val in inst.pins:
        doms[index[x]] = 1 << val
    return _Search(out, inn, doms, _IMP_OUT, _IMP_IN)


def satisfying_assignments(inst: CspInstance) -> list[tuple[int, ...]]:
    """All satisfying assignments in variable order, lexicographic; refused
    above CSP_ENUM_BOUND variables, where the list can run to 2^n entries."""
    if len(inst.variables) > CSP_ENUM_BOUND:
        raise ValueError(f"instance has {len(inst.variables)} > {CSP_ENUM_BOUND} variables to list")
    return sorted(_imp_search(inst).assignments())


def count_csp(inst: CspInstance) -> int:
    """Number of satisfying assignments."""
    return _imp_search(inst).count()


def _bitstring(assign: tuple[int, ...]) -> str:
    return "".join(str(b) for b in assign)


def assignment_of_name(name: str, variables: tuple[str, ...]) -> dict[str, int]:
    if len(name) != len(variables) or set(name) - {"0", "1"}:
        raise ValueError(f"{name!r} is not an assignment over {len(variables)} variables")
    return {x: int(c) for x, c in zip(variables, name)}


def _csp_arcs(
    iv: CspInstance, fwd: CspInstance, bwd: CspInstance
) -> tuple[list[str], list[tuple[str, str]]]:
    """iv's satisfying assignments, by name, and the arcs (s, s') over them
    such that every Imp(x,y) of fwd holds from s to s' (s(x) => s'(y)) and
    every one of bwd from s' to s (s'(x) => s(y)).

    With an assignment as a bitmask, the values that Imp-constraints force on
    the other end are a mask too, so each pair costs two integer tests.
    """
    if not (iv.variables == fwd.variables == bwd.variables):
        raise ValueError("instances must share the variable set")
    if iv.pins or fwd.pins or bwd.pins:
        raise ValueError("instances must be Imp-only")
    sols = satisfying_assignments(iv)
    idx = {x: i for i, x in enumerate(iv.variables)}
    masks = [sum(b << i for i, b in enumerate(s)) for s in sols]
    # per assignment, the variables that fwd (bwd) forces to 1 at the other end
    need_f, need_b = (
        [reduce(or_, (1 << idx[y] for x, y in inst.imps if s[idx[x]]), 0) for s in sols]
        for inst in (fwd, bwd)
    )
    names = [_bitstring(s) for s in sols]
    arcs = [
        (names[i], names[j])
        for i, m in enumerate(masks)
        for j, mp in enumerate(masks)
        if not (need_f[i] & ~mp or need_b[j] & ~m)
    ]
    return names, arcs


def build_graph_from_csp(iv: CspInstance, ie: CspInstance) -> Graph:
    """The undirected graph whose vertices are iv's satisfying assignments,
    with {s, s'} an edge iff every Imp(x,y) of ie holds in both directions
    (s(x) => s'(y) and s'(x) => s(y)); loops allowed.  This is the digraph
    of (iv, ie, ie), whose arc condition is symmetric.
    """
    return Graph(*_csp_arcs(iv, ie, ie))


def build_digraph_from_csp(iv: CspInstance, if_: CspInstance, ib: CspInstance) -> DiGraph:
    """Directed variant: arc (s, s') iff forward constraints hold from s to s'
    and backward constraints from s' to s.
    """
    return DiGraph(*_csp_arcs(iv, if_, ib))


def _product_var(v: str, x: str) -> str:
    if PRODUCT_SEP in v or PRODUCT_SEP in x:
        raise ValueError(f"names may not contain the reserved separator {PRODUCT_SEP!r}")
    return f"{v}{PRODUCT_SEP}{x}"


def _translate(
    vertices: tuple[str, ...],
    arcs: list[tuple[str, str]],
    one: dict[str, str],
    iv: CspInstance,
    fwd: CspInstance,
    bwd: CspInstance,
) -> CspInstance:
    """The CSP instance on vertices x X: per vertex a copy of iv's
    constraints; per arc (u, v) fwd's constraints from u to v and bwd's from
    v to u; per vertex in `one`, which maps each vertex with a one-element
    list to that element, delta pins matching that assignment."""
    if not (iv.variables == fwd.variables == bwd.variables):
        raise ValueError("instances must share the variable set")
    xs = iv.variables
    # each (vertex, variable) name built and checked once, by variable position
    names = {v: [_product_var(v, x) for x in xs] for v in vertices}
    pos = {x: i for i, x in enumerate(xs)}
    iv_ij, fwd_ij, bwd_ij = ([(pos[x], pos[y]) for x, y in inst.imps] for inst in (iv, fwd, bwd))
    variables = tuple(nx for v in vertices for nx in names[v])
    imps = []
    for v in vertices:
        nv = names[v]
        imps += [(nv[i], nv[j]) for i, j in iv_ij]
    for u, v in arcs:
        nu, nv = names[u], names[v]
        imps += [(nu[i], nv[j]) for i, j in fwd_ij]
        imps += [(nv[i], nu[j]) for i, j in bwd_ij]
    pins = []
    for v, name in one.items():
        tau = assignment_of_name(name, xs)
        pins += [(nx, tau[x]) for nx, x in zip(names[v], xs)]
    return CspInstance(variables, tuple(imps), tuple(pins))


def translate_ret_to_csp(inst: ListedInstance, iv: CspInstance, ie: CspInstance) -> CspInstance:
    """Parsimonious translation of a retraction instance over the graph built
    from (iv, ie) into a CSP instance on V(G) x X: the directed translation
    with each pattern edge one arc and ie both forward and backward.
    """
    check_retraction_lists(inst)
    pattern, tv = inst.pattern, inst.target_vertices
    one = {v: tv[d.bit_length() - 1] for v, d in zip(pattern.vertices, inst.domains) if d.bit_count() == 1}
    return _translate(pattern.vertices, pattern.non_loop_edges(), one, iv, ie, ie)


def translate_dirret_to_csp(
    pattern: DiGraph,
    lists: dict[str, frozenset[str]],
    iv: CspInstance,
    if_: CspInstance,
    ib: CspInstance,
) -> CspInstance:
    """Directed variant: forward constraints go with the arc, backward ones
    against it.
    """
    one = {v: next(iter(lists[v])) for v in pattern.vertices if len(lists[v]) == 1}
    return _translate(pattern.vertices, pattern.arcs(), one, iv, if_, ib)


def pbrp_csp(q: int, s: set[int] | frozenset[int]) -> tuple[CspInstance, CspInstance]:
    """The (iv, ie) pair whose built graph is the bristled reflexive path with
    parameters (q, s), plus isolated unlooped vertices.

    iv gets Imp(x_i, x_{i-1}) for i in [q] \\ s; ie gets Imp(x_j, x_i) for all
    0 <= i < j <= q.
    """
    if q < 1:
        raise ValueError("q must be positive")
    s = frozenset(s)
    if not s:
        raise ValueError("s must be non-empty (a plain reflexive path needs no CSP)")
    if not s <= set(range(1, q + 1)):
        raise ValueError(f"s must be a subset of 1..{q}")
    xs = tuple(f"x{i}" for i in range(q + 1))
    iv_imps = tuple((xs[i], xs[i - 1]) for i in range(1, q + 1) if i not in s)
    ie_imps = tuple((xs[j], xs[i]) for i in range(q + 1) for j in range(i + 1, q + 1))
    return CspInstance(xs, iv_imps), CspInstance(xs, ie_imps)


def pbrp_expected_labels(q: int, s: frozenset[int]) -> tuple[dict[int, str], dict[int, str]]:
    """The sigma_i / sigma'_i bitstring names identifying the path and
    bristle vertices inside the built graph: sigma_i(x_j) = 1 iff j < i;
    sigma'_i(x_j) = 1 iff j <= i and j != i-1.
    """
    path = {
        i: "".join("1" if j < i else "0" for j in range(q + 1)) for i in range(q + 2)
    }
    bristles = {
        i: "".join("1" if (j <= i and j != i - 1) else "0" for j in range(q + 1))
        for i in sorted(s)
    }
    return path, bristles


TRIVIAL_SINGLETON_LOOPED = "looped-singleton"
TRIVIAL_SINGLETON = "singleton"
TRIVIAL_EDGE = "unlooped-edge"


def _trivial_kind(c: Graph) -> str | None:
    if len(c) == 1:
        return TRIVIAL_SINGLETON_LOOPED if c.loop_mask() else TRIVIAL_SINGLETON
    if len(c) == 2 and c.is_irreflexive() and len(c.non_loop_edges()) == 1:
        return TRIVIAL_EDGE
    return None


@dataclass(frozen=True)
class StrippedCore:
    """Core component plus the stripped trivial components, packaged with the
    closed-form evaluator f(G) = sum_i hom(G, C_i) for the subtraction wrapper.
    """

    core: Graph
    stripped: tuple[Graph, ...] = ()

    def f_value(self, pattern: Graph, lists: dict[str, frozenset[str]] | None = None) -> int:
        total = 0
        for comp in self.stripped:
            if lists is None:
                li = ListedInstance.full(pattern, comp)
            else:
                cset = frozenset(comp.vertices)
                li = ListedInstance(
                    pattern, {v: sv & cset for v, sv in lists.items()}, comp.vertices
                )
            total += count_list_hom(li, comp)
        return total


def strip_trivial_components(h: Graph) -> StrippedCore:
    """Split off trivial components (singletons and unlooped edges); at most
    one non-trivial component may remain.
    """
    comps = connected_components(h)
    core = [c for c in comps if _trivial_kind(c) is None]
    trivial = [c for c in comps if _trivial_kind(c) is not None]
    if len(core) > 1:
        raise ValueError(f"{len(core)} non-trivial components; expected at most one")
    if core:
        return StrippedCore(core[0], tuple(trivial))
    if not trivial:
        raise ValueError("empty graph has no core")
    return StrippedCore(trivial[0], tuple(trivial[1:]))


def subtract_wrapper(count_big: int, f_value: int) -> int:
    """hom-count difference of the two-target trick; errors on inconsistency."""
    if f_value > count_big:
        raise ValueError(f"inconsistent inputs: f={f_value} exceeds count={count_big}")
    return count_big - f_value


def count_dir_list_hom(
    pattern: DiGraph, lists: dict[str, frozenset[str]], target: DiGraph
) -> int:
    """Directed list-homomorphism count, on the search kernel.  Lives here
    because its only client is the verification of the directed CSP
    constructions.
    """
    return _search(pattern, lists, target).count()
