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
from fractions import Fraction

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

    def pin_map(self) -> dict[str, int]:
        return dict(self.pins)

    def is_imp_only(self) -> bool:
        return not self.pins


# Imp(x, y) as a digraph: value 0 may go to 0 or 1, value 1 only to 1
_IMP_OUT = (0b11, 0b10)
_IMP_IN = (0b01, 0b11)


def _imp_search(inst: CspInstance) -> _Search:
    """The instance as list homomorphisms into the digraph 0->0, 0->1, 1->1:
    one pattern arc x -> y per Imp(x, y) with x != y (Imp(x, x) always
    holds), a pinned variable's list is its one value."""
    if len(inst.variables) > CSP_ENUM_BOUND:
        raise ValueError(f"instance has {len(inst.variables)} > {CSP_ENUM_BOUND} variables")
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
    """All satisfying assignments in variable order, lexicographic."""
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


def build_graph_from_csp(iv: CspInstance, ie: CspInstance) -> Graph:
    """The undirected graph whose vertices are iv's satisfying assignments,
    with {s, s'} an edge iff every Imp(x,y) of ie holds in both directions
    (s(x) => s'(y) and s'(x) => s(y)); loops allowed.
    """
    if iv.variables != ie.variables:
        raise ValueError("iv and ie must share the variable set")
    if not iv.is_imp_only() or not ie.is_imp_only():
        raise ValueError("iv and ie must be Imp-only instances")
    sols = satisfying_assignments(iv)
    idx = {x: i for i, x in enumerate(iv.variables)}
    pairs = [(idx[x], idx[y]) for x, y in ie.imps]
    names = [_bitstring(s) for s in sols]
    edges = []
    for i, s in enumerate(sols):
        for j in range(i, len(sols)):
            sp = sols[j]
            if all((not s[x] or sp[y]) and (not sp[x] or s[y]) for x, y in pairs):
                edges.append((names[i], names[j]))
    return Graph(names, edges)


def build_digraph_from_csp(iv: CspInstance, if_: CspInstance, ib: CspInstance) -> DiGraph:
    """Directed variant: arc (s, s') iff forward constraints hold from s to s'
    and backward constraints from s' to s.
    """
    if not (iv.variables == if_.variables == ib.variables):
        raise ValueError("instances must share the variable set")
    if not (iv.is_imp_only() and if_.is_imp_only() and ib.is_imp_only()):
        raise ValueError("instances must be Imp-only")
    sols = satisfying_assignments(iv)
    idx = {x: i for i, x in enumerate(iv.variables)}
    fwd = [(idx[x], idx[y]) for x, y in if_.imps]
    bwd = [(idx[x], idx[y]) for x, y in ib.imps]
    names = [_bitstring(s) for s in sols]
    arcs = []
    for i, s in enumerate(sols):
        for j, sp in enumerate(sols):
            if all(not s[x] or sp[y] for x, y in fwd) and all(
                not sp[x] or s[y] for x, y in bwd
            ):
                arcs.append((names[i], names[j]))
    return DiGraph(names, arcs)


def _product_var(v: str, x: str) -> str:
    if PRODUCT_SEP in v or PRODUCT_SEP in x:
        raise ValueError(f"names may not contain the reserved separator {PRODUCT_SEP!r}")
    return f"{v}{PRODUCT_SEP}{x}"


def translate_ret_to_csp(inst: ListedInstance, iv: CspInstance, ie: CspInstance) -> CspInstance:
    """Parsimonious translation of a retraction instance over the graph built
    from (iv, ie) into a CSP instance on V(G) x X.

    Per pattern vertex: a copy of iv's constraints.  Per pattern edge and
    Imp(x,y) of ie: both cross constraints.  Per pinned vertex: delta pins
    matching the pinned assignment.
    """
    if iv.variables != ie.variables:
        raise ValueError("iv and ie must share the variable set")
    check_retraction_lists(inst)
    xs = iv.variables
    variables = tuple(_product_var(v, x) for v in inst.pattern.vertices for x in xs)
    imps: list[tuple[str, str]] = []
    for v in inst.pattern.vertices:
        for x, y in iv.imps:
            imps.append((_product_var(v, x), _product_var(v, y)))
    for u, v in inst.pattern.non_loop_edges():
        for x, y in ie.imps:
            imps.append((_product_var(u, x), _product_var(v, y)))
            imps.append((_product_var(v, x), _product_var(u, y)))
    pins: list[tuple[str, int]] = []
    for v in inst.pattern.vertices:
        sv = inst.lists[v]
        if len(sv) == 1:
            (name,) = sv
            tau = assignment_of_name(name, xs)
            for x in xs:
                pins.append((_product_var(v, x), tau[x]))
    return CspInstance(variables, tuple(imps), tuple(pins))


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
    if not (iv.variables == if_.variables == ib.variables):
        raise ValueError("instances must share the variable set")
    xs = iv.variables
    variables = tuple(_product_var(v, x) for v in pattern.vertices for x in xs)
    imps: list[tuple[str, str]] = []
    for v in pattern.vertices:
        for x, y in iv.imps:
            imps.append((_product_var(v, x), _product_var(v, y)))
    for u, v in pattern.arcs():
        for x, y in if_.imps:
            imps.append((_product_var(u, x), _product_var(v, y)))
        for x, y in ib.imps:
            imps.append((_product_var(v, x), _product_var(u, y)))
    pins: list[tuple[str, int]] = []
    for v in pattern.vertices:
        sv = lists[v]
        if len(sv) == 1:
            (name,) = sv
            tau = assignment_of_name(name, xs)
            for x in xs:
                pins.append((_product_var(v, x), tau[x]))
    return CspInstance(variables, tuple(imps), tuple(pins))


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


def required_oracle_precision(epsilon: float, f_value: int) -> Fraction:
    """Oracle precision that makes the subtraction safe: eps/(16 k), and for
    k = 0 the plain eps.
    """
    if f_value == 0:
        return Fraction(epsilon).limit_denominator(10**9)
    return Fraction(epsilon).limit_denominator(10**9) / (16 * f_value)


def count_dir_list_hom(
    pattern: DiGraph, lists: dict[str, frozenset[str]], target: DiGraph
) -> int:
    """Directed list-homomorphism count, on the search kernel.  Lives here
    because its only client is the verification of the directed CSP
    constructions.
    """
    return _search(pattern, lists, target).count()
