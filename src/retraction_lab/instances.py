"""Pattern-with-lists instances and the compressed blocked form used by the
gadget builders.

A ListedInstance is an irreflexive pattern graph together with a list
S_v of allowed target vertices per pattern vertex.  Retraction instances are
the special case where every list has size 1 or size |V(H)|.

A BlockedInstance compresses repeated independent sets ("blocks") with a
multiplicity; couplings say how the expansions are wired:

    cb    complete bipartite between the two blocks' vertices
    pm    index-aligned perfect matching (equal multiplicities)
    apex  star from a multiplicity-1 block to every vertex of the other

Expansion is deterministic: a block named B with multiplicity m > 1 expands
to vertices "B$1" .. "B$m"; a multiplicity-1 block expands to a vertex named
exactly B.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from types import MappingProxyType

from .graphs import Graph


def check_retraction_lists(inst: "ListedInstance") -> None:
    """Raise ValueError, naming the first offending vertex, unless every
    list holds one or all of the target vertices: the one-or-all list
    condition of a retraction instance."""
    n = inst.target_size
    for v, sv in inst.lists.items():
        if len(sv) not in (1, n):
            raise ValueError(
                f"retraction instance needs |S_v| in {{1, {n}}}; vertex {v!r} has {len(sv)}"
            )


def check_target(inst: "ListedInstance", target: Graph) -> None:
    """Raise ValueError unless the instance's lists are over the target's
    vertex set."""
    if inst.target_vertices != target.vertices:
        raise ValueError("instance lists are over a different target vertex set")


def check_retraction_blocks(b: "BlockedInstance") -> None:
    """The one-or-all list condition on every block of a blocked instance:
    a pinned block has one value, a block with no list has all of them."""
    n = len(b.target_vertices)
    for name, lst in b.block_lists().items():
        if len(lst) not in (1, n):
            raise ValueError(
                f"retraction instance needs |S_b| in {{1, {n}}}; block {name!r} has {len(lst)}"
            )


class ListedInstance:
    """Irreflexive pattern + per-vertex lists over a fixed target vertex set.
    A value type: equal instances hash equal, the hash is computed once, and
    `lists` is a read-only mapping, so an instance cannot change under a
    cache that keys on it."""

    __slots__ = ("pattern", "lists", "target_vertices", "_hash")

    def __init__(
        self,
        pattern: Graph,
        lists: dict[str, frozenset[str]],
        target_vertices: tuple[str, ...],
    ):
        if not pattern.is_irreflexive():
            raise ValueError("pattern graphs must be irreflexive")
        tset = frozenset(target_vertices)
        if len(tset) != len(target_vertices):
            raise ValueError("duplicate target vertices")
        norm = {}
        for v in pattern.vertices:
            sv = frozenset(lists.get(v, tset))
            if not sv <= tset:
                raise ValueError(f"list of {v!r} mentions unknown target vertices {sorted(sv - tset)}")
            norm[v] = sv
        extra = set(lists) - set(pattern.vertices)
        if extra:
            raise ValueError(f"lists given for unknown pattern vertices {sorted(extra)}")
        self.pattern = pattern
        # in pattern-vertex order, whatever the order of `lists`
        self.lists = MappingProxyType(norm)
        self.target_vertices = tuple(sorted(target_vertices))
        self._hash: int | None = None

    @property
    def target_size(self) -> int:
        return len(self.target_vertices)

    @classmethod
    def full(cls, pattern: Graph, target: Graph) -> "ListedInstance":
        return cls(pattern, {}, target.vertices)

    def pin(self, v: str, t: str) -> "ListedInstance":
        """The instance with the list of v collapsed to {t}.  The copy is
        valid because this instance is, so it skips the checks of
        `__init__`, and its lists keep pattern-vertex order."""
        if t not in self.lists.get(v, ()):
            if v not in self.lists:
                raise ValueError(f"{v!r} is not a pattern vertex")
            raise ValueError(f"{t!r} is not in the list of {v!r}")
        lists = self.lists.copy()
        lists[v] = frozenset((t,))
        out = object.__new__(ListedInstance)
        out.pattern = self.pattern
        out.lists = MappingProxyType(lists)
        out.target_vertices = self.target_vertices
        out._hash = None
        return out

    def restrict_lists(self, allowed: frozenset[str]) -> "ListedInstance":
        lists = {v: sv & allowed for v, sv in self.lists.items()}
        return ListedInstance(self.pattern, lists, self.target_vertices)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, ListedInstance)
            and self.pattern == other.pattern
            and self.lists == other.lists
            and self.target_vertices == other.target_vertices
        )

    def __hash__(self) -> int:
        if self._hash is None:
            # the lists are in pattern-vertex order, so equal instances list
            # equal values in the same order
            self._hash = hash((self.pattern, tuple(self.lists.values()), self.target_vertices))
        return self._hash

    def __getstate__(self):
        # str hashes are salted per process, so a cached hash must not
        # travel; a read-only mapping does not pickle, its dict does
        state = {name: getattr(self, name) for name in self.__slots__}
        state["lists"] = dict(self.lists)
        state["_hash"] = None
        return state

    def __setstate__(self, state):
        for name, value in state.items():
            setattr(self, name, value)
        self.lists = MappingProxyType(self.lists)

    def __repr__(self) -> str:
        pins = sum(1 for sv in self.lists.values() if len(sv) == 1)
        return f"ListedInstance({len(self.pattern)} vertices, {pins} pinned)"


COUPLING_KINDS = ("cb", "pm", "apex")


@dataclass(frozen=True)
class Block:
    name: str
    multiplicity: int
    list: frozenset[str] | None = None  # None = full list

    def __post_init__(self):
        if self.multiplicity < 1:
            raise ValueError(f"block {self.name!r} needs positive multiplicity")


@dataclass(frozen=True)
class Coupling:
    a: str
    b: str
    kind: str

    def __post_init__(self):
        if self.kind not in COUPLING_KINDS:
            raise ValueError(f"unknown coupling kind {self.kind!r}")


@dataclass(frozen=True)
class BlockedInstance:
    """Compressed gadget instance; expansion is unique up to vertex naming."""

    blocks: tuple[Block, ...]
    couplings: tuple[Coupling, ...]
    pins: tuple[tuple[str, str], ...]  # (block name, target vertex)
    target_vertices: tuple[str, ...] = field(default=())

    def __post_init__(self):
        by_name = {}
        for blk in self.blocks:
            Graph._check_id(blk.name)  # a block name is a vertex of the expansion
            if blk.name in by_name:
                raise ValueError(f"duplicate block {blk.name!r}")
            by_name[blk.name] = blk
        tset = set(self.target_vertices)
        for blk in self.blocks:
            if blk.list is not None and not blk.list <= tset:
                raise ValueError(f"block {blk.name!r} list mentions unknown target vertices")
        for c in self.couplings:
            if c.a not in by_name or c.b not in by_name:
                raise ValueError(f"coupling {c} references unknown block")
            if c.a == c.b:
                raise ValueError(f"coupling {c.a}-{c.b} joins a block to itself")
            if c.kind == "pm" and by_name[c.a].multiplicity != by_name[c.b].multiplicity:
                raise ValueError(f"perfect matching {c.a}-{c.b} joins unequal multiplicities")
            if c.kind == "apex" and by_name[c.a].multiplicity != 1:
                raise ValueError(f"apex coupling {c.a}-{c.b} needs multiplicity-1 apex {c.a!r}")
        seen_pins = set()
        for name, tv in self.pins:
            if name not in by_name:
                raise ValueError(f"pin on unknown block {name!r}")
            if by_name[name].multiplicity != 1:
                raise ValueError(f"pinned block {name!r} must have multiplicity 1")
            if tv not in tset:
                raise ValueError(f"pin target {tv!r} is not a target vertex")
            if by_name[name].list is not None and tv not in by_name[name].list:
                raise ValueError(f"pin target {tv!r} is not in the list of block {name!r}")
            if name in seen_pins:
                raise ValueError(f"duplicate pin on block {name!r}")
            seen_pins.add(name)

    def block_lists(self) -> dict[str, frozenset[str]]:
        """Each block's list, in block order: its pin's one target vertex if
        it is pinned, else its own list, or every target vertex if none."""
        full = frozenset(self.target_vertices)
        lists = {blk.name: full if blk.list is None else blk.list for blk in self.blocks}
        lists.update((name, frozenset((tv,))) for name, tv in self.pins)
        return lists

    def expansion_size(self) -> int:
        return sum(blk.multiplicity for blk in self.blocks)


def block_vertex_names(blk: Block) -> list[str]:
    if blk.multiplicity == 1:
        return [blk.name]
    return [f"{blk.name}${i}" for i in range(1, blk.multiplicity + 1)]


def expand_blocked(b: BlockedInstance) -> ListedInstance:
    """Explicit ListedInstance for a blocked instance.

    Blocks expand to independent sets carrying the block list; cb couplings
    to all cross edges, pm couplings to index-aligned edges, apex couplings
    to a star from the singleton block.
    """
    names = {blk.name: block_vertex_names(blk) for blk in b.blocks}
    all_names = [v for blk in b.blocks for v in names[blk.name]]
    if len(set(all_names)) != len(all_names):
        raise ValueError("expanded vertex names collide; rename blocks")
    edges = []
    for c in b.couplings:
        va, vb = names[c.a], names[c.b]
        if c.kind == "pm":
            edges.extend(zip(va, vb))
        else:  # cb; apex is cb with a singleton side
            for u in va:
                for v in vb:
                    edges.append((u, v))
    lists = {v: lst for name, lst in b.block_lists().items() for v in names[name]}
    return ListedInstance(Graph(all_names, edges), lists, b.target_vertices)
