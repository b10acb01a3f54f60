"""Pattern-with-lists instances and the compressed blocked form used by the
gadget builders.

A ListedInstance is an irreflexive pattern graph together with a list
S_v of allowed target vertices per pattern vertex, held as a mask (see
`list_masks`).  Retraction instances are the special case where every list
has size 1 or size |V(H)|.

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

from .graphs import Graph, _bits


def list_masks(vertices, lists, target_vertices: tuple[str, ...]) -> tuple[int, ...]:
    """Each vertex's list as a mask, in the order of `vertices`, bit i for
    target_vertices[i]; a vertex with no list gets the full mask.  The one
    place where target-vertex labels become masks.  ValueError on a
    duplicate target vertex, a value that is not a target vertex or a list
    for a vertex not in `vertices`."""
    bit = {t: 1 << i for i, t in enumerate(target_vertices)}
    if len(bit) != len(target_vertices):
        raise ValueError("duplicate target vertices")
    full, out, given = (1 << len(bit)) - 1, [], 0
    for v in vertices:
        sv = lists.get(v)
        given += sv is not None
        if sv is None or bit.keys() == sv:  # no list, or every target vertex
            out.append(full)
            continue
        mask = 0
        for t in sv:
            if t not in bit:
                raise ValueError(f"list of {v!r} mentions unknown target vertices {sorted(set(sv) - bit.keys())}")
            mask |= bit[t]
        out.append(mask)
    if given != len(lists):
        raise ValueError(f"lists given for unknown pattern vertices {sorted(lists.keys() - set(vertices))}")
    return tuple(out)


def check_retraction_lists(inst: "ListedInstance") -> None:
    """Raise ValueError, naming the first offending vertex, unless every
    list holds one or all of the target vertices: the one-or-all list
    condition of a retraction instance."""
    n = len(inst.target_vertices)
    for v, d in zip(inst.pattern.vertices, inst.domains):
        if d.bit_count() not in (1, n):
            raise ValueError(f"retraction instance needs |S_v| in {{1, {n}}}; vertex {v!r} has {d.bit_count()}")


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
    """Irreflexive pattern + per-vertex lists over a fixed target vertex set,
    stored once as `domains`: a mask per pattern vertex, in pattern-vertex
    order, bit i for target_vertices[i] (sorted), the layout the search
    kernel packs.  `lists`, the same lists as frozensets of labels, is a
    read-only view built on first use.  A value type: equal instances hash
    equal, the hash is computed once and nothing can be edited in place,
    so an instance cannot change under a cache that keys on it."""

    __slots__ = ("pattern", "domains", "target_vertices", "_hash", "_lists")

    def __init__(self, pattern: Graph, lists: dict[str, frozenset[str]], target_vertices: tuple[str, ...]):
        if not pattern.is_irreflexive():
            raise ValueError("pattern graphs must be irreflexive")
        self.pattern = pattern
        self.target_vertices = tuple(sorted(target_vertices))
        self.domains = list_masks(pattern.vertices, lists, self.target_vertices)
        self._hash = self._lists = None

    @property
    def lists(self) -> MappingProxyType:
        """Each pattern vertex's list as a frozenset of target vertices, in
        pattern-vertex order: a read-only view of `domains`.  Equal masks
        share one frozenset, built from the mask's set bits."""
        if self._lists is None:
            tv = self.target_vertices
            made = {d: frozenset([tv[i] for i in _bits(d)]) for d in set(self.domains)}
            view = {v: made[d] for v, d in zip(self.pattern.vertices, self.domains)}
            self._lists = MappingProxyType(view)
        return self._lists

    @classmethod
    def full(cls, pattern: Graph, target: Graph) -> "ListedInstance":
        return cls(pattern, {}, target.vertices)

    def _with(self, domains: tuple[int, ...]) -> "ListedInstance":
        """This instance with narrower masks, unchecked: valid as this one is."""
        out = object.__new__(ListedInstance)
        out.pattern, out.domains, out.target_vertices = self.pattern, domains, self.target_vertices
        out._hash = out._lists = None
        return out

    def pin(self, v: str, t: str) -> "ListedInstance":
        """The instance with the list of v collapsed to {t}."""
        i = self.pattern._index.get(v)
        if i is None:
            raise ValueError(f"{v!r} is not a pattern vertex")
        tv, d = self.target_vertices, self.domains
        b = 1 << tv.index(t) if t in tv else 0
        if not d[i] & b:
            raise ValueError(f"{t!r} is not in the list of {v!r}")
        return self._with(d[:i] + (b,) + d[i + 1 :])

    def restrict_lists(self, allowed: frozenset[str]) -> "ListedInstance":
        """Every list intersected with `allowed` (its non-target values ignored)."""
        tv = self.target_vertices
        (keep,) = list_masks(("allowed",), {"allowed": allowed & frozenset(tv)}, tv)
        return self._with(tuple(d & keep for d in self.domains))

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, ListedInstance)
            and self.pattern == other.pattern
            and self.domains == other.domains
            and self.target_vertices == other.target_vertices
        )

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((self.pattern, self.domains, self.target_vertices))
        return self._hash

    def __getstate__(self):
        # str hashes are salted per process, so a cached hash must not
        # travel; the read-only view does not pickle, and is rebuilt on use
        state = {name: getattr(self, name) for name in self.__slots__}
        state["_hash"] = state["_lists"] = None
        return None, state

    def __repr__(self) -> str:
        pins = sum(1 for d in self.domains if d.bit_count() == 1)
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
