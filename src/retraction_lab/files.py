"""Text formats for graphs, listed instances, blocked instances and CSP
instances.

Graph file, one record per line (# starts a comment):
    v <id> [loop]
    e <id> <id>

Instance file: a `target <path>` header, then pattern records as above plus
list records `l <id> *` (full list, the default) or `l <id> t1,t2,...`.

Blocked-instance file: `target <path>` header, then
    b <id> <mult> *|<t1,t2,...>
    c <id> <id> cb|pm|apex
    p <id> <target-vertex>

CSP file: `x <var>`, `imp <x> <y>`, `pin <x> 0|1`.

One table, `_GRAMMAR`, states each record kind's argument counts; the four
parsers read through it.  Ids and paths are tokens (no whitespace, no `#`;
in a list also no `,` and not `*`), and the serializers refuse any other.
This module owns the path rule: a `target` path resolves against the
directory of its file (`load_instance`, `load_blocked`) or `base_dir`.

serialize(parse(text)) is the normal form; parsing it again is the
identity.
"""
from __future__ import annotations

import os
from contextlib import contextmanager

from .csp import CspInstance
from .graphs import Graph
from .instances import Block, BlockedInstance, Coupling, ListedInstance


class ParseError(ValueError):
    pass


# record kind: (its argument counts, the name its errors use, the values the
# last argument may take in a record of the largest count, or None for any)
_GRAMMAR = {
    "v": ((1, 2), "vertex record", {"loop"}),
    "e": ((2,), "edge record", None),
    "target": ((1,), "target header", None),
    "l": ((2,), "list record", None),
    "b": ((3,), "block record", None),
    "c": ((3,), "coupling record", None),
    "p": ((2,), "pin record", None),
    "x": ((1,), "variable record", None),
    "imp": ((2,), "imp record", None),
    "pin": ((2,), "pin record", {"0", "1"}),
}


def _lines(text: str):
    """(line number, kind, arguments) of each record, comments dropped."""
    for lineno, raw in enumerate(text.splitlines(), 1):
        rec = raw.split("#", 1)[0].split()
        if rec:
            yield lineno, rec[0], rec[1:]


def _read(records, kinds):
    """The records, each checked against `_GRAMMAR` in turn: its kind one of
    `kinds`, its argument count and its last argument."""
    for lineno, kind, args in records:
        if kind not in kinds:
            raise ParseError(f"line {lineno}: unknown record {kind!r}")
        counts, name, last = _GRAMMAR[kind]
        if len(args) not in counts or last and len(args) == counts[-1] and args[-1] not in last:
            raise ParseError(f"line {lineno}: malformed {name}")
        yield lineno, kind, args


@contextmanager
def _constructing(prefix: str = ""):
    """A constructor's ValueError, raised inside, as a ParseError."""
    try:
        yield
    except ValueError as exc:
        raise ParseError(f"{prefix}{exc}") from None


def _token(tok: str, what: str, in_list: bool = False) -> str:
    """tok, if it reads back as one token (in a list: one list entry)."""
    if tok.split() != [tok] or "#" in tok or in_list and ("," in tok or tok == "*"):
        raise ValueError(f"cannot write {what} {tok!r}: it would not read back as one token")
    return tok


def _graph(records) -> Graph:
    """The graph of `v` and `e` records; `v x loop` and `e x x` alike give x
    a loop."""
    verts: dict[str, bool] = {}
    edges: list[tuple[str, str]] = []
    for lineno, kind, args in _read(records, ("v", "e")):
        if kind == "e":
            edges.append((args[0], args[1]))
        elif args[0] in verts:
            raise ParseError(f"line {lineno}: duplicate vertex {args[0]!r}")
        else:
            verts[args[0]] = len(args) == 2
    missing = next((x for edge in edges for x in edge if x not in verts), None)
    if missing is not None:
        raise ParseError(f"edge endpoint {missing!r} is not a declared vertex")
    verts.update((u, True) for u, v in edges if u == v)
    return Graph(verts, edges + [(v, v) for v, looped in verts.items() if looped])


def parse_graph(text: str) -> Graph:
    return _graph(_lines(text))


def serialize_graph(g: Graph) -> str:
    lines = [f"v {_token(v, 'vertex')} loop" if g.is_looped(v) else f"v {_token(v, 'vertex')}" for v in g.vertices]
    lines += [f"e {u} {v}" for u, v in g.non_loop_edges()]
    return "\n".join(lines) + "\n"


def _targeted(text: str, base_dir: str) -> tuple[Graph, list]:
    """The target graph that the one `target` header names, resolved against
    base_dir, and the other records.  Every header is read first."""
    records = list(_lines(text))
    path = None
    for lineno, _, args in _read((rec for rec in records if rec[1] == "target"), ("target",)):
        if path is not None:
            raise ParseError(f"line {lineno}: malformed target header")
        path = args[0]
    if path is None:
        raise ParseError("missing `target <path>` header")
    return load_graph(os.path.join(base_dir, path)), [rec for rec in records if rec[1] != "target"]


def _text(path: str) -> str:
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def load_graph(path: str) -> Graph:
    return parse_graph(_text(path))


def load_instance(path: str) -> tuple[ListedInstance, Graph]:
    return parse_instance(_text(path), os.path.dirname(os.path.abspath(path)))


def load_blocked(path: str) -> tuple[BlockedInstance, Graph]:
    return parse_blocked(_text(path), os.path.dirname(os.path.abspath(path)))


def load_csp(path: str) -> CspInstance:
    return parse_csp(_text(path))


def parse_instance(text: str, base_dir: str = ".") -> tuple[ListedInstance, Graph]:
    """Parse an instance file; the referenced target graph is loaded from
    disk relative to base_dir.  Returns (instance, target).  The pattern
    records are read before the list records."""
    target, body = _targeted(text, base_dir)
    pattern = _graph(rec for rec in body if rec[1] != "l")
    full = frozenset(target.vertices)
    lists: dict[str, frozenset[str]] = {}
    for lineno, _, (name, entries) in _read((rec for rec in body if rec[1] == "l"), ("l",)):
        if name in lists:
            raise ParseError(f"line {lineno}: duplicate list for {name!r}")
        entries = full if entries == "*" else frozenset(entries.split(","))
        if entries - full:
            raise ParseError(f"line {lineno}: list mentions unknown target vertices {sorted(entries - full)}")
        lists[name] = entries
    for name in lists:
        if name not in pattern:
            raise ParseError(f"list for undeclared vertex {name!r}")
    with _constructing():
        return ListedInstance(pattern, lists, target.vertices), target


def parse_blocked(text: str, base_dir: str = ".") -> tuple[BlockedInstance, Graph]:
    target, body = _targeted(text, base_dir)
    blocks: list[Block] = []
    couplings: list[Coupling] = []
    pins: list[tuple[str, str]] = []
    for lineno, kind, args in _read(body, ("b", "c", "p")):
        with _constructing(f"line {lineno}: "):
            if kind == "b":
                name, mult, lst = args
                blocks.append(Block(name, int(mult), None if lst == "*" else frozenset(lst.split(","))))
            elif kind == "c":
                couplings.append(Coupling(*args))
            else:
                pins.append((args[0], args[1]))
    with _constructing():
        return BlockedInstance(tuple(blocks), tuple(couplings), tuple(pins), target.vertices), target


def serialize_blocked(b: BlockedInstance, target_path: str) -> str:
    lines = [f"target {_token(target_path, 'target path')}"]
    for blk in b.blocks:
        name = _token(blk.name, "block")
        lst = "*" if blk.list is None else ",".join(_token(t, "list entry", True) for t in sorted(blk.list))
        lines.append(f"b {name} {blk.multiplicity} {_token(lst, f'block {name!r} list')}")
    for c in b.couplings:
        lines.append(f"c {c.a} {c.b} {c.kind}")
    for name, tv in b.pins:
        lines.append(f"p {name} {_token(tv, 'pin target')}")
    return "\n".join(lines) + "\n"


def parse_csp(text: str) -> CspInstance:
    variables: list[str] = []
    imps: list[tuple[str, str]] = []
    pins: list[tuple[str, int]] = []
    for _, kind, args in _read(_lines(text), ("x", "imp", "pin")):
        if kind == "x":
            variables.append(args[0])
        elif kind == "imp":
            imps.append((args[0], args[1]))
        else:
            pins.append((args[0], int(args[1])))
    with _constructing():
        return CspInstance(tuple(variables), tuple(imps), tuple(pins))


def serialize_csp(inst: CspInstance) -> str:
    lines = [f"x {_token(x, 'variable')}" for x in inst.variables]
    lines += [f"imp {x} {y}" for x, y in inst.imps]
    lines += [f"pin {x} {val}" for x, val in inst.pins]
    return "\n".join(lines) + "\n"
