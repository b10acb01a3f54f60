"""Text formats for graphs, listed instances, blocked instances and CSP
instances.

Graph file, one record per line (# starts a comment):
    v <id> [loop]
    e <id> <id>

Instance file: a `target <path>` header (resolved against the instance
file's directory), then pattern records as above plus list records
`l <id> *` (full list, the default) or `l <id> t1,t2,...`.

Blocked-instance file: `target <path>` header, then
    b <id> <mult> *|<t1,t2,...>
    c <id> <id> cb|pm|apex
    p <id> <target-vertex>

CSP file: `x <var>`, `imp <x> <y>`, `pin <x> 0|1`.

serialize(parse(text)) is the normal form; parsing it again is the
identity.
"""
from __future__ import annotations

import os

from .csp import CspInstance
from .graphs import Graph
from .instances import Block, BlockedInstance, Coupling, ListedInstance


class ParseError(ValueError):
    pass


def _records(text: str):
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield lineno, line.split()


def _graph(records) -> Graph:
    """The graph of `v` and `e` records; `v x loop` and `e x x` alike give x
    a loop."""
    verts: dict[str, bool] = {}
    edges: list[tuple[str, str]] = []
    for lineno, rec in records:
        kind, args = rec[0], rec[1:]
        if kind == "v":
            if not args or len(args) > 2 or (len(args) == 2 and args[1] != "loop"):
                raise ParseError(f"line {lineno}: malformed vertex record")
            if args[0] in verts:
                raise ParseError(f"line {lineno}: duplicate vertex {args[0]!r}")
            verts[args[0]] = len(args) == 2
        elif kind == "e":
            if len(args) != 2:
                raise ParseError(f"line {lineno}: malformed edge record")
            edges.append((args[0], args[1]))
        else:
            raise ParseError(f"line {lineno}: unknown record {kind!r}")
    for u, v in edges:
        for x in (u, v):
            if x not in verts:
                raise ParseError(f"edge endpoint {x!r} is not a declared vertex")
        if u == v:
            verts[u] = True
    return Graph(
        verts,
        edges + [(v, v) for v, looped in verts.items() if looped],
    )


def parse_graph(text: str) -> Graph:
    return _graph(_records(text))


def serialize_graph(g: Graph) -> str:
    lines = []
    for v in g.vertices:
        lines.append(f"v {v} loop" if g.is_looped(v) else f"v {v}")
    for u, v in g.non_loop_edges():
        lines.append(f"e {u} {v}")
    return "\n".join(lines) + "\n"


def _split_instance_text(text: str) -> tuple[str, list[tuple[int, list[str]]]]:
    target_path = None
    body = []
    for lineno, rec in _records(text):
        if rec[0] == "target":
            if len(rec) != 2 or target_path is not None:
                raise ParseError(f"line {lineno}: malformed target header")
            target_path = rec[1]
        else:
            body.append((lineno, rec))
    if target_path is None:
        raise ParseError("missing `target <path>` header")
    return target_path, body


def load_graph(path: str) -> Graph:
    with open(path, encoding="utf-8") as fh:
        return parse_graph(fh.read())


def load_csp(path: str) -> CspInstance:
    with open(path, encoding="utf-8") as fh:
        return parse_csp(fh.read())


def parse_instance(text: str, base_dir: str = ".") -> tuple[ListedInstance, Graph]:
    """Parse an instance file; the referenced target graph is loaded from
    disk relative to base_dir.  Returns (instance, target)."""
    target_path, body = _split_instance_text(text)
    target = load_graph(os.path.join(base_dir, target_path))
    pattern = _graph((lineno, rec) for lineno, rec in body if rec[0] != "l")
    lists: dict[str, frozenset[str]] = {}
    for lineno, rec in body:
        if rec[0] != "l":
            continue
        args = rec[1:]
        if len(args) != 2:
            raise ParseError(f"line {lineno}: malformed list record")
        name = args[0]
        if name in lists:
            raise ParseError(f"line {lineno}: duplicate list for {name!r}")
        if args[1] == "*":
            lists[name] = frozenset(target.vertices)
        else:
            entries = frozenset(args[1].split(","))
            unknown = entries - set(target.vertices)
            if unknown:
                raise ParseError(
                    f"line {lineno}: list mentions unknown target vertices {sorted(unknown)}"
                )
            lists[name] = entries
    for name in lists:
        if name not in pattern:
            raise ParseError(f"list for undeclared vertex {name!r}")
    try:
        inst = ListedInstance(pattern, lists, target.vertices)
    except ValueError as exc:
        raise ParseError(str(exc)) from None
    return inst, target


def serialize_instance(inst: ListedInstance, target_path: str) -> str:
    lines = [f"target {target_path}"]
    for v in inst.pattern.vertices:
        lines.append(f"v {v}")
    for u, v in inst.pattern.non_loop_edges():
        lines.append(f"e {u} {v}")
    full = frozenset(inst.target_vertices)
    for v in inst.pattern.vertices:
        sv = inst.lists[v]
        if sv == full:
            lines.append(f"l {v} *")
        else:
            lines.append(f"l {v} {','.join(sorted(sv))}")
    return "\n".join(lines) + "\n"


def parse_blocked(text: str, base_dir: str = ".") -> tuple[BlockedInstance, Graph]:
    target_path, body = _split_instance_text(text)
    target = load_graph(os.path.join(base_dir, target_path))
    blocks: list[Block] = []
    couplings: list[Coupling] = []
    pins: list[tuple[str, str]] = []
    for lineno, rec in body:
        kind, args = rec[0], rec[1:]
        if kind == "b":
            if len(args) != 3:
                raise ParseError(f"line {lineno}: malformed block record")
            name, mult, lst = args
            try:
                mult_i = int(mult)
                blist = None if lst == "*" else frozenset(lst.split(","))
                blocks.append(Block(name, mult_i, blist))
            except ValueError as exc:
                raise ParseError(f"line {lineno}: {exc}") from None
        elif kind == "c":
            if len(args) != 3:
                raise ParseError(f"line {lineno}: malformed coupling record")
            try:
                couplings.append(Coupling(args[0], args[1], args[2]))
            except ValueError as exc:
                raise ParseError(f"line {lineno}: {exc}") from None
        elif kind == "p":
            if len(args) != 2:
                raise ParseError(f"line {lineno}: malformed pin record")
            pins.append((args[0], args[1]))
        else:
            raise ParseError(f"line {lineno}: unknown record {kind!r}")
    try:
        blocked = BlockedInstance(
            tuple(blocks), tuple(couplings), tuple(pins), target.vertices
        )
    except ValueError as exc:
        raise ParseError(str(exc)) from None
    return blocked, target


def serialize_blocked(b: BlockedInstance, target_path: str) -> str:
    lines = [f"target {target_path}"]
    for blk in b.blocks:
        lst = "*" if blk.list is None else ",".join(sorted(blk.list))
        lines.append(f"b {blk.name} {blk.multiplicity} {lst}")
    for c in b.couplings:
        lines.append(f"c {c.a} {c.b} {c.kind}")
    for name, tv in b.pins:
        lines.append(f"p {name} {tv}")
    return "\n".join(lines) + "\n"


def parse_csp(text: str) -> CspInstance:
    variables: list[str] = []
    imps: list[tuple[str, str]] = []
    pins: list[tuple[str, int]] = []
    for lineno, rec in _records(text):
        kind, args = rec[0], rec[1:]
        if kind == "x":
            if len(args) != 1:
                raise ParseError(f"line {lineno}: malformed variable record")
            variables.append(args[0])
        elif kind == "imp":
            if len(args) != 2:
                raise ParseError(f"line {lineno}: malformed imp record")
            imps.append((args[0], args[1]))
        elif kind == "pin":
            if len(args) != 2 or args[1] not in ("0", "1"):
                raise ParseError(f"line {lineno}: malformed pin record")
            pins.append((args[0], int(args[1])))
        else:
            raise ParseError(f"line {lineno}: unknown record {kind!r}")
    try:
        return CspInstance(tuple(variables), tuple(imps), tuple(pins))
    except ValueError as exc:
        raise ParseError(str(exc)) from None


def serialize_csp(inst: CspInstance) -> str:
    lines = [f"x {x}" for x in inst.variables]
    lines += [f"imp {x} {y}" for x, y in inst.imps]
    lines += [f"pin {x} {val}" for x, val in inst.pins]
    return "\n".join(lines) + "\n"
