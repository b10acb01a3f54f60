import ast
import pathlib
import sys

import retraction_lab

SRC = pathlib.Path(retraction_lab.__file__).parent


def test_library_has_no_assert():
    """Runtime invariants raise: `python -O` strips every assert."""
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert not found, found


def _modules() -> dict[str, ast.Module]:
    return {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(SRC.glob("*.py"))}


def _names(node: ast.AST) -> list[str]:
    """The names `node` reads: a bare name, an attribute or an imported name."""
    if isinstance(node, ast.Name):
        return [node.id]
    if isinstance(node, ast.Attribute):
        return [node.attr]
    if isinstance(node, ast.ImportFrom):
        return [alias.name for alias in node.names]
    return []


def test_every_private_definition_is_used():
    """A module-private function or class, or a private method, that nothing
    in the library names outside its own body is dead code."""
    modules = _modules()
    defs = []
    for name, tree in modules.items():
        for node in tree.body:
            inner = node.body if isinstance(node, ast.ClassDef) else ()
            for d in (node, *inner):
                if not isinstance(d, (ast.FunctionDef, ast.ClassDef)):
                    continue
                if d.name.startswith("_") and not d.name.endswith("__"):
                    defs.append((name, d))
    used: dict[str, list[ast.AST]] = {}
    for tree in modules.values():
        for node in ast.walk(tree):
            for n in _names(node):
                used.setdefault(n, []).append(node)
    dead = []
    for name, d in defs:
        own = {id(node) for node in ast.walk(d)}
        if not any(id(node) not in own for node in used.get(d.name, ())):
            dead.append(f"{name}:{d.lineno} {d.name}")
    assert not dead, dead


def test_no_function_in_exact_calls_itself():
    """Counting, drawing and listing are loops over the sweep's levels, so no
    pattern is too deep for them: no function or method in `exact` calls a
    function of its own name."""
    found = [
        f"exact.py:{node.lineno} {node.name}"
        for node in ast.walk(_modules()["exact.py"])
        if isinstance(node, ast.FunctionDef)
        and any(isinstance(call, ast.Call) and node.name in _names(call.func) for call in ast.walk(node))
    ]
    assert not found, found


def test_exact_builds_the_covering_step_in_one_function():
    """`count` and the level store sweep the same covering steps, so one
    function in `exact` builds them: the only one that spreads a vertex's
    unassigned neighbors (`_spread`, where it is a function of its own) or
    lists its assigned ones (`back`)."""
    builders = [
        node.name
        for node in ast.walk(_modules()["exact.py"])
        if isinstance(node, ast.FunctionDef)
        and any(
            isinstance(call, ast.Call)
            and (
                _names(call.func) == ["_spread"]
                or _names(call.func) == ["append"] and _names(call.func.value) == ["back"]
            )
            for call in ast.walk(node)
        )
    ]
    assert builders == ["_cover_step"], builders


def test_exact_makes_covering_children_in_one_sweep():
    """`count` and the level store make covering children in one sweep,
    `_Search._sweep`, so besides `_Search.cover`, which fixes the covering
    key, it is the only function in `exact` that names what a covering
    child reads: `one_used`, what it adds to the number used, or `nonc`,
    the values whose child covers nothing."""
    found = sorted(
        {
            node.name
            for node in ast.walk(_modules()["exact.py"])
            if isinstance(node, ast.FunctionDef)
            and any(n in ("one_used", "nonc") for inner in ast.walk(node) for n in _names(inner))
        }
    )
    assert "_sweep" in found and set(found) <= {"cover", "_sweep"}, found


def test_exact_works_out_the_covering_limits_once():
    """`_Search._sweep` counts the last step in its step loop, from the
    limits it works out for every step, so `spare`, the covers a cap leaves
    a state, is assigned in one place in `exact`, inside `_sweep`; and the
    kernel keeps one edge table, the key-shifted rows `cover` builds, so no
    function but `cover` names `ebit`."""
    tree = _modules()["exact.py"]
    funcs = [node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)]
    sweep = next(fn for fn in funcs if fn.name == "_sweep")
    spare = [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and node.id == "spare" and isinstance(node.ctx, ast.Store)
    ]
    assert len(spare) == 1 and sweep.lineno <= spare[0] <= sweep.end_lineno, spare
    ebit = {fn.name for fn in funcs if any("ebit" in _names(node) for node in ast.walk(fn))}
    assert ebit <= {"cover"}, ebit


def test_only_exact_kernel_builds_the_kernel_on_an_instance():
    """`exact._kernel` checks that an instance's lists are over the target
    before it builds the kernel, so it is the one call that passes an
    instance's `.domains` to the kernel (`_Search` or `_search`)."""
    found = [
        f"{name} {top.name}"
        for name, tree in _modules().items()
        for top in tree.body
        if isinstance(top, (ast.FunctionDef, ast.ClassDef))
        for node in ast.walk(top)
        if isinstance(node, ast.Call)
        and _names(node.func) in (["_Search"], ["_search"])
        and any(isinstance(arg, ast.Attribute) and arg.attr == "domains" for arg in node.args)
    ]
    assert found == ["exact.py _kernel"], found


def test_exact_reads_no_label_lists():
    """An instance stores its lists once, as domain masks in the kernel's
    layout, and `instances.list_masks` alone turns labels into masks: no
    code in `exact` reads an instance's `.lists` or a graph's label index
    `._index`."""
    found = [
        f"exact.py:{node.lineno} {node.attr}"
        for node in ast.walk(_modules()["exact.py"])
        if isinstance(node, ast.Attribute) and node.attr in ("lists", "_index")
    ]
    assert not found, found


# what `classify` runs on every girth >= 5 component and every looped SAT
# one, and the per-graph accessors `Graph.edges` and `Graph._vertex_set`, by
# module and qualified name
_CLASSIFY_PATH = {
    "classifier.py": {
        "classify",
        "classify_component",
        "_short_cycles",
        "is_irreflexive_star",
        "is_caterpillar",
        "_path_order",
        "is_pbrp",
        "is_single_looped_vertex",
        "is_double_looped_edge",
        "_looped_sat_witnesses",
        "_neighborhood_witnesses",
        "_two_wrench",
    },
    "graphs.py": {"connected_components", "Graph.edges", "Graph._vertex_set", "Graph.edge_count"},
}


def test_classify_path_builds_no_generator():
    """A generator costs a frame per call and a resume per item, the bulk of
    a classification of a small component: no function that `classify` runs
    on every girth >= 5 component builds a generator expression or calls
    `graphs._bits`."""
    found, named = [], set()
    for name, funcs in _CLASSIFY_PATH.items():
        tree = _modules()[name]
        for top in tree.body:
            inner = top.body if isinstance(top, ast.ClassDef) else ()
            for d in (top, *inner):
                if not isinstance(d, ast.FunctionDef):
                    continue
                qual = d.name if d is top else f"{top.name}.{d.name}"
                if qual not in funcs:
                    continue
                named.add((name, qual))
                found += [
                    f"{name}:{node.lineno} {qual}"
                    for node in ast.walk(d)
                    if isinstance(node, ast.GeneratorExp)
                    or isinstance(node, ast.Call) and "_bits" in _names(node.func)
                ]
    assert named == {(name, f) for name, funcs in _CLASSIFY_PATH.items() for f in funcs}
    assert not found, found


def test_classifier_declares_no_dataclass():
    """A frozen dataclass sets each field through `object.__setattr__`, which
    cost more than the rest of a small component's classification: the
    classifier's records are NamedTuples."""
    found = [
        f"classifier.py:{node.lineno}"
        for node in ast.walk(_modules()["classifier.py"])
        if "dataclass" in _names(node)
    ]
    assert not found, found


def test_no_module_imports_a_name_it_never_uses():
    unused = []
    for name, tree in _modules().items():
        if name == "__init__.py":
            continue
        bound = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    bound[(alias.asname or alias.name).split(".")[0]] = node.lineno
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{name}:{line} {n}" for n, line in bound.items() if n not in read]
    assert not unused, unused


def test_a_cached_hash_does_not_travel_in_a_pickle():
    """str hashes are salted per process, so a class that caches its hash in
    a `_hash` slot needs a `__getstate__` that sets it to None in the state
    it returns; else an unpickled copy answers the sender's hash."""
    found = []
    for name, tree in _modules().items():
        for cls in ast.walk(tree):
            if not isinstance(cls, ast.ClassDef):
                continue
            slots = [
                node.value
                for node in cls.body
                if isinstance(node, ast.Assign) and any(_names(t) == ["__slots__"] for t in node.targets)
            ]
            if not any(getattr(c, "value", None) == "_hash" for s in slots for c in ast.walk(s)):
                continue
            # state["_hash"] = None in the class's own __getstate__
            drops = any(
                isinstance(node, ast.Assign)
                and isinstance(node.value, ast.Constant)
                and node.value.value is None
                and any(getattr(getattr(t, "slice", None), "value", None) == "_hash" for t in node.targets)
                for f in cls.body
                if isinstance(f, ast.FunctionDef) and f.name == "__getstate__"
                for node in ast.walk(f)
            )
            if not drops:
                found.append(f"{name}:{cls.lineno} {cls.name}")
    assert not found, found


def test_only_the_checkers_import_reference():
    """`reference` holds the cross-checks the library is tested against: it
    may call the library, but the library must not lean on it.  Only `cli`
    and `verify`, which run the checks, and `approx`, for the perfbench shim
    `coverage_tables`, may import it."""
    allowed = {"cli.py", "verify.py", "approx.py"}
    found = []
    for name, tree in _modules().items():
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)) and name not in allowed:
                names = [getattr(node, "module", None) or "", *(alias.name for alias in node.names)]
                if any(n.split(".")[-1] == "reference" for n in names):
                    found.append(f"{name}:{node.lineno}")
    assert not found, found


def test_library_imports_only_the_standard_library():
    """The package has no runtime dependency: every import in it, typing-only
    ones included, names a standard-library module or the package itself."""
    allowed = sys.stdlib_module_names | {"retraction_lab"}
    found = []
    for name, tree in _modules().items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                modules = [node.module]
            else:
                continue
            found += [f"{name}:{node.lineno} {m}" for m in modules if m.split(".")[0] not in allowed]
    assert not found, found


def test_cli_reads_no_file_itself():
    """`files` reads every input and resolves its target path, so the one
    `open(` in `cli` is the writer's."""
    tree = _modules()["cli.py"]
    opens = [
        getattr(top, "name", None)
        for top in tree.body
        for node in ast.walk(top)
        if isinstance(node, ast.Call) and _names(node.func) == ["open"]
    ]
    assert opens == ["_write"], opens
