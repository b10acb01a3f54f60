"""Spans around the library's public entry points, recorded from outside.

`Tracer.install()` replaces each entry point named in `LAYERS` with a timing
wrapper, in every loaded `retraction_lab` module that holds it (so aliases
such as `approx.count_list_hom` are covered too).  A span is
(layer, function, start, end, parent); a layer's self time is its span time
minus the time of its child spans, so nested calls are never counted twice.
Aggregates are kept for every span; the dump keeps the first `MAX_DUMPED`.
"""
from __future__ import annotations

import importlib
import json
import sys
import time
from collections import defaultdict

MAX_DUMPED = 50_000

# layer -> entry points, as (module, attribute) or (module, Class.method)
LAYERS = {
    "exact.count_list_hom": [
        ("exact", "count_list_hom"), ("exact", "count_retraction"), ("exact", "count_hom"),
    ],
    "exact.covering": [("exact", "count_surjective"), ("exact", "count_compaction")],
    "exact.enumerate_homs": [("exact", "enumerate_homs")],
    "exact.count_blocked": [("exact", "count_blocked")],
    "approx.enumerate_T": [("approx", "enumerate_T")],
    "approx.powered_count": [("approx", "powered_count")],
    "approx.oracle": [("approx", "ExactOracle.count")],
    "approx.coverage_tables": [("approx", "coverage_tables")],
    "approx.coverage_mc": [("approx", "coverage_mc")],
    "approx.sample_hom": [("approx", "sample_hom")],
    "instances.pin": [("instances", "ListedInstance.pin")],
    "csp.translate": [("csp", "translate_ret_to_csp"), ("csp", "translate_dirret_to_csp")],
    "csp.count_csp": [("csp", "count_csp")],
    "csp.count_dir_list_hom": [("csp", "count_dir_list_hom")],
    "classifier.classify": [("classifier", "classify")],
    "gadgets.cut": [
        ("gadgets", "build_cut_instance"), ("gadgets", "cut_accounting"),
        ("gadgets", "estimate_multiterminal_cuts"),
    ],
    "gadgets.full_hom_histogram": [("gadgets", "full_hom_histogram")],
    "gadgets.dirichlet_approx": [("gadgets", "dirichlet_approx"), ("gadgets", "dirichlet_for_error")],
    "homtypes.brute_count_by_type": [("homtypes", "brute_count_by_type")],
    "homtypes.dominance_report": [("homtypes", "dominance_report")],
    "files.parse": [
        ("files", "parse_graph"), ("files", "parse_instance"),
        ("files", "parse_blocked"), ("files", "parse_csp"),
    ],
}
GENERATORS = {"exact.enumerate_homs"}

# per-layer metric -> {workload: end-to-end metrics it should move there}.
# Names and units live in BENCHMARK.json; the smoke run checks that each
# metric reads non-zero on every workload named here.
_EST, _SAM, _CNT, _RED = "estimate", "sample", "count", "reduce"
MOVES = {
    **dict.fromkeys(
        ("exact.count_list_hom.s", "exact.count_list_hom.calls"),
        {_CNT: ("wall_s", "op_tail_ms"), _SAM: ("op_p50_ms",)},
    ),
    **dict.fromkeys(("exact.covering.s", "exact.covering.calls"), {_CNT: ("wall_s",)}),
    **dict.fromkeys(
        ("exact.enumerate_homs.s", "exact.enumerate_homs.homs"),
        {_EST: ("op_tail_ms",), _RED: ("op_tail_ms",)},
    ),
    **dict.fromkeys(("exact.count_blocked.s", "exact.count_blocked.calls"), {_RED: ("wall_s",)}),
    **dict.fromkeys(("approx.enumerate_T.s", "approx.enumerate_T.witnesses"), {_EST: ("wall_s",)}),
    **dict.fromkeys(
        ("approx.powered_count.s", "approx.powered_count.calls"),
        {_EST: ("wall_s",), _SAM: ("wall_s",)},
    ),
    **dict.fromkeys(
        ("approx.oracle.s", "approx.oracle.calls", "approx.oracle.hit_ratio"),
        {_EST: ("wall_s",), _SAM: ("op_p50_ms",)},
    ),
    **dict.fromkeys(
        ("approx.coverage_tables.s", "approx.coverage_tables.homs"), {_EST: ("op_tail_ms",)},
    ),
    **dict.fromkeys(
        ("approx.coverage_mc.self_s", "approx.coverage_mc.draws", "approx.coverage_mc.draws_per_s"),
        {_EST: ("wall_s", "op_tail_ms")},
    ),
    **dict.fromkeys(
        ("approx.sample_hom.s", "approx.sample_hom.samples", "approx.sample_hom.oracle_calls_per_sample"),
        {_SAM: ("wall_s", "op_p50_ms")},
    ),
    "approx.jvv.draws": {_SAM: ("op_tail_ms",)},
    **dict.fromkeys(
        ("instances.pin.s", "instances.pin.calls"), {_SAM: ("op_p50_ms",), _EST: ("wall_s",)},
    ),
    **dict.fromkeys(
        ("csp.translate.s", "csp.count_csp.s", "csp.count_csp.calls", "csp.count_dir_list_hom.s"),
        {_RED: ("wall_s",)},
    ),
    **dict.fromkeys(("classifier.classify.s", "classifier.classify.calls"), {_RED: ("op_p50_ms",)}),
    **dict.fromkeys(
        ("gadgets.cut.s", "gadgets.full_hom_histogram.s", "gadgets.dirichlet_approx.s"),
        {_RED: ("wall_s",)},
    ),
    **dict.fromkeys(
        ("homtypes.brute_count_by_type.s", "homtypes.dominance_report.s"),
        {_RED: ("op_tail_ms", "wall_s")},
    ),
    "files.parse.s": {w: ("setup_s",) for w in (_EST, _SAM, _CNT, _RED)},
    "trace.overhead_frac": {},
}


class _Frame:
    __slots__ = ("span", "layer", "start", "end", "child_ns", "inner")

    def __init__(self, span, layer, start):
        self.span = span
        self.layer = layer
        self.start = start
        self.end = 0
        self.child_ns = 0
        self.inner = defaultdict(int)  # events of nested layers, by name


class Tracer:
    def __init__(self):
        self.stack: list[_Frame] = []
        self.spans: list[tuple] = []
        self.dropped = 0
        self.self_ns = defaultdict(int)
        self.entries = defaultdict(int)  # outermost spans of each layer
        self.counts = defaultdict(int)  # named work counters
        self._undo = []

    # -- span bookkeeping ---------------------------------------------------

    def _record(self, layer, name, start, end, parent, extra=None):
        if len(self.spans) < MAX_DUMPED:
            self.spans.append((layer, name, start, end, parent, extra))
        else:
            self.dropped += 1

    def _open(self, layer, name):
        parent = self.stack[-1].span if self.stack else -1
        span = len(self.spans) + self.dropped
        frame = _Frame(span, layer, time.perf_counter_ns())
        if all(f.layer != layer for f in self.stack):
            self.entries[layer] += 1
        self.stack.append(frame)
        self._record(layer, name, frame.start, 0, parent)
        return frame

    def _close(self, frame, name):
        end = frame.end = time.perf_counter_ns()
        self.stack.pop()
        dur = end - frame.start
        self.self_ns[frame.layer] += dur - frame.child_ns
        if frame.span < len(self.spans):
            layer, _, start, _, parent, _ = self.spans[frame.span]
            self.spans[frame.span] = (layer, name, start, end, parent, None)
        if self.stack:
            outer = self.stack[-1]
            outer.child_ns += dur
            outer.inner[frame.layer] += 1
            for key, n in frame.inner.items():
                outer.inner[key] += n

    def span(self, layer, name, fn, *args, **kwargs):
        """Run fn inside a span of `layer` (used for the workload's ops)."""
        frame = self._open(layer, name)
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(frame, name)

    # -- wrappers -------------------------------------------------------------

    def _wrap(self, layer, name, fn):
        tracer = self
        observe = _OBSERVERS.get(layer)

        def wrapper(*args, **kwargs):
            frame = tracer._open(layer, name)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer._close(frame, name)
            if observe is not None:
                observe(tracer, frame, args, kwargs, out)
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    def _wrap_generator(self, layer, name, fn):
        tracer = self

        def iterate(gen):
            """Time only the generator's own steps, so the consumer's work
            between items stays in the consumer's span."""
            busy = first = last = n = 0
            parent = tracer.stack[-1].span if tracer.stack else -1
            try:
                while True:
                    t0 = time.perf_counter_ns()
                    try:
                        item = next(gen)
                    except StopIteration:
                        item = _DONE
                    t1 = time.perf_counter_ns()
                    first = first or t0
                    last = t1
                    busy += t1 - t0
                    tracer.self_ns[layer] += t1 - t0
                    if tracer.stack:
                        tracer.stack[-1].child_ns += t1 - t0
                    if item is _DONE:
                        return
                    n += 1
                    tracer.counts[layer + ".homs"] += 1
                    if tracer.stack:
                        tracer.stack[-1].inner[layer + ".homs"] += 1
                    yield item
            finally:
                tracer._record(layer, name, first, last, parent, {"busy_ns": busy, "items": n})

        def wrapper(*args, **kwargs):
            gen = fn(*args, **kwargs)
            tracer.entries[layer] += 1
            return iterate(gen)

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self):
        """Wrap every entry point in LAYERS; raise if one is missing, so a
        renamed or moved function cannot leave its layer silently at 0."""
        for modname in {m for entries in LAYERS.values() for m, _ in entries}:
            importlib.import_module(f"retraction_lab.{modname}")
        modules = [
            m for k, m in sys.modules.items()
            if k == "retraction_lab" or k.startswith("retraction_lab.")
        ]
        for layer, entries in LAYERS.items():
            for modname, attr in entries:
                module = sys.modules[f"retraction_lab.{modname}"]
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    cls = getattr(module, cls_name, None)
                    orig = getattr(cls, meth, None)
                    if orig is None:
                        raise LookupError(f"trace: retraction_lab.{modname}.{attr} not found")
                    # restore the class's own attribute, or drop the wrapper
                    # when the method is inherited
                    self._undo.append((cls, meth, vars(cls).get(meth, _INHERITED)))
                    setattr(cls, meth, self._wrap(layer, attr, orig))
                    continue
                orig = getattr(module, attr, None)
                if orig is None:
                    raise LookupError(f"trace: retraction_lab.{modname}.{attr} not found")
                make = self._wrap_generator if layer in GENERATORS else self._wrap
                wrapped = make(layer, f"{modname}.{attr}", orig)
                for m in modules:
                    for name, value in list(vars(m).items()):
                        if value is orig:
                            setattr(m, name, wrapped)
                            self._undo.append((m, name, orig))
        self._install_dispatch()

    def _install_dispatch(self):
        """`exact.count` belongs to the covering layer for sur/comp and to the
        list-homomorphism layer otherwise."""
        from retraction_lab import exact

        orig = exact.count
        counting = self._wrap("exact.count_list_hom", "exact.count", orig)
        covering = self._wrap("exact.covering", "exact.count", orig)

        def count(inst, target, mode, *args, **kwargs):
            fn = covering if mode in ("sur", "comp") else counting
            return fn(inst, target, mode, *args, **kwargs)

        exact.count = count
        self._undo.append((exact, "count", orig))

    def uninstall(self):
        for owner, name, orig in reversed(self._undo):
            if orig is _INHERITED:
                delattr(owner, name)
            else:
                setattr(owner, name, orig)
        self._undo.clear()

    # -- results --------------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """Every per-layer metric except `trace.overhead_frac`, which needs an
        untraced pass to compare with."""
        s = lambda layer: self.self_ns[layer] / 1e9  # noqa: E731
        c = self.counts
        e = self.entries
        draws_self = c["approx.coverage_mc.collapsed_self_ns"] / 1e9
        samples = c["approx.sample_hom.samples"]
        out = {
            "exact.count_list_hom.s": s("exact.count_list_hom"),
            "exact.count_list_hom.calls": e["exact.count_list_hom"],
            "exact.covering.s": s("exact.covering"),
            "exact.covering.calls": e["exact.covering"],
            "exact.enumerate_homs.s": s("exact.enumerate_homs"),
            "exact.enumerate_homs.homs": c["exact.enumerate_homs.homs"],
            "exact.count_blocked.s": s("exact.count_blocked"),
            "exact.count_blocked.calls": e["exact.count_blocked"],
            "approx.enumerate_T.s": s("approx.enumerate_T"),
            "approx.enumerate_T.witnesses": c["approx.enumerate_T.witnesses"],
            "approx.powered_count.s": s("approx.powered_count"),
            "approx.powered_count.calls": e["approx.powered_count"],
            "approx.oracle.s": s("approx.oracle"),
            "approx.oracle.calls": c["approx.oracle.calls"],
            "approx.oracle.hit_ratio": (
                c["approx.oracle.hits"] / c["approx.oracle.calls"] if c["approx.oracle.calls"] else 0.0
            ),
            "approx.coverage_tables.s": s("approx.coverage_tables"),
            "approx.coverage_tables.homs": c["approx.coverage_tables.homs"],
            "approx.coverage_mc.self_s": s("approx.coverage_mc"),
            "approx.coverage_mc.draws": c["approx.coverage_mc.draws"],
            "approx.coverage_mc.draws_per_s": (
                c["approx.coverage_mc.draws"] / draws_self if draws_self else 0.0
            ),
            "approx.sample_hom.s": s("approx.sample_hom"),
            "approx.sample_hom.samples": samples,
            "approx.sample_hom.oracle_calls_per_sample": (
                c["approx.sample_hom.oracle_calls"] / samples if samples else 0.0
            ),
            "approx.jvv.draws": c["approx.jvv.draws"],
            "instances.pin.s": s("instances.pin"),
            "instances.pin.calls": e["instances.pin"],
            "csp.translate.s": s("csp.translate"),
            "csp.count_csp.s": s("csp.count_csp"),
            "csp.count_csp.calls": e["csp.count_csp"],
            "csp.count_dir_list_hom.s": s("csp.count_dir_list_hom"),
            "classifier.classify.s": s("classifier.classify"),
            "classifier.classify.calls": e["classifier.classify"],
            "gadgets.cut.s": s("gadgets.cut"),
            "gadgets.full_hom_histogram.s": s("gadgets.full_hom_histogram"),
            "gadgets.dirichlet_approx.s": s("gadgets.dirichlet_approx"),
            "homtypes.brute_count_by_type.s": s("homtypes.brute_count_by_type"),
            "homtypes.dominance_report.s": s("homtypes.dominance_report"),
            "files.parse.s": s("files.parse"),
        }
        return out

    def dump(self, path: str, meta: dict) -> None:
        fields = ("layer", "name", "start_ns", "end_ns", "parent", "extra")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "meta": meta,
                    "fields": fields,
                    "dropped": self.dropped,
                    "spans": self.spans,
                },
                fh,
            )


_DONE = object()
_INHERITED = object()


# -- per-layer work counters, read from each call's result and nested spans --


def _observe_oracle(tracer, frame, args, kwargs, out):
    tracer.counts["approx.oracle.calls"] += 1
    # a call answered without entering the exact counter came from the cache
    if not frame.inner.get("exact.count_list_hom"):
        tracer.counts["approx.oracle.hits"] += 1


def _observe_enumerate_T(tracer, frame, args, kwargs, out):
    tracer.counts["approx.enumerate_T.witnesses"] += len(out)


def _observe_tables(tracer, frame, args, kwargs, out):
    tracer.counts["approx.coverage_tables.homs"] += frame.inner.get("exact.enumerate_homs.homs", 0)


def _observe_coverage(tracer, frame, args, kwargs, out):
    if out.sampler == "jvv":
        tracer.counts["approx.jvv.draws"] += out.m
    elif out.sampler != "none":
        tracer.counts["approx.coverage_mc.draws"] += out.m
        self_ns = frame.end - frame.start - frame.child_ns
        tracer.counts["approx.coverage_mc.collapsed_self_ns"] += self_ns


def _observe_sample(tracer, frame, args, kwargs, out):
    tracer.counts["approx.sample_hom.samples"] += 1
    tracer.counts["approx.sample_hom.oracle_calls"] += frame.inner.get("approx.oracle", 0)


_OBSERVERS = {
    "approx.oracle": _observe_oracle,
    "approx.enumerate_T": _observe_enumerate_T,
    "approx.coverage_tables": _observe_tables,
    "approx.coverage_mc": _observe_coverage,
    "approx.sample_hom": _observe_sample,
}
