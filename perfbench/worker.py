"""One pass of one workload in a fresh interpreter.

Run by `perfbench/run.py` as `python -m perfbench.worker ...` from the
checkout root.  It sets up (imports, fixtures, corpus), runs the op list
timed with the calibration kernel between ops (see calibrate.py), optionally
runs the correctness gate untimed, and prints one JSON line.
`--t0` is the parent's monotonic clock just before it started this process,
so set-up time counts from interpreter start.
"""
import argparse
import hashlib
import json
import os
import resource
import sys
import time


def _gate(ops, groups, outputs, raised):
    """Indices of failed ops: raised, failed their own check, or belong to a
    group whose joint check failed."""
    bad = {i for i, r in enumerate(raised) if r}
    for i, op in enumerate(ops):
        if i in bad:
            continue
        try:
            ok = op.check(outputs[i])
        except Exception as exc:  # a crashing check is a failed op, not a crashed gate
            print(f"check of op {i} ({op.kind}) raised {exc!r}", file=sys.stderr)
            ok = False
        if not ok:
            bad.add(i)
    for idx, check in groups:
        try:
            ok = not any(i in bad for i in idx) and check([outputs[i] for i in idx])
        except Exception as exc:
            print(f"group check raised {exc!r}", file=sys.stderr)
            ok = False
        if not ok:
            bad.update(idx)
    for i in sorted(bad)[:5]:
        print(f"failed op {i} ({ops[i].kind}): {outputs[i]!r:.200}", file=sys.stderr)
    return sorted(bad)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--t0", type=int, required=True)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--gate", action="store_true")
    parser.add_argument("--trace-dump", default=None)
    args = parser.parse_args(argv)

    import numpy  # noqa: F401  (part of set-up, as for a CLI user)

    tracer = None
    if args.trace_dump:
        from perfbench.trace import Tracer

        tracer = Tracer()
        tracer.install()
    from perfbench import corpus, workloads

    fx = corpus.load_fixtures(os.getcwd())
    ops, groups = workloads.build(args.workload, args.seed, fx, args.smoke)
    setup_s = (time.monotonic_ns() - args.t0) / 1e9
    from perfbench.calibrate import Calibrator

    calibrator = Calibrator()
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s, "setup_slowdown": calibrator.setup_slowdown()}))
        return 0

    n = len(ops)
    outputs = [None] * n
    raised = [False] * n
    lat_ns = [0] * n
    clock = time.perf_counter_ns
    for i, op in enumerate(ops):
        t0 = clock()
        try:
            outputs[i] = tracer.span("op", op.kind, op.fn) if tracer else op.fn()
        except Exception as exc:  # an op that raises is counted as failed
            outputs[i] = exc
            raised[i] = True
        lat_ns[i] = clock() - t0
        calibrator.pay(lat_ns[i])
    wall_s = sum(lat_ns) / 1e9
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    result = {
        "setup_s": setup_s,
        "setup_slowdown": calibrator.setup_slowdown(),
        "wall_s": wall_s,
        "lat_ns": lat_ns,
        "slowdown": calibrator.slowdowns(),
        "peak_rss_mb": peak_rss_mb,
        "digests": [hashlib.sha256(repr(o).encode()).hexdigest()[:16] for o in outputs],
    }
    if tracer is not None:
        tracer.uninstall()
        result["layers"] = tracer.metrics()
        tracer.dump(args.trace_dump, {"workload": args.workload, "seed": args.seed, "wall_s": wall_s})
    if args.gate:
        result["failed"] = _gate(ops, groups, outputs, raised)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
