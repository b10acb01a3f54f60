#!/usr/bin/env python3
"""The repository benchmark: one workload, one seed, end-to-end or per-layer.

    python3 perfbench/run.py --workload estimate --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --smoke        # every workload at a tiny size

Run from the root of a checkout.  Every pass of the workload runs in a fresh
interpreter, one at a time, with RETRACTION_LAB_THREADS unset, so module
caches start empty as they do for a command-line user.  `--seconds` sets the
number of passes (see PASS_SECONDS); the op list itself depends only on
the workload and the seed.  Every latency and set-up time is divided by the
machine's slowdown measured next to it (see calibrate.py); each op's latency
is the median over the passes, and `wall_s` is the sum of those.  Set-up is
timed in every pass and in three set-up-only runs, and the median is
reported.

Workload names and metric names and units come from BENCHMARK.json.

`--trace 0` prints the end-to-end metrics.  `--trace 1` runs one untimed-gate
pass and one traced pass and prints the per-layer metrics; the span dump goes
to .perfbench_out/.  The last line of standard output is one JSON object; the
exit code is 1 if any op failed its correctness check.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, ROOT)

from perfbench.trace import MOVES  # noqa: E402

# a run of --seconds S makes round(S / PASS_SECONDS) passes, at least two; on
# the baseline machine a pass of estimate takes about 12 s, the others 1.5-3 s
PASS_SECONDS = {"estimate": 5.0, "sample": 5.0, "count": 3.0, "reduce": 2.5}
SETUP_PROBES = 3
UNCALIBRATED = "# uncalibrated "
DEADLINE_S = 170
OUT_DIR = ".perfbench_out"


def _env(seed: int) -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if k != "RETRACTION_LAB_THREADS"}
    env["PYTHONPATH"] = os.pathsep.join((os.path.join(ROOT, "src"), ROOT))
    env["PYTHONHASHSEED"] = str(seed % 2**32)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


class PassFailed(RuntimeError):
    pass


def _pass(args, deadline, *flags) -> dict:
    cmd = [
        sys.executable, "-m", "perfbench.worker",
        "--workload", args.workload, "--seed", str(args.seed),
        *(["--smoke"] if args.tiny else []), *flags,
    ]
    left = deadline - time.monotonic()
    if left <= 0:
        raise PassFailed("out of time before the next pass")
    t0 = time.monotonic_ns()
    proc = subprocess.run(
        cmd + ["--t0", str(t0)], cwd=ROOT, env=_env(args.seed),
        capture_output=True, text=True, timeout=left,
    )
    if proc.stderr:
        sys.stderr.write(proc.stderr)
    if proc.returncode != 0 or not proc.stdout.strip():
        raise PassFailed(f"pass {' '.join(flags) or '(timed)'} exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _tail_rank(n_ops: int) -> int:
    """Rank, from the fastest at 0, of the highest percentile with at least
    ten ops beyond it."""
    return max(0, n_ops - 11)


def _spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _lat_ms(p: dict, calibrated: bool = True) -> list[float]:
    """One pass's op latencies, divided by each op's slowdown when `calibrated`."""
    if not calibrated:
        return [ns / 1e6 for ns in p["lat_ns"]]
    return [ns / s / 1e6 for ns, s in zip(p["lat_ns"], p["slowdown"])]


def _setup_s(p: dict, calibrated: bool = True) -> float:
    return p["setup_s"] / (p["setup_slowdown"] if calibrated else 1.0)


def _timings(passes: list[dict], probes: list[dict], calibrated: bool = True) -> dict[str, float]:
    """The timed end-to-end metrics; per op, the median over the passes."""
    lat_ms = [statistics.median(col) for col in zip(*(_lat_ms(p, calibrated) for p in passes))]
    return {
        "wall_s": sum(lat_ms) / 1e3,
        "op_p50_ms": statistics.median(lat_ms),
        "op_tail_ms": sorted(lat_ms)[_tail_rank(len(lat_ms))],
        "setup_s": statistics.median([_setup_s(p, calibrated) for p in passes + probes]),
    }


def _failures(passes: list[dict]) -> set[int]:
    """Ops that failed the gate, plus ops whose output differs between passes
    of the same seed."""
    bad = set(passes[0].get("failed", []))
    first = passes[0]["digests"]
    for p in passes[1:]:
        bad.update(i for i, (a, b) in enumerate(zip(first, p["digests"])) if a != b)
    return bad


def end_to_end(args, deadline) -> tuple[dict, set[int], int]:
    n_passes = 1 if args.tiny else max(2, round(args.seconds / PASS_SECONDS[args.workload]))
    passes = [_pass(args, deadline, *(["--gate"] if k == 0 else [])) for k in range(n_passes)]
    probes = [_pass(args, deadline, "--setup-only") for _ in range(0 if args.tiny else SETUP_PROBES)]
    values = {
        **_timings(passes, probes),
        "peak_rss_mb": statistics.median([p["peak_rss_mb"] for p in passes]),
    }
    walls = " ".join(f"{p['wall_s']:.3f}/{sum(_lat_ms(p)) / 1e3:.3f}" for p in passes)
    n_ops = len(passes[0]["lat_ns"])
    print(f"# passes: {len(passes)}; wall_s per pass, raw/calibrated: {walls}")
    pct = 100 * (_tail_rank(n_ops) + 1) / n_ops
    print(f"# op_tail_ms is p{pct:.2f} of {n_ops} ops (per-op median of {len(passes)} passes)")
    # the same timings without calibration, for BASELINE.json's record
    print(UNCALIBRATED + json.dumps(_timings(passes, probes, calibrated=False)))
    return values, _failures(passes), n_ops


def per_layer(args, deadline) -> tuple[dict, set[int], int]:
    os.makedirs(os.path.join(ROOT, OUT_DIR), exist_ok=True)
    dump = os.path.join(ROOT, OUT_DIR, f"spans-{args.workload}-{args.seed}.json")
    plain = _pass(args, deadline, "--gate")
    traced = _pass(args, deadline, "--trace-dump", dump)
    values = dict(traced["layers"])
    values["trace.overhead_frac"] = sum(_lat_ms(traced)) / sum(_lat_ms(plain)) - 1
    print(f"# traced wall_s {traced['wall_s']:.3f}, untraced wall_s {plain['wall_s']:.3f}")
    print(f"# span dump: {os.path.relpath(dump, ROOT)}")
    return values, _failures([plain, traced]), len(plain["lat_ns"])


def run(args) -> int:
    deadline = time.monotonic() + DEADLINE_S
    spec = _spec()
    if args.trace:
        values, bad, attempted = per_layer(args, deadline)
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    else:
        values, bad, attempted = end_to_end(args, deadline)
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    if set(values) != set(units):
        raise PassFailed(f"metrics differ from BENCHMARK.json: {sorted(set(values) ^ set(units))}")
    for name, unit in units.items():
        print(f"{name} {values[name]:.6g} {unit}")
    fail_frac = len(bad) / attempted
    print(f"fail_frac {fail_frac:.6g} ratio ({len(bad)} of {attempted} ops failed)")
    result = {
        "correct": not bad,
        "attempted": attempted,
        "failed": len(bad),
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0 if not bad else 1


def smoke() -> int:
    """Every workload at a tiny size, traced and untraced: each metric is
    present with its unit, no op fails, and every per-layer metric that
    trace.MOVES ties to the workload reads non-zero."""
    spec = _spec()
    ok = True
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            cmd = [sys.executable, os.path.abspath(__file__), "--workload", workload,
                   "--seed", "1", "--seconds", "1", "--trace", str(trace), "--tiny"]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=DEADLINE_S)
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if lines else {}
            metrics = result.get("metrics", {})
            want = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
            got = {n: m.get("unit") for n, m in metrics.items()}
            zero = [
                n for n, moves in MOVES.items()
                if trace and workload in moves and not metrics.get(n, {}).get("value")
            ]
            mapped = not trace or set(MOVES) == set(want)
            good = (
                proc.returncode == 0 and got == want and result.get("failed") == 0
                and not zero and mapped
            )
            ok &= good
            print(f"{workload} trace={trace}: {'ok' if good else 'FAIL'}"
                  + (f" (zero: {', '.join(zero)})" if zero else ""))
            if not good:
                sys.stderr.write(proc.stdout[-2000:] + proc.stderr[-2000:])
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="run every workload at a tiny size")
    parser.add_argument("--tiny", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "retraction_lab", "__init__.py")) or not (
        os.path.isdir(os.path.join(ROOT, "fixtures"))
    ):
        print(f"perfbench: {ROOT} is not a retraction-lab checkout (no src/ or fixtures/)", file=sys.stderr)
        return 2
    if args.smoke:
        return smoke()
    workloads = [w["name"] for w in _spec()["workloads"]]
    if args.workload not in workloads:
        parser.error(f"--workload must be one of {', '.join(workloads)}")
    try:
        return run(args)
    except (PassFailed, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
