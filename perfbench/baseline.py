#!/usr/bin/env python3
"""Measure the baseline and write perfbench/BASELINE.json.

    python3 perfbench/baseline.py

For every workload in BENCHMARK.json: ten end-to-end runs, seeds 1 to 10,
summarised as median and quartile spread (the spread the regression bounds
are checked against), then one traced run for the per-layer numbers.  The
timed metrics are summarised twice, as reported and without calibration
(`uncalibrated`), to show what calibrate.py buys.  The file also records the
machine, the interpreter and the per-layer -> end-to-end map.  The whole
file is rewritten on every run.
"""
from __future__ import annotations

import json
import os
import platform
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, ROOT)

from perfbench.run import PASS_SECONDS, UNCALIBRATED  # noqa: E402
from perfbench.trace import MOVES  # noqa: E402

SEEDS = range(1, 11)

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)


def _run(workload: str, seed: int, trace: int) -> tuple[dict, dict]:
    """The run's result and its uncalibrated latency metrics (end-to-end runs)."""
    cmd = [
        sys.executable, os.path.join(ROOT, "perfbench", "run.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(SPEC["run_seconds"]), "--trace", str(trace),
    ]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} failed:\n{proc.stdout[-2000:]}{proc.stderr[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    raw = [json.loads(ln[len(UNCALIBRATED):]) for ln in lines if ln.startswith(UNCALIBRATED)]
    return json.loads(lines[-1]), (raw[0] if raw else {})


def _summary(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "iqr_share": (q3 - q1) / med if med else 0.0}


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _machine() -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "cpu": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "setting": "one process per pass, passes run one at a time, no threads; "
        "RETRACTION_LAB_THREADS unset; BLAS/OpenMP threads 1; PYTHONHASHSEED = seed",
    }


def main() -> int:
    out = {
        "machine": _machine(),
        "run_seconds": SPEC["run_seconds"],
        "seeds": list(SEEDS),
        "workloads": {},
        "per_layer_map": MOVES,
    }
    for w in SPEC["workloads"]:
        workload = w["name"]
        runs, raws = zip(*(_run(workload, seed, 0) for seed in SEEDS))
        for seed, r, raw in zip(SEEDS, runs, raws):
            line = " ".join(f"{k}={m['value']:.4g}" for k, m in r["metrics"].items())
            line += "; uncalibrated " + " ".join(f"{k}={v:.4g}" for k, v in raw.items())
            print(f"{workload} seed {seed}: {line}", flush=True)
        traced, _ = _run(workload, SEEDS[0], 1)
        out["workloads"][workload] = {
            "why": w["why"],
            "pass_seconds": PASS_SECONDS[workload],
            "attempted": runs[0]["attempted"],
            "failed": sum(r["failed"] for r in runs),
            "end_to_end": {
                m["name"]: {"unit": m["unit"], "bound": m["bound"],
                            **_summary([r["metrics"][m["name"]]["value"] for r in runs])}
                for m in SPEC["end_to_end"]
            },
            "uncalibrated": {name: _summary([raw[name] for raw in raws]) for name in raws[0]},
            "per_layer": {name: m["value"] for name, m in traced["metrics"].items()},
        }
    with open(os.path.join(ROOT, "perfbench", "BASELINE.json"), "w", encoding="utf-8") as fh:
        json.dump(out, fh, indent=2)
        fh.write("\n")
    for workload, w in out["workloads"].items():
        spreads = " ".join(f"{n}={e['iqr_share']:.3f}" for n, e in w["end_to_end"].items())
        raw = " ".join(f"{n}={e['iqr_share']:.3f}" for n, e in w["uncalibrated"].items())
        print(f"{workload}: iqr/median {spreads}; uncalibrated {raw}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
