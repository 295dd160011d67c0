"""Run every workload and print all metrics with their units and spreads.

    python3 perfbench/report.py                   # seed 1, every workload
    python3 perfbench/report.py --seeds 10 --out perfbench/baseline.json
    python3 perfbench/report.py --write-reference # re-record output digests

For each workload it makes ``--seeds`` untraced runs (seeds 1..N) and one
traced run (seed 1) through ``run.measure``, and prints per end-to-end metric
the median, the quartile spread (q3 - q1) / median with the metric's
bound from ``BENCHMARK.json``, plus ``failed_ratio`` and the traced
run's layer shares and unit costs.  ``--out`` writes the same numbers,
with every run's raw metrics, as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
sys.path.insert(0, str(HERE))

import run  # noqa: E402

# per-layer figures worth a line in the summary
HEADLINE = ("br.us_per_subset", "links.us_per_state", "duality.partial_dual.us_per_call",
            "ribbon.is_isomorphic.hit_ratio", "trace_overhead_ratio")


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    """One run through ``run.measure``, as ``run.py`` makes it."""
    try:
        return run.measure(workload, seed, seconds, trace)
    except run.BenchError as err:
        raise SystemExit(f"{workload} seed {seed} trace {trace}: {err}") from None


def spread(values: list[float]) -> float:
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def write_reference() -> None:
    sys.path.insert(0, str(ROOT / "src"))
    import worker

    digests = {w["name"]: worker.reference_run(w["name"]).digests for w in SPEC["workloads"]}
    (HERE / "reference_digests.json").write_text(json.dumps(digests, indent=1) + "\n")
    print({w: len(d) for w, d in digests.items()})


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", type=int, default=1, help="untraced runs per workload")
    ap.add_argument("--out", type=Path, help="write the results as JSON")
    ap.add_argument("--write-reference", action="store_true")
    args = ap.parse_args(argv)
    if args.write_reference:
        write_reference()
        return 0

    bounds = {m["name"]: m for m in SPEC["end_to_end"]}
    report = {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "run_seconds": SPEC["run_seconds"],
        "seeds": list(range(1, args.seeds + 1)),
        "workloads": {},
    }
    for workload in (w["name"] for w in SPEC["workloads"]):
        runs = [run_once(workload, seed, SPEC["run_seconds"], 0) for seed in report["seeds"]]
        traced = run_once(workload, 1, SPEC["run_seconds"], 1)
        attempted = sum(r["attempted"] for r in runs)
        failed = sum(r["failed"] for r in runs)
        entry = {"attempted": [r["attempted"] for r in runs],
                 "failed_ratio": failed / attempted,
                 "correct": all(r["correct"] for r in runs + [traced]),
                 "metrics": {},
                 "runs": [{"metrics": {k: m["value"] for k, m in r["metrics"].items()},
                           "raw": r["raw"], "probe_ms": r["probe_ms"]} for r in runs],
                 "layers": {k: v["value"] for k, v in traced["metrics"].items()}}
        print(f"{workload}: {len(runs)} runs, operations per run {entry['attempted']}, "
              f"correct={entry['correct']}")
        for name, spec in bounds.items():
            values = [r["metrics"][name]["value"] for r in runs]
            row = {"median": statistics.median(values), "spread": spread(values),
                   "bound": spec["bound"], "unit": spec["unit"]}
            if name in runs[0]["raw"]:
                raw = [r["raw"][name] for r in runs]
                row["raw_median"], row["raw_spread"] = statistics.median(raw), spread(raw)
            entry["metrics"][name] = row
            extra = (f"; raw {row['raw_median']:.4f} spread {row['raw_spread']:.3f}"
                     if "raw_median" in row else "")
            print(f"  {name:12s} {row['median']:10.4f} {spec['unit']:5s} "
                  f"spread {row['spread']:.3f} (bound {spec['bound']}){extra}")
        print(f"  {'failed_ratio':12s} {entry['failed_ratio']:10.4f} ratio ({failed} of {attempted})")
        layers = entry["layers"]
        shares = sorted(((v, k) for k, v in layers.items() if k.endswith(".self_share")), reverse=True)
        print("  self-time shares: " + ", ".join(f"{k.split('.')[0]} {v:.3f}" for v, k in shares if v))
        print("  " + ", ".join(f"{k} {layers[k]:.4g}" for k in HEADLINE))
        report["workloads"][workload] = entry
    if args.out:
        args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
