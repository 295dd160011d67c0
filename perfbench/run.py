"""Benchmark entry point: one workload, one seed, one run.

    python3 perfbench/run.py --workload br-large --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout.  Each workload run gets fresh
interpreters (``worker.py``): one unmeasured set-up-only worker that
compiles the bytecode into ``perfbench/out/pycache``, then half of
``SETUP_ONLY`` set-up-only workers, the worker that sets up and runs the
timed phase, and the other half.  Each measured worker gives one set-up
sample: the time from starting the interpreter to its ``ready`` line,
divided by the host's slowness that the worker probed right after it.
``setup_s`` is the median of those samples, so the host is sampled on
both sides of the timed phase.

Prints readable lines, then as its last line one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
``measure`` returns the same run's full result, raw timings included,
to ``report.py``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("br-large", "bracket-large", "orbit", "cli-small")
SETUP_ONLY = 10
WORKER_TIMEOUT_S = 150

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "peak_rss_mb": "MB",
}


class BenchError(Exception):
    pass


def _worker(argv: list[str]) -> tuple[float, dict]:
    """Start a worker; return (seconds to its ``ready`` line, its result)."""
    cmd = [sys.executable, str(HERE / "worker.py"), *argv]
    # bytecode is cached, as for an installed package, even where the
    # environment turns the cache off
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0",
               PYTHONPYCACHEPREFIX=str(HERE / "out" / "pycache"))
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    watchdog = threading.Timer(WORKER_TIMEOUT_S, proc.kill)
    watchdog.start()
    ready = None
    last = ""
    try:
        for line in proc.stdout:
            if ready is None and line.strip() == "ready":
                ready = time.perf_counter() - start
            elif line.strip():
                last = line.strip()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()
    if proc.returncode != 0 or ready is None:
        raise BenchError(f"worker {' '.join(argv)} exited with {proc.returncode}")
    try:
        return ready, json.loads(last)
    except json.JSONDecodeError as err:
        raise BenchError(f"worker {' '.join(argv)} printed no result: {err}") from None


def measure(workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One run: the timed worker's result, with ``metrics`` (name to
    value and unit, as the last line prints them) and, untraced, the
    ``setups`` samples and the raw ``setup_s`` added."""
    argv = ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
            "--trace", str(trace)]

    def setup_only(count: int) -> list[tuple[float, dict]]:
        """``count`` set-up-only workers; none when tracing."""
        return [] if trace else [_worker(argv + ["--setup-only"]) for _ in range(count)]

    setup_only(1)  # compiles bytecode; not measured
    workers = setup_only(SETUP_ONLY // 2)
    workers.append(_worker(argv))
    result = workers[-1][1]
    workers += setup_only(SETUP_ONLY - SETUP_ONLY // 2)

    if trace:
        result["metrics"] = {name: {"value": v, "unit": u}
                             for name, (v, u) in result["layers"].items()}
        return result
    result["setups"] = len(workers)
    result["raw"]["setup_s"] = statistics.median(ready for ready, _ in workers)
    result["setup_s"] = statistics.median(ready / out["setup_slow"] for ready, out in workers)
    result["metrics"] = {name: {"value": result[name], "unit": unit}
                         for name, unit in END_TO_END.items()}
    return result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "ribbongraphs" / "__init__.py").is_file():
        print(f"error: no ribbongraphs sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        result = measure(args.workload, args.seed, args.seconds, args.trace)
    except BenchError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1

    metrics = result["metrics"]
    attempted, failed = result["attempted"], result["failed"]
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{attempted} operations over a pool of {result['pool']}")
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    if not args.trace:
        print(f"  (latency samples {result['ops']}; setup samples {result['setups']}; "
              f"timings at nominal host speed, where the probe took "
              f"{result['probe_ms']:.4f} ms: "
              + ", ".join(f"raw {k} {v:.6g}" for k, v in result["raw"].items()) + ")")
    print(f"  failed_ratio = {failed / attempted:.6g} ratio ({failed} of {attempted})")
    print(f"  digests_changed = {result['digests_changed']} count "
          f"(of {result['digests_compared']} reference outputs; diagnostic)")
    for failure in result["failures"]:
        print(f"  FAILED {failure}")
    print(json.dumps({"correct": result["correct"], "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
