"""Self-check of the harness at tiny sizes; runs in seconds.

    python3 perfbench/selfcheck.py

Asserts that:

* every workload's operations pass their checks at tiny sizes;
* a deliberately wrong output, and an operation that raises, each
  count as one failed operation in the worker's result, so they reach
  ``failed_ratio``;
* the tracer counts internal calls through every rebinding and puts
  every binding back when removed;
* ``run.py`` prints every end-to-end metric (``--trace 0``) and every
  per-layer metric (``--trace 1``) named in ``BENCHMARK.json``, each
  with its unit, in a last line with exactly the agreed keys.
"""

from __future__ import annotations

import contextlib
import io
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import spans  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from ribbongraphs import br, ribbon  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def tiny(x: int) -> int:
    return 3


def tiny_pool(workload: str) -> list:
    return workloads.pool(workload, 1, scale=tiny)[:40]


def check_ops_pass() -> None:
    for workload in WORKLOADS:
        phase = worker.Phase()
        for op in tiny_pool(workload):
            phase.run(op)
        assert not phase.failures, (workload, phase.failures[:3])


def _corrupt(op):
    """The same operation, with an output that breaks its check."""
    def wrong():
        out = op.call()
        if isinstance(out, tuple) and len(out) == 2:  # (exit code, stdout)
            return out[0], out[1] + "garbage\n"
        if hasattr(out, "terms"):  # Laurent: add a constant term
            return out + 1
        return out[:-1]  # dual_orbit classes: drop one
    return op._replace(call=wrong)


def _raising(op):
    def boom():
        raise RuntimeError("injected")
    return op._replace(call=boom)


def _worker_result(workload: str, ops: list) -> dict:
    """The worker's result line for a run over ``ops`` instead of its pool."""
    real_pool = workloads.pool
    workloads.pool = lambda name, seed, scale=None: ops
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out):
            worker.main(["--workload", workload, "--seed", "1", "--seconds", "0.3"])
    finally:
        workloads.pool = real_pool
    return json.loads(out.getvalue().strip().splitlines()[-1])


def check_faults_counted() -> None:
    for workload in WORKLOADS:
        ops = tiny_pool(workload)[:8]
        # odd positions fail: wrong output at 1 and 5, an exception at 3 and 7
        bad = [_corrupt(op) if i % 4 == 1 else _raising(op) if i % 4 == 3 else op
               for i, op in enumerate(ops)]
        result = _worker_result(workload, bad)
        n = result["attempted"]
        assert n >= 2 and result["failed"] == n // 2 and not result["correct"], result
        assert _worker_result(workload, ops)["failed"] == 0


def check_tracer() -> None:
    original = ribbon.stats
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert br.stats is not original and ribbon.stats is not original
        for op in tiny_pool("br-large")[:4]:
            tracer.span(op.call)
    finally:
        tracer.remove()
    assert br.stats is original and ribbon.stats is original
    summary = tracer.summary()
    # duality_invariant calls stats and bollobas_riordan from inside br
    assert summary["ribbon.stats"]["calls"] >= 2, summary
    assert summary["br.bollobas_riordan"]["calls"] == 4, summary
    assert summary["br.bollobas_riordan"]["count"] == 4 * 2 ** 3, summary


def check_printed_metrics() -> None:
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", "cli-small",
             "--seed", "1", "--seconds", "1", "--trace", str(trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}, result
        assert result["correct"] and result["attempted"] >= 1, result
        want = {m["name"]: m["unit"] for m in SPEC[key]}
        got = {name: m["unit"] for name, m in result["metrics"].items()}
        assert got == want, set(got) ^ set(want)
        for name, m in result["metrics"].items():
            assert set(m) == {"value", "unit"} and isinstance(m["value"], (int, float))
            assert any(line.strip() == f"{name} = {m['value']:.6g} {m['unit']}"
                       for line in lines), name
        assert any(line.strip().startswith("failed_ratio = ") for line in lines)


def main() -> int:
    for check in (check_ops_pass, check_faults_counted, check_tracer, check_printed_metrics):
        check()
        print(f"ok {check.__name__}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
