"""One workload run in a fresh interpreter; started by ``run.py``.

Prints ``ready`` once set-up (imports, input generation and parsing, the
warm-up pass) is done, then times the speed probe for that set-up and,
unless ``--setup-only``, runs the timed phase as a closed loop with a
single caller.  Its last line is one JSON object.

With ``--trace 0`` the timed phase runs untraced for ``--seconds``.
With ``--trace 1`` it runs every operation twice in a row, untraced and
then traced, for ``--seconds`` in all.  Per-layer numbers come from the
traced calls; the difference in summed operation time between the two
is the tracing overhead, with the host's drift cancelled by the pairing.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import sys
import time
from pathlib import Path

import spans
import workloads

OUT_DIR = Path(__file__).resolve().parent / "out"
REFERENCE_FILE = Path(__file__).resolve().parent / "reference_digests.json"

# The shared host's speed drifts by up to 30% over minutes, in CPU time as
# in wall time.  A fixed pure-Python probe, run between operations,
# drifts with it (NOTES.md); timings are reported at the speed where the
# probe takes PROBE_NOMINAL_MS, and the raw figures are printed beside.
PROBE_NOMINAL_MS = 2.0
PROBE_EVERY_S = 0.25
SETUP_PROBES = 5


def probe_ms() -> float:
    """Time of a fixed allocation-heavy loop, about 2 ms on this host.

    The cyclic collector is off for the loop, so the probe's cost does
    not depend on how large the program's heap is: a program change that
    makes collections slower slows the operations but not the probe.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter_ns()
        for _ in range(10):
            d = {}
            for i in range(400):
                d[(i, i & 7)] = [i, i * i, str(i)]
            max(d)
        return (time.perf_counter_ns() - start) / 1e6
    finally:
        if enabled:
            gc.enable()


def host_slowness(probes: int) -> float:
    """Median probe time over ``probes`` probes, as a share of nominal:
    above 1 when the host runs slower than nominal."""
    return statistics.median(probe_ms() for _ in range(probes)) / PROBE_NOMINAL_MS


class Phase:
    """Outcome of running a sequence of operations."""

    def __init__(self):
        self.latencies_ns: list[int] = []
        self.failures: list[str] = []
        self.digests: list[str] = []
        self.probes_ms: list[float] = []

    def run(self, op, call=None) -> None:
        """Time one operation, then check it outside the timed interval."""
        clock = time.perf_counter_ns
        start = clock()
        try:
            out = call(op.call) if call else op.call()
            error = None
        except Exception as exc:  # an operation that raises is a failure
            out, error = None, f"raised {exc!r}"
        self.latencies_ns.append(clock() - start)
        digest = ""
        if error is None:
            try:
                error = op.check(out)
                digest = op.digest(out)
            except Exception as exc:  # output too malformed to check
                error = f"check raised {exc!r}"
        self.digests.append(digest)
        if error is not None:
            self.failures.append(f"{op.kind} {op.size}: {error}")

    @property
    def busy_s(self) -> float:
        return sum(self.latencies_ns) / 1e9


def timed(ops, seconds: float) -> Phase:
    """Run pool operations in order for ``seconds``, with a speed probe
    every ``PROBE_EVERY_S`` between operations."""
    phase = Phase()
    now = time.perf_counter()
    deadline, next_probe = now + seconds, now
    i = 0
    while now < deadline:
        if now >= next_probe:
            phase.probes_ms.append(probe_ms())
            next_probe = time.perf_counter() + PROBE_EVERY_S
        phase.run(ops[i % len(ops)])
        i += 1
        now = time.perf_counter()
    return phase


def traced_pairs(ops, seconds: float, tracer: spans.Tracer) -> tuple[Phase, Phase]:
    """Run each pool operation untraced, then traced, for ``seconds``."""
    plain, traced = Phase(), Phase()
    deadline = time.perf_counter() + seconds
    i = 0
    while True:
        op = ops[i % len(ops)]
        plain.run(op)
        tracer.install()
        try:
            traced.run(op, tracer.span)
        finally:
            tracer.remove()
        i += 1
        if time.perf_counter() >= deadline:
            return plain, traced


def reference_run(workload: str) -> Phase:
    """Run the fixed reference corpus, whose digests are compared with
    those in ``reference_digests.json``, recorded when the benchmark was
    added."""
    phase = Phase()
    for op in workloads.reference(workload):
        phase.run(op)
    return phase


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.POOL_CYCLES))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    ops = workloads.pool(args.workload, args.seed)
    warm = Phase()
    for op in workloads.warmup(args.workload):
        warm.run(op)
    print("ready", flush=True)
    # the host's speed during set-up, so that run.py can scale this
    # worker's set-up time by it
    setup_slow = host_slowness(SETUP_PROBES)
    if args.setup_only:
        print(json.dumps({"setup_slow": setup_slow}), flush=True)
        return 0
    gc.collect()

    result: dict = {"workload": args.workload, "seed": args.seed, "pool": len(ops),
                    "setup_slow": setup_slow}
    failures = list(warm.failures)
    if args.trace:
        tracer = spans.Tracer()
        plain, traced = traced_pairs(ops, args.seconds, tracer)
        OUT_DIR.mkdir(exist_ok=True)
        tracer.write(OUT_DIR / f"spans-{args.workload}.tsv")
        overhead = traced.busy_s / plain.busy_s - 1
        result["layers"] = spans.layer_metrics(tracer.summary(), overhead)
        phases = [plain, traced]
    else:
        main_phase = timed(ops, args.seconds)
        lat_ms = [ns / 1e6 for ns in main_phase.latencies_ns]
        raw = {
            "ops_per_s": len(lat_ms) / main_phase.busy_s,
            "op_p50_ms": statistics.median(lat_ms),
            "op_p90_ms": statistics.quantiles(lat_ms, n=10)[-1] if len(lat_ms) > 1 else lat_ms[0],
        }
        probe = statistics.median(main_phase.probes_ms)
        slow = probe / PROBE_NOMINAL_MS
        result.update(
            ops=len(lat_ms),
            raw=raw,
            probe_ms=probe,
            slow=slow,
            ops_per_s=raw["ops_per_s"] * slow,
            op_p50_ms=raw["op_p50_ms"] / slow,
            op_p90_ms=raw["op_p90_ms"] / slow,
            peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        )
        phases = [main_phase]
    attempted = sum(len(p.latencies_ns) for p in phases)
    for p in phases:
        failures += p.failures
    ref = reference_run(args.workload)
    recorded = json.loads(REFERENCE_FILE.read_text())[args.workload]
    failures += [f"reference {f}" for f in ref.failures]
    result.update(
        attempted=attempted,
        failed=sum(len(p.failures) for p in phases),
        correct=not failures,
        failures=failures[:20],
        digests_changed=sum(a != b for a, b in zip(ref.digests, recorded)),
        digests_compared=min(len(ref.digests), len(recorded)),
    )
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
