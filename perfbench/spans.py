"""Spans around the program's public functions, recorded from outside.

:class:`Tracer` wraps each function named in :data:`TARGETS` and rebinds
the wrapper under every name the original is bound to: in each
``ribbongraphs`` module that imported it (``stats`` alone is bound in
``ribbon``, ``br``, ``duality``, ``cli`` and the package) and, for the
``Laurent`` operators, on the class, so internal calls are counted too.
Nothing in the program is edited; :meth:`Tracer.remove` restores every
binding, and the pair is cheap enough to toggle around single calls.

A span is (name, start, end, parent id, count), kept in memory and
written out at the end.  ``count`` is the work the call stands for,
where that is a number worth summing (subsets, states, classes, hits,
output terms); self time is a span's duration minus the time its direct
children cover.
"""

from __future__ import annotations

import sys
import time

from ribbongraphs.polynomial import Laurent

# layer (module) -> wrapped public functions; "Laurent.x" is a method
TARGETS = {
    "ribbon": ("parse_ribbon_graph", "stats", "is_isomorphic", "serialize_ribbon_graph"),
    "duality": ("partial_dual", "dual_orbit"),
    "br": ("bollobas_riordan", "duality_invariant", "tutte_via_br"),
    "links": ("parse_gauss", "resolve_state", "kauffman_bracket", "jones"),
    "polynomial": ("Laurent.__mul__", "Laurent.__add__", "Laurent.substitute", "Laurent.render"),
    "cli": ("main",),
}
LAYERS = tuple(TARGETS) + ("bench",)


def _terms(args, result) -> int:
    return len(result.terms)


# work counted per call, keyed by span name
COUNTS = {
    "ribbon.is_isomorphic": lambda args, result: int(bool(result)),
    "duality.dual_orbit": lambda args, result: len(result),
    "br.bollobas_riordan": lambda args, result: 1 << args[0].num_edges,
    "links.kauffman_bracket": lambda args, result: 1 << args[0].num_crossings,
    "polynomial.Laurent.__mul__": _terms,
    "polynomial.Laurent.__add__": _terms,
    "polynomial.Laurent.substitute": _terms,
}

OP_SPAN = "bench.op"


class Tracer:
    def __init__(self):
        self.spans: list = []
        self._stack = [-1]
        self._bindings = self._find_bindings()

    def _wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns
        count = COUNTS.get(name)

        def wrapper(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                spans[sid] = (name, start, clock(), parent, 0)
                stack.pop()
                raise
            end = clock()
            stack.pop()
            spans[sid] = (name, start, end, parent, count(args, result) if count else 0)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _find_bindings(self) -> list[tuple[object, str, object, object]]:
        """(owner, attribute, original, wrapper) for every name bound to
        a wrapped function."""
        modules = [m for n, m in list(sys.modules.items())
                   if n == "ribbongraphs" or n.startswith("ribbongraphs.")]
        bindings = []
        for layer, names in TARGETS.items():
            home = sys.modules[f"ribbongraphs.{layer}"]
            for name in names:
                if name.startswith("Laurent."):
                    original = getattr(Laurent, name.split(".", 1)[1])
                    owners = [Laurent]
                else:
                    original = getattr(home, name)
                    owners = modules
                wrapper = self._wrap(f"{layer}.{name}", original)
                bindings += [(owner, attr, original, wrapper) for owner in owners
                             for attr, value in list(vars(owner).items()) if value is original]
        return bindings

    def span(self, fn):
        """Run ``fn()`` as one operation: the root span of its calls."""
        return self._wrap(OP_SPAN, fn)()

    def install(self) -> None:
        for owner, attr, _, wrapper in self._bindings:
            setattr(owner, attr, wrapper)

    def remove(self) -> None:
        for owner, attr, original, _ in self._bindings:
            setattr(owner, attr, original)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id\tparent\tname\tstart_ns\tend_ns\tcount\n")
            for sid, (name, start, end, parent, count) in enumerate(self.spans):
                fh.write(f"{sid}\t{parent}\t{name}\t{start}\t{end}\t{count}\n")

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, self_s, total_s and summed count."""
        child = [0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, dict[str, float]] = {}
        for sid, (name, start, end, parent, count) in enumerate(self.spans):
            row = out.setdefault(name, {"calls": 0, "self_s": 0.0, "total_s": 0.0, "count": 0})
            row["calls"] += 1
            row["self_s"] += (end - start - child[sid]) / 1e9
            row["total_s"] += (end - start) / 1e9
            row["count"] += count
        return out


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(summary: dict, overhead: float) -> dict[str, tuple[float, str]]:
    """The per-layer metrics, each (value, unit), from a span summary."""
    def row(name):
        return summary.get(name, {"calls": 0, "self_s": 0.0, "total_s": 0.0, "count": 0})

    m: dict[str, tuple[float, str]] = {}
    for layer, names in TARGETS.items():
        for name in names:
            r = row(f"{layer}.{name}")
            m[f"{layer}.{name}.calls"] = (r["calls"], "count")
            m[f"{layer}.{name}.self_s"] = (r["self_s"], "s")
    iso = row("ribbon.is_isomorphic")
    m["ribbon.is_isomorphic.hit_ratio"] = (_ratio(iso["count"], iso["calls"]), "ratio")
    pd = row("duality.partial_dual")
    m["duality.partial_dual.us_per_call"] = (_ratio(pd["total_s"] * 1e6, pd["calls"]), "us")
    m["duality.dual_orbit.classes"] = (row("duality.dual_orbit")["count"], "count")
    br = row("br.bollobas_riordan")
    m["br.subsets"] = (br["count"], "count")
    m["br.us_per_subset"] = (_ratio(br["total_s"] * 1e6, br["count"]), "us")
    kb = row("links.kauffman_bracket")
    m["links.states"] = (kb["count"], "count")
    m["links.us_per_state"] = (_ratio(kb["total_s"] * 1e6, kb["count"]), "us")
    m["polynomial.terms_out"] = (
        sum(row(f"polynomial.{n}")["count"] for n in TARGETS["polynomial"]), "count")
    ops = row(OP_SPAN)
    m["bench.ops"] = (ops["calls"], "count")
    m["bench.op_s"] = (ops["total_s"], "s")
    for layer in LAYERS:
        own = sum(r["self_s"] for n, r in summary.items() if n.split(".", 1)[0] == layer)
        m[f"{layer}.self_share"] = (_ratio(own, ops["total_s"]), "ratio")
    m["trace_overhead_ratio"] = (overhead, "ratio")
    return m
