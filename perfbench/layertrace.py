"""Outside-in layer tracing for the rsheston benchmark.

The benchmark does not touch the library's source.  Instead, every
public function of the traced modules is replaced, at each module
attribute where a caller looks it up, by a wrapper that records a span
(name, start, end, parent span, op id).  Spans stay in memory and are
written once when the run ends.  A few counters ride along: chain jumps
per sampled path, segments per composed path, ``quad`` calls made by
``markov_chain`` and evaluations of the ``xi_ode`` integrand.

A name that no longer exists (for example after a refactor deletes it)
is reported as absent; its metrics read 0 and the run carries on.
"""

from __future__ import annotations

import dataclasses
import functools
import gzip
import inspect
import json
import sys
import time
from collections import Counter

LAYERS = ("markov_chain", "riccati", "regime_expectation", "value_strategy", "simulate", "cli")

# (metric prefix, kind) for every per-layer metric the benchmark reports.
# kind: "calls_us" -> .calls and .us_per_call; "calls_self" -> .calls and .self_s.
REPORTED = {
    "markov_chain.path_stream": "calls_us",
    "markov_chain.sample_path": "calls_us",
    "markov_chain.state_at": "calls_us",
    "markov_chain.occupation_integral": "calls_us",
    "riccati.compose_piecewise": "calls_us",
    "riccati.D_leverage": "calls_us",
    "value_strategy.optimal_strategy": "calls_us",
    "regime_expectation.xi_ode": "calls_self",
    "regime_expectation.xi_mc": "calls_self",
    "value_strategy.value_mmh_general": "calls_self",
}


class Tracer:
    """Span recorder plus the set of wrappers it can install and remove."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start_ns, end_ns, parent index, op id]
        self.counters: Counter = Counter()
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._op = -1
        self._patches: list[tuple[object, str, object, object]] = []

    # -- wrappers ---------------------------------------------------------

    def _span(self, name, fn, after=None):
        """Wrap ``fn`` in a span; ``after`` may inspect or replace the result."""
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, clock(), 0, stack[-1] if stack else -1, self._op]
            stack.append(len(spans))
            spans.append(rec)
            try:
                out = fn(*args, **kwargs)
            finally:
                stack.pop()
                rec[2] = clock()
            return out if after is None else after(out)

        return wrapper

    def _count(self, key, fn):
        counters = self.counters

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counters[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _after_sample_path(self, path):
        self.counters["markov_chain.sample_path.jumps"] += path.n_jumps
        return path

    def _after_compose(self, coeffs):
        self.counters["riccati.compose_piecewise.segments"] += len(coeffs.segments)
        return coeffs

    def _after_upsilon(self, integrand):
        # the integrand is frozen; callers receive a copy whose fn_all counts
        return dataclasses.replace(
            integrand, fn_all=self._count("regime_expectation.xi_ode.fn_all_evals", integrand.fn_all)
        )

    def prepare(self, package: str = "rsheston") -> None:
        """Build every wrapper once; ``install`` and ``remove`` then flip them."""
        modules = [m for name, m in sys.modules.items() if name == package or name.startswith(package + ".")]
        after = {
            "markov_chain.sample_path": self._after_sample_path,
            "riccati.compose_piecewise": self._after_compose,
            "regime_expectation.upsilon_heston": self._after_upsilon,
        }
        wrapped = set()
        for layer in LAYERS:
            mod = sys.modules.get(f"{package}.{layer}")
            for attr in getattr(mod, "__all__", ()):
                fn = mod.__dict__.get(attr)
                if not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                    continue
                name = f"{layer}.{attr}"
                wrapper = self._span(name, fn, after.get(name))
                wrapped.add(name)
                for owner in modules:
                    for key, value in list(vars(owner).items()):
                        if value is fn:
                            self._patches.append((owner, key, fn, wrapper))
        chain = sys.modules.get(f"{package}.markov_chain")
        state_at = getattr(getattr(chain, "RegimePath", None), "state_at", None)
        if inspect.isfunction(state_at):
            wrapper = self._span("markov_chain.state_at", state_at)
            self._patches.append((chain.RegimePath, "state_at", state_at, wrapper))
            wrapped.add("markov_chain.state_at")
        quad = getattr(chain, "quad", None)
        if callable(quad):
            self._patches.append((chain, "quad", quad, self._count("markov_chain.quad.calls", quad)))
            wrapped.add("markov_chain.quad")
        expected = [*REPORTED, "markov_chain.quad", "simulate.simulate_paths", "cli.load_config", "cli.main"]
        self.absent = [name for name in expected if name not in wrapped]

    def install(self) -> None:
        for owner, key, _, wrapper in self._patches:
            setattr(owner, key, wrapper)

    def remove(self) -> None:
        for owner, key, original, _ in self._patches:
            setattr(owner, key, original)

    # -- op spans ---------------------------------------------------------

    def begin_op(self, op_id: int) -> None:
        self._op = op_id
        self._stack.append(len(self.spans))
        self.spans.append(["op", time.perf_counter_ns(), 0, -1, op_id])

    def end_op(self) -> None:
        idx = self._stack.pop()
        self.spans[idx][2] = time.perf_counter_ns()
        self._op = -1

    # -- results ----------------------------------------------------------

    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, inclusive seconds and self seconds."""
        child_ns = [0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        out: dict[str, dict[str, float]] = {}
        for i, (name, start, end, _, _) in enumerate(self.spans):
            agg = out.setdefault(name, {"calls": 0, "incl_s": 0.0, "self_s": 0.0})
            agg["calls"] += 1
            agg["incl_s"] += (end - start) * 1e-9
            agg["self_s"] += (end - start - child_ns[i]) * 1e-9
        return out

    def write(self, path) -> None:
        payload = {
            "fields": ["name", "start_ns", "end_ns", "parent", "op"],
            "spans": self.spans,
            "counters": dict(self.counters),
            "absent": self.absent,
        }
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump(payload, fh)


def layer_metrics(tracer: Tracer, n_ops: int, paths_per_op: int, why: tuple[tuple[str, str], ...]) -> dict[str, float]:
    """Per-op layer numbers from the spans of ``n_ops`` traced ops.

    ``why`` lists (span name, "self" | "incl") terms whose sum, as a
    share of traced op time, backs the workload's stated reason.
    """
    tot = tracer.totals()
    zero = {"calls": 0, "incl_s": 0.0, "self_s": 0.0}
    ops = max(n_ops, 1)
    op_s = tot.get("op", zero)["incl_s"]
    m: dict[str, float] = {}
    for prefix, kind in REPORTED.items():
        t = tot.get(prefix, zero)
        m[f"{prefix}.calls"] = t["calls"] / ops
        if kind == "calls_us":
            m[f"{prefix}.us_per_call"] = t["incl_s"] / t["calls"] * 1e6 if t["calls"] else 0.0
        else:
            m[f"{prefix}.self_s"] = t["self_s"] / ops
    c = tracer.counters
    sp = tot.get("markov_chain.sample_path", zero)["calls"]
    cp = tot.get("riccati.compose_piecewise", zero)["calls"]
    m["markov_chain.sample_path.jumps_per_call"] = c["markov_chain.sample_path.jumps"] / sp if sp else 0.0
    m["riccati.compose_piecewise.segments_per_call"] = c["riccati.compose_piecewise.segments"] / cp if cp else 0.0
    m["markov_chain.quad.calls"] = c["markov_chain.quad.calls"] / ops
    m["regime_expectation.xi_ode.fn_all_evals"] = c["regime_expectation.xi_ode.fn_all_evals"] / ops
    sim = tot.get("simulate.simulate_paths", zero)
    m["simulate.simulate_paths.self_s"] = sim["self_s"] / ops
    m["simulate.simulate_paths.self_us_per_path"] = (
        sim["self_s"] / (paths_per_op * ops) * 1e6 if sim["calls"] and paths_per_op else 0.0
    )
    m["cli.load_config.busy_s"] = tot.get("cli.load_config", zero)["incl_s"] / ops
    m["cli.main.self_s"] = tot.get("cli.main", zero)["self_s"] / ops
    for layer in LAYERS:
        self_s = sum(v["self_s"] for k, v in tot.items() if k.startswith(layer + "."))
        m[f"share.{layer}"] = self_s / op_s if op_s else 0.0
    why_s = sum(tot.get(name, zero)["self_s" if part == "self" else "incl_s"] for name, part in why)
    m["why_share"] = why_s / op_s if op_s else 0.0
    return m
