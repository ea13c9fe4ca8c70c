"""Span tracing of xpq's layers from outside the library.

The tracer wraps public functions of the ``xpq`` modules and patches every
module global or class attribute bound to them, so a call made from any
caller module goes through the wrapper.  Each wrapper opens a span (name,
start, end, parent) on a stack.  When the span closes its duration goes
to its parent as child time, and its self time (duration minus child
time) is added to a per-name aggregate.  Spans are folded into the
aggregates as they close rather than stored one by one: a traced run of
``algebra_positivity`` closes several hundred thousand of them.

Work done by hooks (for example measuring the JSON size of an encoded
view) is charged to no span, so it only shows as tracing overhead.
"""

from __future__ import annotations

import gc
import importlib
import json
import sys
import time
from collections import defaultdict

# span name -> "module:attribute path" of the wrapped public callables;
# a "*" in the path matches every public module attribute of that shape
SPAN_TARGETS = {
    "exact.cyclotomic_new": "xpq.exact:Cyclotomic.__init__",
    "exact.cyclotomic_mul": "xpq.exact:Cyclotomic.__mul__",
    "exact.cyclotomic_add": "xpq.exact:Cyclotomic.__add__",
    "exact.multiplicative_order": "xpq.exact:multiplicative_order",
    "exact.factorize": "xpq.exact:factorize",
    "dynamics.enumerate_minimal_sets": "xpq.dynamics:enumerate_minimal_sets",
    "dynamics.orbit_of": "xpq.dynamics:orbit_of",
    "dynamics.stabilizer_lattice": "xpq.dynamics:stabilizer_lattice",
    "groupalg.group_mul": "xpq.groupalg:group_mul",
    "groupalg.group_inv": "xpq.groupalg:group_inv",
    "groupalg.algebra_mul": "xpq.groupalg:GroupAlgebraElement.__mul__",
    "traces.trace_eval": "xpq.traces:trace_eval",
    "traces.moments": "xpq.traces:moments",
    "traces.check_pq_invariance": "xpq.traces:check_pq_invariance",
    "serialize.encode": "xpq.serialize:*_to_json",
    "serialize.decode": "xpq.serialize:*_from_json",
    "ktheory.smith_normal_form": "xpq.ktheory:smith_normal_form",
    "ktheory.k_theory_of_group": "xpq.ktheory:k_theory_of_group",
    "primspace.closure": "xpq.primspace:closure",
    "primspace.limit_set": "xpq.primspace:limit_set",
    "checks.run_checks": "xpq.checks:run_checks",
    "cli.main": "xpq.cli:main",
}

# counter name -> constructor whose calls it counts, without a span
COUNT_TARGETS = {"dynamics.points_built": "xpq.dynamics:SolenoidPoint.__init__"}

# Each per-layer metric, its unit, and the end-to-end metric and workload
# it should move.  Run-wide counts and times are divided by the number of
# traced ops, so a faster layer shows as a smaller value per op.
LAYER_METRICS = {
    "exact.cyclotomic_new.calls": ("calls/op", "latency_p50_ms on trace_moments (large); ops_per_s on algebra_positivity; none on orbit_census"),
    "exact.cyclotomic_new.self_s": ("s/op", "latency_p50_ms on trace_moments (large); ops_per_s on algebra_positivity; none on orbit_census"),
    "exact.cyclotomic_mul.calls": ("calls/op", "latency_p50_ms on trace_moments; ops_per_s on algebra_positivity"),
    "exact.cyclotomic_mul.self_s": ("s/op", "latency_p50_ms on trace_moments; ops_per_s on algebra_positivity"),
    "exact.cyclotomic_add.calls": ("calls/op", "latency_p50_ms on trace_moments; ops_per_s on algebra_positivity"),
    "exact.cyclotomic_add.self_s": ("s/op", "latency_p50_ms on trace_moments; ops_per_s on algebra_positivity"),
    "exact.cyclotomic_level_max": ("level", "latency_p50_ms on trace_moments; ops_per_s on algebra_positivity"),
    "exact.multiplicative_order.calls": ("calls/op", "ops_per_s on orbit_census"),
    "exact.multiplicative_order.self_s": ("s/op", "ops_per_s on orbit_census"),
    "exact.factorize.calls": ("calls/op", "ops_per_s on orbit_census"),
    "exact.factorize.self_s": ("s/op", "ops_per_s on orbit_census"),
    "dynamics.enumerate_minimal_sets.self_s": ("s/op", "ops_per_s, latency_p90_ms, peak_rss_mb on orbit_census; decode share of trace_moments"),
    "dynamics.orbit_of.calls": ("calls/op", "ops_per_s, latency_p90_ms, peak_rss_mb on orbit_census; decode share of trace_moments"),
    "dynamics.orbit_of.self_s": ("s/op", "ops_per_s, latency_p90_ms, peak_rss_mb on orbit_census; decode share of trace_moments"),
    "dynamics.stabilizer_lattice.calls": ("calls/op", "ops_per_s, latency_p90_ms, peak_rss_mb on orbit_census; decode share of trace_moments"),
    "dynamics.stabilizer_lattice.self_s": ("s/op", "ops_per_s, latency_p90_ms, peak_rss_mb on orbit_census; decode share of trace_moments"),
    "dynamics.points_built": ("points/op", "ops_per_s, latency_p90_ms, peak_rss_mb on orbit_census; decode share of trace_moments"),
    "groupalg.group_mul.calls": ("calls/op", "ops_per_s on algebra_positivity only"),
    "groupalg.group_mul.self_s": ("s/op", "ops_per_s on algebra_positivity only"),
    "groupalg.group_inv.calls": ("calls/op", "ops_per_s on algebra_positivity only"),
    "groupalg.algebra_mul.self_s": ("s/op", "ops_per_s on algebra_positivity only"),
    "groupalg.product_terms": ("terms/op", "ops_per_s on algebra_positivity only"),
    "traces.trace_eval.calls": ("calls/op", "latency_p50_ms on trace_moments; ops_per_s on algebra_positivity"),
    "traces.trace_eval.self_s": ("s/op", "latency_p50_ms on trace_moments; ops_per_s on algebra_positivity"),
    "traces.moments.self_s": ("s/op", "latency_p50_ms on trace_moments; ops_per_s on algebra_positivity"),
    "traces.check_pq_invariance.self_s": ("s/op", "latency_p50_ms on trace_moments; ops_per_s on algebra_positivity"),
    "serialize.encode.self_s": ("s/op", "ops_per_s on orbit_census"),
    "serialize.encode.bytes": ("B/op", "ops_per_s on orbit_census"),
    "serialize.decode.calls": ("calls/op", "latency_p50_ms on trace_moments and cli_session"),
    "serialize.decode.self_s": ("s/op", "latency_p50_ms on trace_moments and cli_session"),
    "ktheory.smith_normal_form.calls": ("calls/op", "latency_p50_ms on cli_session (small share)"),
    "ktheory.smith_normal_form.self_s": ("s/op", "latency_p50_ms on cli_session (small share)"),
    "ktheory.k_theory_of_group.self_s": ("s/op", "latency_p50_ms on cli_session (small share)"),
    "primspace.closure.self_s": ("s/op", "latency_p50_ms on cli_session (small share)"),
    "primspace.limit_set.self_s": ("s/op", "latency_p50_ms on cli_session (small share)"),
    "checks.run_checks.self_s": ("s/op", "latency_p50_ms on cli_session (small share)"),
    "cli.import_s": ("s", "latency_p50_ms on cli_session; setup_s on every workload"),
    "cli.main.self_s": ("s/op", "latency_p50_ms on cli_session; setup_s on every workload"),
    "cli.process_s": ("s/op", "latency_p50_ms on cli_session; setup_s on every workload"),
    "cli.stdout_bytes": ("B/op", "latency_p50_ms on cli_session; setup_s on every workload"),
    "cli.exit_nonzero": ("calls/op", "latency_p50_ms on cli_session; setup_s on every workload"),
    "runtime.gc_collections": ("count/op", "latency_p90_ms and peak_rss_mb on orbit_census"),
    "runtime.gc_pause_s": ("s/op", "latency_p90_ms and peak_rss_mb on orbit_census"),
}


def _resolve(target: str):
    module_name, path = target.split(":")
    owner = importlib.import_module(module_name)
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner, attr, getattr(owner, attr)


class Tracer:
    """Per-name span aggregates plus plain counters, patched in on demand.

    ``install`` patches the library and starts listening to the garbage
    collector; ``uninstall`` restores every original binding, so traced
    and untraced stretches can alternate in one process.  The bindings
    are looked up once, on the first ``install``.
    """

    def __init__(self):
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.counts = defaultdict(int)
        self.level_max = 0
        self._stack = []  # child time of each open span
        self._active = defaultdict(int)  # open spans per name
        self._patches = []  # (owner, attribute, original, wrapper)
        self._gc_start = 0.0

    # -- spans ---------------------------------------------------------

    def _wrap(self, name, fn, hook=None):
        stack, calls, self_s, active = self._stack, self.calls, self.self_s, self._active
        clock = time.perf_counter

        def traced(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            active[name] += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                active[name] -= 1
                self_s[name] += end - start - frame[0]
                calls[name] += 1
                if stack:
                    stack[-1][0] += end - start
            if hook is not None:
                hook_start = clock()
                hook(args, result)
                if stack:
                    stack[-1][0] += clock() - hook_start
            return result

        traced.__wrapped__ = fn
        return traced

    def _count(self, name, fn):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    # -- hooks -----------------------------------------------------------

    def _note_level(self, args, _result):
        level = args[0].level
        if level > self.level_max:
            self.level_max = level

    def _note_product(self, _args, result):
        terms = getattr(result, "terms", None)
        if terms is not None:
            self.counts["groupalg.product_terms"] += len(terms)

    def _note_encoded(self, _args, result):
        if self._active["serialize.encode"] == 0:
            self.counts["serialize.encode.bytes"] += len(json.dumps(result))

    # -- patching ----------------------------------------------------------

    def _targets(self, target: str):
        if "*" not in target:
            return [_resolve(target)[2]]
        module_name, pattern = target.split(":")
        module = importlib.import_module(module_name)
        prefix, suffix = pattern.split("*")
        return [
            value for attr, value in vars(module).items()
            if attr.startswith(prefix) and attr.endswith(suffix) and not attr.startswith("_")
        ]

    def _bindings(self, fn):
        """Every (owner, attribute) in xpq bound to fn or to a cache of fn."""
        found = []
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "xpq" and not mod_name.startswith("xpq."):
                continue
            owners = [module] + [
                obj for obj in vars(module).values()
                if isinstance(obj, type) and obj.__module__ == mod_name
            ]
            for owner in owners:
                for attr, value in list(vars(owner).items()):
                    if value is fn or getattr(value, "__wrapped__", None) is fn:
                        found.append((owner, attr, value))
        return found

    def _build(self):
        hooks = {
            "exact.cyclotomic_new": self._note_level,
            "groupalg.algebra_mul": self._note_product,
            "serialize.encode": self._note_encoded,
        }
        for name, target in SPAN_TARGETS.items():
            for fn in self._targets(target):
                for owner, attr, value in self._bindings(fn):
                    self._patches.append((owner, attr, value, self._wrap(name, value, hooks.get(name))))
        for name, target in COUNT_TARGETS.items():
            owner, attr, value = _resolve(target)
            self._patches.append((owner, attr, value, self._count(name, value)))

    def install(self):
        if not self._patches:
            self._build()
        for owner, attr, _original, wrapper in self._patches:
            setattr(owner, attr, wrapper)
        gc.callbacks.append(self._on_gc)

    def uninstall(self):
        gc.callbacks.remove(self._on_gc)
        for owner, attr, original, _wrapper in reversed(self._patches):
            setattr(owner, attr, original)

    def _on_gc(self, phase, _info):
        if phase == "start":
            self._gc_start = time.perf_counter()
        else:
            self.counts["runtime.gc_collections"] += 1
            self.self_s["runtime.gc_pause"] += time.perf_counter() - self._gc_start

    # -- results -----------------------------------------------------------

    def snapshot(self) -> dict:
        """Raw totals, in a form that crosses a process boundary as JSON."""
        return {
            "calls": dict(self.calls),
            "self_s": dict(self.self_s),
            "counts": dict(self.counts),
            "level_max": self.level_max,
        }


def merge(total: dict, part: dict) -> None:
    """Add the raw totals of ``part`` (a snapshot) into ``total``."""
    for key in ("calls", "self_s", "counts"):
        bucket = total.setdefault(key, {})
        for name, value in part.get(key, {}).items():
            bucket[name] = bucket.get(name, 0) + value
    total["level_max"] = max(total.get("level_max", 0), part.get("level_max", 0))


def layer_metrics(raw: dict, ops: int, extra: dict) -> dict:
    """The per-layer metrics of LAYER_METRICS from merged raw totals.

    ``extra`` supplies the values measured around the library rather than
    inside it (cli.import_s, cli.process_s, cli.stdout_bytes,
    cli.exit_nonzero), already per op where the unit says so.
    """
    calls, self_s, counts = raw.get("calls", {}), raw.get("self_s", {}), raw.get("counts", {})
    out = {}
    for metric, (unit, _moves) in LAYER_METRICS.items():
        if metric in extra:
            value = extra[metric]
        elif metric == "exact.cyclotomic_level_max":
            value = raw.get("level_max", 0)
        elif metric == "runtime.gc_pause_s":
            value = self_s.get("runtime.gc_pause", 0.0) / ops
        elif metric.endswith(".calls"):
            value = calls.get(metric[: -len(".calls")], 0) / ops
        elif metric.endswith(".self_s"):
            value = self_s.get(metric[: -len(".self_s")], 0.0) / ops
        else:
            value = counts.get(metric, 0) / ops
        out[metric] = {"value": value, "unit": unit}
    return out
