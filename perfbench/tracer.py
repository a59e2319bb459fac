"""Outside-in spans around lipext's layers, and the per-layer metrics they give.

The traced run wraps the public functions listed in ``LAYERS`` and patches
every ``lipext`` module namespace that holds them, so calls through
``from .metric import lip_constant`` are seen too.  Each call records one
span (name, start, end, parent) plus counters computed from its arguments and
result.  The wrappers pass arguments and results through untouched, and the
benchmark checks that the traced report is byte-identical to the untraced one.

Spans are kept on one stack, so the tracer assumes the single-threaded
program the benchmark runs (``LIPEXT_THREADS`` at its default of 1).
"""

from __future__ import annotations

import functools
import importlib
import inspect
import resource
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field

CHECKS = ("check_schedule_laws", "check_profile_legality", "check_restriction",
          "check_global_lipschitz", "check_envelope_sandwich", "check_step2",
          "check_localization", "check_locality_preservation", "check_inf_family")

# Layer module -> public functions wrapped in the traced run.
LAYERS = {
    "metric": ("validate_instance", "lip_constant", "lipa_profile"),
    "schedule": ("build_schedule", "locality_radius"),
    "extension": ("schedule_for_instance", "build_profiles", "extend",
                  "extend_localized"),
    "verification": CHECKS + ("run_suite", "mcshane_comparison"),
    "energy": ("energy", "check_restriction_monotonicity",
               "check_extension_energy"),
}

ROOT = "cli"

# (metric, unit, better).  A metric reads field ``calls``, ``self_s``,
# ``total_s`` or a counter of the span named by everything before its last dot.
PER_LAYER = (
    ("metric.lipa_profile.calls", "count", "lower"),
    ("metric.lipa_profile.self_s", "s", "lower"),
    ("metric.lip_constant.calls", "count", "lower"),
    ("metric.lip_constant.self_s", "s", "lower"),
    ("metric.lip_constant.pairs", "count", "lower"),
    ("metric.validate_instance.self_s", "s", "lower"),
    ("metric.validate_instance.rss_mb", "MB", "lower"),
    ("extension.build_profiles.self_s", "s", "lower"),
    ("extension.extend.calls", "count", "lower"),
    ("extension.extend.self_s", "s", "lower"),
    ("extension.extend.queries", "count", "lower"),
    ("extension.extend_localized.calls", "count", "lower"),
    ("extension.extend_localized.self_s", "s", "lower"),
    ("extension.extend_localized.fallbacks", "count", "lower"),
    ("extension.extend_localized.local_ratio", "ratio", "higher"),
    ("extension.schedule_for_instance.self_s", "s", "lower"),
    ("schedule.build_schedule.calls", "count", "lower"),
    ("schedule.scales", "count", "lower"),
    ("schedule.locality_radius.calls", "count", "lower"),
    ("schedule.locality_radius.self_s", "s", "lower"),
    *((f"verification.{name}.{part}", "s", "lower")
      for name in CHECKS + ("run_suite",) for part in ("self_s", "total_s")),
    ("verification.mcshane_comparison.total_s", "s", "lower"),
    ("verification.statistical_checks", "count", "lower"),
    ("energy.energy.calls", "count", "lower"),
    ("energy.energy.self_s", "s", "lower"),
    ("energy.energy.total_s", "s", "lower"),
    ("energy.check_restriction_monotonicity.total_s", "s", "lower"),
    ("energy.check_extension_energy.total_s", "s", "lower"),
    ("cli.self_s", "s", "lower"),
    ("cli.report_bytes", "bytes", "lower"),
    ("trace_overhead_s", "s", "lower"),
)

# Metrics whose name does not follow the span.field pattern.
_ALIASES = {
    "schedule.scales": ("schedule.build_schedule", "scales"),
    "verification.statistical_checks": ("verification.run_suite", "statistical_checks"),
}
# Counters aggregated by maximum over calls; every other counter is summed.
_MAX_COUNTERS = {"rss_mb", "scales"}


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int                 # index of the enclosing span, -1 for the root
    counters: dict = field(default_factory=dict)


class Tracer:
    """In-memory span recorder; spans are written out when the run ends."""

    def __init__(self):
        self.spans: list[Span] = []
        self.absent: set[str] = set()   # names or counters missing at this commit
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else -1
        rec = Span(name, time.perf_counter(), float("nan"), parent)
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield rec
        finally:
            rec.end = time.perf_counter()
            self._stack.pop()

    def to_json(self) -> list:
        return [[s.name, s.start, s.end, s.parent, s.counters] for s in self.spans]


def spans_from_json(rows) -> list[Span]:
    return [Span(name, start, end, parent, counters)
            for name, start, end, parent, counters in rows]


def _rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _count_lip_constant(args, result):
    m = len(args["members"])
    return {"pairs": m * (m - 1) // 2}


def _count_extend_localized(args, result):
    detail = result[1] if isinstance(result, tuple) else {}
    return {"fallbacks": int(bool(detail.get("fallback")))}


# Counters computed at a span's end from the call's bound arguments and result.
_COUNTERS = {
    "metric.lip_constant": _count_lip_constant,
    "metric.validate_instance": lambda args, result: {"rss_mb": _rss_mb()},
    "extension.extend": lambda args, result: {"queries": len(result.queries)},
    "extension.extend_localized": _count_extend_localized,
    "schedule.build_schedule": lambda args, result: {"scales": len(result.eps)},
    "verification.run_suite": lambda args, result: {
        "statistical_checks": sum("statistical" in c.note for c in result.checks)},
}


def _wrap(tracer: Tracer, name: str, fn):
    count = _COUNTERS.get(name)
    sig = inspect.signature(fn) if count else None

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        with tracer.span(name) as rec:
            result = fn(*args, **kwargs)
            if count:
                try:
                    rec.counters = count(sig.bind(*args, **kwargs).arguments, result)
                except (KeyError, AttributeError, TypeError):
                    # A refactor renamed the argument or result field counted.
                    tracer.absent.add(f"{name}.counters")
        return result

    return traced


def install(tracer: Tracer) -> None:
    """Wrap every function in ``LAYERS`` wherever a lipext module holds it.

    Modules are imported by full name: the package attribute ``lipext.energy``
    is the function, not the module.  Names absent at this commit go to
    ``tracer.absent`` instead of failing the run.
    """
    importlib.import_module("lipext.cli")
    namespaces = [m for key, m in list(sys.modules.items())
                  if key == "lipext" or key.startswith("lipext.")]
    for layer, names in LAYERS.items():
        try:
            module = importlib.import_module(f"lipext.{layer}")
        except ImportError:
            tracer.absent.update(f"{layer}.{name}" for name in names)
            continue
        for name in names:
            fn = getattr(module, name, None)
            if not callable(fn):
                tracer.absent.add(f"{layer}.{name}")
                continue
            traced = _wrap(tracer, f"{layer}.{name}", fn)
            for ns in namespaces:
                for attr, value in list(vars(ns).items()):
                    if value is fn:
                        setattr(ns, attr, traced)


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the durations of its direct children.

    Spans come from one stack, so the children of a span never overlap.
    """
    out = [s.end - s.start for s in spans]
    for s in spans:
        if s.parent >= 0:
            out[s.parent] -= s.end - s.start
    return out


def aggregate(spans: list[Span]) -> dict[str, dict[str, float]]:
    """Per span name: calls, self_s, total_s and the aggregated counters."""
    agg: dict[str, dict[str, float]] = defaultdict(
        lambda: {"calls": 0, "self_s": 0.0, "total_s": 0.0})
    for s, own in zip(spans, self_times(spans)):
        row = agg[s.name]
        row["calls"] += 1
        row["self_s"] += own
        row["total_s"] += s.end - s.start
        for key, value in s.counters.items():
            row[key] = (max(row.get(key, value), value) if key in _MAX_COUNTERS
                        else row.get(key, 0) + value)
    return agg


def layer_metrics(spans: list[Span], trace_overhead_s: float) -> dict[str, float]:
    """Every ``PER_LAYER`` metric; a span never entered reads as 0."""
    agg = aggregate(spans)
    out = {}
    for metric, _, _ in PER_LAYER:
        if metric == "trace_overhead_s":
            value = trace_overhead_s
        elif metric == "extension.extend_localized.local_ratio":
            row = agg.get("extension.extend_localized", {})
            calls = row.get("calls", 0)
            value = (calls - row.get("fallbacks", 0)) / calls if calls else 0.0
        else:
            span, part = _ALIASES.get(metric) or metric.rsplit(".", 1)
            value = agg.get(span, {}).get(part, 0)
        out[metric] = value
    return out
