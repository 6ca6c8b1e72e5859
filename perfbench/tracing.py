"""Spans and counters recorded around calls into waxsim's public functions.

Nothing under ``src/`` is changed. ``Tracer.install`` replaces each traced
function with a timing wrapper at every place a caller looks it up: the
module that defines it, every ``waxsim`` module that bound it with
``from ... import``, and the class that owns it for methods.
``Tracer.uninstall`` puts the originals back.

A span is ``[name, parent_index, start_s, end_s]``; all spans of one op share
the tracer's list, which is cleared between ops. Self time is a span's
duration minus the durations of its direct children (calls are nested and
single-threaded in every traced op).
"""
from __future__ import annotations

import sys
import time
from collections import defaultdict

# span name -> (defining module, attribute path)
TRACED = {
    "cli.main": ("waxsim.cli", "main"),
    "config.finalize": ("waxsim.config", "ConfigBuilder.finalize"),
    "decoherence.total_budget": ("waxsim.decoherence", "total_budget"),
    "dynamics.expansion_curve": ("waxsim.dynamics", "expansion_curve"),
    "protocol.run_campaign": ("waxsim.protocol", "run_campaign"),
    "protocol.campaign_curve": ("waxsim.protocol", "campaign_curve"),
    "protocol.estimate_width": ("waxsim.protocol", "estimate_width"),
    "protocol.campaign_to_csv": ("waxsim.protocol", "campaign_to_csv"),
    "protocol.to_csv": ("waxsim.protocol", "PositionSamples.to_csv"),
    "inference.min_detectable_lambda": ("waxsim.inference", "min_detectable_lambda"),
    "inference.bisect_lambda_mc": ("waxsim.inference", "bisect_lambda_mc"),
    "inference.detection_power_mc": ("waxsim.inference", "detection_power_mc"),
}


def _count_draws(tracer, args, kwargs, result):
    size = int(result.samples.size)
    tracer.counters["protocol.draws"] += size
    # computed from the array shape, not measured: T x N float64 values
    peak = tracer.counters["protocol.peak_array_bytes"]
    tracer.counters["protocol.peak_array_bytes"] = max(peak, 8 * size)


def _count_csv(tracer, args, kwargs, result):
    tracer.counters["protocol.csv_rows"] += result.count("\n") - 1
    tracer.counters["protocol.csv_bytes"] += len(result.encode("utf-8"))


def _record_oracle(tracer, args, kwargs, result):
    n = args[0] if args else kwargs["n_per_time"]
    tracer.oracle.append((int(n), float(result)))


_HOOKS = {
    "protocol.run_campaign": _count_draws,
    "protocol.to_csv": _count_csv,
    "inference.bisect_lambda_mc": _record_oracle,
}


def _resolve(module_name: str, path: str):
    """Return (owner, attribute, original) or None if the name is gone."""
    owner = sys.modules.get(module_name)
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part, None)
    if owner is None or not hasattr(owner, parts[-1]):
        return None
    return owner, parts[-1], owner.__dict__[parts[-1]]


class Tracer:
    """Timing wrappers for the span names in ``names``."""

    def __init__(self, names=tuple(TRACED)):
        self.names = tuple(names)
        self.spans: list[list] = []
        self.counters: defaultdict[str, float] = defaultdict(float)
        self.oracle: list[tuple[int, float]] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def reset(self) -> None:
        self.spans.clear()
        self.counters.clear()
        self.oracle.clear()

    def _wrap(self, name, func):
        hook = _HOOKS.get(name)
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            span = [name, stack[-1] if stack else None, time.perf_counter(), 0.0]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = func(*args, **kwargs)
            finally:
                span[3] = time.perf_counter()
                stack.pop()
            if hook is not None:
                hook(self, args, kwargs, result)
            return result

        wrapper.__wrapped__ = func
        return wrapper

    def install(self) -> None:
        """Wrap every traced function wherever a waxsim module binds it."""
        modules = [m for k, m in list(sys.modules.items())
                   if m is not None and (k == "waxsim" or k.startswith("waxsim."))]
        for name in self.names:
            found = _resolve(*TRACED[name])
            if found is None:
                continue
            owner, attr, original = found
            wrapper = self._wrap(name, original)
            sites = [(owner, attr)] if isinstance(owner, type) else [
                (m, key) for m in modules for key, value in vars(m).items()
                if value is original
            ]
            for site_owner, key in sites:
                setattr(site_owner, key, wrapper)
                self._patched.append((site_owner, key, original))

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._patched):
            setattr(owner, key, original)
        self._patched.clear()

    def summary(self) -> dict:
        """Per span name: calls, inclusive seconds and self seconds."""
        child_time = [0.0] * len(self.spans)
        for name, parent, start, end in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        out: dict[str, dict[str, float]] = {}
        for (name, _parent, start, end), children in zip(self.spans, child_time):
            entry = out.setdefault(name, {"calls": 0, "incl_s": 0.0, "self_s": 0.0})
            entry["calls"] += 1
            entry["incl_s"] += end - start
            entry["self_s"] += end - start - children
        return out

    def dump(self) -> dict:
        """Everything one op recorded, as JSON-ready data."""
        return {"layers": self.summary(), "counters": dict(self.counters),
                "oracle": list(self.oracle)}
