"""In-memory span recorder that traces ``berrydd`` from outside the package.

``install_berrydd_probes`` replaces the public functions of the layers
(noise, schedule, propagator, ensemble, analytics, cli) with wrappers that
record one span per call: (name, start, end, parent).  Each name is patched
where its caller looks it up -- ``run_ensemble`` in ``berrydd.cli`` as well
as in ``berrydd.ensemble``, and scipy's ``lfilter`` as ``berrydd.noise.lfilter``
-- so no file of the package changes.

Spans are only recorded in the process that installed the probes.  Pool
children forked from it run the original functions, and their work shows
up in the parent as self time of ``ensemble.run_ensemble``.
"""

from __future__ import annotations

import json
import os
from collections import Counter
from time import perf_counter

# a bootstrap holds a resamples x n int64 index array and the complex128
# gathered coherences: 8 + 16 bytes per index element
_BOOTSTRAP_BYTES_PER_ELEM = 24


class SpanRecorder:
    """Keeps spans and counts in memory; ``restore`` undoes every patch."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1]
        self.counts = Counter()
        self._stack = []
        self._pid = os.getpid()
        self._undo = []

    def wrap(self, owner, attr, name, on_return=None):
        """Replace ``owner.attr`` by a recording wrapper.

        ``name`` is a span name or a function of the call's arguments
        returning one; ``on_return(recorder, args, kwargs, result)`` updates
        counts after the call.
        """
        raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        original = getattr(owner, attr)
        name_of = name if callable(name) else (lambda args, kwargs: name)

        def wrapper(*args, **kwargs):
            if os.getpid() != self._pid:
                return original(*args, **kwargs)
            index = len(self.spans)
            span = [name_of(args, kwargs), 0.0, 0.0, self._stack[-1] if self._stack else -1]
            self.spans.append(span)
            self._stack.append(index)
            span[1] = perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                self._stack.pop()
            if on_return is not None:
                on_return(self, args, kwargs, result)
            return result

        # a classmethod fetched through its class is already bound: keep it static
        patched = staticmethod(wrapper) if isinstance(raw, classmethod) else wrapper
        setattr(owner, attr, patched)
        self._undo.append((owner, attr, raw))

    def restore(self):
        while self._undo:
            owner, attr, raw = self._undo.pop()
            setattr(owner, attr, raw)

    def self_times(self):
        """Per span: duration minus the time its direct child spans cover."""
        own = [end - start for _, start, end, _ in self.spans]
        for _, start, end, parent in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own

    def write(self, path):
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent"],
                       "spans": self.spans}, fh)


def _arg(args, kwargs, pos, key, default=None):
    if len(args) > pos:
        return args[pos]
    return kwargs.get(key, default)


def _is_reference(args, kwargs):
    values = _arg(args, kwargs, 1, "noise_values")
    return getattr(values, "shape", (0,))[0] == 1 and not values.any()


def _on_sample(rec, args, kwargs, result):
    rec.counts["noise.samples"] += len(result.values)


def _on_evolve(rec, args, kwargs, result):
    if _is_reference(args, kwargs):
        return
    rows, steps = _arg(args, kwargs, 1, "noise_values").shape
    rec.counts["propagator.propagate.rows"] += rows
    rec.counts["propagator.propagate.row_steps"] += rows * steps


def _on_run_ensemble(rec, args, kwargs, result):
    rec.counts["ensemble.realizations_used"] += result.realizations_used


def _on_bootstrap(rec, args, kwargs, result):
    n = len(_arg(args, kwargs, 0, "per_realization_coherences"))
    elems = _arg(args, kwargs, 1, "resamples", 1000) * n
    rec.counts["ensemble.bootstrap.index_elems"] += elems
    peak = "ensemble.bootstrap.peak_bytes_computed"
    rec.counts[peak] = max(rec.counts[peak], elems * _BOOTSTRAP_BYTES_PER_ELEM)


def install_berrydd_probes():
    """Patch every traced name of the imported package; returns the recorder."""
    import berrydd.analytics
    import berrydd.cli
    import berrydd.ensemble
    import berrydd.noise
    import berrydd.propagator

    rec = SpanRecorder()
    noise, prop, ens = berrydd.noise, berrydd.propagator, berrydd.ensemble
    rec.wrap(noise, "substream", "noise.substream")
    rec.wrap(noise, "sample_realization", "noise.sample_realization", _on_sample)
    rec.wrap(noise, "lfilter", "noise.lfilter")
    rec.wrap(ens, "build_schedule", "schedule.build")
    rec.wrap(prop.StepGrid, "from_schedule", "schedule.build")
    rec.wrap(prop, "evolve_batch",
             lambda a, k: "propagator.reference" if _is_reference(a, k)
             else "propagator.propagate", _on_evolve)
    rec.wrap(prop, "schedule_coherence", "propagator.coherence")
    rec.wrap(ens, "run_ensemble", "ensemble.run_ensemble", _on_run_ensemble)
    rec.wrap(berrydd.cli, "run_ensemble", "ensemble.run_ensemble", _on_run_ensemble)
    rec.wrap(ens, "bootstrap_errors", "ensemble.bootstrap", _on_bootstrap)
    for fn in ("prediction_for_scheme", "linear_response_chi", "chi_from_piecewise"):
        rec.wrap(berrydd.analytics, fn, "analytics")
    rec.wrap(berrydd.cli, "write_results_csv", "cli.write")
    rec.wrap(berrydd.cli.RunManifest, "write", "cli.write")
    return rec


def layer_metrics(rec):
    """Per-layer metrics (without units) from one traced ``cli.main`` call.

    A span nested in a span of the same name (analytics calling analytics)
    counts once, so busy time is wall time spent inside the layer.
    """
    names = [s[0] for s in rec.spans]
    own = rec.self_times()
    calls = Counter()
    busy = Counter()
    self_s = Counter()
    for i, (name, start, end, parent) in enumerate(rec.spans):
        self_s[name] += own[i]
        if parent >= 0 and names[parent] == name:
            continue
        calls[name] += 1
        busy[name] += end - start
    prop_calls = calls["propagator.propagate"]
    row_steps = rec.counts["propagator.propagate.row_steps"]
    return {
        "noise.substream.calls": calls["noise.substream"],
        "noise.substream.busy_s": busy["noise.substream"],
        "noise.draw.busy_s": self_s["noise.sample_realization"],
        "noise.filter.busy_s": busy["noise.lfilter"],
        "noise.samples": rec.counts["noise.samples"],
        "propagator.propagate.calls": prop_calls,
        "propagator.propagate.busy_s": busy["propagator.propagate"],
        "propagator.propagate.rows_per_call":
            rec.counts["propagator.propagate.rows"] / prop_calls if prop_calls else 0.0,
        "propagator.propagate.row_steps": row_steps,
        "propagator.propagate.ns_per_row_step":
            1e9 * busy["propagator.propagate"] / row_steps if row_steps else 0.0,
        "propagator.reference.calls": calls["propagator.reference"],
        "propagator.reference.busy_s": busy["propagator.reference"],
        "propagator.coherence.busy_s": busy["propagator.coherence"],
        "ensemble.run_ensemble.calls": calls["ensemble.run_ensemble"],
        "ensemble.run_ensemble.self_s": self_s["ensemble.run_ensemble"],
        "ensemble.realizations_used": rec.counts["ensemble.realizations_used"],
        "ensemble.bootstrap.calls": calls["ensemble.bootstrap"],
        "ensemble.bootstrap.busy_s": busy["ensemble.bootstrap"],
        "ensemble.bootstrap.index_elems": rec.counts["ensemble.bootstrap.index_elems"],
        "ensemble.bootstrap.peak_bytes_computed":
            rec.counts["ensemble.bootstrap.peak_bytes_computed"],
        "schedule.build.busy_s": busy["schedule.build"],
        "analytics.calls": calls["analytics"],
        "analytics.busy_s": busy["analytics"],
        "cli.write.busy_s": busy["cli.write"],
    }
