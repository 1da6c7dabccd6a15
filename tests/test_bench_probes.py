"""The traced benchmark patches names of the package; they must all exist.

``bench/spans.py`` wraps public functions (and ``noise.lfilter``) by name.
A refactor that drops one makes every traced benchmark iteration fail, so
installing the probes is checked here.
"""

import importlib.util
from pathlib import Path

from berrydd import ensemble, noise

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_probes_install_trace_and_restore():
    spans = _load_spans()
    lfilter = noise.lfilter
    rec = spans.install_berrydd_probes()
    try:
        # looked up through the module, where the probes patch it
        cfg = ensemble.ExperimentConfig(scheme="fid", theta_a=1.0, beta=0.001,
                                        eta=0.4, realizations=8)
        ensemble.run_ensemble(cfg)
        metrics = spans.layer_metrics(rec)
    finally:
        rec.restore()
    assert noise.lfilter is lfilter
    assert metrics["ensemble.run_ensemble.calls"] == 1
    assert metrics["ensemble.realizations_used"] == 8
    assert metrics["propagator.propagate.calls"] == 1
    assert metrics["noise.filter.busy_s"] > 0


def test_probes_trace_a_stacked_sweep():
    # a traced theta_sweep iteration: the points of a scheme share one batch
    spans = _load_spans()
    lfilter = noise.lfilter
    rec = spans.install_berrydd_probes()
    try:
        base = ensemble.ExperimentConfig(scheme="fid", theta_a=1.0, beta=0.001,
                                         eta=0.4, realizations=8)
        results = ensemble.sweep_theta(base, [0.5, 1.0])
        metrics = spans.layer_metrics(rec)
    finally:
        rec.restore()
    assert noise.lfilter is lfilter
    n_schemes = len(ensemble.THETA_SWEEP_SCHEMES)
    assert len(results) == 2 * n_schemes
    assert metrics["propagator.propagate.calls"] == n_schemes
    # two points of 8 realizations, each behind its reference row
    assert metrics["propagator.propagate.rows_per_call"] == 18
    # noise rows are keyed in one pass per point; substream serves the bootstrap
    assert metrics["noise.substream.calls"] == len(results)
    assert metrics["ensemble.bootstrap.calls"] == len(results)


def test_probes_trace_an_adaptive_run():
    # a traced adaptive iteration: one bootstrap where the delta-method SE
    # first passes, reused for the result, and a few growing batches
    spans = _load_spans()
    rec = spans.install_berrydd_probes()
    try:
        cfg = ensemble.ExperimentConfig(scheme="fid", theta_a=1.3, beta=0.001, eta=0.4,
                                        realizations=2000, adaptive=True,
                                        adaptive_target=0.03)
        res = ensemble.run_ensemble(cfg)
        metrics = spans.layer_metrics(rec)
    finally:
        rec.restore()
    assert 128 <= res.realizations_used < 2000
    assert metrics["ensemble.realizations_used"] == res.realizations_used
    assert 1 <= metrics["ensemble.bootstrap.calls"] <= 3
    assert metrics["propagator.propagate.calls"] <= 4
