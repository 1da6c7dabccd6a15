import math
import tracemalloc
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from berrydd import analytics as an
from berrydd import ensemble
from berrydd import propagator as prop
from berrydd import schedule as sched
from berrydd.cli import config_from_dict
from berrydd.ensemble import (
    SCHEME_IDS,
    EnsembleResult,
    ExperimentConfig,
    bootstrap_errors,
    build_schedule,
    run_ensemble,
    sweep_beta,
    sweep_theta,
    wrap_angle,
)
from berrydd.noise import sample_realization, substream

THETA = 5 * math.pi / 12


def make_config(**kw):
    base = dict(scheme="cpmg", theta_a=THETA, beta=0.001, eta=0.4,
                kappa=12.0, realizations=400, master_seed=2024)
    base.update(kw)
    return ExperimentConfig(**base)


class TestWrapAngle:
    def test_wraps_into_half_open_interval(self):
        assert wrap_angle(math.pi) == pytest.approx(math.pi)
        assert wrap_angle(-math.pi) == pytest.approx(math.pi)
        assert wrap_angle(3 * math.pi / 2) == pytest.approx(-math.pi / 2)
        assert wrap_angle(0.3) == pytest.approx(0.3)


class TestConfigValidation:
    def test_rejects_unknown_scheme(self):
        with pytest.raises(ValueError, match="scheme"):
            make_config(scheme="udd")

    def test_rejects_bad_counts(self):
        with pytest.raises(ValueError):
            make_config(realizations=0)
        with pytest.raises(ValueError):
            make_config(workers=0)

    def test_rejects_single_realization(self):
        # the bootstrap needs two; fail before any realization runs
        with pytest.raises(ValueError, match="realizations"):
            make_config(realizations=1)
        data = dict(scheme="cpmg", theta_a=THETA, beta=0.001, eta=0.4, realizations=1)
        with pytest.raises(ValueError, match="realizations"):
            config_from_dict(data)

    @pytest.mark.parametrize("name, value", [
        ("master_seed", -1), ("master_seed", 1.5), ("stream_key", -3),
    ])
    def test_rejects_bad_seed_words(self, name, value):
        # the substream key hash takes non-negative integers only; fail at
        # validation, not inside the first draw
        with pytest.raises(ValueError, match=name):
            make_config(**{name: value})
        data = dict(scheme="cpmg", theta_a=THETA, beta=0.001, eta=0.4, **{name: value})
        with pytest.raises(ValueError, match=name):
            config_from_dict(data)

    @pytest.mark.parametrize("name, value", [
        ("bootstrap_resamples", 0), ("bootstrap_resamples", 1),
        ("adaptive_target", 0.0), ("adaptive_target", -0.01),
        ("adaptive_target", math.inf), ("adaptive_target", math.nan),
        ("beta", 0.0), ("beta", -0.001), ("eta", -0.4),
        # "nan <= 0" is false: a non-finite value must be caught on its own
        ("beta", math.nan), ("beta", math.inf), ("eta", math.nan), ("eta", math.inf),
        ("kappa", math.nan), ("kappa", math.inf),
        ("theta_a", 0.0), ("theta_a", math.pi), ("theta_a", 4.0),
        ("dt_divisor", 0),
        # |l| * kappa * divisor = 31.25 for the quarter-loop cpmg segments
        ("kappa", 12.5),
    ])
    def test_rejects_bad_field_by_name(self, name, value):
        # each would fail partway through a run, or run and write NaN or a
        # meaningless stderr; fail at validation instead
        with pytest.raises(ValueError, match=name):
            make_config(**{name: value})
        data = {**dict(scheme="cpmg", theta_a=THETA, beta=0.001, eta=0.4), name: value}
        with pytest.raises(ValueError, match=name):
            config_from_dict(data)

    def test_builds_all_schemes(self):
        for scheme in SCHEME_IDS:
            sched = build_schedule(make_config(scheme=scheme))
            assert sched.total_time == pytest.approx(4 * math.pi * 12.0)


class TestZeroNoise:
    def test_matches_reference_run_exactly(self):
        res = run_ensemble(make_config(eta=0.0, realizations=8))
        assert res.w == pytest.approx(res.w_ref, abs=1e-12)
        assert res.gamma_mean == pytest.approx(res.gamma_ref, abs=1e-12)
        # every realization is the same run, so the spread collapses
        assert res.gamma_stderr == pytest.approx(0.0, abs=1e-12)
        assert res.w_stderr == pytest.approx(0.0, abs=1e-12)
        # away from the pole a small non-adiabatic dip below 1 is physical
        assert 0.99 < res.w <= 1.0

    def test_unit_coherence_near_pole(self):
        # leakage scales as (sin(theta)/kappa)^2 and dies at the pole
        res = run_ensemble(make_config(eta=0.0, theta_a=1e-3, realizations=8))
        assert res.w == pytest.approx(1.0, abs=1e-6)


class TestEstimators:
    def test_cpmg_reference_point(self):
        # dephased observable approaches the closed-form coherence
        res = run_ensemble(make_config())
        assert res.prediction.w == pytest.approx(0.2983, abs=2e-4)
        assert abs(res.w - res.prediction.w) < 0.05
        assert abs(res.w - res.prediction.w) < 3 * res.w_stderr
        # the offset-corrected phase sits on the loop-phase line
        dev = wrap_angle(res.gamma_corrected - wrap_angle(res.prediction.gamma_expected))
        assert abs(dev) < 3 * res.gamma_stderr

    def test_w_within_physical_bounds(self):
        res = run_ensemble(make_config(realizations=100))
        assert 0.0 <= res.w <= 1.0 + 3 * res.w_stderr

    @pytest.mark.parametrize("scheme", SCHEME_IDS)
    def test_estimator_consistency_weak_noise(self, scheme):
        # -ln(W/W_ref) converges to the kernel exponent; the zero-noise
        # reference divides out the scheme-intrinsic pulse leakage so the
        # comparison isolates the noise-induced decay
        res = run_ensemble(make_config(scheme=scheme, eta=0.001))
        measured = -math.log(res.w / res.w_ref)
        sigma = res.w_stderr / res.w
        assert abs(measured - res.chi_exact) < 3 * sigma + 5e-5

    @pytest.mark.parametrize("scheme", ["se", "cpmg"])
    def test_estimator_consistency_reference_noise(self, scheme):
        # at the reference noise power the echo schemes track the kernel
        res = run_ensemble(make_config(scheme=scheme))
        measured = -math.log(res.w)
        sigma = res.w_stderr / res.w
        assert abs(measured - res.chi_exact) < 3 * sigma

    def test_transverse_axis_runs(self):
        res = run_ensemble(make_config(scheme="mirror", noise_axis="transverse",
                                       realizations=64, eta=0.01))
        assert 0.0 <= res.w <= 1.0 + 3 * res.w_stderr
        # chi_exact comes from the radial weights, which do not cancel
        assert res.chi_exact > 0

    @pytest.mark.parametrize("axis", ["longitudinal", "transverse"])
    @pytest.mark.parametrize("scheme", ["cpmg_balanced", "mirror"])
    def test_chi_exact_is_the_kernel_of_the_schedule_weights(self, scheme, axis):
        # one weight route for both axes: bit for bit, no second formula
        config = make_config(scheme=scheme, noise_axis=axis, realizations=2)
        weights = sched.linear_coefficients(build_schedule(config), config.kappa, axis)
        expect = an.chi_from_piecewise(weights, config.params().noise_model())
        assert run_ensemble(config).chi_exact == expect


def _block_route(config):
    """The ensemble rebuilt from public pieces, one 64-row block at a time."""
    schedule = build_schedule(config)
    grid = prop.StepGrid.from_schedule(schedule, config.dt_divisor)
    model = config.params().noise_model()
    n, steps = config.realizations, grid.total_steps
    zs = []
    for lo in range(0, n, 64):
        # noise substreams live under namespace 0 of the point's key
        values = np.stack([
            sample_realization(
                model, steps, grid.dt,
                substream(config.master_seed, config.stream_key, 0, r),
            ).values
            for r in range(lo, min(lo + 64, n))
        ])
        states = prop.evolve_batch(schedule, values, grid)
        zs.append(prop.schedule_coherence(schedule, states))
    ref = prop.evolve_batch(schedule, np.zeros((1, steps)), grid)[0]
    z = np.concatenate(zs)
    # the bootstrap stream is namespace 1
    g_err, w_err = bootstrap_errors(
        z, config.bootstrap_resamples,
        substream(config.master_seed, config.stream_key, 1),
    )
    return dict(
        coherences=z,
        gamma_ref=float(np.angle(prop.schedule_coherence(schedule, ref))),
        gamma_stderr=g_err, w_stderr=w_err,
    )


class TestDeterminism:
    def test_same_seed_same_result(self):
        a = run_ensemble(make_config(realizations=96))
        b = run_ensemble(make_config(realizations=96))
        assert a.gamma_mean == b.gamma_mean
        assert a.w == b.w
        np.testing.assert_array_equal(a.coherences, b.coherences)

    def test_worker_count_invariance(self):
        one = run_ensemble(make_config(realizations=96, workers=1))
        two = run_ensemble(make_config(realizations=96, workers=2))
        assert one.gamma_mean == two.gamma_mean
        assert one.w == two.w
        assert one.gamma_stderr == two.gamma_stderr
        assert one.w_stderr == two.w_stderr
        np.testing.assert_array_equal(one.coherences, two.coherences)

    def test_engine_invariance_ragged_count(self):
        # 200 is not a multiple of the 64-row block: batch layouts differ
        # by worker count, results must not
        runs = [run_ensemble(make_config(realizations=200, workers=w)) for w in (1, 2, 3)]
        expect = _block_route(make_config(realizations=200))
        for res in runs:
            np.testing.assert_array_equal(res.coherences, expect["coherences"])
            assert res.gamma_ref == expect["gamma_ref"]
            assert res.gamma_stderr == expect["gamma_stderr"]
            assert res.w_stderr == expect["w_stderr"]

    @pytest.mark.parametrize("realizations, workers", [(2, 1), (130, 2)])
    def test_two_row_batches(self, realizations, workers):
        # both leave a block or batch of exactly two realization rows
        res = run_ensemble(make_config(realizations=realizations, workers=workers))
        expect = _block_route(make_config(realizations=realizations))
        assert res.realizations_used == realizations
        np.testing.assert_array_equal(res.coherences, expect["coherences"])
        assert res.w_stderr == expect["w_stderr"]

    @pytest.mark.parametrize("realizations, workers, cpus, pool", [
        (200, 50, 8, 8), (2, 50, 8, 2), (200, 50, 1, None),
    ])
    def test_pool_is_capped_at_batches_and_cpus(self, monkeypatch, realizations, workers,
                                                cpus, pool):
        # a pool forks all its workers at its first task; the fake records its
        # size and maps in-process, so no process starts
        sizes = []

        class FakePool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        monkeypatch.setattr(ensemble, "ProcessPoolExecutor", FakePool)
        monkeypatch.setattr(ensemble, "_cpus", lambda: cpus)
        res = run_ensemble(make_config(realizations=realizations, workers=workers))
        assert sizes == ([] if pool is None else [pool])
        expect = run_ensemble(make_config(realizations=realizations))
        np.testing.assert_array_equal(res.coherences, expect.coherences)

    def test_different_seeds_differ(self):
        a = run_ensemble(make_config(realizations=64))
        b = run_ensemble(make_config(realizations=64, master_seed=7))
        assert a.w != b.w


class TestAdaptive:
    def test_stops_when_target_met(self):
        res = run_ensemble(make_config(scheme="mirror", adaptive=True,
                                       adaptive_target=0.01, realizations=400))
        # mirror dephasing is tiny: two blocks suffice
        assert res.realizations_used == 128
        assert res.w_stderr < 0.01

    def test_runs_to_cap_when_noisy(self):
        res = run_ensemble(make_config(scheme="fid", adaptive=True,
                                       adaptive_target=1e-6, realizations=192))
        assert res.realizations_used == 192


def _assert_same_result(res, expect):
    """Every field but the config is equal, bit for bit."""
    for f in fields(EnsembleResult):
        if f.name != "config":
            np.testing.assert_array_equal(getattr(res, f.name), getattr(expect, f.name),
                                          err_msg=f.name)


def _direct_w_stderr(z):
    """The delta-method SE of W over all of ``z``, written out."""
    along = np.real(z * np.exp(-1j * np.angle(z.mean())))
    return 2.0 * np.std(along) / math.sqrt(len(z))


def _brute_force_stop(config):
    """Where the adaptive rule stops, from every block prefix of a full run."""
    z = run_ensemble(replace(config, adaptive=False)).coherences
    for n in range(128, config.realizations + 1, 64):
        _, w_boot = bootstrap_errors(
            z[:n], config.bootstrap_resamples,
            substream(config.master_seed, config.stream_key, 1),
        )
        if _direct_w_stderr(z[:n]) < config.adaptive_target and w_boot < config.adaptive_target:
            return n
    return config.realizations


class TestAdaptiveStopRule:
    @pytest.mark.parametrize("scheme, axis, target, resamples", [
        ("fid", "longitudinal", 0.05, 200), ("fid", "longitudinal", 0.03, 200),
        # needs ~4700 rows: runs to the cap
        ("fid", "longitudinal", 0.01, 200),
        ("mirror", "longitudinal", 0.002, 200), ("mirror", "longitudinal", 0.001, 200),
        ("cpmg", "transverse", 0.01, 200), ("cpmg", "transverse", 0.005, 200),
        # three resamples make a noisy bootstrap: it vetoes prefixes the
        # delta-method SE passes
        ("fid", "longitudinal", 0.05, 3), ("cpmg", "transverse", 0.01, 3),
    ])
    def test_matches_brute_force_reference(self, scheme, axis, target, resamples):
        cfg = make_config(scheme=scheme, noise_axis=axis, adaptive=True,
                          adaptive_target=target, realizations=1024,
                          bootstrap_resamples=resamples)
        res = run_ensemble(cfg)
        n = _brute_force_stop(cfg)
        assert res.realizations_used == n
        # the first n rows of a plain run, with their own bootstrap
        _assert_same_result(res, run_ensemble(replace(cfg, adaptive=False, realizations=n)))
        if n < cfg.realizations:
            assert res.w_stderr < target

    @pytest.mark.parametrize("first_rows, margin, workers", [
        (64, 1.1, 1), (100, 1.0, 1), (1000, 2.0, 1), (64, 1.0, 2), (256, 1.1, 2),
    ])
    def test_batch_growth_changes_no_result(self, monkeypatch, first_rows, margin, workers):
        cfg = make_config(scheme="fid", adaptive=True, adaptive_target=0.03,
                          realizations=2000)
        expect = run_ensemble(cfg)
        monkeypatch.setattr(ensemble, "_ADAPTIVE_FIRST_ROWS", first_rows)
        monkeypatch.setattr(ensemble, "_ADAPTIVE_MARGIN", margin)
        res = run_ensemble(replace(cfg, workers=workers))
        assert res.realizations_used == expect.realizations_used
        _assert_same_result(res, expect)

    @settings(max_examples=40, deadline=None)
    # tight clouds far from zero: raw (unshifted) sums lose ~1e-9 here
    @example(n=400, seed=0, radius=0.5, phase=0.3, ring=False, log_spread=-3.0)
    @example(n=400, seed=1, radius=0.5, phase=-2.0, ring=True, log_spread=-3.0)
    @given(n=st.integers(16, 400), seed=st.integers(0, 2**32 - 1),
           radius=st.floats(0.01, 0.5), phase=st.floats(-math.pi, math.pi),
           ring=st.booleans(), log_spread=st.floats(-3.0, 0.0))
    def test_prefix_stderr_matches_direct_formula(self, n, seed, radius, phase, ring,
                                                  log_spread):
        # coherence clouds spread in phase on a ring, or around a point; the
        # spread stays where the direct formula itself is exact to 1e-12 (two
        # ring points project equally, so a short prefix's spread is rounding)
        rng = np.random.default_rng(seed)
        spread = 10.0 ** log_spread
        if ring:
            z = radius * np.exp(1j * (phase + max(0.05, 3 * spread) * rng.standard_normal(n)))
        else:
            z = radius * np.exp(1j * phase) + spread * (
                rng.standard_normal(n) + 1j * rng.standard_normal(n))
        se = ensemble._prefix_w_stderr(z)
        for k in range(16, n + 1):
            assert se[k - 1] == pytest.approx(_direct_w_stderr(z[:k]), rel=1e-12, abs=0)


class TestBootstrap:
    def test_identical_inputs_zero_error(self):
        z = np.full(100, 0.5 * np.exp(1j * 0.3))
        g, w = bootstrap_errors(z, 200, substream(0, 0))
        assert g == 0.0
        assert w == 0.0

    def test_gaussian_phases_match_parametric_rate(self):
        sigma, n = 0.3, 400
        rng = np.random.default_rng(11)
        z = 0.5 * np.exp(1j * (1.0 + sigma * rng.standard_normal(n)))
        g, _ = bootstrap_errors(z, 2000, substream(1, 0))
        assert g == pytest.approx(sigma / math.sqrt(n), rel=0.15)

    def test_error_shrinks_with_sample_size(self):
        sigma = 0.3
        rng = np.random.default_rng(12)
        z = 0.5 * np.exp(1j * sigma * rng.standard_normal(800))
        g_full, _ = bootstrap_errors(z, 2000, substream(2, 0))
        g_half, _ = bootstrap_errors(z[:400], 2000, substream(2, 1))
        assert g_half / g_full == pytest.approx(math.sqrt(2), rel=0.2)

    def test_needs_two_realizations(self):
        with pytest.raises(ValueError):
            bootstrap_errors(np.array([0.5 + 0j]), 100, substream(0, 0))

    def test_deterministic_given_stream(self):
        rng = np.random.default_rng(13)
        z = 0.5 * np.exp(1j * 0.1 * rng.standard_normal(100))
        a = bootstrap_errors(z, 500, substream(3, 0))
        b = bootstrap_errors(z, 500, substream(3, 0))
        assert a == b

    @pytest.mark.parametrize("n, resamples", [
        (400, 1000),    # many resamples per block
        (5000, 300),
        (20000, 1000),  # 3 resamples per block, the last block partial
        (70000, 5),     # one resample is bigger than a block
    ])
    def test_chunked_resampling_matches_one_draw(self, n, resamples):
        # the result equals drawing every index at once from the same stream
        rng = np.random.default_rng(15)
        z = 0.5 * np.exp(1j * 0.2 * rng.standard_normal(n))
        idx = substream(5, 0).integers(0, n, size=(resamples, n))
        # each resample's mean is its own row reduction; slicing the rows
        # only keeps the reference's gather small
        means = np.concatenate([z[part].mean(axis=1) for part in np.array_split(idx, 20)])
        expect = (float(np.std(wrap_angle(np.angle(means) - np.angle(z.mean())))),
                  float(np.std(2.0 * np.abs(means))))
        assert bootstrap_errors(z, resamples, substream(5, 0)) == expect

    def test_memory_stays_within_a_block(self):
        # 20000 coherences x 1000 resamples would be 480 MB of indices and
        # gathered values at once; blocks keep the peak near 1.5 MB
        z = 0.5 * np.exp(1j * 0.2 * np.random.default_rng(16).standard_normal(20000))
        rng = substream(6, 0)
        tracemalloc.start()
        try:
            bootstrap_errors(z, 1000, rng)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20

    def test_wraps_phase_deviations(self):
        # phases straddling the branch cut must not blow up the error
        rng = np.random.default_rng(14)
        z = 0.5 * np.exp(1j * (math.pi + 0.05 * rng.standard_normal(200)))
        g, _ = bootstrap_errors(z, 1000, substream(4, 0))
        assert g < 0.01


class TestSweeps:
    def test_theta_sweep_layout(self):
        base = make_config(realizations=32)
        grid = [math.pi / 4, math.pi / 2]
        rows = sweep_theta(base, grid, schemes=("fid", "mirror"))
        assert len(rows) == 4
        assert [r.config.scheme for r in rows] == ["fid", "fid", "mirror", "mirror"]
        assert [r.config.theta_a for r in rows] == pytest.approx(grid * 2)
        # distinct points use distinct substreams
        keys = {r.config.stream_key for r in rows}
        assert len(keys) == 4

    def test_beta_sweep_applies_power_rule(self):
        base = make_config(realizations=32)
        rows = sweep_beta(base, [0.005, 0.05], schemes=("cpmg",))
        assert [r.config.beta for r in rows] == pytest.approx([0.005, 0.05])
        assert [r.config.eta for r in rows] == pytest.approx([2.0, 20.0])

    def test_sweep_deterministic(self):
        base = make_config(realizations=32)
        a = sweep_theta(base, [0.5], schemes=("cpmg",))[0]
        b = sweep_theta(base, [0.5], schemes=("cpmg",))[0]
        assert a.w == b.w and a.gamma_mean == b.gamma_mean


def _assert_same_point(res, alone):
    np.testing.assert_array_equal(res.coherences, alone.coherences)
    assert res.gamma_ref == alone.gamma_ref
    assert res.gamma_stderr == alone.gamma_stderr
    assert res.w_stderr == alone.w_stderr


class TestStackedSweeps:
    # 100 realization rows per batch: points of 70 realizations are split
    # across batches, and batches mix points
    SMALL_BATCH = 100 * 240

    @pytest.mark.parametrize("workers, axis", [
        (1, "longitudinal"), (2, "longitudinal"), (1, "transverse"),
    ])
    def test_theta_sweep_equals_per_point_runs(self, monkeypatch, workers, axis):
        base = make_config(realizations=70, workers=workers, noise_axis=axis)
        grid = [0.4, 5 * math.pi / 12, 2.6]
        schemes = ("cpmg_balanced", "mirror")
        alone = [run_ensemble(replace(base, scheme=s, theta_a=t, stream_key=k))
                 for k, (s, t) in enumerate((s, t) for s in schemes for t in grid)]
        monkeypatch.setattr(ensemble, "_BATCH_ELEMS", self.SMALL_BATCH)
        rows = sweep_theta(base, grid, schemes=schemes)
        assert [r.config for r in rows] == [a.config for a in alone]
        for res, one in zip(rows, alone):
            _assert_same_point(res, one)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_beta_sweep_equals_per_point_runs(self, monkeypatch, workers):
        base = make_config(realizations=70, workers=workers)
        grid = [0.001, 0.05, 0.5]
        alone = [run_ensemble(replace(base, scheme=s, beta=b, eta=400 * b, stream_key=k))
                 for k, (s, b) in enumerate((s, b) for s in ("fid", "cpmg") for b in grid)]
        monkeypatch.setattr(ensemble, "_BATCH_ELEMS", self.SMALL_BATCH)
        rows = sweep_beta(base, grid, schemes=("fid", "cpmg"))
        for res, one in zip(rows, alone):
            _assert_same_point(res, one)

    def test_mixed_configs_keep_input_order(self):
        # points of other schemes, counts and adaptive settings interleave
        cfgs = [make_config(scheme="fid", realizations=40, stream_key=1),
                make_config(scheme="mirror", realizations=33, stream_key=2),
                make_config(scheme="fid", realizations=90, stream_key=3, theta_a=1.0),
                make_config(scheme="fid", realizations=192, stream_key=4, adaptive=True)]
        for res, cfg in zip(ensemble.run_ensembles(cfgs), cfgs):
            assert res.config == cfg
            _assert_same_point(res, run_ensemble(cfg))
