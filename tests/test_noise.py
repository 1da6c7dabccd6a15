import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.optimize import curve_fit
from scipy.signal import lfilter as scipy_lfilter

from berrydd import noise
from berrydd.noise import (
    NoiseModel,
    ou_filter,
    sample_realization,
    substream,
    substream_normals,
)


def bartlett_stderr(rho, lag, n):
    """Std error of the lag-k sample autocorrelation of an AR(1) with parameter rho."""
    var = ((1 + rho**2) * (1 - rho ** (2 * lag)) / (1 - rho**2)
           - 2 * lag * rho ** (2 * lag)) / n
    return np.sqrt(var)


class TestModelValidation:
    def test_rejects_negative_alpha(self):
        with pytest.raises(ValueError):
            NoiseModel(alpha=-1.0, gamma=1.0)

    def test_rejects_nonpositive_gamma(self):
        with pytest.raises(ValueError):
            NoiseModel(alpha=1.0, gamma=0.0)


class TestInit:
    # column 0 of an OU path is the stationary draw sqrt(alpha) * z

    def test_zero_power_is_always_zero(self):
        model = NoiseModel(alpha=0.0, gamma=1.0)
        z = substream(1, 0).standard_normal((100, 2))
        assert np.all(ou_filter(model, z, 0.1) == 0.0)

    def test_variance_matches_alpha(self):
        # law of large numbers on the generator itself
        model = NoiseModel(alpha=1.0, gamma=1.0)
        draws = ou_filter(model, substream(2, 0).standard_normal((100_000, 1)), 0.1)[:, 0]
        assert abs(draws.var() - 1.0) < 0.02
        assert abs(draws.mean()) < 0.02

    def test_std_scales_with_sqrt_alpha(self):
        model = NoiseModel(alpha=0.25, gamma=1.0)
        draws = ou_filter(model, substream(3, 0).standard_normal((100_000, 1)), 0.1)[:, 0]
        assert abs(draws.std() - 0.5) < 0.01


class TestStep:
    # column 1 of an OU path is one exact update of column 0

    def test_full_memory_limit(self):
        # gamma*dt -> 0 keeps the previous value
        model = NoiseModel(alpha=1.0, gamma=1e-14)
        z = np.array([[1.2345, substream(4, 0).standard_normal()]])
        assert ou_filter(model, z, 1e-6)[0, 1] == pytest.approx(1.2345, abs=1e-8)

    def test_memoryless_limit(self):
        # gamma*dt -> inf draws fresh Gaussian(0, alpha), independent of the previous value
        model = NoiseModel(alpha=1.0, gamma=1e6)
        z = np.column_stack([np.full(2000, 1e6), substream(5, 0).standard_normal(2000)])
        vals = ou_filter(model, z, 1.0)[:, 1]
        assert abs(vals.mean()) < 0.1
        assert abs(vals.var() - 1.0) < 0.15

    def test_rejects_nonpositive_dt(self):
        with pytest.raises(ValueError):
            ou_filter(NoiseModel(1.0, 1.0), np.zeros((1, 2)), 0.0)

    def test_lag_one_autocorrelation(self):
        # empirical autocorrelation vs exp(-gamma*dt), 1e6 steps
        model = NoiseModel(alpha=1.0, gamma=1.0)
        traj = sample_realization(model, 1_000_000, 0.1, substream(6, 0)).values
        x = traj - traj.mean()
        r1 = np.dot(x[:-1], x[1:]) / np.dot(x, x)
        assert abs(r1 - np.exp(-0.1)) < 0.003


_STAT_MODEL = NoiseModel(alpha=1.0, gamma=1.0)
_STAT_DT = 0.05
_STAT_N = 1_000_000


@pytest.fixture(scope="module")
def traj():
    """One long trajectory shared by the stationarity checks."""
    return sample_realization(_STAT_MODEL, _STAT_N, _STAT_DT, substream(7, 0)).values


class TestTrajectoryStatistics:
    MODEL = _STAT_MODEL
    DT = _STAT_DT
    N = _STAT_N

    def test_stationary_mean(self, traj):
        # correlated-sample stderr: var * (1+rho)/(1-rho) / n
        rho = np.exp(-self.MODEL.gamma * self.DT)
        se = np.sqrt(self.MODEL.alpha * (1 + rho) / (1 - rho) / self.N)
        assert abs(traj.mean()) < 4 * se

    def test_stationary_variance(self, traj):
        rho = np.exp(-self.MODEL.gamma * self.DT)
        se = self.MODEL.alpha * np.sqrt(2 * (1 + rho**2) / (1 - rho**2) / self.N)
        assert abs(traj.var() - self.MODEL.alpha) < 4 * se

    def test_autocorrelation_first_ten_lags(self, traj):
        rho = np.exp(-self.MODEL.gamma * self.DT)
        x = traj - traj.mean()
        denom = np.dot(x, x)
        for lag in range(1, 11):
            rk = np.dot(x[:-lag], x[lag:]) / denom
            expected = np.exp(-self.MODEL.gamma * lag * self.DT)
            assert abs(rk - expected) < 4 * bartlett_stderr(rho, lag, self.N), lag

    def test_spectrum_shape_from_trajectory(self, traj):
        # Lorentzian fit of the FFT of the empirical autocorrelation:
        # recovered bandwidth within 5% of gamma
        x = traj - traj.mean()
        nlag = 2000
        denom = np.dot(x, x) / self.N
        acf = np.array(
            [np.dot(x[:-k], x[k:]) / (self.N - k) for k in range(1, nlag)]
        )
        acf = np.concatenate([[denom], acf]) / denom
        # S(w) ~ Re FFT of acf; Lorentzian fit recovers the bandwidth
        freqs = 2 * np.pi * np.fft.rfftfreq(2 * nlag, d=self.DT)
        spec = np.real(np.fft.rfft(np.concatenate([acf, acf[::-1]]))) * self.DT
        keep = (freqs > 0.05) & (freqs < 5.0)
        popt, _ = curve_fit(
            lambda w, a, g: 2 * a * g / (g * g + w * w),
            freqs[keep], spec[keep], p0=[1.0, 1.0],
        )
        assert abs(popt[1] - self.MODEL.gamma) / self.MODEL.gamma < 0.05


class TestDeterminism:
    def test_same_key_same_bits(self):
        model = NoiseModel(alpha=0.5, gamma=2.0)
        a = sample_realization(model, 1000, 0.1, substream(42, 0, 0, 7)).values
        b = sample_realization(model, 1000, 0.1, substream(42, 0, 0, 7)).values
        assert np.array_equal(a, b)

    def test_independent_of_other_streams(self):
        model = NoiseModel(alpha=0.5, gamma=2.0)
        ref = sample_realization(model, 100, 0.1, substream(42, 0, 0, 3)).values
        # consume a different stream first; stream 3 must not care
        _ = sample_realization(model, 100, 0.1, substream(42, 0, 0, 2)).values
        again = sample_realization(model, 100, 0.1, substream(42, 0, 0, 3)).values
        assert np.array_equal(ref, again)

    def test_distinct_indices_differ(self):
        model = NoiseModel(alpha=0.5, gamma=2.0)
        a = sample_realization(model, 100, 0.1, substream(42, 0, 0, 0)).values
        b = sample_realization(model, 100, 0.1, substream(42, 0, 0, 1)).values
        assert not np.array_equal(a, b)

    def test_matches_explicit_stepping(self):
        # sample_realization implements exactly the stationary start and OU update
        model = NoiseModel(alpha=0.8, gamma=1.3)
        vals = sample_realization(model, 50, 0.2, substream(9, 0)).values
        rng = substream(9, 0)
        z = rng.standard_normal(50)
        k = np.sqrt(model.alpha) * z[0]
        expect = [k]
        decay = np.exp(-model.gamma * 0.2)
        amp = np.sqrt(model.alpha * (1 - decay**2))
        for i in range(1, 50):
            k = k * decay + amp * z[i]
            expect.append(k)
        np.testing.assert_allclose(vals, expect, rtol=1e-12)


@settings(max_examples=60, deadline=None)
@given(
    alpha=st.floats(0.0, 10.0),
    gamma=st.floats(1e-4, 50.0),
    dt=st.floats(1e-3, 5.0),
    n_steps=st.integers(1, 300),
    rows=st.integers(1, 5),
)
def test_batched_filter_matches_rows(alpha, gamma, dt, n_steps, rows):
    # a batch row is bit-for-bit the path sample_realization draws from
    # the same substream
    model = NoiseModel(alpha=alpha, gamma=gamma)
    z = np.stack([substream(5, r).standard_normal(n_steps) for r in range(rows)])
    batch = ou_filter(model, z, dt)
    for r in range(rows):
        one = sample_realization(model, n_steps, dt, substream(5, r)).values
        assert np.array_equal(batch[r], one)


seeds = st.one_of(
    st.sampled_from([0, 2**32 - 1, 2**32, 2**64 - 1]),
    st.integers(0, 2**32 - 1),
    st.integers(2**32, 2**64 - 1),
)


@settings(max_examples=60, deadline=None)
@given(seed=seeds, stream=st.integers(0, 2**40), lo=st.integers(1, 2**34),
       rows=st.integers(1, 12), n_steps=st.integers(1, 40))
@example(seed=2**64 - 1, stream=2**32, lo=2**32 - 3, rows=6, n_steps=5)
def test_substream_normals_match_per_row_streams(seed, stream, lo, rows, n_steps):
    # the vectorised key pass reproduces SeedSequence for every row, also
    # where seed, key or realization index splits into two 32-bit words
    z = substream_normals(seed, (stream, 0), range(lo, lo + rows), n_steps)
    expect = np.stack([substream(seed, stream, 0, r).standard_normal(n_steps)
                       for r in range(lo, lo + rows)])
    assert np.array_equal(z, expect)


def test_substream_normals_reject_bad_words():
    # nothing that SeedSequence would refuse gets hashed
    with pytest.raises(ValueError):
        substream_normals(-1, (0, 0), range(2), 3)
    with pytest.raises(ValueError):
        substream_normals(1, (-3, 0), range(2), 3)
    with pytest.raises(TypeError):
        substream_normals(1.5, (0, 0), range(2), 3)
    with pytest.raises(ValueError):
        substream_normals(1, (0, 0), [-1, 2], 3)
    with pytest.raises(ValueError):
        substream_normals(1, (0, 0), range(2), 3, out=np.empty((3, 3)))


def test_in_place_filter_matches_fresh_output():
    model = NoiseModel(alpha=2.0, gamma=0.3)
    z = np.stack([substream(9, r).standard_normal(40) for r in range(4)])
    expect = ou_filter(model, z, 0.1)
    assert np.array_equal(ou_filter(model, z, 0.1, out=z), expect)
    assert np.array_equal(z, expect)


@settings(max_examples=80, deadline=None)
@given(
    alpha=st.floats(0.0, 10.0),
    gamma=st.floats(1e-4, 50.0),
    dt=st.floats(1e-3, 5.0),
    n_steps=st.integers(1, 300),
    rows=st.integers(1, 40),
    layout=st.sampled_from(["fresh", "c_order", "step_major", "in_place"]),
)
def test_filter_is_bit_equal_to_scipy_lfilter(alpha, gamma, dt, n_steps, rows, layout):
    # the numpy recursion rounds as SciPy's lfilter does, into any output layout
    model = NoiseModel(alpha=alpha, gamma=gamma)
    z = np.stack([substream(11, r).standard_normal(n_steps) for r in range(rows)])
    decay = np.exp(-gamma * dt)
    amp = np.sqrt(alpha * (1.0 - decay * decay))
    expect = np.empty_like(z)
    expect[:, 0] = np.sqrt(alpha) * z[:, 0]
    if n_steps > 1:
        expect[:, 1:], _ = scipy_lfilter([amp], [1.0, -decay], z[:, 1:], axis=1,
                                         zi=decay * expect[:, :1])
        assert np.array_equal(
            noise.lfilter(amp, decay, z[:, 1:], expect[:, 0], np.empty((rows, n_steps - 1))),
            expect[:, 1:])
    out = {"fresh": None, "c_order": np.empty_like(z), "in_place": z,
           "step_major": np.empty((n_steps, rows)).T}[layout]
    got = ou_filter(model, z, dt, out=out)
    assert out is None or got is out
    assert np.array_equal(got, expect)
