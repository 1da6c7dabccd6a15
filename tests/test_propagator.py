import math
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from berrydd import propagator as prop
from berrydd.schedule import (
    Schedule,
    SegmentSpec,
    build_balanced,
    build_cpmg,
    build_fid,
    build_mirror,
    build_se,
    linear_coefficients,
)

KAPPA = 12.0

unit_vectors = st.tuples(
    st.floats(0.01, math.pi - 0.01), st.floats(-math.pi, math.pi)
).map(lambda tp: np.array([
    math.sin(tp[0]) * math.cos(tp[1]),
    math.sin(tp[0]) * math.sin(tp[1]),
    math.cos(tp[0]),
]))


@st.composite
def random_schedules(draw):
    """Schedules of 1-4 half or whole windings joined by random pulses and flips."""
    angles = st.floats(0.1, math.pi - 0.1)
    theta, s = draw(angles), -1
    segments, boundaries = [], []
    for k in range(draw(st.integers(1, 4))):
        if k:
            boundaries.append(draw(st.sampled_from(["pulse", "flip"])))
            theta = math.pi - theta if boundaries[-1] == "flip" else draw(angles)
            s = -s
        segments.append(SegmentSpec(theta, Fraction(draw(st.sampled_from([-2, -1, 1, 2])), 2), s))
    return Schedule(segments=tuple(segments), kappa=6.0, phi0=draw(st.floats(-math.pi, math.pi)),
                    boundaries=tuple(boundaries),
                    final=draw(st.sampled_from([None, "pulse", "flip"])))


def splitting(kappa, theta):
    """Co-rotating eigen-splitting over B0 for the anticlockwise sense, the
    reference of the phase-rate checks:
    sqrt((1 - cos(theta)/kappa)^2 + sin^2(theta)/kappa^2)."""
    w = 1.0 / kappa
    return math.sqrt((1.0 - w * math.cos(theta)) ** 2 + (w * math.sin(theta)) ** 2)


def wrap(x):
    return (x + np.pi) % (2 * np.pi) - np.pi


def pulse_matrix(phi):
    """The matrix of the pi pulse the stepper applies at drive azimuth phi."""
    return np.array(prop._pulse(phi, *np.eye(2, dtype=complex)))


def noiseless_coherence(schedule, divisor=10):
    grid = prop.StepGrid.from_schedule(schedule, divisor)
    state = prop.evolve_batch(schedule, np.zeros((1, grid.total_steps)), grid)[0]
    return prop.schedule_coherence(schedule, state)


class TestStepGrid:
    def test_default_grid_for_cpmg(self):
        grid = prop.StepGrid.from_schedule(build_cpmg(1.0, KAPPA), 10)
        assert grid.dt == pytest.approx(2 * math.pi / 10)
        assert grid.steps_per_segment == (60, 120, 60)
        assert grid.total_steps == 240

    def test_rejects_fractional_steps(self):
        with pytest.raises(ValueError, match="integer"):
            prop.StepGrid.from_schedule(build_cpmg(1.0, 12.5), 10)

    def test_finer_divisor_fixes_it(self):
        grid = prop.StepGrid.from_schedule(build_cpmg(1.0, 12.5), 20)
        assert grid.steps_per_segment == (125, 250, 125)


class TestSwapPulse:
    # the pi pulse the stepper applies at a segment's end azimuth phi

    @given(n=unit_vectors)
    @settings(max_examples=100)
    def test_anticommutes_with_field(self, n):
        p = pulse_matrix(math.atan2(n[1], n[0]))
        ns = n[0] * np.array([[0, 1], [1, 0]]) + n[1] * np.array([[0, -1j], [1j, 0]]) \
            + n[2] * np.array([[1, 0], [0, -1]])
        np.testing.assert_allclose(p @ ns @ p, -ns, atol=1e-12)

    @given(phi=st.floats(-math.pi, math.pi))
    @settings(max_examples=50)
    def test_involution(self, phi):
        p = pulse_matrix(phi)
        np.testing.assert_allclose(p @ p, np.eye(2), atol=1e-12)

    @given(n=unit_vectors)
    @settings(max_examples=50)
    def test_exchanges_eigenstates(self, n):
        theta = math.acos(np.clip(n[2], -1, 1))
        phi = math.atan2(n[1], n[0])
        p = pulse_matrix(phi)
        up = prop.eigenstate(theta, phi, 1)
        down = prop.eigenstate(theta, phi, -1)
        assert abs(down.conj() @ (p @ up)) == pytest.approx(1.0, abs=1e-12)
        assert abs(up.conj() @ (p @ down)) == pytest.approx(1.0, abs=1e-12)


class TestStatesAndReadout:
    def test_pole_superposition(self):
        # theta -> 0: (|0> - |1>)/sqrt(2) with this eigenstate convention
        psi = prop.initial_superposition([0.0, 0.0, 1.0])
        np.testing.assert_allclose(psi, [1 / math.sqrt(2), -1 / math.sqrt(2)], atol=1e-12)

    @given(n=unit_vectors)
    @settings(max_examples=50)
    def test_normalized(self, n):
        assert np.linalg.norm(prop.initial_superposition(n)) == pytest.approx(1.0)

    @given(n=unit_vectors)
    @settings(max_examples=50)
    def test_eigenstates_orthogonal(self, n):
        theta = math.acos(np.clip(n[2], -1, 1))
        phi = math.atan2(n[1], n[0])
        up = prop.eigenstate(theta, phi, 1)
        down = prop.eigenstate(theta, phi, -1)
        assert abs(up.conj() @ down) < 1e-14

    @given(n=unit_vectors)
    @settings(max_examples=50)
    def test_immediate_readout_is_half(self, n):
        # a whole-winding loop reads out in the basis it started in
        theta = math.acos(np.clip(n[2], -1, 1))
        s = replace(build_fid(theta, 2, KAPPA), phi0=math.atan2(n[1], n[0]))
        z = prop.schedule_coherence(s, prop.initial_superposition(n))
        assert z == pytest.approx(0.5, abs=1e-12)

    def test_pure_eigenstate_reads_zero(self):
        theta = math.acos(0.8)
        z = prop.schedule_coherence(build_fid(theta, 2, KAPPA), prop.eigenstate(theta, 0.0, 1))
        assert abs(z) < 1e-14


class TestNoiselessEvolution:
    # non-adiabatic leakage scales as delta^2 = (sin(theta)/kappa)^2; both the
    # coherence-magnitude dip and the phase wiggle carry that scale
    @pytest.mark.parametrize("theta", [math.pi / 6, math.pi / 4, math.pi / 3,
                                       5 * math.pi / 12, math.pi / 2])
    def test_se_phase_and_magnitude(self, theta):
        z = noiseless_coherence(build_se(theta, KAPPA))
        delta2 = (math.sin(theta) / KAPPA) ** 2
        assert 0.5 - abs(z) < 5 * delta2 + 1e-9
        assert abs(z) < 0.5 + 1e-9
        err = wrap(np.angle(z) + 4 * math.pi * math.cos(theta))
        assert abs(err) < 6 * math.sin(theta) ** 2 / KAPPA**2 + 2e-3

    @pytest.mark.parametrize("make,theta", [
        (build_cpmg, math.pi / 3),
        (build_mirror, math.pi / 3),
        (build_mirror, math.pi / 6),
    ])
    def test_echo_phase(self, make, theta):
        z = noiseless_coherence(make(theta, KAPPA))
        err = wrap(np.angle(z) + 4 * math.pi * math.cos(theta))
        # within the non-adiabatic tolerance scale
        assert abs(err) < 2 * math.pi * math.sin(theta) ** 2 / KAPPA

    def test_fid_nonadiabatic_offset(self):
        # winding-2 free loop: phase offset +2*pi*sin^2/kappa survives (no echo)
        theta = math.pi / 6
        z = noiseless_coherence(build_fid(theta, 2, KAPPA))
        err = wrap(np.angle(z) + 4 * math.pi * math.cos(theta))
        expected = 2 * math.pi * math.sin(theta) ** 2 / KAPPA
        assert err == pytest.approx(expected, rel=0.1)

    def test_stepped_matches_exact_oracle_and_converges(self):
        # the closed-form segment propagator is the stepping-free oracle;
        # midpoint stepping converges to it at second order in dt
        s = build_se(math.pi / 3, KAPPA)
        z_exact = prop.schedule_coherence(s, prop.evolve_exact(s))
        errs = []
        for divisor in (40, 80, 160):
            z = noiseless_coherence(s, divisor)
            errs.append(abs(wrap(np.angle(z) - np.angle(z_exact))))
        assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.2)
        assert errs[1] / errs[2] == pytest.approx(4.0, rel=0.2)
        assert errs[2] < 5e-6

    def test_grid_convergence_at_fine_divisor(self):
        # halving dt at an already-fine grid moves the phase by < 1e-6 rad
        s = build_se(math.pi / 3, KAPPA)
        z1 = noiseless_coherence(s, 320)
        z2 = noiseless_coherence(s, 640)
        assert abs(wrap(np.angle(z1) - np.angle(z2))) < 1e-6

    def test_norm_drift_over_full_run(self):
        s = build_mirror(1.0, KAPPA)
        grid = prop.StepGrid.from_schedule(s, 10)
        state = prop.evolve_batch(s, np.zeros((1, grid.total_steps)), grid)[0]
        assert abs(np.linalg.norm(state) - 1.0) < 1e-9

    def test_collinear_splitting(self):
        assert splitting(KAPPA, 0.0) == pytest.approx(abs(1 - 1 / KAPPA), rel=1e-15)

    def test_static_drive_limit(self):
        assert splitting(1e12, 1.3) == pytest.approx(1.0, abs=1e-11)

    def test_rotating_frame_splitting_matches_matrix_oracle(self):
        # diagonalize the co-rotating generator explicitly and compare the
        # gap against the closed-form splitting
        for theta in (0.3, 1.0, 2.0):
            for sign in (1, -1):
                w = sign / KAPPA
                h = 0.5 * np.array([
                    [1.0 - w * math.cos(theta), w * math.sin(theta)],
                    [w * math.sin(theta), -(1.0 - w * math.cos(theta))],
                ])
                gap = np.linalg.eigvalsh(h)[1] - np.linalg.eigvalsh(h)[0]
                # a clockwise drive splits like the anticlockwise one on the
                # mirrored cone
                ref_theta = theta if sign == 1 else math.pi - theta
                assert gap == pytest.approx(splitting(KAPPA, ref_theta), rel=1e-12)

    def test_noiseless_phase_rate_matches_splitting(self):
        # one full winding: the branch phase difference accumulates at the
        # splitting rate (exact propagator; modulo 2 pi comparison)
        theta = 0.9
        s = build_fid(theta, 1, KAPPA)
        z = prop.schedule_coherence(s, prop.evolve_exact(s))
        t1 = s.total_time  # the winding-1 loop lasts 2*pi*kappa
        predicted = wrap(splitting(KAPPA, theta) * t1)
        # the tilt-angle interference modulates at delta ~ sin(theta)/kappa
        assert abs(wrap(np.angle(z) - predicted)) < 2 * math.sin(theta) / KAPPA


class TestSwapCorrectness:
    def test_pulsed_eigenstate_lands_on_partner(self):
        theta, phi = 1.1, 0.7
        up = prop.eigenstate(theta, phi, 1)
        out = pulse_matrix(phi) @ up
        down = prop.eigenstate(theta, phi, -1)
        assert abs(down.conj() @ out) == pytest.approx(1.0, abs=1e-12)


class TestConstantNoise:
    # frozen-noise runs probe the linear weight of the random phase

    @pytest.mark.parametrize("make", [
        lambda: build_fid(5 * math.pi / 12, 2, KAPPA),
        lambda: build_balanced(5 * math.pi / 12, KAPPA, "cpmg"),
        lambda: build_mirror(5 * math.pi / 12, KAPPA),
    ])
    def test_constant_offset_oracle_matches_stepper(self, make):
        # a constant longitudinal offset keeps each segment a uniform
        # rotation; midpoint stepping with that noise value in every step
        # converges to the closed form at second order in dt
        s = make()
        offset = -0.13
        z_exact = prop.schedule_coherence(s, prop.evolve_exact(s, offset=offset))
        errs = []
        for divisor in (40, 80, 160):
            grid = prop.StepGrid.from_schedule(s, divisor)
            state = prop.evolve_batch(s, np.full((1, grid.total_steps), offset), grid)[0]
            errs.append(abs(prop.schedule_coherence(s, state) - z_exact))
        assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.2)
        assert errs[1] / errs[2] == pytest.approx(4.0, rel=0.2)
        assert errs[2] < 1e-4

    def _phase_shift(self, schedule, c, divisor=10):
        grid = prop.StepGrid.from_schedule(schedule, divisor)
        z0 = prop.schedule_coherence(
            schedule, prop.evolve_batch(schedule, np.zeros((1, grid.total_steps)), grid)[0])
        z = prop.schedule_coherence(
            schedule, prop.evolve_batch(schedule, np.full((1, grid.total_steps), c), grid)[0])
        return wrap(np.angle(z) - np.angle(z0))

    def test_fid_slope_matches_weight_sum(self):
        # slope = -(sum_k c_k d_k); the weights are the 1/kappa expansion, so
        # a few-percent O(kappa^-2) discrepancy remains at kappa = 12
        theta = 5 * math.pi / 12
        s = build_fid(theta, 2, KAPPA)
        slope_pred = -sum(c * d for c, d in linear_coefficients(s, KAPPA))
        eps = 1e-4
        slope_num = (self._phase_shift(s, eps) - self._phase_shift(s, -eps)) / (2 * eps)
        assert slope_num == pytest.approx(slope_pred, rel=0.05)

    def test_se_slope(self):
        theta = 0.8
        s = build_se(theta, KAPPA)
        slope_pred = -sum(c * d for c, d in linear_coefficients(s, KAPPA))
        eps = 1e-4
        slope_num = (self._phase_shift(s, eps) - self._phase_shift(s, -eps)) / (2 * eps)
        assert slope_num == pytest.approx(slope_pred, rel=0.05)

    def test_mirror_dc_immunity(self):
        # the mirrored weights cancel the constant-noise phase to O(c^2)
        s = build_mirror(5 * math.pi / 12, KAPPA)
        d1 = self._phase_shift(s, 1e-3)
        d2 = self._phase_shift(s, 2e-3)
        assert abs(d1) < 5e-5
        assert d2 / d1 == pytest.approx(4.0, rel=0.5)  # quadratic growth

    def test_balanced_linear_immunity(self):
        s = build_balanced(5 * math.pi / 12, KAPPA, base="cpmg")
        eps = 1e-4
        slope = (self._phase_shift(s, eps) - self._phase_shift(s, -eps)) / (2 * eps)
        # the exact balance nulls the leading weight; residual is O(kappa^-2)
        assert abs(slope) < 0.05 * 4 * math.pi * KAPPA * abs(math.cos(5 * math.pi / 12))


class TestEvolveValidation:
    def test_noise_length_mismatch(self):
        s = build_se(1.0, KAPPA)
        grid = prop.StepGrid.from_schedule(s, 10)
        with pytest.raises(ValueError, match="steps"):
            prop.evolve_batch(s, np.zeros((1, 7)), grid)

    def test_single_matches_batch_row(self):
        s = build_cpmg(1.0, KAPPA)
        grid = prop.StepGrid.from_schedule(s, 10)
        rng = np.random.default_rng(5)
        vals = rng.normal(0, 0.05, size=(3, grid.total_steps))
        batch = prop.evolve_batch(s, vals, grid)
        single = prop.evolve_batch(s, vals[1], grid)[0]
        np.testing.assert_allclose(single, batch[1], atol=1e-12)

    @pytest.mark.parametrize("axis", ["longitudinal", "transverse"])
    def test_step_major_noise_gives_the_same_states(self, axis):
        # the ensemble batches hold their paths step-major; the layout must
        # not move a bit of the states
        s = build_cpmg(1.0, KAPPA)
        grid = prop.StepGrid.from_schedule(s, 10)
        vals = np.random.default_rng(6).normal(0, 0.05, size=(37, grid.total_steps))
        step_major = np.zeros(vals.shape[::-1]).T
        step_major[:] = vals
        assert step_major.flags.f_contiguous and not step_major.flags.c_contiguous
        assert np.array_equal(prop.evolve_batch(s, step_major, grid, noise_axis=axis),
                              prop.evolve_batch(s, vals, grid, noise_axis=axis))


class TestPerRowSchedules:
    BUILDERS = {
        "fid": lambda t: build_fid(t, 2, KAPPA),
        "cpmg": lambda t: build_cpmg(t, KAPPA),
        "cpmg_balanced": lambda t: build_balanced(t, KAPPA, base="cpmg"),
        "mirror": lambda t: build_mirror(t, KAPPA),
    }

    @pytest.mark.parametrize("axis", ["longitudinal", "transverse"])
    @pytest.mark.parametrize("scheme", sorted(BUILDERS))
    def test_stacked_rows_equal_separate_batches(self, scheme, axis):
        # one scheme at three angles in one call: each row's final state is
        # bit-for-bit the state of its own schedule's batch
        schedules = [self.BUILDERS[scheme](t) for t in (0.4, 1.3, 2.6)]
        grid = prop.StepGrid.from_schedule(schedules[0], 10)
        rows = [2, 5, 3]
        noise = np.random.default_rng(8).normal(0.0, 0.2, (sum(rows), grid.total_steps))
        per_row = [s for s, n in zip(schedules, rows) for _ in range(n)]
        stacked = prop.evolve_batch(per_row, noise, grid, noise_axis=axis)
        cuts = np.cumsum(rows)[:-1]
        expect = np.concatenate([
            prop.evolve_batch(s, part, grid, noise_axis=axis)
            for s, part in zip(schedules, np.split(noise, cuts))
        ])
        np.testing.assert_array_equal(stacked, expect)

    def test_rejects_schedules_of_different_structure(self):
        se, cpmg = build_se(1.0, KAPPA), build_cpmg(1.0, KAPPA)
        grid = prop.StepGrid.from_schedule(se, 10)
        with pytest.raises(ValueError, match="cone angles"):
            prop.evolve_batch([se, cpmg], np.zeros((2, grid.total_steps)), grid)
        with pytest.raises(ValueError, match="schedules for"):
            prop.evolve_batch([se], np.zeros((2, grid.total_steps)), grid)

    def test_two_states_give_two_coherences(self):
        # a (2, 2) array is a batch of two states, not a density matrix
        s = build_cpmg(1.0, KAPPA)
        states = np.stack([prop.evolve_exact(s), prop.evolve_exact(s, offset=0.05)])
        z = prop.schedule_coherence(s, states)
        assert z.shape == (2,)
        for zi, state in zip(z, states):
            assert zi == pytest.approx(prop.schedule_coherence(s, state), abs=1e-15)

    def test_batch_coherence_does_not_depend_on_the_split(self):
        # a batch longer than one readout chunk gives, bit for bit, what
        # its pieces give alone: ensemble results must not depend on batches
        s = build_cpmg(1.0, KAPPA)
        rng = np.random.default_rng(5)
        shape = (2 * prop._READOUT_ROWS + 37, 2)
        states = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        whole = prop.schedule_coherence(s, states)
        parts = [prop.schedule_coherence(s, part) for part in np.array_split(states, 7)]
        np.testing.assert_array_equal(whole, np.concatenate(parts))


class TestStepper:
    @given(schedule=random_schedules(), seed=st.integers(0, 2**32 - 1),
           scale=st.floats(0.0, 1.0), axis=st.sampled_from(["longitudinal", "transverse"]))
    @settings(max_examples=60, deadline=None)
    def test_stepper_keeps_norm_over_random_schedules(self, schedule, seed, scale, axis):
        grid = prop.StepGrid.from_schedule(schedule, 2)
        noise = np.random.default_rng(seed).normal(0.0, scale, (3, grid.total_steps))
        states = prop.evolve_batch(schedule, noise, grid, noise_axis=axis)
        np.testing.assert_allclose(np.linalg.norm(states, axis=1), 1.0, rtol=0, atol=1e-12)

    def test_zero_field_step_is_the_identity(self):
        # at theta = 1e-200 sin^2(theta) underflows to 0, so a longitudinal
        # noise of -1 cancels the field exactly: the guarded step must leave
        # the state alone, not divide 0 by 0
        s = build_fid(1e-200, 2, KAPPA)
        grid = prop.StepGrid.from_schedule(s, 10)
        noise = np.zeros((2, grid.total_steps))
        noise[0] = -1.0
        states = prop.evolve_batch(s, noise, grid)
        assert not np.isnan(states).any()
        psi0 = prop.initial_superposition(prop._direction(1e-200, s.phi0))
        np.testing.assert_array_equal(states[0], psi0)
        # the zero-noise row beside it is what it is alone
        np.testing.assert_array_equal(states[1], prop.evolve_batch(s, noise[1:], grid)[0])
