import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from berrydd.schedule import (
    Schedule,
    SegmentSpec,
    build_balanced,
    build_cpmg,
    build_fid,
    build_mirror,
    build_se,
    dynamic_phase_sum,
    expected_phase_difference,
    linear_coefficients,
    solve_theta_c_approx,
    solve_theta_c_exact,
)

KAPPA = 12.0
THETA_REF = 5 * math.pi / 12

angles = st.floats(min_value=0.05, max_value=math.pi - 0.05)
kappas = st.floats(min_value=5.0, max_value=200.0)


def balance_residual(theta_a, theta_c, kappa):
    lhs = math.cos(theta_c) + math.sin(theta_c) ** 2 / kappa
    rhs = math.cos(theta_a) - math.sin(theta_a) ** 2 / kappa
    return lhs - rhs


class TestSegmentSpec:
    def test_rejects_bad_theta(self):
        for theta in (0.0, math.pi, -0.1, 4.0):
            with pytest.raises(ValueError):
                SegmentSpec(theta, Fraction(1), -1)

    def test_rejects_zero_winding(self):
        with pytest.raises(ValueError):
            SegmentSpec(1.0, Fraction(0), -1)

    def test_rejects_bad_branch_label(self):
        with pytest.raises(ValueError):
            SegmentSpec(1.0, Fraction(1), 0)


class TestBuilders:
    def test_fid_structure(self):
        s = build_fid(math.pi / 3, 2, KAPPA)
        assert len(s.segments) == 1
        assert s.segments[0].l == 2
        assert s.segments[0].s == -1
        assert s.final is None  # no closing swap
        # duration 2*pi*|l|*kappa = 4*pi*kappa = T
        assert s.total_time == pytest.approx(4 * math.pi * KAPPA, rel=1e-15)

    def test_fid_rejects_zero_winding(self):
        with pytest.raises(ValueError):
            build_fid(1.0, 0, KAPPA)

    def test_se_structure(self):
        s = build_se(math.pi / 4, KAPPA)
        assert [seg.l for seg in s.segments] == [1, -1]
        assert [seg.s for seg in s.segments] == [-1, 1]
        assert s.final == "pulse"
        assert s.boundaries == ("pulse",)

    def test_cpmg_durations(self):
        s = build_cpmg(1.0, KAPPA)
        t = s.total_time
        assert [seg.l for seg in s.segments] == [Fraction(1, 2), -1, Fraction(1, 2)]
        assert s.durations() == pytest.approx([t / 4, t / 2, t / 4])
        assert s.final is None

    def test_mirror_structure(self):
        theta = 1.0
        s = build_mirror(theta, KAPPA)
        assert [seg.l for seg in s.segments] == [
            Fraction(1, 2), Fraction(-1, 2), Fraction(-1, 2), Fraction(1, 2)]
        assert [seg.s for seg in s.segments] == [-1, 1, -1, 1]
        assert [seg.theta for seg in s.segments] == pytest.approx(
            [theta, theta, math.pi - theta, math.pi - theta])
        assert s.boundaries == ("pulse", "flip", "pulse")
        assert s.final == "flip"
        # the closing flip restores the starting direction
        th_r, phi_r = s.readout_direction()
        assert th_r == pytest.approx(theta)
        assert phi_r % (2 * math.pi) == pytest.approx(0.0, abs=1e-12)

    def test_balanced_kappa_limit_reduces_to_plain(self):
        for base, plain in (("se", build_se), ("cpmg", build_cpmg)):
            bal = build_balanced(THETA_REF, 1e9, base=base)
            ref = plain(THETA_REF, 1e9)
            for a, b in zip(bal.segments, ref.segments):
                assert a.theta == pytest.approx(b.theta, abs=1e-8)
                assert a.l == b.l and a.s == b.s

    def test_flip_requires_mirrored_theta(self):
        with pytest.raises(ValueError):
            Schedule(
                segments=(SegmentSpec(1.0, Fraction(1), -1),
                          SegmentSpec(1.2, Fraction(-1), 1)),
                kappa=KAPPA,
                boundaries=("flip",),
            )

    def test_s_must_alternate(self):
        with pytest.raises(ValueError):
            Schedule(
                segments=(SegmentSpec(1.0, Fraction(1), -1),
                          SegmentSpec(1.0, Fraction(-1), -1)),
                kappa=KAPPA,
                boundaries=("pulse",),
            )

    def test_low_kappa_warns(self):
        with pytest.warns(UserWarning, match="adiabatic"):
            build_se(1.0, 3.0)


class TestThetaCSolvers:
    def test_exact_reference_point(self):
        # independent oracle: numpy root of c^2 - kappa c + (kappa R - 1)
        target = math.cos(THETA_REF) - math.sin(THETA_REF) ** 2 / 12.0
        roots = np.roots([1.0, -12.0, 12.0 * target - 1.0])
        root = min(roots, key=abs)
        tc = solve_theta_c_exact(THETA_REF, 12.0)
        assert math.cos(tc) == pytest.approx(root, abs=1e-12)
        assert math.cos(tc) == pytest.approx(0.09854, abs=1e-5)
        assert tc == pytest.approx(1.4721, abs=1e-4)

    def test_exact_quadratic_coefficient(self):
        # the reference quadratic is c^2 - 12 c + 1.17282 at theta_a = 5pi/12
        target = math.cos(THETA_REF) - math.sin(THETA_REF) ** 2 / 12.0
        assert 12.0 * target - 1.0 == pytest.approx(1.17282, abs=1e-5)

    @given(theta_a=angles, kappa=kappas)
    @settings(max_examples=200)
    def test_exact_balance_residual(self, theta_a, kappa):
        tc = solve_theta_c_exact(theta_a, kappa)
        assert abs(balance_residual(theta_a, tc, kappa)) < 1e-12

    def test_exact_kappa_limit(self):
        assert solve_theta_c_exact(1.1, 1e9) == pytest.approx(1.1, abs=1e-8)

    def test_no_root_for_extreme_angle_small_kappa(self):
        with pytest.raises(ValueError):
            solve_theta_c_exact(math.pi - 1e-3, 1.5)

    def test_approx_reference_point(self):
        # direct evaluation of the adiabatic-expansion formula
        ca = math.cos(THETA_REF)
        num = ca - 2 / 12 + 12**-2 * ca / (1 + 12**-2)
        den = 1 + (12**-2 - 2 * ca / 12) / (1 + 12**-2)
        assert math.cos(solve_theta_c_approx(THETA_REF, 12.0)) == pytest.approx(
            num / den, rel=1e-12)
        assert math.cos(solve_theta_c_approx(THETA_REF, 12.0)) == pytest.approx(
            0.097440, abs=1e-6)

    def test_approx_kappa_limit(self):
        assert solve_theta_c_approx(0.8, 1e9) == pytest.approx(0.8, abs=1e-8)

    def test_approx_gap_shrinks_with_kappa(self):
        # gap is O(1/kappa^2): doubling kappa shrinks it by >= 4x (approximately)
        gaps = []
        for kappa in (12.0, 24.0, 48.0):
            gap = abs(
                math.cos(solve_theta_c_approx(THETA_REF, kappa))
                - math.cos(solve_theta_c_exact(THETA_REF, kappa))
            )
            gaps.append(gap)
        assert gaps[0] == pytest.approx(1.1e-3, abs=2e-4)
        assert gaps[0] / gaps[1] >= 3.8
        assert gaps[1] / gaps[2] >= 3.8


class TestPhaseDifference:
    @given(theta=angles)
    @settings(max_examples=100)
    def test_se_loop_phase(self, theta):
        assert expected_phase_difference(build_se(theta, KAPPA)) == pytest.approx(
            -4 * math.pi * math.cos(theta), abs=1e-12)

    def test_se_reference_value(self):
        assert expected_phase_difference(build_se(math.pi / 4, KAPPA)) == pytest.approx(
            -8.886, abs=1e-3)

    def test_equatorial_loop_vanishes(self):
        assert expected_phase_difference(build_se(math.pi / 2, KAPPA)) == pytest.approx(
            0.0, abs=1e-12)

    def test_cpmg_reference_value(self):
        assert expected_phase_difference(build_cpmg(5 * math.pi / 12, KAPPA)) == \
            pytest.approx(-3.25242, abs=1e-5)

    def test_fid_winding_two(self):
        theta = 0.9
        assert expected_phase_difference(build_fid(theta, 2, KAPPA)) == pytest.approx(
            -4 * math.pi * math.cos(theta), rel=1e-12)

    def test_balanced_two_angle_phase(self):
        tc = solve_theta_c_exact(THETA_REF, 12.0)
        expected = -2 * math.pi * (math.cos(THETA_REF) + math.cos(tc))
        for base in ("se", "cpmg"):
            s = build_balanced(THETA_REF, 12.0, base=base)
            assert expected_phase_difference(s) == pytest.approx(expected, rel=1e-12)
        assert expected == pytest.approx(-2.2453, abs=1e-4)

    @given(theta=angles)
    @settings(max_examples=50)
    def test_mirror_keeps_full_loop_phase(self, theta):
        assert expected_phase_difference(build_mirror(theta, KAPPA)) == pytest.approx(
            -4 * math.pi * math.cos(theta), abs=1e-12)


class TestLinearCoefficients:
    def test_near_pole_weight_is_unity(self):
        s = build_se(1e-9, KAPPA)
        for c, _ in linear_coefficients(s, KAPPA):
            assert abs(abs(c) - 1.0) < 1e-9

    def test_se_equator_residual_weights(self):
        # both weights +1/kappa: the unkillable geometric residual
        coeffs = linear_coefficients(build_se(math.pi / 2, 12.0), 12.0)
        assert [c for c, _ in coeffs] == pytest.approx([1 / 12, 1 / 12])

    def test_mirror_sign_ledger(self):
        theta = 0.7
        coeffs = [c for c, _ in linear_coefficients(build_mirror(theta, KAPPA), KAPPA)]
        ct, g = math.cos(theta), math.sin(theta) ** 2 / KAPPA
        assert coeffs == pytest.approx([-ct + g, ct + g, ct - g, -ct - g])

    @given(theta=angles, kappa=kappas)
    @settings(max_examples=100)
    def test_balanced_weights_match(self, theta, kappa):
        s = build_balanced(theta, kappa, base="cpmg")
        coeffs = [c for c, _ in linear_coefficients(s, kappa)]
        assert abs(abs(coeffs[0]) - abs(coeffs[1])) < 1e-12

    def test_rejects_unknown_axis(self):
        with pytest.raises(ValueError, match="noise_axis"):
            linear_coefficients(build_se(0.7, KAPPA), KAPPA, "radial")

    @given(theta=angles)
    @settings(max_examples=100)
    def test_mirror_dc_sum_vanishes(self, theta):
        coeffs = linear_coefficients(build_mirror(theta, KAPPA), KAPPA)
        total = sum(c * d for c, d in coeffs)
        scale = sum(abs(c) * d for c, d in coeffs)
        assert abs(total) < 1e-12 * max(scale, 1.0)


class TestStructuralInvariants:
    @pytest.mark.parametrize("make", [
        lambda: build_se(0.9, KAPPA),
        lambda: build_cpmg(0.9, KAPPA),
        lambda: build_balanced(0.9, KAPPA, base="se"),
        lambda: build_balanced(0.9, KAPPA, base="cpmg"),
        lambda: build_mirror(0.9, KAPPA),
    ])
    def test_dynamic_phase_cancellation_exact(self, make):
        assert dynamic_phase_sum(make()) == 0

    def test_fid_dynamic_sum_nonzero(self):
        assert dynamic_phase_sum(build_fid(0.9, 2, KAPPA)) == -2

    @pytest.mark.parametrize("make", [
        lambda: build_fid(0.9, 2, KAPPA),
        lambda: build_se(0.9, KAPPA),
        lambda: build_cpmg(0.9, KAPPA),
        lambda: build_mirror(0.9, KAPPA),
    ])
    def test_azimuth_closure(self, make):
        s = make()
        _, phi = s.readout_direction()
        assert phi % (2 * math.pi) == pytest.approx(0.0, abs=1e-9) or \
            phi % (2 * math.pi) == pytest.approx(2 * math.pi, abs=1e-9)

    def test_total_duration(self):
        for make in (build_se, build_cpmg):
            s = make(1.0, KAPPA)
            assert s.total_time == pytest.approx(4 * math.pi * KAPPA, rel=1e-15)
        assert build_mirror(1.0, KAPPA).total_time == pytest.approx(
            4 * math.pi * KAPPA, rel=1e-15)

    def test_mirror_pulse_count_even(self):
        # two physical pulses; the flips are field reversals, not pulses
        for s in (build_mirror(1.0, KAPPA), build_se(1.0, KAPPA), build_cpmg(1.0, KAPPA)):
            assert (*s.boundaries, s.final).count("pulse") == 2
