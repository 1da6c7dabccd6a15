import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

from berrydd import analytics as an
from berrydd import propagator as prop
from berrydd.ensemble import SCHEME_IDS
from berrydd.noise import NoiseModel
from berrydd.schedule import (
    build_balanced,
    build_cpmg,
    build_fid,
    build_mirror,
    build_se,
    linear_coefficients,
    solve_theta_c_exact,
)

KAPPA = 12.0
THETA = 5 * math.pi / 12
REF = an.DrivenParams(kappa=KAPPA, theta=THETA, beta=0.001, eta=0.4)

angles = st.floats(min_value=0.05, max_value=math.pi - 0.05)
kappas = st.floats(min_value=5.0, max_value=200.0)


def params(beta=0.001, eta=0.4, theta=THETA, kappa=KAPPA, theta_c=None):
    return an.DrivenParams(kappa=kappa, theta=theta, beta=beta, eta=eta,
                           theta_c=theta_c)


# each scheme's schedule at THETA, built here rather than through the registry
SCHEDULES = {
    "fid": lambda k: build_fid(THETA, 2, k),
    "se": lambda k: build_se(THETA, k),
    "cpmg": lambda k: build_cpmg(THETA, k),
    "se_balanced": lambda k: build_balanced(THETA, k, base="se"),
    "cpmg_balanced": lambda k: build_balanced(THETA, k, base="cpmg"),
    "mirror": lambda k: build_mirror(THETA, k),
}


def em1px(x):
    """exp(-x) - 1 + x, by its Taylor series where the direct form cancels."""
    if x > 0.5:
        return math.expm1(-x) + x
    return sum((-x) ** n / math.factorial(n) for n in range(2, 25))


# time-domain kernels of the three switching patterns, in units of
# alpha/gamma^2 as functions of beta = gamma*T
KERNELS = {
    "fid": em1px,
    "se": lambda b: 4 * em1px(b / 2) - em1px(b),
    "cpmg2": lambda b: 4 * em1px(b / 4) + 4 * em1px(b / 2) - 4 * em1px(3 * b / 4) + em1px(b),
}


def published_full_chi(scheme, p):
    """The two-term exponential-kernel expressions for chi at any beta.

    The dynamic weight cos(t), the geometric weight sin^2(t)/kappa and the
    free-evolution bracket (their difference) each carry the kernel of the
    pattern they follow.  The two-pulse echo also keeps the overlap of its
    echoed dynamic weight with the unswitched geometric weight, which the
    time symmetry of the pattern leaves nonzero.
    """
    b, k, t = p.beta, p.kappa, p.theta
    dyn2 = math.cos(t) ** 2
    geo2 = math.sin(t) ** 4 / k**2
    bracket2 = (math.cos(t) - math.sin(t) ** 2 / k) ** 2
    cross = (2 * math.cos(t) * math.sin(t) ** 2 / k
             * (1 - math.exp(-b / 2)) * (1 - math.exp(-b / 4)) ** 2)
    kern = {name: f(b) for name, f in KERNELS.items()}
    terms = {
        "fid": bracket2 * kern["fid"],
        "se": dyn2 * kern["se"] + geo2 * kern["fid"],
        "cpmg": dyn2 * kern["cpmg2"] + geo2 * kern["fid"] + cross,
        "se_balanced": bracket2 * kern["se"],
        "cpmg_balanced": bracket2 * kern["cpmg2"],
        "mirror": dyn2 * kern["cpmg2"] + geo2 * kern["se"],
    }
    return p.eta / b**3 * terms[scheme]


class TestClosedFormRates:
    def test_fid_reference(self):
        pred = an.chi_fid(REF)
        assert pred.chi == pytest.approx(6.557, abs=2e-3)
        assert pred.w == pytest.approx(1.4e-3, rel=0.05)

    def test_fid_pole_is_pure_dynamic(self):
        pred = an.chi_fid(params(theta=1e-12))
        assert pred.chi == pytest.approx(0.4 / (2 * 0.001), rel=1e-9)

    @given(theta=angles, kappa=kappas)
    @settings(max_examples=100)
    def test_fid_bracket_is_a_square(self, theta, kappa):
        # cos^2 - 2 cos sin^2/k + sin^4/k^2 == (cos - sin^2/k)^2
        expanded = (
            math.cos(theta) ** 2
            - 2 * math.cos(theta) * math.sin(theta) ** 2 / kappa
            + math.sin(theta) ** 4 / kappa**2
        )
        bracket = (math.cos(theta) - math.sin(theta) ** 2 / kappa) ** 2
        assert expanded == pytest.approx(bracket, abs=1e-14)

    def test_lowfreq_warns_out_of_range(self):
        with pytest.warns(UserWarning, match="low-frequency"):
            an.chi_fid(params(beta=0.5))

    def test_se_reference(self):
        pred = an.chi_se(REF)
        assert pred.chi == pytest.approx(2.233e-3 + 1.2090, abs=2e-4)
        assert pred.w == pytest.approx(0.2978, abs=2e-4)

    def test_se_pole_keeps_echoed_dynamic_term(self):
        pred = an.chi_se(params(theta=1e-12))
        assert pred.chi == pytest.approx(0.4 / 12, rel=1e-9)

    def test_se_full_vs_lowfreq(self):
        for beta in (0.001, 0.01):
            full = an.chi_se(params(beta=beta), mode="full").chi
            low = an.chi_se(params(beta=beta), mode="lowfreq").chi
            assert abs(full - low) / low < 0.01
        with pytest.warns(UserWarning):
            low1 = an.chi_se(params(beta=1.0), mode="lowfreq").chi
        full1 = an.chi_se(params(beta=1.0), mode="full").chi
        assert abs(full1 - low1) / low1 > 0.1

    def test_cpmg_reference(self):
        pred = an.chi_cpmg(REF)
        assert pred.chi == pytest.approx(5.58e-4 + 1.2090, abs=2e-4)

    def test_cpmg_dynamic_term_is_quarter_of_se(self):
        p = params(theta=1e-12)
        assert an.chi_cpmg(p).chi == pytest.approx(an.chi_se(p).chi / 4, rel=1e-12)

    def test_cpmg_equator_equals_se(self):
        p = params(theta=math.pi / 2)
        assert an.chi_cpmg(p).chi == pytest.approx(an.chi_se(p).chi, rel=1e-12)

    def test_balanced_reference(self):
        pred = an.chi_balanced(REF, base="cpmg")
        assert pred.chi == pytest.approx(2.73e-4, abs=5e-6)
        assert pred.w == pytest.approx(0.99973, abs=2e-5)

    def test_balanced_magic_angle(self):
        # cos(theta) = sin^2(theta)/kappa zeroes the balanced weight
        theta = brentq(lambda t: math.cos(t) - math.sin(t) ** 2 / KAPPA,
                       0.1, math.pi / 2)
        assert an.chi_balanced(params(theta=theta), base="se").chi < 1e-25

    def test_balanced_se_is_four_times_cpmg(self):
        se = an.chi_balanced(REF, base="se").chi
        cpmg = an.chi_balanced(REF, base="cpmg").chi
        assert se == pytest.approx(4 * cpmg, rel=1e-12)

    def test_mirror_reference(self):
        pred = an.chi_mirror(REF)
        assert pred.chi == pytest.approx(5.58e-4 + 2.01e-4, abs=5e-6)
        assert pred.w == pytest.approx(0.99924, abs=2e-5)

    def test_mirror_geometric_suppression_factor(self):
        # geometric term: mirror/se = beta/6 at equal angle
        p = params(theta=math.pi / 2, beta=0.003)
        mirror_geo = an.chi_mirror(p).chi
        se_geo = an.chi_se(p).chi
        assert mirror_geo / se_geo == pytest.approx(0.003 / 6, rel=1e-12)

    def test_mirror_equator_only_geometric(self):
        p = params(theta=math.pi / 2)
        assert an.chi_mirror(p).chi == pytest.approx(
            (1 / KAPPA**2) * p.eta / 12, rel=1e-12)

    def test_geometric_term_invariant_under_rate_choice(self):
        # at fixed physical noise power and fixed omega_B*T, the echo
        # geometric term does not depend on the rate: alpha3*T^2/kappa^2
        # with alpha3 fixed and T = 4 pi kappa is kappa-free
        vals = []
        alpha3 = 1e-5
        for kappa in (6.0, 12.0, 24.0):
            t = 4 * math.pi * kappa
            beta = 0.001
            eta = alpha3 * beta * t * t
            p = params(beta=beta, eta=eta, theta=math.pi / 2, kappa=kappa)
            vals.append(an.chi_se(p).chi)
        assert vals[0] == pytest.approx(vals[1], rel=1e-12)
        assert vals[1] == pytest.approx(vals[2], rel=1e-12)

    def test_dynamic_term_increases_with_beta_at_fixed_power(self):
        # fixed alpha3 (eta = 400*beta rule): the echoed dynamic term grows
        alpha_t2 = 400.0
        chis = [
            an.chi_se(params(beta=b, eta=alpha_t2 * b, theta=1e-12)).chi
            for b in (0.001, 0.003, 0.01)
        ]
        assert chis[0] < chis[1] < chis[2]


class TestKernelOracle:
    @pytest.mark.parametrize("scheme", SCHEME_IDS)
    def test_reproduces_full_expressions(self, scheme):
        # mode="full" is the rectangle-pair kernel assembly over the built
        # schedule; it must match the published expression to 1e-10
        # relative at any beta
        rng = np.random.default_rng(42)
        for _ in range(20):
            theta = rng.uniform(0.1, math.pi - 0.1)
            kappa = rng.uniform(6, 50)
            beta = 10 ** rng.uniform(-3, 1)
            eta = 10 ** rng.uniform(-2, 1)
            p = an.DrivenParams(kappa=kappa, theta=theta, beta=beta, eta=eta)
            chi = an.prediction_for_scheme(scheme, p, mode="full").chi
            assert chi == pytest.approx(published_full_chi(scheme, p), rel=1e-10)

    @pytest.mark.parametrize("scheme,builder", [(s, SCHEDULES[s]) for s in SCHEME_IDS])
    def test_reproduces_all_lowfreq_forms(self, scheme, builder):
        p = params(beta=1e-6, eta=0.4)
        chi = an.linear_response_chi(builder(KAPPA), KAPPA, p.noise_model())
        assert chi == pytest.approx(
            an.prediction_for_scheme(scheme, p).chi, rel=1e-6)

    def test_mirror_vs_se_suppression_scales_linearly_in_beta(self):
        # the mirror sequence's exponent carries one extra power of beta
        # relative to the echo at fixed eta (suppression factor beta/6)
        betas = np.array([1e-6, 1e-5, 1e-4, 1e-3])
        ratios = []
        for b in betas:
            p = params(beta=b)
            model = p.noise_model()
            chi_m = an.linear_response_chi(build_mirror(THETA, KAPPA), KAPPA, model)
            chi_s = an.linear_response_chi(build_se(THETA, KAPPA), KAPPA, model)
            ratios.append(chi_m / chi_s)
        slope = np.polyfit(np.log(betas), np.log(ratios), 1)[0]
        assert slope == pytest.approx(1.0, abs=0.05)
        assert ratios[0] < 1e-5

    def test_transverse_kernel_from_coefficients(self):
        # the generic kernel also drives the radial-noise exponent
        p = params(beta=1e-6)
        coeffs = an.transverse_coefficients(build_se(THETA, KAPPA), KAPPA)
        chi = an.chi_from_piecewise(coeffs, p.noise_model())
        # radial weights are sin-theta scaled; exponent stays positive
        assert chi > 0


class TestQuasistatic:
    @pytest.mark.parametrize("scheme", sorted(SCHEDULES))
    def test_zero_power_is_the_noiseless_coherence(self, scheme):
        sched = SCHEDULES[scheme](KAPPA)
        z = an.quasistatic_coherence(sched, NoiseModel(alpha=0.0, gamma=1.0))
        z0 = prop.schedule_coherence(sched, prop.evolve_exact(sched))
        assert abs(z - z0) < 1e-12

    @pytest.mark.parametrize("kappa", [12.0, 48.0])
    def test_weak_noise_exponent_tends_to_static_chi(self, kappa):
        # -ln(W/W_ref) -> alpha (sum c_k d_k)^2 / 2 as alpha -> 0; the weights
        # are the 1/kappa expansion, so an O(kappa^-2) gap remains
        sched = build_fid(THETA, 2, kappa)
        weight_sum = sum(c * d for c, d in linear_coefficients(sched, kappa))
        z0 = prop.schedule_coherence(sched, prop.evolve_exact(sched))
        for alpha in (1e-8, 1e-9):
            z = an.quasistatic_coherence(sched, NoiseModel(alpha=alpha, gamma=1.0))
            chi_static = alpha * weight_sum**2 / 2
            assert -math.log(abs(z) / abs(z0)) / chi_static == pytest.approx(
                1.0, abs=3.0 / kappa**2)

    @pytest.mark.parametrize("kappa", [48.0, 192.0])
    def test_fid_at_zero_linear_weight_is_the_quadratic_phase_average(self, kappa):
        # where cos(theta) = sin^2(theta)/kappa the linear weight vanishes and
        # only the K^2 term of the splitting dephases: the random phase is
        # b K^2 with b = T sin^2(theta)/2, so <e^{i b K^2}> = (1 - 2 i b s^2)^(-1/2)
        theta = math.acos((math.sqrt(kappa * kappa + 4.0) - kappa) / 2.0)
        sched = build_fid(theta, 2, kappa)
        b = sched.total_time * math.sin(theta) ** 2 / 2.0
        b_s2 = 1.24  # the free-evolution value at the reference point
        z = an.quasistatic_coherence(sched, NoiseModel(alpha=b_s2 / b, gamma=1.0))
        z0 = prop.schedule_coherence(sched, prop.evolve_exact(sched))
        assert abs(z / z0 - (1.0 - 2.0j * b_s2) ** -0.5) < 0.5 / kappa

    def test_reference_point_resolved_at_default_nodes(self):
        sched = build_fid(THETA, 2, KAPPA)
        model = REF.noise_model()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            z80 = an.quasistatic_coherence(sched, model)
        x, weights = np.polynomial.hermite.hermgauss(160)
        z160 = sum(
            wk * prop.schedule_coherence(sched, prop.evolve_exact(sched, offset=k))
            for wk, k in zip(weights, math.sqrt(2.0 * model.alpha) * x)
        ) / math.sqrt(math.pi)
        assert abs(z80 - z160) < 1e-8

    def test_unresolved_quadrature_warns(self):
        sched = build_fid(THETA, 2, KAPPA)
        model = an.DrivenParams(kappa=KAPPA, theta=THETA, beta=0.001, eta=10.0).noise_model()
        with pytest.warns(UserWarning, match="unresolved"):
            an.quasistatic_coherence(sched, model)


class TestSpectralRoute:
    @pytest.mark.parametrize("beta", [1e-3, 1e-1, 1.0, 10.0])
    @pytest.mark.parametrize("sequence", ["fid", "se", "cpmg2"])
    def test_spectral_matches_closed(self, sequence, beta):
        t = 4 * math.pi * KAPPA
        model = NoiseModel(alpha=1e-4, gamma=beta / t)
        spec = an.chi_spectral(sequence, model, t)
        closed = an.chi_closed(sequence, model, t)
        assert abs(spec - closed) / closed < 1e-6

    def test_lowfreq_factors(self):
        # beta -> 0 series: chi / (alpha T^2 / 2) -> {1, beta/6, beta/24}
        beta = 1e-4
        t = 1.0
        model = NoiseModel(alpha=1.0, gamma=beta)
        base = model.alpha * t * t / 2
        for seq, factor in [("fid", 1.0), ("se", beta / 6), ("cpmg2", beta / 24)]:
            val = an.chi_closed(seq, model, t) / base
            assert val == pytest.approx(factor, rel=1e-3)

    def test_highfreq_limit_common_to_all(self):
        # beta >> 1: chi -> alpha*T/gamma for every pattern
        beta = 200.0
        t = 1.0
        model = NoiseModel(alpha=1.0, gamma=beta)
        limit = model.alpha * t / model.gamma
        # asymptotic corrections are -{1, 3, 5}/beta for the three patterns
        for seq in ("fid", "se", "cpmg2"):
            assert an.chi_closed(seq, model, t) == pytest.approx(limit, rel=6 / beta)

    def test_fid_closed_value_at_beta_one(self):
        # direct substitution: (alpha/gamma^2)(beta - 1 + e^-beta) at beta=1
        model = NoiseModel(alpha=2.0, gamma=1.0)
        assert an.chi_closed("fid", model, 1.0) == pytest.approx(
            2.0 * (1.0 - 1.0 + math.exp(-1.0)), rel=1e-12)

    def test_spectral_agrees_with_kernel_oracle(self):
        # three independent routes meet: spectral quadrature, elementary
        # form, and the piecewise rectangle kernel with unit weights
        t = 4 * math.pi * KAPPA
        model = NoiseModel(alpha=3e-4, gamma=0.5 / t)
        for seq in ("fid", "se", "cpmg2"):
            kernel = an.chi_from_piecewise(an.pattern_weights(seq, t), model)
            assert an.chi_spectral(seq, model, t) == pytest.approx(kernel, rel=1e-9)


class TestFilterFunctions:
    def test_zero_frequency(self):
        for seq in ("fid", "se", "cpmg2"):
            assert an.filter_function(seq, 0.0) == 0.0

    def test_reference_values(self):
        assert an.filter_function("fid", math.pi) == pytest.approx(2.0, rel=1e-12)
        assert an.filter_function("se", 2 * math.pi) == pytest.approx(8.0, rel=1e-12)

    def test_product_form_matches_tangent_form(self):
        # the two-pulse filter written with the 1/cos^2 ratio agrees with
        # the product form away from the removable points
        z = np.linspace(0.1, 40, 1777)
        keep = np.abs(np.cos(z / 4)) > 1e-3
        ratio = 8 * np.sin(z / 8) ** 4 * np.sin(z / 2) ** 2 / np.cos(z / 4) ** 2
        np.testing.assert_allclose(
            an.filter_function("cpmg2", z)[keep], ratio[keep], rtol=1e-9)

    def test_derived_form_matches_product_forms(self):
        # F(z) is derived from the switch times; the closed product forms
        # of the three patterns are the reference
        z = np.linspace(0.0, 100.0, 20001)
        products = {
            "fid": 2 * np.sin(z / 2) ** 2,
            "se": 8 * np.sin(z / 4) ** 4,
            "cpmg2": 32 * np.sin(z / 8) ** 4 * np.sin(z / 4) ** 2,
        }
        for seq, ref in products.items():
            np.testing.assert_allclose(an.filter_function(seq, z), ref, rtol=0, atol=1e-12)

    def test_removable_singularity(self):
        # cos(z/4) = 0 at z = 2 pi: the limit value is 8
        assert an.filter_function("cpmg2", 2 * math.pi) == pytest.approx(8.0, rel=1e-12)

    @given(z=st.floats(min_value=0.0, max_value=100.0))
    @settings(max_examples=200)
    def test_nonnegative(self, z):
        for seq in ("fid", "se", "cpmg2"):
            assert an.filter_function(seq, z) >= 0.0

    def test_low_z_behavior(self):
        z = 1e-4
        assert an.filter_function("fid", z) / z**2 == pytest.approx(0.5, rel=1e-6)
        assert an.filter_function("se", z) / z**4 == pytest.approx(1 / 32, rel=1e-6)
        assert an.filter_function("cpmg2", z) / z**6 == pytest.approx(1 / 2048, rel=1e-6)

    def test_peak_frequency_ordering(self):
        # the peak of F(z)/z^2 moves up as the pattern switches more often
        z = np.linspace(1e-3, 4 * math.pi, 20000)
        peaks = [
            z[np.argmax(an.filter_function(seq, z) / z**2)]
            for seq in ("fid", "se", "cpmg2")
        ]
        assert peaks[0] < peaks[1] < peaks[2]

    def test_fid_global_max_at_zero(self):
        # F(z)/z^2 = sinc^2(z/2)/2 decreases from its z -> 0 value of 1/2
        z = np.linspace(1e-6, 4 * math.pi, 100001)
        vals = an.filter_function("fid", z) / z**2
        assert vals.max() == pytest.approx(0.5, rel=1e-6)
        assert z[np.argmax(vals)] < 1e-3

    def test_fid_side_lobe_at_tan_root(self):
        # stationarity of sinc^2: tan(u) = u with u = z/2; first side lobe
        root = 2 * brentq(lambda u: math.tan(u) - u, math.pi + 0.1, 1.5 * math.pi - 0.1)
        z = np.linspace(2 * math.pi, 4 * math.pi, 200001)
        peak = z[np.argmax(an.filter_function("fid", z) / z**2)]
        assert peak == pytest.approx(root, abs=1e-3)


class TestSwitchingFunctions:
    def test_patterns(self):
        # +1 everywhere / +- halves / +-+ in quarter, half, quarter
        assert an.pattern_weights("fid", 1.0) == [(1.0, 1.0)]
        assert an.pattern_weights("se", 1.0) == [(1.0, 0.5), (-1.0, 0.5)]
        assert an.pattern_weights("cpmg2", 1.0) == [(1.0, 0.25), (-1.0, 0.5), (1.0, 0.25)]

    def test_integrals(self):
        # int_0^T h dt = sum h_k d_k: T unswitched, 0 for the echoes
        def integral(seq):
            return sum(h * d for h, d in an.pattern_weights(seq, 2.0))

        assert integral("fid") == pytest.approx(2.0)
        assert integral("se") == pytest.approx(0.0)
        assert integral("cpmg2") == pytest.approx(0.0)


class TestDepolarization:
    def test_pole_vanishes(self):
        assert an.depolarization_lambda(params(theta=1e-15)) < 1e-28

    def test_negligible_at_reference_point(self):
        lam = an.depolarization_lambda(REF)
        # tiny against the dephasing exponents at the same point
        assert lam == pytest.approx(1.64e-5, rel=0.02)
        assert lam < 1e-4

    def test_maximized_at_bandwidth_equal_splitting(self):
        # at fixed noise power alpha3, lambda ~ gamma/(gamma^2+1) peaks at
        # gamma = B0 = 1
        t = 4 * math.pi * KAPPA
        alpha3 = 1e-4
        betas = np.linspace(0.2, 5.0, 300) * t
        vals = [
            an.depolarization_lambda(
                an.DrivenParams(kappa=KAPPA, theta=1.0, beta=b, eta=alpha3 * b * t * t))
            for b in betas
        ]
        peak_gamma = betas[int(np.argmax(vals))] / t
        assert peak_gamma == pytest.approx(1.0, rel=0.02)


class TestTransverse:
    def test_equator_weights_are_branch_labels(self):
        coeffs = an.transverse_coefficients(build_se(math.pi / 2, KAPPA), KAPPA)
        assert [c for c, _ in coeffs] == pytest.approx([-1.0, 1.0])

    def test_mirror_dc_sum_is_nonzero(self):
        theta = math.pi / 4
        sched = build_mirror(theta, KAPPA)
        coeffs = an.transverse_coefficients(sched, KAPPA)
        total = sum(c * d for c, d in coeffs)
        expected = sched.total_time * math.sin(2 * theta) / (2 * KAPPA)
        assert total == pytest.approx(expected, rel=1e-12)
        assert abs(total) > 1.0  # decisively nonzero

    def test_balanced_transverse_weights_match(self):
        theta_a = 0.9
        theta_c = an.solve_theta_c_transverse(theta_a, KAPPA)
        lhs = math.sin(theta_a) * (1 - math.cos(theta_a) / KAPPA)
        rhs = math.sin(theta_c) * (1 + math.cos(theta_c) / KAPPA)
        assert lhs == pytest.approx(rhs, abs=1e-12)

    def test_transverse_solver_kappa_limit(self):
        assert an.solve_theta_c_transverse(0.8, 1e9) == pytest.approx(0.8, abs=1e-8)

    def test_transverse_solver_equator(self):
        # bisection oracle on the same balance function
        target = 1.0  # sin(pi/2) * (1 - 0)
        tc = an.solve_theta_c_transverse(math.pi / 2, 12.0)
        assert abs(math.sin(tc) * (1 + math.cos(tc) / 12.0) - target) < 1e-12
        oracle = brentq(
            lambda t: math.sin(t) * (1 + math.cos(t) / 12.0) - target,
            0.5, math.pi / 2 - 1 / 12,
        )
        assert tc == pytest.approx(oracle, abs=1e-10)

    def test_transverse_round_trip(self):
        theta_a = 0.7
        tc = an.solve_theta_c_transverse(theta_a, KAPPA)
        # invert: the angle whose forward weight matches tc's reversed weight
        target = math.sin(tc) * (1 + math.cos(tc) / KAPPA)
        back = brentq(
            lambda t: math.sin(t) * (1 - math.cos(t) / KAPPA) - target,
            0.05, math.pi / 2,
        )
        assert back == pytest.approx(theta_a, abs=1e-10)

    def test_rejects_perturbative_branch_loss(self):
        with pytest.raises(ValueError):
            an.solve_theta_c_transverse(-0.1, KAPPA)


class TestCrossover:
    def test_fid_beats_cpmg_near_magic_angle(self):
        # where cos(theta) ~ sin^2(theta)/kappa the free-evolution bracket
        # vanishes while the echo keeps its geometric floor
        theta = brentq(lambda t: math.cos(t) - math.sin(t) ** 2 / KAPPA,
                       0.1, math.pi / 2)
        p = params(theta=theta)
        assert an.chi_fid(p).chi < an.chi_cpmg(p).chi


class TestValidation:
    def test_driven_params_rejects_bad_beta(self):
        with pytest.raises(ValueError):
            an.DrivenParams(kappa=12, theta=1.0, beta=0.0, eta=1.0)

    def test_prediction_rejects_negative_chi(self):
        with pytest.raises(ValueError):
            an.DephasingPrediction(chi=-1.0, gamma_expected=0.0)

    def test_prediction_w_bounds(self):
        pred = an.DephasingPrediction(chi=0.5, gamma_expected=0.0, lam=0.01)
        assert 0.0 <= pred.w <= 1.0

    def test_unknown_sequence_rejected(self):
        with pytest.raises(ValueError):
            an.filter_function("udd", 1.0)
        with pytest.raises(ValueError):
            an.chi_closed("udd", NoiseModel(1, 1), 1.0)
        with pytest.raises(ValueError):
            an.prediction_for_scheme("udd", REF)
