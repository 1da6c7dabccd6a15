"""Closed-form phases and dephasing rates for the driven qubit.

Conventions (B0-units, hbar = 1):

* kappa = B0/omega_B is the adiabaticity; the loop time is T = 4 pi kappa
  for every built-in scheme (two net windings at rate omega_B = 1/kappa).
* beta = gamma3 * T and eta = alpha3 * gamma3 * T^3 are the dimensionless
  noise parameters, so alpha3 * T^2 = eta / beta.
* The random relative phase is linear in the noise to first order,
  phi = -sum_k c_k * int_k K3 dt, with the piecewise-constant weights
  c_k = s_k (cos theta_k - sgn(l_k) sin^2(theta_k)/kappa).  For Gaussian
  noise the coherence is then W = exp(-chi) with chi = <phi^2>/2.

``chi_from_piecewise`` evaluates chi exactly (analytic double integral of
the exponential kernel over every rectangle pair) and is the master
oracle behind all the specific closed forms here.

``SCHEMES`` is the one registry of the decoupling schemes.  Per scheme id
it holds the schedule builder, whether the scheme uses the companion angle
theta_c, the low-frequency closed form of chi and that form's text for the
CSV header.  ``prediction_for_scheme`` and the ``chi_*`` functions read it;
their mode="full" is ``linear_response_chi`` of the built schedule.

The filter-function route (Cywinski et al., PRB 77, 174509 (2008)) starts
from the switch times of the standard patterns in ``PATTERNS``.
``pattern_weights`` gives their +-1 pieces as (h_k, d_k) pairs, the form in
which ``schedule.linear_coefficients`` gives a schedule's noise weights.
F(z) of ``filter_function`` is derived from them, ``chi_spectral`` computes
the spectral overlap integral

    chi = int_0^inf (dw/pi) S3(w) F(w T) / w^2

by adaptive quadrature, and ``chi_closed`` evaluates it exactly as the
kernel oracle over the pattern's +-1 weights.

SciPy is imported only inside ``chi_spectral`` and the bracketed fallback
of ``solve_theta_c_transverse``, which no run path calls.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional

import numpy as np

from .noise import NoiseModel
from .propagator import evolve_exact, schedule_coherence
from .schedule import (
    Schedule,
    build_balanced,
    build_cpmg,
    build_fid,
    build_mirror,
    build_se,
    linear_coefficients,
    solve_theta_c_exact,
)

__all__ = [
    "DrivenParams",
    "DephasingPrediction",
    "Scheme",
    "SCHEMES",
    "FID_WINDINGS",
    "PATTERNS",
    "chi_fid",
    "chi_se",
    "chi_cpmg",
    "chi_balanced",
    "chi_mirror",
    "chi_from_piecewise",
    "linear_response_chi",
    "quasistatic_coherence",
    "pattern_weights",
    "filter_function",
    "chi_spectral",
    "chi_closed",
    "depolarization_lambda",
    "transverse_coefficients",
    "solve_theta_c_transverse",
    "prediction_for_scheme",
]

_FOUR_PI = 4.0 * math.pi


# -- stable special functions -------------------------------------------------


def _em1px(x: float) -> float:
    """exp(-x) - 1 + x without cancellation (series below x = 0.5)."""
    if x > 0.5:
        return math.expm1(-x) + x
    term = x * x / 2.0
    total = term
    n = 2
    while n < 40:
        n += 1
        term *= -x / n
        total += term
        if abs(term) < 1e-20 * abs(total):
            break
    return total


def _atan_deficit(y: float) -> float:
    """y - atan(y) without cancellation (series below y = 0.1)."""
    if y > 0.1:
        return y - math.atan(y)
    total = 0.0
    term = y**3
    k = 1
    while True:
        total += (-1) ** (k + 1) * term / (2 * k + 1)
        k += 1
        term *= y * y
        if term / (2 * k + 1) < 1e-25 * max(abs(total), 1e-300):
            break
    return total


# -- parameter containers ------------------------------------------------------


@dataclass(frozen=True)
class DrivenParams:
    """Dimensionless drive/noise parameters of one experiment point."""

    kappa: float
    theta: float
    beta: float
    eta: float
    theta_c: Optional[float] = None

    def __post_init__(self):
        # "not x > 0" also holds for a NaN
        if not 0 < self.beta < math.inf:
            raise ValueError(f"beta must be finite and > 0, got {self.beta}")
        if not 0 <= self.eta < math.inf:
            raise ValueError(f"eta must be finite and >= 0, got {self.eta}")
        if not 0 < self.kappa < math.inf:
            raise ValueError(f"kappa must be finite and > 0, got {self.kappa}")

    @property
    def total_time(self) -> float:
        """Loop time T = 4 pi kappa in B0-units (omega_B T = 4 pi)."""
        return _FOUR_PI * self.kappa

    @property
    def alpha_t2(self) -> float:
        """alpha3 * T^2 = eta / beta."""
        return self.eta / self.beta

    def noise_model(self) -> NoiseModel:
        t = self.total_time
        return NoiseModel(alpha=self.eta / (self.beta * t * t), gamma=self.beta / t)


@dataclass(frozen=True)
class DephasingPrediction:
    """Closed-form dephasing exponent with the expected loop phase."""

    chi: float
    gamma_expected: float
    lam: float = 0.0

    def __post_init__(self):
        if self.chi < 0:
            raise ValueError(f"chi must be >= 0, got {self.chi}")

    @property
    def w(self) -> float:
        return math.exp(-self.chi)


# -- the scheme registry ----------------------------------------------------------

# windings of the free-evolution loop, so that T = 4 pi kappa as for every scheme
FID_WINDINGS = 2


class Scheme(NamedTuple):
    """The entry of one scheme id in :data:`SCHEMES`.

    ``build(theta_a, kappa)`` returns the scheme's schedule; ``lowfreq(params)``
    is its beta -> 0 closed form of chi and ``note`` that form as written in
    the CSV header.  ``uses_theta_c`` marks the companion-angle echoes, whose
    loop phase is -2 pi (cos theta_a + cos theta_c).
    """

    name: str
    build: Callable
    lowfreq: Callable
    note: str
    uses_theta_c: bool = False


# squared weights in the closed forms: the dynamic weight cos(t), the
# geometric weight sin^2(t)/kappa, and the free-evolution bracket (their
# difference)
def _dynamic2(p):
    return math.cos(p.theta) ** 2


def _geometric2(p):
    return math.sin(p.theta) ** 4 / p.kappa**2


def _bracket2(p):
    c = math.cos(p.theta) - math.sin(p.theta) ** 2 / p.kappa
    return c * c


# each weight carries the beta -> 0 limit of its switching pattern's kernel:
# eta/(2 beta) unswitched, eta/12 for the spin echo, eta/48 for the two-pulse echo
_FID = Scheme(
    "fid", lambda theta_a, kappa: build_fid(theta_a, FID_WINDINGS, kappa),
    lambda p: _bracket2(p) * p.alpha_t2 / 2.0,
    "(cos(t) - sin^2(t)/kappa)^2 * eta/(2*beta)",
)
_SE = Scheme(
    "se", build_se,
    lambda p: _dynamic2(p) * p.eta / 12.0 + _geometric2(p) * p.alpha_t2 / 2.0,
    "cos^2(t)*eta/12 + (sin^4(t)/kappa^2) * eta/(2*beta)",
)
_CPMG = Scheme(
    "cpmg", build_cpmg,
    lambda p: _dynamic2(p) * p.eta / 48.0 + _geometric2(p) * p.alpha_t2 / 2.0,
    "cos^2(t)*eta/48 + (sin^4(t)/kappa^2) * eta/(2*beta)",
)
_SE_BALANCED = Scheme(
    "se_balanced", lambda theta_a, kappa: build_balanced(theta_a, kappa, base="se"),
    lambda p: _bracket2(p) * p.eta / 12.0,
    "(cos(ta) - sin^2(ta)/kappa)^2 * eta/12", uses_theta_c=True,
)
_CPMG_BALANCED = Scheme(
    "cpmg_balanced", lambda theta_a, kappa: build_balanced(theta_a, kappa, base="cpmg"),
    lambda p: _bracket2(p) * p.eta / 48.0,
    "(cos(ta) - sin^2(ta)/kappa)^2 * eta/48", uses_theta_c=True,
)
_MIRROR = Scheme(
    "mirror", build_mirror,
    lambda p: _dynamic2(p) * p.eta / 48.0 + _geometric2(p) * p.eta / 12.0,
    "cos^2(ta)*eta/48 + (sin^4(ta)/kappa^2) * eta/12",
)

#: every scheme by id, in the order the CLI and the tests list them
SCHEMES = {s.name: s for s in (_FID, _SE, _CPMG, _SE_BALANCED, _CPMG_BALANCED, _MIRROR)}


def prediction_for_scheme(
    scheme: str, params: DrivenParams, mode: str = "lowfreq"
) -> DephasingPrediction:
    """Dephasing prediction for a named scheme id.

    mode="lowfreq" is the scheme's beta -> 0 closed form and warns above
    beta = 0.1; mode="full" is the exact Gaussian exponent of the weights
    of its schedule (:func:`linear_response_chi`), valid at any beta.
    """
    if scheme not in SCHEMES:
        raise ValueError(f"unknown scheme id {scheme!r}")
    entry = SCHEMES[scheme]
    if mode == "full":
        schedule = entry.build(params.theta, params.kappa)
        chi = linear_response_chi(schedule, params.kappa, params.noise_model())
    elif mode == "lowfreq":
        if params.beta > 0.1:
            warnings.warn(
                f"beta = {params.beta} > 0.1: the low-frequency closed form is out "
                "of its validity range",
                stacklevel=2,
            )
        chi = entry.lowfreq(params)
    else:
        raise ValueError(f"mode must be 'full' or 'lowfreq', got {mode!r}")
    if entry.uses_theta_c:
        theta_c = params.theta_c
        if theta_c is None:
            theta_c = solve_theta_c_exact(params.theta, params.kappa)
        gamma = -2.0 * math.pi * (math.cos(params.theta) + math.cos(theta_c))
    else:
        gamma = -_FOUR_PI * math.cos(params.theta)
    return DephasingPrediction(chi=chi, gamma_expected=gamma, lam=depolarization_lambda(params))


def chi_fid(params: DrivenParams) -> DephasingPrediction:
    """Free-evolution dephasing: chi = (cos t - sin^2 t / kappa)^2 eta/(2 beta).

    The bracket is the square of the constant noise weight; its cross term
    is the drive-induced reduction of the plain quadratic-in-cos rate.
    """
    return prediction_for_scheme(_FID.name, params)


def chi_se(params: DrivenParams, mode: str = "lowfreq") -> DephasingPrediction:
    """Spin-echo dephasing: chi = cos^2 * eta/12 + (sin^4/kappa^2) * eta/(2 beta).

    The reversed winding keeps the geometric weight un-echoed, so that term
    carries the free-evolution kernel.  mode="full" is the exact exponent
    at any beta (:func:`prediction_for_scheme`).
    """
    return prediction_for_scheme(_SE.name, params, mode)


def chi_cpmg(params: DrivenParams, mode: str = "lowfreq") -> DephasingPrediction:
    """Two-pulse echo dephasing: dynamic term 4x smaller than spin echo,
    geometric term identical (the geometric weight never switches sign).

    mode="full" also keeps the cross term between the echoed dynamic weight
    and the unswitched geometric weight.  The pattern is symmetric in time,
    so unlike the spin echo this overlap does not vanish; it is O(beta)
    relative to the geometric term and is dropped by the low-frequency form.
    """
    return prediction_for_scheme(_CPMG.name, params, mode)


def chi_balanced(params: DrivenParams, base: str = "cpmg", mode: str = "lowfreq") -> DephasingPrediction:
    """Companion-angle echo: the balanced weight is a pure echo pattern.

    chi = (cos ta - sin^2 ta / kappa)^2 * eta/12 * {1 for the spin-echo
    base, 1/4 for the two-pulse base}; with mode="full" the corresponding
    exact echo kernel is used instead of its beta^3 leading term.
    """
    scheme = f"{base}_balanced"
    if scheme not in SCHEMES:
        raise ValueError(f"base must be 'se' or 'cpmg', got {base!r}")
    return prediction_for_scheme(scheme, params, mode)


def chi_mirror(params: DrivenParams, mode: str = "lowfreq") -> DephasingPrediction:
    """Cone-mirror sequence: chi = cos^2 * eta/48 + (sin^4/kappa^2) * eta/12.

    The dynamic weight follows the two-pulse echo pattern and the
    geometric weight the spin-echo pattern, so the geometric term gains a
    factor beta/6 over the plain echoes.
    """
    return prediction_for_scheme(_MIRROR.name, params, mode)


# -- the kernel oracle ---------------------------------------------------------


def chi_from_piecewise(coefficients, model: NoiseModel) -> float:
    """Exact chi = (1/2) iint c(t) c(t') alpha e^{-gamma|t-t'|} dt dt'.

    ``coefficients`` is a sequence of (weight, duration) pairs describing
    the piecewise-constant c(t).  Every rectangle pair integrates in
    closed form; the assembly is stable down to gamma*T ~ 1e-12.
    """
    coefficients = list(coefficients)
    g = model.gamma
    starts = np.concatenate([[0.0], np.cumsum([d for _, d in coefficients])])
    chi = 0.0
    # diagonal blocks: square double integral = 2(g d - 1 + e^{-g d})/g^2
    for c, d in coefficients:
        chi += c * c * _em1px(g * d)
    # off-diagonal blocks factorize: e^{-g gap} (1-e^{-g di})(1-e^{-g dj})/g^2
    expm = [-math.expm1(-g * d) for _, d in coefficients]
    for i, (ci, di) in enumerate(coefficients):
        for j in range(i + 1, len(coefficients)):
            cj, dj = coefficients[j]
            gap = starts[j] - (starts[i] + di)
            chi += ci * cj * math.exp(-g * gap) * expm[i] * expm[j]
    return chi * model.alpha / (g * g)


def linear_response_chi(schedule: Schedule, kappa: float, noise: NoiseModel) -> float:
    """Exact Gaussian dephasing exponent of a schedule's noise weights.

    Reproduces every low-frequency closed form in its beta -> 0 limit and
    the full echo expression at any beta.
    """
    return chi_from_piecewise(linear_coefficients(schedule, kappa), noise)


# -- beyond linear response: quasi-static noise ---------------------------------


# Gauss-Hermite order of the quasi-static average; resolves a linear phase
# spread up to about sqrt(_QS_NODES) rad
_QS_NODES = 80


def _chi_static(schedule: Schedule, model: NoiseModel) -> float:
    """beta -> 0 limit of the Gaussian exponent: alpha (sum_k c_k d_k)^2 / 2."""
    weight_sum = sum(c * d for c, d in linear_coefficients(schedule, schedule.kappa))
    return model.alpha * weight_sum**2 / 2.0


def quasistatic_coherence(schedule: Schedule, model: NoiseModel) -> complex:
    """Mean readout coherence <z> under a constant longitudinal offset K ~ N(0, alpha).

    Averages the exact propagator (``evolve_exact`` with a constant offset,
    no time stepping) over K by 80-point Gauss-Hermite quadrature.
    Only ``model.alpha`` is read: this is the beta -> 0 limit, exact there
    to all orders in K, so it keeps the K^2 term of the splitting
    (sin^2(theta) K^2 / 2) that linear response drops.  That term matters
    once sigma_K^2 T sin^2(theta) is of order 1; at the reference point
    alpha3 T^2 = 400, theta = 5 pi/12 it is about 2.5.  The noiseless
    coherence is the alpha = 0 value.

    At finite beta, to leading order in beta, the coherence is

        W = 2 |<z>| exp(-(chi_exact - chi_static)),

    with chi_exact the Gaussian exponent of the schedule's weights
    (:func:`linear_response_chi`) and chi_static = alpha (sum_k c_k d_k)^2 / 2
    its beta -> 0 limit (``_chi_static``), subtracted so the static part is
    not counted twice.  The phase is arg <z>.  For a schedule whose weights
    do not sum to zero (fid) chi_static is large, and at the reference power
    the product already exceeds 1 near beta = 1.

    The quadrature resolves a linear phase spread
    sigma_K |sum_k c_k d_k| = sqrt(2 chi_static) up to about sqrt(80) ~ 9 rad
    (error below 1e-15); beyond that it aliases and a warning is issued.
    """
    spread = math.sqrt(2.0 * _chi_static(schedule, model))
    if spread > math.sqrt(_QS_NODES):
        warnings.warn(
            f"linear phase spread {spread:.3g} rad exceeds sqrt({_QS_NODES}) = "
            f"{math.sqrt(_QS_NODES):.3g}: the quadrature is unresolved",
            stacklevel=2,
        )
    x, weights = np.polynomial.hermite.hermgauss(_QS_NODES)
    offsets = math.sqrt(2.0 * model.alpha) * x
    z = [schedule_coherence(schedule, evolve_exact(schedule, offset=k)) for k in offsets]
    return complex(np.dot(weights, z) / math.sqrt(math.pi))


# -- filter-function route (Cywinski et al., PRB 77, 174509 (2008)) ---------------


#: switch times of the standard patterns as fractions of T: free evolution,
#: spin echo and the two-pulse echo
PATTERNS = {
    "fid": (0.0, 1.0),
    "se": (0.0, 0.5, 1.0),
    "cpmg2": (0.0, 0.25, 0.75, 1.0),
}


def pattern_weights(sequence: str, total_time: float = 1.0) -> list:
    """(h_k, d_k) of the pieces of a standard pattern over [0, T].

    The sign-switching weight h(t) is +1, -1, +1, ... between the switch
    times of ``PATTERNS``; the pairs are in the form
    :func:`chi_from_piecewise` takes.
    """
    if sequence not in PATTERNS:
        raise ValueError(f"sequence must be one of {tuple(PATTERNS)}, got {sequence!r}")
    t = [total_time * u for u in PATTERNS[sequence]]
    return [(1.0 if k % 2 == 0 else -1.0, b - a) for k, (a, b) in enumerate(zip(t, t[1:]))]


def filter_function(sequence: str, z):
    """Spectral weight F(z) = |omega H(omega)|^2 / 2 of a standard pattern, z = omega*T.

    H is the Fourier transform of h.  A piece of sign h_k, duration d_k
    and midpoint m_k adds h_k 2 sin(omega d_k/2) e^{i omega m_k} to
    omega H; summing these sines keeps F accurate as z -> 0, where the
    expanded cosine form of F cancels.  For fid, se and cpmg2 it equals
    2 sin^2(z/2), 8 sin^4(z/4) and 32 sin^4(z/8) sin^2(z/4).
    """
    h, d = np.array(pattern_weights(sequence)).T
    u = np.asarray(PATTERNS[sequence])
    z = np.asarray(z, dtype=float)
    amp = h * 2.0 * np.sin(z[..., None] * d / 2.0)
    phase = z[..., None] * (u[1:] + u[:-1]) / 2.0
    out = (np.sum(amp * np.cos(phase), axis=-1) ** 2
           + np.sum(amp * np.sin(phase), axis=-1) ** 2) / 2.0
    return out if out.ndim else float(out)


def chi_spectral(sequence: str, noise: NoiseModel, total_time: float) -> float:
    """Dephasing exponent by quadrature of the spectral overlap integral.

    In z = omega*T the integral becomes
    (2 eta / pi) int_0^inf F(z) / (z^2 (z^2 + beta^2)) dz with
    eta = alpha gamma T^3 and beta = gamma T.  The head [0, Z0] is done by
    adaptive quadrature with breakpoints at the Lorentzian knee and the
    filter oscillations; the tail splits into an elementary monotone part
    and Fourier-weighted integrals handled by the oscillatory rule.

    It needs SciPy, imported here so that no run path loads it; it is the
    quadrature oracle of :func:`chi_closed`.
    """
    from scipy.integrate import IntegrationWarning, quad

    u = PATTERNS[sequence]
    beta = noise.gamma * total_time
    eta = noise.alpha * noise.gamma * total_time**3
    z0 = max(16.0 * math.pi, 4.0 * beta)

    # for the tail, F(z) = |sum_j e_j e^{i z u_j}|^2 / 2 over the switch points
    # u_j, with e_j the jump of h there, expands into a0 + sum_c a_c cos(c z)
    h = [0.0, *(w for w, _ in pattern_weights(sequence)), 0.0]
    jumps = [a - b for a, b in zip(h, h[1:])]
    a0 = sum(e * e for e in jumps) / 2.0
    cos_terms = {}
    for j, (uj, ej) in enumerate(zip(u, jumps)):
        for uk, ek in zip(u[j + 1:], jumps[j + 1:]):
            cos_terms[uk - uj] = cos_terms.get(uk - uj, 0.0) + ej * ek

    def g(z):
        return 1.0 / (z * z * (z * z + beta * beta))

    def head(z):
        return filter_function(sequence, z) * g(z)

    pts = sorted({beta, 2.0 * beta, 0.5, 1.0} | {k * math.pi for k in range(1, 16)})
    pts = [p for p in pts if 0.0 < p < z0]
    with warnings.catch_warnings():
        warnings.simplefilter("error", IntegrationWarning)
        try:
            i_head, err_head = quad(head, 0.0, z0, points=pts, limit=400,
                                    epsabs=0.0, epsrel=1e-11)
            total = i_head + a0 * _atan_deficit(beta / z0) / beta**3
            for cj, aj in cos_terms.items():
                val, _ = quad(g, z0, np.inf, weight="cos", wvar=cj, limit=400,
                              epsabs=1e-16, epsrel=1e-13)
                total += aj * val
        except IntegrationWarning as exc:
            raise RuntimeError(
                f"spectral quadrature did not converge for {sequence} at "
                f"beta={beta}: {exc}"
            ) from exc
    return (2.0 * eta / math.pi) * total


def chi_closed(sequence: str, noise: NoiseModel, total_time: float) -> float:
    """Exact elementary form of the spectral overlap for the standard patterns.

    It is the kernel oracle :func:`chi_from_piecewise` over the pattern's
    +-1 weights.
    """
    return chi_from_piecewise(pattern_weights(sequence, total_time), noise)


# -- transverse noise and depolarization ----------------------------------------


def depolarization_lambda(params: DrivenParams) -> float:
    """Incoherent eigenstate-transition exponent, lambda in W = e^{-lam/2 - chi}.

    lambda = alpha3 T sin^2(theta) gamma3 / (gamma3^2 + B0^2); negligible
    for gamma3 << B0 and maximal at gamma3 = B0.
    """
    t = params.total_time
    model = params.noise_model()
    return (
        model.alpha * t * math.sin(params.theta) ** 2
        * model.gamma / (model.gamma**2 + 1.0)
    )


def transverse_coefficients(schedule: Schedule, kappa: float) -> list:
    """Per-segment weight of radial (drive-amplitude) noise in the random phase:
    :func:`~berrydd.schedule.linear_coefficients` on the transverse axis."""
    return linear_coefficients(schedule, kappa, "transverse")


def solve_theta_c_transverse(theta_a: float, kappa: float) -> float:
    """Companion angle balancing radial noise:
    sin(tc)(1 + cos(tc)/kappa) = sin(ta)(1 - cos(ta)/kappa).

    Returns the perturbative branch continuous with theta_c = theta_a at
    kappa -> inf (the equation also has the geometric-phase-destroying
    mirror root pi - theta_a, which is rejected).  Newton's method finds it
    in most cases; the bracketed fallback needs SciPy, imported only there.
    """
    if not 0.0 < theta_a < math.pi:
        raise ValueError(f"theta_a must lie in (0, pi), got {theta_a}")
    target = math.sin(theta_a) * (1.0 - math.cos(theta_a) / kappa)

    def balance(t):
        return math.sin(t) * (1.0 + math.cos(t) / kappa) - target

    # continuation from the first-order estimate theta_a - 2 sin(ta)/kappa
    t = theta_a - 2.0 * math.sin(theta_a) / kappa
    t = min(max(t, 1e-12), math.pi - 1e-12)
    for _ in range(100):
        f = balance(t)
        df = math.cos(t) + math.cos(2.0 * t) / kappa
        if df == 0.0:
            break
        step = f / df
        t = min(max(t - step, 1e-12), math.pi - 1e-12)
        if abs(step) < 1e-15:
            break
    if abs(balance(t)) > 1e-12:
        # fall back to a bracketed solve around the estimate
        from scipy.optimize import brentq

        lo = max(1e-9, theta_a - 4.0 * math.sin(theta_a) / kappa - 0.2)
        hi = theta_a + 0.05
        try:
            t = brentq(balance, lo, hi, xtol=1e-15, rtol=8.9e-16)
        except ValueError as exc:
            raise ValueError(
                f"no transverse balance root near theta_a={theta_a}, kappa={kappa}"
            ) from exc
    if abs(balance(t)) > 1e-12:
        raise ValueError(
            f"transverse balance residual {balance(t):.2e} too large at "
            f"theta_a={theta_a}, kappa={kappa}"
        )
    return t
