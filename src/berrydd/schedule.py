"""Pulse-sequence schedules: adiabatic cone segments joined by swap operations.

A schedule is an ordered list of segments.  During segment k the drive
field direction sits on a cone of polar angle theta_k and rotates about z
at the common rate omega_B = B0/kappa, winding the azimuth by 2*pi*l_k
(l_k a signed half-integer).  s_k labels the instantaneous eigenvalue of
the branch that started in the lower (-1) eigenstate; it alternates at
every internal boundary.

Two kinds of internal boundary exist:

``pulse``
    An instantaneous pi rotation about the equatorial axis perpendicular
    to the field's azimuthal plane.  It exchanges the eigenstates of the
    field direction; the azimuth is continuous across it.

``flip``
    A field reversal: theta -> pi - theta together with an azimuth jump
    of pi, i.e. n -> -n.  No control unitary is applied; the eigenvalue
    labels swap because the field itself reversed.  This is the joining
    used at the cone-mirror boundaries of the four-segment mirror
    sequence (a pulse with a continuous azimuth leaves the state far from
    either eigenstate of the mirrored cone and destroys the echo).

A closing swap (pulse or flip, per ``final``) is appended whenever needed
so both branches end with their initial eigenvalue sign; the readout
direction accounts for it.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import Optional

__all__ = [
    "SegmentSpec",
    "Schedule",
    "build_fid",
    "build_se",
    "build_cpmg",
    "build_balanced",
    "build_mirror",
    "solve_theta_c_exact",
    "solve_theta_c_approx",
    "expected_phase_difference",
    "linear_coefficients",
    "dynamic_phase_sum",
]

_TWO_PI = 2.0 * math.pi

# kappa below this triggers an adiabaticity warning
KAPPA_WARN = 5.0


@dataclass(frozen=True)
class SegmentSpec:
    """One adiabatic cone segment: slant angle, signed winding, branch label."""

    theta: float
    l: Fraction
    s: int

    def __post_init__(self):
        if not 0.0 < self.theta < math.pi:
            raise ValueError(f"theta must lie in (0, pi), got {self.theta}")
        if self.l == 0:
            raise ValueError("winding number l must be nonzero")
        if self.s not in (-1, 1):
            raise ValueError(f"branch label s must be +1 or -1, got {self.s}")
        object.__setattr__(self, "l", Fraction(self.l))

    @property
    def winding_sign(self) -> int:
        """Sign of the azimuthal rotation: +1 anticlockwise, -1 clockwise."""
        return 1 if self.l > 0 else -1


def _check_kappa(kappa: float) -> None:
    if kappa <= 0:
        raise ValueError(f"kappa must be > 0, got {kappa}")
    if kappa < KAPPA_WARN:
        warnings.warn(
            f"kappa = {kappa} < {KAPPA_WARN}: the drive is barely adiabatic and "
            "the closed-form predictions degrade",
            stacklevel=3,
        )


@dataclass(frozen=True)
class Schedule:
    """Ordered segments plus boundary kinds, rotation rate and start azimuth.

    ``boundaries`` has one entry per internal boundary ("pulse" or "flip");
    ``final`` is the closing swap kind or None.
    """

    segments: tuple
    kappa: float
    phi0: float = 0.0
    boundaries: tuple = field(default=())
    final: Optional[str] = None

    def __post_init__(self):
        segs = tuple(self.segments)
        object.__setattr__(self, "segments", segs)
        object.__setattr__(self, "boundaries", tuple(self.boundaries))
        if not segs:
            raise ValueError("schedule needs at least one segment")
        _check_kappa(self.kappa)
        if len(self.boundaries) != len(segs) - 1:
            raise ValueError(
                f"need {len(segs) - 1} boundary kinds, got {len(self.boundaries)}"
            )
        for k, kind in enumerate(self.boundaries):
            if kind not in ("pulse", "flip"):
                raise ValueError(f"unknown boundary kind {kind!r}")
            if segs[k + 1].s != -segs[k].s:
                raise ValueError("branch label s must alternate across boundaries")
            if kind == "flip" and abs(segs[k + 1].theta - (math.pi - segs[k].theta)) > 1e-9:
                raise ValueError(
                    "flip boundaries require the mirrored cone theta -> pi - theta"
                )
        if self.final not in (None, "pulse", "flip"):
            raise ValueError(f"unknown final swap kind {self.final!r}")

    # -- geometry ---------------------------------------------------------

    @property
    def omega_b(self) -> float:
        """Common rotation rate |omega_rf| in B0-units."""
        return 1.0 / self.kappa

    def durations(self) -> list:
        """Segment durations 2*pi*|l_k|/omega_B in B0-units."""
        return [_TWO_PI * float(abs(s.l)) * self.kappa for s in self.segments]

    @property
    def total_time(self) -> float:
        return sum(self.durations())

    def segment_phi_starts(self) -> list:
        """Start azimuth of each segment, including flip jumps of pi."""
        phis = []
        phi = self.phi0
        for k, seg in enumerate(self.segments):
            phis.append(phi)
            phi += _TWO_PI * float(seg.l)
            if k < len(self.boundaries) and self.boundaries[k] == "flip":
                phi += math.pi
        return phis

    def end_direction(self) -> tuple:
        """(theta, phi) of the field at the end of the last segment."""
        phi = self.segment_phi_starts()[-1] + _TWO_PI * float(self.segments[-1].l)
        return self.segments[-1].theta, phi

    def readout_direction(self) -> tuple:
        """(theta, phi) of the readout eigenbasis, after any closing flip."""
        theta, phi = self.end_direction()
        if self.final == "flip":
            return math.pi - theta, phi + math.pi
        return theta, phi


# -- builders --------------------------------------------------------------


def build_fid(theta: float, m: int, kappa: float) -> Schedule:
    """Free evolution: a single cone loop with winding m, no swaps."""
    if m == 0:
        raise ValueError("winding m = 0 gives a zero-duration loop")
    return Schedule(
        segments=(SegmentSpec(theta, Fraction(m), -1),),
        kappa=kappa,
        boundaries=(),
        final=None,
    )


def build_se(theta: float, kappa: float) -> Schedule:
    """Spin echo: one anticlockwise loop, swap, one clockwise loop, swap."""
    return Schedule(
        segments=(
            SegmentSpec(theta, Fraction(1), -1),
            SegmentSpec(theta, Fraction(-1), 1),
        ),
        kappa=kappa,
        boundaries=("pulse",),
        final="pulse",
    )


def build_cpmg(theta: float, kappa: float) -> Schedule:
    """Two-pulse echo with segment durations T/4, T/2, T/4."""
    return Schedule(
        segments=(
            SegmentSpec(theta, Fraction(1, 2), -1),
            SegmentSpec(theta, Fraction(-1), 1),
            SegmentSpec(theta, Fraction(1, 2), -1),
        ),
        kappa=kappa,
        boundaries=("pulse", "pulse"),
        final=None,
    )


def build_balanced(theta_a: float, kappa: float, base: str = "cpmg") -> Schedule:
    """Echo with the clockwise segment slanted at the balancing companion angle.

    The companion angle theta_c makes the noise-coupling weight of the
    reversed segment equal in magnitude to that of the forward segments, so
    the piecewise weight becomes a pure echo pattern and the residual
    geometric dephasing cancels.  theta_c is the exact balance root from
    :func:`solve_theta_c_exact`.  ``base`` names the echo whose
    reversed segment moves to the companion cone: "se" or "cpmg".
    """
    echoes = {"se": build_se, "cpmg": build_cpmg}
    if base not in echoes:
        raise ValueError(f"base must be 'se' or 'cpmg', got {base!r}")
    theta_c = solve_theta_c_exact(theta_a, kappa)
    echo = echoes[base](theta_a, kappa)
    segments = tuple(replace(seg, theta=theta_c) if seg.l < 0 else seg for seg in echo.segments)
    return replace(echo, segments=segments)


def build_mirror(theta_a: float, kappa: float) -> Schedule:
    """Four-segment sequence alternating between the theta and pi-theta cones.

    Half-windings on the theta_a cone (pulse-joined), then half-windings on
    the mirrored cone reached by a field reversal.  The four noise-coupling
    weights cancel pairwise, suppressing both the dynamic and the residual
    geometric dephasing while keeping the full loop geometric phase.
    """
    return Schedule(
        segments=(
            SegmentSpec(theta_a, Fraction(1, 2), -1),
            SegmentSpec(theta_a, Fraction(-1, 2), 1),
            SegmentSpec(math.pi - theta_a, Fraction(-1, 2), -1),
            SegmentSpec(math.pi - theta_a, Fraction(1, 2), 1),
        ),
        kappa=kappa,
        boundaries=("pulse", "flip", "pulse"),
        final="flip",
    )


# -- companion-angle solvers ------------------------------------------------


def solve_theta_c_exact(theta_a: float, kappa: float) -> float:
    """Exact balancing angle: root of cos(tc) + sin^2(tc)/kappa = R.

    R = cos(ta) - sin^2(ta)/kappa.  Substituting c = cos(tc) gives the
    quadratic c^2 - kappa*c + (kappa*R - 1) = 0 whose smaller root lies in
    [-1, 1]; the residual of the returned angle is below 1e-12.
    """
    if not 0.0 < theta_a < math.pi:
        raise ValueError(f"theta_a must lie in (0, pi), got {theta_a}")
    if kappa <= 1:
        raise ValueError(f"kappa must exceed 1, got {kappa}")
    target = math.cos(theta_a) - math.sin(theta_a) ** 2 / kappa
    disc = kappa * kappa - 4.0 * (kappa * target - 1.0)
    if disc < 0:
        raise ValueError("balance equation has no real root")
    c = (kappa - math.sqrt(disc)) / 2.0
    if not -1.0 <= c <= 1.0:
        raise ValueError(
            f"balance root cos(theta_c) = {c} outside [-1, 1] "
            f"(theta_a={theta_a}, kappa={kappa})"
        )
    return math.acos(c)


def solve_theta_c_approx(theta_a: float, kappa: float) -> float:
    """Adiabatic-expansion approximation to the balancing angle.

    Accurate to O(1/kappa^2) relative to :func:`solve_theta_c_exact`; kept
    as a cross-check, not used to build schedules.
    """
    ca = math.cos(theta_a)
    k2 = kappa * kappa
    num = ca - 2.0 / kappa + ca / (k2 + 1.0)
    den = 1.0 + (1.0 - 2.0 * kappa * ca) / (k2 + 1.0)
    c = num / den
    if not -1.0 <= c <= 1.0:
        raise ValueError(f"approximate cos(theta_c) = {c} outside [-1, 1]")
    return math.acos(c)


# -- derived quantities ------------------------------------------------------


def expected_phase_difference(schedule: Schedule) -> float:
    """Loop geometric phase difference between the two branches.

    Each segment contributes pi*l*(1 + s*cos(theta)) to the branch whose
    eigenvalue there is s; the returned value is branch(-1) - branch(+1),
    i.e. the sum of 2*pi*l_k*s_k*cos(theta_k).
    """
    return sum(
        _TWO_PI * float(seg.l) * seg.s * math.cos(seg.theta) for seg in schedule.segments
    )


def linear_coefficients(schedule: Schedule, kappa: float,
                        noise_axis: str = "longitudinal") -> list:
    """Per-segment weight of the noise in the random phase, on either noise axis.

    Returns (c_k, duration_k); the random relative phase is
    -sum_k c_k * integral of K over segment k.  For longitudinal noise
    (on the field's z component)

        c_k = s_k (cos theta_k - sgn(l_k) sin^2(theta_k)/kappa),

    and for transverse (radial, drive-amplitude) noise

        c_k = s_k (sin theta_k - sgn(l_k) cos(theta_k) sin(theta_k)/kappa).

    Unlike the longitudinal case, the mirror sequence does NOT null the sum
    of the transverse weights: the radial geometric weight keeps the same
    sign on both cones.
    """
    if noise_axis == "longitudinal":
        def weight(seg):
            return math.cos(seg.theta) - seg.winding_sign * math.sin(seg.theta) ** 2 / kappa
    elif noise_axis == "transverse":
        def weight(seg):
            return (math.sin(seg.theta)
                    - seg.winding_sign * math.cos(seg.theta) * math.sin(seg.theta) / kappa)
    else:
        raise ValueError(
            f"noise_axis must be 'longitudinal' or 'transverse', got {noise_axis!r}")
    return [(seg.s * weight(seg), _TWO_PI * float(abs(seg.l)) * kappa)
            for seg in schedule.segments]


def dynamic_phase_sum(schedule: Schedule) -> Fraction:
    """Exact rational sum of s_k * |l_k|; zero means dynamic phases cancel."""
    return sum((seg.s * abs(seg.l) for seg in schedule.segments), Fraction(0))
