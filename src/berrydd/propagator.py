"""Exact step-wise unitary evolution of the driven qubit under the total field.

Everything is in B0-units (B0 = 1, hbar = 1): the Hamiltonian is
H = B_total . sigma / 2 and a step of duration dt applies the exact
exponential

    U = cos(|B| dt/2) I - i sin(|B| dt/2) (B_hat . sigma).

``evolve_batch`` steps a batch of noise paths this way: the drive
direction is evaluated at the step midpoint and the noise value is held
constant over the step.  Swap pulses act at ``pulse`` boundaries,
``flip`` boundaries reverse the field (state untouched), and
``schedule_coherence`` reads the final states out.

Eigenstate convention for the direction n(theta, phi):

    |+1> = (e^{-i phi} cos(theta/2),  sin(theta/2))
    |-1> = (e^{-i phi} sin(theta/2), -cos(theta/2))

The evolution of a uniform-rotation segment, noiseless or under a constant
longitudinal offset, also has a closed form (constant Hamiltonian in the
co-rotating frame); ``evolve_exact`` uses it and serves as the
stepping-free oracle in the tests and the quasi-static theory.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .schedule import Schedule

__all__ = [
    "StepGrid",
    "eigenstate",
    "initial_superposition",
    "evolve_batch",
    "evolve_exact",
    "schedule_coherence",
]

_SX = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
_SY = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
_SZ = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
_ID = np.eye(2, dtype=complex)

# states per readout product: below the size (about 2048 rows in OpenBLAS)
# at which a threaded BLAS splits a matrix-vector product over threads,
# whose workers then spin beside the caller and slow it on a small host
_READOUT_ROWS = 1024


@dataclass(frozen=True)
class StepGrid:
    """Step duration and per-segment step counts for a schedule.

    dt = (2 pi / B0) / divisor; every segment duration must be an integer
    number of steps, which holds whenever |l_k| * kappa * divisor is an
    integer (the built-in schemes at the default divisor satisfy this).
    """

    dt: float
    steps_per_segment: tuple

    @classmethod
    def from_schedule(cls, schedule: Schedule, divisor: int = 10) -> "StepGrid":
        if divisor < 1:
            raise ValueError("divisor must be a positive integer")
        dt = 2.0 * math.pi / divisor
        steps = []
        for seg in schedule.segments:
            x = float(abs(seg.l)) * schedule.kappa * divisor
            n = round(x)
            if abs(x - n) > 1e-6 or n == 0:
                raise ValueError(
                    f"segment with |l|={abs(seg.l)} is not an integer number of "
                    f"steps at kappa={schedule.kappa}, divisor={divisor}; "
                    "pick a divisor that makes |l|*kappa*divisor integral"
                )
            steps.append(n)
        return cls(dt=dt, steps_per_segment=tuple(steps))

    @property
    def total_steps(self) -> int:
        return sum(self.steps_per_segment)


def eigenstate(theta: float, phi: float, s: int) -> np.ndarray:
    """Eigenstate of n(theta, phi).sigma with eigenvalue s."""
    if s == 1:
        return np.array([np.exp(-1j * phi) * math.cos(theta / 2), math.sin(theta / 2)])
    if s == -1:
        return np.array([np.exp(-1j * phi) * math.sin(theta / 2), -math.cos(theta / 2)])
    raise ValueError(f"s must be +1 or -1, got {s}")


def _vector_to_angles(n) -> tuple:
    n = np.asarray(n, dtype=float)
    r = np.linalg.norm(n)
    if r == 0:
        raise ValueError("direction vector must be nonzero")
    return math.acos(np.clip(n[2] / r, -1.0, 1.0)), math.atan2(n[1], n[0])


def initial_superposition(n0) -> np.ndarray:
    """Equal superposition of the two eigenstates of n0.sigma."""
    theta, phi = _vector_to_angles(n0)
    return (eigenstate(theta, phi, 1) + eigenstate(theta, phi, -1)) / math.sqrt(2.0)


def _pulse(phi, p0, p1):
    """The pulse -sin(phi) sx + cos(phi) sy = [[0, -i e^{-i phi}], [i e^{i phi}, 0]]
    applied to the state components (p0, p1)."""
    f = np.exp(1j * phi)
    return -1j * np.conj(f) * p1, 1j * f * p0


def _direction(theta, phi):
    return np.array(
        [math.sin(theta) * math.cos(phi), math.sin(theta) * math.sin(phi), math.cos(theta)]
    )


def _structure(schedule):
    """A schedule without its cone angles: what its stepping shares with others."""
    return (tuple(seg.l for seg in schedule.segments), schedule.boundaries,
            schedule.final, schedule.kappa, schedule.phi0)


def _per_row(schedule, nreal):
    """The distinct schedules of a batch and a function spreading their values over rows.

    ``schedule`` is one Schedule for all rows, or a sequence with one per
    row.  ``spread`` takes one value per distinct schedule and returns the
    value itself when there is only one schedule, else a per-row array.
    """
    if isinstance(schedule, Schedule):
        distinct = [schedule]
    else:
        if len(schedule) != nreal:
            raise ValueError(f"{len(schedule)} schedules for {nreal} noise rows")
        distinct = list({id(s): s for s in schedule}.values())
        if any(_structure(s) != _structure(distinct[0]) for s in distinct):
            raise ValueError("the schedules of one batch may differ only in their cone angles")
    if len(distinct) == 1:
        return distinct, lambda values: values[0]
    slot = {id(s): i for i, s in enumerate(distinct)}
    index = np.array([slot[id(s)] for s in schedule], dtype=np.intp)
    return distinct, lambda values: np.asarray(values)[index]


def evolve_batch(
    schedule: Schedule,
    noise_values: np.ndarray,
    grid: StepGrid,
    noise_axis: str = "longitudinal",
) -> np.ndarray:
    """Evolve a batch of realizations through the schedule.

    noise_values has shape (R, total_steps): one piecewise-constant noise
    path per realization.  A step-major array (``np.zeros((total_steps,
    R)).T``, as the ensemble batches hold) is read without a copy, one
    contiguous column per step.  Returns the (R, 2) final states.  Each
    state is advanced per step with the exact constant-field exponential; a
    pulse that ends a segment (or the schedule) acts after that segment's
    last step, and flips apply no unitary.

    ``schedule`` is one Schedule that drives every row, or a sequence of R
    schedules, one per row, that differ only in their cone angles (same
    windings, boundary kinds, kappa and start azimuth), such as one scheme
    at several theta.  Each row then starts in its own schedule's initial
    superposition and steps with its own angles; a row's final state is
    the same whichever rows share its batch.
    """
    noise_values = np.atleast_2d(np.asarray(noise_values, dtype=float))
    nreal, nsteps = noise_values.shape
    if nsteps != grid.total_steps:
        raise ValueError(
            f"noise has {nsteps} steps but the grid expects {grid.total_steps}"
        )
    distinct, spread = _per_row(schedule, nreal)
    schedule = distinct[0]
    if len(grid.steps_per_segment) != len(schedule.segments):
        raise ValueError("grid does not match the schedule's segment count")
    longitudinal = noise_axis == "longitudinal"
    if not longitudinal and noise_axis != "transverse":
        raise ValueError(f"noise_axis must be 'longitudinal' or 'transverse', got {noise_axis!r}")
    psi0 = np.broadcast_to(spread([initial_superposition(_direction(s.segments[0].theta, s.phi0))
                                   for s in distinct]), (nreal, 2))
    p0, p1 = psi0[:, 0], psi0[:, 1]

    dt = grid.dt
    phis = schedule.segment_phi_starts()
    swaps = (*schedule.boundaries, schedule.final)
    i = 0
    for k, seg in enumerate(schedule.segments):
        omega_rf = seg.winding_sign * schedule.omega_b
        st = spread([math.sin(s.segments[k].theta) for s in distinct])
        ct = spread([math.cos(s.segments[k].theta) for s in distinct])
        phi0 = phis[k]
        for j in range(grid.steps_per_segment[k]):
            phi_mid = phi0 + omega_rf * (j + 0.5) * dt
            cphi, sphi = math.cos(phi_mid), math.sin(phi_mid)
            kval = noise_values[:, i]
            if longitudinal:
                bx = st * cphi
                by = st * sphi
                bz = ct + kval
                norm = np.sqrt(bx * bx + by * by + bz * bz)
            else:
                radial = st + kval
                bx = radial * cphi
                by = radial * sphi
                bz = ct
                norm = np.sqrt(radial * radial + ct * ct)
            half = 0.5 * norm * dt
            c = np.cos(half)
            s_over = np.where(norm > 0.0, np.sin(half) / np.where(norm > 0.0, norm, 1.0), 0.0)
            sx = s_over * bx
            sy = s_over * by
            sz = s_over * bz
            n0 = (c - 1j * sz) * p0 + (-sy - 1j * sx) * p1
            n1 = (sy - 1j * sx) * p0 + (c + 1j * sz) * p1
            p0, p1 = n0, n1
            i += 1
        if swaps[k] == "pulse":
            p0, p1 = _pulse(phi0 + 2.0 * math.pi * float(seg.l), p0, p1)
    return np.stack([p0, p1], axis=1)


# -- closed form for constant noise ------------------------------------------


def _frame_unitary(theta, phi):
    # exp(i theta sy/2) exp(i phi sz/2) e^{i phi/2}: maps lab eigenstates to z
    ey = math.cos(theta / 2) * _ID + 1j * math.sin(theta / 2) * _SY
    ez = math.cos(phi / 2) * _ID + 1j * math.sin(phi / 2) * _SZ
    return ey @ ez * np.exp(1j * phi / 2)


def segment_unitary_exact(theta, omega_rf, duration, phi0, offset=0.0):
    """Closed-form propagator of one uniform-rotation segment.

    ``offset`` is a constant longitudinal field K added to the drive.  The
    field (sin theta cos phi, sin theta sin phi, cos theta + K) still
    rotates uniformly about z, so in the co-rotating frame the generator
    stays constant: K - omega_rf adds along the lab z axis.  K = 0 is the
    noiseless segment.
    """
    v = np.array([
        (omega_rf - offset) * math.sin(theta), 0.0,
        1.0 + (offset - omega_rf) * math.cos(theta),
    ])
    om = np.linalg.norm(v)
    vh = v / om
    half = 0.5 * om * duration
    rot = math.cos(half) * _ID - 1j * math.sin(half) * (
        vh[0] * _SX + vh[1] * _SY + vh[2] * _SZ
    )
    rot = rot * np.exp(1j * omega_rf * duration / 2)
    u0 = _frame_unitary(theta, phi0)
    u1 = _frame_unitary(theta, phi0 + omega_rf * duration)
    return u1.conj().T @ rot @ u0


def evolve_exact(schedule: Schedule, offset: float = 0.0) -> np.ndarray:
    """Evolution of the initial superposition by exact segment propagators (no stepping).

    ``offset`` is a constant longitudinal noise value K held over the whole
    schedule (quasi-static noise); the default 0 is the noiseless run.
    """
    psi = initial_superposition(_direction(schedule.segments[0].theta, schedule.phi0))
    phis = schedule.segment_phi_starts()
    durations = schedule.durations()
    for k, seg in enumerate(schedule.segments):
        omega_rf = seg.winding_sign * schedule.omega_b
        psi = segment_unitary_exact(
            seg.theta, omega_rf, durations[k], phis[k], offset) @ psi
        if (*schedule.boundaries, schedule.final)[k] == "pulse":
            psi = np.array(_pulse(phis[k] + 2.0 * math.pi * float(seg.l), *psi))
    return psi


def schedule_coherence(schedule: Schedule, state):
    """Readout coherence of a final state in the schedule's readout basis.

    ``state`` is one state (2,), giving a complex, or a batch (R, 2) of
    states, giving R coherences; two rows are two states.
    """
    theta, phi = schedule.readout_direction()
    em = eigenstate(theta, phi, -1)
    ep = eigenstate(theta, phi, 1)
    arr = np.asarray(state, dtype=complex)
    if arr.ndim == 2:  # batch of states; each row's product is the same in any chunk
        out = np.empty(len(arr), dtype=complex)
        for lo in range(0, len(arr), _READOUT_ROWS):
            blk = arr[lo:lo + _READOUT_ROWS]
            out[lo:lo + len(blk)] = (blk @ em.conj()) * np.conj(blk @ ep.conj())
        return out
    return complex((em.conj() @ arr) * np.conj(ep.conj() @ arr))
