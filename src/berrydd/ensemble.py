"""Monte Carlo engine: average many noise realizations and extract phase/coherence.

Each realization r of an experiment draws its noise path from the
counter-based substream keyed (master_seed, stream_key, 0, r), evolves it
through the schedule, and contributes the readout coherence
z_r = <-1|psi_r><psi_r|+1>.  The ensemble estimators follow

    gamma = arg <z>,   W = |<z>| / |z(0)|,   |z(0)| = 1/2.

Realizations run in compute batches of about ``_BATCH_ELEMS`` noise
samples, fewer when ``workers`` share the rows; a process pool, if any,
gets one task per batch and has at most as many processes as there are
batches or CPUs.  A batch holds its noise paths step-major, so that each
step's values over all rows are contiguous for ``evolve_batch``.  It draws
each row's normals from that row's own substream
(``noise.substream_normals``: one vectorised Philox key pass per chunk of
at most ``_DRAW_ROWS`` rows) into a small row-major buffer, filters each
chunk with its point's OU recursion straight into the batch's paths and
evolves all rows with one ``evolve_batch`` call, then reads each row's
coherence out where it ran, so a batch (or a pool child) hands back
coherences, not states.
``run_ensembles`` stacks the points of a sweep that share a scheme into
the same batches, with per-row cone angles, so all theta points of a
scheme step in one call.  Per-row results do not depend on the batch a
row sits in, so every point's results are bit-identical for any worker
count and any stacking.

An adaptive point runs alone, in-process, through the same batches, which
grow: a first batch of ``_ADAPTIVE_FIRST_ROWS`` rows, then as many whole
blocks as the delta-method standard error predicts are still missing.  It
stops at the first ``_BLOCK`` multiple n >= 2 * ``_BLOCK`` at which both
the delta-method SE of W over the first n coherences (from running sums,
:func:`_prefix_w_stderr`) and their bootstrap SE are below
``adaptive_target``; the bootstrap runs only where the delta-method SE
passes.  The stop is a function of the rows alone, so the batch sizes only
change the cost; rows past it are dropped.

Each point's zero-noise reference rides along as the row before its
realization 0.  Its phase gamma_ref carries the scheme-constant offset
(non-adiabatic corrections plus any pulse-convention contribution)
relative to the ideal loop phase; gamma_corrected subtracts that offset
from gamma_mean.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass, field, replace
from functools import partial
from itertools import product

import numpy as np

from . import analytics, noise, propagator, schedule as sched

__all__ = [
    "SCHEME_IDS",
    "ExperimentConfig",
    "EnsembleResult",
    "build_schedule",
    "run_ensemble",
    "run_ensembles",
    "sweep_theta",
    "sweep_beta",
    "bootstrap_errors",
    "wrap_angle",
]

SCHEME_IDS = tuple(analytics.SCHEMES)

# realizations per adaptive stop candidate and the fewest rows of a compute
# batch; fixed so the stop never depends on the batch size or the worker count
_BLOCK = 64
# an adaptive point's first batch, and the margin on the rows it predicts it
# still needs after each batch
_ADAPTIVE_FIRST_ROWS = 4 * _BLOCK
_ADAPTIVE_MARGIN = 1.1
# noise samples per compute batch (32 MB of float64 paths)
_BATCH_ELEMS = 1 << 22
# rows per draw of normals: the row-major buffer they go to stays small
_DRAW_ROWS = 1024
# resample indices drawn per bootstrap block: at 8 B of int64 index plus 16 B
# of gathered complex128 per element, a block takes about 1.5 MB and stays in
# one core's L2, so the gather and its row means run from cache
_BOOTSTRAP_CHUNK_ELEMS = 1 << 16
# substream namespaces under (master_seed, stream_key, ...)
_NS_NOISE = 0
_NS_BOOTSTRAP = 1


def wrap_angle(x):
    """Reduce an angle to (-pi, pi]."""
    return -((-np.asarray(x) + np.pi) % (2.0 * np.pi) - np.pi)


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything one ensemble needs, in dimensionless units."""

    scheme: str
    theta_a: float
    beta: float
    eta: float
    kappa: float = 12.0
    realizations: int = 400
    master_seed: int = 2024
    dt_divisor: int = 10
    noise_axis: str = "longitudinal"
    workers: int = 1
    stream_key: int = 0
    adaptive: bool = False
    adaptive_target: float = 0.01
    bootstrap_resamples: int = 1000

    def __post_init__(self):
        if self.scheme not in SCHEME_IDS:
            raise ValueError(f"scheme must be one of {SCHEME_IDS}, got {self.scheme!r}")
        if self.realizations < 2:
            raise ValueError(
                f"realizations must be >= 2 (the bootstrap needs two), got {self.realizations}"
            )
        if self.noise_axis not in ("longitudinal", "transverse"):
            raise ValueError(f"bad noise_axis {self.noise_axis!r}")
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        if self.bootstrap_resamples < 2:
            raise ValueError(
                f"bootstrap_resamples must be >= 2, got {self.bootstrap_resamples}")
        if not (math.isfinite(self.adaptive_target) and self.adaptive_target > 0):
            raise ValueError(
                f"adaptive_target must be finite and > 0, got {self.adaptive_target}")
        # the substream keys hash these words; a bad one must not reach a run
        for name in ("master_seed", "stream_key"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < 0:
                raise ValueError(f"{name} must be an integer >= 0, got {value!r}")
        if not 0.0 < self.theta_a < math.pi:
            raise ValueError(f"theta_a must lie in (0, pi), got {self.theta_a}")
        if self.dt_divisor < 1:
            raise ValueError(f"dt_divisor must be >= 1, got {self.dt_divisor}")
        self.params()  # DrivenParams names a bad beta, eta or kappa
        try:
            propagator.StepGrid.from_schedule(build_schedule(self), self.dt_divisor)
        except ValueError as exc:
            raise ValueError(f"kappa = {self.kappa} does not fit the step grid: {exc}") from exc

    def params(self) -> analytics.DrivenParams:
        # checked before theta_c is solved for, so a bad kappa is named as such
        params = analytics.DrivenParams(
            kappa=self.kappa, theta=self.theta_a, beta=self.beta, eta=self.eta)
        if analytics.SCHEMES[self.scheme].uses_theta_c:
            params = replace(params, theta_c=sched.solve_theta_c_exact(self.theta_a, self.kappa))
        return params


@dataclass(frozen=True)
class EnsembleResult:
    """Per-realization coherences, their estimators and attached theory values."""

    config: ExperimentConfig
    gamma_mean: float
    w: float
    gamma_stderr: float
    w_stderr: float
    prediction: analytics.DephasingPrediction
    chi_exact: float
    gamma_ref: float
    w_ref: float
    gamma_corrected: float
    gamma_sample_std: float
    w_sample_std: float
    realizations_used: int
    coherences: np.ndarray = field(repr=False)


def build_schedule(config: ExperimentConfig) -> sched.Schedule:
    """The configured scheme's schedule, from its entry in ``analytics.SCHEMES``."""
    return analytics.SCHEMES[config.scheme].build(config.theta_a, config.kappa)


def _batches(counts, rows):
    """Cut the points' realizations, in point order, into batches of ``rows``.

    A batch is a list of pieces (point, lo, hi): realizations [lo, hi) of
    that point.  A piece with lo == 0 also carries the point's zero-noise
    reference row, which does not count against ``rows``.
    """
    batches, batch, room = [], [], rows
    for p, n in enumerate(counts):
        lo = 0
        while lo < n:
            hi = min(n, lo + room)
            batch.append((p, lo, hi))
            room -= hi - lo
            lo = hi
            if room == 0:
                batches.append(batch)
                batch, room = [], rows
    if batch:
        batches.append(batch)
    return batches


def _batch_rows(realizations, workers, n_steps):
    """Realization rows per compute batch: the element budget, split over workers."""
    return min(max(_BLOCK, _BATCH_ELEMS // n_steps), -(-realizations // workers))


def _cpus():
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call outside Linux
        return os.cpu_count() or 1


def _run_batch(points, grid, batch):
    """Evolve one compute batch; returns (reference coherence or None, coherences) per piece.

    ``points`` holds (config, schedule, OU model) per point.  A piece
    with lo == 0 puts the point's zero-noise reference row before its
    realizations and reads it out alone, with the single-state readout.
    The batch's (rows, steps) path array is step-major.  Each piece's
    normals are drawn in chunks of at most ``_DRAW_ROWS`` rows into one
    row-major buffer, which ``Generator.standard_normal`` fills row by
    row, and each chunk is filtered from there into its rows of the path
    array with the point's own model.
    """
    n_steps = grid.total_steps
    sizes = [hi - lo + (lo == 0) for _, lo, hi in batch]
    values = np.zeros((n_steps, sum(sizes))).T
    buffer = np.empty((min(_DRAW_ROWS, max(hi - lo for _, lo, hi in batch)), n_steps))
    schedules = []
    end = 0
    for (p, lo, hi), size in zip(batch, sizes):
        config, schedule, model = points[p]
        end += size
        first = end - hi  # the path row of realization 0
        for a in range(lo, hi, _DRAW_ROWS):
            b = min(hi, a + _DRAW_ROWS)
            z = noise.substream_normals(config.master_seed, (config.stream_key, _NS_NOISE),
                                        range(a, b), n_steps, out=buffer[:b - a])
            noise.ou_filter(model, z, grid.dt, out=values[first + a:first + b])
        schedules += [schedule] * size
    states = propagator.evolve_batch(schedules, values, grid,
                                     noise_axis=points[0][0].noise_axis)
    out, end = [], 0
    for (p, lo, hi), size in zip(batch, sizes):
        schedule = points[p][1]
        end += size
        ref = propagator.schedule_coherence(schedule, states[end - size]) if lo == 0 else None
        out.append((ref, propagator.schedule_coherence(schedule, states[end - (hi - lo):end])))
    return out


def run_ensemble(config: ExperimentConfig) -> EnsembleResult:
    """Run the configured ensemble and attach the analytic prediction.

    Deterministic for a fixed config: the same master seed gives the same
    estimators for any worker count.  With ``adaptive`` set, the run keeps
    the first n realizations, n the smallest multiple of ``_BLOCK`` from
    2 * ``_BLOCK`` up at which the delta-method and the bootstrap standard
    errors of W are both below ``adaptive_target``, or all ``realizations``
    if none is; the reported ``w_stderr`` is that bootstrap's.  This is the
    one-point case of :func:`run_ensembles`.
    """
    return run_ensembles([config])[0]


def run_ensembles(configs) -> list:
    """Run many ensembles; returns one EnsembleResult per config, in order.

    Configs of one scheme, kappa, dt divisor, noise axis and worker count
    form a stack whose realizations share compute batches; each point's
    rows still come from its own substreams.  Every result equals, bit for
    bit, what :func:`run_ensemble` gives for its config alone.  Adaptive
    configs run alone.
    """
    configs = list(configs)
    stacks = {}
    for i, cfg in enumerate(configs):
        key = (i,) if cfg.adaptive else (
            cfg.scheme, cfg.kappa, cfg.dt_divisor, cfg.noise_axis, cfg.workers)
        stacks.setdefault(key, []).append(i)
    results = [None] * len(configs)
    for members in stacks.values():
        for i, res in zip(members, _run_stack([configs[i] for i in members])):
            results[i] = res
    return results


def _run_stack(configs):
    """The results of configs whose schedules differ only in their cone angles."""
    points = [(cfg, build_schedule(cfg), cfg.params().noise_model()) for cfg in configs]
    first = configs[0]
    grid = propagator.StepGrid.from_schedule(points[0][1], first.dt_divisor)
    counts = [cfg.realizations for cfg in configs]
    rows = _batch_rows(sum(counts), first.workers, grid.total_steps)
    if first.adaptive:  # runs alone
        return [_run_adaptive(points[0], grid, rows)]
    batches = _batches(counts, rows)
    # a pool forks all its workers at once: never more than the batches or CPUs
    pool_size = min(first.workers, len(batches), _cpus())
    parallel = pool_size > 1
    refs = [None] * len(points)
    zs = [[] for _ in points]
    with (ProcessPoolExecutor(max_workers=pool_size) if parallel
          else nullcontext()) as pool:
        outputs = (pool.map if parallel else map)(
            partial(_run_batch, points, grid), batches
        )
        for batch, pieces in zip(batches, outputs):  # batch order
            for (p, lo, _), (ref, z) in zip(batch, pieces):
                if lo == 0:
                    refs[p] = ref
                zs[p].append(z)
    return [_result(*point, refs[p], np.concatenate(zs[p])) for p, point in enumerate(points)]


def _run_adaptive(point, grid, rows):
    """The result of one adaptive point (see :func:`run_ensemble`).

    After each batch the stop candidates it completed are checked in order;
    the next batch holds the whole blocks the delta-method SE predicts are
    still missing, plus ``_ADAPTIVE_MARGIN``, at most ``rows``.
    """
    config = point[0]
    cap, target = config.realizations, config.adaptive_target
    zs, boot = [], {}
    drawn, used, size = 0, None, _ADAPTIVE_FIRST_ROWS
    while used is None and drawn < cap:
        hi = min(cap, drawn + size)
        [(piece_ref, piece)] = _run_batch([point], grid, [(0, drawn, hi)])
        if drawn == 0:
            ref = piece_ref
        zs.append(piece)
        z = np.concatenate(zs)
        se = _prefix_w_stderr(z)
        for n in range(max(2 * _BLOCK, (drawn // _BLOCK + 1) * _BLOCK), hi + 1, _BLOCK):
            if se[n - 1] < target:
                boot[n] = bootstrap_errors(
                    z[:n], config.bootstrap_resamples,
                    noise.substream(config.master_seed, config.stream_key, _NS_BOOTSTRAP),
                )
                if boot[n][1] < target:
                    used = n
                    break
        drawn = hi
        want = math.ceil(drawn * (se[-1] / target) ** 2 * _ADAPTIVE_MARGIN)
        size = min(rows, max(_BLOCK, -(-(want - drawn) // _BLOCK) * _BLOCK))
    used = used or drawn
    return _result(*point, ref, z[:used], boot.get(used))


def _prefix_w_stderr(z):
    """Delta-method SE of W over every prefix: element n-1 is that of z[:n].

    SE_W(n) = 2 std(Re(z e^{-i gamma_n})) / sqrt(n) over z[:n] (ddof 0),
    gamma_n the phase of their mean (Efron & Tibshirani, *An Introduction
    to the Bootstrap*, 1993).  All prefixes come from running sums of the
    real and imaginary parts, their squares and their product.  The sums run
    over deviations from the first block's mean, in the frame of its phase,
    so they cancel no more than the spread does, even for coherences spread
    mostly in phase.
    """
    z = np.asarray(z, dtype=complex)
    shift = z[:_BLOCK].mean()
    dev = (z - shift) * np.exp(-1j * np.angle(shift))
    x, y = dev.real, dev.imag
    n = np.arange(1, len(z) + 1)
    mx, my, mxx, myy, mxy = (np.cumsum(a) / n for a in (x, y, x * x, y * y, x * y))
    # gamma_n less the phase of the shift
    turn = np.angle(abs(shift) + mx + 1j * my)
    u, v = np.cos(turn), np.sin(turn)
    along = mx * u + my * v
    var = mxx * u * u + 2.0 * mxy * u * v + myy * v * v - along * along
    return 2.0 * np.sqrt(np.maximum(var, 0.0) / n)


def _result(config, schedule, model, z_ref, z, errors=None):
    """One point's estimators and theory from its reference and realization coherences.

    ``errors`` is the (gamma, W) bootstrap of ``z`` when the caller already
    ran it.
    """
    # zero-noise reference on the same grid: scheme-constant phase offset
    gamma_ref = float(np.angle(z_ref))
    w_ref = 2.0 * abs(z_ref)

    z_mean = z.mean()
    gamma_mean = float(np.angle(z_mean))
    w = 2.0 * abs(z_mean)

    gamma_stderr, w_stderr = errors or bootstrap_errors(
        z, config.bootstrap_resamples,
        noise.substream(config.master_seed, config.stream_key, _NS_BOOTSTRAP),
    )

    prediction = analytics.prediction_for_scheme(
        config.scheme, config.params(),
        mode="lowfreq" if config.beta <= 0.1 else "full",
    )
    chi_exact = analytics.chi_from_piecewise(
        sched.linear_coefficients(schedule, config.kappa, config.noise_axis), model)

    offset = wrap_angle(gamma_ref - prediction.gamma_expected)
    gamma_corrected = float(wrap_angle(gamma_mean - offset))

    dev = wrap_angle(np.angle(z) - gamma_mean)
    gamma_sample_std = float(np.std(dev))
    along = 2.0 * np.real(z * np.exp(-1j * gamma_mean))
    w_sample_std = float(np.std(along))

    return EnsembleResult(
        config=config,
        gamma_mean=gamma_mean,
        w=w,
        gamma_stderr=gamma_stderr,
        w_stderr=w_stderr,
        prediction=prediction,
        chi_exact=chi_exact,
        gamma_ref=gamma_ref,
        w_ref=w_ref,
        gamma_corrected=gamma_corrected,
        gamma_sample_std=gamma_sample_std,
        w_sample_std=w_sample_std,
        realizations_used=len(z),
        coherences=z,
    )


def bootstrap_errors(per_realization_coherences, resamples: int, rng: np.random.Generator):
    """Nonparametric bootstrap standard errors of (gamma, W).

    Resamples realization-level coherences with replacement; phase
    deviations are wrapped around the point estimate so the error is not
    inflated by branch cuts.  Deterministic given the generator.

    The resamples are drawn and reduced in blocks of about
    ``_BOOTSTRAP_CHUNK_ELEMS`` indices (at least one resample per block),
    so besides the ``resamples`` means the working memory is O(block)
    whatever n x resamples is (one resample, when n alone exceeds a
    block).  The indices come from the generator in the same order
    whatever the block, so the result does not depend on it.
    """
    z = np.asarray(per_realization_coherences, dtype=complex)
    n = len(z)
    if n < 2:
        raise ValueError("bootstrap needs at least 2 realizations")
    z_mean = z.mean()
    gamma_hat = np.angle(z_mean)
    means = np.empty(resamples, dtype=complex)
    rows = max(1, _BOOTSTRAP_CHUNK_ELEMS // n)
    for lo in range(0, resamples, rows):
        idx = rng.integers(0, n, size=(min(rows, resamples - lo), n))
        means[lo:lo + len(idx)] = z[idx].mean(axis=1)
    dgamma = wrap_angle(np.angle(means) - gamma_hat)
    w_vals = 2.0 * np.abs(means)
    return float(np.std(dgamma)), float(np.std(w_vals))


# -- sweeps ------------------------------------------------------------------

THETA_SWEEP_SCHEMES = ("fid", "cpmg", "cpmg_balanced", "mirror")


def sweep_theta(base: ExperimentConfig, theta_grid, schemes=THETA_SWEEP_SCHEMES):
    """One ensemble per (scheme, theta); each point gets its own substream key.

    The points of one scheme run as one stack (see :func:`run_ensembles`).
    """
    return run_ensembles(
        replace(base, scheme=scheme, theta_a=float(theta), stream_key=key)
        for key, (scheme, theta) in enumerate(product(schemes, theta_grid))
    )


def sweep_beta(base: ExperimentConfig, beta_grid, schemes=THETA_SWEEP_SCHEMES,
               eta_per_beta: float = 400.0):
    """One ensemble per (scheme, beta) with the noise-power rule eta = 400*beta.

    The rule keeps alpha3 fixed while beta scans the correlation time; it
    is an assumption carried into the output metadata.  The points of one
    scheme run as one stack (see :func:`run_ensembles`).
    """
    return run_ensembles(
        replace(base, scheme=scheme, beta=float(beta), eta=eta_per_beta * float(beta),
                stream_key=key)
        for key, (scheme, beta) in enumerate(product(schemes, beta_grid))
    )
