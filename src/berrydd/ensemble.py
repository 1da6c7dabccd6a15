"""Monte Carlo engine: average many noise realizations and extract phase/coherence.

Each realization r of an experiment draws its noise path from the
counter-based substream keyed (master_seed, stream_key, 0, r), evolves it
through the schedule, and contributes the readout coherence
z_r = <-1|psi_r><psi_r|+1>.  The ensemble estimators follow

    gamma = arg <z>,   W = |<z>| / |z(0)|,   |z(0)| = 1/2.

Realizations run in compute batches: each batch draws its rows from
their own substreams, filters them with one OU recursion and evolves them
with one ``evolve_batch`` call.  A batch holds about ``_BATCH_ELEMS`` noise
samples in whole ``_BLOCK``-row blocks, fewer when ``workers`` share the
rows; a process pool, if any, gets one task per batch.  ``_BLOCK`` is only
the unit of the density-matrix reduction, which sums 64-row slices in
block order, and of the adaptive mode's steps.  Per-row results do not
depend on the batch a row sits in, so results are bit-identical for any
worker count.

The zero-noise reference rides along as row 0 of the first batch.  Its
phase gamma_ref carries the scheme-constant offset (non-adiabatic
corrections plus any pulse-convention contribution) relative to the ideal
loop phase; gamma_corrected subtracts that offset from gamma_mean.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass, field, replace
from functools import partial
from typing import Optional

import numpy as np

from . import analytics, noise, propagator, schedule as sched

__all__ = [
    "SCHEME_IDS",
    "ExperimentConfig",
    "EnsembleResult",
    "build_schedule",
    "run_ensemble",
    "sweep_theta",
    "sweep_beta",
    "bootstrap_errors",
    "wrap_angle",
]

SCHEME_IDS = tuple(analytics.SCHEMES)

# realizations per rho-reduction block and per adaptive step; fixed so the
# arithmetic never depends on the batch size or the worker count
_BLOCK = 64
# noise samples per compute batch (32 MB of float64 paths)
_BATCH_ELEMS = 1 << 22
# resample indices drawn per bootstrap chunk
_BOOTSTRAP_CHUNK_ELEMS = 1 << 20
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

    def params(self) -> analytics.DrivenParams:
        theta_c = None
        if analytics.SCHEMES[self.scheme].uses_theta_c:
            theta_c = sched.solve_theta_c_exact(self.theta_a, self.kappa)
        return analytics.DrivenParams(
            kappa=self.kappa, theta=self.theta_a, beta=self.beta, eta=self.eta,
            theta_c=theta_c,
        )


@dataclass(frozen=True)
class EnsembleResult:
    """Averaged density matrix, estimators and attached theory values."""

    config: ExperimentConfig
    mean_rho: np.ndarray
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
    coherences: Optional[np.ndarray] = field(default=None, repr=False)

    @property
    def chi_measured(self) -> float:
        return -math.log(self.w) if self.w > 0 else math.inf


def build_schedule(config: ExperimentConfig) -> sched.Schedule:
    """The configured scheme's schedule, from its entry in ``analytics.SCHEMES``."""
    return analytics.SCHEMES[config.scheme].build(config.theta_a, config.kappa)


def _noise_block(config, model, n_steps, dt, index_range, reference):
    """Noise paths for realizations [lo, hi), behind a zero row if ``reference``."""
    lo, hi = index_range
    z = np.zeros((hi - lo + int(reference), n_steps))
    for row, r in enumerate(range(lo, hi), start=int(reference)):
        rng = noise.substream(config.master_seed, config.stream_key, _NS_NOISE, r)
        rng.standard_normal(out=z[row])
    return noise.ou_filter(model, z, dt)


def _run_block(config, schedule, grid, model, index_range):
    """Evolve one batch; returns (reference state or None, z, per-block rho sums).

    The batch that starts at realization 0 carries the zero-noise run as
    row 0.  The rho sums cover consecutive ``_BLOCK``-row slices of the
    realizations.
    """
    reference = index_range[0] == 0
    values = _noise_block(config, model, grid.total_steps, grid.dt, index_range, reference)
    states = propagator.evolve_batch(schedule, values, grid, noise_axis=config.noise_axis)
    ref_state = states[0] if reference else None
    states = states[int(reference):]
    z = propagator.schedule_coherence(schedule, states)
    rho_sums = [
        np.einsum("ri,rj->ij", blk, blk.conj())
        for blk in (states[lo:lo + _BLOCK] for lo in range(0, len(states), _BLOCK))
    ]
    return ref_state, z, rho_sums


def _batch_rows(config, n_steps):
    """Rows per compute batch: the element budget in whole blocks, split over workers."""
    rows = max(_BLOCK, _BATCH_ELEMS // n_steps // _BLOCK * _BLOCK)
    share = -(-config.realizations // config.workers)
    return min(rows, -(-share // _BLOCK) * _BLOCK)


def run_ensemble(config: ExperimentConfig) -> EnsembleResult:
    """Run the configured ensemble and attach the analytic prediction.

    Deterministic for a fixed config: the same master seed gives the same
    estimators for any worker count.  With ``adaptive`` set, blocks keep
    accumulating until the bootstrap error of W drops below
    ``adaptive_target`` (or ``realizations`` is reached).
    """
    schedule = build_schedule(config)
    grid = propagator.StepGrid.from_schedule(schedule, config.dt_divisor)
    model = config.params().noise_model()

    # adaptive mode grows block by block: the stopping rule reads partial results
    rows = _BLOCK if config.adaptive else _batch_rows(config, grid.total_steps)
    n = config.realizations
    ranges = [(lo, min(lo + rows, n)) for lo in range(0, n, rows)]
    parallel = config.workers > 1 and len(ranges) > 1 and not config.adaptive
    zs = []
    rho_sum = np.zeros((2, 2), dtype=complex)
    used = 0
    with (ProcessPoolExecutor(max_workers=config.workers) if parallel
          else nullcontext()) as pool:
        outputs = (pool.map if parallel else map)(
            partial(_run_block, config, schedule, grid, model), ranges
        )
        for ref, z_batch, rho_sums in outputs:  # batch order
            if ref is not None:
                # zero-noise reference on the same grid: scheme-constant phase offset
                z_ref = propagator.schedule_coherence(schedule, ref)
            zs.append(z_batch)
            for rho in rho_sums:
                rho_sum = rho_sum + rho
            used += len(z_batch)
            if config.adaptive and used >= 2 * _BLOCK:
                _, w_err = bootstrap_errors(
                    np.concatenate(zs), config.bootstrap_resamples,
                    noise.substream(config.master_seed, config.stream_key, _NS_BOOTSTRAP),
                )
                if w_err < config.adaptive_target:
                    break
    gamma_ref = float(np.angle(z_ref))
    w_ref = 2.0 * abs(z_ref)

    z = np.concatenate(zs)
    z_mean = z.mean()
    gamma_mean = float(np.angle(z_mean))
    w = 2.0 * abs(z_mean)
    mean_rho = rho_sum / used

    gamma_stderr, w_stderr = bootstrap_errors(
        z, config.bootstrap_resamples,
        noise.substream(config.master_seed, config.stream_key, _NS_BOOTSTRAP),
    )

    prediction = analytics.prediction_for_scheme(
        config.scheme, config.params(),
        mode="lowfreq" if config.beta <= 0.1 else "full",
    )
    chi_exact = analytics.linear_response_chi(
        schedule, config.kappa, model
    ) if config.noise_axis == "longitudinal" else analytics.chi_from_piecewise(
        analytics.transverse_coefficients(schedule, config.kappa), model
    )

    offset = wrap_angle(gamma_ref - prediction.gamma_expected)
    gamma_corrected = float(wrap_angle(gamma_mean - offset))

    dev = wrap_angle(np.angle(z) - gamma_mean)
    gamma_sample_std = float(np.std(dev))
    along = 2.0 * np.real(z * np.exp(-1j * gamma_mean))
    w_sample_std = float(np.std(along))

    return EnsembleResult(
        config=config,
        mean_rho=mean_rho,
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
        realizations_used=used,
        coherences=z,
    )


def bootstrap_errors(per_realization_coherences, resamples: int = 1000,
                     rng: Optional[np.random.Generator] = None):
    """Nonparametric bootstrap standard errors of (gamma, W).

    Resamples realization-level coherences with replacement; phase
    deviations are wrapped around the point estimate so the error is not
    inflated by branch cuts.  Deterministic given the generator.
    """
    z = np.asarray(per_realization_coherences, dtype=complex)
    n = len(z)
    if n < 2:
        raise ValueError("bootstrap needs at least 2 realizations")
    if rng is None:
        rng = np.random.default_rng(0)
    z_mean = z.mean()
    gamma_hat = np.angle(z_mean)
    # resample rows in chunks: the index stream is the same, the memory is not
    # resamples x n
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
    """One ensemble per (scheme, theta); each point gets its own substream key."""
    results = []
    key = 0
    for scheme in schemes:
        for theta in theta_grid:
            cfg = replace(base, scheme=scheme, theta_a=float(theta), stream_key=key)
            results.append(run_ensemble(cfg))
            key += 1
    return results


def sweep_beta(base: ExperimentConfig, beta_grid, schemes=THETA_SWEEP_SCHEMES,
               eta_per_beta: float = 400.0):
    """One ensemble per (scheme, beta) with the noise-power rule eta = 400*beta.

    The rule keeps alpha3 fixed while beta scans the correlation time; it
    is an assumption carried into the output metadata.
    """
    results = []
    key = 0
    for scheme in schemes:
        for beta in beta_grid:
            cfg = replace(
                base, scheme=scheme, beta=float(beta),
                eta=eta_per_beta * float(beta), stream_key=key,
            )
            results.append(run_ensemble(cfg))
            key += 1
    return results
