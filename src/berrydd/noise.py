"""Stationary Ornstein-Uhlenbeck generator for the longitudinal fluctuating field.

The fluctuating field K3(t) is a zero-mean Gaussian process with
autocorrelation  alpha * exp(-gamma |tau|)  and the Lorentzian power
spectrum  2 alpha gamma / (gamma^2 + omega^2).  Trajectories are produced
on the propagator step grid (one value per step, held constant over the
step) with the exact discrete update

    K(t + dt) = K(t) exp(-gamma dt) + R sqrt(1 - exp(-2 gamma dt)),

where R is Gaussian with mean 0 and variance alpha, and K(0) is itself a
Gaussian(0, alpha) draw, so the process is stationary from the first
sample.

Gaussian variates come from ``numpy.random.Generator.standard_normal``
(ziggurat method).  Reproducibility: every realization draws from its own
counter-based substream keyed by (master seed, realization index) via
``substream``, so results do not depend on how many realizations run, or
in which order, or on how work is split across workers.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np
from scipy.signal import lfilter

__all__ = [
    "NoiseModel",
    "NoiseRealization",
    "substream",
    "ou_init",
    "ou_step",
    "correlation",
    "spectrum",
    "ou_filter",
    "sample_realization",
    "write_trace_csv",
]


@dataclass(frozen=True)
class NoiseModel:
    """OU parameters: noise power ``alpha`` and bandwidth ``gamma``.

    Both are expressed in B0-units (B0 = 1, time in 1/B0): alpha is the
    stationary variance of K3 and gamma the inverse correlation time.
    """

    alpha: float
    gamma: float

    def __post_init__(self):
        if self.alpha < 0:
            raise ValueError(f"noise power alpha must be >= 0, got {self.alpha}")
        if self.gamma <= 0:
            raise ValueError(f"bandwidth gamma must be > 0, got {self.gamma}")


@dataclass(frozen=True)
class NoiseRealization:
    """One sampled K3 path: piecewise constant, one value per grid step."""

    dt: float
    values: np.ndarray

    def __len__(self):
        return len(self.values)


def substream(master_seed: int, *key: int) -> np.random.Generator:
    """Counter-based generator for the given (master seed, key...) stream.

    Streams with distinct keys are statistically independent, and a given
    (seed, key) always yields the same stream regardless of what other
    streams exist.
    """
    ss = np.random.SeedSequence(entropy=master_seed, spawn_key=tuple(key))
    return np.random.Generator(np.random.Philox(ss))


def ou_init(model: NoiseModel, rng: np.random.Generator) -> float:
    """Stationary initial sample: Gaussian with mean 0, variance alpha."""
    return float(np.sqrt(model.alpha) * rng.standard_normal())


def ou_step(k_prev: float, dt: float, model: NoiseModel, rng: np.random.Generator) -> float:
    """Advance one exact OU update over a step of length dt."""
    if dt <= 0:
        raise ValueError(f"dt must be > 0, got {dt}")
    decay = np.exp(-model.gamma * dt)
    fresh = np.sqrt(model.alpha) * rng.standard_normal()
    return float(k_prev * decay + fresh * np.sqrt(1.0 - decay * decay))


def correlation(model: NoiseModel, tau: float) -> float:
    """Autocorrelation alpha * exp(-gamma |tau|)."""
    return model.alpha * np.exp(-model.gamma * abs(tau))


def spectrum(model: NoiseModel, omega) -> float:
    """Lorentzian power spectrum 2 alpha gamma / (gamma^2 + omega^2)."""
    omega = np.asarray(omega, dtype=float)
    out = 2.0 * model.alpha * model.gamma / (model.gamma**2 + omega**2)
    return out if out.ndim else float(out)


def ou_filter(model: NoiseModel, z: np.ndarray, dt: float) -> np.ndarray:
    """Turn standard normals into stationary OU paths, one path per row.

    ``z`` has shape (rows, n_steps); row i of the result depends only on
    row i of ``z``, so a batch gives the same paths as filtering each row
    alone.  Column 0 is the stationary draw sqrt(alpha)*z[:, 0]; the rest
    follow the exact update, run as one linear recursion per row.
    """
    if dt <= 0:
        raise ValueError(f"dt must be > 0, got {dt}")
    values = np.empty_like(z)
    values[:, 0] = np.sqrt(model.alpha) * z[:, 0]
    if z.shape[1] > 1:
        decay = np.exp(-model.gamma * dt)
        amp = np.sqrt(model.alpha * (1.0 - decay * decay))
        # y[i] = amp*z[i] + decay*y[i-1], seeded so y[-1] == values[:, 0]
        values[:, 1:], _ = lfilter(
            [amp], [1.0, -decay], z[:, 1:], axis=1, zi=decay * values[:, :1]
        )
    return values


def sample_realization(
    model: NoiseModel, n_steps: int, dt: float, rng: np.random.Generator
) -> NoiseRealization:
    """Sample a stationary trajectory of ``n_steps`` values on a dt grid.

    Identical to iterating ``ou_step`` from ``ou_init``; it is the one-row
    case of ``ou_filter``.
    """
    if n_steps < 1:
        raise ValueError("n_steps must be >= 1")
    if dt <= 0:
        raise ValueError(f"dt must be > 0, got {dt}")
    z = rng.standard_normal((1, n_steps))
    return NoiseRealization(dt=dt, values=ou_filter(model, z, dt)[0])


def write_trace_csv(realization: NoiseRealization, path) -> None:
    """Dump a realization as (step, t, K3) rows for plotting/debugging."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["step", "t", "K3"])
        for i, v in enumerate(realization.values):
            w.writerow([i, repr(i * realization.dt), repr(float(v))])
