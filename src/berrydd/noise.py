"""Stationary Ornstein-Uhlenbeck generator for the fluctuating field.

The same paths drive longitudinal noise (added to the field's z
component) and transverse noise (added to its radial component);
``noise_axis`` of ``propagator.evolve_batch`` picks which.  The
fluctuating field K(t) is a zero-mean Gaussian process with
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

``substream_normals`` fills the rows of many realizations at once with
exactly those streams.  A substream is a Philox generator whose key is
``SeedSequence(entropy=seed, spawn_key=key).generate_state(2, uint64)``;
instead of building a SeedSequence, Philox and Generator per row, it runs
that hash for all rows in one vectorised pass (``_philox_keys``) and
re-keys one Philox per row by setting its whole state.

``ou_filter`` runs the update as the linear recursion

    y[i] = amp * z[i] + decay * y[i-1],   decay = exp(-gamma dt),
    amp = sqrt(alpha (1 - decay^2)),

in ``lfilter``: one pair of numpy calls per step over all rows, each
rounding the two products and their sum as SciPy's ``signal.lfilter``
does, so the paths are bit-equal to SciPy's.  Written into a step-major
array (a step's values over all rows contiguous), each step is one
contiguous vector.  The recursion keeps the module-level name
``lfilter``, which outside tracers patch, and ``ou_filter`` calls it
through that name.  ``sample_realization`` runs its single row through
``itertools.accumulate`` instead, which is much faster than a numpy loop
over one row.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

__all__ = [
    "NoiseModel",
    "NoiseRealization",
    "substream",
    "substream_normals",
    "lfilter",
    "ou_filter",
    "sample_realization",
]


@dataclass(frozen=True)
class NoiseModel:
    """OU parameters: noise power ``alpha`` and bandwidth ``gamma``.

    Both are expressed in B0-units (B0 = 1, time in 1/B0): alpha is the
    stationary variance of K and gamma the inverse correlation time.
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
    """One sampled K path: piecewise constant, one value per grid step."""

    dt: float
    values: np.ndarray


def substream(master_seed: int, *key: int) -> np.random.Generator:
    """Counter-based generator for the given (master seed, key...) stream.

    Streams with distinct keys are statistically independent, and a given
    (seed, key) always yields the same stream regardless of what other
    streams exist.
    """
    ss = np.random.SeedSequence(entropy=master_seed, spawn_key=tuple(key))
    return np.random.Generator(np.random.Philox(ss))


# numpy's SeedSequence hash (numpy/random/bit_generator.pyx): pool of four
# uint32 words, hashmix constants for the entropy (A) and the output (B)
_POOL = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_M32 = 0xFFFFFFFF


def _words(n) -> list:
    """SeedSequence's uint32 words of a non-negative integer, low word first."""
    n = operator.index(n)
    if n < 0:
        raise ValueError(f"seed and key words must be >= 0, got {n}")
    words = [n & _M32]
    while n > _M32:
        n >>= 32
        words.append(n & _M32)
    return words


def _hashmix(value, h):
    """One hashmix of ``value`` (int or uint32 array); returns it and the next constant."""
    value = (value ^ h) & _M32
    h = (h * _MULT_A) & _M32
    value = (value * h) & _M32
    return value ^ (value >> 16), h


def _mix(x, y):
    r = (((_MIX_L * x) & _M32) - ((_MIX_R * y) & _M32)) & _M32
    return r ^ (r >> 16)


def _philox_keys(master_seed: int, key: tuple, realizations) -> np.ndarray:
    """(rows, 2) uint64 keys of the substreams (master_seed, *key, r), one per r.

    Row i equals ``SeedSequence(entropy=master_seed, spawn_key=(*key,
    r_i)).generate_state(2, np.uint64)``, the key ``substream`` hands to
    Philox.  The words of seed and key are the same for every row, so the
    hash runs over them once on Python ints; only the words of r are
    hashed as arrays.
    """
    r = np.asarray(realizations)
    if r.ndim != 1 or (r.size and (r.dtype.kind not in "iu" or r.min() < 0)):
        raise ValueError("realizations must be a 1-D sequence of integers >= 0")
    r = r.astype(np.uint64)
    # a spawned SeedSequence pads the run entropy to the pool size
    run = _words(master_seed)
    run += [0] * (_POOL - len(run))
    common = run + [w for k in key for w in _words(k)]
    h = _INIT_A
    pool = []
    for w in common[:_POOL]:
        w, h = _hashmix(w, h)
        pool.append(w)
    for src in range(_POOL):
        for dst in range(_POOL):
            if src != dst:
                w, h = _hashmix(pool[src], h)
                pool[dst] = _mix(pool[dst], w)
    for word in common[_POOL:] + [(r & _M32).astype(np.uint32)]:
        for dst in range(_POOL):
            w, h = _hashmix(word, h)
            pool[dst] = _mix(pool[dst], w)
    # r >= 2**32 has a second word, mixed in by the rows that have one
    wide = r > _M32
    if wide.any():
        high = (r[wide] >> np.uint64(32)).astype(np.uint32)
        for dst in range(_POOL):
            w, h = _hashmix(high, h)
            pool[dst][wide] = _mix(pool[dst][wide], w)
    h = _INIT_B
    state = []
    for w in pool:  # generate_state: one output word per pool word
        w = w ^ h
        h = (h * _MULT_B) & _M32
        w = w * h
        state.append((w ^ (w >> 16)).astype(np.uint64))
    keys = np.empty((len(r), 2), dtype=np.uint64)
    keys[:, 0] = state[0] | (state[1] << np.uint64(32))
    keys[:, 1] = state[2] | (state[3] << np.uint64(32))
    return keys


def substream_normals(master_seed: int, key: tuple, realizations, n_steps: int,
                      out: np.ndarray = None) -> np.ndarray:
    """Standard normals of many substreams: row i holds ``n_steps`` draws of r_i.

    Row i equals ``substream(master_seed, *key, r_i).standard_normal(n_steps)``
    bit for bit, for r_i the i-th entry of ``realizations``.  The keys of
    all rows come from one pass of ``_philox_keys``; one Philox is then
    re-keyed per row by setting its whole state (the key, a zero counter
    and an empty buffer), which is what a newly seeded Philox holds.
    ``out``, if given, is the (rows, n_steps) float64 array to fill.
    """
    keys = _philox_keys(master_seed, key, realizations)
    if out is None:
        out = np.empty((len(keys), n_steps))
    if out.shape != (len(keys), n_steps):
        raise ValueError(f"out has shape {out.shape}, need {(len(keys), n_steps)}")
    bitgen = np.random.Philox(0)
    gen = np.random.Generator(bitgen)
    state = bitgen.state  # counter 0, buffer empty
    for row, k in zip(out, keys):
        state["state"]["key"] = k
        bitgen.state = state
        gen.standard_normal(out=row)
    return out


def _ou_coefficients(model: NoiseModel, dt: float):
    """(sqrt(alpha), decay, amp): the stationary scale and the update's coefficients."""
    if dt <= 0:
        raise ValueError(f"dt must be > 0, got {dt}")
    decay = np.exp(-model.gamma * dt)
    return np.sqrt(model.alpha), decay, np.sqrt(model.alpha * (1.0 - decay * decay))


def lfilter(amp, decay, z: np.ndarray, y0: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Run y[:, i] = amp*z[:, i] + decay*y[:, i-1] along each row, y[:, -1] = y0.

    Bit-equal to SciPy's ``signal.lfilter([amp], [1, -decay], z, axis=1,
    zi=decay * y0[:, None])[0]``.  The paths go to ``out``, which may be
    ``z`` but must not overlap ``y0``; the loop over steps is fastest when
    ``out`` is step-major.
    """
    np.multiply(z, amp, out=out)
    prev, carry = y0, np.empty(len(out))
    for i in range(out.shape[1]):
        col = out[:, i]
        np.multiply(prev, decay, out=carry)
        np.add(col, carry, out=col)
        prev = col
    return out


def ou_filter(model: NoiseModel, z: np.ndarray, dt: float,
              out: np.ndarray = None) -> np.ndarray:
    """Turn standard normals into stationary OU paths, one path per row.

    ``z`` has shape (rows, n_steps); row i of the result depends only on
    row i of ``z``, so a batch gives the same paths as filtering each row
    alone.  Column 0 is the stationary draw sqrt(alpha)*z[:, 0]; the rest
    follow the exact update, run by :func:`lfilter`.  The paths go to
    ``out`` if given, which may be ``z`` itself or a step-major array.
    """
    scale, decay, amp = _ou_coefficients(model, dt)
    values = np.empty_like(z) if out is None else out
    values[:, 0] = scale * z[:, 0]
    if z.shape[1] > 1:
        lfilter(amp, decay, z[:, 1:], values[:, 0], values[:, 1:])
    return values


def sample_realization(
    model: NoiseModel, n_steps: int, dt: float, rng: np.random.Generator
) -> NoiseRealization:
    """Sample a stationary trajectory of ``n_steps`` values on a dt grid.

    It is the one-row case of ``ou_filter``, bit for bit; the recursion
    runs in ``itertools.accumulate`` on Python floats, which round as
    numpy does.
    """
    if n_steps < 1:
        raise ValueError("n_steps must be >= 1")
    scale, decay, amp = _ou_coefficients(model, dt)
    z = rng.standard_normal(n_steps)
    decay = float(decay)
    path = accumulate((amp * z[1:]).tolist(), lambda prev, v: v + decay * prev,
                      initial=float(scale * z[0]))
    return NoiseRealization(dt=dt, values=np.fromiter(path, float, n_steps))
