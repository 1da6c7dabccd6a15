"""The benchmark's workloads: one CLI call each, built from the master seed.

Each workload runs one of ``run_ensemble``'s execution paths:

* ``theta_sweep``  -- serial path.  ``theta-sweep`` at its defaults: 13 theta
  x 4 schemes = 52 ensembles of 400 realizations, so fixed per-ensemble
  costs (reference run, 64-row blocks, bootstrap, analytics, CSV writing)
  take a large share.  The default ``beta-sweep`` is left out: its traced
  layer split matched this one to within 0.5 points on every layer.
* ``single_large`` -- process-pool path.  One ``cpmg_balanced`` ensemble of
  20000 realizations on ``min(2, nproc)`` workers; per-realization work
  dominates and the final bootstrap sets peak memory.
* ``adaptive``     -- adaptive path.  One ``fid`` ensemble that adds 64-row
  blocks until the bootstrap error of W is below 0.01, re-running the
  bootstrap after every block.

This module imports only the standard library, so the set-up time the
benchmark measures is that of ``berrydd`` itself.
"""

from __future__ import annotations

import math
import os
from pathlib import Path

NAMES = ("theta_sweep", "single_large", "adaptive")
GOLDEN_SEED = 2024
# far apart, so the iterations of runs at nearby seeds share no input
ITERATION_SEED_STRIDE = 1_000_003
GOLDEN_DIR = Path(__file__).resolve().parent / "golden"

_THETA = 5 * math.pi / 12
_SINGLE = {
    "single_large": {
        "scheme": "cpmg_balanced", "theta_a": _THETA, "beta": 0.001, "eta": 0.4,
        "realizations": 20000,
    },
    "adaptive": {
        "scheme": "fid", "theta_a": _THETA, "beta": 0.001, "eta": 0.4,
        "realizations": 20000, "adaptive": True, "adaptive_target": 0.01,
        "workers": 1,
    },
}


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def iteration_seed(seed: int, iteration: int) -> int:
    """Seed of a run's ``iteration``-th CLI call; the first runs at ``seed``.

    Where the adaptive ensemble stops depends on the seed by ~5 %, and that
    workload's time and memory with it; a fresh seed per iteration lets a
    run's median average that out.
    """
    return seed + ITERATION_SEED_STRIDE * iteration


def config(workload: str, seed: int):
    """The JSON config a ``single`` workload passes to the CLI, else None."""
    if workload not in _SINGLE:
        return None
    cfg = {**_SINGLE[workload], "master_seed": seed}
    cfg.setdefault("workers", min(2, nproc()))
    return cfg


def cli_args(workload: str, seed: int, out_dir: Path, config_path: Path) -> list:
    if workload == "theta_sweep":
        return ["theta-sweep", "--seed", str(seed), "--workers", "1",
                "--out-dir", str(out_dir)]
    return ["single", "--config", str(config_path), "--out-dir", str(out_dir)]


def outputs(workload: str) -> tuple:
    """Files the CLI call must write; the first is the results CSV."""
    if workload == "theta_sweep":
        return ("theta_sweep_results.csv", "theta_sweep_phase.csv",
                "theta_sweep_coherence.csv", "theta_sweep_manifest.json")
    return ("single_result.csv", "single_manifest.json")


def golden_path(workload: str) -> Path:
    return GOLDEN_DIR / f"{workload}.csv"
