"""Driven-qubit dephasing under Ornstein-Uhlenbeck noise with decoupling sequences."""

__version__ = "0.2.0"

from . import analytics, ensemble, noise, propagator, schedule  # noqa: F401
