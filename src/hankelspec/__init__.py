"""Spectral asymptotics toolkit for Hankel operators.

Builds truncated Hankel matrices and discretized Hankel integral
operators from structured symbol descriptions, computes their extreme
eigenvalues at large order, and compares the observed power-law decay
against closed-form predictions.
"""

__version__ = "1.0.0"

from . import analysis, eigensolve, expsum, hankel_core, model, quadrature, sequences, symbols

__all__ = [
    "__version__",
    "analysis",
    "eigensolve",
    "expsum",
    "hankel_core",
    "model",
    "quadrature",
    "sequences",
    "symbols",
]
