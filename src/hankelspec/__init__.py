"""Spectral asymptotics toolkit for Hankel operators.

Builds truncated Hankel matrices and discretized Hankel integral
operators from structured symbol descriptions, computes their extreme
eigenvalues at large order, and compares the observed power-law decay
against closed-form predictions.

The submodules are imported on first access (PEP 562), so `import
hankelspec` loads no numpy, and hankelspec.cli can set OpenBLAS's idle
policy before numpy loads.
"""

import importlib

__version__ = "1.0.0"

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


def __getattr__(name: str):
    if name in __all__:
        return importlib.import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
