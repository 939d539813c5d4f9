"""Workload definitions: one CLI invocation each, with the config it runs.

Every config is fixed; the benchmark seed reaches the program only through
the CLI's --seed flag, which sets the Lanczos start vector.  None of the
oracles depend on it, so every seed must pass every check.
"""

from __future__ import annotations

import math

B1_OSC_SPEC = {
    "alpha": 1.0,
    "b_plus1": 1.0,
    "oscillations": [{"phi": math.pi / 2, "psi": 0.0, "b": 1.0}],
}
B1_SPEC = {"alpha": 1.0, "b_plus1": 1.0}
TRIANGLE_SPEC = {
    "alpha": 1.0,
    "local_singularities": [{"t0": 1.0, "m": 0, "coeff": 1.0}],
}
B0_SPEC = {"alpha": 1.0, "b_zero": 1.0}
ASLOG_SPEC = {
    "alpha": 2.0,
    "v0_plus": [1.0],
    "v0_minus": [1.0],
    "cutoffs": [0.25, 0.5],
}


def _uniform(points: int) -> dict:
    return {"kind": "uniform", "t_max": 1.0, "points": points}


WORKLOADS = {
    # Headline scenario: Lanczos bound by FFT matvecs; the Krylov space is
    # exhausted at 72 vectors, so hankel_core work shows here first.
    "discrete-lanczos": {
        "command": "spectrum",
        "threads": 1,
        "config": {
            "name": "b1-osc",
            "kind": "discrete",
            "action": "spectrum",
            "spec": B1_OSC_SPEC,
            "N_list": [2**18],
            "solver": {"k": 64, "tol": 1e-8, "max_iter": 2000, "basis_cap": 600},
            "fit": {"window": [8, 32], "model": "plain"},
        },
    },
    # Spectrum decays like 1/n and is not low rank; the small basis cap forces
    # thick restarts, so reorthogonalization and restarts dominate eigensolve.
    # Every seed converges after 122-130 applies.  With cap 120 some seeds
    # finish right after the first restart and peak at 550 MB instead of
    # 768 MB; cap 116 gives every seed at least 3 restarts and one memory peak.
    "triangle-restart": {
        "command": "spectrum",
        "threads": 1,
        "config": {
            "name": "triangle",
            "kind": "continuous",
            "action": "spectrum",
            "spec": TRIANGLE_SPEC,
            "grids": [_uniform(2**18)],
            "solver": {"k": 32, "tol": 1e-8, "max_iter": 2000, "basis_cap": 116},
            "fit": {"window": [5, 20], "model": "plain"},
        },
    },
    # No FFT and no Lanczos: kernel evaluation on M^2 points and dense eigvalsh.
    "geometric-dense": {
        "command": "spectrum",
        "threads": 1,
        "config": {
            "name": "b0-geometric",
            "kind": "continuous",
            "action": "spectrum",
            "spec": B0_SPEC,
            "grids": [
                {"kind": "geometric", "t_min": 1e-12, "t_max": 1.0, "points": 4096}
            ],
            "fit": {"window": [8, 32], "model": "plain"},
        },
    },
    # The only workload reaching truncation_study, convergence_report, symbols
    # and the sweep thread pool; 2 sweep threads share 2 cores with OpenBLAS.
    "sweep-verify-t2": {
        "command": "sweep",
        "threads": 2,
        "config": {
            "scenarios": [
                {
                    "name": "b1-verify",
                    "kind": "discrete",
                    "action": "verify",
                    "spec": B1_SPEC,
                    "N_list": [2**10, 2**14, 2**16, 2**18],
                    "fit": {"window": [8, 32], "model": "plain"},
                },
                {
                    "name": "triangle-verify",
                    "kind": "continuous",
                    "action": "verify",
                    "spec": TRIANGLE_SPEC,
                    "grids": [_uniform(1024), _uniform(2048), _uniform(4096)],
                    "fit": {"window": [1, 32], "model": "plain"},
                },
                {
                    "name": "aslog-symbol",
                    "kind": "symbol",
                    "action": "symbol",
                    "spec": ASLOG_SPEC,
                    "samples": 2**20,
                    "j_window": [512, 4096],
                    "dump_samples": 4096,
                },
            ]
        },
    },
}


def scenarios_of(workload: str) -> list:
    """The scenario configs a workload runs, in CLI order."""
    cfg = WORKLOADS[workload]["config"]
    return cfg["scenarios"] if "scenarios" in cfg else [cfg]
