"""Golden-output corpus: CLI reports, exit codes, stdout and stderr of fixed configs.

Each case runs `hankelspec.cli.main` in-process on one config and keeps
what it produced under `<case>/`:

    config.json   the config the case runs
    run.txt       the command line, the exit code, stdout and stderr
    out/...       the report files written under --out (none on a refusal)

The cases are small versions of the four benchmark workloads, two Lanczos
solves that end otherwise than by the stop rule (a space the basis
exhausts, and max_iter), a geometric grid on the range-finder route, two
geometric grids whose kernels between them take every branch of the
kernel evaluator and both cutoff bands, two `symbol` runs with
polynomials that differ on the two sides of theta = 0, one with a narrow
and one with a wide cutoff band, a discrete order above 2^53 with a
b_minus1 term, `predict` on each kind, a `spectrum` whose prediction the
closed form does not cover, and every refusal of `REFUSALS` in
`tests/test_cli.py`.
Physical memory reads as 8 GiB in every case, or as the row's own figure
for the memory refusals that set one, so the messages do not depend on the
machine.  `build.json` records the machine, numpy and OpenBLAS the corpus
came from; `tests/test_golden.py` compares bytes on that build and numbers
within a relative tolerance on any other.

Rewrite the corpus with

    PYTHONPATH=src python tests/golden/regenerate.py

and name each file that changed when a change rewrites it.
"""

from __future__ import annotations

import contextlib
import ctypes
import io
import json
import math
import os
import platform
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))

import numpy as np  # noqa: E402

from hankelspec import cli  # noqa: E402
from test_cli import REFUSALS  # noqa: E402

MEMORY = 8 << 30

B1_OSC = {"alpha": 1.0, "b_plus1": 1.0, "oscillations": [{"phi": math.pi / 2, "psi": 0.0, "b": 1.0}]}
TRIANGLE = {"alpha": 1.0, "local_singularities": [{"t0": 1.0, "m": 0, "coeff": 1.0}]}


def _uniform(points: int) -> dict:
    return {"kind": "uniform", "t_max": 1.0, "points": points}


def _geometric(points: int) -> dict:
    return {"kind": "geometric", "t_min": 1e-12, "t_max": 1.0, "points": points}


# name -> (command, config).
RUNS = {
    "discrete-spectrum": ("spectrum", {
        "name": "b1-osc", "kind": "discrete", "spec": B1_OSC, "N_list": [2**14],
        "solver": {"k": 64, "tol": 1e-8, "max_iter": 2000, "basis_cap": 600},
        "fit": {"window": [8, 32], "model": "plain"},
    }),
    "triangle-restart": ("spectrum", {
        "name": "triangle", "kind": "continuous", "spec": TRIANGLE, "grids": [_uniform(1024)],
        "solver": {"k": 32, "tol": 1e-8, "max_iter": 2000, "basis_cap": 116},
        "fit": {"window": [5, 20], "model": "plain"},
    }),
    # Two more Lanczos exits: a space the basis exhausts, and max_iter.
    "triangle-exhausted": ("spectrum", {
        "name": "triangle-small", "kind": "continuous", "spec": TRIANGLE, "grids": [_uniform(32)],
        "fit": {"window": [2, 8], "model": "plain"},
    }),
    "triangle-max-iter": ("spectrum", {
        "name": "triangle-budget", "kind": "continuous", "spec": TRIANGLE, "grids": [_uniform(1024)],
        "solver": {"k": 32, "max_iter": 40},
        "fit": {"window": [5, 20], "model": "plain"},
    }),
    "geometric-range": ("spectrum", {
        "name": "b0-geometric", "kind": "continuous", "spec": {"alpha": 1.0, "b_zero": 1.0},
        "grids": [_geometric(1024)], "fit": {"window": [8, 32], "model": "plain"},
    }),
    # b_zero cannot be combined with a local singularity, so two kernels
    # share the evaluator's branches: chi0's band (c1, c2), the tail with an
    # oscillation and chi_inf's band (C1, C2), since t_max lies past C2, and
    # a local singularity of order m = 1.  The negative amplitudes give
    # signed zeros.
    "geometric-zero-tail": ("spectrum", {
        "name": "zero-tail", "kind": "continuous",
        "spec": {
            "alpha": 2.0, "b_zero": 1.0, "b_inf": -0.5,
            "oscillations": [{"rho": 3.0, "psi": 0.25, "b": 0.5}],
        },
        "grids": [{"kind": "geometric", "t_min": 1e-12, "t_max": 8.0, "points": 512}],
        "fit": {"window": [2, 8], "model": "plain"},
    }),
    "geometric-local-tail": ("spectrum", {
        "name": "local-tail", "kind": "continuous",
        "spec": {
            "alpha": 2.0, "b_inf": 1.0,
            "oscillations": [{"rho": 3.0, "psi": 0.25, "b": -0.5}],
            "local_singularities": [{"t0": 0.75, "m": 1, "coeff": -2.0}],
        },
        "grids": [{"kind": "geometric", "t_min": 1e-6, "t_max": 8.0, "points": 512}],
        "fit": {"window": [2, 8], "model": "plain"},
    }),
    "sweep-verify": ("sweep", {"scenarios": [
        {
            "name": "b1-verify", "kind": "discrete", "action": "verify",
            "spec": {"alpha": 1.0, "b_plus1": 1.0}, "N_list": [2**10, 2**12, 2**14],
            "fit": {"window": [8, 32], "model": "plain"},
        },
        {
            "name": "triangle-verify", "kind": "continuous", "action": "verify", "spec": TRIANGLE,
            "grids": [_uniform(256), _uniform(512), _uniform(1024)],
            "fit": {"window": [1, 32], "model": "plain"},
        },
        {
            "name": "aslog-symbol", "kind": "symbol", "action": "symbol",
            "spec": {"alpha": 2.0, "v0_plus": [1.0], "v0_minus": [1.0], "cutoffs": [0.25, 0.5]},
            "samples": 2**16, "j_window": [512, 4096], "dump_samples": 256,
        },
    ]}),
    "b-minus1-beyond-2-53": ("spectrum", {
        "name": "bm1-huge", "kind": "discrete",
        "spec": {"alpha": 1.0, "b_plus1": 0.25, "b_minus1": -1.0}, "N_list": [2**53 + 3],
        "fit": {"window": [4, 16], "model": "plain"},
    }),
    "predict-discrete": ("predict", {
        "name": "discrete", "kind": "discrete",
        "spec": {
            "alpha": 1.5, "b_plus1": 0.5, "b_minus1": -2.0,
            "oscillations": [{"phi": 1.0, "psi": 0.5, "b": -0.75}, {"phi": 2.0, "psi": 0.0, "b": 1e-3}],
        },
    }),
    "predict-continuous": ("predict", {
        "name": "continuous", "kind": "continuous",
        "spec": {
            "alpha": 2.0, "b_inf": -1.5,
            "oscillations": [{"rho": 3.0, "psi": 0.25, "b": 0.5}],
            "local_singularities": [{"t0": 0.75, "m": 1, "coeff": -2.0}],
        },
    }),
    "predict-symbol": ("predict", {
        "name": "symbol", "kind": "symbol",
        "spec": {
            "alpha": 2.0, "v0_plus": [1.0, [0.5, -0.25]], "v0_minus": [1.0],
            "v1_plus": [[0.0, 0.5]], "u0_plus": [0.25],
        },
    }),
    # Two symbol runs whose polynomials differ on the two sides of
    # theta = 0: a cutoff band of a few samples, and one that spans almost
    # the whole circle.
    "symbol-narrow-cutoffs": ("symbol", {
        "name": "narrow", "kind": "symbol", "action": "symbol",
        "spec": {
            "alpha": 1.5, "v0_plus": [1.0, [0.5, -0.25], 0.3], "v0_minus": [1.0, -0.4],
            "v1_plus": [[0.0, 0.5], 0.2], "v1_minus": [0.3, [0.0, -0.1]],
            "u0_plus": [0.25, [0.1, 0.2]], "u0_minus": [[0.5, -0.3], 0.2],
            "u1_plus": [0.1, 0.0, 0.3], "u1_minus": [[0.2, 0.1]],
            "cutoffs": [0.01, 0.02],
        },
        "samples": 2**14, "j_window": [16, 1024], "dump_samples": 1024,
    }),
    "symbol-wide-cutoffs": ("symbol", {
        "name": "wide", "kind": "symbol", "action": "symbol",
        "spec": {
            "alpha": 2.5, "v0_plus": [1.0, [0.5, -0.25], 0.3], "v0_minus": [1.0, -0.4],
            "v1_plus": [[0.0, 0.5], 0.2], "v1_minus": [0.3, [0.0, -0.1]],
            "u0_plus": [0.25, [0.1, 0.2]], "u0_minus": [[0.5, -0.3], 0.2],
            "u1_plus": [0.1, 0.0, 0.3], "u1_minus": [[0.2, 0.1]],
            "cutoffs": [0.001, 0.999],
        },
        "samples": 2**12, "j_window": [8, 512], "dump_samples": 256,
    }),
    # Local singularities are predicted only at alpha = m + 1.
    "spectrum-uncovered-singularity": ("spectrum", {
        "name": "uncovered", "kind": "continuous", "spec": {**TRIANGLE, "alpha": 2.0},
        "grids": [_uniform(256)],
    }),
}


def _cases():
    """(name, command, config, physical memory) of every case."""
    for name, (command, cfg) in RUNS.items():
        yield name, command, cfg, MEMORY
    for row in REFUSALS:
        command, cfg, _field, memory, _message = row.values
        yield f"refusal-{row.id}", command, cfg, memory or MEMORY


@contextlib.contextmanager
def _physical_memory(nbytes: int):
    pages = {"SC_PAGE_SIZE": 4096, "SC_PHYS_PAGES": nbytes // 4096}
    sysconf = os.sysconf
    os.sysconf = pages.__getitem__
    try:
        yield
    finally:
        os.sysconf = sysconf


def run_case(root: Path, name: str, command: str, cfg, memory: int) -> None:
    case = root / name
    case.mkdir(parents=True)
    (case / "config.json").write_text(json.dumps(cfg, indent=1) + "\n")
    args = [command, "--config", str(case / "config.json"), "--out", str(case / "out")]
    stdout, stderr = io.StringIO(), io.StringIO()
    with _physical_memory(memory), contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = cli.main(args)
    shown = " ".join(["hankelspec", *args]).replace(str(case), ".")
    (case / "run.txt").write_text(
        f"$ {shown}\nexit: {code}\n--- stdout\n{stdout.getvalue()}--- stderr\n{stderr.getvalue()}"
    )


def _openblas() -> str:
    """The OpenBLAS numpy loaded, with the core it chose at run time where it says."""
    for path in (Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*"):
        lib = ctypes.CDLL(str(path))
        for symbol in ("scipy_openblas_get_config64_", "openblas_get_config"):
            get = getattr(lib, symbol, None)
            if get is not None:
                get.restype = ctypes.c_char_p
                get.argtypes = ()
                return " ".join(get().decode().split())
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return f"{blas['name']} {blas.get('version', '')}"


def build_info() -> dict:
    return {"machine": platform.machine(), "numpy": np.__version__, "openblas": _openblas()}


def write_corpus(root: Path) -> None:
    """Write every case, and build.json, into the empty or missing directory root."""
    root.mkdir(parents=True, exist_ok=True)
    for name, command, cfg, memory in _cases():
        run_case(root, name, command, cfg, memory)
    (root / "build.json").write_text(json.dumps(build_info(), indent=1) + "\n")


if __name__ == "__main__":
    for old in HERE.iterdir():
        if old.is_dir() and old.name != "__pycache__":
            shutil.rmtree(old)
    (HERE / "build.json").unlink(missing_ok=True)
    write_corpus(HERE)
