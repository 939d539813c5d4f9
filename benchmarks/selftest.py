"""Self-test of the output checks: each accepts real output and rejects a corrupted copy.

    python3 benchmarks/selftest.py

Runs each workload's CLI invocation once at seed 0, checks the reports with
oracles.py (every check must pass), then corrupts the parsed reports in
small, specific ways and requires the named checks to fail on each copy.
Exit code 0 when every check behaves as expected.
"""

from __future__ import annotations

import copy
import shutil
import sys
import time

import numpy as np

import oracles
import run
from scenarios import WORKLOADS


def _scale_top(factor):
    def corrupt(p):
        p["spectrum"]["lambda_plus"][0] *= factor
    return corrupt


def _extra_eigenvalue(p):
    p["spectrum"]["lambda_minus"] = np.append(p["spectrum"]["lambda_minus"], 1e-6)


def _spread_pair(p):
    # Moves two eigenvalues apart while keeping their sum: only sum lambda^2 changes.
    lam = p["spectrum"]["lambda_plus"]
    lam[0] += 1e-6
    lam[1] -= 1e-6


def _scale_prediction(key):
    def corrupt(p):
        p["prediction"][key] *= 1 + 1e-10
    return corrupt


def _scale_all(p):
    p["spectrum"]["lambda_plus"] *= 1 + 1e-5
    p["spectrum"]["lambda_minus"] *= 1 + 1e-5


def _swap_orders(p):
    fits = p["fit"]["fits"]
    fits[-2], fits[-1] = fits[-1], fits[-2]


def _swap_tables(p):
    for key in ("lambda_plus", "lambda_minus"):
        t = p["fit"][key]
        t[-2], t[-1] = t[-1], t[-2]


def _drop_table(p):
    p["fit"]["lambda_plus"].pop()
    p["fit"]["lambda_minus"].pop()


def _alter_b(p):
    p["fourier"]["b"][0] += 1e-9


def _ratio_outside(p):
    p["fourier"]["ratio_max"] = 1.3


def _shift_sample(p):
    p["symbol"][len(p["symbol"]) // 3, 1] += 1e-10


TOP = "top eigenvalue x (1 + 1e-6)"
EXTRA = "extra eigenvalue 1e-6 in lambda_minus"
PAIR = "lambda_1 + 1e-6 and lambda_2 - 1e-6"
PRED = "prediction x (1 + 1e-10)"
# scenario name -> [(corruption, function, check names that must fail)]
CORRUPTIONS = {
    "b1-osc": [
        (TOP, _scale_top(1 + 1e-6), ["frobenius", "trace"]),
        (EXTRA, _extra_eigenvalue, ["trace"]),
        (PAIR, _spread_pair, ["frobenius"]),
        (PRED, _scale_prediction("a_plus"), ["prediction vs mpmath kappa"]),
    ],
    "triangle": [
        (TOP, _scale_top(1 + 1e-6), ["exact nystrom spectrum"]),
        (
            "every eigenvalue x (1 + 1e-5)",
            _scale_all,
            ["exact nystrom spectrum", "continuous limit 1/((k+1/2) pi)"],
        ),
        (PRED, _scale_prediction("a_minus"), ["prediction vs mpmath kappa"]),
    ],
    "b0-geometric": [
        (TOP, _scale_top(1 + 1e-6), ["frobenius", "trace"]),
        (EXTRA, _extra_eigenvalue, ["trace"]),
        (PAIR, _spread_pair, ["frobenius"]),
        (PRED, _scale_prediction("a_plus"), ["prediction vs mpmath kappa"]),
    ],
    "b1-verify": [
        ("two largest nested orders swapped", _swap_orders, ["interlacing"]),
        (TOP, _scale_top(1 + 1e-6), ["frobenius", "trace"]),
        (PRED, _scale_prediction("a_singular"), ["prediction vs mpmath kappa"]),
    ],
    "triangle-verify": [
        (
            "tables of the two finest grids swapped",
            _swap_tables,
            ["M=2048 exact nystrom spectrum", "M=4096 exact nystrom spectrum"],
        ),
        ("finest table dropped", _drop_table, ["one table per grid"]),
    ],
    "aslog-symbol": [
        ("b + 1e-9", _alter_b, ["decay coefficient b"]),
        ("ratio_max set to 1.3", _ratio_outside, ["fourier ratio band"]),
        ("one sample + 1e-10", _shift_sample, ["symbol samples"]),
    ],
}


def selftest(workload: str, seed: int) -> bool:
    run_dir = run.ROOT / ".bench_run" / f"selftest-{workload}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    runner = run.Runner(workload, seed, run_dir, time.monotonic() + 600.0)
    out = run_dir / "out"
    argv = [sys.executable, "-c", run.LAUNCH] + runner.cli_args(out)
    rec = run.launch(argv, runner.env, run_dir / "cli.log", runner.deadline)
    if rec["code"] != 0:
        print(f"{workload}: CLI exited {rec['code']}, see {run_dir / 'cli.log'}")
        return False
    good = True
    for cfg, oracle in zip(runner.scenarios, runner.oracles):
        name = cfg["name"]
        parsed = oracles.read_outputs(cfg, out / name)
        for c in oracle.check(parsed):
            good &= bool(c.ok)
            print(f"{'accept' if c.ok else 'WRONG '} {c.name}: {c.detail}")
        for label, corrupt, expect in CORRUPTIONS[name]:
            bad = copy.deepcopy(parsed)
            corrupt(bad)
            failed = {c.name: c.detail for c in oracle.check(bad) if not c.ok}
            for suffix in expect:
                check = f"{name} {suffix}"
                hit = check in failed
                good &= hit
                detail = failed.get(check, "passed")
                print(f"{'reject' if hit else 'MISSED'} {check} <- {label}: {detail}")
    shutil.rmtree(run_dir, ignore_errors=True)
    return good


def main() -> int:
    results = {w: selftest(w, 0) for w in WORKLOADS}
    for w, ok in results.items():
        print(f"{w}: {'ok' if ok else 'FAILED'}")
    return 0 if all(results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
