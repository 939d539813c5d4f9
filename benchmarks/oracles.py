"""Independent checks of the report files the hankelspec CLI writes.

Nothing here imports hankelspec.  Every expected value is computed from the
closed forms the configs describe: the sequence h(j) and kernel h(t) are
written out again below, the Nystrom nodes are rebuilt from the grid
definition, and kappa(alpha) comes from mpmath.  The identities used:

* Frobenius: sum lambda^2 = ||A||_F^2 = sum_k c_k h(k)^2 with
  c_k = min(k+1, 2N-1-k), the number of (i, j) with i + j = k.
* Trace: sum lambda^+ - sum lambda^- = sum_j A[j, j].  The solver drops
  eigenvalues with |lambda| <= 1e-13 ||A|| (the zero band), so the tolerance
  allows N * 1e-13 ||A||, with ||A|| bounded above by ||A||_F, plus in each
  sign channel the tail a solver run to tolerance tol (the spectrum.csv
  header; 0 for the dense route) cannot resolve, 3 tol ||A||.
* Triangle kernel 1[t <= 1] on a uniform midpoint grid of M points over
  [0, 1]: the Nystrom matrix is (1/M) 1[i + j <= M - 1], whose eigenvalues
  are exactly (-1)^k / (2 M sin((2k+1) pi / (2 (2M+1)))), k = 0..M-1.  Its
  continuous limit is (-1)^k / ((k + 1/2) pi), reached with relative error
  1/(2M) + x_k^2/6 to leading order, x_k = (2k+1) pi / (2 (2M+1)).
* Cauchy interlacing: an order-N truncation is a principal submatrix of every
  larger one, so each lambda_n^+- is non-decreasing in N.

Each check returns a Check; a check passes or fails on its own, so a report
names every failed clause together with the measured numbers.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

ZERO_BAND_REL = 1e-13
# Relative Frobenius agreement.  Ritz values carry errors of order
# residual^2 / gap; at the solver tolerance 1e-8 that is far below this.
FROBENIUS_REL = 1e-9
# Absolute agreement with the exact Nystrom eigenvalues, relative to ||A||.
EXACT_EIG_REL = 1e-10
# Absolute interlacing slack: the solver tolerance times ||A||_F.
SOLVER_TOL = 1e-8
# Trace slack per sign channel, in units of tol ||A||_F, for the eigenvalues a
# solver run to tolerance tol leaves out.  Set from measurement: over 47 seeds
# of the N = 2^18, k = 64, tol = 1e-8 discrete spectrum the worst trace miss
# was 3.7 tol ||A||_F in total (seed 202; 3.3 at seed 0), against a limit of
# 2.6 (zero band) + 2 * 3 = 8.6 tol ||A||_F.  Scaling the top eigenvalue by
# 1 + 1e-6 at seed 0 misses by 6.6 times that limit.
TAIL_FACTOR = 3.0
PREDICTION_REL = 1e-13
SYMBOL_ABS = 1e-13
RATIO_BAND = (0.75, 1.25)
DEFAULT_KERNEL_CUTOFFS = (0.25, 0.5, 1.5, 2.0)


@dataclass(frozen=True)
class Check:
    name: str
    ok: bool
    detail: str


# ------------------------------------------------------------ reading


def read_spectrum_csv(path: Path) -> dict:
    """Both eigenvalue channels of a spectrum.csv, without the zero padding, and its solver tol."""
    plus, minus = [], []
    tol = None
    for line in path.read_text().splitlines():
        if line.startswith("#"):
            fields = dict(f.split("=", 1) for f in line.split() if "=" in f)
            tol = float(fields["tol"])
            continue
        if line.startswith("n,"):
            continue
        _, lp, lm, _, _ = line.split(",")
        plus.append(float(lp))
        minus.append(float(lm))
    if tol is None:
        raise ValueError(f"{path} has no header line")
    return {"lambda_plus": _strip_padding(plus), "lambda_minus": _strip_padding(minus), "tol": tol}


def _strip_padding(values) -> np.ndarray:
    # The shorter channel is padded with exact zeros after its last entry;
    # real entries are strictly positive (the zero band is dropped).
    values = list(values)
    while values and values[-1] == 0.0:
        values.pop()
    return np.asarray(values, dtype=float)


def read_json(path: Path) -> dict:
    return json.loads(path.read_text())


def read_symbol_csv(path: Path) -> np.ndarray:
    rows = [
        [float(v) for v in line.split(",")]
        for line in path.read_text().splitlines()
        if not line.startswith("#") and not line.startswith("theta")
    ]
    return np.asarray(rows, dtype=float).reshape(-1, 3)


def read_outputs(cfg: dict, out: Path) -> dict:
    """Parse the report files one scenario config produces."""
    if cfg["action"] == "symbol":
        return {
            "fourier": read_json(out / "fourier.json"),
            "symbol": read_symbol_csv(out / "symbol.csv"),
        }
    parsed = {"prediction": read_json(out / "prediction.json")}
    if (out / "spectrum.csv").exists():
        parsed["spectrum"] = read_spectrum_csv(out / "spectrum.csv")
    if cfg["action"] == "verify":
        parsed["fit"] = read_json(out / "fit.json")
    return parsed


# ------------------------------------------------------- closed forms


def discrete_h(spec: dict, j) -> np.ndarray:
    """h(j) = (b_+1 + b_-1 (-1)^j + 2 sum b cos(phi j - psi)) / (j (log j)^alpha)."""
    if spec.get("perturbation") is not None:
        raise NotImplementedError("perturbation terms have no oracle here")
    j = np.asarray(j, dtype=np.int64)
    out = np.zeros(j.shape)
    big = j >= 2
    jb = j[big].astype(float)
    amp = np.full(jb.shape, float(spec.get("b_plus1", 0.0)))
    amp += float(spec.get("b_minus1", 0.0)) * np.where(j[big] % 2 == 0, 1.0, -1.0)
    for osc in spec.get("oscillations", []):
        amp += 2.0 * osc["b"] * np.cos(osc["phi"] * jb - osc["psi"])
    out[big] = amp / (jb * np.log(jb) ** spec["alpha"])
    return out


def discrete_identities(spec: dict, N: int) -> tuple:
    """(||A||_F^2, trace A) of the order-N truncation, from h alone."""
    k = np.arange(2 * N - 1)
    h = discrete_h(spec, k)
    mult = np.minimum(k + 1, 2 * N - 1 - k).astype(float)
    frob = math.fsum(mult * h * h)
    trace = math.fsum(h[0::2])
    return frob, trace


def _smooth_step(x: np.ndarray) -> np.ndarray:
    # e(x) / (e(x) + e(1 - x)), e(x) = exp(-1/x) for x > 0 and 0 otherwise.
    x = np.asarray(x, dtype=float)
    out = np.where(x >= 1.0, 1.0, 0.0)
    mid = (x > 0.0) & (x < 1.0)
    xm = x[mid]
    e0 = np.exp(-1.0 / xm)
    e1 = np.exp(-1.0 / (1.0 - xm))
    out[mid] = e0 / (e0 + e1)
    return out


def kernel_h(spec: dict, t: np.ndarray) -> np.ndarray:
    """b_zero chi0(t) / (t log(1/t)^alpha) + sum coeff (t0 - t)^m 1[t <= t0]."""
    if spec.get("b_inf", 0.0) != 0.0 or spec.get("oscillations"):
        raise NotImplementedError("tail terms have no oracle here")
    c1, c2, _, _ = spec.get("cutoffs", DEFAULT_KERNEL_CUTOFFS)
    t = np.asarray(t, dtype=float)
    out = np.zeros(t.shape)
    b0 = float(spec.get("b_zero", 0.0))
    if b0 != 0.0:
        near = t < c2
        tn = t[near]
        chi0 = _smooth_step((c2 - tn) / (c2 - c1))
        out[near] = b0 * chi0 / (tn * np.log(1.0 / tn) ** spec["alpha"])
    for sing in spec.get("local_singularities", []):
        inside = t <= sing["t0"]
        out[inside] += sing["coeff"] * (sing["t0"] - t[inside]) ** sing["m"]
    return out


def geometric_grid(grid: dict) -> tuple:
    """Log-midpoint nodes t_i = t_min r^(i + 1/2) and weights t_i log r."""
    M = grid["points"]
    log_r = math.log(grid["t_max"] / grid.get("t_min", 1e-12)) / M
    t = np.exp(math.log(grid.get("t_min", 1e-12)) + log_r * (np.arange(M) + 0.5))
    return t, t * log_r


def nystrom_identities(spec: dict, grid: dict, block: int = 256) -> tuple:
    """(||K||_F^2, trace K) of K = sqrt(w_i w_j) h(t_i + t_j), built row block by row block."""
    t, w = geometric_grid(grid)
    row_sums = []
    for lo in range(0, len(t), block):
        K = kernel_h(spec, t[lo : lo + block, None] + t[None, :])
        row_sums.extend(w[lo : lo + block] * ((K * K) @ w))
    return math.fsum(row_sums), math.fsum(w * kernel_h(spec, 2.0 * t))


def triangle_exact(spec: dict, grid: dict, count: int) -> tuple:
    """Exact Nystrom eigenvalues (plus, minus) of coeff 1[t <= t0] on a uniform grid over [0, t0]."""
    (sing,) = spec["local_singularities"]
    if spec.get("b_zero", 0.0) or sing["m"] != 0 or grid["t_max"] != sing["t0"]:
        raise NotImplementedError("exact Nystrom spectrum needs m = 0 on [0, t0]")
    M = grid["points"]
    k = np.arange(min(2 * count, M))
    x = (2 * k + 1) * math.pi / (2 * (2 * M + 1))
    lam = abs(sing["coeff"]) * sing["t0"] / M / (2.0 * np.sin(x))
    limit = abs(sing["coeff"]) * sing["t0"] / ((k + 0.5) * math.pi)
    leading = 1.0 / (2 * M) + x * x / 6.0
    even, odd = (lam[0::2], limit[0::2], leading[0::2]), (lam[1::2], limit[1::2], leading[1::2])
    return (even, odd) if sing["coeff"] > 0 else (odd, even)


def kappa_mp(alpha: float) -> float:
    """kappa(alpha) = 2^-alpha pi^(1 - 2 alpha) B(1/(2 alpha), 1/2)^alpha, in 40 digits."""
    import mpmath

    with mpmath.workdps(40):
        a = mpmath.mpf(alpha)
        val = 2 ** (-a) * mpmath.pi ** (1 - 2 * a) * mpmath.beta(1 / (2 * a), 0.5) ** a
        return float(val)


def predicted_coefficients(kind: str, spec: dict) -> dict:
    """a_plus, a_minus, a_singular from the p-th power combination rule."""
    alpha = spec["alpha"]
    p = 1.0 / alpha
    kap_p = kappa_mp(alpha) ** p
    plus, minus = [], []

    def point(b):
        plus.append(kap_p * max(b, 0.0) ** p)
        minus.append(kap_p * max(-b, 0.0) ** p)

    if kind == "discrete":
        point(spec.get("b_minus1", 0.0))
        point(spec.get("b_plus1", 0.0))
    else:
        for sing in spec.get("local_singularities", []):
            share = sing["t0"] / (2 * math.pi) * (math.factorial(sing["m"]) * abs(sing["coeff"])) ** p
            plus.append(share)
            minus.append(share)
        point(spec.get("b_zero", 0.0))
        point(spec.get("b_inf", 0.0))
    for osc in spec.get("oscillations", []):
        plus.append(kap_p * abs(osc["b"]) ** p)
        minus.append(kap_p * abs(osc["b"]) ** p)
    a_plus = math.fsum(plus) ** alpha
    a_minus = math.fsum(minus) ** alpha
    return {
        "a_plus": a_plus,
        "a_minus": a_minus,
        "a_singular": (a_plus**p + a_minus**p) ** alpha,
    }


def aslog_symbol(spec: dict, theta: np.ndarray) -> np.ndarray:
    """sum_j v_j(theta) (-log|theta| + u_j(theta))^(1 - j - alpha), cut off at |theta| = c2."""
    c1, c2 = spec.get("cutoffs", (0.25, 0.5))
    theta = np.asarray(theta, dtype=float)
    out = np.zeros(theta.shape, dtype=complex)
    chi = _smooth_step((c2 - np.abs(theta)) / (c2 - c1))
    for side, mask in (("plus", theta > 0), ("minus", theta < 0)):
        sel = mask & (chi > 0.0)
        th = theta[sel]
        acc = np.zeros(th.shape, dtype=complex)
        for j in (0, 1):
            v = _poly(spec.get(f"v{j}_{side}", [1.0 if j == 0 else 0.0]), th)
            u = _poly(spec.get(f"u{j}_{side}", [0.0]), th)
            acc += v * (-np.log(np.abs(th)) + u) ** (1.0 - j - spec["alpha"])
        out[sel] = acc * chi[sel]
    return out


def _coeff(c) -> complex:
    return complex(c[0], c[1]) if isinstance(c, list) else complex(c)


def _poly(coeffs, theta):
    acc = np.zeros(theta.shape, dtype=complex)
    for c in reversed(coeffs):
        acc = acc * theta + _coeff(c)
    return acc


def aslog_b(spec: dict) -> complex:
    """b = (1 - alpha) v0 (1/2 + (u0+(0) - u0-(0)) / (2 pi i)) + (v1+(0) - v1-(0)) / (2 pi i)."""
    first = lambda name, default: _coeff(spec.get(name, [default])[0])  # noqa: E731
    two_pi_i = 2j * math.pi
    v0 = first("v0_plus", 1.0)
    return (1.0 - spec["alpha"]) * v0 * (
        0.5 + (first("u0_plus", 0.0) - first("u0_minus", 0.0)) / two_pi_i
    ) + (first("v1_plus", 0.0) - first("v1_minus", 0.0)) / two_pi_i


# ------------------------------------------------------------- checks


def _rel(a: float, b: float) -> float:
    return abs(a - b) / abs(b) if b != 0.0 else abs(a)


def check_frobenius(lam: dict, frob: float, label: str) -> Check:
    got = math.fsum(lam["lambda_plus"] ** 2) + math.fsum(lam["lambda_minus"] ** 2)
    rel = _rel(got, frob)
    return Check(f"{label} frobenius", rel <= FROBENIUS_REL, f"rel {rel:.2e}, limit {FROBENIUS_REL:.0e}")


def check_trace(lam: dict, trace: float, frob: float, order: int, label: str) -> Check:
    plus, minus = lam["lambda_plus"], lam["lambda_minus"]
    got = math.fsum(plus) - math.fsum(minus)
    # Unreturned eigenvalues: the zero band, and in each sign channel the
    # eigenvalues a solver run to tolerance tol cannot resolve, allowed
    # TAIL_FACTOR tol ||A|| each (see TAIL_FACTOR for the measured misses).
    norm = math.sqrt(frob)
    bound = order * ZERO_BAND_REL * norm + 2 * TAIL_FACTOR * lam["tol"] * norm
    bound += 1e-12 * (math.fsum(plus) + math.fsum(minus))
    err = abs(got - trace)
    return Check(f"{label} trace", err <= bound, f"abs {err:.2e}, limit {bound:.2e}")


def check_triangle(lam_plus, lam_minus, spec: dict, grid: dict, label: str) -> list:
    """Returned eigenvalues against the exact Nystrom spectrum and its continuous limit."""
    count = max(len(lam_plus), len(lam_minus))
    exact = triangle_exact(spec, grid, count)
    norm = max(exact[0][0][0], exact[1][0][0])
    present = len(lam_plus) > 0 and len(lam_minus) > 0
    worst_exact = worst_limit = 0.0
    near_limit = True
    for got, (lam, limit, leading) in zip((lam_plus, lam_minus), exact):
        n = len(got)
        worst_exact = max(worst_exact, float(np.max(np.abs(got - lam[:n]), initial=0.0)) / norm)
        rel = np.abs(got / limit[:n] - 1.0)
        worst_limit = max(worst_limit, float(np.max(rel, initial=0.0)))
        near_limit &= bool(np.all(rel <= 2.0 * leading[:n]))
    return [
        Check(
            f"{label} exact nystrom spectrum",
            present and worst_exact <= EXACT_EIG_REL,
            f"{len(lam_plus)}+{len(lam_minus)} values, worst {worst_exact:.2e} ||A||, limit {EXACT_EIG_REL:.0e}",
        ),
        Check(
            f"{label} continuous limit 1/((k+1/2) pi)",
            present and near_limit,
            f"worst rel {worst_limit:.2e}, within twice 1/(2M) + x^2/6",
        ),
    ]


def check_interlacing(fits: list, frob_last: float, label: str) -> Check:
    """Windowed lambda_n^+- of nested orders must not decrease as N grows."""
    slack = SOLVER_TOL * math.sqrt(frob_last)
    worst = -math.inf
    for small, large in zip(fits, fits[1:]):
        for row_s, row_l in zip(small["per_n"], large["per_n"]):
            if row_s[0] != row_l[0]:
                return Check(f"{label} interlacing", False, "per_n rows do not align")
            for col in (1, 2):
                worst = max(worst, row_s[col] - row_l[col])
    return Check(f"{label} interlacing", worst <= slack, f"max decrease {worst:.2e}, limit {slack:.2e}")


def check_prediction(pred: dict, kind: str, spec: dict, label: str) -> Check:
    want = predicted_coefficients(kind, spec)
    worst = max(_rel(pred[key], want[key]) for key in want)
    ok = worst <= PREDICTION_REL and pred["alpha"] == spec["alpha"]
    return Check(
        f"{label} prediction vs mpmath kappa",
        ok,
        f"a+ {pred['a_plus']:.6g} a- {pred['a_minus']:.6g}, worst rel {worst:.1e}",
    )


def check_symbol(parsed: dict, spec: dict, label: str) -> list:
    fourier = parsed["fourier"]
    b = aslog_b(spec)
    got_b = complex(*fourier["b"])
    b_err = abs(got_b - b)
    lo, hi = RATIO_BAND
    rows = parsed["symbol"]
    want = aslog_symbol(spec, rows[:, 0])
    sample_err = float(np.max(np.abs(rows[:, 1] + 1j * rows[:, 2] - want))) if len(rows) else math.inf
    return [
        Check(f"{label} decay coefficient b", b_err <= 1e-15 * max(1.0, abs(b)), f"b {got_b} vs {b}"),
        Check(
            f"{label} fourier ratio band",
            lo <= fourier["ratio_min"] <= fourier["ratio_median"] <= fourier["ratio_max"] <= hi,
            f"[{fourier['ratio_min']:.4f}, {fourier['ratio_max']:.4f}] in [{lo}, {hi}]",
        ),
        Check(
            f"{label} symbol samples",
            sample_err <= SYMBOL_ABS,
            f"{len(rows)} rows, max abs error {sample_err:.1e}, limit {SYMBOL_ABS:.0e}",
        ),
    ]


class Oracle:
    """Checks for one scenario config; caches the seed-independent reference values."""

    def __init__(self, cfg: dict):
        self.cfg = cfg
        self._refs = None

    def _references(self) -> dict:
        if self._refs is None:
            cfg, spec = self.cfg, self.cfg["spec"]
            refs = {}
            if cfg["kind"] == "discrete" and cfg["action"] in ("spectrum", "verify"):
                refs["order"] = cfg["N_list"][-1]
                refs["frob"], refs["trace"] = discrete_identities(spec, refs["order"])
            elif cfg["kind"] == "continuous" and cfg["grids"][-1]["kind"] == "geometric":
                refs["order"] = cfg["grids"][-1]["points"]
                refs["frob"], refs["trace"] = nystrom_identities(spec, cfg["grids"][-1])
            self._refs = refs
        return self._refs

    def check(self, parsed: dict) -> list:
        cfg, spec, label = self.cfg, self.cfg["spec"], self.cfg["name"]
        if cfg["action"] == "symbol":
            return check_symbol(parsed, spec, label)
        refs = self._references()
        checks = [check_prediction(parsed["prediction"], cfg["kind"], spec, label)]
        if "frob" in refs:
            lam = parsed["spectrum"]
            checks.append(check_frobenius(lam, refs["frob"], label))
            checks.append(check_trace(lam, refs["trace"], refs["frob"], refs["order"], label))
        if cfg["kind"] == "discrete" and cfg["action"] == "verify":
            checks.append(check_interlacing(parsed["fit"]["fits"], refs["frob"], label))
        if cfg["kind"] == "continuous" and cfg["grids"][0]["kind"] == "uniform":
            if cfg["action"] == "spectrum":
                lam = parsed["spectrum"]
                checks += check_triangle(lam["lambda_plus"], lam["lambda_minus"], spec, cfg["grids"][0], label)
            else:
                fit = parsed["fit"]
                tables = len(fit["lambda_plus"]) == len(fit["lambda_minus"]) == len(cfg["grids"])
                checks.append(Check(f"{label} one table per grid", tables, f"{len(fit['lambda_plus'])} tables"))
                for grid, tp, tm in zip(cfg["grids"], fit["lambda_plus"], fit["lambda_minus"]):
                    sub = f"{label} M={grid['points']}"
                    checks += check_triangle(np.asarray(tp), np.asarray(tm), spec, grid, sub)
        return checks
