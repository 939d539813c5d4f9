"""Batch front end: scenario configs in, report files out.

One JSON scenario per file (sweep configs embed a list of scenarios).
parse_scenario reads it into the dataclass Scenario, whose fields are the
config's top-level fields; one builder, _build, reads every object of the
config from the fields of its dataclass, and refuses a key that names none.
Each action (_run_predict, _run_spectrum, ...) returns its report files
(name -> text), its summary lines and its exit code, and run_scenario
writes them; _prediction makes every prediction a report shows.
All numeric output is printed with 17 significant digits and no
timestamps, so rerunning an identical config with the same seed
reproduces every output byte for byte.  Exit codes: 0 success, 2
config/validation failure (diagnostics name the offending field), 3
solver non-convergence (outputs are still written, flagged).
"""

from __future__ import annotations

import argparse
import dataclasses
import inspect
import math
import sys
from pathlib import Path

import numpy as np

from . import __version__, analysis, model, quadrature, symbols
from .eigensolve import solve, solve_bytes
from .expsum import PHASE_ORDER_LIMIT
from .hankel_core import ResourceLimitError, require_memory

__all__ = ["main", "run_scenario"]


# ---------------------------------------------------------------- parsing


def _at(path: str, name: str) -> str:
    """Path of field name in the object at path ('' is the config's root)."""
    return f"{path}.{name}" if path else name


# Converters: each turns one JSON value into a field value, or raises a
# model.FieldError at the field's path.


def _as_is(value, path: str):
    """For a field whose dataclass checks the value itself."""
    return value


def _as_str(value, path: str) -> str:
    if not isinstance(value, str):
        raise model.FieldError(path, f"expected a string, got {value!r}")
    return value


def _as_float(value, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise model.FieldError(path, f"expected a number, got {value!r}")
    # json.loads turns NaN, Infinity and 400-digit integers into numbers too.
    try:
        x = float(value)
    except OverflowError:
        x = math.inf
    if not math.isfinite(x):
        raise model.FieldError(path, f"expected a finite number, got {value!r}")
    return x


def _as_int(value, path: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise model.FieldError(path, f"expected an integer, got {value!r}")
    return value


def _as_complex(value, path: str) -> complex:
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return complex(_as_float(value, path))
    if (
        isinstance(value, list)
        and len(value) == 2
        and all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in value)
    ):
        return complex(_as_float(value[0], f"{path}[0]"), _as_float(value[1], f"{path}[1]"))
    raise model.FieldError(path, f"expected a number or [re, im] pair, got {value!r}")


def _as_poly(value, path: str) -> tuple:
    if not isinstance(value, list) or not value:
        raise model.FieldError(path, "expected a coefficient list")
    return tuple(_as_complex(v, f"{path}[{i}]") for i, v in enumerate(value))


def _as_order(value, path: str) -> int:
    order = _as_int(value, path)
    if order < 2:
        raise model.FieldError(path, f"order must be >= 2, got {order}")
    return order


def _list(convert, *names: str, nonempty: bool = False):
    """Converter of a list, each entry through convert: len(names) entries if named."""
    expected = f"[{', '.join(names)}]" if names else "a nonempty list" if nonempty else "a list"

    def convert_list(value, path: str) -> tuple:
        if (
            not isinstance(value, list)
            or (names and len(value) != len(names))
            or (nonempty and not value)
        ):
            raise model.FieldError(path, f"expected {expected}")
        return tuple(convert(v, f"{path}[{i}]") for i, v in enumerate(value))

    return convert_list


def _object(cls, **convert):
    """Converter of an object, built as cls."""
    return lambda value, path: _build(cls, value, path, **convert)


def _as_perturbation(value, path: str):
    if value is None:
        return None
    if not isinstance(value, dict):
        raise model.FieldError(path, "expected an object or null")
    return _build(model.Perturbation, value, path)


def _build(cls, cfg, path: str, **convert):
    """The dataclass cls, read field by field from the JSON object cfg.

    A key of cfg that names no field of cls is refused.  Fields are read in
    the order cls declares them.  A field cfg leaves out takes its
    dataclass default, and is required when it has none.  A present value
    goes through convert[field] (default _as_float).  A refusal of cls
    itself is reported at the field it names under path, and any other
    ValueError of cls at path.
    """
    if not isinstance(cfg, dict):
        raise model.FieldError(path or "<root>", "expected an object")
    # unwrap sees through a functools.wraps wrapper of cls, such as the
    # timing span benchmarks/spans.py puts around Scenario.
    fields = dataclasses.fields(inspect.unwrap(cls))
    names = {f.name for f in fields}
    for key in cfg:
        if key not in names:
            raise model.FieldError(_at(path, key), "unknown field")
    kwargs = {}
    for f in fields:
        if f.name in cfg:
            kwargs[f.name] = convert.get(f.name, _as_float)(cfg[f.name], _at(path, f.name))
        elif f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING:
            raise model.FieldError(_at(path, f.name), "missing required field")
    try:
        return cls(**kwargs)
    except model.FieldError as exc:
        raise model.FieldError(_at(path, exc.field), exc.reason) from exc
    except ValueError as exc:  # an UnsupportedCombinationError, which names no field
        raise model.FieldError(path, str(exc)) from exc


def _dump_stride(samples: int, dump_samples: int) -> int:
    """symbol.csv dumps every stride-th of the samples, about dump_samples rows."""
    return max(1, samples // dump_samples)


# GridSpec leaves t_min to its callers; configs that omit it get this one.
_GRID_T_MIN = 1e-12


def parse_grid(cfg, path: str) -> quadrature.GridSpec:
    if isinstance(cfg, dict):
        cfg = {"t_min": _GRID_T_MIN, **cfg}
    return _build(quadrature.GridSpec, cfg, path, kind=_as_is, points=_as_int)


def _refuse_oversize(need: int, what: str, field: str) -> None:
    """hankel_core.require_memory, its refusal reported at field."""
    try:
        require_memory(need, what)
    except ResourceLimitError as exc:
        raise model.FieldError(field, str(exc)) from exc


# kind -> converter of its spec.
_SPECS = {
    "discrete": _object(
        model.DiscreteSymbolSpec,
        oscillations=_list(_object(model.Oscillation)),
        perturbation=_as_perturbation,
    ),
    "continuous": _object(
        model.ContinuousKernelSpec,
        oscillations=_list(_object(model.KernelOscillation)),
        local_singularities=_list(_object(model.LocalSingularity, m=_as_int)),
        cutoffs=_list(_as_float, "c1", "c2", "C1", "C2"),
    ),
    "symbol": _object(
        symbols.AsLogSpec,
        # Every field but alpha and cutoffs is a polynomial's coefficient list.
        **{
            **{f.name: _as_poly for f in dataclasses.fields(symbols.AsLogSpec)},
            "alpha": _as_float,
            "cutoffs": _list(_as_float, "c1", "c2"),
        },
    ),
}


def _as_kind(value, path: str) -> str:
    if not isinstance(value, str) or value not in _SPECS:
        raise model.FieldError(path, f"expected {'|'.join(_SPECS)}, got {value!r}")
    return value


@dataclasses.dataclass(frozen=True)
class Scenario:
    """One scenario: the top-level fields of its config, with their defaults.

    parse_scenario reads it from JSON.  kind is discrete, continuous or
    symbol, and spec is that kind's spec dataclass.  outputs defaults to
    name.  spectrum and verify run on N_list (discrete orders) or grids
    (continuous); samples, j_window and dump_samples set up the symbol
    action.  __post_init__ checks the values and the rules between fields,
    each refusal a model.FieldError naming its field.
    """

    kind: str
    spec: object
    name: str = "scenario"
    action: str = "spectrum"
    solver: analysis.SolverParams = analysis.SolverParams()
    fit: analysis.FitParams = analysis.FitParams()
    outputs: str | None = None
    N_list: tuple | None = None
    grids: tuple | None = None
    samples: int = 2**20
    j_window: tuple = (512, 4096)
    dump_samples: int = 4096

    def __post_init__(self):
        if not self.name:
            raise model.FieldError("name", "expected a nonempty string")
        allowed = (
            ("predict", "symbol") if self.kind == "symbol" else ("predict", "spectrum", "verify")
        )
        if self.action not in allowed:
            raise model.FieldError(
                "action", f"{self.kind} scenarios take {'|'.join(allowed)}, got {self.action!r}"
            )
        if self.kind == "continuous":
            # Every action on a kernel makes its prediction, which covers a
            # local singularity only at alpha = m + 1; the solvers take any.
            try:
                model.predict_continuous(self.spec)
            except model.UnsupportedCombinationError as exc:
                raise model.FieldError("spec.local_singularities", str(exc)) from exc
        if self.outputs is None:
            object.__setattr__(self, "outputs", self.name)
        if Path(self.outputs).is_absolute() or ".." in Path(self.outputs).parts:
            # Reports go under --out only.
            raise model.FieldError(
                "outputs", f"expected a relative path without '..', got {self.outputs!r}"
            )
        if self.samples < 2 or self.samples & (self.samples - 1):
            raise model.FieldError("samples", f"expected a power of two, got {self.samples}")
        if self.dump_samples < 1:
            raise model.FieldError(
                "dump_samples", f"expected at least 1 row, got {self.dump_samples}"
            )
        if self.action == "symbol":
            if self.spec.alpha <= 1.0:
                # The sample at theta = 0 takes the symbol's limit there,
                # which is finite only for alpha > 1.
                raise model.FieldError(
                    "spec.alpha",
                    f"sampling through theta = 0 needs alpha > 1, got {self.spec.alpha!r}",
                )
            if _decay_part(symbols.aslog_coefficient(self.spec), self.spec.symmetric) == 0.0:
                # The action reports the coefficients' ratio to b j^-1 (log j)^-alpha.
                raise model.FieldError(
                    "spec", "the decay coefficient b is 0, so the coefficients have no ratio to it"
                )
            j_min, j_max = self.j_window
            if not (2 <= j_min <= j_max <= self.samples // 2):
                # Coefficient j is read from a DFT of `samples` points;
                # indices past samples/2 alias negative frequencies.
                raise model.FieldError(
                    "j_window",
                    f"need 2 <= j_min <= j_max <= samples/2 = {self.samples // 2}, "
                    f"got {list(self.j_window)}",
                )
            _refuse_oversize(
                symbols.sample_bytes(self.samples), f"sampling {self.samples} points", "samples"
            )
            # A dumped row holds at most 256 bytes while _run_symbol builds
            # symbol.csv: its index, angle and value (32), its string and the
            # list's pointer to it (three numbers of at most 24 characters and
            # two commas in a 49-byte str object, 123, and 8) and its line of
            # the joined text (75).
            rows = len(range(0, self.samples, _dump_stride(self.samples, self.dump_samples)))
            _refuse_oversize(
                symbols.sample_bytes(self.samples) + 256 * rows,
                f"sampling {self.samples} points and dumping {rows} rows", "dump_samples",
            )
        if self.action in ("spectrum", "verify"):
            self._check_runs()

    def _check_runs(self) -> None:
        """The rules of spectrum and verify for their runs: N_list or grids."""
        discrete = self.kind == "discrete"
        field, runs = ("N_list", self.N_list) if discrete else ("grids", self.grids)
        if runs is None:
            raise model.FieldError(field, f"required for {self.kind} runs")
        if self.action == "spectrum" and len(runs) != 1:
            raise model.FieldError(
                field, f"spectrum runs take exactly one entry, got {len(runs)}"
            )
        for i, run in enumerate(runs):
            # The operator kind of solve_bytes: a discrete spec, a uniform grid
            # given by its entries (Lanczos), or a geometric grid built as a
            # dense matrix (the range finder).
            if discrete:
                at, order, route = f"N_list[{i}]", run, "symbol"
                if self.spec.oscillations and run > PHASE_ORDER_LIMIT:
                    raise model.FieldError(
                        at,
                        f"an oscillation's phases phi * n are reduced exactly "
                        f"only up to order {PHASE_ORDER_LIMIT}, got {run}",
                    )
            else:
                at, order = f"grids[{i}].points", run.points
                route = "entries" if run.kind == "uniform" else "matrix"
                if run.kind == "uniform" and self.spec.b_zero != 0.0:
                    raise model.FieldError(
                        f"grids[{i}].kind",
                        "a uniform grid cannot resolve the t -> 0 singularity of a "
                        "kernel with b_zero != 0; use a geometric grid",
                    )
            k = quadrature.lanczos_request(self.action, self.solver.k, self.fit.window)
            need = solve_bytes(order, route, k, self.solver.basis_cap, self.spec)
            _refuse_oversize(need, f"an order-{order} solve", at)
        if self.action == "verify" and not discrete and len(runs) < 2:
            raise model.FieldError("grids", f"verify compares at least 2 grids, got {len(runs)}")
        if self.action == "verify" and not discrete and self.fit.model != "plain":
            # A continuous verify compares eigenvalue tables and fits no
            # model, so a log_corrected request would be silently ignored.
            raise model.FieldError(
                "fit.model",
                f"continuous verify fits no model, so only plain is accepted, "
                f"got {self.fit.model!r}",
            )
        if self.action == "verify" and discrete and any(b <= a for a, b in zip(runs, runs[1:])):
            raise model.FieldError(
                "N_list", f"verify needs strictly increasing orders, got {list(runs)}"
            )
        # spectrum fits once, discrete verify once per order; continuous
        # verify only compares eigenvalue tables.
        fits = len(runs) if self.action == "spectrum" or discrete else 0
        _refuse_oversize(
            fits * analysis.fit_bytes(self.fit.window),
            f"fitting the window {list(self.fit.window)}", "fit.window",
        )


def parse_scenario(cfg, path: str = "", seed=None) -> Scenario:
    """The Scenario of the JSON object cfg, its fields named under path.

    kind picks the converter of spec.  It is Scenario's first field, so a
    missing or unknown kind is refused before spec is read.  A null solver
    or fit block takes the defaults.  seed, when given, overrides the
    solver seed.
    """
    kind = cfg.get("kind") if isinstance(cfg, dict) else None
    if isinstance(cfg, dict):
        cfg = {**cfg, **{key: {} for key in ("solver", "fit") if cfg.get(key) is None}}
        if seed is not None and isinstance(cfg["solver"], dict):
            cfg["solver"] = {**cfg["solver"], "seed": seed}
    return _build(
        Scenario, cfg, path, kind=_as_kind, name=_as_str, action=_as_is, outputs=_as_str,
        spec=_SPECS[kind] if isinstance(kind, str) and kind in _SPECS else _as_is,
        solver=_object(
            analysis.SolverParams, k=_as_int, max_iter=_as_int, seed=_as_int, basis_cap=_as_int
        ),
        fit=_object(analysis.FitParams, window=_list(_as_int, "n_min", "n_max"), model=_as_is),
        N_list=_list(_as_order, nonempty=True), grids=_list(parse_grid, nonempty=True),
        samples=_as_int, j_window=_list(_as_int, "j_min", "j_max"), dump_samples=_as_int,
    )


def _check_distinct_outputs(scenarios) -> None:
    """Refuse a sweep in which two scenarios would write the same directory."""
    first = {}
    for i, s in enumerate(scenarios):
        j = first.setdefault(Path(s.outputs), i)
        if j != i:
            raise model.FieldError(
                f"scenarios[{i}].outputs",
                f"output directory {s.outputs!r} is already used by scenarios[{j}]",
            )


# ------------------------------------------------------------- formatting


def _f(x: float) -> str:
    # No NaN or infinity is written as a result; JSON null marks one.
    if not math.isfinite(x):
        return "null"
    return format(float(x), ".17g")


def _scalar(x) -> str:
    # Python floats and ints, nearly every value of a report, skip the dispatch.
    t = type(x)
    if t is float:
        return _f(x)
    if t is int:
        return str(x)
    return _to_json(x)


def _to_json(obj, indent: int = 0) -> str:
    pad = "  " * indent
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        rows = [
            f'{pad}  "{k}": {_to_json(v, indent + 1)}' for k, v in obj.items()
        ]
        return "{\n" + ",\n".join(rows) + f"\n{pad}}}"
    if isinstance(obj, (list, tuple)):
        seq = list(obj)
        if not seq:
            return "[]"
        flat = all(not isinstance(v, (dict, list, tuple)) for v in seq)
        if flat:
            return "[" + ", ".join(map(_scalar, seq)) + "]"
        rows = [f"{pad}  {_to_json(v, indent + 1)}" for v in seq]
        return "[\n" + ",\n".join(rows) + f"\n{pad}]"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if obj is None:
        return "null"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _f(float(obj))
    if isinstance(obj, complex):
        return f"[{_f(obj.real)}, {_f(obj.imag)}]"
    if isinstance(obj, str):
        return '"' + obj.replace("\\", "\\\\").replace('"', '\\"') + '"'
    raise TypeError(f"cannot serialize {type(obj)}")


def _report(module: str, body: dict, /, **params) -> str:
    """A JSON report: the producer of module with its parameters, then the fields of body."""
    producer = {"package": "hankelspec", "version": __version__, "module": module}
    return _to_json({"producer": {**producer, "parameters": params}, **body}) + "\n"


def _write(path: Path, text: str):
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text)


# ------------------------------------------------------------ pipelines


def _spectrum_csv(S, alpha: float) -> str:
    lines = [
        f"# hankelspec {__version__} spectrum order={S.order} "
        f"solver={S.solver_id} seed={S.seed} tol={_f(S.tol)} "
        f"converged={str(S.converged).lower()}",
        "n,lambda_plus,lambda_minus,scaled_plus,scaled_minus",
    ]
    count = max(len(S.lambda_plus), len(S.lambda_minus))
    for n in range(1, count + 1):
        lp = float(S.lambda_plus[n - 1]) if n <= len(S.lambda_plus) else 0.0
        lm = float(S.lambda_minus[n - 1]) if n <= len(S.lambda_minus) else 0.0
        lines.append(
            f"{n},{_f(lp)},{_f(lm)},{_f(n**alpha * lp)},{_f(n**alpha * lm)}"
        )
    return "\n".join(lines) + "\n"


def _fit_json(fit: analysis.FitReport, **params) -> str:
    return _report("analysis", fit.to_dict(), **params)


def _prediction_json(pred) -> str:
    return _report("model", pred.to_dict())


def _prediction(scenario) -> model.AsymptoticPrediction:
    """The closed-form prediction of a discrete or continuous scenario."""
    if scenario.kind == "discrete":
        return model.predict_discrete(scenario.spec)
    return model.predict_continuous(scenario.spec)


def _symbol_fields(spec) -> dict:
    """The fields both symbol reports open with: alpha, b and symmetric."""
    b = symbols.aslog_coefficient(spec)
    return {"alpha": spec.alpha, "b": b, "symmetric": spec.symmetric}


def _decay_part(z, symmetric: bool):
    """What a symbol ratio reads of b or of a coefficient: Re if symmetric, else |.|."""
    return z.real if symmetric else abs(z)


def _run_predict(scenario):
    if scenario.kind == "symbol":
        fields = _symbol_fields(scenario.spec)
        b = fields["b"]
        lines = [
            "kind: symbol", f"b: {_f(b.real)} + {_f(b.imag)}i", f"symmetric: {fields['symmetric']}"
        ]
        return {"prediction.json": _report("symbols", fields)}, lines, 0
    pred = _prediction(scenario)
    lines = [
        f"kind: {scenario.kind}",
        f"alpha: {_f(pred.alpha)}",
        f"a_plus: {_f(pred.a_plus)}",
        f"a_minus: {_f(pred.a_minus)}",
        f"a_singular: {_f(pred.a_singular)}",
    ]
    for label, share_plus, share_minus in pred.terms:
        lines.append(f"term {label}: {_f(share_plus)} / {_f(share_minus)}")
    return {"prediction.json": _prediction_json(pred)}, lines, 0


# The deterministic counters of each route that summary.txt reports.
_DETAIL_KEYS = (
    "nodes", "columns", "gram_rank", "head_order",
    "applies", "restarts", "reorth_passes", "reorth_repeats", "basis_final",
    "blocks", "probes", "basis_rank", "fell_back",
)


def _details_line(S) -> str:
    shown = [f"{key}={S.details[key]}" for key in _DETAIL_KEYS if key in S.details]
    return "details: " + (" ".join(shown) if shown else "none")


def _run_spectrum(scenario):
    pred = _prediction(scenario)
    if scenario.kind == "discrete":
        N = scenario.N_list[0]
        S = analysis.discrete_spectrum(scenario.spec, N, scenario.solver)
        label = f"N={N}"
        params = {}  # no discrete route reads the solver knobs
    else:
        grid = scenario.grids[0]
        k = quadrature.lanczos_request("spectrum", scenario.solver.k, scenario.fit.window)
        S = solve(quadrature.build_from_grid(scenario.spec, grid), scenario.solver, k=k)
        label = f"grid {grid.kind} M={grid.points}"
        params = {"solver": dataclasses.asdict(scenario.solver)}
    alpha = scenario.spec.alpha
    fit = analysis.fit_coefficient(
        S, alpha, scenario.fit.window, scenario.fit.model, extend_by_zero=True
    )
    files = {
        "spectrum.csv": _spectrum_csv(S, alpha),
        "fit.json": _fit_json(fit, **params),
        "prediction.json": _prediction_json(pred),
    }
    lines = [
        f"kind: {scenario.kind}",
        f"run: {label}",
        f"solver: {S.solver_id} converged={S.converged}",
        _details_line(S),
        f"eigenvalues: {len(S.lambda_plus)} positive, "
        f"{len(S.lambda_minus)} negative, {S.n_dropped} in the zero band",
        f"window: [{scenario.fit.window[0]}, {scenario.fit.window[1]}] model={scenario.fit.model}",
        f"a_hat_plus: {_f(fit.a_hat_plus)} (predicted {_f(pred.a_plus)})",
        f"a_hat_minus: {_f(fit.a_hat_minus)} (predicted {_f(pred.a_minus)})",
        f"drift: {_f(fit.drift)}",
    ]
    return files, lines, 0 if S.converged else 3


def _run_verify(scenario):
    if scenario.kind == "discrete":
        study = analysis.truncation_study(
            scenario.spec, scenario.N_list, scenario.solver,
            scenario.fit.window, scenario.fit.model,
        )
        body = {
            "N_list": study.N_list,
            "deviations": study.deviations,
            "improving": study.improving,
            "fits": [f.to_dict() for f in study.fits],
        }
        files = {
            "spectrum.csv": _spectrum_csv(study.spectra[-1], scenario.spec.alpha),
            "fit.json": _report(
                "analysis", body, window=list(scenario.fit.window), model=scenario.fit.model
            ),
            "prediction.json": _prediction_json(study.prediction),
        }
        lines = [
            "kind: discrete verify",
            f"N_list: {study.N_list}",
            f"deviations: {[_f(d) for d in study.deviations]}",
            f"improving: {study.improving}",
        ]
        return files, lines, 0
    pred = _prediction(scenario)
    report = quadrature.convergence_report(
        scenario.spec, scenario.grids, scenario.fit.window, scenario.solver
    )
    body = {
        "labels": report.labels,
        "changes": report.changes,
        "improving": report.improving,
        "lambda_plus": [list(map(float, t)) for t in report.tables_plus],
        "lambda_minus": [list(map(float, t)) for t in report.tables_minus],
    }
    fit = _report(
        "quadrature", body, solver=dataclasses.asdict(scenario.solver), window=list(report.window)
    )
    files = {"fit.json": fit, "prediction.json": _prediction_json(pred)}
    lines = [
        "kind: continuous verify",
        f"grids: {report.labels}",
        f"changes: {[_f(c) for c in report.changes]}",
        f"improving: {report.improving}",
    ]
    missed = [label for label, ok in zip(report.labels, report.converged) if not ok]
    if missed:
        lines.append(f"not converged: {missed}")
    return files, lines, 3 if missed else 0


def _run_symbol(scenario):
    spec, n = scenario.spec, scenario.samples
    samp = symbols.sample_aslog(spec, n)
    # The dumped rows are copied out before the transform overwrites the
    # samples in place.
    stride = _dump_stride(n, scenario.dump_samples)
    idx = np.arange(0, n, stride)
    thetas = 2.0 * np.pi * idx / n
    thetas = np.where(thetas > np.pi, thetas - 2.0 * np.pi, thetas)
    dumped = samp[idx]
    coeffs = symbols.fourier_coefficients(samp, out=samp)
    fields = _symbol_fields(spec)
    b, symmetric = fields["b"], fields["symmetric"]
    j_lo, j_hi = scenario.j_window
    j = np.arange(j_lo, j_hi + 1)
    decay = j * np.log(j) ** spec.alpha
    ratio = _decay_part(coeffs[j], symmetric) * decay / _decay_part(b, symmetric)
    ratio_median = analysis._median(ratio)
    rows = [
        f"# hankelspec {__version__} symbol samples={n} stride={stride}",
        "theta,re,im",
        *(f"{_f(t)},{_f(v.real)},{_f(v.imag)}" for t, v in zip(thetas, dumped)),
        "",  # the last newline, without a copy of the joined text
    ]
    ratio_min, ratio_max = float(np.min(ratio)), float(np.max(ratio))
    body = {**fields, "ratio_median": ratio_median, "ratio_min": ratio_min, "ratio_max": ratio_max}
    fourier = _report("symbols", body, samples=n, j_window=list(scenario.j_window))
    files = {"symbol.csv": "\n".join(rows), "fourier.json": fourier}
    lines = [
        "kind: symbol",
        f"samples: {scenario.samples}",
        f"b: {_f(b.real)} + {_f(b.imag)}i",
        f"ratio over j in [{j_lo}, {j_hi}]: median {_f(ratio_median)}, "
        f"min {_f(ratio_min)}, max {_f(ratio_max)}",
    ]
    return files, lines, 0


_ACTIONS = {
    "predict": _run_predict,
    "spectrum": _run_spectrum,
    "verify": _run_verify,
    "symbol": _run_symbol,
}


def run_scenario(scenario: Scenario, out_root: Path) -> int:
    """Run the scenario's action and write its reports and summary.txt under out_root."""
    files, lines, code = _ACTIONS[scenario.action](scenario)
    out = out_root / scenario.outputs
    for name, text in files.items():
        _write(out / name, text)
    _write(out / "summary.txt", "\n".join([f"scenario: {scenario.name}", *lines]) + "\n")
    return code


# ------------------------------------------------------------------ main


def _load_config(path: str) -> dict:
    import json

    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise model.FieldError("<config>", f"cannot read {path}: {exc}") from exc
    try:
        cfg = json.loads(text)
    except json.JSONDecodeError as exc:
        raise model.FieldError("<config>", f"invalid JSON in {path}: {exc}") from exc
    if not isinstance(cfg, dict):
        raise model.FieldError("<config>", f"expected a JSON object in {path}")
    return cfg


# glibc mallopt parameters (malloc.h), the bound both thresholds get, and
# the one arena every thread allocates from.
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3
_M_ARENA_MAX = -8
_MALLOC_THRESHOLD_BYTES = 16 << 20


def _keep_scratch_on_heap() -> None:
    """Serve allocations below 16 MiB from one heap and keep 16 MiB of it.

    numpy's FFT allocates and frees a scratch buffer on every transform
    (8 MiB at N = 2^18).  Under glibc's default thresholds that buffer is
    mapped fresh each time, so every matvec faults its pages in again.
    With both thresholds at 16 MiB the freed buffer stays in the heap and
    is reused; at most 16 MiB of freed heap stays resident.  The threads of
    quadrature.build_graded allocate from the main heap too: in an arena of
    their own, each would keep up to 16 MiB more resident (9 MB more peak
    RSS on a 4096-point grid).  Does nothing where the C library has no
    mallopt.
    """
    import ctypes

    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, TypeError, AttributeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, _MALLOC_THRESHOLD_BYTES)
    mallopt(_M_TRIM_THRESHOLD, _MALLOC_THRESHOLD_BYTES)
    mallopt(_M_ARENA_MAX, 1)


def main(argv=None) -> int:
    _keep_scratch_on_heap()
    parser = argparse.ArgumentParser(
        prog="hankelspec",
        description="Spectral asymptotics toolkit for Hankel operators",
    )
    parser.add_argument("command", choices=["predict", "spectrum", "verify", "sweep", "symbol"])
    parser.add_argument("--config", required=True, help="scenario config path (JSON)")
    parser.add_argument("--out", default=".", help="output root directory")
    parser.add_argument(
        "--threads", type=int, default=1,
        help="accepted for compatibility; sweep runs its scenarios in order",
    )
    parser.add_argument("--seed", type=int, default=None, help="override solver seed")
    args = parser.parse_args(argv)

    try:
        if args.threads < 1:
            raise model.FieldError("--threads", f"expected at least 1, got {args.threads}")
        cfg = _load_config(args.config)
        out_root = Path(args.out)
        if args.command == "sweep":
            raw = cfg.get("scenarios")
            if not isinstance(raw, list) or not raw:
                raise model.FieldError("scenarios", "sweep config needs a scenario list")
            scenarios = [
                parse_scenario(item, f"scenarios[{i}]", args.seed)
                for i, item in enumerate(raw)
            ]
            _check_distinct_outputs(scenarios)
        else:
            cfg.setdefault("action", args.command)
            if cfg["action"] != args.command:
                raise model.FieldError(
                    "action", f"config action {cfg['action']!r} does not match "
                    f"the {args.command!r} subcommand"
                )
            scenarios = [parse_scenario(cfg, seed=args.seed)]
    except model.FieldError as exc:
        print(f"config error at '{exc.field}': {exc.reason}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    try:
        codes = [run_scenario(s, out_root) for s in scenarios]
    except ValueError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        # e.g. a scenario name longer than the file system allows
        print(f"cannot write reports: {exc}", file=sys.stderr)
        return 2

    worst = max(codes, default=0)
    for s, code in zip(scenarios, codes):
        status = {0: "ok", 3: "not converged"}.get(code, f"exit {code}")
        print(f"{s.name}: {status}")
    return worst


if __name__ == "__main__":
    sys.exit(main())
