"""End-to-end CLI tests: configs in, report files and exit codes out."""

import ctypes
import dataclasses
import json
import math
import os
import platform
import subprocess
import sys
import types
from pathlib import Path

import pytest

import hankelspec
from hankelspec import cli, quadrature
from hankelspec.cli import main, parse_scenario


def _write_config(path, cfg):
    path.write_text(json.dumps(cfg))
    return str(path)


def _run(tmp_path, command, cfg, extra=()):
    cfg_path = _write_config(tmp_path / "config.json", cfg)
    out = tmp_path / "out"
    code = main([command, "--config", cfg_path, "--out", str(out), *extra])
    return code, out


# ------------------------------------------------------------------ predict


def test_predict_discrete_outputs(tmp_path):
    cfg = {
        "name": "b1",
        "kind": "discrete",
        "spec": {"alpha": 1.0, "b_plus1": 1.0},
    }
    code, out = _run(tmp_path, "predict", cfg)
    assert code == 0
    doc = json.loads((out / "b1" / "prediction.json").read_text())
    assert doc["producer"]["package"] == "hankelspec"
    assert doc["producer"]["module"] == "model"
    assert doc["alpha"] == 1.0
    assert doc["a_plus"] == pytest.approx(0.5, rel=1e-12)
    assert doc["a_minus"] == 0.0
    assert doc["a_singular"] == doc["a_plus"]
    assert doc["terms"][0]["label"] == "point mu=+1"
    summary = (out / "b1" / "summary.txt").read_text()
    assert "a_plus: 0.5" in summary


def test_predict_continuous_outputs(tmp_path):
    cfg = {
        "name": "tri",
        "kind": "continuous",
        "spec": {"alpha": 1.0, "local_singularities": [{"t0": 1.0, "m": 0, "coeff": 1.0}]},
    }
    code, out = _run(tmp_path, "predict", cfg)
    assert code == 0
    doc = json.loads((out / "tri" / "prediction.json").read_text())
    assert doc["a_plus"] == pytest.approx(1.0 / (2.0 * 3.141592653589793))
    assert doc["a_minus"] == doc["a_plus"]


def test_predict_symbol_outputs(tmp_path):
    cfg = {"name": "sym", "kind": "symbol", "spec": {"alpha": 2.0}}
    code, out = _run(tmp_path, "predict", cfg)
    assert code == 0
    doc = json.loads((out / "sym" / "prediction.json").read_text())
    assert doc["b"] == [-0.5, 0.0]
    assert doc["symmetric"] is True


# ----------------------------------------------------------------- spectrum


def test_spectrum_run_outputs(tmp_path):
    cfg = {
        "name": "run",
        "kind": "discrete",
        "spec": {"alpha": 1.0, "b_plus1": 1.0},
        "N_list": [512],
        "fit": {"window": [2, 5]},
    }
    code, out = _run(tmp_path, "spectrum", cfg)
    assert code == 0
    csv = (out / "run" / "spectrum.csv").read_text().splitlines()
    assert csv[0].startswith("# hankelspec ")
    assert "order=512" in csv[0]
    assert "solver=expsum" in csv[0]
    assert "converged=true" in csv[0]
    assert csv[1] == "n,lambda_plus,lambda_minus,scaled_plus,scaled_minus"
    assert csv[2].startswith("1,")
    fit = json.loads((out / "run" / "fit.json").read_text())
    assert fit["window"] == [2, 5]
    assert fit["model"] == "plain"
    assert 0.5 < fit["a_hat_plus"] < 0.9
    assert fit["a_hat_minus"] == 0.0
    assert json.loads((out / "run" / "prediction.json").read_text())[
        "a_plus"
    ] == pytest.approx(0.5, rel=1e-12)
    assert "a_hat_plus:" in (out / "run" / "summary.txt").read_text()


def test_spectrum_refuses_an_uncovered_spec_before_it_solves(tmp_path, capsys, monkeypatch):
    # A local singularity of order m is predicted only at alpha = m + 1.
    def solve(*args, **kwargs):
        raise AssertionError("spectrum solved a scenario it cannot predict")

    monkeypatch.setattr(hankelspec.cli, "solve", solve)
    cfg = {
        "name": "uncovered",
        "kind": "continuous",
        "spec": {"alpha": 2.0, "local_singularities": [{"t0": 1.0, "m": 0, "coeff": 1.0}]},
        "grids": [{"kind": "uniform", "t_max": 1.0, "points": 4096}],
    }
    code, out = _run(tmp_path, "spectrum", cfg)
    assert code == 2
    assert "only covered at alpha = m + 1" in capsys.readouterr().err
    assert not out.exists()


def test_spectrum_seed_override_recorded(tmp_path):
    # Only the Lanczos route of a uniform grid reads the seed; no discrete
    # order does.
    cfg = {
        "name": "seeded",
        "kind": "continuous",
        "spec": {"alpha": 1.0, "local_singularities": [{"t0": 1.0, "m": 0, "coeff": 1.0}]},
        "grids": [{"kind": "uniform", "t_max": 1.0, "points": 4096}],
        "solver": {"k": 4},
        "fit": {"window": [1, 4]},
    }
    code, out = _run(tmp_path, "spectrum", cfg, extra=["--seed", "5"])
    assert code == 0
    fit = json.loads((out / "seeded" / "fit.json").read_text())
    assert fit["producer"]["parameters"]["solver"]["seed"] == 5
    assert " seed=5 " in (out / "seeded" / "spectrum.csv").read_text().splitlines()[0]


def test_spectrum_solves_for_the_whole_fit_window(tmp_path):
    # solver.k = 4 asks for fewer values per end than the window [1, 12]
    # fits; the run must solve for all twelve, not fit zeros past the sixth.
    cfg = {
        "name": "window",
        "kind": "continuous",
        "spec": {"alpha": 1.0, "local_singularities": [{"t0": 1.0, "m": 0, "coeff": 1.0}]},
        "grids": [{"kind": "uniform", "t_max": 1.0, "points": 4096}],
        "solver": {"k": 4},
        "fit": {"window": [1, 12]},
    }
    code, out = _run(tmp_path, "spectrum", cfg)
    assert code == 0
    fit = json.loads((out / "window" / "fit.json").read_text())
    assert [row[0] for row in fit["per_n"]] == list(range(1, 13))
    assert all(row[1] > 0.0 and row[2] > 0.0 for row in fit["per_n"])
    assert fit["a_hat_minus"] > 0.1  # predicted 1/(2 pi) = 0.159


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
def test_overflowing_lanczos_norm_exits_3(tmp_path):
    # At b_inf = 1e200, ||A v||^2 overflows: every value falls in the zero
    # band, which must not pass for a converged solve.
    cfg = {
        "name": "huge", "kind": "continuous", "spec": {"alpha": 1.0, "b_inf": 1e200},
        "grids": [{"kind": "uniform", "t_max": 8.0, "points": 4096}], "fit": {"window": [2, 8]},
    }
    code, out = _run(tmp_path, "spectrum", cfg)
    assert code == 3
    assert "converged=false" in (out / "huge" / "spectrum.csv").read_text()


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
def test_overflowing_geometric_build_is_refused(tmp_path, capsys):
    # The kernel overflows on a 512-point grid at b_zero = 1e300, which the
    # dense symmetry scan refuses instead of passing to eigvalsh.
    cfg = {
        "name": "huge", "kind": "continuous", "spec": {"alpha": 1.0, "b_zero": 1e300},
        "grids": [{"kind": "geometric", "t_min": 1e-12, "t_max": 1.0, "points": 512}],
        "fit": {"window": [2, 8]},
    }
    code, _ = _run(tmp_path, "spectrum", cfg)
    assert code == 2
    assert "validation error: matrix has a NaN or infinite entry" in capsys.readouterr().err


def _triangle_runs(name, command, solver, window):
    """A triangle kernel on uniform grids: one for spectrum, two for verify."""
    grids = [{"kind": "uniform", "t_max": 1.0, "points": M} for M in (128, 256)]
    return {
        "name": name,
        "kind": "continuous",
        "spec": {"alpha": 1.0, "local_singularities": [{"t0": 1.0, "m": 0, "coeff": 1.0}]},
        "grids": grids[:1] if command == "spectrum" else grids,
        "solver": solver,
        "fit": {"window": window},
    }


@pytest.mark.parametrize(
    "command, solver, window, want",
    [
        ("spectrum", {"k": 4}, [1, 12], 12),
        ("spectrum", {}, [1, 8], 64),
        ("verify", {}, [1, 40], 80),
        ("verify", {}, [1, 4], 16),
    ],
)
def test_memory_check_counts_the_values_each_solve_asks_for(
    tmp_path, monkeypatch, command, solver, window, want
):
    # The CLI's memory check and every Lanczos solve of the run must use the
    # same count per end, or the check undercounts the basis.  verify asks
    # for 2 n_max values per end, and for at least 16.
    from hankelspec import cli

    counted, asked = [], []

    def solve_bytes(order, kind, params, *rest):
        counted.append(params.k)
        return real_bytes(order, kind, params, *rest)

    def solve(op, params):
        asked.append(params.k)
        return real_solve(op, params)

    real_bytes, real_solve = cli.solve_bytes, cli.solve
    monkeypatch.setattr(cli, "solve_bytes", solve_bytes)
    monkeypatch.setattr(cli, "solve", solve)
    cfg = _triangle_runs("count", command, solver, window)
    code, _ = _run(tmp_path, command, cfg)
    assert code == 0
    assert counted == asked == [want] * len(cfg["grids"])


@pytest.mark.parametrize(
    "command, solver, window", [("spectrum", {"k": 4}, [1, 12]), ("verify", {}, [1, 40])]
)
def test_fit_json_reports_the_configured_solver_k(tmp_path, command, solver, window):
    # Each solve asks for more values per end than solver.k (12 and 80);
    # fit.json reports the config's own solver block.
    cfg = _triangle_runs("knobs", command, solver, window)
    code, out = _run(tmp_path, command, cfg)
    assert code == 0
    fit = json.loads((out / "knobs" / "fit.json").read_text())
    assert fit["producer"]["parameters"]["solver"]["k"] == solver.get("k", 64)


def test_spectrum_continuous_grid(tmp_path):
    cfg = {
        "name": "gq",
        "kind": "continuous",
        "spec": {"alpha": 1.0, "b_zero": 1.0},
        "grids": [{"kind": "geometric", "t_min": 1e-10, "t_max": 1.0, "points": 512}],
        "fit": {"window": [1, 4]},
    }
    code, out = _run(tmp_path, "spectrum", cfg)
    assert code == 0
    assert (out / "gq" / "spectrum.csv").exists()
    fit = json.loads((out / "gq" / "fit.json").read_text())
    assert fit["a_hat_plus"] > 0.0


# ----------------------------------------------------------------- failures


def test_phi_on_boundary_rejected(tmp_path, capsys):
    cfg = {
        "name": "bad",
        "kind": "discrete",
        "spec": {
            "alpha": 1.0,
            "oscillations": [{"phi": 3.141592653589793, "psi": 0.0, "b": 1.0}],
        },
        "N_list": [64],
    }
    code, _ = _run(tmp_path, "spectrum", cfg)
    assert code == 2
    err = capsys.readouterr().err
    assert "config error at 'spec.oscillations[0].phi'" in err
    assert "strictly inside" in err


def test_wrong_type_names_field(tmp_path, capsys):
    cfg = {"name": "bad", "kind": "discrete", "spec": {"alpha": "one"}, "N_list": [64]}
    code, _ = _run(tmp_path, "spectrum", cfg)
    assert code == 2
    assert "'spec.alpha'" in capsys.readouterr().err


@pytest.mark.parametrize(
    "field, value",
    [("alpha", float("nan")), ("b_plus1", float("inf")), ("b_minus1", float("-inf"))],
)
def test_non_finite_number_names_field(tmp_path, capsys, field, value):
    spec = {"alpha": 1.0, "b_plus1": 1.0, field: value}
    cfg = {"name": "bad", "kind": "discrete", "spec": spec, "N_list": [64]}
    code, out = _run(tmp_path, "spectrum", cfg)
    assert code == 2
    err = capsys.readouterr().err
    assert f"config error at 'spec.{field}'" in err
    assert "finite" in err
    assert not out.exists()


def test_non_finite_complex_coefficient_names_field(tmp_path, capsys):
    cfg = {"name": "bad", "kind": "symbol", "spec": {"alpha": 2.0, "v0_plus": [[1.0, float("nan")]]}}
    code, _ = _run(tmp_path, "predict", cfg)
    assert code == 2
    assert "'spec.v0_plus[0][1]'" in capsys.readouterr().err


def test_overflowing_integer_names_field(tmp_path, capsys):
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text('{"name": "bad", "kind": "discrete", "spec": {"alpha": 1' + "0" * 400 + "}}")
    code = main(["predict", "--config", str(cfg_path), "--out", str(tmp_path / "out")])
    assert code == 2
    assert "'spec.alpha'" in capsys.readouterr().err


def test_overflowing_integer_order_names_singularity(tmp_path, capsys):
    # m is an integer field, so the 401-digit order reaches the spec's own
    # finiteness check unconverted.
    spec = {"alpha": 1.0, "local_singularities": [{"t0": 1.0, "m": 10**400, "coeff": 1.0}]}
    code, out = _run(tmp_path, "predict", {"name": "bad", "kind": "continuous", "spec": spec})
    assert code == 2
    assert "config error at 'spec.local_singularities[0].m'" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "command, spec, field",
    [
        # |b|^(1/alpha) = 1e600 leaves the float range of the predicted coefficients.
        *[(c, {"alpha": 0.5, "b_plus1": 1e300}, "b_plus1") for c in ("predict", "spectrum", "verify")],
        ("predict", {"alpha": 0.25, "oscillations": [{"phi": 1.0, "psi": 0.0, "b": 1e100}]}, "oscillations[0].b"),
    ],
)
def test_overflowing_share_names_field(tmp_path, capsys, command, spec, field):
    cfg = {"name": "bad", "kind": "discrete", "spec": spec, "N_list": [64]}
    code, out = _run(tmp_path, command, cfg)
    assert code == 2
    assert f"config error at 'spec.{field}'" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("field", ["oscillations", "local_singularities"])
@pytest.mark.parametrize("entry", [1.5, "x", [1.0, 0.0, 1.0], None])
def test_continuous_non_object_entry_names_field(tmp_path, capsys, field, entry):
    cfg = {
        "name": "bad",
        "kind": "continuous",
        "spec": {"alpha": 1.0, field: [entry]},
        "grids": [{"kind": "uniform", "t_max": 1.0, "points": 64}],
    }
    code, _ = _run(tmp_path, "spectrum", cfg)
    assert code == 2
    err = capsys.readouterr().err
    assert f"config error at 'spec.{field}[0]': expected an object" in err


@pytest.mark.parametrize("kind", ["discrete", "continuous"])
def test_spec_list_field_must_be_a_list(tmp_path, capsys, kind):
    cfg = {"name": "bad", "kind": kind, "spec": {"alpha": 1.0, "oscillations": 3}}
    code, _ = _run(tmp_path, "predict", cfg)
    assert code == 2
    assert "config error at 'spec.oscillations': expected a list" in capsys.readouterr().err


def test_missing_config_file(tmp_path, capsys):
    code = main(["predict", "--config", str(tmp_path / "nope.json")])
    assert code == 2
    assert "cannot read" in capsys.readouterr().err


def test_invalid_json(tmp_path, capsys):
    p = tmp_path / "broken.json"
    p.write_text("{not json")
    code = main(["predict", "--config", str(p)])
    assert code == 2
    assert "invalid JSON" in capsys.readouterr().err


def test_config_that_is_not_utf8_names_config(tmp_path, capsys):
    p = tmp_path / "latin1.json"
    p.write_bytes('{"kind": "discrete", "name": "caf\xe9", "spec": {"alpha": 1.0}}'.encode("latin-1"))
    code = main(["predict", "--config", str(p), "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("config error at '<config>': cannot read")
    assert not (tmp_path / "out").exists()


def test_action_mismatch(tmp_path, capsys):
    cfg = {
        "name": "x",
        "kind": "discrete",
        "action": "predict",
        "spec": {"alpha": 1.0, "b_plus1": 1.0},
    }
    code, _ = _run(tmp_path, "spectrum", cfg)
    assert code == 2
    assert "does not match" in capsys.readouterr().err


def test_spectrum_needs_single_order(tmp_path, capsys):
    cfg = {
        "name": "x",
        "kind": "discrete",
        "spec": {"alpha": 1.0, "b_plus1": 1.0},
        "N_list": [256, 512],
    }
    code, _ = _run(tmp_path, "spectrum", cfg)
    assert code == 2
    assert "exactly one entry" in capsys.readouterr().err


def test_continuous_spectrum_counts_its_grids(tmp_path, capsys):
    # The one-entry rule applies to the list the kind runs on; a stray
    # N_list on a continuous scenario is validated but not counted.
    cfg = {
        "name": "x",
        "kind": "continuous",
        "spec": {"alpha": 1.0, "local_singularities": [{"t0": 1.0, "m": 0, "coeff": 1.0}]},
        "N_list": [256, 512],
        "grids": [{"kind": "uniform", "t_max": 1.0, "points": 64}],
        "fit": {"window": [1, 4]},
    }
    code, out = _run(tmp_path, "spectrum", cfg)
    assert code == 0, capsys.readouterr().err
    assert "order=64 " in (out / "x" / "spectrum.csv").read_text().splitlines()[0]


def test_nonconvergence_exit_code(tmp_path, capsys):
    # A uniform grid takes the iterative route; with two iterations it
    # cannot converge and must flag the run, not hide it.
    cfg = {
        "name": "starved",
        "kind": "continuous",
        "spec": {"alpha": 1.0, "local_singularities": [{"t0": 1.0, "m": 0, "coeff": 1.0}]},
        "grids": [{"kind": "uniform", "t_max": 1.0, "points": 4096}],
        "solver": {"k": 40, "tol": 1e-15, "max_iter": 2},
        "fit": {"window": [1, 4]},
    }
    code, out = _run(tmp_path, "spectrum", cfg)
    assert code == 3
    assert "converged=false" in (out / "starved" / "spectrum.csv").read_text()
    assert "starved: not converged" in capsys.readouterr().out


# ------------------------------------------------------------------- verify


def test_verify_discrete(tmp_path):
    cfg = {
        "name": "ver",
        "kind": "discrete",
        "spec": {"alpha": 1.0, "b_plus1": 1.0},
        "N_list": [256, 512],
        "fit": {"window": [2, 6]},
    }
    code, out = _run(tmp_path, "verify", cfg)
    assert code == 0
    doc = json.loads((out / "ver" / "fit.json").read_text())
    assert doc["N_list"] == [256, 512]
    assert len(doc["deviations"]) == 2
    assert isinstance(doc["improving"], bool)
    assert len(doc["fits"]) == 2
    assert (out / "ver" / "spectrum.csv").exists()


def test_verify_continuous(tmp_path):
    cfg = {
        "name": "tri",
        "kind": "continuous",
        "spec": {"alpha": 1.0, "local_singularities": [{"t0": 1.0, "m": 0, "coeff": 1.0}]},
        "grids": [
            {"kind": "uniform", "t_min": 1e-12, "t_max": 1.0, "points": 128},
            {"kind": "uniform", "t_min": 1e-12, "t_max": 1.0, "points": 256},
        ],
        "fit": {"window": [1, 8]},
    }
    code, out = _run(tmp_path, "verify", cfg)
    assert code == 0
    doc = json.loads((out / "tri" / "fit.json").read_text())
    # Grids above the dense solve limit depend on the solver knobs and seed.
    assert doc["producer"]["parameters"]["solver"]["seed"] == 0
    assert doc["producer"]["parameters"]["window"] == [1, 8]
    assert len(doc["changes"]) == 1
    assert doc["changes"][0] < 0.05
    assert len(doc["lambda_plus"]) == 2


def test_verify_discrete_solves_each_order_once(tmp_path, monkeypatch):
    # The largest order's spectrum.csv comes from the truncation study's own
    # solve, not from a second solve of the same order.
    from hankelspec import analysis

    calls = []
    real = analysis.discrete_spectrum

    def spy(spec, N, params):
        calls.append(N)
        return real(spec, N, params)

    monkeypatch.setattr(analysis, "discrete_spectrum", spy)
    cfg = {
        "name": "once",
        "kind": "discrete",
        "spec": {"alpha": 1.0, "b_plus1": 1.0},
        "N_list": [128, 256, 512],
        "fit": {"window": [2, 6]},
    }
    code, out = _run(tmp_path, "verify", cfg)
    assert code == 0
    assert calls == [128, 256, 512]
    assert "order=512 " in (out / "once" / "spectrum.csv").read_text()


def test_verify_continuous_nonconvergence_exit_code(tmp_path, capsys):
    # Uniform grids above the dense-solve limit take the iterative route;
    # five applications cannot converge, so the run is flagged, not hidden.
    cfg = {
        "name": "starved",
        "kind": "continuous",
        "spec": {"alpha": 1.0, "local_singularities": [{"t0": 1.0, "m": 0, "coeff": 1.0}]},
        "grids": [
            {"kind": "uniform", "t_max": 1.0, "points": 2100},
            {"kind": "uniform", "t_max": 1.0, "points": 2200},
        ],
        "solver": {"max_iter": 5},
        "fit": {"window": [1, 4]},
    }
    code, out = _run(tmp_path, "verify", cfg)
    assert code == 3
    for name in ("fit.json", "prediction.json", "summary.txt"):
        assert (out / "starved" / name).exists()
    assert "not converged:" in (out / "starved" / "summary.txt").read_text()
    assert "starved: not converged" in capsys.readouterr().out


def test_infinite_drift_is_written_as_null(tmp_path):
    # Only the top point mass shows in a window of the first three
    # eigenvalues, so the minus channel's median is 0 with a nonzero spread.
    cfg = {
        "name": "b1",
        "kind": "discrete",
        "spec": {"alpha": 1.0, "b_plus1": 1.0},
        "N_list": [256],
        "fit": {"window": [1, 3]},
    }
    code, out = _run(tmp_path, "spectrum", cfg)
    assert code == 0
    fit_text = (out / "b1" / "fit.json").read_text()
    assert json.loads(fit_text)["drift"] is None
    assert "inf" not in fit_text
    assert "drift: null\n" in (out / "b1" / "summary.txt").read_text()


def test_log_corrected_window_from_one_rejected(tmp_path, capsys):
    # 1 / log 1 is infinite, so the least-squares design would hold inf.
    cfg = {
        "name": "lc",
        "kind": "discrete",
        "spec": {"alpha": 1.0, "b_plus1": 1.0},
        "N_list": [64],
        "fit": {"window": [1, 4], "model": "log_corrected"},
    }
    code, out = _run(tmp_path, "spectrum", cfg)
    assert code == 2
    assert "config error at 'fit.window'" in capsys.readouterr().err
    assert not out.exists()


def test_verify_discrete_at_order_2_40(tmp_path):
    # The expsum route reaches orders no stored vector could: its cost grows
    # with log N only.
    cfg = {
        "name": "far",
        "kind": "discrete",
        "spec": {"alpha": 1.0, "b_plus1": 1.0},
        "N_list": [256, 2**40],
    }
    code, out = _run(tmp_path, "verify", cfg)
    assert code == 0
    small, large = json.loads((out / "far" / "fit.json").read_text())["fits"]
    for row_s, row_l in zip(small["per_n"], large["per_n"]):
        assert row_s[0] == row_l[0]
        assert row_l[1] >= row_s[1] and row_l[2] >= row_s[2]
    assert "solver=expsum" in (out / "far" / "spectrum.csv").read_text()


def test_oscillation_beyond_phase_limit_rejected(tmp_path, capsys):
    osc = {"alpha": 1.0, "oscillations": [{"phi": 1.0, "psi": 0.0, "b": 1.0}]}
    cfg = {"name": "osc", "kind": "discrete", "spec": osc, "N_list": [2**14, 2**53 + 1]}
    code, out = _run(tmp_path, "verify", cfg)
    assert code == 2
    assert "config error at 'N_list[1]'" in capsys.readouterr().err
    assert not out.exists()
    # Characters phi = 0 and pi need no phase reduction: any order runs.
    cfg = {"name": "far", "kind": "discrete", "spec": {"alpha": 1.0, "b_minus1": 1.0}, "N_list": [10**40]}
    code, out = _run(tmp_path, "spectrum", cfg)
    assert code == 0


def test_discrete_reports_do_not_depend_on_seed(tmp_path):
    cfg = {
        "name": "b1-osc",
        "kind": "discrete",
        "spec": {"alpha": 1.0, "b_plus1": 1.0, "oscillations": [{"phi": 1.5707963267948966, "psi": 0.0, "b": 1.0}]},
        "N_list": [2**14],
        "solver": {"k": 16, "tol": 1e-6},
    }
    outs = []
    for seed in (0, 1):
        (tmp_path / f"seed{seed}").mkdir()
        code, out = _run(tmp_path / f"seed{seed}", "spectrum", cfg, extra=["--seed", str(seed)])
        assert code == 0
        outs.append(out / "b1-osc")
    names = sorted(p.name for p in outs[0].iterdir())
    assert names == ["fit.json", "prediction.json", "spectrum.csv", "summary.txt"]
    for name in names:
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name
    summary = (outs[0] / "summary.txt").read_text()
    assert "solver: expsum converged=True\ndetails: nodes=" in summary
    assert "seed=0 tol=0 " in (outs[0] / "spectrum.csv").read_text()


def test_geometric_reports_do_not_depend_on_seed(tmp_path):
    # The range finder draws its test blocks from a fixed internal seed.
    cfg = {
        "name": "b0",
        "kind": "continuous",
        "spec": {"alpha": 1.0, "b_zero": 1.0},
        "grids": [{"kind": "geometric", "t_min": 1e-12, "t_max": 1.0, "points": 1024}],
    }
    outs = []
    for run, seed in enumerate((0, 1, 0)):
        (tmp_path / f"run{run}").mkdir()
        code, out = _run(tmp_path / f"run{run}", "spectrum", cfg, extra=["--seed", str(seed)])
        assert code == 0
        outs.append(out / "b0")
    for name in ("spectrum.csv", "summary.txt"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name
    for name in ("fit.json", "prediction.json", "spectrum.csv", "summary.txt"):
        assert (outs[0] / name).read_bytes() == (outs[2] / name).read_bytes(), name
    seeds = [json.loads((o / "fit.json").read_text())["producer"]["parameters"]["solver"]["seed"] for o in outs]
    assert seeds == [0, 1, 0]
    summary = (outs[0] / "summary.txt").read_text()
    assert "solver: randomized_range_finder converged=True\n" in summary
    assert "details: blocks=" in summary and " fell_back=False\n" in summary
    assert "solver=randomized_range_finder seed=0 tol=0 " in (outs[0] / "spectrum.csv").read_text()


def test_an_error_in_a_build_thread_ends_the_run_without_a_traceback(tmp_path, capsys, monkeypatch):
    # A 2048-point geometric grid is built on two threads; an error in one
    # row block reaches main, which reports it as it reports any other.
    monkeypatch.setattr(quadrature, "_cpu_count", lambda: 2)
    assert quadrature._workers(2048) == 2
    real = quadrature.eval_kernel_many

    def fail_on_one_block(spec, t, out=None):
        if t.shape[1] == 2048 - 5 * 128:
            raise ValueError("the kernel failed on one row block")
        return real(spec, t, out=out)

    monkeypatch.setattr(quadrature, "eval_kernel_many", fail_on_one_block)
    cfg = {
        "name": "b0",
        "kind": "continuous",
        "spec": {"alpha": 1.0, "b_zero": 1.0},
        "grids": [{"kind": "geometric", "t_min": 1e-12, "t_max": 1.0, "points": 2048}],
    }
    code, _ = _run(tmp_path, "spectrum", cfg)
    assert code == 2
    assert capsys.readouterr().err == "validation error: the kernel failed on one row block\n"


def test_continuous_verify_refuses_log_corrected_model(tmp_path, capsys):
    # A continuous verify compares eigenvalue tables and fits no model.
    cfg = {
        "name": "tri",
        "kind": "continuous",
        "spec": {"alpha": 1.0, "local_singularities": [{"t0": 1.0, "m": 0, "coeff": 1.0}]},
        "grids": [
            {"kind": "uniform", "t_max": 1.0, "points": 128},
            {"kind": "uniform", "t_max": 1.0, "points": 256},
        ],
        "fit": {"window": [2, 8], "model": "log_corrected"},
    }
    code, out = _run(tmp_path, "verify", cfg)
    assert code == 2
    assert "config error at 'fit.model'" in capsys.readouterr().err
    assert not out.exists()
    # The same config with a plain model, or none, runs.
    for model in ("plain", None):
        fit = {"window": [2, 8]} if model is None else {"window": [2, 8], "model": model}
        (tmp_path / str(model)).mkdir()
        code, _ = _run(tmp_path / str(model), "verify", {**cfg, "fit": fit})
        assert code == 0


def test_summary_details_line_per_route(tmp_path):
    cfg = {
        "name": "tri",
        "kind": "continuous",
        "spec": {"alpha": 1.0, "local_singularities": [{"t0": 1.0, "m": 0, "coeff": 1.0}]},
        "grids": [{"kind": "uniform", "t_max": 1.0, "points": 4096}],
        "solver": {"k": 4},
    }
    for route in ("lanczos", "range", "dense"):
        (tmp_path / route).mkdir()

    def keys(route):
        code, out = _run(tmp_path / route, "spectrum", cfg)
        assert code == 0
        lines = (out / "tri" / "summary.txt").read_text().splitlines()
        details = [line for line in lines if line.startswith("details: ")]
        assert len(details) == 1
        return [kv.split("=")[0] for kv in details[0].split()[1:]]

    assert keys("lanczos") == [
        "applies", "restarts", "reorth_passes", "reorth_repeats", "basis_final",
    ]
    cfg["grids"] = [{"kind": "geometric", "t_min": 1e-10, "t_max": 1.0, "points": 256}]
    assert keys("range") == ["blocks", "probes", "basis_rank", "fell_back"]
    cfg["grids"][0]["points"] = 64
    code, out = _run(tmp_path / "dense", "spectrum", cfg)
    assert code == 0
    assert "details: none\n" in (out / "tri" / "summary.txt").read_text()


# ----------------------------------------------------------- refusal table

B1 = {"alpha": 1.0, "b_plus1": 1.0}
TRIANGLE = {"alpha": 1.0, "local_singularities": [{"t0": 1.0, "m": 0, "coeff": 1.0}]}
DISCRETE = {"kind": "discrete", "spec": B1}
SYMBOL = {"kind": "symbol", "spec": {"alpha": 2.0}}
TWO_GRIDS = [{"kind": "uniform", "t_max": 1.0, "points": n} for n in (128, 256)]


def _refusal(id, command, cfg, field, memory=None, message=None):
    return pytest.param(command, cfg, field, memory, message, id=id)


def _memory_refusal(id, command, cfg, field, memory=None):
    return _refusal(id, command, cfg, field, memory, "bytes of physical memory")


def _unknown_field(id, command, cfg, field):
    return _refusal(id, command, cfg, field, message="unknown field")


# One config for each way the config parser refuses a scenario: the command
# it runs under, the scenario, the field the refusal names, for the memory
# refusals the physical memory the machine reports (None: its own), and the
# words the message must hold, where the field alone does not tell the
# refusal apart.  The sweep-only refusals (shared outputs, a non-object
# entry, the scenario list itself) and the action-mismatch check have their
# own tests.
REFUSALS = [
    # The value converters.
    _refusal("number-type", "predict", {**DISCRETE, "spec": {"alpha": "one"}}, "spec.alpha"),
    _refusal("number-nan", "predict", {**DISCRETE, "spec": {**B1, "b_plus1": float("nan")}}, "spec.b_plus1"),
    _refusal("number-overflow", "predict", {**DISCRETE, "spec": {"alpha": 10**400}}, "spec.alpha"),
    _refusal("integer", "predict", {**DISCRETE, "dump_samples": "x"}, "dump_samples"),
    _refusal("seed", "predict", {**DISCRETE, "solver": {"seed": -1}}, "solver.seed"),
    _refusal("complex", "predict", {**SYMBOL, "spec": {"alpha": 2.0, "v0_plus": ["x"]}}, "spec.v0_plus[0]"),
    _refusal("complex-nan", "predict", {**SYMBOL, "spec": {"alpha": 2.0, "v0_plus": [[1.0, float("nan")]]}}, "spec.v0_plus[0][1]"),
    _refusal("polynomial", "predict", {**SYMBOL, "spec": {"alpha": 2.0, "v0_plus": []}}, "spec.v0_plus"),
    _refusal("number-list", "predict", {"kind": "continuous", "spec": {"alpha": 1.0, "cutoffs": [1.0]}}, "spec.cutoffs"),
    _refusal("object-list", "predict", {**DISCRETE, "spec": {**B1, "oscillations": 3}}, "spec.oscillations"),
    _refusal("perturbation", "predict", {**DISCRETE, "spec": {**B1, "perturbation": 3}}, "spec.perturbation"),
    # The dataclass builder and the dataclasses' own checks.
    _refusal("spec-object", "predict", {**DISCRETE, "spec": 3}, "spec"),
    _refusal("spec-field-missing", "predict", {**DISCRETE, "spec": {}}, "spec.alpha"),
    _refusal("spec-share-overflow", "spectrum", {**DISCRETE, "spec": {"alpha": 0.5, "b_plus1": 1e300}, "N_list": [64]}, "spec.b_plus1"),
    # An oscillation's share counts for both signs in a_singular.
    _refusal(
        "spec-singular-share-overflow", "predict",
        {**DISCRETE, "spec": {"alpha": 138.0, "oscillations": [{"phi": 1.0, "psi": 0.0, "b": 2.1e138}]}},
        "spec.oscillations[0].b",
    ),
    _refusal(
        "spec-entry", "predict",
        {**DISCRETE, "spec": {"alpha": 1.0, "oscillations": [{"phi": 3.141592653589793, "psi": 0.0, "b": 1.0}]}},
        "spec.oscillations[0].phi",
    ),
    _refusal(
        "spec-singularity-order", "predict",
        {"kind": "continuous", "spec": {"alpha": 1.0, "local_singularities": [{"t0": 1.0, "m": 10**400, "coeff": 1.0}]}},
        "spec.local_singularities[0].m",
    ),
    _refusal("spec-alpha-not-positive", "predict", {**DISCRETE, "spec": {**B1, "alpha": 0.0}}, "spec.alpha"),
    _refusal(
        "spec-cutoffs-order", "predict",
        {"kind": "continuous", "spec": {"alpha": 1.0, "b_inf": 1.0, "cutoffs": [0.25, 0.5, 2.0, 1.5]}},
        "spec.cutoffs",
    ),
    _refusal(
        "spec-singularity-location", "predict",
        {"kind": "continuous", "spec": {"alpha": 1.0, "local_singularities": [{"t0": -1.0, "m": 0, "coeff": 1.0}]}},
        "spec.local_singularities[0].t0",
    ),
    _refusal(
        "spec-perturbation-beta", "predict",
        {**DISCRETE, "spec": {**B1, "perturbation": {"scale": 0.1, "beta": 0.0}}},
        "spec.perturbation.beta",
    ),
    _refusal("solver-object", "predict", {**DISCRETE, "solver": [1]}, "solver"),
    _refusal("solver-k", "predict", {**DISCRETE, "solver": {"k": 0}}, "solver.k"),
    _refusal("solver-tol", "predict", {**DISCRETE, "solver": {"tol": 0.0}}, "solver.tol"),
    _refusal("solver-max-iter", "predict", {**DISCRETE, "solver": {"max_iter": 0}}, "solver.max_iter"),
    _refusal("grid-object", "predict", {**DISCRETE, "grids": [1]}, "grids[0]"),
    _refusal("grid-kind", "predict", {**DISCRETE, "grids": [{"kind": "x", "t_max": 1.0, "points": 64}]}, "grids[0].kind"),
    _refusal(
        "grid-t-min", "predict",
        {**DISCRETE, "grids": [{"kind": "geometric", "t_min": 0.0, "t_max": 1.0, "points": 64}]},
        "grids[0].t_min",
    ),
    _unknown_field("unknown-scenario-field", "spectrum", {**DISCRETE, "N_list": [64], "solvr": {"k": 8}}, "solvr"),
    _unknown_field("unknown-spec-field", "spectrum", {**DISCRETE, "spec": {**B1, "b_plus": 5}, "N_list": [64]}, "spec.b_plus"),
    _unknown_field("unknown-fit-field", "spectrum", {**DISCRETE, "N_list": [64], "fit": {"windw": [2, 9]}}, "fit.windw"),
    _unknown_field(
        "unknown-grid-field", "spectrum",
        {"kind": "continuous", "spec": TRIANGLE, "grids": [{"kind": "uniform", "t_max": 1.0, "points": 64, "pts": 128}]},
        "grids[0].pts",
    ),
    # The fit block.
    _refusal("fit-object", "predict", {**DISCRETE, "fit": 3}, "fit"),
    _refusal("fit-window-shape", "predict", {**DISCRETE, "fit": {"window": "x"}}, "fit.window"),
    _refusal("fit-window-entry", "predict", {**DISCRETE, "fit": {"window": [1.5, 4]}}, "fit.window[0]"),
    _refusal("fit-window-order", "predict", {**DISCRETE, "fit": {"window": [5, 3]}}, "fit.window"),
    _refusal("fit-window-zero", "predict", {**DISCRETE, "fit": {"window": [0, 3]}}, "fit.window"),
    _refusal("fit-model", "predict", {**DISCRETE, "fit": {"model": "quadratic"}}, "fit.model"),
    _refusal("log-corrected-from-one", "predict", {**DISCRETE, "fit": {"window": [1, 4], "model": "log_corrected"}}, "fit.window"),
    # The scenario's own fields.
    _refusal("name", "predict", {**DISCRETE, "name": ""}, "name"),
    _refusal("kind", "predict", {**DISCRETE, "kind": "x"}, "kind"),
    _refusal("kind-missing", "predict", {"spec": B1}, "kind"),
    _refusal("spec-missing", "predict", {"kind": "discrete"}, "spec"),
    _refusal("symbol-kind-verify", "verify", SYMBOL, "action"),
    _refusal("discrete-kind-symbol", "symbol", DISCRETE, "action"),
    _refusal("outputs-type", "predict", {**DISCRETE, "outputs": 3}, "outputs"),
    _refusal("outputs-parent", "predict", {**DISCRETE, "outputs": "../x"}, "outputs"),
    _refusal("outputs-from-name", "predict", {**DISCRETE, "name": "../x"}, "outputs"),
    _refusal("orders-empty", "predict", {**DISCRETE, "N_list": []}, "N_list"),
    _refusal("order-type", "predict", {**DISCRETE, "N_list": ["x"]}, "N_list[0]"),
    _refusal("order-below-2", "predict", {**DISCRETE, "N_list": [64, 1]}, "N_list[1]"),
    _refusal("grids-empty", "predict", {**DISCRETE, "grids": []}, "grids"),
    _refusal("samples-type", "predict", {**SYMBOL, "samples": "x"}, "samples"),
    _refusal("samples-power-of-two", "predict", {**SYMBOL, "samples": 1000}, "samples"),
    # Every kind checks samples, though only the symbol action reads it.
    _refusal("samples-type-discrete", "predict", {**DISCRETE, "samples": "x"}, "samples"),
    _refusal("samples-power-of-two-continuous", "predict", {"kind": "continuous", "spec": TRIANGLE, "samples": 1000}, "samples"),
    _refusal("dump-samples-below-1", "symbol", {**SYMBOL, "samples": 4096, "j_window": [8, 64], "dump_samples": -5}, "dump_samples"),
    _refusal("j-window-shape", "predict", {**DISCRETE, "j_window": [1]}, "j_window"),
    _refusal("j-window-entry", "predict", {**DISCRETE, "j_window": [1.5, 8]}, "j_window[0]"),
    _refusal("j-window-beyond-samples", "symbol", {**SYMBOL, "samples": 4096, "j_window": [8, 9000]}, "j_window"),
    _refusal("j-window-below-2", "symbol", {**SYMBOL, "samples": 4096, "j_window": [1, 8]}, "j_window"),
    _refusal("symbol-alpha-at-most-1", "symbol", {**SYMBOL, "spec": {"alpha": 1.0}, "samples": 4096}, "spec.alpha"),
    # u0's jump of -i pi cancels the 1/2 of b = (1 - alpha) v0 (1/2 + (u0+ - u0-)/(2 pi i)).
    _refusal(
        "symbol-b-zero", "symbol",
        {**SYMBOL, "spec": {"alpha": 2.0, "u0_plus": [[0.0, -math.pi / 2]], "u0_minus": [[0.0, math.pi / 2]]},
         "samples": 4096, "j_window": [16, 512]},
        "spec", message="decay coefficient b is 0",
    ),
    # The rules between fields.
    _refusal("discrete-run-needs-orders", "spectrum", DISCRETE, "N_list"),
    _refusal("continuous-run-needs-grids", "verify", {"kind": "continuous", "spec": TRIANGLE}, "grids"),
    _refusal("spectrum-one-order", "spectrum", {**DISCRETE, "N_list": [256, 512]}, "N_list"),
    _refusal("spectrum-one-grid", "spectrum", {"kind": "continuous", "spec": TRIANGLE, "grids": TWO_GRIDS}, "grids"),
    _refusal("verify-decreasing-orders", "verify", {**DISCRETE, "N_list": [128, 64]}, "N_list"),
    _refusal("verify-repeated-order", "verify", {**DISCRETE, "N_list": [128, 128]}, "N_list"),
    _refusal("verify-one-grid", "verify", {"kind": "continuous", "spec": TRIANGLE, "grids": TWO_GRIDS[:1]}, "grids"),
    _refusal(
        "continuous-verify-log-corrected", "verify",
        {"kind": "continuous", "spec": TRIANGLE, "grids": TWO_GRIDS, "fit": {"window": [2, 8], "model": "log_corrected"}},
        "fit.model",
    ),
    _refusal(
        "uniform-grid-b-zero", "spectrum",
        {"kind": "continuous", "spec": {"alpha": 1.0, "b_zero": 1.0}, "grids": [{"kind": "uniform", "t_max": 1.0, "points": 64}]},
        "grids[0].kind",
    ),
    _refusal(
        "uncovered-singularity", "predict", {"kind": "continuous", "spec": {**TRIANGLE, "alpha": 2.0}},
        "spec.local_singularities", message="only covered at alpha = m + 1",
    ),
    _refusal(
        "phase-order-limit", "verify",
        {**DISCRETE, "spec": {"alpha": 1.0, "oscillations": [{"phi": 1.0, "psi": 0.0, "b": 1.0}]},
         "N_list": [2**14, 2**53 + 1]},
        "N_list[1]",
    ),
    # The physical-memory refusals.  By solve_bytes the expsum solve of
    # order 2^40 needs 13.6 MiB, the one of order 256 6.3 MiB: 8 MiB refuses
    # only the first.  A 4096-point geometric grid needs 2 * 8 * 4096^2
    # bytes, 256 MiB; one of 10^6 points 16 TB, and 2^40 uniform points,
    # 2^40 samples or 10^12 window rows are beyond any machine too.
    _memory_refusal("order-memory", "verify", {**DISCRETE, "N_list": [256, 2**40]}, "N_list[1]", memory=8 << 20),
    _memory_refusal(
        "uniform-grid-memory", "spectrum",
        {"kind": "continuous", "spec": {"alpha": 1.0, "b_inf": 1.0},
         "grids": [{"kind": "uniform", "t_max": 1.0, "points": 2**40}]},
        "grids[0].points",
    ),
    _memory_refusal(
        "geometric-grid-memory", "spectrum",
        {"kind": "continuous", "spec": {"alpha": 1.0, "b_zero": 1.0},
         "grids": [{"kind": "geometric", "t_min": 1e-12, "t_max": 1.0, "points": 4096}]},
        "grids[0].points", memory=64 << 20,
    ),
    _memory_refusal(
        "geometric-grid-beyond-any-memory", "spectrum",
        {"kind": "continuous", "spec": {"alpha": 1.0, "b_zero": 1.0},
         "grids": [{"kind": "geometric", "t_min": 1e-12, "t_max": 1.0, "points": 10**6}]},
        "grids[0].points",
    ),
    _memory_refusal("samples-memory", "symbol", {**SYMBOL, "samples": 2**40}, "samples"),
    # 2^20 samples with j_max 4096 take 25 MiB by sample_bytes, and 2^20
    # dumped rows 256 MiB more: 128 MiB refuses only the rows.
    _memory_refusal(
        "dump-samples-memory", "symbol", {**SYMBOL, "samples": 2**20, "dump_samples": 2**20},
        "dump_samples", memory=128 << 20,
    ),
    _memory_refusal("fit-window-memory", "spectrum", {**DISCRETE, "N_list": [64], "fit": {"window": [1, 10**12]}}, "fit.window"),
]


@pytest.mark.parametrize("command, cfg, field, memory, message", REFUSALS)
@pytest.mark.parametrize("mode", ["single", "sweep"])
def test_config_refusal_table(
    tmp_path, capsys, monkeypatch, mode, command, cfg, field, memory, message
):
    if memory is not None:
        pages = {"SC_PAGE_SIZE": 4096, "SC_PHYS_PAGES": memory // 4096}
        monkeypatch.setattr(os, "sysconf", pages.__getitem__)
    if mode == "sweep":
        # A valid scenario first: the refusal must come before it writes.
        first = {**DISCRETE, "name": "first", "action": "predict"}
        cfg = {"scenarios": [first, {"action": command, **cfg}]}
        command, field = "sweep", f"scenarios[1].{field}"
    code, out = _run(tmp_path, command, cfg)
    err = capsys.readouterr().err
    assert code == 2, err
    assert f"config error at '{field}'" in err
    if message is not None:
        assert message in err
    assert "Traceback" not in err
    assert not out.exists()


def test_geometric_grid_above_8192_points_parses(monkeypatch):
    # A geometric grid is limited only by the memory its solve needs: 9000
    # points take 1.3 GB, against 4 GiB.
    pages = {"SC_PAGE_SIZE": 4096, "SC_PHYS_PAGES": (4 << 30) // 4096}
    monkeypatch.setattr(os, "sysconf", pages.__getitem__)
    cfg = {
        "kind": "continuous", "spec": {"alpha": 1.0, "b_zero": 1.0}, "action": "spectrum",
        "grids": [{"kind": "geometric", "t_min": 1e-12, "t_max": 1.0, "points": 9000}],
    }
    assert parse_scenario(cfg).grids[0].points == 9000


# ------------------------------------------------------------ config schema


@pytest.mark.parametrize(
    "kind, spec_cls",
    [
        ("discrete", hankelspec.model.DiscreteSymbolSpec),
        ("continuous", hankelspec.model.ContinuousKernelSpec),
        ("symbol", hankelspec.symbols.AsLogSpec),
    ],
)
def test_omitted_fields_take_the_dataclass_defaults(kind, spec_cls):
    scenario = parse_scenario({"kind": kind, "action": "predict", "spec": {"alpha": 1.5}})
    assert scenario.spec == spec_cls(alpha=1.5)
    assert scenario.solver == hankelspec.analysis.SolverParams()


FULL_SCENARIOS = [
    (
        {
            "kind": "discrete",
            "spec": {
                "alpha": 1.5, "b_plus1": 0.75, "b_minus1": -0.25,
                "oscillations": [{"phi": 1.0, "psi": 0.5, "b": -0.5}],
                "perturbation": {"scale": 0.1, "beta": 2.0},
            },
        },
        hankelspec.model.DiscreteSymbolSpec(
            alpha=1.5, b_plus1=0.75, b_minus1=-0.25,
            oscillations=(hankelspec.model.Oscillation(phi=1.0, psi=0.5, b=-0.5),),
            perturbation=hankelspec.model.Perturbation(scale=0.1, beta=2.0),
        ),
    ),
    (
        {
            "kind": "continuous",
            "spec": {
                "alpha": 1.0, "b_zero": 0.5, "b_inf": -0.5,
                "oscillations": [{"rho": 2.0, "psi": 0.25, "b": 0.5}],
                "local_singularities": [],
                "cutoffs": [0.2, 0.4, 1.6, 2.5],
            },
        },
        hankelspec.model.ContinuousKernelSpec(
            alpha=1.0, b_zero=0.5, b_inf=-0.5,
            oscillations=(hankelspec.model.KernelOscillation(rho=2.0, psi=0.25, b=0.5),),
            cutoffs=(0.2, 0.4, 1.6, 2.5),
        ),
    ),
    (
        {
            "kind": "continuous",
            "spec": {"alpha": 1.0, "local_singularities": [{"t0": 2.0, "m": 0, "coeff": -1.5}]},
        },
        hankelspec.model.ContinuousKernelSpec(
            alpha=1.0,
            local_singularities=(hankelspec.model.LocalSingularity(t0=2.0, m=0, coeff=-1.5),),
        ),
    ),
    (
        {
            "kind": "symbol",
            "spec": {
                "alpha": 2.0, "v0_plus": [2.0, [0.0, 1.0]], "v0_minus": [2.0, [0.0, -1.0]],
                "v1_plus": [0.5], "v1_minus": [[0.0, 0.5]], "u0_plus": [0.1], "u0_minus": [0.2],
                "u1_plus": [0.3, 0.1], "u1_minus": [0.4], "cutoffs": [0.2, 0.4],
            },
        },
        hankelspec.symbols.AsLogSpec(
            alpha=2.0, v0_plus=(2.0, 1j), v0_minus=(2.0, -1j), v1_plus=(0.5,),
            v1_minus=(0.5j,), u0_plus=(0.1,), u0_minus=(0.2,), u1_plus=(0.3, 0.1),
            u1_minus=(0.4,), cutoffs=(0.2, 0.4),
        ),
    ),
]
FULL_SOLVER = {"k": 12, "tol": 1e-6, "max_iter": 300, "seed": 7, "basis_cap": 90}
FULL_GRIDS = [
    {"kind": "uniform", "t_min": 1e-9, "t_max": 2.0, "points": 64},
    {"kind": "geometric", "t_min": 1e-6, "t_max": 3.0, "points": 128},
]
# Every top-level field but kind and spec.
FULL_TOP = {
    "name": "full", "action": "predict", "solver": FULL_SOLVER,
    "fit": {"window": [4, 16], "model": "log_corrected"}, "outputs": "full-out",
    "N_list": [64, 128], "grids": FULL_GRIDS, "samples": 4096, "j_window": [8, 64],
    "dump_samples": 16,
}


def _json_fields(obj, cfg: dict) -> set:
    """(class, field) pairs that the JSON object cfg sets on obj, through nested objects."""
    pairs = {(type(obj).__name__, name) for name in cfg}
    for name, value in cfg.items():
        parsed = getattr(obj, name)
        for item, sub in zip(
            value if isinstance(value, list) else [value],
            parsed if isinstance(parsed, tuple) else (parsed,),
        ):
            if isinstance(item, dict):
                pairs |= _json_fields(sub, item)
    return pairs


def test_config_setting_every_field_parses_to_the_dataclasses():
    covered = set()
    for cfg, expected in FULL_SCENARIOS:
        scenario = parse_scenario({**cfg, **FULL_TOP})
        assert scenario.spec == expected
        covered |= _json_fields(scenario, {**cfg, **FULL_TOP})
    assert scenario.solver == hankelspec.analysis.SolverParams(**FULL_SOLVER)
    assert scenario.fit == hankelspec.analysis.FitParams((4, 16), "log_corrected")
    assert scenario.grids == tuple(hankelspec.quadrature.GridSpec(**g) for g in FULL_GRIDS)
    assert (scenario.N_list, scenario.j_window) == ((64, 128), (8, 64))
    classes = [
        hankelspec.cli.Scenario,
        hankelspec.model.DiscreteSymbolSpec, hankelspec.model.Oscillation,
        hankelspec.model.Perturbation, hankelspec.model.ContinuousKernelSpec,
        hankelspec.model.KernelOscillation, hankelspec.model.LocalSingularity,
        hankelspec.symbols.AsLogSpec, hankelspec.analysis.SolverParams,
        hankelspec.analysis.FitParams, hankelspec.quadrature.GridSpec,
    ]
    assert covered == {(cls.__name__, f.name) for cls in classes for f in dataclasses.fields(cls)}


# -------------------------------------------------------------------- sweep


def test_sweep_runs_all_scenarios(tmp_path, capsys):
    cfg = {
        "scenarios": [
            {
                "name": "one",
                "kind": "discrete",
                "action": "predict",
                "spec": {"alpha": 1.0, "b_plus1": 1.0},
            },
            {
                "name": "two",
                "kind": "symbol",
                "action": "predict",
                "spec": {"alpha": 2.0},
            },
        ]
    }
    code, out = _run(tmp_path, "sweep", cfg)
    assert code == 0
    assert (out / "one" / "prediction.json").exists()
    assert (out / "two" / "prediction.json").exists()
    stdout = capsys.readouterr().out
    assert "one: ok" in stdout
    assert "two: ok" in stdout


DISCRETE_PREDICT = {
    "name": "d", "kind": "discrete", "action": "predict",
    "spec": {"alpha": 1.0, "b_plus1": 1.0},
}


def test_negative_config_seed_names_field(tmp_path, capsys):
    cfg = {**DISCRETE_PREDICT, "solver": {"seed": -1}}
    code, out = _run(tmp_path, "predict", cfg)
    assert code == 2
    assert "config error at 'solver.seed'" in capsys.readouterr().err
    assert not out.exists()


def test_negative_seed_flag_names_scenario_field(tmp_path, capsys):
    cfg = {"scenarios": [DISCRETE_PREDICT]}
    code, out = _run(tmp_path, "sweep", cfg, extra=["--seed", "-1"])
    assert code == 2
    assert "config error at 'scenarios[0].solver.seed'" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("threads", ["0", "-2"])
def test_threads_below_one_rejected(tmp_path, capsys, threads):
    cfg = {"scenarios": [DISCRETE_PREDICT]}
    code, out = _run(tmp_path, "sweep", cfg, extra=["--threads", threads])
    assert code == 2
    assert "config error at '--threads'" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["predict", "sweep"])
@pytest.mark.parametrize("cfg", [[1], "x"])
def test_config_that_is_not_an_object_names_config(tmp_path, capsys, command, cfg):
    code, out = _run(tmp_path, command, cfg)
    assert code == 2
    assert "config error at '<config>': expected a JSON object" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("solver", [[1], [[1, 2]]])
@pytest.mark.parametrize("extra", [(), ("--seed", "1")])
def test_seed_flag_does_not_repair_a_bad_solver(tmp_path, capsys, solver, extra):
    # [[1, 2]] would pass through dict() if the seed were merged into the raw
    # config before validation.
    cfg = {**DISCRETE_PREDICT, "solver": solver}
    code, out = _run(tmp_path, "predict", cfg, extra=extra)
    assert code == 2
    assert "config error at 'solver': expected an object" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("extra", [(), ("--seed", "1")])
def test_non_object_sweep_entry_names_scenario(tmp_path, capsys, extra):
    code, out = _run(tmp_path, "sweep", {"scenarios": [1]}, extra=extra)
    assert code == 2
    assert "config error at 'scenarios[0]': expected an object" in capsys.readouterr().err
    assert not out.exists()


def test_seed_override_replaces_only_the_seed():
    cfg = {**DISCRETE_PREDICT, "solver": {"seed": 4, "k": 8}}
    assert parse_scenario(cfg, "scenarios[0]").solver.seed == 4
    overridden = parse_scenario(cfg, "scenarios[0]", 9).solver
    assert (overridden.seed, overridden.k) == (9, 8)
    assert cfg["solver"] == {"seed": 4, "k": 8}


def test_unwritable_output_name_exits_2(tmp_path, capsys):
    cfg = {**DISCRETE_PREDICT, "name": "n" * 300}
    code, _ = _run(tmp_path, "predict", cfg)
    assert code == 2
    assert "cannot write reports" in capsys.readouterr().err


def test_sweep_needs_scenarios(tmp_path, capsys):
    code, _ = _run(tmp_path, "sweep", {"name": "x"})
    assert code == 2
    assert "scenario list" in capsys.readouterr().err


def test_sweep_reports_offending_scenario(tmp_path, capsys):
    cfg = {
        "scenarios": [
            {
                "name": "fine",
                "kind": "discrete",
                "action": "predict",
                "spec": {"alpha": 1.0, "b_plus1": 1.0},
            },
            {"name": "broken", "kind": "discrete", "action": "predict", "spec": {}},
        ]
    }
    code, _ = _run(tmp_path, "sweep", cfg)
    assert code == 2
    assert "scenarios[1].spec.alpha" in capsys.readouterr().err


@pytest.mark.parametrize(
    "bad, field",
    [
        ({"kind": "discrete", "N_list": [128, 64]}, "N_list"),
        ({"kind": "discrete", "N_list": [128, 128]}, "N_list"),
        ({"kind": "continuous", "grids": [{"kind": "uniform", "t_max": 1.0, "points": 64}]}, "grids"),
    ],
    ids=["decreasing-orders", "repeated-order", "one-grid"],
)
def test_sweep_refuses_an_unrunnable_verify_before_writing(tmp_path, capsys, bad, field):
    b1 = {"alpha": 1.0, "b_plus1": 1.0}
    triangle = {"alpha": 1.0, "local_singularities": [{"t0": 1.0, "m": 0, "coeff": 1.0}]}
    spec = b1 if bad["kind"] == "discrete" else triangle
    cfg = {
        "scenarios": [
            {"name": "a", "kind": "discrete", "action": "predict", "spec": b1},
            {"name": "b", "kind": "discrete", "action": "verify", "spec": b1, "N_list": [64, 128]},
            {"name": "c", "action": "verify", "spec": spec, **bad},
        ]
    }
    code, out = _run(tmp_path, "sweep", cfg)
    assert code == 2
    assert f"config error at 'scenarios[2].{field}'" in capsys.readouterr().err
    assert not out.exists()


def test_sweep_rejects_shared_output_directory(tmp_path, capsys):
    one = {"kind": "discrete", "action": "predict", "spec": {"alpha": 1.0, "b_plus1": 1.0}}
    cfg = {
        "scenarios": [
            {**one, "name": "a", "outputs": "shared"},
            {**one, "name": "b", "outputs": "./shared/"},
        ]
    }
    code, out = _run(tmp_path, "sweep", cfg)
    assert code == 2
    assert "'scenarios[1].outputs'" in capsys.readouterr().err
    assert not out.exists()


def test_sweep_rejects_duplicate_names_without_outputs(tmp_path, capsys):
    one = {"name": "same", "kind": "discrete", "action": "predict",
           "spec": {"alpha": 1.0, "b_plus1": 1.0}}
    code, _ = _run(tmp_path, "sweep", {"scenarios": [one, dict(one)]})
    assert code == 2
    assert "'scenarios[1].outputs'" in capsys.readouterr().err


@pytest.mark.parametrize("outputs", ["../x", "a/../../x", "<abs>"])
def test_outputs_outside_out_rejected(tmp_path, capsys, outputs):
    root = tmp_path / "root"
    root.mkdir()
    if outputs == "<abs>":
        outputs = str(root / "abs")
    cfg = {"name": "p", "kind": "discrete", "outputs": outputs,
           "spec": {"alpha": 1.0, "b_plus1": 1.0}}
    code, _ = _run(root, "predict", cfg)
    assert code == 2
    assert "config error at 'outputs'" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.rglob("*")) == ["config.json", "root"]


def test_sweep_outputs_outside_out_names_scenario(tmp_path, capsys):
    cfg = {"scenarios": [{"name": "p", "kind": "discrete", "action": "predict",
                          "outputs": "../x", "spec": {"alpha": 1.0}}]}
    code, _ = _run(tmp_path, "sweep", cfg)
    assert code == 2
    assert "'scenarios[0].outputs'" in capsys.readouterr().err


# ------------------------------------------------------------------- symbol


def test_symbol_run_outputs(tmp_path):
    cfg = {
        "name": "aslog",
        "kind": "symbol",
        "spec": {"alpha": 2.0},
        "samples": 8192,
        "j_window": [64, 512],
        "dump_samples": 256,
    }
    code, out = _run(tmp_path, "symbol", cfg)
    assert code == 0
    doc = json.loads((out / "aslog" / "fourier.json").read_text())
    assert doc["b"] == [-0.5, 0.0]
    assert doc["symmetric"] is True
    assert 0.0 < doc["ratio_median"] < 2.0
    assert doc["ratio_min"] <= doc["ratio_median"] <= doc["ratio_max"]
    csv = (out / "aslog" / "symbol.csv").read_text().splitlines()
    assert csv[0].startswith("# hankelspec")
    assert csv[1] == "theta,re,im"
    # stride 8192/256 = 32 keeps the dump small
    assert len(csv) == 2 + 256


def test_symbol_memory_check_counts_the_dumped_rows(monkeypatch):
    # The check must count at least the traced peak of the run: with physical
    # memory at that peak, the config is refused at dump_samples.
    import tracemalloc

    from hankelspec import cli

    cfg = {
        "kind": "symbol", "action": "symbol", "samples": 2**18, "dump_samples": 2**18,
        "spec": {"alpha": 2.0, "v0_plus": [1.0, [0.5, -0.25]], "cutoffs": [0.001, 0.999]},
        "j_window": [8, 512],
    }
    cli._run_symbol(parse_scenario({**cfg, "samples": 64, "j_window": [2, 8]}))  # numpy's first use
    scenario = parse_scenario(cfg)
    tracemalloc.start()
    try:
        cli._run_symbol(scenario)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # The rows, not the samples, hold most of the peak.  sample_bytes counts
    # a fixed transient of 8 MiB, so it takes 2^18 rows to outweigh it.
    assert peak > 2 * hankelspec.symbols.sample_bytes(2**18, 512)
    pages = {"SC_PAGE_SIZE": 4096, "SC_PHYS_PAGES": peak // 4096}
    monkeypatch.setattr(os, "sysconf", pages.__getitem__)
    with pytest.raises(hankelspec.model.FieldError) as exc:
        parse_scenario(cfg)
    assert exc.value.field == "dump_samples"


def test_symbol_rejects_bad_sample_count(tmp_path, capsys):
    cfg = {"name": "x", "kind": "symbol", "spec": {"alpha": 2.0}, "samples": 1000}
    code, _ = _run(tmp_path, "symbol", cfg)
    assert code == 2
    assert "power of two" in capsys.readouterr().err


# ------------------------------------------------------------- determinism


def test_rerun_is_byte_identical(tmp_path):
    # Iterative route at N=4096 with the same seed: every output file must
    # reproduce byte for byte.
    cfg = {
        "name": "det",
        "kind": "discrete",
        "spec": {"alpha": 1.0, "b_plus1": 1.0},
        "N_list": [4096],
        "solver": {"k": 8, "tol": 1e-8},
        "fit": {"window": [1, 4]},
    }
    cfg_path = _write_config(tmp_path / "config.json", cfg)
    outs = []
    for sub in ("a", "b"):
        out = tmp_path / sub
        assert main(["spectrum", "--config", cfg_path, "--out", str(out)]) == 0
        outs.append(out)
    files = sorted(p.relative_to(outs[0]) for p in outs[0].rglob("*") if p.is_file())
    assert files
    for rel in files:
        assert (outs[0] / rel).read_bytes() == (outs[1] / rel).read_bytes(), rel


def _reference_to_json(obj, indent=0):
    """The report serializer with one recursive dispatch per value, as reference."""
    import math

    import numpy as np

    def f(x):
        return "null" if not math.isfinite(x) else format(float(x), ".17g")

    pad = "  " * indent
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        rows = [f'{pad}  "{k}": {_reference_to_json(v, indent + 1)}' for k, v in obj.items()]
        return "{\n" + ",\n".join(rows) + f"\n{pad}}}"
    if isinstance(obj, (list, tuple)):
        seq = list(obj)
        if not seq:
            return "[]"
        if all(not isinstance(v, (dict, list, tuple)) for v in seq):
            return "[" + ", ".join(_reference_to_json(v) for v in seq) + "]"
        rows = [f"{pad}  {_reference_to_json(v, indent + 1)}" for v in seq]
        return "[\n" + ",\n".join(rows) + f"\n{pad}]"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if obj is None:
        return "null"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return f(float(obj))
    if isinstance(obj, complex):
        return f"[{f(obj.real)}, {f(obj.imag)}]"
    if isinstance(obj, str):
        return '"' + obj.replace("\\", "\\\\").replace('"', '\\"') + '"'
    raise TypeError(f"cannot serialize {type(obj)}")


def test_report_serializer_matches_the_reference_byte_for_byte():
    import numpy as np

    from hankelspec import cli

    nan, inf = float("nan"), float("inf")
    rows = np.random.default_rng(0).standard_normal((50, 4)).tolist()
    for i, row in enumerate(rows):
        row[0] = i + 2
    doc = {
        "per_n": rows,
        "flat": [1, -0.0, 0.1, 1e300, 5e-324, 10**20, True, False, None, nan, inf, -inf],
        "numpy": [np.float64(0.1), np.float32(0.1), np.int64(-7), np.float64(nan)],
        "complex": [complex(1.5, -nan), 2j],
        "mixed": [1.0, [2.0, (3, None)], {"k": False}, "s"],
        "nested": {"empty_dict": {}, "empty_list": [], "tuple": (0.5, 2), "deep": [[[1.0]]]},
        "scalars": {"b": True, "n": None, "i": 3, "x": nan, "s": 'q"uo\\te', "c": 1 + 2j},
        "rows_of_complex": [[1j, 2.0], [np.int32(4), np.float16(0.5)]],
    }
    assert cli._to_json(doc) == _reference_to_json(doc)
    for value in doc.values():
        assert cli._to_json(value, 1) == _reference_to_json(value, 1)


# --------------------------------------------------------------- entrypoint


def test_module_entrypoint_propagates_exit_code(tmp_path):
    proc = subprocess.run(
        [
            sys.executable,
            "-m",
            "hankelspec.cli",
            "predict",
            "--config",
            str(tmp_path / "missing.json"),
        ],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 2
    assert "cannot read" in proc.stderr


NO_MASKED_ARRAYS_SCRIPT = """
import sys
from hankelspec import cli
code = cli.main(["spectrum", "--config", sys.argv[1], "--out", sys.argv[2]])
print(code, "numpy.ma" in sys.modules)
"""


def test_spectrum_run_does_not_import_numpy_ma(tmp_path):
    # np.median imports numpy.ma on its first call, 20-40 ms of every run;
    # the fit and the reports take their medians without it.
    cfg = {
        "name": "gq",
        "kind": "continuous",
        "spec": {"alpha": 1.0, "b_zero": 1.0},
        "grids": [{"kind": "geometric", "t_min": 1e-10, "t_max": 1.0, "points": 512}],
        "fit": {"window": [1, 4]},
    }
    cfg_path = _write_config(tmp_path / "config.json", cfg)
    src = str(Path(hankelspec.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", NO_MASKED_ARRAYS_SCRIPT, cfg_path, str(tmp_path / "out")],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path}, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split()[-2:] == ["0", "False"]


def test_cli_import_does_not_load_the_thread_pool():
    # concurrent.futures costs about 8 ms at every CLI start; only the
    # geometric build, which runs on its thread pool, imports it.
    src = str(Path(hankelspec.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, hankelspec.cli; print('concurrent.futures' in sys.modules)"],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path}, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False"]


def _env_without_thread_timeout() -> dict:
    # Built from scratch: once this process has imported hankelspec.cli, its
    # own environment holds OPENBLAS_THREAD_TIMEOUT, and a child would
    # inherit it.
    src = str(Path(hankelspec.__file__).resolve().parents[1])
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_THREAD_TIMEOUT"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return env


LIBRARY_IMPORT_SCRIPT = """
import os, sys
import hankelspec
print("numpy" in sys.modules)
print(hankelspec.eigensolve.__name__)
for name in hankelspec.__all__:
    getattr(hankelspec, name)
print(os.environ.get("OPENBLAS_THREAD_TIMEOUT"))
"""


def test_package_import_loads_no_numpy_and_library_sets_no_blas_policy():
    # The submodules load on first access, so that hankelspec.cli's first
    # line runs before numpy loads; the library itself sets nothing.
    proc = subprocess.run(
        [sys.executable, "-c", LIBRARY_IMPORT_SCRIPT],
        capture_output=True, text=True, env=_env_without_thread_timeout(), timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False", "hankelspec.eigensolve", "None"]


THREAD_TIMEOUT_AT_NUMPY_SCRIPT = """
import os, sys

class RecordAtNumpy:
    seen = []

    def find_spec(self, name, path=None, target=None):
        if name == "numpy" and not self.seen:
            self.seen.append(os.environ.get("OPENBLAS_THREAD_TIMEOUT"))
        return None

finder = RecordAtNumpy()
sys.meta_path.insert(0, finder)
import hankelspec.cli
print(finder.seen)
"""


@pytest.mark.parametrize("given, seen", [(None, "4"), ("30", "30")])
def test_cli_sets_the_blas_thread_timeout_before_numpy_loads(given, seen):
    # OpenBLAS reads the variable once, when numpy loads it; a value the
    # caller set is kept.
    env = _env_without_thread_timeout()
    if given is not None:
        env["OPENBLAS_THREAD_TIMEOUT"] = given
    proc = subprocess.run(
        [sys.executable, "-c", THREAD_TIMEOUT_AT_NUMPY_SCRIPT],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == repr([seen])


FFT_FAULTS_SCRIPT = """
import resource
import numpy as np
from hankelspec import cli
from hankelspec.hankel_core import HankelTruncation, matvec

cli._keep_scratch_on_heap()
N = 2**18
H = HankelTruncation(N, 1.0 / (np.arange(2 * N - 1) + 1.0))
workspace, out = H.workspace(), np.empty(N)
u = np.random.default_rng(0).standard_normal(N)
for _ in range(3):
    matvec(H, u, out=out, workspace=workspace)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for _ in range(20):
    matvec(H, u, out=out, workspace=workspace)
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


@pytest.mark.skipif(
    sys.platform != "linux" or platform.libc_ver()[0] != "glibc",
    reason="the allocator thresholds are a glibc setting",
)
def test_fft_scratch_is_reused_without_page_faults():
    # numpy's FFT frees an 8 MiB scratch buffer after every transform at
    # N = 2^18; with the thresholds the CLI sets, the next transform reuses
    # it from the heap instead of faulting in freshly mapped pages (about
    # 4000 faults per matvec otherwise).
    src = str(Path(hankelspec.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    proc = subprocess.run(
        [sys.executable, "-c", FFT_FAULTS_SCRIPT],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout) < 1000


def _fake_libc(calls, names):
    """A C library with the entry points names, each recording its calls."""
    def entry(name):
        def call(*args):
            calls.append((name, *args))
            return 0
        return call
    return types.SimpleNamespace(**{name: entry(name) for name in names})


@pytest.mark.parametrize(
    "names, trimmed",
    [(("mallopt", "malloc_trim"), True), (("mallopt",), False), ((), False)],
    ids=["glibc", "no-malloc-trim", "no-mallopt"],
)
def test_freed_heap_is_trimmed_after_each_scenario(tmp_path, monkeypatch, names, trimmed):
    # The heap one scenario freed goes back to the system before the next
    # one runs; a C library without the call runs the same sweep untrimmed.
    calls = []
    monkeypatch.setattr(ctypes, "CDLL", lambda name: _fake_libc(calls, names))
    run_scenario = cli.run_scenario

    def spy(scenario, out_root):
        calls.append(("run", scenario.name))
        return run_scenario(scenario, out_root)

    monkeypatch.setattr(cli, "run_scenario", spy)
    cfg = {"scenarios": [{**DISCRETE_PREDICT, "name": name} for name in ("a", "b", "c")]}
    code, out = _run(tmp_path, "sweep", cfg)
    assert code == 0
    runs = [[("run", name)] + [("malloc_trim", 0)] * trimmed for name in ("a", "b", "c")]
    assert [c for c in calls if c[0] != "mallopt"] == sum(runs, [])
    assert sum(c[0] == "mallopt" for c in calls) == 3 * ("mallopt" in names)
    assert all((out / name / "prediction.json").exists() for name in ("a", "b", "c"))
