"""Property tests of the config boundary: any JSON gives exit 0 or 2, never a traceback.

Only `predict` runs here, alone or as the actions of a sweep.  It parses
and validates the whole scenario and writes two small files, but it never
starts a solver, so arbitrary sizes in the config stay cheap.  The parser
test also starts from valid `spectrum`, `verify` and `symbol` scenarios,
whose rules between fields only those actions check; it parses them and
runs nothing.
"""

import copy
import json
import tempfile
from pathlib import Path

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from hankelspec import cli

# One valid `predict` scenario per spec family, together using every field
# name the scenario parser reads.
VALID = [
    {
        "name": "d", "kind": "discrete", "action": "predict",
        "spec": {
            "alpha": 1.0, "b_plus1": 1.0, "b_minus1": -0.5,
            "oscillations": [{"phi": 1.0, "psi": 0.0, "b": 0.5}],
            "perturbation": {"scale": 0.1, "beta": 1.0},
        },
        "solver": {"k": 8, "tol": 1e-8, "max_iter": 100, "seed": 0, "basis_cap": 50},
        "fit": {"window": [2, 8], "model": "plain"},
        "outputs": "d", "N_list": [64, 128],
    },
    {
        "name": "c", "kind": "continuous", "action": "predict",
        "spec": {
            "alpha": 1.0, "b_zero": 1.0, "b_inf": 0.5,
            "oscillations": [{"rho": 2.0, "psi": 0.0, "b": 0.5}],
            "cutoffs": [0.25, 0.5, 1.5, 2.0],
        },
        "grids": [
            {"kind": "uniform", "t_max": 1.0, "points": 64},
            {"kind": "geometric", "t_min": 1e-8, "t_max": 1.0, "points": 64},
        ],
        "fit": {"window": [2, 4], "model": "log_corrected"},
    },
    {
        "name": "t", "kind": "continuous", "action": "predict",
        "spec": {"alpha": 1.0, "local_singularities": [{"t0": 1.0, "m": 0, "coeff": 1.0}]},
    },
    {
        "name": "s", "kind": "symbol", "action": "predict",
        "spec": {
            "alpha": 2.0, "v0_plus": [1.0, [0.0, 1.0]], "v0_minus": [1.0, [0.0, -1.0]],
            "v1_plus": [0.5], "v1_minus": [0.0], "u0_plus": [0.1], "u0_minus": [0.0],
            "u1_plus": [0.0], "u1_minus": [0.0], "cutoffs": [0.25, 0.5],
        },
        "samples": 4096, "j_window": [8, 64], "dump_samples": 16,
    },
]
# One valid scenario of each other action, for the parser test alone.
RUNS = [
    {
        "name": "ds", "kind": "discrete", "action": "spectrum",
        "spec": {"alpha": 1.0, "b_plus1": 1.0, "oscillations": [{"phi": 1.0, "psi": 0.0, "b": 0.5}]},
        "N_list": [256], "fit": {"window": [2, 8], "model": "log_corrected"},
    },
    {
        "name": "dv", "kind": "discrete", "action": "verify",
        "spec": {"alpha": 1.0, "b_minus1": 1.0}, "N_list": [64, 128, 256],
        "fit": {"window": [2, 8], "model": "plain"},
    },
    {
        "name": "cv", "kind": "continuous", "action": "verify",
        "spec": {"alpha": 1.0, "local_singularities": [{"t0": 1.0, "m": 0, "coeff": 1.0}]},
        "grids": [
            {"kind": "uniform", "t_max": 1.0, "points": 64},
            {"kind": "uniform", "t_max": 1.0, "points": 128},
        ],
        "solver": {"k": 8, "tol": 1e-8, "max_iter": 100, "seed": 0, "basis_cap": 50},
        "fit": {"window": [1, 4], "model": "plain"},
    },
    {
        "name": "sy", "kind": "symbol", "action": "symbol",
        "spec": {"alpha": 2.0, "v0_plus": [1.0], "v0_minus": [1.0], "cutoffs": [0.25, 0.5]},
        "samples": 4096, "j_window": [8, 64], "dump_samples": 16,
    },
]
WORDS = ["discrete", "continuous", "symbol", "predict", "spectrum", "verify",
         "uniform", "geometric", "plain", "log_corrected", "", ".", "..", "a/b"]

ANY_JSON = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats()  # NaN and infinities reach the parser as NaN / Infinity
    | st.text(max_size=12)
    | st.sampled_from(WORDS),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=8), inner, max_size=4),
    max_leaves=12,
)


def _slots(node) -> list:
    """Every (container, key) pair in a JSON tree."""
    if isinstance(node, dict):
        items = list(node.items())
    elif isinstance(node, list):
        items = list(enumerate(node))
    else:
        return []
    out = []
    for key, value in items:
        out.append((node, key))
        out.extend(_slots(value))
    return out


@st.composite
def near_valid(draw, seeds=VALID):
    """One of the valid seeds with one to three values replaced by arbitrary JSON or deleted."""
    cfg = copy.deepcopy(draw(st.sampled_from(seeds)))
    for _ in range(draw(st.integers(1, 3))):
        slots = _slots(cfg)
        if not slots:
            break
        container, key = draw(st.sampled_from(slots))
        if isinstance(container, dict) and draw(st.booleans()):
            del container[key]
        else:
            container[key] = draw(ANY_JSON)
    return cfg


# No example database: the tests write nothing outside their temporary directory.
FUZZ = settings(
    max_examples=150,
    deadline=None,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def _predict_exit_code(cfg) -> int:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "config.json"
        path.write_text(json.dumps(cfg))
        return cli.main(["predict", "--config", str(path), "--out", str(Path(tmp) / "out")])


def test_valid_scenarios_predict():
    assert [_predict_exit_code(cfg) for cfg in VALID] == [0] * len(VALID)


@FUZZ
@given(cfg=ANY_JSON)
def test_predict_on_any_json_exits_0_or_2(cfg):
    assert _predict_exit_code(cfg) in (0, 2)


@FUZZ
@given(cfg=near_valid())
def test_predict_on_near_valid_scenarios_exits_0_or_2(cfg):
    assert _predict_exit_code(cfg) in (0, 2)


@FUZZ
@given(second=near_valid())
# A local singularity off alpha = m + 1, which parses but cannot be predicted.
@example(second={**VALID[2], "spec": {**VALID[2]["spec"], "alpha": 2.0}})
def test_sweep_refuses_before_it_writes(second):
    # A valid scenario first: a refusal of the second must leave --out empty.
    first = {**VALID[0], "name": "first", "outputs": "first"}
    cfg = {"scenarios": [first, {**second, "action": "predict"}]}
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "config.json"
        path.write_text(json.dumps(cfg))
        out = Path(tmp) / "out"
        code = cli.main(["sweep", "--config", str(path), "--out", str(out)])
        assert code in (0, 2)
        assert code == 0 or not out.exists()


def test_valid_run_scenarios_parse():
    for cfg in RUNS:
        assert cli.parse_scenario(cfg).action == cfg["action"]


@FUZZ
@given(cfg=ANY_JSON | near_valid(VALID + RUNS))
def test_scenario_parser_returns_or_raises_config_error(cfg):
    try:
        cli.parse_scenario(cfg, "scenarios[0]")
    except cli.ConfigError as exc:
        assert exc.field.startswith("scenarios[0]")
