"""Traced run: spans around the calls into each hankelspec module.

Run as a script, it imports hankelspec, wraps the public functions of every
layer (plus the CLI's config parsing and report writing), calls
hankelspec.cli.main on the main thread with the CLI arguments it was given,
and writes the recorded spans as JSON when main returns:

    python3 benchmarks/spans.py --spans SPANS.json -- spectrum --config C --out D

main must run on the main thread: a worker thread gets another glibc malloc
arena, which changes the cost of the large FFT scratch arrays and so would
time a different program.

Imported as a module (no hankelspec import), layer_metrics() reduces a span
list to the per-layer metrics the benchmark reports.
"""

from __future__ import annotations

import argparse
import functools
import inspect
import itertools
import json
import resource
import sys
import threading
import time
import tracemalloc
from pathlib import Path

LAYERS = ("cli", "sequences", "hankel_core", "eigensolve", "quadrature", "analysis", "symbols")
# Private CLI steps that carry the cli.parse_* and cli.report_* metrics.
CLI_PARSE = ("_load_config", "Scenario")
CLI_REPORT = ("_write", "_spectrum_csv", "_fit_json", "_prediction_json")


class Recorder:
    """In-memory span list; each thread keeps its own stack of open spans."""

    def __init__(self):
        self.spans = []
        self.ids = itertools.count()  # next() is atomic, so sweep threads never share an id
        self.local = threading.local()
        self.t0 = time.perf_counter()

    def wrap(self, name: str, fn):
        @functools.wraps(fn, updated=())
        def span(*args, **kwargs):
            stack = self.local.__dict__.setdefault("stack", [])
            cur, peak = tracemalloc.get_traced_memory()
            if stack:
                stack[-1]["peak"] = max(stack[-1]["peak"], peak)
            tracemalloc.reset_peak()
            rec = {
                "id": next(self.ids),
                "name": name,
                "parent": stack[-1]["rec"]["id"] if stack else None,
                "thread": threading.get_ident(),
            }
            self.spans.append(rec)
            frame = {"rec": rec, "peak": cur}
            stack.append(frame)
            flt = resource.getrusage(resource.RUSAGE_THREAD).ru_minflt
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                rec["minflt"] = resource.getrusage(resource.RUSAGE_THREAD).ru_minflt - flt
                peak_all = max(frame["peak"], tracemalloc.get_traced_memory()[1])
                rec["start"], rec["end"] = start - self.t0, end - self.t0
                rec["alloc_peak"] = peak_all - cur
                stack.pop()
                if stack:
                    stack[-1]["peak"] = max(stack[-1]["peak"], peak_all)
            _annotate(rec, name, args, result)
            return result

        return span


def _annotate(rec: dict, name: str, args, result) -> None:
    """Counts taken at the boundary: points evaluated, bytes written, solver details."""
    if name == "sequences.eval_kernel_many":
        rec["points"] = int(getattr(args[1], "size", 1))
    elif name == "cli._write":
        rec["bytes"] = len(args[1].encode())
    elif name == "eigensolve.lanczos_extremes":
        d = result.details
        rec.update(
            applies=d["applies"],
            restarts=d["restarts"],
            basis_final=d["basis_final"],
            converged=len(result.lambda_plus) + len(result.lambda_minus),
        )


def install(recorder: Recorder) -> None:
    """Replace every public layer function, wherever a hankelspec module bound it."""
    import importlib

    modules = {layer: importlib.import_module(f"hankelspec.{layer}") for layer in LAYERS}
    wrapped = {}
    for layer, mod in modules.items():
        names = list(mod.__all__) + (list(CLI_PARSE + CLI_REPORT) if layer == "cli" else [])
        for name in names:
            fn = getattr(mod, name)
            public_fn = inspect.isfunction(fn) and fn.__module__ == mod.__name__
            if public_fn or (layer == "cli" and name in CLI_PARSE + CLI_REPORT):
                wrapped[id(fn)] = recorder.wrap(f"{layer}.{name}", fn)
    for mod in [m for key, m in sys.modules.items() if key.startswith("hankelspec")]:
        for name, value in list(vars(mod).items()):
            if id(value) in wrapped:
                setattr(mod, name, wrapped[id(value)])
    # The FFT image of the entries is computed when a truncation is built.
    cls = modules["hankel_core"].HankelTruncation
    cls.__post_init__ = recorder.wrap("hankel_core.HankelTruncation", cls.__post_init__)


# ------------------------------------------------------------ reduction


def _children(spans):
    kids = {}
    for s in spans:
        kids.setdefault(s["parent"], []).append(s)
    return kids


def _dur(s) -> float:
    return s["end"] - s["start"]


def _outermost(spans, names) -> list:
    """Spans named in `names` with no ancestor named in `names` (no double counting)."""
    by_id = {s["id"]: s for s in spans}
    out = []
    for s in spans:
        if s["name"] not in names:
            continue
        p = s["parent"]
        while p is not None and by_id[p]["name"] not in names:
            p = by_id[p]["parent"]
        if p is None:
            out.append(s)
    return out


def layer_metrics(spans: list) -> dict:
    """Per-layer metrics of one traced run, keyed <module>.<metric>."""

    def named(*names):
        return [s for s in spans if s["name"] in names]

    def total(group):
        return sum(_dur(s) for s in group)

    kids = _children(spans)
    matvecs = named("hankel_core.matvec")
    lanczos = named("eigensolve.lanczos_extremes")
    applies_seen = sum(
        1 for s in lanczos for c in kids.get(s["id"], []) if c["name"] == "hankel_core.matvec"
    )
    lanczos_applies = sum(s["applies"] for s in lanczos)
    kernel = _outermost(spans, {"sequences.eval_kernel_many", "sequences.eval_kernel"})
    q_build = _outermost(
        spans, {"quadrature.build_uniform", "quadrature.build_graded", "quadrature.build_from_grid"}
    )
    mib = 2.0**20
    return {
        "cli.parse_s": total(_outermost(spans, {f"cli.{n}" for n in CLI_PARSE})),
        "cli.report_s": total(_outermost(spans, {f"cli.{n}" for n in CLI_REPORT})),
        "cli.report_bytes": sum(s["bytes"] for s in named("cli._write")),
        "cli.scenarios": len(named("cli.run_scenario")),
        "sequences.eval_discrete_s": total(
            _outermost(spans, {"sequences.eval_discrete_many", "sequences.eval_discrete"})
        ),
        "sequences.eval_kernel_s": total(kernel),
        "sequences.eval_kernel_points": sum(s.get("points", 1) for s in kernel),
        "hankel_core.build_s": total(
            _outermost(spans, {"hankel_core.build_discrete", "hankel_core.HankelTruncation"})
        ),
        "hankel_core.matvec_calls": len(matvecs),
        "hankel_core.matvec_s": total(matvecs),
        "hankel_core.matvec_ms": 1e3 * total(matvecs) / len(matvecs) if matvecs else 0.0,
        "hankel_core.matvec_minflt": (
            sum(s["minflt"] for s in matvecs) / len(matvecs) if matvecs else 0.0
        ),
        "hankel_core.dense_matrix_s": total(named("hankel_core.dense_matrix")),
        "eigensolve.lanczos_s": total(lanczos),
        "eigensolve.lanczos_self_s": sum(
            _dur(s) - sum(_dur(c) for c in kids.get(s["id"], [])) for s in lanczos
        ),
        "eigensolve.lanczos_applies": lanczos_applies,
        "eigensolve.norm_applies": applies_seen - lanczos_applies,
        "eigensolve.restarts": sum(s["restarts"] for s in lanczos),
        "eigensolve.basis_final": max((s["basis_final"] for s in lanczos), default=0),
        "eigensolve.converged_per_apply": (
            sum(s["converged"] for s in lanczos) / applies_seen if applies_seen else 0.0
        ),
        "eigensolve.dense_s": total(named("eigensolve.dense_spectrum")),
        "eigensolve.peak_alloc_mb": max(
            (s["alloc_peak"] / mib for s in named("eigensolve.dense_spectrum", "eigensolve.lanczos_extremes")),
            default=0.0,
        ),
        "quadrature.build_s": total(q_build),
        "quadrature.peak_alloc_mb": max((s["alloc_peak"] / mib for s in q_build), default=0.0),
        "quadrature.convergence_report_s": total(named("quadrature.convergence_report")),
        "analysis.solves": len(named("analysis.discrete_spectrum")),
        "analysis.solve_s": total(named("analysis.discrete_spectrum")),
        "analysis.truncation_study_s": total(named("analysis.truncation_study")),
        "analysis.fit_s": total(named("analysis.fit_coefficient")),
        "symbols.sample_s": total(named("symbols.sample_aslog")),
        "symbols.fft_s": total(named("symbols.fourier_coefficients")),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--spans", required=True, help="where to write the span list (JSON)")
    parser.add_argument("cli_args", nargs=argparse.REMAINDER, help="arguments after --")
    args = parser.parse_args()
    cli_args = args.cli_args[1:] if args.cli_args[:1] == ["--"] else args.cli_args

    recorder = Recorder()
    install(recorder)
    from hankelspec import cli

    tracemalloc.start()

    try:
        code = cli.main(cli_args)
    finally:
        tracemalloc.stop()
        Path(args.spans).write_text(json.dumps(recorder.spans))
    return code


if __name__ == "__main__":
    sys.exit(main())
