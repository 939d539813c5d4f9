"""End-to-end benchmark of the hankelspec CLI, with independent output checks.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 benchmarks/run.py --workload all --seed N --seconds S --trace 0|1

Runs the workload's CLI invocation in a closed loop, one process at a time,
for about S seconds (whole invocations only, at least one), from the root of
a source checkout: the CLI is imported from ./src, nothing is installed.
Every invocation's report files are checked against the closed forms in
oracles.py.  The seed reaches the CLI as --seed.

--trace 0 reports the end-to-end metrics (medians over the invocations):
wall_s, cpu_s and peak_rss_mb of the CLI process, and setup_s, the time from
process launch until hankelspec.cli is imported, over separate launches.
--trace 1 alternates an untraced invocation with a traced one (spans.py) and
reports the per-layer metrics plus trace.overhead_s.

The last line of standard output is one JSON object: correct, attempted,
failed and metrics.  The line before it records the environment.  With
--workload all, each workload runs in its own process, and one line per
workload gives its name and that JSON object.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import oracles
import spans
from scenarios import WORKLOADS, scenarios_of

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
LAUNCH = "import sys; from hankelspec.cli import main; sys.exit(main())"
SETUP_PROBE = (
    "import sys, time; from hankelspec import cli; "
    "sys.stdout.write(repr(time.monotonic()) + ' ' + cli.__file__)"
)
SETUP_LAUNCHES = 9
# A run must end within 180 s; stop launching work well before that.
RUN_DEADLINE_S = 170.0


class BenchError(RuntimeError):
    """The benchmark cannot run here (no source tree, CLI will not start)."""


def metric_units(traced: bool) -> dict:
    """Name -> unit of the metrics this mode reports, as BENCHMARK.json lists them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if traced else "end_to_end"]}


def cli_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def launch(argv, env, log: Path, deadline: float) -> dict:
    """Run one process to its end; wall time, CPU time and peak RSS as the kernel reports them."""
    with open(log, "wb") as fh:
        start = time.monotonic()
        proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdout=fh, stderr=subprocess.STDOUT)
        watchdog = threading.Timer(max(deadline - start, 1.0), proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            watchdog.cancel()
            watchdog.join()
        wall = time.monotonic() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {
        "wall_s": wall,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
        "code": proc.returncode,
    }


def measure_setup(env, deadline: float) -> list:
    """Launch-to-imported times of the CLI module; the first launch only warms caches."""
    times = []
    for i in range(SETUP_LAUNCHES + 1):
        start = time.monotonic()
        done = subprocess.run(
            [sys.executable, "-c", SETUP_PROBE],
            cwd=ROOT,
            env=env,
            capture_output=True,
            text=True,
            timeout=max(deadline - start, 1.0),
        )
        if done.returncode != 0:
            raise BenchError(f"the CLI does not import:\n{done.stderr}")
        stamp, path = done.stdout.split(" ", 1)
        if not Path(path).resolve().is_relative_to(SRC):
            raise BenchError(f"hankelspec imported from {path}, not from {SRC}")
        if i:
            times.append(float(stamp) - start)
    return times


class Runner:
    """One benchmark run: a workload, a seed, a scratch directory and the checks."""

    def __init__(self, workload: str, seed: int, run_dir: Path, deadline: float):
        self.workload = WORKLOADS[workload]
        self.scenarios = scenarios_of(workload)
        self.oracles = [oracles.Oracle(cfg) for cfg in self.scenarios]
        self.seed = seed
        self.run_dir = run_dir
        self.deadline = deadline
        self.env = cli_env()
        self.config = run_dir / "config.json"
        self.config.write_text(json.dumps(self.workload["config"], indent=1))
        self.count = 0
        self.failed_checks = []

    def cli_args(self, out: Path) -> list:
        wl = self.workload
        return [
            wl["command"], "--config", str(self.config), "--out", str(out),
            "--seed", str(self.seed), "--threads", str(wl["threads"]),
        ]

    def operation(self, traced: bool) -> dict:
        """One CLI invocation plus its output checks."""
        self.count += 1
        out = self.run_dir / f"op{self.count}"
        if traced:
            span_file = self.run_dir / f"spans{self.count}.json"
            argv = [sys.executable, str(HERE / "spans.py"), "--spans", str(span_file), "--"]
        else:
            argv = [sys.executable, "-c", LAUNCH]
        rec = launch(argv + self.cli_args(out), self.env, self.run_dir / f"op{self.count}.log", self.deadline)
        rec["failed"] = rec["code"] != 0
        if rec["failed"]:
            log = (self.run_dir / f"op{self.count}.log").read_text(errors="replace")
            print(f"operation {self.count} exited {rec['code']}:\n{log[-2000:]}", file=sys.stderr)
        else:
            rec["checks"] = self.check(out)
            if traced:
                rec["layers"] = spans.layer_metrics(json.loads(span_file.read_text()))
                span_file.unlink()
        shutil.rmtree(out, ignore_errors=True)
        return rec

    def check(self, out: Path) -> list:
        results = []
        for cfg, oracle in zip(self.scenarios, self.oracles):
            try:
                parsed = oracles.read_outputs(cfg, out / cfg["name"])
            except (OSError, ValueError, KeyError, IndexError) as exc:
                results.append(oracles.Check(f"{cfg['name']} outputs readable", False, repr(exc)))
                continue
            results.extend(oracle.check(parsed))
        bad = [c for c in results if not c.ok]
        for c in bad:
            print(f"check failed: {c.name}: {c.detail}", file=sys.stderr)
        self.failed_checks.extend(bad)
        return [{"name": c.name, "ok": bool(c.ok), "detail": c.detail} for c in results]


def closed_loop(step, seconds: float, deadline: float) -> list:
    """Repeat step() while another one fits in the time left; always at least once."""
    records, steps = [], 0
    start = time.monotonic()
    while True:
        records.extend(step())
        steps += 1
        now = time.monotonic()
        if now + (now - start) / steps > min(start + seconds, deadline):
            return records


def environment() -> dict:
    """Machine and library versions, as users run them; nothing here is changed."""
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    env = {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "memory_gib": round(os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") / 2**30, 2),
        "python": platform.python_version(),
    }
    for pkg in ("numpy", "scipy", "mpmath"):
        try:
            env[pkg] = importlib.metadata.version(pkg)
        except importlib.metadata.PackageNotFoundError:
            env[pkg] = None
    env.update(openblas())
    env["thread_env"] = {
        k: v for k, v in os.environ.items()
        if k.startswith(("OPENBLAS", "OMP_", "MKL_", "MALLOC_", "GOTO"))
    }
    return env


def openblas() -> dict:
    """OpenBLAS build string and thread count from the library numpy loads."""
    import numpy

    libdir = Path(numpy.__file__).parent.parent / "numpy.libs"
    for path in glob.glob(str(libdir / "lib*openblas*")):
        lib = ctypes.CDLL(path)
        for prefix, suffix in (("scipy_openblas", "64_"), ("openblas", "64_"), ("openblas", "")):
            config = getattr(lib, f"{prefix}_get_config{suffix}", None)
            threads = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
            if config is not None and threads is not None:
                config.restype = ctypes.c_char_p
                threads.restype = ctypes.c_int
                return {"openblas": config().decode(), "openblas_threads": threads()}
    return {"openblas": None, "openblas_threads": None}


def median(values) -> float:
    return float(statistics.median(values))


def run_all(args) -> int:
    """Every workload in its own benchmark process; one result line per workload."""
    worst = 0
    for name in WORKLOADS:
        argv = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed)]
        argv += ["--seconds", str(args.seconds), "--trace", str(args.trace)]
        done = subprocess.run(argv, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        worst = max(worst, done.returncode)
        lines = done.stdout.strip().splitlines()
        print(f"{name}: {lines[-1] if done.returncode == 0 and lines else f'exit {done.returncode}'}")
    return worst


def main() -> int:
    parser = argparse.ArgumentParser(description="hankelspec CLI benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.workload == "all":
        return run_all(args)
    deadline = time.monotonic() + RUN_DEADLINE_S

    if not (SRC / "hankelspec" / "cli.py").is_file():
        print(f"no hankelspec source tree at {SRC}", file=sys.stderr)
        return 2
    units = metric_units(bool(args.trace))
    run_dir = ROOT / ".bench_run" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    runner = Runner(args.workload, args.seed, run_dir, deadline)

    try:
        if args.trace:
            records = closed_loop(
                lambda: [runner.operation(False), runner.operation(True)], args.seconds, deadline
            )
        else:
            setup = measure_setup(runner.env, deadline)
            records = closed_loop(lambda: [runner.operation(False)], args.seconds, deadline)
    except BenchError as exc:
        print(str(exc), file=sys.stderr)
        return 2

    ok = [r for r in records if not r["failed"]]
    if args.trace:
        done = [(u, t) for u, t in zip(records[0::2], records[1::2]) if not (u["failed"] or t["failed"])]
        if not done:
            print("no traced operation completed", file=sys.stderr)
            return 1
        values = {name: median(t["layers"][name] for _, t in done) for name in done[0][1]["layers"]}
        values["trace.overhead_s"] = median(t["wall_s"] - u["wall_s"] for u, t in done)
        setup = []
    else:
        if not ok:
            print("no operation completed", file=sys.stderr)
            return 1
        values = {name: median(r[name] for r in ok) for name in ("wall_s", "cpu_s", "peak_rss_mb")}
        values["setup_s"] = median(setup)
    if set(values) != set(units):
        print(f"metrics out of step with BENCHMARK.json: {sorted(set(values) ^ set(units))}", file=sys.stderr)
        return 1

    result = {
        "correct": not runner.failed_checks,
        "attempted": len(records),
        "failed": len(records) - len(ok),
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in values},
    }
    env = environment()
    (run_dir / "result.json").write_text(
        json.dumps({"environment": env, "result": result, "setup_s": setup, "operations": records}, indent=1)
    )
    print("environment " + json.dumps(env))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
