#!/usr/bin/env python3
"""Benchmark of the newsca command line, run in-process through ``newsca.cli.main``.

    python3 benchmarks/run.py --workload ensemble-40 --seed 1 --seconds 20 --trace 0

Run from the repository root. One process, one worker thread (``--jobs 1``,
BLAS and OpenMP pinned to one thread). The run sets up the workload five
times (a fresh-interpreter import, input generation and warm-up) and reports
the median, then cycles through the workload's inputs for ``--seconds``,
checks every output, and prints each metric by name and unit. Every time is
corrected for the slowdown that other tenants of the box cause, as a
yardstick of the same kind of work timed around it shows (``yardstick.py``).
``wall_s`` is one pass over the inputs, each input at the median corrected
time of its repeats, and ``work_per_s`` the pass's exact work divided by it;
the summary line carries the raw times. The last line of standard output is
a JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.

With ``--trace 1`` the run instead reports per-layer metrics: it times the
workload's inputs untraced, then replays the warm-up and each input once
with the package's layers wrapped (see ``tracing.py``), asserts that
RNG draws equal the adoptable cells fed to ``step`` and that traced outputs
hash the same as untraced ones, and writes the spans to ``.bench_work/``.
"""
from __future__ import annotations

import os

# Pinned before numpy is imported anywhere in the process.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_FRAMEWORK_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import io
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORK_ROOT = ROOT / ".bench_work"
SETUP_REPEATS = 5
WORKLOAD_NAMES = ("ensemble-40", "field-large", "fit-batch", "innovation-torus")


def machine_info() -> dict:
    import numpy
    import scipy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "threads": {var: os.environ[var] for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS")},
    }


class Runner:
    """Calls ``newsca.cli.main`` in-process with the CLI's output captured."""

    def __init__(self, main) -> None:
        self.main = main

    def __call__(self, argv: list[str]) -> tuple[int, str, str]:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = self.main(argv)
        return code, out.getvalue(), err.getvalue()


def quantile(values: list[float], q: int) -> float:
    """The q-th percentile (1..99) of ``values``, interpolated; the single
    value when there is only one."""
    return values[0] if len(values) == 1 else statistics.quantiles(values, n=100)[q - 1]


def run_workload(name: str, seed: int, seconds: float, trace: bool, tiny: bool = False) -> dict:
    """Run one workload and return its result; ``tiny`` shrinks the inputs
    for smoke tests (pinned digests are then not checked)."""
    workdir = WORK_ROOT / f"{name}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        return _run(name, seed, seconds, trace, tiny, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def fresh_import(checks) -> None:
    """Import the CLI in a fresh interpreter, as a user's first command does."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", "import newsca.cli"], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=120)
    checks.record("fresh import", proc.returncode == 0, proc.stderr.strip()[-300:])


def _run(name: str, seed: int, seconds: float, trace: bool, tiny: bool, workdir: Path) -> dict:
    # Imported here: ``main`` puts src/ and this directory on the path first.
    import newsca.cli as cli
    import tracing
    import workloads
    from yardstick import Yardstick

    checks = workloads.Checks()
    runner = Runner(cli.main)
    stick = Yardstick(workloads.WORKLOADS[name].yardstick)

    def command(argv: list[str], what: str, out: Path | None = None, exit_codes: tuple[int, ...] = (0,),
                expect_s: float = 0.1) -> tuple[int | None, tuple[float, float]]:
        """Run one CLI command: its exit code if accepted (else None) and its
        (raw seconds, slowdown) sample."""
        if out is not None:
            shutil.rmtree(out, ignore_errors=True)
        (code, _, err), seconds, slowdown = stick.measure(lambda: runner(argv), expect_s)
        ok = checks.record(f"{what} exit", code in exit_codes, f"exit {code}: {err.strip()[:300]}")
        return (code if ok else None), (seconds, slowdown)

    def prepare():
        """Input generation and warm-up."""
        wl = workloads.WORKLOADS[name](seed, workdir, tiny)
        wl.setup(checks, runner)
        warmup = workloads.warmup_commands(workdir)
        for argv in warmup:
            code, _, err = runner(argv)
            checks.record(f"warm-up {argv[0]} exit", code == 0, f"exit {code}: {err.strip()[:300]}")
        return wl, warmup

    # -- set-up: fresh import, inputs and warm-up, several times ------------
    import_stick, prepare_stick = Yardstick("interpreter"), Yardstick("step-40")
    setup_raw, setup_times = [], []
    for _ in range(SETUP_REPEATS):
        _, import_s, import_slowdown = import_stick.measure(lambda: fresh_import(checks), 1.0)
        (wl, warmup), prepare_s, prepare_slowdown = prepare_stick.measure(prepare, 0.5)
        setup_raw.append(import_s + prepare_s)
        setup_times.append(import_s / import_slowdown + prepare_s / prepare_slowdown)

    # Each input's time is the median of its repeats' corrected times;
    # ``wall_s`` is one pass over the inputs.
    samples: dict[int, list[tuple[float, float]]] = {i: [] for i in range(wl.n_inputs)}
    result: dict = {"workload": name, "seed": seed}

    def corrected(i: int) -> float:
        return statistics.median(seconds / slowdown for seconds, slowdown in samples[i])

    def timed_input(i: int, what: str) -> int | None:
        expect_s = min(samples[i])[0] if samples[i] else 0.1
        code, sample = command(wl.command(i), what, wl.out, wl.exit_codes, expect_s)
        if code is not None:
            samples[i].append(sample)
        return code

    if not trace:
        work: dict[int, int] = {}
        start, r = perf_counter(), 0
        while True:
            i = r % wl.n_inputs
            code = timed_input(i, f"{name} input {i}")
            if code is not None:
                work[i] = wl.work(i)
                wl.check(i, code, checks)
            r += 1
            if r >= wl.n_inputs and perf_counter() - start > seconds:
                break
        wl.finish(checks, runner)
        if work:
            wall = sum(corrected(i) for i in work)
            calls_ms = [1000 * seconds for i in work for seconds, _ in samples[i]]
            result["summary"] = {
                "commands": len(calls_ms),
                "inputs": len(work),
                "fewest_repeats": min(len(samples[i]) for i in work),
                "raw_command_ms_p50": quantile(calls_ms, 50),
                "raw_command_ms_p90": quantile(calls_ms, 90),
                "raw_pass_s": sum(statistics.median(s for s, _ in samples[i]) for i in work),
                "raw_setup_s": statistics.median(setup_raw),
                "setup_s_each": setup_times,
                "slowdown_p50": statistics.median(stick.slowdowns),
            }
            result["metrics"] = {
                "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
                "wall_s": {"value": wall, "unit": "s"},
                "work_per_s": {"value": sum(work.values()) / wall, "unit": "1/s"},
                "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "unit": "MB"},
            }
    else:
        # -- every input untraced for half the time, then once traced --------
        digests: dict[int, str] = {}
        start = perf_counter()
        while perf_counter() - start < seconds / 2 or not digests:
            for i in range(wl.n_inputs):
                if timed_input(i, f"{name} input {i}") is not None:
                    digests.setdefault(i, workloads.tree_digest(wl.out))

        tracer = tracing.Tracer()
        runner.main = tracer.wrap("cli.main", cli.main)
        tracer.install()
        traced: list[float] = []  # corrected seconds of each input's traced command
        try:
            for argv in warmup:
                command(argv, f"traced warm-up {argv[0]}")
            for i in range(wl.n_inputs):
                # The checks read files only, so they add no spans.
                code, (seconds, slowdown) = command(wl.command(i), f"{name} traced input {i}", wl.out,
                                                    wl.exit_codes, min(samples[i])[0] if samples[i] else 0.1)
                if code is not None:
                    traced.append(seconds / slowdown)
                    wl.check(i, code, checks)
                    checks.record(f"{name} traced input {i} output digest",
                                  workloads.tree_digest(wl.out) == digests.get(i), "traced outputs differ")
        finally:
            tracer.uninstall()
            runner.main = cli.main
        wl.finish(checks, runner)

        draws, adoptable = tracer.counts["engine.rng.draws"], tracer.counts["adoptable_cells"]
        checks.record(f"{name} draw identity", draws == adoptable and draws > 0,
                      f"{draws} draws for {adoptable} adoptable cells")
        if traced:
            untraced = sum(corrected(i) for i, v in samples.items() if v)
            result["metrics"] = tracer.metrics(sum(traced), untraced)
        spans = WORK_ROOT / f"spans-{name}-seed{seed}.tsv"
        tracer.write(spans)
        result["spans_file"] = str(spans.relative_to(ROOT))

    result.update(
        correct=checks.failed == 0,
        attempted=checks.attempted,
        failed=checks.failed,
        failures=checks.failures,
        failed_ops_frac=checks.failed / max(checks.attempted, 1),
    )
    result.setdefault("metrics", {})
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES, required=True)
    parser.add_argument("--seed", type=int, default=1, help="workload seed (digests are pinned for 1)")
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "newsca").is_dir():
        print(f"error: no newsca package under {ROOT / 'src'}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(BENCH_DIR))
    WORK_ROOT.mkdir(exist_ok=True)

    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps({"machine": machine_info(), "workload": args.workload, "seed": args.seed,
                      "trace": args.trace, "summary": result.get("summary")}))
    for failure in result["failures"][:20]:
        print(f"FAILED {failure}")
    print(f"failed_ops_frac {result['failed_ops_frac']:.6g} ({result['failed']}/{result['attempted']})")
    for metric, m in result["metrics"].items():
        print(f"{metric} {m['value']:.6g} {m['unit']}")
    if not result["metrics"]:
        print("error: no timed command succeeded", file=sys.stderr)
        return 1
    print(json.dumps({key: result[key] for key in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
