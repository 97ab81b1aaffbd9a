"""The benchmark's workloads: seeded inputs, the timed CLI command, output checks.

Each workload turns the benchmark seed into CLI arguments and input files,
names the command one timed repeat runs, counts the exact work a repeat did
from the command's own outputs, and checks those outputs against oracles
that do not go through the code being measured: count conservation, the
documented run-seed derivation, a replay through the per-cell
``step_reference``, pinned sha256 digests for the default seed, and the fit
tolerances of acceptance criterion 8.
"""
from __future__ import annotations

import hashlib
import json
import shutil
from pathlib import Path

import numpy as np

from newsca.engine import step_reference
from newsca.grid import Boundary, Grid
from newsca.rules import InnovationRuleParams, NewsRuleParams

DEFAULT_SEED = 1
MAX_STEPS = 1000
# The CLI's documented exit code for runs that reach --max-steps still live.
# A few 40x40 runs in a thousand keep a flickering black cluster for
# thousands of steps, so paper-default ensembles end with it for some seeds.
EXIT_NO_CONVERGENCE = 3
DIGESTS_FILE = Path(__file__).with_name("digests.json")

NEWS_TEXT = ".o#"
ADOPTION_TEXT = ".#"


class Checks:
    """Tally of attempted and failed operations: commands and output checks."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list[str] = []

    def record(self, what: str, ok: bool, detail: str = "") -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(f"{what}: {detail}" if detail else what)
        return ok

    @property
    def failed(self) -> int:
        return len(self.failures)


def derive_seed(seed: int, *path: int) -> int:
    """A 64-bit seed for one input, hashed from the benchmark seed and a path."""
    return int(np.random.SeedSequence([seed, *path]).generate_state(1, np.uint64)[0])


def tree_digest(directory: Path) -> str:
    """sha256 over the names and bytes of every file directly in ``directory``."""
    h = hashlib.sha256()
    for p in sorted(directory.iterdir()):
        h.update(p.name.encode() + b"\0" + p.read_bytes() + b"\0")
    return h.hexdigest()


def read_rows(path: Path) -> list[list[str]]:
    """Data rows of a headed CSV, split on commas."""
    return [ln.split(",") for ln in path.read_text().splitlines()[1:] if ln]


def pinned_digests(name: str, seed: int, tiny: bool) -> dict:
    """Digests pinned for the default seed at full size; empty otherwise."""
    if tiny or seed != DEFAULT_SEED:
        return {}
    return json.loads(DIGESTS_FILE.read_text()).get(name, {})


def replay(width: int, height: int, boundary: Boundary, params, rng_seed: int, steps: int):
    """Step a fresh centre-seeded grid ``steps`` times through ``step_reference``.

    Returns the (white, grey, black) count row of every state and the last
    grid. Innovation grids report (not adopted, 0, adopted).
    """
    news = isinstance(params, NewsRuleParams)
    cells = np.zeros((height, width), dtype=np.uint8)
    cells[height // 2, width // 2] = 2 if news else 1
    grid = Grid(cells, boundary)
    rng = np.random.Generator(np.random.PCG64(rng_seed))

    def row(g: Grid) -> tuple[int, int, int]:
        c = np.bincount(g.cells.ravel(), minlength=3)
        return (int(c[0]), int(c[1]), int(c[2])) if news else (int(c[0]), 0, int(c[1]))

    rows = [row(grid)]
    for t in range(steps):
        grid = step_reference(grid, t, rng, params)
        rows.append(row(grid))
    return rows, grid


def grid_text(grid: Grid, alphabet: str) -> str:
    """The CLI's ASCII snapshot format, rendered independently of the CLI."""
    lines = [f"{grid.width} {grid.height} {grid.boundary.value}"]
    lines += ["".join(alphabet[v] for v in row) for row in grid.cells.tolist()]
    return "\n".join(lines) + "\n"


def check_series(checks: Checks, what: str, path: Path, field: int) -> list[list[str]]:
    """Conservation of every row of a ``series.csv``: counts sum to the field
    and each fraction is the printed count share."""
    rows = read_rows(path)
    bad = [
        r[0] for r in rows
        if sum(int(v) for v in r[1:4]) != field
        or r[4:7] != [f"{int(v) / field:.9g}" for v in r[1:4]]
    ]
    checks.record(f"{what} series conservation", bool(rows) and not bad, f"rows {bad[:3]}")
    return rows


class Workload:
    """One benchmark workload: ``n_inputs`` inputs, each run by ``command(i)``.

    The timed phase cycles through the inputs; every command of one input
    does the same work and writes the same outputs.
    """

    name = ""
    why = ""
    exit_codes = (0,)
    yardstick = "step-40"  # the kind of yardstick.Yardstick that tracks its commands

    def __init__(self, seed: int, workdir: Path, tiny: bool = False) -> None:
        self.seed = seed
        self.workdir = workdir
        self.out = workdir / "out"
        self.pinned = pinned_digests(self.name, seed, tiny)
        self.digests: dict[str, str] = {}

    def setup(self, checks: Checks, run_cli) -> None:
        """Write the input files; ``run_cli`` runs CLI commands that build them."""

    @property
    def n_inputs(self) -> int:
        return 1

    def command(self, i: int) -> list[str]:
        raise NotImplementedError

    def work(self, i: int) -> int:
        """Exact work units the command of input ``i`` did, read from its outputs."""
        raise NotImplementedError

    def check(self, i: int, code: int, checks: Checks) -> None:
        """Checks on the outputs of input ``i`` (still in ``self.out``), whose
        command exited with ``code``, one of ``exit_codes``."""

    def finish(self, checks: Checks, run_cli) -> None:
        """Once-per-run checks after all repeats."""

    def check_digest(self, key: str, checks: Checks) -> None:
        """Outputs equal those of the input's first command, and the pinned digest."""
        digest = tree_digest(self.out)
        first = self.digests.setdefault(key, digest)
        checks.record(f"{self.name} {key} deterministic", digest == first, "outputs differ across repeats")
        if key in self.pinned:
            checks.record(f"{self.name} {key} pinned digest", digest == self.pinned[key], digest)


class EnsembleWorkload(Workload):
    """``newsca ensemble`` on a small field, split into ``parts`` ensembles of
    ``runs`` runs with their own base seeds.

    Splitting keeps each command short, so each input's repeats and the
    yardstick timings around them cover the run evenly, while the parts
    together hold enough runs that the heavy tail of convergence times moves
    their total work by only a few percent from seed to seed.
    """

    exit_codes = (0, EXIT_NO_CONVERGENCE)
    width = 40
    boundary = Boundary.BOUNDED
    parts, runs = 30, 20
    replay_steps = 20
    tiny_width, tiny_runs, tiny_replay = 12, 3, 4

    def __init__(self, seed: int, workdir: Path, tiny: bool = False) -> None:
        super().__init__(seed, workdir, tiny)
        if tiny:
            self.parts, self.width, self.runs, self.replay_steps = 2, self.tiny_width, self.tiny_runs, self.tiny_replay
        self.field = self.width * self.width
        self.run0: list[str] | None = None

    @property
    def n_inputs(self) -> int:
        return self.parts

    def base_seed(self, i: int) -> int:
        return derive_seed(self.seed, i)

    def params(self):
        raise NotImplementedError

    def model_args(self) -> list[str]:
        raise NotImplementedError

    def config_args(self) -> list[str]:
        return ["--width", str(self.width), "--height", str(self.width),
                "--boundary", self.boundary.value, "--max-steps", str(MAX_STEPS), *self.model_args()]

    def command(self, i: int) -> list[str]:
        return ["ensemble", *self.config_args(), "--seed", str(self.base_seed(i)),
                "--runs", str(self.runs), "--jobs", "1", "--outdir", str(self.out)]

    def work(self, i: int) -> int:
        return sum(int(row[4]) for row in read_rows(self.out / "convergence.csv")) * self.field

    def check(self, i: int, code: int, checks: Checks) -> None:
        mean = read_rows(self.out / "mean_series.csv")
        bad = [row[0] for row in mean if abs(sum(float(v) for v in row[1:]) - 1.0) > 1e-9]
        checks.record(f"{self.name} mean series conservation", bool(mean) and not bad, f"rows {bad[:3]}")

        conv = read_rows(self.out / "convergence.csv")
        bad = [row[0] for row in conv if abs(sum(float(v) for v in row[5:8]) - 1.0) > 5e-9]
        checks.record(f"{self.name} final fractions conservation", not bad, f"runs {bad[:3]}")
        seeds = np.random.SeedSequence(self.base_seed(i)).generate_state(self.runs, np.uint64)
        checks.record(f"{self.name} run seeds", [int(row[1]) for row in conv] == [int(s) for s in seeds],
                      "convergence.csv seeds differ from SeedSequence.generate_state")
        live = [int(row[0]) for row in conv if row[2] == ""]
        reported = json.loads((self.out / "summary.json").read_text())["convergence"]["unconverged_runs"]
        ok = (live == reported and all(int(conv[k][4]) == MAX_STEPS for k in live)
              and (code == EXIT_NO_CONVERGENCE) == bool(live))
        checks.record(f"{self.name} non-convergence reporting", ok, f"exit {code}, runs {live} vs {reported}")
        if i == 0:
            self.run0 = conv[0]
        self.check_digest(str(i), checks)

    def finish(self, checks: Checks, run_cli) -> None:
        """Replay run 0: a ``simulate`` of its seed must reproduce its
        convergence row, and ``step_reference`` must reproduce the first
        ``replay_steps`` states of that simulation."""
        if self.run0 is None:
            return
        seed0 = int(self.run0[1])
        out = self.workdir / "replay"
        shutil.rmtree(out, ignore_errors=True)
        argv = ["simulate", *self.config_args(), "--seed", str(seed0),
                "--snapshot-every", str(self.replay_steps), "--outdir", str(out)]
        code, _, err = run_cli(argv)
        if not checks.record(f"{self.name} replay simulate exit", code in self.exit_codes, err.strip()):
            return
        rows = check_series(checks, f"{self.name} replay", out / "series.csv", self.field)
        steps = len(rows) - 1
        extinct = next((row[0] for row in rows if self.is_news() and int(row[3]) == 0), "")
        converged = "" if code == EXIT_NO_CONVERGENCE else str(steps)
        expect = [converged, extinct, str(steps), *rows[-1][4:7]]
        got = [self.run0[2], self.run0[3], self.run0[4], *self.run0[5:8]]
        checks.record(f"{self.name} run 0 matches simulate", got == expect, f"{got} != {expect}")

        n = min(self.replay_steps, steps)
        ref_rows, grid = replay(self.width, self.width, self.boundary, self.params(), seed0, n)
        got_rows = [tuple(int(v) for v in row[1:4]) for row in rows[: n + 1]]
        checks.record(f"{self.name} step_reference prefix", got_rows == ref_rows, f"first {n} steps differ")
        if n == self.replay_steps:
            snap = out / f"snapshot_{n:06d}.txt"
            text = grid_text(grid, NEWS_TEXT if self.is_news() else ADOPTION_TEXT)
            checks.record(f"{self.name} step_reference snapshot",
                          snap.exists() and snap.read_text() == text, f"step {n}")

    def is_news(self) -> bool:
        return isinstance(self.params(), NewsRuleParams)


class Ensemble40(EnsembleWorkload):
    name = "ensemble-40"
    why = (
        "paper-default 40x40 bounded news ensembles, 30 x 20 runs, --jobs 1: about 82k "
        "step calls on 1600-cell grids, where per-call overhead in engine and grid "
        "dominates"
    )

    def params(self):
        return NewsRuleParams()

    def model_args(self) -> list[str]:
        return ["--model", "news"]


class InnovationTorus(EnsembleWorkload):
    name = "innovation-torus"
    why = (
        "innovation model, threshold 0.9, toroidal, 8 x 25 runs: the only workload "
        "running _step_innovation, the frozen check and the np.roll path of "
        "neighbor_counts"
    )
    boundary = Boundary.TOROIDAL
    parts, runs = 8, 25
    yardstick = "step-40-torus"

    def params(self):
        return InnovationRuleParams(threshold=0.9)

    def model_args(self) -> list[str]:
        return ["--model", "innovation", "--innovation-threshold", "0.9"]


class FieldLarge(Workload):
    """``newsca simulate`` of one large bounded news field with ASCII snapshots.

    A 300x300 field needs 355 to over 900 steps to reach its fixed point,
    depending on the seed, so the run is cut at a fixed horizon that no field
    measured reached its fixed point within: every command does the same
    work, and the CLI ends with its documented non-convergence exit code.
    """

    name = "field-large"
    why = (
        "one 300x300 bounded news field for a fixed 300 steps with ASCII snapshots: per-"
        "cell memory traffic rather than per-call overhead, and real snapshot writing in "
        "cli"
    )
    exit_codes = (0, EXIT_NO_CONVERGENCE)
    yardstick = "step-300"

    def __init__(self, seed: int, workdir: Path, tiny: bool = False) -> None:
        super().__init__(seed, workdir, tiny)
        self.width, self.horizon, self.every = (30, 30, 10) if tiny else (300, 300, 50)
        self.replay_steps = 2
        self.field = self.width * self.width
        self.rows: list[list[str]] | None = None

    def command(self, i: int) -> list[str]:
        return ["simulate", "--width", str(self.width), "--height", str(self.width),
                "--boundary", "bounded", "--model", "news", "--max-steps", str(self.horizon),
                "--seed", str(derive_seed(self.seed, 0)),
                "--snapshot-every", str(self.every), "--outdir", str(self.out)]

    def work(self, i: int) -> int:
        return (len(read_rows(self.out / "series.csv")) - 1) * self.field

    def check(self, i: int, code: int, checks: Checks) -> None:
        rows = check_series(checks, self.name, self.out / "series.csv", self.field)
        steps = len(rows) - 1
        checks.record(f"{self.name} non-convergence reporting",
                      (code == EXIT_NO_CONVERGENCE) == (steps == self.horizon), f"exit {code} after {steps} steps")
        want = [f"snapshot_{t:06d}.txt" for t in range(0, steps + 1, self.every)]
        got = sorted(p.name for p in self.out.glob("snapshot_*.txt"))
        checks.record(f"{self.name} snapshot set", got == want, f"{len(got)} files, want {len(want)}")
        for name in got:
            text = (self.out / name).read_text()
            body = text.splitlines()[1:]
            t = int(name[9:15])
            counts = tuple(sum(line.count(ch) for line in body) for ch in NEWS_TEXT)
            ok = (text.startswith(f"{self.width} {self.width} bounded\n") and len(body) == self.width
                  and t < len(rows) and counts == tuple(int(v) for v in rows[t][1:4]))
            if not checks.record(f"{self.name} snapshot {t} conservation", ok, "counts differ from series"):
                break
        self.rows = rows
        self.check_digest("0", checks)

    def finish(self, checks: Checks, run_cli) -> None:
        if self.rows is None:
            return
        n = min(self.replay_steps, len(self.rows) - 1)
        ref_rows, _ = replay(self.width, self.width, Boundary.BOUNDED, NewsRuleParams(), derive_seed(self.seed, 0), n)
        got = [tuple(int(v) for v in row[1:4]) for row in self.rows[: n + 1]]
        checks.record(f"{self.name} step_reference prefix", got == ref_rows, f"first {n} steps differ")


class FitBatch(Workload):
    """``newsca fit`` over a batch of series CSVs, one input per command.

    The batch mixes noiseless and noisy logistic curves with parameters
    perturbed around the reference model, and ensemble-mean series built
    by ``newsca ensemble`` during set-up.
    """

    name = "fit-batch"
    why = (
        "36 newsca fit calls on seeded noiseless, noisy and ensemble-mean series: Nelder-"
        "Mead in model dominates and the stepper is idle, so stepper changes should not "
        "move it"
    )
    noise = 0.01
    steps = 121
    yardstick = "fit"

    def __init__(self, seed: int, workdir: Path, tiny: bool = False) -> None:
        super().__init__(seed, workdir, tiny)
        self.n_clean, self.n_noisy, self.n_ensemble = (2, 2, 1) if tiny else (16, 16, 4)
        self.ensemble_runs = 4 if tiny else 8
        self.inputs: list[tuple[Path, str, dict | None]] = []

    def setup(self, checks: Checks, run_cli) -> None:
        indir = self.workdir / "inputs"
        shutil.rmtree(indir, ignore_errors=True)
        indir.mkdir(parents=True)
        rng = np.random.default_rng(derive_seed(self.seed, 0))
        t = np.arange(self.steps, dtype=float)
        inputs = []
        for i in range(self.n_clean + self.n_noisy):
            truth = {
                "grey": (rng.uniform(0.6, 0.9), rng.uniform(20.0, 40.0), rng.uniform(0.1, 0.2)),
                "white": (rng.uniform(0.6, 0.9), rng.uniform(12.0, 28.0), rng.uniform(0.15, 0.35)),
            }
            grey = logistic(t, *truth["grey"])
            white = 1.0 - logistic(t, *truth["white"])
            kind = "clean" if i < self.n_clean else "noisy"
            if kind == "noisy":
                grey = np.clip(grey + rng.normal(0.0, self.noise, t.size), 0.0, 1.0)
                white = np.clip(white + rng.normal(0.0, self.noise, t.size), 0.0, 1.0)
            path = indir / f"{kind}_{i:03d}.csv"
            write_series(path, white, grey)
            inputs.append((path, kind, truth))
        for i in range(self.n_ensemble):
            out = indir / f"ensemble_{i:03d}"
            argv = ["ensemble", "--width", "40", "--height", "40", "--seed", str(derive_seed(self.seed, 1, i)),
                    "--runs", str(self.ensemble_runs), "--jobs", "1", "--outdir", str(out)]
            code, _, err = run_cli(argv)
            checks.record(f"{self.name} input ensemble {i} exit", code in (0, EXIT_NO_CONVERGENCE), err.strip())
            inputs.append((out / "mean_series.csv", "ensemble", None))
        # Interleave the kinds so every stretch of repeats sees the same mix.
        order = rng.permutation(len(inputs))
        self.inputs = [inputs[k] for k in order]

    @property
    def n_inputs(self) -> int:
        return len(self.inputs)

    def command(self, i: int) -> list[str]:
        return ["fit", "--input", str(self.inputs[i][0]), "--outdir", str(self.out)]

    def work(self, i: int) -> int:
        return 1

    def check(self, i: int, code: int, checks: Checks) -> None:
        _, kind, truth = self.inputs[i]
        fit = json.loads((self.out / "fit_params.json").read_text())
        what = f"{self.name} {kind} fit {i}"
        if kind == "clean":
            worst = max(
                abs(fit[curve]["params"][key] - want) / want
                for curve in ("grey", "white")
                for key, want in zip(("c", "tau", "gamma"), truth[curve])
            )
            checks.record(f"{what} recovery", worst <= 1e-3, f"worst relative error {worst:.2e}")
        elif kind == "noisy":
            worst = max(fit["grey"]["rmse"], fit["white"]["rmse"])
            checks.record(f"{what} rmse", worst <= 1.5 * self.noise, f"rmse {worst:.4g}")
        else:
            ok = fit["grey"]["converged"] and fit["grey"]["rmse"] <= 0.05
            checks.record(f"{what} grey rmse", ok, f"rmse {fit['grey']['rmse']:.4g}")
        rows = read_rows(self.out / "fit_series.csv")
        bad = [row[0] for row in rows if abs(sum(float(v) for v in row[4:7]) - 1.0) > 1e-12]
        checks.record(f"{what} model conservation", bool(rows) and not bad, f"rows {bad[:3]}")

    def finish(self, checks: Checks, run_cli) -> None:
        for path, kind, _ in self.inputs:
            key = path.parent.name
            if kind == "ensemble" and key in self.pinned:
                digest = tree_digest(path.parent)
                checks.record(f"{self.name} {key} pinned digest", digest == self.pinned[key], digest)


def logistic(t: np.ndarray, c: float, tau: float, gamma: float) -> np.ndarray:
    return c / (1.0 + np.exp(-gamma * (t - tau)))


def write_series(path: Path, white: np.ndarray, grey: np.ndarray) -> None:
    """A fit input in the CLI's series layout, at full precision."""
    lines = ["step,white_frac,grey_frac,black_frac"]
    lines += [f"{k},{w!r},{g!r},{1.0 - w - g!r}" for k, (w, g) in enumerate(zip(white.tolist(), grey.tolist()))]
    path.write_text("\n".join(lines) + "\n")


WORKLOADS = {w.name: w for w in (Ensemble40, FieldLarge, FitBatch, InnovationTorus)}


def warmup_commands(workdir: Path) -> list[list[str]]:
    """Tiny runs of every command path, so lazy set-up is done before timing
    and every layer records work in a traced run."""
    t = np.arange(61, dtype=float)
    csv = workdir / "warmup.csv"
    write_series(csv, 1.0 - logistic(t, 0.75, 20.0, 0.25), logistic(t, 0.75, 30.0, 0.15))
    out = str(workdir / "warmup")
    small = ["--width", "16", "--height", "16", "--seed", "3"]
    return [
        ["simulate", *small, "--snapshot-every", "4", "--outdir", out],
        ["ensemble", *small, "--runs", "3", "--outdir", out],
        ["ensemble", *small, "--runs", "3", "--model", "innovation", "--innovation-threshold", "0.9",
         "--boundary", "toroidal", "--outdir", out],
        ["fit", "--input", str(csv), "--outdir", out],
    ]
