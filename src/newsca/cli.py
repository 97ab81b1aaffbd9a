"""Command-line front-end: simulate, ensemble, eval-model, fit.

Every command writes a JSON manifest next to its outputs; re-running a
command from its manifest reproduces the outputs byte for byte. Exit codes:
0 success, 1 usage, 2 I/O or malformed input, 3 non-convergence, 4 fit
failure.
"""
from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import math
import os
import sys
from collections.abc import Sequence
from dataclasses import asdict, fields
from pathlib import Path

import numpy as np

from . import __version__
from .analytics import cross_point, normalize, stabilization_ratio
from .engine import (
    GENERATOR_NAME,
    MAX_CELLS,
    EnsembleResult,
    SimulationConfig,
    check_runs,
    run,
    run_ensemble,
)
from .grid import Boundary, Grid, grid_to_text, render_rows
from .model import (
    AnalyticModel,
    FitResult,
    LogisticParams,
    fit_model,
    reference_model,
)
from .rules import MODELS

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_IO = 2
EXIT_NO_CONVERGENCE = 3
EXIT_FIT_FAILURE = 4

OUTDIR_ENV = "NEWSCA_OUTDIR"

# Values of --snapshot-format and of a simulate manifest's snapshot_format; the first is the default.
SNAPSHOT_FORMATS = ("ascii", "pgm")

# Greyscale level of each snapshot character in portable graymap snapshots.
PGM_LEVELS = {".": 255, "o": 128, "#": 0}


class InputError(ValueError):
    """Malformed input file: a manifest or series CSV; the message names the file."""


# ---------------------------------------------------------------------------
# manifest

def config_to_dict(config: SimulationConfig) -> dict:
    return {**asdict(config), "boundary": config.boundary.value, "model": config.rule_params.name}


def _check_fields(cls, d: dict, what: str) -> None:
    """``d`` holds exactly the fields of ``cls``; ``cls`` checks their values."""
    names = sorted(f.name for f in fields(cls))
    if sorted(d) != names:
        raise InputError(f"{what} must hold {names}, got {sorted(d)}")


def config_from_dict(d: dict) -> SimulationConfig:
    """Inverse of :func:`config_to_dict`. The config and its ``rule_params``
    must be JSON objects holding exactly the fields of SimulationConfig and
    of the named model; those classes check each value, unconverted."""
    if type(d) is not dict:
        raise InputError("config must be a JSON object")
    d = dict(d)
    model = d.pop("model")
    if type(model) is not str or model not in MODELS:
        raise InputError(f"config entry 'model' must be one of {sorted(MODELS)}, got {model!r}")
    cls = MODELS[model]
    _check_fields(SimulationConfig, d, "config")
    if type(d["rule_params"]) is not dict:
        raise InputError(f"config entry 'rule_params' must be a JSON object, got {d['rule_params']!r}")
    _check_fields(cls, d["rule_params"], f"rule_params of model {cls.name!r}")
    return SimulationConfig(**{**d, "rule_params": cls(**d["rule_params"])})


def build_manifest(command: str, config: SimulationConfig | None = None, **extras) -> dict:
    manifest = {
        "artifact": "newsca",
        "version": __version__,
        "rng": GENERATOR_NAME,
        "command": command,
    }
    if config is not None:
        manifest["config"] = config_to_dict(config)
    manifest.update(extras)
    return manifest


def save_manifest(path: Path, manifest: dict) -> None:
    """Write a JSON output: a manifest, summary.json or fit_params.json. A
    non-finite value raises rather than writing NaN."""
    path.write_text(json.dumps(manifest, indent=2, sort_keys=True, allow_nan=False) + "\n")


# The top-level entries every manifest may hold, and those of each rerunnable command's own.
MANIFEST_ENTRIES = ("artifact", "version", "rng", "command", "config")
COMMAND_ENTRIES = {"simulate": ("snapshot_format",), "ensemble": ("runs",)}


def load_manifest(path: Path, command: str) -> tuple[SimulationConfig, dict]:
    """(config, contents) of a manifest written by ``command`` with this
    package's generator; raises InputError if it is malformed, its command's
    own entries included (simulate's ``snapshot_format``, ensemble's ``runs``
    and null ``snapshot_every``), holds a top-level entry that is neither
    common to all manifests nor its command's own, or was written by another
    command or generator, whose rerun here would be another experiment."""
    try:
        manifest = json.loads(path.read_text())
        if type(manifest) is not dict:
            raise InputError("the manifest must be a JSON object")
        for key, want in (("command", command), ("rng", GENERATOR_NAME)):
            if manifest[key] != want:
                raise InputError(f"{key} must be {want!r}, got {manifest[key]!r}")
        stray = sorted(manifest.keys() - {*MANIFEST_ENTRIES, *COMMAND_ENTRIES[command]})
        if stray:
            raise InputError(f"{command} manifests hold no entry {', '.join(map(repr, stray))}")
        if type(manifest["version"]) is not str:
            raise InputError(f"version must be a string, got {manifest['version']!r}")
        config = config_from_dict(manifest["config"])
        if command == "simulate":
            snapshot_format = manifest.get("snapshot_format", SNAPSHOT_FORMATS[0])
            if snapshot_format not in SNAPSHOT_FORMATS:
                raise InputError(f"snapshot_format must be one of {list(SNAPSHOT_FORMATS)}, got {snapshot_format!r}")
        elif command == "ensemble":
            check_runs(config, manifest.get("runs"))
            if config.snapshot_every is not None:  # ensemble writes no snapshots
                raise InputError(f"config entry 'snapshot_every' must be null for ensemble, "
                                 f"got {config.snapshot_every!r}")
        return config, manifest
    except KeyError as exc:
        raise InputError(f"{path}: missing key {exc}") from None
    except (TypeError, ValueError) as exc:
        raise InputError(f"{path}: {exc}") from None
    except RecursionError:
        raise InputError(f"{path}: nested too deeply to read") from None


# ---------------------------------------------------------------------------
# file formats
#
# The CSV writers format Python numbers from one ``tolist()`` per array, not
# numpy scalars indexed one at a time: the text is the same, made in less time.

def write_series_csv(path: Path, counts: np.ndarray, fractions: np.ndarray) -> None:
    """Per-step counts plus their fractions (from :func:`normalize`) to 9 significant digits."""
    lines = ["step,white,grey,black,white_frac,grey_frac,black_frac"]
    for t, ((w, g, b), (fw, fg, fb)) in enumerate(zip(counts.tolist(), fractions.tolist())):
        lines.append(f"{t},{w},{g},{b},{fw:.9g},{fg:.9g},{fb:.9g}")
    path.write_text("\n".join(lines) + "\n")


def write_mean_series_csv(path: Path, mean_fractions: np.ndarray) -> None:
    """Ensemble-mean fractions at full precision (they feed the fitter)."""
    lines = ["step,white_frac,grey_frac,black_frac"]
    for t, (w, g, b) in enumerate(mean_fractions.tolist()):
        lines.append(f"{t},{w:.17g},{g:.17g},{b:.17g}")
    path.write_text("\n".join(lines) + "\n")


def write_convergence_csv(path: Path, result: EnsembleResult) -> None:
    lines = ["run,seed,converged_at,black_extinct_at,steps,final_white_frac,final_grey_frac,final_black_frac"]
    finals = normalize([tr.counts[-1] for tr in result.trajectories], result.config.field_size)
    for i, (tr, seed, (fw, fg, fb)) in enumerate(zip(result.trajectories, result.run_seeds, finals.tolist())):
        conv, ext = tr.converged_at, tr.black_extinct_at  # black_extinct_at scans the run's counts
        lines.append(f"{i},{seed},{'' if conv is None else conv},{'' if ext is None else ext},{tr.steps},"
                     f"{fw:.9g},{fg:.9g},{fb:.9g}")
    path.write_text("\n".join(lines) + "\n")


# Rows of model_series.csv formatted per write, so a long step range never sits in memory.
MODEL_CSV_CHUNK = 8192


def write_model_csv(path: Path, steps: Sequence[int], model: AnalyticModel) -> None:
    """(t, grey, white, black) at full precision so rows sum to 1 within 1e-12."""
    with path.open("w") as out:
        out.write("step,grey_frac,white_frac,black_frac\n")
        for a in range(0, len(steps), MODEL_CSV_CHUNK):
            part = steps[a:a + MODEL_CSV_CHUNK]
            out.writelines(f"{int(t)},{g:.17g},{w:.17g},{b:.17g}\n"
                           for t, g, w, b in zip(part, *model.curves(part)))


def write_fit_series_csv(path: Path, steps: np.ndarray, white, grey, black, curves) -> None:
    """Side-by-side simulated and modeled triples; ``curves`` holds the model's
    (grey, white, black) at ``steps``, as ``ModelFit.curves`` gives them."""
    mg, mw, mb = curves
    lines = ["step,white_sim,grey_sim,black_sim,white_model,grey_model,black_model"]
    columns = np.column_stack((steps, white, grey, black, mw, mg, mb))
    for t, w, g, b, w_model, g_model, b_model in columns.tolist():
        # Whole steps as integers, others as the shortest text that parses back to them.
        lines.append(f"{int(t) if t.is_integer() else t!r},{w:.17g},{g:.17g},{b:.17g},"
                     f"{w_model:.17g},{g_model:.17g},{b_model:.17g}")
    path.write_text("\n".join(lines) + "\n")


def write_pgm(path: Path, grid: Grid, chars: dict) -> None:
    """Plain-text portable graymap: white=255, grey=128, black=0, looked up
    through each cell code's snapshot character in ``chars``."""
    levels = {code: str(PGM_LEVELS[char]) for code, char in chars.items()}
    path.write_text(f"P2\n{grid.width} {grid.height}\n255\n" + render_rows(grid.cells, levels, " "))


def write_snapshot(outdir: Path, t: int, grid: Grid, fmt: str, chars: dict) -> Path:
    """Write the snapshot of step ``t``, cells in the alphabet ``chars``, and return its path."""
    if fmt == "pgm":
        path = outdir / f"snapshot_{t:06d}.pgm"
        write_pgm(path, grid, chars)
    else:
        path = outdir / f"snapshot_{t:06d}.txt"
        path.write_text(grid_to_text(grid, chars))
    return path


def read_series_csv(path: Path) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Parse any of this package's series CSVs into (steps, white, grey, black).

    Columns are located by header name, so the simulate, ensemble and
    eval-model layouts all work. A missing black column is reconstructed
    from normalization. Every value must be finite, the white and grey
    fractions within [0, 1], the three fractions of a row, when the black
    one is given, must sum to 1 within 1e-6, and the steps must strictly
    increase; an InputError names the file and the first line that breaks a
    rule, is not UTF-8 or is not CSV, or says that no row follows the
    header. A leading UTF-8 byte-order mark, as Excel's "CSV UTF-8" writes,
    is dropped. Black is not range-checked: a model's black curve may dip
    just below 0.
    """
    def bad(message: str, line: int | None = None) -> InputError:
        """The error at ``line``, by default the physical line the reader's last row ended on."""
        return InputError(f"{path}: line {reader.line_num if line is None else line}: {message}")

    data = path.read_bytes()
    try:
        text = data.decode("utf-8").removeprefix("\ufeff")
    except UnicodeDecodeError as exc:
        raise bad(f"not UTF-8: byte {data[exc.start]:#04x} at offset {exc.start}",
                  data.count(b"\n", 0, exc.start) + 1) from None
    with io.StringIO(text, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader, None)
            if header is None:
                raise bad("empty file", 1)
            names = [h.strip() for h in header]
            if "step" not in names:
                raise bad("missing 'step' column")
            if "white_frac" not in names or "grey_frac" not in names:
                raise bad("missing 'white_frac' or 'grey_frac' column")
            columns = [names.index(name) for name in ("step", "white_frac", "grey_frac", "black_frac")
                       if name in names]
            rows = []
            for row in reader:
                if not row:
                    continue
                try:
                    values = [float(row[i]) for i in columns]
                except (ValueError, IndexError) as exc:
                    raise bad(f"unparseable row: {exc}") from None
                if not all(map(math.isfinite, values)):
                    raise bad(f"non-finite value in row {row}")
                if not (0 <= values[1] <= 1 and 0 <= values[2] <= 1):
                    raise bad(f"white or grey fraction outside [0, 1] in row {row}")
                if len(values) == 4 and abs(sum(values[1:]) - 1) > 1e-6:
                    raise bad(f"fractions sum to {sum(values[1:])!r}, not 1, in row {row}")
                if rows and values[0] <= rows[-1][0]:
                    raise bad(f"step {values[0]:g} does not follow step {rows[-1][0]:g}")
                rows.append(values)
        except csv.Error as exc:  # such as a field above the csv module's size limit
            raise bad(str(exc)) from None
    if not rows:
        raise InputError(f"{path}: no data rows after the header")
    steps, white, grey, *black = np.array(rows).reshape(-1, len(columns)).T.copy()
    return steps, white, grey, black[0] if black else 1.0 - white - grey


# ---------------------------------------------------------------------------
# argument parsing

class _Parser(argparse.ArgumentParser):
    # A usage mistake is one line, like every other error, and exits 1, not
    # argparse's default 2 (2 is reserved for I/O); --help shows the usage.
    def error(self, message):
        self.exit(EXIT_USAGE, f"error: {message}\n")


# Runs of an ensemble when --runs is left out.
DEFAULT_RUNS = 100


def _add_config_flags(sp: argparse.ArgumentParser, command: str) -> None:
    """The flags of a run's configuration, and --from-manifest, which stands
    for all of them. Each flag's dest is the field it sets, of SimulationConfig
    or of a rule parameter class, but for --seed-row and --seed-col (the
    ``seed_position`` pair), --model, --runs and --snapshot-format. Each
    defaults to None, so one left out is told from one given:
    :func:`_run_config` fills the first from its field's default, and refuses
    the second beside a manifest."""
    flags = [
        sp.add_argument("--width", type=int),
        sp.add_argument("--height", type=int),
        sp.add_argument("--seed-row", type=int, help="seed cell row (default: center)"),
        sp.add_argument("--seed-col", type=int, help="seed cell column (default: center)"),
        sp.add_argument("--boundary", choices=[b.value for b in Boundary]),
        sp.add_argument("--seed", dest="rng_seed", metavar="SEED", type=int, help="RNG seed"),
        sp.add_argument("--max-steps", type=int),
        sp.add_argument("--model", choices=list(MODELS)),
        sp.add_argument("--adoption-threshold", type=float),
        sp.add_argument("--boost-factor", type=float),
        sp.add_argument("--boost-below", type=int),
        sp.add_argument("--innovation-threshold", dest="threshold", metavar="INNOVATION_THRESHOLD",
                        type=float),
    ]
    if command == "simulate":
        flags.append(sp.add_argument("--snapshot-every", type=int))
        flags.append(sp.add_argument("--snapshot-format", choices=SNAPSHOT_FORMATS,
                                     help=f"(default: {SNAPSHOT_FORMATS[0]})"))
    else:
        flags.append(sp.add_argument("--runs", type=int, help=f"(default: {DEFAULT_RUNS})"))
    sp.add_argument("--from-manifest", type=Path,
                    help="load the full configuration from a manifest file; "
                         "no other config flag may be given with it")
    sp.set_defaults(config_flags=[(flag.dest, flag.option_strings[0]) for flag in flags])


def _run_config(args: argparse.Namespace, command: str) -> tuple[SimulationConfig, dict]:
    """(config, manifest) of a ``command`` run: those of --from-manifest, which
    holds the whole configuration and so takes no config flag beside it, or
    the config built from the flags and an empty manifest."""
    if args.from_manifest is not None:
        refused = [name for dest, name in args.config_flags if getattr(args, dest) is not None]
        if refused:
            raise ValueError(f"--from-manifest takes no config flag, got {', '.join(refused)}")
        return load_manifest(args.from_manifest, command)
    if (args.seed_row is None) != (args.seed_col is None):
        raise ValueError("--seed-row and --seed-col must be given together")
    seed_position = None if args.seed_row is None else (args.seed_row, args.seed_col)
    cls = MODELS[args.model or SimulationConfig().rule_params.name]
    given = {f.name: getattr(args, f.name) for model in MODELS.values() for f in fields(model)
             if getattr(args, f.name) is not None}
    stray = sorted(given.keys() - {f.name for f in fields(cls)})
    if stray:
        raise ValueError(f"--model {cls.name} takes no rule parameter {' or '.join(map(repr, stray))}")
    # A flag left out is None and takes the default of its field.
    flags = {f.name: getattr(args, f.name) for f in fields(SimulationConfig)
             if getattr(args, f.name, None) is not None}
    return SimulationConfig(**flags, seed_position=seed_position, rule_params=cls(**given)), {}


def _resolve_outdir(args: argparse.Namespace) -> Path:
    outdir = args.outdir or os.environ.get(OUTDIR_ENV) or "."
    path = Path(outdir)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _fit_result_dict(fit: FitResult) -> dict:
    """``asdict(fit)`` without its deep copy, and a non-finite rmse as None."""
    params = fit.params
    return {
        **{f.name: getattr(fit, f.name) for f in fields(fit)},
        "params": None if params is None else {"c": params.c, "tau": params.tau, "gamma": params.gamma},
        "rmse": fit.rmse if np.isfinite(fit.rmse) else None,
    }


# ---------------------------------------------------------------------------
# commands

def cmd_simulate(args: argparse.Namespace) -> int:
    config, manifest_in = _run_config(args, "simulate")
    snapshot_format = manifest_in.get("snapshot_format", args.snapshot_format or SNAPSHOT_FORMATS[0])
    outdir = _resolve_outdir(args)

    every, snapshot_paths = config.snapshot_every, []

    def write_due(t: int, r: int, cells: np.ndarray) -> None:  # as the run passes, so none is held
        if t % every == 0:
            grid = Grid(cells, config.boundary)
            snapshot_paths.append(write_snapshot(outdir, t, grid, snapshot_format, config.rule_params.chars))

    trajectory = run(config, None if every is None else write_due)
    fractions = normalize(trajectory.counts, config.field_size)

    write_series_csv(outdir / "series.csv", trajectory.counts, fractions)
    manifest = build_manifest("simulate", config, snapshot_format=snapshot_format)
    save_manifest(outdir / "manifest.json", manifest)

    grey, white, black = stabilization_ratio(fractions)
    print(f"model={config.rule_params.name} field={config.width}x{config.height} "
          f"boundary={config.boundary.value} rng_seed={config.rng_seed}")
    conv, ext = trajectory.converged_at, trajectory.black_extinct_at
    print(f"converged_at={conv if conv is not None else 'none'} "
          f"black_extinct_at={ext if ext is not None else 'none'} steps={trajectory.steps}")
    print(f"final grey:white:black = {grey:.9g} : {white:.9g} : {black:.9g}")
    print(f"wrote {outdir / 'series.csv'}" + (f" and {len(snapshot_paths)} snapshots" if snapshot_paths else ""))
    if not trajectory.converged:
        print("warning: run did not converge within max_steps", file=sys.stderr)
        return EXIT_NO_CONVERGENCE
    return EXIT_OK


def cmd_ensemble(args: argparse.Namespace) -> int:
    config, manifest_in = _run_config(args, "ensemble")
    runs = manifest_in.get("runs", DEFAULT_RUNS if args.runs is None else args.runs)
    check_runs(config, runs, args.jobs)
    outdir = _resolve_outdir(args)

    result = run_ensemble(config, runs, jobs=args.jobs)
    mean = result.mean_fractions

    write_mean_series_csv(outdir / "mean_series.csv", mean)
    write_convergence_csv(outdir / "convergence.csv", result)
    manifest = build_manifest("ensemble", config, runs=runs)
    save_manifest(outdir / "manifest.json", manifest)

    stats = result.convergence_stats()
    grey, white, black = stabilization_ratio(mean)
    cp = cross_point(mean)
    converged = [c for c in result.converged_steps if c is not None]
    in_band = sum(1 for c in converged if 80 <= c <= 150)
    summary = {
        "runs": runs,
        "base_seed": config.rng_seed,
        "generator": GENERATOR_NAME,
        "convergence": {
            "min": stats[0] if stats else None,
            "median": stats[1] if stats else None,
            "max": stats[2] if stats else None,
            "unconverged_runs": result.unconverged,
            "converged_in_80_150": in_band,
            "converged_in_80_150_fraction": in_band / runs,
        },
        "stabilization_ratio": {"grey": grey, "white": white, "black": black},
        "cross_point": {"step": cp.step, "level": cp.level, "spread": cp.spread},
        "manifest": manifest,
    }
    save_manifest(outdir / "summary.json", summary)

    print(f"ensemble: {runs} runs of {config.width}x{config.height} "
          f"{config.boundary.value} base_seed={config.rng_seed} jobs={args.jobs}")
    if stats:
        print(f"convergence steps: min={stats[0]:g} median={stats[1]:g} max={stats[2]:g} "
              f"unconverged={len(result.unconverged)} in_80_150={in_band}/{runs}")
    else:
        print(f"convergence steps: no run converged within max_steps={config.max_steps}")
    print(f"stabilization grey:white:black = {grey:.9g} : {white:.9g} : {black:.9g}")
    print(f"cross point: step={cp.step} level={cp.level:.9g} spread={cp.spread:.9g}")
    print(f"wrote {outdir / 'mean_series.csv'}")
    if result.unconverged:
        print(f"warning: {len(result.unconverged)} runs did not converge", file=sys.stderr)
        return EXIT_NO_CONVERGENCE
    return EXIT_OK


def cmd_eval_model(args: argparse.Namespace) -> int:
    if args.t_max < args.t_min:
        raise ValueError("--t-max must be >= --t-min")
    if args.t_max - args.t_min >= MAX_CELLS:
        raise ValueError(f"--t-min {args.t_min} to --t-max {args.t_max} is more than "
                         f"MAX_CELLS = {MAX_CELLS} steps")
    model = AnalyticModel(**{
        curve: LogisticParams(**{name: getattr(args, f"{curve}_{name}") for name in params})
        for curve, params in asdict(reference_model()).items()
    })
    outdir = _resolve_outdir(args)
    write_model_csv(outdir / "model_series.csv", range(args.t_min, args.t_max + 1), model)
    manifest = build_manifest(
        "eval-model",
        model_params=asdict(model),
        t_min=args.t_min,
        t_max=args.t_max,
    )
    save_manifest(outdir / "manifest.json", manifest)
    print(f"evaluated model over t=[{args.t_min}, {args.t_max}]")
    print(f"wrote {outdir / 'model_series.csv'}")
    return EXIT_OK


def cmd_fit(args: argparse.Namespace) -> int:
    steps, white, grey, black = read_series_csv(args.input)
    outdir = _resolve_outdir(args)

    fit = fit_model(steps, grey, white)
    payload = {
        "input": str(args.input),
        "rows": len(steps),
        "grey": _fit_result_dict(fit.grey),
        "white": _fit_result_dict(fit.white),
        "black_rmse": fit.black_rmse,
    }
    save_manifest(outdir / "fit_params.json", payload)
    manifest = build_manifest("fit", input=str(args.input))
    save_manifest(outdir / "manifest.json", manifest)

    stopped = []
    for name, res in (("grey", fit.grey), ("white", fit.white)):
        if res.params is not None:
            print(f"{name}: c={res.params.c:.9g} tau={res.params.tau:.9g} "
                  f"gamma={res.params.gamma:.9g} rmse={res.rmse:.9g}")
            if not res.converged:  # stopped at the evaluation budget
                stopped.append(f"{name} fit did not converge ({res.message})")
        else:
            print(f"{name}: fit failed ({res.message})")
    if fit.model is None or stopped:
        print(f"error: {'; '.join(stopped) if fit.model else 'fit failed'}; see fit_params.json", file=sys.stderr)
        return EXIT_FIT_FAILURE
    print(f"implied black rmse={fit.black_rmse:.9g}")
    write_fit_series_csv(outdir / "fit_series.csv", steps, white, grey, black, fit.curves)
    print(f"wrote {outdir / 'fit_params.json'} and {outdir / 'fit_series.csv'}")
    return EXIT_OK


# ---------------------------------------------------------------------------

@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of every command, built once per process and reused by
    each call of :func:`main`, which in-process callers such as the tests
    make many times; callers must not change it. argparse looks up
    ``sys.stdout`` and ``sys.stderr`` only when it prints, so --help,
    --version and usage errors go to the streams in force at each call."""
    parser = _Parser(prog="newsca", description=__doc__)
    parser.add_argument("--version", action="version", version=f"newsca {__version__}")
    sub = parser.add_subparsers(dest="command")

    sp = sub.add_parser("simulate", help="run one simulation and write its series")
    _add_config_flags(sp, "simulate")
    sp.add_argument("--outdir", default=None)
    sp.set_defaults(func=cmd_simulate)

    sp = sub.add_parser("ensemble", help="run many seeded simulations and aggregate")
    _add_config_flags(sp, "ensemble")
    sp.add_argument("--jobs", type=int, default=1, metavar="N",
                    help="step the runs as N blocks on at most as many threads as there are CPUs; the "
                         "outputs are identical for any N. More jobs pay only on large stacks: on two "
                         "cores, 100 runs are slower with 2 jobs than with 1")
    sp.add_argument("--outdir", default=None)
    sp.set_defaults(func=cmd_ensemble)

    sp = sub.add_parser("eval-model", help="evaluate the closed-form curves over a step range")
    sp.add_argument("--t-min", type=int, default=0)
    sp.add_argument("--t-max", type=int, default=120)
    # --grey-c, --grey-tau, ..., --white-gamma, defaulting to the reference model.
    for curve, params in asdict(reference_model()).items():
        for name, value in params.items():
            sp.add_argument(f"--{curve}-{name}", type=float, default=value)
    sp.add_argument("--outdir", default=None)
    sp.set_defaults(func=cmd_eval_model)

    sp = sub.add_parser("fit", help="fit logistic curves to a series CSV")
    sp.add_argument("--input", type=Path, required=True)
    sp.add_argument("--outdir", default=None)
    sp.set_defaults(func=cmd_fit)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command is None:
            parser.error("a command is required: simulate, ensemble, eval-model or fit")
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (InputError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
