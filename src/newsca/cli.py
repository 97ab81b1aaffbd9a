"""Command-line front-end: simulate, ensemble, eval-model, fit.

Every command writes a JSON manifest next to its outputs; re-running a
command from its manifest reproduces the outputs byte for byte. Exit codes:
0 success, 1 usage, 2 I/O or malformed input, 3 non-convergence, 4 fit
failure.
"""
from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
from dataclasses import asdict, fields, is_dataclass
from enum import Enum
from pathlib import Path
from typing import get_args, get_origin, get_type_hints

import numpy as np

from . import __version__
from .analytics import cross_point, normalize, stabilization_ratio
from .engine import (
    GENERATOR_NAME,
    EnsembleResult,
    SimulationConfig,
    Trajectory,
    run,
    run_ensemble,
)
from .grid import Boundary, Grid, grid_to_text
from .model import (
    AnalyticModel,
    FitResult,
    LogisticParams,
    eval_black,
    eval_grey,
    eval_white,
    fit_model,
    reference_model,
)
from .rules import MODELS, InnovationRuleParams, NewsRuleParams

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


class CsvFormatError(ValueError):
    """Malformed series CSV; carries the 1-based offending line number."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


class ManifestError(ValueError):
    """Malformed manifest: invalid JSON, or a missing, extra or invalid entry."""


# ---------------------------------------------------------------------------
# manifest

def config_to_dict(config: SimulationConfig) -> dict:
    return {**asdict(config), "boundary": config.boundary.value, "model": config.rule_params.name}


def _conforms(value, kind) -> bool:
    """Whether the JSON ``value`` fits a field annotated ``kind``: an int is
    no bool, a float may be an int, a tuple is a list (or tuple) of its
    items, an enum is one of its values and a dataclass is an object."""
    if kind is float:
        return type(value) in (int, float)
    if get_origin(kind) is tuple:
        items = get_args(kind)
        return (type(value) in (list, tuple) and len(value) == len(items)
                and all(map(_conforms, value, items)))
    if get_args(kind):  # a union such as ``int | None``
        return any(_conforms(value, k) for k in get_args(kind))
    if is_dataclass(kind):
        return type(value) is dict
    if issubclass(kind, Enum):
        return value in [member.value for member in kind]
    return type(value) is kind


def _check_fields(cls, d: dict, what: str) -> None:
    """``d`` holds exactly the fields of ``cls``, each of its annotated type."""
    names = sorted(f.name for f in fields(cls))
    if sorted(d) != names:
        raise ManifestError(f"{what} must hold {names}, got {sorted(d)}")
    hints = get_type_hints(cls)
    for name in names:
        if not _conforms(d[name], hints[name]):
            kind = getattr(hints[name], "__name__", hints[name])
            raise ManifestError(f"{what} entry {name!r} must be {kind}, got {d[name]!r}")


def config_from_dict(d: dict) -> SimulationConfig:
    """Inverse of :func:`config_to_dict`; the config and its ``rule_params``
    must hold exactly the fields of SimulationConfig and of the named model,
    each of its annotated type."""
    d = dict(d)
    model = d.pop("model")
    if model not in MODELS:
        raise ManifestError(f"unknown model {model!r}")
    cls = MODELS[model]
    _check_fields(SimulationConfig, d, "config")
    _check_fields(cls, d["rule_params"], f"rule_params of model {cls.name!r}")
    return SimulationConfig(**{
        **d,
        "seed_position": None if d["seed_position"] is None else tuple(d["seed_position"]),
        "boundary": Boundary(d["boundary"]),
        "rule_params": cls(**d["rule_params"]),
    })


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
    path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")


def load_manifest(path: Path) -> tuple[SimulationConfig, dict]:
    """(config, contents) of a simulate or ensemble manifest; raises ManifestError if malformed."""
    try:
        manifest = json.loads(path.read_text())
        return config_from_dict(manifest["config"]), manifest
    except KeyError as exc:
        raise ManifestError(f"{path}: missing key {exc}") from None
    except (TypeError, ValueError) as exc:
        raise ManifestError(f"{path}: {exc}") from None


# ---------------------------------------------------------------------------
# file formats

def write_series_csv(path: Path, counts: np.ndarray, field_size: int) -> None:
    """Per-step counts plus 9-significant-digit fractions."""
    lines = ["step,white,grey,black,white_frac,grey_frac,black_frac"]
    for t, (w, g, b) in enumerate(counts):
        fw, fg, fb = (v / field_size for v in (w, g, b))
        lines.append(f"{t},{w},{g},{b},{fw:.9g},{fg:.9g},{fb:.9g}")
    path.write_text("\n".join(lines) + "\n")


def write_mean_series_csv(path: Path, mean_fractions: np.ndarray) -> None:
    """Ensemble-mean fractions at full precision (they feed the fitter)."""
    lines = ["step,white_frac,grey_frac,black_frac"]
    for t, (w, g, b) in enumerate(mean_fractions):
        lines.append(f"{t},{w:.17g},{g:.17g},{b:.17g}")
    path.write_text("\n".join(lines) + "\n")


def write_convergence_csv(path: Path, result: EnsembleResult) -> None:
    lines = ["run,seed,converged_at,black_extinct_at,steps,final_white_frac,final_grey_frac,final_black_frac"]
    for i, tr in enumerate(result.trajectories):
        conv = "" if tr.converged_at is None else tr.converged_at
        ext = "" if tr.black_extinct_at is None else tr.black_extinct_at
        fw, fg, fb = tr.counts[-1] / result.config.field_size
        lines.append(
            f"{i},{result.run_seeds[i]},{conv},{ext},{tr.steps},{fw:.9g},{fg:.9g},{fb:.9g}"
        )
    path.write_text("\n".join(lines) + "\n")


def _model_curves(steps: np.ndarray, model: AnalyticModel) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(grey, white, black) model fractions at ``steps``."""
    return eval_grey(steps, model), eval_white(steps, model), eval_black(steps, model)


def write_model_csv(path: Path, steps: np.ndarray, model: AnalyticModel) -> None:
    """(t, grey, white, black) at full precision so rows sum to 1 within 1e-12."""
    grey, white, black = _model_curves(steps, model)
    lines = ["step,grey_frac,white_frac,black_frac"]
    for t, g, w, b in zip(steps, grey, white, black):
        lines.append(f"{int(t)},{g:.17g},{w:.17g},{b:.17g}")
    path.write_text("\n".join(lines) + "\n")


def write_fit_series_csv(
    path: Path, steps: np.ndarray, white, grey, black, model: AnalyticModel
) -> None:
    """Side-by-side simulated and modeled triples."""
    mg, mw, mb = _model_curves(steps, model)
    lines = ["step,white_sim,grey_sim,black_sim,white_model,grey_model,black_model"]
    for i, t in enumerate(steps):
        lines.append(
            f"{int(t)},{white[i]:.17g},{grey[i]:.17g},{black[i]:.17g},"
            f"{mw[i]:.17g},{mg[i]:.17g},{mb[i]:.17g}"
        )
    path.write_text("\n".join(lines) + "\n")


def write_pgm(path: Path, grid: Grid, chars: dict) -> None:
    """Plain-text portable graymap: white=255, grey=128, black=0, looked up
    through each cell code's snapshot character in ``chars``."""
    values = np.array([PGM_LEVELS[chars[code]] for code in sorted(chars)])[grid.cells]
    lines = ["P2", f"{grid.width} {grid.height}", "255"]
    for row in values:
        lines.append(" ".join(str(int(v)) for v in row))
    path.write_text("\n".join(lines) + "\n")


def write_snapshots(outdir: Path, trajectory: Trajectory, fmt: str, chars: dict) -> list[Path]:
    """One file per snapshot, cells written with the alphabet ``chars``."""
    paths = []
    for step_index, grid in trajectory.snapshots:
        if fmt == "pgm":
            p = outdir / f"snapshot_{step_index:06d}.pgm"
            write_pgm(p, grid, chars)
        else:
            p = outdir / f"snapshot_{step_index:06d}.txt"
            p.write_text(grid_to_text(grid, chars))
        paths.append(p)
    return paths


def read_series_csv(path: Path) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Parse any of this package's series CSVs into (steps, white, grey, black).

    Columns are located by header name, so the simulate, ensemble and
    eval-model layouts all work. A missing black column is reconstructed
    from normalization. Every value must be finite and the steps strictly
    increasing; a CsvFormatError names the first line that is not.
    """
    with path.open(newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise CsvFormatError(1, "empty file") from None
        names = [h.strip() for h in header]
        if "step" not in names:
            raise CsvFormatError(1, "missing 'step' column")
        if "white_frac" not in names or "grey_frac" not in names:
            raise CsvFormatError(1, "missing 'white_frac' or 'grey_frac' column")
        columns = [names.index(name) for name in ("step", "white_frac", "grey_frac", "black_frac")
                   if name in names]
        rows = []
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            try:
                values = [float(row[i]) for i in columns]
            except (ValueError, IndexError) as exc:
                raise CsvFormatError(lineno, f"unparseable row: {exc}") from None
            if not all(map(math.isfinite, values)):
                raise CsvFormatError(lineno, f"non-finite value in row {row}")
            if rows and values[0] <= rows[-1][0]:
                raise CsvFormatError(lineno, f"step {values[0]:g} does not follow step {rows[-1][0]:g}")
            rows.append(values)
    steps, white, grey, *black = np.array(rows).reshape(-1, len(columns)).T.copy()
    return steps, white, grey, black[0] if black else 1.0 - white - grey


# ---------------------------------------------------------------------------
# argument parsing

class _Parser(argparse.ArgumentParser):
    # Usage mistakes exit 1, not argparse's default 2 (2 is reserved for I/O).
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be a positive integer")
    return value


def _add_config_flags(sp: argparse.ArgumentParser, snapshots: bool) -> None:
    config, news, innovation = SimulationConfig(), NewsRuleParams(), InnovationRuleParams()
    sp.add_argument("--width", type=_positive_int, default=config.width)
    sp.add_argument("--height", type=_positive_int, default=config.height)
    sp.add_argument("--seed-row", type=int, default=None, help="seed cell row (default: center)")
    sp.add_argument("--seed-col", type=int, default=None, help="seed cell column (default: center)")
    sp.add_argument("--boundary", choices=[b.value for b in Boundary], default=config.boundary.value)
    sp.add_argument("--seed", type=int, default=config.rng_seed, help="RNG seed")
    sp.add_argument("--max-steps", type=_positive_int, default=config.max_steps)
    sp.add_argument("--model", choices=list(MODELS), default=config.rule_params.name)
    sp.add_argument("--adoption-threshold", type=float, default=news.adoption_threshold)
    sp.add_argument("--boost-factor", type=float, default=news.boost_factor)
    sp.add_argument("--boost-below", type=int, default=news.boost_below)
    # Each rule flag's dest is the name of the rule parameter it sets.
    sp.add_argument("--innovation-threshold", dest="threshold", metavar="INNOVATION_THRESHOLD",
                    type=float, default=innovation.threshold)
    if snapshots:
        sp.add_argument("--snapshot-every", type=_positive_int, default=config.snapshot_every)
        sp.add_argument("--snapshot-format", choices=SNAPSHOT_FORMATS, default=SNAPSHOT_FORMATS[0])
    sp.add_argument("--from-manifest", type=Path, default=None,
                    help="load the full configuration from a manifest file (other config flags are ignored)")


def _config_from_args(args: argparse.Namespace, parser: argparse.ArgumentParser) -> SimulationConfig:
    if (args.seed_row is None) != (args.seed_col is None):
        parser.error("--seed-row and --seed-col must be given together")
    seed_position = None if args.seed_row is None else (args.seed_row, args.seed_col)
    cls = MODELS[args.model]
    params = cls(**{f.name: getattr(args, f.name) for f in fields(cls)})
    return SimulationConfig(
        width=args.width,
        height=args.height,
        seed_position=seed_position,
        boundary=Boundary(args.boundary),
        rng_seed=args.seed,
        max_steps=args.max_steps,
        rule_params=params,
        snapshot_every=getattr(args, "snapshot_every", None),
    )


def _resolve_outdir(args: argparse.Namespace) -> Path:
    outdir = args.outdir or os.environ.get(OUTDIR_ENV) or "."
    path = Path(outdir)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _fit_result_dict(fit: FitResult) -> dict:
    return {**asdict(fit), "rmse": fit.rmse if np.isfinite(fit.rmse) else None}


# ---------------------------------------------------------------------------
# commands

def cmd_simulate(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    if args.from_manifest is not None:
        config, manifest_in = load_manifest(args.from_manifest)
        snapshot_format = manifest_in.get("snapshot_format", SNAPSHOT_FORMATS[0])
        if snapshot_format not in SNAPSHOT_FORMATS:
            raise ManifestError(f"{args.from_manifest}: snapshot_format must be one of "
                                f"{list(SNAPSHOT_FORMATS)}, got {snapshot_format!r}")
    else:
        config = _config_from_args(args, parser)
        snapshot_format = args.snapshot_format
    outdir = _resolve_outdir(args)

    trajectory = run(config)

    write_series_csv(outdir / "series.csv", trajectory.counts, config.field_size)
    manifest = build_manifest("simulate", config, snapshot_format=snapshot_format)
    save_manifest(outdir / "manifest.json", manifest)
    snapshot_paths = write_snapshots(outdir, trajectory, snapshot_format, config.rule_params.chars)

    grey, white, black = stabilization_ratio(normalize(trajectory, config.field_size))
    print(f"model={config.rule_params.name} field={config.width}x{config.height} "
          f"boundary={config.boundary.value} rng_seed={config.rng_seed}")
    conv = trajectory.converged_at
    print(f"converged_at={conv if conv is not None else 'none'} "
          f"black_extinct_at={trajectory.black_extinct_at if trajectory.black_extinct_at is not None else 'none'} "
          f"steps={trajectory.steps}")
    print(f"final grey:white:black = {grey:.9g} : {white:.9g} : {black:.9g}")
    print(f"wrote {outdir / 'series.csv'}" + (f" and {len(snapshot_paths)} snapshots" if snapshot_paths else ""))
    if not trajectory.converged:
        print("warning: run did not converge within max_steps", file=sys.stderr)
        return EXIT_NO_CONVERGENCE
    return EXIT_OK


def cmd_ensemble(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    if args.from_manifest is not None:
        config, manifest_in = load_manifest(args.from_manifest)
        runs = manifest_in.get("runs")
        if type(runs) is not int or runs < 1:
            raise ManifestError(f"{args.from_manifest}: runs must be a positive integer, got {runs!r}")
    else:
        config = _config_from_args(args, parser)
        runs = args.runs
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
        "base_seed": result.base_seed,
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
    (outdir / "summary.json").write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n")

    print(f"ensemble: {runs} runs of {config.width}x{config.height} "
          f"{config.boundary.value} base_seed={result.base_seed} jobs={args.jobs}")
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


def cmd_eval_model(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    if args.t_max < args.t_min:
        parser.error("--t-max must be >= --t-min")
    model = AnalyticModel(**{
        curve: LogisticParams(**{name: getattr(args, f"{curve}_{name}") for name in params})
        for curve, params in asdict(reference_model()).items()
    })
    outdir = _resolve_outdir(args)
    steps = np.arange(args.t_min, args.t_max + 1)
    write_model_csv(outdir / "model_series.csv", steps, model)
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


def cmd_fit(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    del parser
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
    (outdir / "fit_params.json").write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    manifest = build_manifest("fit", input=str(args.input))
    save_manifest(outdir / "manifest.json", manifest)

    for name, res in (("grey", fit.grey), ("white", fit.white)):
        if res.params is not None:
            print(f"{name}: c={res.params.c:.9g} tau={res.params.tau:.9g} "
                  f"gamma={res.params.gamma:.9g} rmse={res.rmse:.9g}")
        else:
            print(f"{name}: fit failed ({res.message})")
    if fit.model is not None:
        print(f"implied black rmse={fit.black_rmse:.9g}")
        write_fit_series_csv(outdir / "fit_series.csv", steps, white, grey, black, fit.model)
        print(f"wrote {outdir / 'fit_params.json'} and {outdir / 'fit_series.csv'}")
        return EXIT_OK
    print("fit failed; see fit_params.json", file=sys.stderr)
    return EXIT_FIT_FAILURE


# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="newsca", description=__doc__)
    parser.add_argument("--version", action="version", version=f"newsca {__version__}")
    sub = parser.add_subparsers(dest="command")

    sp = sub.add_parser("simulate", help="run one simulation and write its series")
    _add_config_flags(sp, snapshots=True)
    sp.add_argument("--outdir", default=None)
    sp.set_defaults(func=cmd_simulate)

    sp = sub.add_parser("ensemble", help="run many seeded simulations and aggregate")
    _add_config_flags(sp, snapshots=False)
    sp.add_argument("--runs", type=_positive_int, default=100)
    sp.add_argument("--jobs", type=_positive_int, default=1)
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
    except SystemExit as exc:
        return int(exc.code or 0)
    if getattr(args, "func", None) is None:
        parser.print_help()
        return EXIT_USAGE
    try:
        return args.func(args, parser)
    except SystemExit as exc:  # parser.error inside a command
        return int(exc.code or 0)
    except CsvFormatError as exc:
        print(f"error: {args.input if hasattr(args, 'input') else ''}: {exc}", file=sys.stderr)
        return EXIT_IO
    except (ManifestError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
