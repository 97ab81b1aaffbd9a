"""Output files pinned byte for byte. Each sha256 below was recorded from the
CLI before changes that must leave every byte as it was:

- the fit calling MINPACK through ``leastsq`` and the CSV writers
  formatting Python floats (the first seven digests);
- a fit evaluating the sigmoid once per parameter point for both its
  residual and its Jacobian, and the fit command building
  ``fit_params.json`` without ``asdict`` and its model curves from one
  sigmoid each (all ten; the last three cover eval-model's curves, a
  failed fit and a null ``stderr``);
- the snapshot interval ``snapshot_every`` leaving the engine's config for
  the CLI, which still writes it into each manifest's ``config`` (the last
  five: the manifests of ensemble and simulate, ensemble's summary, and a
  simulate run's series and one pgm snapshot).

Each command runs in a temporary working directory with relative paths, as
``fit_params.json`` records the path of its input."""
import hashlib

import numpy as np
import pytest

from newsca.cli import EXIT_FIT_FAILURE, EXIT_NO_CONVERGENCE, EXIT_OK, main
from newsca.model import reference_model

DIGESTS = {
    "sim/series.csv": "2629c45ef73a6e2b398754f6f093d7fe8accbd47fb130e7d07bf7619c1d86237",
    "ens/mean_series.csv": "ed0ac0a9a8c01df3b96b5537672de3b0c4fb35a8ee01f0819af30b728f273302",
    "ens/convergence.csv": "c2917d413777026cd6ff710d5e7d81dc2d70492e00d39bd5b16dbc8f88eefaf7",
    "fit/fit_params.json": "ad044f0bc930f8e34d570c25a879a267772562a7ea4d37b8e128cc2fa90d7737",
    "fit/fit_series.csv": "9ec4f45f0860e7bf05814bae15f627f5a9ee5befde9679df2d2b3e03a7599786",
    "frac/fit_params.json": "d36955d26765aae3962cd1ab456cb5bc8dac91142ef1b0739788f45048c3761e",
    "frac/fit_series.csv": "d0fe9f6be40631d5461cf1af4e237a1ec05dfbf9a23b277e0f4600ab016a7f6f",
    "model/model_series.csv": "5a6d356a3f445c27b15d6be61572ed6d6f2e4a7c39a071ea7aacd86c4edad5dc",
    "tiny/fit_params.json": "2c18ce6699bf8140c381c43b372fca5cce7b6760af49529b6738a9d46c9aa17a",
    "step/fit_params.json": "2e2615e4db4f6ac0d9bcf5f9586a387c42fb4b0e06ab31f6d0fe37acf82d3d04",
    "ens/manifest.json": "722deb4758024719e642f52313127400e0b4fbd7dde6dbdfe0ca0df321bcfd62",
    "ens/summary.json": "14df8afc89f61362e656d7433ec3d33d7f068fbc452c85f3b8246002c0da67a8",
    "snap/manifest.json": "10c173d889689d1718493f3aec58d95f608593b07266b96ca10236ec30d6151d",
    "snap/series.csv": "2629c45ef73a6e2b398754f6f093d7fe8accbd47fb130e7d07bf7619c1d86237",
    "snap/snapshot_000008.pgm": "ff37a62c46764e50e5da872b38cae8a91d5f574697bf2daebe9b2e789e5143ac",
}

# 6 runs of a 10x10 field stopped at 50 steps: two runs converge and four do
# not, so convergence.csv holds filled and empty converged_at cells.
ENSEMBLE = ["ensemble", "--width", "10", "--height", "10", "--runs", "6", "--seed", "4",
            "--max-steps", "50", "--outdir", "ens"]


@pytest.fixture(autouse=True)
def in_tmp_path(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)


def assert_pinned(*names):
    for name in names:
        with open(name, "rb") as fh:
            assert hashlib.sha256(fh.read()).hexdigest() == DIGESTS[name], name


def fractional_series_csv() -> str:
    """60 noisy samples at steps 0, 1.5, 3, ...: whole and fractional steps,
    and no black column, so the fit rebuilds it as 1 - white - grey."""
    rng = np.random.default_rng(7)
    t = np.arange(60) * 1.5
    grey = np.clip(0.7 / (1 + np.exp(-0.2 * (t - 35))) + rng.normal(0, 0.01, t.size), 0, 1)
    white = np.clip(1 - 0.8 / (1 + np.exp(-0.25 * (t - 25))) + rng.normal(0, 0.01, t.size), 0, 1 - grey)
    rows = zip(t.tolist(), white.tolist(), grey.tolist())
    return "step,white_frac,grey_frac\n" + "".join(f"{s!r},{w!r},{g!r}\n" for s, w, g in rows)


def test_simulate_series():
    assert main(["simulate", "--width", "12", "--height", "9", "--seed", "3", "--outdir", "sim"]) == EXIT_OK
    assert_pinned("sim/series.csv")


def test_ensemble_mean_and_convergence():
    assert main(ENSEMBLE) == EXIT_NO_CONVERGENCE
    assert_pinned("ens/mean_series.csv", "ens/convergence.csv")


def test_ensemble_manifest_and_summary():
    """Their ``config`` holds ``snapshot_every``, null for ensemble."""
    assert main(ENSEMBLE) == EXIT_NO_CONVERGENCE
    assert_pinned("ens/manifest.json", "ens/summary.json")


def test_simulate_manifest_and_snapshots():
    """The manifest's ``config`` holds the snapshot interval, 4 here."""
    assert main(["simulate", "--width", "12", "--height", "9", "--seed", "3", "--snapshot-every", "4",
                 "--snapshot-format", "pgm", "--outdir", "snap"]) == EXIT_OK
    assert_pinned("snap/manifest.json", "snap/series.csv", "snap/snapshot_000008.pgm")


def test_fit_of_an_ensemble_mean():
    main(ENSEMBLE)
    assert main(["fit", "--input", "ens/mean_series.csv", "--outdir", "fit"]) == EXIT_OK
    assert_pinned("fit/fit_params.json", "fit/fit_series.csv")


def test_fit_with_fractional_steps():
    with open("frac.csv", "w") as fh:
        fh.write(fractional_series_csv())
    assert main(["fit", "--input", "frac.csv", "--outdir", "frac"]) == EXIT_OK
    assert_pinned("frac/fit_params.json", "frac/fit_series.csv")


def test_eval_model_series():
    assert main(["eval-model", "--t-min", "-40", "--t-max", "400", "--grey-gamma", "0.4",
                 "--white-c", "0.9", "--outdir", "model"]) == EXIT_OK
    assert_pinned("model/model_series.csv")


def test_failed_fit_params():
    with open("tiny.csv", "w") as fh:
        fh.write("step,white_frac,grey_frac,black_frac\n0,0.9,0.1,0\n1,0.8,0.2,0\n2,0.7,0.3,0\n")
    assert main(["fit", "--input", "tiny.csv", "--outdir", "tiny"]) == EXIT_FIT_FAILURE
    assert_pinned("tiny/fit_params.json")


def test_singular_step_fit_params():
    """A step in grey is fitted by an arbitrarily steep sigmoid whose
    standard errors are undefined: its ``stderr`` is null."""
    t = np.arange(121)
    white = reference_model().curves(t)[1].tolist()
    grey = np.where(t >= 60, 0.7, 0.0).tolist()
    with open("step.csv", "w") as fh:
        fh.write("step,white_frac,grey_frac\n" + "".join(f"{k},{w!r},{g!r}\n" for k, w, g in zip(t, white, grey)))
    assert main(["fit", "--input", "step.csv", "--outdir", "step"]) == EXIT_OK
    assert_pinned("step/fit_params.json")
