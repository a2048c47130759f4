import json
from dataclasses import replace

import numpy as np
import pytest

from cqreg import cli, tuning
from cqreg.cli import EXIT_DATA, EXIT_FLAGS, EXIT_OK, EXIT_SOLVER, main
from cqreg import (
    ALL_PAIRS,
    CVConfig,
    EstimatorSpec,
    L0Penalty,
    SolverError,
    __version__,
    add_l0,
    build_cqr,
    cross_validate,
)
from cqreg.tuning import default_lambda_grid
from tests.conftest import make_instance


def write_csv(path, ds):
    lines = [",".join([*(f"x{j + 1}" for j in range(ds.d)), "y"])] + [
        ",".join(repr(float(v)) for v in (*row, y)) for row, y in zip(ds.inputs, ds.output)
    ]
    path.write_text("\n".join(lines) + "\n")
    return path


@pytest.fixture
def csv_path(tmp_path):
    return write_csv(tmp_path / "data.csv", make_instance(12, 3, seed=3))


def run(*argv):
    return main([str(a) for a in argv])


def fit_args(csv_path, out, *extra):
    return ("fit", "--data", csv_path, "--output-col", "y", "--family", "quantile",
            "--level", 0.5, "--out", out, *extra)


BAD_VALUES = [
    ("--penalty", "l1", "--lam", -1),
    ("--penalty", "l0", "--k", 0, "--big-m", 1.0),
    ("--penalty", "l0", "--k", 1, "--m-mult", 0),
    ("--penalty", "l0", "--k", 1, "--m-mult", -1),
    ("--penalty", "l0", "--k", 1, "--m-mult", "nan"),
    ("--penalty", "l0", "--k", 1, "--m-mult", "inf"),
    ("--penalty", "l0", "--k", 1, "--big-m", 0),
    ("--penalty", "l0", "--k", 1, "--big-m", -1),
    ("--penalty", "l0", "--k", 1, "--big-m", 1.0, "--m-mult", 2.0),
    ("--lam", 0.1),
    ("--penalty", "l0", "--k", 1, "--big-m", 1.0, "--lam", 0.1),
    ("--k", 1),
    ("--big-m", 1.0),
    ("--penalty", "l1", "--lam", 0.1, "--m-mult", 2.0),
    ("--init", "path"),
    ("--solve", "full"),
    ("--tol", 0.01),
]


class TestExitCodes:
    def test_malformed_csv(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_text("x1,y\n1.0,2.0\nabc,3.0\n")
        assert run(*fit_args(path, tmp_path / "r.json")) == EXIT_DATA
        assert "cannot parse" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["fit", "export"])
    @pytest.mark.parametrize("flags", BAD_VALUES, ids=lambda f: " ".join(map(str, f)))
    def test_bad_value_is_a_flag_error(self, csv_path, tmp_path, capsys, command, flags):
        args = list(fit_args(csv_path, tmp_path / "out", *flags))
        args[0] = command
        assert run(*args) == EXIT_FLAGS
        assert capsys.readouterr().err.startswith("invalid flags:")

    @pytest.mark.parametrize(
        "flags",
        [
            ("--penalty", "l0", "--k-grid", 5),
            ("--penalty", "l0", "--m-multipliers", -1),
            ("--penalty", "l1", "--lambda-grid", -1),
            ("--penalty", "l1", "--lambda-count", 0),
            ("--penalty", "l1", "--folds", 13),
            ("--penalty", "l1", "--lambda-grid", "0.1,0.1"),
            ("--penalty", "l0", "--k-grid", "1,1"),
            ("--penalty", "l0", "--m-multipliers", "1,1"),
            ("--penalty", "l0", "--preset", "sdg"),  # k up to 11 at d=3
            ("--penalty", "l0", "--data", "one_input.csv"),  # default k grid empty at d=1
            ("--penalty", "l1", "--solve", "full"),
        ],
        ids=lambda f: " ".join(map(str, f)),
    )
    def test_bad_tune_value_is_a_flag_error(self, csv_path, tmp_path, capsys, monkeypatch, flags):
        # A later --data replaces the first; one_input.csv is relative to tmp_path.
        write_csv(tmp_path / "one_input.csv", make_instance(12, 1, seed=3))
        monkeypatch.chdir(tmp_path)
        args = ("tune", "--data", csv_path, "--output-col", "y", "--family", "quantile",
                "--level", 0.5, "--out", tmp_path / "cv.json", *flags)
        assert run(*args) == EXIT_FLAGS
        assert capsys.readouterr().err.startswith("invalid flags:")

    @pytest.mark.parametrize("workers", [0, -3])
    def test_bad_worker_count_is_a_flag_error(self, tmp_path, capsys, workers):
        out = tmp_path / "mc.csv"
        args = ("simulate", "--n", 8, "--d", 2, "--k-true", 1, "--reps", 1, "--methods", "cqr",
                "--workers", workers, "--out", out)
        assert run(*args) == EXIT_FLAGS
        assert capsys.readouterr().err.startswith("invalid flags: workers must be at least 1")
        assert not out.exists()

    @pytest.mark.parametrize("flags", [("--tau", "0.5,0.5"), ("--methods", "cqr,cqr")], ids=["tau", "methods"])
    def test_repeated_simulate_cell_is_a_flag_error(self, tmp_path, capsys, flags):
        out = tmp_path / "mc.csv"
        args = ("simulate", "--n", 8, "--d", 2, "--k-true", 1, "--reps", 1, "--methods", "cqr",
                "--out", out, *flags)
        assert run(*args) == EXIT_FLAGS
        assert "must be distinct" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "flags, message",
        [
            (("--rho", "nan"), "rho must be positive, got nan"),
            (("--rho", "0"), "rho must be positive, got 0.0"),
            (("--rho", "-1"), "rho must be positive, got -1.0"),
            (("--n", "0"), "n must be an integer of at least 2, got 0"),
            (("--n", "1"), "n must be an integer of at least 2, got 1"),
        ],
        ids=["rho-nan", "rho-zero", "rho-negative", "n-zero", "n-one"],
    )
    def test_bad_simulate_design_is_a_flag_error(self, tmp_path, capsys, monkeypatch, flags, message):
        # The design is checked before any data is drawn.
        monkeypatch.setattr(cli, "run_mc", lambda *args, **kwargs: pytest.fail("run_mc was called"))
        out = tmp_path / "mc.csv"
        args = ("simulate", "--n", 12, "--d", 2, "--k-true", 1, "--reps", 1, "--methods", "cqr",
                "--out", out, *flags)
        assert run(*args) == EXIT_FLAGS
        assert capsys.readouterr().err == f"invalid flags: {message}\n"
        assert not out.exists()

    def test_nan_tol_is_a_flag_error(self, csv_path, tmp_path, capsys):
        out = tmp_path / "r.json"
        assert run(*fit_args(csv_path, out)) == EXIT_OK
        doc = json.loads(out.read_text())
        doc["observations"][0]["y_hat"] += 100.0
        out.write_text(json.dumps(doc))
        assert run("verify", "--result", out, "--tol", "nan") == EXIT_FLAGS
        assert "tol must be finite and nonnegative" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "spec",
        [
            {"penalty": {"kind": "l0", "k": 1}},
            [{"penalty": None}],
            {"penalty": {"kind": "l0", "k": "two", "big_m": 1.0}},
            {"penalty": {"kind": "l0", "k": 0, "big_m": 1.0}},
            {"penalty": {"kind": "l0", "k": 1, "big_m": float("nan")}},
            {"penalty": {"kind": "l0", "k": 1, "big_m": float("inf")}},
            {"penalty": {"kind": "l0", "k": 1, "big_m": 0.0}},
        ],
        ids=["l0-without-big-m", "spec-is-a-list", "k-not-an-integer", "k-zero", "big-m-nan", "big-m-inf",
             "big-m-zero"],
    )
    def test_malformed_spec_fails_verify_as_data(self, csv_path, tmp_path, capsys, spec):
        out = tmp_path / "r.json"
        assert run(*fit_args(csv_path, out)) == EXIT_OK
        doc = json.loads(out.read_text())
        doc["spec"] = spec
        out.write_text(json.dumps(doc))
        assert run("verify", "--result", out) == EXIT_DATA
        assert capsys.readouterr().err.startswith("malformed result document:")

    def test_sdg_preset_with_lambda_count_replaces_only_lambda(self, csv_path, tmp_path):
        args = cli._build_parser().parse_args(
            ["tune", "--data", str(csv_path), "--output-col", "y", "--family", "quantile",
             "--level", "0.5", "--penalty", "l1", "--preset", "sdg", "--lambda-count", "5",
             "--out", str(tmp_path / "cv.json")]
        )
        cfg = cli._cv_config_from_args(args, args.preset)
        assert cfg == replace(CVConfig.sdg(), lambda_grid=default_lambda_grid(5))

    def test_anchor_failure_is_a_solver_error(self, csv_path, tmp_path, capsys, monkeypatch):
        def failing_anchor(*args):
            raise RuntimeError("anchor solve failed")

        monkeypatch.setattr(cli, "anchor_big_m", failing_anchor)
        args = fit_args(csv_path, tmp_path / "r.json", "--penalty", "l0", "--k", 1, "--m-mult", 1)
        assert run(*args) == EXIT_SOLVER
        assert capsys.readouterr().err.startswith("solver failure:")

    def test_tampered_result_fails_verify(self, csv_path, tmp_path, capsys):
        out = tmp_path / "r.json"
        assert run(*fit_args(csv_path, out)) == EXIT_OK
        doc = json.loads(out.read_text())
        doc["observations"][0]["y_hat"] += 1.0
        out.write_text(json.dumps(doc))
        assert run("verify", "--result", out) == EXIT_SOLVER
        assert "FAIL: residual split identity violated" in capsys.readouterr().out


@pytest.mark.parametrize("inject", [False, True])
@pytest.mark.parametrize("command", ["tune", "simulate"])
def test_failed_fold_fits_are_reported(csv_path, tmp_path, capsys, monkeypatch, command, inject):
    # The first CV fold fit raises, as a failed solve does; its candidate
    # drops out, the other still gets chosen, and the exit code stays 0.
    original, calls = tuning.fit, []

    def fold_fit(dataset, spec):
        calls.append(spec)
        if inject and len(calls) == 1:
            raise SolverError("injected fold failure")
        return original(dataset, spec)

    monkeypatch.setattr(tuning, "fit", fold_fit)
    if command == "tune":
        args = ("tune", "--data", csv_path, "--output-col", "y", "--family", "quantile", "--level", 0.5,
                "--penalty", "l1", "--folds", 2, "--lambda-grid", "0.01,1",
                "--out", tmp_path / "cv.json")
    else:
        args = ("simulate", "--n", 11, "--d", 2, "--k-true", 1, "--reps", 1, "--methods", "l1-cqr",
                "--folds", 2, "--lambda-count", 2, "--workers", 1, "--out", tmp_path / "mc.csv")
    assert run(*args) == EXIT_OK
    assert len(calls) == 4
    warnings = [line for line in capsys.readouterr().out.splitlines() if line.startswith("warning:")]
    assert warnings == (["warning: 1 CV fold fit(s) failed; their candidates were left out"] if inject else [])


@pytest.mark.parametrize(
    "flags, grid",
    [
        (("--penalty", "l0", "--m-multipliers", "-1"), "m_multipliers"),
        (("--penalty", "l0", "--m-multipliers", "1,inf"), "m_multipliers"),
        (("--penalty", "l1", "--lambda-grid", "0.1,nan"), "lambda_grid"),
        (("--penalty", "l1", "--lambda-grid", "-1"), "lambda_grid"),
        (("--penalty", "l0", "--k-grid", "0"), "k_grid"),
    ],
    ids=lambda f: " ".join(map(str, f)) if isinstance(f, tuple) else f,
)
def test_bad_tune_grid_fails_before_any_fit(csv_path, tmp_path, capsys, monkeypatch, flags, grid):
    def no_fit(*args):
        raise AssertionError("the grid check comes before any fit")

    monkeypatch.setattr(tuning, "anchor_big_m", no_fit)
    monkeypatch.setattr(tuning, "fit", no_fit)
    args = ("tune", "--data", csv_path, "--output-col", "y", "--family", "quantile", "--level", 0.5,
            "--out", tmp_path / "cv.json", *flags)
    assert run(*args) == EXIT_FLAGS
    assert capsys.readouterr().err.startswith(f"invalid flags: {grid} values must be")


def test_tune_report_is_the_full_mode_cross_validation(tmp_path):
    # At n = 20 a cuts-mode fold fit at tol 0.01 moves the loss of lambda = 1 by 2e-3.
    csv_path = write_csv(tmp_path / "data.csv", make_instance(20, 3, seed=3))
    out = tmp_path / "cv.json"
    assert run("tune", "--data", csv_path, "--output-col", "y", "--family", "quantile", "--level", 0.5,
               "--penalty", "l1", "--folds", 2, "--lambda-grid", "0.01,1", "--out", out) == EXIT_OK
    doc = json.loads(out.read_text())
    assert doc.pop("schema_version") == cli.SCHEMA_VERSION
    assert doc.pop("tool") == {"name": "cqreg", "version": __version__}
    dataset, _, _ = cli.load_csv(str(csv_path), "y")
    cfg = CVConfig(folds=2, lambda_grid=(0.01, 1.0))
    expected = cross_validate(dataset, EstimatorSpec("quantile", 0.5), "l1", cfg).to_dict()
    assert doc == json.loads(json.dumps(expected))


@pytest.mark.parametrize(
    "n, flags",
    [
        (12, ()),
        (12, ("--penalty", "l1", "--lam", 0.1)),
        (12, ("--penalty", "l0", "--k", 1, "--m-mult", 2.0)),
        (45, ()),
        (45, ("--penalty", "l1", "--lam", 0.1)),
    ],
    ids=["none", "l1", "l0", "none-n45", "l1-n45"],
)
def test_fit_then_verify_round_trip(tmp_path, capsys, monkeypatch, n, flags):
    csv_path = write_csv(tmp_path / "data.csv", make_instance(n, 3, seed=3))
    out = tmp_path / "r.json"
    original, fits = cli.fit, []

    def recording_fit(dataset, spec):
        fits.append(original(dataset, spec))
        return fits[-1]

    monkeypatch.setattr(cli, "fit", recording_fit)
    assert run(*fit_args(csv_path, out, *flags)) == EXIT_OK
    doc = json.loads(out.read_text())
    assert doc["solver"]["status"] == "optimal"
    assert doc["solver"]["wall_time"] == fits[0].meta.wall_time > 0
    assert doc["solver"]["constraints"] == n * (n - 1)
    assert len(doc["observations"]) == n
    assert run("verify", "--result", out) == EXIT_OK
    assert "ok: all invariants hold" in capsys.readouterr().out


def test_export_lists_columns_in_order_with_selectors_marked(tmp_path):
    ds = make_instance(6, 3, seed=3)
    path = write_csv(tmp_path / "data.csv", ds)
    out = tmp_path / "model.mps"
    args = fit_args(path, out, "--penalty", "l0", "--k", 1, "--big-m", 2.0)
    assert run("export", *args[1:]) == EXIT_OK
    columns = out.read_text().split("\nCOLUMNS\n")[1].split("\nRHS\n")[0].splitlines()
    seen, markers = [], []
    for line in columns:
        name = line.split()[0]
        if "'MARKER'" in line:
            markers.append((line.split()[-1], len(seen)))
        elif name not in seen:
            seen.append(name)
    problem = add_l0(build_cqr(ds, 0.5, ALL_PAIRS), L0Penalty(1, 2.0))
    assert seen == (
        [f"YH{i}" for i in range(1, 7)]
        + [f"B{i}_{j}" for i in range(1, 7) for j in range(1, 4)]
        + [f"EP{i}" for i in range(1, 7)]
        + [f"EN{i}" for i in range(1, 7)]
        + ["Z1", "Z2", "Z3"]
    )
    z = np.flatnonzero(problem.integer)
    assert list(z) == list(range(z[0], z[-1] + 1))
    assert markers == [("'INTORG'", z[0]), ("'INTEND'", z[-1] + 1)]
