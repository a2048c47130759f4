import argparse
import json
from dataclasses import replace

import numpy as np
import pytest

from cqreg import cli, mc, tuning
from cqreg.cli import EXIT_DATA, EXIT_FLAGS, EXIT_OK, EXIT_SOLVER, main
from cqreg import (
    CVConfig,
    EstimatorSpec,
    L0Penalty,
    SolverError,
    __version__,
    cross_validate,
    expectile_to_quantile,
    fit,
)
from cqreg.model import ALL_PAIRS, add_l0, build_cqr
from cqreg.solver import export_mps
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
    ("--penalty", "l1"),
    ("--penalty", "l0", "--big-m", 1.0),
    ("--penalty", "l0", "--k", 4, "--big-m", 1.0),  # the CSV has 3 inputs
    ("--id-col", "y"),  # the output column
]


class TestExitCodes:
    def test_malformed_csv(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_text("x1,y\n1.0,2.0\nabc,3.0\n")
        assert run(*fit_args(path, tmp_path / "r.json")) == EXIT_DATA
        assert "cannot parse" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "text, flags, message",
        [
            (None, (), "cannot read"),
            ("", (), "empty file (header row required)"),
            ("x1,x2\n1,2\n3,4\n", (), "output column 'y' not in header"),
            ("x1,y\n1,2\n3,4\n", ("--id-col", "id"), "id column 'id' not in header"),
            ("id,y\na,2\nb,4\n", ("--id-col", "id"), "need at least one input column"),
            ("x1,y\n1,2\n3\n", (), "row 3 has 1 cells, header has 2"),
            ("x1,y\n1,2\ninf,4\n", (), "row 3, column 'x1': non-finite value"),
            ("x1,y\n1,2\n-3,4\n", (), "inputs must be elementwise nonnegative"),
            ("x1,y,x1\n1,2,3\n4,5,6\n", (), "duplicate column name(s) in header: 'x1'"),
            ("x1, y,id,y \n1,2,a,3\n", ("--id-col", "id"), "duplicate column name(s) in header: 'y'"),
            ("x1,y\n", (), "no data rows"),
            ("x1,y\n\n \n", (), "no data rows"),
            ("x1,y\n\n1,2\n3\n", (), "row 4 has 1 cells, header has 2"),
        ],
        ids=["missing-file", "empty-file", "no-output-column", "no-id-column", "no-input-column",
             "short-row", "infinite-cell", "negative-input", "duplicate-input", "duplicate-output",
             "header-only", "header-then-blank-lines", "short-row-after-blank-line"],
    )
    def test_bad_csv_is_a_data_error(self, tmp_path, capsys, text, flags, message):
        path = tmp_path / "data.csv"
        if text is not None:
            path.write_text(text)
        out = tmp_path / "r.json"
        assert run(*fit_args(path, out, *flags)) == EXIT_DATA
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["fit", "tune", "simulate --out", "simulate --json", "export"])
    def test_unwritable_output_is_a_data_error(self, csv_path, tmp_path, capsys, command):
        bad = tmp_path / "no-such-folder" / "out"
        data = ("--data", csv_path, "--output-col", "y", "--family", "quantile", "--level", 0.5)
        args = {
            "fit": ("fit", *data, "--out", bad),
            "tune": ("tune", *data, "--penalty", "l1", "--lambda-grid", "0.1", "--folds", 2, "--out", bad),
            "simulate --out": ("simulate", "--n", 8, "--d", 2, "--k-true", 1, "--reps", 1, "--methods", "cqr",
                               "--workers", 1, "--out", bad),
            "simulate --json": ("simulate", "--n", 8, "--d", 2, "--k-true", 1, "--reps", 1, "--methods", "cqr",
                                "--workers", 1, "--out", tmp_path / "mc.csv", "--json", bad),
            "export": ("export", *data, "--out", bad),
        }[command]
        assert run(*args) == EXIT_DATA
        assert capsys.readouterr().err.startswith(f"cannot write {bad}: ")

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
            ("--penalty", "l1", "--lambda-grid", "0.1,x"),
            ("--penalty", "l0", "--k-grid", "1,two"),
            ("--penalty", "l1", "--lambda-grid", "0.1,1", "--lambda-count", 5),
            ("--penalty", "l0", "--lambda-count", 3),
            ("--penalty", "l0", "--lambda-grid", "0.1,1"),
            ("--penalty", "l1", "--k-grid", 1),
            ("--penalty", "l1", "--m-multipliers", 1),
            ("--penalty", "l1", "--lambda-count", -1),
            ("--penalty", "l1", "--cv-seed", -1),
            ("--penalty", "l1", "--lambda-grid", ""),  # not the default grid
            ("--penalty", "l0", "--k-grid", ""),
            ("--penalty", "l1", "--id-col", "y"),  # the output column
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

    def test_csv_with_a_byte_order_mark_loads(self, tmp_path):
        # Spreadsheets save "CSV UTF-8" with a byte-order mark before the
        # header; with the output first, the mark would cling to its name.
        ds = make_instance(8, 2, seed=1)
        rows = ["y,a,b"] + [",".join(repr(float(v)) for v in (y, *row)) for row, y in zip(ds.inputs, ds.output)]
        path = tmp_path / "bom.csv"
        path.write_text("\n".join(rows) + "\n", encoding="utf-8-sig")
        dataset, names, _ = cli.load_csv(str(path), "y")
        assert names == ["a", "b"]
        assert np.array_equal(dataset.output, ds.output) and np.array_equal(dataset.inputs, ds.inputs)

    def test_csv_blank_lines_are_skipped(self, tmp_path):
        # Editors and spreadsheets often leave an empty last line.
        path = tmp_path / "blank.csv"
        path.write_text("x1,y\n1,2\n\n3,4\n\n")
        dataset, names, ids = cli.load_csv(str(path), "y")
        assert names == ["x1"] and ids == ["1", "2"]
        assert dataset.inputs.tolist() == [[1.0], [3.0]] and dataset.output.tolist() == [2.0, 4.0]

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
            (("--lambda-count", 3), "--lambda-count requires an l1-* method"),
            (("--methods", "cqr,cer", "--k-grid", 1), "--k-grid requires an l0-* method"),
            (("--methods", "l1-cqr,l1-cer", "--m-multipliers", 1), "--m-multipliers requires an l0-* method"),
            (("--methods", "l0-cqr,cer", "--k-grid", 1, "--lambda-count", 3),
             "--lambda-count requires an l1-* method"),
            (("--methods", "l2-cqr", "--lambda-count", 3), f"unknown method 'l2-cqr'; choose from {sorted(mc.METHODS)}"),
        ],
        ids=["rho-nan", "rho-zero", "rho-negative", "n-zero", "n-one", "lambda-count-without-l1",
             "k-grid-without-l0", "m-multipliers-with-l1-only", "lambda-count-with-l0-only",
             "unknown-method-before-grid-flag"],
    )
    def test_bad_simulate_design_is_a_flag_error(self, tmp_path, capsys, monkeypatch, flags, message):
        # The design, and each grid flag against the methods that read it
        # (a later --methods replaces "cqr"), are checked before any data is drawn.
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

    @pytest.mark.parametrize("text", [None, "{not json"], ids=["missing-file", "not-json"])
    def test_unreadable_result_fails_verify_as_data(self, tmp_path, capsys, text):
        out = tmp_path / "r.json"
        if text is not None:
            out.write_text(text)
        assert run("verify", "--result", out) == EXIT_DATA
        assert capsys.readouterr().err.startswith("cannot read result document:")

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
            {"penalty": {"kind": "l0", "k": 1, "big_m": "5"}},
            {"penalty": {"kind": "l0", "k": 1, "big_m": True}},
            {"penalty": {"kind": "l0", "k": True, "big_m": 1.0}},
            {"penalty": {"kind": "l0", "k": 1, "big_m": 10**400}},
            {"penalty": {"kind": "L0", "k": 1, "big_m": 1.0}},
        ],
        ids=["l0-without-big-m", "spec-is-a-list", "k-not-an-integer", "k-zero", "big-m-nan", "big-m-inf",
             "big-m-zero", "big-m-string", "big-m-true", "k-true", "big-m-overflows", "unknown-kind"],
    )
    def test_malformed_spec_fails_verify_as_data(self, csv_path, tmp_path, capsys, spec):
        out = tmp_path / "r.json"
        assert run(*fit_args(csv_path, out)) == EXIT_OK
        doc = json.loads(out.read_text())
        doc["spec"] = spec
        out.write_text(json.dumps(doc))
        assert run("verify", "--result", out) == EXIT_DATA
        assert capsys.readouterr().err.startswith("malformed result document:")

    @pytest.mark.parametrize(
        "corrupt",
        [
            lambda doc: doc["observations"][0].update(alpha="abc"),
            lambda doc: doc["observations"][0].update(alpha="0.5"),
            lambda doc: doc["observations"][0].update(alpha=None),
            lambda doc: doc["observations"][0].update(alpha=float("nan")),
            lambda doc: doc["observations"][0].update(y_hat=None),
            lambda doc: doc["observations"][0].update(eps_plus=float("nan")),
            lambda doc: doc["observations"][0].update(eps_minus=float("inf")),
            lambda doc: doc["observations"][0]["x"].__setitem__(0, None),
            lambda doc: doc["observations"][0]["beta"].__setitem__(0, None),
            lambda doc: doc["observations"][0]["beta"].append(0.0),
            lambda doc: [o["beta"].append(0.0) for o in doc["observations"]],
            lambda doc: [o.update(beta=[float("nan")] * 3) for o in doc["observations"]],
            lambda doc: doc["observations"][0].pop("eps_plus"),
            lambda doc: doc.update(z=[1]),
            lambda doc: doc.update(z=[1, 0, 2]),
            lambda doc: doc.update(objective=None),
            lambda doc: doc.update(objective="abc"),
            lambda doc: doc.update(objective=float("nan")),
            lambda doc: doc.update(observations=[]),
            lambda doc: doc["observations"][0].update(y=True),
            lambda doc: doc["observations"][0]["x"].__setitem__(0, False),
            lambda doc: doc.update(z=[1, False, 0]),
            lambda doc: doc.update(objective=True),
            lambda doc: doc["observations"][0].update(alpha=10**400),
        ],
        ids=["alpha-string", "alpha-numeric-string", "alpha-null", "alpha-nan", "y_hat-null", "eps_plus-nan",
             "eps_minus-inf", "x-null", "beta-null", "one-beta-row-wider", "every-beta-row-wider",
             "every-beta-nan", "eps_plus-missing", "z-too-short", "z-not-binary", "objective-null",
             "objective-string", "objective-nan", "no-observations", "y-true", "x-false", "z-false",
             "objective-true", "alpha-overflows"],
    )
    def test_malformed_result_fails_verify_as_data(self, csv_path, tmp_path, capsys, corrupt):
        out = tmp_path / "r.json"
        assert run(*fit_args(csv_path, out)) == EXIT_OK
        doc = json.loads(out.read_text())
        corrupt(doc)
        out.write_text(json.dumps(doc))
        assert run("verify", "--result", out) == EXIT_DATA
        captured = capsys.readouterr()
        assert captured.err.startswith("malformed result document:")
        assert "ok" not in captured.out

    def test_sdg_preset_with_lambda_count_replaces_only_lambda(self, csv_path, tmp_path):
        args = cli._build_parser().parse_args(
            ["tune", "--data", str(csv_path), "--output-col", "y", "--family", "quantile",
             "--level", "0.5", "--penalty", "l1", "--preset", "sdg", "--lambda-count", "5",
             "--out", str(tmp_path / "cv.json")]
        )
        cfg = cli._cv_config_from_args(args)
        assert cfg == replace(CVConfig.sdg(), lambda_grid=default_lambda_grid(5))

    def test_anchor_failure_is_a_solver_error(self, csv_path, tmp_path, capsys, monkeypatch):
        def failing_anchor(*args):
            raise RuntimeError("anchor solve failed")

        monkeypatch.setattr(cli, "anchor_big_m", failing_anchor)
        args = fit_args(csv_path, tmp_path / "r.json", "--penalty", "l0", "--k", 1, "--m-mult", 1)
        assert run(*args) == EXIT_SOLVER
        assert capsys.readouterr().err.startswith("solver failure:")

    def test_l0_cap_is_checked_without_z(self, csv_path, tmp_path, capsys):
        # Without selectors every slope is held to big_m; the fit's largest slope is at big_m.
        out = tmp_path / "r.json"
        assert run(*fit_args(csv_path, out, "--penalty", "l0", "--k", 1, "--m-mult", 1)) == EXIT_OK
        doc = json.loads(out.read_text())
        doc["spec"]["penalty"]["big_m"] /= 2
        doc["z"] = None
        out.write_text(json.dumps(doc))
        assert run("verify", "--result", out) == EXIT_SOLVER
        assert "FAIL: coefficient cap beta <= M*z violated" in capsys.readouterr().out

    def test_l0_cardinality_is_checked_without_z(self, csv_path, tmp_path, capsys):
        # Without selectors each input with a slope above tol counts against k.
        out = tmp_path / "r.json"
        assert run(*fit_args(csv_path, out)) == EXIT_OK
        doc = json.loads(out.read_text())
        assert doc["z"] is None
        doc["spec"]["penalty"] = {"kind": "l0", "k": 1, "big_m": 100.0}
        out.write_text(json.dumps(doc))
        assert run("verify", "--result", out) == EXIT_SOLVER
        assert "FAIL: selected 3 variables, cardinality bound 1" in capsys.readouterr().out

    def test_tampered_result_fails_verify(self, csv_path, tmp_path, capsys):
        out = tmp_path / "r.json"
        assert run(*fit_args(csv_path, out)) == EXIT_OK
        doc = json.loads(out.read_text())
        doc["observations"][0]["y_hat"] += 1.0
        out.write_text(json.dumps(doc))
        assert run("verify", "--result", out) == EXIT_SOLVER
        assert "FAIL: residual split identity violated" in capsys.readouterr().out


# Every subcommand's flags: (option strings, default, type, choices, required).
FLAG_TABLE = {
    "fit": [
        ("--data", None, None, None, True),
        ("--output-col", None, None, None, True),
        ("--id-col", None, None, None, False),
        ("--family", None, None, ["quantile", "expectile"], True),
        ("--level", None, "float", None, True),
        ("--penalty", "none", None, ["none", "l1", "l0"], False),
        ("--lam", None, "float", None, False),
        ("--k", None, "int", None, False),
        ("--m-mult", None, "float", None, False),
        ("--big-m", None, "float", None, False),
        ("--out", None, None, None, True),
    ],
    "tune": [
        ("--data", None, None, None, True),
        ("--output-col", None, None, None, True),
        ("--id-col", None, None, None, False),
        ("--family", None, None, ["quantile", "expectile"], True),
        ("--level", None, "float", None, True),
        ("--penalty", None, None, ["l1", "l0"], True),
        ("--folds", 5, "int", None, False),
        ("--cv-seed", 0, "int", None, False),
        ("--preset", None, None, ["sdg"], False),
        ("--lambda-grid", None, None, None, False),
        ("--lambda-count", None, "int", None, False),
        ("--k-grid", None, None, None, False),
        ("--m-multipliers", None, None, None, False),
        ("--out", None, None, None, True),
    ],
    "simulate": [
        ("--n", 100, "int", None, False),
        ("--d", 6, "int", None, False),
        ("--k-true", 2, "int", None, False),
        ("--rho", 10.0, "float", None, False),
        ("--tau", "0.5", None, None, False),
        ("--reps", 10, "int", None, False),
        ("--seed", 0, "int", None, False),
        ("--methods", "l0-cqr", None, None, False),
        ("--folds", 5, "int", None, False),
        ("--lambda-count", None, "int", None, False),
        ("--k-grid", None, None, None, False),
        ("--m-multipliers", None, None, None, False),
        ("--workers", None, "int", None, False),
        ("--out", None, None, None, True),
        ("--json", None, None, None, False),
    ],
    "verify": [
        ("--result", None, None, None, True),
        ("--tol", 1e-6, "float", None, False),
    ],
}
FLAG_TABLE["export"] = FLAG_TABLE["fit"]


def test_flag_table():
    parser = cli._build_parser()
    commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices
    table = {
        name: sorted(
            (*a.option_strings, a.default, getattr(a.type, "__name__", None), a.choices, a.required)
            for a in sub._actions
            if not isinstance(a, argparse._HelpAction)
        )
        for name, sub in commands.items()
    }
    assert table == {name: sorted(rows) for name, rows in FLAG_TABLE.items()}


def test_simulate_csv_holds_the_report_rows(tmp_path):
    # The header is the keys of run_mc's rows, in the order run_mc writes them.
    out, doc = tmp_path / "mc.csv", tmp_path / "mc.json"
    args = ("simulate", "--n", 10, "--d", 2, "--k-true", 1, "--reps", 2, "--methods", "cqr,cer",
            "--workers", 1, "--out", out, "--json", doc)
    assert run(*args) == EXIT_OK
    header, *lines = out.read_text().splitlines()
    assert header == "method,family,tau,n,d,k_true,rho,metric,mean,sd,reps"
    rows = json.loads(doc.read_text())["rows"]
    assert lines == [",".join(str(v) for v in row.values()) for row in rows]
    assert len(lines) == 8


def test_simulate_writes_the_same_bytes_at_any_worker_count(tmp_path):
    # Each (replication, method, tau) cell is one job; the pool's order of
    # completion does not reach either document.
    written = []
    for workers in (1, 2):
        out, doc = tmp_path / f"mc{workers}.csv", tmp_path / f"mc{workers}.json"
        args = ("simulate", "--n", 10, "--d", 2, "--k-true", 1, "--tau", "0.3,0.5", "--reps", 2,
                "--methods", "cqr,l1-cqr,l0-cqr", "--folds", 2, "--lambda-count", 2, "--k-grid", 1,
                "--m-multipliers", 1, "--workers", workers, "--out", out, "--json", doc)
        assert run(*args) == EXIT_OK
        written.append((out.read_bytes(), doc.read_bytes()))
    assert written[0] == written[1]
    assert len(json.loads(written[0][1])["rows"]) == 3 * 2 * 4


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


def _strict_json(text: str):
    def reject(token):
        raise ValueError(f"non-standard JSON constant {token}")

    return json.loads(text, parse_constant=reject)


# A candidate whose fold fit fails has an infinite mean and standard error,
# and a method whose every replication fails has a NaN mean: both documents
# write them as null.
@pytest.mark.parametrize("command", ["tune", "simulate"])
def test_documents_with_failed_fits_are_standard_json(csv_path, tmp_path, monkeypatch, command):
    out = tmp_path / "doc.json"
    if command == "tune":
        original = tuning.fit

        def fold_fit(dataset, spec):
            if spec.penalty.lam == 1.0:
                raise SolverError("injected fold failure")
            return original(dataset, spec)

        monkeypatch.setattr(tuning, "fit", fold_fit)
        args = ("tune", "--data", csv_path, "--output-col", "y", "--family", "quantile", "--level", 0.5,
                "--penalty", "l1", "--folds", 2, "--lambda-grid", "0.01,1", "--out", out)
    else:
        original = mc.fit

        def method_fit(dataset, spec):
            if spec.family == "expectile":
                raise SolverError("injected fit failure")
            return original(dataset, spec)

        monkeypatch.setattr(mc, "fit", method_fit)
        args = ("simulate", "--n", 10, "--d", 2, "--k-true", 1, "--reps", 2, "--methods", "cqr,cer",
                "--workers", 1, "--out", tmp_path / "mc.csv", "--json", out)
    assert run(*args) == EXIT_OK
    doc = _strict_json(out.read_text())
    if command == "tune":
        assert doc["mean_loss"][1] is doc["se_loss"][1] is None
        assert all(np.isfinite(doc[key][0]) for key in ("mean_loss", "se_loss"))
    else:
        means = {(row["method"], row["metric"]): row["mean"] for row in doc["rows"]}
        assert all((mean is None) is (method == "cer") for (method, _), mean in means.items())
        assert doc["failures_by_method"] == {"cqr": 0, "cer": 2}


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
    doc = _strict_json(out.read_text())
    assert doc["solver"]["status"] == "optimal"
    assert doc["solver"]["wall_time"] == fits[0].meta.wall_time > 0
    assert doc["solver"]["constraints"] == n * (n - 1)
    assert len(doc["observations"]) == n
    assert run("verify", "--result", out) == EXIT_OK
    assert "ok: all invariants hold" in capsys.readouterr().out


def test_expectile_fit_prints_the_quantile_read_from_its_residuals(csv_path, tmp_path, capsys):
    out = tmp_path / "r.json"
    assert run("fit", "--data", csv_path, "--output-col", "y", "--family", "expectile", "--level", 0.3,
               "--out", out) == EXIT_OK
    dataset, _, _ = cli.load_csv(str(csv_path), "y")
    quantile = expectile_to_quantile(fit(dataset, EstimatorSpec("expectile", 0.3)))
    assert json.loads(out.read_text())["quantile_from_residuals"] == quantile
    assert f"{'quantile (residuals)':<24}{quantile:>14.2f}" in capsys.readouterr().out.splitlines()


@pytest.mark.parametrize("name", ["model.txt", "model.lp", "model"])
def test_export_writes_mps_under_any_file_name(csv_path, tmp_path, name):
    # HiGHS picks its format from the file name; the export always writes MPS.
    out = tmp_path / name
    assert run("export", *fit_args(csv_path, out)[1:]) == EXIT_OK
    dataset, _, _ = cli.load_csv(str(csv_path), "y")
    assert out.read_text() == export_mps(build_cqr(dataset, 0.5, ALL_PAIRS))


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
