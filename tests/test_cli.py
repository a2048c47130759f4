import json

import pytest

from cqreg import cli
from cqreg.cli import EXIT_DATA, EXIT_FLAGS, EXIT_OK, EXIT_SOLVER, main
from tests.conftest import make_instance


@pytest.fixture
def csv_path(tmp_path):
    ds = make_instance(12, 3, seed=3)
    lines = ["x1,x2,x3,y"] + [
        ",".join(repr(float(v)) for v in (*row, y)) for row, y in zip(ds.inputs, ds.output)
    ]
    path = tmp_path / "data.csv"
    path.write_text("\n".join(lines) + "\n")
    return path


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
    ("--penalty", "l0", "--k", 1, "--big-m", 0),
    ("--penalty", "l0", "--k", 1, "--big-m", -1),
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


@pytest.mark.parametrize(
    "flags",
    [(), ("--penalty", "l1", "--lam", 0.1), ("--penalty", "l0", "--k", 1, "--m-mult", 2.0)],
    ids=["none", "l1", "l0"],
)
def test_fit_then_verify_round_trip(csv_path, tmp_path, capsys, flags):
    out = tmp_path / "r.json"
    assert run(*fit_args(csv_path, out, *flags)) == EXIT_OK
    doc = json.loads(out.read_text())
    assert doc["solver"]["status"] == "optimal"
    assert len(doc["observations"]) == 12
    assert run("verify", "--result", out) == EXIT_OK
    assert "ok: all invariants hold" in capsys.readouterr().out
