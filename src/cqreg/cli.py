"""Batch command-line surface: fit, tune, simulate, export, verify.

Every fit that `fit`, `tune` and `simulate` make, and the model `export`
writes, states all n(n-1) Afriat rows (`EstimatorSpec`'s default full
mode); no flag selects the cut loop or its tolerance.  `verify` checks a
result document at `FEAS_TOL` (1e-6) unless `--tol` is given.

Exit codes: 0 success, 2 malformed input data (a CSV, or a result document
that is malformed or holds a non-finite number) or a file it cannot read
or write, 3 invalid flags or flag combinations, 4 solver or verification
failure.  `main` maps a ValueError from any command to 3 and a
RuntimeError to 4.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from dataclasses import replace

import numpy as np

from . import __version__
from .data import Dataset
from .estimators import (
    EXPECTILE,
    EstimatorSpec,
    anchor_big_m,
    expectile_to_quantile,
    fit,
    make_builder,
    support,
)
from .mc import METHODS, MCConfig, _check_methods, run_mc
from .model import ALL_PAIRS, FEAS_TOL, FitMeta, FitResult, L0Penalty, L1Penalty, validate_fit
from .solver import export_mps
from .tuning import CVConfig, cross_validate, default_lambda_grid

EXIT_OK = 0
EXIT_DATA = 2
EXIT_FLAGS = 3
EXIT_SOLVER = 4

SCHEMA_VERSION = 2


class CliError(Exception):
    def __init__(self, message: str, code: int):
        super().__init__(message)
        self.code = code


class _Parser(argparse.ArgumentParser):
    """argparse variant that reports flag problems with exit code 3."""

    def error(self, message):
        raise ValueError(message)


def load_csv(path: str, output_col: str, id_col: str | None = None) -> tuple[Dataset, list, list]:
    """Header row required; the designated output column and optional id
    column are split off, every remaining column is a numeric input.  Returns
    the dataset, its input column names and the ids (by default the data rows' 1-based numbers).
    No two header cells may hold the same name, and the id column is not the output.
    Blank lines are skipped; error messages give a row's line number in the file."""
    if id_col == output_col:
        raise ValueError("--id-col and --output-col must name different columns")
    try:
        with open(path, newline="", encoding="utf-8-sig") as handle:  # a byte-order mark is not data
            rows = [
                (line, row)
                for line, row in enumerate(csv.reader(handle), start=1)
                if len(row) > 1 or "".join(row).strip()
            ]
    except OSError as exc:
        raise CliError(f"cannot read {path}: {exc}", EXIT_DATA) from exc
    if not rows:
        raise CliError(f"{path}: empty file (header row required)", EXIT_DATA)
    if len(rows) == 1:
        raise CliError(f"{path}: no data rows", EXIT_DATA)
    header = [h.strip() for h in rows[0][1]]
    duplicates = sorted({h for h in header if header.count(h) > 1})
    if duplicates:
        raise CliError(f"{path}: duplicate column name(s) in header: {', '.join(map(repr, duplicates))}", EXIT_DATA)
    if output_col not in header:
        raise CliError(f"{path}: output column {output_col!r} not in header", EXIT_DATA)
    if id_col is not None and id_col not in header:
        raise CliError(f"{path}: id column {id_col!r} not in header", EXIT_DATA)
    y_pos = header.index(output_col)
    id_pos = header.index(id_col) if id_col is not None else None
    input_pos = [j for j in range(len(header)) if j != y_pos and j != id_pos]
    if not input_pos:
        raise CliError(f"{path}: need at least one input column", EXIT_DATA)

    ids: list[str] = []
    inputs: list[list[float]] = []
    output: list[float] = []
    for r, row in rows[1:]:
        if len(row) != len(header):
            raise CliError(
                f"{path}: row {r} has {len(row)} cells, header has {len(header)}", EXIT_DATA
            )

        def cell(pos: int) -> float:
            raw = row[pos].strip()
            try:
                value = float(raw)
            except ValueError:
                raise CliError(
                    f"{path}: row {r}, column {header[pos]!r}: "
                    f"cannot parse {raw!r} as a number",
                    EXIT_DATA,
                ) from None
            if not np.isfinite(value):
                raise CliError(
                    f"{path}: row {r}, column {header[pos]!r}: non-finite value", EXIT_DATA
                )
            return value

        output.append(cell(y_pos))
        inputs.append([cell(j) for j in input_pos])
        ids.append(row[id_pos].strip() if id_pos is not None else str(len(ids) + 1))
    try:
        dataset = Dataset(np.array(inputs), np.array(output))
    except ValueError as exc:
        raise CliError(f"{path}: {exc}", EXIT_DATA) from exc
    return dataset, [header[j] for j in input_pos], ids


def _spec_from_args(args, dataset: Dataset) -> EstimatorSpec:
    if args.lam is not None and args.penalty != "l1":
        raise ValueError("--lam requires --penalty l1")
    for flag, value in (("--k", args.k), ("--big-m", args.big_m), ("--m-mult", args.m_mult)):
        if value is not None and args.penalty != "l0":
            raise ValueError(f"{flag} requires --penalty l0")
    if args.penalty == "l1" and args.lam is None:
        raise ValueError("--penalty l1 requires --lam")
    if args.penalty == "l0":
        if args.k is None:
            raise ValueError("--penalty l0 requires --k")
        if (args.big_m is None) == (args.m_mult is None):
            raise ValueError("--penalty l0 requires exactly one of --big-m and --m-mult")
        if args.k > dataset.d:
            raise ValueError(f"--k {args.k} exceeds the {dataset.d} input columns")
    spec = EstimatorSpec(args.family, args.level, L1Penalty(args.lam) if args.penalty == "l1" else None)
    if args.penalty == "l0":
        big_m = args.big_m
        if big_m is None:
            big_m = anchor_big_m(dataset, spec, args.m_mult)
        spec = replace(spec, penalty=L0Penalty(args.k, big_m))
    return spec


# The fields of each observation in a result document, after its "id": the
# data (x, y), then the FitResult arrays of the same names.  `fit` writes
# them and `verify` reads them back.
_OBSERVATION_FIELDS = ("x", "y", "alpha", "beta", "y_hat", "eps_plus", "eps_minus")


def _standard(value):
    """`value` with every non-finite float in it, at any depth, replaced by None."""
    if isinstance(value, dict):
        return {key: _standard(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_standard(item) for item in value]
    return None if isinstance(value, float) and not np.isfinite(value) else value


def _write(path, text: str) -> None:
    """Write a file of the CLI; a path it cannot write is a data error, as one it cannot read is."""
    try:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
    except OSError as exc:
        raise CliError(f"cannot write {path}: {exc}", EXIT_DATA) from exc


def _write_json(path, payload: dict) -> None:
    """Write a JSON document of the package, stamped with the schema version
    and the tool; a non-finite number is written as null (standard JSON)."""
    doc = {"schema_version": SCHEMA_VERSION, "tool": {"name": "cqreg", "version": __version__}, **payload}
    _write(path, json.dumps(_standard(doc), indent=2, allow_nan=False) + "\n")


def _write_csv(path, rows) -> None:
    """Write `simulate`'s metrics rows under a header of their keys, which `run_mc` fixes."""
    lines = [",".join(rows[0])] + [",".join(str(v) for v in row.values()) for row in rows]
    _write(path, "\n".join(lines) + "\n")


def _result_document(dataset: Dataset, names, ids, spec: EstimatorSpec, result: FitResult) -> dict:
    chosen = None
    if isinstance(spec.penalty, L1Penalty):
        chosen = {"kind": "l1", "lambda": spec.penalty.lam}
    elif isinstance(spec.penalty, L0Penalty):
        chosen = {"kind": "l0", "k": spec.penalty.k, "big_m": spec.penalty.big_m}
    data = {"x": dataset.inputs, "y": dataset.output}
    columns = [(key, data[key] if key in data else getattr(result, key)) for key in _OBSERVATION_FIELDS]
    observations = [
        {"id": ids[i], **{key: column[i].tolist() for key, column in columns}} for i in range(dataset.n)
    ]
    return {
        "spec": {
            "family": spec.family,
            "level": spec.level,
            "penalty": chosen,
        },
        "variable_names": names,
        "objective": result.objective,
        "support": sorted(support(result)),
        "quantile_from_residuals": (
            expectile_to_quantile(result) if spec.family == EXPECTILE else None
        ),
        "z": None if result.z is None else [int(v) for v in result.z],
        "solver": {
            "status": result.meta.status,
            "iterations": result.meta.iterations,
            "nodes": result.meta.nodes,
            "constraints": result.meta.constraints,
            "wall_time": result.meta.wall_time,
        },
        "observations": observations,
    }


def _print_fit_table(doc: dict) -> None:
    names = doc["variable_names"]
    observations = doc["observations"]
    beta = np.array([o["beta"] for o in observations])
    alpha = np.array([o["alpha"] for o in observations])
    sel = set(doc["support"])
    print(f"{'variable':<24}{'mean beta':>14}")
    for j, name in enumerate(names):
        shown = f"{beta[:, j].mean():.4f}" if j in sel else ""
        print(f"{name:<24}{shown:>14}")
    print(f"{'alpha (mean)':<24}{alpha.mean():>14.4f}")
    penalty = doc["spec"]["penalty"]
    if penalty and penalty["kind"] == "l0":
        print(f"{'k':<24}{penalty['k']:>14}")
        print(f"{'M':<24}{penalty['big_m']:>14.4f}")
    if penalty and penalty["kind"] == "l1":
        print(f"{'lambda':<24}{penalty['lambda']:>14.4f}")
    print(f"{'objective':<24}{doc['objective']:>14.6g}")
    if doc["quantile_from_residuals"] is not None:
        print(f"{'quantile (residuals)':<24}{doc['quantile_from_residuals']:>14.2f}")


def _add_data_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--data", required=True, help="input CSV with a header row")
    p.add_argument("--output-col", required=True, help="name of the output column")
    p.add_argument("--id-col", default=None, help="optional id column")


def _add_spec_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--family", choices=["quantile", "expectile"], required=True)
    p.add_argument("--level", type=float, required=True, help="tau or tilde-tau in (0,1)")
    p.add_argument("--penalty", choices=["none", "l1", "l0"], default="none")
    p.add_argument("--lam", type=float, default=None, help="L1 weight")
    p.add_argument("--k", type=int, default=None, help="L0 subset size")
    p.add_argument("--m-mult", type=float, default=None, help="L0 cap as multiplier of anchor")
    p.add_argument("--big-m", type=float, default=None, help="L0 cap, explicit value")


def _add_cv_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--folds", type=int, default=5)
    p.add_argument("--lambda-count", type=int, default=None)
    p.add_argument("--k-grid", default=None, help="comma-separated subset sizes")
    p.add_argument("--m-multipliers", default=None, help="comma-separated multipliers")


def _build_parser() -> _Parser:
    parser = _Parser(prog="cqreg", description=__doc__)
    parser.add_argument("--version", action="version", version=f"cqreg {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p_fit = sub.add_parser("fit", help="fit one estimator on CSV data")
    _add_data_flags(p_fit)
    _add_spec_flags(p_fit)
    p_fit.add_argument("--out", required=True, help="result JSON path")

    p_tune = sub.add_parser("tune", help="cross-validate a tuning grid")
    _add_data_flags(p_tune)
    p_tune.add_argument("--family", choices=["quantile", "expectile"], required=True)
    p_tune.add_argument("--level", type=float, required=True)
    p_tune.add_argument("--penalty", choices=["l1", "l0"], required=True)
    _add_cv_flags(p_tune)
    p_tune.add_argument("--cv-seed", type=int, default=0)
    p_tune.add_argument("--preset", choices=["sdg"], default=None)
    p_tune.add_argument("--lambda-grid", default=None, help="comma-separated values")
    p_tune.add_argument("--out", required=True, help="report JSON path")

    p_sim = sub.add_parser("simulate", help="run the Monte Carlo protocol")
    p_sim.add_argument("--n", type=int, default=100)
    p_sim.add_argument("--d", type=int, default=6)
    p_sim.add_argument("--k-true", type=int, default=2)
    p_sim.add_argument("--rho", type=float, default=10.0)
    p_sim.add_argument("--tau", default="0.5", help="comma-separated quantile levels")
    p_sim.add_argument("--reps", type=int, default=10)
    p_sim.add_argument("--seed", type=int, default=0)
    p_sim.add_argument("--methods", default="l0-cqr", help="comma-separated method names")
    _add_cv_flags(p_sim)
    p_sim.set_defaults(cv_seed=0, preset=None, lambda_grid=None)
    p_sim.add_argument("--workers", type=int, default=None)
    p_sim.add_argument("--out", required=True, help="metrics CSV path")
    p_sim.add_argument("--json", dest="json_out", default=None, help="optional JSON path")

    p_exp = sub.add_parser("export", help="write the model an identical fit would solve")
    _add_data_flags(p_exp)
    _add_spec_flags(p_exp)
    p_exp.add_argument("--out", required=True, help="MPS path")

    p_ver = sub.add_parser("verify", help="re-check all invariants of a result JSON")
    p_ver.add_argument("--result", required=True, help="result JSON path")
    p_ver.add_argument("--tol", type=float, default=FEAS_TOL, help="feasibility tolerance")
    return parser


def _parse_list(raw: str, flag: str, kind=float) -> tuple:
    try:
        return tuple(kind(v) for v in raw.split(","))
    except ValueError as exc:
        what = "integers" if kind is int else "numbers"
        raise ValueError(f"{flag} expects comma-separated {what}") from exc


def _cmd_fit(args) -> int:
    dataset, names, ids = load_csv(args.data, args.output_col, args.id_col)
    spec = _spec_from_args(args, dataset)
    result = fit(dataset, spec)
    doc = _result_document(dataset, names, ids, spec, result)
    _write_json(args.out, doc)
    _print_fit_table(doc)
    print(f"result written to {args.out}")
    return EXIT_OK


def _cv_config_from_args(args) -> CVConfig:
    make = CVConfig.sdg if args.preset == "sdg" else CVConfig
    cfg = make(folds=args.folds, seed=args.cv_seed)
    if args.lambda_grid is not None:  # `tune` takes at most one of the two
        cfg = replace(cfg, lambda_grid=_parse_list(args.lambda_grid, "--lambda-grid"))
    if args.lambda_count is not None:
        cfg = replace(cfg, lambda_grid=default_lambda_grid(args.lambda_count))
    if args.k_grid is not None:
        cfg = replace(cfg, k_grid=_parse_list(args.k_grid, "--k-grid", int))
    if args.m_multipliers is not None:
        cfg = replace(cfg, m_multipliers=_parse_list(args.m_multipliers, "--m-multipliers"))
    return cfg


def _check_grid_flags(args, penalties, needs: str) -> None:
    """A grid flag that none of `penalties` reads is an error, as `fit`'s
    --lam is; `needs` names what the flag requires, with {} for its penalty."""
    for name, penalty in (("lambda_grid", "l1"), ("lambda_count", "l1"), ("k_grid", "l0"), ("m_multipliers", "l0")):
        if getattr(args, name) is not None and penalty not in penalties:
            raise ValueError(f"--{name.replace('_', '-')} requires {needs.format(penalty)}")


def _cmd_tune(args) -> int:
    _check_grid_flags(args, {args.penalty}, "--penalty {}")
    if args.lambda_grid is not None and args.lambda_count is not None:
        raise ValueError("--lambda-grid and --lambda-count exclude each other")
    dataset, _, _ = load_csv(args.data, args.output_col, args.id_col)
    cfg = _cv_config_from_args(args)
    report = cross_validate(dataset, EstimatorSpec(args.family, args.level), args.penalty, cfg)
    _write_json(args.out, report.to_dict())
    if report.failures:
        print(f"warning: {report.failures} CV fold fit(s) failed; their candidates were left out")
    chosen = ", ".join(f"{k}={v}" for k, v in report.chosen_params.items())
    print(f"chosen: {chosen} (mean OOF loss {report.mean_loss[report.chosen]:.6g})")
    print(f"report written to {args.out}")
    return EXIT_OK


def _cmd_simulate(args) -> int:
    taus = _parse_list(args.tau, "--tau")
    methods = tuple(m.strip() for m in args.methods.split(","))
    _check_methods(methods)
    _check_grid_flags(args, {METHODS[m][1] for m in methods}, "an {}-* method")
    cfg = MCConfig(
        n=args.n,
        d=args.d,
        k_true=args.k_true,
        rho=args.rho,
        taus=taus,
        replications=args.reps,
        seed=args.seed,
    )
    report = run_mc(cfg, methods, _cv_config_from_args(args), workers=args.workers)
    _write_csv(args.out, report.rows)
    if args.json_out:
        _write_json(args.json_out, report.to_dict())
    if report.failures:
        print(f"warning: {report.failures} replication cell(s) failed and were excluded")
    if report.fold_failures:
        print(f"warning: {report.fold_failures} CV fold fit(s) failed; their candidates were left out")
    print(f"metrics written to {args.out}")
    return EXIT_OK


def _cmd_export(args) -> int:
    dataset, _, _ = load_csv(args.data, args.output_col, args.id_col)
    spec = _spec_from_args(args, dataset)
    problem = make_builder(dataset, spec)(ALL_PAIRS)
    _write(args.out, export_mps(problem))
    print(f"model written to {args.out}")
    return EXIT_OK


def _numbers(value, shape: tuple, what: str) -> np.ndarray:
    """A document's JSON numbers as a float array of the given shape; a null,
    a boolean, a string or a non-finite number raises ValueError."""
    array = np.array(value, dtype=object)
    if array.shape != shape:
        raise ValueError(f"{what} has shape {array.shape}, expected {shape}")
    # type(), not isinstance: a JSON true is a bool, which is an int.
    if any(type(v) not in (int, float) for v in array.flat):
        raise ValueError(f"{what} holds a null, a boolean or a string")
    array = array.astype(float)
    if not np.isfinite(array).all():
        raise ValueError(f"{what} holds a non-finite number")
    return array


def _cmd_verify(args) -> int:
    try:
        with open(args.result, encoding="utf-8") as handle:
            doc = json.load(handle)
    except (OSError, json.JSONDecodeError) as exc:
        raise CliError(f"cannot read result document: {exc}", EXIT_DATA) from exc
    try:
        observations = doc["observations"]
        n, d = len(observations), len(doc["variable_names"])
        columns = {
            key: _numbers([o[key] for o in observations], (n, d) if key in ("x", "beta") else (n,), key)
            for key in _OBSERVATION_FIELDS
        }
        dataset = Dataset(columns.pop("x"), columns.pop("y"))
        z = None if doc.get("z") is None else _numbers(doc["z"], (d,), "z")
        if z is not None and not np.isin(z, (0, 1)).all():
            raise ValueError(f"z must hold 0s and 1s, got {doc['z']}")
        result = FitResult(
            **columns,
            z=z,
            objective=_numbers(doc["objective"], (), "objective").item(),
            meta=FitMeta(status=doc["solver"]["status"]),
        )
        big_m = k = None
        penalty = doc["spec"].get("penalty") or {}
        if penalty.get("kind") not in (None, "l1", "l0"):
            raise ValueError(f"unknown penalty kind {penalty['kind']!r}")
        if penalty.get("kind") == "l0":
            cap = L0Penalty(penalty["k"], _numbers(penalty["big_m"], (), "big_m").item())
            big_m, k = cap.big_m, cap.k
    except (AttributeError, KeyError, OverflowError, TypeError, ValueError) as exc:
        raise CliError(f"malformed result document: {exc}", EXIT_DATA) from exc
    violations = validate_fit(result, dataset, tol=args.tol, big_m=big_m, k=k)
    if violations:
        for message in violations:
            print(f"FAIL: {message}")
        raise CliError(f"{len(violations)} invariant violation(s)", EXIT_SOLVER)
    print(f"ok: all invariants hold at tol={args.tol:g}")
    return EXIT_OK


_COMMANDS = {
    "fit": _cmd_fit,
    "tune": _cmd_tune,
    "simulate": _cmd_simulate,
    "export": _cmd_export,
    "verify": _cmd_verify,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except CliError as exc:
        print(str(exc), file=sys.stderr)
        return exc.code
    except ValueError as exc:
        print(f"invalid flags: {exc}", file=sys.stderr)
        return EXIT_FLAGS
    except RuntimeError as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return EXIT_SOLVER


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
