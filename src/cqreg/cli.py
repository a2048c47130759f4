"""Batch command-line surface: fit, tune, simulate, export, verify.

Every fit that `fit`, `tune` and `simulate` make, and the model `export`
writes, states all n(n-1) Afriat rows (`EstimatorSpec`'s default full
mode); no flag selects the cut loop or its tolerance.  `verify` checks a
result document at `FEAS_TOL` (1e-6) unless `--tol` is given.

Exit codes: 0 success, 2 malformed input data, 3 invalid flags or flag
combinations, 4 solver or verification failure.  `main` maps a ValueError
from any command to 3 and a RuntimeError to 4.
"""

from __future__ import annotations

import argparse
import csv
import json
import operator
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
from .mc import MCConfig, run_mc
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
    the dataset, its input column names and the ids (by default 1-based row numbers)."""
    try:
        with open(path, newline="", encoding="utf-8") as handle:
            reader = csv.reader(handle)
            rows = list(reader)
    except OSError as exc:
        raise CliError(f"cannot read {path}: {exc}", EXIT_DATA) from exc
    if not rows:
        raise CliError(f"{path}: empty file (header row required)", EXIT_DATA)
    header = [h.strip() for h in rows[0]]
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
    for r, row in enumerate(rows[1:], start=2):
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
        ids.append(row[id_pos].strip() if id_pos is not None else str(r - 1))
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


def _result_document(dataset: Dataset, names, ids, spec: EstimatorSpec, result: FitResult) -> dict:
    chosen = None
    if isinstance(spec.penalty, L1Penalty):
        chosen = {"kind": "l1", "lambda": spec.penalty.lam}
    elif isinstance(spec.penalty, L0Penalty):
        chosen = {"kind": "l0", "k": spec.penalty.k, "big_m": spec.penalty.big_m}
    observations = [
        {
            "id": ids[i],
            "x": list(dataset.inputs[i]),
            "y": float(dataset.output[i]),
            "alpha": float(result.alpha[i]),
            "beta": list(result.beta[i]),
            "y_hat": float(result.y_hat[i]),
            "eps_plus": float(result.eps_plus[i]),
            "eps_minus": float(result.eps_minus[i]),
        }
        for i in range(dataset.n)
    ]
    return {
        "schema_version": SCHEMA_VERSION,
        "tool": {"name": "cqreg", "version": __version__},
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
    p_tune.add_argument("--folds", type=int, default=5)
    p_tune.add_argument("--cv-seed", type=int, default=0)
    p_tune.add_argument("--preset", choices=["sdg"], default=None)
    p_tune.add_argument("--lambda-grid", default=None, help="comma-separated values")
    p_tune.add_argument("--lambda-count", type=int, default=None)
    p_tune.add_argument("--k-grid", default=None, help="comma-separated subset sizes")
    p_tune.add_argument("--m-multipliers", default=None, help="comma-separated multipliers")
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
    p_sim.add_argument("--exponent-mode", choices=["even", "position"], default="even")
    p_sim.add_argument("--folds", type=int, default=5)
    p_sim.add_argument("--lambda-count", type=int, default=None)
    p_sim.add_argument("--k-grid", default=None)
    p_sim.add_argument("--m-multipliers", default=None)
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
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(doc, handle, indent=2)
        handle.write("\n")
    _print_fit_table(doc)
    print(f"result written to {args.out}")
    return EXIT_OK


def _cv_config_from_args(args, preset: str | None = None) -> CVConfig:
    if preset == "sdg":
        cfg = CVConfig.sdg(folds=args.folds, seed=getattr(args, "cv_seed", 0))
    else:
        cfg = CVConfig(folds=args.folds, seed=getattr(args, "cv_seed", 0))
    lam = None
    if getattr(args, "lambda_grid", None):
        lam = _parse_list(args.lambda_grid, "--lambda-grid")
    elif getattr(args, "lambda_count", None) is not None:
        lam = default_lambda_grid(args.lambda_count)
    if lam is not None:
        cfg = replace(cfg, lambda_grid=lam)
    if getattr(args, "k_grid", None):
        cfg = replace(cfg, k_grid=_parse_list(args.k_grid, "--k-grid", int))
    if getattr(args, "m_multipliers", None):
        cfg = replace(cfg, m_multipliers=_parse_list(args.m_multipliers, "--m-multipliers"))
    return cfg


def _cmd_tune(args) -> int:
    dataset, _, _ = load_csv(args.data, args.output_col, args.id_col)
    cfg = _cv_config_from_args(args, args.preset)
    report = cross_validate(dataset, EstimatorSpec(args.family, args.level), args.penalty, cfg)
    payload = report.to_dict()
    payload["schema_version"] = SCHEMA_VERSION
    payload["tool"] = {"name": "cqreg", "version": __version__}
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2)
        handle.write("\n")
    if report.failures:
        print(f"warning: {report.failures} CV fold fit(s) failed; their candidates were left out")
    chosen = ", ".join(f"{k}={v}" for k, v in report.chosen_params.items())
    print(f"chosen: {chosen} (mean OOF loss {report.mean_loss[report.chosen]:.6g})")
    print(f"report written to {args.out}")
    return EXIT_OK


def _cmd_simulate(args) -> int:
    taus = _parse_list(args.tau, "--tau")
    methods = tuple(m.strip() for m in args.methods.split(","))
    cfg = MCConfig(
        n=args.n,
        d=args.d,
        k_true=args.k_true,
        rho=args.rho,
        taus=taus,
        replications=args.reps,
        seed=args.seed,
        exponent_mode=args.exponent_mode,
    )
    report = run_mc(cfg, methods, _cv_config_from_args(args), workers=args.workers)
    report.to_csv(args.out)
    if args.json_out:
        report.to_json(args.json_out)
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
    with open(args.out, "w", encoding="utf-8") as handle:
        handle.write(export_mps(problem))
    print(f"model written to {args.out}")
    return EXIT_OK


def _cmd_verify(args) -> int:
    try:
        with open(args.result, encoding="utf-8") as handle:
            doc = json.load(handle)
    except (OSError, json.JSONDecodeError) as exc:
        raise CliError(f"cannot read result document: {exc}", EXIT_DATA) from exc
    try:
        observations = doc["observations"]
        dataset = Dataset(
            np.array([o["x"] for o in observations]),
            np.array([o["y"] for o in observations]),
        )
        result = FitResult(
            alpha=np.array([o["alpha"] for o in observations]),
            beta=np.array([o["beta"] for o in observations]),
            eps_plus=np.array([o["eps_plus"] for o in observations]),
            eps_minus=np.array([o["eps_minus"] for o in observations]),
            y_hat=np.array([o["y_hat"] for o in observations]),
            z=None if doc.get("z") is None else np.array(doc["z"], dtype=int),
            objective=float(doc["objective"]),
            meta=FitMeta(status=doc["solver"]["status"]),
        )
        big_m = k = None
        penalty = doc["spec"].get("penalty")
        if penalty and penalty.get("kind") == "l0":
            cap = L0Penalty(operator.index(penalty["k"]), float(penalty["big_m"]))
            big_m, k = cap.big_m, cap.k
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
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
