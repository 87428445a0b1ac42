"""Batch command-line front end: solve, validate, report."""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from .comm import comm_report
from .nest import load_nest
from .procedure import (
    ProcedureError,
    WeightConfig,
    plan_from_doc,
    plan_to_doc,
    run_procedure,
)
from .solver import SolverConfig, SolverTimeout

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_INPUT = 2
EXIT_TIMEOUT = 3


def _read_json(path: str, what: str) -> dict:
    """The JSON object in an input file; a file that cannot be read is an input error."""
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except FileNotFoundError:
        raise ValueError(f"{what} file not found: {path}") from None
    except OSError as exc:
        raise ValueError(f"cannot read {what} file {path}: {exc.strerror}") from None
    except json.JSONDecodeError as exc:
        raise ValueError(f"{what} file {path}: {exc}") from None
    if not isinstance(doc, dict):
        raise ValueError(f"{what} file {path} does not hold a JSON object")
    return doc


def _parse_weights(items) -> WeightConfig:
    overrides = {}
    for item in items or []:
        if "=" not in item:
            raise ValueError(f"bad weight override {item!r}; expected family=value")
        fam, val = item.split("=", 1)
        try:
            overrides[fam] = Fraction(val)
        except (ValueError, ZeroDivisionError):
            raise ValueError(f"bad weight value {val!r}")
    return WeightConfig.with_overrides(overrides)


def _parse_params(nest, items) -> list[tuple[int, ...]]:
    """Parameter settings to validate at; defaults to N^(0)+2 and N^(0)+4,
    which are one setting, N=(), in a nest without parameters."""
    names = nest.outer_vars.names
    minima = tuple(nest.outer_vars.minima)
    if not items:
        return list(dict.fromkeys(tuple(m + d for m in minima) for d in (2, 4)))
    settings = []
    for item in items:
        vals = dict()
        for piece in item.split(","):
            if "=" not in piece:
                raise ValueError(f"bad parameter setting {piece!r}; expected name=value")
            name, val = piece.split("=", 1)
            if name not in names:
                raise ValueError(f"unknown outer variable {name!r}")
            if name in vals:
                raise ValueError(f"parameter {name!r} given twice in {item!r}")
            try:
                vals[name] = int(val)
            except ValueError:
                raise ValueError(f"bad value {val!r} for parameter {name!r}; "
                                 "expected an integer") from None
        missing = [n for n in names if n not in vals]
        if missing:
            raise ValueError(f"parameter setting {item!r} misses {missing}")
        settings.append(tuple(vals[n] for n in names))
    return settings


def _write_json(doc, path):
    """Write to `path`, or print without one; a file that cannot be written is an input error."""
    text = json.dumps(doc, indent=2) + "\n"
    if path:
        try:
            with open(path, "w") as fh:
                fh.write(text)
        except OSError as exc:
            raise ValueError(f"cannot write output file {path}: {exc.strerror}") from None
    else:
        print(text, end="")


def _print_plan_summary(plan, report):
    print(f"spatial dimensions: {plan.r_space}")
    for sid, st in plan.statements.items():
        print(f"statement {sid}:")
        for xi, (tau, b, a) in enumerate(zip(st.schedule, st.param, st.const)):
            kind = "space" if xi < plan.r_space else "time"
            print(f"  level {xi + 1} ({kind}): tau={list(tau)} b={list(b)} a={a}")
    for aid, al in plan.arrays.items():
        for eta, z, y in zip(al.placement, al.param, al.const):
            print(f"array {aid}: eta={list(eta)} z={list(z)} y={y}")
    for w in plan.warnings:
        print(f"warning: {w}")
    if not report["exchanges"]:
        print("communication-free: all accesses aligned with their operands")
    else:
        for ex in report["exchanges"]:
            print(f"exchange needed for access {tuple(ex['access'])}: slack in {ex['reasons']}")
        for bc in report["broadcasts"]:
            if bc["eligible"]:
                print(f"broadcast eligible: access {tuple(bc['access'])}")
            else:
                print(
                    f"point-to-point (unclassified): access {tuple(bc['access'])} "
                    f"[{bc['failed_condition']}]"
                )


def cmd_solve(args) -> int:
    nest = load_nest(_read_json(args.input, "input"))
    weights = _parse_weights(args.weight)
    cfg = SolverConfig(coeff_bound=args.bound, time_limit=args.time_limit)
    plan = run_procedure(nest, r_space=args.spatial_dims, weights=weights, solver_cfg=cfg)
    report = comm_report(plan, nest)
    doc = plan_to_doc(plan)
    doc["comm_report"] = report
    _write_json(doc, args.out)
    _print_plan_summary(plan, report)
    return EXIT_OK


def cmd_validate(args) -> int:
    from .validation import validate  # the only command that needs numpy

    nest = load_nest(_read_json(args.input, "input"))
    plan = plan_from_doc(_read_json(args.plan, "plan"), nest)
    settings = _parse_params(nest, args.params)
    reports = [validate(nest, plan, setting) for setting in settings]
    doc = {"reports": [r.to_doc() for r in reports]}
    _write_json(doc, args.out)
    ok = all(r.passed for r in reports)
    for r in reports:
        status = "pass" if r.passed else "FAIL"
        print(
            f"N={tuple(r.n_vals)}: {status} "
            f"(violations={len(r.legality_violations)}, comm={r.comm_count})",
            file=sys.stderr,
        )
    return EXIT_OK if ok else EXIT_VIOLATION


def cmd_report(args) -> int:
    nest = load_nest(_read_json(args.input, "input"))
    plan = plan_from_doc(_read_json(args.plan, "plan"), nest)
    report = comm_report(plan, nest)
    _write_json(report, args.out)
    _print_plan_summary(plan, report)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="affsched",
        description="Affine loop-nest scheduling and data allocation",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="compute a transform plan")
    p_solve.add_argument("--input", required=True)
    p_solve.add_argument("--spatial-dims", type=int, default=1)
    p_solve.add_argument("--bound", type=int, default=2)
    p_solve.add_argument("--time-limit", type=float, default=None)
    p_solve.add_argument("--weight", action="append", metavar="FAMILY=VALUE")
    p_solve.add_argument("--out", default=None)
    p_solve.set_defaults(func=cmd_solve)

    p_val = sub.add_parser("validate", help="brute-force check a plan")
    p_val.add_argument("--input", required=True)
    p_val.add_argument("--plan", required=True)
    p_val.add_argument("--params", action="append", metavar="NAME=VALUE[,...]")
    p_val.add_argument("--out", default=None)
    p_val.set_defaults(func=cmd_validate)

    p_rep = sub.add_parser("report", help="communication and broadcast report")
    p_rep.add_argument("--input", required=True)
    p_rep.add_argument("--plan", required=True)
    p_rep.add_argument("--out", default=None)
    p_rep.set_defaults(func=cmd_report)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, ProcedureError, SolverTimeout) as exc:
        print(f"error: {exc}", file=sys.stderr)
        if isinstance(exc, ValueError):  # NestError and EnumerationError included
            return EXIT_INPUT
        return EXIT_VIOLATION if isinstance(exc, ProcedureError) else EXIT_TIMEOUT


if __name__ == "__main__":
    sys.exit(main())
