"""Command-line front end.

Subcommands: bound (information matrices and the variance bound), check
(regularity/efficiency/adaptivity diagnostics), estimate (fit a model to
CSV data), are (per-component asymptotic relative efficiency of the
pseudo-likelihood estimator), simulate (Monte Carlo harness).

Each cmd_* computes and returns (JSON object, CSV table as a list of rows
with the header first, or None, pretty lines); `main` alone prints the form
--format asks for, and prints warnings and errors to stderr.

Exit codes: 0 success, 2 usage/config/domain/input errors (unreadable or
unwritable paths included), 3 runtime failures (non-convergence, singular
matrices, failed experiments).  Verdicts such as "not efficient" are data,
not errors, and exit 0.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
import warnings

import numpy as np

from .estimators import one_step, pilot_moment, ple_estimate, rank_transform
from .exceptions import (ConfigError, ConvergenceError, DegenerateMarginError,
                         DomainError, McExperimentError, ShapeError,
                         SingularityError)
from .geometry import (DiagnosticReport, adaptivity_check, efficiency_bundle,
                       efficiency_criterion, regularity_check)
from .mc import (McConfig, pool_size, run_grid, summarize, write_errors_csv,
                 write_report_json, write_summary_csv)
from .models import (FAMILIES, build_model, eval_geometry, load_model,
                     validate_assumption1)

_USAGE_EPILOG = """\
theta is given as whitespace-separated numbers.  For the unrestricted
family it lists the lower triangle of R row by row: r21 r31 r32 r41 r42
r43 ...; for the factor family it lists the p x q loading matrix row by
row.  Examples:

  copula-rank bound --family exchangeable --p 3 --theta 0.5
  copula-rank check --family toeplitz --p 4 --theta "0.49 -0.46 -0.85"
  copula-rank estimate --family exchangeable --p 3 --data obs.csv --method one_step
  copula-rank simulate --config experiment.json --workers 4
"""


# Descriptor fields settable by flags, and the families whose every field is.
_MODEL_FLAGS = {"p": "dimension of the random vector", "q": "number of factors"}
_FLAG_FAMILIES = [fam for fam, (_, fields) in FAMILIES.items()
                  if set(fields) <= set(_MODEL_FLAGS)]


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="copula-rank",
        description="Efficiency bounds and rank-based estimation for "
                    "structured Gaussian copula models.",
        epilog=_USAGE_EPILOG,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_model_flags(p):
        p.add_argument("--model", help="path to a model descriptor JSON file")
        p.add_argument("--family", choices=_FLAG_FAMILIES,
                       help="built-in family (alternative to --model)")
        for key, text in _MODEL_FLAGS.items():
            p.add_argument(f"--{key}", type=int, help=text)

    def add_format(p, choices=("json", "csv", "pretty")):
        p.add_argument("--format", choices=choices, default="pretty",
                       help="output format")

    p_bound = sub.add_parser("bound", help="information matrices and variance bound")
    add_model_flags(p_bound)
    p_bound.add_argument("--theta", nargs="+", required=True)
    add_format(p_bound)
    p_bound.set_defaults(func=cmd_bound)

    p_check = sub.add_parser("check", help="regularity/efficiency/adaptivity checks")
    add_model_flags(p_check)
    p_check.add_argument("--theta", nargs="+", required=True)
    p_check.add_argument("--tolerance", type=float, default=1e-8,
                         help="tolerance of the diagnostics: relative, "
                         "tol*(1 + ||M||_F), in the PLE-efficiency span test; "
                         "absolute on the regularity and adaptivity residuals")
    add_format(p_check)
    p_check.set_defaults(func=cmd_check)

    p_est = sub.add_parser("estimate", help="estimate theta from CSV data")
    add_model_flags(p_est)
    p_est.add_argument("--data", required=True, help="CSV file, n rows x p columns")
    p_est.add_argument("--method", choices=["ple", "one_step", "pilot_moment"],
                       default="one_step")
    add_format(p_est)
    p_est.set_defaults(func=cmd_estimate)

    p_are = sub.add_parser("are", help="asymptotic relative efficiency of the PLE")
    add_model_flags(p_are)
    p_are.add_argument("--theta", nargs="+", required=True)
    add_format(p_are)
    p_are.set_defaults(func=cmd_are)

    p_sim = sub.add_parser("simulate", help="run a Monte Carlo experiment")
    p_sim.add_argument("--config", required=True, help="experiment config JSON")
    p_sim.add_argument("--workers", type=int, default=None,
                       help="worker processes (default: config 'workers', "
                            "then logical cores)")
    p_sim.add_argument("--seed", type=int, default=None, help="override config seed")
    p_sim.add_argument("--out-dir", default=None,
                       help="output directory (default: config 'output' or cwd)")
    add_format(p_sim, ("json", "pretty"))
    p_sim.set_defaults(func=cmd_simulate)
    return parser


def _model_from_args(args):
    if args.model and args.family:
        raise ConfigError("model: give either --model or --family, not both")
    if args.model:
        return load_model(args.model)
    if not args.family:
        raise ConfigError("model: provide --model FILE or --family NAME")
    descriptor = {"family": args.family}
    for key in FAMILIES[args.family][1]:
        if getattr(args, key) is None:
            raise ConfigError(f"{key}: required for family {args.family}")
        descriptor[key] = getattr(args, key)
    return build_model(descriptor)


def _parse_theta(tokens):
    values = []
    for token in tokens:
        for piece in token.split():
            try:
                values.append(float(piece))
            except ValueError as exc:
                raise ConfigError(f"theta: cannot parse {piece!r}") from exc
    return np.asarray(values)


def _matrix(a):
    return [[float(v) for v in row] for row in np.atleast_2d(a)]


def _fmt_matrix(a):
    return np.array2string(np.asarray(a), precision=6, suppress_small=True)


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_bound(args):
    model = _model_from_args(args)
    theta = model.require(_parse_theta(args.theta))
    geom = eval_geometry(model, theta)
    bundle = efficiency_bundle(geom)
    matrices = {  # output key: (bundle field, pretty-format label)
        "fisher_info": ("fisher", "fisher information I(theta)"),
        "efficient_info": ("eff_info", "efficient information I*(theta)"),
        "efficient_info_inv": ("eff_info_inv", "variance bound I*^-1(theta)"),
    }
    obj = {"model": model.descriptor, "theta": [float(v) for v in theta]}
    obj.update((name, _matrix(getattr(bundle, field)))
               for name, (field, _) in matrices.items())
    table = [["matrix", "row", "col", "value"]]
    table += [[name, i, j, repr(v)] for name in matrices
              for i, row in enumerate(obj[name]) for j, v in enumerate(row)]
    lines = [f"model: {model.name}  theta: {theta.tolist()}"]
    for field, label in matrices.values():
        lines += [f"{label}:", _fmt_matrix(getattr(bundle, field))]
    return obj, table, lines


def cmd_check(args):
    tol = args.tolerance
    if not 0.0 <= tol < np.inf:
        raise ConfigError(f"tolerance: expected a finite number >= 0, got {tol!r}")
    model = _model_from_args(args)
    theta = model.require(_parse_theta(args.theta))
    a1 = validate_assumption1(model, theta)
    geom = eval_geometry(model, theta)
    bundle = efficiency_bundle(geom)
    efficiency = efficiency_criterion(geom, rtol=tol)
    adaptivity = adaptivity_check(bundle, tol=tol)
    try:
        ose_influence = np.tensordot(bundle.eff_info_inv, bundle.eff_matrices, axes=1)
        regularity = regularity_check(ose_influence, geom, tol=tol)
        regular = regularity.passed
    except SingularityError as exc:
        regularity = DiagnosticReport(
            criterion="regularity", per_m_residuals=(), tolerance=tol,
            verdict=f"skipped: {exc}")
        regular = None
    obj = {
        "model": model.descriptor,
        "theta": [float(v) for v in theta],
        "assumption1_ok": a1.passed,
        "regular": regular,
        "ple_efficient": efficiency.passed,
        "adaptive": adaptivity.passed,
        "assumption1": a1.to_dict(),
        "regularity": regularity.to_dict(),
        "ple_efficiency": efficiency.to_dict(),
        "adaptivity": adaptivity.to_dict(),
    }
    table = [["criterion", "component", "residual", "tolerance", "verdict"],
             ["assumption1", "", "", "", obj["assumption1"]["verdict"]]]
    for rep in (regularity, efficiency, adaptivity):
        d = rep.to_dict()
        if not d["per_m_residuals"]:
            table.append([d["criterion"], "", "", repr(d["tolerance"]),
                          d["verdict"]])
        for m, resid in enumerate(d["per_m_residuals"]):
            table.append([d["criterion"], m, repr(resid),
                          repr(d["tolerance"]), d["verdict"]])
    verdict = "pass" if a1.passed else f"fail ({', '.join(a1.violated)})"
    lines = [f"model: {model.name}  theta: {theta.tolist()}",
             f"assumption 1: {verdict}  "
             f"(min eigenvalue {a1.min_eigenvalue:.3e}, "
             f"derivative rank {a1.rdot_rank}/{a1.k})"]
    lines += [f"  note: {note}" for note in a1.notes]
    lines += [f"regularity (one-step influence): {regularity.verdict}",
              f"ple efficiency: {efficiency.verdict}  "
              f"(span residuals {[f'{v:.2e}' for v in efficiency.per_m_residuals]})",
              f"adaptivity: {adaptivity.verdict}  "
              f"(information gap {adaptivity.details['info_gap']:.3e})"]
    return obj, table, lines


def _read_csv_data(path):
    rows = []
    with open(path, "r", encoding="utf-8", newline="") as f:
        reader = csv.reader(f)
        for line_no, row in enumerate(reader, start=1):
            if not row or all(cell.strip() == "" for cell in row):
                continue
            try:
                rows.append([float(cell) for cell in row])
            except ValueError as exc:
                if line_no > 1:  # a non-numeric first line is a header
                    raise ConfigError(f"data: line {line_no}: {exc}") from exc
    if not rows:
        raise ConfigError(f"data: no numeric rows in {path}")
    width = len(rows[0])
    for i, row in enumerate(rows):
        if len(row) != width:
            raise ConfigError(f"data: ragged row {i + 1} "
                              f"({len(row)} fields, expected {width})")
    return np.asarray(rows)


def cmd_estimate(args):
    model = _model_from_args(args)
    sample = rank_transform(_read_csv_data(args.data))
    if args.method == "ple":
        result = ple_estimate(model, sample)
    elif args.method == "one_step":
        result = one_step(model, sample)
    else:
        result = pilot_moment(model, sample)
    obj = result.to_dict()
    std = obj["std_errors"] or [""] * len(obj["theta_hat"])
    table = [["component", "theta_hat", "std_error", "method", "converged",
              "tie_warning"]]
    table += [[m + 1, repr(th), "" if std[m] == "" else repr(std[m]),
               obj["method"], obj["converged"], obj["tie_warning"]]
              for m, th in enumerate(obj["theta_hat"])]
    lines = [f"method: {obj['method']}  converged: {obj['converged']}"
             + ("  (ties present)" if obj["tie_warning"] else "")]
    for m, th in enumerate(obj["theta_hat"]):
        se = "" if obj["std_errors"] is None else f"  +/- {obj['std_errors'][m]:.6g}"
        lines.append(f"theta_{m + 1} = {th:.10g}{se}")
    return obj, table, lines


def cmd_are(args):
    model = _model_from_args(args)
    theta = model.require(_parse_theta(args.theta))
    bundle = efficiency_bundle(eval_geometry(model, theta))
    are = np.diag(bundle.eff_info_inv) / np.diag(bundle.ple_cov)
    obj = {
        "model": model.descriptor,
        "theta": [float(v) for v in theta],
        "are": [float(v) for v in are],
    }
    table = [["component", "are"]]
    table += [[m + 1, repr(v)] for m, v in enumerate(obj["are"])]
    lines = [f"model: {model.name}  theta: {theta.tolist()}"]
    lines += [f"ARE_{m + 1} = {v:.6f}" for m, v in enumerate(obj["are"])]
    return obj, table, lines


def _resolve_workers(args, raw):
    if args.workers is not None:
        return args.workers
    if "workers" in raw:
        return raw["workers"]
    return os.cpu_count() or 1


def cmd_simulate(args):
    try:
        with open(args.config, "r", encoding="utf-8") as f:
            raw = json.load(f)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config: invalid JSON ({exc})") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config: expected a JSON object")
    if args.seed is not None:
        raw["seed"] = args.seed
    raw["workers"] = _resolve_workers(args, raw)
    config = McConfig.from_dict(raw)
    out_dir = args.out_dir or raw.get("output") or "."
    os.makedirs(out_dir, exist_ok=True)
    reports = run_grid(config)

    report_path = os.path.join(out_dir, "report.json")
    errors_path = os.path.join(out_dir, "errors.csv")
    summary_path = os.path.join(out_dir, "summary.csv")
    write_report_json(reports[0] if len(reports) == 1 else reports, report_path)
    write_errors_csv(reports, errors_path)
    rows = summarize(reports)
    write_summary_csv(rows, summary_path)

    obj = reports[0].to_dict() if len(reports) == 1 else [r.to_dict()
                                                          for r in reports]
    lines = [f"ran {len(reports)} experiment(s), workers={pool_size(config)}"]
    for row in rows:
        bound = (f"  eff bound {np.round(row['eff_bound'], 6).tolist()}"
                 if row["eff_bound"] is not None else "")
        lines.append(f"theta={row['theta']} n={row['n']} {row['estimator']}: "
                     f"bias {np.round(row['bias'], 6).tolist()} "
                     f"n*var {np.round(row['n_variance'], 6).tolist()}"
                     f"{bound} failures={row['failures']}")
    lines.append(f"wrote {report_path}, {errors_path}, {summary_path}")
    return obj, None, lines


def main(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else 0
    with warnings.catch_warnings(record=True) as caught:
        try:
            obj, table, lines = args.func(args)
            code = 0
        except (ConfigError, DomainError, ShapeError, DegenerateMarginError,
                OSError, UnicodeDecodeError) as exc:
            error, code = exc, 2
        except (ConvergenceError, SingularityError, McExperimentError) as exc:
            error, code = exc, 3
    for warning in caught:
        print(f"warning: {warning.message}", file=sys.stderr)
    if code:
        print(f"error: {error}", file=sys.stderr)
        if isinstance(error, ConvergenceError) and error.trace:
            theta, norm = error.trace[-1]
            print(f"last iterate: theta={np.asarray(theta).tolist()} "
                  f"score sup-norm={norm:.3e}", file=sys.stderr)
        return code
    if args.format == "json":
        print(json.dumps(obj, indent=2, sort_keys=True))
    elif args.format == "csv":
        csv.writer(sys.stdout).writerows(table)
    else:
        print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
