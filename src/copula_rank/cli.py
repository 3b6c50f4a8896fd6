"""Command-line front end.

Subcommands: bound (information matrices and the variance bound), check
(regularity/efficiency/adaptivity diagnostics), estimate (fit a model to
CSV data), are (per-component asymptotic relative efficiency of the
pseudo-likelihood estimator), simulate (Monte Carlo harness).

Exit codes: 0 success, 2 usage/config/domain errors, 3 runtime failures
(non-convergence, singular matrices, failed experiments).  Verdicts such
as "not efficient" are data, not errors, and exit 0.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys

import numpy as np

from .estimators import one_step, pilot_moment, ple_estimate, rank_transform
from .exceptions import (ConfigError, ConvergenceError, DegenerateMarginError,
                         DomainError, McExperimentError, ShapeError,
                         SingularityError)
from .geometry import (DiagnosticReport, adaptivity_check, efficiency_bundle,
                       efficiency_criterion, regularity_check)
from .mc import (run_experiment, run_grid, summarize, write_errors_csv,
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

    def add_format(p):
        p.add_argument("--format", choices=["json", "csv", "pretty"],
                       default="pretty", help="output format")

    p_bound = sub.add_parser("bound", help="information matrices and variance bound")
    add_model_flags(p_bound)
    p_bound.add_argument("--theta", nargs="+", required=True)
    add_format(p_bound)
    p_bound.set_defaults(func=cmd_bound)

    p_check = sub.add_parser("check", help="regularity/efficiency/adaptivity checks")
    add_model_flags(p_check)
    p_check.add_argument("--theta", nargs="+", required=True)
    p_check.add_argument("--tolerance", type=float, default=1e-8,
                         help="relative tolerance for the diagnostics")
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
                       help="worker processes (default: config, then "
                            "COPULA_RANK_WORKERS, then logical cores)")
    p_sim.add_argument("--seed", type=int, default=None, help="override config seed")
    p_sim.add_argument("--out-dir", default=None,
                       help="output directory (default: config 'output' or cwd)")
    add_format(p_sim)
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


def _require_in_domain(model, theta):
    theta = model.theta_vec(theta)
    if not model.domain_check(theta):
        raise DomainError(
            f"theta {theta.tolist()} outside the domain of {model.name}")
    return theta


def _matrix(a):
    return [[float(v) for v in row] for row in np.atleast_2d(a)]


def _fmt_matrix(a):
    return np.array2string(np.asarray(a), precision=6, suppress_small=True)


def _emit_json(obj):
    print(json.dumps(obj, indent=2, sort_keys=True))


def _emit_csv(header, rows):
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(header)
    writer.writerows(rows)
    sys.stdout.write(buf.getvalue())


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_bound(args):
    model = _model_from_args(args)
    theta = _require_in_domain(model, _parse_theta(args.theta))
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
    if args.format == "json":
        _emit_json(obj)
    elif args.format == "csv":
        _emit_csv(["matrix", "row", "col", "value"],
                  [[name, i, j, repr(v)] for name in matrices
                   for i, row in enumerate(obj[name]) for j, v in enumerate(row)])
    else:
        print(f"model: {model.name}  theta: {theta.tolist()}")
        for field, label in matrices.values():
            print(f"{label}:")
            print(_fmt_matrix(getattr(bundle, field)))
    return 0


def cmd_check(args):
    model = _model_from_args(args)
    theta = _require_in_domain(model, _parse_theta(args.theta))
    tol = args.tolerance
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
    if args.format == "json":
        _emit_json(obj)
    elif args.format == "csv":
        rows = [["assumption1", "", "", "", obj["assumption1"]["verdict"]]]
        for rep in (regularity, efficiency, adaptivity):
            d = rep.to_dict()
            if not d["per_m_residuals"]:
                rows.append([d["criterion"], "", "", repr(d["tolerance"]),
                             d["verdict"]])
            for m, resid in enumerate(d["per_m_residuals"]):
                rows.append([d["criterion"], m, repr(resid),
                             repr(d["tolerance"]), d["verdict"]])
        _emit_csv(["criterion", "component", "residual", "tolerance", "verdict"],
                  rows)
    else:
        print(f"model: {model.name}  theta: {theta.tolist()}")
        verdict = "pass" if a1.passed else f"fail ({', '.join(a1.violated)})"
        print(f"assumption 1: {verdict}  "
              f"(min eigenvalue {a1.min_eigenvalue:.3e}, "
              f"derivative rank {a1.rdot_rank}/{a1.k})")
        for note in a1.notes:
            print(f"  note: {note}")
        print(f"regularity (one-step influence): {regularity.verdict}")
        print(f"ple efficiency: {efficiency.verdict}  "
              f"(span residuals {[f'{v:.2e}' for v in efficiency.per_m_residuals]})")
        print(f"adaptivity: {adaptivity.verdict}  "
              f"(information gap {adaptivity.details['info_gap']:.3e})")
    return 0


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
    data = _read_csv_data(args.data)
    if data.shape[1] != model.p:
        raise ShapeError(f"data has {data.shape[1]} columns, model needs {model.p}")
    sample = rank_transform(data)
    if args.method == "ple":
        result = ple_estimate(model, sample)
    elif args.method == "one_step":
        result = one_step(model, sample)
    else:
        result = pilot_moment(model, sample)
    obj = result.to_dict()
    if args.format == "json":
        _emit_json(obj)
    elif args.format == "csv":
        rows = []
        std = obj["std_errors"] or [""] * len(obj["theta_hat"])
        for m, th in enumerate(obj["theta_hat"]):
            rows.append([m + 1, repr(th),
                         "" if std[m] == "" else repr(std[m]),
                         obj["method"], obj["converged"], obj["tie_warning"]])
        _emit_csv(["component", "theta_hat", "std_error", "method",
                   "converged", "tie_warning"], rows)
    else:
        print(f"method: {obj['method']}  converged: {obj['converged']}"
              + ("  (ties present)" if obj["tie_warning"] else ""))
        for m, th in enumerate(obj["theta_hat"]):
            se = "" if obj["std_errors"] is None else f"  +/- {obj['std_errors'][m]:.6g}"
            print(f"theta_{m + 1} = {th:.10g}{se}")
    return 0


def cmd_are(args):
    model = _model_from_args(args)
    theta = _require_in_domain(model, _parse_theta(args.theta))
    bundle = efficiency_bundle(eval_geometry(model, theta))
    are = np.diag(bundle.eff_info_inv) / np.diag(bundle.ple_cov)
    obj = {
        "model": model.descriptor,
        "theta": [float(v) for v in theta],
        "are": [float(v) for v in are],
    }
    if args.format == "json":
        _emit_json(obj)
    elif args.format == "csv":
        _emit_csv(["component", "are"],
                  [[m + 1, repr(v)] for m, v in enumerate(obj["are"])])
    else:
        print(f"model: {model.name}  theta: {theta.tolist()}")
        for m, v in enumerate(obj["are"]):
            print(f"ARE_{m + 1} = {v:.6f}")
    return 0


def _resolve_workers(args, raw):
    if args.workers is not None:
        return args.workers
    if "workers" in raw:
        return raw["workers"]
    env = os.environ.get("COPULA_RANK_WORKERS")
    if env is not None:
        try:
            return int(env)
        except ValueError as exc:
            raise ConfigError(f"COPULA_RANK_WORKERS: cannot parse {env!r}") from exc
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
    workers = _resolve_workers(args, raw)
    raw["workers"] = workers

    if "theta_grid" in raw:
        reports = run_grid(raw, raw["theta_grid"], workers=workers)
    else:
        reports = [run_experiment(raw)]

    out_dir = args.out_dir or raw.get("output") or "."
    os.makedirs(out_dir, exist_ok=True)
    report_path = os.path.join(out_dir, "report.json")
    errors_path = os.path.join(out_dir, "errors.csv")
    summary_path = os.path.join(out_dir, "summary.csv")
    write_report_json(reports[0] if len(reports) == 1 else reports, report_path)
    write_errors_csv(reports, errors_path)
    rows = summarize(reports)
    write_summary_csv(rows, summary_path)

    if args.format == "json":
        obj = reports[0].to_dict() if len(reports) == 1 else [r.to_dict()
                                                              for r in reports]
        _emit_json(obj)
    else:
        print(f"ran {len(reports)} experiment(s), workers={workers}")
        for row in rows:
            bound = (f"  eff bound {np.round(row['eff_bound'], 6).tolist()}"
                     if row["eff_bound"] is not None else "")
            print(f"theta={row['theta']} n={row['n']} {row['estimator']}: "
                  f"bias {np.round(row['bias'], 6).tolist()} "
                  f"n*var {np.round(row['n_variance'], 6).tolist()}"
                  f"{bound} failures={row['failures']}")
        print(f"wrote {report_path}, {errors_path}, {summary_path}")
    return 0


def main(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else 0
    try:
        return args.func(args)
    except (ConfigError, DomainError, ShapeError, DegenerateMarginError,
            FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ConvergenceError, SingularityError, McExperimentError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        if isinstance(exc, ConvergenceError) and exc.trace:
            theta, norm = exc.trace[-1]
            print(f"last iterate: theta={np.asarray(theta).tolist()} "
                  f"score sup-norm={norm:.3e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
