"""Command-line surface: serialize every analysis as JSON or CSV.

Exit codes: 0 success, 1 computational failure (bracket failure, finite
escape), 2 validation error (bad arguments, bad signal file, violated
preconditions).
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import math
import sys
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from . import __version__, criteria, dynamics, relaxation, signals
from .model import diagnostics, equilibria, gbar_deriv


class ValidationError(ValueError, argparse.ArgumentTypeError):
    """Bad user input.  argparse prints the message of an ArgumentTypeError
    raised by a ``type=`` converter, so a bad --eps or --r grid is named."""


def _load_signal(path: str) -> signals.SignalSpec:
    try:
        with open(path) as fh:
            data = json.load(fh)
        return signals.signal_from_json(data)
    except (OSError, json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
        raise ValidationError(f"cannot load signal file {path!r}: {exc}") from exc


def _grid_value(entry: str, text: str) -> float:
    """One entry of the grid text, which must be a finite number."""
    if not entry.strip():
        raise ValidationError(f"grid {text!r} has an empty entry")
    try:
        value = float(entry)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise ValidationError(f"grid entry {entry!r} in {text!r} is not a finite number")
    return value


def _parse_grid(text: str) -> list[float]:
    """Either comma-separated values or "lo:hi:n" (n equally spaced points);
    every value finite, n an integer >= 1."""
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise ValidationError(f"grid must be 'lo:hi:n' or comma list, got {text!r}")
        lo, hi = (_grid_value(p, text) for p in parts[:2])
        if not math.isfinite(hi - lo):  # np.linspace would overflow to inf and nan
            raise ValidationError(f"grid {text!r} spans more than the largest float")
        try:
            n = int(parts[2])
        except ValueError:
            raise ValidationError(f"grid point count {parts[2]!r} in {text!r} is not an integer") from None
        if n < 1:
            raise ValidationError("grid point count must be >= 1")
        return [float(v) for v in np.linspace(lo, hi, n)]
    return [_grid_value(v, text) for v in text.split(",")]


def _emit(args, config: dict, rows: list[dict], fieldnames: list[str]) -> None:
    """Write the result as CSV rows or as JSON with a config echo.  An
    output file that cannot be opened is a ValidationError, as an unreadable
    signal file is."""
    try:
        out = open(args.out, "w", newline="") if args.out else sys.stdout
    except OSError as exc:
        raise ValidationError(f"cannot write output file {args.out!r}: {exc}") from exc
    try:
        if args.format == "csv":
            writer = csv.DictWriter(out, fieldnames=fieldnames)
            writer.writeheader()
            for row in rows:
                writer.writerow({k: ("" if row.get(k) is None else row.get(k)) for k in fieldnames})
        else:
            json.dump(
                {"version": __version__, "config": config, "result": rows},
                out,
                indent=2,
                sort_keys=True,
            )
            out.write("\n")
    finally:
        if args.out:
            out.close()


def cmd_diagnostics(args) -> None:
    d = diagnostics(args.c).to_dict()
    _emit(args, {"command": "diagnostics", "c": args.c}, [d], list(d))


def cmd_classify(args) -> None:
    signal = _load_signal(args.signal)
    row = criteria.classify(args.c, args.lam, signal, args.endpoints_excluded).to_dict()
    if args.format == "csv":  # a CSV cell holds the list and the object as JSON text
        row["intervals"] = json.dumps(row["intervals"], sort_keys=True)
        row["slacks"] = json.dumps(row["slacks"], sort_keys=True)
    _emit(
        args,
        {"command": "classify", "c": args.c, "lambda": args.lam, "signal": args.signal},
        [row],
        ["regime", "fired_rule", "intervals", "slacks", "notes"],
    )


def _autonomous_equilibria(c: float, lam: float) -> list[tuple[float, str]]:
    """The nonnegative roots of lam + gbar(x) = 0 (``model.equilibria``),
    each tagged by the sign of gbar' there."""
    out = []
    for x in (x for x in equilibria(c, lam) if x >= -1e-12):
        slope = gbar_deriv(c, max(x, 0.0))
        if abs(slope) < 1e-6:
            tag = "non-hyperbolic"
        else:
            tag = "attractive" if slope < 0.0 else "repulsive"
        out.append((max(x, 0.0), tag))
    return out


def cmd_bifurcation(args) -> None:
    for flag, value in (("--c", args.c), ("--lambda", args.lam)):
        if value is not None and not math.isfinite(value):
            raise ValidationError(f"bifurcation requires a finite {flag}, got {value}")
    if not args.c > 0.0:
        raise ValidationError(f"bifurcation requires c > 0, got c = {args.c}")
    lams = _parse_grid(args.grid) if args.grid else [args.lam]
    if any(v is None for v in lams):
        raise ValidationError("bifurcation requires --grid or --lambda")
    rows = [
        {"c": args.c, "lambda": lam, "x": x, "stability": tag}
        for lam in lams
        for x, tag in _autonomous_equilibria(args.c, lam)
    ]
    _emit(
        args,
        {"command": "bifurcation", "c": args.c, "grid": args.grid or str(args.lam)},
        rows,
        ["c", "lambda", "x", "stability"],
    )


def cmd_poincare(args) -> None:
    signal = _load_signal(args.signal)
    T = dynamics.signal_period(signal)
    spec = dynamics.OdeSpec(args.c, args.lam, signal)
    sols = dynamics.find_periodic_solutions(spec, T)
    _emit(
        args,
        {"command": "poincare", "c": args.c, "lambda": args.lam, "signal": args.signal},
        [s.to_dict() for s in sols],
        ["fixed_point", "multiplier", "log_multiplier", "kind", "period"],
    )


_RELAXATION_FIELDS = ["c", "eps", "r", "n_fixed_points", "regime", "area", "hausdorff"]


def _relaxation_row(spec: relaxation.RelaxationSpec, res: relaxation.LoopResult) -> dict:
    values = (spec.c, spec.eps, spec.r, res.n_fixed_points, res.regime, res.area, res.hausdorff_to_gamma)
    return dict(zip(_RELAXATION_FIELDS, values))


def cmd_relaxation(args) -> None:
    spec = relaxation.RelaxationSpec(args.c, args.eps, args.r)
    res = relaxation.run_analysis(spec)
    row = _relaxation_row(spec, res)
    if args.format == "json":
        row["solutions"] = [s.to_dict() for s in res.solutions]
    _emit(
        args,
        {"command": "relaxation", "c": args.c, "eps": spec.eps, "r": spec.r},
        [row],
        _RELAXATION_FIELDS,
    )


def cmd_threshold(args) -> None:
    rows = []
    for eps in args.eps:
        res = relaxation.r_threshold(args.c, eps, tol=args.tol)
        rows.append(
            {
                "c": args.c,
                "eps": eps,
                "r_threshold": res.r,
                "regime_below": res.regime_below,
                "regime_above": res.regime_above,
                "censuses": res.censuses,  # r values censused
                "solves": res.solves,  # family solves, several r each
            }
        )
    _emit(
        args,
        {"command": "threshold", "c": args.c, "eps": args.eps, "tol": args.tol},
        rows,
        ["c", "eps", "r_threshold", "regime_below", "regime_above", "censuses", "solves"],
    )


def cmd_laplace(args) -> None:
    signal = _load_signal(args.signal)
    b = signals.bounds(signal)
    w = signals.weighted_bounds(signal, args.dfrak)
    row = {
        "dfrak": args.dfrak,
        "sup": b.sup,
        "inf": b.inf,
        "sup_w": w.sup_w,
        "inf_w": w.inf_w,
        "sup_w_minus_inf": w.sup_w - b.inf,
        "sup_minus_inf_w": b.sup - w.inf_w,
        "exact": w.exact,
    }
    _emit(
        args,
        {"command": "laplace", "dfrak": args.dfrak, "signal": args.signal},
        [row],
        list(row),
    )


def _sweep_cell(task: tuple[float, float, float]) -> dict:
    spec = relaxation.RelaxationSpec(*task)
    return _relaxation_row(spec, relaxation.run_analysis(spec))


def cmd_sweep(args) -> None:
    if not args.r:
        raise ValidationError("sweep requires --r (value, comma list, or lo:hi:n)")
    if args.jobs < 1:
        raise ValidationError(f"sweep requires --jobs >= 1, got {args.jobs}")
    tasks = [(args.c, eps, r) for eps in args.eps for r in args.r]
    if args.jobs > 1:
        # the pool may start all its workers at once, so it gets no more than the cells
        with ProcessPoolExecutor(max_workers=min(args.jobs, len(tasks))) as pool:
            rows = list(pool.map(_sweep_cell, tasks))  # map preserves grid order
    else:
        rows = [_sweep_cell(t) for t in tasks]
    _emit(
        args,
        {"command": "sweep", "c": args.c, "eps": args.eps, "r": args.r, "jobs": args.jobs},
        rows,
        _RELAXATION_FIELDS,
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bistab",
        description="Diagnostics, regime certificates and simulations for the "
        "driven saturable-absorber model x' = lambda + y(t) + gbar(x).",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, *, need_c=True):
        if need_c:
            p.add_argument("--c", type=float, required=True, help="material constant c > 0")
        p.add_argument("--format", choices=("json", "csv"), default="json")
        p.add_argument("--out", default=None, help="output file (default: stdout)")

    p = sub.add_parser("diagnostics", help="closed-form scalar diagnostics for c")
    common(p)
    p.set_defaults(func=cmd_diagnostics)

    p = sub.add_parser("classify", help="regime certificate for (c, lambda, signal)")
    common(p)
    p.add_argument("--lambda", dest="lam", type=float, required=True)
    p.add_argument("--signal", required=True, help="signal JSON file")
    p.add_argument(
        "--endpoints-excluded",
        dest="endpoints_excluded",
        action=argparse.BooleanOptionalAction,
        default=None,
        help="assert the extreme constants are not shift limits of the signal",
    )
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("bifurcation", help="autonomous equilibria over a lambda grid")
    common(p)
    p.add_argument("--lambda", dest="lam", type=float, default=None)
    p.add_argument(
        "--grid",
        default=None,
        help="lambda grid: 'lo:hi:n' or comma list; a negative start needs the = form, --grid=-2:20:441",
    )
    p.set_defaults(func=cmd_bifurcation, format="csv")

    p = sub.add_parser("poincare", help="periodic-solution census for a periodic signal")
    common(p)
    p.add_argument("--lambda", dest="lam", type=float, required=True)
    p.add_argument("--signal", required=True)
    p.set_defaults(func=cmd_poincare)

    p = sub.add_parser("relaxation", help="slow-forcing run: census, loop area, distance to the singular curve")
    common(p)
    p.add_argument("--eps", type=float, required=True, help="one eps value (sweep takes a grid)")
    p.add_argument("--r", type=float, required=True, help="one exponent r (sweep takes a grid)")
    p.set_defaults(func=cmd_relaxation)

    p = sub.add_parser("threshold", help="regime-change exponent r for each eps")
    common(p)
    p.add_argument("--eps", type=_parse_grid, required=True, help="comma list of eps values")
    p.add_argument("--tol", type=float, default=1e-4)
    p.set_defaults(func=cmd_threshold)

    p = sub.add_parser("laplace", help="signal extremes and Laplace-weighted extremes")
    common(p, need_c=False)
    p.add_argument("--signal", required=True)
    p.add_argument("--dfrak", type=float, required=True)
    p.set_defaults(func=cmd_laplace)

    p = sub.add_parser("sweep", help="run_analysis over an (eps, r) grid")
    common(p)
    p.add_argument("--eps", type=_parse_grid, required=True)
    p.add_argument("--r", type=_parse_grid, required=True)
    p.add_argument("--jobs", type=int, default=1)
    p.set_defaults(func=cmd_sweep, format="csv")

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built on the first ``main`` call and reused by every later
    one: parsing leaves it unchanged, and its build costs about as much as a
    short command."""
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        args.func(args)
        return 0
    except RuntimeError as exc:  # dynamics.FiniteEscapeError included
        print(f"computation failed: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
