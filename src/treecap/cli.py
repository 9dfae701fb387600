"""Command-line interface.

Usage examples:

    treecap cap-tree --set "prefix:1/2"
    treecap cap-cond --set "union(shadow:2,0, shadow:2,3)" --n-max 8
    treecap extremal --set "shadow:1,0"
    treecap build-set --eps 0.3 --tol 1e-10
    treecap equal-split --eps 0.25 --n 3
    treecap solve-disc --set full --inner-radius 0.5
    treecap experiment blowup --set "prefix:1/2" --n-max 13
    treecap experiment plateau --eps 0.25 --n-max 12 --exact
    treecap experiment lowerbound --eps 0.2 --n-max 8 --samples 100 --seed 7
    treecap experiment compare --set "prefix:3/8" --n-max 6
    treecap experiment conjecture --delta 0.25,0.0625 --n-max 12

Exit codes: 0 on success (and a passing verdict), 1 when an experiment's
verdict fails, 2 on input or computation errors.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys

from . import __version__, experiments
from .builder import equal_split, set_of_capacity
from .capacity import (
    EquilibriumMeasure,
    _num,
    capacity,
    condenser_capacity,
    energy,
    extremal,
)
from .disc import CondenserProblem, SolverGrid, solve
from .errors import TreecapError
from .experiments import check_n_max, parse_set_spec, rows_to_csv


def _add_output_flags(parser):
    parser.add_argument(
        "--format", choices=("json", "csv"), default="json", help="output format"
    )
    parser.add_argument(
        "--out", default=None, help="write output to this path instead of stdout"
    )


def _add_grid_flags(parser):
    parser.add_argument(
        "--grid-angular", type=int, default=1024, help="angular cells (power of two)"
    )
    parser.add_argument(
        "--grid-radial", type=int, default=200, help="radial layers"
    )


def _add_set_flags(parser):
    parser.add_argument("--set", required=True, help="set specification")
    parser.add_argument(
        "--tol", type=float, default=1e-9, help="tolerance for cap:/split: atoms"
    )


def _grid(args) -> SolverGrid:
    return SolverGrid(n_angular=args.grid_angular, n_radial=args.grid_radial)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="treecap",
        description="capacities of dyadic-tree boundary sets and disc condensers",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("cap-tree", help="capacity of a boundary set")
    _add_set_flags(p)
    p.add_argument("--exact", action="store_true", help="exact rational arithmetic")
    _add_output_flags(p)

    p = sub.add_parser("cap-cond", help="condenser capacities at cut levels 0..n-max")
    _add_set_flags(p)
    p.add_argument("--n-max", type=int, required=True)
    p.add_argument("--exact", action="store_true")
    _add_output_flags(p)

    p = sub.add_parser("extremal", help="extremal flux, path sums, equilibrium measure")
    _add_set_flags(p)
    p.add_argument("--exact", action="store_true")
    _add_output_flags(p)

    p = sub.add_parser("build-set", help="build a set of prescribed capacity")
    p.add_argument("--eps", type=float, required=True, help="target capacity")
    p.add_argument("--tol", type=float, default=1e-9)
    _add_output_flags(p)

    p = sub.add_parser("equal-split", help="build an equal-split family member")
    p.add_argument("--eps", type=float, required=True)
    p.add_argument("--n", type=int, required=True, help="split depth")
    p.add_argument("--tol", type=float, default=1e-9)
    _add_output_flags(p)

    p = sub.add_parser("solve-disc", help="solve one disc condenser")
    _add_set_flags(p)
    p.add_argument("--inner-radius", type=float, default=0.5)
    p.add_argument("--field-out", default=None, help="dump the potential field as CSV")
    _add_grid_flags(p)
    _add_output_flags(p)

    exp = sub.add_parser("experiment", help="run a named experiment")
    exp_sub = exp.add_subparsers(dest="experiment", required=True)

    p = exp_sub.add_parser("blowup", help="condenser capacity growth for a fixed set")
    _add_set_flags(p)
    p.add_argument("--n-max", type=int, default=13)
    p.add_argument("--threshold", type=float, default=1e3)
    p.add_argument("--with-disc", action="store_true")
    _add_grid_flags(p)
    _add_output_flags(p)

    p = exp_sub.add_parser("plateau", help="equal-split family stays bounded")
    p.add_argument("--eps", type=float, required=True)
    p.add_argument("--n-max", type=int, default=12)
    p.add_argument("--tol", type=float, default=1e-9)
    p.add_argument("--exact", action="store_true")
    _add_output_flags(p)

    p = exp_sub.add_parser("lowerbound", help="sampled sharp lower bound")
    p.add_argument("--eps", type=float, required=True)
    p.add_argument("--n-max", type=int, default=8)
    p.add_argument("--samples", type=int, default=100)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--tol", type=float, default=1e-6)
    _add_output_flags(p)

    p = exp_sub.add_parser("compare", help="tree vs disc condenser capacities")
    _add_set_flags(p)
    p.add_argument("--n-max", type=int, default=6)
    _add_grid_flags(p)
    _add_output_flags(p)

    p = exp_sub.add_parser("conjecture", help="bound vs gap-form rescaling chart")
    p.add_argument(
        "--delta", required=True, help="comma-separated gap values in (0, 1/2)"
    )
    p.add_argument("--n-max", type=int, default=12)
    p.add_argument("--with-disc", action="store_true")
    _add_grid_flags(p)
    _add_output_flags(p)

    return parser


def _cmd_cap_tree(args):
    value = capacity(parse_set_spec(args.set, args.tol), exact=args.exact)
    payload = {"set": args.set, "exact": args.exact, "capacity": _num(value)}
    return payload, [payload]


def _cmd_cap_cond(args):
    check_n_max(args.n_max)
    bset = parse_set_spec(args.set, args.tol)
    rows = [
        {"n": n, "value": _num(condenser_capacity(bset, n, exact=args.exact))}
        for n in range(args.n_max + 1)
    ]
    return {"set": args.set, "exact": args.exact, "rows": rows}, rows


def _cmd_extremal(args):
    bset = parse_set_spec(args.set, args.tol)
    bset.check_exportable()
    flux = extremal(bset, exact=args.exact)
    vertices = flux.to_json_obj()
    payload = {
        "set": args.set,
        "capacity": _num(flux.root_capacity),
        "energy": _num(energy(flux)),
        "vertices": vertices,
        "measure": EquilibriumMeasure(flux).to_json_obj(),
    }
    return payload, vertices


def _cmd_build_set(args):
    bset = set_of_capacity(args.eps, args.tol)
    payload = {
        "target": args.eps,
        "tol": args.tol,
        "capacity": capacity(bset),
        "resolution": bset.resolution,
        "set": bset.to_json_obj(),
    }
    # the CSV form is the set's own n:j leaf text, not a table
    return payload, bset.to_text() + "\n"


def _cmd_equal_split(args):
    family = equal_split(args.eps, args.n, args.tol)
    payload = family.to_json_obj()
    payload["capacity"] = capacity(family.carrier)
    payload["condenser_at_n"] = condenser_capacity(family.carrier, args.n)
    return payload, [{"k": k, "e": v} for k, v in enumerate(family.e)]


def _cmd_solve_disc(args):
    bset = parse_set_spec(args.set, args.tol)
    problem = CondenserProblem(bset, args.inner_radius)
    solution = solve(problem, _grid(args))
    if args.field_out:
        with open(args.field_out, "w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(["rho", "theta", "u"])
            writer.writerows(solution.field_rows())
    payload = {
        "set": args.set,
        "inner_radius": args.inner_radius,
        "capacity": solution.capacity,
        "iterations": solution.iterations,
        "residual": solution.residual,
        "grid_angular": args.grid_angular,
        "grid_radial": args.grid_radial,
    }
    return payload, [payload]


def _cmd_experiment(args):
    # the runners are looked up on the module at call time, so wrappers
    # installed there (tracing) see every call
    name = args.experiment
    if name == "blowup":
        report = experiments.run_blowup(
            args.set,
            args.n_max,
            threshold=args.threshold,
            with_disc=args.with_disc,
            grid=_grid(args),
            tol=args.tol,
        )
    elif name == "plateau":
        report = experiments.run_plateau(
            args.eps, args.n_max, tol=args.tol, exact=args.exact
        )
    elif name == "lowerbound":
        report = experiments.run_lowerbound(
            args.eps, args.n_max, args.samples, args.seed, tol=args.tol
        )
    elif name == "compare":
        report = experiments.run_compare(
            args.set, args.n_max, grid=_grid(args), tol=args.tol
        )
    else:
        deltas = [float(part) for part in args.delta.split(",") if part.strip()]
        report = experiments.run_conjecture(
            deltas, args.n_max, with_disc=args.with_disc, grid=_grid(args)
        )
    return report.to_json_obj(), report.rows, 0 if report.verdict else 1


_HANDLERS = {
    "cap-tree": _cmd_cap_tree,
    "cap-cond": _cmd_cap_cond,
    "extremal": _cmd_extremal,
    "build-set": _cmd_build_set,
    "equal-split": _cmd_equal_split,
    "solve-disc": _cmd_solve_disc,
    "experiment": _cmd_experiment,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        payload, rows, *code = _HANDLERS[args.command](args)
        if args.format == "json":
            text = json.dumps(payload, indent=2)
        else:
            text = rows if isinstance(rows, str) else rows_to_csv(rows)
        if args.out:
            with open(args.out, "w") as handle:
                handle.write(text)
        else:
            sys.stdout.write(text if text.endswith("\n") else text + "\n")
        return code[0] if code else 0
    except (TreecapError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:
        print("error: out of memory; try a smaller grid or set", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
