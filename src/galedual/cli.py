"""Command line entry point.

Subcommands: dualize, bound, solve, verify. Input is a JSON system file
(sparse or master, detected by schema); output goes to --output or stdout.

Exit codes: 0 success, 1 parse or validation error, 2 dualization diagnostic
failure, 3 solver failure, 4 bijection mismatch.
"""

from __future__ import annotations

import argparse
import sys

from .duality import (
    GalePair,
    dualize_master_to_poly,
    dualize_poly_to_master,
    saturate_weights,
)
from .errors import (
    CommonComponentError,
    DegreeCapError,
    DependentRowsError,
    DependentWeightsError,
    DimensionCapError,
    NotEssentialError,
    NotPrimitiveError,
    SchemaError,
)
from .lattice import quotient_images
from .polytopes import euler_from_volume, fewnomial_bound, kouchnirenko_bound
from .serialize import (
    dump_json,
    load_system,
    pair_to_dict,
    render_bounds_text,
    render_pair_text,
    render_report_text,
    render_solutions_text,
    report_to_dict,
    solutions_to_dict,
)
from .solver import SolverConfig, solve_master, solve_sparse, verify_isomorphism
from .systems import MasterSystem, SparseSystem

# unused here; bench/spans.py looks this name up on this module to count calls
from .duality import check_gale_pair  # noqa: F401

EXIT_OK = 0
EXIT_PARSE = 1
EXIT_DIAGNOSTIC = 2
EXIT_SOLVER = 3
EXIT_MISMATCH = 4


def build_parser():
    parser = argparse.ArgumentParser(
        prog="galedual",
        description="Convert sparse polynomial systems to master-function "
        "systems and back, compute solution-count bounds, solve bivariate "
        "instances, and verify the solution bijection.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("dualize", "convert a system to its dual and verify the pair exactly"),
        ("bound", "solution-count bounds from the support polytope"),
        ("solve", "numerically solve a bivariate system"),
        ("verify", "solve both sides of the dual pair and match solutions"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--input", required=True, help="JSON system file")
        p.add_argument("--output", help="output file (default stdout)")
        p.add_argument("--format", choices=("json", "text"), default="json")
        if name in ("solve", "verify"):  # the commands that solve numerically
            p.add_argument("--tol-cluster", type=float, default=1e-6,
                           help="distance below which numeric points merge")
            p.add_argument("--tol-verify", type=float, default=1e-9,
                           help="largest residual accepted as a solution")
    return parser


def _config(args):
    return SolverConfig(
        cluster_tol=args.tol_cluster,
        verify_tol=args.tol_verify,
    )


def _emit(args, payload):
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(payload)
    else:
        sys.stdout.write(payload)


def _fail(message, code):
    print(f"error: {message}", file=sys.stderr)
    return code


def _dual_pair(system):
    if isinstance(system, SparseSystem):
        return dualize_poly_to_master(system)
    return dualize_master_to_poly(system)


def cmd_dualize(args):
    system = load_system(args.input)
    try:
        pair = _dual_pair(system)
    except NotPrimitiveError as exc:
        return _fail(
            f"input is not primitive (saturation index {exc.index}); "
            "the dual system would miss solutions",
            EXIT_DIAGNOSTIC,
        )
    except NotEssentialError as exc:
        return _fail(str(exc), EXIT_DIAGNOSTIC)
    # dualization already checked the pair and raises unless every check passes
    if args.format == "json":
        _emit(args, dump_json(pair_to_dict(pair, pair.check)))
    else:
        _emit(args, render_pair_text(pair, pair.check))
    return EXIT_OK


def cmd_bound(args):
    system = load_system(args.input)
    if isinstance(system, MasterSystem):
        support = quotient_images(system.weights)
    else:
        support = system.support
    shape = support.shape
    volume = kouchnirenko_bound(support)
    bounds = {
        "shape": {
            "num_weights": shape.num_weights,
            "excess_dim": shape.excess_dim,
            "num_equations": shape.num_equations,
        },
        "kouchnirenko": volume,
        "euler_characteristic": euler_from_volume(shape, volume),
        "fewnomial": [],
    }
    variants = [("positive", {}), ("all_real", {})]
    if shape.excess_dim > 0:
        variants.append(("betti", {"excess_dim": shape.excess_dim}))
    for variant, extra in variants:
        b = fewnomial_bound(
            shape.num_weights,
            num_equations=None if variant == "betti" else shape.num_equations,
            variant=variant,
            **extra,
        )
        bounds["fewnomial"].append(
            {"variant": b.variant, "value": b.value, "formula": b.formula}
        )
    if args.format == "json":
        _emit(args, dump_json(bounds))
    else:
        _emit(args, render_bounds_text(bounds))
    return EXIT_OK


def cmd_solve(args):
    system = load_system(args.input)
    config = _config(args)
    solset = (
        solve_sparse(system, config)
        if isinstance(system, SparseSystem)
        else solve_master(system, config)
    )
    if args.format == "json":
        _emit(args, dump_json(solutions_to_dict(solset)))
    else:
        _emit(args, render_solutions_text(solset))
    return EXIT_OK


def cmd_verify(args):
    system = load_system(args.input)
    try:
        pair = _dual_pair(system)
    except NotPrimitiveError as exc:
        if not isinstance(system, MasterSystem):
            # non-primitive support: the dual genuinely misses solutions
            return _fail(str(exc), EXIT_DIAGNOSTIC)
        # solve the original master side against the dual of its saturation;
        # the count mismatch shows up in the report instead of an exception
        base = dualize_master_to_poly(saturate_weights(system))
        pair = GalePair(base.poly, system, base.witness)
    except NotEssentialError as exc:
        return _fail(str(exc), EXIT_DIAGNOSTIC)
    report = verify_isomorphism(pair, _config(args))
    bound = kouchnirenko_bound(pair.poly.support)
    payload = report_to_dict(report)
    payload["kouchnirenko_bound"] = bound
    payload["counts_match_bound"] = (
        report.poly_count == bound and report.master_count == bound
    )
    if args.format == "json":
        _emit(args, dump_json(payload))
    else:
        _emit(args, render_report_text(report, bound))
    return EXIT_OK if report.all_pass else EXIT_MISMATCH


COMMANDS = {
    "dualize": cmd_dualize,
    "bound": cmd_bound,
    "solve": cmd_solve,
    "verify": cmd_verify,
}


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return COMMANDS[args.command](args)
    except SchemaError as exc:
        return _fail(f"invalid input: {exc}", EXIT_PARSE)
    except (DependentRowsError, DependentWeightsError) as exc:
        return _fail(str(exc), EXIT_PARSE)
    except (NotPrimitiveError, NotEssentialError) as exc:
        return _fail(str(exc), EXIT_DIAGNOSTIC)
    except (CommonComponentError, DegreeCapError, DimensionCapError) as exc:
        return _fail(str(exc), EXIT_SOLVER)


if __name__ == "__main__":
    sys.exit(main())
