"""Command line entry point.

Subcommands: dualize, bound, solve, verify. Input is a JSON system file
(sparse or master, detected by schema); output goes to --output or stdout.

Exit codes: 0 success, 1 parse or validation error or unwritable output,
2 dualization diagnostic failure, 3 solver failure, 4 bijection mismatch.
"""

from __future__ import annotations

import argparse
import functools
import sys
from dataclasses import replace

from .duality import (
    GalePair,
    dualize_master_to_poly,
    dualize_poly_to_master,
    saturate_weights,
)
from .errors import (
    CommonComponentError,
    ConvergenceError,
    DegenerateDualError,
    DegreeCapError,
    DependentRowsError,
    DimensionCapError,
    NoPivotError,
    NotEssentialError,
    NotPrimitiveError,
    OutputError,
    SchemaError,
    SeparationError,
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


def _positive(text):
    """An argparse type: a positive finite float."""
    try:
        if 0 < float(text) < float("inf"):
            return float(text)
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"must be a positive finite number, got {text!r}")


@functools.cache
def build_parser():
    """The argument parser, built once: parsing does not change it."""
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
            p.add_argument("--tol-verify", type=_positive, default=1e-9,
                           help="largest residual accepted as a solution")
    return parser


def _config(args):
    return SolverConfig(verify_tol=args.tol_verify)


def _emit(args, payload):
    """Write the payload to --output as UTF-8, as load_system reads input, or
    to stdout in its own encoding; OutputError when either fails."""
    if not args.output:
        try:
            sys.stdout.write(payload)
        except UnicodeEncodeError as exc:
            raise OutputError(
                f"stdout's encoding {exc.encoding} cannot encode the output; --output writes UTF-8"
            ) from None
        return
    try:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(payload)
    except OSError as exc:
        raise OutputError(f"cannot write {args.output}: {exc}") from None


def _fail(message, code):
    print(f"error: {message}", file=sys.stderr)
    return code


def _dual_pair(system):
    if isinstance(system, SparseSystem):
        return dualize_poly_to_master(system)
    return dualize_master_to_poly(system)


def _not_primitive(exc):
    return _fail(
        f"input is not primitive (saturation index {exc.index}); "
        "the dual system would miss solutions",
        EXIT_DIAGNOSTIC,
    )


def cmd_dualize(args):
    system = load_system(args.input)
    try:
        pair = _dual_pair(system)
    except NotPrimitiveError as exc:
        return _not_primitive(exc)
    # dualization already checked the pair and raises unless every check passes
    if args.format == "json":
        _emit(args, dump_json(pair_to_dict(pair)))
    else:
        _emit(args, render_pair_text(pair))
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
        "fewnomial": [
            {"variant": b.variant, "value": b.value, "formula": b.formula}
            for b in fewnomial_bound(shape)
        ],
    }
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
            return _not_primitive(exc)
        # solve the original master against the dual of its saturation, without
        # that dual's weight inverse (it certifies the saturated weights); the
        # count mismatch shows up in the report instead of an exception
        base = dualize_master_to_poly(saturate_weights(system))
        pair = GalePair(base.poly, system, replace(base.witness, weight_inverse=None))
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
    except (DependentRowsError, OutputError) as exc:
        return _fail(str(exc), EXIT_PARSE)
    except (DegenerateDualError, NoPivotError, NotPrimitiveError, NotEssentialError) as exc:
        return _fail(str(exc), EXIT_DIAGNOSTIC)
    except (CommonComponentError, ConvergenceError, DegreeCapError, DimensionCapError,
            SeparationError) as exc:
        return _fail(str(exc), EXIT_SOLVER)


if __name__ == "__main__":
    sys.exit(main())
