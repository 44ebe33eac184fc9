"""Span tracing of galedual from outside the package.

The tracer replaces public functions at each module boundary with a wrapper,
under the name the *calling* module looks up (``from .polynomials import
bivariate_resultant`` binds ``galedual.solver.bivariate_resultant``, so that
is the attribute replaced).  Each call records a span: name, start, end,
parent span and instance id.  Self time is a span's duration minus the
durations of its direct children; calls are sequential, so children never
overlap.  Observers read sizes (degrees, counts) off the returned values.
"""

from __future__ import annotations

import functools
import re
import statistics
from collections import defaultdict
from time import perf_counter


class Span:
    __slots__ = ("name", "start", "end", "parent", "instance", "child_time")

    def __init__(self, name, parent, instance):
        self.name = name
        self.parent = parent
        self.instance = instance
        self.start = self.end = 0.0
        self.child_time = 0.0

    @property
    def duration(self):
        return self.end - self.start

    @property
    def self_time(self):
        return self.duration - self.child_time


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []
        self.instance = None
        self.sizes = defaultdict(list)  # metric name -> observed values

    def span(self, name, fn, observe=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = tracer.stack[-1] if tracer.stack else None
            rec = Span(name, parent, tracer.instance)
            tracer.spans.append(rec)
            tracer.stack.append(rec)
            rec.start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec.end = perf_counter()
                tracer.stack.pop()
                if parent is not None:
                    parent.child_time += rec.duration
            if observe is not None:
                observe(tracer.sizes, args, result)
            return result

        return wrapper

    def install(self, modules):
        """Wrap every boundary of BOUNDARIES in the given {short name: module} map."""
        for caller, attr, name, observe in BOUNDARIES:
            owner = modules[caller]
            if "." in attr:  # a method, looked up on its class
                cls_name, meth = attr.split(".")
                owner, attr = getattr(owner, cls_name), meth
            setattr(owner, attr, self.span(name, getattr(owner, attr), observe))

    def call(self, instance, fn, *args):
        """Run one CLI call under a root span named ``cli``."""
        self.instance = instance
        return self.span("cli", fn)(*args)


# -- observers: sizes read off arguments and return values ---------------------


def _weights(sizes, args, pair):
    """Squared norm of the weight basis dualize_poly_to_master chose."""
    sizes["lattice.weight_norm2"].append(sum(v * v for row in pair.master.weights.matrix.to_rows() for v in row))


def _support(sizes, args, images):
    sizes["lattice.dual_support_max_abs"].append(max(abs(v) for row in images.matrix.to_rows() for v in row))


def _cleared_poly(sizes, args, polys):
    sizes["systems.cleared_degree_poly"].append(max(p.degree() for p in polys))


def _cleared_master(sizes, args, poly):
    sizes["systems.cleared_degree_master"].append(poly.degree())


def _resultant(sizes, args, coeffs):
    sizes["polynomials.resultant_degree"].append(len(coeffs) - 1)


def _hull(sizes, args, polytope):
    sizes["polytopes.points"].append(len(polytope.points))
    sizes["polytopes.vertices"].append(len(polytope.vertices))


_DIVERGED = re.compile(r"newton diverged on (\d+) candidate")


def _solutions(sizes, args, solset):
    sizes["solver.solutions"].append(solset.count)
    sizes["solver.excluded"].append(len(solset.excluded))
    sizes["solver.ambiguous_multiplicity"].append(
        sum("multiplicity-ambiguous" in s.flags for s in solset.solutions)
    )
    sizes["solver.newton_diverged"].append(
        sum(int(m.group(1)) for d in solset.diagnostics for m in [_DIVERGED.search(d)] if m)
    )


# (calling module, attribute it looks up, span name, observer) for the module
# boundaries that dualize, bound and verify with JSON output cross
BOUNDARIES = (
    ("cli", "load_system", "serialize.load", None),
    ("cli", "dump_json", "serialize.emit", None),
    ("cli", "pair_to_dict", "serialize.emit", None),
    ("cli", "report_to_dict", "serialize.emit", None),
    ("cli", "dualize_poly_to_master", "duality.dualize", _weights),
    ("cli", "dualize_master_to_poly", "duality.dualize", None),
    ("cli", "check_gale_pair", "duality.check", None),
    ("cli", "saturate_weights", "duality.saturate", None),
    ("cli", "quotient_images", "lattice.quotient_images", _support),
    ("cli", "kouchnirenko_bound", "polytopes.bound", None),
    ("cli", "euler_from_volume", "polytopes.fewnomial", None),
    ("cli", "fewnomial_bound", "polytopes.fewnomial", None),
    ("cli", "verify_isomorphism", "solver.match", None),
    ("duality", "check_gale_pair", "duality.check", None),
    ("duality", "kernel_basis", "lattice.kernel", None),
    ("duality", "quotient_images", "lattice.quotient_images", _support),
    ("duality", "saturation_index", "lattice.saturation", None),
    ("duality", "smith_diagonal", "lattice.smith", None),
    ("duality", "right_kernel", "ratlinalg.elim", None),
    ("duality", "row_space_equal", "ratlinalg.elim", None),
    ("duality", "rref", "ratlinalg.elim", None),
    ("duality", "diagonalize", "systems.diagonalize", None),
    ("duality", "is_essential", "systems.essential", None),
    ("polytopes", "kernel_basis", "lattice.kernel", None),
    ("polytopes", "quotient_images", "lattice.quotient_images", _support),
    ("polytopes", "solve_integer", "lattice.solve", None),
    ("polytopes", "mat_rank", "ratlinalg.elim", None),
    ("polytopes", "convex_hull", "polytopes.hull", _hull),
    ("polytopes", "normalized_volume", "polytopes.volume", None),
    ("polynomials", "det_bareiss_int", "ratlinalg.det_int", None),
    ("polynomials", "mat_det", "ratlinalg.det_fraction", None),
    ("polynomials", "uinterpolate", "polynomials.interpolate", None),
    ("solver", "bivariate_resultant", "polynomials.resultant", _resultant),
    ("solver", "usquarefree", "polynomials.squarefree", None),
    ("solver", "ugcd", "polynomials.gcd", None),
    ("solver", "cleared_polynomials", "systems.clear", _cleared_poly),
    ("solver", "clear_denominators", "systems.clear", None),
    ("solver", "evaluate_phi", "systems.phi", None),
    ("solver", "solve_bivariate", "solver.bivariate", None),
    ("solver", "solve_sparse", "solver.filter", _solutions),
    ("solver", "solve_master", "solver.filter", _solutions),
    ("systems", "ClearedBinomial.expand_difference", "systems.clear", _cleared_master),
    ("systems", "mat_det", "ratlinalg.elim", None),
    ("systems", "mat_inverse", "ratlinalg.elim", None),
    ("systems", "mat_mul", "ratlinalg.elim", None),
    ("systems", "mat_rank", "ratlinalg.elim", None),
    ("systems", "solve_integer", "lattice.solve", None),
)


# -- per-layer metrics ---------------------------------------------------------

# metric name -> (unit, span name, "total" | "self" | "calls")
SPAN_METRICS = {
    "cli.self_s": ("s", "cli", "self"),
    "serialize.load_s": ("s", "serialize.load", "total"),
    "serialize.emit_s": ("s", "serialize.emit", "total"),
    "duality.dualize_self_s": ("s", "duality.dualize", "self"),
    "duality.check_s": ("s", "duality.check", "total"),
    "duality.check_calls": ("count", "duality.check", "calls"),
    "duality.saturate_s": ("s", "duality.saturate", "total"),
    "lattice.kernel_s": ("s", "lattice.kernel", "total"),
    "lattice.kernel_calls": ("count", "lattice.kernel", "calls"),
    "lattice.saturation_s": ("s", "lattice.saturation", "total"),
    "lattice.saturation_calls": ("count", "lattice.saturation", "calls"),
    "lattice.smith_s": ("s", "lattice.smith", "total"),
    "lattice.quotient_images_s": ("s", "lattice.quotient_images", "total"),
    "systems.diagonalize_s": ("s", "systems.diagonalize", "total"),
    "systems.clear_s": ("s", "systems.clear", "total"),
    "polynomials.resultant_s": ("s", "polynomials.resultant", "total"),
    "polynomials.resultant_calls": ("count", "polynomials.resultant", "calls"),
    "polynomials.interpolate_s": ("s", "polynomials.interpolate", "total"),
    "polynomials.squarefree_s": ("s", "polynomials.squarefree", "total"),
    "ratlinalg.det_s": ("s", ("ratlinalg.det_int", "ratlinalg.det_fraction"), "total"),
    "ratlinalg.det_int_calls": ("count", "ratlinalg.det_int", "calls"),
    "ratlinalg.det_fraction_calls": ("count", "ratlinalg.det_fraction", "calls"),
    "ratlinalg.elim_s": ("s", "ratlinalg.elim", "total"),
    "polytopes.hull_s": ("s", "polytopes.hull", "total"),
    "polytopes.volume_s": ("s", "polytopes.volume", "total"),
    "solver.bivariate_self_s": ("s", "solver.bivariate", "self"),
    "solver.filter_s": ("s", "solver.filter", "self"),
    "solver.match_s": ("s", "solver.match", "self"),
}

# metric name -> (unit, "median" | "sum") over the values the observers saw
SIZE_METRICS = {
    "lattice.weight_norm2": ("1", "median"),
    "lattice.dual_support_max_abs": ("1", "median"),
    "systems.cleared_degree_poly": ("1", "median"),
    "systems.cleared_degree_master": ("1", "median"),
    "polynomials.resultant_degree": ("1", "median"),
    "polytopes.points": ("count", "median"),
    "polytopes.vertices": ("count", "median"),
    "solver.solutions": ("count", "sum"),
    "solver.excluded": ("count", "sum"),
    "solver.ambiguous_multiplicity": ("count", "sum"),
    "solver.newton_diverged": ("count", "sum"),
}


def layer_metrics(tracer):
    """{metric: (value, unit)} for every per-layer metric, summed over the traced pass."""
    total = defaultdict(float)
    self_time = defaultdict(float)
    calls = defaultdict(int)
    for s in tracer.spans:
        total[s.name] += s.duration
        self_time[s.name] += s.self_time
        calls[s.name] += 1
    out = {}
    for metric, (unit, names, kind) in SPAN_METRICS.items():
        names = names if isinstance(names, tuple) else (names,)
        table = {"total": total, "self": self_time, "calls": calls}[kind]
        out[metric] = (sum(table[n] for n in names), unit)
    for metric, (unit, how) in SIZE_METRICS.items():
        values = tracer.sizes.get(metric, [])
        if not values:
            value = 0
        elif how == "median":
            value = statistics.median(values)
        else:
            value = sum(values)
        out[metric] = (value, unit)
    accepted = out["solver.solutions"][0]
    tried = accepted + out["solver.excluded"][0]
    out["solver.useful_ratio"] = (accepted / tried if tried else 0.0, "ratio")
    return out


def module_self_times(tracer):
    """Self time per module (the span name's prefix), the CLI's own share included."""
    out = defaultdict(float)
    for s in tracer.spans:
        out[s.name.split(".")[0]] += s.self_time
    return dict(out)


def uncovered_time(tracer, walls):
    """Per instance: wall time of its CLI call that no span covers."""
    covered = defaultdict(float)
    for s in tracer.spans:
        if s.parent is None:
            covered[s.instance] += s.duration
    return {iid: wall - covered[iid] for iid, wall in walls.items()}
