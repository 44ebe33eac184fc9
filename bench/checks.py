"""Known-answer checks on CLI outputs, run outside the timed region.

The expected answers come from the instance generator and from theory, not
from the solver under test:

* exit codes: 0 for the generated (primitive, generic) inputs, 4 for the
  doubled-weights master;
* neither solution count exceeds the Kouchnirenko bound (computed
  independently in two dimensions), and on a weight lattice of index d the
  complement count is at most d times the bound;
* a primitive pair's solutions are in bijection;
* `dualize` passes every exact pair check, and the round trip keeps the
  system shape and the bound;
* a bound is the same on a support, on a unimodular image of it and on the
  support the round trip produces.

A violation is *hard* when the program gave a wrong answer: a wrong exit
class (a valid input rejected, a bijection claimed on a non-primitive
lattice), an exit code outside 0-4, an impossible count, a failed exact
check, a changed invariant, or output that differs between identical runs.
It is *soft* when the program gave no answer: it raised an uncaught
exception, or reported through a documented exit code that its numeric
solver did not deliver the known answer (a mismatch verdict, exit 4, or a
solver obstruction, exit 3, on a primitive input).  Both count as failed
instances; only hard ones make the run incorrect.
"""

from __future__ import annotations

import json

DOCUMENTED_EXITS = {0, 1, 2, 3, 4}


def _shape_of_master(master):
    l = len(master["weights"])
    dim = len(master["variables"])
    return {"num_weights": l, "excess_dim": dim - l, "num_equations": len(master["forms"]) - dim}


def _shape_of_sparse(sparse):
    dim = len(sparse["variables"])
    n = len(sparse["coefficients"])
    return {"num_weights": len(sparse["support"]) - dim, "excess_dim": dim - n, "num_equations": n}


def check(inst, code, output, bounds):
    """(hard, soft, info) for one instance.

    ``code`` is the exit code, or the exception text when main() raised;
    ``output`` the bytes the CLI wrote.  ``bounds`` collects bound values by
    group for the invariance check done by :func:`check_bound_groups`.
    """
    hard, soft, info = [], [], {}
    expected = inst.expect.get("exit", 0)
    if isinstance(code, str):
        return hard, [f"uncaught exception: {code}"], info
    if code not in DOCUMENTED_EXITS:
        return [f"undocumented exit code {code}"], soft, info
    if code != expected:
        if expected == 0 and code in (3, 4):
            soft.append(f"exit {code} on a primitive input")
        else:
            hard.append(f"exit {code}, expected {expected}")
    if code not in (0, 4):
        return hard, soft, info
    try:
        _check_payload(inst, code, json.loads(output), bounds, hard, info)
    except (ValueError, KeyError, TypeError) as exc:
        hard.append(f"unreadable output: {type(exc).__name__}: {exc}")
    return hard, soft, info


def _check_payload(inst, code, payload, bounds, hard, info):
    if inst.command == "verify":
        bound = payload["kouchnirenko_bound"]
        if "bound" in inst.expect and bound != inst.expect["bound"]:
            hard.append(f"bound {bound}, independent value {inst.expect['bound']}")
        index = inst.expect.get("index", 1)
        if payload["poly_count"] > bound or payload["master_count"] > index * bound:
            hard.append(f"counts ({payload['poly_count']}, {payload['master_count']}) exceed bound {bound}")
        if index == 1 and code == 0 and not payload["bijective"]:
            hard.append("exit 0 without a bijection")
        if index > 1 and payload["bijective"]:
            hard.append("bijection reported on a non-primitive weight lattice")
        info["short_of_bound"] = min(payload["poly_count"], payload["master_count"]) < bound
    elif inst.command == "dualize":
        if not payload["check"]["all_pass"]:
            hard.append("dual pair fails its exact checks")
        dual = "master" if inst.derive is None else "sparse"
        shape = _shape_of_master(payload[dual]) if dual == "master" else _shape_of_sparse(payload[dual])
        if shape != inst.expect["shape"]:
            hard.append(f"shape {shape}, expected {inst.expect['shape']}")
    elif inst.command == "bound":
        bounds.setdefault(inst.expect["same_bound"], []).append((inst.iid, payload["kouchnirenko"]))
        if "bound" in inst.expect and payload["kouchnirenko"] != inst.expect["bound"]:
            hard.append(f"bound {payload['kouchnirenko']}, independent value {inst.expect['bound']}")


def check_bound_groups(bounds):
    """{iid: message} for every bound that differs from its group's first value."""
    out = {}
    for group in bounds.values():
        first = group[0][1]
        for iid, value in group[1:]:
            if value != first:
                out[iid] = f"bound {value} differs from {group[0][0]} ({first})"
    return out
