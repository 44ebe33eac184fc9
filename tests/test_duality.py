"""Dualization round trips and exact pair certification."""

import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import galedual

from galedual.duality import (
    GalePair,
    GaleWitness,
    check_gale_pair,
    dualize_master_to_poly,
    dualize_poly_to_master,
    saturate_weights,
)
from galedual.errors import NotEssentialError, NotPrimitiveError
from galedual.lattice import (
    ExponentMatrix,
    IntMatrix,
    SystemShape,
    WeightBasis,
    kernel_basis,
    lattice_equal,
    saturation_index,
    smith_diagonal,
)
from galedual.polytopes import kouchnirenko_bound
from galedual.systems import Arrangement, LinearForm, MasterSystem, SparseSystem


def worked_sparse():
    shape = SystemShape(2, 0, 2)
    support = ExponentMatrix(shape, IntMatrix.from_rows([[4, 3, 4, 1], [-1, 2, 1, 2]]))
    coefficients = (
        (Fraction(-1, 2), 2, -3, -4, 1),
        (Fraction(-1, 2), 0, 1, 2, -1),
    )
    return SparseSystem(support, coefficients, ("x", "y"))


def worked_master():
    shape = SystemShape(2, 0, 2)
    forms = (
        LinearForm(Fraction(-1, 2), (1, -1)),
        LinearForm(-1, (1, 1)),
        LinearForm(0, (1, 0)),
        LinearForm(0, (0, 1)),
    )
    arrangement = Arrangement(2, forms, ("s", "t"))
    weights = WeightBasis(shape, IntMatrix.from_rows([[-1, 3, 2, -2], [3, -1, 1, -3]]))
    return MasterSystem(arrangement, weights)


def second_master():
    shape = SystemShape(2, 0, 2)
    forms = (
        LinearForm(0, (2, -3)),
        LinearForm(-7, (4, 1)),
        LinearForm(1, (1, -3)),
        LinearForm(-2, (1, -7)),
    )
    arrangement = Arrangement(2, forms, ("x", "y"))
    weights = WeightBasis(shape, IntMatrix.from_rows([[2, 3, -2, -1], [1, -1, -3, 3]]))
    return MasterSystem(arrangement, weights)


def test_dualize_poly_reproduces_known_master():
    pair = dualize_poly_to_master(worked_sparse())
    forms = pair.master.arrangement.forms
    assert [(f.constant, f.coeffs) for f in forms] == [
        (Fraction(-1, 2), (1, -1)),
        (Fraction(-1), (1, 1)),
        (Fraction(0), (1, 0)),
        (Fraction(0), (0, 1)),
    ]
    expected_weights = IntMatrix.from_rows([[-1, 3, 2, -2], [3, -1, 1, -3]])
    assert lattice_equal(pair.master.weights.matrix, expected_weights)
    assert pair.witness.z_monomials == ("x^3*y^2", "x*y^2", "x^4*y^-1", "x^4*y")
    check = check_gale_pair(pair)
    assert check.all_pass, check.failures()


def test_dualized_pair_carries_its_check():
    for pair in (dualize_poly_to_master(worked_sparse()), dualize_master_to_poly(worked_master())):
        assert pair.check == check_gale_pair(pair)
        assert pair.check.all_pass
    # a pair built by hand carries none, and the check does not enter equality
    pair = dualize_poly_to_master(worked_sparse())
    by_hand = GalePair(pair.poly, pair.master, pair.witness)
    assert by_hand.check is None
    assert by_hand == pair


def test_dualize_poly_witness_is_permutation():
    pair = dualize_poly_to_master(worked_sparse())
    cols = pair.witness.z_support_columns
    assert sorted(cols) == [0, 1, 2, 3]
    # z coordinate j renders the monomial of the support column it points at
    for z_index, col in enumerate(cols):
        exps = pair.poly.support.exponent(col)
        assert pair.witness.z_monomials[z_index] == (
            "*".join(
                n if e == 1 else f"{n}^{e}"
                for n, e in zip(("x", "y"), exps)
                if e
            )
            or "1"
        )


def test_dualize_master_to_poly_keeps_count_data():
    base = dualize_master_to_poly(worked_master())
    assert check_gale_pair(base).all_pass
    assert kouchnirenko_bound(base.poly.support) == 17
    # round trip: the poly side sees the same weight lattice
    again = dualize_poly_to_master(base.poly)
    assert lattice_equal(
        again.master.weights.matrix, worked_master().weights.matrix
    )
    assert kouchnirenko_bound(
        dualize_master_to_poly(again.master).poly.support
    ) == 17


def test_dualize_second_master():
    pair = dualize_master_to_poly(second_master())
    assert check_gale_pair(pair).all_pass
    assert kouchnirenko_bound(pair.poly.support) == 17


def test_dualize_rejects_nonprimitive_support():
    shape = SystemShape(2, 0, 2)
    support = ExponentMatrix(shape, IntMatrix.from_rows([[2, 0, 2, 4], [0, 2, 2, 2]]))
    system = SparseSystem(
        support, ((1, 1, 2, 3, 4), (1, 4, 3, 2, 1)), ("x", "y")
    )
    with pytest.raises(NotPrimitiveError) as err:
        dualize_poly_to_master(system)
    assert err.value.index == 4


def test_dualize_rejects_nonessential_arrangement():
    shape = SystemShape(1, 1, 1)
    forms = (
        LinearForm(0, (1, 0)),
        LinearForm(-1, (1, 0)),
        LinearForm(1, (1, 0)),
    )
    arrangement = Arrangement(2, forms, ("s", "t"))
    master = MasterSystem(arrangement, WeightBasis(shape, IntMatrix.from_rows([[1, -1, 0]])))
    with pytest.raises(NotEssentialError):
        dualize_master_to_poly(master)


def test_dualize_rejects_nonprimitive_weights():
    master = worked_master()
    doubled = MasterSystem(
        master.arrangement,
        WeightBasis(
            master.shape,
            IntMatrix.from_rows([[-2, 6, 4, -4], [3, -1, 1, -3]]),
        ),
    )
    with pytest.raises(NotPrimitiveError) as err:
        dualize_master_to_poly(doubled)
    assert err.value.index == 2


def test_check_flags_nonprimitive_weights():
    pair = dualize_poly_to_master(worked_sparse())
    master = pair.master
    doubled = MasterSystem(
        master.arrangement,
        WeightBasis(
            master.shape,
            IntMatrix.from_rows(
                [[2 * v for v in master.weights.weight(0)], list(master.weights.weight(1))]
            ),
        ),
    )
    tampered = GalePair(pair.poly, doubled, pair.witness)
    check = check_gale_pair(tampered)
    assert not check.all_pass
    assert check.weight_index == 2
    assert check.failures() == ("weights_primitive",)


def test_check_flags_coefficient_tampering():
    pair = dualize_poly_to_master(worked_sparse())
    rows = [list(r) for r in pair.poly.coefficients]
    rows[0][0] += 1
    tampered = GalePair(
        SparseSystem(pair.poly.support, rows, pair.poly.variables),
        pair.master,
        pair.witness,
    )
    check = check_gale_pair(tampered)
    assert not check.all_pass
    assert "spans_match" in check.failures()
    assert "relations_vanish" not in check.failures()


def test_check_flags_witness_tampering():
    pair = dualize_poly_to_master(worked_sparse())
    forms = [list(r) for r in pair.witness.linear_forms]
    forms[0][0] += Fraction(1, 3)
    witness = GaleWitness(
        tuple(tuple(r) for r in forms),
        pair.witness.z_support_columns,
        pair.witness.z_monomials,
    )
    check = check_gale_pair(GalePair(pair.poly, pair.master, witness))
    assert "relations_vanish" in check.failures()


def test_check_flags_shape_mismatch():
    pair = dualize_poly_to_master(worked_sparse())
    witness = GaleWitness(
        pair.witness.linear_forms,
        (0, 0, 2, 3),  # not a permutation
        pair.witness.z_monomials,
    )
    check = check_gale_pair(GalePair(pair.poly, pair.master, witness))
    assert not check.shapes_consistent
    assert not check.all_pass


def test_saturate_weights():
    master = worked_master()
    doubled = MasterSystem(
        master.arrangement,
        WeightBasis(
            master.shape,
            IntMatrix.from_rows([[-2, 6, 4, -4], [3, -1, 1, -3]]),
        ),
    )
    assert saturation_index(doubled.weights.matrix) == 2
    saturated = saturate_weights(doubled)
    assert saturation_index(saturated.weights.matrix) == 1
    assert lattice_equal(saturated.weights.matrix, master.weights.matrix)
    assert saturated.arrangement is doubled.arrangement
    # no-op on an already primitive basis
    same = saturate_weights(master)
    assert lattice_equal(same.weights.matrix, master.weights.matrix)


def test_saturated_lattice_is_double_kernel():
    master = worked_master()
    expected = kernel_basis(kernel_basis(master.weights.matrix))
    assert lattice_equal(saturate_weights(master).weights.matrix, expected)


@pytest.mark.parametrize("l", [2, 3, 4, 5, 6])
def test_dualize_reduced_weights_pass_check_at_each_rank(l):
    rng = random.Random(l)
    n, k = 2, 2 + l
    while True:
        columns = rng.sample([(a, b) for a in range(-3, 4) for b in range(-3, 4) if a or b], k)
        matrix = IntMatrix.from_rows([[c[i] for c in columns] for i in range(n)])
        if smith_diagonal(matrix) == [1, 1]:
            break
    coefficients = tuple(
        tuple(rng.choice([-3, -2, -1, 1, 2, 3]) for _ in range(k + 1)) for _ in range(n)
    )
    system = SparseSystem(
        ExponentMatrix(SystemShape(l, 0, n), matrix), coefficients, ("x", "y")
    )
    pair = dualize_poly_to_master(system)
    assert pair.master.weights.matrix.rows == l
    assert check_gale_pair(pair).all_pass


_FAILING_CHECK = """
import sys
import galedual.duality as duality
from galedual.errors import InvariantError
from galedual.serialize import load_system

print("optimize", sys.flags.optimize)
failing = duality.PairCheck(
    shapes_consistent=True, support_primitive=True, support_index=1,
    weights_primitive=True, weight_index=1, annihilates=True,
    forms_essential=True, relations_vanish=True, spans_match=False,
)
duality.check_gale_pair = lambda pair: failing
for name, dualize in (("example22_sparse", duality.dualize_poly_to_master),
                      ("example22_master", duality.dualize_master_to_poly)):
    system = load_system(sys.argv[1] + "/" + name + ".json")
    try:
        dualize(system)
    except InvariantError as exc:
        print(type(exc).__name__, exc)
"""


def test_inconsistent_pair_raises_under_optimize():
    # a plain assert vanishes under -O; the typed error must not
    package = Path(galedual.__file__).parent
    env = dict(os.environ, PYTHONPATH=str(package.parent))
    result = subprocess.run(
        [sys.executable, "-O", "-c", _FAILING_CHECK, str(package / "fixtures")],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    optimize, *lines = result.stdout.splitlines()
    assert optimize == "optimize 1"
    assert len(lines) == 2
    assert all(
        line.startswith("InvariantError dualization produced an inconsistent pair")
        and "spans_match" in line
        for line in lines
    )
