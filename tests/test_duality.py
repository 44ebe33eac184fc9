"""Dualization round trips and exact pair certification."""

import os
import random
import subprocess
import sys
from dataclasses import fields, replace
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import galedual
import galedual.duality
import galedual.lattice
import galedual.ratlinalg
import galedual.systems

from galedual.duality import (
    GalePair,
    GaleWitness,
    PairCheck,
    check_gale_pair,
    dualize_master_to_poly,
    dualize_poly_to_master,
    saturate_weights,
)
from galedual.errors import DependentRowsError, NotEssentialError, NotPrimitiveError
from galedual.lattice import (
    ExponentMatrix,
    IntMatrix,
    SystemShape,
    WeightBasis,
    hnf,
    kernel_basis,
    lll_reduce,
    saturation_index,
    smith_diagonal,
)
from galedual.polytopes import kouchnirenko_bound
from galedual.ratlinalg import mat_rank
from galedual.serialize import check_to_dict
from galedual.systems import Arrangement, LinearForm, MasterSystem, SparseSystem, _stacked
from test_properties import dualizable_systems


def same_lattice(a, b):
    """Whether two row-generating sets span the same integer lattice: the
    nonzero rows of their Hermite normal forms agree."""
    return [r for r in hnf(a)[0].to_rows() if any(r)] == [r for r in hnf(b)[0].to_rows() if any(r)]


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
    assert same_lattice(pair.master.weights.matrix, expected_weights)
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
    # round trip: the poly side sees the same weight lattice, with the form
    # columns in the witness's z order
    again = dualize_poly_to_master(base.poly)
    weights = worked_master().weights.matrix
    assert same_lattice(
        again.master.weights.matrix,
        weights.submatrix_columns(again.witness.z_support_columns),
    )
    assert kouchnirenko_bound(
        dualize_master_to_poly(again.master).poly.support
    ) == 17


def random_unimodular2(rng):
    """A 2x2 integer matrix of determinant +-1: shears in turn, maybe a swap."""
    m = [[1, 0], [0, 1]]
    for i in range(rng.randint(1, 6)):
        c = rng.randint(-3, 3)
        m[i % 2] = [a + c * b for a, b in zip(m[i % 2], m[1 - i % 2])]
    return IntMatrix.from_rows(m[::-1] if rng.random() < 0.5 else m)


@pytest.mark.parametrize("master", [worked_master(), second_master()])
def test_torus_side_depends_only_on_the_weight_lattice(master):
    base = dualize_master_to_poly(master).poly
    assert lll_reduce(base.support.matrix) == base.support.matrix
    rng = random.Random(12)
    for _ in range(100):
        weights = random_unimodular2(rng) @ master.weights.matrix
        moved = MasterSystem(master.arrangement, WeightBasis(master.shape, weights))
        assert dualize_master_to_poly(moved).poly == base


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


@settings(max_examples=40, deadline=None)
@given(dualizable_systems(), st.data())
def test_check_flags_tampering_with_any_relation_entry(drawn, data):
    """A nonzero rational of large denominator added to one witness entry or
    to one coefficient of a form that some relation uses breaks
    relations_vanish; the pair as dualized passes."""
    pair = drawn[1]
    assert check_gale_pair(pair).all_pass
    nudge = Fraction(data.draw(st.integers(-9, 9).filter(bool)), 2**61 - 1)
    rows = [list(r) for r in pair.witness.linear_forms]
    forms = list(pair.master.arrangement.forms)
    if data.draw(st.booleans()):
        r = data.draw(st.integers(0, len(rows) - 1))
        rows[r][data.draw(st.integers(0, len(rows[r]) - 1))] += nudge
    else:
        # a form that no relation uses could change freely; a dualized pair uses every form
        assert all(any(row[i + 1] for row in rows) for i in range(len(forms)))
        i = data.draw(st.integers(0, len(forms) - 1))
        values = [forms[i].constant, *forms[i].coeffs]
        values[data.draw(st.integers(0, len(values) - 1))] += nudge
        forms[i] = LinearForm(values[0], values[1:])
    arrangement = replace(pair.master.arrangement, forms=tuple(forms))
    witness = replace(pair.witness, linear_forms=tuple(map(tuple, rows)))
    tampered = GalePair(pair.poly, replace(pair.master, arrangement=arrangement), witness)
    assert not check_gale_pair(tampered).relations_vanish


@settings(max_examples=40, deadline=None)
@given(dualizable_systems(), st.data())
def test_dualized_pairs_carry_inverses_the_check_trusts_only_by_product(drawn, data):
    """Both directions carry both right inverses. The check gives the same
    result with them as without them, and one changed entry of either, in a
    row that meets a nonzero column, fails exactly its primitivity field."""
    for pair in (drawn[1], dualize_master_to_poly(drawn[1].master)):
        witness = pair.witness
        sides = {
            "support": (pair.poly.support.matrix, witness.support_inverse),
            "weights": (pair.master.weights.matrix, witness.weight_inverse),
        }
        for mat, inverse in sides.values():
            assert inverse is not None
            assert mat @ inverse == IntMatrix.identity(mat.rows)
        check = check_gale_pair(pair)
        assert check.all_pass
        stripped = replace(witness, support_inverse=None, weight_inverse=None)
        assert check_gale_pair(GalePair(pair.poly, pair.master, stripped)) == check

        side = data.draw(st.sampled_from(sorted(sides)))
        mat, inverse = sides[side]
        rows = inverse.to_rows()
        r = data.draw(st.sampled_from([c for c in range(mat.cols) if any(mat.column(c))]))
        rows[r][data.draw(st.integers(0, inverse.cols - 1))] += data.draw(st.integers(-3, 3).filter(bool))
        forged = IntMatrix.from_rows(rows, cols=inverse.cols)
        name = "support_inverse" if side == "support" else "weight_inverse"
        tampered = GalePair(pair.poly, pair.master, replace(witness, **{name: forged}))
        assert check_gale_pair(tampered) == replace(check, **{f"{side}_primitive": False})


@settings(max_examples=40, deadline=None)
@given(dualizable_systems(), st.data())
def test_dualized_pairs_carry_essential_rows_the_check_trusts_only_by_determinant(drawn, data):
    """Both directions carry master_dim + 1 independent rows of (1 | form),
    and their relation rows hold the identity at the other columns. Stripped
    of every certificate, a pair gets the same check by elimination. An entry
    of the rows changed to a repeated or out-of-range index fails exactly
    forms_essential, and a changed coefficient gets the same check by the
    product as by elimination."""
    for pair in (drawn[1], dualize_master_to_poly(drawn[1].master)):
        witness = pair.witness
        rows = witness.essential_rows
        stacked = _stacked(pair.master.arrangement)
        assert len(rows) == len(stacked) == mat_rank([[col[r] for r in rows] for col in stacked])
        others = [c for c in range(len(stacked[0])) if c not in rows]
        n = len(witness.linear_forms)
        assert [[row[c] for c in others] for row in witness.linear_forms] == [
            [int(i == j) for j in range(n)] for i in range(n)
        ]
        check = check_gale_pair(pair)
        assert check.all_pass
        stripped = replace(witness, support_inverse=None, weight_inverse=None, essential_rows=None)
        assert check_gale_pair(GalePair(pair.poly, pair.master, stripped)) == check

        r = data.draw(st.integers(0, len(rows) - 1))
        top = len(stacked[0])
        value = data.draw(st.sampled_from([v for v in rows if v != rows[r]] + [-1, -top, top, top + 5]))
        forged = rows[:r] + (value,) + rows[r + 1 :]
        tampered = GalePair(pair.poly, pair.master, replace(witness, essential_rows=forged))
        assert check_gale_pair(tampered) == replace(check, forms_essential=False)

        coefficients = [list(row) for row in pair.poly.coefficients]
        i = data.draw(st.integers(0, len(coefficients) - 1))
        j = data.draw(st.integers(0, len(coefficients[i]) - 1))
        coefficients[i][j] += Fraction(data.draw(st.integers(-9, 9).filter(bool)), data.draw(st.integers(1, 4)))
        try:
            poly = SparseSystem(pair.poly.support, coefficients, pair.poly.variables)
        except DependentRowsError:
            assume(False)
        changed = check_gale_pair(GalePair(poly, pair.master, witness))
        assert not changed.spans_match
        assert changed == check_gale_pair(GalePair(poly, pair.master, stripped))


def test_check_flags_dependent_essential_rows():
    # three forms through the origin: carried rows t, s + t, s are distinct and in range but dependent
    shape = SystemShape(2, 0, 2)
    forms = (LinearForm(0, (1, 0)), LinearForm(0, (0, 1)), LinearForm(0, (1, 1)), LinearForm(-1, (1, -1)))
    master = MasterSystem(
        Arrangement(2, forms, ("s", "t")),
        WeightBasis(shape, IntMatrix.from_rows([[-1, 3, 2, -2], [3, -1, 1, -3]])),
    )
    pair = dualize_master_to_poly(master)
    assert pair.witness.essential_rows == (2, 3, 4)
    forged = replace(pair.witness, essential_rows=(2, 3, 1))
    check = check_gale_pair(GalePair(pair.poly, pair.master, forged))
    assert check == replace(pair.check, forms_essential=False)


@pytest.mark.parametrize("dualize, system", [
    (dualize_poly_to_master, worked_sparse()),
    (dualize_master_to_poly, worked_master()),
])
def test_check_flags_dependent_coefficient_rows(dualize, system):
    # rows that each lie in the relations' span but span less of it; only a
    # system changed after construction has them, as SparseSystem rejects them
    pair = dualize(system)
    poly = SparseSystem(pair.poly.support, pair.poly.coefficients, pair.poly.variables)
    first = pair.poly.coefficients[0]
    object.__setattr__(poly, "coefficients", (first, tuple(2 * v for v in first)))
    stripped = replace(pair.witness, support_inverse=None, weight_inverse=None, essential_rows=None)
    check = check_gale_pair(GalePair(poly, pair.master, pair.witness))
    assert check == replace(pair.check, spans_match=False)
    assert check_gale_pair(GalePair(poly, pair.master, stripped)) == check


@pytest.mark.parametrize("dualize, system", [
    (dualize_poly_to_master, worked_sparse()),
    (dualize_master_to_poly, worked_master()),
])
def test_check_of_a_dualized_pair_eliminates_nothing(monkeypatch, dualize, system):
    # the carried inverses replace the two eliminations of saturation_index,
    # and the essential rows the rank of the forms and the two rrefs of the spans
    pair = dualize(system)
    stripped = replace(pair.witness, support_inverse=None, weight_inverse=None, essential_rows=None)
    calls = []

    def counting(module, name):
        inner = getattr(module, name)

        def wrapper(*args):
            calls.append(name)
            return inner(*args)

        monkeypatch.setattr(module, name, wrapper)

    counting(galedual.lattice, "_hermite")
    for module in (galedual.duality, galedual.systems, galedual.ratlinalg):
        for name in ("mat_rank", "rref", "row_space_equal", "is_essential"):
            if hasattr(module, name):
                counting(module, name)
    assert check_gale_pair(pair).all_pass
    assert calls == []
    assert check_gale_pair(GalePair(pair.poly, pair.master, stripped)).all_pass
    assert calls.count("_hermite") == 2
    assert calls.count("is_essential") == calls.count("row_space_equal") == 1
    assert calls.count("mat_rank") >= 1 and calls.count("rref") >= 2


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


def test_check_failures_are_the_false_boolean_fields():
    check = PairCheck(
        shapes_consistent=True, support_primitive=False, support_index=0,
        weights_primitive=True, weight_index=1, annihilates=False,
        forms_essential=True, relations_vanish=True, spans_match=True,
    )
    # an index of 0 is a value, not a failed check
    assert check.failures() == ("support_primitive", "annihilates")
    assert not check.all_pass
    assert replace(check, support_primitive=True, annihilates=True).all_pass
    # the JSON keys follow the fields, then the two summaries
    assert list(check_to_dict(check)) == [f.name for f in fields(PairCheck)] + ["all_pass", "failures"]
    assert check_to_dict(check)["failures"] == ["support_primitive", "annihilates"]


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
    assert same_lattice(saturated.weights.matrix, master.weights.matrix)
    assert saturated.arrangement is doubled.arrangement
    # no-op on an already primitive basis
    same = saturate_weights(master)
    assert same_lattice(same.weights.matrix, master.weights.matrix)


def test_saturated_lattice_is_double_kernel():
    master = worked_master()
    expected = kernel_basis(kernel_basis(master.weights.matrix))
    assert same_lattice(saturate_weights(master).weights.matrix, expected)


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
