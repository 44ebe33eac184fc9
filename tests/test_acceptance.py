"""Acceptance checks, one test per criterion.

Run with ``pytest -v tests/test_acceptance.py`` to get one pass/fail line per
criterion. Each test also prints a [PASS] summary with its wall time against
the intended budget (visible with ``-s``). Only the correctness assertions
gate pass/fail; wall time is reported, not asserted.
"""

import json
import random
import time
from fractions import Fraction
from importlib.resources import files

from bivariate import Q, same_up_to_scale
from galedual.cli import main as cli_main
from galedual.duality import dualize_poly_to_master
from galedual.errors import (
    CommonComponentError,
    DegreeCapError,
    DependentRowsError,
)
from galedual.lattice import (
    ExponentMatrix,
    IntMatrix,
    SystemShape,
    WeightBasis,
    hnf,
    kernel_basis,
    quotient_images,
    saturation_index,
)
from galedual.polytopes import (
    convex_hull,
    euler_characteristic,
    fewnomial_bound,
    kouchnirenko_bound,
    normalized_volume,
)
from galedual.ratlinalg import mat_rank
from galedual.serialize import load_system, parse_master
from galedual.solver import solve_master, solve_sparse, verify_isomorphism
from galedual.systems import SparseSystem, clear_denominators, diagonalize

FIXTURES = files("galedual") / "fixtures"
SPARSE = str(FIXTURES / "example22_sparse.json")
MASTER = str(FIXTURES / "example22_master.json")
SECOND = str(FIXTURES / "example3_second.json")

PENTAGON = [(0, 0), (3, 2), (1, 2), (4, -1), (4, 1)]

E2 = 2.718281828459045 ** 2
E2_BOUND = 2 * (E2 + 3)


def announce(criterion, detail, elapsed, budget):
    print(f"[PASS] criterion {criterion}: {detail} ({elapsed:.2f}s, budget {budget:g}s)")


def same_lattice(a, b):
    """Whether two row-generating sets span the same integer lattice: the
    nonzero rows of their Hermite normal forms agree."""
    return [r for r in hnf(a)[0].to_rows() if any(r)] == [r for r in hnf(b)[0].to_rows() if any(r)]


def rand_unimodular2(rng):
    m = [[1, 0], [0, 1]]
    for _ in range(8):
        i = rng.randint(0, 1)
        c = rng.randint(-3, 3)
        for t in range(2):
            m[i][t] += c * m[1 - i][t]
    return m


def assert_conjugation_closed(solutions, tol=1e-6):
    points = [s.point for s in solutions]
    for s in solutions:
        if s.is_real:
            continue
        conj = (s.point[0].conjugate(), s.point[1].conjugate())
        nearest = min(max(abs(a - b) for a, b in zip(conj, p)) for p in points)
        assert nearest < tol, f"conjugate of {s.point} missing"


def test_criterion_1_dualize_worked_example(capsys):
    start = time.perf_counter()
    code = cli_main(["dualize", "--input", SPARSE])
    out = capsys.readouterr().out
    assert code == 0
    payload = json.loads(out)
    master = parse_master(payload["master"])

    target_lattice = IntMatrix.from_rows([[-1, 3, 2, -2], [3, -1, 1, -3]])
    assert same_lattice(master.weights.matrix, target_lattice)

    s = Q({(1, 0): 1})
    t = Q({(0, 1): 1})
    form_a = s - t - Fraction(1, 2)
    form_b = s + t - 1
    targets = (
        (s ** 2 * form_b ** 3 - t ** 2 * form_a).int(),
        (s * form_a ** 3 - t ** 3 * form_b).int(),
    )
    binomials = [
        clear_denominators(master, j).expand_difference(master.arrangement)
        for j in range(2)
    ]
    direct = all(same_up_to_scale(b, t_) for b, t_ in zip(binomials, targets))
    swapped = all(
        same_up_to_scale(b, t_) for b, t_ in zip(binomials, reversed(targets))
    )
    assert direct or swapped, "cleared binomials do not match the expected pair"

    announce(1, "dualize recovers the known weight lattice and binomials",
             time.perf_counter() - start, 1.0)


def test_criterion_2_diagonalization_matches_known_rewrite():
    start = time.perf_counter()
    system = load_system(SPARSE)
    diag = diagonalize(system)
    rewritten = {}
    for i, pivot in enumerate(diag.pivots):
        key = tuple(system.support.exponent(pivot))
        coeffs = {
            tuple(system.support.exponent(j)): diag.rhs[i].coeffs[t]
            for t, j in enumerate(diag.nonpivots)
        }
        rewritten[key] = (diag.rhs[i].constant, coeffs)
    # x^3 y^2 = x^4 y^-1 - x^4 y - 1/2
    assert rewritten[(3, 2)] == (
        Fraction(-1, 2),
        {(4, -1): Fraction(1), (4, 1): Fraction(-1)},
    )
    # x y^2 = x^4 y^-1 + x^4 y - 1
    assert rewritten[(1, 2)] == (
        Fraction(-1),
        {(4, -1): Fraction(1), (4, 1): Fraction(1)},
    )
    announce(2, "pivot monomials rewritten with the exact known coefficients",
             time.perf_counter() - start, 1.0)


def test_criterion_3_pentagon_volume():
    start = time.perf_counter()
    assert normalized_volume(convex_hull(PENTAGON)) == 17
    support = ExponentMatrix(
        SystemShape(2, 0, 2),
        IntMatrix.from_rows([[3, 1, 4, 4], [2, 2, -1, 1]]),
    )
    assert kouchnirenko_bound(support) == 17
    announce(3, "pentagon normalized volume is exactly 17",
             time.perf_counter() - start, 1.0)


def test_criterion_4_solve_both_sides():
    for label, path, solve in (
        ("sparse side", SPARSE, solve_sparse),
        ("master side", MASTER, solve_master),
        ("second master", SECOND, solve_master),
    ):
        start = time.perf_counter()
        sols = solve(load_system(path))
        elapsed = time.perf_counter() - start
        assert sols.count == 17, f"{label}: {sols.count} solutions"
        assert all(s.multiplicity == 1 for s in sols.solutions), label
        assert all(s.residual < 1e-9 for s in sols.solutions), label
        if path != SECOND:
            assert sols.real_count == 3, f"{label}: {sols.real_count} real"
        announce(4, f"{label} has 17 simple solutions", elapsed, 5.0)


def test_criterion_5_isomorphism_bijection():
    start = time.perf_counter()
    pair = dualize_poly_to_master(load_system(SPARSE))
    report = verify_isomorphism(pair)
    assert report.poly_count == 17
    assert report.master_count == 17
    assert report.bijective
    assert len(report.pairs) == 17
    assert report.max_distance < 1e-6
    assert report.real_consistent
    assert sum(1 for p in report.pairs if p.both_real) == 3
    announce(5, "17 torus and 17 complement solutions match one to one",
             time.perf_counter() - start, 10.0)


def test_criterion_6_euler_equals_volume_bound():
    start = time.perf_counter()
    rng = random.Random(2024)
    shape = SystemShape(2, 0, 2)
    accepted = 0
    while accepted < 100:
        rows = [[rng.randint(-4, 4) for _ in range(4)] for _ in range(2)]
        matrix = IntMatrix.from_rows(rows)
        if mat_rank(rows) != 2 or saturation_index(matrix) != 1:
            continue
        accepted += 1
        basis = WeightBasis(shape, matrix)
        assert euler_characteristic(basis) == kouchnirenko_bound(quotient_images(basis))
    announce(6, "euler characteristic equals the volume bound on 100 random bases",
             time.perf_counter() - start, 30.0)


def test_criterion_7_randomized_invariants():
    start = time.perf_counter()
    rng = random.Random(4096)

    # (a) kernels annihilate their matrices
    for _ in range(500):
        rows = rng.randint(1, 3)
        cols = rng.randint(rows + 1, 5)
        m = IntMatrix.from_rows(
            [[rng.randint(-6, 6) for _ in range(cols)] for _ in range(rows)]
        )
        k = kernel_basis(m)
        assert (m @ k.transpose()).is_zero()
        assert mat_rank(m.to_rows()) + k.rows == cols

    # (b) the pentagon volume is a lattice invariant
    for _ in range(100):
        u = rand_unimodular2(rng)
        moved = [
            (u[0][0] * x + u[0][1] * y, u[1][0] * x + u[1][1] * y)
            for x, y in PENTAGON
        ]
        assert normalized_volume(convex_hull(moved)) == 17

    # (c) the normal form depends only on the row lattice
    for _ in range(200):
        m = IntMatrix.from_rows(
            [[rng.randint(-5, 5) for _ in range(4)] for _ in range(2)]
        )
        p = IntMatrix.from_rows(rand_unimodular2(rng))
        h1, u1 = hnf(m)
        h2, u2 = hnf(p @ m)
        assert h1.to_rows() == h2.to_rows()
        assert (u1 @ m).to_rows() == h1.to_rows()
        assert (u2 @ (p @ m)).to_rows() == h2.to_rows()

    # (d) every solved solution set is closed under conjugation
    for path, solve in (
        (SPARSE, solve_sparse),
        (MASTER, solve_master),
        (SECOND, solve_master),
    ):
        assert_conjugation_closed(solve(load_system(path)).solutions)

    # (e) solution counts never exceed the volume bound
    solved = 0
    attempts = 0
    while solved < 50:
        attempts += 1
        assert attempts < 600, "too many degenerate random systems"
        cols = set()
        while len(cols) < 4:
            v = (rng.randint(-3, 3), rng.randint(-3, 3))
            if v != (0, 0):
                cols.add(v)
        support_rows = [[c[i] for c in sorted(cols)] for i in range(2)]
        shape = SystemShape(2, 0, 2)
        coefficients = [[rng.randint(-5, 5) for _ in range(5)] for _ in range(2)]
        try:
            support = ExponentMatrix(shape, IntMatrix.from_rows(support_rows))
            system = SparseSystem(support, coefficients, ("x", "y"))
            bound = kouchnirenko_bound(support)
            sols = solve_sparse(system)
        except (ValueError, CommonComponentError, DegreeCapError, DependentRowsError):
            continue
        solved += 1
        assert sols.total_multiplicity <= bound

    announce(7, "kernel, invariance, normal form, conjugation, and bound checks",
             time.perf_counter() - start, 120.0)


def test_criterion_8_fewnomial_values():
    start = time.perf_counter()
    positive = fewnomial_bound(SystemShape(2, 0, 2))[0]
    assert abs(positive.value / E2_BOUND - 1) < 1e-12
    betti = fewnomial_bound(SystemShape(1, 1, 1))[2]
    assert abs(betti.value / E2_BOUND - 1) < 1e-12
    announce(8, "fewnomial bounds agree with the closed forms to 12 digits",
             time.perf_counter() - start, 1.0)
