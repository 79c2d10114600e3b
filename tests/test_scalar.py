import copy
import math
import random
from fractions import Fraction

import pytest

from nonassoc import properties
from nonassoc.algebra import AlgebraDef
from nonassoc.properties import check_property
from nonassoc.scalar import GaussianRational, I, ONE, ZERO, solve_exact, solve_gaussian_integers


def test_exact_arithmetic():
    a = GaussianRational(Fraction(1, 3), 2)
    b = GaussianRational(Fraction(-1, 2), Fraction(5, 7))
    assert a + b == GaussianRational(Fraction(-1, 6), Fraction(19, 7))
    assert a - b == GaussianRational(Fraction(5, 6), Fraction(9, 7))
    assert (a * b).re == Fraction(1, 3) * Fraction(-1, 2) - 2 * Fraction(5, 7)
    assert (a / b) * b == a


def test_i_squared_is_minus_one():
    assert I * I == GaussianRational(-1)
    assert I * I == -1


def test_division_exactness_and_by_zero():
    x = GaussianRational(3, 4)
    assert (x / x) == ONE
    assert GaussianRational(1) / GaussianRational(0, 2) == GaussianRational(0, Fraction(-1, 2))
    with pytest.raises(ZeroDivisionError):
        x / ZERO


def test_int_and_fraction_coercion():
    assert GaussianRational(2) + 3 == GaussianRational(5)
    assert 3 - GaussianRational(2) == ONE
    assert Fraction(1, 2) * GaussianRational(4) == GaussianRational(2)
    with pytest.raises(TypeError):
        GaussianRational.of(1.5)


def test_str_forms():
    cases = {
        GaussianRational(0): "0",
        GaussianRational(3): "3",
        GaussianRational(Fraction(-1, 2)): "-1/2",
        I: "i",
        -I: "-i",
        GaussianRational(0, 2): "2i",
        GaussianRational(1, 1): "1+i",
        GaussianRational(1, -2): "1-2i",
        GaussianRational(Fraction(1, 2), Fraction(3, 5)): "1/2+3/5i",
    }
    for value, text in cases.items():
        assert str(value) == text


def test_immutability_and_hash():
    x = GaussianRational(1, 2)
    with pytest.raises(AttributeError):
        x.re = Fraction(2)
    assert hash(GaussianRational(3)) == hash(Fraction(3))
    assert len({GaussianRational(1, 2), GaussianRational(1, 2)}) == 1


def test_solve_exact_consistent():
    # x + y = 3, x - y = 1  ->  x = 2, y = 1
    rows = [[ONE, ONE], [ONE, -ONE]]
    sol, particular = solve_exact(rows, [GaussianRational(3), ONE])
    assert sol == [GaussianRational(2), ONE]
    assert particular == sol


def test_solve_exact_underdetermined():
    rows = [[ONE, ONE]]
    sol, _ = solve_exact(rows, [GaussianRational(5)])
    assert sol is not None
    assert sol[0] + sol[1] == GaussianRational(5)


def test_solve_exact_inconsistent_gives_partial_candidate():
    # x = 1 and x = 2 cannot both hold; the particular solves the pivot row.
    rows = [[ONE], [ONE]]
    sol, particular = solve_exact(rows, [ONE, GaussianRational(2)])
    assert sol is None
    assert particular == [ONE]


def test_solve_exact_gaussian_coefficients():
    # second row is -i times the first, so the system is consistent
    rows = [[I, ONE], [ONE, -I]]
    rhs = [GaussianRational(0, 2), GaussianRational(2)]
    sol, _ = solve_exact(rows, rhs)
    assert sol is not None
    assert I * sol[0] + sol[1] == GaussianRational(0, 2)
    assert sol[0] - I * sol[1] == GaussianRational(2)


def gq(re, im=0):
    return GaussianRational(Fraction(re), Fraction(im))


def test_solve_exact_complex_full_rank():
    # (1+i) x + 2 y = 3+i, i x - y = 1
    rows = [[gq(1, 1), gq(2)], [I, -ONE]]
    sol, particular = solve_exact(rows, [gq(3, 1), ONE])
    assert sol == [gq("4/5", "-7/5"), gq("2/5", "4/5")]
    assert particular == sol


def test_solve_exact_complex_rank_deficient_sets_free_variables_to_zero():
    # the second row is i times the first, so y is free
    rows = [[ONE, I, ZERO], [I, -ONE, ZERO], [ZERO, ZERO, gq(2)]]
    sol, particular = solve_exact(rows, [gq(1, 1), gq(-1, 1), gq(4)])
    assert sol == particular == [gq(1, 1), ZERO, gq(2)]


def test_solve_exact_complex_inconsistent_particular_solves_pivot_rows():
    # the second row is i times the first on the left but not on the right;
    # the pivots fall on rows one and three
    rows = [[I, ONE], [-ONE, I], [ONE, ONE]]
    sol, particular = solve_exact(rows, [ONE, gq(1, 1), ZERO])
    assert sol is None
    assert particular == [gq("-1/2", "-1/2"), gq("1/2", "1/2")]


def test_solve_exact_fractional_rows_with_zero_rows():
    rows = [[ZERO, ZERO], [gq("1/3"), gq("-1/6", "1/2")], [ZERO, ZERO]]
    sol, particular = solve_exact(rows, [ZERO, gq("1/2"), ZERO])
    assert sol == particular == [gq("3/2"), ZERO]
    sol, particular = solve_exact(rows, [ZERO, gq("1/2"), gq(0, "1/7")])
    assert sol is None and particular == [gq("3/2"), ZERO]
    assert solve_exact([], []) == ([], [])


def eager_solve_gaussian_integers(aug):
    """Reference: fraction-free Gauss-Jordan that rewrites every row at every
    pivot, the solver `solve_gaussian_integers` replaced."""
    m = len(aug)
    n = len(aug[0]) - 1 if m else 0
    pivot_cols = []
    r = 0
    for col in range(n):
        pivot = next((i for i in range(r, m) if aug[i][col] != (0, 0)), None)
        if pivot is None:
            continue
        aug[r], aug[pivot] = aug[pivot], aug[r]
        prow = aug[r]
        pr, pi = prow[col]
        for i in range(m):
            fr, fi = aug[i][col]
            if i == r or not (fr or fi):
                continue
            row = [(pr * a - pi * b - fr * c + fi * d, pr * b + pi * a - fr * d - fi * c)
                   for (a, b), (c, d) in zip(aug[i], prow)]
            g = math.gcd(*(part for pair in row for part in pair))
            if g > 1:
                row = [(a // g, b // g) for a, b in row]
            aug[i] = row
        pivot_cols.append(col)
        r += 1
        if r == m:
            break
    consistent = all(aug[i][n] == (0, 0) for i in range(r, m))
    particular = [ZERO] * n
    for row_idx, col in enumerate(pivot_cols):
        particular[col] = GaussianRational(*aug[row_idx][n]) / GaussianRational(*aug[row_idx][col])
    return (particular if consistent else None), particular


def _gmul(x, y):
    return (x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0])


def _gsum(terms):
    return (sum(t[0] for t in terms), sum(t[1] for t in terms))


def random_system(rng, m, n, rank, complex_entries, consistent):
    """m rows of n unknowns, each a random Gaussian-integer combination of
    `rank` random rows (so zero rows occur), with right-hand side A x for a
    random x when `consistent`, and random otherwise."""
    def entry():
        return (rng.randint(-3, 3), rng.randint(-3, 3) if complex_entries else 0)

    basis = [[entry() for _ in range(n)] for _ in range(rank)]
    x = [entry() for _ in range(n)]
    aug = []
    for _ in range(m):
        weights = [entry() for _ in basis]
        row = [_gsum([_gmul(w, b[k]) for w, b in zip(weights, basis)]) for k in range(n)]
        rhs = _gsum([_gmul(a, v) for a, v in zip(row, x)]) if consistent else entry()
        aug.append(row + [rhs])
    return aug


@pytest.mark.parametrize("m, n, rank, complex_entries, consistent", [
    (6, 4, 4, False, True),    # overdetermined, full column rank
    (6, 4, 4, True, False),    # overdetermined, inconsistent
    (7, 5, 2, True, True),     # rank-deficient
    (7, 5, 2, True, False),    # rank-deficient, inconsistent
    (3, 6, 3, True, True),     # fewer rows than unknowns
    (3, 6, 2, False, False),   # fewer rows than unknowns, inconsistent
    (1, 4, 1, True, True),     # one row
    (1, 3, 0, True, False),    # one zero row with a nonzero right-hand side
    (5, 3, 0, False, True),    # all rows zero
    (5, 3, 0, True, False),    # zero rows, nonzero right-hand sides
])
def test_solver_matches_eager_reference(m, n, rank, complex_entries, consistent):
    rng = random.Random(f"{m}/{n}/{rank}/{complex_entries}/{consistent}")
    solved = set()
    for _ in range(40):
        aug = random_system(rng, m, n, rank, complex_entries, consistent)
        expected = eager_solve_gaussian_integers(copy.deepcopy(aug))
        assert solve_gaussian_integers(copy.deepcopy(aug)) == expected
        solved.add(expected[0] is not None)
    # every consistent system solves, and some of the others are inconsistent
    assert (solved == {True}) if consistent else (False in solved)


def test_internal_unit_system_matches_eager_reference(monkeypatch):
    # The quaternions with 1 as basis element e1, in a table not flagged
    # unital.  The unit system is consistent, so the final scan reduces
    # every row below the pivots.
    sign = {(1, 2): 1, (2, 3): 1, (3, 1): 1, (2, 1): -1, (3, 2): -1, (1, 3): -1}
    products = {}
    for i in range(4):
        for j in range(4):
            if i == 0 or j == 0:
                products[(i, j)] = (ZERO, {i + j: 1})
            elif i == j:
                products[(i, j)] = (ZERO, {0: -1})
            else:
                products[(i, j)] = (ZERO, {6 - i - j: sign[(i, j)]})
    alg = AlgebraDef.from_products("quaternion_basis_one", 4, products, unital=False)
    systems = []

    def recording(aug):
        systems.append(copy.deepcopy(aug))
        return solve_gaussian_integers(aug)

    monkeypatch.setattr(properties, "solve_gaussian_integers", recording)
    rep = check_property(alg, "unital")
    assert rep.holds and rep.detail == "internal unit e1"
    (aug,) = systems
    assert len(aug) == 2 * 4 * 4
    expected = eager_solve_gaussian_integers(copy.deepcopy(aug))
    assert solve_gaussian_integers(copy.deepcopy(aug)) == expected
    assert expected[0] == [ONE, ZERO, ZERO, ZERO]
