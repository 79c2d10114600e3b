import copy
import random
from fractions import Fraction

import numpy as np
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy.polys.matrices import DomainMatrix

from nonassoc import properties
from nonassoc.algebra import AlgebraDef
from nonassoc.properties import check_property
from nonassoc.scalar import (
    GaussianRational,
    I,
    ONE,
    ZERO,
    common_scale,
    solve_gaussian_integers,
)
from oracle import eager_solve_gaussian_integers, solve


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


def fraction_text(value):
    """str of a GaussianRational spelled through str(Fraction), the way the
    class wrote it before its text came from the integer formatter."""
    re, im = value.re, value.im
    if im == 0:
        return str(re)
    if re == 0:
        return {1: "i", -1: "-i"}.get(im, f"{im}i")
    imag = "i" if abs(im) == 1 else f"{abs(im)}i"
    return f"{re}{'+' if im > 0 else '-'}{imag}"


def test_str_matches_the_fraction_spelling():
    parts = sorted({Fraction(n, d) for n in range(-9, 10) for d in (1, 2, 3, 7, 2**70)})
    values = [GaussianRational(a, b) for a in parts for b in parts]
    assert len(values) == 5625
    assert [str(v) for v in values] == [fraction_text(v) for v in values]


def test_immutability_and_hash():
    x = GaussianRational(1, 2)
    with pytest.raises(AttributeError):
        x.re = Fraction(2)
    assert hash(GaussianRational(3)) == hash(Fraction(3))
    assert len({GaussianRational(1, 2), GaussianRational(1, 2)}) == 1


def test_solve_exact_consistent():
    # x + y = 3, x - y = 1  ->  x = 2, y = 1
    rows = [[ONE, ONE], [ONE, -ONE]]
    sol, particular = solve(rows, [GaussianRational(3), ONE])
    assert sol == [GaussianRational(2), ONE]
    assert particular == sol


def test_solve_exact_underdetermined():
    rows = [[ONE, ONE]]
    sol, _ = solve(rows, [GaussianRational(5)])
    assert sol is not None
    assert sol[0] + sol[1] == GaussianRational(5)


def test_solve_exact_inconsistent_gives_partial_candidate():
    # x = 1 and x = 2 cannot both hold; the particular solves the pivot row.
    rows = [[ONE], [ONE]]
    sol, particular = solve(rows, [ONE, GaussianRational(2)])
    assert sol is None
    assert particular == [ONE]


def test_solve_exact_gaussian_coefficients():
    # second row is -i times the first, so the system is consistent
    rows = [[I, ONE], [ONE, -I]]
    rhs = [GaussianRational(0, 2), GaussianRational(2)]
    sol, _ = solve(rows, rhs)
    assert sol is not None
    assert I * sol[0] + sol[1] == GaussianRational(0, 2)
    assert sol[0] - I * sol[1] == GaussianRational(2)


def gq(re, im=0):
    return GaussianRational(Fraction(re), Fraction(im))


def test_solve_exact_complex_full_rank():
    # (1+i) x + 2 y = 3+i, i x - y = 1
    rows = [[gq(1, 1), gq(2)], [I, -ONE]]
    sol, particular = solve(rows, [gq(3, 1), ONE])
    assert sol == [gq("4/5", "-7/5"), gq("2/5", "4/5")]
    assert particular == sol


def test_solve_exact_complex_rank_deficient_sets_free_variables_to_zero():
    # the second row is i times the first, so y is free
    rows = [[ONE, I, ZERO], [I, -ONE, ZERO], [ZERO, ZERO, gq(2)]]
    sol, particular = solve(rows, [gq(1, 1), gq(-1, 1), gq(4)])
    assert sol == particular == [gq(1, 1), ZERO, gq(2)]


def test_solve_exact_complex_inconsistent_particular_solves_pivot_rows():
    # the second row is i times the first on the left but not on the right;
    # the pivots fall on rows one and three
    rows = [[I, ONE], [-ONE, I], [ONE, ONE]]
    sol, particular = solve(rows, [ONE, gq(1, 1), ZERO])
    assert sol is None
    assert particular == [gq("-1/2", "-1/2"), gq("1/2", "1/2")]


def test_solve_exact_fractional_rows_with_zero_rows():
    rows = [[ZERO, ZERO], [gq("1/3"), gq("-1/6", "1/2")], [ZERO, ZERO]]
    sol, particular = solve(rows, [ZERO, gq("1/2"), ZERO])
    assert sol == particular == [gq("3/2"), ZERO]
    sol, particular = solve(rows, [ZERO, gq("1/2"), gq(0, "1/7")])
    assert sol is None and particular == [gq("3/2"), ZERO]
    assert solve([], []) == ([], [])


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


def test_solver_matches_eager_reference_on_rows_zero_in_early_pivot_columns():
    # Row i is zero in its first z_i columns and random after them, so rows
    # reach steps whose factor is 0.  Such a step must still scale the row by
    # p_k and divide it by p_{k-1}, or the next exact division goes wrong.
    rng = random.Random("early-zero-columns")
    for trial in range(60):
        m, n = rng.randint(3, 7), rng.randint(2, 5)
        x = [(rng.randint(-3, 3), rng.randint(-3, 3)) for _ in range(n)]
        aug = []
        for _ in range(m):
            zeros = rng.randint(0, n - 1)
            row = [(0, 0)] * zeros + [(rng.randint(-4, 4), rng.randint(-2, 2) * (trial % 2))
                                      for _ in range(n - zeros)]
            rhs = _gsum([_gmul(a, v) for a, v in zip(row, x)]) if trial % 3 else (rng.randint(-3, 3), 0)
            aug.append(row + [rhs])
        expected = eager_solve_gaussian_integers(copy.deepcopy(aug))
        assert solve_gaussian_integers(copy.deepcopy(aug)) == expected


GAUSSIAN = st.tuples(st.integers(-3, 3), st.integers(-3, 3))


@st.composite
def gaussian_systems(draw):
    """[A | b] with 1 to 6 rows and 1 to 5 unknowns, each row a Gaussian-integer
    combination of up to 6 drawn rows of [A | b], so that rank-deficient,
    consistent and inconsistent systems all occur."""
    m, n = draw(st.integers(1, 6)), draw(st.integers(1, 5))
    basis = draw(st.lists(st.lists(GAUSSIAN, min_size=n + 1, max_size=n + 1), max_size=6))
    weights = draw(st.lists(st.lists(GAUSSIAN, min_size=len(basis), max_size=len(basis)),
                            min_size=m, max_size=m))
    return [[_gsum([_gmul(w, b[k]) for w, b in zip(row, basis)]) for k in range(n + 1)]
            for row in weights]


def sympy_rank(rows):
    """The rank of a Gaussian-integer matrix, exact in sympy's domain ZZ_I."""
    return DomainMatrix.from_Matrix(sympy.Matrix([[re + sympy.I * im for re, im in row]
                                                  for row in rows])).rank()


@settings(settings.get_profile("exact"), max_examples=50)
@given(gaussian_systems())
def test_solver_agrees_with_sympy_on_consistency(aug):
    n = len(aug[0]) - 1
    consistent = sympy_rank([row[:n] for row in aug]) == sympy_rank(aug)
    solution, particular = solve_gaussian_integers(copy.deepcopy(aug))
    assert (solution is not None) is consistent
    if consistent:
        assert solution == particular
        for row in aug:
            assert sum((GaussianRational(*a) * x for a, x in zip(row[:n], particular)),
                       ZERO) == GaussianRational(*row[n])


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


# -- common_scale ----------------------------------------------------------------

def gaussian(pairs):
    """(re, im) pairs as one Gaussian-integer array, (re, im) on axis 0."""
    return np.array(pairs, dtype=object).reshape(-1, 2).T


def test_common_scale_reads_and_decides_the_factor():
    v = gaussian([(0, 0), (2, 0), (1, -1)])
    half_1_3i = GaussianRational(Fraction(1, 2), Fraction(3, 2))
    assert common_scale(gaussian([(0, 0), (1, 3), (2, 1)]), v) == half_1_3i
    assert common_scale(gaussian([(0, 0), (2, 0), (1, -1)]), v) == ONE
    assert common_scale(gaussian([(0, 0), (0, 0), (0, 0)]), v) == ZERO
    # the factor read at the first nonzero v_p must hold at every entry
    assert common_scale(gaussian([(0, 0), (2, 0), (1, 1)]), v) is None
    assert common_scale(gaussian([(1, 0), (2, 0), (1, -1)]), v) is None


def test_common_scale_measures_a_family_by_concatenation():
    # u_k = 3 v_k for both members; a zero member admits any factor
    family = [([(3, 0), (0, 6)], [(1, 0), (0, 2)]), ([(0, 0)], [(0, 0)])]
    u = gaussian([a for uk, _ in family for a in uk])
    v = gaussian([b for _, vk in family for b in vk])
    assert common_scale(u, v) == GaussianRational(3)


def test_common_scale_of_all_zero_right_sides():
    """Every c fits when u is zero too, and the answer is then 0; no c
    fits a nonzero u."""
    zero = gaussian([(0, 0), (0, 0)])
    assert common_scale(zero, zero) == ZERO
    assert common_scale(gaussian([(0, 0), (0, 1)]), zero) is None
    assert common_scale(gaussian([]), gaussian([])) == ZERO


def test_common_scale_decides_int64_input_in_python_ints():
    # (1 + 2**32) * 2**32 wraps around to 2**32 * 1 in int64
    v = np.array([[2**32, 1], [0, 0]])
    assert common_scale(v, v) == ONE
    assert common_scale(np.array([[2**32, 1 + 2**32], [0, 0]]), v) is None
