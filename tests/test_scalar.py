from fractions import Fraction

import pytest

from nonassoc.scalar import GaussianRational, I, ONE, ZERO, solve_exact


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
