import itertools
import random
from fractions import Fraction

import pytest

from nonassoc.algebra import (
    AlgebraDef,
    AlgebraMismatchError,
    associator,
    commutator,
    jacobiator,
    multiply,
)
from nonassoc.corpus import (
    SPLIT_OCTONION_TABLE,
    complex_numbers,
    quaternions,
    split_octonions,
    standard_corpus,
)
from nonassoc.scalar import GaussianRational, I, ZERO
from nonassoc.search import CandidateAlgebra, candidate_to_algebra
from nonassoc.zorn import zorn_octonions


@pytest.fixture(scope="module")
def splitO():
    return split_octonions()


def table_product(alg, i, j):
    """Independent lookup straight from the source table strings."""
    cell = SPLIT_OCTONION_TABLE[i][j]
    sign = -1 if cell.startswith("-") else 1
    body = cell.lstrip("-")
    if body == "1":
        return alg.one().scaled(sign)
    return alg.basis_element(int(body[1:]) - 1).scaled(sign)


def test_multiply_basis_pairs_match_table(splitO):
    for i, j in itertools.product(range(7), repeat=2):
        got = multiply(splitO.basis_element(i), splitO.basis_element(j))
        assert got == table_product(splitO, i, j)


def test_multiply_examples(splitO):
    q = splitO.basis()
    assert multiply(q[0], q[1]) == q[2]            # q1 q2 = q3
    # bilinear expansion over two table rows: q4 q6 = q2, q5 q6 = -q1
    assert multiply(q[3] + q[4], q[5]) == q[1] - q[0]


def test_unit_is_identity(splitO):
    rng = random.Random(11)
    one = splitO.one()
    for _ in range(25):
        x = splitO.random_element(rng)
        assert multiply(one, x) == x
        assert multiply(x, one) == x


def test_commutator_examples(splitO):
    q = splitO.basis()
    assert commutator(q[0], q[1]) == q[2].scaled(2)    # [q1, q2] = 2 q3
    assert commutator(q[3], q[4]) == q[2].scaled(-2)   # [q4, q5] = -2 q3
    rng = random.Random(5)
    x = splitO.random_element(rng)
    assert commutator(x, x).is_zero()


def test_associator_examples(splitO):
    q = splitO.basis()
    assert associator(q[3], q[4], q[5]) == q[6].scaled(2)   # (q4,q5,q6) = 2 q7
    rng = random.Random(6)
    x, y = splitO.random_element(rng), splitO.random_element(rng)
    assert associator(splitO.one(), x, y).is_zero()
    # quaternion triple is associative
    for i, j, k in itertools.product(range(3), repeat=3):
        assert associator(q[i], q[j], q[k]).is_zero()


def test_jacobiator_examples(splitO):
    q = splitO.basis()
    assert jacobiator(q[3], q[4], q[5]) == q[6].scaled(12)  # 12 q7
    assert jacobiator(q[0], q[1], q[2]).is_zero()
    rng = random.Random(7)
    x, y = splitO.random_element(rng), splitO.random_element(rng)
    assert jacobiator(x, x, y).is_zero()


def test_mismatched_algebras_rejected(splitO):
    other = quaternions()
    with pytest.raises(AlgebraMismatchError):
        multiply(splitO.basis_element(0), other.basis_element(0))
    with pytest.raises(AlgebraMismatchError):
        splitO.basis_element(0) + other.basis_element(0)


def test_bilinearity_in_both_slots():
    rng = random.Random(42)
    for alg in standard_corpus():
        for _ in range(10):
            x, y, z = (alg.random_element(rng) for _ in range(3))
            a = GaussianRational(rng.randint(-3, 3), rng.randint(-2, 2))
            b = GaussianRational(rng.randint(-3, 3), rng.randint(-2, 2))
            left = multiply(x.scaled(a) + y.scaled(b), z)
            assert left == multiply(x, z).scaled(a) + multiply(y, z).scaled(b)
            right = multiply(z, x.scaled(a) + y.scaled(b))
            assert right == multiply(z, x).scaled(a) + multiply(z, y).scaled(b)


def test_commutator_antisymmetry_and_associator_linearity():
    rng = random.Random(43)
    for alg in standard_corpus():
        for _ in range(8):
            x, y, z = (alg.random_element(rng) for _ in range(3))
            assert commutator(x, y) == -commutator(y, x)
            w = alg.random_element(rng)
            assert associator(x + w, y, z) == associator(x, y, z) + associator(w, y, z)
            assert associator(x, y + w, z) == associator(x, y, z) + associator(x, w, z)
            assert associator(x, y, z + w) == associator(x, y, z) + associator(x, y, w)


def test_jacobiator_equals_alternating_associator_sum():
    rng = random.Random(44)
    for alg in standard_corpus():
        for _ in range(8):
            x, y, z = (alg.random_element(rng) for _ in range(3))
            alt = (
                associator(x, y, z) - associator(x, z, y)
                + associator(y, z, x) - associator(y, x, z)
                + associator(z, x, y) - associator(z, y, x)
            )
            assert jacobiator(x, y, z) == alt


def test_jacobiator_is_six_associators_on_alternative_algebras():
    from nonassoc.zorn import zorn_octonions

    rng = random.Random(45)
    for alg in (quaternions(), complex_numbers(), zorn_octonions()):
        for _ in range(8):
            x, y, z = (alg.random_element(rng) for _ in range(3))
            assert jacobiator(x, y, z) == associator(x, y, z).scaled(6)


def test_element_rendering(splitO):
    q = splitO.basis()
    el = q[2] - q[0].scaled(2) + splitO.one().scaled(GaussianRational(1, 1))
    text = str(el)
    assert "q3" in text and "2*q1" in text and "(1+i)" in text
    assert str(splitO.zero()) == "0"


# -- multiply against the structure table it is built from --------------------

def reference_product(x, y):
    """(unit, coeffs) of x y, expanded bilinearly over `structure` in exact
    scalars, with the unit acting as the identity."""
    alg = x.algebra
    unit = x.unit * y.unit
    coeffs = [x.unit * b + y.unit * a for a, b in zip(x.coeffs, y.coeffs)]
    for (i, a), (j, b) in itertools.product(enumerate(x.coeffs), enumerate(y.coeffs)):
        p_unit, p_coeffs = alg.structure[i][j]
        unit = unit + a * b * p_unit
        coeffs = [c + a * b * p for c, p in zip(coeffs, p_coeffs)]
    return unit, tuple(coeffs)


def gaussian_split_octonions():
    """splitO with the products e_i e_j, i + 2j divisible by 3, times i."""
    alg = split_octonions()
    products = {}
    for i, j in itertools.product(range(7), repeat=2):
        unit, coeffs = alg.structure[i][j]
        f = I if (i + 2 * j) % 3 == 0 else 1
        products[(i, j)] = (unit * f, {k: c * f for k, c in enumerate(coeffs)})
    return AlgebraDef.from_products("gsplitO", 7, products, True, alg.basis_names)


def non_unital_table():
    """A non-unital table with a fraction and an imaginary constant."""
    return AlgebraDef.from_products("nonunital", 2, {
        (0, 0): (ZERO, {1: Fraction(1, 3)}),
        (0, 1): (ZERO, {0: I, 1: 2}),
        (1, 0): (ZERO, {0: -2}),
    }, unital=False)


def exact_element(alg, rng):
    """Complex coefficients with denominators up to 2**70, and a unit part
    when the algebra has one."""
    def scalar():
        return GaussianRational(Fraction(rng.randint(-9, 9), rng.choice([1, 3, 2**70])),
                                Fraction(rng.randint(-9, 9), rng.choice([1, 7, 2**69])))

    return alg.element(scalar() if alg.unital else 0, [scalar() for _ in range(alg.dim)])


@pytest.mark.parametrize("alg", standard_corpus() + [
    zorn_octonions(),
    gaussian_split_octonions(),
    candidate_to_algebra(CandidateAlgebra.random(1)),
    candidate_to_algebra(CandidateAlgebra.random(2)),
    non_unital_table(),
], ids=lambda a: f"{a.name}-{a.tensor.dtype}-{a.tensor.shape[2]}")
def test_multiply_matches_the_structure_table(alg):
    rng = random.Random(alg.dim)
    pairs = [(exact_element(alg, rng), exact_element(alg, rng)) for _ in range(3)]
    pairs += [(x, alg.basis_element(k)) for k, (x, _) in zip((0, alg.dim - 1), pairs)]
    for x, y in pairs:
        product = multiply(x, y)
        assert (product.unit, product.coeffs) == reference_product(x, y)
