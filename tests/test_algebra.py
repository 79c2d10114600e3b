import copy
import itertools
import math
import pickle
import random
from fractions import Fraction

import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from nonassoc.algebra import (
    AlgebraDef,
    AlgebraMismatchError,
    Element,
    associator,
    commutator,
    jacobiator,
    multiply,
)
from nonassoc.algfile import parse_text
from nonassoc.corpus import (
    SPLIT_OCTONION_TABLE,
    complex_numbers,
    quaternions,
    random_commutative,
    split_octonions,
    standard_corpus,
)
from nonassoc.properties import PROPERTIES, check_properties, check_property
from nonassoc.scalar import GaussianRational, I, ZERO
from nonassoc.search import CandidateAlgebra, candidate_to_algebra
from nonassoc.zorn import from_zorn, to_zorn, zorn_matrices, zorn_octonions
from oracle import (
    FIXTURES,
    TupleElement,
    fixture_path,
    fixture_text,
    gaussian_split_octonions,
    invoke,
    random_element,
    reference_product,
)


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
        x = random_element(splitO, rng)
        assert multiply(one, x) == x
        assert multiply(x, one) == x


def test_commutator_examples(splitO):
    q = splitO.basis()
    assert commutator(q[0], q[1]) == q[2].scaled(2)    # [q1, q2] = 2 q3
    assert commutator(q[3], q[4]) == q[2].scaled(-2)   # [q4, q5] = -2 q3
    rng = random.Random(5)
    x = random_element(splitO, rng)
    assert commutator(x, x).is_zero()


def test_associator_examples(splitO):
    q = splitO.basis()
    assert associator(q[3], q[4], q[5]) == q[6].scaled(2)   # (q4,q5,q6) = 2 q7
    rng = random.Random(6)
    x, y = random_element(splitO, rng), random_element(splitO, rng)
    assert associator(splitO.one(), x, y).is_zero()
    # quaternion triple is associative
    for i, j, k in itertools.product(range(3), repeat=3):
        assert associator(q[i], q[j], q[k]).is_zero()


def test_jacobiator_examples(splitO):
    q = splitO.basis()
    assert jacobiator(q[3], q[4], q[5]) == q[6].scaled(12)  # 12 q7
    assert jacobiator(q[0], q[1], q[2]).is_zero()
    rng = random.Random(7)
    x, y = random_element(splitO, rng), random_element(splitO, rng)
    assert jacobiator(x, x, y).is_zero()


def test_mismatched_algebras_rejected(splitO):
    other = quaternions()
    with pytest.raises(AlgebraMismatchError):
        multiply(splitO.basis_element(0), other.basis_element(0))
    with pytest.raises(AlgebraMismatchError):
        splitO.basis_element(0) + other.basis_element(0)


def test_bad_element_and_table_input_is_rejected(splitO):
    plain = random_commutative()     # not unital
    with pytest.raises(ValueError, match="basis index 2 out of range"):
        AlgebraDef.from_products("bad", 2, {(0, 0): (0, {2: 1})}, unital=False)
    with pytest.raises(ValueError, match="has no unit"):
        plain.one()
    with pytest.raises(ValueError, match="wrong length"):
        splitO.element(0, [1, 2])
    with pytest.raises(ValueError, match="has no unit"):
        plain.element(1)
    with pytest.raises(ValueError, match="numerators over a positive denominator"):
        Element(splitO, 1, [0] * 3)
    with pytest.raises(ValueError, match="numerators over a positive denominator"):
        Element(splitO, 0, [0] * 8)
    with pytest.raises(TypeError, match="expected an Element"):
        splitO.basis_element(0) + 1


def test_bilinearity_in_both_slots():
    rng = random.Random(42)
    for alg in standard_corpus():
        for _ in range(10):
            x, y, z = (random_element(alg, rng) for _ in range(3))
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
            x, y, z = (random_element(alg, rng) for _ in range(3))
            assert commutator(x, y) == -commutator(y, x)
            w = random_element(alg, rng)
            assert associator(x + w, y, z) == associator(x, y, z) + associator(w, y, z)
            assert associator(x, y + w, z) == associator(x, y, z) + associator(x, w, z)
            assert associator(x, y, z + w) == associator(x, y, z) + associator(x, y, w)


def test_jacobiator_equals_alternating_associator_sum():
    rng = random.Random(44)
    for alg in standard_corpus():
        for _ in range(8):
            x, y, z = (random_element(alg, rng) for _ in range(3))
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
            x, y, z = (random_element(alg, rng) for _ in range(3))
            assert jacobiator(x, y, z) == associator(x, y, z).scaled(6)


def test_element_rendering(splitO):
    q = splitO.basis()
    el = q[2] - q[0].scaled(2) + splitO.one().scaled(GaussianRational(1, 1))
    text = str(el)
    assert "q3" in text and "2*q1" in text and "(1+i)" in text
    assert str(splitO.zero()) == "0"


def test_element_paths_build_no_gaussian_rational(monkeypatch):
    """Products, sums, differences and their text, `table` with and without
    `--zorn`, Zorn products of the basis images read back, and the law
    witnesses with their descriptions stay in integers."""
    alg = split_octonions()
    path = fixture_path("splitO.alg")
    built = []
    init = GaussianRational.__init__

    def counting(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(GaussianRational, "__init__", counting)
    basis = alg.basis()
    texts = []
    for x, y in itertools.product(basis, repeat=2):
        p = multiply(x, y)
        texts += [str(p), str(p + x), str(p - y)]
    table = invoke(["table", path])
    zorn_table = invoke(["table", path, "--zorn"])
    images = [to_zorn(e) for e in [alg.one()] + basis]
    zorn_products = [from_zorn(multiply(z, w)) for z, w in itertools.product(images, repeat=2)]
    reports = [check_property(alg, law) for law in ("associative", "alternative")]
    described = [r.witness.describe() for r in reports]
    assert built == []
    monkeypatch.undo()
    assert table.exit_code == 0 and "q3" in table.output
    assert zorn_table.exit_code == 0 and "[-1, (0, 0, 0); (0, 0, 0), 1]" in zorn_table.output
    assert zorn_products[8 + 1] == -alg.one()            # q1 q1 = -1 through the images
    assert texts[:3] == ["-1", "-1 + q1", "-1 - q1"]     # q1 q1 = -1
    assert all(not r.holds and "defect" in d for r, d in zip(reports, described))


# -- element arithmetic against the coefficient-tuple oracle -------------------

RATIONALS = st.builds(
    Fraction,
    st.integers(-2, 2) | st.integers(-2**70, 2**70),
    st.integers(1, 12) | st.sampled_from([2**35, 2**64, 2**70]) | st.integers(1, 2**70),
)
SCALARS = st.just(ZERO) | st.builds(GaussianRational, RATIONALS, st.just(0) | RATIONALS)


def coefficient_tuples(alg):
    """(unit, coeffs) of GaussianRational, often zero; no unit part in a
    non-unital algebra."""
    return st.tuples(SCALARS if alg.unital else st.just(ZERO),
                     st.tuples(*[SCALARS] * alg.dim))


def assert_canonical(e):
    """den positive and coprime to the vector (so zero has den 1), and the
    vector Python ints at full width."""
    assert e.den > 0 and math.gcd(e.den, *e.vec) == 1
    assert len(e.vec) == 2 * (e.algebra.dim + 1) and all(type(v) is int for v in e.vec)


@pytest.mark.parametrize("alg", [
    split_octonions(),
    gaussian_split_octonions(),
    candidate_to_algebra(CandidateAlgebra.random(1)),
], ids=lambda a: a.name)
# no shrinking: on a failure it spends minutes on the 70-bit coefficients
@settings(settings.get_profile("exact"), max_examples=25,
          phases=[Phase.explicit, Phase.reuse, Phase.generate])
@given(data=st.data())
def test_element_arithmetic_matches_the_tuple_oracle(alg, data):
    x_parts = data.draw(coefficient_tuples(alg))
    y_parts = data.draw(st.just(x_parts) | coefficient_tuples(alg))
    s = data.draw(SCALARS)
    r = data.draw(st.integers(-3, 3) | RATIONALS)
    x, y = alg.element(*x_parts), alg.element(*y_parts)
    rx, ry = TupleElement(alg, *x_parts), TupleElement(alg, *y_parts)
    for got, want in [(x, rx), (x + y, rx + ry), (x - y, rx - ry), (-x, -rx),
                      (x.scaled(s), rx.scaled(s)), (x.scaled(r), rx.scaled(r)),
                      (multiply(x, y), rx.multiply(ry))]:
        assert_canonical(got)
        assert (got.unit, got.coeffs) == (want.unit, want.coeffs)
        assert got == alg.element(want.unit, want.coeffs)
        assert str(got) == str(want)
        assert got.is_zero() == all(c.is_zero() for c in (want.unit, *want.coeffs))
    assert (x == y) == (rx == ry) == (x - y).is_zero()


# -- multiply against the structure table it is built from --------------------

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


def test_random_commutative_cells_are_pinned():
    # e_i e_j as (unit, e1, e2, e3), drawn from random.Random(7) in row order
    alg = random_commutative()
    assert (alg.name, alg._den, alg.unital, str(alg.tensor.dtype)) == ("randcomm7", 1, False, "int64")
    assert alg.tensor[1:, 1:].tolist() == [
        [[0, 0, -1, 0], [0, 1, -1, -1], [0, 1, -1, 0]],
        [[0, 1, -1, -1], [0, 1, -1, 1], [0, -1, -1, -1]],
        [[0, 1, -1, 0], [0, -1, -1, -1], [0, 0, 0, -1]],
    ]


# -- the integer constructor ----------------------------------------------------

def test_constructor_reduces_integer_cells_over_a_common_denominator():
    # e1 e1 = 1/2 e2 - i e1, e2 e1 = -1: numerators over 4, not the least
    cells = [[0, 0, 2, 0, -4, 0], [0] * 6, [-4, 0, 0, 0, 0, 0], [0] * 6]
    alg = AlgebraDef("g", 2, 4, cells, unital=True)
    assert alg._den == 2
    assert alg.basis_product(0, 0) == alg.element(0, [-I, Fraction(1, 2)])
    assert alg.basis_product(1, 0) == alg.one().scaled(-1)
    # an all-zero imaginary half is dropped
    real = AlgebraDef("r", 2, 4, [c[:3] + [0, 0, 0] for c in cells], unital=True)
    assert real.tensor.shape == (3, 3, 3)
    assert real == AlgebraDef("r", 2, 4, [c[:3] for c in cells], unital=True)


@pytest.mark.parametrize("dim, den, cells, message", [
    (0, 1, [], "dimension must be positive"),
    (1, 0, [[0, 1]], "denominator must be positive"),
    (2, 1, [[0, 0, 0]] * 3, r"need dim\*dim = 4 product cells, got 3"),
    (2, 1, [[0, 0, 0]] * 5, r"need dim\*dim = 4 product cells, got 5"),
    (2, 1, [[0, 0, 0]] * 3 + [[0] * 6], "all have length 3 or all 6"),
    (2, 1, [[0, 0]] * 4, "all have length 3 or all 6"),
    (2, 1, [[0] * 4] * 4, "all have length 3 or all 6"),
], ids=["dim-0", "den-0", "3-cells", "5-cells", "mixed-widths", "too-short", "between-widths"])
def test_constructor_rejects_a_bad_shape(dim, den, cells, message):
    with pytest.raises(ValueError, match=message):
        AlgebraDef("bad", dim, den, cells, unital=True)


def test_constructor_rejects_bad_names_and_a_unit_in_a_non_unital_table():
    with pytest.raises(ValueError, match="one basis name per dimension"):
        AlgebraDef("bad", 1, 1, [[0, 1]], unital=False, basis_names=("a", "b"))
    with pytest.raises(ValueError, match=r"e1\*e1 uses the unit in a non-unital algebra"):
        AlgebraDef("bad", 1, 1, [[-1, 0]], unital=False)


@pytest.mark.parametrize("field", ["algebra", "den", "vec"])
def test_elements_are_immutable(field):
    # basis elements are shared values: rescaling one in place must not work
    e = split_octonions().basis_element(0)
    with pytest.raises(AttributeError):
        setattr(e, field, {"algebra": quaternions(), "den": 5, "vec": (0,) * 16}[field])
    assert (str(e), e.den) == ("q1", 1)


def exact_values():
    """One value of each exact type; the law kernels have run on each algebra."""
    alg, candidate = split_octonions(), candidate_to_algebra(CandidateAlgebra.random(1))
    for table in (alg, candidate, zorn_matrices()):
        check_property(table, "flexible")
    return [GaussianRational(Fraction(3, 4), -2), alg, candidate,
            alg.basis_element(2).scaled(I + Fraction(1, 3)),
            zorn_matrices().element(0, [1, *(I, 0, 0), *(0, Fraction(1, 2), 0), -1])]


@pytest.mark.parametrize("copy_of", [copy.copy, copy.deepcopy,
                                     lambda x: pickle.loads(pickle.dumps(x))],
                         ids=["copy", "deepcopy", "pickle"])
@pytest.mark.parametrize("index", range(5),
                         ids=["scalar", "algebra", "object-algebra", "element", "zorn"])
def test_exact_values_survive_copy_and_pickle(copy_of, index):
    value = exact_values()[index]
    twin = copy_of(value)
    assert type(twin) is type(value)
    assert twin == value and str(twin) == str(value)
    if isinstance(value, AlgebraDef):    # built again by the constructor
        assert twin.name == value.name and twin.tensor.dtype == value.tensor.dtype
        assert not twin.tensor.flags.writeable
        assert check_property(twin, "flexible") == check_property(value, "flexible")


def test_the_tensor_is_read_only():
    """q1 q1 = 5 written into a checked quaternion table is refused; the
    changed table is parsed as an algebra of its own, which fails."""
    text = fixture_text("quaternion.alg")
    alg = parse_text(text).algebra
    assert check_property(alg, "associative").holds
    with pytest.raises(ValueError):
        alg.tensor[1, 1, 0] = 5 * alg._den
    assert check_property(alg, "associative").holds
    changed = parse_text(text.replace("e1 e1 -> -1", "e1 e1 -> 5")).algebra
    report = check_property(changed, "associative")
    assert report.witness.describe() == "(q1, q1, q2) -> defect 6*q2 [associativity]"


@pytest.mark.parametrize("make", [*(lambda name=name: parse_text(fixture_text(name)).algebra
                                    for name in FIXTURES),
                                  lambda: candidate_to_algebra(CandidateAlgebra.random(1)),
                                  zorn_matrices],
                         ids=[*FIXTURES, "candidate-1", "zorn-matrices"])
def test_law_checks_keep_nothing_on_the_algebra(make):
    alg = make()
    before = dict(vars(alg))
    check_properties(alg, PROPERTIES)
    assert vars(alg).keys() == before.keys()
    assert all(vars(alg)[name] is value for name, value in before.items())
