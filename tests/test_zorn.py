import itertools
import pickle
import random
from fractions import Fraction

import numpy as np
import pytest

from nonassoc import zorn
from nonassoc.algebra import AlgebraDef, multiply
from nonassoc.corpus import split_octonions
from nonassoc.properties import PROPERTIES, check_property
from nonassoc.scalar import GaussianRational, I, ONE
from nonassoc.zorn import (
    from_zorn,
    to_zorn,
    verify_spin_commutators,
    verify_spin_decomposition,
    verify_zorn_isomorphism,
    zorn_matrices,
    zorn_octonions,
    zorn_text,
)
from oracle import random_element, reference_verdicts, reference_zorn_product, solve


@pytest.fixture(scope="module")
def splitO():
    return split_octonions()


def zorn_one():
    """The identity (1, 0; 0, 1) of `zorn_matrices()`."""
    return zorn_matrices().element(0, [1, 0, 0, 0, 0, 0, 0, 1])


def random_zorn(rng):
    return zorn_matrices().element(0, [rng.randint(-3, 3) for _ in range(8)])


def fields(z):
    """(a, x, y, b) of a Zorn matrix, the tuple form of the oracle."""
    c = z.coeffs
    return c[0], c[1:4], c[4:7], c[7]


def random_gaussian_zorn(rng):
    """Entries with non-integer and imaginary parts."""
    def entry():
        return GaussianRational(Fraction(rng.randint(-4, 4), rng.randint(1, 6)),
                                Fraction(rng.randint(-4, 4), rng.randint(1, 6)))

    return zorn_matrices().element(0, [entry() for _ in range(8)])


def test_zorn_product_matches_the_block_rule_reference():
    rng = random.Random(21)
    for _ in range(200):
        Z, W = random_gaussian_zorn(rng), random_gaussian_zorn(rng)
        assert fields(multiply(Z, W)) == reference_zorn_product(fields(Z), fields(W))


def test_zorn_text_writes_each_component_as_its_scalar():
    rng = random.Random(4)
    for _ in range(20):
        z = random_gaussian_zorn(rng)
        a, x, y, b = fields(z)
        x, y = (", ".join(map(str, v)) for v in (x, y))
        assert zorn_text(z) == f"[{a}, ({x}); ({y}), {b}]"


def test_zorn_matrices_and_zorn_octonions_share_every_verdict():
    # PHI is an isomorphism, and an isomorphism preserves every multilinear
    # identity; the Zorn table has no unit index, so its identity is internal
    matrices, octonions = zorn_matrices(), zorn_octonions()
    verdicts = {law: check_property(matrices, law).holds for law in PROPERTIES}
    assert verdicts == {law: check_property(octonions, law).holds for law in PROPERTIES}
    assert [law for law in PROPERTIES if verdicts[law]] == [
        "alternative", "flexible", "power_associative", "unital"]
    assert check_property(matrices, "unital").detail == "internal unit a + b"
    assert not matrices.unital


def test_twice_inverse_of_the_basis_map():
    assert np.array_equal(zorn.PHI @ zorn.TWICE_INV, 2 * np.eye(8, dtype=np.int64))


def test_identity_matrix_is_neutral():
    rng = random.Random(3)
    e = zorn_one()
    for _ in range(20):
        z = random_zorn(rng)
        assert multiply(e, z) == z
        assert multiply(z, e) == z


def test_block_product_formula():
    # one fully generic pair against a by-hand expansion of the block rule
    A = zorn_matrices().element(0, [2, *(1, 0, -1), *(0, 3, 1), -1])
    B = zorn_matrices().element(0, [1, *(0, 2, 0), *(1, 1, -2), 3])
    a, x, y, b = fields(multiply(A, B))
    # a*c + x.v = 2 + (1*1 + 0*1 + (-1)(-2)) = 5
    assert a == GaussianRational(5)
    # b*d + y.u = -3 + (0*0 + 3*2 + 1*0) = 3
    assert b == GaussianRational(3)
    # a*u + d*x - y X v ; y X v = (3*(-2)-1*1, 1*1-0*(-2), 0*1-3*1) = (-7, 1, -3)
    assert x == (GaussianRational(10), GaussianRational(3), GaussianRational(0))
    # c*y + b*v + x X u ; x X u = (0*0-(-1)*2, (-1)*0-1*0, 1*2-0*0) = (2, 0, 2)
    assert y == (GaussianRational(1), GaussianRational(2), GaussianRational(5))


def test_basis_images(splitO):
    q = splitO.basis()
    zm = zorn_matrices()
    assert to_zorn(splitO.one()) == zorn_one()
    assert to_zorn(q[6]) == zm.element(0, [-1, *(0, 0, 0), *(0, 0, 0), 1])
    assert to_zorn(q[0]) == zm.element(0, [0, *(-1, 0, 0), *(1, 0, 0), 0])
    assert to_zorn(q[3]) == zm.element(0, [0, *(1, 0, 0), *(1, 0, 0), 0])
    # linearity: q1 + q4 has a cancelling upper slot
    assert to_zorn(q[0] + q[3]) == zm.element(0, [0, *(0, 0, 0), *(2, 0, 0), 0])
    assert to_zorn(splitO.zero()) == zm.zero()
    # str is the Element text over the components; zorn_text the block form
    assert str(to_zorn(q[6])) == "-a + b"
    assert zorn_text(to_zorn(q[6])) == "[-1, (0, 0, 0); (0, 0, 0), 1]"


def test_zorn_products_of_images(splitO):
    q = splitO.basis()
    assert multiply(to_zorn(q[0]), to_zorn(q[1])) == to_zorn(q[2])
    assert multiply(to_zorn(q[3]), to_zorn(q[3])) == zorn_one()


def test_from_zorn_matches_linear_solve_oracle(splitO):
    # oracle: express a Zorn matrix over the eight basis images by solving
    # the 8x8 linear system in the (a, x, y, b) coordinates
    images = [to_zorn(splitO.one())] + [to_zorn(b) for b in splitO.basis()]

    rng = random.Random(9)
    for _ in range(10):
        z = random_zorn(rng)
        rows = [[img.coeffs[r] for img in images] for r in range(8)]
        sol, _ = solve(rows, list(z.coeffs))
        assert sol is not None
        expected = splitO.element(sol[0], sol[1:])
        assert from_zorn(z) == expected


def test_from_zorn_examples(splitO):
    q = splitO.basis()
    assert from_zorn(zorn_one()) == splitO.one()
    assert from_zorn(zorn_matrices().zero()) == splitO.zero()
    z = zorn_matrices().element(0, [0, *(0, 1, 0), *(0, -1, 0), 0])
    assert from_zorn(z) == -q[1]  # (0, e2; -e2, 0) = -q2


def test_round_trips(splitO):
    rng = random.Random(10)
    for _ in range(100):
        s = random_element(splitO, rng)
        assert from_zorn(to_zorn(s)) == s
    for _ in range(100):
        z = random_zorn(rng)
        assert to_zorn(from_zorn(z)) == z


def test_isomorphism_verdict(splitO):
    report = verify_zorn_isomorphism()
    assert not report.holds
    assert "36 of 64" in report.detail
    # first mismatch: q1*q4 is -q7 in the table, +q7 through the matrices
    q = splitO.basis()
    assert report.witness.indices == (0, 3)
    assert report.witness.defect == q[6].scaled(2)
    assert report.witness.law == "q1*q4: table -q7, Zorn image q7"
    # every mismatch is a pure sign flip
    elems = [splitO.one()] + splitO.basis()
    flips = 0
    for u, v in itertools.product(elems, repeat=2):
        table_side = multiply(u, v)
        zorn_side = from_zorn(multiply(to_zorn(u), to_zorn(v)))
        if table_side != zorn_side:
            flips += 1
            assert zorn_side == -table_side
    assert flips == 36


def test_isomorphism_holds_on_the_table_the_zorn_form_generates(monkeypatch):
    table = zorn_octonions()    # cached, so built before split_octonions is patched
    monkeypatch.setattr(zorn, "split_octonions", lambda: table)
    report = verify_zorn_isomorphism()
    assert report.holds and report.witness is None
    assert report.detail == "all 64 ordered basis pairs agree"


def test_isomorphism_detail_counts_pairs_not_by_sign(monkeypatch):
    assert "(all by sign)" in verify_zorn_isomorphism().detail
    # With the sign of the y X v block flipped, some pairs differ from the
    # table by more than a sign, and the detail must count them.
    mutated = zorn.ZORN.copy()
    mutated[zorn.Y, zorn.Y, zorn.X] *= -1
    monkeypatch.setattr(zorn, "ZORN", mutated)
    # the cached table was built with the real product; build it afresh
    monkeypatch.setattr(zorn, "zorn_octonions", zorn.zorn_octonions.__wrapped__)
    report = verify_zorn_isomorphism()
    assert not report.holds
    assert "all by sign" not in report.detail
    assert report.detail.startswith("42 of 64 ordered basis pairs disagree (24 not by sign);")


def test_spin_commutators():
    report = verify_spin_commutators()
    assert report.pauli_side_holds
    assert not report.printed_relation_holds  # right side needs a factor i
    assert report.measured_factor == I


def test_printed_relation_holds_where_the_quaternion_products_carry_minus_i(monkeypatch):
    """Eq. 2-50 as printed, [s_i, s_j] = eps_ijk s_k, is the ledger's FAIL
    on the bundled table; on a table with q_i q_j = -i eps_ijk q_k it holds."""
    table = _turned(split_octonions())
    assert table.basis_product(0, 1) == table.basis_element(2).scaled(-I)
    monkeypatch.setattr(zorn, "split_octonions", lambda: table)
    report = verify_spin_commutators()
    assert report.printed_relation_holds and report.witness is None
    assert report.measured_factor == ONE
    assert not report.quaternion_bracket_holds


def test_spin_commutator_defect_value(splitO):
    from nonassoc.algebra import commutator

    q = splitO.basis()
    half_i = I * Fraction(1, 2)
    lhs = commutator(q[0].scaled(half_i), q[1].scaled(half_i))
    assert lhs == q[2].scaled(I * half_i)        # i * eps_123 * (i/2) q3
    assert lhs != q[2].scaled(half_i)            # the stated right side


def test_spin_decomposition():
    report = verify_spin_decomposition()
    assert report.product_decomposition_holds
    assert report.bracket_constant_uniform
    assert report.bracket_constant == ONE        # lambda = 1


def test_to_zorn_rejects_foreign_elements():
    from nonassoc.corpus import quaternions

    with pytest.raises(ValueError):
        to_zorn(quaternions().basis_element(0))


def test_from_zorn_rejects_foreign_elements(splitO):
    from nonassoc.corpus import quaternions

    # the zero product on the eight Zorn components has vectors of the same width
    zero_product = AlgebraDef("zorn", 8, 1, [[0] * 9] * 64, unital=False,
                              basis_names=zorn_matrices().basis_names)
    for alg in (zero_product, splitO, quaternions()):
        with pytest.raises(ValueError, match="from_zorn"):
            from_zorn(alg.basis_element(0))
    # a pickled copy holds an equal algebra, not the cached one
    z = pickle.loads(pickle.dumps(to_zorn(splitO.basis_element(0))))
    assert z.algebra is not zorn_matrices()
    assert from_zorn(z) == splitO.basis_element(0)


def test_zorn_octonions_table_properties():
    zo = zorn_octonions()
    assert check_property(zo, "alternative").holds
    assert check_property(zo, "flexible").holds
    assert not check_property(zo, "associative").holds
    # the derived table flips the bracket sign of the split sector
    q = zo.basis()
    from nonassoc.algebra import commutator

    assert commutator(q[3], q[4]) == q[2].scaled(2)   # +2 q3, not -2 q3
    assert commutator(q[0], q[1]) == q[2].scaled(2)   # quaternion sector agrees


def test_zorn_scalar_coefficients_survive():
    splitO = split_octonions()
    s = splitO.element(GaussianRational(1, 2), [Fraction(1, 3), 0, 0, 2, 0, 0, GaussianRational(0, -1)])
    assert from_zorn(to_zorn(s)) == s


def test_integer_zorn_table_matches_gaussian_rational_reference(splitO):
    # the reference multiplies the GaussianRational images by the written-out
    # block rule and reads the product back through from_zorn, on all 64
    # ordered pairs of 1, q1..q7
    refs = [splitO.one()] + splitO.basis()
    table = zorn_octonions()
    elems = [table.one()] + table.basis()
    for (u, ru), (v, rv) in itertools.product(zip(elems, refs), repeat=2):
        got = multiply(u, v)
        a, x, y, b = reference_zorn_product(fields(to_zorn(ru)), fields(to_zorn(rv)))
        want = from_zorn(zorn_matrices().element(0, [a, *x, *y, b]))
        assert (got.unit, got.coeffs) == (want.unit, want.coeffs)


# -- tensor-decided octonion entries against an Element reference -------------

def _flipped(alg, i, j):
    """A copy of `alg` with the product e_i e_j (0-based) negated."""
    cells = alg.tensor[1:, 1:].reshape(alg.dim**2, -1).tolist()
    cells[i * alg.dim + j] = [-v for v in cells[i * alg.dim + j]]
    return AlgebraDef(f"{alg.name}-flip", alg.dim, alg._den, cells, alg.unital, alg.basis_names)


def _turned(alg):
    """A copy of `alg` with each product q_i q_j of two distinct elements of
    q1..q3 times -i: -i eps_ijk q_k in the split octonions."""
    n = alg.dim + 1
    cells = [[*vec, *[0] * n] for vec in alg.tensor[1:, 1:].reshape(alg.dim**2, -1).tolist()]
    for i, j in itertools.permutations(range(3), 2):
        vec = cells[i * alg.dim + j]
        cells[i * alg.dim + j] = [*vec[n:], *(-v for v in vec[:n])]
    return AlgebraDef(f"{alg.name}-turn", alg.dim, alg._den, cells, alg.unital, alg.basis_names)


def _variants():
    splitO = split_octonions()
    return [splitO, zorn_octonions(), _flipped(splitO, 3, 4), _flipped(splitO, 0, 1),
            _flipped(splitO, 1, 2), _flipped(splitO, 3, 3), _turned(splitO)]


@pytest.mark.parametrize("alg", _variants(), ids=["splitO", "zornO", "flip-q4q5",
                                                  "flip-q1q2", "flip-q2q3", "flip-q4q4",
                                                  "turn-q1q3"])
def test_tensor_decided_entries_match_element_reference(alg, monkeypatch):
    monkeypatch.setattr(zorn, "split_octonions", lambda: alg)
    want = reference_verdicts(alg)

    spin = verify_spin_commutators()
    assert spin.quaternion_bracket_holds == want["eq_230"]
    assert spin.printed_relation_holds == want["eq_250"]
    assert spin.witness == want["witness"]
    assert spin.measured_factor == want["kappa"]

    decomp = verify_spin_decomposition()
    assert decomp.split_bracket_holds == want["eq_210"]
    assert decomp.split_associator_holds == want["eq_240"]
    assert decomp.product_decomposition_holds == want["eq_260"]
    assert decomp.bracket_constant == want["lam"]
    assert decomp.bracket_constant_uniform == want["uniform"]


def test_element_reference_sees_every_verdict_both_ways():
    # the variants above exercise each verdict as PASS and as FAIL
    outcomes = [reference_verdicts(alg) for alg in _variants()]
    for key in ("eq_210", "eq_230", "eq_240", "eq_250", "eq_260", "uniform"):
        assert {o[key] for o in outcomes} == {True, False}, key
    assert len({str(o["kappa"]) for o in outcomes}) > 1
    assert len({str(o["witness"].defect) for o in outcomes if o["witness"]}) > 1
