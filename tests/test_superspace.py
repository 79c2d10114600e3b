import copy
import functools
import itertools
import math
import pickle
import random
from fractions import Fraction

import numpy as np
import pytest

from nonassoc import report, superspace
from nonassoc.corpus import MINKOWSKI
from nonassoc.scalar import ZERO, GaussianRational, I, ONE, gauss
from nonassoc.spinor import EPS_RAISE, SigmaConvention, sigma_lower_raised, sigma_upper
from nonassoc.superspace import (
    IDENTITY_KEY,
    GeneratorSet,
    PoincareReport,
    SuperOp,
    SusyReport,
    _bracket,
    _merge_sign,
    _read,
    _write,
    build_generators,
    compose,
    graded_bracket,
    grassmann_relations_hold,
    op_anticommutator,
    op_commutator,
    verify_poincare,
    verify_susy,
)
from oracle import act, reference_compose, reference_sigma_lower_raised, scale_of


def random_superop(rng, terms=3):
    """A random homogeneous-free operator for engine stress tests."""
    makers = [
        lambda: SuperOp.x(rng.randrange(4)),
        lambda: SuperOp.dx(rng.randrange(4)),
        lambda: SuperOp.theta(rng.randrange(1, 3)),
        lambda: SuperOp.theta_bar(rng.randrange(1, 3)),
        lambda: SuperOp.dtheta(rng.randrange(1, 3)),
        lambda: SuperOp.dtheta_bar(rng.randrange(1, 3)),
    ]
    out = SuperOp.zero()
    for _ in range(terms):
        factor = SuperOp.one().scaled(GaussianRational(rng.randint(-2, 2), rng.randint(-1, 1)))
        for _ in range(rng.randint(1, 3)):
            factor = compose(factor, rng.choice(makers)())
        out = out + factor
    return out


def reference_build_generators(convention=SigmaConvention.STANDARD,
                               momentum_sign=superspace.DEFAULT_MOMENTUM_SIGN):
    """`build_generators` on the normal-ordering engine: each generator a sum
    of composed and scaled operators, sigma read entry by entry."""
    if momentum_sign not in (1, -1):
        raise ValueError("momentum_sign must be +1 or -1")
    sgn = GaussianRational.of(momentum_sign)
    P_lower = tuple(SuperOp.dx(mu).scaled(sgn * I) for mu in range(4))
    P_upper = tuple(P_lower[mu].scaled(MINKOWSKI[mu]) for mu in range(4))

    M = []
    for mu in range(4):
        row = []
        for nu in range(4):
            row.append(compose(SuperOp.x(mu), P_upper[nu]) - compose(SuperOp.x(nu), P_upper[mu]))
        M.append(tuple(row))

    sigma = sigma_upper(convention)
    Q = []
    for a in range(2):
        op = SuperOp.dtheta(a + 1).scaled(-I)
        for mu in range(4):
            for bd in range(2):
                c = gaussian_entry(sigma, mu, a, bd)
                if not c.is_zero():
                    op = op - compose(SuperOp.theta_bar(bd + 1), SuperOp.dx(mu)).scaled(c)
        Q.append(op)

    Q_bar = []
    for ad in range(2):
        op = SuperOp.dtheta_bar(ad + 1).scaled(I)
        for mu in range(4):
            for b in range(2):
                c = gaussian_entry(sigma, mu, b, ad)
                if not c.is_zero():
                    op = op + compose(SuperOp.theta(b + 1), SuperOp.dx(mu)).scaled(c)
        Q_bar.append(op)

    eps = EPS_RAISE[0].tolist()
    Q_bar_upper = tuple(sum((Q_bar[bd].scaled(c) for bd, c in enumerate(eps[ad]) if c),
                            SuperOp.zero()) for ad in range(2))
    return GeneratorSet.from_operators(convention, P_lower, P_upper, tuple(M),
                                       tuple(Q), tuple(Q_bar), Q_bar_upper)


def gaussian_entry(pair, *at):
    """Entry `at` of a (den, S) pair of `spinor`, as a GaussianRational."""
    den, S = pair
    return GaussianRational(Fraction(int(S[(0, *at)]), den), Fraction(int(S[(1, *at)]), den))


ALL_SETS = [(conv, sign) for conv in SigmaConvention for sign in (1, -1)]
OPERATOR_FIELDS = ("P_lower", "P_upper", "M_upper", "Q", "Q_bar_lower", "Q_bar_upper")


def replaced(gens, **ops):
    """`gens` with the named operator fields replaced, read back into stacks."""
    fields = {name: getattr(gens, name) for name in OPERATOR_FIELDS} | ops
    return GeneratorSet.from_operators(gens.convention, **fields)


def test_build_generators_rejects_a_momentum_sign_other_than_one():
    with pytest.raises(ValueError, match="momentum_sign must be"):
        build_generators(momentum_sign=0)


@pytest.mark.parametrize("conv, sign", ALL_SETS)
def test_build_generators_equals_the_compose_reference(conv, sign):
    built = build_generators(conv, momentum_sign=sign)
    expected = reference_build_generators(conv, momentum_sign=sign)
    for name in ("convention", *OPERATOR_FIELDS):
        assert getattr(built, name) == getattr(expected, name), name
    # denominators and numerator parts are Python ints, as the reference's are
    ops = [*built.P_lower, *built.P_upper, *sum(built.M_upper, ()), *built.Q,
           *built.Q_bar_lower, *built.Q_bar_upper]
    assert {type(v) for op in ops for pair in op._num.values() for v in (op._den, *pair)} == {int}


def test_compose_canonical_pairs():
    assert compose(SuperOp.dx(0), SuperOp.x(0)) == compose(SuperOp.x(0), SuperOp.dx(0)) + SuperOp.one()
    assert compose(SuperOp.theta(1), SuperOp.theta(1)).is_zero()
    assert str(compose(SuperOp.x(0), SuperOp.x(0))) == "x0^2"
    assert compose(SuperOp.dtheta(1), SuperOp.theta(1)) + compose(SuperOp.theta(1), SuperOp.dtheta(1)) == SuperOp.one()


def test_compose_derivative_acts_by_graded_leibniz():
    # the operator dth1 * (multiplication by th1 th2), applied to the whole
    # Grassmann monomial basis, agrees with differentiating directly
    th1th2 = compose(SuperOp.theta(1), SuperOp.theta(2))
    op = compose(SuperOp.dtheta(1), th1th2)
    states = [SuperOp.one(), SuperOp.theta(1), SuperOp.theta(2), th1th2]
    for state in states:
        via_op = act(op, state)
        direct = act(SuperOp.dtheta(1), act(th1th2, state))
        assert via_op == direct
    assert act(op, SuperOp.one()) == SuperOp.theta(2)


def test_normal_order_confluence_on_random_operators():
    rng = random.Random(77)
    for _ in range(40):
        a, b, c = (random_superop(rng) for _ in range(3))
        assert compose(compose(a, b), c) == compose(a, compose(b, c))


def test_parity_is_multiplicative():
    rng = random.Random(78)
    odd = [SuperOp.theta(1), SuperOp.dtheta_bar(2),
           compose(SuperOp.theta(1), compose(SuperOp.theta(2), SuperOp.dtheta(1)))]
    even = [SuperOp.x(1), compose(SuperOp.theta(1), SuperOp.theta_bar(1)), SuperOp.one()]
    for a in odd + even:
        for b in odd + even:
            p = compose(a, b)
            if p.is_zero():
                continue
            assert p.parity() == (a.parity() + b.parity()) % 2


def test_graded_bracket_examples():
    assert graded_bracket(SuperOp.theta(1), SuperOp.theta(2)).is_zero()
    assert graded_bracket(SuperOp.x(1), SuperOp.x(2)).is_zero()
    assert graded_bracket(SuperOp.dtheta(1), SuperOp.theta(1)) == SuperOp.one()


def test_graded_bracket_rejects_mixed_parity():
    mixed = SuperOp.x(0) + SuperOp.theta(1)
    with pytest.raises(ValueError):
        graded_bracket(mixed, SuperOp.x(0))


def test_grassmann_relations():
    assert grassmann_relations_hold()


def test_grassmann_verdict_fails_for_commuting_generators(monkeypatch):
    # Eq. 4-30 read with a bosonic sign: th_a th_b = th_b th_a, and th_a th_a = 0
    monkeypatch.setattr(superspace, "_merge_sign", lambda m1, m2: 0 if m1 & m2 else 1)
    assert not grassmann_relations_hold()


def test_merge_signs_agree_with_the_engine_on_every_monomial_pair():
    # bits 0, 1 are th1, th2 and bits 2, 3 are tb1, tb2, as in a key's masks
    def monomial(mask):
        return SuperOp({((0,) * 4, mask & 3, mask >> 2, (0,) * 4, 0, 0): ONE})

    for m1, m2 in itertools.product(range(16), repeat=2):
        sign = _merge_sign(m1, m2)
        assert compose(monomial(m1), monomial(m2)) == monomial(m1 | m2).scaled(sign), (m1, m2)
    # the 16 generator pairs of Eq. 4-30, anticommuted by the engine
    gens = [SuperOp.theta(1), SuperOp.theta(2), SuperOp.theta_bar(1), SuperOp.theta_bar(2)]
    assert all(op_anticommutator(a, b).is_zero() for a, b in itertools.product(gens, repeat=2))


def test_generator_structure():
    gens = build_generators()  # standard sigma, P_mu = -i d_mu
    assert gens.P_lower[0] == SuperOp.dx(0).scaled(-I)
    # M^{01} = x^0 P^1 - x^1 P^0 with P^1 = -P_1
    expected = (compose(SuperOp.x(0), gens.P_lower[1].scaled(-1))
                - compose(SuperOp.x(1), gens.P_lower[0]))
    assert gens.M_upper[0][1] == expected
    assert len(gens.Q[0].terms()) == 5
    assert gens.Q[0].parity() == 1
    assert gens.M_upper[2][2].is_zero()


def test_poincare_sign_dependence():
    plus = verify_poincare(build_generators(momentum_sign=+1))
    minus = verify_poincare(build_generators(momentum_sign=-1))
    assert plus.translations_commute and minus.translations_commute
    assert plus.boost_translation_holds and plus.lorentz_closure_holds
    # with P_mu = -i d_mu both relations flip by an overall sign
    assert not minus.boost_translation_holds
    assert not minus.lorentz_closure_holds
    gens = build_generators(momentum_sign=-1)
    for mu, nu, lam in itertools.product(range(4), repeat=3):
        lhs = op_commutator(gens.M_upper[mu][nu], gens.P_upper[lam])
        rhs = SuperOp.zero()
        if nu == lam:
            rhs = rhs + gens.P_upper[mu].scaled(I * MINKOWSKI[nu])
        if mu == lam:
            rhs = rhs - gens.P_upper[nu].scaled(I * MINKOWSKI[mu])
        assert lhs == rhs.scaled(-1)


COPIES = [copy.copy, copy.deepcopy, lambda x: pickle.loads(pickle.dumps(x))]


@pytest.mark.parametrize("copy_of", COPIES, ids=["copy", "deepcopy", "pickle"])
@pytest.mark.parametrize("name", ["STANDARD-1", "QUARTER+1", "Q-over-2**70"])
def test_generator_sets_are_read_only_and_copy_through_the_constructor(copy_of, name):
    gens = susy_sets()[name]
    views = {field: getattr(gens, field) for field in OPERATOR_FIELDS}
    twin = copy_of(gens)
    # rebuilt by the constructor: no operator fields carried over, read-only
    # stacks (a pickle's arrays are writable), the same operators again
    assert not set(OPERATOR_FIELDS) & set(vars(twin))
    assert type(twin) is GeneratorSet and twin == gens and twin is not gens
    assert {field: getattr(twin, field) for field in OPERATOR_FIELDS} == views
    for g in (gens, twin):
        for den, A in (g.even, g.odd):
            with pytest.raises(ValueError, match="read-only"):
                A[0, 0, 0, 0] = 1
        with pytest.raises(AttributeError):
            g.odd = g.even
    assert twin.even[1].dtype == gens.even[1].dtype and twin.odd[1].dtype == gens.odd[1].dtype


def test_generator_set_keeps_its_own_copy_of_the_stacks():
    gens = build_generators()
    den, A = gens.odd
    odd = np.array(A)
    mine = GeneratorSet(gens.convention, gens.even, (den, odd))
    odd[1, 0, 0, 4] = 7    # the caller's array, not the set's
    assert mine == gens and mine.Q == gens.Q
    assert mine != build_generators(momentum_sign=+1) and mine != "gens"


@pytest.mark.parametrize("name", ["STANDARD-1", "Q-over-2**70"])
def test_generator_sets_over_different_denominators_compare_as_operators(name):
    gens = susy_sets()[name]
    den, A = gens.odd
    tripled = np.array(A) * 3
    same = GeneratorSet(gens.convention, gens.even, (3 * den, tripled))
    assert same.odd[1].dtype == A.dtype
    assert same == gens and gens == same and same.Q == gens.Q
    tripled[1, 0, 0, 4] += 1    # the coefficient of d/dth1 in Q_1
    assert GeneratorSet(gens.convention, gens.even, (3 * den, tripled)) != gens


def test_generator_set_keeps_int64_only_where_brackets_cannot_overflow():
    gens = build_generators()
    big = math.isqrt(np.iinfo(np.int64).max // 64)
    for part, dtype in ((big, np.int64), (big + 1, object), (2**32, object)):
        odd = np.zeros((2, 6, 9, 9), dtype=np.int64)
        odd[0, 0, 0, 4] = odd[0, 0, 5, 0] = part    # Q_1 = part (dth1 + th1 d_0)
        mine = GeneratorSet(gens.convention, gens.even, (1, odd))
        assert mine.odd[1].dtype == dtype
        # {Q_1, Q_1} = 2 part**2 d_0, which wraps to 0 in int64 at 2**32
        Q = mine.odd[1][:, :1]
        assert _write(_bracket(Q, Q, -1)[:, 0, 0], 1) == SuperOp.dx(0).scaled(2 * part**2)
        assert not verify_susy(mine).qq_vanish
    # a denominator past the bound alone switches to Python ints too
    den, A = gens.odd
    assert GeneratorSet(gens.convention, gens.even, (big + 1, A)).odd[1].dtype == object


@pytest.mark.parametrize("stack, message", [
    ((1, np.zeros((2, 24, 9, 9), dtype=np.int64)), "odd is not"),       # the even shape
    ((2, np.zeros((2, 6, 9, 8), dtype=np.int64)), "odd is not"),
    ((2, np.zeros((2, 6, 9, 9))), "odd is not"),                         # floats
    ((2, np.full((2, 6, 9, 9), Fraction(1, 2))), "odd is not"),
    ((0, np.zeros((2, 6, 9, 9), dtype=np.int64)), "odd is not"),         # denominator 0
    ((2.0, np.zeros((2, 6, 9, 9), dtype=np.int64)), "odd is not"),
])
def test_generator_set_rejects_stacks_of_the_wrong_shape_or_type(stack, message):
    gens = build_generators()
    with pytest.raises(ValueError, match=message):
        GeneratorSet(gens.convention, gens.even, stack)
    with pytest.raises(ValueError, match="even is not"):
        GeneratorSet(gens.convention, gens.odd, gens.odd)


def test_translation_and_lorentz_generators_ignore_sigma_convention():
    std = build_generators(SigmaConvention.STANDARD, momentum_sign=+1)
    quarter = build_generators(SigmaConvention.QUARTER, momentum_sign=+1)
    assert std.P_lower == quarter.P_lower
    assert std.M_upper == quarter.M_upper


def test_boost_translation_example():
    # [M^{01}, P^1] = i eta^{11} P^0 = -i P^0 in the closing convention
    gens = build_generators(momentum_sign=+1)
    lhs = op_commutator(gens.M_upper[0][1], gens.P_upper[1])
    assert lhs == gens.P_upper[0].scaled(-I)


def test_lorentz_closure_example():
    # [M^{01}, M^{12}] = i eta^{11} M^{02} = -i M^{02}
    gens = build_generators(momentum_sign=+1)
    lhs = op_commutator(gens.M_upper[0][1], gens.M_upper[1][2])
    assert lhs == gens.M_upper[0][2].scaled(-I)


@pytest.mark.parametrize("conv", [SigmaConvention.STANDARD, SigmaConvention.QUARTER])
def test_supercharges_square_to_zero(conv):
    report = verify_susy(build_generators(conv))
    assert report.qq_vanish
    assert report.qbar_qbar_vanish


def test_susy_constants_standard():
    report = verify_susy(build_generators(SigmaConvention.STANDARD, momentum_sign=-1))
    assert report.c1 == GaussianRational(2)
    assert report.c2 == GaussianRational(4)
    assert report.inversion_quarter_holds
    assert report.spatial_inversion_quarter_holds
    assert report.p_q_brackets_vanish


def test_susy_constants_quarter_convention():
    report = verify_susy(build_generators(SigmaConvention.QUARTER, momentum_sign=-1))
    assert report.c1 == GaussianRational(2)           # same sigma on both sides
    assert report.c2 == GaussianRational(Fraction(1, 4))
    assert not report.inversion_quarter_holds


def test_susy_constants_flip_with_momentum_sign():
    report = verify_susy(build_generators(SigmaConvention.STANDARD, momentum_sign=+1))
    assert report.c1 == GaussianRational(-2)
    assert report.c2 == GaussianRational(-4)


def test_q_qbar_bracket_value():
    gens = build_generators()
    lhs = op_anticommutator(gens.Q[0], gens.Q_bar_lower[0])
    # {Q_1, Qbar_1} = -2i (d_0 + d_3) = 2 sigma^mu_{1 1dot} P_mu
    assert lhs == (SuperOp.dx(0) + SuperOp.dx(3)).scaled(GaussianRational(0, -2))


def test_supercharge_nilpotency_on_states():
    gens = build_generators()
    rng = random.Random(79)
    for _ in range(10):
        state = SuperOp.one().scaled(rng.randint(-2, 2))
        for maker in (SuperOp.x, SuperOp.x):
            state = compose(state, maker(rng.randrange(4)))
        if rng.random() < 0.7:
            state = compose(state, SuperOp.theta(rng.randrange(1, 3)))
        if rng.random() < 0.7:
            state = compose(state, SuperOp.theta_bar(rng.randrange(1, 3)))
        for a in range(2):
            once = act(gens.Q[a], state)
            assert act(gens.Q[a], once).is_zero()


def test_superop_rendering():
    gens = build_generators()
    assert str(gens.P_lower[0]) == "-i dx0"
    assert str(SuperOp.zero()) == "0"
    assert str(SuperOp.one().scaled(2)) == "2"
    assert "th1" in str(SuperOp.theta(1))


def random_key(rng):
    """A random normal-ordered monomial with small exponents."""
    return (tuple(rng.randint(0, 1) for _ in range(4)), rng.randrange(4), rng.randrange(4),
            tuple(rng.randint(0, 1) for _ in range(4)), rng.randrange(4), rng.randrange(4))


def random_coefficient(rng):
    """Nonzero imaginary part, denominators among 2, 4 and 2^70."""
    dens = (2, 4, 2 ** 70)
    return GaussianRational(Fraction(rng.randint(-5, 5), rng.choice(dens)),
                            Fraction(rng.choice((-1, 1)) * rng.randint(1, 5), rng.choice(dens)))


def test_compose_matches_a_rational_reference():
    rng = random.Random(80)
    for _ in range(30):
        A, B = (SuperOp({random_key(rng): random_coefficient(rng) for _ in range(3)})
                for _ in range(2))
        expected = reference_compose(A, B)
        product = compose(A, B)
        assert dict(product.terms()) == expected
        assert product == SuperOp(expected)


def test_equal_operators_built_by_two_routes_compare_equal():
    key = SuperOp.theta(1).terms()[0][0]
    half = SuperOp({key: Fraction(1, 2)})
    assert half != SuperOp({key: 1})
    assert half.scaled(2) == SuperOp({key: 1})
    assert half.scaled(2).coefficient(key) == SuperOp({key: 1}).coefficient(key) == ONE
    rng = random.Random(81)
    A = SuperOp({random_key(rng): GaussianRational(Fraction(1, 2), Fraction(-3, 4))
                 for _ in range(3)})
    B = SuperOp({random_key(rng): GaussianRational(Fraction(5, 2 ** 70), 1) for _ in range(3)})
    assert (A + B) - B == A
    assert all((A + B - B).coefficient(k) == c for k, c in A.terms())
    assert A - A == SuperOp.zero()
    assert A.scaled(0) == SuperOp.zero()
    assert (A - A).coefficient(IDENTITY_KEY) == ZERO


def test_superop_rendering_of_a_complex_rational_coefficient():
    c = GaussianRational(Fraction(1, 2), Fraction(1, 4))
    assert str(SuperOp.theta(1).scaled(c)) == "(1/2+1/4i) th1"
    assert str(SuperOp.one().scaled(c) - SuperOp.dx(2)) == "(1/2+1/4i) - dx2"


def reference_verify_poincare(gens):
    """verify_poincare as one commutator and one right side per index tuple."""
    i_eta = [I * e for e in MINKOWSKI]   # i eta^{mu mu}
    P = gens.P_upper
    failures = []

    pp_ok = True
    for mu, nu in itertools.product(range(4), repeat=2):
        if not op_commutator(P[mu], P[nu]).is_zero():
            pp_ok = False
            failures.append(f"[P^{mu},P^{nu}] != 0")

    mp_ok = True
    for mu, nu, lam in itertools.product(range(4), repeat=3):
        lhs = op_commutator(gens.M_upper[mu][nu], P[lam])
        rhs = SuperOp.zero()
        if nu == lam:
            rhs = rhs + P[mu].scaled(i_eta[nu])
        if mu == lam:
            rhs = rhs - P[nu].scaled(i_eta[mu])
        if lhs != rhs:
            mp_ok = False
            failures.append(f"[M^{{{mu}{nu}}},P^{lam}]")

    mm_ok = True
    for mu, nu, rho, sig in itertools.product(range(4), repeat=4):
        lhs = op_commutator(gens.M_upper[mu][nu], gens.M_upper[rho][sig])
        rhs = SuperOp.zero()
        if nu == rho:
            rhs = rhs + gens.M_upper[mu][sig].scaled(i_eta[nu])
        if mu == sig:
            rhs = rhs + gens.M_upper[nu][rho].scaled(i_eta[mu])
        if mu == rho:
            rhs = rhs - gens.M_upper[nu][sig].scaled(i_eta[mu])
        if nu == sig:
            rhs = rhs - gens.M_upper[mu][rho].scaled(i_eta[nu])
        if lhs != rhs:
            mm_ok = False
            failures.append(f"[M^{{{mu}{nu}}},M^{{{rho}{sig}}}]")

    return PoincareReport(pp_ok, mp_ok, mm_ok, tuple(failures))


@pytest.mark.parametrize("conv", list(SigmaConvention))
@pytest.mark.parametrize("sign", [1, -1])
def test_poincare_report_matches_the_per_tuple_reference(conv, sign):
    gens = build_generators(conv, momentum_sign=sign)
    expected = reference_verify_poincare(gens)
    assert verify_poincare(gens) == expected
    # the closing sign passes all 336 tuples; the other fails the 24 [M,P]
    # and 96 [M,M] tuples whose right side is nonzero
    assert len(expected.failures) == (0 if sign == 1 else 24 + 96)


def with_m(gens, mu, nu, op):
    rows = [list(row) for row in gens.M_upper]
    rows[mu][nu] = op
    return replaced(gens, M_upper=tuple(tuple(row) for row in rows))


def perturbed_sets():
    """Hand-built sets whose M breaks antisymmetry."""
    plus = build_generators(momentum_sign=+1)
    minus = build_generators(momentum_sign=-1)
    M = plus.M_upper
    return {
        "M21-shifted": with_m(plus, 2, 1, M[2][1] + SuperOp.x(0)),
        "M30-symmetric": with_m(plus, 3, 0, M[0][3]),
        "M11-nonzero": with_m(plus, 1, 1, SuperOp.x(3)),
        "M12-scaled": with_m(minus, 1, 2, minus.M_upper[1][2].scaled(2)),
        "M03-is-M30": with_m(plus, 0, 3, M[3][0]),
        "M12-M21-unlike-denominators": with_m(with_m(plus, 1, 2, M[1][2].scaled(Fraction(1, 2))),
                                              2, 1, M[2][1].scaled(Fraction(1, 3))),
        "M12-over-2**70": with_m(minus, 1, 2, minus.M_upper[1][2].scaled(Fraction(1, 2**70))),
    }


@pytest.mark.parametrize("name", sorted(perturbed_sets()))
def test_poincare_report_on_a_non_antisymmetric_m_matches_the_reference(name):
    gens = perturbed_sets()[name]
    expected = reference_verify_poincare(gens)
    assert expected.failures
    assert verify_poincare(gens) == expected


def test_poincare_report_on_non_commuting_translations_matches_the_reference():
    plus = build_generators(momentum_sign=+1)
    P1 = plus.P_upper[1] + compose(SuperOp.x(0), SuperOp.dx(2))
    gens = replaced(plus, P_upper=(plus.P_upper[0], P1, *plus.P_upper[2:]))
    # [P^0, P^1] = [i d_0, x^0 d_2] = i d_2
    expected = reference_verify_poincare(gens)
    assert not expected.translations_commute
    assert verify_poincare(gens) == expected


def count_brackets(monkeypatch):
    calls = []
    raw = superspace._bracket

    def counting(A, B, s):
        calls.append(s)
        return raw(A, B, s)

    monkeypatch.setattr(superspace, "_bracket", counting)
    return calls


@pytest.mark.parametrize("conv", list(SigmaConvention))
def test_the_second_momentum_sign_makes_no_bracket_call(conv, monkeypatch):
    minus, plus = (build_generators(conv, momentum_sign=sign) for sign in (-1, 1))
    calls = count_brackets(monkeypatch)
    verify_poincare(minus)
    calls.clear()
    # the even stacks are negations of each other, and the brackets quadratic
    assert verify_poincare(plus) == reference_verify_poincare(plus)
    assert verify_poincare(minus) == reference_verify_poincare(minus)
    assert calls == []


def test_shared_poincare_brackets_are_read_only():
    A = build_generators().even[1]
    shared = superspace._poincare_brackets(A)
    assert superspace._poincare_brackets(-A) is shared
    for b in shared:
        with pytest.raises(ValueError, match="read-only"):
            b.flat[0] = 1


@pytest.mark.parametrize("name", sorted(perturbed_sets()) + ["P1-negated", "M01-shifted"])
def test_poincare_report_after_the_standard_set_matches_the_reference(name):
    gens = {**perturbed_sets(), **susy_sets()}[name]
    verify_poincare(build_generators(momentum_sign=+1))
    assert verify_poincare(gens) == reference_verify_poincare(gens)


REPORT_SETS = [(SigmaConvention.STANDARD, -1), (SigmaConvention.STANDARD, 1),
               (SigmaConvention.QUARTER, -1)]


@pytest.mark.parametrize("conv, sign", REPORT_SETS)
def test_susy_report_matches_the_triple_sum_reference(conv, sign, monkeypatch):
    gens = build_generators(conv, momentum_sign=sign)
    fast = verify_susy(gens)
    monkeypatch.setattr(superspace, "sigma_lower_raised", reference_sigma_lower_raised)
    assert verify_susy(gens) == fast
    # running verify_poincare on the same set first leaves the report as it was
    verify_poincare(gens)
    assert verify_susy(gens) == fast


def count_compose(monkeypatch):
    calls = []
    raw = superspace.compose

    def counting(A, B):
        calls.append(None)
        return raw(A, B)

    monkeypatch.setattr(superspace, "compose", counting)
    return calls


def test_the_ledger_makes_no_compose_call(monkeypatch):
    sets = [build_generators(conv, momentum_sign=sign)
            for conv in SigmaConvention for sign in (1, -1)]
    calls = count_compose(monkeypatch)
    for gens in sets:
        verify_poincare(gens)
        verify_susy(gens)
    assert calls == []


def count_scaled(monkeypatch):
    calls = []
    raw = SuperOp.scaled

    def counting(self, s):
        calls.append(s)
        return raw(self, s)

    monkeypatch.setattr(SuperOp, "scaled", counting)
    return calls


def test_build_generators_makes_no_compose_or_scaled_call(monkeypatch):
    composed, scaled = count_compose(monkeypatch), count_scaled(monkeypatch)
    for conv, sign in ALL_SETS:
        build_generators(conv, momentum_sign=sign)
    # the compose-based build made 48 compose and 30 scaled calls per set
    assert (composed, scaled) == ([], [])


def test_verify_report_compose_count_is_pinned(monkeypatch):
    calls = count_compose(monkeypatch)
    report.build_verify_report()
    # Eq. 4-30 reads merge signs of bit masks (32 compose calls before); the
    # generators are affine matrices (48 each before) and the ledger brackets
    # them, which with one product per distinct commutator made 484
    assert len(calls) == 0


def test_verify_report_scaling_count_is_pinned(monkeypatch):
    calls = count_scaled(monkeypatch)
    build_generators()
    # the compose-based build scaled 4 P_mu, 4 P^mu, 2 + 8 terms of Q,
    # 2 + 8 of Qbar and 2 Qbar^adot: 30
    assert len(calls) == 0
    report.build_verify_report()
    # three build_generators (30 each before); the ledger scales affine
    # matrices, and scaling the right-side operators made it 166
    assert len(calls) == 0


def test_verify_report_reader_count_is_pinned(monkeypatch):
    calls = []
    raw = superspace._read

    def counting(ops, parity):
        calls.append(len(ops))
        return raw(ops, parity)

    monkeypatch.setattr(superspace, "_read", counting)
    report.build_verify_report()
    # the ledger slices the stacks build_generators fills; it read them back
    # from operators before, [20, 20, 10, 6, 10, 6] generators in six calls
    assert calls == []


def count_writes(monkeypatch):
    calls = []
    raw = superspace._write

    def counting(A, den):
        calls.append(den)
        return raw(A, den)

    monkeypatch.setattr(superspace, "_write", counting)
    return calls


def test_verify_report_writer_count_is_pinned(monkeypatch):
    calls = count_writes(monkeypatch)
    for conv, sign in ALL_SETS:
        build_generators(conv, momentum_sign=sign)
    assert calls == []
    report.build_verify_report()
    # only the two [M^{01}, Q_1] and [M^{01}, Qbar_1] samples of each
    # verify_susy: the ledger prints them; three build_generators wrote 30
    # operators each before, and each verify_susy four samples
    assert len(calls) == 4


def test_raised_generators_lower_back():
    gens = build_generators()
    for mu, sign in enumerate(MINKOWSKI):
        assert gens.P_upper[mu] == gens.P_lower[mu].scaled(sign)
    # Qbar^1 = eps^{12} Qbar_2 and Qbar^2 = eps^{21} Qbar_1
    assert gens.Q_bar_upper[0] == gens.Q_bar_lower[1].scaled(int(EPS_RAISE[0, 0, 1]))
    assert gens.Q_bar_upper[1] == gens.Q_bar_lower[0].scaled(int(EPS_RAISE[0, 1, 0]))


def test_negation_and_zero_are_exact():
    rng = random.Random(82)
    A = SuperOp({random_key(rng): random_coefficient(rng) for _ in range(4)})
    assert -A == A.scaled(-1)
    assert -(-A) == A
    assert (A + -A) == SuperOp.zero() == SuperOp()
    assert -SuperOp.zero() == SuperOp.zero()


# -- the affine-matrix kernel against the normal-ordering engine ---------------

def distinct_operators():
    """The 30 generators of all four (convention, sign) sets, then x0, x3,
    x0 + M^{21}, th1 and tb2, each once."""
    ops = []
    for conv in SigmaConvention:
        for sign in (1, -1):
            gens = build_generators(conv, momentum_sign=sign)
            ops += [*gens.P_lower, *gens.P_upper, *sum(gens.M_upper, ()), *gens.Q,
                    *gens.Q_bar_lower, *gens.Q_bar_upper]
    M21 = build_generators(momentum_sign=+1).M_upper[2][1]
    ops += [SuperOp.x(0), SuperOp.x(3), SuperOp.x(0) + M21, SuperOp.theta(1),
            SuperOp.theta_bar(2)]
    out = []
    for op in ops:
        if op not in out:
            out.append(op)
    return out


def test_matrix_bracket_equals_graded_bracket_on_every_pair():
    ops = distinct_operators()
    # 8 P, 13 M (zero included) and 10 supercharges; Qbar^2 = Qbar_1
    assert len(ops) == 8 + 13 + 10 + 5
    by_parity = [[op for op in ops if (op.parity() or 0) == p] for p in (0, 1)]
    read = [_read(group, p) for p, group in enumerate(by_parity)]
    for (p, (d1, A)), (q, (d2, B)) in itertools.product(enumerate(read), repeat=2):
        brackets = _bracket(A, B, (-1) ** (p * q))
        for (i, X), (j, Y) in itertools.product(enumerate(by_parity[p]),
                                                enumerate(by_parity[q])):
            assert _write(brackets[:, i, j], d1 * d2) == graded_bracket(X, Y)


def test_reading_and_writing_back_is_the_identity():
    ops = distinct_operators() + [SuperOp.x(0).scaled(Fraction(1, 2)),
                                  SuperOp.dx(1).scaled(Fraction(1, 3))]
    for op in ops:
        den, A = _read([op], op.parity() or 0)
        assert A.dtype == np.int64
        assert _write(A[:, 0], den) == op
    # a stack is over the lcm of its operators' denominators (1, 2, 3 and 4 here)
    for p in (0, 1):
        group = [op for op in ops if (op.parity() or 0) == p]
        den, A = _read(group, p)
        assert [_write(A[:, n], den) for n in range(len(group))] == group


def test_reader_rejects_operators_outside_the_affine_class():
    second_order = compose(SuperOp.dx(0), SuperOp.dx(1))
    quadratic = compose(SuperOp.x(0), SuperOp.x(1))
    for op in (second_order, quadratic, SuperOp.one() + SuperOp.theta(1)):
        with pytest.raises(ValueError, match="first-order operator with affine"):
            _read([op], 0)
    with pytest.raises(ValueError, match="not an odd"):
        _read([SuperOp.x(0)], 1)
    plus = build_generators(momentum_sign=+1)
    with pytest.raises(ValueError):
        verify_poincare(with_m(plus, 0, 1, second_order))
    with pytest.raises(ValueError):
        verify_poincare(with_m(plus, 0, 1, SuperOp.theta(1)))


def test_matrix_dtype_switches_where_the_bound_does():
    # 64 * M**2 must fit in int64, M the largest numerator part or denominator
    big = math.isqrt(np.iinfo(np.int64).max // 64)
    assert _read([SuperOp.x(0).scaled(big)], 0)[1].dtype == np.int64
    assert _read([SuperOp.x(0).scaled(big + 1)], 0)[1].dtype == object
    assert _read([SuperOp.x(0).scaled(Fraction(1, big + 1))], 0)[1].dtype == object
    # the sets over 2**70 below are decided on Python ints
    gens = perturbed_sets()["M12-over-2**70"]
    assert _read(gens.P_upper + sum(gens.M_upper, ()), 0)[1].dtype == object
    assert _read(susy_sets()["Q-over-2**70"].Q, 1)[1].dtype == object
    assert _read(susy_sets()["charges-at-the-int64-bound"].Q, 1)[1].dtype == np.int64



def coefficients(pairs):
    """(u, v): the coefficients of every (lhs, rhs) pair of operators,
    lhs in u and rhs in v, over the keys either side of the pair carries."""
    u, v = [], []
    for lhs, rhs in pairs:
        keys = {key for key, _ in lhs.terms() + rhs.terms()}
        u += [lhs.coefficient(key) for key in keys]
        v += [rhs.coefficient(key) for key in keys]
    return u, v


def reference_verify_susy(gens):
    """verify_susy on the normal-ordering engine: each bracket composed and
    each right side a sum of scaled operators."""
    sigma, raised = sigma_upper(gens.convention), reference_sigma_lower_raised(gens.convention)
    Q, Qbar = gens.Q, gens.Q_bar_lower
    brackets = {(a, ad): op_anticommutator(Q[a], Qbar[ad])
                for a, ad in itertools.product(range(2), repeat=2)}
    c1 = scale_of(*coefficients(
        (lhs, sum((P.scaled(gaussian_entry(sigma, mu, a, ad))
                   for mu, P in enumerate(gens.P_lower)),
                  SuperOp.zero()))
        for (a, ad), lhs in brackets.items()))
    traces = [sum((b.scaled(gaussian_entry(raised, mu, a, ad)) for (a, ad), b in brackets.items()),
                  SuperOp.zero()) for mu in range(4)]
    c2 = scale_of(*coefficients(zip(traces, gens.P_lower)))
    quarter = GaussianRational(Fraction(1, 4))
    return SusyReport(
        qq_vanish=all(op_anticommutator(x, y).is_zero() for x in Q for y in Q),
        qbar_qbar_vanish=all(op_anticommutator(x, y).is_zero() for x in Qbar for y in Qbar),
        c1=c1,
        c2=c2,
        inversion_quarter_holds=c2 is not None and quarter * c2 == ONE,
        spatial_inversion_quarter_holds=all(traces[mu].scaled(quarter) == gens.P_lower[mu]
                                            for mu in (1, 2, 3)),
        p_q_brackets_vanish=all(op_commutator(P, X).is_zero()
                                for P in gens.P_upper for X in Q + gens.Q_bar_upper),
        m_q_samples=tuple((f"[M^{{{mu}{nu}}}, {name}_1]",
                           str(op_commutator(gens.M_upper[mu][nu], X)))
                          for mu, nu in ((0, 1),)
                          for name, X in (("Q", Q[0]), ("Qbar", Qbar[0]))),
    )


def susy_sets():
    """The four built sets and hand-built ones that break the relations."""
    sets = {f"{conv.name}{sign:+d}": build_generators(conv, momentum_sign=sign)
            for conv in SigmaConvention for sign in (1, -1)}
    std, quarter = sets["STANDARD-1"], sets["QUARTER-1"]
    times4 = {field: tuple(q.scaled(4) for q in getattr(quarter, field))
              for field in ("Q", "Q_bar_lower", "Q_bar_upper")}
    # every odd affine monomial with coefficient big - big i, the largest
    # numerators that keep the stacks int64: the brackets reach 2**61 and
    # their sigma traces 2**62
    big = math.isqrt(np.iinfo(np.int64).max // 64)
    X = SuperOp({key: GaussianRational(big, -big) for key in superspace._AFFINE[1]})
    sets.update({
        "charges-at-the-int64-bound": replaced(std, Q=(X, X), Q_bar_lower=(X, X),
                                               Q_bar_upper=(X, X)),
        "Q2-zero": replaced(std, Q=(std.Q[0], SuperOp.zero())),
        "quarter-charges-times-4": replaced(quarter, **times4),
        "Q-over-2**70": replaced(std, Q=tuple(q.scaled(Fraction(1, 2**70)) for q in std.Q)),
        "P1-negated": replaced(std, P_lower=(std.P_lower[0], -std.P_lower[1], *std.P_lower[2:])),
        "M01-shifted": with_m(std, 0, 1, std.M_upper[0][1] + SuperOp.x(0)),
        "Qbar-upper-is-lower": replaced(std, Q_bar_upper=std.Q_bar_lower),
        # {Qbar_1, Qbar_1} = {i d/dtb1, tb1} + {tb1, i d/dtb1} = 2i, not 0
        "Qbar1-gains-tb1": replaced(std, Q_bar_lower=(std.Q_bar_lower[0] + SuperOp.theta_bar(1),
                                                      std.Q_bar_lower[1])),
        # [P^0, Q_1] = [-i d_0, x^0 d/dth1] = -i d/dth1, not 0
        "Q1-gains-x0-dth1": replaced(std, Q=(std.Q[0] + compose(SuperOp.x(0), SuperOp.dtheta(1)),
                                             std.Q[1])),
    })
    return sets


@pytest.mark.parametrize("name", sorted(susy_sets()))
def test_susy_report_matches_the_engine_reference(name):
    gens = susy_sets()[name]
    assert verify_susy(gens) == reference_verify_susy(gens)


def test_sigma_traces_at_the_int64_bound_stay_exact_in_int64():
    gens = susy_sets()["charges-at-the-int64-bound"]
    odd = gens.odd[1]
    brackets = _bracket(odd[:, :2], odd[:, 2:4], -1)    # {Q_a, Qbar_ad}
    _, R = sigma_lower_raised(gens.convention)
    trace = functools.partial(gauss, functools.partial(np.einsum, "mab,abxy->mxy"))
    traces, exact = trace(R, brackets), trace(R.astype(object), brackets.astype(object))
    assert traces.dtype == np.int64 and np.array_equal(traces, exact)
    assert int(np.abs(exact).max()).bit_length() == 62    # within a factor 2 of the int64 limit


def test_susy_reference_sets_reach_both_verdicts():
    reports = {name: reference_verify_susy(gens) for name, gens in susy_sets().items()}
    assert reports["quarter-charges-times-4"].spatial_inversion_quarter_holds
    assert reports["Q2-zero"].c1 is None and reports["P1-negated"].c2 is None
    assert not reports["P1-negated"].spatial_inversion_quarter_holds
