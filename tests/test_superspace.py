import dataclasses
import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from nonassoc import report, superspace
from nonassoc.corpus import MINKOWSKI
from nonassoc.scalar import ZERO, GaussianRational, I, ONE
from nonassoc.spinor import EPS_RAISE, SigmaConvention, sigma_upper
from nonassoc.superspace import (
    IDENTITY_KEY,
    PoincareReport,
    SuperOp,
    SusyReport,
    _bracket,
    _key_to_seq,
    _normal_order,
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
from test_spinor import reference_sigma_lower_raised


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


def test_compose_canonical_pairs():
    assert compose(SuperOp.dx(0), SuperOp.x(0)) == compose(SuperOp.x(0), SuperOp.dx(0)) + SuperOp.one()
    assert compose(SuperOp.theta(1), SuperOp.theta(1)).is_zero()
    assert compose(SuperOp.dtheta(1), SuperOp.theta(1)) + compose(SuperOp.theta(1), SuperOp.dtheta(1)) == SuperOp.one()


def test_compose_derivative_acts_by_graded_leibniz():
    # the operator dth1 * (multiplication by th1 th2), applied to the whole
    # Grassmann monomial basis, agrees with differentiating directly
    th1th2 = compose(SuperOp.theta(1), SuperOp.theta(2))
    op = compose(SuperOp.dtheta(1), th1th2)
    states = [SuperOp.one(), SuperOp.theta(1), SuperOp.theta(2), th1th2]
    for state in states:
        via_op = op.apply_to(state)
        direct = SuperOp.dtheta(1).apply_to(th1th2.apply_to(state))
        assert via_op == direct
    assert op.apply_to(SuperOp.one()) == SuperOp.theta(2)


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


def test_generator_structure():
    gens = build_generators()  # standard sigma, P_mu = -i d_mu
    assert gens.P_lower[0] == SuperOp.dx(0).scaled(-I)
    # M^{01} = x^0 P^1 - x^1 P^0 with P^1 = -P_1
    expected = (compose(SuperOp.x(0), gens.P_lower[1].scaled(-1))
                - compose(SuperOp.x(1), gens.P_lower[0]))
    assert gens.M_upper[0][1] == expected
    assert gens.Q[0].monomial_count() == 5
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
            once = gens.Q[a].apply_to(state)
            assert gens.Q[a].apply_to(once).is_zero()


def test_plane_wave_backend_cross_checks_brackets():
    gens = build_generators()
    p = (GaussianRational(2), GaussianRational(-1), GaussianRational(3), GaussianRational(Fraction(1, 2)))
    for a, bd in itertools.product(range(2), repeat=2):
        bracket = op_anticommutator(gens.Q[a], gens.Q_bar_lower[bd])
        # substituting first, then composing in the Grassmann algebra with
        # numeric momenta, must agree with substituting in the result
        qa = gens.Q[a].substitute_momentum(p)
        qb = gens.Q_bar_lower[bd].substitute_momentum(p)
        assert op_anticommutator(qa, qb) == bracket.substitute_momentum(p)


def test_substitute_momentum_rejects_x_dependence():
    with pytest.raises(ValueError):
        SuperOp.x(0).substitute_momentum((ONE, ONE, ONE, ONE))


def test_apply_to_rejects_derivative_states():
    with pytest.raises(ValueError):
        SuperOp.x(0).apply_to(SuperOp.dx(0))


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


def reference_compose(A, B):
    """compose in GaussianRational arithmetic, term pair by term pair."""
    out = {}
    for k1, c1 in A.terms():
        for k2, c2 in B.terms():
            for key, n in _normal_order(_key_to_seq(k1) + _key_to_seq(k2)):
                out[key] = out.get(key, ZERO) + c1 * c2 * n
    return {k: v for k, v in out.items() if not v.is_zero()}


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

    return PoincareReport(gens.momentum_sign, pp_ok, mp_ok, mm_ok, tuple(failures))


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
    return dataclasses.replace(gens, M_upper=tuple(tuple(row) for row in rows))


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
    assert not expected.all_hold
    assert verify_poincare(gens) == expected


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


def test_verify_report_compose_count_is_pinned(monkeypatch):
    calls = count_compose(monkeypatch)
    report.build_verify_report()
    # three build_generators (48 each) and the Grassmann relations of Eq.
    # 4-30 (32); the ledger brackets affine matrices, and with one product
    # per distinct commutator it made 484
    assert len(calls) == 3 * 48 + 32 == 176


def test_verify_report_scaling_count_is_pinned(monkeypatch):
    calls = []
    raw = SuperOp.scaled

    def counting(self, s):
        calls.append(s)
        return raw(self, s)

    monkeypatch.setattr(SuperOp, "scaled", counting)
    build_generators()
    # 4 P_mu, 4 P^mu, 2 + 8 terms of Q, 2 + 8 of Qbar and 2 Qbar^adot
    assert len(calls) == 30
    calls.clear()
    report.build_verify_report()
    # three build_generators (30 each); the ledger scales affine matrices,
    # and scaling the right-side operators made it 166
    assert len(calls) == 3 * 30 == 90


def test_verify_report_reader_count_is_pinned(monkeypatch):
    calls = []
    raw = superspace._read

    def counting(ops, parity):
        calls.append(len(ops))
        return raw(ops, parity)

    monkeypatch.setattr(superspace, "_read", counting)
    report.build_verify_report()
    # two verify_poincare read P^mu and the 16 M^{mu nu} in one stack; two
    # verify_susy read P_mu, P^mu, M^{01}, M^{12} and then the 6 supercharges
    assert calls == [20, 20, 10, 6, 10, 6]


def test_raised_generators_lower_back():
    gens = build_generators()
    for mu, sign in enumerate(MINKOWSKI):
        assert gens.P_upper[mu] == gens.P_lower[mu].scaled(sign)
    # Qbar^1 = eps^{12} Qbar_2 and Qbar^2 = eps^{21} Qbar_1
    assert gens.Q_bar_upper[0] == gens.Q_bar_lower[1].scaled(EPS_RAISE[0][1])
    assert gens.Q_bar_upper[1] == gens.Q_bar_lower[0].scaled(EPS_RAISE[1][0])


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



def reference_scale(pairs):
    """The c with lhs = c * rhs for every (lhs, rhs) pair of operators, or
    None, read coefficient by coefficient in GaussianRational."""
    u, v = [], []
    for lhs, rhs in pairs:
        keys = {key for key, _ in lhs.terms() + rhs.terms()}
        u += [lhs.coefficient(key) for key in keys]
        v += [rhs.coefficient(key) for key in keys]
    p = next((j for j, b in enumerate(v) if not b.is_zero()), None)
    if p is None:
        return ZERO if all(a.is_zero() for a in u) else None
    c = u[p] / v[p]
    return c if all(a == c * b for a, b in zip(u, v)) else None


def reference_verify_susy(gens):
    """verify_susy on the normal-ordering engine: each bracket composed and
    each right side a sum of scaled operators."""
    sigma, raised = sigma_upper(gens.convention), reference_sigma_lower_raised(gens.convention)
    Q, Qbar = gens.Q, gens.Q_bar_lower
    brackets = {(a, ad): op_anticommutator(Q[a], Qbar[ad])
                for a, ad in itertools.product(range(2), repeat=2)}
    c1 = reference_scale(
        (lhs, sum((P.scaled(sigma[mu][a][ad]) for mu, P in enumerate(gens.P_lower)),
                  SuperOp.zero()))
        for (a, ad), lhs in brackets.items())
    traces = [sum((b.scaled(raised[mu][a][ad]) for (a, ad), b in brackets.items()),
                  SuperOp.zero()) for mu in range(4)]
    c2 = reference_scale(zip(traces, gens.P_lower))
    quarter = GaussianRational(Fraction(1, 4))
    return SusyReport(
        convention=gens.convention,
        momentum_sign=gens.momentum_sign,
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
                          for mu, nu in ((0, 1), (1, 2))
                          for name, X in (("Q", Q[0]), ("Qbar", Qbar[0]))),
    )


def susy_sets():
    """The four built sets and hand-built ones that break the relations."""
    sets = {f"{conv.name}{sign:+d}": build_generators(conv, momentum_sign=sign)
            for conv in SigmaConvention for sign in (1, -1)}
    std, quarter = sets["STANDARD-1"], sets["QUARTER-1"]
    times4 = {field: tuple(q.scaled(4) for q in getattr(quarter, field))
              for field in ("Q", "Q_bar_lower", "Q_bar_upper")}
    sets.update({
        "Q2-zero": dataclasses.replace(std, Q=(std.Q[0], SuperOp.zero())),
        "quarter-charges-times-4": dataclasses.replace(quarter, **times4),
        "Q-over-2**70": dataclasses.replace(std, Q=tuple(q.scaled(Fraction(1, 2**70))
                                                          for q in std.Q)),
        "P1-negated": dataclasses.replace(std, P_lower=(std.P_lower[0], -std.P_lower[1],
                                                        *std.P_lower[2:])),
        "M01-shifted": with_m(std, 0, 1, std.M_upper[0][1] + SuperOp.x(0)),
        "Qbar-upper-is-lower": dataclasses.replace(std, Q_bar_upper=std.Q_bar_lower),
    })
    return sets


@pytest.mark.parametrize("name", sorted(susy_sets()))
def test_susy_report_matches_the_engine_reference(name):
    gens = susy_sets()[name]
    assert verify_susy(gens) == reference_verify_susy(gens)


def test_susy_reference_sets_reach_both_verdicts():
    reports = {name: reference_verify_susy(gens) for name, gens in susy_sets().items()}
    assert reports["quarter-charges-times-4"].spatial_inversion_quarter_holds
    assert reports["Q2-zero"].c1 is None and reports["P1-negated"].c2 is None
    assert not reports["P1-negated"].spatial_inversion_quarter_holds
