import numpy as np
import pytest
import sympy

from nonassoc import spinor
from nonassoc.corpus import MINKOWSKI
from nonassoc.scalar import GaussianRational
from nonassoc.spinor import (
    EPS_LOWER,
    EPS_RAISE,
    ID2,
    LOWER_DOTTED,
    LOWER_UNDOTTED,
    PAULI,
    RAISE_DOTTED,
    RAISE_UNDOTTED,
    SigmaConvention,
    epsilon_inverse_holds,
    pauli_spin_commutators_hold,
    raise_lower,
    sigma_lower,
    sigma_lower_raised,
    sigma_upper,
)
from oracle import gaussian_pair, reference_sigma_lower_raised, sympy_matrices

I = sympy.I
# The Pauli matrices, written out independently of `spinor`
X = sympy.Matrix([[0, 1], [1, 0]])
Y = sympy.Matrix([[0, -I], [I, 0]])
Z = sympy.Matrix([[1, 0], [0, -1]])


def test_epsilon_matrices_are_inverse():
    (eps_raise,), (eps_lower,), (one,) = (sympy_matrices(1, m)
                                          for m in (EPS_RAISE, EPS_LOWER, ID2))
    assert eps_raise * eps_lower == one
    assert eps_lower * eps_raise == one


def test_epsilon_inverse_verdict_fails_when_lower_is_not_the_inverse(monkeypatch):
    # Eq. 1-100 to 1-130: eps_raise eps_raise = -1, not the identity
    assert epsilon_inverse_holds()
    monkeypatch.setattr(spinor, "EPS_LOWER", EPS_RAISE)
    (eps_raise,) = sympy_matrices(1, EPS_RAISE)
    assert eps_raise * eps_raise == -sympy.eye(2)
    assert not epsilon_inverse_holds()


def test_epsilon_explicit_entries():
    assert sympy_matrices(1, EPS_RAISE) == [sympy.Matrix([[0, -1], [1, 0]])]
    assert sympy_matrices(1, EPS_LOWER) == [sympy.Matrix([[0, 1], [-1, 0]])]


def test_i_sigma2_is_minus_the_raising_matrix():
    # the two stated forms disagree by a sign; the explicit matrices win
    assert I * sympy_matrices(*PAULI)[1] == -sympy_matrices(1, EPS_RAISE)[0]


def test_raise_then_lower_is_identity():
    vectors = [(1, 0), (0, 1), (GaussianRational(2, 1), GaussianRational(0, -3))]
    for v in vectors:
        up = raise_lower(v, RAISE_UNDOTTED)
        down = raise_lower(up, LOWER_UNDOTTED)
        assert down == tuple(GaussianRational.of(c) for c in v)
        up = raise_lower(v, RAISE_DOTTED)
        down = raise_lower(up, LOWER_DOTTED)
        assert down == tuple(GaussianRational.of(c) for c in v)


def test_raise_example():
    assert raise_lower((1, 0), RAISE_UNDOTTED) == (GaussianRational(0), GaussianRational(1))
    assert raise_lower((0, 0), RAISE_UNDOTTED) == (GaussianRational(0), GaussianRational(0))


def test_raise_lower_rejects_bad_input():
    with pytest.raises(ValueError):
        raise_lower((1, 0), "sideways")
    with pytest.raises(ValueError):
        raise_lower((1, 0, 0), RAISE_UNDOTTED)


def test_pauli_algebra():
    assert sympy_matrices(*PAULI) == [X, Y, Z]
    for p in sympy_matrices(*PAULI):
        assert p * p == sympy_matrices(1, ID2)[0]
    assert pauli_spin_commutators_hold()


def test_sigma_conventions():
    std = sympy_matrices(*sigma_upper(SigmaConvention.STANDARD))
    assert std[0] == sympy_matrices(1, ID2)[0]
    assert std[1] == sympy_matrices(*PAULI)[0]
    quarter = sympy_matrices(*sigma_upper(SigmaConvention.QUARTER))
    for mu in range(4):
        assert quarter[mu] == std[mu] * sympy.Rational(1, 4)
    low = sympy_matrices(*sigma_lower(SigmaConvention.STANDARD))
    for mu in range(4):
        assert low[mu] == std[mu] * MINKOWSKI[mu]


def test_sigma_raised_contraction_is_twice_delta():
    raised = sympy_matrices(*sigma_lower_raised(SigmaConvention.STANDARD))
    up = sympy_matrices(*sigma_upper(SigmaConvention.STANDARD))
    for mu in range(4):
        for nu in range(4):
            total = sum(raised[mu][a, ad] * up[nu][a, ad] for a in range(2) for ad in range(2))
            assert total == (2 if mu == nu else 0)


def reference_spin_commutators_hold(pauli):
    """[s_i, s_j] = i eps_ijk s_k for s = pauli/2, in sympy matrix arithmetic."""
    s = [p / 2 for p in pauli]
    for i in range(3):
        for j in range(3):
            rhs = sympy.zeros(2)
            for k in range(3):
                rhs += I * sympy.LeviCivita(i, j, k) * s[k]
            if s[i] * s[j] - s[j] * s[i] != rhs:
                return False
    return True


PAULI_VARIANTS = {
    "pauli": (X, Y, Z),
    "minus-sigma2": (X, -Y, Z),
    "minus-all": (-X, -Y, -Z),
    "swap-12": (Y, X, Z),
    "swap-23": (X, Z, Y),
    "doubled": tuple(2 * p for p in (X, Y, Z)),
    "halved": tuple(p / 2 for p in (X, Y, Z)),
    "cyclic": (Y, Z, X),
}


@pytest.mark.parametrize("name", PAULI_VARIANTS)
def test_spin_commutators_match_matrix_reference(name, monkeypatch):
    import nonassoc.spinor as spinor

    monkeypatch.setattr(spinor, "PAULI", gaussian_pair(PAULI_VARIANTS[name]))
    expected = name in ("pauli", "cyclic")
    assert reference_spin_commutators_hold(PAULI_VARIANTS[name]) is expected
    assert pauli_spin_commutators_hold() is expected


def test_halved_variant_is_over_denominator_two():
    den, S = gaussian_pair(PAULI_VARIANTS["halved"])
    assert den == 2 and np.array_equal(S, PAULI[1])


@pytest.mark.parametrize("conv", list(SigmaConvention))
def test_sigma_lower_raised_matches_the_triple_sum(conv):
    assert (sympy_matrices(*sigma_lower_raised(conv))
            == sympy_matrices(*reference_sigma_lower_raised(conv)))


@pytest.mark.parametrize("conv", list(SigmaConvention))
@pytest.mark.parametrize("table", [sigma_upper, sigma_lower, sigma_lower_raised])
def test_sigma_tables_are_int64_with_two_unit_entries_per_matrix(conv, table):
    # the premise of the int64 bound on the sigma traces of brackets
    den, S = table(conv)
    assert S.dtype == np.int64 and den == (4 if conv is SigmaConvention.QUARTER else 1)
    for mu in range(4):
        entries = [complex(re, im) for re, im in zip(S[0, mu].ravel().tolist(),
                                                     S[1, mu].ravel().tolist())]
        nonzero = [e for e in entries if e]
        assert len(nonzero) == 2 and all(e in (1, -1, 1j, -1j) for e in nonzero)
