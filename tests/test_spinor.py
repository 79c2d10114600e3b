from fractions import Fraction

import pytest

from nonassoc.scalar import GaussianRational, I
from nonassoc.spinor import (
    EPS_LOWER,
    EPS_RAISE,
    ID2,
    LOWER_DOTTED,
    LOWER_UNDOTTED,
    PAULI,
    RAISE_DOTTED,
    RAISE_UNDOTTED,
    Mat2,
    SigmaConvention,
    pauli_spin_commutators_hold,
    raise_lower,
    sigma_bar_upper,
    sigma_lower,
    sigma_lower_raised,
    sigma_upper,
)


def test_epsilon_matrices_are_inverse():
    assert EPS_RAISE * EPS_LOWER == ID2
    assert EPS_LOWER * EPS_RAISE == ID2


def test_epsilon_explicit_entries():
    assert EPS_RAISE == Mat2([[0, -1], [1, 0]])
    assert EPS_LOWER == Mat2([[0, 1], [-1, 0]])


def test_i_sigma2_is_minus_the_raising_matrix():
    # the two stated forms disagree by a sign; the explicit matrices win
    assert PAULI[1].scaled(I) == -EPS_RAISE


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
    for i in range(3):
        assert PAULI[i] * PAULI[i] == ID2
    assert pauli_spin_commutators_hold()


def test_sigma_conventions():
    std = sigma_upper(SigmaConvention.STANDARD)
    assert std[0] == ID2
    assert std[1] == PAULI[0]
    quarter = sigma_upper(SigmaConvention.QUARTER)
    scale = Fraction(1, 4)
    for mu in range(4):
        assert quarter[mu] == std[mu].scaled(scale)
    bar = sigma_bar_upper(SigmaConvention.STANDARD)
    low = sigma_lower(SigmaConvention.STANDARD)
    for mu in range(4):
        assert bar[mu] == low[mu]  # sigmabar^mu = sigma_mu


def test_sigma_raised_contraction_is_twice_delta():
    raised = sigma_lower_raised(SigmaConvention.STANDARD)
    up = sigma_upper(SigmaConvention.STANDARD)
    for mu in range(4):
        for nu in range(4):
            total = GaussianRational(0)
            for a in range(2):
                for ad in range(2):
                    total = total + raised[mu][a][ad] * up[nu][a][ad]
            assert total == (GaussianRational(2) if mu == nu else GaussianRational(0))


def reference_spin_commutators_hold(pauli):
    """[s_i, s_j] = i eps_ijk s_k for s = pauli/2, in `Mat2` arithmetic."""
    from nonassoc.corpus import epsilon3

    s = [p.scaled(Fraction(1, 2)) for p in pauli]
    for i in range(3):
        for j in range(3):
            rhs = Mat2([[0, 0], [0, 0]])
            for k in range(3):
                rhs = rhs + s[k].scaled(I * epsilon3(i + 1, j + 1, k + 1))
            if s[i] * s[j] - s[j] * s[i] != rhs:
                return False
    return True


X, Y, Z = PAULI
PAULI_VARIANTS = {
    "pauli": (X, Y, Z),
    "minus-sigma2": (X, -Y, Z),
    "minus-all": (-X, -Y, -Z),
    "swap-12": (Y, X, Z),
    "swap-23": (X, Z, Y),
    "doubled": tuple(p.scaled(2) for p in PAULI),
    "halved": tuple(p.scaled(Fraction(1, 2)) for p in PAULI),
    "cyclic": (Y, Z, X),
}


@pytest.mark.parametrize("name", PAULI_VARIANTS)
def test_spin_commutators_match_matrix_reference(name, monkeypatch):
    import nonassoc.spinor as spinor

    monkeypatch.setattr(spinor, "PAULI", PAULI_VARIANTS[name])
    expected = name in ("pauli", "cyclic")
    assert reference_spin_commutators_hold(PAULI_VARIANTS[name]) is expected
    assert pauli_spin_commutators_hold() is expected



def reference_sigma_lower_raised(conv):
    """eps^{ab} eps^{ad bd} sigma_{mu, b bd} as the full triple sum."""
    return tuple(
        Mat2([[sum((EPS_RAISE[a][b] * EPS_RAISE[ad][bd] * m[b][bd]
                    for b in range(2) for bd in range(2)), GaussianRational(0))
               for ad in range(2)] for a in range(2)])
        for m in sigma_lower(conv)
    )


@pytest.mark.parametrize("conv", list(SigmaConvention))
def test_sigma_lower_raised_matches_the_triple_sum(conv):
    assert sigma_lower_raised(conv) == reference_sigma_lower_raised(conv)
