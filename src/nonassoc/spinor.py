"""Exact 2x2 spinor matrices: Pauli set, sigma-vector conventions, epsilon raising.

Every matrix is a Gaussian-integer array over a denominator, in the layout
the superspace ledger brackets: real parts, then imaginary parts, on axis
0, shape (2, ..., 2, 2).  `ID2`, `EPS_RAISE` and `EPS_LOWER` are over 1;
`PAULI` and the sigma tables are (den, S) pairs, the latter in int64.  Each
sigma matrix, upper or lower, raised or not, has exactly two nonzero
entries, each a unit (1, -1, i or -i) times the same S in either
normalization.  So a contraction of a sigma table with a stack adds at most
two entries of the stack, and stays in int64 wherever twice the stack's
largest entry does; a stack of Python ints promotes it to Python ints.

Two normalizations of the sigma four-vector are supported: STANDARD uses
sigma^mu = (I, pauli) and QUARTER scales every entry by 1/4.  The epsilon
matrices are fixed to the explicit arrays used throughout (raising
[[0,-1],[1,0]], lowering [[0,1],[-1,0]]), which are exact inverses of each
other.  Note i*sigma^2 equals the negative of the raising matrix, so the
matrices and the i*sigma^2 formula cannot both be taken literally; the
matrices win here.  The conventions are those of J. Wess and J. Bagger,
*Supersymmetry and Supergravity*, 1992, ch. 4.
"""

from __future__ import annotations

import enum
from fractions import Fraction

import numpy as np

from .corpus import EPS3, MINKOWSKI
from .scalar import GaussianRational, ZERO, gauss, times_i

_O = [[0, 0], [0, 0]]
ID2 = np.array([[[1, 0], [0, 1]], _O])
# (den, S): sigma^1, sigma^2, sigma^3, of which only sigma^2 is imaginary
PAULI = (1, np.array([[[[0, 1], [1, 0]], _O, [[1, 0], [0, -1]]],
                      [_O, [[0, -1], [1, 0]], _O]]))

# Index raising/lowering matrices; RAISE * LOWER = identity.
EPS_RAISE = np.array([[[0, -1], [1, 0]], _O])
EPS_LOWER = np.array([[[0, 1], [-1, 0]], _O])


class SigmaConvention(enum.Enum):
    STANDARD = "standard"
    QUARTER = "quarter"

    @property
    def scale(self) -> Fraction:
        return Fraction(1, 4) if self is SigmaConvention.QUARTER else Fraction(1)


def sigma_upper(conv: SigmaConvention) -> tuple[int, np.ndarray]:
    """(den, S): sigma^mu = scale * (I, pauli vector), shape (2, 4, 2, 2),
    S[:, mu, a, adot] the entry (sigma^mu)_{a adot} times den."""
    d, pauli = PAULI
    s = conv.scale
    S = np.concatenate((d * ID2[:, None], pauli), axis=1) * s.numerator
    return d * s.denominator, S.astype(np.int64)


def sigma_lower(conv: SigmaConvention) -> tuple[int, np.ndarray]:
    """(den, S): sigma_mu = eta_{mu mu} sigma^mu."""
    d, S = sigma_upper(conv)
    return d, S * np.array(MINKOWSKI, dtype=np.int64)[:, None, None]


def sigma_lower_raised(conv: SigmaConvention) -> tuple[int, np.ndarray]:
    """(den, S): sigma_mu^{a adot} = eps^{ab} eps^{adot bdot} sigma_{mu, b bdot},
    both spinor indices raised; epsilon is real and acts on both parts."""
    d, S = sigma_lower(conv)
    return d, np.einsum("ab,xy,rmby->rmax", EPS_RAISE[0], EPS_RAISE[0], S)


RAISE_UNDOTTED = "raise-undotted"
LOWER_DOTTED = "lower-dotted"
RAISE_DOTTED = "raise-dotted"
LOWER_UNDOTTED = "lower-undotted"

_EPS_FOR_MODE = {RAISE_UNDOTTED: EPS_RAISE, RAISE_DOTTED: EPS_RAISE,
                 LOWER_DOTTED: EPS_LOWER, LOWER_UNDOTTED: EPS_LOWER}


def raise_lower(spinor, mode: str):
    """Contract a 2-component spinor with the epsilon for `mode`, on the left."""
    if mode not in _EPS_FOR_MODE:
        raise ValueError(f"unknown mode {mode!r}")
    eps = _EPS_FOR_MODE[mode][0].tolist()     # epsilon is real
    v = tuple(GaussianRational.of(c) for c in spinor)
    if len(v) != 2:
        raise ValueError("spinor must have two components")
    return tuple(sum((eps[a][b] * v[b] for b in range(2)), ZERO) for a in range(2))


def epsilon_inverse_holds() -> bool:
    """eps^{ab} eps_{bc} = delta^a_c, exactly: the real check of Eq. 1-100 to
    1-130, as the dotted and undotted matrices are the same arrays."""
    return np.array_equal(gauss(np.matmul, EPS_RAISE, EPS_LOWER), ID2)


def pauli_spin_commutators_hold() -> bool:
    """[sigma_i/2, sigma_j/2] = i eps_ijk sigma_k/2, checked exactly.

    Decided for all nine pairs (i, j) in one stacked identity, the one above
    times 4 on `PAULI` = (d, S): [S_i, S_j] = 2i d eps_ijk S_k, where the
    factor d comes from sigma = S / d (d is 1 for the Pauli matrices).
    """
    d, S = PAULI
    products = gauss(np.matmul, S[:, :, None], S[:, None])      # S_i S_j
    rhs = 2 * d * times_i(np.einsum("ijk,rkab->rijab", EPS3, S))
    return np.array_equal(products - products.swapaxes(1, 2), rhs)
