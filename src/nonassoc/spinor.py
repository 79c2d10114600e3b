"""Exact 2x2 matrices: Pauli set, sigma-vector conventions, epsilon raising.

Two normalizations of the sigma four-vector are supported: STANDARD uses
sigma^mu = (I, pauli) and QUARTER scales every entry by 1/4.  The epsilon
matrices are fixed to the explicit arrays used throughout (raising
[[0,-1],[1,0]], lowering [[0,1],[-1,0]]), which are exact inverses of each
other.  Note i*sigma^2 equals the negative of the raising matrix, so the
matrices and the i*sigma^2 formula cannot both be taken literally; the
matrices win here.
"""

from __future__ import annotations

import enum
from fractions import Fraction

from .scalar import GaussianRational, I, ZERO, gaussian_integers


class Mat2:
    """An immutable 2x2 matrix with GaussianRational entries."""

    __slots__ = ("rows",)

    def __init__(self, rows):
        object.__setattr__(
            self,
            "rows",
            tuple(tuple(GaussianRational.of(v) for v in row) for row in rows),
        )
        if len(self.rows) != 2 or any(len(r) != 2 for r in self.rows):
            raise ValueError("Mat2 needs a 2x2 array")

    def __setattr__(self, name, value):
        raise AttributeError("Mat2 is immutable")

    def __getitem__(self, idx):
        return self.rows[idx]

    def __add__(self, other):
        return Mat2([[a + b for a, b in zip(r1, r2)] for r1, r2 in zip(self.rows, other.rows)])

    def __sub__(self, other):
        return Mat2([[a - b for a, b in zip(r1, r2)] for r1, r2 in zip(self.rows, other.rows)])

    def __neg__(self):
        return Mat2([[-v for v in row] for row in self.rows])

    def __mul__(self, other):
        if isinstance(other, Mat2):
            return Mat2(
                [
                    [
                        sum((self.rows[i][k] * other.rows[k][j] for k in range(2)), ZERO)
                        for j in range(2)
                    ]
                    for i in range(2)
                ]
            )
        return self.scaled(other)

    def __rmul__(self, s):
        return self.scaled(s)

    def scaled(self, s):
        s = GaussianRational.of(s)
        return Mat2([[s * v for v in row] for row in self.rows])

    def __eq__(self, other):
        if not isinstance(other, Mat2):
            return NotImplemented
        return self.rows == other.rows

    __hash__ = None

    def trace(self):
        return self.rows[0][0] + self.rows[1][1]

    def is_zero(self):
        return all(v.is_zero() for row in self.rows for v in row)

    def __repr__(self):
        return f"Mat2({[[str(v) for v in row] for row in self.rows]})"


ID2 = Mat2([[1, 0], [0, 1]])
PAULI = (
    Mat2([[0, 1], [1, 0]]),
    Mat2([[0, -I], [I, 0]]),
    Mat2([[1, 0], [0, -1]]),
)

# Index raising/lowering matrices; RAISE * LOWER = identity.
EPS_RAISE = Mat2([[0, -1], [1, 0]])
EPS_LOWER = Mat2([[0, 1], [-1, 0]])


class SigmaConvention(enum.Enum):
    STANDARD = "standard"
    QUARTER = "quarter"

    @property
    def scale(self) -> Fraction:
        return Fraction(1, 4) if self is SigmaConvention.QUARTER else Fraction(1)


MINKOWSKI = (1, -1, -1, -1)


def sigma_upper(conv: SigmaConvention) -> tuple[Mat2, ...]:
    """sigma^mu = scale * (I, pauli vector), entries (sigma^mu)_{a adot}."""
    s = conv.scale
    return tuple(m.scaled(s) for m in (ID2,) + PAULI)


def sigma_bar_upper(conv: SigmaConvention) -> tuple[Mat2, ...]:
    """sigmabar^mu = scale * (I, -pauli vector); equals sigma with mu lowered."""
    s = conv.scale
    return tuple(m.scaled(s) for m in (ID2,) + tuple(-p for p in PAULI))


def sigma_lower(conv: SigmaConvention) -> tuple[Mat2, ...]:
    up = sigma_upper(conv)
    return tuple(up[mu].scaled(MINKOWSKI[mu]) for mu in range(4))


def sigma_lower_raised(conv: SigmaConvention) -> tuple[Mat2, ...]:
    """sigma_mu with both spinor indices raised: eps * sigma_mu * eps^T.

    Row a of eps^{ab} has its one nonzero entry, +-1, at b = 1 - a, so the
    raised entry eps^{ab} eps^{ad bd} sigma_{mu, b bd} is the single term
    eps^{a, 1-a} eps^{ad, 1-ad} sigma_{mu, 1-a, 1-ad}: a sign times one entry.
    """
    e = (EPS_RAISE[0][1], EPS_RAISE[1][0])
    return tuple(
        Mat2([[m[1 - a][1 - ad] if e[a] == e[ad] else -m[1 - a][1 - ad] for ad in range(2)]
              for a in range(2)])
        for m in sigma_lower(conv)
    )


RAISE_UNDOTTED = "raise-undotted"
LOWER_DOTTED = "lower-dotted"
RAISE_DOTTED = "raise-dotted"
LOWER_UNDOTTED = "lower-undotted"

_EPS_FOR_MODE = {
    RAISE_UNDOTTED: EPS_RAISE,
    RAISE_DOTTED: EPS_RAISE,
    LOWER_DOTTED: EPS_LOWER,
    LOWER_UNDOTTED: EPS_LOWER,
}


def raise_lower(spinor, mode: str):
    """Contract a 2-component spinor with the epsilon for `mode`, on the left."""
    if mode not in _EPS_FOR_MODE:
        raise ValueError(f"unknown mode {mode!r}")
    eps = _EPS_FOR_MODE[mode]
    v = tuple(GaussianRational.of(c) for c in spinor)
    if len(v) != 2:
        raise ValueError("spinor must have two components")
    return tuple(
        sum((eps[a][b] * v[b] for b in range(2)), ZERO) for a in range(2)
    )


def pauli_spin_commutators_hold() -> bool:
    """[sigma_i/2, sigma_j/2] = i eps_ijk sigma_k/2, checked exactly.

    Decided for all nine pairs (i, j) as the identity times 4,
    [sigma_i, sigma_j] = 2i eps_ijk sigma_k, on the entries of `PAULI` as
    Gaussian-integer (re, im) pairs over their common denominator d, which
    puts a factor d on the right side (d is 1 for the Pauli matrices).
    """
    from .corpus import epsilon3

    den, flat = gaussian_integers([v for p in PAULI for row in p.rows for v in row])
    s = [(flat[4 * m:4 * m + 2], flat[4 * m + 2:4 * m + 4]) for m in range(3)]

    def mul(z, w):
        return z[0] * w[0] - z[1] * w[1], z[0] * w[1] + z[1] * w[0]

    def entry(a, b, r, c):
        """Entry (r, c) of the product ab."""
        (p, q), (x, y) = mul(a[r][0], b[0][c]), mul(a[r][1], b[1][c])
        return p + x, q + y

    for i in range(3):
        for j in range(3):
            e = [2 * den * epsilon3(i + 1, j + 1, k + 1) for k in range(3)]
            for r in range(2):
                for c in range(2):
                    (p, q), (x, y) = entry(s[i], s[j], r, c), entry(s[j], s[i], r, c)
                    # 2i e_k (re + i im) = -2 e_k im + i 2 e_k re
                    rhs = (-sum(e[k] * s[k][r][c][1] for k in range(3)),
                           sum(e[k] * s[k][r][c][0] for k in range(3)))
                    if (p - x, q - y) != rhs:
                        return False
    return True
