"""Bundled algebras: the split-octonion table and its companions.

The seven-row multiplication table below is the single source of truth for
the split-octonion algebra; the commutator/associator identities exercised
in the test suite and the verification report are derived from it, never
the other way around.
"""

from __future__ import annotations

import functools
import itertools
import random

import numpy as np

from .algebra import AlgebraDef
from .scalar import ZERO

# Row * column products for basis q1..q7; "1"/"-1" are unit multiples.
SPLIT_OCTONION_TABLE = (
    ("-1", "q3", "-q2", "-q7", "q6", "-q5", "q4"),
    ("-q3", "-1", "q1", "-q6", "-q7", "q4", "q5"),
    ("q2", "-q1", "-1", "q5", "-q4", "-q7", "q6"),
    ("q7", "q6", "-q5", "1", "-q3", "q2", "q1"),
    ("-q6", "q7", "q4", "q3", "1", "-q1", "q2"),
    ("q5", "-q4", "q7", "-q2", "q1", "1", "q3"),
    ("-q4", "-q5", "-q6", "-q1", "-q2", "-q3", "1"),
)

SPLIT_OCTONION_NAMES = tuple(f"q{i}" for i in range(1, 8))


def _levi_civita(n: int) -> np.ndarray:
    """The Levi-Civita symbol on n indices: each permutation's inversion parity."""
    eps = np.zeros((n,) * n, dtype=np.int64)
    for perm in itertools.permutations(range(n)):
        eps[perm] = (-1) ** sum(a > b for a, b in itertools.combinations(perm, 2))
    return eps


EPS3 = _levi_civita(3)
EPS4 = _levi_civita(4)


def epsilon3(i: int, j: int, k: int) -> int:
    """The Levi-Civita symbol on the labels 1, 2, 3, and 0 off them."""
    return int(EPS3[i - 1, j - 1, k - 1]) if {i, j, k} <= {1, 2, 3} else 0


def _parse_cell(cell: str):
    sign = 1
    if cell.startswith("-"):
        sign = -1
        cell = cell[1:]
    if cell == "1":
        return sign, None
    assert cell.startswith("q")
    return sign, int(cell[1:]) - 1


@functools.lru_cache(maxsize=None)
def split_octonions() -> AlgebraDef:
    products = {}
    for i, row in enumerate(SPLIT_OCTONION_TABLE):
        for j, cell in enumerate(row):
            sign, idx = _parse_cell(cell)
            if idx is None:
                products[(i, j)] = (sign, {})
            else:
                products[(i, j)] = (ZERO, {idx: sign})
    return AlgebraDef.from_products(
        "splitO", 7, products, unital=True, basis_names=SPLIT_OCTONION_NAMES
    )


@functools.lru_cache(maxsize=None)
def quaternions() -> AlgebraDef:
    products = {}
    for i, j in itertools.product(range(3), repeat=2):
        if i == j:
            products[(i, j)] = (-1, {})
        else:
            k = 3 - i - j
            products[(i, j)] = (ZERO, {k: epsilon3(i + 1, j + 1, k + 1)})
    return AlgebraDef.from_products(
        "quaternion", 3, products, unital=True, basis_names=("q1", "q2", "q3")
    )


@functools.lru_cache(maxsize=None)
def su2_bracket_algebra() -> AlgebraDef:
    """su(2) with the Lie bracket itself as the bilinear product."""
    products = {}
    for i, j in itertools.product(range(3), repeat=2):
        if i != j:
            k = 3 - i - j
            products[(i, j)] = (ZERO, {k: epsilon3(i + 1, j + 1, k + 1)})
    return AlgebraDef.from_products("su2", 3, products, unital=False)


@functools.lru_cache(maxsize=None)
def complex_numbers() -> AlgebraDef:
    return AlgebraDef.from_products(
        "complex", 1, {(0, 0): (-1, {})}, unital=True
    )


MINKOWSKI = (1, -1, -1, -1)
LORENTZ_SLOTS = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))


def lorentz_bracket_coeffs(munu, rhosigma):
    """Coefficients of [m_munu, m_rhosigma] on the six antisymmetric slots.

    Real form of the boost/rotation algebra: the bracket equals
    eta^{nu rho} m^{mu sigma} + eta^{mu sigma} m^{nu rho}
    - eta^{mu rho} m^{nu sigma} - eta^{nu sigma} m^{mu rho}.
    """
    mu, nu = munu
    rho, sigma = rhosigma
    out = {}

    def put(coeff, a, b):
        if coeff == 0 or a == b:
            return
        if a > b:
            a, b = b, a
            coeff = -coeff
        slot = LORENTZ_SLOTS.index((a, b))
        out[slot] = out.get(slot, 0) + coeff

    put(MINKOWSKI[nu] if nu == rho else 0, mu, sigma)
    put(MINKOWSKI[mu] if mu == sigma else 0, nu, rho)
    put(-(MINKOWSKI[mu] if mu == rho else 0), nu, sigma)
    put(-(MINKOWSKI[nu] if nu == sigma else 0), mu, rho)
    return out


@functools.lru_cache(maxsize=None)
def so31_bracket_algebra() -> AlgebraDef:
    """so(3,1) with the bracket as product, basis m01..m23."""
    products = {}
    for a, ab in enumerate(LORENTZ_SLOTS):
        for b, cd in enumerate(LORENTZ_SLOTS):
            coeffs = lorentz_bracket_coeffs(ab, cd)
            if coeffs:
                products[(a, b)] = (ZERO, coeffs)
    names = tuple(f"m{a}{b}" for a, b in LORENTZ_SLOTS)
    return AlgebraDef.from_products("so31", 6, products, unital=False, basis_names=names)


@functools.lru_cache(maxsize=None)
def random_commutative(dim: int = 3, seed: int = 7) -> AlgebraDef:
    """A seeded commutative algebra with small integer structure constants."""
    rng = random.Random(seed)
    products = {}
    for i in range(dim):
        for j in range(i, dim):
            terms = {k: rng.randint(-1, 1) for k in range(dim)}
            terms = {k: v for k, v in terms.items() if v}
            products[(i, j)] = (ZERO, terms)
            products[(j, i)] = (ZERO, dict(terms))
    return AlgebraDef.from_products(f"randcomm{seed}", dim, products, unital=False)


def standard_corpus() -> list[AlgebraDef]:
    """The default algebra corpus for cross-algebra checks."""
    return [
        split_octonions(),
        quaternions(),
        su2_bracket_algebra(),
        complex_numbers(),
        random_commutative(),
        so31_bracket_algebra(),
    ]
