"""Bundled algebras: the split-octonion table and its companions.

The seven-row multiplication table below is the single source of truth for
the split-octonion algebra; the commutator/associator identities exercised
in the test suite and the verification report are derived from it, never
the other way around.

The index algebra lives here once, as integer arrays (conventions of J. Wess
and J. Bagger, Supersymmetry and Supergravity, ch. 4): `EPS3`, `EPS4`,
`MINKOWSKI` and the so(3,1) structure constants `LORENTZ`.  The quaternion
and su(2) tables are read off `EPS3`, the so(3,1) table off `LORENTZ`.
"""

from __future__ import annotations

import functools
import itertools
import random

import numpy as np

from .algebra import AlgebraDef

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
MINKOWSKI = (1, -1, -1, -1)
LORENTZ_SLOTS = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))

# E_s = SLOT_MATRICES[s] is m_s = m^{mu nu}, for slot s = (mu, nu), as an
# antisymmetric 4x4 matrix.  The real form of the boost/rotation bracket,
#   [m^{mu nu}, m^{rho sigma}] = eta^{nu rho} m^{mu sigma} + eta^{mu sigma} m^{nu rho}
#                               - eta^{mu rho} m^{nu sigma} - eta^{nu sigma} m^{mu rho},
# is the matrix E_s eta E_t - E_t eta E_s, so LORENTZ[s, t, u], the
# coefficient of m_u in [m_s, m_t], is its entry at slot u.
_ROWS, _COLS = np.array(LORENTZ_SLOTS).T
_UPPER = np.zeros((6, 4, 4), dtype=np.int64)
_UPPER[range(6), _ROWS, _COLS] = 1
SLOT_MATRICES = _UPPER - _UPPER.transpose(0, 2, 1)
_E_ETA_E = np.einsum("sab,b,tbc->stac", SLOT_MATRICES, MINKOWSKI, SLOT_MATRICES)
LORENTZ = (_E_ETA_E - _E_ETA_E.transpose(1, 0, 2, 3))[:, :, _ROWS, _COLS]


@functools.lru_cache(maxsize=None)
def split_octonions() -> AlgebraDef:
    cells = [cell for row in SPLIT_OCTONION_TABLE for cell in row]
    labels = ("1",) + SPLIT_OCTONION_NAMES
    vecs = np.zeros((49, 8), dtype=np.int64)
    vecs[range(49), [labels.index(c.lstrip("-")) for c in cells]] = [
        -1 if c[0] == "-" else 1 for c in cells]
    return AlgebraDef("splitO", 7, 1, vecs.tolist(), True, SPLIT_OCTONION_NAMES)


@functools.lru_cache(maxsize=None)
def quaternions() -> AlgebraDef:
    cells = [[-1 if i == j else 0, *EPS3[i, j].tolist()] for i in range(3) for j in range(3)]
    return AlgebraDef("quaternion", 3, 1, cells, True, ("q1", "q2", "q3"))


@functools.lru_cache(maxsize=None)
def su2_bracket_algebra() -> AlgebraDef:
    """su(2) with the Lie bracket itself as the bilinear product."""
    cells = [[0, *EPS3[i, j].tolist()] for i in range(3) for j in range(3)]
    return AlgebraDef("su2", 3, 1, cells, False)


@functools.lru_cache(maxsize=None)
def complex_numbers() -> AlgebraDef:
    return AlgebraDef("complex", 1, 1, [[-1, 0]], True)


@functools.lru_cache(maxsize=None)
def so31_bracket_algebra() -> AlgebraDef:
    """so(3,1) with the bracket as product, basis m01..m23."""
    cells = [[0, *vec] for vec in LORENTZ.reshape(36, 6).tolist()]
    names = tuple(f"m{a}{b}" for a, b in LORENTZ_SLOTS)
    return AlgebraDef("so31", 6, 1, cells, False, names)


@functools.lru_cache(maxsize=None)
def random_commutative() -> AlgebraDef:
    """A seeded commutative algebra of dimension 3 with small integer structure constants."""
    dim, rng = 3, random.Random(7)
    cells = [None] * (dim * dim)
    for i in range(dim):
        for j in range(i, dim):
            cells[i * dim + j] = cells[j * dim + i] = [0] + [rng.randint(-1, 1) for _ in range(dim)]
    return AlgebraDef("randcomm7", dim, 1, cells, False)


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
