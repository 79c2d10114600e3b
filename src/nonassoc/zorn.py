"""Zorn vector matrices and the split-octonion representation checks.

A Zorn matrix (a, x; y, b) carries scalars on the diagonal and 3-vectors
off it, with the block product

    (a, x; y, b)(c, u; v, d) =
        (ac + x.v,  au + dx - y X v;  cy + bv + x X u,  bd + y.u).

On the components (a, x1..x3, y1..y3, b) it is one integer tensor ZORN, and
the rows of PHI are the images of 1, q1..q7: the identity, (0,-e_i;e_i,0),
(0,e_i;e_i,0) and (-1,0;0,1).  They are orthogonal, of squared length 2, so
TWICE_INV = 2 PHI^-1 = PHI^T.  `zorn_matrices` is ZORN as an `AlgebraDef`,
so a Zorn matrix is one of its `Element`s and the block product is
`multiply`.  `to_zorn` and `from_zorn` map the Gaussian-integer vector of
an element through PHI and TWICE_INV; `str` prints it as an `Element`, and
`zorn_text` writes it as [a, (x); (y), b].  `zorn_octonions`, the table the
images generate, is ZORN on two rows of PHI read back through TWICE_INV in
halves, and verify_zorn_isomorphism diffs its structure tensor against the
bundled table's over every ordered pair of 1, q1..q7.

The split-octonion identities behind the spin operator, Eq. 2-10 to 2-60
and 3-30, are decided on the bundled table's structure tensor T as well,
each beside the block it reads: brackets are blocks of the commutator
tensor T - T^T, associators the slabs the law kernels contract T into,
and the scalars i/2, -1/4 and -i/4 of the printed relations come out by
bilinearity.  Elements are built only for a witness; the constants kappa
and lambda are measured with `common_scale` on tensor vectors.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .algebra import AlgebraDef, Element
from .corpus import EPS3, split_octonions
from .properties import PropertyReport, Witness, _slab_kernel, _turn
from .scalar import GaussianRational, ZERO, _gaussian_text, common_scale
from .spinor import pauli_spin_commutators_hold

# Indices of q1..q3, q4..q6 and q7 in `AlgebraDef.tensor` and PHI (0 is the unit).
QUAT, SPLIT, Q7 = slice(1, 4), slice(4, 7), 7

# Components of a Zorn 8-vector (a, x1..x3, y1..y3, b).
A, X, Y, B = 0, slice(1, 4), slice(4, 7), 7

I3 = np.eye(3, dtype=np.int64)
ZORN = np.zeros((8, 8, 8), dtype=np.int64)
ZORN[A, A, A] = ZORN[B, B, B] = 1           # ac, bd
ZORN[X, Y, A] = ZORN[Y, X, B] = I3          # x.v, y.u
ZORN[A, X, X] = ZORN[X, B, X] = I3          # au, dx
ZORN[Y, A, Y] = ZORN[B, Y, Y] = I3          # cy, bv
ZORN[Y, Y, X] = -EPS3                       # -y X v
ZORN[X, X, Y] = EPS3                        # x X u

PHI = np.zeros((8, 8), dtype=np.int64)
PHI[0, [A, B]] = 1, 1                       # 1 -> (1, 0; 0, 1)
PHI[QUAT, X], PHI[QUAT, Y] = -I3, I3        # q_i -> (0, -e_i; e_i, 0)
PHI[SPLIT, X] = PHI[SPLIT, Y] = I3          # q_(i+3) -> (0, e_i; e_i, 0)
PHI[Q7, [A, B]] = -1, 1                     # q7 -> (-1, 0; 0, 1)
TWICE_INV = PHI.T                           # PHI PHI^T = 2 I


def _halves(vecs: np.ndarray) -> np.ndarray:
    """Gaussian vectors, real half then imaginary half on the last axis, as
    one array with (re, im) on axis 0."""
    return np.moveaxis(vecs.reshape(vecs.shape[:-1] + (2, -1)), -2, 0)


@functools.lru_cache(maxsize=None)
def zorn_matrices() -> AlgebraDef:
    """ZORN as an algebra on the components a, x1..x3, y1..y3, b.

    Its table has no unit index: the identity a + b is an internal unit.
    """
    cells = [[0, *cell] for cell in ZORN.reshape(64, 8).tolist()]
    return AlgebraDef("zorn", 8, 1, cells, unital=False,
                      basis_names=("a", "x1", "x2", "x3", "y1", "y2", "y3", "b"))


def zorn_text(z: Element) -> str:
    """An element of `zorn_matrices()` as `[a, (x1, x2, x3); (y1, y2, y3), b]`."""
    a, *xy, b = (_gaussian_text(re, im, z.den) for re, im in zip(z.vec[1:9], z.vec[10:]))
    return f"[{a}, ({', '.join(xy[:3])}); ({', '.join(xy[3:])}), {b}]"


def to_zorn(s: Element) -> Element:
    """Linear extension of the basis map to any split-octonion element."""
    alg = split_octonions()
    if s.algebra is not alg and s.algebra != alg:
        raise ValueError("to_zorn expects a split-octonion element")
    re, im = (_halves(np.array(s.vec, dtype=object)) @ PHI).tolist()
    return Element(zorn_matrices(), s.den, [0, *re, 0, *im])


def from_zorn(z: Element) -> Element:
    """Inverse of to_zorn (the basis map is a linear bijection)."""
    alg = zorn_matrices()
    if z.algebra is not alg and z.algebra != alg:
        raise ValueError("from_zorn expects an element of zorn_matrices()")
    v = _halves(np.array(z.vec, dtype=object))[:, 1:]
    return Element(split_octonions(), 2 * z.den, (v @ TWICE_INV).ravel().tolist())


def _gaussian_tensor(alg: AlgebraDef) -> np.ndarray:
    """`alg.tensor` with its imaginary half present even for a real table.

    Its last axis holds Gaussian tensor vectors: real parts at 0..dim, then
    imaginary parts, so that i times a vector is `_turn`.
    """
    t = alg.tensor
    return t if t.shape[2] > len(t) else np.concatenate([t, np.zeros_like(t)], axis=2)


def _eps_vectors(t: np.ndarray, den) -> np.ndarray:
    """E[i, j] = den * sum_k eps_ijk q_k, as tensor vectors of t's width."""
    e = np.zeros((3, 3, t.shape[2]), dtype=t.dtype)
    e[:, :, QUAT] = EPS3 * den
    return e


def verify_zorn_isomorphism() -> PropertyReport:
    """Diff the structure tensor of the bundled table against the Zorn one's.

    The Zorn table is the one the basis images generate; both tensors hold
    the 64 products of 1, q1..q7.  holds is true only if every ordered pair
    agrees exactly; the witness is the first disagreeing pair with the
    defect pulled back to the algebra.
    """
    alg, zorn_alg = split_octonions(), zorn_octonions()
    table = alg.tensor * zorn_alg._den
    image = zorn_alg.tensor * alg._den
    differ = (table != image).any(axis=-1)
    not_by_sign = int((differ & (image != -table).any(axis=-1)).sum())
    mismatches = np.argwhere(differ).tolist()    # in row-major (i, j) order
    if not mismatches:
        return PropertyReport(alg, "zorn_isomorphism", True, None,
                              "all 64 ordered basis pairs agree")
    names = ["1"] + list(alg.basis_names)
    i, j = mismatches[0]
    # Both tensors make index 0 the unit, so a mismatch is a product of two
    # basis elements, one cell of each table.
    table_side, zorn_side = (Element(alg, a._den, a.tensor[i, j].tolist())
                             for a in (alg, zorn_alg))
    witness = Witness(defect=zorn_side - table_side, indices=(i - 1, j - 1),
                      law=f"{names[i]}*{names[j]}: table {table_side}, Zorn image {zorn_side}")
    signs = f"{not_by_sign} not by sign" if not_by_sign else "all by sign"
    detail = (f"{len(mismatches)} of 64 ordered basis pairs disagree ({signs}); "
              f"first {names[i]}*{names[j]}")
    return PropertyReport(alg, "zorn_isomorphism", False, witness, detail)


@dataclass(frozen=True)
class SpinCommutatorReport:
    """Outcome of the q-side bracket checks against their Pauli counterpart."""

    quaternion_bracket_holds: bool    # [q_i, q_j] = 2 eps_ijk q_k (Eq. 2-30)
    printed_relation_holds: bool      # [i/2 q_i, i/2 q_j] = eps_ijk (i/2) q_k
    measured_factor: GaussianRational  # kappa in [s_i, s_j] = kappa * eps_ijk s_k
    pauli_side_holds: bool            # [sigma_i/2, sigma_j/2] = i eps sigma_k/2
    witness: Witness | None


def verify_spin_commutators() -> SpinCommutatorReport:
    """Brackets of s_k = (i/2) q_k, k = 1..3, on the split-octonion tensor.

    By bilinearity [s_i, s_j] = -(1/4) C_ij and eps_ijk s_k = (i/2) E_ij,
    where C is the commutator tensor and E the `_eps_vectors`.  So the printed
    relation [s_i, s_j] = eps_ijk s_k reads i C_ij = 2 E_ij, and
    [s_i, s_j] = kappa eps_ijk s_k reads i C_ij = 2 kappa E_ij, over all
    (i, j) at once.  The witness is the first failing (i, j) in row-major
    order.  Eq. 2-30, [q_i, q_j] = 2 eps_ijk q_k, is C_ij = 2 E_ij.
    """
    alg = split_octonions()
    t, den = _gaussian_tensor(alg), alg._den
    brackets = (t - t.transpose(1, 0, 2))[QUAT, QUAT]
    i_brackets, twice_eps = _turn(brackets, len(t)), 2 * _eps_vectors(t, den)
    failing = np.argwhere((i_brackets != twice_eps).any(axis=-1)).tolist()
    witness = None
    if failing:
        i, j = failing[0]
        # [s_i, s_j] - eps_ijk s_k = -(C_ij + 2i E_ij) / 4
        defect = Element(alg, 4 * den,
                         (-brackets[i, j] - _turn(twice_eps[i, j], len(t))).tolist())
        witness = Witness(defect=defect, indices=(i, j), law="bracket of i/2-scaled basis")

    kappa = common_scale(_halves(i_brackets), _halves(twice_eps))
    return SpinCommutatorReport(np.array_equal(brackets, twice_eps), not failing,
                                ZERO if kappa is None else kappa,
                                pauli_spin_commutators_hold(), witness)


@dataclass(frozen=True)
class SpinDecompositionReport:
    """Product and bracket decompositions of the i/2-scaled quaternion basis,
    and the split brackets and associators they are built from."""

    split_bracket_holds: bool          # [q_(i+3), q_(j+3)] = -2 eps_ijk q_k (Eq. 2-10)
    split_associator_holds: bool       # (q_(i+3), q_(j+3), q_(k+3)) = 2 eps_ijk q7 (Eq. 2-40)
    product_decomposition_holds: bool  # (i/2) q_i = -(i/4) eps_ijk q_{j+3} q_{k+3}
    bracket_constant: GaussianRational  # lambda with -(1/4) eps_ijk [q_{j+3}, q_{k+3}] = lambda q_i
    bracket_constant_uniform: bool


def verify_spin_decomposition() -> SpinDecompositionReport:
    """Both decompositions on the split-octonion tensor.

    With P_i = sum_jk eps_ijk q_(j+3) q_(k+3), (i/2) q_i = -(i/4) P_i reads
    P_i = -2 q_i.  R_i = -sum_jk eps_ijk [q_(j+3), q_(k+3)] is four times
    the bracket side, so lambda is the c with R_i = 4c q_i, measured at
    i = 1 and then required of i = 2, 3.  Eq. 2-10 compares the bracket
    block with -2 E, E the `_eps_vectors`, and Eq. 2-40 the associator
    slabs of q4..q6, times den**2, with 2 eps_ijk q7.
    """
    alg = split_octonions()
    t, den = _gaussian_tensor(alg), alg._den
    quat = np.eye(3, t.shape[2], 1, dtype=t.dtype) * den    # q1..q3
    split = t[SPLIT, SPLIT]
    split_brackets = split - split.transpose(1, 0, 2)
    brackets_ok = np.array_equal(split_brackets, -2 * _eps_vectors(t, den))
    slab = _slab_kernel(alg)    # slab(i, 0)[j, k] is A(e_i, e_j, e_k) for basis j, k
    associators = np.array([slab(i, 0)[3:6, 3:6] for i in range(4, 7)])
    eps_q7 = np.zeros_like(associators)
    eps_q7[..., Q7] = 2 * EPS3 * den**2
    product_ok = np.array_equal(np.tensordot(EPS3, split, axes=2), -2 * quat)

    bracket_sides = -np.tensordot(EPS3, split_brackets, axes=2)
    lam = common_scale(_halves(bracket_sides[0]), _halves(4 * quat[0]))
    uniform = lam is not None and common_scale(_halves(bracket_sides), _halves(4 * quat)) == lam
    return SpinDecompositionReport(brackets_ok, np.array_equal(associators, eps_q7), product_ok,
                                   ZERO if lam is None else lam, uniform)


@functools.lru_cache(maxsize=None)
def zorn_octonions() -> AlgebraDef:
    """The basis-product table the Zorn representation actually generates.

    Differs from the bundled table by 36 signs; unlike it, this one is
    alternative.  Shipped as a corpus member and fixture for comparison.
    Its products are read back through TWICE_INV, as numerators over 2.
    """
    # [i, j] is the product of the images of q_(i+1) and q_(j+1)
    cells = (PHI[1:] @ (PHI[1:] @ ZORN.reshape(8, 64)).reshape(7, 8, 8)) @ TWICE_INV
    return AlgebraDef("zornO", 7, 2, cells.reshape(49, 8).tolist(), unital=True,
                      basis_names=split_octonions().basis_names)
