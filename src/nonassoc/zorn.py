"""Zorn vector matrices and the split-octonion representation checks.

A Zorn matrix carries scalars on the diagonal and 3-vectors off it, with
the block product

    (a, x; y, b)(c, u; v, d) =
        (ac + x.v,  au + dx - y X v;  cy + bv + x X u,  bd + y.u).

The basis map sends 1 to the identity, q7 to -(1,0;0,-1), q_i to
(0,-e_i;e_i,0) and q_{i+3} to (0,e_i;e_i,0).  The images of the basis hold
plain ints, and the products zorn_multiply forms of them are read back
into a product table of their own, zorn_octonions, in integer halves.
verify_zorn_isomorphism is a diff of its structure tensor against the
bundled table's, over every ordered pair of 1, q1..q7, and reports the
(substantial) disagreement it finds.

The split-octonion identities behind the spin operator (Eq. 2-50, 2-60
and 3-30 here, Eq. 2-10 to 2-40 in `report`) are decided on the bundled
table's structure tensor T as well: brackets are blocks of the commutator
tensor T - T^T, associators the slabs the law kernels contract T into,
and the scalars i/2, -1/4 and -i/4 of the printed relations come out by
bilinearity.  Elements are built only for a witness; the constants kappa
and lambda are measured with `common_scale` on tensor vectors.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .algebra import AlgebraDef, Element, _vector_element
from .corpus import EPS3, split_octonions
from .properties import PropertyReport, Witness, _turn
from .scalar import GaussianRational, ZERO, common_scale
from .spinor import pauli_spin_commutators_hold

Vec3 = tuple[GaussianRational, GaussianRational, GaussianRational]

VZERO: Vec3 = (ZERO, ZERO, ZERO)


def dot(u: Vec3, v: Vec3) -> GaussianRational:
    return u[0] * v[0] + u[1] * v[1] + u[2] * v[2]


def cross(u: Vec3, v: Vec3) -> Vec3:
    return (
        u[1] * v[2] - u[2] * v[1],
        u[2] * v[0] - u[0] * v[2],
        u[0] * v[1] - u[1] * v[0],
    )


def _vadd(u: Vec3, v: Vec3) -> Vec3:
    return (u[0] + v[0], u[1] + v[1], u[2] + v[2])


def _vscale(s, u: Vec3) -> Vec3:
    return (s * u[0], s * u[1], s * u[2])


@dataclass(frozen=True)
class ZornMatrix:
    a: GaussianRational
    x: Vec3
    y: Vec3
    b: GaussianRational

    @classmethod
    def build(cls, a, x, y, b) -> "ZornMatrix":
        return cls(
            GaussianRational.of(a),
            tuple(GaussianRational.of(v) for v in x),
            tuple(GaussianRational.of(v) for v in y),
            GaussianRational.of(b),
        )

    @classmethod
    def zero(cls) -> "ZornMatrix":
        return cls.build(0, VZERO, VZERO, 0)

    @classmethod
    def identity(cls) -> "ZornMatrix":
        return cls.build(1, VZERO, VZERO, 1)

    def __add__(self, other):
        return ZornMatrix(self.a + other.a, _vadd(self.x, other.x),
                          _vadd(self.y, other.y), self.b + other.b)

    def __sub__(self, other):
        return self + other.scaled(-1)

    def __neg__(self):
        return self.scaled(-1)

    def scaled(self, s) -> "ZornMatrix":
        s = GaussianRational.of(s)
        return ZornMatrix(s * self.a, _vscale(s, self.x), _vscale(s, self.y), s * self.b)

    def __mul__(self, other):
        if isinstance(other, ZornMatrix):
            return zorn_multiply(self, other)
        return self.scaled(other)

    __rmul__ = scaled

    def is_zero(self) -> bool:
        return (self.a.is_zero() and self.b.is_zero()
                and all(v.is_zero() for v in self.x) and all(v.is_zero() for v in self.y))

    def __str__(self):
        fx = "(" + ", ".join(str(v) for v in self.x) + ")"
        fy = "(" + ", ".join(str(v) for v in self.y) + ")"
        return f"[{self.a}, {fx}; {fy}, {self.b}]"


def zorn_multiply(A: ZornMatrix, B: ZornMatrix) -> ZornMatrix:
    return ZornMatrix(
        A.a * B.a + dot(A.x, B.y),
        _vadd(_vadd(_vscale(A.a, B.x), _vscale(B.b, A.x)), _vscale(-1, cross(A.y, B.y))),
        _vadd(_vadd(_vscale(B.a, A.y), _vscale(A.b, B.y)), cross(A.x, B.x)),
        A.b * B.b + dot(A.y, B.x),
    )


@functools.lru_cache(maxsize=None)
def _basis_images() -> tuple[ZornMatrix, ...]:
    """Images of q1..q7, with plain int entries; the unit maps to the identity matrix."""
    units = [tuple(int(k == i) for k in range(3)) for i in range(3)]
    return (tuple(ZornMatrix(0, tuple(-v for v in e), e, 0) for e in units)
            + tuple(ZornMatrix(0, e, e, 0) for e in units)
            + (ZornMatrix(-1, (0, 0, 0), (0, 0, 0), 1),))


def to_zorn(s: Element) -> ZornMatrix:
    """Linear extension of the basis map to any split-octonion element."""
    alg = split_octonions()
    if s.algebra is not alg and s.algebra != alg:
        raise ValueError("to_zorn expects a split-octonion element")
    out = ZornMatrix.identity().scaled(s.unit)
    for k, c in enumerate(s.coeffs):
        if not c.is_zero():
            out = out + _basis_images()[k].scaled(c)
    return out


def from_zorn(Z: ZornMatrix) -> Element:
    """Inverse of to_zorn (the basis map is a linear bijection)."""
    alg = split_octonions()
    half = Fraction(1, 2)
    unit = (Z.a + Z.b) * half
    coeffs = [ZERO] * 7
    coeffs[6] = (Z.b - Z.a) * half
    for i in range(3):
        coeffs[i] = (Z.y[i] - Z.x[i]) * half
        coeffs[i + 3] = (Z.y[i] + Z.x[i]) * half
    return alg.element(unit, coeffs)


# Tensor indices of q1..q3, q4..q6 and q7 in `AlgebraDef.tensor`, whose
# index 0 is the unit.
QUAT, SPLIT, Q7 = slice(1, 4), slice(4, 7), 7


def _gaussian_tensor(alg: AlgebraDef) -> np.ndarray:
    """`alg.tensor` with its imaginary half present even for a real table.

    Its last axis holds Gaussian tensor vectors: real parts at 0..dim, then
    imaginary parts, so that i times a vector is `_turn`.
    """
    t = alg.tensor
    return t if t.shape[2] > len(t) else np.concatenate([t, np.zeros_like(t)], axis=2)


def eps_vectors(t: np.ndarray, den) -> np.ndarray:
    """E[i, j] = den * sum_k eps_ijk q_k, as tensor vectors of t's width."""
    e = np.zeros((3, 3, t.shape[2]), dtype=t.dtype)
    e[:, :, QUAT] = EPS3 * den
    return e


def _pairs(vecs: np.ndarray) -> list[tuple[int, int]]:
    """Gaussian tensor vectors as one sequence of (re, im) pairs, for `common_scale`."""
    h = vecs.shape[-1] // 2
    return list(zip(vecs[..., :h].ravel().tolist(), vecs[..., h:].ravel().tolist()))


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
    u, v = (alg.one() if k == 0 else alg.basis_element(k - 1) for k in (i, j))
    # Both tensors make index 0 the unit, so a mismatch is a product of two
    # basis elements, one cell of each table.
    table_side, zorn_side = (_vector_element(alg, a.tensor[i, j].tolist(), a._den)
                             for a in (alg, zorn_alg))
    witness = Witness(defect=zorn_side - table_side, elements=(u, v),
                      law=f"{names[i]}*{names[j]}: table {table_side}, Zorn image {zorn_side}")
    signs = f"{not_by_sign} not by sign" if not_by_sign else "all by sign"
    detail = (f"{len(mismatches)} of 64 ordered basis pairs disagree ({signs}); "
              f"first {names[i]}*{names[j]}")
    return PropertyReport(alg, "zorn_isomorphism", False, witness, detail)


@dataclass(frozen=True)
class SpinCommutatorReport:
    """Outcome of the q-side bracket check against its Pauli counterpart."""

    printed_relation_holds: bool      # [i/2 q_i, i/2 q_j] = eps_ijk (i/2) q_k
    measured_factor: GaussianRational  # kappa in [s_i, s_j] = kappa * eps_ijk s_k
    pauli_side_holds: bool            # [sigma_i/2, sigma_j/2] = i eps sigma_k/2
    witness: Witness | None


def verify_spin_commutators() -> SpinCommutatorReport:
    """Brackets of s_k = (i/2) q_k, k = 1..3, on the split-octonion tensor.

    By bilinearity [s_i, s_j] = -(1/4) C_ij and eps_ijk s_k = (i/2) E_ij,
    where C is the commutator tensor and E the `eps_vectors`.  So the printed
    relation [s_i, s_j] = eps_ijk s_k reads i C_ij = 2 E_ij, and
    [s_i, s_j] = kappa eps_ijk s_k reads i C_ij = 2 kappa E_ij, over all
    (i, j) at once.  The witness is the first failing (i, j) in row-major
    order.
    """
    alg = split_octonions()
    t, den = _gaussian_tensor(alg), alg._den
    brackets = (t - t.transpose(1, 0, 2))[QUAT, QUAT]
    i_brackets, twice_eps = _turn(brackets, len(t)), 2 * eps_vectors(t, den)
    failing = np.argwhere((i_brackets != twice_eps).any(axis=-1)).tolist()
    witness = None
    if failing:
        i, j = failing[0]
        # [s_i, s_j] - eps_ijk s_k = -(C_ij + 2i E_ij) / 4
        defect = _vector_element(alg, (-brackets[i, j] - _turn(twice_eps[i, j], len(t))).tolist(),
                                 4 * den)
        witness = Witness(defect=defect, indices=(i, j), law="bracket of i/2-scaled basis")

    kappa = common_scale(_pairs(i_brackets), _pairs(twice_eps))
    return SpinCommutatorReport(not failing, ZERO if kappa is None else kappa,
                                pauli_spin_commutators_hold(), witness)


@dataclass(frozen=True)
class SpinDecompositionReport:
    """Product and bracket decompositions of the i/2-scaled quaternion basis."""

    product_decomposition_holds: bool  # (i/2) q_i = -(i/4) eps_ijk q_{j+3} q_{k+3}
    bracket_constant: GaussianRational  # lambda with -(1/4) eps_ijk [q_{j+3}, q_{k+3}] = lambda q_i
    bracket_constant_uniform: bool
    detail: str


def verify_spin_decomposition() -> SpinDecompositionReport:
    """Both decompositions on the split-octonion tensor.

    With P_i = sum_jk eps_ijk q_(j+3) q_(k+3), (i/2) q_i = -(i/4) P_i reads
    P_i = -2 q_i.  R_i = -sum_jk eps_ijk [q_(j+3), q_(k+3)] is four times
    the bracket side, so lambda is the c with R_i = 4c q_i, measured at
    i = 1 and then required of i = 2, 3.
    """
    alg = split_octonions()
    t, den = _gaussian_tensor(alg), alg._den
    quat = np.eye(3, t.shape[2], 1, dtype=t.dtype) * den    # q1..q3
    split = t[SPLIT, SPLIT]
    product_ok = np.array_equal(np.tensordot(EPS3, split, axes=2), -2 * quat)

    bracket_sides = -np.tensordot(EPS3, split - split.transpose(1, 0, 2), axes=2)
    lam = common_scale(_pairs(bracket_sides[0]), _pairs(4 * quat[0]))
    uniform = lam is not None and common_scale(_pairs(bracket_sides), _pairs(4 * quat)) == lam
    lam = ZERO if lam is None else lam

    detail = (
        f"-(1/4) eps [q_(j+3), q_(k+3)] = {lam} * q_i; "
        f"the i/2-scaled product decomposition {'holds' if product_ok else 'fails'}"
    )
    return SpinDecompositionReport(product_ok, lam, uniform, detail)


@functools.lru_cache(maxsize=None)
def zorn_octonions() -> AlgebraDef:
    """The basis-product table the Zorn representation actually generates.

    Differs from the bundled table by 36 signs; unlike it, this one is
    alternative.  Shipped as a corpus member and fixture for comparison.
    Each product of two integer images is read back as from_zorn does, in
    integer halves: (a+b)/2 of the unit, (y-x)/2 of q1..q3, (y+x)/2 of
    q4..q6 and (b-a)/2 of q7, so the table holds these numerators over 2.
    """
    images = _basis_images()
    cells = []
    for i, j in itertools.product(range(7), repeat=2):
        z = zorn_multiply(images[i], images[j])
        cells.append([z.a + z.b, *(y - x for x, y in zip(z.x, z.y)),
                      *(y + x for x, y in zip(z.x, z.y)), z.b - z.a])
    return AlgebraDef("zornO", 7, 2, cells, unital=True,
                      basis_names=split_octonions().basis_names)
