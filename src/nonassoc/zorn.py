"""Zorn vector matrices and the split-octonion representation checks.

A Zorn matrix carries scalars on the diagonal and 3-vectors off it, with
the block product

    (a, x; y, b)(c, u; v, d) =
        (ac + x.v,  au + dx - y X v;  cy + bv + x X u,  bd + y.u).

The basis map sends 1 to the identity, q7 to -(1,0;0,-1), q_i to
(0,-e_i;e_i,0) and q_{i+3} to (0,e_i;e_i,0).  The images of the basis
generate a product table of their own, zorn_octonions.
verify_zorn_isomorphism is a diff of its structure tensor against the
bundled table's, over every ordered pair of 1, q1..q7, and reports the
(substantial) disagreement it finds.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .algebra import AlgebraDef, Element, commutator, multiply
from .corpus import epsilon3, split_octonions
from .properties import PropertyReport, Witness
from .scalar import GaussianRational, I, ZERO
from .spinor import PAULI, Mat2, commutator2

Vec3 = tuple[GaussianRational, GaussianRational, GaussianRational]

VZERO: Vec3 = (ZERO, ZERO, ZERO)


def vec3(a, b, c) -> Vec3:
    return (GaussianRational.of(a), GaussianRational.of(b), GaussianRational.of(c))


def unit_vec3(i: int) -> Vec3:
    return vec3(*(1 if k == i else 0 for k in range(3)))


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
    """Images of q1..q7; the unit maps to the identity matrix."""
    images = []
    for i in range(3):
        e = unit_vec3(i)
        images.append(ZornMatrix.build(0, _vscale(-1, e), e, 0))
    for i in range(3):
        e = unit_vec3(i)
        images.append(ZornMatrix.build(0, e, e, 0))
    images.append(ZornMatrix.build(-1, VZERO, VZERO, 1))
    return tuple(images)


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


def verify_zorn_isomorphism() -> PropertyReport:
    """Diff the structure tensor of the bundled table against the Zorn one's.

    The Zorn table is the one the basis images generate; both tensors hold
    the 64 products of 1, q1..q7.  holds is true only if every ordered pair
    agrees exactly; the witness is the first disagreeing pair with the
    defect pulled back to the algebra.
    """
    alg, zorn_alg = split_octonions(), _zorn_table()
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
    table_side = multiply(u, v)
    zorn_side = from_zorn(zorn_multiply(to_zorn(u), to_zorn(v)))
    witness = Witness(defect=zorn_side - table_side, elements=(u, v),
                      law=f"{names[i]}*{names[j]}: table {table_side}, Zorn image {zorn_side}")
    signs = f"{not_by_sign} not by sign" if not_by_sign else "all by sign"
    detail = (f"{len(mismatches)} of 64 ordered basis pairs disagree ({signs}); "
              f"first {names[i]}*{names[j]}")
    return PropertyReport(alg, "zorn_isomorphism", False, witness, detail)


def _multiple(lhs: Element, rhs: Element) -> GaussianRational | None:
    """The scalar c with lhs = c * rhs for a nonzero rhs, or None if there is none."""
    for c_l, c_r in zip((lhs.unit,) + lhs.coeffs, (rhs.unit,) + rhs.coeffs):
        if not c_r.is_zero():
            c = c_l / c_r
            return c if lhs == rhs.scaled(c) else None
    return None


@dataclass(frozen=True)
class SpinCommutatorReport:
    """Outcome of the q-side bracket check against its Pauli counterpart."""

    printed_relation_holds: bool      # [i/2 q_i, i/2 q_j] = eps_ijk (i/2) q_k
    measured_factor: GaussianRational  # kappa in [s_i, s_j] = kappa * eps_ijk s_k
    pauli_side_holds: bool            # [sigma_i/2, sigma_j/2] = i eps sigma_k/2
    witness: Witness | None


def verify_spin_commutators() -> SpinCommutatorReport:
    alg = split_octonions()
    half_i = I * Fraction(1, 2)
    s = [alg.basis_element(k).scaled(half_i) for k in range(3)]

    printed_ok = True
    witness = None
    for i, j in itertools.product(range(3), repeat=2):
        lhs = commutator(s[i], s[j])
        rhs = alg.zero()
        for k in range(3):
            e = epsilon3(i + 1, j + 1, k + 1)
            if e:
                rhs = rhs + s[k].scaled(e)
        d = lhs - rhs
        if not d.is_zero():
            printed_ok = False
            if witness is None:
                witness = Witness(defect=d, indices=(i, j), law="bracket of i/2-scaled basis")
            break

    # Measure kappa from [s_1, s_2] = kappa * s_3.
    kappa = _multiple(commutator(s[0], s[1]), s[2])
    measured_ok = kappa is not None and all(
        (commutator(s[i], s[j]) - sum(
            (s[k].scaled(kappa * epsilon3(i + 1, j + 1, k + 1)) for k in range(3)),
            alg.zero(),
        )).is_zero()
        for i, j in itertools.product(range(3), repeat=2)
    )
    if not measured_ok:
        kappa = ZERO

    pauli_ok = True
    halves = [p.scaled(Fraction(1, 2)) for p in PAULI]
    for i, j in itertools.product(range(3), repeat=2):
        rhs = Mat2([[0, 0], [0, 0]])
        for k in range(3):
            e = epsilon3(i + 1, j + 1, k + 1)
            if e:
                rhs = rhs + halves[k].scaled(I * e)
        if commutator2(halves[i], halves[j]) != rhs:
            pauli_ok = False
            break

    return SpinCommutatorReport(printed_ok, kappa, pauli_ok, witness)


@dataclass(frozen=True)
class SpinDecompositionReport:
    """Product and bracket decompositions of the i/2-scaled quaternion basis."""

    product_decomposition_holds: bool  # (i/2) q_i = -(i/4) eps_ijk q_{j+3} q_{k+3}
    bracket_constant: GaussianRational  # lambda with -(1/4) eps_ijk [q_{j+3}, q_{k+3}] = lambda q_i
    bracket_constant_uniform: bool
    detail: str


def verify_spin_decomposition() -> SpinDecompositionReport:
    alg = split_octonions()
    q = alg.basis()

    product_ok = True
    for i in range(1, 4):
        rhs = alg.zero()
        for j, k in itertools.product(range(1, 4), repeat=2):
            e = epsilon3(i, j, k)
            if e:
                rhs = rhs + multiply(q[j + 2], q[k + 2]).scaled(I * Fraction(-1, 4) * e)
        lhs = q[i - 1].scaled(I * Fraction(1, 2))
        if not (lhs - rhs).is_zero():
            product_ok = False

    lam = ZERO
    uniform = True
    for i in range(1, 4):
        r = alg.zero()
        for j, k in itertools.product(range(1, 4), repeat=2):
            e = epsilon3(i, j, k)
            if e:
                r = r + commutator(q[j + 2], q[k + 2]).scaled(Fraction(-1, 4) * e)
        this = _multiple(r, q[i - 1])    # r should be lam * q_i
        if this is None:
            uniform = False
            break
        if i == 1:
            lam = this
        elif this != lam:
            uniform = False
            break

    detail = (
        f"-(1/4) eps [q_(j+3), q_(k+3)] = {lam} * q_i; "
        f"the i/2-scaled product decomposition {'holds' if product_ok else 'fails'}"
    )
    return SpinDecompositionReport(product_ok, lam, uniform, detail)


def _zorn_table() -> AlgebraDef:
    """The basis-product table the Zorn images generate, built afresh."""
    alg = split_octonions()
    products = {}
    for i in range(7):
        for j in range(7):
            el = from_zorn(zorn_multiply(_basis_images()[i], _basis_images()[j]))
            terms = {k: c for k, c in enumerate(el.coeffs) if not c.is_zero()}
            products[(i, j)] = (el.unit, terms)
    return AlgebraDef.from_products(
        "zornO", 7, products, unital=True, basis_names=alg.basis_names
    )


@functools.lru_cache(maxsize=None)
def zorn_octonions() -> AlgebraDef:
    """The basis-product table the Zorn representation actually generates.

    Differs from the bundled table by 36 signs; unlike it, this one is
    alternative.  Shipped as a corpus member and fixture for comparison.
    """
    return _zorn_table()
