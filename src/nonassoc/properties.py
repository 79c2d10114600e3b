"""Identity checking for structure-constant algebras.

The multilinear laws (associativity, alternativity after linearization,
flexibility, Lie admissibility, the derivation property) are decided
exhaustively on basis triples, which suffices by multilinearity over a
characteristic-zero field.  They run on `AlgebraDef.tensor`, the product
table as one exact integer array T over the common denominator, with the
unit at index 0.  Each law's defect at (e_i, e_j, e_k) is a signed sum of
associators A(a, b, c) = (e_a e_b) e_c - e_a (e_b e_c) at permutations of
(i, j, k):

    associative          A(i,j,k)
    flexible             A(i,j,k) + A(k,j,i)
    left-alternative     A(i,j,k) + A(j,i,k)
    right-alternative    A(i,j,k) + A(i,k,j)
    Lie-admissible       sum of sign(p) A(p(i,j,k)) over the six orders p
    derivation property  -A(i,j,k) + A(i,k,j) - A(k,i,j)

The associator entries are contractions of T with itself.  They are
computed one slab of first index i at a time, as the three slices with i
in each position, A[i,j,k], A[j,i,k] and A[j,k,i], so memory stays
O(dim^3).  Slabs are taken in order of i and the nonzero entries of a slab
in (j, k, law) order, and the scan stops at the first failing slab: the
witness is the lexicographically first failing (i, j, k, law), the same
triple a loop over basis elements finds, and its defect is the slab entry
divided by the denominator squared.

T is int64 when 12*K*M**2 < 2**63, where M is its largest entry and K the
length of its last axis: an associator entry sums 2*K products of two
entries and a law adds at most six associators, so no sum can overflow.
Otherwise T holds Python ints (dtype object), as for exported search
candidates, whose common denominator is about 2**68.  A table without
imaginary parts carries none, which keeps K at dim + 1.  The search for an
internal unit solves its linear system from slices of T by fraction-free
elimination over the Gaussian integers.

Power associativity and the Jordan law are not multilinear; they are
checked on all basis elements plus a deterministic batch of pseudorandom
elements with small integer coefficients.

Every check is exact: a law either holds or a nonzero defect element is
produced as a witness.  Witnesses are deterministic (lexicographically
first failing tuple).
"""

from __future__ import annotations

import functools
import itertools
import random
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .algebra import AlgebraDef, Element, multiply
from .scalar import GaussianRational, solve_gaussian_integers

DEFAULT_SAMPLES = 100
DEFAULT_SEED = 20240811

PROPERTIES = (
    "associative",
    "alternative",
    "flexible",
    "lie_admissible",
    "power_associative",
    "jordan",
    "unital",
    "derivation_property",
)


@dataclass(frozen=True)
class Witness:
    """A concrete violation: which inputs failed and by how much."""

    defect: Element
    indices: tuple[int, ...] | None = None
    elements: tuple[Element, ...] | None = None
    law: str = ""

    def describe(self) -> str:
        alg = self.defect.algebra
        if self.indices is not None:
            args = ", ".join(alg.basis_names[i] for i in self.indices)
        elif self.elements is not None:
            args = ", ".join(str(e) for e in self.elements)
        else:
            args = "?"
        law = f" [{self.law}]" if self.law else ""
        return f"({args}) -> defect {self.defect}{law}"


@dataclass(frozen=True)
class PropertyReport:
    algebra: AlgebraDef
    property: str
    holds: bool
    witness: Witness | None = None
    detail: str = ""

    def __post_init__(self):
        if not self.holds:
            assert self.witness is not None and not self.witness.defect.is_zero()


def _slab_kernel(alg):
    """Associator slices of `alg.tensor`, one slab of first index i at a time.

    Returns slices(i, pos) for tensor index i >= 1: the array S[j, k],
    over basis elements j and k, of A[i, j, k] (pos 0), A[j, i, k] (pos 1)
    or A[j, k, i] (pos 2), where A[a, b, c] is the associator of the
    elements at tensor indices a, b, c times `_den**2`, as a tensor vector.
    """
    t = alg.tensor
    n, width = alg.dim, t.shape[2]
    # times_right[m, k] is u_m e_k and times_left[j, m] is e_j u_m, where
    # u_m is the unit vector of component m.  In a Gaussian table the
    # components from `half` on are imaginary parts: u_(half+m) is i u_m,
    # and multiplying by i swaps the real and imaginary halves and negates one.
    if width > n + 1:
        half = n + 1
        turned = np.concatenate([-t[..., half:], t[..., :half]], axis=-1)
        times_right = np.concatenate([t, turned], axis=0)
        times_left = np.concatenate([t, turned], axis=1)
    else:
        times_right = times_left = t
    right = times_right[:, 1:].reshape(width, n * width)
    left = times_left[1:]
    products = t[1:, 1:].reshape(n * n, width)   # [(j, k)]: e_j e_k

    def slices(i, pos):
        if pos == 0:    # (e_i e_j) e_k - e_i (e_j e_k)
            return ((t[i, 1:] @ right).reshape(n, n, width)
                    - (products @ times_left[i]).reshape(n, n, width))
        if pos == 1:    # (e_j e_i) e_k - e_j (e_i e_k)
            return (t[1:, i] @ right).reshape(n, n, width) - t[i, 1:] @ left
        # (e_j e_k) e_i - e_j (e_k e_i)
        return ((products @ times_right[:, i]).reshape(n, n, width)
                - t[1:, i] @ left)

    return slices


def _first_failure(alg, laws):
    """The lexicographically first failing (i, j, k, law), or None.

    `laws` is [(tag, defect(s))], where defect maps s(pos), the associator
    slices of slab i, to the law's defects at (i, j, k) as an array over
    (j, k).  Slabs are decided in order of i and each is scanned in
    (j, k, law) order, so the first hit is the first failure in
    (i, j, k, law) order; no later slab is computed.
    """
    slices = _slab_kernel(alg)
    den2 = alg._den ** 2
    half = alg.dim + 1
    for i in range(1, alg.dim + 1):
        s = functools.cache(functools.partial(slices, i))
        defects = np.stack([defect(s) for _, defect in laws], axis=2)
        hits = np.flatnonzero((defects != 0).any(axis=3))
        if hits.size:
            j, k, law = np.unravel_index(hits[0], defects.shape[:3])
            row = [int(v) for v in defects[j, k, law]]
            if len(row) == half:
                row += [0] * half
            unit, *coeffs = (
                GaussianRational(Fraction(re, den2), Fraction(im, den2))
                for re, im in zip(row[:half], row[half:])
            )
            w = Element(alg, unit, tuple(coeffs))
            return Witness(defect=w, indices=(i - 1, int(j), int(k)), law=laws[law][0])
    return None


def _swap(a):
    """a[j, k] -> a[k, j]: the same slice with the last two indices exchanged."""
    return a.transpose(1, 0, 2)


def _check_associative(alg, **_):
    w = _first_failure(alg, [("associativity", lambda s: s(0))])
    return PropertyReport(alg, "associative", w is None, w)


def _check_flexible(alg, **_):
    # A(i,j,k) + A(k,j,i)
    w = _first_failure(alg, [("flexible law", lambda s: s(0) + _swap(s(2)))])
    return PropertyReport(alg, "flexible", w is None, w)


def _check_alternative(alg, **_):
    # Linearizations of (x,x,y) = 0 and (y,x,x) = 0; equivalent in char 0:
    # A(i,j,k) + A(j,i,k) and A(i,j,k) + A(i,k,j).
    w = _first_failure(alg, [
        ("left-alternative", lambda s: s(0) + s(1)),
        ("right-alternative", lambda s: s(0) + _swap(s(0))),
    ])
    return PropertyReport(alg, "alternative", w is None, w)


def _check_lie_admissible(alg, **_):
    # The jacobiator of the commutator is the signed sum of A over the six
    # orders of (i, j, k).
    def jacobiator(s):
        return s(0) - _swap(s(0)) - s(1) + _swap(s(1)) + s(2) - _swap(s(2))

    w = _first_failure(alg, [("Jacobi identity for the commutator", jacobiator)])
    return PropertyReport(alg, "lie_admissible", w is None, w)


def _check_derivation_property(alg, **_):
    # [z, xy] - x[z, y] - [z, x]y at (x, y, z) = (e_i, e_j, e_k) expands to
    # -A(i,j,k) + A(i,k,j) - A(k,i,j).
    w = _first_failure(alg, [
        ("bracket Leibniz rule", lambda s: _swap(s(0)) - s(0) - _swap(s(1))),
    ])
    return PropertyReport(alg, "derivation_property", w is None, w)


def _bracketings(x: Element, n: int) -> list[Element]:
    """All parenthesizations of the n-th power of x."""
    levels: list[list[Element]] = [[], [x]]
    for m in range(2, n + 1):
        out = []
        for split in range(1, m):
            for a in levels[split]:
                for b in levels[m - split]:
                    out.append(multiply(a, b))
        levels.append(out)
    return levels[n]


def _sample_elements(alg, samples, seed):
    rng = random.Random(seed)
    return [alg.random_element(rng) for _ in range(samples)]


def _check_power_associative(alg, degree=4, samples=DEFAULT_SAMPLES, seed=DEFAULT_SEED, **_):
    if degree < 3:
        raise ValueError("power associativity needs degree >= 3")
    candidates = alg.basis() + _sample_elements(alg, samples, seed)
    for x in candidates:
        for n in range(3, degree + 1):
            powers = _bracketings(x, n)
            ref = powers[0]
            for p in powers[1:]:
                d = p - ref
                if not d.is_zero():
                    w = Witness(defect=d, elements=(x,), law=f"power associativity at degree {n}")
                    return PropertyReport(alg, f"power_associative({degree})", False, w)
    return PropertyReport(alg, f"power_associative({degree})", True, None,
                          detail=f"basis plus {samples} seeded elements, degrees 3..{degree}")


def _check_jordan(alg, samples=DEFAULT_SAMPLES, seed=DEFAULT_SEED, **_):
    basis = alg.basis()
    for i, j in itertools.product(range(alg.dim), repeat=2):
        d = multiply(basis[i], basis[j]) - multiply(basis[j], basis[i])
        if not d.is_zero():
            w = Witness(defect=d, indices=(i, j), law="commutativity")
            return PropertyReport(alg, "jordan", False, w)
    rng = random.Random(seed)
    pairs = [(basis[i], basis[j]) for i, j in itertools.product(range(alg.dim), repeat=2)]
    pairs += [(alg.random_element(rng), alg.random_element(rng)) for _ in range(samples)]
    for x, y in pairs:
        xx = multiply(x, x)
        d = multiply(multiply(x, y), xx) - multiply(x, multiply(y, xx))
        if not d.is_zero():
            w = Witness(defect=d, elements=(x, y), law="Jordan law (xy)(xx) = x(y(xx))")
            return PropertyReport(alg, "jordan", False, w)
    return PropertyReport(alg, "jordan", True, None,
                          detail=f"basis pairs plus {samples} seeded pairs")


def _check_unital(alg, **_):
    if alg.unital:
        return PropertyReport(alg, "unital", True, None, detail="external unit")
    # Look for an internal two-sided identity by solving u*e_j = e_j = e_j*u,
    # one row per (j, k) and one column per coefficient of u, times `_den`.
    n, half = alg.dim, alg.dim + 1
    t = alg.tensor[1:, 1:]
    re = t[..., 1:half]
    im = t[..., half + 1:] if t.shape[2] > half else np.zeros_like(re)
    aug = []
    for order in ((1, 2, 0), (0, 2, 1)):    # [j, k, l]: e_l e_j, then e_j e_l
        re_rows, im_rows = re.transpose(order).tolist(), im.transpose(order).tolist()
        for j in range(n):
            for k in range(n):
                target = (alg._den if j == k else 0, 0)
                aug.append([*zip(re_rows[j][k], im_rows[j][k]), target])
    solution, particular = solve_gaussian_integers(aug)
    if solution is not None:
        u = alg.element(0, solution)
        return PropertyReport(alg, "unital", True, None, detail=f"internal unit {u}")
    # No identity exists; exhibit where the best candidate fails.
    u = alg.element(0, particular)
    for j in range(n):
        ej = alg.basis_element(j)
        for d in (multiply(u, ej) - ej, multiply(ej, u) - ej):
            if not d.is_zero():
                w = Witness(defect=d, indices=(j,), law=f"no identity; best candidate {u}")
                return PropertyReport(alg, "unital", False, w)
    raise AssertionError("inconsistent identity system with no failing product")


_CHECKS = {
    "associative": _check_associative,
    "alternative": _check_alternative,
    "flexible": _check_flexible,
    "lie_admissible": _check_lie_admissible,
    "power_associative": _check_power_associative,
    "jordan": _check_jordan,
    "unital": _check_unital,
    "derivation_property": _check_derivation_property,
}


def check_property(alg: AlgebraDef, prop: str, *, degree: int = 4,
                   samples: int = DEFAULT_SAMPLES, seed: int = DEFAULT_SEED) -> PropertyReport:
    """Decide one named law for `alg`; see module docstring for method."""
    key = prop.replace("-", "_")
    if key.startswith("power_associative"):
        key = "power_associative"
    if key not in _CHECKS:
        raise ValueError(f"unknown property {prop!r}; expected one of {PROPERTIES}")
    return _CHECKS[key](alg, degree=degree, samples=samples, seed=seed)


def check_derivation_property(alg: AlgebraDef) -> PropertyReport:
    return _check_derivation_property(alg)


@dataclass(frozen=True)
class MyungVerdict:
    algebra: AlgebraDef
    equivalence_holds: bool
    derivation: PropertyReport
    flexible: PropertyReport
    lie_admissible: PropertyReport


def myung_equivalence(corpus: list[AlgebraDef]) -> list[MyungVerdict]:
    """Check derivation-property <=> (flexible and Lie-admissible) per algebra."""
    if not corpus:
        raise ValueError("corpus must be non-empty")
    out = []
    for alg in corpus:
        der = check_derivation_property(alg)
        flex = check_property(alg, "flexible")
        lie = check_property(alg, "lie_admissible")
        out.append(
            MyungVerdict(
                algebra=alg,
                equivalence_holds=der.holds == (flex.holds and lie.holds),
                derivation=der,
                flexible=flex,
                lie_admissible=lie,
            )
        )
    return out
