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
in each position, A[i,j,k], A[j,i,k] and A[j,k,i].  Slabs are taken in
order of i and the nonzero entries of a slab in (j, k, law) order, and the
scan stops at the first failing slab: the witness is the lexicographically
first failing (i, j, k, law), the same triple a loop over basis elements
finds, and its defect is the slab entry divided by the denominator squared.
All laws read the slabs from one kernel per algebra, which keeps the
slices of the slab it computed last: the laws of one `check` usually fail
at the same slab, and each slice of it is contracted once for all of them.
Only one slab is kept, so memory stays O(dim^3).

T is int64 when 48*K**2*M**3 < 2**63, where M is its largest entry and K
the length of its last axis, so that no sum a law forms can overflow: an
associator entry sums 2*K products of two entries and a law adds at most
six associators, and the four-argument forms below add at most 48 terms
of K**2 products of three entries.  Otherwise T holds Python ints (dtype
object), as for exported search candidates, whose common denominator is
about 2**68.  A table without imaginary parts carries none, which keeps K
at dim + 1.  The search for an internal unit solves its linear system from
slices of T by fraction-free elimination over the Gaussian integers, which
reduces a row below the pivots only when a scan reaches it: when no unit
exists, the scan stops at the first row that rules one out.

Power associativity and the Jordan law are decided on the same tensor.
Over a field of characteristic zero an algebra is power-associative if
and only if x^2 x = x x^2 and x^2 x^2 = (x^2 x) x for every x (A. A.
Albert, Summa Brasil. Math. 2, 1948; R. D. Schafer, An Introduction to
Nonassociative Algebras, 1966, Ch. V).  An identity g(x) = 0 homogeneous
of degree n holds for every x exactly when its full linearization

    F(x1, ..., xn) = sum over subsets S of {1..n} of (-1)^(n-|S|) g(sum of x_s, s in S)

vanishes on basis n-tuples: F is multilinear, symmetric, and F(x, ..., x)
is n! g(x).  On the basis:

    degree 3   A(x,x,x): the sum of A over the six orders of (i,j,k)
    degree 4   (x1 x2)(x3 x4) - ((x1 x2) x3) x4 over the 24 orders of (i,j,k,l)
    Jordan     commutativity on basis pairs, then (x1 y)(x2 x3) - x1 (y (x2 x3))
               over the six orders of (x1, x2, x3) = (e_i, e_j, e_k), y = e_l

the last being (xy)(xx) - x(y(xx)) linearized in x.  The unit never has
to be an argument.  An associator with a unit argument is zero; at
x + t 1, x^2 x^2 - (x^2 x) x changes by 2t (x x^2 - x^2 x), so degree 4
is decided on the basis once degree 3 holds, which is why it runs only
then; and in a commutative algebra (xy)(xx) - x(y(xx)) does not change at
x + t 1 and vanishes at y = 1.  So a PASS is a proof, and any degree of 4
or more decides power associativity completely.

These forms and commutativity are computed slab by slab over the first
index as well, as the slices with e_i in each argument position, summed
over the orders of the remaining indices.  A defect is a slab entry
divided by the denominator to the number of products in each term.  A
degree-4 defect adds 48 terms (24 orders of two terms) and a Jordan
defect 12, each a sum of K**2 products of three entries of T, which the
bound on T above covers.

Every check is exact: a law either holds or a nonzero defect element is
produced as a witness.  Witnesses are deterministic: the lexicographically
first failing basis tuple, with the linearized defect F there.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

import numpy as np

from .algebra import AlgebraDef, Element, _vector_element, multiply
from .scalar import solve_gaussian_integers

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


def _turn(a, half):
    """i times tensor vectors: the halves swap, the new real half negated."""
    return np.concatenate([-a[..., half:], a[..., :half]], axis=-1)


class _LastSlab:
    """slices(i, pos) of a raw slice function `compute`, memoised for the
    slab i asked for last.

    Every law that reads slab i gets the same read-only arrays, so each
    slice of the slab is contracted once.  Asking for another slab drops
    the stored one, so memory stays that of one slab.
    """

    def __init__(self, compute):
        self.compute, self.i, self.slab = compute, None, {}

    def __call__(self, i, pos):
        if i != self.i:
            self.i, self.slab = i, {}
        if pos not in self.slab:
            s = self.compute(i, pos)
            s.flags.writeable = False
            self.slab[pos] = s
        return self.slab[pos]


def _slab_kernel(alg):
    """The associator kernel of `alg`: one per algebra, built on first use.

    Returns slices(i, pos) for tensor index i >= 1: the array S[j, k],
    over basis elements j and k, of A[i, j, k] (pos 0), A[j, i, k] (pos 1)
    or A[j, k, i] (pos 2), where A[a, b, c] is the associator of the
    elements at tensor indices a, b, c times `_den**2`, as a tensor vector.
    The kernel is kept on `alg` and remembers the slices of the slab it
    computed last (`_LastSlab`), so the laws of one `check` that fail or
    read the same slab share its contractions.
    """
    kernel = vars(alg).get("_slabs")
    if kernel is None:
        kernel = alg._slabs = _LastSlab(_associator_slices(alg))
    return kernel


def _associator_slices(alg):
    """The raw slice function of `_slab_kernel`, one contraction per call."""
    t = alg.tensor
    n, width = alg.dim, t.shape[2]
    # times_right[m, k] is u_m e_k and times_left[j, m] is e_j u_m, where
    # u_m is the unit vector of component m.  In a Gaussian table the
    # components from `half` on are imaginary parts: u_(half+m) is i u_m.
    if width > n + 1:
        turned = _turn(t, n + 1)
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


def _form_kernel(form, arity):
    """Kernel of a multilinear `form`(mul, *args) of `arity` arguments:
    slices(i, pos) is the form on basis tuples with e_i in argument pos, as
    an array over the other arguments of tensor vectors times `_den` to
    the power arity - 1, memoised for the last slab like `_slab_kernel`.
    mul(u, v) multiplies two arrays of tensor vectors pairwise, the
    indices of u first."""
    def kernel(alg):
        t = alg.tensor
        n, width = alg.dim, t.shape[2]
        if width > n + 1:    # all components, imaginary ones too: t[m, p] = u_m u_p
            for axis in (0, 1):
                t = np.concatenate([t, _turn(t, n + 1)], axis=axis)
        table = t.reshape(width, width * width)
        basis = np.eye(width, dtype=t.dtype)[1:n + 1]

        def mul(u, v):
            by_u = (u.reshape(-1, width) @ table).reshape(-1, width, width)
            return (v.reshape(-1, width) @ by_u).reshape(u.shape[:-1] + v.shape[:-1] + (width,))

        def slices(i, pos):
            args = [basis] * arity
            args[pos] = basis[i - 1:i]
            return form(mul, *args).reshape((n,) * (arity - 1) + (width,))

        return _LastSlab(slices)

    return kernel


def _first_failure(alg, laws, kernel=_slab_kernel):
    """The lexicographically first failing (i, j, ..., law), or None.

    `laws` is [(tag, defect(s))], where defect maps s(pos), the slices of
    slab i from `kernel`, to the law's defects at (i, j, ...) as an array
    over (j, ...).  The kernel memoises the last slab, so the laws share
    each slice, within this call and, for the per-algebra `_slab_kernel`,
    with the laws checked before it.  Slabs are decided in order of i and
    each is scanned in (j, ..., law) order, so the first hit is the first
    failure in (i, j, ..., law) order; no later slab is computed.
    """
    slices = kernel(alg)
    for i in range(1, alg.dim + 1):
        s = functools.partial(slices, i)
        defects = np.stack([defect(s) for _, defect in laws], axis=-2)
        hits = np.flatnonzero((defects != 0).any(axis=-1))
        if hits.size:
            *rest, law = (int(v) for v in np.unravel_index(hits[0], defects.shape[:-1]))
            w = _vector_element(alg, defects[(*rest, law)].tolist(),
                                alg._den ** len(rest))    # one factor per product
            return Witness(defect=w, indices=(i - 1, *rest), law=laws[law][0])
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


def _check_power_associative(alg, degree=4, **_):
    if degree < 3:
        raise ValueError("power associativity needs degree >= 3")
    w = _first_failure(alg, [("power associativity at degree 3",
                              lambda s: sum(s(p) + _swap(s(p)) for p in range(3)))])
    if w is None and degree >= 4:
        fourth = _form_kernel(lambda mul, a, b, c, d: (
            mul(mul(a, b), mul(c, d)) - mul(mul(mul(a, b), c), d)), 4)
        w = _first_failure(alg, [("power associativity at degree 4", lambda s: sum(
            s(p).transpose(*o, 3) for p in range(4) for o in itertools.permutations(range(3))))],
            fourth)
    detail = ("x^2 x = x x^2 on basis triples" if degree == 3 else "x^2 x = x x^2 and "
              "x^2 x^2 = (x^2 x) x on basis tuples, which decide every degree")
    return PropertyReport(alg, f"power_associative({degree})", w is None, w, detail)


def _check_jordan(alg, **_):
    # (x1 y)(x2 x3) - x1 (y (x2 x3)) at (x1, x2, x3, y), axes ordered from
    # (x1, y, x2, x3), and summed over the six orders of x1, x2, x3.
    linearized = _form_kernel(lambda mul, a, b, c, d: np.moveaxis(
        mul(mul(a, d), mul(b, c)) - mul(a, mul(d, mul(b, c))), 1, 3), 4)
    commutator = _form_kernel(lambda mul, a, b: mul(a, b) - np.swapaxes(mul(b, a), 0, 1), 2)
    w = (_first_failure(alg, [("commutativity", lambda s: s(0))], commutator)
         or _first_failure(alg, [("Jordan law (xy)(xx) = x(y(xx))", lambda s: sum(
             s(p).transpose(*o, 3) for p in range(3) for o in [(0, 1, 2), (1, 0, 2)]))], linearized))
    return PropertyReport(alg, "jordan", w is None, w, "commutativity on basis pairs, "
                          "then the linearized Jordan law on basis 4-tuples")


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


def check_property(alg: AlgebraDef, prop: str, *, degree: int = 4) -> PropertyReport:
    """Decide one named law for `alg`; see module docstring for method."""
    key = prop.replace("-", "_")
    if key.startswith("power_associative"):
        key = "power_associative"
    if key not in _CHECKS:
        raise ValueError(f"unknown property {prop!r}; expected one of {PROPERTIES}")
    return _CHECKS[key](alg, degree=degree)


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
