"""Graded normal-ordered operator algebra on superspace.

Operators are polynomials in the generators

    x^mu, d/dx^mu (mu = 0..3),
    th^a, d/dth^a, tb^adot, d/dtb^adot (a, adot = 1..2),

with exact Gaussian-rational coefficients.  th/tb are Grassmann odd.  The
only nontrivial rewriting rules are

    [d_mu, x^nu] = delta,  {d/dth^a, th^b} = delta,  {d/dtb^ad, tb^bd} = delta;

all other generator pairs commute or anticommute by parity.  A monomial is
kept in normal order: coordinates left of derivatives, odd generators
sorted by family and index with sign bookkeeping, no odd generator
repeated.  Composition re-normal-orders via these rules, so the operator
algebra is associative by construction and associativity doubles as a
self-check of the rewriting engine.

A SuperOp is one positive denominator over Gaussian-integer numerators,
an (re, im) pair of Python ints per monomial key, reduced to gcd 1.
Products, sums and scalings are integer arithmetic; GaussianRational
appears only where coefficients go in or come out.  The normal-ordered
product of two monomials depends only on their keys, so `_key_product`
computes it once per key pair and caches it.

The generators and the ledger (`verify_poincare`, `verify_susy`) do not
compose.  Each generator is first order with affine coefficients, an affine
supervector field on R^{4|4}; these form the Lie superalgebra gl(4|4)
semidirect R^{4|4} (V. G. Kac, Adv. Math. 26, 1977; superspace operators
as in J. Wess and J. Bagger, *Supersymmetry and Supergravity*, 1992,
ch. 4).  One is held as a 9x9 Gaussian-integer matrix A over a
denominator: rows 1, x0..x3, th1, th2, tb1, tb2, columns d_0..d_7 (the
derivatives along those coordinates) and then the zeroth-order part.
With D = A[:, :8] and R = A[1:, :] the graded bracket is

    [A1, A2] = D1 @ R2 - s * D2 @ R1,    s = (-1)^{|A1||A2|},

as the second-order parts of A1 A2 and s A2 A1 cancel.  Stacks are int64
when 64 * M**2 fits, M the largest numerator part or denominator: a
bracket entry sums 32 products of two parts, the right sides the ledger
subtracts add at most 4 * M**2, and a sigma trace of brackets adds two
bracket entries times units (see `spinor`).  Otherwise they hold Python
ints (dtype object), the rule of `AlgebraDef.tensor`.  `build_generators`
fills an even and an odd stack from sigma's (den, S), the layout of
`spinor`, and the ledger slices them.  Eq. 4-30 is decided on Grassmann
bit masks, since the affine bracket assumes it.

The brackets are quadratic, so a stack A and its negation -A have the
same ones.  The two momentum signs give even stacks that are negations of
each other, and `verify_poincare` keeps the brackets of the last int64
even stack it decided, keyed by its bytes with the sign that makes the
first nonzero entry positive: the second sign's run brackets nothing.

Momentum is realized as P_mu = momentum_sign * i * d_mu with
momentum_sign = -1 by default, written into the even stack and held
nowhere else; the sign is a flag of `build_generators` because the bracket
relations under verification pull in opposite directions (the Lorentz
brackets close for +i d_mu while the supercharge bracket has coefficient
+2 for -i d_mu), and the verification report records both outcomes.
"""

from __future__ import annotations

import functools
import itertools
import math
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from .corpus import MINKOWSKI
from .scalar import GaussianRational, ONE, common_scale, gauss, gaussian_integers, sum_text, times_i
from .spinor import EPS_RAISE, SigmaConvention, sigma_lower_raised, sigma_upper

# Generator classes in canonical order: coordinates first, then derivatives.
X, TH, TB, DX, DTH, DTB = range(6)
_ODD = (TH, TB, DTH, DTB)
_CONTRACTIONS = {(DX, X), (DTH, TH), (DTB, TB)}

Key = tuple  # (xexp 4-tuple, th mask, tb mask, dxexp 4-tuple, dth mask, dtb mask)

IDENTITY_KEY: Key = ((0, 0, 0, 0), 0, 0, (0, 0, 0, 0), 0, 0)


@functools.lru_cache(maxsize=None)
def _key_to_seq(key: Key) -> tuple:
    """The generator sequence of a monomial; a report needs a few dozen keys."""
    xexp, th, tb, dxexp, dth, dtb = key
    seq = []
    for mu in range(4):
        seq.extend(((X, mu),) * xexp[mu])
    for cls, mask in ((TH, th), (TB, tb)):
        seq.extend((cls, a) for a in range(2) if mask >> a & 1)
    for mu in range(4):
        seq.extend(((DX, mu),) * dxexp[mu])
    for cls, mask in ((DTH, dth), (DTB, dtb)):
        seq.extend((cls, a) for a in range(2) if mask >> a & 1)
    return tuple(seq)


def _seq_to_key(seq) -> Key:
    xexp = [0, 0, 0, 0]
    dxexp = [0, 0, 0, 0]
    masks = {TH: 0, TB: 0, DTH: 0, DTB: 0}
    for cls, idx in seq:
        if cls == X:
            xexp[idx] += 1
        elif cls == DX:
            dxexp[idx] += 1
        else:
            masks[cls] |= 1 << idx
    return (tuple(xexp), masks[TH], masks[TB], tuple(dxexp), masks[DTH], masks[DTB])


def _normal_order(seq: tuple) -> tuple:
    """Normal-order a raw generator sequence; returns ((key, int coeff), ...)."""
    out: dict[Key, int] = {}
    work = [(1, list(seq))]
    while work:
        coeff, s = work.pop()
        pos = 0
        rewritten = False
        while pos < len(s) - 1:
            g1, g2 = s[pos], s[pos + 1]
            if g1 == g2 and g1[0] in _ODD:
                rewritten = True  # nilpotent: term vanishes
                coeff = 0
                break
            if g1 > g2:
                sign = -1 if g1[0] in _ODD and g2[0] in _ODD else 1
                work.append((sign * coeff, s[:pos] + [g2, g1] + s[pos + 2:]))
                if (g1[0], g2[0]) in _CONTRACTIONS and g1[1] == g2[1]:
                    work.append((coeff, s[:pos] + s[pos + 2:]))     # contracted
                rewritten = True
                break
            pos += 1
        if rewritten:
            continue
        if coeff:
            key = _seq_to_key(s)
            out[key] = out.get(key, 0) + coeff
    return tuple((k, c) for k, c in out.items() if c)


@functools.lru_cache(maxsize=200000)
def _key_product(k1: Key, k2: Key) -> tuple:
    """The normal-ordered product of two monomials: ((key, int coeff), ...)."""
    return _normal_order(_key_to_seq(k1) + _key_to_seq(k2))


def _key_parity(key: Key) -> int:
    _, th, tb, _, dth, dtb = key
    return (th.bit_count() + tb.bit_count() + dth.bit_count() + dtb.bit_count()) & 1


_CLASS_NAMES = {X: "x", DX: "dx", TH: "th", DTH: "dth", TB: "tb", DTB: "dtb"}


def _key_str(key: Key) -> str:
    """The monomial as text, `x0^2 th1 dtb2`; empty for the identity."""
    seq = _key_to_seq(key)
    parts = []
    pos = 0
    while pos < len(seq):
        cls, idx = seq[pos]
        run = 1
        while pos + run < len(seq) and seq[pos + run] == (cls, idx):
            run += 1
        label = f"{_CLASS_NAMES[cls]}{idx if cls in (X, DX) else idx + 1}"
        parts.append(label if run == 1 else f"{label}^{run}")
        pos += run
    return " ".join(parts)


class SuperOp:
    """An exact normal-ordered superspace operator.

    `_num` maps each monomial key to the nonzero (re, im) int numerator of
    its coefficient over the positive denominator `_den`.  The gcd of `_den`
    and all numerator parts is 1 and zero is `(1, {})`, so equal operators
    have equal fields.
    """

    __slots__ = ("_den", "_num")

    def __init__(self, terms: dict[Key, GaussianRational] | None = None):
        terms = terms or {}
        den, pairs = gaussian_integers([GaussianRational.of(v) for v in terms.values()])
        self._den, self._num = _reduce(den, dict(zip(terms, pairs)))

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls) -> "SuperOp":
        return _op(1, {})

    @classmethod
    def one(cls) -> "SuperOp":
        return cls({IDENTITY_KEY: ONE})

    @classmethod
    def _single(cls, cls_id, idx) -> "SuperOp":
        return cls({_seq_to_key([(cls_id, idx)]): ONE})

    @classmethod
    def x(cls, mu: int) -> "SuperOp":
        return cls._single(X, mu)

    @classmethod
    def dx(cls, mu: int) -> "SuperOp":
        return cls._single(DX, mu)

    @classmethod
    def theta(cls, a: int) -> "SuperOp":
        """th^a for a in 1..2."""
        return cls._single(TH, a - 1)

    @classmethod
    def theta_bar(cls, adot: int) -> "SuperOp":
        return cls._single(TB, adot - 1)

    @classmethod
    def dtheta(cls, a: int) -> "SuperOp":
        return cls._single(DTH, a - 1)

    @classmethod
    def dtheta_bar(cls, adot: int) -> "SuperOp":
        return cls._single(DTB, adot - 1)

    # -- ring structure ----------------------------------------------------

    def _combine(self, other, sign: int) -> "SuperOp":
        """self + sign*other over the lcm of the two denominators."""
        g = math.gcd(self._den, other._den)
        fa, fb = other._den // g, sign * (self._den // g)
        num = {k: (fa * re, fa * im) for k, (re, im) in self._num.items()}
        for k, (re, im) in other._num.items():
            r, i = num.get(k, _ZERO_PAIR)
            num[k] = (r + fb * re, i + fb * im)
        return _op(self._den * fa, num)

    def __add__(self, other):
        if not isinstance(other, SuperOp):
            return NotImplemented
        return self._combine(other, 1)

    def __sub__(self, other):
        if not isinstance(other, SuperOp):
            return NotImplemented
        return self._combine(other, -1)

    def __neg__(self):
        op = SuperOp.__new__(SuperOp)
        op._den, op._num = self._den, {k: (-re, -im) for k, (re, im) in self._num.items()}
        return op

    def scaled(self, s) -> "SuperOp":
        d, ((p, q),) = gaussian_integers([GaussianRational.of(s)])
        return _op(self._den * d, {k: (p * re - q * im, p * im + q * re)
                                   for k, (re, im) in self._num.items()})

    def __mul__(self, other):
        if isinstance(other, SuperOp):
            return compose(self, other)
        return self.scaled(other)

    def __rmul__(self, s):
        return self.scaled(s)

    def __eq__(self, other):
        if not isinstance(other, SuperOp):
            return NotImplemented
        return self._den == other._den and self._num == other._num

    __hash__ = None

    def is_zero(self) -> bool:
        return not self._num

    def terms(self):
        return sorted((k, self.coefficient(k)) for k in self._num)

    def coefficient(self, key: Key) -> GaussianRational:
        re, im = self._num.get(key, _ZERO_PAIR)
        return GaussianRational(Fraction(re, self._den), Fraction(im, self._den))

    def parity(self) -> int | None:
        """0 for even, 1 for odd, None for mixed or zero."""
        if not self._num:
            return None
        parities = {_key_parity(k) for k in self._num}
        return parities.pop() if len(parities) == 1 else None

    def __str__(self):
        terms = sorted(self._num.items())
        return sum_text(((re, im, _key_str(k)) for k, (re, im) in terms), self._den, " ")

    __repr__ = __str__


_ZERO_PAIR = (0, 0)


def _reduce(den: int, num: dict) -> tuple[int, dict]:
    """num/den in canonical form: zero pairs dropped, gcd 1, zero as (1, {})."""
    num = {k: v for k, v in num.items() if v != _ZERO_PAIR}
    if den != 1:
        g = math.gcd(den, *(part for pair in num.values() for part in pair))
        if g != 1:
            den //= g
            num = {k: (re // g, im // g) for k, (re, im) in num.items()}
    return den, num


def _op(den: int, num: dict) -> SuperOp:
    """The operator num/den, made canonical."""
    op = SuperOp.__new__(SuperOp)
    op._den, op._num = _reduce(den, num)
    return op


def compose(A: SuperOp, B: SuperOp) -> SuperOp:
    """Operator product, re-normal-ordered."""
    acc: dict[Key, tuple[int, int]] = {}
    for k1, (a, b) in A._num.items():
        for k2, (c, d) in B._num.items():
            re, im = a * c - b * d, a * d + b * c
            for key, n in _key_product(k1, k2):
                r, i = acc.get(key, _ZERO_PAIR)
                acc[key] = (r + n * re, i + n * im)
    return _op(A._den * B._den, acc)


def op_commutator(A: SuperOp, B: SuperOp) -> SuperOp:
    return compose(A, B) - compose(B, A)


def op_anticommutator(A: SuperOp, B: SuperOp) -> SuperOp:
    return compose(A, B) + compose(B, A)


def graded_bracket(A: SuperOp, B: SuperOp) -> SuperOp:
    """AB - (-1)^{|A||B|} BA for homogeneous operands."""
    pa, pb = A.parity(), B.parity()
    if A.is_zero() or B.is_zero():
        return SuperOp.zero()
    if pa is None or pb is None:
        raise ValueError("graded bracket needs operands of definite parity")
    if pa and pb:
        return op_anticommutator(A, B)
    return op_commutator(A, B)


# --------------------------------------------------------------------------
# Generators
# --------------------------------------------------------------------------

DEFAULT_MOMENTUM_SIGN = -1


def _rows(stack, start: int, stop: int) -> tuple[SuperOp, ...]:
    den, A = stack
    return tuple(_write(A[:, n], den) for n in range(start, stop))


class GeneratorSet:
    """Translation, Lorentz, and supersymmetry generators in one convention.

    `even` is (den, A), A of shape (2, 24, 9, 9): P_mu, P^mu, then M^{mu nu} at
    row 8 + 4 mu + nu; `odd` is (den, A), A of shape (2, 6, 9, 9): Q_a, Qbar_adot,
    Qbar^adot.  Both are read-only copies, int64 or object as `_read`'s; each
    operator field is written on first use.  No attribute can be assigned.
    """

    def __init__(self, convention: SigmaConvention, even: tuple[int, np.ndarray],
                 odd: tuple[int, np.ndarray]):
        fields = vars(self)
        fields["convention"] = convention
        for name, rows, (den, A) in (("even", 24, even), ("odd", 6, odd)):
            A = np.asarray(A)
            if not (isinstance(den, int) and den > 0 and A.shape == (2, rows, 9, 9) and (
                    A.dtype.kind in "iu" or all(isinstance(v, int) for v in A.flat))):
                raise ValueError(f"{name} is not (den, A), den > 0 and A integers of shape "
                                 f"(2, {rows}, 9, 9)")
            A = _fit(den, A)
            A.flags.writeable = False
            fields[name] = (den, A)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    @classmethod
    def from_operators(cls, convention, P_lower, P_upper, M_upper, Q,
                       Q_bar_lower, Q_bar_upper) -> "GeneratorSet":
        """The set of any affine operators of the right parity (see `_read`)."""
        return cls(convention, _read(P_lower + P_upper + sum(M_upper, ()), 0),
                   _read(Q + Q_bar_lower + Q_bar_upper, 1))

    def __reduce__(self):    # copy and pickle call the constructor, not setattr
        return GeneratorSet, (self.convention, self.even, self.odd)

    def __eq__(self, other):    # as operators, over any denominators: a slot is a monomial
        return isinstance(other, GeneratorSet) and self.convention == other.convention and all(
            np.array_equal(A1.astype(object) * d2, A2.astype(object) * d1)
            for (d1, A1), (d2, A2) in zip((self.even, self.odd), (other.even, other.odd)))

    P_lower = functools.cached_property(lambda self: _rows(self.even, 0, 4))        # P_mu
    P_upper = functools.cached_property(lambda self: _rows(self.even, 4, 8))        # P^mu
    M_upper = functools.cached_property(lambda self: tuple(                         # M^{mu nu}
        _rows(self.even, 8 + 4 * mu, 12 + 4 * mu) for mu in range(4)))
    Q = functools.cached_property(lambda self: _rows(self.odd, 0, 2))               # Q_a
    Q_bar_lower = functools.cached_property(lambda self: _rows(self.odd, 2, 4))     # Qbar_adot
    Q_bar_upper = functools.cached_property(lambda self: _rows(self.odd, 4, 6))     # Qbar^adot


def build_generators(convention: SigmaConvention = SigmaConvention.STANDARD,
                     momentum_sign: int = DEFAULT_MOMENTUM_SIGN) -> GeneratorSet:
    """Build P, M, Q, Qbar as superspace differential operators.

    P_mu = momentum_sign * i * d_mu.  M^{mu nu} = x^mu P^nu - x^nu P^mu.
    Q_a = -i d/dth^a - sigma^mu_{a bdot} tb^bdot d_mu and
    Qbar_adot = i d/dtb^adot + th^b sigma^mu_{b adot} d_mu, with sigma in
    the requested normalization, and the raised P^mu = eta^{mu mu} P_mu and
    Qbar^adot = eps^{adot bdot} Qbar_bdot.  Each is filled into the even or
    the odd stack of affine matrices that `GeneratorSet` holds.
    """
    if momentum_sign not in (1, -1):
        raise ValueError("momentum_sign must be +1 or -1")
    even = np.zeros((2, 24, 9, 9), dtype=np.int64)          # P_mu, P^mu, M^{mu nu}
    even[1, range(4), 0, range(4)] = momentum_sign          # sgn i d_mu
    even[:, 4:8] = even[:, :4] * np.array(MINKOWSKI)[:, None, None]
    xP = np.zeros((2, 4, 4, 9, 9), dtype=np.int64)          # x^mu P^nu
    for mu in range(4):
        xP[:, mu, :, 1 + mu] = even[:, 4:8, 0]
    even[:, 8:] = (xP - xP.swapaxes(1, 2)).reshape(2, 16, 9, 9)

    d, S = sigma_upper(convention)
    odd = np.zeros((2, 6, 9, 9), dtype=np.int64)            # Q_a, Qbar_ad, Qbar^ad
    odd[1, range(4), 0, range(4, 8)] = (-d, -d, d, d)       # -i dth^a, i dtb^ad
    odd[:, :2, 7:, :4] = -S.transpose(0, 2, 3, 1)           # -sigma^mu_{a bd} tb^bd d_mu
    odd[:, 2:4, 5:7, :4] = S.transpose(0, 3, 2, 1)          # th^b sigma^mu_{b ad} d_mu
    odd[:, 4:] = np.einsum("ab,rbxy->raxy", EPS_RAISE[0], odd[:, 2:4])

    return GeneratorSet(convention, (1, even), (d, odd))


# --------------------------------------------------------------------------
# Affine matrices
# --------------------------------------------------------------------------

# The coordinates z^0..z^7 of R^{4|4}; the derivative along (cls, idx) is (cls + 3, idx).
_COORDS = ((X, 0), (X, 1), (X, 2), (X, 3), (TH, 0), (TH, 1), (TB, 0), (TB, 1))
# _KEYS[r][c]: the monomial (row r)(column c) of an affine matrix
_KEYS = tuple(tuple(_seq_to_key(row + col)
                    for col in [((cls + 3, idx),) for cls, idx in _COORDS] + [()])
              for row in [()] + [(z,) for z in _COORDS])
# _AFFINE[p]: the (row, column) of each monomial of parity p that an affine matrix holds
_AFFINE = tuple({key: (r, c) for r, row in enumerate(_KEYS) for c, key in enumerate(row)
                 if _key_parity(key) == p} for p in (0, 1))


def _read(ops, parity: int) -> tuple[int, np.ndarray]:
    """(den, A): `ops` as affine matrices over their least common denominator,
    shape (2, len(ops), 9, 9), real then imaginary parts, int64 or object as
    the module docstring states.  An operator that is not first order with
    affine coefficients, or not of parity `parity`, raises ValueError; zero
    has either parity."""
    den = math.lcm(*(op._den for op in ops))
    A = np.zeros((2, len(ops), 9, 9), dtype=object)
    for n, op in enumerate(ops):
        f = den // op._den
        for key, (re, im) in op._num.items():
            if key not in _AFFINE[parity]:
                raise ValueError(f"not an {('even', 'odd')[parity]} first-order operator "
                                 f"with affine coefficients: {op}")
            r, c = _AFFINE[parity][key]
            A[0, n, r, c], A[1, n, r, c] = re * f, im * f
    return den, _fit(den, A)


def _fit(den: int, A) -> np.ndarray:
    """A copy of the integer array A, int64 when 64 * M**2 fits, M the largest
    part or `den`, and Python ints otherwise (see the module docstring)."""
    big = max(den, int(A.max(initial=0)), -int(A.min(initial=0)))
    return A.astype(np.int64 if 64 * big**2 <= np.iinfo(np.int64).max else object)


def _bracket(A, B, s: int):
    """All brackets [A_i, B_j] = A_i B_j - s B_j A_i of two stacks, shape
    (2, len(A), len(B), 9, 9), for s = (-1)^{|A_i||B_j|}; a stack bracketed
    with itself takes one product."""
    AB = gauss(np.matmul, A[:, :, None, :, :8], B[:, None, :, 1:, :])
    BA = AB if B is A else gauss(np.matmul, B[:, :, None, :, :8], A[:, None, :, 1:, :])
    return AB - BA.swapaxes(1, 2) if s == 1 else AB + BA.swapaxes(1, 2)


def _write(A, den: int) -> SuperOp:
    """The operator of one affine matrix A, shape (2, 9, 9), over den."""
    re, im = A.tolist()
    return _op(den, {key: (re[r][c], im[r][c]) for r, row in enumerate(_KEYS)
                     for c, key in enumerate(row)})


# --------------------------------------------------------------------------
# Verifications
# --------------------------------------------------------------------------

class PoincareReport(NamedTuple):
    translations_commute: bool                 # [P^mu, P^nu] = 0
    boost_translation_holds: bool              # [M^{mu nu}, P^lam] = i(eta^{nu lam} P^mu - eta^{mu lam} P^nu)
    lorentz_closure_holds: bool                # [M, M] relation, all index combinations
    failures: tuple[str, ...]


def _failures(diff, label) -> list[str]:
    """The labels of the index tuples where lhs - rhs is nonzero, in tuple order."""
    return [label(*t) for t in np.argwhere(diff.any(axis=(0, -2, -1))).tolist()]


# the sign-fixed bytes of the last int64 even stack and its Poincaré brackets
_poincare_memo: list = [None, None]


def _poincare_brackets(A):
    """[P, P], [M, P] and [M, M] of the even stack A, read-only, from the
    one-entry memo when A or -A is the stack it holds; object stacks are
    not kept."""
    key = None
    if A.dtype != object:
        flat = A.ravel()
        first = flat[np.flatnonzero(flat)[:1]]
        key = (-flat if (first < 0).any() else flat).tobytes()
        if key == _poincare_memo[0]:
            return _poincare_memo[1]
    P, M = A[:, 4:8], A[:, 8:]
    brackets = (_bracket(P, P, 1),
                _bracket(M, P, 1).reshape(2, 4, 4, 4, 9, 9),         # (mu, nu, lam)
                _bracket(M, M, 1).reshape(2, 4, 4, 4, 4, 9, 9))      # (mu, nu, rho, sig)
    for b in brackets:
        b.flags.writeable = False
    if key is not None:
        _poincare_memo[:] = key, brackets
    return brackets


def verify_poincare(gens: GeneratorSet) -> PoincareReport:
    """Decide Eq. 1-10a to 1-30a on all 336 index tuples of `gens`.

    P^mu and M^{mu nu} are rows 4 to 23 of the even stack, over its
    denominator d, and each family of brackets is one `_bracket`: [P, P] on
    16 tuples, [M, P] on 64 and [M, M] on 256, each over d**2, shared with
    the last run on the same stack or its negation (see the module
    docstring).  The right sides, i eta P^mu and i eta M^{mu nu} times d,
    are subtracted term by term, in copies, from the slots whose Kronecker
    delta they carry.  Every tuple keeps its own exact verdict, and
    failures are listed in tuple order.
    """
    d, A = gens.even
    P, M = A[:, 4:8], A[:, 8:]
    iP, iM = times_i(P) * d, (times_i(M) * d).reshape(2, 4, 4, 9, 9)
    pp, mp, mm = _poincare_brackets(A)
    mp, mm = mp.copy(), mm.copy()
    for k, eta in enumerate(MINKOWSKI):
        mp[:, :, k, k] -= eta * iP          # i eta^{nu lam} P^mu
        mp[:, k, :, k] += eta * iP          # -i eta^{mu lam} P^nu
        mm[:, :, k, k] -= eta * iM          # i eta^{nu rho} M^{mu sig}
        mm[:, k, :, :, k] -= eta * iM       # i eta^{mu sig} M^{nu rho}
        mm[:, k, :, k] += eta * iM          # -i eta^{mu rho} M^{nu sig}
        mm[:, :, k, :, k] += eta * iM       # -i eta^{nu sig} M^{mu rho}
    pp = _failures(pp, "[P^{},P^{}] != 0".format)
    mp = _failures(mp, "[M^{{{}{}}},P^{}]".format)
    mm = _failures(mm, "[M^{{{}{}}},M^{{{}{}}}]".format)
    return PoincareReport(not pp, not mp, not mm, tuple(pp + mp + mm))


class SusyReport(NamedTuple):
    qq_vanish: bool                      # {Q_a, Q_b} = 0, all pairs
    qbar_qbar_vanish: bool               # {Qbar, Qbar} = 0, all pairs
    c1: GaussianRational | None          # {Q_a, Qbar_bd} = c1 sigma^mu_{a bd} P_mu
    c2: GaussianRational | None          # sigma_mu^{a ad} {Q_a, Qbar_ad} = c2 P_mu
    inversion_quarter_holds: bool        # P_mu = (1/4) sigma_mu^{a ad} {Q_a, Qbar_ad}
    spatial_inversion_quarter_holds: bool
    p_q_brackets_vanish: bool            # [P^mu, Q_a] = 0 and [P^mu, Qbar^ad] = 0
    m_q_samples: tuple[tuple[str, str], ...]  # [M^{01}, Q_1] and [M^{01}, Qbar_1], rendered


def verify_susy(gens: GeneratorSet) -> SusyReport:
    """Decide Eq. 1-50, 1-60, 1-90 and 3-10 and the [P, Q] brackets of `gens`.

    P_mu, P^mu and M^{01} are rows 0-7 and 9 of the even stack, over e, and
    the supercharges Q_a, Qbar_ad and Qbar^ad the odd stack, over o; the sigma
    tables enter as Gaussian integers over their own denominators.
    """
    (e, even), (o, odd) = gens.even, gens.odd
    P, P_up, M01 = even[:, :4], even[:, 4:8], even[:, 9:10]
    Q, Qb, Qb_up = odd[:, :2], odd[:, 2:4], odd[:, 4:]

    qq = not _bracket(Q, Q, -1).any()
    qbqb = not _bracket(Qb, Qb, -1).any()
    pq = not (_bracket(P_up, Q, 1).any() or _bracket(P_up, Qb_up, 1).any())

    # {Q_a, Qbar_ad} over o**2, computed once for the c1, c2 and spatial-inversion checks
    brackets = _bracket(Q, Qb, -1)
    # c1 from {Q_a, Qbar_bd} = c1 * sigma^mu_{a bd} P_mu, uniform over (a, bd);
    # the sigma side is over s * e, so the scale of the numerators is c1 o**2 / (s e).
    s, S = sigma_upper(gens.convention)
    c1 = common_scale(brackets, gauss(functools.partial(np.einsum, "mab,mxy->abxy"), S, P))
    c1 = None if c1 is None else c1 * Fraction(s * e, o * o)
    # traces[mu] = sigma_mu^{a ad} {Q_a, Qbar_ad}, over r * o**2
    r, R = sigma_lower_raised(gens.convention)
    traces = gauss(functools.partial(np.einsum, "mab,abxy->mxy"), R, brackets)
    # c2 from sigma_mu^{a ad} {Q_a, Qbar_ad} = c2 * P_mu, uniform over mu.
    c2 = common_scale(traces, P)
    c2 = None if c2 is None else c2 * Fraction(e, r * o * o)

    quarter = GaussianRational(Fraction(1, 4))
    inversion = c2 is not None and (quarter * c2) == ONE
    # in Python ints, since the cross denominators need not fit in int64
    spatial = traces[:, 1:].astype(object) * e, P[:, 1:].astype(object) * (4 * r * o * o)
    spatial_ok = np.array_equal(*spatial)

    # [M^{01}, Q_1] and [M^{01}, Qbar_1], the samples the ledger prints, over e * o
    mq = _bracket(M01, odd[:, [0, 2]], 1)
    samples = tuple((f"[M^{{01}}, {name}_1]", str(_write(mq[:, 0, k], e * o)))
                    for k, name in enumerate(("Q", "Qbar")))

    return SusyReport(
        qq_vanish=qq,
        qbar_qbar_vanish=qbqb,
        c1=c1,
        c2=c2,
        inversion_quarter_holds=inversion,
        spatial_inversion_quarter_holds=spatial_ok,
        p_q_brackets_vanish=pq,
        m_q_samples=samples,
    )


def _merge_sign(m1: int, m2: int) -> int:
    """The sign of the Grassmann monomial m1 m2 put in order, masks over th1,
    th2, tb1, tb2 (low to high bits); 0 when the two share a generator."""
    crossings = sum((m1 >> j + 1).bit_count() for j in range(4) if m2 >> j & 1)
    return 0 if m1 & m2 else (-1) ** crossings


def grassmann_relations_hold() -> bool:
    """{th, th} = {tb, tb} = {th, tb} = 0 for every index pair: th_a th_b and
    th_b th_a have opposite signs or vanish."""
    return all(_merge_sign(1 << a, 1 << b) == -_merge_sign(1 << b, 1 << a)
               for a, b in itertools.product(range(4), repeat=2))
