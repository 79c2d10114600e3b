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

Momentum is realized as P_mu = momentum_sign * i * d_mu with
momentum_sign = -1 by default; the sign is a flag because the bracket
relations under verification pull in opposite directions (the Lorentz
brackets close for +i d_mu while the supercharge bracket has coefficient
+2 for -i d_mu), and the verification report records both outcomes.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

from .corpus import MINKOWSKI
from .scalar import GaussianRational, I, ONE, ZERO, common_scale, gaussian_integers
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
    for a in range(2):
        if th >> a & 1:
            seq.append((TH, a))
    for a in range(2):
        if tb >> a & 1:
            seq.append((TB, a))
    for mu in range(4):
        seq.extend(((DX, mu),) * dxexp[mu])
    for a in range(2):
        if dth >> a & 1:
            seq.append((DTH, a))
    for a in range(2):
        if dtb >> a & 1:
            seq.append((DTB, a))
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
                both_odd = g1[0] in _ODD and g2[0] in _ODD
                swapped = s[:pos] + [g2, g1] + s[pos + 2:]
                if (g1[0], g2[0]) in _CONTRACTIONS and g1[1] == g2[1]:
                    contracted = s[:pos] + s[pos + 2:]
                    sign = -1 if both_odd else 1
                    work.append((coeff * sign, swapped))
                    work.append((coeff, contracted))
                else:
                    sign = -1 if both_odd else 1
                    work.append((coeff * sign, swapped))
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


def _key_has_derivatives(key: Key) -> bool:
    return any(key[3]) or key[4] or key[5]


_CLASS_NAMES = {X: "x", DX: "dx", TH: "th", DTH: "dth", TB: "tb", DTB: "dtb"}


def _key_str(key: Key) -> str:
    seq = _key_to_seq(key)
    if not seq:
        return "1"
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

    def monomial_count(self) -> int:
        return len(self._num)

    def parity(self) -> int | None:
        """0 for even, 1 for odd, None for mixed or zero."""
        if not self._num:
            return None
        parities = {_key_parity(k) for k in self._num}
        return parities.pop() if len(parities) == 1 else None

    # -- actions -----------------------------------------------------------

    def apply_to(self, state: "SuperOp") -> "SuperOp":
        """Act on a superspace function (an operator with no derivatives)."""
        if any(_key_has_derivatives(k) for k in state._num):
            raise ValueError("state must be free of derivative factors")
        product = compose(self, state)
        return _op(product._den,
                   {k: v for k, v in product._num.items() if not _key_has_derivatives(k)})

    def substitute_momentum(self, p) -> "SuperOp":
        """Plane-wave backend: replace each d_mu by i*p_mu (x-free operators only)."""
        p = tuple(GaussianRational.of(v) for v in p)
        if len(p) != 4:
            raise ValueError("need four momentum components")
        terms: dict[Key, GaussianRational] = {}
        for key, coeff in self.terms():
            xexp, th, tb, dxexp, dth, dtb = key
            if any(xexp):
                raise ValueError("substitution is only valid for x-free operators")
            factor = ONE
            for mu in range(4):
                for _ in range(dxexp[mu]):
                    factor = factor * (I * p[mu])
            new_key = (xexp, th, tb, (0, 0, 0, 0), dth, dtb)
            terms[new_key] = terms.get(new_key, ZERO) + coeff * factor
        return SuperOp(terms)

    def __str__(self):
        if not self._num:
            return "0"
        parts = []
        for key, coeff in self.terms():
            mono = _key_str(key)
            if coeff == ONE and mono != "1":
                parts.append(mono)
            elif coeff == -ONE and mono != "1":
                parts.append(f"-{mono}")
            else:
                c = str(coeff)
                if coeff.re != 0 and coeff.im != 0:
                    c = f"({c})"
                parts.append(c if mono == "1" else f"{c} {mono}")
        out = parts[0]
        for part in parts[1:]:
            out += f" - {part[1:]}" if part.startswith("-") else f" + {part}"
        return out

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


def _signed_sum(terms) -> SuperOp:
    """The sum of s * op over (int s, op) pairs."""
    out = SuperOp.zero()
    for s, op in terms:
        out = out._combine(op, s)
    return out


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


@dataclass(frozen=True)
class GeneratorSet:
    """Translation, Lorentz, and supersymmetry generators in one convention."""

    convention: SigmaConvention
    momentum_sign: int
    P_lower: tuple[SuperOp, ...]       # P_mu
    M_upper: tuple[tuple[SuperOp, ...], ...]  # M^{mu nu}
    Q: tuple[SuperOp, ...]             # Q_a
    Q_bar_lower: tuple[SuperOp, ...]   # Qbar_adot

    def P_upper(self, mu: int) -> SuperOp:
        return self.P_lower[mu].scaled(MINKOWSKI[mu])

    def Q_bar_upper(self, adot: int) -> SuperOp:
        # Qbar^adot = eps^{adot bdot} Qbar_bdot
        out = SuperOp.zero()
        for bd in range(2):
            c = EPS_RAISE[adot][bd]
            if not c.is_zero():
                out = out + self.Q_bar_lower[bd].scaled(c)
        return out


def build_generators(convention: SigmaConvention = SigmaConvention.STANDARD,
                     momentum_sign: int = DEFAULT_MOMENTUM_SIGN) -> GeneratorSet:
    """Build P, M, Q, Qbar as superspace differential operators.

    P_mu = momentum_sign * i * d_mu.  M^{mu nu} = x^mu P^nu - x^nu P^mu.
    Q_a = -i d/dth^a - sigma^mu_{a bdot} tb^bdot d_mu and
    Qbar_adot = i d/dtb^adot + th^b sigma^mu_{b adot} d_mu, with sigma in
    the requested normalization.
    """
    if momentum_sign not in (1, -1):
        raise ValueError("momentum_sign must be +1 or -1")
    sgn = GaussianRational.of(momentum_sign)
    P_lower = tuple(SuperOp.dx(mu).scaled(sgn * I) for mu in range(4))

    def P_up(mu):
        return P_lower[mu].scaled(MINKOWSKI[mu])

    M = []
    for mu in range(4):
        row = []
        for nu in range(4):
            row.append(compose(SuperOp.x(mu), P_up(nu)) - compose(SuperOp.x(nu), P_up(mu)))
        M.append(tuple(row))

    sigma = sigma_upper(convention)
    Q = []
    for a in range(2):
        op = SuperOp.dtheta(a + 1).scaled(-I)
        for mu in range(4):
            for bd in range(2):
                c = sigma[mu][a][bd]
                if not c.is_zero():
                    op = op - compose(SuperOp.theta_bar(bd + 1), SuperOp.dx(mu)).scaled(c)
        Q.append(op)

    Q_bar = []
    for ad in range(2):
        op = SuperOp.dtheta_bar(ad + 1).scaled(I)
        for mu in range(4):
            for b in range(2):
                c = sigma[mu][b][ad]
                if not c.is_zero():
                    op = op + compose(SuperOp.theta(b + 1), SuperOp.dx(mu)).scaled(c)
        Q_bar.append(op)

    return GeneratorSet(convention, momentum_sign, P_lower, tuple(M), tuple(Q), tuple(Q_bar))


# --------------------------------------------------------------------------
# Verifications
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class PoincareReport:
    momentum_sign: int
    translations_commute: bool                 # [P^mu, P^nu] = 0
    boost_translation_holds: bool              # [M^{mu nu}, P^lam] = i(eta^{nu lam} P^mu - eta^{mu lam} P^nu)
    lorentz_closure_holds: bool                # [M, M] relation, all index combinations
    failures: tuple[str, ...]

    @property
    def all_hold(self) -> bool:
        return (self.translations_commute and self.boost_translation_holds
                and self.lorentz_closure_holds)


def verify_poincare(gens: GeneratorSet) -> PoincareReport:
    """Decide Eq. 1-10a to 1-30a on all 336 index tuples of `gens`.

    Every tuple keeps its own exact verdict lhs == rhs, with the failures
    listed in tuple order, but the left sides are read off at most 45
    distinct commutators: 6 [P,P], 24 [M,P] and 15 [M,M] for built
    generators.  Each `M^{mu nu}` is first written as sign * canonical
    generator, and only where that equality is checked exactly here:
    `M^{nu mu} = -M^{mu nu}` makes `M^{nu mu}` the negative of `M^{mu nu}`
    (mu < nu), and `M^{mu mu} = 0` makes it zero.  A pair that fails its
    check stays a generator of its own.  Then [A, A] = 0, [A, B] = -[B, A]
    and bilinearity are identities of the exact operator product, so each
    tuple's commutator is exactly +-1 or 0 times one memo entry, which is
    computed the first time a tuple needs it.  The right sides are signed
    sums of the i P^mu and i M^{mu nu} computed once.
    """
    M = gens.M_upper
    P = [gens.P_upper(mu) for mu in range(4)]
    eta = MINKOWSKI
    iP = [p.scaled(I) for p in P]
    iM = [[m.scaled(I) for m in row] for row in M]

    # canon[mu][nu] = (sign, key) with M^{mu nu} = sign * ops[key]
    canon = [[(1, (1, mu, nu)) for nu in range(4)] for mu in range(4)]
    for mu in range(4):
        if M[mu][mu].is_zero():
            canon[mu][mu] = (0, None)
        for nu in range(mu + 1, 4):
            if M[nu][mu] == -M[mu][nu]:
                canon[nu][mu] = (-1, (1, mu, nu))
    ops = {(0, lam): P[lam] for lam in range(4)}
    ops.update(((1, mu, nu), M[mu][nu]) for mu in range(4) for nu in range(4))
    memo: dict[tuple, SuperOp] = {}

    def holds(a, b, rhs_terms) -> bool:
        """[A, B] == sum(c * op for c, op in rhs_terms), for canonical A and B."""
        (sa, ka), (sb, kb) = a, b
        sign = sa * sb
        if not sign or ka == kb:
            return _signed_sum(rhs_terms).is_zero()
        if ka > kb:
            ka, kb, sign = kb, ka, -sign
        lhs = memo.get((ka, kb))
        if lhs is None:
            lhs = memo[ka, kb] = op_commutator(ops[ka], ops[kb])
        # sign * lhs == rhs  <=>  lhs == sign * rhs, as sign is +-1
        return lhs == _signed_sum([(sign * c, op) for c, op in rhs_terms])

    failures = []
    P_canon = [(1, (0, lam)) for lam in range(4)]

    pp_ok = True
    for mu, nu in itertools.product(range(4), repeat=2):
        if not holds(P_canon[mu], P_canon[nu], ()):
            pp_ok = False
            failures.append(f"[P^{mu},P^{nu}] != 0")

    mp_ok = True
    for mu, nu, lam in itertools.product(range(4), repeat=3):
        rhs = []
        if nu == lam:
            rhs.append((eta[nu], iP[mu]))
        if mu == lam:
            rhs.append((-eta[mu], iP[nu]))
        if not holds(canon[mu][nu], P_canon[lam], rhs):
            mp_ok = False
            failures.append(f"[M^{{{mu}{nu}}},P^{lam}]")

    mm_ok = True
    for mu, nu, rho, sig in itertools.product(range(4), repeat=4):
        rhs = []
        if nu == rho:
            rhs.append((eta[nu], iM[mu][sig]))
        if mu == sig:
            rhs.append((eta[mu], iM[nu][rho]))
        if mu == rho:
            rhs.append((-eta[mu], iM[nu][sig]))
        if nu == sig:
            rhs.append((-eta[nu], iM[mu][rho]))
        if not holds(canon[mu][nu], canon[rho][sig], rhs):
            mm_ok = False
            failures.append(f"[M^{{{mu}{nu}}},M^{{{rho}{sig}}}]")

    return PoincareReport(gens.momentum_sign, pp_ok, mp_ok, mm_ok, tuple(failures))


@dataclass(frozen=True)
class SusyReport:
    convention: SigmaConvention
    momentum_sign: int
    qq_vanish: bool                      # {Q_a, Q_b} = 0, all pairs
    qbar_qbar_vanish: bool               # {Qbar, Qbar} = 0, all pairs
    c1: GaussianRational | None          # {Q_a, Qbar_bd} = c1 sigma^mu_{a bd} P_mu
    c2: GaussianRational | None          # sigma_mu^{a ad} {Q_a, Qbar_ad} = c2 P_mu
    inversion_quarter_holds: bool        # P_mu = (1/4) sigma_mu^{a ad} {Q_a, Qbar_ad}
    spatial_inversion_quarter_holds: bool
    p_q_brackets_vanish: bool            # [P^mu, Q_a] = 0 and [P^mu, Qbar^ad] = 0
    m_q_samples: tuple[tuple[str, str], ...]  # rendered [M, Q] / [M, Qbar] brackets


def _scale(pairs) -> GaussianRational | None:
    """The c with lhs = c*rhs for every (lhs, rhs) pair of operators, or None:
    `common_scale` of the numerators, each over the other side's denominator."""
    u, v = [], []
    for lhs, rhs in pairs:
        for key in {**lhs._num, **rhs._num}:
            (a, b), (c, d) = lhs._num.get(key, _ZERO_PAIR), rhs._num.get(key, _ZERO_PAIR)
            u.append((a * rhs._den, b * rhs._den))
            v.append((c * lhs._den, d * lhs._den))
    return common_scale(u, v)


def verify_susy(gens: GeneratorSet) -> SusyReport:
    sigma = sigma_upper(gens.convention)
    sigma_raised = sigma_lower_raised(gens.convention)

    qq = all(
        op_anticommutator(gens.Q[a], gens.Q[b]).is_zero()
        for a in range(2) for b in range(2)
    )
    qbqb = all(
        op_anticommutator(gens.Q_bar_lower[a], gens.Q_bar_lower[b]).is_zero()
        for a in range(2) for b in range(2)
    )

    # {Q_a, Qbar_ad}, computed once for the c1, c2 and spatial-inversion checks
    brackets = {(a, ad): op_anticommutator(gens.Q[a], gens.Q_bar_lower[ad])
                for a, ad in itertools.product(range(2), repeat=2)}

    # c1 from {Q_a, Qbar_bd} = c1 * sigma^mu_{a bd} P_mu, uniform over (a, bd).
    sides = []
    for (a, bd), lhs in brackets.items():
        terms = [P.scaled(sigma[mu][a][bd])
                 for mu, P in enumerate(gens.P_lower) if sigma[mu][a][bd]]
        sides.append((lhs, sum(terms, SuperOp.zero())))
    c1 = _scale(sides)

    # traces[mu] = sigma_mu^{a ad} {Q_a, Qbar_ad}
    traces = []
    for mu in range(4):
        lhs = SuperOp.zero()
        for (a, ad), bracket in brackets.items():
            coeff = sigma_raised[mu][a][ad]
            if not coeff.is_zero():
                lhs = lhs + bracket.scaled(coeff)
        traces.append(lhs)

    # c2 from sigma_mu^{a ad} {Q_a, Qbar_ad} = c2 * P_mu, uniform over mu.
    c2 = _scale(zip(traces, gens.P_lower))

    quarter = GaussianRational(Fraction(1, 4))
    inversion = c2 is not None and (quarter * c2) == ONE
    spatial_ok = all(traces[mu].scaled(quarter) == gens.P_lower[mu] for mu in (1, 2, 3))

    pq = all(
        op_commutator(gens.P_upper(mu), gens.Q[a]).is_zero()
        and op_commutator(gens.P_upper(mu), gens.Q_bar_upper(a)).is_zero()
        for mu in range(4) for a in range(2)
    )

    samples = []
    for (mu, nu) in ((0, 1), (1, 2)):
        samples.append(
            (f"[M^{{{mu}{nu}}}, Q_1]", str(op_commutator(gens.M_upper[mu][nu], gens.Q[0])))
        )
        samples.append(
            (f"[M^{{{mu}{nu}}}, Qbar_1]",
             str(op_commutator(gens.M_upper[mu][nu], gens.Q_bar_lower[0])))
        )

    return SusyReport(
        convention=gens.convention,
        momentum_sign=gens.momentum_sign,
        qq_vanish=qq,
        qbar_qbar_vanish=qbqb,
        c1=c1,
        c2=c2,
        inversion_quarter_holds=inversion,
        spatial_inversion_quarter_holds=spatial_ok,
        p_q_brackets_vanish=pq,
        m_q_samples=tuple(samples),
    )


def grassmann_relations_hold() -> bool:
    """{th, th} = {tb, tb} = {th, tb} = 0 for every index pair."""
    gens = [SuperOp.theta(1), SuperOp.theta(2), SuperOp.theta_bar(1), SuperOp.theta_bar(2)]
    return all(
        op_anticommutator(a, b).is_zero()
        for a, b in itertools.product(gens, repeat=2)
    )
