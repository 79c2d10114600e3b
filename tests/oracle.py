"""Exact references the tests compare the kernels against.

Each reference follows the definition it checks: in `GaussianRational`
arithmetic on coefficient tuples (`TupleElement`), Zorn tuples and
`SuperOp` terms, in products of single `Element`s, or in sympy matrices,
and not through the whole-tensor contractions, affine matrices or residue
layers the kernels use.  The Levi-Civita symbol is counted off permutation
parity here, and the Zorn cross product written out, not read from
`corpus.EPS3`.  `solve` and `act` only adapt a library call to exact
values: they clear denominators for `solve_gaussian_integers`, and drop the
derivative terms of a `compose`.  `reference_terms` reads a product
expression the way `algfile` did before its one-pattern scanner: a token
loop splits the line on signs outside parentheses, then each term is
matched against a basis-term and a scalar pattern.  `reference_search` is
the perturb-and-accept loop that evaluates every step, with none skipped.
The test modules import what they share from this one module, the table of
bundled fixtures and their reader too.
"""

import functools
import importlib.resources
import itertools
import math
import re
from fractions import Fraction

import numpy as np
import sympy

from nonassoc.algebra import AlgebraDef, associator, commutator, multiply
from nonassoc.algfile import AlgebraParseError, _parse_scalar_body, _ratio
from nonassoc.corpus import (
    complex_numbers,
    quaternions,
    so31_bracket_algebra,
    split_octonions,
    su2_bracket_algebra,
)
from nonassoc.properties import Witness
from nonassoc.search import CandidateAlgebra, SearchResult, _frozen_mask, residual
from nonassoc.scalar import GaussianRational, I, ZERO, gaussian_integers, solve_gaussian_integers
from nonassoc.spinor import EPS_RAISE, sigma_lower
from nonassoc.superspace import SuperOp, _key_to_seq, _normal_order, compose
from nonassoc.zorn import zorn_octonions


# -- bundled fixtures ------------------------------------------------------------

# each file under nonassoc/fixtures and the corpus algebra it must parse to
FIXTURES = {
    "complex.alg": complex_numbers,
    "quaternion.alg": quaternions,
    "so31.alg": so31_bracket_algebra,
    "splitO.alg": split_octonions,
    "su2.alg": su2_bracket_algebra,
    "zornO.alg": zorn_octonions,
}


def fixture_path(name) -> str:
    return str(importlib.resources.files("nonassoc").joinpath("fixtures", name))


def fixture_text(name) -> str:
    with open(fixture_path(name), encoding="utf-8") as fh:
        return fh.read()


# -- scalars and linear systems ------------------------------------------------

def levi_civita(i, j, k):
    """The Levi-Civita symbol: 0 when two indices repeat, else the parity
    (-1)**inversions of the permutation (i, j, k) of the sorted indices, so
    labels 0..2 and 1..3 read alike: eps(0, 1, 2) = eps(1, 2, 3) = 1."""
    if len({i, j, k}) < 3:
        return 0
    return (-1) ** ((i > j) + (i > k) + (j > k))


def scale_of(u, v):
    """The c with u = c * v entry by entry, for equally long sequences of
    GaussianRational, or None if there is none.  When v is zero the answer
    is 0 if u is zero too, and None otherwise."""
    p = next((j for j, b in enumerate(v) if not b.is_zero()), None)
    if p is None:
        return ZERO if all(a.is_zero() for a in u) else None
    c = u[p] / v[p]
    return c if all(a == c * b for a, b in zip(u, v)) else None


def eager_solve_gaussian_integers(aug):
    """Reference: fraction-free Gauss-Jordan that rewrites every row at every
    pivot, the solver `solve_gaussian_integers` replaced."""
    m = len(aug)
    n = len(aug[0]) - 1 if m else 0
    pivot_cols = []
    r = 0
    for col in range(n):
        pivot = next((i for i in range(r, m) if aug[i][col] != (0, 0)), None)
        if pivot is None:
            continue
        aug[r], aug[pivot] = aug[pivot], aug[r]
        prow = aug[r]
        pr, pi = prow[col]
        for i in range(m):
            fr, fi = aug[i][col]
            if i == r or not (fr or fi):
                continue
            row = [(pr * a - pi * b - fr * c + fi * d, pr * b + pi * a - fr * d - fi * c)
                   for (a, b), (c, d) in zip(aug[i], prow)]
            g = math.gcd(*(part for pair in row for part in pair))
            if g > 1:
                row = [(a // g, b // g) for a, b in row]
            aug[i] = row
        pivot_cols.append(col)
        r += 1
        if r == m:
            break
    consistent = all(aug[i][n] == (0, 0) for i in range(r, m))
    particular = [ZERO] * n
    for row_idx, col in enumerate(pivot_cols):
        particular[col] = GaussianRational(*aug[row_idx][n]) / GaussianRational(*aug[row_idx][col])
    return (particular if consistent else None), particular


def solve(rows, rhs):
    """`solve_gaussian_integers` on the system rows * x = rhs of
    GaussianRational values, each row with its right side cleared of
    denominators."""
    return solve_gaussian_integers([gaussian_integers([*row, b])[1]
                                    for row, b in zip(rows, rhs)])


# -- product expressions --------------------------------------------------------

_RAT = r"-?\d+(?:/\d+)?"
_BASIS_TERM_RE = re.compile(
    rf"^(?:\((?P<inner>[^()]*)\)|(?P<plain>{_RAT})?(?P<imag>i)?)\s*\*?\s*e(?P<idx>\d+)$"
)
_SCALAR_RE = re.compile(
    rf"^(?:\((?P<inner>[^()]*)\)|(?P<bare>(?:{_RAT})?i|{_RAT}))$"
)
_TOKEN_RE = re.compile(r"[()+-]|[^()+-]+")


def _split_terms(expr: str, line: int) -> list[tuple[int, str]]:
    """Split on top-level +/- into (sign, term) pairs."""
    terms = []
    depth = 0
    current = ""
    sign = 1
    sign_pending = False
    for tok in _TOKEN_RE.findall(expr):
        if tok == "(":
            depth += 1
            current += tok
            continue
        if tok == ")":
            depth -= 1
            if depth < 0:
                raise AlgebraParseError("unbalanced parentheses", line)
            current += tok
            continue
        if tok in ("+", "-") and depth == 0:
            if current.strip():
                terms.append((sign, current.strip()))
                current = ""
            elif sign_pending:
                raise AlgebraParseError("doubled sign", line)
            sign = 1 if tok == "+" else -1
            sign_pending = True
            continue
        current += tok
    if depth != 0:
        raise AlgebraParseError("unbalanced parentheses", line)
    if current.strip():
        terms.append((sign, current.strip()))
    elif not terms:
        raise AlgebraParseError("empty expression", line)
    else:
        raise AlgebraParseError("trailing operator", line)
    return terms


def _parse_term(sign: int, term: str, dim: int, line: int) -> tuple[int, int, int, int]:
    """(index, re, im, q): the term is (re + im i) / q times e_index, or
    times the unit for index 0."""
    m = _BASIS_TERM_RE.match(term)
    if m:
        inner, plain, imag, idx = m.groups()
        idx = int(idx)
        if not 1 <= idx <= dim:
            raise AlgebraParseError(f"basis index e{idx} out of range 1..{dim}", line)
        if inner is not None:
            re_num, im_num, den = _parse_scalar_body(inner, line)
        else:
            num, den = _ratio(plain, line) if plain else (1, 1)
            re_num, im_num = (0, num) if imag else (num, 0)
        return idx, sign * re_num, sign * im_num, den
    m = _SCALAR_RE.match(term)
    if m:
        body = m.group("inner") if m.group("inner") is not None else m.group("bare")
        re_num, im_num, den = _parse_scalar_body(body, line)
        return 0, sign * re_num, sign * im_num, den
    raise AlgebraParseError(f"unrecognized term {term!r}", line)


def reference_terms(expr, dim, unital, line):
    """What `algfile._terms` reads from a stripped product expression: its
    (index, re, im, q) terms, or the same `AlgebraParseError`."""
    terms = []
    for sign, term in _split_terms(expr, line):
        idx, re_num, im_num, den = _parse_term(sign, term, dim, line)
        if idx == 0 and not unital:
            raise AlgebraParseError("unit multiple in a non-unital algebra", line)
        terms.append((idx, re_num, im_num, den))
    return terms


# -- elements ------------------------------------------------------------------

def random_element(alg, rng, lo=-2, hi=2):
    """An element with integer coefficients from rng.randint(lo, hi), and a
    unit part when the algebra has one."""
    unit = rng.randint(lo, hi) if alg.unital else 0
    return alg.element(unit, [rng.randint(lo, hi) for _ in range(alg.dim)])


class TupleElement:
    """An element as a unit part and a tuple of basis coefficients, each a
    GaussianRational, with the arithmetic on those tuples that `Element`
    had before it held one integer vector over a denominator.  The product
    is `reference_product`."""

    def __init__(self, algebra, unit, coeffs):
        self.algebra, self.unit, self.coeffs = algebra, unit, tuple(coeffs)

    def __add__(self, other):
        return TupleElement(self.algebra, self.unit + other.unit,
                            (a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other):
        return TupleElement(self.algebra, self.unit - other.unit,
                            (a - b for a, b in zip(self.coeffs, other.coeffs)))

    def __neg__(self):
        return TupleElement(self.algebra, -self.unit, (-c for c in self.coeffs))

    def scaled(self, s):
        s = GaussianRational.of(s)
        return TupleElement(self.algebra, s * self.unit, (s * c for c in self.coeffs))

    def multiply(self, other):
        return TupleElement(self.algebra, *reference_product(self, other))

    def __eq__(self, other):
        return self.unit == other.unit and self.coeffs == other.coeffs

    def __str__(self):
        parts = []
        if not self.unit.is_zero():
            u = str(self.unit)
            parts.append(f"({u})" if self.unit.re != 0 and self.unit.im != 0 else u)
        for k, c in enumerate(self.coeffs):
            if c.is_zero():
                continue
            name = self.algebra.basis_names[k]
            if c == 1:
                parts.append(name)
            elif c == -1:
                parts.append(f"-{name}")
            else:
                text = str(c)
                if c.re != 0 and c.im != 0:
                    text = f"({text})"
                parts.append(f"{text}*{name}")
        if not parts:
            return "0"
        out = parts[0]
        for p in parts[1:]:
            out += f" - {p[1:]}" if p.startswith("-") else f" + {p}"
        return out


# -- algebra tables ------------------------------------------------------------

def reference_product(x, y):
    """(unit, coeffs) of x y, expanded bilinearly over `basis_product` in exact
    scalars, with the unit acting as the identity."""
    alg = x.algebra
    unit = x.unit * y.unit
    coeffs = [x.unit * b + y.unit * a for a, b in zip(x.coeffs, y.coeffs)]
    for (i, a), (j, b) in itertools.product(enumerate(x.coeffs), enumerate(y.coeffs)):
        p = alg.basis_product(i, j)
        p_unit, p_coeffs = p.unit, p.coeffs
        unit = unit + a * b * p_unit
        coeffs = [c + a * b * p for c, p in zip(coeffs, p_coeffs)]
    return unit, tuple(coeffs)


def gaussian_split_octonions():
    """splitO with the products e_i e_j, i + 2j divisible by 3, times i."""
    alg = split_octonions()
    products = {}
    for i, j in itertools.product(range(7), repeat=2):
        p = alg.basis_product(i, j)
        unit, coeffs = p.unit, p.coeffs
        f = I if (i + 2 * j) % 3 == 0 else 1
        products[(i, j)] = (unit * f, {k: c * f for k, c in enumerate(coeffs)})
    return AlgebraDef.from_products("gsplitO", 7, products, True, alg.basis_names)


def associator_in(mul, x, y, z):
    return mul(mul(x, y), z) - mul(x, mul(y, z))


def commutator_in(mul, x, y):
    return mul(x, y) - mul(y, x)


# Each multilinear law as defect functions of a product and three elements,
# in the order the checker reports them.
REFERENCE_LAWS = {
    "associative": [("associativity", associator_in)],
    "alternative": [
        ("left-alternative",
         lambda m, x, y, z: associator_in(m, x, y, z) + associator_in(m, y, x, z)),
        ("right-alternative",
         lambda m, x, y, z: associator_in(m, x, y, z) + associator_in(m, x, z, y)),
    ],
    "flexible": [("flexible law",
                  lambda m, x, y, z: associator_in(m, x, y, z) + associator_in(m, z, y, x))],
    "lie_admissible": [("Jacobi identity for the commutator", lambda m, x, y, z: (
        commutator_in(m, commutator_in(m, x, y), z) + commutator_in(m, commutator_in(m, z, x), y)
        + commutator_in(m, commutator_in(m, y, z), x)))],
    "derivation_property": [("bracket Leibniz rule", lambda m, x, y, z: (
        commutator_in(m, z, m(x, y))
        - (m(x, commutator_in(m, z, y)) + m(commutator_in(m, z, x), y))))],
}


_BASIS_PRODUCTS = {}


def basis_product_table(alg):
    """(basis, mul): `multiply` on `alg`, with each product of two basis
    elements computed once per algebra, across laws and triples."""
    if id(alg) not in _BASIS_PRODUCTS:
        basis = alg.basis()
        index = {id(e): k for k, e in enumerate(basis)}
        table = {}

        def mul(x, y):
            key = index.get(id(x)), index.get(id(y))
            if None in key:
                return multiply(x, y)
            if key not in table:
                table[key] = multiply(x, y)
            return table[key]

        _BASIS_PRODUCTS[id(alg)] = alg, basis, mul    # alg keeps its id unique
    return _BASIS_PRODUCTS[id(alg)][1:]


def reference_failure(alg, law):
    """(indices, tag, defect) of the first failing basis triple in lex order."""
    basis, mul = basis_product_table(alg)
    for i, j, k in itertools.product(range(alg.dim), repeat=3):
        for tag, defect in REFERENCE_LAWS[law]:
            d = defect(mul, basis[i], basis[j], basis[k])
            if not d.is_zero():
                return (i, j, k), tag, d
    return None


def cube_defect(x):
    return multiply(multiply(x, x), x) - multiply(x, multiply(x, x))


def fourth_power_defect(x):
    xx = multiply(x, x)
    return multiply(xx, xx) - multiply(multiply(xx, x), x)


def jordan_defect(x, y):
    xx = multiply(x, x)
    return multiply(multiply(x, y), xx) - multiply(x, multiply(y, xx))


def polarization(g, xs):
    """F(x1..xn) = sum over nonempty S of (-1)^(n-|S|) g(sum of x_s over S)."""
    n, total = len(xs), xs[0].algebra.zero()
    for size in range(1, n + 1):
        for subset in itertools.combinations(xs, size):
            total = total + g(sum(subset[1:], subset[0])).scaled((-1) ** (n - size))
    return total


def memoized(g):
    """g of one element, evaluated once per element."""
    values = {}

    def at(x):
        key = (x.unit, x.coeffs)
        if key not in values:
            values[key] = g(x)
        return values[key]

    return at


def linearized_failure(alg, law):
    """(indices, tag, defect) of the first failing basis tuple in lex order,
    from element arithmetic alone.  A polarization is symmetric in the
    elements it sums over, so it is computed once per multiset of them."""
    basis = alg.basis()
    if law == "jordan":
        for i, j in itertools.product(range(alg.dim), repeat=2):
            d = multiply(basis[i], basis[j]) - multiply(basis[j], basis[i])
            if not d.is_zero():
                return (i, j), "commutativity", d
        at_y = [memoized(functools.partial(jordan_defect, y=y)) for y in basis]
        stages = [(4, "Jordan law (xy)(xx) = x(y(xx))", lambda xs: (at_y[xs[3]], xs[:3]))]
    else:
        cube, fourth = memoized(cube_defect), memoized(fourth_power_defect)
        stages = [(3, "power associativity at degree 3", lambda xs: (cube, xs)),
                  (4, "power associativity at degree 4", lambda xs: (fourth, xs))]

    @functools.cache
    def polarized(g, indices):
        return polarization(g, [basis[i] for i in indices])

    for arity, tag, form in stages:
        for indices in itertools.product(range(alg.dim), repeat=arity):
            g, summed = form(indices)
            d = polarized(g, tuple(sorted(summed)))
            if not d.is_zero():
                return indices, tag, d
    return None


# -- Zorn vector matrices ------------------------------------------------------

def _dot(u, v):
    return u[0] * v[0] + u[1] * v[1] + u[2] * v[2]


def _cross(u, v):
    return (u[1] * v[2] - u[2] * v[1], u[2] * v[0] - u[0] * v[2], u[0] * v[1] - u[1] * v[0])


def reference_zorn_product(left, right):
    """The block product of two (a, x, y, b) tuples of GaussianRational, x and
    y 3-tuples, written out:
    (a, x; y, b)(c, u; v, d) = (ac + x.v, au + dx - y X v; cy + bv + x X u, bd + y.u)."""
    (a, x, y, b), (c, u, v, d) = left, right
    yv, xu = _cross(y, v), _cross(x, u)
    return (a * c + _dot(x, v),
            tuple(a * u[k] + d * x[k] - yv[k] for k in range(3)),
            tuple(c * y[k] + b * v[k] + xu[k] for k in range(3)),
            b * d + _dot(y, u))


# -- the split-octonion entries of the verification report ---------------------

def _coords(x):
    """The unit part and then the basis coefficients of an element."""
    return (x.unit,) + x.coeffs


def _eps_sum(alg, i, j, scale, target):
    """sum_k eps_ijk scale * target[k] for 0-based i, j."""
    out = alg.zero()
    for k in range(3):
        e = levi_civita(i, j, k)
        if e:
            out = out + target[k].scaled(scale * e)
    return out


def reference_verdicts(alg):
    """The octonion entries as loops of Element products."""
    q = alg.basis()
    pairs = list(itertools.product(range(3), repeat=2))
    eq_210 = all(commutator(q[i + 3], q[j + 3]) == _eps_sum(alg, i, j, -2, q)
                 for i, j in pairs)
    eq_230 = all(commutator(q[i], q[j]) == _eps_sum(alg, i, j, 2, q) for i, j in pairs)
    eq_240 = all(associator(q[i + 3], q[j + 3], q[k + 3])
                 == q[6].scaled(2 * levi_civita(i, j, k))
                 for i, j, k in itertools.product(range(3), repeat=3))

    s = [b.scaled(I * Fraction(1, 2)) for b in q[:3]]
    defects = [(i, j, commutator(s[i], s[j]) - _eps_sum(alg, i, j, 1, s)) for i, j in pairs]
    failing = [(i, j, d) for i, j, d in defects if not d.is_zero()]
    witness = None
    if failing:
        i, j, d = failing[0]
        witness = Witness(defect=d, indices=(i, j), law="bracket of i/2-scaled basis")
    kappa = scale_of(_coords(commutator(s[0], s[1])), _coords(s[2]))
    if kappa is None or not all(commutator(s[i], s[j]) == _eps_sum(alg, i, j, kappa, s)
                                for i, j in pairs):
        kappa = ZERO

    eq_260 = all(q[i].scaled(I * Fraction(1, 2)) == sum(
        (multiply(q[j + 3], q[k + 3]).scaled(I * Fraction(-1, 4) * levi_civita(i, j, k))
         for j, k in pairs), alg.zero()) for i in range(3))
    lams = [scale_of(_coords(sum(
        (commutator(q[j + 3], q[k + 3]).scaled(Fraction(-1, 4) * levi_civita(i, j, k))
         for j, k in pairs), alg.zero())), _coords(q[i])) for i in range(3)]
    lam = ZERO if lams[0] is None else lams[0]
    uniform = lams[0] is not None and lams == [lams[0]] * 3
    return dict(eq_210=eq_210, eq_230=eq_230, eq_240=eq_240, eq_250=not failing,
                witness=witness, kappa=kappa, eq_260=eq_260, lam=lam, uniform=uniform)


# -- spinor matrices -----------------------------------------------------------

def sympy_matrices(den, S):
    """The 2x2 matrices of a Gaussian-integer array S over den (real parts,
    then imaginary parts, on axis 0), as sympy matrices with sympy.I."""
    re, im = np.asarray(S).reshape(2, -1, 2, 2)
    return [sympy.Matrix([[(int(x[r, c]) + sympy.I * int(y[r, c])) / sympy.Integer(den)
                           for c in range(2)] for r in range(2)])
            for x, y in zip(re, im)]


def gaussian_pair(mats):
    """(den, S): sympy matrices over their least common denominator, in the
    layout of `spinor`; the inverse of `sympy_matrices`."""
    parts = [(sympy.re(v), sympy.im(v)) for m in mats for v in m]
    den = math.lcm(*(int(p.q) for pair in parts for p in pair))
    S = np.array([[int(p * den) for p in pair] for pair in parts], dtype=object)
    return den, S.T.reshape(2, len(mats), 2, 2)


def reference_sigma_lower_raised(conv):
    """eps^{ab} eps^{ad bd} sigma_{mu, b bd} as the full triple sum over
    sympy matrices, returned as `sigma_lower_raised` returns it."""
    (eps,) = sympy_matrices(1, EPS_RAISE)
    return gaussian_pair([
        sympy.Matrix([[sum(eps[a, b] * eps[ad, bd] * m[b, bd]
                           for b in range(2) for bd in range(2)) for ad in range(2)]
                      for a in range(2)])
        for m in sympy_matrices(*sigma_lower(conv))
    ])


# -- search candidates ---------------------------------------------------------

def permuted_candidate(cand, perm):
    """`cand` with its basis indices relabelled by `perm` (new index =
    perm[old index])."""
    c2 = np.zeros_like(cand.c)
    c2[np.ix_(perm, perm, perm)] = cand.c
    roles = {label: int(perm[idx]) for label, idx in cand.roles.items()}
    return CandidateAlgebra(cand.dim, c2, roles)


def reference_search(cfg, init, freeze=frozenset()):
    """`search` with a `residual` call on every step, and per restart the
    steps it took: (hash of the table the step evaluates, residual before the
    step, residual after it, the stepped entry (i, j, k)).  The first entry of
    each list is the starting table, with None for the residual before it and
    for the entry."""
    mask = _frozen_mask(init, freeze)
    free_entries = np.argwhere(~mask)
    streams = np.random.SeedSequence(cfg.rng_seed).spawn(cfg.restarts)
    best = best_res = None
    traces, steps = [], []
    for r in range(cfg.restarts):
        rng = np.random.default_rng(streams[r])
        cand = init.copy()
        if r > 0:
            noise = rng.normal(0.0, cfg.step_scale, size=cand.c.shape)
            noise[mask] = 0.0
            cand.c = cand.c + noise
        c = cand.c
        cur = residual(cand)
        trace, taken = [cur.total], [(hash(c.tobytes()), None, cur, None)]
        for _ in range(cfg.max_iters):
            if cur.total <= cfg.tolerance:
                break
            i, j, k = free_entries[rng.integers(len(free_entries))].tolist()
            delta = rng.normal(0.0, cfg.step_scale)
            old = c[i, j, k]
            c[i, j, k] = old + delta
            res = residual(cand)
            taken.append((hash(c.tobytes()), cur, res, (i, j, k)))
            if res.total < cur.total:
                cur = res
            else:
                c[i, j, k] = old
            trace.append(cur.total)
        traces.append(trace)
        steps.append(taken)
        if best_res is None or cur.total < best_res.total:
            best, best_res = cand, cur
    return SearchResult(best, best_res, traces, best_res.total <= cfg.tolerance), steps


# -- superspace operators ------------------------------------------------------

def reference_compose(A, B):
    """compose in GaussianRational arithmetic, term pair by term pair."""
    out = {}
    for k1, c1 in A.terms():
        for k2, c2 in B.terms():
            for key, n in _normal_order(_key_to_seq(k1) + _key_to_seq(k2)):
                out[key] = out.get(key, ZERO) + c1 * c2 * n
    return {k: v for k, v in out.items() if not v.is_zero()}


def act(op, state):
    """op acting on a superspace function `state` (an operator free of
    derivatives): compose, then drop the terms that carry derivatives, whose
    keys have d/dx exponents or d/dth, d/dtb masks in key[3:]."""
    return SuperOp({key: c for key, c in compose(op, state).terms()
                    if not (any(key[3]) or key[4] or key[5])})
