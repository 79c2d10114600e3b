"""Identity checking for structure-constant algebras.

The multilinear laws (associativity, alternativity after linearization,
flexibility, Lie admissibility, the derivation property) are decided
exhaustively on basis triples, which suffices by multilinearity over a
characteristic-zero field.  They run on `AlgebraDef.tensor`, the product
table as one exact integer array T over the common denominator, with the
unit at index 0.  Each law's defect at (e_i, e_j, e_k) is a signed sum of
associators A(a, b, c) = (e_a e_b) e_c - e_a (e_b e_c) at the six orders
of (i, j, k), one integer row of `_LAWS`:

                          ijk  jik  jki  ikj  kij  kji
    associative            1    0    0    0    0    0
    left-alternative       1    1    0    0    0    0
    right-alternative      1    0    0    1    0    0
    flexible               1    0    0    0    0    1
    Lie-admissible         1   -1    1   -1    1   -1
    power assoc. (deg 3)   1    1    1    1    1    1
    derivation property   -1    0    0    1   -1    0

A scan of all basis triples decides a row's images under the permutations
of (i, j, k) too, so rows whose images span one space decide the same
algebras: derivation and flexible plus Lie-admissible (H. C. Myung, 1982).

The associator entries are contractions of T with itself.  They are
computed one slab of first index i at a time, as the three slices with i
in each position, A[i,j,k], A[j,i,k] and A[j,k,i].  Slabs are taken in
order of i and the nonzero entries of a slab in (j, k, law) order, and the
scan stops at the first failing slab: the witness is the lexicographically
first failing (i, j, k, law), the same triple a loop over basis elements
finds, and its defect is the slab entry divided by the denominator squared.
The laws requested together (`check_properties`: all those of one
`check`, or Myung's three, derivation, flexible and Lie-admissible, in
`myung_equivalence`) are decided in one scan: each slab is computed once
for the laws not yet failed, with the slices they read, and each law
leaves the scan at its first failing slab, so an algebra on which all of
them hold has each slab contracted once, not once per law.  The slabs come
from one kernel per algebra, which keeps the three slices it computed
last, one slab's worth, for callers that check one law at a time: laws
that fail at the same slab share its contractions.  No more slices are
kept, so memory stays O(dim^3).

T is int64 when 48*K**2*M**3 < 2**63, where M is its largest entry and K
the length of its last axis, so that no sum a law forms can overflow: an
associator entry sums 2*K products of two entries and a law adds at most
six associators, and the four-argument forms below add at most 48 terms
of K**2 products of three entries.  A table without imaginary parts
carries none, which keeps K at dim + 1.

The kernels run on T in exact integer layers.  An int64 T is taken as it
is, and its sums are exact as they stand.  A larger T (dtype object:
exported search candidates, whose common denominator is about 2**68)
becomes a stack, along a leading axis that the same code broadcasts
over, of one float64 layer per prime p holding T modulo p, so no
contraction runs on Python ints.  The primes are the largest with
2*K*p**2 <= 2**52: a contraction of two layers sums K products below
p**2, and the difference of two such sums is an integer of at most
2**52, which float64 holds and BLAS computes exactly.  Each contraction
is reduced to [0, p) by x - floor(x/p)*p before it is used again.  A
kernel whose integer results are at most B in absolute value takes the
fewest primes whose product exceeds 2*B: B is 12*K*M**2 for the
associator laws, 48*K**2*M**3 for the four-argument forms and 2*M for
commutativity.  Such an integer is zero exactly when it is zero modulo
every prime, and the witness defect is rebuilt from its residues by the
Chinese remainder theorem in the symmetric range (D. E. Knuth, TAOCP
Vol. 2, 4.3.2).

An internal unit u solves u e_j = e_j = e_j u: 2*dim**2 rows, each a slice
of T, solved by lazy fraction-free elimination over the Gaussian integers
(`scalar.solve_gaussian_integers`), which makes a row only when it first
reads it.  When no unit exists the scan stops at the first row that rules
one out: an exported candidate reads dim + 1 rows of its 450.  The best
candidate's first nonzero u e_j - e_j or e_j u - e_j is the witness, each
product u contracted with one slice of T with all components (`_full`).

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

Commutativity is scanned slab by slab, as T[i, j] - T[j, i], and so are
the two four-argument forms, from the symmetrized products S_ab = e_a e_b +
e_b e_a, with u o v = uv + vu and L3(a, b, c) = S_bc e_a + S_ac e_b + S_ab e_c,
the sum of (e_a e_b) e_c over the orders of (a, b, c):

    degree 4   S_ij o S_kl + S_ik o S_jl + S_il o S_jk - sum over d of L3(the other three) e_d
    Jordan     sum over c in (i, j, k) of (e_c e_l) S_rest - e_c (e_l S_rest)

Each form is symmetric in the indices it sums over, and slab i is scanned
only once the slabs before it have passed, so it is zero wherever one of
them is below i: its kernel computes them from i on only (the Jordan y, l,
runs over the whole basis), and its first nonzero entry, the first failing
tuple in lex order, has them sorted.  L3 on every basis triple and e_l S_jk
are computed once per scan, so memory stays O(K dim^3).  A defect is F over
the denominator cubed: at degree 4 it adds 48 terms (24 orders of two
terms) and for the Jordan law 12, each a sum of K**2 products of three
entries of T, which the bound on T above covers, and in residue layers
every contraction is reduced with `_mod` before it is combined.

Each scanned law is one entry of a single table, `_LAWS`: an ordered
list of slab scans, each a kernel and the (tag, row) pairs
`_first_failure` reads from its slabs, run until one fails.  The five
multilinear laws are one scan of the associator kernel, power
associativity scans degree 3 and then, at a degree of 4 or more, degree
4, and the Jordan law scans commutativity and then its linearized form,
each reading one slice with the row (1,).  The table also names `unital`,
which keeps its own solve, so its keys are the law names, `PROPERTIES`.
`check_properties` is the one body that runs the laws' scans and builds
their reports, in rounds: each round runs the next scan of every law that
has passed the ones before it, one `_first_failure` call per kernel.  So
the five multilinear laws and degree-3 power associativity share one pass
over the associator slabs, and the degree-4 scan runs once degree 3 holds.

Every check is exact: a law either holds or a nonzero defect element is
produced as a witness.  Witnesses are deterministic: the lexicographically
first failing basis tuple, with the linearized defect F there.
"""

from __future__ import annotations

import functools
import math
from typing import NamedTuple

import numpy as np

from .algebra import AlgebraDef, Element
from .scalar import solve_gaussian_integers


class Witness(NamedTuple):
    """A concrete violation: which inputs failed and by how much."""

    defect: Element
    indices: tuple[int, ...]
    law: str = ""

    def describe(self) -> str:
        args = ", ".join(self.defect.algebra.basis_names[i] for i in self.indices)
        law = f" [{self.law}]" if self.law else ""
        return f"({args}) -> defect {self.defect}{law}"


class _Verdict(NamedTuple):
    algebra: AlgebraDef
    property: str
    holds: bool
    witness: Witness | None = None
    detail: str = ""


class PropertyReport(_Verdict):
    """One law's verdict on one algebra; a FAIL carries a nonzero witness."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if not self.holds:
            assert self.witness is not None and not self.witness.defect.is_zero()
        return self


def _turn(a, half):
    """i times tensor vectors: the halves swap, the new real half negated."""
    return np.concatenate([-a[..., half:], a[..., :half]], axis=-1)


def _full(t):
    """t, a tensor or its residue layers, with every component of its last
    axis on the first two as well: full[..., m, p, :] is u_m u_p, where u_m
    is the unit vector of component m.  In a Gaussian table the components
    from half = dim + 1 on are imaginary parts: u_(half+m) is i u_m.  A
    real table is returned as it is."""
    half = t.shape[-2]
    for axis in (-3, -2) if t.shape[-1] > half else ():
        t = np.concatenate([t, _turn(t, half)], axis=axis)
    return t


def _is_prime(m):
    """Miller-Rabin for odd m > 7: the bases 2, 3, 5 and 7 decide every
    m < 3215031751 (C. Pomerance, J. L. Selfridge and S. S. Wagstaff, Math.
    Comp. 35, 1980)."""
    d, s = m - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in (2, 3, 5, 7):
        x = pow(a, d, m)
        if x in (1, m - 1):
            continue
        for _ in range(s - 1):
            x = x * x % m
            if x == m - 1:
                break
        else:
            return False
    return True


@functools.lru_cache(maxsize=None)
def _primes(width, count):
    """The `count` largest primes p with 2*width*p**2 <= 2**52, descending."""
    if count == 0:
        return ()
    head = _primes(width, count - 1)
    p = head[-1] - 2 if head else (math.isqrt(2**51 // width) - 1) | 1
    while not _is_prime(p):
        p -= 2
    return head + (p,)


def _layers(alg, bound):
    """`alg.tensor` in exact integer layers, for a kernel whose integer
    results are at most bound(K, M) in absolute value.

    An int64 tensor is taken as it is, with no leading axis.  An object
    tensor becomes a stack along a leading axis of one float64 layer per
    prime of `_primes(K, L)`, L the fewest whose product exceeds twice the
    bound, holding its residues.  They are read off 47-bit float64 limbs
    of the tensor, least significant first and the last one signed, which
    are kept on `alg` for the other kernels: each Python int is split
    once, whatever the number of primes."""
    t = alg.tensor
    if t.dtype != object:
        return t
    if "_limbs" not in vars(alg):
        big, limbs = max(map(abs, t.flat)), []
        for _ in range(big.bit_length() // 47):
            limbs.append((t & (2**47 - 1)).astype(np.float64))
            t = t >> 47
        alg._limbs = big, [*limbs, t.astype(np.float64)]
    big, limbs = alg._limbs
    width, count = limbs[0].shape[-1], 1
    while math.prod(_primes(width, count)) <= 2 * bound(width, big):
        count += 1
    shift = np.array([2**47 % p for p in _primes(width, count)], dtype=np.float64)
    shift = shift.reshape(-1, 1, 1, 1)
    residues = _mod(limbs[-1] + np.zeros_like(shift))
    for limb in limbs[-2::-1]:    # Horner's rule: each step stays below p**2 + 2**47
        residues *= shift
        residues += limb
        residues = _mod(residues)
    return residues


def _mod(x):
    """x, a float64 stack of integers of absolute value at most 2**52,
    with each layer reduced in place to [0, p) modulo its prime; an int64
    array as it is.

    x/p is an integer or at least 1/p below the next one, and its float64
    rounding is off by at most |x/p| * 2**-53 <= 1/(2p), so floor(x/p) is
    the exact quotient and x - floor(x/p)*p the exact remainder."""
    if x.dtype.kind != "f":
        return x
    p = np.array(_primes(x.shape[-1], len(x)), dtype=np.float64)
    p = p.reshape((-1,) + (1,) * (x.ndim - 1))
    q = np.divide(x, p)
    np.floor(q, out=q)
    q *= p
    x -= q
    return x


def _exact(layers):
    """The integers, as a list, whose residues are the reduced layers of
    a float64 stack of tensor vectors, by the Chinese remainder theorem in
    the symmetric range; an int64 vector as it is."""
    if layers.dtype.kind != "f":
        return layers.tolist()
    primes = _primes(layers.shape[-1], len(layers))
    modulus = math.prod(primes)
    basis = [modulus // p * pow(modulus // p, -1, p) for p in primes]
    out = []
    for residues in layers.T.tolist():
        x = sum(int(r) * b for r, b in zip(residues, basis)) % modulus
        out.append(x - modulus if 2 * x > modulus else x)
    return out


def _slab_kernel(alg):
    """The associator kernel of `alg`: one per algebra, built on first use.

    Returns slices(i, pos) for tensor index i >= 1: the array S[j, k],
    over basis elements j and k, of A[i, j, k] (pos 0), A[j, i, k] (pos 1)
    or A[j, k, i] (pos 2), where A[a, b, c] is the associator of the
    elements at tensor indices a, b, c times `_den**2`, as a tensor vector,
    with the leading axis of `_layers` if it has one.  The kernel is kept
    on `alg` and remembers the three slices it computed last, one slab's
    worth, so laws checked one after another that fail at the same slab
    share its contractions.
    """
    kernel = vars(alg).get("_slabs")
    if kernel is None:
        kernel = alg._slabs = functools.lru_cache(maxsize=3)(_associator_slices(alg))
    return kernel


def _associator_slices(alg):
    """The raw slice function of `_slab_kernel`: one contraction per call, read-only."""
    t = _layers(alg, lambda k, m: 12 * k * m**2)    # six associators of 2*K products
    full = _full(t)
    n, width = alg.dim, t.shape[-1]
    stack = t.shape[:-3]    # the leading axis of residue layers, if any
    right = full[..., 1:n + 1, :].reshape(stack + (width, n * width))    # [m, (k, c)]: u_m e_k
    left = full[..., 1:n + 1, :, :]    # [j, m]: e_j u_m
    products = t[..., 1:, 1:, :].reshape(stack + (n * n, width))   # [(j, k)]: e_j e_k
    shape = stack + (n, n, width)

    def slices(i, pos):
        if pos == 0:    # (e_i e_j) e_k - e_i (e_j e_k)
            a, b = t[..., i, 1:, :] @ right, products @ full[..., i, :, :]
        elif pos == 1:    # (e_j e_i) e_k - e_j (e_i e_k)
            a, b = t[..., 1:, i, :] @ right, t[..., None, i, 1:, :] @ left
        else:    # (e_j e_k) e_i - e_j (e_k e_i)
            a, b = products @ full[..., :, i, :], t[..., None, 1:, i, :] @ left
        a = a.reshape(shape)
        a -= b.reshape(shape)
        a = _mod(a)
        a.flags.writeable = False
        return a

    return slices


def _commutator_slices(alg):
    """slices(i, pos) for tensor index i >= 1: e_i e_j - e_j e_i over basis
    elements j, times `_den`, in the layers of `_layers`; pos is 0."""
    t = _layers(alg, lambda k, m: 2 * m)
    return lambda i, pos: _mod(t[..., i, 1:, :] - t[..., 1:, i, :])


def _times(u, m, *shape):
    """Rows of tensor vectors u times the matrix m, reduced, as an array of `shape`."""
    stack = m.shape[:-2]
    return _mod((u.reshape(stack + (-1, u.shape[-1])) @ m).reshape(stack + shape))


def _columns(x):
    """x[a, m, out] as the matrix [m, (a, out)]."""
    return x.swapaxes(-3, -2).reshape(x.shape[:-3] + (x.shape[-2], -1))


def _add_symmetric(out, x):
    """out plus x[j, k, l] + x[j, l, k] + x[k, l, j] in place, x symmetric in j and k."""
    out += x
    out += x.swapaxes(-3, -2)
    out += np.moveaxis(x, -2, -4)
    return out


def _quartic_slices(alg):
    """slices(i, pos), pos 0, for tensor index i >= 1: the degree-4 form F
    at (e_i, e_j, e_k, e_l) times `_den**3`, over j, k, l from e_i on."""
    t = _layers(alg, lambda k, m: 48 * k**2 * m**3)    # 48 terms of K**2 products of three entries
    full, n, width = _full(t), alg.dim, t.shape[-1]
    sym = _mod(t[..., 1:, 1:, :] + t[..., 1:, 1:, :].swapaxes(-3, -2))    # [a, b]: S_ab
    right = full[..., 1:n + 1, :].reshape(full.shape[:-3] + (width, -1))    # [m, (c, out)]: u_m e_c
    circle = _mod(full + full.swapaxes(-3, -2)).reshape(right.shape[:-1] + (-1,))    # u_m o u_p
    cube = _times(sym, right, n, n, n, width)    # [a, b, c]: S_ab e_c
    triple = _mod(_add_symmetric(np.zeros_like(cube), cube))    # [a, b, c]: L3(a, b, c)

    def slices(i, pos):
        s, m = i - 1, n - i + 1    # j, k, l from e_i on
        y = _times(sym[..., i - 1, s:, :], circle, m, width, width)    # [a, q]: S_ia o u_q
        q = _times(sym[..., s:, s:, :], _columns(y), m, m, m, width)    # [b, c, a]: S_bc o S_ia
        q -= _times(triple[..., i - 1, s:, s:, :], right[..., s * width:], m, m, m, width)    # L3(i,b,c) e_a
        out = _times(triple[..., s:, s:, s:, :], full[..., :, i, :], m, m, m, width)    # L3(j, k, l) e_i
        return _mod(_add_symmetric(np.negative(out, out=out), q))

    return slices


def _jordan_slices(alg):
    """slices(i, pos), pos 0, for tensor index i >= 1: the Jordan form F at
    x = (e_i, e_j, e_k), y = e_l times `_den**3`, over j, k from e_i on."""
    t = _layers(alg, lambda k, m: 12 * k**2 * m**3)    # 12 terms of K**2 products of three entries
    full, n, width = _full(t), alg.dim, t.shape[-1]
    sym = _mod(t[..., 1:, 1:, :] + t[..., 1:, 1:, :].swapaxes(-3, -2))    # [a, b]: S_ab
    left = _columns(full[..., 1:n + 1, :, :])    # [m, (a, out)]: e_a u_m
    times, swapped = full.reshape(left.shape[:-1] + (-1,)), _columns(full)    # u_m u_p, u_p u_m
    by_left = _times(sym, left, n, n, n, width)    # [j, k, l]: e_l S_jk

    def slices(i, pos):
        s, m = i - 1, n - i + 1    # j, k from e_i on
        p = _times(t[..., i, 1:, :], times, n, width, width)    # [l, q]: (e_i e_l) u_q
        g = _times(sym[..., s:, s:, :], _columns(p), m, m, n, width)    # [j, k, l]: (e_i e_l) S_jk
        g -= _times(by_left[..., s:, s:, :, :], full[..., i, :, :], m, m, n, width)    # e_i (e_l S_jk)
        y = _times(sym[..., i - 1, s:, :], swapped, m, width, width)    # [b, p]: u_p S_ib
        a = _times(t[..., s + 1:, 1:, :], _columns(y), m, n, m, width)    # [a, l, b]: (e_a e_l) S_ib
        a -= _times(by_left[..., i - 1, s:, :, :], left[..., s * width:], m, n, m, width).swapaxes(-4, -2)
        g += a.swapaxes(-3, -2)    # (e_c e_l) S_rest - e_c (e_l S_rest) at c = j
        g += np.moveaxis(a, -2, -4)    # and at c = k
        return _mod(g)

    return slices


def _first_failure(alg, groups, kernel):
    """For each group of laws, its lexicographically first failing
    (i, j, ..., law), or None.

    A group is [(tag, row)]: a law's defects at (i, j, ...), an array over
    (j, ...) with the leading axis of residue layers if it has one, are the
    orders of `_ORDERS`, views of the slices of slab i from `kernel`, added
    or subtracted as its row's coefficients (1, -1 or 0) say, positive terms
    first.  A slice covers the last indices of each axis: all of them, but
    from i on where a four-argument form sums over the index.  A defect is
    nonzero when it is nonzero in some layer.  Each slab is computed once
    for the groups still undecided, each order when a group first reads it,
    and a group leaves the scan at its first failing slab.  Slabs are
    decided in order of i and each is scanned in (j, ..., law) order, so a
    group's first hit is its first failure in (i, j, ..., law) order.
    """
    slices = kernel(alg)
    terms = [[sorted(((o, c) for o, c in enumerate(row) if c), key=lambda t: t[1] < 0)
              for _, row in laws] for laws in groups]
    reads = [sorted({o for law in laws for o, _ in law}) for laws in terms]
    found = [None] * len(groups)
    undecided = list(range(len(groups)))
    for i in range(1, alg.dim + 1):
        if not undecided:
            break
        views = {}
        for g in list(undecided):
            defects = []    # the last group's are freed before a slice is computed
            for o in reads[g]:
                if o not in views:
                    pos, exchanged = _ORDERS[o]
                    views[o] = slices(i, pos).swapaxes(-3, -2) if exchanged else slices(i, pos)
            for (o, c), *others in terms[g]:
                defects.append(views[o] if c > 0 else -views[o])
                for o, c in others:
                    defects[-1] = defects[-1] + views[o] if c > 0 else defects[-1] - views[o]
            defects = np.stack(defects, axis=-2)    # the sums are freed before `_mod` allocates
            defects = _mod(defects)
            nonzero = (defects != 0).any(axis=-1)
            if defects.dtype.kind == "f":    # in some layer
                nonzero = nonzero.any(axis=0)
            hits = np.flatnonzero(nonzero)
            if hits.size:
                *at, law = np.unravel_index(hits[0], nonzero.shape)
                rest = [int(a) + alg.dim - size for a, size in zip(at, nonzero.shape)]
                w = Element(alg, alg._den ** len(rest),    # one factor per product
                            _exact(defects[(..., *at, law, slice(None))]))
                found[g] = Witness(defect=w, indices=(i - 1, *rest), law=groups[g][law][0])
                undecided.remove(g)
    return found


# the columns of a law row, ijk, jik, jki, ikj, kij, kji: (slice of slab i, j and k exchanged)
_ORDERS = ((0, False), (1, False), (2, False), (0, True), (1, True), (2, True))
# law -> (slab scans, detail), the rows as in the module docstring; unital has its own solve
_LAWS = {
    "associative": ([(_slab_kernel, [("associativity", (1, 0, 0, 0, 0, 0))])], ""),
    "alternative": ([(_slab_kernel, [("left-alternative", (1, 1, 0, 0, 0, 0)),
                                     ("right-alternative", (1, 0, 0, 1, 0, 0))])], ""),
    "flexible": ([(_slab_kernel, [("flexible law", (1, 0, 0, 0, 0, 1))])], ""),
    "lie_admissible": ([(_slab_kernel, [("Jacobi identity for the commutator",
                                         (1, -1, 1, -1, 1, -1))])], ""),
    "power_associative": ([
        (_slab_kernel, [("power associativity at degree 3", (1, 1, 1, 1, 1, 1))]),
        (_quartic_slices, [("power associativity at degree 4", (1,))]),
    ], "x^2 x = x x^2 and x^2 x^2 = (x^2 x) x on basis tuples, which decide every degree"),
    "jordan": ([
        (_commutator_slices, [("commutativity", (1,))]),
        (_jordan_slices, [("Jordan law (xy)(xx) = x(y(xx))", (1,))]),
    ], "commutativity on basis pairs, then the linearized Jordan law on basis 4-tuples"),
    "unital": None,
    "derivation_property": ([(_slab_kernel, [("bracket Leibniz rule", (-1, 0, 0, 1, -1, 0))])], ""),
}
PROPERTIES = tuple(_LAWS)


class _LazyRows(list):
    """The rows of a linear system, None until row i is first read, then `build(i)`."""

    def __getitem__(self, i):
        row = super().__getitem__(i)
        if row is None:
            row = self[i] = self.build(i)
        return row


def _check_unital(alg):
    if alg.unital:
        return PropertyReport(alg, "unital", True, None, detail="external unit")
    # Look for an internal two-sided identity by solving u*e_j = e_j = e_j*u,
    # one row per (j, k) and one column per coefficient of u, times `_den`.
    n, half = alg.dim, alg.dim + 1
    t = alg.tensor[1:, 1:]

    def row(i):     # i = (side * n + j) * n + k: component k of u e_j, then of e_j u
        side, j, k = i // (n * n), i // n % n, i % n
        cells = t[j] if side else t[:, j]       # [l]: e_j e_l or e_l e_j
        im = cells[:, half + 1 + k].tolist() if t.shape[2] > half else [0] * n
        return [*zip(cells[:, 1 + k].tolist(), im), (alg._den if j == k else 0, 0)]

    aug = _LazyRows([None] * (2 * n * n))
    aug.build = row
    solution, particular = solve_gaussian_integers(aug)
    if solution is not None:
        u = alg.element(0, solution)
        return PropertyReport(alg, "unital", True, None, detail=f"internal unit {u}")
    # No identity exists; exhibit where the best candidate fails.
    u = alg.element(0, particular)
    full = _full(alg.tensor)
    vec = np.array(u.vec, dtype=object).reshape(-1, full.shape[-1])    # real table: [re, im]
    for j in range(n):
        ej = alg.basis_element(j)
        for side in (full[:, j + 1], full[j + 1]):
            d = Element(alg, u.den * alg._den, (vec @ side).ravel().tolist()) - ej
            if not d.is_zero():
                w = Witness(defect=d, indices=(j,), law=f"no identity; best candidate {u}")
                return PropertyReport(alg, "unital", False, w)
    raise AssertionError("inconsistent identity system with no failing product")


def check_properties(alg: AlgebraDef, props: list[str], *, degree: int = 4) -> list[PropertyReport]:
    """Decide the named laws for `alg` together: one report per name, in
    request order, each the one `check_property` gives.

    Every name, and the degree, is checked before any law is decided.  The
    laws then run their scans in rounds: each round runs the next scan of
    every law that has passed the scans before it, one `_first_failure`
    call per kernel.  So the first scans of the five multilinear laws and
    of degree-3 power associativity share one pass over the associator
    slabs, and each slice of a slab is contracted once for all of them."""
    names = [prop.replace("-", "_") for prop in props]
    for prop, name in zip(props, names):
        if name not in _LAWS:
            raise ValueError(f"unknown property {prop!r}; expected one of {PROPERTIES}")
    if degree < 3 and "power_associative" in names:
        raise ValueError("power associativity needs degree >= 3")
    laws = {}    # law -> (report name, detail, the slab scans it has still to run)
    for name in dict.fromkeys(names):
        if name != "unital":
            scans, detail = _LAWS[name]
            label = name
            if name == "power_associative":
                label = f"power_associative({degree})"
                if degree == 3:
                    scans, detail = scans[:1], "x^2 x = x x^2 on basis triples"
            laws[name] = label, detail, list(scans)
    witnesses, pending = {}, list(laws)
    while pending:    # one round: the next scan of each law that passed those before it
        by_kernel = {}
        for name in pending:
            kernel, group = laws[name][2].pop(0)
            by_kernel.setdefault(kernel, []).append((name, group))
        for kernel, members in by_kernel.items():
            found = _first_failure(alg, [group for _, group in members], kernel)
            witnesses.update((name, w) for (name, _), w in zip(members, found) if w)
        pending = [name for name in pending if laws[name][2] and name not in witnesses]
    reports = {name: PropertyReport(alg, label, name not in witnesses, witnesses.get(name), detail)
               for name, (label, detail, _) in laws.items()}
    if "unital" in names:
        reports["unital"] = _check_unital(alg)
    return [reports[name] for name in names]


def check_property(alg: AlgebraDef, prop: str, *, degree: int = 4) -> PropertyReport:
    """Decide one named law for `alg`: `check_properties` on that name
    alone; see module docstring for method."""
    return check_properties(alg, [prop], degree=degree)[0]


def check_derivation_property(alg: AlgebraDef) -> PropertyReport:
    return check_property(alg, "derivation_property")


class MyungVerdict(NamedTuple):
    algebra: AlgebraDef
    equivalence_holds: bool
    derivation: PropertyReport
    flexible: PropertyReport
    lie_admissible: PropertyReport


def myung_equivalence(corpus: list[AlgebraDef]) -> list[MyungVerdict]:
    """Check derivation-property <=> (flexible and Lie-admissible) per algebra.

    The three laws are decided by one `check_properties` call per algebra,
    which scans each algebra's associator slabs once for all three."""
    if not corpus:
        raise ValueError("corpus must be non-empty")
    out = []
    for alg in corpus:
        der, flex, lie = check_properties(alg, ["derivation_property", "flexible", "lie_admissible"])
        out.append(MyungVerdict(alg, der.holds == (flex.holds and lie.holds), der, flex, lie))
    return out
