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
All laws read the slabs from one kernel per algebra, which keeps the
three slices it computed last, one slab's worth: the laws of one `check`
usually fail at the same slab, and each slice of it is contracted once for
all of them.  No more slices are kept, so memory stays O(dim^3).

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

Commutativity is scanned slab by slab, as T[i, j] - T[j, i].  The two
four-argument forms are symmetric in the arguments they sum over, so F at
a tuple equals F at the tuple with those indices sorted, which is no later
in lex order: the first failing tuple is sorted.  Their kernel, `_fold`,
evaluates the unsymmetrized form once on every basis 4-tuple, in blocks
of one first argument, and adds each block onto one array over the
sorted tuples; F there is the entry times the number of orders that fix
the tuple, sym! over the count of tuples with that key.  Memory grows as
dim^5, not dim^3: the keys are found on each call from index arrays over
all dim^4 tuples, and the folded array holds K entries per sorted tuple,
about K dim^4/24 for degree 4 and K dim^4/6 for the Jordan form (on a
diagonal table `power_associative` and `jordan` raised the peak resident
set by about 20 and 27 MB at dimension 24, and 61 and 95 MB at 32, Python
3.11, numpy 2.4).  Its slabs are read off that array, zero at the
unsorted tuples, and a defect is F divided by the denominator cubed.  A
degree-4 defect adds 48 terms (24 orders of two terms) and a Jordan
defect 12, each a sum of K**2 products of three entries of T, which the
bound on T above covers.

Each scanned law is one entry of a single table, `_LAWS`: an ordered
list of slab scans, each a kernel and the (tag, row) pairs
`_first_failure` reads from its slabs, run until one fails.  The five
multilinear laws are one scan of the associator kernel, power
associativity scans degree 3 and then, at a degree of 4 or more, degree
4, and the Jordan law scans commutativity and then its linearized form,
each reading one slice with the row (1,).  The table also names `unital`,
which keeps its own solve, so its keys are the law names, `PROPERTIES`;
`check_property` is the one body that runs a law's scans and builds its
report.

Every check is exact: a law either holds or a nonzero defect element is
produced as a witness.  Witnesses are deterministic: the lexicographically
first failing basis tuple, with the linearized defect F there.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .algebra import AlgebraDef, Element
from .scalar import solve_gaussian_integers


@dataclass(frozen=True)
class Witness:
    """A concrete violation: which inputs failed and by how much."""

    defect: Element
    indices: tuple[int, ...]
    law: str = ""

    def describe(self) -> str:
        args = ", ".join(self.defect.algebra.basis_names[i] for i in self.indices)
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
    worth, so the laws of one `check` that fail or read the same slab share
    its contractions.
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


def _fold(alg, form, sym):
    """Kernel of a multilinear form(mul, a, b, c, d) summed over the orders
    of its first `sym` arguments: slices(i, pos), pos 0, is that sum at
    (e_i, e_j, e_k, e_l) times `_den**3` where the summed indices are
    sorted, and zero elsewhere, as an array over (j, k, l).  form is
    evaluated on (e_a, basis, basis, basis) for one basis element a at a
    time, and mul(u, v) multiplies two arrays of tensor vectors pairwise,
    the indices of u first.  A key adds at most 24 values in (-p, p) in a
    residue layer before it is multiplied by `fixing`."""
    t = _layers(alg, lambda k, m: 48 * k**2 * m**3)    # 48 terms of K**2 products of three entries
    n, width = alg.dim, t.shape[-1]
    stack = t.shape[:-3]
    table = _full(t).reshape(stack + (width, width * width))
    basis = np.eye(width, dtype=t.dtype)[1:n + 1] * np.ones(stack + (1, 1), dtype=t.dtype)
    rows, blocks, cols = stack + (-1, width), stack + (-1, width, width), stack + (1, -1, width)
    lead = len(stack)

    def mul(u, v):
        by_u = _mod((u.reshape(rows) @ table).reshape(blocks))
        return _mod(v.reshape(cols) @ by_u).reshape(u.shape[:-1] + v.shape[lead:])

    # a min/max network sorts the summed indices: np.sort of so many short
    # rows would cost about a tenth of the call at dimension 12
    key = np.indices((n,) * 4, dtype=np.int16).reshape(4, -1)
    for j, k in itertools.combinations(range(sym), 2):
        key[[j, k]] = np.minimum(key[j], key[k]), np.maximum(key[j], key[k])
    key = np.ravel_multi_index(key, (n,) * 4)    # each tuple's key, as a flat index
    orbit = np.bincount(key, minlength=n**4)    # the tuples with each key
    keys = np.flatnonzero(orbit)
    fixing = math.factorial(sym) // orbit[keys]    # the orders that fix each key
    rank = (np.cumsum(orbit > 0) - 1)[key].reshape(n, n**3)
    del key, orbit
    order = np.argsort(rank, axis=1, kind="stable")    # each block's tuples in runs of one key
    rank = np.take_along_axis(rank, order, axis=1)
    first = np.diff(rank, axis=1, prepend=-1) != 0
    folded = np.zeros(stack + (len(keys), width), dtype=t.dtype)
    for a in range(n):    # no block is held while the next is evaluated
        block = form(mul, basis[..., a:a + 1, :], basis, basis, basis).reshape(
            stack + (n**3, width))[..., order[a], :]
        folded[..., rank[a, first[a]], :] += np.add.reduceat(block, np.flatnonzero(first[a]), axis=-2)
        del block
    folded *= fixing[:, None]
    slab_starts = np.searchsorted(keys, np.arange(n + 1) * n**3)

    def slices(i, pos):
        ranks = slice(slab_starts[i - 1], slab_starts[i])
        slab = np.zeros(stack + (n**3, width), dtype=t.dtype)
        slab[..., keys[ranks] - (i - 1) * n**3, :] = folded[..., ranks, :]
        return slab.reshape(stack + (n, n, n, width))

    return slices


def _quartic(mul, a, b, c, d):
    """(ab)(cd) - ((ab)c)d: x^2 x^2 - (x^2 x) x before linearization."""
    ab = mul(a, b)
    return mul(ab, mul(c, d)) - mul(mul(ab, c), d)


def _jordan(mul, x1, x2, x3, y):
    """(x1 y)(x2 x3) - x1 (y (x2 x3)), with axes moved from (x1, y, x2, x3)."""
    xx = mul(x2, x3)
    return np.moveaxis(mul(mul(x1, y), xx) - mul(x1, mul(y, xx)), -4, -2)


def _first_failure(alg, laws, kernel):
    """The lexicographically first failing (i, j, ..., law), or None.

    `laws` is [(tag, row)]: a law's defects at (i, j, ...), an array over
    (j, ...) with the leading axis of residue layers if it has one, are the
    orders of `_ORDERS`, views of the slices of slab i from `kernel`, added
    or subtracted as its row's coefficients (1, -1 or 0) say, positive terms
    first.  A defect is nonzero when it is nonzero in some layer.  The
    per-algebra `_slab_kernel` keeps the last three slices it computed, so
    the laws share each slice of a slab, within this call and with the laws
    checked before it.  Slabs are decided in order of i and each is scanned
    in (j, ..., law) order, so the first hit is the first failure in
    (i, j, ..., law) order; no later slab is computed.
    """
    slices = kernel(alg)
    terms = [sorted(((o, c) for o, c in enumerate(row) if c), key=lambda t: t[1] < 0) for _, row in laws]
    read = {o for law in terms for o, _ in law}
    for i in range(1, alg.dim + 1):
        views = {o: slices(i, pos).swapaxes(-3, -2) if exchanged else slices(i, pos)
                 for o, (pos, exchanged) in enumerate(_ORDERS) if o in read}
        defects = []
        for (o, c), *others in terms:
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
            *rest, law = (int(v) for v in np.unravel_index(hits[0], nonzero.shape))
            w = Element(alg, alg._den ** len(rest),    # one factor per product
                        _exact(defects[(..., *rest, law, slice(None))]))
            return Witness(defect=w, indices=(i - 1, *rest), law=laws[law][0])
    return None


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
        (functools.partial(_fold, form=_quartic, sym=4), [("power associativity at degree 4", (1,))]),
    ], "x^2 x = x x^2 and x^2 x^2 = (x^2 x) x on basis tuples, which decide every degree"),
    "jordan": ([
        (_commutator_slices, [("commutativity", (1,))]),
        (functools.partial(_fold, form=_jordan, sym=3), [("Jordan law (xy)(xx) = x(y(xx))", (1,))]),
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


def _decide(alg, prop, degree=4):
    """The body of `check_property`, shared with `check_derivation_property`
    so that neither calls the other's public name: a tracer that wraps both
    sees one call per law decided."""
    name = prop.replace("-", "_")
    if name not in _LAWS:
        raise ValueError(f"unknown property {prop!r}; expected one of {PROPERTIES}")
    if name == "unital":
        return _check_unital(alg)
    scans, detail = _LAWS[name]
    if name == "power_associative":
        if degree < 3:
            raise ValueError("power associativity needs degree >= 3")
        if degree == 3:
            scans, detail = scans[:1], "x^2 x = x x^2 on basis triples"
        name = f"power_associative({degree})"
    w = next(filter(None, (_first_failure(alg, laws, kernel) for kernel, laws in scans)), None)
    return PropertyReport(alg, name, w is None, w, detail)


def check_property(alg: AlgebraDef, prop: str, *, degree: int = 4) -> PropertyReport:
    """Decide one named law for `alg`; see module docstring for method."""
    return _decide(alg, prop, degree)


def check_derivation_property(alg: AlgebraDef) -> PropertyReport:
    return _decide(alg, "derivation_property")


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
        flex, lie = check_property(alg, "flexible"), check_property(alg, "lie_admissible")
        out.append(MyungVerdict(alg, der.holds == (flex.holds and lie.holds), der, flex, lie))
    return out
