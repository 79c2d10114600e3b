"""Exact scalars: Gaussian rationals with Fraction parts, Gaussian-integer arrays, their text."""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np


def _rational_text(num: int, den: int) -> str:
    """num / den in lowest terms, written as `Fraction` writes it."""
    g = math.gcd(num, den)
    return f"{num // g}" if g == den else f"{num // g}/{den // g}"


def _gaussian_text(re_num: int, im_num: int, den: int) -> str:
    """(re + im i) / den as text: `1/2-i`, `-3/5i`, `2`; `str` of a `GaussianRational`."""
    if not im_num:
        return _rational_text(re_num, den)
    imag = ("" if abs(im_num) == den else _rational_text(abs(im_num), den)) + "i"
    if not re_num:
        return f"-{imag}" if im_num < 0 else imag
    return f"{_rational_text(re_num, den)}{'+' if im_num > 0 else '-'}{imag}"


def sum_text(terms, den: int, sep: str) -> str:
    """The sum of (re + im i)/den times name over (re, im, name) `terms` as
    text, `q3 - 2*q1 + (1+i)` for sep `*`: zero terms are dropped, a +-1 before
    a name is omitted, a coefficient with both parts nonzero is parenthesized,
    an empty name stands for a bare scalar, and no term at all reads `0`."""
    out = ""
    for re, im, name in terms:
        if not (re or im):
            continue
        if name and not im and abs(re) == den:
            text = name if re > 0 else f"-{name}"
        else:
            text = _gaussian_text(re, im, den)
            if re and im:
                text = f"({text})"
            if name:
                text = f"{text}{sep}{name}"
        if not out:
            out = text
        else:
            out += f" - {text[1:]}" if text.startswith("-") else f" + {text}"
    return out or "0"


class GaussianRational:
    """A complex number with exact rational real and imaginary parts.

    All arithmetic is exact; division is defined for any nonzero value.
    Instances are immutable and hashable.
    """

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        if type(re) is not Fraction:
            re = Fraction(re)
        if type(im) is not Fraction:
            im = Fraction(im)
        object.__setattr__(self, "re", re)
        object.__setattr__(self, "im", im)

    def __setattr__(self, name, value):
        raise AttributeError("GaussianRational is immutable")

    def __reduce__(self):    # copy and pickle call the constructor, not setattr
        return GaussianRational, (self.re, self.im)

    @classmethod
    def of(cls, value) -> "GaussianRational":
        if isinstance(value, GaussianRational):
            return value
        if isinstance(value, (int, Fraction)):
            return cls(value)
        raise TypeError(f"cannot coerce {type(value).__name__} to GaussianRational")

    # -- arithmetic -------------------------------------------------------

    def __add__(self, other):
        other = GaussianRational.of(other)
        return GaussianRational(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __sub__(self, other):
        other = GaussianRational.of(other)
        return GaussianRational(self.re - other.re, self.im - other.im)

    def __rsub__(self, other):
        return GaussianRational.of(other) - self

    def __neg__(self):
        return GaussianRational(-self.re, -self.im)

    def __mul__(self, other):
        other = GaussianRational.of(other)
        if not self.im and not other.im:
            return GaussianRational(self.re * other.re)
        return GaussianRational(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = GaussianRational.of(other)
        n = other.re * other.re + other.im * other.im
        if n == 0:
            raise ZeroDivisionError("division by zero GaussianRational")
        return GaussianRational(
            (self.re * other.re + self.im * other.im) / n,
            (self.im * other.re - self.re * other.im) / n,
        )

    def __rtruediv__(self, other):
        return GaussianRational.of(other) / self

    # -- comparisons / conversions ---------------------------------------

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = GaussianRational(other)
        if not isinstance(other, GaussianRational):
            return NotImplemented
        return self.re == other.re and self.im == other.im

    def __hash__(self):
        if self.im == 0:
            return hash(self.re)
        return hash((self.re, self.im))

    def __bool__(self):
        return self.re != 0 or self.im != 0

    def is_zero(self) -> bool:
        return self.re == 0 and self.im == 0

    def __repr__(self):
        return f"GaussianRational({self.re!r}, {self.im!r})"

    def __str__(self):
        den, [(re, im)] = gaussian_integers([self])
        return _gaussian_text(re, im, den)


ZERO = GaussianRational(0)
ONE = GaussianRational(1)
I = GaussianRational(0, 1)


def gaussian_integers(values: list[GaussianRational]) -> tuple[int, list[tuple[int, int]]]:
    """(den, pairs): the least common denominator of `values` and each
    value times it as an (re, im) pair of ints."""
    den = math.lcm(*(f.denominator for v in values for f in (v.re, v.im)))
    return den, [(v.re.numerator * (den // v.re.denominator),
                  v.im.numerator * (den // v.im.denominator)) for v in values]


def gauss(f, X, Y):
    """The bilinear map f on Gaussian-integer arrays, (re, im) on axis 0."""
    return np.stack((f(X[0], Y[0]) - f(X[1], Y[1]), f(X[0], Y[1]) + f(X[1], Y[0])))


def times_i(A):
    """i times a Gaussian-integer array, (re, im) on axis 0."""
    return np.stack((-A[1], A[0]))


def common_scale(u, v) -> GaussianRational | None:
    """The c with u = c * v, or None if there is none.

    u and v are Gaussian-integer arrays of one shape, int64 or Python ints,
    with (re, im) on axis 0.  Entries zero on both sides fit every c; the
    others are taken as Python ints.  c is read at the first nonzero v_p in
    C order, and u * v_p == u_p * v is decided as one array comparison, so
    nothing is divided.  A zero v admits every c when u is zero too; the
    answer is then 0, and None otherwise.
    """
    u, v = (np.asarray(a).reshape(2, -1) for a in (u, v))
    at = np.flatnonzero(u.any(axis=0) | v.any(axis=0))
    u, v = u[:, at].astype(object), v[:, at].astype(object)
    p = np.flatnonzero(v.any(axis=0))
    if not len(p):
        return None if len(at) else ZERO
    up, vp = u[:, p[0]], v[:, p[0]]
    if not np.array_equal(gauss(np.multiply, u, vp), gauss(np.multiply, up, v)):
        return None
    (ur, ui), (vr, vi) = up.tolist(), vp.tolist()
    n = vr * vr + vi * vi           # c = u_p * conj(v_p) / |v_p|^2
    return GaussianRational(Fraction(ur * vr + ui * vi, n), Fraction(ui * vr - ur * vi, n))


def solve_gaussian_integers(aug):
    """Solve A*x = b exactly on an augmented system [A | b] of Gaussian
    integers, given as (re, im) pairs.  Returns (solution, particular):
    `solution` is None when the system is inconsistent, and `particular`
    always solves the consistent pivot rows with free variables set to
    zero, from which callers build a counterexample.  `aug` is any sequence
    of rows with len, get and set; a row is read and reduced in place only
    when the pivot search of a column or the final consistency scan, which
    stops at the first nonzero right-hand side, tests it.

    Lazy fraction-free elimination (E. H. Bareiss, Math. Comp. 22, 1968):
    step k, with pivot p_k in column c_k on the first row that has one,
    makes each row below (p_k * row - row[c_k] * pivot row) / p_{k-1}, with
    p_{-1} = 1, exactly in Z[i], and zero up to column c_k.  A row takes
    every step in order, one whose factor row[c_k] is 0 too, so a reduced
    entry is a leading minor of the system (rows: the pivot rows and its
    own; columns: the pivot columns and its own), p_{k-1} times the entry
    of elimination over the field: every zero test is exact, and pivots
    and verdict are those over the field.  `particular` comes from
    fraction-free back-substitution over the last pivot p (G. C. Nakos, P.
    R. Turner and R. M. Williams, ACM SIGSAM Bull. 31(3), 1997): in reverse
    order, y_k = (p * b_k - sum of row_k[c_j] * y_j over later pivots j) / p_k
    is exact in Z[i], and x[c_k] = y_k / p.
    """
    m = len(aug)
    n = len(aug[0]) - 1 if m else 0
    pivot_cols: list[int] = []
    pivots = [(1, 0)]       # p_{k-1} at k: p_{-1} = 1, then each pivot
    done = [0] * m

    def reduced(i: int) -> list[tuple[int, int]]:
        row = aug[i]
        for k in range(done[i], len(pivot_cols)):
            c, (qr, qi), (pr, pi) = pivot_cols[k], pivots[k], pivots[k + 1]
            fr, fi = row[c]
            row = [(pr * a - pi * b - fr * x + fi * y, pr * b + pi * a - fr * y - fi * x)
                   for (a, b), (x, y) in zip(row[c + 1:], aug[k][c + 1:])]
            if qi:      # times conj(p_{k-1}) over |p_{k-1}|^2
                norm = qr * qr + qi * qi
                row = [((a * qr + b * qi) // norm, (b * qr - a * qi) // norm) for a, b in row]
            elif qr != 1:
                row = [(a // qr, b // qr) for a, b in row]
            aug[i] = row = [(0, 0)] * (c + 1) + row
        done[i] = len(pivot_cols)
        return row

    r = 0
    for col in range(n):
        pivot = next((i for i in range(r, m) if reduced(i)[col] != (0, 0)), None)
        if pivot is None:
            continue
        aug[r], aug[pivot] = aug[pivot], aug[r]     # both rows are up to date
        pivot_cols.append(col)
        pivots.append(aug[r][col])
        r += 1
        if r == m:
            break

    consistent = all(reduced(i)[n] == (0, 0) for i in range(r, m))
    particular = [ZERO] * n
    (pr, pi), ys = pivots[-1], []
    norm = pr * pr + pi * pi
    for k in reversed(range(r)):
        row = aug[k]
        (br, bi), (vr, vi) = row[n], row[pivot_cols[k]]
        ur, ui = pr * br - pi * bi, pr * bi + pi * br
        for (ar, ai), (yr, yi) in zip((row[c] for c in pivot_cols[k + 1:]), reversed(ys)):
            ur, ui = ur - ar * yr + ai * yi, ui - ar * yi - ai * yr
        yr, yi = (ur * vr + ui * vi) // (v2 := vr * vr + vi * vi), (ui * vr - ur * vi) // v2
        ys.append((yr, yi))
        particular[pivot_cols[k]] = GaussianRational(Fraction(yr * pr + yi * pi, norm),
                                                     Fraction(yi * pr - yr * pi, norm))
    return (particular if consistent else None), particular
