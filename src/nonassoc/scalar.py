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


def solve_gaussian_integers(aug: list[list[tuple[int, int]]]):
    """Solve A*x = b exactly on an augmented system [A | b] of Gaussian
    integers, given as (re, im) pairs.  Returns (solution, particular):
    `solution` is None when the system is inconsistent, and `particular`
    always solves the consistent pivot rows with free variables set to
    zero, from which callers build a counterexample.  Rows are reduced in
    place, each only when the solve reads it, so not every row is rewritten.

    Elimination without fractions: the first row with a nonzero entry in
    the column is the pivot row, and reducing a row against it makes the
    row pivot * row - entry * pivot row, divided by the gcd of its parts.
    `done[i]` counts the pivots applied to row i.  A row is brought up to
    date when the pivot search of a column or the final consistency scan
    tests it, and that scan stops at the first nonzero right-hand side; a
    pivot row is brought up to date when `particular` reads it.  Pivot row
    k is zero in the columns of pivots 0..k-1, so applying the pivots in
    order never refills a cleared column.  A reduced row differs from its
    original by a combination of pivot rows and is zero in every pivot
    column but its own, which fixes it up to a nonzero factor: every zero
    test, and so the pivots, consistency and `particular`, are those of
    eager Gauss-Jordan elimination over the field.
    """
    m = len(aug)
    n = len(aug[0]) - 1 if m else 0
    pivot_cols: list[int] = []
    done = [0] * m

    def reduced(i: int) -> list[tuple[int, int]]:
        for k in range(done[i], len(pivot_cols)):
            (fr, fi), (pr, pi) = aug[i][pivot_cols[k]], aug[k][pivot_cols[k]]
            if fr or fi:
                row = [(pr * a - pi * b - fr * c + fi * d, pr * b + pi * a - fr * d - fi * c)
                       for (a, b), (c, d) in zip(aug[i], aug[k])]
                g = math.gcd(*(part for pair in row for part in pair))
                aug[i] = [(a // g, b // g) for a, b in row] if g > 1 else row
        done[i] = len(pivot_cols)
        return aug[i]

    r = 0
    for col in range(n):
        pivot = next((i for i in range(r, m) if reduced(i)[col] != (0, 0)), None)
        if pivot is None:
            continue
        aug[r], aug[pivot] = aug[pivot], aug[r]
        done[r] = r + 1     # the scan left done == r on rows r..pivot; a pivot skips itself
        pivot_cols.append(col)
        r += 1
        if r == m:
            break

    consistent = all(reduced(i)[n] == (0, 0) for i in range(r, m))
    particular = [ZERO] * n
    for k, col in enumerate(pivot_cols):
        row = reduced(k)
        particular[col] = GaussianRational(*row[n]) / GaussianRational(*row[col])
    return (particular if consistent else None), particular
