"""Exact scalars: Gaussian rationals a + b*i with Fraction components."""

from __future__ import annotations

import math
from fractions import Fraction


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

    def conjugate(self) -> "GaussianRational":
        return GaussianRational(self.re, -self.im)

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

    def __complex__(self):
        return complex(float(self.re), float(self.im))

    def __repr__(self):
        return f"GaussianRational({self.re!r}, {self.im!r})"

    def __str__(self):
        if self.im == 0:
            return str(self.re)
        if self.re == 0:
            if self.im == 1:
                return "i"
            if self.im == -1:
                return "-i"
            return f"{self.im}i"
        sign = "+" if self.im > 0 else "-"
        mag = abs(self.im)
        imag = "i" if mag == 1 else f"{mag}i"
        return f"{self.re}{sign}{imag}"


ZERO = GaussianRational(0)
ONE = GaussianRational(1)
MINUS_ONE = GaussianRational(-1)
I = GaussianRational(0, 1)
HALF = GaussianRational(Fraction(1, 2))


def solve_exact(rows: list[list[GaussianRational]], rhs: list[GaussianRational]):
    """Solve A*x = b exactly by Gaussian elimination.

    Returns (solution, particular).  `solution` is None when the system is
    inconsistent; `particular` always holds the solution of the consistent
    pivot rows with free variables set to zero, which callers can use to
    build an explicit counterexample.
    """
    aug = []
    for row, b in zip(rows, rhs):
        vals = [GaussianRational.of(v) for v in (*row, b)]
        den = math.lcm(*(f.denominator for v in vals for f in (v.re, v.im)))
        aug.append([(v.re.numerator * (den // v.re.denominator),
                     v.im.numerator * (den // v.im.denominator)) for v in vals])
    return solve_gaussian_integers(aug)


def solve_gaussian_integers(aug: list[list[tuple[int, int]]]):
    """`solve_exact` on an augmented system whose entries are Gaussian
    integers, given as (re, im) pairs; the rows are rewritten in place.

    Gauss-Jordan elimination without fractions: the first row with a
    nonzero entry in the column is the pivot row, every other row becomes
    pivot * row - entry * pivot row, and each new row is divided by the gcd
    of its parts.  Rows change only by nonzero factors, so pivots and the
    zero pattern are those of elimination over the field.
    """
    m = len(aug)
    n = len(aug[0]) - 1 if m else 0
    pivot_cols: list[int] = []
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
