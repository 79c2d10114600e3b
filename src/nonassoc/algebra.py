"""Finite-dimensional algebras given by structure constants over exact scalars.

An algebra is a table of basis products e_i * e_j, each a linear combination
of basis elements plus an optional multiple of an external unit.  The table
is stored in one form only, `AlgebraDef.tensor`: an integer array over the
least common denominator `_den`, with the unit at index 0.  An `Element` is
held the same way, as a tensor vector of ints over one denominator, so its
operations are pure integer arithmetic.  `AlgebraDef` has one constructor,
which takes that table as integer numerators over a common denominator.
`multiply` contracts two elements with the tensor, the laws in `properties`
are contractions of it, and the text format in `algfile` is parsed into it
and written from it.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction

import numpy as np

from .scalar import GaussianRational, gaussian_integers, sum_text


class AlgebraMismatchError(ValueError):
    """Raised when elements of different algebras are combined."""


class AlgebraDef:
    """An algebra presented by basis labels and an exact integer product table.

    `tensor` has shape (dim+1, dim+1, K): index 0 stands for the unit and
    index k + 1 for basis element k, and `tensor[a, b]` is the product of
    elements a and b times the common denominator `_den`, the least positive
    integer that makes every structure constant integral.  Its last axis
    holds real parts of the unit and basis coefficients at 0..dim, then,
    only when some structure constant is not real, imaginary parts at
    dim+1..2*dim+1 (K is dim+1 or 2*(dim+1)).  The rows of index 0 make the
    unit act as an identity; a non-unital table never produces a unit
    component.  The dtype is int64 when 48*K**2*M**3 fits in it, M being
    the largest entry, so that no sum the law kernels in `properties` form
    can overflow; otherwise it is object, holding Python ints.  Object
    tables remain the exact form of large entries, which `multiply`, the
    unit search and the text format read as they are; the law kernels do
    not contract them but their residues modulo a few primes, in float64.
    `zorn` does int64 arithmetic on the small tables it builds; `report`
    does none, it only writes the verdicts the other modules decide.

    The constructor takes integer numerators over a positive `den`, not
    necessarily the least: `cells[i * dim + j]` is `den` times e_i * e_j as
    real parts of its unit multiple and basis coefficients, then optionally
    imaginary parts (all cells of length dim+1 or all of 2*(dim+1)).  If
    `unital` is false every unit multiple must vanish.  `from_products`
    builds the cells from a sparse table of exact scalars.
    """

    def __init__(self, name, dim, den, cells, unital, basis_names=None):
        if dim <= 0:
            raise ValueError("dimension must be positive")
        if den <= 0:
            raise ValueError("common denominator must be positive")
        basis_names = tuple(basis_names or (f"e{k + 1}" for k in range(dim)))
        if len(basis_names) != dim:
            raise ValueError("need one basis name per dimension")
        if len(cells) != dim * dim:
            raise ValueError(f"need dim*dim = {dim * dim} product cells, got {len(cells)}")
        n = dim + 1
        widths = {len(vec) for vec in cells}
        if widths not in ({n}, {2 * n}):
            raise ValueError(f"product cells must all have length {n} or all {2 * n}")
        width = 2 * n if any(any(vec[n:]) for vec in cells) else n
        cells = [vec[:width] for vec in cells]
        units = [divmod(s, dim) for s, vec in enumerate(cells) if any(vec[::n])]
        if units and not unital:
            i, j = units[0]
            raise ValueError(f"product e{i+1}*e{j+1} uses the unit in a non-unital algebra")
        g = math.gcd(den, *(v for vec in cells for v in vec))
        if g > 1:
            den //= g
            cells = [[v // g for v in vec] for vec in cells]
        big = max(den, *(abs(v) for vec in cells for v in vec))
        fits = 48 * width**2 * big**3 <= np.iinfo(np.int64).max
        eye = [[den * (a == k) for k in range(width)] for a in range(n)]
        self.name, self.dim, self.basis_names = name, dim, basis_names
        self.unital, self._den = bool(unital), den
        self.tensor = np.array([eye] + [[eye[i + 1], *cells[i * dim:(i + 1) * dim]]
                                        for i in range(dim)],
                               dtype=np.int64 if fits else object)

    def __reduce__(self):
        """The constructor arguments, so that a copy or a pickle leaves out
        what the law kernels keep on the algebra."""
        cells = self.tensor[1:, 1:].reshape(self.dim**2, -1).tolist()
        return AlgebraDef, (self.name, self.dim, self._den, cells, self.unital, self.basis_names)

    def basis_product(self, i, j) -> "Element":
        """e_i * e_j, read off `tensor`."""
        return Element(self, self._den, self.tensor[i + 1, j + 1].tolist())

    @classmethod
    def from_products(cls, name, dim, products, unital, basis_names=None):
        """Build from a sparse {(i, j): (unit, {k: coeff})} table of exact
        scalars; missing products are zero and a repeated index adds up."""
        for i, j in products:
            if not (0 <= i < dim and 0 <= j < dim):
                raise ValueError(f"product key {(i, j)} out of range")
        places, values = [], []
        for (i, j), (unit, terms) in products.items():
            places.append((i * dim + j, 0))
            values.append(GaussianRational.of(unit))
            for k, c in terms.items():
                if not 0 <= k < dim:
                    raise ValueError(f"basis index {k} out of range")
                places.append((i * dim + j, k + 1))
                values.append(GaussianRational.of(c))
        den, pairs = gaussian_integers(values)
        n = dim + 1
        cells = [[0] * (2 * n) for _ in range(dim * dim)]
        for (s, k), (re, im) in zip(places, pairs):
            cells[s][k] += re
            cells[s][n + k] += im
        return cls(name, dim, den, cells, unital, basis_names)

    def __eq__(self, other):
        if not isinstance(other, AlgebraDef):
            return NotImplemented
        return (
            self.dim == other.dim
            and self.unital == other.unital
            and self.basis_names == other.basis_names
            and bool(np.array_equal(self.tensor, other.tensor))
        )

    __hash__ = None

    def __repr__(self):
        return f"AlgebraDef({self.name!r}, dim={self.dim}, unital={self.unital})"

    # -- element constructors ---------------------------------------------

    def zero(self) -> "Element":
        return Element(self, 1, [0] * (self.dim + 1))

    def one(self) -> "Element":
        if not self.unital:
            raise ValueError(f"algebra {self.name!r} has no unit")
        return Element(self, 1, [1] + [0] * self.dim)

    def basis_element(self, k) -> "Element":
        coeffs = [0] * self.dim
        coeffs[k] = 1
        return Element(self, 1, [0] + coeffs)

    def basis(self):
        return [self.basis_element(k) for k in range(self.dim)]

    def element(self, unit=0, coeffs=None) -> "Element":
        coeffs = [GaussianRational.of(c) for c in (coeffs or [0] * self.dim)]
        if len(coeffs) != self.dim:
            raise ValueError("coefficient vector has wrong length")
        unit = GaussianRational.of(unit)
        if not self.unital and not unit.is_zero():
            raise ValueError(f"algebra {self.name!r} has no unit")
        den, pairs = gaussian_integers([unit, *coeffs])
        return Element(self, den, [part for parts in zip(*pairs) for part in parts])


class Element:
    """A vector in an AlgebraDef basis with an optional unit component.

    `vec` is the tensor vector times the positive `den`, as Python ints: real
    parts of (unit,) + coeffs, then imaginary parts; a real-width vector gets
    a zero imaginary half.  `den` and `vec` have gcd 1, so zero has `den` 1
    and equal elements have equal fields.  Elements are immutable."""

    __slots__ = ("algebra", "den", "vec")

    def __init__(self, algebra, den, vec):
        n = algebra.dim + 1
        vec = [operator.index(v) for v in vec]
        if len(vec) == n:
            vec += [0] * n
        if len(vec) != 2 * n or den <= 0:
            raise ValueError(f"need {n} or {2 * n} numerators over a positive denominator")
        g = math.gcd(den, *vec)
        object.__setattr__(self, "algebra", algebra)
        object.__setattr__(self, "den", den // g)
        object.__setattr__(self, "vec", tuple(v // g for v in vec) if g > 1 else tuple(vec))

    def __setattr__(self, name, value):
        raise AttributeError("Element is immutable")

    def __reduce__(self):    # copy and pickle call the constructor, not setattr
        return Element, (self.algebra, self.den, self.vec)

    def _scalar(self, k) -> GaussianRational:
        re, im = self.vec[k], self.vec[k + self.algebra.dim + 1]
        return GaussianRational(Fraction(re, self.den), Fraction(im, self.den))

    @property
    def unit(self) -> GaussianRational:
        return self._scalar(0)

    @property
    def coeffs(self) -> tuple[GaussianRational, ...]:
        return tuple(self._scalar(k + 1) for k in range(self.algebra.dim))

    def _check(self, other) -> "Element":
        if not isinstance(other, Element):
            raise TypeError("expected an Element")
        if self.algebra is not other.algebra and self.algebra != other.algebra:
            raise AlgebraMismatchError(
                f"elements of {self.algebra.name!r} and {other.algebra.name!r} do not combine"
            )
        return other

    def _combine(self, other, sign: int) -> "Element":
        """self + sign*other over the lcm of the two denominators."""
        other = self._check(other)
        g = math.gcd(self.den, other.den)
        fa, fb = other.den // g, sign * (self.den // g)
        return Element(self.algebra, self.den * fa,
                       [fa * a + fb * b for a, b in zip(self.vec, other.vec)])

    def __add__(self, other):
        return self._combine(other, 1)

    def __sub__(self, other):
        return self._combine(other, -1)

    def __neg__(self):
        return Element(self.algebra, self.den, [-v for v in self.vec])

    def scaled(self, s) -> "Element":
        d, ((p, q),) = gaussian_integers([GaussianRational.of(s)])
        n = self.algebra.dim + 1
        re, im = self.vec[:n], self.vec[n:]
        return Element(self.algebra, self.den * d, [p * a - q * b for a, b in zip(re, im)]
                       + [p * b + q * a for a, b in zip(re, im)])

    def __mul__(self, other):
        if isinstance(other, Element):
            return multiply(self, other)
        return self.scaled(other)

    def __rmul__(self, s):
        return self.scaled(s)

    def __eq__(self, other):
        if not isinstance(other, Element):
            return NotImplemented
        return ((self.algebra is other.algebra or self.algebra == other.algebra)
                and self.den == other.den and self.vec == other.vec)

    __hash__ = None

    def is_zero(self) -> bool:
        return not any(self.vec)

    def __repr__(self):
        return f"<{self}>"

    def __str__(self):
        n = self.algebra.dim + 1
        names = ("", *self.algebra.basis_names)
        return sum_text(zip(self.vec[:n], self.vec[n:], names), self.den, "*")


def multiply(x: Element, y: Element) -> Element:
    """Bilinear product of two elements of the same algebra.

    The product is the contraction of both elements with `AlgebraDef.tensor`
    in Python ints: with x and y as integer rows over (unit,) + coeffs, real
    parts then imaginary parts, p[a, b] = sum of x[a, i] y[b, j] tensor[i, j],
    and the product's tensor vector is p[0, 0] - p[1, 1] + i (p[0, 1] + p[1, 0]).
    """
    y = x._check(y)
    alg = x.algebra
    t = alg.tensor
    n = alg.dim + 1
    xs, ys = (np.array([e.vec[:n], e.vec[n:]], dtype=object) for e in (x, y))
    p = ys @ (xs @ t.reshape(n, -1)).reshape(2, n, -1)
    re, im = p[0, 0] - p[1, 1], p[0, 1] + p[1, 0]
    if t.shape[2] > n:    # a Gaussian table: fold the imaginary half in as i * im
        re, im = re[:n] - im[n:], re[n:] + im[:n]
    return Element(alg, x.den * y.den * alg._den, re.tolist() + im.tolist())


def commutator(x: Element, y: Element) -> Element:
    return multiply(x, y) - multiply(y, x)


def associator(x: Element, y: Element, z: Element) -> Element:
    return multiply(multiply(x, y), z) - multiply(x, multiply(y, z))


def jacobiator(x: Element, y: Element, z: Element) -> Element:
    return (
        commutator(commutator(x, y), z)
        + commutator(commutator(z, x), y)
        + commutator(commutator(y, z), x)
    )

