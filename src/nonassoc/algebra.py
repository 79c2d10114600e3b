"""Finite-dimensional algebras given by structure constants over exact scalars.

An algebra is a table of basis products e_i * e_j, each a linear combination
of basis elements plus an optional multiple of an external unit.  Elements
are coefficient vectors; all operations are pure and exact.  The table is
stored in one form only, `AlgebraDef.tensor`: an integer array over the
least common denominator `_den`, with the unit at index 0.  `AlgebraDef`
has one constructor, which takes that table as integer numerators over a
common denominator.  `multiply` contracts two elements with it, the laws in
`properties` are contractions of it, and the text format in `algfile` is
parsed into it and written from it.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from .scalar import GaussianRational, ONE, ZERO, gaussian_integers


class AlgebraMismatchError(ValueError):
    """Raised when elements of different algebras are combined."""


def _vector_element(alg, vec, den) -> "Element":
    """The element whose tensor vector (a list), times `den`, is `vec`."""
    n = alg.dim + 1
    unit, *coeffs = (GaussianRational(Fraction(a, den), Fraction(b, den))
                     for a, b in zip(vec[:n], vec[n:] or [0] * n))
    return Element(alg, unit, tuple(coeffs))


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
    `zorn` and `report` do int64 arithmetic on the small tables they build.

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

    def basis_product(self, i, j) -> "Element":
        """e_i * e_j, read off `tensor`."""
        return _vector_element(self, self.tensor[i + 1, j + 1].tolist(), self._den)

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
        return Element(self, ZERO, (ZERO,) * self.dim)

    def one(self) -> "Element":
        if not self.unital:
            raise ValueError(f"algebra {self.name!r} has no unit")
        return Element(self, ONE, (ZERO,) * self.dim)

    def basis_element(self, k) -> "Element":
        coeffs = [ZERO] * self.dim
        coeffs[k] = ONE
        return Element(self, ZERO, tuple(coeffs))

    def basis(self):
        return [self.basis_element(k) for k in range(self.dim)]

    def element(self, unit=0, coeffs=None) -> "Element":
        coeffs = tuple(GaussianRational.of(c) for c in (coeffs or [0] * self.dim))
        if len(coeffs) != self.dim:
            raise ValueError("coefficient vector has wrong length")
        unit = GaussianRational.of(unit)
        if not self.unital and not unit.is_zero():
            raise ValueError(f"algebra {self.name!r} has no unit")
        return Element(self, unit, coeffs)

    def random_element(self, rng, lo=-2, hi=2) -> "Element":
        unit = rng.randint(lo, hi) if self.unital else 0
        return self.element(unit, [rng.randint(lo, hi) for _ in range(self.dim)])


class Element:
    """A vector in an AlgebraDef basis with an optional unit component."""

    __slots__ = ("algebra", "unit", "coeffs", "_ints")

    def __init__(self, algebra, unit, coeffs):
        self.algebra = algebra
        self.unit = unit
        self.coeffs = coeffs
        self._ints = None

    def _int_form(self):
        """(den, [re parts, im parts]) over (unit,) + coeffs, as Python ints."""
        if self._ints is None:
            den, pairs = gaussian_integers([self.unit, *self.coeffs])
            self._ints = (den, np.array(pairs, dtype=object).T)
        return self._ints

    def _check(self, other) -> "Element":
        if not isinstance(other, Element):
            raise TypeError("expected an Element")
        if self.algebra is not other.algebra and self.algebra != other.algebra:
            raise AlgebraMismatchError(
                f"elements of {self.algebra.name!r} and {other.algebra.name!r} do not combine"
            )
        return other

    def __add__(self, other):
        other = self._check(other)
        return Element(
            self.algebra,
            self.unit + other.unit,
            tuple(a + b for a, b in zip(self.coeffs, other.coeffs)),
        )

    def __sub__(self, other):
        other = self._check(other)
        return Element(
            self.algebra,
            self.unit - other.unit,
            tuple(a - b for a, b in zip(self.coeffs, other.coeffs)),
        )

    def __neg__(self):
        return Element(self.algebra, -self.unit, tuple(-c for c in self.coeffs))

    def scaled(self, s) -> "Element":
        s = GaussianRational.of(s)
        return Element(self.algebra, s * self.unit, tuple(s * c for c in self.coeffs))

    def __mul__(self, other):
        if isinstance(other, Element):
            return multiply(self, other)
        return self.scaled(other)

    def __rmul__(self, s):
        return self.scaled(s)

    def __eq__(self, other):
        if not isinstance(other, Element):
            return NotImplemented
        return (
            (self.algebra is other.algebra or self.algebra == other.algebra)
            and self.unit == other.unit
            and self.coeffs == other.coeffs
        )

    __hash__ = None

    def is_zero(self) -> bool:
        return self.unit.is_zero() and all(c.is_zero() for c in self.coeffs)

    def __repr__(self):
        return f"<{self}>"

    def __str__(self):
        parts = []
        if not self.unit.is_zero():
            u = str(self.unit)
            parts.append(f"({u})" if self.unit.re != 0 and self.unit.im != 0 else u)
        for k, c in enumerate(self.coeffs):
            if c.is_zero():
                continue
            name = self.algebra.basis_names[k]
            if c == ONE:
                parts.append(name)
            elif c == -ONE:
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


def multiply(x: Element, y: Element) -> Element:
    """Bilinear product of two elements of the same algebra.

    The product is the contraction of both elements with `AlgebraDef.tensor`
    in Python ints: with x and y as integer rows over (unit,) + coeffs, real
    parts then imaginary parts, p[a, b] = sum of x[a, i] y[b, j] tensor[i, j],
    and the product's tensor vector is p[0, 0] - p[1, 1] + i (p[0, 1] + p[1, 0]).
    Exact scalars are built only for the result.
    """
    y = x._check(y)
    alg = x.algebra
    t = alg.tensor
    n = alg.dim + 1
    den_x, xs = x._int_form()
    den_y, ys = y._int_form()
    p = ys @ (xs @ t.reshape(n, -1)).reshape(2, n, -1)
    re, im = p[0, 0] - p[1, 1], p[0, 1] + p[1, 0]
    if t.shape[2] > n:    # a Gaussian table: fold the imaginary half in as i * im
        re, im = re[:n] - im[n:], re[n:] + im[:n]
    den = den_x * den_y * alg._den
    return _vector_element(alg, re.tolist() + im.tolist(), den)


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

