"""Finite-dimensional algebras given by structure constants over exact scalars.

An algebra is a table of basis products e_i * e_j, each a linear combination
of basis elements plus an optional multiple of an external unit.  Elements
are coefficient vectors; all operations are pure and exact.  The table's
one computational form is `AlgebraDef.tensor`, an integer array over a
common denominator with the unit at index 0: `multiply` contracts two
elements with it, and the laws in `properties` are contractions of it.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction

import numpy as np

from .scalar import GaussianRational, ONE, ZERO


class AlgebraMismatchError(ValueError):
    """Raised when elements of different algebras are combined."""


def _numerators(fractions, den) -> list[int]:
    """The numerators of `fractions` over their common multiple `den`."""
    return [fr.numerator * (den // fr.denominator) for fr in fractions]


class AlgebraDef:
    """An algebra presented by basis labels and structure constants.

    `structure[i][j]` is the product e_i * e_j as a pair
    (unit multiple, coefficient tuple).  If `unital` is false every unit
    multiple must vanish.
    """

    def __init__(self, name, dim, structure, unital, basis_names=None):
        if dim <= 0:
            raise ValueError("dimension must be positive")
        if basis_names is None:
            basis_names = tuple(f"e{k + 1}" for k in range(dim))
        if len(basis_names) != dim:
            raise ValueError("need one basis name per dimension")
        if len(structure) != dim or any(len(row) != dim for row in structure):
            raise ValueError("structure table must be dim x dim")
        norm = []
        for i in range(dim):
            row = []
            for j in range(dim):
                unit, coeffs = structure[i][j]
                coeffs = tuple(GaussianRational.of(c) for c in coeffs)
                unit = GaussianRational.of(unit)
                if len(coeffs) != dim:
                    raise ValueError(f"product e{i+1}*e{j+1} has wrong width")
                if not unital and not unit.is_zero():
                    raise ValueError(
                        f"product e{i+1}*e{j+1} uses the unit in a non-unital algebra"
                    )
                row.append((unit, coeffs))
            norm.append(tuple(row))
        self.name = name
        self.dim = dim
        self.basis_names = tuple(basis_names)
        self.structure = tuple(norm)
        self.unital = bool(unital)
        self._den = math.lcm(*(
            part.denominator
            for row in self.structure
            for unit, coeffs in row
            for c in (unit, *coeffs)
            for part in (c.re, c.im)
        ))

    @functools.cached_property
    def tensor(self) -> np.ndarray:
        """The product table as one exact integer array, built once.

        Index 0 stands for the unit and index k + 1 for basis element k, so
        the array has shape (dim+1, dim+1, K).  `tensor[a, b]` is the product
        of elements a and b times the common denominator `_den`: real parts
        of its unit and basis coefficients at 0..dim, then, only when some
        structure constant is not real, imaginary parts at dim+1..2*dim+1
        (K is dim+1 or 2*(dim+1)).  The rows of index 0 make the unit act as
        an identity; a non-unital table never produces a unit component.

        The dtype is int64 when 48*K**2*M**3 fits in it, M being the largest
        entry, so that no sum the law kernels in `properties` form can
        overflow; otherwise it is object, holding Python ints.
        """
        n = self.dim + 1
        den = self._den
        gaussian = any(c.im for row in self.structure for unit, coeffs in row
                       for c in (unit, *coeffs))
        width = 2 * n if gaussian else n
        t = [[[0] * width for _ in range(n)] for _ in range(n)]
        for a in range(n):
            t[0][a][a] = t[a][0][a] = den
        for i, row in enumerate(self.structure):
            for j, (unit, coeffs) in enumerate(row):
                values = (unit, *coeffs)
                t[i + 1][j + 1] = _numerators((c.re for c in values), den) + (
                    _numerators((c.im for c in values), den) if gaussian else [])
        big = max(abs(v) for plane in t for vec in plane for v in vec)
        fits = 48 * width**2 * big**3 <= np.iinfo(np.int64).max
        return np.array(t, dtype=np.int64 if fits else object)

    @classmethod
    def from_products(cls, name, dim, products, unital, basis_names=None):
        """Build from a sparse {(i, j): (unit, {k: coeff})} table; missing products are zero."""
        structure = []
        for i in range(dim):
            row = []
            for j in range(dim):
                unit, terms = products.get((i, j), (ZERO, {}))
                coeffs = [ZERO] * dim
                for k, c in terms.items():
                    if not 0 <= k < dim:
                        raise ValueError(f"basis index {k} out of range")
                    coeffs[k] = GaussianRational.of(c) if coeffs[k] is ZERO else coeffs[k] + c
                row.append((GaussianRational.of(unit), tuple(coeffs)))
            structure.append(row)
        return cls(name, dim, structure, unital, basis_names)

    def __eq__(self, other):
        if not isinstance(other, AlgebraDef):
            return NotImplemented
        return (
            self.dim == other.dim
            and self.unital == other.unital
            and self.basis_names == other.basis_names
            and self.structure == other.structure
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
            values = (self.unit, *self.coeffs)
            den = math.lcm(*(part.denominator for c in values for part in (c.re, c.im)))
            self._ints = (den, np.array([_numerators((c.re for c in values), den),
                                         _numerators((c.im for c in values), den)], dtype=object))
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
    unit, *coeffs = (GaussianRational(Fraction(a, den), Fraction(b, den))
                     for a, b in zip(re.tolist(), im.tolist()))
    return Element(alg, unit, tuple(coeffs))


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

