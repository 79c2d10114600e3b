"""Finite-dimensional algebras given by structure constants over exact scalars.

An algebra is a table of basis products e_i * e_j, each a linear combination
of basis elements plus an optional multiple of an external unit.  Elements
are coefficient vectors; all operations are pure and exact.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction

import numpy as np

from .scalar import GaussianRational, ONE, ZERO


class AlgebraMismatchError(ValueError):
    """Raised when elements of different algebras are combined."""


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
        # sparse integer view of the product table over a common denominator,
        # the representation the multiplication kernel runs on
        dens = [1]
        for row in self.structure:
            for unit, coeffs in row:
                dens.append(unit.re.denominator)
                dens.append(unit.im.denominator)
                for c in coeffs:
                    dens.append(c.re.denominator)
                    dens.append(c.im.denominator)
        self._den = math.lcm(*dens)

        def as_int(fr):
            return fr.numerator * (self._den // fr.denominator)

        self._int_sparse = tuple(
            tuple(
                (
                    as_int(unit.re),
                    as_int(unit.im),
                    tuple(
                        (k, as_int(c.re), as_int(c.im))
                        for k, c in enumerate(coeffs)
                        if not c.is_zero()
                    ),
                )
                for unit, coeffs in row
            )
            for row in self.structure
        )

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

        The dtype is int64 when 12*K*M**2 fits in it, M being the largest
        entry, so that no sum the law kernel in `properties` forms can
        overflow; otherwise it is object, holding Python ints.
        """
        n = self.dim + 1
        gaussian = any(
            u_im or any(im for _, _, im in entries)
            for row in self._int_sparse
            for _, u_im, entries in row
        )
        width = 2 * n if gaussian else n
        t = [[[0] * width for _ in range(n)] for _ in range(n)]
        for a in range(n):
            t[0][a][a] = t[a][0][a] = self._den
        for i, row in enumerate(self._int_sparse):
            for j, (u_re, u_im, entries) in enumerate(row):
                out = t[i + 1][j + 1]
                out[0] = u_re
                for k, re, _ in entries:
                    out[k + 1] = re
                if gaussian:
                    out[n] = u_im
                    for k, _, im in entries:
                        out[n + k + 1] = im
        big = max(abs(v) for plane in t for vec in plane for v in vec)
        fits = 12 * width * big * big <= np.iinfo(np.int64).max
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
                    coeffs[k] = coeffs[k] + GaussianRational.of(c)
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
        """(den, unit_re, unit_im, re tuple, im tuple) as plain integers."""
        if self._ints is None:
            dens = [self.unit.re.denominator, self.unit.im.denominator]
            for c in self.coeffs:
                dens.append(c.re.denominator)
                dens.append(c.im.denominator)
            den = math.lcm(*dens)

            def as_int(fr):
                return fr.numerator * (den // fr.denominator)

            self._ints = (
                den,
                as_int(self.unit.re),
                as_int(self.unit.im),
                tuple(as_int(c.re) for c in self.coeffs),
                tuple(as_int(c.im) for c in self.coeffs),
            )
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

    This kernel carries every exhaustive check, so it runs on plain
    integers over a common denominator and builds exact scalars only for
    the result.
    """
    y = x._check(y)
    alg = x.algebra
    dim = alg.dim
    den_x, xu_re, xu_im, xre, xim = x._int_form()
    den_y, yu_re, yu_im, yre, yim = y._int_form()
    table_den = alg._den
    out_den = den_x * den_y * table_den

    unit_re = (xu_re * yu_re - xu_im * yu_im) * table_den
    unit_im = (xu_re * yu_im + xu_im * yu_re) * table_den
    cre = [0] * dim
    cim = [0] * dim
    for k in range(dim):
        cre[k] = (xu_re * yre[k] - xu_im * yim[k] + yu_re * xre[k] - yu_im * xim[k]) * table_den
        cim[k] = (xu_re * yim[k] + xu_im * yre[k] + yu_re * xim[k] + yu_im * xre[k]) * table_den
    for i in range(dim):
        a, b = xre[i], xim[i]
        if not a and not b:
            continue
        row = alg._int_sparse[i]
        for j in range(dim):
            c, d = yre[j], yim[j]
            if not c and not d:
                continue
            c_re = a * c - b * d
            c_im = a * d + b * c
            pu_re, pu_im, entries = row[j]
            if pu_re or pu_im:
                unit_re += c_re * pu_re - c_im * pu_im
                unit_im += c_re * pu_im + c_im * pu_re
            for k, p_re, p_im in entries:
                if p_im:
                    cre[k] += c_re * p_re - c_im * p_im
                    cim[k] += c_re * p_im + c_im * p_re
                elif p_re == 1:
                    cre[k] += c_re
                    cim[k] += c_im
                elif p_re == -1:
                    cre[k] -= c_re
                    cim[k] -= c_im
                else:
                    cre[k] += c_re * p_re
                    cim[k] += c_im * p_re
    return Element(
        alg,
        GaussianRational(Fraction(unit_re, out_den), Fraction(unit_im, out_den)),
        tuple(
            GaussianRational(Fraction(a, out_den), Fraction(b, out_den))
            for a, b in zip(cre, cim)
        ),
    )


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

