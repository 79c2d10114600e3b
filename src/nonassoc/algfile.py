"""Line-oriented text format for structure-constant algebras.

    # comment
    name splitO
    dimension 7
    unital true
    scalar gaussian-rational
    basis q1,q2,q3,q4,q5,q6,q7   (optional display names)
    roles R0=1,R1=2              (optional; used by search candidates)
    e1 e2 -> e3
    e1 e1 -> -1
    e4 e6 -> 1/2e2 + (1+i)e3 - 2

Products unspecified default to zero; specifying one twice is an error.
Coefficients are exact: integers, fractions p/q, purely imaginary values
like 2i, or parenthesized mixed values like (1-2/3i).  A bare scalar term
is a multiple of the unit and is only legal in unital algebras.  Every
diagnostic carries a 1-based line number.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction

from .algebra import AlgebraDef
from .scalar import GaussianRational, ZERO


class AlgebraParseError(Exception):
    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


_RAT = r"-?\d+(?:/\d+)?"
_PRODUCT_RE = re.compile(r"^e(\d+)\s+e(\d+)\s*->\s*(.*)$")
_BASIS_TERM_RE = re.compile(
    rf"^(?:(?P<paren>\((?P<inner>[^()]*)\))|(?P<plain>{_RAT})?(?P<imag>i)?)\s*\*?\s*e(?P<idx>\d+)$"
)
_SCALAR_RE = re.compile(
    rf"^(?:\((?P<inner>[^()]*)\)|(?P<bare>(?:{_RAT})?i|{_RAT}))$"
)
_MIXED_RE = re.compile(
    rf"^(?P<re>{_RAT})\s*(?:(?P<sign>[+-])\s*(?P<im>(?:\d+(?:/\d+)?)?)i)?$"
)
_IMAG_RE = re.compile(r"^(?P<im>-?(?:\d+(?:/\d+)?)?)i$")
_TOKEN_RE = re.compile(r"[()+-]|[^()+-]+")
_NO_IMAGINARY_PART = Fraction(0)


def _parse_fraction(text: str, line: int, sign: int = 1) -> Fraction:
    """`text` as a rational times `sign`.  The sign goes on the denominator,
    so a zero denominator is reported with the numerator as written."""
    try:
        num, *den = map(int, text.split("/"))
        return Fraction(num, sign * den[0]) if den else Fraction(sign * num)
    except (ValueError, ZeroDivisionError) as exc:
        raise AlgebraParseError(f"bad rational {text!r}: {exc}", line)


def _parse_scalar_body(text: str, line: int) -> GaussianRational:
    text = text.strip()
    m = _IMAG_RE.match(text)
    if m:
        imtxt = m.group("im")
        if imtxt in ("", "-"):
            imtxt += "1"
        return GaussianRational(0, _parse_fraction(imtxt, line))
    m = _MIXED_RE.match(text)
    if not m:
        raise AlgebraParseError(f"bad scalar {text!r}", line)
    re_part = _parse_fraction(m.group("re"), line)
    im_part = Fraction(0)
    if m.group("sign"):
        imtxt = m.group("im") or "1"
        im_part = _parse_fraction(imtxt, line)
        if m.group("sign") == "-":
            im_part = -im_part
    return GaussianRational(re_part, im_part)


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


def _parse_term(sign: int, term: str, dim: int, line: int):
    """Returns (unit_scalar, basis_index_or_None, coefficient)."""
    m = _BASIS_TERM_RE.match(term)
    if m:
        idx = int(m.group("idx"))
        if not 1 <= idx <= dim:
            raise AlgebraParseError(f"basis index e{idx} out of range 1..{dim}", line)
        if m.group("paren") is not None:
            coeff = _parse_scalar_body(m.group("inner"), line)
        elif m.group("imag"):
            base = m.group("plain")
            coeff = GaussianRational(0, _parse_fraction(base, line) if base else 1)
        else:    # a real coefficient, signed as it is parsed
            plain = m.group("plain")
            re_part = _parse_fraction(plain, line, sign) if plain else Fraction(sign)
            return None, idx - 1, GaussianRational(re_part, _NO_IMAGINARY_PART)
        return None, idx - 1, (coeff if sign > 0 else -coeff)
    m = _SCALAR_RE.match(term)
    if m:
        body = m.group("inner") if m.group("inner") is not None else m.group("bare")
        value = _parse_scalar_body(body, line)
        return (value if sign > 0 else -value), None, None
    raise AlgebraParseError(f"unrecognized term {term!r}", line)


@dataclass
class ParsedAlgebraFile:
    algebra: AlgebraDef
    roles: dict[str, int] | None
    scalar_tag: str


def parse_text(text: str, default_name: str = "unnamed") -> ParsedAlgebraFile:
    name = default_name
    dim: int | None = None
    unital = False
    unital_seen = False
    scalar_tag = "gaussian-rational"
    roles: dict[str, int] | None = None
    roles_line = 1
    basis_names: tuple[str, ...] | None = None
    basis_line = 1
    products: dict[tuple[int, int], tuple] = {}
    seen_lines: dict[tuple[int, int], int] = {}
    line_no = 1

    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        head, _, rest = line.partition(" ")
        rest = rest.strip()
        if head == "name":
            if not re.fullmatch(r"[A-Za-z_][A-Za-z0-9_-]*", rest):
                raise AlgebraParseError(f"bad name {rest!r}", line_no)
            name = rest
            continue
        if head == "dimension":
            if dim is not None:
                raise AlgebraParseError("duplicate dimension line", line_no)
            if not re.fullmatch(r"\d+", rest) or int(rest) == 0:
                raise AlgebraParseError(f"dimension must be a positive integer, got {rest!r}", line_no)
            dim = int(rest)
            continue
        if head == "unital":
            if unital_seen:
                raise AlgebraParseError("duplicate unital line", line_no)
            if rest not in ("true", "false"):
                raise AlgebraParseError(f"unital must be true or false, got {rest!r}", line_no)
            unital = rest == "true"
            unital_seen = True
            continue
        if head == "scalar":
            if not rest:
                raise AlgebraParseError("empty scalar tag", line_no)
            scalar_tag = rest
            continue
        if head == "basis":
            names = [n.strip() for n in rest.split(",")]
            if not names or any(not re.fullmatch(r"[A-Za-z_][A-Za-z0-9_]*", n) for n in names):
                raise AlgebraParseError(f"bad basis list {rest!r}", line_no)
            if len(set(names)) != len(names):
                raise AlgebraParseError("duplicate basis name", line_no)
            basis_names = tuple(names)
            basis_line = line_no
            continue
        if head == "roles":
            roles = {}
            roles_line = line_no
            for piece in rest.split(","):
                label, _, idx = piece.strip().partition("=")
                if not label or not re.fullmatch(r"\d+", idx):
                    raise AlgebraParseError(f"bad role assignment {piece.strip()!r}", line_no)
                roles[label] = int(idx) - 1
            continue
        m = _PRODUCT_RE.match(line)
        if m:
            if dim is None:
                raise AlgebraParseError("product line before dimension", line_no)
            i, j = int(m.group(1)), int(m.group(2))
            for idx in (i, j):
                if not 1 <= idx <= dim:
                    raise AlgebraParseError(f"basis index e{idx} out of range 1..{dim}", line_no)
            key = (i - 1, j - 1)
            if key in seen_lines:
                raise AlgebraParseError(
                    f"duplicate product e{i} e{j} (first at line {seen_lines[key]})", line_no
                )
            seen_lines[key] = line_no
            expr = m.group(3).strip()
            unit = ZERO
            coeffs: dict[int, GaussianRational] = {}
            if expr != "0":
                for sign, term in _split_terms(expr, line_no):
                    u, idx, coeff = _parse_term(sign, term, dim, line_no)
                    if u is not None:
                        if not unital:
                            raise AlgebraParseError(
                                "unit multiple in a non-unital algebra", line_no
                            )
                        unit = unit + u
                    else:
                        coeffs[idx] = coeffs[idx] + coeff if idx in coeffs else coeff
            products[key] = (unit, coeffs)
            continue
        raise AlgebraParseError(f"unrecognized line {line!r}", line_no)

    if dim is None:
        raise AlgebraParseError("missing dimension line", line_no)
    if roles is not None:
        for label, idx in roles.items():
            if not 0 <= idx < dim:
                raise AlgebraParseError(f"role {label} index out of range", roles_line)
    if basis_names is not None and len(basis_names) != dim:
        raise AlgebraParseError(
            f"basis list has {len(basis_names)} names for dimension {dim}", basis_line
        )
    algebra = AlgebraDef.from_products(name, dim, products, unital, basis_names)
    return ParsedAlgebraFile(algebra, roles, scalar_tag)


def parse_algebra(text: str) -> AlgebraDef:
    return parse_text(text).algebra


def _scalar_text(value: GaussianRational) -> str:
    if value.im == 0:
        return str(value.re)
    if value.re == 0:
        if value.im == 1:
            return "i"
        if value.im == -1:
            return "-i"
        return f"{value.im}i"
    return f"({value})"


def _coeff_prefix(coeff: GaussianRational) -> tuple[bool, str]:
    """(negative, prefix) so q-terms render as e.g. '', '-', '2', '(1+i)'."""
    if coeff.im == 0:
        neg = coeff.re < 0
        mag = abs(coeff.re)
        return neg, "" if mag == 1 else str(mag)
    if coeff.re == 0:
        neg = coeff.im < 0
        mag = abs(coeff.im)
        return neg, "(i)" if mag == 1 else f"({mag}i)"
    return False, f"({coeff})"


def serialize(alg: AlgebraDef, roles: dict[str, int] | None = None,
              scalar_tag: str = "gaussian-rational") -> str:
    lines = [
        f"name {alg.name}",
        f"dimension {alg.dim}",
        f"unital {'true' if alg.unital else 'false'}",
        f"scalar {scalar_tag}",
    ]
    default_names = tuple(f"e{k + 1}" for k in range(alg.dim))
    if alg.basis_names != default_names:
        lines.append("basis " + ",".join(alg.basis_names))
    if roles:
        pieces = ",".join(f"{label}={idx + 1}" for label, idx in sorted(roles.items(), key=lambda kv: kv[1]))
        lines.append(f"roles {pieces}")
    for i in range(alg.dim):
        for j in range(alg.dim):
            unit, coeffs = alg.structure[i][j]
            parts = []
            if not unit.is_zero():
                parts.append((False, _scalar_text(unit)))
            for k, c in enumerate(coeffs):
                if c.is_zero():
                    continue
                neg, prefix = _coeff_prefix(c)
                parts.append((neg, f"{prefix}e{k + 1}"))
            if not parts:
                continue
            expr = ""
            for pos, (neg, body) in enumerate(parts):
                if pos == 0:
                    expr = f"-{body}" if neg else body
                else:
                    expr += f" - {body}" if neg else f" + {body}"
            lines.append(f"e{i + 1} e{j + 1} -> {expr}")
    return "\n".join(lines) + "\n"
