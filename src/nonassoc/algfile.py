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
is a multiple of the unit and is only legal in unital algebras.  A roles
line gives each label once and each its own index.  Every diagnostic
carries a 1-based line number.

Parsing keeps every coefficient in integers, as (re, im, q) for
(re + im i) / q, and builds `AlgebraDef.tensor` once at the end;
`serialize` writes straight from the tensor.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

from .algebra import AlgebraDef
from .scalar import _gaussian_text, _rational_text


class AlgebraParseError(Exception):
    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


_RAT = r"-?\d+(?:/\d+)?"
_PRODUCT_RE = re.compile(r"^e(\d+)\s+e(\d+)\s*->\s*(.*)$")
_BASIS_TERM_RE = re.compile(
    rf"^(?:\((?P<inner>[^()]*)\)|(?P<plain>{_RAT})?(?P<imag>i)?)\s*\*?\s*e(?P<idx>\d+)$"
)
_SCALAR_RE = re.compile(
    rf"^(?:\((?P<inner>[^()]*)\)|(?P<bare>(?:{_RAT})?i|{_RAT}))$"
)
_MIXED_RE = re.compile(
    rf"^(?P<re>{_RAT})\s*(?:(?P<sign>[+-])\s*(?P<im>(?:\d+(?:/\d+)?)?)i)?$"
)
_IMAG_RE = re.compile(r"^(?P<im>-?(?:\d+(?:/\d+)?)?)i$")
_TOKEN_RE = re.compile(r"[()+-]|[^()+-]+")


def _ratio(text: str, line: int) -> tuple[int, int]:
    """`text`, a rational p or p/q, as integers (p, q) with q > 0.  A zero
    denominator is reported with the numerator as written."""
    num, _, den = text.partition("/")
    try:
        num, den = int(num), int(den or 1)
    except ValueError as exc:
        raise AlgebraParseError(f"bad rational {text!r}: {exc}", line)
    if not den:
        raise AlgebraParseError(f"bad rational {text!r}: Fraction({num}, 0)", line)
    return num, den


def _parse_scalar_body(text: str, line: int) -> tuple[int, int, int]:
    """(re, im, q): the scalar (re + im i) / q."""
    text = text.strip()
    m = _IMAG_RE.match(text)
    if m:
        imtxt = m.group("im")
        return 0, *_ratio(imtxt + "1" if imtxt in ("", "-") else imtxt, line)
    m = _MIXED_RE.match(text)
    if not m:
        raise AlgebraParseError(f"bad scalar {text!r}", line)
    re_num, re_den = _ratio(m.group("re"), line)
    if not m.group("sign"):
        return re_num, 0, re_den
    im_num, im_den = _ratio(m.group("im") or "1", line)
    if m.group("sign") == "-":
        im_num = -im_num
    return re_num * im_den, im_num * re_den, re_den * im_den


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


def _parse_term(sign: int, term: str, dim: int, line: int) -> tuple[int, int, int, int]:
    """(index, re, im, q): the term is (re + im i) / q times e_index, or
    times the unit for index 0."""
    m = _BASIS_TERM_RE.match(term)
    if m:
        inner, plain, imag, idx = m.groups()
        idx = int(idx)
        if not 1 <= idx <= dim:
            raise AlgebraParseError(f"basis index e{idx} out of range 1..{dim}", line)
        if inner is not None:
            re_num, im_num, den = _parse_scalar_body(inner, line)
        else:
            num, den = _ratio(plain, line) if plain else (1, 1)
            re_num, im_num = (0, num) if imag else (num, 0)
        return idx, sign * re_num, sign * im_num, den
    m = _SCALAR_RE.match(term)
    if m:
        body = m.group("inner") if m.group("inner") is not None else m.group("bare")
        re_num, im_num, den = _parse_scalar_body(body, line)
        return 0, sign * re_num, sign * im_num, den
    raise AlgebraParseError(f"unrecognized term {term!r}", line)


@dataclass
class ParsedAlgebraFile:
    algebra: AlgebraDef
    roles: dict[str, int] | None
    scalar_tag: str


# header lines that may appear at most once; `basis` may repeat (the last wins)
_HEADERS = frozenset(("name", "dimension", "unital", "scalar", "roles"))


def parse_text(text: str, default_name: str = "unnamed") -> ParsedAlgebraFile:
    name = default_name
    dim: int | None = None
    unital = False
    scalar_tag = "gaussian-rational"
    roles: dict[str, int] | None = None
    roles_line = 1
    basis_names: tuple[str, ...] | None = None
    basis_line = 1
    terms: list[tuple[int, int, int, int, int]] = []    # (cell, index, re, im, q)
    seen_lines: dict[tuple[int, int], int] = {}
    headers: set[str] = set()
    line_no = 1

    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        head, _, rest = line.partition(" ")
        rest = rest.strip()
        if head in _HEADERS:
            if head in headers:
                raise AlgebraParseError(f"duplicate {head} line", line_no)
            headers.add(head)
        if head == "name":
            if not re.fullmatch(r"[A-Za-z_][A-Za-z0-9_-]*", rest):
                raise AlgebraParseError(f"bad name {rest!r}", line_no)
            name = rest
            continue
        if head == "dimension":
            if not re.fullmatch(r"\d+", rest) or int(rest) == 0:
                raise AlgebraParseError(f"dimension must be a positive integer, got {rest!r}", line_no)
            dim = int(rest)
            continue
        if head == "unital":
            if rest not in ("true", "false"):
                raise AlgebraParseError(f"unital must be true or false, got {rest!r}", line_no)
            unital = rest == "true"
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
                if label in roles:
                    raise AlgebraParseError(f"duplicate role {label}", line_no)
                if int(idx) - 1 in roles.values():
                    raise AlgebraParseError(f"role {label} repeats index {idx}", line_no)
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
            if expr != "0":
                cell = (i - 1) * dim + j - 1
                for sign, term in _split_terms(expr, line_no):
                    idx, re_num, im_num, den = _parse_term(sign, term, dim, line_no)
                    if idx == 0 and not unital:
                        raise AlgebraParseError("unit multiple in a non-unital algebra", line_no)
                    terms.append((cell, idx, re_num, im_num, den))
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
    dens = {q for *_, q in terms}
    den = math.lcm(*dens)
    factor = {q: den // q for q in dens}
    n = dim + 1
    cells = [[0] * (2 * n) for _ in range(dim * dim)]
    for cell, idx, re_num, im_num, q in terms:    # repeated terms add up
        vec, f = cells[cell], factor[q]
        vec[idx] += re_num * f
        if im_num:
            vec[n + idx] += im_num * f
    algebra = AlgebraDef(name, dim, den, cells, unital, basis_names)
    return ParsedAlgebraFile(algebra, roles, scalar_tag)


def parse_algebra(text: str) -> AlgebraDef:
    return parse_text(text).algebra


def _coeff_prefix(re_num: int, im_num: int, den: int) -> tuple[bool, str]:
    """(negative, prefix) so q-terms render as e.g. '', '-', '2', '(1+i)'."""
    if re_num and im_num:
        return False, f"({_gaussian_text(re_num, im_num, den)})"
    part = re_num or im_num
    mag = "" if abs(part) == den else _rational_text(abs(part), den)
    return part < 0, f"({mag}i)" if im_num else mag


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
    n, den = alg.dim + 1, alg._den
    for i, plane in enumerate(alg.tensor.tolist()[1:], start=1):
        for j, vec in enumerate(plane[1:], start=1):
            re_parts, im_parts = vec[:n], vec[n:] or [0] * n
            parts = []
            if re_parts[0] or im_parts[0]:
                text = _gaussian_text(re_parts[0], im_parts[0], den)
                parts.append((False, f"({text})" if re_parts[0] and im_parts[0] else text))
            for k in range(1, n):
                if re_parts[k] or im_parts[k]:
                    neg, prefix = _coeff_prefix(re_parts[k], im_parts[k], den)
                    parts.append((neg, f"{prefix}e{k}"))
            if not parts:
                continue
            (neg, body), *rest = parts
            expr = ("-" if neg else "") + body + "".join(
                f" - {b}" if minus else f" + {b}" for minus, b in rest)
            lines.append(f"e{i} e{j} -> {expr}")
    return "\n".join(lines) + "\n"
