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

Each product line is read by one compiled term pattern matched along the
line, term after term; the diagnostics are those of splitting the line on
signs outside parentheses first and then reading each term.  Parsing keeps
every coefficient in integers, as (re, im, q) for (re + im i) / q, and
builds `AlgebraDef.tensor` once at the end; `serialize` writes each cell
straight from the tensor with `scalar.sum_text`, the writer of `Element`
text, so a pure imaginary multiple reads `2ie3`.
"""

from __future__ import annotations

import math
import re
from typing import NamedTuple

from .algebra import AlgebraDef
from .scalar import sum_text


class AlgebraParseError(Exception):
    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


_NUM = r"\d+(?:/\d+)?"
_PRODUCT_RE = re.compile(r"^e(\d+)\s+e(\d+)\s*->\s*(.*)$")
_MIXED_RE = re.compile(
    rf"^(?P<re>-?{_NUM})\s*(?:(?P<sign>[+-])\s*(?P<im>(?:{_NUM})?)i)?$"
)
_IMAG_RE = re.compile(rf"^(?P<im>-?(?:{_NUM})?)i$")
# One term at a time along a product expression: its sign (absent only at
# the start), then a scalar or basis term, or else any other text up to the
# next sign outside parentheses.  Text with nested or unpaired parentheses
# matches none of these, and `_paren_end` walks it.
_TERM_RE = re.compile(
    rf"(?P<sign>[+-]|(?![+-]))\s*"
    rf"(?:(?:\((?P<inner>[^()]*)\)|(?P<plain>{_NUM})?(?P<imag>i)?)(?:\s*\*?\s*e(?P<idx>\d+))?"
    rf"|(?P<other>(?:[^()+-]|\([^()]*\))+))\s*(?=[+-]|\Z)"
)


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


def _paren_end(expr: str, start: int, line: int) -> int:
    """Where the term at `start`, whose parentheses nest or do not pair,
    ends: at the next sign outside parentheses, or at the end of `expr`."""
    depth = 0
    for end, ch in enumerate(expr[start:], start):
        if ch in "+-" and not depth:
            return end
        depth += (ch == "(") - (ch == ")")
        if depth < 0:
            break
    if depth:
        raise AlgebraParseError("unbalanced parentheses", line)
    return len(expr)


def _terms(expr: str, dim: int, unital: bool, line: int) -> list[tuple[int, int, int, int]]:
    """(index, re, im, q) for each term of the stripped product expression
    `expr`: the term is (re + im i) / q times e_index, or times the unit for
    index 0.  The whole line is split first, so a misplaced sign or
    parenthesis is reported before any term; then the terms are read in
    order, each checked for its basis index, coefficient and unit."""
    found, pos = [], 0
    while pos < len(expr) or not found:
        m = _TERM_RE.match(expr, pos)
        if m is None:       # nested or unpaired parentheses: unrecognized, or an error
            start = pos + (expr[pos] in "+-")
            pos = _paren_end(expr, start, line)
            found.append(("", None, None, None, None, expr[start:pos]))
        elif m.lastindex == 1:     # only the sign: no term before the next sign or the end
            if m.end() < len(expr):
                raise AlgebraParseError("doubled sign", line)
            raise AlgebraParseError("trailing operator" if found else "empty expression", line)
        else:
            found.append(m.groups())
            pos = m.end()
    terms = []
    for sign, inner, plain, imag, idx, other in found:
        if other is not None:
            raise AlgebraParseError(f"unrecognized term {other.strip()!r}", line)
        k = int(idx) if idx else 0
        if idx and not 1 <= k <= dim:
            raise AlgebraParseError(f"basis index e{k} out of range 1..{dim}", line)
        if inner is not None:
            re_num, im_num, den = _parse_scalar_body(inner, line)
        else:
            num, den = _ratio(plain, line) if plain else (1, 1)
            re_num, im_num = (0, num) if imag else (num, 0)
        if not (k or unital):
            raise AlgebraParseError("unit multiple in a non-unital algebra", line)
        terms.append((k, -re_num, -im_num, den) if sign == "-" else (k, re_num, im_num, den))
    return terms


class ParsedAlgebraFile(NamedTuple):
    algebra: AlgebraDef
    roles: dict[str, int] | None
    scalar_tag: str


# header lines that may appear at most once; `basis` may repeat (the last wins)
_HEADERS = frozenset(("name", "dimension", "unital", "scalar", "roles"))


def parse_text(text: str) -> ParsedAlgebraFile:
    name = "unnamed"
    dim: int | None = None
    unital = False
    scalar_tag = "gaussian-rational"
    roles: dict[str, int] | None = None
    roles_line = 1
    basis_names: tuple[str, ...] | None = None
    basis_line = 1
    terms: list[tuple[int, list]] = []     # (cell, its (index, re, im, q) terms)
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
                terms.append((cell, _terms(expr, dim, unital, line_no)))
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
    dens = {q for _, cell_terms in terms for *_, q in cell_terms}
    den = math.lcm(*dens)
    factor = {q: den // q for q in dens}
    n = dim + 1
    cells = [[0] * (2 * n) for _ in range(dim * dim)]
    for cell, cell_terms in terms:
        vec = cells[cell]
        for idx, re_num, im_num, q in cell_terms:    # repeated terms add up
            vec[idx] += re_num * factor[q]
            if im_num:
                vec[n + idx] += im_num * factor[q]
    algebra = AlgebraDef(name, dim, den, cells, unital, basis_names)
    return ParsedAlgebraFile(algebra, roles, scalar_tag)


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
    names = ("", *(f"e{k}" for k in range(1, n)))
    for s, vec in enumerate(alg.tensor[1:, 1:].reshape(alg.dim**2, -1).tolist()):
        if any(vec):
            expr = sum_text(zip(vec[:n], vec[n:] or [0] * n, names), den, "")
            lines.append(f"e{s // alg.dim + 1} e{s % alg.dim + 1} -> {expr}")
    return "\n".join(lines) + "\n"
