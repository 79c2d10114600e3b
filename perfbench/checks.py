"""Output checks for the benchmark workloads.

Each check returns None when an operation's output is correct, or a short
reason when it is not.  A law verdict of FAIL is output, not a failure; an
operation fails when it raises, exits with another code than expected, or
prints something other than the reference.
"""

from __future__ import annotations

import json
from fractions import Fraction
from math import lcm
from pathlib import Path

from child import LAWS, SEARCH_RESTARTS

REFERENCE = Path(__file__).resolve().parent / "reference"
GOLDEN = Path("tests") / "golden" / "verify_paper.lines"


def load_references(root: Path) -> dict:
    return {
        "paper": (root / GOLDEN).read_bytes(),
        "laws": json.loads((REFERENCE / "laws.json").read_text(encoding="utf-8")),
        "search": json.loads((REFERENCE / "search.json").read_text(encoding="utf-8")),
    }


def _crashed(op):
    if op["error"] is not None:
        return "raised: " + op["error"].strip().splitlines()[-1]
    return None


def check_paper(op, golden: bytes):
    if reason := _crashed(op):
        return reason
    if op["code"] != 1:
        return f"exit code {op['code']}, expected 1 (C02 and C03 are red by design)"
    if op["stdout"].encode("utf-8") != golden:
        return "output differs from the golden file"
    return None


def _verdict(line):
    """('PASS' | 'FAIL', law name without its degree suffix)."""
    status, _, rest = line.partition(" ")
    law = rest.split(":")[0].split(" ")[0].split("(")[0]
    return status, law


def _line_matches(actual, expected):
    """`expected` is a full line; a [prefix, suffix] pair for a witness whose
    defect is not pinned; {"status", "law"} for a verdict alone, as for the
    laws decided on sampled elements, whose detail text an exact decision
    procedure will change; or None when the reference does not decide."""
    if expected is None:
        return True
    if isinstance(expected, dict):
        return _verdict(actual) == (expected["status"], expected["law"])
    if isinstance(expected, list):
        return actual.startswith(expected[0]) and actual.endswith(expected[1])
    return actual == expected


def check_laws(op, expected):
    """`expected` is {"code": int or None, "lines": [...]}, see `_line_matches`."""
    if reason := _crashed(op):
        return reason
    if expected["code"] is not None and op["code"] != expected["code"]:
        return f"exit code {op['code']}, expected {expected['code']}"
    lines = op["stdout"].splitlines()
    if len(lines) != len(expected["lines"]):
        return f"{len(lines)} verdict lines, expected {len(expected['lines'])}"
    for actual, want in zip(lines, expected["lines"]):
        if not _line_matches(actual, want):
            return f"unexpected verdict line {actual[:120]!r}"
    return None


def check_search(op, traces_text, first_traces_text, reference, seed):
    """The C09 contract: non-increasing traces, identical traces for the same
    seed, and the printed best residual is the best trace end (and equals
    the recorded value for the reference seed)."""
    if reason := _crashed(op):
        return reason
    if op["code"] != 0:
        return f"exit code {op['code']}, expected 0"
    if traces_text is None:
        return "no trace file written"
    if traces_text != first_traces_text:
        return "traces differ from the first pass with the same seed"
    try:
        traces = [[float(v) for v in line.split(",")] for line in traces_text.splitlines()]
    except ValueError:
        return "unreadable trace file"
    if len(traces) != SEARCH_RESTARTS:
        return f"{len(traces)} traces, expected one per restart ({SEARCH_RESTARTS})"
    if any(b > a for t in traces for a, b in zip(t, t[1:])):
        return "a residual trace increases"
    best = [line for line in op["stdout"].splitlines() if line.startswith("best ")]
    if len(best) != 1:
        return "no 'best' line"
    total = best[0].split()[1]
    if total != f"total={min(t[-1] for t in traces):.6e}":
        return f"best {total} is not the best trace end"
    if seed == reference["seed"] and best[0] != reference["best"]:
        return f"{best[0]!r} differs from the reference {reference['best']!r}"
    return None


def best_residual(op):
    for line in op["stdout"].splitlines():
        if line.startswith("best total="):
            return float(line.split()[1].removeprefix("total="))
    return None


# -- independent reference for the exported search candidate ----------------
#
# The candidate's structure constants are doubles, exported exactly as
# p / 2^k.  Scaled by the common denominator they become Python integers,
# so each multilinear law is decided here exactly on basis triples, in the
# same lexicographic order as the checker, without using `nonassoc`.

def _scaled_table(constants):
    fracs = [[[Fraction(v) for v in row] for row in plane] for plane in constants]
    den = lcm(*(f.denominator for plane in fracs for row in plane for f in row))
    return [[[int(f * den) for f in row] for row in plane] for plane in fracs]


def _candidate_laws(table):
    """Defect functions on basis index triples, per multilinear law."""
    dim = len(table)

    def times_right(u, k):    # u e_k
        out = [0] * dim
        for m, um in enumerate(u):
            if um:
                out = [o + um * t for o, t in zip(out, table[m][k])]
        return out

    def times_left(k, u):     # e_k u
        out = [0] * dim
        for m, um in enumerate(u):
            if um:
                out = [o + um * t for o, t in zip(out, table[k][m])]
        return out

    def add(*vs):
        return [sum(col) for col in zip(*vs)]

    def neg(v):
        return [-x for x in v]

    def assoc(i, j, k):
        return add(times_right(table[i][j], k), neg(times_left(i, table[j][k])))

    def bracket(i, j):
        return add(table[i][j], neg(table[j][i]))

    def bracket_with(u, k):   # [u, e_k]
        return add(times_right(u, k), neg(times_left(k, u)))

    laws = {
        "associative": [("associativity", assoc)],
        "alternative": [
            ("left-alternative", lambda i, j, k: add(assoc(i, j, k), assoc(j, i, k))),
            ("right-alternative", lambda i, j, k: add(assoc(i, j, k), assoc(i, k, j))),
        ],
        "flexible": [("flexible law", lambda i, j, k: add(assoc(i, j, k), assoc(k, j, i)))],
        "lie_admissible": [("Jacobi identity for the commutator", lambda i, j, k: add(
            bracket_with(bracket(i, j), k), bracket_with(bracket(k, i), j),
            bracket_with(bracket(j, k), i)))],
        "derivation_property": [("bracket Leibniz rule", lambda i, j, k: add(
            neg(bracket_with(table[i][j], k)),               # [e_k, e_i e_j]
            neg(times_left(i, bracket(k, j))),
            neg(times_right(bracket(k, i), j))))],
    }
    return laws, times_right, times_left


def candidate_reference(constants):
    """Expected `check` output lines and exit code for the exported candidate."""
    import numpy as np

    table = _scaled_table(constants)
    dim = len(table)
    laws, times_right, times_left = _candidate_laws(table)
    names = [f"e{k + 1}" for k in range(dim)]
    triples = [(i, j, k) for i in range(dim) for j in range(dim) for k in range(dim)]
    expected = {}
    for law, tests in laws.items():
        expected[law] = f"PASS {law}"
        for t in triples:
            hit = next((tag for tag, fn in tests if any(fn(*t))), None)
            if hit:
                args = ", ".join(names[x] for x in t)
                expected[law] = [f"FAIL {law}: ({args}) -> defect ", f" [{hit}]"]
                break
    # A None entry is not decided by this reference; any verdict is accepted.
    fail = {"status": "FAIL"}
    commutative = all(table[i][j] == table[j][i] for i in range(dim) for j in range(dim))
    expected["jordan"] = None if commutative else dict(fail, law="jordan")
    cubes = all(times_right(table[i][i], i) == times_left(i, table[i][i]) for i in range(dim))
    expected["power_associative"] = None if cubes else dict(fail, law="power_associative")
    # An internal unit u solves u e_j = e_j = e_j u; a clearly nonzero
    # least-squares residual shows that the system has no solution.
    c = np.array(constants, dtype=float)
    rows = np.concatenate([c.transpose(1, 2, 0).reshape(-1, dim),
                           c.transpose(0, 2, 1).reshape(-1, dim)])
    rhs = np.concatenate([np.eye(dim).ravel(), np.eye(dim).ravel()])
    _, res, _, _ = np.linalg.lstsq(rows, rhs, rcond=None)
    expected["unital"] = dict(fail, law="unital") if res.size and res[0] > 1e-6 else None

    lines = [expected[law] for law in LAWS]
    code = 1 if any(map(_fails, lines)) else (None if None in lines else 0)
    return {"code": code, "lines": lines}


def _fails(expected):
    if isinstance(expected, list):       # a witness
        return True
    if isinstance(expected, dict):
        return expected["status"] == "FAIL"
    return expected is not None and expected.startswith("FAIL")
