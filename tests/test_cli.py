import dataclasses
import hashlib
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from nonassoc import cli
from nonassoc.cli import main
from nonassoc.search import default_roles
from oracle import fixture_path, fixture_text

GOLDEN = pathlib.Path(__file__).parent / "golden" / "verify_paper.lines"
ZORN_GOLDEN = GOLDEN.with_name("table_splitO_zorn.txt")


@pytest.fixture
def runner():
    return CliRunner()


def test_check_passing_property(runner):
    result = runner.invoke(main, ["check", fixture_path("splitO.alg"), "--properties", "flexible"])
    assert result.exit_code == 0
    assert "PASS flexible" in result.output


def test_check_failing_property_prints_witness(runner):
    result = runner.invoke(
        main, ["check", fixture_path("splitO.alg"), "--properties", "lie-admissible"]
    )
    assert result.exit_code == 1
    assert "FAIL lie_admissible" in result.output
    assert "q5" in result.output  # the defect element


def test_check_multiple_properties(runner):
    result = runner.invoke(
        main,
        ["check", fixture_path("quaternion.alg"),
         "--properties", "associative,alternative,flexible,lie-admissible,unital"],
    )
    assert result.exit_code == 0
    assert result.output.count("PASS") == 5


def test_check_unknown_property(runner):
    result = runner.invoke(
        main, ["check", fixture_path("splitO.alg"), "--properties", "bogus"]
    )
    assert result.exit_code == 2


def test_check_malformed_file(runner, tmp_path):
    bad = tmp_path / "malformed.alg"
    bad.write_text("dimension 2\ne1 e9 -> e1\n")
    result = runner.invoke(main, ["check", str(bad), "--properties", "flexible"])
    assert result.exit_code == 2
    assert "line 2" in result.output


def test_check_with_no_property_named_is_an_input_error(runner):
    result = runner.invoke(main, ["check", fixture_path("splitO.alg"), "--properties", ","])
    assert result.exit_code == 2
    assert result.stderr == "error: no properties requested\n"


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                    reason="this Python has no integer-string digit limit")
def test_a_coefficient_past_the_integer_digit_limit_is_a_bad_rational(runner, tmp_path):
    bad = tmp_path / "long.alg"
    bad.write_text(f"dimension 1\nunital false\ne1 e1 -> {'7' * 5000}e1\n")
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        result = runner.invoke(main, ["check", str(bad), "--properties", "flexible"])
    finally:
        sys.set_int_max_str_digits(limit)
    assert result.exit_code == 2
    assert isinstance(result.exception, SystemExit)
    assert result.stderr.startswith(f"error: {bad}: line 3: bad rational '777")


def test_check_missing_file(runner):
    result = runner.invoke(main, ["check", "/no/such/file.alg", "--properties", "flexible"])
    assert result.exit_code == 2


@pytest.mark.parametrize("args", [["check", "{}", "--properties", "associative"], ["table", "{}"],
                                  ["search", "--iters", "0", "--init-file", "{}"]],
                         ids=["check", "table", "search"])
def test_a_file_that_is_not_utf8_is_an_input_error(runner, tmp_path, args):
    bad = tmp_path / "latin1.alg"
    bad.write_bytes(b"dimension 1\nunital false\n# \xff\n")
    result = runner.invoke(main, [arg.format(bad) for arg in args])
    assert isinstance(result.exception, SystemExit) and result.exit_code == 2
    assert result.stdout == ""
    assert result.stderr.startswith(f"error: {bad}: 'utf-8' codec can't decode byte 0xff")
    assert result.stderr.count("\n") == 1


QUATERNION = fixture_text("quaternion.alg")
HEADER = "".join(line for line in QUATERNION.splitlines(True) if not line.startswith("e"))
PRODUCT_LINES = [line for line in QUATERNION.splitlines(True) if line.startswith("e")]


@st.composite
def malformed_product_lines(draw):
    """The quaternion fixture with up to 8 characters of its product lines
    inserted, deleted or replaced, each from the arrow of a line on, where
    the product grammar is.  The header lines stay as they are: a huge
    `dimension` would allocate without bound."""
    lines = list(PRODUCT_LINES)
    for _ in range(draw(st.integers(1, 8))):
        k = draw(st.integers(0, len(lines) - 1))
        line = lines[k]
        start = max(line.find("->"), 0)
        at = start + draw(st.integers(0, len(line) - start))
        edit = draw(st.sampled_from(["insert", "delete", "replace"]))
        char = "" if edit == "delete" else draw(st.sampled_from("0123456789/i+-() e")
                                                 | st.characters())
        lines[k] = line[:at] + char + line[at + (edit != "insert"):]
    return HEADER + "".join(lines)


@settings(settings.get_profile("exact"), max_examples=25)
@given(malformed_product_lines())
def test_malformed_product_lines_fail_cleanly(tmp_path_factory, text):
    path = tmp_path_factory.mktemp("malformed") / "table.alg"
    path.write_text(text, encoding="utf-8")
    result = CliRunner().invoke(main, ["check", str(path), "--properties", "associative,unital"])
    assert result.exception is None or isinstance(result.exception, SystemExit)
    if result.exit_code == 2:
        assert result.stdout == ""
        assert result.stderr.startswith("error: ") and result.stderr.count("\n") == 1
    else:
        lines = result.stdout.splitlines()
        assert [line.split()[1].rstrip(":") for line in lines] == ["associative", "unital"]
        assert all(line.startswith(("PASS ", "FAIL ")) for line in lines)
        assert result.exit_code == int(any(line.startswith("FAIL ") for line in lines))
        assert result.stderr == ""


def test_table_split_octonions(runner):
    result = runner.invoke(main, ["table", fixture_path("splitO.alg")])
    assert result.exit_code == 0
    rows = result.output.splitlines()
    header = rows[0].split()
    q1_row = rows[1].split()
    assert header[:2] == ["q1", "q2"]
    # row q1, column q2 -> q3
    assert q1_row[0] == "q1" and q1_row[2] == "q3"
    q7_row = rows[7].split()
    assert q7_row[0] == "q7" and q7_row[-1] == "1"


def test_table_complex_single_cell(runner):
    result = runner.invoke(main, ["table", fixture_path("complex.alg")])
    assert result.exit_code == 0
    rows = [r for r in result.output.splitlines() if r.strip()]
    assert rows[-1].split() == ["e1", "-1"]


def test_table_cells_are_products_on_a_candidate(runner, tmp_path):
    from nonassoc.algebra import multiply
    from nonassoc.algfile import parse_text, serialize
    from nonassoc.search import CandidateAlgebra, candidate_to_algebra

    path = tmp_path / "cand.alg"
    path.write_text(serialize(candidate_to_algebra(CandidateAlgebra.random(1))))
    alg = parse_text(path.read_text()).algebra
    result = runner.invoke(main, ["table", str(path)])
    assert result.exit_code == 0
    header, *rows = result.output.splitlines()
    basis = alg.basis()
    # dim + 1 columns, right-aligned to a common width, two spaces apart
    width = (len(header) + 2) // (alg.dim + 1) - 2
    assert len(rows) == alg.dim
    for i, row in enumerate(rows):
        cells = [row[start:start + width].strip()
                 for start in range(0, len(row), width + 2)]
        assert cells[0] == alg.basis_names[i]
        assert cells[1:] == [str(multiply(basis[i], b)) for b in basis]


def test_table_zorn_flag(runner):
    result = runner.invoke(main, ["table", fixture_path("splitO.alg"), "--zorn"])
    assert result.exit_code == 0
    assert "Zorn images:" in result.output
    assert "[-1, (0, 0, 0); (0, 0, 0), 1]" in result.output  # q7


def test_table_zorn_flag_full_output(runner):
    result = runner.invoke(main, ["table", fixture_path("splitO.alg"), "--zorn"])
    assert result.exit_code == 0
    assert result.output == ZORN_GOLDEN.read_text()


def test_table_zorn_flag_rejected_elsewhere(runner):
    result = runner.invoke(main, ["table", fixture_path("quaternion.alg"), "--zorn"])
    assert result.exit_code == 2
    # rejected before the table is printed
    assert result.stdout == ""
    assert result.stderr.splitlines() == ["error: --zorn applies to the split-octonion table only"]


def test_verify_paper_lines_matches_golden(runner):
    result = runner.invoke(main, ["verify-paper", "--format", "lines"])
    assert result.output == GOLDEN.read_text()
    # FAIL entries exist (documented discrepancies), so the exit code is 1
    assert result.exit_code == 1


def report_details():
    from nonassoc.report import build_verify_report

    return {e.eq_id: e.detail for e in build_verify_report().entries}


def test_p_q_details_are_worded_from_the_computed_verdict(monkeypatch):
    from nonassoc import superspace

    verified = report_details()
    real = superspace.verify_susy
    monkeypatch.setattr(superspace, "verify_susy", lambda gens: dataclasses.replace(
        real(gens), p_q_brackets_vanish=False))
    details = report_details()
    for eq_id in ("Eq. 1-10", "Eq. 1-20"):
        assert "= 0" in verified[eq_id]
        assert "= 0" not in details[eq_id]
        assert "do not all vanish" in details[eq_id]
    assert {k: v for k, v in details.items() if k not in ("Eq. 1-10", "Eq. 1-20")} == {
        k: v for k, v in verified.items() if k not in ("Eq. 1-10", "Eq. 1-20")}


def test_lambda_details_say_when_lambda_is_not_uniform(monkeypatch):
    from nonassoc import report

    verified = report_details()
    real = report.verify_spin_decomposition
    monkeypatch.setattr(report, "verify_spin_decomposition", lambda: dataclasses.replace(
        real(), bracket_constant_uniform=False))
    details = report_details()
    for eq_id in ("Eq. 3-30", "Const lambda"):
        assert "not uniform" not in verified[eq_id]
        assert details[eq_id].startswith("lambda = 1 (not uniform over i)")


def test_verify_paper_text_summary(runner):
    result = runner.invoke(main, ["verify-paper", "--format", "text"])
    assert "identity checklist" in result.output
    assert "passed" in result.output and "recorded" in result.output


def test_verify_paper_checklist_is_closed(runner):
    result = runner.invoke(main, ["verify-paper", "--format", "lines"])
    ids = [line.split("\t")[0] for line in result.output.splitlines()]
    assert len(ids) == len(set(ids)) == 24


def test_search_deterministic_output(runner, tmp_path):
    args = ["search", "--iters", "40", "--seed", "7", "--restarts", "2",
            "--out", str(tmp_path / "a.alg"), "--trace-out", str(tmp_path / "a.trace")]
    first = runner.invoke(main, args)
    a_alg = (tmp_path / "a.alg").read_text()
    a_trace = (tmp_path / "a.trace").read_text()
    args2 = ["search", "--iters", "40", "--seed", "7", "--restarts", "2",
             "--out", str(tmp_path / "b.alg"), "--trace-out", str(tmp_path / "b.trace")]
    second = runner.invoke(main, args2)
    assert first.exit_code == second.exit_code == 0
    assert first.output == second.output
    assert a_alg == (tmp_path / "b.alg").read_text()
    assert a_trace == (tmp_path / "b.trace").read_text()


def test_search_zero_iters(runner, tmp_path):
    result = runner.invoke(main, ["search", "--iters", "0", "--seed", "3",
                                  "--out", str(tmp_path / "c.alg")])
    assert result.exit_code == 0
    assert "best total=" in result.output


def test_search_trace_file_non_increasing(runner, tmp_path):
    trace_file = tmp_path / "t.trace"
    result = runner.invoke(main, ["search", "--restarts", "4", "--seed", "1",
                                  "--iters", "60", "--trace-out", str(trace_file)])
    assert result.exit_code == 0
    lines = trace_file.read_text().splitlines()
    assert len(lines) == 4
    for line in lines:
        vals = [float(v) for v in line.split(",")]
        assert all(a >= b for a, b in zip(vals, vals[1:]))


def test_search_frozen_so31(runner):
    result = runner.invoke(main, ["search", "--freeze", "M", "--init", "so31",
                                  "--iters", "30", "--seed", "2"])
    assert result.exit_code == 0
    assert "lorentz=0.000000e+00" in result.output


def test_search_candidate_round_trips_through_parser(runner, tmp_path):
    out = tmp_path / "cand.alg"
    result = runner.invoke(main, ["search", "--iters", "80", "--seed", "11",
                                  "--init", "random", "--out", str(out)])
    assert result.exit_code == 0
    from nonassoc.algfile import parse_text

    parsed = parse_text(out.read_text())
    assert parsed.algebra.dim == 15
    assert parsed.roles is not None and parsed.roles["R0"] == 0


def test_search_init_file_round_trip(runner, tmp_path):
    out = tmp_path / "seeded.alg"
    first = runner.invoke(main, ["search", "--iters", "50", "--seed", "4",
                                 "--init", "random", "--out", str(out)])
    assert first.exit_code == 0
    resumed = runner.invoke(main, ["search", "--iters", "0", "--seed", "4",
                                   "--init-file", str(out)])
    assert resumed.exit_code == 0
    # the resumed run starts exactly where the exported candidate left off
    line = next(l for l in first.output.splitlines() if l.startswith("best "))
    assert line in resumed.output


def test_search_header_names_the_init_file_start(runner, tmp_path):
    out = tmp_path / "seeded.alg"
    assert runner.invoke(main, ["search", "--iters", "0", "--init", "random",
                                "--out", str(out)]).exit_code == 0
    resumed = runner.invoke(main, ["search", "--iters", "0", "--init-file", str(out)])
    assert resumed.exit_code == 0
    assert "restarts=1 iters=0 seed=0 init=file" in resumed.output.splitlines()


@pytest.mark.parametrize("roles, message", [
    ("R0=1,R0=2", "line 3: duplicate role R0"),
    ("R0=1,R1=1", "line 3: role R1 repeats index 1"),
])
def test_search_init_file_rejects_an_ambiguous_roles_line(runner, tmp_path, roles, message):
    bad = tmp_path / "aliased.alg"
    bad.write_text(f"dimension 15\nunital false\nroles {roles}\ne1 e2 -> e3\n")
    result = runner.invoke(main, ["search", "--iters", "0", "--init-file", str(bad)])
    assert result.exit_code == 2
    assert message in result.output


@pytest.mark.parametrize("header", ["name a", "scalar float64", "roles R1=2"])
def test_check_rejects_a_repeated_header_line(runner, tmp_path, header):
    word = header.split()[0]
    bad = tmp_path / "twice.alg"
    bad.write_text(f"name a\nscalar float64\nroles R0=1\ndimension 2\n{header}\n")
    result = runner.invoke(main, ["check", str(bad), "--properties", "flexible"])
    assert result.exit_code == 2
    assert f"error: {bad}: line 5: duplicate {word} line" in result.stderr


def test_search_init_file_requires_roles(runner, tmp_path):
    bad = tmp_path / "noroles.alg"
    bad.write_text("dimension 15\nunital false\ne1 e2 -> e3\n")
    result = runner.invoke(main, ["search", "--iters", "0", "--init-file", str(bad)])
    assert result.exit_code == 2


@pytest.mark.parametrize("unital, roles, product, message", [
    ("false", "R0=1", "2ie3", "candidate structure constants must be real"),
    ("true", "R0=1", "e3 + 1", "candidate algebras carry no unit multiples"),
    ("false", ",".join(f"{label}={k + 1}" for label, k in default_roles().items()
                       if label != "R0"), "e3", "missing role slots: ['R0']"),
], ids=["imaginary", "unit-multiple", "no-R0"])
def test_search_init_file_rejects_what_a_candidate_cannot_hold(runner, tmp_path, unital, roles,
                                                                product, message):
    bad = tmp_path / "bad.alg"
    bad.write_text(f"dimension 15\nunital {unital}\nroles {roles}\ne1 e2 -> {product}\n")
    result = runner.invoke(main, ["search", "--iters", "0", "--init-file", str(bad)])
    assert result.exit_code == 2
    assert result.stderr == f"error: {message}\n"


def test_search_init_file_rejects_a_constant_beyond_the_double_range(runner, tmp_path):
    bad = tmp_path / "huge.alg"
    bad.write_text(f"dimension 15\nunital false\nroles R0=1\ne1 e2 -> {10**400}e3\n")
    result = runner.invoke(main, ["search", "--iters", "0", "--init-file", str(bad)])
    assert result.exit_code == 2
    assert "error: candidate structure constants must lie in the double range" in result.stderr


@pytest.mark.parametrize("value", [float("inf"), float("nan")])
def test_search_export_rejects_a_constant_that_is_not_finite(runner, tmp_path, monkeypatch, value):
    # no search step reaches such a constant, so the start is made to hold one
    from nonassoc.search import CandidateAlgebra

    start = CandidateAlgebra.random(0)
    start.c[0, 1, 2] = value
    monkeypatch.setattr(CandidateAlgebra, "random", classmethod(lambda cls, seed: start))
    out = tmp_path / "cand.alg"
    with np.errstate(invalid="ignore"):     # the residual of such a start is not finite either
        result = runner.invoke(main, ["search", "--iters", "0", "--init", "random",
                                      "--out", str(out)])
    assert result.exit_code == 2
    assert "error: candidate structure constants must be finite" in result.stderr


def test_search_rejects_bad_flags(runner):
    result = runner.invoke(main, ["search", "--restarts", "0"])
    assert result.exit_code == 2
    result = runner.invoke(main, ["search", "--freeze", "Q"])
    assert result.exit_code == 2


@pytest.mark.parametrize("flag, value", [("--step", "nan"), ("--step", "inf"), ("--tol", "nan")])
def test_search_rejects_non_finite_settings(runner, flag, value):
    result = runner.invoke(main, ["search", "--iters", "5", flag, value])
    assert result.exit_code == 2
    assert "error:" in result.stderr


@pytest.mark.parametrize("init", ["zero", "random"])
def test_search_rejects_negative_seed(runner, init):
    result = runner.invoke(main, ["search", "--iters", "5", "--seed", "-1", "--init", init])
    assert result.exit_code == 2
    assert isinstance(result.exception, SystemExit)
    assert "error: invalid value for '--seed'" in result.stderr.lower()


@pytest.mark.parametrize("option", ["--out", "--trace-out"])
def test_search_unwritable_output_is_an_input_error(runner, tmp_path, monkeypatch, option):
    """An output path that cannot be opened exits 2 before the search runs."""
    searched = []
    monkeypatch.setattr(cli, "run_search", lambda *args, **kwargs: searched.append(args))
    path = tmp_path / "missing" / "x.out"
    result = runner.invoke(main, ["search", "--iters", "5", option, str(path)])
    assert (result.exit_code, searched) == (2, [])
    assert isinstance(result.exception, SystemExit)
    assert f"error: cannot write {path}: " in result.stderr
    assert "Traceback" not in result.output


@pytest.mark.parametrize("existing", [True, False])
def test_search_leaves_the_other_output_as_it_was(runner, tmp_path, monkeypatch, existing):
    """When --trace-out cannot be opened, --out is neither emptied nor created."""
    searched = []
    monkeypatch.setattr(cli, "run_search", lambda *args, **kwargs: searched.append(args))
    out, bad = tmp_path / "ok.alg", tmp_path / "missing" / "x.t"
    if existing:
        out.write_text("name kept\n", encoding="utf-8")
    result = runner.invoke(main, ["search", "--iters", "3", "--out", str(out),
                                  "--trace-out", str(bad)])
    assert (result.exit_code, searched) == (2, [])
    assert f"error: cannot write {bad}: " in result.stderr
    if existing:
        assert out.read_text(encoding="utf-8") == "name kept\n"
    else:
        assert not out.exists()


@pytest.mark.parametrize("same", ["s.alg", "./s.alg", "link.alg", "hard.alg"])
def test_search_outputs_naming_one_file_are_an_input_error(runner, tmp_path, monkeypatch, same):
    """--out and --trace-out naming one file exit 2 and leave it as it was."""
    searched = []
    monkeypatch.setattr(cli, "run_search", lambda *args, **kwargs: searched.append(args))
    monkeypatch.chdir(tmp_path)
    (tmp_path / "s.alg").write_text("name kept\n", encoding="utf-8")
    (tmp_path / "link.alg").symlink_to(tmp_path / "s.alg")
    os.link(tmp_path / "s.alg", tmp_path / "hard.alg")
    result = runner.invoke(main, ["search", "--iters", "2", "--out", "./s.alg",
                                  "--trace-out", same])
    assert (result.exit_code, searched) == (2, [])
    assert result.stderr == f"error: ./s.alg and {same} name one file\n"
    assert (tmp_path / "s.alg").read_text(encoding="utf-8") == "name kept\n"


def test_search_empties_an_existing_output_before_writing(runner, tmp_path):
    out, trace = tmp_path / "a.alg", tmp_path / "a.trace"
    out.write_text("stale\n" * 1000, encoding="utf-8")
    trace.write_text("stale\n" * 1000, encoding="utf-8")
    args = ["search", "--iters", "3", "--out", str(out), "--trace-out", str(trace)]
    assert runner.invoke(main, args).exit_code == 0
    first = out.read_text(encoding="utf-8"), trace.read_text(encoding="utf-8")
    assert "stale" not in first[0] + first[1]
    out.unlink()
    trace.unlink()
    assert runner.invoke(main, args).exit_code == 0
    assert (out.read_text(encoding="utf-8"), trace.read_text(encoding="utf-8")) == first

def test_check_degree_below_three_is_an_input_error(runner):
    result = runner.invoke(main, ["check", fixture_path("splitO.alg"),
                                  "--properties", "power-associative", "--degree", "2"])
    assert result.exit_code == 2
    assert result.exception is None or isinstance(result.exception, SystemExit)
    assert "--degree" in result.output
    assert "Traceback" not in result.output


def _python_dash_m(*args):
    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    return subprocess.run([sys.executable, "-m", "nonassoc", *args],
                          env=dict(os.environ, PYTHONPATH=str(src)),
                          capture_output=True, timeout=120)


def test_python_dash_m_runs_the_cli():
    result = _python_dash_m("--help")
    assert result.returncode == 0, result.stderr
    assert b"verify-paper" in result.stdout


def test_python_dash_m_verify_paper_matches_golden():
    result = _python_dash_m("verify-paper", "--format", "lines")
    assert result.returncode == 1, result.stderr
    assert result.stdout == GOLDEN.read_bytes()


def test_check_all_laws_prints_the_single_law_lines(runner, tmp_path):
    out = tmp_path / "cand.alg"
    exported = runner.invoke(main, ["search", "--init", "random", "--iters", "0", "--seed", "1",
                                    "--out", str(out)])
    assert exported.exit_code == 0
    laws = ["associative", "alternative", "flexible", "lie-admissible", "power-associative",
            "jordan", "unital", "derivation-property"]
    together = runner.invoke(main, ["check", str(out), "--properties", ",".join(laws)])
    assert together.exit_code == 1
    single = [runner.invoke(main, ["check", str(out), "--properties", law]) for law in laws]
    assert together.output.splitlines() == [r.output.rstrip("\n") for r in single]
    assert [r.exit_code for r in single] == [1] * len(laws)


# (exit code, sha256 of stdout) of `check FILE --properties <all eight> --degree D`:
# every verdict, witness and detail the law layer prints is part of its output
ALL_LAWS = ("associative,alternative,flexible,lie-admissible,power-associative,jordan,"
            "unital,derivation-property")
CHECK_ALL_LAWS_SHA256 = {
    ("splitO", 3): (1, "2568d15af92b232c0e9154c005a828d20681e17b734b5ceac875dd49a1b981c6"),
    ("splitO", 4): (1, "39c8e64a300b6f607d50bcedae4990550f233b273d86f53bb31fbb845d807c56"),
    ("quaternion", 3): (1, "ae0064f26fcba768bdb35320f64a0a1967e9b5b90d0a5f2ca919169cc2c944b0"),
    ("quaternion", 4): (1, "bd942095240576c9eb06cf3ead52f1ddefdbf330dd43c2665c3858e8f4ff2813"),
    ("su2", 3): (1, "6c0703c3a3240b320712988559eef1d2d62a6b1e68d631bc1b9d5715ef34e79f"),
    ("su2", 4): (1, "df34c39be9d50591a41538671b845be09726a7a0b7b9e22c9193d8e06ac7fe1a"),
    ("so31", 3): (1, "cd6d9dad6d6a61aef0fdc41cdc6cbf0d63e1b49732153650d725664919054518"),
    ("so31", 4): (1, "5a86686534fab7c8e877b3c6a75fde2d289d6f3355b72f7af02196d98f3b2803"),
    ("complex", 3): (0, "16c38192ffa3150ca649794dde1b6ccddac2b8ce97b42ec8c9c4b7987273697a"),
    ("complex", 4): (0, "1440f92633caa11aec3f4a46d42e2f95bbd6b4baa2de238cee624f7d8c6b8263"),
    ("zornO", 3): (1, "69b18dd84b8098cee85887e79b453f261d39ad85f74721a5489f7ad7a284331c"),
    ("zornO", 4): (1, "09683572e9ebfa980652f4fa954671786bb98e2eae78e2587275ed198ad62e1c"),
    ("candidate-1", 3): (1, "0cb37b42554864b7390c5ceb723e478b61ad2d33f57be846c1dadf1860b85b83"),
    ("candidate-1", 4): (1, "7bd67f136a7763a293fdc338a5e7a8f61bec333d73d9e51ace284e42b9c9a2a3"),
    ("candidate-2", 3): (1, "5c3e401328e2b540e95a836bb22465d36c8a3aca74ff8ee469fb355d207f510c"),
    ("candidate-2", 4): (1, "f2cd22845c6ae3a5f1af79e0911cfe6350c9ec3a326c5bcb014e073677afd6ed"),
    ("candidate-3", 3): (1, "0a1aae4a6e40c069c5617457e3ead5d3f6a6c9497e00a6948218d293b589a907"),
    ("candidate-3", 4): (1, "e486a4916275c2b51850b538571647a88fcb47c8c34b1d8fce935faaa8ecf09d"),
}


@pytest.mark.parametrize("name, degree", sorted(CHECK_ALL_LAWS_SHA256))
def test_check_all_laws_output_is_pinned(runner, tmp_path, name, degree):
    from nonassoc.algfile import serialize
    from nonassoc.search import CandidateAlgebra, candidate_to_algebra

    if name.startswith("candidate-"):
        cand = CandidateAlgebra.random(int(name.split("-")[1]))
        path = tmp_path / f"{name}.alg"
        path.write_text(serialize(candidate_to_algebra(cand), roles=cand.roles,
                                  scalar_tag="float64"), encoding="utf-8")
    else:
        path = fixture_path(f"{name}.alg")
    result = runner.invoke(main, ["check", str(path), "--properties", ALL_LAWS,
                                  "--degree", str(degree)])
    digest = hashlib.sha256(result.stdout.encode("utf-8")).hexdigest()
    assert (result.exit_code, digest) == CHECK_ALL_LAWS_SHA256[name, degree]
