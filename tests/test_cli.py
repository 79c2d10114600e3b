import importlib.resources
import os
import pathlib
import subprocess
import sys

import pytest
from click.testing import CliRunner

from nonassoc.cli import main

GOLDEN = pathlib.Path(__file__).parent / "golden" / "verify_paper.lines"


def fixture_path(name) -> str:
    return str(importlib.resources.files("nonassoc").joinpath("fixtures").joinpath(name))


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


def test_check_missing_file(runner):
    result = runner.invoke(main, ["check", "/no/such/file.alg", "--properties", "flexible"])
    assert result.exit_code == 2


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


TABLE_SPLITO_ZORN = """\
      q1   q2   q3   q4   q5   q6   q7
 q1   -1   q3  -q2  -q7   q6  -q5   q4
 q2  -q3   -1   q1  -q6  -q7   q4   q5
 q3   q2  -q1   -1   q5  -q4  -q7   q6
 q4   q7   q6  -q5    1  -q3   q2   q1
 q5  -q6   q7   q4   q3    1  -q1   q2
 q6   q5  -q4   q7  -q2   q1    1   q3
 q7  -q4  -q5  -q6  -q1  -q2  -q3    1

Zorn images:
  1  [1, (0, 0, 0); (0, 0, 0), 1]
 q1  [0, (-1, 0, 0); (1, 0, 0), 0]
 q2  [0, (0, -1, 0); (0, 1, 0), 0]
 q3  [0, (0, 0, -1); (0, 0, 1), 0]
 q4  [0, (1, 0, 0); (1, 0, 0), 0]
 q5  [0, (0, 1, 0); (0, 1, 0), 0]
 q6  [0, (0, 0, 1); (0, 0, 1), 0]
 q7  [-1, (0, 0, 0); (0, 0, 0), 1]
"""


def test_table_zorn_flag_full_output(runner):
    result = runner.invoke(main, ["table", fixture_path("splitO.alg"), "--zorn"])
    assert result.exit_code == 0
    assert result.output.splitlines() == TABLE_SPLITO_ZORN.splitlines()


def test_table_zorn_flag_rejected_elsewhere(runner):
    result = runner.invoke(main, ["table", fixture_path("quaternion.alg"), "--zorn"])
    assert result.exit_code == 2


def test_verify_paper_lines_matches_golden(runner):
    result = runner.invoke(main, ["verify-paper", "--format", "lines"])
    assert result.output == GOLDEN.read_text()
    # FAIL entries exist (documented discrepancies), so the exit code is 1
    assert result.exit_code == 1


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


def test_check_degree_below_three_is_an_input_error(runner):
    result = runner.invoke(main, ["check", fixture_path("splitO.alg"),
                                  "--properties", "power-associative", "--degree", "2"])
    assert result.exit_code == 2
    assert result.exception is None or isinstance(result.exception, SystemExit)
    assert "--degree" in result.output
    assert "Traceback" not in result.output


def test_python_dash_m_runs_the_cli():
    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    result = subprocess.run([sys.executable, "-m", "nonassoc", "--help"],
                            env=dict(os.environ, PYTHONPATH=str(src)),
                            capture_output=True, text=True, timeout=60)
    assert result.returncode == 0, result.stderr
    assert "verify-paper" in result.stdout


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
