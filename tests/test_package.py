"""The package surface: the README's library example and the public names."""

import contextlib
import io
import re
from pathlib import Path

import nonassoc

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_library_example_runs():
    text = README.read_text(encoding="utf-8")
    section = text[text.index("## Library"):]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, str(README), "exec"), {})
    assert out.getvalue().split() == ["q3", "True", "2"]


def test_every_public_name_resolves():
    missing = [name for name in nonassoc.__all__ if not hasattr(nonassoc, name)]
    assert missing == []


def test_public_names_are_pinned():
    # a change to the public surface shows here, not only in a caller
    assert sorted(nonassoc.__all__) == [
        "AlgebraDef", "AlgebraMismatchError", "AlgebraParseError", "CandidateAlgebra",
        "Element", "GaussianRational", "PropertyReport", "ResidualBreakdown", "SearchConfig",
        "SigmaConvention", "SuperOp", "Witness", "ZornMatrix", "associator",
        "build_generators", "build_verify_report", "check_derivation_property",
        "check_property", "commutator", "complex_numbers", "compose", "from_zorn",
        "graded_bracket", "jacobiator", "multiply", "myung_equivalence", "parse_algebra",
        "parse_text", "quaternions", "raise_lower", "random_commutative", "residual",
        "search", "serialize", "so31_bracket_algebra", "split_octonions",
        "standard_corpus", "su2_bracket_algebra", "to_zorn", "verify_spin_commutators",
        "verify_spin_decomposition", "verify_zorn_isomorphism", "zorn_multiply",
        "zorn_octonions",
    ]
