"""The package surface: the README's library example, the public names, the
names the benchmark imports, the places `tests/mutants.py` mutates and the
oldest Python the sources must parse on."""

import ast
import contextlib
import importlib
import io
import re
from pathlib import Path

import pytest

import nonassoc

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"


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
        "SigmaConvention", "SuperOp", "Witness", "associator",
        "build_generators", "build_verify_report", "check_derivation_property",
        "check_property", "commutator", "complex_numbers", "compose", "from_zorn",
        "graded_bracket", "jacobiator", "multiply", "myung_equivalence",
        "parse_text", "quaternions", "raise_lower", "random_commutative", "residual",
        "serialize", "so31_bracket_algebra", "split_octonions",
        "standard_corpus", "su2_bracket_algebra", "to_zorn", "verify_spin_commutators",
        "verify_spin_decomposition", "verify_zorn_isomorphism", "zorn_octonions",
    ]


def test_package_attribute_search_is_the_module():
    # no package-level name shadows the submodule, so dotted access reaches
    # the module's names
    import nonassoc.search

    assert nonassoc.search is importlib.import_module("nonassoc.search")
    assert nonassoc.search.CandidateAlgebra is nonassoc.CandidateAlgebra
    assert callable(nonassoc.search.search)


def test_every_name_the_benchmark_imports_resolves():
    # perfbench/child.py imports names from `nonassoc` modules, some inside
    # functions, and wraps the (module, function) pairs of its TRACED table
    tree = ast.parse((ROOT / "perfbench" / "child.py").read_text(encoding="utf-8"))
    wanted = [(node.module, alias.name) for node in ast.walk(tree)
              if isinstance(node, ast.ImportFrom) and node.level == 0
              and node.module.split(".")[0] == "nonassoc" for alias in node.names]
    traced = next(node.value for node in ast.walk(tree) if isinstance(node, ast.Assign)
                  and [ast.unparse(t) for t in node.targets] == ["TRACED"])
    wanted += [(entry.elts[0].value, entry.elts[1].value) for entry in traced.elts]
    assert ("nonassoc.superspace", "compose") in wanted
    assert ("nonassoc.zorn", "verify_zorn_isomorphism") in wanted
    missing = [(module, name) for module, name in wanted
               if not hasattr(importlib.import_module(module), name)]
    assert missing == []


def test_report_imports_no_numpy_and_no_private_name():
    # report.py only writes the ledger: each verdict it reads is a public
    # field or function of the module that decides it
    tree = ast.parse((ROOT / "src" / "nonassoc" / "report.py").read_text(encoding="utf-8"))
    froms = [node for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)]
    own = [node for node in froms if node.level or node.module.split(".")[0] == "nonassoc"]
    modules = {alias.asname or alias.name for node in own if node.module is None
               for alias in node.names}
    private = [alias.name for node in own for alias in node.names if alias.name.startswith("_")]
    private += [f"{node.value.id}.{node.attr}" for node in ast.walk(tree)
                if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in modules and node.attr.startswith("_")]
    assert private == []
    imported = [alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
                for alias in node.names] + [node.module for node in froms if not node.level]
    assert [name for name in imported if name.split(".")[0] == "numpy"] == []


def test_every_mutant_names_one_place_in_src():
    # tests/mutants.py replaces each old text in a copy of src/; a text that
    # no longer occurs exactly once would leave its mutant checking nothing
    from mutants import MUTANTS

    for file, old, new, tests in MUTANTS:
        assert (ROOT / "src" / "nonassoc" / file).read_text(encoding="utf-8").count(old) == 1, old
        assert new != old
        assert all((ROOT / test.split("::")[0]).is_file() for test in tests), tests


def _parenthesized(text):
    """Whether a tuple's source text is one pair of parentheses around it."""
    depth = 0
    for k, ch in enumerate(text):
        depth += {"(": 1, ")": -1}.get(ch, 0)
        if depth == 0:
            return text[0] == "(" and k == len(text) - 1
    return False


def _starred_indices(source):
    """Lines of an index that unpacks with a bare star, `a[:, *idx]`: Python
    3.11 syntax (PEP 646) that `ast.parse(feature_version=...)` lets through.
    The parenthesized `a[(0, *idx)]` is older syntax."""
    return [node.lineno for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Subscript) and isinstance(node.slice, ast.Tuple)
            and any(isinstance(e, ast.Starred) for e in node.slice.elts)
            and not _parenthesized(ast.get_source_segment(source, node.slice))]


@pytest.mark.parametrize("source, lines", [
    ("a[:, *idx]", [1]), ("a[*idx]", [1]), ("a[(0), *(idx)]", [1]),
    ("a[(0, *idx)]", []), ("a[(0,\n   *idx)]", []), ("a[0, idx]", []), ("f(*idx)", []),
])
def test_starred_index_finder(source, lines):
    assert _starred_indices(source) == lines


@pytest.mark.parametrize("folder", ["src", "tests", "perfbench"])
def test_sources_parse_on_the_oldest_supported_python(folder):
    pyproject = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    minor = int(re.search(r'requires-python\s*=\s*">=\s*3\.(\d+)"', pyproject).group(1))
    files = sorted((ROOT / folder).rglob("*.py"))
    assert files
    late = {}
    for path in files:
        source = path.read_text(encoding="utf-8")
        ast.parse(source, str(path), feature_version=(3, minor))
        if lines := _starred_indices(source):
            late[str(path.relative_to(ROOT))] = lines
    assert late == {}
