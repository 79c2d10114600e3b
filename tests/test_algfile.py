import importlib.resources
from fractions import Fraction

import pytest

from nonassoc.algebra import AlgebraDef
from nonassoc.algfile import AlgebraParseError, parse_text, serialize
from nonassoc.corpus import (
    complex_numbers,
    quaternions,
    so31_bracket_algebra,
    split_octonions,
    su2_bracket_algebra,
)
from nonassoc.scalar import ZERO, GaussianRational
from nonassoc.search import CandidateAlgebra, candidate_to_algebra
from nonassoc.zorn import zorn_octonions

FIXTURES = {
    "splitO.alg": split_octonions,
    "quaternion.alg": quaternions,
    "su2.alg": su2_bracket_algebra,
    "so31.alg": so31_bracket_algebra,
    "complex.alg": complex_numbers,
    "zornO.alg": zorn_octonions,
}


def fixture_text(name):
    return (
        importlib.resources.files("nonassoc")
        .joinpath("fixtures")
        .joinpath(name)
        .read_text(encoding="utf-8")
    )


@pytest.mark.parametrize("fname", sorted(FIXTURES), ids=lambda f: f)
def test_fixtures_parse_to_bundled_algebras(fname):
    parsed = parse_text(fixture_text(fname))
    assert parsed.algebra == FIXTURES[fname]()


@pytest.mark.parametrize("fname", sorted(FIXTURES), ids=lambda f: f)
def test_fixture_round_trip_is_exact(fname):
    text = fixture_text(fname)
    parsed = parse_text(text)
    assert serialize(parsed.algebra) == text
    again = parse_text(serialize(parsed.algebra))
    assert again.algebra == parsed.algebra


def test_split_octonion_fixture_has_49_product_lines():
    lines = [l for l in fixture_text("splitO.alg").splitlines()
             if l and not l.startswith("#") and "->" in l]
    assert len(lines) == 49


def test_one_dimensional_complex_fixture():
    parsed = parse_text("dimension 1\nunital true\ne1 e1 -> -1\n")
    alg = parsed.algebra
    assert alg.dim == 1 and alg.unital
    x = alg.basis_element(0)
    assert (x * x) == alg.one().scaled(-1)


def test_gaussian_coefficients_round_trip():
    text = (
        "name gauss\n"
        "dimension 2\n"
        "unital true\n"
        "scalar gaussian-rational\n"
        "e1 e1 -> (1-2/3i)e2 + 1/2\n"
        "e1 e2 -> (i)e1 - (2i)e2\n"
        "e2 e1 -> 2i\n"
    )
    from fractions import Fraction

    parsed = parse_text(text)
    unit, coeffs = parsed.algebra.structure[0][0]
    assert unit == GaussianRational(Fraction(1, 2))
    assert coeffs[1] == GaussianRational(1, Fraction(-2, 3))
    assert serialize(parse_text(serialize(parsed.algebra)).algebra) == serialize(parsed.algebra)


def test_roles_line_round_trip():
    text = (
        "name cand\n"
        "dimension 3\n"
        "unital false\n"
        "scalar float64\n"
        "roles R0=1,R1=2,M01=3\n"
        "e1 e2 -> e3\n"
    )
    parsed = parse_text(text)
    assert parsed.roles == {"R0": 0, "R1": 1, "M01": 2}
    assert parsed.scalar_tag == "float64"
    out = serialize(parsed.algebra, roles=parsed.roles, scalar_tag=parsed.scalar_tag)
    assert "roles R0=1,R1=2,M01=3" in out


def test_comments_and_blank_lines_ignored():
    text = "# header\n\ndimension 1\n# more\nunital true\n\ne1 e1 -> -1\n"
    assert parse_text(text).algebra.dim == 1


def test_unspecified_products_default_to_zero():
    parsed = parse_text("dimension 2\nunital false\ne1 e2 -> e1\n")
    unit, coeffs = parsed.algebra.structure[1][1]
    assert unit.is_zero() and all(c.is_zero() for c in coeffs)


def test_repeated_term_is_summed():
    parsed = parse_text("dimension 2\nunital false\ne1 e1 -> e1 + 1/2e1 - (1/3i)e2 + 2e2\n")
    _, coeffs = parsed.algebra.structure[0][0]
    assert coeffs == (GaussianRational(Fraction(3, 2)), GaussianRational(2, Fraction(-1, 3)))


def test_from_products_sums_a_repeated_index():
    class Pairs:
        """Terms whose items repeat an index, as a plain dict cannot."""

        def items(self):
            return [(1, 1), (0, Fraction(1, 2)), (1, Fraction(1, 2))]

    alg = AlgebraDef.from_products("repeat", 2, {(0, 0): (ZERO, Pairs())}, unital=False)
    _, coeffs = alg.structure[0][0]
    assert coeffs == (GaussianRational(Fraction(1, 2)), GaussianRational(Fraction(3, 2)))


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_candidate_round_trip_is_exact(seed):
    cand = CandidateAlgebra.random(seed)
    alg = candidate_to_algebra(cand)
    assert alg._den.bit_length() > 64
    parsed = parse_text(serialize(alg, roles=cand.roles, scalar_tag="float64"))
    assert parsed.algebra == alg
    assert parsed.roles == cand.roles
    assert (parsed.algebra.tensor == alg.tensor).all()


# (text, line number the diagnostic must cite)
MALFORMED = [
    # header problems
    ("", 1),
    ("unital true\n", 1),
    ("dimension\n", 1),
    ("dimension zero\n", 1),
    ("dimension 0\n", 1),
    ("dimension -3\n", 1),
    ("dimension 2.5\n", 1),
    ("dimension 2\ndimension 2\n", 2),
    ("dimension 2\nunital yes\n", 2),
    ("dimension 2\nunital true\nunital false\n", 3),
    ("dimension 2\nunital\n", 2),
    ("name bad name\ndimension 1\n", 1),
    ("name \ndimension 1\n", 1),
    ("dimension 2\nscalar\n", 2),
    ("dimension 2\nbasis a\n", 2),
    ("dimension 2\nbasis a,a\n", 2),
    ("dimension 2\nbasis a,2b\n", 2),
    ("dimension 2\nroles R0\n", 2),
    ("dimension 2\nroles R0=x\n", 2),
    ("dimension 2\nroles R0=5\n", 2),
    # structure problems
    ("e1 e1 -> -1\n", 1),
    ("dimension 2\ne1 e3 -> e1\n", 2),
    ("dimension 2\ne3 e1 -> e1\n", 2),
    ("dimension 2\ne0 e1 -> e1\n", 2),
    ("dimension 2\ne1 e1 -> e3\n", 2),
    ("dimension 2\ne1 e2 -> e1\ne1 e2 -> e2\n", 3),
    ("dimension 2\ne1 e1 -> -1\n", 2),          # unit in non-unital algebra
    ("dimension 2\ne1 e2 -> 1/2\n", 2),
    # expression problems
    ("dimension 2\nunital true\ne1 e1 ->\n", 3),
    ("dimension 2\nunital true\ne1 e1 ->   \n", 3),
    ("dimension 2\nunital true\ne1 e1 -> +\n", 3),
    ("dimension 2\nunital true\ne1 e1 -> e1 +\n", 3),
    ("dimension 2\nunital true\ne1 e1 -> e1 + - e2\n", 3),
    ("dimension 2\nunital true\ne1 e1 -> - - e2\n", 3),
    ("dimension 2\nunital true\ne1 e1 -> e1 e2\n", 3),
    ("dimension 2\nunital true\ne1 e1 -> q1\n", 3),
    ("dimension 2\nunital true\ne1 e1 -> 1/0\n", 3),
    ("dimension 2\nunital true\ne1 e1 -> 1/0e1\n", 3),
    ("dimension 2\nunital true\ne1 e1 -> (1+i\n", 3),
    ("dimension 2\nunital true\ne1 e1 -> 1+i)\n", 3),
    ("dimension 2\nunital true\ne1 e1 -> ()e1\n", 3),
    ("dimension 2\nunital true\ne1 e1 -> (1+2)e1\n", 3),
    ("dimension 2\nunital true\ne1 e1 -> (i+1)e1\n", 3),
    ("dimension 2\nunital true\ne1 e1 -> 1.5e1\n", 3),
    ("dimension 2\nunital true\ne1 e1 -> 2x\n", 3),
    ("dimension 2\nunital true\ne1 e1 -> e\n", 3),
    ("dimension 2\nunital true\ne1 e1 -> ie\n", 3),
    ("dimension 2\nunital true\ne1 e1 -> 2ii e1\n", 3),
    ("dimension 2\nunital true\ne1 e1 -> (1+i)(1-i)e1\n", 3),
    ("dimension 2\nunital true\ne1 e1 -> e1 ++ e2\n", 3),
    # line junk
    ("dimension 2\nunital true\ngarbage line\n", 3),
    ("dimension 2\nunital true\ne1 -> e1\n", 3),
    ("dimension 2\nunital true\ne1 e2 => e1\n", 3),
    ("dimension 2\nunital true\nproduct e1 e2 e1\n", 3),
    ("dimension 2\nunital true\ne1 e2 ->\te1 & e2\n", 3),
    ("dimension 2\nbasis a,b\nbasis a,b\nfoo\n", 4),
]


def test_malformed_corpus_is_big_enough():
    assert len(MALFORMED) >= 50


@pytest.mark.parametrize("text,line", MALFORMED,
                         ids=[f"bad{i:02d}" for i in range(len(MALFORMED))])
def test_malformed_inputs_rejected_with_line_numbers(text, line):
    with pytest.raises(AlgebraParseError) as exc_info:
        parse_text(text)
    assert exc_info.value.line == line
    assert f"line {line}:" in str(exc_info.value)
