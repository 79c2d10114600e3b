import hashlib
import importlib.resources
import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    p = parsed.algebra.basis_product(0, 0)
    unit, coeffs = p.unit, p.coeffs
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
    assert parsed.algebra.basis_product(1, 1).is_zero()


def test_repeated_term_is_summed():
    parsed = parse_text("dimension 2\nunital false\ne1 e1 -> e1 + 1/2e1 - (1/3i)e2 + 2e2\n")
    coeffs = parsed.algebra.basis_product(0, 0).coeffs
    assert coeffs == (GaussianRational(Fraction(3, 2)), GaussianRational(2, Fraction(-1, 3)))


def test_bare_imaginary_and_repeated_imaginary_terms_add_up():
    parsed = parse_text("dimension 2\nunital false\n"
                        "e1 e1 -> ie1 + 2ie1 - 1/2ie2 + (3/2i)e2 + e2\n")
    coeffs = parsed.algebra.basis_product(0, 0).coeffs
    assert coeffs == (GaussianRational(0, 3), GaussianRational(1, 1))


def test_from_products_sums_a_repeated_index():
    class Pairs:
        """Terms whose items repeat an index, as a plain dict cannot."""

        def items(self):
            return [(1, 1), (0, Fraction(1, 2)), (1, Fraction(1, 2))]

    alg = AlgebraDef.from_products("repeat", 2, {(0, 0): (ZERO, Pairs())}, unital=False)
    coeffs = alg.basis_product(0, 0).coeffs
    assert coeffs == (GaussianRational(Fraction(1, 2)), GaussianRational(Fraction(3, 2)))


def test_from_products_rejects_an_out_of_range_product_key():
    with pytest.raises(ValueError, match=r"product key \(5, 5\) out of range"):
        AlgebraDef.from_products("x", 2, {(5, 5): (0, {0: 1})}, False)
    with pytest.raises(ValueError, match="out of range"):
        AlgebraDef.from_products("x", 2, {(0, -1): (0, {0: 1})}, False)


HEADER_WORDS = ("name", "dimension", "unital", "scalar", "roles")


def header_counts(text):
    heads = [line.strip().partition(" ")[0] for line in text.splitlines()]
    return {word: heads.count(word) for word in HEADER_WORDS}


@pytest.mark.parametrize("fname", sorted(FIXTURES), ids=lambda f: f)
def test_fixtures_and_serialize_write_each_header_once(fname):
    for text in (fixture_text(fname), serialize(FIXTURES[fname]())):
        assert all(n <= 1 for n in header_counts(text).values()), header_counts(text)
    cand = CandidateAlgebra.random(1)
    text = serialize(candidate_to_algebra(cand), roles=cand.roles, scalar_tag="float64")
    assert set(header_counts(text).values()) == {1}


# sha256 of `serialize` output: the written bytes are part of the file format
SERIALIZED_SHA256 = {
    "complex.alg": "1356c3ea67cf1264221913da668c82232cf4b79a40fee79c45e5d7efbdc24e61",
    "quaternion.alg": "006ddfbde99853cb0ccd79673ed825e9d0aabf2d679f6d76c2c901da3a9ab425",
    "so31.alg": "a7ee51cb4bb07f44c2bd3b22bf30dc3941763b36a63aa2647262e30800d7f43b",
    "splitO.alg": "5c6b120559e7da7989c572edf8729b919e0604159c5da3b9f48b5a27e1c2e8d1",
    "su2.alg": "f5550bfe34fbce66d6f247289d2e6ca61bbace8fcb733b470372341d19946c43",
    "zornO.alg": "964b4a94a09e449bcba144be5ec1d31201ac2038f11fbe57d9a52a8d36bc0851",
    "candidate-1": "21d035e468edfc8b4915718913b26b804a79cf96762fe40a459e8afd4b80b662",
    "candidate-2": "9bc77f4e8fce54cdf423e48994c21def2673df5c332cb4d5c7ec497800f3add9",
    "candidate-3": "59a8007a9734da30c3a3c789866aebcd9d72b8b0accdbc8eea17778c22237364",
}


def serialized(name):
    if name in FIXTURES:
        return serialize(FIXTURES[name]())
    cand = CandidateAlgebra.random(int(name.split("-")[1]))
    return serialize(candidate_to_algebra(cand), roles=cand.roles, scalar_tag="float64")


@pytest.mark.parametrize("name", sorted(SERIALIZED_SHA256))
def test_serialize_bytes_are_pinned(name):
    digest = hashlib.sha256(serialized(name).encode("utf-8")).hexdigest()
    assert digest == SERIALIZED_SHA256[name]


def test_candidate_path_builds_no_gaussian_rational(monkeypatch):
    """Export, serialize and parse stay in integers from the doubles to the tensor."""
    built = []
    init = GaussianRational.__init__

    def counting(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)

    cand = CandidateAlgebra.random(1)
    monkeypatch.setattr(GaussianRational, "__init__", counting)
    alg = candidate_to_algebra(cand)
    text = serialize(alg, roles=cand.roles, scalar_tag="float64")
    tensor = parse_text(text).algebra.tensor
    assert built == []
    monkeypatch.undo()
    assert (tensor == alg.tensor).all()
    # the counter does see exact scalars read off the table: dim+1 per product
    monkeypatch.setattr(GaussianRational, "__init__", counting)
    for i, j in itertools.product(range(alg.dim), repeat=2):
        alg.basis_product(i, j)
    assert len(built) == alg.dim**2 * (alg.dim + 1)


# -- parse(serialize(a)) == a on generated tables ------------------------------

RATIONALS = st.builds(
    Fraction,
    st.integers(-9, 9) | st.integers(-2**70, 2**70),
    st.integers(1, 12) | st.sampled_from([2**35, 2**64, 2**70]) | st.integers(1, 2**70),
)


@st.composite
def exact_tables(draw):
    """(dim, unital, cells): cells[i * dim + j] lists [re, im] Fractions of
    the unit multiple and basis coefficients of e_i e_j, mostly zero."""
    dim, unital, gaussian = draw(st.integers(1, 5)), draw(st.booleans()), draw(st.booleans())
    place = st.tuples(st.integers(0, dim * dim - 1), st.integers(0 if unital else 1, dim),
                      st.integers(0, int(gaussian)))
    cells = [[[Fraction(0)] * 2 for _ in range(dim + 1)] for _ in range(dim * dim)]
    for (s, k, part), value in draw(st.dictionaries(place, RATIONALS,
                                                    max_size=2 * dim * dim)).items():
        cells[s][k][part] = value
    return dim, unital, cells


def fraction_tensor(dim, cells):
    """(den, tensor as nested lists), straight from the definition."""
    n = dim + 1
    den = math.lcm(*(v.denominator for cell in cells for pair in cell for v in pair))
    gaussian = any(im for cell in cells for _, im in cell)
    t = [[[0] * (2 * n if gaussian else n) for _ in range(n)] for _ in range(n)]
    for a in range(n):
        t[0][a][a] = t[a][0][a] = den
    for s, cell in enumerate(cells):
        vec = t[s // dim + 1][s % dim + 1]
        for k, (re, im) in enumerate(cell):
            vec[k] = int(re * den)
            if gaussian:
                vec[n + k] = int(im * den)
    return den, t


@settings(derandomize=True, max_examples=100, deadline=None, database=None)
@given(exact_tables())
def test_parse_of_serialize_is_the_identity(table):
    dim, unital, cells = table
    products = {divmod(s, dim): (GaussianRational(*cell[0]),
                                 {k: GaussianRational(*c) for k, c in enumerate(cell[1:])})
                for s, cell in enumerate(cells)}
    alg = AlgebraDef.from_products("generated", dim, products, unital)
    den, t = fraction_tensor(dim, cells)
    assert alg._den == den and alg.tensor.tolist() == t
    width, big = len(t[0][0]), max(abs(v) for plane in t for vec in plane for v in vec)
    fits = 48 * width**2 * big**3 <= np.iinfo(np.int64).max
    assert alg.tensor.dtype == (np.int64 if fits else object)
    assert parse_text(serialize(alg)).algebra == alg


def test_tensor_dtype_switches_where_the_bound_does():
    """e1 e1 = c e1 has width K = 2 and largest entry c: int64 exactly while
    48 * K**2 * c**3 fits, so the bound's factor K**2 is pinned."""
    limit = int(np.iinfo(np.int64).max)
    c = round((limit / 192) ** (1 / 3))
    while 192 * c**3 > limit:
        c -= 1
    while 192 * (c + 1) ** 3 <= limit:
        c += 1
    for value, dtype in ((c, np.int64), (c + 1, object)):
        alg = AlgebraDef.from_products("line", 1, {(0, 0): (0, {0: value})}, unital=False)
        assert alg.tensor.dtype == dtype


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_candidate_round_trip_is_exact(seed):
    cand = CandidateAlgebra.random(seed)
    alg = candidate_to_algebra(cand)
    assert alg._den.bit_length() > 64
    parsed = parse_text(serialize(alg, roles=cand.roles, scalar_tag="float64"))
    assert parsed.algebra == alg
    assert parsed.roles == cand.roles
    assert (parsed.algebra.tensor == alg.tensor).all()


# (text, line number the diagnostic must cite, its message after "line N: ")
MALFORMED = [
    # header problems
    ("", 1, 'missing dimension line'),
    ("unital true\n", 1, 'missing dimension line'),
    ("dimension\n", 1, "dimension must be a positive integer, got ''"),
    ("dimension zero\n", 1, "dimension must be a positive integer, got 'zero'"),
    ("dimension 0\n", 1, "dimension must be a positive integer, got '0'"),
    ("dimension -3\n", 1, "dimension must be a positive integer, got '-3'"),
    ("dimension 2.5\n", 1, "dimension must be a positive integer, got '2.5'"),
    ("dimension 2\ndimension 2\n", 2, 'duplicate dimension line'),
    ("dimension 2\nunital yes\n", 2, "unital must be true or false, got 'yes'"),
    ("dimension 2\nunital true\nunital false\n", 3, 'duplicate unital line'),
    ("dimension 2\nunital\n", 2, "unital must be true or false, got ''"),
    ("name bad name\ndimension 1\n", 1, "bad name 'bad name'"),
    ("name \ndimension 1\n", 1, "bad name ''"),
    ("dimension 2\nscalar\n", 2, 'empty scalar tag'),
    ("dimension 2\nbasis a\n", 2, 'basis list has 1 names for dimension 2'),
    ("dimension 2\nbasis a,a\n", 2, 'duplicate basis name'),
    ("dimension 2\nbasis a,2b\n", 2, "bad basis list 'a,2b'"),
    ("dimension 2\nroles R0\n", 2, "bad role assignment 'R0'"),
    ("dimension 2\nroles R0=x\n", 2, "bad role assignment 'R0=x'"),
    ("dimension 2\nroles R0=5\n", 2, 'role R0 index out of range'),
    # structure problems
    ("e1 e1 -> -1\n", 1, 'product line before dimension'),
    ("dimension 2\ne1 e3 -> e1\n", 2, 'basis index e3 out of range 1..2'),
    ("dimension 2\ne3 e1 -> e1\n", 2, 'basis index e3 out of range 1..2'),
    ("dimension 2\ne0 e1 -> e1\n", 2, 'basis index e0 out of range 1..2'),
    ("dimension 2\ne1 e1 -> e3\n", 2, 'basis index e3 out of range 1..2'),
    ("dimension 2\ne1 e2 -> e1\ne1 e2 -> e2\n", 3, 'duplicate product e1 e2 (first at line 2)'),
    ("dimension 2\ne1 e1 -> -1\n", 2, 'unit multiple in a non-unital algebra'),
    ("dimension 2\ne1 e2 -> 1/2\n", 2, 'unit multiple in a non-unital algebra'),
    # expression problems
    ("dimension 2\nunital true\ne1 e1 ->\n", 3, 'empty expression'),
    ("dimension 2\nunital true\ne1 e1 ->   \n", 3, 'empty expression'),
    ("dimension 2\nunital true\ne1 e1 -> +\n", 3, 'empty expression'),
    ("dimension 2\nunital true\ne1 e1 -> e1 +\n", 3, 'trailing operator'),
    ("dimension 2\nunital true\ne1 e1 -> e1 + - e2\n", 3, 'doubled sign'),
    ("dimension 2\nunital true\ne1 e1 -> - - e2\n", 3, 'doubled sign'),
    ("dimension 2\nunital true\ne1 e1 -> e1 e2\n", 3, "unrecognized term 'e1 e2'"),
    ("dimension 2\nunital true\ne1 e1 -> q1\n", 3, "unrecognized term 'q1'"),
    ("dimension 2\nunital true\ne1 e1 -> 1/0\n", 3, "bad rational '1/0': Fraction(1, 0)"),
    ("dimension 2\nunital true\ne1 e1 -> 1/0e1\n", 3, "bad rational '1/0': Fraction(1, 0)"),
    ("dimension 2\nunital true\ne1 e1 -> (1+i\n", 3, 'unbalanced parentheses'),
    ("dimension 2\nunital true\ne1 e1 -> 1+i)\n", 3, 'unbalanced parentheses'),
    ("dimension 2\nunital true\ne1 e1 -> ()e1\n", 3, "bad scalar ''"),
    ("dimension 2\nunital true\ne1 e1 -> (1+2)e1\n", 3, "bad scalar '1+2'"),
    ("dimension 2\nunital true\ne1 e1 -> (i+1)e1\n", 3, "bad scalar 'i+1'"),
    ("dimension 2\nunital true\ne1 e1 -> 1.5e1\n", 3, "unrecognized term '1.5e1'"),
    ("dimension 2\nunital true\ne1 e1 -> 2x\n", 3, "unrecognized term '2x'"),
    ("dimension 2\nunital true\ne1 e1 -> e\n", 3, "unrecognized term 'e'"),
    ("dimension 2\nunital true\ne1 e1 -> ie\n", 3, "unrecognized term 'ie'"),
    ("dimension 2\nunital true\ne1 e1 -> 2ii e1\n", 3, "unrecognized term '2ii e1'"),
    ("dimension 2\nunital true\ne1 e1 -> (1+i)(1-i)e1\n", 3, "unrecognized term '(1+i)(1-i)e1'"),
    ("dimension 2\nunital true\ne1 e1 -> e1 ++ e2\n", 3, 'doubled sign'),
    # line junk
    ("dimension 2\nunital true\ngarbage line\n", 3, "unrecognized line 'garbage line'"),
    ("dimension 2\nunital true\ne1 -> e1\n", 3, "unrecognized line 'e1 -> e1'"),
    ("dimension 2\nunital true\ne1 e2 => e1\n", 3, "unrecognized line 'e1 e2 => e1'"),
    ("dimension 2\nunital true\nproduct e1 e2 e1\n", 3, "unrecognized line 'product e1 e2 e1'"),
    ("dimension 2\nunital true\ne1 e2 ->\te1 & e2\n", 3, "unrecognized term 'e1 & e2'"),
    ("dimension 2\nbasis a,b\nbasis a,b\nfoo\n", 4, "unrecognized line 'foo'"),
    # a roles line that repeats a label or gives two labels one index
    ("dimension 2\nroles R0=1,R0=2\n", 2, 'duplicate role R0'),
    ("dimension 2\nroles R0=1,R1=1\n", 2, 'role R1 repeats index 1'),
    # a second name, scalar or roles line would silently replace the first
    ("name a\nname b\ndimension 1\n", 2, 'duplicate name line'),
    ("dimension 2\nscalar float64\nscalar gaussian-rational\n", 3, 'duplicate scalar line'),
    ("dimension 2\nroles R0=1\nroles R1=2\n", 3, 'duplicate roles line'),
    ("name a\ndimension 1\nname a\n", 3, 'duplicate name line'),
]


def test_malformed_corpus_is_big_enough():
    assert len(MALFORMED) >= 50


@pytest.mark.parametrize("text,line,message", MALFORMED,
                         ids=[f"bad{i:02d}" for i in range(len(MALFORMED))])
def test_malformed_inputs_rejected_with_line_numbers(text, line, message):
    with pytest.raises(AlgebraParseError) as exc_info:
        parse_text(text)
    assert exc_info.value.line == line
    assert str(exc_info.value) == f"line {line}: {message}"
