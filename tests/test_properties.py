import functools
import itertools
import math
import tracemalloc
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from nonassoc import properties
from nonassoc.algfile import parse_text
from nonassoc.algebra import AlgebraDef, jacobiator, multiply
from nonassoc.corpus import (
    complex_numbers,
    quaternions,
    random_commutative,
    so31_bracket_algebra,
    split_octonions,
    su2_bracket_algebra,
)
from nonassoc.properties import (
    PROPERTIES,
    check_derivation_property,
    check_property,
    myung_equivalence,
)
from nonassoc.scalar import GaussianRational, I, ZERO
from nonassoc.search import CandidateAlgebra, candidate_to_algebra
from nonassoc.zorn import zorn_octonions
from oracle import (
    FIXTURES,
    REFERENCE_LAWS,
    cube_defect,
    eager_solve_gaussian_integers,
    fixture_path,
    fixture_text,
    gaussian_split_octonions,
    linearized_failure,
    reference_failure,
)


def full_corpus():
    return [
        split_octonions(),
        quaternions(),
        su2_bracket_algebra(),
        complex_numbers(),
        random_commutative(),
        so31_bracket_algebra(),
        zorn_octonions(),
    ]


# Verified profile of each bundled algebra; None = not asserted here.
PROFILES = {
    "splitO": dict(associative=False, alternative=False, flexible=True,
                   lie_admissible=False, derivation_property=False, unital=True),
    "zornO": dict(associative=False, alternative=True, flexible=True,
                  lie_admissible=False, derivation_property=False, unital=True),
    "quaternion": dict(associative=True, alternative=True, flexible=True,
                       lie_admissible=True, derivation_property=True, unital=True),
    "su2": dict(associative=False, alternative=False, flexible=True,
                lie_admissible=True, derivation_property=True, unital=False),
    "complex": dict(associative=True, alternative=True, flexible=True,
                    lie_admissible=True, derivation_property=True, unital=True),
    "randcomm7": dict(flexible=True, lie_admissible=True, derivation_property=True,
                      unital=False),
    "so31": dict(associative=False, flexible=True, lie_admissible=True,
                 derivation_property=True, unital=False),
}


@pytest.mark.parametrize("alg", full_corpus(), ids=lambda a: a.name)
def test_property_profiles(alg):
    for prop, expected in PROFILES[alg.name].items():
        report = check_property(alg, prop)
        assert report.holds is expected, f"{alg.name} {prop}: {report.witness}"


def test_split_octonion_witnesses_are_lex_first():
    alg = split_octonions()
    rep = check_property(alg, "alternative")
    assert not rep.holds
    assert rep.witness.indices == (0, 1, 3)  # (q1, q2, q4)
    assert rep.witness.law == "right-alternative"
    assert rep.witness.defect == alg.basis_element(4).scaled(2)  # 2 q5

    rep = check_property(alg, "lie_admissible")
    assert rep.witness.indices == (0, 1, 3)
    assert rep.witness.defect == alg.basis_element(4).scaled(-4)  # -4 q5

    rep = check_property(alg, "associative")
    assert rep.witness.indices == (0, 3, 1)  # (q1, q4, q2)
    assert rep.witness.defect == alg.basis_element(4).scaled(2)

    rep = check_derivation_property(alg)
    assert rep.witness.indices == (0, 1, 3)
    assert rep.witness.defect == alg.basis_element(4).scaled(2)


def test_power_associativity():
    assert check_property(split_octonions(), "power_associative", degree=4).holds
    assert check_property(quaternions(), "power_associative", degree=6).holds
    # left-nilpotent non-power-associative counterexample: e1*e1 = e2, e2*e1 = e3,
    # everything else zero makes (e1 e1)(e1 e1) != ((e1 e1) e1) e1
    bad = AlgebraDef.from_products(
        "pa_counter", 3,
        {(0, 0): (ZERO, {1: 1}), (1, 0): (ZERO, {2: 1})},
        unital=False,
    )
    rep = check_property(bad, "power_associative", degree=4)
    assert not rep.holds
    assert "degree" in rep.witness.law
    with pytest.raises(ValueError, match="needs degree >= 3"):
        check_property(bad, "power_associative", degree=2)


def test_jordan_checks():
    assert check_property(complex_numbers(), "jordan").holds
    rep = check_property(quaternions(), "jordan")
    assert not rep.holds
    assert rep.witness.law == "commutativity"
    # a commutative algebra that breaks the Jordan law itself
    bad = AlgebraDef.from_products(
        "jordan_counter", 2,
        {(0, 0): (ZERO, {1: 1}), (0, 1): (ZERO, {0: 1}), (1, 0): (ZERO, {0: 1})},
        unital=False,
    )
    rep = check_property(bad, "jordan")
    assert not rep.holds
    assert rep.witness.law.startswith("Jordan law")


def test_unital_detection_without_flag():
    # e1 acts as an identity even though the algebra is not flagged unital
    internal = AlgebraDef.from_products(
        "internal_unit", 2,
        {(0, 0): (ZERO, {0: 1}), (0, 1): (ZERO, {1: 1}),
         (1, 0): (ZERO, {1: 1}), (1, 1): (ZERO, {})},
        unital=False,
    )
    rep = check_property(internal, "unital")
    assert rep.holds
    assert "internal unit" in rep.detail

    rep = check_property(su2_bracket_algebra(), "unital")
    assert not rep.holds
    assert not rep.witness.defect.is_zero()


def test_implication_chain_over_corpus():
    for alg in full_corpus():
        assoc = check_property(alg, "associative").holds
        alt = check_property(alg, "alternative").holds
        flex = check_property(alg, "flexible").holds
        if assoc:
            assert alt
        if alt:
            assert flex


def test_myung_equivalence_over_corpus():
    verdicts = myung_equivalence(full_corpus())
    assert all(v.equivalence_holds for v in verdicts)
    by_name = {v.algebra.name: v for v in verdicts}
    assert not by_name["splitO"].derivation.holds
    assert by_name["quaternion"].derivation.holds
    assert by_name["su2"].derivation.holds
    # commutative algebra: trivially flexible, Lie-admissible, derivation
    rc = by_name["randcomm7"]
    assert rc.flexible.holds and rc.lie_admissible.holds and rc.derivation.holds


# -- the law rows as data -----------------------------------------------------------

def order_arguments():
    """Each order of `properties._ORDERS` as the arguments of the associator,
    with (i, j, k) = (0, 1, 2): slice pos puts i at position pos, in front
    of j and k or of k and j."""
    orders = []
    for pos, exchanged in properties._ORDERS:
        args = [2, 1] if exchanged else [1, 2]
        args.insert(pos, 0)
        orders.append(tuple(args))
    return orders


def law_rows():
    """tag -> row of each law the associator kernel scans."""
    return {tag: row for entry in properties._LAWS.values() if entry
            for kernel, laws in entry[0] if kernel is properties._slab_kernel
            for tag, row in laws}


def orbit_rank(*tags):
    """The exact rank of the images of the rows of `tags` under the six
    permutations of (i, j, k), as vectors over the six orders.  A scan of all
    basis triples decides a row's images too, so two sets of rows decide the
    same algebras when their images and both together have one rank."""
    orders, rows = order_arguments(), law_rows()
    images = []
    for tag in tags:
        for sigma in itertools.permutations(range(3)):
            image = [0] * 6
            for args, c in zip(orders, rows[tag]):
                image[orders.index(tuple(sigma[a] for a in args))] += c
            images.append(image)
    return sympy.Matrix(images).rank()


def test_law_rows_are_signs_on_the_six_orders():
    assert order_arguments() == [(0, 1, 2), (1, 0, 2), (1, 2, 0), (0, 2, 1), (2, 0, 1), (2, 1, 0)]
    rows = law_rows()
    assert sorted(rows) == sorted(["associativity", "left-alternative", "right-alternative",
                                   "flexible law", "Jacobi identity for the commutator",
                                   "power associativity at degree 3", "bracket Leibniz rule"])
    assert all(len(row) == 6 and set(row) <= {-1, 0, 1} for row in rows.values())
    # the other scans read one slice as it is
    others = [row for entry in properties._LAWS.values() if entry for kernel, laws in entry[0]
              if kernel is not properties._slab_kernel for _, row in laws]
    assert others == [(1,)] * 3


def test_derivation_property_is_flexible_and_lie_admissible_by_the_rows():
    """Myung's theorem, decided for every algebra over a field of
    characteristic 0: the derivation row's images span the same space as
    the flexible and Lie-admissible rows' images."""
    derivation, flexible, lie = ("bracket Leibniz rule", "flexible law",
                                 "Jacobi identity for the commutator")
    assert orbit_rank(derivation) == orbit_rank(flexible, lie) == 4
    assert orbit_rank(derivation, flexible, lie) == 4
    # neither condition alone is the derivation property
    assert orbit_rank(flexible) == 3 and orbit_rank(lie) == 1
    assert orbit_rank(derivation, flexible) == orbit_rank(derivation, lie) == 4


def test_alternative_implies_flexible_by_the_rows():
    alternative = ("left-alternative", "right-alternative")
    assert orbit_rank(*alternative) == orbit_rank(*alternative, "flexible law") == 5
    # and associative implies both; flexible does not imply alternative
    assert orbit_rank("associativity") == orbit_rank("associativity", *alternative) == 6
    assert orbit_rank("flexible law", *alternative) > orbit_rank("flexible law")


def test_myung_rejects_empty_corpus():
    with pytest.raises(ValueError):
        myung_equivalence([])


@pytest.mark.parametrize("name", ["bogus", "power_associative_nonsense", "power-associativeX"])
def test_check_property_rejects_unknown_names(name):
    with pytest.raises(ValueError, match="unknown property"):
        check_property(split_octonions(), name)


@pytest.mark.parametrize("law", [law for law in PROPERTIES if "_" in law])
def test_check_property_takes_both_spellings(law):
    alg = split_octonions()
    hyphenated = outcome(check_property(alg, law.replace("_", "-"), degree=3))
    assert hyphenated == outcome(check_property(alg, law, degree=3))


def test_one_law_list_serves_the_library_and_the_cli():
    from click.testing import CliRunner

    from nonassoc.cli import main

    assert PROPERTIES == ("associative", "alternative", "flexible", "lie_admissible",
                          "power_associative", "jordan", "unital", "derivation_property")
    path = fixture_path("splitO.alg")
    for law in PROPERTIES:
        underscored, hyphenated = (CliRunner().invoke(main, ["check", path, "--properties", name])
                                   for name in (law, law.replace("_", "-")))
        assert underscored.exit_code in (0, 1), law
        assert underscored.output.startswith(("PASS " + law, "FAIL " + law))
        assert (hyphenated.exit_code, hyphenated.stdout_bytes) == (underscored.exit_code,
                                                                   underscored.stdout_bytes)


def test_split_octonion_lie_admissibility_defect_value():
    alg = split_octonions()
    q = alg.basis()
    assert jacobiator(q[3], q[4], q[5]) == q[6].scaled(12)


def test_quaternion_subalgebra_closure_inside_split_octonions():
    alg = split_octonions()
    q = alg.basis()
    for i, j in itertools.product(range(3), repeat=2):
        prod = multiply(q[i], q[j])
        assert all(prod.coeffs[k].is_zero() for k in range(3, 7))


# -- the tensor kernel against element arithmetic on basis triples ------------

def scaled(alg, name, factor, unit_factor):
    """`alg` with the coefficients of e_i e_j multiplied by `factor`(i, j)
    and its unit multiple by `unit_factor`(i, j)."""
    products = {}
    for i, j in itertools.product(range(alg.dim), repeat=2):
        p = alg.basis_product(i, j)
        unit, coeffs = p.unit, p.coeffs
        f = factor(i, j)
        products[(i, j)] = (unit * unit_factor(i, j), {k: c * f for k, c in enumerate(coeffs)})
    return AlgebraDef.from_products(name, alg.dim, products, alg.unital, alg.basis_names)


def exported_candidate(seed):
    return candidate_to_algebra(CandidateAlgebra.random(seed))


@pytest.mark.parametrize("alg", full_corpus() + [gaussian_split_octonions(), exported_candidate(1),
                                                 exported_candidate(2)],
                         ids=lambda a: f"{a.name}-{a.tensor.dtype}-{a.tensor.shape[2]}")
@pytest.mark.parametrize("law", sorted(REFERENCE_LAWS))
def test_witness_matches_basis_triple_reference(alg, law):
    report = check_property(alg, law)
    expected = reference_failure(alg, law)
    assert report.holds is (expected is None)
    if expected is not None:
        indices, tag, defect = expected
        assert (report.witness.indices, report.witness.law) == (indices, tag)
        assert report.witness.defect == defect


def test_tensor_dtype_follows_the_magnitude_bound():
    assert split_octonions().tensor.dtype == np.int64
    assert gaussian_split_octonions().tensor.shape == (8, 8, 16)
    # doubles exported as p / 2^k: the common denominator exceeds int64
    assert exported_candidate(1).tensor.dtype == object


def test_object_path_scales_the_int64_witnesses():
    # splitO in the basis s*q_k: coefficients scale by s and, because the
    # unit keeps weight one, unit multiples by s**2.  An associator of the
    # new basis is s**3 times the old one: s**2 on each new basis element.
    alg, s = split_octonions(), Fraction(1, 2**70)
    tiny = scaled(alg, "tiny", lambda i, j: s, lambda i, j: s * s)
    assert tiny.tensor.dtype == object
    for law in REFERENCE_LAWS:
        small, plain = check_property(tiny, law), check_property(alg, law)
        assert small.holds is plain.holds, law
        if not plain.holds:
            assert (small.witness.indices, small.witness.law) == (
                plain.witness.indices, plain.witness.law)
            assert small.witness.defect.coeffs == tuple(
                c * s**2 for c in plain.witness.defect.coeffs)
            assert small.witness.defect.unit == plain.witness.defect.unit * s**3


def test_internal_gaussian_unit():
    # e1 e1 = i e1 has the internal unit -i e1
    alg = AlgebraDef.from_products("gauss_unit", 1, {(0, 0): (ZERO, {0: I})}, unital=False)
    rep = check_property(alg, "unital")
    assert rep.holds
    assert rep.detail == "internal unit -i*e1"


@pytest.mark.parametrize("square", [0, I, 2**70], ids=["int64", "gaussian", "object"])
def test_unit_witness_can_fail_on_the_right(square):
    # e1 is a left identity and e2 e1 = 0: the best candidate e1 passes u e1,
    # e1 u and u e2, and fails first at e2 u - e2
    alg = AlgebraDef.from_products("left_unit", 2, {
        (0, 0): (ZERO, {0: 1}), (0, 1): (ZERO, {1: 1}), (1, 1): (ZERO, {1: square})},
        unital=False)
    e1, e2 = alg.basis()
    rep = check_property(alg, "unital")
    assert (rep.holds, rep.witness.indices) == (False, (1,))
    assert rep.witness.law == "no identity; best candidate e1"
    assert rep.witness.defect == multiply(e2, e1) - e2 == -e2


# -- power associativity and the Jordan law as linearized identities ----------

def squares_to_next(c):
    """Commutative: e1 e1 = c e2, e2 e2 = c e3.  x^2 x = x x^2 holds, but at
    x = e1, x^2 x^2 = c^3 e3 while (x^2 x) x = 0."""
    return AlgebraDef.from_products(
        "squares", 3, {(0, 0): (ZERO, {1: c}), (1, 1): (ZERO, {2: c})}, unital=False)


@pytest.mark.parametrize("c, dtype", [(1, np.int64), (2**25, object),
                                      (Fraction(1, 2**70), object)])
def test_degree_four_decides_what_degree_three_misses(c, dtype):
    # With c = 2**25 the associator sums would fit int64 but the degree-4
    # products, 24 c**3 here, would not, so the tensor holds Python ints.
    alg = squares_to_next(c)
    assert alg.tensor.dtype == dtype
    assert check_property(alg, "power_associative", degree=3).holds
    rep = check_property(alg, "power_associative", degree=4)
    assert not rep.holds
    assert rep.witness.indices == (0, 0, 0, 0)
    assert "degree 4" in rep.witness.law
    assert rep.witness.defect == alg.basis_element(2).scaled(24 * Fraction(c) ** 3)


def symmetric_matrices():
    """Symmetric 2x2 matrices E11, E22, E12 + E21 under x o y = (xy + yx)/2."""
    half = Fraction(1, 2)
    return AlgebraDef.from_products("sym2", 3, {
        (0, 0): (ZERO, {0: 1}), (1, 1): (ZERO, {1: 1}), (2, 2): (ZERO, {0: 1, 1: 1}),
        (0, 2): (ZERO, {2: half}), (2, 0): (ZERO, {2: half}),
        (1, 2): (ZERO, {2: half}), (2, 1): (ZERO, {2: half}),
    }, unital=False)


def test_jordan_law_holds_on_symmetric_matrices():
    alg = symmetric_matrices()
    assert not check_property(alg, "associative").holds
    assert check_property(alg, "jordan").holds
    # Jordan algebras are power-associative
    assert check_property(alg, "power_associative", degree=6).holds
    assert linearized_failure(alg, "jordan") is None


def pa_counter():
    return AlgebraDef.from_products(
        "pa_counter", 3, {(0, 0): (ZERO, {1: 1}), (1, 0): (ZERO, {2: 1})}, unital=False)


def jordan_counter():
    return AlgebraDef.from_products(
        "jordan_counter", 2,
        {(0, 0): (ZERO, {1: 1}), (0, 1): (ZERO, {0: 1}), (1, 0): (ZERO, {0: 1})},
        unital=False)


@pytest.mark.parametrize("alg, law", [
    (pa_counter(), "power_associative"),
    (jordan_counter(), "jordan"),
    (squares_to_next(1), "power_associative"),
    (squares_to_next(1), "jordan"),
    (random_commutative(), "power_associative"),
    (random_commutative(), "jordan"),
    (exported_candidate(1), "power_associative"),
], ids=lambda v: v if isinstance(v, str) else v.name)
def test_witness_is_the_polarized_defect(alg, law):
    report = check_property(alg, law, degree=4)
    expected = linearized_failure(alg, law)
    assert expected is not None and not report.holds
    indices, tag, defect = expected
    assert (report.witness.indices, report.witness.law) == (indices, tag)
    assert report.witness.defect == defect


def rebased(alg, name, rows):
    """`alg` in the basis f_a = sum_b rows[a][b] e_b, for an integer matrix
    `rows` of determinant +-1, whose inverse is an integer matrix too."""
    inverse = sympy.Matrix(rows).inv()
    basis = alg.basis()
    f = [sum((basis[b].scaled(c) for b, c in enumerate(row) if c), alg.zero()) for row in rows]
    products = {}
    for a, b in itertools.product(range(alg.dim), repeat=2):
        p = multiply(f[a], f[b])
        products[(a, b)] = (p.unit, {k: sum((p.coeffs[m] * int(inverse[m, k])
                                             for m in range(alg.dim)), ZERO)
                                     for k in range(alg.dim)})
    return AlgebraDef.from_products(name, alg.dim, products, alg.unital)


def two_squares_chains(c):
    """Two copies of `squares_to_next` whose tops cancel: e1 e1 = c e2,
    e2 e2 = c e5, e3 e3 = c e4, e4 e4 = -c e5, in the basis e1 + e3, e2,
    e3, e4, e5.  With x_k the coefficient of e_k, x^2 x^2 - (x^2 x) x is
    c^3 (x1^4 - x3^4) e5, which vanishes at the first basis element, so the
    first failing degree-4 tuple is off the diagonal.  (One chain alone
    gives c^3 x1^4 e3, whose first failing tuple is diagonal in every
    basis.)"""
    chains = AlgebraDef.from_products("chains", 5, {
        (0, 0): (ZERO, {1: c}), (1, 1): (ZERO, {4: c}),
        (2, 2): (ZERO, {3: c}), (3, 3): (ZERO, {4: -c})}, unital=False)
    rows = np.eye(5, dtype=int)
    rows[0, 2] = 1
    return rebased(chains, "two-chains", rows.tolist())


def product_chain(c):
    """Commutative: e1 e2 = c e5, e3 e4 = c e6, e5 e6 = c e7.  x^2 x^2 -
    (x^2 x) x is 8 c^3 x1 x2 x3 x4 e7, so the first failing degree-4 tuple
    has four distinct indices."""
    products = {}
    for i, j, k in [(0, 1, 4), (2, 3, 5), (4, 5, 6)]:
        products[(i, j)] = products[(j, i)] = (ZERO, {k: c})
    return AlgebraDef.from_products("product-chain", 7, products, unital=False)


@pytest.mark.parametrize("c, dtype", [(1, np.int64), (Fraction(1, 2**70), object)])
@pytest.mark.parametrize("make, first", [(two_squares_chains, (0, 0, 0, 2)),
                                         (product_chain, (0, 1, 2, 3))])
@pytest.mark.parametrize("law", ["power_associative", "jordan"])
def test_off_diagonal_witness_is_the_polarized_defect(make, first, law, c, dtype):
    alg = make(c)
    assert alg.tensor.dtype == dtype
    assert check_property(alg, "power_associative", degree=3).holds
    report = check_property(alg, law, degree=4)
    expected = linearized_failure(alg, law)
    assert not report.holds and expected[0] == first
    w = report.witness
    assert (w.indices, w.law, w.defect) == expected
    # the symmetric slots are sorted; the Jordan y is not one of the x slots
    assert first[3] not in first[:3]


def test_degree_four_evaluates_the_quartic_once_per_basis_block(monkeypatch):
    """A degree-4 PASS evaluates the quartic once on each basis 4-tuple: one
    block of dim**3 tuples per basis element, not one per argument position."""
    scans, detail = properties._LAWS["power_associative"]
    fold, laws = scans[-1]
    blocks = []

    def counting(mul, *args):
        blocks.append(math.prod(a.shape[-2] for a in args))
        return fold.keywords["form"](mul, *args)

    monkeypatch.setitem(properties._LAWS, "power_associative",
                        ([*scans[:-1], (functools.partial(fold, form=counting), laws)], detail))
    alg = parse_text(fixture_text("splitO.alg")).algebra
    assert check_property(alg, "power_associative", degree=4).holds
    assert blocks == [alg.dim**3] * alg.dim


def cyclic_group_algebra(n):
    """The group algebra of Z/n: e_a e_b = e_(a+b mod n), associative and
    commutative, with its unit e_1 internal."""
    return AlgebraDef.from_products("Z/n", n, {
        (a, b): (ZERO, {(a + b) % n: 1}) for a in range(n) for b in range(n)}, unital=False)


def test_degree_four_holds_one_block_at_a_time():
    alg = cyclic_group_algebra(16)
    assert alg.tensor.dtype == np.int64
    quartic_bytes = alg.dim**4 * alg.tensor.shape[2] * 8    # the form on every 4-tuple
    tracemalloc.start()
    try:
        report = check_property(alg, "power_associative", degree=4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.holds
    assert peak < quartic_bytes / 2


def test_candidate_fails_at_degree_three():
    report = check_property(exported_candidate(1), "power_associative", degree=3)
    assert report.witness.indices == (0, 0, 0)
    assert report.witness.law == "power associativity at degree 3"
    basis = exported_candidate(1).basis()
    assert report.witness.defect == cube_defect(basis[0]).scaled(6)


def unit_report(alg):
    rep = check_property(alg, "unital")
    return rep.holds, rep.detail, rep.witness.describe() if rep.witness else None


@pytest.mark.parametrize("seed", range(1, 12))
def test_candidate_unit_witness_matches_eager_solver(seed, monkeypatch):
    alg = exported_candidate(seed)
    report = unit_report(alg)
    assert "[no identity; best candidate " in report[2]
    monkeypatch.setattr(properties, "solve_gaussian_integers", eager_solve_gaussian_integers)
    assert unit_report(alg) == report


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_candidate_unit_search_builds_at_most_dim_plus_one_rows(seed, monkeypatch):
    # the pivots fall on the first dim rows and the next row rules a unit out,
    # so no other row of the 2 * dim**2 unit system is made
    alg = exported_candidate(seed)
    built, solve = [], properties.solve_gaussian_integers

    def counting(aug):
        build = aug.build
        aug.build = lambda i: built.append(i) or build(i)
        return solve(aug)

    monkeypatch.setattr(properties, "solve_gaussian_integers", counting)
    assert not check_property(alg, "unital").holds
    assert len(set(built)) == len(built) <= alg.dim + 1


# -- one associator kernel per algebra, shared by the laws ---------------------

def flipped_split_octonions():
    """splitO with the product q4 q5 negated."""
    alg = split_octonions()
    cells = alg.tensor[1:, 1:].reshape(alg.dim**2, -1).tolist()
    cells[3 * alg.dim + 4] = [-v for v in cells[3 * alg.dim + 4]]
    return AlgebraDef("splitO-flip", alg.dim, alg._den, cells, alg.unital, alg.basis_names)


SHARING_CASES = (
    [(name, lambda name=name: parse_text(fixture_text(name)).algebra) for name in FIXTURES]
    + [(f"corpus-{alg.name}", lambda alg=alg: alg) for alg in full_corpus()]
    + [(f"candidate-{seed}", functools.partial(exported_candidate, seed)) for seed in range(1, 6)]
    + [("splitO-flip", flipped_split_octonions)]
)


def outcome(report):
    w = report.witness
    return (report.property, report.holds, w.describe() if w else None,
            w.law if w else None, report.detail)


@pytest.mark.parametrize("make", [make for _, make in SHARING_CASES],
                         ids=[name for name, _ in SHARING_CASES])
def test_laws_do_not_depend_on_what_ran_before(make):
    """A law run after the other seven on one shared algebra, or in either
    order, reports what it reports on a fresh copy of the algebra."""
    shared = make()

    def fresh_copy():    # no kernel or memoised slab yet
        return AlgebraDef(shared.name, shared.dim, shared._den,
                          shared.tensor[1:, 1:].reshape(shared.dim**2, -1).tolist(), shared.unital,
                          shared.basis_names)

    fresh = {law: outcome(check_property(fresh_copy(), law)) for law in PROPERTIES}
    # in the second round each law runs right after the other seven
    for _ in range(2):
        assert {law: outcome(check_property(shared, law)) for law in PROPERTIES} == fresh
    backwards = fresh_copy()
    assert {law: outcome(check_property(backwards, law)) for law in PROPERTIES[::-1]} == fresh


def count_slices(monkeypatch):
    """Record (algebra, i, pos) for each associator slice computed."""
    calls = []
    raw_slices = properties._associator_slices

    def counting(alg):
        raw = raw_slices(alg)

        def slices(i, pos):
            calls.append((alg, i, pos))
            return raw(i, pos)

        return slices

    monkeypatch.setattr(properties, "_associator_slices", counting)
    return calls


def test_all_laws_on_a_candidate_compute_one_slab(monkeypatch):
    calls = count_slices(monkeypatch)
    alg = exported_candidate(1)
    for law in PROPERTIES:
        check_property(alg, law)
    # every law fails at slab 1; each of its three slices is contracted once
    assert [(i, pos) for _, i, pos in calls] == [(1, 0), (1, 1), (1, 2)]
    assert properties._slab_kernel(alg) is properties._slab_kernel(alg)
    assert properties._slab_kernel(exported_candidate(1)) is not properties._slab_kernel(alg)


def test_no_slice_is_computed_twice_in_a_row(monkeypatch):
    calls = count_slices(monkeypatch)
    algebras = [parse_text(fixture_text(name)).algebra for name in FIXTURES]
    algebras.append(exported_candidate(2))
    for alg in algebras:
        for law in PROPERTIES:
            check_property(alg, law)
    for alg in algebras:
        mine = [(i, pos) for a, i, pos in calls if a is alg]
        assert mine
        # within each run of one slab, every position is computed once
        for _, run in itertools.groupby(mine, key=lambda c: c[0]):
            positions = [pos for _, pos in run]
            assert len(positions) == len(set(positions)), alg.name


def test_shared_slices_are_read_only():
    alg = parse_text(fixture_text("splitO.alg")).algebra
    check_property(alg, "flexible")
    s = properties._slab_kernel(alg)(1, 0)
    assert s is properties._slab_kernel(alg)(1, 0)
    with pytest.raises(ValueError):
        s[0, 0, 0] = 1


# -- object tables on residue layers ------------------------------------------

def test_object_table_slices_are_float64_residue_layers():
    alg = exported_candidate(1)
    t, n = alg.tensor, alg.dim
    s = properties._slab_kernel(alg)(1, 0)
    assert s.dtype == np.float64 and s.shape[1:] == (n, n, n + 1)
    # A[1, j, k] = (e_1 e_j) e_k - e_1 (e_j e_k), contracted in Python ints
    exact = (np.tensordot(t[1, 1:], t[:, 1:], axes=(1, 0))
             - np.tensordot(t[1:, 1:], t[1], axes=(2, 0)))
    for layer, p in zip(s, properties._primes(n + 1, len(s))):
        assert np.array_equal(layer, (exact % p).astype(np.float64))


def test_int64_table_slices_have_no_layer_axis():
    alg = split_octonions()
    s = properties._slab_kernel(alg)(1, 0)
    assert s.dtype == np.int64 and s.shape == (alg.dim, alg.dim, alg.dim + 1)


@pytest.mark.parametrize("width", [2, 3, 8, 9, 16, 32, 64])
def test_primes_are_prime_and_keep_contractions_exact(width):
    primes = properties._primes(width, 24)
    assert all(sympy.isprime(p) for p in primes)
    # the largest such primes, in descending order
    assert list(primes) == sorted(sympy.primerange(primes[-1], primes[0] + 1), reverse=True)
    # a difference of two sums of K products of residues stays below 2**53
    assert 2 * width * primes[0] ** 2 <= 2**52 < 2 * width * sympy.nextprime(primes[0]) ** 2


def assert_matches_references(alg, law):
    """check_property agrees with element arithmetic: verdict, witness
    tuple, law tag and exact defect (for `unital`, with the eager solver)."""
    report = check_property(alg, law)
    if law == "unital":
        with mock.patch.object(properties, "solve_gaussian_integers",
                               eager_solve_gaussian_integers):
            assert outcome(check_property(alg, law)) == outcome(report)
        return
    reference = reference_failure if law in REFERENCE_LAWS else linearized_failure
    expected = reference(alg, law)
    assert report.holds is (expected is None), law
    if expected is not None:
        w = report.witness
        assert (w.indices, w.law, w.defect) == expected


def all_but_one_prime():
    """e1 e1 = a e2, e2 e1 = b e1 with a b the product of the first four
    primes of the associator kernel, which takes five: the first defect,
    A(e1, e1, e1) = a b e1, is zero modulo every prime but the last."""
    p = properties._primes(3, 4)
    a, b = p[0] * p[2], p[1] * p[3]
    return AlgebraDef.from_products("all-but-one", 2, {(0, 0): (ZERO, {1: a}),
                                                       (1, 0): (ZERO, {0: b})}, unital=False)


def test_a_defect_nonzero_modulo_one_prime_only():
    alg = all_but_one_prime()
    assert alg.tensor.dtype == object
    layers = properties._slab_kernel(alg)(1, 0)[:, 0, 0]    # A(e1, e1, e1), times den**2
    assert len(layers) == 5
    assert not layers[:4].any() and layers[4, 1] != 0
    rep = check_property(alg, "associative")
    assert rep.witness.indices == (0, 0, 0)
    assert rep.witness.defect == alg.basis_element(0).scaled(math.prod(properties._primes(3, 4)))
    for law in PROPERTIES:
        assert_matches_references(alg, law)


def one_dimensional(unital):
    c = Fraction(2**71 + 1, 3**45)
    return AlgebraDef.from_products("line", 1, {(0, 0): (c * c if unital else ZERO, {0: c})},
                                    unital=unital)


@pytest.mark.parametrize("unital", [False, True])
@pytest.mark.parametrize("law", PROPERTIES)
def test_dimension_one_object_tables(unital, law):
    alg = one_dimensional(unital)
    assert alg.tensor.dtype == object and alg.tensor.shape == (2, 2, 2)
    assert_matches_references(alg, law)


C, D = Fraction(2**70 + 1, 3**44), Fraction(-(5**31), 2**71 + 7)


def hand_built_object_tables():
    """Tables over denominators above 2**70: small Gaussian ones whose
    products are imaginary multiples, so every associator passes through
    i * i = -1, the Gaussian split octonions, and the quaternions, on which
    every law but the Jordan law holds."""
    c, d = C, D
    twisted = AlgebraDef.from_products("twisted", 2, {
        (0, 0): (ZERO, {1: I * c}), (1, 0): (ZERO, {0: I * d})}, unital=False)
    jordan = AlgebraDef.from_products("i-jordan", 2, {
        (0, 0): (ZERO, {1: I * c}), (0, 1): (ZERO, {0: I * d}), (1, 0): (ZERO, {0: I * d})},
        unital=False)
    return [twisted, jordan, squares_to_next(I * c),
            scaled(gaussian_split_octonions(), "tiny-gsplitO", lambda i, j: c, lambda i, j: c * c),
            scaled(quaternions(), "tiny-quaternion", lambda i, j: d, lambda i, j: d * d)]


# the polarized degree-4 reference takes over a second on the 7-dimensional
# table, so it skips `power_associative`; its `jordan` reference stops at the
# first failure of commutativity
HAND_BUILT = [(alg, law) for alg in hand_built_object_tables() for law in PROPERTIES
              if alg.dim <= 4 or law != "power_associative"]


@pytest.mark.parametrize("alg, law", HAND_BUILT,
                         ids=[f"{alg.name}-{law}" for alg, law in HAND_BUILT])
def test_hand_built_object_tables(alg, law):
    assert alg.tensor.dtype == object
    assert_matches_references(alg, law)


def test_hand_built_tables_reach_every_kernel():
    by_name = {alg.name: alg for alg in hand_built_object_tables()}
    assert all(alg.tensor.shape[2] == 2 * (alg.dim + 1)
               for name, alg in by_name.items() if name != "tiny-quaternion")
    # (e1 e1) e1 - e1 (e1 e1) = (i C e2) e1 = i C i D e1
    twisted = by_name["twisted"]
    assert check_property(twisted, "associative").witness.defect == \
        twisted.basis_element(0).scaled(-C * D)
    for name, law, tag in [("i-jordan", "jordan", "Jordan law"),
                           ("squares", "power_associative", "power associativity at degree 4")]:
        assert check_property(by_name[name], law).witness.law.startswith(tag)
    quaternion = by_name["tiny-quaternion"]
    assert all(check_property(quaternion, law).holds for law in PROPERTIES if law != "jordan")


@st.composite
def object_tables(draw):
    """Random tables of dim 1 to 5, real or Gaussian, unital or not, over a
    common denominator between 2**63 and 2**140: numerators 3v + 1 over
    3**k d keep the factor 3**k > 2**63, which puts the table on residues."""
    dim, unital, gaussian = draw(st.integers(1, 5)), draw(st.booleans()), draw(st.booleans())
    den = 3 ** draw(st.integers(40, 75)) * draw(st.integers(1, 2**20))
    value = st.integers(-2**58, 2**58).map(lambda v: Fraction(3 * v + 1, den))
    place = st.tuples(st.integers(0, dim - 1), st.integers(0, dim - 1),
                      st.integers(-1 if unital else 0, dim - 1), st.booleans() if gaussian
                      else st.just(False))
    products = {}
    for (i, j, k, imaginary), v in draw(st.dictionaries(place, value, min_size=dim * dim,
                                                        max_size=dim**3)).items():
        unit, terms = products.setdefault((i, j), (ZERO, {}))
        v = GaussianRational(0, v) if imaginary else GaussianRational(v)
        if k < 0:
            products[i, j] = (unit + v, terms)
        else:
            terms[k] = terms.get(k, ZERO) + v
    return AlgebraDef.from_products("drawn", dim, products, unital)


@settings(settings.get_profile("exact"), max_examples=120)
@given(object_tables())
def test_residue_kernels_match_the_references(alg):
    assert alg.tensor.dtype == object
    for law in PROPERTIES:
        assert_matches_references(alg, law)


# -- single-cell perturbations of the corpus tables ----------------------------

@st.composite
def perturbed_corpus_tables(draw):
    """splitO, zornO or the quaternions with one structure constant changed:
    the real or imaginary coefficient of the unit or of one basis element in
    one product e_i e_j moves by a nonzero integer over the table's
    denominator."""
    alg = draw(st.sampled_from([split_octonions(), zorn_octonions(), quaternions()]))
    n = alg.dim + 1
    cell = draw(st.integers(0, alg.dim**2 - 1))      # the product e_i e_j, i * dim + j
    k = draw(st.integers(0, 2 * n - 1))
    cells = [vec + [0] * (2 * n - len(vec))
             for vec in alg.tensor[1:, 1:].reshape(alg.dim**2, -1).tolist()]
    cells[cell][k] += draw(st.sampled_from([-2, -1, 1, 2]))
    return AlgebraDef(f"{alg.name}-cell", alg.dim, alg._den, cells, alg.unital, alg.basis_names)


@settings(settings.get_profile("exact"), max_examples=20)
@given(perturbed_corpus_tables())
def test_single_cell_perturbations_match_the_references(alg):
    for law in PROPERTIES:
        # the degree-4 reference takes over a second on a 7-dimensional table
        # that passes degree 3, as in HAND_BUILT
        if law == "power_associative" and alg.dim == 7 and \
                check_property(alg, law, degree=3).holds:
            continue
        assert_matches_references(alg, law)
