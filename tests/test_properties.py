import functools
import importlib.resources
import itertools
from fractions import Fraction

import numpy as np
import pytest

from nonassoc import properties
from nonassoc.algfile import parse_text
from nonassoc.algebra import AlgebraDef, associator, commutator, jacobiator, multiply
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
from nonassoc.scalar import I, ZERO
from nonassoc.search import CandidateAlgebra, candidate_to_algebra
from nonassoc.zorn import zorn_octonions
from test_scalar import eager_solve_gaussian_integers


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


def test_myung_rejects_empty_corpus():
    with pytest.raises(ValueError):
        myung_equivalence([])


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

# Each multilinear law as defect functions of three elements, in the order
# the checker reports them.
REFERENCE_LAWS = {
    "associative": [("associativity", associator)],
    "alternative": [
        ("left-alternative", lambda x, y, z: associator(x, y, z) + associator(y, x, z)),
        ("right-alternative", lambda x, y, z: associator(x, y, z) + associator(x, z, y)),
    ],
    "flexible": [("flexible law", lambda x, y, z: associator(x, y, z) + associator(z, y, x))],
    "lie_admissible": [("Jacobi identity for the commutator", jacobiator)],
    "derivation_property": [("bracket Leibniz rule", lambda x, y, z: (
        commutator(z, multiply(x, y))
        - (multiply(x, commutator(z, y)) + multiply(commutator(z, x), y))))],
}


def reference_failure(alg, law):
    """(indices, tag, defect) of the first failing basis triple in lex order."""
    basis = alg.basis()
    for i, j, k in itertools.product(range(alg.dim), repeat=3):
        for tag, defect in REFERENCE_LAWS[law]:
            d = defect(basis[i], basis[j], basis[k])
            if not d.is_zero():
                return (i, j, k), tag, d
    return None


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


def gaussian_split_octonions():
    def phase(i, j):
        return I if (i + 2 * j) % 3 == 0 else 1

    return scaled(split_octonions(), "gsplitO", phase, phase)


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


# -- power associativity and the Jordan law as linearized identities ----------

def cube_defect(x):
    return multiply(multiply(x, x), x) - multiply(x, multiply(x, x))


def fourth_power_defect(x):
    xx = multiply(x, x)
    return multiply(xx, xx) - multiply(multiply(xx, x), x)


def jordan_defect(x, y):
    xx = multiply(x, x)
    return multiply(multiply(x, y), xx) - multiply(x, multiply(y, xx))


def polarization(g, xs):
    """F(x1..xn) = sum over nonempty S of (-1)^(n-|S|) g(sum of x_s over S)."""
    n, total = len(xs), xs[0].algebra.zero()
    for size in range(1, n + 1):
        for subset in itertools.combinations(xs, size):
            total = total + g(sum(subset[1:], subset[0])).scaled((-1) ** (n - size))
    return total


def linearized_failure(alg, law):
    """(indices, tag, defect) of the first failing basis tuple in lex order,
    from element arithmetic alone."""
    basis = alg.basis()
    if law == "jordan":
        for i, j in itertools.product(range(alg.dim), repeat=2):
            d = multiply(basis[i], basis[j]) - multiply(basis[j], basis[i])
            if not d.is_zero():
                return (i, j), "commutativity", d
        stages = [(4, "Jordan law (xy)(xx) = x(y(xx))",
                   lambda xs: polarization(lambda x: jordan_defect(x, xs[3]), xs[:3]))]
    else:
        stages = [(3, "power associativity at degree 3", lambda xs: polarization(cube_defect, xs)),
                  (4, "power associativity at degree 4",
                   lambda xs: polarization(fourth_power_defect, xs))]
    for arity, tag, defect in stages:
        for indices in itertools.product(range(alg.dim), repeat=arity):
            d = defect([basis[i] for i in indices])
            if not d.is_zero():
                return indices, tag, d
    return None


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


# -- one associator kernel per algebra, shared by the laws ---------------------

FIXTURES = ["complex.alg", "quaternion.alg", "so31.alg", "splitO.alg", "su2.alg", "zornO.alg"]


def parse_fixture(name):
    return parse_text(importlib.resources.files("nonassoc").joinpath("fixtures", name)
                      .read_text()).algebra


def flipped_split_octonions():
    """splitO with the product q4 q5 negated."""
    alg = split_octonions()
    cells = alg.tensor[1:, 1:].reshape(alg.dim**2, -1).tolist()
    cells[3 * alg.dim + 4] = [-v for v in cells[3 * alg.dim + 4]]
    return AlgebraDef("splitO-flip", alg.dim, alg._den, cells, alg.unital, alg.basis_names)


SHARING_CASES = (
    [(name, functools.partial(parse_fixture, name)) for name in FIXTURES]
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
    algebras = [parse_fixture(name) for name in FIXTURES] + [exported_candidate(2)]
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
    alg = parse_fixture("splitO.alg")
    check_property(alg, "flexible")
    s = properties._slab_kernel(alg)(1, 0)
    assert s is properties._slab_kernel(alg)(1, 0)
    with pytest.raises(ValueError):
        s[0, 0, 0] = 1
