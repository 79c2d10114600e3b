import itertools
from fractions import Fraction

import numpy as np
import pytest

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
    check_derivation_property,
    check_property,
    myung_equivalence,
)
from nonassoc.scalar import I, ZERO
from nonassoc.search import CandidateAlgebra, candidate_to_algebra
from nonassoc.zorn import zorn_octonions


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
        unit, coeffs = alg.structure[i][j]
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
