"""Exact verification toolkit for structure-constant algebras, the
split-octonion table and its Zorn matrix representation, graded superspace
operator brackets, and a numerical search for a momentum-like
nonassociative algebra."""

from .algebra import (
    AlgebraDef,
    AlgebraMismatchError,
    Element,
    associator,
    commutator,
    jacobiator,
    multiply,
)
from .algfile import AlgebraParseError, parse_text, serialize
from .corpus import (
    complex_numbers,
    quaternions,
    random_commutative,
    so31_bracket_algebra,
    split_octonions,
    standard_corpus,
    su2_bracket_algebra,
)
from .properties import (
    PropertyReport,
    Witness,
    check_derivation_property,
    check_property,
    myung_equivalence,
)
from .report import build_verify_report
from .scalar import GaussianRational
from .search import CandidateAlgebra, ResidualBreakdown, SearchConfig, residual
from .spinor import SigmaConvention, raise_lower
from .superspace import SuperOp, build_generators, compose, graded_bracket
from .zorn import (
    from_zorn,
    to_zorn,
    verify_spin_commutators,
    verify_spin_decomposition,
    verify_zorn_isomorphism,
    zorn_octonions,
)

__version__ = "0.1.0"

__all__ = [
    "AlgebraDef",
    "AlgebraMismatchError",
    "AlgebraParseError",
    "CandidateAlgebra",
    "Element",
    "GaussianRational",
    "PropertyReport",
    "ResidualBreakdown",
    "SearchConfig",
    "SigmaConvention",
    "SuperOp",
    "Witness",
    "associator",
    "build_generators",
    "build_verify_report",
    "check_derivation_property",
    "check_property",
    "commutator",
    "complex_numbers",
    "compose",
    "from_zorn",
    "graded_bracket",
    "jacobiator",
    "multiply",
    "myung_equivalence",
    "parse_text",
    "quaternions",
    "raise_lower",
    "random_commutative",
    "residual",
    "serialize",
    "so31_bracket_algebra",
    "split_octonions",
    "standard_corpus",
    "su2_bracket_algebra",
    "to_zorn",
    "verify_spin_commutators",
    "verify_spin_decomposition",
    "verify_zorn_isomorphism",
    "zorn_octonions",
]
