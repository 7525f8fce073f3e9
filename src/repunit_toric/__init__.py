"""Exact-arithmetic toolkit for binomial ideals of repunit monomial curves.

Layers, bottom up: semigroup arithmetic, monomial/binomial algebra with
checked exponents, matrix term orders, a binomial Buchberger engine with
saturation, the structured minor and relation families of an instance, an
exact fiber oracle for minimal generators (meet-in-the-middle fiber
enumeration, no Groebner engine), and claim verifiers with structured
reports plus a CLI.
"""

from .binomials import (
    EXPONENT_LIMIT,
    Binomial,
    ExponentOverflowError,
    Grading,
    format_binomial,
    format_monomial,
    is_homogeneous,
)
from .families import (
    LatticeMatrix,
    MinorFamily,
    minors_closed_chain,
    minors_open_chain,
    projective_grading,
    projective_relation_matrix,
    scalar_grading,
    structured_closed_family,
    structured_family,
    structured_open_family,
    toric_ideal,
    weight_relation_matrix,
)
from .fibers import (
    Fiber,
    betti_degrees,
    enumerate_fiber,
    forced_generators,
    has_unique_minimal_system,
    minimal_generator_count,
    prune_redundant_generators,
    unique_minimal_system,
)
from .groebner import (
    GroebnerBasis,
    buchberger,
    groebner_reduced,
    ideal_equal,
    ideal_member,
    is_groebner_basis,
    is_minimal_basis,
    is_reduced_basis,
    reduce_gb,
    saturate_torus,
    saturate_variable,
)
from .orders import (
    MatrixOrder,
    build_order_i,
    cheapness_sequence,
    five_variable_order,
    minor_side_predicate,
)
from .reports import (
    ClaimResult,
    InstanceRef,
    VerificationReport,
    parse_json,
    render_json,
    render_text,
)
from .semigroup import (
    InstanceParams,
    gcd_of_generators,
    generator,
    generators,
    homogeneity_identity_holds,
    repunit,
)
from .verify import CLAIMS, run_claim

__version__ = "0.1.0"
