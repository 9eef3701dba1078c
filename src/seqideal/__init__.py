"""seqideal: exact linear-complexity analysis of finite sequences.

The package builds, for a finite sequence over GF(2), GF(p) or the
rationals, a pair of homogeneous bivariate forms generating the
annihilator ideal of the sequence's inverse form.  From the pair fall
out the linear complexity, the monic minimal polynomials, the full
linear complexity profile, and perfect-profile detection.  Independent
oracles (Berlekamp-Massey, brute-force recurrence solving, the
Euclidean-algorithm construction) cross-validate everything, and a
dedicated module handles the Rueppel sequence with bit-packed
arithmetic at desk scale.
"""

from .field import (
    GF,
    GF2,
    QQ,
    Field,
    FieldElement,
    FieldError,
    FieldMismatchError,
    ParseError,
    parse_element,
)
from .bivariate import (
    Form,
    InverseForm,
    UniPoly,
    apply,
    dehomogenize,
    discrepancy,
    form_gcd,
    homogenize,
    unipoly_gcd,
)
from .vop_engine import (
    VOP,
    EngineError,
    ProfileEntry,
    StepRecord,
    Theta,
    VOPState,
    is_plcp,
    linear_complexity,
    minimal_leading_forms,
    minimal_polynomial,
    random_plcp_sequence,
    synthesize,
    synthesize_packed,
    synthesize_rational,
    synthesize_trace,
)
from .oracles import (
    BMResult,
    BruteForceResult,
    EAResult,
    berlekamp_massey,
    brute_force_min_poly,
    dai_ea,
    reciprocal,
)
from .rueppel import (
    closed_form,
    delta_parity_check,
    matrix_recurrence,
    quad_ext_identity,
    quad_ext_sweep,
    ralg,
    ralg_lambda_sweep,
    rueppel_inverse_form,
    rueppel_sequence,
)

__version__ = "0.1.0"

__all__ = [
    "GF",
    "GF2",
    "QQ",
    "Field",
    "FieldElement",
    "FieldError",
    "FieldMismatchError",
    "ParseError",
    "parse_element",
    "Form",
    "InverseForm",
    "UniPoly",
    "apply",
    "dehomogenize",
    "discrepancy",
    "form_gcd",
    "homogenize",
    "unipoly_gcd",
    "VOP",
    "EngineError",
    "ProfileEntry",
    "StepRecord",
    "Theta",
    "VOPState",
    "is_plcp",
    "linear_complexity",
    "minimal_leading_forms",
    "minimal_polynomial",
    "random_plcp_sequence",
    "synthesize",
    "synthesize_packed",
    "synthesize_rational",
    "synthesize_trace",
    "BMResult",
    "BruteForceResult",
    "EAResult",
    "berlekamp_massey",
    "brute_force_min_poly",
    "dai_ea",
    "reciprocal",
    "closed_form",
    "delta_parity_check",
    "matrix_recurrence",
    "quad_ext_identity",
    "quad_ext_sweep",
    "ralg",
    "ralg_lambda_sweep",
    "rueppel_inverse_form",
    "rueppel_sequence",
    "__version__",
]
