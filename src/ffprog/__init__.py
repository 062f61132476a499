"""Desk-scale additive combinatorics over prime fields.

Gowers uniformity norms with multiple evaluation strategies, weighted counting
operators for polynomial progressions and linear-form systems, multiplicative
character sums against Weil-type bounds, and exact/greedy searches for
progression-free sets: everything checkable numerically at small p.
"""

from types import ModuleType as _ModuleType

from .budget import get_budget, set_budget
from .counting import (
    IntPolynomial,
    LinearSystemSpec,
    ProgressionSpec,
    SpecValidation,
    dual_function,
    exact_max_free_set,
    find_progression,
    lambda_ap,
    lambda_linear,
    lambda_poly,
    monomial,
    parse_progression_spec,
    render_progression_spec,
    validate_spec,
)
from .errors import (
    BoundViolation,
    BudgetExceeded,
    FFProgError,
    InvalidSpec,
    IoFailure,
    MalformedFixture,
    ParseError,
    UsageError,
)
from .experiments import (
    DecayFit,
    SweepReport,
    SweepRow,
    TrialFunctionFamily,
    character_norm_decay,
    counterexample_demo,
    discorrelation_error,
    discorrelation_sweep,
    greedy_free_set,
    restricted_ap_experiment,
    weil_corollary_check,
)
from .field import (
    FieldCtx,
    is_prime,
    kth_power_residues,
    make_field,
    mult_character,
    residue_indicator_via_characters,
    smallest_primitive_root,
)
from .harmonic import (
    FpFunction,
    additive_char,
    constant,
    fourier,
    gowers_direct,
    gowers_fast,
    indicator,
    inner,
    max_fourier_coeff,
    mult_derivative,
    norms,
)

__version__ = "0.1.0"

# the imported functions and classes; the submodules the imports bind are not part of it
__all__ = [
    name
    for name in dir()
    if not name.startswith("_") and not isinstance(globals()[name], _ModuleType)
]
