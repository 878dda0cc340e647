"""Exact Dickson invariants and Steenrod operations over prime fields."""
from ._version import __version__
from .fp_poly import (
    EXPONENT_LIMIT,
    Monomial,
    ParseError,
    Poly,
    PRIME_LIMIT,
    ShapeError,
    binom_mod_p,
    format_poly,
    frobenius,
    grevlex_key,
    is_prime,
    parse_poly,
    poly_add,
    poly_const,
    poly_dot,
    poly_mul,
    poly_one,
    poly_pow,
    poly_scale,
    poly_sub,
    poly_var,
    poly_zero,
    require_prime,
)
from .invariants import (
    L,
    P_coef,
    R_coef,
    bracket,
    dickson_Q,
    dickson_monomial_count,
    generator_actions,
    invariant_space_dimension,
    is_invariant,
    recursion_rhs,
    y_quotient,
)
from .steenrod import (
    corollary_rhs,
    sign_convention_flag,
    smith_switzer_value,
    st_delta,
    st_delta_via_dl2,
    st_delta_via_main,
    steenrod_P,
)
from .verify import (
    CaseResult,
    CaseSpec,
    GridConfig,
    Report,
    THEOREMS,
    emit_report,
    grid_cases,
    run_case,
    run_grid,
)

__all__ = [name for name in dir() if not name.startswith("_")]
