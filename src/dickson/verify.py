"""Grid verification of the Dickson / Steenrod identities.

Each identity is checked as an exact polynomial equality at concrete
(p, n, s, i, d) points, never symbolically.  A case either passes, fails
with a witness (the grevlex-largest monomial where the two sides differ),
is skipped, with the reason, when a term-count, time or size limit is hit,
or passes with a flag and a witness when a tabulated corollary row differs
from the theorem in its sign alone (the i = n + 3 row, at odd p).

The main theorem, st_delta(Q_{n,s}, i) = (-1)**n Q_{n,0} (R**p Q_{n,s} - P**p),
is decided by an exact certificate (_certificate_gap): det-formula, the
base cases of the bracket quotients and the vanishing of Dickson's
polynomial at each x_j, q0-power on the x side, and in the free ring
F_p[y_0..y_{n-1}], where the quotients are small polynomials in
y_t = Q_{n,t} (invariants.y_quotient), the recursion that carries them
up and one identity between them.  A pass is a proof, since y -> Q is a
ring map that commutes with Frobenius.
routes-agree keeps the x route: it compares st_delta_via_main, built from
R_coef and P_coef, the same quotients in x (one body builds both), with
the determinant route.

The corollaries cor-n1..3 are the same check at i = n + k
(_case_closed_form): the certificate at i = n + k, and the row tabulated
for i = n + k, read in the y's by the reader the x side uses
(steenrod._read_row), equal to the y_quotients R and P.  With the
theorem's sign the case passes; with the plus sign of the cor-n3 row, at
odd p, the composite misses the action by 2 (-1)**n Q_{n,0} P**p, whose
leading monomial, the witness, comes from two brackets, so no composite is
built in x.  A broken link or row fails the case, and runs the x
comparison, with st_delta_via_main for main and corollary_rhs for a
corollary, to find its witness.

Reports serialize deterministically: emitting the same Report twice gives
identical bytes, and two grid runs with the same configuration agree
everywhere except the per-case timings.  No case is randomized: the seed
is only recorded in the report.
"""
from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, product
from typing import Callable, Dict, List, NamedTuple, Optional, Tuple

from ._version import __version__
from .fp_poly import (
    Monomial,
    Poly,
    case_budget,
    format_poly,
    grevlex_key,
    poly_add,
    poly_const,
    poly_dot,
    poly_mul,
    poly_one,
    poly_pow,
    poly_scale,
    poly_var,
    poly_zero,
    require_prime,
)
from .invariants import (
    BoundExceeded,
    L,
    _P_bracket,
    _prefix,
    _sign_unit,
    bracket,
    dickson_Q,
    dickson_monomial_count,
    generator_actions,
    invariant_space_dimension,
    recursion_rhs,
    y_quotient,
)
from .steenrod import (
    _L_pow,
    _read_row,
    corollary_rhs,
    sign_convention_flag,
    smith_switzer_value,
    st_delta,
    st_delta_via_dl2,
    st_delta_via_main,
)

# (p, n) pairs exercised when no explicit ranges are requested.
DEFAULT_PAIRS: Tuple[Tuple[int, int], ...] = (
    (2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (5, 2),
)

DEFAULT_TERM_BUDGET = 10 ** 7
DEFAULT_TIME_BUDGET = 60.0
DEFAULT_D_MAX = 30
TERM_BUDGET_ENV = "DICKSON_TERM_BUDGET"


class BudgetExceeded(Exception):
    """Internal: a per-case resource budget was hit; the case is skipped."""


@dataclass(frozen=True)
class CaseSpec:
    theorem: str
    p: int
    n: int
    s: Optional[int] = None
    i: Optional[int] = None
    d: Optional[int] = None
    perturb: bool = False  # self-test hook: falsify the identity on purpose


@dataclass(frozen=True)
class CaseResult:
    spec: CaseSpec
    passed: bool
    skipped: bool
    flagged: bool
    elapsed_ms: float
    witness: Optional[str] = None
    skip_reason: Optional[str] = None


@dataclass(frozen=True)
class Report:
    version: str
    sign_flag: int
    seed: int
    cases: Tuple[CaseResult, ...]

    @property
    def summary(self) -> Dict[str, int]:
        return {
            "passed": sum(1 for c in self.cases if c.passed and not c.skipped),
            "failed": sum(1 for c in self.cases if not c.passed and not c.skipped),
            "skipped": sum(1 for c in self.cases if c.skipped),
        }


def term_budget_from_env() -> int:
    raw = os.environ.get(TERM_BUDGET_ENV)
    if raw is None:
        return DEFAULT_TERM_BUDGET
    try:
        value = int(raw)
        if value < 1:
            raise ValueError
    except ValueError:
        raise ValueError(
            f"{TERM_BUDGET_ENV} must be a positive integer, got {raw!r}"
        ) from None
    return value


class _Budget:
    def __init__(self, term_limit: int, time_limit: float):
        self.term_limit = term_limit
        self.deadline = time.monotonic() + time_limit

    def guard(self, *polys: Poly) -> None:
        self.before_terms(*(len(f.terms) for f in polys))

    def before_terms(self, *counts: int) -> None:
        """Stop before polynomials of these term counts past the term or time budget."""
        for count in counts:
            if count > self.term_limit:
                raise BudgetExceeded(f"{count} terms exceed the budget {self.term_limit}")
        self.checkpoint()

    def checkpoint(self) -> None:
        if time.monotonic() > self.deadline:
            raise BudgetExceeded("time budget exceeded")

    def before_product(self, f_terms: int, g_terms: int) -> None:
        """Stop before a product of f_terms by g_terms terms whose term
        pairs, a bound on its size, exceed the term budget."""
        self.checkpoint()
        if f_terms * g_terms > self.term_limit:
            raise BudgetExceeded(
                f"a product of {f_terms} by {g_terms} terms exceeds the budget "
                f"{self.term_limit}"
            )


_Outcome = Tuple[bool, bool, Optional[str]]  # (passed, flagged, witness)
_Check = Callable[[CaseSpec, _Budget], _Outcome]
_Coord = Tuple[Optional[int], Optional[int], Optional[int]]  # (s, i, d)


def _compare(lhs: Poly, rhs: Poly) -> _Outcome:
    """Pass, or fail with the witness: the grevlex-largest monomial where
    the two sides differ."""
    if lhs == rhs:
        return True, False, None
    diff = [
        m for m in set(lhs.terms) | set(rhs.terms)
        if lhs.terms.get(m, 0) != rhs.terms.get(m, 0)
    ]
    return False, False, _monomial(lhs.n, lhs.p, max(diff, key=grevlex_key))


def _monomial(n: int, p: int, m: Monomial) -> str:
    """A witness: the monomial m in the text grammar."""
    return format_poly(Poly._make(n, p, {m: 1}))


def _case_st_delta_Q(spec: CaseSpec, budget: _Budget, i: int, *routes) -> _Outcome:
    """st_delta(Q_{n,s}, i) against each route(n, s, i, p).  Every side is
    built and guarded before any is compared; the first route that differs
    gives the witness."""
    lhs = st_delta(dickson_Q(spec.n, spec.s, spec.p), i)
    budget.guard(lhs)
    sides = []
    for route in routes:
        sides.append(route(spec.n, spec.s, i, spec.p))
        budget.guard(sides[-1])
    for rhs in sides:
        if rhs != lhs:
            return _compare(lhs, rhs)
    return True, False, None


@lru_cache(maxsize=None)
def _roots_hold(n: int, p: int) -> bool:
    """Whether Dickson's polynomial f_n(X) = sum over t in 0..n of
    (-1)**(n-t) Q_{n,t} X**(p**t), with Q_{n,n} = 1, vanishes at each of
    x1, .., xn: one poly_dot per variable, checked at most once per
    process (L. E. Dickson, Trans. AMS 12, 1911; C. Wilkerson, A primer on
    the Dickson invariants, 1983).

    Raised to the p**e-th power, the root at xj rewrites xj**(p**(e+n)) as
    sum over t of (-1)**(n-1-t) Q_{n,t}**(p**e) xj**(p**(e+t)), with the
    same coefficients for every j.  So, the bracket being linear in its
    last row, every bracket recursion instance follows:
    [prefix, e + n] = sum over t of (-1)**(n+t-1) Q_{n,t}**(p**e) [prefix, e + t].
    """
    for j in range(1, n + 1):
        x = poly_var(j, n, p)
        if poly_dot([(_sign_unit(n - t, p), dickson_Q(n, t, p), x, t)
                     for t in range(n + 1)], n, p).terms:
            return False
    return True


@lru_cache(maxsize=None)
def _step_holds(n: int, left: int, j: int, p: int) -> bool:
    """One step of the induction behind _quotients_proven, checked at most
    once per process, the prefix being 0..n-1 with left left out.  For
    j < n, the base case [prefix, j] = L_n y_quotient(n, left, j, p), a
    constant, in x.  Above, the roots of Dickson's polynomial (_roots_hold)
    and the y-recursion as stated, written here and not through the
    builder: F(j) = sum over t of (-1)**(n+t-1) F(j - n + t) y_t**(p**(j-n)),
    F(k) = y_quotient(n, left, k, p).  No bracket above j < n is built."""
    if j < n:
        lhs = bracket(n, _prefix(n, left) + (j,), p)
        return lhs == poly_mul(L(n, n, p), y_quotient(n, left, j, p))
    if not _roots_hold(n, p):
        return False
    rhs = poly_dot([(_sign_unit(n + t - 1, p), y_quotient(n, left, j - n + t, p),
                     poly_var(t + 1, n, p), j - n) for t in range(n)], n, p)
    return y_quotient(n, left, j, p) == rhs


def _quotients_proven(n: int, left: int, top: int, p: int) -> bool:
    """Whether [prefix, j] = L_n y_quotient(n, left, j, p)(Q) is proven for
    every j <= top, the prefix being 0..n-1 with left left out.

    By induction on j: the base cases j < n are checked as they stand.
    Above them, the roots of Dickson's polynomial give the bracket
    recursion instance [prefix, j] = sum over t of
    (-1)**(n+t-1) [prefix, j - n + t] Q_{n,t}**(p**(j-n)), and y_quotient
    is checked to follow the same recursion in y; as y -> Q is a ring map
    that commutes with Frobenius, the two carry the claim from j - n..j - 1
    to j.  So the induction reaches top only if every step up to top holds.
    """
    j = -1
    while j < top and _step_holds(n, left, j + 1, p):
        j += 1
    return j >= top


def _certificate_gap(spec: CaseSpec, budget: _Budget, i: int) -> Optional[str]:
    """The first link of the certificate of the main theorem at
    (p, n, s, i) that fails, or None when all four hold.

    With X = [0..n-1 without s, i], R = [0..n-2, i-1] and
    P = [0..n-1 without s-1, i-1], each divided by L_n:
      1. det-formula: st_delta(Q_{n,s}, i) = (-1)**n L_n**(p-2) L_n X;
      2. the base cases in x, the roots of Dickson's polynomial in x, and
         the y-recursion that carries X, R and P up from the base cases
         (_quotients_proven), so that L_n times the image of y_quotient
         under y -> Q is each bracket;
      3. q0-power: Q_{n,0} = L_n**(p-1);
      4. in the free ring F_p[y]: X = R**p y_s - P**p.
    Together: st_delta(Q_{n,s}, i) = (-1)**n Q_{n,0} (R**p Q_{n,s} - P**p).
    Only links 1 to 3 are built in x, and of link 2 only the base cases and
    the n roots, each once per process; the quotients themselves stay in
    y, where they are small.
    """
    n, s, p = spec.n, spec.s, spec.p
    if not _case_st_delta_Q(spec, budget, i, st_delta_via_dl2)[0]:
        return "det-formula"
    for left, top in ((s, i), (n - 1, i - 1), (s - 1, i - 1)):
        if left >= 0 and not _quotients_proven(n, left, top, p):
            return f"recursion up to [0..{n - 1} without {left}, {top}]"
    if not _case_q0_power(spec, budget)[0]:
        return "q0-power"
    X = y_quotient(n, s, i, p)
    R, P, _ = _quotient_row(n, s, i, p)
    rhs = poly_dot([(1, poly_var(s + 1, n, p), R, 1), (-1, poly_one(n, p), P, 1)], n, p)
    budget.guard(X, rhs)
    return None if X == rhs else "free ring"


# A row (R, P, sign) of the main form, R and P in the Dickson coordinates,
# as a function of (n, s, i, p).
_YRow = Callable[[int, int, int, int], Tuple[Poly, Poly, int]]


def _quotient_row(n: int, s: int, i: int, p: int) -> Tuple[Poly, Poly, int]:
    """The main theorem's own row, read like the corollary rows: R = F(n)
    and P = F(s), F(a) = [0..n-1 without a-1, i-1] / L_n as a y_quotient
    (F(0) = 0), with the sign -1."""
    R, P = (y_quotient(n, a - 1, i - 1, p) if a > 0 else poly_zero(n, p) for a in (n, s))
    return R, P, -1


def _lead(f: Poly) -> Monomial:
    return max(f.terms, key=grevlex_key)


def _case_closed_form(spec: CaseSpec, budget: _Budget, i: int, row: _YRow,
                      x_route: Callable[[int, int, int, int], Poly]) -> _Outcome:
    """st_delta(Q_{n,s}, i) against the main form
    (-1)**n Q_{n,0} (R**p Q_{n,s} + sign P**p) at the row (R, P, sign) =
    row(n, s, i, p), decided without building the form in x.

    The certificate (_certificate_gap) proves the form with the
    y_quotients R and P and the sign -1.  So if the row's R and P are those
    y_quotients in F_p[y], the case passes when sign = -1 mod p.  Otherwise
    (sign +1 at odd p) the form exceeds the action by exactly
    2 (-1)**n Q_{n,0} P**p = 2 (-1)**n (L_n P)**p / L_n, zero only where the
    bracket L_n P is.  Such a case is report-only: it passes, flagged, with
    the witness, the grevlex-largest monomial of that difference; as
    grevlex is a monomial order and F_p[x] a domain, that is
    p lead(L_n P) - lead(L_n), read off two n!-term brackets.

    If a link or the row fails, the case fails: the x comparison with
    x_route(n, s, i, p) runs for its witness, or, where it finds no
    difference, the witness names the broken link.  So only a row's sign
    is ever flagged, and a broken certificate never passes.
    """
    n, s, p = spec.n, spec.s, spec.p
    gap = _certificate_gap(spec, budget, i)
    if gap is None:
        R, P, sign = row(n, s, i, p)
        want_R, want_P, _ = _quotient_row(n, s, i, p)
        if R != want_R:
            gap = "row R"
        elif P != want_P:
            gap = "row P"
    if gap is None:
        if (sign + 1) % p == 0:
            return True, False, None
        bracket_P = _P_bracket(n, i, s, p)
        if not bracket_P.terms:
            return True, False, None
        top = tuple(p * a - b for a, b in zip(_lead(bracket_P), _lead(L(n, n, p))))
        return True, True, _monomial(n, p, top)
    passed, _, witness = _case_st_delta_Q(spec, budget, i, x_route)
    return False, False, f"certificate link {gap} fails" if passed else witness


def _case_main(spec: CaseSpec, budget: _Budget) -> _Outcome:
    """The main theorem at (p, n, s, i): its own row, with st_delta_via_main
    as the x route."""
    return _case_closed_form(spec, budget, spec.i, _quotient_row,
                             lambda n, s, i, p: st_delta_via_main(n, s, i, p))


def _case_cor(k: int) -> _Check:
    """st_delta(Q_{n,s}, n + k) against the composite tabulated for
    i = n + k: the row read in the Dickson coordinates (steenrod._read_row
    with base(t) = y_t), and corollary_rhs, which reads it in x, as the x
    route."""
    which = f"n+{k}"
    return lambda spec, budget: _case_closed_form(
        spec, budget, spec.n + k,
        lambda n, s, i, p: _read_row(which, n, s, p, lambda t: poly_var(t + 1, n, p)),
        lambda n, s, i, p: corollary_rhs(which, n, s, p))


def _case_recursion(spec: CaseSpec, budget: _Budget) -> _Outcome:
    """Every recursion instance [prefix, e + n] in the box (each prefix
    entry in 0..3, e in 0..2), and at e = 3 each prefix 0..n-1 with one
    entry left out: R_coef and P_coef divide these instances by L_n, up to
    i = n + 4, the default top index.

    A nondecreasing prefix has its instance checked as stated.  Any other
    ordering of it, with sign sgn = (-1)**(its inversions), has each row
    [prefix, k], k = e..e+n, compared with sgn times the sorted prefix's
    row: the recursion sum is linear in these rows, so that and the sorted
    instance, also in the box, prove the ordering's instance exactly.
    """
    n, p = spec.n, spec.p
    box = [(prefix, e) for prefix in product(range(4), repeat=n - 1) for e in range(3)]
    box += [(_prefix(n, left), 3) for left in range(n)]
    for prefix, e in box:
        budget.checkpoint()
        ordered = tuple(sorted(prefix))
        if prefix == ordered:
            pairs = [(bracket(n, prefix + (e + n,), p), recursion_rhs(n, prefix, e, p))]
        else:
            sign = _sign_unit(sum(a > b for a, b in combinations(prefix, 2)), p)
            pairs = ((bracket(n, prefix + (k,), p),
                      poly_scale(bracket(n, ordered + (k,), p), sign))
                     for k in range(e, e + n + 1))
        for lhs, rhs in pairs:
            budget.guard(lhs, rhs)
            if lhs != rhs:
                return _compare(lhs, rhs)
    return True, False, None


def _case_kernel(spec: CaseSpec, budget: _Budget) -> _Outcome:
    n, s, i, p = spec.n, spec.s, spec.i, spec.p
    # Q_{n,0}**(p-1) Q_{n,s} = L_n**(p(p-2)) L(n, s), as Q_{n,0} = L_n**(p-1)
    # and Q_{n,s} L_n = L(n, s).
    base = poly_dot([(1, L(n, s, p), _L_pow(n, p), 1)], n, p)
    budget.guard(base)
    once = st_delta(base, i)
    budget.guard(once)
    rhs = corollary_rhs("kernel", n, s, p, i=i)
    budget.guard(rhs)
    if once != rhs:
        return _compare(once, rhs)
    twice = st_delta(once, i)
    budget.guard(twice)
    return _compare(twice, poly_zero(n, p))


def _case_invariance(spec: CaseSpec, budget: _Budget) -> _Outcome:
    """Q_{n,s}, built by Dickson's recursion, is the quotient that defines
    it, Q_{n,s} L_n = L(n, s), and is fixed by every generator of GL(n, F_p),
    each image read off the terms (invariants.generator_actions).  The
    first generator whose image differs gives the witness."""
    n, s, p = spec.n, spec.s, spec.p
    f = dickson_Q(n, s, p)
    budget.guard(f)
    product = poly_mul(f, L(n, n, p))
    if product != L(n, s, p):
        return _compare(product, L(n, s, p))
    for act in generator_actions(n, p):
        budget.checkpoint()
        image = act(f)
        if image != f:
            return _compare(image, f)
    return True, False, None


def _case_hilbert(spec: CaseSpec, budget: _Budget) -> _Outcome:
    budget.checkpoint()
    dim = invariant_space_dimension(spec.n, spec.p, spec.d)
    expected = dickson_monomial_count(spec.n, spec.p, spec.d)
    if dim == expected:
        return True, False, None
    return False, False, f"degree {spec.d}: dimension {dim} vs series {expected}"


def _case_q0_power(spec: CaseSpec, budget: _Budget) -> _Outcome:
    n, p = spec.n, spec.p
    lhs = dickson_Q(n, 0, p)
    rhs = poly_pow(L(n, n, p), p - 1)
    if spec.perturb:
        rhs = poly_add(rhs, poly_const(1, n, p))
    budget.guard(lhs, rhs)
    return _compare(lhs, rhs)


def _each_s(n: int, s_range: List[int], i_top: int, d_max: int) -> List[_Coord]:
    return [(s, None, None) for s in s_range]


def _each_s_i(n: int, s_range: List[int], i_top: int, d_max: int) -> List[_Coord]:
    return [(s, i, None) for s in s_range for i in range(1, i_top + 1)]


def _once(n: int, s_range: List[int], i_top: int, d_max: int) -> List[_Coord]:
    return [(None, None, None)]


class _Family(NamedTuple):
    check: _Check
    # (n, allowed s values, top i, d_max) -> the (s, i, d) of each case at one (p, n)
    coords: Callable[[int, List[int], int, int], List[_Coord]]


# The identity families, in report order.  The check lambdas look the
# builders up when called, so rebinding a module-level name (to wrap or
# trace it) reaches every check.
_FAMILIES: Dict[str, _Family] = {
    "main": _Family(_case_main, _each_s_i),
    "smith-switzer": _Family(
        lambda spec, budget: _case_st_delta_Q(spec, budget, spec.i, smith_switzer_value),
        lambda n, s_range, i_top, d_max: _each_s_i(n, s_range, n, d_max)),
    "recursion": _Family(_case_recursion, _once),
    "det-formula": _Family(
        lambda spec, budget: _case_st_delta_Q(spec, budget, spec.i, st_delta_via_dl2),
        _each_s_i),
    "routes-agree": _Family(
        lambda spec, budget: _case_st_delta_Q(
            spec, budget, spec.i, st_delta_via_dl2, st_delta_via_main),
        _each_s_i),
    "cor-n1": _Family(_case_cor(1), _each_s),
    "cor-n2": _Family(_case_cor(2), _each_s),
    "cor-n3": _Family(_case_cor(3), _each_s),
    "kernel": _Family(
        _case_kernel,
        lambda n, s_range, i_top, d_max: _each_s_i(n, s_range, min(i_top, n + 3), d_max)),
    "invariance": _Family(_case_invariance, _each_s),
    "hilbert": _Family(
        _case_hilbert,
        lambda n, s_range, i_top, d_max: [(None, None, d) for d in range(d_max + 1)]),
    "q0-power": _Family(_case_q0_power, _once),
}

THEOREMS: Tuple[str, ...] = tuple(_FAMILIES)


@dataclass(frozen=True)
class GridConfig:
    """A verification grid; construction rejects a grid that cannot run."""
    theorems: Tuple[str, ...] = THEOREMS
    pairs: Tuple[Tuple[int, int], ...] = DEFAULT_PAIRS
    s_values: Optional[Tuple[int, ...]] = None
    i_max: Optional[int] = None
    d_max: int = DEFAULT_D_MAX
    seed: int = 0
    term_budget: int = DEFAULT_TERM_BUDGET
    inject_failure: bool = False

    def __post_init__(self) -> None:
        for name in self.theorems:
            if name not in _FAMILIES:
                raise ValueError(f"unknown theorem {name!r}")
        for p, n in self.pairs:
            require_prime(p)
            if n < 1:
                raise ValueError(f"need n >= 1, got {n}")
        if any(s < 0 for s in self.s_values or ()):
            raise ValueError(f"need s >= 0, got {min(self.s_values)}")
        if self.i_max is not None and self.i_max < 1:
            raise ValueError(f"need i_max >= 1, got {self.i_max}")
        if self.d_max < 0:
            raise ValueError(f"need d_max >= 0, got {self.d_max}")
        if not 0 <= self.seed < 2 ** 64:
            raise ValueError(f"seed must fit in 64 bits, got {self.seed}")


def run_case(
    spec: CaseSpec,
    *,
    term_budget: int = DEFAULT_TERM_BUDGET,
    time_budget: float = DEFAULT_TIME_BUDGET,
) -> CaseResult:
    """Evaluate one case.  Resource exhaustion gives skipped with a reason,
    never failed; that includes an exponent past 2**63 (OverflowError) and
    running out of memory (MemoryError).  While the case runs, its budget
    is fp_poly.case_budget, so every product stops before it would break
    the term budget, and at the deadline while it is formed."""
    family = _FAMILIES.get(spec.theorem)
    if family is None:
        raise ValueError(f"unknown theorem {spec.theorem!r}")
    budget = _Budget(term_budget, time_budget)
    token = case_budget.set(budget)
    start = time.perf_counter()
    skip_reason = None
    try:
        passed, flagged, witness = family.check(spec, budget)
    except (BudgetExceeded, BoundExceeded, OverflowError, MemoryError) as exc:
        passed, flagged, witness = False, False, None
        skip_reason = "out of memory" if isinstance(exc, MemoryError) else str(exc)
    finally:
        case_budget.reset(token)
    elapsed_ms = round((time.perf_counter() - start) * 1000.0, 3)
    return CaseResult(
        spec=spec,
        passed=passed,
        skipped=skip_reason is not None,
        flagged=flagged,
        elapsed_ms=elapsed_ms,
        witness=witness,
        skip_reason=skip_reason,
    )


def grid_cases(config: GridConfig) -> List[CaseSpec]:
    """The deterministic, canonically ordered case list for a configuration."""
    cases: List[CaseSpec] = []
    for theorem in config.theorems:
        for p, n in config.pairs:
            s_range = [
                s for s in range(n)
                if config.s_values is None or s in config.s_values
            ]
            i_top = config.i_max if config.i_max is not None else n + 4
            for s, i, d in _FAMILIES[theorem].coords(n, s_range, i_top, config.d_max):
                cases.append(CaseSpec(theorem=theorem, p=p, n=n, s=s, i=i, d=d))
    if config.inject_failure:
        p, n = config.pairs[0]
        cases.append(CaseSpec(theorem="q0-power", p=p, n=n, perturb=True))
    return cases


def run_grid(config: GridConfig) -> Report:
    cases = grid_cases(config)
    results = tuple(run_case(spec, term_budget=config.term_budget) for spec in cases)
    return Report(
        version=__version__,
        sign_flag=sign_convention_flag(),
        seed=config.seed,
        cases=results,
    )


def report_to_dict(report: Report) -> Dict:
    cases = []
    for c in report.cases:
        entry = {
            "theorem": c.spec.theorem,
            "p": c.spec.p,
            "n": c.spec.n,
            "s": c.spec.s,
            "i": c.spec.i,
            "d": c.spec.d,
            "passed": c.passed,
            "skipped": c.skipped,
            "flagged": c.flagged,
            "elapsed_ms": c.elapsed_ms,
        }
        if c.witness is not None:
            entry["witness"] = c.witness
        if c.skip_reason is not None:
            entry["skip_reason"] = c.skip_reason
        cases.append(entry)
    return {
        "version": report.version,
        "sign_flag": report.sign_flag,
        "seed": report.seed,
        "cases": cases,
        "summary": report.summary,
    }


def emit_report(report: Report, fmt: str = "text") -> str:
    """Serialize a report; identical Report values give identical bytes."""
    if fmt == "json":
        return json.dumps(report_to_dict(report), sort_keys=True, indent=2) + "\n"
    if fmt != "text":
        raise ValueError(f"unknown format {fmt!r}")
    lines = [
        f"identity verification, version {report.version}",
        f"sign flag {report.sign_flag:+d}, seed {report.seed}",
        "",
        f"{'theorem':<14} {'p':>3} {'n':>2} {'s':>2} {'i':>2} {'d':>3}  "
        f"{'status':<6} {'ms':>9}  witness",
    ]

    def cell(v) -> str:
        return "-" if v is None else str(v)

    for c in report.cases:
        if c.skipped:
            status = "skip"
        elif not c.passed:
            status = "FAIL"
        elif c.flagged:
            status = "flag"
        else:
            status = "pass"
        lines.append(
            f"{c.spec.theorem:<14} {c.spec.p:>3} {c.spec.n:>2} "
            f"{cell(c.spec.s):>2} {cell(c.spec.i):>2} {cell(c.spec.d):>3}  "
            f"{status:<6} {c.elapsed_ms:>9.3f}  {c.witness or c.skip_reason or ''}".rstrip()
        )
    summary = report.summary
    flagged = sum(1 for c in report.cases if c.flagged)
    lines += [
        "",
        f"PASSED: {summary['passed']}",
        f"FLAGGED: {flagged}",
        f"SKIPPED: {summary['skipped']}",
        f"FAILED: {summary['failed']}",
    ]
    return "\n".join(lines) + "\n"
