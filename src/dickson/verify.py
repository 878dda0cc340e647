"""Grid verification of the Dickson / Steenrod identities.

Each identity is checked as an exact polynomial equality at concrete
(p, n, s, i, d) points, never symbolically.  A case either passes, fails
with a witness (the grevlex-largest monomial where the two sides differ),
is skipped, with the reason, when a term-count or time limit is hit, or
passes with a flag and a witness when a tabulated corollary row differs
from the theorem in its sign alone (the i = n + 3 row, at odd p).  Every
case has the same budget, TERM_BUDGET terms and TIME_BUDGET seconds,
which no setting changes; a case whose one monomial of n exponents is more
words than that many terms hold skips before its check runs.  A check
takes only its CaseSpec; its budget is fp_poly.case_budget, set by
run_case.  Every two polynomials a check compares go through _compare,
which asks that budget about each pair of sides before comparing it.

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

The links that several families share are decided at most once per
process and read by each family that needs them: det-formula per
(p, n, s, i) (_det_formula: the det-formula family, link 1 and the first
route of routes-agree), q0-power per (p, n) (_q0_power: the q0-power
family and link 3), besides the roots and each step of link 2.  The
memos keep outcomes and booleans only, no image or route; a skip raises
through them and is not kept, so the next case that needs the link tries
it again.  L_n**(p-2) per (p, n) (steenrod._L_pow) and the kernel input
per (p, n, s) (_kernel_base) are kept as polynomials.

The corollaries cor-n1..3 are the same check at i = n + k
(_case_closed_form, which main calls with no row): the certificate at
i = n + k, and the row tabulated for i = n + k, read in the y's by the
reader the x side uses (steenrod._read_row), equal to the y_quotients R
and P.  With the theorem's sign the case passes; with the plus sign of
the cor-n3 row, at odd p, the composite misses the action by
2 (-1)**n Q_{n,0} P**p, whose leading monomial, the witness, comes from
two brackets, so no composite is built in x.  A broken link or row fails
the case at once, its witness naming the link.

Each family is one row of _FAMILIES: its check (a cor-n* check names the
row it reads), the axes s, i and d its cases run over, and the cap on i,
if any.  _grid expands the axes one case at a time.

Reports serialize deterministically: emitting the same Report twice gives
identical bytes, and two grid runs with the same configuration agree
everywhere except the per-case timings.  No case is randomized: the seed
is only recorded in the report.
"""
from __future__ import annotations

import json
import time
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain, combinations, islice, product
from typing import Callable, Dict, Iterable, Iterator, List, NamedTuple, Optional, Tuple

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

# Every case runs under these two limits (run_case reads them per call).
TERM_BUDGET = 10 ** 7
TIME_BUDGET = 60.0
DEFAULT_D_MAX = 30
# The most cases a grid may have: about 2,000 default grids, a report of
# roughly 250 MB.
MAX_CASES = 10 ** 6


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


class _Budget:
    def __init__(self, term_limit: int, time_limit: float):
        self.term_limit = term_limit
        self.deadline = time.monotonic() + time_limit

    def before_terms(self, *counts: int) -> None:
        """Stop before polynomials of these term counts past the term or time budget."""
        for count in counts:
            if count > self.term_limit:
                raise BudgetExceeded(f"{count} terms exceed the budget {self.term_limit}")
        self.checkpoint()

    def before_width(self, n: int) -> None:
        """Stop before monomials of n exponents, n words, where the term
        budget holds fewer: term_limit terms of one variable, at two words a
        term, an exponent and a coefficient."""
        if n > 2 * self.term_limit:
            raise BudgetExceeded(f"a monomial of {n} exponents exceeds the budget "
                                 f"{self.term_limit}, at two words a term")

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
_Check = Callable[[CaseSpec], _Outcome]


def _guard(*polys: Poly) -> None:
    """Ask the case budget, if set, about polynomials already built."""
    if (budget := case_budget.get()) is not None:
        budget.before_terms(*(len(f.terms) for f in polys))


def _compare(pairs: Iterable[Tuple[Poly, Poly]]) -> _Outcome:
    """Guard and compare each (lhs, rhs) pair in order: pass, or fail with
    the witness of the first pair that differs, the grevlex-largest
    monomial where its two sides differ.  pairs may be a generator, so a
    pair is built only once the pairs before it agree."""
    for lhs, rhs in pairs:
        _guard(lhs, rhs)
        if lhs != rhs:
            diff = [m for m in set(lhs.terms) | set(rhs.terms)
                    if lhs.terms.get(m, 0) != rhs.terms.get(m, 0)]
            return False, False, _monomial(lhs.n, lhs.p, max(diff, key=grevlex_key))
    return True, False, None


def _monomial(n: int, p: int, m: Monomial) -> str:
    """A witness: the monomial m in the text grammar."""
    return format_poly(Poly._make(n, p, {m: 1}))


def _case_st_delta_Q(spec: CaseSpec, i: int, route) -> _Outcome:
    """st_delta(Q_{n,s}, i) against route(n, s, i, p), guarded before the
    route is built."""
    lhs = st_delta(dickson_Q(spec.n, spec.s, spec.p), i)
    _guard(lhs)
    return _compare([(lhs, route(spec.n, spec.s, i, spec.p))])


@lru_cache(maxsize=None)
def _det_formula(n: int, s: int, i: int, p: int) -> _Outcome:
    """st_delta(Q_{n,s}, i) against the determinant route st_delta_via_dl2,
    decided at most once per process: the det-formula family, link 1 of
    the certificate and the first route of routes-agree all read it.  A
    skip raises, and lru_cache keeps no exception, so the next case tries
    again."""
    return _case_st_delta_Q(CaseSpec("det-formula", p, n, s, i), i, st_delta_via_dl2)


def _case_routes_agree(spec: CaseSpec) -> _Outcome:
    """The determinant route, then st_delta_via_main once it agrees, so a
    wrong determinant route gives the witness, whatever the second route
    would cost."""
    n, s, i, p = spec.n, spec.s, spec.i, spec.p
    outcome = _det_formula(n, s, i, p)
    return _case_st_delta_Q(spec, i, st_delta_via_main) if outcome[0] else outcome


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


def _certificate_gap(spec: CaseSpec, i: int) -> Optional[str]:
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
    if not _det_formula(n, s, i, p)[0]:
        return "det-formula"
    for left, top in ((s, i), (n - 1, i - 1), (s - 1, i - 1)):
        if left >= 0 and not _quotients_proven(n, left, top, p):
            return f"recursion up to [0..{n - 1} without {left}, {top}]"
    if not _q0_power(n, p, False)[0]:
        return "q0-power"
    X = y_quotient(n, s, i, p)
    R, P = _quotient_row(n, s, i, p)
    rhs = poly_dot([(1, poly_var(s + 1, n, p), R, 1), (-1, poly_one(n, p), P, 1)], n, p)
    return None if _compare([(X, rhs)])[0] else "free ring"


def _quotient_row(n: int, s: int, i: int, p: int) -> Tuple[Poly, Poly]:
    """The main theorem's own row (R, P), its sign -1, read like the
    corollary rows: R = F(n) and P = F(s), F(a) = [0..n-1 without a-1, i-1]
    / L_n as a y_quotient (F(0) = 0)."""
    R, P = (y_quotient(n, a - 1, i - 1, p) if a > 0 else poly_zero(n, p) for a in (n, s))
    return R, P


def _lead(f: Poly) -> Monomial:
    return max(f.terms, key=grevlex_key)


def _case_closed_form(spec: CaseSpec, i: int, which: Optional[str] = None) -> _Outcome:
    """st_delta(Q_{n,s}, i) against the main form
    (-1)**n Q_{n,0} (R**p Q_{n,s} + sign P**p), decided without building
    the form in x.  The row (R, P, sign) is the main theorem's own
    (_quotient_row, sign -1) when which is None, else the corollary row
    steenrod._COROLLARY_ROWS[which], read in the Dickson coordinates
    (steenrod._read_row with base(t) = y_t).

    The certificate (_certificate_gap) proves the form with the
    y_quotients R and P and the sign -1, the main theorem's row.  So if a
    corollary row's R and P are those y_quotients in F_p[y], the case
    passes when sign = -1 mod p.  Otherwise (sign +1 at odd p) the form
    exceeds the action by exactly
    2 (-1)**n Q_{n,0} P**p = 2 (-1)**n (L_n P)**p / L_n, zero only where the
    bracket L_n P is.  Such a case is report-only: it passes, flagged, with
    the witness, the grevlex-largest monomial of that difference; as
    grevlex is a monomial order and F_p[x] a domain, that is
    p lead(L_n P) - lead(L_n), read off two n!-term brackets.

    If a link or the row fails, the case fails with the witness
    "certificate link <link> fails", and nothing is built in x.  So only a
    row's sign is ever flagged, and a broken certificate never passes.
    """
    n, s, p = spec.n, spec.s, spec.p
    gap = _certificate_gap(spec, i)
    sign = -1
    if gap is None and which is not None:
        R, P, sign = _read_row(which, n, s, p, lambda t: poly_var(t + 1, n, p))
        want_R, want_P = _quotient_row(n, s, i, p)
        if not _compare([(R, want_R)])[0]:
            gap = "row R"
        elif not _compare([(P, want_P)])[0]:
            gap = "row P"
    if gap is None:
        if (sign + 1) % p == 0:
            return True, False, None
        bracket_P = _P_bracket(n, i, s, p)
        if not bracket_P.terms:
            return True, False, None
        top = tuple(p * a - b for a, b in zip(_lead(bracket_P), _lead(L(n, n, p))))
        return True, True, _monomial(n, p, top)
    return False, False, f"certificate link {gap} fails"


def _case_recursion(spec: CaseSpec) -> Iterator[Tuple[Poly, Poly]]:
    """The sides of every recursion instance [prefix, e + n] in the box
    (each prefix entry in 0..3, e in 0..2), and at e = 3 of each prefix
    0..n-1 with one entry left out.  From n = 6 on, those e = 3 instances
    are the family's only nonzero ones: no n - 1 entries from 0..3 are
    distinct, so every bracket of the box has two equal rows.

    A nondecreasing prefix has its instance checked as stated.  Any other
    ordering of it, with sign sgn = (-1)**(its inversions), has each row
    [prefix, k], k = e..e+n, compared with sgn times the sorted prefix's
    row: the recursion sum is linear in these rows, so that and the sorted
    instance, also in the box, prove the ordering's instance exactly.
    """
    n, p = spec.n, spec.p
    box = chain(((prefix, e) for prefix in product(range(4), repeat=n - 1) for e in range(3)),
                ((_prefix(n, left), 3) for left in range(n)))
    for prefix, e in box:
        ordered = tuple(sorted(prefix))
        if prefix == ordered:
            yield bracket(n, prefix + (e + n,), p), recursion_rhs(n, prefix, e, p)
            continue
        sign = _sign_unit(sum(a > b for a, b in combinations(prefix, 2)), p)
        for k in range(e, e + n + 1):
            yield bracket(n, prefix + (k,), p), poly_scale(bracket(n, ordered + (k,), p), sign)


@lru_cache(maxsize=None)
def _kernel_base(n: int, s: int, p: int) -> Poly:
    """Q_{n,0}**(p-1) Q_{n,s} = L_n**(p(p-2)) L(n, s), as Q_{n,0} = L_n**(p-1)
    and Q_{n,s} L_n = L(n, s): the input of every kernel case at (p, n, s),
    built at most once per process."""
    return poly_dot([(1, L(n, s, p), _L_pow(n, p), 1)], n, p)


def _case_kernel(spec: CaseSpec) -> _Outcome:
    n, s, i, p = spec.n, spec.s, spec.i, spec.p
    base = _kernel_base(n, s, p)
    _guard(base)
    once = st_delta(base, i)
    _guard(once)

    def pairs():
        yield once, corollary_rhs("kernel", n, s, p, i=i)
        yield st_delta(once, i), poly_zero(n, p)
    return _compare(pairs())


def _case_invariance(spec: CaseSpec) -> Iterator[Tuple[Poly, Poly]]:
    """Q_{n,s}, built by Dickson's recursion, is the quotient that defines
    it, Q_{n,s} L_n = L(n, s), and is fixed by every generator of GL(n, F_p),
    each image read off the terms (invariants.generator_actions).  The
    first generator whose image differs gives the witness."""
    n, s, p = spec.n, spec.s, spec.p
    f = dickson_Q(n, s, p)
    yield poly_mul(f, L(n, n, p)), L(n, s, p)
    for act in generator_actions(n, p):
        yield act(f), f


def _case_hilbert(spec: CaseSpec) -> _Outcome:
    dim = invariant_space_dimension(spec.n, spec.p, spec.d)
    expected = dickson_monomial_count(spec.n, spec.p, spec.d)
    if dim == expected:
        return True, False, None
    return False, False, f"degree {spec.d}: dimension {dim} vs series {expected}"


@lru_cache(maxsize=None)
def _q0_power(n: int, p: int, perturb: bool) -> _Outcome:
    """Q_{n,0} = L_n**(p-1), decided at most once per process: the q0-power
    family and link 3 (perturb False) read it.  Q_{n,0} is built first.
    With perturb, the injected case, the right side is off by 1."""
    lhs, rhs = dickson_Q(n, 0, p), poly_pow(L(n, n, p), p - 1)
    return _compare([(lhs, poly_add(rhs, poly_const(1, n, p)) if perturb else rhs)])


class _Family(NamedTuple):
    check: _Check
    # The axes its cases run over at one (p, n), outermost first: "s" the
    # allowed s in 0..n-1, "i" 1 up to the top i (i_max, else n + 4), "d"
    # 0..d_max; a family with no axis has one case per (p, n).  _grid
    # expands them lazily, so a grid is counted without being listed.
    axes: str = ""
    i_cap: Optional[int] = None  # the largest i is at most n + i_cap


# The identity families, in report order.  The check lambdas look the
# builders up when called, so rebinding a module-level name (to wrap or
# trace it) reaches every check.  A cor-n* check names the corollary row
# it reads (steenrod._COROLLARY_ROWS) next to the i it reads it at.
_FAMILIES: Dict[str, _Family] = {
    "main": _Family(lambda spec: _case_closed_form(spec, spec.i), "si"),
    "smith-switzer": _Family(
        lambda spec: _case_st_delta_Q(spec, spec.i, smith_switzer_value), "si", i_cap=0),
    "recursion": _Family(lambda spec: _compare(_case_recursion(spec))),
    "det-formula": _Family(lambda spec: _det_formula(spec.n, spec.s, spec.i, spec.p), "si"),
    "routes-agree": _Family(_case_routes_agree, "si"),
    "cor-n1": _Family(lambda spec: _case_closed_form(spec, spec.n + 1, "n+1"), "s"),
    "cor-n2": _Family(lambda spec: _case_closed_form(spec, spec.n + 2, "n+2"), "s"),
    "cor-n3": _Family(lambda spec: _case_closed_form(spec, spec.n + 3, "n+3"), "s"),
    "kernel": _Family(_case_kernel, "si", i_cap=3),
    "invariance": _Family(lambda spec: _compare(_case_invariance(spec)), "s"),
    "hilbert": _Family(_case_hilbert, "d"),
    "q0-power": _Family(lambda spec: _q0_power(spec.n, spec.p, spec.perturb)),
}

THEOREMS: Tuple[str, ...] = tuple(_FAMILIES)


@dataclass(frozen=True)
class GridConfig:
    """A verification grid; construction rejects a grid that cannot run,
    or that has more than MAX_CASES cases."""
    theorems: Tuple[str, ...] = THEOREMS
    pairs: Tuple[Tuple[int, int], ...] = DEFAULT_PAIRS
    s_values: Optional[Tuple[int, ...]] = None
    i_max: Optional[int] = None
    d_max: int = DEFAULT_D_MAX
    seed: int = 0
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
        # p**i passes 2**63 from i = 63 on for every prime: such a case can only skip
        if self.i_max is not None and not 1 <= self.i_max <= 62:
            raise ValueError(f"need 1 <= i_max <= 62, got {self.i_max}")
        if self.d_max < 0:
            raise ValueError(f"need d_max >= 0, got {self.d_max}")
        if not 0 <= self.seed < 2 ** 64:
            raise ValueError(f"seed must fit in 64 bits, got {self.seed}")
        if next(islice(_grid(self), MAX_CASES, None), None) is not None:
            raise ValueError(f"the grid has more than {MAX_CASES} cases")


# The skip reasons of the exhaustions whose own text is no reason (that of
# a RecursionError differs between Python versions).
_EXHAUSTED = {MemoryError: "out of memory", RecursionError: "recursion too deep"}


def run_case(spec: CaseSpec) -> CaseResult:
    """Evaluate one case under TERM_BUDGET terms and TIME_BUDGET seconds.
    Resource exhaustion gives skipped with a reason, never failed: the term
    or time budget (BudgetExceeded), an exponent past 2**63
    (OverflowError), running out of memory (MemoryError) or of stack
    (RecursionError, as a count of invariants at large n).  While the case
    runs, its budget is fp_poly.case_budget, so every product stops before
    it would break the term budget, and every product and dimension count
    at the deadline while it runs.  Before the check, the budget is asked
    about the width of one monomial, n exponents."""
    family = _FAMILIES.get(spec.theorem)
    if family is None:
        raise ValueError(f"unknown theorem {spec.theorem!r}")
    budget = _Budget(TERM_BUDGET, TIME_BUDGET)
    token = case_budget.set(budget)
    start = time.perf_counter()
    skip_reason = None
    try:
        budget.before_width(spec.n)
        passed, flagged, witness = family.check(spec)
    except (BudgetExceeded, OverflowError, MemoryError, RecursionError) as exc:
        passed, flagged, witness = False, False, None
        skip_reason = _EXHAUSTED.get(type(exc)) or str(exc)
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


def _grid(config: GridConfig) -> Iterator[tuple]:
    """The CaseSpec fields of each case of a configuration, in canonical
    order, made one by one: a tuple costs a fraction of a CaseSpec, so a
    grid is counted quickly without being listed."""
    for theorem in config.theorems:
        family = _FAMILIES[theorem]
        for p, n in config.pairs:
            s_range: Iterable = (None,)
            if "s" in family.axes:
                s_range = range(n) if config.s_values is None else \
                    sorted({s for s in config.s_values if s < n})
            i_range: Iterable = (None,)
            if "i" in family.axes:
                i_top = config.i_max if config.i_max is not None else n + 4
                if family.i_cap is not None:
                    i_top = min(i_top, n + family.i_cap)
                i_range = range(1, i_top + 1)
            d_range = range(config.d_max + 1) if "d" in family.axes else (None,)
            for s in s_range:
                for i in i_range:
                    for d in d_range:
                        yield theorem, p, n, s, i, d, False
    if config.inject_failure:
        p, n = config.pairs[0]
        yield "q0-power", p, n, None, None, None, True


def grid_cases(config: GridConfig) -> List[CaseSpec]:
    """The deterministic, canonically ordered case list for a configuration."""
    return [CaseSpec(*fields) for fields in _grid(config)]


def run_grid(config: GridConfig) -> Report:
    cases = grid_cases(config)
    results = tuple(run_case(spec) for spec in cases)
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


# One report case as indent=2 prints it at depth 2, less its braces' lines.
_CASE_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",\n      ", ": "))


def emit_report(report: Report, fmt: str = "text") -> str:
    """Serialize a report; identical Report values give identical bytes.

    The JSON is json.dumps(report_to_dict(report), sort_keys=True,
    indent=2) + "\\n", byte for byte.  An indent always runs json's pure
    Python encoder, so each case, a flat dict of scalars, is encoded by
    the C encoder with the indented separators, and its braces and the
    list around it are framed by hand; "cases" sorts first of the keys.
    """
    if fmt == "json":
        data = report_to_dict(report)
        cases, data["cases"] = data["cases"], []
        text = json.dumps(data, sort_keys=True, indent=2) + "\n"
        if not cases:
            return text
        encode = _CASE_ENCODER.encode
        framed = ",\n    ".join("{\n      " + encode(c)[1:-1] + "\n    }" for c in cases)
        return text.replace('"cases": []', f'"cases": [\n    {framed}\n  ]', 1)
    if fmt != "text":
        raise ValueError(f"unknown format {fmt!r}")

    def cell(v) -> str:
        return "-" if v is None else str(v)

    rows = [("theorem", "p", "n", "s", "i", "d", "status", "ms", "witness")]
    rows += [(c.spec.theorem, *map(cell, (c.spec.p, c.spec.n, c.spec.s, c.spec.i, c.spec.d)),
              "skip" if c.skipped else "FAIL" if not c.passed else "flag" if c.flagged
              else "pass", f"{c.elapsed_ms:.3f}", c.witness or c.skip_reason or "")
             for c in report.cases]
    # each column as wide as its longest cell, and at least as wide as these
    widths = [max(w, *(len(row[k]) for row in rows))
              for k, w in enumerate((14, 3, 2, 2, 2, 3, 6, 9))]
    lines = [
        f"identity verification, version {report.version}",
        f"sign flag {report.sign_flag:+d}, seed {report.seed}",
        "",
    ]
    for row in rows:
        theorem, p, n, s, i, d, status, ms = (
            f"{v:{align}{w}}" for v, align, w in zip(row, "<>>>>><>", widths))
        lines.append(f"{theorem} {p} {n} {s} {i} {d}  {status} {ms}  {row[-1]}".rstrip())
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
