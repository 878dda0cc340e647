"""Grid verification of the Dickson / Steenrod identities.

Each identity is checked as an exact polynomial equality at concrete
(p, n, s, i, d) points, never symbolically.  A case either passes, fails
with a witness (the grevlex-largest monomial where the two sides differ),
is skipped because a term-count or time budget was exceeded, or, for the
report-only i = n + 3 corollary, passes with a flag and a witness when the
tabulated composite disagrees with the directly computed action.

Reports serialize deterministically: emitting the same Report twice gives
identical bytes, and two grid runs with the same configuration and seed
agree everywhere except the per-case timings.
"""
from __future__ import annotations

import json
import os
import random
import time
import zlib
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from ._version import __version__
from .fp_poly import (
    Poly,
    format_poly,
    grevlex_key,
    poly_add,
    poly_const,
    poly_mul,
    poly_pow,
    poly_zero,
    require_prime,
    substitute_linear,
)
from .invariants import (
    BoundExceeded,
    L,
    bracket,
    dickson_Q,
    dickson_monomial_count,
    invariant_space_dimension,
    gl_generators,
    recursion_rhs,
)
from .steenrod import (
    corollary_rhs,
    sign_convention_flag,
    smith_switzer_value,
    st_delta,
    st_delta_via_dl2,
    st_delta_via_main,
)

THEOREMS: Tuple[str, ...] = (
    "main",
    "smith-switzer",
    "recursion",
    "det-formula",
    "routes-agree",
    "cor-n1",
    "cor-n2",
    "cor-n3",
    "kernel",
    "invariance",
    "hilbert",
    "q0-power",
)

# (p, n) pairs exercised when no explicit ranges are requested.
DEFAULT_PAIRS: Tuple[Tuple[int, int], ...] = (
    (2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (5, 2),
)

DEFAULT_TERM_BUDGET = 10 ** 7
DEFAULT_TIME_BUDGET = 60.0
DEFAULT_D_MAX = 30
RECURSION_TRIALS = 200
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
    seed: int = 0
    perturb: bool = False  # self-test hook: falsify the identity on purpose


@dataclass(frozen=True)
class CaseResult:
    spec: CaseSpec
    passed: bool
    skipped: bool
    flagged: bool
    elapsed_ms: float
    witness: Optional[str] = None


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


@dataclass(frozen=True)
class GridConfig:
    theorems: Tuple[str, ...] = THEOREMS
    pairs: Tuple[Tuple[int, int], ...] = DEFAULT_PAIRS
    s_values: Optional[Tuple[int, ...]] = None
    i_max: Optional[int] = None
    d_max: int = DEFAULT_D_MAX
    seed: int = 0
    term_budget: int = DEFAULT_TERM_BUDGET
    time_budget: float = DEFAULT_TIME_BUDGET
    inject_failure: bool = False


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
        for f in polys:
            if len(f.terms) > self.term_limit:
                raise BudgetExceeded(
                    f"{len(f.terms)} terms exceed the budget {self.term_limit}"
                )
        self.checkpoint()

    def checkpoint(self) -> None:
        if time.monotonic() > self.deadline:
            raise BudgetExceeded("time budget exceeded")


def _witness(lhs: Poly, rhs: Poly) -> str:
    """The grevlex-largest monomial where the two sides differ."""
    diff = [
        m for m in set(lhs.terms) | set(rhs.terms)
        if lhs.terms.get(m, 0) != rhs.terms.get(m, 0)
    ]
    top = max(diff, key=grevlex_key)
    return format_poly(Poly._make(lhs.n, lhs.p, {top: 1}))


_Outcome = Tuple[bool, bool, Optional[str]]  # (passed, flagged, witness)


def _compare(lhs: Poly, rhs: Poly) -> _Outcome:
    if lhs == rhs:
        return True, False, None
    return False, False, _witness(lhs, rhs)


def _case_closed_form(rhs_of, spec: CaseSpec, budget: _Budget) -> _Outcome:
    """st_delta(Q_{n,s}, i) against the closed form rhs_of(n, s, i, p)."""
    lhs = st_delta(dickson_Q(spec.n, spec.s, spec.p), spec.i)
    budget.guard(lhs)
    rhs = rhs_of(spec.n, spec.s, spec.i, spec.p)
    budget.guard(rhs)
    return _compare(lhs, rhs)


def _case_routes_agree(spec: CaseSpec, budget: _Budget) -> _Outcome:
    direct = st_delta(dickson_Q(spec.n, spec.s, spec.p), spec.i)
    budget.guard(direct)
    dl2 = st_delta_via_dl2(spec.n, spec.s, spec.i, spec.p)
    budget.guard(dl2)
    main = st_delta_via_main(spec.n, spec.s, spec.i, spec.p)
    budget.guard(main)
    for other in (dl2, main):
        ok, _, wit = _compare(direct, other)
        if not ok:
            return False, False, wit
    return True, False, None


def _case_recursion(spec: CaseSpec, budget: _Budget) -> _Outcome:
    rng = random.Random(spec.seed)
    n, p = spec.n, spec.p
    for _ in range(RECURSION_TRIALS):
        budget.checkpoint()
        prefix = tuple(rng.randint(0, 3) for _ in range(n - 1))
        e = rng.randint(0, 2)
        lhs = bracket(n, prefix + (e + n,), p)
        rhs = recursion_rhs(n, prefix, e, p)
        budget.guard(lhs, rhs)
        ok, _, wit = _compare(lhs, rhs)
        if not ok:
            return False, False, wit
    return True, False, None


def _case_cor(which: str, spec: CaseSpec, budget: _Budget, flag_only: bool) -> _Outcome:
    i = spec.n + {"n+1": 1, "n+2": 2, "n+3": 3}[which]
    lhs = st_delta(dickson_Q(spec.n, spec.s, spec.p), i)
    budget.guard(lhs)
    rhs = corollary_rhs(which, spec.n, spec.s, spec.p)
    budget.guard(rhs)
    ok, _, wit = _compare(lhs, rhs)
    if ok:
        return True, False, None
    if flag_only:
        return True, True, wit
    return False, False, wit


def _case_kernel(spec: CaseSpec, budget: _Budget) -> _Outcome:
    n, s, i, p = spec.n, spec.s, spec.i, spec.p
    base = poly_mul(poly_pow(dickson_Q(n, 0, p), p - 1), dickson_Q(n, s, p))
    budget.guard(base)
    once = st_delta(base, i)
    budget.guard(once)
    rhs = corollary_rhs("kernel", n, s, p, i=i)
    budget.guard(rhs)
    ok, _, wit = _compare(once, rhs)
    if not ok:
        return False, False, wit
    twice = st_delta(once, i)
    budget.guard(twice)
    return _compare(twice, poly_zero(n, p))


def _case_invariance(spec: CaseSpec, budget: _Budget) -> _Outcome:
    f = dickson_Q(spec.n, spec.s, spec.p)
    budget.guard(f)
    for mat in gl_generators(spec.n, spec.p):
        budget.checkpoint()
        image = substitute_linear(f, mat)
        ok, _, wit = _compare(image, f)
        if not ok:
            return False, False, wit
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


# One check per theorem, in THEOREMS order.  The lambdas look the builders
# up when called, so rebinding a module-level name (to wrap or trace it)
# reaches every check.
_CHECKS: Dict[str, Callable[[CaseSpec, _Budget], _Outcome]] = {
    "main": lambda spec, budget: _case_closed_form(st_delta_via_main, spec, budget),
    "smith-switzer": lambda spec, budget: _case_closed_form(smith_switzer_value, spec, budget),
    "recursion": _case_recursion,
    "det-formula": lambda spec, budget: _case_closed_form(st_delta_via_dl2, spec, budget),
    "routes-agree": _case_routes_agree,
    "cor-n1": lambda spec, budget: _case_cor("n+1", spec, budget, flag_only=False),
    "cor-n2": lambda spec, budget: _case_cor("n+2", spec, budget, flag_only=False),
    "cor-n3": lambda spec, budget: _case_cor("n+3", spec, budget, flag_only=True),
    "kernel": _case_kernel,
    "invariance": _case_invariance,
    "hilbert": _case_hilbert,
    "q0-power": _case_q0_power,
}


def run_case(
    spec: CaseSpec,
    *,
    term_budget: Optional[int] = None,
    time_budget: float = DEFAULT_TIME_BUDGET,
) -> CaseResult:
    """Evaluate one case.  Resource exhaustion gives skipped, never failed;
    that includes an exponent past 2**63 (OverflowError)."""
    if term_budget is None:
        term_budget = term_budget_from_env()
    budget = _Budget(term_budget, time_budget)
    start = time.perf_counter()
    try:
        check = _CHECKS.get(spec.theorem)
        if check is None:
            raise ValueError(f"unknown theorem {spec.theorem!r}")
        passed, flagged, witness = check(spec, budget)
        skipped = False
    except (BudgetExceeded, BoundExceeded, OverflowError):
        passed, flagged, witness, skipped = True, False, None, True
    elapsed_ms = round((time.perf_counter() - start) * 1000.0, 3)
    return CaseResult(
        spec=spec,
        passed=passed and not skipped,
        skipped=skipped,
        flagged=flagged,
        elapsed_ms=elapsed_ms,
        witness=witness,
    )


def _case_seed(config_seed: int, theorem: str, p: int, n: int,
               s: Optional[int], i: Optional[int], d: Optional[int]) -> int:
    tag = f"{theorem}:{p}:{n}:{s}:{i}:{d}".encode()
    return (zlib.crc32(tag) ^ (config_seed & 0xFFFFFFFF)) & 0xFFFFFFFF


def grid_cases(config: GridConfig) -> List[CaseSpec]:
    """The deterministic, canonically ordered case list for a configuration."""
    for name in config.theorems:
        if name not in THEOREMS:
            raise ValueError(f"unknown theorem {name!r}")
    for p, _ in config.pairs:
        require_prime(p)
    cases: List[CaseSpec] = []

    def spawn(theorem: str, p: int, n: int, s=None, i=None, d=None) -> None:
        cases.append(CaseSpec(
            theorem=theorem, p=p, n=n, s=s, i=i, d=d,
            seed=_case_seed(config.seed, theorem, p, n, s, i, d),
        ))

    for theorem in config.theorems:
        for p, n in config.pairs:
            if n < 1:
                raise ValueError(f"need n >= 1, got {n}")
            i_top = config.i_max if config.i_max is not None else n + 4
            s_range = [
                s for s in range(n)
                if config.s_values is None or s in config.s_values
            ]
            if theorem in ("main", "det-formula", "routes-agree"):
                for s in s_range:
                    for i in range(1, i_top + 1):
                        spawn(theorem, p, n, s=s, i=i)
            elif theorem == "smith-switzer":
                for s in s_range:
                    for i in range(1, n + 1):
                        spawn(theorem, p, n, s=s, i=i)
            elif theorem == "recursion":
                spawn(theorem, p, n)
            elif theorem in ("cor-n1", "cor-n2", "cor-n3"):
                for s in s_range:
                    spawn(theorem, p, n, s=s)
            elif theorem == "kernel":
                for s in s_range:
                    for i in range(1, min(i_top, n + 3) + 1):
                        spawn(theorem, p, n, s=s, i=i)
            elif theorem == "invariance":
                for s in s_range:
                    spawn(theorem, p, n, s=s)
            elif theorem == "hilbert":
                for d in range(config.d_max + 1):
                    spawn(theorem, p, n, d=d)
            elif theorem == "q0-power":
                spawn(theorem, p, n)
    if config.inject_failure:
        p, n = config.pairs[0]
        cases.append(CaseSpec(
            theorem="q0-power", p=p, n=n,
            seed=_case_seed(config.seed, "q0-power", p, n, None, None, None),
            perturb=True,
        ))
    return cases


def run_grid(config: GridConfig) -> Report:
    cases = grid_cases(config)
    results = tuple(
        run_case(spec, term_budget=config.term_budget, time_budget=config.time_budget)
        for spec in cases
    )
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
            f"{status:<6} {c.elapsed_ms:>9.3f}  {c.witness or ''}".rstrip()
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
