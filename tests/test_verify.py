"""Verification grid plumbing: case dispatch, reports, determinism, CLI."""
import functools
import json
from collections import Counter

import pytest

from dickson import cli, fp_poly, invariants, steenrod, verify
from dickson.cli import main
from dickson.fp_poly import Poly, case_budget, grevlex_key, parse_poly, poly_mul, poly_scale
from dickson.invariants import P_coef, R_coef, recursion_rhs
from dickson.verify import (
    CaseSpec,
    GridConfig,
    THEOREMS,
    emit_report,
    grid_cases,
    report_to_dict,
    run_case,
    run_grid,
)

from substitution import generator_matrices, substitute_linear


def small_config(**kw):
    base = dict(theorems=("q0-power",), pairs=((2, 2),), d_max=4)
    base.update(kw)
    return GridConfig(**base)


def strip_timing(d):
    return {
        **d,
        "cases": [{k: v for k, v in c.items() if k != "elapsed_ms"} for c in d["cases"]],
    }


class TestGridCases:
    def test_every_theorem_covered_by_default(self):
        names = {c.theorem for c in grid_cases(GridConfig())}
        assert names == set(THEOREMS)

    def test_default_grid_size(self):
        assert len(grid_cases(GridConfig())) == 522

    def test_default_grid_family_counts(self):
        counts = Counter(c.theorem for c in grid_cases(GridConfig()))
        assert counts == {
            "main": 67, "smith-switzer": 23, "recursion": 6, "det-formula": 67,
            "routes-agree": 67, "cor-n1": 11, "cor-n2": 11, "cor-n3": 11,
            "kernel": 56, "invariance": 11, "hilbert": 186, "q0-power": 6,
        }

    def test_theorems_in_grid_order(self):
        first_seen = list(dict.fromkeys(c.theorem for c in grid_cases(GridConfig())))
        assert tuple(first_seen) == THEOREMS

    def test_deterministic(self):
        a = grid_cases(GridConfig(seed=3))
        b = grid_cases(GridConfig(seed=3))
        assert a == b

    def test_recursion_is_exhaustive_and_seed_free(self, monkeypatch):
        # the (2,3) box: prefix entries 0..3 and e <= 2, 48 instances, and
        # the e = 3 instances of the prefixes 0..2 with one entry left out,
        # which R_coef and P_coef use at i = n + 4.  Each nondecreasing
        # prefix has its own recursion sum, 10 * 3 + 3 = 33; every other
        # ordering has its n + 1 rows [prefix, k], k = e..e+3, compared with
        # its sorted prefix's rows
        sums, rows = [], []

        def spy_sum(n, prefix, e, p):
            sums.append((prefix, e))
            return recursion_rhs(n, prefix, e, p)

        def spy_row(n, es, p):
            rows.append(es)
            return invariants.bracket(n, es, p)

        monkeypatch.setattr(verify, "recursion_rhs", spy_sum)
        monkeypatch.setattr(verify, "bracket", spy_row)
        assert run_case(CaseSpec(theorem="recursion", p=2, n=3)).passed
        box = [((a, b), e) for a in range(4) for b in range(4) for e in range(3)]
        box += [(prefix, 3) for prefix in ((1, 2), (0, 2), (0, 1))]
        assert sums == [(prefix, e) for prefix, e in box if prefix[0] <= prefix[1]]
        assert len(sums) == 33
        want = []
        for prefix, e in box:
            if prefix[0] <= prefix[1]:
                want.append(prefix + (e + 3,))
            else:
                for k in range(e, e + 4):
                    want += [prefix + (k,), prefix[::-1] + (k,)]
        assert rows == want
        # no case depends on the seed
        a, b = (strip_timing(report_to_dict(run_grid(GridConfig(
            theorems=("recursion", "hilbert"), pairs=((2, 3), (3, 2)), d_max=8,
            seed=seed)))) for seed in (1, 2))
        assert (a.pop("seed"), b.pop("seed")) == (1, 2)
        assert a == b

    # p = 3 on purpose: at p = 2 the sign of an ordering is 1 mod 2, so a
    # negated row there still equals its sorted row and the (2,3) case, the
    # default grid's only one with n >= 3, would pass.
    def test_recursion_fails_on_one_negated_ordering_row(self, monkeypatch):
        def negated(n, es, p):
            row = invariants.bracket(n, es, p)
            return -row if es == (1, 0, 2) else row

        monkeypatch.setattr(verify, "bracket", negated)
        result = run_case(CaseSpec(theorem="recursion", p=3, n=3))
        assert not result.passed and not result.skipped
        assert result.witness == "x1^9*x2^3*x3"

    def test_recursion_fails_on_one_wrong_sorted_sum(self, monkeypatch):
        def scaled(n, prefix, e, p):
            rhs = recursion_rhs(n, prefix, e, p)
            return poly_scale(rhs, 2) if (prefix, e) == ((0, 2), 1) else rhs

        monkeypatch.setattr(verify, "recursion_rhs", scaled)
        result = run_case(CaseSpec(theorem="recursion", p=3, n=3))
        assert not result.passed and not result.skipped

    def test_scope_filters(self):
        cases = grid_cases(GridConfig(
            theorems=("main",), pairs=((3, 2),), s_values=(1,), i_max=2))
        assert [(c.s, c.i) for c in cases] == [(1, 1), (1, 2)]

    def test_kernel_index_cap(self):
        cases = grid_cases(GridConfig(theorems=("kernel",), pairs=((2, 2),)))
        assert max(c.i for c in cases) == 5  # n + 3, one below the default top

    def test_empty_grid(self):
        config = GridConfig(theorems=("main",), pairs=((2, 2),), s_values=(9,))
        assert grid_cases(config) == []
        report = run_grid(config)
        assert report.summary == {"passed": 0, "failed": 0, "skipped": 0}
        assert emit_report(report, "text").rstrip().endswith("FAILED: 0")

    def test_injected_failure_is_last(self):
        cases = grid_cases(small_config(inject_failure=True))
        assert cases[-1].perturb
        assert sum(1 for c in cases if c.perturb) == 1

    def test_rejects_unknown_theorem(self):
        with pytest.raises(ValueError):
            grid_cases(GridConfig(theorems=("nope",)))

    def test_rejects_bad_pairs(self):
        with pytest.raises(ValueError):
            grid_cases(GridConfig(pairs=((4, 2),)))
        with pytest.raises(ValueError):
            grid_cases(GridConfig(pairs=((2, 0),)))

    @pytest.mark.parametrize("field", [
        dict(theorems=("nope",)),
        dict(pairs=((4, 2),)),
        dict(pairs=((2, 0),)),
        dict(s_values=(0, -1)),
        dict(i_max=0),
        dict(d_max=-1),
        dict(seed=-1),
        dict(seed=2 ** 64),
    ], ids=lambda kw: "-".join(f"{k}={v}" for k, v in kw.items()))
    def test_config_rejects_on_construction(self, field):
        with pytest.raises(ValueError):
            GridConfig(**field)


class TestRunCase:
    def test_single_pass(self):
        r = run_case(CaseSpec(theorem="main", p=2, n=2, s=1, i=4))
        assert r.passed and not r.skipped and not r.flagged
        assert r.witness is None
        assert r.elapsed_ms >= 0

    def test_perturbed_case_fails_with_witness(self):
        r = run_case(CaseSpec(theorem="q0-power", p=2, n=2, perturb=True))
        assert not r.passed and not r.skipped
        assert r.witness == "1"

    def test_term_budget_skips(self):
        # with cold caches, Dickson's recursion building Q_{2,0} asks the
        # budget about its first product
        clear_caches()
        try:
            r = run_case(CaseSpec(theorem="q0-power", p=2, n=2), term_budget=1)
        finally:
            clear_caches()
        assert r.skipped and not r.passed
        assert r.skip_reason == "a product of 2 by 1 terms exceeds the budget 1"

    def test_term_budget_skips_on_warm_caches(self):
        # with Q_{2,0} and L_2 cached, the case builds nothing, and the
        # guard on its two 2-term sides refuses it
        invariants.dickson_Q(2, 0, 2)
        invariants.L(2, 2, 2)
        r = run_case(CaseSpec(theorem="q0-power", p=2, n=2), term_budget=1)
        assert r.skipped and not r.passed
        assert r.skip_reason == "2 terms exceed the budget 1"

    def test_time_budget_skips(self):
        r = run_case(CaseSpec(theorem="hilbert", p=2, n=2, d=20), time_budget=0.0)
        assert r.skipped
        assert r.skip_reason == "time budget exceeded"

    def test_quotient_recursion_stops_before_a_wide_product(self, dot_spy):
        # R_coef(2, 15, 3) would build a 2,391,484-term quotient; under a
        # budget of 10**6 the recursion stops before any product has more
        # term pairs than that.  routes-agree builds it through
        # st_delta_via_main; main decides the case by its certificate (below)
        R_coef.cache_clear()
        P_coef.cache_clear()
        try:
            r = run_case(CaseSpec("routes-agree", 3, 2, s=1, i=15), term_budget=10 ** 6)
        finally:
            R_coef.cache_clear()
            P_coef.cache_clear()
        assert r.skipped and not r.passed
        assert r.skip_reason == "a product of 265720 by 4 terms exceeds the budget 1000000"
        assert dot_spy.pairs and max(dot_spy.pairs) <= 10 ** 6
        assert case_budget.get() is None

    def test_main_form_stops_before_a_wide_product(self, monkeypatch, dot_spy):
        # with the first term of the n+3 row's Rhat dropped, cor-n3 at
        # (5,3,1) runs the x route for its witness; the main form's last
        # product, L_n**(p-2) by the wide sum, would be 9,252,792 term pairs
        monkeypatch.setitem(steenrod._COROLLARY_ROWS, "n+3",
                            drop_first_term_of_rhat(steenrod._COROLLARY_ROWS["n+3"]))
        r = run_case(CaseSpec("cor-n3", 5, 3, s=1), term_budget=10 ** 6)
        assert r.skipped and not r.passed
        assert r.skip_reason == "a product of 54 by 171348 terms exceeds the budget 1000000"
        assert dot_spy.pairs and max(dot_spy.pairs) <= 10 ** 6
        assert case_budget.get() is None

    def test_corollary_row_stops_before_a_wide_product(self, monkeypatch, dot_spy):
        # the same broken row read in x for the witness: its own products
        # reach 599,634 term pairs before the main form is reached, and each
        # asks the budget first.  R = F(n) is read first, and its last term,
        # Q_{3,2} (Q_{3,2} Q_{3,2}**p)**p, is the first refused
        monkeypatch.setitem(steenrod._COROLLARY_ROWS, "n+3",
                            drop_first_term_of_rhat(steenrod._COROLLARY_ROWS["n+3"]))
        r = run_case(CaseSpec("cor-n3", 5, 3, s=1), term_budget=500_000)
        assert r.skipped and not r.passed
        assert r.skip_reason == "a product of 126 by 4759 terms exceeds the budget 500000"
        assert dot_spy.pairs and max(dot_spy.pairs) <= 500_000
        assert case_budget.get() is None

    def test_dickson_recursion_stops_before_a_wide_product(self, dot_spy):
        # q0-power builds Q_{5,0} by Dickson's recursion, whose products
        # ask the budget like every other product
        invariants._dickson_row.cache_clear()
        invariants.dickson_Q.cache_clear()
        try:
            r = run_case(CaseSpec("q0-power", 2, 5), term_budget=1000)
        finally:
            invariants._dickson_row.cache_clear()
            invariants.dickson_Q.cache_clear()
        assert r.skipped and not r.passed
        assert r.skip_reason.startswith("a product of ")
        assert dot_spy.pairs and max(dot_spy.pairs) <= 1000
        assert case_budget.get() is None

    def test_main_form_skips_on_R_by_its_own_term_count(self):
        # routes-agree at (3,2,0,12): R_coef(2, 12, 3) has 88,573 terms and
        # its recursion products stay under 150,000 term pairs; the main
        # form's product of L(2, 0) by R**p is refused before R**p is formed
        r = run_case(CaseSpec("routes-agree", 3, 2, s=0, i=12), term_budget=150_000)
        assert r.skipped and not r.passed
        assert r.skip_reason == "a product of 2 by 88573 terms exceeds the budget 150000"

    def test_a_bracket_stops_before_its_terms(self, monkeypatch):
        # kernel at (2, 8) starts from L(8, 0), 8! = 40,320 terms, refused
        # before the permutations behind them are enumerated
        def unread(n):
            raise AssertionError("the permutations were read before the ask")

        monkeypatch.setattr(invariants, "_signed_permutations", unread)
        r = run_case(CaseSpec("kernel", 2, 8, s=0, i=1), term_budget=10_000)
        assert r.skipped and not r.passed
        assert r.skip_reason == "40320 terms exceed the budget 10000"
        assert case_budget.get() is None

    def test_out_of_memory_skips(self, monkeypatch):
        def exhausted(n, s, p):
            raise MemoryError()

        monkeypatch.setattr(verify, "dickson_Q", exhausted)
        r = run_case(CaseSpec("q0-power", 2, 2))
        assert r.skipped and not r.passed and r.witness is None
        assert r.skip_reason == "out of memory"
        assert case_budget.get() is None

    def test_main_passes_where_the_x_route_runs_over_budget(self):
        # the certificate keeps R_{2,15} in the Dickson coordinates, 377 terms
        r = run_case(CaseSpec("main", 3, 2, s=1, i=15), term_budget=10 ** 6)
        assert r.passed and not r.skipped and r.witness is None

    @pytest.mark.parametrize("p,n,s", [(2, 3, 1), (3, 3, 1), (5, 3, 2), (3, 2, 0), (2, 4, 2)])
    def test_invariance_fails_a_changed_Q_with_the_substitution_witness(
            self, monkeypatch, p, n, s):
        # One coefficient of Q_{n,s} changed, and L(n, s) with it, so that
        # the product check holds and the generators decide.  The witness is
        # the one the general substitution gives: the grevlex-largest
        # monomial where the image under the first moving generator differs.
        q = invariants.dickson_Q(n, s, p)
        m = max(q.terms, key=grevlex_key)
        changed = Poly(n, p, {**q.terms, m: q.terms[m] + 1})
        real_Q, real_L = verify.dickson_Q, verify.L
        monkeypatch.setattr(verify, "dickson_Q",
                            lambda *a: changed if a == (n, s, p) else real_Q(*a))
        monkeypatch.setattr(verify, "L", lambda n_, s_, p_: (
            poly_mul(changed, real_L(n, n, p)) if (n_, s_, p_) == (n, s, p)
            else real_L(n_, s_, p_)))
        images = [substitute_linear(changed, mat) for mat in generator_matrices(n, p)]
        image = next(f for f in images if f != changed)
        diff = {k for k in set(image.terms) | set(changed.terms)
                if image.terms.get(k, 0) != changed.terms.get(k, 0)}
        want = fp_poly.format_poly(Poly(n, p, {max(diff, key=grevlex_key): 1}))
        r = run_case(CaseSpec("invariance", p, n, s=s))
        assert not r.passed and not r.skipped
        assert r.witness == want

    def test_hilbert_reaches_the_first_invariant_of_3_4(self):
        # the bound counts the 4060 monomials with even exponents at d = 54
        r = run_case(CaseSpec(theorem="hilbert", p=3, n=4, d=54))
        assert r.passed and not r.skipped

    def test_dimension_bound_skips(self):
        # a basis too large for the dimension routine reports as skipped
        r = run_case(CaseSpec(theorem="hilbert", p=2, n=3, d=200))
        assert r.skipped
        assert r.skip_reason == (
            "degree-200 monomial basis has 20301 elements, bound is 5000")

    def test_no_skip_reason_unless_skipped(self):
        assert run_case(CaseSpec(theorem="q0-power", p=2, n=2)).skip_reason is None
        assert run_case(CaseSpec(theorem="q0-power", p=2, n=2,
                                 perturb=True)).skip_reason is None

    def test_budget_env_is_read_by_the_cli_only(self, monkeypatch):
        # library callers pass term_budget; run_case and run_grid agree
        monkeypatch.setenv("DICKSON_TERM_BUDGET", "1")
        single = run_case(CaseSpec("q0-power", 2, 2))
        report = run_grid(GridConfig(theorems=("q0-power",), pairs=((2, 2),)))
        assert single.passed and not single.skipped
        assert [(c.passed, c.skipped) for c in report.cases] == [(True, False)]

    def test_flagged_composite(self):
        r = run_case(CaseSpec(theorem="cor-n3", p=3, n=2, s=1))
        assert r.passed and r.flagged
        assert r.witness is not None
        # witness is a single monomial in the text grammar
        w = parse_poly(r.witness, 2, 3)
        assert len(w.terms) == 1

    def test_unflagged_composite(self):
        r = run_case(CaseSpec(theorem="cor-n3", p=2, n=2, s=1))
        assert r.passed and not r.flagged

    def test_unknown_theorem(self):
        with pytest.raises(ValueError):
            run_case(CaseSpec(theorem="bogus", p=2, n=2))


# The main cases of perfbench's stretch-main workload, as (p, n, i_max).
STRETCH_MAIN = ((3, 3, 6), (2, 4, 6), (5, 3, 4))


def main_specs():
    specs = grid_cases(GridConfig(theorems=("main",)))
    for p, n, i_max in STRETCH_MAIN:
        specs += grid_cases(GridConfig(theorems=("main",), pairs=((p, n),), i_max=i_max))
    return specs


def budget():
    return verify._Budget(verify.DEFAULT_TERM_BUDGET, verify.DEFAULT_TIME_BUDGET)


def plus_one(f):
    return fp_poly.poly_add(f, fp_poly.poly_one(f.n, f.p))


class TestMainCertificate:
    def test_certificate_and_x_route_agree(self):
        # every main case of the default grid and of the stretch grid: the
        # certificate holds exactly where st_delta_via_main matches
        specs = main_specs()
        assert len(specs) == 67 + 54
        for spec in specs:
            gap = verify._certificate_gap(spec, budget(), spec.i)
            x_passed, _, _ = verify._case_st_delta_Q(
                spec, budget(), spec.i, steenrod.st_delta_via_main)
            assert (gap is None) == x_passed, spec
            assert gap is None

    def test_main_builds_no_x_quotient(self, monkeypatch):
        # R and P stay in the Dickson coordinates
        def refuse(*args):
            raise AssertionError("x quotient built")

        monkeypatch.setattr(verify, "st_delta_via_main", refuse)
        for module in (invariants, steenrod):
            monkeypatch.setattr(module, "R_coef", refuse)
            monkeypatch.setattr(module, "P_coef", refuse)
        report = run_grid(GridConfig(theorems=("main",), pairs=((3, 2), (2, 3))))
        assert report.summary == {"passed": 33, "failed": 0, "skipped": 0}

    def test_each_step_and_the_roots_are_checked_once(self, monkeypatch):
        # link 2 states no bracket recursion instance: two runs evaluate
        # each step of the induction once and the roots of Dickson's
        # polynomial once for (n, p) = (2, 5)
        calls = {"recursion_rhs": [], "_step_holds": [], "_roots_hold": []}

        def spy(name, real):
            def record(*args):
                calls[name].append(args)
                return real(*args)
            return record

        for module in (verify, invariants):
            monkeypatch.setattr(module, "recursion_rhs", spy("recursion_rhs", recursion_rhs))
        for name in ("_step_holds", "_roots_hold"):
            cached = getattr(verify, name)
            monkeypatch.setattr(verify, name, functools.lru_cache(maxsize=None)(
                spy(name, cached.__wrapped__)))
        for _ in range(2):
            run_grid(GridConfig(theorems=("main",), pairs=((5, 2),)))
        assert calls["recursion_rhs"] == []
        # the prefixes (1,) and (0,), each up to j = 6
        assert sorted(calls["_step_holds"]) == sorted(
            (2, left, j, 5) for left in (0, 1) for j in range(7))
        assert calls["_roots_hold"] == [(2, 5)]

    @pytest.mark.parametrize("p,n", [(2, 3), (3, 2), (2, 4)])
    def test_the_roots_fail_without_any_one_term_of_a_Q(self, monkeypatch, p, n):
        real = verify.dickson_Q
        for t in range(n):
            q = real(n, t, p)
            for m in q.terms:
                dropped = Poly(n, p, {k: c for k, c in q.terms.items() if k != m})
                monkeypatch.setattr(verify, "dickson_Q", lambda n_, t_, p_: (
                    dropped if (n_, t_, p_) == (n, t, p) else real(n_, t_, p_)))
                assert not verify._roots_hold.__wrapped__(n, p), (t, m)

    @pytest.mark.parametrize("p,n", [(2, 4), (3, 4), (2, 5), (5, 3)])
    def test_the_roots_hold(self, p, n):
        assert verify._roots_hold.__wrapped__(n, p)

    def test_a_wiring_fault_in_the_quotient_builder_fails_link_2(self, monkeypatch):
        # the builder's recursion with Frobenius index j - n + 1 above n:
        # the y-recursion that link 2 states on its own tells it apart
        real = invariants._quotient

        def shifted(n, left, j, p, lower, base):
            if j < n:
                return real(n, left, j, p, lower, base)
            return invariants._recursion_sum(
                n, j - n + 1, p, [lower(j - n + t) for t in range(n)], base)

        clear_caches()
        monkeypatch.setattr(invariants, "_quotient", shifted)
        try:
            specs = [spec for spec in grid_cases(GridConfig(
                theorems=("main",), pairs=((2, 2), (3, 2), (5, 2)))) if spec.i >= spec.n]
            gaps = [verify._certificate_gap(spec, budget(), spec.i) for spec in specs]
        finally:
            clear_caches()
        assert len(specs) == 30
        assert all(gap.startswith("recursion up to ") for gap in gaps), gaps

    # Each corruption breaks one link; i >= n, so every case needs an
    # instance of the recursion.
    CORRUPTIONS = {
        "det-formula": ("st_delta_via_dl2",
                        lambda real: lambda n, s, i, p: plus_one(real(n, s, i, p))),
        "recursion": ("_step_holds", lambda real: lambda n, left, j, p: j < n),
        "q0-power": ("poly_pow", lambda real: lambda f, k: plus_one(real(f, k))),
        "free ring": ("y_quotient", lambda real: lambda n, left, j, p: (
            plus_one(real(n, left, j, p)) if left == n - 1 else real(n, left, j, p))),
    }

    @pytest.mark.parametrize("link", list(CORRUPTIONS))
    def test_a_broken_link_fails_and_names_itself(self, monkeypatch, link):
        name, corrupt = self.CORRUPTIONS[link]
        monkeypatch.setattr(verify, name, corrupt(getattr(verify, name)))
        report = run_grid(GridConfig(theorems=("main",), pairs=((2, 2), (3, 2), (5, 2))))
        cases = [c for c in report.cases if c.spec.i >= c.spec.n]
        assert cases and not any(c.passed or c.skipped for c in cases)
        # st_delta_via_main is intact, so the x comparison finds no difference
        for c in cases:
            assert c.witness.startswith(f"certificate link {link}")
            assert c.witness.endswith(" fails")

    def test_a_unit_multiple_of_every_quotient_fails_at_the_base(self, monkeypatch):
        # -y_quotient satisfies X = R**p y_s - P**p as well (c**p = c in
        # F_p), so only the checked base cases tell it from the quotient
        real = verify.y_quotient
        monkeypatch.setattr(verify, "y_quotient", lambda n, left, j, p: poly_scale(
            real(n, left, j, p), p - 1))
        verify._step_holds.cache_clear()  # steps proven with the true quotients
        try:
            report = run_grid(GridConfig(theorems=("main",), pairs=((3, 2), (5, 2))))
        finally:
            verify._step_holds.cache_clear()
        assert not any(c.passed or c.skipped for c in report.cases)
        assert all(c.witness.startswith("certificate link recursion") for c in report.cases)

    def test_a_broken_link_reports_the_x_witness(self, monkeypatch):
        # where the x route differs too, the witness is its monomial, as
        # before the certificate
        wrong = lambda n, s, i, p: fp_poly.poly_zero(n, p)
        monkeypatch.setattr(verify, "st_delta_via_dl2", wrong)
        monkeypatch.setattr(verify, "st_delta_via_main", wrong)
        r = run_case(CaseSpec("main", 3, 2, s=1, i=4))
        want = verify._compare(
            steenrod.st_delta(invariants.dickson_Q(2, 1, 3), 4), fp_poly.poly_zero(2, 3))
        assert not r.passed and not r.skipped
        assert (False, False, r.witness) == want
        assert len(parse_poly(r.witness, 2, 3).terms) == 1


# The cor-n* cases of perfbench's stretch-closed workload, as (p, n, families).
STRETCH_CLOSED = ((3, 3, ("cor-n1", "cor-n2", "cor-n3")), (2, 4, ("cor-n1", "cor-n2")))
COROLLARIES = ("cor-n1", "cor-n2", "cor-n3")


def cor_specs():
    specs = grid_cases(GridConfig(theorems=COROLLARIES))
    for p, n, families in STRETCH_CLOSED:
        specs += grid_cases(GridConfig(theorems=families, pairs=((p, n),)))
    return specs


def x_route(spec):
    """The corollary case decided in x: st_delta(Q_{n,s}, n + k) against
    corollary_rhs, where a cor-n3 mismatch passes, flagged."""
    k = int(spec.theorem[-1])
    passed, flagged, witness = verify._case_st_delta_Q(
        spec, budget(), spec.n + k,
        lambda n, s, i, p: steenrod.corollary_rhs(f"n+{k}", n, s, p))
    if spec.theorem == "cor-n3":
        return True, not passed, witness
    return passed, flagged, witness


def clear_caches():
    for cached in (verify._step_holds, verify._roots_hold, invariants.y_quotient,
                   invariants.bracket, invariants.dickson_Q, invariants._dickson_row,
                   invariants.R_coef, invariants.P_coef):
        cached.cache_clear()


def drop_term(row, k, in_R):
    # the row with the k-th term of its F dropped in its R (a = n) only, or
    # in its P (a = s < n) only
    sign, F = row

    def dropped(q, n, p, a):
        terms = F(q, n, p, a)
        if (a == n) == in_R:
            del terms[k]
        return terms
    return sign, dropped


def drop_first_term_of_rhat(row):
    # the n+3 row without the Q_{n,n-3}**(p**2) term of its Rhat
    return drop_term(row, 0, in_R=True)


def drop_last_term_of_R(row):
    # the n+2 row without the Q_{n,n-2}**p term of its R
    return drop_term(row, -1, in_R=True)


class TestCorollaryCertificate:
    def test_certificate_and_x_route_agree(self):
        # every cor-n* case of the default grid and of the stretch grid
        specs = cor_specs()
        assert len(specs) == 33 + 17
        flags = []
        for spec in specs:
            got = verify._FAMILIES[spec.theorem].check(spec, budget())
            assert got == x_route(spec), spec
            if got[1]:
                flags.append((spec.p, spec.n, spec.s, got[2]))
        assert flags == [(3, 2, 1, "x1^240*x2^8"), (5, 2, 1, "x1^3120*x2^24"),
                         (3, 3, 1, "x1^720*x2^24*x3^8"), (3, 3, 2, "x1^720*x2^24*x3^2")]

    def test_no_form_is_built_in_x(self, monkeypatch):
        # with cold caches, every link holds and no case assembles a composite
        def refuse(*args, **kw):
            raise AssertionError("composite built in x")

        clear_caches()
        monkeypatch.setattr(verify, "corollary_rhs", refuse)
        monkeypatch.setattr(steenrod, "_main_form", refuse)
        try:
            report = run_grid(GridConfig(theorems=COROLLARIES))
        finally:
            clear_caches()
        assert report.summary == {"passed": 33, "failed": 0, "skipped": 0}
        assert [(c.spec.p, c.spec.s, c.witness) for c in report.cases if c.flagged] == [
            (3, 1, "x1^240*x2^8"), (5, 1, "x1^3120*x2^24")]

    def spy_x_route(self, monkeypatch):
        calls = []
        real = verify.corollary_rhs

        def spy(which, n, s, p, i=None):
            calls.append((which, n, s, p))
            return real(which, n, s, p, i=i)

        monkeypatch.setattr(verify, "corollary_rhs", spy)
        return calls

    def test_a_broken_link_runs_the_x_route(self, monkeypatch):
        # a broken certificate fails the case, cor-n3 included: only a
        # row's sign is flagged
        calls = self.spy_x_route(monkeypatch)
        monkeypatch.setattr(verify, "_step_holds", lambda n, left, j, p: False)
        r = run_case(CaseSpec("cor-n3", 3, 2, s=1))
        assert calls == [("n+3", 2, 1, 3)]
        assert (r.passed, r.skipped, r.flagged, r.witness) == (False, False, False, "x1^240*x2^8")
        # where the x route agrees, the witness names the link
        for theorem, which in (("cor-n1", "n+1"), ("cor-n3", "n+3")):
            r = run_case(CaseSpec(theorem, 3, 2, s=0))
            assert calls[-1] == (which, 2, 0, 3)
            assert (r.passed, r.skipped, r.flagged) == (False, False, False)
            assert r.witness.startswith("certificate link recursion up to [0..1 without 0, ")

    def test_a_dropped_row_term_runs_the_x_route(self, monkeypatch):
        calls = self.spy_x_route(monkeypatch)
        monkeypatch.setitem(steenrod._COROLLARY_ROWS, "n+2",
                            drop_last_term_of_R(steenrod._COROLLARY_ROWS["n+2"]))
        report = run_grid(GridConfig(theorems=("cor-n2",), pairs=((2, 2), (3, 2))))
        assert len(calls) == len(report.cases) == 4
        for c in report.cases:
            want = verify._compare(
                steenrod.st_delta(invariants.dickson_Q(c.spec.n, c.spec.s, c.spec.p), 4),
                steenrod.corollary_rhs("n+2", c.spec.n, c.spec.s, c.spec.p))
            assert not c.passed and not c.skipped
            assert (False, False, c.witness) == want
            assert len(parse_poly(c.witness, c.spec.n, c.spec.p).terms) == 1


    def test_a_dropped_P_term_past_the_default_grid_fails(self, monkeypatch):
        # Q_{n,s-3}**(p**2), the first term of the n+3 row, enters P only at
        # s >= 3, which the default grid (n <= 3) never reaches.  Dropped
        # from P, it fails the row check at s = 3 alone, which runs the x
        # route: at p = 2 that finds the witness; at p = 3 it runs past the
        # budget (at the default budget after about 15 s, on the main form's
        # last product, 24 by 1,233,604 term pairs), so it runs under 10**6
        # here and the case is skipped, never passed.  s = 1 and s = 2 keep
        # their flags.
        calls = self.spy_x_route(monkeypatch)
        monkeypatch.setitem(steenrod._COROLLARY_ROWS, "n+3",
                            drop_term(steenrod._COROLLARY_ROWS["n+3"], 0, in_R=False))
        got = [run_case(CaseSpec("cor-n3", 2, 4, s=s)) for s in range(4)]
        assert [(r.passed, r.skipped, r.flagged) for r in got] == \
            [(True, False, False)] * 3 + [(False, False, False)]
        assert got[3].witness == "x1^72*x2^36*x3^18*x4^9"
        got = [run_case(CaseSpec("cor-n3", 3, 4, s=s)) for s in range(3)]
        assert [(r.passed, r.skipped, r.flagged, r.witness) for r in got] == [
            (True, False, False, None),
            (True, False, True, "x1^2160*x2^72*x3^24*x4^8"),
            (True, False, True, "x1^2160*x2^72*x3^24*x4^2")]
        r = run_case(CaseSpec("cor-n3", 3, 4, s=3), term_budget=10 ** 6)
        assert r.skipped and not r.passed and "exceeds the budget" in r.skip_reason
        assert calls == [("n+3", 4, 3, 2), ("n+3", 4, 3, 3)]


class TestReports:
    def test_summary_counts(self):
        report = run_grid(small_config(inject_failure=True))
        assert report.summary == {"passed": 1, "failed": 1, "skipped": 0}

    def test_emit_is_pure(self):
        report = run_grid(small_config())
        assert emit_report(report, "json") == emit_report(report, "json")
        assert emit_report(report, "text") == emit_report(report, "text")

    def test_rerun_agrees_modulo_timing(self):
        config = GridConfig(
            theorems=("recursion", "q0-power", "cor-n3"),
            pairs=((2, 2), (3, 2)), seed=11)
        a = report_to_dict(run_grid(config))
        b = report_to_dict(run_grid(config))
        assert strip_timing(a) == strip_timing(b)

    def test_json_shape(self):
        report = run_grid(small_config(inject_failure=True))
        data = json.loads(emit_report(report, "json"))
        assert set(data) == {"version", "sign_flag", "seed", "cases", "summary"}
        assert data["sign_flag"] == 1
        assert data["seed"] == 0
        assert data["summary"] == {"passed": 1, "failed": 1, "skipped": 0}
        for case in data["cases"]:
            assert {"theorem", "p", "n", "s", "i", "d", "passed", "skipped",
                    "flagged", "elapsed_ms"} <= set(case)
        good, bad = data["cases"]
        assert "witness" not in good
        assert bad["witness"] == "1"

    def test_json_matches_dict(self):
        report = run_grid(small_config())
        assert json.loads(emit_report(report, "json")) == report_to_dict(report)

    def test_text_layout(self):
        report = run_grid(small_config(inject_failure=True))
        lines = emit_report(report, "text").splitlines()
        assert lines[0].startswith("identity verification, version")
        assert lines[1] == "sign flag +1, seed 0"
        assert any(" FAIL " in line and line.endswith("1") for line in lines)
        assert lines[-4:] == ["PASSED: 1", "FLAGGED: 0", "SKIPPED: 0", "FAILED: 1"]

    def test_flag_status_in_text(self):
        report = run_grid(GridConfig(theorems=("cor-n3",), pairs=((3, 2),)))
        text = emit_report(report, "text")
        assert " flag " in text
        assert text.rstrip().endswith("FAILED: 0")

    def test_unknown_format(self):
        report = run_grid(small_config())
        with pytest.raises(ValueError):
            emit_report(report, "yaml")


class TestCli:
    def test_pass_run(self, capsys):
        rc = main(["--theorem", "q0-power", "--p", "2", "--n", "2"])
        assert rc == 0
        out = capsys.readouterr().out
        assert out.rstrip().endswith("FAILED: 0")

    def test_json_output(self, capsys):
        rc = main(["--theorem", "smith-switzer", "--p", "2,3", "--n", "2",
                   "--format", "json"])
        assert rc == 0
        data = json.loads(capsys.readouterr().out)
        assert data["summary"]["failed"] == 0
        assert {(c["p"], c["n"]) for c in data["cases"]} == {(2, 2), (3, 2)}

    def test_inject_failure_rc(self, capsys):
        rc = main(["--theorem", "q0-power", "--p", "2", "--n", "2",
                   "--inject-failure"])
        assert rc == 1
        assert "FAILED: 1" in capsys.readouterr().out

    def test_out_file(self, tmp_path, capsys):
        target = tmp_path / "report.json"
        rc = main(["--theorem", "q0-power", "--p", "3", "--n", "1",
                   "--format", "json", "--out", str(target)])
        assert rc == 0
        assert capsys.readouterr().out == ""
        data = json.loads(target.read_text())
        assert data["summary"] == {"passed": 1, "failed": 0, "skipped": 0}

    def test_seed_changes_nothing_but_seeds(self, capsys):
        rc = main(["--theorem", "recursion", "--p", "2", "--n", "2",
                   "--seed", "99", "--format", "json"])
        assert rc == 0
        assert json.loads(capsys.readouterr().out)["seed"] == 99

    @pytest.mark.parametrize("argv,passed", [
        (["--p", "5", "--n", "3"], 21),
        (["--p", "2", "--n", "4", "--i-max", "9"], 36),
    ])
    def test_main_frontier_passes(self, capsys, argv, passed):
        # the (5,3) i = 7 cases used to skip over budget, and the (2,4)
        # grid took minutes
        rc = main(["--theorem", "main"] + argv)
        assert rc == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[-4:] == [f"PASSED: {passed}", "FLAGGED: 0", "SKIPPED: 0", "FAILED: 0"]

    @pytest.mark.parametrize("argv,witnesses", [
        (["--p", "5", "--n", "3"],
         {1: "x1^15600*x2^120*x3^24", 2: "x1^15600*x2^120*x3^4"}),
        (["--p", "7", "--n", "2"], {1: "x1^16800*x2^48"}),
        (["--p", "3", "--n", "4"], {1: "x1^2160*x2^72*x3^24*x4^8",
                                    2: "x1^2160*x2^72*x3^24*x4^2",
                                    3: "x1^2160*x2^72*x3^6*x4^2"}),
    ])
    def test_cor_n3_frontier_flags(self, capsys, argv, witnesses):
        # building the composite in x takes 8-18 s for each (5,3) flag;
        # s = 0 passes, every other s is flagged
        rc = main(["--theorem", "cor-n3", "--format", "json"] + argv)
        assert rc == 0
        cases = json.loads(capsys.readouterr().out)["cases"]
        assert [(c["passed"], c["skipped"], c["flagged"]) for c in cases] == \
            [(True, False, False)] + [(True, False, True)] * len(witnesses)
        assert {c["s"]: c["witness"] for c in cases if c["flagged"]} == witnesses

    @pytest.mark.parametrize("argv", [
        ["--p", "2"],
        ["--n", "2"],
        ["--p", "4", "--n", "2"],
        ["--p", "2,x", "--n", "2"],
        ["--p", "2", "--n", "0"],
        ["--theorem", "wat"],
        ["--seed", "-1"],
        ["--i-max", "0"],
        ["--d-max", "-1"],
        ["--s", "-2"],
    ])
    def test_usage_errors(self, argv):
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == 2

    def test_bad_budget_env(self, monkeypatch):
        monkeypatch.setenv("DICKSON_TERM_BUDGET", "zero")
        with pytest.raises(SystemExit) as info:
            main(["--theorem", "q0-power", "--p", "2", "--n", "2"])
        assert info.value.code == 2

    def test_exponent_overflow_skips(self, capsys):
        # p**i passes 2**63 at i = 28, 29, 30: skipped, not a traceback
        rc = main(["--theorem", "det-formula", "--p", "5", "--n", "1",
                   "--i-max", "30"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "SKIPPED: 3" in out.splitlines()
        assert "FAILED: 0" in out.splitlines()
        assert any(" skip " in line and line.endswith("  p**28 exceeds 2**63")
                   for line in out.splitlines())
        rc = main(["--theorem", "det-formula", "--p", "5", "--n", "1",
                   "--i-max", "30", "--format", "json"])
        assert rc == 0
        cases = json.loads(capsys.readouterr().out)["cases"]
        reasons = {c["i"]: c.get("skip_reason") for c in cases}
        assert {i: reasons[i] for i in (28, 29, 30)} == {
            i: f"p**{i} exceeds 2**63" for i in (28, 29, 30)}
        assert all(reasons[i] is None for i in range(1, 28))

    def test_sign_pin_fitting_neither_convention_keeps_the_report(
            self, monkeypatch, tmp_path, capsys):
        # with a classical table that no sign fits, the flag reads 0, the
        # report is written and the run fails
        monkeypatch.setattr(steenrod, "smith_switzer_value",
                            lambda n, s, i, p: fp_poly.poly_zero(n, p))
        report = run_grid(GridConfig(theorems=("q0-power",), pairs=((2, 2),)))
        assert report.sign_flag == 0
        assert [(c.passed, c.skipped) for c in report.cases] == [(True, False)]
        target = tmp_path / "report.json"
        rc = main(["--theorem", "q0-power", "--p", "2", "--n", "2",
                   "--format", "json", "--out", str(target)])
        assert rc == 1
        data = json.loads(target.read_text())
        assert data["sign_flag"] == 0
        assert data["summary"] == {"passed": 1, "failed": 0, "skipped": 0}

    def test_tiny_budget_env_skips(self, monkeypatch, capsys):
        # with cold caches, as in a fresh process: Dickson's recursion asks
        # the budget about its first product
        monkeypatch.setenv("DICKSON_TERM_BUDGET", "1")
        clear_caches()
        try:
            rc = main(["--theorem", "q0-power", "--p", "2", "--n", "2",
                       "--format", "json"])
        finally:
            clear_caches()
        assert rc == 0  # skipped cases do not fail the run
        data = json.loads(capsys.readouterr().out)
        assert data["summary"] == {"passed": 0, "failed": 0, "skipped": 1}
        assert data["cases"][0]["skip_reason"] == "a product of 2 by 1 terms exceeds the budget 1"

    @pytest.mark.parametrize("error", [RuntimeError, KeyboardInterrupt])
    def test_a_crash_keeps_the_previous_report(self, monkeypatch, tmp_path, error):
        target = tmp_path / "report.json"
        target.write_bytes(b"the previous report\n")

        def crash(config):
            raise error("stopped")
        monkeypatch.setattr(cli, "run_grid", crash)
        with pytest.raises(error):
            main(["--theorem", "q0-power", "--p", "2", "--n", "2",
                  "--format", "json", "--out", str(target)])
        assert target.read_bytes() == b"the previous report\n"
        assert list(tmp_path.iterdir()) == [target]

    def test_out_replaces_the_previous_report(self, tmp_path, capsys):
        target = tmp_path / "report.json"
        target.write_bytes(b"the previous report\n")
        assert main(["--theorem", "q0-power", "--p", "2", "--n", "2",
                     "--format", "json", "--out", str(target)]) == 0
        main(["--theorem", "q0-power", "--p", "2", "--n", "2", "--format", "json"])
        assert strip_timing(json.loads(target.read_text())) == \
            strip_timing(json.loads(capsys.readouterr().out))
        assert list(tmp_path.iterdir()) == [target]

    @pytest.mark.parametrize("where", ["missing-dir", "directory"])
    def test_unwritable_out_is_a_usage_error(self, tmp_path, capsys, where):
        target = tmp_path / "no" / "r.json" if where == "missing-dir" else tmp_path
        with pytest.raises(SystemExit) as info:
            main(["--theorem", "q0-power", "--p", "2", "--n", "2",
                  "--out", str(target)])
        assert info.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "cannot write --out" in captured.err
