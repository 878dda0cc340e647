"""Verification grid plumbing: case dispatch, reports, determinism, CLI."""
import contextlib
import functools
import json
import os
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import pytest

from dickson import cli, fp_poly, invariants, steenrod, verify
from dickson.cli import main
from dickson.fp_poly import Poly, case_budget, grevlex_key, parse_poly, poly_mul, poly_scale
from dickson.invariants import recursion_rhs
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


def run_capped(*args):
    """python *args in a child process whose address space is capped at
    1.5 GB, as `ulimit -v 1500000` caps it, with this tree's src first on
    its path: a list that outgrows the cap ends in a MemoryError there,
    not in the memory of the machine."""
    import resource

    cap = 1_500_000 * 1024
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])))
    return subprocess.run(
        [sys.executable, *args], env=env, capture_output=True, text=True, timeout=60,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (cap, cap)))


def strip_timing(d):
    return {
        **d,
        "cases": [{k: v for k, v in c.items() if k != "elapsed_ms"} for c in d["cases"]],
    }


def refuse_x_route(monkeypatch):
    """Make the closed forms in x raise: st_delta_via_main, corollary_rhs
    and _main_form.  A main or cor-n* case is decided in the Dickson
    coordinates, whatever its verdict, so none of them reaches these."""
    def refuse(*args, **kw):
        raise AssertionError("closed form built in x")

    monkeypatch.setattr(verify, "st_delta_via_main", refuse)
    monkeypatch.setattr(verify, "corollary_rhs", refuse)
    monkeypatch.setattr(steenrod, "_main_form", refuse)


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

    def test_recursion_is_exhaustive_and_seed_free(self, monkeypatch, cold):
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
    def test_recursion_fails_on_one_negated_ordering_row(self, monkeypatch, cold):
        def negated(n, es, p):
            row = invariants.bracket(n, es, p)
            return -row if es == (1, 0, 2) else row

        monkeypatch.setattr(verify, "bracket", negated)
        result = run_case(CaseSpec(theorem="recursion", p=3, n=3))
        assert not result.passed and not result.skipped
        assert result.witness == "x1^9*x2^3*x3"

    def test_recursion_fails_on_one_wrong_sorted_sum(self, monkeypatch, cold):
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

    def test_smith_switzer_index_cap(self):
        # the classical values hold for i <= n, and i_max caps them too
        def indices(**kw):
            return [(c.s, c.i) for c in grid_cases(GridConfig(
                theorems=("smith-switzer",), pairs=((3, 2),), s_values=(1,), **kw))]

        assert indices() == [(1, 1), (1, 2)]
        assert indices(i_max=1) == [(1, 1)]

    def test_empty_grid(self):
        config = GridConfig(theorems=("main",), pairs=((2, 2),), s_values=(9,))
        assert grid_cases(config) == []
        report = run_grid(config)
        assert report.summary == {"passed": 0, "failed": 0, "skipped": 0}
        assert emit_report(report, "text").rstrip().endswith("FAILED: 0")

    def test_grid_of_more_than_max_cases_is_refused(self, monkeypatch):
        # counted by the coordinates that list the grid, the injected case too
        monkeypatch.setattr(verify, "MAX_CASES", 10)
        hilbert = dict(theorems=("hilbert",), pairs=((2, 1),))
        assert len(grid_cases(GridConfig(d_max=9, **hilbert))) == 10
        for too_large in (dict(d_max=10), dict(d_max=9, inject_failure=True)):
            with pytest.raises(ValueError, match="more than 10 cases"):
                GridConfig(**hilbert, **too_large)

    def test_one_case_at_a_huge_n_is_listed_lazily(self):
        # q0-power at n = 10**8 is one case; the s values of the pair are
        # never listed
        proc = run_capped("-c", "from dickson import GridConfig, grid_cases; print(grid_cases("
                          "GridConfig(theorems=('q0-power',), pairs=((2, 10 ** 8),))))")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == ("[CaseSpec(theorem='q0-power', p=2, n=100000000, s=None, "
                               "i=None, d=None, perturb=False)]\n")

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
        dict(i_max=63),
        dict(d_max=-1),
        dict(seed=-1),
        dict(seed=2 ** 64),
    ], ids=lambda kw: "-".join(f"{k}={v}" for k, v in kw.items()))
    def test_config_rejects_on_construction(self, field):
        with pytest.raises(ValueError):
            GridConfig(**field)

    def test_i_max_62_is_the_last_accepted(self):
        # p**i < 2**63 needs i <= 62 at p = 2; from i = 63 on every case skips
        assert GridConfig(i_max=62).i_max == 62


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

    def test_term_budget_skips(self, monkeypatch, cold):
        # Dickson's recursion building Q_{2,0} asks the budget about its first product
        monkeypatch.setattr(verify, "TERM_BUDGET", 1)
        r = run_case(CaseSpec(theorem="q0-power", p=2, n=2))
        assert r.skipped and not r.passed
        assert r.skip_reason == "a product of 2 by 1 terms exceeds the budget 1"

    def test_term_budget_skips_on_warm_caches(self, monkeypatch, cold):
        # with Q_{2,0} and L_2 cached, the case builds nothing, and the
        # guard on its two 2-term sides refuses it
        invariants.dickson_Q(2, 0, 2)
        invariants.L(2, 2, 2)
        monkeypatch.setattr(verify, "TERM_BUDGET", 1)
        r = run_case(CaseSpec(theorem="q0-power", p=2, n=2))
        assert r.skipped and not r.passed
        assert r.skip_reason == "2 terms exceed the budget 1"

    def test_time_budget_skips(self, monkeypatch, cold):
        monkeypatch.setattr(verify, "TIME_BUDGET", 0.0)
        r = run_case(CaseSpec(theorem="hilbert", p=2, n=2, d=20))
        assert r.skipped
        assert r.skip_reason == "time budget exceeded"

    def test_quotient_recursion_stops_before_a_wide_product(self, monkeypatch, cold, dot_spy):
        # R_coef(2, 15, 3) would build a 2,391,484-term quotient; under a
        # budget of 10**6 the recursion stops before any product has more
        # term pairs than that.  routes-agree builds it through
        # st_delta_via_main; main decides the case by its certificate (below)
        monkeypatch.setattr(verify, "TERM_BUDGET", 10 ** 6)
        r = run_case(CaseSpec("routes-agree", 3, 2, s=1, i=15))
        assert r.skipped and not r.passed
        assert r.skip_reason == "a product of 265720 by 4 terms exceeds the budget 1000000"
        assert dot_spy.pairs and max(dot_spy.pairs) <= 10 ** 6
        assert case_budget.get() is None

    def test_routes_are_built_only_after_the_earlier_ones_agree(self, monkeypatch, cold):
        # a wrong determinant route fails routes-agree with its own witness,
        # and the closed form in x, the second route, is never built
        dl2 = steenrod.st_delta_via_dl2
        monkeypatch.setattr(verify, "st_delta_via_dl2",
                            lambda n, s, i, p: plus_one(dl2(n, s, i, p)))
        calls = []
        main_route = steenrod.st_delta_via_main
        monkeypatch.setattr(verify, "st_delta_via_main",
                            lambda *args: calls.append(args) or main_route(*args))
        r = run_case(CaseSpec("routes-agree", 3, 2, s=1, i=4))
        assert (r.passed, r.skipped, r.flagged) == (False, False, False)
        assert r.witness == "1"
        assert calls == []

    def test_a_wrong_first_route_fails_where_the_second_would_skip(self, monkeypatch, cold):
        # the case of test_quotient_recursion_stops_before_a_wide_product,
        # with a wrong determinant route: it fails before st_delta_via_main
        # reaches the product the budget refuses
        dl2 = steenrod.st_delta_via_dl2
        monkeypatch.setattr(verify, "st_delta_via_dl2",
                            lambda n, s, i, p: plus_one(dl2(n, s, i, p)))
        monkeypatch.setattr(verify, "TERM_BUDGET", 10 ** 6)
        r = run_case(CaseSpec("routes-agree", 3, 2, s=1, i=15))
        assert (r.passed, r.skipped, r.flagged) == (False, False, False)
        assert r.skip_reason is None and r.witness == "1"

    def test_main_form_stops_before_a_wide_product(self, monkeypatch, cold):
        # with the first term of the n+3 row's Rhat dropped, cor-n3 at
        # (5,3,1) fails on the row check, at the default budget: read in x,
        # that row's main form would end in a product of 54 by 171,348 terms
        refuse_x_route(monkeypatch)
        monkeypatch.setitem(steenrod._COROLLARY_ROWS, "n+3",
                            drop_first_term_of_rhat(steenrod._COROLLARY_ROWS["n+3"]))
        r = run_case(CaseSpec("cor-n3", 5, 3, s=1))
        assert (r.passed, r.skipped, r.flagged) == (False, False, False)
        assert r.witness == "certificate link row R fails"
        assert case_budget.get() is None

    def test_corollary_row_stops_before_a_wide_product(self, monkeypatch, cold, dot_spy):
        # the same broken row under a budget of 500,000 term pairs, which the
        # row read in x would exceed (599,634): the case fails on its link,
        # not skips, and no product it forms comes near the budget
        refuse_x_route(monkeypatch)
        monkeypatch.setitem(steenrod._COROLLARY_ROWS, "n+3",
                            drop_first_term_of_rhat(steenrod._COROLLARY_ROWS["n+3"]))
        monkeypatch.setattr(verify, "TERM_BUDGET", 500_000)
        r = run_case(CaseSpec("cor-n3", 5, 3, s=1))
        assert (r.passed, r.skipped, r.flagged) == (False, False, False)
        assert r.witness == "certificate link row R fails"
        assert dot_spy.pairs and max(dot_spy.pairs) <= 500_000
        assert case_budget.get() is None

    def test_dickson_recursion_stops_before_a_wide_product(self, monkeypatch, cold, dot_spy):
        # q0-power builds Q_{5,0} by Dickson's recursion, whose products
        # ask the budget like every other product
        monkeypatch.setattr(verify, "TERM_BUDGET", 1000)
        r = run_case(CaseSpec("q0-power", 2, 5))
        assert r.skipped and not r.passed
        assert r.skip_reason.startswith("a product of ")
        assert dot_spy.pairs and max(dot_spy.pairs) <= 1000
        assert case_budget.get() is None

    def test_main_form_skips_on_R_by_its_own_term_count(self, monkeypatch, cold):
        # routes-agree at (3,2,0,12): R_coef(2, 12, 3) has 88,573 terms and
        # its recursion products stay under 150,000 term pairs; the main
        # form's product of L(2, 0) by R**p is refused before R**p is formed
        monkeypatch.setattr(verify, "TERM_BUDGET", 150_000)
        r = run_case(CaseSpec("routes-agree", 3, 2, s=0, i=12))
        assert r.skipped and not r.passed
        assert r.skip_reason == "a product of 2 by 88573 terms exceeds the budget 150000"

    def test_a_bracket_stops_before_its_terms(self, monkeypatch, cold):
        # kernel at (2, 8) starts from L(8, 0), 8! = 40,320 terms, refused
        # before the permutations behind them are enumerated
        def unread(n):
            raise AssertionError("the permutations were read before the ask")

        monkeypatch.setattr(invariants, "_signed_permutations", unread)
        monkeypatch.setattr(verify, "TERM_BUDGET", 10_000)
        r = run_case(CaseSpec("kernel", 2, 8, s=0, i=1))
        assert r.skipped and not r.passed
        assert r.skip_reason == "40320 terms exceed the budget 10000"
        assert case_budget.get() is None

    def test_out_of_memory_skips(self, monkeypatch, cold):
        def exhausted(n, s, p):
            raise MemoryError()

        monkeypatch.setattr(verify, "dickson_Q", exhausted)
        r = run_case(CaseSpec("q0-power", 2, 2))
        assert r.skipped and not r.passed and r.witness is None
        assert r.skip_reason == "out of memory"
        assert case_budget.get() is None

    def test_main_passes_where_the_x_route_runs_over_budget(self, monkeypatch, cold):
        # the certificate keeps R_{2,15} in the Dickson coordinates, 377 terms
        monkeypatch.setattr(verify, "TERM_BUDGET", 10 ** 6)
        r = run_case(CaseSpec("main", 3, 2, s=1, i=15))
        assert r.passed and not r.skipped and r.witness is None

    @pytest.mark.parametrize("p,n,s", [(2, 3, 1), (3, 3, 1), (5, 3, 2), (3, 2, 0), (2, 4, 2)])
    def test_invariance_fails_a_changed_Q_with_the_substitution_witness(
            self, monkeypatch, cold, p, n, s):
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

    def test_a_long_dimension_count_stops_at_the_time_budget(self, monkeypatch, cold):
        # the count alone runs about 4.5 s; the deadline stops it
        monkeypatch.setattr(verify, "TIME_BUDGET", 0.5)
        start = time.monotonic()
        r = run_case(CaseSpec(theorem="hilbert", p=2, n=2, d=4999))
        assert time.monotonic() - start < 2
        assert (r.passed, r.skipped) == (False, True)
        assert r.skip_reason == "time budget exceeded"
        assert case_budget.get() is None

    def test_a_monomial_wider_than_the_budget_skips_at_once(self):
        # q0-power at n = 10**8: one monomial of the case is 10**8 exponents,
        # more words than the budget's terms hold, so it skips before the
        # Dickson row builds its first variable
        start = time.monotonic()
        proc = run_capped("-c", "from dickson import verify as v; "
                          "print(v.run_case(v.CaseSpec('q0-power', 2, 10 ** 8)).skip_reason)")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == ("a monomial of 100000000 exponents exceeds the budget "
                               "10000000, at two words a term\n")
        assert time.monotonic() - start < 2

    def test_the_recursion_box_stops_at_the_time_budget(self):
        # at n = 13 the box holds 3 * 4**12 + 13 instances: listed before
        # the first check, they run out of the 1.5 GB cap long after the
        # deadline; made one by one, the deadline stops them
        start = time.monotonic()
        proc = run_capped("-c", "from dickson import verify as v; v.TIME_BUDGET = 2.0; "
                          "print(v.run_case(v.CaseSpec('recursion', 2, 13)).skip_reason)")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "time budget exceeded\n"
        assert time.monotonic() - start < 20

    def test_hilbert_has_no_size_limit_of_its_own(self):
        # 324,632 monomials of degree 30 in six variables, counted in 1,206 rows
        r = run_case(CaseSpec(theorem="hilbert", p=2, n=6, d=30))
        assert r.passed and not r.skipped

    def test_no_skip_reason_unless_skipped(self):
        assert run_case(CaseSpec(theorem="q0-power", p=2, n=2)).skip_reason is None
        assert run_case(CaseSpec(theorem="q0-power", p=2, n=2,
                                 perturb=True)).skip_reason is None

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


@contextlib.contextmanager
def budget():
    """The default case budget, set as run_case sets it, around a check
    called directly."""
    token = case_budget.set(verify._Budget(verify.TERM_BUDGET, verify.TIME_BUDGET))
    try:
        yield
    finally:
        case_budget.reset(token)


def plus_one(f):
    return fp_poly.poly_add(f, fp_poly.poly_one(f.n, f.p))


class TestMainCertificate:
    def test_certificate_and_x_route_agree(self):
        # every main case of the default grid and of the stretch grid: the
        # certificate holds exactly where st_delta_via_main matches
        specs = main_specs()
        assert len(specs) == 67 + 54
        for spec in specs:
            with budget():
                gap = verify._certificate_gap(spec, spec.i)
                x_passed, _, _ = verify._case_st_delta_Q(
                    spec, spec.i, steenrod.st_delta_via_main)
            assert (gap is None) == x_passed, spec
            assert gap is None

    def test_main_builds_no_x_quotient(self, monkeypatch, cold):
        # R and P stay in the Dickson coordinates
        def refuse(*args):
            raise AssertionError("x quotient built")

        refuse_x_route(monkeypatch)
        for module in (invariants, steenrod):
            monkeypatch.setattr(module, "R_coef", refuse)
            monkeypatch.setattr(module, "P_coef", refuse)
        report = run_grid(GridConfig(theorems=("main",), pairs=((3, 2), (2, 3))))
        assert report.summary == {"passed": 33, "failed": 0, "skipped": 0}

    def test_each_step_and_the_roots_are_checked_once(self, monkeypatch, cold):
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
    def test_the_roots_fail_without_any_one_term_of_a_Q(self, monkeypatch, cold, p, n):
        real = verify.dickson_Q
        for t in range(n):
            q = real(n, t, p)
            for m in q.terms:
                dropped = Poly(n, p, {k: c for k, c in q.terms.items() if k != m})
                monkeypatch.setattr(verify, "dickson_Q", lambda n_, t_, p_: (
                    dropped if (n_, t_, p_) == (n, t, p) else real(n_, t_, p_)))
                assert not verify._roots_hold.__wrapped__(n, p), (t, m)

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_the_root_at_x1_is_checked(self, monkeypatch, cold, p):
        # Q_0 = 0 and Q_1 = x2**(p(p-1)): f(X) = X**(p**2) - x2**(p**2-p) X**p
        # vanishes at x2 but not at x1
        fake = (Poly(2, p, {}), Poly(2, p, {(0, p * (p - 1)): 1}), Poly(2, p, {(0, 0): 1}))
        monkeypatch.setattr(verify, "dickson_Q", lambda n, t, p_: fake[t])
        assert not verify._roots_hold(2, p)

    @pytest.mark.parametrize("p,n", [(2, 4), (3, 4), (2, 5), (5, 3)])
    def test_the_roots_hold(self, p, n):
        assert verify._roots_hold.__wrapped__(n, p)

    def test_a_wiring_fault_in_the_quotient_builder_fails_link_2(self, monkeypatch, cold):
        # the builder's recursion with Frobenius index j - n + 1 above n:
        # the y-recursion that link 2 states on its own tells it apart
        real = invariants._quotient

        def shifted(n, left, j, p, lower, base):
            if j < n:
                return real(n, left, j, p, lower, base)
            return invariants._recursion_sum(
                n, j - n + 1, p, [lower(j - n + t) for t in range(n)], base)

        monkeypatch.setattr(invariants, "_quotient", shifted)
        specs = [spec for spec in grid_cases(GridConfig(
            theorems=("main",), pairs=((2, 2), (3, 2), (5, 2)))) if spec.i >= spec.n]
        with budget():
            gaps = [verify._certificate_gap(spec, spec.i) for spec in specs]
        assert len(specs) == 30
        assert all(gap.startswith("recursion up to ") for gap in gaps), gaps

    # Each corruption breaks one link; i >= n, so every case needs an
    # instance of the recursion.
    CORRUPTIONS = {
        "det-formula": ("st_delta_via_dl2",
                        lambda real: lambda n, s, i, p: plus_one(real(n, s, i, p))),
        "recursion": ("_step_holds", lambda real: lambda n, left, j, p: j < n),
        "q0-power": ("poly_pow", lambda real: lambda f, k: plus_one(real(f, k))),
        "free ring": ("_quotient_row", lambda real: lambda *args: (
            plus_one(real(*args)[0]), real(*args)[1])),
    }

    @pytest.mark.parametrize("link", list(CORRUPTIONS))
    def test_a_broken_link_fails_and_names_itself(self, monkeypatch, cold, link):
        name, corrupt = self.CORRUPTIONS[link]
        monkeypatch.setattr(verify, name, corrupt(getattr(verify, name)))
        refuse_x_route(monkeypatch)
        report = run_grid(GridConfig(theorems=("main",), pairs=((2, 2), (3, 2), (5, 2))))
        cases = [c for c in report.cases if c.spec.i >= c.spec.n]
        assert cases and not any(c.passed or c.skipped for c in cases)
        for c in cases:
            assert c.witness.startswith(f"certificate link {link}")
            assert c.witness.endswith(" fails")

    def test_a_unit_multiple_of_every_quotient_fails_at_the_base(self, monkeypatch, cold):
        # -y_quotient satisfies X = R**p y_s - P**p as well (c**p = c in
        # F_p), so only the checked base cases tell it from the quotient
        real = verify.y_quotient
        monkeypatch.setattr(verify, "y_quotient", lambda n, left, j, p: poly_scale(
            real(n, left, j, p), p - 1))
        report = run_grid(GridConfig(theorems=("main",), pairs=((3, 2), (5, 2))))
        assert not any(c.passed or c.skipped for c in report.cases)
        assert all(c.witness.startswith("certificate link recursion") for c in report.cases)

    def test_a_broken_link_is_the_witness_where_x_differs_too(self, monkeypatch, cold):
        # st_delta_via_main as wrong as the determinant route: the case
        # does not look in x, and its witness is the link, not a monomial
        wrong = lambda n, s, i, p: fp_poly.poly_zero(n, p)
        monkeypatch.setattr(verify, "st_delta_via_dl2", wrong)
        monkeypatch.setattr(verify, "st_delta_via_main", wrong)
        r = run_case(CaseSpec("main", 3, 2, s=1, i=4))
        assert (r.passed, r.skipped, r.flagged) == (False, False, False)
        assert r.witness == "certificate link det-formula fails"


class TestMemos:
    def test_each_det_formula_point_is_decided_once_for_every_family(self, monkeypatch, cold):
        # the determinant route wrong at (n, s, i) = (2, 1, 3) alone: the
        # cases at that point fail, each family with its own witness, and
        # each point's route is built once for all four families
        real = steenrod.st_delta_via_dl2
        seen = []

        def dl2(n, s, i, p):
            seen.append((n, s, i, p))
            f = real(n, s, i, p)
            return plus_one(f) if (n, s, i) == (2, 1, 3) else f

        monkeypatch.setattr(verify, "st_delta_via_dl2", dl2)
        report = run_grid(GridConfig(
            theorems=("main", "det-formula", "routes-agree", "cor-n1"), pairs=((3, 2),)))
        link = "certificate link det-formula fails"
        assert not any(c.skipped for c in report.cases)
        assert {(c.spec.theorem, c.spec.s, c.spec.i, c.witness)
                for c in report.cases if not c.passed} == {
            ("main", 1, 3, link), ("det-formula", 1, 3, "1"), ("routes-agree", 1, 3, "1"),
            ("cor-n1", 1, None, link)}
        assert sorted(seen) == [(2, s, i, 3) for s in range(2) for i in range(1, 7)]

    def test_a_budget_skip_is_not_memoized(self, monkeypatch, cold):
        spec = CaseSpec("det-formula", 3, 2, s=1, i=4)
        monkeypatch.setattr(verify, "TERM_BUDGET", 1)
        skipped = run_case(spec)
        monkeypatch.undo()
        rerun = run_case(spec)
        assert (skipped.passed, skipped.skipped) == (False, True)
        assert (rerun.passed, rerun.skipped) == (True, False)

    @pytest.mark.usefixtures("cold")
    def test_cold_and_warm_memos_give_one_report(self):
        # every family at (3, 2), and an exponent overflow that skips inside
        # the determinant memo at i = 28..30
        configs = (GridConfig(pairs=((3, 2),)),
                   GridConfig(theorems=("main", "det-formula", "routes-agree"),
                              pairs=((5, 1),), i_max=30))

        def reports():
            return [strip_timing(report_to_dict(run_grid(config))) for config in configs]

        cold = reports()
        assert reports() == cold
        reasons = [c.get("skip_reason") for report in cold for c in report["cases"]]
        assert sorted(filter(None, reasons)) == sorted(
            f"p**{i} exceeds 2**63" for i in (28, 29, 30) for _ in range(3))

    def test_cold_clears_every_cache(self, request):
        # cold finds every cache of src/dickson, the twelve once listed among them
        listed = {verify._step_holds, verify._roots_hold, verify._det_formula,
                  verify._q0_power, verify._kernel_base, steenrod._L_pow,
                  invariants.y_quotient, invariants.bracket, invariants.dickson_Q,
                  invariants._dickson_row, invariants.R_coef, invariants.P_coef}
        run_grid(GridConfig(d_max=0))
        assert all(cache.cache_info().currsize for cache in listed)
        caches = request.getfixturevalue("cold")
        src = Path(verify.__file__).parent
        assert len(caches) == sum(f.read_text().count("@lru_cache") for f in src.glob("*.py"))
        assert listed <= set(caches)
        assert not any(cache.cache_info().currsize for cache in caches)


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
    with budget():
        passed, flagged, witness = verify._case_st_delta_Q(
            spec, spec.n + k, lambda n, s, i, p: steenrod.corollary_rhs(f"n+{k}", n, s, p))
    if spec.theorem == "cor-n3":
        return True, not passed, witness
    return passed, flagged, witness


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
            with budget():
                got = verify._FAMILIES[spec.theorem].check(spec)
            assert got == x_route(spec), spec
            if got[1]:
                flags.append((spec.p, spec.n, spec.s, got[2]))
        assert flags == [(3, 2, 1, "x1^240*x2^8"), (5, 2, 1, "x1^3120*x2^24"),
                         (3, 3, 1, "x1^720*x2^24*x3^8"), (3, 3, 2, "x1^720*x2^24*x3^2")]

    def test_no_form_is_built_in_x(self, monkeypatch, cold):
        # with cold caches, every link holds and no case assembles a composite
        refuse_x_route(monkeypatch)
        report = run_grid(GridConfig(theorems=COROLLARIES))
        assert report.summary == {"passed": 33, "failed": 0, "skipped": 0}
        assert [(c.spec.p, c.spec.s, c.witness) for c in report.cases if c.flagged] == [
            (3, 1, "x1^240*x2^8"), (5, 1, "x1^3120*x2^24")]

    def test_a_broken_link_fails_without_the_x_route(self, monkeypatch, cold):
        # a broken certificate fails the case, cor-n3 included: only a
        # row's sign is flagged, and the witness names the link
        refuse_x_route(monkeypatch)
        monkeypatch.setattr(verify, "_step_holds", lambda n, left, j, p: False)
        got = [run_case(CaseSpec(theorem, 3, 2, s=s))
               for theorem, s in (("cor-n3", 1), ("cor-n1", 0), ("cor-n3", 0))]
        assert all((r.passed, r.skipped, r.flagged) == (False, False, False) for r in got)
        assert [r.witness for r in got] == [
            "certificate link recursion up to [0..1 without 1, 5] fails",
            "certificate link recursion up to [0..1 without 0, 3] fails",
            "certificate link recursion up to [0..1 without 0, 5] fails"]

    def test_a_dropped_row_term_fails_without_the_x_route(self, monkeypatch, cold):
        refuse_x_route(monkeypatch)
        monkeypatch.setitem(steenrod._COROLLARY_ROWS, "n+2",
                            drop_last_term_of_R(steenrod._COROLLARY_ROWS["n+2"]))
        report = run_grid(GridConfig(theorems=("cor-n2",), pairs=((2, 2), (3, 2))))
        assert len(report.cases) == 4
        for c in report.cases:
            assert (c.passed, c.skipped, c.flagged) == (False, False, False)
            assert c.witness == "certificate link row R fails"

    def test_a_dropped_P_term_past_the_default_grid_fails(self, monkeypatch, cold):
        # Q_{n,s-3}**(p**2), the first term of the n+3 row, enters P only at
        # s >= 3, which the default grid (n <= 3) never reaches.  Dropped
        # from P, it fails the row check at s = 3 alone, at the default
        # budget and without the x route, where the main form at (3,4,3)
        # would be a product of 24 by 1,233,604 terms.  s = 1 and s = 2
        # keep their flags.
        refuse_x_route(monkeypatch)
        monkeypatch.setitem(steenrod._COROLLARY_ROWS, "n+3",
                            drop_term(steenrod._COROLLARY_ROWS["n+3"], 0, in_R=False))
        got = [run_case(CaseSpec("cor-n3", 2, 4, s=s)) for s in range(4)]
        assert [(r.passed, r.skipped, r.flagged) for r in got] == \
            [(True, False, False)] * 3 + [(False, False, False)]
        assert got[3].witness == "certificate link row P fails"
        got = [run_case(CaseSpec("cor-n3", 3, 4, s=s)) for s in range(4)]
        assert [(r.passed, r.skipped, r.flagged, r.witness) for r in got] == [
            (True, False, False, None),
            (True, False, True, "x1^2160*x2^72*x3^24*x4^8"),
            (True, False, True, "x1^2160*x2^72*x3^24*x4^2"),
            (False, False, False, "certificate link row P fails")]

    def test_every_quotient_read_is_proven(self, monkeypatch, cold):
        # link 2 proves y_quotient(n, left, j) for every j <= top at each
        # _quotients_proven(n, left, top) it calls; link 4 and the row check
        # read y_quotient only where a call of the same case proved it
        proven, read, proving = [], [], []
        real_proven, real_y = verify._quotients_proven, verify.y_quotient

        def prove(n, left, top, p):
            proven.append((left, top))
            proving.append(True)
            try:
                return real_proven(n, left, top, p)
            finally:
                proving.pop()

        def y(n, left, j, p):
            if not proving:
                read.append((left, j))
            return real_y(n, left, j, p)

        monkeypatch.setattr(verify, "_quotients_proven", prove)
        monkeypatch.setattr(verify, "y_quotient", y)
        specs = grid_cases(GridConfig(theorems=("main",) + COROLLARIES))
        assert len(specs) == 67 + 33
        for spec in specs:
            proven.clear()
            read.clear()
            assert run_case(spec).passed, spec
            assert read, spec
            for left, j in read:
                assert any(l == left and top >= j for l, top in proven), (spec, left, j)


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

    @pytest.mark.parametrize("config", [
        GridConfig(),
        GridConfig(theorems=("main",), pairs=((5, 1),), i_max=30),
        small_config(inject_failure=True),
        GridConfig(theorems=("cor-n3",), pairs=((3, 2),)),
        None,
    ], ids=["default grid", "skips", "injected failure", "flag", "empty"])
    def test_json_is_the_indented_dump(self, config):
        # the cases go through the C encoder, the rest through indent=2
        if config is None:
            report = verify.Report(version="0", sign_flag=1, seed=0, cases=())
        else:
            report = run_grid(config)
            assert report.cases
        want = json.dumps(report_to_dict(report), sort_keys=True, indent=2) + "\n"
        assert emit_report(report, "json") == want

    def test_text_layout(self):
        report = run_grid(small_config(inject_failure=True))
        lines = emit_report(report, "text").splitlines()
        assert lines[0].startswith("identity verification, version")
        assert lines[1] == "sign flag +1, seed 0"
        assert any(" FAIL " in line and line.endswith("1") for line in lines)
        assert lines[-4:] == ["PASSED: 1", "FLAGGED: 0", "SKIPPED: 0", "FAILED: 1"]

    @pytest.mark.parametrize("config", [
        GridConfig(theorems=("hilbert",), pairs=((2, 1),), d_max=1000),
        GridConfig(theorems=("q0-power",), pairs=((2147483647, 1),), inject_failure=True),
    ], ids=["d=1000", "p=2147483647"])
    def test_text_columns_line_up_with_the_header(self, config):
        lines = emit_report(run_grid(config), "text").splitlines()
        header = lines[3]
        column = header.index("status")
        rows = lines[4:lines.index("", 4)]
        assert len(rows) == len(grid_cases(config))
        for row in rows:
            assert row[column:column + 4] in ("pass", "FAIL", "skip", "flag"), (header, row)

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
        ["--theorem", "det-formula", "--p", "2", "--n", "1", "--i-max", "63"],
    ])
    def test_usage_errors(self, argv):
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == 2

    def test_no_budget_variable_is_read(self, monkeypatch, capsys):
        # the budget is fixed: a variable that once set it changes nothing
        monkeypatch.setenv("DICKSON_TERM_BUDGET", "zero")
        assert main(["--theorem", "q0-power", "--p", "2", "--n", "2"]) == 0
        assert "PASSED: 1" in capsys.readouterr().out.splitlines()

    @pytest.mark.parametrize("argv", [
        ["--theorem", "hilbert", "--p", "2", "--n", "1", "--d-max", "100000000"],
        ["--theorem", "smith-switzer", "--p", "2", "--n", "3000000"],
    ], ids=["hilbert", "smith-switzer"])
    def test_a_grid_too_large_to_list_is_a_usage_error(self, argv):
        # refused while it is counted, before anything is listed or run
        proc = run_capped("-m", "dickson", *argv)
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr.rstrip().endswith(
            "error: the grid has more than 1000000 cases"), proc.stderr

    def test_dimension_counts_past_the_stack_skip(self, capsys):
        # listing the exponents of 5,000 variables recurses 5,000 deep: each
        # case skips with one reason, whatever the Python version's message
        rc = main(["--theorem", "hilbert", "--p", "2", "--n", "5000", "--d-max", "2"])
        assert rc == 0
        lines = capsys.readouterr().out.splitlines()
        assert "SKIPPED: 3" in lines
        assert sum(line.endswith("  recursion too deep") for line in lines) == 3

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
            self, monkeypatch, cold, tmp_path, capsys):
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

    def test_tiny_term_budget_skips(self, monkeypatch, cold, capsys):
        # as in a fresh process: Dickson's recursion asks about its first product
        monkeypatch.setattr(verify, "TERM_BUDGET", 1)
        rc = main(["--theorem", "q0-power", "--p", "2", "--n", "2",
                   "--format", "json"])
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
