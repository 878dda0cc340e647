"""Verification grid plumbing: case dispatch, reports, determinism, CLI."""
import json
from collections import Counter

import pytest

from dickson import fp_poly, invariants, steenrod, verify
from dickson.cli import main
from dickson.fp_poly import parse_poly, poly_scale
from dickson.invariants import P_coef, R_coef, case_budget, recursion_rhs
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
        # the (2,3) case checks each (prefix, e) of the box once: prefix
        # entries 0..3, e <= 2, 48 instances; and the e = 3 instances of the
        # prefixes 0..2 with one entry left out, which R_coef and P_coef use
        # at i = n + 4
        checked = []

        def spy(n, prefix, e, p):
            checked.append((n, prefix, e, p))
            return recursion_rhs(n, prefix, e, p)

        monkeypatch.setattr(verify, "recursion_rhs", spy)
        assert run_case(CaseSpec(theorem="recursion", p=2, n=3)).passed
        box = [(3, (a, b), e, 2) for a in range(4) for b in range(4) for e in range(3)]
        box += [(3, prefix, 3, 2) for prefix in ((0, 1), (0, 2), (1, 2))]
        assert sorted(checked) == sorted(box)
        # no case depends on the seed
        a, b = (strip_timing(report_to_dict(run_grid(GridConfig(
            theorems=("recursion", "hilbert"), pairs=((2, 3), (3, 2)), d_max=8,
            seed=seed)))) for seed in (1, 2))
        assert (a.pop("seed"), b.pop("seed")) == (1, 2)
        assert a == b

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
        r = run_case(CaseSpec(theorem="q0-power", p=2, n=2), term_budget=1)
        assert r.skipped and not r.passed
        assert r.skip_reason == "2 terms exceed the budget 1"

    def test_time_budget_skips(self):
        r = run_case(CaseSpec(theorem="hilbert", p=2, n=2, d=20), time_budget=0.0)
        assert r.skipped
        assert r.skip_reason == "time budget exceeded"

    def test_quotient_recursion_stops_before_a_wide_product(self, monkeypatch):
        # R_coef(2, 15, 3) would build a 2,391,484-term quotient; under a
        # budget of 10**6 the recursion stops before any product has more
        # term pairs than that.  routes-agree builds it through
        # st_delta_via_main; main decides the case by its certificate (below)
        R_coef.cache_clear()
        P_coef.cache_clear()
        pairs = []
        mul = fp_poly.poly_mul

        def spy(f, g):
            pairs.append(len(f.terms) * len(g.terms))
            return mul(f, g)

        for module in (fp_poly, invariants, steenrod, verify):
            monkeypatch.setattr(module, "poly_mul", spy)
        try:
            r = run_case(CaseSpec("routes-agree", 3, 2, s=1, i=15), term_budget=10 ** 6)
        finally:
            R_coef.cache_clear()
            P_coef.cache_clear()
        assert r.skipped and not r.passed
        assert r.skip_reason == "a product of 265720 by 4 terms exceeds the budget 1000000"
        assert pairs and max(pairs) <= 10 ** 6
        assert case_budget.get() is None

    def test_main_form_stops_before_a_wide_product(self, monkeypatch):
        # with the first term of the n+3 row's Rhat dropped, cor-n3 at
        # (5,3,1) runs the x route for its witness; the main form's last
        # product, L_n**(p-2) by the wide sum, would be 9,252,792 term pairs
        real = steenrod._COROLLARY_ROWS["n+3"]

        def broken(q, n, s):
            rr, pp, sign = real(q, n, s)
            return fp_poly.poly_sub(rr, q(n - 3, 2)), pp, sign

        monkeypatch.setitem(steenrod._COROLLARY_ROWS, "n+3", broken)
        pairs = []
        mul = fp_poly.poly_mul

        def spy(f, g):
            pairs.append(len(f.terms) * len(g.terms))
            return mul(f, g)

        for module in (fp_poly, invariants, steenrod, verify):
            monkeypatch.setattr(module, "poly_mul", spy)
        r = run_case(CaseSpec("cor-n3", 5, 3, s=1), term_budget=10 ** 6)
        assert r.skipped and not r.passed
        assert r.skip_reason == "a product of 54 by 171348 terms exceeds the budget 1000000"
        assert pairs and max(pairs) <= 10 ** 6
        assert case_budget.get() is None

    def test_main_passes_where_the_x_route_runs_over_budget(self):
        # the certificate keeps R_{2,15} in the Dickson coordinates, 377 terms
        r = run_case(CaseSpec("main", 3, 2, s=1, i=15), term_budget=10 ** 6)
        assert r.passed and not r.skipped and r.witness is None

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

    def test_each_instance_is_checked_once(self, monkeypatch):
        calls = []

        def spy(n, prefix, e, p):
            calls.append((n, prefix, e, p))
            return recursion_rhs(n, prefix, e, p)

        verify._step_holds.cache_clear()
        monkeypatch.setattr(verify, "recursion_rhs", spy)
        try:
            for _ in range(2):
                run_grid(GridConfig(theorems=("main",), pairs=((5, 2),)))
        finally:
            verify._step_holds.cache_clear()
        assert len(calls) == len(set(calls))
        # the prefixes (1,) and (0,), each up to e = 6 - 2
        assert sorted(calls) == sorted(
            (2, prefix, e, 5) for prefix in ((0,), (1,)) for e in range(5))

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
    for cached in (verify._step_holds, invariants.y_quotient, invariants.bracket,
                   invariants.dickson_Q, invariants._dickson_row,
                   invariants.R_coef, invariants.P_coef):
        cached.cache_clear()


def drop_last_term_of_R(row):
    # the n+2 row without the Q_{n,n-2}**p term of its R
    def dropped(q, n, s):
        _, pp, sign = row(q, n, s)
        return fp_poly.poly_mul(q(n - 1), q(n - 1, 1)), pp, sign
    return dropped


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
        monkeypatch.setenv("DICKSON_TERM_BUDGET", "1")
        rc = main(["--theorem", "q0-power", "--p", "2", "--n", "2",
                   "--format", "json"])
        assert rc == 0  # skipped cases do not fail the run
        data = json.loads(capsys.readouterr().out)
        assert data["summary"] == {"passed": 0, "failed": 0, "skipped": 1}
        assert data["cases"][0]["skip_reason"] == "2 terms exceed the budget 1"

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
