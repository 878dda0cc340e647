"""Bracket determinants, Dickson invariants, GL machinery, dimension counts."""
import math
import os
import random
import subprocess
import sys
from functools import lru_cache
from itertools import permutations, product

import pytest

from dickson import fp_poly, invariants
from dickson.fp_poly import (
    Poly,
    format_poly,
    frobenius,
    grevlex_key,
    parse_poly,
    poly_add,
    poly_mul,
    poly_one,
    poly_pow,
    poly_scale,
    poly_sub,
    poly_var,
    poly_zero,
)
from dickson.invariants import (
    _P_bracket,
    _pair_image,
    _transvection_image,
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
from dickson.steenrod import _COROLLARY_ROWS, _read_row, corollary_rhs, st_delta

from substitution import closure, generator_matrices, identity, mat_mul, substitute_linear

GRID = [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (5, 2)]


def monomials(n, d):
    return [m for m in product(range(d + 1), repeat=n) if sum(m) == d]


def rank_mod_p(rows, p):
    """Rank over F_p of sparse rows (dicts), by dense Gauss-Jordan elimination."""
    keys = sorted({k for row in rows for k in row})
    mat = [[row.get(k, 0) for k in keys] for row in rows]
    rank = 0
    for col in range(len(keys)):
        piv = next((r for r in range(rank, len(mat)) if mat[r][col]), None)
        if piv is None:
            continue
        mat[rank], mat[piv] = mat[piv], mat[rank]
        inv = pow(mat[rank][col], p - 2, p)
        mat[rank] = [x * inv % p for x in mat[rank]]
        for r in range(len(mat)):
            if r != rank and mat[r][col]:
                f = mat[r][col]
                mat[r] = [(x - f * y) % p for x, y in zip(mat[r], mat[rank])]
        rank += 1
    return rank


def joint_kernel_dimension(n, p, d):
    """Reference for invariant_space_dimension on the full degree-d basis:
    the kernel of m -> (M(m) - m for every M in generator_matrices)."""
    rows = []
    for m in monomials(n, d):
        mono = Poly(n, p, {m: 1})
        row = {}
        for k, mat in enumerate(generator_matrices(n, p)):
            image = substitute_linear(mono, mat) - mono
            row.update(((k, mm), c) for mm, c in image.terms.items())
        rows.append(row)
    return len(rows) - rank_mod_p(rows, p)


def leibniz(n, es, p):
    """det(xj ** p**ei) expanded over all permutations, with the sign of
    each counted from its inversions."""
    terms = {}
    for sigma in permutations(range(n)):
        inversions = sum(sigma[a] > sigma[b] for a in range(n) for b in range(a + 1, n))
        m = [0] * n
        for row, col in enumerate(sigma):
            m[col] = p ** es[row]
        terms[tuple(m)] = terms.get(tuple(m), 0) + (-1) ** inversions
    return Poly(n, p, terms)


class TestBracket:
    def test_rank_one(self):
        assert bracket(1, (0,), 3) == poly_var(1, 1, 3)
        assert bracket(1, (2,), 3) == parse_poly("x1^9", 1, 3)

    def test_rank_two_frozen(self):
        assert bracket(2, (0, 1), 2) == parse_poly("x1^2*x2 + x1*x2^2", 2, 2)
        # det [[x1, x2], [x1^3, x2^3]] = x1*x2^3 - x1^3*x2
        assert bracket(2, (0, 1), 3) == parse_poly("2*x1^3*x2 + x1*x2^3", 2, 3)
        assert bracket(2, (0, 2), 2) == parse_poly("x1^4*x2 + x1*x2^4", 2, 2)

    def test_antisymmetry_and_repeats(self):
        b = bracket(2, (0, 2), 3)
        assert bracket(2, (2, 0), 3) == poly_scale(b, 2)
        assert bracket(2, (1, 1), 3).is_zero()
        assert bracket(3, (0, 2, 0), 5).is_zero()

    def test_three_rows_cyclic(self):
        b = bracket(3, (0, 1, 2), 5)
        # a 3-cycle is even, two swaps
        assert bracket(3, (1, 2, 0), 5) == b
        assert bracket(3, (1, 0, 2), 5) == poly_scale(b, 4)

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_matches_the_leibniz_expansion(self, p):
        # every sequence of n <= 4 entries in 0..4, repeats included
        for n in range(1, 5):
            for es in product(range(5), repeat=n):
                assert bracket(n, es, p) == leibniz(n, es, p), es

    def test_validation(self):
        with pytest.raises(ValueError):
            bracket(2, (0,), 3)
        with pytest.raises(ValueError):
            bracket(2, (0, -1), 3)
        with pytest.raises(OverflowError):
            bracket(1, (70,), 3)

    def test_degree_limit(self):
        # rows of degree 1 + 1 + 1 + 4 + .. + 2**62 = 2**63 - 1 pass (a
        # repeated row: zero); 1 + 1 + 2 + .. + 2**62 = 2**63 raises
        assert bracket(64, (0, 0, 0) + tuple(range(2, 63)), 2) == poly_zero(64, 2)
        with pytest.raises(OverflowError, match="bracket degree"):
            bracket(64, (0, 0, 1) + tuple(range(2, 63)), 2)
        # one row of degree 2**63 raises at its own check, which names it
        assert bracket(1, (62,), 2) == Poly(1, 2, {(2 ** 62,): 1})
        with pytest.raises(OverflowError, match=r"p\*\*63 exceeds"):
            bracket(1, (63,), 2)

    def test_asks_the_case_budget_before_building(self, monkeypatch, cold):
        # the n! terms are asked about before the permutations are read; a
        # zero bracket (a repeated row) builds no term and asks nothing
        asked = []

        class Refuse:
            def before_terms(self, *counts):
                asked.append(counts)
                raise RuntimeError("refused")

        def unread(n):
            raise AssertionError("the permutations were read before the ask")

        monkeypatch.setattr(invariants, "_signed_permutations", unread)
        token = fp_poly.case_budget.set(Refuse())
        try:
            with pytest.raises(RuntimeError, match="refused"):
                bracket.__wrapped__(5, (0, 1, 2, 3, 7), 3)
            assert bracket.__wrapped__(5, (0, 1, 2, 3, 3), 3).is_zero()
        finally:
            fp_poly.case_budget.reset(token)
        assert asked == [(120,)]

    def test_l_series(self):
        assert L(2, 2, 2) == bracket(2, (0, 1), 2)
        assert L(2, 0, 3) == bracket(2, (1, 2), 3)
        assert L(3, 1, 2) == bracket(3, (0, 2, 3), 2)
        with pytest.raises(ValueError):
            L(2, 3, 2)


class TestDicksonQ:
    def test_frozen_p2(self):
        assert dickson_Q(2, 0, 2) == parse_poly("x1^2*x2 + x1*x2^2", 2, 2)
        assert dickson_Q(2, 1, 2) == parse_poly("x1^2 + x1*x2 + x2^2", 2, 2)

    def test_frozen_p3(self):
        assert dickson_Q(2, 1, 3) == parse_poly(
            "x1^6 + x1^4*x2^2 + x1^2*x2^4 + x2^6", 2, 3)
        assert dickson_Q(2, 0, 3) == parse_poly(
            "x1^6*x2^2 + x1^4*x2^4 + x1^2*x2^6", 2, 3)

    def test_rank_one(self):
        # single variable: Q_{1,0} = x1^(p-1)
        assert dickson_Q(1, 0, 2) == poly_var(1, 1, 2)
        assert dickson_Q(1, 0, 5) == parse_poly("x1^4", 1, 5)

    def test_conventions(self):
        assert dickson_Q(2, -1, 3).is_zero()
        assert dickson_Q(2, -5, 3).is_zero()
        assert dickson_Q(2, 2, 3) == poly_one(2, 3)
        with pytest.raises(ValueError):
            dickson_Q(2, 3, 3)
        with pytest.raises(ValueError):
            dickson_Q(0, 0, 3)

    @pytest.mark.parametrize("p,n", GRID)
    def test_degree_law(self, p, n):
        for s in range(n):
            assert dickson_Q(n, s, p).degree() == p ** n - p ** s

    @pytest.mark.parametrize("p,n", GRID)
    def test_q0_is_power_of_base_bracket(self, p, n):
        assert dickson_Q(n, 0, p) == poly_pow(L(n, n, p), p - 1)

    def test_quotient_reconstructs_bracket(self):
        # Q_{n,s} is defined as L(n, s) / L_n and built by Dickson's recursion
        for (p, n) in [(2, 2), (3, 2), (2, 3), (3, 3), (5, 3), (7, 3), (2, 4), (3, 4), (2, 5)]:
            for s in range(n):
                assert poly_mul(dickson_Q(n, s, p), L(n, n, p)) == L(n, s, p)


def at_Q(f, p):
    """The image of a polynomial in y_0..y_{n-1} under y_t -> Q_{n,t}."""
    n = f.n
    total = poly_zero(n, p)
    for m, c in f.terms.items():
        term = poly_scale(poly_one(n, p), c)
        for t, a in enumerate(m):
            term = poly_mul(term, poly_pow(dickson_Q(n, t, p), a))
        total = poly_add(total, term)
    return total


class TestDicksonQRow:
    def test_one_recursion_per_pair(self, monkeypatch, cold):
        # all n invariants of a (p, n) come from one run of the recursion
        row = invariants._dickson_row.__wrapped__
        built = []

        def build(n, p):
            built.append((n, p))
            return row(n, p)

        monkeypatch.setattr(invariants, "_dickson_row", lru_cache(build))
        qs = [dickson_Q.__wrapped__(3, s, 7) for s in range(3)]
        assert built == [(3, 7)]
        assert qs == [dickson_Q(3, s, 7) for s in range(3)]


class TestDicksonCoordinates:
    def test_base_cases(self):
        # [0..n-1 without left, left] is L_n after n-1-left row swaps; the x
        # views R_coef (left = n-1) and P_coef (left = s-1) share the rule
        for n, p in [(2, 3), (3, 5), (4, 2)]:
            for left in range(n):
                for j in range(n):
                    want = poly_scale(poly_one(n, p), (-1) ** (n - 1 - left) % p)
                    want = want if j == left else poly_zero(n, p)
                    assert y_quotient(n, left, j, p) == want
                    if left == n - 1:
                        assert R_coef(n, j + 1, p) == want
                    else:
                        assert P_coef(n, j + 1, left + 1, p) == want
                    assert P_coef(n, j + 1, 0, p).is_zero()

    @pytest.mark.parametrize("p,n", [(2, 2), (3, 2), (5, 2), (2, 3)])
    def test_rows_read_in_y_map_to_the_rows_read_in_x(self, p, n):
        for which in _COROLLARY_ROWS:
            for s in range(n):
                in_y = _read_row(which, n, s, p, lambda t: poly_var(t + 1, n, p))
                in_x = _read_row(which, n, s, p, lambda t: dickson_Q(n, t, p))
                assert (at_Q(in_y[0], p), at_Q(in_y[1], p), in_y[2]) == in_x

    @pytest.mark.parametrize("p,n,i_top", [
        (2, 2, 6), (3, 2, 6), (5, 2, 6), (2, 3, 7), (3, 3, 6), (2, 4, 6),
    ])
    def test_image_is_R_and_P(self, p, n, i_top):
        for i in range(1, i_top + 1):
            assert at_Q(y_quotient(n, n - 1, i - 1, p), p) == R_coef(n, i, p)
            for s in range(1, n):
                assert at_Q(y_quotient(n, s - 1, i - 1, p), p) == P_coef(n, i, s, p)

    @pytest.mark.parametrize("p,n", [(3, 2), (2, 3)])
    def test_image_times_base_bracket_is_the_bracket(self, p, n):
        for left in range(n):
            prefix = tuple(k for k in range(n) if k != left)
            for j in range(n + 4):
                assert poly_mul(L(n, n, p), at_Q(y_quotient(n, left, j, p), p)) == \
                    bracket(n, prefix + (j,), p)

    def test_pinned_row_past_the_tables(self):
        # R_{2,6} at p = 3, printed by demo 03: y_t stands for Q_{2,t}
        assert y_quotient(2, 1, 5, 3) == parse_poly(
            "x2^40 + 2*x1^3*x2^36 + 2*x1^9*x2^28 + 2*x1^27*x2^4 + x1^30", 2, 3)

    def test_pinned_cor_n3_gap(self):
        # the i = n + 3 composite as tabulated minus the action, at
        # (p, n, s) = (3, 2, 1): 2 (-1)**n y_0 Phat**p, printed by demo 03
        phat = y_quotient(2, 0, 4, 3)
        gap = poly_scale(poly_mul(poly_var(1, 2, 3), frobenius(phat, 1)), 2)
        assert gap == parse_poly("2*x1^4*x2^36 + x1^31", 2, 3)
        assert at_Q(gap, 3) == poly_sub(
            corollary_rhs("n+3", 2, 1, 3), st_delta(dickson_Q(2, 1, 3), 5))

    def test_far_smaller_than_in_x(self):
        assert len(y_quotient(2, 1, 14, 3).terms) == 377

    def test_validation(self):
        for args in [(2, 2, 3, 3), (2, -1, 3, 3), (2, 0, -1, 3), (2, 0, 3, 4)]:
            with pytest.raises(ValueError):
                y_quotient(*args)


class TestCoefficientQuotients:
    def test_p_vanishes_at_s0(self):
        assert P_coef(2, 5, 0, 3).is_zero()
        assert P_coef(3, 1, 0, 2).is_zero()

    @pytest.mark.parametrize("p,n", [(2, 2), (2, 3), (3, 2), (5, 2)])
    def test_p_low_range(self, p, n):
        # within 1..n the bracket either rebuilds the base bracket (i = s,
        # costing n-s row moves) or repeats a row
        for s in range(1, n):
            for i in range(1, n + 1):
                val = P_coef(n, i, s, p)
                if i == s:
                    sign = 1 if (n - s) % 2 == 0 else p - 1
                    assert val == poly_scale(poly_one(n, p), sign)
                else:
                    assert val.is_zero()

    @pytest.mark.parametrize("p,n", [(2, 2), (2, 3), (3, 2), (5, 2)])
    def test_r_low_range(self, p, n):
        for i in range(1, n):
            assert R_coef(n, i, p).is_zero()
        assert R_coef(n, n, p) == poly_one(n, p)

    @pytest.mark.parametrize("p,n", [(2, 2), (2, 3), (3, 2), (5, 2)])
    def test_first_step_up(self, p, n):
        assert R_coef(n, n + 1, p) == dickson_Q(n, n - 1, p)
        for s in range(1, n):
            assert P_coef(n, n + 1, s, p) == dickson_Q(n, s - 1, p)

    @pytest.mark.parametrize("p,n", [(2, 2), (2, 3), (3, 2), (5, 2)])
    def test_second_step_up(self, p, n):
        def q(t):
            return dickson_Q(n, t, p)

        def fr(f, e):
            return poly_pow(f, p ** e)

        want_r = poly_mul(q(n - 1), fr(q(n - 1), 1)) - fr(q(n - 2), 1)
        assert R_coef(n, n + 2, p) == want_r
        for s in range(1, n):
            want_p = poly_mul(q(s - 1), fr(q(n - 1), 1)) - fr(q(s - 2), 1)
            assert P_coef(n, n + 2, s, p) == want_p

    def test_frozen_values(self):
        # [1, 2] is the Frobenius of the base bracket, so the quotient is Q_{2,0}
        assert P_coef(2, 3, 1, 3) == dickson_Q(2, 0, 3)
        assert R_coef(2, 3, 3) == dickson_Q(2, 1, 3)

    def test_degrees(self):
        for (p, n, i, s) in [(3, 2, 4, 1), (2, 3, 5, 2), (5, 2, 3, 1)]:
            assert P_coef(n, i, s, p).degree() == p ** (i - 1) - p ** (s - 1)
            assert R_coef(n, i, p).degree() == p ** (i - 1) - p ** (n - 1)

    @pytest.mark.parametrize("p,n,i_top", [
        (2, 2, 6), (3, 2, 6), (5, 2, 6), (2, 3, 7), (3, 3, 6), (2, 4, 6),
    ])
    def test_recursion_gives_the_exact_quotients(self, p, n, i_top):
        # built by the divided recursion, each times L_n is its bracket
        base = L(n, n, p)
        for i in range(1, i_top + 1):
            r_bracket = bracket(n, tuple(range(n - 1)) + (i - 1,), p)
            assert poly_mul(base, R_coef(n, i, p)) == r_bracket
            for s in range(n):
                assert poly_mul(base, P_coef(n, i, s, p)) == _P_bracket(n, i, s, p)

    def test_recursion_asks_about_every_product_before_forming_any(self, dot_spy):
        # R_coef(3, 7, 3) sums three products of R_coef(3, 4..6, 3) by
        # Frobenius images of Q_{3,t}; the budget refuses the third
        lows = [R_coef(3, j, 3) for j in (4, 5, 6)]
        qs = [dickson_Q(3, t, 3) for t in range(3)]
        dot_spy.pairs.clear()
        asked = []

        class Refuse:
            def before_product(self, f_terms, g_terms):
                asked.append((f_terms, g_terms))
                if len(asked) == 3:
                    raise RuntimeError("refused")

        token = fp_poly.case_budget.set(Refuse())
        try:
            with pytest.raises(RuntimeError):
                R_coef.__wrapped__(3, 7, 3)
        finally:
            fp_poly.case_budget.reset(token)
        assert asked == [(len(low.terms), len(q.terms)) for low, q in zip(lows, qs)]
        assert dot_spy.pairs == []

    def test_validation(self):
        with pytest.raises(ValueError):
            P_coef(2, 3, 2, 3)
        with pytest.raises(ValueError):
            P_coef(2, 0, 1, 3)
        with pytest.raises(ValueError):
            R_coef(2, 0, 3)


class TestRecursion:
    @pytest.mark.parametrize("p,n", GRID)
    def test_seeded_cases(self, p, n):
        rng = random.Random(1000 + 10 * p + n)
        for _ in range(25):
            prefix = tuple(rng.randint(0, 3) for _ in range(n - 1))
            e = rng.randint(0, 2)
            assert bracket(n, prefix + (e + n,), p) == recursion_rhs(n, prefix, e, p)

    def test_fixed_case(self):
        # [0, 3] = Q_{2,1} [0, 1]^p ... spelled out at p = 2:
        # bracket(0,3) = Q0 (x-degree p) term + Q1 bracket(0,2) pattern
        lhs = bracket(2, (0, 3), 2)
        rhs = recursion_rhs(2, (0,), 1, 2)
        assert lhs == rhs
        assert not lhs.is_zero()

    def test_asks_about_every_product_before_forming_any(self, dot_spy):
        # [0, 2, 1 + 3] at p = 3: the lows [0, 2, 1 + t] are zero at t = 1
        # (a repeated row), so two products are asked about and none formed
        lows = [bracket(3, (0, 2, 1 + t), 3) for t in range(3)]
        qs = [dickson_Q(3, t, 3) for t in range(3)]
        dot_spy.pairs.clear()
        asked = []

        class Refuse:
            def before_product(self, f_terms, g_terms):
                asked.append((f_terms, g_terms))
                if len(asked) == 2:
                    raise RuntimeError("refused")

        token = fp_poly.case_budget.set(Refuse())
        try:
            with pytest.raises(RuntimeError):
                recursion_rhs(3, (0, 2), 1, 3)
        finally:
            fp_poly.case_budget.reset(token)
        assert asked == [(len(lows[t].terms), len(qs[t].terms)) for t in (0, 2)]
        assert dot_spy.pairs == []

    def test_validation(self):
        with pytest.raises(ValueError):
            recursion_rhs(2, (0, 1), 1, 3)
        with pytest.raises(ValueError):
            recursion_rhs(2, (0,), -1, 3)


class TestGLGroup:
    def test_orders(self):
        # the orders of GL(n, F_p), reached by the closure of the generators
        assert len(closure(1, 2)) == 1
        assert len(closure(1, 3)) == 2
        assert len(closure(2, 2)) == 6
        assert len(closure(2, 3)) == 48
        assert len(closure(3, 2)) == 168
        assert len(closure(2, 5)) == 480

    def test_generator_counts(self):
        assert len(generator_actions(1, 2)) == 0
        assert len(generator_actions(1, 3)) == 1
        assert len(generator_actions(2, 2)) == 2
        assert len(generator_actions(2, 3)) == 3
        assert len(generator_actions(3, 2)) == 2
        assert len(generator_actions(3, 3)) == 3
        assert len(generator_actions(4, 2)) == 2

    def test_generators_pinned(self):
        # the dimension oracle hard-codes these cases: I + E_12 exactly when
        # n >= 2, the n-cycle, and the diagonal diag(g, 1, .., 1) (the
        # identity at p = 2, so left out); each row is one generator's
        # images of x1..xn, the columns of its matrix
        def images(n, p):
            return tuple(tuple(format_poly(act(poly_var(j, n, p))) for j in range(1, n + 1))
                         for act in generator_actions(n, p))

        t2, c2 = ("x1", "x1 + x2"), ("x2", "x1")
        t3, c3 = ("x1", "x1 + x2", "x3"), ("x3", "x1", "x2")
        assert images(1, 2) == ()
        assert images(1, 3) == (("2*x1",),)
        assert images(2, 2) == (t2, c2)
        assert images(2, 3) == (t2, c2, ("2*x1", "x2"))
        assert images(3, 2) == (t3, c3)
        assert images(3, 3) == (t3, c3, ("2*x1", "x2", "x3"))
        assert images(2, 5) == (t2, c2, ("2*x1", "x2"))
        assert images(2, 7) == (t2, c2, ("3*x1", "x2"))

    def test_generators_invertible(self):
        # each generator has an inverse among the products of the generators
        for (p, n) in [(2, 2), (3, 2), (5, 2), (2, 3), (3, 1)]:
            group = closure(n, p)
            for g in generator_matrices(n, p):
                assert any(mat_mul(g, h, p) == identity(n) for h in group)

    @pytest.mark.parametrize("p,n", [(2, 2), (3, 2), (2, 3), (5, 2), (3, 3), (2, 1), (3, 1)])
    def test_generators_span_group(self, p, n):
        # closure of the generating set under products is the whole group
        assert len(closure(n, p)) == math.prod(p ** n - p ** k for k in range(n))


class TestInvariance:
    @pytest.mark.parametrize("p,n", GRID)
    def test_dickson_generators_invariant(self, p, n):
        for s in range(n):
            assert is_invariant(dickson_Q(n, s, p))

    def test_non_invariants(self):
        assert not is_invariant(poly_var(1, 2, 2))
        assert not is_invariant(poly_var(1, 2, 3))
        assert not is_invariant(parse_poly("x1^2 + x1*x2", 2, 2))

    def test_base_bracket_detects_determinant(self):
        # det is identically 1 over F_2, so the base bracket is invariant
        # there; at odd p it picks up the determinant character
        assert is_invariant(L(3, 3, 2))
        assert is_invariant(L(2, 2, 2))
        assert not is_invariant(L(2, 2, 3))
        assert not is_invariant(L(2, 2, 5))
        assert is_invariant(poly_pow(L(2, 2, 3), 2))

    def test_constants_invariant(self):
        assert is_invariant(poly_one(2, 3))
        assert is_invariant(poly_zero(2, 3))

    def test_full_group_agrees_with_generators(self):
        # generator invariance is invariance under every element of the
        # closure: 6, 48 and 168 of them
        for p, n in [(2, 2), (3, 2), (2, 3)]:
            group = closure(n, p)
            for s in range(n):
                f = dickson_Q(n, s, p)
                assert is_invariant(f)
                assert all(substitute_linear(f, m) == f for m in group), (p, n, s)
        # L_n picks up the determinant, so some element of GL(n, F_3) moves it
        for n in (1, 2, 3):
            f = L(n, n, 3)
            assert not is_invariant(f)
            assert any(substitute_linear(f, m) != f for m in closure(n, 3))


# Every Q_{n,s} of these (p, n) meets the actions in the tests below.
ACTION_PAIRS = [(2, 1), (3, 1), (5, 1), (2, 2), (3, 2), (5, 2), (2, 3), (3, 3),
                (5, 3), (7, 3), (2, 4), (3, 4), (2, 5)]


class TestGeneratorActions:
    """The closed-form actions against substitution by their matrices,
    read off their images of x1..xn, generator by generator."""

    @staticmethod
    def assert_substitutions(f):
        for act, mat in zip(generator_actions(f.n, f.p), generator_matrices(f.n, f.p)):
            assert act(f) == substitute_linear(f, mat), mat

    @pytest.mark.parametrize("p,n", ACTION_PAIRS)
    def test_on_every_Q(self, p, n):
        for s in range(n):
            self.assert_substitutions(dickson_Q(n, s, p))

    @pytest.mark.parametrize("p,n", [(2, 1), (3, 1), (2, 2), (3, 2), (5, 2), (7, 2),
                                     (2, 3), (3, 3), (5, 3), (2, 4), (3, 4)])
    def test_on_random_polynomials(self, p, n):
        rng = random.Random(100 * p + n)
        for _ in range(25):
            f = Poly(n, p, {tuple(rng.randrange(12) for _ in range(n)): rng.randrange(1, p)
                            for _ in range(rng.randint(0, 8))})
            self.assert_substitutions(f)

    @pytest.mark.parametrize("p,n", [(2, 3), (3, 3), (5, 3), (2, 4)])
    def test_on_a_Q_with_one_coefficient_changed(self, p, n):
        for s in range(n):
            q = dickson_Q(n, s, p)
            m = max(q.terms, key=grevlex_key)
            changed = Poly(n, p, {**q.terms, m: q.terms[m] + 1})
            self.assert_substitutions(changed)
            assert not is_invariant(changed)

    def test_the_cycle_is_not_its_inverse(self):
        # C sends xj to x(j-1): x1 x2^2 goes to x3 x1^2, not to x2 x3^2
        f = parse_poly("x1*x2^2", 3, 3)
        assert generator_actions(3, 3)[1](f) == parse_poly("x1^2*x3", 3, 3)

    def test_validation(self):
        assert generator_actions(1, 2) == ()
        with pytest.raises(ValueError):
            generator_actions(0, 3)
        with pytest.raises(ValueError):
            generator_actions(2, 4)


class TestDimensions:
    def test_frozen_small_values(self):
        # generators in rank 2 at p = 2 sit in degrees 2 and 3
        dims = [invariant_space_dimension(2, 2, d) for d in range(11)]
        assert dims == [1, 0, 1, 1, 1, 1, 2, 1, 2, 2, 2]

    def test_rank_one(self):
        # GL(1, 2) is trivial, everything is invariant
        assert invariant_space_dimension(1, 2, 7) == 1
        # GL(1, 3) = {1, 2}; x^d is fixed iff 2^d = 1, so iff d is even
        assert invariant_space_dimension(1, 3, 4) == 1
        assert invariant_space_dimension(1, 3, 5) == 0

    @pytest.mark.parametrize("n,p,d_max", [
        pytest.param(2, 2, 12, id="2-2"),
        pytest.param(3, 2, 12, id="3-2"),
        pytest.param(2, 3, 12, id="2-3"),
        pytest.param(3, 3, 40, id="3-3"),
        pytest.param(3, 5, 60, id="3-5"),
    ])
    def test_matches_monomial_count(self, n, p, d_max):
        # (3, 3) and (5, 3) are the cases at odd p with n >= 3
        for d in range(d_max + 1):
            assert invariant_space_dimension(n, p, d) == dickson_monomial_count(n, p, d)

    @pytest.mark.parametrize("p,n,d_max", [
        (2, 1, 10), (3, 1, 10), (2, 2, 14), (2, 3, 14), (3, 2, 14),
        (5, 2, 14), (7, 2, 14), (3, 3, 18), (2, 4, 10), (2, 5, 8), (3, 4, 12),
    ])
    def test_matches_joint_kernel(self, p, n, d_max):
        # n >= 4 gives the rows a tail x3..xn of two or more entries to sort,
        # at p = 2 and, with (3, 4), at odd p
        for d in range(d_max + 1):
            assert invariant_space_dimension(n, p, d) == joint_kernel_dimension(n, p, d), d

    @pytest.mark.parametrize("p,n", [(2, 3), (3, 2), (5, 2), (3, 3)])
    def test_transvection_image(self, p, n):
        # the Lucas closed form against substitution by I + E_12
        t = [[int(a == b or (a, b) == (0, 1)) for b in range(n)] for a in range(n)]
        for d in range(8):
            for m in monomials(n, d):
                mono = Poly(n, p, {m: 1})
                image = Poly(n, p, dict(_transvection_image(m, p)))
                assert image == substitute_linear(mono, t) - mono, m

    def test_bound_counts_the_enumerated_monomials(self):
        # the rows are the lambdas, not the monomials: (3, 4), d = 54, the
        # first degree with an invariant there, has 4060 monomials with
        # every exponent a multiple of p - 1, and a full basis of
        # C(57, 3) = 29260
        assert invariant_space_dimension(4, 3, 54) == dickson_monomial_count(4, 3, 54) == 1
        for d in range(100, 125):
            assert invariant_space_dimension(3, 5, d) == dickson_monomial_count(3, 5, d), d
        # and no limit of its own: C(44, 4) = 135751 monomials of degree 40
        assert invariant_space_dimension(5, 2, 40) == dickson_monomial_count(5, 2, 40)

    def test_checks_the_deadline_once_per_row(self):
        # the rows of (2, 2, 20) are the lambdas (20 - b, b), b = 0..10
        calls = []

        class Deadline:
            def __init__(self, at):
                self.at = at

            def checkpoint(self):
                calls.append(len(calls) + 1)
                if len(calls) == self.at:
                    raise RuntimeError("time budget exceeded")

        token = fp_poly.case_budget.set(Deadline(at=4))
        try:
            with pytest.raises(RuntimeError):
                invariant_space_dimension(2, 2, 20)
            assert calls == [1, 2, 3, 4]
            calls.clear()
            fp_poly.case_budget.set(Deadline(at=0))
            assert invariant_space_dimension(2, 2, 20) == 4
            assert calls == list(range(1, 12))
        finally:
            fp_poly.case_budget.reset(token)

    @pytest.mark.parametrize("p", [2, 3, 5, 7])
    def test_pair_image_is_read_off_the_binomials(self, p):
        # (T - I)(x1**a x2**b + x1**b x2**a), one member when a = b, from
        # math.comb: x1**x x2**y goes to C(y, k) x1**(x+k) x2**(y-k), k >= 1
        for a in range(41):
            for b in range(a + 1):
                want = {}
                for x, y in ((a, b), (b, a))[:1 + (a != b)]:
                    for k in range(1, y + 1):
                        want[x + k] = (want.get(x + k, 0) + math.comb(y, k)) % p
                xs, cs = _pair_image(a, b, p)
                assert len(set(xs)) == len(xs) == len(cs), (a, b)
                assert dict(zip(xs, cs)) == {e: c for e, c in want.items() if c}, (a, b)

    def test_the_pair_cache_leaves_every_count_unchanged(self, cold):
        # each degree from an empty pair cache, then all degrees on one
        # warm cache, at (p, n) = (2, 3) and (3, 3)
        for p, n, d_max in ((2, 3, 30), (3, 3, 40)):
            degrees = range(d_max + 1)
            cleared = []
            for d in degrees:
                _pair_image.cache_clear()
                cleared.append(invariant_space_dimension(n, p, d))
            _pair_image.cache_clear()
            warm = [invariant_space_dimension(n, p, d) for d in degrees]
            assert _pair_image.cache_info().hits
            assert cleared == warm == [dickson_monomial_count(n, p, d) for d in degrees]

    def test_reduces_by_the_pivot_lead_inverse_at_odd_p(self):
        # the pivots keep their lead coefficient, not 1: at odd p a reduction
        # not scaled by the lead's inverse keeps the lead and never ends, so
        # the counts run in a child process with a timeout
        pairs = ((3, 2), (5, 2), (3, 3), (7, 2))
        src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [src] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])))
        code = ("from dickson.invariants import invariant_space_dimension as dim; "
                f"print([dim(n, p, d) for p, n in {pairs} for d in range(41)])")
        proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True, timeout=30)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == f"{[dickson_monomial_count(n, p, d) for p, n in pairs for d in range(41)]}\n"

    def test_validation(self):
        with pytest.raises(ValueError):
            invariant_space_dimension(2, 2, -1)

    def test_monomial_count_frozen(self):
        assert [dickson_monomial_count(2, 2, d) for d in range(11)] == \
            [1, 0, 1, 1, 1, 1, 2, 1, 2, 2, 2]
        assert [dickson_monomial_count(2, 3, d) for d in range(9)] == \
            [1, 0, 0, 0, 0, 0, 1, 0, 1]
        assert dickson_monomial_count(2, 3, -1) == 0
        # weights in rank 3 at p = 2 are 7, 6, 4
        assert dickson_monomial_count(3, 2, 7) == 1
        assert dickson_monomial_count(3, 2, 10) == 1
        assert dickson_monomial_count(3, 2, 12) == 2  # 6+6 and 4+4+4
        assert dickson_monomial_count(3, 2, 13) == 1
