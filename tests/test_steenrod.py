"""Reduced powers, primitive derivations, closed-form routes, corollary forms."""
import itertools
import math
import random

import pytest

from dickson.fp_poly import (
    _lucas_row,
    binom_mod_p,
    frobenius,
    parse_poly,
    poly_add,
    poly_mul,
    poly_one,
    poly_pow,
    poly_scale,
    poly_sub,
    poly_var,
    poly_zero,
    Poly,
)
from dickson import fp_poly, steenrod, verify
from dickson.invariants import L, P_coef, R_coef, _P_bracket, dickson_Q
from dickson.steenrod import (
    _main_form,
    _read_row,
    corollary_rhs,
    sign_convention_flag,
    smith_switzer_value,
    st_delta,
    st_delta_via_dl2,
    st_delta_via_main,
    steenrod_P,
)

SMALL_GRID = [(2, 1), (2, 2), (3, 1), (3, 2), (2, 3)]


def rand_poly(rng, n, p, max_terms=3, max_exp=5):
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        m = tuple(rng.randint(0, max_exp) for _ in range(n))
        terms[m] = rng.randint(1, p - 1) if p > 2 else 1
    return Poly(n, p, terms)


def rand_homogeneous(rng, n, p, d):
    terms = {}
    for _ in range(rng.randint(1, 3)):
        cuts = sorted(rng.randint(0, d) for _ in range(n - 1))
        parts = [b - a for a, b in zip([0] + cuts, cuts + [d])]
        terms[tuple(parts)] = rng.randint(1, p - 1) if p > 2 else 1
    return Poly(n, p, terms)


def reference_P(f, k):
    """P^k(f) from its definition: over every b with b_j <= a_j summing to
    k, prod C(a_j, b_j) times prod xj**(a_j + (p-1) b_j), binomials exact."""
    p = f.p
    out = {}
    for m, c in f.terms.items():
        for b in itertools.product(*(range(a + 1) for a in m)):
            if sum(b) == k:
                mm = tuple(a + (p - 1) * bj for a, bj in zip(m, b))
                out[mm] = out.get(mm, 0) + c * math.prod(map(math.comb, m, b))
    return Poly(f.n, p, out)


class TestLucas:
    def test_frozen(self):
        assert binom_mod_p(10, 4, 3) == 0
        assert binom_mod_p(10, 1, 3) == 1
        assert binom_mod_p(5, 2, 2) == 0
        assert binom_mod_p(5, 2, 3) == 1
        assert binom_mod_p(5, 2, 5) == 0

    def test_out_of_range(self):
        assert binom_mod_p(3, 5, 2) == 0
        assert binom_mod_p(3, -1, 2) == 0
        assert binom_mod_p(0, 0, 7) == 1

    @pytest.mark.parametrize("p", [2, 3, 5, 7])
    def test_against_exact(self, p):
        for a in range(26):
            for b in range(a + 1):
                assert binom_mod_p(a, b, p) == math.comb(a, b) % p

    def test_prime_row_vanishes(self):
        for p in (2, 3, 5, 7):
            for b in range(1, p):
                assert binom_mod_p(p, b, p) == 0

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_row_lists_the_nonzero_binomials(self, p):
        for b in range(p ** 3):
            want = tuple((k, c) for k in range(1, b + 1) if (c := math.comb(b, k) % p))
            assert _lucas_row(b, p) == want


class TestReducedPower:
    def test_identity_at_zero(self):
        f = parse_poly("x1^2 + x1*x2", 2, 3)
        assert steenrod_P(f, 0) == f

    def test_squares_p2(self):
        x1 = poly_var(1, 2, 2)
        x2 = poly_var(2, 2, 2)
        assert steenrod_P(x1, 1) == x1 ** 2
        assert steenrod_P(x1 * x2, 1) == x1 ** 2 * x2 + x1 * x2 ** 2
        assert steenrod_P(x1 * x2, 2) == x1 ** 2 * x2 ** 2

    def test_powers_p3(self):
        x1 = poly_var(1, 1, 3)
        assert steenrod_P(x1, 1) == x1 ** 3
        assert steenrod_P(x1 ** 2, 1) == poly_scale(x1 ** 4, 2)
        assert steenrod_P(x1 ** 2, 2) == x1 ** 6

    def test_top_invariant_image(self):
        # the square of the degree-2 invariant lands back on invariants
        q = dickson_Q(2, 1, 2)
        assert steenrod_P(q, 1) == dickson_Q(2, 0, 2)
        assert steenrod_P(q, 2) == q ** 2

    @pytest.mark.parametrize("p,n", SMALL_GRID)
    def test_cartan(self, p, n):
        rng = random.Random(300 + 10 * p + n)
        for _ in range(15):
            f = rand_poly(rng, n, p, max_exp=4)
            g = rand_poly(rng, n, p, max_exp=4)
            for k in range(5):
                lhs = steenrod_P(poly_mul(f, g), k)
                rhs = poly_zero(n, p)
                for a in range(k + 1):
                    rhs = rhs + poly_mul(steenrod_P(f, a), steenrod_P(g, k - a))
                assert lhs == rhs

    @pytest.mark.parametrize("p,n", SMALL_GRID)
    def test_unstability(self, p, n):
        rng = random.Random(400 + 10 * p + n)
        for _ in range(15):
            d = rng.randint(1, 4)
            f = rand_homogeneous(rng, n, p, d)
            assert steenrod_P(f, d) == poly_pow(f, p)
            assert steenrod_P(f, d + 1).is_zero()
            assert steenrod_P(f, d + 3).is_zero()

    def test_degree_raising(self):
        for p in (2, 3, 5):
            f = dickson_Q(2, 1, p)
            d = f.degree()
            for k in (1, 2):
                img = steenrod_P(f, k)
                if not img.is_zero():
                    assert img.degree() == d + k * (p - 1)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            steenrod_P(poly_one(1, 2), -1)

    @pytest.mark.parametrize("p,n", SMALL_GRID)
    def test_matches_the_definition(self, p, n):
        rng = random.Random(500 + 10 * p + n)
        fs = [rand_poly(rng, n, p, max_terms=4) for _ in range(15)]
        for f in fs + [dickson_Q(n, s, p) for s in range(n)]:
            d = f.degree()
            for k in {1, 2, p, p * p, d, d + 1} - {-1}:
                assert steenrod_P(f, k) == reference_P(f, k)


class TestMilnorCommutator:
    @pytest.mark.parametrize("p,n", [(3, 2), (2, 3), (3, 3), (2, 4), (5, 3)])
    def test_primitives_are_iterated_commutators(self, p, n):
        # st_delta(., 1) = P^1 and st_delta(., i) = [P^(p^(i-1)), st_delta(., i-1)],
        # the analogue of Milnor's Q_t = [P^(p^(t-1)), Q_(t-1)] (Ann. Math. 67,
        # 1958): st_delta checked against steenrod_P.
        for s in range(n):
            q = dickson_Q(n, s, p)
            assert st_delta(q, 1) == steenrod_P(q, 1)
            for i in range(2, n + 5):
                k = p ** (i - 1)
                assert st_delta(q, i) == poly_sub(steenrod_P(st_delta(q, i - 1), k),
                                                  st_delta(steenrod_P(q, k), i - 1))


class TestPrimitiveDerivation:
    def test_on_variables(self):
        x1 = poly_var(1, 2, 3)
        assert st_delta(x1, 1) == x1 ** 3
        assert st_delta(x1, 2) == x1 ** 9
        x2 = poly_var(2, 2, 3)
        assert st_delta(x1 * x2, 1) == x1 ** 3 * x2 + x1 * x2 ** 3

    def test_coefficient_from_exponent(self):
        f = parse_poly("x1^5", 1, 3)
        # 5 = 2 mod 3, target exponent 5 - 1 + 3
        assert st_delta(f, 1) == parse_poly("2*x1^7", 1, 3)

    def test_frozen_p2(self):
        q1 = dickson_Q(2, 1, 2)
        assert st_delta(q1, 1) == dickson_Q(2, 0, 2)
        assert st_delta(q1, 2) == parse_poly("x1^4*x2 + x1*x2^4", 2, 2)
        assert st_delta(q1, 2) == poly_mul(dickson_Q(2, 0, 2), q1)

    def test_frozen_p3(self):
        q1 = dickson_Q(2, 1, 3)
        assert st_delta(q1, 1) == dickson_Q(2, 0, 3)
        expected = parse_poly(
            "x1^12*x2^2 + 2*x1^10*x2^4 + 2*x1^4*x2^10 + x1^2*x2^12", 2, 3)
        assert st_delta(q1, 2) == expected
        assert expected == poly_mul(dickson_Q(2, 0, 3), q1)

    @pytest.mark.parametrize("p,n", SMALL_GRID)
    def test_derivation_law(self, p, n):
        rng = random.Random(500 + 10 * p + n)
        for _ in range(20):
            f = rand_poly(rng, n, p)
            g = rand_poly(rng, n, p)
            i = rng.randint(1, 2)
            assert st_delta(poly_mul(f, g), i) == \
                poly_mul(st_delta(f, i), g) + poly_mul(f, st_delta(g, i))

    @pytest.mark.parametrize("p,n", SMALL_GRID)
    def test_kills_p_th_powers(self, p, n):
        rng = random.Random(600 + 10 * p + n)
        for _ in range(20):
            f = rand_poly(rng, n, p)
            assert st_delta(poly_pow(f, p), 1).is_zero()
            assert st_delta(frobenius(f, 2), 2).is_zero()

    def test_degree_raising(self):
        for (p, i) in [(2, 1), (2, 3), (3, 1), (3, 2), (5, 2)]:
            f = dickson_Q(2, 1, p)
            img = st_delta(f, i)
            assert img.degree() == f.degree() + p ** i - 1

    def test_rejects_low_index(self):
        with pytest.raises(ValueError):
            st_delta(poly_one(1, 2), 0)
        with pytest.raises(ValueError):
            st_delta(poly_one(1, 2), -2)


class TestClosedFormRoutes:
    @pytest.mark.parametrize("p,n", SMALL_GRID + [(5, 2)])
    def test_three_routes_agree(self, p, n):
        for s in range(n):
            for i in range(1, n + 4):
                direct = st_delta(dickson_Q(n, s, p), i)
                assert direct == st_delta_via_dl2(n, s, i, p)
                assert direct == st_delta_via_main(n, s, i, p)

    def test_determinant_route_asks_the_case_budget(self, dot_spy, refused):
        # at p = 3, L_3**(p-2) is L_3 itself: the route's one product is
        # the 6-term bracket by the 6-term L_3, refused before it is formed
        assert refused(st_delta_via_dl2, 3, 1, 5, 3) == [(6, 6)]
        assert dot_spy.pairs == []

    def test_validation(self):
        with pytest.raises(ValueError):
            st_delta_via_dl2(2, 2, 1, 3)
        with pytest.raises(ValueError):
            st_delta_via_dl2(2, 0, 0, 3)
        with pytest.raises(ValueError):
            st_delta_via_main(2, -1, 1, 3)
        with pytest.raises(ValueError):
            st_delta_via_main(2, 0, 0, 3)


class TestLowRangeTable:
    @pytest.mark.parametrize("p,n", [(2, 2), (2, 3), (3, 2), (5, 2)])
    def test_matches_direct_action(self, p, n):
        for s in range(n):
            for i in range(1, n + 1):
                assert st_delta(dickson_Q(n, s, p), i) == \
                    smith_switzer_value(n, s, i, p)

    def test_case_split(self):
        # i = s: a signed copy of the top invariant
        assert smith_switzer_value(2, 1, 1, 3) == dickson_Q(2, 0, 3)
        assert smith_switzer_value(3, 2, 2, 2) == dickson_Q(3, 0, 2)
        # i = n: the product form
        assert smith_switzer_value(2, 1, 2, 3) == \
            poly_mul(dickson_Q(2, 0, 3), dickson_Q(2, 1, 3))
        # everything else dies
        assert smith_switzer_value(3, 1, 2, 2).is_zero()
        assert smith_switzer_value(3, 2, 1, 5).is_zero()

    def test_s_zero_column(self):
        # s = 0 only survives at i = n
        for p, n in [(3, 2), (2, 3)]:
            for i in range(1, n):
                assert smith_switzer_value(n, 0, i, p).is_zero()
            assert not smith_switzer_value(n, 0, n, p).is_zero()

    def test_validation(self):
        with pytest.raises(ValueError):
            smith_switzer_value(2, 1, 3, 3)
        with pytest.raises(ValueError):
            smith_switzer_value(2, 2, 1, 3)

    def test_sign_convention_pin(self):
        assert sign_convention_flag() == 1
        assert sign_convention_flag(p=3, n=2) == 1
        assert sign_convention_flag(p=5, n=2) == 1
        assert sign_convention_flag(p=2, n=3) == 1
        with pytest.raises(ValueError):
            sign_convention_flag(p=3, n=1)


FORM_PAIRS = [(2, 2), (2, 3), (3, 2), (3, 3), (5, 2), (7, 2), (2, 4)]


class TestCorollaryForms:
    @pytest.mark.parametrize("p,n", [(2, 2), (2, 3), (3, 2), (5, 2)])
    def test_one_past_rank(self, p, n):
        for s in range(n):
            assert st_delta(dickson_Q(n, s, p), n + 1) == \
                corollary_rhs("n+1", n, s, p)

    @pytest.mark.parametrize("p,n", [(2, 2), (2, 3), (3, 2), (5, 2)])
    def test_two_past_rank(self, p, n):
        for s in range(n):
            assert st_delta(dickson_Q(n, s, p), n + 2) == \
                corollary_rhs("n+2", n, s, p)

    @pytest.mark.parametrize("p,n", [(2, 2), (2, 3), (3, 2), (3, 3), (5, 2), (7, 2), (2, 4)])
    def test_rows_are_the_bracket_quotients(self, p, n):
        # Each tabulated row holds R_{n,n+k} and P_{n,n+k,s} exactly; only the
        # n+3 sign departs from the minus of the main theorem.
        for k, want_sign in [(1, -1), (2, -1), (3, 1)]:
            for s in range(n):
                rr, pp, sign = _read_row(f"n+{k}", n, s, p, lambda t: dickson_Q(n, t, p))
                assert rr == R_coef(n, n + k, p)
                assert pp == P_coef(n, n + k, s, p)
                assert sign == want_sign

    @pytest.mark.parametrize("p,n", FORM_PAIRS)
    def test_bracket_assembly_is_the_main_form(self, p, n):
        # _main_form multiplies by L(n, s), L_n and L_n**(p-2) where the
        # theorem reads Q_{n,s} and Q_{n,0}; both signs, so rows that do not
        # collapse to a bracket (the n+3 row at odd p) are covered too.  The
        # reference is the main form in the order written, on the Dickson
        # invariants, (-1)**n Q_{n,0} (R**p Q_{n,s} + sign P**p), its two
        # products formed once for both signs.
        q0 = dickson_Q(n, 0, p)
        for s in range(n):
            q0_qs = poly_mul(q0, dickson_Q(n, s, p))
            for i in range(1, n + 4):
                # the rows past n hold these same values (see the test above)
                R, P = R_coef(n, i, p), P_coef(n, i, s, p)
                r_part = poly_mul(q0_qs, frobenius(R, 1))
                p_part = poly_mul(q0, frobenius(P, 1))
                for sign in {1, p - 1}:  # -1 is +1 at p = 2
                    want = poly_scale(poly_add(r_part, poly_scale(p_part, sign)), (-1) ** n % p)
                    assert _main_form(n, s, p, R, P, sign) == want

    @pytest.mark.parametrize("p,n", FORM_PAIRS)
    def test_kernel_form_is_the_q_form(self, p, n):
        for s in range(n):
            for i in range(1, n + 4):
                want = frobenius(poly_mul(dickson_Q(n, 0, p), P_coef(n, i, s, p)), 1)
                assert corollary_rhs("kernel", n, s, p, i=i) == \
                    poly_scale(want, (-1) ** (n + 1) % p)

    @pytest.mark.parametrize("p,n", FORM_PAIRS)
    def test_p_bracket_is_l_times_p_coef(self, p, n):
        # The bracket the kernel form takes in place of L_n P is the one
        # P_coef divides, zero at s = 0 like P_coef.
        for s in range(n):
            for i in range(1, n + 4):
                assert poly_mul(L(n, n, p), P_coef(n, i, s, p)) == _P_bracket(n, i, s, p)

    def test_kernel_form_divides_nothing(self, dot_spy):
        # L_n P is a bracket, so the kernel form needs no quotient.  Built
        # from P_coef(4, 7, 3, 2) at (p, n, s, i) = (2, 4, 3, 7), it would
        # spend 210,480 term pairs multiplying its 8,770 terms back by the
        # 24-term L_4.
        P_coef.cache_clear()
        corollary_rhs("kernel", 4, 3, 2, i=7)
        corollary_rhs("kernel", 3, 2, 3, i=6)
        assert dot_spy.pairs and sum(dot_spy.pairs) < 1_000

    def test_kernel_form_asks_the_case_budget(self, dot_spy, refused):
        # L_3**(p-2) = L_3 at p = 3, by the 6-term bracket [1, 2, 4]
        assert refused(corollary_rhs, "kernel", 3, 1, 3, 5) == [(6, 6)]
        assert dot_spy.pairs == []

    def test_kernel_grid_at_five_three(self):
        # The odd-p, n = 3 kernel cases, i <= 6.
        report = verify.run_grid(verify.GridConfig(
            theorems=("kernel",), pairs=((5, 3),), i_max=6))
        assert report.summary == {"passed": 18, "failed": 0, "skipped": 0}
        assert not any(c.flagged for c in report.cases)

    @pytest.mark.parametrize("p,n", FORM_PAIRS)
    def test_kernel_input_is_the_q_product(self, p, n, monkeypatch):
        # The kernel family's input, caught as the first argument it hands to
        # st_delta, is Q_{n,0}**(p-1) Q_{n,s}.
        seen = []

        def spy(f, i):
            seen.append(f)
            return st_delta(f, i)

        monkeypatch.setattr(verify, "st_delta", spy)
        for s in range(n):
            seen.clear()
            result = verify.run_case(verify.CaseSpec("kernel", p, n, s, 1))
            assert result.passed and not result.skipped
            assert seen[0] == poly_mul(poly_pow(dickson_Q(n, 0, p), p - 1), dickson_Q(n, s, p))

    def test_main_form_asks_about_R_before_any_copy(self, monkeypatch, refused):
        # R**p is read by the kernel at its Frobenius power: the budget is
        # asked about L(3, 2) by |R| before anything is formed or copied
        R, P = R_coef(3, 7, 3), P_coef(3, 7, 2, 3)
        copies = []

        def spy(f, e):
            copies.append(len(f.terms))
            return frobenius(f, e)

        monkeypatch.setattr(steenrod, "frobenius", spy)
        monkeypatch.setattr(fp_poly, "frobenius", spy)
        assert refused(_main_form, 3, 2, 3, R, P, -1) == [(6, len(R.terms))]
        assert copies == []

    def test_main_route_products_stay_narrow(self, dot_spy):
        # With R and P warm, the main route at (p, n, s, i) = (3, 3, 2, 6)
        # multiplies only by brackets: in the order written it spends 906,541
        # term pairs and builds a 36,853-term sum that cancels to 33 terms.
        R_coef(3, 6, 3)
        P_coef(3, 6, 2, 3)
        dot_spy.pairs.clear()
        dot_spy.widths.clear()
        value = st_delta_via_main(3, 2, 6, 3)
        pairs, widths = list(dot_spy.pairs), list(dot_spy.widths)
        assert value == st_delta(dickson_Q(3, 2, 3), 6)
        assert sum(pairs) < 100_000
        assert max(widths) < 20_000

    def test_three_past_rank_even_prime(self):
        for (p, n) in [(2, 2), (2, 3)]:
            for s in range(n):
                assert st_delta(dickson_Q(n, s, p), n + 3) == \
                    corollary_rhs("n+3", n, s, p)

    def test_three_past_rank_odd_prime_discrepancy(self):
        # The tabulated composite carries the opposite sign on its P-term.
        # The two sides therefore differ by exactly twice the P contribution,
        # which pins the tabulated inner quotients as otherwise correct.
        for (p, n, s) in [(3, 2, 1), (5, 2, 1)]:
            tabulated = corollary_rhs("n+3", n, s, p)
            direct = st_delta(dickson_Q(n, s, p), n + 3)
            assert tabulated != direct
            gap = poly_sub(tabulated, direct)
            pterm = poly_mul(
                dickson_Q(n, 0, p),
                frobenius(P_coef(n, n + 3, s, p), 1),
            )
            want = poly_scale(pterm, (2 * (-1) ** n) % p)
            assert gap == want

    def test_three_past_rank_odd_prime_s0_agrees(self):
        # the P contribution vanishes at s = 0, so no discrepancy there
        for p in (3, 5):
            assert st_delta(dickson_Q(2, 0, p), 5) == corollary_rhs("n+3", 2, 0, p)

    @pytest.mark.parametrize("p,n", [(2, 2), (2, 3), (3, 2), (5, 2)])
    def test_kernel_form(self, p, n):
        for s in range(n):
            base = poly_mul(poly_pow(dickson_Q(n, 0, p), p - 1), dickson_Q(n, s, p))
            for i in range(1, n + 4):
                once = st_delta(base, i)
                assert once == corollary_rhs("kernel", n, s, p, i=i)
                assert st_delta(once, i).is_zero()

    def test_kernel_needs_index(self):
        with pytest.raises(ValueError):
            corollary_rhs("kernel", 2, 1, 3)
        # i = 0 is no operation index, s = 0 (where P vanishes) included
        for (p, n) in [(3, 2), (2, 3)]:
            for s in range(n):
                with pytest.raises(ValueError):
                    corollary_rhs("kernel", n, s, p, i=0)

    def test_unknown_form(self):
        with pytest.raises(ValueError):
            corollary_rhs("n+4", 2, 1, 3)

    def test_degrees(self):
        # each composite must land in the degree the direct action dictates
        for (p, n, s, off) in [(3, 2, 1, 1), (3, 2, 0, 2), (2, 3, 2, 3)]:
            got = corollary_rhs(f"n+{off}", n, s, p)
            assert got.degree() == dickson_Q(n, s, p).degree() + p ** (n + off) - 1
