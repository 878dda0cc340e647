"""Core polynomial arithmetic: construction, ring laws, text form."""
import functools
import random

import pytest

from dickson.fp_poly import (
    EXPONENT_LIMIT,
    ParseError,
    Poly,
    ShapeError,
    case_budget,
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

from substitution import identity, mat_mul, substitute_linear


def rand_poly(rng, n, p, max_terms=4, max_exp=6):
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        m = tuple(rng.randint(0, max_exp) for _ in range(n))
        terms[m] = rng.randint(1, p - 1) if p > 2 else 1
    return Poly(n, p, terms)


def schoolbook(f, g):
    """Reference product on exponent tuples, one pair of terms at a time."""
    out = {}
    for m1, c1 in f.terms.items():
        for m2, c2 in g.terms.items():
            m = tuple(a + b for a, b in zip(m1, m2))
            out[m] = out.get(m, 0) + c1 * c2
    return Poly(f.n, f.p, out)


def scaled(g, q):
    """g with every exponent multiplied by q: g**q when q is a power of p."""
    return Poly(g.n, g.p, {tuple(a * q for a in m): c for m, c in g.terms.items()})


class TestPrimality:
    def test_small_primes(self):
        assert [q for q in range(2, 60) if is_prime(q)] == [
            2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59
        ]

    def test_larger_values(self):
        assert is_prime(2 ** 31 - 1)
        assert not is_prime(2 ** 31 - 3)
        assert not is_prime(1)
        assert not is_prime(0)

    def test_require_prime(self):
        assert require_prime(7) == 7
        with pytest.raises(ValueError):
            require_prime(4)
        with pytest.raises(ValueError):
            require_prime(2 ** 31)
        with pytest.raises(TypeError):
            require_prime(True)
        with pytest.raises(TypeError):
            require_prime("3")


class TestConstruction:
    def test_canonicalization(self):
        f = Poly(2, 3, {(1, 0): 4, (0, 1): 3, (2, 2): 2})
        # 4 reduces to 1, 3 reduces away entirely
        assert f.terms == {(1, 0): 1, (2, 2): 2}

    def test_zero_and_degree(self):
        assert poly_zero(2, 3).is_zero()
        assert poly_zero(2, 3).degree() == -1
        assert poly_one(2, 3).degree() == 0
        assert Poly(2, 3, {(2, 5): 1, (3, 1): 2}).degree() == 7

    def test_shape_checks(self):
        with pytest.raises(ShapeError):
            Poly(2, 3, {(1, 0, 0): 1})
        with pytest.raises(ValueError):
            Poly(0, 3, {})
        with pytest.raises(ValueError):
            Poly(2, 3, {(-1, 0): 1})
        with pytest.raises(OverflowError):
            Poly(1, 3, {(EXPONENT_LIMIT,): 1})

    def test_poly_var(self):
        assert poly_var(2, 3, 5).terms == {(0, 1, 0): 1}
        with pytest.raises(ValueError):
            poly_var(0, 2, 5)
        with pytest.raises(ValueError):
            poly_var(3, 2, 5)

    def test_equality_is_structural(self):
        assert Poly(2, 3, {(1, 1): 2}) == Poly(2, 3, {(1, 1): 5})
        assert Poly(2, 3, {(1, 1): 1}) != Poly(2, 5, {(1, 1): 1})
        assert Poly(1, 3, {}) == poly_zero(1, 3)

    def test_not_hashable(self):
        with pytest.raises(TypeError):
            hash(poly_one(1, 2))


class TestRingLaws:
    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_random_ring_identities(self, p):
        rng = random.Random(11 * p)
        for _ in range(50):
            f = rand_poly(rng, 2, p)
            g = rand_poly(rng, 2, p)
            h = rand_poly(rng, 2, p)
            assert poly_add(f, g) == poly_add(g, f)
            assert poly_mul(f, g) == poly_mul(g, f)
            assert poly_add(poly_add(f, g), h) == poly_add(f, poly_add(g, h))
            assert poly_mul(poly_mul(f, g), h) == poly_mul(f, poly_mul(g, h))
            assert poly_mul(f, poly_add(g, h)) == poly_add(poly_mul(f, g), poly_mul(f, h))
            assert poly_sub(f, f).is_zero()
            assert poly_add(f, poly_scale(f, p - 1)).is_zero()
            assert poly_scale(f, p).is_zero()

    def test_operator_sugar(self):
        x1 = poly_var(1, 2, 3)
        x2 = poly_var(2, 2, 3)
        assert (x1 + x2) * (x1 - x2) == x1 * x1 - x2 * x2
        assert -(x1 - x2) == x2 - x1
        assert x1 ** 3 == poly_mul(poly_mul(x1, x1), x1)

    def test_freshman_dream(self):
        x1 = poly_var(1, 2, 2)
        x2 = poly_var(2, 2, 2)
        assert (x1 + x2) ** 2 == x1 ** 2 + x2 ** 2
        x1, x2 = poly_var(1, 2, 3), poly_var(2, 2, 3)
        assert (x1 + x2) ** 3 == x1 ** 3 + x2 ** 3

    def test_mixed_ring_rejected(self):
        with pytest.raises(ShapeError):
            poly_add(poly_one(1, 2), poly_one(1, 3))
        with pytest.raises(ShapeError):
            poly_mul(poly_one(1, 2), poly_one(2, 2))

    def test_mul_overflow_guard(self):
        f = Poly(1, 2, {(2 ** 62,): 1})
        with pytest.raises(OverflowError):
            poly_mul(f, f)


BIG = 2 ** 62


class TestPackedMul:
    """poly_mul packs monomials into ints internally; these fixed products
    stress the packing and are checked against the tuple schoolbook."""

    @pytest.mark.parametrize("f, g", [
        # x2 is absent from both operands: a zero-width field
        pytest.param(parse_poly("x1^3 + 2*x1*x3 + 4", 3, 5),
                     parse_poly("x3^4 + 3*x1^2 + x1*x3", 3, 5), id="absent-variable"),
        pytest.param(parse_poly("x1^5 + 2*x1^2 + 1", 1, 3),
                     parse_poly("x1^4 + x1 + 2", 1, 3), id="one-variable"),
        # product degree 2**63 - 2, just under EXPONENT_LIMIT
        pytest.param(Poly(2, 3, {(BIG - 1, 0): 1, (0, BIG - 1): 2, (1, 1): 1}),
                     Poly(2, 3, {(BIG - 2, 1): 1, (5, 0): 2, (0, 0): 1}), id="near-2**62"),
        pytest.param(Poly(3, 7, {(BIG - 1, 0, 0): 3, (0, 0, 0): 1}),
                     Poly(3, 7, {(0, 0, BIG - 1): 5, (BIG - 1, 0, 0): 6}), id="near-2**62-n3"),
        pytest.param(parse_poly("3*x1^2*x2", 2, 5),
                     parse_poly("x1 + 4*x2^3 + 2", 2, 5), id="single-term"),
        pytest.param(parse_poly("x1 + 4*x2^3 + 2", 2, 5),
                     parse_poly("3*x1^2*x2", 2, 5), id="single-term-right"),
        pytest.param(parse_poly("x1^2 + x1*x2 + x2^2", 2, 2),
                     parse_poly("x1 + x2", 2, 2), id="cancel-p2"),
        pytest.param(parse_poly("x1^2 + 2*x1*x2 + x2^2", 2, 3),
                     parse_poly("x1 + x2", 2, 3), id="cancel-p3"),
    ])
    def test_matches_schoolbook(self, f, g):
        assert poly_mul(f, g) == schoolbook(f, g)

    def test_cancelled_terms_are_dropped(self):
        # (x1 + x2)**3 = x1^3 + x2^3 over F_3: both cross terms sum to 3 = 0
        x = parse_poly("x1 + x2", 2, 3)
        cube = poly_mul(poly_mul(x, x), x)
        assert cube.terms == {(3, 0): 1, (0, 3): 1}
        # (x1^2 + x1*x2 + x2^2)(x1 + x2) = x1^3 + x2^3 over F_2
        f = parse_poly("x1^2 + x1*x2 + x2^2", 2, 2)
        assert poly_mul(f, parse_poly("x1 + x2", 2, 2)).terms == {(3, 0): 1, (0, 3): 1}

    def test_many_products_on_one_monomial(self):
        # the 15 pairs (a, b) = (a', b') all land on x1^4*x2^4*x3^4, whose raw
        # coefficient sum 15 * 4 = 60 runs far past p before it reduces to 0
        n, p = 3, 3
        f = Poly(n, p, {(a, b, 4 - a - b): 2 for a in range(5) for b in range(5 - a)})
        g = Poly(n, p, {(4 - a, 4 - b, a + b): 2 for a in range(5) for b in range(5 - a)})
        fg = poly_mul(f, g)
        assert fg == schoolbook(f, g)
        assert (4, 4, 4) not in fg.terms

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_random_products_match_schoolbook(self, p):
        rng = random.Random(40 + p)
        for n in (1, 2, 4):
            for _ in range(30):
                f = rand_poly(rng, n, p, max_terms=6, max_exp=9)
                g = rand_poly(rng, n, p, max_terms=6, max_exp=9)
                assert poly_mul(f, g) == schoolbook(f, g)


def dot_reference(products, n, p):
    """sum of poly_scale(poly_mul(f, g**(p**e)), c), one product at a time,
    g**(p**e) formed by scaling its exponents here."""
    total = poly_zero(n, p)
    for c, f, g, e in products:
        total = poly_add(total, poly_scale(poly_mul(f, scaled(g, p ** e)), c))
    return total


class TestDot:
    """poly_dot sums c * f * g over triples in one packed accumulator."""

    @pytest.mark.parametrize("n, p", [(1, 2), (2, 3), (3, 5), (4, 2), (2, 7)])
    def test_random_sums_match_the_products_one_at_a_time(self, n, p):
        rng = random.Random(70 + 10 * n + p)
        for _ in range(40):
            products = [(rng.randint(-p, 2 * p),
                         rand_poly(rng, n, p, max_terms=rng.choice((0, 1, 5)), max_exp=8),
                         rand_poly(rng, n, p, max_terms=rng.choice((1, 5)), max_exp=8), 0)
                        for _ in range(rng.randint(0, 4))]
            want = dot_reference(products, n, p)
            assert want == dot_reference(
                [(c, schoolbook(f, g), poly_one(n, p), 0) for c, f, g, _ in products], n, p)
            assert poly_dot(products, n, p) == want

    def test_zero_coefficients_and_empty_operands_drop_out(self):
        n, p = 2, 5
        f = parse_poly("x1^2 + 3*x2", n, p)
        g = parse_poly("2*x1*x2 + 1", n, p)
        z = poly_zero(n, p)
        assert poly_dot([(0, f, g, 0), (5, f, g, 0), (1, z, g, 0), (3, f, z, 0)], n, p).is_zero()
        assert poly_dot([(0, f, g, 0), (2, f, g, 0), (1, z, g, 0)], n, p) == \
            poly_scale(schoolbook(f, g), 2)

    def test_single_term_operands(self):
        n, p = 3, 7
        x = parse_poly("3*x1^2*x3", n, p)
        y = parse_poly("5*x2^4", n, p)
        f = parse_poly("x1 + 6*x2^2*x3 + 2", n, p)
        # one product with a single-term operand shifts the other one
        assert poly_dot([(4, x, f, 0)], n, p) == poly_scale(schoolbook(x, f), 4)
        assert poly_dot([(4, f, x, 0)], n, p) == poly_scale(schoolbook(x, f), 4)
        assert poly_dot([(6, x, y, 0)], n, p) == poly_scale(schoolbook(x, y), 6)
        products = [(1, x, f, 0), (-1, y, f, 0), (2, x, y, 0)]
        assert poly_dot(products, n, p) == dot_reference(products, n, p)

    def test_a_sum_that_cancels_to_zero(self):
        n, p = 2, 3
        f = parse_poly("x1^2 + 2*x1*x2 + x2", n, p)
        g = parse_poly("x1 + x2^3 + 1", n, p)
        assert poly_dot([(1, f, g, 0), (-1, g, f, 0)], n, p).is_zero()
        assert poly_dot([(2, f, g, 0), (1, f, g, 0)], n, p).is_zero()
        # (x1 + x2)(x1 - x2) + x2 * x2 = x1^2: all but one term cancels
        a, b = parse_poly("x1 + x2", n, p), parse_poly("x1 + 2*x2", n, p)
        x2 = poly_var(2, n, p)
        assert poly_dot([(1, a, b, 0), (1, x2, x2, 0)], n, p).terms == {(2, 0): 1}

    def test_products_share_one_layout(self):
        # a near-2**62 exponent in one product widens the x1 field that the
        # small products use too
        n, p = 2, 3
        big = Poly(n, p, {(BIG - 1, 0): 1, (0, 1): 2})
        small = parse_poly("x1 + x2^2 + 1", n, p)
        products = [(1, big, small, 0), (2, small, small, 0), (1, small, big, 0)]
        assert poly_dot(products, n, p) == dot_reference(products, n, p)

    def test_empty_and_all_zero_sums(self):
        # the recursion hands over every nonzero low; none may be nonzero
        assert poly_dot([], 3, 5) == poly_zero(3, 5)
        z, one = poly_zero(3, 5), poly_one(3, 5)
        assert poly_dot([(1, z, one, 0), (2, one, z, 0), (0, one, one, 0)], 3, 5) == \
            poly_zero(3, 5)
        assert poly_dot(iter([]), 1, 2) == poly_zero(1, 2)

    def test_mixed_rings_rejected(self):
        f2, f3 = poly_one(2, 3), poly_one(2, 5)
        with pytest.raises(ShapeError):
            poly_dot([(1, f2, f3, 0)], 2, 3)
        with pytest.raises(ShapeError):
            poly_dot([(1, f2, f2, 0), (1, poly_one(1, 3), f2, 0)], 2, 3)
        with pytest.raises(ShapeError):
            poly_dot([(1, f2, f2, 0)], 2, 5)
        with pytest.raises(ShapeError):
            # zero operands are checked too
            poly_dot([(1, poly_zero(3, 3), f2, 0)], 2, 3)

    def test_degree_limit_of_the_column_bound(self):
        # two-term operands take the packed path, whose column bound is
        # the first check there: degree 2**63 - 1 passes, 2**63 raises
        f = Poly(1, 2, {(BIG,): 1, (0,): 1})
        g = Poly(1, 2, {(BIG - 1,): 1, (0,): 1})
        assert poly_dot([(1, f, g, 0)], 1, 2) == \
            Poly(1, 2, {(2 ** 63 - 1,): 1, (BIG,): 1, (BIG - 1,): 1, (0,): 1})
        with pytest.raises(OverflowError):
            poly_dot([(1, f, f, 0)], 1, 2)

    def test_overflow_past_2_63(self):
        f = Poly(1, 2, {(2 ** 62,): 1})
        with pytest.raises(OverflowError):
            poly_dot([(1, f, f, 0)], 1, 2)
        g = Poly(2, 3, {(2 ** 62, 0): 1, (0, 1): 1})
        with pytest.raises(OverflowError):
            poly_dot([(1, poly_one(2, 3), g, 0), (1, g, g, 0)], 2, 3)
        # the column bound passes 2**63 but the degree does not
        h = Poly(2, 3, {(BIG - 1, 0): 1, (0, BIG - 1): 1})
        assert poly_dot([(1, h, parse_poly("x1 + x2", 2, 3), 0)], 2, 3) == \
            schoolbook(h, parse_poly("x1 + x2", 2, 3))

    @pytest.mark.parametrize("n, p", [(1, 2), (2, 3), (3, 5), (2, 7)])
    def test_frobenius_operands_match_exponents_scaled_here(self, n, p):
        # dot_reference scales g's exponents by p**e itself; the operands
        # come in both size orders, and single-term ones reach the shift path
        rng = random.Random(90 + 10 * n + p)
        for _ in range(40):
            products = [(rng.randint(1, p - 1),
                         rand_poly(rng, n, p, max_terms=rng.choice((1, 5)), max_exp=8),
                         rand_poly(rng, n, p, max_terms=rng.choice((1, 5)), max_exp=8),
                         rng.randint(0, 2))
                        for _ in range(rng.randint(1, 3))]
            assert poly_dot(products, n, p) == dot_reference(products, n, p)

    @pytest.mark.parametrize("e", [1, 2])
    def test_the_multiplier_on_both_paths_and_both_orders(self, e):
        n, p = 3, 3
        q = p ** e
        x = parse_poly("2*x1^2*x3", n, p)
        f = parse_poly("x1 + 2*x2^2*x3 + 1", n, p)
        g = parse_poly("x2 + x3^4", n, p)
        # the single-term path, the multiplier on the longer operand or, once
        # the single term is put first, on it
        assert poly_dot([(2, x, f, e)], n, p) == poly_scale(schoolbook(x, scaled(f, q)), 2)
        assert poly_dot([(2, f, x, e)], n, p) == poly_scale(schoolbook(f, scaled(x, q)), 2)
        # the packed path, with and without the smaller-first swap
        for products in ([(1, f, g, e)], [(2, g, f, e)],
                         [(1, f, g, e), (2, g, f, e), (1, x, f, 0)]):
            assert poly_dot(products, n, p) == dot_reference(products, n, p)
        # and against the p**e-fold product
        one = poly_one(n, p)
        power = one
        for _ in range(q):
            power = poly_mul(power, g)
        assert poly_dot([(1, one, g, e)], n, p) == power

    def test_overflow_reads_the_scaled_degree_before_forming(self):
        # x1**(2**62) doubles to 2**63 at p = 2, e = 1; no row is formed
        n, p = 2, 2
        big = Poly(n, p, {(2 ** 62, 0): 1, (0, 1): 1})
        top = Poly(n, p, {(2 ** 62, 0): 1})
        x2 = poly_var(2, n, p)
        two = parse_poly("x1 + 1", n, p)
        small = parse_poly("x1 + x2 + 1", n, p)

        class NoRows:
            def before_product(self, f_terms, g_terms):
                pass

            def checkpoint(self):
                raise AssertionError("a product was formed")

        token = case_budget.set(NoRows())
        try:
            for products in ([(1, x2, big, 1)],   # single term, multiplier on the other
                             [(1, small, top, 1)],  # the multiplier moves with the single term
                             [(1, two, big, 1)],  # packed, no swap
                             [(1, small, big, 1)]):  # packed, the multiplier moves
                with pytest.raises(OverflowError):
                    poly_dot(products, n, p)
        finally:
            case_budget.reset(token)
        # just below the limit: x1**(2**63 - 2) * x2
        near = Poly(n, p, {(2 ** 62 - 1, 0): 1})
        assert poly_dot([(1, x2, near, 1)], n, p).terms == {(2 ** 63 - 2, 1): 1}
        assert poly_dot([(1, near, two, 1)], n, p) == schoolbook(near, scaled(two, 2))

    def test_asks_the_case_budget_by_the_operands_own_term_counts(self, refused):
        # a Frobenius image has the terms of its operand, and frobenius is a
        # kernel call like any product
        f = parse_poly("x1 + x2 + 1", 2, 3)
        g = parse_poly("x1^2 + x2", 2, 3)
        assert refused(poly_dot, [(1, f, g, 2)], 2, 3) == [(3, 2)]
        assert refused(poly_dot, [(1, g, f, 1)], 2, 3) == [(2, 3)]
        assert refused(frobenius, f, 1) == [(1, 3)]

    def test_asks_the_case_budget_about_every_product_before_forming_any(self):
        # in the order given, before the smaller operand is put first; a
        # zero coefficient or operand is no product.  checkpoint is called
        # per row of a product being formed
        n, p = 2, 5
        big = parse_poly("x1^3 + x1*x2 + x2^2 + 1", n, p)
        small = parse_poly("x1 + x2", n, p)
        products = [(0, small, small, 0), (1, poly_zero(n, p), big, 0), (3, big, small, 0),
                    (1, small, big, 0)]
        asked = []

        class Record:
            def before_product(self, f_terms, g_terms):
                asked.append((f_terms, g_terms))

            def checkpoint(self):
                assert len(asked) == 2, "a product was formed before every ask"

        want = dot_reference(products, n, p)
        token = case_budget.set(Record())
        try:
            assert poly_dot(products, n, p) == want
        finally:
            case_budget.reset(token)
        assert asked == [(4, 2), (2, 4)]

    def test_the_deadline_is_checked_once_per_row(self):
        # f has 3 terms, so the product is formed in 3 rows; a deadline met
        # at the second checkpoint stops it there
        n, p = 2, 3
        f = parse_poly("x1 + x2 + 1", n, p)
        g = parse_poly("x1^2 + 2*x2^3 + x1*x2 + 1", n, p)
        calls = []

        class Deadline:
            def __init__(self, at):
                self.at = at

            def before_product(self, f_terms, g_terms):
                pass

            def checkpoint(self):
                calls.append(len(calls) + 1)
                if len(calls) == self.at:
                    raise RuntimeError("time budget exceeded")

        token = case_budget.set(Deadline(at=2))
        try:
            with pytest.raises(RuntimeError):
                poly_mul(f, g)
            assert calls == [1, 2]
            calls.clear()
            case_budget.set(Deadline(at=0))
            assert poly_mul(g, f) == schoolbook(f, g)
            assert calls == [1, 2, 3]
        finally:
            case_budget.reset(token)


class TestFrobeniusAndPow:
    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_frobenius_is_p_power(self, p):
        rng = random.Random(p)
        for _ in range(20):
            f = rand_poly(rng, 2, p, max_exp=3)
            assert frobenius(f, 1) == poly_pow(f, p) == scaled(f, p)
            assert frobenius(f, 1) == functools.reduce(poly_mul, [f] * p, poly_one(2, p))
            assert frobenius(f, 2) == poly_pow(f, p * p)
            assert frobenius(f, 0) == f

    def test_frobenius_additive(self):
        rng = random.Random(5)
        for _ in range(20):
            f = rand_poly(rng, 2, 3)
            g = rand_poly(rng, 2, 3)
            assert frobenius(poly_add(f, g), 1) == poly_add(frobenius(f, 1), frobenius(g, 1))

    def test_frobenius_rejects_negative(self):
        with pytest.raises(ValueError):
            frobenius(poly_one(1, 2), -1)

    def test_pow_matches_repeated_mul(self):
        rng = random.Random(3)
        for _ in range(10):
            f = rand_poly(rng, 2, 3, max_terms=3, max_exp=2)
            acc = poly_one(2, 3)
            for k in range(7):
                assert poly_pow(f, k) == acc
                acc = poly_mul(acc, f)

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_pow_never_calls_frobenius(self, p, monkeypatch):
        # a p-th power is formed by square and multiply, so comparing
        # poly_pow with frobenius compares two routes, not one with itself
        import dickson.fp_poly as fp_poly

        def refuse(*args):
            raise AssertionError("poly_pow went through frobenius")

        monkeypatch.setattr(fp_poly, "frobenius", refuse)
        rng = random.Random(p)
        for _ in range(5):
            f = rand_poly(rng, 2, p, max_exp=3)
            assert poly_pow(f, p ** 2) == scaled(f, p ** 2)

    def test_pow_asks_the_case_budget(self, refused):
        # f**4 squares f first, and the budget refuses that square
        f = parse_poly("x1 + x2 + 1", 2, 3)
        assert refused(poly_pow, f, 4) == [(3, 3)]

    def test_pow_edge_cases(self):
        z = poly_zero(2, 5)
        assert poly_pow(z, 0) == poly_one(2, 5)
        assert poly_pow(z, 4).is_zero()
        assert poly_pow(z, 5).is_zero()
        with pytest.raises(ValueError):
            poly_pow(poly_one(2, 5), -1)


class TestGrevlex:
    def test_variable_order(self):
        # x1 beats x2 beats x3 in the same total degree
        assert grevlex_key((1, 0)) > grevlex_key((0, 1))
        assert grevlex_key((0, 1, 0)) > grevlex_key((0, 0, 1))

    def test_classic_discriminator(self):
        # degree ties break at the last differing slot, small exponent wins:
        # x2^2 sits above x1*x3
        assert grevlex_key((0, 2, 0)) > grevlex_key((1, 0, 1))
        # but lex would disagree, x1*x3 starts with the bigger first slot
        assert (1, 0, 1) > (0, 2, 0)

    def test_degree_dominates(self):
        assert grevlex_key((0, 0, 3)) > grevlex_key((1, 1, 0))

    def test_sorted_ascending(self):
        monomials = [(2, 0), (1, 1), (0, 2), (1, 0), (0, 1), (0, 0)]
        assert sorted(monomials, key=grevlex_key) == [
            (0, 0), (0, 1), (1, 0), (0, 2), (1, 1), (2, 0)
        ]


class TestTextForm:
    def test_format_descending_order(self):
        f = parse_poly("x2^2 + x1*x2 + x1^2", 2, 3)
        assert format_poly(f) == "x1^2 + x1*x2 + x2^2"

    def test_format_coefficients(self):
        assert format_poly(poly_zero(2, 3)) == "0"
        assert format_poly(poly_const(2, 2, 3)) == "2"
        assert format_poly(poly_scale(poly_var(1, 2, 5), 3)) == "3*x1"
        assert format_poly(poly_var(2, 2, 5)) == "x2"

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_roundtrip_random(self, p):
        rng = random.Random(p + 7)
        for _ in range(60):
            f = rand_poly(rng, 3, p)
            assert parse_poly(format_poly(f), 3, p) == f

    def test_whitespace_tolerated(self):
        assert parse_poly("  2 * x1 ^ 2   +   x2 ", 2, 3) == parse_poly("2*x1^2 + x2", 2, 3)

    def test_duplicate_monomials_sum(self):
        assert parse_poly("x1 + x1", 1, 3) == poly_scale(poly_var(1, 1, 3), 2)
        assert parse_poly("x1 + 2*x1", 1, 3).is_zero()
        assert parse_poly("x1*x1", 1, 3) == poly_var(1, 1, 3) ** 2

    def test_zero_literal(self):
        assert parse_poly("0", 2, 3).is_zero()
        assert parse_poly("  0  ", 2, 3).is_zero()

    @pytest.mark.parametrize("bad", [
        "", "   ", "0 + x1", "x1 + 0", "x0", "x3", "x1^", "x1 +", "+ x1",
        "x1 x2", "0*x1", "3*x1", "4", "x1^x2", "*x1", "x1++x2", "x",
    ])
    def test_rejects(self, bad):
        with pytest.raises(ParseError):
            parse_poly(bad, 2, 3)

    def test_error_position(self):
        with pytest.raises(ParseError) as info:
            parse_poly("x1 + x9", 2, 3)
        assert info.value.position == 6  # points at the digit 9
        with pytest.raises(ParseError) as info:
            parse_poly("x1 $ x2", 2, 3)
        assert info.value.position == 3

    def test_bare_constant_terms(self):
        f = parse_poly("x1 + 2", 1, 3)
        assert f.terms == {(1,): 1, (0,): 2}
        assert parse_poly("1 + 2", 1, 5).terms == {(0,): 3}


class TestSubstitution:
    def test_column_convention(self):
        # columns carry the variable images: x1 -> x1 + x2 under a transvection
        m = ((1, 0), (1, 1))
        f = substitute_linear(poly_var(1, 2, 3), m)
        assert f == poly_var(1, 2, 3) + poly_var(2, 2, 3)
        assert substitute_linear(poly_var(2, 2, 3), m) == poly_var(2, 2, 3)

    def test_singular_collapse(self):
        m = ((1, 0), (0, 0))
        assert substitute_linear(poly_var(2, 2, 2), m).is_zero()
        assert substitute_linear(poly_var(1, 2, 2), m) == poly_var(1, 2, 2)

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_composition_law(self, p):
        rng = random.Random(p + 31)
        for _ in range(20):
            f = rand_poly(rng, 2, p, max_exp=3)
            m = [[rng.randrange(p) for _ in range(2)] for _ in range(2)]
            k = [[rng.randrange(p) for _ in range(2)] for _ in range(2)]
            # acting by m then by k equals acting once by k m
            assert substitute_linear(substitute_linear(f, m), k) == \
                substitute_linear(f, mat_mul(k, m, p))

    def test_powers_keyed_by_matrix(self):
        # Both invertible matrices send x1 to different images and f has x1^3
        # in every term, so one cached power of column 1 reused for the other
        # matrix would show; the singular matrix kills x2.
        n, p = 2, 5
        f = parse_poly("x1^3*x2^2 + 2*x1^3 + 4*x1^3*x2", n, p)
        mats = [((1, 0), (2, 1)), ((1, 0), (3, 1)), ((1, 0), (1, 0)), ((1, 0), (2, 1))]
        results = []
        for mat in mats:
            expected = Poly(n, p, {})
            for m, c in f.terms.items():
                term = poly_const(c, n, p)
                for j, a in enumerate(m):
                    image = Poly(n, p, {tuple(int(t == k) for t in range(n)): mat[k][j]
                                        for k in range(n)})
                    for _ in range(a):
                        term = schoolbook(term, image)
                expected = poly_add(expected, term)
            results.append(substitute_linear(f, mat))
            assert results[-1] == expected
        assert results[0] != results[1]
        assert results[0] == results[3]

    def test_identity_action(self):
        rng = random.Random(2)
        for _ in range(10):
            f = rand_poly(rng, 3, 3)
            assert substitute_linear(f, identity(3)) == f

    def test_ring_mismatch(self):
        with pytest.raises(ShapeError):
            substitute_linear(poly_one(2, 3), identity(3))
        with pytest.raises(ShapeError):
            substitute_linear(poly_one(2, 3), ((1, 0), (0, 1, 0)))

    def test_additive_and_multiplicative(self):
        rng = random.Random(17)
        m = ((1, 2), (1, 1))
        for _ in range(15):
            f = rand_poly(rng, 2, 3)
            g = rand_poly(rng, 2, 3)
            assert substitute_linear(poly_add(f, g), m) == \
                poly_add(substitute_linear(f, m), substitute_linear(g, m))
            assert substitute_linear(poly_mul(f, g), m) == \
                poly_mul(substitute_linear(f, m), substitute_linear(g, m))
