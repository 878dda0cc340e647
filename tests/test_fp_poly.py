"""Core polynomial arithmetic: construction, ring laws, division, text form."""
import random

import pytest

from dickson.fp_poly import (
    EXPONENT_LIMIT,
    Matrix,
    NotDivisible,
    ParseError,
    Poly,
    ShapeError,
    exact_div,
    format_poly,
    frobenius,
    grevlex_key,
    is_homogeneous,
    is_prime,
    parse_poly,
    poly_add,
    poly_const,
    poly_mul,
    poly_one,
    poly_pow,
    poly_scale,
    poly_sub,
    poly_var,
    poly_zero,
    require_prime,
    substitute_linear,
    topological_degree,
)


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


class TestFrobeniusAndPow:
    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_frobenius_is_p_power(self, p):
        rng = random.Random(p)
        for _ in range(20):
            f = rand_poly(rng, 2, p, max_exp=3)
            assert frobenius(f, 1) == poly_pow(f, p)
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

    def test_pow_edge_cases(self):
        z = poly_zero(2, 5)
        assert poly_pow(z, 0) == poly_one(2, 5)
        assert poly_pow(z, 4).is_zero()
        assert poly_pow(z, 5).is_zero()
        with pytest.raises(ValueError):
            poly_pow(poly_one(2, 5), -1)


class TestExactDiv:
    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_roundtrip(self, p):
        rng = random.Random(p + 100)
        for _ in range(40):
            f = rand_poly(rng, 2, p)
            g = rand_poly(rng, 2, p)
            if g.is_zero():
                continue
            assert exact_div(poly_mul(f, g), g) == f

    def test_not_divisible(self):
        x1 = poly_var(1, 2, 3)
        x2 = poly_var(2, 2, 3)
        with pytest.raises(NotDivisible):
            exact_div(x1 * x1 + x2, x1)
        with pytest.raises(NotDivisible):
            exact_div(x1 + poly_one(2, 3), x1 * x2)

    @pytest.mark.parametrize("f, g", [
        pytest.param(parse_poly("x1*x2^2 + 3*x1 + 4", 2, 5),
                     parse_poly("x1^2 + 2*x2 + 2", 2, 5), id="inhomogeneous"),
        pytest.param(parse_poly("x1^3 + 2*x2*x3^2 + x1", 3, 3),
                     parse_poly("x2^2 + x1*x3 + 1", 3, 3), id="n3"),
        pytest.param(parse_poly("x1^7 + 1", 1, 2), parse_poly("x1^3 + x1 + 1", 1, 2), id="n1"),
        pytest.param(Poly(2, 5, {(BIG, 0): 1, (0, 1): 2}),
                     Poly(2, 5, {(BIG - 3, 2): 3, (1, 0): 1}), id="near-2**62"),
        pytest.param(parse_poly("3", 2, 5), parse_poly("2", 2, 5), id="constants"),
    ])
    def test_roundtrip_fixed(self, f, g):
        fg = schoolbook(f, g)
        assert exact_div(fg, g) == f
        assert exact_div(fg, f) == g

    @pytest.mark.parametrize("f, g, n", [
        # the lead x1^2 beats x1*x2 in grevlex, so it packs to a larger int,
        # yet it has fewer factors x2
        pytest.param("x1^2", "x1*x2", 2, id="same-degree"),
        pytest.param("x1^3 + x2", "x1*x2 + 1", 2, id="inhomogeneous"),
        pytest.param("x1^5*x3 + x2", "x2^2*x3", 3, id="higher-degree"),
    ])
    def test_not_divisible_per_field(self, f, g, n):
        f, g = parse_poly(f, n, 5), parse_poly(g, n, 5)
        lead = max(f.terms, key=grevlex_key)
        glead = max(g.terms, key=grevlex_key)
        assert grevlex_key(lead) > grevlex_key(glead)
        assert any(a < b for a, b in zip(lead, glead))
        with pytest.raises(NotDivisible):
            exact_div(f, g)

    def test_zero_divisor(self):
        with pytest.raises(ZeroDivisionError):
            exact_div(poly_one(2, 3), poly_zero(2, 3))

    def test_zero_dividend(self):
        assert exact_div(poly_zero(2, 3), poly_var(1, 2, 3)).is_zero()

    def test_constant_divisor(self):
        f = parse_poly("x1^2 + 2*x2", 2, 5)
        assert exact_div(poly_scale(f, 3), poly_const(3, 2, 5)) == f


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


class TestMatrix:
    def test_identity_and_det(self):
        assert Matrix.identity(3, 5).det() == 1
        assert Matrix(2, [[1, 1], [1, 1]]).det() == 0
        assert Matrix(5, [[2, 1], [1, 3]]).det() == 0  # 6 - 1 = 5
        assert Matrix(3, [[1, 2], [0, 2]]).det() == 2

    def test_det_matches_cofactor_expansion(self):
        rng = random.Random(9)
        for _ in range(25):
            rows = [[rng.randrange(5) for _ in range(3)] for _ in range(3)]
            m = Matrix(5, rows)
            a, b, c = rows[0]
            d, e, f = rows[1]
            g, h, i = rows[2]
            expected = (a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)) % 5
            assert m.det() == expected

    def test_shape_errors(self):
        with pytest.raises(ShapeError):
            Matrix(3, [[1, 2]])
        with pytest.raises(ShapeError):
            Matrix(3, [])
        with pytest.raises(ShapeError):
            Matrix(3, [[1]]).mul(Matrix(3, [[1, 0], [0, 1]]))
        with pytest.raises(ShapeError):
            Matrix(3, [[1]]).mul(Matrix(5, [[1]]))

    def test_mul_and_eq(self):
        a = Matrix(5, [[1, 2], [3, 4]])
        b = Matrix(5, [[0, 1], [1, 0]])
        assert a @ b == Matrix(5, [[2, 1], [4, 3]])
        assert a @ Matrix.identity(2, 5) == a
        assert hash(a) == hash(Matrix(5, [[1, 2], [3, 4]]))


class TestSubstitution:
    def test_column_convention(self):
        # columns carry the variable images: x1 -> x1 + x2 under a transvection
        m = Matrix(3, [[1, 0], [1, 1]])
        f = substitute_linear(poly_var(1, 2, 3), m)
        assert f == poly_var(1, 2, 3) + poly_var(2, 2, 3)
        assert substitute_linear(poly_var(2, 2, 3), m) == poly_var(2, 2, 3)

    def test_singular_collapse(self):
        m = Matrix(2, [[1, 0], [0, 0]])
        assert substitute_linear(poly_var(2, 2, 2), m).is_zero()
        assert substitute_linear(poly_var(1, 2, 2), m) == poly_var(1, 2, 2)

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_composition_law(self, p):
        rng = random.Random(p + 31)
        for _ in range(20):
            f = rand_poly(rng, 2, p, max_exp=3)
            m = Matrix(p, [[rng.randrange(p) for _ in range(2)] for _ in range(2)])
            k = Matrix(p, [[rng.randrange(p) for _ in range(2)] for _ in range(2)])
            # acting by m then by k equals acting once by k @ m
            assert substitute_linear(substitute_linear(f, m), k) == \
                substitute_linear(f, k @ m)

    def test_powers_keyed_by_matrix(self):
        # Both invertible matrices send x1 to different images and f has x1^3
        # in every term, so one cached power of column 1 reused for the other
        # matrix would show; the singular matrix kills x2.
        n, p = 2, 5
        f = parse_poly("x1^3*x2^2 + 2*x1^3 + 4*x1^3*x2", n, p)
        mats = [Matrix(p, [[1, 0], [2, 1]]), Matrix(p, [[1, 0], [3, 1]]),
                Matrix(p, [[1, 0], [1, 0]]), Matrix(p, [[1, 0], [2, 1]])]
        results = []
        for mat in mats:
            expected = Poly(n, p, {})
            for m, c in f.terms.items():
                term = poly_const(c, n, p)
                for j, a in enumerate(m):
                    image = Poly(n, p, {tuple(int(t == k) for t in range(n)): mat.entries[k][j]
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
            assert substitute_linear(f, Matrix.identity(3, 3)) == f

    def test_ring_mismatch(self):
        with pytest.raises(ShapeError):
            substitute_linear(poly_one(2, 3), Matrix.identity(2, 5))
        with pytest.raises(ShapeError):
            substitute_linear(poly_one(2, 3), Matrix.identity(3, 3))

    def test_additive_and_multiplicative(self):
        rng = random.Random(17)
        m = Matrix(3, [[1, 2], [1, 1]])
        for _ in range(15):
            f = rand_poly(rng, 2, 3)
            g = rand_poly(rng, 2, 3)
            assert substitute_linear(poly_add(f, g), m) == \
                poly_add(substitute_linear(f, m), substitute_linear(g, m))
            assert substitute_linear(poly_mul(f, g), m) == \
                poly_mul(substitute_linear(f, m), substitute_linear(g, m))


class TestGrading:
    def test_topological_degree(self):
        assert topological_degree(parse_poly("x1^3", 1, 2)) == 3
        assert topological_degree(parse_poly("x1^3", 1, 3)) == 6
        assert topological_degree(poly_zero(1, 5)) == -1

    def test_is_homogeneous(self):
        assert is_homogeneous(parse_poly("x1^2 + x1*x2", 2, 3))
        assert not is_homogeneous(parse_poly("x1^2 + x2", 2, 3))
        assert is_homogeneous(poly_zero(2, 3))
        assert is_homogeneous(poly_one(2, 3))
