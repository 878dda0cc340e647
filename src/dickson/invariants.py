"""Dickson invariants of GL(n, F_p) and the bracket determinants behind them.

The bracket [e1, ..., en] is the Moore-type determinant det(xj ** p**ei),
rows indexed by the exponent sequence, columns by the variables.  Writing
L(n, s) for the bracket over 0..n with s omitted, and L_n = L(n, n), the
Dickson invariant Q_{n,s} is defined as the quotient L(n, s) / L_n, and
built by Dickson's recursion, which needs products only.  The Q's
generate the full ring of GL(n, F_p) invariants in F_p[x1..xn], with
Q_{n,0} equal to L_n ** (p-1).

Also here: the length-n recursion that rewrites a bracket with last entry
raised by n; the bracket quotients [0..n-1 without left, j] / L_n, built
by that recursion divided by L_n in one body (_quotient) for both
coordinate systems, so that nothing is divided: in x, through Q_{n,t},
they are P_coef and R_coef, which appear in closed forms for the primitive
Steenrod operations; in Dickson coordinates, through y_t = Q_{n,t}, they
are y_quotient; and exact GL(n, F_p) machinery (generators, enumeration,
invariance tests, invariant dimension counts by degree).
"""
from __future__ import annotations

import math
from contextvars import ContextVar
from functools import lru_cache
from itertools import permutations, product
from typing import Callable, Dict, Iterator, List, Set, Tuple

from .fp_poly import (
    EXPONENT_LIMIT,
    Matrix,
    Monomial,
    Poly,
    binom_mod_p,
    frobenius,
    poly_add,
    poly_const,
    poly_mul,
    poly_one,
    poly_pow,
    poly_scale,
    poly_var,
    poly_zero,
    require_prime,
    substitute_linear,
)

ESeq = Tuple[int, ...]

GL_ENUM_BOUND = 10 ** 6
DIMENSION_BOUND = 5000


class BoundExceeded(ValueError):
    """A configurable enumeration bound would be exceeded."""


# The budget of the verification case being run, or None.  The bracket
# recursion and the main form call its before_product(f_terms, g_terms)
# before their products (_ask_budget), which raises to stop the case.
case_budget: ContextVar = ContextVar("case_budget", default=None)


def _sign_unit(k: int, p: int) -> int:
    """(-1) ** k as a residue mod p."""
    return 1 if k % 2 == 0 else p - 1


@lru_cache(maxsize=None)
def bracket(n: int, es: ESeq, p: int) -> Poly:
    """The determinant det(xj ** p**ei) for the exponent sequence es.

    Expanded over permutations; transposed entries cancel, so a repeated
    exponent gives the zero polynomial without special casing.  Swapping
    two entries negates the result.
    """
    require_prime(p)
    es = tuple(es)
    if n < 1 or len(es) != n:
        raise ValueError(f"need exactly n = {n} exponents, got {es}")
    powers = []
    for e in es:
        if e < 0:
            raise ValueError(f"exponents must be nonneg, got {e}")
        q = p ** e
        if q >= EXPONENT_LIMIT:
            raise OverflowError(f"p**{e} exceeds 2**63")
        powers.append(q)
    if sum(powers) >= EXPONENT_LIMIT:
        raise OverflowError("bracket degree would exceed 2**63")
    terms = {}
    for sigma in permutations(range(n)):
        inversions = sum(
            1 for a in range(n) for b in range(a + 1, n) if sigma[a] > sigma[b]
        )
        coeff = _sign_unit(inversions, p)
        expo = [0] * n
        for row, col in enumerate(sigma):
            expo[col] = powers[row]
        m = tuple(expo)
        v = (terms.get(m, 0) + coeff) % p
        if v:
            terms[m] = v
        else:
            terms.pop(m, None)
    return Poly._make(n, p, terms)


def L(n: int, s: int, p: int) -> Poly:
    """The bracket over 0..n with s omitted; L(n, n) is the base bracket L_n."""
    if not 0 <= s <= n:
        raise ValueError(f"s = {s} outside 0..{n}")
    return bracket(n, tuple(k for k in range(n + 1) if k != s), p)


@lru_cache(maxsize=None)
def dickson_Q(n: int, s: int, p: int) -> Poly:
    """The Dickson invariant Q_{n,s}, of degree p**n - p**s, defined as the
    quotient L(n, s) / L_n and built by Dickson's recursion (_dickson_row).

    Conventions that keep downstream formulas total: Q_{n,s} = 0 for s < 0
    and Q_{n,n} = 1.
    """
    require_prime(p)
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    if s < 0:
        return poly_zero(n, p)
    if s == n:
        return poly_one(n, p)
    if s > n:
        raise ValueError(f"s = {s} exceeds n = {n}")
    return _dickson_row(n, p)[s]


@lru_cache(maxsize=None)
def _dickson_row(n: int, p: int) -> Tuple[Poly, ...]:
    """Q_{n,0}, .., Q_{n,n-1}, all from one run of Dickson's recursion (L. E.
    Dickson, Trans. AMS 12, 1911; C. Wilkerson, A primer on the Dickson
    invariants, 1983), with products only.

    The polynomial f_k(X) = sum over t of (-1)**(k-t) Q_{k,t} X**(p**t),
    the product of X - v over v in the span of x1..xk, satisfies
    f_k = f_{k-1}**p - V_k**(p-1) f_{k-1} with V_k = f_{k-1}(xk); so, from
    Q_{0,0} = 1 and with Q_{k,k} = 1,

        Q_{k,t} = Q_{k-1,t-1}**p + V_k**(p-1) Q_{k-1,t},
        V_k = sum over t of (-1)**(k-1-t) Q_{k-1,t} xk**(p**t).

    Every level lives in the n-variable ring.
    """
    q = [poly_one(n, p)]  # Q_{k,0}, .., Q_{k,k} at level k, from k = 0
    for k in range(1, n + 1):
        x = poly_var(k, n, p)
        v = poly_zero(n, p)
        for t, q_t in enumerate(q):
            term = poly_mul(q_t, frobenius(x, t))
            v = poly_add(v, poly_scale(term, _sign_unit(k - 1 - t, p)))
        v = poly_pow(v, p - 1)
        lower = [poly_zero(n, p)] + q  # Q_{k-1,t-1} at index t
        q = [poly_add(frobenius(lower[t], 1), poly_mul(v, q[t])) for t in range(k)]
        q.append(poly_one(n, p))
    return tuple(q[:n])


def _check_P_index(n: int, i: int, s: int) -> None:
    if not 0 <= s < n:
        raise ValueError(f"s = {s} outside 0..{n - 1}")
    if i < 1:
        raise ValueError(f"need i >= 1, got {i}")


def _prefix(n: int, left: int) -> ESeq:
    """0, .., n-1 with left left out: the bracket [prefix, j] is L_n times
    the quotient at (left, j)."""
    return tuple(k for k in range(n) if k != left)


def _P_bracket(n: int, i: int, s: int, p: int) -> Poly:
    """The bracket [0, .., s-1 omitted, .., n-1, i-1], zero when s = 0.

    P_coef is its quotient by L_n, so it equals L_n P_coef(n, i, s, p).
    """
    _check_P_index(n, i, s)
    if s == 0:
        return poly_zero(n, p)
    return bracket(n, _prefix(n, s - 1) + (i - 1,), p)


def _ask_budget(*products: Tuple[Poly, Poly]) -> None:
    """Ask the case budget, if set, about every product f g before any is
    formed."""
    budget = case_budget.get()
    if budget is not None:
        for f, g in products:
            budget.before_product(len(f.terms), len(g.terms))


def _recursion_sum(n: int, e: int, p: int, lows: List[Poly],
                   base: Callable[[int], Poly]) -> Poly:
    """sum over t in 0..n-1 of (-1)**(n+t-1) lows[t] base(t)**(p**e).

    The one step of the length-n bracket recursion, shared by the bracket
    side (recursion_rhs, base(t) = Q_{n,t}) and its quotients by L_n
    (_quotient, base(t) = Q_{n,t} in x or y_t in Dickson coordinates).
    base(t) is built only for a nonzero lows[t]; the case budget, if set,
    is asked about every product before any is formed.
    """
    factors = [(t, low, base(t)) for t, low in enumerate(lows) if low.terms]
    _ask_budget(*((low, b) for _, low, b in factors))
    total = poly_zero(n, p)
    for t, low, b in factors:
        term = poly_mul(low, frobenius(b, e))
        total = poly_add(total, poly_scale(term, _sign_unit(n + t - 1, p)))
    return total


def _quotient(n: int, left: int, j: int, p: int, lower: Callable[[int], Poly],
              base: Callable[[int], Poly]) -> Poly:
    """The bracket quotient [_prefix(n, left), j] / L_n, given lower(k), the
    same quotient at k < j, and base(t), Q_{n,t} in x or y_t in Dickson
    coordinates.

    For j < n it is (-1)**(n-1-left) at j = left, where the bracket is L_n
    with its rows permuted, and 0 otherwise (a repeated row).  Above that
    it is recursion_rhs(n, prefix, j - n, p) divided by L_n, with base(t)
    in place of Q_{n,t}:

        F(e + n) = sum over t of (-1)**(n+t-1) F(e + t) base(t)**(p**e).

    R_coef, P_coef and y_quotient are cached views of this one body.
    """
    if j < n:
        return poly_const(_sign_unit(n - 1 - left, p), n, p) if j == left else poly_zero(n, p)
    return _recursion_sum(n, j - n, p, [lower(j - n + t) for t in range(n)], base)


@lru_cache(maxsize=None)
def P_coef(n: int, i: int, s: int, p: int) -> Poly:
    """The bracket quotient [0, .., s-1 omitted, .., n-1, i-1] / L_n, that
    is _P_bracket(n, i, s, p) / L_n: the quotient at (left, j) =
    (s - 1, i - 1) in x (_quotient), with no division.

    Zero when s = 0, and automatically zero whenever i - 1 collides with a
    retained entry (the bracket then has a repeated row).  Homogeneous of
    degree p**(i-1) - p**(s-1) otherwise; for i <= n it is (-1)**(n-s) at
    i = s and zero otherwise.  A form that needs only L_n P takes the
    bracket itself.
    """
    _check_P_index(n, i, s)
    if s == 0:
        return poly_zero(n, p)
    return _quotient(n, s - 1, i - 1, p, lambda j: P_coef(n, j + 1, s, p),
                     lambda t: dickson_Q(n, t, p))


@lru_cache(maxsize=None)
def R_coef(n: int, i: int, p: int) -> Poly:
    """The bracket quotient [0, 1, .., n-2, i-1] / L_n: the quotient at
    (left, j) = (n - 1, i - 1) in x (_quotient), with no division.

    Equals 1 at i = n, vanishes for 1 <= i <= n - 1, and is homogeneous of
    degree p**(i-1) - p**(n-1) for i > n.
    """
    if i < 1:
        raise ValueError(f"need i >= 1, got {i}")
    return _quotient(n, n - 1, i - 1, p, lambda j: R_coef(n, j + 1, p),
                     lambda t: dickson_Q(n, t, p))


def recursion_rhs(n: int, prefix: ESeq, e: int, p: int) -> Poly:
    """Right side of the bracket recursion for [prefix, e + n]:

        sum over s in 0..n-1 of (-1)**(n+s-1) [prefix, e + s] Q_{n,s}**(p**e)

    which equals bracket(n, prefix + (e + n,), p) identically.  A zero
    bracket (a repeated row) is skipped before its Q factor is built, and
    the case budget, if set, is asked about every product before any is
    formed.
    """
    prefix = tuple(prefix)
    if len(prefix) != n - 1:
        raise ValueError(f"prefix must have n - 1 = {n - 1} entries, got {prefix}")
    if e < 0:
        raise ValueError(f"need e >= 0, got {e}")
    lows = [bracket(n, prefix + (e + s,), p) for s in range(n)]
    return _recursion_sum(n, e, p, lows, lambda s: dickson_Q(n, s, p))


@lru_cache(maxsize=None)
def y_quotient(n: int, left: int, j: int, p: int) -> Poly:
    """The bracket quotient [0, .., left omitted, .., n-1, j] / L_n in
    Dickson coordinates (_quotient with base(t) = y_t): a polynomial in
    y_0, .., y_{n-1}, stored as an n-variable Poly whose variable x(t+1) is
    y_t, that becomes the quotient under y_t -> Q_{n,t}.

    y -> Q is a ring map that commutes with Frobenius, so wherever the
    recursion instances [prefix, e + n] = recursion_rhs(n, prefix, e, p)
    hold, the image of y_quotient(n, left, j, p) times L_n is the bracket.
    R_coef(n, i, p) is the image of y_quotient(n, n - 1, i - 1, p),
    P_coef(n, i, s, p) that of y_quotient(n, s - 1, i - 1, p); both are far
    smaller here (R_{2,15} at p = 3: 377 terms against 2,391,484).
    """
    require_prime(p)
    if not 0 <= left < n:
        raise ValueError(f"left = {left} outside 0..{n - 1}")
    if j < 0:
        raise ValueError(f"need j >= 0, got {j}")
    return _quotient(n, left, j, p, lambda k: y_quotient(n, left, k, p),
                     lambda t: poly_var(t + 1, n, p))


def gl_order(n: int, p: int) -> int:
    """The order of GL(n, F_p): product of (p**n - p**k) for k in 0..n-1."""
    return math.prod(p ** n - p ** k for k in range(n))


def enumerate_gl(n: int, p: int, bound: int = GL_ENUM_BOUND) -> List[Matrix]:
    """All invertible n x n matrices over F_p, if the group is small enough.

    Raises BoundExceeded when |GL(n, F_p)| > bound; use gl_generators for
    larger groups.
    """
    require_prime(p)
    order = gl_order(n, p)
    if order > bound:
        raise BoundExceeded(
            f"|GL({n}, F_{p})| = {order} exceeds the bound {bound}"
        )
    out = []
    for flat in product(range(p), repeat=n * n):
        mat = Matrix(p, tuple(flat[r * n:(r + 1) * n] for r in range(n)))
        if mat.is_invertible():
            out.append(mat)
    assert len(out) == order
    return out


def _least_primitive_root(p: int) -> int:
    if p == 2:
        return 1
    phi = p - 1
    factors = set()
    m, q = phi, 2
    while q * q <= m:
        while m % q == 0:
            factors.add(q)
            m //= q
        q += 1
    if m > 1:
        factors.add(m)
    for g in range(2, p):
        if all(pow(g, phi // q, p) != 1 for q in factors):
            return g
    raise ArithmeticError(f"no primitive root found mod {p}")


@lru_cache(maxsize=None)
def gl_generators(n: int, p: int) -> Tuple[Matrix, ...]:
    """A generating set of at most three matrices for GL(n, F_p).

    For n >= 2: the transvection I + E_12 and the permutation matrix C of
    the n-cycle (1 2 .. n).  For p > 2 also diag(g, 1, .., 1), g the
    least primitive root.  At n = 1 only the diagonal matrix remains, so
    (n, p) = (1, 2) gives the empty set.

    Why they generate: conjugating I + E_12 by powers of C gives
    I + E_23, .., I + E_n1.  The commutator of I + E_ij and I + E_jk is
    I + E_ik, so chains of these reach every I + E_ik (i != k), and its
    c-th power is the elementary transvection I + c E_ik.  Elementary
    transvections generate SL(n, F_p), and the diagonal matrix then
    reaches every determinant (at p = 2 the determinant is always 1).
    """
    require_prime(p)
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    gens = []
    if n >= 2:
        transvection = [[int(a == b) for b in range(n)] for a in range(n)]
        transvection[0][1] = 1
        cycle = [[int(b == (a + 1) % n) for b in range(n)] for a in range(n)]
        gens += [Matrix(p, transvection), Matrix(p, cycle)]
    if p > 2:
        diagonal = [[int(a == b) for b in range(n)] for a in range(n)]
        diagonal[0][0] = _least_primitive_root(p)
        gens.append(Matrix(p, diagonal))
    return tuple(gens)


def is_invariant(f: Poly) -> bool:
    """Whether f is fixed by every generator of GL(n, F_p), hence by the group."""
    return all(substitute_linear(f, m) == f for m in gl_generators(f.n, f.p))


def _monomials_of_degree(n: int, d: int, step: int) -> Iterator[Monomial]:
    # Degree-d exponent tuples whose entries are all multiples of step.
    if n == 1:
        if d % step == 0:
            yield (d,)
        return
    for first in range(0, d + 1, step):
        for rest in _monomials_of_degree(n - 1, d - first, step):
            yield (first,) + rest


def _cyclic_orbits(n: int, d: int, step: int) -> Iterator[Set[Monomial]]:
    """The orbits of the n-cycle on the monomials of _monomials_of_degree;
    each orbit is yielded once, at its least member."""
    for m in _monomials_of_degree(n, d, step):
        orbit = {m[r:] + m[:r] for r in range(n)}
        if m == min(orbit):
            yield orbit


def _transvection_image(m: Monomial, p: int,
                        lucas: Dict[int, List[Tuple[int, int]]]) -> Iterator[Tuple[Monomial, int]]:
    """The terms of (T - I) m for T = I + E_12, which sends x2 to x1 + x2:

        x1**a x2**b r  ->  sum over k >= 1 of C(b, k) x1**(a+k) x2**(b-k) r.

    lucas maps b to its nonzero (k, C(b, k) mod p), k >= 1; rows missing
    from it are filled in, so one dict can serve many calls.
    """
    a, b = m[0], m[1]
    row = lucas.get(b)
    if row is None:
        row = lucas[b] = [(k, c) for k in range(1, b + 1) if (c := binom_mod_p(b, k, p))]
    rest = m[2:]
    for k, c in row:
        yield (a + k, b - k) + rest, c


def invariant_space_dimension(n: int, p: int, d: int, bound: int = DIMENSION_BOUND) -> int:
    """Dimension over F_p of the GL(n, F_p)-invariant polynomials of degree d.

    GL(n, F_p) is generated by the n-cycle C, D = diag(g, 1, .., 1) for a
    primitive root g mod p, and, for n >= 2, the transvection T = I + E_12
    (see gl_generators).  Exact linear algebra on a basis of the invariants
    of <C, D>: the conjugates of D by powers of C generate the diagonal
    torus, which scales each monomial by a character; so the invariants of
    <C, D> are spanned by the C-orbit sums of the monomials whose exponents
    are all multiples of p - 1 (L. Smith, Polynomial Invariants of Finite
    Groups, 1995; Derksen and Kemper, Computational Invariant Theory,
    2002).  At p = 2, D is the identity and every monomial counts.

    The GL-invariants are the kernel of T - I on that basis, T the one
    generator that is not monomial.  Each orbit sum gives one
    sparse row, its image under T - I read off Lucas binomials
    (x1**a x2**b r -> sum over k >= 1 of C(b, k) x1**(a+k) x2**(b-k) r);
    the rows are reduced mod p against pivot rows stored under their least
    monomial, and the dimension is the number of orbits minus the rank.
    At n = 1 there is no T, and every orbit sum is invariant.

    bound caps the full degree-d monomial basis, C(d + n - 1, n - 1)
    elements, not the smaller orbit basis: BoundExceeded when it is larger.
    """
    require_prime(p)
    if n < 1 or d < 0:
        raise ValueError(f"bad (n, d) = ({n}, {d})")
    basis_size = math.comb(d + n - 1, n - 1)
    if basis_size > bound:
        raise BoundExceeded(
            f"degree-{d} monomial basis has {basis_size} elements, bound is {bound}"
        )
    orbits = 0
    pivots: Dict[Monomial, Dict[Monomial, int]] = {}
    lucas: Dict[int, List[Tuple[int, int]]] = {}
    for orbit in _cyclic_orbits(n, d, p - 1):
        orbits += 1
        if n < 2:
            continue
        row: Dict[Monomial, int] = {}
        for m in orbit:
            for mm, c in _transvection_image(m, p, lucas):
                v = (row.get(mm, 0) + c) % p
                if v:
                    row[mm] = v
                else:
                    del row[mm]
        while row:
            lead = min(row)
            pivot = pivots.get(lead)
            if pivot is None:
                inv = pow(row[lead], p - 2, p)
                pivots[lead] = {key: c * inv % p for key, c in row.items()}
                break
            factor = row[lead]
            for key, c in pivot.items():
                v = (row.get(key, 0) - factor * c) % p
                if v:
                    row[key] = v
                else:
                    del row[key]
    return orbits - len(pivots)


def dickson_monomial_count(n: int, p: int, d: int) -> int:
    """How many monomials in Q_{n,0}, .., Q_{n,n-1} have total degree d.

    Counts exponent sequences (a_0, .., a_{n-1}) with
    sum a_s * (p**n - p**s) = d; this is the coefficient-wise Hilbert
    series of the Dickson algebra, the polynomial ring on the Q_{n,s}.
    """
    if d < 0:
        return 0
    counts = [0] * (d + 1)
    counts[0] = 1
    for s in range(n):
        w = p ** n - p ** s
        for v in range(w, d + 1):
            counts[v] += counts[v - w]
    return counts[d]
