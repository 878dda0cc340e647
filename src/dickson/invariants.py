"""Dickson invariants of GL(n, F_p) and the bracket determinants behind them.

The bracket [e1, ..., en] is the Moore-type determinant det(xj ** p**ei),
rows indexed by the exponent sequence, columns by the variables.  Writing
L(n, s) for the bracket over 0..n with s omitted, and L_n = L(n, n), the
Dickson invariant Q_{n,s} is the exact quotient L(n, s) / L_n.  These
quotients generate the full ring of GL(n, F_p) invariants in F_p[x1..xn],
with Q_{n,0} equal to L_n ** (p-1).

Also here: the bracket quotients P_coef and R_coef that appear in closed
forms for the primitive Steenrod operations, the length-n recursion that
rewrites a bracket with last entry raised by n, and exact GL(n, F_p)
machinery (generators, enumeration, invariance tests, invariant dimension
counts by degree).
"""
from __future__ import annotations

import math
from functools import lru_cache
from itertools import permutations, product
from typing import Dict, Iterator, List, Set, Tuple

from .fp_poly import (
    EXPONENT_LIMIT,
    Matrix,
    Monomial,
    Poly,
    binom_mod_p,
    exact_div,
    frobenius,
    poly_add,
    poly_mul,
    poly_one,
    poly_pow,
    poly_scale,
    poly_zero,
    require_prime,
    substitute_linear,
)

ESeq = Tuple[int, ...]

GL_ENUM_BOUND = 10 ** 6
DIMENSION_BOUND = 5000


class BoundExceeded(ValueError):
    """A configurable enumeration bound would be exceeded."""


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
    """The Dickson invariant Q_{n,s} = L(n, s) / L_n, of degree p**n - p**s.

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
    return exact_div(L(n, s, p), L(n, n, p))


@lru_cache(maxsize=None)
def P_coef(n: int, i: int, s: int, p: int) -> Poly:
    """The bracket quotient [0, .., s-1 omitted, .., n-1, i-1] / L_n.

    Zero when s = 0, and automatically zero whenever i - 1 collides with a
    retained entry (the bracket then has a repeated row).  Homogeneous of
    degree p**(i-1) - p**(s-1) otherwise.
    """
    if not 0 <= s < n:
        raise ValueError(f"s = {s} outside 0..{n - 1}")
    if i < 1:
        raise ValueError(f"need i >= 1, got {i}")
    if s == 0:
        return poly_zero(n, p)
    entries = tuple(k for k in range(n) if k != s - 1) + (i - 1,)
    return exact_div(bracket(n, entries, p), L(n, n, p))


@lru_cache(maxsize=None)
def R_coef(n: int, i: int, p: int) -> Poly:
    """The bracket quotient [0, 1, .., n-2, i-1] / L_n.

    Equals 1 at i = n, vanishes for 1 <= i <= n - 1, and is homogeneous of
    degree p**(i-1) - p**(n-1) for i > n.
    """
    if i < 1:
        raise ValueError(f"need i >= 1, got {i}")
    entries = tuple(range(n - 1)) + (i - 1,)
    return exact_div(bracket(n, entries, p), L(n, n, p))


def recursion_rhs(n: int, prefix: ESeq, e: int, p: int) -> Poly:
    """Right side of the bracket recursion for [prefix, e + n]:

        sum over s in 0..n-1 of (-1)**(n+s-1) [prefix, e + s] Q_{n,s}**(p**e)

    which equals bracket(n, prefix + (e + n,), p) identically.
    """
    prefix = tuple(prefix)
    if len(prefix) != n - 1:
        raise ValueError(f"prefix must have n - 1 = {n - 1} entries, got {prefix}")
    if e < 0:
        raise ValueError(f"need e >= 0, got {e}")
    total = poly_zero(n, p)
    for s in range(n):
        term = poly_mul(
            bracket(n, prefix + (e + s,), p),
            frobenius(dickson_Q(n, s, p), e),
        )
        total = poly_add(total, poly_scale(term, _sign_unit(n + s - 1, p)))
    return total


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


def _is_diagonal(m: Matrix) -> bool:
    return all(not v for r, row in enumerate(m.entries) for c, v in enumerate(row) if r != c)


def _is_monomial(m: Matrix) -> bool:
    # One nonzero entry per row: m permutes and scales the variables.
    return all(sum(1 for v in row if v) == 1 for row in m.entries)


def invariant_space_dimension(n: int, p: int, d: int, bound: int = DIMENSION_BOUND) -> int:
    """Dimension over F_p of the GL(n, F_p)-invariant polynomials of degree d.

    Exact linear algebra on a basis of the invariants of the monomial part
    of gl_generators: the n-cycle C and, for p > 2, D = diag(g, 1, .., 1).
    The conjugates of D by powers of C generate the diagonal torus, which
    scales each monomial by a character; so the invariants of <C, D> are
    spanned by the C-orbit sums of the monomials whose exponents are all
    multiples of p - 1 (L. Smith, Polynomial Invariants of Finite Groups,
    1995; Derksen and Kemper, Computational Invariant Theory, 2002).  At
    p = 2 there is no D and every monomial counts.

    The GL-invariants are the kernel of T - I on that basis, T = I + E_12
    the one generator that is not monomial.  Each orbit sum gives one
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
    gens = gl_generators(n, p)
    step = p - 1 if any(_is_diagonal(m) for m in gens) else 1
    transvection = not all(_is_monomial(m) for m in gens)
    orbits = 0
    pivots: Dict[Monomial, Dict[Monomial, int]] = {}
    lucas: Dict[int, List[Tuple[int, int]]] = {}
    for orbit in _cyclic_orbits(n, d, step):
        orbits += 1
        if not transvection:
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
