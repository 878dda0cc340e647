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
are y_quotient; and exact GL(n, F_p) machinery (the three generators,
each an image of a monomial applied by fp_poly's term map _act, T's read
off fp_poly's Lucas rows; invariance tests; dimension counts by degree,
their rows summed from the same Lucas rows by tail block).
"""
from __future__ import annotations

import math
from functools import lru_cache, partial
from itertools import permutations, repeat
from typing import Callable, Dict, Iterator, List, Tuple

from .fp_poly import (
    EXPONENT_LIMIT,
    _act,
    _add_into,
    _lucas_row,
    Monomial,
    Poly,
    case_budget,
    poly_const,
    poly_dot,
    poly_mul,  # unused here; perfbench/test_perfbench.py checks that its tracer rebinds it
    poly_one,
    poly_pow,
    poly_var,
    poly_zero,
    require_prime,
)

ESeq = Tuple[int, ...]


def _sign_unit(k: int, p: int) -> int:
    """(-1) ** k as a residue mod p."""
    return 1 if k % 2 == 0 else p - 1


@lru_cache(maxsize=None)
def _signed_permutations(n: int) -> Tuple[Tuple[Tuple[int, ...], bool], ...]:
    """Every permutation of 0..n-1 with whether it is odd (an odd number of
    inversions), counted once per n for the Leibniz expansion."""
    return tuple(
        (sigma, sum(sigma[a] > sigma[b] for a in range(n) for b in range(a + 1, n)) % 2 == 1)
        for sigma in permutations(range(n))
    )


@lru_cache(maxsize=None)
def bracket(n: int, es: ESeq, p: int) -> Poly:
    """The determinant det(xj ** p**ei) for the exponent sequence es.

    A repeated exponent repeats a row, so the bracket is zero at once.
    Otherwise the rows are distinct powers of p, the n! terms of the
    Leibniz expansion (_signed_permutations) are distinct monomials, and
    each is +-1: variable j gets exponent p**e_sigma(j) with the sign of
    sigma.  Swapping two entries negates the result.  The case budget, if
    set, is asked about the n! terms before any is built.
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
    if len(set(es)) < n:
        return poly_zero(n, p)
    if (budget := case_budget.get()) is not None:
        budget.before_terms(math.factorial(n))
    return Poly._make(n, p, {
        tuple([powers[row] for row in sigma]): p - 1 if odd else 1
        for sigma, odd in _signed_permutations(n)
    })


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
    one = poly_one(n, p)
    q = [one]  # Q_{k,0}, .., Q_{k,k} at level k, from k = 0
    for k in range(1, n + 1):
        x = poly_var(k, n, p)
        v = poly_dot([(_sign_unit(k - 1 - t, p), q_t, x, t) for t, q_t in enumerate(q)], n, p)
        v = poly_pow(v, p - 1)
        lower = [poly_zero(n, p)] + q  # Q_{k-1,t-1} at index t
        q = [poly_dot([(1, one, lower[t], 1), (1, v, q[t], 0)], n, p) for t in range(k)]
        q.append(one)
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


def _recursion_sum(n: int, e: int, p: int, lows: List[Poly],
                   base: Callable[[int], Poly]) -> Poly:
    """sum over t in 0..n-1 of (-1)**(n+t-1) lows[t] base(t)**(p**e).

    The one step of the length-n bracket recursion, shared by the bracket
    side (recursion_rhs, base(t) = Q_{n,t}) and its quotients by L_n
    (_quotient, base(t) = Q_{n,t} in x or y_t in Dickson coordinates).
    base(t) is built only for a nonzero lows[t], and poly_dot reads its
    Frobenius image without a copy.  The products add in one poly_dot, so
    none is built in full: on the bracket side the sum cancels down to an
    n!-term bracket.  The certificate of the main theorem
    (verify._step_holds) writes the y-side sum again on its own, so that a
    wiring fault here fails a check.
    """
    return poly_dot([(_sign_unit(n + t - 1, p), low, base(t), e)
                     for t, low in enumerate(lows) if low.terms], n, p)


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
    formed.  Only the recursion family checks these instances in x, and
    calls this once per nondecreasing prefix and e of its box, each other
    ordering following from its rows (verify._case_recursion); the
    certificate of the main theorem derives them from the roots of
    Dickson's polynomial (verify._roots_hold) instead.
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
    bracket recursion instances [prefix, e + n] = recursion_rhs(n, prefix,
    e, p) hold, the image of y_quotient(n, left, j, p) times L_n is the
    bracket.  They all hold once Dickson's polynomial vanishes at each xj,
    which is how the certificate of the main theorem proves them
    (verify._step_holds), with the y-side recursion checked as stated.
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


@lru_cache(maxsize=None)
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


def _transvection_image(m: Monomial, p: int) -> Iterator[Tuple[Monomial, int]]:
    """The terms of (T - I) m, T = I + E_12 sending x2 to x1 + x2:
    x1**a x2**b r -> sum over k >= 1 of C(b, k) x1**(a+k) x2**(b-k) r."""
    a, b, rest = m[0], m[1], m[2:]
    for k, c in _lucas_row(b, p):
        yield (a + k, b - k) + rest, c


def _rotate(m: Monomial) -> Monomial:
    """The cycle C on a monomial: C sends xj to x(j-1) and x1 to xn, so the
    exponent of x(j+1) moves to xj."""
    return m[1:] + m[:1]


# The generators of GL(n, F_p), each as a row (present, image): whether
# (n, p) has it, and the terms of its image of a monomial (for _act).  In
# order: the transvection T = I + E_12, sending x2 to x1 + x2; the n-cycle
# C, sending xj to x(j-1) and x1 to xn; and D = diag(g, 1, .., 1), g the
# least primitive root, scaling x1**a by g**a.  Column j of a generator's
# matrix is its image of xj.
_GENERATORS = (
    (lambda n, p: n >= 2,
     lambda m, p: ((m, 1), *_transvection_image(m, p))),
    (lambda n, p: n >= 2,
     lambda m, p: ((_rotate(m), 1),)),
    (lambda n, p: p > 2,
     lambda m, p: ((m, pow(_least_primitive_root(p), m[0], p)),)),
)


def generator_actions(n: int, p: int) -> Tuple[Callable[[Poly], Poly], ...]:
    """The actions on F_p[x1..xn] of a generating set of at most three
    elements of GL(n, F_p), in the order of _GENERATORS: T and C for
    n >= 2, and D for p > 2.  Each returns the exact image of f, read off
    its terms in closed form.  At n = 1 only D remains, so (n, p) = (1, 2)
    gives the empty set.

    Why they generate: conjugating T = I + E_12 by powers of C gives
    I + E_23, .., I + E_n1.  The commutator of I + E_ij and I + E_jk is
    I + E_ik, so chains of these reach every I + E_ik (i != k), and its
    c-th power is the elementary transvection I + c E_ik.  Elementary
    transvections generate SL(n, F_p), and D then reaches every
    determinant (at p = 2 the determinant is always 1).
    """
    require_prime(p)
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    return tuple(partial(_act, image=image) for present, image in _GENERATORS if present(n, p))


def is_invariant(f: Poly) -> bool:
    """Whether f is fixed by every generator of GL(n, F_p), hence by the group."""
    return all(act(f) == f for act in generator_actions(f.n, f.p))


def _sorted_exponents(n: int, d: int, step: int, top: int) -> Iterator[Monomial]:
    """The nonincreasing n-tuples of multiples of step, each at most top,
    that sum to d."""
    if n == 1:
        if d <= top and d % step == 0:
            yield (d,)
        return
    high = min(d, top)
    for first in range(high - high % step, -1, -step):
        if first * n < d:
            return
        for rest in _sorted_exponents(n - 1, d - first, step, first):
            yield (first,) + rest


# A coordinate of a dimension count's row: the x1 exponent and the sorted
# x3..xn exponents of a monomial, whose x2 exponent the degree fixes.
_RowKey = Tuple[int, Monomial]


@lru_cache(maxsize=4096)
def _pair_image(a: int, b: int, p: int) -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
    """The x1 exponents and the coefficients of (T - I)(x1**a x2**b + x1**b x2**a),
    one member when a = b, each entry x1**e x2**(a+b-e) named by e.

    The image of x1**a x2**b is the Lucas row of b shifted by a.  The
    longer of the two rows is entered as it is, and the shorter one merged
    into it mod p.  The x1 exponents come in no set order.
    """
    e, row, f, short = a, _lucas_row(b, p), b, _lucas_row(a, p)
    if len(short) > len(row):
        e, row, f, short = f, short, e, row
    image = {e + k: c for k, c in row}
    if a != b:
        _add_into(image, ((f + k, c) for k, c in short), 1, p)
    return tuple(image), tuple(image.values())


def invariant_space_dimension(n: int, p: int, d: int) -> int:
    """Dimension over F_p of the GL(n, F_p)-invariant polynomials of degree d.

    Exact linear algebra on the orbit sums of the monomial group (L. Smith,
    Polynomial Invariants of Finite Groups, 1995; Derksen and Kemper,
    Computational Invariant Theory, 2002):

    - The basis.  GL(n, F_p) is generated by the permutation matrices, the
      diagonal torus and T = I + E_12 (see generator_actions).  The
      invariants of the monomial group (S_n with the torus) are spanned by
      the S_n-orbit sums m_lambda, one for each nonincreasing n-tuple
      lambda of multiples of p - 1 summing to d (_sorted_exponents; at
      p = 2 every entry counts).  So the GL-invariants of degree d are the
      kernel of T - I on the span of the m_lambda, and the dimension is the
      number of lambdas minus the rank.
    - The columns.  The permutations of x3..xn commute with T and fix each
      m_lambda, so (T - I) m_lambda is symmetric in x3..xn.  Its
      coefficients at the monomials whose x3..xn exponents are
      nonincreasing therefore determine it, and keeping only those
      coefficients leaves the rank unchanged.
    - The rows by tail block.  T keeps the x3..xn exponents, so those
      coefficients come only from the orbit members that already have a
      sorted tail: one per ordered pick (a, b) of two entries of lambda
      for x1 and x2, the rest kept sorted.  Picks of equal values give the
      same member, so each distinct value pair {a, b} of lambda gives one
      tail tau, lambda without one a and one b (still sorted), and the
      members x1**a x2**b tau and x1**b x2**a tau (one member when a = b).
      (T - I) x1**a x2**b tau is the sum over k >= 1 of
      C(b, k) x1**(a+k) x2**(b-k) tau: the Lucas row of b (_lucas_row)
      shifted by a.  Its entries are keyed (x1 exponent, tau); the degree
      d fixes the x2 exponent, so a key names its monomial.  The image of
      a pair, both members summed mod p (_pair_image), depends on
      (a, b, p) alone: it is built once and shared by every tail and
      every degree that has the pair.  Its cache is bounded, since at
      n = 2 no pair recurs.  Each pivot row is stored as it is, with the
      inverse of its lead, so a reduction scales the pivot once by
      -lead * inverse and no pass normalizes it.
    - Why the blocks never merge.  T keeps tau, so the images of
      different value pairs lie on different monomials: the tail
      determines the multiset {a, b} as lambda less tau.  Each block
      enters the row as it is, and only its two orientations, (a, b) and
      (b, a), are summed mod p.  So the row is the sum of the members'
      images under T - I, its coordinates relabelled one to one, and the
      rank is unchanged.  The rows are reduced mod p against pivot rows
      stored under their least key.
    - n = 2.  The tail is empty, and the one block of a pair a > b is the
      orbit of the 2-cycle.  At n = 1 there is no T, and every m_lambda is
      invariant.

    The count has no limit of its own.  The case budget, if set, has its
    deadline checked once per lambda, so a long count stops at the case's
    time budget.
    """
    require_prime(p)
    if n < 1 or d < 0:
        raise ValueError(f"bad (n, d) = ({n}, {d})")
    budget = case_budget.get()
    sums = 0
    pivots: Dict[_RowKey, Tuple[Dict[_RowKey, int], int]] = {}
    for lam in _sorted_exponents(n, d, p - 1, d):
        if budget is not None:
            budget.checkpoint()
        sums += 1
        if n < 2:
            continue
        row: Dict[_RowKey, int] = {}
        # each value pair a >= b once: a at its first position, b at its
        # first position after that one
        for i, a in enumerate(lam):
            if i and lam[i - 1] == a:
                continue
            for j in range(i + 1, n):
                b = lam[j]
                if j > i + 1 and lam[j - 1] == b:
                    continue
                tail = lam[:i] + lam[i + 1:j] + lam[j + 1:]
                xs, cs = _pair_image(a, b, p)
                row.update(zip(zip(xs, repeat(tail)), cs))
        while row:
            lead = min(row)
            pivot = pivots.get(lead)
            if pivot is None:
                pivots[lead] = (dict(row), pow(row[lead], p - 2, p))
                break
            terms, inv = pivot
            _add_into(row, terms.items(), -row[lead] * inv, p)
    return sums - len(pivots)


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
