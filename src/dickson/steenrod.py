"""Steenrod reduced powers and the primitive derivations on F_p[x1..xn].

Two families of operations act here.  The reduced power P^k (the square
Sq^k when p = 2) is determined by P^k(xj) = xj**p for k = 1, P^0 = id,
zero in higher k on generators, extended multiplicatively by the Cartan
formula.  On a monomial prod xj**aj this reads off the t**k coefficient of
prod (xj + xj**p t)**aj, so the coefficient is a product of binomials
mod p, evaluated by Lucas' theorem.

The i-th primitive operation st_delta(., i) is the derivation sending each
xj to xj**(p**i).  It raises degree by p**i - 1, kills p-th powers, and on
the Dickson invariants admits two closed forms, computed here as
independent routes:

  * st_delta_via_dl2: a single bracket determinant times L_n**(p-2);
  * st_delta_via_main: (-1)**n Q_{n,0} (R_{n,i}**p Q_{n,s} - P_{n,i,s}**p).

The verification harness decides the main theorem and the corollary rows
by a certificate in the Dickson coordinates (see dickson.verify), where
st_delta_via_main and corollary_rhs run only to find a witness when the
certificate breaks; its routes-agree family compares st_delta_via_main
with the other routes in x.

The second form is written once, in _main_form; the corollaries for
i = n + 1, n + 2, n + 3 are table rows (R, P, sign) that it assembles, R
and P tabulated in the Dickson generators.  The minus sign on the P-term
is forced by the classical values in the range 1 <= i <= n (it is
invisible at p = 2).  The i = n + 3 row keeps the tabulated plus sign on
purpose, its only difference from the main form, so that the harness can
exhibit the discrepancy at odd primes with a witness.

Every closed form is assembled from the brackets behind the Dickson
invariants, through the two identities Q_{n,0} = L_n**(p-1) and
Q_{n,s} L_n = L(n, s), so that each product cancels as it is formed (see
_main_form and corollary_rhs).  The tabulated rows are read by one helper,
_read_row, in x here and in the Dickson coordinates by the harness.
"""
from __future__ import annotations

from typing import Callable, Dict, Iterator, Optional, Tuple

from .fp_poly import (
    EXPONENT_LIMIT,
    Monomial,
    Poly,
    binom_mod_p,
    frobenius,
    poly_add,
    poly_mul,
    poly_pow,
    poly_scale,
    poly_sub,
    poly_zero,
)
from .invariants import (
    L, P_coef, R_coef, _P_bracket, _ask_budget, _prefix, _sign_unit, bracket, dickson_Q,
)


def _bounded_compositions(caps: Tuple[int, ...], k: int) -> Iterator[Tuple[int, ...]]:
    # All b with 0 <= b_j <= caps[j] and sum(b) = k.
    if len(caps) == 1:
        if 0 <= k <= caps[0]:
            yield (k,)
        return
    head = caps[0]
    tail = caps[1:]
    tail_room = sum(tail)
    lo = max(0, k - tail_room)
    hi = min(head, k)
    for b in range(lo, hi + 1):
        for rest in _bounded_compositions(tail, k - b):
            yield (b,) + rest


def steenrod_P(f: Poly, k: int) -> Poly:
    """The k-th reduced power of f (Sq^k when p = 2).

    Monomial rule: P^k(prod xj**aj) sums, over compositions b of k with
    b_j <= a_j, the product of C(a_j, b_j) mod p times
    prod xj**(a_j + (p-1) b_j).  P^0 is the identity; for homogeneous f of
    degree d, P^d(f) = f**p and P^k(f) = 0 for k > d.
    """
    if k < 0:
        raise ValueError(f"need k >= 0, got {k}")
    if k == 0:
        return f
    p = f.p
    out: Dict[Monomial, int] = {}
    for m, c in f.terms.items():
        for b in _bounded_compositions(m, k):
            coeff = c
            for a, bj in zip(m, b):
                coeff = coeff * binom_mod_p(a, bj, p) % p
                if coeff == 0:
                    break
            if coeff == 0:
                continue
            mm = tuple(a + (p - 1) * bj for a, bj in zip(m, b))
            v = (out.get(mm, 0) + coeff) % p
            if v:
                out[mm] = v
            else:
                out.pop(mm, None)
    return Poly._make(f.n, p, out)


def st_delta(f: Poly, i: int) -> Poly:
    """The i-th primitive operation: the derivation with xj -> xj**(p**i).

    On a monomial it acts by the Leibniz rule,
    sum_j a_j xj**(a_j - 1 + p**i) prod_{k != j} xk**a_k, coefficients
    mod p; terms with a_j divisible by p drop out, so p-th powers are
    killed.  Raises the degree of homogeneous input by p**i - 1.
    """
    if i < 1:
        raise ValueError(f"need i >= 1 (i = 0 is not supported), got {i}")
    p = f.p
    q = p ** i
    if q >= EXPONENT_LIMIT:
        raise OverflowError(f"p**{i} exceeds 2**63")
    out: Dict[Monomial, int] = {}
    for m, c in f.terms.items():
        for j, a in enumerate(m):
            r = a % p
            if r == 0:
                continue
            mm = m[:j] + (a - 1 + q,) + m[j + 1:]
            v = (out.get(mm, 0) + c * r) % p
            if v:
                out[mm] = v
            else:
                out.pop(mm, None)
    return Poly._make(f.n, p, out)


def st_delta_via_dl2(n: int, s: int, i: int, p: int) -> Poly:
    """Determinant route for st_delta(Q_{n,s}, i):

        (-1)**n [0, .., s omitted, .., n-1, i] L_n**(p-2).

    Exact for all i >= 1 and 0 <= s < n.
    """
    if not 0 <= s < n:
        raise ValueError(f"s = {s} outside 0..{n - 1}")
    if i < 1:
        raise ValueError(f"need i >= 1, got {i}")
    value = poly_mul(bracket(n, _prefix(n, s) + (i,), p), _L_pow(n, p))
    return poly_scale(value, _sign_unit(n, p))


def _L_pow(n: int, p: int) -> Poly:
    """L_n**(p-2): what is left of Q_{n,0} = L_n**(p-1) once one factor L_n
    has cleared the denominator of a bracket quotient."""
    return poly_pow(L(n, n, p), p - 2)


def _main_form(n: int, s: int, p: int, R: Poly, P: Poly, sign: int) -> Poly:
    """(-1)**n Q_{n,0} (R**p Q_{n,s} + sign P**p), for sign = +1 or -1.

    The one shape of the main theorem and of its corollaries; they differ
    only in the R, P and sign they put in.  It is computed as

        (-1)**n L_n**(p-2) (R**p L(n, s) + sign L_n P**p),

    by Q_{n,0} = L_n**(p-1) and Q_{n,s} L_n = L(n, s).  When (R, P, sign)
    satisfies the theorem the bracketed sum is the n!-term bracket
    [0, .., s omitted, .., n-1, i], so each product cancels as it is formed
    and none is wider than |R| n! or |P| n! term pairs.  In the order
    written, R**p Q_{n,s} - P**p is built in full (38,596 terms at
    (p, n, s, i) = (3, 3, 2, 6)) before Q_{n,0} cancels it down.  Where the
    sum is no bracket (a wrong row), the last product can be wide, so the
    case budget, if set, is asked before each product.
    """
    combine = poly_add if sign == 1 else poly_sub
    r_p, l_s, l_n, p_p = frobenius(R, 1), L(n, s, p), L(n, n, p), frobenius(P, 1)
    _ask_budget((r_p, l_s), (l_n, p_p))
    inner = combine(poly_mul(r_p, l_s), poly_mul(l_n, p_p))
    l_pow = _L_pow(n, p)
    _ask_budget((l_pow, inner))
    return poly_scale(poly_mul(l_pow, inner), _sign_unit(n, p))


def st_delta_via_main(n: int, s: int, i: int, p: int) -> Poly:
    """Closed form for st_delta(Q_{n,s}, i) in Dickson generators:

        (-1)**n Q_{n,0} (R_{n,i}**p Q_{n,s} - P_{n,i,s}**p).

    The sign of the P-term is pinned by the 1 <= i <= n values (see
    sign_convention_flag); writing it with a plus makes the identity fail
    at odd primes, which the i = n + 3 corollary case demonstrates.
    """
    if not 0 <= s < n:
        raise ValueError(f"s = {s} outside 0..{n - 1}")
    if i < 1:
        raise ValueError(f"need i >= 1, got {i}")
    return _main_form(n, s, p, R_coef(n, i, p), P_coef(n, i, s, p), -1)


def smith_switzer_value(n: int, s: int, i: int, p: int) -> Poly:
    """The classical value of st_delta(Q_{n,s}, i) for 1 <= i <= n:

        (-1)**(s-1) Q_{n,0}        if i = s > 0,
        (-1)**n     Q_{n,0} Q_{n,s} if i = n,
        0                           otherwise.
    """
    if not 0 <= s < n:
        raise ValueError(f"s = {s} outside 0..{n - 1}")
    if not 1 <= i <= n:
        raise ValueError(f"i = {i} outside 1..{n}")
    if i == s:
        return poly_scale(dickson_Q(n, 0, p), _sign_unit(s - 1, p))
    if i == n:
        return poly_scale(
            poly_mul(dickson_Q(n, 0, p), dickson_Q(n, s, p)), _sign_unit(n, p)
        )
    return poly_zero(n, p)


# The corollary rows (R, P, sign) for i = n + 1, n + 2, n + 3, as tabulated
# in the Dickson invariants; q(t, e) is Q_{n,t}**(p**e), zero for t < 0
# (see _read_row).
_Row = Tuple[Poly, Poly, int]


def _row_n1(q: Callable[..., Poly], n: int, s: int) -> _Row:
    return q(n - 1), q(s - 1), -1


def _row_n2(q: Callable[..., Poly], n: int, s: int) -> _Row:
    rr = poly_sub(poly_mul(q(n - 1), q(n - 1, 1)), q(n - 2, 1))
    pp = poly_sub(poly_mul(q(s - 1), q(n - 1, 1)), q(s - 2, 1))
    return rr, pp, -1


def _row_n3(q: Callable[..., Poly], n: int, s: int) -> _Row:
    phat = poly_sub(q(s - 3, 2), poly_mul(q(s - 2, 1), q(n - 1, 2)))
    phat = poly_sub(phat, poly_mul(q(s - 1), q(n - 2, 2)))
    phat = poly_add(phat, poly_mul(q(s - 1), poly_mul(q(n - 1, 2), q(n - 1, 1))))
    rhat = poly_sub(q(n - 3, 2), poly_mul(q(n - 2, 2), q(n - 1)))
    rhat = poly_sub(rhat, poly_mul(q(n - 2, 1), q(n - 1, 2)))
    rhat = poly_add(rhat, poly_mul(q(n - 1), poly_mul(q(n - 1, 2), q(n - 1, 1))))
    # The corollary as published adds Phat**p; the theorem subtracts it.
    return rhat, phat, +1


_COROLLARY_ROWS = {"n+1": _row_n1, "n+2": _row_n2, "n+3": _row_n3}


def _read_row(which: str, n: int, s: int, p: int, base: Callable[[int], Poly]) -> _Row:
    """The row _COROLLARY_ROWS[which] read with q(t, e) = base(t)**(p**e),
    zero for t < 0: base(t) is Q_{n,t} in x, or y_t in Dickson coordinates."""
    def q(t: int, e: int = 0) -> Poly:
        return frobenius(base(t), e) if t >= 0 else poly_zero(n, p)

    return _COROLLARY_ROWS[which](q, n, s)


def corollary_rhs(which: str, n: int, s: int, p: int, i: Optional[int] = None) -> Poly:
    """Tabulated right-hand sides of the corollaries of the main theorem.

    which = "n+k" (k = 1, 2, 3): the main form
        (-1)**n Q_{n,0} (R**p Q_{n,s} + sign P**p)
    at the row (R, P, sign) tabulated for i = n + k:
        n+1:  R = Q_{n,n-1},  P = Q_{n,s-1},  sign -1;
        n+2:  R = Q_{n,n-1} Q_{n,n-1}**p - Q_{n,n-2}**p,
              P = Q_{n,s-1} Q_{n,n-1}**p - Q_{n,s-2}**p,  sign -1;
        n+3:  R = Rhat, P = Phat, the tabulated i = n + 3 quotients,  sign +1.
    Each R and P equals R_coef(n, n + k) and P_coef(n, n + k, s), so the
    rows differ from st_delta_via_main only in the n+3 sign.  It is kept as
    tabulated: at odd primes that row disagrees with the other routes, and
    the harness reports it rather than failing.
    which = "kernel" (needs i): the value of st_delta(Q_{n,0}**(p-1) Q_{n,s}, i),
                    namely (-1)**(n+1) (Q_{n,0} P_{n,i,s})**p, a p-th power up
                    to sign and hence killed by a second application.

    Both are assembled from brackets (see _main_form): the kernel form's
    Q_{n,0} P is L_n**(p-2) (L_n P), and it takes L_n P as the n!-term
    bracket [0, .., s-1 omitted, .., n-1, i-1] itself (_P_bracket), so it
    needs neither the quotient P_coef nor the product that would undo it.

    Out-of-range Dickson indices follow the Q_{n,t} = 0 (t < 0) convention.
    """
    if not 0 <= s < n:
        raise ValueError(f"s = {s} outside 0..{n - 1}")
    if which in _COROLLARY_ROWS:
        return _main_form(n, s, p, *_read_row(which, n, s, p, lambda t: dickson_Q(n, t, p)))
    if which == "kernel":
        if i is None:
            raise ValueError("the kernel form needs the operation index i")
        value = frobenius(poly_mul(_L_pow(n, p), _P_bracket(n, i, s, p)), 1)
        return poly_scale(value, _sign_unit(n + 1, p))
    raise ValueError(f"unknown corollary {which!r}; use n+1, n+2, n+3, or kernel")


def sign_convention_flag(p: int = 3, n: int = 2) -> int:
    """Empirical pin of the sign convention st_delta(xj) = +xj**(p**i).

    Evaluates st_delta(Q_{n,s}, s) for 0 < s < n and compares with the
    classical value smith_switzer_value(n, s, s, p).  Returns +1 if every
    case matches, -1 if every case matches after a global negation (the
    opposite convention), and 0 if neither convention fits.
    """
    pairs = [(st_delta(dickson_Q(n, s, p), s), smith_switzer_value(n, s, s, p))
             for s in range(1, n)]
    if not pairs:
        raise ValueError(f"need n >= 2 for the pin, got n = {n}")
    for sign in (1, -1):
        if all(got == poly_scale(want, sign) for got, want in pairs):
            return sign
    return 0
