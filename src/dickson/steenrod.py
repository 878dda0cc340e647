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

The second form is written once, in _main_form; the corollaries for
i = n + 1, n + 2, n + 3 are table rows (R, P, sign) that it assembles, R
and P tabulated in the Dickson generators.  The minus sign on the P-term
is forced by the classical values in the range 1 <= i <= n (it is
invisible at p = 2).  The i = n + 3 row keeps the tabulated plus sign on
purpose, its only difference from the main form, so that the harness can
exhibit the discrepancy at odd primes with a witness.
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
from .invariants import L, P_coef, R_coef, _sign_unit, bracket, dickson_Q


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
    entries = tuple(k for k in range(n) if k != s) + (i,)
    value = poly_mul(bracket(n, entries, p), poly_pow(L(n, n, p), p - 2))
    return poly_scale(value, _sign_unit(n, p))


def _main_form(n: int, s: int, p: int, R: Poly, P: Poly, sign: int) -> Poly:
    """(-1)**n Q_{n,0} (R**p Q_{n,s} + sign P**p), for sign = +1 or -1.

    The one shape of the main theorem and of its corollaries; they differ
    only in the R, P and sign they put in.
    """
    combine = poly_add if sign == 1 else poly_sub
    inner = combine(poly_mul(frobenius(R, 1), dickson_Q(n, s, p)), frobenius(P, 1))
    return poly_scale(poly_mul(dickson_Q(n, 0, p), inner), _sign_unit(n, p))


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


# The corollary rows (R, P, sign) for i = n + 1, n + 2, n + 3, as tabulated;
# q(t, e) is Q_{n,t}**(p**e), zero for t < 0.
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

    Out-of-range Dickson indices follow the Q_{n,t} = 0 (t < 0) convention.
    """
    if not 0 <= s < n:
        raise ValueError(f"s = {s} outside 0..{n - 1}")
    row = _COROLLARY_ROWS.get(which)
    if row is not None:
        def q(t: int, e: int = 0) -> Poly:
            return frobenius(dickson_Q(n, t, p), e)

        return _main_form(n, s, p, *row(q, n, s))
    if which == "kernel":
        if i is None:
            raise ValueError("the kernel form needs the operation index i")
        value = frobenius(poly_mul(dickson_Q(n, 0, p), P_coef(n, i, s, p)), 1)
        return poly_scale(value, _sign_unit(n + 1, p))
    raise ValueError(f"unknown corollary {which!r}; use n+1, n+2, n+3, or kernel")


def sign_convention_flag(p: int = 3, n: int = 2) -> int:
    """Empirical pin of the sign convention st_delta(xj) = +xj**(p**i).

    Evaluates st_delta(Q_{n,s}, s) for 0 < s < n and compares with the
    classical value smith_switzer_value(n, s, s, p).  Returns +1 if every
    case matches, -1 if every case matches after a global negation (the
    opposite convention), and raises if neither convention fits.
    """
    pairs = [(st_delta(dickson_Q(n, s, p), s), smith_switzer_value(n, s, s, p))
             for s in range(1, n)]
    if not pairs:
        raise ValueError(f"need n >= 2 for the pin, got n = {n}")
    for sign in (1, -1):
        if all(got == poly_scale(want, sign) for got, want in pairs):
            return sign
    raise ArithmeticError("neither sign convention matches the classical values")
