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

The minus sign on the P-term in the second form is forced by the classical
values of the operations in the range 1 <= i <= n (it is invisible at
p = 2).  The variant with a plus sign there fails at odd primes; the
corollary builder for i = n + 3 keeps that variant on purpose so that the
verification harness can exhibit the discrepancy with a witness.
"""
from __future__ import annotations

from typing import Dict, Iterator, Optional, Tuple

# binom_mod_p and _binom_digit live in fp_poly and keep their names here.
from .fp_poly import (  # noqa: F401
    EXPONENT_LIMIT,
    Monomial,
    Poly,
    _binom_digit,
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
    q0 = dickson_Q(n, 0, p)
    inner = poly_sub(
        poly_mul(frobenius(R_coef(n, i, p), 1), dickson_Q(n, s, p)),
        frobenius(P_coef(n, i, s, p), 1),
    )
    return poly_scale(poly_mul(q0, inner), _sign_unit(n, p))


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


def corollary_rhs(which: str, n: int, s: int, p: int, i: Optional[int] = None) -> Poly:
    """Explicit right-hand sides for the low Frobenius-twist closed forms.

    which = "n+1":  (-1)**n Q_{n,0} (-Q_{n,s-1}**p + Q_{n,n-1}**p Q_{n,s})
    which = "n+2":  (-1)**n Q_{n,0} (Q_{n,s-2}**p2 - Q_{n,s-1}**p Q_{n,n-1}**p2
                      + (Q_{n,n-1}**(p2+p) - Q_{n,n-2}**p2) Q_{n,s})
    which = "n+3":  (-1)**n Q_{n,0} (Phat**p + Rhat**p Q_{n,s}), with Phat and
                    Rhat the tabulated i = n + 3 bracket quotients.  The
                    composite keeps the plus sign on the Phat term as
                    tabulated, so at odd primes it disagrees with the other
                    routes; the harness reports that rather than failing.
    which = "kernel" (needs i): the value of st_delta(Q_{n,0}**(p-1) Q_{n,s}, i),
                    namely (-1)**(n+1) (Q_{n,0} P_{n,i,s})**p, a p-th power up
                    to sign and hence killed by a second application.

    Out-of-range Dickson indices follow the Q_{n,t} = 0 (t < 0) convention.
    """
    if not 0 <= s < n:
        raise ValueError(f"s = {s} outside 0..{n - 1}")

    def q(t: int) -> Poly:
        return dickson_Q(n, t, p)

    sign_n = _sign_unit(n, p)
    if which == "n+1":
        inner = poly_sub(
            poly_mul(frobenius(q(n - 1), 1), q(s)),
            frobenius(q(s - 1), 1),
        )
        return poly_scale(poly_mul(q(0), inner), sign_n)
    if which == "n+2":
        inner = poly_sub(frobenius(q(s - 2), 2),
                         poly_mul(frobenius(q(s - 1), 1), frobenius(q(n - 1), 2)))
        twist = poly_sub(
            poly_mul(frobenius(q(n - 1), 2), frobenius(q(n - 1), 1)),
            frobenius(q(n - 2), 2),
        )
        inner = poly_add(inner, poly_mul(twist, q(s)))
        return poly_scale(poly_mul(q(0), inner), sign_n)
    if which == "n+3":
        phat = poly_sub(frobenius(q(s - 3), 2),
                        poly_mul(frobenius(q(s - 2), 1), frobenius(q(n - 1), 2)))
        phat = poly_sub(phat, poly_mul(q(s - 1), frobenius(q(n - 2), 2)))
        phat = poly_add(
            phat,
            poly_mul(q(s - 1), poly_mul(frobenius(q(n - 1), 2), frobenius(q(n - 1), 1))),
        )
        rhat = poly_sub(frobenius(q(n - 3), 2),
                        poly_mul(frobenius(q(n - 2), 2), q(n - 1)))
        rhat = poly_sub(rhat, poly_mul(frobenius(q(n - 2), 1), frobenius(q(n - 1), 2)))
        rhat = poly_add(
            rhat,
            poly_mul(q(n - 1), poly_mul(frobenius(q(n - 1), 2), frobenius(q(n - 1), 1))),
        )
        inner = poly_add(frobenius(phat, 1), poly_mul(frobenius(rhat, 1), q(s)))
        return poly_scale(poly_mul(q(0), inner), sign_n)
    if which == "kernel":
        if i is None:
            raise ValueError("the kernel form needs the operation index i")
        value = frobenius(poly_mul(q(0), P_coef(n, i, s, p)), 1)
        return poly_scale(value, _sign_unit(n + 1, p))
    raise ValueError(f"unknown corollary {which!r}; use n+1, n+2, n+3, or kernel")


def sign_convention_flag(p: int = 3, n: int = 2) -> int:
    """Empirical pin of the sign convention st_delta(xj) = +xj**(p**i).

    Evaluates st_delta(Q_{n,s}, s) for 0 < s < n and compares with the
    classical value (-1)**(s-1) Q_{n,0}.  Returns +1 if every case matches,
    -1 if every case matches after a global negation (the opposite
    convention), and raises if neither convention fits.
    """
    require_odd_check = [(s, st_delta(dickson_Q(n, s, p), s)) for s in range(1, n)]
    if not require_odd_check:
        raise ValueError(f"need n >= 2 for the pin, got n = {n}")
    plus = all(
        got == poly_scale(dickson_Q(n, 0, p), _sign_unit(s - 1, p))
        for s, got in require_odd_check
    )
    if plus:
        return 1
    minus = all(
        got == poly_scale(dickson_Q(n, 0, p), _sign_unit(s, p))
        for s, got in require_odd_check
    )
    if minus:
        return -1
    raise ArithmeticError("neither sign convention matches the classical values")
