"""Steenrod reduced powers and the primitive derivations on F_p[x1..xn].

Two families of operations act here.  The reduced power P^k (the square
Sq^k when p = 2) is determined by P^k(xj) = xj**p for k = 1, P^0 = id,
zero in higher k on generators, extended multiplicatively by the Cartan
formula.  On a monomial prod xj**aj this reads off the t**k coefficient of
prod (xj + xj**p t)**aj, so the coefficient is a product of binomials
mod p, one entry of each exponent's Lucas row (fp_poly._lucas_row, read by
the transvection too), summed by fp_poly's one term map, _act.

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
i = n + 1, n + 2, n + 3 are table rows that it assembles.  R_{n,i} and
P_{n,i,s} are both the quotient [0..n-1 without a-1, i-1] / L_n, at a = n
and at a = s, so each row is one F(a), tabulated in the Dickson
generators, and a sign: R = F(n), P = F(s).  The minus sign on the P-term
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
    _act,
    _lucas_row,
    frobenius,
    poly_dot,
    poly_mul,  # unused here; perfbench/test_perfbench.py checks that its tracer rebinds it
    poly_one,
    poly_pow,
    poly_scale,
    poly_zero,
)
from .invariants import (
    L, P_coef, R_coef, _P_bracket, _prefix, _sign_unit, bracket, dickson_Q,
)


def _power_image(m: Monomial, p: int, k: int) -> Iterator[Tuple[Monomial, int]]:
    """The terms of P^k(prod xj**aj): one entry (b_j, C(a_j, b_j)) of
    ((0, 1),) + _lucas_row(a_j, p) per variable, the b_j summing to k, gives
    the product of its binomials on prod xj**(a_j + (p-1) b_j).  A pick whose
    rest of k exceeds the exponents left is dropped; where it needs all of
    them, the rest is b = a, C(a, a) = 1, and no row is read."""
    room = sum(m)  # the exponents from the current variable on
    if k > room:
        return
    picks = [((), 1, k)]  # (monomial so far, coefficient, what is left of k)
    for a in m:
        room -= a
        grown = []
        for head, c, left in picks:
            least = left - room  # the smallest b the later variables allow
            for b, cb in ((a, 1),) if least == a else ((0, 1),) + _lucas_row(a, p):
                if b > left:
                    break
                if b >= least:
                    grown.append((head + (a + (p - 1) * b,), c * cb % p, left - b))
        picks = grown
    for mono, c, _ in picks:
        yield mono, c


def steenrod_P(f: Poly, k: int) -> Poly:
    """The k-th reduced power of f (Sq^k when p = 2): the images of its
    monomials (_power_image) summed by the one term map (_act).

    P^k(prod xj**aj) sums, over the b with b_j <= a_j summing to k, the
    product of C(a_j, b_j) mod p times prod xj**(a_j + (p-1) b_j).  P^0 is
    the identity; for homogeneous f of degree d, P^d(f) = f**p and
    P^k(f) = 0 for k > d.
    """
    if k < 0:
        raise ValueError(f"need k >= 0, got {k}")
    if k == 0:
        return f
    return _act(f, lambda m, p: _power_image(m, p, k))


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
    return poly_dot([(_sign_unit(n, p), bracket(n, _prefix(n, s) + (i,), p), _L_pow(n, p), 0)],
                    n, p)


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
    [0, .., s omitted, .., n-1, i]; its two products add in one poly_dot,
    so neither is built in full, and no product is wider than |R| n! or
    |P| n! term pairs; R**p and P**p are read at their Frobenius power, not
    copied, so the budget is asked with |R| and |P| first.  In the order
    written, R**p Q_{n,s} - P**p is built in full (38,596 terms at
    (p, n, s, i) = (3, 3, 2, 6)) before Q_{n,0} cancels it down.  Where the
    sum is no bracket (a wrong row), the last product can be wide; poly_dot
    asks the case budget about it first.
    """
    inner = poly_dot([(1, L(n, s, p), R, 1), (sign, L(n, n, p), P, 1)], n, p)
    return poly_dot([(_sign_unit(n, p), _L_pow(n, p), inner, 0)], n, p)


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
        return poly_dot([(_sign_unit(n, p), dickson_Q(n, 0, p), dickson_Q(n, s, p), 0)], n, p)
    return poly_zero(n, p)


# The corollary rows for i = n + 1, n + 2, n + 3, as tabulated in the Dickson
# invariants.  R_{n,i} and P_{n,i,s} are both [0..n-1 without a-1, i-1] / L_n,
# at a = n and at a = s, so a row is a sign and one F(a): poly_dot terms
# (c, f, g, e), c f g**(p**e), in q(t) = Q_{n,t} (1 at t = n, 0 for t < 0).
_Q = Callable[[int], Poly]
_COROLLARY_ROWS: Dict[str, Tuple[int, Callable[[_Q, int, int, int], list]]] = {
    "n+1": (-1, lambda q, n, p, a: [(1, q(n), q(a - 1), 0)]),
    "n+2": (-1, lambda q, n, p, a: [(1, q(a - 1), q(n - 1), 1), (-1, q(n), q(a - 2), 1)]),
    # The corollary as published adds Phat**p; the theorem subtracts it.
    # Q_{a-2}**p Q_{n-1}**(p**2) is read as (Q_{a-2} Q_{n-1}**p)**p, and
    # Q_{a-1} Q_{n-1}**p Q_{n-1}**(p**2) as Q_{a-1} (Q_{n-1} Q_{n-1}**p)**p.
    "n+3": (+1, lambda q, n, p, a: [
        (1, q(n), q(a - 3), 2),
        (-1, q(n), poly_dot([(1, q(a - 2), q(n - 1), 1)], n, p), 1),
        (-1, q(a - 1), q(n - 2), 2),
        (1, q(a - 1), poly_dot([(1, q(n - 1), q(n - 1), 1)], n, p), 1)]),
}


def _read_row(which: str, n: int, s: int, p: int, base: _Q) -> Tuple[Poly, Poly, int]:
    """(R, P, sign) of the row _COROLLARY_ROWS[which]: R = F(n), P = F(s),
    with q(t) = base(t) for 0 <= t < n: Q_{n,t} in x, or y_t in Dickson
    coordinates."""
    def q(t: int) -> Poly:
        return base(t) if 0 <= t < n else poly_one(n, p) if t == n else poly_zero(n, p)

    sign, F = _COROLLARY_ROWS[which]
    return poly_dot(F(q, n, p, n), n, p), poly_dot(F(q, n, p, s), n, p), sign


def corollary_rhs(which: str, n: int, s: int, p: int, i: Optional[int] = None) -> Poly:
    """Tabulated right-hand sides of the corollaries of the main theorem.

    which = "n+k" (k = 1, 2, 3): the main form
        (-1)**n Q_{n,0} (R**p Q_{n,s} + sign P**p)
    at the row tabulated for i = n + k, R = F(n) and P = F(s) with
        n+1:  F(a) = Q_{n,a-1},  sign -1;
        n+2:  F(a) = Q_{n,a-1} Q_{n,n-1}**p - Q_{n,a-2}**p,  sign -1;
        n+3:  F(a) = Q_{n,a-3}**(p**2) - Q_{n,a-2}**p Q_{n,n-1}**(p**2)
                     - Q_{n,a-1} Q_{n,n-2}**(p**2)
                     + Q_{n,a-1} Q_{n,n-1}**p Q_{n,n-1}**(p**2),  sign +1
    (Rhat and Phat in the paper).  Each R and P equals R_coef(n, n + k) and
    P_coef(n, n + k, s), so the rows differ from st_delta_via_main only in
    the n+3 sign.  It is kept as tabulated: at odd primes that row
    disagrees with the other routes, and the harness reports it rather
    than failing.
    which = "kernel" (needs i): the value of st_delta(Q_{n,0}**(p-1) Q_{n,s}, i),
                    namely (-1)**(n+1) (Q_{n,0} P_{n,i,s})**p, a p-th power up
                    to sign and hence killed by a second application.

    Both are assembled from brackets (see _main_form): the kernel form's
    Q_{n,0} P is L_n**(p-2) (L_n P), and it takes L_n P as the n!-term
    bracket [0, .., s-1 omitted, .., n-1, i-1] itself (_P_bracket), so it
    needs neither the quotient P_coef nor the product that would undo it.

    Out-of-range Dickson indices follow the conventions Q_{n,t} = 0 for
    t < 0 and Q_{n,n} = 1.
    """
    if not 0 <= s < n:
        raise ValueError(f"s = {s} outside 0..{n - 1}")
    if which in _COROLLARY_ROWS:
        return _main_form(n, s, p, *_read_row(which, n, s, p, lambda t: dickson_Q(n, t, p)))
    if which == "kernel":
        if i is None:
            raise ValueError("the kernel form needs the operation index i")
        value = poly_dot([(_sign_unit(n + 1, p), _L_pow(n, p), _P_bracket(n, i, s, p), 0)],
                         n, p)
        return frobenius(value, 1)
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
