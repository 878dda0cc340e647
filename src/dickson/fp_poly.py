"""Sparse exact polynomial arithmetic over a prime field F_p.

A polynomial in the variables x1..xn is a dict mapping exponent tuples
(a1, ..., an) to coefficients in [1, p).  Only nonzero coefficients are
stored, so the zero polynomial is the empty dict and equality of canonical
forms is plain dict equality.  All arithmetic is exact: coefficients are
residues mod p, exponents are arbitrary nonneg ints below 2**63.

The monomial order used everywhere (formatting, witnesses) is graded
reverse lexicographic: compare total degree first, and break ties by the
*last* position where the exponents differ, smaller exponent wins.

Exponent tuples are the only stored form of a monomial.  Every product
goes through one kernel, poly_dot, which sums c * f * g**(p**e) over terms
(c, f, g, e) (poly_mul and frobenius are its one-product and one-operand
calls).  Inside it each monomial is packed into one Python int, with one
bit field per variable, sized from all the operands so that no field can
carry into the next; multiplying two monomials is then one integer
addition, and every product of the sum adds into one accumulator (packed
exponent vectors, after Monagan and Pearce, Sparse polynomial
multiplication and division in Maple 14, 2009).  Packing never leaves that
function, which is also the one place that scales exponents by p**e, asks
the case budget (case_budget) about a product and checks its deadline.

Also here: binomial coefficients mod p by Lucas' theorem, with the row of
nonzero C(b, k) of one exponent (_lucas_row), and the one term map (_act),
which sums the images of a polynomial's terms given a monomial's image:
the transvection (dickson.invariants) and the reduced powers
(dickson.steenrod) read the Lucas rows through it, and the dimension
counts' rows read them directly.  Sums of terms outside poly_dot add
through _add_into, except st_delta's loop: through _act it ran 1.3-1.7
times slower, and every st_delta family runs it.

Values are immutable by convention: no function here mutates an input
Poly, and callers must not touch .terms after construction.  That makes
sharing (memo tables, repeated references) safe without defensive copying.
"""
from __future__ import annotations

from contextvars import ContextVar
from functools import lru_cache
from typing import Callable, Dict, Iterable, List, Mapping, Optional, Tuple

Monomial = Tuple[int, ...]
Terms = Dict[Monomial, int]
# The terms (monomial, coefficient) of the image of a monomial, of (m, p).
_TermMap = Callable[[Monomial, int], Iterable[Tuple[Monomial, int]]]

PRIME_LIMIT = 2 ** 31
EXPONENT_LIMIT = 2 ** 63

# The budget of the verification case being run, or None.  poly_dot calls
# its before_product(f_terms, g_terms) about every product before forming
# any, and checkpoint() once per row, as a dimension count does; a bracket
# or a check calls before_terms(*counts) on what it builds.  Each may raise.
case_budget: ContextVar = ContextVar("case_budget", default=None)


class ShapeError(ValueError):
    """Operands live in different rings (mismatched variable count or p)."""


class ParseError(ValueError):
    """Raised on malformed polynomial text; carries the offending index."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


def is_prime(p: int) -> bool:
    """Deterministic primality test, valid for all p below 2**31."""
    if p < 2:
        return False
    for q in (2, 3, 5, 7):
        if p % q == 0:
            return p == q
    d, r = p - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    # Miller-Rabin with bases 2, 3, 5, 7 is exact below 3215031751 > 2**31.
    for a in (2, 3, 5, 7):
        x = pow(a, d, p)
        if x == 1 or x == p - 1:
            continue
        for _ in range(r - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


def require_prime(p: int) -> int:
    if not isinstance(p, int) or isinstance(p, bool):
        raise TypeError(f"p must be an int, got {type(p).__name__}")
    if p >= PRIME_LIMIT:
        raise ValueError(f"p = {p} exceeds the supported bound 2**31")
    if not is_prime(p):
        raise ValueError(f"p = {p} is not prime")
    return p


def binom_mod_p(a: int, b: int, p: int) -> int:
    """Binomial coefficient C(a, b) mod p via Lucas' theorem.

    The coefficient is the product over base-p digits of C(a_t, b_t), zero
    as soon as some digit of b exceeds the matching digit of a.
    """
    if b < 0 or b > a:
        return 0
    r = 1
    while a or b:
        da, db = a % p, b % p
        if db > da:
            return 0
        r = r * _binom_digit(da, db, p) % p
        a //= p
        b //= p
    return r


@lru_cache(maxsize=None)
def _binom_digit(da: int, db: int, p: int) -> int:
    # C(da, db) mod p for digits 0 <= db <= da < p.
    db = min(db, da - db)
    num = den = 1
    for t in range(1, db + 1):
        num = num * (da - db + t) % p
        den = den * t % p
    return num * pow(den, p - 2, p) % p


@lru_cache(maxsize=None)
def _lucas_row(b: int, p: int) -> Tuple[Tuple[int, int], ...]:
    """The nonzero (k, C(b, k) mod p) for k in 1..b, sorted by k.

    By Lucas' theorem C(b, k) is the product of C(b_t, k_t) over the
    base-p digits, nonzero exactly when every k_t <= b_t.  So the row is
    built digit by digit, lowest first: each digit k_t runs over 0..b_t,
    outside the k's of the lower digits, which keeps the row sorted.  Only
    nonzero entries are ever formed; k = 0 is dropped at the end.
    """
    row = [(0, 1)]
    q = 1  # p ** t, the place of the current digit
    while b:
        b, digit = divmod(b, p)
        row = [(k + e * q, c * _binom_digit(digit, e, p) % p)
               for e in range(digit + 1) for k, c in row]
        q *= p
    return tuple(row[1:])


def grevlex_key(m: Monomial) -> Tuple[int, Tuple[int, ...]]:
    """Sort key whose ascending order is ascending grevlex order."""
    return (sum(m), tuple(-e for e in reversed(m)))


class Poly:
    """A canonical sparse polynomial over F_p in n variables."""

    __slots__ = ("n", "p", "terms")

    def __init__(self, n: int, p: int, terms: Optional[Mapping[Monomial, int]] = None):
        require_prime(p)
        if not isinstance(n, int) or n < 1:
            raise ValueError(f"need at least one variable, got n = {n!r}")
        reduced: Terms = {}
        for m, c in (terms or {}).items():
            m = tuple(m)
            if len(m) != n:
                raise ShapeError(f"exponent tuple {m} has length {len(m)}, expected {n}")
            for e in m:
                if not isinstance(e, int) or e < 0:
                    raise ValueError(f"bad exponent {e!r} in {m}")
                if e >= EXPONENT_LIMIT:
                    raise OverflowError(f"exponent {e} exceeds 2**63")
            c = c % p
            if c:
                reduced[m] = c
        self.n = n
        self.p = p
        self.terms = reduced

    @classmethod
    def _make(cls, n: int, p: int, terms: Terms) -> "Poly":
        # Trusted fast path: terms must already be canonical for (n, p).
        obj = object.__new__(cls)
        obj.n = n
        obj.p = p
        obj.terms = terms
        return obj

    def is_zero(self) -> bool:
        return not self.terms

    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(map(sum, self.terms))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Poly):
            return NotImplemented
        return self.n == other.n and self.p == other.p and self.terms == other.terms

    __hash__ = None  # mutable payload; never use a Poly as a dict key

    def __add__(self, other: "Poly") -> "Poly":
        if not isinstance(other, Poly):
            return NotImplemented
        return poly_add(self, other)

    def __sub__(self, other: "Poly") -> "Poly":
        if not isinstance(other, Poly):
            return NotImplemented
        return poly_sub(self, other)

    def __neg__(self) -> "Poly":
        return poly_scale(self, self.p - 1)

    def __mul__(self, other: "Poly") -> "Poly":
        if not isinstance(other, Poly):
            return NotImplemented
        return poly_mul(self, other)

    def __pow__(self, k: int) -> "Poly":
        return poly_pow(self, k)

    def __repr__(self) -> str:
        return f"Poly({self.n}, {self.p}, {format_poly(self)!r})"


def poly_zero(n: int, p: int) -> Poly:
    return Poly(n, p, {})


def poly_const(c: int, n: int, p: int) -> Poly:
    return Poly(n, p, {(0,) * n: c})


def poly_one(n: int, p: int) -> Poly:
    return poly_const(1, n, p)


def poly_var(j: int, n: int, p: int) -> Poly:
    """The variable xj, 1-based: poly_var(1, n, p) is x1."""
    if not 1 <= j <= n:
        raise ValueError(f"variable index {j} out of range 1..{n}")
    m = tuple(1 if k == j - 1 else 0 for k in range(n))
    return Poly(n, p, {m: 1})


def _same_ring(f: Poly, g: Poly) -> None:
    if f.n != g.n or f.p != g.p:
        raise ShapeError(
            f"ring mismatch: (n={f.n}, p={f.p}) vs (n={g.n}, p={g.p})"
        )


def _add_into(out: Terms, terms: Iterable[Tuple[Monomial, int]], c: int, p: int) -> Terms:
    """out += c * terms, in place and mod p; returns out."""
    for m, v in terms:
        v = (out.get(m, 0) + c * v) % p
        if v:
            out[m] = v
        else:
            out.pop(m, None)
    return out


def _act(f: Poly, image: _TermMap) -> Poly:
    """The sum over the terms c m of f of c image(m, p), where image(m, p)
    gives the terms of the image of the monomial m."""
    out: Terms = {}
    for m, c in f.terms.items():
        _add_into(out, image(m, f.p), c, f.p)
    return Poly._make(f.n, f.p, out)


def poly_add(f: Poly, g: Poly) -> Poly:
    _same_ring(f, g)
    return Poly._make(f.n, f.p, _add_into(dict(f.terms), g.terms.items(), 1, f.p))


def poly_sub(f: Poly, g: Poly) -> Poly:
    _same_ring(f, g)
    return Poly._make(f.n, f.p, _add_into(dict(f.terms), g.terms.items(), -1, f.p))


def poly_scale(f: Poly, c: int) -> Poly:
    c = c % f.p
    if c == 0:
        return Poly._make(f.n, f.p, {})
    if c == 1:
        return f
    p = f.p
    return Poly._make(f.n, p, {m: (v * c) % p for m, v in f.terms.items()})


def poly_mul(f: Poly, g: Poly) -> Poly:
    """The product f * g: the one-product call of poly_dot."""
    return poly_dot(((1, f, g, 0),), f.n, f.p)


def poly_dot(products: Iterable[Tuple[int, Poly, Poly, int]], n: int, p: int) -> Poly:
    """The sum of c * f * g**(p**e) over the terms (c, f, g, e), e >= 0,
    all in the ring F_p[x1..xn]; zero for no terms.

    g**(p**e) is read, never copied: over F_p it is g with its exponents
    multiplied by p**e (Fermat), a multiplier that stays with g when the
    smaller operand is put first.  One product with a single-term operand
    just shifts the other operand's monomials.  Otherwise every monomial is
    packed into one int, in one layout shared by all the products: variable
    j gets a bit field as wide as the largest xj exponent any of the
    products can hold, so no field carries and a monomial product is one
    integer addition.  The raw coefficient products of every term add into
    one accumulator keyed by packed monomial, which is reduced mod p once
    at the end, and only the surviving terms are unpacked: a sum that
    cancels down to a few terms never builds its products in full.

    The case budget, if set, is asked about every nonzero product, in the
    order given and by the operands' own term counts, before any is formed,
    and its deadline is checked once per row of the outer loop.
    """
    budget = case_budget.get()
    work = []
    for c, f, g, e in products:
        if f.n != n or f.p != p or g.n != n or g.p != p:
            raise ShapeError(
                f"ring mismatch: (n={f.n}, p={f.p}) * (n={g.n}, p={g.p}) in (n={n}, p={p})"
            )
        c %= p
        if c and f.terms and g.terms:
            if budget is not None:
                budget.before_product(len(f.terms), len(g.terms))
            fq, gq = 1, p ** e
            if len(f.terms) > len(g.terms):
                f, fq, g, gq = g, gq, f, fq
            work.append((c, f, fq, g, gq))
    if not work:
        return Poly._make(n, p, {})
    if len(work) == 1 and len(work[0][1].terms) == 1:
        [(c, f, fq, g, gq)] = work
        [(m1, c1)] = f.terms.items()
        if sum(m1) * fq + g.degree() * gq >= EXPONENT_LIMIT:
            raise OverflowError("product degree would exceed 2**63")
        c1, m1 = c1 * c % p, [a * fq for a in m1]
        return Poly._make(n, p, {
            tuple(a + b * gq for a, b in zip(m1, m2)): c1 * c2 % p for m2, c2 in g.terms.items()
        })
    columns = []
    tops = [0] * n  # the largest exponent of each variable in any product
    for c, f, fq, g, gq in work:
        fcols, gcols = list(zip(*f.terms)), list(zip(*g.terms))
        fmax, gmax = [max(a) * fq for a in fcols], [max(b) * gq for b in gcols]
        # the column maxima bound the degree; the exact one is read only near the limit
        if (sum(fmax) + sum(gmax) >= EXPONENT_LIMIT
                and f.degree() * fq + g.degree() * gq >= EXPONENT_LIMIT):
            raise OverflowError("product degree would exceed 2**63")
        tops = [max(t, a + b) for t, a, b in zip(tops, fmax, gmax)]
        columns.append((c, fcols, fq, f.terms.values(), gcols, gq, g.terms.values()))
    fields = []
    shift = 0
    for top in tops:
        width = top.bit_length()
        fields.append((shift, (1 << width) - 1))
        shift += width
    acc: Dict[int, int] = {}
    get = acc.get
    for c, fcols, fq, fcoeffs, gcols, gq, gcoeffs in columns:
        gp = list(zip(_pack(gcols, fields, gq), gcoeffs))
        for k1, c1 in zip(_pack(fcols, fields, fq), fcoeffs):
            if budget is not None:
                budget.checkpoint()
            c1 *= c
            for k2, c2 in gp:
                k = k1 + k2
                acc[k] = get(k, 0) + c1 * c2
    del columns, gp  # drop the operand columns before unpacking, to lower the peak
    keys = []
    coeffs = []
    for k, c in acc.items():
        c %= p
        if c:
            keys.append(k)
            coeffs.append(c)
    del acc, get  # and the accumulator
    cols = [[(k >> s) & mask for k in keys] for s, mask in fields]
    del keys
    return Poly._make(n, p, dict(zip(zip(*cols), coeffs)))


def _pack(cols: List[Tuple[int, ...]], fields: List[Tuple[int, int]], q: int) -> List[int]:
    """The packed keys, times q, of the monomials whose exponent columns are
    cols: variable j in fields[j], sized for its exponents times q."""
    keys = list(cols[0])
    for col, (shift, mask) in zip(cols[1:], fields[1:]):
        if mask:
            keys = [k + (a << shift) for k, a in zip(keys, col)]
    return keys if q == 1 else [k * q for k in keys]


def frobenius(f: Poly, e: int) -> Poly:
    """f**(p**e): the one-operand call of poly_dot, which scales exponents."""
    if e < 0:
        raise ValueError(f"Frobenius iterate must be nonneg, got {e}")
    return poly_dot(((1, poly_one(f.n, f.p), f, e),), f.n, f.p)


def poly_pow(f: Poly, k: int) -> Poly:
    """f**k by square and multiply, each step a poly_mul; identical to
    repeated poly_mul.  A p-th power is not routed through frobenius, so the
    two can be checked against each other."""
    if k < 0:
        raise ValueError(f"exponent must be nonneg, got {k}")
    if k == 0:
        return poly_one(f.n, f.p)
    result: Optional[Poly] = None
    base = f
    while k:
        if k & 1:
            result = base if result is None else poly_mul(result, base)
        k >>= 1
        if k:
            base = poly_mul(base, base)
    assert result is not None
    return result


def format_poly(f: Poly) -> str:
    """Render in the canonical text form, terms in descending grevlex.

    Grammar (round-trips through parse_poly):
      polynomial := term (" + " term)* | "0"
      term       := coeff | [coeff "*"] factor ("*" factor)*
      factor     := "x" index ["^" exponent]
    with coefficients in [1, p) and the coefficient 1 omitted.
    """
    if not f.terms:
        return "0"
    parts = []
    for m in sorted(f.terms, key=grevlex_key, reverse=True):
        c = f.terms[m]
        factors = [
            f"x{j + 1}^{a}" if a > 1 else f"x{j + 1}"
            for j, a in enumerate(m) if a
        ]
        if not factors:
            parts.append(str(c))
        elif c == 1:
            parts.append("*".join(factors))
        else:
            parts.append(str(c) + "*" + "*".join(factors))
    return " + ".join(parts)


def parse_poly(text: str, n: int, p: int) -> Poly:
    """Parse the text form of a polynomial over F_p in x1..xn.

    Accepts the grammar emitted by format_poly, with whitespace tolerated
    between tokens.  Coefficients must lie in [1, p); variable indices in
    1..n.  Duplicate monomials are summed mod p.  Raises ParseError with
    the offending position on malformed input.
    """
    require_prime(p)
    if n < 1:
        raise ValueError(f"need at least one variable, got n = {n}")
    i, size = 0, len(text)

    def skip_ws() -> None:
        nonlocal i
        while i < size and text[i].isspace():
            i += 1

    def read_int(what: str) -> int:
        nonlocal i
        start = i
        while i < size and text[i].isdigit():
            i += 1
        if i == start:
            raise ParseError(f"expected {what}", start)
        return int(text[start:i])

    skip_ws()
    if i == size:
        raise ParseError("empty input", i)
    if text[i] == "0":
        mark = i
        i += 1
        skip_ws()
        if i != size:
            raise ParseError("'0' must stand alone", mark)
        return Poly._make(n, p, {})

    terms: Terms = {}
    while True:
        skip_ws()
        start = i
        coeff = 1
        exps = [0] * n
        saw_factor = False
        if i < size and text[i].isdigit():
            coeff = read_int("coefficient")
            if not 1 <= coeff < p:
                raise ParseError(f"coefficient {coeff} outside [1, {p})", start)
            skip_ws()
            if i < size and text[i] == "*":
                i += 1
            else:
                # bare coefficient: a constant term
                saw_factor = True
        if not saw_factor:
            while True:
                skip_ws()
                if i >= size or text[i] != "x":
                    raise ParseError("expected a variable factor like x1", i)
                i += 1
                idx = read_int("variable index")
                if not 1 <= idx <= n:
                    raise ParseError(f"variable index {idx} outside 1..{n}", i - 1)
                exp = 1
                skip_ws()
                if i < size and text[i] == "^":
                    i += 1
                    skip_ws()
                    exp = read_int("exponent")
                    if exp >= EXPONENT_LIMIT:
                        raise ParseError("exponent exceeds 2**63", i - 1)
                exps[idx - 1] += exp
                if exps[idx - 1] >= EXPONENT_LIMIT:
                    raise ParseError("exponent exceeds 2**63", i - 1)
                skip_ws()
                if i < size and text[i] == "*":
                    i += 1
                    continue
                break
        _add_into(terms, ((tuple(exps), coeff),), 1, p)
        skip_ws()
        if i == size:
            break
        if text[i] != "+":
            raise ParseError("expected '+' between terms", i)
        i += 1
        skip_ws()
        if i == size:
            raise ParseError("dangling '+'", i - 1)
    return Poly._make(n, p, terms)
