"""Sparse exact polynomial arithmetic over a prime field F_p.

A polynomial in the variables x1..xn is a dict mapping exponent tuples
(a1, ..., an) to coefficients in [1, p).  Only nonzero coefficients are
stored, so the zero polynomial is the empty dict and equality of canonical
forms is plain dict equality.  All arithmetic is exact: coefficients are
residues mod p, exponents are arbitrary nonneg ints below 2**63.

The monomial order used everywhere (division, formatting, witnesses) is
graded reverse lexicographic: compare total degree first, and break ties
by the *last* position where the exponents differ, smaller exponent wins.

Exponent tuples are the only stored form of a monomial.  Inside poly_mul
and exact_div each monomial is packed into one Python int, with one bit
field per variable, sized from the operands so that no field can carry
into the next; multiplying two monomials is then one integer addition
(packed exponent vectors, after Monagan and Pearce).  Packing never
leaves those two functions.

Values are immutable by convention: no function here mutates an input
Poly or Matrix, and callers must not touch .terms / .entries after
construction.  That makes sharing (memo tables, repeated references)
safe without defensive copying.
"""
from __future__ import annotations

import heapq
from functools import lru_cache
from typing import Dict, Iterable, Mapping, Optional, Tuple

Monomial = Tuple[int, ...]
Terms = Dict[Monomial, int]

PRIME_LIMIT = 2 ** 31
EXPONENT_LIMIT = 2 ** 63


class ShapeError(ValueError):
    """Operands live in different rings (mismatched variable count or p)."""


class NotDivisible(ArithmeticError):
    """Exact division was requested but no exact quotient exists."""


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
        return max(sum(m) for m in self.terms)

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


def poly_add(f: Poly, g: Poly) -> Poly:
    _same_ring(f, g)
    p = f.p
    out = dict(f.terms)
    for m, c in g.terms.items():
        v = (out.get(m, 0) + c) % p
        if v:
            out[m] = v
        else:
            out.pop(m, None)
    return Poly._make(f.n, p, out)


def poly_sub(f: Poly, g: Poly) -> Poly:
    _same_ring(f, g)
    p = f.p
    out = dict(f.terms)
    for m, c in g.terms.items():
        v = (out.get(m, 0) - c) % p
        if v:
            out[m] = v
        else:
            out.pop(m, None)
    return Poly._make(f.n, p, out)


def poly_scale(f: Poly, c: int) -> Poly:
    c = c % f.p
    if c == 0:
        return Poly._make(f.n, f.p, {})
    if c == 1:
        return f
    p = f.p
    return Poly._make(f.n, p, {m: (v * c) % p for m, v in f.terms.items()})


def poly_mul(f: Poly, g: Poly) -> Poly:
    """The product f * g.

    A single-term operand just shifts the other operand's monomials.
    Otherwise each monomial is packed into one int, variable j in a bit
    field as wide as the largest xj exponent the product can hold, so no
    field carries and a monomial product is one integer addition.  The raw
    coefficient products are summed per packed monomial, reduced mod p once
    at the end, and only the surviving terms are unpacked.
    """
    _same_ring(f, g)
    if not f.terms or not g.terms:
        return Poly._make(f.n, f.p, {})
    if f.degree() + g.degree() >= EXPONENT_LIMIT:
        raise OverflowError("product degree would exceed 2**63")
    if len(f.terms) > len(g.terms):
        f, g = g, f
    p = f.p
    if len(f.terms) == 1:
        [(m1, c1)] = f.terms.items()
        return Poly._make(f.n, p, {
            tuple(a + b for a, b in zip(m1, m2)): c1 * c2 % p for m2, c2 in g.terms.items()
        })
    fields = []
    shift = 0
    fk = [0] * len(f.terms)
    gk = [0] * len(g.terms)
    for j in range(f.n):
        fcol = [m[j] for m in f.terms]
        gcol = [m[j] for m in g.terms]
        width = (max(fcol) + max(gcol)).bit_length()
        if width:
            fk = [k + (a << shift) for k, a in zip(fk, fcol)]
            gk = [k + (a << shift) for k, a in zip(gk, gcol)]
        fields.append((shift, (1 << width) - 1))
        shift += width
    gp = list(zip(gk, g.terms.values()))
    acc: Dict[int, int] = {}
    get = acc.get
    for k1, c1 in zip(fk, f.terms.values()):
        for k2, c2 in gp:
            k = k1 + k2
            acc[k] = get(k, 0) + c1 * c2
    keys = []
    coeffs = []
    for k, c in acc.items():
        c %= p
        if c:
            keys.append(k)
            coeffs.append(c)
    cols = [[(k >> s) & mask for k in keys] for s, mask in fields]
    out = dict(zip(zip(*cols), coeffs))
    return Poly._make(f.n, p, out)


def frobenius(f: Poly, e: int) -> Poly:
    """f raised to the p**e power, done by scaling exponents.

    Over F_p the Frobenius x -> x**p is additive and fixes coefficients
    (Fermat), so f**(p**e) just multiplies every exponent by p**e.
    """
    if e < 0:
        raise ValueError(f"Frobenius iterate must be nonneg, got {e}")
    if e == 0 or not f.terms:
        return f
    q = f.p ** e
    if f.degree() * q >= EXPONENT_LIMIT:
        raise OverflowError("Frobenius image degree would exceed 2**63")
    return Poly._make(f.n, f.p, {tuple(a * q for a in m): c for m, c in f.terms.items()})


def poly_pow(f: Poly, k: int) -> Poly:
    """f**k by square and multiply, routing p-power factors of k through
    frobenius; identical to repeated poly_mul."""
    if k < 0:
        raise ValueError(f"exponent must be nonneg, got {k}")
    if k == 0:
        return poly_one(f.n, f.p)
    e = 0
    while k % f.p == 0:
        k //= f.p
        e += 1
    result: Optional[Poly] = None
    base = f
    while k:
        if k & 1:
            result = base if result is None else poly_mul(result, base)
        k >>= 1
        if k:
            base = poly_mul(base, base)
    assert result is not None
    return frobenius(result, e) if e else result


def exact_div(f: Poly, g: Poly) -> Poly:
    """The exact quotient f / g, or NotDivisible if none exists.

    Single-divisor division with respect to grevlex: repeatedly cancel the
    leading term of the remainder against the leading term of g.  Because
    only leading terms are reduced, a nonzero final remainder (equivalently,
    a leading monomial not divisible by g's) proves f is not a multiple of g.

    Internally a monomial of degree d is packed as the int
    (d << n*w) - sum(a_j << j*w), with w bits per field, enough for every
    exponent of f and g.  No remainder term has a larger degree than f's
    lead, so no field carries: the packed ints add like exponent vectors
    and order like grevlex.  Only each popped lead is unpacked, to decide
    divisibility field by field.
    """
    _same_ring(f, g)
    if not g.terms:
        raise ZeroDivisionError("division by the zero polynomial")
    if not f.terms:
        return Poly._make(f.n, f.p, {})
    p = f.p
    w = max(f.degree(), g.degree()).bit_length()
    top = f.n * w
    mask = (1 << w) - 1
    shifts = [j * w for j in range(f.n)]

    def pack(m: Monomial) -> int:
        return (sum(m) << top) - sum(a << s for a, s in zip(m, shifts))

    glead = max(g.terms, key=grevlex_key)
    gkey = pack(glead)
    ginv = pow(g.terms[glead], p - 2, p)
    gtail = [(pack(m), c) for m, c in g.terms.items() if m != glead]
    rem = {pack(m): c for m, c in f.terms.items()}
    # A min-heap of negated keys pops the grevlex-largest monomial.
    heap = [-k for k in rem]
    heapq.heapify(heap)
    quo: Terms = {}
    while rem:
        # Pop until we hit a monomial still live in the remainder; stale
        # entries are left over from coefficients that cancelled to zero.
        while True:
            k = -heapq.heappop(heap)
            if k in rem:
                break
        c = rem.pop(k)
        low = (-(-k >> top) << top) - k  # the packed exponents, degree removed
        m = tuple((low >> s) & mask for s in shifts)
        if any(a < b for a, b in zip(m, glead)):
            raise NotDivisible(f"leading monomial {m} is not a multiple of {glead}")
        qk = k - gkey
        qc = c * ginv % p
        quo[tuple(a - b for a, b in zip(m, glead))] = qc
        for tk, tc in gtail:
            u = qk + tk
            v = (rem.get(u, 0) - qc * tc) % p
            if v:
                if u not in rem:
                    heapq.heappush(heap, -u)
                rem[u] = v
            else:
                rem.pop(u, None)
    return Poly._make(f.n, p, quo)


class Matrix:
    """A square matrix over F_p, rows as tuples; immutable by convention."""

    __slots__ = ("p", "entries")

    def __init__(self, p: int, entries: Iterable[Iterable[int]]):
        require_prime(p)
        rows = tuple(tuple(int(v) % p for v in row) for row in entries)
        n = len(rows)
        if n == 0 or any(len(row) != n for row in rows):
            raise ShapeError("matrix must be square and nonempty")
        self.p = p
        self.entries = rows

    @classmethod
    def identity(cls, n: int, p: int) -> "Matrix":
        return cls(p, tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n)))

    @property
    def n(self) -> int:
        return len(self.entries)

    def det(self) -> int:
        """Determinant mod p, by Gaussian elimination."""
        p = self.p
        a = [list(row) for row in self.entries]
        n = len(a)
        d = 1
        for col in range(n):
            piv = next((r for r in range(col, n) if a[r][col]), None)
            if piv is None:
                return 0
            if piv != col:
                a[col], a[piv] = a[piv], a[col]
                d = -d
            inv = pow(a[col][col], p - 2, p)
            d = d * a[col][col] % p
            for r in range(col + 1, n):
                if a[r][col]:
                    factor = a[r][col] * inv % p
                    a[r] = [(x - factor * y) % p for x, y in zip(a[r], a[col])]
        return d % p

    def is_invertible(self) -> bool:
        return self.det() != 0

    def mul(self, other: "Matrix") -> "Matrix":
        if self.p != other.p or self.n != other.n:
            raise ShapeError("matrix product needs matching size and p")
        p = self.p
        n = self.n
        rows = tuple(
            tuple(sum(self.entries[i][k] * other.entries[k][j] for k in range(n)) % p
                  for j in range(n))
            for i in range(n)
        )
        return Matrix(p, rows)

    def __matmul__(self, other: "Matrix") -> "Matrix":
        return self.mul(other)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Matrix):
            return NotImplemented
        return self.p == other.p and self.entries == other.entries

    def __hash__(self) -> int:
        return hash((self.p, self.entries))

    def __repr__(self) -> str:
        return f"Matrix({self.p}, {self.entries})"


def substitute_linear(f: Poly, mat: Matrix) -> Poly:
    """Apply the linear substitution xj -> sum_k mat[k][j] * xk.

    Columns of mat give the images of the variables (column convention).
    The degree of every term is preserved when mat is invertible; singular
    matrices are allowed and may collapse terms.
    """
    if mat.p != f.p or mat.n != f.n:
        raise ShapeError(
            f"matrix over p={mat.p} size {mat.n} cannot act on Poly(n={f.n}, p={f.p})"
        )
    n, p = f.n, f.p
    columns = list(zip(*mat.entries))
    total = Poly._make(n, p, {})
    for m, c in f.terms.items():
        prod = poly_const(c, n, p)
        for j, a in enumerate(m):
            if a:
                prod = poly_mul(prod, _linear_power(p, columns[j], a))
        total = poly_add(total, prod)
    return total


@lru_cache(maxsize=None)
def _linear_power(p: int, column: Tuple[int, ...], a: int) -> Poly:
    """(sum_k column[k] * xk) ** a over F_p; shared by every substitution
    whose matrix has this column."""
    n = len(column)
    image = {
        tuple(1 if t == k else 0 for t in range(n)): c for k, c in enumerate(column) if c
    }
    return poly_pow(Poly._make(n, p, image), a)


def degree(f: Poly) -> int:
    return f.degree()


def topological_degree(f: Poly) -> int:
    """Degree in the grading where each xj sits in dimension 2 for odd p
    (their p-th Bockstein images span the polynomial part) and 1 for p = 2."""
    d = f.degree()
    if d < 0:
        return -1
    return d if f.p == 2 else 2 * d


def is_homogeneous(f: Poly) -> bool:
    degs = {sum(m) for m in f.terms}
    return len(degs) <= 1


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
        m = tuple(exps)
        v = (terms.get(m, 0) + coeff) % p
        if v:
            terms[m] = v
        else:
            terms.pop(m, None)
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
