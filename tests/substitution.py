"""General linear substitution, the tests' independent oracle for the
closed-form generator actions of dickson.invariants (generator_actions),
for the Lucas transvection image and for the invariant dimension counts;
and the generators' matrices, read off those actions at x1..xn, with the
group they generate.

A matrix is a tuple of rows of residues mod p; its column j is the image
of xj."""
from functools import lru_cache
from typing import FrozenSet, Tuple

from dickson.fp_poly import (
    Poly,
    ShapeError,
    poly_add,
    poly_const,
    poly_mul,
    poly_pow,
    poly_var,
)
from dickson.invariants import generator_actions

Rows = Tuple[Tuple[int, ...], ...]


def substitute_linear(f: Poly, rows: Rows) -> Poly:
    """Apply the linear substitution xj -> sum_k rows[k][j] * xk over F_p,
    p = f.p.

    Columns of the matrix give the images of the variables (column
    convention).  The degree of every term is preserved when the matrix is
    invertible; singular matrices are allowed and may collapse terms.
    """
    n, p = f.n, f.p
    if len(rows) != n or any(len(row) != n for row in rows):
        raise ShapeError(f"{len(rows)}-row matrix cannot act on Poly(n={n}, p={p})")
    columns = [tuple(a % p for a in column) for column in zip(*rows)]
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


def mat_mul(a: Rows, b: Rows, p: int) -> Rows:
    """The product a b mod p: substituting by b, then by a, is
    substituting by a b."""
    return tuple(tuple(sum(x * y for x, y in zip(row, column)) % p for column in zip(*b))
                 for row in a)


def identity(n: int) -> Rows:
    return tuple(tuple(int(a == b) for b in range(n)) for a in range(n))


@lru_cache(maxsize=None)
def generator_matrices(n: int, p: int) -> Tuple[Rows, ...]:
    """The matrix of each of generator_actions(n, p), in its order: column
    j is the action's image of xj, which must be linear."""
    matrices = []
    for act in generator_actions(n, p):
        columns = []
        for j in range(1, n + 1):
            column = [0] * n
            for m, c in act(poly_var(j, n, p)).terms.items():
                assert sum(m) == 1, f"image of x{j} is not linear"
                column[m.index(1)] = c
            columns.append(column)
        matrices.append(tuple(zip(*columns)))
    return tuple(matrices)


@lru_cache(maxsize=None)
def closure(n: int, p: int) -> FrozenSet[Rows]:
    """Every product of generator_matrices(n, p), the identity included:
    the group they generate."""
    gens = generator_matrices(n, p)
    seen = {identity(n)}
    frontier = list(seen)
    while frontier:
        frontier = list({mat_mul(m, g, p) for m in frontier for g in gens} - seen)
        seen.update(frontier)
    return frozenset(seen)
