"""General linear substitution, the tests' independent oracle for the
closed-form generator actions of dickson.invariants (generator_actions),
for the Lucas transvection image and for the invariant dimension counts."""
from functools import lru_cache
from typing import Tuple

from dickson.fp_poly import (
    Matrix,
    Poly,
    ShapeError,
    poly_add,
    poly_const,
    poly_mul,
    poly_pow,
)


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
