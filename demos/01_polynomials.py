"""Tour of the exact polynomial layer: arithmetic, text form, Frobenius,
linear substitution.

Run as a script; every claim is printed alongside the computation.
"""
from dickson import (
    Matrix,
    format_poly,
    frobenius,
    parse_poly,
    poly_mul,
    poly_pow,
    poly_var,
    substitute_linear,
)

p = 3
x1 = poly_var(1, 2, p)
x2 = poly_var(2, 2, p)

print("== arithmetic over F_3 in x1, x2 ==")
f = (x1 + x2) ** 2
print("(x1 + x2)^2        =", format_poly(f))
print("(x1 + x2)^3        =", format_poly((x1 + x2) ** 3),
      "   <- freshman's dream, p = 3")
print("(x1 + 2*x2)(x1+x2) =", format_poly((x1 + x2 + x2) * (x1 + x2)))

print()
print("== the text grammar round trips ==")
text = "2*x1^4*x2 + x1*x2^2 + 1"
g = parse_poly(text, 2, p)
print("parsed  ", text)
print("printed ", format_poly(g))
print("terms are kept in descending graded reverse lexicographic order")

print()
print("== Frobenius is exponent scaling ==")
h = x1 ** 2 + poly_mul(x1, x2)
print("h          =", format_poly(h))
print("h^3        =", format_poly(poly_pow(h, 3)))
print("frobenius  =", format_poly(frobenius(h, 1)), "   <- same thing, no multiplication")

print()
print("== linear substitution, columns carry variable images ==")
t = Matrix(p, [[1, 0], [1, 1]])  # x1 -> x1 + x2, x2 fixed
print("x1 under the transvection ->", format_poly(substitute_linear(x1, t)))
print("h  under the transvection ->", format_poly(substitute_linear(h, t)))
