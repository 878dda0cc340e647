"""Tour of the exact polynomial layer: arithmetic, text form, Frobenius,
and the generators of GL(2, F_3) acting term by term.

Run as a script; every claim is printed alongside the computation.
"""
from dickson import (
    format_poly,
    frobenius,
    generator_actions,
    parse_poly,
    poly_mul,
    poly_pow,
    poly_var,
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
print("== the generators of GL(2, F_3) act term by term ==")
print("each is given by its action; its images of x1 and x2 are the columns of its matrix,")
print("and h is read off its terms, with no product formed")
for act in generator_actions(2, p):
    print(f"x1 -> {format_poly(act(x1))},  x2 -> {format_poly(act(x2))},"
          f"  h -> {format_poly(act(h))}")
