"""Torsion period points on the boundary complement.

A period point is a homomorphism from the boundary-orthogonal sublattice to
Z/m.  The solver finds the smallest modulus meeting a list of zero / nonzero
constraints; here we ask for one that kills the boundary sum but not the
root, and then check what that choice forces.
"""

from cuspcheck.enumeration import canonical_root, vectors_of_square
from cuspcheck.errors import InputError
from cuspcheck.period import is_generic, solve_period
from cuspcheck.surface import boundary_complement, interior_blowup, toric_from_sequence

y = toric_from_sequence((-1, -2, -1, -1, -1, -1, -2))
for comp in (1, 3, 4, 5, 6):
    y = interior_blowup(y, comp)

lam = boundary_complement(y).sublattice
d = y.boundary_sum()
roots = vectors_of_square(lam.as_lattice(), -2)
beta = lam.embed(canonical_root(roots))

phi = solve_period(lam, [(d, "zero"), (beta, "nonzero")])
print("modulus:", phi.modulus)
print("values on the complement basis:", phi.values)
print("phi(D) =", phi.evaluate(d), " phi(beta) =", phi.evaluate(beta))
print("generic:", is_generic(phi, roots))

# the same constraints admit no solution at modulus 1
try:
    solve_period(lam, [(d, "zero"), (beta, "nonzero")], modulus_bound=1)
except InputError as exc:
    print("bound 1:", exc)

# dropping the nonzero constraint lets the trivial period through
trivial = solve_period(lam, [(d, "zero")], modulus=1)
print("trivial period is generic:", is_generic(trivial, roots))
