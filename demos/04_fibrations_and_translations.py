# genus-one fibrations from the boundary cycle, for a generic and for the
# trivial period point, plus the translation isometries the sections induce

from cuspcheck.enumeration import canonical_root, vectors_of_square
from cuspcheck.fibration import analyze_fibration, mw_translation_group
from cuspcheck.isometry import classify_isometry
from cuspcheck.period import solve_period
from cuspcheck.surface import boundary_complement, interior_blowup, toric_from_sequence

y = toric_from_sequence((-1, -2, -1, -1, -1, -1, -2))
for comp in (1, 3, 4, 5, 6):
    y = interior_blowup(y, comp)
lam = boundary_complement(y).sublattice
d = y.boundary_sum()
roots = vectors_of_square(lam.as_lattice(), -2)
beta = lam.embed(canonical_root(roots))


def show(label, phi):
    fib = analyze_fibration(y, phi)
    print(label)
    print("  multiple:", fib.multiple, "| has section:", fib.has_section)
    print("  reducible fibers:", [c.kodaira_type for c in fib.reducible_fibers])
    print("  translation rank:", fib.mw_rank)
    return fib


fib = show("generic period:", solve_period(lam, [(d, "zero"), (beta, "nonzero")]))
show("trivial period:", solve_period(lam, [(d, "zero"), (beta, "zero")]))

print()
print("translation isometries for the generic branch:")
for g in mw_translation_group(y, fib):
    kind = classify_isometry(g)
    print("  tag:", kind.tag, "| fixed isotropic line:", kind.fixed_isotropic)
    # translations fix the fiber class itself
    assert g.apply(fib.fiber_class) == fib.fiber_class
