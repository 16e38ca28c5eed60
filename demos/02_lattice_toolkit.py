# exact lattice machinery on small examples: signatures, complements,
# short-vector enumeration.  everything is plain integers, no floats anywhere.

from cuspcheck.enumeration import vectors_of_square
from cuspcheck.lattice import (
    diagonal_lattice,
    direct_sum,
    gram_lattice,
    hyperbolic_plane,
    orthogonal_complement,
    signature,
)

u = hyperbolic_plane()
print("hyperbolic plane signature:", signature(u))

lat = direct_sum(u, diagonal_lattice([-2, -2]))
print("U + A1 + A1 signature:", signature(lat))

# the A2 root lattice, negated so it is negative definite
a2 = gram_lattice([[-2, 1], [1, -2]])
roots = vectors_of_square(a2, -2)
print("A2(-1) roots:", roots.representatives)

# a degenerate gram: the cycle of seven (-2)-components
n = 7
g = [[0] * n for _ in range(n)]
for i in range(n):
    g[i][i] = -2
    g[i][(i + 1) % n] = 1
    g[(i + 1) % n][i] = 1
cyc = gram_lattice(g)
print("cycle signature:", signature(cyc))
print("cycle radical:", list(cyc.radical))

# orthogonal complement of a vector inside U + A1 + A1
sub = orthogonal_complement(lat, [[1, 1, 0, 0]])
print("complement basis:", sub.basis)
print("complement gram:", [list(r) for r in sub.as_lattice().gram])
