"""Reflections, dihedral pairs, and chamber walks.

Two (-2)-roots generate a dihedral group whose order is read off from their
pairing: 0 or 1 give a finite group, anything with |pairing| >= 2 is infinite.
The chamber certificate is just the two roots, a base point strictly inside
their wedge, and the number N of walls: by the inversion-set theorem the walk
of the alternating word from that base crosses N + 1 distinct chambers.  Here
the walk is built anyway, by the reflection recurrence, to show the sign
pattern at each stop: all patterns distinct means the walk never returns.
"""

from cuspcheck.lattice import diagonal_lattice, direct_sum, hyperbolic_plane
from cuspcheck.weyl import chamber_certificate, chamber_sign, dihedral_order


def reflect(lat, alpha, x):
    """Reflection in a (-2)-root: x -> x + (x.alpha) alpha."""
    return tuple(xi + lat.pair(x, alpha) * ai for xi, ai in zip(x, alpha))


lat = direct_sum(hyperbolic_plane(), diagonal_lattice([-2]))
alpha = (0, 0, 1)
beta = (1, 0, -1)

print("pairing:", lat.pair(alpha, beta))
print("dihedral order:", dihedral_order(lat, alpha, beta))

x = (5, 7, 1)
print("reflect x in alpha:", reflect(lat, alpha, x))
print("reflect twice:", reflect(lat, alpha, reflect(lat, alpha, x)))

cert = chamber_certificate(lat, alpha, beta, witness_count=12)
# wall k is letter k moved by the word before it: w_{k+1} = -s_{w_k}(w_{k-1})
walls = [alpha, reflect(lat, alpha, beta)]
while len(walls) < cert.requested:
    walls.append(tuple(-c for c in reflect(lat, walls[-1], walls[-2])))
points = [cert.base]
for wall in walls:
    points.append(reflect(lat, wall, points[-1]))
sign_vectors = [chamber_sign(lat, p, walls) for p in points]
print("base point:", cert.base)
print("distinct sign vectors:", len(set(sign_vectors)), "of", len(sign_vectors))
for point, signs in list(zip(points, sign_vectors))[:5]:
    print("  point", point, "signs", signs)

# a pairing of 1 closes up after six reflections
a2 = diagonal_lattice([-2, -2])
from cuspcheck.lattice import gram_lattice

a2 = gram_lattice([[-2, 1], [1, -2]])
print("A2 dihedral order:", dihedral_order(a2, (1, 0), (0, 1)))
