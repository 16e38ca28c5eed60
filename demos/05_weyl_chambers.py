"""Reflections, dihedral pairs, and chamber walks.

Two (-2)-roots generate a dihedral group whose order is read off from their
pairing: 0 or 1 give a finite group, anything with |pairing| >= 2 is infinite.
The chamber certificate makes infinitude concrete by walking a point across
the successive reflection walls and recording the sign pattern at each stop —
all patterns distinct means the walk never returns.
"""

from cuspcheck.lattice import diagonal_lattice, direct_sum, hyperbolic_plane
from cuspcheck.weyl import chamber_certificate, chamber_sign, dihedral_order, reflect

lat = direct_sum(hyperbolic_plane(), diagonal_lattice([-2]))
alpha = (0, 0, 1)
beta = (1, 0, -1)

print("pairing:", lat.pair(alpha, beta))
print("dihedral order:", dihedral_order(lat, alpha, beta))

x = (5, 7, 1)
print("reflect x in alpha:", reflect(lat, alpha, x))
print("reflect twice:", reflect(lat, alpha, reflect(lat, alpha, x)))

cert = chamber_certificate(lat, alpha, beta, witness_count=12)
sign_vectors = [chamber_sign(lat, p, cert.roots) for p in cert.points]
print("base point:", cert.points[0])
print("distinct sign vectors:", len(set(sign_vectors)), "of", len(sign_vectors))
for point, signs in list(zip(cert.points, sign_vectors))[:5]:
    print("  point", point, "signs", signs)

# a pairing of 1 closes up after six reflections
a2 = diagonal_lattice([-2, -2])
from cuspcheck.lattice import gram_lattice

a2 = gram_lattice([[-2, 1], [1, -2]])
print("A2 dihedral order:", dihedral_order(a2, (1, 0), (0, 1)))
