"""Exact-arithmetic certificates for anticanonical-cycle surface lattices.

The package builds rational surfaces with an anticanonical cycle at the
lattice level, computes their boundary complements, period points, and
genus-one fibrations, and certifies non-arithmeticity of the symmetry group
of a negative definite pair through finite, exact witnesses.  All arithmetic
is over the integers; no rationals and no floating point are used anywhere.
The package exports nothing: callers import the submodules they use.
"""
