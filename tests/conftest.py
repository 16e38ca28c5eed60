import os
from pathlib import Path

import pytest

from helpers import make_rng

from cuspcheck.enumeration import vectors_of_square
from cuspcheck.period import solve_period
from cuspcheck.surface import boundary_complement, interior_blowup, toric_from_sequence

# The CLI tests start ``python -m cuspcheck`` in a subprocess, which needs
# the source tree on its path as much as this process does.
_SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (_SRC, os.environ.get("PYTHONPATH")) if p
)

SEED_SEQUENCE = (-1, -2, -1, -1, -1, -1, -2)
BLOWUP_COMPONENTS = (1, 3, 4, 5, 6)


@pytest.fixture
def rng():
    """Seeded RNG for the property suites; override with CUSPCHECK_SEED."""
    return make_rng()


@pytest.fixture(scope="session")
def seed_surface():
    """The rank-10 surface with a cycle of seven (-2)-components."""
    s = toric_from_sequence(SEED_SEQUENCE)
    for c in BLOWUP_COMPONENTS:
        s = interior_blowup(s, c)
    return s


@pytest.fixture(scope="session")
def seed_complement(seed_surface):
    return boundary_complement(seed_surface).sublattice


@pytest.fixture(scope="session")
def seed_roots(seed_complement):
    return vectors_of_square(seed_complement.as_lattice(), -2)


@pytest.fixture(scope="session")
def generic_phi(seed_surface, seed_complement, seed_roots):
    beta = seed_complement.embed(seed_roots.representatives[0])
    return solve_period(
        seed_complement,
        [(seed_surface.boundary_sum(), "zero"), (beta, "nonzero")],
    )


@pytest.fixture(scope="session")
def trivial_phi(seed_surface, seed_complement):
    return solve_period(
        seed_complement, [(seed_surface.boundary_sum(), "zero")], modulus=1
    )
