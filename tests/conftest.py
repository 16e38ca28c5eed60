import json
import os
from pathlib import Path

import pytest

from helpers import make_rng, run_cli

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


# the order-six rotation of the A2(-1) block of <2> + A2(-1)
ORDER_SIX = {
    "ambient": {"gram": [[2, 0, 0], [0, -2, 1], [0, 1, -2]], "rank": 3},
    "matrix": [[1, 0, 0], [0, 0, 1], [0, -1, 1]],
}


@pytest.fixture(scope="session")
def workdir(tmp_path_factory):
    """Files shared by the CLI round-trip tests and the reachability run,
    each made through the CLI but the isometry: the paper's Y (surface),
    its S~ (tilde), Y's period (phi) and an order-six isometry."""
    d = tmp_path_factory.mktemp("cli")
    surface = d / "surface.json"
    out = run_cli("toric", "--sequence=" + ",".join(map(str, SEED_SEQUENCE))).stdout
    for comp in BLOWUP_COMPONENTS:
        surface.write_text(out)
        out = run_cli("blowup", "--surface", str(surface), "--component", str(comp)).stdout
    surface.write_text(out)
    tilde = d / "tilde.json"
    tilde.write_text(
        run_cli("blowup", "--surface", str(surface), "--component", "6").stdout
    )
    phi = d / "phi.json"
    phi.write_text(
        run_cli(
            "period", "solve", "--surface", str(surface),
            "--zero", "D", "--nonzero", "beta",
        ).stdout
    )
    (d / "isometry.json").write_text(json.dumps(ORDER_SIX))
    return d
