"""The module layers of the package, at run time and in its import statements.

The package's ``__init__`` imports nothing, so the modules that a fresh
interpreter holds after one import are that module's import closure; three
tests read them off ``sys.modules`` in a subprocess, one of them counting
the lines of their files, and more after one command-line run (help and
usage errors included), since the CLI imports ``pipeline`` and
``fibration`` only in the handlers that use them.  The other tests read the
relative import statements, module-level and nested ``from .x import``
alike, so an import made inside a function counts too, and every imported
name must be used; one more reads that every dataclass has a docstring.  Within its imports the checker calls still less, which
one test holds call by call, and it reads a lattice by its Gram matrix and
an isometry by its matrix alone, which another holds with plain namespaces,
refusing a family matrix of the wrong shape as malformed input.
"""

import ast
import json
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

from cuspcheck import intlinalg, isometry, lattice
from cuspcheck.checker import totaro_check
from cuspcheck.enumeration import canonical_root
from cuspcheck.errors import InputError
from cuspcheck.jsonio import canonical_dumps, period_to_dict, surface_to_dict
from cuspcheck.period import solve_period
from cuspcheck.pipeline import BLOWUP_COMPONENTS, SEED_SEQUENCE, _Chain, make_config
from cuspcheck.surface import boundary_complement, interior_blowup, toric_from_sequence

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "cuspcheck"
GOLDEN = Path(__file__).parent / "golden" / "verify_paper_report.json"

# the checker's trusted base: the integer core and the error types
CHECKER_BASE = {"checker", "errors", "intcore"}
# the producer modules that help, usage errors and most subcommands never load
PRODUCER = {"cuspcheck.fibration", "cuspcheck.weyl", "cuspcheck.pipeline"}
# imported names a module never uses: weyl re-exports totaro_check, which
# bench/tracing.py wraps as weyl.totaro_check
UNUSED_IMPORTS = {("weyl", "totaro_check")}


def _imports():
    """Module name -> the in-package modules it imports."""
    graph = {}
    for path in PACKAGE.glob("*.py"):
        found = set()
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                if node.module is None:  # from . import x
                    found.update(alias.name for alias in node.names)
                else:
                    found.add(node.module.split(".")[0])
        graph[path.stem] = found
    return graph


def _loaded_by(module, attribute="__name__"):
    """The in-package modules a fresh interpreter holds after one import, by
    name or by another attribute such as ``__file__``."""
    code = (
        f"import sys, cuspcheck.{module}\n"
        f"print(*sorted(m.{attribute} for n, m in sys.modules.items()"
        " if n.split('.')[0] == 'cuspcheck'), sep='\\n')"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True
    )
    return set(proc.stdout.splitlines())


def _loaded_by_run(argv):
    """The in-package modules a fresh interpreter holds after ``cli.main(argv)``,
    and its exit code, that of argparse's ``SystemExit`` for help and usage
    errors."""
    code = (
        "import contextlib, io, sys\n"
        "from cuspcheck import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    try:\n"
        f"        code = cli.main({argv!r})\n"
        "    except SystemExit as exc:\n"
        "        code = exc.code\n"
        "print(code, *sorted(m for m in sys.modules if m.split('.')[0] == 'cuspcheck'))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True
    )
    code, *loaded = proc.stdout.split()
    return int(code), set(loaded)


def _closure(graph, start):
    seen, todo = set(), [start]
    while todo:
        name = todo.pop()
        if name not in seen:
            seen.add(name)
            todo.extend(graph[name])
    return seen


def test_the_import_graph_is_read_from_the_sources():
    graph = _imports()
    assert "checker" in graph["pipeline"] and "jsonio" in graph["cli"]
    assert _closure(graph, "cli") >= {"pipeline", "weyl", "checker", "jsonio"}


def test_the_checker_imports_only_lattice_arithmetic():
    assert _closure(_imports(), "checker") <= CHECKER_BASE


def test_jsonio_does_not_load_the_producer():
    assert "weyl" not in _closure(_imports(), "jsonio")


def test_every_imported_name_is_used():
    unused = set()
    for path in PACKAGE.glob("*.py"):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import) or (
                isinstance(node, ast.ImportFrom) and node.module != "__future__"
            ):
                names = ((alias.asname or alias.name).split(".")[0] for alias in node.names)
                unused.update((path.stem, name) for name in names if name not in used)
    assert unused <= UNUSED_IMPORTS


def test_every_dataclass_has_its_own_docstring():
    # on Python 3.10 and 3.11, a dataclass with none gets a __doc__ built
    # from inspect.signature on every import, which help() shows as its
    # quoted annotations
    bare = set()
    for path in PACKAGE.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ClassDef) and any(
                "dataclass" in ast.unparse(d) for d in node.decorator_list
            ) and ast.get_docstring(node) is None:
                bare.add((path.stem, node.name))
    assert not bare


def test_a_fresh_checker_import_loads_only_its_trusted_base():
    assert _loaded_by("checker") == {"cuspcheck"} | {f"cuspcheck.{m}" for m in CHECKER_BASE}


def test_the_checker_and_its_imports_stay_under_500_lines():
    files = _loaded_by("checker", "__file__")
    assert sum(len(Path(f).read_text(encoding="utf-8").splitlines()) for f in files) < 500


def test_a_fresh_jsonio_import_loads_neither_weyl_nor_the_pipeline():
    loaded = _loaded_by("jsonio")
    assert "cuspcheck.jsonio" in loaded
    assert not loaded & PRODUCER


def test_a_toric_run_loads_neither_weyl_nor_the_pipeline():
    code, loaded = _loaded_by_run(["toric", "--sequence=-1,-2,-1,-1,-1,-1,-2"])
    assert code == 0 and "cuspcheck.cli" in loaded
    assert not loaded & PRODUCER


@pytest.mark.parametrize(
    "argv, expected",
    [(["--help"], 0), (["bogus"], 2), (["criterion", "check", "--help"], 0)],
    ids=["--help", "bogus", "criterion check --help"],
)
def test_help_and_usage_errors_load_neither_weyl_nor_the_pipeline(argv, expected):
    # the --witness-count default comes from the checker, not from DEFAULT_CONFIG
    code, loaded = _loaded_by_run(argv)
    assert code == expected and "cuspcheck.cli" in loaded
    assert not loaded & PRODUCER


def _paper_y():
    """The paper's Y: the toric seed blown up in the paper's order."""
    y = toric_from_sequence(SEED_SEQUENCE)
    for comp in BLOWUP_COMPONENTS:
        y = interior_blowup(y, comp)
    return y


def test_a_period_solve_run_loads_neither_weyl_nor_the_pipeline(tmp_path):
    # the --modulus-bound default comes from period, not from DEFAULT_CONFIG,
    # and the beta token's canonical root from enumeration
    surface = tmp_path / "y.json"
    surface.write_text(canonical_dumps(surface_to_dict(_paper_y())))
    argv = ["period", "solve", "--surface", str(surface), "--zero", "D", "--nonzero", "beta"]
    code, loaded = _loaded_by_run(argv)
    assert code == 0 and "cuspcheck.period" in loaded
    assert not loaded & {"cuspcheck.weyl", "cuspcheck.pipeline"}


def test_a_criterion_check_run_loads_weyl_and_the_pipeline(tmp_path):
    # the paper's S~ and period, written as the walk benchmark writes them
    y = _paper_y()
    comp = boundary_complement(y)
    beta = comp.sublattice.embed(canonical_root(comp.roots))
    phi = solve_period(comp.sublattice, [(y.boundary_sum(), "zero"), (beta, "nonzero")])
    surface, period = tmp_path / "tilde.json", tmp_path / "phi.json"
    surface.write_text(canonical_dumps(surface_to_dict(interior_blowup(y, 6))))
    period.write_text(canonical_dumps(period_to_dict(phi)))
    code, loaded = _loaded_by_run(
        ["criterion", "check", "--surface", str(surface), "--period", str(period)]
    )
    assert code == 0
    assert {"cuspcheck.weyl", "cuspcheck.pipeline"} <= loaded


def test_the_checker_runs_on_matrix_products(monkeypatch):
    # the paper's M, G, H and certificate, rebuilt so that no lattice or
    # isometry carries a value worked out before; the checker then needs no
    # Smith form, no Hermite kernel, no sublattice and no classification
    chain = _Chain(make_config(), SEED_SEQUENCE, BLOWUP_COMPONENTS)
    lat = lattice.gram_lattice(chain.m_sub.as_lattice().gram)
    g_family, h_family = (
        [isometry.Isometry(lat, g.matrix) for g in family]
        for family in (chain.g_family, chain.h_family)
    )
    cert = chain.cert

    def refuse(*args, **kwargs):
        raise AssertionError("the checker left matrix products")

    for module in (intlinalg, lattice, isometry):
        for name in ("snf_transform", "left_kernel", "right_kernel"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, refuse)
    monkeypatch.setattr(isometry, "classify_isometry", refuse)
    monkeypatch.setattr(lattice.Sublattice, "__post_init__", refuse)
    _assert_golden_witnesses(totaro_check(lat, g_family, h_family, cert))


def _assert_golden_witnesses(report):
    """The verdict and every witness of the golden report's criterion."""
    golden = json.loads(GOLDEN.read_text())["criterion"]["witnesses"]
    assert report.verdict
    assert report.witnesses["fixed_line"] == golden["fixed_line"] == [1, 2, 1, -1]
    assert report.witnesses["h_fixed_lines"] == golden["h_fixed_lines"]
    assert json.loads(canonical_dumps(report.witnesses)) == golden


def _paper_namespaces():
    """The paper's M, G and H families and certificate as plain namespaces: a
    lattice with nothing but its Gram matrix, members with nothing but a
    matrix and the Gram matrix they act on."""
    chain = _Chain(make_config(), SEED_SEQUENCE, BLOWUP_COMPONENTS)
    gram = chain.m_sub.as_lattice().gram
    g_family, h_family = (
        [SimpleNamespace(matrix=g.matrix, ambient=SimpleNamespace(gram=gram)) for g in family]
        for family in (chain.g_family, chain.h_family)
    )
    return SimpleNamespace(gram=gram), g_family, h_family, chain.cert


def test_the_checker_reads_only_gram_and_matrix():
    _assert_golden_witnesses(totaro_check(*_paper_namespaces()))


@pytest.mark.parametrize("shape", ["missing row", "extra row", "ragged"])
@pytest.mark.parametrize("family", [1, 2], ids=["G", "H"])
def test_the_checker_refuses_a_family_matrix_of_the_wrong_shape(family, shape):
    # M has rank 4; without a shape check a missing row reads as a false
    # verdict and the other shapes raise IndexError
    args = list(_paper_namespaces())
    member = args[family][0]
    rows = [list(row) for row in member.matrix]
    matrix = {
        "missing row": rows[:-1],
        "extra row": rows + [rows[0]],
        "ragged": rows[:-1] + [rows[-1][:-1]],
    }[shape]
    args[family] = [SimpleNamespace(matrix=matrix, ambient=member.ambient), *args[family][1:]]
    with pytest.raises(InputError, match="^isometry matrix shape does not match lattice rank$"):
        totaro_check(*args)
