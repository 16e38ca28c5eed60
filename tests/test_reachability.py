"""Every function in ``src/`` is run by a command, or it is allowlisted.

A fresh interpreter runs, under ``sys.setprofile``, every argument vector of
the CLI differential table, the default ``verify-paper``, and the census
chain with ``run_criterion`` at witness count 30 on every toric seed of
cycle length 3-8.  It records the code object of each Python call.  The
functions ``src/`` defines are read off its syntax trees: module functions
and methods, not nested functions or lambdas.  A function is reached when a
code object of its file starts on its first line (its first decorator's, if
it has one), which holds on every supported Python.
"""

import ast
import json
import subprocess
import sys
from pathlib import Path

from helpers import fan_seeds
from test_cli import DIFFERENTIAL_ARGV, workdir_argv

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "cuspcheck"

# functions no command runs, and why each stays
ALLOWLIST = {
    "intlinalg.charpoly": "bench/tracing.py traces it (HOT), as tests/test_bench_names.py requires",
    "weyl.chamber_sign": "bench/tracing.py traces it (HOT), as tests/test_bench_names.py requires",
    "fibration.mw_translation_group": "the survey benchmark runs it, and bench/tracing.py traces it (SPANS)",
    "lattice.diagonal_lattice": "the lattice toolkit that demos 02 and 05 print",
    "lattice.hyperbolic_plane": "the lattice toolkit that demos 02 and 05 print",
    "lattice.direct_sum": "the lattice toolkit that demos 02 and 05 print",
}

# run in a fresh interpreter: the job (argument vectors and seeds) on stdin,
# the package directory and the (file name, first line) of every code object
# of it that was called on stdout
_PROBE = """
import io, json, sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import cuspcheck
from cuspcheck import cli
from cuspcheck.pipeline import _Chain, make_config, run_criterion

job = json.load(sys.stdin)
codes = set()
sys.setprofile(lambda frame, event, arg: event == "call" and codes.add(frame.f_code))
for argv in job["argv"]:
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        try:
            cli.main(argv)
        except SystemExit:
            pass
for seq in job["seeds"]:
    order = [i + 1 for i, a in enumerate(seq) for _ in range(a + 2)]
    chain = _Chain(make_config(), seq, order)
    run_criterion(chain.s_tilde, chain.phi, 30)
sys.setprofile(None)
package = Path(cuspcheck.__file__).resolve().parent
reached = {(Path(c.co_filename).name, c.co_firstlineno) for c in codes
           if Path(c.co_filename).resolve().parent == package}
json.dump({"package": str(package), "reached": sorted(reached)}, sys.stdout)
"""


def _defined(node, prefix):
    """(qualified name, first line) of each function and method under
    ``node``, through class bodies and compound statements but not into
    function bodies."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            first = min([child.lineno, *(d.lineno for d in child.decorator_list)])
            yield prefix + child.name, first
        elif isinstance(child, ast.ClassDef):
            yield from _defined(child, f"{prefix}{child.name}.")
        elif isinstance(child, ast.stmt):
            yield from _defined(child, prefix)


def test_every_src_function_is_reached_or_allowlisted(workdir):
    job = {
        "argv": [workdir_argv(argv, workdir) for argv in DIFFERENTIAL_ARGV] + [["verify-paper"]],
        "seeds": [seq for n in range(3, 9) for seq in fan_seeds(n)],
    }
    proc = subprocess.run(
        [sys.executable, "-c", _PROBE], input=json.dumps(job), capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    assert Path(out["package"]) == PACKAGE
    hit = {tuple(entry) for entry in out["reached"]}
    defined = {}
    for path in sorted(PACKAGE.glob("*.py")):
        for name, line in _defined(ast.parse(path.read_text(encoding="utf-8")), f"{path.stem}."):
            defined[name] = (path.name, line) in hit
    assert not [name for name, reached in defined.items() if not reached and name not in ALLOWLIST]
    assert not [name for name in ALLOWLIST if name not in defined], "stale allowlist entries"
    assert not [name for name in ALLOWLIST if defined[name]], "reached allowlist entries"
