"""Command-line surface: every subcommand, both output modes, exit codes."""

import itertools
import json
import subprocess
import sys

import pytest

SEQ = "-1,-2,-1,-1,-1,-1,-2"


def run_cli(*args, expect=0):
    proc = subprocess.run(
        [sys.executable, "-m", "cuspcheck", *args],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == expect, (args, proc.returncode, proc.stderr)
    return proc


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """Surface and period files shared by the round-trip tests."""
    d = tmp_path_factory.mktemp("cli")
    surface = d / "surface.json"
    out = run_cli("toric", f"--sequence={SEQ}").stdout
    for comp in (1, 3, 4, 5, 6):
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
    return d


def test_toric_json_shape():
    data = json.loads(run_cli("toric", f"--sequence={SEQ}").stdout)
    assert data["picard"]["rank"] == 5
    assert len(data["boundary"]) == 7


def test_toric_text_output():
    out = run_cli("toric", f"--sequence={SEQ}", "--output", "text").stdout
    assert "picard" in out


def test_invariants(workdir):
    data = json.loads(
        run_cli("invariants", "--surface", str(workdir / "surface.json")).stdout
    )
    assert data["picard_rank"] == 10
    assert data["boundary_square"] == 0
    assert data["self_intersections"] == [-2] * 7


def test_complement(workdir):
    data = json.loads(
        run_cli("complement", "--surface", str(workdir / "surface.json")).stdout
    )
    assert len(data["sublattice"]["basis"]) == 3
    assert data["kernel_rank"] == 0


def test_roots(workdir):
    data = json.loads(
        run_cli("roots", "--surface", str(workdir / "surface.json")).stdout
    )
    assert len(data["representatives"]) == 2
    assert len(data["radical"]) == 1


def test_period_solve_and_check(workdir):
    phi = json.loads((workdir / "phi.json").read_text())
    assert phi["modulus"] == 2
    surface = str(workdir / "surface.json")
    period = str(workdir / "phi.json")
    gen = json.loads(
        run_cli("period", "check", "--surface", surface, "--period", period,
                "--generic").stdout
    )
    assert gen["generic"] is True
    val = json.loads(
        run_cli("period", "check", "--surface", surface, "--period", period,
                "--cls", "D").stdout
    )
    assert val["value"] == 0


@pytest.mark.parametrize("modulus", ["0", "-3"])
def test_period_solve_rejects_modulus_below_one(workdir, modulus):
    proc = run_cli(
        "period", "solve", "--surface", str(workdir / "surface.json"),
        "--zero", "D", "--nonzero", "beta", f"--modulus={modulus}",
        expect=3,
    )
    assert "modulus must be >= 1" in proc.stderr


def test_fibration(workdir):
    data = json.loads(
        run_cli(
            "fibration",
            "--surface", str(workdir / "surface.json"),
            "--period", str(workdir / "phi.json"),
        ).stdout
    )
    assert data["multiple"] == 1
    assert data["mw_rank"] == 2
    assert [f["kodaira_type"] for f in data["reducible_fibers"]] == ["I7"]


def test_blowdown_roundtrip(workdir):
    small = json.loads(
        run_cli(
            "blowdown",
            "--surface", str(workdir / "tilde.json"),
            "--cls", "E",
        ).stdout
    )
    original = json.loads((workdir / "surface.json").read_text())
    assert small["picard"]["gram"] == original["picard"]["gram"]
    assert small["boundary"] == original["boundary"]


def test_isometry_classify(workdir, tmp_path):
    # build a transvection through the library, classify through the CLI
    from cuspcheck.fibration import eichler_transvection
    from cuspcheck.jsonio import canonical_dumps, isometry_to_dict
    from cuspcheck.lattice import diagonal_lattice, direct_sum, hyperbolic_plane

    lat = direct_sum(hyperbolic_plane(), diagonal_lattice([-2]))
    g = eichler_transvection(lat, (1, 0, 0), (0, 0, 1))
    path = tmp_path / "iso.json"
    path.write_text(canonical_dumps(isometry_to_dict(g)))
    data = json.loads(run_cli("isometry", "classify", "--isometry", str(path)).stdout)
    assert data["tag"] == "parabolic"
    assert data["fixed_isotropic"] == [1, 0, 0]


def test_isometry_classify_finds_order_six(tmp_path):
    # the order-6 rotation of the A2(-1) block of <2> + A2(-1)
    path = tmp_path / "iso.json"
    path.write_text(json.dumps({
        "ambient": {"gram": [[2, 0, 0], [0, -2, 1], [0, 1, -2]], "rank": 3},
        "matrix": [[1, 0, 0], [0, 0, 1], [0, -1, 1]],
    }))
    data = json.loads(run_cli("isometry", "classify", "--isometry", str(path)).stdout)
    assert data == {"tag": "elliptic", "order": 6, "fixed_isotropic": None}


def test_isometry_classify_rejects_a_matrix_off_the_pairing(tmp_path):
    path = tmp_path / "iso.json"
    path.write_text(json.dumps({
        "ambient": {"gram": [[0, 1], [1, 0]], "rank": 2},
        "matrix": [[1, 1], [0, 1]],
    }))
    proc = run_cli("isometry", "classify", "--isometry", str(path), expect=3)
    assert "matrix does not preserve the pairing" in proc.stderr


def test_criterion_check(workdir):
    data = json.loads(
        run_cli(
            "criterion", "check",
            "--surface", str(workdir / "tilde.json"),
            "--period", str(workdir / "phi.json"),
        ).stdout
    )
    assert data["verdict"] is True
    # wrong surface (not blown up) is an input error: exit 3
    run_cli(
        "criterion", "check",
        "--surface", str(workdir / "surface.json"),
        "--period", str(workdir / "phi.json"),
        expect=3,
    )


def test_criterion_check_certifies_a_cycle_of_three(tmp_path):
    # the rank-8 E6 complement with its generic period of modulus 12
    from helpers import short_cycle_surface

    from cuspcheck.jsonio import canonical_dumps, period_to_dict, surface_to_dict
    from cuspcheck.period import PeriodPoint
    from cuspcheck.surface import boundary_complement, interior_blowup

    y = short_cycle_surface((1, 1, 1))
    phi = PeriodPoint(boundary_complement(y).sublattice, 12, (1, 3, 2, 2, 3, 2, 3))
    (tmp_path / "tilde.json").write_text(canonical_dumps(surface_to_dict(interior_blowup(y, 3))))
    (tmp_path / "phi.json").write_text(canonical_dumps(period_to_dict(phi)))
    data = json.loads(
        run_cli(
            "criterion", "check",
            "--surface", str(tmp_path / "tilde.json"),
            "--period", str(tmp_path / "phi.json"),
            "--witness-count", "30",
        ).stdout
    )
    assert data["verdict"] is True
    assert data["witnesses"]["m"] == 7


def test_period_basis_order_changes_no_output(workdir, tmp_path, capsys):
    # the same homomorphism, written on each reordering of its domain basis
    from cuspcheck.cli import main

    phi = json.loads((workdir / "phi.json").read_text())
    domain = phi["domain"]
    runs = set()
    for k, perm in enumerate(itertools.permutations(range(len(phi["values"])))):
        permuted = dict(phi, values=[phi["values"][i] for i in perm])
        permuted["domain"] = dict(
            domain,
            basis=[domain["basis"][i] for i in perm],
            induced_gram=[[domain["induced_gram"][i][j] for j in perm] for i in perm],
        )
        path = tmp_path / f"phi{k}.json"
        path.write_text(json.dumps(permuted))
        fib_code = main(["fibration", "--surface", str(workdir / "surface.json"), "--period", str(path)])
        fib_out = capsys.readouterr().out
        crit_code = main(
            ["criterion", "check", "--surface", str(workdir / "tilde.json"),
             "--period", str(path), "--witness-count", "10"]
        )
        runs.add((fib_code, fib_out, crit_code, capsys.readouterr().out))
    assert k == 5 and len(runs) == 1
    fib_code, _fib_out, crit_code, crit_out = runs.pop()
    assert (fib_code, crit_code) == (0, 0)
    assert json.loads(crit_out)["verdict"] is True


def test_period_solve_works_out_one_complement(workdir, monkeypatch, capsys):
    # the solver's domain and the 'beta' token read the surface's one complement
    import cuspcheck
    from cuspcheck.cli import main

    calls = []
    real = cuspcheck.surface.orthogonal_complement
    monkeypatch.setattr(
        cuspcheck.surface, "orthogonal_complement", lambda lat, vs: calls.append(vs) or real(lat, vs)
    )
    surface = str(workdir / "surface.json")
    assert main(["period", "solve", "--surface", surface, "--zero", "D", "--nonzero", "beta"]) == 0
    assert capsys.readouterr().out == (workdir / "phi.json").read_text()
    assert len(calls) == 1


@pytest.mark.parametrize("count", ["0", "-5"])
def test_criterion_check_rejects_witness_count_below_one(workdir, count):
    proc = run_cli(
        "criterion", "check",
        "--surface", str(workdir / "tilde.json"),
        "--period", str(workdir / "phi.json"),
        "--witness-count", count,
        expect=3,
    )
    assert "witness count" in proc.stderr


def test_verify_paper_exit_codes(tmp_path):
    proc = run_cli("verify-paper")
    report = json.loads(proc.stdout)
    assert report["all_pass"] is True
    # a run that cannot pass: stage failure is exit 2, named after its stage
    proc = run_cli("verify-paper", "--modulus-bound", "1", expect=2)
    assert "stage 'period-solve'" in proc.stderr
    # a run with honest stage mismatches but no hard failure: exit 2 as well
    proc = run_cli("verify-paper", "--force-trivial-beta", expect=2)
    report = json.loads(proc.stdout)
    assert report["all_pass"] is False
    names_failed = [s["name"] for s in report["stages"] if not s["pass"]]
    assert "genericity" in names_failed
    assert [(s["name"], s["pass"]) for s in report["stages"]] == [
        ("toric-seed", True),
        ("interior-blowups", True),
        ("boundary-complement", True),
        ("root-cosets", True),
        ("period-solve", False),
        ("genericity", False),
        ("first-fibration", False),
        ("translation-group", False),
        ("blowup-at-p", True),
        ("second-fibration", False),
        ("transvection-families", False),
        ("weyl-certificate", True),
        ("criterion", False),
    ]


def test_verify_paper_config_file(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"witness_count": 30}))
    report = json.loads(run_cli("verify-paper", "--config", str(cfg)).stdout)
    assert report["config"]["witness_count"] == 30
    assert report["all_pass"] is True


@pytest.mark.parametrize("key", ["modulus_bound", "witness_count", "seed"])
def test_verify_paper_config_rejects_booleans(tmp_path, key):
    # JSON true is not the integer 1; nothing reads a seed, so it must be null
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({key: [1, "x"] if key == "seed" else True}))
    proc = run_cli("verify-paper", "--config", str(cfg), expect=3)
    assert key in proc.stderr


def test_verify_paper_determinism():
    a = run_cli("verify-paper").stdout
    b = run_cli("verify-paper").stdout
    assert a == b


def test_input_errors_exit_three(tmp_path):
    run_cli("toric", "--sequence=0,0,0", expect=3)
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    proc = run_cli("invariants", "--surface", str(bad), expect=3)
    assert "error:" in proc.stderr
    missing = tmp_path / "missing.json"
    missing.write_text(json.dumps({"picard": {"rank": 2}}))
    run_cli("invariants", "--surface", str(missing), expect=3)
    surface = json.loads(run_cli("toric", f"--sequence={SEQ}").stdout)
    for history in (5, None):
        bad_history = tmp_path / "history.json"
        bad_history.write_text(json.dumps(dict(surface, history=history)))
        proc = run_cli("invariants", "--surface", str(bad_history), expect=3)
        assert f"{bad_history}.history" in proc.stderr


@pytest.mark.parametrize(
    "gram, command",
    [
        # D.D = 6 on rank 3: the complement rank formula fails
        ([[0, 1, 1], [1, 0, 1], [1, 1, 0]], "complement"),
        ([[0, 1, 1], [1, 0, 1], [1, 1, 0]], "roots"),
        # a (-2)-triangle, D.D = 0: more fiber components than the rank allows
        ([[-2, 1, 1], [1, -2, 1], [1, 1, -2]], "fibration"),
    ],
)
def test_surface_file_must_hold_a_rational_surface_lattice(tmp_path, gram, command):
    # a rational surface has rank + D.D = 10 (Noether's formula with K = -D)
    # and signature (1, rank - 1); a file breaking either is an input error
    surface = tmp_path / "surface.json"
    unit = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    surface.write_text(json.dumps({"picard": {"rank": 3, "gram": gram}, "boundary": unit}))
    args = [command, "--surface", str(surface)]
    if command == "fibration":
        period = tmp_path / "period.json"
        domain = {"ambient": {"rank": 3, "gram": gram}, "basis": [[1, 1, 1]]}
        period.write_text(json.dumps({"modulus": 2, "values": [1], "domain": domain}))
        args += ["--period", str(period)]
    proc = run_cli(*args, expect=3)
    assert f"{surface}.picard" in proc.stderr


@pytest.mark.parametrize(
    "token, message",
    [
        ("E", "surface has no recorded exceptional class"),
        ("zz", "cannot parse class token 'zz'"),
        ("beta", "no roots to choose from"),
        ("1,2", "vector has 2 coordinates, lattice has rank 1"),
    ],
)
def test_class_token_errors_exit_three(tmp_path, capsys, token, message):
    from cuspcheck.cli import main

    assert main(["toric", "--sequence=1,1,1"]) == 0
    plane = tmp_path / "plane.json"
    plane.write_text(capsys.readouterr().out)
    assert main(["blowdown", "--surface", str(plane), "--cls", token]) == 3
    assert capsys.readouterr().err == f"error: {message}\n"


def test_class_tokens_ignore_surrounding_spaces(workdir, capsys):
    from cuspcheck.cli import main

    surface = str(workdir / "surface.json")
    args = ["period", "solve", "--surface", surface, "--zero", " D", "--nonzero", " beta "]
    assert main(args) == 0
    assert capsys.readouterr().out == (workdir / "phi.json").read_text()
