"""Command-line surface: every subcommand, both output modes, exit codes."""

import itertools
import json
import time
from pathlib import Path

import pytest

from helpers import run_cli

from cuspcheck import cli, jsonio
from cuspcheck.enumeration import NODE_BUDGET
from cuspcheck.surface import interior_blowup, toric_from_sequence

SEQ = "-1,-2,-1,-1,-1,-1,-2"
CRITERION_GOLDEN = Path(__file__).parent / "golden" / "criterion_check_paper.json"
TORIC_GOLDEN = Path(__file__).parent / "golden" / "toric_paper_seed.json"
BLOWDOWN_GOLDEN = Path(__file__).parent / "golden" / "blowdown_moved_section.json"
ROOTS_GOLDEN = Path(__file__).parent / "golden" / "roots_paper_y.json"
FIBRATION_GOLDEN = Path(__file__).parent / "golden" / "fibration_paper_y.json"
COMPLEMENT_GOLDENS = {
    "surface.json": Path(__file__).parent / "golden" / "complement_paper_y.json",
    "tilde.json": Path(__file__).parent / "golden" / "complement_paper_s_tilde.json",
}
# the paper's moved section c_q on S~
MOVED_SECTION = "0,1,1,0,0,0,-1,0,0,0,0"


def test_toric_json_shape():
    data = json.loads(run_cli("toric", f"--sequence={SEQ}").stdout)
    assert data["picard"]["rank"] == 5
    assert len(data["boundary"]) == 7


def test_toric_matches_golden():
    # the paper's toric seed, byte for byte: its Picard lattice is read off
    # the fan, and the golden was made by the Smith-form presentation
    proc = run_cli("toric", f"--sequence={SEQ}")
    assert proc.stdout.encode("utf-8") == TORIC_GOLDEN.read_bytes()


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


def test_period_check_ties_the_period_to_the_surface(workdir, tmp_path):
    # W blows up component 5 twice where the workdir surface Y blows up 5 and
    # 6: the same Picard Gram, another boundary, so another complement
    out = run_cli("toric", f"--sequence={SEQ}").stdout
    other = tmp_path / "other.json"
    for comp in (1, 3, 4, 5, 5):
        other.write_text(out)
        out = run_cli("blowup", "--surface", str(other), "--component", str(comp)).stdout
    other.write_text(out)
    period = str(workdir / "phi.json")
    proc = run_cli("period", "check", "--surface", str(other), "--period", period,
                   "--generic", expect=3)
    assert "period domain is not the boundary complement" in proc.stderr
    # any basis of Y's complement still passes: shear b0 -> b0 + b1
    phi = json.loads((workdir / "phi.json").read_text())
    basis, values = phi["domain"]["basis"], phi["values"]
    basis[0] = [x + y for x, y in zip(basis[0], basis[1])]
    values[0] = (values[0] + values[1]) % phi["modulus"]
    del phi["domain"]["induced_gram"]
    sheared = tmp_path / "sheared.json"
    sheared.write_text(json.dumps(phi))
    surface = str(workdir / "surface.json")
    for flags in (["--generic"], ["--cls", "beta"]):
        outs = {
            run_cli("period", "check", "--surface", surface, "--period", p, *flags).stdout
            for p in (period, str(sheared))
        }
        assert len(outs) == 1


def test_fibration_ties_the_period_to_the_surface(workdir, tmp_path):
    # W blows up components 3 and 1 in the other order: every component is
    # still a (-2)-class and the Picard Gram is Y's, but the complement is not
    out = run_cli("toric", f"--sequence={SEQ}").stdout
    other = tmp_path / "other.json"
    for comp in (3, 1, 4, 5, 6):
        other.write_text(out)
        out = run_cli("blowup", "--surface", str(other), "--component", str(comp)).stdout
    other.write_text(out)
    period = str(workdir / "phi.json")
    for command in (["period", "check", "--generic"], ["fibration"]):
        proc = run_cli(*command, "--surface", str(other), "--period", period, expect=3)
        assert proc.stderr == (
            f"error: {period}: period domain is not the boundary complement of {other}\n"
        )


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
    from cuspcheck.lattice import diagonal_lattice, direct_sum, hyperbolic_plane

    lat = direct_sum(hyperbolic_plane(), diagonal_lattice([-2]))
    g = eichler_transvection(lat, (1, 0, 0), (0, 0, 1))
    path = tmp_path / "iso.json"
    path.write_text(json.dumps({
        "ambient": {"gram": [list(r) for r in lat.gram], "rank": lat.rank},
        "matrix": [list(r) for r in g.matrix],
    }))
    data = json.loads(run_cli("isometry", "classify", "--isometry", str(path)).stdout)
    assert data["tag"] == "parabolic"
    assert data["fixed_isotropic"] == [1, 0, 0]


def test_isometry_classify_finds_order_six(workdir):
    # the order-6 rotation of the A2(-1) block of <2> + A2(-1)
    path = workdir / "isometry.json"
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


def test_criterion_check_matches_golden(workdir):
    # the paper's S~ and period at the default witness count, byte for byte
    proc = run_cli(
        "criterion", "check",
        "--surface", str(workdir / "tilde.json"),
        "--period", str(workdir / "phi.json"),
    )
    assert proc.stdout.encode("utf-8") == CRITERION_GOLDEN.read_bytes()


def test_blowdown_of_the_moved_section_matches_golden(workdir):
    # the paper's S~ blown down at c_q, byte for byte: c_q's Gram row ends in
    # a unit, so v^perp is read off in closed form, and the golden was made
    # by the kernel and a Smith-form sublattice
    proc = run_cli("blowdown", "--surface", str(workdir / "tilde.json"), "--cls", MOVED_SECTION)
    assert proc.stdout.encode("utf-8") == BLOWDOWN_GOLDEN.read_bytes()


def test_roots_and_fibration_of_the_paper_surface_match_golden(workdir):
    # the paper's Y and its period, byte for byte: the roots are enumerated
    # once and kept on the complement's lattice, its radical complemented
    # with no Hermite re-check, and the golden files predate both
    surface, phi = str(workdir / "surface.json"), str(workdir / "phi.json")
    proc = run_cli("roots", "--surface", surface)
    assert proc.stdout.encode("utf-8") == ROOTS_GOLDEN.read_bytes()
    proc = run_cli("fibration", "--surface", surface, "--period", phi)
    assert proc.stdout.encode("utf-8") == FIBRATION_GOLDEN.read_bytes()


def test_complements_of_the_paper_surfaces_match_golden(workdir):
    # the boundary complements of the paper's Y and S~, byte for byte: both
    # are read off the exceptional columns, and the golden files were made
    # by the kernel and the checked Sublattice
    for name, golden in COMPLEMENT_GOLDENS.items():
        proc = run_cli("complement", "--surface", str(workdir / name))
        assert proc.stdout.encode("utf-8") == golden.read_bytes(), name


@pytest.mark.parametrize("component", range(1, 8))
def test_criterion_check_blows_up_the_zero_section_s_point(workdir, tmp_path, capsys, component):
    # the paper's Y blown up at each boundary component, with its period: the
    # zero section meets component 6 alone, so elsewhere the strict
    # transforms of the two sections leave the boundary complement
    from cuspcheck.cli import main

    surface = str(workdir / "surface.json")
    assert main(["blowup", "--surface", surface, "--component", str(component)]) == 0
    (tmp_path / "tilde.json").write_text(capsys.readouterr().out)
    code = main(
        ["criterion", "check", "--surface", str(tmp_path / "tilde.json"),
         "--period", str(workdir / "phi.json")]
    )
    out, err = capsys.readouterr()
    if component == 6:
        assert (code, err, json.loads(out)["verdict"]) == (0, "", True)
    else:
        assert (code, out) == (3, "")
        assert err == "error: blown-up point does not lie on the zero section's boundary component\n"


def test_criterion_check_refuses_the_period_of_another_surface(workdir, tmp_path):
    # S~ blows up component 5 twice where the workdir surface Y blows up 5
    # and 6, then component 6; Y's period is not on the complement below S~
    from cuspcheck.jsonio import canonical_dumps, surface_to_dict
    from cuspcheck.pipeline import SEED_SEQUENCE
    from cuspcheck.surface import interior_blowup, toric_from_sequence

    w = toric_from_sequence(SEED_SEQUENCE)
    for comp in (1, 3, 4, 5, 5, 6):
        w = interior_blowup(w, comp)
    (tmp_path / "tilde.json").write_text(canonical_dumps(surface_to_dict(w)))
    proc = run_cli(
        "criterion", "check",
        "--surface", str(tmp_path / "tilde.json"),
        "--period", str(workdir / "phi.json"),
        expect=3,
    )
    assert "period domain is not the boundary complement" in proc.stderr


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
    import cuspcheck.surface
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
    # the rows that tag isometries by the checker's read-off, on the one
    # translation and the G family of the trivial period
    computed = {s["name"]: s["computed"] for s in report["stages"]}
    assert computed["translation-group"]["tags"] == ["parabolic"]
    assert computed["translation-group"]["generator_count"] == 1
    assert computed["transvection-families"] == {
        "g_count": 2,
        "g_tags": ["parabolic", "parabolic"],
        "g_common_line": True,
        "h_count": 0,
        "distinct_fixed_lines": False,
    }


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


def _assert_one_error_line(proc):
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1


def test_roots_past_the_enumeration_budget_exit_three(tmp_path):
    # P^2 with each line blown up three times has E6 roots; its square -100
    # classes (162,270 representatives) take the walk past NODE_BUDGET
    # nodes, and the refusal names the budget well inside 20 s
    y = toric_from_sequence((1, 1, 1))
    for comp in (1, 1, 1, 2, 2, 2, 3, 3, 3):
        y = interior_blowup(y, comp)
    surface = tmp_path / "e6.json"
    surface.write_text(json.dumps(jsonio.surface_to_dict(y)))
    start = time.perf_counter()
    proc = run_cli("roots", "--surface", str(surface), "--square=-100", expect=3)
    assert time.perf_counter() - start < 20
    _assert_one_error_line(proc)
    assert f"enumeration of square -100 stopped after {NODE_BUDGET} nodes" in proc.stderr


def test_surface_file_not_utf8_exits_three(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_bytes(b"\xff\xfe{")
    _assert_one_error_line(run_cli("invariants", "--surface", str(bad), expect=3))


def test_config_integer_past_the_digit_limit_exits_three(tmp_path):
    # CPython refuses to convert an integer string of more than 4,300 digits
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"witness_count": ' + "7" * 5000 + "}")
    _assert_one_error_line(run_cli("verify-paper", "--config", str(cfg), expect=3))


def test_surface_file_nested_too_deep_exits_three(tmp_path):
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100_000)
    _assert_one_error_line(run_cli("invariants", "--surface", str(deep), expect=3))


@pytest.mark.parametrize(
    "gram, command",
    [
        # D.D = 6 on rank 3: Noether's formula fails
        ([[0, 1, 1], [1, 0, 1], [1, 1, 0]], "complement"),
        ([[0, 1, 1], [1, 0, 1], [1, 1, 0]], "roots"),
        # a (-2)-triangle, D.D = 0 on rank 3: Noether's formula fails, and the
        # fibration would see more fiber components than the rank allows
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


def _swap_two_boundary_classes(d):
    d["boundary"][0], d["boundary"][1] = d["boundary"][1], d["boundary"][0]


def _move_the_first_exceptional(d):
    d["history"][0]["component"] += 1


def _double_the_first_exceptional(d):
    d["history"][0]["class"] = [2 * x for x in d["history"][0]["class"]]


def _break_the_gram_symmetry(d):
    d["picard"]["gram"][0][1] += 1


@pytest.mark.parametrize(
    "tamper, message",
    [
        (_swap_two_boundary_classes, "boundary classes do not form a cycle"),
        (_move_the_first_exceptional, "history class does not meet its recorded component once"),
        (_double_the_first_exceptional, "history class is not a (-1)-class"),
        (_break_the_gram_symmetry, "gram matrix must be symmetric"),
    ],
)
def test_blowup_of_a_tampered_surface_exits_three(workdir, tmp_path, capsys, tamper, message):
    # blow-ups derive their surface unchecked, so the surface file they start
    # from is checked where it enters, by the decoder
    from cuspcheck.cli import main

    data = json.loads((workdir / "surface.json").read_text())
    tamper(data)
    surface = tmp_path / "tampered.json"
    surface.write_text(json.dumps(data))
    assert main(["blowup", "--surface", str(surface), "--component", "1"]) == 3
    assert capsys.readouterr() == ("", f"error: {message}\n")


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


# ------------------------------------------- the fast path against the full parser

# Argument vectors for the differential test and the reachability run;
# {surface}, {tilde}, {period} and {isometry} name files of the shared
# workdir, {missing} a file it does not hold.
DIFFERENTIAL_ARGV = [
    ["-h"],
    ["--help"],
    ["period", "-h"],
    *[[*path, "-h"] for path, *_ in cli.COMMANDS],
    ["toric"],
    ["criterion", "check", "--surface", "{tilde}"],
    ["toric", "--output", "xml", f"--sequence={SEQ}"],
    ["criterion", "check", "--surface", "{tilde}", "--period", "{period}", "--witness-count", "x"],
    ["toric", f"--sequence={SEQ}", "extra"],
    ["toric", "--sequence", "-1,-2"],
    ["bogus"],
    ["period"],
    ["period", "bogus"],
    [],
    ["toric", f"--sequence={SEQ}"],
    ["toric", f"--seq={SEQ}", "--output", "text"],
    ["criterion", "check", "--surface", "{tilde}", "--period", "{period}", "--w", "3"],
    ["criterion", "check", "--surface", "{surface}", "--period", "{period}"],
    ["period", "solve", "--surface", "{surface}", "--zero", "D", "--nonzero", "beta"],
    ["period", "check", "--surface", "{surface}", "--period", "{period}", "--cls", "D"],
    ["roots", "--surface", "{surface}", "--o", "text"],
    ["blowup", "--surface", "{missing}", "--component", "1"],
    ["verify-paper", "--witness-count", "3"],
    ["invariants", "--surface", "{surface}"],
    ["complement", "--surface", "{surface}"],
    ["fibration", "--surface", "{surface}", "--period", "{period}"],
    ["blowdown", "--surface", "{tilde}", "--cls", "E"],
    ["isometry", "classify", "--isometry", "{isometry}"],
    ["verify-paper", "--modulus-bound", "1"],
]
# the destinations only the full tree fills: which subcommand was named
COMMAND_DESTS = {"command", *(f"{group}_command" for group in cli.GROUPS)}


def workdir_argv(argv, workdir):
    """``argv`` of ``DIFFERENTIAL_ARGV`` with its file names in ``workdir``."""
    files = {name: str(workdir / f"{name}.json") for name in ("surface", "tilde", "isometry")}
    files.update(period=str(workdir / "phi.json"), missing=str(workdir / "missing.json"))
    return [arg.format(**files) for arg in argv]


def _run_main(argv):
    """The exit code of ``cli.main(argv)``, help and usage errors included."""
    try:
        return cli.main(argv)
    except SystemExit as exc:
        return exc.code


@pytest.mark.parametrize("argv", DIFFERENTIAL_ARGV, ids=" ".join)
def test_the_subcommand_parser_matches_the_full_parser(argv, workdir, monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "80")
    argv = workdir_argv(argv, workdir)
    fast = (_run_main(argv), *capsys.readouterr())
    with monkeypatch.context() as m:
        m.setattr(cli, "parse_args", lambda args: cli.build_parser().parse_args(args))
        full = (_run_main(argv), *capsys.readouterr())
    assert fast == full
    try:
        ours = vars(cli.parse_args(argv))
    except SystemExit:  # help or a usage error: no handler ran
        return
    # the handler reads the same fields from both Namespaces
    oracle = vars(cli.build_parser().parse_args(argv))
    assert ours.items() <= oracle.items()
    assert set(oracle) - set(ours) <= COMMAND_DESTS


def test_main_runs_a_subcommand_without_the_full_parser(workdir, monkeypatch, capsys):
    def refuse():
        raise AssertionError("the full parser was built")

    monkeypatch.setattr(cli, "build_parser", refuse)
    assert cli.main(["toric", f"--sequence={SEQ}"]) == 0
    assert capsys.readouterr() == (TORIC_GOLDEN.read_text(), "")
    argv = ["criterion", "check", "--surface", str(workdir / "tilde.json"),
            "--period", str(workdir / "phi.json")]
    assert cli.main(argv) == 0
    assert capsys.readouterr() == (CRITERION_GOLDEN.read_text(), "")
    monkeypatch.undo()
    with pytest.raises(SystemExit) as exc:
        cli.main(["-h"])
    assert exc.value.code == 0
    names = dict.fromkeys(path[0] for path, *_ in cli.COMMANDS)
    assert "{" + ",".join(names) + "}" in capsys.readouterr().out
