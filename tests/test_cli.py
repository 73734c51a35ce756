import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from toricsing import cli as cli_mod, newton, parser
from toricsing.cli import main
from toricsing.errors import (
    ConstantTermForbidden,
    ParseError,
    UnknownVariable,
)
from toricsing.parser import parse_family, parse_polynomial, parse_problem
from toricsing.rationals import GaussianRational
from toricsing.report import replay_witnesses, witness_from_json
from toricsing.variety import build_variety

from conftest import gr


SURFACE = {"variety": {"sigma_rays": [[0, 1], [2, -1]]}}


def write_problem(tmp_path, payload, name="problem.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


def cli(args):
    return main(args)


# ---- polynomial string parsing ----------------------------------------------

def test_parse_quartic_mixed_string():
    v = build_variety(sigma_rays=[(0, 1), (2, -1)])
    g = parse_polynomial("z1^4+z1^2*z2+z1*z2^2-z1*z2*z3^2", v)
    assert g.terms == {
        (4, 0, 0): gr(1),
        (2, 1, 0): gr(1),
        (1, 2, 0): gr(1),
        (1, 1, 2): gr(-1),
    }


def test_parse_rational_and_gaussian_coefficients():
    v = build_variety(sigma_rays=[(0, 1), (2, -1)])
    g = parse_polynomial("1/2*z1 + (2+3*i)*z2 - i*z3", v)
    assert g.terms[(1, 0, 0)] == GaussianRational("1/2")
    assert g.terms[(0, 1, 0)] == GaussianRational(2, 3)
    assert g.terms[(0, 0, 1)] == GaussianRational(0, -1)


def test_parse_family_string():
    v = build_variety(generators=[(1, j) for j in range(6)])
    fam = parse_family("z1^2+t*z2^3+z4", v)
    assert set(fam.terms) == {
        (2, 0, 0, 0, 0, 0), (0, 3, 0, 0, 0, 0), (0, 0, 0, 1, 0, 0)
    }
    t_coeff = fam.terms[(0, 3, 0, 0, 0, 0)]
    assert t_coeff.coeffs == (gr(0), gr(1))


def test_parse_constant_term_forbidden():
    v = build_variety(sigma_rays=[(0, 1), (2, -1)])
    with pytest.raises(ConstantTermForbidden):
        parse_polynomial("1+z1", v)
    with pytest.raises(ConstantTermForbidden):
        parse_family("t+z1", v)


def test_parse_power_is_repeated_multiplication(monkeypatch):
    base = parser._TermValue(3, {
        ((1, 0, 0), 0): GaussianRational(1),
        ((0, 1, 0), 1): GaussianRational(2, -1),
        ((0, 0, 1), 0): GaussianRational("1/3"),
    })
    product = parser._TermValue.constant(3, GaussianRational(1))
    for e in range(21):
        assert (base ** e).terms == product.terms
        product = product * base
    calls = []
    mul = parser._TermValue.__mul__

    def counted(self, other):
        calls.append(1)
        return mul(self, other)
    monkeypatch.setattr(parser._TermValue, "__mul__", counted)
    base ** 7
    # square-and-multiply: three multiplies by the base, no square after
    # the top bit
    assert len(calls) == 4


def test_parse_unknown_variable():
    v = build_variety(sigma_rays=[(0, 1), (2, -1)])
    with pytest.raises(UnknownVariable):
        parse_polynomial("z1+z9", v)
    with pytest.raises(UnknownVariable):
        parse_polynomial("z1+t*z2", v)


def test_parse_syntax_error_position():
    v = build_variety(sigma_rays=[(0, 1), (2, -1)])
    with pytest.raises(ParseError) as err:
        parse_polynomial("z1 + + * z2", v)
    assert err.value.column is not None


def test_parse_rejects_cancelling_polynomial():
    v = build_variety(sigma_rays=[(0, 1), (2, -1)])
    from toricsing.errors import EmptyInput

    with pytest.raises(EmptyInput):
        parse_polynomial("z1 - z1", v)


# ---- problem files -----------------------------------------------------------

def test_parse_problem_full(tmp_path):
    payload = dict(SURFACE)
    payload["polynomial"] = "z1^4+z1^2*z2+z1*z2^2-z1*z2*z3^2"
    payload["options"] = {"seed": 7}
    problem = parse_problem(write_problem(tmp_path, payload))
    assert problem.variety.r == 3
    assert problem.polynomial is not None
    assert problem.options == {"seed": 7}


def test_parse_problem_rejects_both_kinds(tmp_path):
    payload = dict(SURFACE)
    payload["polynomial"] = "z1"
    payload["family"] = "z1+t*z2"
    with pytest.raises(ParseError):
        parse_problem(write_problem(tmp_path, payload))


def test_parse_problem_rejects_bad_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{variety: nope", encoding="utf-8")
    with pytest.raises(ParseError):
        parse_problem(str(path))


# ---- commands and exit codes --------------------------------------------------

def test_dual_command(tmp_path, capsys):
    path = write_problem(tmp_path, SURFACE)
    assert cli(["dual", "--input", path]) == 0
    text = capsys.readouterr().out
    assert "[1, 0]" in text and "[1, 2]" in text


def test_hilbert_command_structured(tmp_path, capsys):
    path = write_problem(tmp_path, SURFACE)
    assert cli(["hilbert", "--input", path, "--format", "structured"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["hilbert_basis"] == [[1, 0], [1, 1], [1, 2]]


def test_faces_command_without_polynomial(tmp_path, capsys):
    path = write_problem(tmp_path, SURFACE)
    assert cli(["faces", "--input", path, "--format", "structured"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert len(data["cone_faces"]) == 4
    assert [1, 2, 3] in data["valid_index_sets"]


def test_faces_command_builds_the_dual_face_lattice_once(tmp_path, capsys,
                                                         monkeypatch):
    from toricsing import lattice, variety
    calls = []
    original = lattice.face_lattice

    def counted(cone):
        calls.append(cone)
        return original(cone)

    for module in (lattice, variety, cli_mod):
        monkeypatch.setattr(module, "face_lattice", counted, raising=False)
    path = write_problem(tmp_path, {"variety": {
        "sigma_rays": [[1, 0, 0], [0, 1, 0], [7, 9, 40]]}})
    assert cli(["faces", "--input", path, "--format", "structured"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert len(calls) == 1
    assert len(data["cone_faces"]) == len(data["valid_index_sets"]) == 8


def test_analyze_vertical_quartic(tmp_path, capsys):
    payload = dict(SURFACE)
    payload["polynomial"] = "z1^4+z2^4*z3-z2^2*z3^2"
    path = write_problem(tmp_path, payload)
    assert cli(["analyze", "--input", path, "--format", "structured"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["newton"]["compact_face_count"] == 3
    assert data["overall"]["status"] == "holds"


def test_nondeg_failing_exit_code(tmp_path, capsys):
    payload = dict(SURFACE)
    payload["polynomial"] = "z1^2-2*z1*z2+z1*z3"
    path = write_problem(tmp_path, payload)
    code = cli(["nondeg", "--input", path, "--format", "structured",
                "--verify-witness"])
    assert code == 2
    data = json.loads(capsys.readouterr().out)
    assert data["nondegeneracy"]["overall"]["status"] == "fails"
    assert data["witness_replay"]
    assert all(entry["ok"] for entry in data["witness_replay"])


def test_tame_command_fails_on_untame_c3(tmp_path, capsys):
    payload = {
        "variety": {"generators": [[1, 0, 0], [0, 1, 0], [0, 0, 1]]},
        "polynomial": "z1^2*z3^2-z2^3*z3^2+z3^3",
    }
    path = write_problem(tmp_path, payload)
    code = cli(["tame", "--input", path, "--format", "structured"])
    assert code == 2
    data = json.loads(capsys.readouterr().out)
    assert data["tameness"]["status"] == "fails"
    w = data["tameness"]["witness"]
    assert w["kind"] == "point"
    rebuilt = witness_from_json(w)
    assert rebuilt.replay()


def test_tame_command_decides_inconsistent_binomial_face(tmp_path, capsys):
    # the face {(1,3,0), (3,1,0)} along direction {3} gives z1^2 = 2 z2^2
    # and z1^2 = 18 z2^2: irrational roots, but no torus point at all
    payload = {
        "variety": {"generators": [[1, 0, 0], [0, 1, 0], [0, 0, 1]]},
        "polynomial": "z1^3*z2-6*z1*z2^3",
    }
    path = write_problem(tmp_path, payload)
    code = cli(["tame", "--input", path])
    assert code == 0
    text = capsys.readouterr().out
    assert ("tameness: HOLDS [SymbolicCriterion] character relation fails "
            "on the torus") in text
    assert "local tameness: HOLDS" in text


def test_family_command_staircase(tmp_path, capsys):
    payload = {
        "variety": {"generators": [[1, 0], [1, 1], [1, 2], [1, 3], [1, 4],
                                   [1, 5]]},
        "family": "z1^2+t*z2^3+z4",
    }
    path = write_problem(tmp_path, payload)
    code = cli(["family", "--input", path])
    assert code == 0
    text = capsys.readouterr().out
    assert "Whitney equisingular" in text
    assert "admissible: HOLDS" in text


def test_family_command_sample_losing_support(tmp_path, capsys):
    payload = {
        "variety": {"generators": [[1, 0], [1, 1], [1, 2], [1, 3]]},
        "family": "2*t*z2*z3-2*z1*z4+3*t*z1*z2*z3-3*z1^2*z4",
    }
    path = write_problem(tmp_path, payload)
    report = str(tmp_path / "report.json")
    code = cli(["family", "--input", path, "--format", "structured",
                "--report", report, "--verify-witness"])
    assert code == 2
    assert "error" not in capsys.readouterr().err
    data = json.loads(Path(report).read_text(encoding="utf-8"))
    assert data["family"]["anomalies"] == [
        "sample t = 1 lost support although not exceptional"
    ]
    results = replay_witnesses(data)
    assert results and all(ok for _, ok in results)


def test_stratify_constant_polynomial(tmp_path, capsys):
    payload = {
        "variety": {"generators": [[0, 1, 2], [2, 1, 0], [1, 0, 3],
                                   [1, 1, 1]]},
        "polynomial": "z1^2*z3^3+z2^2*z3^3+z3^4-5*z3^3*z4^3",
    }
    path = write_problem(tmp_path, payload)
    assert cli(["stratify", "--input", path, "--format", "structured"]) == 0
    data = json.loads(capsys.readouterr().out)
    labels = {s["label"] for s in data["stratification"]}
    assert "C_{1,2,4}" in labels


def test_unparseable_file_is_usage_error(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("not json at all", encoding="utf-8")
    assert cli(["faces", "--input", str(path)]) == 1
    assert "error:" in capsys.readouterr().err


def test_missing_polynomial_is_usage_error(tmp_path, capsys):
    path = write_problem(tmp_path, SURFACE)
    assert cli(["nondeg", "--input", str(path)]) == 1


@pytest.mark.parametrize("payload", [
    {"variety": {"sigma_rays": [[0, True], [2, -1]]}},
    {"variety": {"generators": [[1, 0], [1, 1], [False, 2]]}},
    dict(SURFACE, options={"seed": True}),
    dict(SURFACE, options={"budget": False}),
], ids=["sigma_rays", "generators", "seed", "budget"])
def test_json_booleans_are_not_integers(tmp_path, capsys, payload):
    path = write_problem(tmp_path, payload)
    with pytest.raises(ParseError):
        parse_problem(path)
    assert cli(["dual", "--input", path]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1


@pytest.mark.parametrize("options, flags", [
    ({"budget": -5}, []),
    ({}, ["--budget", "-5"]),
], ids=["options", "flag"])
def test_negative_budget_is_usage_error(tmp_path, capsys, options, flags):
    payload = dict(SURFACE, polynomial="z1^4+z1^2*z2+z1*z2^2-z1*z2*z3^2",
                   options=options)
    path = write_problem(tmp_path, payload)
    assert cli(["analyze", "--input", path] + flags) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "budget" in captured.err and captured.err.count("\n") == 1


def test_internal_error_is_exit_code_4(tmp_path, capsys, monkeypatch):
    def broken(command, args):
        raise RuntimeError("boom")
    monkeypatch.setattr(cli_mod, "run", broken)
    path = write_problem(tmp_path, SURFACE)
    assert cli(["dual", "--input", path]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: internal: RuntimeError: boom\n"


def test_bad_arguments_exit_2_on_every_call(tmp_path, capsys):
    # main builds its parser once; a rejected call leaves it as it was
    path = write_problem(tmp_path, SURFACE)
    for argv in (["bogus", "--input", path], ["dual"],
                 ["dual", "--input", path, "--format", "html"]):
        with pytest.raises(SystemExit) as exc:
            cli(argv)
        assert exc.value.code == 2
    capsys.readouterr()
    assert cli(["dual", "--input", path, "--format", "structured"]) == 0
    assert json.loads(capsys.readouterr().out)
    assert cli_mod._PARSER is not None


def test_flat_4d_generators_are_a_usage_error(tmp_path, capsys):
    # the dualizations of these three rays once made the Smith form run
    # for minutes
    payload = {"variety": {"generators": [[4, -3, -3, 3], [-4, -3, -3, 2],
                                          [1, -3, 2, 4]]}}
    assert cli(["dual", "--input", write_problem(tmp_path, payload)]) == 1
    err = capsys.readouterr().err
    assert "generators span a lower-dimensional cone" in err
    assert err.count("\n") == 1


@pytest.mark.parametrize("raw", [
    json.dumps(dict(SURFACE, polynomial="(" * 3000 + "z1" + ")" * 3000)),
    "[" * 100000 + "]" * 100000,
], ids=["parentheses", "json"])
def test_deep_nesting_is_a_usage_error(tmp_path, capsys, raw):
    path = tmp_path / "deep.json"
    path.write_text(raw, encoding="utf-8")
    assert cli(["analyze", "--input", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:")
    assert captured.err.count("\n") == 1


def test_parenthesis_depth_limit(surface_variety):
    from toricsing.parser import MAX_NESTING

    ok = "(" * MAX_NESTING + "z1" + ")" * MAX_NESTING
    assert parse_polynomial(ok, surface_variety).terms == {
        (1, 0, 0): GaussianRational(1)}
    with pytest.raises(ParseError) as exc:
        parse_polynomial("z2+" + "(" * (MAX_NESTING + 1) + "z1"
                         + ")" * (MAX_NESTING + 1), surface_variety)
    assert (exc.value.line, exc.value.column) == (1, MAX_NESTING + 4)


def test_reports_are_deterministic(tmp_path):
    payload = dict(SURFACE)
    payload["polynomial"] = "z1^4+z1^2*z2+z1*z2^2-z1*z2*z3^2"
    path = write_problem(tmp_path, payload)
    out1 = tmp_path / "r1.json"
    out2 = tmp_path / "r2.json"
    assert cli(["analyze", "--input", path, "--format", "structured",
                "--seed", "11", "--report", str(out1)]) == 0
    assert cli(["analyze", "--input", path, "--format", "structured",
                "--seed", "11", "--report", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_report_roundtrip_preserves_verdicts(tmp_path, capsys):
    payload = {
        "variety": {"generators": [[1, 0, 0], [0, 1, 0], [0, 0, 1]]},
        "polynomial": "z1^2*z3^2-z2^3*z3^2+z3^3",
    }
    path = write_problem(tmp_path, payload)
    out = tmp_path / "report.json"
    cli(["analyze", "--input", path, "--format", "structured",
         "--report", str(out)])
    data = json.loads(out.read_text())
    reparsed = json.loads(out.read_text())
    assert reparsed == data
    results = replay_witnesses(data)
    assert results
    assert all(ok for _, ok in results)


def test_oracle_flag_adds_restriction_checks(tmp_path, capsys):
    payload = dict(SURFACE)
    payload["polynomial"] = "z1^4+z2^4*z3-z2^2*z3^2"
    path = write_problem(tmp_path, payload)
    assert cli(["analyze", "--input", path, "--format", "structured",
                "--oracle"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert "restriction_consistency" in data
    for verdict in data["restriction_consistency"].values():
        assert verdict["status"] != "fails"


@pytest.mark.parametrize("command", ["analyze", "family"])
def test_each_term_is_mapped_to_the_lattice_once(monkeypatch, tmp_path,
                                                 command):
    # every analysed polynomial's lattice data comes from one torus form;
    # face functions and the vanishing split restrict it
    mapped = []
    lambda_of = newton.ToricPolynomial.lambda_of

    def counted(self, exponent):
        mapped.append((self, exponent))
        return lambda_of(self, exponent)

    monkeypatch.setattr(newton.ToricPolynomial, "lambda_of", counted)
    problems = Path(__file__).parent.parent / "problems"
    runs = 0
    for path in sorted(problems.glob("*.json")):
        if ("family" in json.loads(path.read_text())) != (command == "family"):
            continue
        mapped.clear()
        cli([command, "--input", str(path), "--report", str(tmp_path / "out")])
        analysed = {id(g): g for g, _ in mapped}
        assert analysed
        assert sorted((id(g), e) for g, e in mapped) == sorted(
            (key, e) for key, g in analysed.items() for e in g.terms)
        runs += 1
    assert runs == (1 if command == "family" else 4)


FAILING_REPLAY = (
    "import sys; from toricsing import checks, cli; "
    "checks.CertifiedWitness.replay = lambda self: False; "
    "sys.exit(cli.main(sys.argv[1:]))"
)


@pytest.mark.parametrize("program, exit_code", [
    (["-m", "toricsing.cli"], 2),
    # a witness that fails its replay is refused even with asserts off
    (["-c", FAILING_REPLAY], 1),
])
def test_witness_replay_runs_under_optimize(program, exit_code):
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    proc = subprocess.run(
        [sys.executable, "-O", *program, "analyze", "--input",
         str(root / "problems" / "affine_untame.json"), "--verify-witness"],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == exit_code, proc.stderr
    if exit_code == 1:
        assert "failed replay" in proc.stderr


def _limit_memory():
    import resource
    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


def test_hilbert_basis_over_the_bound_exits_1(tmp_path):
    # the dual of this 4-fold's sigma is a simplex whose parallelepiped
    # group has order 211^3; listing it once exhausted memory (exit 4)
    rays = [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [1, 2, 3, 211]]
    path = write_problem(tmp_path, {"variety": {"sigma_rays": rays}})
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "toricsing.cli", "hilbert", "--input", path],
        env=env, capture_output=True, text=True, timeout=10,
        preexec_fn=_limit_memory)
    assert proc.returncode == 1, proc.stderr
    assert proc.stderr == ("error: a simplex of multiplicity 9393931 exceeds "
                           "the Hilbert-basis bound 1000000\n")
    assert not proc.stdout
