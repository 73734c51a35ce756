"""Lattice dimension 4 end to end: the CLI on every command, families, and
Newton polyhedra and non-degeneracy verdicts against independent oracles."""
import json
import random

import pytest

from toricsing.checks import FAILS, HOLDS, check_nondegeneracy
from toricsing.cli import COMMANDS, main
from toricsing.newton import face_function
from toricsing.parser import parse_polynomial
from toricsing.report import replay_witnesses
from toricsing.variety import build_variety

from conftest import in_cone_oracle

C4 = {"generators": [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0],
                     [0, 0, 0, 1]]}
# a non-smooth 4-fold: its dual cone needs ten semigroup generators
SIGMA_R10 = {"sigma_rays": [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0],
                            [1, 1, 1, 2]]}
VARIETIES = {"C4": (C4, 4), "R10": (SIGMA_R10, 10)}


def write_problem(tmp_path, payload):
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


def run_verified(tmp_path, command, payload):
    """Exit code and structured report of one --verify-witness run."""
    report = tmp_path / "report.json"
    code = main([command, "--input", write_problem(tmp_path, payload),
                 "--format", "structured", "--report", str(report),
                 "--verify-witness"])
    data = json.loads(report.read_text(encoding="utf-8")) \
        if report.exists() else None
    return code, data


def assert_witnesses_replay(data):
    assert all(entry["ok"] for entry in data.get("witness_replay", []))
    assert all(ok for _, ok in replay_witnesses(data))


def sparse_terms(rng, r, family=False):
    """Two to four terms, each in one to three of the r variables with
    exponents 1..3, as a polynomial (or family) string."""
    def coefficient():
        re, im = rng.randint(-3, 3), rng.randint(-1, 1)
        if not re and not im:
            re = 1
        return f"({re}{im:+d}*i)" if im else f"({re})"

    terms = []
    for _ in range(rng.randint(2, 4)):
        exp = [0] * r
        for i in rng.sample(range(r), rng.randint(1, 3)):
            exp[i] = rng.randint(1, 3)
        c = coefficient()
        if family and rng.random() < 0.5:
            c = f"({c}+{coefficient()}*t)"
        terms.append(c + "*" + "*".join(
            f"z{i + 1}^{e}" for i, e in enumerate(exp) if e))
    return "+".join(terms)


@pytest.mark.parametrize("polynomial", [
    ("C4", "z1^2+z2^2+z3^2+z4^2"),
    ("C4", "z1^3*z2+(2-i)*z2^2*z3-z3*z4^2+z1*z4^3"),
    ("R10", "(2-i)*z4*z8-z1^3*z5^2*z6*z8+(2-i)*z2^2*z8"
            "+z4^3*z5*z7^3*z9^3"),
], ids=["C4-squares", "C4-mixed", "R10"])
def test_every_command_runs_at_dimension_four(tmp_path, polynomial):
    name, text = polynomial
    payload = {"variety": VARIETIES[name][0], "polynomial": text}
    for command in COMMANDS:
        code, data = run_verified(tmp_path, command, payload)
        assert code in (0, 2, 3), (command, code)
        assert_witnesses_replay(data)


def test_sum_of_squares_over_c4(tmp_path, capsys):
    # a three-dimensional compact face lies outside the exact subclass: an
    # honest unknown, while the stratification needs no face verdicts
    payload = {"variety": C4, "polynomial": "z1^2+z2^2+z3^2+z4^2"}
    path = write_problem(tmp_path, payload)
    for command, expected in (("analyze", 3), ("family", 3),
                              ("stratify", 0)):
        assert main([command, "--input", path]) == expected, command
    assert "support dimension 3 exceeds the subclass" in \
        capsys.readouterr().out


def test_five_dimensional_sigma_is_still_refused(tmp_path, capsys):
    sigma = [[int(i == j) for j in range(5)] for i in range(5)]
    path = write_problem(tmp_path, {"variety": {"sigma_rays": sigma},
                                    "polynomial": "z1+z2"})
    for command in ("dual", "hilbert", "analyze"):
        assert main([command, "--input", path]) == 1
        assert capsys.readouterr().err == \
            "error: ambient dimension 5 exceeds the supported cap 4\n"


def _shifted_gradient(terms, n):
    """The Euler derivatives theta_i L, all divided by one monomial so that
    every exponent is nonnegative. For a compact face (d > 0) the system
    theta L = 0 already implies L = 0, so the shift keeps its torus zeros."""
    low = [min(lam[i] for lam in terms) for i in range(n)]
    equations = []
    for i in range(n):
        eq = {tuple(a - b for a, b in zip(lam, low)): c * lam[i]
              for lam, c in terms.items() if lam[i]}
        if eq:
            equations.append(eq)
    return equations


def test_dimension_four_sweep_agrees_with_oracles():
    pytest.importorskip("sympy")
    from conftest import sympy_torus_solvable

    varieties = [build_variety(**spec) for spec, _ in VARIETIES.values()]
    rng = random.Random(431)
    decided = 0
    for k in range(200):
        v = varieties[k % 2]
        g = parse_polynomial(sparse_terms(rng, v.r), v)
        result = check_nondegeneracy(g)
        np_ = result.polyhedron
        rec = [tuple(r) + (0,) for r in np_.recession.rays]
        hull = [tuple(p) + (1,) for p in np_.vertices] + rec
        for s in np_.support:
            assert np_.contains_lattice_point(s)
            assert in_cone_oracle(tuple(s) + (1,), hull)
            # a vertex is exactly a support point outside the polyhedron
            # of the others
            others = [tuple(p) + (1,) for p in np_.support if p != s] + rec
            assert (s in np_.vertices) == \
                (not in_cone_oracle(tuple(s) + (1,), others))
        for face in np_.faces:
            assert np_.face_of_weight(face.weight) == face
        for face in np_.compact_faces():
            verdict = result.face_verdicts[face.key()]
            if verdict.status not in (HOLDS, FAILS):
                continue
            _, form = face_function(g, face, np=np_)
            solvable = sympy_torus_solvable(
                _shifted_gradient(form.terms, 4), 4)
            assert solvable == (verdict.status == FAILS), (g.terms, face)
            decided += 1
    assert decided >= 400


def test_dimension_four_families(tmp_path):
    rng = random.Random(433)
    names = sorted(VARIETIES)
    for k in range(40):
        spec, r = VARIETIES[names[k % 2]]
        payload = {"variety": spec, "family": sparse_terms(rng, r, True)}
        for command in ("family", "stratify"):
            code, data = run_verified(tmp_path, command, payload)
            assert code in (0, 2, 3), (command, payload)
            assert_witnesses_replay(data)
