"""Tests of the benchmark itself.

    PYTHONPATH=src python3 -m pytest -q bench/tests

Run from the root of a checkout.
"""
import copy
import json
import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

import corpus  # noqa: E402
import gate  # noqa: E402
from tracer import Tracer, install  # noqa: E402


# -- generators ---------------------------------------------------------------

@pytest.mark.parametrize("workload", sorted(corpus.WORKLOADS))
def test_generators_are_deterministic_for_a_seed(workload):
    first = corpus.corpus(workload, corpus.DEFAULT_CORPUS_SEED)
    again = corpus.corpus(workload, corpus.DEFAULT_CORPUS_SEED)
    held_out = corpus.corpus(workload, corpus.HELD_OUT_CORPUS_SEED)
    assert first == again
    assert corpus.digest(first) == corpus.digest(again)
    assert corpus.digest(first) != corpus.digest(held_out)


@pytest.mark.parametrize("workload", sorted(corpus.WORKLOADS))
def test_warmup_is_seeded_and_outside_the_corpus(workload):
    rounds = corpus.corpus(workload, corpus.DEFAULT_CORPUS_SEED)
    first = corpus.warmup(workload, 3, rounds, 12)
    assert len(first) >= 12
    assert first == corpus.warmup(workload, 3, rounds, 12)
    assert first != corpus.warmup(workload, 4, rounds, 12)
    timed = {json.dumps(e, sort_keys=True) for rnd in rounds for e in rnd}
    assert not timed & {json.dumps(e, sort_keys=True) for e in first}


def test_every_seed_times_the_same_rounds_in_order():
    from run import plan
    rounds = corpus.corpus("witness_heavy", corpus.DEFAULT_CORPUS_SEED)
    a, b = plan(rounds, 1), plan(rounds, 2)
    assert a != b
    assert [r for r, _ in a] == [r for r, _ in b]
    assert sorted(a) == sorted(b) == [(r, k) for r, rnd in enumerate(rounds)
                                      for k in range(len(rnd))]


@pytest.mark.parametrize("workload", ["small_verdicts", "witness_heavy",
                                      "family_sweep"])
def test_generated_strings_parse(workload, tmp_path):
    from toricsing.parser import parse_problem
    for rnd in corpus.corpus(workload, corpus.DEFAULT_CORPUS_SEED)[:15]:
        for entry in rnd:
            text = entry["problem"].get("polynomial") \
                or entry["problem"]["family"]
            assert "+-" not in text and "--" not in text
            path = tmp_path / "p.json"
            path.write_text(json.dumps(entry["problem"]))
            parse_problem(str(path))


# -- tracer -------------------------------------------------------------------

class FakeClock:
    def __init__(self, times):
        self.times = iter(times)

    def __call__(self):
        return next(self.times)


def test_self_time_on_a_synthetic_span_tree():
    # A [0, 10] holds B [1, 5] and D [6, 9]; B holds an unrecorded span
    # U [2, 4], and U holds C [2.5, 3.5].
    tracer = Tracer(clock=FakeClock([0, 1, 2, 2.5, 3.5, 4, 5, 6, 9, 10]))
    a = tracer.enter("A")
    b = tracer.enter("B")
    u = tracer.enter("U", record=False)
    c = tracer.enter("C")
    tracer.exit(c)
    tracer.exit(u)
    tracer.exit(b)
    d = tracer.enter("D")
    tracer.exit(d)
    tracer.exit(a)
    assert tracer.self_s == {"A": 3, "B": 2, "U": 1, "C": 1, "D": 3}
    spans = {rec[2]: rec for rec in tracer.records}
    assert set(spans) == {"A", "B", "C", "D"}
    assert spans["A"][1] is None
    assert spans["B"][1] == spans["D"][1] == spans["A"][0]
    assert spans["C"][1] == spans["B"][0]  # parent skips the unrecorded span


# Public functions each workload must reach, from the layer table.
EXPECTED_CALLS = {
    "small_verdicts": [
        "lattice.polar_description", "linalg.rank", "linalg.solve_rational",
        "linalg.smith_normal_form", "variety.build_variety",
        "newton.newton_polyhedron", "newton.face_function",
        "solvers.decide_gradient_system", "report.render_json",
        "rationals.ops"],
    "witness_heavy": [
        "parser.parse_polynomial", "solvers.decide_gradient_system",
        "solvers.decide_equation_system", "solvers.random_search",
        "solvers.verify", "solvers.gaussian_roots",
        "report.replay_witnesses", "report.render_json", "rationals.ops"],
    "cone_ladder": [
        "lattice.hilbert_basis", "lattice.face_lattice",
        "linalg.solve_rational", "linalg.rank", "linalg.smith_normal_form",
        "variety.build_variety"],
    "family_sweep": [
        "lattice.polar_description", "linalg.nonneg_solve_exact",
        "newton.newton_polyhedron", "newton.face_function",
        "family.check_condition_I", "family.check_condition_II",
        "family.specialize", "parser.parse_family", "polynomials.ops"],
}


@pytest.mark.parametrize("workload", sorted(EXPECTED_CALLS))
def test_traced_layers_receive_calls(workload, tmp_path):
    import toricsing.cli
    original_main = toricsing.cli.main
    tracer = Tracer()
    uninstall = install(tracer)
    try:
        for entry in corpus.corpus(workload, corpus.DEFAULT_CORPUS_SEED)[0]:
            path = tmp_path / "p.json"
            path.write_text(json.dumps(entry["problem"]))
            toricsing.cli.main([entry["command"], "--input", str(path),
                                "--format", "structured",
                                "--report", str(tmp_path / "r.json")]
                               + entry["args"])
    finally:
        uninstall()
    assert toricsing.cli.main is original_main
    missing = [name for name in EXPECTED_CALLS[workload]
               if tracer.calls[name] < 1]
    assert not missing
    assert tracer.calls["cli.main"] == len(
        corpus.corpus(workload, corpus.DEFAULT_CORPUS_SEED)[0])


# -- gate ---------------------------------------------------------------------

def _point_report():
    witness = {
        "kind": "point", "context": "synthetic",
        "equations": [{"variables": ["xi1", "xi2"], "terms": [
            {"exponent": [2, 0], "coefficient": "1"},
            {"exponent": [0, -1], "coefficient": "4*i"}]}],
        "assignments": {"xi1": "1+i", "xi2": "-2"},
    }
    return {"command": "analyze",
            "nondegeneracy": {"overall": {"status": "fails", "method": "x",
                                          "evidence": "", "witness": witness}}}


def _algebraic_report():
    # xi1 = s, a root of s^2 - 2, solves xi1^2 - 2 = 0
    witness = {
        "kind": "algebraic", "context": "synthetic",
        "modulus": ["-2", "0", "1"],
        "equations": [{"variables": ["xi1"], "terms": [
            {"exponent": [2], "coefficient": "1"},
            {"exponent": [0], "coefficient": "-2"}]}],
        "assignments": {"xi1": ["0", "1"]},
    }
    return {"command": "analyze", "tameness": {"status": "fails",
                                               "method": "x", "evidence": "",
                                               "witness": witness}}


@pytest.mark.parametrize("make, path", [
    (_point_report, ("nondegeneracy", "overall", "witness")),
    (_algebraic_report, ("tameness", "witness")),
])
def test_gate_counts_a_tampered_witness_coordinate(make, path):
    report = make()
    assert gate.problem_errors(2, 2, report) == []
    tampered = copy.deepcopy(report)
    node = tampered
    for key in path:
        node = node[key]
    if node["kind"] == "point":
        node["assignments"]["xi1"] = "1-i"
    else:
        node["assignments"]["xi1"] = ["1", "1"]
    assert gate.problem_errors(2, 2, tampered)


def test_gate_counts_a_real_tampered_witness(tmp_path):
    from toricsing.cli import main
    problem = tmp_path / "p.json"
    problem.write_text(json.dumps(corpus.AFFINE_UNTAME))
    out = tmp_path / "r.json"
    code = main(["analyze", "--input", str(problem), "--format",
                 "structured", "--report", str(out)])
    report = json.loads(out.read_text())
    assert code == 2 and gate.problem_errors(code, 2, report) == []
    witness = next(gate.iter_witnesses(report))
    name = sorted(witness["assignments"])[0]
    witness["assignments"][name] = "7/3"
    assert gate.problem_errors(code, 2, report)


def test_gate_counts_a_wrong_exit_code():
    report = _point_report()
    assert gate.problem_errors(0, 2, report)  # fails became holds
    assert gate.problem_errors(2, 0, report)  # holds became fails
    assert gate.problem_errors(1, 2, report)  # usage or parse error
    assert gate.problem_errors("ValueError: boom", 2, report)
    assert gate.problem_errors(2, 3, report) == []  # unknown now certified
    assert gate.problem_errors(3, 2, {"command": "analyze"}) == []


def test_parse_gaussian_reads_report_forms():
    from fractions import Fraction as F
    assert gate.parse_gaussian("16*i") == (0, 16)
    assert gate.parse_gaussian("-3/2+7/5*i") == (F(-3, 2), F(7, 5))
    assert gate.parse_gaussian("1-i") == (1, -1)
    for bad in ("1+-2*i", "3i", "+"):
        with pytest.raises(ValueError):
            gate.parse_gaussian(bad)
