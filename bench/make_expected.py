"""Record the expected outcome of every corpus problem.

    PYTHONPATH=src python3 bench/make_expected.py WORKLOAD [CORPUS_SEED ...]

Run from the root of a checkout. Runs every problem of the workload's
corpus once through ``toricsing.cli.main`` and writes
``bench/expected/WORKLOAD.json``: one exit code per problem, the answer
fingerprint of cone commands, and the gate's findings on the program as it
was when the file was written (recorded as they are, never filtered out of
the corpus). For small_verdicts each decided compact-face non-degeneracy
verdict is also cross-checked against the sympy oracle
``sympy_gradient_torus_solvable`` in ``tests/conftest.py``.
"""
from __future__ import annotations

import json
import os
import shutil
import sys
from fractions import Fraction
from types import SimpleNamespace

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import corpus  # noqa: E402
import gate  # noqa: E402
from toricsing.cli import main as cli_main  # noqa: E402

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))


def run_corpus(workload, corpus_seed, work):
    rounds = corpus.corpus(workload, corpus_seed)
    exits, answers, errors = [], [], {}
    oracle = {"checked": 0, "disagree": []} \
        if workload == "small_verdicts" else None
    for r, rnd in enumerate(rounds):
        exits.append([])
        answers.append([])
        for k, entry in enumerate(rnd):
            path = os.path.join(work, "problem.json")
            report_path = os.path.join(work, "report.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(entry["problem"], fh)
            if os.path.exists(report_path):
                os.remove(report_path)
            try:
                code = cli_main([entry["command"], "--input", path,
                                 "--format", "structured",
                                 "--report", report_path] + entry["args"])
            except Exception as exc:  # recorded, not filtered out
                code = f"{type(exc).__name__}: {exc}"
            report = None
            if os.path.exists(report_path):
                with open(report_path, encoding="utf-8") as fh:
                    report = json.load(fh)
            exits[r].append(code if isinstance(code, int) else 1)
            answers[r].append(gate.answer_digest(report) if report else None)
            found = gate.problem_errors(code, code, report)
            if found:
                errors[f"{r}.{k}"] = found
            if oracle is not None and report is not None:
                cross_check(entry["problem"], report, oracle, f"{r}.{k}")
    out = {"digest": corpus.digest(rounds), "exit": exits,
           "errors_at_seed": errors}
    if workload == "cone_ladder":
        out["answer"] = answers
    if oracle is not None:
        out["oracle"] = oracle
    return out


def cross_check(problem, report, oracle, pid):
    """Compare each decided compact-face verdict with the sympy oracle."""
    import sympy
    from conftest import sympy_gradient_torus_solvable

    gens = report["variety"]["generators"]
    r, n = len(gens), len(gens[0])
    zs = sympy.symbols(f"z1:{r + 1}")
    names = {f"z{k + 1}": z for k, z in enumerate(zs)}
    names["i"] = sympy.I
    expr = sympy.parse_expr(problem["polynomial"].replace("^", "**"),
                            local_dict=names)
    collected = {}
    for exp, coeff in sympy.Poly(sympy.expand(expr), *zs).terms():
        lam = tuple(sum(e * g[j] for e, g in zip(exp, gens))
                    for j in range(n))
        collected[lam] = collected.get(lam, 0) + coeff
    for face in report["nondegeneracy"]["faces"]:
        status = face["verdict"]["status"]
        if status == "unknown":
            continue
        terms = {}
        for lam in map(tuple, face["vertex_set"]):
            c = sympy.nsimplify(collected[lam])
            re, im = sympy.re(c), sympy.im(c)
            terms[lam] = SimpleNamespace(
                re=Fraction(int(re.p), int(re.q)),
                im=Fraction(int(im.p), int(im.q)))
        solvable = sympy_gradient_torus_solvable(terms, n)
        oracle["checked"] += 1
        if solvable != (status == "fails"):
            oracle["disagree"].append(
                {"problem": pid, "face": face["vertex_set"],
                 "status": status})


def main(argv):
    workload = argv[0]
    seeds = [int(s) for s in argv[1:]] or [corpus.DEFAULT_CORPUS_SEED,
                                          corpus.HELD_OUT_CORPUS_SEED]
    sys.path.insert(0, os.path.join(os.getcwd(), "tests"))
    path = os.path.join(BENCH_DIR, "expected", f"{workload}.json")
    recorded = {"workload": workload, "corpora": {}}
    if os.path.exists(path):
        with open(path, encoding="utf-8") as fh:
            recorded = json.load(fh)
    work = os.path.join(os.getcwd(), ".bench_work", f"expected-{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    try:
        for seed in seeds:
            recorded["corpora"][str(seed)] = run_corpus(workload, seed, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(recorded, fh, sort_keys=True, separators=(",", ":"))
        fh.write("\n")


if __name__ == "__main__":
    main(sys.argv[1:])
