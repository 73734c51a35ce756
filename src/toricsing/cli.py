"""Command-line interface.

Commands: dual, hilbert, faces, nondeg, tame, analyze, family, stratify.
Exit codes: 0 holds/success, 1 input error, 2 fails (witness in
the report), 3 unknown, 4 internal error. Identical inputs and seed give
byte-identical structured reports.
"""
from __future__ import annotations

import argparse
import sys

from .checks import (
    DEFAULT_BUDGET,
    DEFAULT_SEED,
    FAILS,
    HOLDS,
    UNKNOWN,
    check_all_tameness,
    check_nondegeneracy,
    combine_verdicts,
    essential_noncompact_faces,
    restriction_nondegeneracy_check,
    vanishing_split,
)
from .errors import ParseError, ToricError
from .family import (
    FamilyPolynomial,
    canonical_stratification,
    check_admissibility,
    check_condition_I,
)
from .newton import newton_polyhedron
from .parser import parse_problem
from .polynomials import Poly
from . import report as report_mod

_EXIT_BY_STATUS = {HOLDS: 0, FAILS: 2, UNKNOWN: 3}

COMMANDS = (
    "dual", "hilbert", "faces", "nondeg", "tame", "analyze", "family",
    "stratify",
)


def build_arg_parser():
    p = argparse.ArgumentParser(
        prog="toricsing",
        description="Exact analysis of polynomials and one-parameter "
                    "families on affine toric varieties",
    )
    p.add_argument("command", choices=COMMANDS)
    p.add_argument("--input", required=True, help="problem file (JSON)")
    p.add_argument("--report", help="write the report here instead of stdout")
    p.add_argument("--format", choices=("text", "structured"),
                   default="text")
    p.add_argument("--seed", type=int, default=None,
                   help="seed for the randomized witness search")
    p.add_argument("--budget", type=int, default=None,
                   help="sample budget for the randomized witness search")
    p.add_argument("--oracle", action="store_true",
                   help="run brute-force cross-checks (restriction "
                        "non-degeneracy consistency)")
    p.add_argument("--verify-witness", action="store_true",
                   help="re-substitute every witness in the report and "
                        "confirm the violated equations are exactly zero")
    return p


def _require_polynomial(problem):
    if problem.polynomial is None:
        raise ParseError("this command needs a 'polynomial' entry")
    return problem.polynomial


def _require_family(problem):
    if problem.family is not None:
        return problem.family
    if problem.polynomial is not None:
        # a plain polynomial is analyzed as the constant family
        g = problem.polynomial
        return FamilyPolynomial(
            g.variety,
            {exp: Poly.constant(c) for exp, c in g.terms.items()},
        )
    raise ParseError("this command needs a 'family' (or 'polynomial') entry")


def run(command, args) -> tuple[int, dict]:
    """Execute one command; returns (exit_code, structured_report)."""
    problem = parse_problem(args.input)
    seed = args.seed if args.seed is not None \
        else problem.options.get("seed", DEFAULT_SEED)
    budget = args.budget if args.budget is not None \
        else problem.options.get("budget", DEFAULT_BUDGET)
    if budget < 0:
        raise ParseError("the budget must be nonnegative")
    v = problem.variety
    out = {
        "schema": report_mod.SCHEMA,
        "command": command,
        "seed": seed,
        "budget": budget,
        "variety": report_mod.variety_to_json(v),
    }
    code = 0

    if command == "dual":
        out["dual_rays"] = [list(r) for r in v.dual.rays]
    elif command == "hilbert":
        out["hilbert_basis"] = [list(h) for h in v.hilbert_basis]
    elif command == "faces":
        if problem.polynomial is not None:
            np_ = newton_polyhedron(problem.polynomial)
            out["newton"] = report_mod.newton_to_json(np_)
        else:
            out["cone_faces"] = [
                {
                    "rays": [list(r) for r in f.rays],
                    "dim": f.dim,
                    "supporting_normal": list(f.supporting_normal),
                }
                for f in v.dual_faces
            ]
            out["valid_index_sets"] = [list(s) for s in v.valid_index_sets]
    elif command == "nondeg":
        g = _require_polynomial(problem)
        result = check_nondegeneracy(g, seed=seed, budget=budget)
        out["nondegeneracy"] = report_mod.nondegeneracy_to_json(result)
        out["newton"] = report_mod.newton_to_json(result.polyhedron)
        code = _EXIT_BY_STATUS[result.overall.status]
    elif command == "tame":
        g = _require_polynomial(problem)
        overall, faces = check_all_tameness(g, seed=seed, budget=budget)
        out["essential_faces"] = [
            report_mod.essential_to_json(ef) for ef in faces
        ]
        out["tameness"] = report_mod.verdict_to_json(overall)
        code = _EXIT_BY_STATUS[overall.status]
    elif command == "analyze":
        g = _require_polynomial(problem)
        np_ = newton_polyhedron(g)
        split = vanishing_split(g, np=np_)
        nondeg = check_nondegeneracy(g, seed=seed, budget=budget, np=np_)
        tame_overall, faces = check_all_tameness(
            g, seed=seed, budget=budget,
            essential=essential_noncompact_faces(g, np=np_, split=split),
        )
        out["newton"] = report_mod.newton_to_json(np_)
        out["nonvanishing_index_sets"] = [list(s) for s in split[0]]
        out["vanishing_index_sets"] = [list(s) for s in split[1]]
        out["nondegeneracy"] = report_mod.nondegeneracy_to_json(nondeg)
        out["essential_faces"] = [
            report_mod.essential_to_json(ef) for ef in faces
        ]
        out["tameness"] = report_mod.verdict_to_json(tame_overall)
        overall = combine_verdicts(
            [nondeg.overall, tame_overall],
            holds_evidence="non-degenerate and locally tame along the "
                           "vanishing varieties",
        )
        out["overall"] = report_mod.verdict_to_json(overall)
        if args.oracle:
            cross = restriction_nondegeneracy_check(
                g, seed=seed, budget=budget
            )
            out["restriction_consistency"] = {
                ",".join(map(str, k)): report_mod.verdict_to_json(val)
                for k, val in cross.items()
            }
        code = _EXIT_BY_STATUS[overall.status]
    elif command == "family":
        fam = _require_family(problem)
        rep = check_admissibility(fam, seed=seed, budget=budget)
        out["family"] = report_mod.admissibility_to_json(rep)
        code = _EXIT_BY_STATUS[rep.admissible.status]
    elif command == "stratify":
        fam = _require_family(problem)
        condition_I = check_condition_I(fam)
        cond_I = condition_I[0]
        out["condition_I"] = report_mod.verdict_to_json(cond_I)
        if cond_I.status == HOLDS:
            strata = canonical_stratification(fam, condition_I=condition_I)
            out["stratification"] = [
                report_mod.stratum_to_json(s) for s in strata
            ]
        code = _EXIT_BY_STATUS[cond_I.status]
    else:  # pragma: no cover - argparse restricts the choices
        raise ParseError(f"unknown command {command!r}")

    if args.verify_witness:
        replay = [
            {"path": path, "ok": ok}
            for path, ok in report_mod.replay_witnesses(out)
        ]
        out["witness_replay"] = replay
        if any(not entry["ok"] for entry in replay):
            code = 1
    return code, out


_PARSER = None  # built on the first main call, not at import


def main(argv=None) -> int:
    global _PARSER
    if _PARSER is None:
        _PARSER = build_arg_parser()
    args = _PARSER.parse_args(argv)
    try:
        code, out = run(args.command, args)
        if args.format == "structured":
            rendered = report_mod.render_json(out)
        else:
            rendered = report_mod.render_text(out)
    except ToricError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:
        print(f"error: internal: {type(exc).__name__}: {exc}",
              file=sys.stderr)
        return 4
    if args.report:
        with open(args.report, "w", encoding="utf-8") as fh:
            fh.write(rendered)
    else:
        sys.stdout.write(rendered)
    return code


if __name__ == "__main__":
    sys.exit(main())
