"""Structured reports: loss-free serialization of verdicts and witnesses.

Reports are plain JSON trees. Exact non-integer numbers travel as strings;
lattice coordinates stay integers. Witnesses carry the violated equations
so they can be replayed from the report alone, with no recomputation.

``render_json`` writes ``json.dumps(report, sort_keys=True, indent=2)`` and
a newline, from one list of pieces. Reports hold only str-keyed dicts, lists,
tuples, str, int, bool and None; anything else raises a TypeError.
"""
from __future__ import annotations

from json.encoder import encode_basestring_ascii as _quote

from .checks import (
    CertifiedWitness,
    EssentialFace,
    NondegeneracyResult,
    Verdict,
)
from .errors import AnomalyDetected, NotReportData
from .family import AdmissibilityReport, StructuralWitness, Stratum
from .newton import NewtonPolyhedron, PolyFace
from .polynomials import Poly
from .rationals import GaussianRational
from .solvers import AlgebraicWitness, PointWitness
from .variety import ToricVariety

SCHEMA = "toricsing-report/1"


# ---------------------------------------------------------------------------
# building blocks
# ---------------------------------------------------------------------------

def equations_to_json(equations, names):
    out = []
    for terms in equations:
        entry = []
        for exp in sorted(terms):
            entry.append({
                "exponent": list(exp),
                "coefficient": str(terms[exp]),
            })
        out.append({"variables": list(names), "terms": entry})
    return out


def witness_to_json(witness):
    if witness is None:
        return None
    if isinstance(witness, StructuralWitness):
        return {
            "kind": "structural",
            "description": witness.description,
            "differences": {
                k: repr(v) for k, v in sorted(witness.differences.items())
            },
        }
    if not isinstance(witness, CertifiedWitness):
        raise AnomalyDetected(f"cannot serialize witness {witness!r}")
    point = witness.point
    base = {
        "kind": point.kind,
        "context": witness.context,
        "equations": equations_to_json(witness.equations, witness.names),
    }
    if isinstance(point, PointWitness):
        base["assignments"] = {
            n: str(v) for n, v in zip(point.names, point.values)
        }
    elif isinstance(point, AlgebraicWitness):
        base["modulus"] = [str(c) for c in point.modulus.coeffs]
        base["assignments"] = {
            n: [str(c) for c in v.coeffs]
            for n, v in zip(point.names, point.values)
        }
    else:
        raise AnomalyDetected(f"cannot serialize witness point {point!r}")
    return base


def witness_from_json(data):
    """Rebuild a replayable witness from its serialized form."""
    if data is None:
        return None
    kind = data.get("kind")
    if kind == "structural":
        return StructuralWitness(data["description"], data["differences"])
    equations = []
    names = None
    for eq in data["equations"]:
        names = tuple(eq["variables"])
        terms = {}
        for t in eq["terms"]:
            terms[tuple(t["exponent"])] = GaussianRational.from_string(
                t["coefficient"]
            )
        equations.append(terms)
    names = names or tuple(sorted(data["assignments"]))
    if kind == "point":
        values = tuple(
            GaussianRational.from_string(data["assignments"][n])
            for n in names
        )
        point = PointWitness(names, values)
    else:
        modulus = Poly([
            GaussianRational.from_string(c) for c in data["modulus"]
        ])
        values = tuple(
            Poly([GaussianRational.from_string(c)
                  for c in data["assignments"][n]])
            for n in names
        )
        point = AlgebraicWitness(names, values, modulus)
    return CertifiedWitness(names, point, equations,
                            context=data.get("context", ""))


def verdict_to_json(verdict: Verdict):
    out = {
        "status": verdict.status,
        "method": verdict.method,
        "evidence": verdict.evidence,
        "witness": witness_to_json(verdict.witness),
    }
    if verdict.trace:
        out["trace"] = _jsonable(verdict.trace)
    return out


def _jsonable(value):
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in sorted(
            value.items(), key=lambda kv: str(kv[0])
        )}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, (int, str, bool)) or value is None:
        return value
    return str(value)


def variety_to_json(v: ToricVariety):
    return {
        "lattice_dim": v.n,
        "embedding_dim": v.r,
        "sigma_rays": [list(r) for r in v.sigma.rays],
        "dual_rays": [list(r) for r in v.dual.rays],
        "generators": [list(b) for b in v.generators],
        "valid_index_sets": [list(s) for s in v.valid_index_sets],
        "warnings": list(v.warnings),
    }


def face_to_json(face: PolyFace):
    return {
        "weight": list(face.weight),
        "value": int(face.value),
        "vertex_set": [list(p) for p in face.vertex_set],
        "recession_rays": [list(b) for b in face.recession_rays],
        "noncompact_direction": list(face.noncompact_direction),
        "is_compact": face.is_compact,
    }


def newton_to_json(np_: NewtonPolyhedron):
    return {
        "support": [list(p) for p in np_.support],
        "recession_rays": [list(r) for r in np_.recession.rays],
        "vertices": [list(p) for p in np_.vertices],
        "faces": [face_to_json(f) for f in np_.faces],
        "compact_face_count": len(np_.compact_faces()),
        "cancelled_points": [list(p) for p in np_.form.cancelled],
    }


def essential_to_json(ef: EssentialFace):
    out = {
        "face": face_to_json(ef.face),
        "direction": list(ef.direction),
    }
    if ef.tame is not None:
        out["tame"] = verdict_to_json(ef.tame)
        out["tameness_radius"] = ef.tameness_radius
    return out


def nondegeneracy_to_json(result: NondegeneracyResult):
    return {
        "overall": verdict_to_json(result.overall),
        "faces": [
            {
                "vertex_set": [list(p) for p in key[0]],
                "noncompact_direction": list(key[1]),
                "verdict": verdict_to_json(v),
            }
            for key, v in sorted(result.face_verdicts.items())
        ],
        "warnings": list(result.warnings),
    }


def stratum_to_json(s: Stratum):
    return {
        "kind": s.kind,
        "index_set": list(s.index_set),
        "dim": s.dim,
        "label": s.label(),
        "description": s.description,
    }


def admissibility_to_json(report: AdmissibilityReport):
    return {
        "condition_I": verdict_to_json(report.condition_I),
        "condition_II_zero": verdict_to_json(report.condition_II_zero),
        "condition_II_generic": verdict_to_json(report.condition_II_generic),
        "uniform_tameness": report.uniform_tameness,
        "exceptional_parameters": [str(v) for v in report.exceptional_values],
        "exceptional_residual_factors": [
            list(f) for f in report.residual_factors
        ],
        "admissible": verdict_to_json(report.admissible),
        "equisingular": verdict_to_json(report.equisingular),
        "stratification": [stratum_to_json(s) for s in report.stratification],
        "anomalies": list(report.anomalies),
        "warnings": list(report.warnings),
    }


def render_json(report: dict) -> str:
    out = []
    _emit(report, out, "\n")
    return "".join(out) + "\n"


def _emit(value, out, newline):
    if isinstance(value, str):
        out.append(_quote(value))
    elif value is None or isinstance(value, bool):
        out.append("null" if value is None else "true" if value else "false")
    elif isinstance(value, int):
        out.append(int.__repr__(value))
    elif isinstance(value, dict):
        inner = newline + "  "
        for n, key in enumerate(sorted(value)):
            if not isinstance(key, str):
                raise NotReportData(f"report key {key!r} is not a string")
            out += ("," if n else "{", inner, _quote(key), ": ")
            _emit(value[key], out, inner)
        out.append(newline + "}" if value else "{}")
    elif isinstance(value, (list, tuple)):
        inner = newline + "  "
        for n, item in enumerate(value):
            out += ("," if n else "[", inner)
            _emit(item, out, inner)
        out.append(newline + "]" if value else "[]")
    else:
        raise NotReportData(
            f"cannot render {type(value).__name__} in a report")


# ---------------------------------------------------------------------------
# witness replay over a full report tree
# ---------------------------------------------------------------------------

def iter_witnesses(node, path="report"):
    """The (path, witness_dict) pairs of every witness in a report tree, in
    document order. Leaves are never visited, so they get no path."""
    found = []

    def walk(node, path):
        if isinstance(node, dict) and "kind" in node and (
                "assignments" in node or node["kind"] == "structural"):
            found.append((path, node))
        elif isinstance(node, dict):
            for key, value in node.items():
                if isinstance(value, (dict, list)):
                    walk(value, f"{path}.{key}")
        elif isinstance(node, list):
            for idx, value in enumerate(node):
                if isinstance(value, (dict, list)):
                    walk(value, f"{path}[{idx}]")

    walk(node, path)
    return found


def replay_witnesses(report: dict):
    """Re-substitute every witness; returns [(path, ok)]."""
    return [(path, witness_from_json(data).replay())
            for path, data in iter_witnesses(report)]


# ---------------------------------------------------------------------------
# text rendering
# ---------------------------------------------------------------------------

def _verdict_line(name, vj):
    line = f"{name}: {vj['status'].upper()} [{vj['method']}] {vj['evidence']}"
    w = vj.get("witness")
    if w and w.get("kind") == "point":
        pairs = ", ".join(
            f"{k}={v}" for k, v in sorted(w["assignments"].items())
        )
        line += f"\n  witness: {pairs}"
    elif w and w.get("kind") == "algebraic":
        line += "\n  witness: algebraic point, modulus coefficients " + str(
            w["modulus"]
        )
    elif w and w.get("kind") == "structural":
        line += f"\n  witness: {w['description']}"
    return line


def render_text(report: dict) -> str:
    lines = [f"# {report.get('command', 'report')} ({report['schema']})"]
    v = report.get("variety")
    if v:
        lines.append(
            f"variety: n={v['lattice_dim']}, r={v['embedding_dim']}, "
            f"generators={v['generators']}"
        )
        for w in v.get("warnings", []):
            lines.append(f"warning: {w}")
    if "dual_rays" in report:
        lines.append(f"dual rays: {report['dual_rays']}")
    if "hilbert_basis" in report:
        lines.append(f"hilbert basis: {report['hilbert_basis']}")
    if "cone_faces" in report:
        lines.append(f"cone faces: {len(report['cone_faces'])}")
        for f in report["cone_faces"]:
            lines.append(f"  dim {f['dim']}: rays {f['rays']}")
    if "valid_index_sets" in report:
        lines.append(f"valid index sets: {report['valid_index_sets']}")
    newton = report.get("newton")
    if newton:
        lines.append(f"support: {newton['support']}")
        lines.append(f"vertices: {newton['vertices']}")
        lines.append(
            f"faces: {len(newton['faces'])} "
            f"({newton['compact_face_count']} compact)"
        )
        if newton["cancelled_points"]:
            lines.append(
                f"warning: cancelled lattice points {newton['cancelled_points']}"
            )
    nd = report.get("nondegeneracy")
    if nd:
        lines.append(_verdict_line("non-degeneracy", nd["overall"]))
        for f in nd["faces"]:
            lines.append(
                f"  face {f['vertex_set']} I={f['noncompact_direction']}: "
                f"{f['verdict']['status']} [{f['verdict']['method']}]"
            )
    ess = report.get("essential_faces")
    if ess is not None:
        lines.append(f"essential non-compact faces: {len(ess)}")
        for e in ess:
            lines.append(
                f"  direction {e['direction']}: vertex set "
                f"{e['face']['vertex_set']}"
            )
            if "tame" in e:
                lines.append("  " + _verdict_line("  tameness", e["tame"]))
    tame = report.get("tameness")
    if tame:
        lines.append(_verdict_line("local tameness", tame))
    fam = report.get("family")
    if fam:
        lines.append(_verdict_line("condition I", fam["condition_I"]))
        lines.append(
            _verdict_line("condition II (t = 0)", fam["condition_II_zero"])
        )
        lines.append(
            _verdict_line("condition II (generic t)",
                          fam["condition_II_generic"])
        )
        lines.append(f"uniform tameness radius: {fam['uniform_tameness']}")
        if fam["exceptional_parameters"]:
            lines.append(
                "exceptional parameters: "
                + ", ".join(fam["exceptional_parameters"])
            )
        lines.append(_verdict_line("admissible", fam["admissible"]))
        lines.append(_verdict_line("equisingular", fam["equisingular"]))
        if fam["admissible"]["status"] == "holds":
            lines.append("final verdict: Whitney equisingular family "
                         "(licensed by the admissibility criterion)")
        lines.append("stratification:")
        for s in fam["stratification"]:
            lines.append(f"  {s['label']}: dim {s['dim']}")
        for a in fam["anomalies"]:
            lines.append(f"anomaly: {a}")
        for w in fam["warnings"]:
            lines.append(f"warning: {w}")
    strat = report.get("stratification")
    if strat and not fam:
        lines.append("stratification:")
        for s in strat:
            lines.append(f"  {s['label']}: dim {s['dim']}")
    replay = report.get("witness_replay")
    if replay is not None:
        ok = all(entry["ok"] for entry in replay)
        lines.append(
            f"witness replay: {'all verified' if ok else 'FAILURES'} "
            f"({len(replay)} witnesses)"
        )
    return "\n".join(lines) + "\n"
