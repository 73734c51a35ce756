import json
import sys
import time
from pathlib import Path

import pytest

from toricsing import checks, family, newton
from toricsing.checks import FAILS, HOLDS, UNKNOWN
from toricsing.cli import main
from toricsing.errors import ConditionIRequired
from toricsing.family import (
    FamilyPolynomial,
    canonical_stratification,
    check_admissibility,
    check_condition_I,
    check_condition_II,
    exceptional_parameters,
    is_exceptional,
    specialize,
)
from toricsing.newton import ToricPolynomial
from toricsing.parser import parse_family
from toricsing.polynomials import Poly
from toricsing.rationals import GaussianRational
from toricsing.variety import build_variety

from conftest import gr, staircase


def t_poly(*coeffs):
    return Poly([gr(c) for c in coeffs])


def staircase_family(q, d, i):
    """f = z1^2 + t z_i^d + z_{q-1} on the staircase variety."""
    v = staircase(q)
    e1 = tuple(2 if j == 0 else 0 for j in range(q + 1))
    ei = tuple(d if j == i - 1 else 0 for j in range(q + 1))
    eq1 = tuple(1 if j == q - 2 else 0 for j in range(q + 1))
    return FamilyPolynomial(v, {
        e1: t_poly(1),
        ei: t_poly(0, 1),
        eq1: t_poly(1),
    })


def constant_family(g: ToricPolynomial) -> FamilyPolynomial:
    return FamilyPolynomial(
        g.variety, {exp: t_poly(0) + Poly.constant(c)
                    for exp, c in g.terms.items()}
    )


def test_specialize_staircase():
    fam = staircase_family(5, 3, 2)
    zero = specialize(fam, "zero")
    assert set(zero.terms) == {
        (2, 0, 0, 0, 0, 0), (0, 0, 0, 1, 0, 0)
    }
    at_one = specialize(fam, GaussianRational(1))
    assert set(at_one.terms) == {
        (2, 0, 0, 0, 0, 0), (0, 3, 0, 0, 0, 0), (0, 0, 0, 1, 0, 0)
    }
    generic = specialize(fam, "generic")
    assert len(generic.terms) == 3


def test_exceptional_parameters():
    fam = staircase_family(5, 3, 2)
    values, residuals = exceptional_parameters(fam)
    assert values == [GaussianRational(0)]
    assert not residuals
    assert is_exceptional(fam, 0)
    assert not is_exceptional(fam, 1)


def test_condition_I_staircase_holds():
    fam = staircase_family(5, 3, 2)
    verdict, values, _, _ = check_condition_I(fam)
    assert verdict.status == HOLDS


def test_condition_I_fails_when_boundary_moves(surface_variety):
    fam = FamilyPolynomial(
        surface_variety,
        {(1, 0, 0): t_poly(1), (0, 0, 1): t_poly(0, 1)},
    )
    verdict, _, _, _ = check_condition_I(fam)
    assert verdict.status == FAILS
    assert verdict.witness is not None and verdict.witness.replay()


def test_condition_I_constant_family(quartic_vertical):
    fam = constant_family(quartic_vertical)
    verdict, values, residuals, _ = check_condition_I(fam)
    assert verdict.status == HOLDS
    assert not values and not residuals


def test_condition_II_requires_condition_I(surface_variety):
    fam = FamilyPolynomial(
        surface_variety,
        {(1, 0, 0): t_poly(1), (0, 0, 1): t_poly(0, 1)},
    )
    with pytest.raises(ConditionIRequired):
        check_condition_II(fam)


def test_condition_II_staircase():
    fam = staircase_family(5, 3, 2)
    v_zero, v_gen, details = check_condition_II(fam)
    assert v_zero.status == HOLDS
    assert v_gen.status == HOLDS
    assert not details["anomalies"]


def test_condition_II_constant_family_agrees(quartic_vertical):
    fam = constant_family(quartic_vertical)
    v_zero, v_gen, _ = check_condition_II(fam)
    assert v_zero.status == v_gen.status == HOLDS


def test_condition_II_oracle_outcome_for_c3_variant(quartic_vertical_c3):
    # the verdict for the affine-space polynomial equals the recorded
    # outcome of the exact elimination (Holds on every compact face)
    fam = constant_family(quartic_vertical_c3)
    v_zero, v_gen, _ = check_condition_II(fam)
    assert v_zero.status == HOLDS
    assert v_gen.status == HOLDS


def test_generic_failure_witness_is_sampled(surface_variety, monkeypatch):
    # the compact segment carries (1 + (1+t) u)^2: degenerate for every t
    fam = FamilyPolynomial(
        surface_variety,
        {
            (2, 0, 0): t_poly(1),
            (1, 1, 0): t_poly(2, 2),
            (1, 0, 1): t_poly(1, 2, 1),
        },
    )
    verdict, _, _, _ = check_condition_I(fam)
    assert verdict.status == HOLDS
    counts = _count_calls(monkeypatch, [family._specialization_verdict])
    v_zero, v_gen, details = check_condition_II(fam)
    assert v_zero.status == FAILS
    assert v_gen.status == FAILS
    assert v_gen.witness is not None and v_gen.witness.replay()
    assert v_gen.trace["witness_sampled_at"] == "1"
    assert not details["anomalies"]
    # t = 0 and generic, then samples up to the first witness: t = 1 is
    # the first non-exceptional value of the pool
    assert counts == {"_specialization_verdict": 2 + 1}


def test_sample_losing_support_is_an_anomaly_not_a_crash():
    # at t = 1 the torus form cancels completely although no coefficient
    # vanishes there, so the sample t = 1 has no Newton polyhedron
    v = build_variety(generators=[(1, 0), (1, 1), (1, 2), (1, 3)])
    fam = parse_family("2*t*z2*z3-2*z1*z4+3*t*z1*z2*z3-3*z1^2*z4", v)
    assert not is_exceptional(fam, 1)
    report = check_admissibility(fam)
    generic = report.condition_II_generic
    assert generic.status == FAILS
    assert generic.witness is not None and generic.witness.replay()
    assert generic.evidence.endswith("; witness sampled at t = -1")
    assert report.admissible.status == FAILS
    assert report.anomalies == [
        "sample t = 1 lost support although not exceptional"
    ]


def test_admissibility_staircase_instances():
    for (q, d, i) in ((5, 3, 2), (6, 2, 3)):
        fam = staircase_family(q, d, i)
        report = check_admissibility(fam)
        assert report.condition_I.status == HOLDS
        assert report.condition_II_zero.status == HOLDS
        assert report.condition_II_generic.status == HOLDS
        assert report.uniform_tameness == "infinite"
        assert report.admissible.status == HOLDS
        assert report.equisingular.status == HOLDS
        labels = {s.label() for s in report.stratification}
        full = ",".join(str(k) for k in range(1, q + 2))
        assert labels == {
            "A_{1}", "B_{1}",
            f"A_{{{full}}}", f"B_{{{full}}}",
            "C_{}", f"C_{{{q+1}}}",
        }


def test_stratification_dimensions():
    fam = staircase_family(5, 3, 2)
    strata = canonical_stratification(fam)
    by_label = {s.label(): s for s in strata}
    assert by_label["A_{1}"].dim == 1
    assert by_label["B_{1}"].dim == 2
    assert by_label["A_{1,2,3,4,5,6}"].dim == 2
    assert by_label["B_{1,2,3,4,5,6}"].dim == 3
    assert by_label["C_{}"].dim == 1
    assert by_label["C_{6}"].dim == 2
    # B sits one dimension above A on every index set
    for s in strata:
        if s.kind == "A":
            twin = by_label["B" + s.label()[1:]]
            assert twin.dim == s.dim + 1


def test_stratification_fourfold_constant_family(fourfold_poly):
    fam = constant_family(fourfold_poly)
    strata = canonical_stratification(fam)
    labels = {s.label() for s in strata}
    assert "C_{1,2,4}" in labels


def test_inadmissible_family_from_untame_polynomial(untame_c3_poly):
    fam = constant_family(untame_c3_poly)
    report = check_admissibility(fam)
    assert report.admissible.status == FAILS
    assert report.equisingular.status == UNKNOWN
    assert report.admissible.witness is not None
    assert report.admissible.witness.replay()


def test_unknown_propagates_to_equisingularity(space_c3):
    # five coplanar support points: outside the exact subclass, so the face
    # verdict is unknown and so is everything downstream
    g = ToricPolynomial(
        space_c3,
        {
            (4, 0, 0): gr(1), (0, 4, 0): gr(1), (0, 0, 4): gr(1),
            (2, 1, 1): gr(1), (1, 2, 1): gr(1),
        },
    )
    fam = constant_family(g)
    report = check_admissibility(fam)
    assert report.admissible.status == UNKNOWN
    assert report.equisingular.status == UNKNOWN


def test_condition_I_fails_blocks_all(surface_variety):
    fam = FamilyPolynomial(
        surface_variety,
        {(1, 0, 0): t_poly(1), (0, 0, 1): t_poly(0, 1)},
    )
    report = check_admissibility(fam)
    assert report.admissible.status == FAILS
    assert report.equisingular.status == UNKNOWN
    assert report.stratification == []


def test_specialization_coherence_outside_exceptional_values():
    from toricsing.family import is_exceptional
    from toricsing.newton import torus_form

    fams = [
        staircase_family(5, 3, 2),
        staircase_family(6, 2, 3),
    ]
    samples = [GaussianRational(x) for x in (1, -1, 2, 3)] + [
        GaussianRational("1/2"), GaussianRational(0, 1)
    ]
    for fam in fams:
        generic_supp = set(torus_form(specialize(fam, "generic")).support)
        for t0 in samples:
            if is_exceptional(fam, t0):
                continue
            supp = set(torus_form(specialize(fam, t0)).support)
            assert supp == generic_supp


def test_strata_cover_index_sets_exactly_once():
    from toricsing.checks import vanishing_split

    fam = staircase_family(5, 3, 2)
    strata = canonical_stratification(fam)
    zero = specialize(fam, "zero")
    nv, vv = vanishing_split(zero)
    a_sets = sorted(s.index_set for s in strata if s.kind == "A")
    b_sets = sorted(s.index_set for s in strata if s.kind == "B")
    c_sets = sorted(s.index_set for s in strata if s.kind == "C")
    assert a_sets == b_sets == sorted(map(tuple, nv))
    assert c_sets == sorted(map(tuple, vv))


def _count_calls(monkeypatch, functions):
    """Wrap each function wherever a toricsing module binds it; returns the
    per-name call counts."""
    counts = {f.__name__: 0 for f in functions}
    for f in functions:
        def counted(*args, _f=f, **kwargs):
            counts[_f.__name__] += 1
            return _f(*args, **kwargs)
        for name, module in list(sys.modules.items()):
            if (name.split(".")[0] == "toricsing"
                    and getattr(module, f.__name__, None) is f):
                monkeypatch.setattr(module, f.__name__, counted)
    return counts


@pytest.mark.parametrize("command, specializations", [
    ("family", 2),    # t = 0 and generic; samples only for a pending witness
    ("stratify", 2),  # t = 0 and generic, compared by condition I
])
def test_newton_data_built_once_per_specialization(
        monkeypatch, tmp_path, command, specializations):
    counts = _count_calls(monkeypatch, [
        newton.newton_polyhedron, checks.vanishing_split,
        checks.essential_noncompact_faces,
    ])
    problem = Path(__file__).parent.parent / "problems" / \
        "staircase_family.json"
    assert main([command, "--input", str(problem),
                 "--report", str(tmp_path / "out")]) == 0
    assert counts == {
        "newton_polyhedron": specializations,
        "vanishing_split": specializations,
        "essential_noncompact_faces": specializations,
    }


# z2^2 and z1*z3 both map to the lattice point (2, 2) of the staircase
# cone(1, 0), (1, 1), (1, 2): generically their t-coefficients cancel, and
# at t = 0 both terms drop, so the two torus supports agree
CANCELLING = {"variety": {"generators": [[1, 0], [1, 1], [1, 2]]},
              "family": "z1^3+t*z2^2-t*z1*z3+z3^2"}


def _separately_enumerated(monkeypatch):
    """Make family enumerate every specialization's Newton faces anew."""
    monkeypatch.setattr(
        family, "newton_polyhedron",
        lambda g, like=None: newton.NewtonPolyhedron(g))


def _cli_outcome(problem, command, tmp_path, fmt="structured"):
    path, out = tmp_path / "problem.json", tmp_path / "report"
    path.write_text(json.dumps(problem), encoding="utf-8")
    out.unlink(missing_ok=True)
    code = main([command, "--input", str(path), "--format", fmt,
                 "--report", str(out)])
    return code, out.read_bytes() if out.exists() else b""


def test_generic_polyhedron_shares_the_zero_faces_keeping_its_form(
        monkeypatch, tmp_path):
    v = build_variety(generators=CANCELLING["variety"]["generators"])
    fam = parse_family(CANCELLING["family"], v)
    condition_I = check_condition_I(fam)
    assert condition_I[0].status == HOLDS
    np0, npg = (s["polyhedron"] for s in condition_I[3])
    assert npg.support == np0.support == ((2, 4), (3, 0))
    assert npg.form.cancelled == ((2, 2),) and not np0.form.cancelled
    assert npg.vertices == np0.vertices and npg.faces == np0.faces
    assert all(f.parent is npg for f in npg.faces)
    assert all(f.parent is np0 for f in np0.faces)
    _, _, details = check_condition_II(fam, condition_I=condition_I)
    assert details["nondeg_zero"].warnings == ()
    assert details["nondeg_generic"].warnings == (
        "coefficient cancellation at lattice points [(2, 2)]: excluded "
        "from the support",)
    cases = [(command, fmt) for command in ("family", "stratify")
             for fmt in ("structured", "text")]
    shared = [_cli_outcome(CANCELLING, command, tmp_path, fmt)
              for command, fmt in cases]
    _separately_enumerated(monkeypatch)
    assert shared == [_cli_outcome(CANCELLING, command, tmp_path, fmt)
                      for command, fmt in cases]
    assert b"coefficient cancellation at lattice points [(2, 2)]" in shared[0][1]


@pytest.mark.parametrize("command", ["family", "stratify"])
def test_family_enumerates_newton_faces_once_per_support(
        monkeypatch, tmp_path, command):
    enumerations = []
    enumerate_faces = newton.NewtonPolyhedron._enumerate

    def counted(self):
        enumerations.append(self.support)
        return enumerate_faces(self)

    monkeypatch.setattr(newton.NewtonPolyhedron, "_enumerate", counted)
    counts = _count_calls(monkeypatch, [
        newton.newton_polyhedron, checks.vanishing_split,
        checks.essential_noncompact_faces,
    ])
    problem = Path(__file__).parent.parent / "problems" / \
        "staircase_family.json"
    assert main([command, "--input", str(problem),
                 "--report", str(tmp_path / "out")]) == 0
    assert len(enumerations) == 1
    assert counts == {"newton_polyhedron": 2, "vanishing_split": 2,
                      "essential_noncompact_faces": 2}


def test_family_inputs_outside_the_corpus_exit_cleanly(monkeypatch,
                                                       tmp_path):
    # the warm-up problems bench/run.py draws for seeds 1..60: families
    # outside the timed corpus, 20 per seed
    sys.path.insert(0, str(Path(__file__).parent.parent / "bench"))
    try:
        import corpus
    finally:
        sys.path.pop(0)
    timed = corpus.corpus("family_sweep", 1)
    entries = [entry for seed in range(1, 61)
               for entry in corpus.warmup("family_sweep", seed, timed, 12)]
    assert len(entries) == 1200
    outcomes = []
    for entry in entries:
        start = time.perf_counter()
        outcomes.append(_cli_outcome(entry["problem"], entry["command"],
                                     tmp_path))
        assert time.perf_counter() - start < 1.0, entry
        assert outcomes[-1][0] in (0, 2, 3), entry
    _separately_enumerated(monkeypatch)
    for entry, outcome in zip(entries, outcomes):
        assert _cli_outcome(entry["problem"], entry["command"],
                            tmp_path) == outcome, entry
