import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from toricsing.checks import (
    FAILS,
    HOLDS,
    METHOD_EXACT,
    METHOD_SYMBOLIC,
    _verify_halfline_condition,
    check_all_tameness,
    check_local_tameness,
    check_nondegeneracy,
    essential_noncompact_faces,
    restrict,
    restriction_nondegeneracy_check,
    subvariety_restriction,
    vanishing_split,
)
from toricsing.errors import AnomalyDetected, FaceNotEssential, InvalidIndexSet
from toricsing.family import specialize
from toricsing.newton import (
    PolyFace,
    ToricPolynomial,
    newton_polyhedron,
    torus_form,
)
from toricsing.parser import parse_problem
from toricsing.variety import build_variety

from conftest import gr, random_polynomial, restriction_is_zero, staircase


# ---- restrictions -----------------------------------------------------------

def test_restrict_vanishing(fourfold_poly):
    sub = restrict(fourfold_poly, (1, 2, 4))
    assert not sub.terms
    assert restriction_is_zero(fourfold_poly, (1, 2, 4))


def test_restrict_nonzero(fourfold_poly):
    sub = restrict(fourfold_poly, (3,))
    assert set(sub.terms) == {(0, 0, 4, 0)}
    assert not restriction_is_zero(fourfold_poly, (3,))


def test_restrict_full_is_identity(fourfold_poly):
    sub = restrict(fourfold_poly, (1, 2, 3, 4))
    assert sub.terms == fourfold_poly.terms


def test_restrict_invalid_index_set(fourfold_poly):
    with pytest.raises(InvalidIndexSet):
        restrict(fourfold_poly, (1, 4))


def test_restriction_zero_by_cancellation(surface_variety):
    # z2^2 - z1 z3 restricted to the full set cancels at lattice level
    g = ToricPolynomial(
        surface_variety, {(0, 2, 0): gr(1), (1, 0, 1): gr(-1)}
    )
    assert restriction_is_zero(g, (1, 2, 3))


# ---- vanishing split --------------------------------------------------------

def test_vanishing_split_staircase(staircase_q5):
    f0 = ToricPolynomial(
        staircase_q5,
        {(2, 0, 0, 0, 0, 0): gr(1), (0, 0, 0, 1, 0, 0): gr(1)},
    )
    nv, vv = vanishing_split(f0)
    assert set(map(tuple, nv)) == {(1,), (1, 2, 3, 4, 5, 6)}
    assert set(map(tuple, vv)) == {(), (6,)}


def test_vanishing_split_fourfold(fourfold_poly):
    nv, vv = vanishing_split(fourfold_poly)
    assert (1, 2, 4) in set(map(tuple, vv))
    assert (3,) in set(map(tuple, nv))


def _oracle_split(g):
    sets = g.variety.valid_index_sets
    return ([s for s in sets if not restriction_is_zero(g, s)],
            [s for s in sets if restriction_is_zero(g, s)])


def _problem_polynomials():
    for path in sorted((Path(__file__).parent.parent / "problems")
                       .glob("*.json")):
        problem = parse_problem(path)
        if problem.polynomial is not None:
            yield problem.polynomial
        if problem.family is not None:
            yield specialize(problem.family, "zero")
            yield specialize(problem.family, "generic")


def test_vanishing_split_agrees_with_restriction_oracle(
        surface_variety, space_c3, embedded_3fold, fourfold_poly):
    polys = list(_problem_polynomials())
    assert len(polys) == 6
    polys += [
        fourfold_poly,
        # z2^2 - z1 z3 cancels at (2, 2): every index set vanishes
        ToricPolynomial(surface_variety,
                        {(0, 2, 0): gr(1), (1, 0, 1): gr(-1)}),
        ToricPolynomial(surface_variety,
                        {(0, 2, 0): gr(1), (1, 0, 1): gr(-1),
                         (0, 0, 3): gr(2)}),
        # z1 z2 - z4^2 cancels at (2, 2, 2), so {1, 2, 4} vanishes only by
        # cancellation on this r > n variety
        ToricPolynomial(embedded_3fold,
                        {(1, 1, 0, 0): gr(1), (0, 0, 0, 2): gr(-1),
                         (0, 0, 2, 0): gr(1)}),
    ]
    rng = random.Random(27)
    pool = [surface_variety, space_c3, embedded_3fold, staircase(4)]
    polys += [random_polynomial(rng, pool[k % len(pool)]) for k in range(320)]
    cancelling = 0
    for g in polys:
        expected = _oracle_split(g)
        assert vanishing_split(g) == expected, g.terms
        form = torus_form(g)
        cancelling += form.has_cancellation()
        if not form.is_zero():
            assert vanishing_split(g, np=newton_polyhedron(g)) == expected
    assert cancelling >= 3
    assert (1, 2, 4) in vanishing_split(polys[9])[1]


# ---- essential faces --------------------------------------------------------

def test_essential_faces_fourfold(fourfold_poly):
    faces = essential_noncompact_faces(fourfold_poly)
    directions = sorted(ef.direction for ef in faces)
    assert (1, 2, 4) in directions
    main = next(ef for ef in faces if ef.direction == (1, 2, 4))
    assert {(3, 2, 13), (7, 2, 9)} <= set(main.face.vertex_set)
    # faces through the vertex (4,0,12) have direction {3}, which is
    # non-vanishing, so they are never essential
    assert all((3,) != ef.direction for ef in faces)
    for ef in faces:
        np_ = newton_polyhedron(fourfold_poly)
        assert not np_.face_of_weight(ef.face.weight).is_compact


def test_essential_faces_tame_surface(tame_surface_poly):
    faces = essential_noncompact_faces(tame_surface_poly)
    assert len(faces) == 1
    assert faces[0].direction == (1,)
    assert faces[0].face.vertex_set == ((4, 4),)


def test_essential_faces_staircase(staircase_q5):
    f0 = ToricPolynomial(
        staircase_q5,
        {(2, 0, 0, 0, 0, 0): gr(1), (0, 0, 0, 1, 0, 0): gr(1)},
    )
    faces = essential_noncompact_faces(f0)
    assert [ef.direction for ef in faces] == [(6,)]
    # the non-compact face in direction {1} exists but is not essential
    np_ = newton_polyhedron(f0)
    dirs = {f.noncompact_direction for f in np_.faces if not f.is_compact}
    assert (1,) in dirs


WEIGHT_OUTSIDE_SIGMA = (
    "from toricsing.checks import _verify_halfline_condition; "
    "from toricsing.newton import PolyFace; "
    "from toricsing.variety import build_variety; "
    "v = build_variety(generators=[(1, 0), (0, 1)]); "
    "_verify_halfline_condition("
    "v, PolyFace((-1, 0), 0, ((0, 1),), ((0, 1),), (2,), None))"
)


def test_halfline_check_refuses_a_weight_outside_sigma():
    # (-1, 0) pairs to zero with exactly b_2 = (0, 1), so the direction
    # {2} agrees with the pairings; the premise w in sigma does not hold
    v = build_variety(generators=[(1, 0), (0, 1)])
    face = PolyFace((-1, 0), 0, ((0, 1),), ((0, 1),), (2,), None)
    with pytest.raises(AnomalyDetected, match="not in sigma"):
        _verify_halfline_condition(v, face)
    # the check is not an assert: it stays on under python -O
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    proc = subprocess.run([sys.executable, "-O", "-c", WEIGHT_OUTSIDE_SIGMA],
                          env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 1
    assert "AnomalyDetected: face weight (-1, 0) is not in sigma" in \
        proc.stderr


# ---- non-degeneracy ---------------------------------------------------------

def test_nondegeneracy_quartic_vertical_holds(quartic_vertical):
    result = check_nondegeneracy(quartic_vertical)
    assert result.overall.status == HOLDS
    assert result.overall.method == METHOD_EXACT
    assert len(result.face_verdicts) == 3


def test_nondegeneracy_quartic_mixed_holds(quartic_mixed):
    result = check_nondegeneracy(quartic_mixed)
    assert result.overall.status == HOLDS


def test_nondegeneracy_c3_variant_exact_verdict(quartic_vertical_c3):
    # the compact segment (0,1,4)-(0,2,2) has gradient system with no torus
    # zeros: exact computation decides Holds
    result = check_nondegeneracy(quartic_vertical_c3)
    assert result.overall.status == HOLDS
    assert result.overall.method == METHOD_EXACT


def test_nondegeneracy_fails_with_witness(surface_variety):
    # lattice support (2,0),(2,1),(2,2) with coefficients of (1-u)^2
    g = ToricPolynomial(
        surface_variety,
        {(2, 0, 0): gr(1), (1, 1, 0): gr(-2), (1, 0, 1): gr(1)},
    )
    result = check_nondegeneracy(g)
    assert result.overall.status == FAILS
    w = result.overall.witness
    assert w is not None and w.replay()
    # Euler consistency: the critical point also lies on the zero set
    segment_verdict = next(
        v for k, v in result.face_verdicts.items() if v.status == FAILS
    )
    witness = segment_verdict.witness
    form = torus_form(g)
    face = result.polyhedron.face_of_weight((1, 0))
    from toricsing.newton import face_function
    _, face_form = face_function(g, face, np=result.polyhedron)
    from toricsing.solvers import PointWitness
    assert isinstance(witness.point, PointWitness)
    value = None
    for lam, coeff in face_form.terms.items():
        term = coeff
        for v_, e in zip(witness.point.values, lam):
            term = term * (v_ ** int(e))
        value = term if value is None else value + term
    assert value.is_zero()


def test_nondegeneracy_cancellation_warning(surface_variety):
    g = ToricPolynomial(
        surface_variety,
        {(0, 2, 0): gr(1), (1, 0, 1): gr(-1), (4, 0, 0): gr(1)},
    )
    result = check_nondegeneracy(g)
    assert result.warnings
    assert "cancellation" in result.warnings[0]


# ---- local tameness ---------------------------------------------------------

def test_tameness_tame_surface(tame_surface_poly):
    overall, faces = check_all_tameness(tame_surface_poly)
    assert overall.status == HOLDS
    assert len(faces) == 1
    assert faces[0].tameness_radius == "infinite"
    assert faces[0].tame.method == METHOD_SYMBOLIC


def test_tameness_untame_c3(untame_c3_poly):
    overall, faces = check_all_tameness(untame_c3_poly)
    assert overall.status == FAILS
    bad = [ef for ef in faces if ef.tame.status == FAILS]
    assert bad
    assert bad[0].direction == (1, 2)
    w = bad[0].tame.witness
    assert w is not None and w.replay()


def test_tameness_staircase_constant_gradient(staircase_q5):
    f0 = ToricPolynomial(
        staircase_q5,
        {(2, 0, 0, 0, 0, 0): gr(1), (0, 0, 0, 1, 0, 0): gr(1)},
    )
    overall, faces = check_all_tameness(f0)
    assert overall.status == HOLDS
    assert faces and faces[0].direction == (6,)
    assert faces[0].tameness_radius == "infinite"


def test_tameness_check_returns_new_faces(tame_surface_poly, untame_c3_poly):
    for g in (tame_surface_poly, untame_c3_poly):
        before = essential_noncompact_faces(g)
        verdict = check_local_tameness(g, before[0])
        overall, faces = check_all_tameness(g)
        assert all(ef.tame is None and ef.tameness_radius is None
                   for ef in before)
        assert [ef.key() for ef in faces] == [ef.key() for ef in before]
        assert faces[0].tame.status == verdict.status
        for ef in faces:
            radius = "infinite" if ef.tame.status == HOLDS else "unknown"
            assert ef.tameness_radius == radius
        with pytest.raises(AttributeError):
            faces[0].tame = None
        with pytest.raises(AttributeError):
            overall.status = HOLDS
    assert {ef.tameness_radius for ef in faces} == {"infinite", "unknown"}


def test_tameness_requires_essential_face(quartic_mixed):
    from toricsing.checks import EssentialFace

    np_ = newton_polyhedron(quartic_mixed)
    fake = EssentialFace(np_.compact_faces()[0], ())
    with pytest.raises(FaceNotEssential):
        check_local_tameness(quartic_mixed, fake)


# ---- restrictions of non-degenerate polynomials -----------------------------

def test_restriction_nondegeneracy_quartic_vertical(quartic_vertical):
    result = check_nondegeneracy(quartic_vertical)
    assert result.overall.status == HOLDS
    verdicts = restriction_nondegeneracy_check(quartic_vertical)
    assert verdicts
    for index_set, verdict in verdicts.items():
        assert verdict.status != FAILS


def test_subvariety_restriction_monomial(staircase_q5):
    f0 = ToricPolynomial(
        staircase_q5,
        {(2, 0, 0, 0, 0, 0): gr(1), (0, 0, 0, 1, 0, 0): gr(1)},
    )
    sub_v, sub = subvariety_restriction(f0, (1,))
    assert sub_v.r == 1
    assert set(sub.terms) == {(2,)}
    result = check_nondegeneracy(sub)
    assert result.overall.status == HOLDS


def test_witness_that_fails_replay_raises(surface_variety, untame_c3_poly,
                                          monkeypatch):
    # the replay at construction guards every Fails verdict against an
    # arithmetic fault, as a check that raises rather than an assert; the
    # solvers' own verify calls stay real, so a witness is still found
    from toricsing.checks import CertifiedWitness
    from toricsing.errors import AnomalyDetected

    monkeypatch.setattr(CertifiedWitness, "replay", lambda self: False)
    g = ToricPolynomial(
        surface_variety,
        {(2, 0, 0): gr(1), (1, 1, 0): gr(-2), (1, 0, 1): gr(1)},
    )
    with pytest.raises(AnomalyDetected, match="failed replay"):
        check_nondegeneracy(g)
    with pytest.raises(AnomalyDetected, match="failed replay"):
        check_all_tameness(untame_c3_poly)


def test_tameness_witness_from_exact_cube_root():
    # the critical locus has z1 = 7*10**100, the cube root of 343*10**300
    from toricsing.variety import build_variety

    c2 = build_variety(generators=[(1, 0), (0, 1)])
    g = ToricPolynomial(c2, {(3, 3): gr(1), (0, 3): gr(-343 * 10 ** 300)})
    overall, _ = check_all_tameness(g)
    assert overall.status == FAILS
    assert overall.witness.replay()
