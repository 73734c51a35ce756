from fractions import Fraction

import pytest

from toricsing import linalg
from toricsing.errors import (
    ConstantTermForbidden,
    EmptyInput,
    EmptySupport,
    FaceMismatch,
    WeightNotInSigma,
)
from toricsing.newton import (
    ToricPolynomial,
    face_function,
    newton_polyhedron,
    torus_form,
)
from toricsing.variety import build_variety

from conftest import gr


def test_torus_form_quartic_mixed(quartic_mixed):
    form = torus_form(quartic_mixed)
    assert form.terms == {
        (4, 0): gr(1),
        (3, 1): gr(1),
        (3, 2): gr(1),
        (4, 5): gr(-1),
    }
    assert not form.has_cancellation()


def test_torus_form_single_monomial(surface_variety):
    g = ToricPolynomial(surface_variety, {(1, 0, 0): gr(1)})
    form = torus_form(g)
    assert form.terms == {(1, 0): gr(1)}


def test_torus_form_cancellation(surface_variety):
    # z2^2 and z1*z3 both map to lattice point (2,2)
    g = ToricPolynomial(
        surface_variety, {(0, 2, 0): gr(1), (1, 0, 1): gr(-1)}
    )
    form = torus_form(g)
    assert form.is_zero()
    assert form.has_cancellation()
    assert form.cancelled == ((2, 2),)


def test_no_constant_term(surface_variety):
    with pytest.raises(ConstantTermForbidden):
        ToricPolynomial(surface_variety, {(0, 0, 0): gr(1)})


def test_non_integral_exponent_is_rejected():
    plane = build_variety(generators=[(1, 0), (0, 1)])
    with pytest.raises(EmptyInput):
        ToricPolynomial(plane, {(1.5, 0): gr(1)})
    with pytest.raises(EmptyInput):
        ToricPolynomial(plane, {(Fraction(1, 2), 1): gr(1)})
    assert ToricPolynomial(plane, {(Fraction(2), 1): gr(1)}).terms == {
        (2, 1): gr(1)}


def test_newton_polyhedron_quartic_mixed(quartic_mixed):
    np_ = newton_polyhedron(quartic_mixed)
    assert np_.vertices == ((3, 1), (3, 2), (4, 0), (4, 5))
    compact = np_.compact_faces()
    segments = [f for f in compact if len(f.vertex_set) == 2]
    points = [f for f in compact if len(f.vertex_set) == 1]
    assert len(points) == 4
    assert sorted(f.vertex_set for f in segments) == [
        ((3, 1), (3, 2)),
        ((3, 1), (4, 0)),
        ((3, 2), (4, 5)),
    ]


def test_newton_polyhedron_empty_support(surface_variety):
    g = ToricPolynomial(
        surface_variety, {(0, 2, 0): gr(1), (1, 0, 1): gr(-1)}
    )
    with pytest.raises(EmptySupport):
        newton_polyhedron(g)


def test_single_monomial_polyhedron_translates_cone(surface_variety):
    g = ToricPolynomial(surface_variety, {(2, 1, 0): gr(3)})
    np_ = newton_polyhedron(g)
    lam = ((3, 1),)
    assert np_.vertices == lam
    # one face per face of the dual cone
    directions = sorted(f.noncompact_direction for f in np_.faces)
    assert directions == [(), (1,), (1, 2, 3), (3,)]
    assert all(f.vertex_set == lam for f in np_.faces)


def test_newton_polyhedron_quartic_vertical(quartic_vertical):
    np_ = newton_polyhedron(quartic_vertical)
    assert np_.vertices == ((4, 0), (4, 6))
    assert (5, 6) in np_.support
    compact = np_.compact_faces()
    assert len(compact) == 3


def test_face_function_vertical_segment(quartic_vertical):
    np_ = newton_polyhedron(quartic_vertical)
    segment = next(
        f for f in np_.compact_faces() if f.vertex_set == ((4, 0), (4, 6))
    )
    sub, form = face_function(quartic_vertical, segment)
    assert form.terms == {(4, 0): gr(1), (4, 6): gr(-1)}
    assert set(sub.terms) == {(4, 0, 0), (0, 2, 2)}


def test_face_of_weight_embedded_3fold(fourfold_poly):
    np_ = newton_polyhedron(fourfold_poly)
    face = np_.face_of_weight((1, -2, 1))
    assert face.value == 12
    assert {(3, 2, 13), (7, 2, 9)} <= set(face.vertex_set)
    assert face.noncompact_direction == (1, 2, 4)
    assert not face.is_compact


def test_face_of_weight_strictly_positive(surface_variety):
    g = ToricPolynomial(surface_variety, {(2, 1, 0): gr(3)})
    np_ = newton_polyhedron(g)
    face = np_.face_of_weight((1, 1))
    assert face.vertex_set == ((3, 1),)
    assert face.is_compact


def test_face_of_weight_staircase(staircase_q5):
    g = ToricPolynomial(
        staircase_q5,
        {
            (2, 0, 0, 0, 0, 0): gr(1),
            (0, 3, 0, 0, 0, 0): gr(1),
            (0, 0, 0, 1, 0, 0): gr(1),
        },
    )
    np_ = newton_polyhedron(g)
    face = np_.face_of_weight((5, -1))
    assert face.value == 2
    assert face.vertex_set == ((1, 3),)
    assert face.noncompact_direction == (6,)


def test_face_of_weight_rejects_bad_weight(quartic_mixed):
    np_ = newton_polyhedron(quartic_mixed)
    with pytest.raises(WeightNotInSigma):
        np_.face_of_weight((0, -1))


def test_face_of_rational_weight_is_rejected():
    # the face of (1/2, 1) is that of (1, 2), which is compact; truncating
    # the weight to (0, 1) would give the non-compact face with I = {1}
    plane = build_variety(generators=[(1, 0), (0, 1)])
    g = ToricPolynomial(plane, {(2, 0): gr(1), (1, 1): gr(1), (0, 3): gr(1)})
    np_ = newton_polyhedron(g)
    assert np_.face_of_weight((1, 2)).is_compact
    with pytest.raises(EmptyInput):
        np_.face_of_weight((Fraction(1, 2), 1))


def _pairs_positively(np_, face):
    return all(linalg.dot(face.weight, b) > 0 for b in np_.variety.generators)


def test_compact_boundary_quartic_mixed(quartic_mixed):
    np_ = newton_polyhedron(quartic_mixed)
    faces = np_.compact_faces()
    assert len(faces) == 7  # 4 vertices and 3 segments
    assert all(_pairs_positively(np_, f) for f in faces)


def test_compact_boundary_single_monomial(surface_variety):
    g = ToricPolynomial(surface_variety, {(1, 0, 0): gr(1)})
    np_ = newton_polyhedron(g)
    assert len(np_.compact_faces()) == 1
    assert _pairs_positively(np_, np_.compact_faces()[0])


def test_face_function_essential_face(tame_surface_poly):
    np_ = newton_polyhedron(tame_surface_poly)
    face = np_.face_of_weight((0, 1))
    # recomputed lattice point of z1^2 z3^2 is (4,4)
    assert face.vertex_set == ((4, 4),)
    assert face.noncompact_direction == (1,)
    sub, form = face_function(tame_surface_poly, face)
    assert set(sub.terms) == {(2, 0, 2)}


def test_face_function_mismatch(quartic_mixed, quartic_vertical):
    np_other = newton_polyhedron(quartic_vertical)
    segment = next(
        f for f in np_other.compact_faces()
        if f.vertex_set == ((4, 0), (4, 6))
    )
    with pytest.raises(FaceMismatch):
        face_function(quartic_mixed, segment)


def test_transport_identity_on_faces(quartic_mixed):
    # <W, Lambda> = <w, lambda> = d_w for every face term
    v = quartic_mixed.variety
    np_ = newton_polyhedron(quartic_mixed)
    for face in np_.faces:
        w_big = [linalg.dot(face.weight, b) for b in v.generators]
        sub, _ = face_function(quartic_mixed, face, np=np_)
        for exp in sub.terms:
            lam = sub.lambda_of(exp)
            assert linalg.dot(w_big, exp) == linalg.dot(face.weight, lam)
            assert linalg.dot(face.weight, lam) == face.value


def test_face_functions_weighted_homogeneous(quartic_mixed, fourfold_poly):
    for g in (quartic_mixed, fourfold_poly):
        np_ = newton_polyhedron(g)
        for face in np_.faces:
            _, form = face_function(g, face, np=np_)
            # sum_i w_i theta_i multiplies the term at lambda by <w, lambda>
            for lam, c in form.terms.items():
                assert c * linalg.dot(face.weight, lam) == c * face.value


def test_hull_consistency(quartic_mixed, quartic_vertical, fourfold_poly):
    from conftest import in_cone_oracle

    for g in (quartic_mixed, quartic_vertical, fourfold_poly):
        np_ = newton_polyhedron(g)
        gens = [tuple(v) + (1,) for v in np_.vertices]
        gens += [tuple(v) + (0,) for v in np_.recession.rays]
        for s in np_.support:
            assert np_.contains_lattice_point(s)
            assert in_cone_oracle(tuple(s) + (1,), gens)


def test_orthant_compact_faces_appear_in_toric_polyhedron(quartic_mixed):
    # the Newton polyhedron of the same exponents with orthant recession has
    # its compact faces among the toric ones
    plane = build_variety(generators=[(1, 0), (0, 1)])
    form = torus_form(quartic_mixed)
    flat = ToricPolynomial(
        plane, {lam: c for lam, c in form.terms.items()}
    )
    np_flat = newton_polyhedron(flat)
    np_toric = newton_polyhedron(quartic_mixed)
    toric_keys = {f.vertex_set for f in np_toric.compact_faces()}
    flat_compact = [f for f in np_flat.compact_faces()]
    segments = [f for f in flat_compact if len(f.vertex_set) == 2]
    assert len(segments) == 1
    assert segments[0].vertex_set == ((3, 1), (4, 0))
    for f in flat_compact:
        assert f.vertex_set in toric_keys


def test_dimension_four_enumerates_faces():
    v4 = build_variety(generators=[
        (1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)
    ])
    g = ToricPolynomial(
        v4, {(2, 0, 0, 0): gr(1), (0, 0, 0, 3): gr(1)}
    )
    np_ = newton_polyhedron(g)
    assert np_.vertices == ((0, 0, 0, 3), (2, 0, 0, 0))
    assert np_.faces
    for f in np_.faces:
        assert np_.face_of_weight(f.weight) == f
    face = np_.face_of_weight((1, 1, 1, 1))
    assert face.vertex_set == ((2, 0, 0, 0),)
    assert face.is_compact
    assert np_.contains_lattice_point((2, 0, 0, 0))
    assert np_.contains_lattice_point((3, 1, 0, 0))
    assert not np_.contains_lattice_point((1, 0, 0, 0))
    sub, _ = face_function(g, face)
    assert set(sub.terms) == {(2, 0, 0, 0)}
