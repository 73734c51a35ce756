import itertools
import random

import pytest

from toricsing import lattice, linalg
from toricsing.errors import (
    AmbientDimTooLarge,
    EmptyInput,
    NotStronglyConvex,
    UnboundedBelow,
)
from toricsing.lattice import RationalCone, dual_cone, face_lattice, hilbert_basis, minimize


# The two staple fixtures used throughout: a planar cone whose dual is the
# staircase cone, and a three-dimensional cone with a non-trivial Hilbert
# basis element in the interior of the dual.
SIGMA_2D = RationalCone.from_rays([(0, 1), (2, -1)])
SIGMA_3D = RationalCone.from_rays([(2, -4, 2), (3, 2, -1), (-3, 6, 1)])


def test_dual_of_planar_cone():
    dual = dual_cone(SIGMA_2D)
    assert dual.rays == ((1, 0), (1, 2))


def test_dual_of_3d_cone():
    dual = dual_cone(SIGMA_3D)
    assert set(dual.rays) == {(0, 1, 2), (2, 1, 0), (1, 0, 3)}


def test_orthant_self_dual():
    for n in range(1, 5):
        orthant = RationalCone.from_rays(
            [tuple(1 if j == i else 0 for j in range(n)) for i in range(n)]
        )
        assert dual_cone(orthant) == orthant


def test_dual_cone_involution_on_goldens():
    for cone in (SIGMA_2D, SIGMA_3D):
        assert dual_cone(dual_cone(cone)) == cone


def test_dual_rejects_empty_and_big():
    zero = RationalCone(2, [])
    with pytest.raises(EmptyInput):
        dual_cone(zero)
    with pytest.raises(AmbientDimTooLarge):
        RationalCone.from_rays([(1, 0, 0, 0, 0)])


def test_ray_canonicalization_removes_redundancy():
    cone = RationalCone.from_rays([(1, 0), (1, 2), (1, 1), (2, 2)])
    assert cone.rays == ((1, 0), (1, 2))
    assert cone.is_strongly_convex()


def test_non_pointed_cone_detected():
    half = RationalCone.from_rays([(1, 0), (-1, 0), (0, 1)])
    assert not half.is_strongly_convex()
    with pytest.raises(NotStronglyConvex):
        hilbert_basis(half)
    with pytest.raises(NotStronglyConvex):
        face_lattice(half)


def test_hilbert_basis_staircase():
    cone = RationalCone.from_rays([(1, 0), (1, 2)])
    assert hilbert_basis(cone) == [(1, 0), (1, 1), (1, 2)]


def test_hilbert_basis_orthants():
    for n in range(1, 5):
        orthant = RationalCone.from_rays(
            [tuple(1 if j == i else 0 for j in range(n)) for i in range(n)]
        )
        expected = sorted(
            tuple(1 if j == i else 0 for j in range(n)) for i in range(n)
        )
        assert hilbert_basis(orthant) == expected


def test_hilbert_basis_3d_golden():
    # Frozen from three independent computations (triangulation code,
    # exhaustive box irreducibility, direct parallelepiped scan). The four
    # generators (0,1,2),(2,1,0),(1,0,3),(1,1,1) alone do NOT generate the
    # semigroup: see test below.
    cone = RationalCone.from_rays([(0, 1, 2), (2, 1, 0), (1, 0, 3)])
    basis = hilbert_basis(cone)
    assert set(basis) == {
        (0, 1, 2),
        (2, 1, 0),
        (1, 0, 3),
        (1, 1, 1),
        (1, 1, 2),
        (1, 1, 3),
        (1, 1, 4),
        (2, 1, 1),
        (2, 1, 2),
        (2, 1, 3),
    }
    # the four smallest elements are all present
    for v in [(0, 1, 2), (2, 1, 0), (1, 0, 3), (1, 1, 1)]:
        assert v in basis


def test_four_element_subset_does_not_generate_3d_semigroup():
    # (1,1,2) lies in the cone but is not a nonnegative integer combination
    # of the four elements (0,1,2),(2,1,0),(1,0,3),(1,1,1)
    cone = RationalCone.from_rays([(0, 1, 2), (2, 1, 0), (1, 0, 3)])
    assert lattice.contains(cone, (1, 1, 2))
    gens = [(0, 1, 2), (2, 1, 0), (1, 0, 3), (1, 1, 1)]
    facets = cone.facet_normals()
    ell = tuple(sum(f[i] for f in facets) for i in range(3))
    assert linalg.nonneg_int_combination((1, 1, 2), gens, ell) is None


def test_face_lattice_planar():
    faces = face_lattice(SIGMA_2D)
    assert len(faces) == 4
    dims = sorted(f.dim for f in faces)
    assert dims == [0, 1, 1, 2]


def test_face_lattice_ray():
    ray = RationalCone.from_rays([(1, 0)])
    faces = face_lattice(ray)
    assert len(faces) == 2


def test_face_lattice_3d_dual_has_8_faces():
    dual = dual_cone(SIGMA_3D)
    faces = face_lattice(dual)
    assert len(faces) == 8
    dims = sorted(f.dim for f in faces)
    assert dims == [0, 1, 1, 1, 2, 2, 2, 3]


def test_supporting_normals_witness_faces():
    for cone in (SIGMA_2D, dual_cone(SIGMA_3D), RationalCone.from_rays([(1, 0)])):
        all_rays = set(cone.rays)
        for face in face_lattice(cone):
            w = face.supporting_normal
            for r in face.rays:
                assert linalg.dot(w, r) == 0
            for r in cone.rays:
                assert linalg.dot(w, r) >= 0
            if set(face.rays) != all_rays:
                assert any(linalg.dot(w, r) > 0 for r in all_rays - set(face.rays))


def test_face_lattice_anti_isomorphism():
    # each face of sigma corresponds to the orthogonal face of the dual, and
    # complementary dimensions add up to the ambient dimension
    for cone in (SIGMA_2D, SIGMA_3D):
        n = cone.ambient_dim
        dual = dual_cone(cone)
        for face in face_lattice(cone):
            ortho = [r for r in dual.rays if all(linalg.dot(r, u) == 0 for u in face.rays)]
            dim_ortho = linalg.rank([list(r) for r in ortho]) if ortho else 0
            assert face.dim + dim_ortho == n


def test_contains_golden():
    cone = RationalCone.from_rays([(1, 0), (1, 2)])
    assert lattice.contains(cone, (1, 1))
    assert not lattice.contains(cone, (-1, 0))
    assert lattice.contains(cone, (0, 0))


def test_minimize_golden_staircase():
    recession = RationalCone.from_rays([(1, 0), (1, 2)])
    pts = [(4, 0), (3, 1), (3, 2), (4, 5)]
    # oracle: exhaustive pairing
    w = (3, -1)
    expected = min(3 * p[0] - p[1] for p in pts)
    d, argmin = minimize(pts, recession, w)
    assert d == expected == 7
    assert argmin == ((3, 2), (4, 5))


def test_minimize_golden_q5():
    recession = RationalCone.from_rays([(1, 0), (1, 5)])
    pts = [(2, 0), (1, 3)]
    w = (5, -1)
    expected = min(5 * p[0] - p[1] for p in pts)
    d, argmin = minimize(pts, recession, w)
    assert d == expected == 2
    assert argmin == ((1, 3),)


def test_minimize_unbounded():
    recession = RationalCone.from_rays([(1, 0), (1, 5)])
    with pytest.raises(UnboundedBelow):
        minimize([(1, 1)], recession, (-1, 0))


def random_pointed_cone(rng, n):
    """A random strongly convex cone with small integer rays."""
    while True:
        k = rng.randint(2, n + 2)
        rays = [
            tuple(rng.randint(-4, 4) for _ in range(n)) for _ in range(k)
        ]
        try:
            cone = RationalCone.from_rays(rays, n)
        except EmptyInput:
            continue
        if cone.rays and cone.is_strongly_convex() and cone.dim() >= 1:
            return cone


def test_duality_involution_randomized():
    rng = random.Random(31)
    done = 0
    while done < 60:
        n = rng.choice([2, 3])
        cone = random_pointed_cone(rng, n)
        assert dual_cone(dual_cone(cone)) == cone
        done += 1


def test_hilbert_basis_box_oracle():
    # inside the coordinate box, lattice points of the cone coincide with
    # nonnegative integer combinations of the basis
    rng = random.Random(47)
    cones = [RationalCone.from_rays([(1, 0), (1, 2)]),
             RationalCone.from_rays([(0, 1, 2), (2, 1, 0), (1, 0, 3)]),
             RationalCone.from_rays([(2, 1), (1, 3)])]
    for _ in range(6):
        cones.append(random_pointed_cone(rng, 2))
    bound = 8
    for cone in cones:
        if not cone.is_full_dimensional():
            continue
        n = cone.ambient_dim
        hb = hilbert_basis(cone)
        facets = cone.facet_normals()
        ell = tuple(sum(f[i] for f in facets) for i in range(n))
        box = itertools.product(range(-bound, bound + 1), repeat=n)
        for p in box:
            inside = all(linalg.dot(f, p) >= 0 for f in facets)
            if not inside or all(x == 0 for x in p):
                continue
            combo = linalg.nonneg_int_combination(p, hb, ell)
            assert combo is not None, (cone, p)


def test_hilbert_basis_minimality():
    cones = [RationalCone.from_rays([(1, 0), (1, 2)]),
             RationalCone.from_rays([(0, 1, 2), (2, 1, 0), (1, 0, 3)]),
             RationalCone.from_rays([(3, 1), (1, 4)])]
    for cone in cones:
        hb = hilbert_basis(cone)
        facets = cone.facet_normals()
        ell = tuple(
            sum(f[i] for f in facets) for i in range(cone.ambient_dim)
        )
        for i, h in enumerate(hb):
            others = [g for j, g in enumerate(hb) if j != i]
            assert linalg.nonneg_int_combination(h, others, ell) is None


def test_rational_vector_inputs():
    from fractions import Fraction

    from toricsing.lattice import RationalVector

    cone = RationalCone.from_rays([(1, 0), (1, 2)])
    v = RationalVector([Fraction(1, 2), Fraction(1, 3)])
    assert lattice.contains(cone, v)
    assert len(v) == 2 and v[0] == Fraction(1, 2)
    assert v == RationalVector(["1/2", "1/3"])
    d, argmin = minimize([(4, 0), (3, 1)], cone, RationalVector([3, -1]))
    assert d == 8 and argmin == ((3, 1),)


def test_membership_oracle_agrees_with_dual_description():
    rng = random.Random(53)
    for _ in range(60):
        n = rng.choice([2, 3])
        cone = random_pointed_cone(rng, n)
        v = tuple(rng.randint(-5, 5) for _ in range(n))
        assert lattice.contains(cone, v) == lattice.in_cone_oracle(v, cone.rays)


def test_facet_normals_match_a_fresh_dualization():
    # the dual description a cone keeps from its construction equals a
    # dualization of its canonical rays, for pointed, lower-dimensional,
    # non-pointed and trusted cones
    rng = random.Random(59)
    lower = lines = 0
    for _ in range(120):
        n = rng.choice([2, 3, 4])
        rays = [tuple(rng.randint(-3, 3) for _ in range(n))
                for _ in range(rng.randint(1, n + 2))]
        if rng.random() < 0.4:  # flatten into the hyperplane x_n = x_1
            rays = [r[:-1] + (r[0],) for r in rays]
        try:
            cone = RationalCone.from_rays(rays, n)
        except EmptyInput:
            continue
        if not cone.rays:
            continue
        lower += cone.dim() < n
        lines += not cone.is_strongly_convex()
        lin, pointed = lattice.polar_description(list(cone.rays), n)
        trusted = RationalCone(n, cone.rays, cone.lineality_basis,
                               _trusted=True)
        for c in (cone, trusted):
            assert c.facet_normals() == tuple(pointed)
            assert set(c.dual_generators()) == set(pointed) | set(lin) | {
                tuple(-x for x in v) for v in lin}
    assert lower >= 20 and lines >= 5


def test_polar_description_runs_one_smith_form(monkeypatch):
    calls = []
    smith = linalg.smith_normal_form

    def counted(rows):
        calls.append(rows)
        return smith(rows)

    monkeypatch.setattr(linalg, "smith_normal_form", counted)
    # {v : v1 >= 0, -v1 >= 0, v2 >= 0} is the half-space v2 >= 0 of v1 = 0
    lin, pointed = lattice.polar_description(
        [(1, 0, 0), (-1, 0, 0), (0, 1, 0)], 3)
    assert len(calls) == 1
    assert lin == [(0, 0, 1)]
    assert pointed == [(0, 1, 0)]
