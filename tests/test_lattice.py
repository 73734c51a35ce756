import hashlib
import itertools
import math
import operator
import random
from fractions import Fraction
from pathlib import Path

import pytest
import sympy
from sympy.polys.matrices import DomainMatrix

from toricsing import lattice, linalg
from toricsing.errors import (
    AmbientDimTooLarge,
    AnomalyDetected,
    EmptyInput,
    MultiplicityTooLarge,
    NotStronglyConvex,
    UnboundedBelow,
)
from toricsing.lattice import RationalCone, dual_cone, face_lattice, hilbert_basis, minimize
from toricsing.newton import newton_polyhedron
from toricsing.parser import parse_problem
from toricsing.variety import build_variety

from conftest import in_cone_oracle


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
        RationalCone.from_rays([(1, 0, 0, 0, 0, 0)])
    # a 5-dimensional cone is only the homogenized Newton cone of a 4-fold;
    # varieties stay capped at lattice dimension 4
    sigma5 = [tuple(int(i == j) for j in range(5)) for i in range(5)]
    with pytest.raises(AmbientDimTooLarge):
        build_variety(sigma_rays=sigma5)


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
    assert cone.contains((1, 1, 2))
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


# Pointed full-dimensional cones of dimension 2 to 4; each test runs on
# every cone and on its dual. The staircase cones (1, 0), ..., (1, q) are
# the duals of cone((0, 1), (q, -1)).
CONE_POOL = [
    [(0, 1), (2, -1)],
    *([(1, j) for j in range(q + 1)] for q in range(3, 8)),
    [(2, -4, 2), (3, 2, -1), (-3, 6, 1)],
    [(0, 0, 1), (1, 0, 1), (0, 1, 1), (1, 1, 1)],  # over a square
    [(1, 0, 0, 0), (1, 2, 0, 0), (0, 1, 3, 0), (1, 1, 1, 5)],
    # over an octahedron: 6 rays, 12 two-faces, 8 facets
    [tuple(s * int(i == j) for j in range(3)) + (1,)
     for i in range(3) for s in (1, -1)],
]


def _pool_cones():
    for rays in CONE_POOL:
        cone = RationalCone.from_rays(rays)
        yield cone
        yield dual_cone(cone)


def test_face_dimensions_read_off_the_lattice():
    for cone in _pool_cones():
        faces = face_lattice(cone)
        for face in faces:
            assert face.dim == linalg.rank(face.rays)
        f_vector = [sum(f.dim == k for f in faces)
                    for k in range(cone.dim() + 1)]
        assert f_vector[0] == f_vector[-1] == 1
        # Euler's relation for the polytope the cone is over
        assert sum((-1) ** k * fk for k, fk in enumerate(f_vector)) == 0


# Non-pointed cones: a half-plane, a line, the whole plane, a half-space
# of R^3, a wedge over a line in R^3 (with a repeated generator), and a
# lower-dimensional half-plane in R^4
NON_POINTED = [
    [(1, 0), (-1, 0), (0, 1)],
    [(2, 3), (-2, -3)],
    [(1, 0), (0, 1), (-1, -1)],
    [(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (1, 1, 1), (2, 0, 3)],
    [(1, 2, 0), (-1, -2, 0), (0, 0, 1), (3, 1, 1), (1, -1, 2), (3, 1, 1)],
    [(1, 1, 0, 0), (-1, -1, 0, 0), (0, 1, 1, 0), (1, 2, 1, 0)],
]


def test_cone_path_makes_no_fraction(monkeypatch):
    def no_fraction(*args):
        raise AssertionError(f"Fraction{args} on the cone path")

    assert not hasattr(linalg, "Fraction")  # linalg is integer-only
    monkeypatch.setattr(lattice, "Fraction", no_fraction)
    for rays in NON_POINTED:  # the redundancy filter with a lineality space
        cone = RationalCone.from_rays(rays)
        assert cone.lineality_basis and not cone.is_strongly_convex()
        for r in list(cone.rays) + rays:
            assert cone.contains(r) and cone.contains(list(r))
        for d in cone.facet_normals():
            assert all(linalg.dot(d, v) == 0 for v in cone.lineality_basis)
            assert any(linalg.dot(d, r) > 0 for r in cone.rays)
    for cone in _pool_cones():
        assert face_lattice(cone)[-1].dim == cone.dim() == cone.ambient_dim
        assert hilbert_basis(cone)
        for r in cone.rays:
            assert cone.contains(r) and cone.contains(list(r))
            assert not cone.contains(tuple(-x for x in r))
        _, completion, _ = linalg.saturation_basis(cone.rays)
        assert linalg.rank(completion) == len(completion)
        linalg.invert_unimodular(completion)


def test_contains_golden():
    cone = RationalCone.from_rays([(1, 0), (1, 2)])
    assert cone.contains((1, 1))
    assert not cone.contains((-1, 0))
    assert cone.contains((0, 0))


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
    assert cone.contains(v)
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
        assert cone.contains(v) == in_cone_oracle(v, cone.rays)


def test_facet_normals_match_a_fresh_dualization():
    # the dual description a cone keeps from its construction equals a
    # dualization of its canonical rays, for pointed, lower-dimensional,
    # non-pointed cones and for cones built by dual_cone
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
        # the dual of the whole space is {0}, which dual_cone rejects
        again = dual_cone(dual_cone(cone)) if pointed or lin else cone
        for c in (cone, again):
            assert c.facet_normals() == tuple(pointed)
            assert set(c.dual_generators()) == set(pointed) | set(lin) | {
                tuple(-x for x in v) for v in lin}
    assert lower >= 20 and lines >= 5


def _double_dualization(generators, n):
    """The canonical (lineality basis, pointed rays) of a cone and of its
    dual as two dualizations find them: the dual of the generators, then
    the dual of the dual's generators."""
    polar = lattice.polar_description
    dual = polar(generators, n)
    own = polar(lattice._generators(*dual), n) if generators else ((), ())
    return tuple(map(tuple, own)), tuple(map(tuple, dual))


def _reference_pool(rng):
    """Seeded generator lists in R^1..R^5: random lists (with repeated and
    redundant generators, some flattened into a hyperplane, some with a
    line added) and the homogenized Newton cones of random supports."""
    varieties = [build_variety(sigma_rays=[(0, 1), (2, -1)]),
                 build_variety(sigma_rays=[(0, 1), (5, -1)]),
                 build_variety(generators=[(1, 0, 0), (0, 1, 0), (0, 0, 1)]),
                 build_variety(sigma_rays=[(1, 0, 0), (0, 1, 0), (7, 9, 40)]),
                 build_variety(generators=[
                     tuple(int(i == j) for j in range(4)) for i in range(4)])]
    pool = []
    for k in range(360):
        n = 1 + k % 5
        gens = [tuple(rng.randint(-3, 3) for _ in range(n))
                for _ in range(rng.randint(1, n + 3))]
        if n > 1 and rng.random() < 0.3:  # into the hyperplane x_n = x_1
            gens = [g[:-1] + (g[0],) for g in gens]
        if rng.random() < 0.3:  # a line
            gens += [gens[0], tuple(-x for x in gens[0])]
        if rng.random() < 0.3:  # repeated and redundant generators
            gens += [gens[-1], tuple(2 * x for x in gens[-1]),
                     tuple(map(operator.add, gens[0], gens[-1]))]
        pool.append((n, gens))
    for k in range(120):
        v = varieties[k % len(varieties)]
        support = {tuple(sum(c * b[j] for c, b in zip(cs, v.generators))
                         for j in range(v.n))
                   for cs in ([rng.randint(0, 3) for _ in v.generators]
                              for _ in range(rng.randint(1, 6)))}
        support.discard((0,) * v.n)
        gens = [s + (1,) for s in sorted(support)]
        gens += [tuple(r) + (0,) for r in v.dual.rays]
        pool.append((v.n + 1, gens))
    return pool


def test_canonical_form_matches_double_dualization(monkeypatch):
    pool = _reference_pool(random.Random(67))
    calls = []
    polar = lattice.polar_description

    def counted(generators, n):
        calls.append(n)
        return polar(generators, n)

    monkeypatch.setattr(lattice, "polar_description", counted)
    cones = []
    for n, gens in pool:
        del calls[:]
        cone = RationalCone(n, gens)
        assert calls == [n]  # one dualization per cone
        cones.append((cone, [linalg.primitive(g) for g in gens if any(g)]))
    monkeypatch.undo()
    kinds = set()
    for cone, cleaned in cones:
        own, dual = _double_dualization(cleaned, cone.ambient_dim)
        assert (cone._own, cone._dual) == (own, dual), cleaned
        assert cone.rays == tuple(sorted(lattice._generators(*own)))
        kinds.add((cone.ambient_dim, cone.is_strongly_convex(),
                   cone.is_full_dimensional(), len(cleaned) > len(cone.rays)))
    # every kind, each with redundant or repeated generators; in R^1 the
    # only lower-dimensional cone is {0}
    for n, pointed, full in itertools.product(range(1, 6), (True, False),
                                              (True, False)):
        assert (n, pointed, full, True) in kinds or (n, full) == (1, False)


def _pair(u, v):
    return sum(a * b for a, b in zip(u, v))


def _primitive_int(v):
    g = math.gcd(*v) or 1
    return tuple(x // g for x in v)


def _brute_force_facet_normals(gens, n):
    """Reference facet normals of cone(gens) in R^n, of dimension k: for
    every k - 1 generators of sympy rank k - 1, the primitive normal of
    their span inside span(gens), kept when every generator pairs
    nonnegatively with it (after a sign) and one positively."""
    gens = sorted({_primitive_int(g) for g in gens if any(g)})
    if not gens:
        return []
    perp = [list(v) for v in sympy.Matrix(gens).nullspace()]
    k = n - len(perp)
    found, tight_sets = set(), []
    for subset in itertools.combinations(gens, k - 1):
        # a subset inside a hyperplane already seen spans no new one
        if any(set(subset) <= t for t in tight_sets):
            continue
        rows = [list(g) for g in subset] + perp
        null = sympy.Matrix(len(rows), n, sum(rows, [])).nullspace()
        if len(null) != 1:  # rank below n - 1: the subset is dependent
            continue
        scale = sympy.ilcm(1, *(x.q for x in null[0]))
        normal = _primitive_int([int(x * scale) for x in null[0]])
        values = [_pair(normal, g) for g in gens]
        tight_sets.append({g for g, x in zip(gens, values) if x == 0})
        if min(values) < 0 < max(values):
            continue
        found.add(normal if max(values) > 0
                  else tuple(-x for x in normal))
    return sorted(found)


def _oracle_pool():
    pool = _reference_pool(random.Random(67))
    pool += [(len(rays[0]), rays) for rays in NON_POINTED]
    return pool


def test_facet_normals_match_a_brute_force_oracle():
    # an oracle sharing nothing with the double description: facets as
    # spans of generators, ranks and normals from sympy
    kinds = set()
    for n, gens in _oracle_pool():
        cone = RationalCone(n, gens)
        assert list(cone.facet_normals()) == _brute_force_facet_normals(
            gens, n), (n, gens)
        kinds.add((cone.is_strongly_convex(), cone.is_full_dimensional()))
    assert kinds == set(itertools.product((True, False), (True, False)))


def test_face_lattice_matches_intersections_of_facets():
    cones = [c for n, gens in _oracle_pool()
             for c in [RationalCone(n, gens)] if c.is_strongly_convex()]
    cones += [dual_cone(c) for c in cones if c.is_full_dimensional()]
    for cone in cones:
        facets = [frozenset(r for r in cone.rays if _pair(d, r) == 0)
                  for d in cone.facet_normals()]
        expected = {frozenset(cone.rays)}
        for b in facets:
            expected |= {f & b for f in expected}
        faces = face_lattice(cone)
        assert {frozenset(f.rays) for f in faces} == expected, cone
        assert len(faces) == len(expected)
        for face in faces:
            rank = (DomainMatrix.from_list(face.rays, sympy.ZZ).rank()
                    if face.rays else 0)
            assert face.dim == rank, (cone, face)
    assert {c.dim() for c in cones} == {0, 1, 2, 3, 4, 5}


def test_full_rank_cones_skip_the_lattice_change(monkeypatch):
    problem = parse_problem(
        Path(__file__).parent.parent / "problems" / "surface_quartic.json")
    newton = newton_polyhedron(problem.polynomial)
    calls = []

    def counted(name, original):
        def call(*args):
            calls.append(name)
            return original(*args)
        return call

    for name in ("smith_normal_form", "saturation_basis", "rank"):
        monkeypatch.setattr(linalg, name, counted(name, getattr(linalg, name)))
    sigma = RationalCone.from_rays([(0, 1), (2, -1)])
    enumerated = newton._enumerate()
    assert calls == []
    assert sigma.rays == ((0, 1), (2, -1))
    assert sigma.facet_normals() == ((1, 0), (1, 2))
    assert enumerated[:2] == (newton._facets, newton._vertices)


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


def test_dual_cone_runs_no_dualization(monkeypatch):
    cones = [SIGMA_2D, SIGMA_3D, RationalCone.from_rays([(1, 0), (-1, 0)]),
             RationalCone.from_rays([(1, 0, 0), (0, 1, 0)], 3)]
    calls = []
    polar = lattice.polar_description

    def counted(generators, n):
        calls.append(n)
        return polar(generators, n)

    monkeypatch.setattr(lattice, "polar_description", counted)
    for cone in cones:
        dual = dual_cone(cone)
        assert dual_cone(dual) == cone
    assert not calls
    monkeypatch.undo()
    # the swapped descriptions are those a fresh construction finds
    for cone in cones:
        dual = dual_cone(cone)
        fresh = RationalCone(cone.ambient_dim, cone.dual_generators())
        assert dual == fresh
        assert dual.lineality_basis == fresh.lineality_basis
        assert dual.facet_normals() == fresh.facet_normals()
        assert set(dual.dual_generators()) == set(fresh.dual_generators())


def test_smith_form_of_a_flat_4d_cone_finishes():
    # three rays in R^4 whose second dualization once grew Smith-form
    # entries to thousands of digits
    rays = [(4, -3, -3, 3), (-4, -3, -3, 2), (1, -3, 2, 4)]
    cone = RationalCone.from_rays(rays, 4)
    assert sorted(cone.rays) == sorted(rays)
    assert cone.dim() == 3 and cone.is_strongly_convex()
    assert all(linalg.dot(f, r) >= 0
               for f in cone.dual_generators() for r in rays)


# ---- the integer Hilbert-basis core against Fraction references ------------

def _fraction_parallelepiped(simplex_rays):
    """Reference: every lattice point of the box around the half-open
    parallelepiped, kept when its Fraction solve V t = p has 0 <= t_i < 1;
    maps each nonzero point found to its ray coordinates t."""
    rows = list(zip(*simplex_rays))
    box = [range(sum(min(0, x) for x in row), sum(max(0, x) for x in row) + 1)
           for row in rows]
    cols = [[Fraction(x) for x in row] for row in rows]
    points = {}
    for p in itertools.product(*box):
        t, _ = linalg.solve_field_system(cols, [Fraction(x) for x in p],
                                         Fraction(0), Fraction(1))
        if t is not None and all(0 <= x < 1 for x in t) and any(p):
            points[p] = tuple(t)
    return points


def _fraction_minimal_points(simplex_rays):
    """The reference points whose ray coordinates are componentwise minimal
    among those of the nonzero parallelepiped points."""
    coords = _fraction_parallelepiped(simplex_rays)
    return sorted(p for p, t in coords.items()
                  if not any(s != t and all(map(operator.le, s, t))
                             for s in coords.values()))


def _group_points_in_span(simplex_rays):
    """_minimal_group_points inside the saturated span of the rays, as
    hilbert_basis reduces a lower-dimensional cone, lifted back to Z^n."""
    n, d = len(simplex_rays[0]), len(simplex_rays)
    if d == n:
        return lattice._minimal_group_points(simplex_rays)
    basis, _, _ = linalg.saturation_basis(simplex_rays)
    reduced = [linalg.coordinates_in_basis(r, basis) for r in simplex_rays]
    return [tuple(sum(p[j] * basis[j][i] for j in range(d)) for i in range(n))
            for p in lattice._minimal_group_points(reduced)]


def _invariant_factors(simplex_rays):
    _, s, _ = linalg.smith_normal_form([list(c) for c in zip(*simplex_rays)])
    return [s[k][k] for k in range(len(simplex_rays))]


def _random_simplices(rng):
    """Seeded independent ray sets: full-rank 2-D and 3-D ones, 3-D ones
    scaled so that several invariant factors exceed 1, and rank-deficient
    ones whose rays span a sublattice of lower dimension."""
    def independent(d, n, lo, hi, scale=1):
        while True:
            rays = [tuple(scale * rng.randint(lo, hi) for _ in range(n))
                    for _ in range(d)]
            if linalg.rank([list(r) for r in rays]) == d:
                return rays
    out = [[(2, 0, 0), (0, 6, 0), (0, 0, 4)], [(2, 2, 0), (0, 2, 2), (2, 0, 2)],
           [(3, 0, 0), (0, 3, 0), (0, 0, 3)], [(1, 1, 0), (1, -1, 0)],
           [(2, 0, 0), (0, 2, 4)], [(3, 6)], [(0, 2, -2)]]
    for _ in range(60):
        out.append(independent(2, 2, -6, 6))
    for _ in range(60):
        out.append(independent(3, 3, -2, 2))
    for _ in range(30):
        out.append(independent(3, 3, -1, 1, scale=2))
    for _ in range(40):
        out.append(independent(2, 3, -3, 3))
    for _ in range(10):
        out.append(independent(1, rng.choice([2, 3]), -4, 4))
    return out


def test_minimal_group_points_match_a_fraction_reference():
    simplices = _random_simplices(random.Random(61))
    several = deficient = 0
    for rays in simplices:
        got = _group_points_in_span(rays)
        assert sorted(got) == _fraction_minimal_points(rays), rays
        assert len(set(got)) == len(got)
        if len(rays) == len(rays[0]):
            several += sum(x > 1 for x in _invariant_factors(rays)) >= 2
        else:
            deficient += 1
    assert len(simplices) >= 200 and several >= 30 and deficient >= 50


def test_minimal_group_points_refuse_dependent_rays():
    with pytest.raises(AnomalyDetected):
        lattice._minimal_group_points([(1, 2), (2, 4)])


def _enumerate_then_reduce(cone):
    """Reference for a full-dimensional pointed cone: every point of the
    fundamental parallelepiped of each simplex, from one Smith normal form,
    reduced against the others by facet values."""
    candidates = set(cone.rays)
    for rays in lattice._triangulate(cone):
        cols = [list(col) for col in zip(*rays)]
        d = len(rays)
        _, s, w = linalg.smith_normal_form(cols)
        diag = [s[k][k] for k in range(d)]
        big = diag[-1]
        steps = [[w[i][k] * (big // x) for i in range(d)]
                 for k, x in enumerate(diag)]
        for combo in itertools.product(*map(range, diag)):
            num = [sum(c * col[i] for c, col in zip(combo, steps)) % big
                   for i in range(d)]
            scaled = [linalg.dot(row, num) for row in cols]
            assert not any(x % big for x in scaled)
            candidates.add(tuple(x // big for x in scaled))
    candidates.discard((0,) * cone.ambient_dim)
    facets = cone.facet_normals()
    values = {c: tuple(linalg.dot(f, c) for f in facets) for c in candidates}
    basis = []
    for c in sorted(candidates, key=lambda v: sum(values[v])):
        if not any(all(map(operator.le, values[h], values[c])) for h in basis):
            basis.append(c)
    return sorted(basis)


def test_hilbert_basis_matches_enumerate_then_reduce_on_the_ladder():
    # the cone_ladder range: sigma = cone(e1, e2, (a, b, c)) for c up to 43
    # and the planar cone((m, 1), (1, m)) for m up to 22, and their duals
    rng = random.Random(71)
    cones = []
    for c in range(4, 44):
        a, b = rng.randint(1, c - 1), rng.randint(1, c - 1)
        while math.gcd(a, b, c) != 1:
            a, b = rng.randint(1, c - 1), rng.randint(1, c - 1)
        cones.append(RationalCone.from_rays([(1, 0, 0), (0, 1, 0), (a, b, c)]))
    cones += [RationalCone.from_rays([(m, 1), (1, m)]) for m in range(3, 23)]
    for cone in cones:
        for side in (cone, dual_cone(cone)):
            assert hilbert_basis(side) == _enumerate_then_reduce(side), side


def test_hilbert_basis_builds_points_only_for_basis_elements(monkeypatch):
    # enumerating the whole parallelepiped took about 240000 dot calls here:
    # three to build each of its 40000 points and three for its facet values
    dual = dual_cone(RationalCone.from_rays([(1, 0, 0), (0, 1, 0),
                                             (7, 9, 200)]))
    calls = []

    def counted_dot(u, v):
        calls.append(1)
        return linalg.dot(u, v)

    monkeypatch.setattr(lattice, "dot", counted_dot)
    assert len(hilbert_basis(dual)) == 46
    assert len(calls) < 1000


def test_hilbert_basis_of_seeded_3d_duals():
    # dual cones of sigma_rays [(1,0,0),(0,1,0),(a,b,c)], c up to 40:
    # every lattice point of the dual in a box is a nonnegative integer
    # combination of the basis, and no basis element is one of the others
    rng = random.Random(67)
    for c in [40] + [rng.randint(2, 39) for _ in range(5)]:
        a, b = rng.randint(0, c), rng.randint(0, c)
        dual = dual_cone(RationalCone.from_rays([(1, 0, 0), (0, 1, 0),
                                                 (a, b, c)]))
        hb = hilbert_basis(dual)
        facets = dual.facet_normals()
        ell = tuple(sum(f[i] for f in facets) for i in range(3))
        for h in hb:
            assert dual.contains(h)
            others = [g for g in hb if g != h]
            assert linalg.nonneg_int_combination(h, others, ell) is None
        for p in itertools.product(range(5), range(5), range(-4, 5)):
            if any(p) and dual.contains(p):
                assert linalg.nonneg_int_combination(p, hb, ell) is not None


def test_hilbert_basis_of_the_large_baseline_cones():
    # pinned: basis size, both ends and a hash of the whole sorted basis
    planar = hilbert_basis(RationalCone.from_rays([(150, 1), (1, 150)]))
    assert len(planar) == 299
    assert planar[:3] == [(1, 1), (1, 2), (1, 3)]
    assert planar[-3:] == [(148, 1), (149, 1), (150, 1)]
    assert hashlib.sha256(repr(planar).encode()).hexdigest().startswith(
        "4415c25b3165bb6e")
    dual = dual_cone(RationalCone.from_rays([(1, 0, 0), (0, 1, 0),
                                             (7, 9, 200)]))
    spatial = hilbert_basis(dual)
    assert len(spatial) == 46
    assert spatial[:4] == [(0, 0, 1), (0, 1, 0), (0, 23, -1), (0, 45, -2)]
    assert spatial[-3:] == [(113, 1, -4), (143, 0, -5), (200, 0, -7)]
    assert hashlib.sha256(repr(spatial).encode()).hexdigest().startswith(
        "797f270e4936d612")


def test_hilbert_basis_refuses_groups_over_the_bound(monkeypatch):
    # the dual of cone(e1, e2, (7, 9, 200)) is one simplex of order 40000
    dual = dual_cone(RationalCone.from_rays([(1, 0, 0), (0, 1, 0),
                                             (7, 9, 200)]))
    monkeypatch.setattr(lattice, "GROUP_ORDER_CAP", 39999)
    with pytest.raises(MultiplicityTooLarge, match="multiplicity 40000"):
        hilbert_basis(dual)
    monkeypatch.setattr(lattice, "GROUP_ORDER_CAP", 40000)
    assert len(hilbert_basis(dual)) == 46


def _brute_force_hilbert_basis(cone):
    """Reference for a full-dimensional pointed 3-D cone: its lattice points
    up to a degree no basis element reaches, each kept when no kept point
    of lower degree can be split off it."""
    dot = linalg.dot
    facets = cone.facet_normals()
    ell = [sum(f[i] for f in facets) for i in range(3)]  # the degree
    # a basis element is a ray or lies in the half-open parallelepiped of
    # three rays, so its degree is below the three largest ray degrees
    top = sum(sorted(dot(ell, r) for r in cone.rays)[-3:])
    box = [max(-(-top * abs(r[j]) // dot(ell, r)) for r in cone.rays)
           for j in range(3)]
    # the points x with <g, x> + h >= 0 for every row: in the cone, below top
    rows = [(f, 0) for f in facets] + [([-x for x in ell], top - 1)]
    points = []
    for a, b in itertools.product(range(-box[0], box[0] + 1),
                                  range(-box[1], box[1] + 1)):
        lo, hi = -box[2], box[2]
        for g, h in rows:
            rest = g[0] * a + g[1] * b + h  # the row needs g[2] c >= -rest
            if g[2] > 0:
                lo = max(lo, -(rest // g[2]))
            elif g[2] < 0:
                hi = min(hi, rest // -g[2])
            elif rest < 0:
                hi = lo - 1
        points += [(a, b, c) for c in range(lo, hi + 1)
                   if (a, b, c) != (0, 0, 0)]
    values = {x: [dot(f, x) for f in facets] for x in points}
    basis = []
    for x in sorted(points, key=lambda x: sum(values[x])):
        if not any(all(map(operator.ge, values[x], values[h])) for h in basis):
            basis.append(x)
    return sorted(basis)


def test_hilbert_basis_of_non_simplicial_3d_cones():
    # only non-simplicial cones are triangulated over their face lattice
    rng = random.Random(97)
    cones = 0
    while cones < 200:
        rays = [tuple(rng.randint(-2, 2) for _ in range(3))
                for _ in range(rng.randint(4, 6))]
        cone = RationalCone.from_rays(rays, 3)
        if (not cone.is_strongly_convex() or not cone.is_full_dimensional()
                or len(cone.rays) < 4):
            continue
        assert hilbert_basis(cone) == _brute_force_hilbert_basis(cone), cone
        cones += 1


def test_dim_matches_the_rank_of_the_rays(monkeypatch):
    # dim() is ambient_dim minus the dual's lineality, with no rank call;
    # the reference is the rank of the canonical rays
    rng = random.Random(61)
    cones = [RationalCone(n, [(0,) * n]) for n in (2, 3, 4)]
    while len(cones) < 300:
        n = rng.choice([2, 3, 4])
        rays = [tuple(rng.randint(-3, 3) for _ in range(n))
                for _ in range(rng.randint(1, n + 2))]
        if rng.random() < 0.4:  # flatten into the hyperplane x_n = x_1
            rays = [r[:-1] + (r[0],) for r in rays]
        try:
            cone = RationalCone.from_rays(rays, n)
        except EmptyInput:
            continue
        cones.append(cone)
        if cone.rays and (cone.facet_normals() or cone.lineality_basis):
            cones.append(dual_cone(cone))
    expected = [linalg.rank([list(r) for r in c.rays]) if c.rays else 0
                for c in cones]
    monkeypatch.setattr(linalg, "rank", None)
    assert [c.dim() for c in cones] == expected
    kinds = {(c.ambient_dim, c.is_strongly_convex(), d == c.ambient_dim)
             for c, d in zip(cones, expected)}
    assert kinds == set(itertools.product((2, 3, 4), (True, False),
                                          (True, False)))
    assert {0} < set(expected)
