"""Invariant suites across modules: seeded random inputs, exact assertions."""
import itertools
import random

from toricsing import linalg
from toricsing.checks import (
    FAILS,
    HOLDS,
    UNKNOWN,
    Verdict,
    combine_verdicts,
    essential_noncompact_faces,
)
from toricsing.lattice import RationalCone
from toricsing.rationals import GaussianRational
from toricsing.newton import (
    ToricPolynomial,
    face_function,
    newton_polyhedron,
    torus_form,
)
from toricsing.variety import build_variety

from conftest import gr, in_cone_oracle, random_polynomial, staircase


def variety_pool():
    return [
        build_variety(sigma_rays=[(0, 1), (2, -1)]),
        build_variety(generators=[(1, 0), (0, 1)]),
        build_variety(generators=[(1, 0, 0), (0, 1, 0), (0, 0, 1)]),
        staircase(4),
    ]


def test_hull_consistency_randomized():
    # every support point lies in conv(vertices) + recession cone; the
    # facet test and the simplex oracle must agree
    rng = random.Random(101)
    pool = variety_pool()
    for _ in range(60):
        v = pool[rng.randrange(len(pool))]
        g = random_polynomial(rng, v)
        np_ = newton_polyhedron(g)
        gens = [tuple(p) + (1,) for p in np_.vertices]
        gens += [tuple(r) + (0,) for r in np_.recession.rays]
        for s in np_.support:
            assert np_.contains_lattice_point(s)
            assert in_cone_oracle(tuple(s) + (1,), gens)


def test_face_data_independent_of_witness_weight():
    # querying a face through scaled or re-derived weights gives the same
    # key, the same direction and the same face function
    rng = random.Random(103)
    pool = variety_pool()
    for _ in range(40):
        v = pool[rng.randrange(len(pool))]
        g = random_polynomial(rng, v)
        np_ = newton_polyhedron(g)
        for face in np_.faces:
            if all(x == 0 for x in face.weight):
                continue
            doubled = tuple(2 * x for x in face.weight)
            again = np_.face_of_weight(doubled)
            assert again.key() == face.key()
            assert again.noncompact_direction == face.noncompact_direction
            sub1, _ = face_function(g, face, np=np_)
            sub2, _ = face_function(g, again, np=np_)
            assert sub1.terms == sub2.terms


def test_compact_faces_of_flat_form_appear_in_toric_polyhedron():
    # the Newton polyhedron of the collected form with orthant recession
    # has its compact faces among the toric compact faces
    rng = random.Random(107)
    surface = build_variety(sigma_rays=[(0, 1), (2, -1)])
    plane = build_variety(generators=[(1, 0), (0, 1)])
    for _ in range(40):
        g = random_polynomial(rng, surface)
        form = torus_form(g)
        if any(min(l) < 0 for l in form.terms):
            continue
        flat = ToricPolynomial(plane, dict(form.terms))
        np_flat = newton_polyhedron(flat)
        np_toric = newton_polyhedron(g)
        toric_compact = {f.vertex_set for f in np_toric.compact_faces()}
        for f in np_flat.compact_faces():
            assert f.vertex_set in toric_compact


def test_essential_face_direction_lattice():
    # on every non-compact face, the generators pairing to zero with the
    # face weight are exactly those in the face's recession cone (checked
    # by the simplex oracle), members and non-members alike; essential
    # directions index vanishing varieties
    rng = random.Random(109)
    pool = variety_pool()
    assert any(v.r > v.n for v in pool)
    for _ in range(40):
        v = pool[rng.randrange(len(pool))]
        g = random_polynomial(rng, v)
        np_ = newton_polyhedron(g)
        for face in np_.faces:
            if face.is_compact:
                continue
            rec = [r for r in v.dual.rays
                   if linalg.dot(face.weight, r) == 0]
            paired = {i for i, b in enumerate(v.generators, start=1)
                      if linalg.dot(face.weight, b) == 0}
            in_rec = {i for i, b in enumerate(v.generators, start=1)
                      if rec and in_cone_oracle(b, rec)}
            assert paired == in_rec == set(face.noncompact_direction)
        for ef in essential_noncompact_faces(g, np=np_):
            assert v.is_valid_index_set(ef.direction)


def test_verdict_lattice_monotone():
    # demoting any sub-verdict never improves the combined status
    rng = random.Random(113)
    rank = {FAILS: 0, UNKNOWN: 1, HOLDS: 2}
    for _ in range(200):
        statuses = [
            rng.choice((HOLDS, FAILS, UNKNOWN))
            for _ in range(rng.randint(1, 5))
        ]
        verdicts = [Verdict(s, "ExactSubclass", "synthetic") for s in statuses]
        combined = combine_verdicts(verdicts, "all hold")
        expected = min(statuses, key=lambda s: rank[s])
        assert combined.status == expected
        # demote one verdict and recombine
        idx = rng.randrange(len(statuses))
        demoted = list(statuses)
        if demoted[idx] == HOLDS:
            demoted[idx] = UNKNOWN
        verdicts2 = [Verdict(s, "ExactSubclass", "synthetic") for s in demoted]
        combined2 = combine_verdicts(verdicts2, "all hold")
        assert rank[combined2.status] <= rank[combined.status]


def _pairings(v, w):
    """The weight transported to exponents: (<w, b_1>, ..., <w, b_r>)."""
    return tuple(linalg.dot(w, b) for b in v.generators)


def test_transport_identity_on_goldens(fourfold_poly, staircase_q5):
    v = fourfold_poly.variety
    w = (1, -2, 1)
    assert _pairings(v, w) == (0, 0, 4, 0)
    np_ = newton_polyhedron(fourfold_poly)
    face = np_.face_of_weight(w)
    sub, _ = face_function(fourfold_poly, face, np=np_)
    w_big = _pairings(v, w)
    for exp in sub.terms:
        lam = sub.lambda_of(exp)
        assert linalg.dot(w_big, exp) == linalg.dot(w, lam) == face.value
    assert _pairings(staircase_q5, (5, -1)) == (5, 4, 3, 2, 1, 0)
    assert _pairings(staircase_q5, (0, 0)) == (0, 0, 0, 0, 0, 0)


def test_gradient_decisions_agree_with_elimination_oracle():
    # random weight-homogeneous face forms, decided both by the exact
    # subclass machinery and by Groebner-basis saturation
    from toricsing.solvers import (
        EMPTY,
        SOLVABLE,
        UNKNOWN,
        decide_gradient_system,
        gradient_equations,
    )
    from conftest import sympy_gradient_torus_solvable

    rng = random.Random(211)
    cases = 0
    attempts = 0
    while cases < 40 and attempts < 600:
        attempts += 1
        n = rng.choice([2, 3])
        w = tuple(rng.randint(1, 3) for _ in range(n))
        d = rng.randint(2, 8)
        pts = [
            p for p in itertools.product(range(0, d + 1), repeat=n)
            if linalg.dot(w, p) == d
        ]
        if len(pts) < 2:
            continue
        k = rng.randint(2, min(4, len(pts)))
        supp = rng.sample(pts, k)
        terms = {
            p: GaussianRational(rng.choice([-3, -2, -1, 1, 2, 3]))
            for p in supp
        }
        out = decide_gradient_system(
            terms, n, d, gradient_equations(terms, n, d), budget=60)
        if out.status == UNKNOWN:
            continue
        oracle = sympy_gradient_torus_solvable(terms, n)
        assert (out.status == SOLVABLE) == oracle, (terms, w, d, out.method)
        if out.status == SOLVABLE and out.witness is not None:
            from toricsing.solvers import euler_maps

            eqs = [m for m in euler_maps(terms, n) if m]
            assert out.witness.verify(eqs)
        cases += 1
    assert cases >= 40


def test_dual_description_agrees_with_simplex_up_to_dim4():
    rng = random.Random(223)
    checked = 0
    while checked < 80:
        n = rng.choice([2, 3, 4])
        rays = [
            tuple(rng.randint(-3, 3) for _ in range(n))
            for _ in range(rng.randint(2, n + 2))
        ]
        try:
            cone = RationalCone.from_rays(rays, n)
        except Exception:
            continue
        if not cone.rays:
            continue
        # double dualization is the identity
        from toricsing.lattice import dual_cone

        if cone.is_strongly_convex():
            assert dual_cone(dual_cone(cone)) == cone
        for _ in range(6):
            v = tuple(rng.randint(-4, 4) for _ in range(n))
            assert cone.contains(v) == in_cone_oracle(v, cone.rays)
        checked += 1


def test_cancellation_is_flagged_and_excluded():
    rng = random.Random(127)
    surface = build_variety(sigma_rays=[(0, 1), (2, -1)])
    # z2^2 and z1 z3 share the lattice point (2,2)
    g = ToricPolynomial(
        surface,
        {(0, 2, 0): gr(2), (1, 0, 1): gr(-2), (4, 0, 0): gr(1)},
    )
    form = torus_form(g)
    assert form.cancelled == ((2, 2),)
    np_ = newton_polyhedron(g)
    assert (2, 2) not in np_.support
