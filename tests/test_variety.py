import random

import pytest

from toricsing.errors import (
    GeneratorsDontGenerate,
    InvalidIndexSet,
    NotMaximalDim,
    NotStronglyConvex,
)
from toricsing.lattice import face_lattice
from toricsing.rationals import GaussianRational
from toricsing.variety import (
    TorusPoint,
    build_variety,
    distinguished_point,
    embed,
    embed_restricted,
    orbit_dimension,
)


def staircase_variety(q):
    """Generators (1,0),(1,1),...,(1,q)."""
    return build_variety(generators=[(1, j) for j in range(q + 1)])


def test_build_from_sigma_planar():
    v = build_variety(sigma_rays=[(0, 1), (2, -1)])
    assert v.n == 2
    assert v.r == 3
    assert v.generators == ((1, 0), (1, 1), (1, 2))
    assert not v.warnings


def test_build_staircase_from_generators():
    v = staircase_variety(5)
    assert v.r == 6
    assert v.dual.rays == ((1, 0), (1, 5))
    assert not v.warnings


def test_build_orthant_is_affine_space():
    v = build_variety(sigma_rays=[(1, 0, 0), (0, 1, 0), (0, 0, 1)])
    assert v.generators == ((0, 0, 1), (0, 1, 0), (1, 0, 0))
    assert v.r == 3


def test_generator_order_preserved():
    v = build_variety(generators=[(1, 2), (1, 0), (1, 1)])
    assert v.generators == ((1, 2), (1, 0), (1, 1))


def test_build_rejects_non_pointed():
    with pytest.raises(NotStronglyConvex):
        build_variety(sigma_rays=[(1, 0), (-1, 0), (0, 1)])


def test_build_rejects_lower_dim_sigma():
    with pytest.raises(NotMaximalDim):
        build_variety(sigma_rays=[(1, 0)])


def test_build_rejects_lower_dim_generators():
    with pytest.raises(NotStronglyConvex):
        build_variety(generators=[(1, 1), (2, 2)])


def test_non_generating_system_warns():
    # these four span the dual cone but miss irreducible semigroup elements
    v = build_variety(
        generators=[(0, 1, 2), (2, 1, 0), (1, 0, 3), (1, 1, 1)]
    )
    assert v.warnings
    assert "missing irreducible" in v.warnings[0]
    with pytest.raises(GeneratorsDontGenerate):
        build_variety(
            generators=[(0, 1, 2), (2, 1, 0), (1, 0, 3), (1, 1, 1)],
            require_saturated=True,
        )


def test_valid_index_sets_4d_embedding():
    v = build_variety(
        generators=[(0, 1, 2), (2, 1, 0), (1, 0, 3), (1, 1, 1)]
    )
    expected = {
        (),
        (1, 2, 3, 4),
        (1, 2, 4),
        (1, 3),
        (2, 3),
        (1,),
        (2,),
        (3,),
    }
    assert set(v.valid_index_sets) == expected
    assert (1, 4) not in set(v.valid_index_sets)


def test_full_index_set_always_present():
    for v in (
        build_variety(sigma_rays=[(0, 1), (2, -1)]),
        staircase_variety(4),
    ):
        assert tuple(range(1, v.r + 1)) in set(v.valid_index_sets)
        assert () in set(v.valid_index_sets)


def test_index_set_face_bijection():
    rng = random.Random(3)
    varieties = [
        build_variety(sigma_rays=[(0, 1), (2, -1)]),
        staircase_variety(3),
        build_variety(generators=[(0, 1, 2), (2, 1, 0), (1, 0, 3), (1, 1, 1)]),
    ]
    for v in varieties:
        faces = face_lattice(v.dual)
        assert len(v.valid_index_sets) == len(faces)


def test_embed_staircase():
    v = staircase_variety(5)
    xi = TorusPoint([GaussianRational(2), GaussianRational(3)])
    image = embed(v, xi)
    assert image == tuple(GaussianRational(2 * 3**j) for j in range(6))


def test_embed_all_ones():
    v = build_variety(sigma_rays=[(0, 1), (2, -1)])
    xi = TorusPoint([1, 1])
    assert embed(v, xi) == (GaussianRational(1),) * 3


def test_embed_restricted():
    v = build_variety(sigma_rays=[(0, 1), (2, -1)])
    xi = TorusPoint([2, 3])
    image = embed_restricted(v, (1,), xi)
    assert image == (GaussianRational(2), GaussianRational(0), GaussianRational(0))
    with pytest.raises(InvalidIndexSet):
        embed_restricted(v, (1, 2), xi)


def test_restricted_embedding_monotone():
    v = build_variety(
        generators=[(0, 1, 2), (2, 1, 0), (1, 0, 3), (1, 1, 1)]
    )
    xi = TorusPoint([2, GaussianRational(1, 1), 3])
    small = embed_restricted(v, (1,), xi)
    large = embed_restricted(v, (1, 3), xi)
    forced = tuple(
        large[i] if (i + 1) in (1,) else GaussianRational(0)
        for i in range(v.r)
    )
    assert small == forced


def test_orbit_dimensions():
    v = build_variety(sigma_rays=[(0, 1), (2, -1)])
    assert orbit_dimension(v, ()) == 0
    assert orbit_dimension(v, (1,)) == 1
    assert orbit_dimension(v, (1, 2, 3)) == 2


def test_distinguished_points():
    v = build_variety(
        generators=[(0, 1, 2), (2, 1, 0), (1, 0, 3), (1, 1, 1)]
    )
    faces = face_lattice(v.sigma)
    origin_face = next(f for f in faces if f.dim == 0)
    full_face = next(f for f in faces if f.dim == v.n)
    assert distinguished_point(v, origin_face) == (1, 1, 1, 1)
    assert distinguished_point(v, full_face) == (0, 0, 0, 0)


def test_staircase_embedding_satisfies_determinantal_relations():
    # rows (z_1..z_q), (z_2..z_{q+1}): all 2x2 minors vanish on the image
    q = 5
    v = staircase_variety(q)
    rng = random.Random(11)
    for _ in range(20):
        coords = []
        for _ in range(2):
            while True:
                c = GaussianRational(rng.randint(-4, 4), rng.randint(-4, 4))
                if not c.is_zero():
                    coords.append(c)
                    break
        z = embed(v, TorusPoint(coords))
        for a in range(q):
            for b in range(a + 1, q):
                minor = z[a] * z[b + 1] - z[a + 1] * z[b]
                assert minor.is_zero()
