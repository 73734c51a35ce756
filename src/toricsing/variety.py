"""The affine toric variety model.

A variety is described by a strongly convex full-dimensional cone sigma in
R^n together with an ordered list of semigroup generators b_1..b_r of the
dual cone's lattice points. The generators index the ambient coordinates
z_1..z_r; their order is significant and preserved verbatim.

Orbits and their closures are handled combinatorially through index sets:
for each face tau of the dual cone, the valid index set is {i : b_i on tau}.
"""
from __future__ import annotations

from .errors import (
    EmptyInput,
    GeneratorsDontGenerate,
    InvalidIndexSet,
    NotMaximalDim,
    NotStronglyConvex,
    ZeroTorusCoordinate,
)
from . import linalg
from .lattice import (RationalCone, check_ambient_dim, dual_cone,
                      face_lattice, hilbert_basis)
from .linalg import dot
from .rationals import GaussianRational


class TorusPoint:
    """A point of the algebraic torus with nonzero Gaussian-rational coords."""

    __slots__ = ("coords",)

    def __init__(self, coords):
        vals = []
        for c in coords:
            if not isinstance(c, GaussianRational):
                c = GaussianRational(c)
            if c.is_zero():
                raise ZeroTorusCoordinate(
                    "torus points have nonzero coordinates")
            vals.append(c)
        if not vals:
            raise EmptyInput("a torus point needs at least one coordinate")
        object.__setattr__(self, "coords", tuple(vals))

    def __setattr__(self, name, value):
        raise AttributeError("TorusPoint is immutable")

    def __len__(self):
        return len(self.coords)

    def __iter__(self):
        return iter(self.coords)

    def __getitem__(self, i):
        return self.coords[i]

    def monomial(self, exponent) -> GaussianRational:
        """Evaluate coords^exponent (integer exponents, negatives allowed)."""
        return linalg._power_product(GaussianRational(1), self.coords,
                                     exponent)

    def __repr__(self):
        return f"TorusPoint({[str(c) for c in self.coords]})"


class ToricVariety:
    """An affine toric variety with an ordered generator system.

    Attributes:
        n: lattice dimension.
        r: embedding dimension (number of generators).
        sigma: the defining cone (strongly convex, full-dimensional).
        dual: its dual cone.
        generators: ordered tuple b_1..b_r of integer vectors.
        hilbert_basis: the Hilbert basis of the dual cone, sorted.
        valid_index_sets: sorted tuple of the index sets {i : b_i on tau},
            1-based, one per face of the dual cone.
        dual_faces: the faces of the dual cone, in face_lattice order.
        warnings: structured warnings attached at build time.
    """

    __slots__ = (
        "n",
        "r",
        "sigma",
        "dual",
        "generators",
        "hilbert_basis",
        "valid_index_sets",
        "dual_faces",
        "warnings",
    )

    def __init__(self, sigma, dual, generators, hilbert_basis,
                 valid_index_sets, dual_faces, warnings):
        object.__setattr__(self, "n", sigma.ambient_dim)
        object.__setattr__(self, "r", len(generators))
        object.__setattr__(self, "sigma", sigma)
        object.__setattr__(self, "dual", dual)
        object.__setattr__(self, "generators", tuple(tuple(g) for g in generators))
        object.__setattr__(self, "hilbert_basis", tuple(hilbert_basis))
        object.__setattr__(self, "valid_index_sets", tuple(valid_index_sets))
        object.__setattr__(self, "dual_faces", tuple(dual_faces))
        object.__setattr__(self, "warnings", tuple(warnings))

    def __setattr__(self, name, value):
        raise AttributeError("ToricVariety is immutable")

    def __repr__(self):
        return (
            f"ToricVariety(n={self.n}, r={self.r}, "
            f"generators={list(self.generators)})"
        )

    def is_valid_index_set(self, index_set) -> bool:
        return tuple(sorted(index_set)) in set(self.valid_index_sets)

    def require_valid_index_set(self, index_set):
        key = tuple(sorted(index_set))
        if key not in set(self.valid_index_sets):
            raise InvalidIndexSet(
                f"{set(index_set) if index_set else set()} does not come from "
                f"a face of the dual cone"
            )
        return key


def build_variety(sigma_rays=None, generators=None,
                  require_saturated=False) -> ToricVariety:
    """Build the variety either from sigma or from dual-cone generators.

    Exactly one of sigma_rays/generators must be given. With sigma_rays the
    generator system is the Hilbert basis of the dual cone in canonical
    order; with generators the given order is kept.

    A generator system that spans the dual cone but misses irreducible
    semigroup elements yields a warning on the variety; pass
    require_saturated=True to make that a GeneratorsDontGenerate error.
    """
    if (sigma_rays is None) == (generators is None):
        raise EmptyInput("provide exactly one of sigma_rays or generators")

    warnings = []
    if sigma_rays is not None:
        rays = [tuple(r) for r in sigma_rays]
        if rays:
            check_ambient_dim(len(rays[0]))
        sigma = RationalCone.from_rays(rays)
        _require_pointed_full_dim(sigma)
        dual = dual_cone(sigma)
        basis = gens = hilbert_basis(dual)
    else:
        gens = [tuple(int(x) for x in g) for g in generators]
        if not gens:
            raise EmptyInput("generator list is empty")
        check_ambient_dim(len(gens[0]))
        dual = RationalCone.from_rays(gens)
        if not dual.is_full_dimensional():
            # sigma = dual of a lower-dimensional cone would not be pointed
            raise NotStronglyConvex(
                "generators span a lower-dimensional cone, so the defining "
                "cone is not strongly convex"
            )
        if not dual.is_strongly_convex():
            raise NotMaximalDim(
                "generators span a non-pointed cone, so the defining cone "
                "is not full-dimensional"
            )
        sigma = dual_cone(dual)
        _require_pointed_full_dim(sigma)
        basis = hilbert_basis(dual)
        missing = _missing_basis_elements(gens, dual, basis)
        if missing:
            message = (
                "generators do not generate the full lattice-point semigroup; "
                f"missing irreducible elements: {sorted(missing)}"
            )
            if require_saturated:
                raise GeneratorsDontGenerate(message)
            warnings.append(message)

    faces = face_lattice(dual)
    # b lies on a face iff it pairs to zero with the supporting normal (the
    # improper face has normal 0, which correctly collects all b_i)
    valid = sorted({tuple(i + 1 for i, b in enumerate(gens)
                          if dot(face.supporting_normal, b) == 0)
                    for face in faces})
    return ToricVariety(
        sigma=sigma,
        dual=dual,
        generators=gens,
        hilbert_basis=basis,
        valid_index_sets=valid,
        dual_faces=faces,
        warnings=warnings,
    )


def _require_pointed_full_dim(sigma: RationalCone):
    if not sigma.is_strongly_convex():
        raise NotStronglyConvex("the defining cone contains a line")
    if not sigma.is_full_dimensional():
        raise NotMaximalDim("the defining cone is not full-dimensional")


def _missing_basis_elements(gens, dual: RationalCone, basis):
    """Hilbert basis elements that are not N-combinations of the generators."""
    facets = dual.facet_normals()
    n = dual.ambient_dim
    ell = tuple(sum(f[i] for f in facets) for i in range(n))
    missing = []
    for h in basis:
        if h in gens:
            continue
        if linalg.nonneg_int_combination(h, gens, ell) is None:
            missing.append(h)
    return missing


def embed(v: ToricVariety, xi: TorusPoint):
    """The canonical embedding: coordinate i is xi^{b_i}."""
    if len(xi) != v.n:
        raise EmptyInput(f"torus point must have {v.n} coordinates")
    return tuple(xi.monomial(b) for b in v.generators)


def embed_restricted(v: ToricVariety, index_set, xi: TorusPoint):
    """Like embed, but coordinates outside the index set are zero."""
    key = set(v.require_valid_index_set(index_set))
    if len(xi) != v.n:
        raise EmptyInput(f"torus point must have {v.n} coordinates")
    out = []
    for i, b in enumerate(v.generators, start=1):
        out.append(xi.monomial(b) if i in key else GaussianRational(0))
    return tuple(out)


def orbit_dimension(v: ToricVariety, index_set) -> int:
    """Dimension of the orbit attached to an index set."""
    key = v.require_valid_index_set(index_set)
    rows = [list(v.generators[i - 1]) for i in key]
    return linalg.rank(rows) if rows else 0


def distinguished_point(v: ToricVariety, face):
    """The 0/1 point of the face of sigma: 1 where b_i is orthogonal to it.

    face is a ConeFace of sigma (or an iterable of its rays).
    """
    rays = face.rays if hasattr(face, "rays") else tuple(face)
    out = []
    for b in v.generators:
        out.append(1 if all(dot(b, u) == 0 for u in rays) else 0)
    return tuple(out)
