"""Exact rational cone geometry.

Cones are given by primitive integer ray generators. A cone is dualized
once when it is built, by an integer double description that carries each
ray's set of tight inequalities, seeded from the elimination that finds the
generators' rank; generators of lower rank are first moved into their
saturated row space. Its own
canonical form keeps the generators whose incidence sets with the dual's
facet normals are maximal. The cone keeps both canonical descriptions, so
its dual cone is built without another pass. Face lattices are built level
by level: the facets of a face are the maximal intersections of it with the
facets of the cone. A Hilbert basis comes from a triangulation over the
face lattice: one Smith normal form per simplex lists its parallelepiped
group, at most GROUP_ORDER_CAP elements, only componentwise-minimal
numerators become lattice points, and facet values reduce their union with
the rays. A variety's lattice dimension is capped at AMBIENT_DIM_CAP = 4; a
cone may have ambient dimension one more, since the homogenized Newton cone
of a polynomial lives in R^(n+1). Anything larger raises.
"""
from __future__ import annotations

import itertools
import math
import operator
from fractions import Fraction

from .errors import (
    AmbientDimTooLarge,
    AnomalyDetected,
    EmptyInput,
    MultiplicityTooLarge,
    NotStronglyConvex,
    UnboundedBelow,
)
from . import linalg
from .linalg import dot, primitive, is_zero_vec

AMBIENT_DIM_CAP = 4
# a Hilbert basis lists each simplex's parallelepiped group, |det| elements;
# at order 10^6 a 3-D basis takes about 1.3 s and 250 MB, at 4.5·10^6 1.1 GB
GROUP_ORDER_CAP = 10**6


def check_ambient_dim(n: int, cap: int = AMBIENT_DIM_CAP):
    if n < 1:
        raise EmptyInput("ambient dimension must be at least 1")
    if n > cap:
        raise AmbientDimTooLarge(
            f"ambient dimension {n} exceeds the supported cap {cap}"
        )


class RationalVector:
    """A vector with arbitrary-precision rational coordinates."""

    __slots__ = ("coords",)

    def __init__(self, coords):
        object.__setattr__(
            self, "coords", tuple(Fraction(x) for x in coords)
        )
        if not self.coords:
            raise EmptyInput("a rational vector needs at least one coordinate")

    def __setattr__(self, name, value):
        raise AttributeError("RationalVector is immutable")

    def __iter__(self):
        return iter(self.coords)

    def __len__(self):
        return len(self.coords)

    def __getitem__(self, i):
        return self.coords[i]

    def __eq__(self, other):
        if isinstance(other, RationalVector):
            return self.coords == other.coords
        if isinstance(other, tuple):
            return self.coords == tuple(Fraction(x) for x in other)
        return NotImplemented

    def __hash__(self):
        return hash(self.coords)

    def __repr__(self):
        return f"RationalVector({list(self.coords)!r})"


def _coords(v):
    """Any sequence of ints or Fractions, or a RationalVector; an all-int
    one stays int, so its pairings with integer normals do too."""
    v = tuple(v)
    return v if all(type(x) is int for x in v) else tuple(map(Fraction, v))


# ---------------------------------------------------------------------------
# double description
# ---------------------------------------------------------------------------

def _pointed_extreme_rays(ineqs, dim):
    """Extreme rays of {y in R^dim : <a, y> >= 0 for all a in ineqs}, as
    primitive integer rays, or None when the inequalities have rank below
    dim (the solution cone is then not pointed).

    Each ray carries its tight set: the bits of the inequalities processed
    so far that vanish on it, less those that cut nothing off (the rest
    still define the cone). A ray made from p and q on the k-th inequality
    is tight exactly on tight(p) & tight(q) plus k: both p and q pair
    nonnegatively with every earlier inequality, and with positive and
    negative values with the k-th (Fukuda–Prodon, 1996).
    """
    # eliminating [A^T | I] turns the columns of the first dim independent
    # inequalities into c·I, so the tail e_j of row j pairs to c·delta_{kj}
    # with them: sign(c)·e_j is the seed ray tight on all of them but the j-th
    m = len(ineqs)
    aug = [[a[i] for a in ineqs] + [int(i == j) for j in range(dim)]
           for i in range(dim)]
    pivots = linalg._row_reduce(aug, m)
    if len(pivots) < dim:
        return None
    order = pivots + [k for k in range(m) if k not in pivots]
    c = aug[0][pivots[0]]
    rays = {primitive([x if c > 0 else -x for x in row[m:]]):
            ((1 << dim) - 1) ^ (1 << j) for j, row in enumerate(aug)}

    for k in range(dim, m):
        a, bit = ineqs[order[k]], 1 << k
        values = {r: dot(a, r) for r in rays}
        neg = [r for r, x in values.items() if x < 0]
        if not neg:
            continue
        pos = [r for r, x in values.items() if x > 0]
        new_rays = {r: t | bit for r, t in rays.items() if values[r] == 0}
        for p, q in itertools.product(pos, neg):
            common = rays[p] & rays[q]
            # p, q span a 2-face iff no other ray is tight wherever both are
            if any(t & common == common and r is not p and r is not q
                   for r, t in rays.items()):
                continue
            w = [values[p] * y - values[q] * x for x, y in zip(p, q)]
            new_rays[primitive(w)] = common | bit
        rays = {r: rays[r] for r in pos} | new_rays
    return sorted(rays)


def polar_description(generators, n):
    """Dual description of {v : <g, v> >= 0 for all g in generators}.

    Returns (lineality_basis, pointed_rays), both lists of primitive integer
    vectors. The pointed rays live in the orthogonal complement of the
    lineality space, which makes the pair canonical. Generators of full
    rank give a pointed cone, dualized directly; otherwise the dual is
    found in the saturated row space of the generators and carried back.
    """
    gens = [tuple(int(x) for x in g) for g in generators if not is_zero_vec(g)]
    if not gens:
        basis = [tuple(1 if j == i else 0 for j in range(n)) for i in range(n)]
        return basis, []
    rays = _pointed_extreme_rays(gens, n)
    if rays is not None:
        return [], rays
    basis, _, kernel = linalg.saturation_basis(gens)
    # inequalities expressed in the row-space basis, where they have full rank
    reduced = [tuple(dot(a, b) for b in basis) for a in gens]
    rays = {primitive(tuple(dot(y, col) for col in zip(*basis)))
            for y in _pointed_extreme_rays(reduced, len(basis))}
    return _canonical_lattice_basis(kernel), sorted(rays)


def _canonical_lattice_basis(vectors):
    """Hermite-style canonical basis of the lattice spanned by vectors."""
    mat = [list(v) for v in vectors]  # row echelon: Hermite form, row style
    if not mat:
        return []
    n = len(mat[0])
    r = 0
    for c in range(n):
        piv = next((i for i in range(r, len(mat)) if mat[i][c] != 0), None)
        if piv is None:
            continue
        mat[r], mat[piv] = mat[piv], mat[r]
        # gcd out the column below the pivot
        done = False
        while not done:
            done = True
            for i in range(r + 1, len(mat)):
                if mat[i][c] != 0:
                    q = mat[i][c] // mat[r][c]
                    mat[i] = [a - q * b for a, b in zip(mat[i], mat[r])]
                    if mat[i][c] != 0:
                        mat[r], mat[i] = mat[i], mat[r]
                        done = False
        if mat[r][c] < 0:
            mat[r] = [-x for x in mat[r]]
        for i in range(r):
            q = mat[i][c] // mat[r][c]
            if q:
                mat[i] = [a - q * b for a, b in zip(mat[i], mat[r])]
        r += 1
    return [tuple(row) for row in mat[:r] if not is_zero_vec(row)]


# ---------------------------------------------------------------------------
# cones
# ---------------------------------------------------------------------------

def _generators(lineality, rays):
    """The pointed rays plus each lineality vector in both signs."""
    return tuple(rays) + tuple(l for v in lineality for l in (v, tuple(-x for x in v)))


def _extreme_description(gens, dual):
    """(lineality basis, pointed rays) of the cone spanned by the primitive
    vectors gens, from its dual description, canonical as polar_description
    makes them.

    The incidence set I(g) holds the facet normals vanishing on g. The
    lineality space L is spanned by the generators with every facet in
    I(g), so its lattice is saturation_basis of those. A generator g
    outside L spans a ray modulo L iff I(g) is maximal among the incidence
    sets of the generators outside L. Proof: the smallest face F(g)
    containing g is the intersection of the facets in I(g), and every face
    is the intersection of the facets containing it, so I(g) ⊇ I(h) iff
    F(g) ⊆ F(h). The rays modulo L are the faces minimal among those other
    than L, and each is F(h) for a generator h in it outside L. If F(g) is
    a ray and I(h) ⊇ I(g) with h outside L, then L ≠ F(h) ⊆ F(g) forces
    F(h) = F(g); if F(g) is not a ray, it contains one, F(h), and
    I(h) ⊋ I(g). Generators with one incidence set lie on one ray; one is
    kept, projected onto L^⊥ (det(BB^T)·g - B^T adj(BB^T) B g for the
    basis rows B) and made primitive.
    """
    normals = dual[1]
    everything = (1 << len(normals)) - 1
    incidence, inside = {}, []
    for g in gens:
        inc = sum(1 << i for i, d in enumerate(normals) if dot(d, g) == 0)
        if inc == everything:
            inside.append(g)
        else:
            incidence.setdefault(inc, g)
    lineality = (_canonical_lattice_basis(linalg.saturation_basis(inside)[0])
                 if inside else [])
    rays = [g for inc, g in incidence.items()
            if not any(other & inc == inc != other for other in incidence)]
    if lineality:
        det, adj = linalg.adjugate(
            [[dot(u, v) for v in lineality] for u in lineality])

        def project(g):
            c = [dot(row, [dot(b, g) for b in lineality]) for row in adj]
            return primitive(tuple(det * x - dot(c, col)
                                   for x, col in zip(g, zip(*lineality))))
        rays = map(project, rays)
    return lineality, sorted(rays)


class RationalCone:
    """A rational polyhedral cone given by primitive integer generators.

    Construction canonicalizes with one dualization: generators are replaced
    by the extreme rays of the cone they span, found by filtering them
    against the dual's facet normals (plus a canonical basis of the
    lineality space, in both signs, when the cone is not pointed),
    primitivized and sorted. Two cones are equal exactly when their
    canonical data coincide. The cone keeps both canonical descriptions,
    (lineality basis, pointed rays) of itself and of its dual, so its dual
    needs no further dualization.
    """

    __slots__ = ("ambient_dim", "rays", "_own", "_dual")

    def __init__(self, ambient_dim, rays):
        # one above the lattice cap: room for the homogenized Newton cone
        check_ambient_dim(ambient_dim, AMBIENT_DIM_CAP + 1)
        cleaned = []
        for r in rays:
            if len(r) != ambient_dim:
                raise EmptyInput(
                    f"ray {r} has length {len(r)}, expected {ambient_dim}"
                )
            p = primitive(r)
            if not is_zero_vec(p):
                cleaned.append(p)
        dual = polar_description(cleaned, ambient_dim)
        own = _extreme_description(cleaned, dual)
        self._describe(ambient_dim, own, dual)

    def _describe(self, ambient_dim, own, dual):
        object.__setattr__(self, "ambient_dim", ambient_dim)
        object.__setattr__(self, "_own", (tuple(own[0]), tuple(own[1])))
        object.__setattr__(self, "_dual", (tuple(dual[0]), tuple(dual[1])))
        object.__setattr__(self, "rays", tuple(sorted(_generators(*own))))

    def __setattr__(self, name, value):
        raise AttributeError("RationalCone is immutable")

    @staticmethod
    def from_rays(rays, ambient_dim=None):
        rays = list(rays)
        if ambient_dim is None:
            if not rays:
                raise EmptyInput("cannot infer ambient dimension from no rays")
            ambient_dim = len(rays[0])
        return RationalCone(ambient_dim, rays)

    # -- structure -----------------------------------------------------

    @property
    def lineality_basis(self):
        return self._own[0]

    def is_strongly_convex(self) -> bool:
        return not self._own[0]

    def dim(self) -> int:
        # the dual's lineality space is the orthogonal complement of the span
        return self.ambient_dim - len(self._dual[0])

    def is_full_dimensional(self) -> bool:
        return self.dim() == self.ambient_dim

    def dual_generators(self):
        """Generators of the dual cone (facet normals plus dual lineality)."""
        return _generators(*self._dual)

    def facet_normals(self):
        """The pointed part of the dual description (no lineality pairs)."""
        return self._dual[1]

    # -- predicates ------------------------------------------------------

    def contains(self, v) -> bool:
        vv = _coords(v)
        if len(vv) != self.ambient_dim:
            raise EmptyInput("vector length does not match ambient dimension")
        return all(dot(d, vv) >= 0 for d in self.dual_generators())

    # -- dunder ------------------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, RationalCone):
            return NotImplemented
        return self.ambient_dim == other.ambient_dim and self.rays == other.rays

    def __hash__(self):
        return hash((self.ambient_dim, self.rays))

    def __repr__(self):
        return f"RationalCone(dim={self.ambient_dim}, rays={list(self.rays)})"


class ConeFace:
    """A face of a strongly convex cone, with a witnessing normal."""

    __slots__ = ("parent", "rays", "dim", "supporting_normal")

    def __init__(self, parent, rays, dim, supporting_normal):
        object.__setattr__(self, "parent", parent)
        object.__setattr__(self, "rays", tuple(sorted(rays)))
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "supporting_normal", tuple(supporting_normal))

    def __setattr__(self, name, value):
        raise AttributeError("ConeFace is immutable")

    def __eq__(self, other):
        if not isinstance(other, ConeFace):
            return NotImplemented
        return self.parent == other.parent and self.rays == other.rays

    def __hash__(self):
        return hash((self.parent, self.rays))

    def __repr__(self):
        return f"ConeFace(dim={self.dim}, rays={list(self.rays)})"


# ---------------------------------------------------------------------------
# public operations
# ---------------------------------------------------------------------------

def dual_cone(cone: RationalCone) -> RationalCone:
    """The cone of vectors pairing nonnegatively with every cone element.

    Both canonical descriptions are already known, so they swap roles.
    """
    if not cone.rays:
        raise EmptyInput("dual_cone needs at least one generating ray")
    dual = object.__new__(RationalCone)
    dual._describe(cone.ambient_dim, cone._dual, cone._own)
    return dual


def face_lattice(cone: RationalCone):
    """All faces of a strongly convex cone, from {0} up to the cone itself.

    Faces are ray sets, found level by level from the cone down
    (Kaibel–Pfetsch, 2002): every face of a face F is F ∩ B for facet ray
    sets B, so the facets of F are the maximal sets among the F ∩ B with
    B not containing F, one dimension below F.
    """
    if not cone.is_strongly_convex():
        raise NotStronglyConvex("face lattice requires a pointed cone")
    rays, normals = cone.rays, cone.facet_normals()
    boundary = [sum(1 << i for i, r in enumerate(rays) if dot(d, r) == 0)
                for d in normals]
    faces, level, dim = [], {(1 << len(rays)) - 1}, cone.dim()
    while level:
        for f in level:
            active = [d for d, b in zip(normals, boundary) if b & f == f]
            faces.append(ConeFace(
                cone, [r for i, r in enumerate(rays) if f >> i & 1], dim,
                primitive([sum(d[i] for d in active)
                           for i in range(cone.ambient_dim)])))
        cuts = [{f & b for b in boundary if f & b != f} for f in level]
        level = {c for below in cuts for c in below
                 if not any(c & e == c != e for e in below)}
        dim -= 1
    faces.sort(key=lambda f: (f.dim, f.rays))
    return faces


def minimize(points, recession: RationalCone, w):
    """Minimize <w, x> over conv(points) + recession.

    Returns (minimum value, tuple of attaining points). Raises UnboundedBelow
    when w pairs negatively with some recession ray.
    """
    ww = tuple(Fraction(x) for x in w)
    for r in recession.rays:
        if dot(ww, r) < 0:
            raise UnboundedBelow(
                f"weight {tuple(ww)} pairs negatively with recession ray {r}"
            )
    pts = [tuple(p) for p in points]
    if not pts:
        raise EmptyInput("minimize needs at least one point")
    values = [dot(ww, p) for p in pts]
    d = min(values)
    argmin = tuple(sorted(p for p, val in zip(pts, values) if val == d))
    return d, argmin


# ---------------------------------------------------------------------------
# Hilbert bases
# ---------------------------------------------------------------------------

def hilbert_basis(cone: RationalCone):
    """The minimal generating set of cone ∩ Z^n as a semigroup.

    The cone must be strongly convex. Lower-dimensional cones are reduced to
    full-dimensional ones inside the saturation of their span.
    """
    if not cone.is_strongly_convex():
        raise NotStronglyConvex("Hilbert basis requires a pointed cone")
    if not cone.rays:
        return []
    d, n = cone.dim(), cone.ambient_dim
    if d < n:
        basis, _, _ = linalg.saturation_basis([list(r) for r in cone.rays])
        reduced_rays = []
        for r in cone.rays:
            c = linalg.coordinates_in_basis(r, basis)
            if c is None:
                raise AnomalyDetected("ray not in the saturated span")
            reduced_rays.append(c)
        return sorted(
            tuple(sum(c[j] * basis[j][i] for j in range(d)) for i in range(n))
            for c in hilbert_basis(RationalCone(d, reduced_rays)))

    # every basis element lies in some simplex and is irreducible there
    candidates = set(cone.rays)
    for simplex in _triangulate(cone):
        candidates.update(_minimal_group_points(simplex))

    # c - h lies in the cone iff no facet value of h exceeds that of c, and
    # the facet values of a point determine it
    facets = cone.facet_normals()
    values = {tuple(dot(f, c) for f in facets): c for c in candidates}
    return sorted(values[v] for v in _minimal(values))


def _minimal(vectors):
    """The componentwise-minimal ones among distinct vectors, in order of
    sum: one of least sum left is minimal, and it sieves out all above it."""
    left, kept = sorted(vectors, key=sum), []
    while left:
        kept.append(left[0])
        left = [v for v in left if not all(map(operator.le, kept[-1], v))]
    return kept


def _triangulate(cone: RationalCone):
    """Split a pointed cone into simplicial subcones (lists of rays): each
    face is coned from its first ray over its facets that avoid that ray,
    the faces of the cone one dimension down that it contains."""
    d = cone.dim()
    if len(cone.rays) == d:
        return [list(cone.rays)]
    faces = face_lattice(cone)

    def split(rays, d):
        if len(rays) == d:
            return [list(rays)]
        first = rays[0]
        return [s + [first]
                for f in faces
                if f.dim == d - 1 and first not in f.rays
                and set(f.rays) <= set(rays)
                for s in split(f.rays, d - 1)]

    return split(cone.rays, d)


def _minimal_group_points(simplex_rays):
    """The Hilbert basis elements of cone(simplex_rays) ∩ Z^d other than the
    rays, for d independent rays v_i in R^d.

    With D the largest invariant factor of V (the rays as columns), each g
    in Z^d / V Z^d has one lattice point p(g) = sum num(g)_i v_i / D in the
    half-open parallelepiped {sum t_i v_i : 0 <= t_i < 1}, num(g) in
    [0, D)^d, and g -> num(g) is injective. Every cone lattice point is a
    p(g) plus rays, and no ray splits off p(h) (that leaves a negative ray
    coordinate), so only the p(h), h != 0, can join the rays. If g != 0, h
    and num(g) <= num(h) componentwise, p(h) - p(g) =
    sum (num(h)_i - num(g)_i) / D * v_i is a nonzero cone lattice point, so
    p(h) splits. Conversely, if p(h) = x + y with x, y nonzero cone lattice
    points, their ray coordinates are nonnegative and add up to num(h) / D,
    so x = p(g) with g != 0, h and num(g) <= num(h). So p(h) is irreducible
    iff num(h) is minimal among the nonzero numerators: only those are built.
    """
    d = len(simplex_rays)
    cols = [list(col) for col in zip(*simplex_rays)]  # V with rays as columns
    # U V W = S: the points U^{-1} c, 0 <= c_k < s_k, represent the group,
    # with ray coordinates t = W S^{-1} c, so num = W (D/s_k) c mod D
    _, s, w = linalg.smith_normal_form(cols)
    diag = [s[k][k] for k in range(d)]
    if any(x == 0 for x in diag):
        raise AnomalyDetected("simplex rays are linearly dependent")
    if math.prod(diag) > GROUP_ORDER_CAP:
        raise MultiplicityTooLarge(
            f"a simplex of multiplicity {math.prod(diag)} exceeds the "
            f"Hilbert-basis bound {GROUP_ORDER_CAP}")
    big = diag[-1]
    coord = [[0] for _ in range(d)]  # coordinate i of every numerator
    for k, x in enumerate(diag):
        coord = [[(a + c * w[i][k] * (big // x)) % big
                  for a in col for c in range(x)]
                 for i, col in enumerate(coord)]
    nums = list(zip(*coord))  # nums[0] is the numerator of 0
    scaled = [[dot(row, num) for row in cols] for num in _minimal(nums[1:])]
    if any(x % big for p in scaled for x in p):
        raise AnomalyDetected("parallelepiped point is not integral")
    return [tuple(x // big for x in p) for p in scaled]
