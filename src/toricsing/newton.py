"""Polynomials on a toric variety and their Newton polyhedra.

A polynomial is stored at exponent level: a map from Lambda in N^r \\ {0}
to a nonzero coefficient. Pushing forward along the canonical embedding
collects coefficients at lattice level (lambda = sum Lambda_i b_i), which
is where the Newton polyhedron lives. Only torus_form maps exponents to
lattice points; face functions and the vanishing split restrict its form.

The polyhedron conv(union of lambda + dual cone) is handled through its
homogenization: the cone in R^{n+1} spanned by (lambda, 1) and (v, 0) for
the recession rays v. Faces of the polyhedron correspond to faces of that
cone which touch at least one support point, and every supporting normal
(w, -d) automatically has w in sigma. The homogenized cone has dimension
n + 1, one above the lattice cap, so faces are enumerated at every lattice
dimension a variety can have. Given like=, the same polyhedron over another
support (a family's t = 0 and generic specializations), a polyhedron takes
over its facets, vertices and face weights and enumerates nothing.
"""
from __future__ import annotations

from .errors import (
    AnomalyDetected,
    ConstantTermForbidden,
    EmptyInput,
    EmptySupport,
    FaceMismatch,
    WeightNotInSigma,
)
from .lattice import RationalCone, face_lattice
from .linalg import dot
from .polynomials import _is_zero
from .variety import ToricVariety


def field_zero(sample):
    return sample - sample


def _integral(values, what):
    """The entries as ints, rejecting (not truncating) non-integral ones."""
    out = tuple(int(x) for x in values)
    if out != tuple(values):
        raise EmptyInput(f"{what} {tuple(values)} is not integral")
    return out


class ToricPolynomial:
    """A polynomial function on the variety, with no constant term."""

    __slots__ = ("variety", "terms")

    def __init__(self, variety: ToricVariety, terms):
        cleaned = {}
        r = variety.r
        for lam_exp, coeff in terms.items():
            exp = _integral(lam_exp, "exponent")
            if len(exp) != r:
                raise EmptyInput(
                    f"exponent {exp} has length {len(exp)}, expected {r}"
                )
            if any(e < 0 for e in exp):
                raise EmptyInput(f"negative exponent in {exp}")
            if _is_zero(coeff):
                continue
            if all(e == 0 for e in exp):
                raise ConstantTermForbidden(
                    "polynomials on the variety have no constant term"
                )
            cleaned[exp] = coeff
        object.__setattr__(self, "variety", variety)
        object.__setattr__(self, "terms", dict(cleaned))

    def __setattr__(self, name, value):
        raise AttributeError("ToricPolynomial is immutable")

    def lambda_of(self, exponent):
        """The lattice point sum(Lambda_i * b_i) of an exponent vector."""
        gens = self.variety.generators
        n = self.variety.n
        return tuple(
            sum(exponent[i] * gens[i][j] for i in range(len(gens)))
            for j in range(n)
        )

    def partial(self, i):
        """Formal partial derivative with respect to z_i (1-based)."""
        out = {}
        for exp, coeff in self.terms.items():
            e = exp[i - 1]
            if e == 0:
                continue
            new = list(exp)
            new[i - 1] = e - 1
            key = tuple(new)
            add = coeff * e
            out[key] = out.get(key, field_zero(coeff)) + add
        return {k: v for k, v in out.items() if not _is_zero(v)}

    def __repr__(self):
        return f"ToricPolynomial({len(self.terms)} terms, r={self.variety.r})"


class LaurentForm:
    """The collected lattice-level form of a polynomial on the torus.

    points holds each exponent's lattice point, in the polynomial's term
    order; cancelled holds the points whose coefficients summed to zero.
    """

    __slots__ = ("n", "terms", "points", "cancelled")

    def __init__(self, n, terms, points, cancelled):
        object.__setattr__(self, "n", n)
        object.__setattr__(
            self, "terms",
            {tuple(k): v for k, v in terms.items() if not _is_zero(v)},
        )
        object.__setattr__(self, "points", tuple(points))
        object.__setattr__(self, "cancelled", tuple(sorted(cancelled)))

    def __setattr__(self, name, value):
        raise AttributeError("LaurentForm is immutable")

    def is_zero(self) -> bool:
        return not self.terms

    @property
    def support(self):
        return sorted(self.terms)

    def has_cancellation(self) -> bool:
        return bool(self.cancelled)

    def __repr__(self):
        return f"LaurentForm({len(self.terms)} terms, n={self.n})"


def torus_form(g: ToricPolynomial) -> LaurentForm:
    """Collect coefficients per lattice point lambda.

    Distinct exponents with the same lambda may cancel; cancelled lattice
    points are recorded on the form, and so is each exponent's lambda.
    """
    points = tuple(g.lambda_of(exp) for exp in g.terms)
    collected = {}
    for lam, coeff in zip(points, g.terms.values()):
        if lam in collected:
            collected[lam] = collected[lam] + coeff
        else:
            collected[lam] = coeff
    cancelled = [lam for lam, c in collected.items() if _is_zero(c)]
    return LaurentForm(g.variety.n, collected, points, cancelled)


class PolyFace:
    """A face of the Newton polyhedron.

    vertex_set holds the support points attaining the minimum, not only the
    polyhedron vertices. Faces compare equal by (vertex_set, direction); the
    stored weight is one witness among many.
    """

    __slots__ = (
        "weight",
        "value",
        "vertex_set",
        "recession_rays",
        "noncompact_direction",
        "is_compact",
        "parent",
    )

    def __init__(self, weight, value, vertex_set, recession_rays,
                 noncompact_direction, parent):
        object.__setattr__(self, "weight", tuple(weight))
        object.__setattr__(self, "value", value)
        object.__setattr__(self, "vertex_set", tuple(sorted(vertex_set)))
        object.__setattr__(self, "recession_rays", tuple(recession_rays))
        object.__setattr__(
            self, "noncompact_direction", tuple(sorted(noncompact_direction))
        )
        object.__setattr__(self, "is_compact", not noncompact_direction)
        object.__setattr__(self, "parent", parent)

    def __setattr__(self, name, value):
        raise AttributeError("PolyFace is immutable")

    def key(self):
        return (self.vertex_set, self.noncompact_direction)

    def __eq__(self, other):
        if not isinstance(other, PolyFace):
            return NotImplemented
        return self.key() == other.key()

    def __hash__(self):
        return hash(self.key())

    def __repr__(self):
        kind = "compact" if self.is_compact else f"I={set(self.noncompact_direction)}"
        return f"PolyFace({list(self.vertex_set)}, {kind}, w={self.weight})"


class NewtonPolyhedron:
    """conv(union of (lambda + dual cone)) over the collected support of
    the polynomial it was built from."""

    __slots__ = ("polynomial", "variety", "support", "recession", "form",
                 "_facets", "_vertices", "_faces")

    def __init__(self, polynomial: ToricPolynomial, like=None):
        form = torus_form(polynomial)
        if form.is_zero():
            raise EmptySupport("the collected torus form has no terms")
        variety = polynomial.variety
        object.__setattr__(self, "polynomial", polynomial)
        object.__setattr__(self, "variety", variety)
        object.__setattr__(self, "form", form)
        object.__setattr__(self, "support", tuple(form.support))
        object.__setattr__(self, "recession", variety.dual)
        support = set(self.support)
        if (like is not None and like.variety is variety
                and support.issuperset(like._vertices)
                and all(like.contains_lattice_point(p) for p in support)):
            # the same polyhedron: its facets, vertices and face weights
            # carry over, and only the attaining sets depend on the support
            facets, vertices = like._facets, like._vertices
            weights = [(f.weight, f.value) for f in like._faces]
        else:
            facets, vertices, weights = self._enumerate()
        faces = {}
        for w, d in weights:
            attaining = [s for s in self.support if dot(w, s) == d]
            if attaining:
                face = self._face_from_weight_data(w, d, attaining)
                faces.setdefault(face.key(), face)
        object.__setattr__(self, "_facets", facets)
        object.__setattr__(self, "_vertices", vertices)
        object.__setattr__(self, "_faces", tuple(sorted(
            faces.values(), key=lambda f: (len(f.vertex_set), f.vertex_set,
                                           f.noncompact_direction))))

    def __setattr__(self, name, value):
        raise AttributeError("NewtonPolyhedron is immutable")

    # -- construction ----------------------------------------------------

    def _enumerate(self):
        """(facets, vertices, face weights (w, d)) of the homogenized cone;
        a cone face with normal (w, -d) gives a face if d is attained."""
        gens = [s + (1,) for s in self.support]
        gens += [tuple(v) + (0,) for v in self.recession.rays]
        cone = RationalCone(self.variety.n + 1, gens)
        vertices = tuple(sorted(r[:-1] for r in cone.rays if r[-1] == 1))
        facets = tuple((a[:-1], -a[-1]) for a in cone.facet_normals())
        weights = [(cf.supporting_normal[:-1], -cf.supporting_normal[-1])
                   for cf in face_lattice(cone)]
        return facets, vertices, weights

    def _face_from_weight_data(self, w, d, attaining):
        gens = self.variety.generators
        pairings = [dot(w, b) for b in gens]
        direction = tuple(
            i for i, p in enumerate(pairings, start=1) if p == 0
        )
        if not direction and min(pairings) < 0:
            raise AnomalyDetected("compact face witness must pair strictly "
                                  "positively with all generators")
        recession_rays = tuple(gens[i - 1] for i in direction)
        return PolyFace(
            weight=w,
            value=d,
            vertex_set=attaining,
            recession_rays=recession_rays,
            noncompact_direction=direction,
            parent=self,
        )

    # -- queries -----------------------------------------------------------

    @property
    def vertices(self):
        return self._vertices

    @property
    def faces(self):
        return self._faces

    def face_of_weight(self, w) -> PolyFace:
        """The face where <w, .> attains its minimum over the polyhedron."""
        ww = _integral(w, "weight")
        gens = self.variety.generators
        if any(dot(ww, b) < 0 for b in gens):
            raise WeightNotInSigma(
                f"weight {ww} pairs negatively with a semigroup generator"
            )
        values = [dot(ww, s) for s in self.support]
        d = min(values)
        attaining = [s for s, val in zip(self.support, values) if val == d]
        return self._face_from_weight_data(ww, d, attaining)

    def compact_faces(self):
        return [f for f in self.faces if f.is_compact]

    def contains_lattice_point(self, lam) -> bool:
        """Exact membership of a lattice point in the polyhedron."""
        return all(dot(w, lam) >= d for (w, d) in self._facets)

    def owns(self, face: PolyFace) -> bool:
        values = [dot(face.weight, s) for s in self.support]  # never empty
        d = min(values)
        attaining = tuple(sorted(
            s for s, val in zip(self.support, values) if val == d
        ))
        return d == face.value and attaining == face.vertex_set

    def __repr__(self):
        return (
            f"NewtonPolyhedron(support={list(self.support)}, "
            f"recession={list(self.recession.rays)})"
        )


def newton_polyhedron(g: ToricPolynomial, like=None) -> NewtonPolyhedron:
    """The Newton polyhedron of g. If like is the same polyhedron over the
    same variety (say, with the same support), its face data are reused
    instead of enumerated; g keeps its form and its own attaining sets."""
    return NewtonPolyhedron(g, like)


def face_function(g: ToricPolynomial, face: PolyFace, np=None):
    """The face function of g on a face: its sub-polynomial and torus form.

    The form is the polyhedron's form restricted to the face's vertex set,
    in form order. The sub-polynomial keeps g's terms, in g's order, whose
    lattice point lies on the face, including exponents whose collected
    coefficient cancelled. np is g's own polyhedron; it defaults to the
    face's polyhedron, and g's is built only when neither was built from g.
    """
    np = face.parent if np is None else np
    if np is None or np.polynomial is not g:
        np = newton_polyhedron(g)
    if not np.owns(face):
        raise FaceMismatch("face does not belong to this polynomial")
    form = np.form
    kept, points = {}, []
    for (exp, coeff), lam in zip(g.terms.items(), form.points):
        if dot(face.weight, lam) == face.value and np.contains_lattice_point(lam):
            kept[exp] = coeff
            points.append(lam)
    terms = {lam: c for lam, c in form.terms.items() if lam in face.vertex_set}
    return (ToricPolynomial(g.variety, kept),
            LaurentForm(form.n, terms, points, set(points).difference(terms)))
