"""Singularity checks: non-degeneracy, essential faces, local tameness.

Every check returns a three-valued Verdict. Fails verdicts carry an exact
witness (a certified torus point, possibly with coordinates in an explicit
algebraic extension) together with the violated equations, so they can be
replayed by substitution. Holds verdicts carry the criterion that fired.
"""
from __future__ import annotations

from .errors import AnomalyDetected, FaceNotEssential, InvalidIndexSet
from . import linalg, solvers
from .linalg import dot
from .newton import (
    LaurentForm,
    ToricPolynomial,
    face_function,
    newton_polyhedron,
    torus_form,
)
from .variety import build_variety

HOLDS = "holds"
FAILS = "fails"
UNKNOWN = "unknown"

METHOD_EXACT = "ExactSubclass"
METHOD_SYMBOLIC = "SymbolicCriterion"
METHOD_SEARCH = "RandomSearchCertified"
METHOD_CAPPED = "Capped"

_SOLVER_METHODS = {
    "monomial-face": METHOD_EXACT,
    "collinear-exact": METHOD_EXACT,
    "planar-trinomial": METHOD_EXACT,
    "planar-quadrinomial": METHOD_EXACT,
    "random-search": METHOD_SEARCH,
    "capped": METHOD_CAPPED,
    "identically-zero": METHOD_SYMBOLIC,
    "monomial-partial": METHOD_SYMBOLIC,
    "binomial-system": METHOD_SYMBOLIC,
    "curve-substitution": METHOD_SYMBOLIC,
}

DEFAULT_SEED = 1
DEFAULT_BUDGET = 400


class CertifiedWitness:
    """A solver witness bundled with the equations it violates."""

    def __init__(self, names, solver_witness, equations, context=""):
        self.names = tuple(names)
        self.point = _renamed(solver_witness, self.names)
        self.equations = [dict(e) for e in equations]
        self.context = context

    @property
    def kind(self):
        return self.point.kind

    def replay(self) -> bool:
        return self.point.verify(self.equations)

    def __repr__(self):
        return f"CertifiedWitness({self.point!r})"


def _require_replay(witness: CertifiedWitness):
    """Replay a witness as it is built; a failure is an arithmetic fault."""
    if not witness.replay():
        raise AnomalyDetected(
            f"witness failed replay at construction ({witness.context})")


def _renamed(point, names):
    """Relabel witness coordinates with the caller's variable names."""
    if isinstance(point, solvers.PointWitness):
        return solvers.PointWitness(names, point.values)
    if isinstance(point, solvers.AlgebraicWitness):
        return solvers.AlgebraicWitness(names, point.values, point.modulus)
    return point


class Verdict:
    """Three-valued outcome with evidence and optional witness."""

    __slots__ = ("status", "method", "evidence", "witness", "trace")

    def __init__(self, status, method, evidence, witness=None, trace=None):
        object.__setattr__(self, "status", status)
        object.__setattr__(self, "method", method)
        object.__setattr__(self, "evidence", evidence)
        object.__setattr__(self, "witness", witness)
        object.__setattr__(self, "trace", dict(trace or {}))

    def __setattr__(self, name, value):
        raise AttributeError("Verdict is immutable")

    @staticmethod
    def holds(method, evidence, trace=None):
        return Verdict(HOLDS, method, evidence, trace=trace)

    @staticmethod
    def fails(method, evidence, witness, trace=None):
        return Verdict(FAILS, method, evidence, witness=witness, trace=trace)

    @staticmethod
    def unknown(method, evidence, trace=None):
        return Verdict(UNKNOWN, method, evidence, trace=trace)

    def __repr__(self):
        return f"Verdict({self.status}, {self.method})"


def combine_verdicts(verdicts, holds_evidence):
    """Monotone lattice combination: Fails wins, then Unknown, then Holds."""
    verdicts = list(verdicts)
    for v in verdicts:
        if v.status == FAILS:
            return v
    for v in verdicts:
        if v.status == UNKNOWN:
            return Verdict.unknown(v.method, v.evidence, trace=v.trace)
    methods = {v.method for v in verdicts}
    method = METHOD_EXACT if methods <= {METHOD_EXACT} else METHOD_SYMBOLIC
    if not verdicts:
        method = METHOD_EXACT
    return Verdict.holds(method, holds_evidence)


# ---------------------------------------------------------------------------
# restrictions and vanishing varieties
# ---------------------------------------------------------------------------

def restrict(g: ToricPolynomial, index_set) -> ToricPolynomial:
    """Keep exactly the terms using only coordinates from the index set."""
    key = g.variety.require_valid_index_set(index_set)
    allowed = set(key)
    kept = {
        exp: coeff
        for exp, coeff in g.terms.items()
        if all(e == 0 or (i + 1) in allowed for i, e in enumerate(exp))
    }
    return ToricPolynomial(g.variety, kept)


def vanishing_split(g: ToricPolynomial, np=None):
    """Partition the valid index sets into (non-vanishing, vanishing).

    I is vanishing when g restricted to its orbit closure collects to zero.
    Let tau be the face of sigma^dual with I = {i : b_i in tau}, and
    lambda = sum Lambda_i b_i. If Lambda is supported on I, lambda lies in
    the cone tau. If lambda lies in tau = sigma^dual ∩ w^perp with w in
    sigma, then sum Lambda_i <w, b_i> = 0 with every <w, b_i> >= 0 (each
    b_i lies in sigma^dual), so Lambda_i > 0 only where b_i lies in tau.
    So the exponents over a lattice point are all supported on I or none
    are, and I is vanishing exactly when no non-cancelled lattice point of
    g's form has an exponent supported on I. Pass g's polyhedron as np to
    read its form instead of collecting g again.
    """
    form = np.form if np is not None and np.polynomial is g else torus_form(g)
    supports = {
        frozenset(i for i, e in enumerate(exp, start=1) if e)
        for exp, lam in zip(g.terms, form.points) if lam in form.terms
    }
    nonvanishing = []
    vanishing = []
    for index_set in g.variety.valid_index_sets:
        if any(s.issubset(index_set) for s in supports):
            nonvanishing.append(index_set)
        else:
            vanishing.append(index_set)
    return nonvanishing, vanishing


# ---------------------------------------------------------------------------
# essential non-compact faces
# ---------------------------------------------------------------------------

class EssentialFace:
    """A non-compact face whose direction indexes a vanishing variety,
    with its local tameness verdict once that has been checked."""

    __slots__ = ("face", "direction", "tame")

    def __init__(self, face, direction, tame=None):
        object.__setattr__(self, "face", face)
        object.__setattr__(self, "direction", tuple(sorted(direction)))
        object.__setattr__(self, "tame", tame)

    def __setattr__(self, name, value):
        raise AttributeError("EssentialFace is immutable")

    @property
    def tameness_radius(self):
        """"infinite" when tameness holds (it then holds for every nonzero
        frozen value), "unknown" otherwise, None before any check."""
        if self.tame is None:
            return None
        return "infinite" if self.tame.status == HOLDS else "unknown"

    def key(self):
        return self.face.key()

    def __repr__(self):
        return f"EssentialFace(I={set(self.direction)}, {self.face!r})"


def essential_noncompact_faces(g: ToricPolynomial, np=None, split=None):
    """All essential non-compact faces of the Newton polyhedron.

    A non-compact face is essential when its direction indexes a vanishing
    orbit closure. Every b_i is checked once to lie in sigma^dual, the
    premise of the per-face half-line check (_verify_halfline_condition).
    """
    if np is None:
        np = newton_polyhedron(g)
    if split is None:
        split = vanishing_split(g, np=np)
    vanishing = {tuple(s) for s in split[1]}
    v = g.variety
    if not all(v.dual.contains(b) for b in v.generators):
        raise AnomalyDetected("a generator does not lie in the dual cone")
    out = []
    for face in np.faces:
        if face.is_compact:
            continue
        direction = face.noncompact_direction
        if not v.is_valid_index_set(direction):
            raise AnomalyDetected(
                f"face direction {set(direction)} is not a valid index set"
            )
        _verify_halfline_condition(v, face)
        if direction in vanishing:
            out.append(EssentialFace(face, direction))
    out.sort(key=lambda ef: ef.key())
    return out


def _verify_halfline_condition(v, face):
    """Check the half-line condition of a face with weight w by pairings.

    For w in sigma and b_i in sigma^dual (the caller checks the b_i), b_i
    lies on the face sigma^dual ∩ w^perp of the recession cone exactly
    when <w, b_i> = 0 (Fulton, Introduction to Toric Varieties, §1.2).
    """
    w = face.weight
    if any(dot(w, r) < 0 for r in v.dual.rays):
        raise AnomalyDetected(f"face weight {tuple(w)} is not in sigma")
    on_face = tuple(i for i, b in enumerate(v.generators, start=1)
                    if dot(w, b) == 0)
    if on_face != face.noncompact_direction:
        raise AnomalyDetected(
            f"generators {set(on_face)} pair to zero with the face weight "
            f"but the face direction is {set(face.noncompact_direction)}"
        )


# ---------------------------------------------------------------------------
# non-degeneracy
# ---------------------------------------------------------------------------

class NondegeneracyResult:
    """Per-face verdicts plus the combined one."""

    def __init__(self, overall, face_verdicts, polyhedron, warnings=()):
        self.overall = overall
        self.face_verdicts = dict(face_verdicts)
        self.polyhedron = polyhedron
        self.warnings = tuple(warnings)


def check_nondegeneracy(g: ToricPolynomial, seed=DEFAULT_SEED,
                        budget=DEFAULT_BUDGET, np=None) -> NondegeneracyResult:
    """Decide whether every compact face function is regular on the torus."""
    if np is None:
        np = newton_polyhedron(g)
    warnings = []
    form = np.form
    if form.has_cancellation():
        warnings.append(
            "coefficient cancellation at lattice points "
            f"{list(form.cancelled)}: excluded from the support"
        )
    face_verdicts = {}
    for face in np.compact_faces():
        _, face_form = face_function(g, face, np=np)
        verdict = _face_nondegeneracy_verdict(
            face_form, face, g.variety.n, seed, budget
        )
        face_verdicts[face.key()] = verdict
    overall = combine_verdicts(
        face_verdicts.values(),
        holds_evidence="every compact face function is regular on the torus",
    )
    return NondegeneracyResult(overall, face_verdicts, np, warnings)


def _face_nondegeneracy_verdict(face_form: LaurentForm, face, n,
                                seed, budget) -> Verdict:
    equations = solvers.gradient_equations(face_form.terms, n, face.value)
    outcome = solvers.decide_gradient_system(
        face_form.terms, n, face.value, equations,
        seed=seed, face_key=str(face.key()), budget=budget,
    )
    return _verdict_from_outcome(
        outcome, {"face": face.key()}, "solutions",
        tuple(f"xi{i+1}" for i in range(n)), equations, f"face {face.key()}",
    )


def _verdict_from_outcome(outcome, trace, found, names, equations,
                          context) -> Verdict:
    """The verdict a solver outcome gives for a condition that fails
    exactly when the system is solvable.

    Empty holds; solvable fails with the solver's witness, replayed on the
    given equations under the given names. A solvable outcome without a
    witness is a pending failure over Q(i)(t), to be witnessed by a
    specialization, and Capped unknown over Q(i). Anything else is unknown.
    """
    method = _SOLVER_METHODS.get(outcome.method, METHOD_CAPPED)
    trace = dict(trace, solver=outcome.method, detail=outcome.detail)
    if outcome.status == solvers.EMPTY:
        return Verdict.holds(method, outcome.detail, trace=trace)
    if outcome.status != solvers.SOLVABLE:
        return Verdict.unknown(method, outcome.detail, trace=trace)
    if outcome.witness is None:
        if solvers.is_exact(equations[0]):
            return Verdict.unknown(
                METHOD_CAPPED,
                f"{found} exist but no witness was constructed",
                trace=trace,
            )
        trace["witness_pending"] = True
        return Verdict(FAILS, method,
                       outcome.detail + " (witness via specialization)",
                       witness=None, trace=trace)
    witness = CertifiedWitness(names, outcome.witness, equations,
                               context=context)
    _require_replay(witness)
    return Verdict.fails(method, outcome.detail, witness, trace=trace)


# ---------------------------------------------------------------------------
# local tameness
# ---------------------------------------------------------------------------

def check_local_tameness(g: ToricPolynomial, ef: EssentialFace,
                         seed=DEFAULT_SEED, budget=DEFAULT_BUDGET) -> Verdict:
    """Is the essential face function critical-point free for all nonzero
    frozen coordinates?

    The face function is viewed as a function of the coordinates outside
    the direction set, on the locus where every coordinate is nonzero. A
    Holds verdict certifies freeness for every nonzero frozen value (an
    infinite tameness radius); Fails carries an exact critical point.
    """
    direction = set(ef.direction)
    if not direction:
        raise FaceNotEssential("the face has an empty direction set")
    sub, _ = face_function(g, ef.face)
    r = g.variety.r
    free = [j for j in range(1, r + 1) if j not in direction]
    equations = [sub.partial(j) for j in free]
    equations = [e for e in equations if e]
    outcome = solvers.decide_equation_system(
        equations, r, seed=seed, face_key="tame:" + str(ef.key()),
        budget=budget,
    )
    trace = {
        "face": ef.key(),
        "direction": list(ef.direction),
        "free_variables": free,
    }
    return _verdict_from_outcome(
        outcome, trace, "critical points",
        tuple(f"z{j}" for j in range(1, r + 1)), equations,
        f"tameness {ef.key()}",
    )


def check_all_tameness(g: ToricPolynomial, seed=DEFAULT_SEED,
                       budget=DEFAULT_BUDGET, essential=None):
    """Tameness along every vanishing variety: all essential faces.

    essential is essential_noncompact_faces(g), computed if None. Returns
    the combined verdict and new EssentialFace objects, each carrying its
    own tameness verdict.
    """
    if essential is None:
        essential = essential_noncompact_faces(g)
    checked = [
        EssentialFace(ef.face, ef.direction,
                      tame=check_local_tameness(g, ef, seed=seed,
                                                budget=budget))
        for ef in essential
    ]
    overall = combine_verdicts(
        [ef.tame for ef in checked],
        holds_evidence="every essential face function is locally tame with "
                       "infinite radius",
    )
    return overall, checked


# ---------------------------------------------------------------------------
# restrictions of a non-degenerate polynomial
# ---------------------------------------------------------------------------

def subvariety_restriction(g: ToricPolynomial, index_set):
    """The restriction as a polynomial on the face's own toric variety.

    Coordinates are re-expressed in a basis of the saturated lattice spanned
    by the chosen generators, in the order given by the index set.
    """
    v = g.variety
    key = v.require_valid_index_set(index_set)
    if not key:
        raise InvalidIndexSet("the empty index set has no ambient variety")
    gens = [v.generators[i - 1] for i in key]
    basis, _, _ = linalg.saturation_basis([list(b) for b in gens])
    reduced = []
    for b in gens:
        coords = linalg.coordinates_in_basis(b, basis)
        if coords is None:
            raise AnomalyDetected("generator not in the saturated span")
        reduced.append(coords)
    sub_v = build_variety(generators=reduced)
    kept = {tuple(exp[i - 1] for i in key): coeff
            for exp, coeff in restrict(g, key).terms.items()}
    return sub_v, ToricPolynomial(sub_v, kept)


def restriction_nondegeneracy_check(g: ToricPolynomial, seed=DEFAULT_SEED,
                                    budget=DEFAULT_BUDGET):
    """Non-degeneracy of every non-vanishing restriction.

    Used as a consistency property: when g itself holds, restrictions must
    never fail.
    """
    nonvanishing, _ = vanishing_split(g)
    out = {}
    for index_set in nonvanishing:
        _, sub = subvariety_restriction(g, index_set)
        out[tuple(index_set)] = check_nondegeneracy(
            sub, seed=seed, budget=budget
        ).overall
    return out
