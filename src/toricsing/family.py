"""One-parameter families: boundary constancy, admissibility, stratification.

A family assigns to each exponent a nonzero polynomial coefficient in the
parameter t. "Small t" is operationalized exactly: the specialization at
t = 0 is compared against the generic one (coefficients in the rational
function field of t, treated as a transcendental), and the finitely many
algebraic parameter values where some coefficient vanishes are reported as
exceptional, not analyzed. The generic Newton polyhedron reuses the face
data of the t = 0 one when the two are the same polyhedron.
"""
from __future__ import annotations

from .errors import ConditionIRequired, EmptyInput, EmptySupport
from .checks import (
    FAILS,
    HOLDS,
    METHOD_CAPPED,
    METHOD_SYMBOLIC,
    Verdict,
    check_all_tameness,
    check_nondegeneracy,
    combine_verdicts,
    essential_noncompact_faces,
    vanishing_split,
    DEFAULT_BUDGET,
    DEFAULT_SEED,
)
from .newton import ToricPolynomial, newton_polyhedron, torus_form
from .polynomials import Poly, RationalFunction
from .rationals import GaussianRational
from .solvers import gaussian_roots, squarefree_part
from .variety import ToricVariety, orbit_dimension

ZERO_SPECIALIZATION = "zero"
GENERIC_SPECIALIZATION = "generic"

_SAMPLE_POOL = [
    GaussianRational(1),
    GaussianRational(-1),
    GaussianRational(2),
    GaussianRational("1/2"),
    GaussianRational(3),
    GaussianRational("1/3"),
    GaussianRational(-2),
    GaussianRational(5),
]


class FamilyPolynomial:
    """A polynomial family f_t with coefficients polynomial in t."""

    __slots__ = ("variety", "terms")

    def __init__(self, variety: ToricVariety, terms):
        cleaned = {}
        for exp, coeff in terms.items():
            exp = tuple(int(e) for e in exp)
            if not isinstance(coeff, Poly):
                coeff = Poly.constant(_as_gaussian(coeff))
            if coeff.is_zero():
                continue
            if all(e == 0 for e in exp):
                raise EmptyInput(
                    "families vanish along the parameter axis: no pure-t or "
                    "constant terms are allowed"
                )
            cleaned[exp] = coeff
        if not cleaned:
            raise EmptyInput("a family needs at least one term")
        object.__setattr__(self, "variety", variety)
        object.__setattr__(self, "terms", dict(cleaned))

    def __setattr__(self, name, value):
        raise AttributeError("FamilyPolynomial is immutable")

    def __repr__(self):
        return f"FamilyPolynomial({len(self.terms)} terms, r={self.variety.r})"


def _as_gaussian(c):
    if isinstance(c, GaussianRational):
        return c
    return GaussianRational(c)


def specialize(fam: FamilyPolynomial, at) -> ToricPolynomial:
    """Specialize the family: "zero", "generic", or an exact t value.

    Generic keeps every stored term with coefficients in the rational
    function field, so downstream checks treat t as a transcendental.
    """
    if at == ZERO_SPECIALIZATION:
        terms = {}
        zero = GaussianRational(0)
        for exp, poly in fam.terms.items():
            c = poly.evaluate(zero)
            if not c.is_zero():
                terms[exp] = c
        return ToricPolynomial(fam.variety, terms)
    if at == GENERIC_SPECIALIZATION:
        return ToricPolynomial(
            fam.variety,
            {exp: RationalFunction(poly) for exp, poly in fam.terms.items()},
        )
    t0 = _as_gaussian(at)
    terms = {}
    for exp, poly in fam.terms.items():
        c = poly.evaluate(t0)
        if not c.is_zero():
            terms[exp] = c
    return ToricPolynomial(fam.variety, terms)


def exceptional_parameters(fam: FamilyPolynomial):
    """Exact parameter values where some coefficient vanishes, plus the
    residual factors whose roots could not be expressed in Q(i)."""
    values = set()
    residuals = []
    for poly in fam.terms.values():
        if poly.degree() < 1:
            continue
        work = squarefree_part(poly)
        roots = gaussian_roots(work)
        values.update(roots)
        for rt in roots:
            x = Poly.variable()
            while work.degree() >= 1 and work.evaluate(rt).is_zero():
                work = work.divmod(x - Poly.constant(rt))[0]
        if work.degree() >= 1:
            residuals.append(tuple(str(c) for c in work.coeffs))
    return sorted(values, key=str), residuals


def is_exceptional(fam: FamilyPolynomial, t0) -> bool:
    t0 = _as_gaussian(t0)
    return any(poly.evaluate(t0).is_zero() for poly in fam.terms.values())


class StructuralWitness:
    """Witness for a boundary change: the differing Newton data."""

    kind = "structural"

    def __init__(self, description, differences):
        self.description = description
        self.differences = dict(differences)

    def replay(self) -> bool:
        return bool(self.differences)

    def __repr__(self):
        return f"StructuralWitness({self.description})"


def _newton_summary(g: ToricPolynomial, like=None):
    """The Newton data of one specialization, built once and compared by
    condition I, then analysed by condition II and the stratification; like
    goes to newton_polyhedron."""
    np_ = newton_polyhedron(g, like=like)
    split = vanishing_split(g, np=np_)
    essential = essential_noncompact_faces(g, np=np_, split=split)
    # proper faces only: the improper face (weight 0) attains on the whole
    # support, so a term strictly inside the polyhedron would change its
    # key without changing any boundary data
    full = tuple(range(1, g.variety.r + 1))
    proper = [f for f in np_.faces if f.noncompact_direction != full]
    return {
        "polynomial": g,
        "polyhedron": np_,
        "vertices": tuple(np_.vertices),
        "face_keys": tuple(sorted(f.key() for f in proper)),
        "compact_keys": tuple(sorted(f.key() for f in np_.compact_faces())),
        "essential_keys": tuple(sorted(ef.key() for ef in essential)),
        "essential": essential,
        "split": (tuple(map(tuple, split[0])), tuple(map(tuple, split[1]))),
    }


def check_condition_I(fam: FamilyPolynomial):
    """Is the essential Newton boundary (and vanishing data) constant in t?

    Compares the t = 0 and generic specializations: polyhedron vertices,
    the full face set, the compact boundary, the essential non-compact
    faces, and the vanishing/non-vanishing split must all coincide.
    Returns (verdict, exceptional_values, residual_factors, summaries):
    summaries is the pair of Newton summaries compared (t = 0, generic),
    or None when the support collapses at t = 0. Pass the whole result as
    condition_I to check_condition_II and canonical_stratification.
    """
    values, residuals = exceptional_parameters(fam)
    generic = specialize(fam, GENERIC_SPECIALIZATION)
    try:
        zero = specialize(fam, ZERO_SPECIALIZATION)
        summary_zero = _newton_summary(zero)
    except (EmptySupport, EmptyInput):
        witness = StructuralWitness(
            "support collapses at t = 0",
            {"zero_support": (), "generic_support": tuple(sorted(
                torus_form(generic).support))},
        )
        return (
            Verdict.fails(METHOD_SYMBOLIC,
                          "the family vanishes identically at t = 0 but not "
                          "generically", witness),
            values, residuals, None,
        )
    summary_generic = _newton_summary(generic, summary_zero["polyhedron"])
    summaries = (summary_zero, summary_generic)
    differences = {}
    for key in ("vertices", "face_keys", "compact_keys", "essential_keys",
                "split"):
        if summary_zero[key] != summary_generic[key]:
            differences[key] = {
                "zero": summary_zero[key],
                "generic": summary_generic[key],
            }
    if differences:
        witness = StructuralWitness("Newton data differs between t = 0 and "
                                    "generic t", differences)
        return (
            Verdict.fails(
                METHOD_SYMBOLIC,
                "Newton polyhedron or vanishing data changes with t: "
                + ", ".join(sorted(differences)),
                witness,
                trace={"differs": sorted(differences)},
            ),
            values, residuals, summaries,
        )
    evidence = ("Newton polyhedron, compact boundary, essential faces and "
                "vanishing data agree between t = 0 and generic t")
    return (Verdict.holds(METHOD_SYMBOLIC, evidence), values, residuals,
            summaries)


def _specialization_verdict(summary, seed, budget):
    """Non-degeneracy plus tameness for one specialization's summary."""
    g = summary["polynomial"]
    nondeg = check_nondegeneracy(g, seed=seed, budget=budget,
                                 np=summary["polyhedron"])
    tame_overall, essential = check_all_tameness(
        g, seed=seed, budget=budget, essential=summary["essential"]
    )
    combined = combine_verdicts(
        [nondeg.overall, tame_overall],
        holds_evidence="non-degenerate and locally tame along the vanishing "
                       "varieties",
    )
    return combined, nondeg, essential


def check_condition_II(fam: FamilyPolynomial, condition_I=None,
                       seed=DEFAULT_SEED, budget=DEFAULT_BUDGET):
    """Non-degeneracy and tameness at t = 0 and at generic t.

    The generic run works over the rational-function field. Only a generic
    failure without a witness analyses exact samples: the first three
    non-exceptional values of _SAMPLE_POOL, in order, until one fails with
    a witness, which then witnesses the generic failure. A sample that
    loses its support, and a failure no sample reproduces, are reported
    in details["anomalies"]. condition_I is the result of
    check_condition_I; its Newton summaries are analysed, not rebuilt.
    Returns (verdict_zero, verdict_generic, details dict).
    """
    summary_zero, summary_generic = _require_condition_I(
        fam, condition_I,
        "condition II needs the boundary to be constant in t")
    details = {"anomalies": []}
    v_zero, details["nondeg_zero"], details["essential_zero"] = \
        _specialization_verdict(summary_zero, seed, budget)
    v_gen, details["nondeg_generic"], details["essential_generic"] = \
        _specialization_verdict(summary_generic, seed, budget)
    if v_gen.status == FAILS and v_gen.witness is None:
        v_gen = _witness_from_samples(fam, v_gen, seed, budget,
                                      details["anomalies"])
    return v_zero, v_gen, details


def _witness_from_samples(fam, verdict, seed, budget, anomalies):
    """Replace a pending generic witness by one from an exact sample."""
    samples = [t0 for t0 in _SAMPLE_POOL if not is_exceptional(fam, t0)][:3]
    lost = []
    for t0 in samples:
        try:
            v_sample, _, _ = _specialization_verdict(
                _newton_summary(specialize(fam, t0)), seed, budget)
        except (EmptySupport, EmptyInput):
            lost.append(f"sample t = {t0} lost support although not "
                        "exceptional")
            continue
        if v_sample.status == FAILS and v_sample.witness is not None:
            anomalies.extend(lost)
            trace = dict(verdict.trace)
            trace["witness_sampled_at"] = str(t0)
            return Verdict.fails(
                verdict.method,
                verdict.evidence + f"; witness sampled at t = {t0}",
                v_sample.witness,
                trace=trace,
            )
    anomalies.append(
        "generic failure could not be reproduced at the sampled parameters"
    )
    anomalies.extend(lost)
    return verdict


class Stratum:
    """One stratum of the canonical stratification."""

    def __init__(self, kind, index_set, dim, description):
        self.kind = kind
        self.index_set = tuple(sorted(index_set))
        self.dim = dim
        self.description = description

    def label(self):
        inner = ",".join(str(i) for i in self.index_set)
        return f"{self.kind}_{{{inner}}}"

    def __eq__(self, other):
        if not isinstance(other, Stratum):
            return NotImplemented
        return (self.kind, self.index_set, self.dim) == (
            other.kind, other.index_set, other.dim
        )

    def __hash__(self):
        return hash((self.kind, self.index_set, self.dim))

    def __repr__(self):
        return f"Stratum({self.label()}, dim={self.dim})"


def _require_condition_I(fam, condition_I, message):
    """The (t = 0, generic) Newton summaries of a family whose condition I
    holds; condition_I is check_condition_I's result, computed if None."""
    if condition_I is None:
        condition_I = check_condition_I(fam)
    verdict, _, _, summaries = condition_I
    if verdict.status != HOLDS:
        raise ConditionIRequired(message)
    return summaries


def canonical_stratification(fam: FamilyPolynomial, condition_I=None):
    """Strata A_I, B_I over non-vanishing index sets and C_I over vanishing
    ones; C over the empty set is the parameter axis. condition_I is the
    result of check_condition_I, computed if None."""
    summary_zero, _ = _require_condition_I(
        fam, condition_I,
        "the stratification needs t-independent vanishing data")
    nonvanishing, vanishing = summary_zero["split"]
    v = fam.variety
    strata = []
    for index_set in nonvanishing:
        d = orbit_dimension(v, index_set)
        strata.append(Stratum(
            "A", index_set, d,
            "zero set of the family inside the parameter-times-orbit cell",
        ))
        strata.append(Stratum(
            "B", index_set, d + 1,
            "complement of the zero set in the parameter-times-orbit cell",
        ))
    for index_set in vanishing:
        d = orbit_dimension(v, index_set)
        strata.append(Stratum(
            "C", index_set, d + 1,
            "parameter-times-orbit cell on which the family vanishes",
        ))
    strata.sort(key=lambda s: (s.kind, s.index_set))
    return strata


class AdmissibilityReport:
    """Full analysis of a family: conditions, verdicts, stratification."""

    def __init__(self, condition_I, condition_II_zero, condition_II_generic,
                 uniform_tameness, exceptional_values, residual_factors,
                 admissible, equisingular, stratification, anomalies,
                 warnings):
        self.condition_I = condition_I
        self.condition_II_zero = condition_II_zero
        self.condition_II_generic = condition_II_generic
        self.uniform_tameness = uniform_tameness
        self.exceptional_values = list(exceptional_values)
        self.residual_factors = list(residual_factors)
        self.admissible = admissible
        self.equisingular = equisingular
        self.stratification = list(stratification)
        self.anomalies = list(anomalies)
        self.warnings = list(warnings)


EQUISINGULARITY_LICENSE = (
    "admissible families have Whitney-equisingular hypersurface families "
    "(main equisingularity criterion)"
)


def check_admissibility(fam: FamilyPolynomial, seed=DEFAULT_SEED,
                        budget=DEFAULT_BUDGET) -> AdmissibilityReport:
    """Assemble the admissibility verdict.

    Admissible holds when the boundary is constant, both specializations
    are non-degenerate and locally tame, and every tameness verdict carries
    an infinite radius (which makes the uniform lower bound automatic; the
    transversality radius exists by the smoothness result and is reported
    as an existence claim, never a number).
    """
    warnings = list(fam.variety.warnings)
    anomalies = []
    condition_I = check_condition_I(fam)
    cond_I, exc_values, residuals, _ = condition_I
    stratification = []
    uniform = "unknown"
    if cond_I.status != HOLDS:
        admissible = Verdict(
            cond_I.status, cond_I.method,
            "boundary constancy failed: " + cond_I.evidence,
            witness=cond_I.witness, trace=cond_I.trace,
        )
        zero_v = generic_v = Verdict.unknown(
            METHOD_CAPPED, "not evaluated: condition I did not hold"
        )
    else:
        zero_v, generic_v, details = check_condition_II(
            fam, condition_I=condition_I, seed=seed, budget=budget
        )
        anomalies.extend(details["anomalies"])
        for key in ("nondeg_zero", "nondeg_generic"):
            warnings.extend(details[key].warnings)
        stratification = canonical_stratification(fam,
                                                  condition_I=condition_I)
        radii = [
            ef.tameness_radius
            for ef in details["essential_zero"] + details["essential_generic"]
        ]
        uniform = "infinite" if all(rad == "infinite" for rad in radii) \
            else "unknown"
        statuses = [cond_I.status, zero_v.status, generic_v.status]
        if any(s == FAILS for s in statuses):
            failing = next(
                v for v in (zero_v, generic_v) if v.status == FAILS
            )
            admissible = Verdict.fails(
                failing.method,
                "a non-degeneracy or tameness check failed: "
                + failing.evidence,
                failing.witness, trace=failing.trace,
            )
        elif all(s == HOLDS for s in statuses) and uniform == "infinite":
            admissible = Verdict.holds(
                METHOD_SYMBOLIC,
                "constant boundary, non-degenerate and locally tame at t = 0 "
                "and generic t, with infinite tameness radii (uniform bound "
                "automatic; transversality radius exists by smoothness)",
            )
        else:
            admissible = Verdict.unknown(
                METHOD_SYMBOLIC,
                "some component is undecided or a tameness radius is not "
                "certified infinite",
            )
    if admissible.status == HOLDS:
        equisingular = Verdict.holds(
            METHOD_SYMBOLIC, EQUISINGULARITY_LICENSE,
            trace={"licensed_by": "admissibility criterion"},
        )
    else:
        equisingular = Verdict.unknown(
            METHOD_SYMBOLIC,
            "equisingularity is only certified for admissible families "
            "(the criterion is sufficient, not necessary)",
        )
    return AdmissibilityReport(
        condition_I=cond_I,
        condition_II_zero=zero_v,
        condition_II_generic=generic_v,
        uniform_tameness=uniform,
        exceptional_values=exc_values,
        residual_factors=residuals,
        admissible=admissible,
        equisingular=equisingular,
        stratification=stratification,
        anomalies=anomalies,
        warnings=warnings,
    )
