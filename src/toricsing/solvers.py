"""Exact decision procedures for zero systems on algebraic tori.

Shapes handled exactly:
  * single-monomial equations (never vanish on a torus);
  * supports of affine dimension one, via univariate gcd/square-free algebra;
  * binomial equation systems, which are character-lattice systems
    zeta^gamma = v as they stand;
  * two-dimensional supports with at most four terms, via torus
    linearization: the monomial values solve a nonsingular linear system,
    which leaves a character-lattice system in the two plane coordinates;
  * single equations with several terms, via one-parameter substitution.

Both character-lattice shapes end in one solve, ``solve_monomial_system``:
one Smith normal form decides consistency over Q(i) or Q(i)(t) before any
root is taken, and over Q(i) then extracts the roots.

Everything else falls back to a seeded randomized search whose candidates
are certified by exact substitution, after a residue test modulo p rejects
candidates that cannot be roots; with none certified the outcome is honest
"unknown". Coefficients may lie in Q(i) or, for a generic family member, in
Q(i)(t); the field is read off the coefficients, and over Q(i)(t) a
solvable outcome carries no witness.

Witnesses are exact Gaussian-rational points or algebraic points: values in
Q(i)[s]/(m(s)) for a stored nonconstant modulus m, verified from tables of
powers mod m. Both exact reductions to one variable (a support line and
a one-parameter substitution) end in one builder, ``_subgroup_witness``: it
tries each Q(i) root s of the square-free modulus as the point s^direction,
and otherwise returns s^direction mod m as an algebraic witness.
"""
from __future__ import annotations

import hashlib
import itertools
import random
from fractions import Fraction

from . import linalg
from .errors import AnomalyDetected
from .linalg import dot, primitive
from .polynomials import Poly, gcd as poly_gcd
from .rationals import ZERO, GaussianRational, gaussian_nth_root, gaussian_sqrt

EMPTY = "empty"          # no torus solution exists
SOLVABLE = "solvable"    # a torus solution exists
UNKNOWN = "unknown"      # outside the decidable subclass / search exhausted


class Outcome:
    """Result of a torus-system decision."""

    __slots__ = ("status", "witness", "method", "detail")

    def __init__(self, status, witness=None, method="", detail=""):
        object.__setattr__(self, "status", status)
        object.__setattr__(self, "witness", witness)
        object.__setattr__(self, "method", method)
        object.__setattr__(self, "detail", detail)

    def __setattr__(self, name, value):
        raise AttributeError("Outcome is immutable")

    def __repr__(self):
        return f"Outcome({self.status}, method={self.method})"


# ---------------------------------------------------------------------------
# witnesses
# ---------------------------------------------------------------------------

class PointWitness:
    """An exact Gaussian-rational torus point solving the equations."""

    kind = "point"

    def __init__(self, names, values):
        self.names = tuple(names)
        self.values = tuple(values)

    def verify(self, equations) -> bool:
        if any(v.is_zero() for v in self.values):
            return False
        for terms in equations:
            total = GaussianRational(0)
            for exp, coeff in terms.items():
                total = total + linalg._power_product(coeff, self.values, exp)
            if not total.is_zero():
                return False
        return True

    def __repr__(self):
        pairs = ", ".join(f"{n}={v}" for n, v in zip(self.names, self.values))
        return f"PointWitness({pairs})"


class AlgebraicWitness:
    """A torus point with coordinates in Q(i)[s]/(modulus).

    The modulus is nonconstant, so it has complex roots, and verification
    divides it by its leading coefficient; every root yields a genuine
    solution because the verification works modulo the modulus.
    Coordinates are certified nonzero by coprimality with the modulus.
    """

    kind = "algebraic"

    def __init__(self, names, value_polys, modulus: Poly):
        self.names = tuple(names)
        self.values = tuple(value_polys)
        self.modulus = modulus

    def verify(self, equations) -> bool:
        m = self.modulus
        d = m.degree()
        if d < 1 or any(v.is_zero() or poly_gcd(v, m).degree() >= 1
                        for v in self.values):
            return False
        # s^d = sum of t * s^k over (k, t) in tail, modulo m made monic
        tail = [(k, ZERO - c / m.leading())
                for k, c in enumerate(m.coeffs[:-1]) if not c.is_zero()]
        tables = {}  # (j, e > 0) -> v_j^e for e = 1, 2, ... or -1, -2, ...
        for terms in equations:
            total = [ZERO] * d
            for exp, coeff in terms.items():
                term = [coeff] + [ZERO] * (d - 1)
                for j, (v, e) in enumerate(zip(self.values, map(int, exp))):
                    if not e:
                        continue
                    table = tables.get((j, e > 0))
                    if table is None:
                        v = v % m if e > 0 else _poly_mod_inverse(v, m)
                        table = tables[j, e > 0] = [
                            list(v.coeffs) + [ZERO] * (d - len(v.coeffs))]
                    while len(table) < abs(e):
                        table.append(_mul_mod(table[-1], table[0], tail))
                    term = _mul_mod(term, table[abs(e) - 1], tail)
                # residues of degree < d: their sum needs no reduction
                total = [t + c for t, c in zip(total, term)]
            if any(not t.is_zero() for t in total):
                return False
        return True

    def __repr__(self):
        return (
            f"AlgebraicWitness(modulus deg {self.modulus.degree()}, "
            f"{len(self.values)} coordinates)"
        )


def _mul_mod(a, b, tail):
    """a*b for residues as coefficient vectors of length d, where s^d is the
    sum of t * s^k over the pairs (k, t) of tail."""
    d = len(a)
    prod = [ZERO] * (2 * d - 1)
    for i, x in enumerate(a):
        if not x.is_zero():
            for j, y in enumerate(b):
                if not y.is_zero():
                    prod[i + j] = prod[i + j] + x * y
    for top in range(2 * d - 2, d - 1, -1):
        c = prod[top]
        if not c.is_zero():
            for k, t in tail:
                prod[top - d + k] = prod[top - d + k] + c * t
    return prod[:d]


def _poly_extended_gcd(a: Poly, b: Poly):
    """(g, x, y) with x*a + y*b = g, over the coefficient field."""
    zero = Poly.constant(GaussianRational(0))
    one = Poly.constant(GaussianRational(1))
    r0, r1 = a, b
    s0, s1 = one, zero
    t0, t1 = zero, one
    while not r1.is_zero():
        q, r = r0.divmod(r1)
        r0, r1 = r1, r
        s0, s1 = s1, s0 - q * s1
        t0, t1 = t1, t0 - q * t1
    return r0, s0, t0


def _poly_mod_inverse(v: Poly, m: Poly):
    g, x, _ = _poly_extended_gcd(v, m)
    if g.degree() != 0:
        return None
    lead = g.leading()
    return x.scale(GaussianRational(1) / lead) % m


# ---------------------------------------------------------------------------
# small utilities
# ---------------------------------------------------------------------------

def derived_rng(seed, face_key) -> random.Random:
    digest = hashlib.sha256(
        (str(seed) + "::" + str(face_key)).encode()
    ).hexdigest()
    return random.Random(int(digest[:16], 16))


def is_exact(terms) -> bool:
    """Whether the coefficients of a term map lie in Q(i) (GaussianRational)
    rather than in the family field Q(i)(t) (RationalFunction)."""
    return isinstance(next(iter(terms.values())), GaussianRational)


_SEARCH_POOL = [
    GaussianRational(1),
    GaussianRational(-1),
    GaussianRational(0, 1),
    GaussianRational(0, -1),
    GaussianRational(2),
    GaussianRational(-2),
    GaussianRational(Fraction(1, 2)),
    GaussianRational(Fraction(-1, 2)),
    GaussianRational(3),
    GaussianRational(-3),
    GaussianRational(1, 1),
    GaussianRational(1, -1),
    GaussianRational(-1, 1),
    GaussianRational(Fraction(1, 3)),
    GaussianRational(Fraction(-1, 3)),
    GaussianRational(Fraction(3, 2)),
    GaussianRational(Fraction(-3, 2)),
    GaussianRational(Fraction(1, 2), Fraction(1, 2)),
]


# p = 1 (mod 4) is prime and _IOTA = 11^((p-1)/4), so _IOTA^2 = -1 (mod p)
_P, _IOTA = 1_000_000_009, 569522298


def _residue(z):
    """The image (a + b*_IOTA)/d in F_p of z = (a + b*i)/d, or None."""
    re, im = z.re, z.im
    if re.denominator % _P and im.denominator % _P:
        return (re.numerator * pow(re.denominator, -1, _P)
                + im.numerator * pow(im.denominator, -1, _P) * _IOTA) % _P
    return None


# (value, residue) in pool order: draws from it match draws from the pool
_POOL_IMAGES = tuple((z, _residue(z)) for z in _SEARCH_POOL)


def random_search(equations, n_vars, rng, budget):
    """Try exact candidates; return a verified PointWitness or None.

    i -> _IOTA maps Z[i] localized at (p, i - _IOTA) onto F_p. Pool values
    (all of nonzero residue), their inverses, and coefficients with
    denominators prime to p lie in that ring, so an equation whose image is
    nonzero at a candidate is nonzero exactly: the candidate is skipped.
    If p divides a coefficient's denominator, none is skipped. Only exact
    substitution (``PointWitness.verify``) certifies a witness.
    """
    names = tuple(f"v{i+1}" for i in range(n_vars))
    # each term as (coefficient residue, its nonzero (variable, exponent))
    images = [[(_residue(c), [(j, e) for j, e in enumerate(exp) if e])
               for exp, c in terms.items()] for terms in equations]
    if any(c is None for image in images for c, _ in image):
        images = []
    # units 1, -1, i, -i first; lazy draws advance the rng only as needed
    units = itertools.product(_POOL_IMAGES[:4], repeat=n_vars) \
        if n_vars <= 4 else ()
    draws = (tuple(rng.choice(_POOL_IMAGES) for _ in range(n_vars))
             for _ in range(budget))
    for combo in itertools.chain(units, draws):
        if _misses_mod_p(images, combo):
            continue
        w = PointWitness(names, [z for z, _ in combo])
        if w.verify(equations):
            return w
    return None


def _misses_mod_p(images, combo):
    """Whether some equation's image is nonzero at the candidate."""
    for image in images:
        total = 0
        for c, powers in image:
            for j, e in powers:
                c *= pow(combo[j][1], e, _P)
            total += c
        if total % _P:
            return True
    return False


def euler_maps(terms, n):
    """The n Euler derivatives theta_i of a lattice-level term map."""
    out = []
    for i in range(n):
        m = {}
        for lam, coeff in terms.items():
            if lam[i]:
                m[lam] = coeff * lam[i]
        out.append(m)
    return out


def bezout_vector(gamma):
    """Integer m with <m, gamma> = gcd(gamma) (gamma nonzero)."""
    m = [0] * len(gamma)
    g = 0
    for i, x in enumerate(gamma):
        if x == 0:
            continue
        if g == 0:
            g = abs(x)
            m[i] = 1 if x > 0 else -1
            continue
        gg, a, b = _ext_gcd(g, abs(x))
        # a*g + b*|x| = gg
        m = [a * v for v in m]
        m[i] = b if x > 0 else -b
        g = gg
    if g <= 0 or g != linalg.vector_gcd(gamma):
        raise AnomalyDetected(f"Bezout vector of {tuple(gamma)} is wrong")
    return tuple(m)


def _ext_gcd(a, b):
    if b == 0:
        return a, 1, 0
    g, x, y = _ext_gcd(b, a % b)
    return g, y, x - (a // b) * y


def squarefree_part(p: Poly) -> Poly:
    if p.degree() <= 0:
        return p
    g = poly_gcd(p, p.derivative())
    if g.degree() == 0:
        return p.monic()
    return p.divmod(g)[0].monic()


def gaussian_roots(p: Poly):
    """Some roots of p in Q(i); complete when the square-free part has
    degree at most two, best-effort beyond."""
    if p.degree() <= 0:
        return []
    work = squarefree_part(p)
    roots = []
    # peel off candidate linear roots
    changed = True
    while changed and work.degree() > 2:
        changed = False
        for cand in _SEARCH_POOL:
            if work.evaluate(cand).is_zero():
                roots.append(cand)
                x = Poly.variable()
                work = work.divmod(x - Poly.constant(cand))[0]
                changed = True
                break
    if work.degree() == 1:
        c0, c1 = work.coeffs
        roots.append(GaussianRational(0) - c0 / c1)
    elif work.degree() == 2:
        c0, c1, c2 = work.coeffs
        disc = c1 * c1 - GaussianRational(4) * c2 * c0
        s = gaussian_sqrt(disc)
        if s is not None:
            two_a = GaussianRational(2) * c2
            roots.append((GaussianRational(0) - c1 + s) / two_a)
            roots.append((GaussianRational(0) - c1 - s) / two_a)
    return roots


def solve_monomial_system(gammas, values):
    """Solve zeta^{gamma_i} = v_i on the torus, over the field of the v_i.

    One Smith normal form U*G*V = S decides consistency: each zero
    invariant factor gives a relation prod_i v_i^{U_mi} = 1, and every
    relation is checked before any root is taken. Returns
    ("inconsistent", None) when a relation fails, so no complex solution
    exists. Otherwise, over Q(i), returns ("solved", assignment) with
    Gaussian-rational coordinates, or ("stuck", None) when the required
    roots are not Gaussian rational; over Q(i)(t) a consistent system is
    ("stuck", None), since no witness is built there.
    """
    n = len(gammas[0])
    u, s, v = linalg.smith_normal_form([list(g) for g in gammas])
    diag = [s[m][m] if m < n else 0 for m in range(len(gammas))]
    if any(linalg._power_product(1, values, u[m]) != 1
           for m, d in enumerate(diag) if d == 0):
        return "inconsistent", None
    if not isinstance(values[0], GaussianRational):
        return "stuck", None
    # eta_m^{d_m} = prod_i v_i^{U_mi}, then zeta_j = prod_k eta_k^{V_jk}
    eta = [GaussianRational(1)] * n
    for m, d in enumerate(diag):
        if d:
            root = gaussian_nth_root(
                linalg._power_product(1, values, u[m]), d)
            if root is None:
                return "stuck", None
            eta[m] = root
    return "solved", tuple(linalg._power_product(1, eta, row) for row in v)


# ---------------------------------------------------------------------------
# one-parameter subgroups
# ---------------------------------------------------------------------------

def _line_polynomial(terms, degree):
    """The terms as a polynomial in u: the term at l becomes c*u^k with
    k = degree[l] - min(degree), so the constant term is nonzero."""
    low = min(degree.values())
    sample = next(iter(terms.values()))
    zero = sample - sample
    coeffs = [zero] * (max(degree.values()) - low + 1)
    for l, c in terms.items():
        coeffs[degree[l] - low] = coeffs[degree[l] - low] + c
    return Poly(coeffs, zero=zero, one=sample / sample)


def _subgroup_witness(modulus, direction, names, equations):
    """A solution s^direction with s a root of the square-free modulus.

    Each Q(i) root of the modulus is tried as a point witness first; when
    none verifies, s^direction mod the modulus is an algebraic witness.
    Returns the verified witness, or None.
    """
    for root in gaussian_roots(modulus):
        if root.is_zero():
            continue
        w = PointWitness(names, tuple(root ** int(e) for e in direction))
        if w.verify(equations):
            return w
    m = modulus
    if m.degree() < 1 or m.constant_term().is_zero():
        return None
    # s^|e| mod m, inverted mod m when e < 0 (s is a unit: m(0) != 0)
    powers = [Poly([ZERO] * abs(int(e)) + [GaussianRational(1)]) % m
              for e in direction]
    values = [p if e >= 0 else _poly_mod_inverse(p, m)
              for p, e in zip(powers, direction)]
    w = AlgebraicWitness(names, values, m)
    return w if w.verify(equations) else None


# ---------------------------------------------------------------------------
# gradient systems (non-degeneracy of a face form)
# ---------------------------------------------------------------------------

def decide_gradient_system(terms, n, d_value, equations, seed=0,
                           face_key="", budget=200):
    """Does theta_i L = 0 (i = 1..n) have a solution on the torus?

    terms maps lattice exponents (length n) to nonzero coefficients; it is
    the collected face form, and equations is its
    ``gradient_equations(terms, n, d_value)``. For d_value == 0 the value
    equation L = 0 is included instead of relying on weighted homogeneity.
    Coefficients in Q(i)(t) are decided exactly, but a solvable outcome then
    carries no witness: it comes from specializing t.
    """
    supp = sorted(terms)
    k = len(supp)
    if k == 1:
        return Outcome(EMPTY, method="monomial-face",
                       detail="single monomial never vanishes on the torus")
    diffs = [linalg.sub_vec(l, supp[0]) for l in supp[1:]]
    dim = linalg.rank([list(d) for d in diffs])
    if dim == 1:
        return _decide_collinear(terms, supp, d_value, equations,
                                 seed, face_key, budget)
    if dim == 2:
        return _decide_planar(terms, supp, d_value, equations,
                              seed, face_key, budget)
    return _fallback(equations, n, seed, face_key, budget,
                     note=f"support dimension {dim} exceeds the subclass")


def gradient_equations(terms, n, d_value):
    """The nonzero Euler derivatives of the face form, led by the form
    itself when d_value == 0."""
    equations = [m for m in euler_maps(terms, n) if m]
    if d_value == 0:
        equations = [dict(terms)] + equations
    return equations


def _fallback(equations, n_vars, seed, face_key, budget, note):
    if is_exact(equations[0]):
        rng = derived_rng(seed, face_key)
        w = random_search(equations, n_vars, rng, budget)
        if w is not None:
            return Outcome(SOLVABLE, witness=w, method="random-search",
                           detail="witness found by seeded search")
    return Outcome(UNKNOWN, method="capped", detail=note)


def _decide_collinear(terms, supp, d_value, equations, seed, face_key,
                      budget):
    """Support on a line: reduce to univariate square-free/gcd algebra."""
    n = len(supp[0])
    delta = primitive(linalg.sub_vec(supp[1], supp[0]))
    j = next(i for i in range(n) if delta[i] != 0)
    steps = {l: Fraction(l[j] - supp[0][j], delta[j]) for l in supp}
    if any(s.denominator != 1 for s in steps.values()):
        raise AnomalyDetected("collinear support is off its lattice line")
    # the base is the support point at the lowest step along delta
    base = min(supp, key=steps.get)
    p = _line_polynomial(terms, {l: int(s) for l, s in steps.items()})
    pprime = p.derivative()

    parallel = linalg.rank([list(base), list(delta)]) <= 1
    if parallel and d_value != 0:
        # base = c * delta with c != 0: gradient reduces to c*P + u*P' = 0
        c = Fraction(base[j], delta[j])
        target = p.scale(c.numerator) + pprime.shift(1).scale(c.denominator)
        reason = "parallel support line: roots of c*P + u*P'"
    else:
        # independent (or d = 0): need P and P' to vanish together
        target = poly_gcd(p, pprime)
        reason = "repeated nonzero roots of the line polynomial"
    if target.degree() <= 0:
        return Outcome(EMPTY, method="collinear-exact", detail=reason)
    if not is_exact(terms):
        return Outcome(SOLVABLE, method="collinear-exact",
                       detail=reason + "; witness via specialization")
    names = tuple(f"v{i+1}" for i in range(n))
    # <bezout, delta> = 1, so xi = s^bezout gives xi^delta = s
    w = _subgroup_witness(squarefree_part(target), bezout_vector(delta),
                          names, equations)
    if w is not None:
        detail = reason
        if w.kind == "algebraic":
            detail += "; algebraic witness"
        return Outcome(SOLVABLE, witness=w, method="collinear-exact",
                       detail=detail)
    return _fallback(equations, n, seed, face_key, budget,
                     note=reason + "; witness construction failed")


def _decide_planar(terms, supp, d_value, equations, seed, face_key, budget):
    """Support of affine dimension two: reduce to two torus variables."""
    n = len(supp[0])
    base = supp[0]
    diffs = [linalg.sub_vec(l, base) for l in supp[1:]]
    basis, completion, _ = linalg.saturation_basis([list(d) for d in diffs])
    if len(basis) != 2:
        raise AnomalyDetected("planar support spans a lattice of rank "
                              f"{len(basis)}")
    w_inv = linalg.invert_unimodular([list(r) for r in completion])
    base_coords = linalg.coordinates_in_basis(base, completion)
    if base_coords is None:
        raise AnomalyDetected("unimodular completion misses a lattice point")
    if d_value == 0 and all(c == 0 for c in base_coords[2:]):
        return _fallback(equations, n, seed, face_key, budget,
                         note="zero-degree planar face outside the subclass")

    reduced = {}
    for l, c in terms.items():
        coords = linalg.coordinates_in_basis(linalg.sub_vec(l, base),
                                             completion)
        if coords is None or any(coords[2:]):
            raise AnomalyDetected("planar support point outside its plane")
        reduced[(coords[0], coords[1])] = c
    exps = sorted(reduced)
    k = len(exps)
    sample = next(iter(terms.values()))
    one = sample / sample
    zero = sample - sample

    if k == 3:
        # after normalizing by one term, the monomial values must solve an
        # inconsistent linear system
        return Outcome(EMPTY, method="planar-trinomial",
                       detail="three-term planar face function is regular "
                              "on the torus")
    if k == 4:
        return _decide_planar_quadrinomial(
            reduced, exps, terms, w_inv, equations,
            zero, one, seed, face_key, budget, n)
    return _fallback(equations, n, seed, face_key, budget,
                     note=f"planar face with {k} terms exceeds the subclass")


def _decide_planar_quadrinomial(reduced, exps, terms, w_inv, equations,
                                zero, one, seed, face_key, budget, n):
    """Four-term planar face: linearize in the three non-base monomials."""
    base_exp = (0, 0)
    if base_exp not in exps:
        raise AnomalyDetected("planar face misses its base point")
    others = [e for e in exps if e != base_exp]
    c0 = reduced[base_exp]
    # relative exponents and coefficients
    rel = [(e[0] - base_exp[0], e[1] - base_exp[1]) for e in others]
    cs = [reduced[e] / c0 for e in others]
    rows = [
        [one, one, one],
        [one * rel[0][0], one * rel[1][0], one * rel[2][0]],
        [one * rel[0][1], one * rel[1][1], one * rel[2][1]],
    ]
    rhs = [zero - one, zero, zero]
    ms, null = linalg.solve_field_system(rows, rhs, zero, one)
    if ms is None:
        return Outcome(EMPTY, method="planar-quadrinomial",
                       detail="monomial-value system is inconsistent")
    if null:
        # the columns (1, rel_j) are dependent only when the rel_j are
        # collinear, and then consistency puts the base on their line
        raise AnomalyDetected("consistent singular system on a planar face")
    if any(m.is_zero() for m in ms):
        return Outcome(EMPTY, method="planar-quadrinomial",
                       detail="forced monomial value vanishes")
    # the term c_j u^{rel_j} takes the value m_j, so u^{rel_j} = m_j / c_j
    status, assignment = solve_monomial_system(
        rel, [m / c for m, c in zip(ms, cs)])
    if status == "inconsistent":
        return Outcome(EMPTY, method="planar-quadrinomial",
                       detail="multiplicative relation fails")
    if not is_exact(terms):
        return Outcome(SOLVABLE, method="planar-quadrinomial",
                       detail="monomial values realizable; witness via "
                              "specialization")
    if status == "solved":
        # map the plane coordinates u back to the torus
        u_full = list(assignment) + [GaussianRational(1)] * (n - 2)
        names = tuple(f"v{i+1}" for i in range(n))
        w = PointWitness(names, [
            linalg._power_product(GaussianRational(1), u_full, row)
            for row in w_inv])
        if w.verify(equations):
            return Outcome(SOLVABLE, witness=w, method="planar-quadrinomial",
                           detail="witness from monomial-value solve")
    return _fallback(equations, n, seed, face_key, budget,
                     note="planar solutions exist but witness roots are not "
                          "Gaussian rational")


# ---------------------------------------------------------------------------
# general equation systems (local tameness)
# ---------------------------------------------------------------------------

def decide_equation_system(equations, n_vars, seed=0, face_key="",
                           budget=200):
    """Does the system of term maps have a common zero on the torus?

    Identically-zero equations must be removed by the caller or are removed
    here; an empty system is solvable everywhere. As for gradient systems,
    coefficients in Q(i)(t) give witness-free solvable outcomes.
    """
    eqs = [dict(e) for e in equations if e]
    names = tuple(f"v{i+1}" for i in range(n_vars))
    if not eqs:
        w = PointWitness(names, tuple(GaussianRational(1)
                                      for _ in range(n_vars)))
        return Outcome(SOLVABLE, witness=w, method="identically-zero",
                       detail="all equations vanish identically; every "
                              "torus point is a solution")
    if any(len(e) == 1 for e in eqs):
        return Outcome(EMPTY, method="monomial-partial",
                       detail="a single-monomial equation never vanishes "
                              "on the torus")
    if all(len(e) == 2 for e in eqs):
        return _decide_binomial_system(eqs, n_vars, names,
                                       seed, face_key, budget)
    if len(eqs) == 1:
        return _decide_single_equation(eqs[0], n_vars, names,
                                       seed, face_key, budget)
    return _fallback(eqs, n_vars, seed, face_key, budget,
                     note="multi-equation system outside the subclass")


def _decide_binomial_system(eqs, n_vars, names, seed, face_key, budget):
    gammas = []
    values = []
    for e in eqs:
        (ea, ca), (eb, cb) = sorted(e.items())
        gamma = linalg.sub_vec(ea, eb)
        v = (cb / ca) * (-1)
        gammas.append(tuple(gamma))
        values.append(v)
    exact = is_exact(eqs[0])
    status, assignment = solve_monomial_system(gammas, values)
    if status == "inconsistent":
        return Outcome(EMPTY, method="binomial-system",
                       detail="character relation fails on the torus"
                       if exact else "character relation fails")
    if not exact:
        return Outcome(SOLVABLE, method="binomial-system",
                       detail="character relations hold; witness via "
                              "specialization")
    if status == "solved":
        w = PointWitness(names, assignment)
        if w.verify(eqs):
            return Outcome(SOLVABLE, witness=w, method="binomial-system",
                           detail="witness from character solve")
    return _fallback(eqs, n_vars, seed, face_key, budget,
                     note="binomial system solvable but roots are not "
                          "Gaussian rational")


def _decide_single_equation(eq, n_vars, names, seed, face_key, budget):
    """A single equation with >= 3 terms always vanishes somewhere on the
    torus; build a witness through a one-parameter substitution."""
    if not is_exact(eq):
        return Outcome(SOLVABLE, method="curve-substitution",
                       detail="multi-term equation always vanishes on the "
                              "torus; witness via specialization")
    # cheap pass first: small rational points give far nicer witnesses than
    # the curve substitution below
    rng = derived_rng(seed, face_key)
    quick = random_search([eq], n_vars, rng, min(budget, 150))
    if quick is not None:
        return Outcome(SOLVABLE, witness=quick, method="curve-substitution",
                       detail="witness by direct search")
    exps = sorted(eq)
    mu = _separating_direction(exps, n_vars)
    p = _line_polynomial(eq, {e: dot(mu, e) for e in exps})
    if p.term_count() < 2:
        raise AnomalyDetected("separating direction collapsed the equation")
    w = _subgroup_witness(squarefree_part(p), mu, names, [eq])
    if w is not None:
        detail = "witness on a one-parameter subgroup"
        if w.kind == "algebraic":
            detail = "algebraic " + detail
        return Outcome(SOLVABLE, witness=w, method="curve-substitution",
                       detail=detail)
    return _fallback([eq], n_vars, seed, face_key, budget,
                     note="single-equation witness construction failed")


def _separating_direction(exps, n_vars):
    """An integer direction giving distinct values on all exponents.

    Small directions keep the substituted polynomial (and hence any
    algebraic witness modulus) small, so they are tried first. Coordinates
    no exponent uses get 0; both searches run over the used ones only.
    """
    used = [i for i in range(n_vars) if any(e[i] for e in exps)]

    def separating(entries):
        mu = [0] * n_vars
        for i, m in zip(used, entries):
            mu[i] = m
        mu = tuple(mu)
        return mu if len({dot(mu, e) for e in exps}) == len(exps) else None

    if len(used) <= 6:
        for bound in (1, 2, 3):
            for entries in itertools.product(range(bound + 1),
                                             repeat=len(used)):
                if any(entries):
                    mu = separating(entries)
                    if mu is not None:
                        return mu
    spread = 1 + max(
        max(abs(x) for x in e) if e else 0 for e in exps
    )
    for b in range(spread, 4 * spread + 2):
        mu = separating([b ** k for k in range(len(used))])
        if mu is not None:
            return mu
    raise AnomalyDetected("no separating direction found")
