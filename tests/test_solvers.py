import inspect
import itertools
import random
from fractions import Fraction

import pytest

from toricsing.errors import AnomalyDetected
from toricsing.linalg import _power_product, dot
from toricsing.polynomials import Poly, RationalFunction
from toricsing.rationals import GaussianRational
from toricsing import solvers
from toricsing.solvers import (
    EMPTY,
    SOLVABLE,
    UNKNOWN,
    AlgebraicWitness,
    Outcome,
    PointWitness,
    bezout_vector,
    decide_equation_system,
    decide_gradient_system,
    euler_maps,
    gaussian_roots,
    gradient_equations,
    random_search,
    solve_monomial_system,
)


def gr(x, y=0):
    return GaussianRational(x, y)


def decide_gradient(terms, n, d_value, **kwargs):
    return decide_gradient_system(
        terms, n, d_value, gradient_equations(terms, n, d_value), **kwargs)


def test_bezout_vector():
    rng = random.Random(5)
    for _ in range(60):
        n = rng.randint(1, 4)
        gamma = tuple(rng.randint(-6, 6) for _ in range(n))
        if all(x == 0 for x in gamma):
            continue
        m = bezout_vector(gamma)
        from toricsing.linalg import vector_gcd
        assert dot(m, gamma) == vector_gcd(gamma)


def test_solve_monomial_system_roundtrip():
    # zeta1^2 zeta2 = 4, zeta2 = 1
    status, z = solve_monomial_system([(2, 1), (0, 1)], [gr(4), gr(1)])
    assert status == "solved"
    assert (z[0] ** 2) * z[1] == gr(4)
    assert z[1] == gr(1)


def test_solve_monomial_system_inconsistent():
    # zeta = 2 and zeta = 3 cannot both hold
    status, _ = solve_monomial_system([(1,), (1,)], [gr(2), gr(3)])
    assert status == "inconsistent"


def test_gaussian_roots_quadratic():
    # u^2 + 1 has roots +-i
    p = Poly([gr(1), gr(0), gr(1)])
    roots = gaussian_roots(p)
    assert set(roots) == {gr(0, 1), gr(0, -1)}


def test_gradient_monomial_face():
    out = decide_gradient({(4, 0): gr(1)}, 2, 4)
    assert out.status == EMPTY


def test_gradient_vertical_segment_regular():
    # collected form xi1^4 - xi1^4 xi2^6: P = 1 - u^6 has no repeated roots
    out = decide_gradient({(4, 0): gr(1), (4, 6): gr(-1)}, 2, 4)
    assert out.status == EMPTY
    assert out.method == "collinear-exact"


def test_gradient_repeated_root_segment():
    # xi1^2 (1 - xi2)^2: the line polynomial has the double root u = 1
    terms = {(2, 0): gr(1), (2, 1): gr(-2), (2, 2): gr(1)}
    out = decide_gradient(terms, 2, 2)
    assert out.status == SOLVABLE
    assert isinstance(out.witness, PointWitness)
    eqs = [m for m in euler_maps(terms, 2) if m]
    assert out.witness.verify(eqs)


def test_gradient_zero_degree_uses_value_equation():
    # xi1 + xi1^2 with d = 0: the zero set {xi1 = -1} is regular
    out = decide_gradient({(1, 0): gr(1), (2, 0): gr(1)}, 2, 0)
    assert out.status == EMPTY


def test_gradient_planar_trinomial_regular():
    # three-term planar faces are always non-degenerate
    terms = {(3, 0, 0): gr(1), (0, 3, 0): gr(1), (1, 1, 1): gr(-3)}
    out = decide_gradient(terms, 3, 3)
    assert out.status == EMPTY
    assert out.method == "planar-trinomial"


def test_gradient_fermat_like_quadrinomial():
    # x^3 + y^3 + z^3 + c xyz on the weight-(1,1,1) plane: singular torus
    # points exist exactly when c^3 = -27
    singular = {
        (3, 0, 0): gr(1), (0, 3, 0): gr(1), (0, 0, 3): gr(1),
        (1, 1, 1): gr(-3),
    }
    out = decide_gradient(singular, 3, 3)
    assert out.status == SOLVABLE
    assert out.witness is not None
    eqs = [m for m in euler_maps(singular, 3) if m]
    assert out.witness.verify(eqs)

    regular = {
        (3, 0, 0): gr(1), (0, 3, 0): gr(1), (0, 0, 3): gr(1),
        (1, 1, 1): gr(1),
    }
    out2 = decide_gradient(regular, 3, 3)
    assert out2.status == EMPTY


def test_equation_system_empty_list_is_everywhere_critical():
    out = decide_equation_system([], 3)
    assert out.status == SOLVABLE
    assert out.witness.values == (gr(1),) * 3


def test_equation_system_monomial_blocks():
    out = decide_equation_system([{(1, 0): gr(2)}], 2)
    assert out.status == EMPTY


def test_equation_system_scaling_binomial():
    # 2 u1^2 z - 2 u2^3 z = 0 has the witness u1 = u2 = z = 1
    eq = {(2, 0, 1): gr(2), (0, 3, 1): gr(-2)}
    out = decide_equation_system([eq], 3)
    assert out.status == SOLVABLE
    assert out.witness.verify([eq])


def test_equation_system_inconsistent_binomials():
    eqs = [
        {(1,): gr(1), (0,): gr(-2)},
        {(1,): gr(1), (0,): gr(-3)},
    ]
    out = decide_equation_system(eqs, 1)
    assert out.status == EMPTY


def test_single_equation_three_terms_algebraic_witness():
    # 1 + u + u^2 = 0 has only the primitive cube roots of unity
    eq = {(0,): gr(1), (1,): gr(1), (2,): gr(1)}
    out = decide_equation_system([eq], 1)
    assert out.status == SOLVABLE
    assert isinstance(out.witness, AlgebraicWitness)
    assert out.witness.verify([eq])


def test_single_equation_multivariate():
    eq = {(1, 0): gr(1), (0, 1): gr(1), (1, 1): gr(1)}
    out = decide_equation_system([eq], 2)
    assert out.status == SOLVABLE
    assert out.witness.verify([eq])


def test_point_witness_rejects_nonzero_residual():
    w = PointWitness(("a",), (gr(1),))
    assert not w.verify([{(1,): gr(1)}])


def test_algebraic_witness_requires_unit_coordinates():
    # value s is not invertible modulo s^2 (shares the root 0)
    modulus = Poly([gr(0), gr(0), gr(1)])
    w = AlgebraicWitness(("a",), (Poly([gr(0), gr(1)]),), modulus)
    assert not w.verify([{}])


def test_search_fallback_finds_structured_point():
    # (1+x)(1+y) expanded, shifted onto the torus, with d = 0: the point
    # (-1,-1) is a genuine singular point of the zero set
    terms = {(1, 1): gr(1), (2, 1): gr(1), (1, 2): gr(1), (2, 2): gr(1)}
    out = decide_gradient(terms, 2, 0)
    assert out.status == SOLVABLE
    eqs = [dict(terms)] + [m for m in euler_maps(terms, 2) if m]
    assert out.witness.verify(eqs)


def test_collinear_algebraic_witness_uses_inverse_powers():
    # the line polynomial (u^2 - 3)^2 along delta = (3, 5): the repeated
    # roots +-sqrt(3) leave Q(i), and the Bezout vector (2, -1) of delta
    # needs both s^2 and s^-1 modulo s^2 - 3
    base, delta = (1, 0), (3, 5)
    line = [gr(9), gr(0), gr(-6), gr(0), gr(1)]
    terms = {
        tuple(b + k * x for b, x in zip(base, delta)): c
        for k, c in enumerate(line) if not c.is_zero()
    }
    assert bezout_vector(delta) == (2, -1)
    out = decide_gradient(terms, 2, 1)
    assert out.status == SOLVABLE
    assert out.detail.endswith("; algebraic witness")
    w = out.witness
    assert isinstance(w, AlgebraicWitness)
    assert w.verify([m for m in euler_maps(terms, 2) if m])
    m = w.modulus
    assert m == Poly([gr(-3), gr(0), gr(1)])
    for value, e in zip(w.values, bezout_vector(delta)):
        power = Poly([gr(0)] * abs(e) + [gr(1)])
        assert value.degree() < m.degree()
        if e >= 0:
            assert value == power % m
        else:
            assert (value * power) % m == Poly.constant(gr(1))
    # s^2 = 3 and s^-1 = s/3 modulo s^2 - 3
    assert w.values == (Poly.constant(gr(3)),
                        Poly([gr(0), GaussianRational("1/3")]))


def t_coeff(*coeffs):
    return RationalFunction(Poly([gr(c) for c in coeffs]))


def test_rational_function_systems_are_decided_without_witness():
    for decide in (decide_gradient_system, decide_equation_system):
        assert "exact_field" not in inspect.signature(decide).parameters
    # (u - t)^2 along a line: a repeated root for every t
    face = {(1, 0): t_coeff(0, 0, 1), (2, 1): t_coeff(0, -2),
            (3, 2): t_coeff(1)}
    single = {(1, 0): t_coeff(1), (0, 1): t_coeff(0, 1),
              (1, 1): t_coeff(2)}
    binomials = [{(1, 0): t_coeff(1), (0, 1): t_coeff(0, 1)}]
    for out in (decide_gradient(face, 2, 1),
                decide_equation_system([single], 2),
                decide_equation_system(binomials, 2)):
        assert out.status == SOLVABLE
        assert out.witness is None
        assert "witness via specialization" in out.detail


def test_outcome_is_immutable():
    out = Outcome(EMPTY, method="monomial-face")
    with pytest.raises(AttributeError):
        out.status = SOLVABLE


def test_binomial_systems_agree_with_elimination_oracle():
    # seeded systems x^a = r x^b: empty exactly when there is no torus
    # point, and a solvable or unknown outcome only when there is one
    pytest.importorskip("sympy")
    from conftest import sympy_torus_solvable

    rng = random.Random(401)
    ratios = [gr(1), gr(-1), gr(2), gr(-2), gr(3), gr(-3), gr(5), gr(6),
              gr(0, 1)]
    empties = 0
    for _ in range(320):
        n = rng.randint(1, 3)
        exps = list(itertools.product(range(4), repeat=n))
        eqs = []
        for _ in range(rng.randint(2, 3)):
            a, b = rng.sample(exps, 2)
            eqs.append({a: gr(1), b: gr(0) - rng.choice(ratios)})
        out = decide_equation_system(eqs, n, budget=20)
        assert (out.status == EMPTY) == (
            not sympy_torus_solvable(eqs, n)), (eqs, out.detail)
        if out.witness is not None:
            assert out.witness.verify(eqs)
        empties += out.status == EMPTY
    assert empties >= 20


def test_rational_function_binomial_systems():
    # x^2 = t and x^2 = t + 1 have no common torus point for generic t
    inconsistent = [{(2,): t_coeff(1), (0,): t_coeff(0, -1)},
                    {(2,): t_coeff(1), (0,): t_coeff(-1, -1)}]
    out = decide_equation_system(inconsistent, 1)
    assert (out.status, out.method, out.detail) == (
        EMPTY, "binomial-system", "character relation fails")
    # x^2 = t and y = t + 1
    consistent = [{(2, 0): t_coeff(1), (0, 0): t_coeff(0, -1)},
                  {(0, 1): t_coeff(1), (0, 0): t_coeff(-1, -1)}]
    out = decide_equation_system(consistent, 2)
    assert (out.status, out.method, out.detail) == (
        SOLVABLE, "binomial-system",
        "character relations hold; witness via specialization")
    assert out.witness is None


def test_rational_function_planar_quadrinomials():
    # x^3 + y^3 + z^3 + c xyz is singular on the torus iff c^3 = -27
    regular = {(3, 0, 0): t_coeff(1), (0, 3, 0): t_coeff(1),
               (0, 0, 3): t_coeff(1), (1, 1, 1): t_coeff(0, 1)}
    out = decide_gradient(regular, 3, 3)
    assert (out.status, out.method, out.detail) == (
        EMPTY, "planar-quadrinomial", "multiplicative relation fails")
    # y -> t y in the singular member: c = -3t against t^3 y^3
    singular = {(3, 0, 0): t_coeff(1), (0, 3, 0): t_coeff(0, 0, 0, 1),
                (0, 0, 3): t_coeff(1), (1, 1, 1): t_coeff(0, -3)}
    out = decide_gradient(singular, 3, 3)
    assert (out.status, out.method, out.detail) == (
        SOLVABLE, "planar-quadrinomial",
        "monomial values realizable; witness via specialization")
    assert out.witness is None


# ---- the residue test of the witness search ---------------------------------

def exact_random_search(equations, n_vars, rng, budget):
    """The search with exact substitution only, as a reference."""
    names = tuple(f"v{i+1}" for i in range(n_vars))
    if n_vars <= 4:
        units = [gr(1), gr(-1), gr(0, 1), gr(0, -1)]
        for combo in itertools.product(units, repeat=n_vars):
            w = PointWitness(names, combo)
            if w.verify(equations):
                return w
    for _ in range(budget):
        combo = tuple(rng.choice(solvers._SEARCH_POOL) for _ in range(n_vars))
        w = PointWitness(names, combo)
        if w.verify(equations):
            return w
    return None


def random_gaussian(rng):
    """A nonzero Gaussian rational with small parts."""
    return gr(Fraction(rng.choice((-6, -3, -2, -1, 1, 2, 3, 5)),
                       rng.randint(1, 4)),
              rng.choice((0, 0, rng.randint(-3, 3))))


def seeded_system(rng, n, planted):
    """1-3 equations in n variables; with a planted point, the last term of
    each equation is chosen so that the point is a root."""
    eqs = []
    for _ in range(rng.randint(1, 3)):
        exps = rng.sample(list(itertools.product(range(-1, 3), repeat=n)),
                          rng.randint(2, 4))
        terms = {e: random_gaussian(rng) for e in exps}
        if planted is not None:
            last = exps[-1]
            value = sum((_power_product(c, planted, e)
                         for e, c in terms.items() if e != last), gr(0))
            terms[last] = gr(0) - value / _power_product(gr(1), planted, last)
            if terms[last].is_zero():
                del terms[last]
        eqs.append(terms)
    return eqs


def test_residue_test_keeps_the_search_results():
    # same witness, same rng state as exact substitution alone
    rng = random.Random(2020)
    hits = planted_count = 0
    for k in range(360):
        n = rng.randint(2, 4)
        planted = None
        if k % 2 == 0:
            pool = solvers._SEARCH_POOL if n == 2 else solvers._SEARCH_POOL[:4]
            planted = tuple(rng.choice(pool) for _ in range(n))
            planted_count += 1
        eqs = seeded_system(rng, n, planted)
        seed = rng.randint(0, 10 ** 6)
        budget = rng.choice((50, 200))
        r1, r2 = random.Random(seed), random.Random(seed)
        got = random_search(eqs, n, r1, budget)
        want = exact_random_search(eqs, n, r2, budget)
        assert r1.getstate() == r2.getstate()
        if want is None:
            assert got is None, eqs
            continue
        assert (got.names, got.values) == (want.names, want.values), eqs
        hits += 1
    assert planted_count >= 120
    assert hits >= 100


def test_residue_test_keeps_coefficients_with_denominator_p():
    p = solvers._P
    eqs = [{(1, 0): gr(Fraction(1, p)), (0, 0): gr(Fraction(-2, p))},
           {(0, 1): gr(1), (0, 0): gr(Fraction(1, 2))}]
    w = random_search(eqs, 2, random.Random(3), 2000)
    assert w is not None and w.values == (gr(2), gr(Fraction(-1, 2)))
    ref = exact_random_search(eqs, 2, random.Random(3), 2000)
    assert w.values == ref.values


def test_stuck_binomial_system_makes_no_exact_substitution(monkeypatch):
    # v1^2 = 2 has no Gaussian-rational root, so every candidate fails and
    # the residue test rejects each one before exact substitution
    calls = []
    verify = PointWitness.verify

    def counted(self, equations):
        calls.append(1)
        return verify(self, equations)
    monkeypatch.setattr(PointWitness, "verify", counted)
    out = decide_equation_system([{(2, 0): gr(1), (0, 0): gr(-2)}], 2)
    assert out.status == UNKNOWN
    assert calls == []


def test_residue_map_is_a_ring_homomorphism():
    p, iota, residue = solvers._P, solvers._IOTA, solvers._residue
    assert p % 4 == 1 and iota * iota % p == p - 1
    assert residue(gr(0, 1)) == iota
    rng = random.Random(7)
    for _ in range(200):
        a, b = random_gaussian(rng), random_gaussian(rng)
        assert residue(a + b) == (residue(a) + residue(b)) % p
        assert residue(a * b) == residue(a) * residue(b) % p
        assert residue(gr(1) / a) == pow(residue(a), -1, p)
    assert residue(gr(Fraction(1, p))) is None
    assert [z for z, _ in solvers._POOL_IMAGES] == solvers._SEARCH_POOL
    assert all(r == residue(z) and r != 0 for z, r in solvers._POOL_IMAGES)


def test_rational_function_with_a_constant_denominator_skips_the_gcd(
        monkeypatch):
    # the normalized num/den equal the gcd path's, and no gcd runs when
    # the denominator is a nonzero constant
    from toricsing import polynomials

    def gcd_path(num, den):
        g = polynomials.gcd(num, den)
        if g.degree() >= 1:
            num, den = num.divmod(g)[0], den.divmod(g)[0]
        lead = den.leading()
        return num.scale(gr(1) / lead), den.scale(gr(1) / lead)

    rng = random.Random(67)
    cases = []
    for _ in range(200):
        num = Poly([gr(rng.randint(-5, 5), rng.randint(-2, 2))
                    for _ in range(rng.randint(1, 4))])
        den = Poly([GaussianRational(Fraction(rng.randint(1, 9),
                                              rng.randint(1, 4)),
                                     rng.randint(-2, 2))])
        if not num.is_zero():
            cases.append((num, den, gcd_path(num, den)))
    gcd = polynomials.gcd
    calls = []
    monkeypatch.setattr(polynomials, "gcd",
                        lambda a, b: calls.append(1) or gcd(a, b))
    for num, den, (ref_num, ref_den) in cases:
        f = RationalFunction(num, den)
        assert (f.num, f.den) == (ref_num, ref_den)
        assert f.den == Poly.constant(gr(1))
    assert len(cases) >= 150 and not calls
    # a nonconstant denominator still takes the gcd path
    t = Poly([gr(0), gr(1)])
    f = RationalFunction(t * t, t.scale(gr(2)))
    assert calls and (f.num, f.den) == (t.scale(GaussianRational("1/2")),
                                        Poly.constant(gr(1)))


# ---------------------------------------------------------------------------
# the curve-substitution direction
# ---------------------------------------------------------------------------

def _separating_direction_over_all_coordinates(exps, n_vars):
    """The direction search as it was before unused coordinates were left
    out: small directions over every coordinate up to six variables, else
    (1, b, b^2, ...) over all of them."""
    if n_vars <= 6:
        for bound in (1, 2, 3):
            for mu in itertools.product(range(bound + 1), repeat=n_vars):
                if all(m == 0 for m in mu):
                    continue
                proj = [dot(mu, e) for e in exps]
                if len(set(proj)) == len(exps):
                    return mu
    spread = 1 + max(
        max(abs(x) for x in e) if e else 0 for e in exps
    )
    for b in range(spread, 4 * spread + 2):
        mu = tuple(b ** i for i in range(n_vars))
        proj = [dot(mu, e) for e in exps]
        if len(set(proj)) == len(exps):
            return mu
    raise AnomalyDetected("no separating direction found")


def test_separating_direction_unchanged_up_to_six_variables():
    rng = random.Random(419)
    for _ in range(300):
        n = rng.randint(1, 6)
        k = rng.randint(2, 5)
        exps = sorted({
            tuple(rng.randint(0, 4) if rng.random() < 0.5 else 0
                  for _ in range(n))
            for _ in range(k)
        })
        if len(exps) < 2:
            continue
        assert solvers._separating_direction(exps, n) == \
            _separating_direction_over_all_coordinates(exps, n), exps


@pytest.mark.parametrize("r", [8, 10])
def test_curve_substitution_ignores_unused_coordinates(r):
    # z1^2 + 7 z2^3 + 11 z1 z3 with r - 3 coordinates no term uses: the
    # direction over all r coordinates gave moduli of degree 15 and powers
    # s^16384 at r = 8, and did not finish at r = 9
    def e(**powers):
        return tuple(powers.get(f"z{i + 1}", 0) for i in range(r))

    eq = {e(z1=2): gr(1), e(z2=3): gr(7), e(z1=1, z3=1): gr(11)}
    mu = solvers._separating_direction(sorted(eq), r)
    assert all(m == 0 for m in mu[3:])
    out = decide_equation_system([eq], r)
    assert out.status == SOLVABLE
    assert out.witness is not None and out.witness.verify([eq])
