"""Shared fixtures: the standing example varieties and polynomials, and
the independent oracles the tests check the library against."""
from fractions import Fraction

import pytest

from toricsing.checks import restrict
from toricsing.errors import AnomalyDetected, ToricError
from toricsing.linalg import is_zero_vec
from toricsing.newton import ToricPolynomial, torus_form
from toricsing.rationals import GaussianRational
from toricsing.variety import build_variety


def gr(x, y=0):
    return GaussianRational(x, y)


# ---------------------------------------------------------------------------
# exact feasibility LP (phase-1 simplex with Bland's rule)
# ---------------------------------------------------------------------------

def nonneg_solve_exact(columns, target):
    """Decide whether target is a nonnegative rational combination of columns.

    columns: list of equal-length integer/rational vectors. Returns a list of
    Fraction coefficients or None. This is the independent membership oracle
    for cone computations (simplex, not the dual description).
    """
    if not columns:
        return [] if is_zero_vec(target) else None
    m = len(target)
    k = len(columns)
    # rows of the tableau: A x + I s = b with b >= 0 after sign flips
    a = [[Fraction(columns[j][i]) for j in range(k)] for i in range(m)]
    b = [Fraction(x) for x in target]
    for i in range(m):
        if b[i] < 0:
            b[i] = -b[i]
            a[i] = [-x for x in a[i]]
    # artificial variables get indices k..k+m-1
    tableau = [a[i] + [Fraction(1) if j == i else Fraction(0) for j in range(m)] + [b[i]]
               for i in range(m)]
    basis = list(range(k, k + m))
    total = k + m

    def objective_row():
        # phase-1 objective: sum of artificial variables, expressed in the
        # current basis
        row = [Fraction(0)] * (total + 1)
        for i, bi in enumerate(basis):
            if bi >= k:
                row = [r + c for r, c in zip(row, tableau[i])]
        return row

    obj = objective_row()
    guard = 0
    while True:
        guard += 1
        if guard > 10000:
            raise AnomalyDetected("simplex failed to terminate")
        # artificial variables never re-enter; only the k original columns do
        enter = next((j for j in range(k) if j not in basis and obj[j] > 0), None)
        if enter is None:
            break
        ratios = [(tableau[i][total] / tableau[i][enter], basis[i], i)
                  for i in range(m) if tableau[i][enter] > 0]
        if not ratios:
            break  # unbounded phase-1 cannot happen, but stay safe
        _, _, leave = min(ratios, key=lambda t: (t[0], t[1]))
        piv = tableau[leave][enter]
        tableau[leave] = [x / piv for x in tableau[leave]]
        for i in range(m):
            if i != leave and tableau[i][enter] != 0:
                f = tableau[i][enter]
                tableau[i] = [x - f * y for x, y in zip(tableau[i], tableau[leave])]
        basis[leave] = enter
        obj = objective_row()
    if obj[total] != 0:
        return None
    coeffs = [Fraction(0)] * k
    for i, bi in enumerate(basis):
        if bi < k:
            coeffs[bi] = tableau[i][total]
        elif tableau[i][total] != 0:
            return None
    return coeffs


def in_cone_oracle(point, generators) -> bool:
    """Independent membership test: exact phase-1 simplex, no dual cones."""
    coeffs = nonneg_solve_exact([list(g) for g in generators], list(point))
    return coeffs is not None


def _sympy_form(terms, xs):
    """A term map with Gaussian-rational coefficients as a sympy
    expression in xs."""
    import sympy

    form = sympy.Integer(0)
    for lam, coeff in terms.items():
        mono = sympy.Integer(1)
        for xi, e in zip(xs, lam):
            mono *= xi ** int(e)
        c = (sympy.Rational(coeff.re.numerator, coeff.re.denominator)
             + sympy.I * sympy.Rational(coeff.im.numerator,
                                        coeff.im.denominator))
        form += c * mono
    return form


def _sympy_torus_nonempty(eqs, xs):
    """Whether the polynomials eqs have a common zero with every xs
    coordinate nonzero: a Groebner basis saturated at the coordinate
    product."""
    import sympy

    y = sympy.Symbol("y")
    sat = 1 - y * sympy.prod(xs)
    gb = sympy.groebner(eqs + [sat], *xs, y, order="grevlex")
    return list(gb.exprs) != [sympy.Integer(1)]


def sympy_gradient_torus_solvable(terms, n):
    """Independent oracle: does the Euler-gradient system of the lattice
    form have a torus zero? Decided by a Groebner basis saturated at the
    coordinate product."""
    import sympy

    xs = sympy.symbols(f"x1:{n + 1}")
    L = _sympy_form(terms, xs)
    eqs = []
    for xi in xs:
        d = sympy.expand(xi * sympy.diff(L, xi))
        if d != 0:
            eqs.append(d)
    return _sympy_torus_nonempty(eqs, xs)


def sympy_torus_solvable(equations, n):
    """Independent oracle: do the term maps (nonnegative exponents) have a
    common zero on the torus (C*)^n? Decided like the gradient oracle."""
    import sympy

    xs = sympy.symbols(f"x1:{n + 1}")
    return _sympy_torus_nonempty([_sympy_form(e, xs) for e in equations],
                                 xs)


def restriction_is_zero(g, index_set) -> bool:
    """Whether the restriction of g to the orbit closure of the index set
    vanishes: the reference for checks.vanishing_split, which reads the
    split off g's form. Restricts at exponent level, then collects, so
    exponent-level terms may cancel."""
    return torus_form(restrict(g, index_set)).is_zero()


def random_polynomial(rng, variety, max_terms=4, max_exp=3,
                      gaussian=True):
    """A random nonzero polynomial on the variety with small exponents."""
    r = variety.r
    while True:
        k = rng.randint(2, max_terms)
        terms = {}
        for _ in range(k):
            exp = tuple(
                rng.randint(0, max_exp) if rng.random() < 0.7 else 0
                for _ in range(r)
            )
            if all(e == 0 for e in exp):
                continue
            if gaussian:
                c = GaussianRational(rng.randint(-3, 3), rng.randint(-1, 1))
            else:
                c = GaussianRational(rng.randint(-3, 3))
            if c.is_zero():
                c = GaussianRational(1)
            terms[exp] = c
        if not terms:
            continue
        try:
            g = ToricPolynomial(variety, terms)
        except ToricError:
            continue
        if not torus_form(g).is_zero():
            return g


@pytest.fixture(scope="session")
def surface_variety():
    """n=2 variety with dual cone ((1,0),(1,2)) and three generators."""
    return build_variety(sigma_rays=[(0, 1), (2, -1)])


@pytest.fixture(scope="session")
def space_c3():
    """Affine 3-space as a toric variety, z_k bound to the k-th axis."""
    return build_variety(generators=[(1, 0, 0), (0, 1, 0), (0, 0, 1)])


@pytest.fixture(scope="session")
def embedded_3fold():
    """The n=3 variety embedded in C^4 with the 4-generator system."""
    return build_variety(
        generators=[(0, 1, 2), (2, 1, 0), (1, 0, 3), (1, 1, 1)]
    )


def staircase(q):
    return build_variety(generators=[(1, j) for j in range(q + 1)])


@pytest.fixture(scope="session")
def staircase_q5():
    return staircase(5)


@pytest.fixture(scope="session")
def quartic_mixed(surface_variety):
    """z1^4 + z1^2 z2 + z1 z2^2 - z1 z2 z3^2 on the surface variety."""
    return ToricPolynomial(
        surface_variety,
        {
            (4, 0, 0): gr(1),
            (2, 1, 0): gr(1),
            (1, 2, 0): gr(1),
            (1, 1, 2): gr(-1),
        },
    )


@pytest.fixture(scope="session")
def quartic_vertical(surface_variety):
    """z1^4 + z2^4 z3 - z2^2 z3^2 on the surface variety."""
    return ToricPolynomial(
        surface_variety,
        {
            (4, 0, 0): gr(1),
            (0, 4, 1): gr(1),
            (0, 2, 2): gr(-1),
        },
    )


@pytest.fixture(scope="session")
def quartic_vertical_c3(space_c3):
    """z1^4 + z2 z3^4 - z2^2 z3^2 on affine 3-space."""
    return ToricPolynomial(
        space_c3,
        {
            (4, 0, 0): gr(1),
            (0, 1, 4): gr(1),
            (0, 2, 2): gr(-1),
        },
    )


@pytest.fixture(scope="session")
def fourfold_poly(embedded_3fold):
    """z1^2 z3^3 + z2^2 z3^3 + z3^4 - 5 z3^3 z4^3 on the embedded 3-fold."""
    return ToricPolynomial(
        embedded_3fold,
        {
            (2, 0, 3, 0): gr(1),
            (0, 2, 3, 0): gr(1),
            (0, 0, 4, 0): gr(1),
            (0, 0, 3, 3): gr(-5),
        },
    )


@pytest.fixture(scope="session")
def tame_surface_poly(surface_variety):
    """z1^2 z3^2 - z2^3 z3^2 + z3^3 on the surface variety."""
    return ToricPolynomial(
        surface_variety,
        {
            (2, 0, 2): gr(1),
            (0, 3, 2): gr(-1),
            (0, 0, 3): gr(1),
        },
    )


@pytest.fixture(scope="session")
def untame_c3_poly(space_c3):
    """z1^2 z3^2 - z2^3 z3^2 + z3^3 on affine 3-space."""
    return ToricPolynomial(
        space_c3,
        {
            (2, 0, 2): gr(1),
            (0, 3, 2): gr(-1),
            (0, 0, 3): gr(1),
        },
    )
