"""Exact linear algebra.

Matrices are lists of rows. All elimination goes through one fraction-free
Gauss–Jordan (Bareiss) core, ``_row_reduce``: rank, lattice coordinates,
double-description seeds and the adjugate behind inverses stay in the
integers, and ``solve_field_system`` runs it over Q(i) or Q(i)(t). Integer
lattice work (Smith normal form, saturations) is a separate algorithm.
``_power_product`` evaluates a character v^e, the one power loop behind
torus solves, witness checks and torus points. Sizes are tiny (ambient
dimension is at most 5, the homogenized Newton cone of a 4-dimensional
lattice), so the implementations favour clarity and exactness over
asymptotics.
"""
from __future__ import annotations

import math
import operator

from .errors import AnomalyDetected


# ---------------------------------------------------------------------------
# vectors
# ---------------------------------------------------------------------------

def dot(u, v):
    return sum(map(operator.mul, u, v))


def vector_gcd(v) -> int:
    return math.gcd(*map(int, v))


def primitive(v):
    """Divide an integer vector by the gcd of its entries (0 stays 0)."""
    g = vector_gcd(v) or 1
    return tuple(int(x) // g for x in v)


def sub_vec(u, v):
    return tuple(a - b for a, b in zip(u, v))


def is_zero_vec(v):
    return all(x == 0 for x in v)


def _power_product(start, values, exponent):
    """start * prod values_i^exponent_i over any exact field, for integer
    exponents (negatives allowed); zero exponents cost nothing. start may
    be the int 1 when the exponent is nonzero."""
    for v, e in zip(values, exponent):
        if e:
            start = start * (v ** int(e))
    return start


# ---------------------------------------------------------------------------
# exact elimination
# ---------------------------------------------------------------------------

def _row_reduce(aug, n):
    """Fraction-free Gauss–Jordan (Bareiss) elimination on the first n
    columns of aug, in place; columns past n are carried along.

    Each update (p·x − f·y) / prev divides exactly: by // when every entry
    is an int, so integers stay integers, and by / over any other exact
    field (Fraction, GaussianRational, RationalFunction), into which int
    entries are lifted first. A row swap negates the row it moves up, which
    keeps the determinant. Returns the pivot columns: row i < len(pivots)
    holds the same d in column pivots[i] and 0 in the other pivot columns,
    and the rows below are zero in the first n columns. So [A | I] with A
    square and nonsingular becomes [det A · I | adj A].
    """
    ints = all(type(x) is int for row in aug for x in row)
    if not ints:
        z = next(x - x for row in aug for x in row if type(x) is not int)
        aug[:] = [[x + z if type(x) is int else x for x in row] for row in aug]
    div = operator.floordiv if ints else operator.truediv
    pivots, prev = [], 1
    for c in range(n):
        r = len(pivots)
        piv = next((i for i in range(r, len(aug)) if aug[i][c] != 0), None)
        if piv is None:
            continue
        if piv != r:
            aug[r], aug[piv] = [-x for x in aug[piv]], aug[r]
        top, p = aug[r], aug[r][c]
        for i in range(len(aug)):
            f = aug[i][c]
            if i != r and (f != 0 or p != prev):
                aug[i] = [div(p * x - f * y, prev) for x, y in zip(aug[i], top)]
        pivots.append(c)
        prev = p
    return pivots


def adjugate(rows):
    """(det A, adj A) of a nonsingular square matrix A, from one elimination
    of [A | I]; integer matrices give integers. A^-1 = adj A / det A."""
    n = len(rows)
    aug = [list(row) + [int(i == j) for j in range(n)]
           for i, row in enumerate(rows)]
    if len(_row_reduce(aug, n)) < n:
        raise AnomalyDetected("matrix to invert is singular")
    return aug[0][0], [row[n:] for row in aug]


def rank(rows) -> int:
    """Rank of a matrix over the integers or any exact field."""
    m = [list(row) for row in rows]
    return len(_row_reduce(m, len(m[0]) if m else 0))


def solve_field_system(rows, rhs, zero, one):
    """Solve A x = b over an exact field (Q(i), Q(i)(t), ...).

    Returns (particular, nullspace_basis), with the free variables of the
    particular solution at zero, or (None, nullspace_basis) when
    inconsistent.
    """
    n = len(rows[0]) if rows else 0
    aug = [list(row) + [b] for row, b in zip(rows, rhs)]
    pivots = _row_reduce(aug, n)
    sol = None
    if all(row[n] == 0 for row in aug[len(pivots):]):
        sol = [zero] * n
        for row, c in zip(aug, pivots):
            sol[c] = row[n] / row[c]
    null = []
    for fc in range(n):
        if fc in pivots:
            continue
        vec = [zero] * n
        vec[fc] = one
        for row, pc in zip(aug, pivots):
            vec[pc] = zero - row[fc] / row[pc]
        null.append(vec)
    return sol, null


def invert_unimodular(m_rows):
    """Inverse of a unimodular integer matrix, as integer rows."""
    d, adj = adjugate(m_rows)
    if abs(d) != 1:
        raise AnomalyDetected("matrix to invert is not unimodular")
    return [tuple(d * x for x in row) for row in adj]


# ---------------------------------------------------------------------------
# Smith normal form
# ---------------------------------------------------------------------------

def smith_normal_form(a_rows):
    """Return (U, S, V) with U*A*V = S diagonal, U and V unimodular.

    Diagonal entries are nonnegative and each divides the next.
    """
    m = len(a_rows)
    n = len(a_rows[0]) if m else 0
    s = [[int(x) for x in row] for row in a_rows]
    u = [[1 if i == j else 0 for j in range(m)] for i in range(m)]
    v = [[1 if i == j else 0 for j in range(n)] for i in range(n)]

    def swap_rows(i, j):
        s[i], s[j] = s[j], s[i]
        u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        for row in s:
            row[i], row[j] = row[j], row[i]
        for row in v:
            row[i], row[j] = row[j], row[i]

    def add_row(dst, src, f):
        s[dst] = [a + f * b for a, b in zip(s[dst], s[src])]
        u[dst] = [a + f * b for a, b in zip(u[dst], u[src])]

    def add_col(dst, src, f):
        for row in s:
            row[dst] += f * row[src]
        for row in v:
            row[dst] += f * row[src]

    def negate_row(i):
        s[i] = [-x for x in s[i]]
        u[i] = [-x for x in u[i]]

    t = 0
    while t < min(m, n):
        # locate smallest nonzero entry in the remaining block
        best = None
        for i in range(t, m):
            for j in range(t, n):
                if s[i][j] != 0 and (best is None or abs(s[i][j]) < abs(s[best[0]][best[1]])):
                    best = (i, j)
        if best is None:
            break
        swap_rows(t, best[0])
        swap_cols(t, best[1])
        if s[t][t] < 0:
            negate_row(t)
        # reduce the pivot column and row once; a nonzero remainder is
        # smaller than the pivot and becomes the next pivot (Euclid against
        # one fixed pivot lets the entries of the block explode)
        p = s[t][t]
        for i in range(t + 1, m):
            add_row(i, t, -(s[i][t] // p))
        for j in range(t + 1, n):
            add_col(j, t, -(s[t][j] // p))
        if any(s[i][t] for i in range(t + 1, m)) or any(
                s[t][j] for j in range(t + 1, n)):
            continue
        # enforce divisibility of later entries by the pivot
        fixed = True
        for i in range(t + 1, m):
            for j in range(t + 1, n):
                if s[i][j] % s[t][t] != 0:
                    add_row(t, i, 1)
                    fixed = False
                    break
            if not fixed:
                break
        if fixed:
            t += 1
    return [tuple(r) for r in u], [tuple(r) for r in s], [tuple(r) for r in v]


def saturation_basis(vectors):
    """Saturated bases of the row space and the right kernel, from one
    Smith normal form.

    Returns (basis, completion, kernel): basis is a list of rho rows spanning
    span(vectors) ∩ Z^n; completion is an n x n unimodular matrix whose first
    rho rows are exactly the basis; kernel is a basis of the saturated
    lattice {x integer : <v, x> = 0 for every vector v}.
    """
    vecs = [tuple(int(x) for x in v) for v in vectors]
    n = len(vecs[0])
    _, s, v = smith_normal_form(vecs)
    rho = sum(1 for i in range(min(len(vecs), n)) if s[i][i] != 0)
    w = invert_unimodular(v)  # rows of V^{-1}
    basis = [tuple(w[i]) for i in range(rho)]
    completion = [tuple(w[i]) for i in range(n)]
    # the nonzero diagonal entries come first, so columns rho.. of V span
    # the kernel of the vectors
    kernel = [tuple(v[i][j] for i in range(n)) for j in range(rho, n)]
    return basis, completion, kernel


def coordinates_in_basis(vec, basis):
    """Integer coordinates of vec in the given lattice basis, or None."""
    k = len(basis)
    aug = [list(row) + [y] for row, y in zip(zip(*basis), vec)]
    pivots = _row_reduce(aug, k)
    if any(row[k] != 0 for row in aug[len(pivots):]):
        return None
    coords = [0] * k
    for row, c in zip(aug, pivots):
        coords[c], rem = divmod(row[k], row[c])
        if rem:
            return None
    return tuple(coords)


# ---------------------------------------------------------------------------
# nonnegative integer combinations (semigroup membership)
# ---------------------------------------------------------------------------

def nonneg_int_combination(target, generators, functional):
    """Find a nonnegative-integer combination of generators equal to target.

    functional must pair strictly positively with every generator (it bounds
    the search). Returns a tuple of multiplicities or None.
    """
    target = tuple(int(x) for x in target)
    gens = [tuple(int(x) for x in g) for g in generators]
    values = [dot(functional, g) for g in gens]
    if any(v <= 0 for v in values):
        raise AnomalyDetected(
            "functional must be strictly positive on generators")
    order = sorted(range(len(gens)), key=lambda i: -values[i])
    coeffs = [0] * len(gens)

    def rec(remaining, budget, pos):
        if is_zero_vec(remaining):
            return True
        if pos == len(order) or budget <= 0:
            return False
        idx = order[pos]
        g, val = gens[idx], values[idx]
        top = budget // val
        # also bound by coordinates where allowed (all generator entries >= 0
        # in the cones we use, but stay general and rely on the functional)
        for k in range(top, -1, -1):
            coeffs[idx] = k
            nxt = tuple(r - k * gi for r, gi in zip(remaining, g))
            if rec(nxt, budget - k * val, pos + 1):
                return True
        coeffs[idx] = 0
        return False

    if rec(target, dot(functional, target), 0):
        return tuple(coeffs)
    return None
