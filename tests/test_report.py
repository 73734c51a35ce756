"""The report layer: the JSON emitter, the witness walk and algebraic
replay, each against a reference kept here."""
import json
import random
from argparse import Namespace
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from toricsing import cli, linalg
from toricsing.errors import ToricError
from toricsing.polynomials import Poly, gcd as poly_gcd
from toricsing.rationals import GaussianRational
from toricsing.report import iter_witnesses, render_json
from toricsing.solvers import AlgebraicWitness, _poly_mod_inverse

PROBLEMS = sorted((Path(__file__).parent.parent / "problems").glob("*.json"))
ZERO = GaussianRational(0)


def reference_json(report):
    return json.dumps(report, sort_keys=True, indent=2) + "\n"


# ---------------------------------------------------------------------------
# the emitter
# ---------------------------------------------------------------------------

texts = st.text() | st.sampled_from(
    ["", '"', "\\", "\\\"", "\x00\x1f\x7f", "\n\t\r\b\f", "é ✓ 𝔭",
     "\ud800", "</script>"])
leaves = (texts | st.integers() | st.integers(-(10 ** 40), 10 ** 40)
          | st.booleans() | st.none())
trees = st.recursive(
    leaves,
    lambda inner: (st.lists(inner, max_size=5)
                   | st.lists(inner, max_size=3).map(tuple)
                   | st.dictionaries(texts, inner, max_size=5)),
    max_leaves=40)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(trees)
def test_render_json_matches_the_stdlib_encoder(tree):
    assert render_json(tree) == reference_json(tree)


def test_render_json_writes_empty_containers_inline():
    tree = {"a": [], "b": {}, "c": (), "d": [[], {}], "e": [True, 0, None]}
    assert render_json(tree) == reference_json(tree)
    assert render_json({}) == "{}\n" and render_json([]) == "[]\n"


@pytest.mark.parametrize("tree", [
    1.5, {"x": 0.0}, [1, float("nan")], {"s": {1, 2}}, frozenset(),
    {1: "a"}, {"a": {None: 1}}, {("a",): 1}, [b"bytes"], {"c": 1j},
])
def test_render_json_refuses_values_outside_the_report_types(tree):
    # a TypeError (and a ToricError for the CLI); the stdlib would write
    # floats and convert int or None keys
    with pytest.raises(TypeError):
        render_json(tree)
    with pytest.raises(ToricError):
        render_json(tree)


# ---------------------------------------------------------------------------
# every command over problems/, plain and with --verify-witness
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def problem_reports():
    out = []
    for path in PROBLEMS:
        for command in cli.COMMANDS:
            for verify in (False, True):
                args = Namespace(input=str(path), report=None,
                                 format="structured", seed=None, budget=None,
                                 oracle=False, verify_witness=verify)
                try:
                    out.append((path.name, command, verify,
                                cli.run(command, args)[1]))
                except ToricError:
                    continue
    return out


def test_report_bytes_match_the_stdlib_encoder_on_every_problem(
        problem_reports):
    verified = 0
    for name, command, verify, report in problem_reports:
        assert render_json(report) == reference_json(report), \
            (name, command, verify)
        verified += verify
    assert len(problem_reports) >= 40 and verified >= 20


def reference_iter_witnesses(node, path="report"):
    """The recursive walk that visits every node, leaves included."""
    if isinstance(node, dict):
        if "kind" in node and ("assignments" in node
                               or node.get("kind") == "structural"):
            yield path, node
            return
        for key, value in node.items():
            yield from reference_iter_witnesses(value, f"{path}.{key}")
    elif isinstance(node, list):
        for idx, value in enumerate(node):
            yield from reference_iter_witnesses(value, f"{path}[{idx}]")


def test_witness_walk_matches_the_reference_on_every_problem(
        problem_reports):
    witnesses = 0
    for name, command, verify, report in problem_reports:
        if not verify:
            continue
        expected = list(reference_iter_witnesses(report))
        found = list(iter_witnesses(report))
        assert [p for p, _ in found] == [p for p, _ in expected]
        assert all(a is b for (_, a), (_, b) in zip(found, expected))
        assert [e["path"] for e in report["witness_replay"]] == \
            [p for p, _ in expected], (name, command)
        witnesses += len(found)
    assert witnesses >= 5


def test_witness_walk_keeps_document_order_and_odd_keys():
    structural = {"kind": "structural", "description": "d"}
    point = {"kind": "point", "assignments": {}}
    tree = {"b": [1, [point, "x"], {"w": structural}], "a.b": point,
            "c": {"kind": "note"}, "d": [[[]], {}, ("t",)], 3: [point]}
    expected = list(reference_iter_witnesses(tree))
    assert list(iter_witnesses(tree)) == expected
    assert [p for p, _ in expected] == [
        "report.b[1][0]", "report.b[2].w", "report.a.b", "report.3[0]"]
    assert iter_witnesses(7) == [] and iter_witnesses([point], "r") == [
        ("r[0]", point)]


# ---------------------------------------------------------------------------
# algebraic witnesses
# ---------------------------------------------------------------------------

def reference_pow_mod(base, e, m):
    """base**e mod m for e >= 1, by square-and-multiply."""
    result = None
    while True:
        if e & 1:
            result = base if result is None else (result * base) % m
        e >>= 1
        if not e:
            return result
        base = (base * base) % m


def reference_verify(witness, equations):
    """Substitution with Poly arithmetic, one power per term."""
    m = witness.modulus
    if m.degree() < 1:
        return False
    for v in witness.values:
        if v.is_zero() or poly_gcd(v, m).degree() >= 1:
            return False
    for terms in equations:
        total = Poly.constant(ZERO)
        for exp, coeff in terms.items():
            term = Poly.constant(coeff)
            for v, e in zip(witness.values, exp):
                if e:
                    base = v if e > 0 else _poly_mod_inverse(v, m)
                    term = (term * reference_pow_mod(base, abs(e), m)) % m
            total = (total + term) % m
        if not total.is_zero():
            return False
    return True


def _random_gr(rng, nonzero=False):
    while True:
        z = GaussianRational(rng.randint(-4, 4), rng.randint(-3, 3)) / \
            rng.randint(1, 3)
        if not (nonzero and z.is_zero()):
            return z


def _random_poly(rng, degree):
    coeffs = [_random_gr(rng) for _ in range(degree)]
    return Poly(coeffs + [_random_gr(rng, nonzero=True)])


def _vanishing_equation(rng, values, m, n):
    """A Laurent polynomial in the values that is zero modulo m: more
    monomials than the dimension of Q(i)[s]/(m) are linearly dependent."""
    d = m.degree()
    exps, size = set(), d + 1 + rng.randint(0, 2)
    while len(exps) < size:
        exps.add(tuple(rng.randint(-3, 3) for _ in range(n)))
    exps = sorted(exps)
    columns = []
    for exp in exps:
        r = Poly.constant(GaussianRational(1))
        for v, e in zip(values, exp):
            if e:
                base = v if e > 0 else _poly_mod_inverse(v, m)
                r = (r * reference_pow_mod(base, abs(e), m)) % m
        columns.append(list(r.coeffs) + [ZERO] * (d - len(r.coeffs)))
    rows = [[col[i] for col in columns] for i in range(d)]
    _, null = linalg.solve_field_system(rows, [ZERO] * d, ZERO,
                                        GaussianRational(1))
    weights = [_random_gr(rng, nonzero=True) for _ in null]
    coeffs = [sum((w * vec[t] for w, vec in zip(weights, null)), ZERO)
              for t in range(len(exps))]
    return {e: c for e, c in zip(exps, coeffs) if not c.is_zero()}


def test_algebraic_verify_matches_the_pow_mod_reference():
    rng = random.Random(23)
    cases = non_monic = negative = 0
    degrees = set()
    while cases < 320:
        d = rng.randint(1, 4)
        m = _random_poly(rng, d)
        n = rng.randint(1, 3)
        values = []
        while len(values) < n:
            # unreduced coordinates too: degree up to d + 1
            v = _random_poly(rng, rng.randint(0, d + 1))
            if poly_gcd(v, m).degree() == 0:
                values.append(v)
        equations = [_vanishing_equation(rng, values, m, n)
                     for _ in range(rng.randint(1, 2))]
        if not all(equations):
            continue
        names = tuple(f"v{j + 1}" for j in range(n))
        w = AlgebraicWitness(names, values, m)
        assert w.verify(equations) and reference_verify(w, equations)
        # one coefficient moved: the term is a unit, so the sum is nonzero
        eq = dict(equations[0])
        exp = rng.choice(sorted(eq))
        eq[exp] = eq[exp] + _random_gr(rng, nonzero=True)
        changed = [eq] + equations[1:]
        assert not w.verify(changed) and not reference_verify(w, changed)
        cases += 1
        degrees.add(d)
        non_monic += m.leading() != GaussianRational(1)
        negative += any(e < 0 for q in equations for x in q for e in x)
    assert degrees == {1, 2, 3, 4}
    assert non_monic >= 250 and negative >= 250


def test_algebraic_verify_refuses_a_coordinate_sharing_a_factor():
    # m = c*f*g with f = s - a: the coordinates f*h and g make f*h*g = 0
    # modulo m, but f*h is no unit, so the point is off the torus
    rng = random.Random(29)
    for _ in range(60):
        a = _random_gr(rng, nonzero=True)
        f = Poly([ZERO - a, GaussianRational(1)])
        g = _random_poly(rng, rng.randint(1, 3))
        if g.evaluate(a).is_zero() or g.constant_term().is_zero():
            continue
        m = (f * g).scale(_random_gr(rng, nonzero=True))
        h = _random_poly(rng, rng.randint(0, 1))
        values = (f * h, g)
        equations = [{(1, 1): _random_gr(rng, nonzero=True)}]
        w = AlgebraicWitness(("v1", "v2"), values, m)
        assert not w.verify(equations)
        assert not reference_verify(w, equations)
    assert not AlgebraicWitness(("v",), (Poly([]),), f).verify([{}])
    assert not AlgebraicWitness(
        ("v",), (Poly([GaussianRational(1)]),),
        Poly([GaussianRational(2)])).verify([{}])
