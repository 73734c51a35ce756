"""Correctness gate that does not trust the program under test.

Nothing here imports toricsing. Witnesses are replayed from the equations
and assignments embedded in each structured report, with exact arithmetic
over Q(i) built on ``fractions``; exit codes are compared with the expected
outcome recorded for each corpus problem.
"""
from __future__ import annotations

import hashlib
import json
from fractions import Fraction

# An element of Q(i) is a pair (re, im) of Fractions.
ZERO = (Fraction(0), Fraction(0))
ONE = (Fraction(1), Fraction(0))

def parse_gaussian(text):
    """Parse the report form of a Gaussian rational: '3', '-1/2', 'i',
    '-2*i', '3/4-5*i'. Raises ValueError on anything else."""
    if not text.endswith("i"):
        return Fraction(text), Fraction(0)
    body = text[:-1]
    cut = max(body.rfind("+"), body.rfind("-"), 0)
    real, imag = body[:cut], body[cut:]
    sign = -1 if imag.startswith("-") else 1
    imag = imag.lstrip("+-")
    if imag and not imag.endswith("*"):
        raise ValueError(f"not a Gaussian rational: {text!r}")
    im = Fraction(imag[:-1]) if imag else Fraction(1)
    return (Fraction(real) if real else Fraction(0)), sign * im


def g_add(x, y):
    return x[0] + y[0], x[1] + y[1]


def g_mul(x, y):
    return x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0]


def g_inv(x):
    n = x[0] * x[0] + x[1] * x[1]
    return x[0] / n, -x[1] / n


def g_pow(x, e):
    """x**e for an integer e (negative exponents invert first)."""
    if e < 0:
        x, e = g_inv(x), -e
    out = ONE
    for _ in range(e):
        out = g_mul(out, x)
    return out


# Polynomials over Q(i) in s: coefficient lists, constant term first.

def p_trim(p):
    p = list(p)
    while p and p[-1] == ZERO:
        p.pop()
    return p


def p_add(p, q):
    n = max(len(p), len(q))
    return p_trim(g_add(p[k] if k < len(p) else ZERO,
                        q[k] if k < len(q) else ZERO) for k in range(n))


def p_mul(p, q):
    if not p or not q:
        return []
    out = [ZERO] * (len(p) + len(q) - 1)
    for a, x in enumerate(p):
        for b, y in enumerate(q):
            out[a + b] = g_add(out[a + b], g_mul(x, y))
    return p_trim(out)


def p_divmod(p, m):
    p, quot = p_trim(p), [ZERO] * max(len(p) - len(m) + 1, 1)
    lead_inv = g_inv(m[-1])
    while len(p) >= len(m):
        c, shift = g_mul(p[-1], lead_inv), len(p) - len(m)
        quot[shift] = c
        for k, y in enumerate(m):
            p[k + shift] = g_add(p[k + shift], g_mul((-c[0], -c[1]), y))
        p = p_trim(p)
    return p_trim(quot), p


def p_inverse_mod(v, m):
    """v^-1 modulo m, or None when gcd(v, m) is not constant."""
    r0, r1, s0, s1 = m, p_divmod(v, m)[1], [], [ONE]
    while r1:
        q, r = p_divmod(r0, r1)
        r0, r1 = r1, r
        s0, s1 = s1, p_add(s0, [(-a, -b) for a, b in p_mul(q, s1)])
    if len(r0) != 1:
        return None
    return p_divmod(p_mul(s0, [g_inv(r0[0])]), m)[1]


def _equations(data):
    eqs = []
    for eq in data["equations"]:
        eqs.append((eq["variables"], [
            (t["exponent"], parse_gaussian(t["coefficient"]))
            for t in eq["terms"]]))
    return eqs


def replay_point(data):
    values = {n: parse_gaussian(v) for n, v in data["assignments"].items()}
    if any(v == ZERO for v in values.values()):
        return False
    for names, terms in _equations(data):
        total = ZERO
        for exp, coeff in terms:
            term = coeff
            for name, e in zip(names, exp):
                term = g_mul(term, g_pow(values[name], e))
            total = g_add(total, term)
        if total != ZERO:
            return False
    return True


def replay_algebraic(data):
    m = p_trim(parse_gaussian(c) for c in data["modulus"])
    if len(m) < 2:
        return False
    values, inverses = {}, {}
    for name, coeffs in data["assignments"].items():
        v = p_divmod([parse_gaussian(c) for c in coeffs], m)[1]
        inv = p_inverse_mod(v, m) if v else None
        if inv is None:  # zero, or a zero divisor: not a torus point
            return False
        values[name], inverses[name] = v, inv
    for names, terms in _equations(data):
        total = []
        for exp, coeff in terms:
            term = [coeff]
            for name, e in zip(names, exp):
                base = values[name] if e > 0 else inverses[name]
                for _ in range(abs(e)):
                    term = p_divmod(p_mul(term, base), m)[1]
            total = p_add(total, term)
        if p_divmod(total, m)[1]:
            return False
    return True


def iter_witnesses(node):
    """Every point or algebraic witness in a report tree."""
    if isinstance(node, dict):
        if (node.get("kind") in ("point", "algebraic")
                and "assignments" in node):
            yield node
            return
        for value in node.values():
            yield from iter_witnesses(value)
    elif isinstance(node, list):
        for value in node:
            yield from iter_witnesses(value)


def iter_verdicts(node):
    """Every verdict object (status, method, evidence) in a report tree."""
    if isinstance(node, dict):
        if {"status", "method", "evidence"} <= node.keys():
            yield node
        for value in node.values():
            yield from iter_verdicts(value)
    elif isinstance(node, list):
        for value in node:
            yield from iter_verdicts(value)


def replay(data):
    if data["kind"] == "point":
        return replay_point(data)
    return replay_algebraic(data)


DECIDED = (0, 2)


def problem_errors(exit_code, expected, report, answer=None):
    """The gate's findings for one problem, as a list of short strings.

    ``expected`` is the recorded exit code. A move from unknown (3) to a
    certified answer is allowed; a holds/fails flip is not. ``answer`` is
    the recorded fingerprint of a report's exact answer, when one is kept.
    """
    errors = []
    if exit_code not in (0, 2, 3):
        return [f"exit {exit_code}"]
    if expected in DECIDED and exit_code in DECIDED and exit_code != expected:
        errors.append(f"exit {exit_code}, expected {expected}")
    if report is None:
        return errors + ["no report"]
    witnesses = list(iter_witnesses(report))
    if exit_code == 2 and report.get("command") in ("analyze", "nondeg",
                                                    "tame") and not witnesses:
        errors.append("fails without a witness")
    for w in witnesses:
        if not replay(w):
            errors.append(f"witness replay failed: {w.get('context', '')}")
    if any(not e["ok"] for e in report.get("witness_replay", ())):
        errors.append("program's own witness replay failed")
    if answer is not None and answer_digest(report) != answer:
        errors.append("answer differs from the recorded one")
    return errors


def answer_digest(report):
    """Fingerprint of the exact answer of a cone command (hilbert, faces)."""
    keys = ("dual_rays", "hilbert_basis", "cone_faces", "valid_index_sets")
    payload = {k: report[k] for k in keys if k in report}
    payload["generators"] = report.get("variety", {}).get("generators")
    text = json.dumps(payload, sort_keys=True)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]
