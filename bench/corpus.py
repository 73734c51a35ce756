"""Seeded problem corpora for the benchmark workloads.

Pure Python with no toricsing import: the program under test sees only the
JSON problem files written from these records.

A corpus is a list of rounds; a round is a list of problems, one per size
or variety class of its workload. A run visits the rounds in corpus order
and draws the order of the problems inside each round from its own
``--seed``, so runs with different seeds time nearly the same problems and
the mix of classes does not move with the seed. Warm-up problems come from
the same generator under the run's seed and are kept out of the corpus.

Every problem is a dict ``{"command", "args", "problem"}``: the CLI command,
extra CLI arguments, and the problem-file contents.
"""
from __future__ import annotations

import hashlib
import json
import math
import random

DEFAULT_CORPUS_SEED = 1
HELD_OUT_CORPUS_SEED = 2

SURFACE = {"sigma_rays": [[0, 1], [2, -1]]}
C2 = {"generators": [[1, 0], [0, 1]]}
C3 = {"generators": [[1, 0, 0], [0, 1, 0], [0, 0, 1]]}
EMBEDDED_THREEFOLD = {"generators": [[0, 1, 2], [2, 1, 0], [1, 0, 3],
                                     [1, 1, 1]]}


def staircase(q):
    return {"generators": [[1, j] for j in range(q + 1)]}


# Semigroup generators of each standing variety, used only to keep
# generated polynomials clear of total cancellation on the torus.
_SMALL_VARIETIES = [
    (SURFACE, [(1, 0), (1, 1), (1, 2)]),
    (C2, [(1, 0), (0, 1)]),
    (C3, [(1, 0, 0), (0, 1, 0), (0, 0, 1)]),
    (staircase(4), [(1, j) for j in range(5)]),
]

# The example files shipped in problems/, folded into the workloads.
SURFACE_QUARTIC = {"variety": SURFACE,
                   "polynomial": "z1^4+z2^4*z3-z2^2*z3^2"}
AFFINE_UNTAME = {"variety": C3,
                 "polynomial": "z1^2*z3^2-z2^3*z3^2+z3^3"}
STAIRCASE_FAMILY = {"variety": staircase(5), "family": "z1^2+t*z2^3+z4",
                    "options": {"seed": 1}}


# ---------------------------------------------------------------------------
# polynomial strings in the CLI grammar (never "a+-b")
# ---------------------------------------------------------------------------

def gaussian(re, im=0):
    """A Gaussian integer as an atom: '3', '(2-i)', 'i', '(-1+2*i)'."""
    if im == 0:
        return str(re) if re >= 0 else f"({re})"
    imag = "i" if abs(im) == 1 else f"{abs(im)}*i"
    if re == 0:
        return imag if im > 0 else f"(-{imag})"
    return f"({re}{'+' if im > 0 else '-'}{imag})"


def monomial(exp):
    parts = [f"z{k}" if e == 1 else f"z{k}^{e}"
             for k, e in enumerate(exp, start=1) if e]
    return "*".join(parts)


def join_terms(terms):
    """Sum of (coefficient_atom, sign, monomial) with '+'/'-' separators;
    an empty monomial stands for 1."""
    out = ""
    for coeff, sign, mono in terms:
        if not mono:
            body = coeff
        else:
            body = mono if coeff == "1" else f"{coeff}*{mono}"
        if out:
            out += ("-" if sign < 0 else "+") + body
        else:
            out = ("-" if sign < 0 else "") + body
    return out


def _gaussian_term(re, im, mono):
    """A term with Gaussian coefficient re + im*i, the sign pulled out."""
    sign = 1
    if im == 0 and re < 0:
        sign, re = -1, -re
    return gaussian(re, im), sign, mono


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

def _random_polynomial(rng, gens):
    """2-4 Gaussian terms with exponents <= 3 whose torus form is nonzero."""
    r, n = len(gens), len(gens[0])
    while True:
        terms = {}
        for _ in range(rng.randint(2, 4)):
            exp = tuple(rng.randint(0, 3) if rng.random() < 0.7 else 0
                        for _ in range(r))
            re, im = rng.randint(-3, 3), rng.randint(-1, 1)
            if re == 0 and im == 0:
                re = 1
            if any(exp):
                terms[exp] = (re, im)
        collected = {}
        for exp, (re, im) in terms.items():
            lam = tuple(sum(e * g[j] for e, g in zip(exp, gens))
                        for j in range(n))
            acc = collected.get(lam, (0, 0))
            collected[lam] = (acc[0] + re, acc[1] + im)
        if any(c != (0, 0) for c in collected.values()):
            return join_terms(_gaussian_term(re, im, monomial(exp))
                              for exp, (re, im) in sorted(terms.items()))


def small_verdicts(rng, rounds):
    """analyze at CLI defaults, one random polynomial per variety a round."""
    out = []
    for k in range(rounds):
        rnd = [{"command": "analyze", "args": [],
                "problem": {"variety": var,
                            "polynomial": _random_polynomial(rng, gens)}}
               for var, gens in _SMALL_VARIETIES]
        if k == 0:
            rnd += [{"command": "analyze", "args": [], "problem": p}
                    for p in (SURFACE_QUARTIC, AFFINE_UNTAME)]
        out.append(rnd)
    return out


_NON_SQUARES = (2, 3, 5, 6, 7, 10, 11)


def witness_heavy(rng, rounds):
    """analyze --verify-witness on polynomials built to fail.

    A round holds 20 problems: repeated-root segments (four with d = 2, one
    with d = 3), five scaled untame polynomials, and ten degenerate forms
    whose roots leave Q(i) (six on the surface, four on C^3). The d = 3
    segments cost 0.3-0.5 s each, so they are kept under a tenth of the
    round; latency_ms.p90 then falls inside the narrow band of the C^3
    degenerate forms and does not jump with the mix.
    """
    out = []
    for _ in range(rounds):
        polys = []
        for d in (2, 2, 2, 2, 3):
            root = gaussian(rng.randint(1, 3), rng.randint(0, 2))
            polys.append((C3, f"z3*(z1-{root}*z2)^{d}+z1^{d + 2}"))
        for _ in range(5):
            c1 = gaussian(rng.randint(1, 9), rng.randint(-2, 2))
            polys.append((C3, join_terms([
                (c1, 1, "z1^2*z3^2"),
                (str(rng.randint(1, 9)), -1, "z2^3*z3^2"),
                (str(rng.randint(1, 9)), 1, "z3^3")])))
        for var in (SURFACE,) * 6 + (C3,) * 4:
            k, p = rng.randint(2, 3), rng.choice(_NON_SQUARES)
            polys.append((var, f"(z1^{k}-{p}*z2^{k})^2+z1^{2 * k}*z3"
                          if var is SURFACE else
                          f"z3*(z1^{k}-{p}*z2^{k})^2+z1^{2 * k + 1}"))
        out.append([{"command": "analyze", "args": ["--verify-witness"],
                     "problem": {"variety": var, "polynomial": s}}
                    for var, s in polys])
    return out


# Multiplicity bins of the cone ladder: one cone per bin in every round.
_LADDER_2D = ((3, 7), (8, 12), (13, 17), (18, 22))
_LADDER_3D = ((4, 13), (14, 23), (24, 33), (34, 43))


def cone_ladder(rng, rounds):
    """hilbert and faces (no polynomial) on 2-D and 3-D cones of rising
    multiplicity."""
    out = []
    for k in range(rounds):
        varieties = []
        for lo, hi in _LADDER_2D:
            m = rng.randint(lo, hi)
            varieties.append({"sigma_rays": [[m, 1], [1, m]]})
        for lo, hi in _LADDER_3D:
            c = rng.randint(lo, hi)
            while True:
                a, b = rng.randint(1, c - 1), rng.randint(1, c - 1)
                if math.gcd(math.gcd(a, b), c) == 1:
                    break
            varieties.append({"sigma_rays": [[1, 0, 0], [0, 1, 0], [a, b, c]]})
        if k == 0:
            varieties.append(EMBEDDED_THREEFOLD)
        out.append([{"command": cmd, "args": [], "problem": {"variety": v}}
                    for v in varieties for cmd in ("hilbert", "faces")])
    return out


def _t_coefficient(rng):
    """A nonzero polynomial in t of degree <= 2, some terms Gaussian."""
    terms = []
    for deg in range(rng.randint(1, 3)):
        re = rng.randint(-3, 3)
        im = rng.randint(-1, 1) if rng.random() < 0.25 else 0
        if re or im:
            terms.append((re, im, ("", "t", "t^2")[deg]))
    if not terms:
        return "1"
    return "(" + join_terms(_gaussian_term(re, im, power)
                            for re, im, power in terms) + ")"


def _random_family(rng, q):
    r = q + 1
    terms = {}
    for _ in range(rng.randint(2, 4)):
        exp = tuple(rng.randint(1, 3) if rng.random() < 0.35 else 0
                    for _ in range(r))
        if any(exp):
            terms[exp] = _t_coefficient(rng)
    if not terms:
        terms[tuple(1 if j == 0 else 0 for j in range(r))] = "1"
    return join_terms((c, 1, monomial(e)) for e, c in sorted(terms.items()))


def family_sweep(rng, rounds):
    """family and stratify on one-parameter families over staircases."""
    out = []
    for k in range(rounds):
        rnd = []
        for q in range(3, 8):
            fam = {"variety": staircase(q), "family": _random_family(rng, q)}
            rnd += [{"command": cmd, "args": [], "problem": fam}
                    for cmd in ("family", "stratify")]
        if k == 0:
            rnd += [{"command": cmd, "args": [], "problem": STAIRCASE_FAMILY}
                    for cmd in ("family", "stratify")]
        out.append(rnd)
    return out


# workload -> (generator, rounds in a corpus). A corpus holds at least 2.5
# times what a 25-second run gets through on a 2-CPU machine, so a program
# up to that much faster still runs out of time before it runs out of
# problems.
WORKLOADS = {
    "small_verdicts": (small_verdicts, 700),
    "witness_heavy": (witness_heavy, 36),
    "cone_ladder": (cone_ladder, 60),
    "family_sweep": (family_sweep, 108),
}


def corpus(workload, corpus_seed):
    """The corpus of a workload: a list of rounds of problems."""
    generate, rounds = WORKLOADS[workload]
    return generate(random.Random(f"{workload}:{corpus_seed}"), rounds)


def warmup(workload, seed, exclude, minimum):
    """At least ``minimum`` warm-up problems for a run with this seed: whole
    rounds of the workload's generator, less any problem in ``exclude``
    (the corpus being timed)."""
    generate, _ = WORKLOADS[workload]
    rng = random.Random(f"{workload}:warmup:{seed}")
    timed = {_key(entry) for rnd in exclude for entry in rnd}
    out = []
    while len(out) < minimum:
        out += [entry for entry in generate(rng, 1)[0]
                if _key(entry) not in timed]
    return out


def _key(entry):
    return json.dumps(entry, sort_keys=True)


def digest(rounds):
    """A fingerprint of a corpus, to detect generator drift."""
    text = json.dumps(rounds, sort_keys=True)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]
