"""Seeded input generator and planted-answer oracles for the benchmark.

Nothing here imports simulroot: every problem is built from roots the
generator plants, and every verdict it expects is computed here, so a
result is never checked against the solver under test.

A workload is an endless sequence of rounds.  Round ``r`` of workload
``w`` under seed ``s`` depends only on ``(s, w, r)``; the same seed
gives byte-identical inputs however fast the machine is.  Each round
holds one problem per stratum, so any whole number of rounds has the
same mix of sizes.
"""

from __future__ import annotations

import json
import math
import random
from decimal import Context, Decimal, localcontext

# Digits of headroom granted to coefficient-form problems: a root of
# multiplicity m_i is checked against (10^MARGIN_DIGITS * 10^-digits)^(1/m_i),
# i.e. the attainable accuracy 10^-(digits/m_i) after rounding the
# coefficients, widened for the conditioning of the coefficient map.
MARGIN_DIGITS = 10
# Factored problems have exact roots, so they are held to 10^-(digits-8).
FACTORED_LOSS_DIGITS = 8

_EXACT = Context(prec=2000)

# (family, m, digits) per stratum.  Sizes are chosen so that the slowest
# strata hold well over the ten samples the tail percentile needs in one
# run, and the count is odd so the median falls inside a stratum; see
# README.md.  The costliest size appears twice for the first reason.
ALGEBRAIC_STRATA = (
    ("algebraic", 10, 64),
    ("algebraic", 30, 64),
    ("algebraic", 10, 256),
    ("algebraic", 15, 64),
    ("algebraic", 20, 64),
    ("algebraic", 30, 64),
    ("algebraic", 20, 256),
)
PERIODIC_STRATA = (
    ("exponential", 3, 256),
    ("trigonometric", 6, 64),
    ("exponential", 10, 64),
    ("trigonometric", 10, 64),
    ("exponential", 6, 256),
    ("trigonometric", 6, 256),
    ("trigonometric", 3, 256),
)
# (family, multiplicities, digits).  With the current solver most multiple-root
# rows fail (max_iters with estimates off the attainable floor, or a step
# failure) and every simple-root row passes.  Rows are cheap so that one
# run averages the failure share over a hundred rounds or more.  The
# slowest ops are trig (1, 3) solves whose estimates wander off, with a
# cost that varies widely from instance to instance; that row runs three
# times per round so that the tail percentile rests on some 300 of them
# per run rather than on a handful of unlucky instances.  The multiple-
# root rows spread their costs thinly over 5-40 ms, so a median that
# fell among them moved with each seed's share of misses; the two
# simple-root rows that run twice put the median inside the tight
# exponential (1, 1, 1, 1) cluster instead.
COEFFICIENT_STRATA = (
    ("algebraic", (1, 1, 1, 1, 1), 256),
    ("algebraic", (1, 2, 3, 1), 64),
    ("trigonometric", (1, 1), 256),
    ("trigonometric", (1, 3), 64),
    ("exponential", (1, 1, 1, 1), 64),
    ("exponential", (3, 1), 64),
    ("algebraic", (1, 2, 3, 1), 256),
    ("trigonometric", (1, 3), 64),
    ("trigonometric", (1, 3), 64),
    ("algebraic", (1, 1, 1, 1, 1), 256),
    ("exponential", (1, 1, 1, 1), 64),
)

WORKLOADS = ("algebraic_factored", "periodic_factored", "coefficient_form", "cli_session")


def _rng(seed: int, workload: str, round_index: int) -> random.Random:
    return random.Random(f"{seed}:{workload}:{round_index}")


def _fmt(x: float, places: int = 6) -> str:
    text = f"{x:.{places}f}"
    return "0" if float(text) == 0 else text


# -- independent elementary functions for the generator -----------------


def _pi(prec: int) -> Decimal:
    with localcontext(Context(prec=prec + 10)):
        def atan_inv(k: int) -> Decimal:
            eps = Decimal(10) ** -(prec + 8)
            power = Decimal(1) / k
            total, i = power, 1
            while True:
                power /= k * k
                term = power / (2 * i + 1)
                total += -term if i % 2 else term
                if term < eps:
                    return total
                i += 1

        return +(16 * atan_inv(5) - 4 * atan_inv(239))


def _cos_sin(x: Decimal, prec: int) -> tuple[Decimal, Decimal]:
    """cos and sin by Taylor series; the generator only needs |x| < 2."""
    with localcontext(Context(prec=prec + 10)):
        eps = Decimal(10) ** -(prec + 8)
        x2 = x * x
        c_term, s_term = Decimal(1), x
        c_sum, s_sum = c_term, s_term
        i = 1
        while abs(c_term) > eps or abs(s_term) > eps:
            c_term = -c_term * x2 / ((2 * i - 1) * (2 * i))
            s_term = -s_term * x2 / ((2 * i) * (2 * i + 1))
            c_sum += c_term
            s_sum += s_term
            i += 1
        return +c_sum, +s_sum


# -- root planting ------------------------------------------------------


def _spread_roots(rng: random.Random, family: str, m: int) -> list[str]:
    """m well-separated roots rounded to 6 decimals (exact decimals)."""
    if family == "trigonometric":
        gap = 2 * math.pi / m
        pts = [-math.pi + (i + 0.5) * gap + rng.uniform(-0.2, 0.2) * gap for i in range(m)]
    else:
        pts = [i - (m - 1) / 2 + rng.uniform(-0.2, 0.2) for i in range(m)]
    return [_fmt(p) for p in pts]


def _min_gap(family: str, roots: list[str]) -> float:
    xs = sorted(float(r) for r in roots)
    gaps = [b - a for a, b in zip(xs, xs[1:])]
    if family == "trigonometric":
        gaps.append(2 * math.pi - (xs[-1] - xs[0]))
    return min(gaps)


def _starts(rng: random.Random, family: str, roots: list[str], mults) -> list[str]:
    """Starts half-way into the paper's convergence region |x_i - r_i| < d/(2N).

    A fixed distance keeps the sweep count, and so an op's cost, the same
    across instances of a stratum; only the side is drawn.
    """
    offset = _min_gap(family, roots) / (4 * sum(mults))
    return [_fmt(float(r) + rng.choice((-1, 1)) * offset, 9) for r in roots]


def _mults(rng: random.Random, family: str, m: int) -> list[int]:
    mults = [1 + i % 3 for i in range(m)]
    rng.shuffle(mults)
    if family != "algebraic" and sum(mults) % 2:
        mults[mults.index(max(mults))] -= 1
    return mults


_WRAP = {
    "algebraic": "(x{})",
    "trigonometric": "sin((x{})/2)",
    "exponential": "sinh((x{})/2)",
}


def expression(family: str, roots: list[str], mults) -> str:
    parts = []
    for r, m in zip(roots, mults):
        shift = "+" + r[1:] if r.startswith("-") else "-" + r
        base = _WRAP[family].format(shift)
        parts.append(base if m == 1 else f"{base}^{m}")
    return "*".join(parts)


# -- coefficient expansion at extra precision ---------------------------


def _expand_algebraic(roots: list[str], mults) -> list[str]:
    """Monic coefficients a_1..a_n, exact (roots are short decimals)."""
    coeffs = [Decimal(1)]
    for r, m in zip(roots, mults):
        root = Decimal(r)
        for _ in range(m):
            nxt = [coeffs[0]]
            for i in range(1, len(coeffs)):
                nxt.append(_EXACT.subtract(coeffs[i], _EXACT.multiply(root, coeffs[i - 1])))
            nxt.append(_EXACT.minus(_EXACT.multiply(root, coeffs[-1])))
            coeffs = nxt
    return [str(c) for c in coeffs[1:]]


def _poly_mul(p: list, q: list, mul, add) -> list:
    out = [None] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            term = mul(a, b)
            out[i + j] = term if out[i + j] is None else add(out[i + j], term)
    return out


def _expand_periodic(family: str, roots: list[str], mults, prec: int) -> dict:
    """Product-to-sum expansion of prod g((x - r_j)/2)^m_j.

    With y = e^(x/2) (exponential) or z = e^(ix/2) (trigonometric) each
    factor is a two-term Laurent polynomial in y or z.  The product of the
    2n factors is then a sum of e^(kx) or e^(ikx), k = -n..n, stored at
    list index n + k, and read off as a0/2 + sum a_k, b_k terms.
    """
    ctx = Context(prec=prec)
    if family == "exponential":
        poly = [Decimal(1)]
        for r, m in zip(roots, mults):
            u = ctx.exp(ctx.divide(Decimal(r), -2))
            factor = [ctx.divide(ctx.divide(-1, u), 2), ctx.divide(u, 2)]
            for _ in range(m):
                poly = _poly_mul(poly, factor, ctx.multiply, ctx.add)
        n = (len(poly) - 1) // 2
        d = {k: poly[n + k] for k in range(-n, n + 1)}
        a = [ctx.add(d[k], d[-k]) for k in range(1, n + 1)]
        b = [ctx.subtract(d[k], d[-k]) for k in range(1, n + 1)]
        a0 = ctx.multiply(2, d[0])
    else:
        def cmul(p, q):
            return (
                ctx.subtract(ctx.multiply(p[0], q[0]), ctx.multiply(p[1], q[1])),
                ctx.add(ctx.multiply(p[0], q[1]), ctx.multiply(p[1], q[0])),
            )

        def cadd(p, q):
            return ctx.add(p[0], q[0]), ctx.add(p[1], q[1])

        poly = [(Decimal(1), Decimal(0))]
        for r, m in zip(roots, mults):
            c, s = _cos_sin(ctx.divide(Decimal(r), 2), prec)
            # sin((x - r)/2) = (w z - conj(w) / z) / (2i), w = e^(-ir/2);
            # the 1/(2i) per factor is applied once at the end.
            factor = [(ctx.minus(c), ctx.minus(s)), (c, ctx.minus(s))]
            for _ in range(m):
                poly = _poly_mul(poly, factor, cmul, cadd)
        n = (len(poly) - 1) // 2
        scale = Decimal(-4) ** n  # (2i)^(2n)
        coef = {k: poly[n + k] for k in range(-n, n + 1)}
        a = [ctx.divide(ctx.multiply(2, coef[k][0]), scale) for k in range(1, n + 1)]
        b = [ctx.divide(ctx.multiply(-2, coef[k][1]), scale) for k in range(1, n + 1)]
        a0 = ctx.divide(ctx.multiply(2, coef[0][0]), scale)
    return {"a0": str(a0), "a": [str(x) for x in a], "b": [str(x) for x in b]}


# -- solve problems -----------------------------------------------------


def _problem(family, roots, mults, init, digits, bounds, payload) -> dict:
    payload = dict(payload, family=family, mults=list(mults), init=init, digits=digits)
    return {
        "family": family,
        "roots": roots,
        "digits": digits,
        "bounds": bounds,
        "json": json.dumps(payload, sort_keys=True).encode(),
    }


def factored_problem(rng: random.Random, family: str, m: int, digits: int) -> dict:
    roots = _spread_roots(rng, family, m)
    mults = _mults(rng, family, m)
    init = _starts(rng, family, roots, mults)
    bound = f"1e-{digits - FACTORED_LOSS_DIGITS}"
    payload = {"expr": expression(family, roots, mults)}
    return _problem(family, roots, mults, init, digits, [bound] * m, payload)


def coefficient_problem(rng: random.Random, family: str, mults, digits: int) -> dict:
    mults = list(mults)
    rng.shuffle(mults)
    roots = _spread_roots(rng, family, len(mults))
    init = _starts(rng, family, roots, mults)
    if family == "algebraic":
        coefficients = {"a": _expand_algebraic(roots, mults)}
    else:
        coefficients = _expand_periodic(family, roots, mults, digits + 30)
    bounds = [
        str(Context(prec=6).power(10, Decimal(MARGIN_DIGITS - digits) / m)) for m in mults
    ]
    return _problem(family, roots, mults, init, digits, bounds, {"coefficients": coefficients})


def solve_round(seed: int, workload: str, round_index: int) -> list[dict]:
    rng = _rng(seed, workload, round_index)
    if workload == "algebraic_factored":
        return [factored_problem(rng, *s) for s in ALGEBRAIC_STRATA]
    if workload == "periodic_factored":
        return [factored_problem(rng, *s) for s in PERIODIC_STRATA]
    if workload == "coefficient_form":
        return [coefficient_problem(rng, *s) for s in COEFFICIENT_STRATA]
    raise ValueError(f"not a solve workload: {workload}")


def root_error(family: str, estimate: Decimal, root: str, two_pi: Decimal) -> Decimal:
    """|estimate - root|, modulo the period for trigonometric roots."""
    diff = _EXACT.subtract(estimate, Decimal(root))
    if family == "trigonometric":
        k = _EXACT.to_integral_value(_EXACT.divide(diff, two_pi))
        diff = _EXACT.subtract(diff, _EXACT.multiply(k, two_pi))
    return abs(diff)


def two_pi(digits: int) -> Decimal:
    return _EXACT.multiply(2, _pi(digits + 20))


# -- cli session --------------------------------------------------------

CLI_POOL = 256
CLI_DIGITS = 128
CLI_TABLE_DIGITS = 96
# Accepted empirical orders, open intervals.  The Chebyshev iteration is
# third order, but three iterates of coupled simultaneous updates read
# anywhere from ~2.2 to 3.05; the multiplicity-Newton foil reads 2.000.
CHEBYSHEV_ORDER = ("2.1", "3.5")
NEWTON_ORDER = ("1.9", "2.1")
# (family, m) of the small problems the session solves.
CLI_SHAPES = (("algebraic", 3), ("trigonometric", 2), ("exponential", 3), ("algebraic", 4))


def cli_pool(seed: int) -> list[dict]:
    """Problem files written during set-up; the session cycles through them."""
    rng = _rng(seed, "cli_session", -1)
    pool = []
    for i in range(CLI_POOL):
        family, m = CLI_SHAPES[i % len(CLI_SHAPES)]
        pool.append(factored_problem(rng, family, m, CLI_DIGITS))
    return pool


def _verify_theorem1(roots, mults, c, q):
    d = min(abs(a - b) for i, a in enumerate(roots) for b in roots[i + 1:])
    n = sum(mults)
    checks = [(0, q), (q, 1), (0, c), (0, d - 2 * c)]
    checks += [(c * c * (n - m), (m * d - 2 * n * c) * (d - 2 * c)) for m in mults]
    return checks


def _verify_theorem2(roots, mults, c, q, xi):
    pairs = [abs(a - b) for i, a in enumerate(roots) for b in roots[i + 1:]]
    d, max_sep = min(pairs), max(pairs)
    n = sum(mults) // 2
    checks = [(0, q), (q, 1), (0, c), (0, xi), (2 * c, xi), (0, d - 2 * c),
              (max_sep, 2 * math.pi - 2 * xi)]
    big_a = min(abs(math.sin(xi / 2)), abs(math.sin(d / 2 - c)))
    if big_a == 0:  # d = 2c: the (0, d - 2c) check above sits on its edge, so the case is redrawn
        return checks
    for m in mults:
        rest = 2 * n - m
        lhs = c * c * (m * m + rest * rest / (4 * big_a * big_a) + (c / 4) * (m / 4) * rest
                       + m * (rest / (2 * big_a * big_a) + (c / (6 * big_a)) * rest))
        rhs = (m * (1 - c * c / 8) + (c / (2 * big_a)) * rest) ** 2
        checks.append((lhs, rhs))
    return checks


def _verify_theorem3(roots, mults, c, q):
    d = min(abs(a - b) for i, a in enumerate(roots) for b in roots[i + 1:])
    n = sum(mults) // 2
    sinh_c, cosh_c = abs(math.sinh(c)), math.cosh(c)
    checks = [(0, q), (q, 1), (0, c), (0, d - 2 * c), (c * sinh_c + cosh_c, 12)]
    s = math.sinh((d - 2 * c) / 2)
    if s <= 0:
        return checks + [(1, 0)]
    for m in mults:
        lhs = m * m + (n / s) * (m * c + sinh_c / s ** 3) * sinh_c + (2 * n / (s * s)) * cosh_c
        checks.append((lhs, m + s / cosh_c))
    return checks


def _verify_case(rng: random.Random, theorem: int) -> tuple[list[str], bool]:
    """A seeded verify call whose verdict is far from every inequality's edge."""
    while True:
        k = rng.randint(2, 4)
        if theorem == 3:
            xs = [rng.uniform(-1, 1) + 5 * i for i in range(k)]
        else:
            xs = [rng.uniform(-0.2, 0.2) + i * (5.0 / k) for i in range(k)]
        roots = [_fmt(x, 3) for x in xs]
        mults = [rng.randint(1, 3) for _ in range(k)]
        if theorem != 1 and sum(mults) % 2:
            mults[0] += 1
        c = _fmt(10 ** rng.uniform(-3, -0.3), 4)
        q = _fmt(rng.uniform(0.05, 0.95), 3)
        rf = [float(r) for r in roots]
        args = ["verify", "--theorem", str(theorem), "--roots", ",".join(roots),
                "--mults", ",".join(map(str, mults)), "--c", c, "--q", q]
        if theorem == 1:
            checks = _verify_theorem1(rf, mults, float(c), float(q))
        elif theorem == 2:
            xi = _fmt(rng.uniform(0.05, 0.8), 3)
            args += ["--xi", xi]
            checks = _verify_theorem2(rf, mults, float(c), float(q), float(xi))
        else:
            checks = _verify_theorem3(rf, mults, float(c), float(q))
        if float(c) <= 0 or float(q) <= 0:
            continue
        if all(abs(rhs - lhs) > 1e-9 * max(abs(lhs), abs(rhs), 1.0) for lhs, rhs in checks):
            return args, all(lhs < rhs for lhs, rhs in checks)


# Known answers of `reproduce`: tables 1 and 2 each hold one annotated
# transcription slip, so they exit 3 naming exactly that cell.
REPRODUCE_ANSWERS = {
    1: (3, ("MISMATCH row 3 x1",)),
    2: (3, ("MISMATCH row 4 x2",)),
    3: (0, ()),
}


def cli_round(seed: int, round_index: int, pool_paths: list[str], pool: list[dict],
              trace_dir: str) -> list[dict]:
    """The eleven CLI calls of one round, each with its known answer.

    The runner saves the output of an op with a ``writes`` path there;
    ``order`` reads the traces the round's own json solves wrote.
    """
    rng = _rng(seed, "cli_session", round_index)
    i = round_index % len(pool)
    path, problem = pool_paths[i], pool[i]
    roots = ",".join(problem["roots"])
    cheb_trace, newton_trace = f"{trace_dir}/trace-chebyshev.json", f"{trace_dir}/trace-newton.json"
    ops = [
        {"kind": "solve_json", "argv": ["solve", "--input", path, "--format", "json"],
         "writes": cheb_trace, "expect": {"exit": 0, "problem": i}},
        {"kind": "solve_json_newton",
         "argv": ["solve", "--input", path, "--format", "json", "--method", "newton_baseline"],
         "writes": newton_trace, "expect": {"exit": 0, "problem": i}},
        {"kind": "solve_table",
         "argv": ["solve", "--input", path, "--format", "table", "--digits", str(CLI_TABLE_DIGITS)],
         "expect": {"exit": 0, "problem": i}},
        {"kind": "order", "argv": ["order", "--input", cheb_trace, "--true-roots", roots],
         "expect": {"exit": 0, "order": CHEBYSHEV_ORDER, "m": len(problem["roots"])}},
        {"kind": "order_newton",
         "argv": ["order", "--input", newton_trace, "--true-roots", roots],
         "expect": {"exit": 0, "order": NEWTON_ORDER, "m": len(problem["roots"])}},
    ]
    for theorem in (1, 2, 3):
        argv, passed = _verify_case(rng, theorem)
        ops.append({"kind": f"verify{theorem}", "argv": argv,
                    "expect": {"exit": 0 if passed else 3, "verdict": "PASS" if passed else "FAIL"}})
    for table, (code, mismatches) in REPRODUCE_ANSWERS.items():
        ops.append({"kind": f"reproduce{table}", "argv": ["reproduce", "--table", str(table)],
                    "expect": {"exit": code, "mismatches": list(mismatches)}})
    return ops
