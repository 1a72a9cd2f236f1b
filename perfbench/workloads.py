"""The three workloads: their seeded inputs, their operations, and the
check of every operation's output.

Each round has N = 5 (mod 10) operations.  Pooled over the rounds of a
run, the median and the 90th percentile then sit at the middle of one
operation's samples (positions 0.5 N and 0.9 N in operation units), not on
the edge between two operations of different cost.

An operation is one call a user would make (`find_periodic`, one nest, one
`run_verify` with its `to_json`).  A workload is a fixed list of
operations, a round; a run repeats whole rounds.  Each check works from
`oracle` (plain floats or mpmath) and returns None when the output is
right, or a one-line reason when it is not.  A check may read the outputs
of other operations of the same round through `ctx` (op key -> output).
"""

import json
import math

import numpy as np

import kneadlab as kl
import oracle

FAMILIES = ("quadratic", "logistic", "sine")
# Maps whose invariant density is the arcsine law.  Their float orbits
# collapse onto a boundary fixed point on some seeds (see CHANGES.md), so
# no seeded workload runs them; the self-test checks one fixed density.
ARCSINE = (("quadratic", 2.0), ("logistic", 4.0))

# Tolerances, each derived in README.md.
CHEBYSHEV_EXPONENT_TOL = 1e-6     # |ln|Df^n| - n ln 2|, periods <= 8
CONJUGACY_EXPONENT_TOL = 1e-6     # logistic a vs sine a, interior orbits
RESIDUAL_TOL = 1e-9               # |f^n(p) - p| / max(1, |p|)
ZETA_REL_TOL = 1e-6
DENSITY_SIGMAS = 6.0              # arcsine bin masses, in binomial sigmas
DENSITY_CORRELATION = 4.0         # effective-sample deflation of the orbit
LYAP_INTEGRAL_TOL = 0.05          # Birkhoff exponent vs sum mass * ln|Df|
LYAP_PAIR_TOL = 0.05              # logistic a vs sine a Birkhoff exponents
VISIT_TOL = 0.02                  # time averages vs mu_hat, 1e6 samples


class Op:
    """`known_fault` marks the one operation kept although it fails: its
    failure is counted but does not make the run incorrect."""

    __slots__ = ("key", "call", "check", "deps", "known_fault")

    def __init__(self, key, call, check, deps=(), known_fault=False):
        self.key, self.call, self.check = key, call, check
        self.deps = tuple(deps)
        self.known_fault = known_fault


def _knead(cache, family, p):
    if (family, p) not in cache:
        cache[(family, p)] = oracle.kneading(family, p)
    return cache[(family, p)]


def _word(symbols):
    return kl.SymbolWord(tuple(symbols))


# ---------------------------------------------------------------------------
# shared checks
# ---------------------------------------------------------------------------

def check_orbit(family, p, orb, symbols):
    """A returned periodic orbit: word, itinerary, residual, exponent."""
    n = len(symbols)
    if tuple(orb.word.symbols) != tuple(symbols) or len(orb.points) != n:
        return f"orbit for {symbols} has word {orb.word} and {len(orb.points)} points"
    sides = tuple(oracle.side(family, x) for x in orb.points)
    if sides != tuple(symbols):
        return f"orbit {orb.word}: points have itinerary {sides}"
    x0 = orb.points[0]
    res = abs(oracle.fn_iterate(family, p, x0, n) - x0)
    if res > RESIDUAL_TOL * max(1.0, abs(x0)):
        return f"orbit {orb.word}: recomputed residual {res:.3g}"
    sign, la = 1, 0.0
    for x in orb.points:
        d = oracle.df(family, p, x)
        sign = -sign if d < 0 else sign
        la += math.log(abs(d))
    if sign != orb.exponent_sign or abs(la - orb.exponent_log_abs) > 1e-9 * n:
        return (f"orbit {orb.word}: exponent ({orb.exponent_sign}, "
                f"{orb.exponent_log_abs!r}) against ({sign}, {la!r})")
    if (family, p) == ("quadratic", 2.0):
        target = 2 * oracle.LN2 if symbols == (0,) else n * oracle.LN2
        if abs(orb.exponent_log_abs - target) > CHEBYSHEV_EXPONENT_TOL:
            return (f"orbit {orb.word} of q_2: ln|Df^n| = {orb.exponent_log_abs!r}, "
                    f"exact {target!r}")
    return None


def check_enumeration(family, p, max_period, enum, knead):
    """Found words are exactly the admissible Lyndon words, every other
    word fails as an empty cylinder, every orbit passes check_orbit."""
    lyndon = oracle.lyndon_words(max_period)
    verdict = {w: oracle.admissible(w, knead) for w in lyndon}
    if None in verdict.values():
        return f"{family} {p}: admissibility unresolved within the kneading prefix"
    expected = {w for w, ok in verdict.items() if ok}
    found = {tuple(o.word.symbols) for o in enum.orbits}
    if found != expected:
        return (f"{family} {p} up to {max_period}: found {len(found)} orbits, "
                f"{len(expected)} admissible; differ at "
                f"{sorted(found ^ expected)[:3]}")
    failed = {tuple(int(ch) for ch in t) for t in enum.failures}
    if failed != lyndon - expected or any(
            not msg.startswith("EmptyCylinder") for msg in enum.failures.values()):
        return f"{family} {p}: failures {sorted(enum.failures.items())[:2]}"
    if (family, p) == ("quadratic", 2.0):
        per = {}
        for o in enum.orbits:
            per[o.period] = per.get(o.period, 0) + 1
        for n in range(1, max_period + 1):
            if per.get(n, 0) != oracle.lyndon_count(n):
                return f"q_2 period {n}: {per.get(n, 0)} orbits, necklace count {oracle.lyndon_count(n)}"
    for o in enum.orbits:
        err = check_orbit(family, p, o, tuple(o.word.symbols))
        if err:
            return err
    return None


def own_log_exponents(family, p, orbits, max_period):
    if (family, p) == ("quadratic", 2.0):
        return oracle.chebyshev_log_exponents(max_period)
    out = {}
    for o in orbits:
        la = sum(math.log(abs(oracle.df(family, p, x))) for x in o.points)
        out.setdefault(o.period, []).append(la)
    return out


def _rel(a, b):
    return abs(a - b) / max(abs(b), 1e-300)


# ---------------------------------------------------------------------------
# orbit-census
# ---------------------------------------------------------------------------

def _random_word(rng, n):
    while True:
        w = tuple(rng.randint(0, 1) for _ in range(n))
        if len({w[i:] + w[:i] for i in range(n)}) == n:
            return w


def _census_enum_op(key, family, p, max_period, z, kcache):
    m = kl.make_map(family, p)

    def call():
        enum = kl.enumerate_periodic(m, max_period, workers=1)
        return enum, kl.ZetaTruncation(enum.orbits, max_period).evaluate(z)

    def check(out, ctx):
        if isinstance(out, Exception):
            return f"enumerate_periodic raised {out!r}"
        enum, ev = out
        err = check_enumeration(family, p, max_period, enum, _knead(kcache, family, p))
        if err:
            return err
        own = oracle.zeta_truncated(own_log_exponents(family, p, enum.orbits, max_period),
                                    max_period, z)
        if _rel(ev.value, own) > ZETA_REL_TOL:
            return f"zeta({z}) = {ev.value!r}, own truncation {own!r}"
        return None
    return Op(key, call, check)


def _conjugate_pair_check(a, key_l, key_s):
    def check(out, ctx):
        (el, _), (es, _) = ctx[key_l], ctx[key_s]
        wl = {tuple(o.word.symbols): o for o in el.orbits}
        ws = {tuple(o.word.symbols): o for o in es.orbits}
        if set(wl) != set(ws):
            return f"logistic/sine {a}: found words differ at {sorted(set(wl) ^ set(ws))[:3]}"
        for w, ol in wl.items():
            if w == (0,):  # boundary fixed point; h'(0) = 0 breaks the equality
                continue
            if abs(ol.exponent_log_abs - ws[w].exponent_log_abs) > CONJUGACY_EXPONENT_TOL:
                return (f"logistic/sine {a} word {w}: ln|Df^n| {ol.exponent_log_abs!r} "
                        f"vs {ws[w].exponent_log_abs!r}")
        return None
    return check


def _single_word_op(key, family, p, symbols, kcache):
    m = kl.make_map(family, p)
    word = _word(symbols)

    def call():
        return kl.find_periodic(m, word)

    def check(out, ctx):
        ok = oracle.admissible(symbols, _knead(kcache, family, p))
        if isinstance(out, kl.EmptyCylinder):
            return None if ok is False else f"{family} {p} {word}: admissible but EmptyCylinder"
        if isinstance(out, Exception):
            return f"{family} {p} {word}: raised {out!r}"
        if ok is not True:
            return f"{family} {p} {word}: inadmissible word returned an orbit"
        return check_orbit(family, p, out, symbols)
    return Op(key, call, check)


def _verify_op(key, config, tag, check_report, known_fault=False, deps=()):
    def call():
        return kl.run_verify(config, tag).to_json()

    def check(out, ctx):
        if isinstance(out, Exception):
            return f"run_verify {tag} raised {out!r}"
        return check_report(json.loads(out), ctx)
    return Op(key, call, check, deps, known_fault)


def _check_zeta_report(max_period):
    def check(rep, ctx):
        total = sum(oracle.lyndon_count(n) for n in range(1, max_period + 1))
        if rep["measured"].get("orbit_count") != total:
            return f"zeta report counts {rep['measured'].get('orbit_count')} orbits, {total} exist"
        worst = 0.0
        for zt, row in rep["measured"]["rows"].items():
            z = float(zt)
            own = oracle.zeta_truncated(oracle.chebyshev_log_exponents(max_period), max_period, z)
            if _rel(row["value"], own) > ZETA_REL_TOL:
                return f"zeta({z}) reported {row['value']!r}, own truncation {own!r}"
            cf = oracle.chebyshev_zeta(z)
            if _rel(rep["predicted"][zt], cf) > 1e-12:
                return f"zeta({z}) target {rep['predicted'][zt]!r}, closed form {cf!r}"
            worst = max(worst, min(abs(row["value"] - cf),
                                   abs(row["value_tail_completed"] - cf)) / cf)
        if rep["passed"] != (worst <= rep["tolerance"]):
            return f"zeta verdict {rep['passed']} with relative error {worst:.3g}"
        return None
    return check


def _check_no_target_report(rep, ctx):
    """A report with nothing to compare against may not claim a pass."""
    if not rep["predicted"] and rep["discrepancy"] is None and rep["passed"]:
        return "zeta report with no target claims a pass"
    return None


def _check_conjugacy_report(a, max_period, kcache):
    def check(rep, ctx):
        knead = _knead(kcache, "logistic", a)
        expected = {"".join(map(str, w)) for w in oracle.lyndon_words(max_period)
                    if oracle.admissible(w, knead)}
        rows = rep["measured"]["rows"]
        if set(rows) != expected:
            return f"conjugacy rows {sorted(rows)} != admissible {sorted(expected)}"
        worst = 0.0
        for w, row in rows.items():
            if row["interior"]:
                worst = max(worst, row["relative_difference"])
                if _rel(row["sine_exponent"], row["logistic_exponent"]) > CONJUGACY_EXPONENT_TOL:
                    return f"conjugacy word {w}: {row}"
        if _rel(rep["measured"]["endpoint_logistic"], a) > 1e-12 or \
                _rel(rep["measured"]["endpoint_sine"], math.sqrt(a)) > 1e-12:
            return "conjugacy endpoint derivatives are not a and sqrt(a)"
        if rep["passed"] != (not rep["failures"] and worst <= rep["tolerance"]):
            return f"conjugacy verdict {rep['passed']} with worst {worst:.3g}"
        return None
    return check


def _typical_word(rng, family, p, n, knead):
    """An admissible word of length n read off the orbit of a seeded random
    point, so that words are drawn roughly by their weight in the map."""
    lo, hi = oracle.domain(family)
    while True:
        x = rng.uniform(lo, hi)
        for _ in range(32):
            x = oracle.f(family, p, x)
        w = []
        for _ in range(n):
            w.append(oracle.side(family, x))
            x = oracle.f(family, p, x)
        w = tuple(w)
        if 2 not in w and len({w[i:] + w[:i] for i in range(n)}) == n \
                and oracle.admissible(w, knead) is True:
            return w


def build_orbit_census(rng, pools):
    """115 operations: 32 absent single words (all three families), 60 found
    single words at quadratic and logistic parameters, 20 enumerations with
    a zeta evaluation each, and three reports.

    The mix sets the percentiles: absent words cost microseconds, found
    words 7-30 ms, enumerations and reports 0.1-1 s.  op_p50_s falls in the
    middle of the found words and op_p90_s in the middle of the
    q_2 enumerations.  The enumerations and reports run at fixed pool
    parameters, so that their cost does not depend on the seed; the seed
    draws the single-word requests, the zeta arguments and the order."""
    kcache = {}
    chaotic = pools["chaotic"]
    ops = []

    def absent_word(family, p):
        knead = _knead(kcache, family, p)
        while True:
            w = _random_word(rng, rng.randint(12, 20))
            if oracle.admissible(w, knead) is False:
                return w

    for i in range(32):
        family = FAMILIES[i % 3]
        p = rng.choice(chaotic[family])
        ops.append(_single_word_op(f"absent{i}", family, p, absent_word(family, p), kcache))
    for i in range(60):
        family = FAMILIES[i % 2]
        p = rng.choice(chaotic[family])
        word = _typical_word(rng, family, p, 12 + i % 9, _knead(kcache, family, p))
        ops.append(_single_word_op(f"found{i}", family, p, word, kcache))

    def z():
        return round(rng.uniform(0.2, 0.45), 3)

    # Ten q_2 enumerations of equal cost (different z) form the plateau
    # that op_p90_s falls on; the fixed chaotic enumerations sit around it.
    for i in range(10):
        ops.append(_census_enum_op(f"q2enum{i}", "quadratic", 2.0, 5, z(), kcache))
    for family in ("quadratic", "logistic"):
        for i, p in enumerate(chaotic[family][4::8]):
            ops.append(_census_enum_op(f"{family}enum{i}", family, p, 7, z(), kcache))
    for i, a in enumerate(chaotic["logistic"][7::12]):
        ops.append(_census_enum_op(f"pair_l{i}", "logistic", a, 5, z(), kcache))
        op = _census_enum_op(f"pair_s{i}", "sine", a, 5, z(), kcache)
        own = op.check
        pair = _conjugate_pair_check(a, f"pair_l{i}", f"pair_s{i}")
        op.check = lambda out, ctx, own=own, pair=pair: own(out, ctx) or pair(out, ctx)
        op.deps = (f"pair_l{i}",)
        ops.append(op)
    ops.append(_verify_op("zeta_q2", kl.ExperimentConfig(
        map_family="quadratic", map_parameter=2.0, zeta_max_period=6,
        zeta_z_values=(0.25, z())), "zeta", _check_zeta_report(6)))
    a = chaotic["logistic"][len(chaotic["logistic"]) // 2]
    ops.append(_verify_op("conjugacy", kl.ExperimentConfig(
        map_family="logistic", map_parameter=a, conjugacy_max_period=4),
        "conjugacy", _check_conjugacy_report(a, 4, kcache)))
    # Known fault, kept on purpose: a zeta report with no closed form claims
    # a pass.  Seed-independent inputs, so it fails in every round.
    ops.append(_verify_op("zeta_vacuous", kl.ExperimentConfig(
        map_family="logistic", map_parameter=3.9, zeta_max_period=4),
        "zeta", _check_no_target_report, known_fault=True))
    rng.shuffle(ops)
    return ops, _single_word_op("warm", "logistic", 4.0, (1, 0, 0), kcache)


# ---------------------------------------------------------------------------
# measure-stream
# ---------------------------------------------------------------------------

def _integral(ctx, key, family, p, cache):
    """Own sum of mass * ln|Df| over the histogram a density op returned."""
    if key not in cache:
        d = ctx[key]
        cache[key] = oracle.log_derivative_integral(family, p, d.bin_edges, d.mass_per_bin)
    return cache[key]


def _check_density(family, p, n, d):
    mass = np.asarray(d.mass_per_bin)
    if d.sample_count != n or np.any(mass < 0.0) or abs(mass.sum() - 1.0) > 1e-12:
        return f"density {family} {p}: {d.sample_count} samples, mass sum {mass.sum()!r}"
    c = oracle.critical_point(family)
    edges = np.asarray(d.bin_edges)
    left = mass[edges[1:] <= c].sum()
    right = mass[edges[:-1] >= c].sum()
    if abs(left + right - 1.0) > 1e-12:
        return f"density {family} {p}: mu(I_0) + mu(I_1) = {left + right!r}"
    if (family, p) in ARCSINE:
        cdf = np.array([oracle.arcsine_cdf(family, x) for x in edges])
        prob = np.diff(cdf)
        sigma = np.sqrt(prob * (1.0 - prob) * DENSITY_CORRELATION / n)
        z = np.max(np.abs(mass - prob) / np.maximum(sigma, 1e-300))
        if z > DENSITY_SIGMAS:
            return f"density {family} {p}: arcsine bin masses off by {z:.2f} sigma"
    return None


def _check_exponent(family, p, value, ctx, dkey, icache, label):
    if not math.isfinite(value):
        return f"{label} {family} {p}: exponent {value!r}"
    own = _integral(ctx, dkey, family, p, icache)
    if abs(value - own) > LYAP_INTEGRAL_TOL:
        return f"{label} {family} {p}: Birkhoff {value!r}, integral of ln|Df| {own!r}"
    return None


def _own_symbols(family, p, seed, burn_in, n):
    """The typical stream's symbols, regenerated with the same float
    operations from the same seeded start point."""
    lo, hi = oracle.domain(family)
    x = float(np.random.default_rng(seed).uniform(lo, hi))
    c = oracle.critical_point(family)
    for _ in range(burn_in):
        x = oracle.f(family, p, x)
    out = np.empty(n, dtype=np.int8)
    for i in range(n):
        out[i] = 2 if abs(x - c) <= 1e-14 else (1 if x > c else 0)
        x = oracle.f(family, p, x)
    return out


def _own_counts(symbols, word, k_max):
    from numpy.lib.stride_tricks import sliding_window_view
    out = []
    for k in range(1, k_max + 1):
        pat = np.array(word * k, dtype=np.int8)
        win = sliding_window_view(symbols, len(pat))
        out.append((k, int(np.all(win == pat, axis=1).sum())))
    return tuple(out)


def build_measure_stream(rng, pools):
    """115 operations: 30 map slots with a 1e5-sample density and a 1e5
    Birkhoff exponent each, five sine slots paired with logistic slots at
    the same parameter, 10 formula estimates, 30 5e5-sample streams, two
    verify_* calls and three reports.

    Costs here depend on the family and the sample count, not on the
    parameter or the start point, so the seed draws parameters, seeds and
    order freely.  op_p50_s falls among the 1e5-sample operations and
    op_p90_s among the 5e5-sample streams."""
    chaotic = pools["chaotic"]
    icache = {}
    ops = []
    slots = []

    def seed():
        return rng.randrange(1, 2 ** 31)

    def slot(key, family, p):
        m = kl.make_map(family, p)
        n = 10 ** 5
        s_density, s_start = seed(), seed()

        def density():
            return kl.estimate_density(m, n, 256, s_density)

        def lyap():
            return kl.lyapunov_birkhoff(m, kl.seeded_start(m, s_start), n, burn_in=1000)

        def check_density(out, ctx):
            if isinstance(out, Exception):
                return f"estimate_density {family} {p} raised {out!r}"
            return _check_density(family, p, n, out)

        def check_lyap(out, ctx):
            if isinstance(out, Exception):
                return f"lyapunov_birkhoff {family} {p} raised {out!r}"
            if out.hit_critical or out.iterates != n:
                return f"lyapunov_birkhoff {family} {p}: {out}"
            return _check_exponent(family, p, out.value, ctx, key + ".d", icache,
                                   "lyapunov_birkhoff")
        ops.append(Op(key + ".d", density, check_density))
        ops.append(Op(key + ".l", lyap, check_lyap, deps=(key + ".d",)))
        slots.append((key, family, p, m))

    for i in range(30):
        family = FAMILIES[i % 2]
        slot(f"t{i}", family, rng.choice(chaotic[family]))
    logistic_slots = [s for s in slots if s[1] == "logistic"]
    for i, (lkey, _, a, _) in enumerate(logistic_slots[:5]):
        slot(f"s{i}", "sine", a)
        own = ops[-1].check

        def pair(out, ctx, lkey=lkey, skey=f"s{i}", a=a, own=own):
            err = own(out, ctx)
            if err:
                return err
            ll, ls = ctx[lkey + ".l"].value, ctx[skey + ".l"].value
            if abs(ll - ls) > LYAP_PAIR_TOL:
                return f"Birkhoff exponents of f_{a} {ll!r} and g_{a} {ls!r} differ"
            return None
        ops[-1].check = pair
        ops[-1].deps += (lkey + ".l",)

    typical = [s for s in slots if s[1] != "sine"]
    for i in range(10):
        family = FAMILIES[i % 3]
        key, family, p, m = rng.choice([s for s in slots if s[1] == family])
        ops.append(_formula_op(f"formula{i}", family, p, m, seed()))

    for i in range(30):
        key, family, p, m = typical[rng.randrange(len(typical))]
        ops.append(_stream_op(f"stream{i}", key, family, p, m, i % 2, seed(), icache))
    key, family, p, m = typical[rng.randrange(len(typical))]
    ops.append(_lyap_equality_op("vle", key, family, p, m, seed(), icache))
    key, family, p, m = typical[rng.randrange(len(typical))]
    ops.append(_typicality_op("vct", family, p, m, seed()))
    for tag in ("lyap-equality", "theorem-a", "theorem-b"):
        key, family, p, m = typical[rng.randrange(len(typical))]
        config = kl.ExperimentConfig(map_family=family, map_parameter=p, seed=seed(),
                                     density_samples=10 ** 6,
                                     orbit_length_iterates=2 * 10 ** 5,
                                     words=("1", "0", "10"))
        ops.append(_verify_op(f"verify.{tag}", config, tag,
                              _REPORT_CHECKS[tag](key + ".d", family, p, icache),
                              deps=(key + ".d",)))
    rng.shuffle(ops)
    q2 = kl.make_quadratic(2.0)
    warm = Op("warm",
              lambda: kl.lyapunov_birkhoff(q2, 0.3, 10 ** 5), lambda out, ctx: None)
    return ops, warm


FORMULA_PREFIX = 2 * 10 ** 5
FORMULA_WORD = (1, 0)


def _formula_op(key, family, p, m, seed):
    word = _word(FORMULA_WORD)

    def call():
        return kl.formula_exponent_estimate(word, kl.SymbolStream.typical(m, seed),
                                            FORMULA_PREFIX, (2, 6))

    def check(out, ctx):
        if isinstance(out, Exception):
            return f"formula_exponent_estimate {family} {p} raised {out!r}"
        value, est = out
        counts = _own_counts(_own_symbols(family, p, seed, 1000, FORMULA_PREFIX),
                             FORMULA_WORD, 6)
        if tuple(est.per_power_counts) != counts:
            return f"formula {family} {p}: counts {est.per_power_counts} against own {counts}"
        by_k = dict(counts)
        ks = [2]
        while ks[-1] < 6 and by_k[ks[-1] + 1] >= 50:
            ks.append(ks[-1] + 1)
        ys = [math.log(by_k[k] / FORMULA_PREFIX) for k in ks]
        if len(ks) == 1:
            rho = min((by_k[2] / FORMULA_PREFIX) ** 0.5, 1.0)
        else:
            kb, yb = sum(ks) / len(ks), sum(ys) / len(ys)
            slope = sum((k - kb) * (y - yb) for k, y in zip(ks, ys)) / \
                sum((k - kb) ** 2 for k in ks)
            rho = min(math.exp(slope), 1.0)
        if _rel(est.rho_hat, rho) > 1e-9 or _rel(value, -1.0 / rho) > 1e-9:
            return f"formula {family} {p}: rho {est.rho_hat!r} value {value!r}, own rho {rho!r}"
        return None
    return Op(key, call, check)


STREAM_SAMPLES = 5 * 10 ** 5


def _stream_op(key, slot_key, family, p, m, density, seed, icache):
    n = STREAM_SAMPLES
    if density:
        def call():
            return kl.estimate_density(m, n, 512, seed)

        def check(out, ctx):
            if isinstance(out, Exception):
                return f"estimate_density {family} {p} raised {out!r}"
            return _check_density(family, p, n, out)
        return Op(key, call, check)

    def call():
        return kl.lyapunov_birkhoff(m, kl.seeded_start(m, seed), n, burn_in=1000)

    def check(out, ctx):
        if isinstance(out, Exception):
            return f"lyapunov_birkhoff {family} {p} raised {out!r}"
        return _check_exponent(family, p, out.value, ctx, slot_key + ".d", icache,
                               "lyapunov_birkhoff")
    return Op(key, call, check, deps=(slot_key + ".d",))


def _check_equality_sides(family, p, typical, integral, difference, ctx, dkey, icache):
    if abs(difference - (typical - integral)) > 1e-12:
        return f"lyapunov equality {family} {p}: difference is not typical - integral"
    return _check_exponent(family, p, typical, ctx, dkey, icache, "lyapunov equality")


def _lyap_equality_op(key, slot_key, family, p, m, seed, icache):
    def call():
        return kl.verify_lyapunov_equality(m, 10 ** 6, seed)

    def check(out, ctx):
        if isinstance(out, Exception):
            return f"verify_lyapunov_equality {family} {p} raised {out!r}"
        return _check_equality_sides(family, p, out.side_typical, out.side_integral,
                                     out.difference, ctx, slot_key + ".d", icache)
    return Op(key, call, check, deps=(slot_key + ".d",))


TYPICALITY_WORDS = ((0,), (1,), (1, 0))


def _check_typicality_rows(family, p, rows):
    """rows: word text -> (interval or None, average_typical, mu_hat)."""
    for text, (iv, typ, mu) in rows.items():
        word = tuple(int(ch) for ch in text)
        own = oracle.cylinder(family, p, word)
        if iv is not None and (own is None or max(abs(iv[0] - own[0]),
                                                  abs(iv[1] - own[1])) > 1e-12):
            return f"typicality {family} {p} word {text}: cylinder {iv}, own {own}"
        if abs(typ - mu) > VISIT_TOL:
            return f"typicality {family} {p} word {text}: time average {typ!r}, mu_hat {mu!r}"
    return None


def _typicality_op(key, family, p, m, seed):
    words = [_word(w) for w in TYPICALITY_WORDS]

    def call():
        return kl.verify_critical_typicality(m, words, 10 ** 6, seed)

    def check(out, ctx):
        if isinstance(out, Exception):
            return f"verify_critical_typicality {family} {p} raised {out!r}"
        rows = {r.word: (r.interval, r.average_typical, r.mu_hat) for r in out.rows}
        return _check_typicality_rows(family, p, rows)
    return Op(key, call, check)


def _report_lyap_equality(dkey, family, p, icache):
    def check(rep, ctx):
        m = rep["measured"]
        passed = (m["side_typical"] is not None and m["side_integral"] is not None
                  and abs(m["difference"]) <= rep["tolerance"])
        if rep["passed"] != passed:
            return f"lyap-equality verdict {rep['passed']} with difference {m['difference']!r}"
        return _check_equality_sides(family, p, m["side_typical"], m["side_integral"],
                                     m["difference"], ctx, dkey, icache)
    return check


def _report_theorem_a(dkey, family, p, icache):
    def check(rep, ctx):
        all_pass = True
        for text, row in rep["measured"]["rows"].items():
            word = tuple(int(ch) for ch in text)
            own = oracle.periodic_exponent(family, p, word)
            got = row.get("orbit_exponent")
            if (own is None) != (got is None):
                return f"theorem-a {family} {p} word {text}: orbit {got}, own {own}"
            formula = row.get("formula_exponent")
            if own is not None:
                exact = own[0] * math.exp(own[1])
                if _rel(got, exact) > 1e-6:
                    return f"theorem-a {family} {p} word {text}: exponent {got!r}, own {exact!r}"
                if row["orbit_interior"] != (word != (0,)):
                    return f"theorem-a {family} {p} word {text}: interior flag {row['orbit_interior']}"
            if formula is not None and got is not None:
                if _rel(row["ratio"], formula / got) > 1e-12:
                    return f"theorem-a {family} {p} word {text}: ratio {row['ratio']!r}"
                if row["orbit_interior"] and abs(row["ratio"] - 1.0) > rep["tolerance"]:
                    all_pass = False
            elif formula is None and got is not None and row["orbit_interior"]:
                all_pass = False
        if rep["passed"] != all_pass:
            return f"theorem-a verdict {rep['passed']}, rows say {all_pass}"
        return None
    return check


def _report_theorem_b(dkey, family, p, icache):
    def check(rep, ctx):
        rows = rep["measured"]["rows"]
        disc = max(abs(r["average_critical"] - r["mu_hat"]) for r in rows.values())
        if rep["passed"] != (disc <= rep["tolerance"]) or abs(disc - rep["discrepancy"]) > 1e-15:
            return f"theorem-b verdict {rep['passed']} with discrepancy {disc!r}"
        own_rows = {t: (None, r["average_typical"], r["mu_hat"]) for t, r in rows.items()}
        return _check_typicality_rows(family, p, own_rows)
    return check


_REPORT_CHECKS = {"lyap-equality": _report_lyap_equality,
                  "theorem-a": _report_theorem_a,
                  "theorem-b": _report_theorem_b}

# ---------------------------------------------------------------------------
# nest-deep
# ---------------------------------------------------------------------------

NEST_MAX_ITERATES = 10 ** 6
GAP_GENERATIONS = (14, 18)
# (family, index into the nest_ext pool): extended nests of 0.3-1.3 s each
EXTENDED = (("logistic", 3), ("logistic", 4), ("logistic", 5), ("sine", 0), ("sine", 5))


def _amplified_orbit(cache, family, p, bits):
    """The 420-bit critical orbit x_0 = c, x_1, ... and, for each t, the
    error a `bits`-bit computation of x_t can carry: 2^-bits times E_t,
    where E_1 = 1 and E_{t+1} = |Df(x_t)| E_t + 1 accumulates log2|Df|
    along the orbit (the shadowing estimate of Hammel, Yorke and Grebogi,
    1987), plus the rounding of a reported endpoint.  The orbit stops where
    that error would exceed the whole interval."""
    if (family, p, bits) not in cache:
        orbit = oracle.critical_orbit(family, p, 64)
        err, e, t = [math.inf, 2.0 ** -bits], 1.0, 1
        while err[-1] < 1.0:
            if t + 1 >= len(orbit):
                orbit = oracle.critical_orbit(family, p, 2 * len(orbit))
            e = abs(oracle.df(family, p, float(orbit[t]))) * e + 1.0
            err.append(16.0 * 2.0 ** -bits * e + 2.0 ** -52)
            t += 1
        cache[(family, p, bits)] = (orbit, err)
    return cache[(family, p, bits)]


def _first_entry(orbit, err, lo, hi, v):
    """(t, trusted): the 420-bit orbit's first entry time into (lo, hi),
    or None when it stays out up to v.  Trusted when every point up to
    min(t, v) lies farther from the ends than the working precision's
    error: the program then had to find the same time."""
    lo, hi = oracle.mp.mpf(lo), oracle.mp.mpf(hi)
    for t in range(1, len(err)):
        x = orbit[t]
        if min(abs(x - lo), abs(x - hi)) <= err[t]:
            return None, False
        inside = lo < x < hi
        if inside or t == v:
            return (t if inside else None), True
    return None, False


def check_nest(family, p, rep, cache):
    c = oracle.critical_point(family)
    levels = rep.levels
    if not levels:
        return f"nest {family} {p}: no levels ({rep.termination})"
    for a, b in zip(levels, levels[1:]):
        if not (a.interval[0] <= b.interval[0] and b.interval[1] <= a.interval[1]
                and b.width < a.width):
            return f"nest {family} {p}: level {b.index} {b.interval} not inside {a.interval}"
        if a.c_n is not None and _rel(a.c_n, b.width / a.width) > 1e-9:
            return f"nest {family} {p}: c_{a.index} = {a.c_n!r}, widths give {b.width / a.width!r}"
    for lv in levels:
        if not lv.interval[0] < c < lv.interval[1]:
            return f"nest {family} {p}: level {lv.index} {lv.interval} misses c"
    k = rep.renormalization_period
    for e in levels[0].interval:
        y, d = e, 1.0
        for _ in range(k):
            d *= oracle.df(family, p, y)
            y = oracle.f(family, p, y)
        if abs(y - e) <= 1e-9 and d <= -1.0 + 1e-9:
            break
    else:
        return f"nest {family} {p}: no endpoint of I_0 is a reversing fixed point of f^{k}"
    orbit, err = _amplified_orbit(cache, family, p, 120 if rep.extended_precision else 53)
    for lv in levels:
        t, trusted = _first_entry(orbit, err, lv.interval[0], lv.interval[1], lv.v_n)
        if trusted and t != lv.v_n:
            return (f"nest {family} {p}: v_{lv.index} = {lv.v_n}, the 420-bit critical "
                    f"orbit enters first at {t}")
    return None


def check_gaps(family, p, interval, gaps):
    a, b = interval
    lo, hi, gen = (np.asarray(v) for v in (gaps.gap_lo, gaps.gap_hi, gaps.generations))
    if len(lo) == 0 or gen[0] != 0 or (lo[0], hi[0]) != (a, b):
        return f"gaps {family} {p}: generation 0 is not I_n"
    if np.any(hi <= lo):
        return f"gaps {family} {p}: empty gap"
    order = np.argsort(lo, kind="stable")
    if np.any(hi[order][:-1] > lo[order][1:] + 1e-15):
        return f"gaps {family} {p}: gaps overlap"
    outer = gen > 0
    if np.any((hi[outer] > a) & (lo[outer] < b)):
        return f"gaps {family} {p}: a gap meets int I_n"
    eps = 2.0 ** -53
    for g in range(1, int(gen.max()) + 1):
        sel = gen == g
        x = np.concatenate([lo[sel], hi[sel]])
        amp = np.ones_like(x)
        for _ in range(g):
            amp = oracle.abs_df_array(family, p, x) * amp + 1.0
            x = oracle.f_array(family, p, x)
        tol = 16.0 * eps * amp
        half = sel.sum()
        ok = ((np.abs(x[:half] - a) <= tol[:half]) & (np.abs(x[half:] - b) <= tol[half:])) | \
             ((np.abs(x[:half] - b) <= tol[:half]) & (np.abs(x[half:] - a) <= tol[half:]))
        if not np.all(ok):
            i = int(np.argmin(ok))
            return (f"gaps {family} {p}: f^{g} sends gap ({lo[sel][i]!r}, {hi[sel][i]!r}) "
                    f"to ({x[i]!r}, {x[half + i]!r}), not onto I_n")
    return None


def _nest_op(key, family, p, depth, extended, cache):
    m = kl.make_map(family, p)

    def call():
        return kl.build_nest(m, depth, NEST_MAX_ITERATES, extended_precision=extended)

    def check(out, ctx):
        if isinstance(out, Exception):
            return f"build_nest {family} {p} raised {out!r}"
        return check_nest(family, p, out, cache)
    return Op(key, call, check)


def _gap_op(key, family, p, report, g):
    m = kl.make_map(family, p)

    def call():
        return kl.gap_family(m, 1, g, nest_report=report)

    def check(out, ctx):
        if isinstance(out, Exception):
            return f"gap_family {family} {p} raised {out!r}"
        if out.max_generation != g or int(np.max(out.generations)) > g:
            return f"gap_family {family} {p}: generations beyond {g}"
        return check_gaps(family, p, report.levels[1].interval, out)
    return Op(key, call, check)


def _report_theorem_c(rep, ctx):
    m = rep["measured"]
    norms = m["lp_norms"]
    g1, g2 = sorted(norms, key=int)
    finite = all(v is not None for g in norms.values() for v in g.values())
    drift = max(max(norms[g2][q] / norms[g1][q], norms[g1][q] / norms[g2][q])
                for q in norms[g1]) if finite else None
    lo, hi = rep["predicted"]["slope_window"]
    passed = finite and drift <= rep["tolerance"] and lo <= m["slope"] <= hi
    if rep["passed"] != passed or (finite and _rel(m["norm_drift"], drift) > 1e-12):
        return f"theorem-c verdict {rep['passed']} with drift {drift!r}, slope {m['slope']!r}"
    if any(not 0.0 <= cov <= 1.0 + 1e-9 for cov in m["coverage"].values()):
        return f"theorem-c coverage {m['coverage']}"
    return None


def _report_nest_lyapunov(rep, ctx):
    m = rep["measured"]
    v = m["v_n"]
    seq = [2.0 * math.log(b) / a for a, b in zip(v, v[1:])]
    if len(seq) != len(m["nest_sequence"]) or any(
            _rel(x, y) > 1e-12 for x, y in zip(m["nest_sequence"], seq)):
        return f"nest-lyapunov sequence {m['nest_sequence']} against v_n {v}"
    disc = abs(seq[-1] / m["birkhoff_lyapunov"] - 1.0)
    if rep["passed"] != (disc <= rep["tolerance"]) or _rel(rep["discrepancy"], disc) > 1e-12:
        return f"nest-lyapunov verdict {rep['passed']} with discrepancy {disc!r}"
    return None


def build_nest_deep(rng, pools):
    """105 operations: every double-precision pool nest at depths 4 and 6
    (72), gap families at two generations for eight pool nests (16), five
    extended-precision nests, two theorem-c reports and ten nest-lyapunov
    reports at one parameter and ten seeds.

    A nest's cost depends on its parameter far more than on anything
    else, so every operation runs at fixed pool entries; the seed draws the
    reports' program seeds and the order.  op_p50_s falls among the double
    nests, op_p90_s among the ten equal nest-lyapunov reports, and the
    extended nests make most of wall_s."""
    cache = {}
    ops = []
    nest_pool = [(fam, p) for fam in FAMILIES for p in pools["nest"][fam]]
    for i, (family, p) in enumerate(nest_pool):
        for depth in (4, 6):
            ops.append(_nest_op(f"double{i}.{depth}", family, p, depth, False, cache))
    for i, (family, p) in enumerate(nest_pool[::3][:8]):
        report = kl.build_nest(kl.make_map(family, p), 6, NEST_MAX_ITERATES)
        for g in GAP_GENERATIONS:
            ops.append(_gap_op(f"gaps{i}.{g}", family, p, report, g))
    for family, index in EXTENDED:
        p = pools["nest_ext"][family][index]
        ops.append(_nest_op(f"extended.{family}{index}", family, p, 4, True, cache))
    ql_pool = [(fam, p) for fam, p in nest_pool if fam != "sine"]
    # theorem-c (2e6 density samples, about 0.3 s) sits above the ten equal
    # nest-lyapunov reports (about 0.13 s) that op_p90_s falls on
    reports = [("theorem-c", ql_pool[0]), ("theorem-c", ql_pool[-1])] + \
        [("nest-lyapunov", ql_pool[0])] * 10
    for i, (tag, (family, p)) in enumerate(reports):
        config = kl.ExperimentConfig(map_family=family, map_parameter=p,
                                     seed=rng.randrange(1, 2 ** 31),
                                     density_samples=2 * 10 ** 6, nest_max_depth=6,
                                     orbit_length_iterates=10 ** 6,
                                     gap_max_generation=GAP_GENERATIONS[0])
        check = _report_theorem_c if tag == "theorem-c" else _report_nest_lyapunov
        ops.append(_verify_op(f"verify.{tag}{i}", config, tag, check))
    rng.shuffle(ops)
    family, p = nest_pool[0]
    return ops, _nest_op("warm", family, p, 4, False, cache)


BUILDERS = {"orbit-census": build_orbit_census,
            "measure-stream": build_measure_stream,
            "nest-deep": build_nest_deep}
