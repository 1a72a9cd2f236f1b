"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s`.

The Chebyshev map q_2 carries one exceptional orbit: the boundary fixed
point -1 lies on the postcritical orbit, where the smooth tent conjugacy
degenerates.  Its exponent is 4 (not 2), the frequency formula tracks the
measure decay 1/2 there (not the length decay 1/4), and the critical value
lands on it, making the critical-value Lyapunov exponent ln 4.  Those three
anomalies are pinned explicitly below; all interior statements hold at the
stated tolerances.
"""

import math
import time

import numpy as np
import pytest

from kneadlab import (NoOrbitPredicted, SymbolStream, SymbolWord,
                      ZetaTruncation, build_nest, cylinder,
                      enumerate_periodic, estimate_density, find_periodic,
                      formula_exponent_estimate, gap_family, itinerary,
                      make_quadratic, regularized_density_report,
                      verify_lyapunov_equality)
from kneadlab.harness import ExperimentConfig, run_verify
from kneadlab.measure import measure_of_intervals
from kneadlab.symbolic import count_occurrences, frequency
from nest_checks import check_nest_invariants, orientation_reversing_fixed_point
from screen import screened_parameters

ACCEPT_SEED = 20260810


def _verdict(num, name, ok, detail=""):
    print(f"\nACCEPTANCE {num} [{name}]: {'PASS' if ok else 'FAIL'} {detail}")
    assert ok


@pytest.fixture(scope="module")
def q2():
    return make_quadratic(2.0)


@pytest.fixture(scope="module")
def typical_prefix_1e7(q2):
    return SymbolStream.typical(q2, seed=ACCEPT_SEED).take(10 ** 7)


@pytest.fixture(scope="module")
def q2_density_1e7(q2):
    return estimate_density(q2, 10 ** 7, 512, seed=ACCEPT_SEED)


@pytest.fixture(scope="module")
def screened_taus_20():
    return screened_parameters(make_quadratic, 1.75, 2.0, 20, 777)


def test_criterion_1_chebyshev_exponent_law(q2):
    t0 = time.time()
    enum = enumerate_periodic(q2, 10)
    elapsed = time.time() - t0
    ok = not enum.failures
    counts_ok = all(
        sum(o.period for o in enum.orbits if n % o.period == 0) == 2 ** n
        for n in range(1, 11))
    rate_ok = True
    boundary = []
    for o in enum.orbits:
        if o.is_interior(q2):
            if abs(math.exp(o.exponent_log_abs / o.period) - 2.0) > 2.0 * 1e-9:
                rate_ok = False
        else:
            boundary.append(o)
    # the single boundary orbit is the fixed point -1 with exponent 4
    boundary_ok = (len(boundary) == 1 and str(boundary[0].word) == "0"
                   and boundary[0].exponent == pytest.approx(4.0, rel=1e-12))
    signs_ok = all(o.exponent_sign == (-1) ** o.word.ones()
                   for o in enum.orbits)
    ok = ok and counts_ok and rate_ok and boundary_ok and signs_ok and elapsed < 10.0
    _verdict(1, "Chebyshev exponent law", ok,
             f"(orbits={len(enum)}, runtime={elapsed:.1f}s, "
             f"boundary exponent={boundary[0].exponent:.1f})")


def test_criterion_2_theorem_a_desk_form(q2, typical_prefix_1e7):
    t0 = time.time()
    n = 10 ** 7
    interior_words = ["1", "10", "100", "110"]
    ratios = {}
    for text in interior_words:
        word = SymbolWord.from_string(text)
        val, _ = formula_exponent_estimate(
            word, SymbolStream.from_array(typical_prefix_1e7), n, (2, 6))
        orb = find_periodic(q2, word)
        ratios[text] = val / orb.exponent
    interior_ok = all(abs(r - 1.0) <= 0.10 for r in ratios.values())
    # pinned anomaly: the boundary word "0" tracks measure decay (rho = 1/2,
    # formula +2) while the true exponent is +4
    val0, _ = formula_exponent_estimate(
        SymbolWord.from_string("0"),
        SymbolStream.from_array(typical_prefix_1e7), n, (2, 6))
    orb0 = find_periodic(q2, SymbolWord.from_string("0"))
    anomaly_ok = (abs(val0 - 2.0) <= 0.2 and orb0.exponent == pytest.approx(4.0)
                  and not orb0.is_interior(q2))
    # negative control: the critical-point stream must predict no orbit
    with pytest.raises(NoOrbitPredicted):
        formula_exponent_estimate(SymbolWord.from_string("1"),
                                  SymbolStream.kneading(q2), n, (2, 6))
    elapsed = time.time() - t0
    ok = interior_ok and anomaly_ok and elapsed < 120.0
    _verdict(2, "Theorem A desk form", ok,
             f"(ratios={ {k: round(v, 3) for k, v in ratios.items()} }, "
             f"boundary formula={val0:.2f} vs orbit {orb0.exponent:.1f}, "
             f"runtime={elapsed:.0f}s)")


def test_criterion_3_arcsine_density(q2, q2_density_1e7):
    t0 = time.time()
    d = q2_density_1e7
    e = d.bin_edges
    exact = (np.arcsin(e[1:]) - np.arcsin(e[:-1])) / math.pi
    l1 = float(np.abs(d.mass_per_bin - exact).sum())
    half = measure_of_intervals(d, 0.0, 1.0)
    elapsed = time.time() - t0
    ok = l1 < 0.02 and abs(half - 0.5) <= 0.005 and elapsed < 60.0
    _verdict(3, "arcsine density", ok,
             f"(L1={l1:.4f}, mu[0,1]={half:.4f}, runtime={elapsed:.0f}s)")


def test_criterion_4_lyapunov_equality(q2):
    rec = verify_lyapunov_equality(q2, 10 ** 7, seed=ACCEPT_SEED)
    ln2 = math.log(2.0)
    sides_ok = (abs(rec.side_typical - ln2) <= 5e-3
                and abs(rec.side_integral - ln2) <= 5e-3)
    diff_ok = abs(rec.difference) < 1e-2
    # pinned anomaly: the critical value lands on the repelling fixed point
    # -1, so its Birkhoff exponent is ln 4, not ln 2
    anomaly_ok = abs(rec.side_critical_value - math.log(4.0)) <= 1e-9
    ok = sides_ok and diff_ok and anomaly_ok
    _verdict(4, "Lyapunov equality", ok,
             f"(typical={rec.side_typical:.5f}, integral={rec.side_integral:.5f}, "
             f"critical={rec.side_critical_value:.5f})")


def test_criterion_5_zeta_closed_form(q2):
    t0 = time.time()
    enum = enumerate_periodic(q2, 12)
    zt = ZetaTruncation(enum.orbits, 12)

    def closed_form(z):
        # 2^n - 1 interior points of Fix(f^n) at |Df^n| = 2^n plus the
        # boundary point -1 at 4^n (verified against the enumerated traces)
        return (1 - z / 2) / ((1 - z) * (1 - z / 4))

    # trace identity over Fix(f^n); summing ~2^n orbit exponents loosens
    # the per-orbit 1e-9 to ~1e-8 at n = 12
    trace_ok = all(
        zt._trace(n) == pytest.approx((2 ** n - 1) / 2 ** n + 4.0 ** (-n),
                                      rel=1e-8) for n in range(1, 13))
    results = {}
    for z, tol, use_completed in ((0.25, 0.01, False), (0.5, 0.01, False),
                                  (0.9, 0.10, True)):
        ev = zt.evaluate(z)
        value = ev.value_tail_completed if use_completed else ev.value
        err = abs(value - closed_form(z)) / closed_form(z)
        results[z] = (value, err, err <= tol)
    # the plain truncation at z = 0.9 misses the periods beyond 12, a
    # ~12% deficit; the reported tail completion recovers it
    plain_deficit = abs(zt.evaluate(0.9).value - closed_form(0.9)) / closed_form(0.9)
    deficit_ok = 0.10 < plain_deficit < 0.15
    elapsed = time.time() - t0
    ok = (trace_ok and all(r[2] for r in results.values()) and deficit_ok
          and not enum.failures and elapsed < 30.0)
    _verdict(5, "zeta closed form", ok,
             f"(errors={ {z: f'{r[1]:.2%}' for z, r in results.items()} }, "
             f"plain z=0.9 deficit={plain_deficit:.2%}, runtime={elapsed:.0f}s)")


def test_criterion_6_conjugacy_oracle():
    worst = 0.0
    endpoint_worst = 0.0
    for a in (2.5, 3.3, 3.9):
        cfg = ExperimentConfig(map_family="logistic", map_parameter=a,
                               conjugacy_max_period=4)
        rep = run_verify(cfg, "conjugacy")
        assert rep.passed, rep.failures
        worst = max(worst, rep.discrepancy)
        endpoint_worst = max(endpoint_worst, rep.measured["endpoint_error"])
    ok = worst <= 1e-9 and endpoint_worst <= 1e-12
    _verdict(6, "conjugacy oracle", ok,
             f"(worst interior rel diff={worst:.2e}, "
             f"endpoint err={endpoint_worst:.2e})")


def test_criterion_7_nest_sanity(screened_taus_20):
    q19 = make_quadratic(1.9)
    p = orientation_reversing_fixed_point(q19)
    fp_ok = abs(p - 9 / 19) <= 1e-12
    rep19 = build_nest(q19, 4, 10 ** 6)
    v0_ok = rep19.levels[0].v_n == 3
    checked = 0
    for tau in screened_taus_20:
        m = make_quadratic(tau)
        rep = build_nest(m, 5, 10 ** 6)
        check_nest_invariants(m, rep)
        checked += 1
    ok = fp_ok and v0_ok and checked == 20
    _verdict(7, "nest sanity", ok,
             f"(p-9/19={p - 9 / 19:.1e}, v_0={rep19.levels[0].v_n}, "
             f"parameters checked={checked})")


def test_criterion_8_theorem_c_desk_form(screened_taus_20):
    t0 = time.time()
    checked = []
    # at once-renormalized parameters the generation budget (<= 18 base-map
    # iterates) probes only the pre-asymptotic regime of the slope
    # diagnostic (landing must thread the band cycle), so the five fixtures
    # are the screened draws with no detected renormalization
    fixtures = [t for t in screened_taus_20
                if build_nest(make_quadratic(t), 1, 10 ** 6)
                .renormalization_period == 1][:5]
    for tau in fixtures:
        m = make_quadratic(tau)
        # at some fixtures the double nest's level 1 lies past its horizon
        nest_rep = build_nest(m, 2, 10 ** 6, extended_precision=True)
        density = estimate_density(m, 10 ** 6, 512, seed=ACCEPT_SEED)
        # deepest level in {1, 2} that the histogram still resolves; below
        # bin resolution every gap measure is an interpolation artifact
        level = 1
        if (len(nest_rep.levels) > 2
                and nest_rep.levels[2].width >= 8 * density.bin_width):
            level = 2
        norms = {}
        slope = None
        for gen in (14, 18):
            gaps = gap_family(m, level, gen, nest_report=nest_rep)
            rep = regularized_density_report(gaps, density, [1.0, 2.0, 4.0])
            norms[gen] = rep.lp_norms
            slope = rep.slope
        finite = all(math.isfinite(norms[g][p]) and norms[g][p] > 0
                     for g in (14, 18) for p in (1.0, 2.0, 4.0))
        drift = max(max(norms[18][p] / norms[14][p],
                        norms[14][p] / norms[18][p]) for p in (1.0, 2.0, 4.0))
        checked.append((tau, level, finite, drift, slope))
    elapsed = time.time() - t0
    ok = (len(checked) == 5
          and all(f and d < 2.0 and 0.8 <= s <= 1.2
                  for _, _, f, d, s in checked)
          and elapsed < 300.0)
    detail = ", ".join(f"tau={t:.4f} L{lv} drift={d:.2f} slope={s:.2f}"
                       for t, lv, _, d, s in checked)
    _verdict(8, "Theorem C desk form", ok, f"({detail}, runtime={elapsed:.0f}s)")


def test_criterion_9_property_suites(q2):
    q19 = make_quadratic(1.9)
    # shift equivariance
    rng = np.random.default_rng(ACCEPT_SEED)
    shift_ok = True
    checked = 0
    while checked < 100:
        x = float(rng.uniform(-1, 1))
        pts = [x]
        for _ in range(30):
            pts.append(q19._f(pts[-1]))
        if min(abs(v) for v in pts) <= 1e-12:
            continue
        a = itinerary(q19, x, 30)
        b = itinerary(q19, q19._f(x), 29)
        shift_ok = shift_ok and a.symbols[1:] == b.symbols
        checked += 1
    # cylinder nesting and equal-length disjointness
    nest_ok = True
    words4 = [SymbolWord(tuple((i >> j) & 1 for j in range(4)))
              for i in range(16)]
    ivs = sorted(c.interval for c in (cylinder(q19, w) for w in words4)
                 if not c.is_empty)
    for (a1, b1), (a2, b2) in zip(ivs, ivs[1:]):
        nest_ok = nest_ok and a2 >= b1 - 1e-12
    for w in words4[:8]:
        outer = cylinder(q19, SymbolWord(w.symbols[:3]))
        inner = cylinder(q19, w)
        if not inner.is_empty:
            nest_ok = (nest_ok and inner.interval[0] >= outer.interval[0] - 1e-12
                       and inner.interval[1] <= outer.interval[1] + 1e-12)
    # count monotonicity (exact)
    arr = rng.integers(0, 2, 100_000).astype(np.int8)
    pat = np.array([1, 0], dtype=np.int8)
    counts = [count_occurrences(np.tile(pat, k), arr) for k in range(1, 7)]
    mono_ok = all(x >= y for x, y in zip(counts, counts[1:]))
    # histogram normalization
    d = estimate_density(q19, 10 ** 5, 256, seed=ACCEPT_SEED)
    hist_ok = abs(d.mass_per_bin.sum() - 1.0) < 1e-12
    # determinism of reports
    cfg = ExperimentConfig(map_family="quadratic", map_parameter=2.0,
                           orbit_length_iterates=10 ** 5,
                           density_samples=10 ** 6, words=("1",))
    det_ok = (run_verify(cfg, "theorem-a").to_json()
              == run_verify(cfg, "theorem-a").to_json())
    ok = shift_ok and nest_ok and mono_ok and hist_ok and det_ok
    _verdict(9, "property suites", ok,
             f"(shift={shift_ok}, cylinders={nest_ok}, counts={mono_ok}, "
             f"histogram={hist_ok}, determinism={det_ok})")
