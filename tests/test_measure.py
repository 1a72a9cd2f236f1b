import dataclasses
import math

import numpy as np
import pytest

from kneadlab import (CriticalNonReturn, CycleNotClosed, DegenerateOrbit,
                      OutOfDomain, SymbolStream, SymbolWord, TooManyGaps,
                      UncoveredMass, attractor_cycle, estimate_density,
                      find_periodic, gap_family, lyapunov_birkhoff,
                      make_logistic, make_quadratic, measure_of_interval,
                      regularized_density_report, verify_critical_typicality,
                      verify_lyapunov_equality)
from kneadlab.measure import (_detect_periodic_attractor, screened_parameters,
                              seeded_start, stochasticity_screen)
from kneadlab.symbolic import cylinder, frequency


def W(s):
    return SymbolWord.from_string(s)


# --- density -----------------------------------------------------------

def test_density_normalization(q19):
    d = estimate_density(q19, 10 ** 5, 256, seed=1)
    assert abs(d.mass_per_bin.sum() - 1.0) < 1e-12
    assert np.all(d.mass_per_bin >= 0.0)
    assert d.seed == 1


def test_density_requires_enough_samples(q19):
    with pytest.raises(ValueError):
        estimate_density(q19, 10 ** 4, 256, seed=1)


def test_density_degenerate_orbit():
    with pytest.raises(DegenerateOrbit) as exc:
        estimate_density(make_quadratic(0.9), 10 ** 5, 256, seed=1)
    assert exc.value.period == 1
    # the attracting fixed point of q_0.9 is -1/9
    assert exc.value.cycle[0] == pytest.approx(-1 / 9, abs=1e-6)


def test_density_arcsine_small(q2):
    d = estimate_density(q2, 10 ** 6, 512, seed=7)
    e = d.bin_edges
    exact = (np.arcsin(e[1:]) - np.arcsin(e[:-1])) / math.pi
    assert np.abs(d.mass_per_bin - exact).sum() < 0.06
    mid = np.searchsorted(e, 0.0)  # bin whose left edge is 0
    assert d.mass_per_bin[mid] == pytest.approx(d.bin_width / math.pi, rel=0.2)


def test_density_reproducible(q19):
    a = estimate_density(q19, 10 ** 5, 128, seed=3)
    b = estimate_density(q19, 10 ** 5, 128, seed=3)
    assert np.array_equal(a.mass_per_bin, b.mass_per_bin)


# --- measure_of_interval -------------------------------------------------

def test_measure_of_interval_edges(q2):
    d = estimate_density(q2, 10 ** 5, 128, seed=2)
    assert measure_of_interval(d, q2.domain) == pytest.approx(1.0, abs=1e-12)
    assert measure_of_interval(d, (0.3, 0.3)) == 0.0
    assert measure_of_interval(d, None) == 0.0


def test_measure_of_interval_half(q2):
    d = estimate_density(q2, 10 ** 6, 512, seed=2)
    assert measure_of_interval(d, (0.0, 1.0)) == pytest.approx(0.5, abs=0.01)


def test_measure_of_interval_partial_bin(q2):
    d = estimate_density(q2, 10 ** 5, 128, seed=2)
    e = d.bin_edges
    full = measure_of_interval(d, (e[10], e[11]))
    half = measure_of_interval(d, (e[10], 0.5 * (e[10] + e[11])))
    assert half == pytest.approx(0.5 * full, rel=1e-12)


# --- attractor cycle -------------------------------------------------------

def test_attractor_cycle_q2(q2):
    ac = attractor_cycle(q2)
    assert ac.period == 1
    assert ac.intervals[0] == pytest.approx((-1.0, 1.0))


def test_attractor_cycle_q19(q19):
    ac = attractor_cycle(q19)
    f1 = q19.raw(0.0)
    f2 = q19.raw(f1)
    assert ac.period == 1
    assert ac.intervals[0][0] == pytest.approx(f2, abs=1e-15)
    assert ac.intervals[0][1] == pytest.approx(f1, abs=1e-15)


def test_attractor_cycle_logistic_band_cycles():
    # band counts from a direct simulation oracle: a = 3.6 has a 2-cycle of
    # intervals, a = 3.58 sits one merging level deeper (4-cycle)
    ac = attractor_cycle(make_logistic(3.6))
    assert ac.period == 2
    (a1, b1), (a2, b2) = sorted(ac.intervals)
    assert b1 < a2  # disjoint interiors
    assert attractor_cycle(make_logistic(3.58)).period == 4


def test_attractor_cycle_not_closed_for_transient():
    # regular map with a slowly converging critical orbit: T_0 built from
    # the first two critical iterates is not yet invariant
    with pytest.raises(CycleNotClosed):
        attractor_cycle(make_quadratic(0.9))


# --- lyapunov ---------------------------------------------------------------

def test_lyapunov_fixed_point_exact(q2):
    est = lyapunov_birkhoff(q2, 0.5, 10 ** 5)
    assert est.value == pytest.approx(math.log(2.0), rel=1e-12)
    assert not est.hit_critical


def test_lyapunov_typical_q2(q2):
    est = lyapunov_birkhoff(q2, seeded_start(q2, 44), 10 ** 6, burn_in=1000)
    assert est.value == pytest.approx(math.log(2.0), abs=5e-3)


def test_lyapunov_negative_for_regular_map():
    m = make_quadratic(0.9)
    est = lyapunov_birkhoff(m, seeded_start(m, 4), 10 ** 5, burn_in=1000)
    assert est.value < -0.5


def test_lyapunov_rejects_start_outside_domain(q19):
    # the orbit of 3.0 escapes to -inf and used to read as an exponent of -inf
    for x0 in (3.0, math.nan):
        with pytest.raises(OutOfDomain):
            lyapunov_birkhoff(q19, x0, 10 ** 5)
    with pytest.raises(ValueError):
        lyapunov_birkhoff(q19, 0.1, 0)


def test_lyapunov_hit_critical_flag(q2):
    est = lyapunov_birkhoff(q2, 0.0, 10 ** 5)
    assert est.hit_critical
    assert est.value == -math.inf


# --- critical typicality ------------------------------------------------------

def test_typicality_q2_misiurewicz_failure(q2):
    table = verify_critical_typicality(q2, [W("1")], 10 ** 6, seed=5)
    row = table.rows[0]
    assert row.average_critical == pytest.approx(0.0, abs=1e-5)
    assert row.average_typical == pytest.approx(0.5, abs=0.01)
    assert table.max_discrepancy == pytest.approx(0.5, abs=0.01)


def test_typicality_screened_parameter(screened_taus):
    m = make_quadratic(screened_taus[0])
    table = verify_critical_typicality(m, [W("1")], 10 ** 6, seed=5)
    assert table.max_discrepancy < 0.02


def test_typicality_empty_cylinder_all_zero(q19):
    # 001 has an empty cylinder at tau = 1.9
    table = verify_critical_typicality(q19, [W("001")], 10 ** 6, seed=5)
    row = table.rows[0]
    assert row.average_critical <= 1e-6
    assert row.average_typical <= 1e-6
    assert row.mu_hat <= 1e-6


# --- lyapunov equality ---------------------------------------------------------

def test_lyap_equality_q2(q2):
    rec = verify_lyapunov_equality(q2, 10 ** 6, seed=9)
    # the critical value lands on the exceptional fixed point -1: ln 4
    assert rec.side_critical_value == pytest.approx(math.log(4.0), abs=1e-9)
    assert rec.side_typical == pytest.approx(math.log(2.0), abs=5e-3)
    assert rec.side_integral == pytest.approx(math.log(2.0), abs=5e-3)
    assert abs(rec.difference) < 1e-2
    assert len(rec.singular_bins) > 0
    assert not rec.density_degenerate


def test_lyap_equality_regular_map():
    rec = verify_lyapunov_equality(make_quadratic(0.9), 10 ** 6, seed=9)
    assert rec.density_degenerate
    # both sides governed by the attracting fixed point -1/9: ln|Df| = ln 0.2
    target = math.log(0.2)
    assert rec.side_typical == pytest.approx(target, abs=0.05)
    assert rec.side_integral == pytest.approx(target, abs=1e-6)
    assert rec.side_critical_value == pytest.approx(target, abs=0.05)


# --- gaps -------------------------------------------------------------------

def test_gap_generation_zero_is_base_interval(q19):
    gaps = gap_family(q19, 1, 6)
    assert gaps.generations[0] == 0
    assert (gaps.gap_lo[0], gaps.gap_hi[0]) == gaps.base_interval


def test_gap_disjointness_and_width_bound(q19):
    gaps = gap_family(q19, 1, 12)
    order = np.argsort(gaps.gap_lo)
    lo, hi = gaps.gap_lo[order], gaps.gap_hi[order]
    assert np.all(lo[1:] >= hi[:-1] - 1e-12)
    assert gaps.widths.sum() <= (q19.domain[1] - q19.domain[0]) + 1e-9
    # derivative bound: |gap| >= |I_n| kappa^{-generation}
    kappa = 2.0 * q19.parameter
    base = gaps.base_interval[1] - gaps.base_interval[0]
    floor = base * kappa ** (-gaps.generations.astype(float))
    assert np.all(gaps.widths >= floor * (1 - 1e-9))


def test_gap_coverage_grows(q19):
    d = estimate_density(q19, 10 ** 6, 512, seed=6)
    covers = []
    for g in (8, 12):
        gaps = gap_family(q19, 1, g)
        with pytest.warns(UncoveredMass):
            rep = regularized_density_report(gaps, d, [1.0])
        covers.append(rep.coverage)
    assert covers[1] > covers[0]


def test_gap_budget(q19):
    with pytest.raises(TooManyGaps):
        gap_family(q19, 1, 18, budget=100)


def test_gap_q2_propagates_critical_non_return(q2):
    with pytest.raises(CriticalNonReturn):
        gap_family(q2, 1, 8)


def test_gap_landing_property(q19):
    # every gap of generation g maps onto I_n after exactly g iterates,
    # staying outside int I_n before that
    gaps = gap_family(q19, 1, 8)
    a, b = gaps.base_interval
    rng = np.random.default_rng(12)
    idx = rng.choice(len(gaps), size=min(60, len(gaps)), replace=False)
    for i in idx:
        g = int(gaps.generations[i])
        if g == 0:
            continue
        x = float(0.5 * (gaps.gap_lo[i] + gaps.gap_hi[i]))
        for t in range(g):
            assert not (a < x < b)
            x = q19.raw(x)
        assert a - 1e-9 <= x <= b + 1e-9


def test_regularized_report_l1_bounded(q19):
    d = estimate_density(q19, 10 ** 6, 512, seed=6)
    gaps = gap_family(q19, 1, 12)
    with pytest.warns(UncoveredMass):
        rep = regularized_density_report(gaps, d, [1.0, 2.0])
    assert rep.lp_norms[1.0] <= 1.0 + 1e-9
    assert math.isfinite(rep.lp_norms[2.0])
    assert rep.gaps_below_bin_resolution >= 0


def test_regularized_slope_preasymptotic_when_renormalized():
    # at a once-renormalized stochastic parameter, landing into I_n threads
    # the band cycle, so the exponent diagnostic converges slowly: the
    # slope rises with generation depth but stays below the asymptotic
    # band at generation 18 (regression pin for the acceptance exclusion)
    import warnings
    from kneadlab import build_nest
    m = make_quadratic(1.799040640606637)
    nest_rep = build_nest(m, 1, 10 ** 6)
    assert nest_rep.renormalization_period == 2
    d = estimate_density(m, 10 ** 6, 512, seed=20260810)
    slopes = []
    for g in (10, 14, 18):
        gaps = gap_family(m, 1, g, nest_report=nest_rep)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UncoveredMass)
            rep = regularized_density_report(gaps, d, [1.0])
        slopes.append(rep.slope)
    assert slopes == sorted(slopes)
    assert 0.4 < slopes[-1] < 0.8


def test_regularized_report_map_mismatch(q19, q2):
    d = estimate_density(q2, 10 ** 5, 128, seed=6)
    gaps = gap_family(q19, 1, 6)
    with pytest.raises(ValueError):
        regularized_density_report(gaps, d, [1.0])


# --- module invariants -------------------------------------------------------

def test_birkhoff_frequency_bridge(q19):
    # measure_of_interval on the cylinder of "1" equals the symbol frequency
    # from the same orbit: same counts, same normalization
    n = 200_000
    seed = 31
    d = estimate_density(q19, n, 512, seed=seed)
    est = frequency(W("1"), SymbolStream.typical(q19, seed=seed), n)
    cyl = cylinder(q19, W("1"))
    mu = measure_of_interval(d, cyl.interval)
    assert mu == pytest.approx(est.r_hat, abs=1e-12)


def test_keller_lower_bound_empirical(screened_taus):
    for tau in screened_taus[:3]:
        m = make_quadratic(tau)
        d = estimate_density(m, 10 ** 6, 512, seed=42)
        ac = attractor_cycle(m)
        e = d.bin_edges
        inside = np.zeros(d.bin_count, dtype=bool)
        for lo, hi in ac.intervals:
            inside |= (e[:-1] >= lo) & (e[1:] <= hi)
        dens = d.mass_per_bin / d.bin_width
        mean_dens = d.mass_per_bin[inside].sum() / (d.bin_width * inside.sum())
        assert dens[inside].min() > 0.05 * mean_dens


def test_attractor_invariance_pushforward(q2):
    seed = 42
    d = estimate_density(q2, 10 ** 6, 512, seed=seed)
    rng = np.random.default_rng(seed + 1)
    idx = rng.choice(d.bin_count, size=10 ** 5, p=d.mass_per_bin)
    u = rng.uniform(0, 1, 10 ** 5)
    xs = d.bin_edges[idx] + u * d.bin_width
    ys = np.array([q2.raw(float(x)) for x in xs])
    h, _ = np.histogram(ys, bins=d.bin_edges)
    pushed = dataclasses.replace(d, mass_per_bin=h / h.sum())
    for _ in range(100):
        lo, hi = np.sort(rng.uniform(*q2.domain, 2))
        m1 = measure_of_interval(d, (lo, hi))
        m2 = measure_of_interval(pushed, (lo, hi))
        p = max(m1 * (1 - m1), 1e-9)
        se = math.sqrt(p / 10 ** 5 + 3 * p / 10 ** 6)
        assert abs(m1 - m2) < 3 * se


def test_holder_chain_period_two(screened_taus):
    # mu(I_{(10)^k})^{1/k} approaches 1/|Df^2(p)| (desk form of the
    # Hoelder-inequality chain); 15% band for k = 3..5
    tau = screened_taus[0]
    m = make_quadratic(tau)
    orb = find_periodic(m, W("10"))
    target = math.exp(-orb.exponent_log_abs)
    est = frequency(W("10"), SymbolStream.typical(m, seed=42), 10 ** 7,
                    max_power=5)
    for k, cnt in est.per_power_counts:
        if k < 3:
            continue
        assert cnt > 0
        assert (cnt / 10 ** 7) ** (1 / k) == pytest.approx(target, rel=0.15)


# --- screen -----------------------------------------------------------------

def test_screen_rejects_regular_and_accepts_chaotic(q2):
    assert not stochasticity_screen(make_quadratic(0.9), 3).accepted
    assert stochasticity_screen(q2, 3).accepted


def test_screen_rejects_periodic_window():
    # tau = 1.92 sits in the attracting period-3 window
    res = stochasticity_screen(make_quadratic(1.92), 3)
    assert not res.accepted
    assert res.attractor_period == 3


def test_screened_parameters_deterministic():
    a = screened_parameters(make_quadratic, 1.75, 2.0, 5, 123)
    b = screened_parameters(make_quadratic, 1.75, 2.0, 5, 123)
    assert a == b


def test_detect_periodic_attractor_on_cycle():
    m = make_logistic(3.2)  # attracting period-2 cycle
    x = 0.3
    for _ in range(4000):
        x = m.raw(x)
    hit = _detect_periodic_attractor(m, x)
    assert hit is not None
    assert hit[0] == 2
