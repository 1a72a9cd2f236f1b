import dataclasses
import json
import math
from pathlib import Path

import numpy as np
import pytest

import kneadlab
from kneadlab import (CriticalNonReturn, DegenerateOrbit, OutOfDomain,
                      SymbolStream, SymbolWord, TooManyGaps,
                      build_nest, estimate_density, find_periodic,
                      find_restrictive_interval, gap_family, lyapunov_birkhoff,
                      make_custom, make_logistic, make_map, make_quadratic,
                      regularized_density_report, verify_critical_typicality,
                      verify_lyapunov_equality)
from kneadlab import harness, maps, measure, nest, orbits, symbolic
from kneadlab.maps import (DEFAULT_BURN_IN, orbit_array, orbit_chunks, orbit_fill,
                           python_fill)
from kneadlab.measure import (_detect_periodic_attractor, _integral_log_deriv,
                              measure_of_intervals, seeded_start)
from kneadlab.symbolic import cylinder, frequency
from nest_checks import REFERENCE_NESTS, reference_gap_family
from screen import screened_parameters, stochasticity_screen


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


def test_density_bins_are_capped(q19):
    with pytest.raises(ValueError, match=f"bin_count <= {measure.MAX_BINS} required"):
        estimate_density(q19, 10 ** 5, measure.MAX_BINS + 1, seed=1)
    assert estimate_density(q19, 10 ** 5, measure.MAX_BINS, seed=1).bin_count == measure.MAX_BINS


def test_density_degenerate_orbit():
    with pytest.raises(DegenerateOrbit) as exc:
        estimate_density(make_quadratic(0.9), 10 ** 5, 256, seed=1)
    assert exc.value.period == 1
    # the attracting fixed point of q_0.9 is -1/9
    assert exc.value.cycle[0] == pytest.approx(-1 / 9, abs=1e-6)


def test_density_orbit_that_falls_onto_an_exact_fixed_point(q2):
    # the float orbit of seed 346 at q_2 passes 0 to within 2.4e-9, so it
    # reaches the fixed point -1 exactly at its point 225,108 and stays
    # there: a density of it put 0.5625 of its mass into bin 0
    x = orbit_array(q2, seeded_start(q2, 346), 225_109, burn_in=DEFAULT_BURN_IN)
    assert x[-1] == -1.0 and np.count_nonzero(x == -1.0) == 1
    words = [W("1"), W("10")]
    for run in (lambda: estimate_density(q2, 5 * 10 ** 5, 512, 346),
                lambda: verify_critical_typicality(q2, words, 10 ** 6, 346),
                lambda: verify_lyapunov_equality(q2, 10 ** 6, 346)):
        with pytest.raises(DegenerateOrbit, match="fixed point -1.0") as exc:
            run()
        assert exc.value.period == 1
        assert exc.value.cycle == [-1.0]
    # the Birkhoff average of the orbit averages the trapped tail in, and
    # names the fixed point; an orbit that stays off it names none
    typ = lyapunov_birkhoff(q2, seeded_start(q2, 346), 10 ** 6, burn_in=DEFAULT_BURN_IN)
    assert typ.fixed_point == -1.0 and typ.value > 1.0
    assert lyapunov_birkhoff(q2, seeded_start(q2, 7), 10 ** 6,
                             burn_in=DEFAULT_BURN_IN).fixed_point is None


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


# --- measure_of_intervals ------------------------------------------------

def test_measure_of_interval_edges(q2, q19):
    d = estimate_density(q2, 10 ** 5, 128, seed=2)
    assert measure_of_intervals(d, *q2.domain) == pytest.approx(1.0, abs=1e-12)
    assert measure_of_intervals(d, 0.3, 0.3) == 0.0
    # an empty cylinder measures 0 in the typicality table
    assert cylinder(q19, W("0100")).is_empty
    table = verify_critical_typicality(q19, [W("0100")], 10 ** 6, seed=2)
    assert table.rows[0].mu_hat == 0.0


def test_measure_of_interval_half(q2):
    d = estimate_density(q2, 10 ** 6, 512, seed=2)
    assert measure_of_intervals(d, 0.0, 1.0) == pytest.approx(0.5, abs=0.01)


def test_measure_of_interval_partial_bin(q2):
    d = estimate_density(q2, 10 ** 5, 128, seed=2)
    e = d.bin_edges
    full = measure_of_intervals(d, e[10], e[11])
    half = measure_of_intervals(d, e[10], 0.5 * (e[10] + e[11]))
    assert half == pytest.approx(0.5 * full, rel=1e-12)


# --- attractor cycle -------------------------------------------------------

def test_attractor_cycle_q2(q2):
    period, cycle = find_restrictive_interval(q2)
    assert period == 1
    assert cycle[0] == pytest.approx((-1.0, 1.0))


def test_attractor_cycle_q19(q19):
    period, cycle = find_restrictive_interval(q19)
    f1 = q19._f(0.0)
    f2 = q19._f(f1)
    assert period == 1
    assert cycle[0][0] == pytest.approx(f2, abs=1e-15)
    assert cycle[0][1] == pytest.approx(f1, abs=1e-15)


def test_attractor_cycle_logistic_band_cycles():
    # band counts from a direct simulation oracle: a = 3.6 has a 2-cycle of
    # intervals, a = 3.58 sits one merging level deeper (4-cycle)
    period, cycle = find_restrictive_interval(make_logistic(3.6))
    assert period == 2
    (a1, b1), (a2, b2) = sorted(cycle)
    assert b1 < a2  # disjoint interiors
    assert find_restrictive_interval(make_logistic(3.58))[0] == 4


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


def _reference_fold(d):
    """The Birkhoff sum of one chunk as the walk folds it, read off its
    statement: the product of the |Df| values d in order, as a mantissa m
    times 2^e, frexp applied to a factor outside [2^-500, 2^500] and to the
    product whenever it leaves that range; then e ln2 + ln m, or -inf when
    m is 0 or not finite."""
    lo, hi = 2.0 ** -500, 2.0 ** 500
    m, e = 1.0, 0
    for x in d.tolist():
        if x < lo or x > hi or x != x:
            x, k = math.frexp(x)
            e += k
        m = m * x
        if m < lo or m > hi or m != m:
            m, k = math.frexp(m)
            e += k
    if m == 0.0 or not math.isfinite(m):
        return -math.inf
    return float(e) * math.log(2.0) + math.log(m)


def _special_chunks(special):
    """|Df| chunks at the float extremes: a full chunk of the least and of
    the greatest float (logs near -745 and 709), one of random logs between,
    one point and none; with a special value, that one at the first, a
    middle and the last point, alone and with the other two."""
    rng = np.random.default_rng(24)
    tiny, huge = np.nextafter(0.0, 1.0), np.finfo(float).max
    chunks = [np.full(maps.CHUNK, tiny), np.full(maps.CHUNK, huge),
              np.exp(rng.uniform(-745.0, 709.0, maps.CHUNK)), np.ones(1), np.empty(0)]
    if special is not None:
        base = chunks[2]
        for where in ([0], [maps.CHUNK // 2], [-1], [0, maps.CHUNK // 2, -1]):
            d = base.copy()
            d[where] = special
            chunks.append(d)
        mixed = base.copy()
        mixed[:3] = (0.0, math.inf, math.nan)
        chunks += [np.array([special]), mixed]
    return chunks


@pytest.mark.filterwarnings("error")  # a zero, inf or nan |Df| must not warn
@pytest.mark.parametrize("special", [None, 0.0, math.inf, math.nan],
                         ids=["finite", "zero", "inf", "nan"])
def test_birkhoff_chunk_sum_tests_the_logs_by_their_sum(special):
    # the fold tests the chunk's product once, at the end: a product of
    # factors renormalized into [2^-500, 2^500] is finite and nonzero, and a
    # factor of 0, inf or nan makes it 0, inf or nan for good, so the one
    # test gives -inf exactly when some log is not finite.  maps.log_fold
    # and Tally.numpy_add, the fold of a walk without the kernel, have the
    # bits of the fold read off its statement
    m = make_quadratic(1.9)
    for d in _special_chunks(special):
        want = _reference_fold(d)
        assert maps.log_fold(d.tolist()).hex() == want.hex()
        tally = maps.Tally(m, log_sum=True)
        tally._numpy_df = lambda xs, d=d: d  # numpy_add takes |Df| from here
        tally.numpy_add(np.zeros(len(d)))
        assert type(tally.log_sum) is float and tally.log_sum.hex() == want.hex()
        assert math.isfinite(want) == bool(np.all(np.isfinite(d) & (d > 0.0)))


# The exact float preimage x of c, f(x) == c: a walk from it has Df = 0 at
# its second point
_PREIMAGE_OF_C = {("quadratic", 1.9): -0.6882472016116853,
                  ("logistic", 3.9): 0.15100877977394359}


@pytest.mark.parametrize("family,p", [
    ("quadratic", 2.0), ("quadratic", 1.9), ("logistic", 4.0), ("logistic", 3.9),
    ("sine", 3.9), ("sine", math.nextafter(4.0, 0.0))])
def test_compiled_fold_has_the_bits_of_the_python_fold(family, p):
    # the Birkhoff sum that the compiled walk folds as it steps, against
    # the reference fold of the NUMPY |Df| of the points it wrote and
    # against python_fill with Tally.numpy_add: chunk splits of the seeded
    # orbit (its product leaves [2^-500, 2^500] about every thousand
    # points) and walks of 1, 2, 3 and 1000 points from c, from beside c at
    # quadratic (|Df| below 2^-500; logistic and sine have no such float),
    # from a preimage of c (Df = 0 at the second point), from 1e200 (|Df|
    # above 2^500, then inf for the escaping quadratic and logistic
    # orbits), and but for sine from -inf, inf and nan (math.sin refuses an
    # infinity, and the Python sine clamps nan to -1 where the compiled one
    # keeps it)
    m = make_map(family, p)
    walk = orbit_fill(m)[0]
    if walk is python_fill:
        pytest.skip("the compiled kernel cannot be built with this Python")
    df = m.family.bind(maps.NUMPY, p)[1]
    c = m.critical_point
    starts = [(seeded_start(m, 3), (maps.CHUNK, 0, 1, 1234, 2))]
    specials = (-math.inf, math.inf, math.nan) if family != "sine" else ()
    beside = 1e-300 if family == "quadratic" else None
    preimage = _PREIMAGE_OF_C.get((family, p))
    assert preimage is None or m._f(preimage) == c
    for x0 in (c, beside, preimage, 1e200, *specials):
        if x0 is not None:
            starts += [(x0, (n,)) for n in (1, 2, 3, 1000)]
    special = 0
    with np.errstate(all="ignore"):
        for x0, sizes in starts:
            tallies = [maps.Tally(m, log_sum=True) for _ in range(2)]
            xs = [x0, x0]
            for k in sizes:
                bufs = [np.empty(k), np.empty(k)]
                xs[0] = walk(bufs[0], xs[0], p, tallies[0])
                xs[1] = python_fill(bufs[1], xs[1], m._f, tallies[1])
                got, want = (t.log_sum for t in tallies)
                assert bufs[0].tobytes() == bufs[1].tobytes()
                assert type(got) is float
                assert got.hex() == want.hex() == _reference_fold(np.abs(df(bufs[0]))).hex()
                assert tallies[0].hit is tallies[1].hit
                special += not math.isfinite(got)
    # but for sine, every walk from c, from a preimage of c or 1e200 but
    # the one-point ones, and from -inf, inf and nan sums to -inf
    assert special == (0 if family == "sine" else 4 + 3 * (preimage is not None) + 3 + 12)


def _fold_error_bound(d):
    # With u = 2^-53, k = len(d) and S = sum |ln d_i|: each of the k
    # products rounds once and stays normal, so the computed m 2^e is the
    # exact product times a factor within (1 +- u)^k, a log error of at most
    # k u to first order; frexp is exact.  m holds the factors since the
    # product's last renormalization and e ln2 the ones before, so |e ln2| +
    # |ln m| <= S + 2 ln2 + 2 ln2 for each factor above 2^500, which is below
    # 1.01 S + 2 ln2.  The rounding of LN2 and of e * LN2 (2u |e ln2|), the
    # log of m (1 ulp, 2u |ln m|) and the final add (u (|e ln2| + |ln m|))
    # then cost at most 3u (1.01 S + 2 ln2).  The reference, math.fsum of
    # the math.log values, errs by 1 ulp per log (2u S) and by its one
    # rounding (u S).  In all k u + 6.03u S + 4.2u, which is at most
    # 8u (k + S) = 2^-50 (k + S) for k >= 1; for k = 0 both sums are 0.
    return 2.0 ** -50 * (len(d) + math.fsum(abs(math.log(x)) for x in d.tolist()))


def test_birkhoff_fold_lies_within_its_error_bound_of_the_sum_of_logs():
    # the finite extreme chunks, and the |Df| of the seeded orbit of each
    # family in four chunks, against the exactly summed math.log values
    chunks = _special_chunks(None)
    for m in (make_quadratic(1.9), make_logistic(3.9), make_map("sine", 3.9)):
        df = m.family.bind(maps.NUMPY, m.parameter)[1]
        pts = orbit_array(m, seeded_start(m, 31), 4 * maps.CHUNK, burn_in=DEFAULT_BURN_IN)
        chunks += [np.abs(df(c)) for c in np.split(pts, 4)]
    for d in chunks:
        exact = math.fsum(math.log(x) for x in d.tolist())
        assert abs(maps.log_fold(d.tolist()) - exact) <= _fold_error_bound(d)


def test_measure_walks_take_no_abs_df_buffer(monkeypatch):
    # the Birkhoff walks keep only the running product: every Tally of the
    # measure passes asks for no |Df| buffer, and the Birkhoff ones for the
    # fold
    made = []

    class Recorded(maps.Tally):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            made.append(self)

    monkeypatch.setattr(maps, "Tally", Recorded)
    m = make_logistic(3.9)
    lyapunov_birkhoff(m, seeded_start(m, 3), 10 ** 5)
    estimate_density(m, 10 ** 5, 64, seed=3)
    verify_lyapunov_equality(m, 10 ** 6, 3, bin_count=64)
    verify_critical_typicality(m, [W("1")], 10 ** 6, seed=3, bin_count=64)
    assert [t.log_sum is not None for t in made] == [True, False, True, True, False]
    assert all(t.df is None for t in made)


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
    # the probe found the attractor, so the typical side is its own walk
    m = make_quadratic(0.9)
    typ = lyapunov_birkhoff(m, seeded_start(m, 9), 10 ** 6, burn_in=DEFAULT_BURN_IN)
    assert rec.side_typical == typ.value


# --- one pass per seeded orbit ------------------------------------------------

FAMILY_PARAMS = [("quadratic", 1.9), ("logistic", 3.9), ("sine", 3.9)]


def _count_kernel_points(monkeypatch):
    """Put a counting wrapper over orbit_chunks into every module holding
    it; returns a one-element list with the number of points yielded."""
    points = [0]

    def counted(*args, **kwargs):
        for buf in orbit_chunks(*args, **kwargs):
            points[0] += len(buf)
            yield buf

    for mod in (kneadlab, maps, symbolic, orbits, nest, measure, harness):
        if vars(mod).get("orbit_chunks") is orbit_chunks:
            monkeypatch.setattr(mod, "orbit_chunks", counted)
    return points


def _reference_visit_fraction(m, x0, n, intervals, burn_in):
    """Visit fractions from a walk of their own, as measured before the
    density pass counted the typical visits."""
    counts = [0] * len(intervals)
    for buf in orbit_chunks(m, x0, n, burn_in=burn_in):
        for i, iv in enumerate(intervals):
            if iv is not None:
                counts[i] += int(np.count_nonzero((buf >= iv[0]) & (buf <= iv[1])))
    return [k / n for k in counts]


@pytest.mark.parametrize("family,p", FAMILY_PARAMS + [("quadratic", 1.75)])
def test_lyap_equality_walks_the_seeded_orbit_once(family, p, monkeypatch):
    m = make_map(family, p)
    n, seed = 10 ** 6, 31
    points = _count_kernel_points(monkeypatch)
    rec = verify_lyapunov_equality(m, n, seed)
    assert points[0] == 2 * n
    typ = lyapunov_birkhoff(m, seeded_start(m, seed), n, burn_in=DEFAULT_BURN_IN)
    crit = lyapunov_birkhoff(m, m.critical_value, n)
    assert rec.side_typical == typ.value
    assert rec.side_critical_value == crit.value
    assert rec.hit_critical == (typ.hit_critical or crit.hit_critical)
    if p == 1.75:  # an attracting cycle of period 4, whose exponent is the integral
        with pytest.raises(DegenerateOrbit) as exc:
            estimate_density(m, n, 512, seed)
        cycle = np.array(exc.value.cycle)
        assert rec.density_degenerate and len(cycle) == 4
        integral = float(np.mean(maps.log_abs_derivative_array(m, cycle)))
        singular = ()
    else:
        assert not rec.density_degenerate
        integral, singular = _integral_log_deriv(m, estimate_density(m, n, 512, seed))
    assert rec.side_integral == integral
    assert rec.singular_bins == singular


@pytest.mark.parametrize("family,p", FAMILY_PARAMS)
def test_typicality_walks_the_seeded_orbit_once(family, p, monkeypatch):
    m = make_map(family, p)
    n, seed = 10 ** 6, 32
    words = [W("1"), W("10"), W("001"), W("0110")]
    points = _count_kernel_points(monkeypatch)
    table = verify_critical_typicality(m, words, n, seed)
    assert points[0] == 2 * n
    cyls = [cylinder(m, w).interval for w in words]
    typ = _reference_visit_fraction(m, seeded_start(m, seed), n, cyls, DEFAULT_BURN_IN)
    crit = _reference_visit_fraction(m, m.critical_point, n, cyls, 0)
    assert [r.average_typical for r in table.rows] == typ
    assert [r.average_critical for r in table.rows] == crit
    spans = np.array([iv or (0.0, 0.0) for iv in cyls])
    mu = measure_of_intervals(estimate_density(m, n, 512, seed), spans[:, 0], spans[:, 1])
    assert [r.mu_hat for r in table.rows] == mu.tolist()


def _seeded_outputs():
    """Densities and Birkhoff exponents (the critical orbit's hits c) and
    the lyap-equality records of each family, as bytes."""
    out = []
    for family, p in FAMILY_PARAMS + [("quadratic", 2.0)]:
        m = make_map(family, p)
        out.append(estimate_density(m, 10 ** 5 + 7, 256, seed=3).mass_per_bin.tobytes())
        for x0, n, burn_in in ((seeded_start(m, 3), 10 ** 5, DEFAULT_BURN_IN),
                               (m.critical_point, 1000, 0)):
            est = lyapunov_birkhoff(m, x0, n, burn_in=burn_in)
            out.append((est.value.hex(), est.hit_critical))
        out.append(repr(verify_lyapunov_equality(m, 10 ** 6, 3)))
    return out


def test_seeded_pass_without_the_kernel_gives_the_same_bytes(monkeypatch):
    # with the compiled walks and their tallies where the kernel builds;
    # then with python_fill over each map's f and Tally.numpy_add
    want = _seeded_outputs()
    monkeypatch.setattr(maps, "_compiled", {})
    assert _seeded_outputs() == want


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
        rep = regularized_density_report(gaps, d, [1.0])
        assert rep.uncovered_mass_warning and rep.coverage < 0.95
        covers.append(rep.coverage)
    assert covers[1] > covers[0]


def test_gap_budget(q19, monkeypatch):
    monkeypatch.setattr(measure, "GAP_BUDGET", 100)
    with pytest.raises(TooManyGaps) as err:
        gap_family(q19, 1, 18)
    with pytest.raises(TooManyGaps) as ref:
        reference_gap_family(q19, build_nest(q19, 1, 10 ** 6), 1, 18)
    assert str(err.value) == str(ref.value)


@pytest.mark.parametrize("family, p, extended", [
    (f, p, ext) for f, p, e in REFERENCE_NESTS for ext in sorted({False, e})
] + [("quadratic", 2.0, False), ("custom", 3.9, False)])
def test_gap_family_matches_the_four_piece_reference(family, p, extended):
    if family == "custom":  # the logistic map, with bisected branch inverses
        m = make_custom(lambda x: p * x * (1.0 - x), lambda x: p - 2.0 * p * x,
                        (0.0, 1.0), 0.5)
    else:
        m = make_map(family, p)
    rep = build_nest(m, 2, 10 ** 6, extended_precision=extended)
    for level in range(len(rep.levels)):
        gaps = gap_family(m, level, 16, nest_report=rep)
        ref = reference_gap_family(m, rep, level, 16)
        for got, want in zip((gaps.gap_lo, gaps.gap_hi, gaps.generations), ref):
            assert np.array_equal(got, want), (level, len(got), len(want))


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
            x = q19._f(x)
        assert a - 1e-9 <= x <= b + 1e-9


def test_regularized_report_l1_bounded(q19):
    d = estimate_density(q19, 10 ** 6, 512, seed=6)
    gaps = gap_family(q19, 1, 12)
    rep = regularized_density_report(gaps, d, [1.0, 2.0])
    assert rep.uncovered_mass_warning
    assert rep.lp_norms[1.0] <= 1.0 + 1e-9
    assert math.isfinite(rep.lp_norms[2.0])
    assert rep.gaps_below_bin_resolution >= 0


def test_regularized_slope_preasymptotic_when_renormalized():
    # at a once-renormalized stochastic parameter, landing into I_n threads
    # the band cycle, so the exponent diagnostic converges slowly: the
    # slope rises with generation depth but stays below the asymptotic
    # band at generation 18 (regression pin for the acceptance exclusion)
    from kneadlab import build_nest
    m = make_quadratic(1.799040640606637)
    nest_rep = build_nest(m, 1, 10 ** 6)
    assert nest_rep.renormalization_period == 2
    d = estimate_density(m, 10 ** 6, 512, seed=20260810)
    slopes = []
    for g in (10, 14, 18):
        gaps = gap_family(m, 1, g, nest_report=nest_rep)
        rep = regularized_density_report(gaps, d, [1.0])
        slopes.append(rep.slope)
    assert slopes == sorted(slopes)
    assert 0.4 < slopes[-1] < 0.8


def test_regularized_report_map_mismatch(q19, q2):
    d = estimate_density(q2, 10 ** 5, 128, seed=6)
    gaps = gap_family(q19, 1, 6)
    with pytest.raises(ValueError):
        regularized_density_report(gaps, d, [1.0])


@pytest.mark.parametrize("p", [0.0, -0.0, -1.0, math.nan, math.inf, -math.inf])
def test_regularized_report_rejects_an_exponent_with_no_lp_norm(q19, p):
    d = estimate_density(q19, 10 ** 5, 128, seed=6)
    gaps = gap_family(q19, 1, 6)
    with pytest.raises(ValueError, match="must be finite and positive"):
        regularized_density_report(gaps, d, [1.0, p])


# --- module invariants -------------------------------------------------------

def test_birkhoff_frequency_bridge(q19):
    # the measure of the cylinder of "1" equals the symbol frequency
    # from the same orbit: same counts, same normalization
    n = 200_000
    seed = 31
    d = estimate_density(q19, n, 512, seed=seed)
    est = frequency(W("1"), SymbolStream.typical(q19, seed=seed), n)
    cyl = cylinder(q19, W("1"))
    mu = measure_of_intervals(d, *cyl.interval)
    assert mu == pytest.approx(est.r_hat, abs=1e-12)


def test_keller_lower_bound_empirical(screened_taus):
    for tau in screened_taus[:3]:
        m = make_quadratic(tau)
        d = estimate_density(m, 10 ** 6, 512, seed=42)
        _, cycle = find_restrictive_interval(m)
        e = d.bin_edges
        inside = np.zeros(d.bin_count, dtype=bool)
        for lo, hi in cycle:
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
    ys = np.array([q2._f(float(x)) for x in xs])
    h, _ = np.histogram(ys, bins=d.bin_edges)
    pushed = dataclasses.replace(d, mass_per_bin=h / h.sum())
    for _ in range(100):
        lo, hi = np.sort(rng.uniform(*q2.domain, 2))
        m1 = measure_of_intervals(d, lo, hi)
        m2 = measure_of_intervals(pushed, lo, hi)
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
        x = m._f(x)
    hit = _detect_periodic_attractor(m, orbit_array(m, x, measure.RECURRENCE_PROBE))
    assert hit is not None
    assert hit[0] == 2


def _reference_probe(m, w):
    """The probe without its screen: every lag compares its whole window."""
    tol = 1e-8 * (m.domain[1] - m.domain[0])
    window = measure.RECURRENCE_WINDOW
    for p in range(1, measure.RECURRENCE_MAX_PERIOD + 1):
        if np.max(np.abs(w[p:p + window] - w[:window])) < tol:
            return p, w[:p].copy()
    return None


def _probe_orbits(m):
    """The probe's orbit from three seeded starts and from the critical point."""
    starts = [(seeded_start(m, seed), DEFAULT_BURN_IN) for seed in (1, 2, 3)]
    return [orbit_array(m, x0, measure.RECURRENCE_PROBE, burn_in=burn_in)
            for x0, burn_in in starts + [(m.critical_point, 5 * DEFAULT_BURN_IN)]]


def _same_probe(got, want):
    return (got is None and want is None) or (
        got is not None and want is not None and got[0] == want[0]
        and np.array_equal(got[1], want[1]))


@pytest.mark.parametrize("family,p", [
    ("quadratic", 1.75), ("quadratic", 1.0), ("logistic", 3.83), ("logistic", 3.5),
    ("sine", 3.3)])
def test_screened_probe_finds_the_attractors_of_the_full_probe(family, p):
    m = make_map(family, p)
    for w in _probe_orbits(m):
        want = _reference_probe(m, w)
        assert want is not None
        assert _same_probe(_detect_periodic_attractor(m, w), want)


def test_screened_probe_finds_nothing_on_the_chaotic_pool():
    pool = json.loads((Path(__file__).parents[1] / "perfbench" / "params.json").read_text())
    for family, params in sorted(pool["chaotic"].items()):
        for p in params:
            m = make_map(family, p)
            for w in _probe_orbits(m)[:3]:
                assert _reference_probe(m, w) is None
                assert _detect_periodic_attractor(m, w) is None


def test_screened_probe_still_compares_the_whole_window(q19):
    # a period-2 pattern broken at w[100]: every even lag passes the screen
    # (w[p] == w[0]) and then fails on the window, every odd lag fails both
    w = np.tile([0.2, 0.7], measure.RECURRENCE_PROBE // 2)
    w[100] = 0.25
    assert np.all(w[2:measure.RECURRENCE_MAX_PERIOD + 1:2] == w[0])
    assert _reference_probe(q19, w) is None
    assert _detect_periodic_attractor(q19, w) is None
    w[100] = 0.2
    assert _same_probe(_detect_periodic_attractor(q19, w), (2, np.array([0.2, 0.7])))
