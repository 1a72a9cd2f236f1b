import dataclasses
import math
import random

import numpy as np
import pytest

from kneadlab import (NoReversingFixedPoint, TooShallow, build_nest,
                      make_custom, make_logistic, make_map, make_quadratic,
                      nest_asymptotics, nest_lyapunov)
from kneadlab import maps, nest
from kneadlab.nest import NestLevel, NestReport, find_restrictive_interval
from nest_checks import (REFERENCE_NESTS, orientation_reversing_fixed_point,
                         reference_build_nest, reference_restrictive_interval,
                         spreading_central_domain)


def _report_from_vs(vs, cs=None):
    levels = []
    cs = cs or [0.5] * len(vs)
    for i, v in enumerate(vs):
        levels.append(NestLevel(i, (-0.5 / (i + 1), 0.5 / (i + 1)), v,
                                s_n=1, c_n=cs[i]))
    seq = tuple(2.0 * math.log(b.v_n) / a.v_n
                for a, b in zip(levels, levels[1:]))
    return NestReport(tuple(levels), "DepthReached", None, "max_depth reached",
                      1, 32, False, seq, 53, None)


# --- orientation reversing fixed point ---------------------------------

def test_orfp_q2(q2):
    assert orientation_reversing_fixed_point(q2) == pytest.approx(0.5, abs=1e-13)


def test_orfp_q19(q19):
    # quadratic formula: discriminant 1 + 4*1.9*0.9 = 7.84 = 2.8^2
    assert orientation_reversing_fixed_point(q19) == pytest.approx(
        9 / 19, abs=1e-12)


def test_orfp_small_tau_raises():
    with pytest.raises(NoReversingFixedPoint):
        orientation_reversing_fixed_point(make_quadratic(0.6))


# --- nest construction --------------------------------------------------

def test_nest_q2_critical_non_return(q2):
    rep = build_nest(q2, 2, 10 ** 6)
    assert rep.termination == "CriticalNonReturn"
    assert rep.termination_level == 0
    assert len(rep.levels) == 0


def test_nest_q19_level0(q19):
    rep = build_nest(q19, 1, 10 ** 6)
    lv0 = rep.levels[0]
    assert lv0.interval[0] == pytest.approx(-9 / 19, abs=1e-12)
    assert lv0.interval[1] == pytest.approx(9 / 19, abs=1e-12)
    assert lv0.v_n == 3
    assert rep.renormalization_period == 1


def test_nest_q19_central_return(q19):
    # f^3(0) = 0.1242... already lands in I_1, a central return
    rep = build_nest(q19, 2, 10 ** 6)
    assert rep.levels[0].s_n == 0
    assert rep.levels[0].central_return is True
    assert rep.levels[1].v_n == rep.levels[0].v_n
    assert 0.0 < rep.levels[0].c_n < 1.0


def test_nest_pullback_matches_spreading_oracle(q19, screened_taus):
    # dual route: exact pullback vs brute-force constant-return-time probe
    for m in [q19] + [make_quadratic(t) for t in screened_taus[:3]]:
        rep = build_nest(m, 2, 10 ** 6)
        if len(rep.levels) < 2 or rep.renormalization_period != 1:
            continue
        for lv, nxt in zip(rep.levels, rep.levels[1:]):
            lo, hi = spreading_central_domain(m, lv.interval, lv.v_n)
            assert nxt.interval[0] == pytest.approx(lo, abs=1e-9)
            assert nxt.interval[1] == pytest.approx(hi, abs=1e-9)


def test_nest_validation(q19):
    with pytest.raises(ValueError):
        build_nest(q19, 9, 10 ** 6)
    with pytest.raises(ValueError):
        build_nest(q19, 2, 10 ** 5)


from nest_checks import check_nest_invariants as _check_invariants  # noqa: E402


def test_nest_invariants_q19(q19):
    rep = build_nest(q19, 4, 10 ** 6)
    assert len(rep.levels) >= 3
    _check_invariants(q19, rep)


def test_nest_invariants_sample_screened(screened_taus):
    for tau in screened_taus[:5]:
        m = make_quadratic(tau)
        rep = build_nest(m, 5, 10 ** 6)
        _check_invariants(m, rep)


# --- renormalization ----------------------------------------------------

def test_restrictive_interval_q2(q2):
    k, cycle = find_restrictive_interval(q2)
    assert k == 1


def test_renormalized_nest_period_two():
    # tau = 1.799 sits in the two-band window: period-2 renormalization
    m = make_quadratic(1.799)
    rep = build_nest(m, 3, 10 ** 6)
    assert rep.renormalization_period == 2
    assert rep.renorm_search_horizon == 32
    for lv in rep.levels:
        assert lv.v_n % 2 == 0
    _check_invariants(m, rep)


def test_renormalized_nest_period_three_window():
    # stochastic parameter inside the period-3 window (6-band attractor)
    m = make_quadratic(1.92538)
    rep = build_nest(m, 3, 10 ** 6)
    assert rep.renormalization_period % 3 == 0
    for lv in rep.levels:
        assert lv.v_n % rep.renormalization_period == 0
    _check_invariants(m, rep)


# --- extended precision ---------------------------------------------------

def test_extended_precision_agrees_at_shallow_levels(q19):
    double = build_nest(q19, 2, 10 ** 6)
    extended = build_nest(q19, 2, 10 ** 6, extended_precision=True)
    assert extended.extended_precision
    for a, b in zip(double.levels, extended.levels):
        # shallow v_n are small, so double stays point-accurate here
        assert a.v_n == b.v_n
        assert a.interval[0] == pytest.approx(b.interval[0], abs=1e-12)
        assert a.interval[1] == pytest.approx(b.interval[1], abs=1e-12)


def test_extended_nest_ignores_mpmaths_global_precision():
    import mpmath as mp
    m = make_map("sine", 3.713978)
    default = build_nest(m, 4, 10 ** 6, extended_precision=True)
    saved = mp.mp.prec
    mp.mp.prec = 20
    try:
        low = build_nest(m, 4, 10 ** 6, extended_precision=True)
    finally:
        mp.mp.prec = saved
    assert low == default


# --- the collapse stop and the one walk against the reference nest -------

def _agrees_with_reference(rep, ref):
    # the reference walks to H up front; the nest's walk reaches H only when
    # a scan needs it
    if rep.shadowing_horizon is None:
        ref = dataclasses.replace(ref, shadowing_horizon=None)
    assert rep == ref


# one map per period of the logistic cascade up to 32, and the quadratic
# period-3 window
RENORMALIZED_NESTS = [
    ("logistic", 3.6, 2), ("quadratic", 1.92262, 3), ("logistic", 3.58, 4),
    ("logistic", 3.571915, 8), ("logistic", 3.570733, 16),
    ("logistic", 3.569833, 32),
]


@pytest.mark.parametrize("family, p, extended", REFERENCE_NESTS)
def test_nest_agrees_with_reference_loops(family, p, extended):
    m = make_map(family, p)
    for depth in (2, 4 if extended else 6):
        rep = build_nest(m, depth, 10 ** 6, extended_precision=extended)
        _agrees_with_reference(rep, reference_build_nest(m, depth, 10 ** 6, extended))


@pytest.mark.parametrize("extended", [False, True])
@pytest.mark.parametrize("family, p, period", RENORMALIZED_NESTS)
def test_renormalized_nest_agrees_with_reference_loops(family, p, period, extended):
    m = make_map(family, p)
    for depth in (2, 4 if extended else 6):
        rep = build_nest(m, depth, 10 ** 6, extended_precision=extended)
        assert rep.renormalization_period == period
        _agrees_with_reference(rep, reference_build_nest(m, depth, 10 ** 6, extended))


@pytest.mark.parametrize("kernel", [True, False], ids=["compiled", "python"])
def test_restrictive_interval_search_matches_the_reference(monkeypatch, kernel):
    # the search reads its endpoints off one critical-orbit array, walked by
    # the compiled fill or the Python one; the reference maps each cycle
    # member through the float f
    if not kernel:
        monkeypatch.setattr(maps, "_compiled", {})
    ms = [make_map(f, p) for f, p, _ in REFERENCE_NESTS + RENORMALIZED_NESTS]
    ms += [make_quadratic(p) for p in (2.0, 1.5, 1.401155189)]
    # a containment that holds at a deeper k, dropped only by an overlap:
    # with non-adjacent members at logistic 3.58223 and sine 3.554642
    ms += [make_map(f, p) for f, p in (("logistic", 3.58223), ("sine", 3.554642),
                                       ("quadratic", 1.915939))]
    ms.append(make_custom(lambda x: 3.8 * x * (1.0 - x), lambda x: 3.8 - 7.6 * x,
                          (0.0, 1.0), 0.5))
    rng = random.Random(19)
    for family, record in sorted(maps.FAMILIES.items()):
        lo, hi = record.parameter_range
        ms += [make_map(family, hi - (hi - lo) * rng.random()) for _ in range(200)]
    periods = set()
    for m in ms:
        got = find_restrictive_interval(m)
        assert repr(got) == repr(reference_restrictive_interval(m)), (m.family.name, m.parameter)
        periods.add(got[0])
    assert {1, 2, 3, 4, 8, 16, 32} <= periods


@pytest.mark.parametrize("extended", [False, True])
def test_level_scan_tie_branch_agrees_with_reference(monkeypatch, extended):
    # a tolerance this wide puts x_3 within it of c, so pulling I_2 back to
    # I_3 stops there in both precisions
    monkeypatch.setattr(maps, "TIE_TOLERANCE", 0.15)
    m = make_quadratic(1.9)
    rep = build_nest(m, 6, 10 ** 6, extended_precision=extended)
    assert rep.termination_detail == (
        "critical-orbit point within tie tolerance of c at pullback step 5 of 7")
    _agrees_with_reference(rep, reference_build_nest(m, 6, 10 ** 6, extended))


def test_extended_nest_of_a_custom_map_raises():
    m = make_custom(lambda x: 0.9 - 1.9 * x * x, lambda x: -3.8 * x, (-1.0, 1.0), 0.0)
    assert build_nest(m, 2, 10 ** 6).levels
    with pytest.raises(ValueError, match="built-in families only"):
        build_nest(m, 2, 10 ** 6, extended_precision=True)


def test_nest_collapse_ends_in_precision_exhausted_with_null_c_n(q19):
    # the double q_1.9 nest stops at its horizon, before v_3 = 107
    rep = build_nest(q19, 6, 10 ** 6)
    assert [lv.v_n for lv in rep.levels] == [3, 3, 8]
    assert (rep.termination, rep.termination_level) == ("PrecisionExhausted", 3)
    assert rep.termination_detail == "return time beyond the shadowing horizon at iterate 90"
    assert all(0.0 < lv.c_n < 1.0 for lv in rep.levels)
    # the collapse check still ends the 120-bit logistic 3.893568 nest
    rep = build_nest(make_logistic(3.893568), 6, 10 ** 6, extended_precision=True)
    assert [lv.v_n for lv in rep.levels] == [3, 13, 153]
    assert (rep.termination, rep.termination_level) == ("PrecisionExhausted", 3)
    assert rep.termination_detail == "pullback interval collapsed to a point at step 152 of 152"
    assert rep.levels[-1].c_n is None
    assert all(0.0 < lv.c_n < 1.0 for lv in rep.levels[:-1])


@pytest.mark.parametrize("family, p, depth, extended, vs, floor", [
    ("logistic", 3.9481263790872907, 6, False, [4, 12, 50], "1e-13"),
    ("sine", 3.894540513167379, 4, True, [3, 13, 147], "1e-18"),
])
def test_nest_width_floor_ends_in_precision_exhausted(family, p, depth, extended, vs, floor):
    # the pullback of I_2 reaches f(c) to working precision, so I_3, its
    # central fold preimage, has width 0
    m = make_map(family, p)
    rep = build_nest(m, depth, 10 ** 6, extended_precision=extended)
    assert [lv.v_n for lv in rep.levels] == vs
    assert (rep.termination, rep.termination_level) == ("PrecisionExhausted", 3)
    assert rep.termination_detail == f"width 0.0 below floor {floor}"
    assert rep.levels[-1].c_n is None
    _agrees_with_reference(rep, reference_build_nest(m, depth, 10 ** 6, extended))


def test_no_nest_reports_a_zero_c_n():
    for m, depth in ((make_quadratic(1.9), 4), (make_quadratic(1.9), 6),
                     (make_logistic(3.9), 6), (make_map("sine", 3.9), 6)):
        rep = build_nest(m, depth, 10 ** 6)
        assert all(lv.c_n != 0.0 for lv in rep.levels)


def test_nest_termination_detail_names_the_check():
    rep = build_nest(make_logistic(3.9), 6, 10 ** 6)
    assert rep.termination == "PrecisionExhausted"
    assert rep.termination_detail == "return time beyond the shadowing horizon at iterate 70"
    rep = build_nest(make_quadratic(1.9), 2, 10 ** 6)
    assert rep.termination == "DepthReached"
    assert rep.termination_detail == "max_depth 2 reached"


# --- the shadowing horizon -------------------------------------------------

def test_extended_q19_nest_certifies_v3_within_its_horizon(q19):
    rep = build_nest(q19, 6, 10 ** 6, extended_precision=True)
    assert [lv.v_n for lv in rep.levels] == [3, 3, 8, 107]
    assert (rep.precision_bits, rep.shadowing_horizon) == (120, 217)
    assert (rep.termination, rep.termination_level) == ("PrecisionExhausted", 4)
    assert rep.termination_detail == "return time beyond the shadowing horizon at iterate 217"
    double = build_nest(q19, 6, 10 ** 6)
    assert (double.precision_bits, double.shadowing_horizon) == (53, 90)


@pytest.mark.parametrize("family, p", [(f, p) for f, p, _ in REFERENCE_NESTS])
def test_double_and_extended_nests_agree_on_shared_levels(family, p):
    m = make_map(family, p)
    double = build_nest(m, 6, 10 ** 6)
    extended = build_nest(m, 6, 10 ** 6, extended_precision=True)
    assert len(double.levels) >= 2
    for a, b in zip(double.levels, extended.levels):
        assert a.v_n == b.v_n
        assert a.interval == pytest.approx(b.interval, abs=1e-12)
        if a.s_n is not None and b.s_n is not None:
            assert a.s_n == b.s_n


def test_level_scans_stop_before_the_horizon():
    for m in (make_quadratic(1.9), make_logistic(3.9), make_map("sine", 3.9)):
        for extended in (False, True):
            rep = build_nest(m, 6, 10 ** 6, extended_precision=extended)
            assert rep.termination_detail == (
                f"return time beyond the shadowing horizon at iterate {rep.shadowing_horizon}")
            assert all(lv.v_n < rep.shadowing_horizon for lv in rep.levels)
            assert rep == reference_build_nest(m, 6, 10 ** 6, extended)


def test_the_nest_walks_the_critical_orbit_only_as_far_as_its_scans_ask(monkeypatch):
    # at the neutral parameter the computed critical orbit neither leaves
    # 2^bits behind nor repeats exactly, yet every level returns at 2: the
    # 120-bit walk steps one point at a time, the double one takes its
    # first block of FIRST_BLOCK points and no more
    walked = []
    bind = nest._bind

    def counting_bind(m, extended):
        ar = bind(m, extended)

        def walk(x, n):
            for points, abs_df in ar.walk(x, n):
                walked.append(len(points))
                yield points, abs_df
        return dataclasses.replace(ar, walk=walk)

    monkeypatch.setattr(nest, "_bind", counting_bind)
    for extended, most in ((False, nest.FIRST_BLOCK), (True, 10)):
        walked.clear()
        rep = build_nest(make_quadratic(1.5), 4, 10 ** 6, extended_precision=extended)
        assert [lv.v_n for lv in rep.levels] == [2, 2, 2, 2, 2]
        assert rep.shadowing_horizon is None
        assert sum(walked) <= most


# the reference maps, and quadratic 2.0 (the critical orbit is fixed at -1
# from iterate 2), 1.75 (it settles on an attracting 4-cycle) and 1.5
# (neutral: every level returns at 2)
WALKED_NESTS = [(f, p) for f, p, _ in REFERENCE_NESTS] + [
    ("quadratic", 2.0), ("quadratic", 1.75), ("quadratic", 1.5)]


def _double_nests(family, p):
    m = make_map(family, p)
    return [repr(build_nest(m, depth, 10 ** 6)) for depth in (4, 6)]


@pytest.mark.parametrize("family, p", WALKED_NESTS)
def test_double_nest_is_the_same_with_and_without_the_kernel(monkeypatch, family, p):
    # the compiled walk against python_fill over f, with the NUMPY |Df|
    want = _double_nests(family, p)
    monkeypatch.setattr(maps, "_compiled", {})
    assert _double_nests(family, p) == want


@pytest.mark.parametrize("first_block", [1, 2, 3])
def test_double_nest_does_not_depend_on_the_walk_blocks(monkeypatch, first_block):
    # blocks of 1, 2, 4, ..., of 2, 4, 8, ... and of 3, 6, 12, ... points
    # put horizons, exact repeats and scan ends on block edges
    want = [_double_nests(f, p) for f, p in WALKED_NESTS]
    monkeypatch.setattr(nest, "FIRST_BLOCK", first_block)
    assert [_double_nests(f, p) for f, p in WALKED_NESTS] == want


def test_the_double_nest_calls_f_at_no_orbit_point(monkeypatch):
    # the critical orbit and g = f^period come from the walk of the family
    # record (compiled, or a walk over the uncounted f where no kernel
    # builds); f itself gives only the ends of the branch ranges of each
    # pullback (three per level) and the final Df^period product
    plain = make_quadratic(1.9)
    if maps.compiled(maps.QUADRATIC) is None:
        monkeypatch.setattr(maps, "_compiled", {
            "quadratic_walk": lambda buf, x, p, tally=None: maps.python_fill(
                buf, x, plain._f, tally)})
    calls = []

    def f(x):
        calls.append(x)
        return plain._f(x)

    m = dataclasses.replace(plain, _f=f)  # its unimodality check calls f
    calls.clear()
    rep = build_nest(m, 6, 10 ** 6)
    assert rep == build_nest(plain, 6, 10 ** 6)
    assert ([lv.v_n for lv in rep.levels], rep.renormalization_period) == ([3, 3, 8], 1)
    assert rep.termination_detail == "return time beyond the shadowing horizon at iterate 90"
    assert len(calls) == 3 * 3 + 1  # the pullbacks to I_1, I_2 and I_3, and Df^1


def _walk_to_the_end(ar):
    walk = nest._critical_orbit(ar, 10 ** 6)
    points = []
    while True:
        try:
            points.append(next(walk))
        except StopIteration as stop:
            return points, stop.value


def test_horizon_counts_the_amplified_rounding(q19):
    # E_1 = 1, E_{t+1} = |Df(x_t)| E_t + 1; H is the first t with E_t > 2^53
    x, e, t = q19._f(0.0), 1.0, 1
    while e <= 2.0 ** 53:
        e = abs(q19._df(x)) * e + 1.0
        x = q19._f(x)
        t += 1
    points, (end, detail, horizon) = _walk_to_the_end(nest._bind(q19, False))
    assert (len(points), end, horizon) == (t - 1, "PrecisionExhausted", t)
    assert detail == f"return time beyond the shadowing horizon at iterate {t}"


def test_exact_fixed_point_ends_the_scan(q2):
    for extended in (False, True):
        rep = build_nest(q2, 2, 10 ** 6, extended_precision=extended)
        assert (rep.termination, rep.termination_level) == ("CriticalNonReturn", 0)
        assert rep.termination_detail == "critical orbit fixed at -1.0 from iterate 2"
        assert rep.shadowing_horizon is None


def test_exact_cycle_bounds_the_scan():
    # the 120-bit q_1.75 critical orbit settles on its attracting 4-cycle
    m = make_quadratic(1.75)
    ar = nest._bind(m, True)
    with ar.context:
        points, (end, detail, horizon) = _walk_to_the_end(ar)
        first, x, t = {}, ar.f(ar.c), 1
        while x not in first:
            first[x] = t
            x, t = ar.f(x), t + 1
    mu, period = first[x], t - first[x]
    assert (mu, period) == (85, 4)
    # the walk stops at Brent's check, within one doubling of the cycle
    assert mu + period <= len(points) + 1 <= 2 * (mu + period)
    assert (end, horizon) == ("CriticalNonReturn", None)
    assert detail == "critical orbit periodic with period 4 from iterate 85"


# --- derived sequences -----------------------------------------------------

def test_nest_lyapunov_arithmetic():
    rep = _report_from_vs([3, 7])
    assert nest_lyapunov(rep) == [pytest.approx(2 * math.log(7) / 3)]
    with pytest.raises(TooShallow):
        nest_lyapunov(_report_from_vs([3]))


def test_nest_asymptotics_arithmetic():
    rep = _report_from_vs([3, 7, 20], cs=[0.1, 0.2, 0.3])
    rows = nest_asymptotics(rep)
    assert rows[0]["ratio_ln_v"] == pytest.approx(math.log(7) / math.log(10))
    with pytest.raises(TooShallow):
        nest_asymptotics(_report_from_vs([3, 7]))


def test_nest_asymptotics_flags_bad_ratio():
    rep = _report_from_vs([3, 7, 20], cs=[1.5, 0.2, 0.3])
    rows = nest_asymptotics(rep)
    assert rows[0]["c_n_invariant_violated"]
    assert rows[0]["ratio_ln_v"] is None


def test_nest_asymptotics_band_at_screened_parameter(screened_taus):
    # finite levels fluctuate around the limit 1; this inspects the trend
    for tau in screened_taus:
        m = make_quadratic(tau)
        rep = build_nest(m, 5, 10 ** 6)
        if len(rep.levels) >= 3:
            rows = nest_asymptotics(rep)
            for row in rows:
                assert not row["c_n_invariant_violated"]
                assert row["ratio_ln_v"] > 0.0
            return
    pytest.skip("no screened parameter reached 3 levels")
