import cmath
import math
from dataclasses import replace

import numpy as np
import pytest

from kneadlab import (ContainsCriticalSymbol, DivergentInput, EmptyCylinder,
                      IrreducibleRequired, NoOrbitPredicted, NonContraction,
                      SymbolStream,
                      SymbolWord, ZetaTruncation, enumerate_periodic,
                      exponent_from_formula, find_periodic, make_logistic,
                      make_quadratic, zeta_truncation)
from kneadlab.orbits import lyndon_words


def W(s):
    return SymbolWord.from_string(s)


# --- find_periodic ----------------------------------------------------

def test_fixed_points_q2(q2):
    right = find_periodic(q2, W("1"))
    assert right.points[0] == pytest.approx(0.5, abs=1e-12)
    assert right.exponent == pytest.approx(-2.0, rel=1e-12)
    left = find_periodic(q2, W("0"))
    assert left.points[0] == pytest.approx(-1.0, abs=1e-12)
    assert left.exponent == pytest.approx(4.0, rel=1e-12)


def test_period_two_q2(q2):
    # f^2(x) = x factors as (x-1/2)(x+1)(4x^2-2x-1); the period-2 orbit is
    # the roots of 4x^2-2x-1, with product of derivatives 16*x1*x2 = -4
    orb = find_periodic(q2, W("10"))
    r1 = (1 + math.sqrt(5)) / 4
    r2 = (1 - math.sqrt(5)) / 4
    assert sorted(orb.points) == pytest.approx(sorted([r1, r2]), abs=1e-12)
    assert orb.exponent == pytest.approx(-4.0, rel=1e-11)
    assert orb.residual <= 1e-10


def test_word_validation(q2):
    with pytest.raises(IrreducibleRequired):
        find_periodic(q2, W("1010"))
    with pytest.raises(ContainsCriticalSymbol):
        find_periodic(q2, W("1c"))
    with pytest.raises(ValueError):
        find_periodic(q2, SymbolWord(()))


def test_empty_cylinder_regular_map():
    # q_0.9 maps everything below 0, so "10" admits no orbit
    m = make_quadratic(0.9)
    with pytest.raises(EmptyCylinder):
        find_periodic(m, W("10"))


def test_empty_cylinder_q19(q19):
    # 001 requires f^2 > 0 on [0,0]-points, impossible at tau = 1.9
    with pytest.raises(EmptyCylinder):
        find_periodic(q19, W("001"))


def test_attracting_fixed_point_logistic():
    orb = find_periodic(make_logistic(2.5), W("1"))
    assert orb.points[0] == pytest.approx(0.6, abs=1e-12)
    assert orb.exponent == pytest.approx(-0.5, rel=1e-10)


def test_attracting_period_two_logistic():
    # oracle: roots of the quartic f^2(x) - x via numpy.roots
    a = 3.3
    m = make_logistic(a)
    orb = find_periodic(m, W("01"))
    # f(x) = a x - a x^2; compose (f = a*u - a*u^2 with u = f(x)), subtract x
    p = np.polynomial.polynomial
    fx = np.array([0.0, a, -a])
    ffx = p.polyadd(a * fx, -a * p.polymul(fx, fx))
    ffx[1] -= 1.0
    roots = np.roots(ffx[::-1])
    real = sorted(r.real for r in roots if abs(r.imag) < 1e-12)
    # drop the fixed points 0 and 1-1/a
    cycle = [r for r in real if abs(r) > 1e-9 and abs(r - (1 - 1 / a)) > 1e-9]
    assert sorted(orb.points) == pytest.approx(cycle, abs=1e-9)
    d = m.raw_derivative
    assert orb.exponent == pytest.approx(d(cycle[0]) * d(cycle[1]), rel=1e-9)


def test_itinerary_of_found_orbit_matches(q19):
    for s in ("1", "0", "10", "100", "110"):
        try:
            orb = find_periodic(q19, W(s))
        except EmptyCylinder:
            continue
        assert str(orb.word) == s
        assert orb.residual < 1e-10


# --- enumerate_periodic ------------------------------------------------

def test_lyndon_words_counts():
    # oracle: brute-force count of aperiodic minimal rotations
    for n in range(1, 11):
        brute = 0
        for i in range(2 ** n):
            bits = tuple((i >> j) & 1 for j in range(n))
            rots = [bits[k:] + bits[:k] for k in range(n)]
            if min(rots) == bits and all(r != bits for r in rots[1:]):
                brute += 1
        assert sum(1 for w in lyndon_words(n) if len(w) == n) == brute


def test_enumerate_q2_period_2(q2):
    enum = enumerate_periodic(q2, 2)
    assert len(enum) == 3
    by_word = {str(o.word): o for o in enum.orbits}
    assert by_word["0"].exponent == pytest.approx(4.0, rel=1e-11)
    assert by_word["1"].exponent == pytest.approx(-2.0, rel=1e-11)
    assert by_word["01"].exponent == pytest.approx(-4.0, rel=1e-11)


def test_enumerate_q2_period_3(q2):
    enum = enumerate_periodic(q2, 3)
    period3 = [o for o in enum.orbits if o.period == 3]
    assert len(period3) == 2
    for o in period3:
        assert abs(o.exponent) == pytest.approx(8.0, rel=1e-10)


@pytest.mark.parametrize("m", [make_quadratic(1.9), make_logistic(3.9),
                               make_quadratic(0.9)])
def test_at_most_two_fixed_orbits(m):
    enum = enumerate_periodic(m, 1)
    assert len(enum) <= 2


def test_enumerate_rejects_large_period(q2):
    with pytest.raises(ValueError):
        enumerate_periodic(q2, 21)


@pytest.mark.parametrize("m", [make_quadratic(1.9), make_logistic(3.9)])
def test_sign_law(m):
    enum = enumerate_periodic(m, 6)
    assert len(enum) > 0
    for o in enum.orbits:
        assert o.exponent_sign == (-1) ** o.word.ones()


def test_fix_counts_reconstruct_chebyshev(q2):
    enum = enumerate_periodic(q2, 6)
    assert not enum.failures
    for n in range(1, 7):
        fix = sum(o.period for o in enum.orbits if n % o.period == 0)
        assert fix == 2 ** n


# --- exponent formula ---------------------------------------------------

def test_formula_on_iid_stream():
    # iid fair bits: rho(alpha) = 2^{-|alpha|} exactly in the limit
    rng = np.random.default_rng(303)
    arr = rng.integers(0, 2, 10 ** 6).astype(np.int8)
    val = exponent_from_formula(W("1"), SymbolStream.from_array(arr), 10 ** 6)
    assert val == pytest.approx(-2.0, rel=0.02)
    val2 = exponent_from_formula(W("10"), SymbolStream.from_array(arr.copy()),
                                 10 ** 6)
    assert val2 == pytest.approx(-4.0, rel=0.05)


def test_formula_requires_irreducible(q2):
    with pytest.raises(IrreducibleRequired):
        exponent_from_formula(W("11"), SymbolStream.kneading(q2), 1000)


def test_formula_no_orbit_predicted_on_kneading(q2):
    # kneading tail of q_2 is 0^inf: zero occurrences of 11
    with pytest.raises(NoOrbitPredicted):
        exponent_from_formula(W("1"), SymbolStream.kneading(q2), 10 ** 5,
                              k_range=(2, 4))


# --- zeta ----------------------------------------------------------------

def test_zeta_at_zero_is_one(q2):
    enum = enumerate_periodic(q2, 4)
    assert zeta_truncation(enum.orbits, 4, 0.0) == 1.0


def test_zeta_chebyshev_closed_form(q2):
    # interior orbits carry |Df^n| = 2^n and the boundary orbit 4^n, so
    # zeta(z) = (1 - z/2) / ((1 - z)(1 - z/4)); the plain truncation at
    # max_period 8 misses sum_{n>8} z^n/n of log mass, the tail-completed
    # value recovers it
    enum = enumerate_periodic(q2, 8)
    assert not enum.failures
    zt = ZetaTruncation(enum.orbits, 8)
    for z in (0.25, 0.5):
        target = (1 - z / 2) / ((1 - z) * (1 - z / 4))
        tail = sum(z ** n / n for n in range(9, 200))
        ev = zt.evaluate(z)
        assert ev.value == pytest.approx(target, rel=2 * tail + 1e-6)
        assert ev.value_tail_completed == pytest.approx(target, rel=1e-4)


def test_zeta_trace_identity(q2):
    # per-period trace over Fix(f^n): (2^n - 1) / 2^n + 4^{-n}
    enum = enumerate_periodic(q2, 8)
    zt = ZetaTruncation(enum.orbits, 8)
    for n in range(1, 9):
        expected = (2 ** n - 1) / 2 ** n + 4.0 ** (-n)
        assert zt._trace(n) == pytest.approx(expected, rel=1e-10)


def test_zeta_divergent_input(q2):
    enum = enumerate_periodic(q2, 4)
    with pytest.raises(DivergentInput):
        zeta_truncation(enum.orbits, 4, 1.0)
    # attracting orbits shrink the convergence disk below |z| = 1
    attracting = enumerate_periodic(make_logistic(2.5), 2)
    with pytest.raises(DivergentInput):
        zeta_truncation(attracting.orbits, 2, 0.6)


def test_zeta_complex_argument(q2):
    enum = enumerate_periodic(q2, 6)
    zt = ZetaTruncation(enum.orbits, 6)
    z = 0.3 + 0.2j
    target = (1 - z / 2) / ((1 - z) * (1 - z / 4))
    value = zt.evaluate(z).value
    assert cmath.isclose(value, target, rel_tol=1e-3)


def test_zeta_orbit_table_unique_per_orbit(q2):
    enum = enumerate_periodic(q2, 5)
    zt = ZetaTruncation(enum.orbits, 5)
    for n, rows in zt.orbit_table.items():
        words = [w for w, _ in rows]
        assert len(words) == len(set(words))
        assert all(len(SymbolWord.from_string(w)) == n for w in words)


def test_enumerate_parallel_matches_serial(q2):
    serial = enumerate_periodic(q2, 7)
    parallel = enumerate_periodic(q2, 7, workers=2)
    assert [str(o.word) for o in serial.orbits] == \
        [str(o.word) for o in parallel.orbits]
    assert [o.exponent for o in serial.orbits] == \
        [o.exponent for o in parallel.orbits]


def test_exponent_log_storage(q2):
    orb = find_periodic(q2, W("10"))
    assert orb.exponent_sign == -1
    assert orb.exponent_log_abs == pytest.approx(math.log(4.0), rel=1e-11)
    assert orb.expansion_rate() == pytest.approx(2.0, rel=1e-11)


def test_enumerate_serial_searches_the_callers_map(q2):
    # a wide tie tolerance turns the symbols of orbit points near c into 'c',
    # so find_periodic rejects those orbits; the enumeration must agree
    m = replace(q2, tie_tolerance=0.05)
    enum = enumerate_periodic(m, 5)
    for w in lyndon_words(5):
        try:
            find_periodic(m, w)
            found = True
        except (EmptyCylinder, NonContraction):
            found = False
        assert (str(w) not in enum.failures) == found, str(w)
    assert enum.failures
