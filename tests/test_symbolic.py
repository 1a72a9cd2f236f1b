import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kneadlab import (ContainsCriticalSymbol, InsufficientOccurrences,
                      OutOfDomain, PrefixTooShort, SymbolStream, SymbolWord,
                      cylinder, frequency, geometric_frequency, itinerary,
                      kneading_sequence, make_custom, make_logistic,
                      make_quadratic, make_sine)
from kneadlab.maps import (CHUNK, DEFAULT_BURN_IN, TIE_TOLERANCE, orbit_array,
                           orbit_fill, seeded_start)
from kneadlab import symbolic
from kneadlab.symbolic import count_occurrences


# --- words ------------------------------------------------------------

def test_word_parsing_and_str():
    w = SymbolWord.from_string("c101")
    assert str(w) == "c101"
    assert len(w) == 4
    assert w.has_critical
    with pytest.raises(ValueError):
        SymbolWord.from_string("10x")


bits = st.lists(st.integers(0, 1), min_size=1, max_size=12)


@given(bits, st.integers(2, 4))
def test_powers_are_reducible(b, r):
    assert not SymbolWord(tuple(b) * r).is_irreducible()


@given(bits)
def test_irreducible_matches_bruteforce(b):
    w = SymbolWord(tuple(b))
    n = len(b)
    brute = not any(n % d == 0 and tuple(b) == tuple(b[:d]) * (n // d)
                    for d in range(1, n))
    assert w.is_irreducible() == brute


# --- itineraries ------------------------------------------------------

def test_itinerary_examples(q2):
    assert str(itinerary(q2, 0.0, 4)) == "c100"
    assert str(itinerary(q2, 0.5, 3)) == "111"
    assert str(itinerary(q2, -1.0, 3)) == "000"


@pytest.mark.parametrize("m", [make_quadratic(1.9), make_logistic(3.9),
                               make_sine(3.8),
                               make_custom(lambda x: 1.0 - 1.9 * x * x,
                                           lambda x: -3.8 * x, (-1.0, 1.0), 0.0)],
                         ids=["quadratic", "logistic", "sine", "custom"])
def test_itinerary_equals_stream_prefix(m):
    # lengths on both sides of the 65,536-point stream chunk
    c = m.critical_point
    for x0 in (c, 0.5 * (m.domain[0] + c) + 0.01):
        for n in (0, 1, 24, 65536, 65537):
            word = itinerary(m, x0, n)
            stream = SymbolStream.from_point(m, x0).take(n)
            assert word.symbols == tuple(stream.tolist())
            assert len(word) == n
            if n and x0 == c:
                assert str(word)[0] == "c"


def test_itinerary_computes_only_its_length():
    calls = [0]

    def f(x):
        calls[0] += 1
        return 1.0 - 1.9 * x * x

    m = make_custom(f, lambda x: -3.8 * x, (-1.0, 1.0), 0.0)
    calls[0] = 0
    assert len(itinerary(m, 0.3, 24)) == 24
    assert calls[0] <= 24


def test_itinerary_rejects_bad_start_and_length(q19):
    for x0 in (5.0, -1.5, math.nan, math.inf):
        with pytest.raises(OutOfDomain):
            itinerary(q19, x0, 4)
        with pytest.raises(OutOfDomain):
            SymbolStream.from_point(q19, x0)
    with pytest.raises(ValueError):
        itinerary(q19, 0.1, -1)
    # rounding overshoot within the domain slack is accepted
    assert str(itinerary(q19, 1.0 + 5e-13, 2)) == "10"


def test_kneading_examples(q2, q19):
    assert str(kneading_sequence(q2, 4)) == "c100"
    assert str(kneading_sequence(q19, 4)) == "c101"
    assert str(kneading_sequence(make_logistic(4.0), 4)) == "c100"


def test_kneading_starts_with_c(q19):
    for m in (q19, make_logistic(3.8)):
        assert kneading_sequence(m, 1).symbols[0] == 2


def test_shift_equivariance(q19, q2):
    # itinerary(f(x), n-1) = shift of itinerary(x, n) when the orbit stays
    # clear of the critical point
    rng = np.random.default_rng(11)
    n = 40
    for m in (q19, q2):
        checked = 0
        while checked < 200:
            x = float(rng.uniform(*m.domain))
            pts = [x]
            for _ in range(n):
                pts.append(m._f(pts[-1]))
            if min(abs(p - m.critical_point) for p in pts) <= 1e-12:
                continue
            a = itinerary(m, x, n)
            b = itinerary(m, m._f(x), n - 1)
            assert a.symbols[1:] == b.symbols
            checked += 1


# --- cylinders --------------------------------------------------------

def test_cylinder_examples(q2):
    c1 = cylinder(q2, SymbolWord.from_string("1"))
    assert c1.interval == pytest.approx((0.0, 1.0))
    c11 = cylinder(q2, SymbolWord.from_string("11"))
    assert c11.interval[0] == pytest.approx(0.0, abs=1e-15)
    assert c11.interval[1] == pytest.approx(1 / math.sqrt(2), abs=1e-14)
    with pytest.raises(ContainsCriticalSymbol):
        cylinder(q2, SymbolWord.from_string("1c"))


def test_cylinder_zero_then_twenty_ones(q2):
    w = SymbolWord.from_string("0" + "1" * 20)
    cyl = cylinder(q2, w)
    assert cyl.is_empty or cyl.width < 1e-5


def test_cylinder_nesting(q19, q2):
    rng = np.random.default_rng(5)
    for m in (q19, q2):
        for _ in range(100):
            k = int(rng.integers(1, 7))
            word = SymbolWord(tuple(rng.integers(0, 2, k).tolist()))
            ext = SymbolWord(word.symbols + (int(rng.integers(0, 2)),))
            outer = cylinder(m, word)
            inner = cylinder(m, ext)
            if inner.is_empty:
                continue
            assert not outer.is_empty
            assert inner.interval[0] >= outer.interval[0] - 1e-12
            assert inner.interval[1] <= outer.interval[1] + 1e-12


def test_cylinders_of_equal_length_disjoint(q19):
    words = [SymbolWord(tuple((i >> j) & 1 for j in range(4)))
             for i in range(16)]
    ivs = sorted(cylinder(q19, w).interval for w in words
                 if not cylinder(q19, w).is_empty)
    for (a1, b1), (a2, b2) in zip(ivs, ivs[1:]):
        assert a2 >= b1 - 1e-12


def test_cylinder_interior_points_have_matching_itinerary(q19):
    rng = np.random.default_rng(17)
    for i in range(16):
        word = SymbolWord(tuple((i >> j) & 1 for j in range(4)))
        cyl = cylinder(q19, word)
        if cyl.is_empty or cyl.width < 1e-9:
            continue
        lo, hi = cyl.interval
        pad = 1e-9 * (hi - lo)
        for x in rng.uniform(lo + pad, hi - pad, 50):
            assert itinerary(q19, float(x), 4).symbols == word.symbols


# --- frequencies ------------------------------------------------------

def test_frequency_literal_example():
    stream = SymbolStream.from_array(
        np.array([1, 1, 0, 1, 1, 0, 1, 1, 0], dtype=np.int8))
    est = frequency(SymbolWord.from_string("11"), stream, 9, max_power=1)
    assert est.occurrence_count == 3
    assert est.r_hat == pytest.approx(1 / 3)


def test_frequency_periodic_stream():
    word = SymbolWord.from_string("10")
    n = 10_000
    stream = SymbolStream.from_array(np.tile(word.to_int8(), n // 2))
    est = frequency(word, stream, n, max_power=3)
    for k, count in est.per_power_counts:
        # matches at even positions, window fully inside the prefix
        assert count == (n - 2 * k) // 2 + 1
    assert est.r_hat == pytest.approx(0.5, abs=1e-3)


def test_frequency_typical_point_half(q2):
    stream = SymbolStream.typical(q2, seed=101)
    est = frequency(SymbolWord.from_string("1"), stream, 10 ** 6)
    assert est.r_hat == pytest.approx(0.5, abs=0.01)


def test_frequency_validation(q2):
    with pytest.raises(ContainsCriticalSymbol):
        frequency(SymbolWord.from_string("c1"), SymbolStream.kneading(q2), 100)
    with pytest.raises(PrefixTooShort):
        frequency(SymbolWord.from_string("10"), SymbolStream.kneading(q2),
                  10, max_power=6)


@given(st.lists(st.integers(0, 1), min_size=20, max_size=200),
       st.lists(st.integers(0, 1), min_size=1, max_size=3))
@settings(max_examples=60)
def test_count_monotone_in_power(stream_bits, pattern_bits):
    arr = np.array(stream_bits, dtype=np.int8)
    pat = np.array(pattern_bits, dtype=np.int8)
    counts = [count_occurrences(np.tile(pat, k), arr) for k in range(1, 6)]
    assert all(a >= b for a, b in zip(counts, counts[1:]))


def test_frequency_stops_counting_at_the_first_zero(monkeypatch):
    # (10)^2 occurs in every block of 101000, (10)^3 nowhere
    bits = np.tile(np.array([1, 0, 1, 0, 0, 0], dtype=np.int8), 100)
    pattern = SymbolWord.from_string("10")
    direct = tuple((k, count_occurrences(np.tile(pattern.to_int8(), k), bits))
                   for k in range(1, 7))
    assert [c for _, c in direct] == [200, 100, 0, 0, 0, 0]
    matched, summed = [], []

    class Mask(np.ndarray):
        def sum(self, *args, **kwargs):
            summed.append(len(self))
            return np.asarray(self).sum(*args, **kwargs)

    original = symbolic._match_mask

    def match_mask(pat, prefix):
        matched.append(len(pat))
        return original(pat, prefix).view(Mask)

    monkeypatch.setattr(symbolic, "_match_mask", match_mask)
    est = frequency(pattern, SymbolStream.from_array(bits), len(bits), max_power=6)
    assert est.per_power_counts == direct
    # one match mask of the pattern, then one count per power up to the zero
    assert matched == [2]
    assert summed == [599, 597, 595]


@given(st.data())
@settings(max_examples=150)
def test_frequency_counts_match_the_tiled_pattern_counts(data):
    alpha = data.draw(st.lists(st.integers(0, 1), min_size=1, max_size=8))
    max_power = data.draw(st.integers(1, 8))
    # whole copies of alpha between short random runs, so high powers occur
    blocks = data.draw(st.lists(
        st.one_of(st.just(alpha), st.lists(st.integers(0, 1), min_size=1, max_size=3)),
        max_size=40))
    bits = [b for block in blocks for b in block]
    bits += [0] * max(0, len(alpha) * max_power - len(bits))
    prefix = np.array(bits, dtype=np.int8)
    pattern = SymbolWord.from_string("".join(map(str, alpha)))
    est = frequency(pattern, SymbolStream.from_array(prefix), len(prefix), max_power)
    assert est.per_power_counts == tuple(
        (k, count_occurrences(np.tile(pattern.to_int8(), k), prefix))
        for k in range(1, max_power + 1))


def test_frequency_per_power_counts_nonincreasing(q19):
    stream = SymbolStream.typical(q19, seed=3)
    est = frequency(SymbolWord.from_string("10"), stream, 200_000, max_power=6)
    counts = [c for _, c in est.per_power_counts]
    assert counts == sorted(counts, reverse=True)


# --- geometric frequencies --------------------------------------------

def test_geometric_frequency_periodic_stream_is_one():
    # full-containment counting shifts r_hat(alpha^k) by O(k/n), so the
    # slope is O(1/n) rather than exactly 0
    word = SymbolWord.from_string("10")
    est = geometric_frequency(word,
                              SymbolStream.from_array(np.tile(word.to_int8(), 50_000)),
                              100_000, 1, 5)
    assert est.rho_hat == pytest.approx(1.0, abs=1e-4)
    assert est.status == "ok"


def test_geometric_frequency_zero():
    stream = SymbolStream.from_array(np.zeros(1000, dtype=np.int8))
    est = geometric_frequency(SymbolWord.from_string("1"), stream, 1000, 1, 3)
    assert est.rho_hat == 0.0
    assert est.status == "zero_frequency"


def test_geometric_frequency_insufficient(q2):
    # kneading tail of q_2 is all zeros: a single '1' at position 1
    est_stream = SymbolStream.kneading(q2)
    with pytest.raises(InsufficientOccurrences):
        geometric_frequency(SymbolWord.from_string("1"), est_stream,
                            10_000, 1, 3)


def test_geometric_frequency_typical_q2(q2):
    stream = SymbolStream.typical(q2, seed=2024)
    est = geometric_frequency(SymbolWord.from_string("1"), stream,
                              10 ** 6, 2, 6)
    assert est.rho_hat == pytest.approx(0.5, abs=0.03)
    assert est.stderr < 0.01


def test_fit_range_shrinks_on_scarce_powers(q2):
    stream = SymbolStream.typical(q2, seed=5)
    est = geometric_frequency(SymbolWord.from_string("110"), stream,
                              200_000, 2, 6)
    assert est.status in ("shrunk", "ok")
    assert est.fit_range[1] <= 6


def test_last_ratio_diagnostic(q2):
    est = geometric_frequency(SymbolWord.from_string("1"),
                              SymbolStream.typical(q2, seed=5), 10 ** 5, 1, 4)
    # r_hat(alpha^k) / r_hat(alpha^{k-1}) per power
    counts = dict(est.per_power_counts)
    assert set(counts) == {1, 2, 3, 4}
    for k in (2, 3, 4):
        assert counts[k] / counts[k - 1] == pytest.approx(0.5, abs=0.05)


# --- streams ----------------------------------------------------------

def test_stream_reproducibility(q19):
    a = SymbolStream.typical(q19, seed=8).take(5000)
    b = SymbolStream.typical(q19, seed=8).take(5000)
    assert np.array_equal(a, b)
    c = SymbolStream.typical(q19, seed=9).take(5000)
    assert not np.array_equal(a, c)


def test_stream_take_advances(q19):
    s = SymbolStream.typical(q19, seed=8)
    first = s.take(100)
    second = s.take(100)
    whole = SymbolStream.typical(q19, seed=8).take(200)
    assert np.array_equal(np.concatenate([first, second]), whole)


@pytest.mark.parametrize("m", [make_quadratic(1.9), make_logistic(3.9),
                               make_sine(3.9)])
def test_typical_stream_is_the_seeded_orbit_after_burn_in(m):
    n = 70_000  # more than one orbit chunk
    for seed in (8, 346):
        pts = orbit_array(m, seeded_start(m, seed), n, burn_in=DEFAULT_BURN_IN)
        c = m.critical_point
        expected = np.where(np.abs(pts - c) <= TIE_TOLERANCE, 2, pts > c)
        got = SymbolStream.typical(m, seed).take(n)
        assert np.array_equal(got, expected)


@pytest.mark.parametrize("m", [make_quadratic(1.9), make_logistic(3.9),
                               make_sine(3.9)])
@pytest.mark.parametrize("takes", [(1, CHUNK - 1, CHUNK + 1, 10), (200_000,),
                                   (3, 2 * CHUNK)])
def test_stream_walks_only_the_symbols_it_returns(m, takes, monkeypatch):
    # each take walks exactly its symbols and resumes from the iterate the
    # last one returned, so takes that cross chunk borders read the symbols
    # of one chunked walk of the orbit
    fill, arg = orbit_fill(m)
    walked = [0]

    def counted(buf, x, arg, tally=None):
        walked[0] += len(buf)
        return fill(buf, x, arg, tally)

    monkeypatch.setattr(symbolic, "orbit_fill", lambda m: (counted, arg))
    x0 = seeded_start(m, 8)
    stream = SymbolStream.from_point(m, x0, burn_in=DEFAULT_BURN_IN)
    got = np.concatenate([stream.take(n) for n in takes])
    assert walked[0] == DEFAULT_BURN_IN + sum(takes)
    pts = orbit_array(m, x0, sum(takes), burn_in=DEFAULT_BURN_IN)
    c = m.critical_point
    assert np.array_equal(got, np.where(np.abs(pts - c) <= TIE_TOLERANCE, 2, pts > c))


def test_stream_exhaustion_raises():
    s = SymbolStream.from_array(np.zeros(10, dtype=np.int8))
    with pytest.raises(PrefixTooShort):
        s.take(11)
