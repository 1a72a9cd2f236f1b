import math
import os
import pickle
import subprocess
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest

from kneadlab import (EmptyCylinder, NonContraction, NotSelfMap, OutOfDomain,
                      derivative, evaluate, find_periodic, iterate_orbit,
                      lyapunov_birkhoff, make_custom, make_logistic, make_map,
                      make_quadratic, make_sine, maps)
from kneadlab.maps import (CHUNK, FAMILIES, LEFT, MATH, NUMPY, RIGHT,
                           branch_inverse, branch_preimage_arrays,
                           branch_range, mpmath_namespace, orbit_array,
                           orbit_fill, python_fill, seeded_start,
                           word_pullback)
from kneadlab.orbits import lyndon_words
from nest_checks import REFERENCE_NESTS


def logistic_sine_conjugacy(x):
    """h(x) = (1 - cos(pi x)) / 2, the coordinate change with h o g_a = f_a o h."""
    return (1.0 - np.cos(np.pi * np.asarray(x, dtype=float))) / 2.0


def test_evaluate_examples(q2):
    assert evaluate(q2, 0.0) == 1.0
    assert evaluate(q2, 0.5) == 0.5
    assert evaluate(make_logistic(3.9), 0.0) == 0.0


def test_derivative_examples(q2):
    assert derivative(q2, 0.5) == -2.0
    assert derivative(q2, -1.0) == 4.0
    assert derivative(q2, 0.0) == 0.0


def test_out_of_domain(q2):
    with pytest.raises(OutOfDomain):
        evaluate(q2, 1.5)
    with pytest.raises(OutOfDomain):
        derivative(q2, -2.0)


def test_clamp_and_not_self_map():
    # overshoot below slack clamps, larger overshoot raises
    gentle = make_custom(lambda x: min(1.0 - 2.0 * x * x + 5e-13, 1.0 + 6e-13),
                         lambda x: -4.0 * x, (-1.0, 1.0), 0.0)
    assert evaluate(gentle, 0.0) == 1.0
    bad = make_custom(lambda x: 1.0 - 2.0 * x * x + (1e-9 if abs(x) < 1e-3 else 0.0),
                      lambda x: -4.0 * x, (-1.0, 1.0), 0.0)
    with pytest.raises(NotSelfMap):
        evaluate(bad, 0.0)


def test_family_parameter_ranges():
    with pytest.raises(ValueError):
        make_quadratic(2.5)
    with pytest.raises(ValueError):
        make_logistic(4.5)
    with pytest.raises(ValueError):
        make_map("unknown", 1.0)
    # g_4 is the tent map, which has no smooth critical point
    for a in (4.0, 0.0):
        with pytest.raises(ValueError) as exc:
            make_sine(a)
        assert str(exc.value) == "sine family requires 0.0 < parameter <= 3.9999999999999996"
    # the top end of every range constructs, the next float above it does not
    for fam in FAMILIES.values():
        hi = fam.parameter_range[1]
        assert make_map(fam.name, hi).parameter == hi
        with pytest.raises(ValueError, match="family requires"):
            make_map(fam.name, math.nextafter(hi, math.inf))
    # sine's |f''(c)|, and the Df(c) that the rounding of c leaves, grow
    # like (4 - a)^(-1/2) near the top of its range
    for a in (math.nextafter(3.9999999999999996, 0.0), 3.99999999999999):
        assert make_sine(a).parameter == a


def test_iterate_orbit_hits_critical(q2):
    seg = iterate_orbit(q2, 0.0, 3)
    assert np.allclose(seg.points, [0.0, 1.0, -1.0, -1.0])
    assert seg.hit_critical
    assert seg.log_derivative_sum == -math.inf


def test_iterate_orbit_q19_direct_arithmetic():
    # oracle: direct evaluation of tau-1-tau*x^2
    m = make_quadratic(1.9)
    seg = iterate_orbit(m, 0.0, 3)
    x1 = 0.9
    x2 = 0.9 - 1.9 * x1 * x1
    x3 = 0.9 - 1.9 * x2 * x2
    assert seg.points[1] == pytest.approx(x1, abs=1e-15)
    assert seg.points[2] == pytest.approx(x2, abs=1e-15)
    assert seg.points[3] == pytest.approx(x3, abs=1e-15)


def test_iterate_orbit_fixed_point(q2):
    seg = iterate_orbit(q2, 0.5, 5)
    assert np.all(seg.points == 0.5)
    assert not seg.hit_critical
    # |Df| = 2 at the fixed point, chain rule over 5 steps
    assert seg.log_derivative_sum == pytest.approx(5 * math.log(2), rel=1e-14)


def test_log_derivative_sum_matches_fsum(q19):
    seg = iterate_orbit(q19, 0.3456, 200)
    oracle = math.fsum(math.log(abs(q19._df(x)))
                       for x in seg.points[:-1])
    assert seg.log_derivative_sum == pytest.approx(oracle, rel=1e-13)


@pytest.mark.parametrize("m", [make_quadratic(1.7), make_logistic(3.6),
                               make_sine(3.2)])
def test_monotone_branch_property(m):
    rng = np.random.default_rng(42)
    l, r = m.domain
    c = m.critical_point
    for lo, hi, orient in ((l, c, 1.0), (c, r, -1.0)):
        xs = rng.uniform(lo, hi, size=(10_000, 2))
        x, y = np.minimum(xs[:, 0], xs[:, 1]), np.maximum(xs[:, 0], xs[:, 1])
        fx = np.array([m._f(v) for v in x])
        fy = np.array([m._f(v) for v in y])
        assert np.all(orient * (fy - fx) >= 0.0)


@pytest.mark.parametrize("a", [2.5, 3.3, 3.9])
def test_conjugacy_identity(a):
    # h(g_a(x)) = f_a(h(x)) for the coordinate change h(x) = (1-cos(pi x))/2
    fa = make_logistic(a)
    ga = make_sine(a)
    rng = np.random.default_rng(int(a * 10))
    xs = rng.uniform(0.0, 1.0, 10_000)
    lhs = logistic_sine_conjugacy([ga._f(float(x)) for x in xs])
    rhs = np.array([fa._f(float(h)) for h in logistic_sine_conjugacy(xs)])
    assert np.max(np.abs(lhs - rhs)) < 1e-12


@pytest.mark.parametrize("m", [make_quadratic(2.0), make_quadratic(0.7),
                               make_logistic(4.0), make_sine(3.9)])
def test_self_map_closure(m):
    rng = np.random.default_rng(1)
    l, r = m.domain
    xs = rng.uniform(l, r, 100_000)
    ys = np.array([m._f(float(x)) for x in xs])
    assert ys.min() >= l - 1e-12
    assert ys.max() <= r + 1e-12


@pytest.mark.parametrize("m", [make_quadratic(1.9), make_logistic(3.7),
                               make_sine(3.5)])
def test_branch_preimage_round_trip(m):
    rng = np.random.default_rng(9)
    for side in (LEFT, RIGHT):
        for _ in range(200):
            lo, hi = sorted(rng.uniform(*m.domain, 2))
            pre = word_pullback(m, (side,), (lo, hi))
            if pre is None:
                continue
            a, b = pre
            assert a <= b
            ys = sorted((m._f(a), m._f(b)))
            assert ys[0] >= lo - 1e-10
            assert ys[1] <= hi + 1e-10


def test_branch_preimage_arrays_match_scalar(q19):
    rng = np.random.default_rng(3)
    los, his = np.sort(rng.uniform(-1, 1, (2, 64)), axis=0)
    for side in (LEFT, RIGHT):
        plo, phi, mask = branch_preimage_arrays(q19, side, los, his)
        for i in range(64):
            scalar = word_pullback(q19, (side,), (los[i], his[i]))
            if scalar is None:
                assert not mask[i] or phi[i] - plo[i] <= 0
            else:
                assert plo[i] == pytest.approx(scalar[0], abs=1e-14)
                assert phi[i] == pytest.approx(scalar[1], abs=1e-14)


def test_fold_preimage(q2):
    # {x : f(x) >= 0} for q_2 is [-1/sqrt(2), 1/sqrt(2)], the two branch
    # inverses of 0; a level above the critical value has no preimage
    lo, hi = branch_inverse(q2, LEFT, 0.0), branch_inverse(q2, RIGHT, 0.0)
    assert lo == pytest.approx(-math.sqrt(0.5), abs=1e-15)
    assert hi == pytest.approx(math.sqrt(0.5), abs=1e-15)
    for side in (LEFT, RIGHT):
        assert word_pullback(q2, (side,), (1.5, 1.5)) is None


def _chain_pullback(m, sides, interval):
    """Reference pullback: branch_range per step, then branch_inverse on
    both ends, the last side first."""
    lo, hi = interval
    for side in reversed(sides):
        rlo, rhi = branch_range(m, side)
        lo, hi = max(lo, rlo), min(hi, rhi)
        if lo > hi:
            return None
        if side == LEFT:
            lo, hi = branch_inverse(m, LEFT, lo), branch_inverse(m, LEFT, hi)
        else:
            lo, hi = branch_inverse(m, RIGHT, hi), branch_inverse(m, RIGHT, lo)
    return lo, hi


def _exact(J):
    # float.hex tells -0.0 from 0.0, which == does not
    return None if J is None else tuple(float(x).hex() for x in J)


# a custom map inverts its branches by bisection
_CUSTOM = make_custom(lambda x: 0.97 * math.sin(math.pi * x),
                      lambda x: 0.97 * math.pi * math.cos(math.pi * x),
                      (0.0, 1.0), 0.5)


@pytest.mark.parametrize("m", [make_quadratic(1.9), make_quadratic(2.0),
                               make_logistic(3.83), make_logistic(4.0),
                               make_sine(3.5), make_sine(3.9), _CUSTOM],
                         ids=["q1.9", "q2", "f3.83", "f4", "g3.5", "g3.9", "custom"])
def test_word_pullback_matches_the_branch_inverse_chain(m):
    rng = np.random.default_rng(23)
    l, r = m.domain
    c = m.critical_point
    pad = 0.5 * (r - l)
    nones = 0
    for _ in range(150):
        sides = tuple(int(s) for s in rng.integers(0, 2, rng.integers(1, 21)))
        # ends up to half a domain outside it, so some lie outside the
        # branch ranges; the branch domains are the intervals cylinder pulls
        # back, and (1.5, 1.5) is an empty q_2 level above the critical value
        lo, hi = sorted(rng.uniform(l - pad, r + pad, 2))
        for J in ((lo, hi), (l, c), (c, r), (hi, hi), (1.5, 1.5)):
            ref = _chain_pullback(m, sides, J)
            assert _exact(word_pullback(m, sides, J)) == _exact(ref)
            nones += ref is None
            for side in (LEFT, RIGHT):
                assert (_exact(word_pullback(m, (side,), J))
                        == _exact(_chain_pullback(m, (side,), J)))
        # a cylinder pulled back again, as find_periodic does
        J = _chain_pullback(m, sides, (l, c) if sides[-1] == LEFT else (c, r))
        if J is not None:
            assert _exact(word_pullback(m, sides, J)) == _exact(_chain_pullback(m, sides, J))
    assert 0 < nones < 750


def test_orbit_array_matches_iterate(q19):
    seg = iterate_orbit(q19, 0.25, 50)
    arr = orbit_array(q19, 0.25, 51)
    assert np.array_equal(seg.points, arr)


def test_lyapunov_birkhoff_matches_fsum_oracle(q19):
    # four chunks of orbit_chunks; the oracle sums every log exactly
    n = 3 * (1 << 16) + 5
    xs = orbit_array(q19, 0.3456, n)
    oracle = math.fsum(math.log(abs(q19._df(float(x)))) for x in xs) / n
    assert lyapunov_birkhoff(q19, 0.3456, n).value == pytest.approx(oracle, rel=1e-13)
    # a log of -inf in any chunk makes the whole sum -inf
    assert lyapunov_birkhoff(make_quadratic(2.0), 0.0, n).value == -math.inf


@pytest.mark.parametrize("family,p", [("quadratic", 1.9), ("logistic", 3.9),
                                      ("sine", 3.9)])
def test_family_bindings_agree(family, p):
    m = make_map(family, p)
    rng = np.random.default_rng(17)
    xs = rng.uniform(*m.domain, 2000)
    ys = rng.uniform(*sorted((m._f(m.domain[0]), m.critical_value)), 2000)
    scalar = m.family.bind(MATH, p)
    vector = m.family.bind(NUMPY, p)
    for i, (g, vg) in enumerate(zip(scalar, vector)):
        args = xs if i < 2 else ys
        expect = np.array([g(float(a)) for a in args])
        got = vg(args)
        if family == "sine" and i != 1:
            # np.arcsin and math.asin differ in the last bit on some points
            assert np.max(np.abs(got - expect)) <= 1e-15
        else:
            assert np.array_equal(got, expect)
    with mp.workprec(120):
        precise = m.family.bind(mpmath_namespace(), mp.mpf(p))
        for i, (g, pg) in enumerate(zip(scalar, precise)):
            for a in (xs if i < 2 else ys)[:200]:
                assert abs(float(pg(mp.mpf(float(a)))) - g(float(a))) <= 1e-14
    back = pickle.loads(pickle.dumps(m))
    assert (back.family, back.parameter) == (m.family, p)
    assert back._f(0.3) == m._f(0.3)


@pytest.mark.parametrize("m", [
    make_quadratic(1.9), make_logistic(3.9), make_sine(3.9),
    make_custom(lambda x: 3.8 * x * (1.0 - x), lambda x: 3.8 - 7.6 * x,
                (0.0, 1.0), 0.5)],
    ids=["quadratic", "logistic", "sine", "custom"])
def test_fill_matches_the_bound_step(m):
    # the walk orbit_chunks runs (a compiled fill where the kernel builds,
    # python_fill over f for the custom map) and python_fill itself against
    # x = f(x), over one full chunk and a partial one
    starts = (m.critical_point, *m.domain, seeded_start(m, 3), seeded_start(m, 4))
    for fill, arg in (orbit_fill(m), (python_fill, m._f)):
        for x0 in starts:
            got = np.empty(CHUNK + 1234)
            x_end = fill(got[:CHUNK], x0, arg)
            x_end = fill(got[CHUNK:], x_end, arg)
            expect = np.empty(len(got))
            x = x0
            for i in range(len(expect)):
                expect[i] = x
                x = m._f(x)
            assert np.array_equal(got, expect)
            assert x_end == x
    if m.family_tag == "custom":
        assert orbit_fill(m) == (python_fill, m._f)


# --- the compiled walks of _kernel.c --------------------------------------

def _compiled_walk(m):
    walk = orbit_fill(m)[0]
    if walk is python_fill:
        pytest.skip("the compiled kernel cannot be built with this Python")
    return walk


def _same_bits(a, b):
    return np.array_equal(np.asarray(a).view(np.int64), np.asarray(b).view(np.int64))


@pytest.mark.parametrize("family,p", [
    ("quadratic", 2.0), ("logistic", 4.0), ("sine", math.nextafter(4.0, 0.0)),
    ("quadratic", 1.9), ("logistic", 3.9), ("sine", 3.9)])
def test_compiled_fill_gives_the_bits_of_the_python_fill(family, p):
    # the walk with no tally against python_fill over the map's f (the
    # x = f(x) chain): chained full chunks and a partial one, and the
    # period-sized buffers of the polish (lengths 0, 1 and 2), from the
    # same starts
    m = FAMILIES[family].make(p)
    compiled = _compiled_walk(m)
    assert orbit_fill(m) == (compiled, p)
    for x0 in (m.critical_point, *m.domain, seeded_start(m, 3), seeded_start(m, 4)):
        for sizes in ((CHUNK, CHUNK, CHUNK, 1234), (0, 1, 2, 1, 0, 2)):
            got, want = np.empty(sum(sizes)), np.empty(sum(sizes))
            x_got = x_want = x0
            pos = 0
            for k in sizes:
                x_got = compiled(got[pos:pos + k], x_got, p)
                x_want = python_fill(want[pos:pos + k], x_want, m._f)
                assert type(x_got) is float
                assert x_got.hex() == x_want.hex()
                pos += k
            assert _same_bits(got, want)


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_compiled_fill_refuses_buffers_it_cannot_write(family):
    # the walk takes a 1-d C-contiguous writable float64 buffer only; numpy
    # refuses to export a strided or read-only array as one
    m = FAMILIES[family].make(1.9)
    compiled = _compiled_walk(m)
    frozen = np.full(4, 0.25)
    frozen.flags.writeable = False
    wide = np.full(8, 0.25)
    for buf, error in ((np.full(4, 0.25, dtype=np.float32), TypeError),
                       (np.full(4, 1, dtype=np.int64), TypeError),
                       (np.full((2, 2), 0.25), TypeError),
                       (bytearray(32), TypeError),
                       (wide[::2], ValueError),
                       (frozen, ValueError)):
        before = bytes(memoryview(wide)), bytes(memoryview(buf))
        with pytest.raises(error):
            compiled(buf, 0.3, 1.9)
        assert (bytes(memoryview(wide)), bytes(memoryview(buf))) == before
    for args in ((np.empty(4), 0.3), (np.empty(4), 0.3, 1.9, None, None)):
        with pytest.raises(TypeError):
            compiled(*args)
    # a tally of None takes no tallies
    got, want = np.zeros(4), np.zeros(4)
    assert compiled(got, 0.3, 1.9, None) == python_fill(want, 0.3, m._f)
    assert _same_bits(got, want)


def test_compiled_twins_belong_to_the_built_in_records_only():
    custom = make_custom(lambda x: 3.8 * x * (1.0 - x), lambda x: 3.8 - 7.6 * x,
                         (0.0, 1.0), 0.5)
    assert orbit_fill(custom) == (python_fill, custom._f)
    for name, record in FAMILIES.items():
        assert _compiled_walk(record.make(1.9)) is maps._compiled[f"{name}_walk"]
        # a copy of the record, with the same name, or one whose bind was
        # replaced, walks its own f
        wrapped = replace(record, bind=lambda ns, p, bind=record.bind: bind(ns, p))
        for other in (replace(record), wrapped):
            m = replace(record.make(1.9), family=other)
            assert orbit_fill(m) == (python_fill, m._f)


# --- the tallies the compiled walks take as they step ----------------------

def _tally_twins(m, edges=None, abs_df=False):
    """Two fresh Tally records of m, for the compiled and the reference
    walk."""
    return [maps.Tally(m, edges, abs_df) for _ in range(2)]


def _walk_twins(m, x0, sizes, tallies):
    """Walks chunks of the given sizes from x0 with the compiled walk and
    with python_fill, each with its own tally of tallies, and asserts after
    each chunk that the points, the next iterate, the histogram counts,
    the |Df| values and the hit flag have the same bits."""
    sides = ((_compiled_walk(m), m.parameter), (python_fill, m._f))
    xs = [x0, x0]
    for k in sizes:
        bufs = []
        for j, ((walk, arg), tally) in enumerate(zip(sides, tallies)):
            buf = np.full(k, -7.0)
            xs[j] = walk(buf, xs[j], arg, tally)
            bufs.append(buf)
        got, want = tallies
        assert type(xs[0]) is float and xs[0].hex() == xs[1].hex()
        assert _same_bits(*bufs)
        if want.counts is not None:
            assert np.array_equal(got.counts, want.counts)
        if want.df is not None:
            assert _same_bits(got.df[:k], want.df[:k])
            assert got.hit is want.hit
    return bufs[0]


@pytest.mark.parametrize("family,p", [
    ("quadratic", 2.0), ("logistic", 4.0), ("sine", math.nextafter(4.0, 0.0)),
    ("quadratic", 1.9), ("logistic", 3.9), ("sine", 3.9)])
def test_compiled_walk_tallies_as_the_python_walk(family, p):
    # chunk splits with a zero-length chunk, from starts that include c
    # (a hit at the first point) and the domain's ends
    m = FAMILIES[family].make(p)
    edges = np.linspace(*m.domain, 257)
    for x0 in (m.critical_point, *m.domain, seeded_start(m, 3)):
        for tallies in (_tally_twins(m, edges, True), _tally_twins(m, edges, False),
                        _tally_twins(m, None, True)):
            _walk_twins(m, x0, (CHUNK, 0, 1, 1234, 2), tallies)
            if tallies[1].counts is not None:
                assert tallies[0].counts.sum() == CHUNK + 1237


@pytest.mark.parametrize("bins", [1, 7, 256, 512, 10 ** 6])
def test_compiled_histogram_counts_as_numpy_histogram(bins):
    # the walk's histogram against np.histogram over the same orbit: uniform
    # edges on the domain, on its middle half (points beyond both ends) and
    # on [-2^20, 2^20]; up to 512 bins also uneven edges with a repeated one
    # (the bin guess walks to its bin one edge at a time, so uneven edges
    # cost up to the number of bins per point), edges that are orbit points
    # and edges one float below and above orbit points.  The quadratic and
    # logistic orbit of r + (r - l) / 2 leaves the domain and reaches -inf
    # within its 1000-point chunk; their orbits of +-inf and nan hold only
    # infinities and nan, which count nowhere.
    rng = np.random.default_rng(bins)
    for m in (make_quadratic(1.9), make_logistic(3.9), make_sine(3.9)):
        l, r = m.domain
        x0 = seeded_start(m, bins)
        orbit = orbit_array(m, x0, 4096)
        uniform = [np.linspace(l, r, bins + 1),
                   np.linspace(0.75 * l + 0.25 * r, 0.25 * l + 0.75 * r, bins + 1),
                   np.linspace(-2.0 ** 20, 2.0 ** 20, bins + 1)]
        cases = list(uniform)
        if bins <= 512:
            uneven = np.sort(rng.uniform(l, r, bins + 1))
            uneven[bins // 2] = uneven[bins // 2 + 1]
            on_points = np.sort(rng.choice(orbit, bins + 1, replace=False))
            cases += [uneven, on_points, np.nextafter(on_points, -np.inf),
                      np.nextafter(on_points, np.inf)]
        starts = [x0]
        if m.family_tag != "sine":
            starts += [r + (r - l) / 2, -np.inf, np.inf, np.nan]
            escape = orbit_array(m, starts[1], 1001)[1:]
            assert np.isfinite(escape).any() and np.isneginf(escape).any()
        for edges in cases:
            for start in starts:
                tallies = _tally_twins(m, edges)
                _walk_twins(m, start, (0, 1, 1000, 3095), tallies)
                # the closed last edge and the points off the edges
                pts = orbit_array(m, start, 4096)
                assert tallies[0].counts.sum() == \
                    np.count_nonzero((pts >= edges[0]) & (pts <= edges[-1]))
        # each uniform edge (every 64th at 10^6 bins), both of its float
        # neighbours, points beyond both ends, +-inf and nan, each the one
        # point of its own walk, against np.histogram of the same points;
        # the edges, the points below them and the rest fill three tallies,
        # so that a point of one kind put one bin off cannot hide behind a
        # point of another kind put one bin off the other way
        walk, buf = _compiled_walk(m), np.empty(1)
        for edges in uniform:
            sides = edges if bins <= 512 else edges[::64]
            kinds = (sides, np.nextafter(sides, -np.inf),
                     np.concatenate([np.nextafter(sides, np.inf),
                                     [edges[0] - 0.5, edges[-1] + 0.5, -np.inf, np.inf, np.nan]]))
            for pts in kinds:
                tally = maps.Tally(m, edges)
                for x in pts:
                    walk(buf, float(x), m.parameter, tally)
                    assert buf[0] == x or math.isnan(x)
                assert np.array_equal(tally.counts, np.histogram(pts, bins=edges)[0])


def _near_points(m):
    """Points near c (within tol, on tol and beyond it, then 1e-15 to
    1e-1 away) and near both ends of the domain."""
    c, tol = m.critical_point, maps.TIE_TOLERANCE
    l, r = m.domain
    steps = np.concatenate([np.arange(0.0, 64.0) * 2.0 ** -52, 10.0 ** -np.arange(1.0, 16.0),
                            [tol, np.nextafter(tol, 1.0), np.nextafter(tol, 0.0)]])
    pts = np.concatenate([c - steps, c + steps, l + steps, r - steps, [l, r, c - tol, c + tol]])
    return np.unique(np.clip(pts, l, r))


@pytest.mark.parametrize("family,p", [
    ("quadratic", 2.0), ("quadratic", 1.9), ("logistic", 4.0), ("logistic", 3.9),
    ("sine", 3.9), ("sine", math.nextafter(4.0, 0.0))])
def test_compiled_abs_df_gives_the_bits_of_the_numpy_df(family, p):
    record = FAMILIES[family]
    m = record.make(p)
    walk = _compiled_walk(m)
    c, tol = m.critical_point, maps.TIE_TOLERANCE
    df = record.bind(NUMPY, p)[1]
    # the seeded orbit, 16 chunks and 10^6 points in all, against the NUMPY
    # df of the points the walk wrote (its fill is checked above)
    tally = maps.Tally(m, abs_df=True)
    buf = np.empty(CHUNK)
    x, hit = orbit_array(m, seeded_start(m, 3), 1, burn_in=1000)[0], False
    for k in [CHUNK] * 15 + [10 ** 6 - 15 * CHUNK]:
        x = walk(buf[:k], x, p, tally)
        assert _same_bits(tally.df[:k], np.abs(df(buf[:k])))
        hit = hit or bool(np.any(np.abs(buf[:k] - c) <= tol))
    assert tally.hit is hit
    # each point near c and the domain's ends by itself, as a one-point walk
    for x in _near_points(m):
        tallies = _tally_twins(m, abs_df=True)
        _walk_twins(m, float(x), (1,), tallies)
        assert tallies[0].hit is bool(abs(x - c) <= tol)
    if family != "sine":
        # Df(c) = 0, so ln|Df| is -inf there (sine's cos(pi c) is 6e-17)
        tally = maps.Tally(m, abs_df=True)
        walk(buf[:1], c, p, tally)
        assert tally.hit is True and tally.df[0] == 0.0


@pytest.mark.parametrize("kernel", [True, False], ids=["compiled", "python"])
@pytest.mark.parametrize("family,p", [(f, p) for f, p, _ in REFERENCE_NESTS])
def test_walk_abs_df_has_the_bits_of_the_float_df_on_the_critical_orbit(
        monkeypatch, family, p, kernel):
    # the double nest's E_{t+1} = |Df(x_t)| E_t + 1 reads |Df| off its
    # walk's tally, and its horizon H, the first t with E_t > 2^53, depends
    # on those bits: up to H they are the bits of the map's own float df
    m = make_map(family, p)
    if kernel:
        _compiled_walk(m)
    else:
        monkeypatch.setattr(maps, "_compiled", {})
    fill, arg = orbit_fill(m)
    tally = maps.Tally(m, abs_df=True)
    buf = np.empty(1024)
    fill(buf, m.critical_point, arg, tally)
    xs = buf.tolist()
    e, t = 1.0, 1
    while e <= 2.0 ** 53:
        e = abs(m._df(xs[t])) * e + 1.0
        t += 1
    assert 50 < t < len(xs)
    assert _same_bits(tally.df[:t], [abs(m._df(x)) for x in xs[:t]])


def test_compiled_tallies_refuse_buffers_they_cannot_use():
    # each refused tally leaves the walk's buffer and every tally buffer
    # unwritten, and its hit flag unset; numpy refuses to export a strided
    # array, or a read-only one as writable
    edges = np.linspace(0.0, 1.0, 5)
    frozen_counts = np.zeros(4)
    frozen_counts.flags.writeable = False
    frozen_df = np.zeros(16)
    frozen_df.flags.writeable = False
    refused = [({"counts": np.zeros(4, dtype=np.int64)}, TypeError),
               ({"counts": np.zeros(4, dtype=np.float32)}, TypeError),
               ({"counts": np.zeros(4, dtype=np.int32)}, TypeError),
               ({"counts": np.zeros(3)}, TypeError),
               ({"counts": np.zeros(5)}, TypeError),
               ({"counts": np.zeros(0), "edges": edges[:1]}, TypeError),
               ({"counts": np.zeros(8)[::2]}, ValueError),
               ({"counts": frozen_counts}, ValueError),
               ({"edges": edges.astype(np.float32)}, TypeError),
               ({"edges": edges.astype(np.int64)}, TypeError),
               ({"edges": np.linspace(0.0, 1.0, 9)[::2]}, ValueError),
               ({"edges": None}, TypeError),
               ({"df": np.zeros(16, dtype=np.float32)}, TypeError),
               ({"df": np.zeros(8)}, TypeError),
               ({"df": np.zeros((4, 4))}, TypeError),
               ({"df": np.zeros(32)[::2]}, ValueError),
               ({"df": frozen_df}, ValueError),
               ({"c": "half"}, TypeError),
               ({"tol": None}, TypeError)]
    for name, record in FAMILIES.items():
        m = record.make(1.9)
        walk = _compiled_walk(m)
        for change, error in refused + [({}, AttributeError)]:
            tally = maps.Tally(m, edges, abs_df=True)
            tally.df = np.zeros(16)
            for attr, value in change.items():
                setattr(tally, attr, value)
            if not change:
                del tally.df
            buf = np.zeros(9)
            # a strided view is checked through the array it views
            arrays = [buf] + [a if a.base is None else a.base
                              for a in (tally.counts, getattr(tally, "df", None))
                              if isinstance(a, np.ndarray)]
            before = [bytes(memoryview(a)) for a in arrays]
            with pytest.raises(error):
                walk(buf, m.critical_point, 1.9, tally)
            assert [bytes(memoryview(a)) for a in arrays] == before
            assert tally.hit is False


def _kernel_copy(tmp_path, source=None):
    """A copy of _kernel.c (or source) whose build goes to tmp_path/__pycache__."""
    path = tmp_path / "_kernel.c"
    path.write_bytes(Path(maps.KERNEL_SOURCE).read_bytes() if source is None else source)
    return str(path)


def _walks():
    """orbit_array, find_periodic and lyapunov_birkhoff output of each family."""
    out = []
    for m in (make_quadratic(1.9), make_logistic(3.9), make_sine(3.9)):
        x0 = seeded_start(m, 5)
        out.append(orbit_array(m, x0, CHUNK + 99, burn_in=1000).tobytes())
        for w in lyndon_words(8):
            try:
                orbit = find_periodic(m, w)
            except (EmptyCylinder, NonContraction) as e:
                out.append(type(e))
            else:
                out.append((orbit.points, orbit.residual, orbit.exponent_log_abs))
        est = lyapunov_birkhoff(m, x0, 10 ** 5, burn_in=1000)
        out.append((est.value, est.hit_critical))
    return out


def test_failed_kernel_build_falls_back_to_the_same_bits(monkeypatch, tmp_path):
    want = _walks()
    # an edited source has no build yet, and the compiler cannot be run
    monkeypatch.setattr(maps, "KERNEL_SOURCE",
                        _kernel_copy(tmp_path, Path(maps.KERNEL_SOURCE).read_bytes() + b"\n"))
    monkeypatch.setattr(maps, "_compiler", lambda: [str(tmp_path / "no-such-cc")])
    monkeypatch.setattr(maps, "_compiled", None)
    for name, record in FAMILIES.items():
        m = record.make(1.9)
        assert orbit_fill(m) == (python_fill, m._f)
    assert list((tmp_path / "__pycache__").iterdir()) == []
    assert _walks() == want


def test_kernel_build_is_cached_under_a_hash_of_its_source(monkeypatch, tmp_path):
    _compiled_walk(make_quadratic(1.9))
    compiler = maps._compiler
    source = Path(maps.KERNEL_SOURCE).read_bytes()
    monkeypatch.setattr(maps, "KERNEL_SOURCE", _kernel_copy(tmp_path))
    cache = tmp_path / "__pycache__"
    first = maps._load_kernel()
    (built,) = cache.iterdir()
    assert str(built) == maps._kernel_path(source, str(cache))
    # a second load reuses the build and runs no compiler
    monkeypatch.setattr(maps, "_compiler", lambda: pytest.fail("the compiler ran"))
    second = maps._load_kernel()
    assert list(cache.iterdir()) == [built]
    assert second.__doc__ == first.__doc__
    assert second.logistic_walk(np.empty(3), 0.3, 3.9) == \
        python_fill(np.empty(3), 0.3, make_logistic(3.9)._f)
    # an edited source is built under a new name, and its module is loaded
    doc = b'"The orbit walks and seeded-pass tallies of the built-in map families, compiled.", -1'
    assert doc in source
    monkeypatch.setattr(maps, "KERNEL_SOURCE",
                        _kernel_copy(tmp_path, source.replace(doc, b'"edited", -1')))
    monkeypatch.setattr(maps, "_compiler", compiler)
    third = maps._load_kernel()
    assert third.__doc__ == "edited"
    assert len(list(cache.iterdir())) == 2


def test_read_only_package_builds_the_kernel_in_a_temporary_directory(monkeypatch, tmp_path):
    _compiled_walk(make_quadratic(1.9))
    monkeypatch.setattr(maps, "KERNEL_SOURCE", _kernel_copy(tmp_path))
    cache = str(tmp_path / "__pycache__")
    access = maps.os.access
    monkeypatch.setattr(maps.os, "access", lambda path, mode: path != cache and access(path, mode))
    made = []
    mkdtemp = tempfile.mkdtemp
    monkeypatch.setattr(tempfile, "mkdtemp", lambda **kw: made.append(mkdtemp(**kw)) or made[-1])
    kernel = maps._load_kernel()
    assert kernel.quadratic_walk(np.empty(3), 0.3, 1.9) == \
        python_fill(np.empty(3), 0.3, make_quadratic(1.9)._f)
    assert list((tmp_path / "__pycache__").iterdir()) == []
    # the per-process directory is removed once the module is loaded
    assert len(made) == 1 and not Path(made[0]).exists()


def test_import_does_not_build_the_kernel():
    code = "import kneadlab, kneadlab.maps as m; assert m._compiled is None"
    subprocess.run([sys.executable, "-c", code], check=True,
                   env={**os.environ, "PYTHONPATH": str(Path(maps.__file__).parents[1])})


def test_custom_map_is_a_family_record():
    m = make_custom(lambda x: 3.8 * x * (1.0 - x), lambda x: 3.8 - 7.6 * x,
                    (0.0, 1.0), 0.5)
    assert (m.family.name, m.family_tag) == ("custom", "custom")
    assert (m.domain, m.critical_point) == (m.family.domain, m.family.critical_point)
    assert math.isnan(m.parameter)
    assert m.family.bind(MATH, m.parameter) == (m._f, m._df, m._inv_left, m._inv_right)
    xs = np.linspace(0.0, 1.0, 9)
    for g, vg in zip(m.family.bind(MATH, m.parameter), m.family.bind(NUMPY, m.parameter)):
        assert np.array_equal(vg(xs), [g(float(x)) for x in xs])
    with pytest.raises(ValueError, match="built-in families only"):
        m.family.bind(mpmath_namespace(), mp.mpf(0.5))


def test_custom_map_validation_rejects_non_unimodal():
    with pytest.raises(ValueError):
        make_custom(lambda x: 0.5, lambda x: 0.0, (0.0, 1.0), 0.5)
    with pytest.raises(ValueError):
        # derivative does not vanish at the claimed critical point
        make_custom(lambda x: 4 * x * (1 - x), lambda x: 4 - 8 * x,
                    (0.0, 1.0), 0.4)
