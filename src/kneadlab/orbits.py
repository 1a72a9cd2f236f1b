"""Periodic orbits with prescribed itineraries, signed exponents, the
kneading-frequency exponent formula, and dynamical zeta truncations.

Exponents are stored as (sign, log-magnitude) since period-20 derivative
products overflow a linear scale for expanding maps.
"""

from __future__ import annotations

import cmath
import math
import os
from dataclasses import dataclass

import numpy as np

from .errors import (ContainsCriticalSymbol, DivergentInput, EmptyCylinder,
                     IrreducibleRequired, NoOrbitPredicted, NonContraction)
from .maps import FAMILIES, UnimodalMap, orbit_array, orbit_fill, word_pullback
from .symbolic import (GeometricFrequencyEstimate, SymbolStream, SymbolWord,
                       _symbols, cylinder, geometric_frequency, itinerary)

CYLINDER_WIDTH_TOL = 1e-13
EMPTY_WIDTH_TOL = 1e-15
MAX_POWERS = 60
POLISH_STEPS = 200
# Evenly spaced points at which _bracket_scan looks for a sign change.
BRACKET_POINTS = 65
# An orbit point this close to an end of the domain is not interior.
INTERIOR_SLACK = 1e-9


@dataclass(frozen=True)
class PeriodicOrbit:
    """A periodic orbit starting at the point whose itinerary is word^inf."""

    points: tuple[float, ...]
    word: SymbolWord
    exponent_sign: int
    exponent_log_abs: float
    residual: float

    @property
    def period(self) -> int:
        return len(self.points)

    @property
    def exponent(self) -> float:
        return self.exponent_sign * math.exp(self.exponent_log_abs)

    def is_interior(self, m: UnimodalMap) -> bool:
        l, r = m.domain
        return all(l + INTERIOR_SLACK < x < r - INTERIOR_SLACK for x in self.points)


@dataclass
class EnumerationResult:
    """Successful orbits plus per-word failures (recorded, not thrown)."""

    orbits: list[PeriodicOrbit]
    failures: dict[str, str]

    def __iter__(self):
        return iter(self.orbits)

    def __len__(self):
        return len(self.orbits)


def lyndon_words(max_len: int):
    """Binary Lyndon words of length <= max_len (Duval's algorithm); none
    for max_len < 1.

    These are exactly the lexicographically-least rotations of irreducible
    necklaces, so each periodic orbit is attempted once.
    """
    w = [-1] if max_len >= 1 else []
    while w:
        w[-1] += 1
        yield SymbolWord(tuple(w))
        m = len(w)
        while len(w) < max_len:
            w.append(w[len(w) - m])
        while w and w[-1] == 1:
            w.pop()


def _bracket_scan(g, lo, hi):
    """A sign-change bracket inside [lo, hi], preferring the middle of
    BRACKET_POINTS evenly spaced points."""
    xs = np.linspace(lo, hi, BRACKET_POINTS)
    vals = [g(float(x)) for x in xs]
    mid = (BRACKET_POINTS - 1) // 2
    best = None
    for i in range(BRACKET_POINTS - 1):
        if vals[i] == 0.0:
            return (float(xs[i]), float(xs[i]), 0.0, 0.0)
        if vals[i] * vals[i + 1] < 0.0:
            if best is None or abs(i - mid) < abs(best - mid):
                best = i
    if vals[-1] == 0.0:
        return (float(xs[-1]), float(xs[-1]), 0.0, 0.0)
    if best is None:
        return None
    return (float(xs[best]), float(xs[best + 1]), vals[best], vals[best + 1])


def _polish_root(m: UnimodalMap, period: int, lo: float, hi: float):
    """Bisection-safeguarded secant on f^m(x) - x inside [lo, hi], where
    f^m(x) is the map's orbit walk over one m-point buffer.

    Df^m can be huge along expanding orbits, so every secant step is kept
    inside the current bracket and falls back to bisection.  For cylinders
    near the roundoff scale the root can land just outside the computed
    interval; the bracket is then widened in guarded steps (the itinerary
    validation downstream rejects any neighboring orbit this might grab).

    Returns (root, widened_flag).
    """
    fill, arg = orbit_fill(m)
    buf = np.empty(period)

    def g(x):
        return fill(buf, x, arg) - x

    widened = False
    ga, gb = g(lo), g(hi)
    if ga == 0.0:
        return lo, widened
    if gb == 0.0:
        return hi, widened
    if ga * gb > 0.0:
        width = hi - lo
        mid = 0.5 * (lo + hi)
        dom_lo, dom_hi = m.domain
        bracket = _bracket_scan(g, lo, hi)
        if bracket is None and width < 1e-9:
            # cylinders at the roundoff scale can collapse to zero width
            step = max(width, 4e-16 * (1.0 + abs(mid)))
            for expand in (4.0, 16.0, 64.0, 256.0):
                a = max(dom_lo, mid - 0.5 * step * expand)
                b = min(dom_hi, mid + 0.5 * step * expand)
                bracket = _bracket_scan(g, a, b)
                if bracket is not None:
                    widened = True
                    break
        if bracket is None:
            raise NonContraction(
                f"no sign change of f^{period}(x)-x inside cylinder [{lo}, {hi}]")
        lo, hi, ga, gb = bracket
        if lo == hi:
            return lo, widened
    a, b, fa, fb = lo, hi, ga, gb
    x_prev, f_prev = a, fa
    x_cur, f_cur = b, fb
    for _ in range(POLISH_STEPS):
        if f_prev != f_cur:
            x_new = x_cur - f_cur * (x_prev - x_cur) / (f_prev - f_cur)
        else:
            x_new = 0.5 * (a + b)
        if not (a < x_new < b):
            x_new = 0.5 * (a + b)
        f_new = g(x_new)
        if f_new == 0.0 or (b - a) <= 4e-16 * (1.0 + abs(x_new)):
            return x_new, widened
        if fa * f_new < 0.0:
            b, fb = x_new, f_new
        else:
            a, fa = x_new, f_new
        x_prev, f_prev = x_cur, f_cur
        x_cur, f_cur = x_new, f_new
    return 0.5 * (a + b), widened


def find_periodic(m: UnimodalMap, word: SymbolWord) -> PeriodicOrbit:
    """Locate the periodic orbit with itinerary word^inf.

    Nested cylinders I_{word^k} are pulled back until their width drops
    below CYLINDER_WIDTH_TOL (or the widths stall, which happens around
    attracting orbits), then the root of f^m(x) - x is polished inside the
    final cylinder.  One forward walk of 2m points from the root then gives
    the orbit points, the residual |f^m(p) - p| and the itinerary check.
    EmptyCylinder signals that no such orbit exists for this map, which is
    a legal outcome.
    """
    if len(word) == 0:
        raise ValueError("word must be nonempty")
    if word.has_critical:
        raise ContainsCriticalSymbol("periodic itineraries avoid 'c'")
    if not word.is_irreducible():
        raise IrreducibleRequired(f"{word} is a proper power")
    period = len(word)
    cyl = cylinder(m, word)
    if cyl.is_empty:
        raise EmptyCylinder(f"I_{word} is already empty")
    J = cyl.interval
    prev_width = J[1] - J[0]
    stall = 0
    for _ in range(1, MAX_POWERS):
        if prev_width < CYLINDER_WIDTH_TOL:
            break
        J_next = word_pullback(m, word.symbols, J)
        if J_next is None:
            raise EmptyCylinder(f"I_{{{word}^k}} became empty during pullback")
        width = J_next[1] - J_next[0]
        if width > 0.95 * prev_width:
            stall += 1
            if stall >= 3:
                J = J_next
                break
        else:
            stall = 0
        J, prev_width = J_next, width
    width = J[1] - J[0]
    if width < EMPTY_WIDTH_TOL:
        mid = 0.5 * (J[0] + J[1])
        if itinerary(m, mid, period).symbols != word.symbols:
            raise EmptyCylinder(
                f"cylinder collapsed below {EMPTY_WIDTH_TOL} with itinerary mismatch")
    p, widened = _polish_root(m, period, J[0], J[1])
    walk = orbit_array(m, p, 2 * period)
    pts = walk[:period].tolist()
    residual = abs(float(walk[period]) - p)
    scale = max(1.0, abs(p))
    if residual > 1e-9 * scale:
        raise NonContraction(f"root polish left residual {residual}")
    symbols = tuple(_symbols(m, walk).tolist())
    if symbols != word.symbols * 2:
        check = SymbolWord(symbols)
        if widened:
            raise NonContraction(
                f"widened polish landed on a neighboring orbit ({check})")
        raise EmptyCylinder(
            f"polished point has itinerary {check}, not {word}^2: orbit absent")
    sign = 1
    log_abs = 0.0
    for x in pts:
        d = m._df(x)
        if abs(d) == 0.0:
            raise NonContraction("orbit passes through the critical point")
        sign *= 1 if d > 0 else -1
        log_abs += math.log(abs(d))
    return PeriodicOrbit(tuple(pts), word, sign, log_abs, residual)


def _find_each(m: UnimodalMap, texts):
    """(text, orbit, None) or (text, None, error) for each word, in order."""
    out = []
    for text in texts:
        try:
            out.append((text, find_periodic(m, SymbolWord.from_string(text)), None))
        except (EmptyCylinder, NonContraction) as e:
            out.append((text, None, f"{type(e).__name__}: {e}"))
    return out


def enumerate_periodic(m: UnimodalMap, max_period: int,
                       workers: int = 1) -> EnumerationResult:
    """Attempt find_periodic for every irreducible necklace representative
    of length <= max_period; failures are recorded per word, not raised.

    Word searches are independent and pure; with workers > 1 they run in a
    pool of at most one process per word and CPU and merge in word order.
    The workers rebuild the map with make_map: a custom map runs serially.
    """
    if not 1 <= max_period <= 20:
        raise ValueError("1 <= max_period <= 20 required")
    words = [str(w) for w in lyndon_words(max_period)]
    workers = min(workers, len(words), os.cpu_count() or 1)
    if workers > 1 and m.family_tag in FAMILIES:
        from concurrent.futures import ProcessPoolExecutor
        shards = [words[i::workers] for i in range(workers)]
        with ProcessPoolExecutor(max_workers=workers) as pool:
            by_word = {text: (orbit, err)
                       for shard in pool.map(_find_each, [m] * workers, shards)
                       for text, orbit, err in shard}
        results = [(t,) + by_word[t] for t in words]
    else:
        results = _find_each(m, words)
    orbits = [orb for _, orb, _ in results if orb is not None]
    failures = {t: err for t, _, err in results if err is not None}
    return EnumerationResult(orbits, failures)


# ---------------------------------------------------------------------------
# Exponent formula: |Df^m(p)| = 1 / rho(word, stream), sign = (-1)^{#1s}
# ---------------------------------------------------------------------------

def formula_exponent_estimate(pattern: SymbolWord, stream: SymbolStream,
                              prefix_length: int,
                              k_range: tuple[int, int] = (2, 6)
                              ) -> tuple[float, GeometricFrequencyEstimate]:
    """Signed exponent predicted from symbol statistics, with the estimate.

    The threshold between a prediction and NoOrbitPredicted is an exact
    zero occurrence count at the smallest power; the returned estimate
    carries all counts so callers can see how close the call was.
    """
    if not pattern.is_irreducible():
        raise IrreducibleRequired(f"{pattern} is a proper power")
    est = geometric_frequency(pattern, stream, prefix_length,
                              k_range[0], k_range[1])
    if est.status == "zero_frequency" or est.rho_hat == 0.0:
        raise NoOrbitPredicted(
            f"rho_hat = 0 for {pattern}: no periodic orbit predicted in the attractor",
            estimate=est)
    sign = -1 if pattern.ones() % 2 else 1
    return sign / est.rho_hat, est


# ---------------------------------------------------------------------------
# zeta truncation
# ---------------------------------------------------------------------------

INNER_SUM_CAP_FACTOR = 4  # inner geometric sum truncated at n*m <= 4*max_period


@dataclass
class ZetaEvaluation:
    value: float
    inner_tail_bound: float
    outer_tail_log_estimate: float
    value_tail_completed: float
    min_expansion_rate: float


class ZetaTruncation:
    """Truncated zeta with weight |Df|^{-1} over prime periodic orbits:

        zeta(z) = exp( sum_{n<=N} sum_{m: nm<=4N} z^{nm}/m
                       * sum_{p in Per_n} |Df^n(p)|^{-m} )

    Per_n counts each orbit once (not once per point).  The inner-sum
    remainder is bounded exactly; the contribution of prime periods beyond
    max_period is estimated from the per-period trace averages (reported,
    never silently added to `value`).
    """

    def __init__(self, orbits, max_period: int):
        if max_period < 1:
            raise ValueError("max_period >= 1 required")
        self.max_period = max_period
        self.orbit_table: dict[int, list[tuple[str, float]]] = {}
        for orb in orbits:
            if orb.period > max_period:
                continue
            self.orbit_table.setdefault(orb.period, []).append(
                (str(orb.word), orb.exponent_log_abs))

    def min_expansion_rate(self) -> float:
        rates = [math.exp(la / n) for n, rows in self.orbit_table.items()
                 for _, la in rows]
        return min(rates) if rates else math.inf

    def _trace(self, n: int) -> float:
        """sum over Fix(f^n) of |Df^n(p)|^{-1}, reconstructed from prime orbits."""
        total = 0.0
        for d, rows in self.orbit_table.items():
            if n % d == 0:
                for _, la in rows:
                    total += d * math.exp(-la * (n // d))
        return total

    def evaluate(self, z) -> ZetaEvaluation:
        if not cmath.isfinite(z):
            raise DivergentInput(f"z = {z} is not finite")
        az = abs(z)
        if az >= 1.0:
            raise DivergentInput(f"|z| = {az} >= 1")
        lam_min = self.min_expansion_rate()
        if az >= lam_min:
            raise DivergentInput(
                f"|z| = {az} outside guaranteed convergence (min |Df^n|^(1/n) = {lam_min})")
        cap = INNER_SUM_CAP_FACTOR * self.max_period
        log_sum = 0.0
        inner_tail = 0.0
        for n, rows in sorted(self.orbit_table.items()):
            zn = z ** n
            for _, la in rows:
                w = math.exp(-la)  # |Df^n(p)|^{-1}
                q = zn * w
                m = 1
                term_sum = 0.0
                while n * m <= cap:
                    term_sum += (q ** m) / m
                    m += 1
                log_sum += term_sum
                aq = abs(q)
                if aq < 1.0:
                    inner_tail += aq ** m / (m * (1.0 - aq))
        # prime periods beyond max_period, estimated via the trace average
        # of the last periods (the per-period trace is ~constant when the
        # weight matches the physical measure)
        tail_src = [self._trace(n) for n in
                    range(max(1, self.max_period - 2), self.max_period + 1)]
        s_bar = sum(tail_src) / len(tail_src)
        outer = 0.0
        n = self.max_period + 1
        while True:
            t = (az ** n) / n * s_bar
            outer += t
            n += 1
            if t < 1e-17 or n > 100000:
                break
        if isinstance(log_sum, complex):
            value = completed = cmath.exp(log_sum)
        else:
            value = math.exp(log_sum)
            completed = value * math.exp(outer)
        return ZetaEvaluation(
            value=value,
            inner_tail_bound=inner_tail,
            outer_tail_log_estimate=outer,
            value_tail_completed=completed,
            min_expansion_rate=lam_min,
        )
