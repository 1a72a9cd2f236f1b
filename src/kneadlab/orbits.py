"""Periodic orbits with prescribed itineraries, signed exponents, the
kneading-frequency exponent formula, and dynamical zeta truncations.

Exponents are stored as (sign, log-magnitude) since period-20 derivative
products overflow a linear scale for expanding maps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import (ContainsCriticalSymbol, DivergentInput, EmptyCylinder,
                     IrreducibleRequired, NoOrbitPredicted, NonContraction)
from .maps import LEFT, RIGHT, UnimodalMap, branch_preimage, evaluate, make_map
from .symbolic import (SYM_0, SYM_C, GeometricFrequencyEstimate, SymbolStream,
                       SymbolWord, cylinder, geometric_frequency, itinerary)

CYLINDER_WIDTH_TOL = 1e-13
EMPTY_WIDTH_TOL = 1e-15
MAX_POWERS = 60
POLISH_STEPS = 200


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

    def expansion_rate(self) -> float:
        """|Df^n(p)|^(1/n)."""
        return math.exp(self.exponent_log_abs / self.period)

    def is_interior(self, m: UnimodalMap, slack: float = 1e-9) -> bool:
        l, r = m.domain
        return all(l + slack < x < r - slack for x in self.points)


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
    """Binary Lyndon words of length <= max_len (Duval's algorithm).

    These are exactly the lexicographically-least rotations of irreducible
    necklaces, so each periodic orbit is attempted once.
    """
    w = [-1]
    while w:
        w[-1] += 1
        yield SymbolWord(tuple(w))
        m = len(w)
        while len(w) < max_len:
            w.append(w[len(w) - m])
        while w and w[-1] == 1:
            w.pop()


def _word_pullback(m: UnimodalMap, word: SymbolWord, interval):
    """Preimage of an interval through the monotone branch path of word."""
    J = interval
    for sym in reversed(word.symbols):
        J = branch_preimage(m, LEFT if sym == SYM_0 else RIGHT, J)
        if J is None:
            return None
    return J


def _fm(m: UnimodalMap, x: float, period: int) -> float:
    for _ in range(period):
        x = evaluate(m, x)
    return x


def _bracket_scan(g, lo, hi, points=65):
    """A sign-change bracket inside [lo, hi], preferring the middle."""
    xs = np.linspace(lo, hi, points)
    vals = [g(float(x)) for x in xs]
    mid = (points - 1) // 2
    best = None
    for i in range(points - 1):
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
    """Bisection-safeguarded secant on f^m(x) - x inside [lo, hi].

    Df^m can be huge along expanding orbits, so every secant step is kept
    inside the current bracket and falls back to bisection.  For cylinders
    near the roundoff scale the root can land just outside the computed
    interval; the bracket is then widened in guarded steps (the itinerary
    validation downstream rejects any neighboring orbit this might grab).

    Returns (root, widened_flag).
    """
    def g(x):
        return _fm(m, x, period) - x

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


def find_periodic(m: UnimodalMap, word: SymbolWord, *,
                  width_tol: float = CYLINDER_WIDTH_TOL,
                  max_powers: int = MAX_POWERS) -> PeriodicOrbit:
    """Locate the periodic orbit with itinerary word^inf.

    Nested cylinders I_{word^k} are pulled back until their width drops
    below width_tol (or the widths stall, which happens around attracting
    orbits), then the root of f^m(x) - x is polished inside the final
    cylinder.  EmptyCylinder signals that no such orbit exists for this
    map, which is a legal outcome.
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
    for _ in range(1, max_powers):
        if prev_width < width_tol:
            break
        J_next = _word_pullback(m, word, J)
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
    pts = [p]
    for _ in range(period - 1):
        pts.append(evaluate(m, pts[-1]))
    residual = abs(_fm(m, p, period) - p)
    scale = max(1.0, abs(p))
    if residual > 1e-9 * scale:
        raise NonContraction(f"root polish left residual {residual}")
    check = itinerary(m, p, 2 * period)
    if check.symbols != word.symbols * 2:
        if widened:
            raise NonContraction(
                f"widened polish landed on a neighboring orbit ({check})")
        raise EmptyCylinder(
            f"polished point has itinerary {check}, not {word}^2: orbit absent")
    sign = 1
    log_abs = 0.0
    for x in pts:
        d = m.raw_derivative(x)
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


def _enumerate_worker(args):
    family, parameter, texts = args
    return _find_each(make_map(family, parameter), texts)


def enumerate_periodic(m: UnimodalMap, max_period: int,
                       workers: int = 1) -> EnumerationResult:
    """Attempt find_periodic for every irreducible necklace representative
    of length <= max_period; failures are recorded per word, not raised.

    Word searches are independent and pure; with workers > 1 they run in a
    process pool (built-in families only) and merge in word order.
    """
    if max_period > 20:
        raise ValueError("max_period <= 20 required")
    words = [str(w) for w in lyndon_words(max_period)]
    if workers > 1 and m.family_tag != "custom":
        from concurrent.futures import ProcessPoolExecutor
        shards = [(m.family_tag, m.parameter, words[i::workers])
                  for i in range(workers)]
        with ProcessPoolExecutor(max_workers=workers) as pool:
            by_word = {text: (orbit, err)
                       for shard in pool.map(_enumerate_worker, shards)
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


def exponent_from_formula(pattern: SymbolWord, stream: SymbolStream,
                          prefix_length: int,
                          k_range: tuple[int, int] = (2, 6)) -> float:
    value, _ = formula_exponent_estimate(pattern, stream, prefix_length, k_range)
    return value


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

    def __init__(self, orbits, max_period: int, weight_tag: str = "|Df|^-1"):
        if weight_tag != "|Df|^-1":
            raise ValueError("only the |Df|^-1 weight is built in")
        self.max_period = max_period
        self.weight_tag = weight_tag
        self.orbit_table: dict[int, list[tuple[str, float]]] = {}
        for orb in orbits:
            if orb.period > max_period:
                continue
            self.orbit_table.setdefault(orb.period, []).append(
                (str(orb.word), orb.exponent_log_abs))
        self.value_at: dict[complex, ZetaEvaluation] = {}

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
        if z in self.value_at:
            return self.value_at[z]
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
        value = _safe_exp(log_sum)
        evaluation = ZetaEvaluation(
            value=value,
            inner_tail_bound=inner_tail,
            outer_tail_log_estimate=outer,
            value_tail_completed=value * math.exp(outer) if isinstance(value, float) else value,
            min_expansion_rate=lam_min,
        )
        self.value_at[z] = evaluation
        return evaluation


def _safe_exp(v):
    if isinstance(v, complex):
        import cmath
        return cmath.exp(v)
    return math.exp(v)


def zeta_truncation(orbits, max_period: int, z) -> float:
    """Truncated double-sum value (complete orbit list up to max_period)."""
    return ZetaTruncation(orbits, max_period).evaluate(z).value
