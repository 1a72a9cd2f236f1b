"""The principal nest: central domains of successive first-return maps
around the critical point, return times, scaling ratios, and the nest
Lyapunov formula.

Level 0 is [-p, p] (in critical-point-centered coordinates) where p is the
orientation reversing fixed point of the return map of the smallest
restrictive interval found by the renormalization pre-search.  Each next
level is the central component of the first-return domain, computed by an
exact monotone pullback of I_n along the critical orbit followed by one
central fold preimage.  Return times v_n count iterates of the base map f
throughout, also for renormalized maps.

Construction is sequential across levels; reports are immutable.
"""

from __future__ import annotations

import math
from contextlib import nullcontext
from dataclasses import dataclass
from typing import Any, Callable, Optional

from . import maps
from .errors import NoReversingFixedPoint, PrecisionExhausted, TooShallow
from .maps import UnimodalMap, mpmath_namespace, orbit_array

WIDTH_FLOOR_DOUBLE = 1e-13
WIDTH_FLOOR_EXTENDED = 1e-18
DEFAULT_RENORM_SEARCH_PERIOD = 32
MAX_DEPTH = 8


@dataclass(frozen=True)
class NestLevel:
    index: int
    interval: tuple[float, float]
    v_n: int
    s_n: Optional[int] = None
    c_n: Optional[float] = None
    central_return: Optional[bool] = None

    @property
    def width(self) -> float:
        return self.interval[1] - self.interval[0]


@dataclass(frozen=True)
class NestReport:
    levels: tuple[NestLevel, ...]
    termination: str  # DepthReached | CriticalNonReturn | PrecisionExhausted
    termination_level: Optional[int]
    termination_detail: str  # the check that ended the nest, and where
    renormalization_period: int
    renorm_search_horizon: int
    extended_precision: bool
    lyapunov_nest_sequence: tuple[float, ...]
    precision_bits: int  # 53 (double) or 120 (extended)
    shadowing_horizon: Optional[int]  # None: the walk stopped before H, or never reached it


# ---------------------------------------------------------------------------
# working precision: one binding per nest
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class _Binding:
    """The arithmetic of one nest: the map's own float functions, or the
    mpmath binding of its family at 120 bits (constants such as sqrt(a)/2
    included; a custom map has none).  Every step of a nest runs inside
    `context`, so the extended nest does not follow mpmath's global
    precision."""

    f: Callable
    inv_left: Callable
    inv_right: Callable
    num: Callable  # the number type: float or mpmath.mpf
    c: Any
    lo: Any
    hi: Any
    width_floor: float
    bisect_stop: float  # the p bisection stops below this width; 0: at the last bit
    bits: int  # significand bits: 53 or 120
    context: Any  # nullcontext() or mpmath.workprec(bits)


def _bind(m: UnimodalMap, extended: bool) -> _Binding:
    if not extended:
        return _Binding(m._f, m._inv_left, m._inv_right, float, m.critical_point,
                        *m.domain, WIDTH_FLOOR_DOUBLE, 1e-14, 53, nullcontext())
    import mpmath as mp
    bits = 120  # > 80-bit significand
    context = mp.workprec(bits)
    with context:
        num = mp.mpf
        f, _, inv_left, inv_right = m.family.bind(mpmath_namespace(), num(m.parameter))
        return _Binding(f, inv_left, inv_right, num, num(m.critical_point),
                        num(m.domain[0]), num(m.domain[1]),
                        WIDTH_FLOOR_EXTENDED, 0.0, bits, context)


# ---------------------------------------------------------------------------
# restrictive intervals (renormalization pre-search)
# ---------------------------------------------------------------------------

def find_restrictive_interval(m: UnimodalMap):
    """Search for the deepest restrictive interval of period
    <= DEFAULT_RENORM_SEARCH_PERIOD.

    Candidate T_0 = [f^{2k}(c), f^k(c)] is tested by exact interval images:
    f^k(T_0) inside T_0, and T_0, ..., T_{k-1} with pairwise disjoint
    interiors (dropped at the first overlap).  Every endpoint is a point
    x_i = f^i(c) of the critical orbit: f maps [x_i, x_j] onto [x_{i+1},
    x_{j+1}], ordered, or onto [min(x_{i+1}, x_{j+1}), x_1] when it contains
    c, so the search reads one (3K + 1)-point orbit array and calls no f.
    Returns (period, cycle_intervals); period 1 means no renormalization
    was detected (T_0 = [f^2(c), f(c)]).  Detecting the smallest
    restrictive interval rigorously is undecidable numerically; this
    finite-horizon search is reported as such.
    """
    c, max_period = m.critical_point, DEFAULT_RENORM_SEARCH_PERIOD
    xs = orbit_array(m, c, 3 * max_period + 1).tolist()
    for k in range(max_period, 0, -1):  # the deepest candidate that holds
        i, j = (2 * k, k) if xs[2 * k] <= xs[k] else (k, 2 * k)
        lo, hi = xs[i], xs[j]
        if hi - lo <= 0.0 or (k > 1 and not lo < c < hi):
            continue
        slack = 1e-9 * (hi - lo) + 1e-14
        cyc = [(lo, hi)]
        for step in range(1, k + 1):  # T_step = [x_i, x_j]
            if xs[i] <= c <= xs[j]:
                i, j = (i + 1 if xs[i + 1] <= xs[j + 1] else j + 1), 1
            elif xs[i + 1] <= xs[j + 1]:
                i, j = i + 1, j + 1
            else:
                i, j = j + 1, i + 1
            t = (xs[i], xs[j])
            if step < k:
                for a in cyc:  # of each ordered pair A <= B, B starts inside A
                    if t[0] < a[1] - slack if a <= t else a[0] < t[1] - slack:
                        break
                else:
                    cyc.append(t)
                    continue
                break  # the first overlap drops the candidate
            if not (t[0] < lo - slack or t[1] > hi + slack):
                return k, cyc
    # not even k = 1 holds (an unsettled critical orbit): the trivial cycle
    return 1, [m.domain]


# ---------------------------------------------------------------------------
# orientation reversing fixed point
# ---------------------------------------------------------------------------

def _reversing_fixed_point(ar: _Binding, m: UnimodalMap, period: int, T):
    """Fixed point p of g = f^period on its orientation reversing branch,
    with Dg(p) <= -1, located by bisection."""
    f, c = ar.f, ar.c
    t_lo, t_hi = ar.num(T[0]), ar.num(T[1])

    def g(x):
        y = x
        for _ in range(period):
            y = f(y)
        return y

    eps = (t_hi - t_lo) * 1e-9
    g_c = g(c)
    # decreasing branch of g sits right of c for a max, left for a min;
    # probe a width/8 step (g is quadratically flat at c, tiny steps
    # underflow the comparison)
    h = (t_hi - t_lo) / 8
    if g(c + h) <= g_c:
        lo, hi = c + eps, t_hi
    else:
        lo, hi = t_lo, c - eps
    glo, ghi = g(lo) - lo, g(hi) - hi
    if glo == 0:
        p = lo
    elif ghi == 0:
        p = hi
    elif glo * ghi > 0:
        raise NoReversingFixedPoint(
            f"no fixed point of f^{period} on the reversing branch")
    else:
        for _ in range(200):
            mid = (lo + hi) / 2
            if mid == lo or mid == hi:
                break
            if (g(mid) - mid > 0) == (glo > 0):
                lo = mid
            else:
                hi = mid
            if abs(hi - lo) < ar.bisect_stop:
                break
        p = (lo + hi) / 2
    dg = 1.0
    y = p
    for _ in range(period):
        dg *= m._df(float(y))
        y = f(y)
    if dg > -1.0 + 1e-9:
        raise NoReversingFixedPoint(
            f"fixed point of f^{period} has Df^{period} = {dg} > -1")
    return p


# ---------------------------------------------------------------------------
# nest construction
# ---------------------------------------------------------------------------

def _critical_orbit(ar: _Binding, m: UnimodalMap, max_iterates: int):
    """Yield x_t = f^t(c), t = 1, 2, ..., in the binding's precision, and
    return (termination, detail, H or None) at the horizon H, an exact
    repeat or max_iterates.  E_1 = 1, E_{t+1} = |Df(x_t)| E_t + 1 is the
    factor by which the roundings made along the orbit can have grown at x_t
    (Hammel, Yorke & Grebogi 1987); past H, the first t with E_t > 2^bits,
    the computed orbit need not shadow any true one.  An orbit that repeats
    a point (checked against the point at the last power of two, as in
    Brent's cycle detection) visits nothing new afterwards."""
    f, df = ar.f, m._df
    limit = 2.0 ** ar.bits
    x, e = f(ar.c), 1.0  # x_1, E_1
    mark, mark_t = x, 1
    for t in range(1, max_iterates + 1):
        if e > limit:
            return ("PrecisionExhausted",
                    f"return time beyond the shadowing horizon at iterate {t}", t)
        if x == mark and t > mark_t:
            # the cycle starts at the first mu with x_mu == x_{mu+period}
            period = t - mark_t
            a = b = f(ar.c)
            for _ in range(period):
                b = f(b)
            mu = 1
            while a != b:
                a, b, mu = f(a), f(b), mu + 1
            what = f"fixed at {float(a)!r}" if period == 1 else f"periodic with period {period}"
            return ("CriticalNonReturn", f"critical orbit {what} from iterate {mu}", None)
        if t == 2 * mark_t:
            mark, mark_t = x, t
        yield x
        e = abs(df(float(x))) * e + 1.0
        x = f(x)
    return ("CriticalNonReturn", f"no return within {max_iterates} iterates", None)


def _pullback_level(ar: _Binding, I, sides):
    """Monotone pullback of I along the critical orbit, then the central
    fold preimage: the next nest level.

    Raises PrecisionExhausted, naming the step, when the pullback cannot
    resolve the level: a side within tie tolerance of c, an interval that
    left the branch range or collapsed to a point (a point stays a point
    under every further inverse), or a level below the width floor.
    """
    top = ar.f(ar.c)  # the shared top of both branch ranges
    # (bottom of the branch range, inverse) for the left and the right side
    branches = ((ar.f(ar.lo), ar.inv_left), (ar.f(ar.hi), ar.inv_right))
    J = I
    steps = len(sides)
    for k, side in enumerate(reversed(sides), 1):
        if side is None:
            raise PrecisionExhausted(
                f"critical-orbit point within tie tolerance of c at pullback step {k} of {steps}")
        bottom, inv = branches[side]
        a, b = max(J[0], bottom), min(J[1], top)
        if a > b:
            raise PrecisionExhausted(
                f"pullback interval left the branch range at step {k} of {steps}")
        # the left branch increases, the right one decreases
        J = (inv(a), inv(b)) if side == 0 else (inv(b), inv(a))
        if J[0] == J[1]:
            raise PrecisionExhausted(
                f"pullback interval collapsed to a point at step {k} of {steps}")
    lo, hi = ar.inv_left(J[0]), ar.inv_right(J[0])
    width = float(hi - lo)
    if width < ar.width_floor:
        raise PrecisionExhausted(f"width {width!r} below floor {ar.width_floor!r}")
    return lo, hi


def build_nest(m: UnimodalMap, max_depth: int, max_iterates: int, *,
               extended_precision: bool = False) -> NestReport:
    """Build the principal nest to at most max_depth levels.

    Restrictive intervals of period <= DEFAULT_RENORM_SEARCH_PERIOD are
    searched first; when one is found the nest is built for the renormalized return
    map (v_n still counts base-map iterates) and the report says so.  All
    levels scan one walk of the critical orbit, which stops before the
    shadowing horizon of the working precision; the report gives the
    precision bits, and the horizon when the walk reached it.
    """
    if not 0 <= max_depth <= MAX_DEPTH:
        raise ValueError(f"0 <= max_depth <= {MAX_DEPTH} required")
    if max_iterates < 10 ** 6:
        raise ValueError("max_iterates >= 1e6 required")
    period, cycle = find_restrictive_interval(m)
    ar = _bind(m, extended_precision)
    levels: list[NestLevel] = []
    # (termination, termination_level, detail, shadowing horizon)
    end = ("DepthReached", None, f"max_depth {max_depth} reached", None)
    with ar.context:
        p = _reversing_fixed_point(ar, m, period, cycle[0])
        d = abs(p - ar.c)
        I = (ar.c - d, ar.c + d)
        c, tol = ar.c, ar.num(maps.TIE_TOLERANCE)
        I_prev = (c, c)
        # the newest level, appended once the next scan has counted its s_n
        interval, v, c_n = None, None, None
        walk = _critical_orbit(ar, m, max_iterates)
        sides = []  # the branch side of each walked point, None within tol of c
        x = next(walk)  # x_t, t = len(sides) + 1
        for n in range(max_depth + 1):
            # level n's scan goes on from t = v_{n-1}: every earlier x_t lies
            # outside int I_{n-1}, which contains I_n.  s_prev counts visits
            # to int I_{n-1} at times in [v_{n-1}, v_n); level 0 has none.
            lo, hi = I
            plo, phi = I_prev
            # a point outside int I has |x - c| >= min(c - lo, hi - c) after
            # rounding too, so the tie test can only fire when I is this narrow
            near = c - lo <= tol or hi - c <= tol
            s_prev = 0
            try:
                while not lo < x < hi:
                    if plo < x < phi:
                        s_prev += 1
                    sides.append(None if near and abs(x - c) <= tol else 0 if x < c else 1)
                    x = next(walk)
            except StopIteration as stop:
                termination, detail, horizon = stop.value
                end = (termination, n, detail, horizon)
                break
            if v is not None:
                levels.append(NestLevel(n - 1, interval, v, s_prev, c_n, s_prev == 0))
            interval, v, c_n = (float(lo), float(hi)), len(sides) + 1, None
            if n == max_depth:
                break
            try:
                I_next = _pullback_level(ar, I, sides)
            except PrecisionExhausted as exc:
                end = ("PrecisionExhausted", n + 1, str(exc), None)
                break
            c_n = float((I_next[1] - I_next[0]) / (hi - lo))
            I_prev, I = I, I_next
    if v is not None:
        levels.append(NestLevel(len(levels), interval, v, c_n=c_n))

    termination, term_level, detail, horizon = end
    seq = tuple(2.0 * math.log(b.v_n) / a.v_n for a, b in zip(levels, levels[1:]))
    return NestReport(
        levels=tuple(levels),
        termination=termination,
        termination_level=term_level,
        termination_detail=detail,
        renormalization_period=period,
        renorm_search_horizon=DEFAULT_RENORM_SEARCH_PERIOD,
        extended_precision=extended_precision,
        lyapunov_nest_sequence=seq,
        precision_bits=ar.bits,
        shadowing_horizon=horizon,
    )


def nest_lyapunov(report: NestReport) -> list[float]:
    """The sequence 2 ln(v_{n+1}) / v_n over consecutive levels."""
    if len(report.levels) < 2:
        raise TooShallow("need at least 2 nest levels")
    return list(report.lyapunov_nest_sequence)


def nest_asymptotics(report: NestReport) -> list[dict]:
    """Per-level ratios ln v_{n+1} / ln(1/c_n) and ln s_n / ln(1/c_n).

    The limits of both ratios are 1 for almost every non-regular map;
    finite levels fluctuate, so this is a diagnostic table, not a test.
    Levels with c_n >= 1 are surfaced with a flag rather than dropped.
    """
    if len(report.levels) < 3:
        raise TooShallow("need at least 3 nest levels")
    rows = []
    for a, b in zip(report.levels, report.levels[1:]):
        if a.c_n is None:
            continue
        flagged = a.c_n >= 1.0
        log_inv_c = math.log(1.0 / a.c_n) if not flagged else None
        rows.append({
            "n": a.index,
            "v_next": b.v_n,
            "s_n": a.s_n,
            "c_n": a.c_n,
            "ratio_ln_v": (math.log(b.v_n) / log_inv_c) if log_inv_c else None,
            "ratio_ln_s": (math.log(a.s_n) / log_inv_c)
                          if (log_inv_c and a.s_n and a.s_n > 0) else None,
            "c_n_invariant_violated": flagged,
        })
    return rows
