"""Unimodal interval maps: built-in families, orbit iteration, derivatives.

Every value here is immutable after construction and every operation is a
pure function of its inputs, so maps and orbit segments can be shared freely
between concurrent workers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .errors import NotSelfMap, OutOfDomain

# Tie tolerance: below this distance to the critical point the branch symbol
# is numerically meaningless.
TIE_TOLERANCE = 1e-14
# Float rounding may overshoot the invariant interval at the critical value.
DOMAIN_SLACK = 1e-12

LEFT = 0
RIGHT = 1


@dataclass(frozen=True)
class UnimodalMap:
    """An interval self-map, strictly increasing left of the critical point
    and strictly decreasing right of it (the critical point is a maximum).

    Built-in families carry closed-form derivatives and branch inverses;
    custom maps fall back to bisection for branch inversion.
    """

    domain: tuple[float, float]
    critical_point: float
    family_tag: str
    parameter: float
    _f: Callable[[float], float]
    _df: Callable[[float], float]
    _inv_left: Optional[Callable[[float], float]] = None
    _inv_right: Optional[Callable[[float], float]] = None
    _second_derivative_at_critical: Optional[float] = None
    tie_tolerance: float = TIE_TOLERANCE
    domain_slack: float = DOMAIN_SLACK

    def __post_init__(self):
        l, r = self.domain
        if not (l < self.critical_point < r):
            raise ValueError("critical point must be interior to the domain")
        _validate_unimodal(self)

    # raw evaluation, no domain checks; used by hot loops
    def raw(self, x: float) -> float:
        return self._f(x)

    def raw_derivative(self, x: float) -> float:
        return self._df(x)

    @property
    def critical_value(self) -> float:
        return self._f(self.critical_point)

    def side_of(self, x: float) -> Optional[int]:
        """LEFT/RIGHT of the critical point, None within tie tolerance."""
        d = x - self.critical_point
        if abs(d) <= self.tie_tolerance:
            return None
        return LEFT if d < 0 else RIGHT


@dataclass(frozen=True)
class OrbitSegment:
    """A finite orbit x0, f(x0), ..., f^n(x0) with the chain-rule log sum.

    log_derivative_sum accumulates ln|Df| over the first n points (all but
    the last), i.e. ln|Df^n(x0)|; it is -inf when the orbit hits the
    critical point within tie tolerance.
    """

    points: np.ndarray
    log_derivative_sum: float
    hit_critical: bool

    def __len__(self):
        return len(self.points)


def _validate_unimodal(m: UnimodalMap, samples: int = 33) -> None:
    l, r = m.domain
    slack = m.domain_slack
    for x in (l, r):
        y = m._f(x)
        if y < l - slack or y > r + slack:
            raise ValueError(f"not a self-map: f({x}) = {y} leaves [{l}, {r}]")
    if abs(m._df(m.critical_point)) > 1e-9:
        raise ValueError("derivative at the critical point must vanish")
    c = m.critical_point
    for a, b, sign in ((l, c, 1.0), (c, r, -1.0)):
        xs = np.linspace(a, b, samples)
        ys = np.array([m._f(float(x)) for x in xs])
        if np.any(sign * np.diff(ys) <= 0.0):
            raise ValueError("sampled monotonicity check failed on a branch")


# ---------------------------------------------------------------------------
# built-in families
# ---------------------------------------------------------------------------

def make_quadratic(tau: float) -> UnimodalMap:
    """q_tau(x) = tau - 1 - tau*x^2 on [-1, 1], critical point 0."""
    if not (0.0 < tau <= 2.0):
        raise ValueError("quadratic family requires 0 < tau <= 2")
    tm1 = tau - 1.0

    def f(x):
        return tm1 - tau * x * x

    def df(x):
        return -2.0 * tau * x

    def inv_left(y):
        return -math.sqrt(max((tm1 - y) / tau, 0.0))

    def inv_right(y):
        return math.sqrt(max((tm1 - y) / tau, 0.0))

    return UnimodalMap((-1.0, 1.0), 0.0, "quadratic", tau, f, df,
                       inv_left, inv_right, 2.0 * tau)


def make_logistic(a: float) -> UnimodalMap:
    """f_a(x) = a*x*(1-x) on [0, 1], critical point 1/2."""
    if not (0.0 < a <= 4.0):
        raise ValueError("logistic family requires 0 < a <= 4")

    def f(x):
        return a * x * (1.0 - x)

    def df(x):
        return a * (1.0 - 2.0 * x)

    def inv_left(y):
        return 0.5 * (1.0 - math.sqrt(max(1.0 - 4.0 * y / a, 0.0)))

    def inv_right(y):
        return 0.5 * (1.0 + math.sqrt(max(1.0 - 4.0 * y / a, 0.0)))

    return UnimodalMap((0.0, 1.0), 0.5, "logistic", a, f, df,
                       inv_left, inv_right, 2.0 * a)


def make_sine(a: float) -> UnimodalMap:
    """g_a(x) = (2/pi) asin((sqrt(a)/2) sin(pi x)) on [0, 1], critical 1/2."""
    if not (0.0 < a <= 4.0):
        raise ValueError("sine family requires 0 < a <= 4")
    s = math.sqrt(a) / 2.0

    def f(x):
        return (2.0 / math.pi) * math.asin(min(1.0, max(-1.0, s * math.sin(math.pi * x))))

    def df(x):
        u = s * math.sin(math.pi * x)
        return 2.0 * s * math.cos(math.pi * x) / math.sqrt(max(1.0 - u * u, 1e-300))

    def inv_left(y):
        u = math.sin(0.5 * math.pi * y) / s
        return math.asin(min(1.0, max(-1.0, u))) / math.pi

    def inv_right(y):
        return 1.0 - inv_left(y)

    d2c = math.sqrt(a) * math.pi / math.sqrt(max(1.0 - a / 4.0, 1e-300)) if a < 4.0 else math.inf
    return UnimodalMap((0.0, 1.0), 0.5, "sine", a, f, df,
                       inv_left, inv_right, d2c)


def make_custom(f, df, domain, critical_point, parameter=float("nan")) -> UnimodalMap:
    """Wrap caller-supplied evaluation/derivative callables.

    Branch inverses fall back to bisection.  The unimodal contract (self-map,
    monotone branches, Df(c)=0) is spot-checked at construction.
    """
    return UnimodalMap(tuple(domain), critical_point, "custom", parameter, f, df)


_FAMILIES = {
    "quadratic": make_quadratic,
    "logistic": make_logistic,
    "sine": make_sine,
}


def make_map(family: str, parameter: float) -> UnimodalMap:
    try:
        ctor = _FAMILIES[family]
    except KeyError:
        raise ValueError(f"unknown family {family!r}; choose from {sorted(_FAMILIES)}")
    return ctor(parameter)


def logistic_sine_conjugacy(x):
    """h(x) = (1 - cos(pi x)) / 2, the coordinate change with h o g_a = f_a o h."""
    return (1.0 - np.cos(np.pi * np.asarray(x, dtype=float))) / 2.0


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------

def check_start(m: UnimodalMap, x0: float) -> float:
    """x0 as a float, validated once where a public orbit computation starts.

    A start point that is not finite or lies outside the domain by more than
    the slack raises OutOfDomain; the unchecked hot loops rely on this.
    """
    x = float(x0)
    l, r = m.domain
    if not (math.isfinite(x) and l - m.domain_slack <= x <= r + m.domain_slack):
        raise OutOfDomain(f"start point x0 = {x} outside [{l}, {r}]")
    return x


def evaluate(m: UnimodalMap, x: float) -> float:
    """f(x), clamped to the domain only when the overshoot is below slack."""
    l, r = m.domain
    if x < l - m.domain_slack or x > r + m.domain_slack:
        raise OutOfDomain(f"x = {x} outside [{l}, {r}]")
    y = m._f(min(max(x, l), r))
    if y < l:
        if y < l - m.domain_slack:
            raise NotSelfMap(f"f({x}) = {y} below {l}")
        return l
    if y > r:
        if y > r + m.domain_slack:
            raise NotSelfMap(f"f({x}) = {y} above {r}")
        return r
    return y


def derivative(m: UnimodalMap, x: float) -> float:
    """Df(x) in closed form for built-in families (never finite differences)."""
    l, r = m.domain
    if x < l - m.domain_slack or x > r + m.domain_slack:
        raise OutOfDomain(f"x = {x} outside [{l}, {r}]")
    return m._df(min(max(x, l), r))


def iterate_orbit(m: UnimodalMap, x0: float, n: int) -> OrbitSegment:
    """Orbit segment of length n+1; ln|Df| accumulated over the first n points."""
    if n < 1:
        raise ValueError("n >= 1 required")
    pts = np.empty(n + 1)
    x = x0
    hit = False
    terms = []
    for i in range(n):
        pts[i] = x
        if abs(x - m.critical_point) <= m.tie_tolerance:
            hit = True
        d = abs(m._df(x))
        terms.append(math.log(d) if d > 0.0 else -math.inf)
        x = evaluate(m, x)
    pts[n] = x
    finite = [t for t in terms if t != -math.inf]
    total = math.fsum(finite) if len(finite) == len(terms) else -math.inf
    return OrbitSegment(pts, total, hit)


def orbit_array(m: UnimodalMap, x0: float, n: int, burn_in: int = 0) -> np.ndarray:
    """n orbit points starting at f^burn_in(x0), generated chunk by chunk."""
    out = np.empty(n)
    pos = 0
    for chunk in orbit_chunks(m, x0, n, burn_in=burn_in):
        out[pos:pos + len(chunk)] = chunk
        pos += len(chunk)
    return out


def orbit_chunks(m: UnimodalMap, x0: float, n: int, chunk: int = 1 << 16,
                 burn_in: int = 0):
    """Yield successive numpy buffers of orbit points (no domain checks in
    the hot loop; the self-map invariant is validated at construction and
    start points by check_start at the public entry points).

    Every buffer but the last holds `chunk` points.  The chunk size matters
    for streams only (SymbolStream, the measure passes): it bounds their
    memory, and an open-ended stream computes a whole chunk before its first
    symbol.  Finite requests get exactly n points; itinerary asks
    orbit_array for exactly its length.
    """
    x = float(x0)
    f = m._f
    tag = m.family_tag
    p = m.parameter
    if tag == "quadratic":
        tm1 = p - 1.0
        for _ in range(burn_in):
            x = tm1 - p * x * x
    elif tag == "logistic":
        for _ in range(burn_in):
            x = p * x * (1.0 - x)
    else:
        for _ in range(burn_in):
            x = f(x)
    buf = np.empty(min(chunk, n))
    done = 0
    while done < n:
        k = min(chunk, n - done)
        if tag == "quadratic":
            tm1 = p - 1.0
            for i in range(k):
                buf[i] = x
                x = tm1 - p * x * x
        elif tag == "logistic":
            for i in range(k):
                buf[i] = x
                x = p * x * (1.0 - x)
        else:
            for i in range(k):
                buf[i] = x
                x = f(x)
        done += k
        yield buf[:k]


def log_abs_derivative_array(m: UnimodalMap, xs: np.ndarray) -> np.ndarray:
    """Vectorized ln|Df| over an array of points (-inf at exact zeros)."""
    if m.family_tag == "quadratic":
        d = 2.0 * m.parameter * np.abs(xs - m.critical_point)
    elif m.family_tag == "logistic":
        d = 2.0 * m.parameter * np.abs(xs - m.critical_point)
    elif m.family_tag == "sine":
        s = math.sqrt(m.parameter) / 2.0
        u = s * np.sin(np.pi * xs)
        d = np.abs(2.0 * s * np.cos(np.pi * xs) / np.sqrt(np.maximum(1.0 - u * u, 1e-300)))
    else:
        d = np.abs(np.array([m._df(float(x)) for x in xs]))
    with np.errstate(divide="ignore"):
        return np.log(d)


# ---------------------------------------------------------------------------
# monotone-branch inversion (pullback primitive)
# ---------------------------------------------------------------------------

def branch_range(m: UnimodalMap, side: int) -> tuple[float, float]:
    l, r = m.domain
    if side == LEFT:
        return (m._f(l), m.critical_value)
    return (m._f(r), m.critical_value)


def _bisect_monotone(f, y, lo, hi, increasing, iters=110):
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        v = f(mid)
        if (v < y) == increasing:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def branch_inverse(m: UnimodalMap, side: int, y: float) -> float:
    """Preimage of y under the monotone branch on the given side of c.

    y is clipped to the branch range first.
    """
    rlo, rhi = branch_range(m, side)
    y = min(max(y, rlo), rhi)
    if side == LEFT and m._inv_left is not None:
        x = m._inv_left(y)
        return min(max(x, m.domain[0]), m.critical_point)
    if side == RIGHT and m._inv_right is not None:
        x = m._inv_right(y)
        return min(max(x, m.critical_point), m.domain[1])
    l, r = m.domain
    if side == LEFT:
        return _bisect_monotone(m._f, y, l, m.critical_point, True)
    return _bisect_monotone(m._f, y, m.critical_point, r, False)


def branch_preimage(m: UnimodalMap, side: int, interval) -> Optional[tuple[float, float]]:
    """Preimage of a closed interval under one monotone branch, or None.

    The interval is intersected with the branch range before inversion, so
    the result is always a subinterval of the branch domain.
    """
    lo, hi = interval
    rlo, rhi = branch_range(m, side)
    lo = max(lo, rlo)
    hi = min(hi, rhi)
    if lo > hi:
        return None
    if side == LEFT:
        return (branch_inverse(m, LEFT, lo), branch_inverse(m, LEFT, hi))
    return (branch_inverse(m, RIGHT, hi), branch_inverse(m, RIGHT, lo))


def fold_preimage(m: UnimodalMap, a: float) -> Optional[tuple[float, float]]:
    """The central interval {x : f(x) >= a} around the critical point."""
    if a > m.critical_value:
        return None
    return (branch_inverse(m, LEFT, a), branch_inverse(m, RIGHT, a))


# vectorized branch preimages for the gap pullback (built-in families)

def branch_preimage_arrays(m: UnimodalMap, side, los, his):
    """Vectorized branch_preimage over arrays of interval endpoints.

    Returns (plo, phi, mask): entries where mask is False had empty
    intersection with the branch range.
    """
    rlo, rhi = branch_range(m, side)
    lo = np.maximum(los, rlo)
    hi = np.minimum(his, rhi)
    mask = lo <= hi
    tag, p = m.family_tag, m.parameter
    if tag == "quadratic":
        def inv(y):
            return np.sqrt(np.maximum((p - 1.0 - y) / p, 0.0))
        if side == LEFT:
            return -inv(lo), -inv(hi), mask
        return inv(hi), inv(lo), mask
    if tag == "logistic":
        def inv(y):
            return 0.5 * np.sqrt(np.maximum(1.0 - 4.0 * y / p, 0.0))
        if side == LEFT:
            return 0.5 - inv(lo), 0.5 - inv(hi), mask
        return 0.5 + inv(hi), 0.5 + inv(lo), mask
    if tag == "sine":
        s = math.sqrt(p) / 2.0

        def inv(y):
            return np.arcsin(np.clip(np.sin(0.5 * np.pi * y) / s, -1.0, 1.0)) / np.pi
        if side == LEFT:
            return inv(lo), inv(hi), mask
        return 1.0 - inv(hi), 1.0 - inv(lo), mask
    plo = np.array([branch_inverse(m, side, float(y)) for y in (lo if side == LEFT else hi)])
    phi = np.array([branch_inverse(m, side, float(y)) for y in (hi if side == LEFT else lo)])
    return plo, phi, mask


# ---------------------------------------------------------------------------
# compensated summation
# ---------------------------------------------------------------------------

class KahanAccumulator:
    """Error-tracking (Kahan) summation for long streaming accumulations."""

    __slots__ = ("total", "_comp", "saw_neg_inf")

    def __init__(self):
        self.total = 0.0
        self._comp = 0.0
        self.saw_neg_inf = False

    def add(self, value: float) -> None:
        if value == -math.inf:
            self.saw_neg_inf = True
            return
        y = value - self._comp
        t = self.total + y
        self._comp = (t - self.total) - y
        self.total = t

    @property
    def value(self) -> float:
        return -math.inf if self.saw_neg_inf else self.total
