"""Unimodal interval maps: built-in families, orbit iteration, derivatives.

Every value here but a Tally (one walk's running counts) is immutable after
construction and every operation is a pure function of its inputs, so maps
and orbit segments can be shared freely between concurrent workers.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from types import SimpleNamespace
from typing import Callable, Optional

import numpy as np

from .errors import NotSelfMap, OutOfDomain

# Tie tolerance: below this distance to the critical point the branch symbol
# is numerically meaningless.  Every reader looks it up at call time.
TIE_TOLERANCE = 1e-14
# Float rounding may overshoot the invariant interval at the critical value.
DOMAIN_SLACK = 1e-12
# Iterates discarded before the seeded orbit of a typical point is used.
DEFAULT_BURN_IN = 1000
# Points per orbit_chunks buffer.
CHUNK = 1 << 16
# Points per branch where construction samples a map's monotonicity.
MONOTONE_SAMPLES = 33
# Most steps of a custom map's bisection inverse, which also stops once no
# float lies strictly between the bracket's ends.
BISECT_STEPS = 110

LEFT = 0
RIGHT = 1


@dataclass(frozen=True)
class UnimodalMap:
    """An interval self-map, strictly increasing left of the critical point
    and strictly decreasing right of it (the critical point is a maximum).

    The map is its MapFamily record at one parameter, with the record's
    float functions bound once: closed-form derivatives and branch inverses
    for the built-in families, bisection inverses for a custom map.  A
    built-in map pickles as its family name and parameter.
    """

    family: MapFamily
    parameter: float
    _f: Callable[[float], float]
    _df: Callable[[float], float]
    _inv_left: Callable[[float], float]
    _inv_right: Callable[[float], float]

    def __post_init__(self):
        l, r = self.domain
        if not (l < self.critical_point < r):
            raise ValueError("critical point must be interior to the domain")
        _validate_unimodal(self)

    def __reduce_ex__(self, protocol):
        return (make_map, (self.family_tag, self.parameter))

    domain = property(lambda self: self.family.domain)
    critical_point = property(lambda self: self.family.critical_point)
    family_tag = property(lambda self: self.family.name)
    critical_value = property(lambda self: self._f(self.critical_point))


@dataclass(frozen=True)
class OrbitSegment:
    """A finite orbit x0, f(x0), ..., f^n(x0) with the chain-rule log sum.

    log_derivative_sum accumulates ln|Df| over the first n points (all but
    the last), i.e. ln|Df^n(x0)|; it is -inf when Df vanishes at one of
    them.  hit_critical: one of them lies within TIE_TOLERANCE of c.
    """

    points: np.ndarray
    log_derivative_sum: float
    hit_critical: bool

    def __len__(self):
        return len(self.points)


def _validate_unimodal(m: UnimodalMap) -> None:
    l, r = m.domain
    for x in (l, r):
        y = m._f(x)
        if y < l - DOMAIN_SLACK or y > r + DOMAIN_SLACK:
            raise ValueError(f"not a self-map: f({x}) = {y} leaves [{l}, {r}]")
    # Df(c) is zero up to rounding, and |f''(c)| scales that rounding
    # (known for the families): sine's cos(pi c) is 6e-17, not 0, and as
    # a -> 4 its |f''(c)| grows without bound, to 6e8 with Df(c) = 8e-9 at
    # the top of its range.  So the test asks that the zero of Df lie within
    # about 1e-9 of c.
    scale = max(1.0, m.family.second_derivative_at_critical(m.parameter) or 0.0)
    if abs(m._df(m.critical_point)) > 1e-9 * scale:
        raise ValueError("derivative at the critical point must vanish")
    c = m.critical_point
    for a, b, sign in ((l, c, 1.0), (c, r, -1.0)):
        xs = np.linspace(a, b, MONOTONE_SAMPLES)
        ys = np.array([m._f(float(x)) for x in xs])
        if np.any(sign * np.diff(ys) <= 0.0):
            raise ValueError("sampled monotonicity check failed on a branch")


# ---------------------------------------------------------------------------
# built-in families: each written once, against a namespace of functions
# ---------------------------------------------------------------------------

MATH = SimpleNamespace(num=float, sqrt=math.sqrt, sin=math.sin, cos=math.cos,
                       asin=math.asin, pi=math.pi, minimum=min, maximum=max)
NUMPY = SimpleNamespace(num=float, sqrt=np.sqrt, sin=np.sin, cos=np.cos,
                        asin=np.arcsin, pi=np.pi, minimum=np.minimum,
                        maximum=np.maximum)


def mpmath_namespace() -> SimpleNamespace:
    """The namespace for mpmath numbers; bind and evaluate inside
    mp.workprec.  mpmath is imported on first use."""
    import mpmath as mp
    return SimpleNamespace(num=mp.mpf, sqrt=mp.sqrt, sin=mp.sin, cos=mp.cos,
                           asin=mp.asin, pi=mp.pi, minimum=min, maximum=max)


@dataclass(frozen=True)
class MapFamily:
    """A family f_p on a fixed domain with a fixed critical point: a
    built-in family, or the one-member family of a custom map.

    bind(ns, p) returns (f, Df, left inverse, right inverse), evaluated with
    the functions of ns: MATH for floats (the map's own functions), NUMPY
    for arrays, mpmath_namespace() for the extended-precision nest.  Float
    orbits are walked by orbit_fill(m): the family's compiled walk from
    _kernel.c when that builds, else python_fill over the map's own f.
    """

    name: str
    domain: tuple[float, float]
    critical_point: float
    parameter_range: tuple[float, float]  # lo < p <= hi
    second_derivative_at_critical: Callable  # |f''(c)|, None if unknown
    bind: Callable

    def make(self, p: float) -> UnimodalMap:
        lo, hi = self.parameter_range
        if not (lo < p <= hi):
            raise ValueError(f"{self.name} family requires {lo!r} < parameter <= {hi!r}")
        return UnimodalMap(self, p, *self.bind(MATH, p))


# Speed, measured with Python 3.11 on a 2-vCPU Intel Xeon machine.  Each
# bind copies the namespace functions it uses into local names (the sine f:
# 510 ns against 604 ns with an attribute lookup per call), and takes the
# constants of f and the inverses from ns.num once (a 120-bit logistic f:
# 4.6 us against 9.9 us: mpmath converts a float operand every time).  Per
# point of a 65,536-point buffer, best of 401 calls: the compiled walks 4.6,
# 3.5 and 56 ns (quadratic, logistic, sine: libm's sin and asin), 4.7, 3.8
# and 59 ns with the 512-bin histogram and |Df| taken in the same loop;
# python_fill 100, 91 and 427 ns (a memoryview saves 20 ns against numpy
# item assignment), and its numpy tallies 15-70 ns more.

def _quadratic(ns, tau):
    """q_tau(x) = tau - 1 - tau*x^2 on [-1, 1], critical point 0."""
    sqrt, maximum = ns.sqrt, ns.maximum
    zero, one = ns.num(0), ns.num(1)
    tm1 = tau - one

    def f(x):
        return tm1 - tau * x * x

    def df(x):
        return -2.0 * tau * x

    def inv_left(y):
        return -sqrt(maximum((tm1 - y) / tau, zero))

    def inv_right(y):
        return sqrt(maximum((tm1 - y) / tau, zero))

    return f, df, inv_left, inv_right


def _logistic(ns, a):
    """f_a(x) = a*x*(1-x) on [0, 1], critical point 1/2."""
    sqrt, maximum = ns.sqrt, ns.maximum
    zero, half, one, four = ns.num(0), ns.num(0.5), ns.num(1), ns.num(4)

    def f(x):
        return a * x * (one - x)

    def df(x):
        return a * (1.0 - 2.0 * x)

    def inv_left(y):
        return half * (one - sqrt(maximum(one - four * y / a, zero)))

    def inv_right(y):
        return half * (one + sqrt(maximum(one - four * y / a, zero)))

    return f, df, inv_left, inv_right


def _sine(ns, a):
    """g_a(x) = (2/pi) asin((sqrt(a)/2) sin(pi x)) on [0, 1], critical 1/2."""
    sqrt, sin, cos, asin, pi = ns.sqrt, ns.sin, ns.cos, ns.asin, ns.pi
    minimum, maximum = ns.minimum, ns.maximum
    minus_one, half, one, two = ns.num(-1), ns.num(0.5), ns.num(1), ns.num(2)
    s = sqrt(a) / two
    k = two / pi

    def f(x):
        return k * asin(minimum(one, maximum(minus_one, s * sin(pi * x))))

    def df(x):
        u = s * sin(pi * x)
        return 2.0 * s * cos(pi * x) / sqrt(maximum(1.0 - u * u, 1e-300))

    def inv_left(y):
        return asin(minimum(one, maximum(minus_one, sin(half * pi * y) / s))) / pi

    def inv_right(y):
        return one - inv_left(y)

    return f, df, inv_left, inv_right


def _sine_curvature(a):
    return math.sqrt(a) * math.pi / math.sqrt(1.0 - a / 4.0)


QUADRATIC = MapFamily("quadratic", (-1.0, 1.0), 0.0, (0.0, 2.0),
                      lambda tau: 2.0 * tau, _quadratic)
LOGISTIC = MapFamily("logistic", (0.0, 1.0), 0.5, (0.0, 4.0),
                     lambda a: 2.0 * a, _logistic)
# g_4 is the tent map, which has no smooth critical point: a < 4
SINE = MapFamily("sine", (0.0, 1.0), 0.5, (0.0, math.nextafter(4.0, 0.0)),
                 _sine_curvature, _sine)
FAMILIES = {fam.name: fam for fam in (QUADRATIC, LOGISTIC, SINE)}


def make_quadratic(tau: float) -> UnimodalMap:
    """q_tau(x) = tau - 1 - tau*x^2 on [-1, 1], 0 < tau <= 2."""
    return QUADRATIC.make(tau)


def make_logistic(a: float) -> UnimodalMap:
    """f_a(x) = a*x*(1-x) on [0, 1], 0 < a <= 4."""
    return LOGISTIC.make(a)


def make_sine(a: float) -> UnimodalMap:
    """g_a(x) = (2/pi) asin((sqrt(a)/2) sin(pi x)) on [0, 1], 0 < a < 4."""
    return SINE.make(a)


def make_custom(f, df, domain, critical_point) -> UnimodalMap:
    """Wrap caller-supplied evaluation/derivative callables as the one map,
    at parameter nan, of a "custom" MapFamily record.

    Branch inverses are bisections of f, the numpy binding applies the
    functions element by element, and there is no mpmath binding.  The
    unimodal contract (self-map, monotone branches, Df(c)=0) is
    spot-checked at construction.
    """
    l, r = domain
    c = critical_point
    scalar = (f, df, lambda y: _bisect_monotone(f, y, l, c, True),
              lambda y: _bisect_monotone(f, y, c, r, False))

    def bind(ns, p):
        if ns is MATH:
            return scalar
        if ns is NUMPY:
            return tuple((lambda xs, g=g: np.array([g(float(x)) for x in xs]))
                         for g in scalar)
        raise ValueError("extended precision supports built-in families only")

    nan = float("nan")
    family = MapFamily("custom", (l, r), c, (nan, nan), lambda p: None, bind)
    return UnimodalMap(family, nan, *scalar)


def make_map(family: str, parameter: float) -> UnimodalMap:
    try:
        record = FAMILIES[family]
    except KeyError:
        raise ValueError(f"unknown family {family!r}; choose from {sorted(FAMILIES)}")
    return record.make(parameter)


# ---------------------------------------------------------------------------
# the compiled walks: _kernel.c, built on the first orbit walk
# ---------------------------------------------------------------------------

KERNEL_SOURCE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "_kernel.c")
# -ffp-contract=off: a fused multiply-add would change the bits
KERNEL_FLAGS = ("-O2", "-ffp-contract=off", "-shared", "-fPIC")
_compiled = None  # the kernel's names, once loaded ({} without a kernel)


class Tally:
    """What a walk of orbit_chunks adds up over each chunk as it steps:
    counts, the histogram of the points over edges (when edges is given),
    in float64, exact below 2^53 points; with abs_df, df[:k], |Df| at each
    point of the last k-point chunk, and hit, whether some point lay within
    tol of c.  Burn-in is not tallied.  The compiled walks of _kernel.c read
    and set these attributes by name, and take edges, counts and df only as
    1-d C-contiguous float64 arrays."""

    def __init__(self, m: UnimodalMap, edges=None, abs_df: bool = False):
        self.edges = edges
        self.counts = None if edges is None else np.zeros(len(edges) - 1)
        self.df = np.empty(CHUNK) if abs_df else None
        self.c, self.tol = m.critical_point, TIE_TOLERANCE
        self.hit = False
        self._m, self._numpy_df = m, None  # bound on first use: a compiled walk needs none

    def numpy_add(self, buf: np.ndarray) -> None:
        """Takes the tallies over buf with np.histogram and the NUMPY df:
        the reference of the compiled walk's tallies."""
        if self.counts is not None:
            self.counts += np.histogram(buf, bins=self.edges)[0]
        if self.df is not None:
            if self._numpy_df is None:
                self._numpy_df = self._m.family.bind(NUMPY, self._m.parameter)[1]
            np.abs(self._numpy_df(buf), out=self.df[:len(buf)])
            self.hit = self.hit or bool(np.any(np.abs(buf - self.c) <= self.tol))


def python_fill(buf, x, f, tally: Optional[Tally] = None):
    """Writes x, f(x), f^2(x), ... into buf and returns the next iterate:
    the float orbit walk of a map with no compiled walk, over its own f.
    A tally then takes its tallies over buf with numpy."""
    out = memoryview(buf)
    for i in range(len(out)):
        out[i] = x
        x = f(x)
    if tally is not None:
        tally.numpy_add(buf)
    return x


def orbit_fill(m: UnimodalMap) -> tuple[Callable, object]:
    """(fill, arg), the float orbit walk fill(buf, x, arg, tally=None) of m:
    its family's walk from _kernel.c, the compiled twin of python_fill over
    its float f and of Tally.numpy_add, and its parameter; else, without a
    kernel or for a record that is not the built-in FAMILIES[name] itself,
    python_fill and its f."""
    global _compiled
    if _compiled is None:
        kernel = _load_kernel()
        _compiled = {} if kernel is None else vars(kernel)
    fill = _compiled.get(f"{m.family.name}_walk")
    if fill is None or FAMILIES.get(m.family.name) is not m.family:
        return python_fill, m._f
    return fill, m.parameter


def _compiler() -> list[str]:
    import shlex
    import sysconfig
    cc = sysconfig.get_config_var("CC")
    if not cc:
        raise OSError("this Python names no C compiler")
    return shlex.split(cc)


def _kernel_path(source: bytes, directory: str) -> str:
    """The module built from source, named by a hash of the source, the
    flags and the extension suffix, so an edit never loads a stale build."""
    import hashlib
    import importlib.machinery
    suffix = importlib.machinery.EXTENSION_SUFFIXES[0]
    key = hashlib.sha256(b"\0".join([source, " ".join(KERNEL_FLAGS).encode(),
                                     suffix.encode()])).hexdigest()[:16]
    return os.path.join(directory, f"_kernel.{key}{suffix}")


def _load_kernel():
    """The module compiled from KERNEL_SOURCE, or None when it cannot be
    built or loaded.

    The build goes to the __pycache__ beside the source; a read-only
    package builds into a temporary directory of this process, removed
    once the module is loaded.
    """
    import importlib.machinery
    import importlib.util
    import shutil
    import subprocess
    import tempfile
    scratch = None
    try:
        with open(KERNEL_SOURCE, "rb") as fh:
            source = fh.read()
        cache = os.path.join(os.path.dirname(KERNEL_SOURCE), "__pycache__")
        path = _kernel_path(source, cache)
        if not os.path.exists(path):
            try:
                os.makedirs(cache, exist_ok=True)
            except OSError:
                pass
            if not os.access(cache, os.W_OK):
                scratch = tempfile.mkdtemp(prefix="kneadlab-")
                path = _kernel_path(source, scratch)
            _build_kernel(path)
        loader = importlib.machinery.ExtensionFileLoader("kneadlab._kernel", path)
        module = importlib.util.module_from_spec(
            importlib.util.spec_from_loader(loader.name, loader))
        loader.exec_module(module)
        return module
    except (OSError, ValueError, subprocess.SubprocessError, ImportError):
        return None  # no compiler or headers, a failed build, a failed load
    finally:
        if scratch is not None:
            shutil.rmtree(scratch, ignore_errors=True)


def _build_kernel(path: str) -> None:
    """Compile KERNEL_SOURCE to path under a temporary name that os.replace
    moves into place, so a concurrent build or load never sees half a file."""
    import subprocess
    import sysconfig
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        subprocess.run([*_compiler(), *KERNEL_FLAGS, "-I" + sysconfig.get_paths()["include"],
                        KERNEL_SOURCE, "-o", tmp, "-lm"],
                       stdin=subprocess.DEVNULL, capture_output=True, check=True, timeout=300)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


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
    if not (math.isfinite(x) and l - DOMAIN_SLACK <= x <= r + DOMAIN_SLACK):
        raise OutOfDomain(f"start point x0 = {x} outside [{l}, {r}]")
    return x


def seeded_start(m: UnimodalMap, seed) -> float:
    """The uniform start point shared by density estimates, Birkhoff sums
    and typical streams built from the same seed."""
    rng = np.random.default_rng(seed)
    return float(rng.uniform(*m.domain))


def evaluate(m: UnimodalMap, x: float) -> float:
    """f(x), clamped to the domain only when the overshoot is below slack."""
    l, r = m.domain
    if x < l - DOMAIN_SLACK or x > r + DOMAIN_SLACK:
        raise OutOfDomain(f"x = {x} outside [{l}, {r}]")
    y = m._f(min(max(x, l), r))
    if y < l:
        if y < l - DOMAIN_SLACK:
            raise NotSelfMap(f"f({x}) = {y} below {l}")
        return l
    if y > r:
        if y > r + DOMAIN_SLACK:
            raise NotSelfMap(f"f({x}) = {y} above {r}")
        return r
    return y


def derivative(m: UnimodalMap, x: float) -> float:
    """Df(x) in closed form for built-in families (never finite differences)."""
    l, r = m.domain
    if x < l - DOMAIN_SLACK or x > r + DOMAIN_SLACK:
        raise OutOfDomain(f"x = {x} outside [{l}, {r}]")
    return m._df(min(max(x, l), r))


def iterate_orbit(m: UnimodalMap, x0: float, n: int) -> OrbitSegment:
    """Orbit segment of length n+1; ln|Df| accumulated over the first n points."""
    if n < 1:
        raise ValueError("n >= 1 required")
    pts = orbit_array(m, check_start(m, x0), n + 1)
    head = pts[:n]
    logs = log_abs_derivative_array(m, head)
    total = math.fsum(logs) if np.all(np.isfinite(logs)) else -math.inf
    hit = bool(np.any(np.abs(head - m.critical_point) <= TIE_TOLERANCE))
    return OrbitSegment(pts, total, hit)


def orbit_array(m: UnimodalMap, x0: float, n: int, burn_in: int = 0) -> np.ndarray:
    """n orbit points starting at f^burn_in(x0), generated chunk by chunk."""
    out = np.empty(n)
    pos = 0
    for chunk in orbit_chunks(m, x0, n, burn_in=burn_in):
        out[pos:pos + len(chunk)] = chunk
        pos += len(chunk)
    return out


def orbit_chunks(m: UnimodalMap, x0: float, n: int, burn_in: int = 0, *,
                 tally: Optional[Tally] = None):
    """Yield successive numpy buffers of orbit points (no domain checks in
    the hot loop; the self-map invariant is validated at construction and
    start points by check_start at the public entry points).  A tally
    takes its tallies over each chunk before the chunk is yielded.

    Every buffer but the last holds CHUNK points.  The chunk size matters
    for streams only (SymbolStream, the measure passes): it bounds their
    memory, and an open-ended stream computes a whole chunk before its first
    symbol.  Finite requests get exactly n points; itinerary asks
    orbit_array for exactly its length.  Burn-in runs through the same loop,
    into the buffer that the first chunk then overwrites.
    """
    fill, arg = orbit_fill(m)
    x = float(x0)
    buf = np.empty(min(CHUNK, max(n, burn_in)))
    while burn_in > 0:
        k = min(len(buf), burn_in)
        x = fill(buf[:k], x, arg)
        burn_in -= k
    done = 0
    while done < n:
        k = min(CHUNK, n - done)
        x = fill(buf[:k], x, arg, tally)
        done += k
        yield buf[:k]


def log_abs_derivative_array(m: UnimodalMap, xs: np.ndarray) -> np.ndarray:
    """Vectorized ln|Df| over an array of points (-inf at exact zeros)."""
    d = np.abs(m.family.bind(NUMPY, m.parameter)[1](xs))
    with np.errstate(divide="ignore"):
        return np.log(d)


# ---------------------------------------------------------------------------
# monotone-branch inversion (pullback primitive)
# ---------------------------------------------------------------------------

def branch_range(m: UnimodalMap, side: int) -> tuple[float, float]:
    return (m._f(m.domain[side != LEFT]), m.critical_value)


def _bisect_monotone(f, y, lo, hi, increasing):
    for _ in range(BISECT_STEPS):
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
    if side == LEFT:
        return min(max(m._inv_left(y), m.domain[0]), m.critical_point)
    return min(max(m._inv_right(y), m.critical_point), m.domain[1])


def word_pullback(m: UnimodalMap, sides, interval) -> Optional[tuple[float, float]]:
    """Preimage of a closed interval through the monotone branches of a word
    of sides (LEFT or RIGHT, which are the symbols 0 and 1), the last
    side's branch first; None once it is empty.

    Each step intersects the interval with the branch range, inverts both
    ends and clamps them to the branch domain, so the result is always a
    subinterval of the first side's branch domain.  The map's constants are
    read once per call, so a step costs the two inverse evaluations; the
    comparisons return the floats that max(lo, f(end)), min(hi, f(c)) and
    the min/max clamp of branch_inverse return.  The ends already lie in
    the branch range when they are inverted, so branch_inverse's own clip
    is not repeated.
    """
    l, r = m.domain
    c = m.critical_point
    f = m._f
    top = f(c)
    # (bottom of the branch range, inverse, branch domain) for LEFT, RIGHT
    branches = ((f(l), m._inv_left, l, c), (f(r), m._inv_right, c, r))
    lo, hi = interval
    for side in reversed(sides):
        bottom, inv, dlo, dhi = branches[side != LEFT]
        if bottom > lo:
            lo = bottom
        if top < hi:
            hi = top
        if lo > hi:
            return None
        a = inv(lo)
        if dlo > a:
            a = dlo
        if dhi < a:
            a = dhi
        b = inv(hi)
        if dlo > b:
            b = dlo
        if dhi < b:
            b = dhi
        # the left branch increases, the right one decreases
        lo, hi = (a, b) if side == LEFT else (b, a)
    return lo, hi


def branch_preimage_arrays(m: UnimodalMap, side, los, his):
    """The one-side word_pullback over arrays of interval endpoints, for
    the gap pullback.

    Returns (plo, phi, mask): entries where mask is False had empty
    intersection with the branch range.
    """
    rlo, rhi = branch_range(m, side)
    lo = np.maximum(los, rlo)
    hi = np.minimum(his, rhi)
    mask = lo <= hi
    _, _, inv_left, inv_right = m.family.bind(NUMPY, m.parameter)
    if side == LEFT:
        return inv_left(lo), inv_left(hi), mask
    return inv_right(hi), inv_right(lo), mask
