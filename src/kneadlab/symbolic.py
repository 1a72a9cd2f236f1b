"""Milnor-Thurston symbolic dynamics: itineraries, kneading sequences,
word frequencies, geometric frequencies, cylinder intervals.

Symbols live in {0, c, 1}; streams encode them as int8 (0, 1, and 2 for c).
Kneading sequences follow the indexing theta_k = Theta(f^k(x)) from k = 0,
so they always start with 'c'.  Frequency patterns never contain 'c'.

Occurrence counting is overlapping (sliding positions, not disjoint blocks),
and an occurrence is counted only when the window lies fully inside the
prefix; the infinite-word limit is unaffected (difference O(|alpha|/n)).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import maps
from .errors import ContainsCriticalSymbol, InsufficientOccurrences, PrefixTooShort
from .maps import (CHUNK, DEFAULT_BURN_IN, LEFT, RIGHT, UnimodalMap, check_start,
                   orbit_array, orbit_fill, seeded_start, word_pullback)

# a 0/1 symbol is the side of its branch, so a word is word_pullback's sides
SYM_0 = LEFT
SYM_1 = RIGHT
SYM_C = 2
_CHARS = {SYM_0: "0", SYM_1: "1", SYM_C: "c"}
_CODES = {"0": SYM_0, "1": SYM_1, "c": SYM_C}

# An estimator power is usable only when backed by this many occurrences.
MIN_OCCURRENCES = 50


@dataclass(frozen=True)
class SymbolWord:
    """A finite word over {0, c, 1}."""

    symbols: tuple[int, ...]

    @classmethod
    def from_string(cls, s: str) -> "SymbolWord":
        try:
            return cls(tuple(_CODES[ch] for ch in s))
        except KeyError as e:
            raise ValueError(f"bad symbol {e.args[0]!r}; expected 0, 1 or c")

    def __str__(self):
        return "".join(_CHARS[s] for s in self.symbols)

    def __len__(self):
        return len(self.symbols)

    def __iter__(self):
        return iter(self.symbols)

    def __getitem__(self, i):
        return self.symbols[i]

    @property
    def has_critical(self) -> bool:
        return SYM_C in self.symbols

    def ones(self) -> int:
        return sum(1 for s in self.symbols if s == SYM_1)

    def is_irreducible(self) -> bool:
        """True unless the word is a proper power of a shorter prefix."""
        n = len(self.symbols)
        for d in range(1, n):
            if n % d == 0 and self.symbols == self.symbols[:d] * (n // d):
                return False
        return True

    def to_int8(self) -> np.ndarray:
        return np.array(self.symbols, dtype=np.int8)


def _symbols(m: UnimodalMap, points: np.ndarray) -> np.ndarray:
    """The symbol of each orbit point as int8: 0 left of c, 1 right of c,
    SYM_C within maps.TIE_TOLERANCE of c."""
    c = m.critical_point
    sym = (points > c).astype(np.int8)
    sym[np.abs(points - c) <= maps.TIE_TOLERANCE] = SYM_C
    return sym


class SymbolStream:
    """Single-consumer stateful symbol generator.

    Symbols already produced are immutable; recreating a stream with the
    same map, start point and precision reproduces them.  A stream of an
    orbit walks exactly the points its takes ask for, in chunks of at most
    maps.CHUNK points, and each take resumes from the iterate that the
    last one returned.
    """

    def __init__(self, source):
        self._source = source  # source(n): the next n symbols, fewer at the end

    def take(self, n: int) -> np.ndarray:
        """The next n symbols as an int8 array."""
        out = self._source(n)
        if len(out) < n:
            raise PrefixTooShort(f"stream exhausted after {len(out)} of {n} symbols")
        return out

    # constructors -----------------------------------------------------

    @classmethod
    def from_point(cls, m: UnimodalMap, x0: float, burn_in: int = 0) -> "SymbolStream":
        x = check_start(m, x0)
        fill, arg = orbit_fill(m)

        def walk(n, out=None):
            """Walks n points from x, writing their symbols into out."""
            nonlocal x
            buf = np.empty(min(CHUNK, n))
            for pos in range(0, n, CHUNK):
                k = min(CHUNK, n - pos)
                x = fill(buf[:k], x, arg)
                if out is not None:
                    out[pos:pos + k] = _symbols(m, buf[:k])
            return out

        walk(burn_in)
        return cls(lambda n: walk(n, np.empty(n, dtype=np.int8)))

    @classmethod
    def kneading(cls, m: UnimodalMap) -> "SymbolStream":
        return cls.from_point(m, m.critical_point)

    @classmethod
    def typical(cls, m: UnimodalMap, seed) -> "SymbolStream":
        """Itinerary of the seeded start point after DEFAULT_BURN_IN iterates.

        Used to substitute a Birkhoff-typical point for the critical point
        when the kneading sequence itself is degenerate.
        """
        return cls.from_point(m, seeded_start(m, seed), burn_in=DEFAULT_BURN_IN)

    @classmethod
    def from_array(cls, symbols: np.ndarray) -> "SymbolStream":
        arr = np.asarray(symbols, dtype=np.int8)
        pos = 0

        def source(n):
            nonlocal pos
            out = arr[pos:pos + n].copy()
            pos += len(out)
            return out
        return cls(source)


@dataclass(frozen=True)
class CylinderInterval:
    """I_alpha: the points whose itinerary starts with the word (possibly
    empty, stored as interval=None)."""

    word: SymbolWord
    interval: Optional[tuple[float, float]]

    @property
    def is_empty(self) -> bool:
        return self.interval is None

    @property
    def width(self) -> float:
        return 0.0 if self.interval is None else self.interval[1] - self.interval[0]


@dataclass(frozen=True)
class FrequencyEstimate:
    pattern: SymbolWord
    prefix_length: int
    occurrence_count: int
    r_hat: float
    per_power_counts: tuple[tuple[int, int], ...]


@dataclass(frozen=True)
class GeometricFrequencyEstimate:
    rho_hat: float
    fit_range: tuple[int, int]
    stderr: float
    per_power_log_freq: tuple[tuple[int, float], ...]
    per_power_counts: tuple[tuple[int, int], ...]
    status: str  # ok | shrunk | single_point | zero_frequency


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------

def itinerary(m: UnimodalMap, x0: float, n: int) -> SymbolWord:
    """Symbols of f^k(x0) for k = 0..n-1 (0 left of c, 1 right, c at ties).

    Computes exactly n orbit points; the stream chunk size does not apply.
    The symbols equal SymbolStream.from_point(m, x0).take(n).
    """
    if n < 0:
        raise ValueError("n >= 0 required")
    x0 = check_start(m, x0)
    return SymbolWord(tuple(_symbols(m, orbit_array(m, x0, n)).tolist()))


def kneading_sequence(m: UnimodalMap, n: int) -> SymbolWord:
    if n < 1:
        raise ValueError("n >= 1 required")
    return itinerary(m, m.critical_point, n)


def cylinder(m: UnimodalMap, word: SymbolWord) -> CylinderInterval:
    """I_alpha: the branch domain of the last symbol pulled back through
    the rest of the word; the result may be empty."""
    if word.has_critical:
        raise ContainsCriticalSymbol("cylinder patterns must avoid 'c'")
    if len(word) == 0:
        return CylinderInterval(word, m.domain)
    l, r = m.domain
    c = m.critical_point
    domain = (l, c) if word[-1] == SYM_0 else (c, r)
    return CylinderInterval(word, word_pullback(m, word.symbols[:-1], domain))


def _match_mask(pattern: np.ndarray, prefix: np.ndarray) -> np.ndarray:
    """True at each i where pattern occurs at prefix[i:], in one pass over
    the prefix per symbol; needs 1 <= len(pattern) <= len(prefix)."""
    n = len(prefix) - len(pattern) + 1
    match = np.ones(n, dtype=bool)
    for i, symbol in enumerate(pattern):
        match &= prefix[i:i + n] == symbol
    return match


def count_occurrences(pattern: np.ndarray, prefix: np.ndarray) -> int:
    """Overlapping occurrences of pattern fully contained in prefix."""
    if len(pattern) == 0 or len(pattern) > len(prefix):
        return 0
    return int(_match_mask(pattern, prefix).sum())


def frequency(pattern: SymbolWord, stream: SymbolStream, prefix_length: int,
              max_power: int = 1) -> FrequencyEstimate:
    """Sliding-window counts of pattern^k (k <= max_power) over one prefix,
    all from the match mask of the pattern: pattern^k occurs at i when
    pattern^(k-1) does and pattern occurs at i + (k-1)|pattern|.  After the
    first zero count the rest are zero without counting."""
    if len(pattern) == 0:
        raise ValueError("pattern must be nonempty")
    if pattern.has_critical:
        raise ContainsCriticalSymbol("frequency patterns must avoid 'c'")
    if max_power < 1:
        raise ValueError("max_power >= 1 required")
    if prefix_length < len(pattern) * max_power:
        raise PrefixTooShort(
            f"prefix_length {prefix_length} < |pattern|*max_power = "
            f"{len(pattern) * max_power}")
    prefix = stream.take(prefix_length)
    L = len(pattern)
    alpha = _match_mask(pattern.to_int8(), prefix)
    mask, counts, count = alpha, [], 1
    for k in range(1, max_power + 1):
        if count and k > 1:
            mask = mask[:-L] & alpha[(k - 1) * L:]
        count = count and int(mask.sum())
        counts.append((k, count))
    return FrequencyEstimate(pattern, prefix_length, counts[0][1],
                             counts[0][1] / prefix_length, tuple(counts))


def _ols_slope(ks, ys):
    ks = np.asarray(ks, dtype=float)
    ys = np.asarray(ys, dtype=float)
    kb = ks.mean()
    yb = ys.mean()
    sxx = np.sum((ks - kb) ** 2)
    slope = np.sum((ks - kb) * (ys - yb)) / sxx
    resid = ys - (yb + slope * (ks - kb))
    dof = len(ks) - 2
    stderr = math.sqrt(float(np.sum(resid ** 2)) / dof / sxx) if dof > 0 else 0.0
    return float(slope), stderr


def geometric_frequency(pattern: SymbolWord, stream: SymbolStream,
                        prefix_length: int, k_min: int, k_max: int
                        ) -> GeometricFrequencyEstimate:
    """rho estimated by a log-linear fit of ln r_hat(alpha^k) against k.

    Regression averages finite-sample noise better than the last-ratio
    estimator; powers with fewer than MIN_OCCURRENCES occurrences shrink
    the fit range (reported in fit_range/status).
    """
    if not (1 <= k_min <= k_max):
        raise ValueError("need 1 <= k_min <= k_max")
    counts = frequency(pattern, stream, prefix_length,
                       max_power=k_max).per_power_counts
    by_k = dict(counts)
    if by_k[k_min] == 0:
        return GeometricFrequencyEstimate(0.0, (k_min, k_min), 0.0, (), counts,
                                          "zero_frequency")
    if by_k[k_min] < MIN_OCCURRENCES:
        raise InsufficientOccurrences(
            f"count(alpha^{k_min}) = {by_k[k_min]} < {MIN_OCCURRENCES}")
    k_used = k_min
    for k in range(k_min, k_max + 1):
        if by_k[k] >= MIN_OCCURRENCES:
            k_used = k
        else:
            break
    ks = list(range(k_min, k_used + 1))
    logs = tuple((k, math.log(by_k[k] / prefix_length)) for k in ks)
    if len(ks) == 1:
        rho = (by_k[k_min] / prefix_length) ** (1.0 / k_min)
        return GeometricFrequencyEstimate(min(rho, 1.0), (k_min, k_used), 0.0,
                                          logs, counts, "single_point")
    slope, stderr = _ols_slope(ks, [v for _, v in logs])
    rho = min(math.exp(slope), 1.0)
    status = "ok" if k_used == k_max else "shrunk"
    return GeometricFrequencyEstimate(rho, (k_min, k_used), stderr, logs,
                                      counts, status)
