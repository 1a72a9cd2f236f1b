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

import itertools
import math
from dataclasses import dataclass, field
from typing import Iterable, Optional

import numpy as np

from .errors import ContainsCriticalSymbol, InsufficientOccurrences, PrefixTooShort
from .maps import (LEFT, RIGHT, UnimodalMap, branch_preimage, check_start,
                   orbit_array, orbit_chunks)

SYM_0 = 0
SYM_1 = 1
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

    @classmethod
    def from_bits(cls, bits: Iterable[int]) -> "SymbolWord":
        syms = tuple(int(b) for b in bits)
        if any(b not in (0, 1) for b in syms):
            raise ValueError("bits must be 0 or 1")
        return cls(syms)

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

    def repeat(self, k: int) -> "SymbolWord":
        return SymbolWord(self.symbols * k)

    def rotations(self):
        s = self.symbols
        return [SymbolWord(s[i:] + s[:i]) for i in range(len(s))]

    def min_rotation(self) -> "SymbolWord":
        return min(self.rotations(), key=lambda w: w.symbols)

    def to_int8(self) -> np.ndarray:
        return np.array(self.symbols, dtype=np.int8)


def _symbols(m: UnimodalMap, points: np.ndarray) -> np.ndarray:
    """The symbol of each orbit point as int8: 0 left of c, 1 right of c,
    SYM_C within the map's tie tolerance of c."""
    c = m.critical_point
    sym = (points > c).astype(np.int8)
    sym[np.abs(points - c) <= m.tie_tolerance] = SYM_C
    return sym


class SymbolStream:
    """Single-consumer stateful symbol generator.

    Symbols already produced are immutable; recreating a stream with the
    same map, start point and precision reproduces them.
    """

    def __init__(self, generator, produced_count: int = 0):
        self._gen = generator
        self.produced_count = produced_count

    def take(self, n: int) -> np.ndarray:
        """The next n symbols as an int8 array."""
        out = np.empty(n, dtype=np.int8)
        pos = 0
        for block in self._gen:
            k = min(len(block), n - pos)
            out[pos:pos + k] = block[:k]
            pos += k
            if pos == n:
                leftover = block[k:].copy()  # chunk buffers may be reused
                if len(leftover):
                    self._gen = itertools.chain([leftover], self._gen)
                break
        if pos < n:
            raise PrefixTooShort(f"stream exhausted after {pos} of {n} symbols")
        self.produced_count += n
        return out

    # constructors -----------------------------------------------------

    @classmethod
    def from_point(cls, m: UnimodalMap, x0: float, burn_in: int = 0) -> "SymbolStream":
        x0 = check_start(m, x0)

        def gen():
            for buf in orbit_chunks(m, x0, 1 << 62, burn_in=burn_in):
                yield _symbols(m, buf)
        return cls(gen())

    @classmethod
    def kneading(cls, m: UnimodalMap) -> "SymbolStream":
        return cls.from_point(m, m.critical_point)

    @classmethod
    def typical(cls, m: UnimodalMap, seed, burn_in: int = 1000) -> "SymbolStream":
        """Itinerary of a seeded uniform start point after burn-in.

        Used to substitute a Birkhoff-typical point for the critical point
        when the kneading sequence itself is degenerate.
        """
        rng = np.random.default_rng(seed)
        x0 = float(rng.uniform(*m.domain))
        return cls.from_point(m, x0, burn_in=burn_in)

    @classmethod
    def from_array(cls, symbols: np.ndarray) -> "SymbolStream":
        arr = np.asarray(symbols, dtype=np.int8)
        return cls(iter([arr]))

    @classmethod
    def from_cycle(cls, word: SymbolWord) -> "SymbolStream":
        base = word.to_int8()

        def gen():
            block = np.tile(base, max(1, 65536 // max(len(base), 1)))
            while True:
                yield block
        return cls(gen())


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

    def last_ratio_diagnostic(self) -> tuple[tuple[int, float], ...]:
        """r_hat(alpha^k) / r_hat(alpha^{k-1}) per power: noisier than the
        regression estimate of rho, exposed for inspection only."""
        out = []
        by_k = dict(self.per_power_counts)
        for k in sorted(by_k):
            if k - 1 in by_k and by_k[k - 1] > 0:
                out.append((k, by_k[k] / by_k[k - 1]))
        return tuple(out)


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
    """I_alpha by backward pullback through monotone branches.

    Starts from the full branch domain of the last symbol and repeatedly
    takes the monotone preimage; the result may be empty.
    """
    if word.has_critical:
        raise ContainsCriticalSymbol("cylinder patterns must avoid 'c'")
    if len(word) == 0:
        return CylinderInterval(word, m.domain)
    l, r = m.domain
    c = m.critical_point
    last = word[-1]
    J = (l, c) if last == SYM_0 else (c, r)
    for sym in reversed(word.symbols[:-1]):
        J = branch_preimage(m, LEFT if sym == SYM_0 else RIGHT, J)
        if J is None:
            return CylinderInterval(word, None)
    return CylinderInterval(word, J)


def count_occurrences(pattern: np.ndarray, prefix: np.ndarray) -> int:
    """Overlapping occurrences of pattern fully contained in prefix."""
    L = len(pattern)
    n = len(prefix)
    if L == 0 or L > n:
        return 0
    match = np.ones(n - L + 1, dtype=bool)
    for i in range(L):
        match &= prefix[i:n - L + 1 + i] == pattern[i]
    return int(match.sum())


def _power_counts(pattern: SymbolWord, prefix: np.ndarray, max_power: int):
    base = pattern.to_int8()
    return tuple((k, count_occurrences(np.tile(base, k), prefix))
                 for k in range(1, max_power + 1))


def frequency(pattern: SymbolWord, stream: SymbolStream, prefix_length: int,
              max_power: int = 1) -> FrequencyEstimate:
    """Sliding-window counts of pattern^k (k <= max_power) over one prefix."""
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
    counts = _power_counts(pattern, prefix, max_power)
    return FrequencyEstimate(pattern, prefix_length, counts[0][1],
                             counts[0][1] / prefix_length, counts)


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
    if len(pattern) == 0:
        raise ValueError("pattern must be nonempty")
    if pattern.has_critical:
        raise ContainsCriticalSymbol("frequency patterns must avoid 'c'")
    if prefix_length < len(pattern) * k_max:
        raise PrefixTooShort(
            f"prefix_length {prefix_length} < |pattern|*k_max = {len(pattern) * k_max}")
    prefix = stream.take(prefix_length)
    counts = _power_counts(pattern, prefix, k_max)
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
