"""Physical-measure estimation, Birkhoff/Lyapunov statistics, and the
gap-regularized density with L^p diagnostics.

The density estimator uses a single long orbit from a seeded uniform start
(ergodicity makes one orbit sufficient; ensembles hide burn-in bias
differently per start point); the seed is recorded in every estimate.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from . import maps
from .errors import (CriticalNonReturn, DegenerateOrbit, PrecisionExhausted,
                     TooManyGaps)
from .maps import (DEFAULT_BURN_IN, LEFT, RIGHT, UnimodalMap,
                   branch_preimage_arrays, check_start, evaluate,
                   log_abs_derivative_array, orbit_chunks, seeded_start)
from .nest import MAX_DEPTH, NestReport, build_nest
from .symbolic import SymbolWord, cylinder

RECURRENCE_WINDOW = 2048
RECURRENCE_MAX_PERIOD = 64
RECURRENCE_PROBE = RECURRENCE_WINDOW + RECURRENCE_MAX_PERIOD  # points probed
GAP_BUDGET = 10 ** 6
# The most histogram bins.  The edges, counts and masses of a pass take 8 MB
# each at the cap; uncapped, 10^11 bins asked numpy for 745 GiB.
MAX_BINS = 10 ** 6
MAX_GENERATION = 30


@dataclass(frozen=True)
class DensityEstimate:
    bin_edges: np.ndarray
    mass_per_bin: np.ndarray
    sample_count: int
    seed: object
    family_tag: str
    parameter: float
    burn_in: int
    cumulative: np.ndarray = field(repr=False, default=None)

    def __post_init__(self):
        cum = np.concatenate([[0.0], np.cumsum(self.mass_per_bin)])
        object.__setattr__(self, "cumulative", cum)

    @property
    def bin_count(self) -> int:
        return len(self.mass_per_bin)

    @property
    def bin_width(self) -> float:
        return float(self.bin_edges[1] - self.bin_edges[0])


@dataclass(frozen=True)
class LyapunovEstimate:
    value: float
    hit_critical: bool
    iterates: int
    fixed_point: Optional[float] = None  # the exact fixed point the orbit falls onto


def _detect_periodic_attractor(m: UnimodalMap, w: np.ndarray):
    """Near-period recurrence probe on the first RECURRENCE_PROBE orbit
    points w; returns (period, cycle) or None.

    A lag p is screened by its first term |w[p] - w[0]| before the whole
    window is compared; a lag that fails the screen has a window error
    at least that large, so the screen rejects only rejected lags.
    """
    tol = 1e-8 * (m.domain[1] - m.domain[0])
    head = w[:RECURRENCE_WINDOW]
    near = np.abs(w[1:RECURRENCE_MAX_PERIOD + 1] - w[0]) < tol
    for p in (np.flatnonzero(near) + 1).tolist():
        if np.max(np.abs(w[p:p + RECURRENCE_WINDOW] - head)) < tol:
            return p, w[:p].copy()
    return None


def _walk(chunks, n: int, df=None, intervals=()):
    """The one loop over the chunks of an n-point orbit walk: it sums
    ln|Df| from df, the |Df| buffer of the walk's Tally (if given), counts
    the visits to each interval (None entries count nothing) and notes the
    first chunk that ends on an exact fixed point of the float map (its
    last two points are equal).

    Returns (the mean of ln|Df|, or None without |Df|; the visit fractions;
    that fixed point, or None).
    """
    sums = []
    counts = [0] * len(intervals)
    fixed = None
    for buf in chunks:
        if fixed is None and len(buf) > 1 and buf[-1] == buf[-2]:
            fixed = float(buf[-1])
        if df is not None:
            sums.append(_birkhoff_sum(df[:len(buf)]))
        for i, iv in enumerate(intervals):
            if iv is not None:
                counts[i] += int(np.count_nonzero((buf >= iv[0]) & (buf <= iv[1])))
    mean = None if df is None else math.fsum(sums) / n
    return mean, [k / n for k in counts], fixed


def _seeded_pass(m: UnimodalMap, n: int, bin_count: int, seed, *,
                 birkhoff: bool = False, intervals=()):
    """One walk of the seeded orbit through orbit_chunks: burn-in, then n
    points, the first RECURRENCE_PROBE of which go to the periodic-attractor
    probe.  The walk takes the histogram and, with birkhoff, |Df| into its
    Tally as it steps, one kernel call per chunk, and _walk reads each chunk.

    Returns (density, LyapunovEstimate or None, visit fractions, the
    probe's (period, cycle) or None).  Raises DegenerateOrbit (with the
    detected cycle) when the probe finds a periodic attractor, unless the
    Birkhoff sum was asked for, which the walk then goes on to take; and
    when the orbit falls onto an exact fixed point with no attractor found.
    """
    if n < 10 ** 5:
        raise ValueError("sample_count >= 1e5 required")
    if bin_count < 1:
        raise ValueError("bin_count >= 1 required")
    if bin_count > MAX_BINS:
        raise ValueError(f"bin_count <= {MAX_BINS} required")
    edges = np.linspace(m.domain[0], m.domain[1], bin_count + 1)
    tally = maps.Tally(m, edges, abs_df=birkhoff)
    chunks = orbit_chunks(m, seeded_start(m, seed), n, burn_in=DEFAULT_BURN_IN,
                          tally=tally)
    first = next(chunks)  # n >= 1e5, so it holds the whole probe
    attractor = _detect_periodic_attractor(m, first)
    if attractor is not None and not birkhoff:
        period, cycle = attractor
        raise DegenerateOrbit(
            f"orbit converges to a periodic attractor of period {period}",
            period=period, cycle=cycle)
    value, visits, fixed = _walk(itertools.chain([first], chunks), n, tally.df, intervals)
    if fixed is not None and attractor is None:
        raise DegenerateOrbit(f"orbit falls onto the fixed point {fixed!r}",
                              period=1, cycle=[fixed])
    # every count is below 2^53, so the float counts and their sum are exact
    hist = tally.counts
    density = DensityEstimate(edges, hist / hist.sum(), n, seed,
                              m.family_tag, m.parameter, DEFAULT_BURN_IN)
    lyap = LyapunovEstimate(value, tally.hit, n, fixed) if birkhoff else None
    return density, lyap, visits, attractor


def estimate_density(m: UnimodalMap, sample_count: int, bin_count: int,
                     seed) -> DensityEstimate:
    """Histogram of one long seeded orbit after DEFAULT_BURN_IN iterates,
    mass normalized.

    Raises DegenerateOrbit (with the detected cycle) when the orbit
    converges to a periodic attractor; the map is then regular-like and a
    spike report, not a histogram, is the meaningful output.
    """
    return _seeded_pass(m, sample_count, bin_count, seed)[0]


def measure_of_intervals(density: DensityEstimate, los, his) -> np.ndarray:
    """mu_hat of each interval [lo, hi], with linear interpolation inside
    partial bins; 0 for an empty interval."""
    e = density.bin_edges
    c = density.cumulative
    lo = np.clip(los, e[0], e[-1])
    hi = np.clip(his, e[0], e[-1])
    return np.maximum(np.interp(hi, e, c) - np.interp(lo, e, c), 0.0)


def _birkhoff_sum(d: np.ndarray) -> float:
    """The sum of ln|Df| over one chunk, from the |Df| values d that the
    walk of orbit_chunks left in its Tally (overwritten by their logs);
    -inf if a log is not finite.  A chunk holds at most maps.CHUNK logs, each
    within +-745, so a sum of finite logs is finite, and a -inf, inf or nan
    log makes the sum non-finite: one test of the sum tests every log.  The
    log and the sum stay in numpy: numpy's float64 log is its own SIMD
    loop, not libm's, and differs from it in the last bit."""
    with np.errstate(divide="ignore", invalid="ignore"):  # -inf + inf is nan
        np.log(d, out=d)
        s = float(np.sum(d))
    return s if math.isfinite(s) else -math.inf


def lyapunov_birkhoff(m: UnimodalMap, x0: float, n: int,
                      burn_in: int = 0) -> LyapunovEstimate:
    """(1/n) sum of ln|Df| along the orbit: math.fsum of the per-chunk sums,
    -inf if a chunk has a non-finite log.  An orbit that falls onto an exact
    fixed point averages its trapped tail in, and fixed_point names it.

    When the orbit comes within tie tolerance of the critical point the
    estimate is still reported, flagged with hit_critical.  A start point
    outside the domain raises OutOfDomain.
    """
    if n < 1:
        raise ValueError("n >= 1 required")
    x0 = check_start(m, x0)
    tally = maps.Tally(m, abs_df=True)
    value, _, fixed = _walk(orbit_chunks(m, x0, n, burn_in=burn_in, tally=tally), n, tally.df)
    return LyapunovEstimate(value, tally.hit, n, fixed)


# ---------------------------------------------------------------------------
# Theorem B: the critical orbit against the physical measure
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TypicalityRow:
    word: str
    interval: Optional[tuple[float, float]]
    average_critical: float
    average_typical: float
    mu_hat: float

    @property
    def discrepancy_critical(self) -> float:
        return abs(self.average_critical - self.mu_hat)


@dataclass(frozen=True)
class TypicalityTable:
    rows: tuple[TypicalityRow, ...]
    iterates: int
    seed: object
    # the exact fixed point the critical orbit falls onto, if any
    critical_fixed_point: Optional[float] = None

    @property
    def max_discrepancy(self) -> float:
        return max((r.discrepancy_critical for r in self.rows), default=0.0)


def verify_critical_typicality(m: UnimodalMap, observables: Sequence[SymbolWord],
                               n: int, seed, bin_count: int = 512) -> TypicalityTable:
    """Cylinder-indicator time averages along the critical orbit vs a
    seeded typical orbit vs the density estimate.

    Misiurewicz-type failures (large critical discrepancy) are the
    interesting output, not an error.
    """
    if n < 10 ** 6:
        raise ValueError("n >= 1e6 required")
    cyls = [cylinder(m, w).interval for w in observables]
    density, _, typ, _ = _seeded_pass(m, n, bin_count, seed, intervals=cyls)
    _, crit, fixed = _walk(orbit_chunks(m, m.critical_point, n), n, intervals=cyls)
    # an empty cylinder (None) measures as the empty interval [0, 0]
    spans = np.array([iv or (0.0, 0.0) for iv in cyls], dtype=float).reshape(-1, 2)
    mu = measure_of_intervals(density, spans[:, 0], spans[:, 1])
    rows = tuple(
        TypicalityRow(str(w), iv, crit[i], typ[i], float(mu[i]))
        for i, (w, iv) in enumerate(zip(observables, cyls)))
    return TypicalityTable(rows, n, seed, fixed)


# ---------------------------------------------------------------------------
# Corollary: Lyapunov exponent of the critical value vs the density integral
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LyapunovEqualityRecord:
    side_critical_value: float
    side_typical: float
    side_integral: float
    difference: float           # side_typical - side_integral
    difference_critical: float  # side_critical_value - side_integral
    hit_critical: bool
    density_degenerate: bool
    singular_bins: tuple[int, ...]
    iterates: int
    seed: object


def _integral_log_deriv(m: UnimodalMap, density: DensityEstimate):
    """sum of mass * ln|Df| over bins; bins near the critical point use the
    analytic average of ln|x - c| scaled by |f''(c)| (midpoint evaluation
    diverges there)."""
    e = density.bin_edges
    centers = 0.5 * (e[:-1] + e[1:])
    logd = log_abs_derivative_array(m, centers)
    mass = density.mass_per_bin
    kappa = m.family.second_derivative_at_critical(m.parameter)
    singular = []
    c = m.critical_point
    w = density.bin_width
    if kappa is not None and math.isfinite(kappa):
        near = np.nonzero(np.abs(centers - c) <= 2.0 * w)[0]

        def phi(t):
            return t * (math.log(abs(t)) - 1.0) if t != 0.0 else 0.0

        logd = logd.copy()
        for i in near:
            u, v = e[i] - c, e[i + 1] - c
            avg_log_dist = (phi(v) - phi(u)) / (v - u)
            logd[i] = math.log(kappa) + avg_log_dist
            singular.append(int(i))
    total = float(np.sum(np.where(mass > 0.0, mass * logd, 0.0)))
    return total, tuple(singular)


def verify_lyapunov_equality(m: UnimodalMap, n: int, seed,
                             bin_count: int = 512) -> LyapunovEqualityRecord:
    """Compare Birkhoff exponents (critical value and seeded typical point)
    with the density-weighted integral of ln|Df|, or at a periodic
    attractor with the exponent of the probe's cycle (density_degenerate).
    A seeded orbit that falls onto an exact fixed point raises
    DegenerateOrbit."""
    if n < 10 ** 6:
        raise ValueError("n >= 1e6 required")
    crit = lyapunov_birkhoff(m, evaluate(m, m.critical_point), n)
    density, typ, _, attractor = _seeded_pass(m, n, bin_count, seed, birkhoff=True)
    if attractor is None:
        integral, singular = _integral_log_deriv(m, density)
    else:
        integral = float(np.mean(log_abs_derivative_array(m, attractor[1])))
        singular = ()
    return LyapunovEqualityRecord(
        side_critical_value=crit.value,
        side_typical=typ.value,
        side_integral=integral,
        difference=typ.value - integral,
        difference_critical=crit.value - integral,
        hit_critical=crit.hit_critical or typ.hit_critical,
        density_degenerate=attractor is not None,
        singular_bins=singular,
        iterates=n,
        seed=seed,
    )


# ---------------------------------------------------------------------------
# Theorem C: gaps of the landing domain and the regularized density
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GapFamily:
    """Connected components of the first-landing domain into I_n, up to a
    generation cap.  Generation g means f^g maps the gap onto I_n; the
    generation-0 gap is I_n itself.  Regularized per-gap densities live in
    RegularizedDensityReport."""

    nest_level: int
    base_interval: tuple[float, float]
    gap_lo: np.ndarray
    gap_hi: np.ndarray
    generations: np.ndarray
    max_generation: int
    family_tag: str
    parameter: float

    def __len__(self):
        return len(self.gap_lo)

    @property
    def widths(self) -> np.ndarray:
        return self.gap_hi - self.gap_lo


def gap_family(m: UnimodalMap, nest_level: int, max_generation: int, *,
               nest_report: Optional[NestReport] = None,
               max_iterates: int = 10 ** 6) -> GapFamily:
    """Enumerate landing-domain components by breadth-first pullback of I_n
    through the two monotone branches, deterministic order, tagged with
    their first-landing iterate count.  Raises TooManyGaps once the gaps of
    all generations so far number more than GAP_BUDGET."""
    if not 0 <= nest_level <= MAX_DEPTH:
        raise ValueError(f"0 <= nest_level <= {MAX_DEPTH} required")
    if not 0 <= max_generation <= MAX_GENERATION:
        raise ValueError(f"0 <= max_generation <= {MAX_GENERATION} required")
    if nest_report is None:
        nest_report = build_nest(m, nest_level, max_iterates)
    if len(nest_report.levels) <= nest_level:
        err = {"CriticalNonReturn": CriticalNonReturn,
               "PrecisionExhausted": PrecisionExhausted}.get(
                   nest_report.termination, CriticalNonReturn)
        raise err(f"nest reached only {len(nest_report.levels)} levels "
                  f"({nest_report.termination}); level {nest_level} unavailable")
    a, b = nest_report.levels[nest_level].interval
    all_lo = [np.array([a])]
    all_hi = [np.array([b])]
    all_gen = [np.array([0])]
    flo, fhi = all_lo[0], all_hi[0]
    total = 1
    for g in range(1, max_generation + 1):
        new_lo = []
        new_hi = []
        for side in (LEFT, RIGHT):
            plo, phi, mask = branch_preimage_arrays(m, side, flo, fhi)
            plo, phi = plo[mask], phi[mask]
            # points inside int I_n have landing time 0.  A preimage lies on
            # one side of c, which int I_n contains, so at most its part left
            # of a or its part right of b is kept
            left, right = plo < a, phi > b
            new_lo.extend([plo[left], np.maximum(plo[right], b)])
            new_hi.extend([np.minimum(phi[left], a), phi[right]])
        flo = np.concatenate(new_lo)
        fhi = np.concatenate(new_hi)
        keep = fhi - flo > 0.0
        flo, fhi = flo[keep], fhi[keep]
        order = np.argsort(flo, kind="stable")
        flo, fhi = flo[order], fhi[order]
        total += len(flo)
        if total > GAP_BUDGET:
            raise TooManyGaps(f"gap budget {GAP_BUDGET} exceeded at generation {g}")
        if len(flo) == 0:
            break
        all_lo.append(flo)
        all_hi.append(fhi)
        all_gen.append(np.full(len(flo), g))
    return GapFamily(nest_level, (a, b),
                     np.concatenate(all_lo), np.concatenate(all_hi),
                     np.concatenate(all_gen), max_generation,
                     m.family_tag, m.parameter)


@dataclass(frozen=True)
class RegularizedDensityReport:
    regularized_density: np.ndarray  # mu_hat(gap) / |gap| per gap
    gap_measures: np.ndarray
    lp_norms: dict
    slope: float
    slope_gap_count: int
    coverage: float
    gaps_below_bin_resolution: int
    uncovered_mass_warning: bool  # coverage < 0.95


def regularized_density_report(gaps: GapFamily, density: DensityEstimate,
                               p_list: Sequence[float]) -> RegularizedDensityReport:
    """Per gap mu_hat/|gap|, L^p norms over covered gaps, and the
    ln mu_hat vs ln|gap| fit slope (the Main-Estimate-style diagnostic).

    Gaps narrower than a histogram bin are under-resolved by construction;
    they are counted and flagged, no correction is applied.  An exponent p
    that is not finite and positive, which has no L^p norm, raises
    ValueError.
    """
    if (gaps.family_tag, gaps.parameter) != (density.family_tag, density.parameter):
        raise ValueError("gaps and density must come from the same map")
    for p in p_list:
        if not (math.isfinite(p) and p > 0.0):
            raise ValueError(f"L^p exponent p = {p!r} must be finite and positive")
    w = gaps.widths
    mu = measure_of_intervals(density, gaps.gap_lo, gaps.gap_hi)
    with np.errstate(divide="ignore", invalid="ignore"):
        reg = np.where(w > 0, mu / w, 0.0)
    norms = {}
    for p in p_list:
        norms[p] = float(np.sum(w * reg ** p) ** (1.0 / p))
    coverage = float(mu.sum())
    pos = (mu > 0) & (w > 0)
    if pos.sum() >= 2:
        x = np.log(w[pos])
        y = np.log(mu[pos])
        xb, yb = x.mean(), y.mean()
        slope = float(np.sum((x - xb) * (y - yb)) / np.sum((x - xb) ** 2))
    else:
        slope = math.nan
    below = int(np.count_nonzero(w < density.bin_width))
    return RegularizedDensityReport(reg, mu, norms, slope, int(pos.sum()),
                                    coverage, below, coverage < 0.95)
