"""Physical-measure estimation, attractor cycles, Birkhoff/Lyapunov
statistics, and the gap-regularized density with L^p diagnostics.

The density estimator uses a single long orbit from a seeded uniform start
(ergodicity makes one orbit sufficient; ensembles hide burn-in bias
differently per start point); the seed is recorded in every estimate.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .errors import (CriticalNonReturn, CycleNotClosed, DegenerateOrbit,
                     PrecisionExhausted, TooManyGaps, UncoveredMass)
from .maps import (LEFT, RIGHT, KahanAccumulator, UnimodalMap,
                   branch_preimage_arrays, check_start, evaluate,
                   log_abs_derivative_array, orbit_chunks)
from .nest import NestReport, _interval_image, build_nest, find_restrictive_interval
from .symbolic import SymbolWord, cylinder

DEFAULT_BURN_IN = 1000
RECURRENCE_WINDOW = 2048
RECURRENCE_MAX_PERIOD = 64
GAP_BUDGET = 10 ** 6


def seeded_start(m: UnimodalMap, seed) -> float:
    """The uniform start point shared by density estimates and typical
    streams built from the same seed."""
    rng = np.random.default_rng(seed)
    return float(rng.uniform(*m.domain))


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
class AttractorCycle:
    period: int
    intervals: tuple[tuple[float, float], ...]

    def contains(self, x: float) -> bool:
        return any(lo <= x <= hi for lo, hi in self.intervals)

    def total_length(self) -> float:
        return sum(hi - lo for lo, hi in self.intervals)


@dataclass(frozen=True)
class LyapunovEstimate:
    value: float
    hit_critical: bool
    iterates: int


def _detect_periodic_attractor(m: UnimodalMap, x: float):
    """Near-period recurrence probe; returns (period, cycle) or None."""
    need = RECURRENCE_WINDOW + RECURRENCE_MAX_PERIOD
    w = np.empty(need)
    f = m._f
    for i in range(need):
        w[i] = x
        x = f(x)
    tol = 1e-8 * (m.domain[1] - m.domain[0])
    for p in range(1, RECURRENCE_MAX_PERIOD + 1):
        err = np.max(np.abs(w[p:p + RECURRENCE_WINDOW] - w[:RECURRENCE_WINDOW]))
        if err < tol:
            return p, w[:p].copy()
    return None


def estimate_density(m: UnimodalMap, sample_count: int, bin_count: int,
                     seed, burn_in: int = DEFAULT_BURN_IN) -> DensityEstimate:
    """Histogram of one long seeded orbit after burn-in, mass normalized.

    Raises DegenerateOrbit (with the detected cycle) when the orbit
    converges to a periodic attractor; the map is then regular-like and a
    spike report, not a histogram, is the meaningful output.
    """
    if sample_count < 10 ** 5:
        raise ValueError("sample_count >= 1e5 required")
    x0 = seeded_start(m, seed)
    x = x0
    f = m._f
    for _ in range(burn_in):
        x = f(x)
    hit = _detect_periodic_attractor(m, x)
    if hit is not None:
        period, cycle = hit
        raise DegenerateOrbit(
            f"orbit converges to a periodic attractor of period {period}",
            period=period, cycle=cycle)
    edges = np.linspace(m.domain[0], m.domain[1], bin_count + 1)
    hist = np.zeros(bin_count)
    for buf in orbit_chunks(m, x, sample_count):
        h, _ = np.histogram(buf, bins=edges)
        hist += h
    mass = hist / hist.sum()
    return DensityEstimate(edges, mass, sample_count, seed,
                           m.family_tag, m.parameter, burn_in)


def measure_of_interval(density: DensityEstimate, interval) -> float:
    """mu_hat of an interval, with linear interpolation inside partial bins."""
    if interval is None:
        return 0.0
    lo, hi = interval
    if hi <= lo:
        return 0.0
    e = density.bin_edges
    lo = max(lo, e[0])
    hi = min(hi, e[-1])
    if hi <= lo:
        return 0.0
    c = density.cumulative
    return float(np.interp(hi, e, c) - np.interp(lo, e, c))


def measure_of_intervals(density: DensityEstimate, los, his) -> np.ndarray:
    e = density.bin_edges
    c = density.cumulative
    lo = np.clip(los, e[0], e[-1])
    hi = np.clip(his, e[0], e[-1])
    return np.maximum(np.interp(hi, e, c) - np.interp(lo, e, c), 0.0)


def attractor_cycle(m: UnimodalMap, horizon: int = 32) -> AttractorCycle:
    """The cycle T_0, ..., T_{k-1} with T_0 = [f^{2k}(0), f^k(0)], k the
    period of the deepest prerenormalization found (1 if none)."""
    k, cycle = find_restrictive_interval(m, horizon)
    if k == 1:
        c = m.critical_point
        f1 = m._f(c)
        f2 = m._f(f1)
        t0 = (min(f1, f2), max(f1, f2))
        img = _interval_image(m, t0)
        slack = 1e-9 * max(t0[1] - t0[0], 1e-30) + 1e-14
        if img[0] < t0[0] - slack or img[1] > t0[1] + slack:
            raise CycleNotClosed(
                f"f(T_0) = {img} is not inside T_0 = {t0}")
        return AttractorCycle(1, (t0,))
    return AttractorCycle(k, tuple(cycle))


def lyapunov_birkhoff(m: UnimodalMap, x0: float, n: int,
                      burn_in: int = 0) -> LyapunovEstimate:
    """(1/n) sum of ln|Df| along the orbit, with compensated summation.

    When the orbit comes within tie tolerance of the critical point the
    estimate is still reported, flagged with hit_critical.  A start point
    outside the domain raises OutOfDomain.
    """
    if n < 1:
        raise ValueError("n >= 1 required")
    x0 = check_start(m, x0)
    acc = KahanAccumulator()
    hit = False
    c = m.critical_point
    tol = m.tie_tolerance
    for buf in orbit_chunks(m, x0, n, burn_in=burn_in):
        if not hit and np.any(np.abs(buf - c) <= tol):
            hit = True
        logs = log_abs_derivative_array(m, buf)
        acc.add(float(np.sum(logs)) if np.all(np.isfinite(logs)) else -math.inf)
    return LyapunovEstimate(acc.value / n, hit, n)


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

    @property
    def discrepancy_typical(self) -> float:
        return abs(self.average_typical - self.mu_hat)


@dataclass(frozen=True)
class TypicalityTable:
    rows: tuple[TypicalityRow, ...]
    iterates: int
    seed: object

    @property
    def max_discrepancy(self) -> float:
        return max((r.discrepancy_critical for r in self.rows), default=0.0)


def _visit_fraction(m: UnimodalMap, x0: float, n: int, intervals,
                    burn_in: int = 0) -> list[float]:
    counts = [0] * len(intervals)
    for buf in orbit_chunks(m, x0, n, burn_in=burn_in):
        for i, iv in enumerate(intervals):
            if iv is None:
                continue
            lo, hi = iv
            counts[i] += int(np.count_nonzero((buf >= lo) & (buf <= hi)))
    return [k / n for k in counts]


def verify_critical_typicality(m: UnimodalMap, observables: Sequence[SymbolWord],
                               n: int, seed) -> TypicalityTable:
    """Cylinder-indicator time averages along the critical orbit vs a
    seeded typical orbit vs the density estimate.

    Misiurewicz-type failures (large critical discrepancy) are the
    interesting output, not an error.
    """
    if n < 10 ** 6:
        raise ValueError("n >= 1e6 required")
    density = estimate_density(m, n, 512, seed)
    cyls = [cylinder(m, w).interval for w in observables]
    crit = _visit_fraction(m, m.critical_point, n, cyls)
    typ = _visit_fraction(m, seeded_start(m, seed), n, cyls,
                          burn_in=density.burn_in)
    rows = tuple(
        TypicalityRow(str(w), iv, crit[i], typ[i],
                      measure_of_interval(density, iv))
        for i, (w, iv) in enumerate(zip(observables, cyls)))
    return TypicalityTable(rows, n, seed)


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
    kappa = m._second_derivative_at_critical
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
    terms = mass * logd
    finite = np.isfinite(terms) | (mass == 0.0)
    total = float(np.sum(np.where(mass > 0.0, terms, 0.0)))
    return total, tuple(singular), bool(np.all(finite))


def verify_lyapunov_equality(m: UnimodalMap, n: int, seed,
                             bin_count: int = 512) -> LyapunovEqualityRecord:
    """Compare Birkhoff exponents (critical value and seeded typical point)
    with the density-weighted integral of ln|Df|."""
    if n < 10 ** 6:
        raise ValueError("n >= 1e6 required")
    crit = lyapunov_birkhoff(m, evaluate(m, m.critical_point), n)
    typ = lyapunov_birkhoff(m, seeded_start(m, seed), n,
                            burn_in=DEFAULT_BURN_IN)
    degenerate = False
    singular: tuple[int, ...] = ()
    try:
        density = estimate_density(m, n, bin_count, seed)
        integral, singular, _ = _integral_log_deriv(m, density)
    except DegenerateOrbit as exc:
        degenerate = True
        logs = log_abs_derivative_array(m, np.asarray(exc.cycle))
        integral = float(np.mean(logs))
    return LyapunovEqualityRecord(
        side_critical_value=crit.value,
        side_typical=typ.value,
        side_integral=integral,
        difference=typ.value - integral,
        difference_critical=crit.value - integral,
        hit_critical=crit.hit_critical or typ.hit_critical,
        density_degenerate=degenerate,
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
               max_iterates: int = 10 ** 6,
               budget: int = GAP_BUDGET) -> GapFamily:
    """Enumerate landing-domain components by breadth-first pullback of I_n
    through the two monotone branches, deterministic order, tagged with
    their first-landing iterate count."""
    if max_generation > 30:
        raise ValueError("max_generation <= 30 required")
    if nest_report is None:
        nest_report = build_nest(m, min(nest_level, 8), max_iterates)
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
            # points already inside int I_n have landing time 0: keep only
            # the parts outside (gaps never straddle I_n, which contains c)
            left_piece = phi <= a
            right_piece = plo >= b
            cross_l = (~left_piece) & (~right_piece) & (plo < a)
            cross_r = (~left_piece) & (~right_piece) & (phi > b)
            new_lo.extend([plo[left_piece], plo[right_piece],
                           plo[cross_l], np.full(cross_r.sum(), b)])
            new_hi.extend([phi[left_piece], phi[right_piece],
                           np.full(cross_l.sum(), a), phi[cross_r]])
        flo = np.concatenate(new_lo)
        fhi = np.concatenate(new_hi)
        keep = fhi - flo > 0.0
        flo, fhi = flo[keep], fhi[keep]
        order = np.argsort(flo, kind="stable")
        flo, fhi = flo[order], fhi[order]
        total += len(flo)
        if total > budget:
            raise TooManyGaps(f"gap budget {budget} exceeded at generation {g}")
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
    uncovered_mass_warning: bool


def regularized_density_report(gaps: GapFamily, density: DensityEstimate,
                               p_list: Sequence[float]) -> RegularizedDensityReport:
    """Per gap mu_hat/|gap|, L^p norms over covered gaps, and the
    ln mu_hat vs ln|gap| fit slope (the Main-Estimate-style diagnostic).

    Gaps narrower than a histogram bin are under-resolved by construction;
    they are counted and flagged, no correction is applied.
    """
    if (gaps.family_tag, gaps.parameter) != (density.family_tag, density.parameter):
        raise ValueError("gaps and density must come from the same map")
    w = gaps.widths
    mu = measure_of_intervals(density, gaps.gap_lo, gaps.gap_hi)
    with np.errstate(divide="ignore", invalid="ignore"):
        reg = np.where(w > 0, mu / w, 0.0)
    norms = {}
    for p in p_list:
        norms[p] = float(np.sum(w * reg ** p) ** (1.0 / p))
    coverage = float(mu.sum())
    warn = coverage < 0.95
    if warn:
        warnings.warn(
            f"enumerated gaps cover only {coverage:.3f} of the mass",
            UncoveredMass)
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
                                    coverage, below, warn)


# ---------------------------------------------------------------------------
# stochasticity screen for "typical parameter" fixtures
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ScreenResult:
    accepted: bool
    reason: str
    lyapunov: Optional[float]
    attractor_period: Optional[int]


def stochasticity_screen(m: UnimodalMap, seed, *,
                         lyapunov_threshold: float = 0.05,
                         lyapunov_iterates: int = 10 ** 5) -> ScreenResult:
    """Reject maps with a detected periodic attractor or a small Birkhoff
    exponent.  A heuristic: it cannot certify typicality, only screen the
    obvious regular windows."""
    x = m.critical_point
    f = m._f
    for _ in range(5 * DEFAULT_BURN_IN):
        x = f(x)
    hit = _detect_periodic_attractor(m, x)
    if hit is not None:
        period, cyc = hit
        multiplier = float(np.prod([abs(m._df(float(p))) for p in cyc]))
        if multiplier < 1.0:
            return ScreenResult(False, f"periodic attractor of period {period}",
                                None, period)
        # Misiurewicz-type: the critical orbit landed on a repelling cycle;
        # fall through to the Birkhoff screen
    lam = lyapunov_birkhoff(m, seeded_start(m, seed), lyapunov_iterates,
                            burn_in=DEFAULT_BURN_IN)
    if lam.value < lyapunov_threshold:
        return ScreenResult(False, f"lyapunov {lam.value:.4f} below threshold",
                            lam.value, None)
    return ScreenResult(True, "accepted", lam.value, None)


def screened_parameters(family_ctor, lo: float, hi: float, count: int, seed,
                        max_tries: int = 400) -> list[float]:
    """Draw parameters uniformly from (lo, hi) until `count` pass the
    stochasticity screen; deterministic for a fixed seed."""
    rng = np.random.default_rng(seed)
    out: list[float] = []
    tries = 0
    while len(out) < count and tries < max_tries:
        tries += 1
        p = float(rng.uniform(lo, hi))
        try:
            m = family_ctor(p)
        except ValueError:
            continue
        if stochasticity_screen(m, seed).accepted:
            out.append(p)
    if len(out) < count:
        raise RuntimeError(f"only {len(out)} of {count} parameters passed the screen")
    return out
