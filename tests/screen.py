"""The stochasticity screen that picks the "typical parameter" fixtures of
the unit and acceptance suites."""

from dataclasses import dataclass
from typing import Optional

import numpy as np

from kneadlab.maps import (DEFAULT_BURN_IN, UnimodalMap, orbit_array,
                           seeded_start)
from kneadlab.measure import (RECURRENCE_PROBE, _detect_periodic_attractor,
                              lyapunov_birkhoff)

SCREEN_LYAPUNOV_THRESHOLD = 0.05
SCREEN_LYAPUNOV_ITERATES = 10 ** 5
SCREEN_MAX_TRIES = 400


@dataclass(frozen=True)
class ScreenResult:
    accepted: bool
    reason: str
    lyapunov: Optional[float]
    attractor_period: Optional[int]


def stochasticity_screen(m: UnimodalMap, seed) -> ScreenResult:
    """Reject maps with a detected periodic attractor or a small Birkhoff
    exponent.  A heuristic: it cannot certify typicality, only screen the
    obvious regular windows."""
    hit = _detect_periodic_attractor(m, orbit_array(
        m, m.critical_point, RECURRENCE_PROBE, burn_in=5 * DEFAULT_BURN_IN))
    if hit is not None:
        period, cyc = hit
        multiplier = float(np.prod([abs(m._df(float(p))) for p in cyc]))
        if multiplier < 1.0:
            return ScreenResult(False, f"periodic attractor of period {period}",
                                None, period)
        # Misiurewicz-type: the critical orbit landed on a repelling cycle;
        # fall through to the Birkhoff screen
    lam = lyapunov_birkhoff(m, seeded_start(m, seed), SCREEN_LYAPUNOV_ITERATES,
                            burn_in=DEFAULT_BURN_IN)
    if lam.value < SCREEN_LYAPUNOV_THRESHOLD:
        return ScreenResult(False, f"lyapunov {lam.value:.4f} below threshold",
                            lam.value, None)
    return ScreenResult(True, "accepted", lam.value, None)


def screened_parameters(family_ctor, lo: float, hi: float, count: int,
                        seed) -> list[float]:
    """Draw parameters uniformly from (lo, hi) until `count` pass the
    stochasticity screen; deterministic for a fixed seed."""
    rng = np.random.default_rng(seed)
    out: list[float] = []
    tries = 0
    while len(out) < count and tries < SCREEN_MAX_TRIES:
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
