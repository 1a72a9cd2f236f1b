"""Shared nest-invariant checker and test-only nest and gap oracles used
by the unit and acceptance suites."""

import math

import numpy as np
import pytest

from kneadlab import maps, measure, nest
from kneadlab.errors import PrecisionExhausted, TooManyGaps
from kneadlab.maps import LEFT, RIGHT, UnimodalMap, branch_preimage_arrays

# screened maps whose nests and gap families are compared with the reference
# loops below: (family, parameter, extended precision)
REFERENCE_NESTS = [
    ("quadratic", 1.848322, False), ("quadratic", 1.904616, False),
    ("quadratic", 1.941619, False), ("quadratic", 1.988686, False),
    ("logistic", 3.731428, False), ("logistic", 3.791349, False),
    ("logistic", 3.913485, False), ("logistic", 3.966638, False),
    ("sine", 3.701132, False), ("sine", 3.804052, False),
    ("sine", 3.861791, False), ("sine", 3.94379, False),
    ("quadratic", 1.965229, True), ("logistic", 3.782239, True),
]


def check_nest_invariants(m, rep):
    c = m.critical_point
    levels = rep.levels
    for lv, nxt in zip(levels, levels[1:]):
        assert nxt.interval[0] > lv.interval[0]
        assert nxt.interval[1] < lv.interval[1]
        assert 0.0 < lv.c_n < 1.0
        assert lv.c_n == pytest.approx(nxt.width / lv.width, rel=1e-12)
        # return-time recursion: v_{n+1} - v_n = landing iterate count of
        # R_n(0) into I_{n+1}, an exact integer identity
        y = c
        for _ in range(lv.v_n):
            y = m._f(y)
        landing = 0
        while not (nxt.interval[0] < y < nxt.interval[1]):
            y = m._f(y)
            landing += 1
            assert landing <= nxt.v_n
        assert nxt.v_n == lv.v_n + landing
        # s_n counts visits to int I_n at times in [v_n, v_{n+1})
        x = c
        visits = 0
        for t in range(1, nxt.v_n):
            x = m._f(x)
            if t >= lv.v_n and lv.interval[0] < x < lv.interval[1]:
                visits += 1
        assert lv.s_n == visits
        assert lv.s_n >= 1 or lv.central_return
    for i, lv in enumerate(levels):
        assert abs((lv.interval[0] - c) + (lv.interval[1] - c)) < 1e-10
        horizon = levels[i + 1].v_n if i + 1 < len(levels) else lv.v_n
        assert nice_on_horizon(m, lv.interval, horizon)


def nice_on_horizon(m: UnimodalMap, interval, horizon: int,
                    roundoff_factor: float = 128.0) -> bool:
    """Check that the endpoint orbits of a nice interval stay out of its
    interior for `horizon` iterates.

    Boundary orbits are repelling-shadowed, so a computed orbit drifts off
    the true one at the rate of the accumulated derivative product; a
    penetration only counts as a violation when it exceeds the roundoff
    amplified by that product.
    """
    lo, hi = interval
    eps = roundoff_factor * 2.3e-16
    for e in (lo, hi):
        x = e
        amp = 1.0
        for _ in range(horizon):
            amp *= max(1.0, abs(m._df(x)))
            x = m._f(x)
            tol = eps * amp
            if lo + tol < x < hi - tol:
                return False
    return True


def orientation_reversing_fixed_point(m: UnimodalMap) -> float:
    """The fixed point p > c on the decreasing branch with Df(p) <= -1,
    by the nest's own bisection at double precision."""
    return float(nest._reversing_fixed_point(nest._bind(m, False), m, 1, m.domain))


# reference restrictive-interval search: each cycle member is the image of
# the one before under the float f, and the cycle is sorted and checked for
# overlaps once it is complete.  nest.find_restrictive_interval, which reads
# every endpoint off one critical-orbit array, must return the same repr ---

def _interval_image(f, c, top, J):
    """Exact image of an interval under a unimodal f with maximum top at c."""
    a, b = J
    fa, fb = f(a), f(b)
    if a <= c <= b:
        return (min(fa, fb), top)
    return (fa, fb) if fa <= fb else (fb, fa)


def reference_restrictive_interval(m: UnimodalMap):
    """(period, cycle_intervals) of the deepest restrictive interval of
    period <= nest.DEFAULT_RENORM_SEARCH_PERIOD, or (1, [m.domain])."""
    f, c = m._f, m.critical_point
    top = f(c)
    max_period = nest.DEFAULT_RENORM_SEARCH_PERIOD
    xs = maps.orbit_array(m, c, 2 * max_period + 1).tolist()
    best = None
    for k in range(1, max_period + 1):
        lo, hi = sorted((xs[2 * k], xs[k]))
        if hi - lo <= 0.0:
            continue
        if k > 1 and not (lo < c < hi):
            continue
        cyc = [(lo, hi)]
        for _ in range(k):
            cyc.append(_interval_image(f, c, top, cyc[-1]))
        slack = 1e-9 * (hi - lo) + 1e-14
        if cyc[k][0] < lo - slack or cyc[k][1] > hi + slack:
            continue
        ordered = sorted(cyc[:k])
        if all(a2 >= b1 - slack for (_, b1), (a2, _) in zip(ordered, ordered[1:])):
            best = (k, cyc[:k])
    if best is None:
        return 1, [m.domain]
    return best


# test oracle: outward spreading with a constant-return-time probe --------

def spreading_central_domain(m: UnimodalMap, I, v: int, bisections: int = 80):
    """Brute-force oracle for the central domain: spread outward from the
    critical point while the first-return time stays v and the return image
    stays in I.  Independent of the pullback implementation."""
    lo, hi = I

    def good(x):
        y = x
        for t in range(1, v + 1):
            y = m._f(y)
            if t < v and lo < y < hi:
                return False
        return lo <= y <= hi

    c = m.critical_point
    out = []
    for direction, limit in ((-1.0, lo), (1.0, hi)):
        a, b = c, limit
        if not good(c + direction * 1e-15 * max(1.0, abs(c))):
            out.append(c)
            continue
        for _ in range(bisections):
            mid = 0.5 * (a + b)
            if good(mid):
                a = mid
            else:
                b = mid
        out.append(a)
    return (out[0], out[1])


# reference nest: an up-front walk to the shadowing horizon, then one plain
# critical-orbit scan per level restarted at c, and the full-length pullback.
# nest.build_nest, which walks the critical orbit once, must agree with it ----

def reference_horizon_walk(ar, m, max_iterates):
    """How far the level scans may run: walk x_t = f^t(c) with E_1 = 1,
    E_{t+1} = |Df(x_t)| E_t + 1 up to the horizon H, the first t with
    E_t > 2^bits, an exact repeat (Brent's check against the point at the
    last power of two), or max_iterates.

    Returns (horizon, bound, termination, detail): the scans stop after
    `bound` iterates, and a scan that reaches it ends the nest with that
    termination and detail.
    """
    f, df = ar.f, m._df
    limit = 2.0 ** ar.bits
    x, e = f(ar.c), 1.0
    mark, mark_t = x, 1
    for t in range(1, max_iterates + 1):
        if e > limit:
            return (t, t - 1, "PrecisionExhausted",
                    f"return time beyond the shadowing horizon at iterate {t}")
        if x == mark and t > mark_t:
            period = t - mark_t
            a = b = f(ar.c)
            for _ in range(period):
                b = f(b)
            mu = 1
            while a != b:
                a, b, mu = f(a), f(b), mu + 1
            what = f"fixed at {float(a)!r}" if period == 1 else f"periodic with period {period}"
            return (None, mu + period - 1, "CriticalNonReturn",
                    f"critical orbit {what} from iterate {mu}")
        if t == 2 * mark_t:
            mark, mark_t = x, t
        e = abs(df(float(x))) * e + 1.0
        x = f(x)
    return (None, max_iterates, "CriticalNonReturn",
            f"no return within {max_iterates} iterates")


def reference_level_scan(ar, I, I_prev, v_prev, max_iter):
    """Iterate the critical orbit from c until it enters int I.

    Returns (v, sides, s_prev) where sides[j] is the branch side of f^j(c)
    for 1 <= j < v and s_prev counts visits to int I_prev at times in
    [v_prev, v).  v is None when there is no return within max_iter.
    """
    c = ar.c
    lo, hi = I
    plo, phi = (I_prev if I_prev is not None else (None, None))
    x = c
    sides = []
    s_prev = 0
    for t in range(1, max_iter + 1):
        x = ar.f(x)
        if lo < x < hi:
            return t, sides, s_prev
        if I_prev is not None and t >= v_prev and plo < x < phi:
            s_prev += 1
        d = x - c
        if abs(d) <= maps.TIE_TOLERANCE:
            sides.append(None)
        else:
            sides.append(0 if d < 0 else 1)
    return None, sides, s_prev


def reference_pullback_level(ar, I, sides):
    """Monotone pullback of I along the critical orbit, then the central
    fold preimage: the next nest level."""
    lo, hi = I
    f_lo, f_hi = ar.f(ar.lo), ar.f(ar.c)  # left-branch range; shared max
    f_rlo = ar.f(ar.hi)
    J = (lo, hi)
    steps = len(sides)
    for k in range(1, steps + 1):
        side = sides[steps - k]
        if side is None:
            raise PrecisionExhausted(
                f"critical-orbit point within tie tolerance of c at pullback step {k} of {steps}")
        a, b = J
        a2 = max(a, f_lo if side == 0 else f_rlo)
        b2 = min(b, f_hi)
        if a2 > b2:
            raise PrecisionExhausted(
                f"pullback interval left the branch range at step {k} of {steps}")
        if side == 0:
            J = (ar.inv_left(a2), ar.inv_left(b2))
        else:
            J = (ar.inv_right(b2), ar.inv_right(a2))
        if J[0] == J[1]:
            raise PrecisionExhausted(
                f"pullback interval collapsed to a point at step {k} of {steps}")
    a = J[0]
    return (ar.inv_left(a), ar.inv_right(a))


def reference_build_nest(m, max_depth, max_iterates, extended_precision=False):
    """The principal nest as NestReport, built with the reference loops."""
    period, cycle = reference_restrictive_interval(m)
    ar = nest._bind(m, extended_precision)
    levels = []
    termination, term_level = "DepthReached", None
    detail = f"max_depth {max_depth} reached"
    with ar.context:
        p = nest._reversing_fixed_point(ar, m, period, cycle[0])
        d = abs(p - ar.c)
        I = (ar.c - d, ar.c + d)
        horizon, bound, scan_end, scan_detail = reference_horizon_walk(ar, m, max_iterates)
        for n in range(max_depth + 1):
            I_prev = levels[-1]["interval"] if levels else None
            v_prev = levels[-1]["v"] if levels else 0
            v, sides, s_prev = reference_level_scan(ar, I, I_prev, v_prev, bound)
            if v is None:
                termination, term_level, detail = scan_end, n, scan_detail
                break
            if levels:
                levels[-1]["s"] = s_prev
                levels[-1]["central"] = s_prev == 0
            levels.append({"interval": I, "v": v, "s": None, "c_ratio": None,
                           "central": None})
            if n == max_depth:
                break
            try:
                I_next = reference_pullback_level(ar, I, sides)
            except PrecisionExhausted as exc:
                termination, term_level, detail = "PrecisionExhausted", n + 1, str(exc)
                break
            width = float(I_next[1] - I_next[0])
            if width < ar.width_floor:
                termination, term_level = "PrecisionExhausted", n + 1
                detail = f"width {width!r} below floor {ar.width_floor!r}"
                break
            levels[-1]["c_ratio"] = float((I_next[1] - I_next[0]) / (I[1] - I[0]))
            I = I_next
    out = tuple(nest.NestLevel(i, (float(r["interval"][0]), float(r["interval"][1])),
                               r["v"], r["s"], r["c_ratio"], r["central"])
                for i, r in enumerate(levels))
    seq = tuple(2.0 * math.log(b.v_n) / a.v_n for a, b in zip(out, out[1:]))
    return nest.NestReport(out, termination, term_level, detail, period,
                           nest.DEFAULT_RENORM_SEARCH_PERIOD, extended_precision,
                           seq, ar.bits, horizon)


# reference gap family: each preimage split into four masked pieces (wholly
# left of I_n, wholly right, crossing its left end, crossing its right end).
# measure.gap_family, which keeps one piece left of a and one right of b,
# must return the same arrays ---

def reference_gap_family(m: UnimodalMap, nest_report, nest_level: int,
                         max_generation: int):
    """(gap_lo, gap_hi, generations) of the first-landing gaps of level
    nest_level of nest_report, or TooManyGaps past measure.GAP_BUDGET."""
    a, b = nest_report.levels[nest_level].interval
    all_lo, all_hi, all_gen = [np.array([a])], [np.array([b])], [np.array([0])]
    flo, fhi = all_lo[0], all_hi[0]
    total = 1
    for g in range(1, max_generation + 1):
        new_lo, new_hi = [], []
        for side in (LEFT, RIGHT):
            plo, phi, mask = branch_preimage_arrays(m, side, flo, fhi)
            plo, phi = plo[mask], phi[mask]
            left_piece = phi <= a
            right_piece = plo >= b
            cross_l = (~left_piece) & (~right_piece) & (plo < a)
            cross_r = (~left_piece) & (~right_piece) & (phi > b)
            new_lo.extend([plo[left_piece], plo[right_piece],
                           plo[cross_l], np.full(cross_r.sum(), b)])
            new_hi.extend([phi[left_piece], phi[right_piece],
                           np.full(cross_l.sum(), a), phi[cross_r]])
        flo, fhi = np.concatenate(new_lo), np.concatenate(new_hi)
        keep = fhi - flo > 0.0
        flo, fhi = flo[keep], fhi[keep]
        order = np.argsort(flo, kind="stable")
        flo, fhi = flo[order], fhi[order]
        total += len(flo)
        if total > measure.GAP_BUDGET:
            raise TooManyGaps(f"gap budget {measure.GAP_BUDGET} exceeded at generation {g}")
        if len(flo) == 0:
            break
        all_lo.append(flo)
        all_hi.append(fhi)
        all_gen.append(np.full(len(flo), g))
    return np.concatenate(all_lo), np.concatenate(all_hi), np.concatenate(all_gen)
