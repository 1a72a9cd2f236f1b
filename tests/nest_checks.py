"""Shared nest-invariant checker and test-only nest oracles used by the
unit and acceptance suites."""

import pytest

from kneadlab import maps, nest
from kneadlab.errors import PrecisionExhausted
from kneadlab.maps import UnimodalMap


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


# reference loops: the plain critical-orbit scan and the full-length pullback
# that nest._level_scan and nest._pullback_level must agree with ----------

def reference_level_scan(ar, I, I_prev, v_prev, max_iter):
    """Iterate the critical orbit until it enters int I.

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
    for side in reversed(sides):
        if side is None:
            raise PrecisionExhausted(
                "critical-orbit point within tie tolerance of c during pullback")
        a, b = J
        if side == 0:
            a2, b2 = max(a, f_lo), min(b, f_hi)
            if a2 > b2:
                raise PrecisionExhausted("pullback interval left the branch range")
            J = (ar.inv_left(a2), ar.inv_left(b2))
        else:
            a2, b2 = max(a, f_rlo), min(b, f_hi)
            if a2 > b2:
                raise PrecisionExhausted("pullback interval left the branch range")
            J = (ar.inv_right(b2), ar.inv_right(a2))
    a = J[0]
    return (ar.inv_left(a), ar.inv_right(a))
