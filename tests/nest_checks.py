"""Shared nest-invariant checker used by the unit and acceptance suites."""

import pytest

from kneadlab.nest import nice_on_horizon


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
            y = m.raw(y)
        landing = 0
        while not (nxt.interval[0] < y < nxt.interval[1]):
            y = m.raw(y)
            landing += 1
            assert landing <= nxt.v_n
        assert nxt.v_n == lv.v_n + landing
        # s_n counts visits to int I_n at times in [v_n, v_{n+1})
        x = c
        visits = 0
        for t in range(1, nxt.v_n):
            x = m.raw(x)
            if t >= lv.v_n and lv.interval[0] < x < lv.interval[1]:
                visits += 1
        assert lv.s_n == visits
        assert lv.s_n >= 1 or lv.central_return
    for i, lv in enumerate(levels):
        assert abs((lv.interval[0] - c) + (lv.interval[1] - c)) < 1e-10
        horizon = levels[i + 1].v_n if i + 1 < len(levels) else lv.v_n
        assert nice_on_horizon(m, lv.interval, horizon)
