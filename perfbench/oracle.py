"""The benchmark's own arithmetic: map families, kneading admissibility,
closed forms and precision horizons.

Nothing here imports kneadlab.  Every output check compares the program
against these functions or against a property the mathematics guarantees.
Maps are named by (family, parameter) pairs.
"""

import math

import mpmath as mp

LN2 = math.log(2.0)


# ---------------------------------------------------------------------------
# families, written once for a math-like namespace (math or mpmath)
# ---------------------------------------------------------------------------

def domain(family):
    return (-1.0, 1.0) if family == "quadratic" else (0.0, 1.0)


def critical_point(family):
    return 0.0 if family == "quadratic" else 0.5


def f(family, p, x, ns=math):
    if family == "quadratic":
        return (p - 1) - p * x * x
    if family == "logistic":
        return p * x * (1 - x)
    s = ns.sqrt(p) / 2
    u = s * ns.sin(ns.pi * x)
    return 2 / ns.pi * ns.asin(min(1, max(-1, u)))


def df(family, p, x, ns=math):
    if family == "quadratic":
        return -2 * p * x
    if family == "logistic":
        return p * (1 - 2 * x)
    s = ns.sqrt(p) / 2
    u = s * ns.sin(ns.pi * x)
    return 2 * s * ns.cos(ns.pi * x) / ns.sqrt(max(1 - u * u, ns.mpf(1e-300) if ns is mp else 1e-300))


def side(family, x):
    """0 left of c, 1 right of c, 2 at c."""
    c = critical_point(family)
    return 0 if x < c else (1 if x > c else 2)


def fn_iterate(family, p, x, n, ns=math):
    for _ in range(n):
        x = f(family, p, x, ns)
    return x


# ---------------------------------------------------------------------------
# kneading theory
# ---------------------------------------------------------------------------

_RANK = (0, 2, 1)  # symbol code 0, 1, 2(c) -> position in 0 < c < 1


def unimodal_less(a, b):
    """True/False for a < b in the parity-lexicographic order, None if the
    compared prefixes agree."""
    odd = False
    for x, y in zip(a, b):
        if x != y:
            return (_RANK[x] < _RANK[y]) != odd
        odd ^= (x == 1)
    return None


def kneading(family, p, length=160, bits=640):
    """Itinerary of the critical value f(c), from a high-precision orbit."""
    with mp.workprec(bits):
        pp = mp.mpf(p)
        c = mp.mpf(critical_point(family))
        x = f(family, pp, c, mp)
        out = []
        for _ in range(length):
            out.append(0 if x < c else (1 if x > c else 2))
            x = f(family, pp, x, mp)
    return tuple(out)


def admissible(word, knead):
    """Whether the periodic itinerary word^inf is realised: every shift lies
    strictly below the kneading sequence.  None when the comparison does not
    resolve within the kneading prefix."""
    n = len(word)
    reps = len(knead) // n + 1
    for k in range(n):
        shifted = (tuple(word[k:]) + tuple(word[:k])) * reps
        less = unimodal_less(shifted[:len(knead)], knead)
        if less is None:
            return None
        if not less:
            return False
    return True


def lyndon_count(n):
    """Binary necklaces of prime period n: (1/n) sum_{d|n} mu(d) 2^(n/d)."""
    return sum(_mobius(d) * 2 ** (n // d) for d in range(1, n + 1) if n % d == 0) // n


def _mobius(n):
    out, k = 1, 2
    while k * k <= n:
        if n % k == 0:
            n //= k
            if n % k == 0:
                return 0
            out = -out
        k += 1
    return -out if n > 1 else out


def lyndon_words(max_len):
    """Binary Lyndon words up to max_len, by brute force over minimal
    rotations (independent of the program's Duval generator)."""
    out = set()
    for n in range(1, max_len + 1):
        for v in range(2 ** n):
            w = tuple((v >> (n - 1 - i)) & 1 for i in range(n))
            rots = [w[i:] + w[:i] for i in range(n)]
            if w == min(rots) and len(set(rots)) == n:
                out.add(w)
    return out


# ---------------------------------------------------------------------------
# zeta truncation and closed forms
# ---------------------------------------------------------------------------

def zeta_truncated(log_exponents, max_period, z, cap_factor=4):
    """exp(sum_{n<=N} sum_{m: nm<=cap*N} z^{nm}/m |Df^n(p)|^{-m}) over prime
    orbits given as {period: [ln|Df^n(p)|, ...]}."""
    total = 0.0
    cap = cap_factor * max_period
    for n, logs in log_exponents.items():
        for la in logs:
            q = z ** n * math.exp(-la)
            total += sum(q ** m / m for m in range(1, cap // n + 1))
    return math.exp(total)


def chebyshev_log_exponents(max_period):
    """Exact prime-orbit exponents of q_2: 2^n inside, 4 at the boundary."""
    out = {n: [n * LN2] * lyndon_count(n) for n in range(1, max_period + 1)}
    out[1][0] = 2 * LN2
    return out


def chebyshev_zeta(z):
    return (1 - z / 2) / ((1 - z) * (1 - z / 4))


def arcsine_cdf(family, x):
    """Distribution function of the absolutely continuous invariant measure
    of q_2 on [-1, 1] and of f_4 on [0, 1]."""
    if family == "quadratic":
        return 0.5 + math.asin(max(-1.0, min(1.0, x))) / math.pi
    return 2.0 / math.pi * math.asin(math.sqrt(max(0.0, min(1.0, x))))


# ---------------------------------------------------------------------------
# ln|Df| integrated against a histogram
# ---------------------------------------------------------------------------

def log_derivative_integral(family, p, edges, mass, sub=64):
    """sum_i mass_i * (mean of ln|Df| over bin i), the bin mean taken over
    `sub` midpoint sub-samples (ln|x - c| is integrable, so the mean
    converges without special-casing the critical bin)."""
    total = 0.0
    for i, w in enumerate(mass):
        if w <= 0.0:
            continue
        lo, hi = edges[i], edges[i + 1]
        h = (hi - lo) / sub
        acc = 0.0
        for j in range(sub):
            d = abs(df(family, p, lo + (j + 0.5) * h))
            acc += math.log(d) if d > 0.0 else 0.0
        total += w * acc / sub
    return total


# ---------------------------------------------------------------------------
# periodic orbits in high precision
# ---------------------------------------------------------------------------

def polish_periodic(family, p, x0, period, bits=200):
    """Newton on f^n(x) - x from a double-precision seed; returns the
    mpmath root and ln|Df^n| along the high-precision orbit."""
    with mp.workprec(bits):
        pp = mp.mpf(p)
        x = mp.mpf(x0)
        for _ in range(60):
            y, d = x, mp.mpf(1)
            for _ in range(period):
                d *= df(family, pp, y, mp)
                y = f(family, pp, y, mp)
            if d == 1:
                break
            step = (y - x) / (d - 1)
            x -= step
            if abs(step) < mp.mpf(2) ** (-bits + 8):
                break
        la = mp.mpf(0)
        y = x
        for _ in range(period):
            la += mp.log(abs(df(family, pp, y, mp)))
            y = f(family, pp, y, mp)
        return x, float(la)


# ---------------------------------------------------------------------------
# the critical orbit in high precision
# ---------------------------------------------------------------------------

def critical_orbit(family, p, length, bits=420):
    """High-precision critical orbit c, f(c), ..., f^length(c) as mpf."""
    with mp.workprec(bits):
        pp = mp.mpf(p)
        x = mp.mpf(critical_point(family))
        out = [x]
        for _ in range(length):
            x = f(family, pp, x, mp)
            out.append(x)
    return out


# ---------------------------------------------------------------------------
# branch inverses and cylinders in high precision
# ---------------------------------------------------------------------------

def inverse(family, p, side_, y):
    """Preimage of y under the monotone branch on `side_` (mpmath)."""
    if family == "quadratic":
        r = mp.sqrt(max((p - 1 - y) / p, 0))
        return -r if side_ == 0 else r
    if family == "logistic":
        r = mp.sqrt(max(1 - 4 * y / p, 0)) / 2
        return mp.mpf(0.5) - r if side_ == 0 else mp.mpf(0.5) + r
    s = mp.sqrt(p) / 2
    left = mp.asin(max(-1, min(1, mp.sin(mp.pi * y / 2) / s))) / mp.pi
    return left if side_ == 0 else 1 - left


def pullback(family, p, symbols, J):
    """Preimage of the interval J through the branch path `symbols`
    (applied last symbol first), or None when it empties."""
    lo_d, hi_d = (mp.mpf(v) for v in domain(family))
    c = mp.mpf(critical_point(family))
    top = f(family, p, c, mp)
    for s in reversed(symbols):
        bottom = f(family, p, lo_d if s == 0 else hi_d, mp)
        a, b = max(J[0], bottom), min(J[1], top)
        if a > b:
            return None
        J = (inverse(family, p, 0, a), inverse(family, p, 0, b)) if s == 0 else \
            (inverse(family, p, 1, b), inverse(family, p, 1, a))
    return J


def cylinder(family, p, word, bits=160):
    """The points whose itinerary starts with word, as floats, or None."""
    with mp.workprec(bits):
        pp = mp.mpf(p)
        lo_d, hi_d = (mp.mpf(v) for v in domain(family))
        c = mp.mpf(critical_point(family))
        J = (lo_d, c) if word[-1] == 0 else (c, hi_d)
        J = pullback(family, pp, word[:-1], J)
        return None if J is None else (float(J[0]), float(J[1]))


def periodic_exponent(family, p, word, bits=240):
    """(sign, ln|Df^n|) of the periodic orbit with itinerary word^inf, found
    by nested pullback of the domain and a Newton polish; None if absent."""
    with mp.workprec(bits):
        pp = mp.mpf(p)
        J = tuple(mp.mpf(v) for v in domain(family))
        for _ in range(400):
            J = pullback(family, pp, word, J)
            if J is None:
                return None
            if J[1] - J[0] < mp.mpf(2) ** (-bits // 2):
                break
        x, _ = polish_periodic(family, p, (J[0] + J[1]) / 2, len(word), bits)
        sign, la, y = 1, mp.mpf(0), x
        for _ in range(len(word)):
            d = df(family, pp, y, mp)
            sign = -sign if d < 0 else sign
            la += mp.log(abs(d))
            y = f(family, pp, y, mp)
        return sign, float(la)


def f_array(family, p, x):
    """The map on a numpy array (float64)."""
    import numpy as np
    if family == "quadratic":
        return (p - 1.0) - p * x * x
    if family == "logistic":
        return p * x * (1.0 - x)
    s = math.sqrt(p) / 2.0
    return 2.0 / math.pi * np.arcsin(np.clip(s * np.sin(math.pi * x), -1.0, 1.0))


def abs_df_array(family, p, x):
    import numpy as np
    if family == "quadratic":
        return np.abs(2.0 * p * x)
    if family == "logistic":
        return np.abs(p * (1.0 - 2.0 * x))
    s = math.sqrt(p) / 2.0
    u = s * np.sin(math.pi * x)
    return np.abs(2.0 * s * np.cos(math.pi * x) / np.sqrt(np.maximum(1.0 - u * u, 1e-300)))
