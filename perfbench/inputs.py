"""Parameter pools and seeded input generation.

The pools in params.json are fixed lists of screened parameters; a run's
seed draws from them, draws words and start points, and orders the
operations.  Regenerate the pools (a quarter of an hour: some extended
nests in the screen take a minute) with

    python3 perfbench/inputs.py --regenerate

which screens seeded uniform draws with the benchmark's own arithmetic and,
for the nest pools, with the cost of the program's own nest scans (so that
the double-precision nests stay cheap and the extended ones stop short of
`max_iterates`).
"""

import argparse
import json
import math
import os
import random
import sys

import oracle

HERE = os.path.dirname(os.path.abspath(__file__))
POOL_PATH = os.path.join(HERE, "params.json")
POOL_SEED = 20031
WINDOWS = {"quadratic": (1.845, 1.99), "logistic": (3.70, 3.98),
           "sine": (3.70, 3.98)}
CHAOTIC_PER_FAMILY = 24
NEST_PER_FAMILY = 12
NEST_EXT_PER_FAMILY = 6
NEST_DOUBLE_SCAN_CAP = 20000   # sum of v_n allowed for a cheap double nest
NEST_EXT_SCAN = (2000, 30000)  # sum of v_n of an extended nest: costly, bounded


def load_pools():
    with open(POOL_PATH) as fh:
        return json.load(fh)


def typical_lyapunov(family, p, n=20000, burn_in=1000, seed=0):
    lo, hi = oracle.domain(family)
    x = random.Random(seed).uniform(lo, hi)
    for _ in range(burn_in):
        x = oracle.f(family, p, x)
    acc = 0.0
    for _ in range(n):
        d = abs(oracle.df(family, p, x))
        if d == 0.0:
            return -math.inf
        acc += math.log(d)
        x = oracle.f(family, p, x)
    return acc / n


def _nest_scan(report, max_iterates):
    """Scan iterates a nest spent: sum of v_n, plus max_iterates when a
    level did not return."""
    total = sum(lv.v_n for lv in report.levels)
    return total + (max_iterates if report.termination == "CriticalNonReturn" else 0)


def regenerate():
    sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
    import kneadlab as kl

    rng = random.Random(POOL_SEED)
    pools = {"chaotic": {}, "nest": {}, "nest_ext": {}}
    for family, (lo, hi) in WINDOWS.items():
        chaotic, nest, ext = [], [], []
        while (len(chaotic) < CHAOTIC_PER_FAMILY or len(nest) < NEST_PER_FAMILY
               or len(ext) < NEST_EXT_PER_FAMILY):
            p = round(rng.uniform(lo, hi), 6)
            if typical_lyapunov(family, p) < 0.2:
                continue
            if len(chaotic) < CHAOTIC_PER_FAMILY:
                chaotic.append(p)
            m = kl.make_map(family, p)
            rep = kl.build_nest(m, 6, 10 ** 6)
            if len(rep.levels) < 3 or _nest_scan(rep, 10 ** 6) > NEST_DOUBLE_SCAN_CAP:
                continue
            if len(nest) < NEST_PER_FAMILY:
                nest.append(p)
            if len(ext) < NEST_EXT_PER_FAMILY:
                erep = kl.build_nest(m, 4, 10 ** 6, extended_precision=True)
                lo_scan, hi_scan = NEST_EXT_SCAN
                if (erep.termination != "CriticalNonReturn" and len(erep.levels) >= 3
                        and lo_scan <= _nest_scan(erep, 10 ** 6) <= hi_scan):
                    ext.append(p)
        pools["chaotic"][family] = sorted(chaotic)
        pools["nest"][family] = sorted(nest)
        pools["nest_ext"][family] = sorted(ext)
    with open(POOL_PATH, "w") as fh:
        json.dump(pools, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(json.dumps(pools, sort_keys=True))


if __name__ == "__main__":
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--regenerate", action="store_true", required=True)
    ap.parse_args()
    regenerate()
