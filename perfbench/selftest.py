"""Self-test of the output checks: each accepts a real output and rejects
the same output perturbed (an exponent off by 1e-3, a dropped orbit, a
shifted gap endpoint, a wrong return time, moved density mass, a report
that claims a pass with no target).

    python3 perfbench/run.py --self-test

Exits 0 when every check behaves, 1 otherwise.  Kept out of the pytest
collection (the file name does not start with test_).
"""

import dataclasses
import json

import numpy as np

import kneadlab as kl
import oracle
import workloads as W

CHAOTIC = ("logistic", 3.9)


def _cases():
    q2 = kl.make_quadratic(2.0)
    knead_q2 = oracle.kneading("quadratic", 2.0)
    enum = kl.enumerate_periodic(q2, 6)
    orb = next(o for o in enum.orbits if o.period == 5)

    def off(o, d):
        return dataclasses.replace(o, exponent_log_abs=o.exponent_log_abs + d)

    yield ("orbit exponent off by 1e-3 (q_2)",
           lambda o: W.check_orbit("quadratic", 2.0, o, tuple(o.word.symbols)),
           orb, off(orb, 1e-3))
    fam, a = CHAOTIC
    found = kl.find_periodic(kl.make_map(fam, a), kl.SymbolWord.from_string("10"))
    yield ("orbit exponent off by 1e-3 (logistic)",
           lambda o: W.check_orbit(fam, a, o, (1, 0)), found, off(found, 1e-3))
    moved = dataclasses.replace(found, points=(found.points[0] + 1e-6,) + found.points[1:])
    yield ("orbit point moved by 1e-6",
           lambda o: W.check_orbit(fam, a, o, (1, 0)), found, moved)
    dropped = kl.EnumerationResult(enum.orbits[:7] + enum.orbits[8:], enum.failures)
    yield ("dropped orbit (q_2)",
           lambda e: W.check_enumeration("quadratic", 2.0, 6, e, knead_q2), enum, dropped)

    el = kl.enumerate_periodic(kl.make_logistic(a), 5)
    es = kl.enumerate_periodic(kl.make_sine(a), 5)
    pair = W._conjugate_pair_check(a, "l", "s")
    i = next(j for j, o in enumerate(es.orbits) if o.period == 4)
    es_bad = kl.EnumerationResult(
        es.orbits[:i] + [off(es.orbits[i], 1e-3)] + es.orbits[i + 1:], es.failures)
    yield ("sine exponent off by 1e-3 against logistic",
           lambda e: pair(None, {"l": (el, None), "s": (e, None)}), es, es_bad)

    m = kl.make_map(fam, a)
    rep = kl.build_nest(m, 6, 10 ** 6)
    gaps = kl.gap_family(m, 1, 14, nest_report=rep)
    iv = rep.levels[1].interval
    lo = np.array(gaps.gap_lo)
    k = len(lo) // 2
    lo[k] += 1e-6 * (iv[1] - iv[0])
    yield ("shifted gap endpoint",
           lambda g: W.check_gaps(fam, a, iv, g), gaps, dataclasses.replace(gaps, gap_lo=lo))

    levels = list(rep.levels)
    levels[1] = dataclasses.replace(levels[1], v_n=levels[1].v_n + 1)
    yield ("return time off by one",
           lambda r: W.check_nest(fam, a, r, {}), rep,
           dataclasses.replace(rep, levels=tuple(levels)))

    dens = kl.estimate_density(q2, 10 ** 5, 256, 7)
    mass = np.array(dens.mass_per_bin)
    mass[100] += 2e-3
    mass[150] -= 2e-3
    yield ("density mass moved between bins (q_2)",
           lambda d: W._check_density("quadratic", 2.0, 10 ** 5, d), dens,
           dataclasses.replace(dens, mass_per_bin=mass))

    config = kl.ExperimentConfig(map_family="quadratic", map_parameter=2.0,
                                 zeta_max_period=5)
    good = json.loads(kl.run_verify(config, "zeta").to_json())
    vacuous = dict(good, predicted={}, discrepancy=None, passed=True)
    yield ("zeta report with no target claiming a pass",
           lambda r: W._check_no_target_report(r, {}), good, vacuous)
    wrong = json.loads(json.dumps(good))
    row = next(iter(wrong["measured"]["rows"].values()))
    row["value"] *= 1.0 + 1e-3
    yield ("zeta value off by 1e-3",
           lambda r: W._check_zeta_report(5)(r, {}), good, wrong)


def main():
    bad = 0
    for name, check, good, perturbed in _cases():
        ok, caught = check(good), check(perturbed)
        status = "ok" if ok is None and caught is not None else "BROKEN"
        bad += status != "ok"
        print(f"{status:6} {name}: accepts -> {ok}; rejects -> {caught}")
    return 1 if bad else 0
