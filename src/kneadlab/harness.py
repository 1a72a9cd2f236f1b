"""Experiment orchestration: experiment configs, verification reports with
deterministic JSON serialization, the top-level verify dispatch, and
parameter sweeps.

Reports are pure functions of (config, seed, precision, version): identical
inputs yield byte-identical JSON.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, replace
from typing import Optional, Sequence

import numpy as np

from . import __version__
from .errors import EmptyCylinder, KneadlabError
from .maps import (DEFAULT_BURN_IN, UnimodalMap, derivative, make_logistic,
                   make_map, make_sine, seeded_start)
from .measure import (MAX_BINS, MAX_GENERATION, estimate_density, gap_family,
                      lyapunov_birkhoff, regularized_density_report,
                      verify_critical_typicality, verify_lyapunov_equality)
from .nest import MAX_DEPTH, build_nest, nest_lyapunov
from .orbits import (ZetaTruncation, enumerate_periodic, find_periodic,
                     formula_exponent_estimate)
from .symbolic import SymbolStream, SymbolWord

# acceptance bounds of the verify reports
TOLERANCE_RATIO = 0.10
TOLERANCE_TYPICALITY = 0.02
TOLERANCE_LYAP = 1e-2
TOLERANCE_NEST_LYAP = 0.15
TOLERANCE_ZETA = 0.01
TOLERANCE_CONJUGACY = 1e-9
TOLERANCE_NORM_DRIFT = 2.0
SLOPE_WINDOW = (0.8, 1.2)
LP_EXPONENTS = (1.0, 2.0, 4.0)
# theorem-c compares the gap families at gap_max_generation and this many
# generations more, so gap_max_generation stops this far below MAX_GENERATION
GENERATION_STEP = 4


@dataclass(frozen=True)
class ExperimentConfig:
    """Flat, diffable experiment description; keys carry explicit units."""

    map_family: str = "quadratic"
    map_parameter: float = 2.0
    seed: int = 20260810
    orbit_length_iterates: int = 10 ** 6
    density_samples: int = 10 ** 6
    density_bins: int = 512
    nest_max_depth: int = 4
    nest_max_iterates: int = 10 ** 6
    words: tuple[str, ...] = ("1", "0", "10", "100", "110")
    stream_kind: str = "typical"  # typical | critical
    zeta_max_period: int = 12
    zeta_z_values: tuple[float, ...] = (0.25, 0.5)
    gap_nest_level: int = 1
    gap_max_generation: int = 14
    conjugacy_max_period: int = 4
    extended_precision: bool = False

    def validate(self) -> UnimodalMap:
        """Check every field; return the map the config names."""
        for name in ("orbit_length_iterates", "density_samples", "density_bins",
                     "nest_max_iterates", "zeta_max_period",
                     "conjugacy_max_period"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if self.density_bins > MAX_BINS:
            raise ValueError(f"density_bins must be at most {MAX_BINS}")
        for name, top in (("nest_max_depth", MAX_DEPTH), ("gap_nest_level", MAX_DEPTH)):
            if not 0 <= getattr(self, name) <= top:
                raise ValueError(f"{name} must be in 0..{top}")
        top = MAX_GENERATION - GENERATION_STEP
        if not 0 <= self.gap_max_generation <= top:
            raise ValueError(f"gap_max_generation must be in 0..{top}: theorem-c also builds "
                             f"generation gap_max_generation + {GENERATION_STEP} <= {MAX_GENERATION}")
        if self.stream_kind not in ("typical", "critical"):
            raise ValueError("stream_kind must be 'typical' or 'critical'")
        # a word with no symbol, or with a 'c', matches nothing, and an
        # empty list would pass with no rows
        for name in ("words", "zeta_z_values"):
            if not getattr(self, name):
                raise ValueError(f"{name} must be nonempty")
        for w in self.words:
            if not w or set(w) - {"0", "1"}:
                raise ValueError(f"word {w!r} must be nonempty over 0 and 1")
        # the zeta series diverges for |z| >= 1 at every map; the bound
        # that depends on the map (its least expansion rate) is a run failure
        for z in self.zeta_z_values:
            if not abs(z) < 1.0:
                raise ValueError(f"zeta z value {z!r} must be finite with |z| < 1")
        return make_map(self.map_family, self.map_parameter)  # family + range check


@dataclass
class VerificationReport:
    """One verification run.  The verdict is "pass" or "fail" against a
    target, or "no_target" when the map has nothing to compare against;
    `passed` is true for "pass" only."""

    theorem_tag: str
    verdict: str
    discrepancy: Optional[float]
    tolerance: float
    inputs: dict
    measured: dict
    predicted: dict
    failures: list
    annotations: list
    provenance: dict

    @property
    def passed(self) -> bool:
        return self.verdict == "pass"

    def to_dict(self) -> dict:
        return {**vars(self), "passed": self.passed}

    def to_json(self) -> str:
        return strict_json(self.to_dict())


def _sanitize(obj):
    if isinstance(obj, dict):
        return {k: _sanitize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_sanitize(v) for v in obj]
    if isinstance(obj, (np.floating, np.integer)):
        obj = obj.item()
    if isinstance(obj, float) and not math.isfinite(obj):
        return None
    return obj


def strict_json(obj) -> str:
    """The one JSON writer of reports and CLI output: sorted keys, indent 2,
    numpy scalars as Python numbers and every non-finite float as null."""
    return json.dumps(_sanitize(obj), sort_keys=True, indent=2, allow_nan=False)


def _report(config, tag, passed, discrepancy, tolerance, measured, predicted,
            failures=None, annotations=None) -> VerificationReport:
    """passed=None means the run had no target to pass or fail against."""
    return VerificationReport(
        theorem_tag=tag,
        verdict="no_target" if passed is None else ("pass" if passed else "fail"),
        discrepancy=discrepancy,
        tolerance=tolerance,
        inputs={"map_family": config.map_family,
                "map_parameter": config.map_parameter,
                "stream_kind": config.stream_kind,
                "orbit_length_iterates": config.orbit_length_iterates,
                "density_samples": config.density_samples,
                "words": list(config.words)},
        measured=measured,
        predicted=predicted,
        failures=failures or [],
        annotations=annotations or [],
        provenance={"version": f"kneadlab-{__version__}", "seed": config.seed,
                    "extended_precision": config.extended_precision},
    )


# ---------------------------------------------------------------------------
# per-theorem drivers
# ---------------------------------------------------------------------------

def _run_theorem_a(config: ExperimentConfig, m: UnimodalMap) -> VerificationReport:
    n = config.orbit_length_iterates
    if config.stream_kind == "critical":
        prefix = SymbolStream.kneading(m).take(n)
    else:
        prefix = SymbolStream.typical(m, config.seed).take(n)
    rows = {}
    annotations = []
    failures = []
    worst = 0.0
    all_pass = True
    for text in config.words:
        word = SymbolWord.from_string(text)
        row = {}
        formula_val = None
        orbit = None
        try:
            formula_val, est = formula_exponent_estimate(
                word, SymbolStream.from_array(prefix), n)
            row["formula_exponent"] = formula_val
            row["rho_hat"] = est.rho_hat
            row["rho_stderr"] = est.stderr
            row["fit_status"] = est.status
        except KneadlabError as e:
            row["formula_exponent"] = None
            row["formula_status"] = type(e).__name__
            failures.append({"word": text, "stage": "formula",
                             "error": type(e).__name__, "message": str(e)})
        try:
            orbit = find_periodic(m, word)
            row["orbit_exponent"] = orbit.exponent
            row["orbit_interior"] = orbit.is_interior(m)
        except EmptyCylinder:
            row["orbit_exponent"] = None
            row["orbit_status"] = "EmptyCylinder"
        except KneadlabError as e:
            row["orbit_exponent"] = None
            row["orbit_status"] = type(e).__name__
            failures.append({"word": text, "stage": "orbit",
                             "error": type(e).__name__, "message": str(e)})
        if formula_val is not None and orbit is not None:
            ratio = formula_val / orbit.exponent
            row["ratio"] = ratio
            if orbit.is_interior(m):
                worst = max(worst, abs(ratio - 1.0))
                if abs(ratio - 1.0) > TOLERANCE_RATIO:
                    all_pass = False
            else:
                annotations.append(
                    f"word {text}: orbit touches the domain boundary; the "
                    f"formula tracks measure decay, not length decay, on the "
                    f"postcritical singular set (ratio {ratio:.3f} excluded)")
        elif formula_val is None and orbit is not None and orbit.is_interior(m):
            all_pass = False
            if config.stream_kind == "critical":
                annotations.append(
                    f"word {text}: NoOrbitPredicted from the critical-point "
                    f"stream although the orbit exists; this is the expected "
                    f"Misiurewicz negative control")
        elif formula_val is None and orbit is None:
            annotations.append(f"word {text}: formula and orbit search agree "
                               f"that no orbit exists in the attractor")
        rows[text] = row
    predicted = {t: rows[t].get("orbit_exponent") for t in config.words}
    return _report(config, "theorem-a", all_pass, worst, TOLERANCE_RATIO,
                   {"rows": rows}, {"orbit_exponents": predicted},
                   failures, annotations)


def _run_theorem_b(config: ExperimentConfig, m: UnimodalMap) -> VerificationReport:
    words = [SymbolWord.from_string(t) for t in config.words]
    table = verify_critical_typicality(m, words, config.density_samples,
                                       config.seed, bin_count=config.density_bins)
    rows = {r.word: {"average_critical": r.average_critical,
                     "average_typical": r.average_typical,
                     "mu_hat": r.mu_hat,
                     "discrepancy": r.discrepancy_critical}
            for r in table.rows}
    disc = table.max_discrepancy
    passed = disc <= TOLERANCE_TYPICALITY
    annotations = []
    if not passed and table.critical_fixed_point is not None:
        annotations.append(
            f"the critical orbit falls onto the fixed point "
            f"{table.critical_fixed_point!r} and stays there, so its time "
            f"averages are those of the fixed point; Misiurewicz-type "
            f"degeneration of the critical orbit")
    return _report(config, "theorem-b", passed, disc, TOLERANCE_TYPICALITY,
                   {"rows": rows}, {"mu_hat": {r.word: r.mu_hat for r in table.rows}},
                   annotations=annotations)


def _run_theorem_c(config: ExperimentConfig, m: UnimodalMap) -> VerificationReport:
    density = estimate_density(m, config.density_samples, config.density_bins,
                               config.seed)
    nest_report = build_nest(m, config.gap_nest_level, config.nest_max_iterates,
                             extended_precision=config.extended_precision)
    g1 = config.gap_max_generation
    g2 = g1 + GENERATION_STEP
    reports = {}
    annotations = []
    for g in (g1, g2):
        gaps = gap_family(m, config.gap_nest_level, g, nest_report=nest_report)
        rep = regularized_density_report(gaps, density, LP_EXPONENTS)
        if rep.uncovered_mass_warning:
            annotations.append(
                f"generation {g}: gaps cover only {rep.coverage:.3f} of the mass")
        reports[g] = rep
    drift = max(max(reports[g2].lp_norms[p] / reports[g1].lp_norms[p],
                    reports[g1].lp_norms[p] / reports[g2].lp_norms[p])
                for p in LP_EXPONENTS)
    slope = reports[g2].slope
    finite = all(math.isfinite(reports[g].lp_norms[p])
                 for g in (g1, g2) for p in LP_EXPONENTS)
    slope_ok = SLOPE_WINDOW[0] <= slope <= SLOPE_WINDOW[1]
    passed = finite and drift <= TOLERANCE_NORM_DRIFT and slope_ok
    measured = {
        "lp_norms": {str(g): {str(p): reports[g].lp_norms[p]
                              for p in LP_EXPONENTS} for g in (g1, g2)},
        "norm_drift": drift,
        "slope": slope,
        "coverage": {str(g): reports[g].coverage for g in (g1, g2)},
        "gaps_below_bin_resolution": {str(g): reports[g].gaps_below_bin_resolution
                                      for g in (g1, g2)},
    }
    return _report(config, "theorem-c", passed, drift,
                   TOLERANCE_NORM_DRIFT, measured,
                   {"slope_window": list(SLOPE_WINDOW)},
                   annotations=annotations)


def _run_lyap_equality(config: ExperimentConfig, m: UnimodalMap) -> VerificationReport:
    rec = verify_lyapunov_equality(m, config.density_samples, config.seed,
                                   config.density_bins)
    measured = {
        "side_critical_value": rec.side_critical_value,
        "side_typical": rec.side_typical,
        "side_integral": rec.side_integral,
        "difference": rec.difference,
        "difference_critical": rec.difference_critical,
        "density_degenerate": rec.density_degenerate,
        "singular_bins": list(rec.singular_bins),
    }
    annotations = []
    if abs(rec.difference_critical) > TOLERANCE_LYAP:
        annotations.append(
            "critical-value exponent deviates from the density integral; "
            "Misiurewicz-type degeneration of the critical orbit")
    disc = abs(rec.difference)
    passed = (math.isfinite(rec.side_typical)
              and math.isfinite(rec.side_integral)
              and disc <= TOLERANCE_LYAP)
    return _report(config, "lyap-equality", passed, disc,
                   TOLERANCE_LYAP, measured, {},
                   annotations=annotations)


def _run_nest_lyapunov(config: ExperimentConfig, m: UnimodalMap) -> VerificationReport:
    report = build_nest(m, config.nest_max_depth, config.nest_max_iterates,
                        extended_precision=config.extended_precision)
    seq = nest_lyapunov(report)
    lam = lyapunov_birkhoff(m, seeded_start(m, config.seed),
                            config.orbit_length_iterates,
                            burn_in=DEFAULT_BURN_IN)
    deepest = seq[-1]
    disc = abs(deepest / lam.value - 1.0) if lam.value != 0 else math.inf
    measured = {"nest_sequence": seq,
                "v_n": [lv.v_n for lv in report.levels],
                "birkhoff_lyapunov": lam.value,
                "termination": report.termination,
                "termination_detail": report.termination_detail,
                "renormalization_period": report.renormalization_period,
                "precision_bits": report.precision_bits,
                "shadowing_horizon": report.shadowing_horizon}
    return _report(config, "nest-lyapunov", disc <= TOLERANCE_NEST_LYAP,
                   disc, TOLERANCE_NEST_LYAP, measured,
                   {"limit": lam.value})


# h(x) = sin^2(pi x / 2) carries the sine map g_a to the logistic map f_a, so
# the two families at one parameter form the conjugate pair of the check
_CONJUGATE = {"logistic": make_sine, "sine": make_logistic}


def _run_conjugacy(config: ExperimentConfig, m: UnimodalMap) -> VerificationReport:
    if m.family_tag not in _CONJUGATE:
        return _report(config, "conjugacy", None, None, TOLERANCE_CONJUGACY, {}, {},
                       annotations=[f"no conjugate pair for the {m.family_tag} family; "
                                    f"the check pairs the logistic and sine maps "
                                    f"at one parameter"])
    a = config.map_parameter
    other = _CONJUGATE[m.family_tag](a)
    fa, ga = (m, other) if m.family_tag == "logistic" else (other, m)
    ea = enumerate_periodic(fa, config.conjugacy_max_period)
    eb = enumerate_periodic(ga, config.conjugacy_max_period)
    by_word_a = {str(o.word): o for o in ea.orbits}
    by_word_b = {str(o.word): o for o in eb.orbits}
    rows = {}
    worst = 0.0
    compared = False
    failures = []
    for w, oa in by_word_a.items():
        ob = by_word_b.get(w)
        interior = oa.is_interior(fa)
        if ob is None:
            if interior:
                failures.append({"word": w, "error": "missing",
                                 "message": "no matching sine-family orbit"})
            continue
        rel = abs(oa.exponent - ob.exponent) / max(abs(oa.exponent), 1e-300)
        rows[w] = {"logistic_exponent": oa.exponent,
                   "sine_exponent": ob.exponent,
                   "relative_difference": rel,
                   "interior": interior}
        if interior and ob.is_interior(ga):
            compared = True
            worst = max(worst, rel)
    d_fa0 = derivative(fa, 0.0)
    d_ga0 = derivative(ga, 0.0)
    endpoint_err = max(abs(d_fa0 - a), abs(d_ga0 - math.sqrt(a)))
    measured = {"rows": rows, "endpoint_logistic": d_fa0,
                "endpoint_sine": d_ga0, "endpoint_error": endpoint_err}
    predicted = {"endpoint_logistic": a, "endpoint_sine": math.sqrt(a)}
    passed = (not failures and worst <= TOLERANCE_CONJUGACY
              and endpoint_err <= 1e-12)
    if passed and not compared:
        return _report(config, "conjugacy", None, None, TOLERANCE_CONJUGACY,
                       measured, predicted,
                       annotations=[f"no interior orbit of period at most "
                                    f"{config.conjugacy_max_period} to compare; boundary "
                                    f"orbits are excluded, as the conjugacy is "
                                    f"singular at 0"])
    return _report(config, "conjugacy", passed, worst,
                   TOLERANCE_CONJUGACY, measured, predicted, failures)


def _chebyshev_zeta_closed_form(z: float) -> float:
    # interior orbits carry |Df^n| = 2^n; the boundary fixed orbit carries 4^n
    return (1.0 - z / 2.0) / ((1.0 - z) * (1.0 - z / 4.0))


def _run_zeta(config: ExperimentConfig, m: UnimodalMap) -> VerificationReport:
    enum = enumerate_periodic(m, config.zeta_max_period)
    zt = ZetaTruncation(enum.orbits, config.zeta_max_period)
    rows = {}
    predicted = {}
    worst = 0.0
    chebyshev = m.family_tag == "quadratic" and m.parameter == 2.0
    annotations = []
    for z in config.zeta_z_values:
        ev = zt.evaluate(z)
        rows[repr(z)] = {"value": ev.value,
                         "value_tail_completed": ev.value_tail_completed,
                         "inner_tail_bound": ev.inner_tail_bound,
                         "outer_tail_log_estimate": ev.outer_tail_log_estimate}
        if chebyshev:
            target = _chebyshev_zeta_closed_form(z)
            predicted[repr(z)] = target
            err = min(abs(ev.value - target),
                      abs(ev.value_tail_completed - target)) / target
            rows[repr(z)]["relative_error"] = err
            worst = max(worst, err)
    if not chebyshev:
        annotations.append("no closed form available for this map; "
                           "values reported without a pass target")
    passed = worst <= TOLERANCE_ZETA if chebyshev else None
    return _report(config, "zeta", passed, worst if chebyshev else None,
                   TOLERANCE_ZETA, {"rows": rows,
                                           "orbit_count": len(enum.orbits)},
                   predicted, annotations=annotations)


_DISPATCH = {
    "theorem-a": _run_theorem_a,
    "theorem-b": _run_theorem_b,
    "theorem-c": _run_theorem_c,
    "lyap-equality": _run_lyap_equality,
    "nest-lyapunov": _run_nest_lyapunov,
    "conjugacy": _run_conjugacy,
    "zeta": _run_zeta,
}
VERIFY_TAGS = tuple(_DISPATCH)


def run_verify(config: ExperimentConfig, theorem_tag: str) -> VerificationReport:
    """Run one verification suite; module errors are embedded in the report
    as structured failures, never truncated output."""
    if theorem_tag not in _DISPATCH:
        raise ValueError(f"unknown theorem tag {theorem_tag!r}; "
                         f"choose from {VERIFY_TAGS}")
    m = config.validate()
    try:
        return _DISPATCH[theorem_tag](config, m)
    except KneadlabError as e:
        return _report(config, theorem_tag, False, None, math.nan, {}, {},
                       failures=[{"stage": "run", "error": type(e).__name__,
                                  "message": str(e)}])


def _sweep_worker(args):
    config, tag = args
    try:
        return run_verify(config, tag)
    except Exception as e:  # isolate per-parameter failures
        return _report(config, tag, False, None, math.nan, {}, {},
                       failures=[{"stage": "sweep", "error": type(e).__name__,
                                  "message": str(e)}])


def sweep(config: ExperimentConfig, theorem_tag: str,
          parameters: Sequence[float], parallelism: int = 1
          ) -> list[VerificationReport]:
    """Run one verification per parameter, in at most parallelism processes
    and one per CPU; reports keep input order, failures isolated per parameter."""
    if not parameters:
        raise ValueError("parameter list must be nonempty")
    jobs = [(replace(config, map_parameter=float(p)), theorem_tag)
            for p in parameters]
    workers = min(parallelism, len(jobs), os.cpu_count() or 1)
    if workers <= 1:
        return [_sweep_worker(j) for j in jobs]
    from concurrent.futures import ProcessPoolExecutor
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(_sweep_worker, jobs))
