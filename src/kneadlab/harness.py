"""Experiment orchestration: flat-text configs, verification reports with
deterministic JSON serialization, the top-level verify dispatch, and
parameter sweeps.

Reports are pure functions of (config, seed, precision, version): identical
inputs yield byte-identical JSON.
"""

from __future__ import annotations

import json
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field, fields, replace
from typing import Optional, Sequence

import numpy as np

from . import __version__
from .errors import (EmptyCylinder, KneadlabError, NoOrbitPredicted,
                     UncoveredMass)
from .maps import UnimodalMap, derivative, make_logistic, make_map, make_sine
from .measure import (estimate_density, gap_family, lyapunov_birkhoff,
                      regularized_density_report, seeded_start,
                      verify_critical_typicality, verify_lyapunov_equality)
from .nest import build_nest, nest_lyapunov
from .orbits import (EnumerationResult, ZetaTruncation, enumerate_periodic,
                     find_periodic, formula_exponent_estimate)
from .symbolic import SymbolStream, SymbolWord

VERIFY_TAGS = ("theorem-a", "theorem-b", "theorem-c", "lyap-equality",
               "nest-lyapunov", "conjugacy", "zeta")


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
    freq_k_min: int = 2
    freq_k_max: int = 6
    zeta_max_period: int = 12
    zeta_z_values: tuple[float, ...] = (0.25, 0.5)
    gap_nest_level: int = 1
    gap_max_generation: int = 14
    lp_exponents: tuple[float, ...] = (1.0, 2.0, 4.0)
    conjugacy_max_period: int = 4
    extended_precision: bool = False
    out_path: str = ""
    tolerance_ratio: float = 0.10
    tolerance_typicality: float = 0.02
    tolerance_lyap: float = 1e-2
    tolerance_nest_lyap: float = 0.15
    tolerance_zeta: float = 0.01
    tolerance_conjugacy: float = 1e-9
    tolerance_norm_drift: float = 2.0
    slope_window_low: float = 0.8
    slope_window_high: float = 1.2

    def validate(self) -> None:
        for name in ("orbit_length_iterates", "density_samples", "density_bins",
                     "nest_max_iterates", "freq_k_min", "freq_k_max",
                     "zeta_max_period", "conjugacy_max_period"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if self.stream_kind not in ("typical", "critical"):
            raise ValueError("stream_kind must be 'typical' or 'critical'")
        make_map(self.map_family, self.map_parameter)  # family + range check

    # flat key-value text round-trip (bit-exact) -----------------------

    def to_text(self) -> str:
        lines = []
        for f in fields(self):
            v = getattr(self, f.name)
            if isinstance(v, tuple):
                v = ",".join(_scalar_repr(x) for x in v)
            else:
                v = _scalar_repr(v)
            lines.append(f"{f.name} = {v}")
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "ExperimentConfig":
        raw = {}
        for line in text.splitlines():
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            key, _, value = line.partition("=")
            raw[key.strip()] = value.strip()
        kwargs = {}
        for f in fields(cls):
            if f.name not in raw:
                continue
            v = raw[f.name]
            base = type(getattr(cls(), f.name))
            if base is tuple:
                elems = [s for s in v.split(",") if s != ""]
                proto = getattr(cls(), f.name)
                cast = type(proto[0]) if proto else str
                kwargs[f.name] = tuple(cast(_parse_scalar(e, cast)) for e in elems)
            else:
                kwargs[f.name] = _parse_scalar(v, base)
        return cls(**kwargs)


def _scalar_repr(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return repr(v)
    return str(v)


def _parse_scalar(s: str, base):
    if base is bool:
        return s.lower() == "true"
    if base is float:
        return float(s)
    if base is int:
        return int(s)
    return s


def _finite(x):
    if isinstance(x, float) and not math.isfinite(x):
        return None
    return x


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
        return {
            "theorem_tag": self.theorem_tag,
            "verdict": self.verdict,
            "passed": self.passed,
            "discrepancy": _finite(self.discrepancy),
            "tolerance": self.tolerance,
            "inputs": self.inputs,
            "measured": _sanitize(self.measured),
            "predicted": _sanitize(self.predicted),
            "failures": self.failures,
            "annotations": self.annotations,
            "provenance": self.provenance,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2)


def _sanitize(obj):
    if isinstance(obj, dict):
        return {k: _sanitize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_sanitize(v) for v in obj]
    if isinstance(obj, (np.floating, np.integer)):
        obj = obj.item()
    return _finite(obj) if isinstance(obj, float) else obj


def _provenance(config: ExperimentConfig) -> dict:
    return {"version": f"kneadlab-{__version__}",
            "seed": config.seed,
            "extended_precision": config.extended_precision}


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
        provenance=_provenance(config),
    )


# ---------------------------------------------------------------------------
# per-theorem drivers
# ---------------------------------------------------------------------------

def _run_theorem_a(config: ExperimentConfig) -> VerificationReport:
    m = make_map(config.map_family, config.map_parameter)
    n = config.orbit_length_iterates
    if config.stream_kind == "critical":
        prefix = SymbolStream.kneading(m).take(n)
    else:
        prefix = SymbolStream.typical(m, config.seed).take(n)
    k_range = (config.freq_k_min, config.freq_k_max)
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
                word, SymbolStream.from_array(prefix), n, k_range)
            row["formula_exponent"] = formula_val
            row["rho_hat"] = est.rho_hat
            row["rho_stderr"] = est.stderr
            row["fit_status"] = est.status
        except NoOrbitPredicted as e:
            row["formula_exponent"] = None
            row["formula_status"] = "NoOrbitPredicted"
            failures.append({"word": text, "stage": "formula",
                             "error": "NoOrbitPredicted", "message": str(e)})
        except KneadlabError as e:
            row["formula_exponent"] = None
            row["formula_status"] = type(e).__name__
            failures.append({"word": text, "stage": "formula",
                             "error": type(e).__name__, "message": str(e)})
        try:
            orbit = find_periodic(m, word)
            row["orbit_exponent"] = orbit.exponent
            row["orbit_interior"] = orbit.is_interior(m)
        except EmptyCylinder as e:
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
                if abs(ratio - 1.0) > config.tolerance_ratio:
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
    return _report(config, "theorem-a", all_pass, worst, config.tolerance_ratio,
                   {"rows": rows}, {"orbit_exponents": predicted},
                   failures, annotations)


def _run_theorem_b(config: ExperimentConfig) -> VerificationReport:
    m = make_map(config.map_family, config.map_parameter)
    words = [SymbolWord.from_string(t) for t in config.words]
    table = verify_critical_typicality(m, words, config.density_samples,
                                       config.seed)
    rows = {r.word: {"average_critical": r.average_critical,
                     "average_typical": r.average_typical,
                     "mu_hat": r.mu_hat,
                     "discrepancy": r.discrepancy_critical}
            for r in table.rows}
    disc = table.max_discrepancy
    return _report(config, "theorem-b", disc <= config.tolerance_typicality,
                   disc, config.tolerance_typicality, {"rows": rows},
                   {"mu_hat": {r.word: r.mu_hat for r in table.rows}})


def _run_theorem_c(config: ExperimentConfig) -> VerificationReport:
    import warnings as _w
    m = make_map(config.map_family, config.map_parameter)
    density = estimate_density(m, config.density_samples, config.density_bins,
                               config.seed)
    nest_report = build_nest(m, min(config.gap_nest_level, 8),
                             config.nest_max_iterates,
                             extended_precision=config.extended_precision)
    g1 = config.gap_max_generation
    g2 = g1 + 4
    reports = {}
    annotations = []
    for g in (g1, g2):
        gaps = gap_family(m, config.gap_nest_level, g, nest_report=nest_report)
        with _w.catch_warnings():
            _w.simplefilter("ignore", UncoveredMass)
            rep = regularized_density_report(gaps, density, config.lp_exponents)
        if rep.uncovered_mass_warning:
            annotations.append(
                f"generation {g}: gaps cover only {rep.coverage:.3f} of the mass")
        reports[g] = rep
    drift = max(max(reports[g2].lp_norms[p] / reports[g1].lp_norms[p],
                    reports[g1].lp_norms[p] / reports[g2].lp_norms[p])
                for p in config.lp_exponents)
    slope = reports[g2].slope
    finite = all(math.isfinite(reports[g].lp_norms[p])
                 for g in (g1, g2) for p in config.lp_exponents)
    slope_ok = config.slope_window_low <= slope <= config.slope_window_high
    passed = finite and drift <= config.tolerance_norm_drift and slope_ok
    measured = {
        "lp_norms": {str(g): {str(p): reports[g].lp_norms[p]
                              for p in config.lp_exponents} for g in (g1, g2)},
        "norm_drift": drift,
        "slope": slope,
        "coverage": {str(g): reports[g].coverage for g in (g1, g2)},
        "gaps_below_bin_resolution": {str(g): reports[g].gaps_below_bin_resolution
                                      for g in (g1, g2)},
    }
    return _report(config, "theorem-c", passed, drift,
                   config.tolerance_norm_drift, measured,
                   {"slope_window": [config.slope_window_low,
                                     config.slope_window_high]},
                   annotations=annotations)


def _run_lyap_equality(config: ExperimentConfig) -> VerificationReport:
    m = make_map(config.map_family, config.map_parameter)
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
    if abs(rec.difference_critical) > config.tolerance_lyap:
        annotations.append(
            "critical-value exponent deviates from the density integral; "
            "Misiurewicz-type degeneration of the critical orbit")
    disc = abs(rec.difference)
    passed = (math.isfinite(rec.side_typical)
              and math.isfinite(rec.side_integral)
              and disc <= config.tolerance_lyap)
    return _report(config, "lyap-equality", passed, disc,
                   config.tolerance_lyap, measured, {},
                   annotations=annotations)


def _run_nest_lyapunov(config: ExperimentConfig) -> VerificationReport:
    m = make_map(config.map_family, config.map_parameter)
    report = build_nest(m, config.nest_max_depth, config.nest_max_iterates,
                        extended_precision=config.extended_precision)
    seq = nest_lyapunov(report)
    lam = lyapunov_birkhoff(m, seeded_start(m, config.seed),
                            config.orbit_length_iterates, burn_in=1000)
    deepest = seq[-1]
    disc = abs(deepest / lam.value - 1.0) if lam.value != 0 else math.inf
    measured = {"nest_sequence": seq,
                "v_n": [lv.v_n for lv in report.levels],
                "birkhoff_lyapunov": lam.value,
                "termination": report.termination,
                "renormalization_period": report.renormalization_period}
    return _report(config, "nest-lyapunov", disc <= config.tolerance_nest_lyap,
                   disc, config.tolerance_nest_lyap, measured,
                   {"limit": lam.value})


def _run_conjugacy(config: ExperimentConfig) -> VerificationReport:
    a = config.map_parameter
    fa = make_logistic(a)
    ga = make_sine(a)
    ea = enumerate_periodic(fa, config.conjugacy_max_period)
    eb = enumerate_periodic(ga, config.conjugacy_max_period)
    by_word_a = {str(o.word): o for o in ea.orbits}
    by_word_b = {str(o.word): o for o in eb.orbits}
    rows = {}
    worst = 0.0
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
            worst = max(worst, rel)
    d_fa0 = derivative(fa, 0.0)
    d_ga0 = derivative(ga, 0.0)
    endpoint_err = max(abs(d_fa0 - a), abs(d_ga0 - math.sqrt(a)))
    measured = {"rows": rows, "endpoint_logistic": d_fa0,
                "endpoint_sine": d_ga0, "endpoint_error": endpoint_err}
    predicted = {"endpoint_logistic": a, "endpoint_sine": math.sqrt(a)}
    passed = (not failures and worst <= config.tolerance_conjugacy
              and endpoint_err <= 1e-12)
    return _report(config, "conjugacy", passed, worst,
                   config.tolerance_conjugacy, measured, predicted, failures)


def _chebyshev_zeta_closed_form(z: float) -> float:
    # interior orbits carry |Df^n| = 2^n; the boundary fixed orbit carries 4^n
    return (1.0 - z / 2.0) / ((1.0 - z) * (1.0 - z / 4.0))


def _run_zeta(config: ExperimentConfig) -> VerificationReport:
    m = make_map(config.map_family, config.map_parameter)
    enum = enumerate_periodic(m, config.zeta_max_period)
    zt = ZetaTruncation(enum.orbits, config.zeta_max_period)
    rows = {}
    predicted = {}
    worst = 0.0
    chebyshev = (config.map_family == "quadratic"
                 and config.map_parameter == 2.0)
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
    passed = worst <= config.tolerance_zeta if chebyshev else None
    return _report(config, "zeta", passed, worst if chebyshev else None,
                   config.tolerance_zeta, {"rows": rows,
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


def run_verify(config: ExperimentConfig, theorem_tag: str) -> VerificationReport:
    """Run one verification suite; module errors are embedded in the report
    as structured failures, never truncated output."""
    if theorem_tag not in _DISPATCH:
        raise ValueError(f"unknown theorem tag {theorem_tag!r}; "
                         f"choose from {VERIFY_TAGS}")
    config.validate()
    try:
        return _DISPATCH[theorem_tag](config)
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
    """Run one verification per parameter; reports come back in input order
    regardless of execution order, failures isolated per parameter."""
    if not parameters:
        raise ValueError("parameter list must be nonempty")
    jobs = [(replace(config, map_parameter=float(p)), theorem_tag)
            for p in parameters]
    if parallelism <= 1:
        return [_sweep_worker(j) for j in jobs]
    with ProcessPoolExecutor(max_workers=parallelism) as pool:
        return list(pool.map(_sweep_worker, jobs))
