"""Spans around the calls that kneadlab's modules make into each other.

Tracing lives entirely in the benchmark: `Tracer.install` swaps each public
function a module exposes to the others for a wrapper, in the defining
module and in every module (and the package) that imported it, and
`uninstall` puts the originals back.  A span holds name, start, end, parent
and operation id; spans stay in memory until `write_jsonl`.  High-rate
scalar functions (`evaluate`, `derivative`, `branch_inverse`) are counted,
not spanned, so that the trace does not dominate the work it measures.
"""

import functools
import json
import time

import kneadlab
from kneadlab import harness, maps, measure, nest, orbits, symbolic

MODULES = (kneadlab, maps, symbolic, orbits, nest, measure, harness)
LAYERS = ("maps", "symbolic", "orbits", "nest", "measure", "harness")
SPANNED = {
    maps: ("iterate_orbit", "orbit_array"),
    symbolic: ("itinerary", "kneading_sequence", "cylinder", "count_occurrences",
               "frequency", "geometric_frequency"),
    orbits: ("find_periodic", "enumerate_periodic", "formula_exponent_estimate"),
    nest: ("build_nest", "find_restrictive_interval"),
    measure: ("estimate_density", "lyapunov_birkhoff", "gap_family",
              "verify_lyapunov_equality", "verify_critical_typicality",
              "regularized_density_report"),
    harness: ("run_verify",),
}
COUNTED = {maps: ("evaluate", "derivative", "branch_inverse")}
METHODS = ((symbolic.SymbolStream, "take", "symbolic.take"),
           (orbits.ZetaTruncation, "evaluate", "orbits.zeta_evaluate"),
           (harness.VerificationReport, "to_json", "harness.to_json"))


class Tracer:
    def __init__(self):
        self.spans = []      # [name, start, end, parent, op, extra]
        self.counts = {}
        self.stack = []
        self.op = None
        self._saved = []

    # -- recording ---------------------------------------------------------

    def _open(self, name, extra=None):
        rec = [name, time.perf_counter(), None,
               self.stack[-1] if self.stack else None, self.op, extra or {}]
        self.spans.append(rec)
        self.stack.append(len(self.spans) - 1)
        return rec

    def _close(self, rec):
        rec[2] = time.perf_counter()
        self.stack.pop()

    def _spanned(self, name, fn, annotate=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = self._open(name)
            try:
                out = fn(*args, **kwargs)
            except Exception as e:
                rec[5]["raised"] = type(e).__name__
                raise
            finally:
                self._close(rec)
            if annotate is not None:
                annotate(rec[5], args, kwargs, out)
            return out
        return wrapper

    def _counted(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] = counts.get(name, 0) + 1
            return fn(*args, **kwargs)
        return wrapper

    def _chunks(self, fn):
        """orbit_chunks is a generator: each chunk it yields is one span,
        timed from the request for the chunk to its delivery."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(m, *args, **kwargs):
            gen = fn(m, *args, **kwargs)
            while True:
                rec = tracer._open("maps.orbit_chunks", {"family": m.family_tag})
                try:
                    buf = next(gen)
                except StopIteration:
                    rec[5]["points"] = 0
                    return
                finally:
                    tracer._close(rec)
                rec[5]["points"] = len(buf)
                yield buf
        return wrapper

    # -- installation ------------------------------------------------------

    def _replace(self, original, wrapper):
        for mod in MODULES:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._saved.append((mod, attr, value))
                    setattr(mod, attr, wrapper)

    def install(self):
        annotate = {
            "symbolic.itinerary": lambda e, a, k, out: e.update(symbols=len(out)),
            "symbolic.count_occurrences": lambda e, a, k, out: e.update(symbols=len(a[1])),
            "nest.build_nest": _annotate_nest,
            "measure.gap_family": lambda e, a, k, out: e.update(gaps=len(out)),
            "measure.verify_lyapunov_equality": lambda e, a, k, out: e.update(samples=a[1]),
            "measure.verify_critical_typicality": lambda e, a, k, out: e.update(samples=a[2]),
            "symbolic.take": lambda e, a, k, out: e.update(symbols=a[1]),
            "harness.to_json": lambda e, a, k, out: e.update(bytes=len(out)),
        }
        layer_of = {mod: mod.__name__.split(".")[-1] for mod in MODULES}
        for mod, names in SPANNED.items():
            for name in names:
                full = f"{layer_of[mod]}.{name}"
                self._replace(getattr(mod, name),
                              self._spanned(full, getattr(mod, name), annotate.get(full)))
        for mod, names in COUNTED.items():
            for name in names:
                self._replace(getattr(mod, name),
                              self._counted(f"{layer_of[mod]}.{name}", getattr(mod, name)))
        self._replace(maps.orbit_chunks, self._chunks(maps.orbit_chunks))
        for cls, attr, name in METHODS:
            original = cls.__dict__[attr]
            self._saved.append((cls, attr, original))
            setattr(cls, attr, self._spanned(name, original, annotate.get(name)))

    def uninstall(self):
        for owner, attr, value in reversed(self._saved):
            setattr(owner, attr, value)
        self._saved.clear()

    # -- output ------------------------------------------------------------

    def write_jsonl(self, path):
        with open(path, "w") as fh:
            for i, (name, start, end, parent, op, extra) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start": start,
                                     "end": end, "parent": parent, "op": op,
                                     **extra}) + "\n")


def _annotate_nest(extra, args, kwargs, report):
    max_iterates = args[2] if len(args) > 2 else kwargs["max_iterates"]
    scan = sum(lv.v_n for lv in report.levels)
    if report.termination == "CriticalNonReturn":
        scan += max_iterates
    extra.update(extended=bool(report.extended_precision), scan=scan,
                 levels=len(report.levels))


def reduce_spans(spans, counts, rounds):
    """Per-layer metrics, per traced round."""
    n = len(spans)
    dur = [s[2] - s[1] for s in spans]
    child = [0.0] * n
    points_under = [0] * n
    for i, s in enumerate(spans):
        if s[3] is not None:
            child[s[3]] += dur[i]
        if s[0] == "maps.orbit_chunks":
            j = s[3]
            while j is not None:
                points_under[j] += s[5]["points"]
                j = spans[j][3]

    tot = {}

    def add(key, v):
        tot[key] = tot.get(key, 0.0) + v

    for i, (name, _, _, _, _, extra) in enumerate(spans):
        layer = name.split(".")[0]
        add(f"{layer}.self_s", dur[i] - child[i])
        add(f"{name}.calls", 1)
        add(f"{name}.s", dur[i])
        add(f"{name}.self_s", dur[i] - child[i])
        if name == "maps.orbit_chunks":
            add("maps.orbit_chunks.points", extra["points"])
            add(f"maps.{extra['family']}.points", extra["points"])
            add(f"maps.{extra['family']}.s", dur[i])
        elif name == "symbolic.itinerary":
            add("symbolic.itinerary.symbols", extra.get("symbols", 0))
            add("symbolic.itinerary.points", points_under[i])
        elif name in ("symbolic.take", "symbolic.count_occurrences"):
            add(f"{name}.symbols", extra.get("symbols", 0))
        elif name == "orbits.find_periodic":
            raised = extra.get("raised")
            add("orbits.find_periodic.found", raised is None)
            add("orbits.find_periodic.absent", raised == "EmptyCylinder")
        elif name == "nest.build_nest" and "scan" in extra:
            kind = "extended" if extra["extended"] else "double"
            add(f"nest.{kind}.s", dur[i])
            add(f"nest.{kind}.scan_iterates", extra["scan"])
            add("nest.levels", extra["levels"])
        elif name == "measure.gap_family":
            add("measure.gap_family.gaps", extra.get("gaps", 0))
        elif name.startswith("measure.verify_") and "samples" in extra:
            add("measure.verify.samples", extra["samples"])
            add("measure.verify.points", points_under[i])
        elif name == "harness.to_json":
            add("harness.report_bytes", extra.get("bytes", 0))

    def g(key):
        return tot.get(key, 0.0)

    def ratio(a, b):
        return g(a) / g(b) if g(b) else 0.0

    out = {
        "maps.orbit_chunks.points": g("maps.orbit_chunks.points") / rounds,
        "maps.orbit_chunks.s": g("maps.orbit_chunks.s") / rounds,
        "maps.evaluate.calls": counts.get("maps.evaluate", 0) / rounds,
        "maps.branch_inverse.calls": counts.get("maps.branch_inverse", 0) / rounds,
        "symbolic.itinerary.calls": g("symbolic.itinerary.calls") / rounds,
        "symbolic.itinerary.s": g("symbolic.itinerary.s") / rounds,
        "symbolic.itinerary.points_per_symbol": ratio("symbolic.itinerary.points",
                                                      "symbolic.itinerary.symbols"),
        "symbolic.take.symbols": g("symbolic.take.symbols") / rounds,
        "symbolic.take.s": g("symbolic.take.s") / rounds,
        "symbolic.count_occurrences.symbols": g("symbolic.count_occurrences.symbols") / rounds,
        "symbolic.count_occurrences.s": g("symbolic.count_occurrences.s") / rounds,
        "symbolic.cylinder.calls": g("symbolic.cylinder.calls") / rounds,
        "orbits.find_periodic.calls": g("orbits.find_periodic.calls") / rounds,
        "orbits.find_periodic.found": g("orbits.find_periodic.found") / rounds,
        "orbits.find_periodic.absent": g("orbits.find_periodic.absent") / rounds,
        "orbits.find_periodic.s": g("orbits.find_periodic.s") / rounds,
        "orbits.find_periodic.s_per_call": ratio("orbits.find_periodic.s",
                                                 "orbits.find_periodic.calls"),
        "orbits.zeta_evaluate.s": g("orbits.zeta_evaluate.s") / rounds,
        "measure.estimate_density.s": g("measure.estimate_density.s") / rounds,
        "measure.lyapunov_birkhoff.s": g("measure.lyapunov_birkhoff.s") / rounds,
        "measure.kernel_points_per_sample": ratio("measure.verify.points",
                                                  "measure.verify.samples"),
        "measure.gap_family.s": g("measure.gap_family.s") / rounds,
        "measure.gap_family.gaps": g("measure.gap_family.gaps") / rounds,
        "harness.run_verify.self_s": g("harness.run_verify.self_s") / rounds,
        "harness.to_json.s": g("harness.to_json.s") / rounds,
        "harness.report_bytes": g("harness.report_bytes") / rounds,
        "nest.levels": g("nest.levels") / rounds,
    }
    for fam in ("quadratic", "logistic", "sine"):
        out[f"maps.{fam}.points_per_s"] = ratio(f"maps.{fam}.points", f"maps.{fam}.s")
    for kind in ("double", "extended"):
        out[f"nest.{kind}.s"] = g(f"nest.{kind}.s") / rounds
        out[f"nest.{kind}.scan_iterates"] = g(f"nest.{kind}.scan_iterates") / rounds
        out[f"nest.{kind}.scan_iterates_per_s"] = ratio(f"nest.{kind}.scan_iterates",
                                                        f"nest.{kind}.s")
    for layer in LAYERS:
        out[f"{layer}.self_s"] = g(f"{layer}.self_s") / rounds
    return out


PER_LAYER_UNITS = {
    "points": "count", "calls": "count", "symbols": "count", "found": "count",
    "absent": "count", "gaps": "count", "levels": "count",
    "scan_iterates": "count", "report_bytes": "bytes",
    "points_per_s": "1/s", "scan_iterates_per_s": "1/s",
    "points_per_symbol": "ratio", "kernel_points_per_sample": "ratio",
}


def unit_of(metric):
    last = metric.rsplit(".", 1)[-1]
    return PER_LAYER_UNITS.get(last, "s")
