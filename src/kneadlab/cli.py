"""Command line interface.

Exit codes: 0 on success (and on verification pass), 2 on verification
fail, 3 on a verification with no target to pass or fail against, 1 on any
error.  A sweep exits 2 if any report fails, else 3 if any has no target.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import __version__
from .errors import InsufficientOccurrences, KneadlabError
from .harness import (VERIFY_TAGS, ExperimentConfig, run_verify, sweep)
from .maps import make_map
from .measure import estimate_density, gap_family, regularized_density_report
from .nest import build_nest
from .orbits import ZetaTruncation, enumerate_periodic, find_periodic
from .symbolic import (SymbolStream, SymbolWord, geometric_frequency,
                       itinerary, kneading_sequence)


class _CliError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _CliError(message)


def _count(text: str) -> int:
    """Integer argument that also accepts scientific notation like 1e7."""
    return int(float(text))


def _add_map_args(p):
    p.add_argument("--map", required=True, choices=("quadratic", "logistic", "sine"))
    p.add_argument("--param", required=True, type=float)


def _add_common(p):
    p.add_argument("--format", choices=("json", "csv"), default=None)
    p.add_argument("--seed", type=_count, default=20260810)
    p.add_argument("--out", default=None)
    p.add_argument("--extended-precision", action="store_true")


def build_parser() -> _Parser:
    parser = _Parser(prog="kneadlab", description=__doc__)
    parser.add_argument("--version", action="version",
                        version=f"kneadlab {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("kneading", help="kneading sequence of the map")
    _add_map_args(p)
    p.add_argument("--length", type=_count, required=True)
    _add_common(p)

    p = sub.add_parser("itinerary", help="itinerary of a point")
    _add_map_args(p)
    p.add_argument("--x0", type=float, required=True)
    p.add_argument("--length", type=_count, required=True)
    _add_common(p)

    p = sub.add_parser("freq", help="pattern frequencies in a symbol stream")
    _add_map_args(p)
    p.add_argument("--alpha", required=True, help="pattern over 0/1")
    p.add_argument("--max-power", type=int, default=6)
    p.add_argument("--orbit-length", type=_count, required=True)
    p.add_argument("--k-min", type=int, default=1)
    src = p.add_mutually_exclusive_group()
    src.add_argument("--from-critical", action="store_true")
    src.add_argument("--from-random", action="store_true")
    _add_common(p)

    p = sub.add_parser("periodic", help="periodic orbit with a given itinerary")
    _add_map_args(p)
    p.add_argument("--word", required=True)
    _add_common(p)

    p = sub.add_parser("zeta", help="truncated dynamical zeta value")
    _add_map_args(p)
    p.add_argument("--max-period", type=int, default=12)
    p.add_argument("--z", type=float, required=True)
    _add_common(p)

    p = sub.add_parser("nest", help="principal nest report")
    _add_map_args(p)
    p.add_argument("--max-depth", type=int, default=6)
    p.add_argument("--max-iterates", type=_count, default=10 ** 6)
    _add_common(p)

    p = sub.add_parser("measure", help="physical-measure histogram (CSV)")
    _add_map_args(p)
    p.add_argument("--samples", type=_count, required=True)
    p.add_argument("--bins", type=int, default=512)
    _add_common(p)

    p = sub.add_parser("gaps", help="gap family and regularized density")
    _add_map_args(p)
    p.add_argument("--nest-level", type=int, default=1)
    p.add_argument("--max-generation", type=int, default=14)
    p.add_argument("--p", default="1,2,4", help="comma-separated L^p exponents")
    p.add_argument("--samples", type=_count, default=10 ** 6)
    p.add_argument("--bins", type=int, default=512)
    p.add_argument("--max-iterates", type=_count, default=10 ** 6)
    _add_common(p)

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("tag", choices=VERIFY_TAGS)
    _add_map_args(p)
    p.add_argument("--orbit-length", type=_count, default=10 ** 6)
    p.add_argument("--samples", type=_count, default=10 ** 6)
    p.add_argument("--bins", type=int, default=512)
    p.add_argument("--stream", choices=("typical", "critical"), default="typical")
    p.add_argument("--words", default="1,0,10,100,110")
    p.add_argument("--max-depth", type=int, default=4)
    p.add_argument("--max-iterates", type=_count, default=10 ** 6)
    p.add_argument("--nest-level", type=int, default=1)
    p.add_argument("--max-generation", type=int, default=14)
    p.add_argument("--max-period", type=int, default=12)
    p.add_argument("--z", default="0.25,0.5")
    _add_common(p)

    p = sub.add_parser("sweep", help="verify across a parameter list")
    p.add_argument("--tag", required=True, choices=VERIFY_TAGS)
    p.add_argument("--map", required=True, choices=("quadratic", "logistic", "sine"))
    p.add_argument("--params", required=True,
                   help="comma-separated parameter values")
    p.add_argument("--parallelism", type=int, default=1)
    p.add_argument("--orbit-length", type=_count, default=10 ** 6)
    p.add_argument("--samples", type=_count, default=10 ** 6)
    p.add_argument("--words", default="1,0,10,100,110")
    _add_common(p)

    return parser


def _emit(payload: str, out_path):
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(payload)
    else:
        sys.stdout.write(payload)
        if not payload.endswith("\n"):
            sys.stdout.write("\n")


def _emit_json(obj, args) -> None:
    _emit(json.dumps(obj, sort_keys=True, indent=2, default=_json_default),
          args.out)


def _json_default(o):
    if isinstance(o, (np.floating, np.integer)):
        return o.item()
    if isinstance(o, np.ndarray):
        return o.tolist()
    raise TypeError(f"not serializable: {type(o)}")


def _exit_code(reports) -> int:
    verdicts = {r.verdict for r in reports}
    if "fail" in verdicts:
        return 2
    return 3 if "no_target" in verdicts else 0


def _config_from_args(args) -> ExperimentConfig:
    return ExperimentConfig(
        map_family=args.map,
        map_parameter=args.param if hasattr(args, "param") else 2.0,
        seed=args.seed,
        orbit_length_iterates=getattr(args, "orbit_length", 10 ** 6),
        density_samples=getattr(args, "samples", 10 ** 6),
        density_bins=getattr(args, "bins", 512),
        nest_max_depth=getattr(args, "max_depth", 4),
        nest_max_iterates=getattr(args, "max_iterates", 10 ** 6),
        words=tuple(w for w in getattr(args, "words", "1,0,10").split(",") if w),
        stream_kind=getattr(args, "stream", "typical"),
        zeta_max_period=getattr(args, "max_period", 12),
        zeta_z_values=tuple(float(z) for z in
                            str(getattr(args, "z", "0.25,0.5")).split(",") if z),
        gap_nest_level=getattr(args, "nest_level", 1),
        gap_max_generation=getattr(args, "max_generation", 14),
        extended_precision=args.extended_precision,
    )


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return _run(args)
    except _CliError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except KneadlabError as e:
        print(json.dumps({"error": type(e).__name__, "message": str(e)},
                         sort_keys=True), file=sys.stderr)
        return 1
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


def _run(args) -> int:
    cmd = args.command
    if cmd == "kneading":
        m = make_map(args.map, args.param)
        word = kneading_sequence(m, args.length)
        _emit_json({"map": args.map, "parameter": args.param,
                    "length": args.length, "kneading": str(word)}, args)
        return 0

    if cmd == "itinerary":
        m = make_map(args.map, args.param)
        word = itinerary(m, args.x0, args.length)
        _emit_json({"map": args.map, "parameter": args.param, "x0": args.x0,
                    "itinerary": str(word)}, args)
        return 0

    if cmd == "freq":
        m = make_map(args.map, args.param)
        pattern = SymbolWord.from_string(args.alpha)
        if args.from_critical:
            stream = SymbolStream.kneading(m)
        else:
            stream = SymbolStream.typical(m, args.seed)
        n = args.orbit_length
        try:
            est = geometric_frequency(pattern, stream, n, args.k_min,
                                      args.max_power)
            counts = [[k, c] for k, c in est.per_power_counts]
            r_hat = counts[0][1] / n if counts else 0.0
            payload = {"pattern": str(pattern), "prefix_length": n,
                       "counts": counts, "r_hat": r_hat,
                       "rho_hat": est.rho_hat, "rho_stderr": est.stderr,
                       "status": est.status}
        except InsufficientOccurrences as e:
            payload = {"pattern": str(pattern), "prefix_length": n,
                       "counts": [], "r_hat": None, "rho_hat": None,
                       "rho_stderr": None, "status": f"insufficient: {e}"}
        _emit_json(payload, args)
        return 0

    if cmd == "periodic":
        m = make_map(args.map, args.param)
        orbit = find_periodic(m, SymbolWord.from_string(args.word))
        _emit_json({"word": str(orbit.word),
                    "points": list(orbit.points),
                    "exponent_sign": orbit.exponent_sign,
                    "exponent_log_abs": orbit.exponent_log_abs,
                    "exponent": orbit.exponent,
                    "residual": orbit.residual}, args)
        return 0

    if cmd == "zeta":
        m = make_map(args.map, args.param)
        enum = enumerate_periodic(m, args.max_period)
        ev = ZetaTruncation(enum.orbits, args.max_period).evaluate(args.z)
        _emit_json({"z": args.z, "max_period": args.max_period,
                    "orbit_count": len(enum.orbits),
                    "value": ev.value,
                    "value_tail_completed": ev.value_tail_completed,
                    "inner_tail_bound": ev.inner_tail_bound,
                    "outer_tail_log_estimate": ev.outer_tail_log_estimate,
                    "min_expansion_rate": ev.min_expansion_rate}, args)
        return 0

    if cmd == "nest":
        m = make_map(args.map, args.param)
        report = build_nest(m, args.max_depth, args.max_iterates,
                            extended_precision=args.extended_precision)
        _emit_json({
            "levels": [{"n": lv.index, "interval": list(lv.interval),
                        "v_n": lv.v_n, "s_n": lv.s_n, "c_n": lv.c_n,
                        "landing_word_length": lv.landing_word_length,
                        "central_return": lv.central_return}
                       for lv in report.levels],
            "termination": report.termination,
            "termination_level": report.termination_level,
            "renormalization_period": report.renormalization_period,
            "renorm_search_horizon": report.renorm_search_horizon,
            "lyapunov_nest_sequence": list(report.lyapunov_nest_sequence),
        }, args)
        return 0

    if cmd == "measure":
        m = make_map(args.map, args.param)
        density = estimate_density(m, args.samples, args.bins, args.seed)
        if args.format == "json":
            _emit_json({"bin_edges": density.bin_edges.tolist(),
                        "mass_per_bin": density.mass_per_bin.tolist(),
                        "sample_count": density.sample_count,
                        "seed": args.seed}, args)
        else:
            lines = ["bin_left,bin_right,mass"]
            e = density.bin_edges
            for i, mass in enumerate(density.mass_per_bin):
                lines.append(f"{float(e[i])!r},{float(e[i + 1])!r},{float(mass)!r}")
            _emit("\n".join(lines) + "\n", args.out)
        return 0

    if cmd == "gaps":
        m = make_map(args.map, args.param)
        gaps = gap_family(m, args.nest_level, args.max_generation,
                          max_iterates=args.max_iterates)
        density = estimate_density(m, args.samples, args.bins, args.seed)
        p_list = [float(p) for p in args.p.split(",") if p]
        import warnings
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            rep = regularized_density_report(gaps, density, p_list)
        _emit_json({"nest_level": args.nest_level,
                    "max_generation": args.max_generation,
                    "gap_count": len(gaps),
                    "base_interval": list(gaps.base_interval),
                    "lp_norms": {repr(p): rep.lp_norms[p] for p in p_list},
                    "slope": rep.slope,
                    "coverage": rep.coverage,
                    "gaps_below_bin_resolution": rep.gaps_below_bin_resolution,
                    "uncovered_mass_warning": rep.uncovered_mass_warning}, args)
        return 0

    if cmd == "verify":
        config = _config_from_args(args)
        report = run_verify(config, args.tag)
        _emit(report.to_json() + "\n", args.out)
        return _exit_code([report])

    if cmd == "sweep":
        params = [float(p) for p in args.params.split(",") if p]
        config = _config_from_args(args)
        reports = sweep(config, args.tag, params, parallelism=args.parallelism)
        payload = json.dumps([r.to_dict() for r in reports], sort_keys=True,
                             indent=2)
        _emit(payload + "\n", args.out)
        return _exit_code(reports)

    raise _CliError(f"unknown command {cmd}")


if __name__ == "__main__":
    sys.exit(main())
