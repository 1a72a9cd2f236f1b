"""Command line interface.

Exit codes: 0 on success (and on verification pass), 2 on verification
fail, 3 on a verification with no target to pass or fail against, 1 on any
error.  A sweep exits 2 if any report fails, else 3 if any has no target.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import fields

from . import __version__
from .errors import InsufficientOccurrences, KneadlabError
from .harness import (VERIFY_TAGS, ExperimentConfig, run_verify, strict_json,
                      sweep)
from .maps import FAMILIES, make_map
from .measure import estimate_density, gap_family, regularized_density_report
from .nest import build_nest
from .orbits import (ZetaTruncation, check_zeta_z, enumerate_periodic,
                     find_periodic)
from .symbolic import (SymbolStream, SymbolWord, geometric_frequency,
                       itinerary, kneading_sequence)


# Most symbols a command holds at once: --length of kneading and itinerary,
# --orbit-length (the symbol prefix) of freq, verify and sweep.  On a 2-vCPU
# Xeon, 10^7 kneading symbols at quadratic 1.9 peaked at 270 MB (about 23
# bytes a symbol: orbit point, symbol, list and tuple entries, JSON
# character) and took 2.5 s; a 10^7 prefix peaked at 67 MB in freq and at
# 75 MB in verify theorem-a.
MAX_LENGTH = 10 ** 7
# (dest, option) of every count MAX_LENGTH caps
_CAPPED = (("length", "--length"), ("orbit_length", "--orbit-length"),
           ("orbit_length_iterates", "--orbit-length"))
# Highest --max-power of freq.  Every power is counted from the match mask
# of the pattern, so counting makes |pattern| + max_power passes over the
# prefix.  On a 2-vCPU Xeon, over the 10^7-symbol kneading prefix of
# quadratic 2.0 (0 from the third symbol on), --alpha 0 took 1.6 s at 32
# and 1.1 s at 1, and a 50-symbol --alpha of 0s took 1.8 s at 32.
MAX_POWER = 32


class _CliError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _CliError(message)


def _float(text: str) -> float:
    """float(text); a string that is not a number gets a message of its own,
    as argparse's would name the type function."""
    try:
        return float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a number, got {text!r}") from None


def _count(text: str) -> int:
    """An integer option: an integer literal, read with every digit, or a
    float literal with an integral value such as 1e7."""
    try:
        return int(text)
    except ValueError:
        value = _float(text)
    if not (math.isfinite(value) and value.is_integer()):
        raise argparse.ArgumentTypeError(
            f"expected a finite integer such as 12 or 1e6, got {text!r}")
    return int(value)


def _words(text: str) -> tuple[str, ...]:
    return tuple(w for w in text.split(",") if w)


def _floats(text: str) -> tuple[float, ...]:
    return tuple(_float(z) for z in text.split(",") if z)


def _add_map_args(p):
    p.add_argument("--map", required=True, choices=tuple(FAMILIES))
    p.add_argument("--param", required=True, type=_float)


def _add_seed(p):
    p.add_argument("--seed", type=_count, default=ExperimentConfig.seed)


def _add_config_options(p):
    """The options verify and sweep share; each dest is an ExperimentConfig
    field."""
    p.add_argument("--orbit-length", dest="orbit_length_iterates", type=_count)
    p.add_argument("--samples", dest="density_samples", type=_count)
    p.add_argument("--words", type=_words)
    p.add_argument("--seed", type=_count)
    p.add_argument("--extended-precision", action="store_true")


def build_parser() -> _Parser:
    parser = _Parser(prog="kneadlab", description=__doc__)
    parser.add_argument("--version", action="version",
                        version=f"kneadlab {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("kneading", help="kneading sequence of the map")
    _add_map_args(p)
    p.add_argument("--length", type=_count, required=True)

    p = sub.add_parser("itinerary", help="itinerary of a point")
    _add_map_args(p)
    p.add_argument("--x0", type=_float, required=True)
    p.add_argument("--length", type=_count, required=True)

    p = sub.add_parser("freq", help="pattern frequencies in a symbol stream")
    _add_map_args(p)
    p.add_argument("--alpha", required=True, help="pattern over 0/1")
    p.add_argument("--max-power", type=_count, default=6)
    p.add_argument("--orbit-length", type=_count, required=True)
    p.add_argument("--k-min", type=_count, default=1)
    src = p.add_mutually_exclusive_group()
    src.add_argument("--from-critical", action="store_true")
    src.add_argument("--from-random", action="store_true")
    _add_seed(p)

    p = sub.add_parser("periodic", help="periodic orbit with a given itinerary")
    _add_map_args(p)
    p.add_argument("--word", required=True)

    p = sub.add_parser("zeta", help="truncated dynamical zeta value")
    _add_map_args(p)
    p.add_argument("--max-period", type=_count, default=12)
    p.add_argument("--z", type=_float, required=True)

    p = sub.add_parser("nest", help="principal nest report")
    _add_map_args(p)
    p.add_argument("--max-depth", type=_count, default=6)
    p.add_argument("--max-iterates", type=_count, default=10 ** 6)
    p.add_argument("--extended-precision", action="store_true")

    p = sub.add_parser("measure", help="physical-measure histogram (CSV)")
    _add_map_args(p)
    p.add_argument("--samples", type=_count, required=True)
    p.add_argument("--bins", type=_count, default=512)
    p.add_argument("--format", choices=("json", "csv"), default="csv")
    _add_seed(p)

    p = sub.add_parser("gaps", help="gap family and regularized density")
    _add_map_args(p)
    p.add_argument("--nest-level", type=_count, default=1)
    p.add_argument("--max-generation", type=_count, default=14)
    p.add_argument("--p", type=_floats, default="1,2,4", help="comma-separated L^p exponents")
    p.add_argument("--samples", type=_count, default=10 ** 6)
    p.add_argument("--bins", type=_count, default=512)
    p.add_argument("--max-iterates", type=_count, default=10 ** 6)
    _add_seed(p)

    # verify and sweep options land in the ExperimentConfig field named by
    # their dest; an option that is not given is left out of the namespace
    # (argument_default SUPPRESS), so the config's own default applies
    p = sub.add_parser("verify", help="run a verification suite",
                       argument_default=argparse.SUPPRESS)
    p.add_argument("tag", choices=VERIFY_TAGS)
    _add_map_args(p)
    _add_config_options(p)
    p.add_argument("--bins", dest="density_bins", type=_count)
    p.add_argument("--stream", dest="stream_kind", choices=("typical", "critical"))
    p.add_argument("--max-depth", dest="nest_max_depth", type=_count)
    p.add_argument("--max-iterates", dest="nest_max_iterates", type=_count)
    p.add_argument("--nest-level", dest="gap_nest_level", type=_count)
    p.add_argument("--max-generation", dest="gap_max_generation", type=_count)
    p.add_argument("--max-period", dest="zeta_max_period", type=_count)
    p.add_argument("--z", dest="zeta_z_values", type=_floats)

    p = sub.add_parser("sweep", help="verify across a parameter list",
                       argument_default=argparse.SUPPRESS)
    p.add_argument("--tag", required=True, choices=VERIFY_TAGS)
    p.add_argument("--map", required=True, choices=tuple(FAMILIES))
    p.add_argument("--params", required=True,
                   help="comma-separated parameter values")
    p.add_argument("--parallelism", type=_count, default=1)
    _add_config_options(p)

    for p in sub.choices.values():
        p.add_argument("--out", default=None, help="write the output to this file")
    return parser


def _emit(payload: str, out_path):
    """Write payload and one final newline to the --out file or stdout."""
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(payload + "\n")
    else:
        sys.stdout.write(payload + "\n")


def _emit_json(obj, args) -> None:
    _emit(strict_json(obj), args.out)


def _exit_code(reports) -> int:
    verdicts = {r.verdict for r in reports}
    if "fail" in verdicts:
        return 2
    return 3 if "no_target" in verdicts else 0


_CONFIG_FIELDS = {f.name for f in fields(ExperimentConfig)}


def _config_from_args(args) -> ExperimentConfig:
    """The verify/sweep options that were given; the rest keep their
    ExperimentConfig defaults."""
    given = {k: v for k, v in vars(args).items() if k in _CONFIG_FIELDS}
    if hasattr(args, "param"):
        given["map_parameter"] = args.param
    return ExperimentConfig(map_family=args.map, **given)


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return _run(args)
    except _CliError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except (KneadlabError, ValueError) as e:
        print(json.dumps({"error": type(e).__name__, "message": str(e)},
                         sort_keys=True), file=sys.stderr)
        return 1


def _run(args) -> int:
    cmd = args.command
    for dest, option in _CAPPED:
        if getattr(args, dest, 0) > MAX_LENGTH:
            raise ValueError(f"{option} {getattr(args, dest)} exceeds the cap "
                             f"{MAX_LENGTH}")
    if getattr(args, "max_power", 0) > MAX_POWER:
        raise ValueError(f"--max-power {args.max_power} exceeds the cap {MAX_POWER}")
    if cmd == "verify":
        report = run_verify(_config_from_args(args), args.tag)
        _emit(report.to_json(), args.out)
        return _exit_code([report])

    if cmd == "sweep":
        params = [float(p) for p in args.params.split(",") if p]
        reports = sweep(_config_from_args(args), args.tag, params,
                        parallelism=args.parallelism)
        _emit(strict_json([r.to_dict() for r in reports]), args.out)
        return _exit_code(reports)

    m = make_map(args.map, args.param)
    if cmd == "kneading":
        word = kneading_sequence(m, args.length)
        _emit_json({"map": args.map, "parameter": args.param,
                    "length": args.length, "kneading": str(word)}, args)
        return 0

    if cmd == "itinerary":
        word = itinerary(m, args.x0, args.length)
        _emit_json({"map": args.map, "parameter": args.param, "x0": args.x0,
                    "itinerary": str(word)}, args)
        return 0

    if cmd == "freq":
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
        orbit = find_periodic(m, SymbolWord.from_string(args.word))
        _emit_json({"word": str(orbit.word),
                    "points": list(orbit.points),
                    "exponent_sign": orbit.exponent_sign,
                    "exponent_log_abs": orbit.exponent_log_abs,
                    "exponent": orbit.exponent,
                    "residual": orbit.residual}, args)
        return 0

    if cmd == "zeta":
        check_zeta_z(args.z)  # before the search, which the z cannot rescue
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
        report = build_nest(m, args.max_depth, args.max_iterates,
                            extended_precision=args.extended_precision)
        _emit_json({
            "levels": [{"n": lv.index, "interval": list(lv.interval),
                        "v_n": lv.v_n, "s_n": lv.s_n, "c_n": lv.c_n,
                        "central_return": lv.central_return}
                       for lv in report.levels],
            "termination": report.termination,
            "termination_level": report.termination_level,
            "termination_detail": report.termination_detail,
            "renormalization_period": report.renormalization_period,
            "renorm_search_horizon": report.renorm_search_horizon,
            "precision_bits": report.precision_bits,
            "shadowing_horizon": report.shadowing_horizon,
            "lyapunov_nest_sequence": list(report.lyapunov_nest_sequence),
        }, args)
        return 0

    if cmd == "measure":
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
            _emit("\n".join(lines), args.out)
        return 0

    if cmd == "gaps":
        gaps = gap_family(m, args.nest_level, args.max_generation,
                          max_iterates=args.max_iterates)
        density = estimate_density(m, args.samples, args.bins, args.seed)
        rep = regularized_density_report(gaps, density, args.p)
        _emit_json({"nest_level": args.nest_level,
                    "max_generation": args.max_generation,
                    "gap_count": len(gaps),
                    "base_interval": list(gaps.base_interval),
                    "lp_norms": {repr(p): rep.lp_norms[p] for p in args.p},
                    "slope": rep.slope,
                    "coverage": rep.coverage,
                    "gaps_below_bin_resolution": rep.gaps_below_bin_resolution,
                    "uncovered_mass_warning": rep.uncovered_mass_warning}, args)
        return 0

    raise _CliError(f"unknown command {cmd}")


if __name__ == "__main__":
    sys.exit(main())
