import contextlib
import io
import json
import math
import os
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import kneadlab
from kneadlab import cli, harness
from kneadlab.cli import (MAX_LENGTH, MAX_POWER, _config_from_args,
                          build_parser, main)
from kneadlab.harness import (VERIFY_TAGS, ExperimentConfig, VerificationReport,
                              run_verify, sweep)
from kneadlab.maps import make_map


# --- config ------------------------------------------------------------

def test_config_validation():
    with pytest.raises(ValueError):
        ExperimentConfig(density_bins=0).validate()
    with pytest.raises(ValueError, match="density_bins must be at most 1000000"):
        ExperimentConfig(density_bins=10 ** 6 + 1).validate()
    ExperimentConfig(density_bins=10 ** 6).validate()
    with pytest.raises(ValueError):
        ExperimentConfig(map_parameter=3.0).validate()  # quadratic range
    with pytest.raises(ValueError):
        ExperimentConfig(stream_kind="sideways").validate()
    # no words, an empty word or a 'c' would leave a report without a row
    for words in ((), ("",), ("1", ""), ("c",), ("1", "1c"), ("12",)):
        with pytest.raises(ValueError):
            ExperimentConfig(words=words).validate()
    ExperimentConfig(words=("0", "1", "0110")).validate()


# --- reports -----------------------------------------------------------

def _fast_config(**kw):
    base = dict(map_family="quadratic", map_parameter=2.0,
                orbit_length_iterates=10 ** 5, density_samples=10 ** 6,
                words=("1", "10"))
    base.update(kw)
    return ExperimentConfig(**base)


def test_report_determinism_byte_identical():
    cfg = _fast_config()
    a = run_verify(cfg, "theorem-a").to_json()
    b = run_verify(cfg, "theorem-a").to_json()
    assert a == b
    parsed = json.loads(a)
    assert parsed["provenance"]["version"].startswith("kneadlab-")


@pytest.mark.parametrize("argv", [
    ["theorem-a", "--map", "quadratic", "--param", "1.9"],
    # an extended nest from the benchmark's nest_ext pool
    ["nest-lyapunov", "--map", "sine", "--param", "3.713978",
     "--extended-precision"],
])
def test_cli_verify_report_does_not_depend_on_process_state(tmp_path, argv):
    # two fresh interpreters with different string hashing
    src = os.path.dirname(os.path.dirname(kneadlab.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    runs = []
    for hash_seed in ("0", "1"):
        out = tmp_path / f"report{hash_seed}.json"
        proc = subprocess.run(
            [sys.executable, "-m", "kneadlab.cli", "verify", *argv, "--out", str(out)],
            env=dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=path),
            capture_output=True, text=True)
        assert proc.returncode in (0, 2, 3), proc.stderr
        runs.append((proc.returncode, out.read_bytes()))
    assert runs[0] == runs[1]


def test_report_pass_iff_discrepancy_within_tolerance():
    rep = run_verify(_fast_config(orbit_length_iterates=10 ** 6), "theorem-a")
    assert rep.passed == (rep.discrepancy <= rep.tolerance)


def test_run_verify_unknown_tag():
    with pytest.raises(ValueError):
        run_verify(_fast_config(), "theorem-z")


def test_run_verify_embeds_module_errors():
    rep = run_verify(_fast_config(map_parameter=2.0), "theorem-c")
    assert not rep.passed
    assert rep.verdict == "fail"
    assert rep.failures
    assert rep.failures[0]["error"] == "CriticalNonReturn"


def test_lyap_equality_report_fields():
    rep = run_verify(_fast_config(), "lyap-equality")
    assert rep.passed
    m = rep.measured
    assert m["side_typical"] == pytest.approx(math.log(2), abs=5e-3)
    assert m["side_critical_value"] == pytest.approx(math.log(4), abs=1e-9)
    assert rep.annotations  # the Misiurewicz anomaly is called out


def test_nest_lyapunov_verify_fixture():
    # tau was grid-scanned so that the ratio 2 ln(v_3) / v_2 fell inside the
    # 15% band; v_3 lies past the double-precision shadowing horizon, so the
    # honest nest stops at v_2 and the verdict is fail
    cfg = ExperimentConfig(map_family="quadratic", map_parameter=1.974882,
                           seed=123, orbit_length_iterates=2 * 10 ** 6,
                           nest_max_depth=6, nest_max_iterates=4 * 10 ** 6)
    rep = run_verify(cfg, "nest-lyapunov")
    assert rep.verdict == "fail"
    assert rep.measured["v_n"] == [4, 34]
    assert rep.measured["shadowing_horizon"] == 70
    assert rep.discrepancy == pytest.approx(2.0591780478392527, rel=1e-12)


def test_conjugacy_verify():
    cfg = ExperimentConfig(map_family="logistic", map_parameter=3.3)
    rep = run_verify(cfg, "conjugacy")
    assert rep.passed
    assert rep.measured["endpoint_logistic"] == pytest.approx(3.3, abs=1e-13)
    assert rep.measured["endpoint_sine"] == pytest.approx(math.sqrt(3.3),
                                                          abs=1e-13)


@pytest.mark.parametrize("family, param, annotation", [
    ("quadratic", "1.9", "no conjugate pair for the quadratic family"),
    ("quadratic", "2.0", "no conjugate pair for the quadratic family"),
    ("logistic", "0.5", "no interior orbit of period at most 4 to compare"),
    ("logistic", "1.5", "no interior orbit of period at most 4 to compare"),
])
def test_cli_conjugacy_without_an_interior_comparison_has_no_target(
        capsys, family, param, annotation):
    # the quadratic family has no partner, and below a = 2 the only orbit of
    # period at most 4 that the search finds is the boundary fixed point
    assert main(["verify", "conjugacy", "--map", family, "--param", param]) == 3
    rep = _strict_loads(capsys.readouterr().out)
    assert (rep["verdict"], rep["passed"], rep["discrepancy"]) == ("no_target", False, None)
    assert rep["inputs"]["map_family"] == family
    assert [a[:len(annotation)] for a in rep["annotations"]] == [annotation]
    assert all(not row["interior"] for row in rep["measured"].get("rows", {}).values())


def test_conjugacy_pairs_the_named_map_with_its_partner():
    # either map of the pair gives the same report, apart from its inputs
    logistic, sine = (run_verify(ExperimentConfig(map_family=fam, map_parameter=3.9),
                                 "conjugacy").to_dict() for fam in ("logistic", "sine"))
    assert logistic["passed"] and logistic["measured"]["rows"]
    assert logistic["inputs"].pop("map_family") == "logistic"
    assert sine["inputs"].pop("map_family") == "sine"
    assert sine == logistic


def test_theorem_b_reads_the_bin_count():
    cfg = ExperimentConfig(map_family="quadratic", map_parameter=1.9, words=("1", "10"))
    default = run_verify(cfg, "theorem-b")
    # the bits of the 512-bin default, as before the bin count was read
    assert default.predicted == {"mu_hat": {"1": 0.7221900000000001,
                                            "10": 0.27778741078584834}}
    assert default.discrepancy == 0.0003725892141516751
    coarse = run_verify(replace(cfg, density_bins=64), "theorem-b")
    assert coarse.predicted["mu_hat"] != default.predicted["mu_hat"]
    assert coarse.inputs == default.inputs


def test_run_verify_builds_one_map(monkeypatch):
    calls = []
    monkeypatch.setattr(harness, "make_map", lambda *a: calls.append(a) or make_map(*a))
    cfg = ExperimentConfig(map_family="logistic", map_parameter=3.9,
                           orbit_length_iterates=10 ** 5, zeta_max_period=4)
    for tag in VERIFY_TAGS:
        calls.clear()
        run_verify(cfg, tag)
        assert calls == [("logistic", 3.9)], tag


def test_zeta_verify_q2():
    cfg = _fast_config(zeta_max_period=8, zeta_z_values=(0.25,))
    rep = run_verify(cfg, "zeta")
    assert rep.passed
    assert rep.verdict == "pass"


def test_zeta_without_closed_form_has_no_target():
    cfg = ExperimentConfig(map_family="logistic", map_parameter=3.9,
                           zeta_max_period=4)
    rep = run_verify(cfg, "zeta")
    assert rep.verdict == "no_target"
    assert not rep.passed
    assert rep.discrepancy is None
    parsed = json.loads(rep.to_json())
    assert parsed["verdict"] == "no_target"
    assert parsed["passed"] is False


# --- sweep -------------------------------------------------------------

def test_sweep_single_equals_run_verify():
    cfg = ExperimentConfig(map_family="logistic", map_parameter=3.3)
    solo = run_verify(replace(cfg, map_parameter=2.5), "conjugacy")
    swept = sweep(cfg, "conjugacy", [2.5])[0]
    assert swept.to_json() == solo.to_json()


def test_sweep_conjugacy_three_parameters():
    cfg = ExperimentConfig(map_family="logistic", map_parameter=3.3)
    reports = sweep(cfg, "conjugacy", [2.5, 3.3, 3.9], parallelism=2)
    assert [r.inputs["map_parameter"] for r in reports] == [2.5, 3.3, 3.9]
    assert all(r.passed for r in reports)


def test_sweep_parallel_order_matches_serial():
    cfg = ExperimentConfig(map_family="logistic", map_parameter=3.3)
    serial = sweep(cfg, "conjugacy", [3.9, 2.5], parallelism=1)
    parallel = sweep(cfg, "conjugacy", [3.9, 2.5], parallelism=2)
    assert [r.to_json() for r in serial] == [r.to_json() for r in parallel]


def test_sweep_pool_is_bounded_by_the_parameters_and_the_cpus(monkeypatch, recorded_pools):
    cfg = ExperimentConfig(map_family="logistic", map_parameter=3.3)
    params = [3.9, 2.5, 3.3]
    serial = [r.to_json() for r in sweep(cfg, "conjugacy", params)]
    for cpus, pools in ((8, [3]), (2, [2]), (1, []), (None, [])):
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        recorded_pools.clear()
        reports = sweep(cfg, "conjugacy", params, parallelism=5000)
        assert recorded_pools == pools
        assert [r.to_json() for r in reports] == serial


def test_import_leaves_the_process_pool_unloaded():
    code = ("import sys, kneadlab; "
            "assert not {'concurrent.futures.process', 'multiprocessing'} & set(sys.modules)")
    src = os.path.dirname(os.path.dirname(kneadlab.__file__))
    subprocess.run([sys.executable, "-c", code], check=True,
                   env={**os.environ, "PYTHONPATH": src})


def test_sweep_isolates_bad_parameter():
    cfg = _fast_config()
    reports = sweep(cfg, "zeta", [2.0, 9.9])
    assert reports[0].passed
    assert not reports[1].passed
    assert reports[1].failures
    with pytest.raises(ValueError):
        sweep(cfg, "zeta", [])


# --- CLI ----------------------------------------------------------------

def test_cli_kneading(capsys):
    assert main(["kneading", "--map", "quadratic", "--param", "1.9",
                 "--length", "6"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["kneading"] == "c10110"


def test_cli_itinerary(capsys):
    assert main(["itinerary", "--map", "quadratic", "--param", "2.0",
                 "--x0", "0.5", "--length", "3"]) == 0
    assert json.loads(capsys.readouterr().out)["itinerary"] == "111"


def test_cli_freq_fields(capsys):
    code = main(["freq", "--map", "quadratic", "--param", "2.0",
                 "--alpha", "10", "--max-power", "3",
                 "--orbit-length", "1e5", "--from-random", "--seed", "4"])
    assert code == 0
    out = json.loads(capsys.readouterr().out)
    assert set(out) == {"pattern", "prefix_length", "counts", "r_hat",
                        "rho_hat", "rho_stderr", "status"}
    assert out["pattern"] == "10"
    assert out["prefix_length"] == 100000
    assert out["rho_hat"] == pytest.approx(0.25, abs=0.03)


def test_cli_periodic_fields(capsys):
    assert main(["periodic", "--map", "quadratic", "--param", "2.0",
                 "--word", "10"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["exponent_sign"] == -1
    assert out["exponent_log_abs"] == pytest.approx(math.log(4), rel=1e-10)
    assert out["residual"] <= 1e-12
    assert len(out["points"]) == 2


def test_cli_zeta(capsys):
    assert main(["zeta", "--map", "quadratic", "--param", "2.0",
                 "--max-period", "6", "--z", "0.25"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["value"] == pytest.approx(1.2444, abs=0.01)


def test_cli_zeta_rejects_non_finite_z(capsys):
    assert main(["zeta", "--map", "quadratic", "--param", "2.0",
                 "--max-period", "4", "--z", "nan"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err)["error"] == "DivergentInput"


def test_cli_rejects_the_sine_tent_parameter(capsys):
    # g_4 is the tent map: no smooth critical point
    assert main(["kneading", "--map", "sine", "--param", "4.0", "--length", "8"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err) == {
        "error": "ValueError",
        "message": "sine family requires 0.0 < parameter <= 3.9999999999999996"}


@pytest.mark.parametrize("z", ["nan", "inf", "1.5", "-1", "0.25,1"])
def test_cli_verify_zeta_rejects_a_z_outside_the_unit_disc(capsys, z):
    # the zeta series diverges there at every map: the config is refused
    assert main(["verify", "zeta", "--map", "quadratic", "--param", "2.0",
                 "--max-period", "4", "--z", z]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    bad = float(z.split(",")[-1])
    assert _strict_loads(captured.err) == {
        "error": "ValueError", "message": f"zeta z value {bad!r} must be finite with |z| < 1"}


def test_cli_verify_zeta_beyond_the_least_expansion_rate_fails(capsys):
    # logistic 3.5 has an orbit of period 4 with |Df^4| = 0.03, so its least
    # expansion rate is 0.42: z = 0.5 lies in the unit disc but the bound
    # that depends on the map refuses it, and the run fails
    assert main(["verify", "zeta", "--map", "logistic", "--param", "3.5",
                 "--max-period", "4", "--z", "0.5"]) == 2
    report = json.loads(capsys.readouterr().out)
    assert report["verdict"] == "fail"
    assert report["failures"][0]["error"] == "DivergentInput"


def test_cli_nest_fields(capsys):
    assert main(["nest", "--map", "quadratic", "--param", "1.9",
                 "--max-depth", "2", "--max-iterates", "1e6"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["levels"][0]["v_n"] == 3
    assert {"n", "interval", "v_n", "s_n", "c_n"} <= set(out["levels"][0])
    assert "lyapunov_nest_sequence" in out
    assert "termination" in out


def test_cli_measure_csv(capsys):
    assert main(["measure", "--map", "quadratic", "--param", "2.0",
                 "--samples", "1e5", "--bins", "64", "--seed", "3"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "bin_left,bin_right,mass"
    assert len(lines) == 65
    total = sum(float(line.split(",")[2]) for line in lines[1:])
    assert total == pytest.approx(1.0, abs=1e-9)


def test_cli_gaps(capsys):
    assert main(["gaps", "--map", "quadratic", "--param", "1.9",
                 "--nest-level", "1", "--max-generation", "10",
                 "--p", "1,2", "--samples", "2e5", "--seed", "6"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["gap_count"] > 10
    assert out["lp_norms"]["1.0"] <= 1.0 + 1e-9


def test_cli_nest_collapse_reports_null_c_n_and_the_cause(capsys):
    assert main(["nest", "--map", "quadratic", "--param", "1.9"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert [lv["v_n"] for lv in out["levels"]] == [3, 3, 8]
    assert out["termination"] == "PrecisionExhausted"
    assert out["termination_detail"] == (
        "return time beyond the shadowing horizon at iterate 90")
    assert (out["precision_bits"], out["shadowing_horizon"]) == (53, 90)
    assert main(["nest", "--map", "logistic", "--param", "3.893568",
                 "--extended-precision"]) == 0
    out = json.loads(capsys.readouterr().out)
    last = out["levels"][2]
    assert (last["v_n"], last["c_n"]) == (153, None)
    assert out["termination"] == "PrecisionExhausted"
    assert out["termination_detail"] == (
        "pullback interval collapsed to a point at step 152 of 152")
    assert (out["precision_bits"], out["shadowing_horizon"]) == (120, None)


def test_nest_lyapunov_report_carries_termination_detail():
    cfg = ExperimentConfig(map_family="quadratic", map_parameter=1.9,
                           orbit_length_iterates=10 ** 5)
    rep = run_verify(cfg, "nest-lyapunov")
    assert rep.measured["termination"] == "PrecisionExhausted"
    assert rep.measured["termination_detail"] == (
        "return time beyond the shadowing horizon at iterate 90")
    assert rep.measured["v_n"] == [3, 3, 8]
    assert (rep.measured["precision_bits"], rep.measured["shadowing_horizon"]) == (53, 90)


def _strict_loads(text):
    """json.loads that refuses NaN, Infinity and -Infinity."""
    def reject(constant):
        raise ValueError(f"non-standard JSON constant {constant}")

    return json.loads(text, parse_constant=reject)


def test_cli_json_is_strict(capsys):
    # one gap (generation 0 only) leaves the L^p slope undefined
    assert main(["gaps", "--map", "quadratic", "--param", "1.9",
                 "--nest-level", "1", "--max-generation", "0",
                 "--samples", "1e5", "--seed", "6"]) == 0
    out = _strict_loads(capsys.readouterr().out)
    assert out["gap_count"] == 1
    assert out["slope"] is None


def test_cli_report_with_an_embedded_error_is_strict_json(capsys, tmp_path):
    # q_2's nest has one level, so nest-lyapunov embeds TooShallow and its
    # tolerance is not a number
    argv = ["verify", "nest-lyapunov", "--map", "quadratic", "--param", "2.0"]
    assert main(argv) == 2
    rep = _strict_loads(capsys.readouterr().out)
    assert rep["failures"][0]["error"] == "TooShallow"
    assert rep["tolerance"] is None
    assert main(argv + ["--out", str(tmp_path / "rep.json")]) == 2
    assert _strict_loads((tmp_path / "rep.json").read_text()) == rep
    assert main(["sweep", "--tag", "nest-lyapunov", "--map", "quadratic",
                 "--params", "2.0"]) == 2
    assert _strict_loads(capsys.readouterr().out) == [rep]


def test_cli_measure_rejects_zero_bins(capsys):
    assert main(["measure", "--map", "quadratic", "--param", "2.0",
                 "--samples", "1e5", "--bins", "0"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "bin_count" in captured.err


@pytest.mark.parametrize("argv, message", [
    (["measure", "--map", "logistic", "--param", "3.9", "--samples", "1e5",
      "--format", "json"], "bin_count <= 1000000 required"),
    (["verify", "lyap-equality", "--map", "logistic", "--param", "3.9"],
     "density_bins must be at most 1000000"),
])
def test_cli_bins_are_capped(capsys, monkeypatch, tmp_path, argv, message):
    assert main(argv + ["--bins", str(10 ** 6 + 1)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err) == {"error": "ValueError", "message": message}
    out = tmp_path / "out.json"
    if argv[0] == "measure":
        # writing 2 x 10^6 floats as indented JSON takes seconds, so the
        # histogram's payload is checked before it is written
        emitted = []
        monkeypatch.setattr(cli, "_emit_json", lambda obj, args: emitted.append(obj))
        assert main(argv + ["--bins", str(10 ** 6)]) == 0
        assert len(emitted[0]["mass_per_bin"]) == 10 ** 6
    else:
        assert main(argv + ["--bins", str(10 ** 6), "--out", str(out)]) in (0, 2, 3)
        report = _strict_loads(out.read_text())
        # the bins within two widths of c = 1/2 sit in the middle of 10^6
        singular = report["measured"]["singular_bins"]
        assert singular and all(abs(i - 10 ** 6 // 2) <= 2 for i in singular)


@pytest.mark.parametrize("argv, message", [
    (["nest", "--max-depth", "-1"], "0 <= max_depth <= 8 required"),
    (["gaps", "--nest-level", "-1"], "0 <= nest_level <= 8 required"),
    (["gaps", "--max-generation", "-3"], "0 <= max_generation <= 30 required"),
    (["verify", "theorem-c", "--nest-level", "-1"], "gap_nest_level must be in 0..8"),
    (["verify", "theorem-c", "--max-generation", "-3"],
     "gap_max_generation must be in 0..26: theorem-c also builds "
     "generation gap_max_generation + 4 <= 30"),
    (["verify", "nest-lyapunov", "--max-depth", "-1"], "nest_max_depth must be in 0..8"),
    (["zeta", "--max-period", "0", "--z", "0.1"], "1 <= max_period <= 20 required"),
    (["zeta", "--max-period", "-3", "--z", "0.1"], "1 <= max_period <= 20 required"),
    (["gaps", "--max-generation", "6", "--samples", "1e5", "--p", "0"],
     "L^p exponent p = 0.0 must be finite and positive"),
    (["gaps", "--max-generation", "6", "--samples", "1e5", "--p", "1,-1"],
     "L^p exponent p = -1.0 must be finite and positive"),
    (["gaps", "--max-generation", "6", "--samples", "1e5", "--p", "nan"],
     "L^p exponent p = nan must be finite and positive"),
])
def test_cli_rejects_out_of_range_sizes(capsys, argv, message):
    assert main(argv + ["--map", "quadratic", "--param", "1.9"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert _strict_loads(captured.err) == {"error": "ValueError", "message": message}


def test_cli_theorem_c_generation_leaves_room_for_its_second_family(capsys):
    # theorem-c also builds the gap family 4 generations deeper, and
    # gap_family stops at generation 30
    argv = ["verify", "theorem-c", "--map", "quadratic", "--param", "1.9",
            "--samples", "1e5", "--max-generation"]
    assert main(argv + ["27"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert _strict_loads(captured.err)["message"] == (
        "gap_max_generation must be in 0..26: theorem-c also builds "
        "generation gap_max_generation + 4 <= 30")
    assert main(argv + ["26"]) in (0, 2)
    rep = _strict_loads(capsys.readouterr().out)
    assert rep["failures"] == []
    assert sorted(rep["measured"]["coverage"]) == ["26", "30"]


@pytest.mark.parametrize("tag,words", [("theorem-a", ","), ("theorem-b", ","),
                                       ("theorem-a", "c"), ("theorem-b", "1,1c")])
def test_cli_verify_rejects_words_that_would_pass_with_no_row(capsys, tag, words):
    assert main(["verify", tag, "--map", "quadratic", "--param", "1.9",
                 f"--words={words}"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert _strict_loads(captured.err)["error"] == "ValueError"
    # a sweep keeps the error in the report of each parameter
    assert main(["sweep", "--tag", tag, "--map", "quadratic",
                 "--params", "1.9", f"--words={words}"]) == 2
    (rep,) = _strict_loads(capsys.readouterr().out)
    assert rep["verdict"] == "fail"
    assert rep["failures"][0]["error"] == "ValueError"


def test_cli_verify_exit_codes(capsys):
    ok = main(["verify", "zeta", "--map", "quadratic", "--param", "2.0",
               "--max-period", "6", "--z", "0.25"])
    assert ok == 0
    fail = main(["verify", "theorem-a", "--map", "quadratic", "--param", "2.0",
                 "--stream", "critical", "--orbit-length", "1e5"])
    assert fail == 2
    capsys.readouterr()


def test_cli_lyap_equality_of_an_orbit_on_an_exact_fixed_point_fails(capsys):
    # the seeded orbit of seed 346 at q_2 reaches the fixed point -1 and
    # stays there, so the run fails as degenerate, as theorem-b's does.
    # With the trapped tail averaged in it reported side_typical 1.2302,
    # where the exponent of q_2 is ln 2
    assert main(["verify", "lyap-equality", "--map", "quadratic", "--param", "2.0",
                 "--seed", "346"]) == 2
    rep = _strict_loads(capsys.readouterr().out)
    assert rep["verdict"] == "fail"
    assert rep["measured"] == {}
    assert rep["failures"] == [{"stage": "run", "error": "DegenerateOrbit",
                                "message": "orbit falls onto the fixed point -1.0"}]


@pytest.mark.parametrize("family,p,point", [("quadratic", "2.0", "-1.0"),
                                            ("logistic", "4.0", "0.0")])
def test_cli_theorem_b_names_the_fixed_point_the_critical_orbit_falls_onto(
        capsys, family, p, point):
    # the critical orbits 0 -> 1 -> -1 -> -1 and 1/2 -> 1 -> 0 -> 0 are
    # exact in floats, so the critical visits are those of the fixed point
    assert main(["verify", "theorem-b", "--map", family, "--param", p]) == 2
    rep = _strict_loads(capsys.readouterr().out)
    assert rep["verdict"] == "fail" and rep["failures"] == []
    assert rep["discrepancy"] == pytest.approx(0.5, abs=0.002)
    # every point but the critical value 1 lies in the cylinder of word 0
    assert rep["measured"]["rows"]["0"]["average_critical"] == 0.999999
    assert rep["annotations"] == [
        f"the critical orbit falls onto the fixed point {point} and stays there, so "
        f"its time averages are those of the fixed point; Misiurewicz-type "
        f"degeneration of the critical orbit"]


def test_theorem_a_rows_of_words_with_no_orbit():
    # at q_1.9 no orbit of itinerary 100 or 110 exists: for 100 the formula
    # predicts none either, for 110 the fit still reads a finite exponent
    rep = run_verify(ExperimentConfig(map_parameter=1.9), "theorem-a")
    assert rep.verdict == "pass"
    rows = rep.measured["rows"]
    for word in ("100", "110"):
        assert rows[word]["orbit_exponent"] is None
        assert rows[word]["orbit_status"] == "EmptyCylinder"
        assert "ratio" not in rows[word]
    assert rows["100"]["formula_status"] == "NoOrbitPredicted"
    assert rows["110"]["formula_exponent"] == pytest.approx(4.868, abs=1e-3)
    assert [f["word"] for f in rep.failures] == ["0", "100"]
    assert rep.annotations[-1] == ("word 100: formula and orbit search agree "
                                   "that no orbit exists in the attractor")


def test_theorem_c_annotates_gaps_that_leave_mass_uncovered():
    rep = run_verify(ExperimentConfig(map_parameter=1.9, gap_max_generation=2),
                     "theorem-c")
    assert rep.verdict == "fail" and rep.failures == []
    coverage = rep.measured["coverage"]
    assert coverage == {"2": pytest.approx(0.385, abs=5e-4),
                        "6": pytest.approx(0.714, abs=5e-4)}
    assert rep.annotations == ["generation 2: gaps cover only 0.385 of the mass",
                               "generation 6: gaps cover only 0.714 of the mass"]


def test_cli_no_target_exit_code(capsys):
    assert main(["verify", "zeta", "--map", "logistic", "--param", "3.9",
                 "--max-period", "4"]) == 3
    assert json.loads(capsys.readouterr().out)["verdict"] == "no_target"
    assert main(["sweep", "--tag", "zeta", "--map", "logistic",
                 "--params", "3.9"]) == 3
    # a failing report outranks one without a target
    assert main(["sweep", "--tag", "zeta", "--map", "quadratic",
                 "--params", "1.9,9.9"]) == 2
    capsys.readouterr()


def test_cli_itinerary_rejects_start_outside_domain(capsys):
    for x0 in ("5", "nan"):
        assert main(["itinerary", "--map", "quadratic", "--param", "2.0",
                     "--x0", x0, "--length", "4"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert json.loads(captured.err)["error"] == "OutOfDomain"


def test_cli_out_file(tmp_path):
    path = tmp_path / "report.json"
    assert main(["verify", "zeta", "--map", "quadratic", "--param", "2.0",
                 "--max-period", "6", "--z", "0.25", "--out", str(path)]) == 0
    data = json.loads(path.read_text())
    assert data["theorem_tag"] == "zeta"


@pytest.mark.parametrize("text", ["inf", "-inf", "nan"])
def test_cli_rejects_non_finite_count(capsys, text):
    # "--length=-inf": argparse reads a separate "-inf" as an option
    assert main(["kneading", "--map", "quadratic", "--param", "1.9",
                 f"--length={text}"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: argument --length: ")
    assert "finite" in captured.err


# every integer option of each command: (argv before the option, option, dest)
_COUNT_OPTIONS = [
    (["kneading", "--map", "quadratic", "--param", "1.9"], "--length", "length"),
    (["itinerary", "--map", "quadratic", "--param", "1.9", "--x0", "0.3"], "--length", "length"),
    (["freq", "--map", "quadratic", "--param", "1.9", "--alpha", "1",
      "--orbit-length", "1e5"], "--max-power", "max_power"),
    (["freq", "--map", "quadratic", "--param", "1.9", "--alpha", "1",
      "--orbit-length", "1e5"], "--k-min", "k_min"),
    (["freq", "--map", "quadratic", "--param", "1.9", "--alpha", "1"],
     "--orbit-length", "orbit_length"),
    (["zeta", "--map", "quadratic", "--param", "1.9", "--z", "0.1"], "--max-period", "max_period"),
    (["nest", "--map", "quadratic", "--param", "1.9"], "--max-depth", "max_depth"),
    (["measure", "--map", "quadratic", "--param", "1.9", "--samples", "1e5"], "--bins", "bins"),
    (["measure", "--map", "quadratic", "--param", "1.9", "--bins", "8"], "--samples", "samples"),
    (["measure", "--map", "quadratic", "--param", "1.9", "--samples", "1e5"], "--seed", "seed"),
    (["gaps", "--map", "quadratic", "--param", "1.9"], "--nest-level", "nest_level"),
    (["gaps", "--map", "quadratic", "--param", "1.9"], "--max-generation", "max_generation"),
    (["verify", "zeta", "--map", "quadratic", "--param", "1.9"], "--bins", "density_bins"),
    (["verify", "zeta", "--map", "quadratic", "--param", "1.9"], "--max-depth", "nest_max_depth"),
    (["verify", "zeta", "--map", "quadratic", "--param", "1.9"], "--nest-level", "gap_nest_level"),
    (["verify", "zeta", "--map", "quadratic", "--param", "1.9"], "--max-generation",
     "gap_max_generation"),
    (["verify", "zeta", "--map", "quadratic", "--param", "1.9"], "--max-period", "zeta_max_period"),
    (["sweep", "--tag", "zeta", "--map", "quadratic", "--params", "1.9"],
     "--parallelism", "parallelism"),
]


@pytest.mark.parametrize("argv, option, dest", _COUNT_OPTIONS,
                         ids=[f"{a[0]}{o}" for a, o, _ in _COUNT_OPTIONS])
def test_cli_integer_options_share_one_count_parser(capsys, argv, option, dest):
    parser = build_parser()
    # an integer literal keeps every digit; a float literal must be integral
    for text, value in (("2", 2), ("2e0", 2), ("1e2", 100), ("-1", -1),
                        ("12345678901234567891", 12345678901234567891)):
        assert getattr(parser.parse_args(argv + [f"{option}={text}"]), dest) == value
    for text in ("7.9", "0.5", "100000.9", "1.5", "inf", "nan", "1e400", "", "two"):
        assert main(argv + [f"{option}={text}"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        # the message names no type function
        assert captured.err == f"error: argument {option}: " + (
            f"expected a number, got {text!r}\n" if text in ("", "two") else
            f"expected a finite integer such as 12 or 1e6, got {text!r}\n")


@pytest.mark.parametrize("command, option", [
    (["verify", "zeta", "--max-period", "4"], "--z"),
    (["gaps", "--max-generation", "6", "--samples", "1e5"], "--p")])
def test_cli_number_list_that_is_not_numbers_names_no_private_function(capsys, command,
                                                                       option):
    for text in ("abc", "0.25,abc"):
        assert main(command + ["--map", "quadratic", "--param", "2.0", option, text]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: argument {option}: expected a number, got 'abc'\n"
        assert "_floats" not in captured.err and "_count" not in captured.err


def test_cli_measure_bins_in_float_notation(capsys):
    argv = ["measure", "--map", "logistic", "--param", "3.9", "--samples", "1e5"]
    assert main(argv + ["--bins", "1e2"]) == 0
    by_float = capsys.readouterr().out
    assert main(argv + ["--bins", "100"]) == 0
    assert capsys.readouterr().out == by_float
    assert len(by_float.splitlines()) == 101


def test_cli_verify_zeta_rejects_an_empty_z_list(capsys):
    # with no z value the report would pass with no row
    assert main(["verify", "zeta", "--map", "quadratic", "--param", "2.0",
                 "--max-period", "4", "--z", ","]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert _strict_loads(captured.err) == {"error": "ValueError",
                                           "message": "zeta_z_values must be nonempty"}


# Count strings of the CLI property: integral, integral in float notation,
# fractional, negative, not a number, empty and overflowing.  Every one
# keeps a run cheap: lengths and prefixes of at most 10^3 symbols, periods
# and depths of at most 3 (the larger ones are rejected).
_COUNT_TEXTS = st.sampled_from(["3", "1e3", "7.9", "-1", "nan", "", "1e400"])


@st.composite
def _cli_argvs(draw):
    """An argument vector of a command that starts no process pool (no
    sweep): a map, then each option of the command, given or left out."""
    family, param = draw(st.sampled_from([
        ("quadratic", "1.9"), ("quadratic", "2.0"), ("logistic", "3.9"),
        ("sine", "3.9"), ("sine", "4.0"), ("logistic", "nan")]))
    command = draw(st.sampled_from(
        ["kneading", "itinerary", "freq", "periodic", "zeta", "nest", "measure",
         "gaps", "verify"]))
    argv = [command] + (["zeta"] if command == "verify" else [])
    argv += ["--map", family, "--param", param]
    counts = {
        "kneading": ["--length"],
        "itinerary": ["--length"],
        "freq": ["--orbit-length", "--max-power", "--k-min", "--seed"],
        "zeta": ["--max-period"],
        "nest": ["--max-depth", "--max-iterates"],
        "measure": ["--bins", "--seed"],
        "gaps": ["--nest-level", "--max-generation", "--bins", "--seed"],
        "verify": ["--max-period", "--seed"],
    }.get(command, [])
    # the default period (12) and depth (6) cost more than a drawn one
    required = {"--length", "--orbit-length", "--max-period", "--max-depth"}
    for option in counts:
        if option in required or draw(st.booleans()):
            argv += [option, draw(_COUNT_TEXTS)]
    if command == "itinerary":
        argv += ["--x0", draw(st.sampled_from(["0.3", "-0.5", "2", "nan"]))]
    elif command == "freq":
        argv += ["--alpha", draw(st.sampled_from(["1", "10", "0", "", "1c"]))]
        argv += draw(st.sampled_from([[], ["--from-critical"], ["--from-random"]]))
    elif command == "periodic":
        argv += ["--word", draw(st.sampled_from(["1", "10", "100", "11", "c", ""]))]
    elif command == "zeta":
        argv += ["--z", draw(st.sampled_from(["0.25", "2", "nan", ""]))]
    elif command == "measure":
        argv += ["--samples", "1e5", "--format", "json"]
    elif command == "gaps":
        argv += ["--samples", "1e5", "--p",
                 draw(st.sampled_from(["1,2,4", "0", "-1", "nan", "abc"]))]
    elif command == "verify":
        argv += ["--z", draw(st.sampled_from(["0.25", "0.25,0.5", ",", "nan"]))]
    return argv


@settings(max_examples=120, deadline=None)
@given(_cli_argvs())
def test_cli_exit_code_and_output_over_argument_vectors(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2, 3), argv
    assert "Traceback" not in err.getvalue(), argv
    if code == 1:
        assert out.getvalue() == "", argv
    else:
        _strict_loads(out.getvalue())


@pytest.mark.parametrize("argv", [
    ["kneading", "--map", "quadratic", "--param", "1.9"],
    ["itinerary", "--map", "quadratic", "--param", "1.9", "--x0", "0.3"],
])
def test_cli_length_cap(capsys, monkeypatch, argv):
    # the cap is checked before the map is built or an orbit point computed
    def refuse(*args):
        raise AssertionError("ran past the length cap")

    for name in ("make_map", "kneading_sequence", "itinerary"):
        monkeypatch.setattr(cli, name, refuse)
    for length in (str(MAX_LENGTH + 1), "1e12"):
        assert main(argv + ["--length", length]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert json.loads(captured.err) == {
            "error": "ValueError",
            "message": f"--length {int(float(length))} exceeds the cap {MAX_LENGTH}"}
    # the cap itself is allowed through
    monkeypatch.undo()
    calls = []
    monkeypatch.setattr(cli, "kneading_sequence", lambda m, n: calls.append(n) or "c")
    monkeypatch.setattr(cli, "itinerary", lambda m, x0, n: calls.append(n) or "1")
    assert main(argv + ["--length", str(MAX_LENGTH)]) == 0
    capsys.readouterr()
    assert calls == [MAX_LENGTH]


# each command that reads a map, with cheap options
_MAP_COMMANDS = [
    ["kneading", "--length", "8"],
    ["itinerary", "--x0", "0.3", "--length", "8"],
    ["freq", "--alpha", "1", "--orbit-length", "1e4"],
    ["periodic", "--word", "10"],
    ["zeta", "--max-period", "3", "--z", "0.25"],
    ["nest", "--max-depth", "2"],
    ["measure", "--samples", "1e5", "--bins", "8"],
    ["gaps", "--max-generation", "2", "--samples", "1e5", "--bins", "8"],
]


@pytest.mark.parametrize("argv", _MAP_COMMANDS, ids=[a[0] for a in _MAP_COMMANDS])
def test_cli_map_command_builds_one_map(capsys, monkeypatch, argv):
    calls = []
    monkeypatch.setattr(cli, "make_map", lambda *a: calls.append(a) or make_map(*a))
    assert main([argv[0], "--map", "logistic", "--param", "3.9", *argv[1:]]) == 0
    capsys.readouterr()
    assert calls == [("logistic", 3.9)]


def test_cli_verify_builds_its_map_in_the_config_check(capsys, monkeypatch):
    calls = []
    for module in (cli, harness):
        monkeypatch.setattr(module, "make_map",
                            lambda *a, name=module.__name__: calls.append(name) or make_map(*a))
    assert main(["verify", "zeta", "--map", "logistic", "--param", "3.9",
                 "--max-period", "3"]) == 3
    capsys.readouterr()
    assert calls == ["kneadlab.harness"]


class _Reached(Exception):
    """Raised by a library entry point that a capped run must not reach."""


@pytest.mark.parametrize("argv", [
    ["freq", "--map", "quadratic", "--param", "1.9", "--alpha", "10"],
    ["verify", "theorem-a", "--map", "quadratic", "--param", "1.9"],
    ["sweep", "--tag", "theorem-a", "--map", "quadratic", "--params", "1.9"],
])
def test_cli_orbit_length_cap(capsys, monkeypatch, argv):
    # the cap is checked before the map is built or a symbol computed
    def reached(*args, **kwargs):
        raise _Reached(args)

    for name in ("make_map", "geometric_frequency", "run_verify", "sweep"):
        monkeypatch.setattr(cli, name, reached)
    for length in (str(MAX_LENGTH + 1), "1e12"):
        assert main(argv + ["--orbit-length", length]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert json.loads(captured.err) == {
            "error": "ValueError",
            "message": f"--orbit-length {int(float(length))} exceeds the cap "
                       f"{MAX_LENGTH}"}
    # the cap itself is let through to the library
    with pytest.raises(_Reached):
        main(argv + ["--orbit-length", str(MAX_LENGTH)])


def test_cli_max_power_cap(capsys, monkeypatch):
    # the cap is checked before the map is built or a symbol computed
    def reached(*args, **kwargs):
        raise _Reached(args)

    for name in ("make_map", "geometric_frequency"):
        monkeypatch.setattr(cli, name, reached)
    argv = ["freq", "--map", "quadratic", "--param", "2.0", "--alpha", "0",
            "--orbit-length", "1e6", "--from-critical"]
    assert main(argv + ["--max-power", str(MAX_POWER + 1)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err) == {
        "error": "ValueError",
        "message": f"--max-power {MAX_POWER + 1} exceeds the cap {MAX_POWER}"}
    with pytest.raises(_Reached):
        main(argv + ["--max-power", str(MAX_POWER)])


@pytest.mark.parametrize("argv", [
    ["kneading", "--map", "quadratic", "--param", "1.9", "--length", "40"],
    ["nest", "--map", "quadratic", "--param", "1.9", "--max-depth", "3"],
    ["verify", "zeta", "--map", "quadratic", "--param", "2.0", "--max-period", "6"],
    ["measure", "--map", "quadratic", "--param", "1.9", "--samples", "1e5",
     "--bins", "8"],
], ids=["kneading", "nest", "verify", "measure"])
def test_cli_out_file_bytes_equal_stdout(capsys, tmp_path, argv):
    path = tmp_path / "out"
    code = main(argv)
    stdout = capsys.readouterr().out
    assert code == 0
    assert main(argv + ["--out", str(path)]) == code
    assert capsys.readouterr().out == ""
    assert path.read_bytes() == stdout.encode()
    assert stdout.endswith("\n") and not stdout.endswith("\n\n")


@pytest.mark.parametrize("argv", [
    ["kneading", "--map", "quadratic", "--param", "1.9", "--length", "6",
     "--format", "csv"],
    ["nest", "--map", "quadratic", "--param", "1.9", "--seed", "5"],
    ["gaps", "--map", "quadratic", "--param", "1.9", "--extended-precision"],
])
def test_cli_rejects_options_the_command_does_not_read(capsys, argv):
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "unrecognized arguments" in captured.err


def test_cli_verify_config_holds_the_defaults():
    parser = build_parser()
    args = parser.parse_args(["verify", "zeta", "--map", "logistic",
                              "--param", "3.9"])
    assert _config_from_args(args) == ExperimentConfig(map_family="logistic",
                                                       map_parameter=3.9)
    args = parser.parse_args(["sweep", "--tag", "zeta", "--map", "sine",
                              "--params", "3.9"])
    assert _config_from_args(args) == ExperimentConfig(map_family="sine")
    args = parser.parse_args(["verify", "zeta", "--map", "quadratic",
                              "--param", "2.0", "--words", "1,10,",
                              "--z", "0.1,0.2", "--seed", "1e3",
                              "--extended-precision"])
    assert _config_from_args(args) == ExperimentConfig(
        words=("1", "10"), zeta_z_values=(0.1, 0.2), seed=1000,
        extended_precision=True)


def test_cli_error_exit_code(capsys):
    assert main(["nosuchcommand"]) == 1
    assert main(["kneading", "--map", "quadratic"]) == 1  # missing args
    assert main(["periodic", "--map", "quadratic", "--param", "2.0",
                 "--word", "1010"]) == 1  # reducible word
    capsys.readouterr()


def test_cli_sweep(capsys):
    code = main(["sweep", "--tag", "conjugacy", "--map", "logistic",
                 "--params", "2.5,3.3", "--parallelism", "1"])
    assert code == 0
    out = json.loads(capsys.readouterr().out)
    assert len(out) == 2
    assert [r["inputs"]["map_parameter"] for r in out] == [2.5, 3.3]
