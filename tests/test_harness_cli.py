import json
import math
from dataclasses import replace

import numpy as np
import pytest

from kneadlab.cli import main
from kneadlab.harness import (ExperimentConfig, VerificationReport, run_verify,
                              sweep)


# --- config ------------------------------------------------------------

def test_config_round_trip_bit_exact():
    cfg = ExperimentConfig(map_parameter=1.9000176313622505,
                           seed=987654321,
                           words=("1", "10", "110"),
                           zeta_z_values=(0.25, 0.5, 0.9),
                           tolerance_ratio=0.1 + 1e-17,
                           extended_precision=True)
    text = cfg.to_text()
    back = ExperimentConfig.from_text(text)
    assert back == cfg
    assert back.to_text() == text


def test_config_validation():
    with pytest.raises(ValueError):
        ExperimentConfig(density_bins=0).validate()
    with pytest.raises(ValueError):
        ExperimentConfig(map_parameter=3.0).validate()  # quadratic range
    with pytest.raises(ValueError):
        ExperimentConfig(stream_kind="sideways").validate()


def test_config_text_is_flat_key_value():
    text = ExperimentConfig().to_text()
    for line in text.strip().splitlines():
        assert " = " in line


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
    # tau chosen (grid-scanned) so the deepest computed nest ratio sits
    # inside the 15% band of the Birkhoff exponent
    cfg = ExperimentConfig(map_family="quadratic", map_parameter=1.974882,
                           seed=123, orbit_length_iterates=2 * 10 ** 6,
                           nest_max_depth=6, nest_max_iterates=4 * 10 ** 6)
    rep = run_verify(cfg, "nest-lyapunov")
    assert rep.passed
    assert rep.measured["v_n"][0] >= 2


def test_conjugacy_verify():
    cfg = ExperimentConfig(map_family="logistic", map_parameter=3.3)
    rep = run_verify(cfg, "conjugacy")
    assert rep.passed
    assert rep.measured["endpoint_logistic"] == pytest.approx(3.3, abs=1e-13)
    assert rep.measured["endpoint_sine"] == pytest.approx(math.sqrt(3.3),
                                                          abs=1e-13)


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


def test_cli_verify_exit_codes(capsys):
    ok = main(["verify", "zeta", "--map", "quadratic", "--param", "2.0",
               "--max-period", "6", "--z", "0.25"])
    assert ok == 0
    fail = main(["verify", "theorem-a", "--map", "quadratic", "--param", "2.0",
                 "--stream", "critical", "--orbit-length", "1e5"])
    assert fail == 2
    capsys.readouterr()


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
