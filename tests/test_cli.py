"""End-to-end exercises of the command line driver (in-process)."""

import json

import numpy as np
import pytest

import pinchflow.flow
from pinchflow.cli import main
from pinchflow.errors import DegenerateJet
from pinchflow.flow import monitor


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


def test_verify_small_trials(tmp_path, capsys):
    rc = main(["verify", "--trials", "200", "--seed", "7",
               "--output-dir", str(tmp_path)])
    assert rc == 0
    data = read_json(tmp_path / "verify.json")
    assert data["all_pass"] is True
    assert len(data["checks"]) == 7
    names = {c["name"] for c in data["checks"]}
    assert "z_brute_vs_closed" in names
    assert "li_li_nonneg" in names
    assert all(c["pass"] for c in data["checks"])
    # the printed closed form really does sit a finite distance from brute
    assert data["info"]["kperp_printed_closed_max_gap"] > 1e-3
    out = capsys.readouterr().out
    assert '"all_pass": true' in out


def test_verify_deterministic_bytes(tmp_path):
    args = ["verify", "--trials", "100", "--seed", "3",
            "--output-dir", str(tmp_path)]
    assert main(args) == 0
    first = (tmp_path / "verify.json").read_bytes()
    assert main(args) == 0
    assert (tmp_path / "verify.json").read_bytes() == first


def test_verify_config_file(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"trials": 500}))
    rc = main(["verify", "--config", str(cfg), "--output-dir", str(tmp_path)])
    assert rc == 0
    data = read_json(tmp_path / "verify.json")
    assert data["config"]["trials"] == 500


def test_config_unknown_key_rejected(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"bogus_knob": 1}))
    rc = main(["verify", "--config", str(cfg), "--output-dir", str(tmp_path)])
    assert rc == 2
    assert "unknown config keys: bogus_knob" in capsys.readouterr().err


@pytest.mark.parametrize("text", [None, "{not json", "[1, 2]"],
                         ids=["missing", "not_json", "not_object"])
def test_bad_config_file_exits_2(tmp_path, capsys, text):
    cfg = tmp_path / "cfg.json"
    if text is not None:
        cfg.write_text(text)
    rc = main(["verify", "--config", str(cfg), "--output-dir", str(tmp_path)])
    assert rc == 2
    err = capsys.readouterr().err
    assert "configuration error" in err and str(cfg) in err


TORUS_8 = ["flow", "--surface", "flat-torus", "--nv", "8"]


@pytest.mark.parametrize("argv,cfg", [
    (TORUS_8, {"nu": 8.5}),
    (TORUS_8 + ["--nu", "8"], {"stride": 2.5}),
    (TORUS_8 + ["--nu", "8"], {"scheme": "leapfrog"}),
    (TORUS_8 + ["--nu", "8"], {"cfl": "fast"}),
    (TORUS_8 + ["--nu", "8"], {"cfl": None}),
    (TORUS_8 + ["--nu", "8"], {"t_max": True}),
    (TORUS_8 + ["--nu", "8"], {"kbar": [1.0]}),
    (["sweep", "--variant", "thm1"], {"resolution": 8.0}),
    (["sweep", "--variant", "thm1", "--resolution", "8"], {"no_bisect": "yes"}),
    (["sweep", "--variant", "thm1", "--resolution", "8"], {"no_bisect": 1}),
    (["verify", "--trials", "20"], {"seed": -0.5}),
], ids=["nu_float", "stride_float", "scheme_choice", "cfl_text", "cfl_null", "t_max_bool",
        "kbar_list", "resolution_float", "no_bisect_text", "no_bisect_int", "seed_float"])
def test_config_value_rejected_like_its_flag(tmp_path, capsys, argv, cfg):
    """A config-file value that its flag would reject on the command line
    exits 2 before anything runs."""
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    assert main(argv + ["--config", str(path), "--output-dir", str(out)]) == 2
    key = next(iter(cfg))
    assert "configuration error: config key %s" % key in capsys.readouterr().err
    assert not out.exists()


def test_config_values_parsed_like_their_flags(tmp_path):
    """Config-file values reach the run as their flags would: an integral
    number or a numeric string for an int, a JSON boolean for a store_true
    flag, and null where the flag defaults to None."""
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"resolution": "8", "refine_rounds": 0, "no_bisect": True,
                                "alpha": 1, "n": 2}))
    assert main(["sweep", "--variant", "thm1", "--config", str(path),
                 "--output-dir", str(tmp_path)]) == 0
    config = read_json(tmp_path / "sweep_thm1_full.json")["config"]
    assert (config["resolution"], config["refine_rounds"], config["bisect"]) == (8, 0, False)
    assert config["alpha"] == 1.0 and isinstance(config["alpha"], float)
    path.write_text(json.dumps({"rho": None, "nu": 8, "nv": 16, "t_max": 0.001}))
    assert main(["flow", "--surface", "geodesic-sphere", "--config", str(path),
                 "--output-dir", str(tmp_path)]) == 0
    assert read_json(tmp_path / "flow.json")["config"]["nu"] == 8


def test_canonical_veronese(tmp_path, capsys):
    rc = main(["canonical", "--surface", "veronese",
               "--output-dir", str(tmp_path)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "1.333333333" in out and "0.666666667" in out
    data = read_json(tmp_path / "canonical_veronese.json")
    assert data["all_pass"] is True
    assert all(row["pass"] for row in data["rows"])


def test_canonical_bad_rho_exits_2(tmp_path, capsys):
    rc = main(["canonical", "--surface", "geodesic-sphere", "--rho", "0.0",
               "--output-dir", str(tmp_path)])
    assert rc == 2
    assert "configuration error" in capsys.readouterr().err


def test_sweep_hzero_artifact(tmp_path):
    rc = main(["sweep", "--variant", "thm1", "--stratum", "hzero",
               "--resolution", "40", "--refine-rounds", "2",
               "--output-dir", str(tmp_path)])
    assert rc == 0
    rep = read_json(tmp_path / "sweep_thm1_hzero.json")["report"]
    assert abs(rep["sup_value"] - (-0.25)) < 1e-5
    assert abs(rep["critical_constant"] - 4.0 / 3.0) < 1e-3
    assert any("holds" in note for note in rep["notes"])


def test_sweep_thm2_reports_failure(tmp_path):
    rc = main(["sweep", "--variant", "thm2", "--resolution", "24",
               "--refine-rounds", "1", "--output-dir", str(tmp_path)])
    assert rc == 0
    rep = read_json(tmp_path / "sweep_thm2_full.json")["report"]
    assert rep["sup_value"] > 0.0
    assert any("FAILS" in note for note in rep["notes"])
    assert any(note.startswith("base-lattice max") and "printed-R3 variant" in note
               for note in rep["notes"])


def test_flow_artifacts(tmp_path):
    rc = main(["flow", "--surface", "geodesic-sphere",
               "--rho", str(np.pi / 3), "--nu", "16", "--nv", "32",
               "--t-max", "0.05", "--stride", "10", "--prefix", "tiny_",
               "--output-dir", str(tmp_path)])
    assert rc == 0
    for name in ("tiny_snapshot_initial.txt", "tiny_snapshot_final.txt",
                 "tiny_monitor.csv", "tiny_flow.json"):
        assert (tmp_path / name).exists()
    data = read_json(tmp_path / "tiny_flow.json")
    assert data["records"] >= 1
    assert data["outcome"] in ("Shrinking", "Inconclusive")
    assert data["radius_trajectory"][0][1] > 1.0  # starts near pi/3


@pytest.mark.parametrize("scheme", ["euler", "rk2", "rkl2"])
def test_flow_aborted_after_a_monitored_step_records_it_once(tmp_path, monkeypatch, scheme):
    """A step that hits the ceiling right after a monitored step leaves the
    run on the surface the last record already holds: no second record at
    the same t, so the extinction estimate has two distinct records.  The
    verdict stop is turned off, as it would end the run before the ceiling."""
    monkeypatch.setattr(pinchflow.flow, "_stop", lambda records, cfg: None)
    assert main(["flow", "--surface", "geodesic-sphere", "--nu", "16", "--nv", "32",
                 "--ceiling", "1e3", "--stride", "1", "--scheme", scheme,
                 "--output-dir", str(tmp_path)]) == 0
    times = [line.split(",")[0]
             for line in (tmp_path / "monitor.csv").read_text().splitlines()[1:]]
    data = read_json(tmp_path / "flow.json")
    assert "beyond ceiling" in data["notes"][0]
    assert len(set(times)) == len(times) == data["records"]
    assert data["outcome"] == "Shrinking"
    assert data["extinction_time"] is not None


@pytest.mark.parametrize("scheme", ["euler", "rk2", "rkl2"])
@pytest.mark.parametrize("t_max", [0.001, 0.05])
def test_flow_lands_on_t_max(tmp_path, scheme, t_max):
    assert main(["flow", "--surface", "flat-torus", "--nu", "8", "--nv", "8",
                 "--scheme", scheme, "--t-max", repr(t_max),
                 "--output-dir", str(tmp_path)]) == 0
    data = read_json(tmp_path / "flow.json")
    assert data["outcome"] == "Inconclusive"
    assert data["final_t"] == t_max
    lines = (tmp_path / "snapshot_final.txt").read_text().splitlines()
    assert lines[0].endswith(" t=%r" % t_max)
    # the surface moved for t_max, not for a whole Euler step of 0.05: the
    # product torus r1 = 0.6, r2 = 0.8 keeps cos 2theta = (r1^2 - r2^2) e^{4t}
    r1 = np.hypot(*map(float, lines[1].split()[2:4]))
    c = (0.6 ** 2 - 0.8 ** 2) * np.exp(4.0 * t_max)
    assert abs(r1 - np.sqrt((1.0 + c) / 2.0)) <= 5e-3


def test_flow_monitor_failure_mid_run_writes_artifacts(tmp_path, monkeypatch):
    """A monitor that fails inside the loop ends the run like a failed step:
    a note, a verdict from the records so far, and every artifact written."""
    calls = []

    def failing(*args, **kwargs):
        calls.append(args[-1])
        if len(calls) == 3:
            raise DegenerateJet("min Gram determinant 0")
        return monitor(*args, **kwargs)

    monkeypatch.setattr(pinchflow.flow, "monitor", failing)
    assert main(["flow", "--surface", "geodesic-sphere", "--nu", "12", "--nv", "24",
                 "--stride", "1", "--t-max", "1", "--output-dir", str(tmp_path)]) == 0
    data = read_json(tmp_path / "flow.json")
    assert len(calls) == 3 and data["records"] == 2
    assert data["outcome"] == "NumericalBlowup"
    assert data["notes"] == ["monitor failed mid-run: min Gram determinant 0"]
    assert data["final_t"] == calls[-1] > calls[-2]
    assert len((tmp_path / "monitor.csv").read_text().splitlines()) == 3
    assert (tmp_path / "snapshot_final.txt").read_text().splitlines()[0].endswith(
        " t=%r" % calls[-1])


def test_flow_degenerate_perturbation_exits_3(tmp_path, capsys):
    rc = main(["flow", "--surface", "geodesic-sphere", "--rho", str(np.pi / 3),
               "--nu", "32", "--nv", "64", "--amplitude", "2.0",
               "--output-dir", str(tmp_path)])
    assert rc == 3
    assert "numerical abort" in capsys.readouterr().err


def test_report_digest(tmp_path, capsys):
    assert main(["verify", "--trials", "50", "--output-dir", str(tmp_path)]) == 0
    assert main(["sweep", "--variant", "thm1", "--stratum", "hzero",
                 "--resolution", "24", "--refine-rounds", "1",
                 "--output-dir", str(tmp_path)]) == 0
    capsys.readouterr()
    rc = main(["report", "--output-dir", str(tmp_path)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "verify.json" in out and "sweep_thm1_hzero.json" in out
    text = (tmp_path / "report.txt").read_text()
    assert "all_pass=True" in text
    assert "sup=" in text


def test_report_flags_unreadable_artifact(tmp_path, capsys):
    assert main(["verify", "--trials", "50", "--output-dir", str(tmp_path)]) == 0
    text = (tmp_path / "verify.json").read_text()
    (tmp_path / "verify.json").write_text(text[: len(text) // 2])
    capsys.readouterr()
    rc = main(["report", "--output-dir", str(tmp_path)])
    assert rc == 1
    assert "verify.json: unreadable (" in (tmp_path / "report.txt").read_text()


@pytest.mark.parametrize("argv", [
    ["verify", "--trials", "0"],
    ["verify", "--trials", "-3"],
    ["verify", "--tol", "inf"],
    ["verify", "--tol", "nan"],
    ["verify", "--tol", "-1"],
    ["verify", "--tol", "0"],
    ["verify", "--seed", "-1"],
    ["flow", "--surface", "flat-torus", "--nu", "8", "--nv", "8", "--stride", "0"],
    ["flow", "--surface", "flat-torus", "--nu", "8", "--nv", "8", "--stride", "-5"],
    ["flow", "--surface", "geodesic-sphere", "--nv", "15"],
    ["flow", "--surface", "geodesic-sphere", "--nu", "3", "--nv", "8"],
    ["flow", "--surface", "geodesic-sphere", "--nv", "0"],
    ["flow", "--surface", "geodesic-sphere", "--nu", "4", "--nv", "2"],
    ["flow", "--surface", "flat-torus", "--nu", "0"],
    ["flow", "--surface", "flat-torus", "--nu", "8", "--nv", "2"],
    ["flow", "--surface", "geodesic-sphere", "--nu", "16", "--nv", "32", "--kbar", "0"],
    ["flow", "--surface", "geodesic-sphere", "--nu", "16", "--nv", "32", "--kbar", "-1"],
    ["flow", "--surface", "geodesic-sphere", "--nu", "16", "--nv", "32", "--kbar", "nan"],
    ["canonical", "--surface", "veronese", "--tol", "inf"],
    ["canonical", "--surface", "veronese", "--tol", "nan"],
    ["canonical", "--surface", "veronese", "--tol", "-1"],
    ["canonical", "--surface", "flat-torus", "--r1", "nan"],
    ["flow", "--surface", "flat-torus", "--nu", "8", "--nv", "8", "--r1", "nan"],
    ["flow", "--surface", "flat-torus", "--nu", "8", "--nv", "8", "--amplitude", "nan"],
    ["flow", "--surface", "flat-torus", "--nu", "8", "--nv", "8", "--amplitude", "inf"],
    ["flow", "--surface", "flat-torus", "--nu", "8", "--nv", "8",
     "--harnack-csharp", "nan", "--harnack-delta0", "0.1"],
    ["flow", "--surface", "flat-torus", "--nu", "8", "--nv", "8",
     "--harnack-csharp", "inf", "--harnack-delta0", "0.1"],
    ["flow", "--surface", "flat-torus", "--nu", "8", "--nv", "8",
     "--harnack-csharp", "-5", "--harnack-delta0", "0.1"],
    ["flow", "--surface", "flat-torus", "--nu", "8", "--nv", "8",
     "--harnack-csharp", "0", "--harnack-delta0", "0.1"],
    ["flow", "--surface", "flat-torus", "--nu", "8", "--nv", "8",
     "--harnack-csharp", "1", "--harnack-delta0", "inf"],
    ["flow", "--surface", "flat-torus", "--nu", "8", "--nv", "8",
     "--harnack-csharp", "1", "--harnack-delta0", "nan"],
], ids=["trials0", "trials-3", "tol_inf", "tol_nan", "tol_neg", "tol0", "seed_neg", "stride0",
        "stride-5", "sphere_nv15", "sphere_nu3", "sphere_nv0", "sphere_nv2",
        "torus_nu0", "torus_nv2", "kbar0", "kbar_neg", "kbar_nan", "canonical_tol_inf",
        "canonical_tol_nan", "canonical_tol_neg", "canonical_r1_nan", "flow_r1_nan",
        "amplitude_nan", "amplitude_inf", "harnack_csharp_nan", "harnack_csharp_inf",
        "harnack_csharp_neg", "harnack_csharp0", "harnack_delta0_inf", "harnack_delta0_nan"])
def test_bad_counts_exit_2(tmp_path, capsys, argv):
    assert main(argv + ["--output-dir", str(tmp_path)]) == 2
    assert "configuration error" in capsys.readouterr().err


SMALL_SWEEP = ["sweep", "--variant", "thm1", "--resolution", "8", "--no-bisect"]
SMALL_THM2_SWEEP = ["sweep", "--variant", "thm2", "--resolution", "8", "--no-bisect"]
TINY_FLOW = ["flow", "--surface", "flat-torus", "--nu", "8", "--nv", "8", "--t-max", "0.001"]


@pytest.mark.parametrize("argv", [
    TINY_FLOW + ["--alpha", "0.9", "--k", "0.1"],
    TINY_FLOW + ["--delta", "0.1"],
    TINY_FLOW + ["--direction", "7", "--mu", "3"],
    TINY_FLOW + ["--mu", "-1"],
    ["sweep", "--variant", "thm2", "--discriminant", "--resolution", "8", "--no-bisect"],
    SMALL_SWEEP + ["--k", "0.3"],
    SMALL_SWEEP + ["--gamma", "9"],
    SMALL_SWEEP + ["--epsilon", "4"],
    SMALL_SWEEP + ["--delta", "0.2"],
    SMALL_THM2_SWEEP + ["--alpha", "9"],
    SMALL_THM2_SWEEP + ["--beta", "7"],
    TINY_FLOW + ["--cone", "thm1", "--k", "0.1", "--gamma", "3"],
    TINY_FLOW + ["--cone", "thm2", "--alpha", "0.9"],
    SMALL_THM2_SWEEP + ["--gamma", "0.1", "--delta", "0.2"],
    TINY_FLOW + ["--cone", "thm2", "--gamma", "0.1", "--delta", "0.2"],
    TINY_FLOW + ["--cfl", "nan"],
    TINY_FLOW + ["--cfl", "inf"],
    TINY_FLOW + ["--t-max", "nan"],
    TINY_FLOW + ["--t-max", "inf"],
    TINY_FLOW + ["--sigma", "nan"],
    TINY_FLOW + ["--ceiling", "inf"],
    TINY_FLOW + ["--flat-threshold=-inf"],
], ids=["cone_constants_without_cone", "delta_without_cone", "direction7_zero_amplitude",
        "negative_mode_zero_amplitude", "thm2_discriminant", "thm1_sweep_k",
        "thm1_sweep_gamma", "thm1_sweep_epsilon", "thm1_sweep_delta", "thm2_sweep_alpha",
        "thm2_sweep_beta", "thm1_flow_thm2_constants", "thm2_flow_alpha",
        "thm2_sweep_gamma_delta", "thm2_flow_gamma_delta", "flow_cfl_nan", "flow_cfl_inf",
        "flow_t_max_nan", "flow_t_max_inf", "flow_sigma_nan", "flow_ceiling_inf",
        "flow_flat_threshold_neg_inf"])
def test_options_that_would_be_ignored_exit_2(tmp_path, capsys, argv):
    assert main(argv + ["--output-dir", str(tmp_path)]) == 2
    assert "configuration error" in capsys.readouterr().err
    assert not list(tmp_path.glob("*.json"))


def test_rkl2_cfl_past_its_stability_bound_exits_2(tmp_path, capsys):
    """At cfl 10 rkl2's super-steps would reach 35 times the stability bound:
    the flow is refused before its first step and writes nothing."""
    assert main(TINY_FLOW + ["--cfl", "10", "--output-dir", str(tmp_path)]) == 2
    assert "stability bound" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("argv,name", [
    (SMALL_SWEEP + ["--alpha", "inf"], "alpha"),
    (SMALL_SWEEP + ["--beta", "nan"], "beta"),
    (SMALL_THM2_SWEEP + ["--k", "inf"], "k"),
    (TINY_FLOW + ["--cone", "thm1", "--alpha", "nan"], "alpha"),
    (TINY_FLOW + ["--cone", "thm2", "--delta", "inf"], "delta"),
], ids=["sweep_alpha_inf", "sweep_beta_nan", "thm2_sweep_k_inf", "flow_alpha_nan",
        "thm2_flow_delta_inf"])
def test_non_finite_cone_constant_exits_2(tmp_path, capsys, argv, name):
    """A non-finite constant is rejected by name before it can turn the
    reactions or the monitored Q into NaN."""
    assert main(argv + ["--output-dir", str(tmp_path)]) == 2
    assert "%s must be finite" % name in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_flow_has_no_dimension_option(tmp_path):
    """Flow cones are surface cones (n = 2), so flow takes no --n."""
    with pytest.raises(SystemExit) as exc:
        main(TINY_FLOW + ["--cone", "thm1", "--n", "3", "--output-dir", str(tmp_path)])
    assert exc.value.code == 2
    assert main(TINY_FLOW + ["--cone", "thm1", "--alpha", "0.9",
                             "--output-dir", str(tmp_path)]) == 0
    cone = read_json(tmp_path / "flow.json")["config"]["cone"]
    assert (cone["n"], cone["alpha"]) == (2, 0.9)


def test_sweep_artifact_is_machine_independent(tmp_path):
    """The sweep artifact records nothing of the machine, such as a thread
    count, so a rerun writes the same bytes."""
    texts = []
    for _ in range(2):
        assert main(SMALL_SWEEP + ["--output-dir", str(tmp_path)]) == 0
        texts.append((tmp_path / "sweep_thm1_full.json").read_bytes())
    assert texts[0] == texts[1]
    assert "threads" not in read_json(tmp_path / "sweep_thm1_full.json")["config"]


@pytest.mark.parametrize("option", [["--gamma", "0.05"], ["--epsilon", "0.1"]],
                         ids=["gamma", "epsilon"])
def test_thm2_critical_search_keeps_default_rules(tmp_path, capsys, option):
    """The critical-k search moves gamma and epsilon with k by their default
    rules, so a bisected thm2 sweep would drop an explicit gamma or epsilon:
    it exits 2 and names --no-bisect, which sweeps the given cone."""
    argv = ["sweep", "--variant", "thm2", "--resolution", "8"] + option
    assert main(argv + ["--output-dir", str(tmp_path)]) == 2
    assert "--no-bisect" in capsys.readouterr().err
    assert not list(tmp_path.glob("*.json"))
    assert main(argv + ["--no-bisect", "--output-dir", str(tmp_path)]) == 0
    config = read_json(tmp_path / "sweep_thm2_full.json")["config"]
    assert config[option[0][2:]] == float(option[1])


@pytest.mark.parametrize("argv", [
    SMALL_SWEEP,
    ["canonical", "--surface", "veronese"],
    ["flow", "--surface", "flat-torus", "--nu", "8", "--nv", "8", "--t-max", "0.001"],
    ["report"],
], ids=["sweep", "canonical", "flow", "report"])
def test_seed_is_a_verify_option_only(tmp_path, argv):
    """Only verify draws random numbers, so only verify takes --seed."""
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--seed", "1", "--output-dir", str(tmp_path)])
    assert exc.value.code == 2
    assert main(argv + ["--output-dir", str(tmp_path)]) == 0
    for path in tmp_path.glob("*.json"):
        assert "seed" not in read_json(path)["config"]


def test_flow_rerun_is_byte_identical(tmp_path):
    """Two runs of one flow write the same bytes (the config's output_dir aside)."""
    runs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert main(["flow", "--surface", "flat-torus", "--nu", "16", "--nv", "16",
                     "--cone", "thm1", "--stride", "1", "--t-max", "0.01",
                     "--output-dir", str(out)]) == 0
        runs.append(out)
    a, b = runs
    for name in ("monitor.csv", "snapshot_initial.txt", "snapshot_final.txt"):
        assert (a / name).read_bytes() == (b / name).read_bytes(), name
    ja, jb = read_json(a / "flow.json"), read_json(b / "flow.json")
    assert ja["config"].pop("output_dir") == str(a)
    assert jb["config"].pop("output_dir") == str(b)
    assert ja == jb
    assert ja["records"] > 1
