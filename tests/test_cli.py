"""End-to-end exercises of the command line driver (in-process)."""

import json

import numpy as np
import pytest

from pinchflow.cli import main


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
    ["flow", "--surface", "flat-torus", "--nu", "8", "--nv", "8", "--stride", "0"],
    ["flow", "--surface", "flat-torus", "--nu", "8", "--nv", "8", "--stride", "-5"],
    ["flow", "--surface", "flat-torus", "--nu", "8", "--nv", "8", "--flat-window", "0"],
], ids=["trials0", "trials-3", "stride0", "stride-5", "flat_window0"])
def test_bad_counts_exit_2(tmp_path, capsys, argv):
    assert main(argv + ["--output-dir", str(tmp_path)]) == 2
    assert "configuration error" in capsys.readouterr().err


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
