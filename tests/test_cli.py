"""End-to-end tests for the command-line interface."""

import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import nfbf.codebook
from nfbf.cli import main
from nfbf.codebook import build_codebook, export_codebook_csv
from nfbf.geometry import ArrayConfig
from nfbf.harness import CSV_HEADER


def _run(argv):
    out = io.StringIO()
    err = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def _write_config(tmp_path, **kw):
    doc = dict(
        experiment="sumrate-vs-snr",
        schemes=["steer-perfect", "hbf-zf-perfect"],
        trials=2,
        sweep=[0.0, 10.0],
        n_bs=16,
        k=2,
        l=2,
        n_dis=10,
    )
    doc.update(kw)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    return str(path)


def test_run_writes_deterministic_csv(tmp_path):
    cfg = _write_config(tmp_path)
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    code1, _, _ = _run(["run", "--config", cfg, "--out", str(out1)])
    code2, _, _ = _run(["run", "--config", cfg, "--out", str(out2)])
    assert code1 == 0 and code2 == 0
    text = out1.read_text()
    assert text == out2.read_text()
    lines = text.splitlines()
    assert lines[0] == ",".join(CSV_HEADER)
    assert len(lines) == 1 + 2 * 2


def test_run_stdout_json(tmp_path):
    cfg = _write_config(tmp_path, schemes=["steer-perfect"], sweep=[5.0])
    code, out, _ = _run(["run", "--config", cfg, "--format", "json"])
    assert code == 0
    rows = json.loads(out)
    assert len(rows) == 1
    assert rows[0]["scheme"] == "steer-perfect"
    assert rows[0]["sweep"] == 5.0
    assert rows[0]["trials"] == 2


def test_run_overrides_seed_trials_and_snr(tmp_path):
    cfg = _write_config(tmp_path, schemes=["steer-perfect"])
    # values starting with a dash must use the --flag=value form
    code, out, _ = _run(
        ["run", "--config", cfg, "--trials", "1", "--seed", "3", "--snr-db=-5,5"]
    )
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 1 + 2
    assert lines[1].startswith("-5.0,steer-perfect,sum_rate,")
    assert lines[2].startswith("5.0,steer-perfect,sum_rate,")
    assert lines[1].endswith(",1")
    # a different seed changes the numbers
    code2, out2, _ = _run(
        ["run", "--config", cfg, "--trials", "1", "--seed", "4", "--snr-db=-5,5"]
    )
    assert code2 == 0 and out2 != out


def test_run_without_config_uses_defaults_scaled_down(tmp_path):
    # no config: defaults would be heavy, so shrink everything via overrides
    cfg = _write_config(tmp_path, schemes=["steer-perfect"], sweep=[0.0])
    code, out, _ = _run(["run", "--config", cfg, "--nbs", "8", "--k", "1"])
    assert code == 0
    assert out.splitlines()[1].endswith(",2")


def test_scalar_override_errors_on_lists(tmp_path):
    cfg = _write_config(tmp_path, experiment="sumrate-vs-k", sweep=[1, 2])
    code, _, err = _run(["run", "--config", cfg, "--snr-db", "0,10"])
    assert code == 2
    assert "error:" in err
    cfg2 = _write_config(tmp_path, schemes=["steer-perfect"])
    code2, _, err2 = _run(["run", "--config", cfg2, "--k", "2,4"])
    assert code2 == 2
    assert "error:" in err2


@pytest.mark.parametrize(
    "experiment, flag, values",
    [
        pytest.param("sumrate-vs-snr", "--snr-db", ("0.0", "10.0"), id="snr-db"),
        pytest.param("ee-vs-snr", "--snr-db", ("0.0", "10.0"), id="ee-snr-db"),
        pytest.param("sumrate-vs-nbs", "--nbs", ("8", "16"), id="nbs"),
        pytest.param("sumrate-vs-k", "--k", ("1", "2"), id="k"),
    ],
)
def test_sweep_experiment_accepts_list_override(tmp_path, experiment, flag, values):
    cfg = _write_config(tmp_path, experiment=experiment, schemes=["steer-perfect"], sweep=[3])
    code, out, _ = _run(["run", "--config", cfg, flag, ",".join(values)])
    assert code == 0
    sweeps = [line.split(",")[0] for line in out.splitlines() if ",sum_rate," in line]
    assert sweeps == list(values)


@pytest.mark.parametrize("experiment", ["sumrate-vs-nbs", "sumrate-vs-k", "aux-sweep"])
def test_non_integral_sweep_value_on_an_int_axis_exits_2(tmp_path, experiment):
    schemes = ["aobf-imperfect"] if experiment == "aux-sweep" else ["steer-perfect"]
    cfg = _write_config(tmp_path, experiment=experiment, schemes=schemes, sweep=[2, 2.5])
    code, out, err = _run(["run", "--config", cfg])
    assert code == 2 and "error:" in err and "2.5" in err
    assert out == ""


def test_a_repeated_sweep_value_exits_2(tmp_path):
    cfg = _write_config(tmp_path)
    code, out, err = _run(["run", "--config", cfg, "--snr-db", "0,0"])
    assert code == 2 and "error:" in err and "repeats an earlier value" in err
    assert out == ""
    code, out, err = _run(["run", "--snr-db", "0,0", "--trials", "1"])
    assert code == 2 and "repeats an earlier value" in err


def test_malformed_config_exits_2(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{ not json")
    code, _, err = _run(["run", "--config", str(bad)])
    assert code == 2 and "error:" in err
    unknown = tmp_path / "unknown.json"
    unknown.write_text(json.dumps({"experiment": "sumrate-vs-snr", "typo": 1}))
    code2, _, err2 = _run(["run", "--config", str(unknown)])
    assert code2 == 2 and "error:" in err2
    missing = tmp_path / "does-not-exist.json"
    code3, _, err3 = _run(["run", "--config", str(missing)])
    assert code3 == 2 and "error:" in err3
    for command, doc in (
        ("run", {"mm": 5}),
        ("run", {"trials": "5"}),
        ("run", {"schemes": 5}),
        ("run", {"spacing": "x"}),
        ("run", {"power": {"includes_baseband": False}}),
        ("run", {"power": {"p_tx": 1}}),
        ("pattern", {"pattern_locations": [5]}),
        ("pattern", {"pattern_locations": [["a", 2]]}),
        ("pattern", {"pattern_locations": []}),
    ):
        experiment = "beam-pattern" if command == "pattern" else "sumrate-vs-snr"
        wrong = tmp_path / "wrong.json"
        wrong.write_text(json.dumps(dict(experiment=experiment, **doc)))
        code4, _, err4 = _run([command, "--config", str(wrong)])
        assert code4 == 2 and "error:" in err4, doc
        assert next(iter(doc)) in err4, err4  # the key at fault, not a later failure


@pytest.mark.parametrize(
    "doc",
    [{"n_dis": 0}, {"beta": -1.0}, {"r_count": 0}, {"s_count": 0},
     {"experiment": "aux-sweep", "schemes": ["aobf-imperfect"], "sweep": [0]}],
)
def test_run_exits_2_on_a_bad_codebook_field(tmp_path, doc):
    code, out, err = _run(["run", "--config", _write_config(tmp_path, **doc)])
    assert code == 2 and out == ""
    assert "must be" in err, err


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize("doc, field", [
    *(({name: bad}, name) for name in ("wavelength", "spacing", "beta", "snr_db", "p",
                                       "pilot_noise_factor") for bad in (NAN, INF)),
    ({"wavelength": -INF}, "wavelength"),
    ({"snr_db": -INF}, "snr_db"),
    ({"sweep": [0.0, NAN]}, "snr_db"),
    ({"sweep": [INF]}, "snr_db"),
    ({"experiment": "sumrate-vs-nbs", "sweep": [16, NAN]}, "nan"),
    *(({"mm": {"omega": bad}}, "omega") for bad in (NAN, INF)),
    *(({"mm": {"epsilon": bad}}, "epsilon") for bad in (NAN, -INF)),
    *(({"power": {name: bad}}, name) for name in ("p_rf", "p_ps", "p_bb") for bad in (NAN, INF)),
])
def test_run_exits_2_on_a_non_finite_number(tmp_path, doc, field):
    # each is rejected where the config is read or its sweep values cast,
    # before any codebook is built or trial drawn
    code, out, err = _run(["run", "--config", _write_config(tmp_path, **doc)])
    assert code == 2 and out == ""
    assert "error:" in err and field in err, err


@pytest.mark.parametrize("command, experiment, value", [
    ("run", "sumrate-vs-snr", "nan"),
    ("run", "sumrate-vs-snr", "0,inf"),
    ("run", "sumrate-vs-snr", "-inf"),
    ("run", "sumrate-vs-nbs", "nan"),  # not swept there: the flag sets the field
    ("pattern", "beam-pattern", "nan"),
    ("pattern", "beam-pattern", "inf"),
])
def test_a_non_finite_snr_flag_exits_2(tmp_path, command, experiment, value):
    cfg = _write_config(tmp_path, experiment=experiment,
                        sweep=[16] if experiment == "sumrate-vs-nbs" else [])
    code, out, err = _run([command, "--config", cfg, f"--snr-db={value}"])
    assert code == 2 and out == ""
    assert "snr_db must be finite" in err, err


@pytest.mark.parametrize("command, experiment, value", [
    ("run", "sumrate-vs-snr", "4000"),  # 10^400 overflows
    ("run", "sumrate-vs-snr", "-4000"),  # 10^-400 is 0
    ("run", "sumrate-vs-nbs", "4000"),  # not swept there: the flag sets the field
    ("run", "sumrate-vs-nbs", "-4000"),
    ("pattern", "beam-pattern", "4000"),
    ("pattern", "beam-pattern", "-4000"),
])
def test_an_snr_flag_with_no_finite_noise_power_exits_2(tmp_path, command, experiment, value):
    cfg = _write_config(tmp_path, experiment=experiment,
                        sweep=[16] if experiment == "sumrate-vs-nbs" else [])
    code, out, err = _run([command, "--config", cfg, f"--snr-db={value}"])
    assert code == 2 and out == ""
    assert "snr_db" in err and "noise power" in err, err


def test_a_non_finite_pattern_radius_exits_2(tmp_path):
    cfg = _write_config(tmp_path, experiment="beam-pattern", pattern_locations=[[10.0, NAN]])
    code, out, err = _run(["pattern", "--config", cfg])
    assert code == 2 and out == ""
    assert "radius" in err, err


def test_a_repeated_scheme_exits_2(tmp_path):
    cfg = _write_config(tmp_path, schemes=["steer-perfect", "hbf-zf-perfect", "steer-perfect"])
    code, out, err = _run(["run", "--config", cfg])
    assert code == 2 and out == ""
    assert "repeated schemes: ['steer-perfect']" in err, err


def _peak_rss_mb(src: str, *argv) -> float:
    """The peak RSS, in MB, of a child Python run with argv and src on its path."""
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    proc = subprocess.Popen([sys.executable, *argv], env=env,
                            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    _, status, usage = os.wait4(proc.pid, 0)
    assert os.waitstatus_to_exitcode(status) == 0
    return usage.ru_maxrss / 1024  # Linux reports kilobytes


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="ru_maxrss is in kB on Linux")
def test_a_multi_array_run_holds_one_basis_at_a_time(tmp_path):
    # N = 64, 128 and 256 with the imperfect schemes: the run's peak stays
    # within 20 MB of a process that only builds the N = 256 codebook (84 MB
    # of basis). Holding the N = 64 and 128 bases with it adds 26 MB; on a
    # 2-core x86-64 box the run's peak read 8.6 MB above the build's, and
    # 34 MB above it when every basis lived through every sweep.
    src = str(Path(__file__).resolve().parents[1] / "src")
    cfg = _write_config(tmp_path, experiment="sumrate-vs-nbs", sweep=[64, 128, 256], trials=1,
                        n_dis=320, k=4, l=3,
                        schemes=["aobf-imperfect", "steer-imperfect", "hbf-zf-imperfect",
                                 "hbf-wmmse-imperfect"])
    run = _peak_rss_mb(src, "-m", "nfbf", "run", "--config", cfg)
    build = _peak_rss_mb(src, "-c", "import nfbf; from nfbf.codebook import build_codebook; "
                                    "build_codebook(nfbf.geometry.ArrayConfig(n_bs=256))")
    assert run - build <= 20.0, (run, build)


def test_run_exits_2_on_a_codebook_too_large_for_memory():
    # N = 200 000 would need about 1e14 bytes; the run fails before allocating
    if nfbf.codebook._available_memory() is None:
        pytest.skip("no readable memory figure on this platform")
    code, out, err = _run(["run", "--nbs", "200000", "--trials", "1"])
    assert code == 2
    assert out == ""
    assert "GB of memory available" in err


def test_codebook_export(tmp_path):
    out = tmp_path / "cb.csv"
    code, stdout, _ = _run(["codebook", "--nbs", "8", "--out", str(out)])
    assert code == 0
    assert "wrote 2560 codewords" in stdout
    lines = out.read_text().splitlines()
    assert lines[0] == "p,q,angle_rad,radius_wavelengths"
    assert len(lines) == 1 + 8 * 320
    code2, _, err = _run(["codebook", "--nbs", "8"])
    assert code2 == 2 and "needs --out" in err


def test_codebook_export_needs_no_memory_for_the_basis(tmp_path, monkeypatch):
    # the export writes the grid, so a memory figure below the N = 64 basis,
    # which build_codebook refuses, still writes the full codebook's CSV
    want, got = tmp_path / "want.csv", tmp_path / "got.csv"
    cfg = ArrayConfig(n_bs=64)
    export_codebook_csv(build_codebook(cfg), str(want))
    basis = 32 * 320 * 64 * 8
    monkeypatch.setattr(nfbf.codebook, "_available_memory", lambda: basis - 1)
    with pytest.raises(ValueError, match="GB of memory available"):
        build_codebook(cfg)
    code, stdout, _ = _run(["codebook", "--nbs", "64", "--out", str(got)])
    assert code == 0 and "wrote 20480 codewords" in stdout
    assert got.read_bytes() == want.read_bytes()


def test_module_form_runs_without_installing(tmp_path):
    out = tmp_path / "cb.csv"
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    proc = subprocess.run([sys.executable, "-m", "nfbf", "codebook", "--nbs", "4", "--out", str(out)],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert len(out.read_text().splitlines()) == 1 + 4 * 320


def test_pattern_prints_gain_table(tmp_path):
    cfg = _write_config(
        tmp_path,
        experiment="beam-pattern",
        schemes=["steer-perfect"],
        n_bs=16,
    )
    out = tmp_path / "pattern.csv"
    code, stdout, _ = _run(["pattern", "--config", cfg, "--out", str(out)])
    assert code == 0
    assert "UE1" in stdout and "steer-perfect" in stdout
    lines = out.read_text().splitlines()
    assert lines[0] == "scheme,angle_deg,radius,gain_db"
    assert len(lines) == 1 + 181 * 30


def test_pattern_exits_2_on_a_singular_zero_forcing_channel(tmp_path):
    # two users at one point give the effective channel two equal columns
    cfg = _write_config(
        tmp_path,
        experiment="beam-pattern",
        schemes=["hbf-zf-perfect"],
        n_bs=16,
        pattern_locations=[[10.0, 50.0], [10.0, 50.0]],
    )
    code, out, err = _run(["pattern", "--config", cfg])
    assert code == 2
    assert out == ""
    assert "effective channel condition number > 1e12" in err


def test_selftest_passes_and_exits_zero():
    code, out, _ = _run(["selftest", "--seed", "0"])
    assert code == 0
    assert "checks passed" in out
    head = out.splitlines()[0]
    assert head.startswith("ok") or head.startswith("PASS") or "ok" in head


def test_missing_subcommand_is_usage_error():
    with pytest.raises(SystemExit):
        main([])


@pytest.mark.parametrize("argv", [
    ["pattern", "--k", "5"],
    ["codebook", "--snr-db", "5", "--out", "cb.csv"],
])
def test_a_list_flag_the_subcommand_ignores_exits_2(argv, capsys):
    # pattern designs its own users and codebook reads neither users nor SNR
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err
