"""Command-line front end: exit codes, file outputs, determinism."""

import json
import threading

import numpy as np
import pytest

import swelab.cli as cli
import swelab.diagnostics as diagnostics


def test_list_schemes(capsys):
    assert cli.main(["list-schemes"]) == 0
    out = capsys.readouterr().out
    assert "roe" in out and "modified-hr" in out
    assert "subsonic" in out and "not implemented" in out


def test_unimplemented_scheme_exits_1(capsys):
    rc = cli.main(["run", "--test", "3", "--scheme", "subsonic"])
    assert rc == 1
    assert "subsonic" in capsys.readouterr().err


def test_usage_errors_exit_2():
    assert cli.main(["run", "--test", "3", "--scheme", "hllc"]) == 2
    assert cli.main(["run", "--test", "9", "--scheme", "roe"]) == 2
    assert cli.main(["run", "--test", "3", "--scheme", "roe", "--param", "oops"]) == 2
    assert cli.main(["run", "--test", "3", "--scheme", "roe", "--until", "never"]) == 2
    assert cli.main(["convergence", "--test", "2", "--scheme", "roe"]) == 2
    assert cli.main([]) == 2


def test_run_writes_snapshot_and_summary(tmp_path):
    rc = cli.main([
        "run", "--test", "3", "--scheme", "roe", "--cells", "40",
        "--until", "time=0.05", "--out", str(tmp_path),
    ])
    assert rc == 0
    snap = tmp_path / "snapshot_final.csv"
    lines = snap.read_text().splitlines()
    assert lines[0] == "x,H,h,q,eta,u,fr2"
    assert len(lines) == 41
    row = [float(v) for v in lines[1].split(",")]
    x, H, h, q, eta, u, fr2 = row
    assert eta == pytest.approx(h - H, rel=1e-15)
    assert u == pytest.approx(q / h, rel=1e-12)
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert list(summary) == ["test", "scheme", "params", "metadata"]
    assert summary["test"] == 3 and summary["scheme"] == "roe"
    assert summary["metadata"]["omega_split_form"] == "half"


def test_run_is_deterministic(tmp_path):
    argv = ["run", "--test", "6", "--scheme", "force-hr", "--cells", "30",
            "--until", "time=0.2"]
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert cli.main(argv + ["--out", str(out1)]) == 0
    assert cli.main(argv + ["--out", str(out2)]) == 0
    assert (out1 / "snapshot_final.csv").read_bytes() == \
        (out2 / "snapshot_final.csv").read_bytes()
    assert (out1 / "summary.json").read_bytes() == (out2 / "summary.json").read_bytes()


def test_sweep_outputs_ordered_rows(tmp_path):
    rc = cli.main([
        "sweep", "--test", "3", "--scheme", "hr", "--scheme", "roe",
        "--cells", "40", "--until", "time=0.05",
        "--sweep", "H_r=0.2,0.3", "--out", str(tmp_path),
    ])
    assert rc == 0
    lines = (tmp_path / "sweep.csv").read_text().splitlines()
    assert lines[0].startswith("H_r,scheme,h_l,h_r,")
    assert len(lines) == 5
    # rows come out in (value, scheme) order regardless of worker timing
    got = [tuple(l.split(",")[:2]) for l in lines[1:]]
    assert got == [("0.20000000000000001", "hr"), ("0.20000000000000001", "roe"),
                   ("0.29999999999999999", "hr"), ("0.29999999999999999", "roe")]


def test_sweep_runs_on_the_calling_thread(tmp_path, monkeypatch):
    threads = []
    real_run = cli.run

    def recording_run(*args, **kwargs):
        threads.append(threading.current_thread())
        return real_run(*args, **kwargs)

    monkeypatch.setattr(cli, "run", recording_run)
    rc = cli.main(["sweep", "--test", "3", "--scheme", "hr", "--scheme", "roe",
                   "--cells", "20", "--until", "time=0.02", "--sweep", "H_r=0.2,0.3",
                   "--out", str(tmp_path)])
    assert rc == 0
    assert threads == [threading.current_thread()] * 4


def test_sweep_jobs_accepts_only_one(tmp_path, capsys):
    argv = ["sweep", "--test", "3", "--scheme", "hr", "--cells", "20",
            "--until", "time=0.02", "--sweep", "H_r=0.2", "--out", str(tmp_path)]
    assert cli.main(argv + ["--jobs", "2"]) == 2
    assert "--jobs" in capsys.readouterr().err
    assert not (tmp_path / "sweep.csv").exists()
    assert cli.main(argv + ["--jobs", "1"]) == 0


@pytest.mark.parametrize("command,extra", [
    ("sweep", ["--sweep", "H_r=0.2,0.3", "--test", "3"]),
    ("convergence", ["--test", "6"]),
])
def test_every_scheme_is_checked_before_the_first_run(tmp_path, monkeypatch, capsys,
                                                      command, extra):
    calls = []

    def no_run(*args, **kwargs):  # not an input error, so the sweep would let it out
        calls.append(args)
        raise AssertionError("run called before every scheme was checked")

    monkeypatch.setattr(cli, "run", no_run)
    monkeypatch.setattr(diagnostics, "run", no_run)
    monkeypatch.setattr(cli, "_LADDER", (25, 50))
    rc = cli.main([command, *extra, "--scheme", "hr", "--scheme", "hllc",
                   "--cells", "20", "--until", "time=0.02", "--out", str(tmp_path)])
    assert calls == []
    assert rc == 2
    assert "hllc" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_sweep_records_failed_rows(tmp_path, capsys):
    rc = cli.main([
        "sweep", "--test", "3", "--scheme", "hr", "--cells", "40",
        "--until", "time=0.05", "--sweep", "H_r=0.2,-1.0",
        "--out", str(tmp_path),
    ])
    assert rc == 0  # the sweep completes; the bad value is recorded in-row
    lines = (tmp_path / "sweep.csv").read_text().splitlines()
    assert "ValueError" in lines[2]
    assert "failed rows" in capsys.readouterr().out


def test_sweep_lets_a_program_error_out(tmp_path, monkeypatch):
    def broken_run(*args, **kwargs):
        raise AssertionError("boom")

    monkeypatch.setattr(cli, "run", broken_run)
    with pytest.raises(AssertionError, match="boom"):
        cli.main(["sweep", "--test", "3", "--scheme", "hr", "--cells", "20",
                  "--until", "time=0.02", "--sweep", "H_r=0.2", "--out", str(tmp_path)])
    assert not (tmp_path / "sweep.csv").exists()


def test_sweep_row_without_a_step_has_no_residual(tmp_path):
    rc = cli.main(["sweep", "--test", "3", "--scheme", "hr", "--cells", "20",
                   "--until", "time=0", "--sweep", "H_r=0.2", "--out", str(tmp_path)])
    assert rc == 0
    row = (tmp_path / "sweep.csv").read_text().splitlines()[1].split(",")
    assert row[4] == "nan" and row[5] == "0" and row[6] == ""


def test_convergence_outputs(tmp_path, monkeypatch):
    monkeypatch.setattr(cli, "_LADDER", (25, 50))
    rc = cli.main([
        "convergence", "--test", "6", "--scheme", "roe",
        "--bound", "0.05", "--out", str(tmp_path),
    ])
    assert rc == 0
    lines = (tmp_path / "convergence.csv").read_text().splitlines()
    assert lines[0] == "scheme,dH,dl,n_cells,l1_error,met_bound"
    assert len(lines) == 3
    needed = json.loads((tmp_path / "cells_needed.json").read_text())
    assert needed["bound"] == 0.05
    assert needed["cells_needed"]["roe"] in (25, 50)


def test_run_prints_why_it_stopped(tmp_path, capsys):
    """force-wb on test 5 is still unsteady at the 2.5 s backstop."""
    rc = cli.main(["run", "--test", "5", "--scheme", "force-wb", "--cells", "50",
                   "--until", "steady", "--out", str(tmp_path)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "steady=False stop=max_time " in out
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert "stop_reason" not in summary["metadata"]


def test_config_file_fills_defaults(tmp_path):
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text("cells = 30   # small grid\nuntil = time=0.05\n")
    rc = cli.main([
        "run", "--test", "3", "--scheme", "roe",
        "--config", str(cfgfile), "--out", str(tmp_path),
    ])
    assert rc == 0
    lines = (tmp_path / "snapshot_final.csv").read_text().splitlines()
    assert len(lines) == 31  # the config's cell count was used
    bad = tmp_path / "bad.cfg"
    bad.write_text("gravity = 10\n")
    assert cli.main(["run", "--test", "3", "--scheme", "roe",
                     "--config", str(bad)]) == 2


def test_command_line_flags_win_over_the_config_file(tmp_path):
    """A flag given at its default value still beats the file."""
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text("cfl = 0.5\ncells = 30\nuntil = time=0.05\n")
    rc = cli.main(["run", "--test", "3", "--scheme", "roe", "--cfl", "0.9",
                   "--config", str(cfgfile), "--out", str(tmp_path)])
    assert rc == 0
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["metadata"]["cfl"] == 0.9
    assert summary["metadata"]["n_cells"] == 30


def test_config_file_values_meet_the_flag_checks(tmp_path, capsys):
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text("gate = typo\ncells = 30\nuntil = time=0.05\n")
    assert cli.main(["run", "--test", "3", "--scheme", "roe",
                     "--config", str(cfgfile), "--out", str(tmp_path)]) == 2
    assert "typo" in capsys.readouterr().err
    assert cli.main(["run", "--test", "3", "--scheme", "roe",
                     "--config", str(tmp_path / "missing.cfg")]) == 1


def test_snapshot_round_trips_at_full_precision(tmp_path):
    rc = cli.main([
        "run", "--test", "2", "--scheme", "roe", "--cells", "30",
        "--until", "time=0.1", "--out", str(tmp_path),
    ])
    assert rc == 0
    data = np.genfromtxt(tmp_path / "snapshot_final.csv", delimiter=",", names=True)
    # 17 significant digits survive the text round trip losslessly
    assert np.all(data["eta"] == data["h"] - data["H"])
