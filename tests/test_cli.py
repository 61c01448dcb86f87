"""CLI behavior: subcommands, CSV format, determinism, exit codes."""

import dataclasses
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from eislab import moments, weights
from eislab.cli import main
from eislab.eisenstein import SpectralSetup

DATA = Path(__file__).resolve().parents[1] / "data" / "maass_forms.csv"


def run_cli(args, env_extra=None):
    env = dict(os.environ, SOURCE_DATE_EPOCH="1754784000")
    env.update(env_extra or {})
    return subprocess.run([sys.executable, "-m", "eislab.cli", *args],
                          capture_output=True, text=True, env=env)


class TestMaassSelbergCommand:
    def test_green_run_and_row_quality(self, tmp_path):
        out = tmp_path / "ms.csv"
        r = run_cli(["maass-selberg", "--T", "10", "--A", "2", "--out", str(out)])
        assert r.returncode == 0
        lines = out.read_text().splitlines()
        assert lines[0].startswith("# generated 2025-08-")
        assert lines[1] == "T,A,closed,quadrature,rel_err"
        rel = float(lines[2].rsplit(",", 1)[1])
        assert rel <= 1e-5

    def test_missing_grid_is_usage_error(self):
        r = run_cli(["maass-selberg", "--T", "5"])
        assert r.returncode == 2

    def test_loosened_gate(self, tmp_path):
        # the p=2 gate lives in eislab.acceptance; there is no flag to loosen it
        out = tmp_path / "ms.csv"
        r = run_cli(["maass-selberg", "--T", "10", "--A", "2",
                     "--tol", "1e-3", "--out", str(out)])
        assert r.returncode == 2
        assert not out.exists()


class TestMomentSweepCommand:
    def test_rows_and_plot_script(self, tmp_path):
        out = tmp_path / "sweep.csv"
        r = run_cli(["moment-sweep", "--T", "10", "--A", "1.5,2", "--out", str(out)])
        assert r.returncode == 0
        lines = out.read_text().splitlines()
        assert lines[1] == "T,A,p,value,err,prediction,ratio,gaussian_ratio"
        rows = [ln.split(",") for ln in lines[2:]]
        assert {row[2] for row in rows} == {"2", "4"}
        for row in rows:
            if row[2] == "4":
                assert float(row[5]) == pytest.approx(
                    (36 / math.pi) * math.log(float(row[0])) ** 2, rel=1e-12)
                assert float(row[6]) > 0 and math.isfinite(float(row[6]))
                res = moments.fourth_moment(SpectralSetup(T=float(row[0]), A=float(row[1])),
                                            tol=math.inf)
                assert row[7] == repr(res.gaussian_ratio)
            else:
                assert row[7] == ""
        gp = tmp_path / "sweep.gp"
        assert gp.exists() and "logscale" in gp.read_text()

    def test_byte_identical_reruns(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run_cli(["moment-sweep", "--T", "10", "--A", "1.5", "--out", str(a)])
        run_cli(["moment-sweep", "--T", "10", "--A", "1.5", "--out", str(b)])
        assert a.read_text() == b.read_text()


class TestConfigFile:
    def test_key_value_config(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("T = 10\nA = 2\n# a comment\n")
        out = tmp_path / "o.csv"
        r = run_cli(["maass-selberg", "--config", str(cfg), "--out", str(out)])
        assert r.returncode == 0
        assert out.exists()

    @pytest.mark.parametrize("key", ["bogus", "alpha", "B"])
    def test_bad_key_rejected(self, tmp_path, key):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{key} = 1\n")
        r = run_cli(["maass-selberg", "--config", str(cfg)])
        assert r.returncode == 2

    def test_flag_overrides_config(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("T = 10\nA = 77\n")  # A invalid-ish but overridden
        out = tmp_path / "o.csv"
        r = run_cli(["maass-selberg", "--config", str(cfg), "--A", "2",
                     "--out", str(out)])
        assert r.returncode == 0
        assert ",2.0," in out.read_text().splitlines()[2]


class TestKuznetsovCommand:
    def test_rejects_bad_csv(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("t,parity,n,lambda\n5.0,even,1,0.9\n")
        r = run_cli(["kuznetsov", "--quick", "--forms", str(bad)])
        assert r.returncode != 0

    def test_quick_report(self, tmp_path):
        out = tmp_path / "kz.csv"
        r = run_cli(["kuznetsov", "--quick", "--forms", str(DATA),
                     "--out", str(out)])
        assert r.returncode == 0
        lines = out.read_text().splitlines()
        assert lines[1] == "n,m,c_max,spectral,geometric,closure,tail_estimate"
        assert any(ln.startswith("1,1,") for ln in lines[2:])


def test_in_process_entry_point(tmp_path):
    out = tmp_path / "x.csv"
    code = main(["maass-selberg", "--T", "5", "--A", "1.5", "--out", str(out)])
    assert code == 0
    assert out.exists()


def test_wrong_phase_second_moment_fails_both_commands(monkeypatch, tmp_path):
    # the conjugate has the closed form's modulus; only a complex check sees it
    res = moments.fourth_moment(SpectralSetup(T=10.0, A=1.5), tol=math.inf)
    bad = dataclasses.replace(res, second_moment=res.second_moment.conjugate())
    monkeypatch.setattr(moments, "fourth_moment", lambda setup, tol: bad)
    for command in ("maass-selberg", "moment-sweep"):
        assert main([command, "--T", "10", "--A", "1.5",
                     "--out", str(tmp_path / "o.csv")]) == 1


def test_nan_second_moment_error_fails_both_commands(monkeypatch, tmp_path):
    # a NaN residual is no pass: max(0.0, nan) is 0.0, but nan < tol is False
    monkeypatch.setattr(moments, "second_moment_error",
                        lambda res: (res.second_moment, math.nan))
    for command in ("maass-selberg", "moment-sweep"):
        assert main([command, "--T", "10", "--A", "1.5",
                     "--out", str(tmp_path / "o.csv")]) == 1


class TestWeightsAuditCommand:
    def test_rows_and_exit_codes(self, tmp_path, monkeypatch):
        out = tmp_path / "w.csv"
        assert main(["weights-audit", "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[1] == "check,value,threshold,status"
        rows = [ln.split(",") for ln in lines[2:]]
        assert len(rows) == 9
        assert all(row[3] == "pass" and float(row[1]) < float(row[2]) for row in rows)
        # one weight NaN: its rows say FAIL and the command exits 1
        weight_V_pm = weights.weight_V_pm
        monkeypatch.setattr(weights, "weight_V_pm", lambda *args, **kwargs: (
            weight_V_pm(*args, **kwargs)[0], complex(math.nan, math.nan)))
        assert main(["weights-audit", "--out", str(out)]) == 1
        status = {ln.split(",")[0]: ln.split(",")[3] for ln in out.read_text().splitlines()[2:]}
        assert [name for name, st in status.items() if st == "FAIL"] == [
            "V-contour", "V-envelope"]


def test_invalid_values_exit_two():
    assert main(["maass-selberg", "--T", "5", "--A", "0.5"]) == 2
    assert main(["moment-sweep", "--T", "-3", "--A", "2"]) == 2


def test_forms_file_that_is_not_utf8_exits_two(tmp_path):
    forms = tmp_path / "forms.csv"
    forms.write_bytes(b"t,parity,n,lambda\n\xff\xfe9.53,even,1,1.0\n")
    assert main(["kuznetsov", "--forms", str(forms), "--quick",
                 "--out", str(tmp_path / "kz.csv")]) == 2


@pytest.mark.parametrize("make_dir", [False, True], ids=["missing", "directory"])
def test_unreadable_forms_path_exits_two(tmp_path, capsys, make_dir):
    forms = tmp_path / "forms"
    if make_dir:
        forms.mkdir()
    assert main(["kuznetsov", "--forms", str(forms), "--quick",
                 "--out", str(tmp_path / "kz.csv")]) == 2
    assert f"usage error: cannot read Maass-form file {forms}" in capsys.readouterr().err


def _exit_code(argv) -> int:
    try:
        return main(argv)
    except SystemExit as exc:  # argparse rejects an unknown flag this way
        return exc.code


# a setting each subcommand does not read, with the rest of a valid, fast call
UNREAD = [
    ("moment-sweep", "tol", "1e-3", ["--T", "3", "--A", "2"]),
    ("acceptance", "out", "x.csv", ["--quick"]),
    ("weights-audit", "T", "10", []),
    ("kuznetsov", "A", "2", ["--quick"]),
    ("maass-selberg", "forms", "f.csv", ["--T", "5", "--A", "1.5"]),
]


@pytest.mark.parametrize("command, key, value, rest", UNREAD, ids=[u[0] for u in UNREAD])
def test_unread_setting_is_usage_error(tmp_path, monkeypatch, command, key, value, rest):
    # a flag or config key the subcommand would ignore stops it before any work
    monkeypatch.chdir(tmp_path)
    assert _exit_code([command, *rest, f"--{key}", value]) == 2
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"{key} = {value}\n")
    assert _exit_code([command, *rest, "--config", str(cfg)]) == 2
    assert not (tmp_path / "x.csv").exists()
