import json

import pytest

from softhandoff import cli, conf_sim
from softhandoff.cli import main


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr()
    return code, out.out, out.err


class TestRegionCommand:
    def test_mux_region_csv(self, tmp_path, capsys):
        out = tmp_path / "mux.csv"
        code, _, _ = run_cli(["region", "mux", "--mu", "0.3", "--dmax", "10", "--out", str(out)], capsys)
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "s_fast,s_slow,source"
        assert lines[1].startswith("0,0.8")
        assert lines[2].startswith("0.2,0.6")
        assert lines[3].startswith("0.5,0")
        assert (tmp_path / "mux.csv.manifest.json").exists()

    def test_outer_region_y_intercept(self, tmp_path, capsys):
        out = tmp_path / "outer.csv"
        code, _, _ = run_cli(
            ["region", "outer", "--k", "inf", "--p", "5", "--alpha", "0.2", "--pi", "0.346", "--out", str(out)],
            capsys,
        )
        assert code == 0
        first = out.read_text().splitlines()[1].split(",")
        assert float(first[0]) == 0.0
        assert float(first[1]) == pytest.approx(2.17918, abs=1e-4)

    def test_inner_reference_column(self, tmp_path, capsys):
        out = tmp_path / "inner.csv"
        code, _, _ = run_cli(
            [
                "region", "inner", "--scheme", "2", "--p", "5", "--alpha", "0.2",
                "--pi", "2", "--dmax", "4", "--grid", "16", "--out", str(out),
            ],
            capsys,
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "x_rate_bits,y_rate_bits,source,reference"
        x0 = lines[1].split(",")
        assert float(x0[0]) == 0.0
        assert float(x0[3]) == pytest.approx(2.33635339216008, abs=1e-9)

    def test_invalid_params_exit_2(self, tmp_path, capsys):
        code, _, err = run_cli(
            ["region", "outer", "--alpha", "0", "--out", str(tmp_path / "x.csv")], capsys
        )
        assert code == 2
        assert "alpha" in err

    @pytest.mark.parametrize(
        "kind,flag,value",
        [
            ("inner", "--alpha", "nan"),
            ("inner", "--pi", "nan"),
            ("outer", "--p", "inf"),
            ("inner", "--mu", "nan"),
            ("mux", "--mu", "nan"),
        ],
    )
    def test_non_finite_exit_2_names_field(self, tmp_path, capsys, kind, flag, value):
        out = tmp_path / "x.csv"
        code, _, err = run_cli(["region", kind, flag, value, "--out", str(out)], capsys)
        assert code == 2
        assert f"{flag[2:]} must be finite" in err
        assert not out.exists()


class TestSimulateCommand:
    def test_outputs_and_convergence(self, tmp_path, capsys):
        prefix = tmp_path / "sim"
        code, _, _ = run_cli(
            [
                "simulate", "rx", "--dmax", "10", "--alpha", "0.5",
                "--p-ladder", "1e2,1e4,1e6", "--k", "22", "--out", str(prefix),
            ],
            capsys,
        )
        assert code == 0
        conv = (tmp_path / "sim_convergence.csv").read_text().splitlines()
        assert conv[0] == "p,s_fast_est,s_slow_est,avg_link_prelog,max_link_prelog"
        last = conv[-1].split(",")
        assert float(last[1]) == pytest.approx(1 / 22, abs=0.02)
        assert float(last[2]) == pytest.approx(20 / 22, abs=0.02)
        rates = (tmp_path / "sim_rates.csv").read_text().splitlines()
        assert len(rates) == 23  # header + 22 users
        events = (tmp_path / "sim_events.csv").read_text().splitlines()
        assert events[0] == "subnet,user,event_kind,round,rate_bits,from,to"
        assert any(",conference," in ln for ln in events[1:])
        assert any(",decode," in ln for ln in events[1:])

    def test_tx_matches_rx(self, tmp_path, capsys):
        args = ["--dmax", "3", "--alpha", "0.5", "--p-ladder", "1e2,1e4,1e6", "--k", "8"]
        run_cli(["simulate", "rx", *args, "--out", str(tmp_path / "rx")], capsys)
        run_cli(["simulate", "tx", *args, "--out", str(tmp_path / "tx")], capsys)
        rx_last = (tmp_path / "rx_convergence.csv").read_text().splitlines()[-1].split(",")
        tx_last = (tmp_path / "tx_convergence.csv").read_text().splitlines()[-1].split(",")
        assert float(rx_last[1]) == pytest.approx(float(tx_last[1]), abs=0.02)
        assert float(rx_last[2]) == pytest.approx(float(tx_last[2]), abs=0.02)

    def test_k_too_small_exit_2(self, tmp_path, capsys):
        code, _, err = run_cli(
            ["simulate", "rx", "--dmax", "1", "--k", "3", "--out", str(tmp_path / "s")], capsys
        )
        assert code == 2
        assert "K too small" in err


class TestCompareCommand:
    def test_exact_polygon_comparison(self, tmp_path, capsys):
        out = tmp_path / "mux.csv"
        run_cli(["region", "mux", "--mu", "0.3", "--dmax", "10", "--out", str(out)], capsys)
        code, text, _ = run_cli(["compare", "fig4_mu03", str(out)], capsys)
        assert code == 0
        max_line = [ln for ln in text.splitlines() if ln.startswith("max |dy|")][0]
        assert float(max_line.split("=")[1].split("at")[0]) <= 1e-9

    def test_outer_reports_known_discrepancy(self, tmp_path, capsys):
        out = tmp_path / "outer.csv"
        run_cli(
            ["region", "outer", "--k", "inf", "--p", "5", "--alpha", "0.2", "--pi", "0.346", "--out", str(out)],
            capsys,
        )
        code, text, _ = run_cli(["compare", "fig2_outer", str(out)], capsys)
        assert code == 0  # informational, never an assertion
        assert "known discrepancy" in text
        dev = [ln for ln in text.splitlines() if ln.startswith("0,")][0]
        assert float(dev.split(",")[3]) == pytest.approx(0.17568, abs=1e-3)

    def test_unknown_label_exit_2(self, tmp_path, capsys):
        out = tmp_path / "mux.csv"
        run_cli(["region", "mux", "--out", str(out)], capsys)
        code, _, err = run_cli(["compare", "fig9_nope", str(out)], capsys)
        assert code == 2
        assert "unknown reference label" in err

    def test_fig3_table_is_informational(self, tmp_path, capsys):
        out = tmp_path / "inner_d10.csv"
        run_cli(
            ["region", "inner", "--scheme", "2", "--p", "5", "--alpha", "0.2",
             "--pi", "2", "--dmax", "10", "--grid", "12", "--out", str(out)],
            capsys,
        )
        code, text, _ = run_cli(["compare", "fig3_d10", str(out)], capsys)
        assert code == 0
        rows = [ln for ln in text.splitlines() if "," in ln and not ln.startswith("x,")]
        assert len(rows) >= 5  # per-point deviation table
        assert "known discrepancy" in text


class TestManifestRoundTrip:
    def test_region_rerun_byte_identical(self, tmp_path, capsys):
        out = tmp_path / "mux.csv"
        run_cli(["region", "mux", "--mu", "0.35", "--dmax", "7", "--out", str(out)], capsys)
        manifest = json.loads((tmp_path / "mux.csv.manifest.json").read_text())
        assert manifest["command"] == "region"
        redo = tmp_path / "redone.csv"
        code, _, _ = run_cli(
            ["rerun", str(tmp_path / "mux.csv.manifest.json"), "--out", str(redo)], capsys
        )
        assert code == 0
        assert redo.read_bytes() == out.read_bytes()

    def test_simulate_rerun_byte_identical(self, tmp_path, capsys):
        prefix = tmp_path / "sim"
        run_cli(
            ["simulate", "tx", "--dmax", "2", "--alpha", "0.4", "--k", "12",
             "--p-ladder", "1e2,1e3,1e4", "--out", str(prefix)],
            capsys,
        )
        redo = tmp_path / "sim2"
        code, _, _ = run_cli(
            ["rerun", str(tmp_path / "sim_rates.csv.manifest.json"), "--out", str(redo)], capsys
        )
        assert code == 0
        for suffix in ("_rates.csv", "_events.csv", "_convergence.csv"):
            assert (tmp_path / ("sim2" + suffix)).read_bytes() == (tmp_path / ("sim" + suffix)).read_bytes()

    def test_env_var_default_outdir(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("SOFTHANDOFF_OUTDIR", str(tmp_path))
        code, _, _ = run_cli(["region", "mux", "--mu", "0.1", "--dmax", "2"], capsys)
        assert code == 0
        assert (tmp_path / "region_mux.csv").exists()

    @pytest.mark.parametrize("ladder", ["1,10,100", "0.5,10,100"])
    def test_ladder_not_above_one_exit_2(self, tmp_path, capsys, ladder):
        code, _, err = run_cli(
            [
                "simulate", "rx", "--k", "100", "--dmax", "2", "--p-ladder", ladder,
                "--out", str(tmp_path / "s"),
            ],
            capsys,
        )
        assert code == 2
        assert "p_ladder" in err

    @pytest.mark.parametrize("mode", ["rx", "tx"])
    def test_simulate_runs_each_ladder_power_once(self, tmp_path, capsys, monkeypatch, mode):
        powers = []
        name = f"run_{mode}_conferencing"
        sim = getattr(conf_sim, name)

        def counted(cfg, pattern):
            powers.append(cfg.p)
            return sim(cfg, pattern)

        # the CLI and measure_mux_gains each look the simulator up in their own module
        monkeypatch.setattr(cli, name, counted)
        monkeypatch.setattr(conf_sim, name, counted)
        code, _, _ = run_cli(
            ["simulate", mode, "--k", "22", "--dmax", "2", "--p-ladder", "1e2,1e4,1e6",
             "--out", str(tmp_path / "s")],
            capsys,
        )
        assert code == 0
        assert sorted(powers) == [1e2, 1e4, 1e6]

    @pytest.mark.parametrize("ladder", ["10,100,inf", "10,nan,100", "1e4,1e2,1e6", "1e2,1e4"])
    def test_bad_ladder_exits_2_before_simulating(self, tmp_path, capsys, monkeypatch, ladder):
        def refuse(*args):
            raise AssertionError("simulated before validating the ladder")

        for name in ("build_silencing", "run_rx_conferencing", "run_tx_conferencing"):
            monkeypatch.setattr(cli, name, refuse)
        code, _, err = run_cli(
            ["simulate", "rx", "--k", "44000", "--dmax", "10", "--p-ladder", ladder,
             "--out", str(tmp_path / "s")],
            capsys,
        )
        assert code == 2
        assert "p_ladder" in err
