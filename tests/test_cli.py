import contextlib
import io
import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from softhandoff import cli, conf_sim, inner_bound
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
            ("mux", "--mu", "nan"),
        ],
    )
    def test_non_finite_exit_2_names_field(self, tmp_path, capsys, kind, flag, value):
        out = tmp_path / "x.csv"
        code, _, err = run_cli(["region", kind, flag, value, "--out", str(out)], capsys)
        assert code == 2
        assert f"{flag[2:]} must be finite" in err
        assert not out.exists()

    @pytest.mark.parametrize("kind,flag", [
        *(("inner", flag) for flag in ("--k", "--mu", "--mode")),
        *(("outer", flag) for flag in ("--dmax", "--mu", "--mode", "--scheme", "--grid", "--corrected")),
        *(("mux", flag) for flag in ("--k", "--p", "--alpha", "--pi", "--scheme", "--grid", "--corrected")),
    ])
    def test_unread_flag_is_a_usage_error(self, tmp_path, capsys, kind, flag):
        # each kind takes only the flags it reads: inner is the K -> inf sweep, mux needs no channel
        value = {"--corrected": [], "--mode": ["rx_bidirectional"], "--scheme": ["2"], "--p": ["-1"]}.get(flag, ["5"])
        with pytest.raises(SystemExit) as exc:
            main(["region", kind, flag, *value, "--out", str(tmp_path / "x.csv")])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {' '.join([flag, *value])}" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("value", ["2.5", "1e400", "abc"])
    def test_bad_k_exit_2_names_k(self, tmp_path, capsys, value):
        out = tmp_path / "x.csv"
        code, _, err = run_cli(["region", "outer", "--k", value, "--out", str(out)], capsys)
        assert code == 2
        assert "k must be an integer or inf" in err
        assert not out.exists()

    def test_grid_above_cap_exits_2_before_sweeping(self, tmp_path, capsys, monkeypatch):
        def refuse(*args):
            raise AssertionError("swept before validating the grid")

        for name in ("_best_per_bin", "_scheme2_batch"):
            monkeypatch.setattr(inner_bound, name, refuse)
        out = tmp_path / "x.csv"
        code, _, err = run_cli(["region", "inner", "--grid", "10000000", "--out", str(out)], capsys)
        assert code == 2
        assert "grid_resolution must be at most 100000" in err
        assert not out.exists()

    def test_cell_budget_exits_2_before_sweeping(self, tmp_path, capsys, monkeypatch):
        # (grid + 1)(d_max + 1) = 1e10 cells: this must never reach an allocation
        def refuse(*args):
            raise AssertionError("swept before checking the cell budget")

        for name in ("_best_per_bin", "_scheme2_vectors", "_scheme2_batch"):
            monkeypatch.setattr(inner_bound, name, refuse)
        out = tmp_path / "x.csv"
        code, _, err = run_cli(["region", "inner", "--dmax", "100000", "--grid", "100000", "--out", str(out)], capsys)
        assert code == 2
        assert "grid 100000 and d_max 100000 ask for more than" in err
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["outer", "--alpha", "0.9", "--p", "9e307"],  # was a sum-only triangle: weighted_cap overflowed
        ["outer", "--alpha", "0.9", "--p", "1e308"],  # was inf cells
        ["inner", "--alpha", "0.9", "--p", "1.7e308", "--pi", "0.3", "--dmax", "2"],  # was a header-only CSV
    ])
    def test_overflowing_p_exits_2_naming_p(self, tmp_path, capsys, argv):
        out = tmp_path / "x.csv"
        code, _, err = run_cli(["region", *argv, "--out", str(out)], capsys)
        assert code == 2
        assert "p is too large" in err
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

    @pytest.mark.parametrize("row,message", [
        ("abc,0.5,inner", "could not convert string to float: 'abc'"),
        ("0.5,nan,inner", "cells must be finite, got '0.5,nan,inner'"),
        ("inf,0.5,inner", "cells must be finite, got 'inf,0.5,inner'"),
    ], ids=["text", "nan", "inf"])
    def test_bad_cell_names_file_and_line(self, tmp_path, capsys, row, message):
        path = tmp_path / "bad.csv"
        path.write_text(f"x_rate_bits,y_rate_bits,source\n0,1,inner\n{row}\n")
        code, _, err = run_cli(["compare", "fig2_inner", str(path)], capsys)
        assert code == 2
        assert f"{path}, line 3: {message}" in err

    @pytest.mark.parametrize("row", ["0.2", ""], ids=["one cell", "blank"])
    def test_short_row_names_file_and_line(self, tmp_path, capsys, row):
        path = tmp_path / "short.csv"
        path.write_text(f"x,y\n0,1\n{row}\n0.5,0.1\n")
        code, text, err = run_cli(["compare", "fig4_mu03", str(path)], capsys)
        assert code == 2
        assert f"{path}, line 3: a row needs two cells, got {row!r}" in err
        assert not text

    def test_empty_file_exit_2(self, tmp_path, capsys):
        path = tmp_path / "empty.csv"
        path.write_text("")
        code, _, err = run_cli(["compare", "fig2_inner", str(path)], capsys)
        assert code == 2
        assert "no data rows" in err

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

    def test_rerun_ignores_a_recorded_seed(self, tmp_path, capsys):
        # manifests used to carry a "seed" key that nothing read
        out = tmp_path / "outer.csv"
        run_cli(["region", "outer", "--k", "3", "--pi", "0.5", "--out", str(out)], capsys)
        path = tmp_path / "outer.csv.manifest.json"
        doc = json.loads(path.read_text())
        assert "seed" not in doc
        path.write_text(json.dumps({**doc, "seed": 0}, indent=2, sort_keys=True) + "\n")
        redo = tmp_path / "redone.csv"
        code, _, _ = run_cli(["rerun", str(path), "--out", str(redo)], capsys)
        assert code == 0
        assert redo.read_bytes() == out.read_bytes()

    @pytest.mark.parametrize("argv", [
        ["region", "inner", "--scheme", "2", "--pi", "2", "--dmax", "4", "--grid", "12"],
        ["region", "outer", "--k", "3", "--pi", "0.5"],
        ["region", "mux", "--mu", "0.3", "--dmax", "2", "--mode", "tx_conferencing"],
    ], ids=["inner", "outer", "mux"])
    def test_parent_format_manifest_reruns_byte_identical(self, tmp_path, capsys, argv):
        # manifests once held all eleven region flags, whichever the kind read
        all_flags = {"k": "inf", "p": 5.0, "alpha": 0.2, "pi": 0.0, "dmax": 1, "mu": 0.0, "mode": "rx_bidirectional",
                     "scheme": "both", "grid": 64, "corrected": False, "out": None}
        out = tmp_path / "first.csv"
        run_cli([*argv, "--out", str(out)], capsys)
        path = tmp_path / "first.csv.manifest.json"
        doc = json.loads(path.read_text())
        doc["params"] = {**all_flags, **doc["params"]}
        assert len(doc["params"]) == 12  # the eleven flags and the kind
        path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
        redo = tmp_path / "redone.csv"
        code, _, _ = run_cli(["rerun", str(path), "--out", str(redo)], capsys)
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
        report = conf_sim._report

        def counted(layout, cfg):
            powers.append(cfg.p)
            return report(layout, cfg)

        monkeypatch.setattr(conf_sim, "_report", counted)
        code, _, _ = run_cli(
            ["simulate", mode, "--k", "22", "--dmax", "2", "--p-ladder", "1e2,1e4,1e6",
             "--out", str(tmp_path / "s")],
            capsys,
        )
        assert code == 0
        assert sorted(powers) == [1e2, 1e4, 1e6]

    @pytest.mark.parametrize("mode", ["rx", "tx"])
    def test_simulate_tiles_each_subnet_shape_once(self, tmp_path, capsys, monkeypatch, mode):
        shapes = []
        name = f"_{mode}_template"
        template = getattr(conf_sim, name)

        def counted(m, d_max):
            shapes.append(m)
            return template(m, d_max)

        monkeypatch.setattr(conf_sim, name, counted)
        # 230 = 10 full subnets (21 active cells) and a trailing one with 9
        code, _, _ = run_cli(
            ["simulate", mode, "--k", "230", "--dmax", "10", "--p-ladder", "1e2,1e3,1e4,1e6",
             "--out", str(tmp_path / "s")],
            capsys,
        )
        assert code == 0
        assert sorted(shapes) == [9, 21]

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

    def test_dmax_below_one_exits_2_naming_dmax(self, tmp_path, capsys):
        for dmax in ("-1", "0"):
            code, _, err = run_cli(["simulate", "rx", "--k", "10", "--dmax", dmax, "--out", str(tmp_path / "s")],
                                   capsys)
            assert code == 2
            assert "d_max must be at least 1" in err

    @pytest.mark.parametrize("flag,value,field", [("--alpha", "2", "alpha"), ("--alpha", "0", "alpha")])
    def test_bad_config_exits_2_before_simulating(self, tmp_path, capsys, monkeypatch, flag, value, field):
        def refuse(*args):
            raise AssertionError("built the pattern before validating the config")

        for name in ("build_silencing", "run_rx_conferencing", "run_tx_conferencing"):
            monkeypatch.setattr(cli, name, refuse)
        code, _, err = run_cli(["simulate", "rx", "--k", "44000", "--dmax", "10", flag, value,
                                "--out", str(tmp_path / "s")], capsys)
        assert code == 2
        assert field in err

    def test_k_above_cap_exits_2_before_tiling(self, tmp_path, capsys, monkeypatch):
        def refuse(*args):
            raise AssertionError("tiled a layout before validating k")

        monkeypatch.setattr(cli, "_layout", refuse)
        code, _, err = run_cli(["simulate", "rx", "--k", str(conf_sim._MAX_K + 1), "--dmax", "10",
                                "--out", str(tmp_path / "s")], capsys)
        assert code == 2
        assert f"k must be at most {conf_sim._MAX_K}" in err

    def test_pi_is_not_an_option(self, tmp_path, capsys):
        # no simulator reads a conferencing budget: the schedule fixes the load
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "rx", "--k", "10", "--dmax", "1", "--pi", "1", "--out", str(tmp_path / "s")])
        assert exc.value.code == 2
        assert "unrecognized arguments: --pi 1" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    def test_rerun_ignores_a_recorded_pi(self, tmp_path, capsys):
        # simulate manifests used to carry a "pi" param that nothing read
        prefix = tmp_path / "sim"
        run_cli(["simulate", "tx", "--k", "12", "--dmax", "2", "--out", str(prefix)], capsys)
        path = tmp_path / "sim_rates.csv.manifest.json"
        doc = json.loads(path.read_text())
        assert "pi" not in doc["params"]
        doc["params"]["pi"] = 0.0
        path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
        code, _, _ = run_cli(["rerun", str(path), "--out", str(tmp_path / "redone")], capsys)
        assert code == 0
        for name in ("rates", "events", "convergence"):
            assert (tmp_path / f"redone_{name}.csv").read_bytes() == (tmp_path / f"sim_{name}.csv").read_bytes()

    def test_empty_ladder_entry_exits_2_naming_p_ladder(self, tmp_path, capsys):
        code, _, err = run_cli(["simulate", "rx", "--k", "22", "--dmax", "2", "--p-ladder", "1e2,,1e4",
                                "--out", str(tmp_path / "s")], capsys)
        assert code == 2
        assert "p_ladder must be a list of numbers" in err


def _manifest(tmp_path, capsys, argv):
    """The manifest document the CLI writes for argv."""
    assert run_cli([*argv, "--out", str(tmp_path / "first")], capsys)[0] == 0
    return json.loads(next(tmp_path.glob("first*.manifest.json")).read_text())


_ABSENT = object()


@pytest.mark.parametrize("argv,params", [
    (["region", "inner", "--scheme", "2", "--grid", "16", "--dmax", "2"],
     {"kind": "inner", "p": 5.0, "alpha": 0.2, "pi": 0.0, "dmax": 2, "scheme": "2", "grid": 16, "corrected": False}),
    (["region", "outer", "--k", "3"], {"kind": "outer", "k": "3", "p": 5.0, "alpha": 0.2, "pi": 0.0}),
    (["region", "mux", "--mu", "0.3", "--dmax", "2"],
     {"kind": "mux", "dmax": 2, "mu": 0.3, "mode": "rx_bidirectional"}),
    (["simulate", "rx", "--k", "12", "--dmax", "2"],
     {"mode": "rx", "k": 12, "dmax": 2, "alpha": 0.5, "p_ladder": [100.0, 10000.0, 1000000.0]}),
], ids=["region_inner", "region_outer", "region_mux", "simulate"])
def test_manifest_params(tmp_path, capsys, argv, params):
    doc = _manifest(tmp_path, capsys, argv)
    assert doc["command"] == argv[0]
    assert doc["params"] == {**params, "out": str(tmp_path / "first")}


def _rerun_doc(tmp_path, capsys, doc, out=True):
    path = tmp_path / "edited.manifest.json"
    path.write_text(json.dumps(doc))
    return run_cli(["rerun", str(path), *(["--out", str(tmp_path / "redone")] if out else [])], capsys)


class TestMalformedManifest:
    """Hand-edited manifests exit 2 naming the field, never 3."""

    @pytest.mark.parametrize("key,value,field", [
        ("dmax", 2.5, "d_max"), ("dmax", "2", "d_max"), ("mu", "0.3", "mu"), ("mu", None, "mu"),
    ])
    def test_region_mux_param(self, tmp_path, capsys, key, value, field):
        doc = _manifest(tmp_path, capsys, ["region", "mux", "--mu", "0.3", "--dmax", "2"])
        doc["params"][key] = value
        code, _, err = _rerun_doc(tmp_path, capsys, doc)
        assert code == 2
        assert field in err

    @pytest.mark.parametrize("key,value,field", [
        ("alpha", _ABSENT, "alpha"), ("p_ladder", 5, "p_ladder"), ("dmax", None, "dmax"), ("mode", "bogus", "mode"),
    ])
    def test_simulate_param(self, tmp_path, capsys, key, value, field):
        doc = _manifest(tmp_path, capsys, ["simulate", "tx", "--k", "12", "--dmax", "2"])
        if value is _ABSENT:
            del doc["params"][key]
        else:
            doc["params"][key] = value
        code, _, err = _rerun_doc(tmp_path, capsys, doc)
        assert code == 2
        assert field in err

    @pytest.mark.parametrize("key,value", [
        ("grid", "64"), ("grid", None), ("grid", 12.5), ("grid", True), ("corrected", "no"), ("corrected", 1),
    ])
    def test_region_inner_param(self, tmp_path, capsys, key, value):
        doc = _manifest(tmp_path, capsys, ["region", "inner", "--scheme", "2", "--grid", "16", "--dmax", "2"])
        doc["params"][key] = value
        code, _, err = _rerun_doc(tmp_path, capsys, doc)
        assert code == 2
        assert f"{key} must be" in err

    @pytest.mark.parametrize("argv", [["region", "inner", "--grid", "16"], ["simulate", "tx", "--k", "12", "--dmax", "2"]],
                             ids=["region", "simulate"])
    def test_out_not_a_path(self, tmp_path, capsys, argv):
        # an int out would open that file descriptor; it must fail before any open
        doc = _manifest(tmp_path, capsys, argv)
        doc["params"]["out"] = 7
        code, _, err = _rerun_doc(tmp_path, capsys, doc, out=False)
        assert code == 2
        assert "out must be str or NoneType, got 7" in err

    @pytest.mark.parametrize("value", [2.5, "2", None, True])
    def test_region_inner_dmax(self, tmp_path, capsys, value):
        doc = _manifest(tmp_path, capsys, ["region", "inner", "--scheme", "2", "--grid", "16", "--dmax", "2"])
        doc["params"]["dmax"] = value
        code, _, err = _rerun_doc(tmp_path, capsys, doc)
        assert code == 2
        assert f"d_max must be an integer, got {value!r}" in err

    @pytest.mark.parametrize("value", [2.5, 3.7, True])
    def test_region_outer_k_not_an_integer(self, tmp_path, capsys, value):
        # a fractional k once ran truncated to an integer
        doc = _manifest(tmp_path, capsys, ["region", "outer", "--k", "3"])
        doc["params"]["k"] = value
        code, _, err = _rerun_doc(tmp_path, capsys, doc)
        assert code == 2
        assert f"k must be an integer or inf, got {value!r}" in err

    def test_region_outer_null_k(self, tmp_path, capsys):
        doc = _manifest(tmp_path, capsys, ["region", "outer", "--k", "3"])
        doc["params"]["k"] = None
        code, _, err = _rerun_doc(tmp_path, capsys, doc)
        assert code == 2
        assert "k must be an integer or inf" in err

    @pytest.mark.parametrize("argv,key", [
        *((["region", "outer", "--k", "3"], key) for key in ("p", "alpha", "pi", "k")),
        (["region", "mux", "--mu", "0.3", "--dmax", "2"], "mu"),
        *((["simulate", "tx", "--k", "12", "--dmax", "2"], key) for key in ("k", "alpha", "p_ladder")),
        *((["region", "inner", "--scheme", "2", "--grid", "16", "--dmax", "2"], key) for key in ("p", "alpha", "pi")),
    ], ids=lambda v: v if isinstance(v, str) else "-".join(v[:2]))
    def test_integer_too_large_for_a_float(self, tmp_path, capsys, argv, key):
        # a 401-digit JSON integer once made math.isfinite raise OverflowError: exit 3
        doc = _manifest(tmp_path, capsys, argv)
        if key == "p_ladder":
            doc["params"][key][1] = 10 ** 400
        else:
            doc["params"][key] = 10 ** 400
        code, _, err = _rerun_doc(tmp_path, capsys, doc)
        assert code == 2
        assert err.startswith(f"error: {key} must be")

    @pytest.mark.parametrize("edit", ["no params", "a list"])
    def test_document_shape(self, tmp_path, capsys, edit):
        doc = _manifest(tmp_path, capsys, ["region", "mux"])
        if edit == "no params":
            del doc["params"]
        code, _, err = _rerun_doc(tmp_path, capsys, doc if edit == "no params" else [doc])
        assert code == 2
        assert "params object" in err


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(
    log_p=st.floats(-300, 300),
    alpha=st.floats(0.02, 0.98).flatmap(lambda a: st.sampled_from([a, -a])),
    pi=st.floats(0, 3),
    dmax=st.integers(1, 16),
    scheme=st.sampled_from(["1", "2", "both"]),
    corrected=st.booleans(),
)
def test_region_inner_always_writes_a_data_row(log_p, alpha, pi, dmax, scheme, corrected):
    """Whatever the power, every scheme and term variant exits 0 with at least
    one boundary point; a tiny P once left scheme 2 with a header-only CSV."""
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "inner.csv"
        argv = ["region", "inner", "--p", repr(10.0 ** log_p), "--alpha", repr(alpha), "--pi", repr(pi),
                "--dmax", str(dmax), "--scheme", scheme, "--grid", "12", "--out", str(out)]
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(argv + ["--corrected"] * corrected)
        assert code == 0, err.getvalue()
        assert len(out.read_text().splitlines()) >= 2


def test_parser_built_once_and_calls_parse_independently(tmp_path, capsys):
    # options given to one call must not leak into the next call's defaults
    inner_defaults = {"kind": "inner", "p": 5.0, "alpha": 0.2, "pi": 0.0, "dmax": 1, "scheme": "both", "grid": 64,
                      "corrected": False}
    calls = [
        (["region", "inner", "--scheme", "2", "--grid", "16", "--dmax", "3", "--corrected", "--p", "7"],
         {**inner_defaults, "scheme": "2", "grid": 16, "dmax": 3, "corrected": True, "p": 7.0}),
        (["region", "outer"], {"kind": "outer", "k": "inf", "p": 5.0, "alpha": 0.2, "pi": 0.0}),
        (["simulate", "tx", "--k", "12", "--dmax", "2", "--alpha", "0.3"],
         {"mode": "tx", "k": 12, "dmax": 2, "alpha": 0.3, "p_ladder": [100.0, 10000.0, 1000000.0]}),
        (["region", "inner", "--grid", "10"], {**inner_defaults, "grid": 10}),
        (["region", "mux", "--mu", "0.2"], {"kind": "mux", "mu": 0.2, "dmax": 1, "mode": "rx_bidirectional"}),
    ]
    for i, (argv, params) in enumerate(calls):
        (tmp_path / str(i)).mkdir()
        doc = _manifest(tmp_path / str(i), capsys, argv)
        assert doc["params"] == {**params, "out": str(tmp_path / str(i) / "first")}, argv
    assert cli._parser() is cli._parser()
    assert cli._parser.cache_info().currsize == 1


class TestPathErrors:
    """A path the user names that is a directory, or under a file, exits 2."""

    def test_region_out_is_a_directory(self, tmp_path, capsys):
        code, _, err = run_cli(["region", "inner", "--grid", "12", "--out", str(tmp_path)], capsys)
        assert code == 2
        assert err.startswith("error: [Errno 21] Is a directory")

    def test_region_out_under_a_file(self, tmp_path, capsys):
        (tmp_path / "file").write_text("")
        code, _, err = run_cli(["region", "mux", "--out", str(tmp_path / "file" / "mux.csv")], capsys)
        assert code == 2
        assert err.startswith("error: out must lie in an existing directory")

    @staticmethod
    def _refuse(*args):
        raise AssertionError("worked before checking the output directory")

    def _assert_names_out(self, code, err, out):
        assert code == 2
        assert err == f"error: out must lie in an existing directory, got {str(out)!r}\n"
        assert not out.parent.exists()

    @pytest.mark.parametrize("kind,work", [("inner", "inner_boundary"), ("outer", "outer_region"),
                                           ("mux", "mux_region")])
    def test_region_out_in_a_missing_directory_exits_2_before_any_work(self, tmp_path, capsys, monkeypatch,
                                                                        kind, work):
        monkeypatch.setattr(cli, work, self._refuse)
        out = tmp_path / "missing" / "x.csv"
        self._assert_names_out(*run_cli(["region", kind, "--out", str(out)], capsys)[::2], out)

    def test_simulate_out_in_a_missing_directory_exits_2_before_any_work(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(cli, "build_silencing", self._refuse)
        out = tmp_path / "missing" / "s"
        self._assert_names_out(*run_cli(["simulate", "rx", "--k", "44000", "--dmax", "10", "--out", str(out)],
                                        capsys)[::2], out)

    @pytest.mark.parametrize("argv,work", [
        (["region", "mux"], "mux_region"),
        (["simulate", "tx", "--k", "12", "--dmax", "2"], "build_silencing"),
    ], ids=["region", "simulate"])
    def test_rerun_out_in_a_missing_directory_exits_2_before_any_work(self, tmp_path, capsys, monkeypatch,
                                                                       argv, work):
        assert run_cli([*argv, "--out", str(tmp_path / "first")], capsys)[0] == 0
        manifest = next(tmp_path.glob("first*.manifest.json"))
        monkeypatch.setattr(cli, work, self._refuse)
        out = tmp_path / "missing" / "again"
        self._assert_names_out(*run_cli(["rerun", str(manifest), "--out", str(out)], capsys)[::2], out)

    def test_compare_csv_is_a_directory(self, tmp_path, capsys):
        code, _, err = run_cli(["compare", "fig2_inner", str(tmp_path)], capsys)
        assert code == 2
        assert err.startswith("error: [Errno 21] Is a directory")

    def test_rerun_manifest_is_a_directory(self, tmp_path, capsys):
        code, _, err = run_cli(["rerun", str(tmp_path)], capsys)
        assert code == 2
        assert err.startswith("error: [Errno 21] Is a directory")


class _Recording(dict):
    """A params dict that records every key a runner reads."""

    def __init__(self, *args):
        super().__init__(*args)
        self.read = set()

    def __getitem__(self, key):
        self.read.add(key)
        return super().__getitem__(key)

    def get(self, key, default=None):
        self.read.add(key)
        return super().get(key, default)


@pytest.mark.parametrize("argv", [
    ["region", "inner", "--grid", "12"], ["region", "outer"], ["region", "mux"],
    ["simulate", "rx", "--k", "12", "--dmax", "2"],
], ids=["inner", "outer", "mux", "simulate"])
def test_runner_reads_every_flag(tmp_path, argv):
    # a flag that nothing reads is a dead option: each parser dest must be a key its runner reads
    params = vars(cli._parser().parse_args([*argv, "--out", str(tmp_path / "x")]))
    command = params.pop("command")
    if command == "simulate":
        params["p_ladder"] = cli._parse_ladder(params["p_ladder"].split(","))
    recording = _Recording(params)
    {"region": cli._run_region, "simulate": cli._run_simulate}[command](recording)
    assert recording.read == set(params)
