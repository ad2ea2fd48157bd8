import contextlib
import errno
import io
import json
import math
import os
import re
import stat
import tempfile
import threading
from pathlib import Path

import numpy as np
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
        rates = conf_sim._rates

        def counted(layout, cfg):
            powers.append(cfg.p)
            return rates(layout, cfg)

        monkeypatch.setattr(conf_sim, "_rates", counted)
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

    @pytest.mark.parametrize("ladder", ["234", {"2": 1, "3": 1, "4": 1}, [True, 3.0, 4.0], [[2.0], [3.0], [4.0]], None],
                             ids=["string", "object", "bool", "nested", "null"])
    def test_simulate_ladder_not_a_list_of_numbers(self, tmp_path, capsys, ladder):
        """A ladder string or object is refused, not run as a ladder of its characters or keys."""
        doc = _manifest(tmp_path, capsys, ["simulate", "tx", "--k", "12", "--dmax", "2"])
        doc["params"]["p_ladder"] = ladder
        code, _, err = _rerun_doc(tmp_path, capsys, doc)
        assert code == 2
        assert "p_ladder must be a list of numbers" in err
        assert not list(tmp_path.glob("redone*"))

    def test_simulate_ladder_of_numeric_strings(self, tmp_path, capsys):
        doc = _manifest(tmp_path, capsys, ["simulate", "tx", "--k", "12", "--dmax", "2"])
        doc["params"]["p_ladder"] = ["1e2", "1e4", "1e6"]
        assert _rerun_doc(tmp_path, capsys, doc)[0] == 0
        for name in ("rates", "events", "convergence"):
            assert (tmp_path / f"redone_{name}.csv").read_bytes() == (tmp_path / f"first_{name}.csv").read_bytes()

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


GOLDEN = Path(__file__).parent / "golden"
FIG2_OUTER = ["region", "outer", "--k", "inf", "--p", "5", "--alpha", "0.2", "--pi", "0.346"]  # outer_k_inf_p5.csv


class TestOutputReplacement:
    """An existing output is written over in place and cut to its new length afterwards
    (cli._overwrite opens without O_TRUNC, cli._cut cuts a regular file), with the outcomes
    that truncating it on open gave."""

    @staticmethod
    def _outer(out: Path, capsys) -> None:
        assert run_cli([*FIG2_OUTER, "--out", str(out)], capsys)[0] == 0

    def test_error_mid_write_leaves_only_the_new_bytes_written(self, tmp_path, capsys, monkeypatch):
        out = tmp_path / "fig3.csv"
        out.write_bytes(b"old bytes\n" * 100_000)
        monkeypatch.setattr(cli, "_BLOCK_ROWS", 8)
        cells = cli._cells
        columns = []

        def first_column_fails_in_second_block(col, *args):
            cell, cells_of = cells(col, *args)
            columns.append(col)
            if len(columns) > 1:
                return cell, cells_of

            def failing(rows):
                if rows.start >= cli._BLOCK_ROWS:
                    raise RuntimeError("no cells for the second block")
                return cells_of(rows)
            return cell, failing

        monkeypatch.setattr(cli, "_cells", first_column_fails_in_second_block)
        code, _, err = run_cli(["region", "inner", "--scheme", "2", "--p", "5", "--alpha", "0.2", "--pi", "2",
                                "--grid", "64", "--dmax", "10", "--out", str(out)], capsys)
        assert (code, err) == (3, "internal error: no cells for the second block\n")
        golden = (GOLDEN / "fig3_scheme2_dmax10.csv").read_bytes()
        assert out.read_bytes() == b"".join(golden.splitlines(keepends=True)[:9])  # the header and one block

    def test_failing_flush_leaves_no_old_tail(self, tmp_path, monkeypatch):
        columns = [np.arange(8_300), np.linspace(0.0, 1.0, 8_300)]  # a full block, then 108 rows left buffered
        cli._write_csvs([(str(tmp_path / "whole.csv"), ["n", "x"], columns)])
        whole = (tmp_path / "whole.csv").read_bytes()
        first_block = len(b"".join(whole.splitlines(keepends=True)[:1 + cli._BLOCK_ROWS]))
        out = tmp_path / "out.csv"
        out.write_bytes(b"old bytes\n" * 100_000)
        real_open = open

        def open_on_a_disk_that_fills(*args, **kwargs):
            fh = real_open(*args, **kwargs)
            raw_write, written = fh.raw.write, [0]

            def write(data):
                if written[0] >= first_block:
                    raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
                n = raw_write(data)
                written[0] += n
                return n
            fh.raw.write = write
            return fh

        monkeypatch.setattr(cli, "open", open_on_a_disk_that_fills, raising=False)
        with pytest.raises(OSError, match="No space left on device"):
            cli._write_csvs([(str(out), ["n", "x"], columns)])
        assert out.read_bytes() == whole[:first_block]  # the last rows failed to flush: no old tail after them

    def test_read_only_output_exits_2_naming_it(self, tmp_path, capsys, monkeypatch):
        out = tmp_path / "outer.csv"
        out.write_bytes(b"old\n")
        out.chmod(0o444)
        if os.geteuid() == 0:  # root may write it: refuse the open as the kernel does for any other user
            os_open = os.open

            def refuse_writes_to_out(path, flags, *args, **kwargs):
                if path == str(out) and flags & (os.O_WRONLY | os.O_RDWR):
                    raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), path)
                return os_open(path, flags, *args, **kwargs)

            monkeypatch.setattr(os, "open", refuse_writes_to_out)
        code, _, err = run_cli([*FIG2_OUTER, "--out", str(out)], capsys)
        assert (code, err) == (2, f"error: [Errno 13] Permission denied: {str(out)!r}\n")
        assert out.read_bytes() == b"old\n"

    @pytest.mark.parametrize("full", ["outer.csv", "outer.csv.manifest.json"])
    def test_full_disk_exits_2_naming_the_output(self, tmp_path, capsys, monkeypatch, full):
        real_open = open

        def open_on_a_full_disk(path, *args, **kwargs):
            fh = real_open(path, *args, **kwargs)
            if os.path.basename(path) == full:
                def write(data):
                    raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
                (fh.buffer if hasattr(fh, "buffer") else fh).raw.write = write
            return fh

        monkeypatch.setattr(cli, "open", open_on_a_full_disk, raising=False)
        out = tmp_path / "outer.csv"
        code, _, err = run_cli([*FIG2_OUTER, "--out", str(out)], capsys)
        assert (code, err) == (2, f"error: [Errno 28] No space left on device: {str(tmp_path / full)!r}\n")

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full here")
    def test_dev_full_exits_2_naming_it(self, capsys):
        code, _, err = run_cli(["region", "outer", "--out", "/dev/full"], capsys)
        assert (code, err) == (2, "error: [Errno 28] No space left on device: '/dev/full'\n")

    def test_outputs_open_without_o_trunc(self, tmp_path, capsys, monkeypatch):
        os_open, opened = os.open, {}

        def recording(path, flags, *args, **kwargs):
            opened[os.path.basename(path)] = flags
            return os_open(path, flags, *args, **kwargs)

        monkeypatch.setattr(os, "open", recording)
        assert run_cli(["simulate", "rx", "--k", "12", "--dmax", "2", "--out", str(tmp_path / "s")], capsys)[0] == 0
        assert sorted(opened) == ["s_convergence.csv", "s_events.csv", "s_rates.csv", "s_rates.csv.manifest.json"]
        assert all(flags & os.O_CREAT and flags & os.O_WRONLY and not flags & os.O_TRUNC for flags in opened.values())

    def test_symlinked_out_is_written_through(self, tmp_path, capsys):
        target = tmp_path / "target.csv"
        target.write_bytes(b"old bytes\n" * 100_000)
        link = tmp_path / "outer.csv"
        link.symlink_to(target)
        self._outer(link, capsys)
        assert link.is_symlink() and os.readlink(link) == str(target)
        assert target.read_bytes() == (GOLDEN / "outer_k_inf_p5.csv").read_bytes()

    def test_existing_output_keeps_inode_mode_and_hard_links(self, tmp_path, capsys):
        out = tmp_path / "outer.csv"
        out.write_bytes(b"old bytes\n" * 100_000)
        out.chmod(0o604)
        twin = tmp_path / "twin.csv"
        os.link(out, twin)
        before = out.stat()
        self._outer(out, capsys)
        after = out.stat()
        assert (after.st_ino, stat.S_IMODE(after.st_mode), after.st_nlink) == (before.st_ino, 0o604, 2)
        assert twin.read_bytes() == (GOLDEN / "outer_k_inf_p5.csv").read_bytes()

    @pytest.mark.parametrize("umask", [0o022, 0o077, 0o002, 0o000])
    def test_first_write_mode_is_0o666_less_the_umask(self, tmp_path, capsys, umask):
        old = os.umask(umask)
        try:
            self._outer(tmp_path / "outer.csv", capsys)
        finally:
            os.umask(old)
        for name in ("outer.csv", "outer.csv.manifest.json"):
            assert stat.S_IMODE((tmp_path / name).stat().st_mode) == 0o666 & ~umask, name

    @pytest.mark.parametrize("mode,text", [("wb", b"x,y\n"), ("w", "x,y\n")])
    def test_helpers_write_to_dev_null(self, mode, text):
        with open(os.devnull, mode, opener=cli._overwrite) as fh:
            fh.write(text)
            cli._cut(fh)  # a character device has no length to cut
        cli._write_csvs([(os.devnull, ["n"], [np.arange(3)])])
        assert stat.S_ISCHR(os.stat(os.devnull).st_mode)

    def test_fifo_output_gets_every_byte(self, tmp_path):
        columns = [np.arange(20_000), np.linspace(0.0, 1.0, 20_000)]  # three blocks of rows
        cli._write_csvs([(str(tmp_path / "file.csv"), ["n", "x"], columns)])
        fifo = tmp_path / "fifo.csv"
        os.mkfifo(fifo)
        got = []
        reader = threading.Thread(target=lambda: got.append(fifo.read_bytes()), daemon=True)
        reader.start()
        cli._write_csvs([(str(fifo), ["n", "x"], columns)])
        reader.join(30)
        assert not reader.is_alive()
        assert got == [(tmp_path / "file.csv").read_bytes()]


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


def _quiet(argv):
    """main's exit code and stderr for argv, its stdout dropped."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


FIELD = re.compile(r"\b(k|K|d_max|dmax|alpha|p_ladder|mode)\b")
POWERS = ["1.5", "2", "10", "1e2", "1e4", "1e6", "1e300"]
# values that each field refuses; k="3" is below every pattern's period, dmax="0" below 1
BROKEN = {"k": ["0", "3", "-4"], "dmax": ["0", "-1"], "alpha": ["0", "1", "-1.5", "nan", "inf"],
          "p-ladder": ["1e2", "1e2,1e4", "1e4,1e2,1e6", "0.5,2,3", "2,3,inf", "nan,2,3", "-3,2,3"]}


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(mode=st.sampled_from(["rx", "tx"]), d_max=st.integers(1, 5), extra=st.integers(0, 25),
       alpha=st.floats(0.02, 0.98), sign=st.sampled_from([1, -1]),
       ladder=st.lists(st.sampled_from(POWERS), min_size=3, max_size=5, unique=True),
       broken=st.sampled_from([None, None, None, None, *BROKEN]), pick=st.integers(0, 6))
def test_simulate_exits_0_or_2_and_reruns_byte_for_byte(tmp_path_factory, mode, d_max, extra, alpha, sign, ladder,
                                                       broken, pick):
    """Small simulate commands, valid or with one field broken, exit 0 or 2.  An exit 2 names a
    field; an exit 0 writes three CSVs, each a header and at least one row of finite numbers and
    labels, which a rerun of the manifest writes again byte for byte."""
    fields = {"k": str(2 * d_max + 2 + extra), "dmax": str(d_max), "alpha": repr(sign * alpha),
              "p-ladder": ",".join(sorted(ladder, key=float))}
    if broken:
        fields[broken] = BROKEN[broken][pick % len(BROKEN[broken])]
    tmp = tmp_path_factory.mktemp("gate")
    code, err = _quiet(["simulate", mode, *(f"--{name}={value}" for name, value in fields.items()), f"--out={tmp / 's'}"])
    assert code in (0, 2), err
    assert (code == 2) == (broken is not None), err
    if code == 2:
        assert FIELD.search(err), err
        return
    names = ("rates", "events", "convergence")
    for name in names:
        header, *rows = (tmp / f"s_{name}.csv").read_text().splitlines()
        assert header and rows
        for cell in ",".join(rows).split(","):
            with contextlib.suppress(ValueError):  # a label or an empty cell is no number
                assert math.isfinite(float(cell)), (name, cell)
    assert _quiet(["rerun", str(tmp / "s_rates.csv.manifest.json"), f"--out={tmp / 'again'}"]) == (0, "")
    for name in names:
        assert (tmp / f"again_{name}.csv").read_bytes() == (tmp / f"s_{name}.csv").read_bytes()
