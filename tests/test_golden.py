"""Byte-for-byte pins of canonical CLI outputs.

The files under tests/golden/ were written by the CLI before the scheme-2
batch kernel was vectorised across rounds (fig3 d4 and fig2), before
`simulate` stopped simulating its top ladder power twice (outer, mux and
simulate), and before the scheme-2 coordinate descents of a sweep ran in
lockstep (fig3 d10 and corrected fig2), and before the silencing simulator
tiled subnet templates and wrote its CSVs column-wise (simulate with a
trailing partial subnet, and at d_max=1), and before the outer and mux
polygons came from one closed-form two-cut builder and `compare` from the
model's polyline interpolator (one outer and one mux region per regime of
the two cuts, the degenerate one-point outer region, an outer region whose
cuts tie, and the `compare_*.txt` stdout of four comparisons against the
golden CSVs), and before `simulate` evaluated every ladder power on one
silencing layout and wrote CSV text from lookup tables (simulate with a
5-power ladder, a negative alpha and a trailing subnet with no active cell),
and before the inner boundary was interpolated and written from arrays (fig2
and corrected fig3 d_max=10 at grid 1000), and before CSV text was assembled
as bytes with no Python string per cell (simulate at k=44000, whose 9 MB of
CSVs are pinned by their sha256 digests with the command that regenerates
them);
a change that moves any byte of them changes a published
output and must say so.
"""
import hashlib
import json
from pathlib import Path

import pytest

from softhandoff.cli import main

GOLDEN = Path(__file__).parent / "golden"

SIMULATE = ["--k", "220", "--dmax", "10", "--alpha", "0.5", "--p-ladder", "1e2,1e4,1e6"]
SIMULATE_K67 = ["--k", "67", "--dmax", "2", "--alpha", "-0.3", "--p-ladder", "1.5,10,1e3,1e5,1e8"]

# --out value (the CSV for `region`, the file prefix for `simulate`) -> command
CASES = {
    "fig3_scheme2_dmax4.csv": [
        "region", "inner", "--scheme", "2", "--p", "5", "--alpha", "0.2",
        "--pi", "2", "--grid", "64", "--dmax", "4",
    ],
    "fig3_scheme2_dmax10.csv": [
        "region", "inner", "--scheme", "2", "--p", "5", "--alpha", "0.2",
        "--pi", "2", "--grid", "64", "--dmax", "10",
    ],
    "fig2_both_dmax16.csv": ["region", "inner", "--scheme", "both", "--dmax", "16", "--pi", "0.346"],
    "fig2_both_dmax16_corrected.csv": [
        "region", "inner", "--scheme", "both", "--dmax", "16", "--pi", "0.346", "--corrected",
    ],
    # fine grids, with the reference column at fig2, and the corrected fig3 terms
    "fig2_both_dmax16_grid1000.csv": [
        "region", "inner", "--scheme", "both", "--dmax", "16", "--pi", "0.346", "--grid", "1000",
    ],
    "fig3_scheme2_dmax10_corrected_grid1000.csv": [
        "region", "inner", "--scheme", "2", "--p", "5", "--alpha", "0.2",
        "--pi", "2", "--grid", "1000", "--dmax", "10", "--corrected",
    ],
    "outer_k_inf_p5.csv": ["region", "outer", "--k", "inf", "--p", "5", "--alpha", "0.2", "--pi", "0.346"],
    "mux_mu03_dmax10.csv": ["region", "mux", "--mu", "0.3", "--dmax", "10"],
    # the two cuts x + y <= s and 2x + y <= w: weighted cut only (w <= s), both
    # (s < w < 2s), and a sum cap below VERTEX_TOL (the origin alone)
    "outer_pi2.csv": ["region", "outer", "--pi", "2"],
    "outer_k3_alpha-0.7_p50.csv": ["region", "outer", "--k", "3", "--alpha", "-0.7", "--p", "50"],
    "outer_k2_degenerate.csv": ["region", "outer", "--k", "2", "--alpha", "1e-7", "--p", "1e-13"],
    # pi = -log2|alpha| / 2 makes the cuts tie analytically; w lands one ulp above s
    "outer_tie_alpha0.5_pi0.5_p1.csv": ["region", "outer", "--alpha", "0.5", "--pi", "0.5", "--p", "1"],
    # sum cut only (cap 1/2), a saturated cap, and both cuts at d_max=3
    "mux_rxuni_mu0_dmax1.csv": ["region", "mux", "--mode", "rx_unidirectional", "--mu", "0", "--dmax", "1"],
    "mux_tx_mu1_dmax2.csv": ["region", "mux", "--mode", "tx_conferencing", "--mu", "1", "--dmax", "2"],
    "mux_rxbi_mu05_dmax3.csv": ["region", "mux", "--mode", "rx_bidirectional", "--mu", "0.5", "--dmax", "3"],
    "simulate_rx_k220_dmax10": ["simulate", "rx", *SIMULATE],
    "simulate_tx_k220_dmax10": ["simulate", "tx", *SIMULATE],
    # 230 = 10 full subnets of 22 cells plus a trailing partial subnet of 10
    "simulate_rx_k230_dmax10": ["simulate", "rx", "--k", "230", "--dmax", "10", "--alpha", "0.5",
                                "--p-ladder", "1e2,1e4,1e6"],
    "simulate_tx_k230_dmax10": ["simulate", "tx", "--k", "230", "--dmax", "10", "--alpha", "0.5",
                                "--p-ladder", "1e2,1e4,1e6"],
    "simulate_rx_k10_dmax1": ["simulate", "rx", "--k", "10", "--dmax", "1", "--alpha", "0.3",
                              "--p-ladder", "10,1e3,1e5"],
    "simulate_tx_k10_dmax1": ["simulate", "tx", "--k", "10", "--dmax", "1", "--alpha", "0.3",
                              "--p-ladder", "10,1e3,1e5"],
    # a 5-power ladder, a negative alpha, and 67 = 11 subnets of 6 cells plus
    # a trailing subnet with no active cell
    "simulate_rx_k67_dmax2": ["simulate", "rx", *SIMULATE_K67],
    "simulate_tx_k67_dmax2": ["simulate", "tx", *SIMULATE_K67],
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_csv_bytes_match_golden(name, tmp_path, capsys):
    assert main([*CASES[name], "--out", str(tmp_path / name)]) == 0
    outputs = [Path(line) for line in capsys.readouterr().out.splitlines()]
    assert outputs
    for out in outputs:
        assert out.read_bytes() == (GOLDEN / out.name).read_bytes(), out.name


def test_large_simulate_csv_digests(tmp_path, capsys):
    """Five-digit cells and files of many row blocks, at the prelog_sim settings."""
    pins = json.loads((GOLDEN / "simulate_k44000_dmax10.sha256.json").read_text())
    for mode in ("rx", "tx"):
        assert main(["simulate", mode, "--k", "44000", "--dmax", "10", "--alpha", "0.5", "--p-ladder", "1e2,1e4,1e6",
                     "--out", str(tmp_path / f"simulate_{mode}_k44000_dmax10")]) == 0
    outputs = [Path(line) for line in capsys.readouterr().out.splitlines()]
    assert {out.name: hashlib.sha256(out.read_bytes()).hexdigest() for out in outputs} == pins["sha256"]


# stdout golden -> (reference label, golden CSV compared against it)
COMPARES = {
    "compare_fig2_inner.txt": ("fig2_inner", "fig2_both_dmax16.csv"),
    "compare_fig2_outer.txt": ("fig2_outer", "outer_k_inf_p5.csv"),
    "compare_fig3_d4.txt": ("fig3_d4", "fig3_scheme2_dmax4.csv"),
    "compare_fig4_mu03.txt": ("fig4_mu03", "mux_mu03_dmax10.csv"),
}


@pytest.mark.parametrize("name", sorted(COMPARES))
def test_compare_stdout_matches_golden(name, capsys):
    label, csv = COMPARES[name]
    assert main(["compare", label, str(GOLDEN / csv)]) == 0
    assert capsys.readouterr().out.encode() == (GOLDEN / name).read_bytes()


# Outputs are written over the old file in place and cut to length, not truncated first.
JUNK = (b"9999.99999999,junk\n" * (1 << 16))[:1 << 20]  # 1 MB, longer than every output below
OVERWRITTEN = ["fig3_scheme2_dmax10.csv", "outer_k_inf_p5.csv", "simulate_rx_k220_dmax10", "simulate_tx_k220_dmax10"]


def _output_paths(out: Path) -> list[Path]:
    """The CSVs a `region` or `simulate` --out value names, then their manifest."""
    csvs = [out] if out.suffix == ".csv" else [out.with_name(f"{out.name}_{s}.csv")
                                                  for s in ("rates", "events", "convergence")]
    return [*csvs, csvs[0].with_name(csvs[0].name + ".manifest.json")]


def _assert_golden(paths: list[Path]) -> None:
    *csvs, manifest = paths
    for csv in csvs:
        assert csv.read_bytes() == (GOLDEN / csv.name).read_bytes(), csv.name
    assert json.loads(manifest.read_text())["outputs"] == [csv.name for csv in csvs]  # no old tail


@pytest.mark.parametrize("name", OVERWRITTEN)
def test_overwrite_of_longer_files_matches_golden(name, tmp_path, capsys):
    paths = _output_paths(tmp_path / name)
    for path in paths:
        path.write_bytes(JUNK)
    assert main([*CASES[name], "--out", str(tmp_path / name)]) == 0
    assert [Path(line) for line in capsys.readouterr().out.splitlines()] == paths[:-1]
    _assert_golden(paths)


def test_rerun_over_longer_files_matches_golden(tmp_path, capsys):
    name = "simulate_rx_k220_dmax10"
    first = tmp_path / "first" / name
    first.parent.mkdir()
    assert main([*CASES[name], "--out", str(first)]) == 0
    manifest = _output_paths(first)[-1]
    again = _output_paths(tmp_path / name)
    for path in again:
        path.write_bytes(JUNK)
    assert main(["rerun", str(manifest), "--out", str(tmp_path / name)]) == 0
    _assert_golden(again)
    for path in _output_paths(first)[:-1]:  # in place: the manifest is the rerun's input
        path.write_bytes(JUNK)
    assert main(["rerun", str(manifest)]) == 0
    _assert_golden(_output_paths(first))
    capsys.readouterr()


def test_same_command_twice_matches_golden(tmp_path, capsys):
    name = "simulate_tx_k220_dmax10"
    for _ in range(2):
        assert main([*CASES[name], "--out", str(tmp_path / name)]) == 0
        _assert_golden(_output_paths(tmp_path / name))
    capsys.readouterr()
