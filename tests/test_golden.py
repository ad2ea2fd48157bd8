"""Byte-for-byte pins of canonical CLI outputs.

The files under tests/golden/ were written by the CLI before the scheme-2
batch kernel was vectorised across rounds (the two `region inner` files) and
before `simulate` stopped simulating its top ladder power twice (the rest);
a change that moves any byte of them changes a published output and must
say so.
"""
from pathlib import Path

import pytest

from softhandoff.cli import main

GOLDEN = Path(__file__).parent / "golden"

SIMULATE = ["--k", "220", "--dmax", "10", "--alpha", "0.5", "--p-ladder", "1e2,1e4,1e6"]

# --out value (the CSV for `region`, the file prefix for `simulate`) -> command
CASES = {
    "fig3_scheme2_dmax4.csv": [
        "region", "inner", "--scheme", "2", "--p", "5", "--alpha", "0.2",
        "--pi", "2", "--grid", "64", "--dmax", "4",
    ],
    "fig2_both_dmax16.csv": ["region", "inner", "--scheme", "both", "--dmax", "16", "--pi", "0.346"],
    "outer_k_inf_p5.csv": ["region", "outer", "--k", "inf", "--p", "5", "--alpha", "0.2", "--pi", "0.346"],
    "mux_mu03_dmax10.csv": ["region", "mux", "--mu", "0.3", "--dmax", "10"],
    "simulate_rx_k220_dmax10": ["simulate", "rx", *SIMULATE],
    "simulate_tx_k220_dmax10": ["simulate", "tx", *SIMULATE],
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_csv_bytes_match_golden(name, tmp_path, capsys):
    assert main([*CASES[name], "--out", str(tmp_path / name)]) == 0
    outputs = [Path(line) for line in capsys.readouterr().out.splitlines()]
    assert outputs
    for out in outputs:
        assert out.read_bytes() == (GOLDEN / out.name).read_bytes(), out.name
