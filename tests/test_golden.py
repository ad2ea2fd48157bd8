"""Byte-for-byte pins of canonical CLI outputs.

The files under tests/golden/ were written by the CLI before the scheme-2
batch kernel was vectorised across rounds; a change that moves any byte of
them changes the published boundary and must say so.
"""
from pathlib import Path

import pytest

from softhandoff.cli import main

GOLDEN = Path(__file__).parent / "golden"

CASES = {
    "fig3_scheme2_dmax4.csv": [
        "region", "inner", "--scheme", "2", "--p", "5", "--alpha", "0.2",
        "--pi", "2", "--grid", "64", "--dmax", "4",
    ],
    "fig2_both_dmax16.csv": ["region", "inner", "--scheme", "both", "--dmax", "16", "--pi", "0.346"],
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_csv_bytes_match_golden(name, tmp_path, capsys):
    out = tmp_path / name
    assert main([*CASES[name], "--out", str(out)]) == 0
    capsys.readouterr()
    assert out.read_bytes() == (GOLDEN / name).read_bytes()
