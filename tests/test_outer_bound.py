import math

import pytest

from softhandoff.cli import main
from softhandoff.model import ASYMPTOTIC_K, NetworkConfig, boundary_slopes
from softhandoff.outer_bound import outer_constraints, outer_region

CFG_INF = NetworkConfig(alpha=0.2, p=5.0, pi=0.346)

# frozen high-precision evaluations of the two bound formulas
SUM_CAP_INF = 2.179176983410151
WEIGHTED_INF = 2.9941410308538323
SUM_CAP_K2 = 1.5032799898413483


class TestOuterConstraints:
    def test_asymptotic_values(self):
        v = outer_constraints(CFG_INF)
        assert v.sum_cap == pytest.approx(SUM_CAP_INF, abs=1e-12)
        assert v.weighted_cap == pytest.approx(WEIGHTED_INF, abs=1e-12)

    def test_k2_coefficient_arithmetic(self):
        v = outer_constraints(NetworkConfig(alpha=0.2, p=5.0, k=2, pi=0.346))
        assert v.sum_cap == pytest.approx(SUM_CAP_K2, abs=1e-12)

    def test_gain_gap_vanishes_near_unit_alpha(self):
        # the max{-log2|alpha|, 0} term decays continuously to the |alpha|=1
        # limit of 0 (the bound's other terms keep growing with alpha)
        gap1 = max(-math.log2(0.999), 0.0)
        gap2 = max(-math.log2(0.9999), 0.0)
        assert gap1 == pytest.approx(0.0014434, abs=1e-6)
        assert 0.0 < gap2 < gap1
        v_lo = outer_constraints(NetworkConfig(alpha=0.999, p=5.0, k=4))
        v_hi = outer_constraints(NetworkConfig(alpha=0.999, p=5.0, k=4, pi=0.0))
        assert v_lo.sum_cap == v_hi.sum_cap  # pi defaulted either way

    def test_linear_in_pi(self):
        for k in (2, 5, ASYMPTOTIC_K):
            a = outer_constraints(NetworkConfig(alpha=0.2, p=5.0, k=k, pi=0.0))
            b = outer_constraints(NetworkConfig(alpha=0.2, p=5.0, k=k, pi=0.7))
            coeff = 1.0 if k == ASYMPTOTIC_K else (k - 1) / k
            assert b.sum_cap - a.sum_cap == pytest.approx(0.7 * coeff, abs=1e-12)
            assert b.weighted_cap == a.weighted_cap  # no pi term in the weighted bound

    def test_parity_monotone_toward_limit(self):
        limit = outer_constraints(CFG_INF).sum_cap
        for parity in (0, 1):
            ks = [k for k in range(2, 200) if k % 2 == parity and k >= 2]
            vals = [
                outer_constraints(NetworkConfig(alpha=0.2, p=5.0, k=k, pi=0.346)).sum_cap
                for k in ks
            ]
            assert all(v1 > v0 for v0, v1 in zip(vals, vals[1:]))
            assert all(v < limit for v in vals)
            assert limit - vals[-1] < 0.02


class TestOuterRegion:
    def test_vertices(self):
        r = outer_region(CFG_INF)
        expect = (
            (0.0, 0.0),
            (1.4970705154269162, 0.0),
            (0.8149640474436812, 1.3642129359664699),
            (0.0, SUM_CAP_INF),
        )
        assert len(r.vertices) == 4
        for v, e in zip(r.vertices, expect):
            assert v == pytest.approx(e, abs=1e-9)

    def test_slopes(self):
        assert [s for _, s in boundary_slopes(outer_region(CFG_INF))] == pytest.approx(
            [-1.0, -2.0], abs=1e-9
        )

    def test_slope_structure_condition(self):
        # slopes are {-1, -2} whenever sum < weighted < 2*sum
        v = outer_constraints(CFG_INF)
        assert v.sum_cap < v.weighted_cap < 2 * v.sum_cap


@pytest.mark.parametrize("argv", [
    ["--p", "5e-324", "--alpha", "1e-9", "--pi", "1e-12"],  # the crossing 2e-12 above the axis
    ["--p", "1e-12", "--alpha", "3e-6", "--pi", "0"],       # 3.6e-12 above it
    ["--p", "1e-12", "--alpha", "1e-5", "--pi", "0"],       # 3.6e-11 above it: kept, and x still distinct
])
def test_printed_chain_never_repeats_an_x(argv, tmp_path, capsys):
    # a crossing that lies above the axis by less than VERTEX_TOL times the caps merges into the
    # x-intercept, so the 12-digit text of its x cannot equal the intercept's
    out = tmp_path / "outer.csv"
    assert main(["region", "outer", *argv, "--out", str(out)]) == 0, capsys.readouterr().err
    rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
    xs, ys = [float(r[0]) for r in rows], [float(r[1]) for r in rows]
    assert all(a < b for a, b in zip(xs, xs[1:])), xs
    assert all(a >= b for a, b in zip(ys, ys[1:])), ys
