import math
import random
from fractions import Fraction

import pytest

from softhandoff.model import region_contains
from softhandoff.mux_gain import MuxRegionSpec, corner_points, mu_max, mux_region, timeshare_point


class TestMuxRegion:
    def test_mu03_d10(self):
        r = mux_region(MuxRegionSpec("rx_bidirectional", 0.3, 10))
        assert r.vertices == ((0.0, 0.0), (0.5, 0.0), (0.2, 0.6), (0.0, 0.8))

    def test_saturated_d10(self):
        r = mux_region(MuxRegionSpec("rx_bidirectional", 0.5, 10))
        expect = ((0.0, 0.0), (0.5, 0.0), (1 / 22, 20 / 22), (0.0, 21 / 22))
        for v, e in zip(r.vertices, expect):
            assert v == pytest.approx(e, abs=1e-15)

    def test_mu_zero_triangle(self):
        r = mux_region(MuxRegionSpec("rx_bidirectional", 0.0, 10))
        assert r.vertices == ((0.0, 0.0), (0.5, 0.0), (0.0, 0.5))

    def test_unidirectional_halves_mu(self):
        r = mux_region(MuxRegionSpec("rx_unidirectional", 0.3, 10))
        # sum cap = min(1/2 + 0.15, 11/12) = 0.65
        assert r.vertices[-1][1] == pytest.approx(0.65, abs=1e-15)
        assert r.vertices[2] == pytest.approx((0.35, 0.3), abs=1e-15)

    def test_saturation_in_mu(self):
        base = mux_region(MuxRegionSpec("rx_bidirectional", Fraction(10, 22), 10))
        for mu in (0.46, 0.7, 1.0):
            assert mux_region(MuxRegionSpec("rx_bidirectional", mu, 10)).vertices == base.vertices

    def test_rejects_bad_mode(self):
        with pytest.raises(ValueError):
            MuxRegionSpec("sideways", 0.1, 3)

    @pytest.mark.parametrize("mu", [math.nan, math.inf, True, "0.3", 10 ** 400],
                             ids=["nan", "inf", "bool", "str", "int_too_large"])
    def test_rejects_mu_that_is_not_a_finite_real(self, mu):
        with pytest.raises(ValueError, match="mu must be finite and real"):
            MuxRegionSpec("rx_bidirectional", mu, 3)


class TestDuality:
    def test_exact_vertex_equality(self):
        rng = random.Random(2024)
        for _ in range(30):
            mu = rng.choice([rng.uniform(0, 1), Fraction(rng.randint(0, 8), rng.randint(9, 24))])
            d = rng.randint(1, 40)
            rx = mux_region(MuxRegionSpec("rx_bidirectional", mu, d))
            tx = mux_region(MuxRegionSpec("tx_conferencing", mu, d))
            assert rx.vertices == tx.vertices


class TestCornersAndTimeshare:
    def test_corner_examples(self):
        pts = corner_points(10, 0.3)
        assert (pts[0].s_fast, pts[0].s_slow) == (0.5, 0.0)
        assert (pts[1].s_fast, pts[1].s_slow) == (0.0, 0.8)
        assert pts[2].s_fast == pytest.approx(1 / 22, abs=1e-15)
        assert pts[2].s_slow == pytest.approx(20 / 22, abs=1e-15)

    def test_timeshare_examples(self):
        pt, beta = timeshare_point(0.3, 10)
        assert (pt.s_fast, pt.s_slow) == pytest.approx((0.2, 0.6), abs=1e-12)
        pt0, beta0 = timeshare_point(0.0, 10)
        assert (pt0.s_fast, pt0.s_slow) == (0.5, 0.0) and beta0 == 0.0
        pt_max, beta_max = timeshare_point(Fraction(10, 22), 10)
        assert pt_max.s_fast == pytest.approx(1 / 22, abs=1e-15)
        assert pt_max.s_slow == pytest.approx(20 / 22, abs=1e-15)
        assert beta_max == 1.0

    def test_timeshare_weight_solves_mixture(self):
        for d in (1, 4, 10, 16):
            for mu in (0.0, 0.05, mu_max(d) / 2, mu_max(d)):
                pt, beta = timeshare_point(mu, d)
                mix = beta / (2 * d + 2) + (1 - beta) / 2
                assert mix == pytest.approx(pt.s_fast, abs=1e-12)

    def test_timeshare_beyond_range(self):
        with pytest.raises(ValueError, match="time-sharing range"):
            timeshare_point(mu_max(10) + 1e-6, 10)

    def test_corners_on_boundary_when_saturated(self):
        rng = random.Random(5)
        for _ in range(15):
            d = rng.randint(1, 20)
            mu = mu_max(d) + rng.uniform(0, 0.5)
            spec = MuxRegionSpec("rx_bidirectional", mu, d)
            region = mux_region(spec)
            eps = 1e-9
            normals = [(2 / math.sqrt(5), 1 / math.sqrt(5)), (1 / math.sqrt(2), 1 / math.sqrt(2)), None]
            for pt, n in zip(corner_points(d, mu), normals):
                assert region_contains(region, (pt.s_fast, pt.s_slow), tol=1e-12)
                if n is None:  # crossing corner: both constraints active, test each
                    for nn in normals[:2]:
                        moved = (pt.s_fast + eps * nn[0], pt.s_slow + eps * nn[1])
                        assert not region_contains(region, moved, tol=1e-12)
                else:
                    moved = (pt.s_fast + eps * n[0], pt.s_slow + eps * n[1])
                    assert not region_contains(region, moved, tol=1e-12)

    def test_timeshare_point_on_boundary(self):
        rng = random.Random(6)
        for _ in range(15):
            d = rng.randint(1, 20)
            mu = rng.uniform(0, mu_max(d))
            pt, _ = timeshare_point(mu, d)
            region = mux_region(MuxRegionSpec("rx_bidirectional", mu, d))
            assert region_contains(region, (pt.s_fast, pt.s_slow), tol=1e-12)
            # the point sits on 2x + y = 1; pushing along that normal exits
            eps = 1e-9
            moved = (pt.s_fast + eps * 2 / math.sqrt(5), pt.s_slow + eps / math.sqrt(5))
            assert not region_contains(region, moved, tol=1e-12)

    def test_boundary_slopes_subset(self):
        from softhandoff.model import boundary_slopes

        for mu, d in ((0.0, 3), (0.2, 3), (0.7, 3), (0.3, 10)):
            slopes = [s for _, s in boundary_slopes(mux_region(MuxRegionSpec("rx_bidirectional", mu, d)))]
            for s in slopes:
                assert min(abs(s + 1), abs(s + 2)) < 1e-12
