import math
import random

import pytest

from softhandoff.model import (
    ASYMPTOTIC_K,
    HalfPlane,
    MuxPair,
    NetworkConfig,
    RatePair,
    Region,
    boundary_slopes,
    region_contains,
    region_from_halfplanes,
    validate_config,
)


class TestValidateConfig:
    def test_accepts_published_operating_point(self):
        cfg = NetworkConfig(alpha=0.2, p=5.0, k=20, pi=0.346, d_max=16, mu=0.0)
        assert validate_config(cfg) is cfg

    def test_rejects_zero_alpha(self):
        with pytest.raises(ValueError, match="alpha must be nonzero"):
            validate_config(NetworkConfig(alpha=0.0, p=5.0))

    def test_rejects_unit_alpha(self):
        with pytest.raises(ValueError, match="alpha magnitude must be < 1"):
            validate_config(NetworkConfig(alpha=1.0, p=5.0))

    @pytest.mark.parametrize(
        "field,cfg",
        [
            ("p", NetworkConfig(alpha=0.2, p=0.0)),
            ("pi", NetworkConfig(alpha=0.2, p=5.0, pi=-0.1)),
            ("d_max", NetworkConfig(alpha=0.2, p=5.0, d_max=0)),
            ("k", NetworkConfig(alpha=0.2, p=5.0, k=1)),
            ("mu", NetworkConfig(alpha=0.2, p=5.0, mu=-1.0)),
            ("alpha", NetworkConfig(alpha=math.nan, p=5.0)),
            ("p", NetworkConfig(alpha=0.2, p=math.inf)),
            ("pi", NetworkConfig(alpha=0.2, p=5.0, pi=math.nan)),
            ("pi", NetworkConfig(alpha=0.2, p=5.0, pi=math.inf)),
            ("mu", NetworkConfig(alpha=0.2, p=5.0, mu=math.nan)),
            ("mu", NetworkConfig(alpha=0.2, p=5.0, mu=math.inf)),
        ],
    )
    def test_rejects_and_names_field(self, field, cfg):
        with pytest.raises(ValueError, match=field):
            validate_config(cfg)

    def test_asymptotic_k_accepted(self):
        validate_config(NetworkConfig(alpha=-0.5, p=1.0, k=ASYMPTOTIC_K))

    def test_negative_alpha_accepted(self):
        validate_config(NetworkConfig(alpha=-0.2, p=5.0))


class TestPairTypes:
    def test_rate_pair_rejects_negative(self):
        with pytest.raises(ValueError):
            RatePair(-0.1, 0.5)

    def test_rate_pair_rejects_inf(self):
        with pytest.raises(ValueError):
            RatePair(math.inf, 0.0)

    def test_mux_pair_bounds(self):
        MuxPair(0.0, 1.0)
        with pytest.raises(ValueError):
            MuxPair(1.2, 0.0)

    def test_halfplane_rejects_zero_normal(self):
        with pytest.raises(ValueError):
            HalfPlane(0.0, 0.0, 1.0)


class TestRegionFromHalfplanes:
    def test_two_constraint_polygon(self):
        r = region_from_halfplanes([HalfPlane(2, 1, 1), HalfPlane(1, 1, 0.8)])
        expect = ((0.0, 0.0), (0.5, 0.0), (0.2, 0.6), (0.0, 0.8))
        assert len(r.vertices) == 4
        for v, e in zip(r.vertices, expect):
            assert v == pytest.approx(e, abs=1e-12)

    def test_single_constraint_triangle(self):
        r = region_from_halfplanes([HalfPlane(1, 1, 1)])
        assert r.vertices == ((0.0, 0.0), (1.0, 0.0), (0.0, 1.0))

    def test_near_saturated_polygon(self):
        r = region_from_halfplanes([HalfPlane(2, 1, 1), HalfPlane(1, 1, 21 / 22)])
        expect = ((0.0, 0.0), (0.5, 0.0), (1 / 22, 20 / 22), (0.0, 21 / 22))
        for v, e in zip(r.vertices, expect):
            assert v == pytest.approx(e, abs=1e-12)

    def test_unbounded_raises(self):
        with pytest.raises(ValueError, match="unbounded"):
            region_from_halfplanes([HalfPlane(1, 0, 1)])  # y is free

    def test_degenerate_point(self):
        r = region_from_halfplanes([HalfPlane(1, 1, 0)])
        assert r.degenerate
        assert r.vertices == ((0.0, 0.0),)

    def test_degenerate_segment(self):
        r = region_from_halfplanes([HalfPlane(0, 1, 0), HalfPlane(1, 0, 1)])
        assert r.degenerate
        assert r.vertices == ((0.0, 0.0), (1.0, 0.0))

    def test_permutation_invariance(self):
        planes = [
            HalfPlane(2, 1, 1),
            HalfPlane(1, 1, 0.8),
            HalfPlane(1, 2, 1.5),
            HalfPlane(1, 0, 0.45),
        ]
        base = region_from_halfplanes(planes)
        rng = random.Random(7)
        for _ in range(20):
            shuffled = planes[:]
            rng.shuffle(shuffled)
            r = region_from_halfplanes(shuffled)
            assert len(r.vertices) == len(base.vertices)
            for v, e in zip(r.vertices, base.vertices):
                assert v == pytest.approx(e, abs=1e-12)

    def test_vertices_satisfy_all_constraints(self):
        rng = random.Random(11)
        for _ in range(30):
            planes = [
                HalfPlane(rng.uniform(0.1, 3), rng.uniform(0.1, 3), rng.uniform(0.2, 2))
                for _ in range(rng.randint(1, 5))
            ]
            r = region_from_halfplanes(planes)
            if r.degenerate:
                continue
            for x, y in r.vertices:
                for hp in planes:
                    assert hp.a * x + hp.b * y <= hp.c + 1e-12 * max(1.0, abs(hp.c))
                assert region_contains(r, (x, y), tol=1e-12)

    def test_redundant_plane_merged(self):
        r = region_from_halfplanes([HalfPlane(1, 1, 1), HalfPlane(1, 1, 2)])
        assert r.vertices == ((0.0, 0.0), (1.0, 0.0), (0.0, 1.0))


class TestRegionContains:
    def setup_method(self):
        self.poly = region_from_halfplanes([HalfPlane(2, 1, 1), HalfPlane(1, 1, 0.8)])

    def test_boundary_point(self):
        assert region_contains(self.poly, (0.2, 0.6), tol=1e-9)

    def test_origin_always_inside(self):
        assert region_contains(self.poly, (0.0, 0.0), tol=0.0)

    def test_outside_by_arithmetic(self):
        # 2*0.3 + 0.5 = 1.1 > 1
        assert not region_contains(self.poly, (0.3, 0.5), tol=1e-9)

    def test_tolerance_inflates(self):
        assert not region_contains(self.poly, (0.5 + 1e-6, 0.0), tol=1e-9)
        assert region_contains(self.poly, (0.5 + 1e-6, 0.0), tol=1e-5)

    def test_polyline_region(self):
        line = Region(vertices=((0.0, 1.0), (0.5, 0.8), (1.0, 0.0)), kind="polyline")
        assert region_contains(line, (0.25, 0.89), tol=1e-9)
        assert region_contains(line, (0.25, 0.9), tol=1e-9)
        assert not region_contains(line, (0.25, 0.91), tol=1e-9)
        assert not region_contains(line, (1.2, 0.0), tol=1e-9)
        assert region_contains(line, (1.0, 0.0), tol=1e-9)


class TestBoundarySlopes:
    def test_mixed_slope_polygon(self):
        r = region_from_halfplanes([HalfPlane(2, 1, 1), HalfPlane(1, 1, 0.8)])
        assert [s for _, s in boundary_slopes(r)] == pytest.approx([-1.0, -2.0], abs=1e-12)

    def test_triangle(self):
        r = region_from_halfplanes([HalfPlane(1, 1, 1)])
        assert [s for _, s in boundary_slopes(r)] == pytest.approx([-1.0], abs=1e-12)

    def test_steep_triangle(self):
        r = region_from_halfplanes([HalfPlane(2, 1, 1)])
        assert [s for _, s in boundary_slopes(r)] == pytest.approx([-2.0], abs=1e-12)

    def test_degenerate_raises(self):
        r = region_from_halfplanes([HalfPlane(1, 1, 0)])
        with pytest.raises(ValueError):
            boundary_slopes(r)

    def test_slopes_nonincreasing_for_random_regions(self):
        rng = random.Random(3)
        for _ in range(25):
            planes = [
                HalfPlane(rng.uniform(0.1, 4), rng.uniform(0.1, 4), rng.uniform(0.3, 3))
                for _ in range(rng.randint(1, 6))
            ]
            r = region_from_halfplanes(planes)
            if r.degenerate:
                continue
            slopes = [s for _, s in boundary_slopes(r)]
            for s0, s1 in zip(slopes, slopes[1:]):
                assert s1 <= s0 + 1e-9

    def test_segments_ordered_by_increasing_x(self):
        r = region_from_halfplanes([HalfPlane(2, 1, 1), HalfPlane(1, 1, 0.8)])
        segs = [seg for seg, _ in boundary_slopes(r)]
        xs = [seg[0][0] for seg in segs] + [segs[-1][1][0]]
        assert xs == sorted(xs)
