import math
import random
from fractions import Fraction

import numpy as np
import pytest

from softhandoff.model import (
    ASYMPTOTIC_K,
    VERTEX_TOL,
    MuxPair,
    NetworkConfig,
    Region,
    _polyline_ymax,
    _two_cut_polygon,
    boundary_slopes,
    region_contains,
    validate_config,
)
from softhandoff.mux_gain import MuxRegionSpec, _sum_cap, mux_region
from softhandoff.outer_bound import outer_constraints, outer_region

_FEAS_TOL = 1e-9


def _dedupe(points, tol):
    out = []
    for p in points:
        if not any(abs(p[0] - q[0]) <= tol and abs(p[1] - q[1]) <= tol for q in out):
            out.append(p)
    return out


def _convex_hull_ccw(points):
    pts = sorted(points)

    def cross(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    lower = []
    for p in pts:
        while len(lower) >= 2 and cross(lower[-2], lower[-1], p) <= VERTEX_TOL:
            lower.pop()
        lower.append(p)
    upper = []
    for p in reversed(pts):
        while len(upper) >= 2 and cross(upper[-2], upper[-1], p) <= VERTEX_TOL:
            upper.pop()
        upper.append(p)
    return lower[:-1] + upper[:-1]


def _reference_intersection(planes):
    """The general half-plane intersector that built the outer region before
    _two_cut_polygon, kept as the reference: planes (a, b, c) mean
    a*x + b*y <= c, the first quadrant is implicit.  Candidate vertices are
    all pairwise boundary intersections, filtered, merged and hulled."""
    cons = [(-1.0, 0.0, 0.0), (0.0, -1.0, 0.0), *planes]
    candidates = [(1.0, 0.0), (0.0, 1.0)]
    for a, b, _ in cons:
        n = math.hypot(a, b)
        candidates += [(-b / n, a / n), (b / n, -a / n)]
    for dx, dy in candidates:
        if dx < -1e-15 or dy < -1e-15 or max(abs(dx), abs(dy)) < 1e-15:
            continue
        if all(a * dx + b * dy <= 1e-12 for a, b, _ in cons):
            raise ValueError("half-plane intersection is unbounded")

    verts = []
    scale = max(1.0, max(abs(c) for _, _, c in cons))
    for i in range(len(cons)):
        a1, b1, c1 = cons[i]
        for j in range(i + 1, len(cons)):
            a2, b2, c2 = cons[j]
            det = a1 * b2 - a2 * b1
            if abs(det) < 1e-14:
                continue
            x = (c1 * b2 - c2 * b1) / det
            y = (a1 * c2 - a2 * c1) / det
            if all(a * x + b * y <= c + _FEAS_TOL * scale for a, b, c in cons):
                verts.append((x, y))

    verts = _dedupe(verts, VERTEX_TOL)
    if len(verts) == 1:
        return Region(vertices=(verts[0],), degenerate=True)
    if len(verts) == 2:
        return Region(vertices=tuple(sorted(verts)), degenerate=True)
    hull = _convex_hull_ccw(verts)
    if len(hull) < 3:
        return Region(vertices=tuple(sorted(hull)), degenerate=True)
    start = hull.index(min(hull))
    hull = hull[start:] + hull[:start]
    hull = [(0.0 if abs(x) <= VERTEX_TOL else x, 0.0 if abs(y) <= VERTEX_TOL else y) for x, y in hull]
    return Region(vertices=tuple(hull))


def _reference_two_cut(s, w):
    return _reference_intersection([(1, 1, s), (2, 1, w)])


def _regime(s, w):
    return "sum" if w >= 2 * s else "weighted" if w <= s else "both"


class TestValidateConfig:
    def test_accepts_published_operating_point(self):
        cfg = NetworkConfig(alpha=0.2, p=5.0, k=20, pi=0.346, d_max=16)
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
            ("k", NetworkConfig(alpha=0.2, p=5.0, k=2.5)),
            ("alpha", NetworkConfig(alpha=math.nan, p=5.0)),
            ("p", NetworkConfig(alpha=0.2, p=math.inf)),
            ("pi", NetworkConfig(alpha=0.2, p=5.0, pi=math.nan)),
            ("pi", NetworkConfig(alpha=0.2, p=5.0, pi=math.inf)),
            ("alpha", NetworkConfig(alpha=math.inf, p=5.0)),
            ("p", NetworkConfig(alpha=0.2, p=math.nan)),
            # mistyped fields raise a ValueError naming them, not a TypeError from a comparison
            *(("d_max", NetworkConfig(alpha=0.2, p=5.0, d_max=v)) for v in (2.5, True, None, "2")),
            *(("k", NetworkConfig(alpha=0.2, p=5.0, k=v)) for v in (None, True, "3", math.nan, -math.inf)),
            # finite, but (1 + (1 + alpha^2) p)(1 + alpha^2) overflows
            ("p", NetworkConfig(alpha=0.9, p=9e307)),
            ("p", NetworkConfig(alpha=-0.2, p=1.7e308)),
            # an int too large for a float is not finite
            *((name, NetworkConfig(**{"alpha": 0.2, "p": 5.0, name: 10 ** 400})) for name in ("alpha", "p", "pi", "k")),
        ],
    )
    def test_rejects_and_names_field(self, field, cfg):
        with pytest.raises(ValueError, match=field):
            validate_config(cfg)

    def test_largest_finite_rate_argument_accepted(self):
        # 1.04 * 1.04e308 is still finite: the outer bound's caps stay finite too
        cfg = validate_config(NetworkConfig(alpha=0.2, p=1e308))
        vals = outer_constraints(cfg)
        assert math.isfinite(vals.sum_cap) and math.isfinite(vals.weighted_cap)

    def test_numpy_integers_accepted(self):
        validate_config(NetworkConfig(alpha=0.2, p=5.0, k=np.int64(5), d_max=np.int64(3)))

    def test_asymptotic_k_accepted(self):
        validate_config(NetworkConfig(alpha=-0.5, p=1.0, k=ASYMPTOTIC_K))

    def test_negative_alpha_accepted(self):
        validate_config(NetworkConfig(alpha=-0.2, p=5.0))


class TestPairTypes:
    def test_mux_pair_bounds(self):
        MuxPair(0.0, 1.0)
        with pytest.raises(ValueError):
            MuxPair(1.2, 0.0)


class TestRegionFromHalfplanes:
    """The closed-form two-cut builder that replaced the half-plane
    intersector: the first quadrant cut by x + y <= s and 2x + y <= w."""

    def test_two_constraint_polygon(self):
        r = _two_cut_polygon(0.8, 1.0)
        expect = ((0.0, 0.0), (0.5, 0.0), (0.2, 0.6), (0.0, 0.8))
        assert len(r.vertices) == 4
        for v, e in zip(r.vertices, expect):
            assert v == pytest.approx(e, abs=1e-12)

    def test_single_constraint_triangle(self):
        r = _two_cut_polygon(1.0, 2.0)
        assert r.vertices == ((0.0, 0.0), (1.0, 0.0), (0.0, 1.0))

    def test_near_saturated_polygon(self):
        r = _two_cut_polygon(21 / 22, 1.0)
        expect = ((0.0, 0.0), (0.5, 0.0), (1 / 22, 20 / 22), (0.0, 21 / 22))
        for v, e in zip(r.vertices, expect):
            assert v == pytest.approx(e, abs=1e-12)

    def test_degenerate_point(self):
        r = _two_cut_polygon(0.0, 1.0)
        assert r.degenerate
        assert r.vertices == ((0.0, 0.0),)

    @pytest.mark.parametrize("s,w", [(7.6e-14, 1.0), (0.0, 0.0), (1.0, VERTEX_TOL), (VERTEX_TOL, 3.0)])
    def test_cap_at_most_vertex_tol_is_the_origin(self, s, w):
        r = _two_cut_polygon(s, w)
        assert r.degenerate and r.vertices == ((0.0, 0.0),)
        assert r == _reference_two_cut(s, w)
        assert region_contains(r, (0.0, 0.0)) and not region_contains(r, (1e-9, 0.0), tol=1e-12)

    def test_small_caps_keep_their_shape(self):
        # the intersector's hull dropped corners whose cross product was at
        # most VERTEX_TOL, so caps below about 1e-5 collapsed to a segment
        s = 4.32808514204e-09
        assert _two_cut_polygon(s, 6.6).vertices == ((0.0, 0.0), (s, 0.0), (0.0, s))
        assert _reference_two_cut(s, 6.6).vertices == ((0.0, 0.0), (s, 0.0))

    @pytest.mark.parametrize("s,w", [(1.0, 1.0 + 2**-52), (1.0, 1.0 - 2**-52), (1.0, 2.0 - 2**-51),
                                     (1.0, 1.0 + 0.9 * VERTEX_TOL), (1.0, 2.0 - 0.9 * VERTEX_TOL)])
    def test_crossing_within_vertex_tol_of_an_axis_merges(self, s, w):
        r = _two_cut_polygon(s, w)
        assert r.vertices == ((0.0, 0.0), (min(s, w / 2), 0.0), (0.0, min(s, w)))
        ref = _reference_two_cut(s, w)
        assert len(ref.vertices) == 3
        for v, e in zip(r.vertices, ref.vertices):
            assert v == pytest.approx(e, abs=VERTEX_TOL)

    def test_tied_outer_caps_match_intersector(self):
        # pi = -log2|alpha| / 2 at K = inf ties the cuts analytically, and
        # w lands within a few ulps of s on either side
        for e in range(1, 8):
            for i in range(-100, 200):
                cfg = NetworkConfig(alpha=2.0**-e, p=1.1**i, pi=e / 2)
                caps = outer_constraints(cfg)
                assert abs(caps.weighted_cap - caps.sum_cap) < 1e-14
                r, ref = outer_region(cfg), _reference_two_cut(caps.sum_cap, caps.weighted_cap)
                assert len(r.vertices) == len(ref.vertices) == 3, cfg
                for v, e_ in zip(r.vertices, ref.vertices):
                    assert v == pytest.approx(e_, rel=1e-15), cfg

    def test_vertices_satisfy_all_constraints(self):
        rng = random.Random(11)
        for _ in range(30):
            s, w = rng.uniform(0.2, 2), rng.uniform(0.2, 4)
            planes = [(1, 1, s), (2, 1, w)]
            r = _two_cut_polygon(s, w)
            for x, y in r.vertices:
                for a, b, c in planes:
                    assert a * x + b * y <= c + 1e-12 * max(1.0, abs(c))
                assert region_contains(r, (x, y), tol=1e-12)

    def test_redundant_plane_merged(self):
        r = _two_cut_polygon(1.0, 4.0)  # 2x + y <= 4 never binds
        assert r.vertices == ((0.0, 0.0), (1.0, 0.0), (0.0, 1.0))

    def test_matches_intersector_in_every_regime(self):
        rng = random.Random(5)
        seen = {"sum": 0, "weighted": 0, "both": 0}
        for _ in range(3000):
            s = 10 ** rng.uniform(-3, 3)
            w = s * rng.choice([rng.uniform(0.05, 1.0), rng.uniform(1.0, 2.0), rng.uniform(2.0, 20.0)])
            r = _two_cut_polygon(s, w)
            assert r == _reference_two_cut(s, w), (s, w)
            seen[_regime(s, w)] += 1
        assert min(seen.values()) > 500, seen

    def test_matches_intersector_on_outer_caps(self):
        rng = random.Random(17)
        seen = {"sum": 0, "weighted": 0, "both": 0}
        for _ in range(1500):
            cfg = NetworkConfig(
                alpha=rng.uniform(0.01, 0.99) * rng.choice([-1.0, 1.0]),
                p=10 ** rng.uniform(-6, 8),
                k=rng.choice([ASYMPTOTIC_K, 2, 3, 4, 5, 10, 20, 101]),
                pi=rng.choice([0.0, 0.346, 2.0, rng.uniform(0.0, 3.0)]),
            )
            caps = outer_constraints(cfg)
            r = outer_region(cfg)
            assert r == _reference_two_cut(caps.sum_cap, caps.weighted_cap), cfg
            seen[_regime(caps.sum_cap, caps.weighted_cap)] += 1
        assert min(seen.values()) > 0, seen

    def test_fraction_path_of_mux_region(self):
        # exact: the cuts x + y <= c and 2x + y <= 1 meet at (1 - c, 2c - 1)
        half = Fraction(1, 2)
        for mode in ("rx_bidirectional", "rx_unidirectional", "tx_conferencing"):
            for mu in (0, 0.1, 0.25, 0.3, Fraction(1, 3), 0.5, 1, 7):
                for d in range(1, 13):
                    spec = MuxRegionSpec(mode, mu, d)
                    c = _sum_cap(spec)
                    if c <= half:
                        exact = [(0, 0), (c, 0), (0, c)]
                    else:
                        exact = [(0, 0), (half, 0), (1 - c, 2 * c - 1), (0, c)]
                    want = tuple((float(x), float(y)) for x, y in exact)
                    assert mux_region(spec).vertices == want, spec
                    assert _two_cut_polygon(c, Fraction(1)).vertices == want, spec


class TestRegionContains:
    def setup_method(self):
        self.poly = _two_cut_polygon(0.8, 1.0)

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
        r = _two_cut_polygon(0.8, 1.0)
        assert [s for _, s in boundary_slopes(r)] == pytest.approx([-1.0, -2.0], abs=1e-12)

    def test_triangle(self):
        r = _two_cut_polygon(1.0, 2.0)
        assert [s for _, s in boundary_slopes(r)] == pytest.approx([-1.0], abs=1e-12)

    def test_steep_triangle(self):
        r = _two_cut_polygon(1.0, 1.0)
        assert [s for _, s in boundary_slopes(r)] == pytest.approx([-2.0], abs=1e-12)

    def test_degenerate_raises(self):
        r = _two_cut_polygon(0.0, 1.0)
        with pytest.raises(ValueError):
            boundary_slopes(r)

    def test_slopes_nonincreasing_for_random_regions(self):
        rng = random.Random(3)
        for _ in range(25):
            r = _two_cut_polygon(rng.uniform(0.3, 3), rng.uniform(0.3, 6))
            slopes = [s for _, s in boundary_slopes(r)]
            for s0, s1 in zip(slopes, slopes[1:]):
                assert s1 <= s0 + 1e-9

    def test_segments_ordered_by_increasing_x(self):
        r = _two_cut_polygon(0.8, 1.0)
        segs = [seg for seg, _ in boundary_slopes(r)]
        xs = [seg[0][0] for seg in segs] + [segs[-1][1][0]]
        assert xs == sorted(xs)


def _polyline_ymax_by_loop(region, x):
    """Reference: the scalar segment walk _polyline_ymax made before it took arrays."""
    v = region.vertices
    if x < v[0][0] - VERTEX_TOL or x > v[-1][0] + VERTEX_TOL:
        return math.nan
    for (x0, y0), (x1, y1) in zip(v, v[1:]):
        if x <= x1 or x1 == v[-1][0]:
            if x1 == x0:
                return max(y0, y1)
            t = min(max((x - x0) / (x1 - x0), 0.0), 1.0)
            return y0 + t * (y1 - y0)
    return v[-1][1]


class TestPolylineInterpolator:
    """One call over an array gives the scalar walk's bits, nan outside included."""

    @staticmethod
    def _polylines():
        rng = random.Random(5)
        yield Region(vertices=((0.3, 1.7),), kind="polyline")
        # a vertical step inside and two vertices sharing the last x
        yield Region(vertices=((0.0, 2.0), (0.5, 1.5), (0.5, 1.0), (1.0, 0.4), (1.0, 0.1)), kind="polyline")
        for _ in range(40):
            n = rng.randint(2, 30)
            xs = sorted(rng.uniform(-1, 3) for _ in range(n))
            ys = sorted((rng.uniform(0, 3) for _ in range(n)), reverse=True)
            yield Region(vertices=tuple(zip(xs, ys)), kind="polyline")

    def test_array_matches_scalar_walk(self):
        rng = random.Random(6)
        for region in self._polylines():
            vx = [p[0] for p in region.vertices]
            lo, hi = vx[0], vx[-1]
            xs = [*vx, lo - VERTEX_TOL, hi + VERTEX_TOL, lo - 2 * VERTEX_TOL, hi + 2 * VERTEX_TOL,
                  lo - 1, hi + 1, math.nan, *(rng.uniform(lo - 0.1, hi + 0.1) for _ in range(50))]
            want = [_polyline_ymax_by_loop(region, x) for x in xs]
            got = _polyline_ymax(region, np.array(xs))
            assert [repr(float(y)) for y in got] == [repr(y) for y in want]
            for x, w in zip(xs, want):
                y = _polyline_ymax(region, x)
                assert type(y) is float and repr(y) == repr(w)
