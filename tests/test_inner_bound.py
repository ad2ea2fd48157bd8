import itertools
import json
import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from softhandoff.gaussian_mi import PowerAllocation, cf_term
import softhandoff.inner_bound as ib
from softhandoff.inner_bound import (
    BoundaryPoint,
    BoundaryWitness,
    _alloc_from_cumulative,
    _best_per_bin,
    _scheme1_caps,
    _scheme1_table,
    _scheme2_batch,
    _scheme2_vectors,
    _u0,
    best_slow_rate_scheme2,
    eval_scheme1,
    eval_scheme2,
    inner_boundary,
    inner_region,
)
from softhandoff.model import NetworkConfig, Region, _polyline_ymax
from softhandoff.outer_bound import outer_constraints

HALF_LOG2_6 = 1.292481250360578
I_XY = 1.1846169048328596

CFG_FIG2 = NetworkConfig(alpha=0.2, p=5.0, pi=0.346, d_max=16)


class TestEvalScheme1:
    def test_reference_allocation(self):
        ev = eval_scheme1(PowerAllocation((0.2, 0.3, 0.5)), CFG_FIG2)
        assert ev.r_fast_cap == pytest.approx(0.3723714723789627, abs=1e-12)
        assert ev.r_sum_cap == pytest.approx(1.4489946025268035, abs=1e-12)

    def test_zero_pi_keeps_conditional_term(self):
        cfg = NetworkConfig(alpha=0.2, p=5.0, pi=0.0)
        ev = eval_scheme1(PowerAllocation((0.0, 0.5, 0.5)), cfg)
        assert ev.r_fast_cap == pytest.approx(0.3723714723789627, abs=1e-12)
        assert ev.r_sum_cap == pytest.approx(0.3723714723789627 + I_XY, abs=1e-12)

    def test_all_zero(self):
        ev = eval_scheme1(PowerAllocation((0.0, 0.0, 0.0)), CFG_FIG2)
        assert (ev.r_fast_cap, ev.r_sum_cap) == (0.0, 0.0)

    def test_corrected_never_larger(self):
        rng = np.random.default_rng(3)
        for _ in range(30):
            alloc = PowerAllocation(tuple(rng.dirichlet(np.ones(3))))
            printed = eval_scheme1(alloc, CFG_FIG2, corrected=False)
            corrected = eval_scheme1(alloc, CFG_FIG2, corrected=True)
            assert corrected.r_sum_cap <= printed.r_sum_cap + 1e-12
            assert corrected.r_fast_cap == printed.r_fast_cap


class TestEvalScheme2:
    def test_feasible_single_round(self):
        cfg = NetworkConfig(alpha=0.2, p=5.0, pi=2.0, d_max=1)
        ev = eval_scheme2(PowerAllocation((0.5, 0.5)), cfg)
        assert ev.r_fast_cap == pytest.approx(0.3723714723789627, abs=1e-12)
        assert ev.conf_load == pytest.approx(ev.r_fast_cap, abs=1e-12)
        assert ev.feasible
        assert ev.r_sum_cap == pytest.approx(1.2760489334077647, abs=1e-12)

    def test_infeasible_when_budget_too_small(self):
        cfg = NetworkConfig(alpha=0.2, p=5.0, pi=0.1, d_max=1)
        assert not eval_scheme2(PowerAllocation((0.5, 0.5)), cfg).feasible

    def test_all_zero_feasible(self):
        cfg = NetworkConfig(alpha=0.2, p=5.0, pi=0.0, d_max=1)
        ev = eval_scheme2(PowerAllocation((0.0, 0.0)), cfg)
        assert ev.feasible and ev.r_sum_cap == 0.0

    def test_conf_load_dominates_fast_cap(self):
        rng = np.random.default_rng(4)
        for _ in range(25):
            L = int(rng.integers(2, 5))
            alloc = PowerAllocation(tuple(rng.dirichlet(np.ones(L))))
            cfg = NetworkConfig(alpha=0.3, p=8.0, pi=1.0, d_max=L - 1)
            ev = eval_scheme2(alloc, cfg)
            assert ev.conf_load >= ev.r_fast_cap - 1e-12


class TestInnerBoundary:
    def test_boundary_shape(self):
        pts = inner_boundary(CFG_FIG2, scheme="1", grid_resolution=16)
        xs = [p.x for p in pts]
        ys = [p.y for p in pts]
        assert xs == sorted(xs)
        assert all(y0 >= y1 - 1e-9 for y0, y1 in zip(ys, ys[1:]))
        assert xs[-1] == pytest.approx(I_XY, abs=1e-6)

    def test_scheme2_pi_zero_collapses_to_y_axis(self):
        cfg = NetworkConfig(alpha=0.2, p=5.0, pi=0.0, d_max=2)
        pts = inner_boundary(cfg, scheme="2", grid_resolution=16)
        assert len(pts) == 1
        assert pts[0].x == 0.0
        assert pts[0].y == pytest.approx(HALF_LOG2_6, abs=1e-9)

    def test_vanishing_power(self):
        cfg = NetworkConfig(alpha=0.2, p=1e-6, pi=0.346, d_max=1)
        pts = inner_boundary(cfg, scheme="both", grid_resolution=16)
        assert all(p.x + p.y < 1e-5 for p in pts)

    def test_witness_reproducibility(self):
        # at d_max = 1 scheme-2 witnesses have fewer layers than scheme 1's
        for cfg in (CFG_FIG2, NetworkConfig(alpha=-0.97, p=2e6, pi=2.4, d_max=1)):
            self._assert_witnesses_reproduce(cfg)

    @staticmethod
    def _assert_witnesses_reproduce(cfg):
        seen = set()
        for corrected in (False, True):
            pts = inner_boundary(cfg, scheme="both", grid_resolution=12, corrected=corrected)
            seen |= {w.scheme for pt in pts for w in pt.components}
            for pt in pts:
                mix_x = sum(w.weight * w.x for w in pt.components)
                mix_y = sum(w.weight * w.y for w in pt.components)
                assert mix_x == pytest.approx(pt.x, abs=1e-9)
                assert mix_y == pytest.approx(pt.y, abs=1e-9)
                for w in pt.components:
                    if w.scheme == 1:
                        ev = eval_scheme1(w.alloc, cfg, corrected=corrected)
                    else:
                        ev = eval_scheme2(w.alloc, cfg, corrected=corrected)
                        assert ev.feasible
                    assert ev.r_fast_cap >= w.x - 1e-9
                    assert ev.r_sum_cap - w.x == pytest.approx(w.y, abs=1e-9)
        assert seen == {1, 2}

    def test_monotone_in_pi(self):
        cfg_lo = NetworkConfig(alpha=0.2, p=5.0, pi=0.1, d_max=2)
        cfg_hi = NetworkConfig(alpha=0.2, p=5.0, pi=0.6, d_max=2)
        lo = inner_boundary(cfg_lo, scheme="both", grid_resolution=12)
        hi = inner_boundary(cfg_hi, scheme="both", grid_resolution=12)
        lo_map = {round(p.x, 9): p.y for p in lo}
        for p in hi:
            if round(p.x, 9) in lo_map:
                assert p.y >= lo_map[round(p.x, 9)] - 1e-9

    def test_grid_resolution_validated(self):
        with pytest.raises(ValueError):
            inner_boundary(CFG_FIG2, grid_resolution=5)

    @pytest.mark.parametrize("scheme,d_max,grid", [("2", 100_000, 100_000), ("both", 117_647, 16)])
    def test_cell_budget_checked_before_sweeping(self, monkeypatch, scheme, d_max, grid):
        # (grid + 1)(d_max + 1) just over 2e6 cells; never let it reach an allocation
        monkeypatch.setattr(ib, "_best_per_bin", lambda *args: pytest.fail("swept past the cell budget"))
        with pytest.raises(ValueError, match=f"grid {grid} and d_max {d_max} ask for more than"):
            inner_boundary(replace(CFG_FIG2, d_max=d_max), scheme, grid)

    @pytest.mark.parametrize("scheme,d_max", [("both", 16), ("1", 100_000)])
    def test_cell_budget_admits_fig2_at_the_largest_grid(self, monkeypatch, scheme, d_max):
        # scheme 1 alone holds no d_max columns, so its sweep has no cell budget
        class Reached(Exception):
            pass

        def reached(*args):
            raise Reached

        monkeypatch.setattr(ib, "_best_per_bin", reached)
        with pytest.raises(Reached):
            inner_boundary(replace(CFG_FIG2, d_max=d_max), scheme, ib._MAX_GRID)


class TestInnerRegion:
    def test_polyline_invariants(self):
        r = inner_region(CFG_FIG2, scheme="both", grid_resolution=16)
        assert r.kind == "polyline"
        xs = [v[0] for v in r.vertices]
        ys = [v[1] for v in r.vertices]
        assert all(x1 > x0 for x0, x1 in zip(xs, xs[1:]))
        assert all(y1 <= y0 + 1e-9 for y0, y1 in zip(ys, ys[1:]))

    def test_concavity_of_final_boundary(self):
        r = inner_region(CFG_FIG2, scheme="both", grid_resolution=16)
        v = r.vertices
        slopes = [(y1 - y0) / (x1 - x0) for (x0, y0), (x1, y1) in zip(v, v[1:])]
        for s0, s1 in zip(slopes, slopes[1:]):
            assert s1 <= s0 + 1e-7


class TestContainmentAtPublishedOperatingPoint:
    def test_corrected_inner_inside_outer(self):
        # containment holds at the published operating regime; the
        # high-power counterexample is covered by the acceptance suite
        from softhandoff.model import region_contains
        from softhandoff.outer_bound import outer_region

        for pi in (0.0, 0.346, 1.0):
            cfg = NetworkConfig(alpha=0.2, p=5.0, pi=pi, d_max=2)
            outer = outer_region(cfg)
            for pt in inner_boundary(cfg, scheme="both", grid_resolution=12, corrected=True):
                assert region_contains(outer, (pt.x, pt.y), tol=1e-9)


class TestBestSlowRateScheme2:
    def test_top_layer_is_optimal_at_moderate_power(self):
        for d in (1, 4):
            cfg = NetworkConfig(alpha=0.2, p=5.0, pi=2.0, d_max=d)
            val, alloc = best_slow_rate_scheme2(cfg)
            assert val == pytest.approx(HALF_LOG2_6, abs=1e-9)
            ev = eval_scheme2(alloc, cfg)
            assert ev.feasible
            assert ev.r_sum_cap == pytest.approx(val, abs=1e-9)

    @pytest.mark.parametrize("corrected", [False, True])
    @pytest.mark.parametrize("p", [1e-16, 1e-300])
    def test_tiny_power_keeps_the_zero_rate_bin(self, p, corrected):
        # 1 + P(1 + a^2) rounds to 1, so the u0 formula reads below 0 at x = 0
        cfg = NetworkConfig(alpha=0.2, p=p, pi=0.5, d_max=2)
        assert np.isnan(_u0(np.array([0.0, 1e-3]), cfg)).tolist() == [False, True]
        val, alloc = best_slow_rate_scheme2(cfg, corrected)
        assert 0.0 <= val <= 1e-15
        assert eval_scheme2(alloc, cfg, corrected).feasible
        assert inner_boundary(cfg, "2", 10, corrected)


def _scheme2_batch_by_round(B, cfg, corrected):
    """Round-by-round reference: one kernel call per round, loads added in turn."""
    p, a = cfg.p, cfg.alpha
    total_pow, zero = B[:, -1], np.zeros(len(B))
    conf = cf_term(zero, B[:, 0], zero, total_pow, p, a)
    for d in range(1, B.shape[1] - 1):
        conf = conf + cf_term(B[:, d - 1], B[:, d], B[:, d - 1], total_pow, p, a)
    r_fast = cf_term(zero, B[:, 0], zero, total_pow, p, a)
    if corrected:  # the decode-consistent final term (see test_gaussian_mi's edge-case pins)
        final = cf_term(B[:, -2], total_pow, B[:, -2], total_pow, p, a)
    else:  # the neighbour's full input known
        final = cf_term(B[:, -2], total_pow, total_pow, total_pow, p, a)
    return r_fast, conf, conf + final


class TestScheme2Batch:
    @pytest.mark.parametrize("corrected", [False, True])
    @pytest.mark.parametrize("L", range(2, 18))
    def test_bit_identical_to_round_by_round(self, L, corrected):
        rng = np.random.default_rng(1000 + L)
        for cfg in (CFG_FIG2, NetworkConfig(alpha=-0.7, p=50.0, pi=0.5, d_max=L - 1)):
            for m in (1, 25, 400):
                B = np.sort(rng.uniform(0.0, 1.0, (m, L)), axis=1)
                B[: m // 2, -1] = 1.0  # full total power, as at the lattice top
                B[: m // 3] = np.round(B[: m // 3] * 4) / 4  # repeated levels
                got = _scheme2_batch(B, cfg, corrected)
                want = _scheme2_batch_by_round(B, cfg, corrected)
                for g, w in zip(got, want):
                    assert np.array_equal(g, w)


# ---------------------------------------------------------------------------
# Reference: the lattice plus lockstep coordinate-descent search that
# inner_bound ran before the optimum was known in closed form.  It returns a
# feasible allocation per bin, so the closed form must match or beat it.
# ---------------------------------------------------------------------------

def _scheme2_lattice(cfg, corrected, budget=25_000):
    """Nondecreasing lattice vectors in [0,1]^L at the finest enumerable step,
    with their (r_fast, conf_load, total) evaluated in blocks of rows."""
    L = cfg.d_max + 1
    n = 1
    while math.comb(n + 1 + L, L) <= budget:
        n += 1
    B = np.array(list(itertools.combinations_with_replacement(range(n + 1), L)), dtype=float) / n
    return (B, *_scheme2_blocks(B, cfg, corrected))


def _scheme2_blocks(B, cfg, corrected, block=2048):
    vals = np.empty((3, len(B)))
    for i in range(0, len(B), block):
        vals[:, i:i + block] = _scheme2_batch(B[i:i + block], cfg, corrected)
    return vals


def _coordinate_descent(B0, cfg, x_target, corrected=False, n_line=25, sweeps=40):
    """Lockstep coordinate descents from the seed rows of B0, each keeping its
    fast cap at least x_target and its load within pi; (best, B) per row."""
    B = np.array(B0, dtype=float)
    m, L = B.shape
    x_row = np.broadcast_to(np.asarray(x_target, dtype=float), (m,))

    def value(Bm, x):
        r_fast, conf, tot = _scheme2_blocks(Bm, cfg, corrected)
        ok = (r_fast >= x - 1e-9) & (conf <= cfg.pi + 1e-9)
        return np.where(ok, tot, -np.inf)

    best = value(B, x_row)
    live = np.flatnonzero(np.isfinite(best))
    steps = np.arange(n_line, dtype=float)
    for _ in range(sweeps):
        if not live.size:
            break
        improved = np.zeros(live.size, dtype=bool)
        for j in range(L):
            lo = B[live, j - 1] if j > 0 else np.zeros(live.size)
            hi = B[live, j + 1] if j < L - 1 else np.ones(live.size)
            act = ~(hi - lo < 1e-14)
            if not act.any():
                continue
            rows, lo, hi = live[act], lo[act], hi[act]
            n = rows.size
            Bm = np.empty((n, n_line, L))
            Bm[:] = B[rows, None, :]
            Bm[:, :, j] = steps * ((hi - lo) / (n_line - 1))[:, None] + lo[:, None]
            Bm[:, -1, j] = hi
            x = np.repeat(x_row[rows], n_line)
            vals = value(Bm.reshape(n * n_line, L), x).reshape(n, n_line)
            k = vals.argmax(axis=1)
            top = vals[np.arange(n), k]
            up = top > best[rows] + 1e-13
            best[rows[up]] = top[up]
            B[rows[up]] = Bm[up, k[up]]
            improved[act] |= up
        live = live[improved]
    return best, B


def _scheme2_candidates(cfg, x, grid_best):
    """Top, linspace and lattice seeds for the bin at fast rate x."""
    L = cfg.d_max + 1
    seeds = []
    u0 = _u0(np.array([x]), cfg)[0]
    if not np.isnan(u0):
        b1 = 1 - u0
        top = np.full(L, b1)
        top[-1] = 1.0
        seeds.append(top)
        if L > 2:
            seeds.append(np.concatenate([[b1], np.linspace(b1, 1.0, L)[1:]]))
    if grid_best is not None:
        seeds.append(grid_best)
    return seeds


def _search_per_bin(cfg, want1, want2, grid_resolution, corrected):
    """(x, y, scheme, alloc) per bin: tables, then the top, linspace and
    lattice seeds of every bin with x <= pi descended in lockstep, then a
    warm seed (the last descent that won a bin) bin by bin."""
    if want1:
        s1_fast, s1_sum, s1_B = _scheme1_table(cfg, 64, corrected)
    if want2:
        s2_B, s2_fast, s2_conf, s2_sum = _scheme2_lattice(cfg, corrected)
    x_max = float(np.max(s1_fast)) if want1 else 0.0
    if want2:
        feas = s2_conf <= cfg.pi + 1e-9
        x2 = max(float(np.max(s2_fast[feas])), min(cfg.pi, float(np.max(s2_fast))))
        x_max = max(x_max, x2)
    xs = np.unique(np.linspace(0.0, x_max if x_max >= 1e-12 else 0.0, grid_resolution + 1))

    bests, grid_best = [], []
    for x in xs:
        best = (-np.inf, 0, None)
        grid_best_B = None
        if want1:
            mask = s1_fast >= x - 1e-12
            if np.any(mask):
                k = int(np.argmax(np.where(mask, s1_sum, -np.inf)))
                b1, b2, b3 = s1_B[k]
                best = (float(s1_sum[k]), 1, PowerAllocation((b1, b2 - b1, b3 - b2)))
        if want2:
            mask = (s2_fast >= x - 1e-12) & (s2_conf <= cfg.pi + 1e-9)
            if np.any(mask):
                k = int(np.argmax(np.where(mask, s2_sum, -np.inf)))
                grid_best_B = s2_B[k]
                if s2_sum[k] > best[0]:
                    best = (float(s2_sum[k]), 2, _alloc_from_cumulative(s2_B[k]))
        bests.append(best)
        grid_best.append(grid_best_B)

    if want2:
        L = cfg.d_max + 1
        refined = [i for i, x in enumerate(xs) if x <= cfg.pi + 1e-12]
        seeds = [_scheme2_candidates(cfg, float(xs[i]), grid_best[i]) for i in refined]
        owner = [i for i, s in zip(refined, seeds) for _ in s]
        vals, Bs = _coordinate_descent(
            np.reshape([b for s in seeds for b in s], (-1, L)), cfg, xs[owner], corrected
        )
        warm = None
        start = 0
        for i, s in zip(refined, seeds):
            results = list(zip(vals[start:start + len(s)], Bs[start:start + len(s)]))
            start += len(s)
            if warm is not None:
                val, B = _coordinate_descent(warm[None, :], cfg, xs[i], corrected)
                results.append((val[0], B[0]))
            for val, B in results:
                if val > bests[i][0] + 1e-13:
                    bests[i] = (float(val), 2, _alloc_from_cumulative(B))
                    warm = B
    return [
        (float(x), val - float(x), scheme, alloc)
        for x, (val, scheme, alloc) in zip(xs, bests)
        if alloc is not None and math.isfinite(val)
    ]


def _search_slow_rate(cfg, corrected):
    """Best scheme-2 sum cap at zero fast rate: lattice best, then descents."""
    grid, _, conf, tot = _scheme2_lattice(cfg, corrected)
    k = int(np.argmax(np.where(conf <= cfg.pi + 1e-9, tot, -np.inf)))
    best_val, best_B = float(tot[k]), grid[k]
    seeds = _scheme2_candidates(cfg, 0.0, best_B)
    vals, Bs = _coordinate_descent(np.reshape(seeds, (-1, cfg.d_max + 1)), cfg, 0.0, corrected)
    for val, B in zip(vals, Bs):
        if val > best_val:
            best_val, best_B = float(val), B
    return best_val, _alloc_from_cumulative(best_B)


def _random_configs(seed, n, log10_p=(-1.0, 2.0), max_d=8):
    rng = np.random.default_rng(seed)
    for _ in range(n):
        yield (
            NetworkConfig(
                alpha=float(rng.uniform(0.05, 0.95)) * (1.0 if rng.random() < 0.5 else -1.0),
                p=float(10 ** rng.uniform(*log10_p)),
                pi=0.0 if rng.random() < 0.2 else float(rng.uniform(0.0, 3.0)),
                d_max=int(rng.integers(1, max_d + 1)),
            ),
            int(rng.integers(10, 15)),
        )


_NO_SEARCH_CASES = [(NetworkConfig(alpha=0.2, p=5.0, pi=2.0, d_max=10), "2"), (CFG_FIG2, "both")]


class TestClosedForm:
    """Under the printed terms the optimum is known, and nothing is searched."""

    @pytest.mark.parametrize("scheme", ["1", "2", "both"])
    def test_matches_search(self, scheme):
        want1, want2 = scheme in ("1", "both"), scheme in ("2", "both")
        seed = {"1": 41, "2": 42, "both": 43}[scheme]
        for cfg, grid in _random_configs(seed, 20, log10_p=(-2.0, 5.0), max_d=10):
            xs, ys, _, _ = _best_per_bin(cfg, want1, want2, grid, False)
            want = _search_per_bin(cfg, want1, want2, grid, False)
            assert len(xs) == len(want) > 0, cfg
            for x, y, w in zip(xs, ys, want):
                assert x == w[0], cfg
                assert abs(y - w[1]) <= 1e-12, (cfg, x, y, w)

    def test_slow_rate_matches_search(self):
        for cfg, _ in _random_configs(44, 20, log10_p=(-2.0, 5.0), max_d=10):
            val, alloc = best_slow_rate_scheme2(cfg)
            assert abs(val - _search_slow_rate(cfg, False)[0]) <= 1e-12, cfg
            assert eval_scheme2(alloc, cfg).r_sum_cap == pytest.approx(val, abs=1e-9)

    @pytest.mark.parametrize("alpha,p,pi", [(0.2, 5.0, 2.0), (-0.7, 50.0, 0.5), (0.9, 1e4, 0.0)])
    def test_scheme2_does_not_depend_on_dmax(self, alpha, p, pi):
        curves = [
            inner_boundary(NetworkConfig(alpha=alpha, p=p, pi=pi, d_max=d), scheme="2", grid_resolution=32)
            for d in range(1, 13)
        ]
        for pts in curves[1:]:
            assert len(pts) == len(curves[0])
            for a, b in zip(pts, curves[0]):
                assert abs(a.x - b.x) <= 1e-12 and abs(a.y - b.y) <= 1e-12

    @pytest.mark.parametrize("cfg,scheme", _NO_SEARCH_CASES, ids=["fig3_d10", "fig2"])
    def test_no_search_on_printed_terms(self, monkeypatch, cfg, scheme):
        _assert_no_search(monkeypatch, cfg, scheme, corrected=False)


def _assert_no_search(monkeypatch, cfg, scheme, corrected):
    """At most 2 _scheme2_batch calls per sweep, and the scheme-1 table only
    for corrected sweeps that ask for scheme 1."""
    calls = {name: 0 for name in ("_scheme2_batch", "_scheme1_table")}

    def counted(name):
        fn = getattr(ib, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    for name in calls:
        monkeypatch.setattr(ib, name, counted(name))
    assert inner_boundary(cfg, scheme=scheme, grid_resolution=64, corrected=corrected)
    assert calls["_scheme2_batch"] <= 2
    assert calls["_scheme1_table"] == (corrected and scheme != "2")


def _criterion_06_configs():
    """The configs of acceptance criterion 06 (documented counterexample plus 10 draws)."""
    rng = np.random.default_rng(13)
    configs = [NetworkConfig(alpha=0.2, p=100.0, pi=0.346, d_max=1)]
    for _ in range(10):
        configs.append(
            NetworkConfig(
                alpha=float(rng.uniform(0.05, 0.95)) * (1.0 if rng.random() < 0.5 else -1.0),
                p=float(10 ** rng.uniform(-1.0, 2.0)),
                pi=float(rng.uniform(0.0, 2.0)),
                d_max=int(rng.integers(1, 4)),
            )
        )
    return [(cfg, "both", 12) for cfg in configs]


# (config, scheme, grid) of fig2, fig3 d4-d10 and acceptance criteria 06 and 07
_CORRECTED_GATE = {
    "fig2": [(CFG_FIG2, "both", 64)],
    "fig3": [(NetworkConfig(alpha=0.2, p=5.0, pi=2.0, d_max=d), "2", 64) for d in (4, 6, 8, 10)],
    "criterion06": _criterion_06_configs(),
    "criterion07": (
        [(NetworkConfig(alpha=0.2, p=5.0, pi=pi, d_max=2), "both", 24) for pi in (0.0, 0.25, 0.6, 1.2)]
        + [(NetworkConfig(alpha=0.2, p=p, pi=0.5, d_max=2), "both", 24) for p in (2.0, 5.0, 10.0)]
        + [(NetworkConfig(alpha=0.2, p=5.0, pi=1.0, d_max=d), "2", 24) for d in (1, 2, 3, 4)]
    ),
}

SEARCH_REFERENCE = Path(__file__).parent / "golden" / "corrected_search_reference.json"


def _seeded_corrected_configs():
    """100 seeded corrected configs: d_max 1-16, P 1e-2..1e6, schemes 2 and both."""
    for i, (cfg, grid) in enumerate(_random_configs(2024, 100, log10_p=(-2.0, 6.0), max_d=16)):
        yield cfg, ("2", "both")[i % 2], grid


def _search_reference(cfg, scheme, grid):
    """What the search reaches on cfg under the corrected terms, as stored in SEARCH_REFERENCE."""
    bins = _search_per_bin(cfg, scheme != "2", scheme != "1", grid, True)
    return {
        "alpha": cfg.alpha, "p": cfg.p, "pi": cfg.pi, "d_max": cfg.d_max, "scheme": scheme, "grid": grid,
        "bins": [[x, y] for x, y, _, _ in bins], "slow_rate": _search_slow_rate(cfg, True)[0],
    }


def _assert_matches_or_beats(cfg, scheme, grid, bins, slow_rate):
    """Every bin keeps the search's x and is at most 1e-9 below its y; the
    slow rate too, and its witness re-derives through eval_scheme2."""
    xs, ys, _, _ = _best_per_bin(cfg, scheme != "2", scheme != "1", grid, True)
    assert len(xs) == len(bins) > 0, cfg
    for x, y, (want_x, want_y) in zip(xs, ys, bins):
        assert x == want_x, cfg
        assert y >= want_y - 1e-9, (cfg, x, y, want_y)
    val, alloc = best_slow_rate_scheme2(cfg, corrected=True)
    assert val >= slow_rate - 1e-9, cfg
    ev = eval_scheme2(alloc, cfg, corrected=True)
    assert ev.feasible and abs(ev.r_sum_cap - val) <= 1e-9, cfg


class TestCorrectedClosedForm:
    """Under the corrected terms the closed form matches or beats the search."""

    @pytest.mark.parametrize("group", sorted(_CORRECTED_GATE))
    def test_matches_or_beats_search(self, group):
        for cfg, scheme, grid in _CORRECTED_GATE[group]:
            want = _search_reference(cfg, scheme, grid)
            _assert_matches_or_beats(cfg, scheme, grid, want["bins"], want["slow_rate"])

    def test_matches_or_beats_stored_search(self):
        """The 100 seeded configs, against the search's stored results (the
        search takes about 15 s on them; rewrite the file with
        `PYTHONPATH=src python tests/test_inner_bound.py`)."""
        stored = json.loads(SEARCH_REFERENCE.read_text())
        configs = list(_seeded_corrected_configs())
        assert len(stored) == len(configs) == 100
        for (cfg, scheme, grid), want in zip(configs, stored):
            assert (want["alpha"], want["p"], want["pi"], want["d_max"]) == (cfg.alpha, cfg.p, cfg.pi, cfg.d_max)
            assert (want["scheme"], want["grid"]) == (scheme, grid)
            _assert_matches_or_beats(cfg, scheme, grid, want["bins"], want["slow_rate"])

    def test_stored_search_is_the_search(self):
        stored = json.loads(SEARCH_REFERENCE.read_text())
        for i, (cfg, scheme, grid) in enumerate(_seeded_corrected_configs()):
            if i % 25 == 0:
                assert _search_reference(cfg, scheme, grid) == stored[i], cfg

    @pytest.mark.parametrize("cfg,scheme", _NO_SEARCH_CASES, ids=["fig3_d10", "fig2"])
    def test_no_search_on_corrected_terms(self, monkeypatch, cfg, scheme):
        _assert_no_search(monkeypatch, cfg, scheme, corrected=True)

    def test_grows_with_dmax(self):
        # unlike the printed boundary, the corrected one gains from more rounds
        ys = [inner_boundary(NetworkConfig(alpha=0.2, p=5.0, pi=2.0, d_max=d), "2", 16, corrected=True)[0].y
              for d in (1, 4, 10)]
        assert ys[0] < ys[1] < ys[2]


def _best_per_bin_by_loop(cfg, want1, want2, grid_resolution, corrected):
    """Reference: the per-bin selection _best_per_bin made before its sorted
    pass, a Python loop over the bins; (x, y, scheme, cumulative row) per bin."""
    L = cfg.d_max + 1
    x_max = 0.0
    if want1 and corrected:
        s1_fast, s1_sum, s1_B = _scheme1_table(cfg, 64, corrected)
        x_max = float(np.max(s1_fast))
    elif want1:
        s1_fast, s1_sum = _scheme1_caps(np.zeros(1), np.ones(1), np.ones(1), cfg, False)
        x_max = float(s1_fast[0])
    if want2:
        x_max = max(x_max, min(cfg.pi, float(_scheme2_batch(np.ones((1, L)), cfg)[0][0])))
    xs = np.unique(np.linspace(0.0, x_max if x_max >= 1e-12 else 0.0, grid_resolution + 1))

    bests = [(-np.inf, 0, None)] * len(xs)
    if want1 and corrected:
        for i, x in enumerate(xs):
            mask = s1_fast >= x - 1e-12
            if np.any(mask):
                k = int(np.argmax(np.where(mask, s1_sum, -np.inf)))
                bests[i] = (float(s1_sum[k]), 1, s1_B[k])
    elif want1:
        bests = [(float(s1_sum[0]), 1, np.array([0.0, 1.0, 1.0]))] * len(xs)
    if want2:
        u0 = np.array([_u0(np.array([x]), cfg)[0] if x <= cfg.pi + 1e-12 else np.nan for x in xs])
        rows = np.flatnonzero(~np.isnan(u0))
        B = _scheme2_vectors(u0[rows], xs[rows], cfg, corrected)
        r_fast, conf, tot = _scheme2_batch(B, cfg, corrected)
        ok = (r_fast >= xs[rows] - 1e-9) & (conf <= cfg.pi + 1e-9)
        for i, b, val in zip(rows[ok], B[ok], tot[ok]):
            if val > bests[i][0]:
                bests[i] = (float(val), 2, b)
    later = (-np.inf, 0, None)  # the nearest bin at or right of i with the largest sum cap
    for i in reversed(range(len(bests))):
        if math.isfinite(bests[i][0]):
            bests[i] = later = max(bests[i], later, key=lambda b: b[0])
    return [
        (float(x), best_val - float(x), scheme, row)
        for x, (best_val, scheme, row) in zip(xs, bests)
        if row is not None and math.isfinite(best_val)
    ]


_ROUNDED_UP = NetworkConfig(alpha=-0.12117025255844062, p=0.0011244135657449612, pi=1.3953575982264668, d_max=10)


class TestSortedSelection:
    """One sorted pass over the table picks the same winner in every bin as
    the per-bin loop did (first index on ties)."""

    @staticmethod
    def _assert_same(cfg, want1, want2, grid, corrected):
        xs, ys, schemes, B = _best_per_bin(cfg, want1, want2, grid, corrected)
        want = _best_per_bin_by_loop(cfg, want1, want2, grid, corrected)
        assert len(xs) == len(want) > 0, cfg
        for x, y, s, row, (wx, wy, ws, wrow) in zip(xs, ys, schemes, B, want):
            assert (x, y, s) == (wx, wy, ws), cfg
            assert np.array_equal(row[:len(wrow)], wrow), (cfg, x)

    @pytest.mark.parametrize("grid", [10, 64, 599, 4000])
    def test_corrected_scheme1(self, grid):
        for cfg, _ in _random_configs(100 + grid, 3, log10_p=(-2.0, 6.0), max_d=16):
            self._assert_same(cfg, True, False, grid, True)

    @pytest.mark.parametrize("corrected", [False, True])
    @pytest.mark.parametrize("want1,want2", [(True, False), (False, True), (True, True)])
    def test_every_scheme(self, want1, want2, corrected):
        for cfg, grid in _random_configs(7, 12, log10_p=(-3.0, 8.0), max_d=16):
            self._assert_same(cfg, want1, want2, 5 * grid, corrected)
        self._assert_same(CFG_FIG2, want1, want2, 64, corrected)
        # d_max = 1: scheme 2 writes 2 levels where scheme 1 wrote 3
        self._assert_same(NetworkConfig(alpha=-0.97, p=2e6, pi=2.4, d_max=1), want1, want2, 21, corrected)

    def test_a_later_larger_cap_serves_the_bins_left_of_it(self):
        # bin 91's closed form rounds 4.1e-16 bits above bins 0..90, whose
        # optimum is the same allocation
        xs, ys, _, B = _best_per_bin(_ROUNDED_UP, False, True, 1000, True)
        caps = _scheme2_batch(B, _ROUNDED_UP, True)[2]
        assert np.all(np.diff(caps) <= 0) and ys.tolist() == (caps - xs).tolist()
        assert np.array_equal(B[0], B[91]) and not np.array_equal(B[91], B[92])
        self._assert_same(_ROUNDED_UP, False, True, 1000, True)

    def test_ties_take_the_first_row(self):
        # at pi = 0 with a strong cross gain many table rows share a sum cap
        cfg = NetworkConfig(alpha=0.9, p=1e4, pi=0.0, d_max=1)
        _, s1_sum, _ = _scheme1_table(cfg, 64, True)
        assert len(np.unique(s1_sum)) < len(s1_sum)
        self._assert_same(cfg, True, False, 200, True)


def _rate_transfer_closure_by_loop(region):
    """Close a polyline region under moving fast rate to slow rate, the pass
    inner_region once ran: if (a, b) is achievable so is (a - d, b + d) for
    0 <= d <= a, so the closed boundary at x is max(f(x), max over points
    right of x of (x_j + y_j) - x)."""
    v = list(region.vertices)
    xs = [p[0] for p in v]
    ys = [p[1] for p in v]
    n = len(v)
    suffix = [0.0] * n
    acc = -math.inf
    for i in range(n - 1, -1, -1):
        acc = max(acc, xs[i] + ys[i])
        suffix[i] = acc

    out = []

    def push(x, y):
        if out and abs(out[-1][0] - x) <= 1e-15:
            if y > out[-1][1]:
                out[-1] = (x, y)
            return
        out.append((x, y))

    if xs[0] > 0:
        push(0.0, suffix[0])
    for i in range(n):
        push(xs[i], max(ys[i], suffix[i] - xs[i]))
        if i + 1 < n:
            x0, y0, x1, y1 = xs[i], ys[i], xs[i + 1], ys[i + 1]
            if x1 - x0 <= 1e-15:
                continue
            s = (y1 - y0) / (x1 - x0)
            if abs(s + 1) > 1e-15:
                xc = (suffix[i + 1] - y0 + s * x0) / (s + 1)
                if x0 + 1e-15 < xc < x1 - 1e-15:
                    fc = y0 + s * (xc - x0)
                    push(xc, max(fc, suffix[i + 1] - xc))

    merged = []
    for pt in out:
        while len(merged) >= 2:
            (ax, ay), (bx, by) = merged[-2], merged[-1]
            cross = (bx - ax) * (pt[1] - ay) - (by - ay) * (pt[0] - ax)
            if abs(cross) <= 1e-13:
                merged.pop()
            else:
                break
        merged.append(pt)
    return Region(vertices=tuple(merged), kind="polyline", degenerate=region.degenerate)


_FIG3 = {d: NetworkConfig(alpha=0.2, p=5.0, pi=2.0, d_max=d) for d in (4, 10)}


class TestClosureSuffix:
    """inner_region is the hull of the bins, and closing it under rate
    transfer adds nothing."""

    @pytest.mark.parametrize("cfg,scheme,corrected", [
        (CFG_FIG2, "both", False), (CFG_FIG2, "both", True), (_FIG3[4], "2", False), (_FIG3[10], "2", False),
        *((cfg, ("1", "2", "both")[i % 3], i % 2 == 1)
          for i, (cfg, _) in enumerate(_random_configs(77, 20, log10_p=(-3.0, 8.0), max_d=16))),
    ])
    def test_inner_region_matches_loop(self, cfg, scheme, corrected):
        xs, ys, _, _ = _best_per_bin(cfg, scheme != "2", scheme != "1", 64, corrected)
        hull = _upper_concave_envelope_by_loop(xs, ys)
        want = Region(vertices=tuple(zip(xs[hull].tolist(), ys[hull].tolist())), kind="polyline")
        got = inner_region(cfg, scheme, 64, corrected)
        assert got == want
        assert repr(got) == repr(want)
        _assert_one_hull(cfg, scheme, 64, corrected)


class TestSchemeOneSlack:
    def test_fast_cap_just_below_a_bin_still_serves_it(self, monkeypatch):
        # row 1's fast cap lies 5e-13 below the bin at x = 0.5; the bin's
        # 1e-12 slack still counts it, and its larger sum cap wins
        fast = np.array([1.0, 0.5 - 5e-13])
        rsum = np.array([1.5, 3.0])
        rows = np.array([[0.0, 1.0, 1.0], [0.1, 0.2, 0.3]])
        monkeypatch.setattr(ib, "_scheme1_table", lambda cfg, n, corrected: (fast, rsum, rows))
        xs, ys, schemes, B = _best_per_bin(CFG_FIG2, True, False, 10, True)
        assert xs[5] == 0.5 and xs[5] - fast[1] > 0
        assert (ys[5], schemes[5]) == (3.0 - 0.5, 1)
        assert B[5, :3].tolist() == [0.1, 0.2, 0.3]
        assert B[6, :3].tolist() == [0.0, 1.0, 1.0]  # x = 0.6 is out of its reach


def _upper_concave_envelope_by_loop(xs, ys):
    tol = -1e-15 * max(abs(y) for y in ys) if len(xs) else 0.0
    hull = []
    for i in range(len(xs)):
        while len(hull) >= 2:
            i0, i1 = hull[-2], hull[-1]
            cross = (xs[i1] - xs[i0]) * (ys[i] - ys[i0]) - (ys[i1] - ys[i0]) * (xs[i] - xs[i0])
            if cross >= tol * (xs[i] - xs[i0]):
                hull.pop()
            else:
                break
        hull.append(i)
    return hull


def _inner_boundary_by_loop(cfg, scheme, grid_resolution, corrected):
    """Reference: the per-point loop inner_boundary ran before it was array-native,
    one searchsorted and up to two witnesses per point, every hull vertex's
    allocation built up front."""
    pxs, pys, schemes, B = _best_per_bin(cfg, scheme != "2", scheme != "1", grid_resolution, corrected)
    if not len(pxs):
        return []
    hull = _upper_concave_envelope_by_loop(pxs, pys)
    hx = pxs[hull]
    levels = (0, 3, cfg.d_max + 1)
    allocs = {i: _alloc_from_cumulative(B[i, :levels[schemes[i]]]) for i in hull}
    px, py, ps = pxs.tolist(), pys.tolist(), schemes.tolist()

    def witness(weight, i):
        return BoundaryWitness(weight, ps[i], allocs[i], px[i], py[i])

    points = []
    for x in pxs:
        j = int(np.searchsorted(hx, x, side="right")) - 1
        if hx[j] == x:
            y = pys[hull[j]]
            comp = (witness(1.0, hull[j]),)
        else:
            i0, i1 = hull[j], hull[j + 1]
            t = (x - pxs[i0]) / (pxs[i1] - pxs[i0])
            y = (1 - t) * pys[i0] + t * pys[i1]
            if t <= 1e-15 or t >= 1 - 1e-15:
                comp = (witness(1.0, i0 if t <= 1e-15 else i1),)
            else:
                comp = (witness(float(1 - t), i0), witness(float(t), i1))
        points.append(BoundaryPoint(float(x), float(y), comp))
    return points


_D1 = NetworkConfig(alpha=-0.97, p=2e6, pi=2.4, d_max=1)  # scheme-2 witnesses of 2 layers next to 3


def _array_path_configs(grid):
    """fig2 (mostly timeshare points), the d_max = 1 config and seeded ones, fewer at 4000."""
    seeded = [cfg for cfg, _ in _random_configs(500 + grid, 2 if grid > 1000 else 8, log10_p=(-3.0, 8.0), max_d=16)]
    return [CFG_FIG2, _D1, *seeded]


class TestArrayBoundary:
    """The array-native boundary equals the per-point loop bit for bit."""

    @staticmethod
    def _assert_same(cfg, scheme, grid, corrected):
        got = inner_boundary(cfg, scheme, grid, corrected)
        want = _inner_boundary_by_loop(cfg, scheme, grid, corrected)
        assert len(got) == len(want) > 0
        assert got.cols["x"].tolist() == [p.x for p in want]
        assert got.cols["y"].tolist() == [p.y for p in want]
        assert got.cols["source"].tolist() == [
            "timeshare" if len(p.components) > 1 else f"scheme{p.components[0].scheme}" for p in want]
        # repr tells floats apart bit by bit, signed zeros included
        assert repr(list(got)) == repr(want)
        assert list(got) == want
        return got, want

    @pytest.mark.parametrize("grid", [10, 64, 4000])
    @pytest.mark.parametrize("corrected", [False, True])
    @pytest.mark.parametrize("scheme", ["1", "2", "both"])
    def test_matches_loop(self, scheme, corrected, grid):
        for cfg in _array_path_configs(grid):
            self._assert_same(cfg, scheme, grid, corrected)

    def test_fig2_is_mostly_timeshare(self):
        got, _ = self._assert_same(CFG_FIG2, "both", 64, False)
        assert (got.cols["source"] == "timeshare").sum() > len(got) / 2

    def test_indexing_matches_the_list(self):
        got, want = self._assert_same(CFG_FIG2, "both", 64, True)
        n = len(want)
        for i in (0, 1, n - 1, -1, -2, -n):
            assert got[i] == want[i]
        for sl in (slice(None), slice(-3, None), slice(None, None, 7), slice(5, 2, -1), slice(n + 5, None)):
            assert got[sl] == want[sl]
        for i in (n, -n - 1):
            with pytest.raises(IndexError):
                got[i]

    def test_boundaries_compare_like_lists(self):
        # each sweep makes its own record builder, so equal sweeps compare record by record
        assert inner_boundary(CFG_FIG2, "both", 64) == inner_boundary(CFG_FIG2, "both", 64)
        assert inner_boundary(CFG_FIG2, "both", 64) != inner_boundary(CFG_FIG2, "both", 32)
        assert inner_boundary(CFG_FIG2, "2", 64) == _inner_boundary_by_loop(CFG_FIG2, "2", 64, False)

    def test_len_reads_no_witness(self, monkeypatch):
        built = []

        def counting(B):
            built.append(B.tolist())
            return _alloc_from_cumulative(B)

        monkeypatch.setattr(ib, "_alloc_from_cumulative", counting)
        pts = inner_boundary(CFG_FIG2, "both", 64)
        assert len(pts) == 65 and pts
        assert [c.tolist() for c in pts.cols.values()]  # reading the columns builds nothing either
        assert built == []
        first = pts[0]
        assert len(built) == 1 and pts[0] == first and len(built) == 1
        points = list(pts)
        hull_vertices = {(w.x, w.y) for p in points for w in p.components}
        assert len(built) == len(hull_vertices)  # one allocation per hull vertex, when first read


def _assert_one_hull(cfg, scheme, grid, corrected):
    """Every point inner_boundary reports lies on inner_region and none below
    its own bin's optimum, and closing inner_region under rate transfer adds
    nothing, each to a tolerance relative to max |y|."""
    pts = inner_boundary(cfg, scheme, grid, corrected)
    region = inner_region(cfg, scheme, grid, corrected)
    optimum = _best_per_bin(cfg, scheme != "2", scheme != "1", grid, corrected)[1]
    scale = np.max(np.abs(optimum))
    x, y = pts.cols["x"], pts.cols["y"]
    assert np.all(y <= _polyline_ymax(region, x) + 1e-15 * scale)
    assert np.all(y >= optimum - 1e-12 * scale)
    closed = _rate_transfer_closure_by_loop(region)
    at = np.union1d(*(np.array(r.vertices)[:, 0] for r in (region, closed)))
    assert np.all(_polyline_ymax(closed, at) <= _polyline_ymax(region, at) + 1e-14 * scale)


_ALPHAS = st.floats(0.02, 0.98).flatmap(lambda a: st.sampled_from([a, -a]))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(
    alpha=_ALPHAS, log_p=st.floats(-3, 8), pi=st.floats(0, 3), d_max=st.integers(1, 16),
    scheme=st.sampled_from(["1", "2", "both"]), corrected=st.booleans(), grid=st.sampled_from([16, 64, 1000]),
)
def test_one_hull(alpha, log_p, pi, d_max, scheme, corrected, grid):
    _assert_one_hull(NetworkConfig(alpha=alpha, p=10 ** log_p, pi=pi, d_max=d_max), scheme, grid, corrected)


@pytest.mark.parametrize("cfg,scheme", [
    # an absolute 1e-13 merge in the closure dropped hull vertices: the region
    # lay 2.4e-8 bits (2.2e-5 max |y|) below a reported point
    (NetworkConfig(alpha=-0.9056369733905931, p=0.0015208405073686706, pi=0.9208449873225897, d_max=14), "1"),
    # an absolute 1e-15 pop tolerance put a bin 3.2e-10 bits below its own optimum
    (NetworkConfig(alpha=0.4524109894169359, p=0.0010720061342504596, pi=0.5854785647909587, d_max=11), "2"),
    # the closed form rounds a sum cap 4.1e-16 bits (5e-13 max |y|) above the
    # bins left of it; without the suffix maximum, closing the hull raised it
    (_ROUNDED_UP, "2"),
], ids=["closure_merge", "absolute_pop", "rounded_up_cap"])
def test_one_hull_at_small_power(cfg, scheme):
    _assert_one_hull(cfg, scheme, 1000, True)


@pytest.mark.parametrize("corrected", [False, True])
def test_one_hull_on_a_fine_grid(corrected):
    # a pop tolerance scaled by the x extent let a bin fall 2.6e-10 bits
    # (5.0e-11 max |y|) below its own optimum at grid 100000
    cfg = NetworkConfig(alpha=-0.9616770937254132, p=1233.2013501008196, pi=1.4508740907701632, d_max=2)
    _assert_one_hull(cfg, "2", 100_000, corrected)


def test_bins_next_to_a_vertex_stay_on_the_chord():
    # bins 7.2e-16 apart: a 1e-15 x tolerance gave a vertex's neighbours its y
    _assert_one_hull(NetworkConfig(alpha=0.5, p=1e-10, pi=1.0, d_max=2), "both", 100_000, False)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(alpha=_ALPHAS, log_p=st.floats(-2, 6), pi=st.floats(0, 3), d_max=st.integers(1, 16))
def test_corrected_inner_boundary_within_outer_sum_bound(alpha, log_p, pi, d_max):
    cfg = NetworkConfig(alpha=alpha, p=10 ** log_p, pi=pi, d_max=d_max)
    cap = outer_constraints(cfg).sum_cap
    for pt in inner_boundary(cfg, "both", 50, corrected=True):
        assert pt.x + pt.y <= cap + 1e-9


def _corrected_scheme2_at(cfg, xs):
    """(r_fast, conf_load, total) of the corrected scheme-2 optimum at fast rates xs."""
    return _scheme2_batch(_scheme2_vectors(_u0(xs, cfg), xs, cfg, True), cfg, True)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(
    alpha=_ALPHAS, log_p=st.floats(-2, 6), pi=st.floats(0, 3), d_max=st.integers(1, 15),
    more_pi=st.floats(0, 1), more_d=st.integers(1, 15),
)
def test_corrected_scheme2_bins_grow_with_dmax_and_pi(alpha, log_p, pi, d_max, more_pi, more_d):
    cfg = NetworkConfig(alpha=alpha, p=10 ** log_p, pi=pi, d_max=d_max)
    xs = _best_per_bin(cfg, False, True, 24, True)[0]
    base = _corrected_scheme2_at(cfg, xs)[2]
    for bigger in (replace(cfg, d_max=min(d_max + more_d, 16)), replace(cfg, pi=pi + more_pi)):
        r_fast, conf, tot = _corrected_scheme2_at(bigger, xs)
        assert np.all(r_fast >= xs - 1e-9) and np.all(conf <= bigger.pi + 1e-9)
        assert np.all(tot >= base - 1e-9), bigger


if __name__ == "__main__":  # one config per line
    rows = [json.dumps(_search_reference(*c)) for c in _seeded_corrected_configs()]
    SEARCH_REFERENCE.write_text("[\n" + ",\n".join(rows) + "\n]\n")
