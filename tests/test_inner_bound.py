import itertools
import json
import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from softhandoff.gaussian_mi import (
    PowerAllocation,
    cf_chain_term,
    cf_final_term,
    cf_final_term_corrected,
)
import softhandoff.inner_bound as ib
from softhandoff.inner_bound import (
    _alloc_from_cumulative,
    _best_per_bin,
    _scheme1_table,
    _scheme2_batch,
    _u0,
    best_slow_rate_scheme2,
    eval_scheme1,
    eval_scheme2,
    inner_boundary,
    inner_region,
    rate_transfer_closure,
)
from softhandoff.model import NetworkConfig, Region
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
        for corrected in (False, True):
            pts = inner_boundary(CFG_FIG2, scheme="both", grid_resolution=12, corrected=corrected)
            for pt in pts:
                mix_x = sum(w.weight * w.x for w in pt.components)
                mix_y = sum(w.weight * w.y for w in pt.components)
                assert mix_x == pytest.approx(pt.x, abs=1e-9)
                assert mix_y == pytest.approx(pt.y, abs=1e-9)
                for w in pt.components:
                    if w.scheme == 1:
                        ev = eval_scheme1(w.alloc, CFG_FIG2, corrected=corrected)
                    else:
                        ev = eval_scheme2(w.alloc, CFG_FIG2, corrected=corrected)
                        assert ev.feasible
                    assert ev.r_fast_cap >= w.x - 1e-9
                    assert ev.r_sum_cap - w.x == pytest.approx(w.y, abs=1e-9)

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


class TestRateTransferClosure:
    def test_single_point_becomes_full_transfer_line(self):
        r = Region(vertices=((1.0, 0.0),), kind="polyline")
        c = rate_transfer_closure(r)
        assert c.vertices == ((0.0, 1.0), (1.0, 0.0))
        from softhandoff.model import region_contains

        assert region_contains(c, (0.5, 0.5), tol=1e-12)

    def test_idempotent(self):
        r = Region(vertices=((0.0, 1.2), (0.4, 1.1), (0.9, 0.1)), kind="polyline")
        once = rate_transfer_closure(r)
        twice = rate_transfer_closure(once)
        assert once.vertices == twice.vertices

    def test_only_enlarges(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            xs = np.sort(rng.uniform(0, 2, size=5))
            ys = np.sort(rng.uniform(0, 2, size=5))[::-1]
            r = Region(vertices=tuple(zip(xs.tolist(), ys.tolist())), kind="polyline")
            c = rate_transfer_closure(r)
            from softhandoff.model import _polyline_ymax

            for x, y in r.vertices:
                assert _polyline_ymax(c, x) >= y - 1e-12

    def test_scheme1_point_transfers_to_y_axis(self):
        # witness point from the reference allocation: (0.37237, 1.07662)
        r = Region(vertices=((0.3723714723789627, 1.0766231301478408),), kind="polyline")
        c = rate_transfer_closure(r)
        assert c.vertices[0][0] == 0.0
        assert c.vertices[0][1] == pytest.approx(1.4489946025268035, abs=1e-12)

    def test_rejects_polygon(self):
        with pytest.raises(ValueError):
            rate_transfer_closure(Region(vertices=((0.0, 0.0), (1.0, 0.0), (0.0, 1.0))))


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


def _scheme2_batch_by_round(B, cfg, corrected):
    """Round-by-round reference: one kernel call per round, loads added in turn."""
    p, a = cfg.p, cfg.alpha
    total_pow = B[:, -1]
    conf = cf_chain_term(np.zeros(len(B)), B[:, 0], total_pow, p, a)
    for d in range(1, B.shape[1] - 1):
        conf = conf + cf_chain_term(B[:, d - 1], B[:, d], total_pow, p, a)
    r_fast = cf_chain_term(np.zeros(len(B)), B[:, 0], total_pow, p, a)
    if corrected:
        final = cf_final_term_corrected(B[:, -2], total_pow, p, a)
    else:
        final = cf_final_term(B[:, -2], total_pow, p)
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
    u0 = _u0(x, cfg)
    if u0 is not None:
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
            got = _best_per_bin(cfg, want1, want2, grid, False)
            want = _search_per_bin(cfg, want1, want2, grid, False)
            assert len(got) == len(want) > 0, cfg
            for g, w in zip(got, want):
                assert g[0] == w[0], cfg
                assert abs(g[1] - w[1]) <= 1e-12, (cfg, g, w)

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
    got = _best_per_bin(cfg, scheme != "2", scheme != "1", grid, True)
    assert len(got) == len(bins) > 0, cfg
    for (x, y, s, alloc), (want_x, want_y) in zip(got, bins):
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


_ALPHAS = st.floats(0.02, 0.98).flatmap(lambda a: st.sampled_from([a, -a]))


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(alpha=_ALPHAS, log_p=st.floats(-2, 6), pi=st.floats(0, 3), d_max=st.integers(1, 16))
def test_corrected_inner_boundary_within_outer_sum_bound(alpha, log_p, pi, d_max):
    cfg = NetworkConfig(alpha=alpha, p=10 ** log_p, pi=pi, d_max=d_max)
    cap = outer_constraints(cfg).sum_cap
    for pt in inner_boundary(cfg, "both", 50, corrected=True):
        assert pt.x + pt.y <= cap + 1e-9


def _corrected_scheme2_at(cfg, xs):
    """(r_fast, conf_load, total) of the corrected scheme-2 optimum at fast rates xs."""
    u0 = np.array([_u0(float(x), cfg) for x in xs])
    return _scheme2_batch(ib._scheme2_vectors(u0, xs, cfg, True), cfg, True)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(
    alpha=_ALPHAS, log_p=st.floats(-2, 6), pi=st.floats(0, 3), d_max=st.integers(1, 15),
    more_pi=st.floats(0, 1), more_d=st.integers(1, 15),
)
def test_corrected_scheme2_bins_grow_with_dmax_and_pi(alpha, log_p, pi, d_max, more_pi, more_d):
    cfg = NetworkConfig(alpha=alpha, p=10 ** log_p, pi=pi, d_max=d_max)
    xs = np.array([x for x, *_ in _best_per_bin(cfg, False, True, 24, True)])
    base = _corrected_scheme2_at(cfg, xs)[2]
    for bigger in (replace(cfg, d_max=min(d_max + more_d, 16)), replace(cfg, pi=pi + more_pi)):
        r_fast, conf, tot = _corrected_scheme2_at(bigger, xs)
        assert np.all(r_fast >= xs - 1e-9) and np.all(conf <= bigger.pi + 1e-9)
        assert np.all(tot >= base - 1e-9), bigger


if __name__ == "__main__":  # one config per line
    rows = [json.dumps(_search_reference(*c)) for c in _seeded_corrected_configs()]
    SEARCH_REFERENCE.write_text("[\n" + ",\n".join(rows) + "\n]\n")
