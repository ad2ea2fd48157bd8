import numpy as np
import pytest

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
    _scheme2_lattice,
    _search_per_bin,
    _search_slow_rate,
    _u0,
    best_slow_rate_scheme2,
    eval_scheme1,
    eval_scheme2,
    inner_boundary,
    inner_region,
    rate_transfer_closure,
)
from softhandoff.model import NetworkConfig, Region

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


def _descend_one(B0, cfg, x_target, corrected, n_line=25, sweeps=40):
    """Reference: one coordinate descent on its own, one line search per call."""

    def value(Bm):
        r_fast, conf, tot = _scheme2_batch(Bm, cfg, corrected)
        ok = (r_fast >= x_target - 1e-9) & (conf <= cfg.pi + 1e-9)
        return np.where(ok, tot, -np.inf)

    B = B0.copy()
    best = value(B[None, :])[0]
    if not np.isfinite(best):
        return None
    L = len(B)
    for _ in range(sweeps):
        improved = False
        for j in range(L):
            lo = float(B[j - 1]) if j > 0 else 0.0
            hi = float(B[j + 1]) if j < L - 1 else 1.0
            if hi - lo < 1e-14:
                continue
            Bm = np.tile(B, (n_line, 1))
            Bm[:, j] = np.linspace(lo, hi, n_line)
            vals = value(Bm)
            k = int(vals.argmax())
            if vals[k] > best + 1e-13:
                best = float(vals[k])
                B = Bm[k]
                improved = True
        if not improved:
            break
    return best, B


def _reference_seeds(cfg, x, grid_best, warm):
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
    if warm is not None:
        seeds.append(warm)
    return seeds


def _reference_best_per_bin(cfg, want1, want2, grid_resolution, corrected):
    """Reference: bin by bin, each seed descended on its own with warm start."""
    if want1:
        s1_fast, s1_sum, s1_B = _scheme1_table(cfg, 64, corrected)
    if want2:
        s2_B, s2_fast, s2_conf, s2_sum = _scheme2_lattice(cfg, corrected)
    x_max = 0.0
    if want1:
        x_max = max(x_max, float(np.max(s1_fast)))
    if want2:
        feas = s2_conf <= cfg.pi + 1e-9
        if np.any(feas):
            x2 = max(float(np.max(s2_fast[feas])), min(cfg.pi, float(np.max(s2_fast))))
            x_max = max(x_max, x2)
    if x_max < 1e-12:
        x_max = 0.0
    raw = []
    warm = None
    for x in np.unique(np.linspace(0.0, x_max, grid_resolution + 1)):
        best_val, best_scheme, best_alloc = -np.inf, 0, None
        if want1:
            mask = s1_fast >= x - 1e-12
            if np.any(mask):
                k = int(np.argmax(np.where(mask, s1_sum, -np.inf)))
                if s1_sum[k] > best_val:
                    best_val, best_scheme = float(s1_sum[k]), 1
                    b1, b2, b3 = s1_B[k]
                    best_alloc = PowerAllocation((b1, b2 - b1, b3 - b2))
        if want2:
            grid_best_B = None
            mask = (s2_fast >= x - 1e-12) & (s2_conf <= cfg.pi + 1e-9)
            if np.any(mask):
                k = int(np.argmax(np.where(mask, s2_sum, -np.inf)))
                grid_best_B = s2_B[k]
                if s2_sum[k] > best_val:
                    best_val, best_scheme = float(s2_sum[k]), 2
                    best_alloc = _alloc_from_cumulative(s2_B[k])
            if x <= cfg.pi + 1e-12:
                for seed in _reference_seeds(cfg, float(x), grid_best_B, warm):
                    out = _descend_one(seed, cfg, float(x), corrected)
                    if out is not None and out[0] > best_val + 1e-13:
                        best_val, best_scheme = out[0], 2
                        best_alloc = _alloc_from_cumulative(out[1])
                        warm = out[1]
        if best_alloc is not None and np.isfinite(best_val):
            raw.append((float(x), best_val - float(x), best_scheme, best_alloc))
    return raw


def _reference_best_slow_rate(cfg, corrected):
    grid, _, conf, tot = _scheme2_lattice(cfg, corrected)
    mask = conf <= cfg.pi + 1e-9
    best_val, best_B = -np.inf, None
    if np.any(mask):
        k = int(np.argmax(np.where(mask, tot, -np.inf)))
        best_val, best_B = float(tot[k]), grid[k]
    for seed in _reference_seeds(cfg, 0.0, best_B, None):
        out = _descend_one(seed, cfg, 0.0, corrected)
        if out is not None and out[0] > best_val:
            best_val, best_B = out
    if best_B is None:
        return 0.0, PowerAllocation(tuple([0.0] * (cfg.d_max + 1)))
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


class TestLockstepDescent:
    """The lockstep descents reproduce the seed-by-seed search bit for bit.

    The search runs on both term variants here, though inner_boundary and
    best_slow_rate_scheme2 search only the corrected ones.
    """

    @pytest.mark.parametrize("corrected", [False, True])
    @pytest.mark.parametrize("scheme", ["1", "2", "both"])
    def test_bins_bit_identical_to_seed_by_seed(self, scheme, corrected):
        want1, want2 = scheme in ("1", "both"), scheme in ("2", "both")
        seed = {"1": 10, "2": 20, "both": 30}[scheme] + corrected
        for cfg, grid in _random_configs(seed, 4):
            got = _search_per_bin(cfg, want1, want2, grid, corrected)
            want = _reference_best_per_bin(cfg, want1, want2, grid, corrected)
            assert len(got) == len(want) > 0, cfg
            for g, w in zip(got, want):
                assert np.array_equal(g[:2], w[:2]), cfg
                assert g[2] == w[2], cfg
                assert np.array_equal(g[3].fractions, w[3].fractions), cfg

    @pytest.mark.parametrize("corrected", [False, True])
    def test_best_slow_rate_bit_identical(self, corrected):
        for cfg, _ in _random_configs(77 + corrected, 8):
            val, alloc = _search_slow_rate(cfg, corrected)
            ref_val, ref_alloc = _reference_best_slow_rate(cfg, corrected)
            assert val == ref_val, cfg
            assert alloc.fractions == ref_alloc.fractions, cfg

    def test_batch_of_one_matches_batch_of_many(self):
        cfg = NetworkConfig(alpha=-0.6, p=20.0, pi=0.8, d_max=5)
        rng = np.random.default_rng(5)
        seeds = np.sort(rng.uniform(0.0, 1.0, (8, 6)), axis=1)
        xs = rng.uniform(0.0, 0.5, 8)
        best, B = ib._coordinate_descent(seeds, cfg, xs)
        for i in range(8):
            one_best, one_B = ib._coordinate_descent(seeds[i:i + 1], cfg, xs[i])
            assert one_best[0] == best[i] and np.array_equal(one_B[0], B[i])
            ref = _descend_one(seeds[i], cfg, xs[i], False)
            if ref is None:
                assert best[i] == -np.inf
            else:
                assert ref[0] == best[i] and np.array_equal(ref[1], B[i])

    def test_fig3_d10_kernel_calls(self, monkeypatch):
        # timing-free guard: descended seed by seed, this sweep made 50,654
        # calls; in lockstep with 2048-row blocks it makes 954
        calls = []
        batch = ib._scheme2_batch

        def counted(*args, **kwargs):
            calls.append(1)
            return batch(*args, **kwargs)

        monkeypatch.setattr(ib, "_scheme2_batch", counted)
        cfg = NetworkConfig(alpha=0.2, p=5.0, pi=2.0, d_max=10)
        assert _search_per_bin(cfg, False, True, 64, False)
        assert len(calls) <= 1000


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

    @pytest.mark.parametrize(
        "cfg,scheme",
        [(NetworkConfig(alpha=0.2, p=5.0, pi=2.0, d_max=10), "2"), (CFG_FIG2, "both")],
        ids=["fig3_d10", "fig2"],
    )
    def test_no_search_on_printed_terms(self, monkeypatch, cfg, scheme):
        calls = {name: 0 for name in ("_scheme2_batch", "_coordinate_descent", "_scheme2_grid", "_scheme1_table")}

        def counted(name):
            fn = getattr(ib, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)

            return wrapper

        for name in calls:
            monkeypatch.setattr(ib, name, counted(name))
        assert inner_boundary(cfg, scheme=scheme, grid_resolution=64)
        assert calls["_scheme2_batch"] <= 2
        assert calls["_coordinate_descent"] == calls["_scheme2_grid"] == calls["_scheme1_table"] == 0
