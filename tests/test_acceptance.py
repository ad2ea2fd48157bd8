"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
report lines even on success.
"""
import math
import time
from fractions import Fraction

import numpy as np
import pytest

from softhandoff.cli import main as cli_main
from softhandoff.conf_sim import build_silencing, conferencing_load, measure_mux_gains, run_rx_conferencing
from softhandoff.gaussian_mi import (
    PowerAllocation,
    cf_term,
    gaussian_mi,
    layered_covariance,
    mc_mutual_information,
    scheme1_term_groups,
    scheme1_terms,
    scheme2_term_groups,
    scheme2_terms,
)
from softhandoff.inner_bound import best_slow_rate_scheme2, eval_scheme2, inner_boundary, inner_region
from softhandoff.model import (
    NetworkConfig,
    boundary_slopes,
    region_contains,
    _polyline_ymax,
)
from softhandoff.mux_gain import MuxRegionSpec, mu_max, mux_region, timeshare_point
from softhandoff.outer_bound import outer_constraints, outer_region

FIG3_REFERENCE = {4: 2.33635, 6: 2.56397, 8: 2.73366, 10: 2.86845}


def _report(num: int, name: str, ok: bool, detail: str = "") -> None:
    print(f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'} {name}: {detail}")
    assert ok, f"criterion {num} ({name}): {detail}"


def test_criterion_01_mi_oracle_equivalence():
    rng = np.random.default_rng(20260808)
    t0 = time.time()
    worst = 0.0
    n_terms = 0
    seed = 0
    for _ in range(20):
        L = int(rng.integers(2, 6))
        p = float(10 ** rng.uniform(math.log10(0.1), 2.0))
        a = float(rng.uniform(0.05, 0.95)) * (1.0 if rng.random() < 0.5 else -1.0)
        alloc = PowerAllocation(tuple(rng.dirichlet(np.ones(L))))
        cfg = NetworkConfig(alpha=a, p=p, d_max=L - 1, pi=1.0)
        spec = layered_covariance(alloc, cfg)

        groups = dict(scheme2_term_groups(spec, cfg.d_max))
        if L == 3:
            groups.update(scheme1_term_groups(spec))
        for name, (ga, gb, gc) in groups.items():
            det = gaussian_mi(spec, ga, gb, gc)
            mc = mc_mutual_information(spec, ga, gb, gc, samples=1_000_000, seed=seed)
            seed += 1
            worst = max(worst, abs(det - mc))
            n_terms += 1
    elapsed = time.time() - t0
    ok = worst <= 0.01 and elapsed <= 120.0
    _report(
        1,
        "MI oracle equivalence",
        ok,
        f"{n_terms} terms over 20 configs, worst |det-mc| = {worst:.2e} (<= 0.01), {elapsed:.1f}s (<= 120s)",
    )


def test_criterion_02_closed_form_crosscheck():
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(1000):
        L = int(rng.integers(2, 7))
        scale = rng.uniform(0.2, 1.0)
        alloc = PowerAllocation(tuple(rng.dirichlet(np.ones(L)) * scale))
        p = float(10 ** rng.uniform(-1, 2))
        a = float(rng.uniform(0.05, 0.95))
        cfg = NetworkConfig(alpha=a, p=p, d_max=L - 1)
        t = scheme2_terms(alloc, cfg)
        B = alloc.cumulative()
        total = B[-1]
        worst = max(worst, abs(t.i_u_y - float(cf_term(0.0, B[0], 0.0, total, p, a))))
        for d, val in enumerate(t.chain, start=1):
            worst = max(worst, abs(val - float(cf_term(B[d - 1], B[d], B[d - 1], total, p, a))))
        worst = max(worst, abs(t.i_final - float(cf_term(B[-2], total, total, total, p, a))))
        worst = max(
            worst,
            abs(t.i_final_corrected - float(cf_term(B[-2], total, B[-2], total, p, a))),
        )
        if L == 3:
            s1 = scheme1_terms(alloc, cfg)
            b1, b2, b3 = B
            worst = max(worst, abs(s1.i_u2_y - float(cf_term(0.0, b2, 0.0, b3, p, a))))
            worst = max(worst, abs(s1.i_u2_y_given_u1 - float(cf_term(b1, b2, 0.0, b3, p, a))))
            worst = max(worst, abs(s1.i_x_slow_given_u1 - float(cf_term(b1, b3, b1, b3, p, a))))
            worst = max(worst, abs(s1.i_x_slow_given_u2 - float(cf_term(b2, b3, b1, b3, p, a))))
    ok = worst <= 1e-9
    _report(2, "closed forms vs log-det path", ok, f"1000 allocations, worst |diff| = {worst:.2e} (<= 1e-9)")


def test_criterion_03_mux_polygons_exact():
    r1 = mux_region(MuxRegionSpec("rx_bidirectional", 0.3, 10))
    want1 = {(0.0, 0.0), (0.0, 0.8), (0.2, 0.6), (0.5, 0.0)}
    r2 = mux_region(MuxRegionSpec("rx_bidirectional", 0.5, 10))
    want2 = {(0.0, 0.0), (0.0, 21 / 22), (1 / 22, 20 / 22), (0.5, 0.0)}

    def matches(region, want):
        got = set(region.vertices)
        if len(got) != len(want):
            return False
        return all(
            any(abs(gx - wx) <= 1e-12 and abs(gy - wy) <= 1e-12 for gx, gy in got)
            for wx, wy in want
        )

    ok = matches(r1, want1) and matches(r2, want2)
    _report(3, "multiplexing-gain polygons exact", ok, "mu=0.3 and mu=0.5 at d_max=10, tol 1e-12")


def test_criterion_04_duality():
    rng = np.random.default_rng(11)
    ok = True
    for _ in range(100):
        if rng.random() < 0.5:
            mu = float(rng.uniform(0, 1))
        else:
            mu = Fraction(int(rng.integers(0, 12)), int(rng.integers(12, 30)))
        d = int(rng.integers(1, 60))
        rx = mux_region(MuxRegionSpec("rx_bidirectional", mu, d))
        tx = mux_region(MuxRegionSpec("tx_conferencing", mu, d))
        if rx.vertices != tx.vertices:
            ok = False
            break
    _report(4, "rx/tx duality", ok, "100 random (mu, d_max), exact vertex equality")


def test_criterion_05_outer_bound_values(tmp_path, capsys):
    cfg = NetworkConfig(alpha=0.2, p=5.0, pi=0.346)
    v = outer_constraints(cfg)
    slopes = [s for _, s in boundary_slopes(outer_region(cfg))]
    ok_vals = abs(v.sum_cap - 2.1792) <= 0.001 and abs(v.weighted_cap - 2.9942) <= 0.001
    ok_slopes = len(slopes) == 2 and abs(slopes[0] + 1) <= 1e-9 and abs(slopes[1] + 2) <= 1e-9

    # the published outer intercepts are NOT reproducible; compare must report
    # the deviation rather than assert it
    out = tmp_path / "outer.csv"
    cli_main(["region", "outer", "--k", "inf", "--p", "5", "--alpha", "0.2",
              "--pi", "0.346", "--out", str(out)])
    code = cli_main(["compare", "fig2_outer", str(out)])
    text = capsys.readouterr().out
    dev_line = [ln for ln in text.splitlines() if ln.startswith("0,")][0]
    deviation = float(dev_line.split(",")[3])
    ok_compare = code == 0 and "known discrepancy" in text and deviation > 0.1

    ok = ok_vals and ok_slopes and ok_compare
    _report(
        5,
        "outer bound values",
        ok,
        f"sum={v.sum_cap:.5f} (2.1792+-0.001), weighted={v.weighted_cap:.5f} (2.9942+-0.001), "
        f"slopes={[round(s, 9) for s in slopes]}, fig2 deviation {deviation:.4f} reported informationally",
    )


@pytest.mark.xfail(
    strict=True,
    reason="the weighted outer constraint is tighter than its own derivation chain "
    "supports and is violated by the plain fast-only operating point at high power; "
    "see the test docstring. The assertion is kept at full strength: this criterion "
    "is demonstrably unattainable as stated.",
)
def test_criterion_06_containment():
    """Containment of the achievable sweep in the outer polygon.

    KNOWN RED.  The weighted outer constraint as printed is stricter than
    what its own derivation chain sums to (the per-pair log terms enter at
    half weight), and the plain fast-only operating point of the achievable
    sweep, rate 0.5*log2(1 + P/(1+alpha^2 P)) per user with one layer, already
    violates it once P is large: at alpha=0.2, P=100 the point puts 4.39 bits
    on the weighted combination against a printed cap of 4.01, while the
    derivation-chain form (5.71) contains it.  The sum constraint is never
    violated.  Asserting containment against the printed formulas is
    therefore unattainable over the model's parameter space; the deviation is
    reported per config below, and the test fails honestly rather than
    restricting the sweep to a regime that hides the defect.
    """
    rng = np.random.default_rng(13)
    worst_sum = math.inf
    worst_weighted = math.inf
    checked = 0
    violations = []
    proof_chain_violations = 0
    # the documented counterexample config plus 10 random draws, so the
    # defect shows deterministically rather than by sampling luck
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
    for cfg in configs:
        outer = outer_region(cfg)
        vals = outer_constraints(cfg)
        a2 = cfg.alpha * cfg.alpha
        # the weighted bound's own derivation chain, before the halving in
        # the stated form (K -> inf limit)
        proof_weighted = (
            0.5 * math.log2(1 + (1 + a2) * cfg.p)
            + 0.5 * math.log2(1 + a2)
            + max(-math.log2(abs(cfg.alpha)), 0.0)
        )
        # decode-consistent variants everywhere; the as-printed slow/final
        # terms overshoot on their own (separate documented discrepancy)
        pts = inner_boundary(cfg, scheme="both", grid_resolution=12, corrected=True)
        for pt in pts:
            checked += 1
            if not region_contains(outer, (pt.x, pt.y), tol=1e-9):
                violations.append(
                    (round(cfg.alpha, 3), round(cfg.p, 2), round(pt.x, 3), round(pt.y, 3))
                )
            worst_sum = min(worst_sum, vals.sum_cap - (pt.x + pt.y))
            worst_weighted = min(worst_weighted, vals.weighted_cap - (2 * pt.x + pt.y))
            if 2 * pt.x + pt.y > proof_weighted + 1e-9:
                proof_chain_violations += 1
    print(
        f"    containment analysis: {checked} boundary points, sum-bound min slack "
        f"{worst_sum:.4f} (never violated), weighted-bound min slack "
        f"{worst_weighted:.4f}, derivation-chain weighted-bound violations: {proof_chain_violations}"
    )
    _report(
        6,
        "inner region contained in outer region",
        not violations,
        f"{len(violations)} of {checked} swept points escape the weighted outer bound, "
        f"which is inconsistent with its own derivation (see docstring); "
        f"sample violations: {violations[:3]}",
    )


def _boundary_value(region, x):
    if x > region.vertices[-1][0] + 1e-12:
        return None
    return _polyline_ymax(region, min(x, region.vertices[-1][0]))


def test_criterion_07_monotonicity_suite():
    failures = []

    def check_ladder(regions, names):
        for (r0, n0), (r1, n1) in zip(zip(regions, names), zip(regions[1:], names[1:])):
            if r1.vertices[-1][0] < r0.vertices[-1][0] - 1e-9:
                failures.append(f"{n1} fast extent shrank vs {n0}")
            for x in np.linspace(0.0, r0.vertices[-1][0], 33):
                y0 = _boundary_value(r0, x)
                y1 = _boundary_value(r1, x)
                if y1 is None or y1 < y0 - 1e-9:
                    failures.append(f"{n1} below {n0} at x={x:.4f}")
                    return

    pis = [0.0, 0.25, 0.6, 1.2]
    check_ladder(
        [inner_region(NetworkConfig(alpha=0.2, p=5.0, pi=pi, d_max=2), "both", 24) for pi in pis],
        [f"pi={pi}" for pi in pis],
    )
    powers = [2.0, 5.0, 10.0]
    check_ladder(
        [inner_region(NetworkConfig(alpha=0.2, p=p, pi=0.5, d_max=2), "both", 24) for p in powers],
        [f"P={p}" for p in powers],
    )
    ds = [1, 2, 3, 4]
    check_ladder(
        [inner_region(NetworkConfig(alpha=0.2, p=5.0, pi=1.0, d_max=d), "2", 24) for d in ds],
        [f"d_max={d}" for d in ds],
    )

    # outer sum_cap increases toward the K=inf limit; the floor/ceiling
    # coefficients give different 1/K constants for even and odd K, so
    # monotonicity holds per parity class, not across parities
    limit = outer_constraints(NetworkConfig(alpha=0.2, p=5.0, pi=0.346)).sum_cap
    for parity in (0, 1):
        ks = [k for k in range(2, 1001) if k % 2 == parity]
        vals = [
            outer_constraints(NetworkConfig(alpha=0.2, p=5.0, k=k, pi=0.346)).sum_cap for k in ks
        ]
        if not all(v1 > v0 for v0, v1 in zip(vals, vals[1:])):
            failures.append(f"outer sum_cap not increasing for K parity {parity}")
        if not all(v < limit for v in vals):
            failures.append(f"outer sum_cap exceeds the K=inf limit for parity {parity}")
        if limit - vals[-1] > 2e-3:
            failures.append(f"outer sum_cap does not converge to the limit for parity {parity}")

    _report(
        7,
        "monotonicity suite",
        not failures,
        "inner nondecreasing in pi, P, d_max; outer sum_cap increasing per K-parity toward the limit"
        + ("" if not failures else f"; failures: {failures}"),
    )


def test_criterion_08_simulator_corner_point():
    t0 = time.time()
    cfg = NetworkConfig(alpha=0.5, p=1e6, d_max=10, k=22)
    pattern = build_silencing(22, 10)
    rx_est, _ = measure_mux_gains(cfg, pattern, [1e2, 1e4, 1e6], mode="rx")
    tx_est, _ = measure_mux_gains(cfg, pattern, [1e2, 1e4, 1e6], mode="tx")
    report = run_rx_conferencing(cfg, pattern)
    _, net_avg = conferencing_load(report, 1e6)
    elapsed = time.time() - t0

    ok = (
        abs(rx_est.s_fast - 1 / 22) <= 0.02
        and abs(rx_est.s_slow - 20 / 22) <= 0.02
        and abs(net_avg - 10 / 22) <= 0.02
        and abs(tx_est.s_fast - rx_est.s_fast) <= 0.02
        and abs(tx_est.s_slow - rx_est.s_slow) <= 0.02
        and elapsed <= 10.0
    )
    _report(
        8,
        "simulator corner point",
        ok,
        f"rx=({rx_est.s_fast:.4f},{rx_est.s_slow:.4f}) vs (1/22,20/22), "
        f"net conferencing prelog {net_avg:.4f} vs {10 / 22:.4f}, "
        f"tx=({tx_est.s_fast:.4f},{tx_est.s_slow:.4f}), {elapsed:.2f}s (<= 10s)",
    )


def test_criterion_09_time_sharing_line():
    worst = 0.0
    count = 0
    outside = []
    for d in (1, 4, 10, 16):
        cap = mu_max(d)
        mus = [round(0.1 * i, 10) for i in range(int(cap / 0.1) + 1)] + [cap]
        for mu in mus:
            pt, _beta = timeshare_point(mu, d)
            region = mux_region(MuxRegionSpec("rx_bidirectional", mu, d))
            res_steep = abs(2 * pt.s_fast + pt.s_slow - 1.0)
            res_sum = abs(pt.s_fast + pt.s_slow - min(0.5 + mu, (2 * d + 1) / (2 * d + 2)))
            worst = max(worst, res_steep, res_sum)
            if not region_contains(region, (pt.s_fast, pt.s_slow), tol=1e-12):
                outside.append((mu, d))
            count += 1
    ok = worst <= 1e-12 and not outside
    _report(
        9,
        "time-sharing points on the region boundary",
        ok,
        f"{count} (mu, d_max) pairs, worst active-constraint residual = {worst:.2e} (<= 1e-12)"
        + ("" if not outside else f"; outside region: {outside}"),
    )


def test_criterion_10_reference_curve_best_effort():
    lines = []
    ok = True
    for d, ref in FIG3_REFERENCE.items():
        cfg = NetworkConfig(alpha=0.2, p=5.0, pi=2.0, d_max=d)
        value, alloc = best_slow_rate_scheme2(cfg)
        ev = eval_scheme2(alloc, cfg)
        if not (ev.feasible and abs(ev.r_sum_cap - value) <= 1e-9):
            ok = False
        if value > ref + 0.01:
            ok = False  # exceeding the reference would mean broken constraints
        shortfall = ref - value
        lines.append(
            f"d_max={d}: optimiser={value:.5f}, reference={ref:.5f}, shortfall={shortfall:+.5f}, "
            f"witness fractions={tuple(round(f, 4) for f in alloc.fractions)}"
        )
    lines.append(
        "the shortfall comes from the printed formulas, not the optimiser: under them the "
        "scheme-2 optimum is 1/2 log2(1+P) at every d_max, while the published curves grow with d_max"
    )
    for ln in lines:
        print("   ", ln)
    _report(10, "published-curve best effort", ok, "; ".join(lines))


def test_criterion_11_manifest_determinism(tmp_path, capsys):
    specs = [
        (["region", "mux", "--mu", "0.3", "--dmax", "10"], "mux.csv", ["mux.csv"]),
        (
            ["region", "inner", "--scheme", "2", "--p", "5", "--alpha", "0.2",
             "--pi", "2", "--dmax", "4", "--grid", "12"],
            "inner.csv",
            ["inner.csv"],
        ),
        (
            ["simulate", "rx", "--dmax", "2", "--alpha", "0.5", "--k", "12",
             "--p-ladder", "1e2,1e4,1e6"],
            "sim",
            ["sim_rates.csv", "sim_events.csv", "sim_convergence.csv"],
        ),
    ]
    ok = True
    checked = []
    for args, outname, produced in specs:
        first = tmp_path / ("a_" + outname)
        assert cli_main([*args, "--out", str(first)]) == 0
        manifest = str(tmp_path / ("a_" + produced[0] + ".manifest.json")) if len(produced) > 1 else str(first) + ".manifest.json"
        redo = tmp_path / ("b_" + outname)
        assert cli_main(["rerun", manifest, "--out", str(redo)]) == 0
        for name in produced:
            a = (tmp_path / ("a_" + name)).read_bytes()
            b = (tmp_path / ("b_" + name)).read_bytes()
            if a != b:
                ok = False
            checked.append(name)
    capsys.readouterr()
    _report(11, "manifest re-runs byte-identical", ok, f"{len(checked)} CSVs compared: {checked}")
