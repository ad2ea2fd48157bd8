"""Achievable-rate region of the two conferencing superposition schemes.

Scheme 1 (single conferencing round, 3 layers): the fast message rides the
two lower layers, the slow message the top layer; the conferencing budget pi
relaxes the fast constraint.  Scheme 2 (d_max rounds, d_max+1 layers): the
fast message rides the bottom layer and slow parts unlock round by round; the
total of all conferenced parts must fit in pi.

The region sweep works in cumulative-power space with vectorised closed
forms; the per-allocation evaluators go through the log-determinant path so
the two routes cross-check each other.  The best scheme-2 allocation of every
fast-rate bin is known in closed form under both the printed and the
corrected rate terms (see _best_per_bin), so scheme 2 is one vectorised
evaluation per sweep; only corrected scheme 1 reads a fixed 3-layer table.
Boundaries carry witness allocations so that every reported point can be
re-derived.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .gaussian_mi import (
    PowerAllocation,
    cf_chain_term,
    cf_cum_vs_y,
    cf_cum_vs_y_cond,
    cf_final_term,
    cf_final_term_corrected,
    cf_scheme1_slow,
    scheme1_terms,
    scheme2_terms,
)
from .model import NetworkConfig, Region, validate_config

__all__ = [
    "SchemeOneEvaluation",
    "SchemeTwoEvaluation",
    "BoundaryWitness",
    "BoundaryPoint",
    "eval_scheme1",
    "eval_scheme2",
    "inner_boundary",
    "inner_region",
    "rate_transfer_closure",
    "best_slow_rate_scheme2",
]

_EPS = 1e-12

#: Largest grid_resolution a sweep accepts: scheme 2 evaluates every bin in
#: one kernel call, about 2 KB per bin at d_max = 16.
_MAX_GRID = 100_000


@dataclass(frozen=True)
class SchemeOneEvaluation:
    alloc: PowerAllocation
    r_fast_cap: float
    r_sum_cap: float


@dataclass(frozen=True)
class SchemeTwoEvaluation:
    alloc: PowerAllocation
    r_fast_cap: float
    r_sum_cap: float
    conf_load: float
    feasible: bool


def eval_scheme1(
    alloc: PowerAllocation, cfg: NetworkConfig, corrected: bool = False
) -> SchemeOneEvaluation:
    """Fast cap and sum cap of scheme 1 for one allocation.

    corrected=False keeps the slow term conditioned on the depth-1 auxiliary
    exactly as the analysis prints it; corrected=True conditions on the full
    decoded depth-2 level instead.
    """
    t = scheme1_terms(alloc, cfg)
    r_fast = min(t.i_u2_y, t.i_u2_y_given_u1 + cfg.pi)
    slow = t.i_x_slow_given_u2 if corrected else t.i_x_slow_given_u1
    return SchemeOneEvaluation(alloc=alloc, r_fast_cap=r_fast, r_sum_cap=r_fast + slow)


def eval_scheme2(
    alloc: PowerAllocation, cfg: NetworkConfig, corrected: bool = False
) -> SchemeTwoEvaluation:
    """Fast cap, sum cap, and conferencing load of scheme 2 for one allocation.

    corrected=False keeps the final term's neighbour-input side information
    exactly as the analysis prints it; corrected=True restricts it to the
    conferenced levels (see SchemeTwoTerms).
    """
    t = scheme2_terms(alloc, cfg)
    final = t.i_final_corrected if corrected else t.i_final
    return SchemeTwoEvaluation(
        alloc=alloc,
        r_fast_cap=t.i_u_y,
        r_sum_cap=t.conf_load + final,
        conf_load=t.conf_load,
        feasible=t.conf_load <= cfg.pi + _EPS,
    )


# ---------------------------------------------------------------------------
# Vectorised closed-form sweeps (cumulative-power space)
# ---------------------------------------------------------------------------

def _scheme1_caps(b1, b2, b3, cfg: NetworkConfig, corrected: bool):
    """(r_fast, r_sum) of scheme 1 at cumulative powers b1 <= b2 <= b3 (arrays)."""
    p, a = cfg.p, cfg.alpha
    fast = np.minimum(cf_cum_vs_y(b2, b3, p, a), cf_cum_vs_y_cond(b1, b2, b3, p, a) + cfg.pi)
    b_cond = b2 if corrected else b1
    return fast, fast + cf_scheme1_slow(b_cond, b1, b3, p, a)


def _scheme1_table(cfg: NetworkConfig, n: int, corrected: bool):
    """All (r_fast, r_sum) values on the 3-layer sub-simplex grid of step 1/n.

    Returns (r_fast, r_sum, B) with B of shape (m, 3) holding cumulative
    powers; points with total power below 1 are included since interference
    scales with the allocation too.
    """
    i, j, k = np.meshgrid(np.arange(n + 1), np.arange(n + 1), np.arange(n + 1), indexing="ij")
    mask = (i + j + k) <= n
    b1 = i[mask] / n
    b2 = (i[mask] + j[mask]) / n
    b3 = (i[mask] + j[mask] + k[mask]) / n
    fast, rsum = _scheme1_caps(b1, b2, b3, cfg, corrected)
    return fast, rsum, np.column_stack([b1, b2, b3])


def _scheme2_batch(B: np.ndarray, cfg: NetworkConfig, corrected: bool = False):
    """(r_fast, conf_load, total) for a batch of cumulative vectors B (m, L).

    One broadcast cf_chain_term call gives every round term: column d pairs
    (B_{d-1}, B_d) for d = 0..L-2 with B_{-1} = 0, so column 0 is the fast
    cap.  The load is a strict left-to-right cumulative sum over the columns
    (np.sum's pairwise order would change low bits), which keeps it
    bit-identical to adding the rounds one by one.
    """
    p, a = cfg.p, cfg.alpha
    total_pow = B[:, -1:]
    b_high = B[:, :-1]
    b_low = np.zeros(b_high.shape)
    b_low[:, 1:] = B[:, :-2]
    terms = cf_chain_term(b_low, b_high, total_pow, p, a)
    conf = terms.cumsum(axis=1)[:, -1]
    if corrected:
        final = cf_final_term_corrected(B[:, -2], B[:, -1], p, a)
    else:
        final = cf_final_term(B[:, -2], B[:, -1], p)
    return terms[:, 0], conf, conf + final


def _u0(x: float, cfg: NetworkConfig) -> float | None:
    """Power above depth 0, in [0, 1], that leaves fast rate x at full total
    power (None when x exceeds that fast cap); the scheme-2 "top" vector
    (1 - u0, ..., 1 - u0, 1) puts all of it on the top layer."""
    p, a = cfg.p, cfg.alpha
    u0 = ((1 + p * (1 + a * a)) / (4.0 ** x) - 1 - a * a * p) / p
    if 1 - u0 > 1 + 1e-9:
        return None
    return min(max(u0, 0.0), 1.0)


@dataclass(frozen=True)
class BoundaryWitness:
    """One time-shared component of a boundary point."""

    weight: float
    scheme: int
    alloc: PowerAllocation
    x: float
    y: float


@dataclass(frozen=True)
class BoundaryPoint:
    x: float
    y: float
    components: tuple[BoundaryWitness, ...]


def _alloc_from_cumulative(B: np.ndarray) -> PowerAllocation:
    fr = np.diff(np.concatenate([[0.0], np.asarray(B, dtype=float)]))
    fr = np.clip(fr, 0.0, None)
    s = fr.sum()
    if s > 1.0 + 1e-13:
        fr = fr / s
    return PowerAllocation(tuple(float(v) for v in fr))


def _upper_concave_envelope(xs: np.ndarray, ys: np.ndarray) -> list[int]:
    """Indices of the upper concave hull of (xs, ys), xs ascending."""
    hull: list[int] = []
    for i in range(len(xs)):
        while len(hull) >= 2:
            i0, i1 = hull[-2], hull[-1]
            cross = (xs[i1] - xs[i0]) * (ys[i] - ys[i0]) - (ys[i1] - ys[i0]) * (xs[i] - xs[i0])
            if cross >= -1e-15:
                hull.pop()
            else:
                break
        hull.append(i)
    return hull


def _psi_inv(v, g):
    """The step s >= 0 whose corrected round term psi(s) (see _best_per_bin)
    is v, for 0 <= v < -1/2 log2(g)."""
    return np.log((1 - g) / (4.0 ** -v - g))


def _scheme2_vectors(u0: np.ndarray, x: np.ndarray, cfg: NetworkConfig, corrected: bool) -> np.ndarray:
    """Optimal scheme-2 cumulative vectors (m, L) of the bins at fast rates x,
    with u0 = _u0(x): the top vectors under the printed terms, the steps of
    _best_per_bin under the corrected ones."""
    d = cfg.d_max
    B = np.ones((len(u0), d + 1))
    if not corrected:
        B[:, :-1] = 1 - u0[:, None]
        return B
    a2 = cfg.alpha * cfg.alpha
    g, pa = a2 / (1 + a2), cfg.p * (1 + a2)
    S = math.log1p(pa)
    sx = S - np.log1p(u0 * pa)  # sigma_x, clamped to [0, S] through u0
    s = np.empty((len(u0), d))  # steps s_0 .. s_{d-1}; the final step is what is left of S
    s[:, 0] = np.maximum(sx, S / (d + 1))
    s[:, 1:] = ((S - s[:, 0]) / d)[:, None]
    load = -0.5 * np.log2(g + (1 - g) * np.exp(-s)).sum(axis=1)
    over = np.flatnonzero(load > cfg.pi)
    if over.size:
        s[over] = _psi_inv(cfg.pi / d, g)
        lead = over[sx[over] > s[over, 0]]
        s[lead, 0] = sx[lead]
        s[lead, 1:] = _psi_inv((cfg.pi - x[lead]) / max(d - 1, 1), g)[:, None]
    B[:, :-1] = 1 - np.clip(np.expm1(S - s.cumsum(axis=1)) / pa, 0.0, 1.0)
    return B


def _best_per_bin(
    cfg: NetworkConfig, want1: bool, want2: bool, grid_resolution: int, corrected: bool
) -> list[tuple[float, float, int, PowerAllocation]]:
    """(x, y, scheme, alloc) of the best allocation at each fast rate x.

    Scheme 1: under the printed terms the point (b1, b2, b3) = (0, 1, 1),
    which has both the largest fast cap I and the largest sum cap 2I; under
    the corrected ones the best row of the n = 64 _scheme1_table that
    reaches x (first index on ties).

    Scheme 2 is known in closed form, and one _scheme2_batch call evaluates
    _scheme2_vectors in every bin with x <= pi.

    Printed terms: with h(u) = 1/2 log2(1 + uP), round d >= 1 is at most
    h(u_{d-1}) - h(u_d), so the middle rounds and the final term add up to
    at most h(u0), which the top vector of u0(x) (empty middle layers)
    reaches at no extra load: y = h(u0(x)) whatever d_max.

    Corrected terms: let L = d_max + 1, T = B_{L-1}, u_d = T - B_d
    (u_{-1} = T, u_{L-1} = 0), a_d = 1 + u_d P(1 + a^2), g = a^2/(1 + a^2)
    and s_d = ln(a_{d-1}/a_d) >= 0.  Every round term
    cf_chain_term(B_{d-1}, B_d, T) (d = 0..L-2; d = 0 is the fast cap) and
    the final term cf_final_term_corrected(B_{L-2}, T) equal
    psi(s_d) = -1/2 log2(g + (1 - g) e^{-s_d}), increasing and concave in
    s_d, and the steps add up to ln(1 + T P(1 + a^2)).  So fast =
    psi(s_0) >= x, load = sum_{d<L-1} psi(s_d) <= pi, sum cap =
    sum_d psi(s_d), and:
    - T = 1: a larger T lengthens only the final step, raising only the
      final term;
    - without the load cap, concavity gives L equal steps S/L, with
      S = ln(1 + P(1 + a^2)), or, if S/L < sigma_x = psi^{-1}(x), s_0 =
      sigma_x and equal steps after it (past S/L the sum cap falls as s_0
      grows, since psi' falls);
    - if that load exceeds pi, it is pinned at pi: at load l the d_max
      conferenced steps are shortest (psi^{-1} is convex) at
      psi^{-1}(l/d_max) each, or at s_0 = sigma_x and
      psi^{-1}((l - x)/(d_max - 1)) after it when sigma_x is the longer, and
      the sum cap l + psi(S - their sum) is concave in l, so it rises up to
      pi.  The final step takes the rest.
    Then B_d = 1 - (e^{S - (s_0 + ... + s_d)} - 1)/(P(1 + a^2)).  sigma_x
    comes from the clamped u0(x), so the last bin, where x is the full fast
    cap and sigma_x would round a hair above S, is kept.
    """
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

    bests: list[tuple[float, int, PowerAllocation | None]] = [(-np.inf, 0, None)] * len(xs)
    if want1 and corrected:
        for i, x in enumerate(xs):
            mask = s1_fast >= x - 1e-12
            if np.any(mask):
                k = int(np.argmax(np.where(mask, s1_sum, -np.inf)))
                b1, b2, b3 = s1_B[k]
                bests[i] = (float(s1_sum[k]), 1, PowerAllocation((b1, b2 - b1, b3 - b2)))
    elif want1:
        bests = [(float(s1_sum[0]), 1, PowerAllocation((0.0, 1.0, 0.0)))] * len(xs)
    if want2:
        u0 = np.array([_u0(float(x), cfg) if x <= cfg.pi + 1e-12 else None for x in xs], dtype=float)
        rows = np.flatnonzero(~np.isnan(u0))
        B = _scheme2_vectors(u0[rows], xs[rows], cfg, corrected)
        r_fast, conf, tot = _scheme2_batch(B, cfg, corrected)
        ok = (r_fast >= xs[rows] - 1e-9) & (conf <= cfg.pi + 1e-9)
        for i, b, val in zip(rows[ok], B[ok], tot[ok]):
            if val > bests[i][0]:
                bests[i] = (float(val), 2, _alloc_from_cumulative(b))
    return [
        (float(x), best_val - float(x), scheme, alloc)
        for x, (best_val, scheme, alloc) in zip(xs, bests)
        if alloc is not None and math.isfinite(best_val)
    ]


def inner_boundary(
    cfg: NetworkConfig,
    scheme: int | str = "both",
    grid_resolution: int = 64,
    corrected: bool = False,
) -> list[BoundaryPoint]:
    """Sweep the achievable boundary on a fast-rate grid.

    For each target fast rate the best sum cap over all feasible allocations
    is found (in closed form, apart from the table of corrected scheme 1, see
    _best_per_bin), then the
    pointwise-best of the requested schemes is closed under time sharing
    (upper concave envelope).  The rate-transfer closure is implicit:
    transferring fast rate to slow moves along the same sum line.
    """
    validate_config(cfg)
    scheme = str(scheme)
    if scheme not in ("1", "2", "both"):
        raise ValueError("scheme must be 1, 2, or both")
    if grid_resolution < 10:
        raise ValueError("grid_resolution must be at least 10")
    if grid_resolution > _MAX_GRID:
        raise ValueError(f"grid_resolution must be at most {_MAX_GRID}")
    raw = _best_per_bin(cfg, scheme != "2", scheme != "1", grid_resolution, corrected)
    if not raw:
        return []

    def witness(weight: float, i: int) -> BoundaryWitness:
        x, y, s, alloc = raw[i]
        return BoundaryWitness(weight, s, alloc, x, y)

    pxs = np.array([r[0] for r in raw])
    pys = np.array([r[1] for r in raw])
    hull = _upper_concave_envelope(pxs, pys)
    hx = pxs[hull]

    # the first and the last raw point are always on the hull, so every x
    # lies in a bracket [hx[j], hx[j+1]] or on the last hull point
    points: list[BoundaryPoint] = []
    for x in pxs:
        j = int(np.searchsorted(hx, x, side="right")) - 1
        if abs(hx[j] - x) <= 1e-15:
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


def inner_region(
    cfg: NetworkConfig,
    scheme: int | str = "both",
    grid_resolution: int = 64,
    corrected: bool = False,
) -> Region:
    """Boundary polyline of the achievable region (see inner_boundary)."""
    pts = inner_boundary(cfg, scheme, grid_resolution, corrected)
    if not pts:
        return Region(vertices=((0.0, 0.0),), kind="polyline", degenerate=True)
    verts = tuple((p.x, p.y) for p in pts)
    region = Region(vertices=verts, kind="polyline")
    return rate_transfer_closure(region)


def rate_transfer_closure(region: Region) -> Region:
    """Close a polyline region under moving fast rate to slow rate.

    If (a, b) is achievable so is (a - d, b + d) for 0 <= d <= a, so the
    closed boundary at x is max(f(x), max over points right of x of
    (x_j + y_j) - x).  Idempotent; only ever enlarges the region.
    """
    if region.kind != "polyline":
        raise ValueError("rate_transfer_closure expects a polyline region")
    v = list(region.vertices)
    if not v:
        return region
    xs = [p[0] for p in v]
    ys = [p[1] for p in v]
    n = len(v)
    suffix = [0.0] * n
    acc = -math.inf
    for i in range(n - 1, -1, -1):
        acc = max(acc, xs[i] + ys[i])
        suffix[i] = acc

    out: list[tuple[float, float]] = []

    def push(x: float, y: float) -> None:
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
            # within (x_i, x_{i+1}] the transfer line has value suffix[i+1] - x;
            # insert the crossover with the original segment if it is interior
            x0, y0, x1, y1 = xs[i], ys[i], xs[i + 1], ys[i + 1]
            if x1 - x0 <= 1e-15:
                continue
            s = (y1 - y0) / (x1 - x0)
            # f(x) = y0 + s (x - x0); line(x) = suffix[i+1] - x
            if abs(s + 1) > 1e-15:
                xc = (suffix[i + 1] - y0 + s * x0) / (s + 1)
                if x0 + 1e-15 < xc < x1 - 1e-15:
                    fc = y0 + s * (xc - x0)
                    push(xc, max(fc, suffix[i + 1] - xc))

    # merge collinear runs
    merged: list[tuple[float, float]] = []
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


def best_slow_rate_scheme2(cfg: NetworkConfig, corrected: bool = False) -> tuple[float, PowerAllocation]:
    """Best slow rate of scheme 2 at zero fast rate (the region's y-intercept).

    Returns the optimum and its witness allocation, the x = 0 bin of
    _best_per_bin: under the printed terms 1/2 log2(1 + P) with all power on
    the top layer; under the corrected ones the equal steps, or the steps
    that pin the load at pi.
    """
    validate_config(cfg)
    B = _scheme2_vectors(np.array([_u0(0.0, cfg)]), np.zeros(1), cfg, corrected)
    return float(_scheme2_batch(B, cfg, corrected)[2][0]), _alloc_from_cumulative(B[0])
