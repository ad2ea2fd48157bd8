"""Achievable-rate region of the two conferencing superposition schemes.

Scheme 1 (single conferencing round, 3 layers): the fast message rides the
two lower layers, the slow message the top layer; the conferencing budget pi
relaxes the fast constraint.  Scheme 2 (d_max rounds, d_max+1 layers): the
fast message rides the bottom layer and slow parts unlock round by round; the
total of all conferenced parts must fit in pi.

The region sweep works in cumulative-power space, where every rate term is
one closed form, cf_term, at its layer-table triple; the per-allocation
evaluators go through the log-determinant path so the two routes
cross-check each other.  The best scheme-2 allocation
of every fast-rate bin is known in closed form under both the printed and the
corrected rate terms (see _best_per_bin), so scheme 2 is one vectorised
evaluation per sweep; scheme 1 picks every bin's row of a 3-layer table in
one sorted pass.  One time-sharing hull of the bins is both the region
(inner_region, its vertices, closed under rate transfer as they stand) and
where every bin is placed (inner_boundary, array columns of model.Columns
whose records carry witness allocations, built on first read, so that every
reported point can be re-derived).
"""
from __future__ import annotations

import functools
import math

import numpy as np

from .gaussian_mi import SCHEME1_LAYERS, PowerAllocation, cf_term, scheme1_terms, scheme2_terms
from .model import Columns, NetworkConfig, Record, Region, validate_config

__all__ = ["SchemeOneEvaluation", "SchemeTwoEvaluation", "BoundaryWitness", "BoundaryPoint", "eval_scheme1",
           "eval_scheme2", "inner_boundary", "inner_region", "best_slow_rate_scheme2"]

#: Largest grid_resolution of a sweep, and largest (grid_resolution + 1) *
#: (d_max + 1) cells of one with scheme 2, whose one kernel call holds about
#: 120 bytes a cell (fig2, d_max = 16, at the largest grid: 1.7e6 cells).
_MAX_GRID = 100_000
_MAX_CELLS = 2_000_000


class SchemeOneEvaluation(Record):
    alloc: PowerAllocation
    r_fast_cap: float
    r_sum_cap: float


class SchemeTwoEvaluation(Record):
    alloc: PowerAllocation
    r_fast_cap: float
    r_sum_cap: float
    conf_load: float
    feasible: bool


def _scheme1_rates(term, pi: float, corrected: bool):
    """(r_fast, r_sum) of scheme 1 from term(name), the value of the term of
    that name: I(U2; Y) and I(U2; Y | U1) plus the conferencing budget cap
    the fast rate, and the sum adds the printed or the corrected slow term."""
    fast = np.minimum(term("i_u2_y"), term("i_u2_y_given_u1") + pi)
    return fast, fast + term("i_x_slow_given_u2" if corrected else "i_x_slow_given_u1")


def eval_scheme1(
    alloc: PowerAllocation, cfg: NetworkConfig, corrected: bool = False
) -> SchemeOneEvaluation:
    """Fast cap and sum cap of scheme 1 for one allocation.

    corrected=False keeps the slow term conditioned on the depth-1 auxiliary
    exactly as the analysis prints it; corrected=True conditions on the full
    decoded depth-2 level instead.
    """
    r_fast, r_sum = _scheme1_rates(functools.partial(getattr, scheme1_terms(alloc, cfg)), cfg.pi, corrected)
    return SchemeOneEvaluation(alloc=alloc, r_fast_cap=float(r_fast), r_sum_cap=float(r_sum))


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
        feasible=t.conf_load <= cfg.pi + 1e-12,
    )


# ---------------------------------------------------------------------------
# Vectorised closed-form sweeps (cumulative-power space)
# ---------------------------------------------------------------------------

def _scheme1_caps(b1, b2, b3, cfg: NetworkConfig, corrected: bool):
    """(r_fast, r_sum) of scheme 1 at cumulative powers b1 <= b2 <= b3 (arrays)."""
    depth = (0, b1, b2, b3)

    def term(name):
        j, k, m = SCHEME1_LAYERS[name]
        return cf_term(depth[j], depth[k], depth[m], b3, cfg.p, cfg.alpha)

    return _scheme1_rates(term, cfg.pi, corrected)


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

    One broadcast cf_term call gives every term of scheme2_layers: column d
    (d = 0..L-1) is the term (d, d+1, d), at cumulative powers B_{d-1}
    (B_{-1} = 0) and B_d, so column 0 is the fast cap, columns 0..L-2 are
    the rounds and column L-1 (B_{L-1} = T) is the corrected final term, or
    the printed one (D, D+1, D+1) with the neighbour's depth at T.  The load is a strict left-to-right
    cumulative sum over the rounds (np.sum's pairwise order would change low
    bits), which keeps it bit-identical to adding them one by one.
    """
    b_low = np.zeros(B.shape)
    b_low[:, 1:] = B[:, :-1]
    b_nb = b_low if corrected else np.concatenate([b_low[:, :-1], B[:, -1:]], axis=1)
    terms = cf_term(b_low, B, b_nb, B[:, -1:], cfg.p, cfg.alpha)
    conf = terms[:, :-1].cumsum(axis=1)[:, -1]
    return terms[:, 0], conf, conf + terms[:, -1]


def _u0(xs: np.ndarray, cfg: NetworkConfig) -> np.ndarray:
    """Power above depth 0, in [0, 1], that leaves fast rate x at full total
    power, per x of xs: nan beyond that fast cap, but never at x = 0, where
    the formula cancels at tiny P.  The scheme-2 "top" vector
    (1 - u0, ..., 1 - u0, 1) puts all of it on the top layer.  4^x is a
    Python float power per element, as numpy's differs in the last bit."""
    p, a = cfg.p, cfg.alpha
    c = 1 + p * (1 + a * a)
    u0 = (np.array([c / 4.0 ** x for x in xs.tolist()]) - 1 - a * a * p) / p
    return np.where(1 - u0 > 1 + 1e-9, np.where(xs == 0, 1.0, np.nan), np.clip(u0, 0.0, 1.0))


class BoundaryWitness(Record):
    """One time-shared component of a boundary point."""

    weight: float
    scheme: int
    alloc: PowerAllocation
    x: float
    y: float


class BoundaryPoint(Record):
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


def _upper_concave_envelope(x: np.ndarray, y: np.ndarray) -> list[int]:
    """Indices of the upper concave hull of (x, y), x ascending.  A vertex pops
    when it lies at most 1e-15 max |y| above the chord from the vertex before
    it to the next point (cross >= tol times the chord's width): free of scale and grid."""
    tol = float(-1e-15 * np.max(np.abs(y))) if len(x) else 0.0
    xs, ys, hull = x.tolist(), y.tolist(), []
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
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(x, y, scheme, B) of the best allocation at each fast rate x, as arrays;
    row i of B holds the cumulative powers of bin i's winner in its first 3
    (scheme 1) or d_max + 1 (scheme 2) entries.

    Scheme 1 reads a table of (b1, b2, b3) rows: the single row (0, 1, 1)
    under the printed terms, which has both the largest fast cap I and the
    largest sum cap 2I, the n = 64 _scheme1_table under the corrected ones.
    Each bin takes the first row of largest sum cap whose fast cap reaches x:
    with the rows sorted by sum cap, the first where the running maximum of
    the fast cap reaches x, one searchsorted for all bins.

    Scheme 2 is known in closed form, and one _scheme2_batch call evaluates
    _scheme2_vectors in every bin with x <= pi; it wins a bin only with a
    strictly larger sum cap.

    Printed terms: with h(u) = 1/2 log2(1 + uP), round d >= 1 is at most
    h(u_{d-1}) - h(u_d), so the middle rounds and the final term add up to
    at most h(u0), which the top vector of u0(x) (empty middle layers)
    reaches at no extra load: y = h(u0(x)) whatever d_max.

    Corrected terms: let L = d_max + 1, T = B_{L-1}, u_d = T - B_d
    (u_{-1} = T, u_{L-1} = 0), a_d = 1 + u_d P(1 + a^2), g = a^2/(1 + a^2)
    and s_d = ln(a_{d-1}/a_d) >= 0.  Every term
    cf_term(B_{d-1}, B_d, B_{d-1}, T) (d = 0..L-1; d = 0 is the fast cap,
    d = L-1 the final term) equals
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
    if want1:
        if corrected:
            s1_fast, s1_sum, s1_B = _scheme1_table(cfg, 64, corrected)
        else:
            s1_B = np.array([[0.0, 1.0, 1.0]])
            s1_fast, s1_sum = _scheme1_caps(*s1_B.T, cfg, False)
        x_max = float(np.max(s1_fast))
    if want2:
        x_max = max(x_max, min(cfg.pi, float(_scheme2_batch(np.ones((1, L)), cfg)[0][0])))
    xs = np.unique(np.linspace(0.0, x_max if x_max >= 1e-12 else 0.0, grid_resolution + 1))

    best = np.full(len(xs), -np.inf)  # the winner's sum cap
    scheme = np.zeros(len(xs), dtype=int)
    B_win = np.full((len(xs), max(3 * want1, L * want2)), np.nan)
    if want1:
        order = np.argsort(-s1_sum, kind="stable")
        j = np.searchsorted(np.maximum.accumulate(s1_fast[order]), xs - 1e-12)
        hit = j < len(order)
        k = order[j[hit]]
        best[hit], scheme[hit], B_win[hit, :3] = s1_sum[k], 1, s1_B[k]
    if want2:
        u0 = np.where(xs <= cfg.pi + 1e-12, _u0(xs, cfg), np.nan)
        rows = np.flatnonzero(~np.isnan(u0))
        B = _scheme2_vectors(u0[rows], xs[rows], cfg, corrected)
        r_fast, conf, tot = _scheme2_batch(B, cfg, corrected)
        win = (r_fast >= xs[rows] - 1e-9) & (conf <= cfg.pi + 1e-9) & (tot > best[rows])
        i = rows[win]
        best[i], scheme[i], B_win[i, :L] = tot[win], 2, B[win]
    # a later bin's winner also serves this bin: take the nearest of largest
    # sum cap, as the closed forms can round a later cap above an earlier one
    keep = np.flatnonzero(np.isfinite(best))[::-1]
    top = np.where(best[keep] == np.maximum.accumulate(best[keep]), np.arange(len(keep)), 0)
    src, keep = keep[np.maximum.accumulate(top)][::-1], keep[::-1]
    return xs[keep], best[src] - xs[keep], scheme[src], B_win[src]


def _sweep(cfg: NetworkConfig, scheme: int | str, grid_resolution: int, corrected: bool):
    """The checked inputs' _best_per_bin arrays (x, y, scheme, B) and the
    indices of their upper concave hull: inner_boundary's and inner_region's."""
    validate_config(cfg)
    scheme = str(scheme)
    if scheme not in ("1", "2", "both"):
        raise ValueError("scheme must be 1, 2, or both")
    if grid_resolution < 10:
        raise ValueError("grid_resolution must be at least 10")
    if grid_resolution > _MAX_GRID:
        raise ValueError(f"grid_resolution must be at most {_MAX_GRID}")
    if scheme != "1" and (grid_resolution + 1) * (int(cfg.d_max) + 1) > _MAX_CELLS:
        raise ValueError(f"grid {grid_resolution} and d_max {cfg.d_max} ask for more than {_MAX_CELLS} "
                         "cells, (grid + 1)(d_max + 1): lower one of them")
    xs, ys, schemes, B = _best_per_bin(cfg, scheme != "2", scheme != "1", grid_resolution, corrected)
    return xs, ys, schemes, B, np.array(_upper_concave_envelope(xs, ys), dtype=int)


def inner_boundary(
    cfg: NetworkConfig,
    scheme: int | str = "both",
    grid_resolution: int = 64,
    corrected: bool = False,
) -> Columns:
    """Sweep the achievable boundary on a fast-rate grid.

    For each target fast rate the best sum cap over all feasible allocations
    is found (in closed form, apart from the table of corrected scheme 1, see
    _best_per_bin), then the pointwise-best of the requested schemes is
    closed under time sharing: the hull of inner_region.

    One searchsorted puts every bin on a hull vertex or between two, where it
    takes the t-form value (1 - t) y0 + t y1.  Returns Columns of
    BoundaryPoint with columns x, y and source ("scheme1", "scheme2" or
    "timeshare"); a hull vertex's allocation is built when first read.
    """
    xs, ys, schemes, B, hull = _sweep(cfg, scheme, grid_resolution, corrected)
    # the first and the last raw point are always on the hull, so every x
    # lies in a bracket [hx[j], hx[j+1]] or on the last hull point
    hx = xs[hull]
    j = np.searchsorted(hx, xs, side="right") - 1
    i0, i1 = hull[j], hull[np.minimum(j + 1, len(hull) - 1)]
    on = hx[j] == xs  # hull vertices are bins, so a bin is one exactly
    t = np.where(on, 0.0, (xs - xs[i0]) / np.where(on, 1.0, xs[i1] - xs[i0]))
    y = np.where(on, ys[i0], (1 - t) * ys[i0] + t * ys[i1])
    right = ~on & (t >= 1 - 1e-15)
    two = ~(on | (t <= 1e-15) | right)
    first = np.where(right, i1, i0)
    allocs: dict[int, PowerAllocation] = {}  # every component is a hull vertex

    def witness(weight: float, i: int) -> BoundaryWitness:
        if i not in allocs:  # the row's first 3 (scheme 1) or d_max + 1 (scheme 2) levels
            allocs[i] = _alloc_from_cumulative(B[i, :3 if schemes[i] == 1 else cfg.d_max + 1])
        return BoundaryWitness(weight, int(schemes[i]), allocs[i], float(xs[i]), float(ys[i]))

    def point(x: float, y: float, source: str, i: int, w: float, i2: int, w2: float) -> BoundaryPoint:
        return BoundaryPoint(x, y, (witness(w, i), witness(w2, i2)) if i2 >= 0 else (witness(w, i),))

    return Columns(point, {
        "x": xs, "y": y,
        "source": np.array(["", "scheme1", "scheme2", "timeshare"])[np.where(two, 3, schemes[first])],
        "first": first, "weight": np.where(two, 1 - t, 1.0), "second": np.where(two, i1, -1), "t": t,
    })


def inner_region(
    cfg: NetworkConfig,
    scheme: int | str = "both",
    grid_resolution: int = 64,
    corrected: bool = False,
) -> Region:
    """Boundary polyline of the achievable region: the vertices of the
    time-sharing hull that inner_boundary places its bins on.

    The hull is closed under rate transfer ((a, b) achievable gives
    (a - d, b + d), 0 <= d <= a) as it stands:
    - every bin's best sum cap x + y is nonincreasing in x, as a larger fast
      rate only shrinks the feasible set: of scheme 1's sorted pass, of
      scheme 2's closed form, and of their max; _best_per_bin's suffix
      maximum keeps it so through rounding;
    - hull vertices are a subsequence of the bins, so x + y never rises along
      the hull: on each segment f(x) + x falls from x_i + y_i to
      x_{i+1} + y_{i+1}, at least x_j + y_j for every later vertex j, so the
      transfer line (x_j + y_j) - x never lies above f, and the first vertex
      sits at x = 0.  Closing the hull adds nothing.
    """
    xs, ys, _, _, hull = _sweep(cfg, scheme, grid_resolution, corrected)
    if not len(hull):
        return Region(vertices=((0.0, 0.0),), kind="polyline", degenerate=True)
    return Region(vertices=tuple(zip(xs[hull].tolist(), ys[hull].tolist())), kind="polyline")


def best_slow_rate_scheme2(cfg: NetworkConfig, corrected: bool = False) -> tuple[float, PowerAllocation]:
    """Best slow rate of scheme 2 at zero fast rate (the region's y-intercept).

    Returns the optimum and its witness allocation, the x = 0 bin of
    _best_per_bin: under the printed terms 1/2 log2(1 + P) with all power on
    the top layer; under the corrected ones the equal steps, or the steps
    that pin the load at pi.
    """
    validate_config(cfg)
    B = _scheme2_vectors(_u0(np.zeros(1), cfg), np.zeros(1), cfg, corrected)
    return float(_scheme2_batch(B, cfg, corrected)[2][0]), _alloc_from_cumulative(B[0])
