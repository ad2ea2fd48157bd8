"""Achievable-rate region of the two conferencing superposition schemes.

Scheme 1 (single conferencing round, 3 layers): the fast message rides the
two lower layers, the slow message the top layer; the conferencing budget pi
relaxes the fast constraint.  Scheme 2 (d_max rounds, d_max+1 layers): the
fast message rides the bottom layer and slow parts unlock round by round; the
total of all conferenced parts must fit in pi.

The region sweep works in cumulative-power space with vectorised closed
forms; the per-allocation evaluators go through the log-determinant path so
the two routes cross-check each other.  Under the printed rate terms the best
allocation of every fast-rate bin is known in closed form (see _best_per_bin).
The corrected terms are searched: a lattice, then coordinate descent from
several seeds per bin, all bins' descents in lockstep, one vectorised
evaluation per (sweep, coordinate) step, each following exactly the path it
would follow alone.  Boundaries carry witness allocations so that every
reported point can be re-derived.
"""
from __future__ import annotations

import itertools
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

#: Largest grid_resolution a sweep accepts: the printed path evaluates every
#: bin in one kernel call, about 2 KB per bin at d_max = 16.
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


def _scheme2_grid(L: int, budget: int = 25_000) -> np.ndarray:
    """Nondecreasing lattice vectors in [0,1]^L at the finest enumerable step."""
    n = 1
    while math.comb(n + 1 + L, L) <= budget:
        n += 1
    return np.array(list(itertools.combinations_with_replacement(range(n + 1), L)), dtype=float) / n


_BLOCK_ROWS = 2048


def _scheme2_blocks(B: np.ndarray, cfg: NetworkConfig, corrected: bool) -> np.ndarray:
    """_scheme2_batch over the rows of B in blocks of _BLOCK_ROWS, as one (3, m) array.

    The broadcast temporaries of _scheme2_batch are (rows, L-1) arrays; over
    a whole lattice of up to 25k rows, or the line searches of a few hundred
    lockstep descents, they would raise the peak resident memory by several
    MB.  Rows are independent, so the blocking changes no value.
    """
    vals = np.empty((3, len(B)))
    for i in range(0, len(B), _BLOCK_ROWS):
        vals[:, i:i + _BLOCK_ROWS] = _scheme2_batch(B[i:i + _BLOCK_ROWS], cfg, corrected)
    return vals


def _scheme2_lattice(cfg: NetworkConfig, corrected: bool):
    """The _scheme2_grid lattice for cfg with its (r_fast, conf_load, total)."""
    B = _scheme2_grid(cfg.d_max + 1)
    r_fast, conf, tot = _scheme2_blocks(B, cfg, corrected)
    return B, r_fast, conf, tot


def _u0(x: float, cfg: NetworkConfig) -> float | None:
    """Power above depth 0, in [0, 1], that leaves fast rate x at full total
    power (None when x exceeds that fast cap); the scheme-2 "top" vector
    (1 - u0, ..., 1 - u0, 1) puts all of it on the top layer."""
    p, a = cfg.p, cfg.alpha
    u0 = ((1 + p * (1 + a * a)) / (4.0 ** x) - 1 - a * a * p) / p
    if 1 - u0 > 1 + 1e-9:
        return None
    return min(max(u0, 0.0), 1.0)


def _coordinate_descent(
    B0: np.ndarray,
    cfg: NetworkConfig,
    x_target: np.ndarray | float,
    corrected: bool = False,
    n_line: int = 25,
    sweeps: int = 40,
) -> tuple[np.ndarray, np.ndarray]:
    """Maximise the scheme-2 sum cap from each seed row of B0 (m, L), keeping
    the fast cap at least that row's x_target and the conferencing load within
    pi.  Deterministic: fixed line-search lattice per coordinate, first-best
    tie breaking.  Returns (best, B): each descent's sum cap (-inf where its
    seed is infeasible) and the cumulative vector reaching it.

    The descents run in lockstep, and a single descent is a batch of one.
    Each (sweep, coordinate) step evaluates the n_line candidates of every
    live descent whose coordinate range is not empty in one _scheme2_blocks
    call; each descent keeps its own best, argmax and improvement test, and
    leaves the batch after a sweep without improvement, so every row follows
    exactly the path it would follow alone.  The candidates are
    np.linspace(lo, hi, n_line) spelled out from one precomputed arange, with
    identical values.
    """
    B = np.array(B0, dtype=float)
    m, L = B.shape
    x_row = np.broadcast_to(np.asarray(x_target, dtype=float), (m,))

    def value(Bm: np.ndarray, x: np.ndarray) -> np.ndarray:
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


def _scheme2_candidates(cfg: NetworkConfig, x: float, grid_best: np.ndarray | None):
    """Deterministic top, linspace and lattice seeds for the bin at fast rate x."""
    L = cfg.d_max + 1
    seeds: list[np.ndarray] = []
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


def _points(xs: np.ndarray, bests) -> list[tuple[float, float, int, PowerAllocation]]:
    """(x, y, scheme, alloc) of every bin that has a finite best sum cap."""
    return [
        (float(x), best_val - float(x), scheme, alloc)
        for x, (best_val, scheme, alloc) in zip(xs, bests)
        if alloc is not None and math.isfinite(best_val)
    ]


def _search_per_bin(
    cfg: NetworkConfig, want1: bool, want2: bool, grid_resolution: int, corrected: bool
) -> list[tuple[float, float, int, PowerAllocation]]:
    """(x, y, scheme, alloc) of the best allocation found at each fast rate x.

    Scheme 1 and the scheme-2 lattice are read off their tables.  Scheme-2
    refinement then runs in two phases.  Phase 1 descends the top, linspace
    and lattice seeds of every bin with x <= pi in one lockstep call.  Phase 2
    walks the bins in order and compares those results in seed order; only
    the warm seed (the last descent that won a bin) descends here, one bin at
    a time, since it depends on the earlier bins.
    """
    if want1:
        s1_fast, s1_sum, s1_B = _scheme1_table(cfg, 64, corrected)
    if want2:
        s2_B, s2_fast, s2_conf, s2_sum = _scheme2_lattice(cfg, corrected)

    x_max = float(np.max(s1_fast)) if want1 else 0.0
    if want2:
        # the true scheme-2 fast cap is limited by pi through the load; the
        # all-zero lattice vector has no load, so some vector is feasible
        feas = s2_conf <= cfg.pi + 1e-9
        x2 = max(float(np.max(s2_fast[feas])), min(cfg.pi, float(np.max(s2_fast))))
        x_max = max(x_max, x2)

    xs = np.unique(np.linspace(0.0, x_max if x_max >= 1e-12 else 0.0, grid_resolution + 1))

    # per bin: (best value, its scheme, its allocation), and the lattice best
    bests: list[tuple[float, int, PowerAllocation | None]] = []
    grid_best: list[np.ndarray | None] = []
    for x in xs:
        best = (-np.inf, 0, None)
        grid_best_B = None
        if want1:
            mask = s1_fast >= x - 1e-12
            if np.any(mask):
                k = int(np.argmax(np.where(mask, s1_sum, -np.inf)))
                if s1_sum[k] > best[0]:
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
        warm: np.ndarray | None = None
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

    return _points(xs, bests)


def _best_per_bin(
    cfg: NetworkConfig, want1: bool, want2: bool, grid_resolution: int, corrected: bool
) -> list[tuple[float, float, int, PowerAllocation]]:
    """(x, y, scheme, alloc) of the best allocation at each fast rate x.

    corrected=True searches (_search_per_bin).  Under the printed terms the
    optimum is known and one _scheme2_batch call evaluates all of scheme 2:
    - scheme 1 is the point (b1, b2, b3) = (0, 1, 1), which has both the
      largest fast cap I and the largest sum cap 2I of the scheme;
    - scheme 2 is the top vector of u0(x) in every bin with x <= pi.  With
      h(u) = 1/2 log2(1 + uP), round d >= 1 is at most h(u_{d-1}) - h(u_d),
      so the middle rounds and the final term add up to at most h(u0), which
      empty middle layers reach at no extra load: y = h(u0(x)) whatever d_max.
    """
    if corrected:
        return _search_per_bin(cfg, want1, want2, grid_resolution, corrected)
    L = cfg.d_max + 1
    x_max = 0.0
    if want1:
        s1_fast, s1_sum = _scheme1_caps(np.zeros(1), np.ones(1), np.ones(1), cfg, False)
        x_max = float(s1_fast[0])
    if want2:
        x_max = max(x_max, min(cfg.pi, float(_scheme2_batch(np.ones((1, L)), cfg)[0][0])))
    xs = np.unique(np.linspace(0.0, x_max if x_max >= 1e-12 else 0.0, grid_resolution + 1))

    bests: list[tuple[float, int, PowerAllocation | None]] = [(-np.inf, 0, None)] * len(xs)
    if want1:
        bests = [(float(s1_sum[0]), 1, PowerAllocation((0.0, 1.0, 0.0)))] * len(xs)
    if want2:
        u0 = np.array([_u0(float(x), cfg) if x <= cfg.pi + 1e-12 else None for x in xs], dtype=float)
        rows = np.flatnonzero(~np.isnan(u0))
        B = np.ones((rows.size, L))
        B[:, :-1] = 1 - u0[rows, None]
        r_fast, conf, tot = _scheme2_batch(B, cfg)
        ok = (r_fast >= xs[rows] - 1e-9) & (conf <= cfg.pi + 1e-9)
        for i, b, val in zip(rows[ok], B[ok], tot[ok]):
            if val > bests[i][0]:
                bests[i] = (float(val), 2, _alloc_from_cumulative(b))
    return _points(xs, bests)


def inner_boundary(
    cfg: NetworkConfig,
    scheme: int | str = "both",
    grid_resolution: int = 64,
    corrected: bool = False,
) -> list[BoundaryPoint]:
    """Sweep the achievable boundary on a fast-rate grid.

    For each target fast rate the best sum cap over all feasible allocations
    is found (in closed form under the printed terms, by lattice plus lockstep
    coordinate descent when corrected, see _best_per_bin), then the
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


def _search_slow_rate(cfg: NetworkConfig, corrected: bool) -> tuple[float, PowerAllocation]:
    """Best scheme-2 sum cap at zero fast rate: lattice best, then descents.

    The all-zero lattice vector has no load, so the lattice best exists.
    """
    grid, _, conf, tot = _scheme2_lattice(cfg, corrected)
    k = int(np.argmax(np.where(conf <= cfg.pi + 1e-9, tot, -np.inf)))
    best_val, best_B = float(tot[k]), grid[k]
    seeds = _scheme2_candidates(cfg, 0.0, best_B)
    vals, Bs = _coordinate_descent(np.reshape(seeds, (-1, cfg.d_max + 1)), cfg, 0.0, corrected)
    for val, B in zip(vals, Bs):
        if val > best_val:
            best_val, best_B = float(val), B
    return best_val, _alloc_from_cumulative(best_B)


def best_slow_rate_scheme2(cfg: NetworkConfig, corrected: bool = False) -> tuple[float, PowerAllocation]:
    """Best slow rate of scheme 2 at zero fast rate (the region's y-intercept).

    Returns the optimiser value and its witness allocation.  Under the
    printed terms this is 1/2 log2(1 + P) with all power on the top layer
    (see _best_per_bin); corrected=True searches.
    """
    validate_config(cfg)
    if corrected:
        return _search_slow_rate(cfg, corrected)
    return 0.5 * math.log2(1 + cfg.p), PowerAllocation((0.0,) * cfg.d_max + (1.0,))
