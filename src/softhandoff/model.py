"""Core parameter types, rate-pair types, and 2-D convex-region geometry.

Everything downstream (bounds, multiplexing-gain polygons, simulators) shares
the types in this module.  All rates are in bits per channel use; every log
is base 2.  Regions live in the first quadrant and contain the origin.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = [
    "ASYMPTOTIC_K",
    "NetworkConfig",
    "RatePair",
    "MuxPair",
    "HalfPlane",
    "Region",
    "validate_config",
    "region_from_halfplanes",
    "region_contains",
    "boundary_slopes",
    "upper_chain",
]

#: Distinguished user count for the large-network limit.
ASYMPTOTIC_K = math.inf

#: Absolute tolerance for merging polygon vertices.  All vertices in scope are
#: rationals or logs of rationals, so double precision leaves lots of margin.
VERTEX_TOL = 1e-12

#: Feasibility slack when filtering candidate vertices of a half-plane
#: intersection (looser than VERTEX_TOL on purpose: intersections of nearly
#: parallel lines amplify rounding).
_FEAS_TOL = 1e-9


@dataclass(frozen=True)
class NetworkConfig:
    """Physical and protocol parameters of the linear handoff network.

    Attributes
    ----------
    alpha : cross-link gain, nonzero real with magnitude < 1.
    p : per-user average power constraint, > 0.
    k : user count, integer >= 2 or ASYMPTOTIC_K.
    pi : conferencing rate budget per link direction, bits/channel use, >= 0.
    d_max : maximum number of conferencing rounds, >= 1.
    mu : conferencing prelog (pi = mu * 0.5*log2 P in the high-power regime).
    """

    alpha: float
    p: float
    k: float = ASYMPTOTIC_K
    pi: float = 0.0
    d_max: int = 1
    mu: float = 0.0


def validate_config(cfg: NetworkConfig) -> NetworkConfig:
    """Check all model invariants; return cfg unchanged if they hold.

    Raises ValueError naming the violated field otherwise.
    """
    for name in ("alpha", "p", "pi", "mu"):
        if not math.isfinite(getattr(cfg, name)):
            raise ValueError(f"{name} must be finite")
    if cfg.alpha == 0:
        raise ValueError("alpha must be nonzero")
    if abs(cfg.alpha) >= 1:
        raise ValueError("alpha magnitude must be < 1")
    if not cfg.p > 0:
        raise ValueError("p must be positive")
    if cfg.pi < 0:
        raise ValueError("pi must be nonnegative")
    if cfg.d_max < 1:
        raise ValueError("d_max must be at least 1")
    if cfg.mu < 0:
        raise ValueError("mu must be nonnegative")
    if cfg.k != ASYMPTOTIC_K:
        if cfg.k != int(cfg.k):
            raise ValueError("k must be an integer or ASYMPTOTIC_K")
        if cfg.k < 2:
            raise ValueError("k must be at least 2")
    return cfg


@dataclass(frozen=True)
class RatePair:
    """A (fast, slow) rate operating point in bits per channel use."""

    r_fast: float
    r_slow: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.r_fast) and math.isfinite(self.r_slow)):
            raise ValueError("rates must be finite")
        if self.r_fast < 0 or self.r_slow < 0:
            raise ValueError("rates must be nonnegative")


@dataclass(frozen=True)
class MuxPair:
    """A (fast, slow) multiplexing-gain pair, dimensionless prelogs in [0, 1]."""

    s_fast: float
    s_slow: float

    def __post_init__(self) -> None:
        if not (0 <= self.s_fast <= 1 and 0 <= self.s_slow <= 1):
            raise ValueError("prelogs must lie in [0, 1]")


@dataclass(frozen=True)
class HalfPlane:
    """Constraint a*x + b*y <= c."""

    a: float
    b: float
    c: float

    def __post_init__(self) -> None:
        if self.a == 0 and self.b == 0:
            raise ValueError("half-plane normal must be nonzero")


@dataclass(frozen=True)
class Region:
    """A 2-D rate or prelog region.

    kind "polygon": closed convex polygon, vertices counterclockwise starting
    at the lexicographically smallest vertex (the origin for the regions in
    scope).  kind "polyline": the upper-right boundary of a swept region,
    x strictly increasing and y nonincreasing; the region is everything in the
    first quadrant on or below the polyline.
    """

    vertices: tuple[tuple[float, float], ...]
    kind: str = "polygon"
    degenerate: bool = False

    def __post_init__(self) -> None:
        if self.kind not in ("polygon", "polyline"):
            raise ValueError(f"unknown region kind {self.kind!r}")


def _dedupe(points: list[tuple[float, float]], tol: float) -> list[tuple[float, float]]:
    out: list[tuple[float, float]] = []
    for p in points:
        if not any(abs(p[0] - q[0]) <= tol and abs(p[1] - q[1]) <= tol for q in out):
            out.append(p)
    return out


def _convex_hull_ccw(points: list[tuple[float, float]]) -> list[tuple[float, float]]:
    """Monotone-chain hull, counterclockwise, collinear points dropped."""
    pts = sorted(points)

    def cross(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    lower: list[tuple[float, float]] = []
    for p in pts:
        while len(lower) >= 2 and cross(lower[-2], lower[-1], p) <= VERTEX_TOL:
            lower.pop()
        lower.append(p)
    upper: list[tuple[float, float]] = []
    for p in reversed(pts):
        while len(upper) >= 2 and cross(upper[-2], upper[-1], p) <= VERTEX_TOL:
            upper.pop()
        upper.append(p)
    return lower[:-1] + upper[:-1]


def region_from_halfplanes(planes: list[HalfPlane]) -> Region:
    """Intersect half-planes (plus the implicit first quadrant) into a polygon.

    Vertices come back counterclockwise starting at the lexicographically
    smallest vertex; collinear vertices are merged.  An empty-interior
    intersection degenerates to a point or segment with the degenerate flag
    set; an unbounded intersection raises ValueError.
    """
    cons: list[tuple[float, float, float]] = [(-1.0, 0.0, 0.0), (0.0, -1.0, 0.0)]
    cons += [(hp.a, hp.b, hp.c) for hp in planes]

    # Unboundedness: a nonzero recession direction d with A d <= 0.  Because
    # the axes constraints are present the cone is pointed, so every extreme
    # ray lies on some constraint boundary; checking those plus the axes is
    # exhaustive in 2-D.
    candidates = [(1.0, 0.0), (0.0, 1.0)]
    for a, b, _ in cons:
        n = math.hypot(a, b)
        candidates += [(-b / n, a / n), (b / n, -a / n)]
    for dx, dy in candidates:
        if dx < -1e-15 or dy < -1e-15:
            continue
        if max(abs(dx), abs(dy)) < 1e-15:
            continue
        if all(a * dx + b * dy <= 1e-12 for a, b, _ in cons):
            raise ValueError("half-plane intersection is unbounded")

    # Candidate vertices: all pairwise boundary intersections.
    verts: list[tuple[float, float]] = []
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
    if not verts:
        raise ValueError("half-plane intersection is empty")
    if len(verts) == 1:
        return Region(vertices=(verts[0],), degenerate=True)
    if len(verts) == 2:
        return Region(vertices=tuple(sorted(verts)), degenerate=True)

    hull = _convex_hull_ccw(verts)
    if len(hull) < 3:
        return Region(vertices=tuple(sorted(hull)), degenerate=True)
    start = hull.index(min(hull))
    hull = hull[start:] + hull[:start]
    # Snap coordinate dust onto the axes so downstream intercept lookups are exact.
    hull = [(0.0 if abs(x) <= VERTEX_TOL else x, 0.0 if abs(y) <= VERTEX_TOL else y) for x, y in hull]
    return Region(vertices=tuple(hull))


def _polyline_ymax(region: Region, x: float) -> float:
    """Upper boundary value of a polyline region at abscissa x (nan outside)."""
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


def region_contains(region: Region, point: tuple[float, float], tol: float = 0.0) -> bool:
    """True iff the point lies in the region inflated by tol in each half-plane."""
    x, y = point
    v = region.vertices
    if region.kind == "polyline":
        if len(v) == 1:
            v = (v[0], v[0])
        if x < -tol or y < -tol:
            return False
        if x > v[-1][0] + tol:
            return False
        ymax = _polyline_ymax(region, min(max(x, v[0][0]), v[-1][0]))
        return y <= ymax + tol

    if region.degenerate:
        if len(v) == 1:
            return math.hypot(x - v[0][0], y - v[0][1]) <= tol
        (x0, y0), (x1, y1) = v[0], v[-1]
        dx, dy = x1 - x0, y1 - y0
        L2 = dx * dx + dy * dy
        t = 0.0 if L2 == 0 else min(max(((x - x0) * dx + (y - y0) * dy) / L2, 0.0), 1.0)
        return math.hypot(x - (x0 + t * dx), y - (y0 + t * dy)) <= tol

    for (x0, y0), (x1, y1) in zip(v, v[1:] + v[:1]):
        ex, ey = x1 - x0, y1 - y0
        n = math.hypot(ex, ey)
        # signed distance of the point inside edge (positive = interior side)
        s = (ex * (y - y0) - ey * (x - x0)) / n
        if s < -tol:
            return False
    return True


def upper_chain(region: Region) -> list[tuple[float, float]]:
    """Region boundary from the y-intercept to the x-intercept, x ascending:
    a polyline itself, or a polygon's CCW cycle reversed between its rightmost
    x-axis vertex and its topmost y-axis vertex."""
    v = list(region.vertices)
    if region.kind == "polyline":
        return v
    xi = max((i for i, (x, y) in enumerate(v) if y <= VERTEX_TOL), key=lambda i: v[i][0])
    yi = max((i for i, (x, y) in enumerate(v) if x <= VERTEX_TOL), key=lambda i: v[i][1])
    chain = []
    i = xi
    while True:
        chain.append(v[i])
        if i == yi:
            break
        i = (i + 1) % len(v)
    chain.reverse()
    return chain


def boundary_slopes(region: Region) -> list[tuple[tuple[tuple[float, float], tuple[float, float]], float]]:
    """Slopes of the boundary between the y-intercept and the x-intercept.

    Returns (segment, slope) pairs ordered by increasing x.  Vertical segments
    get slope -inf.  Degenerate regions raise ValueError.
    """
    if region.degenerate or (region.kind != "polyline" and len(region.vertices) < 3):
        raise ValueError("degenerate region has no boundary slopes")
    chain = upper_chain(region)

    out = []
    for p0, p1 in zip(chain, chain[1:]):
        dx = p1[0] - p0[0]
        if abs(dx) <= VERTEX_TOL:
            slope = -math.inf
        else:
            slope = (p1[1] - p0[1]) / dx
        out.append(((p0, p1), slope))
    return out
