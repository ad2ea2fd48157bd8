"""The record base, core parameter types, the prelog-pair type, lazy record
columns, and 2-D convex-region geometry.

Everything downstream (bounds, multiplexing-gain polygons, simulators) shares
the types in this module.  All rates are in bits per channel use; every log
is base 2.  Regions live in the first quadrant and contain the origin.  The
capacity outer bound and the multiplexing-gain polygons are both the first
quadrant cut by x + y <= s and 2x + y <= w, built in closed form by
_two_cut_polygon; _polyline_ymax is the one piecewise-linear interpolator.
"""
from __future__ import annotations

import math
import numbers
from collections.abc import Sequence

import numpy as np

__all__ = [
    "ASYMPTOTIC_K",
    "Record",
    "NetworkConfig",
    "MuxPair",
    "Region",
    "Columns",
    "validate_config",
    "region_contains",
    "boundary_slopes",
    "upper_chain",
]

#: Distinguished user count for the large-network limit.
ASYMPTOTIC_K = math.inf

#: Tolerance for merging polygon vertices, absolute up to 1 and relative to
#: the caps above it where _two_cut_polygon merges a crossing.  All vertices in
#: scope are rationals or logs of rationals, so double precision leaves lots
#: of margin.
VERTEX_TOL = 1e-12


class Record:
    """Base of the package's immutable records.

    A subclass lists its fields as annotations, in order, and gives trailing
    fields defaults by assigning them in the class body.  A record is built
    from positional or keyword values, checked by the class's __post_init__,
    refuses assignment and deletion, prints as Name(field=value, ...) and
    compares and hashes field-wise, only against its own class; a subclass
    declared with eq=False compares by identity instead.  The field names and
    defaults are read once, when the class is made: every method is shared.
    """

    _fields: tuple[str, ...] = ()
    _field_set: frozenset[str] = frozenset()
    _defaults: dict[str, object] = {}

    def __init_subclass__(cls, eq: bool = True, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        cls._fields = tuple(cls.__dict__.get("__annotations__", ()))
        cls._field_set = frozenset(cls._fields)
        cls._defaults = {name: cls.__dict__[name] for name in cls._fields if name in cls.__dict__}
        if not eq:
            cls.__eq__, cls.__hash__ = object.__eq__, object.__hash__

    def __init__(self, *args, **kwargs) -> None:
        cls = type(self)
        given = dict(zip(cls._fields, args), **kwargs)
        values = {**cls._defaults, **given}
        if len(given) != len(args) + len(kwargs) or values.keys() != cls._field_set:
            raise TypeError(cls._call_error(args, kwargs))
        self.__dict__.update(values)
        self.__post_init__()

    @classmethod
    def _call_error(cls, args: tuple, kwargs: dict) -> str:
        """What is wrong with a call that names too many, unknown, doubled or too few fields."""
        name, positional = cls.__qualname__, cls._fields[:len(args)]
        if len(args) > len(cls._fields):
            return f"{name}() takes {len(cls._fields)} positional arguments but {len(args)} were given"
        for key in kwargs:
            if key not in cls._field_set:
                return f"{name}() got an unexpected keyword argument {key!r}"
            if key in positional:
                return f"{name}() got multiple values for argument {key!r}"
        missing = [f for f in cls._fields if f not in positional and f not in kwargs and f not in cls._defaults]
        return f"{name}() missing required arguments: {', '.join(map(repr, missing))}"

    def __post_init__(self) -> None:
        """Check the fields; a record with invariants overrides this."""

    def _astuple(self) -> tuple:
        return tuple(map(self.__dict__.__getitem__, self._fields))

    def replace(self, **changes) -> Record:
        """A new record of this class with the given fields changed, checked as any new record is."""
        return type(self)(**dict(zip(self._fields, self._astuple()), **changes))

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._astuple() == other._astuple()

    def __hash__(self) -> int:
        return hash(self._astuple())

    def __repr__(self) -> str:
        return f"{type(self).__qualname__}({', '.join(f'{n}={v!r}' for n, v in zip(self._fields, self._astuple()))})"


class NetworkConfig(Record):
    """Physical and protocol parameters of the linear handoff network.

    Attributes
    ----------
    alpha : cross-link gain, nonzero real with magnitude < 1.
    p : per-user average power constraint, > 0.
    k : user count, integer >= 2 or ASYMPTOTIC_K.
    pi : conferencing rate budget per link direction, bits/channel use, >= 0.
    d_max : maximum number of conferencing rounds, >= 1.

    The conferencing prelog mu of the high-power regime is not a field here:
    only the multiplexing-gain polygons read it (mux_gain.MuxRegionSpec).
    """

    alpha: float
    p: float
    k: float = ASYMPTOTIC_K
    pi: float = 0.0
    d_max: int = 1


def _check_real(name: str, value) -> None:
    """Raise ValueError naming name unless value is a finite real number; a
    bool is not one, nor is an int too large for a float."""
    try:
        if not isinstance(value, bool) and isinstance(value, numbers.Real) and math.isfinite(value):
            return
    except OverflowError:
        pass
    raise ValueError(f"{name} must be finite and real, got {value!r}")


def _check_d_max(d_max) -> None:
    if isinstance(d_max, bool) or not isinstance(d_max, numbers.Integral):
        raise ValueError(f"d_max must be an integer, got {d_max!r}")
    if d_max < 1:
        raise ValueError("d_max must be at least 1")


def validate_config(cfg: NetworkConfig) -> NetworkConfig:
    """Check all model invariants; return cfg unchanged if they hold.

    Raises ValueError naming the violated field otherwise.
    """
    for name in ("alpha", "p", "pi"):
        _check_real(name, getattr(cfg, name))
    if cfg.alpha == 0:
        raise ValueError("alpha must be nonzero")
    if abs(cfg.alpha) >= 1:
        raise ValueError("alpha magnitude must be < 1")
    if not cfg.p > 0:
        raise ValueError("p must be positive")
    if not math.isfinite((1 + (1 + cfg.alpha**2) * cfg.p) * (1 + cfg.alpha**2)):  # the weighted outer cap's argument
        raise ValueError(f"p is too large: (1 + (1 + alpha^2) p)(1 + alpha^2) overflows at p={cfg.p!r}")
    if cfg.pi < 0:
        raise ValueError("pi must be nonnegative")
    _check_d_max(cfg.d_max)
    if cfg.k != ASYMPTOTIC_K:
        _check_real("k", cfg.k)
        if cfg.k != int(cfg.k):
            raise ValueError("k must be an integer or ASYMPTOTIC_K")
        if cfg.k < 2:
            raise ValueError("k must be at least 2")
    return cfg


class MuxPair(Record):
    """A (fast, slow) multiplexing-gain pair, dimensionless prelogs in [0, 1]."""

    s_fast: float
    s_slow: float

    def __post_init__(self) -> None:
        if not (0 <= self.s_fast <= 1 and 0 <= self.s_slow <= 1):
            raise ValueError("prelogs must lie in [0, 1]")


class Region(Record):
    """A 2-D rate or prelog region.

    kind "polygon": closed convex polygon, vertices counterclockwise starting
    at the lexicographically smallest vertex (the origin for the regions in
    scope).  kind "polyline": the upper-right boundary of a swept region,
    x strictly increasing and y nonincreasing; the region is everything in the
    first quadrant on or below the polyline.  A degenerate polygon is the
    single point of its one vertex.
    """

    vertices: tuple[tuple[float, float], ...]
    kind: str = "polygon"
    degenerate: bool = False

    def __post_init__(self) -> None:
        if self.kind not in ("polygon", "polyline"):
            raise ValueError(f"unknown region kind {self.kind!r}")


def _values(col: np.ndarray) -> list:
    """The cells of a column as Python scalars; a masked (np.ma) cell reads as ""."""
    return np.ma.filled(col.astype(object), "").tolist() if np.ma.is_masked(col) else col.tolist()


class Columns(Sequence):
    """Records of one type held as numpy columns, one per field, in field order.

    ``len`` is free; records are built only when indexed or iterated, from
    Python scalars, so they compare and print like records built one by one.
    A column may be a masked array, whose masked cells read as "".  The
    record is any callable of one row's cells, in column order.
    """

    def __init__(self, record, cols: dict[str, np.ndarray]):
        self.record = record
        self.cols = cols

    def __len__(self) -> int:
        return len(next(iter(self.cols.values())))

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self[j] for j in range(len(self))[i]]
        return self.record(*(_values(c[[i]])[0] for c in self.cols.values()))

    def __iter__(self):
        return map(self.record, *map(_values, self.cols.values()))

    def __eq__(self, other):
        if isinstance(other, Columns) and self.record is other.record:
            return self.cols.keys() == other.cols.keys() and all(
                np.array_equal(c, other.cols[n]) for n, c in self.cols.items())
        if isinstance(other, (Columns, tuple, list)):  # another record maker: compare records
            return list(self) == list(other)
        return NotImplemented

    def __repr__(self) -> str:
        return f"Columns({getattr(self.record, '__name__', 'tuple')}, {len(self)} records)"


def _two_cut_polygon(s, w) -> Region:
    """The first quadrant cut by x + y <= s and 2x + y <= w, counterclockwise
    from the origin, as floats.

    w >= 2s gives the sum-only triangle, w <= s the weighted-only one, and
    in between the cuts cross at the vertex (w - s, 2s - w); a crossing
    within VERTEX_TOL * max(1, s, w) of an axis merges into the intercept
    there, so that its printed x or y never repeats the intercept's.  Only
    +, -, * and / touch s and w, so Fractions give exact vertices.  A cap at
    or below VERTEX_TOL leaves the origin alone (degenerate).
    """
    if min(s, w) <= VERTEX_TOL:
        return Region(vertices=((0.0, 0.0),), degenerate=True)
    corner = (w - s, 2 * s - w)
    inner = (corner,) if min(corner) > VERTEX_TOL * max(1, s, w) else ()
    verts = ((0, 0), (min(s, w / 2), 0), *inner, (0, min(s, w)))
    return Region(vertices=tuple((float(x), float(y)) for x, y in verts))


def _polyline_ymax(region: Region, x):
    """Upper boundary value of a polyline region at abscissa x, a float or an
    array (nan outside the x range): on the first segment that ends at or
    right of x, or else at the last vertex, y0 + t (y1 - y0) with t clamped
    to [0, 1], or max(y0, y1) if it is vertical (a lone vertex is one)."""
    v = np.array(region.vertices, dtype=float).reshape(-1, 2)
    xa = np.asarray(x, dtype=float)
    seg = np.concatenate([v, v]) if len(v) == 1 else v
    k = np.searchsorted(seg[1:, 0], np.fmin(xa, seg[-1, 0]))  # fmin takes a nan x to the last vertex
    (x0, y0), (x1, y1) = seg[k].T, seg[k + 1].T
    vertical = x1 == x0
    t = (xa - x0) / np.where(vertical, 1.0, x1 - x0)
    t = np.where(0.0 > t, 0.0, np.where(1.0 < t, 1.0, t))
    y = np.where(vertical, np.where(y1 > y0, y1, y0), y0 + t * (y1 - y0))
    y = np.where((xa < v[0, 0] - VERTEX_TOL) | (xa > v[-1, 0] + VERTEX_TOL), np.nan, y)
    return y if np.ndim(x) else float(y)


def region_contains(region: Region, point: tuple[float, float], tol: float = 0.0) -> bool:
    """True iff the point lies in the region inflated by tol in each half-plane."""
    x, y = point
    v = region.vertices
    if region.kind == "polyline":
        ymax = _polyline_ymax(region, min(max(x, v[0][0]), v[-1][0]))
        return -tol <= x <= v[-1][0] + tol and -tol <= y <= ymax + tol

    if region.degenerate:
        return math.hypot(x - v[0][0], y - v[0][1]) <= tol

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
