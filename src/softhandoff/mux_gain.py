"""Exact multiplexing-gain polygons, their corner points, and the
time-sharing construction.

All three conferencing modes share the constraint 2*s_fast + s_slow <= 1;
they differ only in the sum cap

    bidirectional rx / tx conferencing:  min(1/2 + mu,   (2D+1)/(2D+2))
    unidirectional rx conferencing:      min(1/2 + mu/2, (D+1)/(D+2))

Vertices are computed in exact rational arithmetic (every float is a dyadic
rational) and converted to floats at the end, so acceptance-level equalities
like (1/22, 20/22) hold to machine precision.
"""
from __future__ import annotations

from fractions import Fraction

from .model import MuxPair, Record, Region, _check_d_max, _check_real, _two_cut_polygon

__all__ = ["MuxRegionSpec", "mux_region", "corner_points", "timeshare_point", "mu_max"]

_MODES = ("rx_bidirectional", "rx_unidirectional", "tx_conferencing")


class MuxRegionSpec(Record):
    """Which conferencing mode, at which prelog and round budget."""

    mode: str
    mu: float
    d_max: int

    def __post_init__(self) -> None:
        if self.mode not in _MODES:
            raise ValueError(f"mode must be one of {_MODES}")
        _check_real("mu", self.mu)
        if self.mu < 0:
            raise ValueError("mu must be nonnegative")
        _check_d_max(self.d_max)


def _sum_cap(spec: MuxRegionSpec) -> Fraction:
    mu = Fraction(spec.mu)
    d = spec.d_max
    if spec.mode == "rx_unidirectional":
        return min(Fraction(1, 2) + mu / 2, Fraction(d + 1, d + 2))
    return min(Fraction(1, 2) + mu, Fraction(2 * d + 1, 2 * d + 2))


def mux_region(spec: MuxRegionSpec) -> Region:
    """The polygon {2x + y <= 1, x + y <= sum cap} in the first quadrant."""
    return _two_cut_polygon(_sum_cap(spec), Fraction(1))


def mu_max(d_max: int) -> float:
    """Largest conferencing prelog the silencing schedule ever uses."""
    return float(Fraction(d_max, 2 * d_max + 2))


def corner_points(d_max: int, mu: float) -> list[MuxPair]:
    """The three achievable corner points behind the region's time-sharing proof:
    fast-only, slow-only, and the silencing-schedule point."""
    d = d_max
    slow_only = _sum_cap(MuxRegionSpec("rx_bidirectional", mu, d))
    return [
        MuxPair(0.5, 0.0),
        MuxPair(0.0, float(slow_only)),
        MuxPair(float(Fraction(1, 2 * d + 2)), float(Fraction(2 * d, 2 * d + 2))),
    ]


def timeshare_point(mu: float, d_max: int) -> tuple[MuxPair, float]:
    """Time share the silencing-schedule corner with the fast-only corner.

    Returns the achieved pair (1/2 - mu, 2*mu) together with the weight beta
    placed on the silencing schedule.  Only defined for mu <= mu_max.
    """
    mu_f = Fraction(mu)
    cap = Fraction(d_max, 2 * d_max + 2)
    if mu_f > cap:
        if mu_f - cap > Fraction(1, 10**12):
            raise ValueError("beyond time-sharing range")
        mu_f = cap  # float rounding dust at the saturation point
    beta = mu_f / cap
    point = MuxPair(float(Fraction(1, 2) - mu_f), float(2 * mu_f))
    return point, float(beta)
