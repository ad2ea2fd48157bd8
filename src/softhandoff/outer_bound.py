"""Capacity outer bound: two half-planes on (R_fast, R_slow).

The sum bound caps R_fast + R_slow and the weighted bound caps
2*R_fast + R_slow; both come with K-dependent floor/ceiling coefficients
whose K -> infinity limits are hard-coded exactly.
"""
from __future__ import annotations

import math

from .model import (
    ASYMPTOTIC_K,
    NetworkConfig,
    Record,
    Region,
    _two_cut_polygon,
    validate_config,
)

__all__ = ["OuterBoundValues", "outer_constraints", "outer_region"]


class OuterBoundValues(Record):
    """Right-hand sides of the two outer half-planes, in bits."""

    sum_cap: float        # bound on R_fast + R_slow
    weighted_cap: float   # bound on 2*R_fast + R_slow


def outer_constraints(cfg: NetworkConfig) -> OuterBoundValues:
    """Evaluate both bound values for finite K or the K=inf limit."""
    validate_config(cfg)
    p, a, pi = cfg.p, cfg.alpha, cfg.pi
    a2 = a * a
    per_pair = 0.5 * math.log2(1 + (1 + a2) * p)
    gain_gap = max(-math.log2(abs(a)), 0.0)
    leak = 0.5 * math.log2(1 + a2)
    single = math.log2(1 + p)

    if cfg.k == ASYMPTOTIC_K:
        c_pair, c_gap, c_leak, c_pi = 0.5, 0.5, 0.5, 1.0
        w_half, w_single = 0.5, 0.0
    else:
        k = int(cfg.k)
        c_pair = (math.ceil((k - 1) / 2) + 1) / k
        c_gap = math.floor((k - 1) / 2) / k
        c_leak = math.floor(k / 2) / k
        c_pi = (k - 1) / k
        w_half = (k - 1) / (2 * k)
        w_single = 1 / k

    sum_cap = c_pair * per_pair + c_gap * gain_gap + c_leak * leak + c_pi * pi
    weighted_cap = w_half * (
        0.5 * math.log2((1 + (1 + a2) * p) * (1 + a2)) + 2 * gain_gap
    ) + w_single * single
    return OuterBoundValues(sum_cap=sum_cap, weighted_cap=weighted_cap)


def outer_region(cfg: NetworkConfig) -> Region:
    """Polygon: first quadrant cut by the sum and weighted half-planes."""
    vals = outer_constraints(cfg)
    return _two_cut_polygon(vals.sum_cap, vals.weighted_cap)
