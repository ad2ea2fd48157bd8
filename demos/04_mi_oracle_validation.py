#!/usr/bin/env python3
# Three independent routes to every rate term: the log-determinant identity,
# cumulative-layer closed forms, and a Monte-Carlo estimate from the sampled
# second moments of n channel vectors (one Wishart draw, not n vectors).
# They must agree or something is broken.
import numpy as np

from softhandoff import (
    NetworkConfig,
    PowerAllocation,
    gaussian_mi,
    layered_covariance,
    mc_mutual_information,
    scheme1_terms,
    scheme2_terms,
)
from softhandoff.gaussian_mi import cf_term, scheme2_layers, scheme2_term_groups

cfg = NetworkConfig(alpha=0.2, p=5.0, d_max=2)
alloc = PowerAllocation((0.25, 0.35, 0.4))
spec = layered_covariance(alloc, cfg)

print("=== one allocation, three routes ===")
t = scheme2_terms(alloc, cfg)
B = (0.0, *alloc.cumulative())  # B[j]: the cumulative power of depth j
groups = scheme2_term_groups(spec, cfg.d_max)
# each term (j, k, m) is I(own layers j+1..k; Y, neighbour layers 1..m | own layers 1..j)
closed = {
    name: float(cf_term(B[j], B[k], B[m], B[-1], cfg.p, cfg.alpha))
    for name, (j, k, m) in scheme2_layers(cfg.d_max).items()
}
for name in ("i_u_y", "chain_1", "i_final"):
    det = gaussian_mi(spec, *groups[name])
    mc = mc_mutual_information(spec, *groups[name], samples=400_000, seed=1)
    print(f"   {name:<8} log-det {det:.6f}   closed form {closed[name]:.6f}   MC {mc:.6f}")
print()

print("=== Monte-Carlo error decays with the sample budget ===")
name = "i_final"
det = gaussian_mi(spec, *groups[name])
for n in (10_000, 100_000, 1_000_000):
    errs = [abs(mc_mutual_information(spec, *groups[name], samples=n, seed=s) - det) for s in range(5)]
    print(f"   n={n:<9} mean |error| = {np.mean(errs):.2e}")
print()

print("=== the two slow-term variants of the 3-layer scheme ===")
s1 = scheme1_terms(alloc, NetworkConfig(alpha=0.2, p=5.0))
print(f"   as printed  I(X; Y,U1'|U1) = {s1.i_x_slow_given_u1:.6f}")
print(f"   corrected   I(X; Y,U1'|U2) = {s1.i_x_slow_given_u2:.6f}")
print("   the printed form includes the middle layer's information again,")
print("   which the fast decoding step already spent; both are exposed.")
