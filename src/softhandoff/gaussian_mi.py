"""Joint Gaussian structure of layered superposition inputs and every
mutual-information term the achievability analysis needs.

The channel is Y = X + alpha*X' + Z with unit noise, where X is the sum of
independent zero-mean Gaussian layers W_1..W_L of powers beta_i * P and the
interfering neighbour X' uses the same allocation.  Auxiliaries are the
cumulative sums of layers (depth-j auxiliary = W_1 + ... + W_j), so every MI
term reduces to index groups over the base variables

    [W_1..W_L, W'_1..W'_L, Z, Y]

and evaluates in closed form from log-determinants.  A Monte-Carlo estimator
built on empirical second moments and Schur-complement conditional entropies
serves as an independent oracle for the determinant path.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import NetworkConfig

__all__ = [
    "PowerAllocation",
    "JointGaussianSpec",
    "SchemeOneTerms",
    "SchemeTwoTerms",
    "layered_covariance",
    "gaussian_mi",
    "mc_mutual_information",
    "scheme1_term_groups",
    "scheme2_term_groups",
    "scheme1_terms",
    "scheme2_terms",
]

_LN2 = math.log(2.0)

#: Variance below which a layer counts as deterministic and is removed by
#: dimension reduction (never regularised by noise injection).
_VAR_EPS = 1e-12


@dataclass(frozen=True)
class PowerAllocation:
    """Per-layer power fractions beta_1..beta_L, each >= 0, sum <= 1.

    Layer i carries independent Gaussian power beta_i * P; the depth-j
    auxiliary is the sum of layers 1..j and the channel input is the sum of
    all L layers.  The interfering neighbour uses the identical allocation.
    """

    fractions: tuple[float, ...]

    def __post_init__(self) -> None:
        fr = tuple(float(b) for b in self.fractions)
        object.__setattr__(self, "fractions", fr)
        if not fr:
            raise ValueError("allocation needs at least one layer")
        if any(b < 0 for b in fr):
            raise ValueError("layer fractions must be nonnegative")
        if sum(fr) > 1 + 1e-12:
            raise ValueError("layer fractions must sum to at most 1")

    @property
    def num_layers(self) -> int:
        return len(self.fractions)

    def cumulative(self) -> tuple[float, ...]:
        """B_j = beta_1 + ... + beta_j."""
        out, acc = [], 0.0
        for b in self.fractions:
            acc += b
            out.append(acc)
        return tuple(out)


@dataclass(frozen=True, eq=False)
class JointGaussianSpec:
    """Covariance of [own layers, neighbour layers, Z, Y]."""

    cov: np.ndarray
    num_layers: int

    def idx_nb(self, layer: int) -> int:
        """Index of the neighbour's layer (1-based)."""
        return self.num_layers + layer - 1

    @property
    def idx_z(self) -> int:
        return 2 * self.num_layers

    @property
    def idx_y(self) -> int:
        return 2 * self.num_layers + 1


def layered_covariance(alloc: PowerAllocation, cfg: NetworkConfig) -> JointGaussianSpec:
    """Assemble the joint covariance of the 2L+2 scalar variables.

    Var(W_i) = beta_i*P, Var(Z) = 1, Y = sum(W) + alpha*sum(W') + Z, own and
    neighbour layers mutually independent.
    """
    L = alloc.num_layers
    p, a = cfg.p, cfg.alpha
    n = 2 * L + 2
    cov = np.zeros((n, n))
    for i, b in enumerate(alloc.fractions):
        cov[i, i] = b * p
        cov[L + i, L + i] = b * p
    z, y = 2 * L, 2 * L + 1
    cov[z, z] = 1.0
    total = sum(alloc.fractions) * p
    for i, b in enumerate(alloc.fractions):
        cov[i, y] = cov[y, i] = b * p
        cov[L + i, y] = cov[y, L + i] = a * b * p
    cov[z, y] = cov[y, z] = 1.0
    cov[y, y] = total * (1 + a * a) + 1.0
    return JointGaussianSpec(cov=cov, num_layers=L)


def _reduce(spec: JointGaussianSpec, group) -> list[int]:
    """Drop deterministic (zero-variance) variables from an index group."""
    scale = max(1.0, float(np.max(np.diag(spec.cov))))
    return [i for i in group if spec.cov[i, i] > _VAR_EPS * scale]


def _logdet(cov: np.ndarray, idx: list[int]) -> float:
    if not idx:
        return 0.0
    sub = cov[np.ix_(idx, idx)]
    sign, val = np.linalg.slogdet(sub)
    if sign <= 0:
        raise np.linalg.LinAlgError(
            "singular covariance submatrix that dimension reduction cannot fix"
        )
    return float(val)


def gaussian_mi(spec: JointGaussianSpec, group_a, group_b, cond=()) -> float:
    """Conditional mutual information I(A; B | C) in bits.

    A, B, C are index sets into the spec's variables; A and B must each be
    disjoint from C and from each other.  Computed as

        0.5 * log2( det S_{AC} det S_{BC} / (det S_C det S_{ABC}) )

    after removing deterministic variables.  Result is clamped to >= 0.
    """
    a, b, c = set(group_a), set(group_b), set(cond)
    if a & c or b & c or a & b:
        raise ValueError("index groups must be pairwise disjoint")
    a = sorted(_reduce(spec, a))
    b = sorted(_reduce(spec, b))
    c = sorted(_reduce(spec, c))
    if not a or not b:
        return 0.0
    cov = spec.cov
    val = (
        _logdet(cov, a + c)
        + _logdet(cov, b + c)
        - _logdet(cov, c)
        - _logdet(cov, sorted(a + b) + c)
    ) / (2 * _LN2)
    if val < -1e-6:
        raise ArithmeticError(f"determinant identity produced {val} < 0")
    return max(0.0, val)


def _scatter_moments(chol: np.ndarray, samples: int, rng: np.random.Generator) -> np.ndarray:
    """X^T X / n for n = samples rows X = Z chol^T, Z standard normal, in O(d^2).

    Z^T Z ~ Wishart(I, n) whatever the rank of chol, and is drawn as T T^T
    (Bartlett decomposition, Odell & Feiveson, JASA 61, 1966): T is lower
    triangular, T[i,i]^2 ~ chi2(n - i) and T[i,j] ~ N(0,1) below the diagonal.
    """
    d = chol.shape[0]
    t = np.diag(np.sqrt(rng.chisquare(samples - np.arange(d))))
    t[np.tril_indices(d, -1)] = rng.standard_normal(d * (d - 1) // 2)
    s = chol @ t
    return s @ s.T / samples


def mc_mutual_information(
    spec: JointGaussianSpec,
    group_a,
    group_b,
    cond=(),
    samples: int = 1_000_000,
    seed: int = 0,
) -> float:
    """Monte-Carlo estimate of I(A; B | C) in bits, the oracle for gaussian_mi.

    Draws the empirical second moments of `samples` Gaussian vectors with the
    spec covariance as one Wishart matrix, without the vectors, and evaluates
    h(A|C) - h(A|B,C) through Schur-complement conditional covariances of the
    *empirical* moments.  This shares no algebra with the four-determinant
    identity.  Deterministic for a fixed seed.
    """
    if samples < 10_000:
        raise ValueError("need at least 1e4 samples")
    a, b, c = set(group_a), set(group_b), set(cond)
    if a & c or b & c or a & b:
        raise ValueError("index groups must be pairwise disjoint")
    a = sorted(_reduce(spec, a))
    b = sorted(_reduce(spec, b))
    c = sorted(_reduce(spec, c))
    if not a or not b:
        return 0.0

    idx = a + b + c
    pos = {g: i for i, g in enumerate(idx)}
    sub = spec.cov[np.ix_(idx, idx)]
    try:
        chol = np.linalg.cholesky(sub)
    except np.linalg.LinAlgError:
        # PSD but rank deficient: sample through the eigenbasis instead.
        w, v = np.linalg.eigh(sub)
        w = np.clip(w, 0.0, None)
        chol = v * np.sqrt(w)

    emp = _scatter_moments(chol, samples, np.random.default_rng(seed))

    ia = [pos[g] for g in a]
    ib = [pos[g] for g in b]
    ic = [pos[g] for g in c]

    def cond_logdet(top: list[int], given: list[int]) -> float:
        t = emp[np.ix_(top, top)]
        if given:
            g = emp[np.ix_(given, given)]
            x = emp[np.ix_(top, given)]
            t = t - x @ np.linalg.solve(g, x.T)
        sign, val = np.linalg.slogdet(t)
        if sign <= 0:
            raise np.linalg.LinAlgError("empirical conditional covariance not PD")
        return float(val)

    return (cond_logdet(ia, ic) - cond_logdet(ia, ib + ic)) / (2 * _LN2)


# ---------------------------------------------------------------------------
# Rate terms of the two superposition schemes
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SchemeOneTerms:
    """MI values for the 3-layer scheme.

    i_x_slow_given_u1 is the slow-rate term exactly as the analysis prints it
    (conditioning on the depth-1 auxiliary); i_x_slow_given_u2 is the variant
    conditioning on the full decoded depth-2 level, which avoids counting the
    layer-2 information twice.  Both are exposed; see eval_scheme1's flag.
    """

    i_u2_y: float
    i_u2_y_given_u1: float
    i_x_slow_given_u1: float
    i_x_slow_given_u2: float


@dataclass(frozen=True)
class SchemeTwoTerms:
    """MI values for the (d_max+1)-layer scheme: first-layer rate, the
    per-round chain terms, and the final term.

    i_final conditions on the neighbour's full input, exactly as the analysis
    prints it.  The decoder only ever learns the neighbour's conferenced
    levels (one below the top), so i_final_corrected uses that side
    information instead; the printed form is optimistic at strong cross
    gains.  Both are exposed, mirroring the 3-layer scheme's slow-term pair.
    """

    i_u_y: float
    chain: tuple[float, ...]
    i_final: float
    i_final_corrected: float

    @property
    def conf_load(self) -> float:
        return self.i_u_y + sum(self.chain)

    @property
    def total(self) -> float:
        return self.conf_load + self.i_final


def scheme1_term_groups(spec: JointGaussianSpec) -> dict[str, tuple[list[int], list[int], list[int]]]:
    """Index groups (A, B, C) of each 3-layer scheme term.

    Auxiliaries are cumulative layer sums, so conditioning on a depth means
    conditioning on its layers and the "new information" group is the layer
    difference; the information content is identical either way.
    """
    y = spec.idx_y
    w1p = spec.idx_nb(1)
    return {
        "i_u2_y": ([0, 1], [y], []),
        "i_u2_y_given_u1": ([1], [y], [0]),
        "i_x_slow_given_u1": ([1, 2], [y, w1p], [0]),
        "i_x_slow_given_u2": ([2], [y, w1p], [0, 1]),
    }


def scheme2_term_groups(spec: JointGaussianSpec, d_max: int) -> dict[str, tuple[list[int], list[int], list[int]]]:
    """Index groups of the (d_max+1)-layer scheme terms, keyed i_u_y,
    chain_1..chain_{d_max-1}, i_final, i_final_corrected."""
    y = spec.idx_y
    L = spec.num_layers
    groups: dict[str, tuple[list[int], list[int], list[int]]] = {"i_u_y": ([0], [y], [])}
    for d in range(1, d_max):
        nb_known = [spec.idx_nb(j) for j in range(1, d + 1)]
        groups[f"chain_{d}"] = ([d], [y] + nb_known, list(range(d)))
    nb_all = [spec.idx_nb(j) for j in range(1, L + 1)]
    groups["i_final"] = ([L - 1], [y] + nb_all, list(range(L - 1)))
    groups["i_final_corrected"] = ([L - 1], [y] + nb_all[:-1], list(range(L - 1)))
    return groups


def scheme1_terms(alloc: PowerAllocation, cfg: NetworkConfig) -> SchemeOneTerms:
    """Evaluate the four 3-layer scheme terms via the log-determinant path."""
    if alloc.num_layers != 3:
        raise ValueError("scheme 1 uses exactly 3 layers")
    spec = layered_covariance(alloc, cfg)
    g = scheme1_term_groups(spec)
    return SchemeOneTerms(
        i_u2_y=gaussian_mi(spec, *g["i_u2_y"]),
        i_u2_y_given_u1=gaussian_mi(spec, *g["i_u2_y_given_u1"]),
        i_x_slow_given_u1=gaussian_mi(spec, *g["i_x_slow_given_u1"]),
        i_x_slow_given_u2=gaussian_mi(spec, *g["i_x_slow_given_u2"]),
    )


def scheme2_terms(alloc: PowerAllocation, cfg: NetworkConfig) -> SchemeTwoTerms:
    """Evaluate the (d_max+1)-layer scheme terms via the log-determinant path.

    Cumulative layering: first-layer auxiliary = layer 1, depth-d auxiliary =
    layers 1..d+1, input = all layers.  chain[d-1] is the MI unlocked in
    conferencing round d, with the neighbour's previously decoded level as
    side information.
    """
    L = alloc.num_layers
    if L != cfg.d_max + 1:
        raise ValueError(f"scheme 2 with d_max={cfg.d_max} needs {cfg.d_max + 1} layers")
    spec = layered_covariance(alloc, cfg)
    groups = scheme2_term_groups(spec, cfg.d_max)
    i_u_y = gaussian_mi(spec, *groups["i_u_y"])
    chain = tuple(
        gaussian_mi(spec, *groups[f"chain_{d}"]) for d in range(1, cfg.d_max)
    )
    return SchemeTwoTerms(
        i_u_y=i_u_y,
        chain=chain,
        i_final=gaussian_mi(spec, *groups["i_final"]),
        i_final_corrected=gaussian_mi(spec, *groups["i_final_corrected"]),
    )


# ---------------------------------------------------------------------------
# Closed forms (cumulative-layer algebra; cross-checked against the
# determinant path to 1e-9 by the test suite)
# ---------------------------------------------------------------------------

def cf_cum_vs_y(b_level, b_total, p, alpha):
    """I(depth auxiliary; Y) for cumulative power b_level out of b_total."""
    a2 = alpha * alpha
    num = 1 + b_total * p * (1 + a2)
    den = 1 + (b_total - b_level) * p + a2 * b_total * p
    return 0.5 * np.log2(num / den)


def cf_cum_vs_y_cond(b_low, b_high, b_total, p, alpha):
    """I(depth-high auxiliary; Y | depth-low auxiliary)."""
    a2 = alpha * alpha
    num = 1 + (b_total - b_low) * p + a2 * b_total * p
    den = 1 + (b_total - b_high) * p + a2 * b_total * p
    return 0.5 * np.log2(num / den)


def cf_scheme1_slow(b_cond, b1, b_total, p, alpha):
    """Slow-rate term I(X; Y, U1' | conditioning level).

    b_cond is the own-side conditioning depth (B_1 as printed, B_2 for the
    corrected variant); the neighbour's depth-1 layer of power b1 is side
    information either way.
    """
    a2 = alpha * alpha
    num = 1 + (b_total - b_cond) * p + a2 * (b_total - b1) * p
    den = 1 + a2 * (b_total - b1) * p
    return 0.5 * np.log2(num / den)


def cf_chain_term(b_low, b_high, b_total, p, alpha):
    """Round term I(V_d; Y, V'_{d-1} | V_{d-1}) between cumulative depths.

    The neighbour is cancelled up to depth b_low; the new own layer spans
    (b_low, b_high].  b_low = 0 recovers I(U; Y) of the first layer (zero
    depth of side information cancels nothing, so the formula coincides).
    """
    a2 = alpha * alpha
    num = 1 + (b_total - b_low) * p * (1 + a2)
    den = 1 + (b_total - b_high) * p + a2 * (b_total - b_low) * p
    return 0.5 * np.log2(num / den)


def cf_final_term(b_last, b_total, p):
    """I(X; Y, X' | top chain level): interference fully cancelled."""
    return 0.5 * np.log2(1 + (b_total - b_last) * p)


def cf_final_term_corrected(b_last, b_total, p, alpha):
    """I(X; Y, V'_{top-1} | top chain level): the neighbour's own top layer
    stays as residual interference (decode-consistent side information)."""
    a2 = alpha * alpha
    num = 1 + (b_total - b_last) * p * (1 + a2)
    den = 1 + a2 * (b_total - b_last) * p
    return 0.5 * np.log2(num / den)
