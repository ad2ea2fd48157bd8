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

Every rate term of both schemes is I(own layers j+1..k; Y, neighbour layers
1..m | own layers 1..j) for one triple (j, k, m) of layer depths.  The layer
tables SCHEME1_LAYERS and scheme2_layers name each term's triple; the index
groups of the determinant path and the one closed form of the vectorised
region sweep, cf_term, are both read off it.
"""
from __future__ import annotations

import itertools
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
    "SCHEME1_LAYERS",
    "scheme2_layers",
    "scheme1_term_groups",
    "scheme2_term_groups",
    "scheme1_terms",
    "scheme2_terms",
]

_LN2 = math.log(2.0)

#: Variance below which a layer counts as deterministic and is removed by
#: dimension reduction (never regularised by noise injection).
_VAR_EPS = 1e-12


def _added_in_turn(values) -> float:
    """values[0] + values[1] + ... added left to right: Python 3.12's sum compensates for rounding."""
    total = 0.0
    for v in values:
        total += v
    return total


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
        if any(not b >= 0 for b in fr):  # catches NaN too
            raise ValueError("layer fractions must be nonnegative numbers")
        if _added_in_turn(fr) > 1 + 1e-12:
            raise ValueError("layer fractions must sum to at most 1")

    @property
    def num_layers(self) -> int:
        return len(self.fractions)

    def cumulative(self) -> tuple[float, ...]:
        """B_j = beta_1 + ... + beta_j."""
        return tuple(itertools.accumulate(self.fractions, initial=0.0))[1:]


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
    z, y = 2 * L, 2 * L + 1
    cov = np.zeros((y + 1, y + 1))
    for i, b in enumerate(alloc.fractions):
        cov[i, i] = cov[L + i, L + i] = cov[i, y] = cov[y, i] = b * p
        cov[L + i, y] = cov[y, L + i] = a * b * p
    cov[z, z] = cov[z, y] = cov[y, z] = 1.0
    cov[y, y] = _added_in_turn(alloc.fractions) * p * (1 + a * a) + 1.0
    return JointGaussianSpec(cov=cov, num_layers=L)


def _reduced_groups(spec: JointGaussianSpec, group_a, group_b, cond) -> list[list[int]]:
    """A, B and C sorted, without their deterministic (zero-variance)
    variables; ValueError unless the three are pairwise disjoint."""
    a, b, c = set(group_a), set(group_b), set(cond)
    if a & c or b & c or a & b:
        raise ValueError("index groups must be pairwise disjoint")
    scale = max(1.0, float(np.max(np.diag(spec.cov))))
    return [sorted(i for i in g if spec.cov[i, i] > _VAR_EPS * scale) for g in (a, b, c)]


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
    a, b, c = _reduced_groups(spec, group_a, group_b, cond)
    if not a or not b:
        return 0.0
    cov = spec.cov
    abc = sorted(a + b) + c
    logdet_abc = _logdet(cov, abc)
    # slogdet's sign misses a singular covariance whose determinant comes out
    # positive at rounding level (Z = X + Y).  det / prod(diag) is the product
    # of the relative Cholesky pivots, so at most the smallest, and by
    # Fischer's inequality at most that of any of the other three sets.
    if logdet_abc - np.log(cov.diagonal()[abc]).sum() <= math.log(_VAR_EPS):
        raise np.linalg.LinAlgError("singular covariance submatrix that dimension reduction cannot fix")
    val = (
        _logdet(cov, a + c)
        + _logdet(cov, b + c)
        - _logdet(cov, c)
        - logdet_abc
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
    identity.  Deterministic for a fixed seed.  Raises LinAlgError when the
    covariance of A, B and C is singular (e.g. a variable of A is a linear
    function of B and C, so the true value is infinite).
    """
    if samples < 10_000:
        raise ValueError("need at least 1e4 samples")
    a, b, c = _reduced_groups(spec, group_a, group_b, cond)
    if not a or not b:
        return 0.0

    idx = a + b + c
    pos = {g: i for i, g in enumerate(idx)}
    sub = spec.cov[np.ix_(idx, idx)]
    try:
        chol = np.linalg.cholesky(sub)
    except np.linalg.LinAlgError:
        chol = None
    # A linear dependency among A, B and C makes Cholesky fail or, in another
    # variable order, leaves a pivot at rounding level; the empirical
    # conditional covariances are then singular too and the estimate would be
    # rounding noise.
    if chol is None or np.min(np.diag(chol) ** 2 / np.diag(sub)) <= _VAR_EPS:
        raise np.linalg.LinAlgError("singular covariance of A, B and C: the term cannot be estimated")

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
        return self.i_u_y + _added_in_turn(self.chain)


#: The (j, k, m) triple of each 3-layer scheme term.  The slow terms
#: condition on the depth-1 auxiliary as printed, or on the depth-2 level.
SCHEME1_LAYERS = {
    "i_u2_y": (0, 2, 0),
    "i_u2_y_given_u1": (1, 2, 0),
    "i_x_slow_given_u1": (1, 3, 1),
    "i_x_slow_given_u2": (2, 3, 1),
}


def scheme2_layers(d_max: int) -> dict[str, tuple[int, int, int]]:
    """The (j, k, m) triple of each (d_max+1)-layer scheme term, keyed i_u_y,
    chain_1..chain_{d_max-1}, i_final, i_final_corrected: round d adds layer
    d+1 with the neighbour's depth-d level known, and the final term the top
    layer with the neighbour's full input (printed) or its conferenced
    levels (corrected) known."""
    return {
        "i_u_y": (0, 1, 0),
        **{f"chain_{d}": (d, d + 1, d) for d in range(1, d_max)},
        "i_final": (d_max, d_max + 1, d_max + 1),
        "i_final_corrected": (d_max, d_max + 1, d_max),
    }


def _term_groups(spec: JointGaussianSpec, layers: dict) -> dict[str, tuple[list[int], list[int], list[int]]]:
    """Index groups (A, B, C) of each term (j, k, m): own layers j+1..k, then
    Y and neighbour layers 1..m, then own layers 1..j.  Auxiliaries are
    cumulative layer sums, so conditioning on a depth means conditioning on
    its layers, and the new information is the layer difference."""
    return {
        name: (list(range(j, k)), [spec.idx_y] + [spec.idx_nb(i) for i in range(1, m + 1)], list(range(j)))
        for name, (j, k, m) in layers.items()
    }


def scheme1_term_groups(spec: JointGaussianSpec) -> dict[str, tuple[list[int], list[int], list[int]]]:
    """Index groups (A, B, C) of each 3-layer scheme term."""
    return _term_groups(spec, SCHEME1_LAYERS)


def scheme2_term_groups(spec: JointGaussianSpec, d_max: int) -> dict[str, tuple[list[int], list[int], list[int]]]:
    """Index groups of the (d_max+1)-layer scheme terms, keyed as scheme2_layers."""
    return _term_groups(spec, scheme2_layers(d_max))


def scheme1_terms(alloc: PowerAllocation, cfg: NetworkConfig) -> SchemeOneTerms:
    """Evaluate the four 3-layer scheme terms via the log-determinant path."""
    if alloc.num_layers != 3:
        raise ValueError("scheme 1 uses exactly 3 layers")
    spec = layered_covariance(alloc, cfg)
    return SchemeOneTerms(**{name: gaussian_mi(spec, *g) for name, g in scheme1_term_groups(spec).items()})


def scheme2_terms(alloc: PowerAllocation, cfg: NetworkConfig) -> SchemeTwoTerms:
    """Evaluate the (d_max+1)-layer scheme terms via the log-determinant path.

    Cumulative layering: first-layer auxiliary = layer 1, depth-d auxiliary =
    layers 1..d+1, input = all layers.  chain[d-1] is the MI unlocked in
    conferencing round d, with the neighbour's previously decoded level as
    side information.
    """
    if alloc.num_layers != cfg.d_max + 1:
        raise ValueError(f"scheme 2 with d_max={cfg.d_max} needs {cfg.d_max + 1} layers")
    spec = layered_covariance(alloc, cfg)
    t = {name: gaussian_mi(spec, *g) for name, g in scheme2_term_groups(spec, cfg.d_max).items()}
    i_u_y, i_final, i_final_corrected = t.pop("i_u_y"), t.pop("i_final"), t.pop("i_final_corrected")
    return SchemeTwoTerms(i_u_y=i_u_y, chain=tuple(t.values()), i_final=i_final, i_final_corrected=i_final_corrected)


# ---------------------------------------------------------------------------
# Closed form (cumulative-layer algebra; cross-checked against the
# determinant path to 1e-9 by the test suite)
# ---------------------------------------------------------------------------

def cf_term(b_j, b_k, b_m, b_total, p, alpha):
    """The term (j, k, m) at the cumulative powers B_j <= B_k <= B_total and
    B_m of its depths: I(own layers j+1..k; Y, neighbour layers 1..m | own
    layers 1..j).

    Knowing own layers 1..j and neighbour layers 1..m leaves Y the variance
    1 + (T - B_j) P + a^2 (T - B_m) P, and own layers up to k take out
    (B_k - B_j) P more.  The numerator is written as (T - B_j) P (1 + a^2)
    less a^2 (B_m - B_j) P, so a term with m = j (every round, both fast
    caps, the corrected final term) loses no bits to the second part.
    """
    a2 = alpha * alpha
    num = 1 + (b_total - b_j) * p * (1 + a2) - a2 * (b_m - b_j) * p
    den = 1 + (b_total - b_k) * p + a2 * (b_total - b_m) * p
    return 0.5 * np.log2(num / den)
