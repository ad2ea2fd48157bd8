import importlib
import itertools
import math

import numpy as np
import pytest

from softhandoff.gaussian_mi import (
    SCHEME1_LAYERS,
    PowerAllocation,
    cf_term,
    gaussian_mi,
    layered_covariance,
    mc_mutual_information,
    scheme1_term_groups,
    scheme1_terms,
    scheme2_layers,
    scheme2_terms,
    scheme2_term_groups,
)
from softhandoff.model import NetworkConfig

# the module, not the function of the same name the package re-exports
gmi = importlib.import_module("softhandoff.gaussian_mi")

# frozen oracle values (independent covariance assembly + Monte Carlo, see
# the acceptance suite for the full-strength cross-check)
HALF_LOG2_6 = 1.292481250360578          # 0.5*log2(1+5), interference free
I_XY = 1.1846169048328596                # 0.5*log2(6.2/1.2) at P=5, a=0.2
I_U2_Y = 0.37237147237896273             # beta=(0.2,0.3,0.5)
I_U2_Y_GIVEN_U1 = 0.24549317625607123
I_X_SLOW_U1 = 1.0766231301478408
I_X_SLOW_U2 = 0.8288594215782352
I_FINAL_D1 = 0.9036774610288021          # 0.5*log2(1+2.5)

CFG = NetworkConfig(alpha=0.2, p=5.0)

# Z = X + Y: a singular covariance of (X, Y, Z)
SIGMA_SUM = np.array([[1.0, 0.3, 1.3], [0.3, 2.0, 2.3], [1.3, 2.3, 3.6]])


class TestPowerAllocation:
    def test_cumulative(self):
        assert PowerAllocation((0.2, 0.3, 0.5)).cumulative() == (0.2, 0.5, 1.0)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            PowerAllocation((-0.1, 0.5))

    def test_rejects_nan(self):
        with pytest.raises(ValueError, match="nonnegative"):
            PowerAllocation((math.nan, 0.5))

    def test_rejects_oversubscribed(self):
        with pytest.raises(ValueError):
            PowerAllocation((0.7, 0.7))

    def test_partial_power_fine(self):
        PowerAllocation((0.1, 0.2))


class TestLayeredCovariance:
    def test_single_layer_output_variance(self):
        spec = layered_covariance(PowerAllocation((1.0,)), CFG)
        assert spec.cov[spec.idx_y, spec.idx_y] == pytest.approx(6.2, abs=1e-12)

    def test_noise_only(self):
        spec = layered_covariance(PowerAllocation((0.0,)), CFG)
        assert spec.cov[spec.idx_y, spec.idx_y] == pytest.approx(1.0, abs=1e-12)

    def test_three_layer_matrix_by_hand(self):
        alloc = PowerAllocation((0.2, 0.3, 0.5))
        spec = layered_covariance(alloc, CFG)
        p, a = 5.0, 0.2
        n = 8
        expect = np.zeros((n, n))
        for i, b in enumerate((0.2, 0.3, 0.5)):
            expect[i, i] = b * p
            expect[3 + i, 3 + i] = b * p
            expect[i, 7] = expect[7, i] = b * p
            expect[3 + i, 7] = expect[7, 3 + i] = a * b * p
        expect[6, 6] = 1.0
        expect[6, 7] = expect[7, 6] = 1.0
        expect[7, 7] = 1 + p + a * a * p
        np.testing.assert_allclose(spec.cov, expect, atol=1e-12)
        assert spec.cov[0, spec.idx_y] == pytest.approx(1.0)  # Cov(U1, Y) = b1*P

    def test_output_row_is_linear_combination(self):
        spec = layered_covariance(PowerAllocation((0.4, 0.35, 0.25)), CFG)
        L, a = 3, CFG.alpha
        own = spec.cov[:L, :].sum(axis=0)
        nb = spec.cov[L:2 * L, :].sum(axis=0)
        z = spec.cov[spec.idx_z, :]
        np.testing.assert_allclose(spec.cov[spec.idx_y, :], own + a * nb + z, atol=1e-12)

    def test_psd(self):
        spec = layered_covariance(PowerAllocation((0.3, 0.3, 0.2, 0.2)), CFG)
        assert np.linalg.eigvalsh(spec.cov).min() >= -1e-10

    def test_matches_physical_channel_sampling(self):
        # independent oracle for the assembly: simulate the channel directly
        alloc = PowerAllocation((0.2, 0.3, 0.5))
        p, a = 5.0, 0.2
        rng = np.random.default_rng(42)
        n = 400_000
        own = rng.standard_normal((n, 3)) * np.sqrt(np.array(alloc.fractions) * p)
        nb = rng.standard_normal((n, 3)) * np.sqrt(np.array(alloc.fractions) * p)
        z = rng.standard_normal((n, 1))
        y = own.sum(axis=1, keepdims=True) + a * nb.sum(axis=1, keepdims=True) + z
        data = np.hstack([own, nb, z, y])
        emp = data.T @ data / n
        spec = layered_covariance(alloc, CFG)
        np.testing.assert_allclose(emp, spec.cov, atol=0.05)


class TestSumsAddInTurn:
    """Float sums add left to right, one value at a time, on any Python: 3.12's
    builtin sum compensates for rounding, which would move their low bits."""

    def test_conf_load(self):
        terms = gmi.SchemeTwoTerms(i_u_y=0.25, chain=(1e16, 1.0, -1e16), i_final=0.0, i_final_corrected=0.0)
        assert terms.conf_load == 0.25 + 0.0  # 1e16 + 1.0 rounds to 1e16; a compensated sum gives 1.25

    def test_output_variance(self):
        fractions = (0.1, 0.2, 0.3)
        spec = layered_covariance(PowerAllocation(fractions), CFG)
        in_turn = 0.1 + 0.2 + 0.3
        assert in_turn != math.fsum(fractions)
        assert spec.cov[spec.idx_y, spec.idx_y] == in_turn * 5.0 * (1 + 0.2 * 0.2) + 1.0

    def test_oversubscription_check(self):
        # each 1e-16 is lost against 1.0, though the exact total is 1 + 2e-12
        fractions = (1.0,) + (1e-16,) * 20_000
        assert math.fsum(fractions) > 1 + 1e-12
        PowerAllocation(fractions)


class TestGaussianMI:
    def test_point_to_point_no_interference(self):
        spec = layered_covariance(PowerAllocation((1.0,)), NetworkConfig(alpha=0.0, p=5.0))
        assert gaussian_mi(spec, [0], [spec.idx_y]) == pytest.approx(HALF_LOG2_6, abs=1e-12)

    def test_interference_as_noise(self):
        spec = layered_covariance(PowerAllocation((1.0,)), CFG)
        assert gaussian_mi(spec, [0], [spec.idx_y]) == pytest.approx(I_XY, abs=1e-12)

    def test_deterministic_variable_gives_zero(self):
        spec = layered_covariance(PowerAllocation((0.0, 1.0)), NetworkConfig(alpha=0.2, p=5.0, d_max=1))
        assert gaussian_mi(spec, [0], [spec.idx_y]) == 0.0

    def test_disjointness_enforced(self):
        spec = layered_covariance(PowerAllocation((0.5, 0.5)), CFG)
        with pytest.raises(ValueError):
            gaussian_mi(spec, [0], [spec.idx_y], [0])

    def test_nonnegativity_random(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            L = int(rng.integers(1, 5))
            w = rng.dirichlet(np.ones(L)) * rng.uniform(0.2, 1.0)
            spec = layered_covariance(
                PowerAllocation(tuple(w)),
                NetworkConfig(alpha=float(rng.uniform(-0.9, 0.9)) or 0.1, p=float(10 ** rng.uniform(-1, 2))),
            )
            y = spec.idx_y
            assert gaussian_mi(spec, [0], [y]) >= 0.0
            assert gaussian_mi(spec, list(range(L)), [y]) >= 0.0


class TestMonteCarloOracle:
    def test_matches_determinant_path(self):
        spec = layered_covariance(PowerAllocation((1.0,)), CFG)
        det = gaussian_mi(spec, [0], [spec.idx_y])
        mc = mc_mutual_information(spec, [0], [spec.idx_y], samples=300_000, seed=9)
        assert mc == pytest.approx(det, abs=0.01)

    def test_zero_power_returns_zero(self):
        spec = layered_covariance(PowerAllocation((0.0,)), CFG)
        assert mc_mutual_information(spec, [0], [spec.idx_y], samples=50_000, seed=0) == 0.0

    def test_known_closed_form_no_interference(self):
        spec = layered_covariance(PowerAllocation((1.0,)), NetworkConfig(alpha=0.0, p=5.0))
        mc = mc_mutual_information(spec, [0], [spec.idx_y], samples=300_000, seed=1)
        assert mc == pytest.approx(HALF_LOG2_6, abs=0.01)

    def test_deterministic_per_seed(self):
        spec = layered_covariance(PowerAllocation((0.6, 0.4)), CFG)
        args = (spec, [0], [spec.idx_y], [1])
        a = mc_mutual_information(*args, samples=50_000, seed=12)
        b = mc_mutual_information(*args, samples=50_000, seed=12)
        c = mc_mutual_information(*args, samples=50_000, seed=13)
        assert a == b
        assert a != c

    def test_rejects_rank_deficient_term(self):
        # with Z = X + Y every I(.; . | .) over X, Y, Z is infinite; the eigh
        # fallback gave 24-26 bits or a LinAlgError depending on the seed, and
        # Cholesky fails in only one of the six variable orders
        spec = gmi.JointGaussianSpec(cov=SIGMA_SUM, num_layers=1)
        for a, b, c in itertools.permutations(range(3)):
            for seed in range(10):
                with pytest.raises(np.linalg.LinAlgError, match="singular"):
                    mc_mutual_information(spec, [a], [b], [c], samples=10_000, seed=seed)

    def test_determinant_path_rejects_rank_deficient_term(self):
        # slogdet of the singular X, Y, Z covariance comes out positive at
        # rounding level, and gaussian_mi returned 25.5-26.0 bits in every order
        spec = gmi.JointGaussianSpec(cov=SIGMA_SUM, num_layers=1)
        for a, b, c in itertools.permutations(range(3)):
            with pytest.raises(np.linalg.LinAlgError, match="singular"):
                gaussian_mi(spec, [a], [b], [c])

    def test_rejects_tiny_sample_count(self):
        spec = layered_covariance(PowerAllocation((1.0,)), CFG)
        with pytest.raises(ValueError):
            mc_mutual_information(spec, [0], [spec.idx_y], samples=100)


def _scatter_moments_by_rows(chol, samples, rng, batch=1 << 17):
    """Reference sampler: the second moments of `samples` rows drawn in batches,
    O(samples * d) where the Bartlett draw is O(d^2)."""
    d = chol.shape[0]
    moments = np.zeros((d, d))
    drawn = 0
    while drawn < samples:
        m = min(batch, samples - drawn)
        x = rng.standard_normal((m, d)) @ chol.T
        moments += x.T @ x
        drawn += m
    return moments / samples


# the chain_1 term of a 3-layer scheme-2 allocation: a full-rank 4x4 covariance
SPEC_D2 = layered_covariance(
    PowerAllocation((0.25, 0.35, 0.4)), NetworkConfig(alpha=0.2, p=5.0, d_max=2)
)
CHAIN_1 = scheme2_term_groups(SPEC_D2, 2)["chain_1"]
SIGMA_4 = SPEC_D2.cov[np.ix_(*[sum(CHAIN_1, [])] * 2)]
N_SEEDS = 2000
N_SAMPLES = 10_000


def _assert_wishart_moments(sigma, chol, samples=N_SAMPLES):
    """Each entry of the sampled moment matrix has the mean and variance of
    an entry of Wishart(sigma, n) / n, within 5 standard errors."""
    draws = np.array(
        [gmi._scatter_moments(chol, samples, np.random.default_rng(s)) for s in range(N_SEEDS)]
    )
    var = (sigma**2 + np.outer(np.diag(sigma), np.diag(sigma))) / samples
    mean_err = np.abs(draws.mean(axis=0) - sigma) / np.sqrt(var / N_SEEDS)
    centred = draws - draws.mean(axis=0)
    var_se = np.sqrt(((centred**4).mean(axis=0) - var**2) / N_SEEDS)
    var_err = np.abs(draws.var(axis=0, ddof=1) - var) / var_se
    assert mean_err.max() < 5, mean_err
    assert var_err.max() < 5, var_err
    return draws


class TestScatterSampler:
    # n = 8 is far below the oracle's floor, but the moments are exact for any
    # n >= d, and an O(d/n) slip in the Bartlett factor that the noise at
    # n = 1e4 hides shows there
    @pytest.mark.parametrize("samples", [N_SAMPLES, 8])
    def test_full_rank_entries_match_wishart(self, samples):
        assert np.linalg.eigvalsh(SIGMA_4).min() > 0.1
        _assert_wishart_moments(SIGMA_4, np.linalg.cholesky(SIGMA_4), samples)

    def test_rank_deficient_eigh_factor(self):
        # third variable = sum of the first two: Cholesky fails (and
        # mc_mutual_information rejects the term), but the sampler itself
        # takes any factor, here v * sqrt(w) from eigh
        sigma = SIGMA_SUM
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.cholesky(sigma)
        w, v = np.linalg.eigh(sigma)
        draws = _assert_wishart_moments(sigma, v * np.sqrt(np.clip(w, 0.0, None)))
        # the sampled variance along Sigma's null direction stays at rounding level
        null = np.array([1.0, 1.0, -1.0]) / math.sqrt(3.0)
        assert (draws @ null @ null).max() < 1e-12 * sigma.max()

    def test_mi_estimates_distributed_as_row_sampling(self, monkeypatch):
        det = gaussian_mi(SPEC_D2, *CHAIN_1)

        def estimates():
            return np.array([
                mc_mutual_information(SPEC_D2, *CHAIN_1, samples=N_SAMPLES, seed=s)
                for s in range(N_SEEDS)
            ])

        bartlett = estimates()
        monkeypatch.setattr(gmi, "_scatter_moments", _scatter_moments_by_rows)
        rows = estimates()
        se_mean = math.sqrt((bartlett.var() + rows.var()) / N_SEEDS)
        assert abs(bartlett.mean() - rows.mean()) < 5 * se_mean
        se_std = math.sqrt((bartlett.var() + rows.var()) / (2 * (N_SEEDS - 1)))
        assert abs(bartlett.std(ddof=1) - rows.std(ddof=1)) < 5 * se_std
        assert abs(bartlett.mean() - det) < 0.01


class TestScheme1Terms:
    def test_reference_allocation(self):
        t = scheme1_terms(PowerAllocation((0.2, 0.3, 0.5)), CFG)
        assert t.i_u2_y == pytest.approx(I_U2_Y, abs=1e-12)
        assert t.i_u2_y_given_u1 == pytest.approx(I_U2_Y_GIVEN_U1, abs=1e-12)
        assert t.i_x_slow_given_u1 == pytest.approx(I_X_SLOW_U1, abs=1e-12)
        assert t.i_x_slow_given_u2 == pytest.approx(I_X_SLOW_U2, abs=1e-12)

    def test_degenerate_lower_layers(self):
        t = scheme1_terms(PowerAllocation((0.0, 0.0, 1.0)), CFG)
        assert t.i_u2_y == 0.0
        assert t.i_x_slow_given_u1 == pytest.approx(I_XY, abs=1e-12)

    def test_all_power_bottom_no_interference(self):
        t = scheme1_terms(PowerAllocation((1.0, 0.0, 0.0)), NetworkConfig(alpha=0.0, p=5.0))
        assert t.i_u2_y == pytest.approx(HALF_LOG2_6, abs=1e-12)
        assert t.i_x_slow_given_u2 == 0.0

    def test_wrong_layer_count(self):
        with pytest.raises(ValueError):
            scheme1_terms(PowerAllocation((0.5, 0.5)), CFG)

    def test_conditioning_ordering(self):
        rng = np.random.default_rng(21)
        for _ in range(40):
            w = rng.dirichlet(np.ones(3))
            t = scheme1_terms(PowerAllocation(tuple(w)), CFG)
            assert t.i_x_slow_given_u2 <= t.i_x_slow_given_u1 + 1e-9


class TestScheme2Terms:
    def test_single_round(self):
        cfg = NetworkConfig(alpha=0.2, p=5.0, d_max=1)
        t = scheme2_terms(PowerAllocation((0.5, 0.5)), cfg)
        assert t.i_u_y == pytest.approx(I_U2_Y, abs=1e-12)
        assert t.chain == ()
        assert t.i_final == pytest.approx(I_FINAL_D1, abs=1e-12)
        # decode-consistent variant keeps the neighbour's top layer as noise:
        # 0.5*log2((1 + 2.5*1.04) / (1 + 0.04*2.5))
        assert t.i_final_corrected == pytest.approx(0.8552466914025075, abs=1e-12)
        assert t.i_final_corrected <= t.i_final

    def test_all_zero(self):
        cfg = NetworkConfig(alpha=0.2, p=5.0, d_max=2)
        t = scheme2_terms(PowerAllocation((0.0, 0.0, 0.0)), cfg)
        assert t.i_u_y == 0.0 and t.chain == (0.0,) and t.i_final == 0.0

    def test_degenerate_upper_layers(self):
        cfg = NetworkConfig(alpha=0.2, p=5.0, d_max=2)
        t = scheme2_terms(PowerAllocation((1.0, 0.0, 0.0)), cfg)
        assert t.i_u_y == pytest.approx(I_XY, abs=1e-12)
        assert t.chain == (0.0,)
        assert t.i_final == 0.0

    def test_layer_count_enforced(self):
        cfg = NetworkConfig(alpha=0.2, p=5.0, d_max=3)
        with pytest.raises(ValueError, match="layer"):
            scheme2_terms(PowerAllocation((0.5, 0.5)), cfg)


class TestDataProcessing:
    def test_cumulative_mi_monotone_in_depth(self):
        rng = np.random.default_rng(8)
        for _ in range(40):
            w = rng.dirichlet(np.ones(3))
            alloc = PowerAllocation(tuple(w))
            a = float(rng.uniform(0.05, 0.95))
            p = float(10 ** rng.uniform(-1, 2))
            spec = layered_covariance(alloc, NetworkConfig(alpha=a, p=p))
            y = spec.idx_y
            i1 = gaussian_mi(spec, [0], [y])
            i2 = gaussian_mi(spec, [0, 1], [y])
            i3 = gaussian_mi(spec, [0, 1, 2], [y])
            assert i1 <= i2 + 1e-9 <= i3 + 2e-9


def _cum_vs_y(b_level, b_total, p, alpha):
    """Reference: I(depth auxiliary; Y) for cumulative power b_level out of b_total."""
    a2 = alpha * alpha
    num = 1 + b_total * p * (1 + a2)
    den = 1 + (b_total - b_level) * p + a2 * b_total * p
    return 0.5 * np.log2(num / den)


def _final_term_corrected(b_last, b_total, p, alpha):
    """Reference: I(X; Y, V'_{top-1} | top chain level), the neighbour's own
    top layer left as residual interference."""
    a2 = alpha * alpha
    num = 1 + (b_total - b_last) * p * (1 + a2)
    den = 1 + a2 * (b_total - b_last) * p
    return 0.5 * np.log2(num / den)


class TestChainTermEdgeCases:
    """cf_term(j, k, j)'s two edge cases are the dedicated formulas bit for bit."""

    @staticmethod
    def _args(seed, shape):
        rng = np.random.default_rng(seed)
        b = np.sort(rng.uniform(0.0, 1.0, (2,) + shape), axis=0)
        b[0].flat[::7] = 0.0  # empty lower levels
        b[1].flat[::5] = 1.0  # full total power
        b[0].flat[::11] = b[1].flat[::11]  # empty top layers
        p = 10 ** rng.uniform(-3, 8, shape)
        a = rng.uniform(0.02, 0.98, shape) * rng.choice([-1.0, 1.0], shape)
        return b[0], b[1], p, a

    @pytest.mark.parametrize("shape", [(20_000,), (200, 100)])
    def test_zero_lower_depth_is_i_u_y(self, shape):
        b, t, p, a = self._args(11, shape)
        assert np.array_equal(cf_term(0, b, 0, t, p, a), _cum_vs_y(b, t, p, a))
        assert np.array_equal(cf_term(np.zeros(shape), b, np.zeros(shape), t, p, a), _cum_vs_y(b, t, p, a))

    @pytest.mark.parametrize("shape", [(20_000,), (200, 100)])
    def test_full_upper_depth_is_corrected_final_term(self, shape):
        b, t, p, a = self._args(12, shape)
        assert np.array_equal(cf_term(b, t, b, t, p, a), _final_term_corrected(b, t, p, a))

    def test_scalars(self):
        b, t, p, a = self._args(13, (500,))
        for bi, ti, pi, ai in zip(b.tolist(), t.tolist(), p.tolist(), a.tolist()):
            assert cf_term(0.0, bi, 0.0, ti, pi, ai) == _cum_vs_y(bi, ti, pi, ai)
            assert cf_term(bi, ti, bi, ti, pi, ai) == _final_term_corrected(bi, ti, pi, ai)


class TestClosedForms:
    def test_cum_vs_y_closed_form_full_power(self):
        # I(U2;Y) = 0.5*log2((1+P+a^2 P)/(1+(1-B2)P+a^2 P)) at full power
        p, a = 5.0, 0.2
        for b2 in (0.1, 0.35, 0.8, 1.0):
            direct = 0.5 * math.log2((1 + p + a * a * p) / (1 + (1 - b2) * p + a * a * p))
            assert cf_term(0.0, b2, 0.0, 1.0, p, a) == pytest.approx(direct, abs=1e-15)

    def test_closed_forms_match_determinant_path(self):
        rng = np.random.default_rng(77)
        for _ in range(60):
            L = int(rng.integers(2, 6))
            w = rng.dirichlet(np.ones(L)) * rng.uniform(0.3, 1.0)
            alloc = PowerAllocation(tuple(w))
            p = float(10 ** rng.uniform(-1, 2))
            a = float(rng.uniform(0.05, 0.95))
            cfg = NetworkConfig(alpha=a, p=p, d_max=L - 1)
            t = scheme2_terms(alloc, cfg)
            B = alloc.cumulative()
            total = B[-1]
            assert t.i_u_y == pytest.approx(float(cf_term(0.0, B[0], 0.0, total, p, a)), abs=1e-9)
            for d, val in enumerate(t.chain, start=1):
                cf = float(cf_term(B[d - 1], B[d], B[d - 1], total, p, a))
                assert val == pytest.approx(cf, abs=1e-9)
            assert t.i_final == pytest.approx(float(cf_term(B[-2], total, total, total, p, a)), abs=1e-9)
            assert t.i_final_corrected == pytest.approx(
                float(cf_term(B[-2], total, B[-2], total, p, a)), abs=1e-9
            )

    def test_scheme1_closed_forms_match(self):
        rng = np.random.default_rng(78)
        for _ in range(40):
            w = rng.dirichlet(np.ones(3)) * rng.uniform(0.3, 1.0)
            alloc = PowerAllocation(tuple(w))
            p = float(10 ** rng.uniform(-1, 2))
            a = float(rng.uniform(0.05, 0.95))
            t = scheme1_terms(alloc, NetworkConfig(alpha=a, p=p))
            b1, b2, b3 = alloc.cumulative()
            assert t.i_u2_y == pytest.approx(float(cf_term(0.0, b2, 0.0, b3, p, a)), abs=1e-9)
            assert t.i_u2_y_given_u1 == pytest.approx(float(cf_term(b1, b2, 0.0, b3, p, a)), abs=1e-9)
            assert t.i_x_slow_given_u1 == pytest.approx(float(cf_term(b1, b3, b1, b3, p, a)), abs=1e-9)
            assert t.i_x_slow_given_u2 == pytest.approx(float(cf_term(b2, b3, b1, b3, p, a)), abs=1e-9)


def _scheme1_groups_by_hand(spec):
    """Reference: the hand-written index groups of the 3-layer scheme terms."""
    y = spec.idx_y
    w1p = spec.idx_nb(1)
    return {
        "i_u2_y": ([0, 1], [y], []),
        "i_u2_y_given_u1": ([1], [y], [0]),
        "i_x_slow_given_u1": ([1, 2], [y, w1p], [0]),
        "i_x_slow_given_u2": ([2], [y, w1p], [0, 1]),
    }


def _scheme2_groups_by_hand(spec, d_max):
    """Reference: the hand-written index groups of the (d_max+1)-layer scheme terms."""
    y = spec.idx_y
    L = spec.num_layers
    groups = {"i_u_y": ([0], [y], [])}
    for d in range(1, d_max):
        nb_known = [spec.idx_nb(j) for j in range(1, d + 1)]
        groups[f"chain_{d}"] = ([d], [y] + nb_known, list(range(d)))
    nb_all = [spec.idx_nb(j) for j in range(1, L + 1)]
    groups["i_final"] = ([L - 1], [y] + nb_all, list(range(L - 1)))
    groups["i_final_corrected"] = ([L - 1], [y] + nb_all[:-1], list(range(L - 1)))
    return groups


class TestLayerTable:
    """The (j, k, m) triples reproduce the hand-written groups exactly, keys
    and their order included (perfbench pairs the keys with seeds in order)."""

    def test_scheme1_groups(self):
        spec = layered_covariance(PowerAllocation((0.2, 0.3, 0.5)), CFG)
        want = _scheme1_groups_by_hand(spec)
        assert list(scheme1_term_groups(spec).items()) == list(want.items())
        assert list(SCHEME1_LAYERS) == list(want)

    @pytest.mark.parametrize("d_max", range(1, 17))
    def test_scheme2_groups(self, d_max):
        alloc = PowerAllocation((1.0 / (d_max + 1),) * (d_max + 1))
        spec = layered_covariance(alloc, NetworkConfig(alpha=0.2, p=5.0, d_max=d_max))
        want = _scheme2_groups_by_hand(spec, d_max)
        assert list(scheme2_term_groups(spec, d_max).items()) == list(want.items())
        assert list(scheme2_layers(d_max)) == list(want)
