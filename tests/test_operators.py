"""Fractional-power calculus: integral representations against the spectral oracle."""

from __future__ import annotations

import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracles import resolvent_sum
from sqglab.errors import SingularOperatorError
from sqglab.operators import (
    DenseOperator,
    balakrishnan_neg_power,
    diagonal_operator,
    dirichlet_laplacian_1d,
    identity_decay_betas,
    identity_minus_negpower_decay,
    inv_I_plus_Apow,
    lemma62_convergence,
    lemma_limit_alphas,
    _BLOCK_TERMS,
    _leggauss,
    _resolvent_sum,
    _validated_eigh,
    moment_inequality_check,
    moment_inequality_trials,
    random_spd,
    resolvent_apply,
    scalar_operator,
)


def _test_vector(size: int, seed: int = 0) -> np.ndarray:
    return np.random.default_rng(seed).standard_normal(size)


class TestDenseOperator:
    def test_rejects_non_square(self):
        with pytest.raises(ValueError, match="square"):
            DenseOperator(matrix=np.ones((2, 3)))

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError, match="not symmetric"):
            DenseOperator(matrix=np.array([[1.0, 2.0], [0.0, 1.0]]))

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError, match="non-finite"):
            DenseOperator(matrix=np.array([[np.inf]]))

    def test_rejects_indefinite(self):
        with pytest.raises(ValueError, match="positive semi-definite"):
            DenseOperator(matrix=np.array([[-1.0]]))

    def test_eigenvalues_ascending_and_norm(self):
        A = diagonal_operator([3.0, 1.0, 2.0])
        assert np.allclose(A.eigenvalues, [1.0, 2.0, 3.0])
        assert A.norm == 3.0
        assert A.size == 3

    def test_apply_matches_matmul(self):
        A = random_spd(6, seed=1)
        phi = _test_vector(6)
        assert np.allclose(A.apply(phi), A.matrix @ phi)

    def test_apply_power_oracle_on_diagonal(self):
        A = diagonal_operator([1.0, 4.0, 9.0])
        phi = np.ones(3)
        assert np.allclose(A.apply_power(0.5, phi), [1.0, 2.0, 3.0])
        assert np.allclose(A.apply_power(-0.5, phi), [1.0, 0.5, 1.0 / 3.0])

    def test_apply_power_negative_requires_invertible(self):
        A = diagonal_operator([0.0, 1.0])
        with pytest.raises(SingularOperatorError, match="A not invertible"):
            A.apply_power(-0.5, np.ones(2))

    def test_apply_power_zero_eigenvalue_positive_exponent(self):
        A = diagonal_operator([0.0, 4.0])
        out = A.apply_power(0.5, np.ones(2))
        assert np.allclose(out, [0.0, 2.0])

    def test_apply_power_round_off_negative_eigenvalue_is_kernel(self):
        # validation admits eigenvalues down to -1e-12 |A|; powers treat them as 0
        A = diagonal_operator([-1e-14, 4.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = A.apply_power(0.5, np.ones(2))
        assert np.array_equal(out, [0.0, 2.0])

    def test_apply_function_matches_power(self):
        A = random_spd(8, seed=3)
        phi = _test_vector(8, seed=1)
        via_fn = A.apply_function(lambda m: m**0.3, phi)
        via_pow = A.apply_power(0.3, phi)
        assert np.allclose(via_fn, via_pow, atol=1e-12)

    def test_apply_function_rejects_non_finite_weights(self):
        A = diagonal_operator([0.0, 1.0])
        with np.errstate(divide="ignore"):
            with pytest.raises(ValueError, match="fn produced non-finite values"):
                A.apply_function(lambda m: 1.0 / m, np.ones(2))

    def test_min_eigenvalue(self):
        assert diagonal_operator([5.0, 2.0, 3.0]).min_eigenvalue() == 2.0
        for values in ([0.0, 2.0], [1e-13, 1.0], [0.0, 0.0]):
            with pytest.raises(SingularOperatorError, match="A not invertible"):
                diagonal_operator(values).min_eigenvalue()


class TestSemidefiniteResolventConstant:
    """M = 1 on every validated PSD matrix, round-off negative eigenvalues included."""

    @settings(max_examples=60)
    @given(
        seed=st.integers(0, 2**31 - 1),
        size=st.integers(2, 8),
        rank=st.integers(1, 7),
        beta=st.floats(0.51, 1.0),
    )
    def test_rank_deficient_gram(self, seed, size, rank, beta):
        rng = np.random.default_rng(seed)
        factor = rng.standard_normal((size, min(rank, size - 1)))
        A = DenseOperator(matrix=factor @ factor.T)
        lhs, rhs, passed = moment_inequality_check(A, rng.standard_normal(size), beta)
        assert passed, f"lhs={lhs} rhs={rhs}"

    def test_round_off_negative_eigenvalue(self):
        # eigh of the all-ones matrix can return a smallest eigenvalue of order -1e-16
        for A in (DenseOperator(matrix=np.ones((3, 3))), diagonal_operator([-1e-14, 1.0])):
            assert moment_inequality_check(A, np.ones(A.size), 0.75)[2]


class TestResolventApply:
    def test_zero_operator_halves_at_lam_two(self):
        A = scalar_operator(0.0)
        phi = np.array([3.0])
        assert np.allclose(resolvent_apply(A, 2.0, phi), [1.5])

    def test_diagonal_closed_form(self):
        A = diagonal_operator([1.0, 3.0])
        out = resolvent_apply(A, 1.0, np.ones(2))
        assert np.allclose(out, [0.5, 0.25])

    def test_contractive_scaled_resolvent(self):
        A = random_spd(10, seed=4)
        phi = _test_vector(10, seed=2)
        for lam in (1e-3, 1.0, 1e3):
            bound = np.linalg.norm(lam * resolvent_apply(A, lam, phi))
            assert bound <= np.linalg.norm(phi) * (1.0 + 1e-12)

    def test_lam_validation(self):
        A = scalar_operator(1.0)
        for lam in (0.0, -1.0, np.inf):
            with pytest.raises(ValueError, match="lam must be positive"):
                resolvent_apply(A, lam, np.ones(1))


class TestBalakrishnan:
    def test_scalar_square_root(self):
        A = scalar_operator(4.0)
        out = balakrishnan_neg_power(A, 0.5, np.ones(1))
        assert abs(out[0] - 0.5) <= 1e-10

    def test_diagonal_against_oracle(self):
        A = diagonal_operator([1.0, 4.0])
        phi = np.array([2.0, 2.0])
        out = balakrishnan_neg_power(A, 0.5, phi)
        assert np.allclose(out, [2.0, 1.0], atol=1e-9)

    @pytest.mark.parametrize("alpha", [0.25, 0.5, 0.75])
    def test_random_spd_against_oracle(self, alpha):
        A = random_spd(16, seed=5)
        phi = _test_vector(16, seed=3)
        out = balakrishnan_neg_power(A, alpha, phi)
        ref = A.apply_power(-alpha, phi)
        assert np.linalg.norm(out - ref) <= 1e-6 * np.linalg.norm(phi)

    def test_semigroup_property(self):
        A = random_spd(12, seed=3)
        phi = _test_vector(12, seed=4)
        twice = balakrishnan_neg_power(A, 0.35, balakrishnan_neg_power(A, 0.4, phi))
        once = A.apply_power(-0.75, phi)
        assert np.linalg.norm(twice - once) <= 1e-9 * np.linalg.norm(phi)

    def test_singular_operator_rejected(self):
        A = diagonal_operator([0.0, 1.0])
        with pytest.raises(SingularOperatorError, match="A not invertible"):
            balakrishnan_neg_power(A, 0.5, np.ones(2))

    def test_alpha_range(self):
        A = scalar_operator(1.0)
        for alpha in (0.0, 1.0, -0.5):
            with pytest.raises(ValueError, match="alpha must lie in"):
                balakrishnan_neg_power(A, alpha, np.ones(1))

    def test_zero_vector_short_circuits(self):
        A = random_spd(4, seed=6)
        assert np.all(balakrishnan_neg_power(A, 0.5, np.zeros(4)) == 0.0)


class TestInvIPlusApow:
    def test_scalar_one_gives_half_for_every_alpha(self):
        A = scalar_operator(1.0)
        for alpha in (0.06, 0.3, 0.5, 0.75, 0.99, 1.0):
            out = inv_I_plus_Apow(A, alpha, np.ones(1))
            assert abs(out[0] - 0.5) <= 1e-10, f"alpha={alpha}"

    def test_zero_operator_is_identity(self):
        A = scalar_operator(0.0)
        for alpha in (0.3, 0.75, 0.99):
            out = inv_I_plus_Apow(A, alpha, np.ones(1))
            assert abs(out[0] - 1.0) <= 1e-10, f"alpha={alpha}"

    @pytest.mark.parametrize("alpha", [0.3, 0.55, 0.9, 0.99])
    def test_laplacian_against_oracle(self, alpha):
        A = dirichlet_laplacian_1d(32)
        phi = _test_vector(32, seed=5)
        out = inv_I_plus_Apow(A, alpha, phi)
        ref = A.apply_function(lambda m: 1.0 / (1.0 + m**alpha), phi)
        assert np.linalg.norm(out - ref) <= 1e-6 * np.linalg.norm(phi)

    def test_alpha_one_is_direct_resolvent(self):
        A = random_spd(8, seed=7)
        phi = _test_vector(8, seed=6)
        assert np.array_equal(
            inv_I_plus_Apow(A, 1.0, phi), resolvent_apply(A, 1.0, phi)
        )

    def test_small_alpha_rejected(self):
        A = scalar_operator(1.0)
        with pytest.raises(ValueError, match="alpha below 0.05"):
            inv_I_plus_Apow(A, 0.03, np.ones(1))

    def test_alpha_range(self):
        A = scalar_operator(1.0)
        for alpha in (0.0, 1.5, -0.2):
            with pytest.raises(ValueError, match="alpha must lie in"):
                inv_I_plus_Apow(A, alpha, np.ones(1))


class TestResolventSum:
    # node counts per size: one block, exactly one full block, several blocks
    # (a size-1 operator is summed pairwise, so its nodes stay in one block)
    @pytest.mark.parametrize(
        "size, nodes",
        [(1, 1514), (1, _BLOCK_TERMS), (2, 1514), (2, _BLOCK_TERMS // 2),
         (2, _BLOCK_TERMS + 3), (12, 1514), (12, _BLOCK_TERMS // 12),
         (12, 3 * (_BLOCK_TERMS // 12) + 1), (500, 130), (500, 131), (500, 132),
         (500, 1514)],
    )
    def test_equals_the_one_shot_sum(self, size, nodes):
        A = scalar_operator(2.0) if size == 1 else random_spd(size, seed=3)
        rng = np.random.default_rng(size + nodes)
        lambdas = np.exp(rng.uniform(-20.0, 20.0, nodes))
        coeffs = rng.standard_normal(nodes)
        phi = _test_vector(size, seed=4)
        assert np.array_equal(
            _resolvent_sum(A, lambdas, coeffs, phi), resolvent_sum(A, lambdas, coeffs, phi)
        )

    def test_memory_does_not_grow_with_the_node_count(self):
        # 1325 nodes at alpha = 0.25: a (nodes, 300) table is 3.2 MB per array
        A = random_spd(300, seed=1)
        phi = _test_vector(300, seed=2)
        inv_I_plus_Apow(A, 0.25, phi)  # Gauss-Legendre rules cached first
        tracemalloc.start()
        try:
            inv_I_plus_Apow(A, 0.25, phi)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2_000_000, peak


class TestLemmaLimit:
    def test_scalar_one_all_errors_vanish(self):
        A = scalar_operator(1.0)
        ladder = lemma62_convergence(A, np.ones(1))
        assert [a for a, _ in ladder] == list(lemma_limit_alphas)
        assert all(err <= 1e-10 for _, err in ladder)

    def test_errors_strictly_decrease(self):
        A = dirichlet_laplacian_1d(16)
        phi = A.apply(np.linspace(0.5, 1.5, 16))
        ladder = lemma62_convergence(A, phi)
        errors = [err for _, err in ladder]
        assert all(b < a for a, b in zip(errors, errors[1:]))

class TestIdentityMinusNegPower:
    def test_scalar_e_closed_form(self):
        A = scalar_operator(np.e)
        ladder = identity_minus_negpower_decay(A, np.ones(1))
        assert [beta for beta, _ in ladder] == list(identity_decay_betas)
        for beta, err in ladder:
            assert abs(err - (1.0 - np.e**-beta)) <= 1e-10, f"beta={beta}"

    def test_errors_strictly_decrease(self):
        A = random_spd(10, seed=9)
        phi = _test_vector(10, seed=7)
        ladder = identity_minus_negpower_decay(A, phi)
        errors = [err for _, err in ladder]
        assert all(b < a for a, b in zip(errors, errors[1:]))

    def test_singular_operator_rejected(self):
        A = diagonal_operator([0.0, 1.0])
        with pytest.raises(SingularOperatorError, match="A not invertible"):
            identity_minus_negpower_decay(A, np.ones(2))

    def test_zero_vector_gives_zero_ladder(self):
        ladder = identity_minus_negpower_decay(random_spd(4, seed=8), np.zeros(4))
        assert ladder == [(beta, 0.0) for beta in identity_decay_betas]


class TestMomentInequality:
    def test_constant_at_three_quarters(self):
        # sin(pi/2) / (4 pi * 1/4 * 1/4) = 4/pi; with M = 1 the prefactor is 8/pi.
        A = scalar_operator(1.0)
        lhs, rhs, passed = moment_inequality_check(A, np.ones(1), 0.75)
        assert passed
        assert abs(lhs - 1.0) <= 1e-12
        assert abs(rhs - (4.0 / np.pi) * 2.0) <= 1e-8

    def test_endpoint_beta_one(self):
        A = diagonal_operator([1.0, 4.0])
        lhs, rhs, passed = moment_inequality_check(A, np.ones(2), 1.0)
        assert passed and lhs <= rhs

    def test_random_batch_passes(self):
        rng = np.random.default_rng(11)
        for trial in range(25):
            size = int(rng.integers(2, 10))
            A = random_spd(size, seed=100 + trial)
            phi = rng.standard_normal(size)
            beta = float(rng.uniform(0.51, 0.99))
            lhs, rhs, passed = moment_inequality_check(A, phi, beta)
            assert passed, f"trial={trial} lhs={lhs} rhs={rhs}"

    def test_beta_validation(self):
        A = scalar_operator(1.0)
        for beta in (0.5, 1.1, 0.0):
            with pytest.raises(ValueError, match=r"beta must lie in \(1/2, 1\]"):
                moment_inequality_check(A, np.ones(1), beta)


def _moment_trials_loop(rng, trials):
    """The moment battery one trial at a time, in the battery's draw order."""
    out = []
    for _ in range(trials):
        size = int(rng.integers(2, 12))
        A = random_spd(size, seed=int(rng.integers(0, 2**31)))
        vec = rng.standard_normal(size)
        beta = 0.5 + 0.5 * (1.0 - rng.random())
        out.append(moment_inequality_check(A, vec, beta))
    return (np.array(column) for column in zip(*out))


class TestMomentTrials:
    def test_equals_per_trial_checks(self):
        rng = np.random.default_rng(21)
        lhs, rhs, passed = moment_inequality_trials(rng, 500)
        oracle = np.random.default_rng(21)
        want_lhs, want_rhs, want_passed = _moment_trials_loop(oracle, 500)
        assert np.all(np.abs(lhs - want_lhs) <= 1e-12 * want_lhs)
        assert np.all(np.abs(rhs - want_rhs) <= 1e-12 * want_rhs)
        assert np.count_nonzero(~passed) == np.count_nonzero(~want_passed) == 0
        assert rng.random() == oracle.random()


class TestValidatedStack:
    @pytest.mark.parametrize(
        "bad",
        [
            np.array([[1.0, 0.0], [0.0, np.nan]]),
            np.array([[1.0, 2.0], [0.0, 1.0]]),
            np.array([[1.0, 0.0], [0.0, -1.0]]),
        ],
        ids=["non-finite", "asymmetric", "indefinite"],
    )
    def test_bad_member_raises_dense_operator_error(self, bad):
        with pytest.raises(ValueError) as single:
            DenseOperator(matrix=bad)
        stack = np.stack([np.eye(2), bad, 2.0 * np.eye(2)])
        with pytest.raises(ValueError) as stacked:
            _validated_eigh(stack)
        assert str(stacked.value) == str(single.value)


class TestLeggaussCache:
    @pytest.mark.parametrize("count", [4, 10, 37])
    def test_read_only_and_equal_to_leggauss(self, count):
        x, w = _leggauss(count)
        want_x, want_w = np.polynomial.legendre.leggauss(count)
        assert np.array_equal(x, want_x) and np.array_equal(w, want_w)
        assert not x.flags.writeable and not w.flags.writeable
        assert _leggauss(count)[0] is x


class TestConstructors:
    def test_dirichlet_laplacian_1d_eigenvalues(self):
        m = 16
        h = 1.0 / (m + 1)
        k = np.arange(1, m + 1)
        exact = np.sort(4.0 / h**2 * np.sin(k * np.pi * h / 2.0) ** 2)
        got = dirichlet_laplacian_1d(m).eigenvalues
        assert np.allclose(got, exact, rtol=1e-12)

    def test_dirichlet_laplacian_1d_size_validation(self):
        with pytest.raises(ValueError, match="m must be positive"):
            dirichlet_laplacian_1d(0)

    def test_random_spd_is_deterministic(self):
        A = random_spd(6, seed=42)
        B = random_spd(6, seed=42)
        assert np.array_equal(A.matrix, B.matrix)
        assert not np.array_equal(A.matrix, random_spd(6, seed=43).matrix)

    def test_random_spd_matches_direct_construction(self):
        for size, seed in ((2, 0), (7, 31), (11, 2**31 - 1)):
            rng = np.random.default_rng(seed)
            q, r = np.linalg.qr(rng.standard_normal((size, size)))
            q = q * np.sign(np.diag(r))
            eigs = np.exp(rng.uniform(np.log(1e-2), np.log(1e2), size=size))
            want = (q * eigs) @ q.T
            got = random_spd(size, seed).matrix
            assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()
