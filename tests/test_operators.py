"""Fractional-power calculus: integral representations against the spectral oracle."""

from __future__ import annotations

import os
import subprocess
import sys
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import sqglab
from oracles import resolvent_sum
from sqglab.errors import FieldError, NonFiniteError, SingularOperatorError
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
    _log_nodes,
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
        with pytest.raises(FieldError, match="square") as info:
            DenseOperator(matrix=np.ones((2, 3)))
        assert info.value.field == "matrix"

    def test_rejects_asymmetric(self):
        with pytest.raises(FieldError, match="not symmetric") as info:
            DenseOperator(matrix=np.array([[1.0, 2.0], [0.0, 1.0]]))
        assert info.value.field == "matrix"

    def test_rejects_non_finite(self):
        with pytest.raises(FieldError, match="non-finite") as info:
            DenseOperator(matrix=np.array([[np.inf]]))
        assert info.value.field == "matrix"

    def test_rejects_indefinite(self):
        with pytest.raises(FieldError, match="positive semi-definite") as info:
            DenseOperator(matrix=np.array([[-1.0]]))
        assert info.value.field == "matrix"

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
            with pytest.raises(NonFiniteError):
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
            with pytest.raises(FieldError) as info:
                resolvent_apply(A, lam, np.ones(1))
            assert info.value.field == "lam"


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
            with pytest.raises(FieldError) as info:
                balakrishnan_neg_power(A, alpha, np.ones(1))
            assert info.value.field == "alpha"

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
        # the text tells the quadrature's floor from the order's range
        with pytest.raises(FieldError, match="alpha below 0.05") as info:
            inv_I_plus_Apow(A, 0.03, np.ones(1))
        assert info.value.field == "alpha"

    def test_alpha_range(self):
        A = scalar_operator(1.0)
        for alpha in (0.0, 1.5, -0.2):
            with pytest.raises(FieldError, match="alpha must lie in") as info:
                inv_I_plus_Apow(A, alpha, np.ones(1))
            assert info.value.field == "alpha"


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
            with pytest.raises(FieldError) as info:
                moment_inequality_check(A, np.ones(1), beta)
            assert info.value.field == "beta"


def _moment_trials_loop(rng, trials):
    """The moment battery one trial at a time, from draws in the battery's order."""
    sizes = rng.integers(2, 12, size=trials)
    out = [None] * trials
    for size in np.unique(sizes):
        group = np.flatnonzero(sizes == size)
        gauss = rng.standard_normal((group.size, size, size))
        log_eigs = rng.uniform(np.log(1e-2), np.log(1e2), size=(group.size, size))
        vecs = rng.standard_normal((group.size, size))
        betas = 0.5 + 0.5 * (1.0 - rng.random(group.size))
        for j, i in enumerate(group):
            q, r = np.linalg.qr(gauss[j])
            q = q * np.sign(np.diag(r))
            matrix = (q * np.exp(log_eigs[j])) @ q.T
            A = DenseOperator(0.5 * (matrix + matrix.T))
            out[i] = moment_inequality_check(A, vecs[j], betas[j])
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
        with pytest.raises(FieldError) as single:
            DenseOperator(matrix=bad)
        stack = np.stack([np.eye(2), bad, 2.0 * np.eye(2)])
        with pytest.raises(FieldError) as stacked:
            _validated_eigh(stack)
        assert single.value.field == stacked.value.field == "matrix"
        assert str(stacked.value) == str(single.value)


class TestLogNodes:
    @pytest.mark.parametrize(
        "lo, hi, field", [(0.0, 1.0, "lo"), (-1.0, 1.0, "lo"), (2.0, 1.0, "hi")]
    )
    def test_rejects_bad_interval(self, lo, hi, field):
        with pytest.raises(FieldError) as info:
            _log_nodes(lo, hi)
        assert info.value.field == field


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
        with pytest.raises(FieldError) as info:
            dirichlet_laplacian_1d(0)
        assert info.value.field == "m"

    def test_random_spd_is_deterministic(self):
        A = random_spd(6, seed=42)
        B = random_spd(6, seed=42)
        assert np.array_equal(A.matrix, B.matrix)
        assert not np.array_equal(A.matrix, random_spd(6, seed=43).matrix)

    def test_random_spd_matches_direct_construction(self):
        for size, seed in ((2, 0), (7, 31), (11, 2**31 - 1), (5, 2**32), (3, 2**200 + 3)):
            rng = np.random.default_rng(seed)
            q, r = np.linalg.qr(rng.standard_normal((size, size)))
            q = q * np.sign(np.diag(r))
            eigs = np.exp(rng.uniform(np.log(1e-2), np.log(1e2), size=size))
            want = (q * eigs) @ q.T
            got = random_spd(size, seed).matrix
            assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()


#: Seeds of one to seven 32-bit words, the widths ``SeedSequence`` takes
#: into its 4-word pool and beyond it.
SEED_CASES = [0, 1, 2**31 - 1, 2**32, 2**64 + 1, 2**128 - 1, 2**128, 2**200 + 3]


def _default_rng_stack(seeds, size):
    """:func:`random_spd`'s matrices with one ``np.random.default_rng`` per seed: the reference."""
    gauss = np.empty((len(seeds), size, size))
    log_eigs = np.empty((len(seeds), size))
    for j, seed in enumerate(seeds):
        rng = np.random.default_rng(seed)
        rng.standard_normal(out=gauss[j])
        log_eigs[j] = rng.uniform(np.log(1e-2), np.log(1e2), size=size)
    q, r = np.linalg.qr(gauss)
    q = q * np.sign(np.diagonal(r, axis1=1, axis2=2))[:, None, :]
    matrices = (q * np.exp(log_eigs)[:, None, :]) @ np.swapaxes(q, 1, 2)
    return 0.5 * (matrices + np.swapaxes(matrices, 1, 2))


class TestSeeding:
    """``random_spd`` draws from ``default_rng(seed)``; the trials from the caller's generator."""

    @pytest.mark.parametrize("size", [2, 11])
    def test_random_spd_equals_default_rng(self, size):
        for seed in SEED_CASES:
            want = _default_rng_stack([seed], size)[0]
            assert np.array_equal(random_spd(size, seed).matrix, want)

    @pytest.mark.parametrize(
        "size, seed, field",
        [
            (3, -1, "seed"),
            (3, 1.5, "seed"),
            (3, np.float64(2.0), "seed"),
            (3, "7", "seed"),
            (0, 1, "size"),
            (-2, 1, "size"),
        ],
    )
    def test_rejects_bad_seed_or_size(self, size, seed, field):
        with pytest.raises(FieldError) as info:
            random_spd(size, seed)
        assert info.value.field == field

    @pytest.mark.parametrize("trials", [-1, 2.5, np.float64(3.0), "8"])
    def test_rejects_a_bad_trial_count(self, trials):
        with pytest.raises(FieldError) as info:
            moment_inequality_trials(np.random.default_rng(0), trials)
        assert info.value.field == "trials"

    def test_no_trials_give_empty_columns(self):
        columns = moment_inequality_trials(np.random.default_rng(0), 0)
        assert [column.shape for column in columns] == [(0,)] * 3

    def test_trials_hash_no_seed_through_seed_sequence(self, monkeypatch):
        # every draw comes from the caller's generator: the trials build none
        rng = np.random.default_rng(21)
        calls = []

        def counted(name):
            original = getattr(np.random, name)

            def wrapper(*args, **kwargs):
                calls.append(name)
                return original(*args, **kwargs)

            return wrapper

        for name in ("default_rng", "SeedSequence", "PCG64"):
            monkeypatch.setattr(np.random, name, counted(name))
        moment_inequality_trials(rng, 500)
        assert calls == []

    def test_importing_the_cli_leaves_numpy_random_unloaded(self):
        # random_spd loads numpy.random on first use only: importing it
        # costs about 10 ms, which every fresh process would pay
        script = "import sys\nimport sqglab.cli\nprint('numpy.random' in sys.modules)\n"
        src = os.path.dirname(os.path.dirname(sqglab.__file__))
        path = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
        result = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": path},
            timeout=120,
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout.split() == ["False"]
