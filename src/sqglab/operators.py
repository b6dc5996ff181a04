"""Finite-dimensional fractional-power calculus via resolvent integrals.

For a symmetric positive-semidefinite matrix ``A`` the negative fractional
power has the integral representation

    A^{-a} phi = sin(pi a)/pi * int_0^inf lambda^{-a} (A + lambda I)^{-1} phi dlambda,

and the resolvent of the fractional power satisfies

    (I + A^a)^{-1} = sin(a pi)/pi * int_0^inf
        lambda^a / (lambda^{2a} + 2 lambda^a cos(pi a) + 1) (lambda I + A)^{-1} dlambda.

This module evaluates those integrals by quadrature (log substitution,
Gauss-Legendre panels, analytic tail corrections chosen per call so
truncation error stays near 1e-10 relative) and compares them against the
eigendecomposition functional calculus, which serves as the oracle: the
integral representations are the objects under test, the spectral calculus is
ground truth.  The resolvent terms are summed in blocks of consecutive nodes,
so a quadrature's working memory beyond the eigendecomposition is O(size),
not O(nodes x size).  On top of the two representations sit three derived studies:
convergence of ``(I + A^a)^{-1}`` as ``a -> 1/2``, vanishing of
``(I - A^{-b}) phi`` as ``b -> 0+``, and a quantified moment (interpolation)
inequality for intermediate powers.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import FieldError, NonFiniteError, SingularOperatorError

__all__ = [
    "DenseOperator",
    "resolvent_apply",
    "balakrishnan_neg_power",
    "inv_I_plus_Apow",
    "lemma_limit_alphas",
    "lemma62_convergence",
    "identity_decay_betas",
    "identity_minus_negpower_decay",
    "moment_inequality_check",
    "moment_inequality_trials",
    "scalar_operator",
    "diagonal_operator",
    "dirichlet_laplacian_1d",
    "random_spd",
]

_SYMMETRY_TOL = 1e-12
#: Spectrum range of :func:`random_spd`.
_SPD_EIGS = (1e-2, 1e2)
#: Matrix sizes ``[low, high)`` of :func:`moment_inequality_trials`.
_TRIAL_SIZES = (2, 12)
#: Relative truncation-error budget for the integral representations.
_TRUNCATION_TARGET = 1e-11
#: Gauss-Legendre nodes per decade of lambda in the log-substituted rules.
_NODES_PER_DECADE = 24
#: Terms (nodes x size) per block of :func:`_resolvent_sum`, 512 KiB of doubles.
_BLOCK_TERMS = 2**16
#: Panel boundary pinned at the (0, L]/(L, inf) split of the tail analysis.
_SPLIT_POINT = 10.0
#: Resolvent bound M, ``|lambda (lambda + A)^{-1}| <= M`` for lambda > 0: the
#: supremum of ``lambda/(lambda + mu)`` is 1 for every eigenvalue mu >= 0
#: (attained as lambda -> inf), so M is 1 for every symmetric PSD matrix.
_RESOLVENT_CONSTANT = 1.0


def _validated_eigh(matrices: np.ndarray) -> tuple:
    """Validate a stack ``(k, n, n)`` of symmetric PSD matrices and diagonalize it.

    The checks are :class:`DenseOperator`'s: finite entries, ``|A - A^T| <=
    1e-12 max(|A|, 1)`` (Frobenius norms) and a minimum eigenvalue no lower
    than ``-1e-12 max(|A|, 1)``; the first offending matrix raises
    ``FieldError("matrix", ...)``.  Returns the symmetrized stack with its ascending
    eigenvalues ``(k, n)`` and eigenvectors ``(k, n, n)``.
    """
    if not np.isfinite(matrices).all():
        raise FieldError("matrix", "matrix has non-finite entries")
    bound = _SYMMETRY_TOL * np.maximum(np.linalg.norm(matrices, axis=(1, 2)), 1.0)
    transposed = np.swapaxes(matrices, 1, 2)
    asym = np.linalg.norm(matrices - transposed, axis=(1, 2))
    bad = asym > bound
    if bad.any():
        raise FieldError(
            "matrix",
            f"matrix is not symmetric: |A - A^T| = {asym[bad][0]:.3e} "
            f"exceeds {_SYMMETRY_TOL:.0e} * |A|"
        )
    matrices = 0.5 * (matrices + transposed)
    values, vectors = np.linalg.eigh(matrices)
    bad = values[:, 0] < -bound
    if bad.any():
        raise FieldError(
            "matrix",
            f"matrix is not positive semi-definite: min eigenvalue "
            f"{values[bad, 0][0]:.3e}"
        )
    return matrices, values, vectors


def _clipped_powers(values: np.ndarray, exponent) -> np.ndarray:
    """``mu^exponent`` of the eigenvalues clipped at 0, with 0 on the kernel.

    The clip keeps round-off negatives that validation admits out of the
    fractional powers.
    """
    clipped = np.clip(values, 0.0, None)
    with np.errstate(divide="ignore"):
        return np.where(clipped > 0, clipped**exponent, 0.0)


@dataclass(frozen=True)
class DenseOperator:
    """Symmetric positive-semidefinite matrix with a cached eigendecomposition.

    The eigendecomposition is computed once and backs every spectral
    operation: resolvent solves, fractional powers (the oracle), norms.
    """

    matrix: np.ndarray

    def __post_init__(self) -> None:
        matrix = np.asarray(self.matrix, dtype=np.float64)
        if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
            raise FieldError(
                "matrix", f"matrix must be square, got shape {matrix.shape}"
            )
        matrices, values, vectors = _validated_eigh(matrix[None])
        for array in (matrices, values, vectors):
            array.setflags(write=False)
        object.__setattr__(self, "matrix", matrices[0])
        object.__setattr__(self, "_eig", (values[0], vectors[0]))

    @property
    def eigenvalues(self) -> np.ndarray:
        """Eigenvalues in ascending order."""
        return self._eig[0]

    @property
    def size(self) -> int:
        return self.matrix.shape[0]

    @property
    def norm(self) -> float:
        """Spectral norm (largest eigenvalue magnitude)."""
        return float(max(abs(self.eigenvalues[0]), abs(self.eigenvalues[-1])))

    def apply(self, phi: np.ndarray) -> np.ndarray:
        return self.matrix @ np.asarray(phi, dtype=np.float64)

    def min_eigenvalue(self) -> float:
        """Smallest eigenvalue of an invertible ``A``.

        Raises :class:`SingularOperatorError` when it is at most
        ``1e-12 max(|A|, 1)``, the round-off level of a kernel.
        """
        value = float(self.eigenvalues[0])
        if value <= _SYMMETRY_TOL * max(self.norm, 1.0):
            raise SingularOperatorError(f"A not invertible (minimum eigenvalue {value:.3e})")
        return value

    def apply_power(self, exponent: float, phi: np.ndarray) -> np.ndarray:
        """Spectral functional calculus ``A^exponent phi`` (the oracle).

        Negative exponents require strict positive definiteness.
        """
        if exponent < 0:
            self.min_eigenvalue()
        values, vectors = self._eig
        powers = _clipped_powers(values, exponent)
        return vectors @ (powers * (vectors.T @ np.asarray(phi, dtype=np.float64)))

    def apply_function(self, fn, phi: np.ndarray) -> np.ndarray:
        """Spectral functional calculus ``fn(A) phi`` for a scalar function.

        ``fn`` is applied to the (clipped, nonnegative) eigenvalues; like
        :meth:`apply_power` this is the eigendecomposition oracle that the
        quadrature routes are compared against.
        """
        values, vectors = self._eig
        clipped = np.clip(values, 0.0, None)
        weights = np.asarray([float(fn(v)) for v in clipped])
        if not np.all(np.isfinite(weights)):
            raise NonFiniteError("fn produced non-finite values on the spectrum")
        return vectors @ (weights * (vectors.T @ np.asarray(phi, dtype=np.float64)))


def resolvent_apply(A: DenseOperator, lam: float, phi: np.ndarray) -> np.ndarray:
    """Solve ``(A + lam I) x = phi`` through the cached eigendecomposition."""
    if not (np.isfinite(lam) and lam > 0):
        raise FieldError("lam", f"lam must be positive, got {lam}")
    values, vectors = A._eig
    phi = np.asarray(phi, dtype=np.float64)
    return vectors @ ((vectors.T @ phi) / (values + lam))


# ----------------------------------------------------------------------------
# quadrature on (0, inf) in log coordinates
# ----------------------------------------------------------------------------


@lru_cache(maxsize=128)
def _leggauss(count: int) -> tuple:
    """Gauss-Legendre nodes and weights on [-1, 1] (read-only, computed once per count)."""
    x, w = np.polynomial.legendre.leggauss(count)
    x.setflags(write=False)
    w.setflags(write=False)
    return x, w


def _log_nodes(lo: float, hi: float) -> tuple:
    """Nodes/weights for ``int_lo^hi f(lambda) dlambda`` in u = ln(lambda).

    Weights absorb the Jacobian, so ``sum(w * f(lambda))`` approximates the
    integral in the original variable.  Node order is fixed (ascending), so
    summation order -- and hence the result -- is deterministic.
    """
    if not 0 < lo < hi:
        raise FieldError("hi" if lo > 0 else "lo", f"need 0 < lo < hi, got ({lo}, {hi})")
    u_lo, u_hi = np.log(lo), np.log(hi)
    ln10 = np.log(10.0)
    edges = {u_lo, u_hi}
    j0 = int(np.ceil(u_lo / ln10))
    j1 = int(np.floor(u_hi / ln10))
    edges.update(j * ln10 for j in range(j0, j1 + 1))
    u_split = np.log(_SPLIT_POINT)
    if u_lo < u_split < u_hi:
        edges.add(u_split)
    edge_list = sorted(edges)
    nodes = []
    weights = []
    for a, b in zip(edge_list[:-1], edge_list[1:]):
        decades = (b - a) / ln10
        count = max(4, int(np.ceil(_NODES_PER_DECADE * decades)))
        x, w = _leggauss(count)
        u = 0.5 * (b - a) * x + 0.5 * (a + b)
        nodes.append(u)
        weights.append(0.5 * (b - a) * w)
    u = np.concatenate(nodes)
    w = np.concatenate(weights)
    return np.exp(u), w * np.exp(u)


def _spike_log_panels(u_half: float, outer: float) -> tuple:
    """Graded Gauss-Legendre panels in u = ln(lambda) around u = 0.

    Used to resolve the sharp kernel peak of ``inv_I_plus_Apow`` near
    ``lambda = 1`` when ``alpha`` approaches 1 (a Lorentzian of half-width
    ``u_half`` in the log variable, turning into a point mass as
    ``alpha -> 1``).  Panel widths grow geometrically away from the peak so
    both the core and the slowly decaying shoulders are resolved; weights
    absorb the Jacobian.  Each panel has 10 nodes.
    """
    nodes = 10
    edges = [0.0, 0.5 * u_half, u_half]
    while edges[-1] < outer:
        edges.append(min(edges[-1] * 1.6, outer))
    grid = sorted({-e for e in edges} | set(edges))
    x, w = _leggauss(nodes)
    all_u = []
    all_w = []
    for a, b in zip(grid[:-1], grid[1:]):
        all_u.append(0.5 * (b - a) * x + 0.5 * (a + b))
        all_w.append(np.full(nodes, 0.5 * (b - a)) * w)
    u = np.concatenate(all_u)
    wts = np.concatenate(all_w)
    return np.exp(u), wts * np.exp(u)


def _resolvent_sum(
    A: DenseOperator, lambdas: np.ndarray, coeffs: np.ndarray, phi: np.ndarray
) -> np.ndarray:
    """Fixed-order accumulation of ``sum_i coeffs[i] (A + lambdas[i])^{-1} phi``.

    The terms, the resolvent action in the eigenbasis at each node, are
    built in one reused block of :data:`_BLOCK_TERMS` ``// size`` consecutive
    nodes, and the running sum is carried into the first row of the next, so
    the working memory beyond the eigendecomposition is O(size), not
    O(nodes x size).  The bits are those of the one-shot sum over a
    ``(nodes, size)`` table: numpy sums axis 0 of a ``(rows, size >= 2)``
    array row by row, so the carry keeps its order.  A size-1 operator is
    summed pairwise instead; its block holds :data:`_BLOCK_TERMS` nodes,
    more than any quadrature here uses.
    """
    values, vectors = A._eig
    phi_hat = vectors.T @ np.asarray(phi, dtype=np.float64)
    rows = max(1, _BLOCK_TERMS // values.size)
    block = np.empty((min(rows, lambdas.size), values.size))
    total = None
    for start in range(0, lambdas.size, rows):
        terms = block[: lambdas.size - start]
        np.add(values, lambdas[start : start + rows, None], out=terms)
        np.divide(phi_hat, terms, out=terms)
        terms *= coeffs[start : start + rows, None]
        if total is not None:
            terms[0] += total
        total = terms.sum(axis=0)
    return vectors @ total


def balakrishnan_neg_power(A: DenseOperator, alpha: float, phi: np.ndarray) -> np.ndarray:
    """Negative fractional power ``A^{-alpha} phi`` by the resolvent integral.

    Requires strictly positive-definite ``A`` (the integral diverges on a
    kernel).  Truncation: the quadrature covers ``[eps, Lam]`` with analytic
    corrections for both tails -- ``(0, eps)`` is approximated by the frozen
    resolvent at ``eps``, ``(Lam, inf)`` by the two-term large-lambda
    expansion ``(A + lam)^{-1} = lam^{-1} I - lam^{-2} A + O(lam^{-3})`` --
    with ``eps``/``Lam`` chosen so both residuals sit near 1e-11 relative.
    """
    if not (0.0 < alpha < 1.0):
        raise FieldError("alpha", f"alpha must lie in (0, 1), got {alpha}")
    phi = np.asarray(phi, dtype=np.float64)
    mu_min = A.min_eigenvalue()
    phi_norm = float(np.linalg.norm(phi))
    if phi_norm == 0.0:
        return np.zeros_like(phi)
    mu_max = float(A.eigenvalues[-1])
    front = np.sin(np.pi * alpha) / np.pi
    target = _TRUNCATION_TARGET * phi_norm * mu_max ** (-alpha)

    eps = 1e-10 * mu_min
    lam_top = max(
        2.0 * mu_max,
        (2.0 * front * mu_max**2 * phi_norm / ((alpha + 2.0) * target))
        ** (1.0 / (alpha + 2.0)),
    )

    lambdas, weights = _log_nodes(eps, lam_top)
    kernel = front * lambdas ** (-alpha)
    result = _resolvent_sum(A, lambdas, weights * kernel, phi)
    # (0, eps): integrand ~ lambda^{-alpha} (A + eps)^{-1} phi
    result += front * eps ** (1.0 - alpha) / (1.0 - alpha) * resolvent_apply(A, eps, phi)
    # (Lam, inf): two-term expansion in 1/lambda
    result += front * lam_top ** (-alpha) / alpha * phi
    result -= front * lam_top ** (-alpha - 1.0) / (alpha + 1.0) * A.apply(phi)
    return result


def inv_I_plus_Apow(A: DenseOperator, alpha: float, phi: np.ndarray) -> np.ndarray:
    """Apply ``(I + A^alpha)^{-1}`` via its resolvent-integral representation.

    Defined for PSD ``A`` (kernels allowed) and ``alpha`` in (0, 1); at
    ``alpha = 1`` the representation degenerates to a point mass at
    ``lambda = 1`` and the direct resolvent is used.  The kernel

        sin(a pi)/pi * lambda^a / (lambda^{2a} + 2 lambda^a cos(pi a) + 1)

    vanishes at both ends.  The lower tail is plainly truncated (pushing
    ``eps`` down costs only log-many nodes).  The upper tail is corrected
    analytically by expanding the kernel in powers of ``t = lambda^a``
    (``t/(t^2 + 2ct + 1) = sum_j U_j(-c) t^{-1-j}`` with Chebyshev numbers
    ``U_j``) against the two-term resolvent expansion ``(A + lam)^{-1} =
    lam^{-1} I - lam^{-2} A + O(lam^{-3})`` and summing the series, which
    keeps the cutoff moderate even for small ``alpha`` where a plain
    cutoff would overflow the permitted range.

    Orders below ``alpha = 0.05`` are rejected: there the lower tail of the
    integrand (``~ lambda^{alpha-1}``) carries budget-relevant mass beyond
    the smallest positive double, so no quadrature over representable
    nodes can meet the accuracy contract.
    """
    if not (0.0 < alpha <= 1.0):
        raise FieldError("alpha", f"alpha must lie in (0, 1], got {alpha}")
    if alpha < 0.05:
        raise FieldError(
            "alpha",
            f"alpha below 0.05 is outside the validated quadrature range "
            f"(lower-tail mass underflows double precision), got {alpha}"
        )
    phi = np.asarray(phi, dtype=np.float64)
    if alpha == 1.0:
        return resolvent_apply(A, 1.0, phi)
    phi_norm = float(np.linalg.norm(phi))
    if phi_norm == 0.0:
        return np.zeros_like(phi)
    mu_max = float(A.eigenvalues[-1])
    cos_pa = float(np.cos(np.pi * alpha))
    front = np.sin(np.pi * alpha) / np.pi
    target = _TRUNCATION_TARGET * phi_norm / (1.0 + mu_max**alpha)

    # Lower tail: |kernel| <= 2 front lambda^alpha and |(A+lam)^{-1}| <= 1/lam.
    eps = (alpha * target / (2.0 * front * phi_norm)) ** (1.0 / alpha)
    eps = max(eps, 1e-280)
    # Upper cutoff: the series correction needs t = lam^alpha >= 2 for
    # geometric convergence, the resolvent expansion needs lam >> |A|, and
    # the uncorrected second-order remainder (lam^{-2} A^2 (A+lam)^{-1})
    # must sit below the truncation budget.
    lam_top = max(
        2.0 ** (1.0 / alpha),
        2.0 * (mu_max + 1.0),
        (2.3 * front * (mu_max + 1.0) ** 2 * phi_norm / ((alpha + 2.0) * target))
        ** (1.0 / (alpha + 2.0)),
    )

    # The kernel peaks at lambda = 1 with width ~ sin(pi alpha)/alpha in
    # ln(lambda) as alpha -> 1 (the alpha = 1 limit is a point mass there).
    # When that width drops below a fraction of a decade, resolve the peak
    # and its Lorentzian shoulders with graded panels and keep the
    # per-decade grid for the smooth remainder.
    peak_width = float(np.sin(np.pi * alpha)) / alpha
    if cos_pa < 0.0 and peak_width < 0.3:
        outer = 1.2
        l_low, w_low = _log_nodes(eps, np.exp(-outer))
        l_mid, w_mid = _spike_log_panels(peak_width, outer)
        l_high, w_high = _log_nodes(np.exp(outer), lam_top)
        lambdas = np.concatenate([l_low, l_mid, l_high])
        weights = np.concatenate([w_low, w_mid, w_high])
    else:
        lambdas, weights = _log_nodes(eps, lam_top)
    t = lambdas**alpha
    kernel = front * t / (t**2 + 2.0 * t * cos_pa + 1.0)
    result = _resolvent_sum(A, lambdas, weights * kernel, phi)

    # (Lam, inf): summed series corrections.  With e_0 = 1 and
    # e_j = -2c e_{j-1} - e_{j-2}, the kernel tail is
    # front * sum_{j>=1} e_{j-1} lam^{-j a}, so
    #   phi-part:  front * sum_j e_{j-1} Lam^{-j a} / (j a)
    #   A-part:   -front * sum_j e_{j-1} Lam^{-j a - 1} / (j a + 1) * A phi.
    t_inv = lam_top ** (-alpha)
    e_prev2, e_prev1 = 0.0, 1.0
    power = t_inv
    coef_phi = 0.0
    coef_a = 0.0
    for j in range(1, 401):
        term_phi = e_prev1 * power / (j * alpha)
        coef_phi += term_phi
        coef_a += e_prev1 * power / lam_top / (j * alpha + 1.0)
        if front * abs(term_phi) * phi_norm < 0.01 * target and j >= 3:
            break
        e_prev2, e_prev1 = e_prev1, -2.0 * cos_pa * e_prev1 - e_prev2
        power *= t_inv
    result += front * coef_phi * phi
    result -= front * coef_a * A.apply(phi)
    return result


# ----------------------------------------------------------------------------
# limit studies and the moment inequality
# ----------------------------------------------------------------------------

#: Exponent ladder of :func:`lemma62_convergence`, descending toward 1/2.
lemma_limit_alphas = (0.75, 0.7, 0.65, 0.6, 0.55, 0.52, 0.51)
#: Exponent ladder of :func:`identity_minus_negpower_decay`, descending toward 0.
identity_decay_betas = (0.25, 0.1, 0.01, 1e-3, 1e-4)


def lemma62_convergence(A: DenseOperator, phi: np.ndarray) -> list:
    """Error ladder ``|(I+A^a)^{-1} phi - (I+A^{1/2})^{-1} phi|`` for ``a -> 1/2+``.

    The errors decrease strictly along :data:`lemma_limit_alphas` (the map
    ``a -> (1 + mu^a)^{-1}`` moves monotonically toward its critical value
    for every eigenvalue mu).  Returns ``[(alpha, error), ...]``.
    """
    reference = inv_I_plus_Apow(A, 0.5, phi)
    out = []
    for a in lemma_limit_alphas:
        approx = inv_I_plus_Apow(A, a, phi)
        out.append((a, float(np.linalg.norm(approx - reference))))
    return out


def identity_minus_negpower_decay(A: DenseOperator, phi: np.ndarray) -> list:
    """Error ladder ``|(I - A^{-beta}) phi|`` for ``beta -> 0+``.

    Evaluates the *difference* representation

        (A^{-b} - I) phi = sin(pi b)/pi * int_0^inf lambda^{-b}
            [(lambda + A)^{-1} - (lambda + 1)^{-1} I] phi dlambda,

    exact because ``sin(pi b)/pi int lambda^{-b} (lambda+1)^{-1} = 1``; the
    bracket decays like ``lambda^{-2}``, so truncation hits the difference
    rather than two diverging halves -- the representation stays accurate
    uniformly down to ``beta = 1e-4`` and below.  The exponents are
    :data:`identity_decay_betas`.  Returns ``[(beta, error)]``.
    """
    phi = np.asarray(phi, dtype=np.float64)
    mu_min = A.min_eigenvalue()
    phi_norm = float(np.linalg.norm(phi))
    if phi_norm == 0.0:
        return [(b, 0.0) for b in identity_decay_betas]
    out = []
    for b in identity_decay_betas:
        front = np.sin(np.pi * b) / np.pi
        # both tails of the bracketed difference are integrable and small
        bracket_low = 1.0 + 1.0 / mu_min
        target = _TRUNCATION_TARGET * phi_norm * max(b, 1e-6)
        eps = (target * (1.0 - b) / (front * bracket_low * phi_norm)) ** (1.0 / (1.0 - b))
        eps = max(min(eps, 1e-6), 1e-280)
        gap = max(A.norm, 1.0) + 1.0
        lam_top = max(
            4.0 * gap,
            (4.0 * front * gap * phi_norm / ((1.0 + b) * target)) ** (1.0 / (1.0 + b)),
        )
        lambdas, weights = _log_nodes(eps, lam_top)
        kernel = front * lambdas ** (-b)
        diff = _resolvent_sum(A, lambdas, weights * kernel, phi)
        diff -= (weights * kernel / (lambdas + 1.0)).sum() * phi
        out.append((b, float(np.linalg.norm(diff))))
    return out


def moment_inequality_check(
    A: DenseOperator, phi: np.ndarray, beta: float
) -> tuple[float, float, bool]:
    """Quantified moment inequality for intermediate powers, beta in (1/2, 1].

    Checks

        |A^b phi| <= sin(2 pi (b - 1/2)) / (4 pi (1-b)(b-1/2)) * (M+1)
                     * |A phi|^{2b-1} |A^{1/2} phi|^{2-2b}

    with the resolvent constant M computed from the operator (1 for symmetric
    PSD).  The constant's endpoint limits equal ``M+1``; the formula is
    evaluated a guard of 1e-8 inside the endpoints.  Both sides use the
    spectral calculus.  Returns ``(lhs, rhs, passed)``.
    """
    if not (0.5 < beta <= 1.0):
        raise FieldError("beta", f"beta must lie in (1/2, 1], got {beta}")
    phi = np.asarray(phi, dtype=np.float64)
    values, vectors = A._eig
    lhs, rhs, passed = _moment_sides(values[None], vectors[None], phi[None], np.array([beta]))
    return float(lhs[0]), float(rhs[0]), bool(passed[0])


def _moment_sides(
    values: np.ndarray, vectors: np.ndarray, phi: np.ndarray, beta: np.ndarray
) -> tuple:
    """Both sides of the moment inequality for a stack of eigendecompositions.

    ``values`` ``(k, n)``, ``vectors`` ``(k, n, n)``, ``phi`` ``(k, n)`` and
    ``beta`` ``(k,)``; the powers use the spectral calculus of
    :meth:`DenseOperator.apply_power`.  Returns ``(lhs, rhs, passed)``
    arrays of length ``k``; a trial passes when ``lhs <= rhs (1 + 1e-10)``.
    """
    M = _RESOLVENT_CONSTANT
    guard = 1e-8
    b = np.clip(beta, 0.5 + guard, 1.0 - guard)
    constant = np.sin(2.0 * np.pi * (b - 0.5)) / (4.0 * np.pi * (1.0 - b) * (b - 0.5))
    coeffs = (np.swapaxes(vectors, 1, 2) @ phi[:, :, None])[:, None, :, 0]
    # rows: A^beta phi, A phi, A^{1/2} phi of each trial, in the eigenbasis
    exponents = np.stack([beta, np.ones_like(beta), np.full_like(beta, 0.5)], axis=1)
    powers = _clipped_powers(values[:, None, :], exponents[:, :, None])
    images = (powers * coeffs) @ np.swapaxes(vectors, 1, 2)
    lhs, full, half = np.linalg.norm(images, axis=2).T
    rhs = constant * (M + 1.0) * full ** (2.0 * beta - 1.0) * half ** (2.0 - 2.0 * beta)
    return lhs, rhs, lhs <= rhs * (1.0 + 1e-10)


def moment_inequality_trials(rng: np.random.Generator, trials: int) -> tuple:
    """The moment inequality on ``trials`` random ``(A, phi, beta)`` at once.

    Every draw comes from ``rng``, in this order: all the sizes ``n`` in
    [2, 12) (``rng.integers(2, 12, size=trials)``); then, for each size in
    ascending order, the group's matrices ``A`` (:func:`_spd_stack`: the
    Gaussians, then the log-spectra), its ``phi`` (a ``(count, n)`` array
    of standard normals) and its ``beta = 0.5 + 0.5 (1 - u)`` in (1/2, 1]
    (``count`` uniforms ``u``).  Each trial's result equals
    :func:`moment_inequality_check` on its own ``A``, ``phi`` and ``beta``,
    but a group is validated and diagonalized as one stack.  A negative or
    non-integral ``trials`` raises ``FieldError("trials", ...)``.  Returns
    ``(lhs, rhs, passed)`` arrays in trial order.
    """
    if not isinstance(trials, (int, np.integer)) or trials < 0:
        raise FieldError("trials", f"trials must be a non-negative integer, got {trials!r}")
    sizes = rng.integers(*_TRIAL_SIZES, size=trials)
    lhs = np.empty(trials)
    rhs = np.empty(trials)
    passed = np.empty(trials, dtype=bool)
    for size in np.unique(sizes):
        group = np.flatnonzero(sizes == size)
        _, values, vectors = _validated_eigh(_spd_stack(rng, group.size, size))
        phis = rng.standard_normal((group.size, size))
        betas = 0.5 + 0.5 * (1.0 - rng.random(group.size))
        lhs[group], rhs[group], passed[group] = _moment_sides(values, vectors, phis, betas)
    return lhs, rhs, passed


# ----------------------------------------------------------------------------
# test-operator constructors
# ----------------------------------------------------------------------------


def scalar_operator(value: float) -> DenseOperator:
    return DenseOperator(matrix=np.array([[float(value)]]))


def diagonal_operator(values) -> DenseOperator:
    return DenseOperator(matrix=np.diag(np.asarray(values, dtype=np.float64)))


def dirichlet_laplacian_1d(m: int) -> DenseOperator:
    """Tridiagonal (-d^2/dx^2) on m interior points of a unit interval."""
    if m < 1:
        raise FieldError("m", f"m must be positive, got {m}")
    h = 1.0 / (m + 1)
    main = np.full(m, 2.0)
    off = np.full(m - 1, -1.0)
    matrix = (np.diag(main) + np.diag(off, 1) + np.diag(off, -1)) / h**2
    return DenseOperator(matrix=matrix)


def _spd_stack(rng: np.random.Generator, count: int, size: int) -> np.ndarray:
    """``count`` symmetrized ``Q diag(e) Q^T`` drawn from ``rng``, stacked ``(count, size, size)``.

    ``rng`` draws all ``count`` Gaussian matrices, whose QR factors (signs
    fixed by ``diag(R) > 0`` for determinism) give the ``Q``, then all the
    log-uniform spectra ``e`` in ``_SPD_EIGS``.  A non-integral ``size`` or
    ``size < 1`` raises ``FieldError("size", ...)``.
    """
    if not isinstance(size, (int, np.integer)) or size < 1:
        raise FieldError("size", f"size must be a positive integer, got {size!r}")
    gauss = rng.standard_normal((count, size, size))
    log_eigs = rng.uniform(np.log(_SPD_EIGS[0]), np.log(_SPD_EIGS[1]), size=(count, size))
    q, r = np.linalg.qr(gauss)
    q = q * np.sign(np.diagonal(r, axis1=1, axis2=2))[:, None, :]
    matrices = (q * np.exp(log_eigs)[:, None, :]) @ np.swapaxes(q, 1, 2)
    return 0.5 * (matrices + np.swapaxes(matrices, 1, 2))


def random_spd(size: int, seed: int) -> DenseOperator:
    """Random SPD matrix with log-uniform spectrum in ``_SPD_EIGS`` (seeded).

    Drawn by :func:`_spd_stack` from ``np.random.default_rng(seed)``.  A
    negative or non-integral ``seed`` raises ``FieldError("seed", ...)``, a
    non-integral ``size`` or ``size < 1`` ``FieldError("size", ...)``.
    """
    if not isinstance(seed, (int, np.integer)) or seed < 0:
        raise FieldError("seed", f"seed must be a non-negative integer, got {seed!r}")
    return DenseOperator(matrix=_spd_stack(np.random.default_rng(seed), 1, size)[0])
