"""Reference implementations the package is tested against, kept out of the library.

``log_sobolev_norm`` is the natural log of a Sobolev norm, summed term by
term in log space, so it holds norms past the largest float.

``box_transport`` is the Dirichlet-box transport kernel as it ran on
``scipy.fft``'s unnormalized type-1 transforms, one transform per series and
axis, before the kernel moved to paired ``numpy.fft.rfft`` lines.  It is
slower and unpaired, so its round-off differs from the kernel's, and it
reads only the public layout of a field's coefficients.

``derivative_symbols`` are the full-layout torus multipliers ``i k_j`` the
transport plan once cut its divergence table from; the plan now forms that
table on its kept block, and the composed transport oracles read these.
``dealias_mask`` is the full-layout 2/3-rule mask those tables were cut
with, which no run reads either.
"""

from __future__ import annotations

import math

import numpy as np
import scipy.fft

from sqglab.errors import BasisError
from sqglab.spectral import Basis, DomainSpec, SpectralField


def derivative_symbols(domain: DomainSpec) -> tuple[np.ndarray, np.ndarray]:
    """(ik₁, ik₂) multipliers for spectral derivatives (torus only).

    The Nyquist line is zeroed: the odd symbol has no conjugate partner
    there, and keeping it would break realness of derivatives.
    """
    if domain.basis is not Basis.TORUS:
        raise BasisError("derivative symbols are defined on the torus only")
    i1, i2 = domain.index_grids
    scale = 2.0 * math.pi / domain.box
    d1 = 1j * scale * i1.astype(float)
    d2 = 1j * scale * i2.astype(float)
    nyq = domain.n // 2
    d1 = np.where(np.abs(i1) == nyq, 0.0, d1)
    d2 = np.where(np.abs(i2) == nyq, 0.0, d2)
    return d1, d2


def dealias_mask(domain: DomainSpec) -> np.ndarray:
    """True on modes kept by the 2/3 rule: max(|k₁|,|k₂|) ≤ n/3."""
    i1, i2 = domain.index_grids
    return np.maximum(np.abs(i1), np.abs(i2)) <= domain.n / 3.0


def log_sobolev_norm(field: SpectralField, s: float) -> float:
    """``log`` of ``sobolev_norm(field, s)``, one ``math.log`` per nonzero coefficient.

    Each term is ``2 log|c| + s log|k|^2``, and the torus zero mode
    weighs 1 for ``s >= 0`` and 0 below, so no weight, square or sum
    leaves the float range whatever the order.
    """
    logs = []
    for coeff, mu in zip(field.coeffs.ravel(), field.domain.laplacian_symbol.ravel()):
        if coeff == 0 or (mu == 0 and s < 0):
            continue
        logs.append(2.0 * math.log(abs(coeff)) + (s * math.log(mu) if mu else 0.0))
    top = max(logs)
    return (top + math.log(math.fsum(math.exp(t - top) for t in logs))) / 2.0


def box_transport(domain: DomainSpec, coeffs: np.ndarray) -> tuple[np.ndarray, float]:
    """Dealiased ``-div(u theta)`` on the ``[:2n/3, :2n/3]`` block of sine modes, and max|u|.

    Theta (sine-sine), u1 = d2 psi (sine-cosine, ``(n-1, n+1)``) and u2 =
    -d1 psi (cosine-sine, ``(n+1, n-1)``) are synthesized on the box grid
    from the modes ``k <= n/3`` by ``scipy.fft.dst``/``dct`` of type 1; the
    fluxes go back through the mirrored pair and the output keeps the modes
    ``k <= 2n/3``.
    """
    n, box = domain.n, domain.box
    m, cut = n // 3, 2 * n // 3
    k = np.arange(1, n, dtype=float)
    k1, k2 = np.broadcast_arrays(k[:m, None], k[None, :m])
    mag = np.hypot(k1, k2)
    block = coeffs[:m, :m]
    # the unnormalized transforms carry a factor 2 per axis
    u1 = _synthesize(k2 / mag / (2.0 * box) * block, ("dst", "dct"), n)
    u2 = _synthesize(-k1 / mag / (2.0 * box) * block, ("dct", "dst"), n)
    theta = _synthesize(np.ones(mag.shape) / (2.0 * box) * block, ("dst", "dst"), n)
    speed = float(max(np.abs(u1).max(), np.abs(u2).max()))
    # theta vanishes on the boundary ring, so each flux is zero there
    flux1 = np.zeros((n + 1, n - 1))
    flux1[1:n] = u1[:, 1:n] * theta
    flux2 = np.zeros((n - 1, n + 1))
    flux2[:, 1:n] = u2[1:n] * theta
    f1 = scipy.fft.dst(scipy.fft.dct(flux1, type=1, axis=0)[1 : cut + 1], type=1, axis=1)
    f2 = scipy.fft.dct(scipy.fft.dst(flux2, type=1, axis=0)[:cut], type=1, axis=1)
    c1, c2 = np.broadcast_arrays(k[:cut, None], k[None, :cut])
    scale = math.pi / (2.0 * n * n)
    return (c1 * scale) * f1[:, :cut] + (c2 * scale) * f2[:, 1 : cut + 1], speed


def _synthesize(coeffs: np.ndarray, kinds: tuple[str, str], n: int) -> np.ndarray:
    """Grid values of a series with the given per-axis kinds: sine modes 1 .. m, cosine modes 1 .. m.

    A sine axis has the ``n-1`` interior points, a cosine axis all ``n+1``.
    """
    m = len(coeffs)
    shape = tuple(n - 1 if kind == "dst" else n + 1 for kind in kinds)
    padded = np.zeros(shape)
    first = tuple(0 if kind == "dst" else 1 for kind in kinds)
    padded[first[0] : first[0] + m, first[1] : first[1] + m] = coeffs
    for axis in (1, 0):
        padded = getattr(scipy.fft, kinds[axis])(padded, type=1, axis=axis)
    return padded
