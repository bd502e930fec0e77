"""Fourier x Chebyshev collocation on the periodic strip (one spatial dimension).

Grid functions are complex arrays of shape (n_time, n_space, N): trigonometric
band q in [-Q_max, Q_max] on the periodic coordinate times Gauss-Lobatto points
on [-1, 1].  The collocated operator carries no boundary rows: admissible
operators are outflow at the boundary, so the first-order collocation matrix is
used as-is.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .operator_model import OperatorSpec, SpecError


class OverflowGuardError(ValueError):
    """Requested derivative order would amplify roundoff past any useful scale."""


def chebyshev_points(M: int) -> np.ndarray:
    """Gauss-Lobatto points cos(pi*m/M), m = 0..M, descending from 1 to -1."""
    return np.cos(np.pi * np.arange(M + 1) / M)


def chebyshev_diff(M: int) -> np.ndarray:
    """Differentiation matrix on the Gauss-Lobatto points (standard dense form)."""
    if M == 0:
        return np.zeros((1, 1))
    x = chebyshev_points(M)
    c = np.hstack([2.0, np.ones(M - 1), 2.0]) * (-1.0) ** np.arange(M + 1)
    X = np.tile(x, (M + 1, 1)).T
    dX = X - X.T
    D = np.outer(c, 1.0 / c) / (dX + np.eye(M + 1))
    D -= np.diag(D.sum(axis=1))
    return D


def clenshaw_curtis_weights(M: int) -> np.ndarray:
    """Quadrature weights on the Gauss-Lobatto points, exact for degree <= M."""
    if M == 0:
        return np.array([2.0])
    theta = np.pi * np.arange(M + 1) / M
    w = np.zeros(M + 1)
    ii = np.arange(1, M)
    v = np.ones(M - 1)
    if M % 2 == 0:
        w[0] = w[M] = 1.0 / (M**2 - 1)
        for k in range(1, M // 2):
            v -= 2.0 * np.cos(2.0 * k * theta[ii]) / (4.0 * k**2 - 1)
        v -= np.cos(M * theta[ii]) / (M**2 - 1)
    else:
        w[0] = w[M] = 1.0 / M**2
        for k in range(1, (M - 1) // 2 + 1):
            v -= 2.0 * np.cos(2.0 * k * theta[ii]) / (4.0 * k**2 - 1)
    w[ii] = 2.0 * v / M
    return w


@dataclass(frozen=True)
class SpectralBasis:
    """Tensor collocation grid with quadrature and differentiation operators."""

    Q_max: int
    M: int
    x0: np.ndarray          # (n_time,) uniform nodes on [0, 2*pi)
    x1: np.ndarray          # (M+1,) Gauss-Lobatto nodes, descending
    w0: float               # uniform quadrature weight 2*pi/n_time
    w1: np.ndarray          # (M+1,) Clenshaw-Curtis weights
    d0: np.ndarray          # (n_time, n_time) trigonometric differentiation
    d1: np.ndarray          # (M+1, M+1) Chebyshev differentiation
    modes: np.ndarray       # (n_time,) integer mode numbers in FFT order

    @property
    def n_time(self) -> int:
        return 2 * self.Q_max + 1

    @property
    def n_space(self) -> int:
        return self.M + 1

    def grid_size(self, N: int) -> int:
        return self.n_time * self.n_space * N

    def flat_index(self, j: int, m: int, c: int, N: int) -> int:
        return (j * self.n_space + m) * N + c


def build_basis(Q_max: int, M: int) -> SpectralBasis:
    if Q_max < 0 or M < 2:
        raise ValueError("need Q_max >= 0 and M >= 2")
    n_t = 2 * Q_max + 1
    x0 = 2.0 * np.pi * np.arange(n_t) / n_t
    modes = np.fft.fftfreq(n_t, d=1.0 / n_t).astype(int)  # 0, 1, .., Q, -Q, .., -1
    V = np.exp(1j * np.outer(x0, modes))
    d0 = (V * (1j * modes)) @ V.conj().T / n_t
    return SpectralBasis(
        Q_max=Q_max, M=M, x0=x0, x1=chebyshev_points(M),
        w0=2.0 * np.pi / n_t, w1=clenshaw_curtis_weights(M),
        d0=d0, d1=chebyshev_diff(M), modes=modes,
    )


# ---------------------------------------------------------------------------
# grid function helpers
# ---------------------------------------------------------------------------


def as_grid_function(u: np.ndarray, basis: SpectralBasis, N: int = 1) -> np.ndarray:
    u = np.asarray(u, dtype=complex)
    expected = (basis.n_time, basis.n_space, N)
    if u.shape == expected[:2]:
        u = u[..., None]
    if u.shape != expected:
        raise ValueError(f"grid function must have shape {expected}, got {u.shape}")
    return u


def inner_product(u: np.ndarray, v: np.ndarray, basis: SpectralBasis) -> complex:
    """Quadrature realization of the L2 inner product over the cylinder."""
    weights = basis.w0 * basis.w1[None, :, None]
    return complex(np.sum(weights * np.conj(u) * v))


def l2_norm(u: np.ndarray, basis: SpectralBasis) -> float:
    return math.sqrt(max(inner_product(u, u, basis).real, 0.0))


def apply_derivative(u: np.ndarray, alpha, basis: SpectralBasis) -> np.ndarray:
    """Spectral derivative d^alpha on the tensor grid, exact on the represented band."""
    a0, a1 = int(alpha[0]), int(alpha[1])
    if a0 < 0 or a1 < 0:
        raise ValueError("derivative orders must be nonnegative")
    # log10 of the worst-case amplification: ||d1|| ~ M^2 per space derivative,
    # Q_max per time derivative
    amplification = 2.0 * a1 * math.log10(max(basis.M, 2)) + a0 * math.log10(basis.Q_max + 2)
    if a0 + a1 > 64 or amplification > 250:
        raise OverflowGuardError(f"derivative order {alpha} exceeds the overflow guard")
    out = np.asarray(u, dtype=complex)
    if a0:
        spec_u = np.fft.fft(out, axis=0)
        spec_u *= (1j * basis.modes)[:, None, None] ** a0
        out = np.fft.ifft(spec_u, axis=0)
    for _ in range(a1):
        out = np.einsum("ms,jsc->jmc", basis.d1, out)
    return out


def fourier_coefficients(u: np.ndarray, basis: SpectralBasis) -> np.ndarray:
    """Mode coefficients along the periodic axis of (..., n_time, n_space, N), FFT order."""
    return np.fft.fft(u, axis=-3) / basis.n_time


def chebyshev_coefficients(values: np.ndarray) -> np.ndarray:
    """Chebyshev coefficients of data sampled on descending Gauss-Lobatto points."""
    M = values.shape[0] - 1
    if M == 0:
        return np.asarray(values, dtype=complex).copy()
    ext = np.concatenate([values, values[-2:0:-1]], axis=0)
    coeff = np.fft.fft(ext, axis=0)[: M + 1] / M
    coeff[0] *= 0.5
    coeff[M] *= 0.5
    return coeff


def phase_shift_matrix(basis: SpectralBasis, N: int, sign: int = +1) -> np.ndarray:
    """Diagonal multiplication by exp(sign*i*x0) on flattened grid functions."""
    phase = np.exp(sign * 1j * basis.x0)
    diag = np.repeat(phase, basis.n_space * N)
    return np.diag(diag)


def interior_mode_projector(basis: SpectralBasis, N: int, drop: int = 1) -> np.ndarray:
    """Projector (as a dense matrix) onto Fourier modes |q| <= Q_max - drop."""
    n_t = basis.n_time
    V = np.exp(1j * np.outer(basis.x0, basis.modes))
    mask = (np.abs(basis.modes) <= basis.Q_max - drop).astype(float)
    P_t = (V * mask) @ V.conj().T / n_t
    return np.kron(P_t, np.eye(basis.n_space * N))


def random_band_limited(basis: SpectralBasis, rng: np.random.Generator, N: int = 1,
                        mode_frac: float = 0.5, degree_frac: float = 0.5) -> np.ndarray:
    """Random smooth grid function supported on an interior band and low Chebyshev degree."""
    q_lim = max(0, int(basis.Q_max * mode_frac))
    d_lim = max(2, int(basis.M * degree_frac) - 1)
    u = np.zeros((basis.n_time, basis.n_space, N), dtype=complex)
    x = basis.x1
    for q in range(-q_lim, q_lim + 1):
        phase = np.exp(1j * q * basis.x0)
        coeff = rng.standard_normal((d_lim + 1, N)) + 1j * rng.standard_normal((d_lim + 1, N))
        coeff /= (1.0 + np.abs(q)) * (1.0 + np.arange(d_lim + 1))[:, None] ** 2
        poly = np.polynomial.chebyshev.chebval(x, coeff)  # (N, n_space)
        u += phase[:, None, None] * poly.T[None, :, :]
    return u


# ---------------------------------------------------------------------------
# operator assembly
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ResolventAssembly:
    """Dense collocation matrix of the shifted operator at a fixed complex shift z."""

    z: complex
    matrix: np.ndarray
    basis: SpectralBasis
    N: int
    mode_decoupled: bool
    a0_matrix: np.ndarray | None = None

    @property
    def size(self) -> int:
        return self.matrix.shape[0]

    def to_csv(self, path: str, manifest_hash: str = "") -> None:
        with open(path, "w", encoding="utf-8") as fh:
            if manifest_hash:
                fh.write(f"# manifest: {manifest_hash}\n")
            for row in self.matrix:
                fh.write(",".join(f"{v.real!r},{v.imag!r}" for v in row) + "\n")


def _require_one_space_dim(spec: OperatorSpec) -> None:
    if spec.n != 1:
        raise SpecError("grid engine supports n=1 only; use the polynomial eigentable for n >= 2")


def coefficient_values(spec: OperatorSpec, basis: SpectralBasis):
    """Pointwise coefficient matrices on the tensor grid: (A0, A1, B) with shape (nt, nx, N, N)."""
    _require_one_space_dim(spec)
    a0 = spec.A[0].eval_grid(basis.x0, basis.x1)
    a1 = spec.A[1].eval_grid(basis.x0, basis.x1)
    b = spec.B.eval_grid(basis.x0, basis.x1)
    return a0, a1, b


def assemble_operator(spec: OperatorSpec, basis: SpectralBasis, z: complex) -> ResolventAssembly:
    """Dense collocation matrix of D + z*A^0 with no boundary rows.

    Admissibility (1)-(2) is a precondition: the outflow property is what makes
    the raw collocated operator the correct discrete realization.  When the
    coefficients do not depend on the periodic coordinate the matrix is block
    diagonal over Fourier modes.
    """
    _require_one_space_dim(spec)
    max_x0_degree = max(p.var_degree(0) for p in list(spec.A) + [spec.B])
    if max_x0_degree > 0 and max_x0_degree > basis.Q_max / 2:
        raise SpecError(
            f"coefficient degree {max_x0_degree} in the periodic coordinate exceeds "
            f"the dealiasing bound Q_max/2 = {basis.Q_max / 2}"
        )
    N = spec.N
    nt, nx = basis.n_time, basis.n_space
    size = nt * nx * N
    a0, a1, b = coefficient_values(spec, basis)
    bz = b + z * a0

    # derivative operators on flattened indices (j, m, c)
    K0 = np.kron(basis.d0, np.eye(nx * N))
    K1 = np.kron(np.eye(nt), np.kron(basis.d1, np.eye(N)))

    def apply_coeff(coeff: np.ndarray, mat: np.ndarray) -> np.ndarray:
        tens = mat.reshape(nt, nx, N, size)
        out = np.einsum("jmab,jmbk->jmak", coeff, tens)
        return out.reshape(size, size)

    matrix = apply_coeff(a0, K0) + apply_coeff(a1, K1)
    matrix += _block_diag_multiplier(bz)
    return ResolventAssembly(
        z=z, matrix=matrix, basis=basis, N=N, mode_decoupled=spec.x0_independent(),
        a0_matrix=_block_diag_multiplier(a0),
    )


def _block_diag_multiplier(coeff: np.ndarray) -> np.ndarray:
    """Dense matrix of pointwise multiplication by coeff with shape (nt, nx, N, N)."""
    nt, nx, N, _ = coeff.shape
    idx = np.arange(nt * nx)
    out = np.zeros((nt * nx, N, nt * nx, N), dtype=complex)
    out[idx, :, idx, :] = coeff.reshape(nt * nx, N, N)
    return out.reshape(nt * nx * N, nt * nx * N)


def multiplier_matrix(spec: OperatorSpec, basis: SpectralBasis) -> np.ndarray:
    """Dense matrix of pointwise multiplication by A^0 (flattened grid indices)."""
    a0, _, _ = coefficient_values(spec, basis)
    return _block_diag_multiplier(a0)


def mode_operator_parts(spec: OperatorSpec, basis: SpectralBasis) -> tuple[np.ndarray, np.ndarray]:
    """Stacked per-mode pieces (base, a0) with block q of D + z*A^0 = base[q] + z*a0.

    Block q acts on Chebyshev slices as i*q*A^0 + A^1 d1 + B + z*A^0; valid only
    when the coefficients are independent of the periodic coordinate.
    """
    _require_one_space_dim(spec)
    if not spec.x0_independent():
        raise SpecError("mode decoupling requires coefficients independent of x0")
    grid = (np.array([0.0]), basis.x1)
    a0, a1, b = (coeff.eval_grid(*grid) for coeff in (spec.A[0], spec.A[1], spec.B))
    mult_a0 = _block_diag_multiplier(a0)
    mult_b = _block_diag_multiplier(b)
    deriv = np.einsum("mk,mab->makb", basis.d1, a1[0]).reshape(mult_a0.shape)
    base = np.stack([1j * q * mult_a0 + deriv + mult_b for q in basis.modes])
    return base, mult_a0
