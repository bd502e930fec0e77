"""Fourier x Chebyshev collocation on the periodic strip (one spatial dimension).

Grid functions are complex arrays of shape (n_time, n_space, N): trigonometric
band q in [-Q_max, Q_max] on the periodic coordinate times Gauss-Lobatto points
on [-1, 1].  The collocated operator carries no boundary rows: admissible
operators are outflow at the boundary, so the first-order collocation matrix is
used as-is.  scipy is imported in the one routine that calls it
(`ModePencil.schur`), so bases, operators and pencils are built on numpy alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

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


# random_band_limited keeps Chebyshev degrees below this fraction of M
BAND_DEGREE_FRAC = 0.5


def random_band_limited(basis: SpectralBasis, rng: np.random.Generator, N: int = 1,
                        mode_frac: float = 0.5) -> np.ndarray:
    """Random smooth grid function supported on an interior band and low Chebyshev degree."""
    q_lim = max(0, int(basis.Q_max * mode_frac))
    d_lim = max(2, int(basis.M * BAND_DEGREE_FRAC) - 1)
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


def assemble_operator(spec: OperatorSpec, basis: SpectralBasis, z: complex) -> np.ndarray:
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
    return matrix


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


@dataclass(frozen=True)
class ModePencil:
    """D + z*A^0 as one block base0 + (z + i*q)*a0 per mode q in `modes`, acting on
    block columns of grid functions (`columns`, `grid`; `coefficients` maps them to
    Fourier coefficients without the grid).

    With coefficients independent of the periodic coordinate the blocks decouple
    over Fourier modes (FFT order) and a column is one mode's Chebyshev slice;
    otherwise there is one value-space block at mode 0, whose column is the whole
    flattened grid function.

    Block q is a0 (T + (z + i*q) I) with T = a0^{-1} base0 for every q, so one
    triangular Schur form of T (`schur`, taken on first use and kept) serves every
    block, shift and pole cluster of the pencil; a simple pole needs none.  A pencil with no imaginary part (`real`:
    the mode pencil of every real-coefficient spec) is factored and solved for its
    eigenvalues in real arithmetic, and its factors stay real when they can.
    """

    base0: np.ndarray
    a0: np.ndarray
    modes: np.ndarray
    grid_shape: tuple[int, int, int]   # (n_time, n_space, N)

    def columns(self, f: np.ndarray) -> np.ndarray:
        """Block columns (..., blocks, n) of grid functions f (..., n_time, n_space, N)."""
        # one block: the column is the flattened grid function, which for n_time = 1
        # is also its mode-0 coefficient
        if len(self.modes) > 1:
            f = np.fft.fft(f, axis=-3)
        return f.reshape(f.shape[:-3] + (len(self.modes), len(self.a0)))

    def separable_columns(self, weights: np.ndarray, space: np.ndarray) -> np.ndarray:
        """Block columns (..., blocks, n) of the separable grid functions
        weights[..., j] * space, with time weights (..., n_time) and space
        (n_space, N): one FFT of the weights for mode blocks, none for one block."""
        if len(self.modes) > 1:
            weights = np.fft.fft(weights, axis=-1)
        cols = weights[..., None, None] * space
        return cols.reshape(weights.shape[:-1] + (len(self.modes), len(self.a0)))

    def grid(self, cols: np.ndarray) -> np.ndarray:
        """Grid functions of block columns (..., blocks, n); inverse of `columns`."""
        u = cols.reshape(cols.shape[:-2] + self.grid_shape)
        return np.fft.ifft(u, axis=-3) if len(self.modes) > 1 else u

    def coefficients(self, cols: np.ndarray) -> np.ndarray:
        """Fourier coefficients (..., n_time, n_space, N), FFT order, of block columns
        (..., blocks, n), as `fourier_coefficients` of their grid functions: mode
        blocks are the unscaled DFT already, the value-space block takes one FFT."""
        u = cols.reshape(cols.shape[:-2] + self.grid_shape)
        return (np.fft.fft(u, axis=-3) if len(self.modes) == 1 else u) / self.grid_shape[0]

    def apply(self, w: np.ndarray, cols: np.ndarray) -> np.ndarray:
        """(base0 + w*a0) on block columns (..., blocks, n), w (..., blocks) per column."""
        return cols @ self.base0.T + (cols @ self.a0.T) * w[..., None]

    def synthesis(self) -> np.ndarray:
        """`grid` as a (blocks, blocks) matrix on the block axis, times the block
        count: exp(i*q*x0) on the uniform nodes x0, or 1 for one block."""
        n = len(self.modes)
        return np.exp(1j * np.outer(2.0 * np.pi * np.arange(n) / n, self.modes))

    @cached_property
    def real(self) -> bool:
        """Whether neither base0 nor a0 has an imaginary part.  Complex coefficients
        have one, and so may the value-space block, whose DFT leaves roundoff."""
        return not (self.base0.imag.any() or self.a0.imag.any())

    @property
    def parts(self) -> tuple[np.ndarray, np.ndarray]:
        """(base0, a0) in the pencil's arithmetic: a real pencil's real parts, which
        `dggev` solves at under half the cost of `zggev` and BLAS multiplies as reals."""
        return (self.base0.real, self.a0.real) if self.real else (self.base0, self.a0)

    @cached_property
    def schur(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(S, U, left): the triangular Schur form a0^{-1} base0 = U S U^H, unsorted,
        and left = U^H a0^{-1}.  A real pencil takes the real Schur form of T and
        splits its 2 x 2 blocks (`rsf2csf`), at under half the cost of a complex
        Schur form.  One rule, like `real`: when S, U and left have no imaginary
        part (a real T with no 2 x 2 block, as for EX1, EX1S and CE-FLAT), the
        three are float64 and `resolvent._schur_solve` multiplies them as reals;
        otherwise (a 2 x 2 block, as for CE-BDY at m32, or a complex pencil) they
        are complex."""
        import scipy.linalg

        if self.real:
            T = np.linalg.solve(self.a0.real, self.base0.real)
            tri, U = scipy.linalg.rsf2csf(*scipy.linalg.schur(T))
        else:
            tri, U = scipy.linalg.schur(np.linalg.solve(self.a0, self.base0), output="complex")
        factors = (tri, U, np.linalg.solve(self.a0.T, U.conj()).T)
        if any(x.imag.any() for x in factors):
            return factors
        return tuple(np.ascontiguousarray(x.real) for x in factors)


def mode_operator_parts(spec: OperatorSpec, basis: SpectralBasis) -> ModePencil:
    """The pencil of D + z*A^0 on this basis: the only place that asks whether the
    coefficients depend on the periodic coordinate.

    Independent coefficients give the mode-0 block A^1 d1 + B on Chebyshev slices,
    so block q is base0 + (z + i*q)*A^0; dependent ones give the dense collocation
    matrix at z = 0 as one block.
    """
    _require_one_space_dim(spec)
    shape = (basis.n_time, basis.n_space, spec.N)
    if not spec.x0_independent():
        return ModePencil(assemble_operator(spec, basis, 0.0),
                          multiplier_matrix(spec, basis), np.zeros(1, dtype=int), shape)
    grid = (np.array([0.0]), basis.x1)
    a0, a1, b = (coeff.eval_grid(*grid) for coeff in (spec.A[0], spec.A[1], spec.B))
    mult_a0 = _block_diag_multiplier(a0)
    deriv = np.einsum("mk,mab->makb", basis.d1, a1[0]).reshape(mult_a0.shape)
    return ModePencil(deriv + _block_diag_multiplier(b), mult_a0, basis.modes, shape)
