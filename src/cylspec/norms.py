"""Multi-index combinatorics and factorially weighted derivative norms on grid functions.

The graded seminorms come from one derivative ladder (`graded_seminorms`):
successive Chebyshev derivatives in x1, each applied once for every order, and
the Fourier energies of each rung, where a time derivative is diagonal, so
Parseval weighs the rungs into every order's seminorm.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .operator_model import OperatorSpec
from .spectral import OverflowGuardError, SpectralBasis


@dataclass(frozen=True)
class MultiIndexTable:
    """All alpha in N_0^{n_vars} with |alpha| = ell, with multinomial weights ell!/alpha!."""

    n_vars: int
    ell: int
    indices: tuple[tuple[int, ...], ...]
    weights: tuple[int, ...]


def _compositions(n_vars: int, total: int):
    """All tuples of n_vars nonnegative integers summing to total, lexicographic."""
    if n_vars == 1:
        yield (total,)
        return
    for head in range(total, -1, -1):
        for rest in _compositions(n_vars - 1, total - head):
            yield (head,) + rest


@functools.lru_cache(maxsize=64)
def multi_indices(n_vars: int, ell: int) -> MultiIndexTable:
    if ell < 0 or n_vars < 1:
        raise ValueError("need ell >= 0 and n_vars >= 1")
    fact = math.factorial(ell)
    indices, weights = [], []
    for alpha in sorted(_compositions(n_vars, ell)):
        indices.append(alpha)
        weights.append(fact // math.prod(math.factorial(a) for a in alpha))
    return MultiIndexTable(n_vars, ell, tuple(indices), tuple(weights))


# ---------------------------------------------------------------------------
# norms of grid functions
# ---------------------------------------------------------------------------


def graded_seminorms(u: np.ndarray, top: int, basis: SpectralBasis) -> np.ndarray:
    """The seminorms ||u||_ell for ell = 0..top, from one derivative ladder.

    ||u||_ell^2 = sum over |alpha| = ell of ell!/alpha! ||d^alpha u||^2 in the
    quadrature norm over the cylinder, summed over components.  The ladder
    applies the Chebyshev matrix d1 b = 0..top times, once for all orders, and
    takes each rung's Fourier energies G[b, q] = sum_m w1_m |FFT_x0(d1^b u)_q|^2.
    A time derivative is (iq)^a on mode q, so Parseval gives
        ||u||_ell^2 = (w0/n_t) sum_{a+b=ell} C(ell, a) sum_q q^{2a} G[b, q].
    The rungs are differentiated on the grid, before the FFT, as the per-alpha
    sum does, so the two agree to about 1e-15 for ell <= 4.  The high orders are
    ill-conditioned in both (d1^b amplifies roundoff like M^{2b}).  A top order
    past the overflow guard (more than 64 derivatives, or a worst-case
    amplification over 1e250; both grow with the order) raises OverflowGuardError.
    """
    if top < 0:
        raise ValueError("derivative orders must be nonnegative")
    # log10 of the worst-case amplification: ||d1|| ~ M^2 per space derivative,
    # Q_max per time derivative; linear in the split of the order, so worst at an end
    amplification = max(2.0 * top * math.log10(max(basis.M, 2)),
                        top * math.log10(basis.Q_max + 2))
    if top > 64 or amplification > 250:
        raise OverflowGuardError(f"derivative order {top} exceeds the overflow guard")
    rung = np.asarray(u, dtype=complex)
    energies = np.empty((top + 1, basis.n_time))             # G[b, q]
    for b in range(top + 1):
        if b:
            rung = np.einsum("ms,jsc->jmc", basis.d1, rung)
        f = np.fft.fft(rung, axis=0)
        energies[b] = np.einsum("m,qmc->q", basis.w1, f.real ** 2 + f.imag ** 2)
    q2 = basis.modes.astype(float) ** 2
    moments = np.vander(q2, top + 1, increasing=True).T @ energies.T   # [a, b]
    squares = [sum(math.comb(ell, a) * moments[a, ell - a] for a in range(ell + 1))
               for ell in range(top + 1)]
    return np.sqrt(np.maximum(basis.w0 / basis.n_time * np.array(squares), 0.0))


@dataclass(frozen=True)
class TripleNorm:
    value: float
    tail_bound: float
    terms: tuple[float, ...]


class TruncationError(ValueError):
    """A truncated triple norm whose last two terms, t_prev and t_last, do not decay."""

    def __init__(self, t_prev: float, t_last: float):
        self.t_prev, self.t_last = t_prev, t_last
        super().__init__(f"triple norm truncation not decaying ({t_prev:.3g}, {t_last:.3g});"
                         " raise L_max or lower the band")


def triple_norm(u: np.ndarray, h: int, spec: OperatorSpec, basis: SpectralBasis) -> TripleNorm:
    """Weighted sum over ell of r_ell * ||u||_ell / (ell+h)!, truncated at L_max,
    with every order's seminorm from one `graded_seminorms` call.

    The tail beyond L_max is bounded by a geometric extrapolation of the last two
    retained terms; for band-limited data the terms vanish identically once ell
    exceeds the resolvable degree.
    """
    if h not in (0, 1):
        raise ValueError("h must be 0 or 1")
    weights = [spec.weights.r(ell) for ell in range(spec.L_max + 1)]
    top = max(ell for ell, r in enumerate(weights) if r != 0.0)     # r_0 = 1
    seminorms = graded_seminorms(u, top, basis).tolist()
    terms = [r * seminorms[ell] / math.factorial(ell + h) if r != 0.0 else 0.0
             for ell, r in enumerate(weights)]
    value = float(sum(terms))
    t_last, t_prev = terms[-1], terms[-2] if len(terms) > 1 else 0.0
    if t_last == 0.0:
        tail = 0.0
    elif t_prev > 0.0 and t_last < t_prev:
        ratio = t_last / t_prev
        tail = t_last * ratio / (1.0 - ratio)
    else:
        raise TruncationError(t_prev, t_last)
    return TripleNorm(value=value, tail_bound=tail, terms=tuple(terms))

