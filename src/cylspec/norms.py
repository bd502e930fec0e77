"""Multi-index combinatorics and factorially weighted derivative norms on grid functions."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .operator_model import OperatorSpec
from .spectral import SpectralBasis, apply_derivative, inner_product


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


def sobolev_seminorm(u: np.ndarray, ell: int, basis: SpectralBasis) -> float:
    """Order-ell seminorm: weighted l2 of all derivatives d^alpha u with |alpha| = ell.

    Derivatives are spectral; the underlying integral is the quadrature norm over
    the cylinder, summed over components.
    """
    table = multi_indices(2, ell)  # grid engine is 1+1 dimensional
    total = 0.0
    for alpha, w in zip(table.indices, table.weights):
        du = apply_derivative(u, alpha, basis)
        total += w * inner_product(du, du, basis).real
    return math.sqrt(max(total, 0.0))


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
    """Weighted sum over ell of r_ell * ||u||_ell / (ell+h)!, truncated at L_max.

    The tail beyond L_max is bounded by a geometric extrapolation of the last two
    retained terms; for band-limited data the terms vanish identically once ell
    exceeds the resolvable degree.
    """
    if h not in (0, 1):
        raise ValueError("h must be 0 or 1")
    terms = []
    for ell in range(spec.L_max + 1):
        r = spec.weights.r(ell)
        if r == 0.0:
            terms.append(0.0)
            continue
        terms.append(r * sobolev_seminorm(u, ell, basis) / math.factorial(ell + h))
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

