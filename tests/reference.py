"""Dense cross-checks of the pipeline that no pipeline runs.

The library computes a pole's projections exactly from the pole set's Schur form
(`resolvent.loop_projections`); here they come from dense trapezoid loop
integrals of the value-space resolvent (`spectral_projection`).  The resolvent
identities are checked at the matrix level (`verify_resolvent_identities`), and
the combinatorial identities behind the graded norms by brute force in exact
arithmetic (`check_combinatorial_identity`, `resummation_coefficient`).
Growth rates come from the period map's Floquet exponents
(`timedomain.growth_rate`); here from random smooth data marched over whole
periods and a log-slope fit (`random_run_growth_rate`).  The graded seminorms
come from one derivative ladder (`norms.graded_seminorms`); here from one
spectral derivative per multi-index on the grid and its quadrature norm
(`sobolev_seminorm`, `apply_derivative`, `inner_product`), and a coefficient's
d^alpha p from its ladder (`MatrixPolynomial.derivatives`); here by single
derivatives in variable order (`derivative_multi`).  Poles are grouped on the
cylinder from one matrix of pairwise distances (`resolvent._strip_clusters`);
here one point at a time (`greedy_strip_clusters`).  Admissibility sampling
adds a constant term's matrix as it is and each monomial's products on the
float view (`MatrixPolynomial.eval_points`); here every monomial starts from 1
and multiplies as a complex number (`monomial_eval_points`).  Condition (iii)'s
form is one Hermitian polynomial (`operator_model._certificate_form`); here it
is (n+1)^2 polynomial blocks, put together and symmetrized per sample, that
skip the products with a zero certificate matrix (`_certificate_blocks`) or
form every one of them (`unskipped_certificate_blocks`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from cylspec import timedomain
from cylspec.norms import _compositions, multi_indices
from cylspec.operator_model import OperatorSpec, SpecError
from cylspec.polynomial import MatrixPolynomial
from cylspec.resolvent import CLUSTER_TOL, PoleSet, _strip_distance, resolvent_matrix_for
from cylspec.spectral import OverflowGuardError, SpectralBasis, multiplier_matrix

# ---------------------------------------------------------------------------
# dense loop-integral projections
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ProjectionMatrix:
    lam: complex
    ell: int
    matrix: np.ndarray
    contour: dict = field(default_factory=dict)


def _loop_nodes(center: complex, radius: float, n_nodes: int):
    theta = 2.0 * np.pi * np.arange(n_nodes) / n_nodes
    return center + radius * np.exp(1j * theta), np.exp(1j * theta)


def spectral_projection(spec: OperatorSpec, basis: SpectralBasis, lam: complex, ell: int,
                        *, pole_set: PoleSet | None = None, radius: float | None = None,
                        n_nodes: int = 32) -> ProjectionMatrix:
    """Loop-integral projection (2*pi*i)^{-1} x integral of (z-lam)^l D_z^{-1} about lam.

    The radius defaults to find_poles' loop radius when lam is a pole of pole_set,
    and to 0.2 otherwise.
    """
    if radius is None:
        poles = pole_set.poles if pole_set is not None else ()
        radius = next((p.radius for p in poles if _strip_distance(p.lam, lam) <= 1e-8), 0.2)
    if pole_set is not None:
        for p in pole_set.poles:
            d = _strip_distance(p.lam, lam)
            if 1e-8 < d < 2 * radius:
                raise SpecError(
                    f"loop of radius {radius} about {lam} too close to pole {p.lam}"
                )
    # trapezoid rule on the circle |z - lam| = radius
    nodes, phases = _loop_nodes(lam, radius, n_nodes)
    mat = sum(resolvent_matrix_for(spec, basis, z) * ph ** (ell + 1)
              for z, ph in zip(nodes, phases)) * (radius ** (ell + 1) / n_nodes)
    return ProjectionMatrix(
        lam=lam, ell=ell, matrix=mat,
        contour={"center": lam, "radius": radius, "nodes": n_nodes},
    )


# ---------------------------------------------------------------------------
# matrix-level resolvent identities
# ---------------------------------------------------------------------------


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


def verify_resolvent_identities(spec: OperatorSpec, basis: SpectralBasis,
                                w: complex, w_prime: complex) -> dict:
    """First resolvent identity and shift-by-i conjugation at the matrix level.

    The conjugation check restricts inputs to interior Fourier modes; the band
    edge cannot support an exact mode shift.
    """
    rw = resolvent_matrix_for(spec, basis, w)
    rwp = resolvent_matrix_for(spec, basis, w_prime)
    a0 = multiplier_matrix(spec, basis)
    lhs = rw - rwp + (w - w_prime) * (rw @ a0 @ rwp)
    scale = max(np.linalg.norm(rw), np.linalg.norm(rwp), 1.0)
    resolvent_err = float(np.linalg.norm(lhs)) / scale

    rwi = resolvent_matrix_for(spec, basis, w + 1j)
    shift = phase_shift_matrix(basis, spec.N, +1)
    shift_inv = phase_shift_matrix(basis, spec.N, -1)
    proj = interior_mode_projector(basis, spec.N, drop=1)
    conj_lhs = (rwi - shift_inv @ rw @ shift) @ proj
    conj_err = float(np.linalg.norm(conj_lhs)) / scale
    return {
        "w": w, "w_prime": w_prime,
        "resolvent_identity_error": resolvent_err,
        "conjugation_error": conj_err,
    }


# ---------------------------------------------------------------------------
# per-alpha graded seminorms
# ---------------------------------------------------------------------------


def inner_product(u: np.ndarray, v: np.ndarray, basis: SpectralBasis) -> complex:
    """Quadrature realization of the L2 inner product over the cylinder."""
    weights = basis.w0 * basis.w1[None, :, None]
    return complex(np.sum(weights * np.conj(u) * v))


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


def derivative_multi(p: MatrixPolynomial, alpha) -> MatrixPolynomial:
    """d^alpha p by single derivatives: alpha_0 in x0, then alpha_1 in x1, ..."""
    out = p
    for var, order in enumerate(alpha):
        for _ in range(order):
            out = out.derivative(var)
    return out


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


# ---------------------------------------------------------------------------
# combinatorial identities
# ---------------------------------------------------------------------------


# relative tolerance of check_combinatorial_identity
IDENTITY_TOL = 1e-12


def check_combinatorial_identity(n_vars: int, ell: int,
                                 c: dict[tuple[int, ...], complex]) -> bool:
    """Whether the neighbor-sum identity holds for the collection c on |alpha| = ell.

    Summing c over the n_vars successors of every |beta| = ell-1 with weights
    (ell-1)!/beta! must reproduce the weighted sum over |alpha| = ell.
    """
    if ell < 1:
        raise ValueError("identity needs ell >= 1")
    lower, upper = multi_indices(n_vars, ell - 1), multi_indices(n_vars, ell)
    lhs = 0.0 + 0.0j
    for beta, w in zip(lower.indices, lower.weights):
        for i in range(n_vars):
            alpha = tuple(b + (1 if j == i else 0) for j, b in enumerate(beta))
            lhs += w * c.get(alpha, 0.0)
    rhs = sum(w * c.get(alpha, 0.0) for alpha, w in zip(upper.indices, upper.weights))
    scale = max(abs(lhs), abs(rhs), 1.0)
    return abs(lhs - rhs) <= IDENTITY_TOL * scale


def resummation_coefficient(n: int, ell: int, k: int, gamma: tuple[int, ...]) -> Fraction:
    """Brute-force count of weighted (alpha, beta, i) chains landing on gamma.

    For |gamma| = ell-k+1 this is the coefficient appearing when an order-ell
    weighted square sum of k-th coefficient derivatives is re-expressed as a sum
    over the derivative index gamma; it is independent of gamma and equals
    C(ell, k) * C(ell+n, k).  Exact rational arithmetic throughout.
    """
    if not 0 <= k <= ell:
        raise ValueError("need 0 <= k <= ell")
    n_vars = n + 1
    if len(gamma) != n_vars or sum(gamma) != ell - k + 1:
        raise ValueError("gamma must have |gamma| = ell-k+1")
    total = Fraction(0)
    k_fact = math.factorial(k)
    ell_fact = math.factorial(ell)
    for alpha in _compositions(n_vars, ell):
        alpha_fact = math.prod(math.factorial(a) for a in alpha)
        w_alpha = Fraction(ell_fact, alpha_fact)
        for beta in _compositions(n_vars, k):
            if any(b > a for a, b in zip(alpha, beta)):
                continue
            binom = math.prod(math.comb(a, b) for a, b in zip(alpha, beta))
            beta_fact = math.prod(math.factorial(b) for b in beta)
            for i in range(n_vars):
                target = tuple(a - b + (1 if j == i else 0)
                               for j, (a, b) in enumerate(zip(alpha, beta)))
                if target == gamma:
                    total += w_alpha * Fraction(beta_fact, k_fact) * binom * binom
    gamma_fact = math.prod(math.factorial(g) for g in gamma)
    return total * Fraction(gamma_fact, math.factorial(ell - k + 1))


def check_resummation_coefficient(n: int, ell: int, k: int) -> bool:
    """Verify the closed form C(ell,k)*C(ell+n,k) for every |gamma| = ell-k+1, exactly."""
    expected = Fraction(math.comb(ell, k) * math.comb(ell + n, k))
    return all(
        resummation_coefficient(n, ell, k, gamma) == expected
        for gamma in _compositions(n + 1, ell - k + 1)
    )


# ---------------------------------------------------------------------------
# pole clusters on the cylinder
# ---------------------------------------------------------------------------


def greedy_strip_clusters(zs) -> list[list[int]]:
    """Indices of zs grouped into poles, one point at a time: each joins the first
    cluster whose first member lies within CLUSTER_TOL on the cylinder."""
    clusters: list[list[int]] = []
    for k, z in enumerate(zs):
        cl = next((cl for cl in clusters if _strip_distance(zs[cl[0]], z) <= CLUSTER_TOL), [])
        if not cl:
            clusters.append(cl)
        cl.append(k)
    return clusters


# ---------------------------------------------------------------------------
# admissibility sampling without its fast paths
# ---------------------------------------------------------------------------


def monomial_eval_points(p: MatrixPolynomial, pts) -> np.ndarray:
    """p at the rows of pts, each term's monomial built up from 1, constant terms too."""
    x = np.asarray(pts, dtype=float)
    out = np.zeros((len(x),) + p.shape, dtype=complex)
    for alpha, mat in p.terms.items():
        mono = np.ones(len(x))
        for col, ai in zip(x.T, alpha):
            if ai:
                mono = mono * np.float_power(col, ai)
        out += mono[:, None, None] * mat
    return out


def _certificate_blocks(spec: OperatorSpec) -> list[list[MatrixPolynomial]]:
    """Blocks xi*A^{ij} + (A^i Xi^j + (Xi^i)^† A^j)/2 of the certified quadratic form.

    A product with a zero Xi is the zero polynomial, and adding it changes no
    coefficient, so it is not formed.
    """
    A, xi, Xi = spec.A, spec.certificate.xi, spec.certificate.Xi

    def block(i: int, j: int) -> MatrixPolynomial:
        blk = xi * (0.5 * (A[j].derivative(i) + A[i].derivative(j)))
        if not Xi[j].is_zero:
            blk = blk + 0.5 * (A[i] @ Xi[j])
        if not Xi[i].is_zero:
            blk = blk + 0.5 * (Xi[i].adjoint() @ A[j])
        return blk

    return [[block(i, j) for j in range(spec.n + 1)] for i in range(spec.n + 1)]


def unskipped_certificate_blocks(spec: OperatorSpec) -> list[list[MatrixPolynomial]]:
    """xi*A^{ij} + (A^i Xi^j + (Xi^i)^† A^j)/2 with both products formed, zero or not."""
    A, xi, Xi = spec.A, spec.certificate.xi, spec.certificate.Xi
    return [[xi * (0.5 * (A[j].derivative(i) + A[i].derivative(j)))
             + 0.5 * (A[i] @ Xi[j]) + 0.5 * (Xi[i].adjoint() @ A[j])
             for j in range(spec.n + 1)] for i in range(spec.n + 1)]


# ---------------------------------------------------------------------------
# growth rates from random runs
# ---------------------------------------------------------------------------


# random_run_growth_rate's fit skips slices below FIT_FLOOR_REL times the run's
# largest slice norm: a decaying run bottoms out at roundoff there, not at its rate
FIT_FLOOR_REL = 1e3 * np.finfo(float).eps
# random initial conditions per random_run_growth_rate
GROWTH_RUNS = 3


def random_run_growth_rate(spec: OperatorSpec, basis: SpectralBasis, *, periods: int = 12,
                           seed: int = 0, z: float = 0.0) -> timedomain.GrowthReport:
    """Dominant growth rate of the homogeneous evolution of the operator shifted by
    z*A^0, from random smooth data.

    Runs several random initial conditions; the rate is the median fitted slope
    of the log slice norm over the last half of the window.  The evolution is
    modal when all runs settle onto one normalized profile; a plateau (rate near
    zero) without modal collapse flags a non-modal neutral space.
    """
    if periods < 10:
        raise ValueError("growth rate needs a window of at least 10 periods")
    rng = np.random.default_rng(seed)
    span = periods * 2.0 * np.pi
    inits = [timedomain.random_smooth_slice(rng, basis, spec.N).reshape(-1)
             for _ in range(GROWTH_RUNS)]
    # the runs march together, one column each
    n_steps, stride = timedomain._step_plan(
        span, timedomain.stable_time_step(spec, basis, z), 16)
    prop = timedomain._propagator(spec, basis, z, span / n_steps)
    states = timedomain._march(prop, np.stack(inits, axis=1), 0.0, n_steps, stride)
    times = prop.h * np.arange(0, n_steps + 1, stride)
    half = times >= span / 2
    rates, profiles = [], []
    for k in range(GROWTH_RUNS):
        values = states[:, :, k].reshape(len(times), basis.n_space, spec.N)
        norms = timedomain.FieldOnCover(times, values, basis).slice_norms()
        fit = half & (norms > FIT_FLOOR_REL * norms.max())
        rates.append(timedomain.fit_log_slope(times[fit], norms[fit]))
        final = values[-1]
        nrm = np.linalg.norm(final)
        profiles.append(final / nrm if nrm > 0 else final)
    rate = float(np.median(rates))
    # modal: all normalized end states agree up to phase
    modal = True
    for i in range(len(profiles)):
        for j in range(i + 1, len(profiles)):
            overlap = abs(np.vdot(profiles[i], profiles[j]))
            if overlap < 1.0 - 1e-6:
                modal = False
    plateau = abs(rate) < 0.05
    return timedomain.GrowthReport(rate=rate, modal=modal, per_run_rates=tuple(rates),
                                   plateau=plateau)
