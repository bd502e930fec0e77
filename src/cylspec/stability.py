"""Retarded Green's function and the finite-rank decomposition on the cover.

Compactly supported forcings on the cover are carried to a holomorphic family
f_z of quotient functions by summing exponentially weighted period translates;
the family is periodic up to conjugation, f_{z+i} = exp(-i*x0) f_z.  Inverting
the shifted operator along a vertical segment of height one and integrating
back yields the retarded solution.  The loop integrals of exp(z X) D_z^{-1} f_z
around the nonnegative strip poles make the finite-rank correction F f, whose
subtraction leaves exponential decay at the fastest rate allowed by the
remaining (decaying) poles.  F f is built without quadrature: the loop
projections are exact in the pencil's ordered Schur form
(`resolvent.loop_projections`), and so are the z-derivatives of f_z.  By the
residue theorem that decaying part u_ret - F f is itself a vertical-segment
integral, at any Re z between the decaying poles and the nonnegative ones;
`decompose` takes it from that segment and keeps the subtraction only as a
cross-check.

Vertical segments use trapezoid nodes in the segment parameter.  The integrand
is periodic there except in the band-edge column: truncating the band at
|q| = Q breaks z ~ z + i only there (the ghost that decays about like exp(c X)).
So the rule is spectrally accurate, and with enough nodes the cover aliasing
(period translates folding back) is driven below roundoff.

Shifts are batched: a segment is one `forward_transform` and one column-level
`resolvent._schur_solve` call, over only its lower half for a real forcing on a
real mode pencil (`solve_on_segment`), and F f refines every pole in one solve.
Real Schur factors (`ModePencil.schur`) solve in real arithmetic.  The pole set
carries the pencil `find_poles` built and the loop projections
(`PoleSet.pencil`, `PoleSet.loop_projections`): `decompose`'s segments, F f and
its kernel check all use its one Schur form (taken on first use when every pole
is simple), and a pole set from another grid raises.

Everything between the forcing and the cover stays in the pencil's block
columns (a mode block's column is one Fourier coefficient in x0, unscaled; the
value-space block's is the whole grid function): `forward_transform` gives f_z's
columns from one FFT of its separable time weights
(`ModePencil.separable_columns`), the solves, A^0 and the operator act on them
block by block, and `ModePencil.coefficients` hands them to `_segment_sum`
(a reshape for mode blocks, one FFT for the value-space block).  Grid values
appear only in the `FieldOnCover` that `_segment_sum` returns.  A segment's
trapezoid sum and F f (the sum of the same integrand's residues) are both
sum_k X^power_k exp(lam_k X) u_k(X mod 2pi) / count, so both are one class,
`CoverSum` (power 0 and count n on n nodes; the poles' terms and count 1), and
each of its evaluations is that one product of weights, phases and coefficients.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .operator_model import OperatorSpec, SpecError
from .resolvent import PoleSet, _schur_solve, apply_resolvent
from .spectral import ModePencil, SpectralBasis, mode_operator_parts
from .timedomain import FieldOnCover, evolve, fit_log_slope, periodize

# the retarded solution's vertical segment sits SEGMENT_MARGIN right of the
# pole supremum z**, on at least MIN_SEGMENT_NODES trapezoid nodes
SEGMENT_MARGIN = 0.3
MIN_SEGMENT_NODES = 33

# decompose's second segment, for u_ret - F f, sits at DECAY_ABSCISSA * z***: a
# quarter of the way from z*** to 0 (see decompose for the trade-off)
DECAY_ABSCISSA = 0.75

# build_finite_rank_part refines each pole's profiles by one inverse-iteration
# step at this distance right of a simple pole (its m-th root for order m)
REFINE_SHIFT = 1e-3

# cover slices per period; default_slice_times spans SLICE_PERIODS periods on
# each side of the forcing support, decompose DECAY_PERIODS periods after it
# and fits the rate over the last FIT_PERIODS of them
SLICES_PER_PERIOD = 8
SLICE_PERIODS = 8
DECAY_PERIODS = 6
FIT_PERIODS = 4

# _segment_sum evaluates its cover times in blocks whose (times, terms, modes)
# kernel takes at most this many bytes; `decompose`'s 49 decay slices at q16 stay
# one block, where a split cost more in calls than it saved in memory
_KERNEL_BYTES = 1 << 20

# decompose and cross_engine_deltas keep every exponent |Re z| * |X| of exp(z X)
# and exp(-z t) at or below this, so that each weight and its square (in the
# solves' residual norms) stay within [1e-300, 1e300]
COVER_EXPONENT_MAX = math.log(1e150)

# the bound on each relative delta of cross_engine_deltas
CROSS_ENGINE_TOL = {"evolve_vs_retarded": 1e-3, "periodize_vs_solve": 1e-5}


# ---------------------------------------------------------------------------
# forcing profiles
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BumpProfile:
    """Smooth compactly supported bump exp(1 - 1/(1-s^2)), s = (t-center)/width.

    Smooth to all orders, but its band content decays only subexponentially;
    pipelines driven by it converge in the Fourier band like exp(-a*sqrt(Q)).
    """

    center: float
    width: float

    def __call__(self, t) -> np.ndarray:
        t = np.asarray(t, dtype=float)
        s = (t - self.center) / self.width
        out = np.zeros_like(s)
        inside = np.abs(s) < 1.0
        out[inside] = np.exp(1.0 - 1.0 / (1.0 - s[inside] ** 2))
        return out

    def at(self, t: float) -> float:
        """The profile at one plain float time, bit for bit float(self(np.asarray(t))):
        the vector call squares a 1-element array, which is s * s, and both use np.exp."""
        s = (t - self.center) / self.width
        return float(np.exp(1.0 - 1.0 / (1.0 - s * s))) if abs(s) < 1.0 else 0.0

    @property
    def support(self) -> tuple[float, float]:
        return (self.center - self.width, self.center + self.width)


@dataclass(frozen=True)
class GaussianPulseProfile:
    """Gaussian pulse truncated at cut*sigma: compact support and, for
    sigma around one, band content below roundoff beyond ten modes."""

    center: float
    sigma: float
    cut: float = 8.0

    def __call__(self, t) -> np.ndarray:
        t = np.asarray(t, dtype=float)
        s = (t - self.center) / self.sigma
        return np.where(np.abs(s) < self.cut, np.exp(-0.5 * s**2), 0.0)

    def at(self, t: float) -> float:
        """The profile at one plain float time, bit for bit float(self(np.asarray(t))):
        the vector call on a 0-d array squares an np.float64 with pow, which s * s
        is not, and both use np.exp."""
        s = np.float64((t - self.center) / self.sigma)
        return float(np.exp(-0.5 * s**2)) if abs(s) < self.cut else 0.0

    @property
    def support(self) -> tuple[float, float]:
        return (self.center - self.cut * self.sigma, self.center + self.cut * self.sigma)


@dataclass(frozen=True)
class CoverForcing:
    """Separable forcing profile(x0) * profile(x1) with compact support in cover time."""

    time: object             # BumpProfile or GaussianPulseProfile
    space: np.ndarray        # (n_space, N)
    basis: SpectralBasis

    def __post_init__(self):
        space = np.asarray(self.space, dtype=complex)
        if space.ndim == 1:
            space = space[:, None]
        if space.shape[0] != self.basis.n_space:
            raise ValueError("spatial profile does not match the basis grid")
        object.__setattr__(self, "space", space)

    @property
    def support(self) -> tuple[float, float]:
        return self.time.support

    @property
    def N(self) -> int:
        return self.space.shape[1]

    def slice_at(self, t: float) -> np.ndarray:
        """The (n_space, N) slice at one plain float time, from the profile's
        scalar `at`: about 1.5-3 us a slice against 6.5-8 us through the vector
        call on a 0-d array (one BLAS thread, 2-core x86-64 VM)."""
        return self.time.at(t) * self.space

    @property
    def real(self) -> bool:
        """Whether the forcing has no imaginary part: a real spatial profile and a
        time profile with real values (both profile classes' are)."""
        return not (self.space.imag.any() or np.iscomplexobj(self.time(self.basis.x0)))


def _number(value, key: str, positive: bool = False) -> float:
    """A forcing document's value for key (None when absent): a finite number,
    positive if asked, else SpecError naming the key."""
    if not (isinstance(value, (int, float)) and math.isfinite(value)
            and (value > 0 or not positive)):
        kind = "positive" if positive else "finite"
        raise SpecError(f"forcing {key} must be a {kind} number, got {value!r}")
    return float(value)


def make_forcing(basis: SpectralBasis, doc: dict | str = "default", N: int = 1) -> CoverForcing:
    """Forcing from its JSON description (or the named default bump x gaussian),
    which may come from outside the program: a missing key, a value that is not a
    finite number or one out of range raises SpecError naming the key."""
    if doc == "default":
        doc = {"time_bump": {"center": 3 * math.pi, "width": math.pi}}
    doc = doc if isinstance(doc, dict) else {}
    time_key = "time_gaussian" if "time_gaussian" in doc else "time_bump"
    t, space_doc = doc.get(time_key), doc.get("space", {"type": "gaussian", "sigma": 0.4})
    for key, section in ((time_key, t), ("space", space_doc)):
        if not isinstance(section, dict):
            raise SpecError(f"forcing {key} must be a JSON object, got {section!r}")
    if time_key == "time_gaussian":
        bump = GaussianPulseProfile(center=_number(t.get("center"), "center"),
                                    sigma=_number(t.get("sigma"), "sigma", True),
                                    cut=_number(t.get("cut", 8.0), "cut", True))
    else:
        bump = BumpProfile(center=_number(t.get("center"), "center"),
                           width=_number(t.get("width"), "width", True))
    component = _number(space_doc.get("component", 0), "component")
    if not (component == int(component) and 0 <= component < N):
        raise SpecError(f"forcing component {component} is not an integer in [0, {N})")
    kind, coeffs = space_doc.get("type"), space_doc.get("coeffs")
    if kind == "gaussian":
        prof = np.exp(-basis.x1**2 / (2.0 * _number(space_doc.get("sigma"), "sigma", True) ** 2))
    elif kind == "polynomial" and isinstance(coeffs, list) and coeffs:
        prof = np.polynomial.polynomial.polyval(basis.x1, [_number(c, "coeffs") for c in coeffs])
    else:
        raise SpecError(f"forcing space must be a gaussian, or a polynomial with a nonempty "
                        f"list of coeffs; got type {kind!r}, coeffs {coeffs!r}")
    space = np.zeros((basis.n_space, N), dtype=complex)
    space[:, int(component)] = prof
    return CoverForcing(time=bump, space=space, basis=basis)


# ---------------------------------------------------------------------------
# the transform between cover functions and z-families
# ---------------------------------------------------------------------------


def forward_transform(forcing: CoverForcing, z, pencil: ModePencil,
                      order: int = 0) -> np.ndarray:
    """Quotient function f_z in the pencil's block columns (blocks, n): the
    exponentially weighted sum of period translates, or its exact z-derivative of
    the given order (each translate carries (-t)^order).

    The sum is finite (compact support), exact at the tensor grid of the
    forcing's basis: f_z(x) = sum_p exp(-z*(x0 + 2*pi*p)) * forcing(x0 + 2*pi*p, x1).
    It is separable, time weights per grid slot times the spatial profile, so
    the columns are `ModePencil.separable_columns` of the (shifts, n_time)
    weights.  One table of the translates inside the support (grid slot, time,
    profile value) serves every shift; z may be a 1-D array of shifts (leading
    shift axis on the result).
    """
    basis = forcing.basis
    t0, t1 = forcing.support
    period = 2.0 * math.pi
    p = np.arange(math.floor(t0 / period) - 1, math.ceil(t1 / period) + 1)
    times = basis.x0[:, None] + period * p[None, :]
    values = forcing.time(times)
    slot, col = np.nonzero(values)
    t = times[slot, col]
    terms = (-t) ** order * np.exp(-np.multiply.outer(np.atleast_1d(z), t)) * values[slot, col]
    weights = terms @ (slot[:, None] == np.arange(basis.n_time))
    out = pencil.separable_columns(weights, forcing.space)
    return out if np.ndim(z) else out[0]


def _segment_sum(weights: np.ndarray, coeffs: np.ndarray, basis: SpectralBasis,
                 times: np.ndarray) -> FieldOnCover:
    """sum_k weights[i, k] * field_k(X_i mod 2pi) over cover times X_i, from the
    fields' Fourier coefficients (fields, n_time, n_space, N) in FFT order
    (`ModePencil.coefficients`): the one product behind every `CoverSum`
    evaluation, and the only place where grid values appear.  The weights times
    the phases exp(i q X), (times, fields, modes), act on the coefficients, one
    block of at most _KERNEL_BYTES at a time.
    """
    times = np.asarray(times, dtype=float)
    values = np.empty((len(times), *coeffs.shape[2:]), dtype=complex)
    block = max(1, _KERNEL_BYTES // (16 * max(weights.shape[1], 1) * len(basis.modes)))
    for start in range(0, len(times), block):
        rows = slice(start, start + block)
        phases = np.exp(1j * np.outer(times[rows], basis.modes))
        values[rows] = np.tensordot(weights[rows, :, None] * phases[:, None, :], coeffs)
    return FieldOnCover(times, values, basis)


# ---------------------------------------------------------------------------
# fields on the cover: segment integrals and F f
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CoverSum:
    """The cover field sum_k X^power_k exp(lam_k X) u_k(X mod 2pi) / count.

    A vertical segment's trapezoid sum has power 0, lam the node shifts and count
    the node count (`solve_on_segment`); F f has its poles' terms and count 1
    (`build_finite_rank_part`).  The u_k are kept in the block columns of `pencil`.
    """

    lam: np.ndarray         # (terms,) complex
    power: np.ndarray       # (terms,) int: the power of X multiplying exp(lam X)
    columns: np.ndarray     # (terms, blocks, n): u_k in the pencil's block columns
    count: int
    pencil: ModePencil
    basis: SpectralBasis

    def evaluate(self, times: np.ndarray) -> FieldOnCover:
        X = np.asarray(times, dtype=float)[:, None]
        return _segment_sum(X ** self.power * np.exp(self.lam * X) / self.count,
                            self.pencil.coefficients(self.columns), self.basis, times)

    def operator_applied(self, times: np.ndarray) -> FieldOnCover:
        """The cover operator applied to the field, term by term (exact in time).

        D(X^k e^{l X} u) = X^k e^{l X} (D + l A^0) u + k X^{k-1} e^{l X} A^0 u,
        with A^0 one block on the columns; power 0 leaves the first term alone.
        """
        lam, power, cols, pencil = self.lam, self.power, self.columns, self.pencil
        X = np.asarray(times, dtype=float)[:, None]
        grow = np.exp(lam * X)
        hi = power > 0
        weights = np.hstack([X ** power * grow,
                             power[hi] * X ** (power[hi] - 1) * grow[:, hi]]) / self.count
        fields = np.concatenate([pencil.apply(lam[:, None] + 1j * pencil.modes, cols),
                                 cols[hi] @ pencil.a0.T])
        return _segment_sum(weights, pencil.coefficients(fields), self.basis, times)

    def kernel_defect(self, times: np.ndarray) -> float:
        """Sup of the cover operator applied to the field, relative to the field's
        own sup over the window (at least 1): the absolute defect of an
        exponentially growing kernel element scales with it."""
        defect = float(np.abs(self.operator_applied(times).values).max())
        scale = max(float(np.abs(self.evaluate(times).values).max()), 1.0)
        return defect / scale


def solve_on_segment(spec: OperatorSpec, basis: SpectralBasis, forcing: CoverForcing,
                     c: float, n_nodes: int, *,
                     pencil: ModePencil | None = None) -> CoverSum:
    """The resolvent on the nodes z_k = c + i*k/n of a vertical segment, applied to
    f_{z_k}, on the pencil of (spec, basis) (built unless passed), in one
    column-level `resolvent._schur_solve` call: their trapezoid sum as a `CoverSum`
    (lam the shifts, power 0, count n).

    A real mode pencil and a real forcing make the segment its own mirror: with
    f_{conj z} = conj(f_z) and f_{z+i} = exp(-i*x0) f_z, the block column (n-k, q)
    is conj((k, -q-1)).  So only the nodes k <= n/2 are solved.  Each partner k of
    a node n-k > n/2 is also solved at w = z_k - i*(Q+1), mode -Q-1 just outside
    the band, on the DFT column at index Q (the same index modulo 2Q+1): its
    conjugate is node n-k's mode Q, the one column where the truncated band breaks
    z ~ z + i.  At q16m32 on 33 nodes that is 577 of 1089 columns.  Node k's
    residual check covers its mode -Q-1 column too, so a pole on a mirrored node
    raises from its partner.  Any other pencil or forcing solves every node.
    """
    if pencil is None:
        pencil = mode_operator_parts(spec, basis)
    nodes = np.arange(n_nodes) / n_nodes
    shifts = c + 1j * nodes
    n_t, q_max = basis.n_time, basis.Q_max
    # the mirror maps Fourier modes: a value-space block (one for all modes) solves in full
    mirror = pencil.real and forcing.real and len(pencil.modes) == n_t
    solved = n_nodes // 2 + 1 if mirror else n_nodes
    partners = np.arange(1, n_nodes - solved + 1)    # none without the mirror
    cols = forward_transform(forcing, shifts[:solved], pencil)
    w = shifts[:solved, None] + 1j * pencil.modes
    rhs = cols.reshape(w.size, -1).T
    if mirror:
        rhs = np.hstack([rhs, cols[partners, q_max].T])
    u = _schur_solve(
        pencil, np.concatenate([w.ravel(), shifts[partners] - 1j * (q_max + 1)]), rhs,
        np.concatenate([np.repeat(np.arange(solved), len(pencil.modes)), partners])).T
    columns = u[:w.size].reshape(cols.shape)
    if mirror:
        source = columns[partners]
        source[:, q_max] = u[w.size:]
        columns = np.concatenate([columns, source[::-1, (-np.arange(n_t) - 1) % n_t].conj()])
    return CoverSum(lam=shifts, power=np.zeros(n_nodes, dtype=int), columns=columns,
                    count=n_nodes, pencil=pencil, basis=basis)


def default_slice_times(forcing: CoverForcing) -> np.ndarray:
    period = 2.0 * math.pi
    t0, t1 = forcing.support
    start = t0 - SLICE_PERIODS * period
    stop = t1 + SLICE_PERIODS * period
    n = int(round((stop - start) / period * SLICES_PER_PERIOD))
    return start + (stop - start) * np.arange(n + 1) / n


def segment_node_count(basis: SpectralBasis) -> int:
    """Enough trapezoid nodes to push cover aliasing below the double noise floor."""
    return max(2 * basis.Q_max + 1, MIN_SEGMENT_NODES)


def segment_abscissa(pole_set: PoleSet) -> float:
    """Re z of the retarded solution's segment: SEGMENT_MARGIN right of z** (of 0
    when there is no pole).  `PoleSet.check_right_edge` raises first when an
    eigenvalue persists right of the pole window: no segment right of the
    window's poles is then right of every pole."""
    pole_set.check_right_edge()
    z_ss = pole_set.z_star_star
    return (z_ss if np.isfinite(z_ss) else 0.0) + SEGMENT_MARGIN


def retarded_solution(spec: OperatorSpec, basis: SpectralBasis, forcing: CoverForcing,
                      pole_set: PoleSet, *, c: float | None = None,
                      n_nodes: int | None = None,
                      slice_times: np.ndarray | None = None) -> FieldOnCover:
    """The solution vanishing in the past, as a vertical-segment integral.

    The segment sits at Re z = c, strictly right of every pole; by default at
    segment_abscissa.  Node count defaults to the alias-safe count for the
    basis; slice times default to SLICE_PERIODS periods on both sides of the
    forcing support.
    """
    z_ss = pole_set.z_star_star
    if c is None:
        c = segment_abscissa(pole_set)
    if np.isfinite(z_ss) and c <= z_ss:
        raise SpecError(f"segment at Re z = {c} is not right of the poles (sup = {z_ss})")
    if n_nodes is None:
        n_nodes = segment_node_count(basis)
    if slice_times is None:
        slice_times = default_slice_times(forcing)
    pencil = pole_set.pencil_on(basis, spec.N)
    return solve_on_segment(spec, basis, forcing, c, n_nodes, pencil=pencil).evaluate(slice_times)


# ---------------------------------------------------------------------------
# the finite-rank part
# ---------------------------------------------------------------------------


def build_finite_rank_part(spec: OperatorSpec, basis: SpectralBasis, pole_set: PoleSet,
                           forcing: CoverForcing) -> CoverSum:
    """F f: the loop integrals of exp(z X) D_z^{-1} f_z about the nonnegative strip
    poles, as a `CoverSum` with count 1, from exact Laurent coefficients.

    About a pole lam of order m, exp(z X) f_z = exp(lam X) sum_k X^k (z - lam)^k / k!
    sum_l g_l (z - lam)^l / l! with g_l the exact z-derivatives of f_z at lam
    (`forward_transform`, in the pencil's block columns), and the loop integral
    of (z - lam)^j D_z^{-1} is the projection P_j, which vanishes for j >= m
    (`loop_projections`, from the pencil's Schur form).  So the pole contributes the terms
    X^k exp(lam X) 2*pi sum_l P_{k+l} g_l / (k! l!), k < m.  Their profiles p_k
    are then refined by one step of inverse iteration against the true blocks,
    p_k <- D_{lam+d}^{-1} A^0 (d p_k - (k+1) p_{k+1}) at d = REFINE_SHIFT^(1/m),
    which fixes the exact chain D_lam p_k + (k+1) A^0 p_{k+1} = 0 and damps the
    rounding of the Schur factors off the pole's subspace.  Every step stays in
    the block columns: A^0 is one block, and the steps of every pole are one
    `_schur_solve` call with one node per (pole, k).
    Pole orders, ranks, projections and the pencil come from the pole set.
    """
    pencil = pole_set.pencil_on(basis, spec.N)
    n_blocks = len(pencil.modes)
    rhs, w, lams, powers = [], [], [], []
    for pole, blocks in zip(pole_set.nonneg, pole_set.loop_projections):
        lam, order = pole.source, pole.order
        g = np.array([forward_transform(forcing, lam, pencil, order=ell) for ell in range(order)])
        cols = np.zeros((order, n_blocks, len(pencil.a0)), dtype=complex)
        for b, vecs, lead, coords in blocks:
            # block b of 2*pi sum_l P_{k+l} g_l / (k! l!), with P_j = vecs nil^j coords
            nil = -lead - (lam + 1j * pencil.modes[b]) * np.eye(len(lead))
            c = [coords @ g[ell, b] / math.factorial(ell) for ell in range(order)]
            for k in range(order):
                h = sum(np.linalg.matrix_power(nil, k + ell) @ c[ell]
                        for ell in range(order - k))
                cols[k, b] = vecs @ h * (2.0 * math.pi / math.factorial(k))
        # one inverse-iteration step at lam + d; it amplifies rounding along the
        # chain by d^-order, held to 1/REFINE_SHIFT
        d = REFINE_SHIFT ** (1.0 / order)
        rhs.append((d * cols - np.arange(1, order + 1)[:, None, None]
                    * np.concatenate([cols[1:], np.zeros_like(cols[:1])])) @ pencil.a0.T)
        w.append(np.full((order, 1), lam + d) + 1j * pencil.modes)
        lams += [lam] * order
        powers += range(order)
    # every pole's steps in one batched solve, one node per (pole, k)
    columns = np.zeros((len(lams), n_blocks, len(pencil.a0)), dtype=complex)
    if lams:
        w = np.concatenate(w).ravel()
        u = _schur_solve(pencil, w, np.concatenate(rhs).reshape(w.size, -1).T,
                         np.repeat(np.arange(len(lams)), n_blocks))
        columns = np.ascontiguousarray(u.T.reshape(columns.shape))
    return CoverSum(lam=np.array(lams, dtype=complex), power=np.array(powers, dtype=int),
                    columns=columns, count=1, pencil=pencil, basis=basis)


# ---------------------------------------------------------------------------
# the decomposition
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class StabilityDecomposition:
    retarded: FieldOnCover
    correction: CoverSum
    difference: FieldOnCover
    fitted_rate: float
    rank: int
    pole_set: PoleSet
    used_slices: np.ndarray    # mask of the fit window: the trailing FIT_PERIODS periods
    kernel_defect: float
    identity_defect: float

    @property
    def n_nonneg(self) -> int:
        return len(self.pole_set.nonneg)


def decompose(spec: OperatorSpec, basis: SpectralBasis, forcing: CoverForcing,
              pole_set: PoleSet, *, n_loop_nodes: int | None = None) -> StabilityDecomposition:
    """Retarded solution minus the finite-rank correction, with a fitted decay rate.

    `n_loop_nodes` is unused (F f has no loop nodes); the `green` benchmark
    workload still passes it.

    By the residue theorem u_ret - F f is the vertical-segment integral at any
    Re z between the decaying poles and the nonnegative ones, so the difference
    is that segment, at c' = DECAY_ABSCISSA * z*** (the window's left edge
    standing in for z*** when no decaying pole is found): no two growing fields
    are subtracted.  It is evaluated on DECAY_PERIODS periods after the support,
    and its per-slice norms are fitted log-linearly over the trailing FIT_PERIODS
    periods.

    The segment at c' carries two errors.  The trapezoid rule aliases the z***
    residue with relative size exp(-2 pi n (c' - z***)); the alias has the
    difference's own slope, so it moves the field but not the rate, and it keeps
    c' away from z***.  The response to forcing content beyond the Fourier band
    decays like exp(c' X); it sets the fitted slope only when the forcing barely
    excites the z*** mode, and it keeps c' away from 0.  u_ret - F f is kept as
    a cross-check over the first period after the support: `identity_defect` is
    its sup distance to the difference there, relative to the difference.

    Every weight is in absolute cover time: f_z sums exp(-z t) over the support,
    and the fields carry exp(z X) over the decay window, for Re z from c' to the
    retarded segment's c (the poles of F f lie between).  So with s = max(c,
    |c'|), the forcing's center must satisfy
        |center| <= COVER_EXPONENT_MAX / s - (half-width + DECAY_PERIODS periods),
    where half-width is half the support's length; otherwise SpecError names
    `center` and that bound.
    """
    period = 2.0 * math.pi
    t1 = forcing.support[1]
    n_slices = DECAY_PERIODS * SLICES_PER_PERIOD
    times = t1 + DECAY_PERIODS * period * np.arange(n_slices + 1) / n_slices

    c = segment_abscissa(pole_set)
    c_decay = DECAY_ABSCISSA * max(pole_set.z_star_star_star, pole_set.window[0])
    _check_center(forcing, max(c, abs(c_decay)), DECAY_PERIODS * period)
    u_ret = retarded_solution(spec, basis, forcing, pole_set, c=c, slice_times=times)
    difference = solve_on_segment(spec, basis, forcing, c_decay, segment_node_count(basis),
                                  pencil=pole_set.pencil_on(basis, spec.N)).evaluate(times)
    part = build_finite_rank_part(spec, basis, pole_set, forcing)

    first = slice(0, SLICES_PER_PERIOD + 1)
    subtracted = u_ret.values[first] - part.evaluate(times[first]).values
    identity_defect = float(np.abs(subtracted - difference.values[first]).max()
                            / max(np.abs(difference.values[first]).max(), 1e-300))

    mask = np.arange(n_slices + 1) >= n_slices - FIT_PERIODS * SLICES_PER_PERIOD
    rate = fit_log_slope(times[mask], difference.slice_norms()[mask])
    return StabilityDecomposition(
        retarded=u_ret, correction=part, difference=difference,
        fitted_rate=rate, rank=sum(p.rank for p in pole_set.nonneg), pole_set=pole_set,
        used_slices=mask,
        kernel_defect=part.kernel_defect(times), identity_defect=identity_defect,
    )


def _check_center(forcing: CoverForcing, shift: float, window: float) -> None:
    """SpecError naming `center` unless every weight exp(+-z X) with |Re z| <= shift,
    over the forcing's support and the window after it, stays (with its square)
    within [1e-300, 1e300]: |center| <= COVER_EXPONENT_MAX / shift - (half the
    support + window)."""
    t0, t1 = forcing.support
    reach = (COVER_EXPONENT_MAX / shift if shift else math.inf) - ((t1 - t0) / 2 + window)
    if not abs(forcing.time.center) <= reach:
        raise SpecError(f"forcing center {forcing.time.center:.6g} is too far from cover "
                        f"time 0: the shifts reach |Re z| = {shift:.4g}, so |center| must "
                        f"be at most {reach:.6g}")


def cross_engine_deltas(spec: OperatorSpec, basis: SpectralBasis, forcing: CoverForcing,
                        c: float, *, pencil: ModePencil | None = None) -> dict[str, float]:
    """Relative deltas between the time-domain and frequency-domain engines.

    evolve_vs_retarded: RK4 evolution of the forced cover problem from zero data
    one period before the support against the segment solution at Re z = c,
    weighted L2 over every grid-aligned time (an x0 node plus a whole number of
    periods) in [t1, t1 + 4 periods], t1 the end of the support.
    periodize_vs_solve: `periodize` against `apply_resolvent` at z = c for a
    smooth periodic forcing, in the sup norm.
    Both solve on one pencil: the one passed, or the segment's.  The forcing's
    center is bounded as in `decompose`, with shift |c| and a 4-period window.
    """
    period = 2 * math.pi
    t0, t1 = forcing.support
    _check_center(forcing, abs(c), 4 * period)
    t_end = t1 + 4 * period
    sol = solve_on_segment(spec, basis, forcing, c, segment_node_count(basis), pencil=pencil)
    run = evolve(spec, basis, forcing=forcing.slice_at, z=0.0,
                 t_range=(t0 - period, t_end + 0.1), store_stride=1)
    # x0 nodes lie in [0, period): these p cover [t1, t_end] with a period to spare
    targets = np.sort(np.concatenate([
        basis.x0 + period * p
        for p in range(math.floor(t1 / period) - 1, math.floor(t_end / period) + 2)]))
    targets = targets[(targets >= t1 - 1e-9) & (targets <= t_end + 1e-9)]
    # the stored step nearest each target
    k = np.abs(run.times[:, None] - targets).argmin(axis=0)
    ev, ret = run.values[k], sol.evaluate(run.times[k]).values
    w1 = basis.w1[None, :, None]
    evolve_delta = float(np.sqrt(np.sum(w1 * np.abs(ev - ret) ** 2))
                         / max(np.sqrt(np.sum(w1 * np.abs(ret) ** 2)), 1e-300))

    f = np.ones((basis.n_time, basis.n_space, spec.N), dtype=complex) \
        * (1.0 + 0.3 * basis.x1[None, :, None])
    u_march = periodize(spec, basis, f, c)
    u_direct = apply_resolvent(spec, basis, c, f, pencil=sol.pencil)
    periodize_delta = float(np.abs(u_march - u_direct).max()
                            / max(np.abs(u_direct).max(), 1e-300))
    return {"evolve_vs_retarded": evolve_delta, "periodize_vs_solve": periodize_delta}
