"""Method-of-lines evolution on the universal cover (one spatial dimension).

The first-order system A^0 d_0 u + A^1 d_1 u + (B + z A^0) u = f is integrated
with classical four-stage Runge-Kutta on the Chebyshev grid.  No boundary
closure is applied: admissible operators are outflow at the boundary, so the
collocated spatial operator is used as-is, including characteristic points.

On the flattened (n_space * N) grid state the collocated system is linear and
autonomous apart from the forcing, dv/dt = L v + g(t), with the generator
L = -A0^{-1} (A^1 d_1 + B + z A^0) (block-diagonal A0^{-1} and B) and
g = A0^{-1} f.  So one RK4 step of size h is a fixed matrix polynomial in
H = h L, built once per (spec, basis, z, h) with H folded in, and applied with
one matvec:

    v <- v + h/6 (g0 + 4 gh + g1) + HW (v, g0, gh)
    HW = H [Q | R0 | Rh],   HQ = H Q   (the homogeneous step: v <- v + HQ v)
    Q  = I + H/2 + H^2/6 + H^3/24
    R0 = h/6 (I + H/2 + H^2/4),   Rh = h/6 (2I + H/2)

where g0, gh, g1 are the forcing at the start, middle and end of the step.
This is the classical four-stage update regrouped.  The step is kept in
increment form on purpose: a stored step matrix P = I + HQ rounds the terms
of size h against the identity.  On EX1's constant mode at half the stable step
that doubles the error (1.3e-14 against 7e-15 from exp(-t)), and the error
ratio between two step sizes drops from 14.2 to 7.8, off fourth order.
Folding H into HQ and HW changes only how the increment rounds: that ratio
reads 13.7 (14.2 with H applied after Q), and the marched states move by at
most 1.3e-14 relative.

A step costs about its one matvec and its forcing: states go straight
into blocks of rows (the stored rows at stride 1, else a GUARD_BLOCK_BYTES
buffer), one norm call per block holds each to the blow-up cap, and the forced
step stacks (v, g0, gh) in one preallocated buffer.  The forcing comes a block
at a time: `_march` fetches A0^{-1} f at a guard block's half steps in one call
(the half step it shares with the block before is carried over) and forms the
block's increments h/6 (g0 + 4 gh + g1) in one expression.  A forcing is a
callable from a plain float time to an (n_space, N) slice; `evolve` calls it
once per half step into a buffer and applies the block-diagonal A0^{-1} to the
block in one stacked product, and `periodize` slices its period table.  A
`CoverForcing` slice evaluates its time profile on the plain float.  A forced
step at n = 17 takes about 9.4 us and a homogeneous one 2.0 us, against 10.5
and 3.0 us with H applied after Q and W (one BLAS thread, 2-core x86-64 VM).

Over one period of per steps the march is affine, v -> M v + b, b the forced
response from zero, so `periodize` solves u0 = (I - M)^{-1} b for the periodic
start.  It forms M - I from M = (I + HQ)^per by binary powering in increment
form, (I + A)(I + B) = I + (A + B + AB), which never rounds the increments
against the identity.

Growth comes from the same period map.  The homogeneous solutions that grow
like exp(lam t) are M's eigenvectors with multipliers mu = exp(2 pi lam), so
`growth_rate` reads the dominant rate off the Floquet exponents log(mu)/2pi of
the eigenvalues mu - 1 of M - I (`floquet_exponents`), with no marched data.
On EX1 at m = 32 that takes about 1.2 ms, against 0.35 s for the three random
10-period runs it replaced (one BLAS thread, 2-core x86-64 VM).  Each strip
pole of the resolvent is a Floquet exponent up to i (tests/test_timedomain.py
checks it on EX1 and EX1S).

Energies come from the generator too.  For the homogeneous semi-discrete
system d_0^a u = L^a u exactly, so `energy_series` takes each order's time
derivatives as one product with L^T over all stored slices, not as finite
differences in time.  Every stored slice gets every order: no slices are lost
at the ends, and neither a minimum slice count nor a uniform time grid is
needed.  On `cylspec evolve --fixture EX1S` (m = 32, 10 periods) E_1 and E_2
differ from the fourth-order differences this replaced by 4.6e-8 and 9.3e-8
relative after the first period (the differences' truncation error on the
dominant mode) and by up to 1.2e-4 and 1.2e-3 within it.  `cmd_evolve` takes
the orders 0..lmax from one ladder (`_energy_ladder`): one L and one set of
rungs L^a u, each order's energies bit for bit its own `energy_series` call's.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass

import numpy as np

from .operator_model import OperatorSpec, SpecError
from .spectral import SpectralBasis, _block_diag_multiplier, fourier_coefficients

DUMP_MAGIC = b"CYLF"

# stable_time_step's fraction of the explicit step bound
CFL = 0.25
# periodize solves (I - M) u0 = b only while cond(I - M) * eps <= PERIODIZE_TOL
PERIODIZE_TOL = 1e-9
# growth_rate's dominant multiplier is simple when every other rate is lower by
# more than MODAL_GAP: rounding splits a k-fold multiplier of M by about
# (eps |M|)^(1/k), under 1e-3 in rate for k <= 5 at |M| ~ 1e3
MODAL_GAP = 1e-3
# M - I rounds each entry of M to about eps: a dominant multiplier below
# MULTIPLIER_FLOOR has too few correct digits for a rate
MULTIPLIER_FLOOR = 1e3 * np.finfo(float).eps
GUARD_BLOCK_BYTES = 1 << 16  # _march checks blow-up in blocks of at most this many bytes


@dataclass(frozen=True)
class FieldOnCover:
    """Time series of spatial slices: values[k] lives at cover time times[k]."""

    times: np.ndarray          # (n_times,)
    values: np.ndarray         # (n_times, n_space, N)
    basis: SpectralBasis

    def __post_init__(self):
        if self.values.shape[0] != self.times.shape[0]:
            raise ValueError("times and values disagree")

    def slice_norms(self) -> np.ndarray:
        """Spatial L2 norm per time slice (quadrature over the ball)."""
        w = self.basis.w1[None, :, None]
        return np.sqrt(np.sum(w * np.abs(self.values) ** 2, axis=(1, 2)).real)

    def at_time(self, t: float) -> np.ndarray:
        k = int(np.argmin(np.abs(self.times - t)))
        if abs(self.times[k] - t) > 1e-9 + 1e-9 * abs(t):
            raise ValueError(f"no stored slice at time {t}")
        return self.values[k]

    def dump(self, path: str, manifest_hash: str = "") -> None:
        """Binary layout: magic, version, dims, manifest hash, times (f64), values (c64)."""
        h = manifest_hash.encode() if manifest_hash else b""
        with open(path, "wb") as fh:
            fh.write(DUMP_MAGIC)
            fh.write(struct.pack("<HHIII", 1, len(h), *self.values.shape))
            fh.write(h)
            fh.write(self.times.astype("<f8").tobytes())
            fh.write(self.values.astype("<c8").tobytes())

    @classmethod
    def load(cls, path: str, basis: SpectralBasis) -> "FieldOnCover":
        with open(path, "rb") as fh:
            if fh.read(4) != DUMP_MAGIC:
                raise ValueError("not a cover-field dump")
            _ver, hlen, nt, nx, N = struct.unpack("<HHIII", fh.read(16))
            fh.read(hlen)
            times = np.frombuffer(fh.read(8 * nt), dtype="<f8").copy()
            values = np.frombuffer(fh.read(8 * nt * nx * N), dtype="<c8")
            values = values.reshape(nt, nx, N).astype(complex)
        return cls(times, values, basis)


@dataclass(frozen=True)
class EnergySeries:
    ell: int
    times: np.ndarray
    values: np.ndarray  # (n_times,)


class InstabilityError(RuntimeError):
    """The first marched state whose norm broke the growth cap (or is not finite)."""

    def __init__(self, time: float, column: int, norm: float, cap: float):
        self.time, self.column, self.norm, self.cap = float(time), int(column), float(norm), float(cap)
        super().__init__(f"evolution diverged at t = {self.time:.4g}")


class PeriodizationError(RuntimeError):
    """The period map's fixed-point system I - M at shift z is too ill-conditioned."""

    def __init__(self, z: complex, condition: float):
        self.z, self.condition = complex(z), float(condition)
        super().__init__(f"no periodic solve at z = {self.z:.4g}: cond(I - M) = "
                         f"{self.condition:.3g} (z is at or near a pole)")


def _pointwise_operators(spec: OperatorSpec, basis: SpectralBasis, z: complex):
    """(inv_a0, a1, bz) as (n_space, N, N) arrays at a fixed x0 = 0 slice.

    Coefficients varying with x0 are not supported by the stepper; the fixtures
    and the cross-checked pipelines are all x0-independent.
    """
    if spec.n != 1:
        raise SpecError("time stepping supports n=1 only")
    if not spec.x0_independent():
        raise SpecError("time stepping requires coefficients independent of x0")
    pt0 = np.array([0.0])
    a0 = spec.A[0].eval_grid(pt0, basis.x1)[0]
    a1 = spec.A[1].eval_grid(pt0, basis.x1)[0]
    b = spec.B.eval_grid(pt0, basis.x1)[0]
    inv_a0 = np.linalg.inv(a0)
    return inv_a0, a1, b + z * a0


def stable_time_step(spec: OperatorSpec, basis: SpectralBasis, z: complex = 0.0) -> float:
    """Explicit-step bound: CFL * (min grid spacing) / (max wave speed), capped
    by CFL / (norm of the zero-order term + 1)."""
    inv_a0, a1, bz = _pointwise_operators(spec, basis, z)
    speeds = np.abs(np.linalg.eigvals(np.einsum("mab,mbc->mac", inv_a0, a1)))
    vmax = float(speeds.max())
    spacing = float(np.min(np.abs(np.diff(basis.x1))))
    dt = CFL * spacing / max(vmax, 1e-12)
    zero_order = float(max(
        np.linalg.norm(np.einsum("mab,mbc->mac", inv_a0, bz), axis=(1, 2)).max(), 0.0
    ))
    return min(dt, CFL / (zero_order + 1.0))


def _step_plan(span: float, dt_max: float, store_stride: int) -> tuple[int, int]:
    """(n_steps, stride) covering span with steps <= dt_max, n_steps a multiple of stride."""
    n_steps = max(1, int(math.ceil(span / dt_max - 1e-9)))
    stride = max(1, min(store_stride, n_steps))
    # stored samples stay uniformly spaced
    n_steps = stride * int(math.ceil(n_steps / stride))
    return n_steps, stride


@dataclass(frozen=True)
class _Propagator:
    """One RK4 step of dv/dt = L v + A0^{-1} f on flattened (n_space * N) states,
    with H = h L folded into both step matrices: each step is one matvec."""

    h: float
    HQ: np.ndarray         # H Q, Q = I + H/2 + H^2/6 + H^3/24: the homogeneous increment
    HW: np.ndarray         # H [Q | R0 | Rh], applied to the stacked (v, g0, gh)
    inv_a0: np.ndarray     # block-diagonal A0^{-1}
    coeff_scale: float     # largest coefficient entry, sizes the growth cap


def _generator(spec: OperatorSpec, basis: SpectralBasis, z: complex) -> np.ndarray:
    """L = -A0^{-1} (A^1 d_1 + B + z A^0) on flattened (n_space * N) states."""
    inv_a0, a1, bz = _pointwise_operators(spec, basis, z)
    n = basis.n_space * spec.N
    transport = np.einsum("mac,mcb,ms->masb", inv_a0, a1, basis.d1).reshape(n, n)
    return -(transport + _block_diag_multiplier((inv_a0 @ bz)[None]))


def _propagator(spec: OperatorSpec, basis: SpectralBasis, z: complex, h: float) -> _Propagator:
    inv_a0, a1, bz = _pointwise_operators(spec, basis, z)
    H = h * _generator(spec, basis, z)
    ident = np.eye(len(H))
    H2 = H @ H
    Q = ident + H / 2 + H2 / 6 + H2 @ H / 24
    R0 = h / 6 * (ident + H / 2 + H2 / 4)
    Rh = h / 6 * (2 * ident + H / 2)
    coeff_scale = max(float(np.abs(a1).max()), float(np.abs(bz).max()), 1.0)
    return _Propagator(h, H @ Q, H @ np.hstack([Q, R0, Rh]),
                       _block_diag_multiplier(inv_a0[None]), coeff_scale)


def _march(prop: _Propagator, v: np.ndarray, t0: float, n_steps: int, stride: int,
           g=None) -> np.ndarray:
    """States after every stride-th of n_steps steps from v at t0, v first
    (n_steps must be a multiple of stride, as _step_plan makes it).

    v holds one state per column, shape (n, k).  g(j0, j1) is A0^{-1} f at the
    half-steps t0 + j*h/2, j0 <= j < j1, as a (j1 - j0, n, 1) array, or None for
    the homogeneous system; forced marches carry one column.  Each guard block
    fetches its own half-steps once (the one it shares with the block before is
    carried over) and forms its forcing increments in one expression.  A step is
    one matvec, with prop.HQ (homogeneous) or prop.HW (forced).  Every state of
    every column is checked for blow-up.
    """
    h, HQ, HW = prop.h, prop.HQ, prop.HW
    cap = math.exp(min(10.0 * n_steps * h * prop.coeff_scale, 700.0)) \
        * np.maximum(np.linalg.norm(v, axis=0), 1.0)
    stored = np.empty((n_steps // stride + 1, *v.shape), dtype=complex)
    stored[0] = v
    rows = max(1, GUARD_BLOCK_BYTES // stored[0].nbytes)
    buffer = None if stride == 1 else np.empty((min(rows, n_steps), *v.shape), dtype=complex)
    last = None if g is None else g(0, 1)
    stack = np.empty((3 * len(v), 1), dtype=complex)
    with np.errstate(over="ignore", invalid="ignore"):  # states past a failure may overflow
        for first in range(1, n_steps + 1, rows):
            block = stored[first:first + rows] if buffer is None else buffer[:n_steps + 1 - first]
            if g is not None:
                # the block's half-steps, its first carried over from the block before
                G = np.concatenate((last, g(2 * first - 1, 2 * (first + len(block)) - 1)))
                g0s, ghs, last = G[0:-1:2], G[1::2], G[-1:]
                incs = h / 6 * (g0s + 4 * ghs + G[2::2])
            for step, out in enumerate(block, first):
                if g is None:
                    np.add(v, HQ @ v, out=out)
                else:
                    g0, gh, inc = g0s[step - first], ghs[step - first], incs[step - first]
                    np.concatenate((v, g0, gh), out=stack)
                    # the forcing and operator increments cancel near a steady
                    # state: sum them before they meet v
                    np.add(v, inc + HW @ stack, out=out)
                v = out
                if buffer is not None and step % stride == 0:
                    stored[step // stride] = v
            # a non-finite state has a non-finite norm, which fails the comparison
            norms = np.linalg.norm(block, axis=1)
            if not (norms <= cap).all():
                i, col = np.unravel_index(np.argmin(norms <= cap), norms.shape)
                raise InstabilityError(t0 + (first + i) * h, col, norms[i, col], cap[col])
    return stored


def evolve(spec: OperatorSpec, basis: SpectralBasis, *,
           initial: np.ndarray | None = None,
           forcing=None,
           z: complex = 0.0,
           t_range: tuple[float, float],
           store_stride: int = 1) -> FieldOnCover:
    """Integrate the forced system from `initial` over t_range with RK4.

    `forcing` is None or a callable t -> (n_space, N) slice, evaluated once
    per half step, in time order, and multiplied by A0^{-1} one guard block of
    slices at a time.  Steps are at most the stable step.  The returned field
    stores every store_stride-th step (endpoints always included).
    """
    t0, t1 = t_range
    if t1 <= t0:
        raise ValueError("empty time range")
    n_steps, stride = _step_plan(t1 - t0, stable_time_step(spec, basis, z), store_stride)
    prop = _propagator(spec, basis, z, (t1 - t0) / n_steps)

    n = basis.n_space * spec.N
    v = np.zeros((n, 1), dtype=complex) if initial is None \
        else np.asarray(initial, dtype=complex).reshape(n, 1)
    g = None
    if forcing is not None:
        def g(j0: int, j1: int) -> np.ndarray:
            buf = np.empty((j1 - j0, n, 1), dtype=complex)
            for k, j in enumerate(range(j0, j1)):
                buf[k] = np.asarray(forcing(t0 + j * prop.h / 2)).reshape(n, 1)
            return np.matmul(prop.inv_a0, buf)
    states = _march(prop, v, t0, n_steps, stride, g)
    times = t0 + prop.h * np.arange(0, n_steps + 1, stride)
    return FieldOnCover(times, states.reshape(len(times), basis.n_space, spec.N), basis)


def energy_series(field: FieldOnCover, ell: int, spec: OperatorSpec,
                  z: complex = 0.0) -> EnergySeries:
    """Weighted derivative energies of order ell at every stored slice.

    Spatial derivatives are spectral.  Time derivatives are those of the
    homogeneous run at shift z: d_0^a u = L^a u with the generator L of
    `_generator`.  On a forced run, where d_0 u = L u + A0^{-1} f, E_0 is
    exact and the higher orders leave out the forcing's terms.
    """
    return _energy_ladder(field, range(ell, ell + 1), spec, z)[0]


def _energy_ladder(field: FieldOnCover, orders: range, spec: OperatorSpec,
                   z: complex) -> list[EnergySeries]:
    """`energy_series` of each order in orders, bit for bit, with L and the rungs
    L^a u up to the last order built once for all of them."""
    from .norms import multi_indices

    shape = field.values.shape
    generator_t = _generator(spec, field.basis, z).T
    rungs = [field.values]
    for _ in range(orders[-1]):
        rungs.append((rungs[-1].reshape(shape[0], -1) @ generator_t).reshape(shape))
    a0 = spec.A[0].eval_grid(np.array([0.0]), field.basis.x1)[0]
    w1 = field.basis.w1

    series = []
    for ell in orders:
        table = multi_indices(2, ell)
        total = np.zeros(shape[0])
        for alpha, weight in zip(table.indices, table.weights):
            dv = rungs[alpha[0]]
            for _ in range(alpha[1]):
                dv = np.einsum("ms,ksc->kmc", field.basis.d1, dv)
            dens = 0.5 * np.einsum("kma,mab,kmb->km", np.conj(dv), a0, dv).real
            total += weight * np.einsum("m,km->k", w1, dens)
        series.append(EnergySeries(ell=ell, times=field.times, values=total))
    return series


def fit_log_slope(times: np.ndarray, values: np.ndarray) -> float:
    """Least-squares slope of log(values) over times, ignoring entries <= 0."""
    mask = values > 0
    if mask.sum() < 3:
        raise ValueError("too few usable points for a rate fit")
    t, v = times[mask], np.log(values[mask])
    design = np.stack([t, np.ones_like(t)], axis=1)
    coeff, *_ = np.linalg.lstsq(design, v, rcond=None)
    return float(coeff[0])


def _period_increment(prop: _Propagator, per: int) -> np.ndarray:
    """M - I for the period map M = (I + HQ)^per, by binary powering in increment
    form: (I + A)(I + B) = I + (A + B + AB), never forming I + D.  The step
    increment is prop.HQ, the matrix `_march` applies."""
    step = prop.HQ
    total = np.zeros_like(step)
    while True:
        if per & 1:
            total = total + step + total @ step
        per >>= 1
        if not per:
            return total
        step = step + step + step @ step


def periodize(spec: OperatorSpec, basis: SpectralBasis, f: np.ndarray, z: complex) -> np.ndarray:
    """Solve (D + z*A^0) u = f for periodic f: the RK4 march's periodic start
    u0 = (I - M)^{-1} b, then one forced period from u0 for the snapshots.  At or
    near a pole, cond(I - M) * eps above PERIODIZE_TOL raises PeriodizationError.
    """
    period = 2.0 * np.pi
    f = np.asarray(f, dtype=complex)
    expected = (basis.n_time, basis.n_space, spec.N)
    if f.shape != expected:
        raise ValueError(f"periodic forcing must have shape {expected}")
    # step count per period divisible by the node count: snapshots land on grid times
    per = int(math.ceil(period / stable_time_step(spec, basis, z)))
    per = basis.n_time * int(math.ceil(per / basis.n_time))
    stride = per // basis.n_time
    prop = _propagator(spec, basis, z, period / per)

    # f has integer Fourier modes, so A0^{-1} f at the 2*per + 1 half-step times
    # of one period serves both marches
    half_steps = np.arange(2 * per + 1) * (prop.h / 2)
    phases = np.exp(1j * np.outer(half_steps, basis.modes))
    f_modes = fourier_coefficients(f, basis).reshape(basis.n_time, -1)
    table = ((phases @ f_modes) @ prop.inv_a0.T)[:, :, None]

    def g(j0: int, j1: int) -> np.ndarray:
        return table[j0:j1]

    b = _march(prop, np.zeros((f[0].size, 1), dtype=complex), 0.0, per, per, g)[-1]
    fixed = -_period_increment(prop, per)  # I - M
    condition = float(np.linalg.cond(fixed))
    if not condition * np.finfo(float).eps <= PERIODIZE_TOL:
        raise PeriodizationError(z, condition)
    return _march(prop, np.linalg.solve(fixed, b), 0.0, per, stride, g)[:-1].reshape(expected)


def random_smooth_slice(rng: np.random.Generator, basis: SpectralBasis, N: int) -> np.ndarray:
    """A random complex (n_space, N) slice whose Chebyshev coefficient k has
    standard normal real and imaginary parts scaled by 1/(1 + k)^2, k < M/2."""
    coeff = rng.standard_normal((basis.M // 2, N)) + 1j * rng.standard_normal((basis.M // 2, N))
    coeff /= (1.0 + np.arange(basis.M // 2))[:, None] ** 2
    return np.polynomial.chebyshev.chebval(basis.x1, coeff).T


def floquet_exponents(spec: OperatorSpec, basis: SpectralBasis, z: complex = 0.0) -> np.ndarray:
    """Floquet exponents log(mu)/2pi of the RK4 period map M of the operator
    shifted by z*A^0, largest real part first, imaginary parts in (-1/2, 1/2].

    M - I comes from `_period_increment` at the stable step, as in `periodize`,
    and its eigenvalues are the mu - 1.  log|mu| is taken from mu - 1 with log1p
    while |mu - 1| < 1/2, so a multiplier near 1 is not rounded against the
    identity, and from |mu| below that.  A multiplier that rounds to 0 has
    real part -inf.
    """
    period = 2.0 * np.pi
    per = int(math.ceil(period / stable_time_step(spec, basis, z)))
    d = np.linalg.eigvals(_period_increment(_propagator(spec, basis, z, period / per), per))
    with np.errstate(divide="ignore"):
        log_mod = np.where(np.abs(d) < 0.5,
                           0.5 * np.log1p(d.real * (2.0 + d.real) + d.imag ** 2),
                           np.log(np.abs(1.0 + d)))
    exponents = log_mod / period + 1j * (np.angle(1.0 + d) / period)
    return exponents[np.argsort(-exponents.real)]


@dataclass(frozen=True)
class GrowthReport:
    rate: float
    modal: bool
    per_run_rates: tuple[float, ...]  # every Floquet rate, largest first
    plateau: bool

    @property
    def nonmodal_plateau(self) -> bool:
        return self.plateau and not self.modal


def growth_rate(spec: OperatorSpec, basis: SpectralBasis, *, periods: int | None = None,
                seed: int | None = None, z: float = 0.0) -> GrowthReport:
    """Dominant growth rate of the homogeneous evolution of the operator shifted by
    z*A^0: the largest real part of its Floquet exponents (`floquet_exponents`).

    `periods` and `seed` are unused (the rate comes from the period map, not from
    marched random data); the `evolve` benchmark workload still passes them.

    The evolution is modal when the dominant multiplier is simple (every other
    rate lower by more than MODAL_GAP); a plateau (|rate| < 0.05) without it flags
    a non-modal neutral space, as CE-FLAT's M = I does.  A dominant multiplier
    below MULTIPLIER_FLOOR raises ValueError: the period map does not resolve it.
    """
    exponents = floquet_exponents(spec, basis, z)
    rates = exponents.real
    rate = float(rates[0])
    dominant = math.exp(2.0 * np.pi * rate)
    if not dominant > MULTIPLIER_FLOOR:
        raise ValueError(f"growth rate below the period map's resolution at z = {z}: "
                         f"the dominant Floquet multiplier is {dominant:.3g}")
    return GrowthReport(rate=rate, modal=bool(rates[0] - rates[1] > MODAL_GAP),
                        per_run_rates=tuple(rates.tolist()), plateau=abs(rate) < 0.05)
