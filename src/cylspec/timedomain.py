"""Method-of-lines evolution on the universal cover (one spatial dimension).

The first-order system A^0 d_0 u + A^1 d_1 u + (B + z A^0) u = f is integrated
with classical four-stage Runge-Kutta on the Chebyshev grid.  No boundary
closure is applied: admissible operators are outflow at the boundary, so the
collocated spatial operator is used as-is, including characteristic points.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass

import numpy as np

from .operator_model import OperatorSpec, SpecError
from .spectral import SpectralBasis

DUMP_MAGIC = b"CYLF"


@dataclass(frozen=True)
class FieldOnCover:
    """Time series of spatial slices: values[k] lives at cover time times[k]."""

    times: np.ndarray          # (n_times,)
    values: np.ndarray         # (n_times, n_space, N)
    basis: SpectralBasis

    def __post_init__(self):
        if self.values.shape[0] != self.times.shape[0]:
            raise ValueError("times and values disagree")

    @property
    def N(self) -> int:
        return self.values.shape[2]

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

    def to_csv(self, path: str, manifest_hash: str = "") -> None:
        with open(path, "w", encoding="utf-8") as fh:
            if manifest_hash:
                fh.write(f"# manifest: {manifest_hash}\n")
            fh.write("x0,energy\n")
            for t, e in zip(self.times, self.values):
                fh.write(f"{t!r},{e!r}\n")


class InstabilityError(RuntimeError):
    pass


class PeriodizationError(RuntimeError):
    pass


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


def stable_time_step(spec: OperatorSpec, basis: SpectralBasis, z: complex = 0.0,
                     cfl: float = 0.25) -> float:
    """Explicit-step bound: cfl * (min grid spacing) / (max wave speed), capped
    by cfl / (norm of the zero-order term + 1)."""
    inv_a0, a1, bz = _pointwise_operators(spec, basis, z)
    speeds = np.abs(np.linalg.eigvals(np.einsum("mab,mbc->mac", inv_a0, a1)))
    vmax = float(speeds.max())
    spacing = float(np.min(np.abs(np.diff(basis.x1))))
    dt = cfl * spacing / max(vmax, 1e-12)
    zero_order = float(max(
        np.linalg.norm(np.einsum("mab,mbc->mac", inv_a0, bz), axis=(1, 2)).max(), 0.0
    ))
    return min(dt, cfl / (zero_order + 1.0))


def evolve(spec: OperatorSpec, basis: SpectralBasis, *,
           initial: np.ndarray | None = None,
           forcing=None,
           z: complex = 0.0,
           t_range: tuple[float, float],
           store_stride: int = 1,
           dt: float | None = None) -> FieldOnCover:
    """Integrate the forced system from `initial` over t_range with RK4.

    `forcing` is None or a callable t -> (n_space, N) slice.  The returned field
    stores every store_stride-th step (endpoints always included).
    """
    inv_a0, a1, bz = _pointwise_operators(spec, basis, z)
    t0, t1 = t_range
    if t1 <= t0:
        raise ValueError("empty time range")
    dt_max = dt or stable_time_step(spec, basis, z)
    n_steps = max(1, int(math.ceil((t1 - t0) / dt_max - 1e-9)))
    store_stride = max(1, min(store_stride, n_steps))
    if store_stride > 1:
        # stored samples stay uniformly spaced
        n_steps = store_stride * int(math.ceil(n_steps / store_stride))
    dt = (t1 - t0) / n_steps

    d1 = basis.d1
    N = spec.N

    def rhs(t: float, u: np.ndarray) -> np.ndarray:
        du = np.einsum("ms,sc->mc", d1, u)
        flux = np.einsum("mab,mb->ma", a1, du) + np.einsum("mab,mb->ma", bz, u)
        if forcing is not None:
            flux = flux - forcing(t)
        return -np.einsum("mab,mb->ma", inv_a0, flux)

    u = np.zeros((basis.n_space, N), dtype=complex) if initial is None \
        else np.asarray(initial, dtype=complex).reshape(basis.n_space, N).copy()
    coeff_scale = max(float(np.abs(a1).max()), float(np.abs(bz).max()), 1.0)
    growth_cap = math.exp(min(10.0 * (t1 - t0) * coeff_scale, 700.0))
    base_norm = max(float(np.linalg.norm(u)), 1.0)

    times = [t0]
    stored = [u.copy()]
    t = t0
    for step in range(1, n_steps + 1):
        k1 = rhs(t, u)
        k2 = rhs(t + dt / 2, u + dt / 2 * k1)
        k3 = rhs(t + dt / 2, u + dt / 2 * k2)
        k4 = rhs(t + dt, u + dt * k3)
        u = u + dt / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
        t = t0 + step * dt
        if not np.all(np.isfinite(u)) or np.linalg.norm(u) > growth_cap * base_norm:
            raise InstabilityError(f"evolution diverged at t = {t:.4g}")
        if step % store_stride == 0 or step == n_steps:
            times.append(t)
            stored.append(u.copy())
    return FieldOnCover(np.array(times), np.array(stored), basis)


def energy_series(field: FieldOnCover, ell: int, spec: OperatorSpec) -> EnergySeries:
    """Weighted derivative energies per slice.

    Spatial derivatives are spectral; time derivatives use centered fourth-order
    finite differences on the stored uniform time grid, so a few slices at each
    end are dropped.
    """
    from .norms import multi_indices

    times = field.times
    if len(times) < 6:
        raise ValueError("need at least 6 stored slices")
    dt = float(times[1] - times[0])
    if not np.allclose(np.diff(times), dt, rtol=1e-8):
        raise ValueError("energy series needs a uniform time grid")

    a0 = spec.A[0].eval_grid(np.array([0.0]), field.basis.x1)[0]
    w1 = field.basis.w1

    def time_derivative(vals: np.ndarray) -> np.ndarray:
        out = np.zeros_like(vals)
        out[2:-2] = (vals[:-4] - 8 * vals[1:-3] + 8 * vals[3:-1] - vals[4:]) / (12 * dt)
        return out

    table = multi_indices(2, ell)
    margin = 2 * ell
    total = np.zeros(len(times))
    for alpha, weight in zip(table.indices, table.weights):
        dv = field.values
        for _ in range(alpha[1]):
            dv = np.einsum("ms,ksc->kmc", field.basis.d1, dv)
        for _ in range(alpha[0]):
            dv = time_derivative(dv)
        dens = 0.5 * np.einsum("kma,mab,kmb->km", np.conj(dv), a0, dv).real
        total += weight * np.einsum("m,km->k", w1, dens)
    keep = slice(margin, len(times) - margin) if margin else slice(None)
    return EnergySeries(ell=ell, times=times[keep], values=total[keep])


def fit_log_slope(times: np.ndarray, values: np.ndarray, floor: float = 0.0) -> float:
    """Least-squares slope of log(values) over times, ignoring entries at/below floor."""
    mask = values > floor
    if mask.sum() < 3:
        raise ValueError("too few usable points for a rate fit")
    t, v = times[mask], np.log(values[mask])
    design = np.stack([t, np.ones_like(t)], axis=1)
    coeff, *_ = np.linalg.lstsq(design, v, rcond=None)
    return float(coeff[0])


def periodize(spec: OperatorSpec, basis: SpectralBasis, f: np.ndarray, z: complex,
              *, tol: float = 1e-9, max_periods: int = 200) -> np.ndarray:
    """Solve (D + z*A^0) u = f for periodic f by marching the cover until snapshots settle.

    The forced cover solution from zero data converges period by period when the
    shift is dissipative enough; the settled period descends to the quotient.
    Non-convergence within the cap raises PeriodizationError (the shift is at or
    left of the effective growth threshold).
    """
    period = 2.0 * np.pi
    f = np.asarray(f, dtype=complex)
    expected = (basis.n_time, basis.n_space, spec.N)
    if f.shape != expected:
        raise ValueError(f"periodic forcing must have shape {expected}")
    from .spectral import fourier_coefficients

    f_modes = fourier_coefficients(f, basis)

    def forcing(t: float) -> np.ndarray:
        phases = np.exp(1j * basis.modes * t)
        return np.tensordot(phases, f_modes, axes=(0, 0))

    # step count per period divisible by the node count: snapshots land on grid times
    dt_max = stable_time_step(spec, basis, z)
    per = int(math.ceil(period / dt_max))
    per = basis.n_time * int(math.ceil(per / basis.n_time))
    dt = period / per
    stride = per // basis.n_time

    u = np.zeros((basis.n_space, spec.N), dtype=complex)
    prev_snapshot = None
    for p in range(max_periods):
        run = evolve(spec, basis, initial=u, forcing=forcing, z=z,
                     t_range=(p * period, (p + 1) * period), store_stride=stride, dt=dt)
        u = run.values[-1]
        snapshot = run.values[:-1]  # node times p*2pi + x0_j
        if prev_snapshot is not None:
            delta = float(np.abs(snapshot - prev_snapshot).max())
            scale = max(float(np.abs(snapshot).max()), 1e-300)
            if delta <= tol * max(scale, 1.0):
                return snapshot
        prev_snapshot = snapshot
    raise PeriodizationError(
        f"no settled period within {max_periods} periods (shift too far left?)"
    )


@dataclass(frozen=True)
class GrowthReport:
    rate: float
    modal: bool
    per_run_rates: tuple[float, ...]
    plateau: bool

    @property
    def nonmodal_plateau(self) -> bool:
        return self.plateau and not self.modal


def growth_rate(spec: OperatorSpec, basis: SpectralBasis, *, periods: int = 12,
                seed: int = 0, n_runs: int = 3) -> GrowthReport:
    """Dominant growth rate of the homogeneous evolution, from random smooth data.

    Runs several random initial conditions; the rate is the median fitted slope
    of the log slice norm over the last half of the window.  The evolution is
    modal when all runs settle onto one normalized profile; a plateau (rate near
    zero) without modal collapse flags a non-modal neutral space.
    """
    if periods < 10:
        raise ValueError("growth rate needs a window of at least 10 periods")
    rng = np.random.default_rng(seed)
    period = 2.0 * np.pi
    rates, profiles = [], []
    for _ in range(n_runs):
        coeff = rng.standard_normal((basis.M // 2, spec.N)) + \
            1j * rng.standard_normal((basis.M // 2, spec.N))
        coeff /= (1.0 + np.arange(basis.M // 2))[:, None] ** 2
        init = np.polynomial.chebyshev.chebval(basis.x1, coeff).T
        run = evolve(spec, basis, initial=init, z=0.0,
                     t_range=(0.0, periods * period), store_stride=16)
        norms = run.slice_norms()
        half = run.times >= periods * period / 2
        rate = fit_log_slope(run.times[half], norms[half],
                             floor=1e3 * np.finfo(float).eps * norms.max())
        rates.append(rate)
        final = run.values[-1]
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
    return GrowthReport(rate=rate, modal=modal, per_run_rates=tuple(rates), plateau=plateau)
