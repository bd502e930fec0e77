import functools
import math

import numpy as np
import pytest

from cylspec import timedomain
from cylspec.operator_model import OperatorSpec, SpecError, WeightSequence, energy_threshold, \
    fixture, stability_constants
from cylspec.polynomial import MatrixPolynomial
from cylspec.resolvent import apply_resolvent, find_poles
from cylspec.stability import make_forcing, solve_on_segment
from cylspec.spectral import build_basis
from cylspec.timedomain import (
    GUARD_BLOCK_BYTES,
    PERIODIZE_TOL,
    FieldOnCover,
    InstabilityError,
    PeriodizationError,
    _energy_ladder,
    _march,
    _period_increment,
    _propagator,
    _step_plan,
    energy_series,
    evolve,
    fit_log_slope,
    floquet_exponents,
    growth_rate,
    periodize,
    stable_time_step,
)
from conftest import aligned_times
from reference import FIT_FLOOR_REL, random_run_growth_rate

PERIOD = 2 * math.pi


def chebyshev_data(basis, seed=1, n=10, N=1):
    rng = np.random.default_rng(seed)
    coeff = (rng.standard_normal((n, N)) + 1j * rng.standard_normal((n, N)))
    coeff /= (1.0 + np.arange(n))[:, None] ** 2
    return np.polynomial.chebyshev.chebval(basis.x1, coeff).T


def two_component_spec(seed=7):
    """n=1, N=2: constant A^0 > 0, A^1 = x1*H with H > 0 (outflow), Hermitian B."""
    rng = np.random.default_rng(seed)

    def hermitian():
        m = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        return (m + m.conj().T) / 2

    a0 = hermitian() + 3.0 * np.eye(2)
    h = hermitian() + 3.0 * np.eye(2)
    assert np.linalg.eigvalsh(a0).min() > 0 and np.linalg.eigvalsh(h).min() > 0
    return OperatorSpec(
        n=1, N=2,
        A=(MatrixPolynomial.constant(a0, 2), MatrixPolynomial(2, (2, 2), {(0, 1): h})),
        B=MatrixPolynomial.constant(hermitian(), 2),
        weights=WeightSequence.geometric(0.024, 16), Q=1.0, name="two-component",
    )


def reference_rk4(spec, basis, initial, forcing, z, times):
    """Classical RK4 one stage at a time with pointwise einsums, on the given step times."""
    pt0 = np.array([0.0])
    a0, a1, b = (c.eval_grid(pt0, basis.x1)[0] for c in (spec.A[0], spec.A[1], spec.B))
    inv_a0, bz = np.linalg.inv(a0), b + z * a0

    def rhs(t, u):
        du = np.einsum("ms,sc->mc", basis.d1, u)
        flux = np.einsum("mab,mb->ma", a1, du) + np.einsum("mab,mb->ma", bz, u)
        if forcing is not None:
            flux = flux - forcing(t)
        return -np.einsum("mab,mb->ma", inv_a0, flux)

    u = np.asarray(initial, dtype=complex)
    states = [u]
    for t, t_next in zip(times[:-1], times[1:]):
        dt = t_next - t
        k1 = rhs(t, u)
        k2 = rhs(t + dt / 2, u + dt / 2 * k1)
        k3 = rhs(t + dt / 2, u + dt / 2 * k2)
        k4 = rhs(t + dt, u + dt * k3)
        u = u + dt / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
        states.append(u)
    return np.array(states)


# -- evolution ----------------------------------------------------------------


def test_zero_data_zero_forcing_stays_zero(ex1, basis_q4m32):
    run = evolve(ex1, basis_q4m32, z=1.0, t_range=(0.0, 1.0))
    assert np.all(run.values == 0)


def test_constant_mode_exponential_decay(ex1, basis_q4m32):
    run = evolve(ex1, basis_q4m32, initial=np.ones((33, 1)), z=1.0,
                 t_range=(0.0, PERIOD), store_stride=8)
    assert np.abs(run.values[-1] - math.exp(-PERIOD)).max() < 1e-6


def test_rk4_convergence_order(ex1, basis_q4m32):
    dt0 = stable_time_step(ex1, basis_q4m32, 1.0)
    errs = []
    for dt in (dt0, dt0 / 2):
        n_steps, _ = _step_plan(1.0, dt, 1)
        prop = _propagator(ex1, basis_q4m32, 1.0, 1.0 / n_steps)
        end = _march(prop, np.ones((33, 1), dtype=complex), 0.0, n_steps, 1)[-1]
        errs.append(np.abs(end - math.exp(-1.0)).max())
    assert 12.0 < errs[0] / errs[1] < 20.0


def test_forced_run_retarded_exactly(ex1, basis_q4m32):
    forcing = make_forcing(basis_q4m32, "default")
    t0 = forcing.support[0]
    run = evolve(ex1, basis_q4m32, forcing=lambda t: forcing.slice_at(t), z=0.0,
                 t_range=(t0 - PERIOD, t0 + PERIOD), store_stride=1)
    before = run.times <= t0
    assert np.all(run.values[before] == 0)


def test_instability_detector():
    spec, basis = fixture("EX1"), build_basis(0, 8)
    n_steps, _ = _step_plan(200.0, 1.5, 1)  # steps far beyond the stable step
    prop = _propagator(spec, basis, 0.0, 200.0 / n_steps)
    errors = []
    for march in (_march, _reference_march):
        with pytest.raises(InstabilityError) as info, np.errstate(over="ignore", invalid="ignore"):
            march(prop, np.ones((9, 1), dtype=complex), 0.0, n_steps, 1)
        errors.append(info.value)
    err, ref = errors
    assert (err.time, err.column, err.cap) == (ref.time, 0, ref.cap)
    assert not err.norm <= err.cap
    assert str(err) == str(ref) == f"evolution diverged at t = {err.time:.4g}"


@pytest.mark.parametrize("forced", [False, True])
def test_two_component_evolve_matches_stagewise_rk4(forced):
    # block-diagonal A0^{-1} and B with N > 1 against the stage-by-stage stepper
    spec = two_component_spec()
    basis = build_basis(0, 16)
    profile = chebyshev_data(basis, seed=12, n=6, N=2)
    forcing = (lambda t: math.exp(-4.0 * (t - 0.5) ** 2) * profile) if forced else None
    initial = None if forced else chebyshev_data(basis, seed=13, n=8, N=2)
    z = 0.2 + 0.3j
    run = evolve(spec, basis, initial=initial, forcing=forcing, z=z,
                 t_range=(0.0, 1.5), store_stride=1)
    start = np.zeros((basis.n_space, 2)) if initial is None else initial
    ref = reference_rk4(spec, basis, start, forcing, z, run.times)
    assert len(run.times) > 50
    assert np.abs(run.values - ref).max() <= 1e-12 * np.abs(ref).max()


def test_ex1_forced_evolve_matches_stagewise_rk4(ex1, basis_q4m32):
    # the fused forced step against the stage-by-stage stepper, not only against
    # its own per-step reference: EX1 under a Gaussian pulse
    forcing = make_forcing(basis_q4m32, {"time_gaussian": {"center": 1.0, "sigma": 0.3}})
    run = evolve(ex1, basis_q4m32, forcing=forcing.slice_at, z=0.1, t_range=(0.0, 2.0),
                 store_stride=1)
    ref = reference_rk4(ex1, basis_q4m32, np.zeros((basis_q4m32.n_space, 1)),
                        forcing.slice_at, 0.1, run.times)
    assert len(run.times) > 50 and np.abs(ref).max() > 0
    assert np.abs(run.values - ref).max() <= 1e-12 * np.abs(ref).max()


def test_march_and_period_map_share_one_step_matrix(ex1):
    # one homogeneous step of the identity columns is I + HQ, and the period map
    # of one step is HQ itself: the march and the period map apply one matrix
    # (the grid is coarse so that the rough unit columns stay under the guard's cap)
    basis = build_basis(0, 8)
    prop = _propagator(ex1, basis, 0.5, stable_time_step(ex1, basis, 0.5))
    ident = np.eye(len(prop.HQ), dtype=complex)
    assert np.array_equal(_march(prop, ident, 0.0, 1, 1)[-1], ident + prop.HQ)
    assert np.array_equal(_period_increment(prop, 1), prop.HQ)


# -- the block march against the per-step reference -------------------------------


def _reference_march(prop, v, t0, n_steps, stride, g=None, forcing=None):
    """The per-step march: a fresh state and one blow-up check per step, the
    forced step's stack concatenated anew, and its forcing increment formed from
    one half-step's A0^{-1} f at a time.  For an `evolve` run that comes from
    the raw forcing callable, as prop.inv_a0 @ slice.reshape(n, 1), not from
    evolve's block function g; otherwise from g one half-step at a time."""
    h, HQ, HW = prop.h, prop.HQ, prop.HW
    n = len(v)
    if forcing is not None:
        def at(j):
            return prop.inv_a0 @ np.asarray(forcing(t0 + j * prop.h / 2)).reshape(n, 1)
    else:
        def at(j):
            return g(j, j + 1)[0]
    cap = math.exp(min(10.0 * n_steps * h * prop.coeff_scale, 700.0)) \
        * np.maximum(np.linalg.norm(v, axis=0), 1.0)
    stored = np.empty((n_steps // stride + 1, *v.shape), dtype=complex)
    stored[0] = v
    g0 = None if g is None else at(0)
    for step in range(1, n_steps + 1):
        if g is None:
            v = v + HQ @ v
        else:
            gh, g1 = at(2 * step - 1), at(2 * step)
            v = v + (h / 6 * (g0 + 4 * gh + g1) + HW @ np.concatenate((v, g0, gh)))
            g0 = g1
        norms = np.linalg.norm(v, axis=0)
        if not (norms <= cap).all():
            col = int(np.argmin(norms <= cap))
            raise InstabilityError(t0 + step * h, col, float(norms[col]), float(cap[col]))
        if step % stride == 0:
            stored[step // stride] = v
    return stored


def _with_reference_march(monkeypatch, run, forcing=None):
    """run() with the block march, then with the per-step reference, which takes
    an `evolve` run's A0^{-1} f from the raw forcing callable when one is given."""
    new = run()
    monkeypatch.setattr(timedomain, "_march", functools.partial(_reference_march, forcing=forcing))
    with np.errstate(over="ignore", invalid="ignore"):  # as _march discards diverged states
        ref = run()
    monkeypatch.undo()
    return new, ref


def _assert_same_fields(new, ref):
    assert np.array_equal(new.times, ref.times)
    assert np.array_equal(new.values, ref.values)


@pytest.mark.parametrize("stride", [1, 16])
def test_homogeneous_evolve_bit_identical_to_per_step_march(monkeypatch, ex1, basis_q4m32,
                                                           stride):
    # 2610 steps (2624 at stride 16): 21 full blocks of 124 states (n = 33) and a partial one
    init = chebyshev_data(basis_q4m32, seed=3)
    new, ref = _with_reference_march(monkeypatch, lambda: evolve(
        ex1, basis_q4m32, initial=init, z=0.0, t_range=(0.0, PERIOD), store_stride=stride))
    _assert_same_fields(new, ref)


@pytest.mark.parametrize("kind", ["bump", "gaussian", "two-component"])
def test_forced_evolve_bit_identical_to_per_step_march(monkeypatch, ex1, basis_q4m32, kind):
    if kind == "two-component":
        spec, basis = two_component_spec(), build_basis(0, 16)
        profile = chebyshev_data(basis, seed=12, n=6, N=2)
        forcing, t_range = (lambda t: math.exp(-4.0 * (t - 0.5) ** 2) * profile), (0.0, 3.0)
    else:
        doc = {"time_bump": {"center": 2.0, "width": 1.5}} if kind == "bump" \
            else {"time_gaussian": {"center": 2.0, "sigma": 0.4}}
        spec, basis = ex1, basis_q4m32
        forcing, t_range = make_forcing(basis, doc).slice_at, (0.0, 4.0)
    calls = []

    def counted(t):
        calls.append(t)
        return forcing(t)

    # the reference calls the raw forcing, so calls holds the block march's alone
    new, ref = _with_reference_march(monkeypatch, lambda: evolve(
        spec, basis, forcing=counted, z=0.1, t_range=t_range, store_stride=1), forcing)
    assert np.abs(new.values).max() > 0
    _assert_same_fields(new, ref)
    # one call per half-step, in order, the blocks' shared half-steps not fetched
    # again; every case has several guard blocks and ends on a partial one
    n_steps = len(new.times) - 1
    rows = GUARD_BLOCK_BYTES // new.values[0].nbytes
    assert n_steps > rows and n_steps % rows
    h = (t_range[1] - t_range[0]) / n_steps
    assert calls == [t_range[0] + j * h / 2 for j in range(2 * n_steps + 1)]


@pytest.mark.parametrize("name", ["EX1", "CE-FLAT"])
def test_growth_rates_bit_identical_to_per_step_march(monkeypatch, basis_q4m32, name):
    new, ref = _with_reference_march(
        monkeypatch, lambda: random_run_growth_rate(fixture(name), basis_q4m32, periods=10,
                                                    seed=2))
    assert np.array_equal(new.per_run_rates, ref.per_run_rates)


def test_periodize_bit_identical_to_per_step_march(monkeypatch, ex1, basis_q4m32):
    # periodize's two forced marches, the response from zero and the period from
    # the solved start, against the per-step reference, on EX1 and on the
    # two-component spec (N = 2), whose growth rate is about 1, so its shift sits
    # right of that
    two, basis2 = two_component_spec(), build_basis(2, 16)
    profile = chebyshev_data(basis2, seed=12, n=6, N=2)
    f_ex1 = (basis_q4m32.x1[None, :, None] * np.ones((9, 1, 1))).astype(complex)
    f_two = (np.exp(1j * basis2.x0) + 0.5)[:, None, None] * profile[None]
    cases = ((ex1, basis_q4m32, 1.0, f_ex1), (two, basis2, 2.0 + 0.5j, f_two))
    for spec, basis, z, f in cases:
        new, ref = _with_reference_march(monkeypatch, lambda: periodize(spec, basis, f, z))
        assert np.abs(new).max() > 0
        assert np.array_equal(new, ref)


@pytest.mark.parametrize("stride", [1, 16])
@pytest.mark.parametrize("where", ["first", "middle", "last", "partial"])
def test_guard_names_first_failing_state(monkeypatch, stride, where):
    # a NaN forcing at the middle of step s makes state s the first non-finite one
    spec, basis = fixture("EX1"), build_basis(0, 16)
    rows = GUARD_BLOCK_BYTES // (16 * basis.n_space)
    dt = stable_time_step(spec, basis)
    span = 2.5 * rows * dt
    n_steps, _ = _step_plan(span, dt, stride)
    assert 2 * rows < n_steps < 3 * rows
    s = {"first": rows + 1, "middle": rows + rows // 2, "last": 2 * rows,
         "partial": (2 * rows + n_steps) // 2}[where]
    h = span / n_steps

    def forcing(t):
        return np.full((basis.n_space, 1), np.nan if abs(t - (s - 0.5) * h) < h / 4 else 0.0)

    def run():
        with pytest.raises(InstabilityError) as info:
            evolve(spec, basis, forcing=forcing, z=0.0, t_range=(0.0, span), store_stride=stride)
        return info.value

    err, ref = _with_reference_march(monkeypatch, run, forcing)
    assert err.time == ref.time == s * h
    assert (err.column, err.cap) == (0, ref.cap)
    assert math.isnan(err.norm) and math.isnan(ref.norm)


def test_guard_names_failing_column(ex1, basis_q4m32):
    # three marched columns, the last non-finite from the start
    prop = _propagator(ex1, basis_q4m32, 0.0, stable_time_step(ex1, basis_q4m32))
    v = np.ones((basis_q4m32.n_space, 3), dtype=complex)
    v[:, 2] = np.inf
    for march in (_march, _reference_march):
        with pytest.raises(InstabilityError) as info, np.errstate(invalid="ignore"):
            march(prop, v, 1.0, 200, 1)
        assert (info.value.time, info.value.column) == (1.0 + prop.h, 2)


# -- energies ------------------------------------------------------------------


def test_zero_field_zero_energy(ex1, basis_q4m32):
    run = evolve(ex1, basis_q4m32, z=1.0, t_range=(0.0, 1.0), store_stride=4)
    es = energy_series(run, 0, ex1)
    assert np.all(es.values == 0)


def test_energy_decay_slope(ex1, basis_q4m32):
    sc = stability_constants(ex1)
    run = evolve(ex1, basis_q4m32, initial=chebyshev_data(basis_q4m32), z=sc.z_star + 0.1,
                 t_range=(0.0, 8 * PERIOD), store_stride=8)
    es = energy_series(run, 0, ex1)
    last4 = es.times >= 4 * PERIOD
    slope = fit_log_slope(es.times[last4], es.values[last4])
    assert slope <= -0.9


def test_energy_order_one_decays_too(ex1, basis_q4m32):
    sc = stability_constants(ex1)
    run = evolve(ex1, basis_q4m32, initial=chebyshev_data(basis_q4m32, seed=4),
                 z=sc.z_star + 0.1, t_range=(0.0, 6 * PERIOD), store_stride=8)
    es = energy_series(run, 1, ex1, sc.z_star + 0.1)
    half = es.times >= 3 * PERIOD
    assert fit_log_slope(es.times[half], es.values[half]) <= -0.9


def test_constant_mode_energies_at_every_slice(ex1, basis_q4m32):
    # EX1's constant mode solves d_0 u = -z u, so E_ell = z^(2 ell) E_0 on every
    # stored slice, the first and last included (from E_3 on, d_1's roundoff on
    # the constant, amplified like M^2 per derivative, passes 1e-12)
    z = 0.5
    run = evolve(ex1, basis_q4m32, initial=np.ones((33, 1)), z=z,
                 t_range=(0.0, 2 * PERIOD), store_stride=16)
    e0 = energy_series(run, 0, ex1, z)
    assert np.all(e0.values > 0)
    for ell in (1, 2):
        es = energy_series(run, ell, ex1, z)
        assert np.array_equal(es.times, run.times)
        assert np.abs(es.values / (z ** (2 * ell) * e0.values) - 1).max() <= 1e-12


def test_energy_ladder_is_energy_series_bit_for_bit(ex1, basis_q4m32, monkeypatch):
    # one generator and one set of rungs for every order, the same bits as one
    # energy_series call per order
    z = 0.3
    run = evolve(ex1, basis_q4m32, initial=chebyshev_data(basis_q4m32, seed=2), z=z,
                 t_range=(0.0, PERIOD), store_stride=16)
    each = [energy_series(run, ell, ex1, z) for ell in range(4)]
    generators = []
    build = timedomain._generator

    def counted(*args):
        generators.append(args)
        return build(*args)

    monkeypatch.setattr(timedomain, "_generator", counted)
    ladder = _energy_ladder(run, range(4), ex1, z)
    assert len(generators) == 1
    assert [s.ell for s in ladder] == [0, 1, 2, 3]
    for got, want in zip(ladder, each, strict=True):
        assert got.times is run.times and got.values.tobytes() == want.values.tobytes()


def test_forced_energy_two_phase(ex1, basis_q4m32):
    forcing = make_forcing(basis_q4m32, "default")
    run = evolve(ex1, basis_q4m32, forcing=lambda t: forcing.slice_at(t),
                 z=1.0, t_range=(forcing.support[0], forcing.support[1] + 4 * PERIOD),
                 store_stride=8)
    es = energy_series(run, 0, ex1)
    driven = es.values[es.times <= forcing.support[1]]
    tail_mask = es.times >= forcing.support[1] + PERIOD
    assert driven.max() > 0
    slope = fit_log_slope(es.times[tail_mask], es.values[tail_mask])
    assert slope < -1.0  # decay after the forcing switches off


def test_per_period_energy_inequality(ex1, basis_q4m32):
    # E0 over one period contracts at least by exp(-2*pi*(1-eps)), slack 1e-3
    sc = stability_constants(ex1)
    run = evolve(ex1, basis_q4m32, initial=chebyshev_data(basis_q4m32, seed=9),
                 z=sc.z_star + 0.1, t_range=(0.0, 4 * PERIOD), store_stride=8)
    es = energy_series(run, 0, ex1)
    step = np.argmin(np.abs(es.times - (es.times[0] + PERIOD)))
    bound = math.exp(-PERIOD * 0.9) * (1 + 1e-3)
    for k in range(0, len(es.values) - step - 1, step):
        if es.values[k] == 0:
            continue
        assert es.values[k + step] <= bound * es.values[k]


# -- periodization ----------------------------------------------------------------


def test_periodize_constant(ex1, basis_q4m32):
    one = np.ones((9, 33, 1), dtype=complex)
    u = periodize(ex1, basis_q4m32, one, 1.0)
    assert np.abs(u - 1.0).max() < 1e-6


def test_periodize_matches_direct_solve(ex1, basis_q4m32):
    f = (basis_q4m32.x1[None, :, None] * np.ones((9, 1, 1))).astype(complex)
    u = periodize(ex1, basis_q4m32, f, 1.0)
    direct = apply_resolvent(ex1, basis_q4m32, 1.0, f)
    assert np.abs(u - direct).max() / np.abs(direct).max() < 1e-5


@pytest.mark.parametrize("per", [1, 2, 7, 64])
def test_period_increment_is_the_power_less_identity(ex1, per):
    basis = build_basis(0, 16)
    prop = _propagator(ex1, basis, 0.5, stable_time_step(ex1, basis, 0.5))
    ident = np.eye(len(prop.HQ))
    power = np.linalg.matrix_power(ident + prop.HQ, per)
    assert np.abs(_period_increment(prop, per) - (power - ident)).max() <= 1e-13


@pytest.mark.parametrize("z", [-0.25, -0.75, 0.3 + 0.5j, -0.25 + 0.5j],
                         ids=["-0.25", "-0.75", "0.3+0.5i", "-0.25+0.5i"])
def test_periodize_between_poles_matches_direct_solve(ex1, basis_q4m32, z):
    # EX1's poles are at -p/2: between them the period map's fixed point is the
    # resolvent solve, growing and decaying modes alike
    f = np.ones((9, 33, 1), dtype=complex)
    u = periodize(ex1, basis_q4m32, f, z)
    direct = apply_resolvent(ex1, basis_q4m32, z, f)
    assert np.abs(u - direct).max() <= 1e-10 * np.abs(direct).max()


@pytest.mark.parametrize("z", [0.0, -0.5])
def test_periodize_at_pole_raises(ex1, basis_q4m32, z):
    # at a pole I - M is singular to working precision: a typed error with its
    # condition, not a huge state
    f = np.ones((9, 33, 1), dtype=complex)
    with pytest.raises(PeriodizationError) as info:
        periodize(ex1, basis_q4m32, f, z)
    assert info.value.z == z
    assert info.value.condition * np.finfo(float).eps > PERIODIZE_TOL


# -- growth rates --------------------------------------------------------------------


def test_growth_rate_ex1(ex1, basis_q4m32):
    report = growth_rate(ex1, basis_q4m32)
    assert abs(report.rate) <= 0.05
    assert report.modal and not report.nonmodal_plateau


def test_growth_rate_ex1s(ex1s, basis_q4m32):
    report = growth_rate(ex1s, basis_q4m32)
    assert abs(report.rate - 0.75) <= 0.05


def test_growth_rate_flat_counterexample(basis_q4m32):
    report = growth_rate(fixture("CE-FLAT"), basis_q4m32)
    assert abs(report.rate) <= 0.05
    assert report.plateau and not report.modal
    assert report.nonmodal_plateau


def test_batched_growth_rates_match_separate_runs(ex1s, basis_q4m32):
    # the runs march as columns of one array; each column is the run evolve makes alone
    periods, seed, basis = 10, 5, basis_q4m32
    report = random_run_growth_rate(ex1s, basis, periods=periods, seed=seed)
    rng = np.random.default_rng(seed)
    span = periods * PERIOD
    half = basis.M // 2
    assert len(report.per_run_rates) == 3
    for rate in report.per_run_rates:
        coeff = rng.standard_normal((half, 1)) + 1j * rng.standard_normal((half, 1))
        coeff /= (1.0 + np.arange(half))[:, None] ** 2
        init = np.polynomial.chebyshev.chebval(basis.x1, coeff).T
        run = evolve(ex1s, basis, initial=init, z=0.0, t_range=(0.0, span), store_stride=16)
        norms = run.slice_norms()
        late = run.times >= span / 2
        late &= norms > FIT_FLOOR_REL * norms.max()
        expected = fit_log_slope(run.times[late], norms[late])
        assert abs(rate - expected) <= 1e-12


@pytest.mark.parametrize("name, modal, plateau", [
    ("EX1", True, True), ("EX1S", True, False), ("CE-FLAT", False, True),
])
def test_growth_verdicts(basis_q4m32, name, modal, plateau):
    report = growth_rate(fixture(name), basis_q4m32)
    assert (report.modal, report.plateau) == (modal, plateau)


@pytest.mark.parametrize("name", ["EX1", "EX1S", "CE-FLAT"])
def test_floquet_growth_matches_random_runs(basis_q4m32, name):
    # the random runs' fit starts 6 periods in, where the next multiplier's mode
    # (rate 0.5 below the dominant one on EX1 and EX1S) is down by exp(-6 pi) ~ 7e-9
    # against the dominant one: the fitted slope agrees to 1e-8
    floquet = growth_rate(fixture(name), basis_q4m32)
    runs = random_run_growth_rate(fixture(name), basis_q4m32)
    assert (floquet.modal, floquet.nonmodal_plateau) == (runs.modal, runs.nonmodal_plateau)
    assert abs(floquet.rate - runs.rate) <= 1e-8


def test_growth_rate_follows_the_shift_until_unresolved():
    # the shift lowers every rate by z; past about 4.6 the dominant multiplier
    # exp(-2 pi z) is below MULTIPLIER_FLOOR and the rate is refused
    spec, basis = fixture("EX1"), build_basis(0, 8)
    for z in (0.5, 1.0):
        report = growth_rate(spec, basis, z=z)
        assert abs(report.rate + z) <= 1e-6 and report.modal
    with pytest.raises(ValueError, match="resolution"):
        growth_rate(spec, basis, z=5.0)


# -- cross-engine agreement ------------------------------------------------------------


@pytest.mark.parametrize("name, n_poles", [("EX1", 5), ("EX1S", 6)])
def test_strip_poles_are_floquet_exponents(basis_q4m32, name, n_poles):
    # a pole lam of the resolvent is a Floquet exponent of the period map M, mod i.
    # Rounding moves a multiplier mu = exp(2 pi lam) by up to about eps |M| times
    # its condition number, which reaches 4.6e4 at EX1's deepest strip pole (-2):
    # allow |d mu| <= 1e-11 |M|, so the exponent moves by 1e-11 |M| / (2 pi |mu|),
    # a tolerance that grows like exp(-2 pi Re lam) with depth
    spec = fixture(name)
    poles = find_poles(spec, basis_q4m32, window=(-2.2, energy_threshold(spec)),
                       compute_projections=False).poles
    assert len(poles) == n_poles
    exponents = floquet_exponents(spec, basis_q4m32)
    per = int(math.ceil(PERIOD / stable_time_step(spec, basis_q4m32)))
    increment = _period_increment(_propagator(spec, basis_q4m32, 0.0, PERIOD / per), per)
    norm_m = np.linalg.norm(np.eye(len(increment)) + increment, 2)
    for pole in poles:
        dist = np.hypot(exponents.real - pole.lam.real,
                        (exponents.imag - pole.lam.imag + 0.5) % 1.0 - 0.5).min()
        tol = 1e-11 * norm_m / (PERIOD * math.exp(PERIOD * pole.lam.real))
        assert dist <= tol, (pole.lam, dist, tol)


def test_evolve_matches_segment_solution(ex1, basis_q16m32, default_forcing_q16):
    forcing = default_forcing_q16
    basis = basis_q16m32
    sol = solve_on_segment(ex1, basis, forcing, 0.3, 33)
    t1 = forcing.support[1]
    run = evolve(ex1, basis, forcing=lambda t: forcing.slice_at(t), z=0.0,
                 t_range=(forcing.support[0] - PERIOD, t1 + 4 * PERIOD + 0.1),
                 store_stride=1)
    targets = aligned_times(basis, range(1, 7))
    targets = targets[(targets >= t1 - 1e-9) & (targets <= t1 + 4 * PERIOD + 1e-9)]
    snapped = np.array([run.times[np.argmin(np.abs(run.times - t))] for t in targets])
    ev = np.stack([run.at_time(t) for t in snapped])
    ret = sol.evaluate(snapped).values
    w1 = basis.w1[None, :, None]
    rel = math.sqrt(float(np.sum(w1 * np.abs(ev - ret) ** 2))) \
        / math.sqrt(float(np.sum(w1 * np.abs(ret) ** 2)))
    assert rel <= 1e-3


def test_field_dump_round_trip(tmp_path, ex1, basis_q4m32):
    run = evolve(ex1, basis_q4m32, initial=np.ones((33, 1)), z=1.0,
                 t_range=(0.0, 0.5), store_stride=4)
    path = tmp_path / "field.bin"
    run.dump(str(path), manifest_hash="deadbeef")
    loaded = FieldOnCover.load(str(path), basis_q4m32)
    assert np.allclose(loaded.times, run.times)
    # dumps are single precision
    assert np.abs(loaded.values - run.values).max() < 1e-6


@pytest.mark.parametrize("run", [
    lambda spec, b: evolve(spec, b, initial=np.ones((b.n_space, 1)), t_range=(0.0, 1.0)),
    lambda spec, b: growth_rate(spec, b),
    lambda spec, b: periodize(spec, b, np.ones((b.n_time, b.n_space, 1)), 1.0),
], ids=["evolve", "growth_rate", "periodize"])
def test_x0_dependent_coefficients_rejected(wobble, basis_q4m32, run):
    # the stepper freezes the coefficients at x0 = 0, so it refuses ones that vary with x0
    with pytest.raises(SpecError, match="independent of x0"):
        run(wobble, basis_q4m32)
