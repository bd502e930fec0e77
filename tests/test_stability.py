import dataclasses
import math

import numpy as np
import pytest
import scipy.linalg

from cylspec import resolvent, spectral, stability
from cylspec.operator_model import OperatorSpec, SpecError, WeightSequence, fixture
from cylspec.polynomial import MatrixPolynomial
from cylspec.resolvent import NearPoleError, apply_resolvent, find_poles
from cylspec.spectral import (
    assemble_operator,
    build_basis,
    fourier_coefficients,
    mode_operator_parts,
)
from cylspec.stability import (
    COVER_EXPONENT_MAX,
    DECAY_ABSCISSA,
    DECAY_PERIODS,
    REFINE_SHIFT,
    BumpProfile,
    CoverSum,
    GaussianPulseProfile,
    _segment_sum,
    decompose,
    build_finite_rank_part,
    default_slice_times,
    forward_transform,
    make_forcing,
    retarded_solution,
    segment_abscissa,
    segment_node_count,
    solve_on_segment,
)
from conftest import aligned_times
from reference import _loop_nodes
from test_resolvent import _hermitian_a0_spec, _jordan_spec

PERIOD = 2 * math.pi


@pytest.fixture(scope="module")
def pulse_forcing(basis_q16m32):
    # truncated-Gaussian time profile: compact support and band content below
    # roundoff within the Q=16 band, so transform-level contracts hold at
    # their tightest tolerances
    return make_forcing(basis_q16m32, {
        "time_gaussian": {"center": 3 * math.pi, "sigma": 1.1},
        "space": {"type": "gaussian", "sigma": 0.4},
    })


@pytest.fixture(scope="module")
def odd_forcing(basis_q16m32):
    return make_forcing(basis_q16m32, {
        "time_bump": {"center": 3 * math.pi, "width": math.pi},
        "space": {"type": "polynomial", "coeffs": [1.0, 0.7]},
    })


@pytest.fixture(scope="module")
def decomposition_ex1(ex1, basis_q16m32, poles_ex1_q16, odd_forcing):
    return decompose(ex1, basis_q16m32, odd_forcing, poles_ex1_q16)


@pytest.fixture(scope="module")
def decomposition_ex1s(ex1s, basis_q16m32, poles_ex1s_q16, default_forcing_q16):
    return decompose(ex1s, basis_q16m32, default_forcing_q16, poles_ex1s_q16)


# -- forcing and transform -------------------------------------------------------


def _pencil(basis):
    """EX1's mode pencil on basis: its block columns are what forward_transform
    returns for any one-component spec with coefficients independent of x0."""
    return mode_operator_parts(fixture("EX1"), basis)


def _transform_grid(forcing, z, order=0):
    """forward_transform's columns as grid functions."""
    pencil = _pencil(forcing.basis)
    return pencil.grid(forward_transform(forcing, z, pencil, order))


def test_bump_profile_support():
    bump = BumpProfile(center=3 * math.pi, width=math.pi)
    assert bump(3 * math.pi) == 1.0
    assert bump(2 * math.pi) == 0.0 and bump(4 * math.pi + 0.1) == 0.0
    assert bump.support == (2 * math.pi, 4 * math.pi)


SCALAR_PROFILES = [BumpProfile(center=3 * math.pi, width=math.pi),
                   BumpProfile(center=-1.3, width=0.37),
                   GaussianPulseProfile(center=3 * math.pi, sigma=1.1),
                   GaussianPulseProfile(center=2.2, sigma=0.53, cut=3.0)]


def _edges(profile):
    """Times at and one ulp either side of the support's ends (|s| = 1 for the
    bump, |s| = cut for the pulse) and of the centre."""
    points = [*profile.support, profile.center]
    return [np.nextafter(t, t + d) for t in points for d in (-1.0, 0.0, 1.0)]


@pytest.mark.parametrize("profile", SCALAR_PROFILES, ids=repr)
def test_scalar_profile_is_the_vector_call_bit_for_bit(profile):
    lo, hi = profile.support
    rng = np.random.default_rng([7, SCALAR_PROFILES.index(profile)])
    times = [*rng.uniform(lo - 0.1 * (hi - lo), hi + 0.1 * (hi - lo), 20_000), *_edges(profile)]
    values = [profile.at(float(t)) for t in times]
    assert all(type(v) is float for v in values)
    expected = [float(profile(np.asarray(t))) for t in times]
    assert np.array_equal(np.array(values), np.array(expected))
    assert profile.at(profile.center) == 1.0
    assert sum(v > 0 for v in values) > 10_000


@pytest.mark.parametrize("profile", SCALAR_PROFILES[::2], ids=repr)
def test_slice_at_is_the_vector_call_bit_for_bit(basis_q4m32, profile):
    forcing = stability.CoverForcing(time=profile, basis=basis_q4m32,
                                     space=np.exp(-basis_q4m32.x1**2) * (1 + 0.5j))
    lo, hi = profile.support
    for t in [*np.linspace(lo - 1.0, hi + 1.0, 101), *_edges(profile)]:
        assert np.array_equal(forcing.slice_at(float(t)),
                              float(profile(np.asarray(t))) * forcing.space)


def test_zero_forcing_transforms_to_zero(basis_q4m32):
    forcing = make_forcing(basis_q4m32, {
        "time_bump": {"center": 3 * math.pi, "width": math.pi},
        "space": {"type": "polynomial", "coeffs": [0.0]},
    })
    assert not forcing.space.any()
    f = forward_transform(forcing, 0.7 + 0.2j, _pencil(basis_q4m32))
    assert f.shape == (9, 33) and np.all(f == 0)


def test_single_period_support_is_one_translate(basis_q4m32):
    forcing = make_forcing(basis_q4m32, {
        "time_bump": {"center": 3.0, "width": 1.0},
        "space": {"type": "gaussian", "sigma": 0.4},
    })
    z = 0.4 + 0.1j
    f = _transform_grid(forcing, z)
    for j, x0 in enumerate(basis_q4m32.x0):
        expected = np.exp(-z * x0) * float(forcing.time(x0)) * forcing.space
        assert np.abs(f[j] - expected).max() < 1e-14


def test_two_period_bump_against_direct_sum(basis_q4m32):
    forcing = make_forcing(basis_q4m32, "default")  # support spans two periods
    z = 0.3 - 0.6j
    f = _transform_grid(forcing, z)
    for j, x0 in enumerate(basis_q4m32.x0):
        acc = np.zeros_like(forcing.space)
        for p in range(-2, 4):
            t = x0 + PERIOD * p
            acc = acc + np.exp(-z * t) * float(forcing.time(t)) * forcing.space
        assert np.abs(f[j] - acc).max() < 1e-13


def test_transform_conjugation_periodicity(basis_q4m32):
    # f_{z+i} = exp(-i x0) f_z at every node of a segment
    forcing = make_forcing(basis_q4m32, "default")
    shifts = 0.3 + 1j * np.arange(9) / 9
    samples = _transform_grid(forcing, shifts)
    shifted = _transform_grid(forcing, shifts + 1j)
    phase = np.exp(-1j * basis_q4m32.x0)[:, None, None]
    assert np.abs(shifted - phase * samples).max() < 1e-10


def test_transform_round_trip_on_support(basis_q4m32):
    # the trapezoid rule for the vertical-segment integral of exp(z X) f_z gives back f
    forcing = make_forcing(basis_q4m32, "default")
    shifts = 0.3 + 1j * np.arange(9) / 9
    pencil = _pencil(basis_q4m32)
    samples = pencil.coefficients(forward_transform(forcing, shifts, pencil))
    times = aligned_times(basis_q4m32, range(0, 4))
    recovered = _segment_sum(np.exp(np.outer(times, shifts)) / 9, samples, basis_q4m32, times)
    target = forcing.time(times)[:, None, None] * forcing.space
    assert np.abs(recovered.values - target).max() < 1e-8


def test_cauchy_derivatives_match_exact_translate_sums(ex1, basis_q4m32, poles_ex1):
    # loop-integral derivative of the transform against its exact z-derivative
    forcing = make_forcing(basis_q4m32, "default")
    lam = poles_ex1.nonneg[0].source
    radius = 0.2
    shifts, phases = _loop_nodes(lam, radius, 48)
    samples = [_transform_grid(forcing, z) for z in shifts]
    for order in (0, 1, 2):
        cauchy = sum(f * ph ** (-order) for f, ph in zip(samples, phases))
        cauchy *= math.factorial(order) / (48 * radius**order)
        exact = _transform_grid(forcing, lam, order)
        assert np.abs(cauchy - exact).max() < 1e-9 * max(np.abs(exact).max(), 1.0)


BUMP = {"center": 3.0, "width": 1.0}


@pytest.mark.parametrize("doc, key", [
    ({"time_bump": {"center": 3.0, "width": 0.0}}, "width"),
    ({"time_gaussian": {"center": 3.0, "sigma": -1.0}}, "sigma"),
    ({"time_gaussian": {"center": 3.0, "sigma": 1.0, "cut": math.inf}}, "cut"),
    ({"time_bump": BUMP, "space": {"type": "gaussian", "sigma": 0.0}}, "sigma"),
    ({"time_bump": BUMP, "space": {"type": "gaussian", "sigma": 0.4, "component": 1}},
     "component"),
    ({"time_bump": BUMP, "space": {"type": "gaussian", "sigma": 0.4, "component": -1}},
     "component"),
    ({"time_bump": BUMP, "space": {"type": "polynomial", "coeffs": [math.nan, 1.0]}}, "coeffs"),
    ({"time_bump": BUMP, "space": {"type": "polynomial", "coeffs": [1.0, math.inf]}}, "coeffs"),
    ({"time_bump": BUMP, "space": {"type": "polynomial"}}, "coeffs"),
    ({"time_bump": BUMP, "space": {"type": "polynomial", "coeffs": []}}, "coeffs"),
    ({"time_bump": BUMP, "space": {"type": "cosine", "coeffs": [1.0]}}, "type"),
    ({"time_bump": {"center": math.nan, "width": 1.0}}, "center"),
    ({"time_bump": {"center": math.inf, "width": 1.0}}, "center"),
    ({"time_bump": {"center": "3", "width": 1.0}}, "center"),
    ({"time_bump": {"width": 1.0}}, "center"),
    ({"time_bump": {"center": 3.0}}, "width"),
    ({"time_gaussian": {"center": -math.inf, "sigma": 1.0}}, "center"),
    ({"time_gaussian": {"center": 3.0}}, "sigma"),
    ({"space": {"type": "gaussian", "sigma": 0.4}}, "time_bump"),
    ([BUMP], "time_bump"),
    ({"time_bump": 3.0}, "time_bump"),
    ({"time_bump": BUMP, "space": "gaussian"}, "space"),
    ({"time_bump": BUMP, "space": {"sigma": 0.4}}, "type"),
    ({"time_bump": BUMP, "space": {"type": "gaussian"}}, "sigma"),
    ({"time_bump": BUMP, "space": {"type": "gaussian", "sigma": 0.4, "component": 0.5}},
     "component"),
], ids=["bump width 0", "gaussian sigma -1", "gaussian cut inf", "space sigma 0",
        "component 1 of 1", "component -1", "coeff nan", "coeff inf", "no coeffs",
        "empty coeffs", "unknown type", "center nan", "center inf", "center string",
        "no center", "no width", "gaussian center -inf", "no sigma", "no time profile",
        "not an object", "time_bump not an object", "space not an object", "no type",
        "no space sigma", "component 0.5"])
def test_make_forcing_rejects_bad_documents(basis_q4m32, doc, key):
    # a forcing document comes from outside the program: a missing key or a value
    # that is not a finite number, or out of range, raises SpecError naming the key
    with pytest.raises(SpecError) as exc:
        make_forcing(basis_q4m32, doc, N=1)
    assert key in str(exc.value)


def _translate_loop(forcing, z, basis, order=0):
    """The translate sum one grid time and one translate at a time."""
    t0, t1 = forcing.support
    out = np.zeros((basis.n_time, basis.n_space, forcing.N), dtype=complex)
    for j, x0 in enumerate(basis.x0):
        for p in range(math.floor((t0 - x0) / PERIOD), math.ceil((t1 - x0) / PERIOD) + 1):
            t = x0 + PERIOD * p
            chi = float(forcing.time(t))
            if chi != 0.0:
                out[j] += (-t) ** order * np.exp(-z * t) * chi * forcing.space
    return out


def _grid_transform(forcing, z, basis, order=0):
    """The translate sum as grid functions, every shift at once: the grid-path
    reference for forward_transform's block columns."""
    t0, t1 = forcing.support
    p = np.arange(math.floor(t0 / PERIOD) - 1, math.ceil(t1 / PERIOD) + 1)
    times = basis.x0[:, None] + PERIOD * p[None, :]
    values = forcing.time(times)
    slot, col = np.nonzero(values)
    t = times[slot, col]
    terms = (-t) ** order * np.exp(-np.multiply.outer(np.atleast_1d(z), t)) * values[slot, col]
    out = (terms @ (slot[:, None] == np.arange(basis.n_time)))[:, :, None, None] * forcing.space
    return out if np.ndim(z) else out[0]


@pytest.mark.parametrize("name", ["default", "pulse"])
def test_batched_transform_matches_translate_loop(basis_q4m32, name):
    doc = "default" if name == "default" else {
        "time_gaussian": {"center": 2.0, "sigma": 0.7},
        "space": {"type": "polynomial", "coeffs": [1.0, 0.3]}}
    forcing = make_forcing(basis_q4m32, doc)
    shifts = np.array([0.3 - 0.6j, 1.05 + 0.25j, -0.2 + 0.9j, 0.75 + 0.2j])
    pencil = _pencil(basis_q4m32)
    for order in (0, 1, 2):
        batched = forward_transform(forcing, shifts, pencil, order)
        assert batched.shape == (4, 9, 33)
        for z, f in zip(shifts, pencil.grid(batched)):
            ref = _translate_loop(forcing, z, basis_q4m32, order)
            assert np.abs(f - ref).max() <= 1e-14 * np.abs(ref).max()


def _cover_loop(weight, fields, basis, times):
    """sum_k weight(k, X) field_k(X mod 2pi), one cover time at a time."""
    coeffs = [fourier_coefficients(f, basis) for f in fields]
    out = np.zeros((len(times), basis.n_space, fields[0].shape[-1]), dtype=complex)
    for i, X in enumerate(times):
        phases = np.exp(1j * basis.modes * X)
        for k, coeff in enumerate(coeffs):
            out[i] += weight(k, X) * np.tensordot(phases, coeff, axes=(0, 0))
    return out


def _random_fields(basis, count, N=1, seed=0):
    rng = np.random.default_rng(seed)
    shape = (count, basis.n_time, basis.n_space, N)
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _close(got, ref):
    return np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()


def test_segment_sum_matches_time_loop(basis_q4m32):
    times = np.linspace(-3.0, 25.0, 13)
    shifts = 0.4 + 1j * np.arange(7) / 7
    fields = _random_fields(basis_q4m32, 7)
    weights = np.exp(np.outer(times, shifts)) / 7
    got = _segment_sum(weights, fourier_coefficients(fields, basis_q4m32), basis_q4m32, times)
    ref = _cover_loop(lambda k, X: np.exp(shifts[k] * X) / 7, fields, basis_q4m32, times)
    assert np.array_equal(got.times, times) and _close(got.values, ref)


def _reference_segment_sum(weights, fields, basis, times):
    """The cover sum as two contractions: the weights on the Fourier coefficients,
    then the modes summed with their phases."""
    per_mode = np.tensordot(weights, fourier_coefficients(fields, basis), axes=(1, 0))
    phases = np.exp(1j * np.outer(times, basis.modes))
    return np.einsum("iq,iq...->i...", phases, per_mode)


@pytest.mark.parametrize("count", [0, 2, 33])
def test_segment_sum_matches_two_contractions(monkeypatch, basis_q16m32, count):
    # a decay window on a segment of `count` nodes; no nodes (an empty nonnegative
    # pole set) sums to zero.  The window is one block, then blocks of 10 times
    times = np.linspace(12.0, 50.0, 49)
    shifts = -0.2 + 1j * np.arange(count) / max(count, 1)
    weights = np.exp(np.outer(times, shifts)) / max(count, 1)
    fields = _random_fields(basis_q16m32, count, N=2, seed=count)
    ref = _reference_segment_sum(weights, fields, basis_q16m32, times)
    for kernel_bytes in (stability._KERNEL_BYTES, 10 * 16 * max(count, 1) * 33):
        monkeypatch.setattr(stability, "_KERNEL_BYTES", kernel_bytes)
        got = _segment_sum(weights, fourier_coefficients(fields, basis_q16m32), basis_q16m32,
                           times)
        assert got.values.shape == ref.shape == (49, 33, 2)
        if count:
            assert np.abs(got.values - ref).max() <= 1e-13 * np.abs(ref).max()
        else:
            assert not got.values.any()


def _modal_part(ex1, basis):
    """A modal field (count 1, powers 0, 1, 2) of random profiles on EX1's pencil, and
    the profiles' grid functions."""
    pencil = mode_operator_parts(ex1, basis)
    profiles = _random_fields(basis, 3, seed=1)
    part = CoverSum(lam=np.array([0.25 + 0.1j, 0.25 + 0.1j, -0.3]), power=np.array([0, 1, 2]),
                    columns=pencil.columns(profiles), count=1, pencil=pencil, basis=basis)
    return part, profiles


def _loop_sum(shifts, weights, fields, basis, times):
    """sum_k weights_k exp(z_k X) field_k(X mod 2pi): a trapezoid loop sum on the cover."""
    return _segment_sum(weights * np.exp(np.outer(times, shifts)),
                        fourier_coefficients(fields, basis), basis, times)


def _loop_reference(spec, basis, pole_set, forcing, times, n_nodes):
    """F f as trapezoid sums of the loop integrals of exp(z X) D_z^{-1} f_z about the
    nonnegative strip poles, on n_nodes nodes per loop: the quadrature route that
    build_finite_rank_part's exact Laurent coefficients replace."""
    total = np.zeros((len(times), basis.n_space, forcing.N), dtype=complex)
    for pole in pole_set.nonneg:
        shifts, phases = _loop_nodes(pole.source, pole.radius, n_nodes)
        solved = apply_resolvent(spec, basis, shifts, _grid_transform(forcing, shifts, basis))
        weights = 2.0 * math.pi * pole.radius * phases / n_nodes
        total += _loop_sum(shifts, weights, solved, basis, times).values
    return total


def test_modal_and_loop_evaluations_match_time_loop(ex1, basis_q4m32):
    part, profiles = _modal_part(ex1, basis_q4m32)
    times = np.linspace(0.0, 20.0, 11)
    ref = _cover_loop(lambda k, X: X ** part.power[k] * np.exp(part.lam[k] * X),
                      profiles, basis_q4m32, times)
    assert _close(part.evaluate(times).values, ref)
    # the loop sum of the test-side reference
    shifts = 0.25 + 0.2 * np.exp(2j * np.pi * np.arange(5) / 5)
    weights, fields = np.linspace(0.5, 1.5, 5) * 1j, _random_fields(basis_q4m32, 5, seed=3)
    ref = _cover_loop(lambda k, X: weights[k] * np.exp(shifts[k] * X), fields, basis_q4m32, times)
    assert _close(_loop_sum(shifts, weights, fields, basis_q4m32, times).values, ref)


def test_operator_applied_matches_time_loop(ex1, basis_q4m32):
    # dense collocation matrices as the reference for D + z A^0; A^0 = 1 for EX1
    basis = basis_q4m32
    times = np.linspace(0.5, 20.0, 11)

    def dense(z, u):
        return (assemble_operator(ex1, basis, z) @ u.reshape(-1)).reshape(u.shape)

    part, profiles = _modal_part(ex1, basis)
    terms = list(zip(part.lam, part.power))
    fields = [dense(lam, u) for lam, u in zip(part.lam, profiles)] + list(profiles)
    weights = [lambda X, lam=lam, k=k: X ** k * np.exp(lam * X) for lam, k in terms] + \
        [lambda X, lam=lam, k=k: k * X ** max(k - 1, 0) * np.exp(lam * X) for lam, k in terms]
    ref = _cover_loop(lambda k, X: weights[k](X), fields, basis, times)
    assert _close(part.operator_applied(times).values, ref)

    # a segment's sum (power 0, count 9) of random node fields: no cancellation
    # between the nodes hides a wrong weight
    shifts = 0.4 + 1j * np.arange(9) / 9
    pencil = mode_operator_parts(ex1, basis)
    solutions = _random_fields(basis, 9, seed=2)
    sol = CoverSum(lam=shifts, power=np.zeros(9, dtype=int), columns=pencil.columns(solutions),
                   count=9, pencil=pencil, basis=basis)
    for method, fields in ((sol.evaluate, solutions),
                           (sol.operator_applied,
                            [dense(z, u) for z, u in zip(shifts, solutions)])):
        ref = _cover_loop(lambda k, X: np.exp(shifts[k] * X) / 9, fields, basis, times)
        assert _close(method(times).values, ref)


# -- retarded solution -------------------------------------------------------------


def test_retarded_residual_and_retardation(ex1, basis_q16m32, poles_ex1_q16,
                                           pulse_forcing):
    forcing = pulse_forcing
    slices = aligned_times(basis_q16m32, range(-9, 6))
    sol = solve_on_segment(ex1, basis_q16m32, forcing, 0.3, 33)
    # the cover operator applied to the field gives back the forcing
    target = forcing.time(slices)[:, None, None] * forcing.space
    assert np.abs(sol.operator_applied(slices).values - target).max() < 1e-6
    field = sol.evaluate(slices)
    before = slices < forcing.support[0] - 1e-9
    assert np.abs(field.values[before]).max() < 1e-6


def test_retardation_of_default_bump(ex1):
    # the default bump has a slow band tail; its 1e-6 retardation contract
    # needs the band resolved to roughly thirty modes
    basis = build_basis(32, 32)
    forcing = make_forcing(basis, "default")
    slices = aligned_times(basis, range(-7, 0))
    slices = slices[slices < forcing.support[0] - 1e-9]
    poles = find_poles(ex1, basis, window=(-2.2, 1.0))
    field = retarded_solution(ex1, basis, forcing, poles, slice_times=slices)
    assert np.abs(field.values).max() < 1e-6


def test_path_independence(ex1, basis_q16m32, poles_ex1_q16, pulse_forcing):
    slices = aligned_times(basis_q16m32, range(-9, 6))
    u1 = retarded_solution(ex1, basis_q16m32, pulse_forcing, poles_ex1_q16,
                           c=0.3, n_nodes=33, slice_times=slices)
    u2 = retarded_solution(ex1, basis_q16m32, pulse_forcing, poles_ex1_q16,
                           c=0.6, n_nodes=33, slice_times=slices)
    scale = np.abs(u1.values).max()
    assert np.abs(u1.values - u2.values).max() < 1e-8 * scale


def test_path_independence_of_bump_converges_with_band(ex1):
    # with the default bump the deviation is set by the unresolved band tail
    # and shrinks steadily as the band grows
    deviations = []
    for Q in (16, 32):
        basis = build_basis(Q, 32)
        poles_ex1 = find_poles(ex1, basis, window=(-2.2, 1.0))
        forcing = make_forcing(basis, "default")
        t1 = forcing.support[1]
        slices = aligned_times(basis, range(-7, 4))
        slices = slices[slices <= t1 + 2 * PERIOD + 1e-9]
        u1 = retarded_solution(ex1, basis, forcing, poles_ex1,
                               c=0.3, n_nodes=2 * Q + 1, slice_times=slices)
        u2 = retarded_solution(ex1, basis, forcing, poles_ex1,
                               c=0.6, n_nodes=2 * Q + 1, slice_times=slices)
        deviations.append(np.abs(u1.values - u2.values).max()
                          / np.abs(u1.values).max())
    assert deviations[1] < 0.2 * deviations[0]
    assert deviations[1] < 1e-4


def test_zero_forcing_gives_zero_solution(ex1, basis_q4m32, poles_ex1):
    forcing = make_forcing(basis_q4m32, {
        "time_bump": {"center": 3 * math.pi, "width": math.pi},
        "space": {"type": "polynomial", "coeffs": [0.0]},
    })
    field = retarded_solution(ex1, basis_q4m32, forcing, poles_ex1)
    assert np.all(field.values == 0)


def test_segment_left_of_poles_rejected(ex1s, basis_q4m32, poles_ex1s):
    forcing = make_forcing(basis_q4m32, "default")
    with pytest.raises(SpecError, match="right of the poles"):
        retarded_solution(ex1s, basis_q4m32, forcing, poles_ex1s, c=0.5)


def test_forcing_far_from_cover_time_zero_rejected(ex1s, basis_q4m32, poles_ex1s):
    # decompose's shifts reach |Re z| = max(c, |c'|) = 1.05 on EX1S; past the bound on
    # |center| a weight exp(z X) or exp(-z t), or its square, leaves [1e-300, 1e300]
    c_decay = DECAY_ABSCISSA * max(poles_ex1s.z_star_star_star, poles_ex1s.window[0])
    shift = max(segment_abscissa(poles_ex1s), abs(c_decay))
    reach = COVER_EXPONENT_MAX / shift - (math.pi + DECAY_PERIODS * PERIOD)
    assert shift == pytest.approx(1.05) and reach == pytest.approx(288.1, abs=0.01)

    def bump(center):
        return make_forcing(basis_q4m32, {"time_bump": {"center": center, "width": math.pi}})

    for center in (reach + 1, -reach - 1, 1000.0, 4000.0, 1e300):
        with pytest.raises(SpecError, match="forcing center .* at most"):
            decompose(ex1s, basis_q4m32, bump(center), poles_ex1s)
    # just inside the bound, on either side of 0, the fields stay finite and the
    # rate is z***'s
    for center in (reach - 1, -reach + 1):
        dec = decompose(ex1s, basis_q4m32, bump(center), poles_ex1s)
        assert np.isfinite(dec.kernel_defect) and np.isfinite(dec.identity_defect)
        assert abs(dec.fitted_rate + 0.25) < 1e-3


# -- the mirrored segment ------------------------------------------------------------


def _full_segment(spec, basis, forcing, c, n_nodes, pencil=None):
    """Every node of the segment solved in one _schur_solve call, one node per shift:
    block columns (n_nodes, blocks, n)."""
    pencil = pencil or mode_operator_parts(spec, basis)
    shifts = c + 1j * (np.arange(n_nodes) / n_nodes)
    cols = forward_transform(forcing, shifts, pencil)
    w = shifts[:, None] + 1j * pencil.modes
    node = np.repeat(np.arange(n_nodes), len(pencil.modes))
    return resolvent._schur_solve(pencil, w.ravel(), cols.reshape(w.size, -1).T, node).T \
        .reshape(cols.shape)


# each excites x0 = 0 mod 2pi, the one time node at Q_max = 0
MIRROR_FORCINGS = {
    "bump": {"time_bump": {"center": 7.5, "width": math.pi}},
    "pulse": {"time_gaussian": {"center": 7.0, "sigma": 0.7}},
    "odd": {"time_bump": {"center": 7.5, "width": math.pi},
            "space": {"type": "polynomial", "coeffs": [0.0, 1.0]}},
}


def _counted_schur_solve(monkeypatch):
    """Patch stability's _schur_solve to record how many columns each call solves."""
    counts = []

    def counted(pencil, w, rhs, node):
        counts.append(rhs.shape[1])
        return resolvent._schur_solve(pencil, w, rhs, node)

    monkeypatch.setattr(stability, "_schur_solve", counted)
    return counts


@pytest.mark.parametrize("name, c, c_decay", [("EX1", 0.3, -0.375), ("EX1S", 1.05, -0.1875)])
@pytest.mark.parametrize("q_max, m", [(16, 32), (4, 32), (0, 16)])
def test_mirrored_segment_matches_full_solve(monkeypatch, name, c, c_decay, q_max, m):
    # decompose's two abscissas (z** + 0.3 and 0.75 z***), odd and even node counts;
    # (n-k, q) = conj((k, -q-1)), with the mode -Q-1 column solved at the partner.
    # Near the decaying pole the blocks' condition reaches 2.6e6 (EX1S, q16m32, mode
    # -1): there the full solve itself moves by 1e-13 relative when its shifts move
    # by one ulp, and the two solves agree to the conditioning, not to 1e-13
    spec, basis = fixture(name), build_basis(q_max, m)
    pencil = mode_operator_parts(spec, basis)
    counts = _counted_schur_solve(monkeypatch)
    for n_nodes in (33, 34):
        for doc in MIRROR_FORCINGS.values():
            forcing = make_forcing(basis, doc)
            for abscissa, tol in ((c, 1e-13), (c_decay, 1e-11)):
                got = solve_on_segment(spec, basis, forcing, abscissa, n_nodes, pencil=pencil)
                ref = _full_segment(spec, basis, forcing, abscissa, n_nodes)
                assert np.abs(ref).max() > 0
                assert np.abs(got.columns - ref).max() <= tol * np.abs(ref).max()
        half = n_nodes // 2
        assert counts[-1] == (half + 1) * basis.n_time + n_nodes - half - 1
    if q_max == 16:
        assert counts[0] == 577


def test_segment_solves_every_node_for_complex_forcing_or_pencil(monkeypatch, ex1s,
                                                                 basis_q16m32):
    # a forcing with an imaginary part, and the hermitian-A0 spec's complex pencil,
    # take the full solve unchanged: one call with every node's columns
    counts = _counted_schur_solve(monkeypatch)
    doc = MIRROR_FORCINGS["pulse"]
    real = make_forcing(basis_q16m32, doc)
    tilted = dataclasses.replace(real, space=real.space * (1.0 + 0.5j))
    herm, basis = _hermitian_a0_spec(), build_basis(4, 16)
    cases = [(ex1s, basis_q16m32, tilted, 1.05),
             (herm, basis, make_forcing(basis, doc, N=2), 1.6)]
    for spec, basis, forcing, c in cases:
        pencil = mode_operator_parts(spec, basis)
        assert not (pencil.real and forcing.real)
        got = solve_on_segment(spec, basis, forcing, c, 33, pencil=pencil)
        ref = _full_segment(spec, basis, forcing, c, 33, pencil)
        assert np.array_equal(got.columns, ref)
    assert counts == [33 * 33, 33 * 9]


def _rotation_spec(omega):
    """EX1 times the identity plus the real rotation B = [[0, omega], [-omega, 0]]:
    a real pencil with the complex strip poles -p/2 -+ i*omega."""
    eye = np.eye(2)
    return OperatorSpec(
        n=1, N=2,
        A=(MatrixPolynomial.constant(eye, 2), MatrixPolynomial(2, (2, 2), {(0, 1): 0.5 * eye})),
        B=MatrixPolynomial.constant([[0.0, omega], [-omega, 0.0]], 2),
        weights=WeightSequence.geometric(0.024, 16), Q=1.0, name="EX1 x rotation",
    )


def test_mirrored_segment_raises_at_a_pole(ex1, basis_q16m32):
    # EX1's pole 0 is node 0 at c = 0.  On the rotation spec with omega = 0.75 and
    # eight nodes at c = 0, the upper-half node 6 (z = 0.75i) sits on a pole and is
    # mirrored from node 2 (z = 0.25i), which raises.  At Q_max = 0 only node 2's
    # mode -1 column, solved for node 6, is singular
    forcing = make_forcing(basis_q16m32, MIRROR_FORCINGS["pulse"])
    with pytest.raises(NearPoleError) as err:
        solve_on_segment(ex1, basis_q16m32, forcing, 0.0, 33)
    assert err.value.z == 0.0 and err.value.distance < 1e-8
    spec = _rotation_spec(0.75)
    for q_max in (0, 4):
        basis = build_basis(q_max, 16)
        forcing = make_forcing(basis, MIRROR_FORCINGS["pulse"], N=2)
        with pytest.raises(NearPoleError) as err:
            solve_on_segment(spec, basis, forcing, 0.0, 8)
        assert err.value.z == 0.25j and err.value.distance < 1e-8
        # solving every node, node 6 is the first to raise at Q_max = 0
        with pytest.raises(NearPoleError) as err:
            _full_segment(spec, basis, forcing, 0.0, 8)
        assert err.value.z == (0.75j if q_max == 0 else 0.25j)


# -- block columns from the forcing to the cover -------------------------------------


def _grid_segment(spec, basis, forcing, c, n_nodes, pencil):
    """solve_on_segment on the grid path: the grid transform into `pencil.columns`,
    the solved columns back through `pencil.grid`, and apply_resolvent where there
    is no mirror.  Returns the shifts and the (n_nodes, n_time, n_space, N) solutions."""
    shifts = c + 1j * np.arange(n_nodes) / n_nodes
    n_t, q_max = basis.n_time, basis.Q_max
    if not (pencil.real and forcing.real and len(pencil.modes) == n_t):
        return shifts, apply_resolvent(spec, basis, shifts,
                                       _grid_transform(forcing, shifts, basis), pencil=pencil)
    half = n_nodes // 2
    partners = np.arange(1, n_nodes - half)
    cols = pencil.columns(_grid_transform(forcing, shifts[:half + 1], basis))
    w = shifts[:half + 1, None] + 1j * pencil.modes
    u = resolvent._schur_solve(
        pencil, np.concatenate([w.ravel(), shifts[partners] - 1j * (q_max + 1)]),
        np.hstack([cols.reshape(w.size, -1).T, cols[partners, q_max].T]),
        np.concatenate([np.repeat(np.arange(half + 1), n_t), partners])).T
    solved = u[:w.size].reshape(cols.shape)
    source = solved[partners]
    source[:, q_max] = u[w.size:]
    mirrored = source[::-1, (-np.arange(n_t) - 1) % n_t].conj()
    return shifts, pencil.grid(np.concatenate([solved, mirrored]))


def _grid_finite_rank(spec, basis, pole_set, forcing):
    """build_finite_rank_part on the grid path: (lam, power, grid profile) per term,
    the profiles refined through A^0 on the grid and apply_resolvent."""
    pencil = pole_set.pencil
    a0 = spec.A[0].eval_grid(basis.x0, basis.x1)
    terms = []
    for pole, blocks in zip(pole_set.nonneg, pole_set.loop_projections):
        lam, order = pole.source, pole.order
        g = pencil.columns(np.array([_grid_transform(forcing, lam, basis, ell)
                                     for ell in range(order)]))
        cols = np.zeros((order, len(pencil.modes), len(pencil.a0)), dtype=complex)
        for b, vecs, lead, coords in blocks:
            nil = -lead - (lam + 1j * pencil.modes[b]) * np.eye(len(lead))
            c = [coords @ g[ell, b] / math.factorial(ell) for ell in range(order)]
            for k in range(order):
                h = sum(np.linalg.matrix_power(nil, k + ell) @ c[ell]
                        for ell in range(order - k))
                cols[k, b] = vecs @ h * (2.0 * math.pi / math.factorial(k))
        profiles = pencil.grid(cols)
        d = REFINE_SHIFT ** (1.0 / order)
        rhs = d * profiles - np.arange(1, order + 1)[:, None, None, None] * \
            np.concatenate([profiles[1:], np.zeros_like(profiles[:1])])
        profiles = apply_resolvent(spec, basis, np.full(order, lam + d),
                                   np.einsum("jmab,...jmb->...jma", a0, rhs), pencil=pencil)
        terms += [(lam, k, profiles[k]) for k in range(order)]
    return terms


def _column_cases():
    """(name, spec, basis, forcing): EX1 and EX1S x bump, pulse and odd forcing x
    q16m32 and q4m32; the wobble's value-space block at q4m8; a complex forcing on
    EX1S's real pencil."""
    cases = []
    for q_max in (16, 4):
        basis = build_basis(q_max, 32)
        for name in ("EX1", "EX1S"):
            for label, doc in MIRROR_FORCINGS.items():
                cases.append((f"{name} q{q_max} {label}", fixture(name), basis,
                              make_forcing(basis, doc)))
    one = MatrixPolynomial.constant([[1.0]], 2)
    wobble = OperatorSpec(
        n=1, N=1, A=(one, MatrixPolynomial(2, (1, 1), {(1, 0): [[0.1]], (0, 1): [[0.5]]})),
        B=MatrixPolynomial.zero(2, (1, 1)), weights=WeightSequence.geometric(0.5, 8), Q=5.0,
        name="wobble")
    basis = build_basis(4, 8)
    cases.append(("wobble q4m8 pulse", wobble, basis,
                  make_forcing(basis, MIRROR_FORCINGS["pulse"])))
    basis = build_basis(16, 32)
    pulse = make_forcing(basis, MIRROR_FORCINGS["pulse"])
    cases.append(("EX1S q16 complex pulse", fixture("EX1S"), basis,
                  dataclasses.replace(pulse, space=pulse.space * (1.0 + 0.5j))))
    return cases


def _rel(got, ref):
    return float(np.linalg.norm(got - ref) / np.linalg.norm(ref))


def test_column_pipeline_matches_grid_path():
    # both segments' solved columns, F f's profiles, and the difference and F f on
    # decompose's decay window, against the grid path.  EX1S with the odd forcing is
    # item 8's contour case: its difference (6.9e-6 at q16m32) is 1.5e5 times smaller
    # than the decay segment's node terms, so only the columns compare; and F f's
    # p = 1 amplitude is as far from the exact 2*pi*mean(f_lam) as the conditioning
    # allows in both paths (2.1e-11 and 1.2e-11 at q16m32), so the two agree to 3e-11
    kinds = set()
    for name, spec, basis, forcing in _column_cases():
        ps = find_poles(spec, basis, window=(-2.2, 1.0))
        pencil = ps.pencil
        kinds.add((len(pencil.modes) == basis.n_time, pencil.real and forcing.real))
        contour = name.startswith("EX1S") and name.endswith(" odd")
        n_nodes = segment_node_count(basis)
        n_slices = stability.DECAY_PERIODS * stability.SLICES_PER_PERIOD
        times = forcing.support[1] + stability.DECAY_PERIODS * PERIOD \
            * np.arange(n_slices + 1) / n_slices
        for c in (segment_abscissa(ps),
                  stability.DECAY_ABSCISSA * max(ps.z_star_star_star, ps.window[0])):
            got = solve_on_segment(spec, basis, forcing, c, n_nodes, pencil=pencil)
            shifts, ref = _grid_segment(spec, basis, forcing, c, n_nodes, pencil)
            assert _rel(got.columns, pencil.columns(ref)) <= 1e-12, (name, c)
        if not contour:    # the decay segment's field, the difference
            ref_diff = _reference_segment_sum(np.exp(np.outer(times, shifts)) / n_nodes, ref,
                                              basis, times)
            assert _close(got.evaluate(times).values, ref_diff), name
        part = build_finite_rank_part(spec, basis, ps, forcing)
        ref_terms = _grid_finite_rank(spec, basis, ps, forcing)
        tol = 3e-11 if contour else 1e-12
        profiles = np.array([u for _lam, _k, u in ref_terms])
        assert [(lam, k) for lam, k, _u in ref_terms] == list(zip(part.lam, part.power)), name
        assert _rel(part.columns, pencil.columns(profiles)) <= tol, name
        weights = np.array([times ** k * np.exp(lam * times) for lam, k, _u in ref_terms]).T
        ref_part = _reference_segment_sum(weights, profiles, basis, times)
        assert np.abs(part.evaluate(times).values - ref_part).max() \
            <= tol * np.abs(ref_part).max(), name
    assert kinds == {(True, True), (False, False), (True, False)}


def test_decompose_stays_in_block_columns(monkeypatch, ex1s, basis_q16m32, poles_ex1s_q16,
                                          default_forcing_q16):
    # on a real mode pencil decompose never goes back to the grid between the
    # forcing and the cover: no ModePencil.grid, no fourier_coefficients, and every
    # FFT is one of forward_transform's (shifts, n_time) weight tables
    assert poles_ex1s_q16.pencil.real and len(poles_ex1s_q16.pencil.modes) == 33
    calls = []

    def counted(name, original):
        def call(*args, **kwargs):
            calls.append(name)
            return original(*args, **kwargs)
        return call

    monkeypatch.setattr(spectral.ModePencil, "grid",
                        counted("grid", spectral.ModePencil.grid))
    for module in (spectral, stability):
        monkeypatch.setattr(module, "fourier_coefficients",
                            counted("fourier_coefficients", spectral.fourier_coefficients),
                            raising=False)
    sizes = []
    fft = np.fft.fft

    def counted_fft(a, *args, **kwargs):
        sizes.append(np.shape(a))
        return fft(a, *args, **kwargs)

    monkeypatch.setattr(np.fft, "fft", counted_fft)
    monkeypatch.setattr(np.fft, "ifft", counted("ifft", np.fft.ifft))
    dec = decompose(ex1s, basis_q16m32, default_forcing_q16, poles_ex1s_q16)
    assert dec.rank == 2
    assert calls == []
    # two segments of 17 solved nodes each, one derivative table per simple pole
    assert sizes == [(17, 33), (17, 33), (1, 33), (1, 33)]


# -- the finite-rank part -----------------------------------------------------------


def test_empty_nonneg_set_gives_zero(ex1, basis_q4m32):
    from cylspec.resolvent import find_poles

    shifted = ex1.shifted(0.25, name="EX1+0.25")
    ps = find_poles(shifted, basis_q4m32, window=(-2.2, 1.0))
    assert len(ps.nonneg) == 0 and ps.z_star_star < 0
    forcing = make_forcing(basis_q4m32, "default")
    part = build_finite_rank_part(shifted, basis_q4m32, ps, forcing)
    assert sum(p.rank for p in ps.nonneg) == 0 and part.columns.shape == (0, 9, 33)
    times = aligned_times(basis_q4m32, range(0, 4))
    assert np.abs(part.evaluate(times).values).max() == 0.0


def test_single_pole_correction_is_constant_mode(ex1, basis_q16m32, poles_ex1_q16,
                                                 default_forcing_q16):
    part = build_finite_rank_part(ex1, basis_q16m32, poles_ex1_q16, default_forcing_q16)
    assert sum(p.rank for p in poles_ex1_q16.nonneg) == 1
    assert len(part.lam) == len(part.power) == len(part.columns) == 1
    assert part.power[0] == 0 and abs(part.lam[0]) < 1e-9 and part.count == 1
    prof = poles_ex1_q16.pencil.grid(part.columns[0])
    assert np.abs(prof - prof.mean()).max() < 1e-8 * np.abs(prof).max()


def test_two_pole_correction_structure(decomposition_ex1s):
    part = decomposition_ex1s.correction
    assert sum(p.rank for p in decomposition_ex1s.pole_set.nonneg) == 2
    lams = sorted(part.lam.real)
    assert np.abs(np.array(lams) - np.array([0.25, 0.75])).max() < 1e-9


def _finite_rank_cases():
    """(spec, basis, window): EX1 and EX1S at the green sizes, EX1 x Jordan (one pole
    of order 2) and the hermitian-A0 spec shifted so that its nonnegative poles
    include two whose loop radius is set by each other (0.0075)."""
    return {
        "EX1": (fixture("EX1"), build_basis(16, 32), (-2.2, 1.0)),
        "EX1S": (fixture("EX1S"), build_basis(16, 32), (-2.2, 1.0)),
        "EX1 x Jordan": (_jordan_spec(), build_basis(4, 16), (-2.2, 1.0)),
        "hermitian A0 - 1": (_hermitian_a0_spec().shifted(-1.0), build_basis(4, 16),
                             (-2.2, 2.2)),
    }


def test_loop_and_series_routes_agree():
    # the modal field against the 64-node loop reference over the decay window, and
    # in the kernel of the cover operator to roundoff
    for name, (spec, basis, window) in _finite_rank_cases().items():
        ps = find_poles(spec, basis, window=window)
        forcing = make_forcing(basis, "default", N=spec.N)
        part = build_finite_rank_part(spec, basis, ps, forcing)
        assert list(part.power) == [k for p in ps.nonneg for k in range(p.order)], name
        assert sum(p.rank for p in ps.nonneg) > 0, name
        times = forcing.support[1] + 6 * PERIOD * np.arange(49) / 48
        ref = _loop_reference(spec, basis, ps, forcing, times, 64)
        err = np.abs(part.evaluate(times).values - ref).max() / np.abs(ref).max()
        assert err <= 1e-11, (name, err)
        assert part.kernel_defect(times) <= 2e-13, name
    radii = sorted(p.radius for p in ps.nonneg)
    assert len(radii) == 4 and radii[1] < 0.01


def test_finite_rank_part_solves_one_shift_per_pole(monkeypatch, ex1s, basis_q16m32,
                                                    poles_ex1s_q16, default_forcing_q16):
    # no loop nodes: the only solve is one column-level call on every mode block,
    # one node per (pole, k) at the pole's refinement shift, for EX1S (two simple
    # poles) and EX1 x Jordan (one pole of order 2)
    jordan, basis = _jordan_spec(), build_basis(4, 16)
    cases = [(ex1s, basis_q16m32, poles_ex1s_q16, default_forcing_q16),
             (jordan, basis, find_poles(jordan, basis, window=(-2.2, 1.0)),
              make_forcing(basis, "default", N=jordan.N))]
    calls = []

    def counted(pencil, w, rhs, node):
        n_modes = len(pencil.modes)
        assert rhs.shape[1] == len(w) and node.tolist() == \
            np.repeat(np.arange(len(w) // n_modes), n_modes).tolist()
        calls.append(w.reshape(-1, n_modes)[:, 0].tolist())
        return resolvent._schur_solve(pencil, w, rhs, node)

    def no_grid_solve(*args, **kwargs):
        raise AssertionError("apply_resolvent was called")

    monkeypatch.setattr(stability, "_schur_solve", counted)
    monkeypatch.setattr(stability, "apply_resolvent", no_grid_solve)
    for spec, basis, ps, forcing in cases:
        build_finite_rank_part(spec, basis, ps, forcing)
    assert [[p.order for p in ps.nonneg] for _s, _b, ps, _f in cases] == [[1, 1], [2]]
    assert calls == [[p.source + REFINE_SHIFT ** (1.0 / p.order)
                      for p in ps.nonneg for _k in range(p.order)]
                     for _s, _b, ps, _f in cases]


def test_correction_lies_in_kernel(decomposition_ex1, decomposition_ex1s):
    assert decomposition_ex1.kernel_defect < 1e-6
    assert decomposition_ex1s.kernel_defect < 1e-6


def test_correction_is_sum_of_exponentials(decomposition_ex1s, ex1s, basis_q16m32,
                                           default_forcing_q16):
    # the 32-node loop reference projects onto {exp(lam x0)} up to 1e-6 of its energy
    part = decomposition_ex1s.correction
    times = decomposition_ex1s.difference.times[:33]
    field = _loop_reference(ex1s, basis_q16m32, decomposition_ex1s.pole_set,
                            default_forcing_q16, times, 32)
    lams = list(part.lam)
    design = np.stack([np.exp(l * times) for l in lams], axis=1)
    flat = field.reshape(len(times), -1)
    coef, *_ = np.linalg.lstsq(design, flat, rcond=None)
    residual = flat - design @ coef
    assert np.linalg.norm(residual) <= 1e-6 * np.linalg.norm(flat)


# -- the decomposition ---------------------------------------------------------------


def test_ex1_decay_rate(decomposition_ex1):
    assert abs(decomposition_ex1.fitted_rate + 0.5) <= 0.05
    assert decomposition_ex1.rank == 1 and decomposition_ex1.n_nonneg == 1


def test_ex1s_decay_rate(decomposition_ex1s):
    assert abs(decomposition_ex1s.fitted_rate + 0.25) <= 0.025
    assert decomposition_ex1s.rank == 2 and decomposition_ex1s.n_nonneg == 2


def test_rate_respects_threshold(decomposition_ex1, decomposition_ex1s, ex1, basis_q16m32,
                                poles_ex1_q16, default_forcing_q16):
    # the even default forcing barely excites EX1's z*** mode, so its fit follows
    # the decay segment's own slope: this bound fails with the segment at z***/2
    even_ex1 = decompose(ex1, basis_q16m32, default_forcing_q16, poles_ex1_q16)
    for dec in (decomposition_ex1, decomposition_ex1s, even_ex1):
        z3 = dec.pole_set.z_star_star_star
        assert dec.fitted_rate <= z3 + 0.1 * abs(z3)


@pytest.mark.parametrize("qmax", [16, 32])
def test_generic_bump_rate_across_bands(ex1s, qmax):
    # a bump of generic centre and width (the green benchmark's seed 4, forcing 2):
    # its content beyond the band grows like exp(c X) in u_ret and swamps the
    # decaying part of u_ret - F f, but decays like exp(c' X) on the decay segment
    basis = build_basis(qmax, 32)
    forcing = make_forcing(basis, {
        "time_bump": {"center": 8.394960940002315, "width": 3.222995921694114},
        "space": {"type": "gaussian", "sigma": 0.4793324681269141},
    })
    dec = decompose(ex1s, basis, forcing, find_poles(ex1s, basis, window=(-2.2, 1.0)))
    assert abs(dec.fitted_rate + 0.25) <= 0.025


@pytest.mark.parametrize("name", ["ex1", "ex1s"])
def test_identity_defect_of_pulse(request, name, basis_q16m32, pulse_forcing):
    # u_ret - F f matches the decay segment over the first period after the support
    spec = request.getfixturevalue(name)
    poles = request.getfixturevalue(f"poles_{name}_q16")
    dec = decompose(spec, basis_q16m32, pulse_forcing, poles)
    assert dec.identity_defect <= 1e-5


def test_cauchy_consistency_left_path(ex1, basis_q16m32, poles_ex1_q16,
                                      pulse_forcing):
    # the subtracted field equals the left-path integral between the pole groups
    t1 = pulse_forcing.support[1]
    window = aligned_times(basis_q16m32, range(3, 7))
    window = window[window >= t1 - 1e-9]
    u_ret = retarded_solution(ex1, basis_q16m32, pulse_forcing, poles_ex1_q16,
                              c=0.3, n_nodes=33, slice_times=window)
    part = build_finite_rank_part(ex1, basis_q16m32, poles_ex1_q16, pulse_forcing)
    diff = u_ret.values - part.evaluate(window).values
    lp = solve_on_segment(ex1, basis_q16m32, pulse_forcing, -0.25, 49).evaluate(window)
    scale = np.abs(diff).max()
    assert np.abs(lp.values - diff).max() < 1e-7 * scale


def test_default_slice_grid_covers_both_sides(basis_q4m32):
    forcing = make_forcing(basis_q4m32, "default")
    times = default_slice_times(forcing)
    assert times[0] <= forcing.support[0] - 7 * PERIOD
    assert times[-1] >= forcing.support[1] + 7 * PERIOD


def test_one_schur_form_per_pole_search_and_decomposition(monkeypatch, ex1s, basis_q16m32,
                                                          default_forcing_q16):
    # find_poles reads a simple pole's order and rank off the QZ eigenvalues and
    # takes no Schur form for it (none without poles); only a loop around several
    # eigenvalues, as at EX1 x Jordan's defective poles, takes the pencil's one
    # Schur form.  decompose takes it on first use, on the pole set's pencil, and
    # builds no pencil: its segments, projections, refinement solves and kernel
    # check all use that one
    def no_pencil(*args, **kwargs):
        raise AssertionError("a pencil was built")

    calls = []
    schur = scipy.linalg.schur

    def counted(*args, **kwargs):
        calls.append(kwargs.get("sort"))
        return schur(*args, **kwargs)

    monkeypatch.setattr(scipy.linalg, "schur", counted)
    assert len(find_poles(ex1s, build_basis(4, 32), window=(-2.2, 1.0)).poles) == 6
    assert not find_poles(fixture("CE-FLAT"), build_basis(4, 16)).poles
    assert calls == []
    jordan = find_poles(_jordan_spec(), build_basis(2, 16), window=(-2.2, 1.0)).poles
    assert jordan and all((p.order, p.rank) == (2, 2) for p in jordan)
    assert calls == [None]
    poles = find_poles(ex1s, basis_q16m32, window=(-2.2, 1.0))
    assert calls == [None] and "schur" not in vars(poles.pencil)
    for module in (spectral, resolvent, stability):
        monkeypatch.setattr(module, "mode_operator_parts", no_pencil, raising=False)
    dec = decompose(ex1s, basis_q16m32, default_forcing_q16, poles)
    assert dec.rank == 2 and calls == [None, None] and "schur" in vars(poles.pencil)


def test_pole_set_from_another_grid_raises(ex1s, basis_q16m32, poles_ex1s,
                                           default_forcing_q16):
    # the pole set's pencil is the only one decompose solves on: a q4m32 pole set
    # cannot serve a q16m32 basis
    args = (ex1s, basis_q16m32)
    for call in (lambda: decompose(*args, default_forcing_q16, poles_ex1s),
                 lambda: build_finite_rank_part(*args, poles_ex1s, default_forcing_q16),
                 lambda: retarded_solution(*args, default_forcing_q16, poles_ex1s)):
        with pytest.raises(ValueError, match=r"\(9, 33, 1\).*\(33, 33, 1\)"):
            call()
