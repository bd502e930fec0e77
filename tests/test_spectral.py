import math

import numpy as np
import pytest

from cylspec.operator_model import SpecError, fixture, stability_constants
from cylspec.spectral import (
    OverflowGuardError,
    assemble_operator,
    build_basis,
    chebyshev_diff,
    chebyshev_points,
    clenshaw_curtis_weights,
    random_band_limited,
)
from reference import (
    apply_derivative,
    inner_product,
    interior_mode_projector,
    phase_shift_matrix,
)


def test_lobatto_points_and_matrix_m2():
    assert np.allclose(chebyshev_points(2), [1.0, 0.0, -1.0])
    d1 = chebyshev_diff(2)
    assert np.allclose(d1, [[1.5, -2.0, 0.5], [0.5, 0.0, -0.5], [-0.5, 2.0, -1.5]])
    # hand check on p(x) = x^2: derivative 2x at the nodes
    assert np.allclose(d1 @ np.array([1.0, 0.0, 1.0]), [2.0, 0.0, -2.0])


def test_diff_annihilates_constants_and_fixes_linear():
    for M in (2, 8, 32):
        d1 = chebyshev_diff(M)
        x = chebyshev_points(M)
        assert np.abs(d1 @ np.ones(M + 1)).max() < 1e-11
        assert np.abs(d1 @ x - 1.0).max() < 1e-11


def test_quadrature_exactness():
    w = clenshaw_curtis_weights(4)
    x = chebyshev_points(4)
    assert abs(w @ x**2 - 2.0 / 3.0) < 1e-14
    assert abs(w @ x**4 - 2.0 / 5.0) < 1e-14
    assert abs(w.sum() - 2.0) < 1e-14


def test_basis_invariants(basis_q4m32):
    b = basis_q4m32
    assert b.n_time == 9 and b.n_space == 33
    assert abs(b.w0 * b.n_time - 2 * math.pi) < 1e-14
    # d0 differentiates every retained mode exactly
    for q in range(-4, 5):
        u = np.exp(1j * q * b.x0)
        assert np.abs(b.d0 @ u - 1j * q * u).max() < 1e-11


def test_apply_derivative_examples(basis_q4m32):
    b = basis_q4m32
    x2 = ((b.x1**2)[None, :, None] * np.ones((b.n_time, 1, 1))).astype(complex)
    dx2 = apply_derivative(x2, (0, 1), b)
    assert np.abs(dx2 - 2 * b.x1[None, :, None]).max() < 1e-11
    mode = np.exp(1j * b.x0)[:, None, None] * np.ones((1, b.n_space, 1))
    dmode = apply_derivative(mode, (1, 0), b)
    assert np.abs(dmode - 1j * mode).max() < 1e-12
    sep = mode * b.x1[None, :, None]
    dsep = apply_derivative(sep, (1, 1), b)
    assert np.abs(dsep - 1j * mode).max() < 1e-11


def test_overflow_guard(basis_q4m32):
    u = np.ones((9, 33, 1), dtype=complex)
    with pytest.raises(OverflowGuardError):
        apply_derivative(u, (0, 80), basis_q4m32)


def test_micro_assembly_matches_hand_matrix(ex1, basis_q0m2):
    mat = assemble_operator(ex1, basis_q0m2, 1.0)
    expected = np.array([[1.75, -1.0, 0.25], [0.0, 1.0, 0.0], [0.25, -1.0, 1.75]])
    assert np.abs(mat - expected).max() < 1e-14


def test_assembly_shift_is_multiplier(ex1, basis_q4m32):
    a5 = assemble_operator(ex1, basis_q4m32, 5.0)
    a0 = assemble_operator(ex1, basis_q4m32, 0.0)
    assert np.abs(a5 - a0 - 5.0 * np.eye(a0.shape[0])).max() < 1e-14


def test_grid_engine_rejects_higher_dimensions():
    with pytest.raises(SpecError, match="n=1"):
        assemble_operator(fixture("EX2"), build_basis(2, 8), 0.0)


def test_discrete_energy_inequality(ex1, basis_q4m32):
    # quadrature realization of <u,u> <= Re<u, D_z u> / R_z for band-limited u
    sc = stability_constants(ex1)
    z = sc.z_star + 0.1
    rz = sc.R * (1.0 + abs(z))
    mat = assemble_operator(ex1, basis_q4m32, z)
    rng = np.random.default_rng(3)
    for _ in range(100):
        u = random_band_limited(basis_q4m32, rng)
        du = (mat @ u.reshape(-1)).reshape(u.shape)
        lhs = inner_product(u, u, basis_q4m32).real
        rhs = inner_product(u, du, basis_q4m32).real / rz
        assert lhs <= rhs + 1e-8


def test_matrix_level_conjugation_on_interior_modes(ex1, basis_q4m32):
    b = basis_q4m32
    for z in (0.9, 1.7 + 0.3j):
        a_zi = assemble_operator(ex1, b, z + 1j)
        a_z = assemble_operator(ex1, b, z)
        shift = phase_shift_matrix(b, 1, +1)
        shift_inv = phase_shift_matrix(b, 1, -1)
        proj = interior_mode_projector(b, 1)
        defect = (a_zi - shift_inv @ a_z @ shift) @ proj
        assert np.linalg.norm(defect) < 1e-10 * np.linalg.norm(a_z)


def test_commutator_structure(ex1, basis_q4m32):
    # [d_1, D_z] acts as 0.5*d_1 on data of modest spatial degree
    b = basis_q4m32
    z = 1.3
    asm = assemble_operator(ex1, b, z)
    rng = np.random.default_rng(11)
    coeff = rng.standard_normal(b.M - 1)
    poly = np.polynomial.chebyshev.chebval(b.x1, coeff)
    u = (np.exp(2j * b.x0)[:, None, None] * poly[None, :, None]).astype(complex)

    def d1(v):
        return apply_derivative(v, (0, 1), b)

    flat = lambda v: (asm @ v.reshape(-1)).reshape(v.shape)
    comm = d1(flat(u)) - flat(d1(u))
    target = 0.5 * d1(u)
    assert np.abs(comm - target).max() < 1e-8 * max(np.abs(target).max(), 1.0)


def test_dealiasing_bound_enforced(wobble):
    # a coefficient linear in the periodic coordinate needs band headroom
    with pytest.raises(SpecError, match="dealiasing"):
        assemble_operator(wobble, build_basis(1, 8), 0.0)
    assemble_operator(wobble, build_basis(4, 8), 0.0)  # enough headroom
