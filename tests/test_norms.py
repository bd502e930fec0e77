import dataclasses
import math

import numpy as np
import pytest

from cylspec import norms
from cylspec.norms import TruncationError, graded_seminorms, multi_indices, triple_norm
from cylspec.operator_model import WeightSequence
from cylspec.spectral import OverflowGuardError, build_basis, random_band_limited
from reference import (
    check_combinatorial_identity,
    check_resummation_coefficient,
    resummation_coefficient,
    sobolev_seminorm,
)


# -- multi-index combinatorics -------------------------------------------------


def test_table_order_two():
    t = multi_indices(2, 2)
    assert dict(zip(t.indices, t.weights)) == {(2, 0): 1, (1, 1): 2, (0, 2): 1}


def test_table_order_zero():
    t = multi_indices(2, 0)
    assert dict(zip(t.indices, t.weights)) == {(0, 0): 1}


def test_weight_sums_are_powers():
    for n_vars in (1, 2, 3, 5):
        for ell in range(5):
            assert sum(multi_indices(n_vars, ell).weights) == n_vars**ell


def test_neighbor_sum_identity_by_hand():
    c = {(2, 0): 1.7, (1, 1): -0.3 + 2j, (0, 2): 0.9}
    lhs = (c[(2, 0)] + c[(1, 1)]) + (c[(1, 1)] + c[(0, 2)])
    rhs = c[(2, 0)] + 2 * c[(1, 1)] + c[(0, 2)]
    assert lhs == rhs
    assert check_combinatorial_identity(2, 2, c)


def test_neighbor_sum_identity_delta_collections():
    for gamma in multi_indices(3, 3).indices:
        c = {gamma: 1.0}
        assert check_combinatorial_identity(3, 3, c)


def test_neighbor_sum_identity_random():
    rng = np.random.default_rng(7)
    for n_vars, ell in ((4, 3), (2, 5), (3, 4)):
        c = {a: complex(*rng.standard_normal(2)) for a in multi_indices(n_vars, ell).indices}
        assert check_combinatorial_identity(n_vars, ell, c)


def test_resummation_coefficient_values():
    assert resummation_coefficient(1, 2, 1, (2, 0)) == 6  # C(2,1)*C(3,1)
    assert resummation_coefficient(1, 2, 0, (1, 2)) == 1  # k = 0 collapses
    assert resummation_coefficient(3, 3, 2, (1, 0, 1, 0)) == 45  # C(3,2)*C(6,2)


def test_resummation_closed_form_small():
    for n in (1, 2):
        for ell in range(1, 4):
            for k in range(ell + 1):
                assert check_resummation_coefficient(n, ell, k)


# -- seminorms and graded norms --------------------------------------------------


def grid_constant(basis, value=1.0):
    return np.full((basis.n_time, basis.n_space, 1), value, dtype=complex)


def test_seminorm_of_constant(basis_q4m32):
    one = grid_constant(basis_q4m32)
    got = graded_seminorms(one, 1, basis_q4m32)
    assert abs(got[0] - math.sqrt(4 * math.pi)) < 1e-12
    assert got[1] < 1e-12


def test_seminorm_of_coordinate(basis_q4m32):
    b = basis_q4m32
    x = (b.x1[None, :, None] * np.ones((b.n_time, 1, 1))).astype(complex)
    # only the spatial derivative contributes: integral of 1 over the cylinder
    assert abs(graded_seminorms(x, 1, b)[1] - math.sqrt(4 * math.pi)) < 1e-12


def test_seminorm_of_time_mode(basis_q4m32):
    # d0^a of exp(3i x0) is (3i)^a exp(3i x0): ||u||_ell = 3^ell ||u||_0
    b = basis_q4m32
    u = np.exp(3j * b.x0)[:, None, None] * grid_constant(b)
    got = graded_seminorms(u, 4, b)
    for ell in range(5):
        assert abs(got[ell] - 3**ell * math.sqrt(4 * math.pi)) < 1e-12 * 3**ell


def _per_alpha(u, top, basis):
    return np.array([sobolev_seminorm(u, ell, basis) for ell in range(top + 1)])


@pytest.mark.parametrize("q_max, m", [(4, 32), (16, 16)])
def test_seminorm_ladder_matches_per_alpha_reference(monkeypatch, ex1, q_max, m):
    basis = build_basis(q_max, m)
    rng = np.random.default_rng(9)
    samples = [random_band_limited(basis, rng) for _ in range(8)]
    for u in samples:
        ladder, ref = graded_seminorms(u, 16, basis), _per_alpha(u, 16, basis)
        for ell in range(4):
            assert abs(ladder[ell] - ref[ell]) <= 1e-13 * ref[ell]
        # the high orders are ill-conditioned in both (d1^b amplifies roundoff
        # like M^2b): at q4m32 they part by up to about 1e-4 at ell = 16
        for ell in range(4, 17):
            assert abs(ladder[ell] - ref[ell]) <= 1e-3 * ref[ell]
    got = [triple_norm(u, h, ex1, basis) for u in samples for h in (0, 1)]
    monkeypatch.setattr(norms, "graded_seminorms", _per_alpha)
    ref = [triple_norm(u, h, ex1, basis) for u in samples for h in (0, 1)]
    for g, r in zip(got, ref):
        assert abs(g.value - r.value) <= 1e-12 * r.value
        # the tail extrapolates the last two terms, so it carries their gap, but
        # r_ell / ell! holds it far below the value
        assert abs(g.tail_bound - r.tail_bound) <= 1e-12 * r.value
        assert abs(g.tail_bound - r.tail_bound) <= 1e-2 * r.tail_bound


def test_seminorm_overflow_guard(ex1, basis_q4m32):
    # the per-alpha reference and the ladder forbid the same orders
    u = grid_constant(basis_q4m32)
    assert len(graded_seminorms(u, 64, basis_q4m32)) == 65
    with pytest.raises(OverflowGuardError):
        sobolev_seminorm(u, 65, basis_q4m32)
    with pytest.raises(OverflowGuardError, match="order 65"):
        graded_seminorms(u, 65, basis_q4m32)
    spec = dataclasses.replace(ex1, weights=WeightSequence.geometric(0.024, 65), L_max=65)
    with pytest.raises(OverflowGuardError):
        triple_norm(u, 0, spec, basis_q4m32)


def test_triple_norm_of_constant(ex1, basis_q4m32):
    # derivatives of constants vanish only to roundoff, so allow an eps-level
    # contribution from the higher terms
    one = grid_constant(basis_q4m32)
    for h in (0, 1):
        tn = triple_norm(one, h, ex1, basis_q4m32)
        assert abs(tn.value - math.sqrt(4 * math.pi)) < 1e-10
        assert tn.tail_bound <= 1e-10 * max(tn.value, 1e-300)
    zero = grid_constant(basis_q4m32, 0.0)
    assert triple_norm(zero, 0, ex1, basis_q4m32).value == 0.0


def test_triple_norm_homogeneity_and_triangle(ex1, basis_q4m32):
    rng = np.random.default_rng(5)
    u = random_band_limited(basis_q4m32, rng)
    v = random_band_limited(basis_q4m32, rng)
    tu = triple_norm(u, 0, ex1, basis_q4m32).value
    tv = triple_norm(v, 0, ex1, basis_q4m32).value
    tcu = triple_norm((2.5 - 1j) * u, 0, ex1, basis_q4m32).value
    assert abs(tcu - abs(2.5 - 1j) * tu) < 1e-12 * max(tcu, 1.0)
    tsum = triple_norm(u + v, 0, ex1, basis_q4m32).value
    assert tsum <= tu + tv + 1e-12 * (tu + tv)


def test_non_decaying_truncation_raises_typed_error(ex1, basis_q4m32):
    # the top Fourier mode with unit weights: terms 4^l ||u|| / l! still grow at L_max = 3
    spec = dataclasses.replace(ex1, weights=WeightSequence.geometric(1.0, 3), L_max=3)
    u = np.exp(4j * basis_q4m32.x0)[:, None, None] * grid_constant(basis_q4m32)
    with pytest.raises(TruncationError, match="not decaying") as info:
        triple_norm(u, 0, spec, basis_q4m32)
    err = info.value
    assert isinstance(err, ValueError)
    assert 0 < err.t_prev < err.t_last
    assert abs(err.t_last / err.t_prev - 4 / 3) < 1e-10


def test_termwise_grading_monotonicity(ex1, basis_q4m32):
    rng = np.random.default_rng(6)
    u = random_band_limited(basis_q4m32, rng)
    t0 = triple_norm(u, 0, ex1, basis_q4m32)
    t1 = triple_norm(u, 1, ex1, basis_q4m32)
    for ell, (a, b) in enumerate(zip(t1.terms, t0.terms)):
        assert a <= b / (ell + 1) + 1e-15  # the h=1 term divides by (ell+1)


def test_phase_multiplier_bound(ex1, basis_q4m32):
    # multiplying by the unit-frequency phase costs at most exp(r_1), plus tails
    rng = np.random.default_rng(8)
    r1 = ex1.weights.r(1)
    for _ in range(5):
        u = random_band_limited(basis_q4m32, rng, mode_frac=0.4)
        phase = np.exp(1j * basis_q4m32.x0)[:, None, None]
        left = triple_norm(phase * u, 0, ex1, basis_q4m32)
        right = triple_norm(u, 0, ex1, basis_q4m32)
        slack = left.tail_bound + math.e**r1 * right.tail_bound + 1e-12
        assert left.value <= math.exp(r1) * right.value + slack

