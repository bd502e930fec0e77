"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Tolerances are pinned here; bases are chosen per criterion (pinned where the
criterion pins them, otherwise adequate for the stated tolerance).
"""

import math
import time
from fractions import Fraction

import numpy as np

from cylspec.norms import multi_indices
from cylspec.operator_model import check_assumptions, fixture, stability_constants
from cylspec.oracle import poly_eigenpairs
from cylspec.resolvent import find_poles, triple_norm_bound_check
from cylspec.spectral import (
    assemble_operator,
    build_basis,
    multiplier_matrix,
    random_band_limited,
)
from cylspec.stability import cross_engine_deltas, decompose, make_forcing
from cylspec.timedomain import growth_rate
from reference import (
    inner_product,
    resummation_coefficient,
    spectral_projection,
    verify_resolvent_identities,
)


def report(number, passed, detail=""):
    tag = "PASS" if passed else "FAIL"
    print(f"[{tag}] criterion {number}: {detail}")
    assert passed, f"criterion {number}: {detail}"


def test_criterion_01_spectrum_reproduction(ex1):
    start = time.time()
    basis = build_basis(4, 32)
    pole_set = find_poles(ex1, basis, window=(-2.2, 1.0))
    elapsed = time.time() - start
    got = np.sort([p.lam.real for p in pole_set.poles])[::-1]
    expected = np.array([0.0, -0.5, -1.0, -1.5, -2.0])
    value_ok = len(got) == 5 and np.abs(got - expected).max() <= 1e-6
    imag_ok = all(0.0 <= p.lam.imag < 1.0 or abs(p.lam.imag) < 1e-9
                  for p in pole_set.poles)
    simple_ok = all(p.order == 1 and p.rank == 1 for p in pole_set.poles)
    report(1, value_ok and imag_ok and simple_ok and elapsed < 10.0,
           f"poles {np.round(got, 8)}, all simple rank 1, {elapsed:.1f}s")


def test_criterion_02_micro_instance(ex1):
    basis = build_basis(0, 2)
    pole_set = find_poles(ex1, basis, window=(-1.2, 1.0))
    got = np.sort([p.lam.real for p in pole_set.poles])
    err = np.abs(got - np.array([-1.0, -0.5, 0.0])).max()
    imag = max(abs(p.lam.imag) for p in pole_set.poles)
    report(2, len(got) == 3 and err <= 1e-12 and imag <= 1e-12,
           f"micro poles exact to {max(err, imag):.2e}")


def test_criterion_03_oracle_equivalence(ex1):
    basis = build_basis(4, 32)
    pole_set = find_poles(ex1, basis, window=(-3.2, 0.5))
    raw = np.array(pole_set.raw_eigenvalues)
    ok = True
    worst = 0.0
    for q in range(-3, 4):
        families = poly_eigenpairs(ex1, q, 6)
        for p in range(7):
            z = families[p][0].z
            dist = np.abs(raw - z)
            matches = int(np.sum(dist < 1e-8))
            worst = max(worst, float(dist.min()))
            if matches != len(families[p]):  # multiplicity 1 on the scalar example
                ok = False
    ex2 = fixture("EX2")
    dims = {p: len(poly_eigenpairs(ex2, 0, 2)[p]) for p in range(3)}
    table_ok = dims == {0: 2, 1: 6, 2: 12}
    report(3, ok and table_ok,
           f"grid/exact agreement {worst:.2e}, multiplicity table {dims}")


def test_criterion_04_finite_codimension_stability(ex1s):
    start = time.time()
    basis = build_basis(16, 32)
    forcing = make_forcing(basis, "default")
    pole_set = find_poles(ex1s, basis, window=(-2.2, 1.0))
    dec = decompose(ex1s, basis, forcing, pole_set)
    elapsed = time.time() - start
    rate_ok = abs(dec.fitted_rate + 0.25) <= 0.1 * 0.25
    defect_ok = dec.kernel_defect <= 1e-6
    report(4, dec.n_nonneg == 2 and dec.rank == 2 and rate_ok and defect_ok
           and elapsed < 60.0,
           f"|Λ|={dec.n_nonneg}, rank F={dec.rank}, rate {dec.fitted_rate:.4f}, "
           f"kernel defect {dec.kernel_defect:.1e}, {elapsed:.1f}s")


def test_criterion_05_cross_engine_agreement(ex1):
    basis = build_basis(16, 32)
    deltas = cross_engine_deltas(ex1, basis, make_forcing(basis, "default"), 0.3)
    evolve_delta, periodize_delta = deltas["evolve_vs_retarded"], deltas["periodize_vs_solve"]
    report(5, evolve_delta <= 1e-3 and periodize_delta <= 1e-5,
           f"evolve vs segment {evolve_delta:.2e} (<=1e-3), "
           f"periodize vs solve {periodize_delta:.2e} (<=1e-5)")


def test_criterion_06_operator_identities(ex1):
    basis = build_basis(4, 32)
    rng = np.random.default_rng(2)
    worst_res, worst_conj = 0.0, 0.0
    for _ in range(10):
        w = 0.8 + 1.5 * rng.random() + 1j * rng.uniform(-1.0, 1.0)
        w_prime = 0.8 + 1.5 * rng.random() + 1j * rng.uniform(-1.0, 1.0)
        rep = verify_resolvent_identities(ex1, basis, w, w_prime)
        worst_res = max(worst_res, rep["resolvent_identity_error"])
        worst_conj = max(worst_conj, rep["conjugation_error"])
    report(6, worst_res <= 1e-10 and worst_conj <= 1e-10,
           f"resolvent identity {worst_res:.2e}, conjugation {worst_conj:.2e}")


def test_criterion_07_projection_algebra(ex1):
    basis = build_basis(4, 24)
    pole_set = find_poles(ex1, basis, window=(-2.2, 1.0))
    a0 = multiplier_matrix(ex1, basis)
    worst = 0.0
    for pole in pole_set.poles:
        projs = [
            spectral_projection(ex1, basis, pole.source, ell,
                                pole_set=pole_set, n_nodes=64).matrix
            for ell in range(4)
        ]
        scale = np.linalg.norm(projs[0])
        pa = projs[0] @ a0
        worst = max(worst, float(np.linalg.norm(pa @ pa - pa)) / scale)
        for k in range(4):
            for ell in range(4 - k):
                lhs = projs[k] @ a0 @ projs[ell]
                worst = max(worst, float(np.linalg.norm(lhs - projs[k + ell])) / scale)
    report(7, worst <= 1e-8, f"worst projection-algebra defect {worst:.2e}")


def test_criterion_08_energy_inequality(ex1):
    basis = build_basis(4, 32)
    z_star, R = 0.75, 2.0 / 7.0
    z = z_star + 0.1
    rz = R * (1.0 + abs(z))
    mat = assemble_operator(ex1, basis, z)
    rng = np.random.default_rng(3)
    worst = -np.inf
    for _ in range(100):
        u = random_band_limited(basis, rng)
        du = (mat @ u.reshape(-1)).reshape(u.shape)
        lhs = inner_product(u, u, basis).real
        rhs = inner_product(u, du, basis).real / rz
        worst = max(worst, lhs - rhs)
    report(8, worst <= 1e-8, f"worst <u,u> - Re<u,Du>/R_z = {worst:.2e}")


def test_criterion_09_constants_and_bound(ex1):
    sc = stability_constants(ex1)
    const_ok = (abs(sc.z_star - 0.75) <= 1e-9 and abs(sc.R - 2.0 / 7.0) <= 1e-9
                and abs(sc.rho_star - 0.024) <= 1e-3)
    basis = build_basis(4, 32)
    bound = triple_norm_bound_check(ex1, basis, samples=100, seed=0)
    report(9, const_ok and bound["passed"],
           f"z*={sc.z_star}, R={sc.R:.6f}, rho*={sc.rho_star:.6f}, "
           f"bound worst ratio {bound['worst_ratio']:.3f} on 100 samples")


def test_criterion_10_combinatorial_identities():
    ok = True
    # neighbor-sum identity with integer collections, exact arithmetic
    for n in (1, 2, 3):
        for ell in range(1, 6):
            table = multi_indices(n + 1, ell)
            values = {a: (17 * sum(a) + 3) for a in table.indices}  # integers
            lhs = 0
            for beta, w in zip(*[multi_indices(n + 1, ell - 1).indices,
                                 multi_indices(n + 1, ell - 1).weights]):
                for i in range(n + 1):
                    alpha = tuple(b + (1 if j == i else 0) for j, b in enumerate(beta))
                    lhs += w * values[alpha]
            rhs = sum(w * values[a] for a, w in zip(table.indices, table.weights))
            ok = ok and (lhs == rhs)
    # resummation constant, exact rational arithmetic
    for n in (1, 2, 3):
        for ell in range(1, 6):
            for k in range(ell + 1):
                expected = Fraction(math.comb(ell, k) * math.comb(ell + n, k))
                gammas = multi_indices(n + 1, ell - k + 1).indices
                for gamma in gammas[:: max(1, len(gammas) // 4)]:
                    ok = ok and resummation_coefficient(n, ell, k, gamma) == expected
    report(10, ok, "neighbor-sum and resummation identities exact for n<=3, l<=5")


def test_criterion_11_counterexample_rejection():
    rep_b = check_assumptions(fixture("CE-BDY"), sample_density=17)
    bdy_ok = rep_b.failed() == ["ii"]
    witness = rep_b.checks["ii"].witnesses[0]
    wit_ok = witness["point"][1] == -1.0 and abs(witness["min_eig"] + 0.25) < 1e-12
    rep_f = check_assumptions(fixture("CE-FLAT"), sample_density=17)
    flat_ok = rep_f.failed() == ["iii"]
    basis = build_basis(4, 24)
    g = growth_rate(fixture("CE-FLAT"), basis)
    plateau_ok = g.nonmodal_plateau
    report(11, bdy_ok and wit_ok and flat_ok and plateau_ok,
           f"CE-BDY fails exactly (ii) at the boundary, CE-FLAT fails exactly "
           f"(iii), flat long-run plateau non-modal (rate {g.rate:.1e})")


def test_criterion_12_off_lattice_exclusion(ex1):
    basis = build_basis(4, 32)
    pole_set = find_poles(ex1, basis, window=(-3.2, 1.0))
    lattice = np.array([
        -1j * q - 0.5 * p for q in range(-6, 7) for p in range(0, 9)
    ])
    worst = max(
        float(np.abs(lattice - z).min()) for z in pole_set.raw_eigenvalues
    )
    report(12, worst <= 1e-4,
           f"all {len(pole_set.raw_eigenvalues)} filtered eigenvalues within "
           f"{worst:.2e} of the half-lattice")
