import dataclasses
import math

import numpy as np
import pytest

from cylspec import operator_model
from cylspec.norms import multi_indices
from cylspec.operator_model import (
    FIXTURE_NAMES,
    TOL_PSD,
    AssumptionReport,
    Certificate,
    CheckResult,
    OperatorSpec,
    SpecError,
    StabilityConstants,
    WeightSequence,
    _certificate_form,
    _eigvalsh,
    _pencil_eigvalsh_1x1,
    _scalar_affine_operator,
    _summability_sums,
    check_assumptions,
    derivative_norms,
    energy_threshold,
    fixture,
    load_spec,
    q_effective,
    spec_to_json,
    stability_constants,
)
from cylspec.polynomial import MatrixPolynomial
from reference import _certificate_blocks, derivative_multi, monomial_eval_points, \
    unskipped_certificate_blocks


# -- loading and validation --------------------------------------------------


def test_fixture_names_resolve():
    for name in ("EX1", "EX1S", "EX2", "CE-BDY", "CE-FLAT"):
        spec = load_spec(name)
        assert spec.name == name


def test_ex1_shape():
    ex1 = fixture("EX1")
    assert (ex1.n, ex1.N) == (1, 1)
    pt = (0.0, 0.5)
    assert ex1.A[0](pt)[0, 0] == 1.0 and ex1.A[1](pt)[0, 0] == 0.25 and ex1.B(pt)[0, 0] == 0.0
    assert ex1.A[1]((math.pi, -1.0))[0, 0] == -0.5


def test_ex2_origin_blocks():
    ex2 = fixture("EX2")
    pt = (0.0, 0.0, 0.0, 0.0)
    mu = 0.5
    assert np.allclose(ex2.A[0](pt), np.eye(2))
    assert np.allclose(ex2.A[1](pt), mu * np.array([[0, 1], [1, 0]]))
    assert np.allclose(ex2.A[2](pt), mu * np.array([[0, 1j], [-1j, 0]]))
    assert np.allclose(ex2.A[3](pt), mu * np.array([[1, 0], [0, -1]]))
    assert np.allclose(ex2.B(pt), 0.0)


def test_submultiplicativity_violation():
    with pytest.raises(SpecError, match="submultiplicativity"):
        WeightSequence((1.0, 1.5, 1.0, 2.0))  # r3 > r1*r2


def test_r0_must_be_one():
    with pytest.raises(SpecError):
        WeightSequence((0.5, 0.25))


def test_json_round_trip_and_schema():
    from jsonschema import Draft202012Validator

    # load_spec validates documents against these without re-checking them
    Draft202012Validator.check_schema(operator_model.CONFIG_SCHEMA)
    Draft202012Validator.check_schema(operator_model.POLY_ENTRY_SCHEMA)
    doc = spec_to_json(fixture("EX1"))
    spec = load_spec(doc)
    assert spec.n == 1 and spec.N == 1
    bad = dict(doc)
    bad["A"] = doc["A"][:1]  # missing A^1
    with pytest.raises(SpecError):
        load_spec(bad)
    bad = dict(doc)
    bad["B"] = [{"alpha": [0, 0], "matrix": [[[1.0, 0.0]], [[0.0, 0.0]]]}]
    with pytest.raises(SpecError):
        load_spec(bad)


# -- assumption checks --------------------------------------------------------


def test_ex1_all_assumptions_pass():
    report = check_assumptions(fixture("EX1"), sample_density=33)
    assert report.all_pass


def test_ex1_certificate_form_explicit():
    # certified form for the scalar drift is [[2, 0.5x], [0.5x, 3]]; its minimum
    # eigenvalue over x in [-1, 1] is (5 - sqrt(2))/2, attained at the endpoints
    report = check_assumptions(fixture("EX1"), sample_density=65)
    worst = float(report.checks["iii"].detail.split("=")[1].split("(")[0])
    assert abs(worst - (5.0 - math.sqrt(2.0)) / 2.0) < 1e-5


def test_ce_bdy_fails_exactly_outflow():
    report = check_assumptions(fixture("CE-BDY"), sample_density=17)
    assert report.failed() == ["ii"]
    witness = report.checks["ii"].witnesses[0]
    assert witness["point"][1] == -1.0
    assert abs(witness["min_eig"] + 0.25) < 1e-12
    # witnesses hold Python floats, so the console report prints plain numbers
    assert all(type(x) is float for x in witness["point"] + witness["normal"])
    assert "witness {'point': [0.0, -1.0], 'normal': [0.0, -1.0], 'min_eig': -0.25}" \
        in report.pretty()


def test_ce_flat_fails_exactly_certificate():
    report = check_assumptions(fixture("CE-FLAT"), sample_density=17)
    assert report.failed() == ["iii"]


def test_ex2_all_assumptions_pass():
    report = check_assumptions(fixture("EX2"), sample_density=8)
    assert report.all_pass


def test_missing_certificate_unverifiable():
    import dataclasses

    spec = dataclasses.replace(fixture("EX1"), certificate=None)
    report = check_assumptions(spec, sample_density=17)
    assert report.checks["iii"].status == "unverifiable"
    assert not report.any_fail


# -- derivative norms ----------------------------------------------------------


def test_ex1_derivative_norms():
    ex1 = fixture("EX1")
    na, nb, na0 = derivative_norms(ex1, 0)
    assert abs(na - math.sqrt(1.25)) < 1e-12
    assert nb == 0.0 and abs(na0 - 1.0) < 1e-14
    assert abs(derivative_norms(ex1, 1)[0] - 0.5) < 1e-14
    assert derivative_norms(ex1, 2) == (0.0, 0.0, 0.0)


def test_norm_scaling_is_exact():
    import dataclasses

    ex1 = fixture("EX1")
    doubled = dataclasses.replace(ex1, A=tuple(2.0 * a for a in ex1.A))
    for k in (0, 1):
        assert abs(derivative_norms(doubled, k)[0]
                   - 2.0 * derivative_norms(ex1, k)[0]) < 1e-12


def test_condition_iv_survives_geometric_rescale():
    import dataclasses

    ex1 = fixture("EX1")
    report = check_assumptions(ex1, sample_density=17)
    assert report.checks["iv"].status == "pass"
    rescaled = dataclasses.replace(
        ex1, weights=WeightSequence.geometric(0.5 * ex1.weights.kappa, ex1.L_max))
    report2 = check_assumptions(rescaled, sample_density=17)
    assert report2.checks["iv"].status == "pass"
    assert q_effective(rescaled, density=17) <= q_effective(ex1, density=17) + 1e-12


# -- stability constants -------------------------------------------------------


def test_ex1_constants():
    sc = stability_constants(fixture("EX1"))
    assert abs(sc.z_star - 0.75) < 1e-9
    assert abs(sc.R - 2.0 / 7.0) < 1e-9
    assert abs(sc.rho_star - 0.024) < 1e-3
    assert abs(sc.q_effective - 1.0) < 1e-9


def test_ex1s_constants():
    sc = stability_constants(fixture("EX1S"))
    assert abs(sc.z_star - 1.5) < 1e-9
    assert abs(sc.R - 0.2) < 1e-9


def test_ex2_constants():
    # K_z = (s - 3*mu/2) * id: threshold 1.25, coercivity (1.25-0.75)/2.25
    sc = stability_constants(fixture("EX2"), density=6)
    assert abs(sc.z_star - 1.25) < 1e-9
    assert abs(sc.R - 2.0 / 9.0) < 1e-9


def test_energy_threshold_needs_no_certificate():
    # z* is stability_constants' z_star, and needs no certificate (only rho_star does)
    for name, density in (("EX1", 64), ("EX1S", 64), ("EX2", 6), ("CE-BDY", 17), ("CE-FLAT", 17)):
        spec = fixture(name)
        z_star = energy_threshold(spec, density)
        assert z_star == stability_constants(spec, density).z_star
        assert energy_threshold(dataclasses.replace(spec, certificate=None), density) == z_star
    with pytest.raises(SpecError, match="require a certificate"):
        stability_constants(dataclasses.replace(fixture("EX1"), certificate=None))


def test_coercivity_inequality_on_grid():
    # K_z - R(1+|Re z|) psd on samples for every admissible fixture
    from cylspec.operator_model import _interior_grid

    for name in ("EX1", "EX1S"):
        spec = fixture(name)
        sc = stability_constants(spec)
        div_a = spec.A[0].derivative(0) + spec.A[1].derivative(1)
        for s in (sc.z_star, sc.z_star + 0.5, sc.z_star + 3.0):
            for pt in _interior_grid(1, 17).points:
                k0 = 0.5 * (-div_a(pt) + spec.B(pt) + spec.B(pt).conj().T)
                kz = k0 + s * spec.A[0](pt)
                bound = sc.R * (1.0 + abs(s)) * np.eye(spec.N)
                assert np.linalg.eigvalsh(kz - bound).min() >= -1e-10


def _slice_rows(pts):
    # the rows of the first time slice, counted as _varying_rows did before the
    # grids carried the count
    return np.count_nonzero(pts[:, 0] == pts[0, 0])


def test_interior_grid_built_once_and_read_only():
    from cylspec.operator_model import _interior_grid

    grid = _interior_grid(1, 17)
    pts = grid.points
    assert _interior_grid(1, 17) is grid and not pts.flags.writeable
    assert np.array_equal(pts, _reference_interior_points(1, 17))
    with pytest.raises(ValueError):
        pts[0, 0] = 1.0
    for n, density in ((1, 17), (1, 64), (3, 8)):
        grid = _interior_grid(n, density)
        assert grid.slice_rows == _slice_rows(grid.points)
        assert np.array_equal(grid.points, _reference_interior_points(n, density))


def test_boundary_grid_built_once_and_read_only():
    from cylspec.operator_model import _boundary_grid

    for n, density in ((1, 17), (3, 64)):
        grid = _boundary_grid(n, density)
        assert _boundary_grid(n, density) is grid and not grid.points.flags.writeable
        assert np.array_equal(grid.points, _reference_boundary_points(n, density)[0])
        assert grid.slice_rows == _slice_rows(grid.points)


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("density", [0, -4])
def test_grids_reject_density_below_one(n, density):
    from cylspec.operator_model import _boundary_grid, _interior_grid

    for grid in (_interior_grid, _boundary_grid):
        with pytest.raises(SpecError, match="density"):
            grid(n, density)
    with pytest.raises(SpecError, match="density"):
        check_assumptions(fixture("EX1"), sample_density=density)


NOT_POSITIVE_A0 = {"n": 1, "N": 1, "B": [],
                   "A": [[{"alpha": [0, 0], "matrix": [[[-1.0, 0.0]]]}],
                         [{"alpha": [0, 1], "matrix": [[[0.5, 0.0]]]}]]}


def test_energy_threshold_names_a_non_positive_a0():
    # scipy's eigh raised an untyped LinAlgError about its second matrix "B"
    spec = load_spec(NOT_POSITIVE_A0)
    for call in (lambda: energy_threshold(spec), lambda: energy_threshold(spec, 8),
                 lambda: stability_constants(dataclasses.replace(
                     spec, certificate=fixture("EX1").certificate))):
        with pytest.raises(SpecError, match=r"condition \(i\).*\[0\.0, -1\.0\].*-1$"):
            call()
    # A0 = x1 + 0.5 is positive only right of x1 = -0.5: the first sample left of it
    doc = dict(NOT_POSITIVE_A0, A=[[{"alpha": [0, 0], "matrix": [[[0.5, 0.0]]]},
                                    {"alpha": [0, 1], "matrix": [[[1.0, 0.0]]]}],
                                   NOT_POSITIVE_A0["A"][1]])
    with pytest.raises(SpecError, match=r"condition \(i\).*\[0\.0, -1\.0\].*-0\.5$"):
        energy_threshold(load_spec(doc))


@pytest.mark.parametrize("dtype", [float, complex])
def test_one_by_one_eigvalsh_is_lapacks_bit_for_bit(dtype):
    mags = np.logspace(-300, 300, 61)
    vals = np.concatenate([mags, -mags, [0.0, -0.0, np.nan, 5e-324, -5e-324, -1.0]])
    rng = np.random.default_rng(30)
    mats = vals.astype(dtype)
    if dtype is complex:
        mats = mats + 1j * np.concatenate([rng.choice([-1.0, 1.0], len(mags)) * mags[::-1],
                                           mags, [-0.0, 0.0, 1.0, np.nan, -1e300, 0.5]])
    for stack in (mats[:, None, None], mats.reshape(8, -1)[:, :, None, None]):
        got, ref = _eigvalsh(stack), np.linalg.eigvalsh(stack)
        assert got.shape == ref.shape and got.dtype == ref.dtype
        assert got.tobytes() == ref.tobytes()
    two = rng.standard_normal((5, 2, 2)).astype(dtype)
    assert _eigvalsh(two).tobytes() == np.linalg.eigvalsh(two).tobytes()


@pytest.mark.parametrize("dtype", [float, complex])
def test_one_by_one_threshold_is_lapacks_bit_for_bit(dtype):
    # a 1x1 pencil's eigenvalue Re a / l**2 with l = sqrt(Re b), against scipy's eigh
    # (LAPACK ?sygvd or ?hegvd), over b from 1e-300 to 1e300 and a of either sign
    # within 1e10 of b; plain Re a / Re b differs in the last bit on over a quarter
    from scipy.linalg import eigh

    rng = np.random.default_rng(31)
    n = 4000
    mag = rng.integers(-300, 301, n)
    b = rng.uniform(0.5, 2.0, n) * 10.0 ** mag
    a = rng.standard_normal(n) * 10.0 ** np.clip(mag + rng.integers(-10, 11, n), -307, 300)
    if dtype is complex:
        a = a + 1j * rng.standard_normal(n) * 10.0 ** rng.integers(-300, 301, n)
    a[:3] = [0.0, -0.0, 1.0]
    got = _pencil_eigvalsh_1x1(a[:, None, None], b[:, None, None])
    ref = np.array([eigh(a[k:k + 1, None], b[k:k + 1, None], eigvals_only=True)[0]
                    for k in range(n)])
    assert got.dtype == ref.dtype and got.tobytes() == ref.tobytes()
    assert np.count_nonzero(a.real / b != ref) > n // 4


def test_non_finite_coefficients_rejected():
    for bad in (float("nan"), float("inf")):
        doc = spec_to_json(fixture("EX1"))
        doc["A"][0][0]["matrix"][0][0][0] = bad
        with pytest.raises(SpecError, match="finite"):
            load_spec(doc)
        doc = spec_to_json(fixture("EX1"))
        doc["certificate"]["Xi"][0][0]["matrix"][0][0][1] = bad
        with pytest.raises(SpecError, match="finite"):
            load_spec(doc)
    doc = spec_to_json(fixture("EX1"))
    doc["B"] = [{"alpha": [0, 1], "matrix": [[[0.0, float("-inf")]]]}]
    with pytest.raises(SpecError, match="finite"):
        load_spec(doc)


# -- batched sampling against the per-point reference ----------------------------
#
# The reference below is the per-point sampling the checks used before they were
# batched: one polynomial evaluation and one dense eigensolve or SVD per sample,
# on grids built from tuple lists.  The batched checks must reproduce it bit for bit.


def _reference_interior_points(n, density):
    t = np.linspace(0.0, 2 * np.pi, max(4, min(density, 16)), endpoint=False)
    if n == 1:
        x = np.unique(np.concatenate([np.linspace(-1.0, 1.0, density), [-1.0, 0.0, 1.0]]))
        return np.array([(ti, xi) for ti in t for xi in x])
    axes = [np.linspace(-1.0, 1.0, max(4, min(density, 12))) for _ in range(n)]
    mesh = np.meshgrid(*axes, indexing="ij")
    flat = np.stack([m.ravel() for m in mesh], axis=1)
    flat = flat[np.sum(flat**2, axis=1) <= 1.0 + 1e-12]
    return np.array([(ti, *xs) for ti in t for xs in flat])


def _reference_boundary_points(n, density):
    t = np.linspace(0.0, 2 * np.pi, max(4, min(density, 16)), endpoint=False)
    if n == 1:
        dirs = np.array([[1.0], [-1.0]])
    else:
        assert n == 3
        m = max(32, 8 * density)
        k = np.arange(m) + 0.5
        phi, theta = np.arccos(1 - 2 * k / m), np.pi * (1 + 5**0.5) * k
        dirs = np.stack([np.sin(phi) * np.cos(theta), np.sin(phi) * np.sin(theta),
                         np.cos(phi)], axis=1)
    return (np.array([(ti, *d) for ti in t for d in dirs]),
            np.array([(0.0, *d) for ti in t for d in dirs]))


def _reference_sup_norm(pts, polys):
    """Per-point sup norm in the library's arithmetic, the square root of the largest
    eigenvalue of the Gram matrix row @ row^H, checked against the SVD norm."""
    best = 0.0
    for pt in pts:
        row = np.hstack([p(pt) for p in polys])
        gram = float(np.linalg.eigvalsh(row @ row.conj().T).max())
        svd = float(np.linalg.norm(row, 2))
        assert abs(math.sqrt(gram) - svd) <= 8 * np.finfo(float).eps * svd
        best = max(best, gram)
    return math.sqrt(best)


def _reference_norm_table(spec, density):
    pts = _reference_interior_points(spec.n, density)
    k_max = max(p.degree for p in list(spec.A) + [spec.B]) + 1
    table = {"A": [], "B": [], "A0": []}
    for k in range(k_max + 1):
        idx = multi_indices(spec.n + 1, k)
        for key, polys in (("A", list(spec.A)), ("B", [spec.B]), ("A0", [spec.A0])):
            blocks = [math.sqrt(w) * derivative_multi(p, alpha)
                      for alpha, w in zip(idx.indices, idx.weights) for p in polys]
            zero = all(b.is_zero for b in blocks)
            table[key].append(0.0 if zero else _reference_sup_norm(pts, blocks))
    return table


def _reference_check(spec, density):
    checks = {}
    pts = _reference_interior_points(spec.n, density)
    witnesses = []
    herm_ok = all(a.is_hermitian(tol=1e-14) for a in spec.A)
    min_eig_a0 = np.inf
    for pt in pts:
        ev = float(np.linalg.eigvalsh(spec.A0(pt)).min())
        if ev < min_eig_a0:
            min_eig_a0, worst_pt = ev, pt
    if not herm_ok:
        witnesses.append({"reason": "non-Hermitian coefficient matrix"})
    if min_eig_a0 <= TOL_PSD:
        witnesses.append({"point": worst_pt.tolist(), "min_eig": min_eig_a0})
    checks["i"] = CheckResult("pass" if herm_ok and min_eig_a0 > TOL_PSD else "fail",
                              witnesses, f"min eig A0 = {min_eig_a0:.6g}")

    witnesses = []
    worst = np.inf
    for pt, w in zip(*_reference_boundary_points(spec.n, density)):
        mat = sum(wi * a(pt) for wi, a in zip(w, spec.A) if wi != 0.0)
        ev = float(np.linalg.eigvalsh(0.5 * (mat + mat.conj().T)).min())
        if ev < worst:
            worst, worst_pt = ev, (pt, w, ev)
    if worst < -TOL_PSD:
        witnesses.append({"point": worst_pt[0].tolist(), "normal": worst_pt[1].tolist(),
                          "min_eig": worst_pt[2]})
    checks["ii"] = CheckResult("pass" if worst >= -TOL_PSD else "fail", witnesses,
                               f"min eig A.w = {worst:.6g}")

    form = _certificate_form(spec)
    worst = np.inf
    witnesses = []
    for pt in pts:
        ev = float(np.linalg.eigvalsh(form(pt)).min())
        if ev < worst:
            worst, worst_pt = ev, pt
    if worst < 1.0 - TOL_PSD:
        witnesses.append({"point": worst_pt.tolist(), "min_eig": worst})
    checks["iii"] = CheckResult("pass" if worst >= 1.0 - TOL_PSD else "fail", witnesses,
                                f"min eig of certificate form = {worst:.6g} (need >= 1)")

    table = _reference_norm_table(spec, density)
    witnesses = []
    for K in (0, 1):
        rK = spec.weights.r(K)
        for key, s in _summability_sums(spec, table, K).items():
            if s > spec.Q * rK * (1 + 1e-12):
                witnesses.append({"K": K, "part": key, "sum": s, "bound": spec.Q * rK})
    checks["iv"] = CheckResult("fail" if witnesses else "pass", witnesses)
    return AssumptionReport(spec.name, checks, table)


def _reference_constants(spec, density, s_span=50.0, s_samples=200):
    from scipy.linalg import eigh

    div_a = spec.A[0].derivative(0)
    for i in range(1, spec.n + 1):
        div_a = div_a + spec.A[i].derivative(i)
    k0_poly = 0.5 * ((-1.0) * div_a + spec.B + spec.B.adjoint())
    pts = _reference_interior_points(spec.n, density)
    z_star = -np.inf
    k0_vals, a0_vals = [], []
    for pt in pts:
        k0, a0 = k0_poly(pt), spec.A0(pt)
        k0 = 0.5 * (k0 + k0.conj().T)
        k0_vals.append(k0)
        a0_vals.append(a0)
        z_star = max(z_star, float(eigh(0.5 * a0 - k0, a0, eigvals_only=True).max()))
    s_grid = np.concatenate([[z_star], z_star + np.linspace(0.0, s_span, s_samples)[1:]])
    R = min(min(float(np.linalg.eigvalsh(k0 + float(s) * a0).min()) / (1.0 + abs(float(s)))
                for k0, a0 in zip(k0_vals, a0_vals)) for s in s_grid)
    R = min(R, min(float(np.linalg.eigvalsh(a0).min()) for a0 in a0_vals))
    xi = spec.certificate.xi
    xi_norm = _reference_sup_norm(pts, list(spec.certificate.Xi))
    rho_star = 0.5 / (spec.Q * (xi + 3.0 / R + xi_norm + 2.0 * xi_norm / (R * xi)))
    table = _reference_norm_table(spec, density)
    q_eff = max(max(_summability_sums(spec, table, K).values()) / spec.weights.r(K)
                for K in (0, 1))
    return StabilityConstants(z_star=z_star, R=R, rho_star=rho_star, q_effective=q_eff)


def _recentred_spec():
    rng = np.random.default_rng(4)
    x_star = float(rng.choice([-1.0, 1.0]) * rng.uniform(1.05, 1.8))
    return _scalar_affine_operator(0.5, x_star, kappa=0.024, name=f"recentred {x_star:+.4f}")


def _random_hermitian_spec():
    """Seeded N=2, n=1 operator with x1^2 and x0 terms and a non-constant certificate."""
    rng = np.random.default_rng(11)

    def herm(scale):
        m = scale * (rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
        return 0.5 * (m + m.conj().T)

    def poly(terms):
        return MatrixPolynomial(2, (2, 2), terms)

    eye = np.eye(2)
    a0 = poly({(0, 0): 2.0 * eye + herm(0.2), (0, 1): herm(0.3)})
    a1 = poly({(0, 0): herm(0.1), (0, 1): 0.5 * eye + herm(0.1), (0, 2): herm(0.2)})
    b = poly({(0, 0): rng.standard_normal((2, 2)), (1, 0): 0.05 * herm(1.0),
              (0, 2): 0.1 * rng.standard_normal((2, 2))})
    xi = (poly({(0, 0): 2.0 * eye + herm(0.2), (0, 1): herm(0.1)}),
          poly({(0, 0): herm(0.2)}))
    return OperatorSpec(n=1, N=2, A=(a0, a1), B=b,
                        weights=WeightSequence.geometric(0.024, 16), Q=1.0,
                        certificate=Certificate(xi=6.0, Xi=xi), name="random N=2")


def _x0_dependent_spec(in_a):
    """The seeded N=2 operator with x0 terms in its certificate's Xi and, if in_a, in
    A^0 and A^1: conditions (i)-(iii), the norm table and the constants then sample
    every time slice for those forms and one slice for the others."""
    rng = np.random.default_rng(12)
    spec = _random_hermitian_spec()

    def x0_term(p):
        m = 0.04 * (rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
        return p + MatrixPolynomial(2, (2, 2), {(1, 0): m + m.conj().T})

    A = tuple(x0_term(a) for a in spec.A) if in_a else spec.A
    Xi = tuple(x0_term(x) for x in spec.certificate.Xi) if in_a else \
        (x0_term(spec.certificate.Xi[0]), spec.certificate.Xi[1])
    return OperatorSpec(n=1, N=2, A=A, B=spec.B, weights=spec.weights, Q=spec.Q,
                        certificate=Certificate(xi=spec.certificate.xi, Xi=Xi),
                        name="x0 in A and Xi" if in_a else "x0 in Xi only")


CHECK_CASES = [
    *[(fixture(name), density) for name in ("EX1", "EX1S", "CE-BDY", "CE-FLAT")
      for density in (8, 17, 64)],
    *[(_recentred_spec(), density) for density in (8, 17, 64)],
    (fixture("EX2"), 8),
    (_random_hermitian_spec(), 17),
    (_x0_dependent_spec(in_a=True), 17),
    (_x0_dependent_spec(in_a=False), 17),
]


@pytest.mark.parametrize("spec, density", CHECK_CASES,
                         ids=[f"{s.name}-{d}" for s, d in CHECK_CASES])
def test_batched_check_matches_per_point_reference(spec, density):
    got = repr(check_assumptions(spec, sample_density=density).to_json())
    assert got == repr(_reference_check(spec, density).to_json())


LADDER_SPECS = [fixture("EX2"), _random_hermitian_spec(), _x0_dependent_spec(in_a=True),
                _x0_dependent_spec(in_a=False)]


@pytest.mark.parametrize("spec", LADDER_SPECS, ids=[s.name for s in LADDER_SPECS])
def test_derivative_ladder_is_derivative_multi_bit_for_bit(spec):
    polys = list(spec.A) + [spec.B] + list(spec.certificate.Xi)
    for p in polys:
        for k in range(4):
            level = p.derivatives(k)
            assert k == 0 or p.derivatives(k) is level          # built once
            nonzero = {}
            for alpha in multi_indices(spec.n + 1, k).indices:
                d = derivative_multi(p, alpha)
                if not d.is_zero:
                    nonzero[alpha] = d
            assert level.keys() == nonzero.keys()
            for alpha, d in nonzero.items():
                assert list(level[alpha].terms) == list(d.terms)
                assert all(level[alpha].terms[b].tobytes() == m.tobytes()
                           for b, m in d.terms.items())
    # a zero derivative ends its branch: EX2's coefficients are affine
    if spec.name == "EX2":
        assert all(p.derivatives(k) == {} for p in polys for k in (2, 3))


CONSTANTS_CASES = [(fixture("EX1"), 64), (fixture("EX1S"), 17), (fixture("EX2"), 6),
                   (_random_hermitian_spec(), 17), (_x0_dependent_spec(in_a=True), 17),
                   (_x0_dependent_spec(in_a=False), 17)]


@pytest.mark.parametrize("spec, density", CONSTANTS_CASES,
                         ids=[f"{s.name}-{d}" for s, d in CONSTANTS_CASES])
def test_batched_constants_match_per_point_reference(spec, density):
    got = stability_constants(spec, density=density)
    ref = _reference_constants(spec, density)
    for field_name in ("z_star", "R", "rho_star", "q_effective"):
        assert getattr(got, field_name) == getattr(ref, field_name)


def test_block_boundaries_do_not_move_witnesses(monkeypatch):
    # CE-FLAT's certificate form is constant and CE-BDY's outflow form repeats at
    # every time slice, so each is sampled on one point or one slice; the random
    # spec's (iii) witness is sample 16, in the third block of 7; the x0-dependent
    # specs sample every slice, and their (ii) and (iii) witnesses lie in the last
    # one, many blocks in
    specs = [fixture("CE-BDY"), fixture("CE-FLAT"), _recentred_spec(), _random_hermitian_spec(),
             _x0_dependent_spec(in_a=True), _x0_dependent_spec(in_a=False)]
    before = [repr(check_assumptions(s, sample_density=17).to_json()) for s in specs]
    monkeypatch.setattr(operator_model, "_BLOCK", 7)
    after = [repr(check_assumptions(s, sample_density=17).to_json()) for s in specs]
    assert after == before
    assert [repr(_reference_check(s, 17).to_json()) for s in specs] == before


@pytest.mark.parametrize("spec", [fixture("EX1"), fixture("EX2"), _random_hermitian_spec()],
                         ids=["EX1", "EX2", "nonzero Xi^1"])
def test_certificate_blocks_skip_only_zero_products(spec):
    got, ref = _certificate_blocks(spec), unskipped_certificate_blocks(spec)
    for got_row, ref_row in zip(got, ref, strict=True):
        for g, r in zip(got_row, ref_row, strict=True):
            assert list(g.terms) == list(r.terms)
            assert all(g.terms[a].tobytes() == m.tobytes() for a, m in r.terms.items())


def _check_workload_recentred(seed=1, count=4, clearance=0.05):
    """The recentred operators d0 + 0.5 (x1 - x*) d1 of the check benchmark workload's
    seed (x* drawn as in `perfbench/workloads.py`, Check.inputs)."""
    rng = np.random.default_rng([seed, 4])
    xs = []
    while len(xs) < count:
        x = float(rng.uniform(-1.8, 1.8))
        if abs(abs(x) - 1.0) >= clearance:
            xs.append(x)
    return [_scalar_affine_operator(0.5, x, kappa=0.024, name=f"recentred {x:+.4f}")
            for x in xs]


def test_sampling_fast_paths_match_the_general_path(monkeypatch):
    # no eigensolve for 1x1 forms, no monomial for constant terms and real products
    # on the float view: the reports and constants must not move a bit
    specs = [fixture(name) for name in FIXTURE_NAMES] + _check_workload_recentred()
    assert len(specs) == 9

    def outputs():
        reports = [repr(check_assumptions(s, sample_density=64).to_json()) for s in specs]
        constants = [stability_constants(fixture(name), density=density)
                     for name in ("EX1", "EX1S", "EX2") for density in (8, 64)]
        return reports, [repr(dataclasses.astuple(c)) for c in constants]

    fast = outputs()
    monkeypatch.setattr(operator_model, "_eigvalsh", np.linalg.eigvalsh)
    monkeypatch.setattr(MatrixPolynomial, "eval_points", monomial_eval_points)
    assert outputs() == fast


FORM_CASES = [(s, True) for s in [fixture(name) for name in FIXTURE_NAMES]
              + _check_workload_recentred() + [_recentred_spec()]] \
    + [(s, False) for s in (_random_hermitian_spec(), _x0_dependent_spec(in_a=True),
                            _x0_dependent_spec(in_a=False))]


@pytest.mark.parametrize("spec, exact", FORM_CASES, ids=[s.name for s, _ in FORM_CASES])
def test_certificate_form_is_the_hermitian_part_of_the_blocks(spec, exact):
    # the one polynomial against the (n+1)^2 blocks put together and symmetrized
    # per sample: the same bits on the fixtures and the recentred operators, whose
    # coefficients take no rounding, and within 4 ulp of the form's norm otherwise
    pts = operator_model._interior_grid(spec.n, 17).points
    got = _certificate_form(spec).eval_points(pts)
    assert got.shape == (len(pts), (spec.n + 1) * spec.N, (spec.n + 1) * spec.N)
    blocks = _certificate_blocks(spec)
    for value, pt in zip(got, pts):
        big = np.block([[blk(pt) for blk in row] for row in blocks])
        ref = 0.5 * (big + big.conj().T)
        if exact:
            assert value.tobytes() == ref.tobytes()
        else:
            eps = np.finfo(float).eps
            assert np.abs(value - ref).max() <= 4 * eps * np.linalg.norm(ref, 2)


def test_certificate_form_is_evaluated_once_per_row_block(monkeypatch):
    # EX2's condition (iii) samples one time slice of its interior grid: one
    # evaluation of the 8x8 form per block of rows, and no per-sample assembly
    spec = fixture("EX2")
    size = (spec.n + 1) * spec.N
    rows = operator_model._interior_grid(spec.n, 64).slice_rows
    calls = []
    evaluate = MatrixPolynomial.eval_points

    def counted(self, pts):
        calls.append((self.shape, len(pts)))
        return evaluate(self, pts)

    def no_block(*args, **kwargs):
        raise AssertionError("np.block called")

    monkeypatch.setattr(MatrixPolynomial, "eval_points", counted)
    monkeypatch.setattr(np, "block", no_block)
    report = check_assumptions(spec, sample_density=64)
    assert report.checks["iii"].status == "pass"
    form_calls = [n for shape, n in calls if shape == (size, size)]
    assert form_calls == [len(range(rows)[sl]) for sl in operator_model._blocks(rows)]
    assert len(form_calls) == -(-rows // operator_model._BLOCK) > 1
