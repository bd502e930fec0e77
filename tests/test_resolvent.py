import math

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from cylspec import resolvent
from cylspec.operator_model import (
    OperatorSpec,
    SpecError,
    WeightSequence,
    energy_threshold,
    fixture,
    stability_constants,
)
from cylspec.polynomial import MatrixPolynomial
from cylspec.resolvent import (
    CLUSTER_TOL,
    ORDER_TOL,
    PERSIST_TOL,
    NearPoleError,
    PolesRightOfWindowError,
    _loop_radius,
    _pencil_eigenpairs,
    _pencil_eigenvalues,
    _persistent,
    _projection_family,
    _schur_solve,
    _strip_clusters,
    _strip_distance,
    apply_operator,
    apply_resolvent,
    find_poles,
    loop_projections,
    resolvent_matrix_for,
    triple_norm_bound_check,
)
from cylspec.spectral import (
    ModePencil,
    assemble_operator,
    build_basis,
    chebyshev_coefficients,
    fourier_coefficients,
    mode_operator_parts,
    multiplier_matrix,
)
from cylspec.stability import forward_transform, make_forcing, segment_abscissa
from reference import (
    _loop_nodes,
    greedy_strip_clusters,
    spectral_projection,
    verify_resolvent_identities,
)


# -- direct solves --------------------------------------------------------------


def _lu_solve(spec, basis, z, f):
    """Dense LU solve of the assembled D + z*A^0 with one refinement step."""
    mat = assemble_operator(spec, basis, z)
    lu_piv = scipy.linalg.lu_factor(mat)
    rhs = f.reshape(-1)
    u = scipy.linalg.lu_solve(lu_piv, rhs)
    u = u + scipy.linalg.lu_solve(lu_piv, rhs - mat @ u)
    return u.reshape(f.shape)


def _rel(got, ref):
    return np.abs(got - ref).max() / np.abs(ref).max()


def test_solve_constant_forcing(ex1, basis_q4m32):
    one = np.ones((9, 33, 1), dtype=complex)
    u = apply_resolvent(ex1, basis_q4m32, 1.0, one)
    assert np.abs(u - 1.0).max() < 1e-11


def test_solve_coordinate_forcing(ex1, basis_q4m32):
    f = (basis_q4m32.x1[None, :, None] * np.ones((9, 1, 1))).astype(complex)
    u = apply_resolvent(ex1, basis_q4m32, 1.0, f)
    assert np.abs(u - f / 1.5).max() < 1e-10


def _at_pole_cases(ex1, wobble):
    """0 is a pole of EX1 at q4m32 and of the x0-dependent wobble at q4m8."""
    return [(ex1, build_basis(4, 32)), (wobble, build_basis(4, 8))]


def test_solve_at_pole_raises(ex1, wobble):
    # the dense inverse names the pole it hit
    for spec, basis in _at_pole_cases(ex1, wobble):
        with pytest.raises(NearPoleError) as err:
            resolvent_matrix_for(spec, basis, 0.0)
        assert err.value.z == 0.0
        assert abs(err.value.nearest) < 1e-8


def test_apply_resolvent_matches_dense(ex1, basis_q4m32):
    rng = np.random.default_rng(0)
    f = rng.standard_normal((9, 33, 1)) + 1j * rng.standard_normal((9, 33, 1))
    z = 1.2 + 0.4j
    direct = _lu_solve(ex1, basis_q4m32, z, f)
    fast = apply_resolvent(ex1, basis_q4m32, z, f)
    assert np.abs(direct - fast).max() < 1e-10 * np.abs(direct).max()


def test_x0_dependent_resolvent_matches_dense(wobble):
    # one value-space block: batched solves, products and the dense inverse
    # against LAPACK on the assembled matrix at each shift
    basis = build_basis(4, 8)
    shifts = np.array([1.2 + 0.4j, 0.7 - 0.2j, 2.0 + 1.5j])
    rng = np.random.default_rng(5)
    shape = (len(shifts), basis.n_time, basis.n_space, 1)
    f = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    solved = apply_resolvent(wobble, basis, shifts, f)
    applied = apply_operator(wobble, basis, shifts, f)
    for z, fk, u, du in zip(shifts, f, solved, applied):
        mat = assemble_operator(wobble, basis, z)
        assert _rel(u, np.linalg.solve(mat, fk.reshape(-1)).reshape(fk.shape)) <= 1e-12
        assert _rel(du, (mat @ fk.reshape(-1)).reshape(fk.shape)) <= 1e-12
        inv = np.linalg.solve(mat, np.eye(len(mat)))
        assert _rel(resolvent_matrix_for(wobble, basis, z), inv) <= 1e-12
    # an empty batch of shifts is an empty batch of solutions
    assert apply_resolvent(wobble, basis, shifts[:0], f[0]).shape == (0,) + f.shape[1:]


def test_x0_dependent_poles(wobble):
    ps = find_poles(wobble, build_basis(4, 8), window=(-2.2, 1.0))
    got = np.array([p.lam for p in ps.poles])
    assert np.abs(got - np.array([0.0, -0.5, -1.0, -1.5, -2.0])).max() < 1e-9
    assert all(p.order == 1 and p.rank == 1 for p in ps.poles)


def _hermitian_a0_spec(seed=3):
    """n=1, N=2 with a non-diagonal constant A^0 > 0, A^1 = x1*H (H > 0) and Hermitian B."""
    rng = np.random.default_rng(seed)

    def hermitian():
        m = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        return (m + m.conj().T) / 2

    a0 = hermitian() + 3.0 * np.eye(2)
    h = hermitian() + 3.0 * np.eye(2)
    assert abs(a0[0, 1]) > 0.1 and np.linalg.eigvalsh(a0).min() > 0
    return OperatorSpec(
        n=1, N=2,
        A=(MatrixPolynomial.constant(a0, 2), MatrixPolynomial(2, (2, 2), {(0, 1): h})),
        B=MatrixPolynomial.constant(hermitian(), 2),
        weights=WeightSequence.geometric(0.024, 16), Q=1.0, name="hermitian A0",
    )


def _reference_resolvent(spec, basis, z, f):
    """Per-shift LU solves of the mode blocks with one refinement step."""
    pencil = mode_operator_parts(spec, basis)
    blocks = pencil.base0 + (z + 1j * basis.modes)[:, None, None] * pencil.a0
    rhs = fourier_coefficients(f, basis).reshape(basis.n_time, -1, 1)
    sol = np.linalg.solve(blocks, rhs)
    sol = sol + np.linalg.solve(blocks, rhs - blocks @ sol)
    return np.fft.ifft(sol.reshape(f.shape), axis=0) * basis.n_time


@pytest.mark.parametrize("name", ["EX1", "EX1S", "CE-FLAT", "hermitian A0"])
def test_batched_resolvent_matches_per_shift_solves(name):
    # a segment right of the rightmost pencil eigenvalue and a loop about it,
    # as decompose uses them
    spec = _hermitian_a0_spec() if name == "hermitian A0" else fixture(name)
    basis = build_basis(4, 32)
    pencil = mode_operator_parts(spec, basis)
    vals = scipy.linalg.eigvals(pencil.base0, -pencil.a0)
    top = vals[np.isfinite(vals)][np.argmax(vals[np.isfinite(vals)].real)]
    others = vals[np.isfinite(vals) & (np.abs(vals - top) > 1e-8)]
    radius = min(0.2, 0.5 * np.min(np.abs(others - top), initial=0.4))
    shifts = np.concatenate([top.real + 0.3 + 1j * np.arange(17) / 17,
                             _loop_nodes(top, radius, 16)[0]])
    rng = np.random.default_rng(0)
    shape = (len(shifts), basis.n_time, basis.n_space, spec.N)
    f = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    batched = apply_resolvent(spec, basis, shifts, f)
    assert batched.shape == shape
    errs = []
    for z, u, fk in zip(shifts, batched, f):
        ref = _reference_resolvent(spec, basis, z, fk)
        errs.append(np.abs(u - ref).max() / np.abs(ref).max())
    assert max(errs) <= 1e-12
    # the refinement step takes the typical shift from about 3e-14 to a few ulps
    assert np.median(errs) <= 5e-15
    # a scalar shift is a batch of one; one grid function serves every shift
    single = apply_resolvent(spec, basis, shifts[3], f[3])
    assert single.shape == shape[1:]
    assert np.abs(single - batched[3]).max() <= 1e-12 * np.abs(single).max()
    shared = apply_resolvent(spec, basis, shifts[:3], f[0])
    assert np.abs(shared[2] - _reference_resolvent(spec, basis, shifts[2], f[0])).max() \
        <= 1e-12 * np.abs(shared[2]).max()


def test_batched_resolvent_names_first_shift_at_a_pole(ex1, basis_q4m32):
    f = np.ones((9, 33, 1), dtype=complex)
    with pytest.raises(NearPoleError) as err:
        apply_resolvent(ex1, basis_q4m32, np.array([0.0]), f[None])
    assert err.value.z == 0.0
    assert abs(err.value.nearest) < 1e-8
    # 0 and -0.5 are both poles: the first in order is named
    with pytest.raises(NearPoleError) as err:
        apply_resolvent(ex1, basis_q4m32, np.array([1.0, 0.0, -0.5]), f)
    assert err.value.z == 0.0


def test_batched_resolvent_rejects_nan_forcing(ex1, basis_q4m32):
    f = np.ones((2, 9, 33, 1), dtype=complex)
    f[1, 4, 7, 0] = np.nan
    with pytest.raises(NearPoleError) as err:
        apply_resolvent(ex1, basis_q4m32, np.array([1.0, 1.5]), f)
    assert err.value.z == 1.5 and np.isnan(err.value.residual)


def _reference_schur_solve(pencil, w, rhs):
    """_schur_solve without its residual check, each row's pivots formed as the
    row is reached and every product complex, on complex copies of the factors."""
    tri, U, left = (x.astype(complex) for x in pencil.schur)
    flat = w.reshape(-1)

    def solve(r):
        y = left @ r
        for k in range(len(tri) - 1, -1, -1):
            y[k] -= tri[k, k + 1:] @ y[k + 1:]
            y[k] /= tri[k, k] + flat
        return U @ y

    u = solve(rhs)
    return u + solve(rhs - pencil.base0 @ u - (pencil.a0 @ u) * flat)


def _block_columns(pencil, shifts, f):
    """(w, rhs, node): the shift per column, the block columns of f, one per (shift,
    block), and each column's shift index, as apply_resolvent hands them to
    _schur_solve."""
    w = shifts[:, None] + 1j * pencil.modes
    f = np.broadcast_to(f, shifts.shape + pencil.grid_shape)
    return (w.ravel(), pencil.columns(f).reshape(w.size, len(pencil.a0)).T,
            np.repeat(np.arange(len(shifts)), len(pencil.modes)))


def test_schur_solve_matches_reference_in_both_arithmetics(ex1s, basis_q16m32,
                                                           poles_ex1s_q16):
    # real factors: decompose's retarded segment for EX1S at q16m32, 33 shifts x 33
    # modes; complex factors, on random data: CE-BDY at q4m32 (a real pencil) and
    # the hermitian-A0 spec (a complex one), on segments right of their pencil
    # eigenvalues.  CE-BDY's blocks are so far from normal that any two rounding
    # orders part by 1e-3 at 0.3 right of them; 20 right they are well conditioned
    pencil = poles_ex1s_q16.pencil
    shifts = segment_abscissa(poles_ex1s_q16) + 1j * np.arange(33) / 33
    f = pencil.grid(forward_transform(make_forcing(basis_q16m32, "default"), shifts, pencil))
    cases = [(pencil, *_block_columns(pencil, shifts, f))]
    rng = np.random.default_rng(1)
    for spec, basis, margin in [(fixture("CE-BDY"), build_basis(4, 32), 20.0),
                                (_hermitian_a0_spec(), build_basis(4, 16), 0.3)]:
        pencil = mode_operator_parts(spec, basis)
        vals = scipy.linalg.eigvals(pencil.base0, -pencil.a0)
        shifts = vals[np.isfinite(vals)].real.max() + margin + 1j * np.arange(17) / 17
        f = rng.standard_normal((17,) + pencil.grid_shape) \
            + 1j * rng.standard_normal((17,) + pencil.grid_shape)
        cases.append((pencil, *_block_columns(pencil, shifts, f)))
    assert [(p.real, p.schur[0].dtype, rhs.shape[1]) for p, _w, rhs, _n in cases] == \
        [(True, float, 1089), (True, complex, 153), (False, complex, 153)]
    for pencil, w, rhs, node in cases:
        ref = _reference_schur_solve(pencil, w, rhs)
        assert _rel(_schur_solve(pencil, w, rhs, node), ref) <= 1e-12


def test_schur_solve_raises_at_a_pole_and_on_nan(ex1, wobble):
    # in both arithmetics: the first shift at a pole is named with its nearest
    # pole, and a NaN right-hand side fails the residual check
    for spec, basis in _at_pole_cases(ex1, wobble):
        pencil = mode_operator_parts(spec, basis)
        f = np.ones((2,) + pencil.grid_shape, dtype=complex)
        with pytest.raises(NearPoleError) as err:
            _schur_solve(pencil, *_block_columns(pencil, np.array([1.0, 0.0]), f))
        assert err.value.z == 0.0 and abs(err.value.nearest) < 1e-8
        f[1, 2, 3, 0] = np.nan
        with pytest.raises(NearPoleError) as err:
            _schur_solve(pencil, *_block_columns(pencil, np.array([1.0, 1.5]), f))
        assert err.value.z == 1.5 and np.isnan(err.value.residual)


def test_schur_solve_checks_far_scaled_right_hand_sides():
    # squared norms overflow past about 1e154 and underflow below about 1e-154: the
    # residual check sums such nodes scaled, so each solves as s times the unit one
    spec, basis = fixture("EX1S"), build_basis(4, 16)
    f = np.ones((basis.n_time, basis.n_space, spec.N), dtype=complex)
    unit = apply_resolvent(spec, basis, 1.05, f)
    for s in (1e200, 1e300, 1e-300):
        u = apply_resolvent(spec, basis, 1.05, s * f)
        assert np.linalg.norm(u / s - unit) <= 1e-12 * np.linalg.norm(unit)


# -- pole location ----------------------------------------------------------------


def test_doubled_basis_built_once_per_resolution(monkeypatch, ex1s):
    # the persistence test's basis comes from a cache keyed by (Q_max, M): a second
    # search builds none, and the pole set is bit-identical
    def fields(ps):
        return ([(p.lam, p.order, p.rank, p.residual) for p in ps.poles], ps.raw_eigenvalues)

    resolvent._doubled_basis.cache_clear()
    basis = build_basis(8, 32)
    first = find_poles(ex1s, basis, window=(-2.2, 1.0))

    def no_basis(*args):
        raise AssertionError("a basis was built")

    monkeypatch.setattr(resolvent, "build_basis", no_basis)
    second = find_poles(ex1s, basis, window=(-2.2, 1.0))
    assert fields(second) == fields(first) and len(first.poles) == 6


def test_micro_instance_poles(ex1, basis_q0m2):
    ps = find_poles(ex1, basis_q0m2, window=(-1.2, 1.0))
    got = np.sort([p.lam.real for p in ps.poles])
    assert np.abs(got - np.array([-1.0, -0.5, 0.0])).max() < 1e-12
    assert all(abs(p.lam.imag) < 1e-12 for p in ps.poles)


def test_ex1_strip_poles(poles_ex1):
    got = np.sort([p.lam.real for p in poles_ex1.poles])[::-1]
    assert np.abs(got - np.array([0.0, -0.5, -1.0, -1.5, -2.0])).max() < 1e-6
    assert all(p.order == 1 and p.rank == 1 for p in poles_ex1.poles)
    assert abs(poles_ex1.z_star_star) < 1e-9
    assert abs(poles_ex1.z_star_star_star + 0.5) < 1e-9
    assert len(poles_ex1.nonneg) == 1


def test_ex1s_strip_poles(poles_ex1s):
    nonneg = sorted(p.lam.real for p in poles_ex1s.nonneg)
    assert np.abs(np.array(nonneg) - np.array([0.25, 0.75])).max() < 1e-9
    assert abs(poles_ex1s.z_star_star - 0.75) < 1e-9
    assert abs(poles_ex1s.z_star_star_star + 0.25) < 1e-9


def test_persistent_eigenvalues_right_of_window_recorded(ex1s):
    # every pencil eigenvalue right of the window that persists under doubling, one
    # at a time; EX1S's 0.25 and 0.75 in all nine modes at q4m16
    basis = build_basis(4, 16)
    fine = _pencil_eigenvalues(mode_operator_parts(ex1s, build_basis(6, 32)))
    for re_max, count in ((0.1, 18), (0.5, 9), (2.2, 0)):
        ps = find_poles(ex1s, basis, window=(-2.2, re_max))
        ref = [z for z in _pencil_eigenpairs(ex1s, basis).eigenvalues.ravel().tolist()
               if z.real > re_max + 1e-5 and np.abs(fine - z).min() <= 1e-6]
        assert len(ps.right_of_window) == count
        assert sorted(ps.right_of_window, key=lambda z: (-z.real, z.imag)) == \
            sorted(ref, key=lambda z: (-z.real, z.imag))
        assert [z.real for z in ps.right_of_window] == sorted(
            (z.real for z in ps.right_of_window), reverse=True)
        if count:
            # the error names each strip pole once: 18 mode copies are 2 poles
            with pytest.raises(PolesRightOfWindowError) as exc:
                ps.check_right_edge()
            assert exc.value.edge == re_max
            assert np.abs(np.array(exc.value.eigenvalues) - (0.75, 0.25)[:count // 9]).max() < 1e-9
            assert str(exc.value).startswith(f"{count // 9} strip poles lie right")
        else:
            ps.check_right_edge()
    # the benchmark's green window has none at q16m32
    assert find_poles(ex1s, build_basis(16, 32)).right_of_window == ()


@pytest.mark.parametrize("name, q_max, m", [
    ("EX1", 4, 32), ("EX1S", 16, 32), ("CE-BDY", 4, 16), ("CE-FLAT", 4, 16),
    ("wobble", 4, 8), ("hermitian A0", 4, 16), ("EX1 x Jordan", 2, 16),
])
def test_energy_threshold_edge_keeps_the_pole_set(name, q_max, m, request):
    # right of z* D_z has no pole: a window ending there keeps every pole, order and
    # rank of the window ending at 2.2, and leaves no persistent eigenvalue right of it
    spec, basis = _named_spec(name, request), build_basis(q_max, m)
    z_star = energy_threshold(spec)
    assert z_star < 2.2
    edge = find_poles(spec, basis, window=(-2.2, z_star))
    wide = find_poles(spec, basis, window=(-2.2, 2.2))
    assert [(p.lam, p.order, p.rank) for p in edge.poles] == \
        [(p.lam, p.order, p.rank) for p in wide.poles]
    assert edge.right_of_window == () and edge.edge_flag == wide.edge_flag


def test_pole_lattice_before_reduction(poles_ex1, basis_q4m32):
    # every filtered eigenvalue strictly inside the band has its +i translate
    raw = np.array(poles_ex1.raw_eigenvalues)
    interior = raw[np.abs(raw.imag) <= basis_q4m32.Q_max - 2]
    for z in interior:
        assert np.abs(raw - (z + 1j)).min() < 1e-6


def test_no_eigenvalues_off_the_half_lattice(poles_ex1):
    lattice = np.array([
        -1j * q - 0.5 * p for q in range(-5, 6) for p in range(0, 8)
    ])
    for z in poles_ex1.raw_eigenvalues:
        assert np.abs(lattice - z).min() < 1e-4


@pytest.mark.parametrize("name, q_max, m", [("EX1", 8, 16), ("EX1S", 4, 16)])
def test_real_poles_reduce_to_zero_imaginary_part(name, q_max, m):
    # sources at Im = -1e-15 must not wrap to Im = 1 - 1e-15 in the strip
    ps = find_poles(fixture(name), build_basis(q_max, m), window=(-2.2, 1.0),
                    compute_projections=False)
    assert ps.poles and all(p.lam.imag == 0.0 for p in ps.poles)


def _reference_tail_clean(v, basis, N):
    """The per-eigenvector Chebyshev tail test, as find_poles once ran it per pair."""
    nx = basis.n_space
    if nx < 8:
        return True
    vals = v.reshape(-1, nx, N) if v.size != nx * N else v.reshape(1, nx, N)
    coeff = chebyshev_coefficients(np.moveaxis(vals, 1, 0).reshape(nx, -1))
    mags = np.abs(coeff)
    cut = nx - nx // 4
    return float(mags[cut:].max()) <= 1e-8 * float(mags.max() + 1e-300)


def _eig(pencil, real, right=True):
    """scipy.linalg.eig of (base0, -a0): in real arithmetic (dggev) when `real` and
    the pencil has no imaginary part, in complex arithmetic (zggev) otherwise."""
    base0, a0 = pencil.base0, pencil.a0
    if real and pencil.real:
        base0, a0 = base0.real, a0.real
    return scipy.linalg.eig(base0, -a0, right=right)


def _reference_find_poles(spec, basis, window, *, real_working, real_fine):
    """find_poles with its filter run one (mode, eigenpair) at a time and each
    residual from its own product; the working and doubled pencils are solved in
    real arithmetic, when they have no imaginary part, as `real_working` and
    `real_fine` say: (raw eigenvalues, poles as (lam, order, rank, residual, radius,
    source), edge flag, right of window)."""
    re_min, re_max = window
    pad = 10 * PERSIST_TOL
    fine = mode_operator_parts(spec, build_basis(basis.Q_max + 2, 2 * basis.M))
    fine_vals = _eig(fine, real_fine, right=False)
    fine_vals = np.array([complex(z.real, z.imag - q) for q in fine.modes.tolist()
                          for z in fine_vals[np.isfinite(fine_vals)]])
    pencil = mode_operator_parts(spec, basis)
    vals, vecs = _eig(pencil, real_working)
    base0, a0 = pencil.base0, pencil.a0
    solved = []
    for idx in np.flatnonzero(np.isfinite(vals)):
        z, v = vals[idx], vecs[:, idx]
        res = np.linalg.norm((base0 + z * a0) @ v) / max(np.linalg.norm(v), 1e-300)
        solved.append((complex(z), v, float(res)))
    pairs = [(complex(z.real, z.imag - q), v, q, res)
             for q in pencil.modes.tolist() for z, v, res in solved]

    kept, edge_flag = [], False
    for z, v, q, res in pairs:
        if not (re_min - pad <= z.real <= re_max + pad):
            continue
        if fine_vals.size == 0 or np.abs(fine_vals - z).min() > PERSIST_TOL:
            continue
        if not _reference_tail_clean(v, basis, spec.N):
            continue
        if basis.Q_max > 0 and abs(q) == basis.Q_max:
            edge_flag = True
            continue
        kept.append((z, res))
    kept.sort(key=lambda t: (-t[0].real, t[0].imag))

    clusters = []
    for z, res in kept:
        lam = complex(z.real, z.imag - math.floor(z.imag))
        for cl in clusters:
            if _strip_distance(cl[0][0], lam) <= CLUSTER_TOL:
                cl.append((z, res))
                break
        else:
            clusters.append([(z, res)])
    reps = []
    for cl in clusters:
        src, _res = min(cl, key=lambda t: abs(t[0].imag))
        lam = complex(src.real, src.imag - math.floor(src.imag))
        if min(lam.imag, 1.0 - lam.imag) < 1e-12:
            lam = complex(lam.real, 0.0)
        reps.append((lam, src, min(r for _z, r in cl)))
    eigenvalues = np.array([z for z, _v, _q, _r in pairs])
    poles = []
    for lam, src, res in reps:
        radius = _loop_radius(lam, src, [o for o, _s, _r in reps if o != lam], eigenvalues)
        order, rank = _projection_family(pencil, src, radius)
        poles.append((lam, order, rank, res, radius, src))
    poles.sort(key=lambda p: (-p[0].real, p[0].imag))

    right = eigenvalues[eigenvalues.real > re_max + pad]
    right = right[np.abs(right[:, None] - fine_vals).min(axis=1, initial=np.inf) <= PERSIST_TOL]
    right = right[np.argsort(-right.real, kind="stable")]
    return [z for z, _r in kept], poles, edge_flag, right.tolist()


# a residual is roundoff, and the batched and per-pair products differ in its last
# bits: by at most 3.4e-14 on the cases below, 1.1e-13 on EX1 q4m64
RESIDUAL_ATOL = 1e-12


def _assert_matches_reference(spec, basis, window):
    """find_poles against the per-pair reference with the working pencil in the same
    arithmetic and the doubled pencil in complex arithmetic: bit for bit (so a zero
    keeps its sign) but for the residuals, which agree to roundoff."""
    ps = find_poles(spec, basis, window=window)
    raw, poles, edge_flag, right = _reference_find_poles(spec, basis, window,
                                                         real_working=True, real_fine=False)

    def bits(values):
        return np.array(values, dtype=complex).tobytes()

    assert bits(ps.raw_eigenvalues) == bits(raw)
    assert bits([(p.lam, p.order, p.rank, p.radius, p.source) for p in ps.poles]) == \
        bits([(lam, order, rank, radius, src) for lam, order, rank, _r, radius, src in poles])
    assert np.allclose([p.residual for p in ps.poles], [p[3] for p in poles],
                       rtol=0, atol=RESIDUAL_ATOL)
    assert ps.edge_flag == edge_flag
    assert bits(ps.right_of_window) == bits(right)
    return ps


POLE_CASES = [
    ("EX1", 4, 32, (-2.2, 1.0)), ("EX1", 4, 32, (-3.2, 0.5)), ("EX1S", 4, 16, (-2.2, 1.0)),
    ("EX1S", 4, 16, (-2.2, 0.1)), ("EX1S", 16, 32, (-2.2, 2.2)), ("CE-BDY", 4, 32, (-2.2, 1.0)),
    ("CE-FLAT", 4, 32, (-2.2, 1.0)), ("EX1 x Jordan", 2, 16, (-2.2, 1.0)),
    ("hermitian A0", 4, 16, (-2.2, 1.0)), ("wobble", 4, 8, (-2.2, 1.0)),
]


@pytest.mark.parametrize("name, q_max, m, window", POLE_CASES)
def test_find_poles_matches_per_pair_filter(name, q_max, m, window, request):
    # the batched filter, the batched residuals and the real-arithmetic doubled
    # pencil change nothing find_poles returns; EX1S at re_max 0.1 has 18
    # eigenvalues right of the window
    _assert_matches_reference(_named_spec(name, request), build_basis(q_max, m), window)


def _shifted_ex1_cases():
    """The benchmark's spectrum inputs: EX1 + s at q8m32 in (-s - 2.25, -s + 0.25)."""
    for seed in range(1, 11):
        s = float(np.random.default_rng([seed, 1]).uniform(-0.9, -0.6))
        yield fixture("EX1").shifted(s), build_basis(8, 32), (-s - 2.25, -s + 0.25)


def test_find_poles_matches_per_pair_filter_on_shifted_ex1():
    for spec, basis, window in _shifted_ex1_cases():
        assert len(_assert_matches_reference(spec, basis, window).poles) == 5


def _assert_matches_complex_solve(spec, basis, window):
    """find_poles against the reference with the working pencil solved in complex
    arithmetic (zggev) and the doubled pencil as find_poles solves it: the same
    pole count, orders, ranks, edge flag and persistent eigenvalues right of the
    window, each position within 1e-8."""
    ps = find_poles(spec, basis, window=window)
    _raw, poles, edge_flag, right = _reference_find_poles(spec, basis, window,
                                                          real_working=False, real_fine=True)
    assert [(p.order, p.rank) for p in ps.poles] == [(p[1], p[2]) for p in poles]
    assert all(_strip_distance(p.lam, ref[0]) <= 1e-8 for p, ref in zip(ps.poles, poles))
    assert ps.edge_flag == edge_flag
    assert len(ps.right_of_window) == len(right)
    if right:
        gaps = np.abs(np.array(ps.right_of_window)[:, None] - np.array(right))
        assert gaps.min(axis=1).max() <= 1e-8 and gaps.min(axis=0).max() <= 1e-8
    return ps


@pytest.mark.parametrize("name, q_max, m, window", POLE_CASES + [
    ("EX1", 4, 32, (-4.2, 1.0)), ("EX1", 4, 64, (-3.2, 1.0)), ("EX1S", 4, 64, (-2.2, 1.0)),
    ("EX1 x Jordan", 4, 32, (-2.2, 1.0)),
])
def test_find_poles_matches_complex_working_solve(name, q_max, m, window, request):
    # the working pencil in real arithmetic moves poles by roundoff only
    _assert_matches_complex_solve(_named_spec(name, request), build_basis(q_max, m), window)


def test_find_poles_matches_complex_working_solve_on_shifted_ex1():
    for spec, basis, window in _shifted_ex1_cases():
        assert len(_assert_matches_complex_solve(spec, basis, window).poles) == 5


def test_persistence_lifts_mode0_matches_to_the_fine_band():
    # block q of -0.2 persists only through fine block q + 3 (fine eigenvalue
    # -0.2 + 3i), which exists for q = -1, 0 of the coarse band -1..1 but not for
    # q = 1 (the fine band is -3..3); 0.5 - 0.25i persists at offset 0 in every block
    fine = ModePencil(np.diag([-0.2 + 3j, 0.5 - 0.25j]), -np.eye(2, dtype=complex),
                      np.fft.fftfreq(7, d=1.0 / 7).astype(int), (7, 2, 1))
    modes = np.array([0, 1, -1])
    vals = np.array([-0.2, 0.5 - 0.25j + 1e-7, 0.9])
    got = _persistent(vals, modes, fine)
    blocks = vals[None, :] - 1j * modes[:, None]
    ref = np.abs(blocks[..., None] - _pencil_eigenvalues(fine)).min(axis=-1) <= PERSIST_TOL
    assert np.array_equal(got, ref)
    assert got.tolist() == [[True, True, False], [False, True, False], [True, True, False]]


@pytest.mark.parametrize("q_max, m", [(4, 8), (4, 16), (6, 16)])
def test_pole_at_zero_counts_as_nonnegative(wobble, q_max, m):
    # the wobble's pole at 0 comes out a few ulps negative (-3.9e-15 at q4m8); it still
    # enters the finite-rank part, and z*** is the next pole, -0.5
    ps = find_poles(wobble, build_basis(q_max, m), window=(-2.2, 1.0))
    zero = min(ps.poles, key=lambda p: abs(p.lam))
    assert abs(zero.lam) < 1e-12
    assert ps.nonneg == (zero,)
    assert abs(ps.z_star_star_star + 0.5) < 1e-8


def _dense_mode_blocks(spec, basis):
    """Diagonal blocks of the dense collocation matrix at z = 0 in the Fourier basis."""
    n = basis.n_space * spec.N
    V = np.kron(np.exp(1j * np.outer(basis.x0, basis.modes)), np.eye(n))
    modal = V.conj().T @ assemble_operator(spec, basis, 0.0) @ V / basis.n_time
    return [modal[j * n:(j + 1) * n, j * n:(j + 1) * n] for j in range(basis.n_time)]


def test_pencil_mode_shift_matches_per_mode_eigensolves(ex1s):
    # one mode-0 eigensolve shifted by -i*q reproduces each mode's own pencil
    basis = build_basis(2, 16)
    a0 = mode_operator_parts(ex1s, basis).a0
    pairs = _pencil_eigenpairs(ex1s, basis)
    # one (mode, eigenvalue) pair per entry, block by block in FFT order
    assert len(pairs) == pairs.eigenvalues.size == basis.n_time * len(pairs.vals)
    for got, block in zip(pairs.eigenvalues, _dense_mode_blocks(ex1s, basis)):
        ref = scipy.linalg.eigvals(block, -a0)
        assert got.size == ref.size
        for z in ref[np.abs(ref.real) <= 2.5]:
            assert np.abs(got - z).min() < 1e-8


def test_grid_engine_rejects_multidimensional_specs():
    ex2 = fixture("EX2")
    basis = build_basis(1, 4)
    f = np.ones((basis.n_time, basis.n_space, ex2.N), dtype=complex)
    with pytest.raises(SpecError, match="n=1 only"):
        apply_resolvent(ex2, basis, 1.0, f)
    with pytest.raises(SpecError, match="n=1 only"):
        find_poles(ex2, basis, compute_projections=False)


def test_window_rank_accounting(poles_ex1):
    # summed projection ranks match the strip eigenvalue count in the window
    raw = np.array(poles_ex1.raw_eigenvalues)
    in_strip = raw[(raw.imag >= -1e-9) & (raw.imag < 1.0 - 1e-9)]
    in_window = in_strip[(in_strip.real >= -2.2) & (in_strip.real <= 1.0)]
    assert sum(p.rank for p in poles_ex1.poles) == len(in_window)


# -- projections -------------------------------------------------------------------
#
# The algebra comparisons run at M=24: resolvent samples on loops deep in the
# left half plane lose digits as M grows (non-normal conditioning), while the
# windowed poles only need degree <= 4.


@pytest.fixture(scope="module")
def algebra_setup(ex1):
    basis = build_basis(4, 24)
    return basis, find_poles(ex1, basis, window=(-2.2, 1.0))


def test_projection_rank_and_image(ex1, basis_q4m32, poles_ex1):
    proj = spectral_projection(ex1, basis_q4m32, 0.0, 0, pole_set=poles_ex1)
    pa = proj.matrix @ multiplier_matrix(ex1, basis_q4m32)
    u, s, _ = np.linalg.svd(pa)
    assert s[1] < 1e-8 * s[0]
    lead = u[:, 0]
    assert np.abs(lead - lead.mean()).max() < 1e-8  # constants span the image


def test_projection_vanishes_at_order(ex1, basis_q4m32, poles_ex1):
    p0 = spectral_projection(ex1, basis_q4m32, 0.0, 0, pole_set=poles_ex1)
    p1 = spectral_projection(ex1, basis_q4m32, 0.0, 1, pole_set=poles_ex1)
    assert np.linalg.norm(p1.matrix) < 1e-9 * np.linalg.norm(p0.matrix)


def test_projection_idempotency(ex1, algebra_setup):
    basis, ps = algebra_setup
    for pole in ps.poles:
        proj = spectral_projection(ex1, basis, pole.source, 0,
                                   pole_set=ps, n_nodes=64)
        pa = proj.matrix @ multiplier_matrix(ex1, basis)
        assert np.linalg.norm(pa @ pa - pa) < 1e-8 * max(np.linalg.norm(pa), 1.0)


def test_projection_algebra(ex1, algebra_setup):
    # P_k A0 P_l = P_{k+l} for k + l <= 3 at every strip pole
    basis, ps = algebra_setup
    a0 = multiplier_matrix(ex1, basis)
    for pole in ps.poles:
        projs = [
            spectral_projection(ex1, basis, pole.source, ell,
                                pole_set=ps, n_nodes=64).matrix
            for ell in range(4)
        ]
        scale = np.linalg.norm(projs[0])
        for k in range(3):
            for ell in range(3 - k + 1):
                lhs = projs[k] @ a0 @ projs[ell]
                assert np.linalg.norm(lhs - projs[k + ell]) < 1e-8 * scale


def test_projection_node_doubling(ex1, basis_q4m32, poles_ex1):
    p32 = spectral_projection(ex1, basis_q4m32, 0.0, 0, pole_set=poles_ex1, n_nodes=32)
    p64 = spectral_projection(ex1, basis_q4m32, 0.0, 0, pole_set=poles_ex1, n_nodes=64)
    assert np.abs(p32.matrix - p64.matrix).max() < 1e-9


def _dense_projections(spec, basis, pole, pole_set):
    """The dense value-space loop projections P_0, P_1, ... on 64 nodes, up to the
    first with ||P_l|| <= ORDER_TOL ||P_0|| (or P_9)."""
    def proj(ell):
        return spectral_projection(spec, basis, pole.source, ell, pole_set=pole_set,
                                   n_nodes=64).matrix

    projs = [proj(0)]
    while len(projs) < 10 and (len(projs) == 1 or np.linalg.norm(projs[-1])
                                 > ORDER_TOL * np.linalg.norm(projs[0])):
        projs.append(proj(len(projs)))
    return projs


def _dense_order_and_rank(spec, basis, pole, pole_set, projs=None):
    """Order and rank from the dense loop projections: the order is the index of the
    last one, the rank counts the singular values of P_0 A^0 above 1e-8 of the largest."""
    projs = projs or _dense_projections(spec, basis, pole, pole_set)
    sv = np.linalg.svd(projs[0] @ multiplier_matrix(spec, basis), compute_uv=False)
    return len(projs) - 1, int(np.sum(sv > 1e-8 * sv[0]))


def _jordan_spec():
    """EX1 tensored with a constant 2x2 Jordan block in B: every pole has order 2, rank 2."""
    eye = np.eye(2)
    return OperatorSpec(
        n=1, N=2,
        A=(MatrixPolynomial.constant(eye, 2), MatrixPolynomial(2, (2, 2), {(0, 1): 0.5 * eye})),
        B=MatrixPolynomial.constant([[0.0, 1.0], [0.0, 0.0]], 2),
        weights=WeightSequence.geometric(0.024, 16), Q=1.0, name="EX1 x Jordan",
    )


def _named_spec(name, request):
    return {"EX1 x Jordan": _jordan_spec, "hermitian A0": _hermitian_a0_spec,
            "hermitian A0 - 1": lambda: _hermitian_a0_spec().shifted(-1.0),
            "wobble": lambda: request.getfixturevalue("wobble")}.get(
        name, lambda: fixture(name))()


def _block_projection(pencil, center, blocks, j):
    """P_j of loop_projections' block factors as a dense value-space matrix."""
    size = int(np.prod(pencil.grid_shape))
    cols = pencil.columns(np.eye(size, dtype=complex).reshape((size,) + pencil.grid_shape))
    out = np.zeros_like(cols)
    for b, vecs, lead, coords in blocks:
        nil = -lead - (center + 1j * pencil.modes[b]) * np.eye(len(lead))
        out[:, b] = cols[:, b] @ (vecs @ np.linalg.matrix_power(nil, j) @ coords).T
    return pencil.grid(out).reshape(size, size).T


@pytest.mark.parametrize("name, q_max, m", [
    ("EX1", 4, 24), ("EX1S", 4, 16), ("EX1 x Jordan", 2, 16), ("hermitian A0 - 1", 4, 16),
    ("wobble", 4, 8),
])
def test_loop_projections_match_dense_loop_integrals(name, q_max, m, request):
    # exact P_j from the Schur form against the dense 64-node loop integrals, at
    # the poles with Re > -0.1; the shifted hermitian-A0 spec has two there whose
    # loop radius (0.0075) is set by each other
    spec = _named_spec(name, request)
    basis = build_basis(q_max, m)
    ps = find_poles(spec, basis, window=(-2.2, 2.2))
    pencil = mode_operator_parts(spec, basis)
    poles = [p for p in ps.poles if p.lam.real > -0.1]
    assert poles
    for pole in poles:
        blocks = loop_projections(pencil, pole.source, pole.radius)
        dense = _dense_projections(spec, basis, pole, ps)
        assert sum(len(lead) for _b, _v, lead, _c in blocks) == pole.rank
        assert (pole.order, pole.rank) == _dense_order_and_rank(spec, basis, pole, ps, dense)
        for j, mat in enumerate(dense):
            err = np.abs(_block_projection(pencil, pole.source, blocks, j) - mat).max()
            assert err <= 1e-9 * np.abs(dense[0]).max(), (pole.lam, j, err)


@pytest.mark.parametrize("name, q_max, m", [
    ("EX1", 4, 24), ("EX1S", 4, 16), ("EX1 x Jordan", 2, 16), ("hermitian A0", 4, 16),
    ("wobble", 4, 8),
])
def test_order_and_rank_match_dense_projections(name, q_max, m, request):
    spec = _named_spec(name, request)
    basis = build_basis(q_max, m)
    ps = find_poles(spec, basis, window=(-2.2, 1.0))
    assert ps.poles
    for pole in ps.poles:
        assert (pole.order, pole.rank) == _dense_order_and_rank(spec, basis, pole, ps)
    if name == "EX1 x Jordan":
        assert all((p.order, p.rank) == (2, 2) for p in ps.poles)


def test_apply_resolvent_at_pole_reports_nearest(ex1, wobble):
    # the Schur solve estimates the pole from its own pivots
    for spec, basis in _at_pole_cases(ex1, wobble):
        with pytest.raises(NearPoleError) as err:
            apply_resolvent(spec, basis, 0.0,
                            np.ones((basis.n_time, basis.n_space, 1), dtype=complex))
        assert err.value.z == 0.0
        assert abs(err.value.nearest) < 1e-8


def test_near_pole_error_reports_distance():
    # CE-BDY is ill-conditioned far from its poles: both solvers fail their residual
    # checks at a shift 1.3 from the nearest pencil eigenvalue, and say so
    spec, basis = fixture("CE-BDY"), build_basis(4, 32)
    z = 1.3 - 0.78j
    f = np.random.default_rng(0).standard_normal((basis.n_time, basis.n_space, 1)) + 0j
    for solve in (lambda: apply_resolvent(spec, basis, z, f),
                  lambda: resolvent_matrix_for(spec, basis, z)):
        with pytest.raises(NearPoleError, match="failed its residual check") as err:
            solve()
        e = err.value
        assert e.residual > 1e-10
        assert e.distance == abs(z - e.nearest) and 1.2 < e.distance < 1.5
        assert f"at distance {e.distance:.3g}" in str(e) and f"{e.residual:.3g}" in str(e)


@pytest.mark.parametrize("name, q_max, m, real", [
    ("EX1", 4, 32, True), ("EX1S", 4, 16, True), ("EX1 x Jordan", 2, 16, True),
    ("CE-BDY", 4, 32, True), ("hermitian A0", 4, 16, False), ("wobble", 4, 8, False),
])
def test_schur_form_reconstructs_T(name, q_max, m, real, request):
    # the real Schur form split into a complex one (real pencils) and the complex
    # Schur form (complex pencils) both give T = a0^-1 base0 = U S U^H; the factors
    # are float64 exactly when the split leaves no imaginary part (EX1, EX1S), and
    # complex when T has a 2 x 2 block (EX1 x Jordan, CE-BDY) or the pencil is complex
    pencil = mode_operator_parts(_named_spec(name, request), build_basis(q_max, m))
    assert pencil.real == real
    tri, U, left = pencil.schur
    T = np.linalg.solve(pencil.a0, pencil.base0)
    factors = float if name in ("EX1", "EX1S") else complex
    assert tri.dtype == U.dtype == left.dtype == factors
    if factors is complex:
        assert tri.imag.any() and U.imag.any() and left.imag.any()
    assert not np.tril(tri, -1).any()
    assert np.linalg.norm(U.conj().T @ U - np.eye(len(U))) <= 1e-14 * len(U)
    assert np.linalg.norm(U @ tri @ U.conj().T - T) <= 1e-13 * np.linalg.norm(T)
    assert np.allclose(left, U.conj().T @ np.linalg.inv(pencil.a0), rtol=0, atol=1e-13)


def _sorted_schur_family(pencil, center, radius):
    """Order and rank from a fresh schur(T, sort=inside) per block with eigenvalues
    inside the loop."""
    T = np.linalg.solve(pencil.a0, pencil.base0)
    vals = np.linalg.eigvals(T)
    order, rank = 1, 0
    for q in pencil.modes.tolist():
        def inside(t):
            return abs(-t - 1j * q - center) < radius

        if not np.any(inside(vals)):
            continue
        tri, _U, k = scipy.linalg.schur(T, output="complex", sort=inside)
        lead = tri[:k, :k]
        nil = lead - np.trace(lead) / k * np.eye(k)
        ell, power = 1, nil
        while ell <= 8 and np.linalg.norm(power) > ORDER_TOL * radius ** ell:
            ell, power = ell + 1, power @ nil
        order, rank = max(order, ell), rank + k
    return order, rank


@pytest.mark.parametrize("name, q_max, m", [
    ("EX1", 4, 32), ("EX1S", 16, 32), ("EX1 x Jordan", 2, 16), ("EX1 x Jordan", 4, 32),
    ("hermitian A0", 4, 16), ("wobble", 4, 8), ("shifted EX1", 8, 32),
])
def test_projection_family_matches_sorted_schur(name, q_max, m, request):
    # find_poles calls a loop about one QZ eigenvalue order 1, rank 1 without the
    # Schur form, and reorders the pencil's one Schur form per pole for a loop
    # about several (EX1 x Jordan's defective poles): both give what a sorted
    # Schur form per pole gives
    if name == "shifted EX1":
        spec, basis, window = next(_shifted_ex1_cases())
    else:
        spec, basis, window = _named_spec(name, request), build_basis(q_max, m), (-2.2, 1.0)
    ps = find_poles(spec, basis, window=window)
    assert ps.poles
    for pole in ps.poles:
        ref = _sorted_schur_family(ps.pencil, pole.source, pole.radius)
        assert _projection_family(ps.pencil, pole.source, pole.radius) == ref
        assert (pole.order, pole.rank) == ref
    simple = name != "EX1 x Jordan"
    assert all((p.order, p.rank) == ((1, 1) if simple else (2, 2)) for p in ps.poles)


_near_offset = st.floats(-1.5 * CLUSTER_TOL, 1.5 * CLUSTER_TOL)


@st.composite
def _strip_point_sets(draw):
    """Up to four heads, at Im near 0, 1/2 or 1 or anywhere, each with near
    duplicates within about CLUSTER_TOL, some of them a few periods away."""
    points = []
    for _ in range(draw(st.integers(1, 4))):
        re = draw(st.floats(-2.5, 1.0))
        im = draw(st.sampled_from([0.0, 0.5, 1.0]) | st.floats(-2.0, 2.0))
        for _ in range(draw(st.integers(1, 3))):
            points.append(complex(re + draw(_near_offset),
                                  im + draw(_near_offset) + draw(st.integers(-2, 2))))
    return draw(st.permutations(points))


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(_strip_point_sets())
def test_strip_clusters_match_greedy_reference(points):
    # one pairwise distance matrix, heads claiming their later unowned
    # neighbours: the clusters of the one-point-at-a-time rule
    assert _strip_clusters(points) == greedy_strip_clusters(points)


def _complex_eigenvalues(pencil):
    """Every finite block eigenvalue, mode-major, from the complex solve of
    (base0, -a0) with eigenvectors (zggev)."""
    vals = _eig(pencil, real=False)[0]
    return (vals[np.isfinite(vals)][None, :] - 1j * pencil.modes[:, None]).ravel()


@pytest.mark.parametrize("name, q_max, m", [
    ("EX1", 6, 64), ("EX1S", 6, 32), ("EX1 x Jordan", 4, 32), ("hermitian A0", 6, 32),
    ("wobble", 6, 16),
])
def test_persistence_eigenvalues_match_eigenpairs(name, q_max, m, request):
    # the eigenvalue-only solve of the doubled pencil against the complex solve
    # with eigenvectors.  A complex pencil (hermitian A0; the wobble's value-space
    # block carries roundoff imaginary parts) is solved the same way: bit-identical.
    # A real one is solved in real arithmetic: a spectrum closed under conjugation,
    # and within PERSIST_TOL / 10 of the complex solve on every eigenvalue with
    # Re >= -2.25 that persists from half the resolution.  Measured: 1.4e-9 (EX1),
    # 7.4e-9 (EX1S), 3.7e-11 (EX1 x Jordan); conjugates within 3.4e-16 relative.
    spec = _named_spec(name, request)
    basis = build_basis(q_max, m)
    pencil = mode_operator_parts(spec, basis)
    got = _pencil_eigenvalues(pencil)
    ref = _complex_eigenvalues(pencil)
    assert got.size == ref.size > 0
    assert pencil.real == (name in ("EX1", "EX1S", "EX1 x Jordan"))
    if not pencil.real:
        assert np.array_equal(got, ref)
        return
    # mode pencils: block 0 is mode 0, the rest are its shifts
    got, ref = got[:got.size // basis.n_time], ref[:ref.size // basis.n_time]
    conj_gap = np.abs(got[:, None] - got.conj()).min(axis=1)
    assert np.all(conj_gap <= 1e-15 * np.maximum(np.abs(got), 1.0))
    coarse = _complex_eigenvalues(mode_operator_parts(spec, build_basis(q_max - 2, m // 2)))
    gaps = np.abs(ref[:, None] - coarse).min(axis=1)
    persisting = ref[(gaps <= PERSIST_TOL) & (ref.real >= -2.25)]
    assert persisting.size >= 5
    assert np.abs(persisting[:, None] - got).min(axis=1).max() <= PERSIST_TOL / 10


def test_loop_radii_clear_filtered_eigenvalues():
    # every loop keeps at least its radius between itself and every pencil
    # eigenvalue outside its pole, kept by the filter or not
    spec, basis = _hermitian_a0_spec(), build_basis(4, 16)
    ps = find_poles(spec, basis, window=(-2.2, 1.0))
    every = _pencil_eigenpairs(spec, basis).eigenvalues.ravel()
    for pole in ps.poles:
        gaps = np.abs(every - pole.source)
        assert pole.radius <= 0.2 and 2 * pole.radius <= gaps[gaps > 1e-5].min()
    # the pole near -2.07 has a filtered eigenvalue 0.2049 away
    far = min(ps.poles, key=lambda p: p.lam.real)
    assert abs(far.lam + 2.072) < 1e-3 and abs(far.radius - 0.2049 / 2) < 1e-3


def test_contour_separation_guard(ex1, basis_q4m32, poles_ex1):
    from cylspec.operator_model import SpecError

    with pytest.raises(SpecError, match="too close"):
        spectral_projection(ex1, basis_q4m32, 0.0, 0, pole_set=poles_ex1, radius=0.45)


# -- identities and bounds -----------------------------------------------------------


def test_first_resolvent_identity_and_conjugation(ex1, basis_q4m32):
    rep = verify_resolvent_identities(ex1, basis_q4m32, 1.0, 2.0)
    assert rep["resolvent_identity_error"] < 1e-10
    assert rep["conjugation_error"] < 1e-10
    rep = verify_resolvent_identities(ex1, basis_q4m32, 1.0, 1.0 + 1j)
    assert rep["resolvent_identity_error"] < 1e-10
    assert rep["conjugation_error"] < 1e-10


def test_identity_at_equal_points(ex1, basis_q4m32):
    rw = resolvent_matrix_for(ex1, basis_q4m32, 1.4)
    a0 = multiplier_matrix(ex1, basis_q4m32)
    lhs = rw - rw + 0.0 * (rw @ a0 @ rw)
    assert np.linalg.norm(lhs) == 0.0


def test_triple_norm_bound_on_random_data(ex1, basis_q4m32):
    report = triple_norm_bound_check(ex1, basis_q4m32, samples=100, seed=0)
    assert report["passed"]
    assert report["worst_ratio"] <= 1.0


def test_triple_norm_bound_trivial_cases(ex1, basis_q4m32):
    from cylspec.norms import triple_norm

    sc = stability_constants(ex1)
    z = sc.z_star + 0.1
    one = np.ones((9, 33, 1), dtype=complex)
    du = (assemble_operator(ex1, basis_q4m32, z) @ one.reshape(-1)).reshape(one.shape)
    lhs = triple_norm(one, 0, ex1, basis_q4m32).value
    rhs = triple_norm(du, 1, ex1, basis_q4m32).value
    const = 2.0 * (6.0 + 1.0 / sc.R + 2.0 * ex1.weights.r(1))
    assert lhs <= const * rhs      # ratio well below one for the constant
    assert lhs / (const * rhs) < 0.2


def test_bound_check_rejects_oversized_weights(ex1, basis_q4m32):
    import dataclasses

    from cylspec.operator_model import SpecError, WeightSequence

    fat = dataclasses.replace(ex1, weights=WeightSequence.geometric(0.5, 16))
    with pytest.raises(SpecError, match="smallness"):
        triple_norm_bound_check(fat, basis_q4m32, samples=1)
