import numpy as np
import pytest

from cylspec.polynomial import MatrixPolynomial
from reference import monomial_eval_points


def affine_scalar(const, slope, var=1, n_vars=2):
    alpha = tuple(1 if i == var else 0 for i in range(n_vars))
    return MatrixPolynomial(n_vars, (1, 1), {
        (0,) * n_vars: [[const]], alpha: [[slope]],
    })


def test_evaluation_is_exact():
    p = affine_scalar(1.0, 0.5)
    assert p((0.0, 0.5))[0, 0] == 1.25
    assert p((np.pi, -1.0))[0, 0] == 0.5


def test_derivative_and_product():
    x = MatrixPolynomial.coordinate(1, 2)
    assert (x @ x).derivative(1)((0.0, 3.0))[0, 0] == 6.0
    assert x.derivative(1)((0.0, 0.7))[0, 0] == 1.0
    assert x.derivative(0).is_zero


def test_adjoint_and_hermiticity():
    m = MatrixPolynomial(2, (2, 2), {(0, 1): [[0.0, 1j], [-1j, 0.0]]})
    assert m.is_hermitian()
    skew = MatrixPolynomial(2, (2, 2), {(0, 0): [[0.0, 1.0], [0.0, 0.0]]})
    assert not skew.is_hermitian()
    assert np.allclose(skew.adjoint()((0.0, 0.0)), [[0.0, 0.0], [1.0, 0.0]])


def test_grid_evaluation_matches_pointwise():
    p = affine_scalar(2.0, -0.25)
    t = np.array([0.0, 1.0])
    x = np.array([-1.0, 0.0, 1.0])
    grid = p.eval_grid(t, x)
    for i, ti in enumerate(t):
        for j, xj in enumerate(x):
            assert grid[i, j, 0, 0] == p((ti, xj))[0, 0]
    # higher powers too, bit for bit, in the batched and the gridded evaluator
    rng = np.random.default_rng(3)
    q = MatrixPolynomial(2, (2, 2), {
        alpha: rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        for alpha in ((0, 0), (1, 0), (0, 2), (2, 3), (0, 5))
    })
    t, x = rng.uniform(0.0, 2 * np.pi, 7), rng.uniform(-1.0, 1.0, 9)
    pts = np.stack(np.meshgrid(t, x, indexing="ij"), axis=-1).reshape(-1, 2)
    pointwise = np.array([q(pt) for pt in pts])
    assert np.array_equal(q.eval_points(pts), pointwise)
    assert np.array_equal(q.eval_grid(t, x).reshape(-1, 2, 2), pointwise)


def _signed_zero_polynomial(size, rng):
    """A (size, size) polynomial in 3 variables whose coefficient entries have zero
    real or imaginary parts, either sign of zero, or both parts zero."""
    nz = -0.0
    kinds = [lambda v, w: complex(v, w), lambda v, w: complex(v, 0.0),
             lambda v, w: complex(0.0, w), lambda v, w: complex(v, nz),
             lambda v, w: complex(nz, w), lambda v, w: complex(nz, nz), lambda v, w: 0j]

    def coeff():
        mat = np.empty((size, size), dtype=complex)
        for idx in np.ndindex(mat.shape):
            v, w = rng.uniform(-2.0, 2.0, 2)
            mat[idx] = kinds[rng.integers(len(kinds))](v, w)
        mat.flat[0] = complex(1.0, nz)          # never an all-zero (dropped) term
        return mat

    return MatrixPolynomial(3, (size, size), {alpha: coeff() for alpha in (
        (0, 0, 0), (0, 1, 0), (1, 0, 2), (0, 3, 1), (2, 0, 0))})


def test_eval_points_fast_paths_are_pointwise_bit_for_bit():
    # constant terms are added as they are, each monomial starts from its first
    # power and multiplies a coefficient on the float view, one real product per
    # real and imaginary part: all must give __call__'s bits, and the general
    # path's (complex products), signbits included, with signed zeros in the
    # coefficients and the points, zero real or imaginary parts, negative
    # coefficients, and complex coefficients of every size from 1x1 to 8x8
    nz = -0.0
    const = [[complex(nz, 1.5), complex(-2.0, nz)], [complex(0.0, nz), complex(nz, nz)]]
    slope = [[complex(-0.5, nz), complex(nz, -0.25)], [complex(3.0, 0.0), complex(nz, 0.0)]]
    polys = [
        MatrixPolynomial(2, (2, 2), {(0, 0): const, (0, 1): slope, (2, 3): slope}),
        MatrixPolynomial(2, (2, 2), {(1, 0): slope, (0, 0): const, (0, 2): const}),
        MatrixPolynomial(2, (2, 2), {(0, 0): const}),
        MatrixPolynomial(3, (1, 1), {(0, 0, 0): [[complex(-1e-300, nz)]],
                                     (0, 1, 1): [[-7.0 + 0j]], (3, 0, 0): [[nz + 2j]]}),
    ]
    rng = np.random.default_rng(30)
    polys += [_signed_zero_polynomial(size, rng) for size in range(1, 9)]
    for p in polys:
        special = np.array([[0.0, nz, -1.0, 1.0, -0.5, 1e-200][:p.n_vars],
                            [nz, 0.0, 2.0, -1e-300, 0.25, nz][:p.n_vars],
                            [nz] * p.n_vars, [0.0] * p.n_vars])
        pts = np.concatenate([special, rng.uniform(-2.0, 2.0, (9, p.n_vars))])
        got = p.eval_points(pts)
        for row, pt in zip(got, pts):
            assert row.tobytes() == p(pt).tobytes()
        general = monomial_eval_points(p, pts)
        assert np.array_equal(np.signbit(got.view(float)), np.signbit(general.view(float)))
        assert got.tobytes() == general.tobytes()


def test_json_round_trip():
    p = MatrixPolynomial(2, (1, 1), {(0, 1): [[0.5 + 0.25j]], (2, 0): [[-1.0]]})
    q = MatrixPolynomial.from_json(p.to_json(), 2, (1, 1))
    assert q.terms.keys() == p.terms.keys()
    for a in p.terms:
        assert np.array_equal(p.terms[a], q.terms[a])


def test_shape_validation():
    with pytest.raises(ValueError):
        MatrixPolynomial(2, (2, 2), {(0, 0): [[1.0]]})
    with pytest.raises(ValueError):
        MatrixPolynomial(2, (1, 1), {(0,): [[1.0]]})


def test_non_integer_exponent_rejected():
    for alpha in ((0, 1.5), (0, float("nan")), (0, float("inf"))):
        with pytest.raises(ValueError, match=rf"bad multi-index \(0, {alpha[1]}\)"):
            MatrixPolynomial(2, (1, 1), {alpha: [[1.0]]})
    with pytest.raises(ValueError, match=r"bad multi-index \(0, 1\.5\)"):
        MatrixPolynomial.from_json([{"alpha": [0, 1.5], "matrix": [[[1.0, 0.0]]]}], 2, (1, 1))
    # an integral value is that integer
    p = MatrixPolynomial(2, (1, 1), {(0, 1.0): [[1.0]], (np.int64(1), 0): [[2.0]]})
    assert list(p.terms) == [(0, 1), (1, 0)]
    assert all(type(a) is int for alpha in p.terms for a in alpha)


def test_algebra_results_are_valid_without_revalidation():
    rng = np.random.default_rng(5)
    p = MatrixPolynomial(2, (2, 2), {
        alpha: rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        for alpha in ((0, 0), (1, 0), (0, 2), (2, 1))})
    x = MatrixPolynomial.coordinate(1, 2)
    results = [p + p, p - p, 0.0 * p, (2 - 1j) * p, p @ p, p.adjoint(), p.derivative(1),
               p.derivative(0).derivative(0).derivative(0), x.derivative(0)]
    for q in results:
        # what the constructor builds from the same terms, bit for bit and in order
        rebuilt = MatrixPolynomial(q.n_vars, q.shape, q.terms)
        assert list(q.terms) == list(rebuilt.terms)
        for alpha, mat in q.terms.items():
            assert not mat.flags.writeable and mat.flags.c_contiguous and mat.dtype == complex
            assert mat.any() and mat.tobytes() == rebuilt.terms[alpha].tobytes()
    assert (p - p).is_zero and (0.0 * p).is_zero and x.derivative(0).is_zero
    # a sum shares the terms only one side has, and copies nothing it computes
    s = p + MatrixPolynomial(2, (2, 2), {(3, 3): np.eye(2)})
    assert all(s.terms[a] is p.terms[a] for a in p.terms)


def test_degrees():
    p = MatrixPolynomial(3, (1, 1), {(1, 2, 0): [[1.0]], (0, 0, 1): [[2.0]]})
    assert p.degree == 3
    assert p.var_degree(0) == 1 and p.var_degree(1) == 2 and p.var_degree(2) == 1
    assert not p.is_constant()
