"""Exact polynomial eigenpairs for affine-coefficient operators, any dimension.

For operators whose spatial coefficients are affine (constant A^0 and B, drift
terms linear in the coordinates), the shifted eigenproblem preserves spaces of
polynomials of fixed total degree.  Splitting a candidate eigenfunction
exp(i*q*x0) * P(x1..xn) by homogeneous degree makes the operator block
triangular: the degree-preserving part acts diagonally (degree by degree) and
the constant drift lowers the degree by one.  When the top-degree block is an
exact scalar multiple of A^0, the top-degree part of P is free and the lower
parts follow by back-substitution, giving exact eigenvalues and multiplicities
N * C(p+n-1, n-1).

All arithmetic is exact: rational (Gaussian) matrices throughout, so residuals
of verified pairs are identically zero as polynomials.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
import sympy as sp

from .norms import _compositions
from .operator_model import OperatorSpec


class OracleStructureError(ValueError):
    """The operator lacks the affine block-triangular structure the oracle needs."""


class ResonanceError(ValueError):
    """A lower-degree block is singular; eigenfunctions are not determined."""


def _exact(value: complex) -> sp.Expr:
    """Exact Gaussian-rational from a complex float (binary floats convert exactly)."""
    return sp.Rational(Fraction(float(value.real))) + sp.I * sp.Rational(Fraction(float(value.imag)))


def _exact_matrix(mat: np.ndarray) -> sp.Matrix:
    return sp.Matrix([[_exact(v) for v in row] for row in mat])


@dataclass(frozen=True)
class PolyEigenpair:
    """One exact eigenpair exp(i*q*x0) * P with P stored per homogeneous degree.

    P maps (degree, monomial exponents) -> sympy column vector of length N.
    """

    q: int
    p: int
    z: complex
    z_exact: sp.Expr
    components: dict[tuple[int, tuple[int, ...]], sp.Matrix]
    n: int
    N: int
    residual_is_zero: bool = True

    def poly_matrix(self) -> list[sp.Expr]:
        """The eigenfunction as N sympy polynomial expressions in y1..yn."""
        ys = sp.symbols(f"y1:{self.n + 1}")
        exprs = [sp.Integer(0)] * self.N
        for (_deg, mono), vec in self.components.items():
            term = math.prod(y**e for y, e in zip(ys, mono))
            for c in range(self.N):
                exprs[c] += vec[c] * term
        return [sp.expand(e) for e in exprs]


def _affine_parts(spec: OperatorSpec):
    """Split coefficients into (A0_const, B_const, drift_const, drift_linear) exactly.

    drift_const[i] is the constant part of the spatial A^i; drift_linear[i][j]
    multiplies coordinate y_j in A^i.  Raises OracleStructureError when the
    operator falls outside the affine class.
    """
    n, N = spec.n, spec.N
    if not spec.x0_independent():
        raise OracleStructureError("oracle requires coefficients independent of x0")
    if not spec.A[0].is_constant() or not spec.B.is_constant():
        raise OracleStructureError("oracle requires constant A^0 and B")
    zero_alpha = (0,) * (n + 1)
    a0 = _exact_matrix(spec.A[0].terms.get(zero_alpha, np.zeros((N, N))))
    b = _exact_matrix(spec.B.terms.get(zero_alpha, np.zeros((N, N))))
    drift_const, drift_linear = [], []
    for i in range(1, n + 1):
        poly = spec.A[i]
        if poly.degree > 1 or poly.var_degree(0) > 0:
            raise OracleStructureError(f"A^{i} is not affine in the spatial coordinates")
        drift_const.append(_exact_matrix(poly.terms.get(zero_alpha, np.zeros((N, N)))))
        lin = []
        for j in range(1, n + 1):
            alpha = tuple(1 if v == j else 0 for v in range(n + 1))
            lin.append(_exact_matrix(poly.terms.get(alpha, np.zeros((N, N)))))
        drift_linear.append(lin)
    return a0, b, drift_const, drift_linear


def _degree_block(spec_parts, q: int, degree: int, n: int, N: int) -> sp.Matrix:
    """Matrix of the degree-preserving operator part on homogeneous degree-d vectors."""
    a0, b, _dc, dl = spec_parts
    monos = list(_compositions(n, degree))
    index = {m: k for k, m in enumerate(monos)}
    dim = len(monos) * N
    block = sp.zeros(dim, dim)
    zero_order = b + sp.I * q * a0
    for col_m, mono in enumerate(monos):
        for c in range(N):
            col = col_m * N + c
            # zero-order part keeps the monomial
            for r in range(N):
                block[col_m * N + r, col] += zero_order[r, c]
            # linear drift: y_j * d_i maps mono -> mono - e_i + e_j
            for i in range(n):
                if mono[i] == 0:
                    continue
                for j in range(n):
                    target = tuple(
                        m - (1 if v == i else 0) + (1 if v == j else 0)
                        for v, m in enumerate(mono)
                    )
                    row_m = index[target]
                    coeff = mono[i]
                    mat = dl[i][j]
                    for r in range(N):
                        block[row_m * N + r, col] += coeff * mat[r, c]
    return block


def _lowering_apply(spec_parts, vec_by_mono: dict[tuple[int, ...], sp.Matrix],
                    n: int, N: int, degree: int) -> dict[tuple[int, ...], sp.Matrix]:
    """Apply the constant drift (degree-lowering) part to a homogeneous piece."""
    _a0, _b, dc, _dl = spec_parts
    out: dict[tuple[int, ...], sp.Matrix] = {}
    for mono, vec in vec_by_mono.items():
        for i in range(n):
            if mono[i] == 0:
                continue
            target = tuple(m - (1 if v == i else 0) for v, m in enumerate(mono))
            contrib = mono[i] * (dc[i] * vec)
            out[target] = out.get(target, sp.zeros(N, 1)) + contrib
    return out


def poly_eigenpairs(spec: OperatorSpec, q: int, p_max: int) -> dict[int, list[PolyEigenpair]]:
    """Exact eigenpair bases for mode q and top degrees p = 0..p_max.

    For each p, the eigenvalue is read off the top-degree block (which must be
    an exact scalar multiple of A^0 there; otherwise the free-choice structure
    is absent and OracleStructureError is raised), and one eigenfunction is
    produced per basis monomial of the top space.  Singular back-substitution
    is reported as ResonanceError, not guessed around.
    """
    n, N = spec.n, spec.N
    parts = _affine_parts(spec)
    a0, _b, _dc, _dl = parts

    def a0_on(degree: int) -> sp.Matrix:
        dim = len(list(_compositions(n, degree)))
        return sp.Matrix(sp.BlockDiagMatrix(*([a0] * dim)))

    scalars: list[sp.Expr] = []
    for d in range(p_max + 1):
        block = _degree_block(parts, q, d, n, N)
        a0_d = a0_on(d)
        ratio = a0_d.solve(block)  # X with a0_d * X = block
        c = ratio[0, 0]
        if sp.simplify(ratio - c * sp.eye(ratio.shape[0])) != sp.zeros(*ratio.shape):
            raise OracleStructureError(
                f"degree-{d} block is not a scalar multiple of A^0; "
                "no free top-degree eigenspace"
            )
        scalars.append(sp.simplify(c))

    out: dict[int, list[PolyEigenpair]] = {}
    for p in range(p_max + 1):
        z_exact = sp.simplify(-scalars[p])
        pairs = []
        for mono in _compositions(n, p):
            for comp in range(N):
                components: dict[tuple[int, tuple[int, ...]], sp.Matrix] = {}
                vec = sp.zeros(N, 1)
                vec[comp] = 1
                current = {mono: vec}
                components.update({(p, m): v for m, v in current.items()})
                # back-substitute lower degrees: (c_d - c_p) * A0 * P_d = -lowering(P_{d+1})
                for d in range(p - 1, -1, -1):
                    rhs = _lowering_apply(parts, current, n, N, d + 1)
                    gap = sp.simplify(scalars[d] - scalars[p])
                    if gap == 0:
                        if any(v != sp.zeros(N, 1) for v in rhs.values()):
                            raise ResonanceError(
                                f"resonant block at degree {d} for (q={q}, p={p})"
                            )
                        current = {}
                        continue
                    current = {}
                    for m in _compositions(n, d):
                        r = rhs.get(m, sp.zeros(N, 1))
                        if r == sp.zeros(N, 1):
                            continue
                        sol = a0.solve(-r) / gap
                        current[m] = sol
                    components.update({(d, m): v for m, v in current.items()})
                pairs.append(PolyEigenpair(
                    q=q, p=p, z=complex(z_exact), z_exact=z_exact,
                    components=components, n=n, N=N,
                ))
        out[p] = pairs
    return out


def verify_eigenpair(spec: OperatorSpec, pair: PolyEigenpair) -> sp.Matrix:
    """Apply the shifted operator to the pair symbolically; returns the residual.

    The residual is an N-vector of sympy polynomials and must be identically
    zero for a genuine eigenpair.
    """
    n, N = spec.n, spec.N
    parts = _affine_parts(spec)
    a0, b, dc, dl = parts
    ys = sp.symbols(f"y1:{n + 1}")
    P = sp.Matrix(pair.poly_matrix())
    z = pair.z_exact if isinstance(pair.z_exact, sp.Expr) else _exact(pair.z)
    zero_order = (b + sp.I * pair.q * a0 + z * a0) * P
    drift = sp.zeros(N, 1)
    for i in range(n):
        dP = sp.Matrix([sp.diff(P[c], ys[i]) for c in range(N)])
        a_i = dc[i] + sum((dl[i][j] * ys[j] for j in range(n)), start=sp.zeros(N, N))
        drift += a_i * dP
    return sp.expand(drift + zero_order)


def eigenvalue_table(spec: OperatorSpec, q_range, p_max: int) -> list[dict]:
    """Rows (q, p, z, dim) of the exact eigentable over a range of modes."""
    rows = []
    for q in q_range:
        families = poly_eigenpairs(spec, q, p_max)
        for p in range(p_max + 1):
            pairs = families[p]
            rows.append({
                "q": q, "p": p,
                "re": float(pairs[0].z.real), "im": float(pairs[0].z.imag),
                "dim": len(pairs),
            })
    return rows


def expected_multiplicity(spec: OperatorSpec, p: int) -> int:
    """N * C(p+n-1, n-1): free top-degree choices when back-substitution is regular."""
    return spec.N * math.comb(p + spec.n - 1, spec.n - 1)
