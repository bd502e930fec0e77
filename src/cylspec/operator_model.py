"""First-order operators A^i d_i + B on the periodic cylinder, and their admissibility checks.

The operator acts on functions of (x0, x1, ..., xn) where x0 is 2*pi-periodic and
the spatial coordinates range over the closed unit ball.  Admissibility consists of
four conditions:

  (1) Hermitian coefficients with positive definite A^0,
  (2) outflow at the boundary: A^i w_i >= 0 for the outward normal w,
  (3) a certified positivity condition on the symmetrized coefficient
      derivatives ("deformation" blocks), driven by a constant xi and
      multiplier matrices Xi^i,
  (4) factorially weighted summability of coefficient derivative norms
      against a submultiplicative weight sequence (r_l).

All checks are grid-sampled; coefficients are exact polynomials, so derivative
norms terminate at the coefficient degree and the condition-(4) sums are finite.
Samples are taken in fixed-size blocks of points with stacked eigenvalue
solves, and each form only on the rows where it varies: one time slice when it
has no x0 term, one point when it is constant.  The first sample attaining a
minimum is its witness.  The sample grids are built once per (n, density),
each with its one-slice row count; a density below 1 is an error.  A 1x1
form's eigenvalue is its real part, bit for bit what LAPACK returns for N = 1,
so 1x1 stacks take no eigensolve (`_eigvalsh`); nor does a 1x1 pencil's energy
threshold, Re(a0/2 - K0) / l**2 with l = sqrt(Re a0), which is LAPACK's answer
for N = 1 too (`_pencil_eigvalsh_1x1`), so the checks and the constants of an
N = 1 spec load no scipy (N > 1 thresholds import scipy's `eigh`);
`eval_points` adds a constant term's matrix without a monomial and each
monomial's products on the float view of its output, and a derivative of
weight 1 enters the norm rows unscaled.  Each of these shortcuts leaves every
output bit as it was.

Condition (3)'s form is one (n+1)N-square polynomial (`_certificate_form`):
the Hermitian part of xi [d_i A^j] + [A^i][Xi^j], taken once on the
coefficients and evaluated once per block of rows, not (n+1)^2 block
polynomials put together and symmetrized at every sample.  For Hermitian A^i
the two are the same form, and they round differently only where the
coefficients' arithmetic rounds: (iii)'s outputs are bit for bit as they were on
the fixtures and the recentred operators d_0 + mu (x1 - x*) d_1, and (iii)'s
minimum moves by at most 1.1e-15 on the tests' seeded N = 2 operators.  Only
for A^i that fail (1)'s Hermiticity test (tolerance 1e-14) can (iii)'s number
move beyond roundoff.

The norm table's derivatives come from one ladder per coefficient
(`MatrixPolynomial.derivatives`): each d^alpha p is its parent d^{alpha - e_v} p
differentiated once in v, the last variable with alpha_v > 0, so it equals the
chain of single derivatives in variable order bit for bit; a zero derivative
ends its branch, so nothing is built past order 1 for affine coefficients.
`derivative_norms` reads one level of each ladder per order.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .polynomial import MatrixPolynomial

TOL_PSD = 1e-10

# stability_constants takes R over R_SHIFT_SAMPLES shifts on [z*, z* + R_SHIFT_SPAN]
R_SHIFT_SPAN = 50.0
R_SHIFT_SAMPLES = 200

CONFIG_SCHEMA = {
    "type": "object",
    "required": ["n", "N", "A", "B"],
    "properties": {
        "n": {"type": "integer", "minimum": 1},
        "N": {"type": "integer", "minimum": 1},
        "A": {"type": "array", "items": {"type": "array"}},
        "B": {"type": "array"},
        "certificate": {
            "type": "object",
            "required": ["xi", "Xi"],
            "properties": {
                "xi": {"type": "number", "exclusiveMinimum": 0},
                "Xi": {"type": "array", "items": {"type": "array"}},
            },
        },
        "sequence": {
            "type": "object",
            "properties": {
                "kappa": {"type": "number", "exclusiveMinimum": 0, "maximum": 1},
                "values": {"type": "array", "items": {"type": "number", "minimum": 0}},
                "Lmax": {"type": "integer", "minimum": 1},
            },
        },
        "Q": {"type": "number", "exclusiveMinimum": 0},
    },
}

POLY_ENTRY_SCHEMA = {
    "type": "object",
    "required": ["alpha", "matrix"],
    "properties": {
        "alpha": {"type": "array", "items": {"type": "integer", "minimum": 0}},
        "matrix": {"type": "array"},
    },
}


class SpecError(ValueError):
    """Raised when an operator description violates its schema or invariants."""


@dataclass(frozen=True)
class Certificate:
    """Positivity certificate for condition (3): a constant xi and matrices Xi^i."""

    xi: float
    Xi: tuple[MatrixPolynomial, ...]

    def __post_init__(self):
        if not self.xi > 0:
            raise SpecError("certificate constant xi must be positive")


@dataclass(frozen=True)
class WeightSequence:
    """Submultiplicative weights r_0..r_L with r_0 = 1.

    Either geometric (r_l = kappa**l) or an explicit list.  Submultiplicativity
    r_{k+l} <= r_k r_l is validated on all stored indices.
    """

    values: tuple[float, ...]
    kappa: float | None = None

    def __post_init__(self):
        v = self.values
        if not v or abs(v[0] - 1.0) > 1e-14:
            raise SpecError("weight sequence must start with r_0 = 1")
        if any(x < 0 for x in v):
            raise SpecError("weights must be nonnegative")
        L = len(v) - 1
        for k in range(L + 1):
            for l in range(L + 1 - k):
                if v[k + l] > v[k] * v[l] * (1 + 1e-12) + 1e-300:
                    raise SpecError(
                        f"submultiplicativity violated: r_{k + l}={v[k + l]} > "
                        f"r_{k}*r_{l}={v[k] * v[l]}"
                    )

    @classmethod
    def geometric(cls, kappa: float, L_max: int) -> "WeightSequence":
        if not 0 < kappa <= 1:
            raise SpecError("kappa must lie in (0, 1]")
        return cls(tuple(kappa**l for l in range(L_max + 1)), kappa=kappa)

    def r(self, ell: int) -> float:
        if ell < len(self.values):
            return self.values[ell]
        if self.kappa is not None:
            return self.kappa**ell
        return 0.0


@dataclass(frozen=True)
class OperatorSpec:
    """A first-order operator with polynomial coefficients plus its certificate data."""

    n: int
    N: int
    A: tuple[MatrixPolynomial, ...]
    B: MatrixPolynomial
    weights: WeightSequence
    Q: float
    certificate: Certificate | None = None
    L_max: int = 16
    name: str = ""

    def __post_init__(self):
        if len(self.A) != self.n + 1:
            raise SpecError(f"need {self.n + 1} coefficient matrices A^0..A^{self.n}")
        shape = (self.N, self.N)
        for i, a in enumerate(self.A):
            if a.shape != shape or a.n_vars != self.n + 1:
                raise SpecError(f"A^{i} has wrong shape or variable count")
        if self.B.shape != shape or self.B.n_vars != self.n + 1:
            raise SpecError("B has wrong shape or variable count")
        if self.certificate is not None:
            for x in self.certificate.Xi:
                if x.shape != shape or x.n_vars != self.n + 1:
                    raise SpecError("certificate matrices have wrong shape")
            if len(self.certificate.Xi) != self.n + 1:
                raise SpecError(f"need {self.n + 1} certificate matrices")
            if not math.isfinite(self.certificate.xi):
                raise SpecError("certificate constant xi is not finite")
        polys = list(self.A) + [self.B] + list(self.certificate.Xi if self.certificate else ())
        if not all(np.isfinite(m).all() for p in polys for m in p.terms.values()):
            raise SpecError("coefficients of A, B and the certificate must be finite")
        if not self.Q > 0:
            raise SpecError("Q must be positive")

    @property
    def A0(self) -> MatrixPolynomial:
        return self.A[0]

    def x0_independent(self) -> bool:
        polys = list(self.A) + [self.B]
        return all(p.var_degree(0) == 0 for p in polys)

    def shifted(self, const: complex, name: str = "") -> "OperatorSpec":
        """Same operator with B replaced by B + const * identity."""
        bump = MatrixPolynomial.constant(const * np.eye(self.N), self.n + 1)
        return OperatorSpec(
            self.n, self.N, self.A, self.B + bump, self.weights, self.Q,
            certificate=self.certificate, L_max=self.L_max, name=name or self.name,
        )


@dataclass(frozen=True)
class StabilityConstants:
    """Energy threshold z_star, coercivity constant R, smallness threshold rho_star."""

    z_star: float
    R: float
    rho_star: float
    q_effective: float


@dataclass
class CheckResult:
    status: str  # "pass" | "fail" | "unverifiable"
    witnesses: list[dict] = field(default_factory=list)
    detail: str = ""


@dataclass
class AssumptionReport:
    spec_name: str
    checks: dict[str, CheckResult]
    norm_table: dict[str, list[float]]

    @property
    def all_pass(self) -> bool:
        return all(c.status == "pass" for c in self.checks.values())

    @property
    def any_fail(self) -> bool:
        return any(c.status == "fail" for c in self.checks.values())

    def failed(self) -> list[str]:
        return [k for k, c in self.checks.items() if c.status == "fail"]

    def to_json(self) -> dict:
        return {
            "spec": self.spec_name,
            "checks": {
                k: {"status": c.status, "witnesses": c.witnesses, "detail": c.detail}
                for k, c in self.checks.items()
            },
            "norm_table": self.norm_table,
        }

    def pretty(self) -> str:
        lines = [f"assumption report for {self.spec_name or '(unnamed)'}"]
        for k, c in self.checks.items():
            lines.append(f"  ({k}): {c.status}" + (f"  [{c.detail}]" if c.detail else ""))
            for w in c.witnesses[:3]:
                lines.append(f"      witness {w}")
        lines.append("  derivative norms (k: |A|_k, |B|_k, |A0|_k):")
        lines += [f"      {k}: {a:.6g}, {b:.6g}, {a0:.6g}" for k, (a, b, a0) in enumerate(
            zip(self.norm_table["A"], self.norm_table["B"], self.norm_table["A0"]))]
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# sample grids
# ---------------------------------------------------------------------------


class _Grid(NamedTuple):
    """A sample grid: read-only rows (t_i, *flat_j), time-major (every spatial row
    for t_0, then for t_1, ...), and the number of rows in one time slice."""

    points: np.ndarray
    slice_rows: int


def _times_slices(t: np.ndarray, flat: np.ndarray) -> _Grid:
    pts = np.column_stack([np.repeat(t, len(flat)), np.tile(flat, (len(t), 1))])
    pts.setflags(write=False)
    return _Grid(pts, len(flat))


def _time_axis(density: int) -> np.ndarray:
    """The sample times of both grids; no grid has a density below 1."""
    if density < 1:
        raise SpecError(f"sample density must be at least 1, got density = {density}")
    return np.linspace(0.0, 2 * np.pi, max(4, min(density, 16)), endpoint=False)


@functools.lru_cache(maxsize=16)
def _interior_grid(n: int, density: int) -> _Grid:
    """Deterministic sample points of the solid cylinder, including extreme slices;
    built once per (n, density) and shared."""
    t = _time_axis(density)
    if n == 1:
        x = np.unique(np.concatenate([np.linspace(-1.0, 1.0, density), [-1.0, 0.0, 1.0]]))
        flat = x[:, None]
    else:
        axes = [np.linspace(-1.0, 1.0, max(4, min(density, 12))) for _ in range(n)]
        mesh = np.meshgrid(*axes, indexing="ij")
        flat = np.stack([m.ravel() for m in mesh], axis=1)
        flat = flat[np.sum(flat**2, axis=1) <= 1.0 + 1e-12]
    return _times_slices(t, flat)


@functools.lru_cache(maxsize=16)
def _boundary_grid(n: int, density: int) -> _Grid:
    """Boundary samples; the outward normal at (t, x1, ..., xn) is (0, x1, ..., xn).
    Built once per (n, density) and shared."""
    t = _time_axis(density)
    if n == 1:
        dirs = np.array([[1.0], [-1.0]])
    elif n == 2:
        ang = np.linspace(0.0, 2 * np.pi, 4 * density, endpoint=False)
        dirs = np.stack([np.cos(ang), np.sin(ang)], axis=1)
    else:
        # golden-spiral points on S^2; for n > 3 fall back to a seeded sphere sample
        m = max(32, 8 * density)
        if n == 3:
            k = np.arange(m) + 0.5
            phi = np.arccos(1 - 2 * k / m)
            theta = np.pi * (1 + 5**0.5) * k
            dirs = np.stack(
                [np.sin(phi) * np.cos(theta), np.sin(phi) * np.sin(theta), np.cos(phi)],
                axis=1,
            )
        else:
            rng = np.random.default_rng(0)
            dirs = rng.standard_normal((m, n))
            dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    return _times_slices(t, dirs)


# Points per evaluated block: the stacks of coefficient values and eigenvalue
# problems stay a few MB however dense the grid is.
_BLOCK = 256


def _blocks(n_points: int):
    return (slice(start, start + _BLOCK) for start in range(0, n_points, _BLOCK))


def _varying_rows(grid: _Grid, polys: list[MatrixPolynomial]) -> np.ndarray:
    """The leading rows of a time-major grid on which the polynomials take all their values.

    Every row if some polynomial has an x0 term.  Otherwise the first time slice:
    ``eval_points`` never reads a coordinate whose exponent is 0, so the other
    slices repeat its values bit for bit.  One row if every polynomial is constant.
    """
    if any(p.var_degree(0) for p in polys):
        return grid.points
    if all(p.is_constant() for p in polys):
        return grid.points[:1]
    return grid.points[:grid.slice_rows]


def _eigvalsh(mats: np.ndarray) -> np.ndarray:
    """``np.linalg.eigvalsh`` of a stack of Hermitian matrices.  A 1x1 matrix's
    eigenvalue is its real part, which is what LAPACK's ?heevd and ?syevd return
    for N = 1 bit for bit, so a 1x1 stack takes no eigensolve."""
    if mats.shape[-1] == 1:
        return mats[..., 0].real
    return np.linalg.eigvalsh(mats)


def _pencil_eigvalsh_1x1(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Eigenvalues of a stack of 1x1 Hermitian pencils (a, b) with Re b > 0: Re a / l**2
    with l = sqrt(Re b), which is what LAPACK's ?hegvd and ?sygvd return for N = 1
    bit for bit (?potrf takes the square root, ?hegs2 divides by its square), so a
    1x1 pencil takes no eigensolve.  Plain Re a / Re b can differ in the last bit."""
    root = np.sqrt(b[..., 0, 0].real)
    return a[..., 0, 0].real / (root * root)


def _min_eig(grid: _Grid, polys: list[MatrixPolynomial], form) -> tuple[float, int | None]:
    """Smallest eigenvalue of a Hermitian form over the grid and the first point index attaining it.

    ``form(values)`` maps the polynomials' values at a block of points to the
    stacked Hermitian matrices there.  Only the rows where the polynomials vary
    are sampled; the first sample attaining the minimum lies among them, and a
    later block replaces the witness only when strictly smaller.
    """
    rows = _varying_rows(grid, polys)
    best, where = np.inf, None
    for sl in _blocks(len(rows)):
        ev = _eigvalsh(form([p.eval_points(rows[sl]) for p in polys])).min(axis=-1)
        k = int(np.argmin(ev))
        if ev[k] < best:
            best, where = float(ev[k]), sl.start + k
    return best, where


def _sup_norm(grid: _Grid, polys: list[MatrixPolynomial]) -> float:
    """Max over the points of the spectral norm of the row [p_1(x), p_2(x), ...]:
    the square root of the largest eigenvalue of its N-by-N Gram matrix."""
    if all(p.is_zero for p in polys):
        return 0.0
    rows = _varying_rows(grid, polys)
    best = 0.0
    for sl in _blocks(len(rows)):
        row = np.concatenate([p.eval_points(rows[sl]) for p in polys], axis=-1)
        gram = row @ row.conj().swapaxes(-1, -2)
        best = max(best, float(_eigvalsh(gram).max()))
    return math.sqrt(best)


def _hermitian_part(mats: np.ndarray) -> np.ndarray:
    return 0.5 * (mats + mats.conj().swapaxes(-1, -2))


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------


def derivative_norms(spec: OperatorSpec, k: int, density: int = 64) -> tuple[float, float, float]:
    """Supremum norms (|A|_k, |B|_k, |A0|_k) of the order-k weighted derivative maps.

    The order-k map stacks sqrt(k!/alpha!) * d^alpha applied to the coefficients
    into one block row; the norm is the largest singular value, maximized over a
    sample grid (exact for affine coefficients since the grid contains the domain
    corners).  The d^alpha p are level k of each coefficient's derivative ladder;
    a derivative that vanishes keeps its zero block in the row, and one of weight
    1 enters unscaled.
    """
    from .norms import multi_indices

    if k < 0:
        raise SpecError("derivative order must be nonnegative")
    grid = _interior_grid(spec.n, density)
    table = multi_indices(spec.n + 1, k)
    zero = MatrixPolynomial.zero(spec.n + 1, (spec.N, spec.N))

    def block(level, alpha, w: int) -> MatrixPolynomial:
        if alpha not in level:
            return zero
        return level[alpha] if w == 1 else math.sqrt(w) * level[alpha]

    def sup_norm(polys: list[MatrixPolynomial]) -> float:
        levels = [p.derivatives(k) for p in polys]
        return _sup_norm(grid, [block(level, alpha, w)
                                for alpha, w in zip(table.indices, table.weights)
                                for level in levels])

    return sup_norm(list(spec.A)), sup_norm([spec.B]), sup_norm([spec.A0])


def _summability_sums(spec: OperatorSpec, norms: dict[str, list[float]], K: int) -> dict[str, float]:
    """The three condition-(4) sums at truncation index K (finite: norms vanish past the degree)."""
    def part(key: str, start: int, lag: int) -> float:
        return sum((k + 1) ** (spec.n / 2) * spec.weights.r(k - lag) * norms[key][k]
                   / math.factorial(k) for k in range(start, len(norms[key])))

    return {"A": part("A", K + 1, 1), "B": part("B", K, 0), "A0": part("A0", K, 0)}


def _norm_table(spec: OperatorSpec, density: int) -> dict[str, list[float]]:
    k_max = max(p.degree for p in list(spec.A) + [spec.B]) + 1
    rows = [derivative_norms(spec, k, density=density) for k in range(k_max + 1)]
    return {key: [row[i] for row in rows] for i, key in enumerate(("A", "B", "A0"))}


def check_assumptions(spec: OperatorSpec, sample_density: int = 64) -> AssumptionReport:
    """Verify admissibility conditions (1)-(4) on sample grids.

    Condition (4) is certified through the z-free sufficient split: bounding the
    B-part and the A^0-part separately implies the required bound for B + z*A^0
    at every z via the triangle inequality.
    """
    checks: dict[str, CheckResult] = {}

    # (1) Hermitian coefficients, positive definite A^0
    witnesses = []
    herm_ok = all(a.is_hermitian(tol=1e-14) for a in spec.A)
    grid = _interior_grid(spec.n, sample_density)
    min_eig_a0, k = _min_eig(grid, [spec.A0], lambda v: v[0])
    if not herm_ok:
        witnesses.append({"reason": "non-Hermitian coefficient matrix"})
    if min_eig_a0 <= TOL_PSD:
        witnesses.append({"point": grid.points[k].tolist(), "min_eig": min_eig_a0})
    checks["i"] = CheckResult(
        "pass" if herm_ok and min_eig_a0 > TOL_PSD else "fail",
        witnesses,
        f"min eig A0 = {min_eig_a0:.6g}",
    )

    # (2) outflow: A^i w_i psd along the boundary, where the normal w_i is the
    # coordinate x_i, so the form is the polynomial x_i A^i
    witnesses = []
    bgrid = _boundary_grid(spec.n, sample_density)
    bpts = bgrid.points
    n = spec.n
    coords = [MatrixPolynomial.coordinate(i, n + 1) for i in range(1, n + 1)]
    worst, k = _min_eig(bgrid, coords + list(spec.A[1:]), lambda v: _hermitian_part(
        sum(x * a for x, a in zip(v[:n], v[n:]))))
    if worst < -TOL_PSD:
        witnesses.append({"point": bpts[k].tolist(), "normal": [0.0, *bpts[k, 1:].tolist()],
                          "min_eig": worst})
    checks["ii"] = CheckResult(
        "pass" if worst >= -TOL_PSD else "fail", witnesses, f"min eig A.w = {worst:.6g}"
    )

    # (3) certified deformation positivity
    if spec.certificate is None:
        checks["iii"] = CheckResult("unverifiable", [], "no certificate supplied")
    else:
        worst, k = _min_eig(grid, [_certificate_form(spec)], lambda v: v[0])
        witnesses = []
        if worst < 1.0 - TOL_PSD:
            witnesses.append({"point": grid.points[k].tolist(), "min_eig": worst})
        checks["iii"] = CheckResult(
            "pass" if worst >= 1.0 - TOL_PSD else "fail",
            witnesses,
            f"min eig of certificate form = {worst:.6g} (need >= 1)",
        )

    # (4) weighted summability via the z-free split
    table = _norm_table(spec, sample_density)
    witnesses = []
    ok = True
    for K in (0, 1):
        sums = _summability_sums(spec, table, K)
        rK = spec.weights.r(K)
        for key, s in sums.items():
            if s > spec.Q * rK * (1 + 1e-12):
                ok = False
                witnesses.append({"K": K, "part": key, "sum": s, "bound": spec.Q * rK})
    checks["iv"] = CheckResult("pass" if ok else "fail", witnesses)

    return AssumptionReport(spec.name, checks, table)


def _certificate_form(spec: OperatorSpec) -> MatrixPolynomial:
    """The certified quadratic form of condition (3) as one (n+1)N-square polynomial:
    the Hermitian part of xi [d_i A^j] + [A^i][Xi^j], taken once on the coefficients.

    For Hermitian A^i its (i, j) block is xi (d_i A^j + d_j A^i)/2 +
    (A^i Xi^j + (Xi^i)^† A^j)/2.  The d_i A^j are level 1 of the coefficients'
    derivative ladders.
    """
    A, xi, Xi = spec.A, spec.certificate.xi, spec.certificate.Xi
    N, size = spec.N, (spec.n + 1) * spec.N
    terms: dict[tuple[int, ...], np.ndarray] = {}

    def add(alpha, i: int, j: int, mat: np.ndarray):
        if alpha not in terms:
            terms[alpha] = np.zeros((size, size), dtype=complex)
        terms[alpha][i * N:(i + 1) * N, j * N:(j + 1) * N] += mat

    for j, a in enumerate(A):
        for unit, d in a.derivatives(1).items():
            for alpha, mat in d.terms.items():
                add(alpha, unit.index(1), j, xi * mat)
    for i, a in enumerate(A):
        for j, x in enumerate(Xi):
            for alpha, ma in a.terms.items():
                for beta, mx in x.terms.items():
                    add(tuple(p + q for p, q in zip(alpha, beta)), i, j, ma @ mx)
    stack = np.array(list(terms.values())).reshape(-1, size, size)
    return MatrixPolynomial(spec.n + 1, (size, size),
                            dict(zip(terms, 0.5 * (stack + stack.conj().swapaxes(1, 2)))))


def certificate_norm(spec: OperatorSpec, density: int = 64) -> float:
    """Sup over the domain of the stacked-row norm of the certificate matrices."""
    if spec.certificate is None:
        raise SpecError("no certificate")
    return _sup_norm(_interior_grid(spec.n, density), list(spec.certificate.Xi))


def q_effective(spec: OperatorSpec, density: int = 64) -> float:
    """Smallest Q for which the condition-(4) split holds for this operator."""
    table = _norm_table(spec, density)
    best = 0.0
    for K in (0, 1):
        rK = spec.weights.r(K)
        if rK == 0:
            continue
        sums = _summability_sums(spec, table, K)
        best = max(best, max(sums.values()) / rK)
    return best


def _energy_threshold(spec: OperatorSpec, density: int) -> tuple[float, np.ndarray, np.ndarray]:
    """z*, with K_0 and A^0 at the interior rows where either varies.  An A^0
    that is not positive definite at a row raises a SpecError for condition (i)
    naming the first such row and A^0's smallest eigenvalue there."""
    div_a = spec.A[0].derivative(0)
    for i in range(1, spec.n + 1):
        div_a = div_a + spec.A[i].derivative(i)
    k0_poly = 0.5 * ((-1.0) * div_a + spec.B + spec.B.adjoint())

    rows = _varying_rows(_interior_grid(spec.n, density), [k0_poly, spec.A0])
    k0_vals = _hermitian_part(k0_poly.eval_points(rows))
    a0_vals = spec.A0.eval_points(rows)

    def not_positive(k: int) -> SpecError:
        least = float(_eigvalsh(a0_vals[k]).min())
        return SpecError(f"condition (i) fails: A0 is not positive definite at the sample "
                         f"point {rows[k].tolist()}, smallest eigenvalue {least:.6g}")

    # the smallest s with k0 + s*a0 - a0/2 >= 0, row by row
    if spec.N == 1:
        bad = np.flatnonzero(~(a0_vals[:, 0, 0].real > 0))
        if bad.size:
            raise not_positive(int(bad[0]))
        thresholds = _pencil_eigvalsh_1x1(0.5 * a0_vals - k0_vals, a0_vals).tolist()
    else:
        from scipy.linalg import eigh

        thresholds = []
        for k in range(len(rows)):
            try:
                thresholds.append(float(eigh(0.5 * a0_vals[k] - k0_vals[k], a0_vals[k],
                                             eigvals_only=True).max()))
            except np.linalg.LinAlgError:
                if _eigvalsh(a0_vals[k]).min() > 0:
                    raise
                raise not_positive(k) from None
    return max(thresholds), k0_vals, a0_vals


def energy_threshold(spec: OperatorSpec, density: int = 64) -> float:
    """The energy threshold z*: with K_z = (-(d_i A^i) + B + B^†)/2 + Re(z) A^0,
    the smallest shift for which K_z >= A^0/2 everywhere (largest generalized
    eigenvalue of the pencil (A^0/2 - K_0, A^0) over the grid).  Right of it
    D_z is coercive, so has no pole: the CLI's pole windows end there.  Sampled,
    so a lower estimate of the supremum it names; needs no certificate."""
    return _energy_threshold(spec, density)[0]


def stability_constants(spec: OperatorSpec, density: int = 64) -> StabilityConstants:
    """The energy threshold z_star (`energy_threshold`), coercivity R (the infimum over
    Re z >= z_star of min-eig(K_z)/(1 + |Re z|)), and smallness threshold rho_star."""
    if spec.certificate is None:
        raise SpecError("stability constants require a certificate")
    z_star, k0_vals, a0_vals = _energy_threshold(spec, density)
    s_grid = np.concatenate([[z_star],
                             z_star + np.linspace(0.0, R_SHIFT_SPAN, R_SHIFT_SAMPLES)[1:]])
    # min over points and s of min-eig(K_s)/(1 + |s|), one (s, point) stack per block
    R = np.inf
    for sl in _blocks(len(k0_vals)):
        k_s = k0_vals[sl] + s_grid[:, None, None, None] * a0_vals[sl]
        ratios = _eigvalsh(k_s).min(axis=-1) / (1.0 + np.abs(s_grid))[:, None]
        R = min(R, float(ratios.min()))
    # ratio tends to min-eig(A0) as s -> +infinity
    a0_floor = float(_eigvalsh(a0_vals).min())
    R = min(R, a0_floor)
    if R <= 0:
        raise SpecError("coercivity constant R is nonpositive; conditions (1)-(3) violated?")

    xi = spec.certificate.xi
    xi_norm = certificate_norm(spec, density)
    rho_star = 0.5 / (spec.Q * (xi + 3.0 / R + xi_norm + 2.0 * xi_norm / (R * xi)))
    return StabilityConstants(z_star=z_star, R=R, rho_star=rho_star,
                              q_effective=q_effective(spec, density))


# ---------------------------------------------------------------------------
# configuration loading and built-in fixtures
# ---------------------------------------------------------------------------


def load_spec(config) -> OperatorSpec:
    """Build a validated OperatorSpec from a config document, path, or fixture name."""
    if isinstance(config, str):
        if config in FIXTURE_NAMES:
            return fixture(config)
        with open(config, "r", encoding="utf-8") as fh:
            config = json.load(fh)
    return _spec_from_document(config)


def _spec_from_document(doc: dict) -> OperatorSpec:
    import jsonschema
    from jsonschema.exceptions import best_match

    def validate(instance, schema):
        # jsonschema.validate without its check of the (constant) schema against
        # the meta-schema, which was over 90% of the time of a load
        error = best_match(jsonschema.Draft202012Validator(schema).iter_errors(instance))
        if error is not None:
            raise SpecError(f"config schema violation: {error.message}") from error

    validate(doc, CONFIG_SCHEMA)
    for poly_doc in list(doc["A"]) + [doc["B"]]:
        for entry in poly_doc:
            validate(entry, POLY_ENTRY_SCHEMA)

    n, N = int(doc["n"]), int(doc["N"])
    if len(doc["A"]) != n + 1:
        raise SpecError(f"expected {n + 1} entries in A, got {len(doc['A'])}")
    shape = (N, N)
    try:
        A = tuple(MatrixPolynomial.from_json(p, n + 1, shape) for p in doc["A"])
        B = MatrixPolynomial.from_json(doc["B"], n + 1, shape)
    except ValueError as exc:
        raise SpecError(str(exc)) from exc

    cert = None
    if "certificate" in doc:
        c = doc["certificate"]
        Xi = tuple(MatrixPolynomial.from_json(p, n + 1, shape) for p in c["Xi"])
        if len(Xi) != n + 1:
            raise SpecError(f"expected {n + 1} certificate matrices")
        cert = Certificate(xi=float(c["xi"]), Xi=Xi)

    seq = doc.get("sequence", {})
    L_max = int(seq.get("Lmax", 16))
    if "values" in seq:
        weights = WeightSequence(tuple(float(v) for v in seq["values"]))
    else:
        weights = WeightSequence.geometric(float(seq.get("kappa", 0.5)), L_max)

    return OperatorSpec(
        n=n, N=N, A=A, B=B, weights=weights, Q=float(doc.get("Q", 1.0)),
        certificate=cert, L_max=L_max, name=str(doc.get("name", "")),
    )


def _scalar_affine_operator(mu: float, x_star: float, kappa: float, name: str,
                            shift: float = 0.0) -> OperatorSpec:
    """d_0 + mu*(x1 - x_star)*d_1 + shift in one spatial dimension."""
    one = MatrixPolynomial.constant([[1.0]], 2)
    a1 = MatrixPolynomial(2, (1, 1), {(0, 1): [[mu]], (0, 0): [[-mu * x_star]]})
    b = MatrixPolynomial.constant([[shift]], 2)
    cert = Certificate(
        xi=6.0,
        Xi=(MatrixPolynomial.constant([[2.0]], 2), MatrixPolynomial.zero(2, (1, 1))),
    )
    return OperatorSpec(
        n=1, N=1, A=(one, a1), B=b, weights=WeightSequence.geometric(kappa, 16),
        Q=1.0, certificate=cert, name=name,
    )


def _spinor_scaling_operator(mu: float, kappa: float, name: str) -> OperatorSpec:
    """The 2-component operator in three spatial dimensions with a scaling drift."""
    n1 = 4
    eye2 = np.eye(2)
    pauli = [
        np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),
        np.array([[0.0, 1j], [-1j, 0.0]], dtype=complex),
        np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex),
    ]
    A = [MatrixPolynomial.constant(eye2, n1)]
    for i in range(1, 4):
        alpha_lin = tuple(1 if v == i else 0 for v in range(n1))
        A.append(MatrixPolynomial(n1, (2, 2), {
            (0, 0, 0, 0): mu * pauli[i - 1],
            alpha_lin: mu * eye2,
        }))
    B = MatrixPolynomial.zero(n1, (2, 2))
    cert = Certificate(
        xi=10.0,
        Xi=(MatrixPolynomial.constant(2.0 * eye2, n1),) +
           tuple(MatrixPolynomial.zero(n1, (2, 2)) for _ in range(3)),
    )
    return OperatorSpec(
        n=3, N=2, A=tuple(A), B=B, weights=WeightSequence.geometric(kappa, 16),
        Q=2.5, certificate=cert, name=name,
    )


FIXTURE_NAMES = ("EX1", "EX1S", "EX2", "CE-BDY", "CE-FLAT")


def fixture(name: str) -> OperatorSpec:
    """Built-in operators used throughout the test and acceptance suites.

    EX1     scalar drift d_0 + 0.5*x1*d_1 (all conditions hold)
    EX1S    EX1 shifted by -0.75 (two nonnegative strip poles)
    EX2     2-component scaling operator in three spatial dimensions
    CE-BDY  EX1 recentered so the drift points inward at x1 = -1 (violates (2))
    CE-FLAT pure time derivative (violates (3); infinite multiplicities)
    """
    if name == "EX1":
        return _scalar_affine_operator(0.5, 0.0, kappa=0.024, name="EX1")
    if name == "EX1S":
        return _scalar_affine_operator(0.5, 0.0, kappa=0.024, name="EX1S", shift=-0.75)
    if name == "EX2":
        return _spinor_scaling_operator(0.5, kappa=0.01, name="EX2")
    if name == "CE-BDY":
        return _scalar_affine_operator(0.5, -1.5, kappa=0.024, name="CE-BDY")
    if name == "CE-FLAT":
        one = MatrixPolynomial.constant([[1.0]], 2)
        zero = MatrixPolynomial.zero(2, (1, 1))
        cert = Certificate(xi=6.0, Xi=(MatrixPolynomial.constant([[2.0]], 2), zero))
        return OperatorSpec(
            n=1, N=1, A=(one, zero), B=zero,
            weights=WeightSequence.geometric(0.024, 16), Q=1.0,
            certificate=cert, name="CE-FLAT",
        )
    raise SpecError(f"unknown fixture {name!r}; available: {', '.join(FIXTURE_NAMES)}")


def spec_to_json(spec: OperatorSpec) -> dict:
    doc = {
        "name": spec.name,
        "n": spec.n,
        "N": spec.N,
        "A": [a.to_json() for a in spec.A],
        "B": spec.B.to_json(),
        "Q": spec.Q,
        "sequence": {"values": list(spec.weights.values), "Lmax": spec.L_max},
    }
    if spec.weights.kappa is not None:
        doc["sequence"] = {"kappa": spec.weights.kappa, "Lmax": spec.L_max}
    if spec.certificate is not None:
        doc["certificate"] = {
            "xi": spec.certificate.xi,
            "Xi": [x.to_json() for x in spec.certificate.Xi],
        }
    return doc
