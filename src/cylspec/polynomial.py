"""Matrix-valued multivariate polynomials with exact monomial coefficient maps."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

MultiIndex = tuple[int, ...]


@dataclass(frozen=True)
class MatrixPolynomial:
    """Polynomial in ``n_vars`` variables whose coefficients are dense complex matrices.

    Terms map a multi-index ``alpha`` to an ``(N, N)`` coefficient matrix, so the
    value at a point ``x`` is ``sum_alpha C_alpha * x**alpha``.  Evaluation and
    differentiation are exact up to floating-point arithmetic.
    """

    n_vars: int
    shape: tuple[int, int]
    terms: dict[MultiIndex, np.ndarray] = field(default_factory=dict)

    def __post_init__(self):
        if self.n_vars < 1:
            raise ValueError("n_vars must be >= 1")
        clean: dict[MultiIndex, np.ndarray] = {}
        for alpha, mat in self.terms.items():
            alpha = tuple(int(a) for a in alpha)
            if len(alpha) != self.n_vars or any(a < 0 for a in alpha):
                raise ValueError(f"bad multi-index {alpha} for n_vars={self.n_vars}")
            arr = np.asarray(mat, dtype=complex)
            if arr.shape != self.shape:
                raise ValueError(f"coefficient shape {arr.shape} != {self.shape}")
            if np.any(arr != 0):
                arr = arr.copy()
                arr.flags.writeable = False
                clean[alpha] = arr
        object.__setattr__(self, "terms", clean)

    # -- construction helpers -------------------------------------------------

    @classmethod
    def constant(cls, mat, n_vars: int) -> "MatrixPolynomial":
        arr = np.atleast_2d(np.asarray(mat, dtype=complex))
        return cls(n_vars, arr.shape, {(0,) * n_vars: arr})

    @classmethod
    def zero(cls, n_vars: int, shape: tuple[int, int]) -> "MatrixPolynomial":
        return cls(n_vars, shape, {})

    @classmethod
    def coordinate(cls, var: int, n_vars: int) -> "MatrixPolynomial":
        """The scalar monomial x^var as a 1 x 1 polynomial."""
        alpha = tuple(1 if i == var else 0 for i in range(n_vars))
        return cls(n_vars, (1, 1), {alpha: np.ones((1, 1), dtype=complex)})

    # -- algebra ---------------------------------------------------------------

    def __add__(self, other: "MatrixPolynomial") -> "MatrixPolynomial":
        self._check_compatible(other)
        terms = {a: m.copy() for a, m in self.terms.items()}
        for a, m in other.terms.items():
            terms[a] = terms.get(a, 0) + m
        return MatrixPolynomial(self.n_vars, self.shape, terms)

    def __sub__(self, other: "MatrixPolynomial") -> "MatrixPolynomial":
        return self + (other * (-1.0))

    def __mul__(self, scalar: complex) -> "MatrixPolynomial":
        return MatrixPolynomial(
            self.n_vars, self.shape, {a: scalar * m for a, m in self.terms.items()}
        )

    __rmul__ = __mul__

    def __matmul__(self, other: "MatrixPolynomial") -> "MatrixPolynomial":
        """Matrix product, convolving monomials."""
        if self.n_vars != other.n_vars or self.shape[1] != other.shape[0]:
            raise ValueError("incompatible polynomial matrix product")
        out_shape = (self.shape[0], other.shape[1])
        terms: dict[MultiIndex, np.ndarray] = {}
        for a, ma in self.terms.items():
            for b, mb in other.terms.items():
                c = tuple(x + y for x, y in zip(a, b))
                terms[c] = terms.get(c, 0) + ma @ mb
        return MatrixPolynomial(self.n_vars, out_shape, terms)

    def adjoint(self) -> "MatrixPolynomial":
        """Pointwise conjugate transpose (the variables are real)."""
        return MatrixPolynomial(
            self.n_vars, (self.shape[1], self.shape[0]),
            {a: m.conj().T for a, m in self.terms.items()},
        )

    def derivative(self, var: int) -> "MatrixPolynomial":
        terms: dict[MultiIndex, np.ndarray] = {}
        for alpha, mat in self.terms.items():
            if alpha[var] == 0:
                continue
            beta = tuple(a - 1 if i == var else a for i, a in enumerate(alpha))
            terms[beta] = terms.get(beta, 0) + alpha[var] * mat
        return MatrixPolynomial(self.n_vars, self.shape, terms)

    def derivative_multi(self, alpha: MultiIndex) -> "MatrixPolynomial":
        out = self
        for var, order in enumerate(alpha):
            for _ in range(order):
                out = out.derivative(var)
        return out

    # -- queries ---------------------------------------------------------------

    def __call__(self, point) -> np.ndarray:
        """Evaluate at a point (sequence of n_vars reals)."""
        x = np.asarray(point, dtype=float)
        if x.shape != (self.n_vars,):
            raise ValueError(f"point must have {self.n_vars} coordinates")
        out = np.zeros(self.shape, dtype=complex)
        for alpha, mat in self.terms.items():
            mono = 1.0
            for xi, ai in zip(x, alpha):
                if ai:
                    mono *= xi**ai
            out += mono * mat
        return out

    def eval_points(self, pts) -> np.ndarray:
        """Evaluate at the rows of a (P, n_vars) array; returns shape (P,) + self.shape.

        Equals ``self(pts[p])`` bit for bit: ``float_power`` is the scalar ``**``.
        """
        x = np.asarray(pts, dtype=float)
        if x.ndim != 2 or x.shape[1] != self.n_vars:
            raise ValueError(f"points must have {self.n_vars} coordinates")
        out = np.zeros((len(x),) + self.shape, dtype=complex)
        for alpha, mat in self.terms.items():
            mono = np.ones(len(x))
            for col, ai in zip(x.T, alpha):
                if ai:
                    mono = mono * np.float_power(col, ai)
            out += mono[:, None, None] * mat
        return out

    def eval_grid(self, *coords) -> np.ndarray:
        """Evaluate on a tensor grid; returns array of shape grid + self.shape."""
        grids = np.meshgrid(*coords, indexing="ij")
        pts = np.stack([g.ravel() for g in grids], axis=1)
        return self.eval_points(pts).reshape(grids[0].shape + self.shape)

    @property
    def degree(self) -> int:
        return max((sum(a) for a in self.terms), default=0)

    def var_degree(self, var: int) -> int:
        return max((a[var] for a in self.terms), default=0)

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return all(sum(a) == 0 for a in self.terms)

    def is_hermitian(self, tol: float = 0.0) -> bool:
        """Exact Hermiticity check on the monomial coefficients."""
        return all(np.max(np.abs(m - m.conj().T)) <= tol for m in self.terms.values())

    def _check_compatible(self, other: "MatrixPolynomial"):
        if self.n_vars != other.n_vars or self.shape != other.shape:
            raise ValueError("incompatible polynomials")

    # -- serialization -----------------------------------------------------------

    def to_json(self) -> list[dict]:
        out = []
        for alpha in sorted(self.terms):
            mat = self.terms[alpha]
            out.append({
                "alpha": list(alpha),
                "matrix": [[[float(v.real), float(v.imag)] for v in row] for row in mat],
            })
        return out

    @classmethod
    def from_json(cls, doc: list[dict], n_vars: int, shape: tuple[int, int]) -> "MatrixPolynomial":
        terms: dict[MultiIndex, np.ndarray] = {}
        for entry in doc:
            alpha = tuple(int(a) for a in entry["alpha"])
            mat = np.array(
                [[complex(re, im) for re, im in row] for row in entry["matrix"]],
                dtype=complex,
            )
            if mat.shape != shape:
                raise ValueError(f"matrix shape {mat.shape} != expected {shape}")
            terms[alpha] = terms.get(alpha, 0) + mat
        return cls(n_vars, shape, terms)
