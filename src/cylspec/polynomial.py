"""Matrix-valued multivariate polynomials with exact monomial coefficient maps.

Every public way in (the constructor, `constant`, `zero`, `coordinate`,
`from_json`) validates its terms: integer multi-indices of the right length,
coefficients of the right shape, copied and made read-only.  The results of
`+`, scalar `*`, `@`, `adjoint` and `derivative` are valid by construction, so
they are assembled by `_from_valid_terms` without re-checking or re-copying a
term; it only drops the coefficients that came out zero.  The admissibility
norms (`operator_model`) differentiate along one ladder (`derivatives`): each
d^alpha p from its parent by one `derivative`, built once per polynomial.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field
from types import MappingProxyType

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
        for raw, mat in self.terms.items():
            alpha = _integer_index(raw)
            if alpha is None or len(alpha) != self.n_vars or any(a < 0 for a in alpha):
                raise ValueError(f"bad multi-index {raw!r} for n_vars={self.n_vars}")
            arr = np.asarray(mat, dtype=complex)
            if arr.shape != self.shape:
                raise ValueError(f"coefficient shape {arr.shape} != {self.shape}")
            if np.any(arr != 0):
                arr = arr.copy()
                arr.flags.writeable = False
                clean[alpha] = arr
        object.__setattr__(self, "terms", clean)

    @classmethod
    def _from_valid_terms(cls, n_vars: int, shape: tuple[int, int],
                          terms: dict[MultiIndex, np.ndarray]) -> "MatrixPolynomial":
        """The polynomial of terms that are valid by construction: integer
        multi-indices of length n_vars and complex (shape) coefficients that are
        fresh or already read-only.  Zero coefficients are dropped and the rest
        made read-only, in place and in order."""
        out = object.__new__(cls)
        kept = {}
        for alpha, mat in terms.items():
            if mat.any():
                mat.flags.writeable = False
                kept[alpha] = mat
        object.__setattr__(out, "n_vars", n_vars)
        object.__setattr__(out, "shape", shape)
        object.__setattr__(out, "terms", kept)
        return out

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
        terms = dict(self.terms)
        for a, m in other.terms.items():
            terms[a] = terms.get(a, 0) + m
        return MatrixPolynomial._from_valid_terms(self.n_vars, self.shape, terms)

    def __sub__(self, other: "MatrixPolynomial") -> "MatrixPolynomial":
        return self + (other * (-1.0))

    def __mul__(self, scalar: complex) -> "MatrixPolynomial":
        return MatrixPolynomial._from_valid_terms(
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
        return MatrixPolynomial._from_valid_terms(self.n_vars, out_shape, terms)

    def adjoint(self) -> "MatrixPolynomial":
        """Pointwise conjugate transpose (the variables are real)."""
        return MatrixPolynomial._from_valid_terms(
            self.n_vars, (self.shape[1], self.shape[0]),
            {a: m.conj().T.copy() for a, m in self.terms.items()},
        )

    def derivative(self, var: int) -> "MatrixPolynomial":
        terms: dict[MultiIndex, np.ndarray] = {}
        for alpha, mat in self.terms.items():
            if alpha[var] == 0:
                continue
            beta = tuple(a - 1 if i == var else a for i, a in enumerate(alpha))
            terms[beta] = terms.get(beta, 0) + alpha[var] * mat
        return MatrixPolynomial._from_valid_terms(self.n_vars, self.shape, terms)

    def derivatives(self, order: int) -> Mapping[MultiIndex, "MatrixPolynomial"]:
        """The nonzero d^alpha p with |alpha| = order, by alpha: one level of the
        derivative ladder.

        Each d^alpha p is its parent d^{alpha - e_v} p differentiated once in v,
        the last variable with alpha_v > 0.  So it is the chain of single
        `derivative` calls in variable order (alpha_0 in x0, then alpha_1 in x1,
        ...), bit for bit.  A zero derivative ends its branch: past the degree
        the levels are empty.  The polynomial is immutable, so its levels are
        built once, kept with it and shared read-only.
        """
        if order == 0:
            return MappingProxyType({} if self.is_zero else {(0,) * self.n_vars: self})
        levels = self.__dict__.setdefault("_ladder", [])    # orders 1, 2, ...
        while len(levels) < order:
            parents = levels[-1] if levels else self.derivatives(0)
            levels.append(MappingProxyType({
                beta[:v] + (beta[v] + 1,) + beta[v + 1:]: child
                for beta, parent in parents.items()
                for v in range(_last_variable(beta), self.n_vars)
                if not (child := parent.derivative(v)).is_zero}))
        return levels[order - 1]

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

        Equals ``self(pts[p])`` bit for bit for finite coefficients:
        ``float_power`` is the scalar ``**``, and a monomial starts from its
        first power, not from 1.  A constant term's matrix is added as it is,
        and a monomial times a coefficient is added on the float view of the
        flattened output: each real and imaginary part takes one real product.
        Both can differ from ``1.0 * mat`` and numpy's complex-by-real product
        (which promotes the real factor to complex) only in the sign of a zero,
        which adding into the zero-initialized sum does not keep.
        """
        x = np.asarray(pts, dtype=float)
        if x.ndim != 2 or x.shape[1] != self.n_vars:
            raise ValueError(f"points must have {self.n_vars} coordinates")
        out = np.zeros((len(x),) + self.shape, dtype=complex)
        flat = out.reshape(len(x), self.shape[0] * self.shape[1]).view(float)
        for alpha, mat in self.terms.items():
            mono = None
            for col, ai in zip(x.T, alpha):
                if ai:
                    power = np.float_power(col, ai)
                    mono = power if mono is None else mono * power
            if mono is None:
                out += mat
            else:
                flat += mono[:, None] * mat.reshape(-1).view(float)
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
            alpha = tuple(entry["alpha"])
            mat = np.array(
                [[complex(re, im) for re, im in row] for row in entry["matrix"]],
                dtype=complex,
            )
            if mat.shape != shape:
                raise ValueError(f"matrix shape {mat.shape} != expected {shape}")
            terms[alpha] = terms.get(alpha, 0) + mat
        return cls(n_vars, shape, terms)


def _integer_index(alpha) -> MultiIndex | None:
    """alpha as a tuple of ints, or None when an entry is not an integer value."""
    try:
        ints = tuple(int(a) for a in alpha)
    except (TypeError, ValueError, OverflowError):
        return None
    return ints if ints == tuple(alpha) else None


def _last_variable(alpha: MultiIndex) -> int:
    """The last variable with a positive exponent in alpha (0 for alpha = 0)."""
    return max((v for v, a in enumerate(alpha) if a), default=0)
