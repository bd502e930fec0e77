"""Resolvent solves, pole location in the fundamental strip, and loop-integral projections.

The shifted operator D + z*A^0 is invertible far enough to the right; its
inverse, as a function of z, extends meromorphically with poles periodic under
z ~ z + i.  Poles are located as generalized eigenvalues of the collocation
pencil (D, -A^0), filtered against discretization artifacts by persistence
under resolution doubling, and reduced to the fundamental strip 0 <= Im z < 1.
Spectral projections are loop integrals of (z - lam)^l D_z^{-1}.  `find_poles`
counts the pencil's QZ eigenvalues inside each pole's loop, the same numbers its
radius keeps clear of: a loop about exactly one is a simple pole, order 1 and
rank 1 by definition, with no Schur form.  A loop about several (a cluster, such
as a defective pole) takes its order and rank (`_projection_family`) from an
ordered Schur form of A^0^{-1} base0, and the projections themselves, exactly
(`loop_projections`), come from that form for every pole; the dense trapezoid
loop integrals of `tests/reference.py` cross-check them.

Every routine works on one block pencil, `spectral.mode_operator_parts`: block q
of D + z*A^0 is base0 + (z + i*q)*A^0, one block per Fourier mode when the
coefficients do not depend on the periodic coordinate and one value-space block
otherwise.  Each pencil is factored at most once: its triangular Schur form of
A^0^{-1} base0 (`ModePencil.schur`, taken on first use) serves `_schur_solve`
for every shift and `_loop_blocks` for every pole that needs it, which reorders
it per pole for `loop_projections` and a cluster's `_projection_family`, and the
pole set carries it (`PoleSet.pencil`, `PoleSet.loop_projections`).  A pole
search whose poles are all simple never takes it: the first solve or projection
on the pole set's pencil does.  `resolvent_matrix_for` inverts
the blocks into the dense value-space resolvent that those loop integrals sum.

Block q has the eigenvalues of (base0, -A^0) shifted by -i*q and the same
eigenvectors.  `_pencil_eigenpairs` solves the working pencil with eigenvectors:
its eigenvalues and residuals are what `find_poles` reports, and `find_poles`
filters once per eigenvector, not once per block.  `_pencil_eigenvalues` (the
doubled pencil of the persistence test, and `NearPoleError.nearest`) needs
eigenvalues only.  Both follow one rule, `ModePencil.real`: a pencil with no
imaginary part (every real-coefficient mode pencil) is solved in real arithmetic
(LAPACK `dggev`, under half the cost of `zggev`) and its Schur form taken from a
real one; a complex pencil (complex coefficients, or a value-space block whose
DFT leaves roundoff imaginary parts) stays in complex arithmetic.  The Schur
factors follow the same rule one step on: when the real form splits into no
imaginary part (no 2 x 2 block, as for EX1, EX1S and CE-FLAT), S, U and left
are real, and `_schur_solve` runs its products and row updates on the float
view of the columns; a real pencil with complex factors (CE-BDY at m32) solves
on complex factors with its residual in real arithmetic.  Eigenvalues
always come from the pencil, never from the Schur form of A^0^{-1} base0: its
diagonal splits EX1 x Jordan's defective poles by up to 4.6e-6 at q4m32, where
the pencil's QZ keeps them within 6e-11.

scipy is imported in the routines that call it (the QZ eigensolves
`_finite_eigenvalues` and `_pencil_eigenpairs`, and the `ztrsen` and `ztrsyl`
of `_loop_blocks` and `loop_projections`), so importing this module, as the
CLI does, loads numpy alone; the admissibility checks and the time engine
never load scipy.linalg.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np

from .operator_model import OperatorSpec, SpecError
from .spectral import (
    ModePencil,
    SpectralBasis,
    build_basis,
    chebyshev_coefficients,
    mode_operator_parts,
    random_band_limited,
)

ORDER_TOL = 1e-9
PERSIST_TOL = 1e-6
# eigenvalues this close (on the cylinder) belong to one pole
CLUSTER_TOL = max(1e-5, 10 * PERSIST_TOL)


class NearPoleError(ValueError):
    """A resolvent solve at shift z failed its residual check.

    A pole at z is one cause; an ill-conditioned (non-normal) operator far from
    any pole is another.  `nearest` is the nearest pencil eigenvalue and
    `distance` = |z - nearest| tells the two apart.
    """

    def __init__(self, z: complex, nearest: complex | None, residual: float):
        self.z = z
        self.nearest = nearest
        self.residual = residual
        self.distance = None if nearest is None else abs(z - nearest)
        msg = f"resolvent solve at z={z} failed its residual check (residual {residual:.3g})"
        if nearest is not None:
            msg += f"; nearest pencil eigenvalue {nearest} at distance {self.distance:.3g}"
        super().__init__(msg)


class PolesRightOfWindowError(SpecError):
    """Persistent pencil eigenvalues right of the pole window's `edge`, as one strip
    representative per pole (`eigenvalues`).  Right of the energy threshold z*, the
    CLI's edge, none can lie: the spec is not admissible or the grid misses them."""

    def __init__(self, edge: float, right: tuple[complex, ...]):
        self.edge = edge
        self.eigenvalues = tuple(_strip_point(right[cl[0]]) for cl in _strip_clusters(right))
        named = ", ".join(str(complex(round(z.real, 6) + 0.0, round(z.imag, 6) + 0.0))
                          for z in self.eigenvalues)
        super().__init__(f"{len(self.eigenvalues)} strip poles lie right of the pole window "
                         f"(Re z > {edge:g}): {named}")


def resolvent_matrix_for(spec: OperatorSpec, basis: SpectralBasis, z: complex) -> np.ndarray:
    """Dense value-space resolvent at shift z: the inverses of the blocks
    base0 + (z + i*q)*a0, refined by one Newton step and conjugated by the pencil's
    synthesis matrix (the DFT for mode blocks).

    Raises NearPoleError when the blocks are numerically singular.
    """
    pencil = mode_operator_parts(spec, basis)
    blocks = pencil.base0 + (1j * pencil.modes)[:, None, None] * pencil.a0 + z * pencil.a0
    try:
        inv = np.linalg.inv(blocks)
    except np.linalg.LinAlgError:
        raise NearPoleError(complex(z), _nearest_mode_pole(pencil, z), np.inf) from None
    ident = np.eye(blocks.shape[-1], dtype=complex)
    inv = inv + inv @ (ident - blocks @ inv)
    residual = np.linalg.norm(ident - blocks @ inv, axis=(-2, -1)).max()
    if not residual <= 1e-6 * math.sqrt(blocks.shape[-1]):
        raise NearPoleError(complex(z), _nearest_mode_pole(pencil, z), float(residual))
    V = pencil.synthesis()
    big = np.einsum("jq,kq,qab->jakb", V, V.conj() / len(V), inv, optimize=True)
    size = big.shape[0] * big.shape[1]
    return big.reshape(size, size)


def _mode_batched(spec: OperatorSpec, basis: SpectralBasis, z, f: np.ndarray,
                  modal, pencil: ModePencil | None = None) -> np.ndarray:
    """Shift batching for apply_resolvent and apply_operator: z is a shift (a batch
    of one) or a 1-D array of shifts, f one grid function per shift or one for all.

    modal(pencil, w, cols) gets one block column per block base0 + w*a0,
    w = z_k + i*q of shape (shifts, blocks) (so w[:, 0] are the shifts).  The
    pencil of (spec, basis) is built unless the caller passes it.
    """
    if pencil is None:
        pencil = mode_operator_parts(spec, basis)
    zs = np.atleast_1d(np.asarray(z, dtype=complex))
    shape = pencil.grid_shape
    f = np.asarray(f, dtype=complex)
    if zs.ndim != 1 or f.shape[-3:] != shape:
        raise ValueError(f"need a shift or 1-D shifts and grid functions of shape {shape}")
    fs = np.broadcast_to(f, zs.shape + shape)
    w = zs[:, None] + 1j * pencil.modes
    n = len(pencil.a0)
    cols = pencil.columns(fs).reshape(w.size, n).T
    out = pencil.grid(modal(pencil, w, cols).T.reshape(w.shape + (n,)))
    return out if np.ndim(z) else out[0]


def _schur_solve(pencil: ModePencil, w: np.ndarray, rhs: np.ndarray,
                 node: np.ndarray) -> np.ndarray:
    """Solve (base0 + w_j*a0) u_j = rhs_j for every column j from the pencil's Schur
    form a0^{-1} base0 = U S U^H: a back-substitution with the pivots S_kk + w_j
    (formed once) per column, then one refinement step against the true blocks,
    its residual built in place.  Real factors (`ModePencil.schur`) multiply on
    the float view of the columns, and so does a real pencil's residual.

    Column j belongs to node node[j] (0, 1, ..), whose first column is at its shift
    (mode 0).  The first node whose relative residual over its columns exceeds
    1e-10, or is NaN, raises NearPoleError at that shift; its nearest pole
    -S_kk - i*q is the shift minus the node's smallest pivot S_kk + w."""
    tri, U, left = pencil.schur
    base0, a0 = pencil.parts
    rhs = np.ascontiguousarray(rhs, dtype=complex)
    pivots = np.diag(tri)[:, None] + w

    def flat(x):
        return x.view(float) if tri.dtype == float else x

    def solve(r):
        y = (left @ flat(r)).view(complex)
        yf = flat(y)
        for k in range(len(tri) - 1, -1, -1):
            yf[k] -= tri[k, k + 1:] @ yf[k + 1:]
            y[k] /= pivots[k]
        return (U @ yf).view(complex)

    def residual(u):
        v = u.view(float) if pencil.real else u
        r = (a0 @ v).view(complex)
        r *= w
        r += (base0 @ v).view(complex)
        return np.subtract(rhs, r, out=r)

    def by_node(x):
        # squares overflow past about 1e154 and lose bits below about 1e-154: a node
        # whose sum of squares leaves (1e-290, 1e290) is summed again, its entries
        # scaled by the power of two that puts its largest in [0.5, 1)
        sq = np.bincount(node, np.linalg.norm(x, axis=0) ** 2)
        if np.all((1e-290 < sq) & (sq < 1e290)):
            return np.sqrt(sq)
        peak = np.zeros(len(sq))
        np.maximum.at(peak, node, np.abs(x).max(axis=0))
        scale = -np.frexp(peak)[1]
        parts = np.ldexp(x.real, scale[node]) ** 2 + np.ldexp(x.imag, scale[node]) ** 2
        return np.ldexp(np.sqrt(np.bincount(node, parts.sum(axis=0))), -scale)

    with np.errstate(all="ignore"):
        u = solve(rhs)
        u += solve(residual(u))
        rel = by_node(residual(u)) / np.maximum(by_node(rhs), 1e-300)
    bad = np.flatnonzero(~(rel <= 1e-10))
    if bad.size:
        cols = np.flatnonzero(node == bad[0])
        z = w[cols[0]]
        near = pivots[:, cols].ravel()
        raise NearPoleError(complex(z), complex(z - near[np.argmin(np.abs(near))]),
                            float(rel[bad[0]]))
    return u


def apply_resolvent(spec: OperatorSpec, basis: SpectralBasis, z, f: np.ndarray, *,
                    pencil: ModePencil | None = None) -> np.ndarray:
    """u = (D + z*A^0)^{-1} f without forming the inverse, batched over shifts
    (_mode_batched) and solved by _schur_solve, one node per shift.  Callers that
    solve more than once pass the pencil of (spec, basis), so its Schur form is
    taken once."""
    def modal(p, w, cols):
        return _schur_solve(p, w.reshape(-1), cols, np.repeat(np.arange(len(w)), w.shape[1]))

    return _mode_batched(spec, basis, z, f, modal, pencil)


def apply_operator(spec: OperatorSpec, basis: SpectralBasis, z, u: np.ndarray, *,
                   pencil: ModePencil | None = None) -> np.ndarray:
    """(D + z*A^0) u, batched over shifts and on the pencil if passed, like apply_resolvent."""
    return _mode_batched(spec, basis, z, u, lambda p, w, c: p.apply(w.reshape(-1), c.T).T,
                         pencil)


def _mode_shifted(vals: np.ndarray, modes: np.ndarray) -> np.ndarray:
    """(blocks, n): the eigenvalues vals of (base0, -a0) shifted by -i*q into each
    block, written through .real/.imag so a zero keeps its sign."""
    out = np.empty((len(modes), vals.size), dtype=complex)
    out.real = vals.real
    out.imag = vals.imag - modes[:, None]
    return out


def _finite_eigenvalues(pencil: ModePencil) -> np.ndarray:
    """Finite eigenvalues of (base0, -a0), without eigenvectors."""
    import scipy.linalg

    base0, a0 = pencil.parts
    vals = scipy.linalg.eig(base0, -a0, right=False)
    return vals[np.isfinite(vals)]


def _pencil_eigenvalues(pencil: ModePencil) -> np.ndarray:
    """Every finite pencil eigenvalue: those of (base0, -a0) shifted by -i*q, mode by
    mode (mode-major, like `PencilEigenpairs.eigenvalues`)."""
    return _mode_shifted(_finite_eigenvalues(pencil), pencil.modes).reshape(-1)


def _nearest_mode_pole(pencil: ModePencil, z: complex) -> complex | None:
    """Pencil eigenvalue nearest to z over all blocks."""
    candidates = _pencil_eigenvalues(pencil)
    if candidates.size == 0:
        return None
    return complex(candidates[np.argmin(np.abs(candidates - z))])


# ---------------------------------------------------------------------------
# pole detection
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Pole:
    lam: complex          # strip representative, 0 <= Im < 1
    order: int
    rank: int
    residual: float
    source: complex       # detected (unreduced) location used for the loop integral
    radius: float         # loop radius about source (_loop_radius)

    def to_json(self) -> dict:
        return {
            "re": self.lam.real, "im": self.lam.imag, "order": self.order,
            "rank": self.rank, "residual": self.residual,
        }


@dataclass(frozen=True)
class PoleSet:
    poles: tuple[Pole, ...]
    window: tuple[float, float]
    z_star_star: float
    z_star_star_star: float
    # strip poles with Re >= -PERSIST_TOL (drives the finite-rank part): a pole at 0
    # may come out a few ulps negative, and an extra mode in F f is harmless
    nonneg: tuple[Pole, ...]
    raw_eigenvalues: tuple[complex, ...]  # filtered, unreduced, window-restricted
    pencil: ModePencil = field(compare=False, repr=False)  # find_poles' factored pencil
    edge_flag: bool = False
    # persistent eigenvalues right of the window, unreduced, by decreasing real part:
    # poles that z** and the finite-rank part do not see (check_right_edge)
    right_of_window: tuple[complex, ...] = ()

    def check_right_edge(self) -> None:
        """Raise PolesRightOfWindowError when a persistent eigenvalue lies right of
        the window: the poles found are then not all the poles right of re_min."""
        if self.right_of_window:
            raise PolesRightOfWindowError(self.window[1], self.right_of_window)

    def pencil_on(self, basis: SpectralBasis, N: int) -> ModePencil:
        """`pencil`, which must be on the grid of basis with N components."""
        shape = (basis.n_time, basis.n_space, N)
        if self.pencil.grid_shape != shape:
            raise ValueError(f"pole set on grid {self.pencil.grid_shape}, basis grid {shape}")
        return self.pencil

    @cached_property
    def loop_projections(self) -> tuple[list[tuple], ...]:
        """`loop_projections` about each pole of `nonneg`, in order, taken on first use."""
        return tuple(loop_projections(self.pencil, p.source, p.radius) for p in self.nonneg)

    def to_json(self) -> dict:
        return {
            "window": {"re_min": self.window[0], "re_max": self.window[1]},
            "z_star_star": self.z_star_star,
            "z_star_star_star": self.z_star_star_star,
            "n_nonneg": len(self.nonneg),
            "edge_flag": self.edge_flag,
            "poles": [p.to_json() for p in self.poles],
        }


@dataclass(frozen=True)
class PencilEigenpairs:
    """The finite eigenpairs of (base0, -a0), which every block of the pencil shares:
    block q has the eigenvalues vals - i*q with the same eigenvectors.  Its length
    is the number of (mode, eigenvalue) pairs."""

    pencil: ModePencil
    vals: np.ndarray        # (n,) finite eigenvalues
    vecs: np.ndarray        # (size, n) their eigenvectors
    residuals: np.ndarray   # (n,) ||(base0 + z*a0) v|| / ||v||

    def __len__(self) -> int:
        return len(self.pencil.modes) * len(self.vals)

    @property
    def eigenvalues(self) -> np.ndarray:
        """(blocks, n): the eigenvalues of each block."""
        return _mode_shifted(self.vals, self.pencil.modes)


def _pencil_eigenpairs(spec: OperatorSpec, basis: SpectralBasis) -> PencilEigenpairs:
    """Generalized eigenvalues z of (D + z*A^0) v = 0 with eigenvectors, from one
    eigensolve of (base0, -A^0) on the pencil of (spec, basis) in its arithmetic
    (`ModePencil.parts`), and every residual from one product."""
    import scipy.linalg

    pencil = mode_operator_parts(spec, basis)
    base0, a0 = pencil.parts
    vals, vecs = scipy.linalg.eig(base0, -a0)
    finite = np.flatnonzero(np.isfinite(vals))
    vals, vecs = vals[finite], vecs[:, finite]
    residuals = np.linalg.norm(base0 @ vecs + (a0 @ vecs) * vals, axis=0) \
        / np.maximum(np.linalg.norm(vecs, axis=0), 1e-300)
    return PencilEigenpairs(pencil, vals, vecs, residuals)


def _chebyshev_tails_clean(vecs: np.ndarray, basis: SpectralBasis, N: int) -> np.ndarray:
    """Per eigenvector (column of vecs): False when its Chebyshev tail does not decay
    (a discretization artifact).

    Only meaningful at moderate resolution; skipped for tiny grids where genuine
    low-degree eigenfunctions occupy the whole coefficient range.
    """
    nx, count = basis.n_space, vecs.shape[1]
    if nx < 8:
        return np.ones(count, dtype=bool)
    # (slice, node, component) per vector: one slice for a mode block's vector
    slices = len(vecs) // (nx * N)
    coeff = chebyshev_coefficients(np.moveaxis(vecs.reshape(slices, nx, N, count), 1, 0))
    mags = np.abs(coeff)
    cut = nx - nx // 4
    return mags[cut:].max(axis=(0, 1, 2)) <= 1e-8 * (mags.max(axis=(0, 1, 2)) + 1e-300)


def _persistent(vals: np.ndarray, modes: np.ndarray, fine: ModePencil) -> np.ndarray:
    """(blocks, n): whether the block eigenvalue vals[k] - i*modes[b] lies within
    PERSIST_TOL of an eigenvalue of the doubled pencil `fine`.

    Block eigenvalues are the mode-0 ones shifted by -i*q, and
    |(f - i*q') - (v - i*q)| = |f - v - i*(q' - q)|, so the test runs on the mode-0
    spectra (n x n_fine differences) and lifts to the modes by the integer offset
    s = q' - q, which is rint(Im(f - v)) for any pair within PERSIST_TOL < 1/2:
    block q persists when some close pair's q + s is a mode of `fine`.
    """
    diff = _finite_eigenvalues(fine)[None, :] - vals[:, None]
    offset = np.rint(diff.imag)
    rows, cols = np.nonzero(np.hypot(diff.real, diff.imag - offset) <= PERSIST_TOL)
    out = np.zeros((len(modes), len(vals)), dtype=bool)
    np.logical_or.at(out, (slice(None), rows),
                     np.isin(modes[:, None] + offset[rows, cols], fine.modes))
    return out


@lru_cache(maxsize=8)
def _doubled_basis(Q_max: int, M: int) -> SpectralBasis:
    """The persistence test's basis, Q_max + 2 and 2M, built once per (Q_max, M)."""
    return build_basis(Q_max + 2, 2 * M)


def find_poles(spec: OperatorSpec, basis: SpectralBasis,
               window: tuple[float, float] = (-2.2, 2.2),
               *, compute_projections: bool = True) -> PoleSet:
    """Locate poles of the resolvent in a real-part window, reduced to the strip.

    Candidates are generalized eigenvalues of the collocation pencil; spurious
    ones are removed by requiring persistence (within PERSIST_TOL) under a
    resolution doubling M -> 2M, Q_max -> Q_max + 2 (eigenvalues only) and a clean
    Chebyshev tail.  Every block shares the eigenvectors of (base0, -A^0), so the
    window and tail tests run once per eigenvector and persistence once on the
    mode-0 spectra (`_persistent`).  Survivors are deduplicated modulo z ~ z + i
    using interior modes; each strip pole gets a loop radius (_loop_radius) and the
    order and rank of its loop projection.  A loop about one QZ eigenvalue
    (`eigenvalues`, whose gaps set the radius) is a simple pole, order 1 and rank 1;
    only a loop about several takes the Schur form (_projection_family), which
    `decompose` and the resolvent solves otherwise take on first use.  With
    compute_projections=False every pole reads order 1, rank 0.  A pole with
    Re >= -PERSIST_TOL counts as nonnegative.  Persistent eigenvalues right of the
    window are kept in `right_of_window` for `PoleSet.check_right_edge`.
    """
    re_min, re_max = window
    pad = 10 * PERSIST_TOL
    pairs = _pencil_eigenpairs(spec, basis)
    pencil, vals = pairs.pencil, pairs.vals
    modes = pencil.modes
    persistent = _persistent(
        vals, modes, mode_operator_parts(spec, _doubled_basis(basis.Q_max, basis.M)))
    eigenvalues = pairs.eigenvalues

    candidate = persistent & ((re_min - pad <= vals.real) & (vals.real <= re_max + pad))
    tested = np.flatnonzero(candidate.any(axis=0))
    candidate[:, tested] &= _chebyshev_tails_clean(pairs.vecs[:, tested], basis, spec.N)
    edge = (np.abs(modes) == basis.Q_max) & (basis.Q_max > 0)
    edge_flag = bool(candidate[edge].any())
    blocks, idx = np.nonzero(candidate & ~edge[:, None])
    kept = [(complex(eigenvalues[b, k]), float(pairs.residuals[k]))
            for b, k in zip(blocks, idx)]

    kept.sort(key=lambda t: (-t[0].real, t[0].imag))
    raw = tuple(z for z, _r in kept)

    reps = []
    for cl in _strip_clusters([z for z, _r in kept]):
        # interior-most member (smallest |Im|) anchors the loop integral
        src = min((kept[k][0] for k in cl), key=lambda z: abs(z.imag))
        reps.append((_strip_point(src), src, min(kept[k][1] for k in cl)))

    poles = []
    right = eigenvalues[persistent & (vals.real > re_max + pad)]
    flat = eigenvalues.ravel()
    for lam, src, res in reps:
        others = [o for o, _s, _r in reps if o != lam]
        radius = _loop_radius(lam, src, others, flat)
        if not compute_projections:
            order, rank = 1, 0
        elif np.count_nonzero(np.abs(flat - src) < radius) == 1:
            order, rank = 1, 1   # one eigenvalue in the loop: a simple pole
        else:
            order, rank = _projection_family(pencil, src, radius)
        poles.append(Pole(lam=lam, order=order, rank=rank, residual=res, source=src,
                          radius=radius))

    poles.sort(key=lambda p: (-p.lam.real, p.lam.imag))
    pole_res = [p.lam.real for p in poles]
    z_ss = max(pole_res, default=-np.inf)
    z_sss = max((r for r in pole_res if r < -PERSIST_TOL), default=-np.inf)
    nonneg = tuple(p for p in poles if p.lam.real >= -PERSIST_TOL)
    return PoleSet(
        poles=tuple(poles), window=(re_min, re_max), z_star_star=z_ss, pencil=pencil,
        z_star_star_star=z_sss, nonneg=nonneg, raw_eigenvalues=raw, edge_flag=edge_flag,
        right_of_window=tuple(right[np.argsort(-right.real, kind="stable")].tolist()),
    )


def _strip_clusters(zs) -> list[list[int]]:
    """Indices of zs grouped into poles: each joins the first cluster whose first
    member (its head) lies within CLUSTER_TOL on the cylinder.  Heads come in index
    order, so each point that no earlier head owns is a head and claims the unowned
    points near it (all later ones), from one matrix of pairwise distances."""
    z = np.asarray(zs, dtype=complex).reshape(-1)
    near = _strip_distance(z[:, None], z) <= CLUSTER_TOL
    owned = np.zeros(len(z), dtype=bool)
    clusters = []
    for head in range(len(z)):
        if not owned[head]:
            members = np.flatnonzero(near[head] & ~owned)
            owned[members] = True
            clusters.append(members.tolist())
    return clusters


def _strip_point(z: complex) -> complex:
    """z reduced modulo i into 0 <= Im < 1, an edge within 1e-12 taken as Im 0."""
    lam = complex(z.real, z.imag - math.floor(z.imag))
    return complex(lam.real, 0.0) if min(lam.imag, 1.0 - lam.imag) < 1e-12 else lam


def _strip_distance(a, b):
    """Distance on the cylinder C / (z ~ z + i), elementwise on arrays."""
    d_im = np.abs(np.imag(a) - np.imag(b)) % 1.0
    return np.hypot(np.real(a) - np.real(b), np.minimum(d_im, 1.0 - d_im))


def _loop_radius(lam: complex, source: complex, others: list[complex],
                 eigenvalues: np.ndarray) -> float:
    """min(0.2, half the distance to the nearest other strip pole or pencil
    eigenvalue): the loop about `source` keeps clear of every eigenvalue outside
    its cluster, whether the filter kept it or not."""
    gaps = np.abs(eigenvalues - source)
    dist = np.concatenate([_strip_distance(lam, np.asarray(others, dtype=complex)),
                           gaps[gaps > CLUSTER_TOL]])
    return float(min(0.2, 0.5 * dist.min(initial=math.inf)))


# ---------------------------------------------------------------------------
# loop-integral projections
# ---------------------------------------------------------------------------


def _loop_blocks(pencil: ModePencil, center: complex, radius: float):
    """(block index, S, V, k) per block with eigenvalues inside the loop about
    `center`: block q sees the k eigenvalues t of T = a0^{-1} base0 with -t - i*q
    inside it, and the pencil's Schur form of T reordered to put them first
    (LAPACK `ztrsen`, the step schur(T, sort=) takes after this same
    factorization) is V S V^H."""
    import scipy.linalg

    tri, U, _left = pencil.schur
    inside = np.abs(-np.diag(tri) - 1j * pencil.modes[:, None] - center) < radius
    for b in np.flatnonzero(inside.any(axis=1)).tolist():
        S, V = scipy.linalg.lapack.ztrsen(inside[b], tri, U, job="N", wantq=1)[:2]
        yield b, S, V, int(inside[b].sum())


def loop_projections(pencil: ModePencil, center: complex, radius: float) -> list[tuple]:
    """The loop projections P_j = (2*pi*i)^{-1} x loop integral of (z - center)^j D_z^{-1}
    about `center`, exactly, as one factorization per block.

    Block q is a0 (T + (z + i*q) I) with T = a0^{-1} base0, so the loop sees T's
    invariant subspace of the eigenvalues inside it.  With the reordered Schur
    form V [S11 S12; 0 S22] V^H of `_loop_blocks`, the Sylvester solve
    S11 Y - Y S22 = S12 (`ztrsyl`) gives the spectral projector
    Pi_q = V [I Y; 0 0] V^H.  On its range D_z^{-1} = (N_q + z - center)^{-1} a0^{-1}
    with N_q = T + center + i*q, so P_j = (-N_q)^j Pi_q a0^{-1}.  Returns (block
    index, V[:, :k], S11, [I Y] V^H a0^{-1}) per block with eigenvalues inside the
    loop.
    """
    import scipy.linalg

    _tri, U, left = pencil.schur
    out = []
    for b, S, V, k in _loop_blocks(pencil, center, radius):
        Y, scale = scipy.linalg.lapack.ztrsyl(S[:k, :k], S[k:, k:], S[:k, k:], isgn=-1)[:2]
        coords = np.hstack([np.eye(k), Y / scale]) @ (V.conj().T @ U) @ left
        out.append((b, V[:, :k], S[:k, :k], coords))
    return out


def _projection_family(pencil: ModePencil, center: complex, radius: float) -> tuple[int, int]:
    """Order and rank of the loop projections about a pole.

    Per block with k eigenvalues inside the loop (`_loop_blocks`) the rank grows by
    k; the order is the smallest l with ||N^l|| <= ORDER_TOL * radius^l for
    N = S11 minus the mean of its diagonal (the cluster mean, not one eigenvalue: a
    split defective eigenvalue then leaves N^2 at roundoff), the largest over the
    blocks.
    """
    order, rank = 1, 0
    for _b, S, _V, k in _loop_blocks(pencil, center, radius):
        lead = S[:k, :k]
        nil = lead - np.trace(lead) / k * np.eye(k)
        ell, power = 1, nil
        while ell <= 8 and np.linalg.norm(power) > ORDER_TOL * radius ** ell:
            ell, power = ell + 1, power @ nil
        order, rank = max(order, ell), rank + k
    return order, rank


# ---------------------------------------------------------------------------
# bound checks
# ---------------------------------------------------------------------------


def triple_norm_bound_check(spec: OperatorSpec, basis: SpectralBasis,
                            samples: int = 100, *, seed: int = 0) -> dict:
    """Sampled check of the graded resolvent bound against random band-limited data.

    At the real shift z = z* + 0.1, where the general bound's factor
    exp(2 r_1 |Im z|) is 1, the bound reads for each sample u
        |||u|||_0 <= 2 * (xi + 1/R + |Xi|_0 r_1) * |||D_z u|||_1
    plus truncation slack; the report carries the worst observed ratio.
    """
    from .norms import triple_norm
    from .operator_model import certificate_norm, stability_constants

    consts = stability_constants(spec)
    if spec.weights.r(1) > consts.rho_star * (1 + 1e-12):
        raise SpecError(
            f"r_1 = {spec.weights.r(1)} exceeds the smallness threshold {consts.rho_star}"
        )
    z = consts.z_star + 0.1
    r1 = spec.weights.r(1)
    const = 2.0 * (spec.certificate.xi + 1.0 / consts.R + certificate_norm(spec) * r1)

    rng = np.random.default_rng(seed)
    worst = 0.0
    failures = 0
    for _ in range(samples):
        u = random_band_limited(basis, rng, spec.N)
        lhs = triple_norm(u, 0, spec, basis)
        du = apply_operator(spec, basis, z, u)
        rhs = triple_norm(du, 1, spec, basis)
        slack = lhs.tail_bound + const * rhs.tail_bound + 1e-12
        bound = const * rhs.value + slack
        ratio = lhs.value / bound
        worst = max(worst, ratio)
        if lhs.value > bound:
            failures += 1
    return {
        "constant": const, "z": z, "samples": samples,
        "worst_ratio": worst, "failures": failures, "passed": failures == 0,
    }
