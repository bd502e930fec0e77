"""The four benchmark workloads: seeded inputs, one timed pass, and its checks.

Each workload has three parts:

* `inputs(seed)` draws plain data (numbers and config documents) from the
  seed.  The seed changes the inputs, never the amount of work.
* `setup(inputs)` builds what the pass needs through the public library API.
* `run_pass(state)` does the timed work once and returns a `PassResult`:
  the numeric outputs (compared bit for bit between passes), one `Outcome`
  per operation, and diagnostics.

An operation is one pole set, one decomposition, one growth report, one
cross-engine delta or one admissibility report.  It fails when it raises or
misses its check.  A failure is `hard` when it is not a tolerance miss on an
approximate number: an exception, or a wrong count, order, rank, verdict or
witness.

The library is imported as modules and called through module attributes, so
the tracer's patches (see spans.py) see every call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from cylspec import operator_model, resolvent, spectral, stability, timedomain

PERIOD = 2.0 * math.pi

# acceptance tolerances
POLE_TOL = 1e-6          # pole positions against the exact lattice
RAW_EIG_TOL = 1e-4       # filtered raw eigenvalues against the exact lattice
DEFECT_TOL = 1e-6        # kernel defect of the finite-rank part
RATE_TOL = 0.025         # |fitted rate + 0.25|: 10% of the decay rate
PERIODIZE_TOL = 1e-5     # periodize against the direct resolvent solve
EVOLVE_TOL = 1e-3        # forced RK4 evolution against the segment solve
PLATEAU_TOL = 0.05       # |growth rate| of a neutral (modal or plateau) evolution
WITNESS_TOL = 1e-12      # witness eigenvalues against their closed form


@dataclass
class Outcome:
    name: str
    ok: bool
    hard: bool
    detail: str


@dataclass
class PassResult:
    outputs: list = field(default_factory=list)
    outcomes: list = field(default_factory=list)
    diagnostics: dict = field(default_factory=dict)


def _poly(alpha, value) -> list:
    return [{"alpha": list(alpha), "matrix": [[[float(value), 0.0]]]}]


def affine_doc(x_star: float = 0.0, shift: float = 0.0, name: str = "") -> dict:
    """Config document of d0 + 0.5 (x1 - x_star) d1 + shift, with EX1's certificate."""
    a1 = _poly((0, 1), 0.5) + (_poly((0, 0), -0.5 * x_star) if x_star else [])
    return {
        "name": name, "n": 1, "N": 1,
        "A": [_poly((0, 0), 1.0), a1],
        "B": _poly((0, 0), shift) if shift else [],
        "Q": 1.0,
        "sequence": {"kappa": 0.024, "Lmax": 16},
        "certificate": {"xi": 6.0, "Xi": [_poly((0, 0), 2.0), []]},
    }


def _strip_err(z: complex, target: complex) -> float:
    d_im = abs(z.imag - target.imag) % 1.0
    return math.hypot(z.real - target.real, min(d_im, 1.0 - d_im))


def _attempt(result: PassResult, name: str, fn):
    """Run one operation, `fn() -> (ok, hard, detail)`, and record its outcome.

    An exception is a hard failure of that operation.
    """
    try:
        ok, hard, detail = fn()
    except Exception as exc:  # noqa: BLE001 - every library error counts as a failed operation
        ok, hard, detail = False, True, f"{type(exc).__name__}: {exc}"
    result.outcomes.append(Outcome(name, ok, hard, detail))


# ---------------------------------------------------------------------------
# spectrum: pole location with loop projections
# ---------------------------------------------------------------------------


class Spectrum:
    """find_poles with projections on a seeded shifted EX1, plus criterion 1 on EX1."""

    name = "spectrum"
    setup_repeats = 3
    Q_MAX, M = 8, 32

    @staticmethod
    def inputs(seed: int) -> dict:
        rng = np.random.default_rng([seed, 1])
        s = float(rng.uniform(-0.9, -0.6))
        return {"shift": s, "config": affine_doc(shift=s, name="EX1-shifted")}

    def setup(self, inputs: dict) -> dict:
        s = inputs["shift"]
        return {
            "shift": s,
            "spec": operator_model.load_spec(inputs["config"]),
            "window": (-s - 2.25, -s + 0.25),
            "basis": spectral.build_basis(self.Q_MAX, self.M),
            "ex1": operator_model.fixture("EX1"),
            "basis_c1": spectral.build_basis(4, 32),
        }

    @staticmethod
    def expected_poles(shift: float) -> list[complex]:
        """Strip poles of d0 + 0.5 x1 d1 + s in (-s-2.25, -s+0.25): -s - p/2, p = 0..4."""
        return [complex(-shift - 0.5 * p, 0.0) for p in range(5)]

    def run_pass(self, state: dict) -> PassResult:
        result = PassResult()
        worst = [0.0]

        def one(spec, basis, window, shift):
            ps = resolvent.find_poles(spec, basis, window=window)
            result.outputs.append(np.array([[p.lam, p.order, p.rank, p.residual]
                                            for p in ps.poles], dtype=complex))
            result.outputs.append(np.array(ps.raw_eigenvalues, dtype=complex))
            expected = self.expected_poles(shift)
            if len(ps.poles) != len(expected):
                return False, True, f"{len(ps.poles)} poles, expected 5"
            lams = sorted((p.lam for p in ps.poles), key=lambda z: -z.real)
            err = max(_strip_err(z, e) for z, e in zip(lams, expected))
            lattice = np.array([-shift - 0.5 * p - 1j * q
                                for p in range(12) for q in range(-basis.Q_max, basis.Q_max + 1)])
            raw_err = max((float(np.abs(lattice - z).min()) for z in ps.raw_eigenvalues),
                          default=0.0)
            worst[0] = max(worst[0], err)
            simple = all(p.order == 1 and p.rank == 1 for p in ps.poles)
            ok = simple and err <= POLE_TOL and raw_err <= RAW_EIG_TOL
            return (ok, not simple,
                    f"pole err {err:.2e}, raw eig err {raw_err:.2e}, simple rank 1: {simple}")

        _attempt(result, "poles shifted EX1", lambda: one(
            state["spec"], state["basis"], state["window"], state["shift"]))
        _attempt(result, "poles EX1 criterion 1", lambda: one(
            state["ex1"], state["basis_c1"], (-2.2, 1.0), 0.0))
        result.diagnostics["resolvent.pole_err_max"] = worst[0]
        return result


# ---------------------------------------------------------------------------
# green: a forcing sweep over a cached pole set
# ---------------------------------------------------------------------------


class Green:
    """decompose for seeded forcings against the EX1S q16m32 pole set built in set-up."""

    name = "green"
    setup_repeats = 1        # the pole set with projections is the whole set-up cost
    N_FORCINGS = 6

    @staticmethod
    def inputs(seed: int) -> dict:
        """Forcings around the CLI default (bump at 3 pi, width pi, sigma 0.4).

        Half use the time_bump profile and half the time_gaussian profile.
        """
        rng = np.random.default_rng([seed, 2])
        docs = []
        for k in range(Green.N_FORCINGS):
            center = float(rng.uniform(2.5 * math.pi, 3.5 * math.pi))
            if k % 2 == 0:
                time_doc = {"time_bump": {"center": center,
                                          "width": float(rng.uniform(0.8, 1.2) * math.pi)}}
            else:
                time_doc = {"time_gaussian": {"center": center,
                                              "sigma": float(rng.uniform(0.5, 0.9))}}
            docs.append({**time_doc, "space": {"type": "gaussian",
                                               "sigma": float(rng.uniform(0.3, 0.5))}})
        return {"forcings": docs}

    def setup(self, inputs: dict) -> dict:
        spec = operator_model.fixture("EX1S")
        basis = spectral.build_basis(16, 32)
        return {
            "spec": spec, "basis": basis,
            "pole_set": resolvent.find_poles(spec, basis, window=(-2.2, 2.2)),
            "forcings": [stability.make_forcing(basis, doc, N=spec.N)
                         for doc in inputs["forcings"]],
        }

    def run_pass(self, state: dict) -> PassResult:
        result = PassResult()
        defects, rate_errs = [], []
        used, evaluated = [0], [0]

        def one(forcing):
            dec = stability.decompose(state["spec"], state["basis"], forcing,
                                      state["pole_set"], n_loop_nodes=32)
            result.outputs += [np.array([dec.fitted_rate, dec.kernel_defect, dec.rank]),
                               dec.difference.values, dec.used_slices]
            rate_err = abs(dec.fitted_rate + 0.25)
            defects.append(dec.kernel_defect)
            rate_errs.append(rate_err)
            used[0] += int(dec.used_slices.sum())
            evaluated[0] += len(dec.used_slices)
            structure = dec.n_nonneg == 2 and dec.rank == 2
            ok = structure and dec.kernel_defect <= DEFECT_TOL and rate_err <= RATE_TOL
            return (ok, not structure,
                    f"|Λ|={dec.n_nonneg}, rank F={dec.rank}, rate {dec.fitted_rate:.4f}, "
                    f"kernel defect {dec.kernel_defect:.1e}")

        for k, forcing in enumerate(state["forcings"]):
            _attempt(result, f"decompose forcing {k}", lambda: one(forcing))
        result.diagnostics["stability.kernel_defect_max"] = max(defects, default=0.0)
        result.diagnostics["stability.rate_err_max"] = max(rate_errs, default=0.0)
        result.diagnostics["stability.decompose.slices_used_ratio"] = \
            used[0] / evaluated[0] if evaluated[0] else 0.0
        return result


# ---------------------------------------------------------------------------
# evolve: the time-domain engine
# ---------------------------------------------------------------------------


class Evolve:
    """RK4 work of `cylspec evolve` and `compare`: growth reports and cross-engine deltas."""

    name = "evolve"
    setup_repeats = 3
    PERIODS = 10

    @staticmethod
    def inputs(seed: int) -> dict:
        rng = np.random.default_rng([seed, 3])
        init = rng.standard_normal((8, 2))          # Chebyshev coefficients, re and im
        periodic = rng.standard_normal((5, 4, 2))   # time modes -2..2, Chebyshev degree < 4
        return {
            "initial": init.tolist(),
            "periodic": periodic.tolist(),
            "growth_seed": int(rng.integers(0, 2**31)),
            "flat_seed": int(rng.integers(0, 2**31)),
            "forcing": {"time_gaussian": {"center": float(rng.uniform(2.5, 3.5) * math.pi),
                                          "sigma": float(rng.uniform(0.5, 0.9))},
                        "space": {"type": "gaussian", "sigma": float(rng.uniform(0.3, 0.5))}},
        }

    def setup(self, inputs: dict) -> dict:
        ex1 = operator_model.fixture("EX1")
        basis = spectral.build_basis(4, 16)
        cross = spectral.build_basis(16, 16)
        c = np.asarray(inputs["initial"])
        c = (c[:, 0] + 1j * c[:, 1]) / (1.0 + np.arange(len(c))) ** 2
        init = np.polynomial.chebyshev.chebval(basis.x1, c)
        p = np.asarray(inputs["periodic"])
        coeffs = p[..., 0] + 1j * p[..., 1]
        f_per = sum(np.exp(1j * q * cross.x0)[:, None]
                    * np.polynomial.chebyshev.chebval(cross.x1, coeffs[q + 2])[None, :] / (1 + abs(q))
                    for q in range(-2, 3))
        return {
            "ex1": ex1, "flat": operator_model.fixture("CE-FLAT"),
            "basis": basis, "basis_flat": spectral.build_basis(4, 24), "cross": cross,
            "initial": init[:, None], "f_per": f_per[:, :, None],
            "forcing": stability.make_forcing(cross, inputs["forcing"], N=1),
            "growth_seed": inputs["growth_seed"], "flat_seed": inputs["flat_seed"],
        }

    def run_pass(self, state: dict) -> PassResult:
        result = PassResult()
        ex1, basis, cross = state["ex1"], state["basis"], state["cross"]
        deltas = []

        def evolve_run():
            # the work of `cylspec evolve`: a stride-16 run, energies l <= 2, a growth report
            run = timedomain.evolve(ex1, basis, initial=state["initial"], z=0.0,
                                    t_range=(0.0, self.PERIODS * PERIOD), store_stride=16)
            result.outputs.append(run.values)
            for ell in range(3):
                result.outputs.append(timedomain.energy_series(run, ell, ex1).values)
            g = timedomain.growth_rate(ex1, basis, periods=self.PERIODS,
                                       seed=state["growth_seed"])
            result.outputs.append(np.array(g.per_run_rates))
            return (g.modal and abs(g.rate) < PLATEAU_TOL, not g.modal,
                    f"rate {g.rate:+.2e}, modal {g.modal}")

        def flat_run():
            g = timedomain.growth_rate(state["flat"], state["basis_flat"],
                                       seed=state["flat_seed"])
            result.outputs.append(np.array(g.per_run_rates))
            return (g.nonmodal_plateau, True,
                    f"rate {g.rate:+.2e}, modal {g.modal}, plateau {g.plateau}")

        def periodize_run():
            u_march = timedomain.periodize(ex1, cross, state["f_per"], 1.0)
            u_direct = resolvent.apply_resolvent(ex1, cross, 1.0, state["f_per"])
            delta = float(np.abs(u_march - u_direct).max() / np.abs(u_direct).max())
            deltas.append(delta)
            result.outputs += [u_march, u_direct]
            return delta <= PERIODIZE_TOL, False, f"delta {delta:.2e}"

        def segment_run():
            # criterion 5; EX1's leading pole z** = 0 is known, so the segment sits at 0.3
            forcing = state["forcing"]
            t1 = forcing.support[1]
            sol = stability.solve_on_segment(ex1, cross, forcing, 0.3, max(cross.n_time, 33))
            run = timedomain.evolve(ex1, cross, forcing=forcing.slice_at, z=0.0,
                                    t_range=(forcing.support[0] - PERIOD, t1 + 4 * PERIOD + 0.1),
                                    store_stride=1)
            targets = np.sort(np.concatenate([cross.x0 + PERIOD * p for p in range(-1, 12)]))
            targets = targets[(targets >= t1 - 1e-9) & (targets <= t1 + 4 * PERIOD + 1e-9)]
            snapped = np.array([run.times[np.argmin(np.abs(run.times - t))] for t in targets])
            ev = np.stack([run.at_time(t) for t in snapped])
            ret = sol.evaluate(snapped).values
            w1 = cross.w1[None, :, None]
            delta = math.sqrt(float(np.sum(w1 * np.abs(ev - ret) ** 2))
                              / float(np.sum(w1 * np.abs(ret) ** 2)))
            deltas.append(delta)
            result.outputs += [ev, ret]
            return delta <= EVOLVE_TOL, False, f"delta {delta:.2e}"

        _attempt(result, "growth EX1", evolve_run)
        _attempt(result, "growth CE-FLAT", flat_run)
        _attempt(result, "periodize vs solve", periodize_run)
        _attempt(result, "evolve vs segment", segment_run)
        result.diagnostics["timedomain.xengine_delta_max"] = max(deltas, default=0.0)
        return result


# ---------------------------------------------------------------------------
# check: admissibility
# ---------------------------------------------------------------------------


def recentred_verdict(x_star: float) -> tuple[list[str], tuple[float, float] | None]:
    """Closed form for d0 + 0.5 (x1 - x*) d1: (ii) fails iff |x*| > 1.

    The outflow form at x1 = +-1 with normal +-1 is 0.5 (1 -+ x*), so the
    witness sits at x1 = sign(x*) with minimum eigenvalue 0.5 (1 - |x*|).
    Returns the failed conditions and the witness (x1, eigenvalue) or None.
    """
    if abs(x_star) > 1.0:
        return ["ii"], (math.copysign(1.0, x_star), 0.5 * (1.0 - abs(x_star)))
    return [], None


class Check:
    """check_assumptions and stability_constants on the fixtures and seeded recentred operators."""

    name = "check"
    setup_repeats = 3
    DENSITY = 64
    CONSTANTS_DENSITY = 8
    N_RECENTRED = 4
    CLEARANCE = 0.05        # |x*| stays this far from 1, where the verdict flips

    # failed conditions and witness (x1, min eig) per fixture.  CE-BDY's drift points
    # inward at x1 = -1; CE-FLAT's certificate form is 0 everywhere, so its witness
    # is the first sample point.
    FIXTURES = {
        "EX1": ([], None), "EX1S": ([], None), "EX2": ([], None),
        "CE-BDY": (["ii"], (-1.0, -0.25)), "CE-FLAT": (["iii"], (-1.0, 0.0)),
    }
    # (z*, R, rho*) from the closed forms of K_z on the scalar drift operators
    CONSTANTS = {"EX1": (0.75, 2.0 / 7.0, 0.024), "EX1S": (1.5, 0.2, 0.5 / (23.0 + 10.0 / 3.0))}

    @staticmethod
    def inputs(seed: int) -> dict:
        rng = np.random.default_rng([seed, 4])
        xs = []
        while len(xs) < Check.N_RECENTRED:
            x = float(rng.uniform(-1.8, 1.8))
            if abs(abs(x) - 1.0) >= Check.CLEARANCE:
                xs.append(x)
        return {"x_star": xs, "configs": [affine_doc(x_star=x, name=f"recentred {x:+.4f}")
                                          for x in xs]}

    def setup(self, inputs: dict) -> dict:
        return {
            "fixtures": {name: operator_model.fixture(name) for name in self.FIXTURES},
            "recentred": [(x, operator_model.load_spec(doc))
                          for x, doc in zip(inputs["x_star"], inputs["configs"])],
        }

    def run_pass(self, state: dict) -> PassResult:
        result = PassResult()
        witnesses = [0]

        def report(spec, failed, witness):
            rep = operator_model.check_assumptions(spec, sample_density=self.DENSITY)
            result.outputs.append(repr(rep.to_json()))
            witnesses[0] += sum(len(c.witnesses) for c in rep.checks.values())
            ok = rep.failed() == failed and all(
                c.status == "pass" for k, c in rep.checks.items() if k not in failed)
            if ok and witness is not None:
                w = rep.checks[failed[0]].witnesses
                ok = (len(w) == 1 and w[0]["point"][1] == witness[0]
                      and abs(w[0]["min_eig"] - witness[1]) <= WITNESS_TOL)
            return ok, True, f"failed {rep.failed()}, expected {failed}"

        def constants(name, spec):
            sc = operator_model.stability_constants(spec, density=self.CONSTANTS_DENSITY)
            result.outputs.append(np.array([sc.z_star, sc.R, sc.rho_star, sc.q_effective]))
            z_star, R, rho_star = self.CONSTANTS[name]
            ok = (abs(sc.z_star - z_star) <= 1e-9 and abs(sc.R - R) <= 1e-9
                  and abs(sc.rho_star - rho_star) <= 1e-3)
            return ok, False, f"z*={sc.z_star}, R={sc.R}, rho*={sc.rho_star}"

        for name, spec in state["fixtures"].items():
            _attempt(result, f"check {name}", lambda: report(spec, *self.FIXTURES[name]))
        for x, spec in state["recentred"]:
            _attempt(result, f"check x*={x:+.4f}",
                     lambda: report(spec, *recentred_verdict(x)))
        for name in self.CONSTANTS:
            _attempt(result, f"constants {name}",
                     lambda: constants(name, state["fixtures"][name]))
        result.diagnostics["operator_model.witnesses"] = float(witnesses[0])
        return result


WORKLOADS = {w.name: w for w in (Spectrum(), Green(), Evolve(), Check())}
