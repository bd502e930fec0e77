"""Command-line front end: check, spectrum, codim, green, evolve, compare.

Every run is described by a manifest (command, inputs, numeric parameters,
tool version); its hash is embedded in all output files, and rerunning the
same manifest reproduces the outputs bit for bit.  `main` owns the run: it
builds the manifest, creates `--out`, loads the operator and calls the
subcommand with a `RunOutput`, the one writer of every output file; then it
writes `manifest.json`, or `error.json` (and no manifest) if the run raised.
spectrum, codim, green and compare look for poles in (--re-min, z*): right of the
energy threshold z* there is none, and an eigenvalue found there stops the run;
an --re-min that is not left of z* is an error.  Every JSON file is strict JSON:
a non-finite number (z** with no pole in the window) is written as null.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
from dataclasses import dataclass, field, replace

import numpy as np

from . import __version__
from .operator_model import SpecError, WeightSequence, check_assumptions, energy_threshold, \
    fixture, load_spec
from .resolvent import NearPoleError, PolesRightOfWindowError, find_poles
from .spectral import build_basis
from .stability import CROSS_ENGINE_TOL, cross_engine_deltas, decompose, make_forcing, \
    segment_abscissa
from .timedomain import InstabilityError, PeriodizationError, _energy_ladder, evolve, \
    growth_rate, random_smooth_slice

# the diagnostics that error.json carries for each typed error, by attribute name
_ERROR_FIELDS = {
    PolesRightOfWindowError: ("edge", "eigenvalues"),
    NearPoleError: ("z", "nearest", "distance", "residual"),
    InstabilityError: ("time", "column", "norm", "cap"),
    PeriodizationError: ("z", "condition"),
}

# the environment variables that set the BLAS thread count, which the last bits of
# the outputs depend on
_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


@dataclass
class RunManifest:
    command: str
    source: str                       # fixture name or config path
    params: dict = field(default_factory=dict)
    digests: dict = field(default_factory=dict)   # input file -> SHA-256 of its bytes
    threads: dict = field(default_factory=dict)   # thread variables and usable CPUs
    version: str = __version__
    outputs: list = field(default_factory=list)

    def to_json(self) -> dict:
        return {
            "command": self.command, "source": self.source,
            "params": self.params, "digests": self.digests, "threads": self.threads,
            "version": self.version, "outputs": sorted(self.outputs),
        }

    @property
    def hash(self) -> str:
        blob = json.dumps(
            {k: v for k, v in self.to_json().items() if k != "outputs"},
            sort_keys=True,
        )
        return hashlib.sha256(blob.encode()).hexdigest()[:16]


def _json_text(doc: dict) -> str:
    """The one JSON writer: strict JSON, each non-finite float (NaN, Infinity) as null.
    Floats go through their repr both ways, so every finite one is kept exactly."""
    doc = json.loads(json.dumps(doc), parse_constant=lambda _name: None)
    return json.dumps(doc, indent=2, sort_keys=True, allow_nan=False) + "\n"


def _json_value(x):
    """A diagnostic as JSON: a complex number as its [re, im] pair, a sequence item by item."""
    if isinstance(x, tuple):
        return [_json_value(v) for v in x]
    return [x.real, x.imag] if isinstance(x, complex) else x


def _error_report(exc: Exception) -> dict:
    """error.json's body: the exception's type and message, and its diagnostics."""
    fields = _ERROR_FIELDS.get(type(exc), ())
    return {"type": type(exc).__name__, "message": str(exc),
            **{k: _json_value(getattr(exc, k)) for k in fields}}


def _cell(x) -> str:
    """A CSV cell: floats (numpy or not) as their shortest repr, ints and bools as ints."""
    return repr(float(x)) if isinstance(x, (float, np.floating)) else str(int(x))


@dataclass
class RunOutput:
    """A run's output directory: every file carries the manifest hash and is
    recorded in the manifest's outputs."""

    dir: str
    manifest: RunManifest

    def write(self, name: str, content) -> None:
        """Write `name` by its extension: .json a dict, .csv a (column names, rows)
        pair, .svg the markup, .bin a `FieldOnCover` (its own binary dump)."""
        path, h = os.path.join(self.dir, name), self.manifest.hash
        kind = os.path.splitext(name)[1]
        if kind == ".bin":
            content.dump(path, h)
        else:
            if kind == ".json":
                text = _json_text({**content, "manifest_hash": h})
            elif kind == ".csv":
                columns, rows = content
                lines = [f"# manifest: {h}", ",".join(columns)]
                lines += [",".join(map(_cell, row)) for row in rows]
                text = "\n".join(lines) + "\n"
            else:  # .svg
                text = f"<!-- manifest: {h} -->\n{content}"
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
        self.manifest.outputs.append(name)

    def close(self) -> None:
        """Write manifest.json, which lists every file written."""
        with open(os.path.join(self.dir, "manifest.json"), "w", encoding="utf-8") as fh:
            fh.write(_json_text({**self.manifest.to_json(), "hash": self.manifest.hash}))


def _file_sha256(path: str) -> str | None:
    """SHA-256 of a file's bytes; None when it cannot be read (the load then fails)."""
    try:
        with open(path, "rb") as fh:
            return hashlib.sha256(fh.read()).hexdigest()
    except OSError:
        return None


def _manifest(args) -> RunManifest:
    """Manifest over every parsed argument except the output directory and dispatch,
    plus the contents of the config and forcing files and the BLAS thread settings
    (each variable, None when unset, and the CPUs the process may run on)."""
    params = {k: v for k, v in vars(args).items() if k not in ("out", "command", "func")}
    digests = {k: _file_sha256(params[k]) for k in ("config", "forcing")
               if params.get(k) not in (None, "default")}
    threads = {k: os.environ.get(k) for k in _THREAD_VARS}
    threads["cpus"] = len(os.sched_getaffinity(0))
    return RunManifest(args.command, args.config or args.fixture, params, digests, threads)


def _forcing(args, spec, basis):
    """The `--forcing` document (a JSON file or "default") as a forcing on the basis."""
    doc = "default"
    if args.forcing != "default":
        with open(args.forcing, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    return make_forcing(basis, doc, N=spec.N)


def _poles(args, spec):
    """The basis and the poles in (--re-min, z*), checked for none right of z*;
    --re-min must be left of z*."""
    z_star = energy_threshold(spec)
    if not args.re_min < z_star:
        raise SpecError(f"--re-min {args.re_min} is not left of the energy threshold "
                        f"z* = {z_star}: the pole window is empty")
    basis = build_basis(args.qmax, args.m)
    pole_set = find_poles(spec, basis, window=(args.re_min, z_star))
    pole_set.check_right_edge()
    return basis, pole_set


def _decay_svg(times, norms, rate: float) -> str:
    """Minimal hand-rolled SVG of log slice norms and the fitted rate line."""
    w, h, pad = 640, 400, 50
    mask = norms > 0
    t, v = times[mask], np.log10(norms[mask])
    if len(t) < 2:
        t, v = np.array([0.0, 1.0]), np.array([0.0, 0.0])
    x = pad + (w - 2 * pad) * (t - t.min()) / max(t.max() - t.min(), 1e-300)
    y = h - pad - (h - 2 * pad) * (v - v.min()) / max(v.max() - v.min(), 1e-300)
    pts = " ".join(f"{xi:.2f},{yi:.2f}" for xi, yi in zip(x, y))
    fit = v[0] + (t - t[0]) * rate / math.log(10.0)
    yf = h - pad - (h - 2 * pad) * (fit - v.min()) / max(v.max() - v.min(), 1e-300)
    fpts = " ".join(f"{xi:.2f},{yi:.2f}" for xi, yi in zip(x, yf))
    return (f'<svg xmlns="http://www.w3.org/2000/svg" width="{w}" height="{h}">\n'
            f'<rect width="{w}" height="{h}" fill="white"/>\n'
            f'<polyline points="{pts}" fill="none" stroke="black" stroke-width="1.5"/>\n'
            f'<polyline points="{fpts}" fill="none" stroke="red" stroke-width="1" '
            'stroke-dasharray="4,3"/>\n'
            f'<text x="{pad}" y="{pad - 18}" font-size="13">log10 slice norm; '
            f'fitted rate {rate:.4f}</text>\n'
            "</svg>\n")


# ---------------------------------------------------------------------------
# subcommands: each computes, hands its files to `out` and returns the exit code
# ---------------------------------------------------------------------------


def cmd_check(args, spec, out: RunOutput) -> int:
    if args.kappa is not None:
        # condition (iv) is the only reader of the weights
        spec = replace(spec, weights=WeightSequence.geometric(args.kappa, spec.L_max))
    report = check_assumptions(spec, sample_density=args.density)
    out.write("check.json", report.to_json())
    print(report.pretty())
    if report.any_fail:
        return 2
    return 0 if report.all_pass else 3


def cmd_spectrum(args, spec, out: RunOutput) -> int:
    _, pole_set = _poles(args, spec)
    out.write("spectrum.csv", (("re", "im", "order", "rank", "residual"), [
        (p.lam.real, p.lam.imag, p.order, p.rank, p.residual) for p in pole_set.poles]))
    out.write("poles.json", pole_set.to_json())
    for p in pole_set.poles:
        print(f"pole {p.lam.real:+.6f} {p.lam.imag:+.6f}i  order {p.order}  rank {p.rank}")
    return 0


def cmd_codim(args, spec, out: RunOutput) -> int:
    _, pole_set = _poles(args, spec)
    rank = sum(p.rank for p in pole_set.nonneg)
    out.write("codim.json", {**pole_set.to_json(), "rank_F": rank, "z_star": pole_set.window[1]})

    def fmt(x):
        return "-inf" if not np.isfinite(x) else f"{x:g}"

    print(f"|Λ|={len(pole_set.nonneg)}, rank F={rank}, z★={pole_set.window[1]:g}, "
          f"z★★={fmt(pole_set.z_star_star)}, "
          f"z★★★={fmt(pole_set.z_star_star_star)}")
    return 0


def cmd_green(args, spec, out: RunOutput) -> int:
    basis, pole_set = _poles(args, spec)
    dec = decompose(spec, basis, _forcing(args, spec, basis), pole_set)
    times, norms = dec.difference.times, dec.difference.slice_norms()
    out.write("decay.csv", (("x0", "difference_norm", "retarded_norm", "used_in_fit"),
                            zip(times, norms, dec.retarded.slice_norms(), dec.used_slices)))
    out.write("retarded.bin", dec.retarded)
    if args.svg:
        out.write("decay.svg", _decay_svg(times, norms, dec.fitted_rate))
    out.write("green.json", {
        "fitted_rate": dec.fitted_rate, "rank_F": dec.rank,
        "n_nonneg": dec.n_nonneg, "kernel_defect": dec.kernel_defect,
        "identity_defect": dec.identity_defect, "z_star": dec.pole_set.window[1],
        "z_star_star": dec.pole_set.z_star_star,
        "z_star_star_star": dec.pole_set.z_star_star_star,
    })
    print(f"fitted decay rate {dec.fitted_rate:.4f}, rank F = {dec.rank}, "
          f"|Λ| = {dec.n_nonneg}")
    return 0


def cmd_evolve(args, spec, out: RunOutput) -> int:
    # condition (i): an A0 that is not positive definite stops the run before a step
    energy_threshold(spec)
    # the engine steps Chebyshev slices: the Fourier band is never read
    basis = build_basis(0, args.m)
    init = random_smooth_slice(np.random.default_rng(args.seed), basis, spec.N)
    run = evolve(spec, basis, initial=init, z=args.shift,
                 t_range=(0.0, args.periods * 2 * math.pi), store_stride=16)
    series = _energy_ladder(run, range(args.lmax + 1), spec, args.shift)
    out.write("energy.csv", (["x0", *(f"E{s.ell}" for s in series)],
                             zip(run.times, *(s.values for s in series))))
    out.write("field.bin", run)
    growth = growth_rate(spec, basis, z=args.shift)
    out.write("evolve.json", {
        "growth_rate": growth.rate, "modal": growth.modal,
        "nonmodal_plateau": growth.nonmodal_plateau,
    })
    print(f"growth rate {growth.rate:+.4f}  modal={growth.modal}  "
          f"nonmodal_plateau={growth.nonmodal_plateau}")
    return 0


def cmd_compare(args, spec, out: RunOutput) -> int:
    basis, pole_set = _poles(args, spec)
    deltas = cross_engine_deltas(spec, basis, _forcing(args, spec, basis),
                                 segment_abscissa(pole_set), pencil=pole_set.pencil)
    out.write("compare.json", {"deltas": deltas, "thresholds": CROSS_ENGINE_TOL})
    ok = all(deltas[k] <= CROSS_ENGINE_TOL[k] for k in deltas)
    for k in sorted(deltas):
        print(f"{k}: {deltas[k]:.3e} (threshold {CROSS_ENGINE_TOL[k]:g})")
    print("PASS" if ok else "FAIL")
    return 0 if ok else 1


def _checked(kind, ok, what: str):
    """An argparse type: kind(text) where ok(value) holds, else a usage error."""
    def parse(text: str):
        try:
            value = kind(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid {kind.__name__} value: {text!r}") from None
        if not ok(value):
            raise argparse.ArgumentTypeError(f"must be {what}, got {text}")
        return value
    return parse


_finite_float = _checked(float, math.isfinite, "finite")


def _int_at_least(low: int):
    """An argparse type: an integer of at least `low`, else a usage error."""
    return _checked(int, lambda v: v >= low, f"at least {low}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cylspec",
        description="Spectral stability analysis of time-periodic symmetric "
                    "hyperbolic operators on a cylinder",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, help):
        """A subcommand with the flags every one takes: the operator and the output."""
        p = sub.add_parser(name, help=help)
        group = p.add_mutually_exclusive_group(required=True)
        group.add_argument("--fixture", help="built-in operator name")
        group.add_argument("--config", help="path to an operator JSON document")
        p.add_argument("--out", default="out")
        p.set_defaults(func=func)
        return p

    def pole_window(p, qmax=4):
        """The basis and the window's left edge of the subcommands that locate poles."""
        p.add_argument("--qmax", type=_int_at_least(0), default=qmax)
        p.add_argument("--m", type=_int_at_least(2), default=32)
        p.add_argument("--re-min", type=_finite_float, default=-2.2, dest="re_min")
        return p

    p = command("check", cmd_check, "verify the admissibility conditions")
    p.add_argument("--kappa", type=float, default=None)
    p.add_argument("--density", type=_int_at_least(1), default=64)

    pole_window(command("spectrum", cmd_spectrum, "locate resolvent poles in a window"))

    pole_window(command("codim", cmd_codim, "codimension summary of the nonneg strip poles"))

    p = pole_window(command("green", cmd_green,
                            "retarded solution and decaying decomposition"), qmax=16)
    p.add_argument("--forcing", default="default")
    p.add_argument("--svg", action="store_true")

    p = command("evolve", cmd_evolve, "time-domain evolution and energies")
    p.add_argument("--m", type=_int_at_least(2), default=32)
    p.add_argument("--lmax", type=_int_at_least(0), default=2)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--periods", type=_int_at_least(1), default=10)
    p.add_argument("--shift", type=_finite_float, default=0.0)

    p = pole_window(command("compare", cmd_compare, "cross-engine agreement checks"), qmax=16)
    p.add_argument("--forcing", default="default")
    p.description = "On EX1S the default bump needs --qmax 24: evolve_vs_retarded is 1.4e-3 at 16."
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    out = RunOutput(args.out, _manifest(args))
    os.makedirs(args.out, exist_ok=True)
    try:
        spec = load_spec(args.config) if args.config else fixture(args.fixture)
        code = args.func(args, spec, out)
    except Exception as exc:  # numeric failures -> machine-readable error report
        out.write("error.json", {"error": _error_report(exc)})
        print(f"error: {exc}", file=sys.stderr)
        return 1
    out.close()
    return code


if __name__ == "__main__":
    sys.exit(main())
