"""Command-line front end: check, spectrum, codim, green, evolve, compare.

Every run is described by a manifest (command, inputs, numeric parameters,
tool version); its hash is embedded in all output files, and rerunning the
same manifest reproduces the outputs bit for bit.
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
from .operator_model import WeightSequence, check_assumptions, fixture, load_spec
from .resolvent import apply_resolvent, find_poles
from .spectral import build_basis
from .stability import decompose, make_forcing, segment_abscissa, segment_node_count, \
    solve_on_segment
from .timedomain import energy_series, evolve, growth_rate, periodize


@dataclass
class RunManifest:
    command: str
    source: str                       # fixture name or config path
    params: dict = field(default_factory=dict)
    digests: dict = field(default_factory=dict)   # input file -> SHA-256 of its bytes
    version: str = __version__
    outputs: list = field(default_factory=list)

    def to_json(self) -> dict:
        return {
            "command": self.command, "source": self.source,
            "params": self.params, "digests": self.digests, "version": self.version,
            "outputs": sorted(self.outputs),
        }

    @property
    def hash(self) -> str:
        blob = json.dumps(
            {k: v for k, v in self.to_json().items() if k != "outputs"},
            sort_keys=True,
        )
        return hashlib.sha256(blob.encode()).hexdigest()[:16]

    def write(self, out_dir: str) -> None:
        path = os.path.join(out_dir, "manifest.json")
        doc = self.to_json()
        doc["hash"] = self.hash
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=2, sort_keys=True)
            fh.write("\n")


def _write_json(path: str, doc: dict, manifest: RunManifest) -> None:
    doc = dict(doc)
    doc["manifest_hash"] = manifest.hash
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
    manifest.outputs.append(os.path.basename(path))


def _error_json(out_dir: str, manifest: RunManifest, exc: Exception) -> None:
    doc = {"error": {"type": type(exc).__name__, "message": str(exc)}}
    _write_json(os.path.join(out_dir, "error.json"), doc, manifest)


def _load(args):
    return load_spec(args.config) if args.config else fixture(args.fixture)


def _source(args) -> str:
    return args.config if args.config else args.fixture


def _file_sha256(path: str) -> str | None:
    """SHA-256 of a file's bytes; None when it cannot be read (the load then fails)."""
    try:
        with open(path, "rb") as fh:
            return hashlib.sha256(fh.read()).hexdigest()
    except OSError:
        return None


def _manifest(args) -> RunManifest:
    """Manifest over every parsed argument except the output directory and dispatch,
    plus the contents of the config and forcing files."""
    params = {k: v for k, v in vars(args).items() if k not in ("out", "command", "func")}
    digests = {k: _file_sha256(params[k]) for k in ("config", "forcing")
               if params.get(k) not in (None, "default")}
    return RunManifest(args.command, _source(args), params, digests)


def _forcing_doc(arg: str):
    if arg == "default":
        return "default"
    with open(arg, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _decay_svg(path: str, times, norms, rate: float, manifest: RunManifest) -> None:
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
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"<!-- manifest: {manifest.hash} -->\n")
        fh.write(f'<svg xmlns="http://www.w3.org/2000/svg" width="{w}" height="{h}">\n')
        fh.write(f'<rect width="{w}" height="{h}" fill="white"/>\n')
        fh.write(f'<polyline points="{pts}" fill="none" stroke="black" stroke-width="1.5"/>\n')
        fh.write(f'<polyline points="{fpts}" fill="none" stroke="red" stroke-width="1" '
                 'stroke-dasharray="4,3"/>\n')
        fh.write(f'<text x="{pad}" y="{pad - 18}" font-size="13">log10 slice norm; '
                 f'fitted rate {rate:.4f}</text>\n')
        fh.write("</svg>\n")
    manifest.outputs.append(os.path.basename(path))


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_check(args) -> int:
    spec = _load(args)
    if args.kappa is not None:
        # condition (iv) is the only reader of the weights
        spec = replace(spec, weights=WeightSequence.geometric(args.kappa, spec.L_max))
    manifest = _manifest(args)
    os.makedirs(args.out, exist_ok=True)
    report = check_assumptions(spec, sample_density=args.density)
    _write_json(os.path.join(args.out, "check.json"), report.to_json(), manifest)
    manifest.write(args.out)
    print(report.pretty())
    if report.any_fail:
        return 2
    if any(c.status == "unverifiable" for c in report.checks.values()):
        return 3
    return 0


def cmd_spectrum(args) -> int:
    spec = _load(args)
    manifest = _manifest(args)
    os.makedirs(args.out, exist_ok=True)
    basis = build_basis(args.qmax, args.m)
    pole_set = find_poles(spec, basis, window=(args.re_min, args.re_max))
    pole_set.to_csv(os.path.join(args.out, "spectrum.csv"), manifest.hash)
    manifest.outputs.append("spectrum.csv")
    _write_json(os.path.join(args.out, "poles.json"), pole_set.to_json(), manifest)
    manifest.write(args.out)
    for p in pole_set.poles:
        print(f"pole {p.lam.real:+.6f} {p.lam.imag:+.6f}i  order {p.order}  rank {p.rank}")
    return 0


def cmd_codim(args) -> int:
    spec = _load(args)
    manifest = _manifest(args)
    os.makedirs(args.out, exist_ok=True)
    basis = build_basis(args.qmax, args.m)
    pole_set = find_poles(spec, basis, window=(args.re_min, args.re_max))
    rank = sum(p.rank for p in pole_set.nonneg)
    doc = pole_set.to_json()
    doc["rank_F"] = rank
    _write_json(os.path.join(args.out, "codim.json"), doc, manifest)
    manifest.write(args.out)

    def fmt(x):
        return "-inf" if not np.isfinite(x) else f"{x:g}"

    print(f"|Λ|={len(pole_set.nonneg)}, rank F={rank}, "
          f"z★★={fmt(pole_set.z_star_star)}, "
          f"z★★★={fmt(pole_set.z_star_star_star)}")
    return 0


def cmd_green(args) -> int:
    spec = _load(args)
    manifest = _manifest(args)
    os.makedirs(args.out, exist_ok=True)
    basis = build_basis(args.qmax, args.m)
    forcing = make_forcing(basis, _forcing_doc(args.forcing), N=spec.N)
    pole_set = find_poles(spec, basis, window=(args.re_min, args.re_max))
    dec = decompose(spec, basis, forcing, pole_set,
                    n_loop_nodes=args.contour_nodes)
    norms = dec.difference.slice_norms()
    csv_path = os.path.join(args.out, "decay.csv")
    with open(csv_path, "w", encoding="utf-8") as fh:
        fh.write(f"# manifest: {manifest.hash}\n")
        fh.write("x0,difference_norm,retarded_norm,used_in_fit\n")
        for t, d, r, u in zip(dec.difference.times, norms,
                              dec.retarded.slice_norms(), dec.used_slices):
            fh.write(f"{t!r},{d!r},{r!r},{int(u)}\n")
    manifest.outputs.append("decay.csv")
    dec.retarded.dump(os.path.join(args.out, "retarded.bin"), manifest.hash)
    manifest.outputs.append("retarded.bin")
    if args.svg:
        _decay_svg(os.path.join(args.out, "decay.svg"),
                   dec.difference.times, norms, dec.fitted_rate, manifest)
    _write_json(os.path.join(args.out, "green.json"), {
        "fitted_rate": dec.fitted_rate, "rank_F": dec.rank,
        "n_nonneg": dec.n_nonneg, "kernel_defect": dec.kernel_defect,
        "z_star_star": dec.pole_set.z_star_star,
        "z_star_star_star": dec.pole_set.z_star_star_star,
    }, manifest)
    manifest.write(args.out)
    print(f"fitted decay rate {dec.fitted_rate:.4f}, rank F = {dec.rank}, "
          f"|Λ| = {dec.n_nonneg}")
    return 0


def cmd_evolve(args) -> int:
    spec = _load(args)
    manifest = _manifest(args)
    os.makedirs(args.out, exist_ok=True)
    # the engine steps Chebyshev slices: the Fourier band is never read
    basis = build_basis(0, args.m)
    rng = np.random.default_rng(args.seed)
    coeff = rng.standard_normal((args.m // 2, spec.N)) \
        + 1j * rng.standard_normal((args.m // 2, spec.N))
    coeff /= (1.0 + np.arange(args.m // 2))[:, None] ** 2
    init = np.polynomial.chebyshev.chebval(basis.x1, coeff).T
    run = evolve(spec, basis, initial=init, z=args.shift,
                 t_range=(0.0, args.periods * 2 * math.pi), store_stride=16)
    ells = list(range(args.lmax + 1))
    series = [energy_series(run, ell, spec) for ell in ells]
    # higher orders lose finite-difference margin slices; align on the shortest
    shortest = min(series, key=lambda s: len(s.times))
    offsets = [(len(s.times) - len(shortest.times)) // 2 for s in series]
    csv_path = os.path.join(args.out, "energy.csv")
    with open(csv_path, "w", encoding="utf-8") as fh:
        fh.write(f"# manifest: {manifest.hash}\n")
        fh.write("x0," + ",".join(f"E{ell}" for ell in ells) + "\n")
        for k, t in enumerate(shortest.times):
            row = ",".join(f"{s.values[k + off]!r}" for s, off in zip(series, offsets))
            fh.write(f"{t!r},{row}\n")
    manifest.outputs.append("energy.csv")
    run.dump(os.path.join(args.out, "field.bin"), manifest.hash)
    manifest.outputs.append("field.bin")
    growth = growth_rate(spec, basis, periods=max(args.periods, 10), seed=args.seed,
                         z=args.shift)
    _write_json(os.path.join(args.out, "evolve.json"), {
        "growth_rate": growth.rate, "modal": growth.modal,
        "nonmodal_plateau": growth.nonmodal_plateau,
    }, manifest)
    manifest.write(args.out)
    print(f"growth rate {growth.rate:+.4f}  modal={growth.modal}  "
          f"nonmodal_plateau={growth.nonmodal_plateau}")
    return 0


def cmd_compare(args) -> int:
    spec = _load(args)
    manifest = _manifest(args)
    os.makedirs(args.out, exist_ok=True)
    basis = build_basis(args.qmax, args.m)
    forcing = make_forcing(basis, _forcing_doc(args.forcing), N=spec.N)
    pole_set = find_poles(spec, basis, window=(args.re_min, args.re_max))
    period = 2 * math.pi

    # time-domain evolution against the vertical-segment solution
    c = segment_abscissa(pole_set)
    sol = solve_on_segment(spec, basis, forcing, c, segment_node_count(basis))
    t1 = forcing.support[1]
    run = evolve(spec, basis, forcing=lambda t: forcing.slice_at(t), z=0.0,
                 t_range=(forcing.support[0] - period, t1 + 4 * period + 0.1),
                 store_stride=1)
    targets = np.sort(np.concatenate(
        [basis.x0 + period * p for p in range(-1, 6)]
    ))
    targets = targets[(targets >= t1 - 1e-9) & (targets <= t1 + 4 * period + 1e-9)]
    snapped = np.array([run.times[np.argmin(np.abs(run.times - t))] for t in targets])
    ev = np.stack([run.at_time(t) for t in snapped])
    ret = sol.evaluate(snapped).values
    w1 = basis.w1[None, :, None]
    evolve_delta = float(np.sqrt(np.sum(w1 * np.abs(ev - ret) ** 2))
                         / max(np.sqrt(np.sum(w1 * np.abs(ret) ** 2)), 1e-300))

    # periodization against the direct quotient solve
    z = max(c, 1.0)
    f_per = np.ones((basis.n_time, basis.n_space, spec.N), dtype=complex) \
        * (1.0 + 0.3 * basis.x1[None, :, None])
    u_march = periodize(spec, basis, f_per, z)
    u_direct = apply_resolvent(spec, basis, z, f_per)
    periodize_delta = float(np.abs(u_march - u_direct).max()
                            / max(np.abs(u_direct).max(), 1e-300))

    thresholds = {"evolve_vs_retarded": 1e-3, "periodize_vs_solve": 1e-5}
    deltas = {"evolve_vs_retarded": evolve_delta, "periodize_vs_solve": periodize_delta}
    _write_json(os.path.join(args.out, "compare.json"),
                {"deltas": deltas, "thresholds": thresholds}, manifest)
    manifest.write(args.out)
    ok = all(deltas[k] <= thresholds[k] for k in deltas)
    for k in sorted(deltas):
        print(f"{k}: {deltas[k]:.3e} (threshold {thresholds[k]:g})")
    print("PASS" if ok else "FAIL")
    return 0 if ok else 1


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
        """The basis and real-part window of the subcommands that locate poles."""
        p.add_argument("--qmax", type=int, default=qmax)
        p.add_argument("--m", type=int, default=32)
        p.add_argument("--re-min", type=float, default=-2.2, dest="re_min")
        p.add_argument("--re-max", type=float, default=2.2, dest="re_max")
        return p

    p = command("check", cmd_check, "verify the admissibility conditions")
    p.add_argument("--kappa", type=float, default=None)
    p.add_argument("--density", type=int, default=64)

    pole_window(command("spectrum", cmd_spectrum, "locate resolvent poles in a window"))

    pole_window(command("codim", cmd_codim, "codimension summary of the nonneg strip poles"))

    p = pole_window(command("green", cmd_green,
                            "retarded solution and decaying decomposition"), qmax=16)
    p.add_argument("--contour-nodes", type=int, default=32, dest="contour_nodes")
    p.add_argument("--forcing", default="default")
    p.add_argument("--svg", action="store_true")

    p = command("evolve", cmd_evolve, "time-domain evolution and energies")
    p.add_argument("--m", type=int, default=32)
    p.add_argument("--lmax", type=int, default=2)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--periods", type=int, default=10)
    p.add_argument("--shift", type=float, default=0.0)

    p = pole_window(command("compare", cmd_compare, "cross-engine agreement checks"), qmax=16)
    p.add_argument("--forcing", default="default")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except Exception as exc:  # numeric failures -> machine-readable error report
        os.makedirs(args.out, exist_ok=True)
        _error_json(args.out, _manifest(args), exc)
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
