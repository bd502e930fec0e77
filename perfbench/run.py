"""Run one benchmark workload and print its metrics as JSON on the last line.

    python3 perfbench/run.py --workload spectrum --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the library is imported from its `src/`.

With `--trace 0` the run times the imports in fresh interpreters, sets the
workload up (`setup_repeats` times), then repeats the workload's timed pass
for up to `--seconds` (at least once) and reports the end-to-end metrics: the
mean time of a pass in reference units (`wall_ref`, below), the set-up time
(`setup_s`, below) and the peak resident memory.
The median wall and CPU seconds of a pass, `wall_s` and `cpu_s`, are in the
record.

While an untraced pass runs, the fixed reference kernel of calibrate.py is
timed every 0.2 s, and that time is taken out of the pass.  `wall_ref` is the
mean wall time of an untraced pass divided by the mean kernel time over those
passes.  On a machine whose speed drifts with other tenants' load, that ratio
holds steady where seconds do not.  Traced passes are not sampled.

`setup_s` is the median import plus the median set-up, scaled to the nominal
speed at which the kernel takes `REF_NOMINAL_S`; the run's speed is the
median of the kernel samples taken during the set-ups and the untraced
passes.  The unscaled seconds are in the record.

With `--trace 1` it alternates an untraced and a traced pass for the same
time and reports the per-layer metrics of the traced passes (medians), plus
the tracing overhead.  Outputs of every pass must be bit-identical.

The full record (metrics, failed operations, environment, spans) is written to
`.bench_out/<workload>-seed<seed>-trace<0|1>.json` under the checkout.
"""

from __future__ import annotations

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from dataclasses import asdict, dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".bench_out"

# One BLAS thread: on a shared two-core machine it holds the run-to-run spread
# lower than two threads do, and it makes cpu_s comparable to wall_s.
BLAS_THREADS = 1
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# the import that setup_s charges, timed in fresh interpreters: one import
# takes 0.3 to 0.9 s, following the machine's drift like the passes do
IMPORT_REPEATS = 3
IMPORT_PROBE = "import time; t = time.perf_counter(); import workloads; print(time.perf_counter() - t)"
# setup_s is scaled to the speed at which the reference kernel takes this long
# (between its times in the fast and the slow state of a 2-core Xeon VM)
REF_NOMINAL_S = 0.010


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def digest(outputs) -> str:
    """Hash of a pass's outputs: equal hashes mean bit-identical outputs."""
    import numpy as np

    h = hashlib.sha256()
    for out in outputs:
        if isinstance(out, str):
            h.update(out.encode())
        else:
            arr = np.ascontiguousarray(out)
            h.update(f"{arr.dtype}{arr.shape}".encode())
            h.update(arr.tobytes())
    return h.hexdigest()


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    src_lines = sum(len(p.read_text(encoding="utf-8").splitlines())
                    for p in (ROOT / "src").rglob("*.py"))
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "src_lines": src_lines,
    }


@dataclass
class Pass:
    result: object
    wall_s: float
    cpu_s: float
    refs: list         # reference-kernel times sampled during the pass (untraced only)


def import_times() -> list[float]:
    """Seconds to import the workloads module, with numpy, scipy and the library."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(ROOT / "src"), str(HERE)])}
    times = []
    for _ in range(IMPORT_REPEATS):
        out = subprocess.run([sys.executable, "-c", IMPORT_PROBE], cwd=ROOT, env=env,
                             capture_output=True, text=True, check=True, timeout=120)
        times.append(float(out.stdout.split()[-1]))
    return times


def timed_setups(workload, inputs) -> tuple[object, list[float], list[float]]:
    """Set the workload up `setup_repeats` times, sampling the reference kernel.

    Returns the last state, the set-up times (sampling taken out) and the samples.
    """
    import calibrate

    times, refs = [], []
    for _ in range(workload.setup_repeats):
        with calibrate.Sampler() as sampler:
            start = time.perf_counter()
            state = workload.setup(inputs)
            elapsed = time.perf_counter() - start
        times.append(elapsed - sampler.paused_wall)
        refs += sampler.refs
    return state, times, refs


def timed_pass(workload, state, sample: bool) -> Pass:
    import calibrate

    if not sample:
        wall0, cpu0 = time.perf_counter(), time.process_time()
        result = workload.run_pass(state)
        return Pass(result, time.perf_counter() - wall0, time.process_time() - cpu0, [])
    with calibrate.Sampler() as sampler:
        wall0, cpu0 = time.perf_counter(), time.process_time()
        result = workload.run_pass(state)
        wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
    return Pass(result, wall - sampler.paused_wall, cpu - sampler.paused_cpu, sampler.refs)


def wall_ref(passes: list[Pass]) -> float:
    """Mean pass wall time over the mean reference-kernel time of the same passes."""
    refs = [r for p in passes for r in p.refs]
    return statistics.fmean(p.wall_s for p in passes) / statistics.fmean(refs)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "cylspec" / "__init__.py").is_file():
        print(f"error: no library source at {ROOT / 'src' / 'cylspec'}", file=sys.stderr)
        return 2
    for var in BLAS_ENV:
        os.environ[var] = str(BLAS_THREADS)
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]

    import layers
    import spans
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]
    import_s = time.perf_counter() - T0

    imports = import_times()
    state, setup_times, setup_refs = timed_setups(workload, workload.inputs(args.seed))
    setup_raw_s = statistics.median(imports) + statistics.median(setup_times)

    # passes (or untraced/traced pairs) repeat while the next one, taking as long
    # as the last, still ends within --seconds; there is always at least one
    untraced, traced, span_log = [], [], []
    start = time.perf_counter()
    while True:
        round_start = time.perf_counter()
        untraced.append(timed_pass(workload, state, sample=True))
        if args.trace:
            tracer = spans.Tracer()
            restore = tracer.install(layers.TARGETS, [workloads])
            try:
                traced.append(timed_pass(workload, state, sample=False))
            finally:
                restore()
            span_log.append(tracer.spans)
        now = time.perf_counter()
        if now - start + (now - round_start) > args.seconds:
            break

    results = [p.result for p in untraced + traced]
    first = results[0]
    digests = {digest(r.outputs) for r in results}
    failures = [o for o in first.outcomes if not o.ok]
    reproducible = len(digests) == 1 and all(
        [o.ok for o in r.outcomes] == [o.ok for o in first.outcomes] for r in results)
    correct = reproducible and not any(o.hard for o in failures)

    # the machine's speed over the run; a sample taken between the imports lands
    # on a child's exit and can read several times too slow, so there is none
    speed_s = statistics.median(setup_refs + [r for p in untraced for r in p.refs])
    setup_s = REF_NOMINAL_S * setup_raw_s / speed_s

    if args.trace:
        per_pass = []
        for p, log in zip(traced, span_log):
            m = layers.layer_metrics(log)
            m.update({k: p.result.diagnostics.get(k, 0.0) for k in layers.DIAGNOSTICS})
            per_pass.append(m)
        values = {k: statistics.median(m[k] for m in per_pass) for k in per_pass[0]}
        values["trace.overhead_s"] = (statistics.median(p.wall_s for p in traced)
                                      - statistics.median(p.wall_s for p in untraced))
        metrics = {k: {"value": values[k], "unit": u} for k, u in layers.PER_LAYER.items()}
    else:
        metrics = {
            "wall_ref": {"value": wall_ref(untraced), "unit": "ref"},
            "setup_s": {"value": setup_s, "unit": "s"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                            "unit": "MB"},
        }

    line = {"correct": correct, "attempted": len(first.outcomes),
            "failed": len(failures), "metrics": metrics}
    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, **line,
        "fail_frac": len(failures) / len(first.outcomes),
        "diagnostics": first.diagnostics,
        "reproducible": reproducible,
        "failures": [vars(o) for o in failures],
        "wall_s": statistics.median(p.wall_s for p in untraced),
        "cpu_s": statistics.median(p.cpu_s for p in untraced),
        "passes": {kind: [{"wall_s": p.wall_s, "cpu_s": p.cpu_s, "refs_s": p.refs}
                          for p in passes]
                   for kind, passes in (("untraced", untraced), ("traced", traced))},
        "setup": {"import_s": import_s, "fresh_imports_s": imports, "repeats_s": setup_times,
                  "refs_s": setup_refs, "raw_s": setup_raw_s, "speed_ref_s": speed_s},
        "environment": environment(),
        "spans": [[asdict(s) for s in log] for log in span_log],
    }
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, default=str) + "\n", encoding="utf-8")
    for o in failures:
        print(f"failed: {o.name}: {o.detail}")
    print(f"record: {path.relative_to(ROOT)}  environment: {json.dumps(record['environment'])}")
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
