"""Run every workload for one seed, each in its own process, and print a table.

    python3 perfbench/run_all.py --seed 1            # end-to-end metrics
    python3 perfbench/run_all.py --seed 1 --trace    # per-layer metrics

Run from the root of a checkout.  Besides the end-to-end metrics of
BENCHMARK.json it prints the median wall and CPU seconds of a pass (`wall_s`,
`cpu_s`), `fail_frac` (failed / attempted operations) for every workload and
`rate_err_max` for green.  Records stay in `.bench_out/`.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=bench["run_seconds"])
    p.add_argument("--trace", action="store_true")
    args = p.parse_args(argv)
    trace = int(args.trace)

    status = 0
    for w in bench["workloads"]:
        name = w["name"]
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed",
               str(args.seed), "--seconds", str(args.seconds), "--trace", str(trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=False)
        if proc.returncode != 0:
            print(f"{name}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
            status = 1
            continue
        record = json.loads((ROOT / ".bench_out" / f"{name}-seed{args.seed}-trace{trace}.json")
                            .read_text(encoding="utf-8"))
        print(f"== {name}  seed {args.seed}  correct {record['correct']}  "
              f"attempted {record['attempted']}  failed {record['failed']}")
        rows = [(k, m["value"], m["unit"]) for k, m in record["metrics"].items()]
        if not trace:
            rows += [("wall_s", record["wall_s"], "s"), ("cpu_s", record["cpu_s"], "s"),
                     ("fail_frac", record["fail_frac"], "ratio")]
            if name == "green":
                rows.append(("rate_err_max", record["diagnostics"]["stability.rate_err_max"],
                             "abs"))
        for key, value, unit in rows:
            print(f"  {key:42s} {value:>14.6g} {unit}")
        for failure in record["failures"]:
            print(f"  failed: {failure['name']}: {failure['detail']}")
    return status


if __name__ == "__main__":
    sys.exit(main())
