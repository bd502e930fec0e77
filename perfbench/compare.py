"""Compare two sets of benchmark records, workload by workload.

    python3 perfbench/compare.py BASE_DIR NEW_DIR

Each directory holds records written by run.py (copies of `.bench_out/` from
two commits, run with the same seeds and settings).  For every workload and
metric it prints the median and quartiles of each side over the seeds, the
change of the median as a share of the base median, and a verdict against
the bound in BENCHMARK.json:

* `worse`      the new median is worse than the base median by more than the bound;
* `unresolved` the base's own quartile spread is wider than the bound, and not
               every new run is better than every base run;
* `ok`         otherwise.

Per-layer metrics (trace records) and the records' `wall_s` and `cpu_s` have
no bound and get no verdict.  The exit code is 1 when any end-to-end metric is
`worse`, or more operations fail.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(directory: Path) -> dict:
    """{(workload, trace): {metric: [values over seeds]}, plus failed counts."""
    out: dict = defaultdict(lambda: defaultdict(list))
    for path in sorted(directory.glob("*.json")):
        rec = json.loads(path.read_text(encoding="utf-8"))
        group = out[(rec["workload"], rec["trace"])]
        for key, m in rec["metrics"].items():
            group[key].append(m["value"])
        if not rec["trace"]:
            group["wall_s"].append(rec["wall_s"])
            group["cpu_s"].append(rec["cpu_s"])
        group["failed"].append(rec["failed"])
    return out


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    spec = {m["name"]: m for m in bench["end_to_end"]}
    base, new = load(Path(argv[0])), load(Path(argv[1]))
    status = 0
    for key in sorted(set(base) & set(new)):
        workload, trace = key
        print(f"== {workload} ({'per-layer' if trace else 'end-to-end'})")
        print(f"  {'metric':40s} {'base median [q1, q3]':>32s} {'new median [q1, q3]':>32s}"
              f" {'change':>8s}")
        for metric in base[key]:
            b, n = base[key][metric], new[key].get(metric)
            if not n:
                continue
            bq, nq = quartiles(b), quartiles(n)
            change = (nq[1] - bq[1]) / bq[1] if bq[1] else float("nan")
            verdict = ""
            if metric == "failed":
                verdict = "worse" if sum(n) / len(n) > sum(b) / len(b) else "ok"
            elif metric in spec:
                m = spec[metric]
                sign = 1.0 if m["better"] == "lower" else -1.0
                spread = (bq[2] - bq[0]) / bq[1]
                all_better = (max(n) < min(b)) if sign > 0 else (min(n) > max(b))
                if sign * change > m["bound"]:
                    verdict = "worse"
                elif spread > m["bound"] and not all_better:
                    verdict = "unresolved"
                else:
                    verdict = "ok"
            if verdict == "worse":
                status = 1
            shown = f"{change:+.1%}" if bq[1] else "n/a"
            print(f"  {metric:40s} {bq[1]:>12.5g} [{bq[0]:.4g}, {bq[2]:.4g}]"
                  f"{'':>2s}{nq[1]:>12.5g} [{nq[0]:.4g}, {nq[2]:.4g}] {shown:>8s} {verdict}")
    return status


if __name__ == "__main__":
    sys.exit(main())
