"""Compare two sets of benchmark records.

    python3 kgbench/compare.py BEFORE.jsonl AFTER.jsonl

Each file holds records as ``run.py`` appends them to
``.kgbench/records.jsonl`` -- one JSON object per run with ``workload``,
``seed``, ``trace``, ``nproc`` and the run's ``result``. For every workload
and metric present on both sides this prints each side's median and
quartiles (``statistics.quantiles(n=4)``; with one record they equal the
median), the number of runs and the ratio after/before. Records taken at
different ``nproc`` are never compared: the command refuses and exits 2.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict


def load(path: str) -> list[dict]:
    with open(path) as fh:
        return [json.loads(line) for line in fh if line.strip()]


def _series(records: list[dict]) -> dict[tuple[str, str], list[float]]:
    out: dict[tuple[str, str], list[float]] = defaultdict(list)
    for r in records:
        for name, m in r["result"]["metrics"].items():
            out[(r["workload"], name)].append(float(m["value"]))
    return out


def _quartiles(xs: list[float]) -> tuple[float, float, float]:
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4)
    return q1, q2, q3


def compare(before: list[dict], after: list[dict]) -> list[str]:
    if not before or not after:
        raise ValueError("each side needs at least one record")
    nprocs = {r["nproc"] for r in before} | {r["nproc"] for r in after}
    if len(nprocs) != 1:
        raise ValueError(f"records taken at different nproc {sorted(nprocs)}; "
                         "numbers from different CPU counts are not comparable")
    a, b = _series(before), _series(after)

    def cell(xs: list[float]) -> str:
        q1, q2, q3 = _quartiles(xs)
        return f"{q2:.4g} [{q1:.4g}, {q3:.4g}] ({len(xs)})"

    lines = [f"nproc={nprocs.pop()}",
             f"{'workload':<12} {'metric':<44} {'before p50 [q1, q3] (n)':<34} "
             f"{'after p50 [q1, q3] (n)':<34} after/before"]
    for key in sorted(set(a) & set(b)):
        base, new = statistics.median(a[key]), statistics.median(b[key])
        ratio = f"{new / base:.4f}" if base else "n/a"
        lines.append(f"{key[0]:<12} {key[1]:<44} {cell(a[key]):<34} "
                     f"{cell(b[key]):<34} {ratio}")
    return lines


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    try:
        lines = compare(load(argv[0]), load(argv[1]))
    except ValueError as e:
        print(f"refused: {e}", file=sys.stderr)
        return 2
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
