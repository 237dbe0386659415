#!/usr/bin/env python3
"""CI gate for the scale-out acceptance row (DESIGN.md §13).

Reads a bench NDJSON file written by `bench_scaling --json` and asserts
that the always-fallback n=100 asynchrony row (bench_scaling's
`gate_row`, run for a fixed 30-virtual-second horizon) commits at least
one block. Strict f-block adoption is what lets always-fallback build
the leader-pure chains the endorsed-consecutive commit rule needs under
asynchrony; without it this row commits nothing. The gate also prints
messages per decision, the cost certificate relay keeps down.

Usage: check_scaling_gate.py SCALING.json [n]
  n: committee size of the gated row (default 100).
"""
import json
import sys


def main() -> int:
    if len(sys.argv) < 2:
        print(__doc__)
        return 2
    path = sys.argv[1]
    n_gate = int(sys.argv[2]) if len(sys.argv) > 2 else 100

    gate = None
    with open(path) as f:
        for line in f:
            line = line.strip()
            if not line:
                continue
            row = json.loads(line)
            if row.get("bench") != "scaling" or not row.get("gate_row"):
                continue
            if int(row["n"]) == n_gate:
                gate = row  # last matching row wins

    if gate is None:
        print(f"scaling gate: no gate_row at n={n_gate} in {path}")
        return 1

    decisions = int(gate["decisions"])
    if decisions == 0:
        print(f"scaling gate: FAIL — always-fallback committed nothing at n={n_gate} "
              f"in {gate['virtual_time_s']:.0f} virtual s (asynchronous liveness lost)")
        return 1
    print(f"scaling gate: OK — n={n_gate} always-fallback committed {decisions} blocks "
          f"in {gate['virtual_time_s']:.0f} virtual s, "
          f"{float(gate['msgs_per_decision']):.0f} msgs/decision")
    return 0


if __name__ == "__main__":
    sys.exit(main())
