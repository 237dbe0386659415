#!/usr/bin/env python3
"""CI gate for the pipelined-proposal-path throughput target (PR 7).

Reads a bench NDJSON file (BENCH_pr10.json) and asserts that the
steady-state TCP cluster at n=10 (tcp_cluster rows) sustains at least
`floor` blocks/s — 2x the pre-pipelining baseline (BENCH_pr6: 1917
blocks/s) by default.

The speedups this guards (DESIGN.md §12): mesh-gated replica start,
lazy-popped timer deadlines, short-read recv, deferred loopback
delivery via self_inbox_, the uncached inline delivery path, and the
out-of-band batch dissemination layer staying off the critical path
when payloads are inline.

Usage: check_throughput_gate.py BENCH_pr10.json [floor] [n]
  floor: minimum blocks/s for the gated row (default 3834).
  n:     cluster size of the gated row (default 10).
"""
import json
import sys


def main() -> int:
    path = sys.argv[1] if len(sys.argv) > 1 else "BENCH_pr10.json"
    floor = float(sys.argv[2]) if len(sys.argv) > 2 else 3834.0
    n_gate = int(sys.argv[3]) if len(sys.argv) > 3 else 10

    # Last matching row wins (the file accumulates across benches).
    best = None
    with open(path) as f:
        for line in f:
            line = line.strip()
            if not line:
                continue
            row = json.loads(line)
            if row.get("bench") != "tcp_cluster":
                continue
            if int(row["n"]) != n_gate:
                continue
            best = float(row["blocks_per_sec"])

    if best is None:
        print(f"gate: no tcp_cluster n={n_gate} row in {path}")
        return 1

    verdict = "PASS" if best >= floor else "FAIL"
    print(f"gate: tcp_cluster n={n_gate} blocks/s={best:.0f} (floor {floor:.0f}) -> {verdict}")
    if best < floor:
        print("gate: the pipelined proposal path has regressed below 2x the "
              "pre-pipelining baseline")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
