#!/usr/bin/env python3
"""CI gate for the event stream's commit-lifecycle analysis (DESIGN.md §10.1).

Reads a bench NDJSON file and asserts, on the tcp_span_overhead row
(n=16 always-fallback — the worst-case event volume):

  * recording overhead: recording-on throughput >= slack * recording-off
    (default 0.95, i.e. < 5% commit-throughput cost);
  * attribution: at least one critical-path chain was stitched, and the
    telescoped per-stage sum covers >= 90% of every chain's end-to-end
    encode->commit latency (coverage_min >= 0.9).

The regression this guards: any instrumentation creep on the inline
delivery path (per-frame hashing beyond the 96-byte FNV prefix, a ring
shared across node threads, eager NDJSON formatting) shows up here as throughput
loss before it shows up anywhere else; a key-derivation mismatch between
the transport and protocol layers shows up as zero chains.

Usage: check_span_gate.py BENCH.json [overhead_slack] [min_coverage]
"""
import json
import sys


def main() -> int:
    path = sys.argv[1] if len(sys.argv) > 1 else "BENCH_pr10.json"
    slack = float(sys.argv[2]) if len(sys.argv) > 2 else 0.95
    min_coverage = float(sys.argv[3]) if len(sys.argv) > 3 else 0.9

    # Last row wins (the file accumulates across CI runs of several
    # benches; the freshest numbers belong to this run).
    row = None
    with open(path) as f:
        for line in f:
            line = line.strip()
            if not line:
                continue
            parsed = json.loads(line)
            if parsed.get("bench") == "tcp_span_overhead":
                row = parsed

    if row is None:
        print(f"gate: no tcp_span_overhead row in {path}")
        return 1

    off = float(row["blocks_per_sec_off"])
    on = float(row["blocks_per_sec_on"])
    chains = int(row["chains"])
    coverage_min = float(row["coverage_min"])

    failed = False
    if off <= 0 or on < slack * off:
        print(f"gate: FAIL span overhead: spans-on {on:.0f} < {slack} * "
              f"spans-off {off:.0f} blocks/s")
        failed = True
    else:
        print(f"gate: ok span overhead: spans-on {on:.0f} vs spans-off "
              f"{off:.0f} blocks/s (>= {slack}x)")

    if chains < 1:
        print("gate: FAIL no critical-path chains stitched")
        failed = True
    else:
        print(f"gate: ok {chains} critical-path chains stitched")

    if coverage_min < min_coverage:
        print(f"gate: FAIL stage-sum coverage_min {coverage_min:.3f} < "
              f"{min_coverage}")
        failed = True
    else:
        print(f"gate: ok stage-sum coverage_min {coverage_min:.3f} "
              f"(>= {min_coverage})")

    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
