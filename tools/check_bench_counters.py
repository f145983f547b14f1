#!/usr/bin/env python3
"""Counter-identity gate for BENCH_protocols.json.

Compares a committed BENCH_protocols.json with a freshly generated one and
requires every value to match exactly, except the host-timing keys, which
measure the machine rather than the protocol:

  wall_seconds, traced_wall_seconds, untraced_wall_seconds,
  trace_overhead_pct, race_overhead_pct

Everything else -- message and byte counts, dsm.* counters, checksums,
virtual-time breakdowns, epochs -- is deterministic, so a change that is
meant to keep protocol behaviour unchanged must reproduce it bit for bit.

Exit status 0 with a one-line summary when the files agree, 1 naming the
first differing path otherwise.

Usage: check_bench_counters.py COMMITTED FRESH
"""

import json
import sys

HOST_TIMING_KEYS = frozenset({
    "wall_seconds",
    "traced_wall_seconds",
    "untraced_wall_seconds",
    "trace_overhead_pct",
    "race_overhead_pct",
})


def first_difference(a, b, path):
    """Returns the path of the first difference between a and b, or None."""
    if isinstance(a, dict) and isinstance(b, dict):
        for key in sorted(set(a) | set(b)):
            if key in HOST_TIMING_KEYS:
                continue
            sub = "%s/%s" % (path, key)
            if key not in a or key not in b:
                return "%s (only in %s)" % (sub,
                                            "committed" if key in a else
                                            "fresh")
            diff = first_difference(a[key], b[key], sub)
            if diff is not None:
                return diff
        return None
    if isinstance(a, list) and isinstance(b, list):
        if len(a) != len(b):
            return "%s (length %d vs %d)" % (path, len(a), len(b))
        for i, (x, y) in enumerate(zip(a, b)):
            diff = first_difference(x, y, "%s[%d]" % (path, i))
            if diff is not None:
                return diff
        return None
    if type(a) is not type(b) or a != b:
        return "%s (%r vs %r)" % (path, a, b)
    return None


def main(argv):
    if len(argv) != 3:
        print("usage: check_bench_counters.py COMMITTED FRESH")
        return 2
    with open(argv[1]) as f:
        committed = json.load(f)
    with open(argv[2]) as f:
        fresh = json.load(f)
    diff = first_difference(committed, fresh, "")
    if diff is not None:
        print("check_bench_counters: FAIL: values differ at %s" % diff)
        return 1
    print("check_bench_counters: OK -- every value but host timing matches")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
