#!/usr/bin/env python3
"""Repo-specific lint rules (DESIGN.md §13).

Four structural conventions that clang-tidy cannot express, enforced as
baselines so existing, reviewed occurrences stay legal while new ones fail
the lint CI job:

1. transport-choke-point — every envelope leaves through
   DsmSystem::send_envelope and every staged segment through Channel;
   calling send_envelope from anywhere else bypasses the FIFO fingerprint,
   traffic accounting, and tracing hooks that live there.  Calls are only
   allowed in the whitelisted transport files.

2. interned-stats-handles — hot-path files must intern StatsRegistry
   handles once (ctr_* pointers) instead of doing a by-name map lookup per
   event.  The per-file count of string-literal lookups may not grow.

3. no-compute-in-span — obs::ScopedSpan attributes virtual time to a
   bucket; calling compute()/flush_cpu() inside a span risks
   double-attribution, so the per-file count of such calls may not grow
   (the reviewed baseline cases charge fixed service costs deliberately).

4. knob-table — every run-time knob is one row of the knob table in
   src/dsm/config.cpp (DESIGN.md §15), which alone reads the ANOW_*
   environment; a getenv("ANOW_...") anywhere else would add a knob that
   bypasses the table's validation, --help and backend checks.  The
   per-file count may not grow (baseline: debug.hpp's ANOW_TRACE_PAGE
   debugging switch).

Exit code 0 = clean, 1 = violation (message names the rule and the line).
Run from anywhere: paths resolve relative to the repo root.
"""

import re
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent

# --- rule 1: send_envelope call sites ------------------------------------

SEND_ENVELOPE_WHITELIST = {
    "src/dsm/system.hpp",
    "src/dsm/system.cpp",
    "src/dsm/process.cpp",
    "src/dsm/channel.hpp",
}

# --- rule 2: by-name stats lookups in hot-path files ---------------------
# Baseline = reviewed occurrences (handle interning at attach/ctor time plus
# the rare-event placement counters).  Lower is fine; higher fails.

STATS_LOOKUP_BASELINE = {
    "src/dsm/process.cpp": 3,
    "src/dsm/system.cpp": 12,
    "src/dsm/channel.hpp": 0,
    "src/dsm/protocol/lrc_engine.cpp": 3,
    "src/dsm/protocol/home_lrc_engine.cpp": 5,
}

# --- rule 3: compute()/flush_cpu() inside ScopedSpan scopes --------------
# Baseline = reviewed cases that charge a fixed fault/diff service cost
# inside the span on purpose (the span is the attribution target).

COMPUTE_IN_SPAN_BASELINE = {
    "src/dsm/process.cpp": 10,
}

# --- rule 4: ANOW_* environment reads outside the knob table -------------

KNOB_ENV_BASELINE = {
    "src/dsm/config.cpp": None,  # the knob table: unlimited
    "src/dsm/debug.hpp": 1,
}

CODE_SUFFIXES = {".cpp", ".hpp"}
SCAN_DIRS = ["src", "bench", "tests", "examples"]


def strip_comments(line: str) -> str:
    """Drops //-comments; block comments are rare enough to handle crudely."""
    idx = line.find("//")
    return line[:idx] if idx >= 0 else line


def code_files():
    for d in SCAN_DIRS:
        root = REPO / d
        if not root.is_dir():
            continue
        for path in sorted(root.rglob("*")):
            if path.suffix in CODE_SUFFIXES:
                yield path


def rel(path: Path) -> str:
    return path.relative_to(REPO).as_posix()


def check_send_envelope(violations):
    call = re.compile(r"\bsend_envelope\s*\(")
    for path in code_files():
        name = rel(path)
        if name in SEND_ENVELOPE_WHITELIST:
            continue
        for lineno, line in enumerate(path.read_text().splitlines(), 1):
            if call.search(strip_comments(line)):
                violations.append(
                    f"{name}:{lineno}: [transport-choke-point] "
                    "send_envelope() called outside the whitelisted "
                    "transport files — stage through Channel instead"
                )


def check_stats_lookups(violations):
    # handle("...") is the approved interning idiom (one lookup at attach
    # time, pointer bumps afterwards); counter("...")/accum("...") are the
    # per-event lookups the rule limits.
    lookup = re.compile(r"\b(?:counter|accum)\s*\(\s*\"")
    for name, allowed in STATS_LOOKUP_BASELINE.items():
        path = REPO / name
        if not path.is_file():
            continue
        hits = []
        for lineno, line in enumerate(path.read_text().splitlines(), 1):
            if lookup.search(strip_comments(line)):
                hits.append(lineno)
        if len(hits) > allowed:
            violations.append(
                f"{name}: [interned-stats-handles] {len(hits)} by-name "
                f"stats lookups (baseline {allowed}; lines {hits}) — intern "
                "a handle once instead of looking up per event"
            )


def count_compute_in_spans(path: Path):
    """Counts compute()/flush_cpu() calls lexically inside a scope that
    declared an obs::ScopedSpan (brace-depth heuristic)."""
    span_decl = re.compile(r"\bobs::ScopedSpan\b")
    compute_call = re.compile(r"\b(?:compute|flush_cpu)\s*\(")
    depth = 0
    span_depths = []  # brace depths holding a live span
    hits = []
    for lineno, raw in enumerate(path.read_text().splitlines(), 1):
        line = strip_comments(raw)
        if span_decl.search(line):
            span_depths.append(depth)
        if span_depths and compute_call.search(line):
            hits.append(lineno)
        for ch in line:
            if ch == "{":
                depth += 1
            elif ch == "}":
                depth -= 1
                while span_depths and depth <= span_depths[-1]:
                    span_depths.pop()
    return hits


def check_compute_in_span(violations):
    for name, allowed in COMPUTE_IN_SPAN_BASELINE.items():
        path = REPO / name
        if not path.is_file():
            continue
        hits = count_compute_in_spans(path)
        if len(hits) > allowed:
            violations.append(
                f"{name}: [no-compute-in-span] {len(hits)} compute()/"
                f"flush_cpu() calls inside ScopedSpan scopes (baseline "
                f"{allowed}; lines {hits}) — charge the cost outside the "
                "span or update the baseline with a review"
            )
    # Files not in the baseline get a zero allowance.
    for path in code_files():
        name = rel(path)
        if name in COMPUTE_IN_SPAN_BASELINE:
            continue
        hits = count_compute_in_spans(path)
        if hits:
            violations.append(
                f"{name}: [no-compute-in-span] compute()/flush_cpu() inside "
                f"a ScopedSpan scope at lines {hits}"
            )


def check_knob_env(violations):
    read = re.compile(r"\bgetenv\s*\(\s*\"ANOW_")
    for path in code_files():
        name = rel(path)
        allowed = KNOB_ENV_BASELINE.get(name, 0)
        if allowed is None:
            continue
        hits = [
            lineno
            for lineno, line in enumerate(path.read_text().splitlines(), 1)
            for _ in read.finditer(strip_comments(line))
        ]
        if len(hits) > allowed:
            violations.append(
                f"{name}: [knob-table] getenv(\"ANOW_...\") at lines {hits} "
                f"(baseline {allowed}) — add a row to the knob table in "
                "src/dsm/config.cpp instead"
            )


def main() -> int:
    violations = []
    check_send_envelope(violations)
    check_stats_lookups(violations)
    check_compute_in_span(violations)
    check_knob_env(violations)
    if violations:
        for v in violations:
            print(v)
        print(f"lint_rules: {len(violations)} violation(s)")
        return 1
    print("lint_rules: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
