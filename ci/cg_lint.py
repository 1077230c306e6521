#!/usr/bin/env python3
"""cg-lint: repo-invariant checker for the CacheGen tree (CI gate).

Pattern-based (no compiler/LLVM dependency) enforcement of invariants the
type system cannot express:

  determinism   src/ library code must not read wall clocks or OS entropy
                (std::chrono::*_clock, std::random_device, rand/srand,
                gettimeofday/clock_gettime). The simulation is virtual-time;
                a stray real clock silently breaks bit-identical reruns.
                Allowlist: src/obs/trace.cpp (the wall-trace epoch is the
                one deliberate monotonic-clock consumer).
  no-sleep      no std::this_thread::sleep_for/sleep_until in src/ — library
                code waits on condition variables or virtual time, never the
                OS scheduler (sleeps make tests slow AND flaky).
  pin-guard     raw CacheTier Pin()/Unpin() calls are allowed only in the
                tier implementations that forward them; everything else must
                hold pins through PinGuard (RAII), so an early return or
                throw can never leak a pin.
  names         every CG_METRIC_* metric name and CG_TRACE_* category in
                src/ must be a string literal listed in the catalog header
                src/obs/names.h (which ci/check_trace.py also reads), and
                every catalog entry must have at least one call site — the
                catalog is single-source-of-truth, not a museum. A
                CG_METRIC_* first argument must be exactly one literal: the
                macro caches the metric the site first resolves, so a name
                picked at run time (`c ? "a" : "b"`) counts everything under
                whichever name came first.

Diagnostics are one line each:
  cg-lint FAIL: <path>:<line>: <rule>: <message>
Exit status: 0 clean, 1 any violation, 2 usage/environment error.

Self-tested by ci/test_cg_lint.py (one triggering and one passing fixture
per rule).
"""

from __future__ import annotations

import argparse
import os
import re
import sys

# --- rule configuration ------------------------------------------------------

# Files (repo-relative, forward slashes) exempt from the determinism rule.
DETERMINISM_ALLOWLIST = {
    # Wall-clock trace epoch: the tracer's kWall domain is real time by
    # design; steady_clock is monotonic and never leaks into simulation state.
    "src/obs/trace.cpp",
}

# Files allowed to call CacheTier::Pin/Unpin directly: the RAII wrapper
# itself plus the tier implementations that forward pins downward.
PIN_ALLOWLIST = {
    "src/storage/pin_guard.h",
    "src/storage/tiered_kv_store.cpp",
    "src/prefix/prefix_cache.cpp",
    "src/fabric/cache_fabric.cpp",
}

NAMES_HEADER = "src/obs/names.h"

DETERMINISM_PATTERNS = [
    (re.compile(r"\b(?:system_clock|steady_clock|high_resolution_clock)\b"),
     "real clock (use virtual time; see src/obs/names.h header comment)"),
    (re.compile(r"\bstd::random_device\b"), "OS entropy source"),
    (re.compile(r"\b(?:rand|srand)\s*\("), "C PRNG (use common/rng.h)"),
    (re.compile(r"\b(?:gettimeofday|clock_gettime)\s*\("), "wall clock"),
]

SLEEP_PATTERN = re.compile(r"\bsleep_(?:for|until)\s*\(")

PIN_PATTERN = re.compile(r"(?:->|\.)(?:Pin|Unpin)\s*\(")

METRIC_MACROS = ("CG_METRIC_COUNT", "CG_METRIC_GAUGE_SET",
                 "CG_METRIC_GAUGE_ADD", "CG_METRIC_GAUGE_MAX",
                 "CG_METRIC_HIST")
TRACE_MACROS = ("CG_TRACE_SPAN", "CG_TRACE_INSTANT", "CG_TRACE_COUNTER",
                "CG_TRACE_VSPAN", "CG_TRACE_VINSTANT")

STRING_LITERAL = re.compile(r'"((?:[^"\\]|\\.)*)"')


class LintError(Exception):
    """Environment/usage failure (not a lint violation)."""


def strip_comments(text: str) -> str:
    """Remove //... and /*...*/ comments, preserving line structure and
    string/char literals (a // inside a string literal is kept)."""
    out = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c in ('"', "'"):
            quote = c
            out.append(c)
            i += 1
            while i < n:
                out.append(text[i])
                if text[i] == "\\" and i + 1 < n:
                    out.append(text[i + 1])
                    i += 2
                    continue
                if text[i] == quote:
                    i += 1
                    break
                i += 1
        elif c == "/" and i + 1 < n and text[i + 1] == "/":
            while i < n and text[i] != "\n":
                i += 1
        elif c == "/" and i + 1 < n and text[i + 1] == "*":
            i += 2
            while i + 1 < n and not (text[i] == "*" and text[i + 1] == "/"):
                if text[i] == "\n":
                    out.append("\n")
                i += 1
            i += 2
        else:
            out.append(c)
            i += 1
    return "".join(out)


def source_files(root: str):
    """Yield (relpath, abspath) for every C++ file under src/."""
    src = os.path.join(root, "src")
    if not os.path.isdir(src):
        raise LintError(f"no src/ directory under {root}")
    for dirpath, _dirnames, filenames in sorted(os.walk(src)):
        for name in sorted(filenames):
            if name.endswith((".h", ".hpp", ".cpp", ".cc")):
                path = os.path.join(dirpath, name)
                rel = os.path.relpath(path, root).replace(os.sep, "/")
                yield rel, path


def line_of(text: str, pos: int) -> int:
    return text.count("\n", 0, pos) + 1


# --- catalog parsing ---------------------------------------------------------

def parse_catalog(names_text: str, kind: str) -> set[str]:
    """Extract string literals between `// cg-lint: <kind>-begin` and `-end`
    markers. Raises LintError when the markers are missing or unbalanced."""
    begin = f"cg-lint: {kind}-begin"
    end = f"cg-lint: {kind}-end"
    b = names_text.find(begin)
    e = names_text.find(end)
    if b < 0 or e < 0 or e < b:
        raise LintError(f"{NAMES_HEADER}: missing or unbalanced "
                        f"'{begin}'/'{end}' markers")
    return {m.group(1) for m in STRING_LITERAL.finditer(names_text[b:e])}


def first_macro_arg(text: str, open_paren: int) -> tuple[str, int]:
    """Return (first argument text, end position) for a macro call whose '('
    is at open_paren, honoring nested parens and string literals."""
    depth = 0
    i = open_paren
    arg_start = open_paren + 1
    n = len(text)
    while i < n:
        c = text[i]
        if c == '"':
            i += 1
            while i < n:
                if text[i] == "\\":
                    i += 2
                    continue
                if text[i] == '"':
                    break
                i += 1
        elif c == "(":
            depth += 1
        elif c == ")":
            depth -= 1
            if depth == 0:
                return text[arg_start:i], i
        elif c == "," and depth == 1:
            return text[arg_start:i], i
        i += 1
    return text[arg_start:], n


# --- rules -------------------------------------------------------------------

def check_determinism(rel, stripped, failures):
    if rel in DETERMINISM_ALLOWLIST:
        return
    for pattern, what in DETERMINISM_PATTERNS:
        for m in pattern.finditer(stripped):
            failures.append((rel, line_of(stripped, m.start()), "determinism",
                             f"{m.group(0).strip()} — {what}"))


def check_sleep(rel, stripped, failures):
    for m in SLEEP_PATTERN.finditer(stripped):
        failures.append((rel, line_of(stripped, m.start()), "no-sleep",
                         "std::this_thread sleep in library code "
                         "(wait on a CondVar or virtual time instead)"))


def check_pin_guard(rel, stripped, failures):
    if rel in PIN_ALLOWLIST:
        return
    for m in PIN_PATTERN.finditer(stripped):
        failures.append((rel, line_of(stripped, m.start()), "pin-guard",
                         f"raw {m.group(0).rstrip('(').lstrip('->.')}() call "
                         "outside PinGuard (use PinGuard::Acquire/Adopt)"))


def macro_call_sites(stripped, macros):
    """Yield (macro, pos, first_arg, literals_in_first_arg) for every call
    site, skipping #define lines (the macro definitions themselves)."""
    for macro in macros:
        for m in re.finditer(rf"\b{macro}\s*\(", stripped):
            line_start = stripped.rfind("\n", 0, m.start()) + 1
            prefix = stripped[line_start:m.start()]
            if "#" in prefix and "define" in prefix:
                continue
            arg, _end = first_macro_arg(stripped, m.end() - 1)
            literals = [lm.group(1) for lm in STRING_LITERAL.finditer(arg)]
            yield macro, m.start(), arg, literals


def check_names(root, files, failures):
    names_path = os.path.join(root, NAMES_HEADER)
    try:
        with open(names_path, encoding="utf-8") as f:
            names_text = f.read()
    except OSError as exc:
        raise LintError(f"cannot read {NAMES_HEADER}: {exc}") from exc
    metric_catalog = parse_catalog(names_text, "metric-catalog")
    cat_catalog = parse_catalog(names_text, "trace-cat-catalog")

    used_metrics: set[str] = set()
    used_cats: set[str] = set()
    for rel, stripped in files:
        if rel == NAMES_HEADER:
            continue
        for macro, pos, arg, literals in macro_call_sites(stripped,
                                                          METRIC_MACROS):
            line = line_of(stripped, pos)
            if not literals:
                failures.append((rel, line, "names",
                                 f"{macro} name is not a string literal "
                                 f"(must come from {NAMES_HEADER})"))
                continue
            if not STRING_LITERAL.fullmatch(arg.strip()):
                failures.append((rel, line, "names",
                                 f"{macro} name is not exactly one string "
                                 "literal (the site caches the first name it "
                                 "sees; use one call site per name)"))
            for lit in literals:
                used_metrics.add(lit)
                if lit not in metric_catalog:
                    failures.append((rel, line, "names",
                                     f'metric "{lit}" not in {NAMES_HEADER} '
                                     "metric catalog"))
        for macro, pos, _arg, literals in macro_call_sites(stripped,
                                                           TRACE_MACROS):
            line = line_of(stripped, pos)
            if not literals:
                failures.append((rel, line, "names",
                                 f"{macro} category is not a string literal "
                                 f"(must come from {NAMES_HEADER})"))
                continue
            # Only the FIRST argument (the category) is validated; literals
            # beyond it (event/arg names) are free-form.
            cat = literals[0]
            used_cats.add(cat)
            if cat not in cat_catalog:
                failures.append((rel, line, "names",
                                 f'trace category "{cat}" not in '
                                 f"{NAMES_HEADER} category catalog"))

    for stale in sorted(metric_catalog - used_metrics):
        failures.append((NAMES_HEADER, 1, "names",
                         f'stale catalog entry "{stale}": no CG_METRIC_* '
                         "call site in src/"))
    for stale in sorted(cat_catalog - used_cats):
        failures.append((NAMES_HEADER, 1, "names",
                         f'stale catalog entry "{stale}": no CG_TRACE_* '
                         "call site in src/"))


# --- driver ------------------------------------------------------------------

def run(root: str) -> list[tuple[str, int, str, str]]:
    failures: list[tuple[str, int, str, str]] = []
    files = []
    for rel, path in source_files(root):
        with open(path, encoding="utf-8") as f:
            stripped = strip_comments(f.read())
        files.append((rel, stripped))
    for rel, stripped in files:
        check_determinism(rel, stripped, failures)
        check_sleep(rel, stripped, failures)
        check_pin_guard(rel, stripped, failures)
    check_names(root, files, failures)
    failures.sort()
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="CacheGen repo-invariant linter (see module docstring)")
    parser.add_argument(
        "--root",
        default=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
        help="repository root (default: parent of this script's directory)")
    args = parser.parse_args(argv)

    try:
        failures = run(os.path.abspath(args.root))
    except LintError as exc:
        print(f"cg-lint ERROR: {exc}", file=sys.stderr)
        return 2
    for rel, line, rule, msg in failures:
        print(f"cg-lint FAIL: {rel}:{line}: {rule}: {msg}", file=sys.stderr)
    if failures:
        print(f"cg-lint: {len(failures)} violation(s)", file=sys.stderr)
        return 1
    print("cg-lint OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
