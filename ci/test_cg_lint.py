#!/usr/bin/env python3
"""Pytest-free self-test for cg_lint.py, invoked from CI.

Builds throwaway mini-repos under a tempdir and checks, for each rule, one
fixture that must trigger it and one that must pass: determinism (clocks /
entropy, with the trace.cpp allowlist and comment immunity), no-sleep,
pin-guard (raw Pin/Unpin outside the allowlist), and the names catalog
(unknown metric, unknown trace category, non-literal name, metric first
args holding more than one literal, multi-line call sites, stale catalog
entries, missing markers). Diagnostics must be one line per violation, never a
traceback. Runs with nothing but the standard library:
`python3 ci/test_cg_lint.py`.
"""

import io
import os
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import cg_lint as lint  # noqa: E402

NAMES_H = """\
#pragma once
// cg-lint: metric-catalog-begin
inline constexpr const char* kMetricNames[] = {
    "demo.count",
    "demo.hist",
};
// cg-lint: metric-catalog-end
// cg-lint: trace-cat-catalog-begin
inline constexpr const char* kTraceCategories[] = {
    "demo",
};
// cg-lint: trace-cat-catalog-end
"""

# A file exercising every catalog name so the stale-entry check stays green,
# with a multi-line call site.
CLEAN_CPP = """\
#include "obs/names.h"
void f(int n) {
  CG_METRIC_COUNT("demo.count", n);
  CG_METRIC_HIST(
      "demo.hist",
      n);
  CG_TRACE_SPAN("demo", "work");
}
"""


def write_repo(tmp, name, files):
    """Create tmp/<name>/src/... plus the standard names.h; return root."""
    root = os.path.join(tmp, name)
    all_files = {"src/obs/names.h": NAMES_H, "src/clean.cpp": CLEAN_CPP}
    all_files.update(files)
    for rel, content in all_files.items():
        path = os.path.join(root, rel)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as f:
            f.write(content)
    return root


def run(root):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = lint.main(["--root", root])
    return code, out.getvalue(), err.getvalue()


def fail_lines(err):
    return [ln for ln in err.strip().splitlines()
            if ln.startswith("cg-lint FAIL:")]


def expect_fail(root, rule, needle):
    code, _, err = run(root)
    assert code == 1, f"must exit 1, got {code}: {err!r}"
    assert "Traceback" not in err, err
    lines = fail_lines(err)
    assert lines, f"no FAIL lines: {err!r}"
    hits = [ln for ln in lines if f": {rule}:" in ln and needle in ln]
    assert hits, f"no {rule} FAIL mentioning {needle!r} in: {lines}"
    return lines


def expect_clean(root, why):
    code, out, err = run(root)
    assert code == 0, f"{why}: must exit 0, got {code}: {err!r}"
    assert "cg-lint OK" in out, out


def main():
    checks = 0
    with tempfile.TemporaryDirectory() as tmp:
        # 1. The fixture baseline (catalog fully exercised) is clean.
        expect_clean(write_repo(tmp, "base", {}), "baseline fixture")
        checks += 1

        # 2. determinism: a real clock in library code fails; the same code
        #    in the allowlisted trace.cpp passes; a clock name that appears
        #    only in a comment passes.
        clock = "auto t = std::chrono::steady_clock::now();\n"
        expect_fail(write_repo(tmp, "det", {"src/a.cpp": clock}),
                    "determinism", "steady_clock")
        expect_clean(write_repo(tmp, "det_allow",
                                {"src/obs/trace.cpp": clock}),
                     "allowlisted trace.cpp clock")
        expect_clean(write_repo(
            tmp, "det_comment",
            {"src/a.cpp": "// unlike steady_clock, we use virtual time\n"
                          "/* rand() is banned */\nint x;\n"}),
            "clock/rand mentioned only in comments")
        checks += 1

        # 3. determinism: entropy sources fail too.
        expect_fail(write_repo(tmp, "rng",
                               {"src/a.cpp": "std::random_device rd;\n"}),
                    "determinism", "random_device")
        expect_fail(write_repo(tmp, "crand",
                               {"src/a.cpp": "int x = rand();\n"}),
                    "determinism", "rand")
        checks += 1

        # 4. no-sleep: sleep_for in src/ fails (and names the rule).
        expect_fail(write_repo(
            tmp, "sleep",
            {"src/a.cpp":
             "std::this_thread::sleep_for(std::chrono::seconds(1));\n"}),
            "no-sleep", "CondVar")
        checks += 1

        # 5. pin-guard: raw Pin/Unpin outside the allowlist fails; the same
        #    calls inside pin_guard.h pass.
        pin = "void g(CacheTier* t) { t->Pin(\"id\"); t->Unpin(\"id\"); }\n"
        lines = expect_fail(write_repo(tmp, "pin", {"src/b.cpp": pin}),
                            "pin-guard", "PinGuard")
        assert len(lines) == 2, f"want Pin and Unpin flagged: {lines}"
        expect_clean(write_repo(tmp, "pin_allow",
                                {"src/storage/pin_guard.h": pin}),
                     "allowlisted pin_guard.h")
        checks += 1

        # 6. names: unknown metric / unknown trace category fail and name
        #    the offending literal.
        expect_fail(write_repo(
            tmp, "badmetric",
            {"src/c.cpp": 'CG_METRIC_COUNT("demo.unlisted", 1);\n'}),
            "names", "demo.unlisted")
        expect_fail(write_repo(
            tmp, "badcat",
            {"src/c.cpp": 'CG_TRACE_INSTANT("rogue", "ev");\n'}),
            "names", '"rogue"')
        checks += 1

        # 7. names: a metric name picked at run time fails even when both
        #    branches are in the catalog (the site would count both under
        #    the first name it saw); with an unlisted branch, that literal
        #    is named too.
        expect_fail(write_repo(
            tmp, "listedbranch",
            {"src/c.cpp":
             'CG_METRIC_COUNT(alt ? "demo.count" : "demo.hist", 1);\n'}),
            "names", "not exactly one string literal")
        lines = expect_fail(write_repo(
            tmp, "badbranch",
            {"src/c.cpp":
             'CG_METRIC_COUNT(alt ? "demo.count" : "demo.rogue", 1);\n'}),
            "names", "demo.rogue")
        assert any("not exactly one string literal" in ln for ln in lines), \
            lines
        checks += 1

        # 8. names: a non-literal (computed) metric name fails.
        expect_fail(write_repo(
            tmp, "computed",
            {"src/c.cpp": "CG_METRIC_COUNT(name_variable, 1);\n"}),
            "names", "not a string literal")
        checks += 1

        # 9. names: a catalog entry with no call site is stale. (Drop the
        #    CG_TRACE_SPAN("demo", ...) user: "demo" goes stale.)
        expect_fail(write_repo(
            tmp, "stale",
            {"src/clean.cpp": CLEAN_CPP.replace(
                '  CG_TRACE_SPAN("demo", "work");\n', "")}),
            "names", "stale catalog entry")
        checks += 1

        # 10. missing catalog markers are an environment error (exit 2, one
        #     ERROR line), not a crash.
        code, _, err = run(write_repo(
            tmp, "nomarkers", {"src/obs/names.h": "#pragma once\n"}))
        assert code == 2, f"must exit 2, got {code}: {err!r}"
        assert err.count("cg-lint ERROR:") == 1 and "Traceback" not in err, err
        checks += 1

        # 11. Diagnostics are one line per violation, sorted, parseable as
        #     path:line:rule.
        root = write_repo(tmp, "multi", {
            "src/a.cpp": "int x = rand();\n",
            "src/b.cpp": "void g(T* t) { t->Pin(\"id\"); }\n",
        })
        code, _, err = run(root)
        lines = fail_lines(err)
        assert code == 1 and len(lines) == 2, (code, lines)
        for ln in lines:
            rest = ln[len("cg-lint FAIL: "):]
            path, line_no, rule = rest.split(":")[0:3]
            assert path.startswith("src/") and int(line_no) >= 1, ln
            assert rule.strip() in ("determinism", "pin-guard"), ln
        checks += 1

    # 12. The real repository is clean under the shipped rules.
    repo = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    expect_clean(repo, "real repository")
    checks += 1

    print(f"cg_lint self-test: {checks} checks OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
