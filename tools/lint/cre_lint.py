#!/usr/bin/env python3
"""cre_lint: project-invariant linter for the cre engine.

Checks invariants that neither the compiler nor clang-tidy can see because
they span files or encode project policy:

  chaos-coverage   every fault-injection site in the SiteCatalogue
                   (src/core/fault_injection.cc) is probed by name in
                   tests/chaos_test.cc. A site nobody injects is a recovery
                   path nobody tests.

  cancel-poll      files on the hot-loop manifest (HNSW build, IVF/IVF-PQ
                   scans, morsel maps, detection scan) contain a
                   cancellation poll (CheckStop or cancelled()). A hot loop
                   that never polls turns per-query deadlines into
                   suggestions.

  metric-name      every metric registered via Counter("...")/Gauge("...")/
                   Histogram("...") matches ^cre_[a-z0-9_]+$, and one name
                   is bound to exactly one instrument type (the same name
                   may be registered repeatedly with different labels, but
                   a name that is a Counter in one file and a Gauge in
                   another corrupts the exported series).

  raw-thread       no `std::thread` use outside src/core/ — long-lived
                   worker threads belong to QueryScheduler so shutdown
                   and fairness stay centralized.
                   (`std::thread::hardware_concurrency` and
                   `std::this_thread` are fine.)

  naked-new        no unmanaged `new` outside src/core/ — allocations must
                   be wrapped in a smart pointer on the same statement line
                   (std::make_* never spells `new`, so any surviving `new`
                   is either wrapped in place or a leak waiting to happen).

  fan-out          no `Submit(` outside src/core/, src/engine/scheduler.*
                   and src/index/index_manager.cc (the index manager's
                   background jobs). Parallel work goes through
                   TaskRunner::ParallelFor, where the calling thread pulls
                   pieces too; a hand-written Submit loop + Wait leaves it
                   idle.

  charge-scope     no `Charge(` call outside src/core/resource_governor.* —
                   a governor charge is held by a ScopedCharge, which
                   releases it with the structure it covers; a bare
                   Charge is released by hand or not at all.

Waivers: a finding of rule R at line L is waived when a comment

    // cre-lint: allow(R): <reason>

appears on line L or within the 4 lines above it (multi-line waiver
comments and wrapped statements both land inside that window). The reason
is mandatory — a bare allow() does not parse.

Exit status: 0 clean, 1 findings, 2 usage/config error.
"""

import argparse
import os
import re
import sys

# Files whose inner loops must poll for cancellation. Paths are relative to
# the repo root; each must contain at least one of CANCEL_POLL_PATTERNS.
HOT_LOOP_MANIFEST = [
    "src/vecsim/hnsw_index.cc",
    "src/vecsim/ivf_index.cc",
    "src/vecsim/ivfpq_index.cc",
    "src/exec/morsel.cc",
    "src/vision/detection_scan.cc",
]

CANCEL_POLL_PATTERNS = [r"\bCheckStop\s*\(", r"\bcancelled\s*\(\)"]

METRIC_NAME_RE = re.compile(r"^cre_[a-z0-9_]+$")
METRIC_CALL_RE = re.compile(r"\b(Counter|Gauge|Histogram)\(\s*\"([^\"]*)\"")

WAIVER_RE = re.compile(r"//\s*cre-lint:\s*allow\(([a-z-]+)\):\s*\S")
WAIVER_WINDOW = 4  # lines above a finding in which a waiver still applies

# `std::thread` as a type (declaration/construction); `std::thread::...`
# statics and `std::this_thread` are not thread ownership.
RAW_THREAD_RE = re.compile(r"std::thread\b(?!::)")

# A `new` expression: keyword followed by a type. Same-line smart-pointer
# wrapping makes it managed.
NAKED_NEW_RE = re.compile(r"\bnew\b\s*[A-Za-z_(<:]")
SMART_WRAP_RE = re.compile(
    r"(?:std::(?:unique_ptr|shared_ptr)\s*<[^;]*>\s*\w*\s*\(\s*new"
    r"|\.reset\s*\(\s*new\b)"
)

# Files that may enqueue tasks directly: the runners themselves and the
# index manager's background build / persist jobs.
SUBMIT_RE = re.compile(r"\bSubmit\s*\(")
SUBMIT_OWNERS = ("src/core/", "src/engine/scheduler.h",
                 "src/engine/scheduler.cc", "src/index/index_manager.cc")

# Files that may call Charge( directly: the accountant and ScopedCharge.
CHARGE_RE = re.compile(r"\bCharge\s*\(")
CHARGE_OWNERS = ("src/core/resource_governor.h",
                 "src/core/resource_governor.cc")

LINE_COMMENT_RE = re.compile(r"//(?!\s*cre-lint:).*$")
STRING_RE = re.compile(r'"(?:[^"\\]|\\.)*"')


class Finding:
    def __init__(self, rule, path, line, message):
        self.rule = rule
        self.path = path
        self.line = line
        self.message = message

    def __str__(self):
        loc = f"{self.path}:{self.line}" if self.line else self.path
        return f"{loc}: [{self.rule}] {self.message}"


def read_lines(root, rel):
    with open(os.path.join(root, rel), encoding="utf-8") as f:
        return f.read().splitlines()


def file_waivers(lines):
    """Maps rule name -> set of line numbers (1-based) carrying a waiver."""
    waivers = {}
    for i, line in enumerate(lines, start=1):
        m = WAIVER_RE.search(line)
        if m:
            waivers.setdefault(m.group(1), set()).add(i)
    return waivers


def waived(waivers, rule, line_no):
    return any(
        w in waivers.get(rule, ())
        for w in range(line_no - WAIVER_WINDOW, line_no + 1)
    )


def strip_noise(line):
    """Removes string literals and non-waiver line comments so patterns in
    prose or log messages don't trip the code rules."""
    line = STRING_RE.sub('""', line)
    return LINE_COMMENT_RE.sub("", line)


def source_files(root, subdir, exts=(".cc", ".h")):
    out = []
    base = os.path.join(root, subdir)
    for dirpath, _, names in os.walk(base):
        for name in sorted(names):
            if name.endswith(exts):
                out.append(os.path.relpath(os.path.join(dirpath, name), root))
    return sorted(out)


def check_chaos_coverage(root):
    findings = []
    catalogue_rel = "src/core/fault_injection.cc"
    lines = read_lines(root, catalogue_rel)
    text = "\n".join(lines)
    m = re.search(r"SiteCatalogue\(\)\s*\{(.*?)\breturn\b", text, re.S)
    if not m:
        return [Finding("chaos-coverage", catalogue_rel, 0,
                        "could not locate SiteCatalogue() definition")]
    sites = re.findall(r'"([a-z0-9_.]+)"', m.group(1))
    if not sites:
        return [Finding("chaos-coverage", catalogue_rel, 0,
                        "SiteCatalogue() lists no sites")]
    chaos_rel = "tests/chaos_test.cc"
    chaos = "\n".join(read_lines(root, chaos_rel))
    for site in sites:
        if f'"{site}"' not in chaos:
            findings.append(Finding(
                "chaos-coverage", chaos_rel, 0,
                f'fault site "{site}" is in the SiteCatalogue but never '
                f"probed in {chaos_rel}"))
    return findings


def check_cancel_poll(root):
    findings = []
    for rel in HOT_LOOP_MANIFEST:
        path = os.path.join(root, rel)
        if not os.path.exists(path):
            findings.append(Finding(
                "cancel-poll", rel, 0,
                "hot-loop manifest entry does not exist (update "
                "HOT_LOOP_MANIFEST in tools/lint/cre_lint.py)"))
            continue
        text = "\n".join(read_lines(root, rel))
        if not any(re.search(p, text) for p in CANCEL_POLL_PATTERNS):
            findings.append(Finding(
                "cancel-poll", rel, 0,
                "hot-loop file has no cancellation poll (CheckStop or "
                "cancelled())"))
    return findings


def check_metric_names(root):
    findings = []
    kinds = {}  # name -> {kind: (path, line)}
    for rel in source_files(root, "src"):
        lines = read_lines(root, rel)
        waivers = file_waivers(lines)
        for i, line in enumerate(lines, start=1):
            for m in METRIC_CALL_RE.finditer(line):
                kind, name = m.group(1), m.group(2)
                if waived(waivers, "metric-name", i):
                    continue
                if not METRIC_NAME_RE.match(name):
                    findings.append(Finding(
                        "metric-name", rel, i,
                        f'metric name "{name}" does not match '
                        f"^cre_[a-z0-9_]+$"))
                    continue
                prior = kinds.setdefault(name, {})
                prior.setdefault(kind, (rel, i))
    for name, by_kind in sorted(kinds.items()):
        if len(by_kind) > 1:
            places = ", ".join(
                f"{k} at {p}:{l}" for k, (p, l) in sorted(by_kind.items()))
            findings.append(Finding(
                "metric-name", *list(by_kind.values())[0],
                f'metric "{name}" is registered as more than one instrument '
                f"type ({places})"))
    return findings


def check_ownership(root):
    findings = []
    for rel in source_files(root, "src"):
        norm = rel.replace(os.sep, "/")
        if norm.startswith("src/core/"):
            continue  # core/ owns threads and primitive allocation
        lines = read_lines(root, rel)
        waivers = file_waivers(lines)
        for i, raw in enumerate(lines, start=1):
            line = strip_noise(raw)
            if RAW_THREAD_RE.search(line) and "std::this_thread" not in line:
                if not waived(waivers, "raw-thread", i):
                    findings.append(Finding(
                        "raw-thread", rel, i,
                        "std::thread outside src/core/ — run tasks on the "
                        "QueryScheduler, or waive with a reason"))
            if NAKED_NEW_RE.search(line) and not SMART_WRAP_RE.search(line):
                if not waived(waivers, "naked-new", i):
                    findings.append(Finding(
                        "naked-new", rel, i,
                        "unmanaged `new` outside src/core/ — wrap in a smart "
                        "pointer on the same line, or waive with a reason"))
    return findings


def check_fan_out(root):
    findings = []
    for rel in source_files(root, "src"):
        norm = rel.replace(os.sep, "/")
        if norm.startswith(SUBMIT_OWNERS):
            continue
        lines = read_lines(root, rel)
        waivers = file_waivers(lines)
        for i, raw in enumerate(lines, start=1):
            if SUBMIT_RE.search(strip_noise(raw)) and not waived(
                    waivers, "fan-out", i):
                findings.append(Finding(
                    "fan-out", rel, i,
                    "Submit( outside the task runners — fan out with "
                    "TaskRunner::ParallelFor, or waive with a reason"))
    return findings


def check_charge_scope(root):
    findings = []
    for rel in source_files(root, "src"):
        if rel.replace(os.sep, "/") in CHARGE_OWNERS:
            continue
        lines = read_lines(root, rel)
        waivers = file_waivers(lines)
        for i, raw in enumerate(lines, start=1):
            if CHARGE_RE.search(strip_noise(raw)) and not waived(
                    waivers, "charge-scope", i):
                findings.append(Finding(
                    "charge-scope", rel, i,
                    "Charge( outside src/core/resource_governor.* — hold "
                    "the charge in a ScopedCharge, or waive with a reason"))
    return findings


CHECKS = {
    "chaos-coverage": check_chaos_coverage,
    "charge-scope": check_charge_scope,
    "fan-out": check_fan_out,
    "cancel-poll": check_cancel_poll,
    "metric-name": check_metric_names,
    "ownership": check_ownership,  # raw-thread + naked-new
}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", default=None,
                        help="repo root (default: two levels above this "
                             "script)")
    parser.add_argument("--rule", action="append", choices=sorted(CHECKS),
                        help="run only this check (repeatable)")
    args = parser.parse_args(argv)

    root = args.root or os.path.normpath(
        os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", ".."))
    if not os.path.isdir(os.path.join(root, "src")):
        print(f"cre_lint: {root} does not look like the repo root",
              file=sys.stderr)
        return 2

    findings = []
    for name in (args.rule or sorted(CHECKS)):
        findings.extend(CHECKS[name](root))

    for f in findings:
        print(f)
    if findings:
        print(f"cre_lint: {len(findings)} finding(s)", file=sys.stderr)
        return 1
    print("cre_lint: clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())
