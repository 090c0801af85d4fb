#!/usr/bin/env python3
"""Unit tests for cre_lint: one passing and one failing fixture per rule.

Each test builds a throwaway miniature repo tree (src/, tests/) in a temp
directory so the rules are exercised end to end through main(), exactly as
CI runs them.
"""

import os
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import cre_lint  # noqa: E402


CATALOGUE_CC = """
const std::vector<std::string>& FaultInjector::SiteCatalogue() {
  static const std::vector<std::string> kSites = {
      "persist.open",
      "load.read",
  };
  return kSites;
}
"""

CHAOS_ALL = 'TEST(Chaos, X) { Arm("persist.open"); Arm("load.read"); }'
CHAOS_MISSING = 'TEST(Chaos, X) { Arm("persist.open"); }'


class LintFixture(unittest.TestCase):
    def setUp(self):
        self._tmp = tempfile.TemporaryDirectory()
        self.root = self._tmp.name

    def tearDown(self):
        self._tmp.cleanup()

    def write(self, rel, content):
        path = os.path.join(self.root, rel)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as f:
            f.write(content)

    def run_lint(self, *rules):
        argv = ["--root", self.root]
        for rule in rules:
            argv += ["--rule", rule]
        return cre_lint.main(argv)

    def seed_minimal_repo(self):
        self.write("src/core/fault_injection.cc", CATALOGUE_CC)
        self.write("tests/chaos_test.cc", CHAOS_ALL)
        for rel in cre_lint.HOT_LOOP_MANIFEST:
            self.write(rel, "if (cancel != nullptr) { CheckStop(); }\n")


class ChaosCoverageTest(LintFixture):
    def test_all_sites_probed_passes(self):
        self.seed_minimal_repo()
        self.assertEqual(self.run_lint("chaos-coverage"), 0)

    def test_unprobed_site_fails(self):
        self.seed_minimal_repo()
        self.write("tests/chaos_test.cc", CHAOS_MISSING)
        self.assertEqual(self.run_lint("chaos-coverage"), 1)


class CancelPollTest(LintFixture):
    def test_polling_hot_loops_pass(self):
        self.seed_minimal_repo()
        self.assertEqual(self.run_lint("cancel-poll"), 0)

    def test_missing_poll_fails(self):
        self.seed_minimal_repo()
        self.write(cre_lint.HOT_LOOP_MANIFEST[0],
                   "for (;;) { /* tight loop, no poll */ }\n")
        self.assertEqual(self.run_lint("cancel-poll"), 1)

    def test_cancelled_poll_also_counts(self):
        self.seed_minimal_repo()
        self.write(cre_lint.HOT_LOOP_MANIFEST[0],
                   "if (cancel->cancelled()) return;\n")
        self.assertEqual(self.run_lint("cancel-poll"), 0)


class MetricNameTest(LintFixture):
    def test_conforming_names_pass(self):
        self.seed_minimal_repo()
        self.write("src/engine/engine.cc",
                   'reg.Counter("cre_index_builds_total", "d");\n'
                   'reg.Gauge("cre_index_resident_bytes", "d");\n'
                   # Same name, same kind, different labels: legal.
                   'reg.Counter("cre_index_builds_total", "d", labels);\n')
        self.assertEqual(self.run_lint("metric-name"), 0)

    def test_bad_name_fails(self):
        self.seed_minimal_repo()
        self.write("src/engine/engine.cc",
                   'reg.Counter("indexBuilds", "d");\n')
        self.assertEqual(self.run_lint("metric-name"), 1)

    def test_one_name_two_instrument_types_fails(self):
        self.seed_minimal_repo()
        self.write("src/engine/engine.cc",
                   'reg.Counter("cre_index_builds_total", "d");\n')
        self.write("src/obs/other.cc",
                   'reg.Gauge("cre_index_builds_total", "d");\n')
        self.assertEqual(self.run_lint("metric-name"), 1)


class OwnershipTest(LintFixture):
    def test_clean_files_pass(self):
        self.seed_minimal_repo()
        self.write("src/exec/clean.cc",
                   "auto p = std::make_unique<int>(1);\n"
                   "std::shared_ptr<Node> n(new Node());\n"
                   "unsigned hw = std::thread::hardware_concurrency();\n"
                   "std::this_thread::yield();\n")
        self.assertEqual(self.run_lint("ownership"), 0)

    def test_core_is_exempt(self):
        self.seed_minimal_repo()
        self.write("src/core/task_runner.cc",
                   "workers_.emplace_back(std::thread([] {}));\n"
                   "int* raw = new int[64];\n")
        self.assertEqual(self.run_lint("ownership"), 0)

    def test_raw_thread_outside_core_fails(self):
        self.seed_minimal_repo()
        self.write("src/exec/bad.cc", "std::thread t([] {});\n")
        self.assertEqual(self.run_lint("ownership"), 1)

    def test_naked_new_outside_core_fails(self):
        self.seed_minimal_repo()
        self.write("src/exec/bad.cc", "int* leak = new int[64];\n")
        self.assertEqual(self.run_lint("ownership"), 1)

    def test_waiver_with_reason_suppresses(self):
        self.seed_minimal_repo()
        self.write("src/exec/waived.cc",
                   "// cre-lint: allow(raw-thread): dedicated watcher by "
                   "design.\n"
                   "std::thread t([] {});\n")
        self.assertEqual(self.run_lint("ownership"), 0)

    def test_bare_waiver_without_reason_does_not_parse(self):
        self.seed_minimal_repo()
        self.write("src/exec/waived.cc",
                   "// cre-lint: allow(raw-thread):\n"
                   "std::thread t([] {});\n")
        self.assertEqual(self.run_lint("ownership"), 1)

    def test_waiver_window_is_bounded(self):
        self.seed_minimal_repo()
        self.write("src/exec/waived.cc",
                   "// cre-lint: allow(naked-new): too far away.\n"
                   + "\n" * (cre_lint.WAIVER_WINDOW + 1)
                   + "int* leak = new int[64];\n")
        self.assertEqual(self.run_lint("ownership"), 1)

    def test_mentions_in_comments_and_strings_ignored(self):
        self.seed_minimal_repo()
        self.write("src/exec/prose.cc",
                   "// a new approach with std::thread semantics\n"
                   'Log("spawning new worker on std::thread");\n')
        self.assertEqual(self.run_lint("ownership"), 0)


class FanOutTest(LintFixture):
    def test_parallel_for_and_runner_files_pass(self):
        self.seed_minimal_repo()
        self.write("src/exec/clean.cc",
                   "pool->ParallelFor(n, fn, /*grain=*/1);\n"
                   "// Submit(task) in prose is fine\n")
        self.write("src/core/task_runner.cc", "Submit(drain);\n")
        self.write("src/engine/scheduler.cc",
                   "void QueryScheduler::Group::Submit(Task task) {}\n")
        self.write("src/index/index_manager.cc",
                   "background_runner_->Submit(job);\n")
        self.assertEqual(self.run_lint("fan-out"), 0)

    def test_submit_loop_outside_runners_fails(self):
        self.seed_minimal_repo()
        self.write("src/vision/bad.cc",
                   "for (auto& s : shards) pool_->Submit(s);\n"
                   "pool_->Wait();\n")
        self.assertEqual(self.run_lint("fan-out"), 1)


class ChargeScopeTest(LintFixture):
    def test_scoped_charge_and_governor_files_pass(self):
        self.seed_minimal_repo()
        self.write("src/exec/clean.cc",
                   "ScopedCharge charge;\n"
                   "CRE_RETURN_NOT_OK(charge.Acquire(budget, bytes, \"x\"));\n"
                   "// budget->Charge(bytes) in prose is fine\n")
        self.write("src/core/resource_governor.h",
                   "Status Charge(std::size_t bytes, const char* what);\n")
        self.write("src/core/resource_governor.cc",
                   "CRE_RETURN_NOT_OK(budget->Charge(bytes, what));\n")
        self.assertEqual(self.run_lint("charge-scope"), 0)

    def test_bare_charge_outside_governor_fails(self):
        self.seed_minimal_repo()
        self.write("src/engine/bad.cc",
                   "CRE_RETURN_NOT_OK(ctx->budget()->Charge(n, \"m\"));\n")
        self.assertEqual(self.run_lint("charge-scope"), 1)

    def test_waiver_with_reason_suppresses(self):
        self.seed_minimal_repo()
        self.write("src/engine/waived.cc",
                   "// cre-lint: allow(charge-scope): released by the query "
                   "budget.\n"
                   "CRE_RETURN_NOT_OK(budget->Charge(n, \"m\"));\n")
        self.assertEqual(self.run_lint("charge-scope"), 0)


class RealRepoTest(unittest.TestCase):
    """The linter must be clean on the repo it ships in."""

    def test_repo_is_clean(self):
        root = os.path.normpath(os.path.join(
            os.path.dirname(os.path.abspath(__file__)), "..", ".."))
        self.assertEqual(cre_lint.main(["--root", root]), 0)


if __name__ == "__main__":
    unittest.main()
