#!/usr/bin/env python3
"""Self-test suite for analyze_semantics.py.

Each fixture under scripts/analyze_fixtures/ is a miniature repository
root seeding exactly one rule's violation (plus clean/, the negative
control). A fixture run overlays common/ (the util-layer stand-ins) and
the fixture tree into a temporary directory and drives the analyzer
through the same build_program()/analyze() path CI uses — so the suite
exercises the TU walk, the include closure, the waiver parser, and every
rule end to end, not just the rule functions in isolation.

The central assertion style is exclusivity: the cycle fixture must
produce lock-order violations and NOTHING else, and so on. A rule that
starts firing into another fixture's territory fails the suite even
though "a violation" was still reported.
"""

import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent
sys.path.insert(0, str(SCRIPTS))

import analyze_semantics as az  # noqa: E402

FIXTURES = SCRIPTS / "analyze_fixtures"


def materialize(name: str, tmp: str) -> Path:
    """common/ + fixture overlaid into a fresh root. No build directory:
    the analyzer finds the TUs by walking the tree."""
    root = Path(tmp) / name
    shutil.copytree(FIXTURES / "common", root)
    shutil.copytree(FIXTURES / name, root, dirs_exist_ok=True)
    return root


def run_fixture(name: str, dot: bool = False):
    with tempfile.TemporaryDirectory() as tmp:
        root = materialize(name, tmp)
        program = az.build_program(root)
        dot_path = (root / "lock_order.dot") if dot else None
        violations = az.analyze(program, dot_path=dot_path)
        dot_text = dot_path.read_text() if dot else ""
        return violations, program, dot_text


def rules_of(violations):
    return {v.rule for v in violations}


class CycleFixture(unittest.TestCase):
    def test_detected_by_lock_order_only(self):
        violations, _, _ = run_fixture("cycle")
        self.assertEqual(rules_of(violations), {"lock-order"})
        messages = "\n".join(str(v) for v in violations)
        self.assertIn("cycle", messages)
        self.assertIn("head_mutex_", messages)
        self.assertIn("tail_mutex_", messages)

    def test_dot_artifact_marks_the_cycle(self):
        _, _, dot = run_fixture("cycle", dot=True)
        self.assertIn("digraph", dot)
        self.assertIn('"Pipeline::head_mutex_" -> "Pipeline::tail_mutex_"',
                      dot)
        self.assertIn('"Pipeline::tail_mutex_" -> "Pipeline::head_mutex_"',
                      dot)
        self.assertIn("red", dot)  # cycle edges are highlighted

    def test_observed_edges_exist_in_both_directions(self):
        _, program, _ = run_fixture("cycle")
        observed = az.compute_lock_edges(program)
        self.assertIn(("Pipeline::head_mutex_", "Pipeline::tail_mutex_"),
                      observed)
        self.assertIn(("Pipeline::tail_mutex_", "Pipeline::head_mutex_"),
                      observed)


class UnguardedFixture(unittest.TestCase):
    def test_detected_by_guarded_by_only(self):
        violations, _, _ = run_fixture("unguarded")
        self.assertEqual(rules_of(violations), {"guarded-by"})
        messages = "\n".join(str(v) for v in violations)
        self.assertIn("hits_", messages)          # unannotated member
        self.assertIn("misses_", messages)        # empty-reason waiver
        self.assertIn("no reason", messages)
        # The annotated, const, and atomic members are clean.
        self.assertNotIn("table_", messages)
        self.assertNotIn("capacity_", messages)
        self.assertNotIn("epoch_", messages)
        self.assertEqual(len(violations), 2)


class DiscardFixture(unittest.TestCase):
    def test_detected_by_must_use_only(self):
        violations, _, _ = run_fixture("discard")
        self.assertEqual(rules_of(violations), {"must-use"})
        names = [v.message.split("(")[0] for v in violations]
        joined = "\n".join(str(v) for v in violations)
        self.assertIn("Append", joined)             # bare Status drop
        self.assertIn("Flush", joined)              # bare Result drop
        self.assertIn("RemoveJournalFile", joined)  # comma-operator drop
        self.assertGreaterEqual(len(names), 3)
        # (void)Append(3) and the assigned call are sanctioned.
        flagged_lines = {v.line for v in violations}
        raw = (FIXTURES / "discard" / "src" / "store"
               / "journal.cc").read_text()
        for i, text in enumerate(raw.splitlines(), 1):
            if "(void)Append" in text or "kept = Append" in text:
                self.assertNotIn(i, flagged_lines)


class ProbeFixture(unittest.TestCase):
    def test_detected_by_probe_confinement_only(self):
        violations, _, _ = run_fixture("probe")
        self.assertEqual(rules_of(violations), {"probe-confinement"})
        joined = "\n".join(str(v) for v in violations)
        self.assertIn("Predict()", joined)
        self.assertIn("TryPredictBatch()", joined)
        # The waived PredictBatch call is clean.
        self.assertNotIn("PredictionApi::PredictBatch()", joined)
        self.assertEqual(len(violations), 2)

    def test_waiver_is_registered_with_its_reason(self):
        _, program, _ = run_fixture("probe")
        kinds = [(kind, reason)
                 for (kind, reason) in program.waivers.values()]
        self.assertTrue(any(kind == "direct-probe" and "baseline" in reason
                            for kind, reason in kinds))


class CleanFixture(unittest.TestCase):
    def test_zero_violations(self):
        violations, program, dot = run_fixture("clean", dot=True)
        self.assertEqual([str(v) for v in violations], [])
        # The nested acquisition is both observed and declared.
        observed = az.compute_lock_edges(program)
        declared = az.declared_edges(program)
        edge = ("Ordered::outer_mutex_", "Ordered::inner_mutex_")
        self.assertIn(edge, observed)
        self.assertIn(edge, declared)
        self.assertIn('"Ordered::outer_mutex_" -> "Ordered::inner_mutex_"',
                      dot)


class CliContract(unittest.TestCase):
    """The exit-code contract CI depends on: 0 clean, 1 violations,
    2 infrastructure failure (no translation units, unwritable output)."""

    def _run_cli(self, root: Path, *extra):
        return subprocess.run(
            [sys.executable, str(SCRIPTS / "analyze_semantics.py"),
             "--root", str(root), *extra],
            capture_output=True, text=True)

    def test_clean_exits_zero(self):
        with tempfile.TemporaryDirectory() as tmp:
            root = materialize("clean", tmp)
            proc = self._run_cli(root)
            self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)

    def test_violations_exit_one(self):
        with tempfile.TemporaryDirectory() as tmp:
            root = materialize("cycle", tmp)
            proc = self._run_cli(root)
            self.assertEqual(proc.returncode, 1, proc.stdout + proc.stderr)
            self.assertIn("lock-order", proc.stdout)

    def test_tree_without_build_dir_reports_new_tu(self):
        # A TU nothing has configured yet is still analyzed: the input is
        # the tree itself, so no stale TU list can hide a violation.
        with tempfile.TemporaryDirectory() as tmp:
            root = materialize("unguarded", tmp)
            self.assertFalse((root / "build").exists())
            proc = self._run_cli(root)
            self.assertEqual(proc.returncode, 1, proc.stdout + proc.stderr)
            self.assertIn("[guarded-by]", proc.stdout)
            self.assertIn("hits_", proc.stdout)

    def test_no_translation_units_exits_two(self):
        with tempfile.TemporaryDirectory() as tmp:
            root = Path(tmp)
            (root / "src").mkdir()
            (root / "src" / "only.h").write_text("struct S {};\n")
            proc = self._run_cli(root)
            self.assertEqual(proc.returncode, 2)
            self.assertIn("no translation units", proc.stderr)

    def test_dot_into_missing_directory_exits_zero(self):
        with tempfile.TemporaryDirectory() as tmp:
            root = materialize("clean", tmp)
            dot = root / "out" / "nested" / "lock_order.dot"
            proc = self._run_cli(root, "--dot", str(dot))
            self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)
            self.assertIn("digraph lock_order", dot.read_text())

    def test_unwritable_dot_exits_two(self):
        with tempfile.TemporaryDirectory() as tmp:
            root = materialize("clean", tmp)
            blocker = root / "not-a-dir"
            blocker.write_text("")
            proc = self._run_cli(root, "--dot", str(blocker / "x.dot"))
            self.assertEqual(proc.returncode, 2, proc.stdout + proc.stderr)
            self.assertIn("cannot write", proc.stderr)

    def test_list_rules_names_all_four(self):
        proc = subprocess.run(
            [sys.executable, str(SCRIPTS / "analyze_semantics.py"),
             "--list-rules"], capture_output=True, text=True)
        self.assertEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout.split(),
                         ["lock-order", "guarded-by", "must-use",
                          "probe-confinement"])


if __name__ == "__main__":
    unittest.main()
