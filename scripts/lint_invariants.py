#!/usr/bin/env python3
"""Project invariant linter: repo-specific rules the compiler can't check.

Clang's -Werror=thread-safety proves lock DISCIPLINE (every GUARDED_BY
member accessed under its lock), but only for code that uses the annotated
primitives — and several of this repo's invariants are not lock invariants
at all. This linter enforces the rest, as a fast first CI gate and a ctest
entry (so `ctest` and `scripts/check.sh --lint` can't drift from CI):

  raw-sync-primitive    std::mutex / std::shared_mutex / std::lock_guard /
                        ... are banned in src/ outside util/mutex.h: raw
                        std primitives are invisible to the thread-safety
                        analysis, so locking through them silently turns
                        the compile-time proof off.
  manual-lock-call      .lock()/.unlock()/.lock_shared()/... calls are
                        banned outside util/mutex.h — RAII guards only.
                        A manual unlock on an early-return path is exactly
                        the leak the guards exist to prevent.
  locked-requires       Every function named *Locked must carry a
                        REQUIRES(...) / REQUIRES_SHARED(...) annotation on
                        its declaration — the naming convention IS the
                        contract, so an unannotated one is a hole in the
                        compile-time proof.
  unannotated-mutex     Every util::Mutex / util::SharedMutex member must
                        be referenced by at least one GUARDED_BY /
                        PT_GUARDED_BY / REQUIRES / ACQUIRE / EXCLUDES
                        annotation in the same file: a mutex protecting
                        nothing the analysis can see is either dead or —
                        worse — protecting members someone forgot to
                        annotate.
  fp-contract           src/linalg/ must not use std::fma / fmaf or
                        #pragma STDC FP_CONTRACT, and no build file may
                        enable -ffast-math / -funsafe-math-optimizations /
                        -ffp-contract=fast|on. The SIMD kernels are
                        BIT-IDENTICAL to the scalar test oracle by
                        contract; one fused multiply-add (one rounding
                        instead of two) breaks the parity tests on some
                        shapes only.
                        The root CMakeLists must keep -ffp-contract=off.
  rng-discipline        rand() / srand() / std::random_device are banned
                        outside util/rng.*: all randomness flows through
                        seeded util::Rng so every run reproduces from one
                        printed seed.
  check-macro-source    CHECK-style macros come from util/check.h only: no
                        local #define *CHECK* and no <cassert> assert()
                        in src/ (asserts vanish under NDEBUG; the solver
                        invariants must hold in release builds too).
  raw-file-io           fopen/freopen/fdopen/tmpfile, the std::fstream
                        family, and the POSIX open(2)/creat(2) calls are
                        banned in src/ outside util/file_io.{h,cc}: the
                        tiered region store's crash-safety claims
                        (append-only writes, recovery truncating torn
                        tails) are only auditable while ONE module can
                        touch a file descriptor. Tests/benches may use
                        fstream freely — the rule guards the library.
  concurrent-test-label Any test in tests/ that exercises concurrency
                        (threads, the pool, async/stream entry points,
                        atomics) must declare the marker comment
                        `OPENAPI_TEST_LABELS: concurrent`. CMake turns the
                        marker into a ctest LABEL, and the CI TSan job
                        runs `ctest -L concurrent` — so a new concurrent
                        test cannot be silently omitted from the
                        sanitizer matrix.
  fault-test-label      Any test in tests/ that stands up a
                        FaultInjectingApi must declare `fault` in its
                        `OPENAPI_TEST_LABELS` marker. The CI sanitizer
                        legs run `ctest -L 'concurrent|fault'`, so an
                        unlabeled fault-injection test would dodge the
                        ASan/TSan matrix exactly where injected failures
                        make races and lifetime bugs most likely.

Code rules are applied to comment- and string-stripped sources, so prose
may mention the banned constructs freely; the test-label rules read raw
text (the marker is a comment). The walk, the stripper and the per-file
views come from cpp_source.py, which analyze_semantics.py reads the tree
through too.

Usage:
  lint_invariants.py [--root DIR]     lint the whole tree (default: repo)
  lint_invariants.py FILE...          lint specific files (rule scoping
                                      still applies)
Exit status: 0 clean, 1 violations (one `file:line: [rule] message` per
finding), 2 usage error.
"""

from __future__ import annotations

import argparse
import re
import sys
from pathlib import Path

# strip_comments_and_strings is re-exported for the selftest.
from cpp_source import (  # noqa: F401
    SourceFile, Violation, line_of, strip_comments_and_strings, walk)


def grep(lines, pattern):
    """Yields (1-based line number, line) for every line matching pattern."""
    rx = re.compile(pattern)
    for i, line in enumerate(lines, 1):
        if rx.search(line):
            yield i, line


# --------------------------------------------------------------------------
# Rules. Each takes the full file list so cross-file rules (locked-requires)
# can see every declaration; single-file rules just iterate.
# --------------------------------------------------------------------------

MUTEX_WRAPPER = "src/util/mutex.h"

RAW_SYNC = (
    r"std::(recursive_|timed_|recursive_timed_)?mutex\b"
    r"|std::shared_(timed_)?mutex\b"
    r"|std::condition_variable(_any)?\b"
    r"|std::(lock_guard|unique_lock|shared_lock|scoped_lock)\b"
)


def rule_raw_sync_primitive(files):
    for f in files:
        if not f.rel.startswith("src/") or f.rel == MUTEX_WRAPPER:
            continue
        for line_no, _ in grep(f.code_lines, RAW_SYNC):
            yield Violation(
                f.rel, line_no, "raw-sync-primitive",
                "raw std synchronization primitive is invisible to the "
                "thread-safety analysis; use util::Mutex / "
                "util::SharedMutex / util::CondVar (util/mutex.h)")


MANUAL_LOCK = r"\.\s*(try_)?(un)?lock(_shared)?\s*\("


def rule_manual_lock_call(files):
    for f in files:
        if not f.rel.startswith("src/") or f.rel == MUTEX_WRAPPER:
            continue
        for line_no, _ in grep(f.code_lines, MANUAL_LOCK):
            yield Violation(
                f.rel, line_no, "manual-lock-call",
                "manual lock()/unlock() call; use the RAII guards "
                "(util::MutexLock / WriterMutexLock / ReaderMutexLock)")


LOCKED_NAME = re.compile(r"\b([A-Za-z_]\w*Locked)\s*\(")
REQUIRES_IN_STMT = re.compile(r"\bREQUIRES(_SHARED)?\s*\(")


def rule_locked_requires(files):
    """Every *Locked function must have >= 1 declaration annotated with
    REQUIRES somewhere in src/ headers. Occurrences are resolved at the
    statement level (match position to the next ';' or '{'), so call
    sites inside other functions don't need annotations themselves."""
    declared_ok: set = set()
    seen: dict = {}  # name -> (rel, line) of first sighting
    for f in files:
        if not f.rel.startswith("src/"):
            continue
        for m in LOCKED_NAME.finditer(f.code):
            name = m.group(1)
            line_no = line_of(f.code, m.start())
            seen.setdefault(name, (f.rel, line_no))
            # Statement window: from the match to the terminating ';' or
            # the body's '{'. An annotated declaration carries REQUIRES
            # inside that window.
            semi = f.code.find(";", m.end())
            brace = f.code.find("{", m.end())
            stops = [p for p in (semi, brace) if p != -1]
            window = f.code[m.end():min(stops)] if stops else ""
            if REQUIRES_IN_STMT.search(window):
                declared_ok.add(name)
    for name, (rel, line_no) in sorted(seen.items()):
        if name not in declared_ok:
            yield Violation(
                rel, line_no, "locked-requires",
                f"{name} has no declaration annotated with "
                "REQUIRES(...) / REQUIRES_SHARED(...); the *Locked naming "
                "convention must be backed by the compile-time contract")


MUTEX_MEMBER = re.compile(
    r"(?:^|[{;])\s*(?:mutable\s+)?(?:util::)?(?:Mutex|SharedMutex)\s+"
    r"(\w+)\s*;")


def rule_unannotated_mutex(files):
    for f in files:
        if not f.rel.startswith("src/") or f.rel == MUTEX_WRAPPER:
            continue
        members = [(i, m.group(1))
                   for i, line in enumerate(f.code_lines, 1)
                   for m in MUTEX_MEMBER.finditer(line)]
        for line_no, name in members:
            used = re.search(
                r"\b(PT_)?GUARDED_BY\s*\(\s*" + re.escape(name) +
                r"\s*\)|\b(REQUIRES|REQUIRES_SHARED|ACQUIRE|ACQUIRE_SHARED"
                r"|RELEASE|RELEASE_SHARED|EXCLUDES)\s*\([^)]*\b" +
                re.escape(name) + r"\b",
                f.code)
            if not used:
                yield Violation(
                    f.rel, line_no, "unannotated-mutex",
                    f"mutex member '{name}' is not referenced by any "
                    "GUARDED_BY / PT_GUARDED_BY / REQUIRES / EXCLUDES "
                    "annotation in this file — annotate what it protects")


FMA = r"std::fma\b|\bfmaf?\s*\(|FP_CONTRACT"
FAST_MATH = (r"-ffast-math|-funsafe-math-optimizations"
             r"|-ffp-contract=(fast|on)|/fp:fast")
BUILD_FILE = re.compile(r"(^|/)(CMakeLists\.txt|.*\.cmake)$")


def rule_fp_contract(files):
    root_cmake_seen = False
    root_cmake_has_off = False
    for f in files:
        if f.rel.startswith("src/linalg/"):
            for line_no, _ in grep(f.code_lines, FMA):
                yield Violation(
                    f.rel, line_no, "fp-contract",
                    "fused multiply-add in linalg/ rounds once where the "
                    "scalar oracle rounds twice, breaking the bit-parity "
                    "contract between the SIMD kernels and the oracle")
        if BUILD_FILE.search(f.rel) or f.rel.startswith("scripts/"):
            for line_no, _ in grep(f.raw_lines, FAST_MATH):
                yield Violation(
                    f.rel, line_no, "fp-contract",
                    "fast-math / value-changing FP flag would break the "
                    "kernel bit-parity contract")
        if f.rel == "CMakeLists.txt":
            root_cmake_seen = True
            root_cmake_has_off = "-ffp-contract=off" in f.raw
    if root_cmake_seen and not root_cmake_has_off:
        yield Violation(
            "CMakeLists.txt", 1, "fp-contract",
            "root CMakeLists must pin -ffp-contract=off (the kernel "
            "bit-parity contract depends on it)")


RAW_RNG = r"\b(s?rand)\s*\(|std::random_device"


def rule_rng_discipline(files):
    for f in files:
        if not f.rel.startswith("src/"):
            continue
        if f.rel in ("src/util/rng.h", "src/util/rng.cc"):
            continue
        for line_no, _ in grep(f.code_lines, RAW_RNG):
            yield Violation(
                f.rel, line_no, "rng-discipline",
                "unseeded/global randomness; all randomness flows through "
                "seeded util::Rng (util/rng.h) for reproducibility")


CHECK_DEFINE = r"#\s*define\s+\w*CHECK"
CASSERT = r"#\s*include\s*<(cassert|assert\.h)>|\bassert\s*\("


def rule_check_macro_source(files):
    for f in files:
        if not f.rel.startswith("src/") or f.rel == "src/util/check.h":
            continue
        for line_no, _ in grep(f.code_lines, CHECK_DEFINE):
            yield Violation(
                f.rel, line_no, "check-macro-source",
                "CHECK-style macros are defined in util/check.h only")
        for line_no, _ in grep(f.code_lines, CASSERT):
            yield Violation(
                f.rel, line_no, "check-macro-source",
                "<cassert> assert() vanishes under NDEBUG; use "
                "OPENAPI_CHECK / OPENAPI_DCHECK (util/check.h)")


FILE_IO_MODULE = ("src/util/file_io.h", "src/util/file_io.cc")

RAW_FILE_IO = (
    r"std::basic_[io]?fstream\b|std::[io]?fstream\b"
    r"|\b(std::)?(fopen|freopen|fdopen|tmpfile)\s*\("
    # POSIX open(2)/creat(2): free calls only — lookbehind keeps
    # `File::Open(`, `is_open(` and `log->Open(` out of scope.
    r"|(?<![\w.:])(open|creat)\s*\(|::(open|creat)\s*\("
)


def rule_raw_file_io(files):
    for f in files:
        if not f.rel.startswith("src/") or f.rel in FILE_IO_MODULE:
            continue
        for line_no, _ in grep(f.code_lines, RAW_FILE_IO):
            yield Violation(
                f.rel, line_no, "raw-file-io",
                "raw file I/O outside util/file_io.{h,cc}; route bytes "
                "through util::File / ReadFileToString so the store's "
                "crash-safety audit stays one module wide")


CONCURRENCY_USE = (
    r"std::thread\b|std::atomic\b|std::async\b|util::ThreadPool\b"
    r"|SharedThreadPool\s*\(|ParallelFor\s*\(|SubmitAsync\s*\("
    r"|InterpretStream\s*\(")
TEST_LABEL_MARKER = re.compile(r"OPENAPI_TEST_LABELS:\s*([\w,\s-]+)")


def rule_concurrent_test_label(files):
    for f in files:
        if not (f.rel.startswith("tests/") and f.rel.endswith(".cc")):
            continue
        uses = list(grep(f.code_lines, CONCURRENCY_USE))
        if not uses:
            continue
        marker = TEST_LABEL_MARKER.search(f.raw)
        labels = ([s.strip() for s in marker.group(1).split(",")]
                  if marker else [])
        if "concurrent" not in labels:
            line_no = uses[0][0]
            yield Violation(
                f.rel, line_no, "concurrent-test-label",
                "test exercises concurrency but lacks the "
                "'// OPENAPI_TEST_LABELS: concurrent' marker — without it "
                "the CI TSan job (ctest -L concurrent) silently skips it")


FAULT_USE = r"\bFaultInjectingApi\b"


def rule_fault_test_label(files):
    """Any test standing up FaultInjectingApi exercises the failure plane
    and must carry the `fault` ctest label: the CI sanitizer legs run
    `ctest -L 'concurrent|fault'`, so an unlabeled fault test would dodge
    the ASan/TSan matrix exactly where injected failures make races and
    lifetime bugs most likely."""
    for f in files:
        if not (f.rel.startswith("tests/") and f.rel.endswith(".cc")):
            continue
        uses = list(grep(f.code_lines, FAULT_USE))
        if not uses:
            continue
        marker = TEST_LABEL_MARKER.search(f.raw)
        labels = ([s.strip() for s in marker.group(1).split(",")]
                  if marker else [])
        if "fault" not in labels:
            line_no = uses[0][0]
            yield Violation(
                f.rel, line_no, "fault-test-label",
                "test uses FaultInjectingApi but lacks the "
                "'// OPENAPI_TEST_LABELS: fault' marker — without it the "
                "CI sanitizer legs (ctest -L 'concurrent|fault') silently "
                "skip it")


RULES = [
    ("raw-sync-primitive", rule_raw_sync_primitive),
    ("manual-lock-call", rule_manual_lock_call),
    ("locked-requires", rule_locked_requires),
    ("unannotated-mutex", rule_unannotated_mutex),
    ("fp-contract", rule_fp_contract),
    ("rng-discipline", rule_rng_discipline),
    ("check-macro-source", rule_check_macro_source),
    ("raw-file-io", rule_raw_file_io),
    ("concurrent-test-label", rule_concurrent_test_label),
    ("fault-test-label", rule_fault_test_label),
]

LINTED_SUFFIXES = (".h", ".cc", ".cmake", ".txt", ".sh")
LINTED_DIRS = ("src", "tests", "bench", "examples", "scripts")


def collect_files(root: Path):
    files = [SourceFile(path, path.relative_to(root).as_posix())
             for path in walk(root, LINTED_DIRS, LINTED_SUFFIXES)]
    top_cmake = root / "CMakeLists.txt"
    if top_cmake.is_file():
        files.append(SourceFile(top_cmake, "CMakeLists.txt"))
    return files


def lint(files):
    violations = []
    for _, rule in RULES:
        violations.extend(rule(files))
    violations.sort(key=lambda v: (v.rel, v.line, v.rule))
    return violations


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="OpenAPI-repro project invariant linter")
    parser.add_argument("--root", type=Path,
                        default=Path(__file__).resolve().parent.parent,
                        help="repository root (default: the repo this "
                        "script lives in)")
    parser.add_argument("--list-rules", action="store_true",
                        help="print rule ids and exit")
    parser.add_argument("files", nargs="*", type=Path,
                        help="lint only these files (paths inside --root)")
    args = parser.parse_args(argv)

    if args.list_rules:
        for rule_id, _ in RULES:
            print(rule_id)
        return 0

    root = args.root.resolve()
    if args.files:
        files = []
        for path in args.files:
            path = path.resolve()
            try:
                rel = path.relative_to(root).as_posix()
            except ValueError:
                print(f"error: {path} is outside --root {root}",
                      file=sys.stderr)
                return 2
            files.append(SourceFile(path, rel))
    else:
        files = collect_files(root)

    violations = lint(files)
    for v in violations:
        print(v)
    if violations:
        print(f"\n{len(violations)} invariant violation(s).",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
