#!/usr/bin/env python3
"""Whole-program semantic static analysis over the source tree: the four
global rules the invariant linter (regex-level) and Clang's
-Werror=thread-safety (function-local) cannot express.

  lock-order         Deadlock-freedom proof. Every nested lock acquisition
                     (a MutexLock / WriterMutexLock / ReaderMutexLock
                     constructed while another lock is held in the
                     enclosing scope, a guard constructed inside a function
                     annotated REQUIRES, or a call — transitively — into a
                     function that acquires) contributes a directed edge to
                     the global lock-order graph. The rule fails on any
                     cycle, and on any OBSERVED edge that is not DECLARED
                     with ACQUIRED_AFTER / ACQUIRED_BEFORE on the mutex
                     members (so the ordering lives in code, not tribal
                     knowledge). --dot emits the graph as Graphviz for the
                     CI artifact. An edge-free observed graph — this
                     repo's steady state, by design: the cache lock is
                     released before the store or pool is touched — is the
                     strongest possible proof: locks that never nest
                     cannot deadlock.

  guarded-by         Coverage audit. In any class owning a util::Mutex /
                     util::SharedMutex, EVERY mutable data member must be
                     either annotated (GUARDED_BY / PT_GUARDED_BY),
                     const, a synchronization primitive itself, an atomic
                     (or a struct composed solely of atomics — a lock-free
                     counter block), or carry an explicit waiver comment:
                         // analyze: unguarded(<reason>)
                     Clang only checks members someone REMEMBERED to
                     annotate; this rule makes forgetting impossible.

  must-use           A call to a function returning util::Status or
                     Result<T> whose value is discarded — a bare
                     expression statement, or a value dropped on the left
                     of a comma operator — is an error. [[nodiscard]] on
                     the types gives the compiler the same opinion; the
                     analyzer closes the gaps (comma operator, GCC's
                     laxness in dependent contexts) and keeps the rule in
                     the fast lint gate where no compiler runs. An
                     explicit `(void)` cast is the sanctioned suppression.

  probe-confinement  Query-issuance confinement. Direct calls to the
                     PredictionApi probe surface (Predict, PredictBatch,
                     PredictBatchReserved, TryPredictBatch,
                     TryPredictBatchReserved) are only legal inside
                     src/api/ (the boundary's own plumbing: decorators,
                     replica sets) and src/interpret/probe_dispatch.{h,cc}
                     (the chunked, retry-aware, exactly-accounted
                     dispatcher). Library code anywhere else must route
                     probes through DispatchProbes, so no future code path
                     can issue queries that dodge chunking, retries, or
                     exact accounting. The paper's own baselines (naive /
                     ZOO / LIME probe loops) predate the dispatcher and
                     are intentionally direct — each carries a waiver:
                         // analyze: direct-probe(<reason>)
                     Tests, benches and examples drive endpoints directly
                     by design and are out of scope (the rule guards the
                     library, like raw-file-io).

Waivers MUST carry a non-empty reason: an empty waiver is itself a
violation of the rule it tries to waive ("zero undocumented waivers").

## Input

The analyzer walks every *.cc under src/, tests/, bench/ and examples/
(the translation units the build compiles), follows each TU's quoted
includes into project headers, and parses them with a dependency-free
lexer and structural parser: raw strings, comments, brace scopes,
class/member/function extraction. No configure, compiler or Python
package is needed, so it runs the same way on every checkout, and a TU
added since the last configure cannot be missed. Files are read through
cpp_source.py, the same walk, stripper and source model
lint_invariants.py uses. The fixture suite (scripts/analyze_fixtures/,
run by analyze_semantics_test.py) drives the same path.

Usage:
  analyze_semantics.py [--root DIR] [--dot FILE]
                       [--list-rules] [--list-waivers]
Exit status: 0 clean, 1 violations, 2 usage/infrastructure error (no
translation units under --root, an unwritable --dot).
"""

from __future__ import annotations

import argparse
import re
import sys
from dataclasses import dataclass, field
from pathlib import Path

from cpp_source import SourceFile, Violation, line_of, walk

# --------------------------------------------------------------------------
# Program model: what the frontend produces and the rules consume.
# --------------------------------------------------------------------------

MUTEX_TYPES = ("Mutex", "SharedMutex")
CONDVAR_TYPES = ("CondVar", "condition_variable")
GUARD_TYPES = {
    "MutexLock": "exclusive",
    "WriterMutexLock": "exclusive",
    "ReaderMutexLock": "shared",
}
PROBE_METHODS = {
    "Predict", "PredictBatch", "PredictBatchReserved",
    "TryPredictBatch", "TryPredictBatchReserved",
}
# TryPredict* exists only on the PredictionApi family, so an unresolved
# receiver is still conclusive; Predict/PredictBatch also exist on the
# models (Plm, Lmt, surrogates), so those need a resolved API receiver.
PROBE_METHODS_UNAMBIGUOUS = {"TryPredictBatch", "TryPredictBatchReserved"}
API_TYPE_MARKERS = ("PredictionApi", "ApiReplicaSet", "FaultInjectingApi")

WAIVER_OPEN_RX = re.compile(
    r"//\s*analyze:\s*(unguarded|direct-probe)\s*\(")


def collect_waivers(rel: str, raw: str) -> dict:
    """(file, line) -> (kind, reason) for `// analyze: <kind>(<reason>)`
    comments. The reason may continue across consecutive `//` lines; the
    waiver anchors at its LAST line (so it covers the line that follows
    the comment block, or its own line for a trailing comment)."""
    out = {}
    lines = raw.splitlines()
    i = 0
    while i < len(lines):
        m = WAIVER_OPEN_RX.search(lines[i])
        if not m:
            i += 1
            continue
        kind = m.group(1)
        text = lines[i][m.end():]
        last = i
        while ")" not in text and last + 1 < len(lines):
            nxt = lines[last + 1].strip()
            if not nxt.startswith("//"):
                break
            text += " " + nxt.lstrip("/ ")
            last += 1
        reason = text.split(")", 1)[0].strip()
        out[(rel, last + 1)] = (kind, reason)
        i = last + 1
    return out


@dataclass
class Field_:
    name: str
    type_text: str
    line: int
    guards: list = field(default_factory=list)  # GUARDED_BY/PT_GUARDED_BY
    acquired_after: list = field(default_factory=list)
    acquired_before: list = field(default_factory=list)
    is_const: bool = False
    is_static: bool = False
    is_reference: bool = False


@dataclass
class ClassInfo:
    qname: str       # e.g. "EndpointSession" or "SessionStream::Shared"
    file: str        # repo-relative path of the declaring file
    line: int
    fields: list = field(default_factory=list)

    def mutex_fields(self):
        return [f for f in self.fields
                if type_is_mutex(f.type_text) and not f.is_reference]


@dataclass
class Acquisition:
    lock: str        # canonical node, e.g. "EndpointSession::cache_mutex_"
    line: int
    start: int       # char offset of the guard construction
    scope_end: int   # char offset where the guard's scope closes


@dataclass
class CallSite:
    name: str              # unqualified callee name
    receiver_type: str     # best-effort type text of the receiver, or ""
    line: int
    offset: int
    discarded: bool = False  # full result value dropped at statement level

    def receiver_class(self) -> str:
        """The class the receiver most plausibly is: the last meaningful
        type name, looking through pointers, references, smart pointers
        and cv-qualifiers. Empty when the receiver could not be typed."""
        names = re.findall(r"\w+", self.receiver_type)
        skip = {"const", "mutable", "volatile", "struct", "class", "std",
                "util", "openapi", "api", "interpret", "store", "nn",
                "lmt", "data", "eval", "extract", "shared_ptr",
                "unique_ptr", "weak_ptr", "optional", "reference_wrapper"}
        names = [n for n in names if n not in skip]
        if names and names[-1] == "auto":
            return ""
        return names[-1] if names else ""


@dataclass
class FunctionInfo:
    qname: str             # "Class::Name" or "Name"
    class_name: str        # declaring class ("" for free functions)
    file: str
    line: int
    requires: list = field(default_factory=list)   # canonical lock nodes
    acquisitions: list = field(default_factory=list)
    calls: list = field(default_factory=list)


@dataclass
class Program:
    root: Path
    classes: dict = field(default_factory=dict)     # qname -> ClassInfo
    functions: list = field(default_factory=list)   # FunctionInfo
    # (file, line) -> (kind, reason) for `// analyze: <kind>(<reason>)`
    waivers: dict = field(default_factory=dict)
    # name -> set of declaring classes ("" for free functions) for
    # functions declared to return Status / Result<T>
    must_use_functions: dict = field(default_factory=dict)
    files: list = field(default_factory=list)       # analyzed rel paths

    def waiver_for(self, file: str, line: int, kind: str):
        """A waiver applies on its own line or the line directly above."""
        for probe in (line, line - 1):
            w = self.waivers.get((file, probe))
            if w and w[0] == kind:
                return w
        return None


def type_is_mutex(type_text: str) -> bool:
    toks = re.findall(r"\w+", type_text)
    return any(t in MUTEX_TYPES for t in toks)


def type_is_condvar(type_text: str) -> bool:
    toks = re.findall(r"\w+", type_text)
    return any(t in CONDVAR_TYPES for t in toks)


def type_is_atomic(type_text: str) -> bool:
    return re.search(r"\batomic\b", type_text) is not None


# --------------------------------------------------------------------------
# Input: the translation units and their project-header closures.
# --------------------------------------------------------------------------

# Where the build's translation units live (CMakeLists.txt globs the
# same directories).
TU_DIRS = ("src", "tests", "bench", "examples")


def include_closure(root: Path, tu: Path) -> list:
    """The TU plus every project header reachable through quoted
    includes, resolved against the repo's src/ include root and the
    including file's directory."""
    inc_rx = re.compile(r'^\s*#\s*include\s+"([^"]+)"', re.M)
    seen, order, stack = set(), [], [tu]
    while stack:
        f = stack.pop()
        if f in seen or not f.is_file():
            continue
        seen.add(f)
        order.append(f)
        text = f.read_text(encoding="utf-8", errors="replace")
        for m in inc_rx.finditer(text):
            for base in (root / "src", f.parent, root):
                cand = (base / m.group(1)).resolve()
                if cand.is_file():
                    stack.append(cand)
                    break
    return order


# --------------------------------------------------------------------------
# Frontend: lexer + structural parser.
# --------------------------------------------------------------------------

ANNOTATION_MACROS = (
    "GUARDED_BY", "PT_GUARDED_BY", "REQUIRES", "REQUIRES_SHARED",
    "ACQUIRE", "ACQUIRE_SHARED", "RELEASE", "RELEASE_SHARED",
    "RELEASE_GENERIC", "TRY_ACQUIRE", "TRY_ACQUIRE_SHARED", "EXCLUDES",
    "ACQUIRED_AFTER", "ACQUIRED_BEFORE", "ASSERT_CAPABILITY",
    "ASSERT_SHARED_CAPABILITY", "RETURN_CAPABILITY", "CAPABILITY",
    "SCOPED_CAPABILITY", "NO_THREAD_SAFETY_ANALYSIS",
)

CLASS_DECL_RX = re.compile(
    r"\b(class|struct)\s+(?:OPENAPI_\w+\s+|CAPABILITY\s*\([^)]*\)\s*|"
    r"SCOPED_CAPABILITY\s+|\[\[\w+\]\]\s*)*"
    r"([A-Za-z_]\w*)\s*(?:final\s*)?(?::[^;{]*)?\{")

FUNC_HEADER_RX = re.compile(
    r"([A-Za-z_~][\w:~]*)\s*\([^()]*(?:\([^()]*\)[^()]*)*\)\s*"
    r"(?:const\s*)?(?:noexcept\s*)?(?:->\s*[\w:<>&*\s]+)?"
    r"(?:(?:" + "|".join(ANNOTATION_MACROS) + r")\s*(?:\([^)]*\)\s*)?)*"
    r"(?::\s*[^{;]*)?$")

MEMBER_RX = re.compile(
    r"^(?P<prefix>(?:(?:mutable|static|constexpr|inline|const|volatile)\s+)*)"
    r"(?P<type>[\w:]+(?:\s*<.*>)?(?:\s*(?:const|\*|&))*)\s+"
    r"(?P<name>[A-Za-z_]\w*)\s*(?:=[^;]*|\{[^;]*\})?$", re.S)


def balanced_span(text: str, open_pos: int, open_ch="{", close_ch="}"):
    """Returns the offset just past the brace matching text[open_pos]."""
    depth = 0
    for i in range(open_pos, len(text)):
        if text[i] == open_ch:
            depth += 1
        elif text[i] == close_ch:
            depth -= 1
            if depth == 0:
                return i + 1
    return len(text)


def extract_annotation_args(text: str, macro: str) -> list:
    """Every argument list of `macro(...)` occurrences in `text`, split on
    top-level commas."""
    out = []
    for m in re.finditer(r"\b" + macro + r"\s*\(", text):
        end = balanced_span(text, m.end() - 1, "(", ")")
        inner = text[m.end():end - 1]
        args, depth, cur = [], 0, []
        for ch in inner:
            if ch in "(<[":
                depth += 1
            elif ch in ")>]":
                depth -= 1
            if ch == "," and depth == 0:
                args.append("".join(cur).strip())
                cur = []
            else:
                cur.append(ch)
        if cur:
            args.append("".join(cur).strip())
        out.append([a for a in args if a])
    return out


def blank_angle_regions(s: str) -> str:
    """Blanks <...> template-argument regions (heuristic: no stray < in
    declarations once strings are stripped)."""
    out, depth = [], 0
    for ch in s:
        if ch == "<":
            depth += 1
            out.append(" ")
        elif ch == ">" and depth > 0:
            depth -= 1
            out.append(" ")
        else:
            out.append(" " if depth > 0 else ch)
    return "".join(out)


class Frontend:
    """Structural analysis of a TU list without a compiler."""

    def __init__(self, root: Path, tus: list):
        self.root = root
        self.tus = tus

    def build(self) -> Program:
        program = Program(root=self.root)
        files = {}
        tu_closures = {}
        for tu in self.tus:
            closure = include_closure(self.root, tu)
            tu_closures[tu] = closure
            for f in closure:
                rel = f.relative_to(self.root).as_posix()
                if rel not in files:
                    files[rel] = SourceFile(f, rel)
        program.files = sorted(files)

        for pf in files.values():
            self._collect_waivers(pf, program)
        for pf in files.values():
            self._collect_classes(pf, program)
        for pf in files.values():
            self._collect_must_use_decls(pf, program)

        # Per-TU: member-name -> candidate classes visible in that TU,
        # used to canonicalize lock expressions.
        class_by_file = {}
        functions_done = set()
        for info in program.classes.values():
            class_by_file.setdefault(info.file, []).append(info)
        for tu, closure in tu_closures.items():
            visible = []
            for f in closure:
                rel = f.relative_to(self.root).as_posix()
                visible.extend(class_by_file.get(rel, []))
            tu_rel = tu.relative_to(self.root).as_posix()
            pf = files[tu_rel]
            self._collect_functions(pf, visible, program)
            # Headers with inline function bodies (mutex guards, probe
            # calls in templates) are analyzed once, in the first TU that
            # sees them.
            for f in closure[1:]:
                rel = f.relative_to(self.root).as_posix()
                pf = files.get(rel)
                if pf is not None and rel not in functions_done:
                    self._collect_functions(pf, visible, program)
                    functions_done.add(rel)
        return program

    # -- waivers ----------------------------------------------------------

    def _collect_waivers(self, pf: SourceFile, program: Program):
        program.waivers.update(collect_waivers(pf.rel, pf.raw))

    # -- classes and members ----------------------------------------------

    def _collect_classes(self, pf: SourceFile, program: Program):
        code = pf.code
        for m in CLASS_DECL_RX.finditer(code):
            name = m.group(2)
            body_open = m.end() - 1
            body_close = balanced_span(code, body_open)
            qname = self._qualify(code, m.start(), name)
            info = ClassInfo(qname=qname, file=pf.rel,
                             line=line_of(code, m.start()))
            self._collect_members(code, body_open + 1, body_close - 1, info)
            # Keep the definition with fields if a forward decl was seen.
            prev = program.classes.get(qname)
            if prev is None or (not prev.fields and info.fields):
                program.classes[qname] = info

    def _qualify(self, code: str, pos: int, name: str) -> str:
        """Nested-class qualification: prefix with every enclosing class
        name (namespaces are dropped — rule output reads better short and
        the repo has no duplicate class names across namespaces)."""
        stack = []
        depth = 0
        i = 0
        opens = []  # (offset, classname or None)
        for m in re.finditer(r"[{}]", code[:pos]):
            if m.group(0) == "{":
                header = code[max(0, m.start() - 400):m.start()]
                cm = None
                for c in CLASS_DECL_RX.finditer(code[:m.start() + 1]):
                    if c.end() - 1 == m.start():
                        cm = c.group(2)
                        break
                opens.append(cm)
            else:
                if opens:
                    opens.pop()
        stack = [c for c in opens if c]
        return "::".join(stack + [name])

    def _collect_members(self, code: str, start: int, end: int,
                         info: ClassInfo):
        """Member declarations at class-body depth. Nested brace blocks
        (inline method bodies, nested classes, initializers) are replaced
        by `;` so they terminate their declaration like a body does."""
        body = code[start:end]
        flat, i, depth = [], 0, 0
        while i < len(body):
            ch = body[i]
            if ch == "{":
                close = balanced_span(body, i)
                flat.append(";")
                flat.append("\n" * body.count("\n", i, close))
                i = close
            else:
                flat.append(ch)
                i += 1
        flat = "".join(flat)

        offset = 0
        for stmt in flat.split(";"):
            stmt_off = offset
            offset += len(stmt) + 1
            # Offsets in `flat` differ from `code` (brace blocks shrank to
            # one `;`), but newline counts line up by construction.
            lead = len(stmt) - len(stmt.lstrip())
            line = line_of(code, start) + flat.count("\n", 0,
                                                     stmt_off + lead)
            text = stmt.strip()
            if not text or text.startswith("#"):
                continue
            # Access specifiers glue to the next declaration.
            text = re.sub(r"^(public|private|protected)\s*:\s*", "", text)
            text = re.sub(r"^(friend|using|typedef|template)\b.*", "", text,
                          flags=re.S)
            if not text:
                continue
            # Nested class/struct/enum declarations are not data members.
            if re.match(r"(?:class|struct|enum|union)\b", text):
                continue
            guards = (extract_annotation_args(text, "GUARDED_BY") +
                      extract_annotation_args(text, "PT_GUARDED_BY"))
            after = extract_annotation_args(text, "ACQUIRED_AFTER")
            before = extract_annotation_args(text, "ACQUIRED_BEFORE")
            for macro in ANNOTATION_MACROS:
                text = re.sub(r"\b" + macro + r"\s*\([^()]*(?:\([^()]*\)"
                              r"[^()]*)*\)", " ", text)
                text = re.sub(r"\b" + macro + r"\b", " ", text)
            text = " ".join(text.split())
            if not text:
                continue
            # Truncate at a top-level initializer: parens after `=` belong
            # to the initializer, not a function declarator.
            eq = self._top_level_eq(text)
            decl = text[:eq] if eq != -1 else text
            probe = blank_angle_regions(decl)
            if "(" in probe or ")" in probe:
                continue  # function declaration / ctor / operator
            m = MEMBER_RX.match(decl.strip())
            if not m or m.group("name") == "operator":
                continue
            prefix = m.group("prefix") or ""
            type_text = (prefix + " " + m.group("type")).strip()
            toks = re.findall(r"\w+", type_text)
            if toks and toks[-1] in ("return", "delete", "default",
                                     "override", "new"):
                continue
            is_const = bool(re.match(r"(const\b(?!.*[*]))", type_text)) or \
                bool(re.search(r"[*&]\s*const\s*$", type_text)) or \
                "constexpr" in prefix or \
                (type_text.startswith("const ") and
                 "*" not in blank_angle_regions(type_text))
            info.fields.append(Field_(
                name=m.group("name"),
                type_text=type_text,
                line=line,
                guards=[a[0] for a in guards if a],
                acquired_after=[x for a in after for x in a],
                acquired_before=[x for a in before for x in a],
                is_const=is_const,
                is_static="static" in prefix,
                is_reference="&" in blank_angle_regions(m.group("type")),
            ))

    def _top_level_eq(self, s: str) -> int:
        depth = 0
        for i, ch in enumerate(s):
            if ch in "(<[{":
                depth += 1
            elif ch in ")>]}":
                depth -= 1
            elif ch == "=" and depth == 0:
                if i + 1 < len(s) and s[i + 1] == "=":
                    return -1
                if i > 0 and s[i - 1] in "!<>=+-*/":
                    continue
                return i
        return -1

    # -- must-use registry ------------------------------------------------

    MUST_USE_DECL_RX = re.compile(
        r"(?:^|[;{}]|\bstatic\s|\bvirtual\s|\bexplicit\s)\s*"
        r"(?:static\s+|virtual\s+|inline\s+)*"
        r"(?:\[\[nodiscard\]\]\s*)?"
        r"(?:static\s+|virtual\s+|inline\s+)*"
        r"(?:openapi::|util::)?(?:Status|Result\s*<)")

    def _collect_must_use_decls(self, pf: SourceFile, program: Program):
        code = pf.code
        class_spans = []
        for cm in CLASS_DECL_RX.finditer(code):
            body_open = cm.end() - 1
            class_spans.append((body_open, balanced_span(code, body_open),
                                cm.group(2)))
        for m in self.MUST_USE_DECL_RX.finditer(code):
            i = m.end()
            if code[i - 1] == "<":
                i = balanced_span(code, i - 1, "<", ">")
            # what follows must be `[&]* [Qualified::]Name (`
            tail = code[i:i + 200]
            fm = re.match(r"\s*[&]?\s*((?:[A-Za-z_]\w*::)*)([A-Za-z_]\w*)"
                          r"\s*\(", tail)
            if not fm:
                continue
            name = fm.group(2)
            if name in ("OPENAPI_CHECK",):
                continue
            if fm.group(1):  # `Class::Name` out-of-line definition
                declarer = fm.group(1).rstrip(":").split("::")[-1]
            else:
                declarer = ""
                best = -1
                for open_, close, cname in class_spans:
                    if open_ < m.start() < close and open_ > best:
                        best, declarer = open_, cname
            program.must_use_functions.setdefault(name, set()).add(declarer)

    # -- functions, acquisitions, calls -----------------------------------

    GUARD_DECL_RX = re.compile(
        r"\b(?:util::)?(MutexLock|WriterMutexLock|ReaderMutexLock)\s+"
        r"(\w+)\s*[({]")

    CALL_RX = re.compile(
        r"(?P<recv>[A-Za-z_]\w*(?:\(\))?(?:\s*(?:\.|->)\s*"
        r"[A-Za-z_]\w*(?:\(\))?)*?)?"
        r"(?:\s*(?:\.|->|::)\s*)?(?P<name>[A-Za-z_]\w*)\s*\(")

    def _collect_functions(self, pf: SourceFile, visible_classes: list,
                           program: Program):
        code = pf.code
        if pf.rel == "src/util/mutex.h":
            return  # the wrapper layer itself is the annotation source
        # member-name -> classes declaring a mutex member of that name
        mutex_owners = {}
        for info in visible_classes:
            for f in info.mutex_fields():
                mutex_owners.setdefault(f.name, []).append(info)

        pos = 0
        while True:
            brace = code.find("{", pos)
            if brace == -1:
                break
            header_start = max(code.rfind(";", 0, brace),
                               code.rfind("}", 0, brace),
                               code.rfind("{", 0, brace)) + 1
            header = code[header_start:brace].strip()
            m = FUNC_HEADER_RX.search(header) if header else None
            is_func = bool(m) and not re.match(
                r"^(class|struct|enum|namespace|union|if|for|while|switch|"
                r"do|else|try|catch|return)\b", header)
            # Reject class declarations with bases that sneak past.
            if is_func and re.match(r".*\b(class|struct)\b", header):
                is_func = False
            if not is_func:
                pos = brace + 1
                continue
            body_end = balanced_span(code, brace)
            qname = m.group(1)
            class_name = ""
            if "::" in qname:
                class_name = qname.rsplit("::", 1)[0].split("::")[-1]
            else:
                cls = self._enclosing_class(code, header_start, program,
                                            pf.rel)
                if cls:
                    class_name = cls
                    qname = f"{cls}::{qname}"
            header_full = code[header_start:brace]
            fn = FunctionInfo(qname=qname, class_name=class_name,
                              file=pf.rel,
                              line=line_of(code, header_start +
                                           len(header_full) -
                                           len(header_full.lstrip())))
            for args in extract_annotation_args(header_full, "REQUIRES") + \
                    extract_annotation_args(header_full, "REQUIRES_SHARED"):
                for a in args:
                    node = self._canonical_lock(a, class_name, None,
                                                mutex_owners, pf, fn)
                    if node:
                        fn.requires.append(node)
            self._scan_body(pf, code, brace, body_end, fn, mutex_owners,
                            program)
            program.functions.append(fn)
            pos = body_end

    def _enclosing_class(self, code: str, pos: int, program: Program,
                         rel: str) -> str:
        best = ""
        for info in program.classes.values():
            if info.file != rel:
                continue
            # crude but effective: the nearest class whose body spans pos
            m = None
            for cm in CLASS_DECL_RX.finditer(code):
                if cm.group(2) != info.qname.split("::")[-1]:
                    continue
                body_open = cm.end() - 1
                body_close = balanced_span(code, body_open)
                if body_open < pos < body_close:
                    if len(info.qname) > len(best):
                        best = info.qname.split("::")[-1]
        return best

    def _scan_body(self, pf, code, body_open, body_end, fn: FunctionInfo,
                   mutex_owners, program: Program):
        body = code[body_open:body_end]
        # Guard acquisitions with their scope extents.
        for gm in self.GUARD_DECL_RX.finditer(body):
            open_ch = body[gm.end() - 1]
            close_ch = ")" if open_ch == "(" else "}"
            arg_end = balanced_span(body, gm.end() - 1, open_ch, close_ch)
            arg = body[gm.end():arg_end - 1].strip()
            scope_close = self._scope_close(body, gm.start())
            node = self._canonical_lock(arg, fn.class_name, body[:gm.start()],
                                        mutex_owners, pf, fn)
            if node:
                fn.acquisitions.append(Acquisition(
                    lock=node, line=line_of(code, body_open + gm.start()),
                    start=gm.start(), scope_end=scope_close))
        # Calls (with best-effort receiver typing and discard detection).
        self._scan_calls(pf, code, body_open, body_end, fn, program)

    def _scope_close(self, body: str, pos: int) -> int:
        """Offset of the closing brace of the innermost block containing
        pos (relative to body)."""
        depth = 0
        for i in range(pos, len(body)):
            if body[i] == "{":
                depth += 1
            elif body[i] == "}":
                if depth == 0:
                    return i
                depth -= 1
        return len(body)

    def _canonical_lock(self, expr: str, class_name: str, prefix_body,
                        mutex_owners, pf, fn) -> str:
        """Resolves a lock expression to `Class::member`."""
        expr = expr.strip()
        if not expr:
            return ""
        m = re.match(r"^(?P<recv>.*?)(?:\.|->)(?P<member>\w+)$", expr)
        member = m.group("member") if m else expr.split("::")[-1]
        candidates = mutex_owners.get(member, [])
        # 1. the enclosing class (or an enclosing-class ancestor) wins
        for info in candidates:
            parts = info.qname.split("::")
            if class_name and class_name in parts:
                if not m:  # bare member name: must be our own
                    return f"{info.qname}::{member}"
        # 2. unique candidate among classes visible in this TU
        if len(candidates) == 1:
            return f"{candidates[0].qname}::{member}"
        # 3. receiver type sniffing in the surrounding function text
        if m and prefix_body is not None and candidates:
            recv = re.findall(r"\w+", m.group("recv"))
            if recv:
                for info in candidates:
                    simple = info.qname.split("::")[-1]
                    if re.search(r"\b" + simple + r"\b[^;{}]*\b" +
                                 recv[-1] + r"\b", prefix_body):
                        return f"{info.qname}::{member}"
        if candidates:
            names = "|".join(sorted(i.qname for i in candidates))
            return f"({names})::{member}"
        # Unknown owner (e.g. a reference parameter): keep it visible as a
        # per-function node rather than dropping the acquisition.
        return f"{fn.qname}::<{member}>"

    DISCARD_PREFIXES = re.compile(
        r"^(return|co_return|if|else|while|for|switch|case|default|do|"
        r"throw|goto|delete|new|OPENAPI_\w+|EXPECT_\w+|ASSERT_\w+)\b")

    def _scan_calls(self, pf, code, body_open, body_end, fn: FunctionInfo,
                    program: Program):
        body = code[body_open:body_end]
        # Statement split at top-level-or-deeper `;` and block boundaries.
        stmts = []
        start = 1  # skip the opening brace
        for i, ch in enumerate(body):
            if ch in ";{}" and i >= start:
                stmts.append((start, body[start:i], ch))
                start = i + 1
        params = self._param_text(code, body_open)
        for off, stmt, term in stmts:
            text = " ".join(stmt.split())
            if not text:
                continue
            # Is this statement exactly one call expression whose entire
            # value is dropped? `[ns::|recv.|recv->]Name(args);`
            discard_span = None
            if term == ";" and not self.DISCARD_PREFIXES.match(text) and \
                    self._is_whole_statement_call(text):
                dm = re.match(r"^(?:[A-Za-z_]\w*(?:\(\))?"
                              r"(?:\.|->|::))*([A-Za-z_]\w*)\s*\(", text)
                if dm:
                    discard_span = (dm.start(1), dm.group(1))
            for cm in re.finditer(
                    r"(?P<chain>(?:[A-Za-z_]\w*(?:\(\))?(?:\.|->))*)"
                    r"(?P<name>[A-Za-z_]\w*)\s*\(", text):
                name = cm.group("name")
                if name in GUARD_TYPES or name in ANNOTATION_MACROS:
                    continue
                chain = cm.group("chain")
                recv_type = ""
                if chain:
                    # Try the chain's identifiers innermost-first
                    # (x.y.F(): `y` is the receiver; fall back to `x`
                    # when `y` cannot be typed).
                    for rid in reversed(re.findall(r"[A-Za-z_]\w*",
                                                   chain)):
                        recv_type = self._receiver_type(rid, params, body,
                                                        fn, program)
                        if recv_type:
                            break
                discarded = (discard_span is not None and
                             cm.start("name") == discard_span[0] and
                             name == discard_span[1])
                fn.calls.append(CallSite(
                    name=name, receiver_type=recv_type,
                    line=line_of(code, body_open + off +
                                 stmt.find(stmt.strip()[:1] or "")),
                    offset=off, discarded=discarded))
            # Comma-operator discard: `(f(), g())` or `f(), x` statements.
            if term == ";" and "," in text:
                self._scan_comma_discards(pf, code, body_open, off, text, fn)

    def _is_whole_statement_call(self, text: str) -> bool:
        """True when the statement is exactly one call expression (the
        entire value is dropped). `(void)` casts and assignments are
        uses."""
        if re.match(r"^\(\s*void\s*\)", text):
            return False
        m = re.match(r"^(?:[A-Za-z_]\w*(?:\(\))?(?:\.|->|::))*"
                     r"[A-Za-z_]\w*\s*\(", text)
        if not m:
            return False
        end = balanced_span(text, m.end() - 1, "(", ")")
        return text[end:].strip() == ""

    def _scan_comma_discards(self, pf, code, body_open, off, text,
                             fn: FunctionInfo):
        inner = text
        if inner.startswith("(") and balanced_span(inner, 0, "(", ")") == \
                len(inner):
            inner = inner[1:-1]
        depth, parts, cur = 0, [], []
        for ch in inner:
            if ch in "(<[{":
                depth += 1
            elif ch in ")>]}":
                depth -= 1
            if ch == "," and depth == 0:
                parts.append("".join(cur).strip())
                cur = []
            else:
                cur.append(ch)
        parts.append("".join(cur).strip())
        if len(parts) < 2:
            return
        # every part except the last is discarded by the comma operator
        for part in parts[:-1]:
            m = re.match(r"^(?:[A-Za-z_]\w*(?:\(\))?(?:\.|->|::))*"
                         r"(?P<name>[A-Za-z_]\w*)\s*\(", part)
            if m and self._is_whole_statement_call(part):
                fn.calls.append(CallSite(
                    name=m.group("name"), receiver_type="",
                    line=line_of(code, body_open + off), offset=off,
                    discarded=True))

    def _param_text(self, code: str, body_open: int) -> str:
        """Raw text of the parameter list preceding the body."""
        close = code.rfind(")", 0, body_open)
        if close == -1:
            return ""
        depth, i = 0, close
        while i >= 0:
            if code[i] == ")":
                depth += 1
            elif code[i] == "(":
                depth -= 1
                if depth == 0:
                    return code[i + 1:close]
            i -= 1
        return ""

    def _receiver_type(self, recv_id: str, params: str, body: str,
                       fn: FunctionInfo, program: Program) -> str:
        if not recv_id:
            return ""
        m = re.search(r"((?:const\s+)?[\w:]+(?:\s*<[^>]*>)?"
                      r"(?:\s*[&*]+\s*|\s+)(?:const\s+)?)\b" +
                      re.escape(recv_id) + r"\b(?![\w:])", params)
        if m:
            return m.group(1).strip()
        m = re.search(r"(?:^|[;{(])\s*(?:const\s+)?([\w:]+(?:<[^>]*>)?)"
                      r"[\s&*]+\b" + re.escape(recv_id) +
                      r"\b(?![\w:])\s*[=;({]", body)
        if m:
            return m.group(1)
        # Member field of the enclosing class (or an enclosing ancestor).
        if fn.class_name:
            for info in program.classes.values():
                if info.qname.split("::")[-1] != fn.class_name:
                    continue
                for f in info.fields:
                    if f.name == recv_id:
                        return f.type_text
        return ""


# --------------------------------------------------------------------------
# Rule engine.
# --------------------------------------------------------------------------


def compute_lock_edges(program: Program):
    """Observed lock-order edges: (held, acquired) -> [evidence]."""
    # Transitive "acquires somewhere inside" sets, via name-matched calls.
    direct = {}
    calls = {}
    for fn in program.functions:
        direct.setdefault(fn.qname, set()).update(
            a.lock for a in fn.acquisitions)
        calls.setdefault(fn.qname, set()).update(
            (c.name, c.receiver_class()) for c in fn.calls)
    by_simple = {}
    for qname in direct:
        by_simple.setdefault(qname.split("::")[-1], set()).add(qname)

    def plausible_target(callee_class: str, target: str,
                         caller_class: str) -> bool:
        """Name-matched dispatch is only plausible when the typed
        receiver IS the target's class (x.Wait() on a CondVar must not
        match ThreadPool::Wait). An untyped receiver matches free
        functions and the caller's own methods (implicit this) — not
        every same-named method in the program, which would drown the
        graph in junk edges from common names like size()/Read()."""
        target_class = target.rsplit("::", 1)[0] if "::" in target else ""
        target_class = target_class.split("::")[-1]
        if not target_class:
            return True
        if callee_class:
            return callee_class == target_class
        return caller_class == target_class

    acq = {q: set(s) for q, s in direct.items()}
    changed = True
    while changed:
        changed = False
        for q in acq:
            q_class = q.rsplit("::", 1)[0].split("::")[-1] \
                if "::" in q else ""
            for callee, callee_class in calls.get(q, ()):
                for target in by_simple.get(callee, ()):
                    if target == q:
                        continue
                    if not plausible_target(callee_class, target, q_class):
                        continue
                    extra = acq.get(target, set()) - acq[q]
                    if extra:
                        acq[q] |= extra
                        changed = True

    edges = {}

    def add_edge(held, acquired, fn, line, why):
        if held == acquired:
            return
        edges.setdefault((held, acquired), []).append(
            f"{fn.file}:{line} ({fn.qname}: {why})")

    for fn in program.functions:
        for a in fn.acquisitions:
            for held in fn.requires:
                add_edge(held, a.lock, fn, a.line,
                         f"guard on {a.lock.split('::')[-1]} under "
                         f"REQUIRES({held.split('::')[-1]})")
            for b in fn.acquisitions:
                if b is a:
                    continue
                if a.start < b.start < a.scope_end:
                    add_edge(a.lock, b.lock, fn, b.line, "nested guard")
        for c in fn.calls:
            held = list(fn.requires)
            for a in fn.acquisitions:
                if a.start < c.offset < a.scope_end:
                    held.append(a.lock)
            if not held:
                continue
            recv_class = c.receiver_class()
            for target in by_simple.get(c.name, ()):
                if not plausible_target(recv_class, target,
                                        fn.class_name):
                    continue
                for inner in acq.get(target, ()):
                    for h in held:
                        add_edge(h, inner, fn, c.line,
                                 f"call to {c.name}() which acquires "
                                 f"{inner.split('::')[-1]}")
    return edges


def declared_edges(program: Program):
    """Edges declared with ACQUIRED_AFTER / ACQUIRED_BEFORE on mutex
    members: `b ACQUIRED_AFTER(a)` and `a ACQUIRED_BEFORE(b)` both declare
    the order a -> b ("a may be held while acquiring b")."""
    out = {}
    for info in program.classes.values():
        for f in info.fields:
            if not type_is_mutex(f.type_text):
                continue
            me = f"{info.qname}::{f.name}"
            for other in f.acquired_after:
                node = resolve_member_ref(program, info, other)
                out.setdefault((node, me), []).append(
                    f"{info.file}:{f.line} (ACQUIRED_AFTER)")
            for other in f.acquired_before:
                node = resolve_member_ref(program, info, other)
                out.setdefault((me, node), []).append(
                    f"{info.file}:{f.line} (ACQUIRED_BEFORE)")
    return out


def resolve_member_ref(program: Program, info: ClassInfo, ref: str) -> str:
    member = ref.strip().split("::")[-1]
    for f in info.fields:
        if f.name == member:
            return f"{info.qname}::{member}"
    for other in program.classes.values():
        for f in other.fields:
            if f.name == member and type_is_mutex(f.type_text):
                return f"{other.qname}::{member}"
    return member


def find_cycles(edges) -> list:
    graph = {}
    for (a, b) in edges:
        graph.setdefault(a, set()).add(b)
        graph.setdefault(b, set())
    WHITE, GRAY, BLACK = 0, 1, 2
    color = {n: WHITE for n in graph}
    cycles = []

    def dfs(n, path):
        color[n] = GRAY
        path.append(n)
        for nxt in sorted(graph[n]):
            if color[nxt] == GRAY:
                cycles.append(path[path.index(nxt):] + [nxt])
            elif color[nxt] == WHITE:
                dfs(nxt, path)
        path.pop()
        color[n] = BLACK

    for n in sorted(graph):
        if color[n] == WHITE:
            dfs(n, [])
    return cycles


def rule_lock_order(program: Program, dot_path):
    observed = compute_lock_edges(program)
    declared = declared_edges(program)
    combined = dict(declared)
    for k, v in observed.items():
        combined.setdefault(k, []).extend(v)

    violations = []
    cycles = find_cycles(combined)
    for cyc in cycles:
        where = combined.get((cyc[0], cyc[1]), ["?"])[0]
        file, _, line = where.partition(":")
        line = int(line.split(" ")[0]) if line else 1
        violations.append(Violation(
            file, line, "lock-order",
            "lock-order cycle: " + " -> ".join(
                n.split("::")[-1] for n in cyc) +
            " — a set of threads acquiring along this ring deadlocks"))
    for (a, b), ev in sorted(observed.items()):
        if (a, b) not in declared:
            file, _, rest = ev[0].partition(":")
            line = int(re.match(r"\d+", rest).group(0)) if rest else 1
            violations.append(Violation(
                file, line, "lock-order",
                f"observed nesting {a} -> {b} is not declared: add "
                f"ACQUIRED_AFTER({a.split('::')[-1]}) on the "
                f"{b.split('::')[-1]} member (or ACQUIRED_BEFORE on "
                f"{a.split('::')[-1]}) so the order is documented in code"))

    if dot_path:
        write_dot(program, observed, declared, cycles, dot_path)
    return violations


def write_dot(program: Program, observed, declared, cycles, dot_path):
    cycle_edges = set()
    for cyc in cycles:
        cycle_edges.update(zip(cyc, cyc[1:]))
    nodes = set()
    for info in program.classes.values():
        for f in info.mutex_fields():
            nodes.add(f"{info.qname}::{f.name}")
    for (a, b) in list(observed) + list(declared):
        nodes.update((a, b))
    lines = [
        "// Lock-order graph emitted by scripts/analyze_semantics.py.",
        "// Solid edges: acquisitions OBSERVED nested in the program.",
        "// Dashed edges: order DECLARED via ACQUIRED_AFTER/BEFORE.",
        "// An edge a -> b means: a may be held while acquiring b.",
        "// Acyclic == deadlock-free; no solid edges at all is the",
        "// strongest proof (locks that never nest cannot deadlock).",
        "digraph lock_order {",
        "  rankdir=LR;",
        '  node [shape=box, fontname="monospace"];',
    ]
    for n in sorted(nodes):
        lines.append(f'  "{n}";')
    for (a, b), ev in sorted(declared.items()):
        style = "color=red" if (a, b) in cycle_edges else "style=dashed"
        lines.append(f'  "{a}" -> "{b}" [{style}, label="declared"];')
    for (a, b), ev in sorted(observed.items()):
        style = "color=red" if (a, b) in cycle_edges else "style=solid"
        label = ev[0].split(" ")[0].replace('"', "'")
        lines.append(f'  "{a}" -> "{b}" [{style}, label="{label}"];')
    lines.append("}")
    dot_path = Path(dot_path)
    dot_path.parent.mkdir(parents=True, exist_ok=True)
    dot_path.write_text("\n".join(lines) + "\n")


def rule_guarded_by(program: Program):
    violations = []
    atomic_structs = transitively_atomic_classes(program)
    for info in sorted(program.classes.values(), key=lambda i: i.qname):
        if not info.file.startswith("src/"):
            continue
        if not info.mutex_fields():
            continue
        for f in info.fields:
            if f.guards or f.is_const or f.is_static or f.is_reference:
                continue
            if type_is_mutex(f.type_text) or type_is_condvar(f.type_text):
                continue
            if type_is_atomic(f.type_text):
                continue
            simple = last_type_name(f.type_text)
            if simple in atomic_structs:
                continue
            w = program.waiver_for(info.file, f.line, "unguarded")
            if w is not None:
                if not w[1]:
                    violations.append(Violation(
                        info.file, f.line, "guarded-by",
                        f"waiver on {info.qname}::{f.name} has no reason — "
                        "every waiver must be documented: "
                        "// analyze: unguarded(<why this is safe>)"))
                continue
            violations.append(Violation(
                info.file, f.line, "guarded-by",
                f"{info.qname} owns a mutex but member '{f.name}' "
                f"({f.type_text}) is neither GUARDED_BY/PT_GUARDED_BY, "
                "const, atomic, nor waived with "
                "// analyze: unguarded(<reason>)"))
    return violations


def last_type_name(type_text: str) -> str:
    names = re.findall(r"\w+", blank_angle_regions(type_text))
    skip = {"const", "mutable", "static", "volatile", "struct", "class",
            "std", "util", "openapi", "api", "interpret", "store"}
    names = [n for n in names if n not in skip]
    return names[-1] if names else ""


def transitively_atomic_classes(program: Program) -> set:
    """Classes every one of whose fields is a std::atomic (or another such
    class): a lock-free counter block needs no GUARDED_BY."""
    out = set()
    changed = True
    while changed:
        changed = False
        for info in program.classes.values():
            simple = info.qname.split("::")[-1]
            if info.qname in out or not info.fields:
                continue
            ok = all(
                type_is_atomic(f.type_text) or
                last_type_name(f.type_text) in
                {q.split("::")[-1] for q in out}
                for f in info.fields)
            if ok:
                out.add(info.qname)
                out.add(simple)
                changed = True
    return out


def rule_must_use(program: Program):
    violations = []
    for fn in program.functions:
        for c in fn.calls:
            if not c.discarded:
                continue
            declarers = program.must_use_functions.get(c.name)
            if declarers is None:
                continue
            recv_class = c.receiver_class()
            if recv_class:
                # Typed receiver: only a call on a class that actually
                # declares the Status/Result-returning overload counts
                # (RegionDirectory::Put returns void; RegionStore::Put
                # does not).
                if recv_class not in declarers:
                    continue
            elif not c.receiver_type:
                # No receiver chain at all: a free function, a call on
                # an implicit `this` of a declaring class, or something
                # out of reach — flag only the first two.
                if "" not in declarers and \
                        fn.class_name not in declarers:
                    continue
            violations.append(Violation(
                fn.file, c.line, "must-use",
                f"result of {c.name}() (util::Status / Result) is "
                "discarded — handle it, propagate it, or make the "
                "suppression explicit with (void)"))
    return violations


PROBE_ALLOWED = (
    "src/api/",
    "src/interpret/probe_dispatch.h",
    "src/interpret/probe_dispatch.cc",
)


def rule_probe_confinement(program: Program):
    violations = []
    for fn in program.functions:
        if not fn.file.startswith("src/"):
            continue
        if any(fn.file.startswith(p) if p.endswith("/") else fn.file == p
               for p in PROBE_ALLOWED):
            continue
        for c in fn.calls:
            if c.name not in PROBE_METHODS:
                continue
            is_api = any(mark in c.receiver_type
                         for mark in API_TYPE_MARKERS)
            if not is_api and c.name not in PROBE_METHODS_UNAMBIGUOUS:
                continue  # model/dataset Predict — not the API boundary
            w = program.waiver_for(fn.file, c.line, "direct-probe")
            if w is not None:
                if not w[1]:
                    violations.append(Violation(
                        fn.file, c.line, "probe-confinement",
                        f"direct-probe waiver on {c.name}() has no reason "
                        "— every waiver must be documented: "
                        "// analyze: direct-probe(<why>)"))
                continue
            violations.append(Violation(
                fn.file, c.line, "probe-confinement",
                f"direct call to PredictionApi::{c.name}() outside "
                "src/api/ and src/interpret/probe_dispatch.* — route "
                "probes through interpret::DispatchProbes so chunking, "
                "retries and exact accounting apply, or document why "
                "this path may bypass them: "
                "// analyze: direct-probe(<reason>)"))
    return violations


RULES = ["lock-order", "guarded-by", "must-use", "probe-confinement"]


def analyze(program: Program, dot_path=None):
    violations = []
    violations.extend(rule_lock_order(program, dot_path))
    violations.extend(rule_guarded_by(program))
    violations.extend(rule_must_use(program))
    violations.extend(rule_probe_confinement(program))
    violations.sort(key=lambda v: (v.rel, v.line, v.rule))
    return violations


# --------------------------------------------------------------------------
# Driver.
# --------------------------------------------------------------------------


def build_program(root: Path) -> Program:
    tus = walk(root, TU_DIRS, (".cc",))
    if not tus:
        raise RuntimeError(
            f"no translation units (*.cc) under {root} in "
            + ", ".join(d + "/" for d in TU_DIRS))
    return Frontend(root, tus).build()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Whole-program semantic analysis (lock order, "
        "GUARDED_BY coverage, must-use, probe confinement)")
    parser.add_argument("--root", type=Path,
                        default=Path(__file__).resolve().parent.parent,
                        help="repository root")
    parser.add_argument("--dot", type=Path, default=None,
                        help="write the lock-order graph here (Graphviz)")
    parser.add_argument("--list-rules", action="store_true")
    parser.add_argument("--list-waivers", action="store_true",
                        help="print every waiver with its reason and exit")
    args = parser.parse_args(argv)

    if args.list_rules:
        for r in RULES:
            print(r)
        return 0

    try:
        program = build_program(args.root.resolve())
    except RuntimeError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2

    if args.list_waivers:
        for (f, line), (kind, reason) in sorted(program.waivers.items()):
            print(f"{f}:{line}: {kind}({reason})")
        return 0

    try:
        violations = analyze(program, dot_path=args.dot)
    except OSError as e:
        print(f"error: cannot write {args.dot}: {e}", file=sys.stderr)
        return 2
    for v in violations:
        print(v)
    n_waivers = len(program.waivers)
    print(f"analyze_semantics: files={len(program.files)} "
          f"classes={len(program.classes)} "
          f"functions={len(program.functions)} waivers={n_waivers}",
          file=sys.stderr)
    if violations:
        print(f"\n{len(violations)} semantic violation(s).",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
