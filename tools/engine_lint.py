#!/usr/bin/env python3
"""Repo-specific static analysis for the bufferdb engine.

Machine-checks the invariants the hot paths rely on but the compiler cannot
see (see DESIGN.md section 9):

  ENG001 hot-alloc          No allocation (new/malloc, vector growth,
                            std::string construction) inside Next() /
                            NextBatch() bodies. These run once per tuple or
                            once per batch; an allocation there defeats the
                            paper's instruction-cache argument and shows up
                            directly in CPI. Annotate intentional cases with
                            `// LINT: allow-alloc(<reason>)` on the same or
                            the preceding line.
  ENG002 nodiscard-status   Every Status-returning function declared in a
                            header carries [[nodiscard]]; a dropped Status
                            is a silently ignored error.
  ENG003 operator-contract  Every class deriving from Operator declares the
                            full Open/Next/Close contract, and declares
                            Rescan whenever its doc comment claims replay /
                            rescan behavior. Suppress with
                            `// LINT: allow-partial-operator(<reason>)`.
  ENG004 header-hygiene     Headers start with `#pragma once` (no classic
                            include guards) and never say `using namespace`.
  ENG005 thread-containment std::thread / pthread_create only appear under
                            src/parallel/ -- every other layer must go
                            through the ThreadPool so shutdown, error
                            propagation and TSan coverage stay centralized.
                            Annotate with `// LINT: allow-thread(<reason>)`.
  ENG006 scalar-eval        No per-tuple Expression::Evaluate /
                            EvaluatePredicate / SelectRows calls inside
                            NextBatch() or LoadBatched() (an aggregation's
                            batched load) bodies: the batch fast path must
                            evaluate expressions through compiled kernel
                            programs (expr/vector_eval.h). The deliberate
                            interpreter fallback (compiler returned nullptr)
                            is annotated `// LINT: allow-scalar-eval(<reason>)`
                            on the same or the preceding line.
  ENG007 syscall-containment perf_event_open / raw syscall() only appear
                            under src/perf/ -- hardware-counter access goes
                            through perf::PerfCounterGroup so the degraded
                            no-PMU path, the fd lifetime and the paranoid-
                            level diagnostics stay in one place. Annotate
                            with `// LINT: allow-syscall(<reason>)`.
  ENG008 row-decode         No RowBatchDecoder::Decode calls inside
                            NextBatch() or LoadBatched() bodies:
                            batch-native operators must
                            decode through RowBatchDecoder::DecodeMissing so
                            columns a ColumnScan (or any publishing child)
                            already exposes via BatchColumns() are aliased
                            instead of re-decoded. The deliberate cases (a
                            leaf decoding rows it gathered itself, with no
                            batch source to alias from) are annotated
                            `// LINT: allow-row-decode(<reason>)` on the
                            same or the preceding line.
  ENG009 row-build          No TupleBuilder::ConcatRows / CopyColumns /
                            Finish calls inside NextBatch() or
                            LoadBatched() bodies: building a row a consumer
                            decodes straight back into columns is the waste
                            the published-columns protocol removes
                            (Operator::OmitRows). A batch path that builds
                            rows because its consumer reads rows is
                            annotated `// LINT: allow-row-build(<reason>)`
                            on the same or the preceding line.

Suppressions use one canonical grammar across all rules:
`// LINT: allow-<rule>(<reason>)`. The deprecated aliases
`// engine-lint: allow-<rule>(...)` and bare `// allow-<rule> (...)` are
still honored but should not appear in new code.

Usage:
  engine_lint.py [--root DIR] [--format {text,json}] [--self-test] [paths ...]

Exit status: 0 when clean, 1 when findings were reported, 2 on usage error.
Runs as a tier-1 ctest (`engine_lint`, `engine_lint_selftest`) and in the
`lint` CI job; stdlib only, no third-party deps.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable

HEADER_EXTS = {".h", ".hpp"}
SOURCE_EXTS = {".h", ".hpp", ".cc", ".cpp"}

# Canonical suppression grammar, one form for every rule:
#   `// LINT: allow-<rule>(<reason>)`
# on the offending line or the //-comment block right above it.  The
# historical spellings -- `// engine-lint: allow-<rule>(...)` (early ENG008)
# and the bare `// allow-<rule> (...)` (early ENG006) -- are deprecated
# aliases: annotated_lines() matches the bare `allow-<rule>` token, which all
# three spellings contain, so old annotations keep working while every
# message and doc advertises only the canonical form.
ALLOW_ALLOC = "LINT: allow-alloc"
ALLOW_PARTIAL_OPERATOR = "LINT: allow-partial-operator"
ALLOW_THREAD = "LINT: allow-thread"
ALLOW_SCALAR_EVAL = "LINT: allow-scalar-eval"
ALLOW_SYSCALL = "LINT: allow-syscall"
ALLOW_ROW_DECODE = "LINT: allow-row-decode"
ALLOW_ROW_BUILD = "LINT: allow-row-build"


@dataclass(frozen=True)
class Finding:
    path: str
    line: int
    rule: str
    message: str

    def render(self) -> str:
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"

    def as_json(self) -> str:
        return json.dumps({"file": self.path, "line": self.line,
                           "rule": self.rule, "message": self.message},
                          sort_keys=True)


# ---------------------------------------------------------------------------
# Lexing helpers
# ---------------------------------------------------------------------------


def strip_comments_and_strings(text: str) -> str:
    """Blanks out comments, string and char literals, preserving newlines and
    column positions so findings can be mapped back to file:line."""
    out = list(text)
    i = 0
    n = len(text)
    state = "code"
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if state == "code":
            if c == "/" and nxt == "/":
                state = "line_comment"
                out[i] = out[i + 1] = " "
                i += 2
                continue
            if c == "/" and nxt == "*":
                state = "block_comment"
                out[i] = out[i + 1] = " "
                i += 2
                continue
            if c == '"':
                # Raw string literal R"delim( ... )delim"
                if i >= 1 and text[i - 1] == "R" and (i < 2 or not text[i - 2].isalnum()):
                    m = re.match(r'R"([^()\\ ]{0,16})\(', text[i - 1:])
                    if m:
                        delim = m.group(1)
                        end = text.find(f"){delim}\"", i)
                        if end == -1:
                            end = n - 1
                        for j in range(i + 1, min(end + len(delim) + 2, n)):
                            if out[j] != "\n":
                                out[j] = " "
                        i = end + len(delim) + 2
                        continue
                state = "string"
                i += 1
                continue
            if c == "'":
                state = "char"
                i += 1
                continue
            i += 1
        elif state == "line_comment":
            if c == "\n":
                state = "code"
            else:
                out[i] = " "
            i += 1
        elif state == "block_comment":
            if c == "*" and nxt == "/":
                out[i] = out[i + 1] = " "
                state = "code"
                i += 2
                continue
            if c != "\n":
                out[i] = " "
            i += 1
        elif state in ("string", "char"):
            quote = '"' if state == "string" else "'"
            if c == "\\":
                out[i] = " "
                if i + 1 < n and text[i + 1] != "\n":
                    out[i + 1] = " "
                i += 2
                continue
            if c == quote:
                state = "code"
            elif c != "\n":
                out[i] = " "
            i += 1
    return "".join(out)


def line_of(text: str, offset: int) -> int:
    return text.count("\n", 0, offset) + 1


def annotated_lines(raw: str, marker: str) -> set[int]:
    """Line numbers carrying a suppression annotation (before stripping).

    `marker` is the canonical `LINT: allow-<rule>` spelling; matching is on
    the bare `allow-<rule>` token so the deprecated `engine-lint:`-prefixed
    and bare aliases are honored too.
    """
    token = marker.split(": ", 1)[-1]
    lines = set()
    for idx, line in enumerate(raw.splitlines(), start=1):
        if token in line:
            lines.add(idx)
    return lines


def is_annotated(raw_lines: list[str], allowed: set[int], line: int) -> bool:
    """True if `line` carries the marker, or a contiguous block of //-comment
    lines immediately above it does (multi-line annotation comments)."""
    if line in allowed:
        return True
    probe = line - 1
    while probe >= 1 and raw_lines[probe - 1].lstrip().startswith("//"):
        if probe in allowed:
            return True
        probe -= 1
    return False


def match_brace_block(text: str, open_idx: int) -> int:
    """Given index of '{', returns index one past its matching '}'. Assumes
    comment/string-stripped input."""
    depth = 0
    for i in range(open_idx, len(text)):
        if text[i] == "{":
            depth += 1
        elif text[i] == "}":
            depth -= 1
            if depth == 0:
                return i + 1
    return len(text)


# ---------------------------------------------------------------------------
# ENG001: no allocation in Next()/NextBatch() hot loops
# ---------------------------------------------------------------------------

HOT_FUNC_DEF_RE = re.compile(
    r"(?:const\s+uint8_t\s*\*|size_t|std::size_t)\s+"
    r"(?:[A-Za-z_]\w*\s*::\s*)*(?:Next|NextBatch)\s*\([^;{}]*\)\s*"
    r"(?:const\s*)?(?:noexcept\s*)?(?:override\s*)?(?:final\s*)?\{"
)

ALLOC_PATTERNS = [
    (re.compile(r"\bnew\b(?!\s*\()"), "operator new"),
    (re.compile(r"\bnew\s*\("), "placement/operator new"),
    (re.compile(r"\b(?:malloc|calloc|realloc)\s*\("), "malloc-family call"),
    (re.compile(r"(?:\.|->)\s*(?:push_back|emplace_back|emplace|resize|reserve|append|assign|insert)\s*\("),
     "container growth"),
    (re.compile(r"\bstd::string\s*[({]"), "std::string construction"),
    (re.compile(r"\bstd::string\s+\w+\s*[=;]"), "std::string construction"),
    (re.compile(r"\bstd::to_string\s*\("), "std::to_string"),
    (re.compile(r"\bmake_(?:unique|shared)\s*[<(]"), "make_unique/make_shared"),
]


def check_hot_alloc(path: str, raw: str, stripped: str) -> list[Finding]:
    findings: list[Finding] = []
    allowed = annotated_lines(raw, ALLOW_ALLOC)
    raw_lines = raw.splitlines()
    for m in HOT_FUNC_DEF_RE.finditer(stripped):
        open_idx = stripped.index("{", m.start())
        end_idx = match_brace_block(stripped, open_idx)
        body = stripped[open_idx:end_idx]
        body_base = open_idx
        for pattern, what in ALLOC_PATTERNS:
            for hit in pattern.finditer(body):
                line = line_of(stripped, body_base + hit.start())
                if is_annotated(raw_lines, allowed, line):
                    continue
                findings.append(Finding(
                    path, line, "ENG001",
                    f"{what} inside Next()/NextBatch() hot loop; allocate in "
                    f"Open() or annotate `// {ALLOW_ALLOC}(<reason>)`"))
    return findings


# ---------------------------------------------------------------------------
# ENG002: [[nodiscard]] on Status-returning functions in headers
# ---------------------------------------------------------------------------

STATUS_DECL_RE = re.compile(
    r"^\s*(?:(?:virtual|static|inline|constexpr|explicit|friend)\s+)*"
    r"(?:::)?(?:bufferdb\s*::\s*)?Status\s+[A-Za-z_]\w*\s*\(")


def check_nodiscard(path: str, raw: str, stripped: str) -> list[Finding]:
    if Path(path).suffix not in HEADER_EXTS:
        return []
    findings: list[Finding] = []
    lines = stripped.splitlines()
    for idx, line in enumerate(lines):
        if not STATUS_DECL_RE.match(line):
            continue
        prev = lines[idx - 1].strip() if idx > 0 else ""
        if "[[nodiscard]]" in line or prev.endswith("[[nodiscard]]"):
            continue
        findings.append(Finding(
            path, idx + 1, "ENG002",
            "Status-returning function must be marked [[nodiscard]]"))
    return findings


# ---------------------------------------------------------------------------
# ENG003: Operator subclasses implement the full Open/Next/Close contract
# ---------------------------------------------------------------------------

OPERATOR_CLASS_RE = re.compile(
    r"class\s+([A-Za-z_]\w*)\s*(?:final\s*)?:\s*public\s+"
    r"(?:[A-Za-z_]\w*::)*Operator\b[^{]*\{")


def check_operator_contract(path: str, raw: str, stripped: str) -> list[Finding]:
    if Path(path).suffix not in HEADER_EXTS:
        return []
    findings: list[Finding] = []
    allowed = annotated_lines(raw, ALLOW_PARTIAL_OPERATOR)
    raw_lines = raw.splitlines()
    for m in OPERATOR_CLASS_RE.finditer(stripped):
        class_line = line_of(stripped, m.start())
        # Suppression marker on any of the 3 lines above the class head.
        if any(line in allowed for line in range(max(1, class_line - 3), class_line + 1)):
            continue
        open_idx = stripped.index("{", m.start())
        end_idx = match_brace_block(stripped, open_idx)
        body = stripped[open_idx:end_idx]
        name = m.group(1)
        required = {
            "Open": re.compile(r"\bStatus\s+Open\s*\("),
            "Next": re.compile(r"\bNext\s*\(\s*\)"),
            "Close": re.compile(r"\bvoid\s+Close\s*\(\s*\)"),
        }
        for method, pattern in required.items():
            if not pattern.search(body):
                findings.append(Finding(
                    path, class_line, "ENG003",
                    f"Operator subclass {name} does not declare {method}(); "
                    f"the full Open/Next/Close contract must be overridden "
                    f"together (or annotate `// {ALLOW_PARTIAL_OPERATOR}(<reason>)`)"))
        # Rescan-where-claimed: if the doc comment right above the class
        # talks about Rescan/replay, the class must actually override it.
        doc_start = class_line - 1
        doc: list[str] = []
        while doc_start >= 1 and raw_lines[doc_start - 1].lstrip().startswith("//"):
            doc.append(raw_lines[doc_start - 1])
            doc_start -= 1
        doc_text = "\n".join(doc)
        if re.search(r"\bRescan\b", doc_text) and not re.search(
                r"\bStatus\s+Rescan\s*\(", body):
            findings.append(Finding(
                path, class_line, "ENG003",
                f"Operator subclass {name}'s doc comment claims Rescan "
                f"behavior but the class does not override Rescan()"))
    return findings


# ---------------------------------------------------------------------------
# ENG004: header hygiene
# ---------------------------------------------------------------------------

GUARD_RE = re.compile(r"^\s*#ifndef\s+\w+_H_?\b")
USING_NAMESPACE_RE = re.compile(r"^\s*using\s+namespace\b")


def check_header_hygiene(path: str, raw: str, stripped: str) -> list[Finding]:
    if Path(path).suffix not in HEADER_EXTS:
        return []
    findings: list[Finding] = []
    lines = stripped.splitlines()
    first_code_line = None
    for idx, line in enumerate(lines, start=1):
        if line.strip():
            first_code_line = (idx, line.strip())
            break
    if first_code_line is None or first_code_line[1] != "#pragma once":
        findings.append(Finding(
            path, first_code_line[0] if first_code_line else 1, "ENG004",
            "header must start with `#pragma once`"))
    for idx, line in enumerate(lines, start=1):
        if GUARD_RE.match(line):
            findings.append(Finding(
                path, idx, "ENG004",
                "classic include guard; use `#pragma once` instead"))
        if USING_NAMESPACE_RE.match(line):
            findings.append(Finding(
                path, idx, "ENG004",
                "`using namespace` in a header leaks into every includer"))
    return findings


# ---------------------------------------------------------------------------
# ENG005: raw threads only under src/parallel/
# ---------------------------------------------------------------------------

THREAD_RE = re.compile(r"\bstd::(?:thread|jthread)\b|\bpthread_create\s*\(")


def check_thread_containment(path: str, raw: str, stripped: str) -> list[Finding]:
    normalized = path.replace(os.sep, "/")
    if "/parallel/" in normalized or normalized.startswith("parallel/"):
        return []
    allowed = annotated_lines(raw, ALLOW_THREAD)
    raw_lines = raw.splitlines()
    findings: list[Finding] = []
    for m in THREAD_RE.finditer(stripped):
        line = line_of(stripped, m.start())
        if is_annotated(raw_lines, allowed, line):
            continue
        findings.append(Finding(
            path, line, "ENG005",
            "raw thread primitive outside src/parallel/; use "
            "parallel::ThreadPool (or annotate `// LINT: allow-thread(<reason>)`)"))
    return findings


# ---------------------------------------------------------------------------
# ENG006: no per-tuple interpreter calls in batch-path bodies
# ---------------------------------------------------------------------------

# The batch-path function bodies ENG006 and ENG008 scan: NextBatch() and the
# aggregations' batched load, LoadBatched().
BATCH_FUNC_DEF_RE = re.compile(
    r"(?:size_t|std::size_t|void)\s+"
    r"(?:[A-Za-z_]\w*\s*::\s*)*(?:NextBatch|LoadBatched)\s*\([^;{}]*\)\s*"
    r"(?:const\s*)?(?:noexcept\s*)?(?:override\s*)?(?:final\s*)?\{"
)

# SelectRows (expr/evaluator.h) runs EvaluatePredicate over a row batch.
SCALAR_EVAL_RE = re.compile(
    r"\b(?:EvaluatePredicate|SelectRows)\s*\(|(?:\.|->)\s*Evaluate\s*\(")


def check_scalar_eval(path: str, raw: str, stripped: str) -> list[Finding]:
    findings: list[Finding] = []
    allowed = annotated_lines(raw, ALLOW_SCALAR_EVAL)
    raw_lines = raw.splitlines()
    for m in BATCH_FUNC_DEF_RE.finditer(stripped):
        open_idx = stripped.index("{", m.start())
        end_idx = match_brace_block(stripped, open_idx)
        body = stripped[open_idx:end_idx]
        for hit in SCALAR_EVAL_RE.finditer(body):
            line = line_of(stripped, open_idx + hit.start())
            if is_annotated(raw_lines, allowed, line):
                continue
            findings.append(Finding(
                path, line, "ENG006",
                "per-tuple expression interpreter inside NextBatch()/"
                "LoadBatched(); use a "
                "compiled kernel program (expr/vector_eval.h) or annotate the "
                f"fallback `// {ALLOW_SCALAR_EVAL}(<reason>)`"))
    return findings


# ---------------------------------------------------------------------------
# ENG008: no raw RowBatchDecoder::Decode in batch-path bodies
# ---------------------------------------------------------------------------

# `Decode(` specifically: `DecodeMissing(` continues with `M` and does not
# match, which is the point -- DecodeMissing aliases published columns.
ROW_DECODE_RE = re.compile(r"\bRowBatchDecoder\s*::\s*Decode\s*\(")


def check_row_decode(path: str, raw: str, stripped: str) -> list[Finding]:
    findings: list[Finding] = []
    allowed = annotated_lines(raw, ALLOW_ROW_DECODE)
    raw_lines = raw.splitlines()
    for m in BATCH_FUNC_DEF_RE.finditer(stripped):
        open_idx = stripped.index("{", m.start())
        end_idx = match_brace_block(stripped, open_idx)
        body = stripped[open_idx:end_idx]
        for hit in ROW_DECODE_RE.finditer(body):
            line = line_of(stripped, open_idx + hit.start())
            if is_annotated(raw_lines, allowed, line):
                continue
            findings.append(Finding(
                path, line, "ENG008",
                "RowBatchDecoder::Decode inside NextBatch()/LoadBatched(); use "
                "DecodeMissing with the child's BatchColumns() so published "
                "columns are aliased instead of re-decoded, or annotate "
                f"`// {ALLOW_ROW_DECODE}(<reason>)`"))
    return findings


# ---------------------------------------------------------------------------
# ENG009: no unannotated row builds in batch-path bodies
# ---------------------------------------------------------------------------

ROW_BUILD_RE = re.compile(
    r"\bTupleBuilder\s*::\s*(?:ConcatRows|CopyColumns)\s*\("
    r"|(?:\.|->)\s*Finish\s*\(\s*&")


def check_row_build(path: str, raw: str, stripped: str) -> list[Finding]:
    findings: list[Finding] = []
    allowed = annotated_lines(raw, ALLOW_ROW_BUILD)
    raw_lines = raw.splitlines()
    for m in BATCH_FUNC_DEF_RE.finditer(stripped):
        open_idx = stripped.index("{", m.start())
        end_idx = match_brace_block(stripped, open_idx)
        body = stripped[open_idx:end_idx]
        for hit in ROW_BUILD_RE.finditer(body):
            line = line_of(stripped, open_idx + hit.start())
            if is_annotated(raw_lines, allowed, line):
                continue
            findings.append(Finding(
                path, line, "ENG009",
                "row build (TupleBuilder::ConcatRows/CopyColumns/Finish) "
                "inside NextBatch()/LoadBatched(); publish columns when the "
                "consumer reads only columns (Operator::OmitRows), or "
                f"annotate `// {ALLOW_ROW_BUILD}(<reason>)`"))
    return findings


# ---------------------------------------------------------------------------
# ENG007: perf_event_open / raw syscall() only under src/perf/
# ---------------------------------------------------------------------------

SYSCALL_RE = re.compile(r"\bperf_event_open\b|(?<![\w:])syscall\s*\(")


def check_syscall_containment(path: str, raw: str, stripped: str) -> list[Finding]:
    normalized = path.replace(os.sep, "/")
    if "/perf/" in normalized or normalized.startswith("perf/"):
        return []
    allowed = annotated_lines(raw, ALLOW_SYSCALL)
    raw_lines = raw.splitlines()
    findings: list[Finding] = []
    for m in SYSCALL_RE.finditer(stripped):
        line = line_of(stripped, m.start())
        if is_annotated(raw_lines, allowed, line):
            continue
        findings.append(Finding(
            path, line, "ENG007",
            "perf_event_open / raw syscall outside src/perf/; use "
            "perf::PerfCounterGroup so PMU degradation and fd lifetime stay "
            "centralized (or annotate `// LINT: allow-syscall(<reason>)`)"))
    return findings


# ---------------------------------------------------------------------------
# Driver
# ---------------------------------------------------------------------------

ALL_CHECKS = [
    check_hot_alloc,
    check_nodiscard,
    check_operator_contract,
    check_header_hygiene,
    check_thread_containment,
    check_scalar_eval,
    check_syscall_containment,
    check_row_decode,
    check_row_build,
]


def lint_file(path: Path, display: str) -> list[Finding]:
    try:
        raw = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as e:
        return [Finding(display, 1, "ENG000", f"unreadable: {e}")]
    stripped = strip_comments_and_strings(raw)
    findings: list[Finding] = []
    for check in ALL_CHECKS:
        findings.extend(check(display, raw, stripped))
    return findings


def collect_files(root: Path, paths: list[str]) -> list[Path]:
    if paths:
        candidates: list[Path] = []
        for p in paths:
            pp = (root / p) if not os.path.isabs(p) else Path(p)
            if pp.is_dir():
                candidates.extend(sorted(pp.rglob("*")))
            else:
                candidates.append(pp)
    else:
        candidates = sorted((root / "src").rglob("*"))
    return [p for p in candidates
            if p.is_file() and p.suffix in SOURCE_EXTS]


def run_lint(root: Path, paths: list[str]) -> list[Finding]:
    findings: list[Finding] = []
    for f in collect_files(root, paths):
        try:
            display = str(f.relative_to(root))
        except ValueError:
            display = str(f)
        findings.extend(lint_file(f, display))
    return findings


# ---------------------------------------------------------------------------
# Self-test: seed one violation per rule class, assert each is caught, then
# assert a clean translation unit produces no findings.
# ---------------------------------------------------------------------------

SEEDED_BAD = {
    "src/exec/bad_alloc.cc": (
        "ENG001",
        """\
#include "exec/bad_alloc.h"
namespace bufferdb {
const uint8_t* BadOp::Next() {
  rows_.push_back(nullptr);  // growth in the hot loop
  return nullptr;
}
}  // namespace bufferdb
""",
    ),
    "src/exec/bad_alloc_str.cc": (
        "ENG001",
        """\
namespace bufferdb {
size_t BadOp::NextBatch(const uint8_t** out, size_t max) {
  std::string label = "oops";
  (void)out; (void)max; (void)label;
  return 0;
}
}  // namespace bufferdb
""",
    ),
    "src/exec/bad_status.h": (
        "ENG002",
        """\
#pragma once
namespace bufferdb {
class Thing {
 public:
  Status DoWork(int x);
};
}  // namespace bufferdb
""",
    ),
    "src/exec/bad_contract.h": (
        "ENG003",
        """\
#pragma once
#include "exec/operator.h"
namespace bufferdb {
/// Supports Rescan replay of the materialized run.
class HalfOp : public Operator {
 public:
  [[nodiscard]] Status Open(ExecContext* ctx) override;
  const uint8_t* Next() override;
  // Close() missing, Rescan claimed but missing.
};
}  // namespace bufferdb
""",
    ),
    "src/exec/bad_guard.h": (
        "ENG004",
        """\
#ifndef BUFFERDB_EXEC_BAD_GUARD_H_
#define BUFFERDB_EXEC_BAD_GUARD_H_
using namespace std;
#endif  // BUFFERDB_EXEC_BAD_GUARD_H_
""",
    ),
    "src/exec/bad_thread.cc": (
        "ENG005",
        """\
#include <thread>
namespace bufferdb {
void Spawn() { std::thread t([] {}); t.join(); }
}  // namespace bufferdb
""",
    ),
    "src/exec/bad_syscall.cc": (
        "ENG007",
        """\
#include <sys/syscall.h>
#include <unistd.h>
namespace bufferdb {
long OpenCounter() {
  return syscall(__NR_perf_event_open, nullptr, 0, -1, -1, 0);
}
}  // namespace bufferdb
""",
    ),
    "src/exec/bad_scalar_eval.cc": (
        "ENG006",
        """\
#include "exec/bad_scalar_eval.h"
namespace bufferdb {
size_t BadOp::NextBatch(const uint8_t** out, size_t max) {
  size_t n = 0;
  for (size_t i = 0; i < max; ++i) {
    if (EvaluatePredicate(*predicate_, row_, schema_)) out[n++] = row_;
  }
  return n;
}
}  // namespace bufferdb
""",
    ),
    "src/exec/bad_select_rows.cc": (
        "ENG006",
        """\
#include "exec/bad_select_rows.h"
namespace bufferdb {
size_t BadOp::NextBatch(const uint8_t** out, size_t max) {
  size_t n = child(0)->NextBatch(out, max);
  SelectRows(*predicate_, out, n, schema_, &sel_);  // the interpreter
  return sel_.count;
}
}  // namespace bufferdb
""",
    ),
    "src/exec/bad_load_scalar_eval.cc": (
        "ENG006",
        """\
#include "exec/bad_agg.h"
namespace bufferdb {
void BadAgg::LoadBatched() {
  while (size_t n = child(0)->NextBatch(rows_, max_)) {
    for (size_t i = 0; i < n; ++i) {
      accs_[0].Update(func_, arg_->Evaluate(TupleView(rows_[i], schema_)));
    }
  }
}
}  // namespace bufferdb
""",
    ),
    "src/exec/bad_load_row_decode.cc": (
        "ENG008",
        """\
#include "exec/bad_agg.h"
namespace bufferdb {
void BadAgg::LoadBatched() {
  while (size_t n = child(0)->NextBatch(rows_, max_)) {
    RowBatchDecoder::Decode(rows_, n, *schema_, cols_, &vbatch_);
  }
}
}  // namespace bufferdb
""",
    ),
    "src/exec/bad_row_decode.cc": (
        "ENG008",
        """\
#include "exec/bad_row_decode.h"
namespace bufferdb {
size_t BadOp::NextBatch(const uint8_t** out, size_t max) {
  size_t n = child(0)->NextBatch(out, max);
  RowBatchDecoder::Decode(out, n, schema_, cols_, &vbatch_);
  return n;
}
}  // namespace bufferdb
""",
    ),
    "src/exec/bad_row_build.cc": (
        "ENG009",
        """\
#include "exec/bad_row_build.h"
namespace bufferdb {
size_t BadJoin::NextBatch(const uint8_t** out, size_t max) {
  size_t n = child(0)->NextBatch(in_, max);
  for (size_t i = 0; i < n; ++i) {
    out[i] = TupleBuilder::ConcatRows(schema_, left_, in_[i], right_,
                                      match_[i], &ctx_->arena, columns_);
  }
  return n;
}
}  // namespace bufferdb
""",
    ),
    "src/exec/bad_row_finish.cc": (
        "ENG009",
        """\
#include "exec/bad_row_finish.h"
namespace bufferdb {
size_t BadProject::NextBatch(const uint8_t** out, size_t max) {
  size_t n = child(0)->NextBatch(in_, max);
  for (size_t i = 0; i < n; ++i) out[i] = builder_.Finish(&ctx_->arena);
  return n;
}
}  // namespace bufferdb
""",
    ),
}

SEEDED_CLEAN = {
    "src/exec/good.h": """\
#pragma once
#include "exec/operator.h"
namespace bufferdb {
/// A well-behaved operator. Supports Rescan replay.
class GoodOp final : public Operator {
 public:
  [[nodiscard]] Status Open(ExecContext* ctx) override;
  const uint8_t* Next() override;
  void Close() override;
  [[nodiscard]] Status Rescan() override;
};
}  // namespace bufferdb
""",
    "src/exec/good.cc": """\
#include "exec/good.h"
namespace bufferdb {
const uint8_t* GoodOp::Next() {
  // A comment mentioning new and push_back must not trip the lint.
  const char* s = "string with new and malloc( inside";
  (void)s;
  scratch_.push_back(nullptr);  // LINT: allow-alloc(cold path, test fixture)
  return nullptr;
}
size_t GoodOp::NextBatch(const uint8_t** out, size_t max) {
  (void)out;
  // The annotated interpreter fallback must not trip ENG006.
  Value v = evaluator_->Evaluate(row_);  // LINT: allow-scalar-eval(fallback)
  (void)v;
  // LINT: allow-scalar-eval(fallback: predicate did not compile)
  SelectRows(*predicate_, out, max, schema_, &sel_);
  // DecodeMissing is the sanctioned batch decode: never trips ENG008.
  RowBatchDecoder::DecodeMissing(out, max, schema_, cols_, nullptr, &vbatch_);
  // LINT: allow-row-decode(leaf: gathered rows, no batch source)
  RowBatchDecoder::Decode(out, max, schema_, cols_, &vbatch_);
  return max != 0 ? 0 : 0;
}
void GoodOp::LoadBatched() {
  while (size_t n = child(0)->NextBatch(rows_, max_)) {
    // A batched load decodes through DecodeMissing, and its annotated
    // interpreter fallback must not trip ENG006.
    RowBatchDecoder::DecodeMissing(rows_, n, *schema_, cols_, nullptr, &vbatch_);
    // LINT: allow-scalar-eval(fallback: the argument did not compile)
    Value v = arg_->Evaluate(TupleView(rows_[0], schema_));
    (void)v;
  }
}
void GoodOp::Load() {
  // Evaluate in the tuple-at-a-time load is fine.
  while (const uint8_t* row = child(0)->Next()) (void)arg_->Evaluate(row);
}
const uint8_t* GoodOp::NextHelper() {
  // Evaluate outside NextBatch() (tuple-at-a-time path) is fine.
  return EvaluatePredicate(*pred_, row_, schema_) ? row_ : nullptr;
}
}  // namespace bufferdb
""",
    "src/exec/good_row_build.cc": """\
#include "exec/good_row_build.h"
namespace bufferdb {
size_t GoodJoin::NextBatch(const uint8_t** out, size_t max) {
  size_t n = child(0)->NextBatch(in_, max);
  for (size_t i = 0; i < n; ++i) {
    // LINT: allow-row-build(the consumer reads joined rows)
    out[i] = TupleBuilder::ConcatRows(schema_, left_, in_[i], right_,
                                      match_[i], &ctx_->arena, columns_);
    // LINT: allow-row-build(the interpreter fallback builds the row)
    out[i] = builder_.Finish(&ctx_->arena);
  }
  // A program's Finish(schema) is not a row build.
  (void)compiled_->Finish(schema_);
  return n;
}
const uint8_t* GoodJoin::Next() {
  // Row builds on the tuple path are fine.
  return TupleBuilder::ConcatRows(schema_, left_, l_, right_, r_, &ctx_->arena);
}
}  // namespace bufferdb
""",
    "src/perf/good_syscall.cc": """\
#include <sys/syscall.h>
#include <unistd.h>
namespace bufferdb::perf {
// ENG007: perf_event_open lives under src/perf/, so this is the one place
// a raw syscall is allowed without an annotation.
long OpenCounter() { return syscall(__NR_perf_event_open, nullptr, 0, -1, -1, 0); }
}  // namespace bufferdb::perf
""",
    "src/exec/good_legacy_alias.cc": """\
#include "exec/good.h"
namespace bufferdb {
// The deprecated annotation spellings (pre-unification) must keep
// suppressing: `engine-lint:`-prefixed and bare `allow-*` forms.
size_t GoodOp::NextBatch(const uint8_t** out, size_t max) {
  Value v = evaluator_->Evaluate(row_);  // allow-scalar-eval (fallback)
  (void)v;
  // engine-lint: allow-row-decode(leaf: gathered rows, no batch source)
  RowBatchDecoder::Decode(out, max, schema_, cols_, &vbatch_);
  return 0;
}
}  // namespace bufferdb
""",
    "src/exec/good_annotated_syscall.cc": """\
#include <unistd.h>
namespace bufferdb {
long ThreadId() {
  return syscall(186);  // LINT: allow-syscall(gettid for log correlation)
}
// A comment mentioning syscall( or perf_event_open must not trip ENG007.
}  // namespace bufferdb
""",
}


def self_test() -> int:
    failures: list[str] = []
    with tempfile.TemporaryDirectory(prefix="engine_lint_selftest_") as tmp:
        root = Path(tmp)
        for rel, payload in SEEDED_BAD.items():
            _, content = payload
            dest = root / rel
            dest.parent.mkdir(parents=True, exist_ok=True)
            dest.write_text(content, encoding="utf-8")
        for rel, content in SEEDED_CLEAN.items():
            dest = root / rel
            dest.parent.mkdir(parents=True, exist_ok=True)
            dest.write_text(content, encoding="utf-8")

        findings = run_lint(root, [])
        by_file: dict[str, set[str]] = {}
        for f in findings:
            by_file.setdefault(f.path.replace(os.sep, "/"), set()).add(f.rule)

        for rel, (expected_rule, _) in SEEDED_BAD.items():
            got = by_file.get(rel, set())
            if expected_rule not in got:
                failures.append(
                    f"seeded violation {rel} expected {expected_rule}, got {sorted(got)}")
        # The ENG003 seed must produce BOTH a missing-Close and a
        # missing-Rescan finding.
        contract = [f for f in findings if f.rule == "ENG003"]
        messages = " | ".join(f.message for f in contract)
        if "Close" not in messages or "Rescan" not in messages:
            failures.append(f"ENG003 seed missed Close/Rescan: {messages!r}")
        for rel in SEEDED_CLEAN:
            got = by_file.get(rel, set())
            if got:
                noise = [f.render() for f in findings if f.path.replace(os.sep, "/") == rel]
                failures.append(f"clean file {rel} produced findings: {noise}")

        # --format json: every finding round-trips with the exact keys the
        # CI problem matcher consumes.
        for f in findings:
            obj = json.loads(f.as_json())
            if obj != {"file": f.path, "line": f.line, "rule": f.rule,
                       "message": f.message}:
                failures.append(f"as_json round-trip mismatch: {obj}")
                break

    if failures:
        print("engine_lint self-test FAILED:", file=sys.stderr)
        for f in failures:
            print(f"  - {f}", file=sys.stderr)
        return 1
    print("engine_lint self-test passed "
          f"({len(SEEDED_BAD)} seeded violations caught, clean files quiet)")
    return 0


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--root", default=None,
                        help="repo root (default: parent of tools/)")
    parser.add_argument("--format", choices=("text", "json"), default="text",
                        help="finding output format: `text` (file:line: "
                             "[RULE] message) or `json` (one object per "
                             "line with file/line/rule/message keys, for "
                             "the CI problem matcher and tooling)")
    parser.add_argument("--self-test", action="store_true",
                        help="seed one violation per rule class and verify "
                             "each is detected")
    parser.add_argument("paths", nargs="*",
                        help="files or directories to lint (default: src/)")
    args = parser.parse_args(argv)

    if args.self_test:
        return self_test()

    root = Path(args.root) if args.root else Path(__file__).resolve().parent.parent
    if not root.is_dir():
        print(f"engine_lint: root {root} is not a directory", file=sys.stderr)
        return 2

    findings = run_lint(root, args.paths)
    for f in sorted(findings, key=lambda f: (f.path, f.line, f.rule)):
        print(f.as_json() if args.format == "json" else f.render())
    if findings:
        print(f"engine_lint: {len(findings)} finding(s)", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
