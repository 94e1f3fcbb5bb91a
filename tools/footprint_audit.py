#!/usr/bin/env python3
"""Instruction-footprint audit of the *real* engine binary.

The paper's argument rests on per-operator instruction footprints (Table 2),
measured by walking call graphs and counting shared functions only once
(§6.1). `src/sim/code_layout.cc` hand-calibrates a synthetic binary to those
numbers; this tool applies the same methodology to the build artifacts the
engine actually ships, so an inlining or template-bloat regression that blows
the L1i working set fails CI instead of silently eroding the project's whole
premise.

Pipeline (stdlib only, like engine_lint.py):

  1. `nm --print-size --defined-only -C` gives every .text symbol and size.
  2. `objdump -drC` gives the static call graph: direct `call`/tail-`jmp`
     operands (via `<symbol>` annotations in linked binaries, relocation
     records in archives) plus an indirect-call heuristic: any function
     containing an indirect `call *`/`jmp *` gains edges to every override
     of the Operator virtual slots (Open/Next/NextBatch/Close/Rescan) — the
     vtable dispatch a linker-level call graph cannot see.
  3. A checked-in manifest (tools/footprint_modules.json) maps demangled
     symbol patterns to the paper's operator modules, using exactly the
     names `sim::ModuleName` emits (drift between the two is a failure).
  4. Per module, the reachable .text closure is computed from its root
     symbols. Traversal stops at symbols owned by a *different* module
     (that code is the other module's footprint, per the paper's per-module
     accounting); unowned helpers (executor glue, libstdc++) are included.
     Two totals are reported per §6.1:
       - shared-once: every reachable symbol counted once;
       - exclusive:   only symbols no other module also reaches.
  5. Budgets (tools/footprint_budgets.json) gate the shared-once totals;
     an overrun exits 1 with a markdown diff report.
  6. The static-over-dynamic overestimate is reported by diffing the
     reachable sets against the hot-symbol patterns (the dynamic profile's
     proxy): §6.1 notes static reachability overestimates what dynamic
     profiling observes.

The audit also closes the loop into the simulator: `--emit-calibration`
writes per-module measured footprints in the format
`sim::CodeLayout::LoadCalibration` consumes, so `--calibration=FILE` bench
runs drive the simulator with the audited layout, and validate_sim.py
cross-checks simulated vs. audited footprints.

Usage:
  footprint_audit.py --binary build/src/libbufferdb.a [--binary ...]
                     [--manifest tools/footprint_modules.json]
                     [--budgets tools/footprint_budgets.json]
                     [--code-layout src/sim/code_layout.cc]
                     [--report report.md] [--json report.json]
                     [--emit-calibration calibration.txt]
  footprint_audit.py --self-test

Exit status: 0 clean, 1 findings (budget overrun, unmapped hot symbol,
module-name drift), 2 usage/tool error.
"""

from __future__ import annotations

import argparse
import json
import re
import subprocess
import sys
import tempfile
from dataclasses import dataclass, field
from pathlib import Path

CACHE_LINE = 64

# nm: "addr size type name"; code symbols only (t/T/w/W).
NM_LINE_RE = re.compile(
    r"^([0-9a-fA-F]+)\s+([0-9a-fA-F]+)\s+([tTwW])\s+(.+?)\s*$")

# objdump: "0000000000001234 <demangled name>:" opens a function body.
FUNC_HEADER_RE = re.compile(r"^[0-9a-fA-F]+\s+<(.+)>:\s*$")

# Direct call / tail jump with a resolved symbol annotation:
#   "call   4005d0 <bufferdb::SeqScanOperator::Next()>"
#   "jmp    4010a0 <foo+0x40>"   (offset form: branch or tail call)
DIRECT_CALL_RE = re.compile(
    r"\b(?:call|jmp)[a-z]?\s+(?:0x)?[0-9a-fA-F]+\s+<([^>]+)>")

# Relocation record naming the call target (archives / object files):
#   "  5e: R_X86_64_PLT32  operator new[](unsigned long)-0x4"
RELOC_RE = re.compile(
    r"^\s*[0-9a-fA-F]+:\s+R_X86_64_(?:PLT32|PC32|GOTPCREL(?:X)?)\s+(.+?)\s*$")

# Indirect call/jump through a register or memory slot ("call *%rax").
INDIRECT_RE = re.compile(r"\b(?:call|jmp)[a-z]?\s+\*")

# PLT-resolved indirect jump comment: "# c4000 <memset@GLIBC_2.2.5>".
PLT_COMMENT_RE = re.compile(r"#\s*[0-9a-fA-F]+\s+<([^>]+)>")

# ModuleName() literals in src/sim/code_layout.cc: the canonical module-name
# set the manifest and budgets must match exactly.
MODULE_NAME_FUNC_RE = re.compile(
    r"const\s+char\*\s+ModuleName\s*\([^)]*\)\s*\{(.*?)\n\}", re.S)
RETURN_LITERAL_RE = re.compile(r'return\s+"([^"]+)"')


def normalize_symbol(name: str) -> str:
    """Canonical symbol identity: strip @VERSION and @plt decorations."""
    return re.sub(r"@[\w.]+$", "", name.strip())


@dataclass
class Binary:
    """Parsed symbol table + static call graph of one build artifact."""
    path: str
    sizes: dict[str, int] = field(default_factory=dict)
    calls: dict[str, set[str]] = field(default_factory=dict)
    indirect_sites: dict[str, int] = field(default_factory=dict)


def parse_nm(text: str, binary: Binary) -> None:
    for line in text.splitlines():
        m = NM_LINE_RE.match(line)
        if not m:
            continue
        size = int(m.group(2), 16)
        name = normalize_symbol(m.group(4))
        if size <= 0:
            continue
        # Weak/template symbols can appear in several archive members;
        # the linker keeps one, so take the largest observed size once.
        binary.sizes[name] = max(binary.sizes.get(name, 0), size)


def parse_objdump(text: str, binary: Binary) -> None:
    current: str | None = None
    # A direct call's annotated target, held back one line: in an object
    # file a relocated call shows its placeholder operand (the next
    # instruction's address, possibly the next symbol), and the relocation
    # record on the following line names the real target.
    pending: tuple[str, str] | None = None

    def add_call(caller: str, target: str) -> None:
        if target and target != caller:
            binary.calls.setdefault(caller, set()).add(target)

    for line in text.splitlines():
        reloc = RELOC_RE.match(line) if current is not None else None
        if pending is not None and reloc is None:
            add_call(*pending)
        pending = None
        header = FUNC_HEADER_RE.match(line)
        if header:
            current = normalize_symbol(header.group(1))
            continue
        if current is None:
            continue
        if reloc:
            add_call(current, normalize_symbol(
                re.sub(r"[+-]0x[0-9a-fA-F]+$", "", reloc.group(1))))
            continue
        hit = DIRECT_CALL_RE.search(line)
        if hit:
            pending = (current, normalize_symbol(
                re.sub(r"\+0x[0-9a-fA-F]+$", "", hit.group(1))))
            continue
        if INDIRECT_RE.search(line):
            plt = PLT_COMMENT_RE.search(line)
            if plt:
                # PLT trampoline with a resolved target: a direct call in
                # disguise, not a vtable dispatch.
                target = normalize_symbol(plt.group(1))
                if target and target != current:
                    binary.calls.setdefault(current, set()).add(target)
            else:
                binary.indirect_sites[current] = (
                    binary.indirect_sites.get(current, 0) + 1)
    if pending is not None:
        add_call(*pending)


def run_tool(cmd: list[str]) -> str:
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, check=True)
    except FileNotFoundError:
        raise SystemExit(f"footprint_audit: tool not found: {cmd[0]}")
    except subprocess.CalledProcessError as exc:
        raise SystemExit(
            f"footprint_audit: {' '.join(cmd)} failed: {exc.stderr.strip()}")
    return proc.stdout


def load_binary(path: str, nm_cmd: str, objdump_cmd: str) -> Binary:
    binary = Binary(path=path)
    parse_nm(run_tool([nm_cmd, "--print-size", "--defined-only", "-C", path]),
             binary)
    parse_objdump(run_tool([objdump_cmd, "-drC", path]), binary)
    return binary


def merge_binaries(binaries: list[Binary]) -> Binary:
    merged = Binary(path=" + ".join(b.path for b in binaries))
    for b in binaries:
        for name, size in b.sizes.items():
            merged.sizes[name] = max(merged.sizes.get(name, 0), size)
        for name, targets in b.calls.items():
            merged.calls.setdefault(name, set()).update(targets)
        for name, count in b.indirect_sites.items():
            merged.indirect_sites[name] = (
                merged.indirect_sites.get(name, 0) + count)
    return merged


# ---------------------------------------------------------------------------
# Module attribution
# ---------------------------------------------------------------------------


@dataclass
class Manifest:
    modules: dict[str, list[re.Pattern]]       # name -> symbol patterns
    operator_class: re.Pattern                 # Operator subclass symbols
    virtual_slots: list[str]                   # Open/Next/... slot names
    hot_patterns: list[re.Pattern]             # dynamic-profile proxy


def load_manifest(path: Path) -> Manifest:
    try:
        raw = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise SystemExit(f"footprint_audit: cannot read manifest {path}: {exc}")
    try:
        modules = {name: [re.compile(p) for p in spec["patterns"]]
                   for name, spec in raw["modules"].items()}
        return Manifest(
            modules=modules,
            operator_class=re.compile(raw["operator_class_pattern"]),
            virtual_slots=list(raw["virtual_slots"]),
            hot_patterns=[re.compile(p) for p in raw["hot_patterns"]])
    except (KeyError, re.error) as exc:
        raise SystemExit(f"footprint_audit: malformed manifest {path}: {exc}")


def owner_of(symbol: str, manifest: Manifest) -> str | None:
    """First module (manifest order) whose pattern matches; None = shared."""
    for module, patterns in manifest.modules.items():
        for pattern in patterns:
            if pattern.search(symbol):
                return module
    return None


def virtual_overrides(binary: Binary, manifest: Manifest) -> set[str]:
    """Symbols implementing an Operator virtual slot (vtable targets)."""
    overrides = set()
    slot_re = re.compile(
        r"::(?:%s)\(" % "|".join(re.escape(s) for s in manifest.virtual_slots))
    for name in binary.sizes:
        if manifest.operator_class.search(name) and slot_re.search(name):
            overrides.add(name)
    return overrides


@dataclass
class ModuleFootprint:
    name: str
    roots: set[str] = field(default_factory=set)
    reachable: set[str] = field(default_factory=set)   # roots + shared code
    shared_once_bytes: int = 0
    exclusive_bytes: int = 0
    hot_bytes: int = 0

    @property
    def cache_lines(self) -> int:
        return (self.shared_once_bytes + CACHE_LINE - 1) // CACHE_LINE


def analyze(binary: Binary, manifest: Manifest) -> dict[str, ModuleFootprint]:
    owners = {name: owner_of(name, manifest) for name in binary.sizes}
    overrides = virtual_overrides(binary, manifest)

    def successors(symbol: str) -> set[str]:
        targets = set(binary.calls.get(symbol, ()))
        if binary.indirect_sites.get(symbol):
            # Vtable-slot heuristic: an indirect call site may dispatch to
            # any Operator virtual override. The module-boundary cut below
            # keeps foreign operators out of this module's footprint.
            targets |= overrides
        return targets

    footprints: dict[str, ModuleFootprint] = {}
    for module in manifest.modules:
        fp = ModuleFootprint(name=module)
        fp.roots = {s for s, o in owners.items() if o == module}
        # BFS; descend through own and unowned symbols, stop at (and do not
        # count) symbols owned by a different module.
        stack = sorted(fp.roots)
        seen = set(stack)
        while stack:
            sym = stack.pop()
            fp.reachable.add(sym)
            for target in successors(sym):
                if target in seen or target not in binary.sizes:
                    continue
                seen.add(target)
                if owners.get(target) not in (None, module):
                    continue  # a different operator module's code
                stack.append(target)
        fp.shared_once_bytes = sum(binary.sizes[s] for s in fp.reachable)
        fp.hot_bytes = sum(
            binary.sizes[s] for s in fp.reachable
            if any(p.search(s) for p in manifest.hot_patterns))
        footprints[module] = fp

    reach_count: dict[str, int] = {}
    for fp in footprints.values():
        for sym in fp.reachable:
            reach_count[sym] = reach_count.get(sym, 0) + 1
    for fp in footprints.values():
        fp.exclusive_bytes = sum(
            binary.sizes[s] for s in fp.reachable if reach_count[s] == 1)
    return footprints


def unmapped_hot_symbols(binary: Binary, manifest: Manifest) -> list[str]:
    """Operator-virtual symbols no manifest rule attributes to a module.

    These are exactly the symbols a new (or renamed) operator contributes:
    hot by construction, but invisible to the per-module budgets until the
    manifest learns about them — so their existence fails the audit.
    """
    overrides = virtual_overrides(binary, manifest)
    return sorted(s for s in overrides if owner_of(s, manifest) is None)


def module_names_from_code_layout(path: Path) -> set[str]:
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise SystemExit(f"footprint_audit: cannot read {path}: {exc}")
    m = MODULE_NAME_FUNC_RE.search(text)
    if not m:
        raise SystemExit(
            f"footprint_audit: no ModuleName() definition found in {path}")
    names = set(RETURN_LITERAL_RE.findall(m.group(1)))
    names.discard("Unknown")
    if not names:
        raise SystemExit(
            f"footprint_audit: ModuleName() in {path} returned no literals")
    return names


# ---------------------------------------------------------------------------
# Gates + reports
# ---------------------------------------------------------------------------


@dataclass
class AuditResult:
    footprints: dict[str, ModuleFootprint]
    budgets: dict[str, int]
    failures: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures


def apply_gates(binary: Binary, manifest: Manifest,
                footprints: dict[str, ModuleFootprint],
                budgets: dict[str, int],
                sim_module_names: set[str] | None) -> AuditResult:
    result = AuditResult(footprints=footprints, budgets=budgets)

    if sim_module_names is not None:
        manifest_names = set(manifest.modules)
        for missing in sorted(sim_module_names - manifest_names):
            result.failures.append(
                f"module-name drift: sim::ModuleName emits {missing!r} but "
                f"the manifest has no such module")
        for extra in sorted(manifest_names - sim_module_names):
            result.failures.append(
                f"module-name drift: manifest module {extra!r} is unknown "
                f"to sim::ModuleName")

    for missing in sorted(set(manifest.modules) - set(budgets)):
        result.failures.append(
            f"budget missing: module {missing!r} has no entry in the "
            f"budgets file")
    for extra in sorted(set(budgets) - set(manifest.modules)):
        result.failures.append(
            f"budget drift: budgets file names unknown module {extra!r}")

    for module, fp in footprints.items():
        budget = budgets.get(module)
        if budget is not None and fp.shared_once_bytes > budget:
            result.failures.append(
                f"budget overrun: {module} reachable footprint "
                f"{fp.shared_once_bytes} bytes exceeds budget {budget} "
                f"(+{fp.shared_once_bytes - budget})")

    for symbol in unmapped_hot_symbols(binary, manifest):
        result.failures.append(
            f"unmapped hot symbol: {symbol} implements an Operator virtual "
            f"but no manifest pattern attributes it to a module")
    return result


def markdown_report(binary: Binary, result: AuditResult) -> str:
    lines = ["# Instruction-footprint audit", "",
             f"Artifacts: `{binary.path}`", "",
             f"Symbols: {len(binary.sizes)}   "
             f".text bytes: {sum(binary.sizes.values())}", "",
             "| module | budget (B) | shared-once (B) | headroom | "
             "64B lines | exclusive (B) | hot (B) | static/hot |",
             "|---|---|---|---|---|---|---|---|"]
    for module, fp in sorted(result.footprints.items(),
                             key=lambda kv: -kv[1].shared_once_bytes):
        budget = result.budgets.get(module)
        if budget:
            headroom = f"{(budget - fp.shared_once_bytes) / budget:+.0%}"
            if fp.shared_once_bytes > budget:
                headroom = f"**OVERRUN {headroom}**"
        else:
            headroom = "n/a"
        ratio = (f"{fp.shared_once_bytes / fp.hot_bytes:.1f}x"
                 if fp.hot_bytes else "n/a")
        lines.append(
            f"| {module} | {budget if budget else '—'} | "
            f"{fp.shared_once_bytes} | {headroom} | {fp.cache_lines} | "
            f"{fp.exclusive_bytes} | {fp.hot_bytes} | {ratio} |")
    lines.append("")
    lines.append("`shared-once`: reachable .text, each symbol counted once "
                 "(§6.1). `exclusive`: reachable from this module only. "
                 "`hot`: reachable symbols matching the dynamic-profile "
                 "proxy patterns; `static/hot` is the §6.1 static-over-"
                 "dynamic overestimate.")
    lines.append("")
    if result.failures:
        lines.append("## Failures")
        lines.append("")
        for failure in result.failures:
            lines.append(f"- {failure}")
    else:
        lines.append("All modules within budget; no unmapped hot symbols.")
    lines.append("")
    return "\n".join(lines)


def json_report(binary: Binary, result: AuditResult) -> dict:
    return {
        "tool": "footprint_audit",
        "binary": binary.path,
        "text_bytes": sum(binary.sizes.values()),
        "symbols": len(binary.sizes),
        "modules": {
            module: {
                "shared_once_bytes": fp.shared_once_bytes,
                "exclusive_bytes": fp.exclusive_bytes,
                "cache_lines": fp.cache_lines,
                "hot_bytes": fp.hot_bytes,
                "root_symbols": len(fp.roots),
                "reachable_symbols": len(fp.reachable),
                "budget_bytes": result.budgets.get(module),
            }
            for module, fp in sorted(result.footprints.items())
        },
        "failures": result.failures,
    }


def calibration_text(result: AuditResult) -> str:
    lines = ["# bufferdb code-layout calibration",
             "# generated by tools/footprint_audit.py from the audited "
             "binary; load with",
             "# sim::CodeLayout::LoadCalibration (bench flag "
             "--calibration=<this file>)."]
    for module, fp in sorted(result.footprints.items()):
        if fp.shared_once_bytes > 0:
            lines.append(f"module {module} {fp.shared_once_bytes}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Self-test: synthetic nm/objdump fixtures, one per failure class
# ---------------------------------------------------------------------------

FIXTURE_MANIFEST = {
    "modules": {
        "Scan": {"patterns": [r"bufferdb::SeqScanOperator::"]},
        "Sort": {"patterns": [r"bufferdb::SortOperator::"]},
    },
    "operator_class_pattern": r"bufferdb::\w+Operator::",
    "virtual_slots": ["Open", "Next", "NextBatch", "Close", "Rescan"],
    "hot_patterns": [r"Operator::Next"],
}

FIXTURE_CODE_LAYOUT = """\
const char* ModuleName(ModuleId module) {
  switch (module) {
    case ModuleId::kSeqScan:
      return "Scan";
    case ModuleId::kSort:
      return "Sort";
    case ModuleId::kNumModules:
      break;
  }
  return "Unknown";
}
"""


def _nm_line(addr: int, size: int, kind: str, name: str) -> str:
    return f"{addr:016x} {size:016x} {kind} {name}"


def _fixture_binary() -> Binary:
    """Hand-built nm/objdump texts exercising every parser path.

    Call graph:
      Scan::Next  --direct-->  helper_shared --tail-jmp--> leaf_shared
      Sort::Next  --direct-->  helper_shared
      Sort::Next  --direct-->  Scan::Next          (cut: foreign module)
      dispatch    --indirect-> {Scan::Next, Sort::Next}  (vtable heuristic)
      Scan::Open  --reloc--->  helper_reloc        (archive-style record)
    Scan::Open's last call is relocated too; its placeholder operand names
    the next symbol (Sort::Next), which must not become an edge.
    """
    nm_text = "\n".join([
        _nm_line(0x1000, 0x400, "T", "bufferdb::SeqScanOperator::Next()"),
        _nm_line(0x1400, 0x200, "T", "bufferdb::SeqScanOperator::Open()"),
        _nm_line(0x1600, 0x300, "T", "bufferdb::SortOperator::Next()"),
        _nm_line(0x1900, 0x100, "t", "helper_shared()"),
        _nm_line(0x1a00, 0x80, "t", "leaf_shared()"),
        _nm_line(0x1a80, 0x40, "W", "helper_reloc()"),
        _nm_line(0x1b00, 0x150, "T", "bufferdb::ExecutePlan()"),
        _nm_line(0x2000, 0x999, "T", "unrelated_cold()"),
    ])
    objdump_text = "\n".join([
        "0000000000001000 <bufferdb::SeqScanOperator::Next()>:",
        "    1000:\te8 00 00 00 00\tcall   1900 <helper_shared()>",
        "    1005:\t74 10          \tje     1015 "
        "<bufferdb::SeqScanOperator::Next()+0x15>",
        "0000000000001400 <bufferdb::SeqScanOperator::Open()>:",
        "    1400:\te8 00 00 00 00\tcall   1405 "
        "<bufferdb::SeqScanOperator::Open()+0x5>",
        "\t\t\t1401: R_X86_64_PLT32\thelper_reloc()-0x4",
        "    15fb:\te8 00 00 00 00\tcall   1600 "
        "<bufferdb::SortOperator::Next()>",
        "\t\t\t15fc: R_X86_64_PLT32\t_Unwind_Resume-0x4",
        "0000000000001600 <bufferdb::SortOperator::Next()>:",
        "    1600:\te8 00 00 00 00\tcall   1900 <helper_shared()>",
        "    1605:\te8 00 00 00 00\tcall   1000 "
        "<bufferdb::SeqScanOperator::Next()>",
        "0000000000001900 <helper_shared()>:",
        "    1900:\teb 00          \tjmp    1a00 <leaf_shared()>",
        "0000000000001a00 <leaf_shared()>:",
        "    1a00:\tc3             \tret",
        "0000000000001b00 <bufferdb::ExecutePlan()>:",
        "    1b00:\tff d0          \tcall   *%rax",
        "0000000000002000 <unrelated_cold()>:",
        "    2000:\tc3             \tret",
    ])
    binary = Binary(path="<fixture>")
    parse_nm(nm_text, binary)
    parse_objdump(objdump_text, binary)
    return binary


def self_test() -> int:
    failures: list[str] = []

    def check(cond: bool, what: str) -> None:
        if not cond:
            failures.append(what)

    with tempfile.TemporaryDirectory(prefix="footprint_audit_selftest_") as tmp:
        root = Path(tmp)
        manifest_path = root / "footprint_modules.json"
        manifest_path.write_text(json.dumps(FIXTURE_MANIFEST))
        manifest = load_manifest(manifest_path)
        layout_path = root / "code_layout.cc"
        layout_path.write_text(FIXTURE_CODE_LAYOUT)

        binary = _fixture_binary()
        check(binary.sizes["bufferdb::SeqScanOperator::Next()"] == 0x400,
              "nm parse: symbol size")
        check("helper_reloc()" in
              binary.calls["bufferdb::SeqScanOperator::Open()"],
              "objdump parse: relocation-record call target")
        check("bufferdb::SortOperator::Next()" not in
              binary.calls["bufferdb::SeqScanOperator::Open()"],
              "objdump parse: a relocated call's placeholder operand")
        check("leaf_shared()" in binary.calls["helper_shared()"],
              "objdump parse: tail-jmp edge")
        check(binary.indirect_sites.get("bufferdb::ExecutePlan()") == 1,
              "objdump parse: indirect call site")

        footprints = analyze(binary, manifest)
        scan, sort = footprints["Scan"], footprints["Sort"]
        # Scan: Next(0x400) + Open(0x200) + helper_shared(0x100) +
        # leaf_shared(0x80) + helper_reloc(0x40); shared helpers counted once.
        check(scan.shared_once_bytes == 0x400 + 0x200 + 0x100 + 0x80 + 0x40,
              f"shared-once accounting (got {scan.shared_once_bytes:#x})")
        # Sort reaches helper/leaf too but NOT Scan's code (module cut).
        check(sort.shared_once_bytes == 0x300 + 0x100 + 0x80,
              f"module-boundary cut (got {sort.shared_once_bytes:#x})")
        # Exclusive drops the helpers both modules reach.
        check(scan.exclusive_bytes == 0x400 + 0x200 + 0x40,
              f"exclusive accounting (got {scan.exclusive_bytes:#x})")
        check(sort.exclusive_bytes == 0x300, "sort exclusive accounting")
        check(scan.hot_bytes == 0x400, "hot-pattern accounting")
        check("unrelated_cold()" not in scan.reachable | sort.reachable,
              "unreachable code stays unattributed")

        # Clean gates: budgets with headroom, matching module names.
        sim_names = module_names_from_code_layout(layout_path)
        check(sim_names == {"Scan", "Sort"}, "ModuleName literal extraction")
        good_budgets = {"Scan": 0x1000, "Sort": 0x1000}
        clean = apply_gates(binary, manifest, footprints, good_budgets,
                            sim_names)
        check(clean.ok, f"clean fixture produced failures: {clean.failures}")

        # Failure class 1: budget overrun.
        overrun = apply_gates(binary, manifest, footprints,
                              {"Scan": 0x100, "Sort": 0x1000}, sim_names)
        check(any("budget overrun: Scan" in f for f in overrun.failures),
              "budget overrun not detected")

        # Failure class 2: unmapped hot symbol (new operator, no manifest
        # rule). TopNOperator::Next appears in the binary but no pattern
        # claims it.
        binary2 = _fixture_binary()
        parse_nm(_nm_line(0x3000, 0x123, "T",
                          "bufferdb::TopNOperator::Next()"), binary2)
        fp2 = analyze(binary2, manifest)
        unmapped = apply_gates(binary2, manifest, fp2, good_budgets, sim_names)
        check(any("unmapped hot symbol" in f and "TopNOperator" in f
                  for f in unmapped.failures),
              "unmapped hot symbol not detected")

        # Failure class 3: manifest/module-name drift, both directions.
        drift = apply_gates(binary, manifest, footprints, good_budgets,
                            {"Scan", "Sort", "MergeJoin"})
        check(any("drift" in f and "MergeJoin" in f for f in drift.failures),
              "sim-name drift (missing manifest module) not detected")
        drift2 = apply_gates(binary, manifest, footprints, good_budgets,
                             {"Scan"})
        check(any("drift" in f and "Sort" in f for f in drift2.failures),
              "manifest-name drift (unknown module) not detected")

        # Failure class 4: budget file missing a module.
        missing = apply_gates(binary, manifest, footprints, {"Scan": 0x1000},
                              sim_names)
        check(any("budget missing" in f and "Sort" in f
                  for f in missing.failures),
              "missing budget entry not detected")

        # Reports and calibration round-trip through the real formats.
        md = markdown_report(binary, overrun)
        check("OVERRUN" in md and "| Scan |" in md, "markdown report content")
        js = json_report(binary, clean)
        check(js["modules"]["Scan"]["shared_once_bytes"] ==
              scan.shared_once_bytes, "json report content")
        calib = calibration_text(clean)
        check(f"module Scan {scan.shared_once_bytes}" in calib,
              "calibration emission")
        check(module_names_from_code_layout(
            Path(__file__).resolve().parent.parent /
            "src" / "sim" / "code_layout.cc") >= {"Scan", "Buffer", "TopN"},
            "real code_layout.cc module-name extraction")

    if failures:
        print("footprint_audit self-test FAILED:", file=sys.stderr)
        for f in failures:
            print(f"  - {f}", file=sys.stderr)
        return 1
    print("footprint_audit self-test passed "
          "(parsers, shared-once/exclusive accounting, module cut, and all "
          "gate failure classes verified)")
    return 0


# ---------------------------------------------------------------------------
# Driver
# ---------------------------------------------------------------------------


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    root_default = Path(__file__).resolve().parent.parent
    parser.add_argument("--binary", action="append", default=[],
                        help="build artifact to audit (.a archive or linked "
                             "binary); repeatable, results are merged")
    parser.add_argument("--manifest",
                        default=str(root_default / "tools" /
                                    "footprint_modules.json"))
    parser.add_argument("--budgets",
                        default=str(root_default / "tools" /
                                    "footprint_budgets.json"))
    parser.add_argument("--code-layout",
                        default=str(root_default / "src" / "sim" /
                                    "code_layout.cc"),
                        help="source file whose ModuleName() literals are "
                             "the canonical module-name set ('' to skip)")
    parser.add_argument("--report", help="write a markdown report here")
    parser.add_argument("--json", help="write a JSON report here")
    parser.add_argument("--emit-calibration",
                        help="write measured footprints in the "
                             "CodeLayout::LoadCalibration format")
    parser.add_argument("--nm-cmd", default="nm")
    parser.add_argument("--objdump-cmd", default="objdump")
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args(argv)

    if args.self_test:
        return self_test()
    if not args.binary:
        parser.error("at least one --binary is required (or --self-test)")

    manifest = load_manifest(Path(args.manifest))
    try:
        budgets_raw = json.loads(Path(args.budgets).read_text(
            encoding="utf-8"))
        budgets = {name: int(spec["budget_bytes"])
                   for name, spec in budgets_raw["budgets"].items()}
    except (OSError, json.JSONDecodeError, KeyError, TypeError,
            ValueError) as exc:
        print(f"footprint_audit: cannot read budgets {args.budgets}: {exc}",
              file=sys.stderr)
        return 2

    sim_names = (module_names_from_code_layout(Path(args.code_layout))
                 if args.code_layout else None)

    binaries = [load_binary(p, args.nm_cmd, args.objdump_cmd)
                for p in args.binary]
    binary = merge_binaries(binaries)
    if not binary.sizes:
        print(f"footprint_audit: no code symbols found in {binary.path}",
              file=sys.stderr)
        return 2

    footprints = analyze(binary, manifest)
    result = apply_gates(binary, manifest, footprints, budgets, sim_names)

    if args.report:
        Path(args.report).write_text(markdown_report(binary, result),
                                     encoding="utf-8")
    if args.json:
        Path(args.json).write_text(
            json.dumps(json_report(binary, result), indent=2) + "\n",
            encoding="utf-8")
    if args.emit_calibration:
        Path(args.emit_calibration).write_text(calibration_text(result),
                                               encoding="utf-8")

    for module, fp in sorted(result.footprints.items(),
                             key=lambda kv: -kv[1].shared_once_bytes):
        budget = result.budgets.get(module, 0)
        print(f"footprint_audit: {module:20s} shared-once "
              f"{fp.shared_once_bytes:8d} B ({fp.cache_lines:5d} lines)  "
              f"exclusive {fp.exclusive_bytes:8d} B  budget {budget:8d} B")
    for failure in result.failures:
        print(f"footprint_audit: FAIL: {failure}", file=sys.stderr)
    if result.failures:
        print(f"footprint_audit: {len(result.failures)} failure(s)",
              file=sys.stderr)
        return 1
    print("footprint_audit: PASS "
          f"({len(result.footprints)} modules within budget)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
