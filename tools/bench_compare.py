#!/usr/bin/env python3
"""Benchmark regression gate: compare bench JSON output against baselines.

Every bench in this repo writes JSON lines to stdout (enforced by
`--json-strict`).  CI archives one `<bench>.jsonl` per bench and this script
compares it against the checked-in `bench/baselines/<bench>.jsonl`, flattening
nested objects to dotted metric paths (`original.sim.l1i_misses`) and judging
each metric against a policy table:

  simulated counters   deterministic at a fixed scale factor; a change means
                       the engine's instruction/cache behavior changed.
                       Lower is better; regression when current exceeds
                       baseline by more than --tolerance (default 15%).
  time metrics         (seconds / wall_ns / ns_per_row) noisy on shared CI
                       runners; gated at --time-tolerance (default 60%) so
                       only order-of-magnitude regressions trip the gate,
                       while the deterministic counters catch real ones.
  speedups/reductions  higher is better; percentage-point metrics use an
                       absolute slack so near-zero baselines don't explode.
  hw_* counters        real PMU counters; compared only when BOTH runs report
                       "hw_available": true, silently skipped otherwise
                       (containers and locked-down runners have no PMU).
  identity fields      (config names, row counts, iteration counts, flags)
                       must match exactly -- a mismatch means the baseline is
                       stale and must be regenerated, not compared.

Records are matched positionally within each file and their identity fields
cross-checked.  Anything not covered by a policy is recorded in the report
but never gated.

Usage:
  bench_compare.py --baseline bench/baselines --current out/ [--report diff.md]
  bench_compare.py --baseline base.jsonl --current cur.jsonl
  bench_compare.py --self-test
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys

# Fields that identify a record rather than measure it: must be equal.
IDENTITY_FIELDS = {
    "bench", "config", "query", "comparison", "predicate", "scale_factor",
    "smoke", "hw", "rows", "sim_rows", "key_range", "batch_width",
    "batch_size", "buffer_size", "sim_buffer_size", "iters", "keep_fraction",
    "buffers_added", "groups_out", "selected", "outputs_identical",
    "decode_rows_out", "string_rows_out", "rows_out", "series",
}

# (regex on the dotted metric path, direction, kind)
#   direction: "lower" | "higher"
#   kind: "rel"  -- relative tolerance, "abs_pct" -- percentage-point slack,
#         "time" -- relative, but against the (looser) time tolerance.
POLICIES = [
    (re.compile(r"(^|\.)sim\.(instructions|module_calls|l1i_misses|"
                r"l1d_misses|l2_misses|l2_i_misses|itlb_misses|mispredicts|"
                r"l1i_accesses|l1d_accesses|l2_accesses|itlb_accesses|"
                r"branches)$"), "lower", "rel"),
    (re.compile(r"^sim_(orig|buf|tuple|batch|row|col)_"
                r"(l1i|itlb|mispredicts|instructions|l1i_misses|"
                r"l1i_accesses)"), "lower", "rel"),
    (re.compile(r"reduction_pct$|improvement_pct$"), "higher", "abs_pct"),
    # Speedups are ratios of same-machine times: cross-runner comparable,
    # but still wall-clock noisy -- gated at >= 30% regardless of --tolerance.
    (re.compile(r"(^|\.)speedup"), "higher", "ratio"),
    (re.compile(r"seconds$|wall_ns$|ns_per_row$"), "lower", "time"),
    (re.compile(r"(^|\.)hw(\.|_)"), "lower", "hw"),
]

ABS_PCT_SLACK = 10.0  # percentage points a *_pct metric may drop.


def flatten(obj, prefix=""):
    out = {}
    for key, val in obj.items():
        path = f"{prefix}{key}"
        if isinstance(val, dict):
            out.update(flatten(val, path + "."))
        else:
            out[path] = val
    return out


def load_jsonl(path):
    records = []
    with open(path, encoding="utf-8") as f:
        for line in f:
            line = line.strip()
            if line:
                records.append(json.loads(line))
    return records


def policy_for(path):
    leaf = path.rsplit(".", 1)[-1]
    for rx, direction, kind in POLICIES:
        if rx.search(path) or rx.search(leaf):
            return direction, kind
    return None


class Comparison:
    def __init__(self, tolerance, time_tolerance):
        self.tolerance = tolerance
        self.time_tolerance = time_tolerance
        self.lines = []       # report rows
        self.regressions = []
        self.skipped_hw = 0

    def check_metric(self, where, path, base, cur, hw_ok):
        pol = policy_for(path)
        if isinstance(base, bool) or not isinstance(base, (int, float)):
            return
        if pol is None:
            self.lines.append((where, path, base, cur, "info"))
            return
        direction, kind = pol
        if kind == "hw":
            if not hw_ok:
                self.skipped_hw += 1
                return
            kind = "time" if path.endswith("wall_ns") else "rel"
        if kind == "abs_pct":
            regressed = cur < base - ABS_PCT_SLACK
            status = "REGRESSED" if regressed else "ok"
        else:
            if kind == "time":
                tol = self.time_tolerance
            elif kind == "ratio":
                tol = max(self.tolerance, 0.3)
            else:
                tol = self.tolerance
            if base == 0:
                regressed = (cur > 0) if direction == "lower" else False
            elif direction == "lower":
                regressed = cur > base * (1.0 + tol)
            else:
                regressed = cur < base * (1.0 - tol)
            status = "REGRESSED" if regressed else "ok"
        self.lines.append((where, path, base, cur, status))
        if status == "REGRESSED":
            self.regressions.append(f"{where}: {path}: {base} -> {cur}")

    def compare_records(self, where, base, cur):
        fb, fc = flatten(base), flatten(cur)
        for field in IDENTITY_FIELDS:
            if fb.get(field) != fc.get(field):
                self.regressions.append(
                    f"{where}: identity field {field!r} differs "
                    f"({fb.get(field)!r} vs {fc.get(field)!r}) -- stale "
                    f"baseline? regenerate bench/baselines")
                return
        hw_ok = bool(fb.get("hw_available")) and bool(fc.get("hw_available"))
        for path, bval in sorted(fb.items()):
            if path.rsplit(".", 1)[-1] in IDENTITY_FIELDS:
                continue
            if path not in fc:
                self.regressions.append(f"{where}: metric {path} missing "
                                        f"from current run")
                continue
            self.check_metric(where, path, bval, fc[path], hw_ok)

    def compare_files(self, name, base_path, cur_path):
        base, cur = load_jsonl(base_path), load_jsonl(cur_path)
        if not base:
            # An empty-but-present baseline would otherwise compare equal to
            # an empty current run and silently gate nothing.
            self.regressions.append(
                f"{name}: baseline file is empty ({base_path}) -- "
                f"regenerate bench/baselines from a real run")
            return
        if len(base) != len(cur):
            self.regressions.append(
                f"{name}: record count differs ({len(base)} baseline vs "
                f"{len(cur)} current) -- stale baseline?")
            return
        for i, (b, c) in enumerate(zip(base, cur)):
            self.compare_records(f"{name}[{i}]", b, c)

    def report(self):
        out = ["# bench_compare report", ""]
        out.append(f"{len(self.lines)} metrics compared, "
                   f"{len(self.regressions)} regression(s), "
                   f"{self.skipped_hw} hw metric(s) skipped (no PMU)")
        out.append("")
        if self.regressions:
            out.append("## Regressions")
            out.extend(f"- {r}" for r in self.regressions)
            out.append("")
        out.append("## All metrics")
        out.append("| record | metric | baseline | current | status |")
        out.append("|---|---|---|---|---|")
        for where, path, base, cur, status in self.lines:
            out.append(f"| {where} | {path} | {base} | {cur} | {status} |")
        return "\n".join(out) + "\n"


def run(baseline, current, tolerance, time_tolerance, report_path, out):
    cmp_ = Comparison(tolerance, time_tolerance)
    if os.path.isdir(baseline):
        names = sorted(n for n in os.listdir(baseline) if n.endswith(".jsonl"))
        if not names:
            print(f"bench_compare: FAIL: no .jsonl baselines in {baseline}",
                  file=out)
            return 1
        for name in names:
            cur_path = os.path.join(current, name)
            if not os.path.exists(cur_path):
                cmp_.regressions.append(f"{name}: current run missing "
                                        f"({cur_path} not found)")
                continue
            cmp_.compare_files(name, os.path.join(baseline, name), cur_path)
    else:
        cmp_.compare_files(os.path.basename(baseline), baseline, current)

    if report_path:
        with open(report_path, "w", encoding="utf-8") as f:
            f.write(cmp_.report())
    for reg in cmp_.regressions:
        print(f"bench_compare: REGRESSION: {reg}", file=out)
    print(f"bench_compare: {len(cmp_.lines)} metrics, "
          f"{len(cmp_.regressions)} regression(s), "
          f"{cmp_.skipped_hw} hw skipped", file=out)
    print(f"bench_compare: {'FAIL' if cmp_.regressions else 'PASS'}",
          file=out)
    return 1 if cmp_.regressions else 0


def self_test() -> int:
    import io
    import tempfile

    base_rec = {"bench": "x", "config": "a", "rows": 100,
                "sim_orig_l1i": 1000, "sim_buf_l1i": 100,
                "tuple_seconds": 1.0, "speedup": 2.0,
                "sim": {"l1i_misses": 5000, "instructions": 100000},
                "hw_available": False, "hw_orig_l1i": 0}

    def write(dirname, name, recs):
        path = os.path.join(dirname, name)
        with open(path, "w", encoding="utf-8") as f:
            for r in recs:
                f.write(json.dumps(r) + "\n")
        return path

    with tempfile.TemporaryDirectory() as tmp:
        bdir, cdir = os.path.join(tmp, "b"), os.path.join(tmp, "c")
        os.makedirs(bdir)
        os.makedirs(cdir)
        write(bdir, "x.jsonl", [base_rec])

        # Identical -> PASS.
        write(cdir, "x.jsonl", [base_rec])
        assert run(bdir, cdir, 0.15, 0.6, None, io.StringIO()) == 0

        # Counter regression beyond tolerance -> FAIL.
        worse = dict(base_rec, sim_orig_l1i=1300)
        write(cdir, "x.jsonl", [worse])
        assert run(bdir, cdir, 0.15, 0.6, None, io.StringIO()) == 1

        # Counter improvement -> PASS (lower is better).
        better = dict(base_rec, sim_orig_l1i=500)
        write(cdir, "x.jsonl", [better])
        assert run(bdir, cdir, 0.15, 0.6, None, io.StringIO()) == 0

        # Time within the loose time tolerance -> PASS; way beyond -> FAIL.
        slow_ok = dict(base_rec, tuple_seconds=1.5)
        write(cdir, "x.jsonl", [slow_ok])
        assert run(bdir, cdir, 0.15, 0.6, None, io.StringIO()) == 0
        slow_bad = dict(base_rec, tuple_seconds=2.5)
        write(cdir, "x.jsonl", [slow_bad])
        assert run(bdir, cdir, 0.15, 0.6, None, io.StringIO()) == 1

        # Speedup ratio: 25% drop tolerated, 40% drop gated.
        write(cdir, "x.jsonl", [dict(base_rec, speedup=1.5)])
        assert run(bdir, cdir, 0.15, 0.6, None, io.StringIO()) == 0
        write(cdir, "x.jsonl", [dict(base_rec, speedup=1.2)])
        assert run(bdir, cdir, 0.15, 0.6, None, io.StringIO()) == 1

        # hw metrics skipped when either side lacks a PMU: a huge hw_orig_l1i
        # change must NOT fail while hw_available is false.
        hw_noise = dict(base_rec, hw_orig_l1i=10**9)
        write(cdir, "x.jsonl", [hw_noise])
        assert run(bdir, cdir, 0.15, 0.6, None, io.StringIO()) == 0
        # ...but gated when both sides have counters.
        hw_base = dict(base_rec, hw_available=True, hw_orig_l1i=1000)
        hw_bad = dict(base_rec, hw_available=True, hw_orig_l1i=5000)
        write(bdir, "x.jsonl", [hw_base])
        write(cdir, "x.jsonl", [hw_bad])
        assert run(bdir, cdir, 0.15, 0.6, None, io.StringIO()) == 1
        write(bdir, "x.jsonl", [base_rec])

        # Identity drift (row count changed) -> FAIL with stale-baseline hint.
        drift = dict(base_rec, rows=200)
        write(cdir, "x.jsonl", [drift])
        sink = io.StringIO()
        assert run(bdir, cdir, 0.15, 0.6, None, sink) == 1
        assert "stale" in sink.getvalue()

        # Empty baseline file -> explicit FAIL (even against an empty current
        # run), not a silent zero-record PASS.
        write(bdir, "empty.jsonl", [])
        write(cdir, "empty.jsonl", [])
        sink = io.StringIO()
        assert run(bdir, cdir, 0.15, 0.6, None, sink) == 1
        assert "empty" in sink.getvalue()
        os.unlink(os.path.join(bdir, "empty.jsonl"))
        os.unlink(os.path.join(cdir, "empty.jsonl"))
        write(cdir, "x.jsonl", [base_rec])
        assert run(bdir, cdir, 0.15, 0.6, None, io.StringIO()) == 0

        # Missing current file -> FAIL.
        os.unlink(os.path.join(cdir, "x.jsonl"))
        assert run(bdir, cdir, 0.15, 0.6, None, io.StringIO()) == 1

        # Report file is written and mentions the regression.
        write(cdir, "x.jsonl", [worse])
        report = os.path.join(tmp, "diff.md")
        assert run(bdir, cdir, 0.15, 0.6, report, io.StringIO()) == 1
        with open(report, encoding="utf-8") as f:
            text = f.read()
        assert "sim_orig_l1i" in text and "REGRESSED" in text

    print("bench_compare: self-test OK")
    return 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--baseline", help="baseline .jsonl file or directory")
    ap.add_argument("--current", help="current .jsonl file or directory")
    ap.add_argument("--tolerance", type=float, default=0.15,
                    help="relative tolerance for counters (default 0.15)")
    ap.add_argument("--time-tolerance", type=float, default=0.6,
                    help="relative tolerance for wall-clock metrics "
                         "(default 0.6; CI runners are noisy)")
    ap.add_argument("--report", help="write a markdown diff report here")
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()

    if args.self_test:
        return self_test()
    if not args.baseline or not args.current:
        ap.error("--baseline and --current are required")
    return run(args.baseline, args.current, args.tolerance,
               args.time_tolerance, args.report, sys.stdout)


if __name__ == "__main__":
    sys.exit(main())
