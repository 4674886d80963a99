#!/usr/bin/env python3
"""Self-test of the cloudbench benchmark.

    python3 cloudbench/tests/selftest.py [--binary <path to cloudbench>]

Run from the repository root. Without --binary it builds through
cloudbench/run.py. Checks, on a short run of every workload:
  * an untraced run prints exactly the end-to-end metrics BENCHMARK.json
    names, with their units, all finite and above zero, and the report
    line carries the per-op-type view (put/get/update) with error_rate 0;
  * a traced run prints exactly the per-layer metrics, with their units,
    measures recovery's resident memory in its child process, and dumps
    its spans as JSONL;
  * a deliberately corrupted expected-bytes entry fails the run (exit 1,
    "correct": false) -- the checker is live;
  * an unknown workload exits 2 without printing a result.
"""
import argparse
import json
import math
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

# Every workload the binary runs (BENCHMARK.json lists the gated ones) and
# the per-op-type metrics each must report beside the gated ones.
BY_OP_TYPE = {
    "bulk_pl0": ["put_mbps", "get_mbps", "put_p50_ms", "put_tail_ms",
                 "get_p50_ms", "get_tail_ms", "error_rate"],
    "small_sharded": ["put_mbps", "get_mbps", "put_p50_ms", "put_tail_ms",
                      "get_p50_ms", "get_tail_ms", "error_rate"],
    "pl3_update_mix": ["get_mbps", "get_p50_ms", "get_tail_ms",
                       "update_p50_ms", "update_tail_ms", "error_rate"],
}

failures = []


def check(cond, what):
    if not cond:
        failures.append(what)
        print("FAIL: " + what, flush=True)


def run(cmd, args):
    p = subprocess.run(cmd + args, cwd=ROOT, capture_output=True, text=True,
                       timeout=300)
    lines = p.stdout.strip().splitlines()
    return p.returncode, lines, p.stderr


def parse(lines):
    try:
        return json.loads(lines[-2])["report"], json.loads(lines[-1])
    except (IndexError, ValueError, KeyError):
        return None, None


def check_metrics(label, got, want):
    check(set(got) == set(want),
          f"{label}: metric names differ: missing {sorted(set(want) - set(got))}, "
          f"extra {sorted(set(got) - set(want))}")
    for name, unit in want.items():
        if name in got:
            check(got[name]["unit"] == unit,
                  f"{label}: {name} unit {got[name]['unit']} != {unit}")
            check(isinstance(got[name]["value"], (int, float)) and
                  math.isfinite(got[name]["value"]), f"{label}: {name} not finite")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--binary")
    ap.add_argument("--seconds", default="1")
    opts = ap.parse_args()
    cmd = [opts.binary] if opts.binary else [sys.executable, "cloudbench/run.py"]
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    e2e = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in bench["per_layer"]}
    names = list(BY_OP_TYPE)
    gated = [w["name"] for w in bench["workloads"]]
    check(set(gated) <= set(names), f"unknown workloads in BENCHMARK.json: {gated}")
    base = ["--seed", "7", "--seconds", opts.seconds, "--reps", "1"]

    for w in names:
        rc, lines, err = run(cmd, ["--workload", w, "--trace", "0"] + base)
        report, result = parse(lines)
        check(rc == 0 and result is not None, f"{w} untraced: rc {rc}: {err[-500:]}")
        if result is None:
            continue
        check(result["correct"] and result["failed"] == 0 and result["attempted"] > 0,
              f"{w} untraced: not correct: {report.get('failures') if report else lines[-1]}")
        check_metrics(f"{w} untraced", result["metrics"], e2e)
        for name, m in result["metrics"].items():
            check(m["value"] > 0, f"{w}: end-to-end metric {name} is {m['value']}")
        by_type = report["by_op_type"]
        for name in BY_OP_TYPE[w]:
            check(name in by_type, f"{w}: report lacks {name}")
        check(by_type.get("error_rate", {}).get("value") == 0, f"{w}: error_rate != 0")
        for key in ("nproc", "gf256_arm", "aes_ni", "sha_ni", "journal_fs",
                    "host.steal_frac", "cpus", "keep_awake"):
            check(key in report["host"], f"{w}: host record lacks {key}")
        check((report["host"].get("cpus") != "all") == (report["host"].get("keep_awake") == "yes"),
              f"{w}: a pinned run, and only a pinned run, keeps its CPUs awake")
        check(report["seed"] == 7, f"{w}: seed not recorded")

        rc, lines, err = run(cmd, ["--workload", w, "--trace", "1"] + base)
        report, result = parse(lines)
        check(rc == 0 and result is not None, f"{w} traced: rc {rc}: {err[-500:]}")
        if result is None:
            continue
        check(result["correct"], f"{w} traced: not correct")
        check_metrics(f"{w} traced", result["metrics"], layers)
        rss = result["metrics"].get("metadata.rss_bytes_per_chunk", {}).get("value", 0)
        check(rss > 0, f"{w} traced: recovery RSS per chunk is {rss}")
        spans = os.path.join(ROOT, report.get("spans", ""))
        roots = 0
        if os.path.isfile(spans):
            with open(spans) as f:
                for line in f:
                    s = json.loads(line)
                    roots += s["parent"] == 0 and not s["name"].startswith(("bench.", "replay."))
        check(roots > 0, f"{w} traced: no distributor root spans in {spans}")

    rc, lines, _ = run(cmd, ["--workload", "pl3_update_mix", "--trace", "0",
                             "--corrupt-expected"] + base)
    _, result = parse(lines)
    check(rc == 1 and result is not None and not result["correct"] and
          result["failed"] >= 1, f"corrupted expected bytes not caught: rc {rc}")

    rc, lines, _ = run(cmd, ["--workload", "no_such_workload", "--trace", "0"] + base)
    check(rc == 2 and not any(l.startswith('{"correct"') for l in lines),
          f"unknown workload: rc {rc}")

    print("selftest: " + ("FAILED (%d)" % len(failures) if failures else "OK"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
