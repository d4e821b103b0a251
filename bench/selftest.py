#!/usr/bin/env python3
"""Self-test of the benchmark harness at toy scale (about a minute).

    python3 bench/selftest.py

Checks that:
  * BENCHMARK.json has the documented shape;
  * the same seed generates byte-identical inputs, and another seed others;
  * every workload, traced and untraced, prints every metric of its
    BENCHMARK.json section with its unit, and fail_ratio is 0;
  * in a directory holding only BENCHMARK.json and bench/, the benchmark
    exits non-zero without printing a result.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import workloads  # bench/ is sys.path[0] when this runs as a script

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".bench_work"
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def check_contract(contract: dict) -> list[str]:
    errors = []
    keys = {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    if set(contract) != keys:
        errors.append(f"BENCHMARK.json keys {sorted(contract)}")
    seen = set()
    for section, fields in (("workloads", {"name", "why"}),
                            ("end_to_end", {"name", "unit", "better", "bound"}),
                            ("per_layer", {"name", "unit", "better"})):
        for m in contract[section]:
            if set(m) != fields or not NAME.match(m["name"]) or m["name"] in seen:
                errors.append(f"{section} entry {m}")
            seen.add(m["name"])
            if "unit" in m and not UNIT.match(m["unit"]):
                errors.append(f"unit of {m['name']}")
            if "bound" in m and not 0 < m["bound"] <= 0.25:
                errors.append(f"bound of {m['name']}")
    setup = [m for m in contract["end_to_end"] if m["name"] == "setup_s"]
    if not setup or setup[0]["unit"] != "s" or setup[0]["better"] != "lower":
        errors.append("setup_s missing or malformed")
    elif setup[0]["bound"] < max(m["bound"] for m in contract["end_to_end"]):
        errors.append("setup_s should carry the largest bound")
    if [w["name"] for w in contract["workloads"]] != list(workloads.WORKLOADS):
        errors.append("workload names differ from bench/workloads.py")
    return errors


def snapshot(path: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(path.iterdir())}


def check_inputs(tmp: Path) -> list[str]:
    errors = []
    for w in workloads.WORKLOADS:
        a, b, c = (tmp / f"{w}-{tag}" for tag in ("a", "b", "c"))
        workloads.generate(w, 7, a)
        workloads.generate(w, 7, b)
        workloads.generate(w, 8, c)
        if snapshot(a) != snapshot(b):
            errors.append(f"{w}: seed 7 generated different inputs twice")
        if snapshot(a) == snapshot(c):
            errors.append(f"{w}: seeds 7 and 8 generated the same inputs")
    return errors


def check_run(contract: dict, workload: str, trace: int) -> list[str]:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "3",
           "--seconds", "1", "--trace", str(trace), "--toy"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180)
    tag = f"{workload} trace={trace}"
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return [f"{tag}: exit {proc.returncode}\n{proc.stderr[-1500:]}"]
    res = json.loads(lines[-1])
    errors = []
    if set(res) != {"correct", "attempted", "failed", "metrics"}:
        errors.append(f"{tag}: result keys {sorted(res)}")
    if not res["correct"] or res["failed"] != 0 or res["attempted"] < 1:
        errors.append(f"{tag}: fail_ratio {res['failed']}/{res['attempted']}: " +
                      "; ".join(line for line in lines if "FAILED" in line))
    wanted = {m["name"]: m["unit"] for m in contract["per_layer" if trace else "end_to_end"]}
    got = {k: v["unit"] for k, v in res["metrics"].items()}
    if got != wanted:
        errors.append(f"{tag}: metrics/units differ: {set(got.items()) ^ set(wanted.items())}")
    for name, m in res["metrics"].items():
        if not isinstance(m["value"], (int, float)):
            errors.append(f"{tag}: {name} value {m['value']!r}")
        if not any(line.split()[:1] == [name] and line.rstrip().endswith(m["unit"]) for line in lines):
            errors.append(f"{tag}: no '{name} ... {m['unit']}' line")
    if not trace and any(res["metrics"][m["name"]]["value"] <= 0 for m in contract["end_to_end"]):
        errors.append(f"{tag}: an end-to-end metric reads 0")
    return errors


def check_bare_directory(tmp: Path) -> list[str]:
    bare = tmp / "bare"
    shutil.copytree(HERE, bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    cmd = [sys.executable, "bench/run.py", "--workload", workloads.WORKLOADS[0], "--seed", "1",
           "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(cmd, cwd=bare, capture_output=True, text=True, timeout=180)
    if proc.returncode == 0 or '"correct"' in proc.stdout:
        return [f"bare directory: exit {proc.returncode}, stdout {proc.stdout[-300:]!r}"]
    return []


def main() -> int:
    contract = json.loads((ROOT / "BENCHMARK.json").read_text())
    WORK.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="selftest-", dir=WORK))
    try:
        steps = [("contract", lambda: check_contract(contract)),
                 ("inputs", lambda: check_inputs(tmp)),
                 ("bare directory", lambda: check_bare_directory(tmp))]
        steps += [(f"{w} trace={t}", lambda w=w, t=t: check_run(contract, w, t))
                  for w in workloads.WORKLOADS for t in (0, 1)]
        failed = 0
        for label, step in steps:
            errors = step()
            failed += bool(errors)
            print(f"{'ok  ' if not errors else 'FAIL'} {label}")
            for e in errors:
                print(f"     {e}")
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    print(f"{len(steps) - failed}/{len(steps)} checks passed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
