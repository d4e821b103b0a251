#!/usr/bin/env python3
"""Benchmark of sideinfo: one workload, one seed, every phase in a fresh interpreter.

    python3 bench/run.py --workload dpa-scan --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  The harness sets up the workload in five
fresh interpreters (setup_s is the median time from spawn to ready), then
runs it in one more for about --seconds, checking every job's output.
Every time it reports is in reference seconds: wall time scaled by the
host's momentary speed on a fixed loop (bench/refspeed.py).
With --trace 0 it prints the end-to-end metrics of BENCHMARK.json, with
--trace 1 the per-layer ones.  The last line of standard output is one JSON
object: {"correct", "attempted", "failed", "metrics"}.  Lines before it
name each metric with its unit and record the code and machine measured.

Inputs and traces go to .bench_work/ in the checkout; the inputs are
removed at exit.  --toy shrinks every job class for the harness self-test.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
SETUP_REPS = 5
SETUP_SAMPLE_S = 0.1  # interp reference-loop sample before and after each set-up (imports are interpreter work)
DEADLINE_S = 170.0

# One client thread plus at most the two pool threads of --workers 2; numpy's
# BLAS pool stays single-threaded so a two-core machine is not oversubscribed.
CHILD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1",
             "PYTHONHASHSEED": "0"}


class BenchError(Exception):
    pass


def git_sha(root: Path):
    """HEAD of the checkout when it is a git work tree, read without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return None
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    try:
        return (git / ref).read_text().strip()
    except OSError:
        pass
    try:
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def src_digest() -> str:
    """sha256 over the package sources, which identifies the code in any checkout."""
    h = hashlib.sha256()
    for path in sorted((SRC / "sideinfo").rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env.update(CHILD_ENV)
    return env


def _remaining(t0: float) -> float:
    left = DEADLINE_S - (time.perf_counter() - t0)
    if left <= 0:
        raise BenchError("deadline passed")
    return left


def _finish(proc: subprocess.Popen, t0: float) -> str:
    try:
        out, _ = proc.communicate(timeout=_remaining(t0))
    except (subprocess.TimeoutExpired, BenchError):
        proc.kill()
        proc.communicate()
        raise BenchError("worker did not finish before the deadline") from None
    if proc.returncode != 0:
        raise BenchError(f"worker exited with {proc.returncode}")
    return out


def measure_setup(cmd: list[str], inputs: Path, t0: float) -> tuple[list[float], list[float], list[dict]]:
    """Spawn-to-ready times of fresh interpreters, in wall and reference seconds, with their own phase split."""
    import refspeed  # bench/ is sys.path[0] for a script

    walls, refs, phases = [], [], []
    for k in range(SETUP_REPS):
        before = refspeed.speed(SETUP_SAMPLE_S)
        start = time.perf_counter()
        proc = subprocess.Popen(cmd + ["--inputs", str(inputs / f"setup-{k}")],
                                stdout=subprocess.PIPE, text=True, env=child_env(), cwd=ROOT)
        line = proc.stdout.readline()
        walls.append(time.perf_counter() - start)
        rest = _finish(proc, t0)
        refs.append(refspeed.scale(walls[-1], before, refspeed.speed(SETUP_SAMPLE_S)))
        try:
            phases.append(json.loads(line or rest))
        except json.JSONDecodeError:
            raise BenchError(f"setup printed {line!r}") from None
    return walls, refs, phases


def main(argv=None) -> int:
    contract = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=[w["name"] for w in contract["workloads"]])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--toy", action="store_true", help="tiny job classes, for bench/selftest.py")
    args = p.parse_args(argv)
    if not (SRC / "sideinfo" / "__init__.py").is_file():
        sys.stderr.write(f"bench: no package at {SRC / 'sideinfo'}; run from a full checkout\n")
        return 2
    if args.seconds < 1:
        sys.stderr.write("bench: --seconds must be >= 1\n")
        return 2
    section = "per_layer" if args.trace else "end_to_end"
    wanted = {m["name"]: m["unit"] for m in contract[section]}

    t0 = time.perf_counter()
    WORK.mkdir(exist_ok=True)
    inputs = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    base = [sys.executable, str(HERE / "worker.py")]
    common = ["--workload", args.workload, "--seed", str(args.seed)] + (["--toy"] if args.toy else [])
    try:
        walls, refs, phases = measure_setup(base + ["setup"] + common, inputs, t0)
        run_cmd = base + ["run"] + common + ["--inputs", str(inputs / "run"),
                                             "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.trace:
            tag = f"{args.workload}-seed{args.seed}{'-toy' if args.toy else ''}"
            run_cmd += ["--trace-out", str(WORK / "traces" / f"{tag}.json")]
        proc = subprocess.Popen(run_cmd, stdout=subprocess.PIPE, text=True, env=child_env(), cwd=ROOT)
        lines = _finish(proc, t0).strip().splitlines()
        if not lines:
            raise BenchError("worker printed nothing")
        try:
            res = json.loads(lines[-1])
        except json.JSONDecodeError:
            raise BenchError(f"worker's last line is not JSON: {lines[-1][:200]!r}") from None
    except BenchError as exc:
        sys.stderr.write(f"bench: {exc}\n")
        return 1
    finally:
        shutil.rmtree(inputs, ignore_errors=True)

    values = dict(res["metrics"])
    if args.trace:
        values["setup.import_s"] = statistics.median(ph["import_s"] for ph in phases)
        values["setup.inputs_s"] = statistics.median(ph["inputs_s"] for ph in phases)
    else:
        values["setup_s"] = statistics.median(refs)
    metrics = {name: {"value": float(values.get(name, 0.0)), "unit": unit} for name, unit in wanted.items()}

    env = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
           "toy": args.toy, "git_sha": git_sha(ROOT), "src_sha256": src_digest(),
           **res["versions"], "nproc": len(os.sched_getaffinity(0)),
           "passes": res["passes"], "jobs_per_pass": res["jobs_per_pass"], "pass_s": res["pass_s"],
           "pass_wall_s": res["pass_wall_s"], "setup_wall_s": [round(w, 4) for w in walls]}
    print("env " + json.dumps(env, sort_keys=True))
    print("class_median_ms " + json.dumps({k: round(v, 3) for k, v in res["class_median_ms"].items()}))
    if "jobs_timed" in res:
        print(f"  latency percentiles over {res['jobs_timed']} timed jobs")
    for name, m in metrics.items():
        print(f"  {name:42s} {m['value']:14.6g} {m['unit']}")
    fail_ratio = res["failed"] / res["attempted"]
    print(f"  {'fail_ratio':42s} {fail_ratio:14.6g} ({res['failed']} of {res['attempted']} jobs)")
    for msg in res["failures"]:
        print(f"  FAILED {msg}")
    print(json.dumps({"correct": res["failed"] == 0, "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
