#!/usr/bin/env python3
"""Steadiness mode: run workloads repeatedly, interleaved, and report each metric's spread.

    python3 bench/steady.py --seeds 10                       # every workload
    python3 bench/steady.py --workloads bayes-numeric --seeds 5
    python3 bench/steady.py --seeds 10 --compare .bench_work/steady-A.json

Each round runs every chosen workload once with the round's seed, so slow
drift of the host hits all workloads alike instead of one.  For every
end-to-end metric it prints the median, the quartiles (Python's
statistics.quantiles, n=4) and the spread (q3 - q1) / median next to the
metric's bound in BENCHMARK.json; a spread should stay below a third of
its bound, setup_s excepted.  --compare reads an earlier result file and
reports how far each median moved in the metric's worse direction, which
must stay within the bound.  Results, with the code and machine they were
measured on, are written to .bench_work/steady-<time>.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".bench_work"


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=200)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{' '.join(cmd)} failed ({proc.returncode}):\n{proc.stderr[-2000:]}")
    env = next((json.loads(line[4:]) for line in lines if line.startswith("env ")), {})
    return {"env": env, "result": json.loads(lines[-1])}


def summarize(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else float("inf")}


def main(argv=None) -> int:
    contract = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in contract["workloads"]]
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workloads", default=",".join(names))
    p.add_argument("--seeds", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=contract["run_seconds"])
    p.add_argument("--compare", type=Path, default=None)
    args = p.parse_args(argv)
    workloads = args.workloads.split(",")
    metrics = {m["name"]: m for m in contract["end_to_end"]}

    runs = {w: [] for w in workloads}
    for seed in range(args.first_seed, args.first_seed + args.seeds):
        for w in workloads:
            t = time.perf_counter()
            out = run_once(w, seed, args.seconds, 0)
            runs[w].append(out)
            res = out["result"]
            print(f"seed {seed:3d} {w:15s} correct={res['correct']} {time.perf_counter() - t:5.1f}s  " +
                  "  ".join(f"{k}={v['value']:.4g}" for k, v in res["metrics"].items()), flush=True)

    old = json.loads(args.compare.read_text())["summary"] if args.compare else None
    summary, ok = {}, True
    print(f"\n{'workload':15s} {'metric':12s} {'median':>10s} {'q1':>10s} {'q3':>10s} "
          f"{'spread':>7s} {'bound':>6s}" + ("  drift" if old else ""))
    for w in workloads:
        summary[w] = {}
        for name, m in metrics.items():
            s = summarize([r["result"]["metrics"][name]["value"] for r in runs[w]])
            summary[w][name] = s
            steady = name == "setup_s" or s["spread"] < m["bound"] / 3
            line = (f"{w:15s} {name:12s} {s['median']:10.4g} {s['q1']:10.4g} {s['q3']:10.4g} "
                    f"{s['spread']:7.3f} {m['bound']:6.2f}{'' if steady else '  SPREAD'}")
            if old and w in old and name in old[w]:
                before = old[w][name]["median"]
                sign = 1.0 if m["better"] == "lower" else -1.0
                drift = sign * (s["median"] - before) / before
                line += f"  {drift:+.3f}{'  WORSE' if drift > m['bound'] else ''}"
                steady = steady and drift <= m["bound"]
            ok = ok and steady and all(r["result"]["correct"] for r in runs[w])
            print(line)
    WORK.mkdir(exist_ok=True)
    path = WORK / f"steady-{time.strftime('%Y%m%d-%H%M%S')}.json"
    env = runs[workloads[0]][0]["env"]
    path.write_text(json.dumps({"env": {k: env.get(k) for k in
                                        ("git_sha", "src_sha256", "python", "numpy", "scipy", "nproc")},
                                "seconds": args.seconds, "seeds": [args.first_seed, args.seeds],
                                "summary": summary, "runs": runs}, indent=1) + "\n")
    print(f"\n{'steady' if ok else 'NOT steady'}; results in {path}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
