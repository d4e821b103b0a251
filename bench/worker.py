"""One fresh interpreter of the benchmark: set up one workload, or set it up and run it.

Started by bench/run.py with PYTHONPATH set to the absolute `src` directory
of the checkout, never run by hand:

    worker.py setup --workload W --seed S --inputs DIR [--toy]
    worker.py run   --workload W --seed S --inputs DIR --seconds T --trace 0|1
                    [--trace-out FILE] [--toy]

`setup` prints one JSON line with its import and input-generation times.
`run` then runs the workload's fixed job list as a closed loop (one client,
no think time) in complete passes until about T seconds are spent, checks
every job's output, and prints one JSON line with the measurements.  Job
times are scaled to reference seconds by the workload's refspeed loop,
sampled between jobs.  With --trace 1 it alternates untraced and traced
passes, so the difference of their medians is the tracing overhead.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import resource
import statistics
import sys
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from importlib import import_module
from pathlib import Path
from types import SimpleNamespace
from typing import Any, Callable, Optional

# Tolerances of the per-job oracles.
IDENTITY_TOL = 1e-9  # log-loss benefit = I(X;Y), conservation residuals
NUMERIC_RISK_TOL = 1e-6  # numeric-search Bayes risk against its closed form
GEWEKE_REL_TOL = 1e-9  # geweke F against the recorded catalogue value
CLOSED_FORM_TOL = 1e-12  # log score, transfer entropy

# The reference loop is sampled after every SEGMENT_S of job time, for
# SAMPLE_FRAC of that time and at least SAMPLE_S; it costs about a sixth of
# the run.  The longer the samples, the closer they track the host's speed
# during the work they bracket: scaled times of one n = 3 bayes_risk job
# spread by 0.35 of their median raw, 0.14 with samples a tenth as long as
# the job, and 0.09 with samples a fifth as long.
SEGMENT_S = 0.1
SAMPLE_FRAC = 0.2
SAMPLE_S = 0.01


def _setup(args) -> tuple[SimpleNamespace, list[dict], dict]:
    t0 = time.perf_counter()
    import sideinfo  # noqa: F401  (numpy and scipy come with it)

    t1 = time.perf_counter()
    import workloads  # bench/ is sys.path[0] for a script

    specs = workloads.generate(args.workload, args.seed, args.inputs, toy=args.toy)
    t2 = time.perf_counter()
    mods = SimpleNamespace(**{
        name: import_module(f"sideinfo.{name}")
        for name in ("cli", "losses", "benefit", "causality")
    })
    mods.si = sys.modules["sideinfo"]
    mods.workloads = workloads
    return mods, specs, {"import_s": t1 - t0, "inputs_s": t2 - t1}


# ---------------------------------------------------------------------------
# jobs
# ---------------------------------------------------------------------------


class RowCounter:
    """Rows evaluated by the benchmark's own scoring rules."""

    def __init__(self):
        self.rows = 0


def improper_rule(mods, kind: str, n: int, counter: RowCounter):
    """An unflagged (proper=False) scoring rule, so bayes_risk takes the numeric tier.

    `linear` is -q_x, which is improper; `brier` is the Brier score without
    its proper flag.  Both accept a batch of forecasts as a 2-d array.
    """

    import numpy as np

    def vector_fn(q):
        q = np.asarray(q, dtype=float)
        counter.rows += q.shape[0] if q.ndim == 2 else 1
        if kind == "linear":
            return -q
        return (q * q).sum(axis=-1, keepdims=True) - 2.0 * q + 1.0

    def eval_fn(x, q):
        return float(vector_fn(q)[x])

    return mods.losses.ScoringRuleLoss(eval_fn=eval_fn, n=n, proper=False, vector_fn=vector_fn)


@dataclass
class Job:
    cls: str
    call: Callable[[], Any]
    check: Callable[[Any], Optional[str]]


def _cli_call(mods, argv: list[str]):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = mods.cli.cli_dispatch(argv)
    return code, out.getvalue(), err.getvalue()


def _report(out) -> tuple[int, dict]:
    code, stdout, stderr = out
    try:
        return code, json.loads(stdout)
    except json.JSONDecodeError:
        return code, {"unparsed_stdout": stdout[-200:], "stderr": stderr[-200:]}


def _close(a: float, b: float, tol: float) -> bool:
    return math.isfinite(a) and abs(a - b) <= tol


def _witness_error(mods, loss_name: str, n: int, doc: dict, kinds: tuple[str, ...]) -> Optional[str]:
    import numpy as np

    si = mods.si
    if doc["kind"] not in kinds:
        return f"witness kind {doc['kind']!r}, expected one of {kinds}"
    table = [[float(v) for v in row] for row in doc["joint"]["p"]]
    w = si.ViolationWitness(
        joint=si.Joint(np.array(table)),
        transform=si.Transform(tuple(v - 1 for v in doc["transform"])),
        c_before=doc["c_before"],
        c_after=doc["c_after"],
        kind=doc["kind"],
    )
    if not si.verify_witness(si.builtin_loss(loss_name, n), w):
        return f"witness fails verify_witness: {doc['transform']}"
    return None


def _checker(mods, op: str, expect: dict) -> Callable[[Any], Optional[str]]:
    kind = expect["check"]

    def cli_check(out) -> Optional[str]:
        code, rep = _report(out)
        res = rep.get("results", {})
        if kind == "benefit_log":
            if code != 0 or not _close(res.get("c_value", math.nan), expect["mi"], IDENTITY_TOL):
                return f"log benefit {res.get('c_value')} != I(X;Y) {expect['mi']} (exit {code})"
        elif kind == "audit":
            wits = rep.get("witnesses", [])
            if code != (2 if wits else 0):
                return f"audit-dpa exit {code} with {len(wits)} witnesses"
            if res.get("transforms_checked") != expect["transforms"]:
                return f"transforms_checked {res.get('transforms_checked')} != {expect['transforms']}"
            loss = expect["loss"]
            if loss == "log":
                if wits:
                    return "log loss produced a DPA witness"
                if not _close(res["c_before"], expect["mi"], IDENTITY_TOL):
                    return f"log c_before {res['c_before']} != I(X;Y) {expect['mi']}"
            kinds = ("dpa_violation", "asymmetry") if loss == "absolute-ordered" else ("dpa_violation",)
            for doc in wits:
                err = _witness_error(mods, loss, expect["n"], doc, kinds)
                if err:
                    return err
        elif kind == "witness":
            doc = res.get("witness")
            if code != 0 or doc is None:
                return f"find-violation found no witness (exit {code})"
            return _witness_error(mods, expect["loss"], expect["n"], doc, (expect["kind"],))
        elif kind == "no_witness":
            if code != 0 or "witness" not in res or res["witness"] is not None:
                return f"full scan reported {res.get('witness', 'nothing')!r} (exit {code})"
        elif kind == "conservation":
            worst = max(res.get("conservation_residual", math.inf),
                        res.get("conservation_residual_refined", math.inf))
            if code != 0 or not worst <= IDENTITY_TOL:
                return f"conservation residual {worst} (exit {code})"
        elif kind == "geweke":
            f = res.get("f", math.nan)
            if code != 0 or not _close(f, expect["f"], GEWEKE_REL_TOL * abs(expect["f"])):
                return f"geweke F {f} != recorded {expect['f']} (exit {code})"
        elif kind == "log_score":
            v = res.get("value", math.nan)
            if code != 0 or not _close(v, expect["value"], CLOSED_FORM_TOL):
                return f"scoring-rule value {v} != -ln q_x {expect['value']} (exit {code})"
        else:
            return f"unknown check {kind!r}"
        return None

    def api_check(out) -> Optional[str]:
        if kind == "transfer_entropy":
            if not _close(out, expect["te"], CLOSED_FORM_TOL):
                return f"transfer entropy {out} != {expect['te']}"
        elif kind == "di_rate":
            if expect["autonomous"]:
                if not (out.converged and _close(out.rate, 0.0, IDENTITY_TOL)):
                    return f"di_rate of a Y-blind X is {out.rate} (converged={out.converged})"
            elif not -CLOSED_FORM_TOL <= out.rate <= math.log(expect["nx"]) + CLOSED_FORM_TOL:
                return f"di_rate {out.rate} outside [0, ln nx]"
        elif kind == "propriety":
            if not expect["proper"]:
                return None if out == "not-proper" else "improper rule passed the propriety audit"
            if out == "not-proper" or out.worst_margin < -IDENTITY_TOL:
                return f"proper rule failed the propriety audit: {out}"
        elif kind == "risk":
            if out.method != "numeric-search" or not _close(out.risk, expect["risk"], NUMERIC_RISK_TOL):
                return f"{out.method} risk {out.risk} != closed form {expect['risk']}"
        elif kind == "c_value":
            # two numeric-tier risks enter C with total weight 2
            if not _close(out, expect["c"], 2 * NUMERIC_RISK_TOL):
                return f"numeric-tier C {out} != closed form {expect['c']}"
        else:
            return f"unknown check {kind!r}"
        return None

    return cli_check if op == "cli" else api_check


def build_jobs(mods, specs: list[dict], inputs: Path, counter: RowCounter) -> list[Job]:
    import numpy as np

    si = mods.si
    prefix = str(inputs.resolve()) + "/"
    jobs = []
    for spec in specs:
        op = spec["op"]
        check = _checker(mods, op, spec["expect"])
        if op == "cli":
            argv = [a.replace(mods.workloads.IN, prefix) for a in spec["argv"]]
            call = (lambda argv=argv: _cli_call(mods, argv))
        elif op in ("transfer_entropy", "di_rate"):
            m = spec["model"]
            model = si.MarkovJointProcess(m["nx"], m["ny"], np.array(m["initial"]), np.array(m["kernel"]))
            if op == "transfer_entropy":
                call = (lambda model=model, d=spec["direction"]: mods.causality.transfer_entropy(model, d))
            else:
                call = (lambda model=model, k=spec["max_n"]: mods.causality.di_rate(model, "y->x", max_n=k))
        elif op == "audit_propriety":
            rule = spec["rule"]
            if rule.endswith("-builtin"):
                loss = si.builtin_loss(rule[: -len("-builtin")], spec["n"])
            else:
                loss = improper_rule(mods, rule, spec["n"], counter)

            def call(loss=loss, trials=spec["trials"], seed=spec["seed"]):
                try:
                    return mods.losses.audit_propriety(loss, trials=trials, seed=seed)
                except si.NotProper:
                    return "not-proper"
        elif op == "bayes_risk":
            loss = improper_rule(mods, spec["rule"], spec["n"], counter)
            p = np.array(spec["p"])
            call = (lambda loss=loss, p=p, seed=spec["seed"]: mods.losses.bayes_risk(loss, p, seed=seed))
        elif op == "c_value":
            loss = improper_rule(mods, spec["rule"], spec["n"], counter)
            joint = si.Joint(np.array(spec["table"]))
            call = (lambda loss=loss, j=joint, seed=spec["seed"]: mods.benefit.c_value(loss, j, seed=seed))
        else:
            raise ValueError(f"unknown job op {op!r}")
        jobs.append(Job(cls=spec["cls"], call=call, check=check))
    return jobs


# ---------------------------------------------------------------------------
# measuring
# ---------------------------------------------------------------------------


def run_pass(jobs: list[Job], kind: str) -> list[tuple[float, float, Any, Optional[BaseException]]]:
    """Run every job once; outputs are checked afterwards, outside the timed region.

    The `kind` reference loop is sampled before the pass and after every
    segment of at least SEGMENT_S of job time, outside the jobs' timed
    regions.  Each job gets its wall time and its reference time, scaled by
    the mean of the two samples around its segment.
    """
    import refspeed  # bench/ is sys.path[0] for a script

    results: list[list] = []
    before = refspeed.speed(SAMPLE_S, kind)
    segment_start, segment_s = 0, 0.0
    for i, job in enumerate(jobs):
        start = time.perf_counter()
        try:
            out, exc = job.call(), None
        except Exception as e:  # a failing job is counted, never fatal
            out, exc = None, e
        dt = time.perf_counter() - start
        results.append([dt, 0.0, out, exc])
        segment_s += dt
        if segment_s >= SEGMENT_S or i == len(jobs) - 1:
            after = refspeed.speed(max(SAMPLE_S, SAMPLE_FRAC * segment_s), kind)
            for r in results[segment_start:]:
                r[1] = refspeed.scale(r[0], before, after, kind)
            before, segment_start, segment_s = after, i + 1, 0.0
    return [tuple(r) for r in results]


def check_pass(jobs: list[Job], results, failures: list[str]) -> int:
    failed = 0
    for job, (_wall, _ref, out, exc) in zip(jobs, results):
        if exc is not None:
            msg = "raised " + "".join(traceback.format_exception_only(type(exc), exc)).strip()
        else:
            try:
                msg = job.check(out)
            except Exception as e:  # a malformed output is a failed check
                msg = f"check raised {e!r}"
        if msg:
            failed += 1
            failures.append(f"{job.cls}: {msg}")
    return failed


def nearest_rank(sorted_values: list[float], q: float) -> float:
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def measure(args, mods, jobs: list[Job], counter: RowCounter) -> dict:
    """Run whole passes for about args.seconds; with tracing, every second pass is traced.

    Latencies and pass times are in reference seconds (see refspeed.py); the
    wall-clock figures are kept for the log.
    """
    if args.trace:
        import tracer as tracing

        tracer = tracing.Tracer()
    failures: list[str] = []
    failed = attempted = 0
    latencies: dict[str, list[float]] = {}
    pass_s: dict[bool, list[float]] = {False: [], True: []}
    pass_wall: list[float] = []
    layer_passes: list[dict] = []
    start = time.perf_counter()
    while True:
        traced = bool(args.trace) and len(pass_s[False]) > len(pass_s[True])
        if traced:
            tracer.install()
            tracer.enabled = True
            rows_before = counter.rows
        pass_start = time.perf_counter()
        results = run_pass(jobs, mods.workloads.REFERENCE[args.workload])
        pass_wall.append(time.perf_counter() - pass_start)
        if traced:
            tracer.enabled = False
            tracer.uninstall()
            spans, events = tracer.take()
            layer = tracing.layer_metrics(spans, events)
            layer["losses.loss_evals"] = counter.rows - rows_before
            layer_passes.append(layer)
            last_spans = spans
        else:
            for job, (_wall, ref, _out, _exc) in zip(jobs, results):
                latencies.setdefault(job.cls, []).append(ref)
        pass_s[traced].append(sum(r[1] for r in results))
        failed += check_pass(jobs, results, failures)
        attempted += len(jobs)
        elapsed = time.perf_counter() - start
        typical = statistics.median(pass_wall)
        if elapsed + typical / 2 >= args.seconds and (not args.trace or layer_passes):
            break
    out = {"passes": len(pass_s[False]) + len(pass_s[True]), "jobs_per_pass": len(jobs),
           "pass_s": [round(t, 4) for t in pass_s[False] + pass_s[True]],
           "pass_wall_s": [round(t, 4) for t in pass_wall],
           "class_median_ms": {c: 1e3 * statistics.median(v) for c, v in sorted(latencies.items())}}
    if not args.trace:
        all_dt = sorted(dt for v in latencies.values() for dt in v)
        out["jobs_timed"] = len(all_dt)
        # the median pass, so one pass slowed by the host does not move the figure
        out["metrics"] = {
            "jobs_per_s": statistics.median(len(jobs) / t for t in pass_s[False]),
            "job_p50_ms": 1e3 * nearest_rank(all_dt, 0.50),
            "job_p90_ms": 1e3 * nearest_rank(all_dt, 0.90),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
    else:
        metrics = {name: statistics.median(p.get(name, 0.0) for p in layer_passes)
                   for name in set().union(*layer_passes)}
        untraced, traced_s = statistics.median(pass_s[False]), statistics.median(pass_s[True])
        metrics["trace.overhead_ms"] = 1e3 * (traced_s - untraced)
        metrics["trace.overhead_pct"] = 100.0 * (traced_s - untraced) / untraced
        if args.trace_out:
            _write_spans(Path(args.trace_out), args, last_spans)
        if args.workload == "bayes-numeric" and not args.toy:
            attempted += 1
            seconds, msg = _numeric_probe(mods, args.seed, counter)
            metrics["losses.numeric_probe_n4_s"] = seconds
            if msg:
                failed += 1
                failures.append(f"n=4 probe: {msg}")
        out["metrics"] = metrics
    out.update(attempted=attempted, failed=failed, failures=failures[:10])
    return out


def _numeric_probe(mods, seed: int, counter: RowCounter) -> tuple[float, Optional[str]]:
    """Time one n = 4 numeric-search bayes_risk call, in reference seconds, and check it against -max p."""
    import numpy as np
    import refspeed

    probe = mods.workloads.probe_case(seed)
    loss = improper_rule(mods, probe["rule"], probe["n"], counter)
    before = refspeed.speed(SAMPLE_S)
    start = time.perf_counter()
    try:
        res = mods.losses.bayes_risk(loss, np.array(probe["p"]), seed=probe["seed"])
    except Exception as e:  # counted as a failed job
        return time.perf_counter() - start, f"raised {e!r}"
    wall = time.perf_counter() - start
    seconds = refspeed.scale(wall, before, refspeed.speed(SAMPLE_FRAC * wall))
    if not _close(res.risk, probe["risk"], NUMERIC_RISK_TOL):
        return seconds, f"risk {res.risk} != closed form {probe['risk']}"
    return seconds, None


def _write_spans(path: Path, args, spans: list[list]) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    doc = {"workload": args.workload, "seed": args.seed, "pass": "last traced pass",
           "fields": ["id", "parent", "name", "start_ns", "end_ns", "attr"], "spans": spans}
    path.write_text(json.dumps(doc, separators=(",", ":")) + "\n")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("phase", choices=("setup", "run"))
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--inputs", type=Path, required=True)
    p.add_argument("--seconds", type=float, default=1.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--trace-out", default=None)
    p.add_argument("--toy", action="store_true")
    args = p.parse_args(argv)
    mods, specs, setup = _setup(args)
    if args.phase == "setup":
        print(json.dumps(setup), flush=True)
        return 0
    counter = RowCounter()
    jobs = build_jobs(mods, specs, args.inputs, counter)
    out = measure(args, mods, jobs, counter)
    out["versions"] = {"python": sys.version.split()[0], "numpy": import_module("numpy").__version__,
                       "scipy": import_module("scipy").__version__}
    print(json.dumps(out, sort_keys=True), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
