"""Outside-in layer tracing: rebind public functions where their callers look them up.

Nothing inside `sideinfo` is edited.  Each traced function is replaced, in
the namespace its caller resolves it from, by a wrapper that records a span
(name, start, end, parent, one attribute) or just an event.  Spans stay in
memory for one pass; `layer_metrics` turns them into per-layer counts and
self times, where a span's self time is its duration minus the part of it
covered by its child spans.

Spans started on a worker thread with no open span of their own (the
`--workers 2` pools in sufficiency) take the innermost open span of the
main thread as parent, and a parent's covered time is the union of its
children's intervals, so overlapping worker spans are not counted twice.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import os
import sys
import threading
import time
from collections import Counter, defaultdict

MEASURES = ("conservation_check", "directed_info", "reverse_delayed_di",
            "causally_cond_entropy", "di_rate", "transfer_entropy")


def _arg(args, kwargs, pos, key, default=None):
    if key in kwargs:
        return kwargs[key]
    return args[pos] if len(args) > pos else default


def _unroll_states(args, kwargs, result):
    m = args[0]
    return (m.nx * m.ny) ** _arg(args, kwargs, 1, "n")


class Tracer:
    """Span recorder for the benchmark's calls into sideinfo's layers."""

    def __init__(self):
        self.spans: list[list] = []  # [id, parent id, name, start_ns, end_ns, attr]
        self.events: list[str] = []
        self.enabled = False
        self.missing: list[str] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._main_stack: list[int] = []
        self._local.stack = self._main_stack
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _span(self, name, original, attr_fn):
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return original(*args, **kwargs)
            stack = tracer._stack()
            if stack:
                parent = stack[-1]
            else:
                parent = tracer._main_stack[-1] if tracer._main_stack else -1
            sid = next(tracer._ids)
            span = [sid, parent, name, time.perf_counter_ns(), 0, None]
            tracer.spans.append(span)  # list.append is atomic under the GIL
            stack.append(sid)
            try:
                result = original(*args, **kwargs)
            finally:
                span[4] = time.perf_counter_ns()
                stack.pop()
            if attr_fn is not None:
                span[5] = attr_fn(args, kwargs, result)
            return result

        return wrapper

    def _event(self, name, original, hit_fn):
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            result = original(*args, **kwargs)
            if tracer.enabled:
                tracer.events.append(name)
                if hit_fn is not None and hit_fn(result):
                    tracer.events.append(name + ".hit")
            return result

        return wrapper

    def _patch(self, module: str, attr: str, make):
        mod = importlib.import_module(module)
        original = getattr(mod, attr, None)
        if original is None:
            self.missing.append(f"{module}.{attr}")
            return
        self._patches.append((mod, attr, original))
        setattr(mod, attr, make(original))

    def span(self, module, attr, name, attr_fn=None):
        self._patch(module, attr, lambda f: self._span(name, f, attr_fn))

    def event(self, module, attr, name, hit_fn=None):
        self._patch(module, attr, lambda f: self._event(name, f, hit_fn))

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        """Rebind every traced function; `uninstall` restores the originals."""
        s, e = self.span, self.event
        s("sideinfo.cli", "cli_dispatch", "cli.dispatch")
        s("sideinfo.cli", "compute_benefit", "benefit.benefit")
        s("sideinfo.cli", "g_normalized", "benefit.g_normalized")
        s("sideinfo.modelio", "parse_model", "modelio.parse",
          lambda a, k, r: os.path.getsize(a[0]))
        s("sideinfo.modelio", "serialize_model", "modelio.serialize")
        tier = lambda a, k, r: r.method  # noqa: E731
        s("sideinfo.losses", "bayes_risk", "losses.bayes_risk", tier)
        s("sideinfo.losses", "audit_propriety", "losses.audit_propriety")
        # sideinfo.benefit is the function; the module is reached by name
        s("sideinfo.benefit", "bayes_risk", "losses.bayes_risk", tier)
        s("sideinfo.benefit", "g_normalized", "benefit.g_normalized")
        s("sideinfo.benefit", "c_value", "benefit.c_value")
        e("sideinfo.benefit", "condition_on_y", "prob.condition_on_y")
        s("sideinfo.sufficiency", "c_value", "benefit.c_value")
        s("sideinfo.sufficiency", "find_violation", "sufficiency.find_violation",
          lambda a, k, r: _arg(a, k, 5, "workers", 1))
        s("sideinfo.sufficiency", "audit_dpa", "sufficiency.audit_dpa",
          lambda a, k, r: len(r.entries))
        e("sideinfo.sufficiency", "push_forward", "sufficiency.push_forward")
        e("sideinfo.sufficiency", "padded_push_forward", "sufficiency.push_forward")
        for gen in ("_grid_candidate", "_merge_candidate", "_perm_candidate"):
            e("sideinfo.sufficiency", gen, "sufficiency.candidate", lambda r: r is not None)
        s("sideinfo.causality", "unroll", "causality.unroll", _unroll_states)
        s("sideinfo.causality", "entropy", "prob.entropy")
        for fn in MEASURES:
            s("sideinfo.causality", fn, "causality.measure")
        s("sideinfo.causality", "var_autocovariances", "causality.autocov",
          lambda a, k, r: _arg(a, k, 1, "lags"))
        s("sideinfo.causality", "geweke_F", "causality.geweke")
        if self.missing:
            sys.stderr.write("trace: not found, reads 0: " + ", ".join(self.missing) + "\n")

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patches):
            setattr(mod, attr, original)
        self._patches.clear()
        self.missing.clear()

    def take(self) -> tuple[list[list], list[str]]:
        """Hand over and forget the spans and events recorded so far."""
        spans, events = self.spans, self.events
        self.spans, self.events = [], []
        return spans, events


# ---------------------------------------------------------------------------
# aggregation
# ---------------------------------------------------------------------------


def _covered(intervals: list[tuple[int, int]]) -> int:
    """Length of the union of [start, end) intervals."""
    total, cur_start, cur_end = 0, None, None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: list[list]) -> dict[int, int]:
    """Span id -> duration minus the union of its children's intervals, in ns."""
    children = defaultdict(list)
    for sid, parent, _name, start, end, _attr in spans:
        children[parent].append((start, end))
    out = {}
    for sid, _parent, _name, start, end, _attr in spans:
        kids = [(max(s, start), min(e, end)) for s, e in children.get(sid, ())]
        out[sid] = end - start - _covered([k for k in kids if k[0] < k[1]])
    return out


TIERS = ("column-min", "proper-fixed-point", "numeric-search")


def layer_metrics(spans: list[list], events: list[str]) -> dict[str, float]:
    """Per-layer counts and times (ms) of one pass; see bench/README.md for the map."""
    own = self_times(spans)
    m: dict[str, float] = defaultdict(float)
    for sid, _parent, name, start, end, attr in spans:
        self_ms = own[sid] / 1e6
        incl_ms = (end - start) / 1e6
        if attr is None:  # the call raised before its result could be read
            attr = 0
        if name == "losses.bayes_risk":
            if attr not in TIERS:
                continue
            m[f"losses.bayes_risk_calls.{attr}"] += 1
            m[f"losses.bayes_risk_ms.{attr}"] += self_ms
        elif name == "losses.audit_propriety":
            m["losses.propriety_ms"] += self_ms
        elif name == "benefit.c_value":
            m["benefit.c_value_calls"] += 1
            m["benefit.c_value_self_ms"] += self_ms
        elif name == "benefit.benefit":
            m["benefit.benefit_self_ms"] += self_ms
        elif name == "benefit.g_normalized":
            m["benefit.g_normalized_ms"] += incl_ms
        elif name == "prob.entropy":
            m["prob.entropy_calls"] += 1
            m["prob.entropy_ms"] += self_ms
        elif name == "sufficiency.find_violation":
            m[f"sufficiency.scan_self_ms.w{1 if attr == 1 else 2}"] += self_ms
        elif name == "sufficiency.audit_dpa":
            m["sufficiency.audit_dpa_ms"] += incl_ms
            m["sufficiency.audit_dpa_self_ms"] += self_ms
            m["sufficiency.transforms_checked"] += attr
        elif name == "causality.unroll":
            m["causality.unroll_ms"] += self_ms
            m["causality.states"] += attr
            m["causality.unroll_bytes"] += 8 * attr  # float64 table, computed not measured
        elif name == "causality.measure":
            m["causality.measure_self_ms"] += self_ms
        elif name == "causality.autocov":
            m["causality.autocov_ms"] += self_ms
            m["causality.autocov_lags"] += attr
        elif name == "causality.geweke":
            m["causality.geweke_ms"] += incl_ms
        elif name == "modelio.parse":
            m["modelio.parse_calls"] += 1
            m["modelio.parse_ms"] += self_ms
            m["modelio.input_bytes"] += attr
        elif name == "modelio.serialize":
            m["modelio.serialize_ms"] += self_ms
        elif name == "cli.dispatch":
            m["cli.calls"] += 1
            m["cli.dispatch_self_ms"] += self_ms
    counts = Counter(events)
    m["prob.condition_on_y_calls"] = counts["prob.condition_on_y"]
    m["sufficiency.push_forward_calls"] = counts["sufficiency.push_forward"]
    m["sufficiency.candidates_attempted"] = counts["sufficiency.candidate"]
    m["sufficiency.candidates_evaluated"] = counts["sufficiency.candidate.hit"]
    attempted = counts["sufficiency.candidate"]
    m["sufficiency.evaluated_ratio"] = counts["sufficiency.candidate.hit"] / attempted if attempted else 0.0
    m["trace.spans"] = len(spans)
    return dict(m)
