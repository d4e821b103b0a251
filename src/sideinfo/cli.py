"""Command-line surface: every operation scriptable with machine-readable reports.

One JSON report per run on standard output (sorted keys, compact
separators, so identical inputs give byte-identical bytes).  Exit codes
follow a CI-friendly contract:

    0   success (for find-violation, whether or not a witness exists)
    2   audit-dpa found at least one violation witness
    3   directed-info --conservation residual above tolerance
    64  usage error
    65  data or schema error
    70  internal numeric failure

`--pretty` renders a human table instead of the JSON document and is never
parsed by tests.  `SIDEINFO_SEED` supplies the default seed; it is read at
every dispatch, while the argument parser is built once per process.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import re
import sys
from functools import cache, partial
from pathlib import Path

from . import causality, losses, modelio, prob, sufficiency
from .benefit import benefit as compute_benefit
from .benefit import conditional_benefit, g_normalized
from .errors import (
    NotProper,
    SideinfoError,
    UnboundedBelow,
    WitnessVerificationFailed,
)

EXIT_OK = 0
EXIT_WITNESS = 2
EXIT_CONSERVATION = 3
EXIT_USAGE = 64
EXIT_DATA = 65
EXIT_NUMERIC = 70

WORKERS_HELP = "accepted for compatibility; has no effect (scans run sequentially)"


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # no flag starts with a digit, ".", inf or nan, so "-1e-9" and "-inf" are values
        self._negative_number_matcher = re.compile(r"^-(\.?\d|inf|nan)", re.IGNORECASE)

    def error(self, message):  # route argparse failures to exit code 64
        raise _UsageError(message)


def _parsed(kind, text: str):
    try:
        return kind(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid {kind.__name__} value: {text!r}") from None


def _at_least(low: int, value, text: str):
    if value < low:
        raise argparse.ArgumentTypeError(f"must be >= {low}, got {text!r}")
    return value


def _finite(text: str) -> float:
    value = _parsed(float, text)
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be finite, got {text!r}")
    return value


def _tolerance(text: str) -> float:
    return _at_least(0, _finite(text), text)


def _count(low: int, text: str) -> int:
    return _at_least(low, _parsed(int, text), text)


def _digest(path: str) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _load_kind(path: str, kinds: tuple[str, ...]):
    mf = modelio.parse_model(path)
    if mf.kind not in kinds:
        raise modelio.SchemaError(f"{path}: expected kind in {kinds}, got {mf.kind!r}")
    return mf.payload


def _resolve_loss(args, n: int) -> losses.LossSpec:
    if args.builtin is not None:
        return losses.builtin_loss(args.builtin, n)
    l = _load_kind(args.loss, ("loss",))
    name = losses._builtin_name(l)
    if name is not None and n >= 2:  # the same built-in at the joint's alphabet size
        return losses.builtin_loss(name, n)
    if l.n is not None and l.n != n:
        raise modelio.ValidationError(
            f"loss is for {l.n} symbols but the joint has {n}", field="loss"
        )
    return l


def _witness_doc(w: sufficiency.ViolationWitness, joint: dict) -> dict:
    """A witness's report entry; `joint` is `serialize_model(w.joint)`, made once per report."""
    return {
        "kind": w.kind,
        "c_before": w.c_before,
        "c_after": w.c_after,
        "transform": [v + 1 for v in w.transform.mapping],
        "joint": joint,
    }


def _report(args, results: dict, echo=(), files=(), tolerances=(), code: int = EXIT_OK, **extra) -> tuple[dict, int]:
    """A command's run report and exit code.

    The report echoes the arguments named in `echo` under "args", the
    SHA-256 of the files named in `files` under "inputs", and the
    arguments named in `tolerances`; an argument that was not given (None)
    is left out, so only the one of --loss/--builtin or --g/--g-file that
    was used shows.  `extra` adds top-level keys.
    """
    def given(names):
        return {k: getattr(args, k) for k in names if getattr(args, k) is not None}

    report = {
        "command": args.cmd,
        "args": given(echo),
        "inputs": {k: _digest(path) for k, path in given(files).items()},
        "seed": getattr(args, "seed", None),
        "tolerances": given(tolerances),
        "results": results,
    }
    return {**report, **extra}, code


def _emit(report: dict, pretty: bool) -> None:
    if pretty:
        _emit_pretty(report)
        return
    sys.stdout.write(json.dumps(report, sort_keys=True, separators=(",", ":")) + "\n")


def _emit_pretty(report: dict, indent: int = 0) -> None:
    pad = "  " * indent
    for key in sorted(report):
        value = report[key]
        if isinstance(value, dict):
            sys.stdout.write(f"{pad}{key}:\n")
            _emit_pretty(value, indent + 1)
        elif isinstance(value, list):
            sys.stdout.write(f"{pad}{key}: {json.dumps(value)}\n")
        else:
            sys.stdout.write(f"{pad}{key}: {value}\n")


@cache
def _parser() -> tuple[_Parser, list[argparse.Action]]:
    """The argparse tree and its --seed actions, built on the first dispatch and reused."""
    p = _Parser(prog="sideinfo", description=__doc__.splitlines()[0])
    sub = p.add_subparsers(dest="cmd", required=True)
    seeds = []

    def add_loss_flags(sp):
        grp = sp.add_mutually_exclusive_group(required=True)
        grp.add_argument("--loss", help="loss model file")
        grp.add_argument("--builtin", help="built-in loss name (log, zero-one, brier, spherical, absolute-ordered)")

    sp = sub.add_parser("benefit", help="benefit of side information C(loss, joint)")
    sp.add_argument("--joint", required=True)
    add_loss_flags(sp)
    sp.add_argument("--cond-w", action="store_true", help="joint file is 3-axis; condition on W")
    sp.add_argument("--scale", type=_finite, default=1.0,
                    help="report-level multiplier on the computed values (units only)")
    seeds.append(sp.add_argument("--seed", type=partial(_count, 0)))

    sp = sub.add_parser("audit-dpa", help="audit the data processing requirement")
    sp.add_argument("--joint", required=True)
    add_loss_flags(sp)
    sp.add_argument("--tol", type=_tolerance, default=1e-9)
    seeds.append(sp.add_argument("--seed", type=partial(_count, 0)))
    sp.add_argument("--workers", type=int, default=1, help=WORKERS_HELP)

    sp = sub.add_parser("find-violation", help="scan for a data-processing violation")
    add_loss_flags(sp)
    sp.add_argument("--n", type=partial(_count, 2), required=True)
    sp.add_argument("--budget", type=partial(_count, 0), default=10_000)
    seeds.append(sp.add_argument("--seed", type=partial(_count, 0)))
    sp.add_argument("--tol", type=_tolerance, default=1e-9)
    sp.add_argument("--workers", type=int, default=1, help=WORKERS_HELP)

    sp = sub.add_parser("scoring-rule", help="evaluate a Savage-constructed proper scoring rule")
    grp = sp.add_mutually_exclusive_group(required=True)
    grp.add_argument("--g", help="named convex function: neg-entropy or sum-squares")
    grp.add_argument("--g-file", help="loss model file; G is its normalized Bayes envelope")
    sp.add_argument("--eval", nargs=2, metavar=("X", "Q"), required=True,
                    help="1-based outcome and comma-separated forecast")

    sp = sub.add_parser("directed-info", help="directed information report for a process model")
    sp.add_argument("--model", required=True)
    sp.add_argument("--horizon", type=partial(_count, 1), required=True)
    sp.add_argument("--conservation", action="store_true")
    sp.add_argument("--tol", type=_finite, default=1e-9)

    sp = sub.add_parser("geweke", help="Geweke causality measure F_{Y->X} of a VAR model")
    sp.add_argument("--var", required=True)

    sp = sub.add_parser("estimate", help="empirical joint from CSV samples")
    sp.add_argument("--csv", required=True)
    sp.add_argument("--nx", type=partial(_count, 1), required=True)
    sp.add_argument("--ny", type=partial(_count, 1), required=True)
    sp.add_argument("--out", required=True)

    sp = sub.add_parser("mi", help="mutual information of a joint")
    sp.add_argument("--joint", required=True)

    sp = sub.add_parser("entropy", help="entropy of a distribution")
    sp.add_argument("--dist", required=True)

    for sp in sub.choices.values():  # last on every command, as in each command's help
        sp.add_argument("--pretty", action="store_true")
    return p, seeds


def _cmd_benefit(args) -> tuple[dict, int]:
    j = _load_kind(args.joint, ("joint3",) if args.cond_w else ("joint",))
    l = _resolve_loss(args, j.nx)
    if args.cond_w:
        results = {"c_value": args.scale * conditional_benefit(l, j, seed=args.seed)}
    else:
        rep = compute_benefit(l, j, seed=args.seed)
        results = {
            "c_value": args.scale * rep.c_value,
            "risk_no_side": args.scale * rep.risk_no_side,
            "risk_with_side": args.scale * rep.risk_with_side,
            "decomposition_residual": abs(args.scale) * rep.decomposition_residual,
            "per_y_minimizers": {
                str(y + 1): (m + 1 if isinstance(m, int) else [float(v) for v in m.probs])
                for y, m in rep.per_y_minimizers.items()
            },
        }
    return _report(args, results, ("builtin", "loss", "joint", "cond_w", "scale"), ("joint",))


def _cmd_audit_dpa(args) -> tuple[dict, int]:
    j = _load_kind(args.joint, ("joint",))
    rep = sufficiency.audit_dpa(_resolve_loss(args, j.nx), j, tol=args.tol, seed=args.seed)
    joint = modelio.serialize_model(j) if rep.violations else None  # every witness holds j itself
    results = {
        "c_before": rep.c_before,
        "transforms_checked": len(rep.entries),
        "equality_deviations": [
            {"transform": [v + 1 for v in e.transform.mapping], "c_after": e.c_after}
            for e in rep.equality_deviations
        ],
    }
    return _report(
        args, results, ("builtin", "loss", "joint"), ("joint",), ("tol",),
        EXIT_WITNESS if rep.violations else EXIT_OK, witnesses=[_witness_doc(w, joint) for w in rep.violations],
    )


def _cmd_find_violation(args) -> tuple[dict, int]:
    l = _resolve_loss(args, args.n)
    w = sufficiency.find_violation(l, args.n, budget=args.budget, seed=args.seed, tol=args.tol)
    results = {"witness": _witness_doc(w, modelio.serialize_model(w.joint)) if w is not None else None}
    return _report(args, results, ("builtin", "loss", "n", "budget"), tolerances=("tol",))


def _cmd_scoring_rule(args) -> tuple[dict, int]:
    q = prob.validate_dist(modelio._dec_array(args.eval[1].split(","), "eval", 1)).probs
    if not args.eval[0].isdecimal() or not 1 <= int(args.eval[0]) <= q.shape[0]:
        raise modelio.ValidationError(f"outcome {args.eval[0]!r} is not in 1..{q.shape[0]}", field="eval")
    args.x, args.q = int(args.eval[0]), [float(v) for v in q]  # echoed as parsed
    oracles = {"neg_entropy": prob.neg_entropy_oracle, "sum_squares": prob.sum_squares_oracle}
    if args.g_file is not None:
        g = g_normalized(_load_kind(args.g_file, ("loss",)))
    elif (key := args.g.replace("-", "_").lower()) in oracles:
        g = oracles[key]()
    else:
        raise modelio.ValidationError(f"unknown convex function {args.g!r}", field="g")
    value = losses.savage_from_G(g, n=q.shape[0]).eval_fn(args.x - 1, q)
    return _report(args, {"value": value}, ("g", "g_file", "x", "q"), ("g_file",))


def _cmd_directed_info(args) -> tuple[dict, int]:
    rep = causality.conservation_check(_load_kind(args.model, ("markov_process",)), args.horizon)
    results = {
        "forward": rep.forward,
        "reverse_delayed": rep.reverse_delayed,
        "instantaneous": rep.instantaneous,
        "total_mi": rep.total_mi,
        "delayed_forward": rep.delayed_forward,
        "conservation_residual": rep.residual,
        "conservation_residual_refined": rep.residual_refined,
    }
    failed = args.conservation and max(rep.residual, rep.residual_refined) > args.tol
    return _report(
        args, results, ("model", "horizon", "conservation"), ("model",), ("tol",),
        EXIT_CONSERVATION if failed else EXIT_OK,
    )


def _cmd_geweke(args) -> tuple[dict, int]:
    f = causality.geweke_F(_load_kind(args.var, ("var_model",)))
    return _report(args, {"direction": "y->x", "f": f}, ("var",), ("var",))


def _cmd_estimate(args) -> tuple[dict, int]:
    pairs = modelio.read_sample_csv(args.csv)
    modelio.write_model(modelio.empirical_joint(pairs, args.nx, args.ny), args.out)
    results = {"samples": len(pairs), "out_sha256": _digest(args.out)}
    return _report(args, results, ("csv", "nx", "ny", "out"), ("csv",))


def _cmd_mi(args) -> tuple[dict, int]:
    value = prob.mutual_information(_load_kind(args.joint, ("joint",)))
    return _report(args, {"value": value}, ("joint",), ("joint",))


def _cmd_entropy(args) -> tuple[dict, int]:
    return _report(args, {"value": prob.entropy(_load_kind(args.dist, ("dist",)))}, ("dist",), ("dist",))


_HANDLERS = {
    "benefit": _cmd_benefit,
    "audit-dpa": _cmd_audit_dpa,
    "find-violation": _cmd_find_violation,
    "scoring-rule": _cmd_scoring_rule,
    "directed-info": _cmd_directed_info,
    "geweke": _cmd_geweke,
    "estimate": _cmd_estimate,
    "mi": _cmd_mi,
    "entropy": _cmd_entropy,
}


def cli_dispatch(argv) -> int:
    """Run one subcommand; print its RunReport; return the exit code."""
    parser, seeds = _parser()
    for action in seeds:  # a string default goes through the type check, so a bad value exits 64
        action.default = os.environ.get("SIDEINFO_SEED", "0")
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        sys.stderr.write(f"usage error: {exc}\n")
        return EXIT_USAGE
    except SystemExit as exc:  # --help and friends
        return int(exc.code or 0)
    try:
        report, code = _HANDLERS[args.cmd](args)
    except (UnboundedBelow, NotProper, WitnessVerificationFailed, FloatingPointError) as exc:
        sys.stderr.write(f"numeric failure: {exc}\n")
        return EXIT_NUMERIC
    except (SideinfoError, FileNotFoundError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_DATA
    _emit(report, getattr(args, "pretty", False))
    return code


def main() -> None:
    sys.exit(cli_dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
