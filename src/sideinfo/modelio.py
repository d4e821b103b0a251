"""Model file formats and sample ingestion.

Documents are JSON with a `kind` tag and a schema `version`.  Every
numeric payload entry is a decimal string produced by Python's shortest
round-trip repr, so parse(serialize(x)) == x bit for bit and golden files
are stable across platforms.  1-based symbol indices are used on disk (and
in CSV samples); the in-memory API is 0-based.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .causality import MarkovJointProcess, VarModel
from .errors import (
    EmptySample,
    SchemaError,
    UnknownSymbol,
    ValidationError,
)
from .losses import ActionMatrixLoss, BUILTIN_LOSSES, LossSpec, builtin_loss
from .prob import SIMPLEX_TOL, Dist, Joint
from .sufficiency import Transform

SCHEMA_VERSION = 1

KINDS = ("dist", "joint", "joint3", "loss", "transform", "markov_process", "var_model")


@dataclass(frozen=True)
class ModelFile:
    kind: str
    payload: object


def _enc(x: float) -> str:
    return repr(float(x))


def _dec(s, field: str) -> float:
    if isinstance(s, bool) or not isinstance(s, str):
        raise ValidationError(f"expected a decimal string, got {s!r}", field=field)
    try:
        value = float(s)  # also reads "inf", "+inf" and "infinity" in any case
    except ValueError:
        value = math.nan
    if math.isnan(value):
        raise ValidationError(f"not a decimal number: {s!r}", field=field)
    return value


def _dec_vector(values, field: str) -> np.ndarray:
    if not isinstance(values, list):
        raise ValidationError("expected a list", field=field)
    return np.array([_dec(v, f"{field}[{i}]") for i, v in enumerate(values)])


def _dec_matrix(values, field: str) -> np.ndarray:
    if not isinstance(values, list) or not all(isinstance(r, list) for r in values):
        raise ValidationError("expected a list of lists", field=field)
    widths = {len(r) for r in values}
    if len(widths) != 1:
        raise ValidationError("ragged rows", field=field)
    return np.array(
        [[_dec(v, f"{field}[{i}][{j}]") for j, v in enumerate(r)] for i, r in enumerate(values)]
    )


def _need(doc: dict, key: str):
    if key not in doc:
        raise SchemaError(f"missing required key {key!r}")
    return doc[key]


def _strict_probs(arr: np.ndarray, field: str, tol: float = SIMPLEX_TOL) -> np.ndarray:
    """Validate a probability table without renormalizing, so bits survive a round trip."""
    if not np.all(np.isfinite(arr)):
        raise ValidationError("entries must be finite", field=field)
    if np.any(arr < -tol):
        raise ValidationError(f"negative mass beyond tolerance: {arr.min()!r}", field=field)
    s = arr.sum()
    if abs(s - 1.0) > tol:
        raise ValidationError(f"entries sum to {s!r}, not 1 within {tol}", field=field)
    return np.where(arr < 0, 0.0, arr)


def serialize_model(obj) -> dict:
    """Render a model object as a JSON-ready document."""
    if isinstance(obj, ModelFile):
        return serialize_model(obj.payload)
    if isinstance(obj, Dist):
        return {
            "version": SCHEMA_VERSION,
            "kind": "dist",
            "p": [_enc(v) for v in obj.probs],
        }
    if isinstance(obj, Joint):
        if obj.has_w:
            return {
                "version": SCHEMA_VERSION,
                "kind": "joint3",
                "dims": list(obj.table.shape),
                "p": [
                    [[_enc(v) for v in row] for row in plane] for plane in obj.table.tolist()
                ],
            }
        return {
            "version": SCHEMA_VERSION,
            "kind": "joint",
            "rows": obj.nx,
            "cols": obj.ny,
            "p": [[_enc(v) for v in row] for row in obj.table.tolist()],
        }
    if isinstance(obj, ActionMatrixLoss) and obj.name is None:
        return {
            "version": SCHEMA_VERSION,
            "kind": "loss",
            "matrix": [[_enc(v) for v in row] for row in obj.matrix.tolist()],
        }
    if getattr(obj, "name", None) in BUILTIN_LOSSES:
        doc = {"version": SCHEMA_VERSION, "kind": "loss", "builtin": obj.name}
        doc["n"] = int(obj.n)
        return doc
    if isinstance(obj, Transform):
        return {
            "version": SCHEMA_VERSION,
            "kind": "transform",
            "map": [v + 1 for v in obj.mapping],
        }
    if isinstance(obj, MarkovJointProcess):
        return {
            "version": SCHEMA_VERSION,
            "kind": "markov_process",
            "nx": obj.nx,
            "ny": obj.ny,
            "initial": [_enc(v) for v in obj.initial],
            "kernel": [[_enc(v) for v in row] for row in obj.kernel.tolist()],
        }
    if isinstance(obj, VarModel):
        return {
            "version": SCHEMA_VERSION,
            "kind": "var_model",
            "order": obj.order,
            "a": [[[_enc(v) for v in row] for row in a.tolist()] for a in obj.coeffs],
            "sigma": [[_enc(v) for v in row] for row in obj.sigma.tolist()],
        }
    raise SchemaError(f"cannot serialize object of type {type(obj).__name__}")


def parse_document(doc: dict) -> ModelFile:
    """Validate and decode a parsed JSON document into a ModelFile."""
    if not isinstance(doc, dict):
        raise SchemaError("document must be a JSON object")
    kind = _need(doc, "kind")
    if kind not in KINDS:
        raise SchemaError(f"unknown kind {kind!r}; expected one of {KINDS}")
    version = doc.get("version", SCHEMA_VERSION)
    if version != SCHEMA_VERSION:
        raise SchemaError(f"unsupported schema version {version!r}")
    try:
        if kind == "dist":
            return ModelFile(kind, Dist(_strict_probs(_dec_vector(_need(doc, "p"), "p"), "p")))
        if kind == "joint":
            p = _dec_matrix(_need(doc, "p"), "p")
            rows, cols = int(_need(doc, "rows")), int(_need(doc, "cols"))
            if p.shape != (rows, cols):
                raise ValidationError(f"p has shape {p.shape}, expected ({rows}, {cols})", field="p")
            return ModelFile(kind, Joint(_strict_probs(p, "p")))
        if kind == "joint3":
            dims = _need(doc, "dims")
            raw = _need(doc, "p")
            if not isinstance(raw, list):
                raise ValidationError("expected a 3-deep nested list", field="p")
            arr = np.array(
                [
                    [[_dec(v, f"p[{i}][{j}][{k}]") for k, v in enumerate(row)] for j, row in enumerate(plane)]
                    for i, plane in enumerate(raw)
                ]
            )
            if list(arr.shape) != list(dims):
                raise ValidationError(f"p has shape {arr.shape}, expected {dims}", field="p")
            return ModelFile(kind, Joint(_strict_probs(arr, "p")))
        if kind == "loss":
            return ModelFile(kind, _parse_loss(doc))
        if kind == "transform":
            raw = _need(doc, "map")
            if not isinstance(raw, list) or not all(isinstance(v, int) for v in raw):
                raise ValidationError("map must be a list of 1-based integers", field="map")
            return ModelFile(kind, Transform(tuple(v - 1 for v in raw)))
        if kind == "markov_process":
            nx, ny = int(_need(doc, "nx")), int(_need(doc, "ny"))
            initial = _dec_vector(_need(doc, "initial"), "initial")
            kernel = _dec_matrix(_need(doc, "kernel"), "kernel")
            return ModelFile(kind, MarkovJointProcess(nx=nx, ny=ny, initial=initial, kernel=kernel))
        if kind == "var_model":
            order = int(_need(doc, "order"))
            raw = _need(doc, "a")
            if not isinstance(raw, list) or len(raw) != order:
                raise ValidationError(f"a must list {order} coefficient matrices", field="a")
            coeffs = np.array([_dec_matrix(a, f"a[{i}]") for i, a in enumerate(raw)])
            sigma = _dec_matrix(_need(doc, "sigma"), "sigma")
            return ModelFile(kind, VarModel(coeffs=coeffs, sigma=sigma))
    except (ValidationError, SchemaError):
        raise
    except Exception as exc:  # constructor-level validation failures carry context
        raise ValidationError(str(exc), field=kind) from exc
    raise SchemaError(f"unhandled kind {kind!r}")


def _parse_loss(doc: dict) -> LossSpec:
    if "builtin" in doc:
        name = doc["builtin"]
        if not isinstance(name, str):
            raise ValidationError("builtin must be a string", field="builtin")
        n = doc.get("n", 2)
        if not isinstance(n, int) or n < 2:
            raise ValidationError("n must be an integer >= 2", field="n")
        return builtin_loss(name, n)
    if "matrix" in doc:
        return ActionMatrixLoss(matrix=_dec_matrix(doc["matrix"], "matrix"))
    raise SchemaError("loss document needs either 'builtin' or 'matrix'")


def parse_model_text(text: str) -> ModelFile:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    return parse_document(doc)


def parse_model(path) -> ModelFile:
    """Load and validate a model document from a file."""
    return parse_model_text(Path(path).read_text())


def write_model(obj, path) -> None:
    doc = serialize_model(obj)
    Path(path).write_text(json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n")


def empirical_joint(
    pairs: Sequence[tuple[int, int]],
    nx: int,
    ny: int,
    index_base: int = 1,
) -> Joint:
    """Plug-in empirical joint from (x, y) samples (1-based by default, like CSV)."""
    if len(pairs) == 0:
        raise EmptySample("no samples provided")
    counts = np.zeros((nx, ny))
    for i, (x, y) in enumerate(pairs):
        xi, yi = int(x) - index_base, int(y) - index_base
        if not (0 <= xi < nx and 0 <= yi < ny):
            raise UnknownSymbol(f"sample {i} = ({x}, {y}) outside {nx} x {ny} alphabet")
        counts[xi, yi] += 1.0
    return Joint(counts / counts.sum())


def read_sample_csv(path) -> list[tuple[int, int]]:
    """Read an `x,y` header CSV of 1-based integer symbol pairs."""
    lines = Path(path).read_text().strip().splitlines()
    if not lines:
        raise EmptySample("empty CSV file")
    header = [h.strip().lower() for h in lines[0].split(",")]
    if header != ["x", "y"]:
        raise ValidationError(f"expected header 'x,y', got {lines[0]!r}", field="header")
    out = []
    for ln, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        parts = line.split(",")
        if len(parts) != 2:
            raise ValidationError(f"line {ln}: expected two columns", field=f"line {ln}")
        try:
            out.append((int(parts[0]), int(parts[1])))
        except ValueError:
            raise ValidationError(f"line {ln}: symbols must be integers", field=f"line {ln}") from None
    if not out:
        raise EmptySample("CSV has a header but no samples")
    return out
