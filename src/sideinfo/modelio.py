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
    NegativeMass,
    NotNormalized,
    ParameterOutOfRange,
    SchemaError,
    UnknownSymbol,
    ValidationError,
)
from .losses import ActionMatrixLoss, LossSpec, ScoringRuleLoss, _builtin_name, builtin_loss
from .prob import Dist, Joint, _simplex
from .sufficiency import Transform

SCHEMA_VERSION = 1

KINDS = ("dist", "joint", "joint3", "loss", "transform", "markov_process", "var_model")


@dataclass(frozen=True)
class ModelFile:
    kind: str
    payload: object


def _dec(s, field: str, i: int) -> float:
    """Entry i of `field` as a float; its path, field[i], is built only for an error."""
    if isinstance(s, bool) or not isinstance(s, str):
        raise ValidationError(f"expected a decimal string, got {s!r}", field=f"{field}[{i}]")
    try:
        value = float(s)  # also reads "inf", "+inf" and "infinity" in any case
    except ValueError:
        value = math.nan
    if math.isnan(value):
        raise ValidationError(f"not a decimal number: {s!r}", field=f"{field}[{i}]")
    return value


_LISTS = {1: "a list", 2: "a list of lists", 3: "a 3-deep nested list"}


def _dec_lists(values, field: str, ndim: int) -> list:
    """The floats of an ndim-deep nested list of decimal strings, checked level by level."""
    if not isinstance(values, list) or (ndim > 1 and not all(isinstance(r, list) for r in values)):
        raise ValidationError(f"expected {_LISTS[ndim]}", field=field)
    if ndim == 1:
        return [_dec(v, field, i) for i, v in enumerate(values)]
    if ndim == 2 and len({len(r) for r in values}) != 1:
        raise ValidationError("ragged rows", field=field)
    return [_dec_lists(v, f"{field}[{i}]", ndim - 1) for i, v in enumerate(values)]


def _dec_array(values, field: str, ndim: int) -> np.ndarray:
    """Decode an ndim-deep nested list of decimal strings into one float array.

    A bad entry is named by its path, `field[i][j]...`; rows of unequal
    length, at any depth, are "ragged rows".
    """
    try:
        return np.array(_dec_lists(values, field, ndim), dtype=float)
    except ValueError:  # planes of unequal shape
        raise ValidationError("ragged rows", field=field) from None


def _enc_array(values) -> list:
    """The nested-list layout of an array, each entry a decimal string."""
    a = np.asarray(values, dtype=float)
    return np.array([repr(v) for v in a.ravel().tolist()], dtype=object).reshape(a.shape).tolist()


def _int(value, field: str) -> int:
    """A header field: a JSON integer, not a bool, string or float."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValidationError(f"expected a JSON integer, got {value!r}", field=field)
    return value


def _ints(values, field: str) -> list[int]:
    if not isinstance(values, list):
        raise ValidationError("expected a list of integers", field=field)
    return [_int(v, f"{field}[{i}]") for i, v in enumerate(values)]


def _need(doc: dict, key: str):
    if key not in doc:
        raise SchemaError(f"missing required key {key!r}")
    return doc[key]


def _doc(kind: str, **fields) -> dict:
    return {"version": SCHEMA_VERSION, "kind": kind, **fields}


def serialize_model(obj) -> dict:
    """Render a model object as a JSON-ready document."""
    if isinstance(obj, ModelFile):
        return serialize_model(obj.payload)
    if isinstance(obj, Dist):
        return _doc("dist", p=_enc_array(obj.probs))
    if isinstance(obj, Joint):
        if obj.has_w:
            return _doc("joint3", dims=list(obj.table.shape), p=_enc_array(obj.table))
        return _doc("joint", rows=obj.nx, cols=obj.ny, p=_enc_array(obj.table))
    if isinstance(obj, (ActionMatrixLoss, ScoringRuleLoss)):
        name = _builtin_name(obj)  # a loss only named like a built-in is written as itself
        if name is not None and obj.n is not None:
            return _doc("loss", builtin=name, n=int(obj.n))
        if isinstance(obj, ActionMatrixLoss):
            return _doc("loss", matrix=_enc_array(obj.matrix))
    if isinstance(obj, Transform):
        return _doc("transform", map=[v + 1 for v in obj.mapping])
    if isinstance(obj, MarkovJointProcess):
        return _doc("markov_process", nx=obj.nx, ny=obj.ny, initial=_enc_array(obj.initial), kernel=_enc_array(obj.kernel))
    if isinstance(obj, VarModel):
        return _doc("var_model", order=obj.order, a=_enc_array(obj.coeffs), sigma=_enc_array(obj.sigma))
    raise SchemaError(f"cannot serialize object of type {type(obj).__name__}")


def parse_document(doc: dict) -> ModelFile:
    """Validate and decode a parsed JSON document into a ModelFile.

    Header fields (`version`, `rows`, `cols`, `dims`, `nx`, `ny`, `order`
    and the `map` entries) must be JSON integers; payload entries are
    decimal strings.  A dist or joint payload is checked as `prob` checks a
    distribution (a failure names field `p`) but not renormalized, so its
    bits survive a round trip.
    """
    if not isinstance(doc, dict):
        raise SchemaError("document must be a JSON object")
    kind = _need(doc, "kind")
    if kind not in KINDS:
        raise SchemaError(f"unknown kind {kind!r}; expected one of {KINDS}")
    version = _int(doc.get("version", SCHEMA_VERSION), "version")
    if version != SCHEMA_VERSION:
        raise SchemaError(f"unsupported schema version {version!r}")
    try:
        if kind == "dist":
            return ModelFile(kind, Dist(_simplex(_dec_array(_need(doc, "p"), "p", 1), 1)[0]))
        if kind in ("joint", "joint3"):
            p = _dec_array(_need(doc, "p"), "p", 2 if kind == "joint" else 3)
            if kind == "joint":
                shape = (_int(_need(doc, "rows"), "rows"), _int(_need(doc, "cols"), "cols"))
            else:
                shape = _ints(_need(doc, "dims"), "dims")
            if list(p.shape) != list(shape):
                raise ValidationError(f"p has shape {p.shape}, expected {shape}", field="p")
            return ModelFile(kind, Joint(_simplex(p, p.ndim)[0]))
        if kind == "loss":
            return ModelFile(kind, _parse_loss(doc))
        if kind == "transform":
            labels = _ints(_need(doc, "map"), "map")
            try:
                return ModelFile(kind, Transform(tuple(v - 1 for v in labels)))
            except ParameterOutOfRange as exc:  # Transform's own check, labels reported 1-based as in the file
                text = f"labels must be contiguous from 1, got {sorted(set(labels))}" if labels else str(exc)
                raise ValidationError(text, field="map") from None
        if kind == "markov_process":
            nx, ny = _int(_need(doc, "nx"), "nx"), _int(_need(doc, "ny"), "ny")
            initial = _dec_array(_need(doc, "initial"), "initial", 1)
            kernel = _dec_array(_need(doc, "kernel"), "kernel", 2)
            return ModelFile(kind, MarkovJointProcess(nx=nx, ny=ny, initial=initial, kernel=kernel))
        if kind == "var_model":
            order = _int(_need(doc, "order"), "order")
            raw = _need(doc, "a")
            if not isinstance(raw, list) or len(raw) != order:
                raise ValidationError(f"a must list {order} coefficient matrices", field="a")
            coeffs = np.array([_dec_array(a, f"a[{i}]", 2) for i, a in enumerate(raw)])
            return ModelFile(kind, VarModel(coeffs=coeffs, sigma=_dec_array(_need(doc, "sigma"), "sigma", 2)))
    except (ValidationError, SchemaError):
        raise
    except (NegativeMass, NotNormalized) as exc:
        raise ValidationError(str(exc), field="p") from exc
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
        return ActionMatrixLoss(matrix=_dec_array(doc["matrix"], "matrix", 2))
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


def empirical_joint(pairs: Sequence[tuple[int, int]], nx: int, ny: int) -> Joint:
    """Plug-in empirical joint from 1-based (x, y) samples, as in CSV."""
    if len(pairs) == 0:
        raise EmptySample("no samples provided")
    counts = np.zeros((nx, ny))
    for i, (x, y) in enumerate(pairs):
        xi, yi = int(x) - 1, int(y) - 1
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
