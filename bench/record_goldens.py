"""Record the geweke oracle: a fixed catalogue of stationary VAR(1..3) models and F.

The causal-horizon workload draws its geweke jobs from this catalogue and
checks each reported F against the value recorded here, within 1e-9
relative.  Re-record only when the catalogue itself must change, and then
with the library at a commit whose geweke_F is trusted:

    python3 bench/record_goldens.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import sideinfo as si  # noqa: E402

from workloads import GEWEKE_GOLDENS, _enc  # noqa: E402

CATALOGUE_SEED = 20140317
PER_ORDER = 16


def _model(rng: np.random.Generator, order: int) -> tuple[np.ndarray, np.ndarray]:
    coeffs = rng.normal(0.0, 0.4, size=(order, 2, 2))
    coeffs[0, 0, 1] = rng.choice([-1.0, 1.0]) * rng.uniform(0.1, 0.4)  # y drives x, so F > 0
    comp = np.zeros((2 * order, 2 * order))
    comp[:2, :] = np.concatenate(list(coeffs), axis=1)
    comp[2:, :-2] = np.eye(2 * (order - 1))
    radius = max(abs(np.linalg.eigvals(comp)))
    target = rng.uniform(0.4, 0.85)
    # scaling lag k by s**k scales every companion eigenvalue by s
    s = target / radius
    coeffs = coeffs * (s ** np.arange(1, order + 1))[:, None, None]
    low = np.array([[rng.uniform(0.5, 1.5), 0.0], [rng.uniform(-0.5, 0.5), rng.uniform(0.5, 1.5)]])
    return coeffs, low @ low.T


def main() -> None:
    rng = np.random.default_rng(CATALOGUE_SEED)
    models = []
    for order in (1, 2, 3):
        for _ in range(PER_ORDER):
            coeffs, sigma = _model(rng, order)
            a = [[[_enc(v) for v in row] for row in lag] for lag in coeffs]
            sig = [[_enc(v) for v in row] for row in sigma]
            v = si.VarModel(coeffs=np.array(a, dtype=float), sigma=np.array(sig, dtype=float))
            models.append({"order": order, "a": a, "sigma": sig, "f": _enc(si.geweke_F(v))})
    doc = {
        "about": "VAR models for the causal-horizon geweke jobs; f is geweke_F (y->x) "
                 "as recorded by bench/record_goldens.py",
        "catalogue_seed": CATALOGUE_SEED,
        "models": models,
    }
    GEWEKE_GOLDENS.write_text(json.dumps(doc, indent=1) + "\n")
    print(f"wrote {len(models)} models to {GEWEKE_GOLDENS}")


if __name__ == "__main__":
    main()
