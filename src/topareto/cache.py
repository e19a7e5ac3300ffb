"""On-disk cache for optimization results.

One entry per (problem, volume fraction, initial design, optimizer config,
cache version), stored as a JSON summary plus a raw ``.npy`` density array. Writes go
through a temp file and an atomic rename, so concurrent insert-or-get from
several workers is safe: last writer wins with identical content.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import tempfile
from functools import lru_cache
from pathlib import Path

import numpy as np

from .fem2d import DensityField, ProblemSpec
from .simp import END_STATES, DesignResult, OptimizerConfig

# enters every result key: bump it whenever a change to the optimizer can
# change a stored result, so that caches written before are never served
CACHE_VERSION = 7
# a sweep's tasks share the problem and the config: serialize them once
_key_parts = lru_cache(maxsize=64)(lambda problem, cfg: (problem.to_json(), cfg.digest()))


def result_key(problem: ProblemSpec, vf: float, init_desc: str,
               cfg: OptimizerConfig) -> str:
    problem_json, cfg_digest = _key_parts(problem, cfg)
    doc = {
        "version": CACHE_VERSION,
        "problem": problem_json,
        "vf": repr(float(vf)),
        "init": init_desc,
        "cfg": cfg_digest,
    }
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()[:32]


def field_descriptor(values: np.ndarray) -> str:
    """Cache descriptor for an explicit warm-start field."""
    return "field:" + hashlib.sha256(np.ascontiguousarray(values).tobytes()).hexdigest()[:24]


class RunCache:
    """Insert-or-get store under one root directory; ``None`` root disables it."""

    def __init__(self, root: str | Path | None):
        self.root = Path(root) if root is not None else None
        if self.root is not None:
            self.root.mkdir(parents=True, exist_ok=True)

    def get(self, key: str) -> DesignResult | None:
        if self.root is None:
            return None
        meta_path = self.root / f"{key}.json"
        data_path = self.root / f"{key}.npy"
        if not (meta_path.exists() and data_path.exists()):
            return None
        # an entry that cannot be read back whole is a miss
        try:
            meta = json.loads(meta_path.read_text())
            numbers = (meta["compliance_p"], meta["compliance_p1"], *meta["history"])
            # finite numbers (a bool is not one) and a known end state
            if not (all(type(v) in (int, float) and abs(v) < np.inf for v in numbers)
                    and meta["end"] in END_STATES):
                return None
            result = DesignResult(DensityField(np.load(data_path)), meta["compliance_p"],
                                  meta["compliance_p1"], meta["end"],
                                  tuple(meta["history"]))
            # the derived values must be stored, and agree in type and value
            pairs = [(meta[name], getattr(result, name)) for name in DesignResult.DERIVED]
            return result if all(type(a) is type(b) and a == b for a, b in pairs) else None
        except (OSError, ValueError, KeyError, TypeError):
            return None

    def put(self, key: str, result: DesignResult) -> None:
        if self.root is None:
            return
        self._atomic_write(self.root / f"{key}.json",
                           json.dumps(result.summary(), sort_keys=True).encode())
        buf = io.BytesIO()
        np.save(buf, result.densities.values)
        self._atomic_write(self.root / f"{key}.npy", buf.getvalue())

    def _atomic_write(self, path: Path, data: bytes) -> None:
        fd, tmp = tempfile.mkstemp(dir=self.root, prefix=".tmp-")
        try:
            with os.fdopen(fd, "wb") as fh:
                fh.write(data)
            os.replace(tmp, path)
        except OSError:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise
