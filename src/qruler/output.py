"""Deterministic CSV/JSON artifact writers.

CSV values use 17-significant-digit scientific notation so downstream
comparisons can be file-based; JSON is emitted with sorted keys.  Nothing
here depends on wall-clock time, so identical inputs produce identical
bytes.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from typing import Iterable, Sequence

import numpy as np

FLOAT_FMT = "%.16e"
CSV_BLOCK_ROWS = 4096  # rows formatted by one % operation, which bounds the text held at once


def write_csv(path: str, header: Sequence[str], columns: Sequence[np.ndarray]) -> None:
    """One row per index; a floating column is written ``FLOAT_FMT``, any other column ``%s``."""
    lengths = {len(c) for c in columns}
    if len(lengths) != 1:
        raise ValueError("all columns must have equal length")
    (n_rows,) = lengths
    columns = [np.asarray(c) for c in columns]
    width = len(columns)
    line = ",".join(FLOAT_FMT if c.dtype.kind == "f" else "%s" for c in columns) + "\n"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        for start in range(0, n_rows, CSV_BLOCK_ROWS):
            rows = min(CSV_BLOCK_ROWS, n_rows - start)
            values = [None] * (width * rows)  # row-major: the columns interleaved
            for j, c in enumerate(columns):
                values[j::width] = c[start : start + rows].tolist()
            fh.write(line * rows % tuple(values))


def _jsonable(obj):
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating, float)):
        v = float(obj)
        if math.isinf(v):
            return "inf" if v > 0 else "-inf"
        if math.isnan(v):
            return "nan"
        return v
    if isinstance(obj, (np.integer,)):
        return int(obj)
    return obj


def write_json(path: str, payload: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(_jsonable(payload), fh, indent=2, sort_keys=True)
        fh.write("\n")


def config_digest(config: dict) -> str:
    canonical = json.dumps(_jsonable(config), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def write_manifest(outdir: str, command: str, config: dict, outputs: Iterable[str]) -> str:
    path = os.path.join(outdir, "manifest.json")
    write_json(
        path,
        {
            "command": command,
            "config": config,
            "config_digest": config_digest(config),
            "outputs": sorted(os.path.basename(p) for p in outputs),
        },
    )
    return path
