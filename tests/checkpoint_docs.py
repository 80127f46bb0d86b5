"""Checkpoint documents for tests: format-2 data built with struct, and a
format-2 document rewritten as format 1, whose data are lists of floats."""

from __future__ import annotations

import base64
import json
import struct
from pathlib import Path

import numpy as np


def b64_floats(values) -> str:
    """The format-2 `data` of `values`, built with struct, not NumPy."""
    values = list(values)
    return base64.b64encode(struct.pack(f"<{len(values)}d", *values)).decode()


def with_data(version: int, values) -> list | str:
    """Tensor `data` holding `values` in format `version`."""
    return list(values) if version == 1 else b64_floats(values)


def as_version(doc: dict, version: int) -> dict:
    """`doc`, a format-2 checkpoint, in format `version`."""
    if version == 2:
        return doc
    tensors = [{**e, "data": np.frombuffer(base64.b64decode(e["data"]), "<f8").tolist()}
               for e in doc["tensors"]]
    return {**doc, "format_version": 1, "tensors": tensors}


def write_version_1(src, dst) -> None:
    """Rewrite the format-2 checkpoint `src` at `dst` as the format-1 writer
    wrote it: the same keys, separators and key order."""
    doc = as_version(json.loads(Path(src).read_text(encoding="utf-8")), 1)
    text = json.dumps(doc, separators=(",", ":"), sort_keys=True)
    Path(dst).write_text(text + "\n", encoding="utf-8")
