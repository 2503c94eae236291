"""Bit-exact text checkpoints: kind tag + shape header + row-major weights.

Weight arrays are serialized as base64 of their little-endian float64 bytes,
so save/load round-trips are exact to the bit. The config echo is stored
verbatim for reproducibility audits. Extra named arrays (e.g. optimizer
moments) ride along under ``extras``.
"""

from __future__ import annotations

import base64
import json
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidInputError

FORMAT = "aopu-checkpoint"
FORMAT_VERSION = 1


def _encode_array(a: np.ndarray) -> dict:
    arr = np.ascontiguousarray(a, dtype="<f8")
    return {
        "shape": list(arr.shape),
        "data": base64.b64encode(arr.tobytes()).decode("ascii"),
    }


def _decode_array(obj: dict, path, name: str) -> np.ndarray:
    raw = base64.b64decode(obj["data"])
    shape = tuple(int(n) for n in obj["shape"])
    if min(shape, default=0) < 0 or len(raw) != 8 * math.prod(shape):
        raise InvalidInputError(
            f"{path}: {name} has shape {list(shape)} but {len(raw)} bytes of data"
        )
    arr = np.frombuffer(raw, dtype="<f8").astype(np.float64)
    return arr.reshape(shape)


@dataclass
class Checkpoint:
    kind: str
    w_tilde: np.ndarray
    config: dict
    extras: dict = field(default_factory=dict)


def save_checkpoint(path, kind: str, w_tilde, config: dict, extras=None) -> None:
    w = np.asarray(w_tilde, dtype=np.float64)
    if w.ndim != 2:
        raise InvalidInputError(f"weights must be 2-D, got shape {w.shape}")
    doc = {
        "format": FORMAT,
        "version": FORMAT_VERSION,
        "kind": kind,
        "w_tilde": _encode_array(w),
        "config": config,
        "extras": {k: _encode_array(np.asarray(v)) for k, v in (extras or {}).items()},
    }
    with open(path, "w", encoding="ascii") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")


def load_checkpoint(path) -> Checkpoint:
    with open(path, "r", encoding="ascii") as fh:
        doc = json.load(fh)
    if doc.get("format") != FORMAT:
        raise InvalidInputError(f"{path} is not a recognized checkpoint file")
    if doc.get("version") != FORMAT_VERSION:
        raise InvalidInputError(
            f"{path}: checkpoint version {doc.get('version')!r} is not supported "
            f"(expected {FORMAT_VERSION})"
        )
    return Checkpoint(
        kind=doc["kind"],
        w_tilde=_decode_array(doc["w_tilde"], path, "w_tilde"),
        config=doc.get("config", {}),
        extras={
            k: _decode_array(v, path, f"extras[{k!r}]")
            for k, v in doc.get("extras", {}).items()
        },
    )
