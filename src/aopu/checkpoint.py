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


def _decode_array(obj, path, name: str) -> np.ndarray:
    try:
        raw = base64.b64decode(obj["data"], validate=True)
        shape = tuple(obj["shape"])
    except (KeyError, TypeError, ValueError) as exc:  # binascii.Error is a ValueError
        raise InvalidInputError(f"{path}: {name} is malformed ({exc!r})") from exc
    if not all(type(n) is int and n >= 0 for n in shape):
        raise InvalidInputError(
            f"{path}: {name} shape {list(shape)} is not a list of non-negative integers"
        )
    if len(raw) != 8 * math.prod(shape):
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
    """Read a checkpoint; a corrupt or foreign file raises :class:`InvalidInputError`."""
    try:
        with open(path, "r", encoding="ascii") as fh:
            doc = json.load(fh)
    except ValueError as exc:  # JSONDecodeError and UnicodeDecodeError
        raise InvalidInputError(f"{path} is not valid checkpoint JSON ({exc})") from exc
    if not isinstance(doc, dict) or doc.get("format") != FORMAT:
        raise InvalidInputError(f"{path} is not a recognized checkpoint file")
    if doc.get("version") != FORMAT_VERSION:
        raise InvalidInputError(
            f"{path}: checkpoint version {doc.get('version')!r} is not supported "
            f"(expected {FORMAT_VERSION})"
        )
    kind = doc.get("kind")
    if not isinstance(kind, str):
        raise InvalidInputError(f"{path}: checkpoint has no model kind")
    config, extras = doc.get("config", {}), doc.get("extras", {})
    if not (isinstance(config, dict) and isinstance(extras, dict)):
        raise InvalidInputError(f"{path}: checkpoint config and extras must be objects")
    return Checkpoint(
        kind=kind,
        w_tilde=_decode_array(doc.get("w_tilde"), path, "w_tilde"),
        config=config,
        extras={k: _decode_array(v, path, f"extras[{k!r}]") for k, v in extras.items()},
    )
