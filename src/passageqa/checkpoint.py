"""Versioned binary checkpoints for model weights.

Layout (integers little-endian, tensor data IEEE-754 binary32 LE):
    magic "PQCK" | u32 version
    u32 settings_len | settings JSON (utf-8): hyperparams + embed_dim
    u32 tensor_count
    per tensor: u16 name_len | name utf-8 | u8 rank (1 or 2) | rank * u32 dims (>= 1) | data

The file ends after the last tensor; trailing bytes are rejected, and so is
a tensor holding NaN or inf.

Raw weights are stored under their own names, in `named_arrays` order, and
are checked on load against `model.param_shapes`; the exponential moving
average shadow of each weight is stored under the same name with an "ema/"
prefix.
"""
from __future__ import annotations

import json
import math
import struct

import numpy as np

from .model import Hyperparams, ModelWeights, named_arrays, weights_from_named

CHECKPOINT_MAGIC = b"PQCK"
CHECKPOINT_VERSION = 1
EMA_PREFIX = "ema/"


class CheckpointFormatError(ValueError):
    """Raised when a checkpoint file fails validation on load."""


def _write_tensor(fh, name: str, array: np.ndarray) -> None:
    data = np.ascontiguousarray(array, dtype="<f4")
    encoded = name.encode("utf-8")
    fh.write(struct.pack("<H", len(encoded)))
    fh.write(encoded)
    fh.write(struct.pack("<B", data.ndim))
    for dim in data.shape:
        fh.write(struct.pack("<I", dim))
    fh.write(data)             # the contiguous buffer, not a copy of it


def save_checkpoint(path: str, hp: Hyperparams, weights: ModelWeights,
                    ema: dict[str, np.ndarray]) -> None:
    """Write weights plus their EMA shadows; settings travel along.

    `hp` must pass `Hyperparams.from_dict`, the weights must have the shapes
    `hp` gives them, `ema` must hold exactly one shadow per weight, shaped
    like it, and every value must be finite in float32, as `load_checkpoint`
    requires; anything else raises ValueError before the file is opened.
    """
    Hyperparams.from_dict(hp.to_dict())
    named = named_arrays(weights)
    weights_from_named(weights.embed_dim, hp.hidden, hp.attn_dim, named)
    for name, array in named.items():
        if name not in ema:
            raise ValueError(f"missing EMA shadow for {name}")
        if np.shape(ema[name]) != array.shape:
            raise ValueError(f"EMA shadow for {name} has shape {np.shape(ema[name])}, "
                             f"weight has {array.shape}")
        for what, values in (("weight", array), ("EMA shadow for", ema[name])):
            with np.errstate(over="ignore"):
                stored = np.asarray(values, "<f4")
            if not np.isfinite(stored).all():
                raise ValueError(f"{what} {name} holds NaN or inf in float32")
    extra = set(ema) - set(named)
    if extra:
        raise ValueError(f"EMA shadows for unknown weights: {sorted(extra)}")
    settings = dict(hp.to_dict(), embed_dim=weights.embed_dim)
    blob = json.dumps(settings, sort_keys=True).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(struct.pack("<I", CHECKPOINT_VERSION))
        fh.write(struct.pack("<I", len(blob)))
        fh.write(blob)
        fh.write(struct.pack("<I", len(named) + len(ema)))
        for name in named:
            _write_tensor(fh, name, named[name])
        for name in named:
            _write_tensor(fh, EMA_PREFIX + name, ema[name])


def load_checkpoint(path: str) -> tuple[Hyperparams, ModelWeights, dict[str, np.ndarray]]:
    """Read a checkpoint; returns (hyperparams, raw weights, ema shadows)."""
    with open(path, "rb") as fh:
        data = fh.read()
    if data[:4] != CHECKPOINT_MAGIC:
        raise CheckpointFormatError(f"{path}: not a checkpoint (bad magic {data[:4]!r})")
    pos = 4

    def take(fmt: str):
        nonlocal pos
        size = struct.calcsize(fmt)
        if pos + size > len(data):
            raise CheckpointFormatError(f"{path}: truncated checkpoint")
        out = struct.unpack_from(fmt, data, pos)
        pos += size
        return out

    (version,) = take("<I")
    if version != CHECKPOINT_VERSION:
        raise CheckpointFormatError(f"{path}: unsupported checkpoint version {version}")
    (settings_len,) = take("<I")
    try:
        settings = json.loads(data[pos:pos + settings_len].decode("utf-8"))
    except ValueError as exc:   # also an integer beyond int()'s digit limit
        raise CheckpointFormatError(f"{path}: bad settings block: {exc}") from None
    pos += settings_len
    if not isinstance(settings, dict):
        raise CheckpointFormatError(f"{path}: settings block is not a JSON object")
    embed_dim = settings.pop("embed_dim", None)
    if embed_dim is None:
        raise CheckpointFormatError(f"{path}: settings block lacks embed_dim")
    try:
        hp = Hyperparams.from_dict(settings)
    except (TypeError, ValueError) as exc:
        raise CheckpointFormatError(f"{path}: bad hyperparams: {exc}") from None

    (count,) = take("<I")
    tensors: dict[str, np.ndarray] = {}
    for _ in range(count):
        (name_len,) = take("<H")
        try:
            name = data[pos:pos + name_len].decode("utf-8")
        except UnicodeDecodeError:
            raise CheckpointFormatError(f"{path}: tensor name at byte {pos} is not UTF-8") from None
        pos += name_len
        (rank,) = take("<B")
        dims = [take("<I")[0] for _ in range(rank)]
        # Checked before the size: with a zero dim any rank and other dims pass it.
        if not 1 <= rank <= 2 or 0 in dims:
            raise CheckpointFormatError(f"{path}: tensor {name!r} has shape {tuple(dims)}")
        n_items = math.prod(dims)
        size = 4 * n_items
        if pos + size > len(data):
            raise CheckpointFormatError(f"{path}: truncated tensor {name!r}")
        array = np.frombuffer(data, dtype="<f4", count=n_items, offset=pos)
        pos += size
        if name in tensors:
            raise CheckpointFormatError(f"{path}: duplicate tensor {name!r}")
        if not np.isfinite(array).all():
            raise CheckpointFormatError(f"{path}: tensor {name!r} holds NaN or inf")
        tensors[name] = array.reshape(dims).astype(np.float32)
    if pos != len(data):
        raise CheckpointFormatError(f"{path}: {len(data) - pos} trailing bytes after the last tensor")

    raw = {k: v for k, v in tensors.items() if not k.startswith(EMA_PREFIX)}
    ema = {k[len(EMA_PREFIX):]: v for k, v in tensors.items() if k.startswith(EMA_PREFIX)}
    if set(raw) != set(ema):
        raise CheckpointFormatError(f"{path}: raw and EMA tensor names disagree")
    try:
        weights = weights_from_named(embed_dim, hp.hidden, hp.attn_dim, raw)
    except ValueError as exc:
        raise CheckpointFormatError(f"{path}: {exc}") from None
    for name, array in ema.items():
        if array.shape != weights.arrays[name].shape:
            raise CheckpointFormatError(f"{path}: {EMA_PREFIX}{name}: expected shape "
                                        f"{weights.arrays[name].shape}, got {array.shape}")
    return hp, weights, ema
