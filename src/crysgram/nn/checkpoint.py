"""Versioned checkpoint files: JSON header + flat little-endian blob.

Header carries the config, a parameter manifest (names, shapes, offsets),
the global step, the RNG seed, and the SHA-256 of the blob. Format 2
writes the blob in the config's dtype and records it as ``dtype``;
format 1 files (always float32) still load. Saving a loaded state
reproduces the file byte for byte.
"""

import hashlib
import json
import struct
from pathlib import Path

import numpy as np

from ..errors import CheckpointError
from ..files import atomic_write
from .encoder import EncoderConfig, EncoderState

MAGIC = b"CGCK0001"
FORMAT_VERSION = 2
V1_DTYPE = "<f4"  # format 1 wrote every blob as little-endian float32


def save_state(state, path, global_step=0, rng_seed=0, extra=None):
    """Write an EncoderState to `path`; returns the blob's SHA-256 hex."""
    blob_dtype = state.config.np_dtype.newbyteorder("<").str
    chunks = []
    manifest = []
    offset = 0
    for name, param in state.named_parameters():
        raw = np.ascontiguousarray(param.data, dtype=blob_dtype).tobytes()
        manifest.append({"name": name, "shape": list(param.data.shape),
                         "offset": offset, "size": param.data.size})
        chunks.append(raw)
        offset += len(raw)
    blob = b"".join(chunks)
    digest = hashlib.sha256(blob).hexdigest()
    header = {
        "format_version": FORMAT_VERSION,
        "config": state.config.to_dict(),
        "dtype": blob_dtype,
        "global_step": int(global_step),
        "rng_seed": int(rng_seed),
        "blob_sha256": digest,
        "parameters": manifest,
    }
    if extra:
        header["extra"] = extra
    header_bytes = json.dumps(header, sort_keys=True,
                              separators=(",", ":")).encode("utf-8")
    with atomic_write(path, binary=True) as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<Q", len(header_bytes)))
        fh.write(header_bytes)
        fh.write(blob)
    return digest


def _read_header(fh, path):
    magic = fh.read(len(MAGIC))
    if magic != MAGIC:
        raise CheckpointError(f"{path}: bad magic {magic!r}")
    (header_len,) = struct.unpack("<Q", fh.read(8))
    return json.loads(fh.read(header_len).decode("utf-8"))


def read_header(path):
    with open(path, "rb") as fh:
        return _read_header(fh, path)


def load_state(path):
    """Read a checkpoint; returns (state, header dict). The parameters
    have no gradients (``grad`` is None), as in a fresh state."""
    path = Path(path)
    with open(path, "rb") as fh:
        header = _read_header(fh, path)
        blob = fh.read()
    version = header.get("format_version")
    if version not in (1, FORMAT_VERSION):
        raise CheckpointError(f"{path}: unsupported format version {version}")
    blob_dtype = np.dtype(V1_DTYPE if version == 1 else header["dtype"])
    digest = hashlib.sha256(blob).hexdigest()
    if digest != header["blob_sha256"]:
        raise CheckpointError(f"{path}: blob checksum mismatch")

    config = EncoderConfig.from_dict(header["config"])
    arrays = {}
    for entry in header["parameters"]:
        name, shape = entry["name"], tuple(entry["shape"])
        count = int(np.prod(shape)) if shape else 1
        start = entry["offset"]
        nbytes = blob_dtype.itemsize * count
        raw = blob[start:start + nbytes]
        if len(raw) != nbytes:
            raise CheckpointError(f"{path}: truncated blob at {name}")
        data = np.frombuffer(raw, dtype=blob_dtype).reshape(shape)
        arrays[name] = data.astype(config.np_dtype)
    seed = header.get("rng_seed", 0)
    return EncoderState.from_arrays(config, seed, arrays), header
