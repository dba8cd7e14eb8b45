"""Weight checkpoints.

Binary layout ("RALW"): magic b"RALW", format version u32, tensor count
u32, then per tensor: rank u32, dims u32 x rank, little-endian float32
values in row-major order. The network spec is written as JSON next to the
weights file (same path with a .json suffix appended to the stem).
"""

from __future__ import annotations

import json
import math
import struct
from pathlib import Path

import numpy as np

from .network import Network, NetworkSpec

MAGIC = b"RALW"
VERSION = 1


def spec_path_for(path):
    path = Path(path)
    return path.with_name(path.stem + ".json")


def save_checkpoint(path, net: Network):
    path = Path(path)
    tensors = net.parameters()
    chunks = [MAGIC, struct.pack("<II", VERSION, len(tensors))]
    for t in tensors:
        chunks.append(struct.pack("<I", t.ndim))
        chunks.append(struct.pack(f"<{t.ndim}I", *t.shape))
        chunks.append(np.ascontiguousarray(t, dtype="<f4").tobytes())
    path.write_bytes(b"".join(chunks))
    spec_path_for(path).write_text(json.dumps(net.spec.to_dict(), indent=1))
    return path


def load_checkpoint(path):
    path = Path(path)
    spec = NetworkSpec.from_dict(json.loads(spec_path_for(path).read_text()))
    blob = path.read_bytes()
    tensors, _ = _read_tensors(blob, str(path))
    net = Network._unfilled(spec, np.float32)
    params = net.parameters()
    if len(params) != len(tensors):
        raise ValueError(f"{path}: checkpoint has {len(tensors)} tensors, spec needs {len(params)}")
    for p, t in zip(params, tensors):
        if p.shape != t.shape:
            raise ValueError(f"{path}: tensor shape {t.shape} does not match spec shape {p.shape}")
    np.concatenate([t.reshape(-1) for t in tensors], out=net.theta)
    return net


def _read_tensors(blob, name):
    off = 0

    def take(n, what):
        nonlocal off
        if off + n > len(blob):
            raise ValueError(f"{name}: truncated reading {what} at byte {off}: "
                             f"need {off + n - len(blob)} more bytes")
        part = blob[off:off + n]
        off += n
        return part

    if take(4, "magic") != MAGIC:
        raise ValueError(f"{name}: bad magic at byte 0 (expected {MAGIC!r})")
    version, count = struct.unpack("<II", take(8, "header"))
    if version != VERSION:
        raise ValueError(f"{name}: unsupported format version {version}")
    tensors = []
    for i in range(count):
        (rank,) = struct.unpack("<I", take(4, f"tensor {i} rank"))
        dims = struct.unpack(f"<{rank}I", take(4 * rank, f"tensor {i} dims"))
        n = math.prod(dims)
        data = np.frombuffer(take(4 * n, f"tensor {i} data"), dtype="<f4")
        tensors.append(data.reshape(dims))
    return tensors, off
