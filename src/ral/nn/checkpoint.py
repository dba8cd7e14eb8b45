"""Weight checkpoints.

Binary layout ("RALW"): magic b"RALW", format version u32, tensor count
u32, then per tensor the record a RALT file holds (``imageio.pack_tensor``):
rank u32, dims u32 x rank, little-endian float32 values in row-major order.
The network spec is written as JSON next to the weights file (same path
with a .json suffix appended to the stem).
"""

from __future__ import annotations

import json
import struct
from pathlib import Path

import numpy as np

from ..imageio import need_bytes, need_end, pack_tensor, unpack_tensor
from .network import Network, NetworkSpec

MAGIC = b"RALW"
VERSION = 1


def spec_path_for(path):
    path = Path(path)
    return path.with_name(path.stem + ".json")


def save_checkpoint(path, net: Network):
    path = Path(path)
    tensors = net.parameters()
    path.write_bytes(b"".join([MAGIC, struct.pack("<II", VERSION, len(tensors)),
                               *map(pack_tensor, tensors)]))
    spec_path_for(path).write_text(json.dumps(net.spec.to_dict(), indent=1))
    return path


def load_checkpoint(path):
    path = Path(path)
    try:
        spec = NetworkSpec.from_dict(json.loads(spec_path_for(path).read_text()))
        net = Network._unfilled(spec, np.float32)
    except (ValueError, KeyError, IndexError, TypeError) as e:
        raise ValueError(f"{spec_path_for(path)}: malformed network spec ({e!r})") from e
    blob = path.read_bytes()
    need_bytes(blob, 0, 4, path, "magic")
    if blob[:4] != MAGIC:
        raise ValueError(f"{path}: bad magic at byte 0 (expected {MAGIC!r})")
    need_bytes(blob, 4, 8, path, "header")
    version, count = struct.unpack_from("<II", blob, 4)
    if version != VERSION:
        raise ValueError(f"{path}: unsupported format version {version}")
    params = net.parameters()
    if count != len(params):
        raise ValueError(f"{path}: checkpoint has {count} tensors, spec needs {len(params)}")
    off = 12
    for i, p in enumerate(params):
        t, off = unpack_tensor(blob, off, path, f"tensor {i}")
        if p.shape != t.shape:
            raise ValueError(f"{path}: tensor shape {t.shape} does not match spec shape {p.shape}")
        p[...] = t
    need_end(blob, off, path)
    return net
