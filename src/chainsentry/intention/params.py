"""Parameter container, initialization, and serialization for the network.

Parameters live in an ordered dict of float64 arrays so they can be
flattened for the optimizer and for finite-difference checks.  The binary
format is a magic string, a JSON shape header, and the concatenated
little-endian float64 payload.
"""
from __future__ import annotations

import dataclasses
import json
import struct
from dataclasses import dataclass

import numpy as np

from ..errors import ConfigError, DataError
from ..serialize import open_artifact

MAGIC = b"CSIN1\n"

BRANCHES = ("f", "s", "a")


@dataclass(frozen=True, slots=True)
class IntentionConfig:
    d_e: int = 16
    d_z: int = 3
    d_h: int = 32
    gamma_v: float = 1.0
    gamma_c: float = 1.0
    gamma_e: float = 1.0
    recon_weight: float = 1.0
    learning_rate: float = 1e-3
    epochs: int = 50
    batch_size: int = 64
    seed: int = 0
    death_eps: float = 0.01
    use_index_embedding: bool = False

    def __post_init__(self):
        if min(self.gamma_v, self.gamma_c, self.gamma_e) < 0:
            raise ConfigError("loss coefficients must be non-negative")
        if not 0.0 < self.death_eps < 0.5:
            raise ConfigError("death_eps must be in (0, 0.5)")
        if min(self.d_e, self.d_z, self.d_h) < 1:
            raise ConfigError("embedding/bottleneck/hidden sizes must be >= 1")


@dataclass(frozen=True, slots=True)
class Dims:
    d_f: int
    k_status: int
    k_action: int
    d_e: int
    d_z: int
    d_h: int
    use_idx: bool

    @classmethod
    def from_config(cls, config: IntentionConfig, d_f: int, k_status: int,
                    k_action: int) -> "Dims":
        return cls(d_f, k_status, k_action, config.d_e, config.d_z, config.d_h,
                   config.use_index_embedding)

    @property
    def z_eff(self) -> int:
        return self.d_z + (self.d_e if self.use_idx else 0)

    def lstm_input(self, branch: str) -> int:
        return self.z_eff + self.d_f  # status/action vectors share d_f

    def attention_input(self, branch: str) -> int:
        if branch == "i":
            return self.d_f + self.z_eff
        return self.d_f + self.d_f


def param_shapes(dims: Dims) -> dict[str, tuple[int, ...]]:
    d_e, d_z, d_h, d_f = dims.d_e, dims.d_z, dims.d_h, dims.d_f
    shapes: dict[str, tuple[int, ...]] = {
        "emb_s": (dims.k_status, d_e),
        "emb_a": (dims.k_action, d_e),
    }
    if dims.use_idx:
        shapes["emb_i"] = (2 ** d_z, d_e)
    shapes.update({
        "enc_W": (d_h, 2 * d_e),
        "enc_b": (d_h,),
        "mu_W": (d_z, d_h),
        "mu_b": (d_z,),
        "sg_W": (d_z, d_h),
        "sg_b": (d_z,),
        "dec_W1": (d_h, d_z),
        "dec_b1": (d_h,),
        "dec_W2": (2 * d_e, d_h),
        "dec_b2": (2 * d_e,),
    })
    for br in BRANCHES:
        shapes[f"lstm_{br}_W"] = (4 * d_h, dims.lstm_input(br))
        shapes[f"lstm_{br}_U"] = (4 * d_h, d_h)
        shapes[f"lstm_{br}_b"] = (4 * d_h,)
    shapes["haz_w"] = (3, d_h)
    shapes["haz_b"] = (3,)
    for br in ("s", "a", "i"):
        shapes[f"att_w_{br}"] = (d_h, dims.attention_input(br))
    shapes["att_v"] = (d_h,)
    return shapes


def init_params(dims: Dims, seed: int = 0) -> dict[str, np.ndarray]:
    """Small random init; LSTM forget gates open, hazard bias low.

    The hazard bias starts at -3 so early survival does not collapse before
    any signal is learned (softplus(0) per step would extinguish a 24-step
    window almost immediately).
    """
    rng = np.random.default_rng(seed)
    params: dict[str, np.ndarray] = {}
    for name, shape in param_shapes(dims).items():
        if name.endswith("_b") or name == "att_v":
            arr = np.zeros(shape)
        elif name.startswith("emb_"):
            arr = rng.normal(0.0, 0.1, shape)
        else:
            fan_in = shape[-1]
            arr = rng.normal(0.0, 1.0 / np.sqrt(fan_in), shape)
        params[name] = np.ascontiguousarray(arr, dtype=np.float64)
    for br in BRANCHES:
        b = params[f"lstm_{br}_b"]
        d_h = dims.d_h
        b[d_h:2 * d_h] = 1.0  # forget-gate bias
    params["haz_b"][:] = -3.0
    params["att_v"][:] = rng.normal(0.0, 1.0 / np.sqrt(dims.d_h), dims.d_h)
    return params


def flatten_params(params: dict[str, np.ndarray]) -> np.ndarray:
    return np.concatenate([params[k].ravel() for k in params])


def unflatten_params(template: dict[str, np.ndarray], flat: np.ndarray) -> dict[str, np.ndarray]:
    out = {}
    lo = 0
    for k, v in template.items():
        n = v.size
        out[k] = flat[lo:lo + n].reshape(v.shape).copy()
        lo += n
    if lo != flat.size:
        raise DataError("flat vector does not match parameter shapes")
    return out


def save_params(path, params: dict[str, np.ndarray], dims: Dims,
                config: IntentionConfig) -> None:
    header = {
        "dims": dataclasses.asdict(dims),
        "config": dataclasses.asdict(config),
        "arrays": [{"name": k, "shape": list(v.shape)} for k, v in params.items()],
    }
    header_bytes = json.dumps(header, sort_keys=True).encode()
    with open_artifact(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<I", len(header_bytes)))
        fh.write(header_bytes)
        for k in params:
            fh.write(np.ascontiguousarray(params[k], dtype="<f8").tobytes())


def load_params(path):
    with open(path, "rb") as fh:
        magic = fh.read(len(MAGIC))
        if magic != MAGIC:
            raise DataError(f"{path}: not an intention model file")
        (header_len,) = struct.unpack("<I", fh.read(4))
        header = json.loads(fh.read(header_len).decode())
        params = {}
        for spec in header["arrays"]:
            shape = tuple(spec["shape"])
            n = int(np.prod(shape))
            buf = fh.read(8 * n)
            if len(buf) != 8 * n:
                raise DataError(f"{path}: truncated parameter payload")
            params[spec["name"]] = np.frombuffer(buf, dtype="<f8").reshape(shape).copy()
    return params, Dims(**header["dims"]), IntentionConfig(**header["config"])
