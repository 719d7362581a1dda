"""Small trainable encoder with hand-written reverse-mode gradients.

Architecture: optional ceil-mode average-pool downsampling, a tanh input
projection, then a stack of residual temporal-convolution blocks
(conv -> tanh -> dropout -> residual add), and a linear output head over
blank + tokens. Dropout and layer-drop use inverted scaling, so the eval
pass is a plain forward with no rescaling.

Everything is float64. Training randomness comes from an explicit
numpy Generator passed by the caller; the draw order is fixed (per layer:
dropout mask, then the layer-drop coin), so a seeded run is bit-reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidInputError, load_arrays, reading, save_arrays, writing
from .lattice import LogitLattice


@dataclass(frozen=True)
class EncoderConfig:
    layers: int = 3
    hidden_dim: int = 64
    context_radius: int = 2
    dropout_prob: float = 0.1
    layer_drop_prob: float = 0.1
    downsample_factor: int = 1

    def __post_init__(self) -> None:
        if self.layers < 0:
            raise InvalidInputError("layers must be >= 0")
        if self.hidden_dim < 1 or self.downsample_factor < 1:
            raise InvalidInputError("dims must be >= 1")
        if self.context_radius < 0:
            raise InvalidInputError("context_radius must be >= 0")
        for name in ("dropout_prob", "layer_drop_prob"):
            p = getattr(self, name)
            if not 0.0 <= p < 1.0:
                raise InvalidInputError(f"{name} must be in [0, 1)")


@dataclass
class ParameterSet:
    """Named float64 tensors. Finite by construction."""

    tensors: dict[str, np.ndarray]

    def __post_init__(self) -> None:
        clean: dict[str, np.ndarray] = {}
        for name, value in self.tensors.items():
            arr = np.asarray(value, dtype=np.float64)
            if not np.all(np.isfinite(arr)):
                raise InvalidInputError(f"parameter {name!r} has non-finite entries")
            clean[name] = arr
        self.tensors = clean

    def __getitem__(self, name: str) -> np.ndarray:
        return self.tensors[name]

    def names(self) -> list[str]:
        return sorted(self.tensors)

    def copy(self) -> "ParameterSet":
        return ParameterSet({k: v.copy() for k, v in self.tensors.items()})

    def zeros_like(self) -> dict[str, np.ndarray]:
        return {k: np.zeros_like(v) for k, v in self.tensors.items()}


def param_shapes(
    cfg: EncoderConfig, feature_dim: int, num_classes: int
) -> dict[str, tuple[int, ...]]:
    """Name and shape of every tensor the encoder reads, in init order."""
    H = cfg.hidden_dim
    taps = 2 * cfg.context_radius + 1
    shapes = {"in.w": (feature_dim, H), "in.b": (H,)}
    for l in range(cfg.layers):
        shapes[f"layer{l}.w"] = (taps, H, H)
        shapes[f"layer{l}.b"] = (H,)
    shapes["out.w"] = (H, num_classes)
    shapes["out.b"] = (num_classes,)
    return shapes


def check_param_shapes(
    params: ParameterSet,
    cfg: EncoderConfig,
    feature_dim: int,
    num_classes: int,
    what: str = "parameter set",
) -> None:
    """Reject parameters whose tensor names or shapes differ from the ones
    the encoder reads under ``cfg``; the message lists every mismatch."""
    want = param_shapes(cfg, feature_dim, num_classes)
    got = {name: params[name].shape for name in params.names()}
    names = sorted(want.keys() | got.keys())
    bad = [f"{k} {got.get(k)} vs {want.get(k)}" for k in names
           if got.get(k) != want.get(k)]
    if bad:
        raise InvalidInputError(
            f"{what} does not match the model config (given vs config shape, "
            f"None if absent): {', '.join(bad)}"
        )


def init_params(
    cfg: EncoderConfig,
    feature_dim: int,
    num_classes: int,
    rng: np.random.Generator,
) -> ParameterSet:
    """Gaussian init scaled by 1/sqrt(fan_in); biases start at zero."""
    if feature_dim < 1 or num_classes < 2:
        raise InvalidInputError("feature_dim >= 1 and num_classes >= 2 required")
    t: dict[str, np.ndarray] = {}
    for name, shape in param_shapes(cfg, feature_dim, num_classes).items():
        if name.endswith(".b"):
            t[name] = np.zeros(shape)
        else:
            fan_in = math.prod(shape[:-1])
            t[name] = rng.standard_normal(shape) / np.sqrt(fan_in)
    return ParameterSet(t)


@dataclass
class LayerTape:
    h_pad: np.ndarray | None  # zero-padded input; None when the layer was dropped
    act: np.ndarray | None  # tanh output; None when the layer was dropped
    drop: np.ndarray | None  # multiplicative dropout factor incl. 1/(1-p)
    kept: bool
    scale: float  # 1/(1-q) in train when kept, 1.0 in eval


@dataclass
class Tape:
    """Forward intermediates needed for the exact backward pass."""

    x_ds: np.ndarray
    proj_act: np.ndarray
    layers: list[LayerTape] = field(default_factory=list)
    h_final: np.ndarray | None = None


def _downsample(x: np.ndarray, factor: int) -> np.ndarray:
    if factor <= 1:
        return x
    starts = np.arange(0, x.shape[0], factor)
    sums = np.add.reduceat(x, starts, axis=0)
    counts = np.minimum(starts + factor, x.shape[0]) - starts
    return sums / counts[:, None]


def forward(
    params: ParameterSet,
    x: np.ndarray,
    cfg: EncoderConfig,
    train: bool = False,
    rng: np.random.Generator | None = None,
) -> tuple[LogitLattice, Tape]:
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2:
        raise InvalidInputError("input features must be a 2-D array")
    num_classes = params["out.b"].size if "out.b" in params.tensors else 0
    check_param_shapes(params, cfg, x.shape[1], num_classes)
    if train and rng is None:
        raise InvalidInputError("train mode needs an explicit random generator")

    x_ds = _downsample(x, cfg.downsample_factor)
    T = x_ds.shape[0]
    if T < 1:
        raise InvalidInputError("input must have at least one frame")

    h = np.tanh(x_ds @ params["in.w"] + params["in.b"])
    tape = Tape(x_ds=x_ds, proj_act=h)

    r = cfg.context_radius
    p, q = cfg.dropout_prob, cfg.layer_drop_prob
    for l in range(cfg.layers):
        # draw order is fixed even for dropped layers: mask first, coin second
        if train:
            drop = (rng.random((T, h.shape[1])) >= p) / (1.0 - p)
            kept = bool(rng.random() >= q)
            scale = 1.0 / (1.0 - q)
        else:
            drop, kept, scale = None, True, 1.0
        if not kept:
            tape.layers.append(LayerTape(None, None, None, False, 0.0))
            continue
        w = params[f"layer{l}.w"]
        hp = np.pad(h, ((r, r), (0, 0)))
        u = np.full(h.shape, params[f"layer{l}.b"])
        for j in range(2 * r + 1):
            u += hp[j : j + T] @ w[j]
        a = np.tanh(u)
        branch = a if drop is None else a * drop
        tape.layers.append(LayerTape(hp, a, drop, True, scale))
        h = h + branch * scale

    tape.h_final = h
    logits = h @ params["out.w"] + params["out.b"]
    return LogitLattice(logits), tape


def backward(
    params: ParameterSet, tape: Tape, dlogits: np.ndarray
) -> dict[str, np.ndarray]:
    """Parameter gradients for the exact sub-model the tape records.

    Gradients of layers dropped on this pass are zero. The input itself
    gets no gradient; only parameters are trained.
    """
    grads = params.zeros_like()
    dlogits = np.asarray(dlogits, dtype=np.float64)
    h_final = tape.h_final
    if h_final is None or dlogits.shape[0] != h_final.shape[0]:
        raise InvalidInputError("upstream gradient does not match the tape")

    grads["out.w"] = h_final.T @ dlogits
    grads["out.b"] = dlogits.sum(axis=0)
    dh = dlogits @ params["out.w"].T

    T = h_final.shape[0]
    for l in range(len(tape.layers) - 1, -1, -1):
        lt = tape.layers[l]
        if not lt.kept:
            continue
        r = (params[f"layer{l}.w"].shape[0] - 1) // 2
        da = dh * lt.scale
        if lt.drop is not None:
            da = da * lt.drop
        du = da * (1.0 - lt.act * lt.act)
        grads[f"layer{l}.b"] = du.sum(axis=0)
        w = params[f"layer{l}.w"]
        dw = grads[f"layer{l}.w"]
        dhp = np.zeros_like(lt.h_pad)
        for j in range(2 * r + 1):
            dw[j] = lt.h_pad[j : j + T].T @ du
            dhp[j : j + T] += du @ w[j].T
        dh = dh + dhp[r : r + T]

    da0 = dh * (1.0 - tape.proj_act * tape.proj_act)
    grads["in.w"] = tape.x_ds.T @ da0
    grads["in.b"] = da0.sum(axis=0)
    return grads


def accumulate(total: dict[str, np.ndarray], part: dict[str, np.ndarray]) -> None:
    for name, g in part.items():
        total[name] += g


@dataclass
class AdamState:
    step: int
    m: dict[str, np.ndarray]
    v: dict[str, np.ndarray]

    @classmethod
    def fresh(cls, params: ParameterSet) -> "AdamState":
        return cls(0, params.zeros_like(), params.zeros_like())


def adam_step(
    params: ParameterSet,
    grads: dict[str, np.ndarray],
    state: AdamState,
    lr: float,
    beta1: float = 0.9,
    beta2: float = 0.999,
    eps: float = 1e-8,
) -> tuple[ParameterSet, AdamState]:
    t = state.step + 1
    new_m, new_v, new_p = {}, {}, {}
    for k, value in params.tensors.items():
        g = grads[k]
        m = beta1 * state.m[k] + (1.0 - beta1) * g
        v = beta2 * state.v[k] + (1.0 - beta2) * g * g
        mhat = m / (1.0 - beta1**t)
        vhat = v / (1.0 - beta2**t)
        new_p[k] = value - lr * mhat / (np.sqrt(vhat) + eps)
        new_m[k], new_v[k] = m, v
    return ParameterSet(new_p), AdamState(t, new_m, new_v)


def save_checkpoint(path, params: ParameterSet, meta: dict | None = None) -> None:
    """Save the tensors and ``meta`` in the npz container datasets use."""
    with writing("checkpoint", path):
        save_arrays(path, params.tensors, meta or {})


def load_checkpoint(path) -> tuple[ParameterSet, dict]:
    with reading("checkpoint", path):
        tensors, meta = load_arrays(path)
        return ParameterSet(tensors), meta
