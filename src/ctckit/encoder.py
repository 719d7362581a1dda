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


def output_frames(num_frames: int, cfg: EncoderConfig) -> int:
    """Encoder frames for an input of ``num_frames`` (ceil-mode pooling)."""
    return -(-num_frames // cfg.downsample_factor)


def dropout_draws(
    num_frames: int, cfg: EncoderConfig, rng: np.random.Generator
) -> list[tuple[np.ndarray, bool]]:
    """The random draws of one training pass over ``num_frames`` encoder
    frames: per layer, the dropout keep mask (frames x hidden) and then the
    layer-drop coin (True: the layer is kept). A dropped layer still draws
    its mask, so the order never changes."""
    p, q = cfg.dropout_prob, cfg.layer_drop_prob
    draws = []
    for _ in range(cfg.layers):
        keep = rng.random((num_frames, cfg.hidden_dim)) >= p
        draws.append((keep, bool(rng.random() >= q)))
    return draws


@dataclass
class LayerTape:
    h_pad: np.ndarray  # layer input, zero-padded by context_radius frames
    act: np.ndarray  # tanh output
    keep: np.ndarray  # dropout keep mask; False on gaps and where the layer was dropped
    dropout_prob: float  # 0.0 in eval
    kept: tuple[bool, ...]  # per sequence: the layer ran (layer drop)
    scale: float  # 1/(1-q) in train, 1.0 in eval

    @property
    def drop(self) -> np.ndarray:
        """Multiplicative dropout factor per frame, incl. 1/(1-p)."""
        return self.keep / (1.0 - self.dropout_prob)


@dataclass
class Tape:
    """Forward intermediates of one group of sequences, needed for the
    exact backward pass.

    The sequences sit one after another along the frame axis, sequence i
    at rows ``starts[i]`` to ``starts[i] + lengths[i]``, with
    ``context_radius`` zero rows between neighbours. Those gap rows are the
    zero padding each sequence's convolutions see at its ends, so a group
    computes what each of its sequences would alone.
    """

    starts: tuple[int, ...]
    lengths: tuple[int, ...]
    x_ds: np.ndarray
    proj_act: np.ndarray
    layers: list[LayerTape] = field(default_factory=list)
    h_final: np.ndarray | None = None

    def rows(self, i: int) -> slice:
        return slice(self.starts[i], self.starts[i] + self.lengths[i])


def _downsample(x: np.ndarray, factor: int) -> np.ndarray:
    if factor <= 1:
        return x
    starts = np.arange(0, x.shape[0], factor)
    sums = np.add.reduceat(x, starts, axis=0)
    counts = np.minimum(starts + factor, x.shape[0]) - starts
    return sums / counts[:, None]


def _matmul(a: np.ndarray, b: np.ndarray, lone: list[int]) -> np.ndarray:
    """a @ b, with each row in ``lone`` multiplied on its own. Those rows
    are one-frame sequences: numpy multiplies a one-row matrix with gemv,
    whose sums run in another order than gemm's."""
    out = a @ b
    for row in lone:
        out[row] = a[row : row + 1] @ b
    return out


def forward_group(
    params: ParameterSet,
    xs: list[np.ndarray],
    cfg: EncoderConfig,
    draws: list[list[tuple[np.ndarray, bool]]] | None = None,
) -> tuple[list[LogitLattice], Tape]:
    """Encoder forward over a group of sequences at once.

    Eval mode when ``draws`` is None; otherwise ``draws[i]`` holds sequence
    i's :func:`dropout_draws`. Each sequence's logits equal, bit for bit,
    what :func:`forward` gives it alone with the same draws.
    """
    xs_ds = []
    for x in xs:
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 2:
            raise InvalidInputError("input features must be a 2-D array")
        xs_ds.append(_downsample(x, cfg.downsample_factor))
    num_classes = params["out.b"].size if "out.b" in params.tensors else 0
    check_param_shapes(params, cfg, xs_ds[0].shape[1], num_classes)
    if any(x.shape[1] != xs_ds[0].shape[1] for x in xs_ds):
        raise InvalidInputError("every sequence of a group needs the same feature dim")
    if any(x.shape[0] < 1 for x in xs_ds):
        raise InvalidInputError("input must have at least one frame")

    r = cfg.context_radius
    lengths = tuple(x.shape[0] for x in xs_ds)
    starts = tuple(int(v) for v in np.cumsum((0,) + tuple(T + r for T in lengths[:-1])))
    N = starts[-1] + lengths[-1]
    lone = [q for q, T in zip(starts, lengths) if T == 1]
    gaps = np.ones(N, dtype=bool)
    x_ds = np.zeros((N, xs_ds[0].shape[1]))
    for q, x in zip(starts, xs_ds):
        x_ds[q : q + x.shape[0]] = x
        gaps[q : q + x.shape[0]] = False

    h = np.tanh(_matmul(x_ds, params["in.w"], lone) + params["in.b"])
    h[gaps] = 0.0
    tape = Tape(starts, lengths, x_ds, h)

    for l in range(cfg.layers):
        if draws is None:
            keep, p = ~gaps[:, None], 0.0
            kept, scale = (True,) * len(xs), 1.0
        else:
            keep, p = np.zeros((N, cfg.hidden_dim), dtype=bool), cfg.dropout_prob
            kept = tuple(d[l][1] for d in draws)
            for q, T, d in zip(starts, lengths, draws):
                if d[l][1]:
                    keep[q : q + T] = d[l][0]
            scale = 1.0 / (1.0 - cfg.layer_drop_prob)
        w = params[f"layer{l}.w"]
        hp = np.pad(h, ((r, r), (0, 0)))
        if l == 0:
            tape.proj_act = hp[r : r + N]  # keep one copy of the projection
        u = np.full(h.shape, params[f"layer{l}.b"])
        for j in range(2 * r + 1):
            u += _matmul(hp[j : j + N], w[j], lone)
        a = np.tanh(u)
        layer = LayerTape(hp, a, keep, p, kept, scale)
        tape.layers.append(layer)
        branch = a * layer.drop
        branch *= scale
        h = h + branch

    tape.h_final = h
    logits = [LogitLattice(h[tape.rows(i)] @ params["out.w"] + params["out.b"])
              for i in range(len(xs))]
    return logits, tape


def forward(
    params: ParameterSet,
    x: np.ndarray,
    cfg: EncoderConfig,
    train: bool = False,
    rng: np.random.Generator | None = None,
) -> tuple[LogitLattice, Tape]:
    """Encoder forward of one sequence (:func:`forward_group` of one); in
    train mode it draws the pass's dropout from ``rng``."""
    if train and rng is None:
        raise InvalidInputError("train mode needs an explicit random generator")
    draws = None
    if train:
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 2:
            raise InvalidInputError("input features must be a 2-D array")
        draws = [dropout_draws(output_frames(x.shape[0], cfg), cfg, rng)]
    logits, tape = forward_group(params, [x], cfg, draws)
    return logits[0], tape


def _add_per_sample(total: np.ndarray, samples, part) -> None:
    """total += each sample's gradient, sample by sample, where a sample's
    gradient is the sum of part(i) over its sequences i in order."""
    for seqs in samples:
        s = None
        for i in seqs:
            g = part(i)
            s = g if s is None else s + g
        if s is not None:
            total += s


def backward_group(
    params: ParameterSet,
    tape: Tape,
    dlogits: list[np.ndarray],
    grads: dict[str, np.ndarray],
    views: int = 1,
) -> None:
    """Add the parameter gradients of the group ``tape`` records to
    ``grads``, one sample at a time in order.

    A sample is ``views`` consecutive sequences; their gradients are summed
    in sequence order before the sum is added, as separate backward passes
    of the views would give. A layer a sequence dropped adds nothing for
    it. The input itself gets no gradient; only parameters are trained.
    """
    n = len(tape.lengths)
    if len(dlogits) != n or n % views:
        raise InvalidInputError("upstream gradients do not match the tape")
    samples = [range(k, k + views) for k in range(0, n, views)]
    h_final = tape.h_final
    dh = np.zeros_like(h_final)
    dls = []
    for i, dl in enumerate(dlogits):
        dl = np.asarray(dl, dtype=np.float64)
        if dl.shape[0] != tape.lengths[i]:
            raise InvalidInputError("upstream gradient does not match the tape")
        dh[tape.rows(i)] = dl @ params["out.w"].T
        dls.append(dl)
    _add_per_sample(grads["out.w"], samples, lambda i: h_final[tape.rows(i)].T @ dls[i])
    _add_per_sample(grads["out.b"], samples, lambda i: dls[i].sum(axis=0))

    N = h_final.shape[0]
    for l in range(len(tape.layers) - 1, -1, -1):
        lt = tape.layers[l]
        if not any(lt.kept):
            continue
        w = params[f"layer{l}.w"]
        r = (w.shape[0] - 1) // 2
        du = dh * lt.scale
        du *= lt.drop
        du *= 1.0 - lt.act * lt.act
        # per sequence: against a transposed matrix, OpenBLAS sums short
        # products in another order than long ones
        dhp = np.zeros_like(lt.h_pad)
        for i, (q, T) in enumerate(zip(tape.starts, tape.lengths)):
            if lt.kept[i]:
                for j in range(2 * r + 1):
                    dhp[q + j : q + j + T] += du[q : q + T] @ w[j].T
        ran = [[i for i in seqs if lt.kept[i]] for seqs in samples]
        dw = grads[f"layer{l}.w"]
        for j in range(2 * r + 1):
            _add_per_sample(dw[j], ran, lambda i: (
                lt.h_pad[tape.starts[i] + j : tape.starts[i] + j + tape.lengths[i]].T
                @ du[tape.rows(i)]))
        _add_per_sample(grads[f"layer{l}.b"], ran, lambda i: du[tape.rows(i)].sum(axis=0))
        dh = dh + dhp[r : r + N]

    da0 = dh * (1.0 - tape.proj_act * tape.proj_act)
    _add_per_sample(grads["in.w"], samples, lambda i: tape.x_ds[tape.rows(i)].T @ da0[tape.rows(i)])
    _add_per_sample(grads["in.b"], samples, lambda i: da0[tape.rows(i)].sum(axis=0))


def backward(
    params: ParameterSet, tape: Tape, dlogits: np.ndarray
) -> dict[str, np.ndarray]:
    """Parameter gradients for the exact sub-model a one-sequence tape
    records (:func:`backward_group` of one). Gradients of layers dropped on
    this pass are zero."""
    grads = params.zeros_like()
    backward_group(params, tape, [dlogits], grads)
    return grads


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
