"""Online network (backbone, projector, predictor), its EMA teacher, and
checkpoint serialization.

All parameters live in one contiguous float64 vector, exposed as an ordered
dict of named views; a stack of K such vectors, one row per state, gives
stacked views that the constant forwards evaluate in one pass. Weight
matrices are stored (fan_in, fan_out) and applied as x @ W. The teacher is
a shape-identical copy of the backbone and projector under the "target."
prefix; it is evaluated as constants, so no gradient can ever reach it. A
checkpoint is the NetworkSpec plus that vector.
"""

from __future__ import annotations

import functools
import math
import struct
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from . import tape as T
from .data import check_elements
from .errors import ConfigError, EmptyBatchError, FormatError, ShapeError
from .tape import Tape, Tensor

PREDICTOR_KINDS = ("linear", "identity")

CHECKPOINT_MAGIC = b"RAFTCKPT"
CHECKPOINT_VERSION = 2


@dataclass(frozen=True)
class NetworkSpec:
    """Shapes and wiring of the model.

    The backbone is an MLP with ReLU on its hidden layers and a plain linear
    output at representation_dim. The projector is Linear+ReLU+Linear with
    hidden width equal to representation_dim, and its output is normalized to
    give z. The predictor consumes the unnormalized projector output:
    "linear" is a single bias-free square matrix, "identity" passes through
    (so p coincides with z).
    """

    input_dim: int
    backbone_widths: tuple[int, ...] = (64, 64)
    representation_dim: int = 32
    projection_dim: int = 16
    predictor: str = "linear"

    def __post_init__(self):
        # A tuple, so that the spec hashes for _layout's cache.
        object.__setattr__(self, "backbone_widths", tuple(self.backbone_widths))
        for field_name in ("input_dim", "representation_dim", "projection_dim"):
            v = getattr(self, field_name)
            if v < 1:
                raise ConfigError(f"{field_name}: must be a positive int, got {v!r}")
        for w in self.backbone_widths:
            if w < 1:
                raise ConfigError(f"backbone_widths: bad width {w!r}")
        if self.predictor not in PREDICTOR_KINDS:
            raise ConfigError(
                f"predictor: unknown kind {self.predictor!r}, expected one of {PREDICTOR_KINDS}"
            )
        check_elements("network parameters (input_dim, backbone_widths, representation_dim, "
                       "projection_dim)", self.flat_size())

    def flat_size(self) -> int:
        """Entries of the flat parameter vector (see ModelParams)."""
        return _layout(self)[-1][1].stop

    def widest_layer(self) -> int:
        """The most columns any layer's input or output has."""
        return max(self.input_dim, *self.backbone_widths, self.representation_dim,
                   self.projection_dim)

    def backbone_dims(self) -> list[tuple[int, int]]:
        sizes = [self.input_dim, *self.backbone_widths, self.representation_dim]
        return list(zip(sizes[:-1], sizes[1:]))


class ModelParams:
    """Network parameters in one contiguous float64 vector, `flat`.

    `flat` holds three segments in order: the online encoder (backbone, then
    projector), the predictor, and the teacher (the "target." copy of the
    encoder, in the same layout). `values` maps each name to its view of
    `flat`, in that order. Write through the views or `flat`; rebinding a
    name in `values` detaches it from `flat`.

    `flat` may also be a stack (K, size) of K states. Every view and segment
    then has a leading axis of K (weights (K, fan_in, fan_out), biases
    (K, fan_out)), and state k's are those of ModelParams(spec, flat[k]).
    """

    def __init__(self, spec: NetworkSpec, flat: np.ndarray | None = None):
        """View `flat` without copying it, or a fresh vector of zeros."""
        layout = _layout(spec)
        size = spec.flat_size()
        if flat is None:
            flat = np.zeros(size)
        elif flat.ndim not in (1, 2) or flat.shape[-1] != size:
            raise ShapeError(
                f"parameter vector: shape {flat.shape}, expected ({size},) or (K, {size})"
            )
        self.spec = spec
        self.flat = flat
        self.values = _views(flat, layout)
        self._n_trainable = next(
            span.start for name, span, _ in layout if name.startswith("target.")
        )

    @property
    def trainable(self) -> np.ndarray:
        """The online encoder and predictor segments: what the optimizer updates."""
        return self.flat[..., : self._n_trainable]

    @property
    def teacher(self) -> np.ndarray:
        return self.flat[..., self._n_trainable :]

    @property
    def encoder(self) -> np.ndarray:
        """The online encoder segment, laid out like the teacher."""
        return self.flat[..., : self.predictor_span.start]

    @property
    def predictor_span(self) -> slice:
        """Where the predictor segment lies in `flat` and in `trainable`,
        along their last axis."""
        return slice(self.flat.shape[-1] - self._n_trainable, self._n_trainable)

    def trainable_views(self, vec: np.ndarray) -> dict[str, np.ndarray]:
        """Named views of a vector laid out like `trainable`, such as a
        gradient (a stack of them for a stack of states)."""
        if vec.shape != self.trainable.shape:
            raise ShapeError(
                f"trainable vector: shape {vec.shape}, expected {self.trainable.shape}"
            )
        return _views(vec, [e for e in _layout(self.spec) if e[1].stop <= self._n_trainable])

    def trainable_names(self) -> list[str]:
        return [n for n in self.values if not n.startswith("target.")]

    def clone(self) -> "ModelParams":
        return ModelParams(self.spec, self.flat.copy())


def _views(vec: np.ndarray, layout) -> dict[str, np.ndarray]:
    # Named views of `vec` along its last axis; splitting that axis never
    # copies, so a row of a stack keeps writing through.
    lead = vec.shape[:-1]
    return {name: vec[..., span].reshape(lead + shape) for name, span, shape in layout}


def _online_layer_names(spec: NetworkSpec) -> list[tuple[str, tuple[int, int], bool]]:
    """(prefix, (fan_in, fan_out), has_bias) for backbone+projector+predictor."""
    out = []
    for i, dims in enumerate(spec.backbone_dims()):
        out.append((f"backbone.{i}", dims, True))
    r, p = spec.representation_dim, spec.projection_dim
    out.append(("projector.0", (r, r), True))
    out.append(("projector.1", (r, p), True))
    if spec.predictor == "linear":
        out.append(("predictor", (p, p), False))
    return out


@functools.cache
def weight_law(spec: NetworkSpec) -> tuple[tuple[int, tuple[tuple[slice, float], ...]], ...]:
    """The spans of `flat` in the order the weight law draws them, as three
    streams: the online weight matrices in layer order, the teacher's, and
    every bias (online, then teacher). Each stream is (its element count,
    its spans), each span with the bound b of its layer's uniform(-b, b),
    b = 1/sqrt(fan_in)."""
    layout = _layout(spec)
    fan_in = {name: shape[0] for name, _, shape in layout if name.endswith(".w")}
    streams = ([], [], [])  # online weights, teacher weights, biases
    for name, span, _ in layout:
        stream = 2 if name.endswith(".b") else int(name.startswith("target."))
        streams[stream].append((span, 1.0 / math.sqrt(fan_in[name[:-2] + ".w"])))
    return tuple((sum(span.stop - span.start for span, _ in spans), tuple(spans))
                 for spans in streams)


def apply_weight_law(params: ModelParams, streams: tuple[int, ...], u: np.ndarray) -> None:
    """Write weight_law's `streams` (indices into it, in that order) into
    `params`, one state or a stack, from their uniform(0, 1) draws `u`: the
    streams' elements one after another along u's last axis. Each span maps
    as Generator.uniform(-b, b) maps its own draws, -b + (b - -b) * u per
    element, so it holds the bits of one uniform call per layer."""
    law = weight_law(params.spec)
    at = 0
    for span, b in (entry for s in streams for entry in law[s][1]):
        seg = params.flat[..., span]
        np.multiply(u[..., at:at + span.stop - span.start], b - -b, out=seg)
        seg += -b
        at += span.stop - span.start


def init_params(spec: NetworkSpec, seed: int) -> ModelParams:
    """Draw the online weights from weight_law, in layer order from one
    stream seeded by `seed`, start biases at zero, and copy
    backbone+projector into the teacher.

    Zero biases keep the layer means proportional to the propagated signal,
    so normalized representations start spread out instead of clustered
    around a bias-dominated direction.
    """
    params = ModelParams(spec)
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    apply_weight_law(params, (0,), rng.random(weight_law(spec)[0][0]))
    params.teacher[...] = params.encoder
    return params


def mirror_predictor(params: ModelParams) -> ModelParams:
    """Copy of the snapshot with the linear predictor negated; the teacher
    and the rest of theta are shared bit for bit."""
    if params.spec.predictor != "linear":
        raise ConfigError("mirror_predictor: needs the linear predictor kind")
    out = params.clone()
    np.negative(params.values["predictor.w"], out=out.values["predictor.w"])
    return out


def bind_params(
    tp: Tape, params: ModelParams, grads: Mapping[str, np.ndarray] | None = None
) -> dict[str, Tensor]:
    """Register every trainable array as a leaf on the tape.

    Bind once per tape and reuse across both view forwards so gradient
    contributions from the two views accumulate onto the same leaves. With
    `grads` (for example `params.trainable_views` of a gradient vector), each
    backward pass writes every leaf's gradient into its array there.
    """
    grads = grads or {}
    return {name: tp.leaf(params.values[name], grad=grads.get(name))
            for name in params.trainable_names()}


def _check_batch(spec: NetworkSpec, x: np.ndarray) -> np.ndarray:
    """A float64 batch (n, input_dim), or a stack (..., n, input_dim) of
    them for a stack of states."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim < 2 or x.shape[-1] != spec.input_dim:
        raise ShapeError(
            f"expected a batch shaped (n, {spec.input_dim}), got {x.shape}"
        )
    if x.shape[-2] == 0:
        raise EmptyBatchError("forward: empty batch")
    return x


def _linear(x: Tensor, w, b=None) -> Tensor:
    # x @ w (+ b); a stack of states or batches takes T.stacked_matmul.
    if x.ndim == 2 and w.ndim == 2:
        return T.matmul(x, w, b)
    return T.stacked_matmul(x, w, b)


def apply_mlp(table: Mapping, prefix: str, x, n_layers: int):
    """ReLU after every layer but the last, which stays linear."""
    out = x
    for i in range(n_layers):
        out = _linear(out, table[f"{prefix}.{i}.w"], table[f"{prefix}.{i}.b"])
        if i + 1 < n_layers:
            out = T.relu(out)
    return out


def encode(
    params: ModelParams,
    x,
    leaves: Mapping[str, Tensor] | None = None,
    teacher: bool = False,
) -> Tensor:
    """Backbone+projector forward; returns z_pre, the unnormalized projector
    output.

    teacher=True reads the "target." copy of the parameters; otherwise
    `leaves` from bind_params records on a tape, and without it everything
    evaluates as constants.
    """
    spec = params.spec
    x = Tensor(_check_batch(spec, x))
    if teacher:
        table, prefix = params.values, "target."
    else:
        table, prefix = (leaves if leaves is not None else params.values), ""
    h = apply_mlp(table, f"{prefix}backbone", x, len(spec.backbone_dims()))
    return apply_mlp(table, f"{prefix}projector", h, 2)


def backbone_output(params: ModelParams, x) -> Tensor:
    """The online backbone alone, evaluated as constants: the
    representation h that encode feeds to the projector."""
    spec = params.spec
    x = Tensor(_check_batch(spec, x))
    return apply_mlp(params.values, "backbone", x, len(spec.backbone_dims()))


def forward_online(
    params: ModelParams,
    x,
    leaves: Mapping[str, Tensor] | None = None,
) -> tuple[Tensor, Tensor]:
    """Run the online path; returns (z_pre, p).

    z_pre is the unnormalized projector output and p the normalized
    predictor output (l2_normalize(z_pre) for the identity predictor); a
    caller that reads the normalized z normalizes z_pre's rows itself.
    Pass `leaves` from bind_params to record on a tape; without it
    everything evaluates as constants. The l2_normalize VJP already drops
    the radial gradient component at p.
    """
    z_pre = encode(params, x, leaves)
    if params.spec.predictor == "identity":
        return z_pre, T.l2_normalize(z_pre)
    table: Mapping = leaves if leaves is not None else params.values
    return z_pre, T.l2_normalize(_linear(z_pre, table["predictor.w"]))


def stack_views(x1, x2) -> tuple[np.ndarray, int]:
    """Both views as one batch, view 1's rows first, and the view size;
    split_views takes an output's rows apart again. Rows are the
    second-to-last axis, so stacks of batches stack view by view."""
    return np.concatenate((x1, x2), axis=-2), x1.shape[-2]


def split_views(t: Tensor, n: int) -> tuple[Tensor, Tensor]:
    """(view 1, view 2) rows of a network output on a stack_views batch."""
    return T.row_slice(t, 0, n), T.row_slice(t, n, 2 * n)


def forward_target(params: ModelParams, x) -> Tensor:
    """Teacher forward: backbone+projector under the target parameters,
    normalized. Evaluated entirely as constants, which is what makes the
    teacher a stop-gradient: no tape node exists for anything it computes."""
    return T.l2_normalize(encode(params, x, teacher=True))


def ema_update(params: ModelParams, tau: float, scratch: np.ndarray) -> None:
    """Teacher update in place: target <- tau * target + (1 - tau) * online,
    one blend of the teacher segment from the online encoder segment. The
    online term goes into `scratch`, an array shaped like params.teacher."""
    tau = float(tau)
    if not 0.0 <= tau <= 1.0:
        raise ConfigError(f"ema_tau: must lie in [0, 1], got {tau}")
    teacher = params.teacher
    teacher *= tau
    teacher += np.multiply(params.encoder, 1.0 - tau, out=scratch)


# ---------------------------------------------------------------------------
# checkpoint serialization


def save_checkpoint(params: ModelParams, path):
    """Write the magic bytes, the format version and the network spec as
    little-endian u32s (input_dim, the count and values of backbone_widths,
    representation_dim, projection_dim, the predictor's index in
    PREDICTOR_KINDS), then `params.flat` as <f8 in _layout order. A stack
    of states has no checkpoint."""
    spec = params.spec
    if params.flat.ndim != 1:
        raise ShapeError(f"save_checkpoint: one state at a time, got a stack {params.flat.shape}")
    header = (CHECKPOINT_VERSION, spec.input_dim, len(spec.backbone_widths),
              *spec.backbone_widths, spec.representation_dim, spec.projection_dim,
              PREDICTOR_KINDS.index(spec.predictor))
    with open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(struct.pack(f"<{len(header)}I", *header))
        fh.write(params.flat.astype("<f8", copy=False))


class _Reader:
    def __init__(self, blob: bytes):
        self.blob = blob
        self.pos = 0

    def take(self, n: int) -> bytes:
        if self.pos + n > len(self.blob):
            raise FormatError("checkpoint: truncated file")
        out = self.blob[self.pos : self.pos + n]
        self.pos += n
        return out

    def u32s(self, n: int) -> tuple[int, ...]:
        return struct.unpack(f"<{n}I", self.take(4 * n))


def load_checkpoint(path) -> ModelParams:
    """Parse a checkpoint written by save_checkpoint. Its spec must pass
    NetworkSpec's checks, and the rest of the file must hold exactly that
    network's parameter vector."""
    try:
        with open(path, "rb") as fh:
            blob = fh.read()
    except OSError as exc:
        raise FormatError(f"checkpoint: cannot read {path} ({exc.strerror})") from exc
    r = _Reader(blob)
    if r.take(len(CHECKPOINT_MAGIC)) != CHECKPOINT_MAGIC:
        raise FormatError("checkpoint: bad magic bytes")
    (version,) = r.u32s(1)
    if version != CHECKPOINT_VERSION:
        raise FormatError(f"checkpoint: unsupported format version {version}")
    input_dim, n_widths = r.u32s(2)
    widths = r.u32s(n_widths)
    representation_dim, projection_dim, kind = r.u32s(3)
    if kind >= len(PREDICTOR_KINDS):
        raise FormatError(f"checkpoint: predictor index {kind}, expected one of "
                          f"0..{len(PREDICTOR_KINDS) - 1} for {PREDICTOR_KINDS}")
    try:
        spec = NetworkSpec(input_dim, widths, representation_dim, projection_dim,
                           PREDICTOR_KINDS[kind])
    except ConfigError as exc:
        raise FormatError(f"checkpoint: bad network spec ({exc})") from exc
    n_bytes = 8 * spec.flat_size()
    if len(blob) - r.pos != n_bytes:
        raise FormatError(f"checkpoint: {len(blob) - r.pos} parameter bytes, expected "
                          f"{n_bytes} for the network in its header")
    return ModelParams(spec, np.frombuffer(blob, "<f8", offset=r.pos).astype(np.float64))


@functools.cache
def _layout(spec: NetworkSpec) -> tuple[tuple[str, slice, tuple[int, ...]], ...]:
    """(name, span in the flat vector, shape) of every parameter, in storage
    order."""
    entries = []
    for prefix, (fan_in, fan_out), has_bias in _online_layer_names(spec):
        entries.append((f"{prefix}.w", (fan_in, fan_out)))
        if has_bias:
            entries.append((f"{prefix}.b", (fan_out,)))
    entries += [(f"target.{name}", shape) for name, shape in entries
                if name.startswith(("backbone.", "projector."))]
    out, lo = [], 0
    for name, shape in entries:
        hi = lo + math.prod(shape)
        out.append((name, slice(lo, hi), shape))
        lo = hi
    return tuple(out)
