"""Spans around raftlab's public functions, and the per-layer numbers they give.

The worker patches each public function at every module-level name the code
looks it up by (for example `raftlab.train.forward_online`, or
`raftlab.tape.matmul`, which `model.py` calls as `T.matmul`), plus
`Tape.backward` on the class. Each call records one span: name, start, end and
parent. Spans stay in memory and are written to one `.npz` file when the
pipeline ends; `analyze` turns that file into per-layer metrics.

A span is named `<module>.<function>` after the module that defines the
function, so its first component is the layer.
"""

from __future__ import annotations

import functools
import time
import types
from array import array

import numpy as np

# Modules of src/raftlab, which are the benchmark's layers.
LAYERS = ("cli", "data", "evaluate", "losses", "model", "optim", "tape", "train", "verify")

# Tensor constructors, not ops: they run on every op input and would only
# add tracing cost.
_UNTRACED = {"tape.constant", "tape.as_tensor", "tape.table_to_gradients"}

TRAIN_RUN = "train.train_run"
MATMUL = "tape.matmul"


class Recorder:
    """Append-only span store; one per traced process."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.flop_span = array("q")
        self.flops = array("d")

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, fn, name: str):
        nid = self._id(name)
        name_id, parent, start, end = self.name_id, self.parent, self.start, self.end
        stack = self.stack
        clock = time.perf_counter
        count_flops = name == MATMUL
        flop_span, flops = self.flop_span, self.flops

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(start)
            name_id.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(i)
            start.append(clock())
            try:
                out = fn(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()
            if count_flops:
                m, n = out.shape
                flop_span.append(i)
                flops.append(2.0 * m * n * np.shape(args[0])[-1])
            return out

        return traced

    def save(self, path):
        np.savez(
            path,
            names=np.array(self.names, dtype=str),
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            flop_span=np.frombuffer(self.flop_span, dtype=np.int64),
            flops=np.frombuffer(self.flops, dtype=np.float64),
        )


def install(recorder: Recorder, package) -> None:
    """Wrap every public raftlab function at each module-level name bound to
    it, and `Tape.backward`."""
    wrappers = {}
    for layer in LAYERS:
        module = getattr(package, layer)
        for attr, obj in list(vars(module).items()):
            if attr.startswith("_") or not isinstance(obj, types.FunctionType):
                continue
            if not obj.__module__.startswith(package.__name__ + "."):
                continue
            name = f"{obj.__module__.rsplit('.', 1)[1]}.{obj.__name__}"
            if name in _UNTRACED:
                continue
            if obj not in wrappers:
                wrappers[obj] = recorder.wrap(obj, name)
            setattr(module, attr, wrappers[obj])
    tape_cls = package.tape.Tape
    tape_cls.backward = recorder.wrap(tape_cls.backward, "tape.backward")


def analyze(path, steps: int) -> dict:
    """Per-layer numbers of one traced pipeline.

    `steps` is the number of training steps the pipeline ran. Returns a dict
    with `per_step` (ms per training step of each step phase, keyed by span
    name), `ops` (per op: calls and self ms per step), `functions` (per span
    name over the whole pipeline: calls, inclusive and self seconds),
    `layer_self_s` (for the layers it called), `traced_s`, `train_self_ms`
    and `mflop_per_step` (None without training steps).
    """
    with np.load(path) as z:
        names = [str(n) for n in z["names"]]
        nid = z["name_id"].astype(np.int64)
        parent = z["parent"].astype(np.int64)
        dur = z["end"] - z["start"]
        flop_span, flops = z["flop_span"], z["flops"]
    n = dur.size
    has_parent = parent >= 0
    child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=n)
    self_t = dur - child

    is_train = np.zeros(len(names), dtype=bool)
    if TRAIN_RUN in names:
        is_train[names.index(TRAIN_RUN)] = True
    span_is_train = is_train[nid]
    # A span is inside a training run if any ancestor is a train_run span;
    # parents precede children, so pointer jumping settles in depth rounds.
    under = np.zeros(n, dtype=bool)
    anc = parent.copy()
    while True:
        live = anc >= 0
        if not live.any():
            break
        under[live] |= span_is_train[anc[live]]
        anc[live] = parent[anc[live]]
    direct = has_parent & span_is_train[np.where(has_parent, parent, 0)]

    per_step_div = max(steps, 1)
    k = len(names)
    calls = np.bincount(nid, minlength=k)
    incl = np.bincount(nid, weights=dur, minlength=k)
    selfs = np.bincount(nid, weights=self_t, minlength=k)
    step_incl = np.bincount(nid[direct], weights=dur[direct], minlength=k)
    step_direct = np.bincount(nid[direct], minlength=k)
    step_calls = np.bincount(nid[under], minlength=k)
    step_self = np.bincount(nid[under], weights=self_t[under], minlength=k)

    functions = {
        names[i]: {"calls": int(calls[i]), "incl_s": float(incl[i]), "self_s": float(selfs[i])}
        for i in range(k)
        if calls[i]
    }
    # A step phase is a direct child of train_run called at least once per
    # step; init_params, the final save_checkpoint and the periodic metric
    # logging are not.
    per_step = {
        names[i]: 1e3 * float(step_incl[i]) / per_step_div
        for i in range(k)
        if steps and step_direct[i] >= steps
    }
    ops = {
        names[i][len("tape."):]: {
            "calls_per_step": float(step_calls[i]) / per_step_div,
            "ms": 1e3 * float(step_self[i]) / per_step_div,
        }
        for i in range(k)
        if names[i].startswith("tape.") and names[i] != "tape.backward" and step_calls[i]
    }
    layer_self: dict[str, float] = {}  # layers the pipeline called
    for i in range(k):
        if calls[i]:
            layer = names[i].split(".", 1)[0]
            layer_self[layer] = layer_self.get(layer, 0.0) + float(selfs[i])
    train_self = float(selfs[names.index(TRAIN_RUN)]) if TRAIN_RUN in names else 0.0
    flop_under = under[flop_span] if flop_span.size else np.zeros(0, dtype=bool)
    return {
        "per_step": per_step,
        "ops": ops,
        "functions": functions,
        "layer_self_s": layer_self,
        "traced_s": float(dur[~has_parent].sum()),
        "train_self_ms": 1e3 * train_self / steps if steps else None,
        "mflop_per_step": float(flops[flop_under].sum()) / 1e6 / steps if steps else None,
    }
