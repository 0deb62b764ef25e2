"""Model zoo and loss catalog.

Every model is a map ``f: R^d -> R^c`` from a flat parameter vector to an
output vector, with the data input absorbed into the closure (multi-sample
work rebinds the input per sample via :meth:`Model.with_input`).  Forward
passes are written against the generic helpers in :mod:`equichk.diff_engine`
so that a single code path serves plain evaluation, hyper-dual sweeps, and
the finite-difference oracle, including batched leading axes.

Catalog (``equichk catalog`` prints each entry's parameters, read from its
builder's keyword signature):

``homogeneous_relu_mlp``
    Bias-free ReLU network, positively homogeneous of degree m = depth.
``deep_linear``
    Bias-free linear chain f(x) = W_m ... W_1 x (degree m = depth).
``factored_last_layer``
    f(W, theta') = W h(theta') with a tanh feature extractor h.
``linear_probe``
    f(theta) = <theta, x>, the degree-1 workhorse for hand-checked fixtures.

Parameters are initialized uniform in [-1, 1] scaled by 1/sqrt(fan_in),
deterministically from the ``ModelSpec`` seed.  Matrix blocks are stored row-major as
(out, in) and flattened in declaration order.

Losses expose analytic value/grad/hess (used on the assembled side of the
identity checks) plus a generic ``apply`` for direct differentiation of the
composite loss.  Binary losses take a scalar target/label; ``softmax_xent``
takes a class index.
"""

from __future__ import annotations

import dataclasses
import functools
import inspect
import json
import math
from dataclasses import dataclass, field
from typing import Callable, Mapping, Optional, Sequence, Tuple

import numpy as np

from . import diff_engine as de
from .errors import (
    IndexOutOfRange,
    InvalidParams,
    NonFiniteEntry,
    NonFiniteResult,
    SizeMismatch,
    UnknownSpec,
)

__all__ = [
    "Block",
    "Model",
    "ModelSpec",
    "Loss",
    "LossFamily",
    "Dataset",
    "build_model",
    "forward",
    "random_params",
    "make_loss",
    "loss_family",
    "expected_loss",
    "MODEL_NAMES",
    "LOSS_NAMES",
    "call_builder",
    "signature",
]


@dataclass(frozen=True)
class Block:
    """One named parameter block inside the flat vector."""

    name: str
    shape: tuple
    start: int
    stop: int

    @property
    def size(self) -> int:
        return self.stop - self.start

    @property
    def sl(self) -> slice:
        return slice(self.start, self.stop)


@dataclass(frozen=True)
class ModelSpec:
    """Catalog request: entry name, its parameters, and the init seed."""

    name: str
    params: dict = field(default_factory=dict)
    seed: int = 0


@dataclass(frozen=True)
class Model:
    name: str
    d: int
    c: int
    blocks: Tuple[Block, ...]
    func: Callable = field(repr=False)  # raw forward: (..., d) -> (..., c)
    init_params: np.ndarray = field(repr=False)
    input_point: np.ndarray = field(repr=False)
    homogeneity_degree: Optional[int] = None
    kink_margin: Optional[Callable] = field(default=None, repr=False)
    last_layer_block: Optional[str] = None
    feature_fn: Optional[Callable] = field(default=None, repr=False)
    _rebind: Optional[Callable] = field(default=None, repr=False)

    def block(self, name: str) -> Block:
        for b in self.blocks:
            if b.name == name:
                return b
        raise UnknownSpec(f"model {self.name!r} has no block {name!r}")

    def with_input(self, x: Sequence[float]) -> "Model":
        """Same architecture and weights layout, rebound to a new input."""
        if self._rebind is None:
            raise UnknownSpec(f"model {self.name!r} does not support input rebinding")
        x = np.asarray(x, dtype=float)
        if x.shape != self.input_point.shape:
            raise SizeMismatch(
                f"input length {x.shape} != expected {self.input_point.shape}"
            )
        return self._rebind(x)


# --- parameter layout helpers ---------------------------------------------------

def _layout(shapes: Sequence[Tuple[str, tuple]]) -> Tuple[Block, ...]:
    blocks, offset = [], 0
    for name, shape in shapes:
        size = int(np.prod(shape))
        blocks.append(Block(name, tuple(shape), offset, offset + size))
        offset += size
    return tuple(blocks)


def _init_from_seed(blocks: Sequence[Block], seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return _init_from_rng(blocks, rng)


def _init_from_rng(blocks: Sequence[Block], rng: np.random.Generator) -> np.ndarray:
    out = np.empty(blocks[-1].stop)
    for b in blocks:
        fan_in = b.shape[-1]
        out[b.sl] = rng.uniform(-1.0, 1.0, size=b.size) / math.sqrt(fan_in)
    return out


def random_params(model: Model, rng: np.random.Generator) -> np.ndarray:
    """Draw a fresh parameter vector with the model's init distribution."""
    return _init_from_rng(model.blocks, rng)


def _unpack(theta, block: Block):
    """``block``'s slice of the last axis of ``theta``, shaped
    ``block.shape`` (leading direction-batch axes kept), in one slot map."""
    sl, shape = block.sl, block.shape

    def part(c):
        c = np.asarray(c)[..., sl]
        return c if len(shape) == 1 else c.reshape(c.shape[:-1] + shape)

    return de._each(theta, part)


# --- catalog builders ------------------------------------------------------------
#
# A catalog entry's parameters are its builder's keyword parameters, declared
# nowhere else; the leading positional ones (a model's seed, a transform's
# model) come from the caller, never from a config's ``params`` object.

#: ``inspect.signature`` once per builder: uncached, it was ~40 of the ~50 µs
#: that binding a config's params took
_signature = functools.lru_cache(maxsize=None)(inspect.signature)


def signature(builder: Callable, skip: Sequence[str] = ()) -> str:
    """The parameters ``builder`` takes, less those named in ``skip``: each
    as ``key`` (required) or ``key=default`` (default written as JSON)."""
    parts = [
        p.name if p.default is p.empty else f"{p.name}={json.dumps(p.default)}"
        for p in _signature(builder).parameters.values() if p.name not in skip
    ]
    return ", ".join(parts) or "no parameters"


def _bind(kind: str, name: str, builder: Callable, params: Mapping, args: tuple):
    """``params`` and ``args`` bound to ``builder``'s parameters; an unknown or
    missing key raises InvalidParams naming the parameters that the ``kind``
    entry ``name`` takes."""
    sig = _signature(builder)
    try:
        return sig.bind(*args, **params)
    except TypeError as exc:
        taken = signature(builder, skip=list(sig.parameters)[:len(args)])
        raise InvalidParams(f"{kind} {name!r} takes {taken}: {exc}") from None


def call_builder(kind: str, name: str, builder: Callable, params: Mapping, *args):
    """``builder(*args, **params)``, once the keys of ``params`` are known to
    be the builder's (see :func:`_bind`)."""
    _bind(kind, name, builder, params, args)
    return builder(*args, **params)


def _input_vector(x, what: str) -> np.ndarray:
    """A model's input parameter ``what`` as a float array; it must be finite."""
    arr = np.asarray(x, dtype=float)
    if not np.isfinite(arr).all():
        raise InvalidParams(f"model {what} must be finite")
    return arr


def _mlp_like(name, seed, widths, x, use_relu, depth=None):
    widths = [int(w) for w in widths]
    if len(widths) < 2 or any(w < 1 for w in widths):
        raise InvalidParams(f"widths must be >= 2 entries of positive ints, got {widths}")
    n_layers = len(widths) - 1
    if depth is not None and depth != n_layers:
        raise InvalidParams(f"depth {depth} inconsistent with widths {widths}")
    if x is None:
        x = np.random.default_rng(seed).uniform(-1.0, 1.0, size=widths[0])
    x = _input_vector(x, "input")
    if x.shape != (widths[0],):
        raise SizeMismatch(f"input length {x.shape} != width {widths[0]}")
    blocks = _layout([
        (f"W{i + 1}", (widths[i + 1], widths[i])) for i in range(n_layers)
    ])
    d, c = blocks[-1].stop, widths[-1]

    def func(theta):
        z = x
        for i, b in enumerate(blocks):
            z = de.matvec(_unpack(theta, b), z)
            if use_relu and i < n_layers - 1:
                z = de.relu(z)
        return z

    margin = None
    if use_relu and n_layers > 1:
        def margin(theta: np.ndarray) -> float:
            z, worst = x, math.inf
            for i, b in enumerate(blocks):
                z = de.matvec(_unpack(np.asarray(theta, dtype=float), b), z)
                if i < n_layers - 1:
                    worst = min(worst, float(np.min(np.abs(z))))
                    z = de.relu(z)
            return worst

    def rebind(new_x):
        return build_model(ModelSpec(name, {"widths": widths, "input": new_x}, seed))

    return Model(
        name=name, d=d, c=c, blocks=blocks, func=func,
        init_params=_init_from_seed(blocks, seed), input_point=x,
        homogeneity_degree=n_layers, kink_margin=margin, _rebind=rebind,
    )


def _build_relu_mlp(seed, widths, depth=None, input=None) -> Model:
    return _mlp_like("homogeneous_relu_mlp", seed, widths, input, use_relu=True, depth=depth)


def _build_deep_linear(seed, widths, input=None) -> Model:
    return _mlp_like("deep_linear", seed, widths, input, use_relu=False)


def _build_factored(seed, c, s, hidden=(), input=None, n=None) -> Model:
    c, s = int(c), int(s)
    hidden = [int(h) for h in hidden]
    if c < 1 or s < 1 or any(h < 1 for h in hidden):
        raise InvalidParams(f"factored_last_layer sizes must be positive, got c={c} s={s} hidden={hidden}")
    if input is None:
        size = max(2, s) if n is None else int(n)
        input = np.random.default_rng(seed).uniform(-1.0, 1.0, size=size)
    elif n is not None:
        raise InvalidParams("factored_last_layer takes input or n (the width of a random input), not both")
    x = _input_vector(input, "input")
    feat_widths = [x.size] + hidden + [s]
    shapes = [("W", (c, s))] + [
        (f"V{i + 1}", (feat_widths[i + 1], feat_widths[i]))
        for i in range(len(feat_widths) - 1)
    ]
    blocks = _layout(shapes)
    feat_blocks = blocks[1:]

    def features(theta):
        z = x
        for b in feat_blocks:
            z = de.tanh(de.matvec(_unpack(theta, b), z))
        return z

    def func(theta):
        return de.matvec(_unpack(theta, blocks[0]), features(theta))

    def rebind(new_x):
        return build_model(ModelSpec(
            "factored_last_layer",
            {"c": c, "s": s, "hidden": hidden, "input": new_x},
            seed,
        ))

    return Model(
        name="factored_last_layer", d=blocks[-1].stop, c=c, blocks=blocks,
        func=func, init_params=_init_from_seed(blocks, seed), input_point=x,
        last_layer_block="W", feature_fn=features, _rebind=rebind,
    )


def _build_linear_probe(seed, x) -> Model:
    x = _input_vector(x, "x")
    if x.ndim != 1 or x.size < 1:
        raise InvalidParams("linear_probe needs a 1-d input vector x")
    blocks = _layout([("theta", (x.size,))])

    def func(theta):
        return de.expand_last(de.dot(theta, x))

    def rebind(new_x):
        return build_model(ModelSpec("linear_probe", {"x": new_x}, seed))

    return Model(
        name="linear_probe", d=x.size, c=1, blocks=blocks, func=func,
        init_params=_init_from_seed(blocks, seed), input_point=x,
        homogeneity_degree=1, _rebind=rebind,
    )


_BUILDERS = {
    "homogeneous_relu_mlp": _build_relu_mlp,
    "deep_linear": _build_deep_linear,
    "factored_last_layer": _build_factored,
    "linear_probe": _build_linear_probe,
}
MODEL_NAMES = tuple(_BUILDERS)


def build_model(spec: ModelSpec) -> Model:
    """Instantiate a catalog model with deterministic seed initialization."""
    try:
        builder = _BUILDERS[spec.name]
    except KeyError:
        raise UnknownSpec(f"unknown model {spec.name!r}; catalog: {sorted(_BUILDERS)}")
    return call_builder("model", spec.name, builder, spec.params, int(spec.seed))


def forward(model: Model, theta) -> np.ndarray:
    """Evaluate the model at a flat parameter vector, with validation."""
    arr = np.asarray(theta, dtype=float).reshape(-1)
    if arr.size != model.d:
        raise SizeMismatch(f"theta length {arr.size} != model dim {model.d}")
    if not np.isfinite(arr).all():
        raise NonFiniteEntry("theta contains NaN or Inf")
    out = np.asarray(model.func(arr), dtype=float)
    if not np.isfinite(out).all():
        raise NonFiniteResult("model output contains NaN or Inf")
    return out


# --- losses ----------------------------------------------------------------------

@dataclass(frozen=True)
class Loss:
    """Scalar loss on model outputs with analytic derivatives.

    ``apply`` is the generic evaluation used for direct differentiation of
    the composite L = loss o model; ``value``/``grad``/``hess`` are the
    analytic forms used on the assembled side of each identity.
    """

    name: str
    c: int
    params: dict
    apply: Callable = field(repr=False)
    _value: Callable = field(repr=False)
    _grad: Callable = field(repr=False)
    _hess: Callable = field(repr=False)

    def _coerce(self, y) -> np.ndarray:
        arr = np.asarray(y, dtype=float).reshape(-1)
        if arr.size != self.c:
            raise SizeMismatch(f"output length {arr.size} != loss dim {self.c}")
        return arr

    def value(self, y) -> float:
        return float(self._value(self._coerce(y)))

    def grad(self, y) -> np.ndarray:
        return np.asarray(self._grad(self._coerce(y)), dtype=float)

    def hess(self, y) -> np.ndarray:
        return np.asarray(self._hess(self._coerce(y)), dtype=float)


def _sigmoid(z: np.ndarray) -> np.ndarray:
    return np.exp(-np.logaddexp(0.0, -z))


def _make_square(target) -> Loss:
    t = np.atleast_1d(np.asarray(target, dtype=float))
    if not np.isfinite(t).all():
        raise InvalidParams("square loss target must be finite")
    c = t.size

    def apply(y):
        diff = y - t
        return 0.5 * de.sum_last(diff * diff)

    return Loss(
        name="square", c=c, params={"target": t.tolist()},
        apply=apply,
        _value=lambda y: 0.5 * float(np.sum((y - t) ** 2)),
        _grad=lambda y: y - t,
        _hess=lambda y: np.eye(c),
    )


def _check_label(label) -> float:
    lab = float(label)
    if lab not in (-1.0, 1.0):
        raise InvalidParams(f"binary label must be +1 or -1, got {label}")
    return lab


def _make_exponential(label) -> Loss:
    lab = _check_label(label)

    def apply(y):
        return de.sum_last(de.exp(y * (-lab)))

    return Loss(
        name="exponential", c=1, params={"label": lab},
        apply=apply,
        _value=lambda y: float(np.exp(-lab * y[0])),
        _grad=lambda y: np.array([-lab * np.exp(-lab * y[0])]),
        _hess=lambda y: np.array([[np.exp(-lab * y[0])]]),
    )


def _make_logistic(label) -> Loss:
    lab = _check_label(label)

    def apply(y):
        return de.sum_last(de.log1p(de.exp(y * (-lab))))

    def hess(y):
        s = _sigmoid(lab * y[0])
        return np.array([[s * (1.0 - s)]])

    return Loss(
        name="logistic", c=1, params={"label": lab},
        apply=apply,
        _value=lambda y: float(np.log1p(np.exp(-lab * y[0]))),
        _grad=lambda y: np.array([-lab * _sigmoid(-lab * y[0])]),
        _hess=hess,
    )


def _make_softmax_xent(n_classes, label) -> Loss:
    c = int(n_classes)
    k = int(label)
    if c < 2:
        raise InvalidParams(f"softmax_xent needs >= 2 classes, got {c}")
    if not 0 <= k < c:
        raise IndexOutOfRange(f"class label {k} outside 0..{c - 1}")

    def apply(y):
        # logsumexp with a detached shift: the shift is a constant w.r.t.
        # perturbations, so derivatives pass through untouched.
        shift = np.max(np.asarray(y.value if isinstance(y, de.HyperDual) else y), axis=-1, keepdims=True)
        z = y - shift
        lse = de.log(de.sum_last(de.exp(z))) + np.squeeze(shift, axis=-1)
        return lse - de.sum_last(de.take_last(y, slice(k, k + 1)))

    def probs(y):
        z = y - np.max(y)
        e = np.exp(z)
        return e / np.sum(e)

    def grad(y):
        g = probs(y)
        g = g.copy()
        g[k] -= 1.0
        return g

    def hess(y):
        p = probs(y)
        return np.diag(p) - np.outer(p, p)

    return Loss(
        name="softmax_xent", c=c, params={"n_classes": c, "label": k},
        apply=apply, _value=lambda y: float(np.log(np.sum(np.exp(y - np.max(y)))) + np.max(y) - y[k]),
        _grad=grad, _hess=hess,
    )


#: loss name -> (builder, the parameter a sample's target binds)
_LOSSES = {
    "square": (_make_square, "target"),
    "exponential": (_make_exponential, "label"),
    "logistic": (_make_logistic, "label"),
    "softmax_xent": (_make_softmax_xent, "label"),
}
LOSS_NAMES = tuple(_LOSSES)


def _loss_entry(name: str):
    try:
        return _LOSSES[name]
    except KeyError:
        raise UnknownSpec(f"unknown loss {name!r}; catalog: {sorted(LOSS_NAMES)}") from None


def make_loss(name: str, **params) -> Loss:
    """Build a catalog loss; see ``LOSS_NAMES``."""
    return call_builder("loss", name, _loss_entry(name)[0], params)


@dataclass(frozen=True)
class LossFamily:
    """A loss catalog entry with the per-sample target left open."""

    name: str
    fixed: dict = field(default_factory=dict)

    def bind(self, target) -> Loss:
        return make_loss(self.name, **self.fixed, **{_loss_entry(self.name)[1]: target})


def loss_family(name: str, **fixed) -> LossFamily:
    """The loss ``name`` with ``fixed`` parameters and the per-sample one
    (``target`` or ``label``) left open; ``fixed`` may not set that one."""
    builder, key = _loss_entry(name)
    if key in fixed:
        raise InvalidParams(f"loss {name!r} takes {key} from each sample, not from its params")
    _bind("loss", name, builder, {**fixed, key: None}, ())
    return LossFamily(name, fixed)


@dataclass(frozen=True)
class Dataset:
    """Weighted empirical distribution of (input, target) samples."""

    samples: tuple  # ((x, target), ...)
    weights: tuple

    def __post_init__(self):
        if len(self.samples) != len(self.weights):
            raise SizeMismatch(
                f"{len(self.samples)} samples but {len(self.weights)} weights"
            )
        if len(self.samples) == 0:
            raise InvalidParams("dataset needs at least one sample")
        w = np.asarray(self.weights, dtype=float)
        if not np.isfinite(w).all():
            raise InvalidParams("dataset weights must be finite")
        if np.any(w < 0):
            raise InvalidParams("dataset weights must be nonnegative")
        if abs(float(np.sum(w)) - 1.0) > 1e-12:
            raise InvalidParams(f"dataset weights sum to {float(np.sum(w))}, not 1")

    @staticmethod
    def equal_weight(samples) -> "Dataset":
        n = len(samples)
        return Dataset(tuple((np.asarray(x, dtype=float), t) for x, t in samples),
                       tuple(1.0 / n for _ in range(n)))


def per_sample_losses(model: Model, family: LossFamily, dataset: Dataset):
    """Bind (model-with-input, loss) pairs for every sample."""
    bound = []
    for (x, target), w in zip(dataset.samples, dataset.weights):
        bound.append((float(w), model.with_input(x), family.bind(target)))
    return bound


def expected_loss(model: Model, family: LossFamily, dataset: Dataset, theta) -> float:
    """Weighted mean loss over the dataset at parameters theta."""
    arr = np.asarray(theta, dtype=float)
    total = 0.0
    for w, m, loss in per_sample_losses(model, family, dataset):
        total += w * float(np.asarray(loss.apply(m.func(arr))))
    return total
