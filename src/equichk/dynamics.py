"""Training-dynamics integrators with symmetry-charge tracking.

Gradient flow (classical RK4 with a loss-descent acceptance rule), plain
gradient descent (with per-step orthogonality of the update against every
registered symmetry direction), and stochastic gradient flow (lockstep
Euler--Maruyama over an ensemble with counter-based per-trajectory RNG
streams).  Charges are evaluated at every record point so conservation and
drift statements become array assertions downstream.

A single run records a :class:`Trajectory`.  An SGF ensemble is one
:class:`Ensemble` holding arrays over (record, member): states, losses and
every charge, each charge evaluated by one batched call on the whole state
stack.  A member's :class:`Trajectory` is built on demand by ``ens[i]``.

Noise convention: ``exact_sde`` injects covariance ``2 sigma^2 Sigma(theta)``
per unit time, i.e. the step is

    theta <- theta - gradL dt + sigma * sqrt(2 dt) * B xi,
    B = [sqrt(w_k) (gradL_k - gradL)]_k  (d x K),   xi in R^K,

where gradL_k is sample k's gradient and the weights w_k sum to 1, so
``B B^T = Sigma`` and the kick has the law of ``Sigma^(1/2) xi``; this is
the temperature normalization under which the ensemble-mean charge drift
equals ``sigma^2 Tr(Sigma hess C)`` with no extra factor of 1/2.  In
``minibatch`` mode the step is ``theta <- theta - gradL_x dt`` with x drawn
from the data distribution each step, which realizes the same diffusion with
an effective ``sigma_eff^2 = dt / 2``.
"""

from __future__ import annotations

import csv
import json
import math
import warnings
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from . import diff_engine as de
from .errors import (
    CheckFailure,
    InsufficientEnsemble,
    InvalidNoiseModel,
    InvalidParams,
    NonFiniteResult,
    SizeMismatch,
    StepFailure,
)
from .models import Dataset, Loss, LossFamily, Model, forward, per_sample_losses
from .transforms import Charge, Transformation, noether_charge

__all__ = [
    "Trajectory",
    "Ensemble",
    "NoiseModel",
    "CovarianceReport",
    "NormGrowthReport",
    "DriftReport",
    "gradient_flow",
    "gradient_descent",
    "norm_growth_check",
    "noise_covariance",
    "sgf",
    "noether_drift_check",
    "write_trajectory_csv",
    "write_ensemble",
]

_LOSS_SLACK = 64.0 * np.finfo(float).eps  # descent acceptance slack per unit loss scale
_MAX_HALVINGS = 20
_RECORD_BUDGET = 1000
#: bytes an SGF run may hold in pre-drawn randomness and recorded arrays
_SGF_MAX_BYTES = 1 << 30


# ---------------------------------------------------------------------------
# objectives and charge lists
# ---------------------------------------------------------------------------

class _Objective:
    """Uniform value/gradient view over a single loss or a weighted dataset."""

    def __init__(self, model: Model, loss, family: Optional[LossFamily] = None):
        if isinstance(loss, Dataset):
            if family is None:
                raise InvalidParams("a dataset objective needs the loss family")
            self.parts = per_sample_losses(model, family, loss)
        elif isinstance(loss, Loss):
            self.parts = [(1.0, model, loss)]
        else:
            raise InvalidParams(f"objective must be a Loss or Dataset, got {type(loss).__name__}")
        self.d = model.d
        self.maps = [
            (w, (lambda th, m=m, l=l: l.apply(m.func(th))))
            for w, m, l in self.parts
        ]

    def value(self, theta: np.ndarray) -> float:
        return float(sum(w * float(np.asarray(mp(theta))) for w, mp in self.maps))

    def grad(self, theta: np.ndarray) -> np.ndarray:
        return self.grad_batch(theta[None, :])[0]

    def grad_batch(self, points: np.ndarray) -> np.ndarray:
        total = np.zeros_like(points)
        for w, mp in self.maps:
            total += w * de.gradient_at_points(mp, points)[1]
        return total

    def value_and_grad(self, theta: np.ndarray) -> Tuple[float, np.ndarray]:
        """:meth:`value` and :meth:`grad` at ``theta`` from one sweep per
        map, summed in the same order, so the bits agree."""
        value, grad = 0.0, np.zeros(self.d)
        for w, mp in self.maps:
            v, g = de.gradient_at_points(mp, theta[None, :])
            value += w * float(v[0])
            grad += w * g[0]
        return float(value), grad

    def sample_sweeps(self, points: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Unweighted per-sample losses (K, M) and gradients (K, M, d), one
        sweep per map."""
        sweeps = [de.gradient_at_points(mp, points) for _, mp in self.maps]
        return np.stack([v for v, _ in sweeps]), np.stack([g for _, g in sweeps])

    def weighted_loss(self, values: np.ndarray) -> np.ndarray:
        """The loss (M,) from :meth:`sample_sweeps` values, summed in map
        order as :meth:`value` sums the plain forwards."""
        total = np.zeros(values.shape[1])
        for (w, _), v in zip(self.maps, values):
            total += w * v
        return total

    def weights(self) -> np.ndarray:
        return np.array([w for w, _ in self.maps])


def _as_objective(model: Model, loss) -> _Objective:
    if isinstance(loss, tuple) and len(loss) == 2 and isinstance(loss[1], Dataset):
        return _Objective(model, loss[1], loss[0])
    return _Objective(model, loss)


def _as_charges(chargelist) -> List[Charge]:
    out: List[Charge] = []
    for entry in chargelist or ():
        if isinstance(entry, Charge):
            out.append(entry)
        elif isinstance(entry, Transformation):
            out.append(noether_charge(entry))
        else:
            raise InvalidParams(
                f"chargelist entries must be Charge or Transformation, got {type(entry).__name__}"
            )
    return out


# ---------------------------------------------------------------------------
# trajectories
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Trajectory:
    """Recorded motion of one parameter vector.

    All series share the record grid: ``times`` strictly increasing,
    ``states`` of shape (n, d), ``losses`` of shape (n,), and every named
    charge/diagnostic series of length n.
    """

    times: np.ndarray
    states: np.ndarray
    losses: np.ndarray
    charges: Dict[str, np.ndarray]
    diagnostics: Dict[str, np.ndarray]
    meta: Mapping = field(default_factory=dict)

    def __post_init__(self):
        n = self.times.shape[0]
        if np.any(np.diff(self.times) <= 0):
            raise InvalidParams("trajectory times must be strictly increasing")
        series = [("states", self.states), ("losses", self.losses)]
        series += [(f"charge {k}", v) for k, v in self.charges.items()]
        series += [(f"diagnostic {k}", v) for k, v in self.diagnostics.items()]
        for name, arr in series:
            if arr.shape[0] != n:
                raise SizeMismatch(f"{name} has length {arr.shape[0]}, times has {n}")

    @property
    def n_records(self) -> int:
        return int(self.times.shape[0])


@dataclass(frozen=True)
class Ensemble:
    """Recorded motion of an M-member SGF ensemble on one shared record grid.

    ``times`` has shape (n,), ``states`` (n, M, d), ``losses`` (n, M), and
    every named charge series (n, M).  ``len(ens)`` is M; ``ens[i]`` builds
    member i's :class:`Trajectory` on demand (a slice gives a list of them).
    """

    times: np.ndarray
    states: np.ndarray
    losses: np.ndarray
    charges: Dict[str, np.ndarray]
    meta: Mapping = field(default_factory=dict)

    def __post_init__(self):
        grid = self.states.shape[:2]
        series = [("times", self.times, grid[:1]), ("losses", self.losses, grid)]
        series += [(f"charge {k}", v, grid) for k, v in self.charges.items()]
        for name, arr, shape in series:
            if arr.shape != shape:
                raise SizeMismatch(f"{name} has shape {arr.shape}, states want {shape}")

    def __len__(self) -> int:
        return int(self.states.shape[1])

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[i] for i in range(len(self))[index]]
        i = range(len(self))[index]
        member = self.states[:, i]
        return Trajectory(
            times=self.times,
            states=member.copy(),
            losses=self.losses[:, i].copy(),
            charges={k: v[:, i].copy() for k, v in self.charges.items()},
            diagnostics={"theta_sq": np.einsum("kd,kd->k", member, member)},
            meta=dict(self.meta, index=i),
        )

    def __iter__(self):
        return (self[i] for i in range(len(self)))


class _Recorder:
    def __init__(self, model: Model, charges: Sequence[Charge], single_loss: Optional[Loss]):
        self.model = model
        self.charges = charges
        self.times: List[float] = []
        self.states: List[np.ndarray] = []
        self.losses: List[float] = []
        self.charge_vals: Dict[str, List[float]] = {c.name: [] for c in charges}
        self.diag: Dict[str, List[float]] = {"grad_norm": [], "theta_sq": []}
        self._scalar_head = model.c == 1
        if self._scalar_head:
            self.diag["f"] = []
        self._loss = single_loss
        self._sharp = (
            single_loss is not None and self._scalar_head
            and model.homogeneity_degree is not None
        )
        if self._sharp:
            self.diag["sharpness_bound"] = []
            self._m = float(model.homogeneity_degree)

    def record(self, t: float, theta: np.ndarray, grad: np.ndarray, loss: float) -> None:
        """Record one row from the gradient and loss the caller's sweep at
        ``theta`` already gave."""
        self.times.append(float(t))
        self.states.append(theta.copy())
        self.losses.append(loss)
        self.diag["grad_norm"].append(float(np.linalg.norm(grad)))
        self.diag["theta_sq"].append(float(theta @ theta))
        if self._scalar_head:
            y = forward(self.model, theta)
            self.diag["f"].append(float(y[0]))
            if self._sharp:
                yv = float(y[0])
                lp = float(np.asarray(self._loss.grad(y)).reshape(-1)[0])
                lpp = float(np.asarray(self._loss.hess(y)).reshape(1, 1)[0, 0])
                nth2 = max(float(theta @ theta), 1e-300)
                self.diag["sharpness_bound"].append(
                    (self._m / nth2) * (lpp * self._m * yv * yv + lp * (self._m - 1.0) * yv)
                )
        for c in self.charges:
            self.charge_vals[c.name].append(float(c.c_eval(theta)))

    def extra(self, name: str, value: float) -> None:
        self.diag.setdefault(name, []).append(float(value))

    def build(self, meta: Mapping) -> Trajectory:
        return Trajectory(
            times=np.asarray(self.times),
            states=np.asarray(self.states),
            losses=np.asarray(self.losses),
            charges={k: np.asarray(v) for k, v in self.charge_vals.items()},
            diagnostics={k: np.asarray(v) for k, v in self.diag.items()},
            meta=dict(meta),
        )


def _check_state(theta: np.ndarray, what: str) -> None:
    if not np.all(np.isfinite(theta)):
        raise NonFiniteResult(f"{what} produced NaN or Inf")


# ---------------------------------------------------------------------------
# gradient flow (RK4)
# ---------------------------------------------------------------------------

def gradient_flow(
    model: Model,
    loss,
    theta0,
    T: float,
    dt: float,
    chargelist: Sequence = (),
) -> Trajectory:
    """Integrate theta' = -gradL(theta) with classical RK4.

    A step is accepted only if the loss did not increase (beyond rounding
    slack); on violation the step is halved, up to 20 times, before
    StepFailure.  Charges and diagnostics are evaluated at every record
    point; the record stride keeps at most ~1000 rows per run.
    """
    if dt <= 0:
        raise InvalidParams(f"dt must be positive, got {dt}")
    if T < dt:
        raise InvalidParams(f"T = {T} is shorter than one step dt = {dt}")
    obj = _as_objective(model, loss)
    charges = _as_charges(chargelist)
    th = np.asarray(theta0, dtype=float).reshape(-1)
    if th.size != model.d:
        raise SizeMismatch(f"theta0 has {th.size} entries, model wants {model.d}")

    n_steps = max(1, int(math.ceil(T / dt - 1e-12)))
    stride = max(1, math.ceil(n_steps / _RECORD_BUDGET))
    single = loss if isinstance(loss, Loss) else None
    rec = _Recorder(model, charges, single)

    def rhs(p: np.ndarray) -> np.ndarray:
        return -obj.grad(p)

    t = 0.0
    accepted = 0
    cur_loss, g = obj.value_and_grad(th)
    k1 = -g
    rec.record(0.0, th, grad=g, loss=cur_loss)
    while t < T - 1e-12 * max(1.0, T):
        h = min(dt, T - t)
        for _halving in range(_MAX_HALVINGS + 1):
            k2 = rhs(th + 0.5 * h * k1)
            k3 = rhs(th + 0.5 * h * k2)
            k4 = rhs(th + h * k3)
            cand = th + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            _check_state(cand, "RK4 step")
            # the candidate's sweep gives the acceptance loss and, once
            # accepted, the next step's first stage and the recorded gradient
            cand_loss, g = obj.value_and_grad(cand)
            if cand_loss <= cur_loss + _LOSS_SLACK * max(1.0, abs(cur_loss)):
                break
            h *= 0.5
        else:
            raise StepFailure(
                f"loss still increases after {_MAX_HALVINGS} halvings at t = {t:.6g}"
            )
        th = cand
        cur_loss = cand_loss
        k1 = -g
        t += h
        accepted += 1
        if accepted % stride == 0 or t >= T - 1e-12 * max(1.0, T):
            rec.record(t, th, grad=g, loss=cur_loss)
    return rec.build({"kind": "gradient_flow", "dt": dt, "T": T, "stride": stride})


# ---------------------------------------------------------------------------
# gradient descent
# ---------------------------------------------------------------------------

def gradient_descent(
    model: Model,
    loss,
    theta0,
    eta: float,
    steps: int,
    chargelist: Sequence = (),
    *,
    symmetries: Sequence[Transformation] = (),
) -> Trajectory:
    """Plain GD; every update is checked to be orthogonal to each registered
    symmetry's characteristic directions (the discrete-time orthogonality of
    the parameter motion).  The worst normalized inner product per record
    lands in the ``sym_ortho_max`` diagnostic and must stay below 1e-10.
    """
    if eta < 0:
        raise InvalidParams(f"eta must be nonnegative, got {eta}")
    if steps < 1:
        raise InvalidParams("need at least one step")
    for s in symmetries:
        if s.kind != "continuous" or not s.is_symmetry:
            raise InvalidParams(f"{s.name} is not a continuous symmetry")
    obj = _as_objective(model, loss)
    charges = _as_charges(chargelist)
    th = np.asarray(theta0, dtype=float).reshape(-1)
    if th.size != model.d:
        raise SizeMismatch(f"theta0 has {th.size} entries, model wants {model.d}")

    stride = max(1, math.ceil(steps / _RECORD_BUDGET))
    single = loss if isinstance(loss, Loss) else None
    rec = _Recorder(model, charges, single)
    loss_k, g = obj.value_and_grad(th)
    rec.record(0.0, th, grad=g, loss=loss_k)
    if symmetries:
        rec.extra("sym_ortho_max", 0.0)

    worst_since_record = 0.0
    for k in range(1, steps + 1):
        delta = -eta * g
        nd = float(np.linalg.norm(delta))
        for s in symmetries:
            # H(0, .) = id, so dH/dtheta = I and X at lam = 0 is dH/dlambda
            X = s.dh_dlambda(np.zeros(s.p), th)  # (p, d)
            inner = X @ delta
            nx = float(np.linalg.norm(X))
            normalized = float(np.linalg.norm(inner)) / max(nd * nx, 1e-300) if nd > 0 else 0.0
            worst_since_record = max(worst_since_record, normalized)
            if normalized > 1e-10:
                raise CheckFailure(
                    f"GD update not orthogonal to {s.name} at step {k}: "
                    f"normalized inner product {normalized:.3e}"
                )
        th = th + delta
        _check_state(th, "GD step")
        loss_k, g = obj.value_and_grad(th)
        if k % stride == 0 or k == steps:
            rec.record(float(k), th, grad=g, loss=loss_k)
            if symmetries:
                rec.extra("sym_ortho_max", worst_since_record)
                worst_since_record = 0.0
    return rec.build({"kind": "gradient_descent", "eta": eta, "steps": steps, "stride": stride})


# ---------------------------------------------------------------------------
# norm growth along classification flows
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class NormGrowthReport:
    """Outcome of the norm-divergence check along a recorded flow.

    ``status`` is "ok" when a persistent correctly-classified tail exists,
    else "never_correctly_classified" (which is a finding, not a failure).
    ``euler_max_rel_gap`` measures d/dt (1/2)||theta||^2 = -m l'(y) y at
    every record point; ``max_decrease`` is the largest drop of ||theta||^2
    after t0 (0 for monotone growth).
    """

    status: str
    t0: Optional[float]
    monotone: bool
    max_decrease: float
    euler_max_rel_gap: float
    passed: bool


def norm_growth_check(model: Model, loss: Loss, trajectory: Trajectory) -> NormGrowthReport:
    if model.c != 1:
        raise InvalidParams("norm growth check needs a scalar-output model")
    if model.homogeneity_degree is None:
        raise InvalidParams("norm growth check needs a declared homogeneity degree")
    if loss.name not in ("exponential", "logistic"):
        raise InvalidParams(
            f"loss {loss.name!r} lacks the sign property l'(y) y < 0 on correct classification"
        )
    m = float(model.homogeneity_degree)
    n = trajectory.n_records
    states = trajectory.states
    outputs = np.asarray(model.func(states), dtype=float)  # (n, 1)
    if not np.all(np.isfinite(outputs)):
        raise NonFiniteResult("model output along the flow contains NaN or Inf")
    ys = outputs[:, 0]
    lps = np.array([float(loss.grad(y)[0]) for y in outputs])
    grads = de.gradient_at_points(lambda p: loss.apply(model.func(p)), states)[1]
    inner = np.array([float(th @ g) for th, g in zip(states, grads)])

    # Euler relation along the flow: <theta, gradL> = m l'(y) y pointwise
    rhs = m * lps * ys
    gaps = np.abs(inner - rhs) / np.maximum(np.maximum(np.abs(inner), np.abs(rhs)), 1e-12)
    euler_gap = float(gaps.max())

    correct = lps * ys < 0.0
    t0_idx: Optional[int] = None
    for i in range(n):
        if np.all(correct[i:]):
            t0_idx = i
            break
    if t0_idx is None:
        return NormGrowthReport(
            status="never_correctly_classified", t0=None, monotone=False,
            max_decrease=float("nan"), euler_max_rel_gap=euler_gap,
            passed=bool(euler_gap <= 1e-7),
        )

    norms = trajectory.diagnostics["theta_sq"][t0_idx:]
    drops = np.diff(norms)
    slack = 1e-8 * (1.0 + float(np.max(norms)))
    max_decrease = float(max(0.0, -drops.min())) if drops.size else 0.0
    monotone = bool(max_decrease <= slack)
    return NormGrowthReport(
        status="ok",
        t0=float(trajectory.times[t0_idx]),
        monotone=monotone,
        max_decrease=max_decrease,
        euler_max_rel_gap=euler_gap,
        passed=bool(monotone and euler_gap <= 1e-7),
    )


# ---------------------------------------------------------------------------
# gradient noise covariance
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CovarianceReport:
    """Per-sample gradient covariance Sigma(theta), its trace, and the
    analytic gradient of the trace

        d(Tr Sigma)/dtheta = 2 (E[hessL_x gradL_x] - hessL gradL).
    """

    Sigma: np.ndarray      # (d, d)
    trace: float
    grad_trace: np.ndarray  # (d,)


def _moments(obj: _Objective, points: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Mean gradient (n, d), gradient covariance Sigma (n, d, d) and
    d(Tr Sigma)/dtheta (n, d) at each row of ``points``."""
    w = obj.weights()
    G = obj.sample_sweeps(points)[1]                                          # (K, n, d)
    H = np.stack([de.hessians_at_points(mp, points) for _, mp in obj.maps])   # (K, n, d, d)
    gbar = np.einsum("k,knd->nd", w, G)
    hbar = np.einsum("k,knij->nij", w, H)
    sigma = np.einsum("k,kni,knj->nij", w, G, G) - np.einsum("ni,nj->nij", gbar, gbar)
    grad_trace = 2.0 * (
        np.einsum("k,knij,knj->ni", w, H, G) - np.einsum("nij,nj->ni", hbar, gbar)
    )
    return gbar, sigma, grad_trace


def noise_covariance(model: Model, family: LossFamily, dataset: Dataset, theta) -> CovarianceReport:
    th = np.asarray(theta, dtype=float).reshape(-1)
    _, sigmas, grad_traces = _moments(_Objective(model, dataset, family), th[None, :])
    sigma = 0.5 * (sigmas[0] + sigmas[0].T)
    evals = np.linalg.eigvalsh(sigma)
    scale = max(1.0, float(evals.max()) if evals.size else 0.0)
    if evals.size and float(evals.min()) < -1e-10 * scale:
        raise CheckFailure(f"gradient covariance not PSD (min eigenvalue {evals.min():.3e})")
    return CovarianceReport(Sigma=sigma, trace=float(np.trace(sigma)), grad_trace=grad_traces[0])


# ---------------------------------------------------------------------------
# stochastic gradient flow
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class NoiseModel:
    """SGF noise configuration.

    ``exact_sde`` draws Gaussian noise with the state-dependent covariance
    (see the module docstring for the temperature convention); ``minibatch``
    replaces the mean gradient by a per-sample gradient drawn from the data
    weights, with sigma implied by the sqrt(dt) scaling.
    """

    mode: str
    sigma: float
    seed: int = 0

    def __post_init__(self):
        if self.mode not in ("exact_sde", "minibatch"):
            raise InvalidNoiseModel(f"unknown noise mode {self.mode!r}")
        if not np.isfinite(self.sigma) or self.sigma < 0:
            raise InvalidNoiseModel(f"sigma must be a finite nonnegative real, got {self.sigma}")


def _sgf_grid(T: float, dt: float) -> Tuple[int, int, int]:
    """(steps, record stride, records) of an SGF run: n = round(T/dt) steps,
    a record every ``stride`` steps and at the last, plus the start."""
    n_steps = max(1, int(round(T / dt)))
    stride = max(1, math.ceil(n_steps / _RECORD_BUDGET))
    return n_steps, stride, 1 + math.ceil(n_steps / stride)


def _check_sgf_bytes(d: int, n_samples: int, T: float, dt: float, ensemble: int, mode: str,
                     sigma: float, n_charges: int) -> None:
    """Raise :class:`InvalidParams` when an SGF run would hold more than
    ``_SGF_MAX_BYTES`` in its pre-drawn noise (``exact_sde``: one draw per
    sample per step, none at ``sigma = 0``) or minibatch indices and its
    recorded states, losses and charges."""
    n_steps, _, n_rec = _sgf_grid(T, dt)
    if mode == "exact_sde":
        per_step = n_samples if sigma > 0 else 0
    else:
        per_step = 1
    needed = 8 * ensemble * (n_steps * per_step + n_rec * (d + 1 + n_charges))
    if needed > _SGF_MAX_BYTES:
        raise InvalidParams(
            f"an ensemble of {ensemble} over {n_steps} steps would hold "
            f"{needed / 2 ** 30:.1f} GiB (limit {_SGF_MAX_BYTES / 2 ** 30:.0f} GiB); "
            "reduce ensemble, T/dt, or dimension"
        )


def sgf(
    model: Model,
    family: LossFamily,
    dataset: Dataset,
    theta0,
    noise: NoiseModel,
    T: float,
    dt: float,
    ensemble: int,
    chargelist: Sequence = (),
) -> Ensemble:
    """Euler--Maruyama ensemble in lockstep, returned as one :class:`Ensemble`.

    Each trajectory owns a Philox stream keyed by (noise.seed, index), so
    results are independent of scheduling and bit-reproducible.  The time
    grid is uniform with n = round(T/dt) steps of exactly T/n.  The memory
    the run holds (pre-drawn randomness, one draw per sample per step in
    ``exact_sde`` mode and none at sigma = 0, plus recorded arrays) is
    checked against a fixed 1 GiB limit before anything is drawn.
    """
    if dt <= 0:
        raise InvalidParams(f"dt must be positive, got {dt}")
    if T < dt:
        raise InvalidParams(f"T = {T} is shorter than one step dt = {dt}")
    if ensemble < 1:
        raise InvalidParams("ensemble must hold at least one trajectory")
    obj = _Objective(model, dataset, family)
    charges = _as_charges(chargelist)
    th0 = np.asarray(theta0, dtype=float).reshape(-1)
    if th0.size != model.d:
        raise SizeMismatch(f"theta0 has {th0.size} entries, model wants {model.d}")

    d = model.d
    w = obj.weights()
    n_samples = w.size
    _check_sgf_bytes(d, n_samples, T, dt, ensemble, noise.mode, noise.sigma, len(charges))
    n_steps, stride, n_rec = _sgf_grid(T, dt)
    h = T / n_steps

    # charge-scale warning: the per-unit-time noise budget should sit well
    # below the charge itself or the drift comparison is meaningless
    if noise.mode == "exact_sde" and noise.sigma > 0 and charges:
        sig0 = noise_covariance(model, family, dataset, th0)
        budget = noise.sigma ** 2 * sig0.trace * h
        for c in charges:
            if budget >= 0.1 * max(1.0, abs(float(c.c_eval(th0)))):
                warnings.warn(
                    f"sigma^2 Tr Sigma dt = {budget:.3e} is not small against charge "
                    f"{c.name}; drift estimates will be dominated by integration error",
                    stacklevel=2,
                )

    # exact_sde draws one normal per sample per step, and none at sigma = 0
    if noise.mode == "exact_sde":
        draws = np.empty((ensemble, n_steps, n_samples if noise.sigma > 0 else 0))
    else:
        draws = np.empty((ensemble, n_steps), dtype=np.int64)
    for i in range(ensemble if draws.size else 0):
        g = np.random.Generator(np.random.Philox(key=(noise.seed, i)))
        if noise.mode == "exact_sde":
            g.standard_normal(out=draws[i])
        else:
            draws[i] = g.choice(n_samples, size=n_steps, p=w)

    root_w = np.sqrt(w)
    states = np.tile(th0, (ensemble, 1))  # (M, d)
    times = np.zeros(n_rec)
    stack = np.empty((n_rec, ensemble, d))
    stack[0] = states
    losses = np.empty((n_rec, ensemble))
    r = 1
    for step in range(n_steps):
        values, per_sample = obj.sample_sweeps(states)  # (K, M), (K, M, d)
        if step % stride == 0:  # states of record step // stride, swept here
            losses[step // stride] = obj.weighted_loss(values)
        mean_grad = np.einsum("k,kmd->md", w, per_sample)
        if noise.mode == "exact_sde":
            states = states - mean_grad * h
            if noise.sigma > 0:
                # the centered factor B = [sqrt(w_k) (g_k - gbar)] has B B^T = Sigma
                states = states + noise.sigma * math.sqrt(2.0 * h) * np.einsum(
                    "k,kmd,mk->md", root_w, per_sample - mean_grad, draws[:, step]
                )
        else:
            picked = per_sample[draws[:, step], np.arange(ensemble)]  # (M, d)
            states = states - picked * h
        if not np.all(np.isfinite(states)):
            raise NonFiniteResult(f"SGF state non-finite at step {step + 1}")
        if (step + 1) % stride == 0 or step + 1 == n_steps:
            times[r] = (step + 1) * h
            stack[r] = states
            r += 1

    # the last record is the one state no step sweeps
    losses[-1] = obj.weighted_loss(obj.sample_sweeps(states)[0])
    return Ensemble(
        times=times,
        states=stack,
        losses=losses,
        charges={c.name: np.asarray(c.c_eval(stack), dtype=float) for c in charges},
        meta={
            "kind": "sgf", "mode": noise.mode, "sigma": noise.sigma, "seed": noise.seed,
            "dt": h, "T": T, "stride": stride, "ensemble": ensemble,
        },
    )


# ---------------------------------------------------------------------------
# charge drift
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DriftReport:
    """Monte-Carlo charge drift against the two theoretical forms.

    theory_grad is -(sigma^2/2) <grad C, d(Tr Sigma)/dtheta>, theory_trace is
    sigma^2 Tr(Sigma hess C); both are averaged over the ensemble law (a
    member subsample per record point, then a trapezoid in time) and must
    agree to 1e-8 relative (their equality is an algebraic identity for
    symmetry charges, so disagreement is a CheckFailure, not statistics).
    ``passed`` is the Monte-Carlo agreement
    |empirical - theory_trace| <= 3 SE + bias_budget, where the budget holds
    the computed Euler--Maruyama per-step bias (dt/2) E[gradL^T hessC gradL]
    plus an O(dt^2) safety slop.
    """

    empirical: float
    std_error: float
    theory_grad: float
    theory_trace: float
    bias_budget: float
    n_trajectories: int
    passed: bool
    context: Mapping = field(default_factory=dict)


def _drift_terms(
    obj: _Objective, charge: Charge, points: np.ndarray, sigma_sq: float,
) -> Tuple[float, float, float]:
    """Member-averaged drift terms at a batch of states.

    Returns (mean theory_grad, mean theory_trace, mean EM quadratic-form
    bias rate) over the rows of ``points``.
    """
    gbar, sigma, grad_trace = _moments(obj, points)
    gc = np.asarray(charge.grad(points), dtype=float)   # (n, d)
    hc = np.asarray(charge.hess(points), dtype=float)   # (n, d, d)
    t_grad = -(sigma_sq / 2.0) * np.einsum("ni,ni->n", gc, grad_trace)
    t_trace = sigma_sq * np.einsum("nij,nij->n", sigma, hc)
    quad = np.einsum("ni,nij,nj->n", gbar, hc, gbar)
    return float(t_grad.mean()), float(t_trace.mean()), float(quad.mean())


def noether_drift_check(
    ensemble: Ensemble,
    charge,
    model: Model,
    family: LossFamily,
    dataset: Dataset,
    noise: NoiseModel,
    *,
    bias_safety: float = 4.0,
) -> DriftReport:
    if len(ensemble) < 100:
        raise InsufficientEnsemble(
            f"drift statistics need >= 100 trajectories, got {len(ensemble)}"
        )
    if isinstance(charge, Transformation):
        charge = noether_charge(charge)
    if not isinstance(charge, Charge):
        raise InvalidParams("charge must be a Charge or a conservative Transformation")

    times, states = ensemble.times, ensemble.states
    span = float(times[-1] - times[0])
    dt = float(ensemble.meta.get("dt", times[1] - times[0]))
    sigma_sq = noise.sigma ** 2 if noise.mode == "exact_sde" else dt / 2.0

    c_end = np.asarray(charge.c_eval(states[-1]), dtype=float)
    deltas = (c_end - np.asarray(charge.c_eval(states[0]), dtype=float)) / span
    empirical = float(deltas.mean())
    std_error = float(deltas.std(ddof=1) / math.sqrt(len(deltas)))

    # theory over the ensemble law: average across a member subsample at a
    # grid of record points (evaluating at the mean path alone would carry a
    # Jensen bias of order the ensemble spread squared)
    obj = _Objective(model, dataset, family)
    n_members = min(len(ensemble), 2048)
    rec_idx = np.unique(np.linspace(0, times.size - 1, min(times.size, 65)).astype(int))
    t_grad = np.empty(rec_idx.size)
    t_trace = np.empty(rec_idx.size)
    quad = np.empty(rec_idx.size)
    for j, k in enumerate(rec_idx):
        t_grad[j], t_trace[j], quad[j] = _drift_terms(
            obj, charge, states[k, :n_members], sigma_sq
        )
        gap = abs(t_grad[j] - t_trace[j])
        if gap > 1e-8 * max(1.0, abs(t_grad[j]), abs(t_trace[j])):
            raise CheckFailure(
                f"drift formulations disagree at record {k}: "
                f"{t_grad[j]:.6e} vs {t_trace[j]:.6e}"
            )

    grid = times[rec_idx]
    weights = np.gradient(grid) if grid.size > 2 else np.full(grid.size, span / grid.size)
    theory_grad = float(np.sum(t_grad * weights) / np.sum(weights))
    theory_trace = float(np.sum(t_trace * weights) / np.sum(weights))
    # the surviving discrepancy sources: the exact EM per-step quadratic-form
    # bias (computed, not bounded), and O(dt^2) remainders / record-grid error
    em_bias = 0.5 * dt * float(np.sum(quad * weights) / np.sum(weights))
    slop = bias_safety * dt * dt * max(abs(theory_trace) / max(dt, 1e-300), 1.0)
    bias_budget = abs(em_bias) + slop
    gap = abs(empirical - theory_trace)
    passed = bool(gap <= 3.0 * std_error + bias_budget)
    return DriftReport(
        empirical=empirical,
        std_error=std_error,
        theory_grad=theory_grad,
        theory_trace=theory_trace,
        bias_budget=float(bias_budget),
        n_trajectories=len(ensemble),
        passed=passed,
        context={
            "sigma_eff_sq": sigma_sq, "dt": dt, "span": span,
            "charge": charge.name, "mode": noise.mode,
            "em_bias": em_bias, "n_theory_members": n_members,
            "n_theory_records": int(rec_idx.size),
        },
    )


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def write_trajectory_csv(trajectory: Trajectory, path) -> None:
    """Record grid as CSV: time, loss, diagnostics, charge_<name> columns."""
    diag_keys = list(trajectory.diagnostics)
    charge_keys = list(trajectory.charges)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["time", "loss"] + diag_keys + [f"charge_{k}" for k in charge_keys])
        for i in range(trajectory.n_records):
            row = [repr(float(trajectory.times[i])), repr(float(trajectory.losses[i]))]
            row += [repr(float(trajectory.diagnostics[k][i])) for k in diag_keys]
            row += [repr(float(trajectory.charges[k][i])) for k in charge_keys]
            writer.writerow(row)


def write_ensemble(trajectories: Sequence[Trajectory], out_dir, prefix: str = "trajectory") -> dict:
    """Write one CSV per trajectory plus a JSON manifest referencing them."""
    import os
    os.makedirs(out_dir, exist_ok=True)
    entries = []
    for i, tr in enumerate(trajectories):
        name = f"{prefix}_{i:04d}.csv"
        write_trajectory_csv(tr, os.path.join(out_dir, name))
        entries.append({"file": name, "records": tr.n_records, "meta": _meta_jsonable(tr.meta)})
    manifest = {"count": len(trajectories), "trajectories": entries}
    with open(os.path.join(out_dir, "ensemble.json"), "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return manifest


def _meta_jsonable(meta: Mapping) -> dict:
    out = {}
    for k, v in meta.items():
        if isinstance(v, (np.integer,)):
            out[str(k)] = int(v)
        elif isinstance(v, (np.floating,)):
            out[str(k)] = float(v)
        else:
            out[str(k)] = v
    return out
