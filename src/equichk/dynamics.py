"""Training-dynamics integrators with symmetry-charge tracking.

Gradient flow with the error-controlled Dormand--Prince 8(5,3) pair (DOP853)
at a fixed tolerance of 1e-12 and a loss-descent acceptance rule
(``stationary_flow``, which the CLI's ``flow`` and ``stationary_spectrum``
experiments both run), gradient flow with classical RK4 at a fixed step and
the same acceptance rule (``gradient_flow``, the fixed-order reference), plain
gradient descent (with per-step orthogonality of the update against every
registered symmetry direction), and stochastic gradient flow (lockstep
Euler--Maruyama over an ensemble with counter-based per-trajectory RNG
streams).  Charges are evaluated at every record point, each by one call on
the stack of recorded states, so conservation and drift statements become
array assertions downstream.  Both flows step through one explicit
Runge--Kutta kernel, ``_rk_step``, on their own tableaus (``_DP_A``/``_DP_B``
and ``_RK4_A``/``_RK4_B``), and count their accepted and rejected steps and
gradient sweeps in the trajectory's ``meta``.

A single run records a :class:`Trajectory`.  An SGF ensemble is one
:class:`Ensemble` holding arrays over (record, member): states, losses and
every charge, each charge evaluated by one batched call on the whole state
stack.  A member's :class:`Trajectory` is built on demand by ``ens[i]``.

The verdicts along runs -- charge conservation along a flow
(``charge_conservation_check``, one report per charge), norm growth
(``norm_growth_check``) and the SGF charge drift (``noether_drift_check``)
-- return the suite checks' report type,
:class:`~equichk.identity_checker.IdentityReport`, each named and anchored
in ``identity_checker.CHECK_ANCHORS``.

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
import os
import warnings
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from . import diff_engine as de
from .errors import (
    CheckFailure,
    InsufficientEnsemble,
    InvalidNoiseModel,
    InvalidParams,
    SizeMismatch,
    StepFailure,
)
from .identity_checker import CHECK_ANCHORS, IdentityReport, _positive, _report
from .models import (Dataset, Loss, LossFamily, Model, _head_scalars, _is_integer, _is_real,
                     _json_value, _rayleigh_bound, _scalar_homogeneous, per_sample_losses)
from .tensor_core import _point
from .transforms import (Charge, Transformation, _list_keys, _require_continuous_symmetry,
                         characteristic_direction, noether_charge)

__all__ = [
    "Trajectory",
    "Ensemble",
    "NoiseModel",
    "CovarianceReport",
    "gradient_flow",
    "stationary_flow",
    "gradient_descent",
    "charge_conservation_check",
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
_BIAS_SAFETY = 4.0  # factor on the drift check's O(dt^2) slop, dt^2 max(|theory_trace| / dt, 1)
_MIN_DRIFT_ENSEMBLE = 100  # the fewest members noether_drift_check takes
#: bytes of stacked states (states x d x 8) one drift-theory call sweeps, as
#: whole records and at least one.  Measured in-process on the bundled
#: sgf_drift ensemble (2,000 members, d = 2, 51 records, one BLAS thread):
#: noether_drift_check's median fell from 72 ms at one record a call to a
#: flat 50-55 ms from 4 to 17 records (this budget holds 4) and rose to 58 ms
#: at all 51, whose sweep temporaries spill out of cache; at d = 12 one
#: record (188 KiB) a call beat 2 or more.  Tables in BENCH_32.json.
_DRIFT_BLOCK_BYTES = 128 * 2 ** 10


# ---------------------------------------------------------------------------
# objectives and charge lists
# ---------------------------------------------------------------------------

class _Objective:
    """Uniform value/gradient view over a single loss or a weighted dataset:
    ``loss`` is a :class:`Loss` or a ``(family, Dataset)`` pair."""

    def __init__(self, model: Model, loss):
        if isinstance(loss, Loss):
            self.parts = [(1.0, model, loss)]
        elif isinstance(loss, tuple) and len(loss) == 2 and isinstance(loss[1], Dataset):
            self.parts = per_sample_losses(model, loss[0], loss[1])
        else:
            raise InvalidParams(
                f"objective must be a Loss or a (family, Dataset) pair, got {type(loss).__name__}")
        self.d = model.d
        self.maps = [(w, de._loss_map(m, l)) for w, m, l in self.parts]

    def value_and_grad(self, theta: np.ndarray) -> Tuple[float, np.ndarray]:
        """The loss at ``theta`` and its gradient, from one sweep per map,
        each summed in map order; a sweep's value is the plain forward's."""
        if len(self.maps) == 1:   # the same sums, without the accumulator
            (w, mp), = self.maps
            v, g = de.gradient_at_points(mp, theta[None, :])
            grad = w * g[0]
            grad += 0.0   # as 0.0 + w g: a -0.0 entry reads +0.0
            return 0.0 + w * float(v[0]), grad
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
        order as :meth:`value_and_grad` sums them."""
        total = np.zeros(values.shape[1])
        for (w, _), v in zip(self.maps, values):
            total += w * v
        return total

    def weights(self) -> np.ndarray:
        return np.array([w for w, _ in self.maps])


def _check_step(T: float, dt: float, *, clipped: bool = False) -> None:
    """Raise InvalidParams unless T and dt are finite reals, dt is positive
    and T covers one step -- or, for a first step ``clipped`` to T, is positive."""
    for name, value in (("T", T), ("dt", dt)):
        if not _is_real(value):
            raise InvalidParams(f"{name} must be a finite real, got {value!r}")
    if dt <= 0:
        raise InvalidParams(f"dt must be positive, got {dt}")
    if T < dt and not clipped:
        raise InvalidParams(f"T = {T} is shorter than one step dt = {dt}")
    if T <= 0:
        raise InvalidParams(f"T must be positive, got {T}")


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
    charge/diagnostic series of length n.  A deterministic run also keeps
    ``grads`` (n, d), the loss gradient its own sweep gave at each recorded
    state, and, on a scalar homogeneous head with a single loss,
    ``output_grads`` (n, c), the analytic l'(y) at each recorded output (the
    one evaluation that ``sharpness_bound`` and :func:`norm_growth_check`
    read); no CSV column holds either.
    """

    times: np.ndarray
    states: np.ndarray
    losses: np.ndarray
    charges: Dict[str, np.ndarray]
    diagnostics: Dict[str, np.ndarray]
    meta: Mapping = field(default_factory=dict)
    grads: Optional[np.ndarray] = None
    output_grads: Optional[np.ndarray] = None

    def __post_init__(self):
        n = self.times.shape[0]
        if np.any(np.diff(self.times) <= 0):
            raise InvalidParams("trajectory times must be strictly increasing")
        series = [("states", self.states), ("losses", self.losses)]
        for name, arr in (("grads", self.grads), ("output_grads", self.output_grads)):
            if arr is not None:
                series.append((name, arr))
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
    """The rows of a deterministic run: a record keeps only what the caller's
    sweep already gave, and :meth:`build` evaluates ``f``, ``sharpness_bound``
    and every charge by one call on the state stack, as :func:`sgf` does, and
    l'(y) once per record (kept as ``output_grads``)."""

    def __init__(self, model: Model, charges: Sequence[Charge], single_loss: Optional[Loss]):
        self.model = model
        self.charges = charges
        self._loss = single_loss
        self.rows: List[Tuple[float, np.ndarray, float, np.ndarray, float, float]] = []
        self.extras: Dict[str, List[float]] = {}

    def record(self, t: float, theta: np.ndarray, grad: np.ndarray, loss: float) -> None:
        """Record one row from the gradient and loss the caller's sweep at ``theta``
        already gave; a grad_norm whose sum of squares overflows is ``math.hypot``'s."""
        with np.errstate(over="ignore"):
            grad_norm, theta_sq = float(np.linalg.norm(grad)), float(theta @ theta)
        if math.isinf(grad_norm):
            grad_norm = math.hypot(*grad.tolist())
        self.rows.append((float(t), theta.copy(), loss, grad.copy(), grad_norm, theta_sq))

    def extra(self, name: str, value: float) -> None:
        self.extras.setdefault(name, []).append(float(value))

    def build(self, meta: Mapping) -> Trajectory:
        times, states, losses, grads, grad_norm, theta_sq = map(np.asarray, zip(*self.rows))
        diag = {"grad_norm": grad_norm, "theta_sq": theta_sq}
        output_grads = None
        if self.model.c == 1:
            outputs = np.asarray(self.model.func(states), dtype=float)  # (n, 1)
            de._check_finite(outputs, "the model along the run")
            diag["f"] = outputs[:, 0]
            if self._loss is not None and _scalar_homogeneous(self.model):
                output_grads = np.array([self._loss.grad(y) for y in outputs])  # (n, 1)
                diag["sharpness_bound"] = np.array([_rayleigh_bound(
                    *_head_scalars(self.model, y, gl, self._loss.hess(y)),
                    max(sq, 1e-300)) for y, gl, sq in zip(outputs, output_grads, theta_sq)])
        diag.update((k, np.asarray(v)) for k, v in self.extras.items())
        charges = {k: np.asarray(c.c_eval(states), dtype=float)
                   for k, c in zip(_list_keys([c.name for c in self.charges]), self.charges)}
        return Trajectory(times=times, states=states, losses=losses, charges=charges,
                          diagnostics=diag, meta=dict(meta), grads=grads,
                          output_grads=output_grads)


def _start(model: Model, loss, theta0,
           chargelist) -> Tuple[_Objective, _Recorder, np.ndarray, float, np.ndarray]:
    """A deterministic run's objective and recorder, and its first state with
    the loss and gradient of the sweep there, already recorded at t = 0."""
    obj = _Objective(model, loss)
    charges = _as_charges(chargelist)
    th = _point(theta0, model.d, "theta0")
    rec = _Recorder(model, charges, loss if isinstance(loss, Loss) else None)
    value, g = obj.value_and_grad(th)
    rec.record(0.0, th, grad=g, loss=value)
    return obj, rec, th, value, g


def _descends(cand_loss: float, cur_loss: float) -> bool:
    """Both flows' acceptance rule: the loss did not rise beyond rounding slack."""
    return cand_loss <= cur_loss + _LOSS_SLACK * max(1.0, abs(cur_loss))


# ---------------------------------------------------------------------------
# explicit Runge--Kutta steps of theta' = -gradL(theta)
# ---------------------------------------------------------------------------

def _rk_step(obj: _Objective, th: np.ndarray, h: float, A: np.ndarray, b: np.ndarray,
             K: np.ndarray) -> Tuple[np.ndarray, float, np.ndarray]:
    """One explicit Runge--Kutta step of size ``h`` from ``th`` with tableau
    (A, b).  ``K[0]`` holds -gradL(th) on entry, and each later stage is
    filled in place as K[i] = -gradL(th + h A[i, :i] K[:i]).  Returns the
    candidate th + h b K, checked finite, with its loss and gradient from one
    sweep: the acceptance loss and, once accepted, the next step's K[0]."""
    for i in range(1, b.size):
        K[i] = -obj.value_and_grad(th + h * (A[i, :i] @ K[:i]))[1]
    cand = th + h * (b @ K)
    de._check_finite(cand, f"{b.size}-stage Runge-Kutta step")
    return (cand, *obj.value_and_grad(cand))


# classical RK4: each stage weighs only the stage before it
_RK4_A = np.diag([0.5, 0.5, 1.0], k=-1)
_RK4_B = np.array([1.0, 2.0, 2.0, 1.0]) / 6.0


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
    _check_step(T, dt)
    obj, rec, th, cur_loss, g = _start(model, loss, theta0, chargelist)
    n_steps = max(1, int(math.ceil(T / dt - 1e-12)))
    stride = max(1, math.ceil(n_steps / _RECORD_BUDGET))
    t = 0.0
    accepted = rejected = 0
    K = np.empty((4, th.size))
    K[0] = -g
    while t < T - 1e-12 * max(1.0, T):
        h = min(dt, T - t)
        for _halving in range(_MAX_HALVINGS + 1):
            cand, cand_loss, g = _rk_step(obj, th, h, _RK4_A, _RK4_B, K)
            if _descends(cand_loss, cur_loss):
                break
            h *= 0.5
            rejected += 1
        else:
            raise StepFailure(
                f"loss still increases after {_MAX_HALVINGS} halvings at t = {t:.6g}"
            )
        th, cur_loss = cand, cand_loss
        K[0] = -g
        t += h
        accepted += 1
        if accepted % stride == 0 or t >= T - 1e-12 * max(1.0, T):
            rec.record(t, th, grad=g, loss=cur_loss)
    return rec.build({
        "kind": "gradient_flow", "dt": dt, "T": T, "stride": stride,
        "integrator": "rk4", "accepted_steps": accepted, "rejected_steps": rejected,
        "gradient_sweeps": 1 + 4 * (accepted + rejected),
    })


# ---------------------------------------------------------------------------
# error-controlled gradient flow to a stationary point (DOP853)
# ---------------------------------------------------------------------------

#: rtol and atol of :func:`stationary_flow`.  The endpoint's |gradL| floor
#: follows it, not T: on the bundled stationary config 1e-12 ends at 1e-15,
#: 1e-10 at 1.3e-15, and 1e-8 at 3e-11, under eps_stat = 1e-10
_DP_TOL = 1e-12

# DOP853, the Dormand--Prince 8(5,3) pair (Hairer, Norsett & Wanner, Solving
# ODEs I, Sec. II.10; the coefficients of Hairer's dop853.f).  Row i of _DP_A
# holds stage i's weights on stages 0..i-1, and _DP_B the 8th-order solution's
# weights, whose sweep is the next step's stage 0 (first same as last).
# _DP_E5 and _DP_E3 weigh the 12 stages into the 5th- and 3rd-order error
# estimates; the 3rd-order one is _DP_B minus an embedded solution on stages
# 0, 8 and 11.
_DP_A = np.array([row + (0.0,) * (12 - len(row)) for row in (
    (),
    (5.26001519587677318785587544488e-2,),
    (1.97250569845378994544595329183e-2, 5.91751709536136983633785987549e-2),
    (2.95875854768068491816892993775e-2, 0.0, 8.87627564304205475450678981324e-2),
    (2.41365134159266685502369798665e-1, 0.0, -8.84549479328286085344864962717e-1,
     9.24834003261792003115737966543e-1),
    (3.7037037037037037037037037037e-2, 0.0, 0.0, 1.70828608729473871279604482173e-1,
     1.25467687566822425016691814123e-1),
    (3.7109375e-2, 0.0, 0.0, 1.70252211019544039314978060272e-1,
     6.02165389804559606850219397283e-2, -1.7578125e-2),
    (3.70920001185047927108779319836e-2, 0.0, 0.0, 1.70383925712239993810214054705e-1,
     1.07262030446373284651809199168e-1, -1.53194377486244017527936158236e-2,
     8.27378916381402288758473766002e-3),
    (6.24110958716075717114429577812e-1, 0.0, 0.0, -3.36089262944694129406857109825,
     -8.68219346841726006818189891453e-1, 2.75920996994467083049415600797e1,
     2.01540675504778934086186788979e1, -4.34898841810699588477366255144e1),
    (4.77662536438264365890433908527e-1, 0.0, 0.0, -2.48811461997166764192642586468,
     -5.90290826836842996371446475743e-1, 2.12300514481811942347288949897e1,
     1.52792336328824235832596922938e1, -3.32882109689848629194453265587e1,
     -2.03312017085086261358222928593e-2),
    (-9.3714243008598732571704021658e-1, 0.0, 0.0, 5.18637242884406370830023853209,
     1.09143734899672957818500254654, -8.14978701074692612513997267357,
     -1.85200656599969598641566180701e1, 2.27394870993505042818970056734e1,
     2.49360555267965238987089396762, -3.0467644718982195003823669022),
    (2.27331014751653820792359768449, 0.0, 0.0, -1.05344954667372501984066689879e1,
     -2.00087205822486249909675718444, -1.79589318631187989172765950534e1,
     2.79488845294199600508499808837e1, -2.85899827713502369474065508674,
     -8.87285693353062954433549289258, 1.23605671757943030647266201528e1,
     6.43392746015763530355970484046e-1),
)])
_DP_B = np.array([
    5.42937341165687622380535766363e-2, 0.0, 0.0, 0.0, 0.0,
    4.45031289275240888144113950566, 1.89151789931450038304281599044,
    -5.8012039600105847814672114227, 3.1116436695781989440891606237e-1,
    -1.52160949662516078556178806805e-1, 2.01365400804030348374776537501e-1,
    4.47106157277725905176885569043e-2,
])
_DP_E5 = np.array([
    0.1312004499419488073250102996e-1, 0.0, 0.0, 0.0, 0.0,
    -0.1225156446376204440720569753e+1, -0.4957589496572501915214079952,
    0.1664377182454986536961530415e+1, -0.3503288487499736816886487290,
    0.3341791187130174790297318841, 0.8192320648511571246570742613e-1,
    -0.2235530786388629525884427845e-1,
])
_DP_E3 = _DP_B - np.array([
    0.244094488188976377952755905512, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0,
    0.733846688281611857341361741547, 0.0, 0.0, 0.220588235294117647058823529412e-1,
])


def stationary_flow(
    model: Model,
    loss,
    theta0,
    T: float,
    dt: float,
    chargelist: Sequence = (),
) -> Trajectory:
    """Integrate theta' = -gradL(theta) to t = T with the error-controlled
    DOP853 pair: a conservation check along the path or a run to a stationary
    point.

    ``dt`` is the first trial step (clipped to T).  Each attempted step takes
    12 gradient sweeps: 11 stages and the candidate's own, which is the next
    step's first stage once accepted.  With e5 and e3 the 5th- and 3rd-order
    error estimates divided by tol + tol max(|theta|, |theta_new|), tol =
    1e-12, and d the parameter count, the error norm is
    h |e5|^2 / sqrt((|e5|^2 + 0.01 |e3|^2) d), and the step then scales by
    min(5, max(0.2, 0.9 err^(-1/8))), except that the first accepted step
    after a rejection does not grow it (as in Hairer's ``dop853``).  A step is
    accepted only if err <= 1 and the loss did not increase (beyond rounding
    slack); a loss increase halves the step, and more than 20 consecutive
    rejections raise StepFailure.  Records fall on accepted steps, at most
    one per T/1000 of time, plus the start and the end.
    """
    _check_step(T, dt, clipped=True)
    obj, rec, th, cur_loss, g = _start(model, loss, theta0, chargelist)
    end = T - 1e-12 * max(1.0, T)
    t, h = 0.0, min(dt, T)
    accepted = rejected = failures = 0
    mark = 1  # the next record falls at the first accepted t >= mark T / budget
    K = np.empty((12, th.size))
    K[0] = -g
    while t < end:
        h = min(h, T - t)
        cand, cand_loss, cand_g = _rk_step(obj, th, h, _DP_A, _DP_B, K)
        scale = _DP_TOL + _DP_TOL * np.maximum(np.abs(th), np.abs(cand))
        e5 = float(np.sum(np.square(_DP_E5 @ K / scale)))
        e3 = float(np.sum(np.square(_DP_E3 @ K / scale)))
        err = h * e5 / math.sqrt((e5 + 0.01 * e3) * th.size) if e5 > 0 else 0.0
        factor = min(5.0, max(0.2, 0.9 * err ** -0.125)) if err > 0 else 5.0
        if err <= 1.0 and _descends(cand_loss, cur_loss):
            th, cur_loss, g = cand, cand_loss, cand_g
            K[0] = -g
            t += h
            accepted += 1
            if failures:  # as in Hairer's dop853: no growth right after a rejection
                factor = min(factor, 1.0)
            failures = 0
            if t >= mark * T / _RECORD_BUDGET or t >= end:
                rec.record(t, th, grad=g, loss=cur_loss)
                while mark * T / _RECORD_BUDGET <= t:
                    mark += 1
            h *= factor
            continue
        rejected += 1
        failures += 1
        if failures > _MAX_HALVINGS:
            raise StepFailure(
                f"{failures} consecutive rejected steps at t = {t:.6g} (last h = {h:.3e})"
            )
        h *= factor if err > 1.0 else 0.5
    return rec.build({
        "kind": "stationary_flow", "dt": dt, "T": T, "tol": _DP_TOL,
        "integrator": "dormand_prince_8_5_3", "accepted_steps": accepted,
        "rejected_steps": rejected, "gradient_sweeps": 1 + 12 * (accepted + rejected),
    })


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
    A symmetry with a Noether charge gives its direction as grad C (= G
    theta, X at lam = 0, with no chart inversion); any other symmetry's X
    comes from :func:`characteristic_direction`.
    """
    if not (_is_real(eta) and eta >= 0):
        raise InvalidParams(f"eta must be a finite nonnegative real, got {eta!r}")
    if not (_is_integer(steps) and steps >= 1):
        raise InvalidParams(f"steps must be a positive integer, got {steps!r}")
    for s in symmetries:
        _require_continuous_symmetry(s)
    obj, rec, th, loss_k, g = _start(model, loss, theta0, chargelist)
    stride = max(1, math.ceil(steps / _RECORD_BUDGET))
    if symmetries:
        rec.extra("sym_ortho_max", 0.0)

    worst_since_record = 0.0
    for k in range(1, steps + 1):
        delta = -eta * g
        nd = float(np.linalg.norm(delta))
        for s in symmetries:
            # (p, d), at lam = 0: grad C = G theta needs no chart inversion
            X = (s.charge.grad(th)[None] if s.charge is not None
                 else characteristic_direction(s, th))
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
        de._check_finite(th, "GD step")
        loss_k, g = obj.value_and_grad(th)
        if k % stride == 0 or k == steps:
            rec.record(float(k), th, grad=g, loss=loss_k)
            if symmetries:
                rec.extra("sym_ortho_max", worst_since_record)
                worst_since_record = 0.0
    return rec.build({"kind": "gradient_descent", "eta": eta, "steps": steps, "stride": stride})


# ---------------------------------------------------------------------------
# verdicts along gradient flows: charge conservation and norm growth
# ---------------------------------------------------------------------------

#: the largest relative charge change ``charge_conservation_check`` passes by
#: default, and the default of a flow config's ``tolerances.charge_drift``
_CONSERVATION_TOL = 1e-8
#: the losses with the sign property l'(y) y < 0 on correct classification
_MARGIN_LOSSES = ("exponential", "logistic")
#: the largest relative Euler-relation gap ``norm_growth_check`` passes by
#: default, and the default of a flow config's ``tolerances.euler_relation``
_EULER_TOL = 1e-7


def _verdict(name: str, rel: float, tol: float, context: Mapping) -> IdentityReport:
    """Check ``name``'s report whose relative residual is ``rel``: unit
    scales make the absolute residual the relative one."""
    return _report(name, CHECK_ANCHORS[name], 0.0, 0.0, 1.0, 1.0, tol, context, abs_override=rel)


def charge_conservation_check(trajectory: Trajectory, tolerance=None) -> List[IdentityReport]:
    """Cor. 2 along a gradient-flow run: one ``gf_charge_conservation``
    report per recorded charge, in the run's charge order.  Its residual is
    the charge's largest change max_t |C(t) - C(0)| / (1 + |C(0)|), passed
    at ``tolerance`` (default 1e-8); its context holds the charge's name, C(0),
    and the run's T and dt from its ``meta``."""
    tol = _CONSERVATION_TOL if tolerance is None else _positive(tolerance, "tolerance")
    if trajectory.meta.get("kind") not in ("gradient_flow", "stationary_flow"):
        raise InvalidParams(f"charge conservation is checked along a gradient flow, "
                            f"not a {trajectory.meta.get('kind')!r} run")
    T, dt = float(trajectory.meta["T"]), float(trajectory.meta["dt"])
    reports = []
    for name, series in trajectory.charges.items():
        c0 = float(series[0])
        rel = float(np.max(np.abs(series - c0))) / (1.0 + abs(c0))
        reports.append(_verdict("gf_charge_conservation", rel, tol,
                                {"charge": name, "C0": c0, "T": T, "dt": dt}))
    return reports


def _norm_growth_applies(model: Model, loss: Loss) -> bool:
    """Whether :func:`norm_growth_check` takes (model, loss)."""
    return _scalar_homogeneous(model) and loss.name in _MARGIN_LOSSES


def norm_growth_check(model: Model, loss: Loss, trajectory: Trajectory,
                      tolerance=None) -> IdentityReport:
    """§4.2's norm growth along a run of (model, loss): the ``norm_growth``
    report, read from the run's recorded ``f`` diagnostic, gradients and
    l'(y) (``output_grads``), with no new model call, sweep or loss derivative.

    Its residual is the Euler gap, the largest relative gap of
    d/dt (1/2)||theta||^2 = -m l'(y) y over the records, or inf when the run
    settled into correct classification and ||theta||^2 then shrank; it is
    passed at ``tolerance`` (default 1e-7).  The context holds ``status``
    ("ok" when a persistent correctly classified tail exists, else
    "never_correctly_classified", a finding, not a failure), ``t0`` (the
    tail's first time), ``monotone`` and ``max_decrease`` (the largest drop
    of ||theta||^2 after t0, 0 for monotone growth).
    """
    tol = _EULER_TOL if tolerance is None else _positive(tolerance, "tolerance")
    if not _norm_growth_applies(model, loss):
        raise InvalidParams(f"norm growth needs a scalar homogeneous head and a loss in "
                            f"{_MARGIN_LOSSES}; got {model.name} and {loss.name!r}")
    if (trajectory.grads is None or trajectory.output_grads is None
            or "f" not in trajectory.diagnostics):
        raise InvalidParams("norm growth reads the recorded outputs and gradients of a "
                            "deterministic run")
    m = float(model.homogeneity_degree)
    n = trajectory.n_records
    ys = trajectory.diagnostics["f"]
    lps = trajectory.output_grads[:, 0]
    inner = np.einsum("kd,kd->k", trajectory.states, trajectory.grads)

    # Euler relation along the flow: <theta, gradL> = m l'(y) y pointwise
    rhs = m * lps * ys
    gaps = np.abs(inner - rhs) / np.maximum(np.maximum(np.abs(inner), np.abs(rhs)), 1e-12)
    euler_gap = float(gaps.max())

    # t0 is the record after the last incorrectly classified one
    wrong = np.flatnonzero(~(lps * ys < 0.0))
    t0_idx = int(wrong[-1]) + 1 if wrong.size else 0
    if t0_idx == n:
        return _verdict("norm_growth", euler_gap, tol, {
            "status": "never_correctly_classified", "t0": None, "monotone": False,
            "max_decrease": float("nan")})

    norms = trajectory.diagnostics["theta_sq"][t0_idx:]
    drops = np.diff(norms)
    slack = 1e-8 * (1.0 + float(np.max(norms)))
    max_decrease = float(max(0.0, -drops.min())) if drops.size else 0.0
    monotone = bool(max_decrease <= slack)
    rel = euler_gap if monotone else math.inf  # a settled norm that shrinks fails outright
    return _verdict("norm_growth", rel, tol, {
        "status": "ok", "t0": float(trajectory.times[t0_idx]), "monotone": monotone,
        "max_decrease": max_decrease})


# ---------------------------------------------------------------------------
# gradient noise covariance
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CovarianceReport:
    """Per-sample gradient covariance Sigma(theta), its trace, and the
    analytic gradient of the trace

        d(Tr Sigma)/dtheta = 2 (E[hessL_x gradL_x] - hessL gradL),

    taken component by component as the directional trace derivative of
    :func:`_moments` along each basis direction.
    """

    Sigma: np.ndarray      # (d, d)
    trace: float
    grad_trace: np.ndarray  # (d,)


def _moments(obj: _Objective, points: np.ndarray, directions: np.ndarray
             ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Mean gradient gbar (n, d), per-sample gradients G (K, n, d) and the
    directional trace derivative (n,)

        D(Tr Sigma)[u] = 2 sum_k w_k (g_k - gbar)^T H_k u

    at each row of ``points``, u the same row of ``directions`` (n, d).  One
    hyper-dual sweep per sample map gives its gradients g_k (first slot) and
    Hessian-vector products H_k u (second slot along u), so no d x d
    per-sample Hessian is built; the k-terms are summed in map order.  Nor
    is the covariance Sigma = sum_k w_k (g_k - gbar)(g_k - gbar)^T: a
    caller that needs it, or a contraction of it, takes it from G."""
    w = obj.weights()
    sweeps = [de._sweep(mp, points, True, directions) for _, mp in obj.maps]
    G = np.stack([g for _, g, _ in sweeps])                              # (K, n, d)
    gbar = np.einsum("k,knd->nd", w, G)
    dtrace = np.zeros(points.shape[0])
    for wk, g, (_, _, hu) in zip(w, G, sweeps):
        dtrace += wk * np.einsum("ni,ni->n", g - gbar, hu)
    return gbar, G, 2.0 * dtrace


def noise_covariance(model: Model, family: LossFamily, dataset: Dataset, theta) -> CovarianceReport:
    """Sigma(theta), Tr Sigma and d(Tr Sigma)/dtheta at one state: the
    moments of ``theta`` repeated once per basis direction, so component i
    of ``grad_trace`` is the directional trace derivative along e_i, and
    Sigma built from the per-sample gradients at ``theta``."""
    th = _point(theta, model.d, "theta")
    obj = _Objective(model, (family, dataset))
    gbar, G, grad_trace = _moments(obj, np.tile(th, (th.size, 1)), np.eye(th.size))
    g, m = G[:, 0], gbar[0]
    sigma = np.einsum("k,ki,kj->ij", obj.weights(), g, g) - np.outer(m, m)
    sigma = 0.5 * (sigma + sigma.T)
    evals = np.linalg.eigvalsh(sigma)
    scale = max(1.0, float(evals.max()) if evals.size else 0.0)
    if evals.size and float(evals.min()) < -1e-10 * scale:
        raise CheckFailure(f"gradient covariance not PSD (min eigenvalue {evals.min():.3e})")
    return CovarianceReport(Sigma=sigma, trace=float(np.trace(sigma)), grad_trace=grad_trace)


# ---------------------------------------------------------------------------
# stochastic gradient flow
# ---------------------------------------------------------------------------

_NOISE_MODES = ("exact_sde", "minibatch")


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
        if self.mode not in _NOISE_MODES:
            raise InvalidNoiseModel(
                "mode", f"unknown noise mode {self.mode!r} (known: {', '.join(_NOISE_MODES)})")
        sigma, seed = self.sigma, self.seed
        if not (_is_real(sigma) and sigma >= 0):
            raise InvalidNoiseModel("sigma", f"sigma must be a finite nonnegative real, got {sigma!r}")
        # the seed is the first uint64 word of every member's stream key
        if not (_is_integer(seed) and 0 <= seed < 2 ** 64):
            raise InvalidNoiseModel("seed", f"seed must be an integer in [0, 2**64), got {seed!r}")


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

    Trajectory i owns the Philox stream with the 128-bit key (noise.seed, i),
    two uint64 words, started at counter 0: the stream of
    ``Generator(Philox(key=np.array([noise.seed, i], dtype=np.uint64)))``,
    which is ``Philox(key=(noise.seed, i))`` for seeds below 2**63.  Its
    ``exact_sde`` draws are one standard normal per sample per step,
    step-major; its ``minibatch`` draws are one weighted sample index per
    step.  Results are therefore independent of the ensemble size and
    bit-reproducible.  The time
    grid is uniform with n = round(T/dt) steps of exactly T/n.  The memory
    the run holds (pre-drawn randomness, one draw per sample per step in
    ``exact_sde`` mode and none at sigma = 0, plus recorded arrays) is
    checked against a fixed 1 GiB limit before anything is drawn.
    """
    _check_step(T, dt)
    if not (_is_integer(ensemble) and ensemble >= 1):
        raise InvalidParams(f"ensemble must be a positive integer, got {ensemble!r}")
    obj = _Objective(model, (family, dataset))
    charges = _as_charges(chargelist)
    th0 = _point(theta0, model.d, "theta0")

    d = model.d
    w = obj.weights()
    n_samples = w.size
    _check_sgf_bytes(d, n_samples, T, dt, ensemble, noise.mode, noise.sigma, len(charges))
    n_steps, stride, n_rec = _sgf_grid(T, dt)
    h = T / n_steps

    # charge-scale warning: the per-unit-time noise budget should sit well
    # below the charge itself or the drift comparison is meaningless
    if noise.mode == "exact_sde" and noise.sigma > 0 and charges:
        grads = obj.sample_sweeps(th0[None, :])[1][:, 0]  # per-sample gradients (K, d)
        dev = grads - w @ grads
        trace = float(w @ np.sum(dev * dev, axis=1))      # Tr Sigma = sum_k w_k |g_k - gbar|^2
        budget = noise.sigma ** 2 * trace * h
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
    if draws.size:
        # one bit generator, reset per member to counter 0 under key (seed, i):
        # the stream of Philox(key=(seed, i)), built once instead of per member
        bits = np.random.Philox(key=np.array([noise.seed, 0], dtype=np.uint64))
        g = np.random.Generator(bits)
        fresh = bits.state
        for i in range(ensemble):
            fresh["state"]["key"][1] = i
            bits.state = fresh
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
                    "kmd,mk->md", root_w[:, None, None] * (per_sample - mean_grad),
                    draws[:, step],
                )
        else:
            picked = per_sample[draws[:, step], np.arange(ensemble)]  # (M, d)
            states = states - picked * h
        de._check_finite(states, f"SGF step {step + 1}")
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
        charges={k: np.asarray(c.c_eval(stack), dtype=float)
                 for k, c in zip(_list_keys([c.name for c in charges]), charges)},
        meta={
            "kind": "sgf", "mode": noise.mode, "sigma": noise.sigma, "seed": noise.seed,
            "dt": h, "T": T, "stride": stride, "ensemble": ensemble,
        },
    )


# ---------------------------------------------------------------------------
# charge drift
# ---------------------------------------------------------------------------

def _drift_terms(
    obj: _Objective, charge: Charge, points: np.ndarray, sigma_sq: float,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Member-averaged drift terms at a block of records' states.

    ``points`` is (b, N, d): N member states at each of b records, swept as
    one (b N, d) batch.  Returns the b records' mean theory_grad, mean
    theory_trace and mean EM quadratic-form bias rate, each (b,) and each
    the mean of that record's own N rows.  theory_grad needs d(Tr Sigma)
    only along grad C, so the moments take grad C as each row's direction:
    -(sigma^2/2) D(Tr Sigma)[grad C] reads the loss's second derivatives
    through one Hessian-vector product per sample, while theory_trace
    reads the charge's Hessian, which keeps the two forms independent.
    theory_trace is sigma^2 Tr(Sigma hess C) = sigma^2 sum_k w_k
    d_k^T hess C d_k, d_k = g_k - gbar, and the bias rate is
    gbar^T hess C gbar: each hess C v is one product per row, and no
    covariance stack is built.
    """
    b, n, d = points.shape
    flat = points.reshape(b * n, d)
    gc = np.asarray(charge.grad(flat), dtype=float)   # (b n, d)
    gbar, G, dtrace = _moments(obj, flat, gc)
    hc = np.asarray(charge.hess(flat), dtype=float)   # (b n, d, d)
    t_grad = -(sigma_sq / 2.0) * dtrace
    trace = np.zeros(b * n)
    for wk, g in zip(obj.weights(), G):
        dev = g - gbar
        trace += wk * np.einsum("ni,ni->n", dev, np.einsum("nij,nj->ni", hc, dev))
    t_trace = sigma_sq * trace
    quad = np.einsum("ni,ni->n", gbar, np.einsum("nij,nj->ni", hc, gbar))
    return tuple(x.reshape(b, n).mean(axis=1) for x in (t_grad, t_trace, quad))


def _check_drift_ensemble(members: int) -> None:
    """Raise :class:`InsufficientEnsemble` below ``_MIN_DRIFT_ENSEMBLE`` members."""
    if members < _MIN_DRIFT_ENSEMBLE:
        raise InsufficientEnsemble(
            f"drift statistics need >= {_MIN_DRIFT_ENSEMBLE} trajectories, got {members}"
        )


def noether_drift_check(
    ensemble: Ensemble,
    charge,
    model: Model,
    family: LossFamily,
    dataset: Dataset,
    noise: NoiseModel,
) -> IdentityReport:
    """Check Cor. 2's charge drift law on an SGF ensemble: the
    ``noether_drift`` report.

    The empirical drift is each member's (C(theta_T) - C(theta_0)) / T,
    averaged over all members, with its standard error.  The theory is
    averaged over the ensemble law: at a grid of at most 65 evenly spaced
    records (every record of a shorter run) over a subsample of the first
    at most 2,048 members, then a trapezoid in time.  The records are
    swept in blocks: each :func:`_drift_terms` call stacks whole records'
    member states up to ``_DRIFT_BLOCK_BYTES`` of states (at least one
    record per call), so several records of a small state share one sweep
    per sample map, and each record's terms are still the means of its own
    rows.  At every record the two formulations (``theory_grad`` =
    -(sigma^2/2) <grad C, d(Tr Sigma)/dtheta> from the loss's Hessian-vector
    products, ``theory_trace`` = sigma^2 Tr(Sigma hess C) from the charge's
    Hessian) are equal by algebra for a symmetry charge, so they must agree
    to 1e-8 relative, else CheckFailure names the record.
    ``rel_residual`` is |empirical - theory_trace| over the allowance
    3 SE + bias_budget (the computed Euler--Maruyama per-step bias plus an
    O(dt^2) slop), so ``passed``, rel_residual <= 1, means the drift matches
    within it.  The context holds these six numbers and the run's law.

    ``noise`` must be the run's: its mode, and in ``exact_sde`` its sigma,
    must equal the ensemble's ``meta``, else InvalidParams.
    """
    _check_drift_ensemble(len(ensemble))
    run_mode, run_sigma = ensemble.meta.get("mode"), ensemble.meta.get("sigma")
    if noise.mode != run_mode:
        raise InvalidParams(f"noise mode {noise.mode!r} differs from the run's {run_mode!r}")
    if noise.mode == "exact_sde" and noise.sigma != run_sigma:
        raise InvalidParams(f"noise sigma {noise.sigma!r} differs from the run's {run_sigma!r}")
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
    obj = _Objective(model, (family, dataset))
    n_members = min(len(ensemble), 2048)
    # the distinct indices of a sorted grid: the first of each run (np.unique
    # would import numpy.ma into every run for this)
    grid_idx = np.linspace(0, times.size - 1, min(times.size, 65)).astype(int)
    rec_idx = grid_idx[np.concatenate(([True], grid_idx[1:] != grid_idx[:-1]))]
    t_grad = np.empty(rec_idx.size)
    t_trace = np.empty(rec_idx.size)
    quad = np.empty(rec_idx.size)
    per_block = max(1, _DRIFT_BLOCK_BYTES // (n_members * states.shape[2] * 8))
    for start in range(0, rec_idx.size, per_block):
        blk = slice(start, start + per_block)
        t_grad[blk], t_trace[blk], quad[blk] = _drift_terms(
            obj, charge, states[rec_idx[blk], :n_members], sigma_sq
        )
    for j, k in enumerate(rec_idx):
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
    slop = _BIAS_SAFETY * dt * dt * max(abs(theory_trace) / max(dt, 1e-300), 1.0)
    bias_budget = abs(em_bias) + slop
    rel = abs(empirical - theory_trace) / max(3.0 * std_error + bias_budget, 1e-300)
    # rel is the gap over its allowance, so the drift matches when rel <= 1
    return _verdict("noether_drift", rel, 1.0, {
        "empirical": empirical, "std_error": std_error,
        "theory_grad": theory_grad, "theory_trace": theory_trace,
        "bias_budget": float(bias_budget), "n_trajectories": len(ensemble),
        "sigma_eff_sq": sigma_sq, "dt": dt, "span": span,
        "charge": charge.name, "mode": noise.mode,
        "em_bias": em_bias, "n_theory_members": n_members,
        "n_theory_records": int(rec_idx.size),
    })


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


def write_ensemble(trajectories: Sequence[Trajectory], out_dir) -> dict:
    """Write one CSV per trajectory, ``trajectory_0000.csv`` on, plus the
    ``ensemble.json`` manifest that lists them with their ``meta``, which json's
    encoder writes with ``models._json_value`` as ``default=``; returns the manifest."""
    os.makedirs(out_dir, exist_ok=True)
    entries = []
    for i, tr in enumerate(trajectories):
        name = f"trajectory_{i:04d}.csv"
        write_trajectory_csv(tr, os.path.join(out_dir, name))
        entries.append({"file": name, "records": tr.n_records, "meta": tr.meta})
    manifest = {"count": len(trajectories), "trajectories": entries}
    with open(os.path.join(out_dir, "ensemble.json"), "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True, default=_json_value)
        fh.write("\n")
    return manifest

