"""Car-following and lane-changing behavior models.

Five car-following families are supported (IDM, Gipps, full velocity
difference, Krauss and the Wiedemann-99 psychophysical model), each
exposing exactly the calibratable parameters practitioners tune for it.
Each family is one frozen params dataclass, registered by name in
MODEL_CLASSES, that carries the whole model interface:

* ``terms`` is the tuple of floats its rule reads, worked out once.
* ``accel_rows(terms, v, gap, v_leader, v_des, prev_accel, leader_accel,
  dt)`` is the rule over arrays of vehicles, ``terms`` one array per term.
  It returns the demanded acceleration, unclamped, and ``free``, its bound
  over every possible leader and previous acceleration: the free-road value
  for IDM, Gipps and Krauss; for W99 the larger of that value and, below the
  desired speed, the following regime's ``cc7``; infinity for FVD, whose
  speed-difference term has no bound. ``gap`` is inf where a vehicle has no
  leader. A lane change cannot pay off when ``free``, clamped like the
  acceleration, is no more than the threshold above the current-lane value.
  Each rule keeps the operation order of the scalar formula it stands for,
  branches become masks in the formula's branch order, and each power is
  one ``np.float_power`` call, the C library's ``pow`` per element as ``**``
  calls it (``np.power`` and squaring by multiplication differ from it in
  the last bit on some inputs), so each element is bit for bit the scalar
  result. No rule warns on the engine's inputs.
* ``desired_speed(limit)`` is the model's target speed in m/s on a link
  whose speed limit is `limit` m/s: its own parameter for IDM, Gipps, FVD
  and Krauss, the limit itself for W99.
* ``spawn_gap`` is the smallest clear gap, in m, the simulation keeps ahead
  of and behind a vehicle it inserts.

The lane-change model is gap acceptance, one scalar test per candidate
side, ``LaneChangeParams.accepts``: a change must be safe for the trailing
vehicle in the target lane and for the vehicle itself, and must promise an
acceleration advantage above a configurable threshold. The simulation
gives it the gaps and speeds of the side's leader and follower, and the
advantage from the family's ``accel_rows`` behind the side's leader.

All models are deterministic here; stochastic driver diversity is injected
at the simulation level through a per-vehicle desired-speed factor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np

V80 = 80.0 / 3.6  # reference speed for the W99 free-acceleration ramp
HARD_DECEL_LIMIT = -10.0
PCU_LENGTH = 4.5  # nominal passenger-car-unit length, m


def _require_finite(obj, names):
    for n in names:
        if not math.isfinite(getattr(obj, n)):
            raise ValueError(f"{type(obj).__name__}.{n} must be finite")


def _require_positive(obj, names):
    _require_finite(obj, names)
    for n in names:
        if getattr(obj, n) <= 0:
            raise ValueError(f"{type(obj).__name__}.{n} must be > 0")


def _require_negative(obj, names):
    _require_finite(obj, names)
    for n in names:
        if getattr(obj, n) >= 0:
            raise ValueError(f"{type(obj).__name__}.{n} must be < 0")


def _set_terms(obj, *terms):
    # a plain attribute, not a field, so equality, hashing and the
    # field-based (de)serialisation see the parameters only
    object.__setattr__(obj, "terms", tuple(float(t) for t in terms))


@dataclass(frozen=True)
class IdmParams:
    a_max: float = 1.5   # maximum acceleration, m/s^2
    b: float = 2.0       # comfortable deceleration, m/s^2
    T: float = 1.2       # desired time gap, s
    s0: float = 2.0      # jam space gap, m
    delta: float = 4.0   # acceleration exponent
    v0: float = 22.2     # desired speed, m/s

    def __post_init__(self):
        _require_positive(self, ("a_max", "b", "T", "s0", "delta", "v0"))
        _set_terms(self, self.a_max, self.T, self.s0, self.delta, 2.0 * math.sqrt(self.a_max * self.b))

    def desired_speed(self, limit: float) -> float:
        return self.v0

    @property
    def spawn_gap(self) -> float:
        return self.s0

    @staticmethod
    def accel_rows(terms, v, gap, v_leader, v_des, prev_accel, leader_accel, dt):
        a_max, T, s0, delta, two_sqrt_ab = terms
        free = a_max * (1.0 - np.float_power(v / v_des, delta))
        s_dyn = v * T + v * (v - v_leader) / two_sqrt_ab
        # free - a_max * ((s0 + max(s_dyn, 0.0)) / gap) ** 2, free at gap inf
        return free - a_max * np.float_power((np.maximum(s_dyn, 0.0) + s0) / gap, 2.0), free


@dataclass(frozen=True)
class GippsParams:
    accel_max: float = 1.7          # m/s^2
    decel_max: float = -3.0         # own most severe braking, m/s^2 (< 0)
    leader_eff_length: float = 6.5  # m
    leader_decel_est: float = -3.0  # estimate of leader braking, m/s^2 (< 0)
    v_desired: float = 22.2         # m/s
    tau: float = 0.7                # reaction time, s

    spawn_gap = 2.0

    def __post_init__(self):
        _require_positive(self, ("accel_max", "leader_eff_length", "v_desired", "tau"))
        _require_negative(self, ("decel_max", "leader_decel_est"))
        bn = -self.decel_max           # positive braking magnitude
        bhat = -self.leader_decel_est  # positive estimate for the leader
        # the effective leader length counts its physical length plus the
        # margin the follower will not enter, measured against a nominal pcu
        _set_terms(
            self, 2.5 * self.accel_max * self.tau, bn, bn * bn * self.tau * self.tau,
            -bn * self.tau, self.leader_eff_length - PCU_LENGTH, self.tau, bhat,
        )

    def desired_speed(self, limit: float) -> float:
        return self.v_desired

    @staticmethod
    def accel_rows(terms, v, gap, v_leader, v_des, prev_accel, leader_accel, dt):
        k_acc, bn, bn2_tau2, bn_tau, eff_margin, tau, bhat = terms
        ratio = np.minimum(v / v_des, 1.0)
        v_free = np.minimum(v + k_acc * (1.0 - ratio) * np.sqrt(0.025 + ratio), v_des)
        free = (np.maximum(v_free, 0.0) - v) / tau
        under = bn2_tau2 + bn * (2.0 * (gap - eff_margin) - v * tau + v_leader * v_leader / bhat)
        # -bn * tau + sqrt(under) if under > 0.0 else 0.0; inf at gap inf
        v_safe = np.where(under > 0.0, bn_tau + np.sqrt(np.maximum(under, 0.0)), 0.0)
        return (np.maximum(np.minimum(v_free, v_safe), 0.0) - v) / tau, free


@dataclass(frozen=True)
class FvdParams:
    alpha: float = 0.4     # relaxation gain on the optimal speed, 1/s
    lambda0: float = 0.5   # gain on the speed difference, 1/s
    v0: float = 22.2       # desired speed, m/s
    b_len: float = 6.0     # interaction length: gap at which motion starts, m
    beta: float = 1.2      # form factor of the optimal-speed ramp
    sc: float = 60.0       # gap at which the optimal speed saturates, m

    def __post_init__(self):
        _require_positive(self, ("alpha", "lambda0", "v0", "b_len", "beta", "sc"))
        if self.sc <= self.b_len:
            raise ValueError("FvdParams.sc must exceed b_len")
        _set_terms(self, self.alpha, self.lambda0, self.v0, self.b_len, self.sc,
                   self.sc - self.b_len, self.beta)

    def desired_speed(self, limit: float) -> float:
        return self.v0

    @property
    def spawn_gap(self) -> float:
        return self.b_len

    @staticmethod
    def accel_rows(terms, v, gap, v_leader, v_des, prev_accel, leader_accel, dt):
        alpha, lambda0, v0, b_len, sc, span, beta = terms
        # the optimal speed: 0 to b_len, v0 from sc, in between
        # v0 * ((gap - b_len) / (sc - b_len)) ** beta, with no pow of a negative
        ramp = v0 * np.float_power(np.maximum((gap - b_len) / span, 0.0), beta)
        v_opt = np.where(gap <= b_len, 0.0, np.where(gap >= sc, v0, ramp))
        a = alpha * (np.minimum(v_opt, v_des) - v) + lambda0 * (v_leader - v)
        # lambda0 * (v_leader - v) grows without bound
        return np.where(gap == math.inf, alpha * (v_des - v), a), np.full(len(v), math.inf)


@dataclass(frozen=True)
class KraussParams:
    a: float = 1.5       # preferred acceleration, m/s^2
    b: float = 3.0       # maximum deceleration magnitude, m/s^2
    tau: float = 1.0     # reaction time, s
    v_max: float = 22.2  # m/s

    spawn_gap = 2.0

    def __post_init__(self):
        _require_positive(self, ("a", "b", "tau", "v_max"))
        _set_terms(self, self.a, self.b, self.tau, self.v_max)

    def desired_speed(self, limit: float) -> float:
        return self.v_max

    @staticmethod
    def accel_rows(terms, v, gap, v_leader, v_des, prev_accel, leader_accel, dt):
        a, b, tau, v_max = terms
        v_want = np.minimum(v + a * dt, np.minimum(v_des, v_max))
        free = (np.maximum(v_want, 0.0) - v) / dt
        v_mean = np.maximum((v + v_leader) / 2.0, 0.1)
        v_safe = v_leader + (gap - v_leader * tau) / (v_mean / b + tau)  # inf at gap inf
        return (np.maximum(np.minimum(v_want, v_safe), 0.0) - v) / dt, free


@dataclass(frozen=True)
class W99Params:
    cc0: float = 1.5        # standstill gap, m
    cc1: float = 0.9        # headway time, s
    cc2: float = 4.0        # following variation, m
    cc3: float = -8.0       # onset of approaching, s
    cc4: float = -0.35      # negative following threshold, m/s
    cc5: float = 0.35       # positive following threshold, m/s
    cc6: float = 1.5e-4     # speed dependency of oscillation, 1/(m*s)
    cc7: float = 0.25       # oscillation acceleration, m/s^2
    cc8: float = 3.5        # standstill acceleration, m/s^2
    cc9: float = 1.5        # acceleration at 80 km/h, m/s^2

    def __post_init__(self):
        _require_positive(self, ("cc0", "cc1", "cc2", "cc6", "cc7", "cc8", "cc9"))
        _require_finite(self, ("cc3", "cc4", "cc5"))
        _set_terms(self, self.cc0, self.cc1, self.cc2, self.cc3, self.cc4, self.cc5, self.cc6,
                   self.cc7, -self.cc7, self.cc8, self.cc9 - self.cc8)

    def desired_speed(self, limit: float) -> float:
        return limit  # the link speed limit drives W99

    @property
    def spawn_gap(self) -> float:
        return self.cc0

    @staticmethod
    def accel_rows(terms, v, gap, v_leader, v_des, prev_accel, leader_accel, dt):
        cc0, cc1, cc2, cc3, cc4, cc5, cc6, cc7, neg_cc7, cc8, cc98 = terms
        below = v < v_des
        ramp = cc8 + cc98 * np.minimum(v, V80) / V80  # the free-road acceleration
        # the bound: the emergency and approaching regimes never accelerate,
        # the following regime gives at most cc7 below v_des (after a
        # positive prev_accel) and 0 at or above it, and the free regime is
        # capped by the leaderless value
        free = np.where(below, np.maximum(ramp, cc7), 0.0)
        # the thresholds; dv is positive when the gap is opening, and the
        # slower speed is v when dv >= 0, else v_leader
        dv = v_leader - v
        sdxc = np.where(v_leader <= 0.01, cc0, cc0 + cc1 * np.minimum(v, v_leader))
        sdxo = sdxc + cc2
        sdxv = sdxo + cc3 * (dv - cc4)
        sdv = cc6 * gap * gap
        sdvc = np.where(v_leader > 0.0, cc4 - sdv, 0.0)
        sdvo = np.where(v > cc5, sdv + cc5, sdv)
        # the free regime, which a row without a leader (gap inf) always
        # takes: below v_des the ramp, capped at cc7 inside sdxo; at or
        # above it min(0.0, v_des - v)
        inside = gap < sdxo
        a = np.where(below, np.where(inside, np.minimum(ramp, cc7), ramp),
                     np.minimum(v_des - v, 0.0))
        # the following regime oscillates gently around the current state:
        # -cc7 after prev_accel <= 0, else cc7 below v_des and 0 at or above
        a = np.where((dv < sdvo) & inside, np.where(prev_accel <= 0.0, neg_cc7, cc7 * below), a)
        # the approaching regime brakes to reach the leader speed by the
        # time the gap closes to the desired following distance:
        # 0.5 * dv * dv / min(sdxc - dx, -0.01) beyond sdxc, else -cc7
        close = gap <= sdxc
        approach = np.where(close, neg_cc7, 0.5 * dv * dv / np.minimum(sdxc - gap, -0.01))
        a = np.where((dv < sdvc) & (gap < sdxv), np.maximum(approach, HARD_DECEL_LIMIT), a)
        # the emergency regime, too close: brake, 0 when standing
        (rows,) = (close & (dv <= sdvo)).nonzero()
        if len(rows):
            dv, dx, cc0 = dv[rows], gap[rows], cc0[rows]
            # at dv < 0, leader_accel plus dv * dv / (cc0 - dx) beyond cc0,
            # else plus 0.5 * (dv - sdvo); min(min(that, 0.0), -cc7) is
            # min(that, -cc7), as -cc7 < 0
            beyond = dx > cc0
            brake = leader_accel[rows] + np.where(
                beyond, dv * dv / np.where(beyond, cc0 - dx, -1.0), 0.5 * (dv - sdvo[rows])
            )
            brake = np.maximum(np.minimum(np.where(dv < 0.0, brake, 0.0), neg_cc7[rows]),
                               HARD_DECEL_LIMIT)
            a[rows] = np.where(v[rows] > 0.0, brake, 0.0)
        return a, free


CarFollowingParams = Union[IdmParams, GippsParams, FvdParams, KraussParams, W99Params]

MODEL_CLASSES = {
    "idm": IdmParams,
    "gipps": GippsParams,
    "fvd": FvdParams,
    "krauss": KraussParams,
    "w99": W99Params,
}

MODEL_NAMES = {cls: name for name, cls in MODEL_CLASSES.items()}


def _braking_needed(v_rear: float, v_front: float, clear_gap: float) -> float:
    """Constant deceleration the rear vehicle needs to avoid eating the
    clear gap; 0 when it is not closing."""
    if v_rear <= v_front:
        return 0.0
    return -((v_rear - v_front) ** 2) / (2.0 * max(clear_gap, 0.1))


@dataclass(frozen=True)
class LaneChangeParams:
    safe_dist_reduction: float = 0.6
    min_headway_front: float = 2.0     # m
    min_headway_rear: float = 2.0      # m
    max_decel_trailing: float = -3.0   # m/s^2 (< 0)
    max_decel_own: float = -4.0        # m/s^2 (< 0)
    advantage_threshold: float = 0.2   # m/s^2 gain required to move

    def __post_init__(self):
        if not 0.0 < self.safe_dist_reduction <= 1.0:
            raise ValueError("safe_dist_reduction must lie in (0, 1]")
        _require_positive(self, ("min_headway_front", "min_headway_rear"))
        _require_negative(self, ("max_decel_trailing", "max_decel_own"))
        _require_finite(self, ("advantage_threshold",))

    def accepts(self, v, advantage, leader, follower) -> bool:
        """Whether a vehicle at speed `v` takes a neighbour lane whose
        leader and follower there are at (bumper gap, speed), None for none,
        and where its acceleration would be `advantage` above its
        acceleration in its own lane: the advantage must exceed the
        threshold, the gaps must exceed the reduced headway margins, and
        neither the vehicle itself, behind its new leader, nor its new
        follower may need to brake harder than its bound."""
        if not advantage > self.advantage_threshold:
            return False
        if leader is not None:
            gap, v_front = leader
            margin = self.min_headway_front * self.safe_dist_reduction
            if gap <= margin or _braking_needed(v, v_front, gap - margin) < self.max_decel_own:
                return False
        if follower is not None:
            gap, v_rear = follower
            margin = self.min_headway_rear * self.safe_dist_reduction
            if gap <= margin or _braking_needed(v_rear, v, gap - margin) < self.max_decel_trailing:
                return False
        return True
