"""Car-following and lane-changing behavior models.

Five car-following families are supported (IDM, Gipps, full velocity
difference, Krauss and the Wiedemann-99 psychophysical model), each
exposing exactly the calibratable parameters practitioners tune for it.
Each family is one frozen params dataclass, registered by name in
MODEL_CLASSES, that carries the whole model interface:

* ``accel(v, gap, v_leader, v_des, prev_accel, leader_accel, dt)`` is the
  demanded acceleration, unclamped; ``gap`` is None in free flow.
  ``car_following_acceleration`` adds the gap check and the clamp that
  keeps the speed non-negative after one step.
* ``max_free_accel(v, v_des, dt)`` bounds ``accel`` from above over every
  possible leader and previous acceleration: the free-road value for IDM,
  Gipps and Krauss; for W99 the larger of that value and, below the desired
  speed, the following regime's ``cc7``; infinity for FVD, whose
  speed-difference term has no bound. A lane change cannot pay off when
  this bound, clamped like ``accel``, is no more than the threshold above
  the current-lane value.
* ``desired_speed`` is the model's own target speed in m/s; None (W99)
  means the link speed limit.
* ``spawn_gap`` is the smallest clear gap, in m, the simulation keeps ahead
  of and behind a vehicle it inserts.

IDM, which every shipped scenario uses, also has ``accel_rows``: its
``accel`` and ``max_free_accel`` over arrays of vehicles, bit for bit the
same per element, which the simulator uses for all its IDM vehicles at once.

The lane-change model is gap acceptance: a change must be safe for the
trailing vehicle in the target lane and for the vehicle itself, and must
promise an acceleration advantage above a configurable threshold.

All models are deterministic here; stochastic driver diversity is injected
at the simulation level through a per-vehicle desired-speed factor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

V80 = 80.0 / 3.6  # reference speed for the W99 free-acceleration ramp
HARD_DECEL_LIMIT = -10.0
PCU_LENGTH = 4.5  # nominal passenger-car-unit length, m


class DegenerateGapError(ValueError):
    """Leader present with a non-positive gap; resolve the collision first."""


def _require_positive(obj, names):
    for n in names:
        if getattr(obj, n) <= 0:
            raise ValueError(f"{type(obj).__name__}.{n} must be > 0")


def _require_negative(obj, names):
    for n in names:
        if getattr(obj, n) >= 0:
            raise ValueError(f"{type(obj).__name__}.{n} must be < 0")


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
        # what accel reads, with 2*sqrt(a_max*b) worked out once; a plain
        # attribute, not a field, so equality, hashing and the field-based
        # (de)serialisation see the six parameters only
        object.__setattr__(
            self, "_terms",
            (self.a_max, self.T, self.s0, self.delta, 2.0 * math.sqrt(self.a_max * self.b)),
        )

    @property
    def desired_speed(self) -> float:
        return self.v0

    @property
    def spawn_gap(self) -> float:
        return self.s0

    def accel(self, v, gap, v_leader, v_des, prev_accel, leader_accel, dt):
        a_max, T, s0, delta, two_sqrt_ab = self._terms
        free = a_max * (1.0 - (v / v_des) ** delta)
        if gap is None:
            return free
        s_dyn = v * T + v * (v - v_leader) / two_sqrt_ab
        s_star = s0 + (s_dyn if s_dyn > 0.0 else 0.0)
        return free - a_max * (s_star / gap) ** 2

    def max_free_accel(self, v, v_des, dt):
        # bit for bit accel_rows' free term: float_power is libm's pow
        return self.accel(v, None, 0.0, v_des, 0.0, 0.0, dt)

    @staticmethod
    def accel_rows(terms, v, gap, v_leader, v_des):
        """``accel`` and the free-road term ``max_free_accel`` over arrays of
        vehicles, in their operation order, so each element equals the
        scalar result bit for bit. ``terms`` is five arrays, the vehicles'
        ``_terms``; ``gap`` is inf where there is no leader. Each power is
        one ``np.float_power`` call, the C library's ``pow`` per element as
        ``**`` calls it; ``np.power`` and squaring by multiplication differ
        from it in the last bit on some inputs. Each step swaps only the
        operands of a commutative operation, which changes no bit."""
        a_max, T, s0, delta, two_sqrt_ab = terms
        # free = a_max * (1.0 - (v / v_des) ** delta)
        free = v / v_des
        np.float_power(free, delta, out=free)
        np.subtract(1.0, free, out=free)
        free *= a_max
        # s_dyn = v * T + v * (v - v_leader) / two_sqrt_ab
        s_dyn = v * T
        dynamic = v - v_leader
        dynamic *= v
        dynamic /= two_sqrt_ab
        s_dyn += dynamic
        # free - a_max * ((s0 + max(s_dyn, 0.0)) / gap) ** 2
        np.maximum(s_dyn, 0.0, out=s_dyn)  # -0.0 for 0.0 adds the same
        s_dyn += s0
        s_dyn /= gap
        np.float_power(s_dyn, 2.0, out=s_dyn)
        s_dyn *= a_max
        return free - s_dyn, free


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

    @property
    def desired_speed(self) -> float:
        return self.v_desired

    def accel(self, v, gap, v_leader, v_des, prev_accel, leader_accel, dt):
        ratio = min(v / v_des, 1.0)
        v_acc = v + 2.5 * self.accel_max * self.tau * (1.0 - ratio) * math.sqrt(0.025 + ratio)
        if gap is None:
            v_next = min(v_acc, v_des)
        else:
            bn = -self.decel_max           # positive braking magnitude
            bhat = -self.leader_decel_est  # positive estimate for the leader
            # the effective leader length counts its physical length plus the
            # margin the follower will not enter, measured against a nominal pcu
            avail = gap - (self.leader_eff_length - PCU_LENGTH)
            under = bn * bn * self.tau * self.tau + bn * (
                2.0 * avail - v * self.tau + v_leader * v_leader / bhat
            )
            v_safe = -bn * self.tau + math.sqrt(under) if under > 0.0 else 0.0
            v_next = min(v_acc, v_safe, v_des)
        v_next = max(v_next, 0.0)
        return (v_next - v) / self.tau

    def max_free_accel(self, v, v_des, dt):
        return self.accel(v, None, 0.0, v_des, 0.0, 0.0, dt)


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

    @property
    def desired_speed(self) -> float:
        return self.v0

    @property
    def spawn_gap(self) -> float:
        return self.b_len

    def _optimal_speed(self, gap):
        if gap <= self.b_len:
            return 0.0
        if gap >= self.sc:
            return self.v0
        return self.v0 * ((gap - self.b_len) / (self.sc - self.b_len)) ** self.beta

    def accel(self, v, gap, v_leader, v_des, prev_accel, leader_accel, dt):
        if gap is None:
            return self.alpha * (v_des - v)
        v_opt = min(self._optimal_speed(gap), v_des)
        return self.alpha * (v_opt - v) + self.lambda0 * (v_leader - v)

    def max_free_accel(self, v, v_des, dt):
        return math.inf  # lambda0 * (v_leader - v) grows without bound


@dataclass(frozen=True)
class KraussParams:
    a: float = 1.5       # preferred acceleration, m/s^2
    b: float = 3.0       # maximum deceleration magnitude, m/s^2
    tau: float = 1.0     # reaction time, s
    v_max: float = 22.2  # m/s

    spawn_gap = 2.0

    def __post_init__(self):
        _require_positive(self, ("a", "b", "tau", "v_max"))

    @property
    def desired_speed(self) -> float:
        return self.v_max

    def accel(self, v, gap, v_leader, v_des, prev_accel, leader_accel, dt):
        v_cap = min(v_des, self.v_max)
        v_want = min(v + self.a * dt, v_cap)
        if gap is not None:
            v_mean = max((v + v_leader) / 2.0, 0.1)
            v_safe = v_leader + (gap - v_leader * self.tau) / (v_mean / self.b + self.tau)
            v_want = min(v_want, v_safe)
        v_want = max(v_want, 0.0)
        return (v_want - v) / dt

    def max_free_accel(self, v, v_des, dt):
        return self.accel(v, None, 0.0, v_des, 0.0, 0.0, dt)


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

    desired_speed = None  # the link speed limit drives W99

    def __post_init__(self):
        _require_positive(self, ("cc0", "cc1", "cc2", "cc6", "cc7", "cc8", "cc9"))

    @property
    def spawn_gap(self) -> float:
        return self.cc0

    def _free_accel(self, v):
        return self.cc8 + (self.cc9 - self.cc8) * min(v, V80) / V80

    def accel(self, v, gap, v_leader, v_des, prev_accel, leader_accel, dt):
        if gap is None:
            if v < v_des:
                return self._free_accel(v)
            return min(0.0, v_des - v)

        dv = v_leader - v  # positive when the gap is opening
        dx = gap
        if v_leader <= 0.01:
            sdxc = self.cc0
        else:
            v_slow = v if dv >= 0.0 else v_leader
            sdxc = self.cc0 + self.cc1 * v_slow
        sdxo = sdxc + self.cc2
        sdxv = sdxo + self.cc3 * (dv - self.cc4)
        sdv = self.cc6 * dx * dx
        sdvc = (self.cc4 - sdv) if v_leader > 0.0 else 0.0
        sdvo = (sdv + self.cc5) if v > self.cc5 else sdv

        if dx <= sdxc and dv <= sdvo:
            # emergency regime: too close, brake
            a = 0.0
            if v > 0.0:
                if dv < 0.0:
                    if dx > self.cc0:
                        a = min(leader_accel + dv * dv / (self.cc0 - dx), 0.0)
                    else:
                        a = min(leader_accel + 0.5 * (dv - sdvo), 0.0)
                a = min(a, -self.cc7)
                a = max(a, HARD_DECEL_LIMIT)
            return a
        if dv < sdvc and dx < sdxv:
            # approaching regime: brake to reach the leader speed by the time
            # the gap closes to the desired following distance
            if dx > sdxc:
                a = 0.5 * dv * dv / min(sdxc - dx, -0.01)
            else:
                a = -self.cc7
            return max(a, HARD_DECEL_LIMIT)
        if dv < sdvo and dx < sdxo:
            # following regime: oscillate gently around the current state
            a = -self.cc7 if prev_accel <= 0.0 else self.cc7
            if v >= v_des:
                a = min(a, 0.0)
            return a
        # free regime
        if v < v_des:
            a = self._free_accel(v)
            if dx < sdxo:
                a = min(a, self.cc7)
            return a
        return min(0.0, v_des - v)

    def max_free_accel(self, v, v_des, dt):
        # the emergency and approaching regimes never accelerate, the
        # following regime gives at most cc7 below v_des (after a positive
        # prev_accel) and 0 at or above it, and the free regime is capped by
        # the leaderless value
        if v < v_des:
            return max(self._free_accel(v), self.cc7)
        return 0.0


CarFollowingParams = Union[IdmParams, GippsParams, FvdParams, KraussParams, W99Params]

MODEL_CLASSES = {
    "idm": IdmParams,
    "gipps": GippsParams,
    "fvd": FvdParams,
    "krauss": KraussParams,
    "w99": W99Params,
}

MODEL_NAMES = {cls: name for name, cls in MODEL_CLASSES.items()}


def car_following_acceleration(
    model: CarFollowingParams,
    speed: float,
    leader: Optional[tuple[float, float]] = None,
    dt: float = 0.1,
    desired_speed: Optional[float] = None,
    leader_accel: float = 0.0,
    prev_accel: float = 0.0,
) -> float:
    """Acceleration demanded by `model` for a follower at `speed` m/s.

    leader is (bumper gap m, leader speed m/s) or None for free flow.
    desired_speed overrides the model's own target speed and is mandatory
    for W99, which has none. prev_accel is the follower's acceleration over
    the last step.

    The returned value is finite and never brakes the vehicle below zero
    speed within one step of length dt.
    """
    v = float(speed)
    if leader is not None:
        gap, v_leader = float(leader[0]), float(leader[1])
        if gap <= 0.0:
            raise DegenerateGapError(f"gap {gap} must be positive when a leader is present")
    else:
        gap, v_leader = None, 0.0

    v_des = desired_speed if desired_speed is not None else model.desired_speed
    if v_des is None:
        raise ValueError("this model carries no desired speed; pass desired_speed")
    a = model.accel(v, gap, v_leader, v_des, prev_accel, leader_accel, dt)

    # never integrate into negative speed
    return max(a, -v / dt)


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


@dataclass(frozen=True)
class NeighborView:
    """Gap and speed of the closest vehicles in one candidate lane; None
    means no vehicle there (infinite gap). leader_accel is the leader's
    acceleration over the last step."""

    leader: Optional[tuple[float, float]] = None
    follower: Optional[tuple[float, float]] = None
    leader_accel: float = 0.0


STAY = "stay"
CHANGE_LEFT = "change_left"
CHANGE_RIGHT = "change_right"


def _braking_needed(v_rear: float, v_front: float, clear_gap: float) -> float:
    """Constant deceleration the rear vehicle needs to avoid eating the
    clear gap; 0 when it is not closing."""
    if v_rear <= v_front:
        return 0.0
    return -((v_rear - v_front) ** 2) / (2.0 * max(clear_gap, 0.1))


def _side_evaluation(v, a_current, side: NeighborView, p: LaneChangeParams,
                     cf_model, dt, desired_speed, prev_accel):
    front_min = p.min_headway_front * p.safe_dist_reduction
    rear_min = p.min_headway_rear * p.safe_dist_reduction
    if side.leader is not None:
        gap_f, v_f = side.leader
        if gap_f <= front_min:
            return False, 0.0
        own_required = _braking_needed(v, v_f, gap_f - front_min)
        if own_required < p.max_decel_own:
            return False, 0.0
    if side.follower is not None:
        gap_r, v_r = side.follower
        if gap_r <= rear_min:
            return False, 0.0
        induced = _braking_needed(v_r, v, gap_r - rear_min)
        if induced < p.max_decel_trailing:
            return False, 0.0
    a_target = car_following_acceleration(
        cf_model, v, side.leader, dt, desired_speed=desired_speed,
        leader_accel=side.leader_accel, prev_accel=prev_accel,
    )
    advantage = a_target - a_current
    return advantage > p.advantage_threshold, advantage


def lane_change_decision(
    speed: float,
    a_current: float,
    left: Optional[NeighborView],
    right: Optional[NeighborView],
    params: LaneChangeParams,
    cf_model: CarFollowingParams,
    dt: float = 0.1,
    desired_speed: Optional[float] = None,
    prev_accel: float = 0.0,
) -> str:
    """Gap-acceptance lane-change decision for a vehicle at `speed` m/s.

    a_current is its acceleration in the current lane, as the simulation
    decided it this step. left/right are None when that side has no lane.
    The acceleration behind a target-lane leader is the car-following value
    with the vehicle's previous acceleration `prev_accel` and the leader's
    ``leader_accel``, as in the current lane. A side is taken only if it is safe (headway margins hold and
    neither the target follower nor the vehicle itself would need to brake
    beyond the configured bounds) and offers an acceleration advantage
    above the threshold. With both sides eligible the larger advantage
    wins, right on a tie.
    """
    v = float(speed)
    candidates = []
    if right is not None:
        ok, adv = _side_evaluation(
            v, a_current, right, params, cf_model, dt, desired_speed, prev_accel
        )
        if ok:
            candidates.append((adv, 1, CHANGE_RIGHT))
    if left is not None:
        ok, adv = _side_evaluation(
            v, a_current, left, params, cf_model, dt, desired_speed, prev_accel
        )
        if ok:
            candidates.append((adv, 0, CHANGE_LEFT))
    if not candidates:
        return STAY
    candidates.sort(key=lambda c: (-c[0], -c[1]))
    return candidates[0][2]
