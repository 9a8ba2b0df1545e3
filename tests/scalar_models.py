"""The car-following rules one vehicle at a time, in plain Python floats: the
reference that each family's ``accel_rows`` must equal bit for bit.

Each family's ``accel`` is its rule with ``gap`` None in free flow, and its
``max_free_accel`` the bound of ``accel`` over every leader and previous
acceleration; ``self`` is the family's params object. ``accel(model, ...)``
and ``max_free_accel(model, ...)`` pick the family's function.
"""

import math

from avcalib.roadsim.models import (
    HARD_DECEL_LIMIT,
    PCU_LENGTH,
    V80,
    FvdParams,
    GippsParams,
    IdmParams,
    KraussParams,
    W99Params,
)


def idm_accel(self, v, gap, v_leader, v_des, prev_accel, leader_accel, dt):
    a_max, T, s0, delta, two_sqrt_ab = self.terms
    free = a_max * (1.0 - (v / v_des) ** delta)
    if gap is None:
        return free
    s_dyn = v * T + v * (v - v_leader) / two_sqrt_ab
    s_star = s0 + (s_dyn if s_dyn > 0.0 else 0.0)
    return free - a_max * (s_star / gap) ** 2


def idm_max_free_accel(self, v, v_des, dt):
    return idm_accel(self, v, None, 0.0, v_des, 0.0, 0.0, dt)


def gipps_accel(self, v, gap, v_leader, v_des, prev_accel, leader_accel, dt):
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


def gipps_max_free_accel(self, v, v_des, dt):
    return gipps_accel(self, v, None, 0.0, v_des, 0.0, 0.0, dt)


def fvd_optimal_speed(self, gap):
    if gap <= self.b_len:
        return 0.0
    if gap >= self.sc:
        return self.v0
    return self.v0 * ((gap - self.b_len) / (self.sc - self.b_len)) ** self.beta


def fvd_accel(self, v, gap, v_leader, v_des, prev_accel, leader_accel, dt):
    if gap is None:
        return self.alpha * (v_des - v)
    v_opt = min(fvd_optimal_speed(self, gap), v_des)
    return self.alpha * (v_opt - v) + self.lambda0 * (v_leader - v)


def fvd_max_free_accel(self, v, v_des, dt):
    return math.inf  # lambda0 * (v_leader - v) grows without bound


def krauss_accel(self, v, gap, v_leader, v_des, prev_accel, leader_accel, dt):
    v_cap = min(v_des, self.v_max)
    v_want = min(v + self.a * dt, v_cap)
    if gap is not None:
        v_mean = max((v + v_leader) / 2.0, 0.1)
        v_safe = v_leader + (gap - v_leader * self.tau) / (v_mean / self.b + self.tau)
        v_want = min(v_want, v_safe)
    v_want = max(v_want, 0.0)
    return (v_want - v) / dt


def krauss_max_free_accel(self, v, v_des, dt):
    return krauss_accel(self, v, None, 0.0, v_des, 0.0, 0.0, dt)


def w99_free_accel(self, v):
    return self.cc8 + (self.cc9 - self.cc8) * min(v, V80) / V80


def w99_accel(self, v, gap, v_leader, v_des, prev_accel, leader_accel, dt):
    if gap is None:
        if v < v_des:
            return w99_free_accel(self, v)
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
        a = w99_free_accel(self, v)
        if dx < sdxo:
            a = min(a, self.cc7)
        return a
    return min(0.0, v_des - v)


def w99_max_free_accel(self, v, v_des, dt):
    # the emergency and approaching regimes never accelerate, the
    # following regime gives at most cc7 below v_des (after a positive
    # prev_accel) and 0 at or above it, and the free regime is capped by
    # the leaderless value
    if v < v_des:
        return max(w99_free_accel(self, v), self.cc7)
    return 0.0


RULES = {
    IdmParams: (idm_accel, idm_max_free_accel),
    GippsParams: (gipps_accel, gipps_max_free_accel),
    FvdParams: (fvd_accel, fvd_max_free_accel),
    KraussParams: (krauss_accel, krauss_max_free_accel),
    W99Params: (w99_accel, w99_max_free_accel),
}


def accel(model, v, gap, v_leader, v_des, prev_accel, leader_accel, dt):
    return RULES[type(model)][0](model, v, gap, v_leader, v_des, prev_accel, leader_accel, dt)


def max_free_accel(model, v, v_des, dt):
    return RULES[type(model)][1](model, v, v_des, dt)
