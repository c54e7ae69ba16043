"""Simplified rigid-body trot environment on an inclined plane.

The torso is the only dynamic body: a rigid box integrated with
semi-implicit Euler substeps. Legs are kinematic; joints track IK targets
with a first-order lag, and the feet interact with the terrain through a
penalty contact model (normal spring-damper plus a Coulomb-clamped viscous
tangential force). Per-foot contact force is capped by the sampled motor
strength so weak motors genuinely degrade the gait.

Everything downstream of reset(seed) is deterministic: the RNG is consumed
only for domain randomization draws at reset, in a fixed order.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass

import numpy as np

from . import gaitgen, legkin
from .gaitgen import LEG_ORDER, GaitParams
from .policy import ActionVector, build_observation
from .reward import RewardInputs, RewardWeights, StandingMonitor, compute_reward
from .rotations import orthonormalize, rodrigues, rot_z, yaw_of
from .slopeest import SlopeEstimator, angles_from_normal, capture_contact_pair


class NotReset(RuntimeError):
    """step() called before reset() or after the episode finished."""


class ConfigError(ValueError):
    """Incompatible environment configuration."""


TRAIN_INCLINATIONS = (0, 5, 7, 9, 11)
TRAIN_ORIENTATIONS = (0, 15, 30, 45, 60, 75, 90)
STAGE1_INCLINATIONS = (0, 5, 7)

# Stage-2 sampling weights per combo: steep inclines twice as likely as the
# moderate ones, flat halved.
STAGE2_COMBO_WEIGHT = {0: 0.5, 5: 1.0, 7: 1.0, 9: 2.0, 11: 2.0}


@dataclass(frozen=True)
class TerrainPlane:
    """Infinite plane: inclination (deg), yaw of the incline axis (deg),
    and friction coefficient. At yaw 0 the plane rises along +x (pure
    uphill); at yaw 90 it rises along +y (pure sidehill)."""

    inclination_deg: float = 0.0
    yaw_deg: float = 0.0
    friction: float = 0.65

    def normal(self) -> np.ndarray:
        inc = math.radians(self.inclination_deg)
        base = np.array([-math.sin(inc), 0.0, math.cos(inc)])
        return rot_z(math.radians(self.yaw_deg)) @ base

    def angles(self):
        """(roll, pitch) of the plane under the shared convention."""
        return angles_from_normal(self.normal())

    def surface_height(self, x: float, y: float) -> float:
        t = math.tan(math.radians(self.inclination_deg))
        psi = math.radians(self.yaw_deg)
        return t * (x * math.cos(psi) + y * math.sin(psi))


def terrain_grid(inclinations=TRAIN_INCLINATIONS):
    """All (inclination, orientation) training combos; 0 deg only at yaw 0."""
    combos = []
    for inc in inclinations:
        if inc == 0:
            combos.append((0, 0))
        else:
            combos.extend((inc, ori) for ori in TRAIN_ORIENTATIONS)
    return combos


def stage_combos(stage: int):
    if stage == 1:
        return terrain_grid(STAGE1_INCLINATIONS)
    if stage == 2:
        return terrain_grid()
    raise ValueError("curriculum stage must be 1 or 2")


def sample_terrain(stage: int, rng: np.random.Generator,
                   friction_range=(0.5, 0.8)) -> TerrainPlane:
    """Draw a training terrain for the given curriculum stage.

    Stage 1 is uniform over the gentle combos; stage 2 weights each steep
    combo twice as heavily as a moderate one. Friction is uniform in
    friction_range. Draw order (combo, then friction) is fixed.
    """
    combos = stage_combos(stage)
    if stage == 1:
        idx = int(rng.integers(len(combos)))
    else:
        weights = np.array([STAGE2_COMBO_WEIGHT[inc] for inc, _ in combos])
        idx = int(rng.choice(len(combos), p=weights / weights.sum()))
    friction = float(rng.uniform(*friction_range))
    inc, ori = combos[idx]
    return TerrainPlane(inclination_deg=inc, yaw_deg=ori, friction=friction)


@dataclass(frozen=True)
class RandomizationConfig:
    """Per-episode domain randomization ranges."""

    added_mass_range: tuple = (0.0, 0.2)      # kg, front and back
    motor_torque_range: tuple = (5.0, 8.0)    # N*m
    push_force_range: tuple = (60.0, 120.0)   # N, lateral
    push_duration_steps: int = 10
    push_enabled: bool = True
    friction_range: tuple = (0.5, 0.8)        # consumed by sample_terrain


@dataclass(frozen=True)
class PushEvent:
    """Lateral force window: applied for control steps in [start, stop)."""

    start_step: int
    stop_step: int
    force_y: float


def schedule_push(rand: RandomizationConfig, episode_len: int,
                  rng: np.random.Generator):
    """Sample the mid-episode push, or None when pushes are disabled."""
    if not rand.push_enabled:
        return None
    magnitude = float(rng.uniform(*rand.push_force_range))
    sign = 1.0 if int(rng.integers(2)) == 1 else -1.0
    start = episode_len // 2
    return PushEvent(start, start + rand.push_duration_steps, sign * magnitude)


@dataclass(frozen=True)
class SimParams:
    """Integrator, torso and contact constants.

    The motor moment arm converts the randomized joint torque into a
    per-foot force cap (cap = torque / arm); at the defaults a trotting
    stance pair carries the torso with 2-3x headroom. Contact stiffness is
    sized so a stance pair penetrates under 5% of the foot clearance.
    """

    dt: float = 0.005
    substeps: int = 5
    episode_len: int = 400
    gravity: float = 9.81
    torso_mass: float = 10.0
    torso_dims: tuple = (0.55, 0.3, 0.1)
    contact_kp: float = 20000.0
    contact_kd: float = 300.0
    tangential_damping: float = 300.0
    motor_moment_arm: float = 0.05
    track_time_const: float = 0.02
    fall_height_frac: float = 0.5
    fall_angle: float = math.radians(45.0)
    estimator_smoothing: float = 1.0

    def __post_init__(self):
        if self.dt <= 0.0 or self.substeps < 1:
            raise ConfigError("dt must be positive and substeps >= 1")
        if self.torso_mass <= 0.0:
            raise ConfigError("torso_mass must be positive")


@dataclass
class SimState:
    """Full mutable environment state; advances deterministically from the
    reset seed."""

    com: np.ndarray
    rot: np.ndarray
    vel: np.ndarray
    omega: np.ndarray
    joints: np.ndarray       # (4, 3) abd/hip/knee per leg, FL FR BL BR
    joint_vel: np.ndarray    # (4, 3)
    feet_body: np.ndarray    # (4, 3) leg-frame FK + hip mounts, body origin
    step_index: int


class SlopedTerrainEnv:
    """Episode loop producing (observation, reward, done, info); run()
    drives a whole episode from a controller.

    One instance is single-owner: create one per rollout worker.
    """

    def __init__(
        self,
        geometry: legkin.LegGeometry | None = None,
        gait: GaitParams | None = None,
        reward_weights: RewardWeights | None = None,
        sim: SimParams | None = None,
    ):
        self.geometry = geometry or legkin.LegGeometry()
        self.gait = gait or GaitParams()
        self.reward_weights = reward_weights or RewardWeights()
        self.sim = sim or SimParams()

        half = 0.5 * self.gait.cycle_period
        steps = round(half / self.sim.dt)
        if steps < 1 or abs(steps * self.sim.dt - half) > 1e-9:
            raise ConfigError("half gait cycle must be an integer number of control steps")
        self.steps_per_half = steps

        if self.gait.desired_height > self.geometry.total_leg_length:
            raise ConfigError("desired height exceeds total leg length")
        nominal = legkin.FootPosition(0.0, 0.0, -self.gait.desired_height)
        if not legkin.in_workspace(nominal, self.geometry):
            raise ConfigError("nominal stance foot falls outside the workspace polygon")

        self.hips = np.asarray(self.geometry.hip_positions_body, dtype=float)
        self._hip_rows = self.hips.tolist()
        self._track_alpha = 1.0 - math.exp(-self.sim.dt / self.sim.track_time_const)
        self._substep_fracs = np.array(
            [(j + 1) / self.sim.substeps for j in range(self.sim.substeps)]
        )[:, None, None]
        # Largest possible forward displacement per control step, used to
        # normalize the progress reward: top speed is one max step per half
        # cycle.
        self.max_step_per_control = (
            2.0 * self.gait.max_step_len / self.gait.cycle_period * self.sim.dt
        )

        self._estimator = SlopeEstimator(smoothing=self.sim.estimator_smoothing)
        # Torso orientation at the last three policy steps, oldest first.
        self._theta_hist = deque(maxlen=3)
        self._standing = StandingMonitor()
        self.state: SimState | None = None
        self._done = True

    # ------------------------------------------------------------------
    # lifecycle

    def reset(
        self,
        terrain: TerrainPlane | None = None,
        rand: RandomizationConfig | None = None,
        seed: int = 0,
    ) -> np.ndarray:
        """Spawn the robot plane-aligned at the desired height and return
        the first observation. Randomization draws happen here, in a fixed
        order, so the whole episode is a function of (terrain, rand, seed).
        """
        self.terrain = terrain or TerrainPlane()
        self.rand = rand or RandomizationConfig()
        rng = np.random.default_rng(seed)

        m_front = float(rng.uniform(*self.rand.added_mass_range))
        m_back = float(rng.uniform(*self.rand.added_mass_range))
        motor = float(rng.uniform(*self.rand.motor_torque_range))
        self.push = schedule_push(self.rand, self.sim.episode_len, rng)
        self.foot_force_cap = motor / self.sim.motor_moment_arm
        self.motor_torque = motor

        # Mass properties: torso box plus the two randomization point
        # masses at the front/back edges.
        lx, ly, lz = self.sim.torso_dims
        m_t = self.sim.torso_mass
        self.mass = m_t + m_front + m_back
        attach = 0.5 * lx
        com_x = (m_front * attach - m_back * attach) / self.mass
        self.com_offset_body = np.array([com_x, 0.0, 0.0])
        box = m_t / 12.0 * np.array([ly * ly + lz * lz, lx * lx + lz * lz, lx * lx + ly * ly])
        points = np.array(
            [0.0, m_front * attach**2 + m_back * attach**2, m_front * attach**2 + m_back * attach**2]
        )
        origin_inertia = box + points
        c = self.com_offset_body
        self.inertia_body = origin_inertia - self.mass * np.array(
            [c[1] ** 2 + c[2] ** 2, c[0] ** 2 + c[2] ** 2, c[0] ** 2 + c[1] ** 2]
        )

        n = self.terrain.normal()
        self.plane_normal = n
        self._normal = tuple(n.tolist())
        self.plane_roll, self.plane_pitch = angles_from_normal(n)
        bx = np.array([1.0, 0.0, 0.0]) - n[0] * n
        bx = bx / np.linalg.norm(bx)
        rot = np.column_stack((bx, np.cross(n, bx), n))

        h_d = self.gait.desired_height
        body_origin = h_d * n
        self.latched = [gaitgen.ZERO_ACTION for _ in LEG_ORDER]
        joints = np.zeros((4, 3))
        feet_body = np.zeros((4, 3))
        for i, leg in enumerate(LEG_ORDER):
            tau = gaitgen.trot_phase(0.0, self.gait.cycle_period, leg)
            target = gaitgen.checked_foot_target(tau, self.latched[i], self.gait, self.geometry)
            q = legkin.inverse_kinematics(target, self.geometry, clip_to_limits=True)
            joints[i] = q.as_array()
            feet_body[i] = self.hips[i] + legkin.forward_kinematics(q, self.geometry).as_array()

        self.state = SimState(
            com=body_origin + rot @ self.com_offset_body,
            rot=rot,
            vel=np.zeros(3),
            omega=np.zeros(3),
            joints=joints,
            joint_vel=np.zeros((4, 3)),
            feet_body=feet_body,
            step_index=0,
        )
        self._done = False
        self.fall = False
        self.max_friction_ratio = 0.0

        self._estimator.reset()
        self._theta_hist.clear()
        self._theta_hist.append(np.array(self._torso_theta(rot)))
        self._standing.reset(float(self.state.com[0]))
        self._pending_capture = None
        self._contact_world = [None, None, None, None]
        self._in_contact = [False, False, False, False]
        self._update_contact_memory()
        self._last_reward = 0.0
        self._last_dx = 0.0
        return self._observation()

    def set_push(self, start_step: int, stop_step: int, force_y: float) -> None:
        """Override the sampled push with a scripted one (CLI rollouts)."""
        self.push = PushEvent(start_step, stop_step, force_y)

    # ------------------------------------------------------------------
    # helpers

    def _torso_theta(self, rot: np.ndarray) -> tuple:
        roll, pitch = angles_from_normal(rot[:, 2])
        return roll, pitch, yaw_of(rot)

    def _observation(self) -> np.ndarray:
        return build_observation(self._theta_hist, self._estimator.estimate)

    def _stance_pair(self, half_index: int):
        """Leg indices in stance during the given half-cycle."""
        return (0, 3) if half_index % 2 == 0 else (1, 2)  # FL+BR vs FR+BL

    def mechanical_energy(self) -> float:
        s = self.state
        i_world = s.rot @ np.diag(self.inertia_body) @ s.rot.T
        return float(
            0.5 * self.mass * s.vel @ s.vel
            + self.mass * self.sim.gravity * s.com[2]
            + 0.5 * s.omega @ i_world @ s.omega
        )

    # ------------------------------------------------------------------
    # stepping

    def step(self, action: ActionVector):
        """Advance one control step.

        The commanded action is latched only on half-cycle boundary steps
        (including the first step), keeping the foot references continuous.
        """
        if self.state is None or self._done:
            raise NotReset("environment must be reset before stepping")
        s = self.state
        sim = self.sim
        if s.step_index % self.steps_per_half == 0:
            self.latched = [action.leg(leg) for leg in LEG_ORDER]

        t_end = (s.step_index + 1) * sim.dt
        targets = []
        for leg, latched in zip(LEG_ORDER, self.latched):
            tau = gaitgen.trot_phase(t_end, self.gait.cycle_period, leg)
            foot = gaitgen.checked_foot_target(tau, latched, self.gait, self.geometry)
            q = legkin.inverse_kinematics(foot, self.geometry, clip_to_limits=True)
            targets.append((q.abd, q.hip, q.knee))

        joints_new = s.joints + self._track_alpha * (np.array(targets) - s.joints)
        feet_new = []
        for (hx, hy, hz), q in zip(self._hip_rows, joints_new.tolist()):
            p = legkin.forward_kinematics(legkin.LegJointAngles(*q), self.geometry)
            feet_new.append((hx + p.x, hy + p.y, hz + p.z))
        feet_new = np.array(feet_new)
        s.joint_vel = (joints_new - s.joints) / sim.dt
        feet_old = s.feet_body
        feet_rate = (feet_new - feet_old) / sim.dt

        # The contact substeps run on Python floats. Every matrix product
        # stays a numpy product on the same operands, since BLAS rounds
        # differently from a scalar sum. The elementwise terms give the same
        # bits as in array form, and so do the sums over feet: numpy sums a
        # few rows in order, starting from 0.0. The conditional expressions
        # make the comparisons of np.clip, np.maximum and np.minimum. A foot
        # above the plane adds exact zeros to the sums, so it is skipped.
        n = self.plane_normal
        nx, ny, nz = self._normal
        mu = self.terrain.friction
        kp, kd, cap = sim.contact_kp, sim.contact_kd, self.foot_force_cap
        neg_damping = -sim.tangential_damping
        weight = [self.mass * g for g in (0.0, 0.0, -sim.gravity)]
        push = [0.0, 0.0, 0.0]
        if self.push is not None and self.push.start_step <= s.step_index < self.push.stop_step:
            push[1] = self.push.force_y

        com_x_before = float(s.com[0])
        h = sim.dt / sim.substeps
        h_m = h / self.mass
        rot = s.rot
        com = s.com
        omega = s.omega
        cx, cy, cz = com.tolist()
        vx, vy, vz = s.vel.tolist()
        wx, wy, wz = omega.tolist()
        max_ratio = self.max_friction_ratio
        # Inertia in world coordinates is hoisted out of the substep loop:
        # the torso rotates well under a degree per control step.
        i_world = (rot * self.inertia_body) @ rot.T
        i_world_inv = np.linalg.inv(i_world)
        # Feet minus com in the body frame at the end of each substep.
        feet_sub = (feet_old - self.com_offset_body) + self._substep_fracs * (feet_new - feet_old)
        rate_world = (feet_rate @ rot.T).tolist()
        for feet_off in feet_sub:
            rel = feet_off @ rot.T  # feet minus com, world
            rel_rows = rel.tolist()
            v_feet = [
                (vx + (wy * rz - wz * ry) + ux,
                 vy + (wz * rx - wx * rz) + uy,
                 vz + (wx * ry - wy * rx) + uz)
                for (rx, ry, rz), (ux, uy, uz) in zip(rel_rows, rate_world)
            ]
            com_n = float(com @ n)
            fx = fy = fz = tx = ty = tz = 0.0
            for (rx, ry, rz), (vfx, vfy, vfz), rel_n, v_n in zip(
                rel_rows, v_feet, (rel @ n).tolist(), (np.array(v_feet) @ n).tolist()
            ):
                sdist = rel_n + com_n
                if sdist >= 0.0:
                    continue
                normal_f = kp * -sdist + kd * -v_n
                normal_f = 0.0 if 0.0 > normal_f else normal_f
                normal_f = cap if cap < normal_f else normal_f
                ftx = neg_damping * (vfx - v_n * nx)
                fty = neg_damping * (vfy - v_n * ny)
                ftz = neg_damping * (vfz - v_n * nz)
                tan_mag = math.sqrt(0.0 + ftx * ftx + fty * fty + ftz * ftz)
                limit = mu * normal_f
                scale = limit / (1e-30 if 1e-30 > tan_mag else tan_mag)
                scale = 1.0 if 1.0 < scale else scale
                ffx = normal_f * nx + ftx * scale
                ffy = normal_f * ny + fty * scale
                ffz = normal_f * nz + ftz * scale
                fx += ffx
                fy += ffy
                fz += ffz
                tx += ry * ffz - rz * ffy
                ty += rz * ffx - rx * ffz
                tz += rx * ffy - ry * ffx
                ratio = limit if limit < tan_mag else tan_mag
                ratio /= 1e-30 if 1e-30 > limit else limit
                max_ratio = ratio if ratio > max_ratio else max_ratio

            vx += h_m * (fx + weight[0] + push[0])
            vy += h_m * (fy + weight[1] + push[1])
            vz += h_m * (fz + weight[2] + push[2])
            cx, cy, cz = cx + h * vx, cy + h * vy, cz + h * vz
            com = np.array([cx, cy, cz])
            lx, ly, lz = (i_world @ omega).tolist()
            ax, ay, az = (i_world_inv @ np.array([
                tx - (wy * lz - wz * ly), ty - (wz * lx - wx * lz), tz - (wx * ly - wy * lx)
            ])).tolist()
            wx, wy, wz = wx + h * ax, wy + h * ay, wz + h * az
            omega = np.array([wx, wy, wz])
            rot = rodrigues((wx * h, wy * h, wz * h)) @ rot

        self.max_friction_ratio = max_ratio
        s.vel = np.array([vx, vy, vz])
        s.com = com
        s.omega = omega
        s.rot = orthonormalize(rot)
        s.joints = joints_new
        s.feet_body = feet_new
        s.step_index += 1

        self._update_contact_memory()
        theta = self._torso_theta(s.rot)
        exchange = s.step_index % self.steps_per_half == 0
        if exchange:
            self._begin_capture()
            self._theta_hist.append(np.array(theta))
        self._maybe_complete_capture()

        dx = float(s.com[0]) - com_x_before
        standing = self._standing.push(float(s.com[0]))
        clearance = float(s.com @ n)  # torso height straight above the terrain
        height = self._height_above_feet(clearance)
        reward_val = compute_reward(
            RewardInputs(
                torso_roll=theta[0],
                torso_pitch=theta[1],
                torso_yaw=theta[2],
                plane_roll=self.plane_roll,
                plane_pitch=self.plane_pitch,
                height=height,
                forward_disp=dx,
                standing=standing,
            ),
            self.reward_weights,
            self.max_step_per_control,
        )

        # Written as "not (within bounds)" so a non-finite state, whose
        # comparisons are all false, counts as a fall.
        self.fall = not (
            clearance >= self.sim.fall_height_frac * self.gait.desired_height
            and abs(theta[0]) <= self.sim.fall_angle
            and abs(theta[1]) <= self.sim.fall_angle
        )
        done = self.fall or s.step_index >= sim.episode_len
        self._done = done
        self._last_reward = reward_val
        self._last_dx = dx
        self._last_theta = theta
        self._last_height = height
        self._last_standing = standing

        info = {
            "time": s.step_index * sim.dt,
            "height": height,
            "clearance": clearance,
            "dx": dx,
            "standing": standing,
            "fall": self.fall,
            "exchange": exchange,
            "max_friction_ratio": self.max_friction_ratio,
            "motor_torque": self.motor_torque,
        }
        return self._observation(), reward_val, done, info

    def run(self, obs: np.ndarray, controller):
        """Drive the episode that reset() began, yielding (reward, info)
        per step until it is done.

        controller(obs) is asked for an action after reset and after every
        step that returns info["exchange"]: those are exactly the steps
        that step() latches an action on, so the controller is never asked
        for an action that would be thrown away.
        """
        action = controller(obs)
        while True:
            obs, reward, done, info = self.step(action)
            yield reward, info
            if done:
                return
            if info["exchange"]:
                action = controller(obs)

    def _height_above_feet(self, clearance: float) -> float:
        """Torso height along the terrain normal, measured from the lowest
        stance foot (so it tracks posture, not absolute terrain position).
        clearance is the torso's own height above the plane, com @ n."""
        s = self.state
        half_index = s.step_index // self.steps_per_half
        stance = self._stance_pair(half_index)
        rel = (s.feet_body[list(stance)] - self.com_offset_body) @ s.rot.T
        feet_w = s.com + rel
        return clearance - float((feet_w @ self.plane_normal).min())

    def _feet_world(self) -> list:
        """World positions of the four kinematic feet, in leg order."""
        s = self.state
        return [s.com + s.rot @ offset for offset in s.feet_body - self.com_offset_body]

    def _update_contact_memory(self) -> None:
        """Remember each foot's latest world contact point (the kinematic
        foot projected back onto the surface: the physical contact point
        lies on the terrain even though the penalty model lets it sink)."""
        n = self.plane_normal
        for i, f_world in enumerate(self._feet_world()):
            sdist = float(f_world @ n)
            self._in_contact[i] = sdist <= 0.0
            if sdist <= 0.0:
                self._contact_world[i] = f_world - sdist * n

    def _begin_capture(self) -> None:
        """At a stance exchange, start waiting for the touch-down pair to
        actually land before snapshotting the contacts."""
        s = self.state
        incoming = self._stance_pair(s.step_index // self.steps_per_half)
        self._pending_capture = {
            "incoming_ids": incoming,
            "deadline": s.step_index + self.steps_per_half,
        }

    def _maybe_complete_capture(self) -> None:
        """Finish the pending snapshot once the touch-down pair has made
        contact (or at the deadline).

        Every foot contributes its last world contact point, re-expressed
        in the body frame at this single instant: a stance foot does not
        move in the world (zero-slip leg odometry), so the lift-off pair's
        points stay valid even though they were touched earlier.
        """
        pending = self._pending_capture
        if pending is None:
            return
        s = self.state
        landed = all(self._in_contact[i] for i in pending["incoming_ids"])
        if not landed and s.step_index < pending["deadline"]:
            return
        body_origin = s.com - s.rot @ self.com_offset_body
        captured = {}
        for i, leg in enumerate(LEG_ORDER):
            f_world = self._contact_world[i]
            if f_world is None:
                f_world = self._feet_world()[i]
            captured[leg] = s.rot.T @ (f_world - body_origin)
        incoming_ids = pending["incoming_ids"]
        snapshot = capture_contact_pair(
            outgoing={LEG_ORDER[i]: captured[LEG_ORDER[i]]
                      for i in range(4) if i not in incoming_ids},
            incoming={LEG_ORDER[i]: captured[LEG_ORDER[i]] for i in incoming_ids},
            torso_rotation=s.rot,
            timestamp=s.step_index * self.sim.dt,
        )
        self._estimator.update(snapshot)
        self._pending_capture = None

    # ------------------------------------------------------------------
    # logging

    LOG_COLUMNS = (
        ["step", "time", "torso_roll", "torso_pitch", "torso_yaw",
         "plane_roll", "plane_pitch", "height", "dx", "reward"]
        + [f"{leg.lower()}_{ch}" for leg in LEG_ORDER
           for ch in ("step_len", "steer", "shift_x", "shift_y", "shift_z")]
    )

    def log_row(self) -> dict:
        """Per-step CSV row mirroring the logged experiment channels."""
        s = self.state
        est = self._estimator.estimate
        row = {
            "step": s.step_index,
            "time": s.step_index * self.sim.dt,
            "torso_roll": self._last_theta[0],
            "torso_pitch": self._last_theta[1],
            "torso_yaw": self._last_theta[2],
            "plane_roll": est.roll,
            "plane_pitch": est.pitch,
            "height": self._last_height,
            "dx": self._last_dx,
            "reward": self._last_reward,
        }
        for i, leg in enumerate(LEG_ORDER):
            act = self.latched[i]
            for ch in ("step_len", "steer", "shift_x", "shift_y", "shift_z"):
                row[f"{leg.lower()}_{ch}"] = getattr(act, ch)
        return row
