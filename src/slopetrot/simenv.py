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
from .bounds import ConfigError, bounded, check_bounds
from .gaitgen import LEG_ORDER, GaitParams
from .policy import CHANNELS, build_observation
from .reward import RewardInputs, RewardWeights, StandingMonitor, compute_reward
from .rotations import rot_z
from .slopeest import ContactSnapshot, SlopeEstimator, angles_from_normal
from .substeps import (
    COM, HEIGHT, OMEGA, POINTS, RECORD, ROT, SERVE_FLAGS, STANDING, TOUCHED, UP, VEL,
    plan_half_cycle, serve_half_cycle, step_torso,
)


class NotReset(RuntimeError):
    """step() called before reset() or after the episode finished."""


TRAIN_INCLINATIONS = (0, 5, 7, 9, 11)
TRAIN_ORIENTATIONS = (0, 15, 30, 45, 60, 75, 90)
STAGE1_INCLINATIONS = (0, 5, 7)

# Legs in stance during even and odd half cycles: a leg with phase offset
# 0.0 stands in the first half of every cycle, one with offset 0.5 in the
# second.
STANCE_PAIRS = tuple(
    tuple(i for i, leg in enumerate(LEG_ORDER) if gaitgen.PHASE_OFFSETS[leg] == offset)
    for offset in (0.0, 0.5)
)

# Stage-2 sampling weights per combo: steep inclines twice as likely as the
# moderate ones, flat halved.
STAGE2_COMBO_WEIGHT = {0: 0.5, 5: 1.0, 7: 1.0, 9: 2.0, 11: 2.0}


@dataclass(frozen=True)
class TerrainPlane:
    """Infinite plane: inclination (deg), yaw of the incline axis (deg),
    and friction coefficient. At yaw 0 the plane rises along +x (pure
    uphill); at yaw 90 it rises along +y (pure sidehill)."""

    inclination_deg: float = bounded(0.0, -90.0, 90.0, open_lo=True, open_hi=True)
    yaw_deg: float = bounded(0.0)
    friction: float = bounded(0.65, 0.0)

    def __post_init__(self):
        check_bounds(self)

    def normal(self) -> np.ndarray:
        inc = math.radians(self.inclination_deg)
        base = np.array([-math.sin(inc), 0.0, math.cos(inc)])
        return rot_z(math.radians(self.yaw_deg)) @ base

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

    added_mass_range: tuple = bounded((0.0, 0.2), 0.0, ordered=True)  # kg, front and back
    motor_torque_range: tuple = bounded((5.0, 8.0), 0.0, open_lo=True, ordered=True)  # N*m
    push_force_range: tuple = bounded((60.0, 120.0), 0.0, ordered=True)  # N, lateral
    push_duration_steps: int = bounded(10, 1)
    push_enabled: bool = True
    friction_range: tuple = bounded((0.5, 0.8), 0.0, ordered=True)  # consumed by sample_terrain

    def __post_init__(self):
        check_bounds(self)


@dataclass(frozen=True)
class PushEvent:
    """Lateral force window: applied for control steps in [start, stop)."""

    start_step: int = bounded(lo=0)
    stop_step: int = bounded()
    force_y: float = bounded()

    def __post_init__(self):
        check_bounds(self)
        if not self.start_step < self.stop_step:
            raise ConfigError("a push window must start before it stops")


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

    dt: float = bounded(0.005, 0.0, open_lo=True)
    substeps: int = bounded(5, 1)
    episode_len: int = bounded(400, 1)
    gravity: float = bounded(9.81, 0.0)
    torso_mass: float = bounded(10.0, 0.0, open_lo=True)
    torso_dims: tuple = bounded((0.55, 0.3, 0.1), 0.0, open_lo=True)
    contact_kp: float = bounded(20000.0, 0.0)
    contact_kd: float = bounded(300.0, 0.0)
    tangential_damping: float = bounded(300.0, 0.0)
    motor_moment_arm: float = bounded(0.05, 0.0, open_lo=True)
    track_time_const: float = bounded(0.02, 0.0, open_lo=True)
    fall_height_frac: float = bounded(0.5, 0.0)
    fall_angle: float = bounded(math.radians(45.0), 0.0, open_lo=True)
    estimator_smoothing: float = bounded(1.0, 0.0, 1.0, open_lo=True)

    def __post_init__(self):
        check_bounds(self)
        if len(self.torso_dims) != 3:
            raise ConfigError("torso_dims must be three lengths")
        # The box inertias reset computes. Below the smallest normal float
        # the world inertia's inverse is wrong (a subnormal pivot is
        # neither swapped nor scaled), and at zero or inf it is not finite.
        lx, ly, lz = self.torso_dims
        smallest = np.finfo(float).smallest_normal
        for a, b in ((ly, lz), (lx, lz), (lx, ly)):
            if not smallest <= self.torso_mass / 12.0 * (a * a + b * b) < math.inf:
                raise ConfigError(f"torso_dims {self.torso_dims!r} give a box inertia that is "
                                  "not a finite normal float")


def _served(name: str, view):
    """A SimState array: the one assigned since the last step, else
    view(state), a read-only view of the row the last step served, made
    when it is read. Assigning one is an edit."""

    def get(state):
        array = state._assigned.get(name)
        return view(state) if array is None else array

    def assign(state, array):
        state._assigned[name] = array
        state.edited = True

    return property(get, assign)


class SimState:
    """Full environment state; advances deterministically from the reset
    seed.

    After a step each array is a read-only view of the row that step
    served, made when it is read; after reset they are the spawn pose's
    own arrays, which the caller may also change in place before the
    first step. Assigning any of the six arrays or step_index is an edit
    (so is SlopedTerrainEnv.set_push): the next step runs the rest of its
    half cycle again from the state as edited."""

    __slots__ = ("_assigned", "_block", "_joints", "_feet", "_row", "_step_index", "edited")

    com = _served("com", lambda s: s._block[s._row, COM:VEL])
    vel = _served("vel", lambda s: s._block[s._row, VEL:OMEGA])
    omega = _served("omega", lambda s: s._block[s._row, OMEGA:ROT])
    rot = _served("rot", lambda s: s._block[s._row, ROT:UP].reshape(3, 3))
    joints = _served("joints", lambda s: s._joints[s._row])  # (4, 3) abd/hip/knee, FL FR BL BR
    feet_body = _served("feet_body", lambda s: s._feet[s._row])  # (4, 3) FK + hip mounts

    def __init__(self, com, rot, vel, omega, joints, feet_body, step_index: int):
        self._assigned = dict(com=com, rot=rot, vel=vel, omega=omega, joints=joints,
                              feet_body=feet_body)
        # The records of the run the rows come from (see substeps.py), its
        # planned joints and feet, and the row last served.
        self._block = self._joints = self._feet = None
        self._row = 0
        self._step_index = step_index
        self.edited = False

    @property
    def step_index(self) -> int:
        return self._step_index

    @step_index.setter
    def step_index(self, value: int) -> None:
        self._step_index = value
        self.edited = True


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

        self._hips = np.asarray(self.geometry.hip_positions_body, dtype=float)
        # The half-cycle plan's constants, in the order substeps.c reads
        # them: the com offset (filled in at reset), the lag coefficient of
        # the joints' tracking, the gait, the leg geometry, and the
        # workspace polygon's vertices and oriented edges, as legkin's
        # workspace test and projection read them.
        geometry, gait, sim = self.geometry, self.gait, self.sim
        self._kinematics = np.array((
            0.0, 0.0, 0.0, sim.dt, gait.cycle_period,
            1.0 - math.exp(-sim.dt / sim.track_time_const),
            gait.desired_height, gait.foot_clearance, geometry.upper_link_len,
            geometry.lower_link_len, geometry.abduction_offset,
            *(v for limits in geometry.joint_limits for v in limits),
            *(gaitgen.PHASE_OFFSETS[leg] for leg in LEG_ORDER), *self._hips.ravel().tolist(),
            sim.substeps, len(geometry._vertices),
            *(v for vertex in geometry._vertices for v in vertex),
            *(v for edge in geometry._edges for v in edge),
        ))
        self._kinematics_address = self._kinematics.ctypes.data
        # The plan's inputs: the latched actions, then the joints and feet
        # before the half cycle.
        self._plan_in = np.zeros(44)
        self._plan_in_address = self._plan_in.ctypes.data
        # The record the compiled torso steps start from (see substeps.c):
        # the state and the feet's contact memory.
        self._start = np.zeros(RECORD)
        self._start_address = self._start.ctypes.data
        # Each step's stance pair over one gait cycle, by step index modulo
        # two half cycles: the pair of the half cycle the step ends in.
        self._stances = np.array([STANCE_PAIRS[(i + 1) // steps % 2] for i in range(2 * steps)],
                                 dtype=np.int64)
        # Largest possible forward displacement per control step, used to
        # normalize the progress reward: top speed is one max step per half
        # cycle.
        self.max_step_per_control = (
            2.0 * self.gait.max_step_len / self.gait.cycle_period * self.sim.dt
        )

        # The serve pass's constants, in the order substeps.c reads them:
        # the fall's bounds, the standing window and threshold, which
        # StandingMonitor's defaults define, and the steps of a half cycle
        # and of an episode. positions holds the com x of the standing
        # window and of the current run (see serve_half_cycle).
        standing = StandingMonitor()
        self._serve = np.array((
            sim.fall_height_frac * gait.desired_height, sim.fall_angle, standing.window,
            standing.threshold, steps, sim.episode_len,
        ))
        self._serve_address = self._serve.ctypes.data
        self._window = standing.window
        self._positions = np.empty(standing.window + steps)
        self._positions_address = self._positions.ctypes.data

        self._estimator = SlopeEstimator(smoothing=self.sim.estimator_smoothing)
        # Torso orientation at the last three policy steps, oldest first.
        self._theta_hist = deque(maxlen=3)
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
        rand = rand or RandomizationConfig()
        rng = np.random.default_rng(seed)

        m_front = float(rng.uniform(*rand.added_mass_range))
        m_back = float(rng.uniform(*rand.added_mass_range))
        motor = float(rng.uniform(*rand.motor_torque_range))
        self.push = schedule_push(rand, self.sim.episode_len, rng)
        self.foot_force_cap = motor / self.sim.motor_moment_arm

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
        self.plane_roll, self.plane_pitch = angles_from_normal(n)
        # The episode's constants, in the order the compiled step reads
        # them (see substeps.c).
        sim = self.sim
        h = sim.dt / sim.substeps
        self._episode = np.array((
            *n.tolist(), self.terrain.friction, sim.contact_kp, sim.contact_kd,
            self.foot_force_cap, -sim.tangential_damping,
            *(self.mass * g for g in (0.0, 0.0, -sim.gravity)), h, h / self.mass,
            *self.inertia_body,
        ))
        self._episode_address = self._episode.ctypes.data
        self._kinematics[:3] = self.com_offset_body  # the plan's com offset
        bx = np.array([1.0, 0.0, 0.0]) - n[0] * n
        bx = bx / np.linalg.norm(bx)
        rot = np.column_stack((bx, np.cross(n, bx), n))

        body_origin = self.gait.desired_height * n
        self.latched = (gaitgen.ZERO_ACTION,) * 4
        joints, feet_body = self._spawn_posture()
        self.state = SimState(
            com=body_origin + rot @ self.com_offset_body,
            rot=rot,
            vel=np.zeros(3),
            omega=np.zeros(3),
            joints=joints,
            feet_body=feet_body,
            step_index=0,
        )
        self._done = False
        self.fall = False

        # The spawn pose's contact memory, angles and height: one compiled
        # step without substeps, from no contact memory, above the first
        # half cycle's stance pair, which the table gives a cycle's last
        # step. The state arrays stay the caller's to edit: the first step
        # reads them. Its one row is what log_row serves until then.
        offsets = feet_body - self.com_offset_body
        self.state._block = block = self._advance(offsets.ctypes.data, 0, self._stances[-1:], 0.0)
        theta = tuple(float(a[0]) for a in self._angles(block))
        self._rows = [(theta, block.item(0, HEIGHT), 0.0, 0.0) + (False,) * SERVE_FLAGS]
        self._first = 0
        # The standing window: the spawn com x, and NaN before it.
        self._positions.fill(math.nan)
        self._positions[self._window] = self.state.com[0]

        self._estimator.reset()
        self._theta_hist.clear()
        self._theta_hist.append(theta)
        # The touch-down pair the pending contact capture waits for; empty
        # when no capture is pending.
        self._incoming = ()
        # Rebuilt only when its inputs change: the orientation history at
        # an exchange and the slope estimate at a completed capture. Until
        # then every step serves the same array, so it is read-only.
        self._obs = build_observation(self._theta_hist, self._estimator.estimate)
        self._obs.flags.writeable = False
        return self._obs

    def set_push(self, start_step: int, stop_step: int, force_y: float) -> None:
        """Override the sampled push with a scripted one (CLI rollouts).
        In mid half cycle this is an edit, as assigning a state array is:
        the next step runs the rest of the half cycle again under it."""
        self.push = PushEvent(start_step, stop_step, force_y)
        if self.state is not None:
            self.state.edited = True

    # ------------------------------------------------------------------
    # helpers

    def _spawn_posture(self) -> tuple:
        """The legs' IK joints and body-frame feet (leg-frame FK plus the
        hip mounts) at t = 0 under the zero action, each (4, 3): legs in
        LEG_ORDER, joints abd/hip/knee. They come from the public
        kinematics, one call per leg, which give the bits of the compiled
        plan."""
        gait, geometry = self.gait, self.geometry
        joints, feet = [], []
        for leg in LEG_ORDER:
            tau = gaitgen.trot_phase(0.0, gait.cycle_period, leg)
            foot = gaitgen.checked_foot_target(tau, gaitgen.ZERO_ACTION, gait, geometry)
            q = legkin.inverse_kinematics(foot, geometry)
            joints.append(q)
            feet.append(legkin.forward_kinematics(q, geometry))
        return np.array(joints), self._hips + np.array(feet)

    def _plan_half_cycle(self) -> tuple:
        """The kinematics of every control step from this one to the end of
        its half cycle (or of the episode), which the latched actions fix,
        in one compiled call (see substeps.c): joints and body-frame feet
        after the step, and the feet's motion that the compiled torso
        steps read, one C-ordered (substeps + 2, 4, 3) block per step: the
        feet minus com after the step, the feet's rate, then the feet minus
        com at the end of each contact substep, all in the body frame. Row
        k belongs to the step k steps after this one. The arrays are
        read-only.

        Each element has the bits of the public kinematics' calls on the
        same target: libm's atan2, acos, sin, cos, sqrt and fmod are
        math's. An action with a non-finite entry has no foot target, and
        a target that legkin.inverse_kinematics rejects has no joints:
        their joints are NaN, for that leg from that row on, which makes
        the state NaN, and the step counts that as a fall."""
        s, sim = self.state, self.sim
        count = min(self.steps_per_half - s.step_index % self.steps_per_half,
                    sim.episode_len - s.step_index)
        np.concatenate((self.latched, s.joints, s.feet_body), axis=None, out=self._plan_in)
        # Fresh arrays: the state's joints and feet are views into them.
        out = np.empty(count * (sim.substeps + 4) * 12)
        plan_half_cycle(self._kinematics_address, self._plan_in_address, s.step_index + 1, count,
                        out.ctypes.data)
        out.flags.writeable = False
        rows = count * 12
        return (out[:rows].reshape(count, 4, 3), out[rows:2 * rows].reshape(count, 4, 3),
                out[2 * rows:].reshape(count, sim.substeps + 2, 4, 3))

    def _advance(self, motion: int, substeps: int, stances: np.ndarray, memory) -> np.ndarray:
        """Advance the torso from the state and the contact memory memory
        (the touched flags and points of a record) through len(stances)
        control steps in one compiled call, the first of them step number
        state.step_index, and return their records (see substeps.py): one
        read-only row per step. A step whose world inertia is singular, or
        whose feet motion is NaN, has a non-finite state, and so have the
        steps after it.

        Each step runs substeps contact substeps, re-orthonormalizes the
        rotation, updates the feet's contact memory and measures the
        torso's unit up-axis, its clearance above the plane (com @ n) and
        its height along the normal above the lower of its stance pair,
        the step's row of stances. motion is the address of the steps'
        blocks of feet motion (see _plan_half_cycle); each step's push
        force comes from the push window. With substeps 0 the block holds
        only the feet minus com, and the state is measured without moving
        it.

        substeps.c keeps the bits of numpy's calls and Python's float
        arithmetic: it computes each product and the inverse in the
        rounding order of the OpenBLAS kernels numpy calls, and compiles
        its scalar code without FMA contraction in Python's operand
        order."""
        s = self.state
        np.concatenate((s.com, s.vel, s.omega, s.rot), axis=None, out=self._start[:UP])
        self._start[TOUCHED:] = memory
        count = len(stances)
        pushes = np.zeros(count)
        push = self.push
        if push is not None:
            pushes[max(push.start_step - s.step_index, 0):
                   max(push.stop_step - s.step_index, 0)] = push.force_y
        block = np.empty((count, RECORD))
        step_torso(self._episode_address, self._start_address, motion, substeps,
                   pushes.ctypes.data, stances.ctypes.data, count, block.ctypes.data)
        block.flags.writeable = False
        return block

    @staticmethod
    def _angles(block: np.ndarray) -> tuple:
        """The records' torso roll, pitch and yaw, three arrays. They are
        numpy's arctan2 and arcsin over the whole block, whose bits the
        goldens hold: they equal the calls on each record's floats, though
        they may round differently from libm's."""
        ux, uy, uz, r10, r00 = block.T[[UP, UP + 1, UP + 2, ROT + 3, ROT]]
        return (np.arctan2(uy, uz), -np.arcsin(np.minimum(np.maximum(ux, -1.0), 1.0)),
                np.arctan2(r10, r00))

    @property
    def _record(self) -> np.ndarray:
        """The record of the step last served, after reset the spawn
        pose's."""
        s = self.state
        return s._block[s._row]

    def _run_half_cycle(self) -> None:
        """Plan the legs and run the torso from this step to the end of its
        half cycle (or of the episode), and keep what each step serves: the
        state's rows, and per step its torso angles, height, forward
        displacement, reward and flags (see substeps.serve_half_cycle),
        the rewards in one compute_reward call. The standing window moves
        past the rows the steps of the last run served."""
        s = self.state
        served = s._row + 1
        memory = self._record[TOUCHED:]
        joints, feet, motion = self._plan_half_cycle()
        first = s._step_index
        i = first % len(self._stances)
        stances = self._stances[i:i + len(joints)]
        block = self._advance(motion.ctypes.data, self.sim.substeps, stances, memory)
        roll, pitch, yaw = self._angles(block)
        count = len(block)
        dx = np.empty(count)
        flags = np.empty((SERVE_FLAGS, count), dtype=bool)
        serve_half_cycle(self._serve_address, self._start_address, block.ctypes.data,
                         roll.ctypes.data, pitch.ctypes.data, stances.ctypes.data, first, count,
                         served, *(self._incoming or (-1, -1)), self._positions_address,
                         dx.ctypes.data, flags.ctypes.data)
        height = block[:, HEIGHT]
        rewards = compute_reward(
            RewardInputs(roll, pitch, yaw, self.plane_roll, self.plane_pitch, height, dx,
                         flags[STANDING]),
            self.reward_weights, self.max_step_per_control)
        self._rows = list(zip(zip(roll.tolist(), pitch.tolist(), yaw.tolist()), height.tolist(),
                              dx.tolist(), rewards.tolist(), *flags.tolist()))
        self._first = first
        s._assigned.clear()
        s._block, s._joints, s._feet = block, joints, feet
        s.edited = False

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

    def step(self, action):
        """Advance one control step.

        action is one LegAction per leg, in LEG_ORDER. It is latched only on
        half-cycle boundary steps (including the first step), keeping the
        foot references continuous. The latch step plans the legs'
        kinematics, runs the torso for the whole half cycle and computes
        each of its steps' reward and flags, and every step of the half
        cycle then serves its row: the estimator captures and the
        observation is rebuilt only on the rows that change them. The
        state arrays a step hands out are read-only: assigning one or the
        step index, or setting the push window, before the next step runs
        the rest of the half cycle again from there.

        A step never raises for what it cannot compute: a non-finite
        action, a foot target IK rejects and a singular world inertia each
        give a non-finite state, and the step that serves it is a fall,
        with a non-finite reward.

        The returned observation array is reused until its inputs change,
        and is read-only.
        """
        s = self.state
        if s is None or self._done:
            raise NotReset("environment must be reset before stepping")
        index = s._step_index
        if index % self.steps_per_half == 0:
            self.latched = tuple(action)
            self._run_half_cycle()
        elif s.edited:
            self._run_half_cycle()
        s._row = row = index - self._first
        s._step_index = index + 1
        theta, _, _, reward, standing, fall, done, exchange, capture = self._rows[row]
        if exchange or capture:
            if exchange:
                self._theta_hist.append(theta)
                # The touch-down pair, which the capture waits for.
                self._incoming = STANCE_PAIRS[(index + 1) // self.steps_per_half % 2]
            if capture:
                self._capture()
            self._obs = build_observation(self._theta_hist, self._estimator.estimate)
            self._obs.flags.writeable = False
        self.fall = fall
        self._done = done
        return self._obs, reward, done, {"standing": standing, "fall": fall, "exchange": exchange}

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

    def _capture(self) -> None:
        """Finish the pending snapshot on the step whose row has the
        touch-down pair in contact, and update the estimator.

        Every foot contributes, in LEG_ORDER, its last world contact point
        (a foot that never touched, its world position now),
        re-expressed in the body frame at this single instant: a stance
        foot does not move in the world (zero-slip leg odometry), so the
        lift-off pair's points stay valid even though they were touched
        earlier.
        """
        s = self.state
        rot = s.rot
        body_origin = s.com - rot @ self.com_offset_body
        points = [rot.T @ (point - body_origin) for point in self._record[POINTS:].reshape(4, 3)]
        self._estimator.update(ContactSnapshot(*points, rot))
        self._incoming = ()

    # ------------------------------------------------------------------
    # logging

    LOG_COLUMNS = (
        ["step", "time", "torso_roll", "torso_pitch", "torso_yaw",
         "plane_roll", "plane_pitch", "height", "dx", "reward"]
        + [f"{leg.lower()}_{ch}" for leg in LEG_ORDER for ch in CHANNELS]
    )

    def log_row(self) -> dict:
        """Per-step CSV row mirroring the logged experiment channels."""
        s = self.state
        est = self._estimator.estimate
        (roll, pitch, yaw), height, dx, reward = self._rows[s._row][:4]
        row = {
            "step": s.step_index,
            "time": s.step_index * self.sim.dt,
            "torso_roll": roll,
            "torso_pitch": pitch,
            "torso_yaw": yaw,
            "plane_roll": est.roll,
            "plane_pitch": est.pitch,
            "height": height,
            "dx": dx,
            "reward": reward,
        }
        # The latched actions fill the remaining columns, leg by leg.
        row.update(zip(self.LOG_COLUMNS[len(row):], (v for act in self.latched for v in act)))
        return row
