"""The numeric equalities the environment step relies on to compute the
same bits at less cost, checked on random operands of the exact shapes the
step uses.

The step calls each small product through ndarray.dot instead of @, stacks
per-foot products into one np.matmul, reads rows of one product as the
product of those rows, runs elementwise work on Python floats, and runs
the torso update (contact substeps, inertia inverse, re-orthonormalization,
contact memory and height) of a half cycle's steps and its leg kinematics
in substeps.c, compiled code that calls libm's functions and writes each
product and the inverse out in the rounding order of the OpenBLAS kernels
numpy calls, and takes the torso's angles of a whole half cycle in one
array call each. Each is exact only because numpy and its BLAS make it
so; the forms are not interchangeable in general (a scalar sum, or a
vector dot product, rounds differently from a row of a matrix-vector
product). The oracles below are substeps.c's product and inverse helpers
checked one by one against ndarray.dot and np.linalg.inv, that torso
update written with Python floats and numpy calls, the compiled update of
one step at a time, that plan written with the kinematics' float calls,
one per step and leg, and the rows the compiled serve pass and reward
loop give a half cycle against the step's former code on Python floats,
one row at a time.
"""

import ctypes
import math
from collections import Counter

import numpy as np
import pytest

from slopetrot import gaitgen, legkin
from slopetrot.gaitgen import LEG_ORDER, ZERO_ACTION, LegAction
from slopetrot.legkin import LegGeometry, Unreachable
from slopetrot.policy import DEFAULT_SCALING, scale_clip_action
from slopetrot.reward import (
    RewardInputs, RewardWeights, StandingMonitor, compute_reward, gaussian_kernel,
)
from slopetrot.rotations import rot_x, rot_y, rot_z
from slopetrot.simenv import (
    STANCE_PAIRS, PushEvent, RandomizationConfig, SimParams, SlopedTerrainEnv, TerrainPlane,
)
from slopetrot.slopeest import (
    CaptureBuffer, ContactSnapshot, DegenerateContacts, PlaneEstimate, angles_from_normal,
    angles_from_unit_normal, plane_from_contacts,
)
from slopetrot.substeps import (
    CLEARANCE, COM, HEIGHT, IN_CONTACT, OMEGA, POINTS, RECORD, ROT, SERVE_FLAGS, SOURCE,
    STANDING, TOUCHED, UP, VEL, build, capture_plane, serve_half_cycle, step_torso,
)

SAMPLES = 2000

RERECORD = (
    "{what}: this numpy/BLAS build breaks an equality the environment step "
    "relies on. substeps.c writes numpy's products and inverse out in the "
    "rounding order of numpy's OpenBLAS 0.3.31 SkylakeX kernels, and the "
    "goldens (tests/test_simenv.py, the perfbench digests) were recorded "
    "under these facts, so on this BLAS the helpers must follow its kernels "
    "and the goldens be re-recorded from a trusted commit."
)


def _rot(rng):
    """A drifted rotation matrix, as the substeps leave it."""
    return np.linalg.qr(rng.normal(size=(3, 3)))[0] + rng.normal(scale=1e-6, size=(3, 3))


def _assert_forms_agree(what, forms):
    """forms(rng) draws operands and returns (fast, reference), each a
    tuple of results computed from them."""
    rng = np.random.default_rng(0)
    for _ in range(SAMPLES):
        fast, reference = forms(rng)
        assert all(np.array_equal(f, r) for f, r in zip(fast, reference, strict=True)), (
            RERECORD.format(what=what))


@pytest.mark.parametrize("a_shape, b_shape", [
    ((3, 3), (3,)),
    ((3,), (3,)),
    ((3, 3), (3, 3)),
    ((4, 3), (3,)),
    ((2, 3), (3,)),
])
def test_dot_equals_matmul(a_shape, b_shape):
    def forms(rng):
        a, b = rng.normal(size=a_shape), rng.normal(size=b_shape)
        return (a.dot(b),), (a @ b,)

    _assert_forms_agree(f"{a_shape}.dot({b_shape})", forms)


def test_dot_equals_matmul_on_transposed_rotations():
    # Feet times rot.T in the substeps, and the world inertia.
    def forms(rng):
        a, r = rng.normal(size=(4, 3)), _rot(rng)
        scaled = r * rng.uniform(0.05, 0.3, size=3)
        return (a.dot(r.T), scaled.dot(r.T)), (a @ r.T, scaled @ r.T)

    _assert_forms_agree("(4,3).dot((3,3).T)", forms)


def test_stacked_matmul_equals_per_item_products():
    # The contact memory: rot @ offset per foot as one (4, 3, 1) stack, and
    # f_world @ n per foot as one (4, 1, 3) stack.
    def forms(rng):
        r, offsets = _rot(rng), rng.normal(size=(4, 3))
        com, n = rng.normal(size=3), rng.normal(size=3)
        feet = com + np.matmul(r, offsets[:, :, None])[:, :, 0]
        per_foot = [com + r @ o for o in offsets]
        return ((feet, np.matmul(feet[:, None, :], n)[:, 0]),
                (np.array(per_foot), np.array([f @ n for f in per_foot])))

    _assert_forms_agree("stacked np.matmul", forms)


@pytest.mark.parametrize("rows", [(0, 3), (1, 2), (0, 1, 2), (0, 1, 2, 3)])
def test_rows_of_one_product_equal_the_product_of_those_rows(rows):
    # The stance rows of the height products, and the touching feet's rows
    # of the normal-velocity product. Never one row alone: numpy takes a
    # single row as a vector dot product.
    def forms(rng):
        a, r, n = rng.normal(size=(4, 3)), _rot(rng), rng.normal(size=3)
        sub = np.array([a[i].tolist() for i in rows])
        return (a.dot(r.T)[list(rows)], a.dot(n)[list(rows)]), (sub @ r.T, sub @ n)

    _assert_forms_agree(f"rows {rows} of one product", forms)


def _orthonormalize(rot: np.ndarray) -> np.ndarray:
    """The reference for substeps.c's re-orthonormalization of a drifting
    rotation matrix (Gram-Schmidt on columns), on Python floats and numpy
    dot products of the column views."""
    (a0, b0, _), (a1, b1, _), (a2, b2, _) = rot.tolist()
    c0, c1 = rot[:, 0], rot[:, 1]
    norm = math.sqrt(c0.dot(c0))
    x0, x1, x2 = a0 / norm, a1 / norm, a2 / norm
    proj = float(c1.dot(np.array((x0, x1, x2))))
    y0, y1, y2 = b0 - proj * x0, b1 - proj * x1, b2 - proj * x2
    y = np.array((y0, y1, y2))
    norm = math.sqrt(y.dot(y))
    y0, y1, y2 = y0 / norm, y1 / norm, y2 / norm
    return np.array((
        (x0, y0, x1 * y2 - x2 * y1),
        (x1, y1, x2 * y0 - x0 * y2),
        (x2, y2, x0 * y1 - x1 * y0),
    ))


def test_orthonormalize_matches_array_form():
    def array_form(rot):
        x = rot[:, 0]
        x = x / math.sqrt(x @ x)
        y = rot[:, 1] - (rot[:, 1] @ x) * x
        y = y / math.sqrt(y @ y)
        z = np.array([x[1] * y[2] - x[2] * y[1],
                      x[2] * y[0] - x[0] * y[2],
                      x[0] * y[1] - x[1] * y[0]])
        return np.column_stack((x, y, z))

    def forms(rng):
        r = _rot(rng)
        return (_orthonormalize(r),), (array_form(r),)

    _assert_forms_agree("orthonormalize", forms)


def test_angles_from_normal_matches_array_form():
    def array_form(v):
        n = np.asarray(v, dtype=float)
        n = n / np.linalg.norm(n)
        return float(np.arctan2(n[1], n[2])), float(-np.arcsin(min(max(float(n[0]), -1.0), 1.0)))

    def forms(rng):
        r = _rot(rng)
        r[:, 2] *= math.copysign(1.0, r[2, 2])
        # The torso's up-axis is a column view; plane normals are vectors.
        return ((angles_from_normal(r[:, 2]), angles_from_normal(r[:, 2].copy())),
                (array_form(r[:, 2]), array_form(r[:, 2].copy())))

    _assert_forms_agree("angles_from_normal", forms)


@pytest.mark.parametrize("name", ["sin", "cos", "sqrt"])
def test_math_functions_equal_numpy(name):
    def forms(rng):
        x = float(rng.uniform(0.0, 4.0) if name == "sqrt" else rng.uniform(-10.0, 10.0))
        return (getattr(math, name)(x),), (float(getattr(np, name)(x)),)

    _assert_forms_agree(f"math.{name}", forms)


# substeps.c's product and inverse helpers are static; this file, built
# beside it, exports each under a probe_ name.
PROBES = """#include "{source}"
double probe_dot3(const double *x, long inc_x, const double *y, long inc_y)
{{ return dot3(x, inc_x, y, inc_y); }}
void probe_times_vector(const double *a, long rows, const double *x, double *y)
{{ times_vector(a, rows, x, y); }}
void probe_times_rot_t(const double *a, long rows, const double *rot, double *out)
{{ times_rot_t(a, rows, rot, out); }}
void probe_times(const double *a, const double *b, double *out) {{ times(a, b, out); }}
void probe_invert(const double *a, double *inv) {{ invert(a, inv); }}
"""
SPECIALS = (0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, -1e-310, 1e308)


@pytest.fixture(scope="module")
def kernel(tmp_path_factory):
    out = tmp_path_factory.mktemp("probes")
    source = out / "probes.c"
    source.write_text(PROBES.format(source=SOURCE))
    lib = ctypes.CDLL(str(build(source, out)))
    ptr, long = ctypes.c_void_p, ctypes.c_long
    for name, argtypes, restype in (
        ("dot3", [ptr, long, ptr, long], ctypes.c_double),
        ("times_vector", [ptr, long, ptr, ptr], None),
        ("times_rot_t", [ptr, long, ptr, ptr], None),
        ("times", [ptr, ptr, ptr], None),
        ("invert", [ptr, ptr], None),
    ):
        function = getattr(lib, f"probe_{name}")
        function.argtypes, function.restype = argtypes, restype
    return lib


def _operands(rng, shape, seen):
    """Normal draws of shape with one entry in ten a special value: signed
    zeros, NaN, infinities, subnormals and a huge value."""
    x = rng.normal(size=shape)
    picks = rng.random(shape) < 0.1
    x[picks] = rng.choice(SPECIALS, size=int(picks.sum()))
    seen["draws"] += 1
    seen["nan"] += bool(np.isnan(x).any())
    seen["inf"] += bool(np.isinf(x).any())
    seen["zero"] += bool((x == 0.0).any())
    return x


def _assert_probe_agrees(what, forms):
    """forms(rng, seen) draws operands and returns (helper, numpy), each a
    tuple of results; NaNs compare by place, zeros by sign. The draws of
    _operands must hold each kind of special value many times."""
    seen = Counter()

    def canonical(rng):
        with np.errstate(all="ignore"):
            fast, reference = forms(rng, seen)
        return tuple(map(_nan_canonical_bits, fast)), tuple(map(_nan_canonical_bits, reference))

    _assert_forms_agree(f"substeps.c's {what}", canonical)
    assert seen["draws"] == 0 or min(seen[k] for k in ("nan", "inf", "zero")) > 100, seen


@pytest.mark.parametrize("strides", [(1, 1), (3, 3), (3, 1)])
def test_dot3_equals_ndarray_dot(kernel, strides):
    # Vectors, the rotation's column views with themselves, and a column
    # view with a vector.
    def forms(rng, seen):
        x, y = _operands(rng, (3, 3), seen), _operands(rng, (3, 3), seen)
        u, v = x[0] if strides[0] == 1 else x[:, 0], y[0] if strides[1] == 1 else y[:, 1]
        return ((kernel.probe_dot3(u.ctypes.data, strides[0], v.ctypes.data, strides[1]),),
                (u.dot(v),))

    _assert_probe_agrees(f"dot3 at strides {strides}", forms)


@pytest.mark.parametrize("rows", [1, 2, 3, 4])
def test_times_vector_equals_ndarray_dot(kernel, rows):
    # numpy takes one row alone as a vector dot product, so a single row's
    # reference is the first row of the product of that row twice.
    def forms(rng, seen):
        a, x = _operands(rng, (rows, 3), seen), _operands(rng, 3, seen)
        y = np.empty(rows)
        kernel.probe_times_vector(a.ctypes.data, rows, x.ctypes.data, y.ctypes.data)
        return (y,), ((np.concatenate((a, a)).dot(x)[:1] if rows == 1 else a.dot(x)),)

    _assert_probe_agrees(f"times_vector of {rows} rows", forms)


@pytest.mark.parametrize("rows", [3, 4])
def test_times_rot_t_equals_ndarray_dot(kernel, rows):
    def forms(rng, seen):
        a, rot = _operands(rng, (rows, 3), seen), _operands(rng, (3, 3), seen)
        out = np.empty((rows, 3))
        kernel.probe_times_rot_t(a.ctypes.data, rows, rot.ctypes.data, out.ctypes.data)
        return (out,), (a.dot(rot.T),)

    _assert_probe_agrees(f"times_rot_t of {rows} rows", forms)


def test_times_equals_ndarray_dot(kernel):
    def forms(rng, seen):
        a, b = _operands(rng, (3, 3), seen), _operands(rng, (3, 3), seen)
        out = np.empty((3, 3))
        kernel.probe_times(a.ctypes.data, b.ctypes.data, out.ctypes.data)
        return (out,), (a.dot(b),)

    _assert_probe_agrees("times", forms)


def _inverse_or_singular(a):
    """np.linalg.inv(a), or None where it raises for a singular a."""
    try:
        return np.linalg.inv(a)
    except np.linalg.LinAlgError:
        return None


@pytest.mark.parametrize("kind", ["inertia", "general", "singular", "subnormal pivot"])
def test_invert_equals_np_linalg_inv(kernel, kind):
    # World inertias R diag(I) R^T of drifted rotations; general matrices
    # with special entries; matrices of -1, 0 and 1, many of them
    # singular, one in five with a zero column; and general matrices whose
    # first column is subnormal, so the first pivot is one that dgesv
    # neither swaps nor scales by. Where numpy raises for a singular
    # matrix, invert's result is not finite.
    singular = []

    def forms(rng, seen):
        if kind == "inertia":
            r = _rot(rng)
            a = (r * rng.uniform(0.05, 0.3, size=3)).dot(r.T)
        elif kind == "singular":
            a = rng.integers(-1, 2, size=(3, 3)).astype(float)
            if rng.random() < 0.2:
                a[:, int(rng.integers(3))] = 0.0
        else:
            a = _operands(rng, (3, 3), seen)
            if kind == "subnormal pivot":
                a[:, 0] = rng.normal(size=3) * 1e-310
        inv = np.empty((3, 3))
        kernel.probe_invert(a.ctypes.data, inv.ctypes.data)
        reference = _inverse_or_singular(a)
        singular.append(reference is None)
        if reference is None:
            return (np.isfinite(inv).all(),), (False,)
        return (inv,), (reference,)

    _assert_probe_agrees(f"invert of {kind} matrices", forms)
    assert (sum(singular) > 200) == (kind == "singular")


def _parent_substeps(env, feet_rate, feet_sub, push_y):
    """The reference for substeps.c: the contact substeps of one control
    step written with Python floats and numpy products, with the step's
    push force and feet motion as arguments. Returns com, vel, omega and
    the rotation before re-orthonormalization."""
    s = env.state
    sim = env.sim
    n = env.terrain.normal()
    nx, ny, nz = n.tolist()
    mu = env.terrain.friction
    kp, kd, cap = sim.contact_kp, sim.contact_kd, env.foot_force_cap
    neg_damping = -sim.tangential_damping
    gx, gy, gz = [env.mass * g for g in (0.0, 0.0, -sim.gravity)]

    h = sim.dt / sim.substeps
    h_m = h / env.mass
    rot = s.rot
    com = s.com
    omega = s.omega
    cx, cy, cz = com.tolist()
    vx, vy, vz = s.vel.tolist()
    wx, wy, wz = omega.tolist()
    i_world = (rot * env.inertia_body).dot(rot.T)
    i_world_inv = np.linalg.inv(i_world)
    rate_world = feet_rate.dot(rot.T).tolist()
    for feet_off in feet_sub:
        rel = feet_off.dot(rot.T)  # feet minus com, world
        com_n = float(com.dot(n))
        touching = []
        v_feet = []
        for (rx, ry, rz), (ux, uy, uz), rel_n in zip(
            rel.tolist(), rate_world, rel.dot(n).tolist()
        ):
            sdist = rel_n + com_n
            if sdist >= 0.0:
                continue
            touching.append((rx, ry, rz, sdist))
            v_feet.append((vx + (wy * rz - wz * ry) + ux,
                           vy + (wz * rx - wx * rz) + uy,
                           vz + (wx * ry - wy * rx) + uz))
        fx = fy = fz = tx = ty = tz = 0.0
        if len(v_feet) == 1:
            v_feet.append(v_feet[0])
        v_normal = np.array(v_feet).dot(n).tolist() if v_feet else ()
        for (rx, ry, rz, sdist), (vfx, vfy, vfz), v_n in zip(touching, v_feet, v_normal):
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

        vx += h_m * (fx + gx + 0.0)
        vy += h_m * (fy + gy + push_y)
        vz += h_m * (fz + gz + 0.0)
        cx, cy, cz = cx + h * vx, cy + h * vy, cz + h * vz
        com = np.array((cx, cy, cz))
        lx, ly, lz = i_world.dot(omega).tolist()
        ax, ay, az = i_world_inv.dot(np.array((
            tx - (wy * lz - wz * ly), ty - (wz * lx - wx * lz), tz - (wx * ly - wy * lx)
        ))).tolist()
        wx, wy, wz = wx + h * ax, wy + h * ay, wz + h * az
        omega = np.array((wx, wy, wz))
        rx, ry, rz = wx * h, wy * h, wz * h
        angle = math.sqrt(rx * rx + ry * ry + rz * rz)
        if angle < 1e-12:
            sinc, cosc = 1.0, 0.5
        else:
            sinc = math.sin(angle) / angle
            cosc = (1.0 - math.cos(angle)) / (angle * angle)
        kx, ky, kz = sinc * rx, sinc * ry, sinc * rz
        xx, yy, zz = cosc * rx * rx, cosc * ry * ry, cosc * rz * rz
        xy, xz, yz = cosc * rx * ry, cosc * rx * rz, cosc * ry * rz
        rot = np.array((
            (1.0 - yy - zz, xy - kz, xz + ky),
            (xy + kz, 1.0 - xx - zz, yz - kx),
            (xz - ky, yz + kx, 1.0 - xx - yy),
        )).dot(rot)

    return com, np.array((vx, vy, vz)), omega, rot


def _nan_canonical_bits(x):
    """x's float64 bit patterns with every NaN the same NaN, so -0.0
    differs from 0.0 and two results agree when their NaNs sit in the same
    places."""
    x = np.asarray(x, dtype=float)
    return np.where(np.isnan(x), np.nan, x).view(np.int64)


def _parent_tail(env, com, rot, feet_body, stance, contact_world):
    """The reference for the rest of substeps.c's step, on the state after
    the substeps and re-orthonormalization. contact_world holds each
    foot's remembered world contact point, or None if it has not touched,
    and is updated in place. Returns the feet in contact, the points the
    slope estimator takes, the clearance com @ n, the height above the
    lower stance foot, the unit up-axis and the torso's (roll, pitch, yaw)."""
    n = env.terrain.normal()
    nx, ny, nz = n.tolist()
    # The contact memory: each foot's rot @ offset and f_world @ n, as one
    # stacked matmul each.
    offsets = (feet_body - env.com_offset_body)[:, :, None]
    feet_w = com + np.matmul(rot, offsets)[:, :, 0]
    sdists = np.matmul(feet_w[:, None, :], n).tolist()
    in_contact = []
    for i, ((fx, fy, fz), (sdist,)) in enumerate(zip(feet_w.tolist(), sdists)):
        in_contact.append(sdist <= 0.0)
        if sdist <= 0.0:
            contact_world[i] = (fx - sdist * nx, fy - sdist * ny, fz - sdist * nz)
    points = [f if c is None else np.array(c) for c, f in zip(contact_world, feet_w)]

    clearance = float(com.dot(n))
    # The stance rows of products over all four feet.
    i, j = stance
    rel = (feet_body - env.com_offset_body).dot(rot.T)
    sdist = (com + rel).dot(n).tolist()
    a, b = sdist[i], sdist[j]
    lowest = a if a <= b or a != a else b

    up = np.asarray(rot[:, 2], dtype=float).ravel()
    norm = math.sqrt(up.dot(up))
    unit = [v / norm for v in up.tolist()]
    theta = (*angles_from_normal(rot[:, 2]), float(np.arctan2(rot[1, 0], rot[0, 0])))
    return in_contact, points, clearance, clearance - lowest, unit, theta


def _draw_step(env, rng, substeps, seen):
    """Reset env on a random terrain and give it a random state, and draw
    one control step's feet motion and push. Returns the address-ready
    motion block the compiled step reads, the feet's rate, their offsets
    at each substep and their body-frame positions after the step, and
    the push force."""
    env.reset(TerrainPlane(rng.choice([0, 5, 11]), rng.uniform(0.0, 90.0),
                           rng.uniform(0.0, 1.0)), seed=int(rng.integers(1000)))
    s = env.state
    n = env.terrain.normal()
    s.rot = _rot(rng)
    s.vel = rng.normal(scale=0.5, size=3)
    s.omega = rng.normal(scale=2.0, size=3)
    feet = rng.uniform((-0.3, -0.25, -0.35), (0.3, 0.25, -0.1), size=(4, 3))
    feet_sub = feet + rng.normal(scale=1e-3, size=(substeps, 4, 3))
    feet_end = feet_sub[-1] + rng.normal(scale=1e-9, size=(4, 3))
    feet_rate = rng.normal(scale=0.5, size=(4, 3))
    # The com height that puts `touching` feet below the plane at the
    # first substep: the threshold sits halfway between two feet.
    touching = int(rng.integers(5))
    heights = np.sort(feet.dot(s.rot.T).dot(n))
    edges = np.concatenate(([heights[0] - 0.05], heights, [heights[-1] + 0.05]))
    com_n = -0.5 * (edges[touching] + edges[touching + 1])
    s.com = rng.normal(scale=0.3, size=3)
    s.com += (com_n - s.com.dot(n)) * n
    if touching == 0 and rng.random() < 0.3:
        # A still torso: the rotation angle stays below 1e-12.
        s.omega = np.zeros(3)
        seen["still"] += 1
    push_y = float(rng.choice([0.0, rng.uniform(-120.0, 120.0)]))
    if rng.random() < 0.03:
        getattr(s, str(rng.choice(["com", "vel", "omega", "rot"]))).flat[
            int(rng.integers(3))] = math.nan
        seen["nan"] += 1
    seen["touching"].add(touching)
    seen["push"].add(push_y != 0.0)
    motion = np.concatenate(((feet_end - env.com_offset_body)[None], feet_rate[None], feet_sub))
    return motion, feet_rate, feet_sub, feet_end, push_y


def _state_record(state, memory=0.0) -> np.ndarray:
    """A step record (see substeps.py) holding state, a (com, vel, omega,
    rot) tuple, and the contact memory memory: the touched flags and
    points."""
    record = np.zeros(RECORD)
    np.concatenate(state, axis=None, out=record[:UP])
    record[TOUCHED:] = memory
    return record


def _one_step(env, start, motion, substeps, push_y, stance):
    """One control step of the compiled torso update, a call of one row,
    from the record start: its record."""
    out = np.empty((1, RECORD))
    step_torso(env._episode.ctypes.data, start.ctypes.data, motion.ctypes.data, substeps,
               np.array([push_y]).ctypes.data, np.array(stance, dtype=np.int64).ctypes.data, 1,
               out.ctypes.data)
    return out[0]


def _record_state(record):
    """com, vel, omega and rot of a record."""
    return (record[COM:VEL], record[VEL:OMEGA], record[OMEGA:ROT], record[ROT:UP].reshape(3, 3))


@pytest.mark.parametrize("substeps", [1, 5])
def test_substep_kernel_equals_python_loop(substeps):
    env = SlopedTerrainEnv(sim=SimParams(substeps=substeps))
    seen = {"touching": set(), "push": set(), "still": 0, "nan": 0}

    def forms(rng):
        motion, feet_rate, feet_sub, _, push_y = _draw_step(env, rng, substeps, seen)
        com, vel, omega, rot = _parent_substeps(env, feet_rate, feet_sub, push_y)
        reference = (com, vel, omega, _orthonormalize(rot))
        s = env.state
        record = _one_step(env, _state_record((s.com, s.vel, s.omega, s.rot)), motion,
                           substeps, push_y, STANCE_PAIRS[0])
        return (tuple(map(_nan_canonical_bits, _record_state(record))),
                tuple(map(_nan_canonical_bits, reference)))

    _assert_forms_agree(f"the substep kernel at {substeps} substeps", forms)
    assert seen["touching"] == {0, 1, 2, 3, 4}
    assert seen["push"] == {False, True}
    assert seen["still"] > 50 and seen["nan"] > 20


@pytest.mark.parametrize("substeps", [1, 5])
def test_compiled_tail_equals_python_tail(substeps):
    # The whole compiled step against the Python loop and tail, from a
    # random contact memory; one draw in five is the reset's call, which
    # measures the state without moving it. The angles are the
    # environment's array calls on the record.
    env = SlopedTerrainEnv(sim=SimParams(substeps=substeps))
    seen = {"touching": set(), "push": set(), "still": 0, "nan": 0,
            "in_contact": set(), "remembered": 0, "reset_call": 0}

    def forms(rng):
        motion, feet_rate, feet_sub, feet_end, push_y = _draw_step(env, rng, substeps, seen)
        s = env.state
        touched = rng.random(4) < 0.5
        points = rng.normal(size=(4, 3))
        contact_world = [tuple(p) if t else None for p, t in zip(points.tolist(), touched)]
        stance = STANCE_PAIRS[int(rng.integers(2))]
        count = substeps
        if rng.random() < 0.2:
            count = 0
            seen["reset_call"] += 1
            state = (s.com.copy(), s.vel.copy(), s.omega.copy(), s.rot.copy())
        else:
            com, vel, omega, rot = _parent_substeps(env, feet_rate, feet_sub, push_y)
            state = (com, vel, omega, _orthonormalize(rot))
        in_contact, points_ref, clearance, height, unit, theta = _parent_tail(
            env, state[0], state[3], feet_end, stance, contact_world)
        reference = (*state, in_contact, points_ref, clearance, height, unit, theta)

        start = _state_record((s.com, s.vel, s.omega, s.rot),
                              np.concatenate((touched, points), axis=None))
        record = _one_step(env, start, motion, count, push_y, stance)
        theta_c = tuple(angle.item() for angle in env._angles(record[None]))
        clearance_c, height_c = record.item(CLEARANCE), record.item(HEIGHT)
        fast = (*_record_state(record), record[IN_CONTACT:TOUCHED] != 0.0,
                record[POINTS:].reshape(4, 3), clearance_c, height_c, record[UP:CLEARANCE],
                theta_c)
        seen["in_contact"].add(sum(in_contact))
        seen["remembered"] += sum(t and not c for t, c in zip(touched, in_contact))
        return (tuple(map(_nan_canonical_bits, fast)),
                tuple(map(_nan_canonical_bits, reference)))

    _assert_forms_agree(f"the compiled step's tail at {substeps} substeps", forms)
    assert seen["touching"] == {0, 1, 2, 3, 4} and seen["in_contact"] == {0, 1, 2, 3, 4}
    assert seen["push"] == {False, True}
    assert seen["still"] > 50 and seen["nan"] > 20
    assert seen["reset_call"] > 300 and seen["remembered"] > 300


@pytest.mark.parametrize("substeps", [1, 5])
def test_half_cycle_of_torso_steps_equals_single_steps(substeps):
    # The environment's batched call against one single-row call per step,
    # each from the record before it, with the push force and stance pair
    # the step by step environment gave that step: from a random state
    # and contact memory, any step of an episode that ends mid half cycle,
    # push windows opening and closing inside the run, and one draw in
    # eight a body inertia with a zero entry, whose world inertia numpy
    # finds singular at some rotations. A singular row's state is not
    # finite, and every row is compared.
    env = SlopedTerrainEnv(sim=SimParams(substeps=substeps, episode_len=230))
    per_half = env.steps_per_half
    seen = {"touching": set(), "push": set(), "still": 0, "nan": 0, "nan_rows": 0,
            "switch": 0, "cut": 0, "window_inside": 0, "singular_first": 0,
            "singular_later": 0}

    def forms(rng):
        motion, *_ = _draw_step(env, rng, substeps, seen)
        s = env.state
        first = int(rng.integers(env.sim.episode_len))
        count = min(per_half - first % per_half, env.sim.episode_len - first)
        motion = motion + rng.normal(scale=2e-3, size=(count, *motion.shape))
        start = int(rng.integers(max(first - 5, 0), first + count + 5))
        stop = start + int(rng.integers(1, 15))
        env.push = (PushEvent(start, stop, float(rng.uniform(-120.0, 120.0)))
                    if rng.random() < 0.7 else None)
        if rng.random() < 0.125:
            env._episode[-3] = 0.0  # the body inertia's x entry
        inertia = env._episode[-3:]
        touched = rng.random(4) < 0.5
        memory = np.concatenate((touched, rng.normal(size=(4, 3))), axis=None)

        s.step_index = first
        out = np.empty(count * (RECORD + 1))
        env._advance(motion.ctypes.data, substeps, first % len(env._stances), memory, out,
                     out.ctypes.data)
        block = out[:count * RECORD].reshape(count, RECORD)

        records = []
        record = _state_record((s.com, s.vel, s.omega, s.rot), memory)
        for k in range(count):
            push = env.push
            push_y = (push.force_y if push is not None and push.start_step <= first + k
                      < push.stop_step else 0.0)
            rot = record[ROT:UP].reshape(3, 3)
            singular = _inverse_or_singular((rot * inertia).dot(rot.T)) is None
            record = _one_step(env, record, motion[k], substeps, push_y,
                               STANCE_PAIRS[(first + k + 1) // per_half % 2])
            if singular:
                assert not np.isfinite(record[:UP]).all()
                seen["singular_later" if k else "singular_first"] += 1
            records.append(record)
        records = np.array(records)

        seen["switch"] += count == per_half - first % per_half
        seen["cut"] += count < per_half - first % per_half
        seen["window_inside"] += (env.push is not None
                                  and first < env.push.start_step < env.push.stop_step
                                  < first + count)
        seen["nan_rows"] += int(np.isnan(block).any(axis=1).sum())
        return (_nan_canonical_bits(block),), (_nan_canonical_bits(records),)

    _assert_forms_agree(f"the half cycle's torso steps at {substeps} substeps", forms)
    assert seen["touching"] == {0, 1, 2, 3, 4}
    assert seen["switch"] > 300 and seen["cut"] > 100 and seen["window_inside"] > 200
    assert seen["nan"] > 20 and seen["nan_rows"] > 500
    assert seen["singular_first"] > 10 and seen["singular_later"] > 10


@pytest.mark.parametrize("length", range(1, 21))
def test_array_angles_equal_scalar_angles(length):
    # The step takes a half cycle's roll, pitch and yaw in one numpy call
    # each, over a (length,) array; the goldens hold the bits of the calls
    # on each step's floats. Each position of each length takes values
    # from a pool with NaN, signed zeros, +-1 and values beyond them.
    specials = [math.nan, 0.0, -0.0, 1.0, -1.0, 1.0 + 2.0**-52, -1.0 - 2.0**-52, 5e-324]
    rng = np.random.default_rng(length)
    for _ in range(200):
        columns = rng.uniform(-1.0, 1.0, size=(5, length))
        for row in columns:
            picks = rng.random(length) < 0.3
            row[picks] = rng.choice(specials, size=int(picks.sum()))
        ux, uy, uz, r10, r00 = columns
        roll = np.arctan2(uy, uz).tolist()
        pitch = (-np.arcsin(np.minimum(np.maximum(ux, -1.0), 1.0))).tolist()
        yaw = np.arctan2(r10, r00).tolist()
        for k in range(length):
            scalar = (*angles_from_unit_normal(ux[k].item(), uy[k].item(), uz[k].item()),
                      float(np.arctan2(r10[k].item(), r00[k].item())))
            assert _nan_canonical_bits([roll[k], pitch[k], yaw[k]]).tolist() == (
                _nan_canonical_bits(scalar).tolist()), RERECORD.format(
                    what=f"array angles at position {k} of {length}")


@pytest.mark.parametrize("terrain", [TerrainPlane(), TerrainPlane(11, 90), TerrainPlane(7, 30)])
def test_reset_measures_the_spawn_pose_as_python_did(terrain):
    env = SlopedTerrainEnv()
    for seed in range(20):
        env.reset(terrain, seed=seed)
        s = env.state
        in_contact, points, _, height, _, theta = _parent_tail(
            env, s.com, s.rot, s.feet_body, STANCE_PAIRS[0], [None] * 4)
        assert (env._record[IN_CONTACT:TOUCHED] != 0.0).tolist() == in_contact
        assert np.array_equal(env._record[POINTS:].reshape(4, 3), np.array(points))
        row = env.log_row()
        assert row["height"] == height
        assert (row["torso_roll"], row["torso_pitch"], row["torso_yaw"]) == theta


def _former_reward(inputs, weights, max_step):
    """compute_reward as the step computed it on Python floats: the four
    kernels and the progress, summed in order, less the penalty."""
    r = gaussian_kernel(weights.roll_width, inputs.torso_roll - inputs.plane_roll)
    r += gaussian_kernel(weights.pitch_width, inputs.torso_pitch - inputs.plane_pitch)
    r += gaussian_kernel(weights.yaw_width, inputs.torso_yaw - weights.desired_yaw)
    r += gaussian_kernel(weights.height_width, inputs.height - weights.desired_height)
    r += weights.forward_weight * (inputs.forward_disp / max_step)
    if inputs.standing:
        r -= weights.standing_penalty
    return r


def _with_specials(rng, values, p, specials=(math.nan, math.inf, -math.inf, 0.0, -0.0)):
    """values with about one entry in 1/p replaced by a special value."""
    values = np.array(values, dtype=float)
    picks = rng.random(values.shape) < p
    values[picks] = rng.choice(specials, size=int(picks.sum()))
    return values


def test_serve_pass_equals_the_former_step():
    # The compiled pass that serves a half cycle's rows, and compute_reward
    # over the run, against what the step computed one row at a time: a
    # StandingMonitor fed each served com x, compute_reward's kernels on
    # Python floats, the fall test written as "not (within bounds)", and
    # the pending capture checked with all() on each row after an
    # exchange has set its pair. The draws are runs from a latch or from
    # mid half cycle (an edit), some cut by the episode's end, after 0 to
    # 150 served steps whose window the pass moves up by the rows the last
    # run served, with NaN, infinite and signed-zero angles, heights,
    # clearances and com x, and NaN contact flags, which all() counts as
    # touching.
    envs = [SlopedTerrainEnv(sim=SimParams(episode_len=length)) for length in (400, 230, 57)]
    monitor_defaults = StandingMonitor()
    window = monitor_defaults.window
    seen = Counter()

    def forms(rng):
        env = envs[int(rng.integers(len(envs)))]
        per_half, length = env.steps_per_half, env.sim.episode_len
        fall_clearance = env.sim.fall_height_frac * env.gait.desired_height
        fall_angle = env.sim.fall_angle
        first = int(rng.integers(length))
        if rng.random() < 0.7:
            first -= first % per_half
        count = min(per_half - first % per_half, length - first)

        # The com x of the served steps so far (x0 the spawn's), then the
        # run's rows: steps of a millimetre, some of several centimetres.
        pushes = int(rng.integers(150))
        moves = rng.normal(scale=1e-3, size=pushes + count)
        moves[rng.random(moves.shape) < 0.03] = rng.choice((-0.05, 0.05))
        xs = _with_specials(rng, np.cumsum(np.concatenate(([0.0], moves))), 0.003)
        monitor = StandingMonitor()
        monitor.reset(xs[0].item())
        for x in xs[1:pushes + 1].tolist():
            monitor.push(x)
        shift = int(rng.integers(1, per_half + 1))
        positions = rng.normal(size=window + per_half)
        positions[shift:shift + window] = [xs[p] if p >= 0 else math.nan
                                           for p in range(pushes + 1 - window, pushes + 1)]

        block = rng.normal(size=(count, RECORD))
        block[:, COM] = xs[pushes + 1:]
        clearance = fall_clearance + rng.normal(scale=0.01, size=count)
        clearance[rng.random(count) < 0.05] = fall_clearance
        block[:, CLEARANCE] = _with_specials(rng, clearance, 0.02)
        block[:, HEIGHT] = _with_specials(
            rng, env.reward_weights.desired_height + rng.normal(scale=0.03, size=count), 0.03)
        block[:, IN_CONTACT:TOUCHED] = rng.choice((0.0, -0.0, 1.0, 1.0, 1.0, math.nan),
                                                  size=(count, 4))
        angles = rng.normal(scale=0.6 * fall_angle, size=(3, count))
        angles[rng.random((3, count)) < 0.03] = fall_angle * rng.choice((-1.0, 1.0))
        roll, pitch, yaw = _with_specials(rng, angles, 0.02)
        start = rng.normal(size=RECORD)
        start[COM] = xs[pushes] + (0.0 if rng.random() < 0.8 else rng.normal(scale=0.05))
        pending = (STANCE_PAIRS[int(rng.integers(2))],) if rng.random() < 0.4 else ()
        stances = env._stances[first % len(env._stances):][:count]
        weights = env.reward_weights if rng.random() < 0.5 else RewardWeights(
            *rng.uniform(1.0, 1000.0, size=4), *rng.uniform(0.1, 5.0, size=2),
            *rng.normal(scale=0.2, size=2))
        max_step = env.max_step_per_control * rng.uniform(0.5, 2.0)
        plane_roll, plane_pitch = rng.normal(scale=0.2, size=2).tolist()

        dx = np.empty(count)
        flags = np.empty((SERVE_FLAGS, count), dtype=bool)
        serve_half_cycle(env._serve.ctypes.data, start.ctypes.data, block.ctypes.data,
                         roll.ctypes.data, pitch.ctypes.data, stances.ctypes.data, first, count,
                         shift, *(pending[0] if pending else (-1, -1)), positions.ctypes.data,
                         dx.ctypes.data, flags.ctypes.data)
        rewards = compute_reward(RewardInputs(roll, pitch, yaw, plane_roll, plane_pitch,
                                              block[:, HEIGHT], dx, flags[STANDING]),
                                 weights, max_step)

        reference, one_step = [], []
        before, incoming = start.item(COM), pending[0] if pending else ()
        for k, record in enumerate(block.tolist()):
            x, after = record[COM], first + k + 1
            forward, before = x - before, x
            exchange = after % per_half == 0
            if exchange:
                incoming = STANCE_PAIRS[after // per_half % 2]
            capture = bool(incoming) and all(record[IN_CONTACT + i] for i in incoming)
            if capture:
                incoming = ()
            standing = monitor.push(x)
            r, p, y = roll[k].item(), pitch[k].item(), yaw[k].item()
            inputs = RewardInputs(r, p, y, plane_roll, plane_pitch, record[HEIGHT], forward,
                                  standing)
            fall = not (record[CLEARANCE] >= fall_clearance and abs(r) <= fall_angle
                        and abs(p) <= fall_angle)
            reference.append((_former_reward(inputs, weights, max_step), forward, standing,
                              fall, fall or after >= length, exchange, capture))
            one_step.append(compute_reward(inputs, weights, max_step))
            seen["capture_on_exchange"] += capture and exchange
            seen["standing"] += standing
            seen["fall"] += fall
        seen["cut"] += count < per_half - first % per_half
        seen["edited"] += first % per_half != 0
        seen["nan_contact"] += bool(np.isnan(block[:, IN_CONTACT:TOUCHED]).any())
        seen["nan_reward"] += bool(np.isnan(rewards).any())
        seen["done"] += reference[-1][4]
        former, forward, *reference_flags = zip(*reference)
        return ((_nan_canonical_bits(rewards), _nan_canonical_bits(one_step),
                 _nan_canonical_bits(dx), flags),
                (_nan_canonical_bits(former), _nan_canonical_bits(former),
                 _nan_canonical_bits(forward), np.array(reference_flags, dtype=bool)))

    rng = np.random.default_rng(0)
    for draw in range(SAMPLES):
        fast, reference = forms(rng)
        assert all(np.array_equal(f, r) for f, r in zip(fast, reference, strict=True)), draw
    assert min(seen[k] for k in ("capture_on_exchange", "cut", "edited")) > 20, seen
    assert min(seen[k] for k in ("nan_contact", "nan_reward", "done")) > 100, seen
    assert seen["standing"] > 2000 and seen["fall"] > 2000, seen


def test_singular_inertia_is_a_fall():
    # A zero rotation makes the world inertia zero: numpy's inv raises,
    # and the step's inverse is not finite, so the step serves a
    # non-finite state and ends the episode as a fall.
    env = SlopedTerrainEnv()
    env.reset(TerrainPlane(7, 30), seed=3)
    env.state.rot = np.zeros((3, 3))
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.inv(env.state.rot * env.inertia_body)
    _, reward, done, info = env.step((LegAction(0.0, 0.0, 0.0, 0.0, 0.0),) * 4)
    assert done and info["fall"] and not math.isfinite(reward)
    assert not np.isfinite(env.state.omega).all()
    assert env.state.step_index == 1


def test_torso_angles_stay_numpy_calls():
    # On hosts whose numpy vectorizes arctan2 (SVML), np.arctan2 and
    # math.atan2 round some arguments differently. The goldens hold
    # numpy's bits, so the step's roll must stay np.arctan2 of the unit
    # up-axis. Search tilted torsos for a step where the two differ.
    env = SlopedTerrainEnv()
    rng = np.random.default_rng(5)
    zero = (LegAction(0.0, 0.0, 0.0, 0.0, 0.0),) * 4
    differing = 0
    for trial in range(3000):
        env.reset(TerrainPlane(), seed=trial)
        roll, pitch, yaw = rng.uniform(-0.6, 0.6, size=3)
        env.state.rot = rot_z(yaw) @ rot_y(pitch) @ rot_x(roll)
        env.step(zero)
        rot = env.state.rot
        up = rot[:, 2].copy()
        ux, uy, uz = (v / math.sqrt(up.dot(up)) for v in up.tolist())
        roll = env.log_row()["torso_roll"]
        assert roll == float(np.arctan2(uy, uz))
        if math.atan2(uy, uz) != roll:
            differing += 1
            if differing == 3:
                return
    if differing == 0:
        pytest.skip("np.arctan2 equals math.atan2 on every drawn up-axis on this host")


def _plan_phases(env, count):
    """(phase, latched action) of every target of a plan of count steps,
    step by step and leg by leg in LEG_ORDER, as the kernel visits them."""
    first = env.state.step_index + 1
    for k in range(count):
        for leg, action in zip(LEG_ORDER, env.latched):
            yield gaitgen.trot_phase((first + k) * env.sim.dt, env.gait.cycle_period, leg), action


def _parent_plan(env):
    """The reference for substeps.c's plan_half_cycle: the half-cycle plan
    written with the kinematics' float calls, one per step and leg, and
    the joints' lag as a loop over the steps. Returns the joints, the
    body-frame feet and the motion block. A target where IK raises
    Unreachable has NaN joint targets, as in the kernel."""
    s, sim, gait, geometry = env.state, env.sim, env.gait, env.geometry
    count = min(env.steps_per_half - s.step_index % env.steps_per_half,
                sim.episode_len - s.step_index)
    if not np.isfinite(env.latched).all():
        targets = np.full((count, 4, 3), math.nan)
    else:
        targets = []
        for tau, action in _plan_phases(env, count):
            foot = gaitgen.checked_foot_target(tau, action, gait, geometry)
            try:
                targets.append(legkin.inverse_kinematics(foot, geometry))
            except Unreachable:
                targets.append((math.nan,) * 3)
        targets = np.array(targets).reshape(count, 4, 3)
    joints = np.empty_like(targets)
    q, alpha = s.joints, 1.0 - math.exp(-sim.dt / sim.track_time_const)
    for k, target in enumerate(targets):
        q = joints[k] = q + alpha * (target - q)
    hips = np.asarray(geometry.hip_positions_body, dtype=float)
    feet = hips + np.array([[legkin.forward_kinematics(angles, geometry)
                             for angles in row.tolist()] for row in joints])
    before = np.concatenate((s.feet_body[None], feet[:-1]))
    move = feet - before
    off = env.com_offset_body
    fracs = np.array([(j + 1) / sim.substeps for j in range(sim.substeps)])[:, None, None]
    substeps = (before - off)[:, None] + fracs * move[:, None]
    return joints, feet, np.concatenate(
        ((feet - off)[:, None], (move / sim.dt)[:, None], substeps), axis=1)


def _draw_plan(env, rng, seen):
    """Reset env on a random terrain, then draw the state and latched
    actions of a plan: a start row anywhere in the episode, joints and
    feet near the stance, and actions inside the scaled action box, well
    outside it, near the hip (inside the offset cylinder), huge or
    non-finite."""
    env.reset(TerrainPlane(rng.choice([0, 5, 11]), rng.uniform(0.0, 90.0)),
              seed=int(rng.integers(1000)))
    s = env.state
    end = rng.random() < 0.2
    s.step_index = int(rng.integers(env.sim.episode_len - env.steps_per_half + 1,
                                    env.sim.episode_len) if end
                       else rng.integers(env.sim.episode_len))
    s.joints = s.joints + rng.normal(scale=0.2, size=(4, 3))
    s.feet_body = s.feet_body + rng.normal(scale=0.02, size=(4, 3))
    kind = str(rng.choice(["box", "outside", "cylinder", "huge", "nonfinite"],
                          p=[0.4, 0.35, 0.1, 0.1, 0.05]))
    if kind == "box":
        action = scale_clip_action(rng.uniform(-1.0, 1.0, size=20))
    else:
        raw = rng.uniform(-6.0, 6.0, size=20)
        flat = DEFAULT_SCALING._mid + DEFAULT_SCALING._half * raw
        if kind == "cylinder":
            # Feet near the abduction axis: lifted by the stance height,
            # with little lateral shift and step.
            flat[3::5] = rng.uniform(-0.03, 0.03, size=4)
            flat[4::5] = env.gait.desired_height + rng.uniform(-0.08, 0.03, size=4)
            flat[0::5] *= 0.1
        elif kind != "outside":
            entry = int(rng.integers(20))
            flat[entry] = (rng.choice([1e300, -1e300, 1e160]) if kind == "huge"
                           else rng.choice([math.nan, math.inf, -math.inf]))
        action = tuple(LegAction(*flat[i:i + 5].tolist()) for i in range(0, 20, 5))
    env.latched = action
    seen["kind"].add(kind)
    seen["end"] += end
    return s.step_index


def _plan_bits(plan):
    """The arrays of plan() as NaN-canonical bits."""
    with np.errstate(over="ignore", invalid="ignore"):
        return tuple(map(_nan_canonical_bits, plan()))


NAN_BITS = _nan_canonical_bits(math.nan)


@pytest.mark.parametrize("geometry", [LegGeometry(), LegGeometry(abduction_offset=0.02)],
                         ids=["no offset", "offset"])
def test_compiled_plan_equals_float_plan(geometry):
    # Compares the kernel's libm atan2 and acos with math's on every
    # target.
    env = SlopedTerrainEnv(geometry=geometry)
    seen = {"kind": set(), "end": 0, "unreachable": 0, "clamped": 0, "cylinder": 0}

    def forms(rng):
        _draw_plan(env, rng, seen)
        reference = _plan_bits(lambda: _parent_plan(env))
        fast = _plan_bits(env._plan_half_cycle)
        finite = np.isfinite(env.latched).all()
        rejected = finite and (reference[0] == NAN_BITS).any()
        seen["unreachable"] += rejected
        if finite and not rejected:
            for tau, action in _plan_phases(env, len(fast[0])):
                foot = gaitgen.foot_target(tau, action, env.gait)
                seen["clamped"] += not legkin.in_workspace(foot, geometry)
                seen["cylinder"] += (foot.y * foot.y + foot.z * foot.z
                                     < geometry.abduction_offset ** 2)
        return fast, reference

    _assert_forms_agree("the compiled half-cycle plan", forms)
    assert seen["kind"] == {"box", "outside", "cylinder", "huge", "nonfinite"}
    assert seen["end"] > 200 and seen["unreachable"] > 50 and seen["clamped"] > 10000
    if geometry.abduction_offset > 0.0:
        assert seen["cylinder"] > 100


# Workspaces on which the projection's two boundary rules show. On the
# default polygon no planar point lies exactly on an edge's -1e-12
# tolerance: the edge test's differences and products round on grids that
# miss -1e-12, so whether the test includes the tolerance cannot show
# there. An edge that starts on the leg's axis (x = 0) with a power-of-two
# direction holds such points: the diamond's two such edges in one vertex
# order, its other two in the other. The high polygon reaches above the
# hip, so a target inside the offset cylinder keeps its stand-in's planar
# point, whose z sign then shows.
DIAMOND = ((0.0, -0.125), (0.125, -0.25), (0.0, -0.3125), (-0.125, -0.25))
HIGH_POLYGON = ((-0.1, 0.01), (0.1, 0.01), (0.11, -0.28), (-0.11, -0.28))


def _ulps_around(x: float, n: int):
    """x and the n floats on each side of it, nearest first."""
    yield x
    up = down = x
    for _ in range(n):
        up, down = math.nextafter(up, math.inf), math.nextafter(down, -math.inf)
        yield up
        yield down


@pytest.mark.parametrize("polygon", [DIAMOND, DIAMOND[::-1]], ids=["ccw", "cw"])
def test_compiled_plan_equals_float_plan_on_edge_tolerance(polygon):
    # Stance targets whose planar point lies exactly at -1e-12 from an
    # edge, and a few floats to either side: a zero stride and lateral
    # shift put the stance foot at (shift_x, 0, shift_z - height), whose
    # planar point is (shift_x, shift_z - height) exactly.
    geometry = LegGeometry(workspace_polygon=polygon)
    env = SlopedTerrainEnv(geometry=geometry)
    height, tol = env.gait.desired_height, 1e-12
    on_band = set()
    for index, (x1, z1, ex, ez) in enumerate(geometry._edges):
        if x1 != 0.0:
            continue
        shift_z = next(c for c in _ulps_around(z1 + height, 8) if c + -height == z1)
        band = [c for c in _ulps_around(tol / ez, 8) if ex * (z1 - z1) - ez * (c - x1) == -tol]
        assert band and all(legkin._point_in_polygon(c, z1, geometry._edges) for c in band)
        on_band.add(index)
        for shift_x in _ulps_around(band[0], 3):
            for row in (0, 17):
                env.reset(TerrainPlane(), seed=0)
                env.state.step_index = row
                env.latched = (LegAction(0.0, 0.0, shift_x, 0.0, shift_z),) * 4
                fast = _plan_bits(env._plan_half_cycle)
                reference = _plan_bits(lambda: _parent_plan(env))
                assert not (fast[0] == NAN_BITS).any()
                assert all(map(np.array_equal, fast, reference)), (
                    RERECORD.format(what=f"the plan at edge {index}'s tolerance"))
    assert len(on_band) == 2


def test_compiled_plan_equals_float_plan_inside_offset_cylinder():
    # Stance targets near the hip, most of them inside the offset cylinder
    # and above or below its axis, on legs whose polygon holds their
    # stand-ins' planar points.
    geometry = LegGeometry(abduction_offset=0.02, workspace_polygon=HIGH_POLYGON)
    env = SlopedTerrainEnv(geometry=geometry)
    seen = {"above": 0, "below": 0, "unreachable": 0}

    def forms(rng):
        env.reset(TerrainPlane(), seed=int(rng.integers(1000)))
        env.state.step_index = int(rng.integers(env.sim.episode_len))
        env.latched = tuple(
            LegAction(rng.uniform(-0.01, 0.01), rng.uniform(-0.3, 0.3),
                      rng.choice([-1.0, 1.0]) * rng.uniform(0.04, 0.09), rng.uniform(-0.01, 0.01),
                      env.gait.desired_height + rng.uniform(-0.015, 0.015))
            for _ in range(4))
        reference = _plan_bits(lambda: _parent_plan(env))
        count = min(env.steps_per_half - env.state.step_index % env.steps_per_half,
                    env.sim.episode_len - env.state.step_index)
        for tau, action in _plan_phases(env, count):
            foot = gaitgen.foot_target(tau, action, env.gait)
            if foot.y * foot.y + foot.z * foot.z < geometry.abduction_offset ** 2:
                seen["above" if foot.z > 0.0 else "below"] += 1
        seen["unreachable"] += bool((reference[0] == NAN_BITS).any())
        return _plan_bits(env._plan_half_cycle), reference

    _assert_forms_agree("the compiled plan inside the offset cylinder", forms)
    assert seen["above"] > 20000 and seen["below"] > 20000 and seen["unreachable"] < 100


@pytest.mark.parametrize("latch_step", [0, 40])
def test_target_rejected_at_a_later_row_is_a_fall_there(latch_step):
    # On legs whose polygon reaches above the hip, a stance target a foot
    # clearance below the hip is reachable, and the swing lifts it into
    # the leg's unreachable core, where IK rejects it some rows into the
    # half cycle. The steps before that row keep the bits of an episode
    # that ends just before it, and that row's step is the fall.
    geometry = LegGeometry(abduction_offset=0.02, workspace_polygon=HIGH_POLYGON)
    no_push = RandomizationConfig(push_enabled=False)
    env = SlopedTerrainEnv(geometry=geometry)
    gait = env.gait
    lifted = (ZERO_ACTION._replace(shift_z=gait.desired_height - gait.foot_clearance),) * 4

    def rejected(tau, action):
        try:
            legkin.inverse_kinematics(gaitgen.checked_foot_target(tau, action, gait, geometry),
                                      geometry)
        except Unreachable:
            return True
        return False

    env.reset(TerrainPlane(), no_push, seed=1)
    env.state.step_index = latch_step
    env.latched = lifted
    row = next(i // 4 for i, (tau, action) in enumerate(_plan_phases(env, env.steps_per_half))
               if rejected(tau, action))
    assert row > 0

    def served(episode_len):
        env = SlopedTerrainEnv(geometry=geometry, sim=SimParams(episode_len=episode_len))
        env.reset(TerrainPlane(), no_push, seed=1)
        steps = []
        while True:
            _, reward, done, info = env.step(lifted if env.state.step_index >= latch_step
                                             else (ZERO_ACTION,) * 4)
            s = env.state
            state = np.concatenate((s.com, s.vel, s.omega, s.rot, s.joints, s.feet_body),
                                   axis=None)
            steps.append((reward, info["fall"], state))
            if done:
                return steps

    cut = served(latch_step + row)
    steps = served(env.sim.episode_len)
    assert len(steps) == latch_step + row + 1
    for (reward, fall, state), (reward_cut, fall_cut, state_cut) in zip(steps, cut):
        assert not fall and not fall_cut and np.isfinite(state).all()
        assert reward.hex() == reward_cut.hex()
        assert np.array_equal(_nan_canonical_bits(state), _nan_canonical_bits(state_cut))
    reward, fall, state = steps[-1]
    assert fall and not math.isfinite(reward) and not np.isfinite(state).all()



# np.allclose(rot @ rot.T, np.eye(3), atol=1e-6) as an entrywise bound,
# atol + rtol * |eye| with numpy's default rtol.
_ORTHONORMAL_BOUND = 1e-6 + 1e-5 * np.eye(3)


def _parent_snapshot(rot) -> None:
    """ContactSnapshot's checks of its rotation before substeps.c made
    them: numpy's rot @ rot.T against the bound, then the sign of det(rot)
    as the triple product of its rows on floats."""
    rot = np.asarray(rot, dtype=float)
    if not (np.abs(rot @ rot.T - np.eye(3)) <= _ORTHONORMAL_BOUND).all():
        raise ValueError("torso_rotation must be orthonormal")
    (a0, a1, a2), (b0, b1, b2), (c0, c1, c2) = rot.tolist()
    if a0 * (b1 * c2 - b2 * c1) + a1 * (b2 * c0 - b0 * c2) + a2 * (b0 * c1 - b1 * c0) < 0.0:
        raise ValueError("torso_rotation must be right-handed")


def _parent_normal(feet, rot) -> np.ndarray:
    """The cross product of the diagonals FR - BL and FL - BR of the feet
    rotated by numpy's matmul, as np.cross computes it on floats."""
    rot = np.asarray(rot, dtype=float)
    p_fl, p_fr, p_bl, p_br = (rot @ np.asarray(p, dtype=float) for p in feet)
    (a0, a1, a2), (b0, b1, b2) = (p_fr - p_bl).tolist(), (p_fl - p_br).tolist()
    return np.array((a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0))


def _parent_plane(feet, rot) -> tuple:
    """The snapshot's checks and plane_from_contacts before substeps.c
    fitted the plane: the normal's norm as sqrt(n.dot(n)), the division
    and the flip as numpy array operations. Returns the feet and the
    plane."""
    _parent_snapshot(rot)
    n = _parent_normal(feet, rot)
    norm = math.sqrt(n.dot(n))
    if norm < 1e-9:
        raise DegenerateContacts("diagonal contact vectors are parallel")
    n = n / norm
    if n[2] < 0.0:
        n = -n
    roll, pitch = angles_from_normal(n)
    return feet, PlaneEstimate(normal=tuple(float(v) for v in n), roll=roll, pitch=pitch)


def _parent_capture(record, offset) -> list:
    """The body-frame feet of the environment's contact capture from a
    step's record before substeps.c took it: each remembered world point
    minus the body origin, rotated by numpy's matmul."""
    rot = record[ROT:UP].reshape(3, 3)
    body_origin = record[COM:VEL] - rot @ offset
    return [rot.T @ (point - body_origin) for point in record[POINTS:].reshape(4, 3)]


def _outcome(fit) -> tuple:
    """The bits of the feet and the plane fit() returns, or the type and
    message of the ValueError it raises."""
    try:
        feet, plane = fit()
    except ValueError as error:
        return type(error).__name__, str(error)
    assert type(plane.normal) is tuple and all(type(v) is float for v in plane.normal)
    return (_nan_canonical_bits(np.concatenate(feet)).tolist(),
            _nan_canonical_bits((*plane.normal, plane.roll, plane.pitch)).tolist())


def _in_layout(rng, rot, feet) -> tuple:
    """rot and the feet with their values, each in a drawn memory layout:
    C or Fortran order, a strided or reversed view, or nested lists."""
    def vector(p):
        kind = rng.integers(4)
        if kind == 0:
            wide = np.zeros((3, 2))
            wide[:, 1] = p
            return wide[:, 1]
        if kind == 1:
            return np.array(p[::-1])[::-1]
        return p.tolist() if kind == 2 else np.array(p)

    kind = rng.integers(5)
    if kind == 0:
        rot = np.asfortranarray(rot)
    elif kind == 1:
        wide = np.zeros((6, 6))
        wide[::2, ::2] = rot
        rot = wide[::2, ::2]
    elif kind == 2:
        rot = np.array(rot[:, ::-1])[:, ::-1]
    elif kind == 3:
        rot = rot.tolist()
    return [vector(p) for p in feet], rot


def _draw_rotation(rng, kind) -> np.ndarray:
    """A rotation a record may hold, by kind: 0 drifted as the substeps
    leave it; 1 and 2 with one entry of rot @ rot.T at the orthonormality
    bound, off or on the diagonal, a relative 1e-3 to 1e-12 inside or
    outside it; 3 left-handed; 4 with NaN, infinite or zero entries; 5 an
    axis rotation with signed zeros; 6 any matrix; 7 the identity with
    signed zeros, which rotates exactly."""
    q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
    q[0] *= np.sign(np.linalg.det(q))
    if kind == 0:
        return q + rng.normal(scale=1e-8, size=(3, 3))
    if kind in (1, 2):
        # (I + S) q for a symmetric S: rot @ rot.T is (I + S)^2 up to
        # rounding, whose (i, j) entry is 2 s off the diagonal and
        # 2 s + s^2 on it.
        i, j = rng.choice(3, size=2, replace=False) if kind == 1 else (rng.integers(3),) * 2
        scale = rng.choice((1e-3, 1e-7, 1e-10, 1e-12))
        deviation = _ORTHONORMAL_BOUND[i, j] * (1.0 + scale * rng.uniform(-1.0, 1.0))
        s = deviation / 2.0 * rng.choice((-1.0, 1.0)) if i != j else (
            math.sqrt(1.0 + deviation) - 1.0)
        skew = np.eye(3)
        skew[i, j] += s
        if i != j:
            skew[j, i] += s
        return skew @ q
    if kind == 3:
        q[rng.integers(3)] *= -1.0
        return q + rng.normal(scale=1e-8, size=(3, 3))
    if kind == 4:
        return _with_specials(rng, q, 0.15)
    if kind == 5:
        rot = (rot_x, rot_y, rot_z)[rng.integers(3)](
            rng.choice((0.0, 0.5 * math.pi, rng.uniform(-math.pi, math.pi))))
        zeros = rot == 0.0
        rot[zeros] = rng.choice((0.0, -0.0), size=int(zeros.sum()))
        return rot
    if kind == 7:
        rot = np.eye(3)
        rot[rot == 0.0] = rng.choice((0.0, -0.0), size=6)
        return rot
    return rng.normal(size=(3, 3))


def _draw_points(rng, kind, com, rot) -> np.ndarray:
    """The four remembered world contact points of a record, by kind: 0
    feet under the torso; 1 at random; 2 with parallel diagonals FR - BL
    and FL - BR; 3 a step off parallel that puts the norm of their cross
    product within 10% of the 1e-9 threshold; 4 with NaN, infinite or
    zero entries; 5 on one plane y = c, whose normal is horizontal, so
    that with an exact rotation its z is zero and the flip does not
    apply."""
    if kind == 0:
        stance = np.array([(0.2, 0.1, -0.24), (0.2, -0.1, -0.24), (-0.2, 0.1, -0.24),
                           (-0.2, -0.1, -0.24)])
        return com + (stance + rng.normal(scale=0.02, size=(4, 3))) @ np.nan_to_num(rot).T
    points = rng.normal(scale=0.3, size=(4, 3))
    if kind in (2, 3):
        p_fl, _, p_bl, p_br = points
        d = p_fl - p_br
        points[1] = p_bl + rng.uniform(-2.0, 2.0) * d
        if kind == 3:
            off = np.cross(d, rng.normal(size=3))
            size = 1e-9 / np.linalg.norm(d) * (1.0 + rng.uniform(-0.1, 0.1))
            points[1] += off / np.linalg.norm(off) * size
    if kind == 5:
        points[:, 1] = points[0, 1]
    return _with_specials(rng, points, 0.1) if kind == 4 else points


def test_compiled_capture_equals_the_former_numpy_capture():
    # substeps.capture_plane takes the contact capture of a step's record
    # and fits its plane, and CaptureBuffer.snapshot and plane_from_contacts
    # hand out what it found: the same feet, plane and errors, bit for
    # bit, as the environment's former numpy capture, snapshot checks and
    # fit. A snapshot built from the record's points, its rotation and
    # feet in other memory layouts, by whose strides numpy's matmul
    # picks its BLAS call, fits the plane the former fit gives them.
    rng = np.random.default_rng(30)
    seen = Counter()
    record, captured = np.zeros(RECORD), CaptureBuffer()
    for _ in range(SAMPLES):
        rotation, points = rng.integers(8), rng.integers(6)
        rot = _draw_rotation(rng, rotation)
        com = _with_specials(rng, rng.normal(scale=0.3, size=3), 0.03)
        offset = (np.array((rng.normal(scale=0.02), 0.0, 0.0)) if rng.random() < 0.7
                  else rng.normal(scale=0.05, size=3))
        record[ROT:UP] = rot.ravel()
        record[COM:VEL] = com
        record[POINTS:] = _draw_points(rng, points, com, rot).ravel()

        def taken():
            status = capture_plane(record.ctypes.data, offset.ctypes.data, captured.address)
            snapshot = captured.snapshot(status)
            feet = (snapshot.p_fl, snapshot.p_fr, snapshot.p_bl, snapshot.p_br)
            rot_taken = snapshot.torso_rotation
            assert not any(a.flags.writeable for a in (*feet, rot_taken))
            assert np.array_equal(_nan_canonical_bits(rot_taken), _nan_canonical_bits(rot))
            return feet, plane_from_contacts(snapshot)

        with np.errstate(all="ignore"):
            feet = _parent_capture(record, offset)
            reference = _outcome(lambda: _parent_plane(feet, rot))
        assert _outcome(taken) == reference, RERECORD.format(what="the compiled capture")

        seen[rotation, points, reference[0] if isinstance(reference[0], str) else "fit"] += 1
        with np.errstate(all="ignore"):
            normal = _parent_normal(feet, rot)
        seen["flipped" if normal[2] < 0.0 else "upward"] += reference[0] not in (
            "ValueError", "DegenerateContacts") and np.isfinite(normal).all()

        built_feet, built_rot = _in_layout(rng, rot, record[POINTS:].reshape(4, 3))
        with np.errstate(all="ignore"):
            expected = _outcome(lambda: _parent_plane(built_feet, built_rot))
        assert _outcome(
            lambda: (built_feet, plane_from_contacts(ContactSnapshot(*built_feet, built_rot)))
        ) == expected, RERECORD.format(what="the compiled fit of a built snapshot")

    def count(rotations=range(8), points=range(6), outcome="fit"):
        return sum(seen[r, p, outcome] for r in rotations for p in points)

    assert count(points=(2,), outcome="DegenerateContacts") > 50
    assert count(points=(3,), outcome="DegenerateContacts") > 10 and count(points=(3,)) > 10
    assert seen["flipped"] > 150 and seen["upward"] > 150
    assert count(rotations=(1, 2)) > 50 and count(rotations=(1, 2), outcome="ValueError") > 50
    assert count(rotations=(3,), outcome="ValueError") > 100
    assert count(rotations=(4,)) > 20 and count(rotations=(4,), outcome="ValueError") > 50
    assert count(rotations=(5,)) > 100 and count(points=(4,)) > 100
    assert count(rotations=(7,), points=(5,)) > 10
