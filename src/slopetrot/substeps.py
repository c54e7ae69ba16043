"""The compiled torso steps of each half cycle, the compiled plan of each
half cycle's leg kinematics, and the compiled pass that serves each half
cycle's rows.

substeps.c's step_torso runs the torso through a run of control steps in
one call: per step, its contact substeps, the inverse of the world
inertia they use, the rotation's re-orthonormalization, the feet's
contact memory and the torso's height, each step starting from the
record the one before it wrote. Its matrix products and its inverse are
written out in the rounding order of the OpenBLAS kernels that
ndarray.dot and np.linalg.inv call, and its scalar code rounds as
Python's does, so it computes the bits of the same code written in numpy
and Python floats, one step at a time. The torso's angles stay numpy
calls in the environment: numpy's arctan2 and arcsin may round
differently from libm's.

Its plan_half_cycle computes, when an action latches, every step's foot
targets, workspace projection, IK, joint lag, FK and feet motion up to
the end of the half cycle, with libm's atan2, acos, sin, cos, sqrt and
fmod, which are math's: the bits of legkin's and gaitgen's float calls
on each leg and step.

Its serve_half_cycle computes, after the torso rows and their angles,
what each step of the half cycle serves besides its record: the forward
displacement, the standing, fall and done flags, the stance exchange and
the completed contact capture. Its rewards is reward.compute_reward's
loop, with libm's exp, which is math's (numpy's exp is not).

None of them returns anything or raises. What they cannot compute comes out
NaN: a singular world inertia makes that step's state non-finite, and a
foot target that legkin's IK rejects (where it raises Unreachable) gives
NaN joints for that leg from that step on, and so a NaN state. The
environment counts a non-finite state as a fall.

The first import compiles substeps.c with the C compiler Python was built
with into this package's __pycache__/, under a name that hashes the
source and the compile command, and removes the libraries of earlier
sources there; later imports load that file. Without a compiler the
import raises ImportError naming the cause.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import sysconfig
import tempfile
from pathlib import Path

SOURCE = Path(__file__).with_name("substeps.c")
# No FMA contraction, so each product and sum rounds on its own as in
# Python; sin and cos stay two libm calls, as math's are, not one sincos.
FLAGS = ("-O2", "-fPIC", "-shared", "-ffp-contract=off",
         "-fno-builtin-sin", "-fno-builtin-cos")


def build(source: Path, out_dir: Path) -> Path:
    """The compiled library of source in out_dir, compiled now unless a
    library of the same source and compile command is already there. A
    new library replaces the others of source's name in out_dir; a
    process that has one loaded keeps it."""
    cc = sysconfig.get_config_var("CC")
    if not cc:
        raise ImportError(f"{source.name} needs a C compiler, and Python names none (CC)")
    command = cc.split() + list(FLAGS)
    key = hashlib.sha256(source.read_bytes() + "\0".join(command).encode()).hexdigest()
    target = out_dir / f"{source.stem}-{key[:16]}{sysconfig.get_config_var('SHLIB_SUFFIX')}"
    if target.exists():
        return target
    # Imported here: only an empty cache compiles, and importing
    # subprocess would add to every start-up.
    import subprocess

    out_dir.mkdir(parents=True, exist_ok=True)
    fd, partial = tempfile.mkstemp(suffix=target.suffix, dir=out_dir)
    os.close(fd)
    try:
        result = subprocess.run(command + ["-o", partial, str(source), "-lm"],
                                capture_output=True, text=True)
        if result.returncode != 0:
            raise ImportError(f"compiling {source.name} failed:\n{result.stderr}")
        os.replace(partial, target)
    except OSError as err:
        raise ImportError(f"compiling {source.name} with {command[0]} failed: {err}") from err
    finally:
        if os.path.exists(partial):
            os.unlink(partial)
    for stale in out_dir.glob(f"{source.stem}-*{target.suffix}"):
        if stale != target:
            stale.unlink(missing_ok=True)
    return target


def _load():
    """The kernel's step_torso, plan_half_cycle, serve_half_cycle and
    rewards."""
    kernel = ctypes.CDLL(str(build(SOURCE, SOURCE.parent / "__pycache__")))
    address, count = ctypes.c_void_p, ctypes.c_long
    functions = []
    for name, argtypes in (
        ("step_torso", [address] * 3 + [count] + [address] * 2 + [count, address]),
        ("plan_half_cycle", [address] * 2 + [count] * 2 + [address]),
        ("serve_half_cycle", [address] * 6 + [count] * 5 + [address] * 3),
        ("rewards", [address] * 2 + [count, address]),
    ):
        function = getattr(kernel, name)
        function.argtypes, function.restype = argtypes, None
        functions.append(function)
    return functions


# All take the addresses of C-ordered arrays, float64 unless named, see
# substeps.c for their layouts. step_torso(episode, start, motion,
# substeps, pushes, stances, rows, out) runs rows control steps from the
# record start, with stances an int64 (rows, 2) array, and writes one
# record per step to out. plan_half_cycle(kinematics, plan, first, count,
# out) writes the plan of count steps to out. serve_half_cycle(serve,
# start, block, roll, pitch, stances, first, count, shift, pending_a,
# pending_b, positions, dx, flags) writes the count rows' forward
# displacements to dx and their flags to the bool (5, count) flags.
# rewards(weights, inputs, count, out) writes count rewards to out.
step_torso, plan_half_cycle, serve_half_cycle, rewards = _load()
# A step's record, RECORD floats: the state (com, vel, omega and the
# row-major rotation) up to UP, the torso's unit up-axis, its clearance
# and height, then per foot whether it is in contact, whether it has
# touched since reset, and the world point the slope estimator takes.
COM, VEL, OMEGA, ROT, UP, CLEARANCE, HEIGHT = 0, 3, 6, 9, 18, 21, 22
IN_CONTACT, TOUCHED, POINTS, RECORD = 23, 27, 31, 43
# The rows of serve_half_cycle's flags, SERVE_FLAGS of them.
STANDING, FALL, DONE, EXCHANGE, CAPTURE, SERVE_FLAGS = range(6)
