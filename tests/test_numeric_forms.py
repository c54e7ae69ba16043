"""The numeric equalities the environment step relies on to compute the
same bits at less cost, checked on random operands of the exact shapes the
step uses.

The step calls each small product through ndarray.dot instead of @, stacks
per-foot products into one np.matmul, reads rows of one product as the
product of those rows, and runs elementwise work on Python floats. Each is
exact only because numpy and its BLAS make it so; the forms are not
interchangeable in general (a scalar sum, or a vector dot product, rounds
differently from a row of a matrix-vector product).
"""

import math

import numpy as np
import pytest

from slopetrot.rotations import orthonormalize
from slopetrot.slopeest import angles_from_normal

SAMPLES = 2000

RERECORD = (
    "{what}: this numpy/BLAS build breaks an equality the environment step "
    "relies on. The goldens (tests/test_simenv.py, the perfbench digests) "
    "were recorded under these facts, so on this BLAS they must be "
    "re-recorded from a trusted commit."
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
        return (orthonormalize(r),), (array_form(r),)

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


PLAN_RELIES = (
    "np.{name} on a {shape} array differs from math.{name} elementwise: "
    "SlopedTerrainEnv plans each half cycle's foot targets, IK and FK with "
    "numpy's array form and relies on it giving math's bits. On this numpy "
    "the plan no longer reproduces the goldens, so it must call math per "
    "element instead."
)


@pytest.mark.parametrize("shape", [(40,), (1,), (40, 4), (1, 4), (40, 5, 4, 3)])
@pytest.mark.parametrize("name", ["sin", "cos", "sqrt", "fmod"])
def test_array_math_equals_math_elementwise(name, shape):
    # The plan's shapes: the step times, steps by legs, the reset's single
    # row, and the substep offsets. fmod takes the phase's form,
    # t / period + offset. Compared as bit patterns, so -0.0 is not 0.0.
    rng = np.random.default_rng(1)
    for _ in range(200):
        if name == "sqrt":
            x = rng.uniform(0.0, 4.0, size=shape)
            fast, reference = np.sqrt(x), [math.sqrt(v) for v in x.ravel().tolist()]
        elif name == "fmod":
            x = rng.uniform(0.0, 1000.0, size=shape) / 0.4 + 0.5
            fast, reference = np.fmod(x, 1.0), [math.fmod(v, 1.0) for v in x.ravel().tolist()]
        else:
            x = rng.uniform(-10.0, 10.0, size=shape)
            fast = getattr(np, name)(x)
            reference = [getattr(math, name)(v) for v in x.ravel().tolist()]
        assert fast.ravel().view(np.int64).tolist() == np.array(reference).view(np.int64).tolist(), (
            PLAN_RELIES.format(name=name, shape=shape))
