/* The compiled parts of SlopedTerrainEnv's control steps.

   step_torso runs the torso through the control steps of a half cycle,
   one row per step. Each row's contact substeps find the feet below the
   plane, sum their penalty contact forces and torques, and advance the
   torso by semi-implicit Euler with a Rodrigues rotation update, its
   inertia inverted once per step. The row then re-orthonormalizes the
   rotation, updates the feet's contact memory and measures the torso's
   height, and the next row starts from its record.

   plan_half_cycle runs once per half cycle, when an action latches: the
   legs' foot targets, their projection onto the workspace, IK, the
   joints' lag, FK and the feet's motion for every step of the half cycle.

   serve_half_cycle runs after the torso rows and their angles: per row,
   the forward displacement, the standing, fall and done flags, whether
   the row is a stance exchange and whether it completes the pending
   contact capture. rewards is reward.compute_reward over a run of
   steps.

   Neither reports an error: what they cannot compute comes out NaN. A
   world inertia with a zero pivot has a non-finite inverse, and a foot
   target IK rejects has NaN joints, whose feet make the state of the
   torso row that reads them NaN; the environment counts a non-finite
   state as a fall.

   The results are bit for bit those of the same code written with Python
   floats and numpy calls, one control step at a time (the kinematics as
   legkin's and gaitgen's functions, called once per leg and step):

   - every matrix product, and the inverse, is written out with fma() in
     the rounding order of the OpenBLAS kernels that ndarray.dot (or
     np.matmul) and np.linalg.inv call: the ddot, dgemv, dgemm and dgesv
     of numpy's OpenBLAS 0.3.31 on x86-64 with AVX-512 (its SkylakeX
     kernels). fma() rounds once, so the compiler's FMA instruction and
     libm's fma give the same bits. tests/test_numeric_forms.py checks
     each of these helpers against numpy, so a BLAS that rounds otherwise
     fails a test that names it;
   - the scalar code keeps Python's operand order and rounding: it is
     compiled without FMA contraction, its sums are left to right, and its
     comparisons are those of the Python conditionals, so NaN takes the
     same branches;
   - sin, cos, sqrt, fmod, atan2, acos and exp are libm's, as math's are,
     and numpy's sin, cos, sqrt and fmod equal them (numpy's exp does not:
     it differs from math.exp in about 5 % of values); atan2 takes
     math.atan2's special cases for NaN, infinities and zeros. */

#include <float.h>
#include <math.h>
#include <stdint.h>
#include <string.h>

/* The episode's constants, packed once at reset. */
enum { NX, NY, NZ, MU, KP, KD, CAP, NEG_DAMPING, GX, GY, GZ, H, H_M, INERTIA };

/* A step's record: the state after the step, row-major; the unit up-axis
   of the torso, its clearance above the plane and its height above the
   stance feet; then per foot whether it touches the plane, whether it has
   touched it since reset, and the world point the slope estimator takes
   for it. */
enum {
    COM = 0, VEL = 3, OMEGA = 6, ROT = 9, UP = 18, CLEARANCE = 21, HEIGHT = 22,
    IN_CONTACT = 23, TOUCHED = 27, POINTS = 31, RECORD = 43
};

/* ndarray.dot of two 3-vectors with strides inc_x and inc_y: ddot chains
   its products from the first, and numpy adds the result to 0.0. */
static double dot3(const double *x, long inc_x, const double *y, long inc_y)
{
    return 0.0 + fma(x[2 * inc_x], y[2 * inc_y], fma(x[inc_x], y[inc_y], x[0] * y[0]));
}

/* y = a.dot(x) for a C-ordered (rows, 3) a: dgemv chains each row's
   products from the middle one and adds the result to 0.0. */
static void times_vector(const double *a, long rows, const double *x, double *y)
{
    for (long i = 0; i < rows; i++) {
        const double *r = a + 3 * i;
        y[i] = 0.0 + fma(r[2], x[2], fma(r[0], x[0], r[1] * x[1]));
    }
}

/* out = a.dot(rot.T) for a C-ordered (rows, 3) a and rot: dgemm chains
   each entry's products from 0.0, and with the transposed rot adds the
   result to 0.0. */
static void times_rot_t(const double *a, long rows, const double *rot, double *out)
{
    for (long i = 0; i < rows; i++) {
        const double *r = a + 3 * i;
        for (int j = 0; j < 3; j++) {
            const double *c = rot + 3 * j;
            out[3 * i + j] = 0.0 + fma(r[2], c[2], fma(r[1], c[1], fma(r[0], c[0], 0.0)));
        }
    }
}

/* out = a.dot(b) for C-ordered 3x3 a and b: dgemm's chains from 0.0. */
static void times(const double *a, const double *b, double *out)
{
    for (int i = 0; i < 3; i++) {
        const double *r = a + 3 * i;
        for (int j = 0; j < 3; j++)
            out[3 * i + j] = fma(r[2], b[6 + j], fma(r[1], b[3 + j], fma(r[0], b[j], 0.0)));
    }
}

/* inv = np.linalg.inv(a) for a C-ordered 3x3 a: dgesv on the column-major
   copy of a with the identity on the right. Where numpy raises for a zero
   pivot, the pivot's reciprocal in the solve is inf, so inv is not
   finite. */
static void invert(const double *a, double *inv)
{
    double lu[9];
    int pivots[3];
    for (int i = 0; i < 3; i++)
        for (int j = 0; j < 3; j++)
            lu[3 * j + i] = a[3 * i + j];

    /* LU, left-looking as getf2: column j takes the earlier row swaps,
       then the updates by the columns before it, each a chain of products
       from 0.0 subtracted once (the one-term dot of column 2 adds 0.0 to
       its chain). Its pivot is the first entry whose |entry| is not below
       the largest, which can be a NaN, as idamax finds it. A pivot of at
       least DBL_MIN swaps rows j and jp in columns 0..j and scales the
       column below it by its reciprocal, a zero reciprocal giving zeros;
       a smaller, zero or NaN pivot swaps and scales nothing. */
    for (int j = 0; j < 3; j++) {
        double *col = lu + 3 * j;
        for (int i = 0; i < j; i++) {
            const double t = col[i];
            col[i] = col[pivots[i]];
            col[pivots[i]] = t;
        }
        if (j == 1) {
            col[1] = col[1] - fma(lu[1], col[0], 0.0);
            col[2] = col[2] - fma(lu[2], col[0], 0.0);
        } else if (j == 2) {
            col[1] = col[1] - (fma(lu[1], col[0], 0.0) + 0.0);
            col[2] = col[2] - fma(lu[5], col[1], fma(lu[2], col[0], 0.0));
        }
        double largest = fabs(col[j]);
        for (int i = j + 1; i < 3; i++)
            largest = fabs(col[i]) > largest ? fabs(col[i]) : largest;
        int jp = j;
        while (fabs(col[jp]) < largest)
            jp++;
        pivots[j] = jp;
        const double pivot = col[jp];
        if (fabs(pivot) >= DBL_MIN) {
            for (int c = 0; c <= j; c++) {
                const double t = lu[3 * c + j];
                lu[3 * c + j] = lu[3 * c + jp];
                lu[3 * c + jp] = t;
            }
            const double reciprocal = 1.0 / pivot;
            for (int i = j + 1; i < 3; i++)
                col[i] = reciprocal == 0.0 ? 0.0 : col[i] * reciprocal;
        }
    }

    /* Each column of the identity, swapped by the pivots, through the
       unit lower triangle, rows 0 and 1 before row 2, then the upper one,
       row 2 before rows 1 and 0, each diagonal entry applied as its
       reciprocal, as the dtrsm kernels solve. */
    const double l10 = lu[1], l20 = lu[2], l21 = lu[5], u01 = lu[3], u02 = lu[6], u12 = lu[7];
    const double r00 = 1.0 / lu[0], r11 = 1.0 / lu[4], r22 = 1.0 / lu[8];
    for (int c = 0; c < 3; c++) {
        double x[3] = {0.0, 0.0, 0.0};
        x[c] = 1.0;
        for (int i = 0; i < 3; i++) {
            const double t = x[i];
            x[i] = x[pivots[i]];
            x[pivots[i]] = t;
        }
        double x0 = x[0], x1 = x[1], x2 = x[2];
        x1 = fma(-x0, l10, x1);
        x2 = (x2 - fma(l21, x1, l20 * x0)) * r22;
        x0 = x0 - u02 * x2;
        x1 = (x1 - u12 * x2) * r11;
        x0 = fma(-x1, u01, x0) * r00;
        inv[c] = x0;
        inv[3 + c] = x1;
        inv[6 + c] = x2;
    }
}

/* Run count substeps on the state in buf. motion holds the (4, 3) feet's
   body-frame rate, then for each substep the (4, 3) feet minus com in the
   body frame at its end; push_y is the lateral push force of this step.
   Leaves the rotation not yet re-orthonormalized. A singular world
   inertia has a non-finite inverse, which makes the state non-finite. */
static void integrate(const double *episode, double *buf, const double *motion, long count,
                      double push_y)
{
    const double *n = episode + NX;
    const double nx = episode[NX], ny = episode[NY], nz = episode[NZ];
    const double mu = episode[MU], kp = episode[KP], kd = episode[KD], cap = episode[CAP];
    const double neg_damping = episode[NEG_DAMPING];
    const double gx = episode[GX], gy = episode[GY], gz = episode[GZ];
    const double h = episode[H], h_m = episode[H_M];

    double rot[9], next[9], a[9], i_world[9], i_world_inv[9];
    double com[3], omega[3], moment[3], torque[3], accel[3];
    double rate_world[12], rel[12], rel_n[4], sdist[4], v_feet[12], v_normal[4];
    int touching[4];
    memcpy(rot, buf + ROT, sizeof rot);
    memcpy(com, buf + COM, sizeof com);
    memcpy(omega, buf + OMEGA, sizeof omega);
    double vx = buf[VEL], vy = buf[VEL + 1], vz = buf[VEL + 2];
    double wx = omega[0], wy = omega[1], wz = omega[2];

    /* Inertia in world coordinates, (rot * inertia).dot(rot.T), is hoisted
       out of the substep loop: the torso rotates well under a degree per
       control step. */
    for (int i = 0; i < 9; i++)
        a[i] = rot[i] * episode[INERTIA + i % 3];
    times_rot_t(a, 3, rot, i_world);
    invert(i_world, i_world_inv);

    times_rot_t(motion, 4, rot, rate_world);
    for (long s = 0; s < count; s++) {
        times_rot_t(motion + 12 * (s + 1), 4, rot, rel); /* feet minus com, world */
        const double com_n = dot3(com, 1, n, 1);
        times_vector(rel, 4, n, rel_n);
        /* The feet below the plane, with their signed distances and world
           velocities. */
        int k = 0;
        for (int i = 0; i < 4; i++) {
            const double rx = rel[3 * i], ry = rel[3 * i + 1], rz = rel[3 * i + 2];
            sdist[k] = rel_n[i] + com_n;
            if (sdist[k] >= 0.0)
                continue;
            touching[k] = i;
            v_feet[3 * k] = (vx + (wy * rz - wz * ry)) + rate_world[3 * i];
            v_feet[3 * k + 1] = (vy + (wz * rx - wx * rz)) + rate_world[3 * i + 1];
            v_feet[3 * k + 2] = (vz + (wx * ry - wy * rx)) + rate_world[3 * i + 2];
            k++;
        }
        times_vector(v_feet, k, n, v_normal);

        double fx = 0.0, fy = 0.0, fz = 0.0, tx = 0.0, ty = 0.0, tz = 0.0;
        for (int j = 0; j < k; j++) {
            const double *r = rel + 3 * touching[j];
            const double rx = r[0], ry = r[1], rz = r[2], v_n = v_normal[j];
            double normal_f = kp * -sdist[j] + kd * -v_n;
            normal_f = 0.0 > normal_f ? 0.0 : normal_f;
            normal_f = cap < normal_f ? cap : normal_f;
            const double ftx = neg_damping * (v_feet[3 * j] - v_n * nx);
            const double fty = neg_damping * (v_feet[3 * j + 1] - v_n * ny);
            const double ftz = neg_damping * (v_feet[3 * j + 2] - v_n * nz);
            const double tan_mag = sqrt(((0.0 + ftx * ftx) + fty * fty) + ftz * ftz);
            const double limit = mu * normal_f;
            double scale = limit / (1e-30 > tan_mag ? 1e-30 : tan_mag);
            scale = 1.0 < scale ? 1.0 : scale;
            const double ffx = normal_f * nx + ftx * scale;
            const double ffy = normal_f * ny + fty * scale;
            const double ffz = normal_f * nz + ftz * scale;
            fx += ffx;
            fy += ffy;
            fz += ffz;
            tx += ry * ffz - rz * ffy;
            ty += rz * ffx - rx * ffz;
            tz += rx * ffy - ry * ffx;
        }

        /* Adding 0.0 turns -0.0 into 0.0, as the sum of the force, weight
           and push vectors does. */
        vx += h_m * ((fx + gx) + 0.0);
        vy += h_m * ((fy + gy) + push_y);
        vz += h_m * ((fz + gz) + 0.0);
        com[0] = com[0] + h * vx;
        com[1] = com[1] + h * vy;
        com[2] = com[2] + h * vz;
        times_vector(i_world, 3, omega, moment);
        const double lx = moment[0], ly = moment[1], lz = moment[2];
        torque[0] = tx - (wy * lz - wz * ly);
        torque[1] = ty - (wz * lx - wx * lz);
        torque[2] = tz - (wx * ly - wy * lx);
        times_vector(i_world_inv, 3, torque, accel);
        wx = wx + h * accel[0];
        wy = wy + h * accel[1];
        wz = wz + h * accel[2];
        omega[0] = wx;
        omega[1] = wy;
        omega[2] = wz;

        /* Rotation by the vector omega * h (Rodrigues), with the
           second-order small-angle expansion near zero so the integrator
           stays smooth through a still torso. A non-finite angle gives a
           NaN rotation, which the fall check counts as a fall. */
        const double rx = wx * h, ry = wy * h, rz = wz * h;
        const double angle = sqrt((rx * rx + ry * ry) + rz * rz);
        double sinc, cosc;
        if (angle < 1e-12) {
            sinc = 1.0;
            cosc = 0.5;
        } else {
            sinc = sin(angle) / angle;
            cosc = (1.0 - cos(angle)) / (angle * angle);
        }
        const double kx = sinc * rx, ky = sinc * ry, kz = sinc * rz;
        const double xx = (cosc * rx) * rx, yy = (cosc * ry) * ry, zz = (cosc * rz) * rz;
        const double xy = (cosc * rx) * ry, xz = (cosc * rx) * rz, yz = (cosc * ry) * rz;
        a[0] = (1.0 - yy) - zz;
        a[1] = xy - kz;
        a[2] = xz + ky;
        a[3] = xy + kz;
        a[4] = (1.0 - xx) - zz;
        a[5] = yz - kx;
        a[6] = xz - ky;
        a[7] = yz + kx;
        a[8] = (1.0 - xx) - yy;
        times(a, rot, next);
        memcpy(rot, next, sizeof rot);
    }

    memcpy(buf + COM, com, sizeof com);
    buf[VEL] = vx;
    buf[VEL + 1] = vy;
    buf[VEL + 2] = vz;
    memcpy(buf + OMEGA, omega, sizeof omega);
    memcpy(buf + ROT, rot, sizeof rot);
}

/* Re-orthonormalize a drifting rotation matrix in place, Gram-Schmidt on
   its columns. The dot products are those of the column views. */
static void orthonormalize(double *rot)
{
    const double a0 = rot[0], a1 = rot[3], a2 = rot[6];
    const double b0 = rot[1], b1 = rot[4], b2 = rot[7];
    double norm = sqrt(dot3(rot, 3, rot, 3));
    double x[3] = {a0 / norm, a1 / norm, a2 / norm};
    const double proj = dot3(rot + 1, 3, x, 1);
    double y[3] = {b0 - proj * x[0], b1 - proj * x[1], b2 - proj * x[2]};
    norm = sqrt(dot3(y, 1, y, 1));
    y[0] = y[0] / norm;
    y[1] = y[1] / norm;
    y[2] = y[2] / norm;
    const double next[9] = {
        x[0], y[0], x[1] * y[2] - x[2] * y[1],
        x[1], y[1], x[2] * y[0] - x[0] * y[2],
        x[2], y[2], x[0] * y[1] - x[1] * y[0],
    };
    memcpy(rot, next, sizeof next);
}

/* Remember each foot's latest world contact point: the kinematic foot
   projected back onto the surface, since the physical contact point lies
   on the terrain even though the penalty model lets it sink. A foot that
   has not touched since reset keeps its world position instead. offsets
   are the (4, 3) feet minus com in the body frame. Each foot's rot @
   offset and its world position @ n are separate products, as numpy's
   stacked matmul makes them. */
static void update_contact_memory(const double *n, double *buf, const double *offsets)
{
    const double *com = buf + COM, *rot = buf + ROT;
    for (int i = 0; i < 4; i++) {
        double r[3], foot[3];
        double *point = buf + POINTS + 3 * i;
        times_vector(rot, 3, offsets + 3 * i, r);
        foot[0] = com[0] + r[0];
        foot[1] = com[1] + r[1];
        foot[2] = com[2] + r[2];
        const double sdist = dot3(foot, 1, n, 1);
        buf[IN_CONTACT + i] = sdist <= 0.0;
        if (sdist <= 0.0) {
            buf[TOUCHED + i] = 1.0;
            point[0] = foot[0] - sdist * n[0];
            point[1] = foot[1] - sdist * n[1];
            point[2] = foot[2] - sdist * n[2];
        } else if (buf[TOUCHED + i] == 0.0) {
            memcpy(point, foot, sizeof foot);
        }
    }
}

/* The torso's clearance com @ n above the plane, and its height along n
   above the lower of the stance feet a and b, so it tracks posture, not
   the absolute terrain position. */
static void measure_height(const double *n, double *buf, const double *offsets, int64_t a,
                           int64_t b)
{
    const double *com = buf + COM;
    double rel[12], sdist[4];
    times_rot_t(offsets, 4, buf + ROT, rel);
    for (int i = 0; i < 12; i++)
        rel[i] = com[i % 3] + rel[i];
    times_vector(rel, 4, n, sdist);
    const double sa = sdist[a], sb = sdist[b];
    /* The smaller of the two, or NaN if either is NaN, as ndarray.min
       gives it. */
    const double lowest = sa <= sb || sa != sa ? sa : sb;
    const double clearance = dot3(com, 1, n, 1);
    buf[CLEARANCE] = clearance;
    buf[HEIGHT] = clearance - lowest;
}

/* Advance the state in buf, a record, by one control step: count contact
   substeps (see integrate), then the rotation's re-orthonormalization,
   the contact memory, the torso's unit up-axis and its height above the
   stance feet stance_a and stance_b. motion holds the (4, 3) feet minus
   com in the body frame after the step, then integrate's motion. With
   count 0 only the state's contact memory, up-axis and height are
   measured. */
static void step_row(const double *episode, double *buf, const double *motion, long count,
                     double push_y, int64_t stance_a, int64_t stance_b)
{
    const double *n = episode + NX;
    if (count > 0) {
        integrate(episode, buf, motion + 12, count, push_y);
        orthonormalize(buf + ROT);
    }
    update_contact_memory(n, buf, motion);
    measure_height(n, buf, motion, stance_a, stance_b);
    /* The up-axis is normalized as np.linalg.norm does: the dot product
       of the contiguous column with itself, then its square root. */
    const double up[3] = {buf[ROT + 2], buf[ROT + 5], buf[ROT + 8]};
    const double norm = sqrt(dot3(up, 1, up, 1));
    buf[UP] = up[0] / norm;
    buf[UP + 1] = up[1] / norm;
    buf[UP + 2] = up[2] / norm;
}

/* Run rows control steps, each with substeps contact substeps, from the
   state and contact memory in the record start. Row j starts from row
   j - 1's record (row 0 from start), reads its (substeps + 2, 4, 3) block
   of motion (see step_row), its push force pushes[j] and its stance pair
   stances[2 j], stances[2 j + 1], and writes its record to out[j]. A row
   whose world inertia is singular, or whose motion is NaN, writes a
   non-finite state, and so do the rows after it. On x86-64, where not
   every CPU has FMA, it is built as an fma clone, which runs each fma() as one
   instruction, and a default clone, which calls libm's; both give the
   same bits. */
#if defined(__x86_64__)
__attribute__((target_clones("fma", "default"), flatten))
#endif
void step_torso(const double *episode, const double *start, const double *motion,
                long substeps, const double *pushes, const int64_t *stances, long rows,
                double *out)
{
    const double *prev = start;
    for (long j = 0; j < rows; j++) {
        double *buf = out + RECORD * j;
        memcpy(buf, prev, RECORD * sizeof *buf);
        step_row(episode, buf, motion + 12 * (substeps + 2) * j, substeps, pushes[j],
                 stances[2 * j], stances[2 * j + 1]);
        prev = buf;
    }
}

/* The half cycle's kinematics: the constants, packed once by the
   environment (the com offset at each reset), then the workspace
   polygon's vertices and its oriented edges (legkin._oriented_edges). */
enum {
    COM_OFFSET = 0, DT = 3, PERIOD = 4, TRACK_ALPHA = 5, DESIRED_HEIGHT = 6, FOOT_CLEARANCE = 7,
    UPPER = 8, LOWER = 9, ABD_OFFSET = 10, LIMITS = 11, PHASE = 17, HIPS = 21, SUBSTEPS = 33,
    VERTEX_COUNT = 34, VERTICES = 35
};

/* The plan buffer: the latched actions (step_len, steer, shift_x,
   shift_y, shift_z per leg), then the joints and body-frame feet before
   the half cycle. */
enum { ACTIONS = 0, JOINTS = 20, FEET = 32 };

enum { STEP_LEN, STEER, SHIFT_X, SHIFT_Y, SHIFT_Z };

/* math.atan2: CPython's special cases for NaN, infinities and zeros,
   then libm's atan2. */
static double py_atan2(double y, double x)
{
    if (isnan(x) || isnan(y))
        return NAN;
    if (isinf(y)) {
        if (isinf(x))
            return copysign(copysign(1.0, x) == 1.0 ? 0.25 * M_PI : 0.75 * M_PI, y);
        return copysign(0.5 * M_PI, y);
    }
    if (isinf(x) || y == 0.0)
        return copysign(copysign(1.0, x) == 1.0 ? 0.0 : M_PI, y);
    return atan2(y, x);
}

/* legkin._point_in_polygon for the polygon's oriented edges. */
static int in_polygon(const double *edges, long n, double px, double pz)
{
    int inside = 1;
    for (long i = 0; i < n; i++) {
        const double *e = edges + 4 * i;
        if (!(e[2] * (pz - e[1]) - e[3] * (px - e[0]) >= -1e-12))
            inside = 0;
    }
    return inside;
}

/* legkin._closest_point_on_polygon: the first nearest edge wins. */
static void closest_on_polygon(const double *vertices, long n, double px, double pz, double *x,
                               double *z)
{
    double best_x = NAN, best_z = NAN, best_d2 = INFINITY;
    for (long i = 0; i < n; i++) {
        const double ax = vertices[2 * i], az = vertices[2 * i + 1];
        const double bx = vertices[2 * ((i + 1) % n)], bz = vertices[2 * ((i + 1) % n) + 1];
        const double ex = bx - ax, ez = bz - az;
        const double denom = ex * ex + ez * ez;
        double t = denom == 0.0 ? 0.0 : ((px - ax) * ex + (pz - az) * ez) / denom;
        t = t > 0.0 ? t : 0.0;
        t = t < 1.0 ? t : 1.0;
        const double cx = ax + t * ex, cz = az + t * ez;
        const double dx = px - cx, dz = pz - cz;
        const double d2 = dx * dx + dz * dz;
        if (d2 < best_d2) {
            best_x = cx;
            best_z = cz;
            best_d2 = d2;
        }
    }
    *x = best_x;
    *z = best_z;
}

/* gaitgen.checked_foot_target of one leg's action at phase tau: the
   transformed semi-elliptic reference, projected onto the workspace
   polygon by legkin.clamp_to_workspace's rule when it lies outside. */
static void foot_target(const double *kin, const double *action, double tau, double *p)
{
    const double d = kin[ABD_OFFSET], height = kin[DESIRED_HEIGHT];
    const long n = (long)kin[VERTEX_COUNT];
    const double *vertices = kin + VERTICES, *edges = vertices + 2 * n;

    const double ang = (2.0 * M_PI) * (1.0 - tau);
    const double bx = (0.5 * action[STEP_LEN]) * cos(ang);
    const double bz = tau < 0.5 ? -height : -height + kin[FOOT_CLEARANCE] * sin(ang);
    const double x = action[SHIFT_X] + bx * cos(action[STEER]);
    const double y = action[SHIFT_Y] + bx * sin(action[STEER]);
    const double z = action[SHIFT_Z] + bz;
    p[0] = x;
    p[1] = y;
    p[2] = z;

    /* legkin.in_workspace */
    const double rr = (y * y + z * z) - d * d;
    if (!(rr < -1e-15) && in_polygon(edges, n, x, -sqrt(0.0 > rr ? 0.0 : rr)))
        return;

    /* A point inside the offset cylinder is split as the stand-in
       (x, d, 0) and falls back to a straight-down posture. */
    const int cylinder = rr < 0.0;
    const double sy = cylinder ? d : y, sz = cylinder ? 0.0 : z;
    const double split = (sy * sy + sz * sz) - d * d;
    double pz = -sqrt(0.0 > split ? 0.0 : split);
    double abd = py_atan2(sz, sy) - py_atan2(pz, d);
    abd = py_atan2(sin(abd), cos(abd));
    abd = cylinder ? 0.0 : abd;
    pz = cylinder ? -fabs(z) : pz;
    double px = x;
    if (!in_polygon(edges, n, px, pz))
        closest_on_polygon(vertices, n, x, pz, &px, &pz);
    const double ca = cos(abd), sa = sin(abd);
    p[1] = d * ca - pz * sa;
    p[2] = d * sa + pz * ca;
    p[0] = px;
}

/* legkin.inverse_kinematics of one target p into q = (abd, hip, knee),
   clipped into the joint limits; NaN joints for a target it rejects,
   inside the offset cylinder or outside the annulus. */
static void inverse_kinematics(const double *kin, const double *p, double *q)
{
    const double d = kin[ABD_OFFSET], l1 = kin[UPPER], l2 = kin[LOWER];
    const double *limits = kin + LIMITS;
    q[0] = q[1] = q[2] = NAN;
    const double rr = (p[1] * p[1] + p[2] * p[2]) - d * d;
    if (rr < -1e-15)
        return;
    const double pz = -sqrt(0.0 > rr ? 0.0 : rr);
    double abd = py_atan2(p[2], p[1]) - py_atan2(pz, d);
    abd = py_atan2(sin(abd), cos(abd));
    const double r2 = p[0] * p[0] + pz * pz;
    const double lo = (l1 - l2) * (l1 - l2), hi = (l1 + l2) * (l1 + l2);
    if (!(r2 <= hi + 1e-12 && r2 >= lo - 1e-12))
        return;
    double cos_knee = ((r2 - l1 * l1) - l2 * l2) / ((2.0 * l1) * l2);
    cos_knee = cos_knee > -1.0 ? cos_knee : -1.0;
    const double knee = acos(cos_knee < 1.0 ? cos_knee : 1.0);
    const double hip = py_atan2(p[0], -pz) - py_atan2(l2 * sin(knee), l1 + l2 * cos(knee));
    const double angles[3] = {abd, hip, knee};
    for (int j = 0; j < 3; j++) {
        const double lo_j = limits[2 * j], hi_j = limits[2 * j + 1];
        double a = lo_j > angles[j] ? lo_j : angles[j];
        q[j] = hi_j < a ? hi_j : a;
    }
}

/* Plan the legs for count control steps, the first of them step number
   first (its time is first * dt): per step and leg in row-major order,
   the joints after the step, the body-frame feet after it, and the
   (substeps + 2, 4, 3) block of feet motion step_torso reads. out holds
   the (count, 4, 3) joints, then the (count, 4, 3) feet, then the
   (count, substeps + 2, 4, 3) motion. An action with a non-finite entry
   has no foot target, and a target legkin.inverse_kinematics rejects has
   no joints: their joint targets are NaN, and so are that leg's joints,
   feet and motion from that step on. */
void plan_half_cycle(const double *kin, const double *plan, long first, long count, double *out)
{
    const long substeps = (long)kin[SUBSTEPS];
    const double dt = kin[DT], alpha = kin[TRACK_ALPHA];
    const double l1 = kin[UPPER], l2 = kin[LOWER], d = kin[ABD_OFFSET];
    double *joints = out, *feet = out + 12 * count, *motion = out + 24 * count;

    /* The IK joint targets, into joints. */
    int finite = 1;
    for (int i = 0; i < 20; i++)
        finite = finite && isfinite(plan[ACTIONS + i]);
    for (long k = 0; k < count; k++) {
        const double t = (double)(first + k) * dt;
        for (int leg = 0; leg < 4; leg++) {
            double *q = joints + 12 * k + 3 * leg;
            double p[3];
            if (!finite) {
                q[0] = q[1] = q[2] = NAN;
                continue;
            }
            const double tau = fmod(t / kin[PERIOD] + kin[PHASE + leg], 1.0);
            foot_target(kin, plan + ACTIONS + 5 * leg, tau, p);
            inverse_kinematics(kin, p, q);
        }
    }

    /* The joints track their targets with a first-order lag, then FK plus
       the hip mounts, then the motion rows: the feet minus com after the
       step, their rate, and the feet minus com at the end of each
       substep. */
    const double *off = kin + COM_OFFSET;
    const double *q_prev = plan + JOINTS, *before = plan + FEET;
    for (long k = 0; k < count; k++) {
        double *q = joints + 12 * k, *foot = feet + 12 * k;
        double *block = motion + 12 * (substeps + 2) * k;
        for (int i = 0; i < 12; i++)
            q[i] = q_prev[i] + alpha * (q[i] - q_prev[i]);
        for (int leg = 0; leg < 4; leg++) {
            const double abd = q[3 * leg], hip = q[3 * leg + 1], knee = q[3 * leg + 2];
            const double px = l1 * sin(hip) + l2 * sin(hip + knee);
            const double pz = -(l1 * cos(hip) + l2 * cos(hip + knee));
            const double ca = cos(abd), sa = sin(abd);
            const double *hip_at = kin + HIPS + 3 * leg;
            foot[3 * leg] = hip_at[0] + px;
            foot[3 * leg + 1] = hip_at[1] + (d * ca - pz * sa);
            foot[3 * leg + 2] = hip_at[2] + (d * sa + pz * ca);
        }
        for (int i = 0; i < 12; i++) {
            const double move = foot[i] - before[i];
            block[i] = foot[i] - off[i % 3];
            block[12 + i] = move / dt;
            for (long j = 0; j < substeps; j++)
                block[24 + 12 * j + i] = (before[i] - off[i % 3])
                                         + ((double)(j + 1) / (double)substeps) * move;
        }
        q_prev = q;
        before = foot;
    }
}

/* The serve pass's constants, packed once by the environment: the fall's
   clearance threshold and angle bound, StandingMonitor's window and
   threshold, the steps of a half cycle and of an episode. */
enum { FALL_CLEARANCE, FALL_ANGLE, WINDOW, THRESHOLD, STEPS_PER_HALF, EPISODE_LEN };

/* The rows of flags serve_half_cycle writes, one byte per step. */
enum { STANDING, FALL, DONE, EXCHANGE, CAPTURE, SERVE_FLAGS };

/* What each of the count rows of block, the records of the steps from
   step number first on, serves besides its record, as SlopedTerrainEnv's
   step computed it one step at a time; roll and pitch are the rows' torso
   angles.

   positions, WINDOW + STEPS_PER_HALF floats, holds the com x the steps
   served since reset, as StandingMonitor keeps them: the window before
   the run, then the run's rows. On entry the window before the previous
   run is followed by that run, of which the first shift rows were served;
   the window moves forward past those rows and the run's com x follow
   it. Entries from before reset are
   NaN, so a window not yet full never stands. A row's forward
   displacement is its com x minus the one before, the first row's from
   start, the record the run started from (an edited com included).

   A row falls unless its clearance and both angles are within bounds,
   which a NaN is not, and is done if it falls or ends the episode. A row
   whose step ends a half cycle is an exchange: its stance pair, from
   stances, becomes the pending capture's pair, which pending_a and
   pending_b hold at the start (-1 for none). A row on which both feet of
   the pending pair are in contact (a NaN entry counts, as it does for
   Python's all()) completes the capture. */
void serve_half_cycle(const double *serve, const double *start, const double *block,
                      const double *roll, const double *pitch, const int64_t *stances,
                      long first, long count, long shift, long pending_a, long pending_b,
                      double *positions, double *dx, unsigned char *flags)
{
    const long window = (long)serve[WINDOW], per_half = (long)serve[STEPS_PER_HALF];
    const long episode_len = (long)serve[EPISODE_LEN];
    const double fall_clearance = serve[FALL_CLEARANCE], fall_angle = serve[FALL_ANGLE];
    memmove(positions, positions + shift, window * sizeof *positions);
    double before = start[COM];
    for (long k = 0; k < count; k++) {
        const double *record = block + RECORD * k;
        const double x = record[COM];
        const long after = first + k + 1; /* the step index once row k is served */
        positions[window + k] = x;
        dx[k] = x - before;
        before = x;
        const int fall = !(record[CLEARANCE] >= fall_clearance && fabs(roll[k]) <= fall_angle
                           && fabs(pitch[k]) <= fall_angle);
        const int exchange = after % per_half == 0;
        if (exchange) {
            pending_a = stances[2 * k];
            pending_b = stances[2 * k + 1];
        }
        const int capture = pending_a >= 0 && record[IN_CONTACT + pending_a] != 0.0
                            && record[IN_CONTACT + pending_b] != 0.0;
        if (capture)
            pending_a = pending_b = -1;
        flags[STANDING * count + k] = fabs(x - positions[k]) < serve[THRESHOLD];
        flags[FALL * count + k] = fall;
        flags[DONE * count + k] = fall || after >= episode_len;
        flags[EXCHANGE * count + k] = exchange;
        flags[CAPTURE * count + k] = capture;
    }
}

/* reward.RewardWeights' fields (TARGET_YAW and TARGET_HEIGHT are its
   desired_yaw and desired_height), then the step length the forward
   displacement is normalized by. */
enum {
    ROLL_WIDTH, PITCH_WIDTH, YAW_WIDTH, HEIGHT_WIDTH, FORWARD_WEIGHT, STANDING_PENALTY,
    TARGET_YAW, TARGET_HEIGHT, MAX_STEP
};

/* reward.gaussian_kernel: (-width * x) * x, as Python groups it. */
static double kernel(double width, double x)
{
    return exp(-width * x * x);
}

/* reward.compute_reward of count steps: inputs holds reward.RewardInputs'
   eight fields, one row of count per field, the standing flag as 0 or
   1. */
void rewards(const double *weights, const double *inputs, long count, double *out)
{
    const double *torso_roll = inputs, *torso_pitch = inputs + count,
                 *torso_yaw = inputs + 2 * count, *plane_roll = inputs + 3 * count,
                 *plane_pitch = inputs + 4 * count, *height = inputs + 5 * count,
                 *forward = inputs + 6 * count, *standing = inputs + 7 * count;
    for (long k = 0; k < count; k++) {
        double r = kernel(weights[ROLL_WIDTH], torso_roll[k] - plane_roll[k]);
        r += kernel(weights[PITCH_WIDTH], torso_pitch[k] - plane_pitch[k]);
        r += kernel(weights[YAW_WIDTH], torso_yaw[k] - weights[TARGET_YAW]);
        r += kernel(weights[HEIGHT_WIDTH], height[k] - weights[TARGET_HEIGHT]);
        r += weights[FORWARD_WEIGHT] * (forward[k] / weights[MAX_STEP]);
        if (standing[k] != 0.0)
            r -= weights[STANDING_PENALTY];
        out[k] = r;
    }
}
