/* The contact substeps of one SlopedTerrainEnv control step.

   Each substep finds the feet below the plane, sums their penalty contact
   forces and torques, and advances the torso by semi-implicit Euler with
   a Rodrigues rotation update. The results are bit for bit those of the
   same loop written with Python floats and numpy products:

   - every matrix product calls the cblas routine that ndarray.dot calls,
     from the OpenBLAS numpy has loaded, with ndarray.dot's arguments;
   - the scalar code keeps Python's operand order and rounding: it is
     compiled without FMA contraction, its sums are left to right, and its
     comparisons are those of the Python conditionals, so NaN takes the
     same branches;
   - sin, cos and sqrt are libm's, as math's are. */

#include <math.h>
#include <stdint.h>
#include <string.h>

typedef int64_t blasint; /* numpy's OpenBLAS uses 64-bit integers */

enum { ROW_MAJOR = 101, NO_TRANS = 111, TRANS = 112 };

typedef double (*ddot_fn)(blasint, const double *, blasint, const double *, blasint);
typedef void (*dgemv_fn)(int, int, blasint, blasint, double, const double *, blasint,
                         const double *, blasint, double, double *, blasint);
typedef void (*dgemm_fn)(int, int, int, blasint, blasint, blasint, double, const double *,
                         blasint, const double *, blasint, double, double *, blasint);

static ddot_fn ddot;
static dgemv_fn dgemv;
static dgemm_fn dgemm;

void bind_blas(ddot_fn dot, dgemv_fn gemv, dgemm_fn gemm)
{
    ddot = dot;
    dgemv = gemv;
    dgemm = gemm;
}

/* The episode's constants, packed once at reset. */
enum { NX, NY, NZ, MU, KP, KD, CAP, NEG_DAMPING, GX, GY, GZ, H, H_M };

/* The step buffer: the state in and out, then the world inertia and its
   inverse, all row-major. */
enum { COM = 0, VEL = 3, OMEGA = 6, ROT = 9, I_WORLD = 18, I_WORLD_INV = 27 };

/* out = a.dot(rot.T) for a C-ordered (rows, 3) a and rot. */
static void times_rot_t(const double *a, blasint rows, const double *rot, double *out)
{
    dgemm(ROW_MAJOR, NO_TRANS, TRANS, rows, 3, 3, 1.0, a, 3, rot, 3, 0.0, out, 3);
}

/* y = a.dot(x) for a C-ordered (rows, 3) a with rows > 1. */
static void times_vector(const double *a, blasint rows, const double *x, double *y)
{
    dgemv(ROW_MAJOR, NO_TRANS, rows, 3, 1.0, a, 3, x, 1, 0.0, y, 1);
}

/* Run count substeps. motion holds the (4, 3) feet's body-frame rate,
   then for each substep the (4, 3) feet minus com in the body frame at
   its end; push_y is the lateral push force of this step. */
void run_substeps(const double *episode, double *buf, const double *motion, long count,
                  double push_y)
{
    const double *n = episode + NX;
    const double nx = episode[NX], ny = episode[NY], nz = episode[NZ];
    const double mu = episode[MU], kp = episode[KP], kd = episode[KD], cap = episode[CAP];
    const double neg_damping = episode[NEG_DAMPING];
    const double gx = episode[GX], gy = episode[GY], gz = episode[GZ];
    const double h = episode[H], h_m = episode[H_M];
    const double *i_world = buf + I_WORLD, *i_world_inv = buf + I_WORLD_INV;

    double rot[9], next[9], a[9];
    double com[3], omega[3], moment[3], torque[3], accel[3];
    double rate_world[12], rel[12], rel_n[4], sdist[4], v_feet[12], v_normal[4];
    int touching[4];
    memcpy(rot, buf + ROT, sizeof rot);
    memcpy(com, buf + COM, sizeof com);
    memcpy(omega, buf + OMEGA, sizeof omega);
    double vx = buf[VEL], vy = buf[VEL + 1], vz = buf[VEL + 2];
    double wx = omega[0], wy = omega[1], wz = omega[2];

    times_rot_t(motion, 4, rot, rate_world);
    for (long s = 0; s < count; s++) {
        times_rot_t(motion + 12 * (s + 1), 4, rot, rel); /* feet minus com, world */
        /* ndarray.dot of two vectors adds the ddot to 0.0. */
        const double com_n = 0.0 + ddot(3, com, 1, n, 1);
        times_vector(rel, 4, n, rel_n);
        /* The feet below the plane, with their signed distances and world
           velocities. A single row is repeated: numpy would take it alone
           as a vector dot product, which rounds differently. */
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
        if (k == 1)
            memcpy(v_feet + 3, v_feet, 3 * sizeof *v_feet);
        if (k > 0)
            times_vector(v_feet, k == 1 ? 2 : k, n, v_normal);

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
        dgemm(ROW_MAJOR, NO_TRANS, NO_TRANS, 3, 3, 3, 1.0, a, 3, rot, 3, 0.0, next, 3);
        memcpy(rot, next, sizeof rot);
    }

    memcpy(buf + COM, com, sizeof com);
    buf[VEL] = vx;
    buf[VEL + 1] = vy;
    buf[VEL + 2] = vz;
    memcpy(buf + OMEGA, omega, sizeof omega);
    memcpy(buf + ROT, rot, sizeof rot);
}
