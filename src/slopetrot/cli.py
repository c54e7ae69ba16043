"""Command-line front end: train, evaluate and roll out policies.

Exit codes: 0 success, 1 usage, 2 configuration/IO, 3 runtime failure.
Every CSV written carries a header with the resolved config hash, the
master seed and the package version; re-running with the same inputs
reproduces each file byte-for-byte.
"""

from __future__ import annotations

import argparse
import math
import os
import sys

from . import __version__, config as config_mod, policy as policy_mod, trainer
from .policy import PolicyFormatError
from .runlog import write_csv
from .simenv import ConfigError, PushEvent, TerrainPlane, terrain_grid
from .trainer import derive_seed, evaluate, make_eval_grid

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_CONFIG = 2
EXIT_RUNTIME = 3


class _UsageError(SystemExit):
    pass


def _usage_error(message):
    print(f"error: {message}", file=sys.stderr)
    raise _UsageError(EXIT_USAGE)


def _from_flags(build, *args):
    """build(*args) on values given as command-line flags: a value out of
    its bounds is a usage error, not a configuration error."""
    try:
        return build(*args)
    except ConfigError as exc:
        _usage_error(str(exc))


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        _usage_error(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="slopetrot", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def setting(p, flag, key, metavar, what):
        # The flag is shorthand for --set KEY=VALUE: it joins the same list,
        # so the config parser reads and checks its value.
        p.add_argument(flag, dest="set", action="append", type=lambda v: f"{key}={v}",
                       metavar=metavar, help=f"{what} (--set {key}=...)")

    def common(p):
        p.add_argument("--config", help="key=value config file")
        p.add_argument("--set", action="append", default=[], metavar="SEC.KEY=VAL",
                       help="override one config entry (repeatable)")
        setting(p, "--seed", "run.master_seed", "SEED", "master seed")
        setting(p, "--out", "run.out_dir", "OUT", "output directory")

    p_train = sub.add_parser("train", help="run guided init plus the search loop")
    common(p_train)
    setting(p_train, "--iters", "train.iterations", "ITERS", "iteration count")
    setting(p_train, "--workers", "ars.workers", "WORKERS", "rollout worker count")
    p_train.add_argument("--init-policy", help="start from this policy file instead of guided init")
    p_train.add_argument("--no-guided", dest="set", action="append_const",
                         const="train.guided=false",
                         help="start from the zero policy (--set train.guided=false)")

    p_eval = sub.add_parser("eval", help="score a policy over the terrain grid")
    common(p_eval)
    p_eval.add_argument("--policy", required=True, help="policy file to evaluate")
    p_eval.add_argument("--incline", "--inclination", dest="incline", type=float,
                        help="restrict to one inclination (deg)")
    p_eval.add_argument("--orientation", type=float, help="restrict to one slope yaw (deg)")
    setting(p_eval, "--friction", "train.eval_friction", "FRICTION", "friction coefficient")

    p_roll = sub.add_parser("rollout", help="run one logged episode")
    common(p_roll)
    p_roll.add_argument("--policy", help="policy file (default: freshly fitted guided init)")
    p_roll.add_argument("--incline", "--inclination", dest="incline", type=float, default=0.0)
    p_roll.add_argument("--orientation", type=float, default=0.0)
    p_roll.add_argument("--friction", type=float, default=TerrainPlane.friction)
    p_roll.add_argument("--push", type=float, help="lateral push force (N, signed)")
    p_roll.add_argument("--push-at", type=float, default=0.7, help="push start time (s)")
    p_roll.add_argument("--push-dur", type=float, default=0.2, help="push duration (s)")
    return parser


def _load_run_config(args) -> config_mod.RunConfig:
    """Defaults, then --config, then every --set entry and setting flag in
    command-line order, so the last value given wins.

    Building the run's environment here checks the settings that clash
    only across sections (gait period against time step, stance height
    against leg geometry), so they fail before any output is written.
    """
    cfg = config_mod.RunConfig()
    if args.config:
        if not os.path.exists(args.config):
            raise config_mod.ConfigFileError(f"config file not found: {args.config}")
        cfg = config_mod.load_config(args.config, cfg)
    for setting in args.set:
        if "=" not in setting:
            raise config_mod.ConfigFileError(f"--set needs SEC.KEY=VAL, got {setting!r}")
        key, _, value = setting.partition("=")
        cfg = config_mod.apply_setting(cfg, key.strip(), value)
    cfg.bundle().make_env()
    return cfg


def _csv_header(cfg: config_mod.RunConfig, extra: dict | None = None) -> dict:
    header = {
        "version": __version__,
        "config_hash": config_mod.config_hash(cfg),
        "master_seed": cfg.run.master_seed,
    }
    if extra:
        header.update(extra)
    return header


def cmd_train(args) -> int:
    cfg = _load_run_config(args)
    hp = cfg.hyperparams()
    params = cfg.train
    initial = None
    if args.init_policy:
        initial = policy_mod.load_policy(args.init_policy)

    out_dir = cfg.run.out_dir
    os.makedirs(out_dir, exist_ok=True)
    # The worker count only changes wall time, so it stays out of the
    # deterministic header and goes to stdout.
    header = _csv_header(cfg, {"iterations": params.iterations})
    print(f"training {params.iterations} iterations on {hp.workers} worker(s)")

    def checkpoint(iteration, matrix, score):
        path = os.path.join(out_dir, f"policy_iter{iteration:04d}.txt")
        policy_mod.save_policy(matrix, path, metadata={
            "iteration": iteration, "seed": hp.master_seed, "eval_score": repr(score),
        })

    def progress(row):
        note = f" eval={row['eval_score']}" if row["eval_score"] != "" else ""
        print(f"iter {row['iteration']:3d} mean={row['return_mean']:.1f}"
              f" sigma={row['sigma_r']:.2f}{note}")

    result = trainer.train(
        cfg.bundle(), hp, cfg.rand, params,
        initial_matrix=initial, checkpoint_fn=checkpoint, progress_fn=progress,
    )
    with open(os.path.join(out_dir, "config_resolved.cfg"), "w") as fh:
        fh.write(config_mod.dump_config(cfg))
    write_csv(os.path.join(out_dir, "training.csv"),
              trainer.TRAIN_LOG_COLUMNS, result.history, header)
    # With no iterations the final policy is the initial one: it has no
    # iteration to record.
    metadata = {"iteration": params.iterations - 1} if params.iterations else {}
    metadata["seed"] = hp.master_seed
    policy_mod.save_policy(result.matrix, os.path.join(out_dir, "policy_final.txt"),
                           metadata=metadata)
    if result.guided_fit is not None and result.guided_fit.rank_deficient:
        print(f"warning: guided fit rank deficient (rank {result.guided_fit.rank})",
              file=sys.stderr)
    print(f"training complete: {os.path.join(out_dir, 'policy_final.txt')}")
    return EXIT_OK


def _eval_combos(args):
    combos = terrain_grid()
    if args.incline is not None:
        combos = [c for c in combos if c[0] == args.incline]
        if not combos:
            combos = [(args.incline, args.orientation or 0.0)]
    if args.orientation is not None:
        filtered = [c for c in combos if c[1] == args.orientation]
        # Off the grid: each inclination once, at the requested orientation.
        combos = filtered or list(dict.fromkeys((c[0], args.orientation) for c in combos))
    return combos


def cmd_eval(args) -> int:
    cfg = _load_run_config(args)
    matrix = policy_mod.load_policy(args.policy)
    combos = _eval_combos(args)
    grid = _from_flags(make_eval_grid, combos, cfg.run.master_seed, cfg.train.eval_friction)
    mean, per_terrain = evaluate(matrix, grid, cfg.bundle(), cfg.rand_without_pushes())

    rows = []
    for terrain, seed, ret in per_terrain:
        rows.append({
            "inclination": terrain.inclination_deg,
            "orientation": terrain.yaw_deg,
            "friction": terrain.friction,
            "seed": seed,
            "return": ret,
        })
        print(f"incline {terrain.inclination_deg:5.1f} deg  yaw {terrain.yaw_deg:5.1f} deg"
              f"  return {ret:9.2f}")
    print(f"mean return over {len(rows)} episodes: {mean:.2f}")
    out_dir = cfg.run.out_dir
    os.makedirs(out_dir, exist_ok=True)
    write_csv(os.path.join(out_dir, "eval.csv"),
              ("inclination", "orientation", "friction", "seed", "return"),
              rows, _csv_header(cfg, {"policy_file": args.policy}))
    return EXIT_OK


def _push_window(args, cfg):
    """The push's control steps [start, stop): a usage error unless the
    push starts at or after 0 s and the rounded window is finite and
    starts before the episode ends. PushEvent rejects an empty window."""
    episode_len = cfg.train.episode_len
    at = args.push_at / cfg.sim.dt
    end = (args.push_at + args.push_dur) / cfg.sim.dt
    # Compared as floats first, so round() never meets an infinity.
    if 0.0 <= at < episode_len and end < math.inf:
        start = round(at)
        if start < episode_len:
            return start, round(end)
    _usage_error(f"--push-at {args.push_at} s and --push-dur {args.push_dur} s must round to"
                 f" a finite step window that starts before step {episode_len}")


def cmd_rollout(args) -> int:
    cfg = _load_run_config(args)
    terrain = _from_flags(TerrainPlane, args.incline, args.orientation, args.friction)
    push = None
    if args.push is not None:
        push = _from_flags(PushEvent, *_push_window(args, cfg), args.push)
    bundle = cfg.bundle()
    policy_note = args.policy or "guided-init (default)"
    if args.policy:
        matrix = policy_mod.load_policy(args.policy)
    else:
        matrix = trainer.fit_guided(bundle, cfg.rand, cfg.run.master_seed, cfg.train).matrix

    env = bundle.make_env()
    seed = derive_seed(cfg.run.master_seed, trainer._ROLLOUT_CLI_STREAM)
    obs = env.reset(terrain=terrain, rand=cfg.rand_without_pushes(), seed=seed)
    push_note = "none"
    if push is not None:
        env.set_push(push.start_step, push.stop_step, push.force_y)
        push_note = f"{args.push}N steps [{push.start_step},{push.stop_step})"

    controller = policy_mod.linear_controller(matrix, bundle.scaling)
    rows = [env.log_row() for _ in env.run(obs, controller)]

    out_dir = cfg.run.out_dir
    os.makedirs(out_dir, exist_ok=True)
    header = _csv_header(cfg, {
        "policy": policy_note,
        "terrain": f"incline {args.incline} deg yaw {args.orientation} deg"
                   f" friction {args.friction}",
        "push": push_note,
        "rollout_seed": seed,
    })
    path = os.path.join(out_dir, "rollout.csv")
    write_csv(path, env.LOG_COLUMNS, rows, header)
    print(f"rollout: {len(rows)} steps, fall={env.fall}, log {path}")
    return EXIT_OK


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "train":
            return cmd_train(args)
        if args.command == "eval":
            return cmd_eval(args)
        return cmd_rollout(args)
    except _UsageError as exc:
        return int(exc.code)
    except (config_mod.ConfigFileError, ConfigError, FileNotFoundError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (PolicyFormatError, ValueError, RuntimeError, OSError) as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
