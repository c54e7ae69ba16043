"""Command-line front end: train, evaluate and roll out policies.

Exit codes: 0 success, 1 usage, 2 configuration/IO, 3 runtime failure.
Every CSV written carries a header with the resolved config hash, the
master seed and the package version; re-running with the same inputs
reproduces each file byte-for-byte.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace

from . import __version__, config as config_mod, policy as policy_mod, trainer
from .policy import PolicyFormatError
from .runlog import write_csv
from .simenv import TerrainPlane, terrain_grid
from .trainer import derive_seed, evaluate, make_eval_grid

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_CONFIG = 2
EXIT_RUNTIME = 3


class _UsageError(SystemExit):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise _UsageError(EXIT_USAGE)


def _build_parser() -> _Parser:
    parser = _Parser(prog="slopetrot", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="key=value config file")
        p.add_argument("--set", action="append", default=[], metavar="SEC.KEY=VAL",
                       help="override one config entry (repeatable)")
        p.add_argument("--seed", type=int, help="master seed override")
        p.add_argument("--out", help="output directory (default from config)")

    p_train = sub.add_parser("train", help="run guided init plus the search loop")
    common(p_train)
    p_train.add_argument("--iters", type=int, help="iteration count override")
    p_train.add_argument("--workers", type=int, help="rollout worker count override")
    p_train.add_argument("--init-policy", help="start from this policy file instead of guided init")
    p_train.add_argument("--no-guided", action="store_true", help="start from the zero policy")

    p_eval = sub.add_parser("eval", help="score a policy over the terrain grid")
    common(p_eval)
    p_eval.add_argument("--policy", required=True, help="policy file to evaluate")
    p_eval.add_argument("--incline", "--inclination", dest="incline", type=float,
                        help="restrict to one inclination (deg)")
    p_eval.add_argument("--orientation", type=float, help="restrict to one slope yaw (deg)")
    p_eval.add_argument("--friction", type=float, help="friction coefficient override")

    p_roll = sub.add_parser("rollout", help="run one logged episode")
    common(p_roll)
    p_roll.add_argument("--policy", help="policy file (default: freshly fitted guided init)")
    p_roll.add_argument("--incline", "--inclination", dest="incline", type=float, default=0.0)
    p_roll.add_argument("--orientation", type=float, default=0.0)
    p_roll.add_argument("--friction", type=float, default=0.65)
    p_roll.add_argument("--push", type=float, help="lateral push force (N, signed)")
    p_roll.add_argument("--push-at", type=float, default=0.7, help="push start time (s)")
    p_roll.add_argument("--push-dur", type=float, default=0.2, help="push duration (s)")
    return parser


def _load_run_config(args) -> config_mod.RunConfig:
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
    if args.seed is not None:
        cfg = replace(cfg, run=replace(cfg.run, master_seed=args.seed))
    if args.out is not None:
        cfg = replace(cfg, run=replace(cfg.run, out_dir=args.out))
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
    # Flag overrides go into the config itself, so the hash and
    # config_resolved.cfg describe the run that actually happens.
    if args.iters is not None:
        cfg = replace(cfg, train=replace(cfg.train, iterations=args.iters))
    if args.workers is not None:
        cfg = replace(cfg, ars=replace(cfg.ars, workers=args.workers))
    if args.no_guided:
        cfg = replace(cfg, train=replace(cfg.train, guided=False))
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
    policy_mod.save_policy(result.matrix, os.path.join(out_dir, "policy_final.txt"),
                           metadata={"iteration": params.iterations - 1, "seed": hp.master_seed})
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
        combos = filtered or [(c[0], args.orientation) for c in combos]
    return combos


def cmd_eval(args) -> int:
    cfg = _load_run_config(args)
    matrix = policy_mod.load_policy(args.policy)
    combos = _eval_combos(args)
    friction = args.friction if args.friction is not None else cfg.train.eval_friction
    grid = make_eval_grid(combos, cfg.run.master_seed, friction)
    mean, per_terrain = evaluate(matrix, grid, cfg.bundle(), cfg.train.episode_len)

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


def cmd_rollout(args) -> int:
    cfg = _load_run_config(args)
    bundle = cfg.bundle()
    policy_note = args.policy or "guided-init (default)"
    if args.policy:
        matrix = policy_mod.load_policy(args.policy)
    else:
        matrix = trainer.fit_guided(bundle, cfg.rand, cfg.run.master_seed, cfg.train).matrix

    terrain = TerrainPlane(inclination_deg=args.incline, yaw_deg=args.orientation,
                           friction=args.friction)
    env = bundle.make_env()
    rand = replace(cfg.rand, push_enabled=False)
    seed = derive_seed(cfg.run.master_seed, trainer._ROLLOUT_CLI_STREAM)
    obs = env.reset(terrain=terrain, rand=rand, seed=seed)
    push_note = "none"
    if args.push is not None:
        start = round(args.push_at / cfg.sim.dt)
        stop = round((args.push_at + args.push_dur) / cfg.sim.dt)
        env.set_push(start, stop, args.push)
        push_note = f"{args.push}N steps [{start},{stop})"

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
    except _UsageError as exc:
        return int(exc.code)
    try:
        if args.command == "train":
            return cmd_train(args)
        if args.command == "eval":
            return cmd_eval(args)
        return cmd_rollout(args)
    except (config_mod.ConfigFileError, FileNotFoundError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (PolicyFormatError, ValueError, RuntimeError, OSError) as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
