"""tools/step_split.py: the time split of eval_grid's episodes by part."""

import importlib.util
from pathlib import Path

_SPEC = importlib.util.spec_from_file_location(
    "step_split", Path(__file__).resolve().parent.parent / "tools" / "step_split.py")
step_split = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(step_split)


def test_parts_sum_to_at_most_the_total():
    result = step_split.split(seed=3, rounds=1, episodes=2)
    assert result["episodes"] == 2
    parts = result["per_episode_us"]
    assert all(parts[name] >= 0.0 for name in step_split.PARTS)
    # The rest of each episode, in whole nanoseconds before the division,
    # so it is negative exactly when the parts overrun the total.
    assert parts["loop"] >= 0.0
    assert abs(sum(parts[name] for name in step_split.PARTS) + parts["loop"] - parts["total"]) \
        <= 1e-6 * parts["total"]
    calls = result["calls_per_episode"]
    assert calls["reset"] == 1 and calls["step"] == 400 and calls["plan"] == 10
    assert calls["torso"] == 11 and calls["controller"] == 10 and calls["capture"] > 0
    assert result["make_env_in_process"] <= 1


def test_timers_are_removed_afterwards():
    from slopetrot import cli, policy, simenv, trainer

    before = (simenv.SlopedTerrainEnv.step, simenv.plan_half_cycle, trainer.rollout_stats,
              policy.linear_controller, cli.make_eval_grid)
    step_split.split(seed=3, rounds=1, episodes=1)
    assert (simenv.SlopedTerrainEnv.step, simenv.plan_half_cycle, trainer.rollout_stats,
            policy.linear_controller, cli.make_eval_grid) == before
