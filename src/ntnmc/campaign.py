"""Campaign driver: one policy at a time over a common list of seeds.

Every (policy, seed) run draws its randomness from streams derived only from
(base_seed, seed), never from the policy, so runs with the same seed see the
same drop, channel and measurement noise and policies can be compared pairwise.
Parallel execution hands completed runs back in submission order, so results
and every derived artifact are identical for any --jobs value.
"""

import multiprocessing
from dataclasses import replace

from .simulation import run_single
from .stats import summarize_setting


def once_each(items, what):
    """`items`, which must hold at least one entry and none twice, since a
    repeated run would be pooled twice into the summary."""
    if not items:
        raise ValueError(f"no {what} given")
    repeated = sorted({x for x in items if items.count(x) > 1})
    if repeated:
        raise ValueError(f"{what} listed more than once: {repeated}")
    return items


def expand_runs(policies, seeds):
    return [(policy, seed) for policy in policies for seed in seeds]


def _run_task(task):
    cfg, seed = task
    return run_single(cfg, seed)


def run_campaign(cfg, policies, seeds, jobs=1):
    """Run all (policy, seed) pairs; returns (summaries, results).

    Results are ordered policy-major in invocation order, then by seed.
    """
    once_each(policies, "policies")
    once_each(seeds, "seeds")
    tasks = [(replace(cfg, policy=policy), seed)
             for policy, seed in expand_runs(policies, seeds)]
    jobs = min(jobs, len(tasks))    # a worker beyond one per run stays idle
    if jobs <= 1:
        results = [_run_task(t) for t in tasks]
    else:
        with multiprocessing.Pool(processes=jobs) as pool:
            results = pool.map(_run_task, tasks, chunksize=1)

    summaries = []
    per_policy = len(seeds)
    for i, policy in enumerate(policies):
        chunk = results[i * per_policy:(i + 1) * per_policy]
        summaries.append(summarize_setting(policy, chunk))
    return summaries, results
