"""Campaign driver: one policy at a time over a common list of seeds.

Every (policy, seed) run draws its randomness from streams derived only from
(base_seed, seed), never from the policy, so runs with the same seed see the
same drop and channel, and the policies that measure the same measurement
noise, and policies can be compared pairwise.
Parallel execution hands completed runs back in submission order, so results
and every derived artifact are identical for any --jobs value.
"""

import multiprocessing
from dataclasses import replace

from .config import POLICIES
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


def check_policies(policies):
    """`policies`, each one of `config.POLICIES` and none twice."""
    for p in policies:
        if p not in POLICIES:
            raise ValueError(
                f"unknown policy {p!r}, expected one of {POLICIES}")
    return once_each(policies, "policies")


def check_jobs(jobs):
    """`jobs`, a worker count: an int of at least 1."""
    if isinstance(jobs, bool) or not isinstance(jobs, int) or jobs < 1:
        raise ValueError(f"jobs must be an int >= 1, got {jobs!r}")


def _run_task(task):
    cfg, seed = task
    return run_single(cfg, seed)


def run_campaign(cfg, policies, seeds, jobs=1):
    """Run all (policy, seed) pairs; returns (summaries, results).

    Results are ordered policy-major in invocation order, then by seed.
    """
    check_policies(policies)
    for s in seeds:     # a bool is an int, but not a seed
        if isinstance(s, bool) or not isinstance(s, int):
            raise ValueError(f"seed {s!r} is not an int")
    once_each(seeds, "seeds")
    check_jobs(jobs)
    tasks = [(replace(cfg, policy=policy), seed)
             for policy in policies for seed in seeds]
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
