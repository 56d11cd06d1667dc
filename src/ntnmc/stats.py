"""Result aggregation and artifact writing.

Per-UE throughput records are pooled across the runs of a setting before
computing distribution statistics (mean, percentiles, CDF); the add and
release counts are averaged over runs. Each run's ledger of counters
(`RunResult.counters`) goes whole into the manifest. All files use fixed
float formats so that repeated identical invocations are byte for byte
identical.
"""

import dataclasses
import json
import os
from dataclasses import dataclass


def percentile(values, p):
    """Inclusive linear-interpolation percentile (0 <= p <= 100)."""
    if not values:
        raise ValueError("percentile of empty sequence")
    if not 0.0 <= p <= 100.0:
        raise ValueError(f"percentile rank out of range: {p}")
    xs = sorted(values)
    if len(xs) == 1:
        return float(xs[0])
    h = (len(xs) - 1) * p / 100.0
    lo = int(h)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (h - lo) * (xs[hi] - xs[lo])


def mean(values):
    if not values:
        raise ValueError("mean of empty sequence")
    return sum(values) / len(values)


@dataclass
class SettingSummary:
    setting: str
    pooled_kbps: list
    mean_kbps: float
    p5_kbps: float
    avg_sn_adds: float
    avg_sn_releases: float


def summarize_setting(setting, results):
    """Pool per-UE records across a setting's runs and average its counters."""
    n_ue = len(results[0].throughput_kbps)
    pooled = []
    for r in results:
        if len(r.throughput_kbps) != n_ue:
            raise ValueError("runs within a setting disagree on UE count")
        pooled.extend(r.throughput_kbps)
    n = len(results)
    return SettingSummary(
        setting=setting,
        pooled_kbps=pooled,
        mean_kbps=mean(pooled),
        p5_kbps=percentile(pooled, 5.0),
        avg_sn_adds=sum(r.counters["sn_adds"] for r in results) / n,
        avg_sn_releases=sum(r.counters["sn_releases"] for r in results) / n,
    )


def cdf_points(values):
    """(value, cumulative fraction) at each distinct value; ends at 1.0."""
    xs = sorted(values)
    n = len(xs)
    return [(x, (i + 1) / n) for i, x in enumerate(xs)
            if i + 1 == n or xs[i + 1] != x]


def ensure_writable_dir(path):
    """Create the output directory and prove it is writable before any run."""
    os.makedirs(path, exist_ok=True)
    probe = os.path.join(path, ".write-probe")
    try:
        with open(probe, "w") as fh:
            fh.write("ok")
        os.remove(probe)
    except OSError as exc:
        raise OSError(f"output directory not writable: {path}: {exc}") from exc


def emit_results(out_dir, cfg, policies, seeds, summaries, results):
    """Write summary.csv, per-setting CDFs, per-run event logs, manifest."""
    with open(os.path.join(out_dir, "summary.csv"), "w") as fh:
        fh.write("setting,mean_kbps,p5_kbps,avg_sn_adds,avg_sn_releases\n")
        for s in summaries:
            fh.write(f"{s.setting},{s.mean_kbps:.6f},{s.p5_kbps:.6f},"
                     f"{s.avg_sn_adds:.6f},{s.avg_sn_releases:.6f}\n")

    for s in summaries:
        with open(os.path.join(out_dir, f"cdf_{s.setting}.csv"), "w") as fh:
            fh.write("throughput_kbps,cumulative_fraction\n")
            for x, frac in cdf_points(s.pooled_kbps):
                fh.write(f"{x:.6f},{frac:.9f}\n")

    for r in results:
        name = f"events_{r.policy}_{r.seed}.csv"
        with open(os.path.join(out_dir, name), "w") as fh:
            fh.write("time_s,event,ue_id,mn_id,sn_id,cause\n")
            for t_ns, kind, ue, mn_id, sn_id, cause in r.events:
                fh.write(f"{t_ns / 1e9:.9f},{kind},{ue},{mn_id},{sn_id},{cause}\n")

    manifest = {
        "artifact_version": 1,
        "policies": list(policies),
        "seeds": list(seeds),
        "config": dataclasses.asdict(cfg),
        "runs": [dict(r.counters, setting=r.policy, seed=r.seed)
                 for r in results],
    }
    with open(os.path.join(out_dir, "manifest.json"), "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
