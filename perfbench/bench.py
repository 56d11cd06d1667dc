"""Measurement loop, output checks and reporting of the ntnmc benchmark.

A workload is repeated, closed loop, until the next repeat would end past
`--seconds`. Repeats come in three modes:

* count: the four exact-work-counter probes only. Always the first repeat,
  on every CPU and, for a campaign, through the process pool; it also warms
  up and fixes the reference digests. Not timed.
* plain: no probes; only `run_single` is swapped for a stand-in that times
  Scenario construction and the run apart. Pinned to one CPU. The
  end-to-end metrics come from these repeats.
* trace: every layer probe (see probes.py). With `--trace 1`, plain and
  traced repeats alternate after the counting one, and the difference of
  their median wall times is the tracing overhead.

Times are reported in reference seconds: host times scaled by how fast a
fixed calibration kernel ran around them (see `calibration_seconds`).

Every repeat is checked: bit conservation (raised by `Scenario.finish`),
`grant_violations == 0`, a SHA-256 digest per run that must equal the first
repeat's, the same for the emitted artifacts, and exact work counters that
must repeat. A run failing any of these counts in `failed`.
"""

import contextlib
import dataclasses
import hashlib
import heapq
import json
import math
import os
import random
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import ntnmc.campaign
from ntnmc import load_config
from ntnmc.simulation import Scenario
from ntnmc.stats import emit_results, ensure_writable_dir, summarize_setting

from probes import KINDS, Probes, Tracer, new_record, work_counters

PLAIN, COUNT, TRACE = "plain", "count", "trace"
RUN_SEEDS = [1]
MIN_PLAIN_REPEATS = 2
IMPORT_SAMPLES = 5
# Seconds the calibration kernel takes on the reference host; timings are
# reported in reference seconds (see `calibration_seconds`).
CAL_REF_S = 0.1


def cpu_seconds():
    """User+sys CPU of this process and of every child it has waited for."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        ru = resource.getrusage(who)
        total += ru.ru_utime + ru.ru_stime
    return total


def peak_rss_mb():
    """Peak resident set of this process, where every timed repeat runs;
    its children (the count repeat's pool workers, the import probes) are
    not part of any timed repeat."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def import_seconds(src):
    """Median time to import the package in a fresh interpreter."""
    code = ("import time; t = time.perf_counter(); "
            "import ntnmc, ntnmc.campaign, ntnmc.stats; "
            "print(time.perf_counter() - t)")
    env = dict(os.environ, PYTHONPATH=str(src))
    samples = []
    for _ in range(IMPORT_SAMPLES):
        out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                             capture_output=True, text=True, timeout=60)
        samples.append(float(out.stdout))
    return statistics.median(samples)


class _Cell:
    __slots__ = ("gain", "offset")

    def __init__(self, gain, offset):
        self.gain = gain
        self.offset = offset

    def level(self, x):
        return self.gain * x + self.offset


def calibration_seconds(n=60_000):
    """Host seconds for a fixed pure-Python kernel shaped like the
    simulator's inner loops: a heap of tuples, dict counters, attribute
    access and float math.

    The kernel does not touch ntnmc, so its time changes only with the
    speed the host gives this CPU. On a shared host that speed drifts by
    tens of percent within seconds, so a sample is taken before each run
    and after each repeat, and times are scaled by CAL_REF_S over the
    samples around them (see `set_scales`). The samples' own time is taken
    out of the repeat's.
    """
    t0 = time.perf_counter()
    rng = random.Random(1)
    cell = _Cell(1.5, 2.0)
    heap, counts, acc = [], {}, 0.0
    for i in range(n):
        heapq.heappush(heap, (rng.random(), i, cell))
        key = i % 997
        counts[key] = counts.get(key, 0) + 1
        acc += math.log2(1.0 + cell.level(i % 13))
        if len(heap) > 500:
            heapq.heappop(heap)
    return time.perf_counter() - t0


def run_digest(result):
    """SHA-256 over every field of a RunResult (per-UE throughput, event log,
    counters); repr of a float is exact, so equal digests mean equal bits."""
    fields = [(f.name, getattr(result, f.name))
              for f in dataclasses.fields(result)]
    return hashlib.sha256(repr(fields).encode()).hexdigest()


def tree_digest(path):
    h = hashlib.sha256()
    for name in sorted(os.listdir(path)):
        h.update(name.encode())
        h.update(Path(path, name).read_bytes())
    return h.hexdigest()


class Repeat:
    """Outcome of one repeat of a workload."""

    def __init__(self, mode):
        self.mode = mode
        self.start = self.end = 0.0
        self.wall_s = self.cpu_s = self.setup_s = 0.0
        self.run_s = []             # run_to_end of each run
        self.span_s = []            # construction plus run_to_end
        self.results = []
        self.summaries = []
        self.artifact_digest = None
        self.records = {}
        self.busy_frac = 0.0
        self.cal_samples = []       # calibration sample before each run
        self.run_scales = []        # reference seconds per host second
        self.scale = 1.0            # the same, for the repeat as a whole
        self.error = None

    def spans(self):
        """Coarse spans (name, start_s, end_s, children) on the host's
        monotonic clock, which forked pool workers share."""
        runs = []
        for r in self.results:
            t0, t1, t2 = r.bench_probe[:3]
            runs.append((f"run {r.policy}/{r.seed}", t0, t2,
                         [("setup", t0, t1, []), ("run_to_end", t1, t2, [])]))
        return ("repeat", self.start, self.end, runs)


def make_run_single(tracer, calibrate):
    """Stand-in for `run_single` that times construction and the run apart
    and hands the run's probe records back on its result, since it runs in
    a forked pool worker when `jobs > 1`. With `calibrate`, it first takes
    a calibration sample, whose host and CPU time it also reports."""
    build = tracer.wrap("simulation.setup", Scenario)

    def run_single(cfg, seed):
        cal_s = cal_cpu_s = 0.0
        if calibrate:
            cpu0 = time.process_time()
            cal_s = calibration_seconds()
            cal_cpu_s = time.process_time() - cpu0
        saved = tracer.scope()
        try:
            t0 = time.perf_counter()
            scenario = build(cfg, seed)
            t1 = time.perf_counter()
            result = scenario.run_to_end()
            t2 = time.perf_counter()
        finally:
            records = tracer.restore(saved)
        result.bench_probe = (t0, t1, t2, records, cal_s, cal_cpu_s)
        return result
    return run_single


def run_repeat(spec, seed, mode, jobs, work_dir):
    """One repeat of a workload. An exception is kept on the repeat, not
    raised; it counts every run of the repeat as failed."""
    rep = Repeat(mode)
    tracer = Tracer(timed=(mode == TRACE))
    probes = contextlib.nullcontext() if mode == PLAIN else Probes(tracer)
    run_single = make_run_single(tracer, calibrate=(mode != COUNT))
    saved_run_single = ntnmc.campaign.run_single
    ntnmc.campaign.run_single = run_single
    overrides = dict(spec["overrides"], base_seed=seed)
    if jobs is None:
        overrides["policy"] = spec["policies"][0]
    cpu0, rep.start = cpu_seconds(), time.perf_counter()
    try:
        with probes:
            cfg = load_config(environ={}, **overrides)
            rep.setup_s = time.perf_counter() - rep.start
            if jobs is None:
                rep.results = [run_single(cfg, RUN_SEEDS[0])]
            else:
                policies, seeds = spec["policies"], RUN_SEEDS
                with tempfile.TemporaryDirectory(dir=work_dir) as out:
                    ensure_writable_dir(out)
                    tc = time.perf_counter()
                    rep.summaries, rep.results = ntnmc.campaign.run_campaign(
                        cfg, policies, seeds, jobs=jobs)
                    campaign_s = time.perf_counter() - tc
                    tracer.wrap("stats.emit", emit_results)(
                        out, cfg, policies, seeds, rep.summaries, rep.results)
                    rep.artifact_digest = tree_digest(out)
    except Exception as exc:        # a failed repeat is reported, not fatal
        rep.error = f"{type(exc).__name__}: {exc}"
    finally:
        ntnmc.campaign.run_single = saved_run_single
    rep.end = time.perf_counter()
    rep.wall_s = rep.end - rep.start
    rep.cpu_s = cpu_seconds() - cpu0
    if rep.error is not None:
        return rep
    for r in rep.results:
        t0, t1, t2, records, cal_s, cal_cpu_s = r.bench_probe
        rep.setup_s += t1 - t0
        rep.run_s.append(t2 - t1)
        rep.span_s.append(t2 - t0)
        tracer.merge(records)
        rep.cal_samples.append(cal_s)
        rep.wall_s -= cal_s
        rep.cpu_s -= cal_cpu_s
    if jobs is not None:
        rep.busy_frac = sum(rep.run_s) / (jobs * campaign_s)
    rep.records = dict(tracer.records)
    return rep


class Checker:
    """Counts runs attempted and failed, comparing every repeat with the
    first one."""

    def __init__(self, runs_per_repeat):
        self.runs_per_repeat = runs_per_repeat
        self.attempted = 0
        self.failed = 0
        self.notes = []
        self.digests = None         # per-run digests of the first repeat
        self.artifacts = None
        self.counters = None

    def check(self, label, rep):
        self.attempted += self.runs_per_repeat
        if rep.error is not None:
            self.failed += self.runs_per_repeat
            self.notes.append(f"{label}: raised {rep.error}")
            return
        digests = [run_digest(r) for r in rep.results]
        if self.digests is None:
            self.digests, self.artifacts = digests, rep.artifact_digest
        failed = 0
        for r, digest, ref in zip(rep.results, digests, self.digests):
            bad = []
            if r.grant_violations:
                bad.append(f"{r.grant_violations} grant violations")
            if digest != ref:
                bad.append("result digest differs from the first repeat")
            if bad:
                failed += 1
                self.notes.append(f"{label} {r.policy}/{r.seed}: "
                                  + ", ".join(bad))
        whole = []
        if rep.artifact_digest != self.artifacts:
            whole.append("emitted artifacts differ from the first repeat")
        if rep.mode != PLAIN:
            counters = work_counters(rep.records)
            if self.counters is None:
                self.counters = counters
            elif counters != self.counters:
                whole.append(f"work counters {counters} differ from "
                             f"{self.counters}")
        if whole:
            failed = self.runs_per_repeat
            self.notes.extend(f"{label}: {w}" for w in whole)
        self.failed += failed

    def workload_digest(self):
        return hashlib.sha256(
            repr((self.digests, self.artifacts)).encode()).hexdigest()


def fingerprint(spec, rep):
    """Model outputs per setting; informational, not gated."""
    summaries = rep.summaries or [
        summarize_setting(spec["policies"][0], rep.results)]
    return [(s.setting, s.mean_kbps, s.p5_kbps, s.avg_sn_adds,
             s.avg_sn_releases) for s in summaries]


def layer_metrics(records, n):
    """Per-module metrics from probe records summed over `n` traced repeats,
    as means per repeat."""
    def rec(name):
        return records.get(name, new_record())

    def frac(name):
        calls, hits = rec(name)[0], rec(name)[1]
        return hits / calls if calls else 0.0

    m = {}

    def count(key, name):
        m[key] = (rec(name)[0] / n, "count")

    def self_s(key, name):
        m[key] = (rec(name)[3] / n, "s")

    def total_s(key, *names):
        m[key] = (sum(rec(name)[2] for name in names) / n, "s")

    m["engine.events"] = (work_counters(records)["engine.events"] / n, "count")
    count("engine.cancelled", "engine.cancel")
    self_s("engine.self_s", "engine.run_until")
    for kind in KINDS:
        count(f"simulation.{kind}.calls", "simulation." + kind)
        self_s(f"simulation.{kind}.self_s", "simulation." + kind)
    total_s("simulation.setup_s", "simulation.setup")
    for layer in ("dataplane.schedule_tti", "dataplane.pdcp_receive",
                  "traffic_split.drain_forward", "traffic_split.requests",
                  "mc_control.evaluate", "channel.link_state"):
        count(layer + ".calls", layer)
        self_s(layer + ".self_s", layer)
    calls = rec("dataplane.schedule_tti")[0]
    m["dataplane.schedule_tti.idle_frac"] = (
        1.0 - frac("dataplane.schedule_tti") if calls else 0.0, "frac")
    m["traffic_split.drain_forward.useful_frac"] = (
        frac("traffic_split.drain_forward"), "frac")
    count("mc_control.admission.calls", "mc_control.admission")
    m["mc_control.admission.ack_frac"] = (frac("mc_control.admission"), "frac")
    count("mc_control.release.calls", "mc_control.release")
    self_s("channel.attach_ue.self_s", "channel.attach_ue")
    total_s("geometry.build_s", "geometry.build_tn_layout",
            "geometry.ntn_beam_grid", "geometry.drop_ues_in_sector")
    total_s("stats.summarize_s", "stats.summarize")
    total_s("stats.emit_s", "stats.emit")
    return m


def write_trace(path, args, reps, records):
    """Write the coarse spans and per-name records of the traced repeats."""
    path.write_text(json.dumps({
        "workload": args.workload, "seed": args.seed,
        "spans": [r.spans() for r in reps],
        "records": {k: dict(zip(("calls", "hits", "total_s", "self_s"), v))
                    for k, v in sorted(records.items())},
    }, indent=1) + "\n")


def set_scales(rep, after):
    """Scale each run by the calibration samples on either side of it, and
    the rest of the repeat by their mean. `after` is the sample taken just
    after the repeat."""
    samples = rep.cal_samples + [after]
    rep.run_scales = [2 * CAL_REF_S / (a + b)
                      for a, b in zip(samples, samples[1:])]
    rest_s = rep.wall_s - sum(rep.span_s)
    reference_s = (sum(s * k for s, k in zip(rep.span_s, rep.run_scales))
                   + rest_s * statistics.fmean(rep.run_scales))
    rep.scale = reference_s / rep.wall_s


def next_mode(trace, reps):
    return TRACE if trace and len(reps[PLAIN]) > len(reps[TRACE]) else PLAIN


def run(args, spec, root):
    started = time.perf_counter()
    deadline = started + args.seconds
    work_dir = root / ".perfbench_work"
    work_dir.mkdir(exist_ok=True)
    checker = Checker(len(spec["policies"]) * len(RUN_SEEDS))

    # The count repeat goes first, on every CPU: for a campaign it runs
    # through the process pool, and the inline repeats must match it.
    count = run_repeat(spec, args.seed, COUNT,
                       spec.get("pool_jobs"), work_dir)
    checker.check("repeat 1 (count)", count)
    reps = {COUNT: [count], PLAIN: [], TRACE: []}
    # Timed repeats are pinned to one CPU, so that the calibration samples
    # measure the CPU they run on.
    os.sched_setaffinity(0, sorted(os.sched_getaffinity(0))[:1])
    import_s = import_seconds(root / "src")
    first_cal = calibration_seconds()
    while count.error is None:
        mode = next_mode(args.trace, reps)
        rep = run_repeat(spec, args.seed, mode, spec.get("jobs"), work_dir)
        after = calibration_seconds()
        done = sum(len(v) for v in reps.values()) + 1
        checker.check(f"repeat {done} ({mode})", rep)
        reps[mode].append(rep)
        if rep.error is not None:
            break
        set_scales(rep, after)
        enough = (len(reps[TRACE]) >= 1 and len(reps[PLAIN]) >= 1
                  if args.trace else len(reps[PLAIN]) >= MIN_PLAIN_REPEATS)
        upcoming = next_mode(args.trace, reps)
        estimate = max(r.wall_s for r in reps[upcoming] or reps[mode])
        if enough and time.perf_counter() + estimate > deadline:
            break

    plain, traced = reps[PLAIN], reps[TRACE]
    correct = (checker.failed == 0 and bool(plain)
               and (bool(traced) or not args.trace))
    for note in checker.notes:
        print("FAIL", note)
    print(f"workload {args.workload} seed {args.seed}: "
          + ", ".join(f"{len(v)} {k}" for k, v in reps.items())
          + " repeats")
    for mode, rs in reps.items():
        print(f"{mode} repeats, host wall_s x scale: " + " ".join(
            f"{r.wall_s:.4f}x{r.scale:.3f}" for r in rs))
    if count.error is None:
        for setting, mean_kbps, p5_kbps, adds, releases in fingerprint(
                spec, count):
            print(f"fingerprint {setting}: mean_kbps={mean_kbps:.6f} "
                  f"p5_kbps={p5_kbps:.6f} adds={adds:.2f} "
                  f"releases={releases:.2f}")
        print("counters " + " ".join(
            f"{k}={v}" for k, v in work_counters(count.records).items()))
        print(f"digest {checker.workload_digest()}")
    print(f"failed_frac {checker.failed / checker.attempted:.6f} "
          f"({checker.failed} of {checker.attempted} runs)")

    def scaled_median(attr, repeats):
        return statistics.median(getattr(r, attr) * r.scale for r in repeats)

    per_repeat = [[s * k for s, k in zip(r.run_s, r.run_scales)]
                  for r in plain]
    run_s = sorted(s for runs in per_repeat for s in runs)
    metrics = {}
    if correct and not args.trace:
        n = len(run_s)
        if n > 10:
            print(f"run_s_p{100 * (n - 10) // n} {run_s[n - 11]:.6g} s "
                  f"(highest percentile with 10 of {n} runs beyond it)")
        else:
            print(f"run_s: {n} runs, too few for a percentile with 10 beyond")
        metrics = {
            "wall_s": (scaled_median("wall_s", plain), "s"),
            "cpu_s": (scaled_median("cpu_s", plain), "s"),
            # Median of each repeat's median run: the pooled median of a
            # campaign falls between two policies' runs and jumps with noise.
            "run_s_p50": (statistics.median(
                statistics.median(runs) for runs in per_repeat), "s"),
            "setup_s": (import_s * CAL_REF_S / first_cal
                        + scaled_median("setup_s", plain), "s"),
            "peak_rss_mb": (peak_rss_mb(), "MB"),
        }
    elif correct:
        total = Tracer(timed=True)
        for r in traced:
            total.merge(r.records, r.scale)
        metrics = layer_metrics(total.records, len(traced))
        metrics["campaign.worker_busy_frac"] = (count.busy_frac, "frac")
        metrics["trace.overhead_s"] = (
            scaled_median("wall_s", traced) - scaled_median("wall_s", plain),
            "s")
        write_trace(work_dir / f"trace_{args.workload}_{args.seed}.json",
                    args, traced, total.records)
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    print(json.dumps({
        "correct": correct,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1
