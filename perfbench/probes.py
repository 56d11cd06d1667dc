"""Layer probes for the ntnmc benchmark: timed spans and counters placed
around the calls into each module, from outside the package.

A probe replaces one attribute (a module-level function or a class method)
with a wrapper for the duration of a `with Probes(...)` block and restores it
afterwards. Each probe patches the binding its caller actually uses:
`simulation.py` imports `schedule_tti` and the geometry builders by name, so
those are patched on `ntnmc.simulation`; it reaches `mc_control` and
`traffic_split` through module attributes, so those are patched on their
own modules. Event handlers are wrapped one by one as they are scheduled,
at `Simulator.schedule_at`, and named by the kind of event they handle.

Two modes share the same patch points:

* counting (`timed=False`): a call count and, where a layer can waste work,
  a count of useful outcomes. These are exact and repeat run to run.
* tracing (`timed=True`): additionally a span per call with self time
  (span minus the part covered by nested spans).

Fine-grained spans (hundreds of thousands per run) are folded on the fly
into one record per name, [calls, hits, total_s, self_s], so memory stays
flat. Coarse spans (each repeat and each simulation run in it) are kept
individually by bench.py.
"""

import time
from collections import defaultdict

import ntnmc.campaign
import ntnmc.channel
import ntnmc.dataplane
import ntnmc.engine
import ntnmc.mc_control
import ntnmc.simulation
import ntnmc.traffic_split

# Handler function name -> event kind. Anything else is reported as "other",
# so a change that adds or merges event kinds still runs.
EVENT_KINDS = {
    "_on_tti": "tti",
    "_on_arrival": "arrival",
    "_deliver_tb": "deliver_tb",
    "_on_measurement": "measurement",
    "_on_eval": "eval",
    "_on_data_request_cycle": "data_request",
    "_on_timer": "pdcp_timer",
    "msg1": "reconfig",
    "msg2": "reconfig",
    "msg3": "reconfig",
}
KINDS = ("tti", "arrival", "deliver_tb", "measurement", "eval",
         "data_request", "pdcp_timer", "reconfig", "other")


def new_record():
    return [0, 0, 0.0, 0.0]     # calls, hits, total_s, self_s


class Tracer:
    """Per-name records plus a stack of open spans for self-time accounting.

    `records` can be swapped for a fresh dict around one simulation run
    (`scope`), which is how the records of a run made in a pool worker
    travel back to the parent with its result.
    """

    def __init__(self, timed):
        self.timed = timed
        self.records = defaultdict(new_record)
        self._stack = []        # child seconds of each open timed span

    def wrap(self, name, fn, outcome=None):
        """Wrap `fn` so that each call is counted under `name`.

        `outcome(result)` -> bool marks a call as useful (the record's hits).
        """
        tracer = self
        if not self.timed:
            if outcome is None:
                def counted(*args, **kwargs):
                    tracer.records[name][0] += 1
                    return fn(*args, **kwargs)
            else:
                def counted(*args, **kwargs):
                    result = fn(*args, **kwargs)
                    rec = tracer.records[name]
                    rec[0] += 1
                    rec[1] += bool(outcome(result))
                    return result
            return counted

        stack = self._stack
        clock = time.perf_counter

        def timed(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = clock() - t0
                stack.pop()
                if stack:
                    stack[-1][0] += dur
                rec = tracer.records[name]
                rec[0] += 1
                rec[2] += dur
                rec[3] += dur - frame[0]
            if outcome is not None:
                rec[1] += bool(outcome(result))
            return result
        return timed

    def scope(self):
        """Swap in fresh records; returns the previous ones for `restore`."""
        saved = self.records
        self.records = defaultdict(new_record)
        return saved

    def restore(self, saved):
        run_records = dict(self.records)
        self.records = saved
        return run_records

    def merge(self, records, scale=1.0):
        """Add `records`, multiplying their times by `scale`."""
        for name, (calls, hits, total_s, self_s) in records.items():
            mine = self.records[name]
            mine[0] += calls
            mine[1] += hits
            mine[2] += total_s * scale
            mine[3] += self_s * scale


def _event_kind(fn):
    return EVENT_KINDS.get(getattr(fn, "__name__", ""), "other")


class Probes:
    """Installs the probes on enter and restores every binding on exit.

    Counting mode installs only the probes behind the exact work counters;
    tracing mode installs every layer probe.
    """

    def __init__(self, tracer):
        self.tracer = tracer
        self._saved = []

    def _patch(self, owner, attr, name, outcome=None):
        orig = getattr(owner, attr)
        self._saved.append((owner, attr, orig))
        setattr(owner, attr, self.tracer.wrap(name, orig, outcome))

    def __enter__(self):
        tr = self.tracer
        engine, sim = ntnmc.engine, ntnmc.simulation
        mc, ts, ch = ntnmc.mc_control, ntnmc.traffic_split, ntnmc.channel

        orig_schedule_at = engine.Simulator.schedule_at

        def schedule_at(simulator, t, fn, *args):
            handler = tr.wrap("simulation." + _event_kind(fn), fn)
            return orig_schedule_at(simulator, t, handler, *args)

        self._saved.append((engine.Simulator, "schedule_at", orig_schedule_at))
        engine.Simulator.schedule_at = schedule_at
        self._patch(engine.Event, "cancel", "engine.cancel")
        self._patch(sim, "schedule_tti", "dataplane.schedule_tti", bool)
        self._patch(ts, "drain_forward", "traffic_split.drain_forward",
                    lambda moved: moved > 0)
        self._patch(mc, "handle_sn_addition_request", "mc_control.admission",
                    lambda decision: decision.verdict == mc.ACK)
        if not tr.timed:
            return self
        self._patch(engine.Simulator, "run_until", "engine.run_until")
        self._patch(ntnmc.dataplane.PdcpReceiver, "receive",
                    "dataplane.pdcp_receive")
        self._patch(ts, "send_periodic_requests", "traffic_split.requests")
        for policy in ("mcs", "rsrp", "bo"):
            self._patch(mc, f"evaluate_{policy}_based", "mc_control.evaluate")
        self._patch(mc, "release_secondary", "mc_control.release")
        self._patch(ch.NtnChannel, "link_state", "channel.link_state")
        self._patch(ch.TnChannel, "attach_ue", "channel.attach_ue")
        for fn in ("build_tn_layout", "ntn_beam_grid", "drop_ues_in_sector"):
            self._patch(sim, fn, "geometry." + fn)
        self._patch(ntnmc.campaign, "summarize_setting", "stats.summarize")
        return self

    def __exit__(self, *exc):
        while self._saved:
            owner, attr, orig = self._saved.pop()
            setattr(owner, attr, orig)
        return False


def work_counters(records):
    """The exact work counters: these must repeat across repeats."""
    dispatched = sum(records.get("simulation." + k, new_record())[0]
                     for k in KINDS)
    return {
        "engine.events": dispatched,
        "dataplane.schedule_tti.calls":
            records.get("dataplane.schedule_tti", new_record())[0],
        "traffic_split.drain_forward.calls":
            records.get("traffic_split.drain_forward", new_record())[0],
        "mc_control.admission.calls":
            records.get("mc_control.admission", new_record())[0],
    }
