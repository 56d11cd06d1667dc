"""Golden digests: the exact bits of a small campaign, pinned.

Every artifact that `run_campaign` + `emit_results` write for all four
settings at seeds 1..2 (1 s simulated) is pinned by SHA-256, and so is the
per-run result of three 2 s variants, long enough for `mcs` to preempt and
release: one whose terrestrial latency is exactly one TTI, so that every
terrestrial delivery lands on the same instant as the next TTI; one with no
terrestrial latency, so that every terrestrial delivery lands on the instant
of the TTI that launched it; and one with
a control latency of 10 ms and no evaluation jitter. In the latter the three
reconfiguration messages land on three distinct instants, and bindings start
on the 25 ms data-request grid, so the order of a binding against the other
events of its instant is pinned.
A change made only for speed or structure must leave every digest here
unchanged; a change that alters behaviour on purpose updates them and says
which behaviour changed. The same digests hold when the cost rule is
skipped, so that every saturated TTI at which every UE with an MCS is
backlogged opens a saturated epoch, not only one likely to last.
"""

import dataclasses
import hashlib

from ntnmc import dataplane
from ntnmc.campaign import run_campaign
from ntnmc.config import load_config
from ntnmc.simulation import Scenario, run_single
from ntnmc.stats import emit_results

SETTINGS = ("mcs", "rsrp", "bo", "off")
SEEDS = [1, 2]
# 1/5 of the default run, with the anchor queue cap scaled by the same
# factor so that queues fill (and `bo` adds, and packets drop) in time.
SMALL = dict(sim_duration_s=1.0, warmup_s=0.5, ue_queue_bytes=280_000)
TWO_SECONDS = dict(sim_duration_s=2.0, warmup_s=1.0, ue_queue_bytes=560_000)
ONE_TTI_TN_LATENCY = dict(TWO_SECONDS, tn_latency_ms=1.0)
ZERO_TN_LATENCY = dict(TWO_SECONDS, tn_latency_ms=0.0)
TEN_MS_CTRL_LATENCY = dict(TWO_SECONDS, ctrl_latency_ms=10.0,
                           eval_jitter_ms=0.0)

ARTIFACT_SHA256 = {
    "cdf_bo.csv":
        "353fd443e017a577824371b14dfb9136c131a5f5791ca14a64bb12ff57f9a636",
    "cdf_mcs.csv":
        "8d4e175538305407ad2aed10ed40f83f8d7af1e6e363624509a0b9f12bbc1e64",
    "cdf_off.csv":
        "f9a91fbde7e1f920c0c69fc30f226fe5f76beb1dff1fa9d05363437d64de12d7",
    "cdf_rsrp.csv":
        "1d7b2046c3d8705a8f0a058e1b60c2280d3b6335030f97e584df967da9d706c5",
    "events_bo_1.csv":
        "df2555696259fe86dfc50987735ba30b6851a1da50fac15c207c0bd4d27bb05f",
    "events_bo_2.csv":
        "07b6726a77727984cdebc1c2b3b92277fc933a3e8e5e5d640dc4c73a2615f8fb",
    "events_mcs_1.csv":
        "04136837dc858e4d9d4c454dcfad13367c6bb4c332e504cc6a110220a08304d7",
    "events_mcs_2.csv":
        "7c2cac04601afaad34c2f7e53f0e36edc8b61ead638ba770dc827b18651c3f7a",
    "events_off_1.csv":
        "af1b92cc3d8b916d40dbf757329e0050072f4f823466e15e24818eb13027ab0e",
    "events_off_2.csv":
        "af1b92cc3d8b916d40dbf757329e0050072f4f823466e15e24818eb13027ab0e",
    "events_rsrp_1.csv":
        "92e21509eb24a826f86e529f788c7d990eb7deb380a04d7821e5cf0f733b5374",
    "events_rsrp_2.csv":
        "1a9e1f388aa41a2631b9f7fca08df7daf6c9f25b71adbb722f6798eded933dd9",
    "manifest.json":
        "36a4a897e8bf1419dca30d033182175ae31b4b87dc7cc73be96796c51750c760",
    "summary.csv":
        "f20fa83ca1ecb05f6ece2f38db2703c3d337f1df1874355ed341d945d587db09",
}

TN_LATENCY_ONE_TTI_SHA256 = {
    "mcs": "bbeb5635d32b7e5be12d9932e7ca7a0897a688c8cbf536e771f1d12ca05b4462",
    "rsrp": "3274837f32ca4ed7f62b039de30add9cb9d25a45e4b0f4b1b986fab648de9c12",
    "bo": "ecfe700f5bdbd12d2369d26076b81d50bfaa6c3930f4c60db4bbbe64b7dc5e99",
    "off": "9a6de91d326be7159d19dfdca7f8384f665a637871a8a3b1a1b0588dd99b91ca",
}

TN_LATENCY_ZERO_SHA256 = {
    "mcs": "70dae7b90344fbe860bc56146f43af8c7d23847fa516a275963cb17f91f8c080",
    "rsrp": "7dcbae9ee004649eaf3533ea49c38e634ff50290286af0deabf7db21313b7569",
    "bo": "6ae7d0cfd04fbda900c5b4c15e8234940a427dab89bb830d310541cd828fb5d2",
    "off": "d96659147784360ff0394350d9599017058b40cd22df7e0708e3b06f2b60ed63",
}

CTRL_LATENCY_TEN_MS_SHA256 = {
    "mcs": "7103c95fae588d31400c53e7ab37e6a3dc25a56673030daba41a55c83e59fd92",
    "rsrp": "8894d1d91e4efcf952189b6459fb3fdf7a12353fa2474f62c75bd618ed2c43e9",
    "bo": "dee0a07454165f91d9a92ac69e4e64f4dc44768804929bec3f11e262b41f6163",
    "off": "0cef19ed093d128b68d23a08aa394637c21e7c5152efa4782bbf3056b5c189be",
}

# Every PDU the receivers deliver in a 2 s run at seed 1, as (ue, sn, bits,
# created_ns, delivery time), flush included. `mcs` releases 6 legs, so
# PDUs sent back to the anchor queue are delivered too.
DELIVERED_PDUS_SHA256 = {
    "mcs": "5562f62596fcdc090fcd91cc2b2228501f5ba25a61090048fd6fd0bfa2396bfc",
    "off": "73fbf4a56c786f6d67d6553718c1f9e5ec3fe4856e2f087fb7f13503cc0f8a8a",
}


def _sha256(data):
    return hashlib.sha256(data).hexdigest()


def result_digest(result):
    """SHA-256 over every field of a RunResult; repr of a float is exact,
    so equal digests mean equal bits."""
    fields = [(f.name, getattr(result, f.name))
              for f in dataclasses.fields(result)]
    return _sha256(repr(fields).encode())


def test_campaign_artifacts_match_golden_digests(tmp_path):
    cfg = load_config(None, environ={}, **SMALL)
    summaries, results = run_campaign(cfg, list(SETTINGS), SEEDS, jobs=1)
    emit_results(tmp_path, cfg, SETTINGS, SEEDS, summaries, results)
    got = {p.name: _sha256(p.read_bytes())
           for p in sorted(tmp_path.iterdir())}
    assert got == ARTIFACT_SHA256


def _variant_digests(overrides):
    cfg = load_config(None, environ={}, **overrides)
    return {p: result_digest(run_single(dataclasses.replace(cfg, policy=p), 1))
            for p in SETTINGS}


def test_tn_latency_of_one_tti_matches_golden_digests():
    assert _variant_digests(ONE_TTI_TN_LATENCY) == TN_LATENCY_ONE_TTI_SHA256


def test_zero_tn_latency_matches_golden_digests():
    assert _variant_digests(ZERO_TN_LATENCY) == TN_LATENCY_ZERO_SHA256


def test_ctrl_latency_of_ten_ms_matches_golden_digests():
    assert _variant_digests(TEN_MS_CTRL_LATENCY) == CTRL_LATENCY_TEN_MS_SHA256


def test_delivered_pdus_keep_their_ingest_stamps(monkeypatch):
    # No result field reads `created_ns`, so only this pins the stamp each
    # PDU carries from ingest to delivery.
    delivered = []

    def deliver(self, pdu, t_ns, _orig=dataplane.PdcpReceiver._deliver):
        delivered.append((self.ue_id, pdu.sn, pdu.bits, pdu.created_ns, t_ns))
        _orig(self, pdu, t_ns)

    monkeypatch.setattr(dataplane.PdcpReceiver, "_deliver", deliver)
    cfg = load_config(None, environ={}, **TWO_SECONDS)
    for policy, digest in DELIVERED_PDUS_SHA256.items():
        delivered.clear()
        r = run_single(dataclasses.replace(cfg, policy=policy), 1)
        assert r.counters["sn_releases"] == (6 if policy == "mcs" else 0)
        assert _sha256(repr(delivered).encode()) == digest, policy


def test_epochs_at_every_saturated_tti_keep_every_digest(tmp_path,
                                                         monkeypatch):
    # The cost rule opens an epoch only where one is likely to last; here
    # it is skipped, so every saturated TTI at which every UE with an MCS
    # is backlogged opens one, on sectors and beam alike, and each run's
    # bits must not change. The epochs counted are those really opened.
    opened = {"sector": 0, "beam": 0}
    beam = []

    def build(self, _orig=Scenario._build):
        _orig(self)
        beam[:] = [self.ntn_node]

    class Counted(dataplane.SaturatedEpoch):
        def __init__(self, node, *args):
            opened["beam" if node is beam[0] else "sector"] += 1
            super().__init__(node, *args)

    monkeypatch.setattr(Scenario, "_build", build)
    monkeypatch.setattr(dataplane, "_epoch_pays", lambda node, needs: True)
    monkeypatch.setattr(dataplane, "SaturatedEpoch", Counted)
    for overrides, digests in ((ONE_TTI_TN_LATENCY, TN_LATENCY_ONE_TTI_SHA256),
                               (ZERO_TN_LATENCY, TN_LATENCY_ZERO_SHA256),
                               (TEN_MS_CTRL_LATENCY,
                                CTRL_LATENCY_TEN_MS_SHA256)):
        assert _variant_digests(overrides) == digests
    test_campaign_artifacts_match_golden_digests(tmp_path)
    assert opened["sector"] > 1000 and opened["beam"] > 100, opened
