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
which behaviour changed.
"""

import dataclasses
import hashlib

from ntnmc.campaign import run_campaign
from ntnmc.config import load_config
from ntnmc.simulation import run_single
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
        "b75aed8930c3d0a762cdd09e862fc9d8089fc45709d6df30f4e70a4c9e85abec",
    "cdf_mcs.csv":
        "a3f973eb437ef5352feb3f6b575dc9e6f4676a00ba60cb658b3a1ef2b07573cd",
    "cdf_off.csv":
        "c8ec2ea7fef8cbf3f64ff24e45e7420b61fa435d4a4f0729b7b1ad3b2e51b62e",
    "cdf_rsrp.csv":
        "1d7b2046c3d8705a8f0a058e1b60c2280d3b6335030f97e584df967da9d706c5",
    "events_bo_1.csv":
        "df2555696259fe86dfc50987735ba30b6851a1da50fac15c207c0bd4d27bb05f",
    "events_bo_2.csv":
        "f5c31cc8f50e1385551b669f16289f81aeeb7be3be1f26427b1793a9ef366d21",
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
        "69e7b33677fae0ee9da8fb0039a122c4359500d9c036ca2282c6b04d45c968fe",
    "summary.csv":
        "03c1bf5c888a19844482952008eda702a91128f4f24b9e8e6bb5b24c18520588",
}

TN_LATENCY_ONE_TTI_SHA256 = {
    "mcs": "d4fd1960a04ea7a979d86fafa4c0578f1d0e4234a77bc0d6814c15a762abf7a2",
    "rsrp": "5153c79569eb6af2bab97ea96d7bf5c74ffef3e1378d2eb797d164eabe94de4f",
    "bo": "046f009ef2f759c943ed2d7ee54d415b6bd5f58dad90bda60e53acf139417947",
    "off": "3a95084ffc3b0e412992939e44cb917fdc17c540535d3fd78af61485211f4509",
}

TN_LATENCY_ZERO_SHA256 = {
    "mcs": "999fe0e238e112d99d5be12fb8fdbe29d873c33dd0172ad29e5b29f1df2f57f3",
    "rsrp": "7dcbae9ee004649eaf3533ea49c38e634ff50290286af0deabf7db21313b7569",
    "bo": "7d8937801a649c7678b16b15e8f8cf718e56a9af34506a9e5f39b1326a4eb323",
    "off": "09d92bcd769119d3018c3d06a7f8e982f9675d0e414feb7a260a9d6d96ed9772",
}

CTRL_LATENCY_TEN_MS_SHA256 = {
    "mcs": "8560a07f8b635db7f5d4988ba4aa5646522583296bd140b4c96e496c58659aad",
    "rsrp": "d38380904be194e0ba010475c086ff1e5fb48d503c8b09b74233475a2440e0ab",
    "bo": "b43936b02ce9d41bd689eb4364597f17be1086c2b9b7903d4e226458d68a2065",
    "off": "b28b9a08cd311c774af0e88640732d8b33b50a6ceccf7bc3ed20f9b13c6df237",
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

