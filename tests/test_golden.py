"""Golden digests: the exact bits of a small campaign, pinned.

Every artifact that `run_campaign` + `emit_results` write for all four
settings at seeds 1..2 (1 s simulated) is pinned by SHA-256, and so is the
per-run result of two 2 s variants, long enough for `mcs` to preempt and
release: one whose terrestrial latency is exactly one TTI, so that every
terrestrial delivery lands on the same instant as the next TTI, and one with
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
        "acd0d07e626f408adf03e1074c711b4d61ea48a5ac480b10d05fd26185323827",
    "summary.csv":
        "03c1bf5c888a19844482952008eda702a91128f4f24b9e8e6bb5b24c18520588",
}

TN_LATENCY_ONE_TTI_SHA256 = {
    "mcs": "25a9906be30a224184297176d90c60912a285c2714dcbcdc6947da8f36834a27",
    "rsrp": "2deb7f4013ef67ca79c22890a29104277d7eff8c6a6a78556de0bc63a3ec4a88",
    "bo": "073c5cf06d2742d40a9f3f5ffd6926324be2b1b578fb7571512299845023e006",
    "off": "c3a00195cb21c25d13ed69de0e9ecfa9ace369fc05c93d289b2c164f44807cf6",
}

CTRL_LATENCY_TEN_MS_SHA256 = {
    "mcs": "423a83df94c8be441399fd372b8fc1a6e100573ea481fb35c2cdf60a87f4b057",
    "rsrp": "fb79c24e36d7155f9bd0c7a08becd4860e2894411903e928d65b1105f92cb3b5",
    "bo": "55448e67cccf174e0471eee3790898fc923fc5a598e47634a13654e08a36a651",
    "off": "682b0f916cf68aebe8be104f8c05ba52d9554773189c3e65a3fda049279fe686",
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


def test_ctrl_latency_of_ten_ms_matches_golden_digests():
    assert _variant_digests(TEN_MS_CTRL_LATENCY) == CTRL_LATENCY_TEN_MS_SHA256

