import hashlib
import math
import random

import pytest

from ntnmc.channel import (MCS_EFFICIENCIES, MCS_THRESHOLDS_DB,
                           SPEED_OF_LIGHT, NtnChannel, TnChannel,
                           los_probability, mcs_for_sinr, noise_per_re_dbm,
                           ntn_fspl_db, tn_pathloss_db)
from ntnmc.config import ScenarioConfig, load_config
from ntnmc.engine import RngStreams, millis
from ntnmc.geometry import (GroundPosition, SatelliteTrack, build_tn_layout,
                            ntn_beam_grid)
from ntnmc.simulation import Scenario


def test_fspl_anchor_600km_2ghz():
    got = ntn_fspl_db(600_000.0, 2.0)
    oracle = 20.0 * math.log10(4.0 * math.pi * 600_000.0 * 2.0e9 / SPEED_OF_LIGHT)
    # the 92.45 constant rounds the exact 4*pi*d*f/c form to 0.003 dB
    assert abs(got - oracle) < 0.005
    assert abs(got - 154.03) <= 0.01


def test_noise_per_re_matches_thermal_floor():
    oracle = -174.0 + 10.0 * math.log10(15_000.0) + 7.0
    assert abs(noise_per_re_dbm(7.0) - oracle) < 1e-9


def test_los_probability_shape():
    assert los_probability(5.0) == 1.0
    assert los_probability(10.0) == 1.0
    assert abs(los_probability(1010.0) - math.exp(-1.0)) < 1e-12
    assert los_probability(5000.0) < los_probability(500.0)


def test_mcs_table_defaults():
    assert len(MCS_THRESHOLDS_DB) == 32
    assert len(MCS_EFFICIENCIES) == 32
    assert MCS_THRESHOLDS_DB[0] == -9.5
    assert MCS_THRESHOLDS_DB[22] == 12.5
    assert MCS_EFFICIENCIES[21] == 4.5234
    assert MCS_EFFICIENCIES[22] == 4.8164
    assert mcs_for_sinr(12.7) == 22
    assert mcs_for_sinr(-9.5) == 0
    assert mcs_for_sinr(-50.0) is None
    assert mcs_for_sinr(200.0) == 31
    for i, th in enumerate(MCS_THRESHOLDS_DB):
        assert mcs_for_sinr(th) == i
        below = mcs_for_sinr(math.nextafter(th, -math.inf))
        assert below == (i - 1 if i else None)


def test_mcs_ladder_is_strictly_increasing():
    # `mcs_for_sinr` bisects the thresholds, and a higher index must mean
    # more bits per RE: both columns must strictly increase.
    for column in (MCS_THRESHOLDS_DB, MCS_EFFICIENCIES):
        assert all(a < b for a, b in zip(column, column[1:]))


def test_tn_pathloss_monotone_and_clamped():
    def pl(d2d_m, los):
        return tn_pathloss_db(d2d_m, 2.0, los, 35.0, 1.5, 35.0)

    assert pl(100.0, True) <= pl(100.0, False)
    assert pl(100.0, True) < pl(1000.0, True)
    assert pl(100.0, False) < pl(1000.0, False)
    # past the breakpoint (~2.2 km here) LOS falls 40 dB/decade
    assert abs(pl(50_000.0, True) - pl(5000.0, True) - 40.0) < 0.1
    # distances below the model floor all evaluate at the floor
    for los in (True, False):
        assert pl(1.0, los) == pl(35.0, los)


def test_attach_ue_returns_one_finite_sinr_per_sector():
    cfg = ScenarioConfig()
    sectors = build_tn_layout(GroundPosition(cfg.center_lat_deg,
                                             cfg.center_lon_deg),
                              cfg.isd_m, cfg.n_sites)
    ch = TnChannel(cfg, sectors, random.Random(3))
    pos = GroundPosition(cfg.center_lat_deg + 0.01, cfg.center_lon_deg)
    sinr = ch.attach_ue(pos)
    assert len(sinr) == len(sectors) == 9
    assert all(math.isfinite(x) for x in sinr)


def _default_ntn():
    cfg = ScenarioConfig()
    center = GroundPosition(cfg.center_lat_deg, cfg.center_lon_deg)
    track = SatelliteTrack(
        GroundPosition(cfg.sat_epoch_lat_deg, cfg.sat_epoch_lon_deg),
        cfg.sat_altitude_m, cfg.sat_speed_ms, cfg.sat_heading_deg)
    beams = ntn_beam_grid(center, math.sqrt(3.0) * cfg.ntn_beam_radius_m)
    return cfg, center, NtnChannel(cfg, track, beams)


def test_ntn_link_budget_at_beam_center_epoch():
    cfg, center, ch = _default_ntn()
    rsrp, sinr, delay = ch.link_state(center, 0, ch.beam_eirp_dbm(center))

    # EIRP spread over the carrier, shared across the resource grid
    eirp_dbm = cfg.ntn_eirp_dbw_mhz + 10.0 * math.log10(cfg.bandwidth_mhz) + 30.0
    per_re = eirp_dbm - 10.0 * math.log10(cfg.n_prb * 12)
    fspl = ntn_fspl_db(cfg.sat_altitude_m, cfg.carrier_ghz)
    want_rsrp = per_re - fspl + cfg.ue_ntn_gain_dbi
    assert abs(rsrp - want_rsrp) < 0.05

    noise = noise_per_re_dbm(cfg.ue_noise_figure_db)
    i_over_s = 6.0 * 10.0 ** (-cfg.ntn_beam_floor_db / 10.0)
    n_over_s = 10.0 ** ((noise - want_rsrp) / 10.0)
    want_sinr = -10.0 * math.log10(i_over_s + n_over_s)
    assert abs(sinr - want_sinr) < 0.05
    assert abs(sinr - 12.70) < 0.05
    assert mcs_for_sinr(sinr) == 22

    want_delay = round(2.0 * cfg.sat_altitude_m / SPEED_OF_LIGHT * 1e9)
    assert delay == want_delay == 4_002_769


def test_ntn_rsrp_qualifies_across_entire_layout():
    cfg, center, ch = _default_ntn()
    sectors = build_tn_layout(center, cfg.isd_m, cfg.n_sites)
    rng = random.Random(11)
    from ntnmc.geometry import drop_ues_in_sector
    for sec in sectors:
        for pos in drop_ues_in_sector(sec, rng, 10, cfg.ue_drop_min_m,
                                      cfg.ue_drop_max_m):
            rsrp, _sinr, _delay = ch.link_state(pos, 0, ch.beam_eirp_dbm(pos))
            assert rsrp >= cfg.rsrp_min_dbm


def test_ntn_delay_tracks_slant_growth():
    cfg, center, ch = _default_ntn()
    _r0, _s0, d0 = ch.link_state(center, 0, ch.beam_eirp_dbm(center))
    # a minute later the subpoint has moved ~400 km, lengthening the path
    from ntnmc.engine import seconds
    _r1, _s1, d1 = ch.link_state(center, seconds(60.0),
                                  ch.beam_eirp_dbm(center))
    assert d1 > d0


def _channel_outputs(overrides):
    """Every raw channel output of a seed-1 drop: each UE's `attach_ue`
    SINRs from a fresh stream of the run's own, then its `link_state` at
    eight times from 0 to 4.9 s."""
    cfg = load_config(None, environ={}, **overrides)
    sc = Scenario(cfg, 1)
    tn = TnChannel(cfg, sc.sectors, RngStreams(cfg.base_seed, 1)
                   .stream("tn-channel"))
    times = [millis(700.0 * k) for k in range(8)]
    outputs = []
    for ue in sc.ues.values():
        sinrs = tn.attach_ue(ue.pos)
        assert sinrs[ue.mn_node_id] == ue.tn_sinr_db    # the run's own draw
        outputs.append((sinrs, [sc.ntn.link_state(ue.pos, t, ue.beam_eirp_dbm)
                                for t in times]))
    return outputs


# A last-bit change in a link term can survive MCS bucketing and grant
# sizing, so the run digests of test_golden.py may miss it; these cannot.
# With a 3 km beam radius 25 of the 630 UE-beam pairs of the drop lie
# inside the 3 dB radius, so both branches of `beam_pattern_db` run.
CHANNEL_OUTPUT_SHA256 = {
    "default":
        "13494d12b6036a87d5ad66fdae6bb87b304ca93bc6e2082c8a429dcb35513752",
    "one-site":
        "eb88c80f9c1531ffc2d8591139467f8c8423e8eb95c0eec42816ea5cb24757da",
    "narrow-beam":
        "4a2e83487b464374eb8946a033b45ca81c5e98134dd55588046dbb856c4e8c1c",
}
CHANNEL_LAYOUTS = {"default": {}, "one-site": dict(n_sites=1),
                   "narrow-beam": dict(ntn_beam_radius_m=3000.0)}


@pytest.mark.parametrize("layout", CHANNEL_LAYOUTS)
def test_channel_outputs_match_golden_digest(layout):
    got = repr(_channel_outputs(CHANNEL_LAYOUTS[layout])).encode()
    assert hashlib.sha256(got).hexdigest() == CHANNEL_OUTPUT_SHA256[layout]
