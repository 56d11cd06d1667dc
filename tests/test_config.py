import dataclasses
import math
import re

import pytest

from ntnmc.config import (BOUNDS, ConfigError, ScenarioConfig, interval_ends,
                          load_config, parse_config_text)
from ntnmc.simulation import Scenario

FLOAT_FIELDS = [f.name for f in dataclasses.fields(ScenarioConfig)
                if f.type is float]


def test_defaults_validate():
    cfg = load_config(None, environ={})
    assert cfg == ScenarioConfig()
    assert cfg.policy == "mcs"
    assert cfg.n_sites == 3
    assert cfg.n_ue_per_sector == 10


def test_parse_sections_comments_and_inline_comments():
    text = """
# sweep base
[layout]
isd_m = 5000       # tighter grid
n_sites = 3

; alt comment style
[policy]
policy = bo
load_ack_max = 0.9
"""
    values = parse_config_text(text, source="demo.cfg")
    assert values == {"isd_m": 5000.0, "n_sites": 3,
                      "policy": "bo", "load_ack_max": 0.9}


def test_unknown_key_reports_line_number():
    with pytest.raises(ConfigError, match=r"demo\.cfg:3.*no_such_knob"):
        parse_config_text("\n\nno_such_knob = 1\n", source="demo.cfg")


def test_duplicate_key_rejected():
    with pytest.raises(ConfigError, match="duplicate"):
        parse_config_text("isd_m = 1000\nisd_m = 2000\n")


def test_bad_value_type_rejected():
    with pytest.raises(ConfigError, match="n_sites"):
        parse_config_text("n_sites = banana\n")


@pytest.mark.parametrize("text, message", [
    ("isd_m = 5000 ; c", "cannot parse '5000 ; c' as float for isd_m"),
    ("n_sites = 1.5", "cannot parse '1.5' as int for n_sites")])
def test_unparsable_value_names_its_type(text, message):
    # `;` starts a comment only at the start of a line
    pattern = f"^demo.cfg:1: {re.escape(message)}$"
    with pytest.raises(ConfigError, match=pattern):
        parse_config_text(text, source="demo.cfg")


def test_missing_equals_rejected():
    with pytest.raises(ConfigError, match="key = value"):
        parse_config_text("just some words\n")


def test_file_then_env_then_kwargs_precedence(tmp_path):
    p = tmp_path / "run.cfg"
    p.write_text("policy = bo\nisd_m = 5000\nn_ue_per_sector = 4\n")
    env = {"SIM_POLICY": "rsrp", "SIM_ISD_M": "6000", "UNRELATED": "x"}
    cfg = load_config(str(p), environ=env, isd_m=6500.0)
    assert cfg.policy == "rsrp"          # env beats file
    assert cfg.isd_m == 6500.0           # kwargs beat env
    assert cfg.n_ue_per_sector == 4      # file beats default


def test_env_alone(tmp_path):
    cfg = load_config(None, environ={"SIM_POLICY": "off",
                                     "SIM_SIM_DURATION_S": "2.0",
                                     "SIM_WARMUP_S": "1.0"})
    assert cfg.policy == "off"
    assert cfg.sim_duration_s == 2.0
    assert cfg.warmup_s == 1.0


def test_bad_env_value_rejected():
    with pytest.raises(ConfigError):
        load_config(None, environ={"SIM_N_SITES": "3.7"})


@pytest.mark.parametrize("env_key, hint", [
    ("SIM_ISDM", "did you mean SIM_ISD_M"),
    ("SIM_policy", "did you mean SIM_POLICY"),
    ("SIM_N_PRB", ""),          # was a field until the PRB count was derived
    ("SIM_UNRELATED", ""),
])
def test_unknown_env_setting_rejected(env_key, hint):
    with pytest.raises(ConfigError, match=f"env {env_key}: unknown setting"
                       ) as err:
        load_config(None, environ={env_key: "5000"})
    assert hint in str(err.value)


def test_unknown_policy_rejected():
    with pytest.raises(ConfigError, match="policy"):
        load_config(None, environ={}, policy="weird")


def test_negative_values_rejected():
    with pytest.raises(ConfigError):
        load_config(None, environ={}, isd_m=-1.0)
    with pytest.raises(ConfigError):
        load_config(None, environ={}, cbr_rate_bps=0.0)


def test_warmup_must_precede_end():
    with pytest.raises(ConfigError, match="warmup"):
        load_config(None, environ={}, sim_duration_s=2.0, warmup_s=2.0)


def test_range_checks():
    with pytest.raises(ConfigError, match="load_ack_max"):
        load_config(None, environ={}, load_ack_max=1.5)
    with pytest.raises(ConfigError, match="mcs_threshold"):
        load_config(None, environ={}, mcs_threshold=32)
    with pytest.raises(ConfigError, match="ue_drop_max_m"):
        load_config(None, environ={}, ue_drop_min_m=100.0, ue_drop_max_m=50.0)


def test_n_sites_limited_to_one_triangle():
    for n in (1, 2, 3):
        assert load_config(None, environ={}, n_sites=n).n_sites == n
    with pytest.raises(ConfigError, match="n_sites"):
        load_config(None, environ={}, n_sites=4)


def test_bandwidth_must_match_prb_count():
    # the PRB count follows from the bandwidth and cannot be set
    assert load_config(None, environ={}, bandwidth_mhz=20.0).n_prb == 106
    assert load_config(None, environ={}).n_prb == 52
    for mhz in (12.0, 7.0, 10.5):
        with pytest.raises(ConfigError, match="bandwidth_mhz"):
            load_config(None, environ={}, bandwidth_mhz=mhz)
    with pytest.raises(ConfigError, match="unknown key 'n_prb'"):
        parse_config_text("n_prb = 52\n")


# 0.3 s with 2 UEs per sector: each of these would otherwise validate and
# then hang, raise `SchedulingError` or a math error mid-run, or run with a
# value other than the one given.
PROBE = dict(sim_duration_s=0.3, warmup_s=0.1, n_ue_per_sector=2)


@pytest.mark.parametrize("overrides, match", [
    (dict(meas_period_ms=1e-7), "meas_period_ms"),
    (dict(split_delta_ms=1e-7), "split_delta_ms"),
    (dict(cbr_rate_bps=1e13), "CBR interval"),
    (dict(eval_period_ms=1e-7), "eval_period_ms"),
    (dict(eval_jitter_ms=12.0), "eval_jitter_ms"),
    (dict(center_lat_deg=120.0), "center_lat_deg must be in"),
    (dict(center_lat_deg=-90.5, sat_epoch_lat_deg=-90.5),
     "center_lat_deg must be in"),
    (dict(sat_epoch_lat_deg=91.0), "sat_epoch_lat_deg must be in"),
    # sites past the pole, at longitudes of order 1e14 degrees
    (dict(center_lat_deg=90.0, sat_epoch_lat_deg=89.0),
     "center_lat_deg must be in"),
    # log10 of a height, and an angle over the beamwidth
    (dict(tn_bs_height_m=-1.0), "tn_bs_height_m must be in"),
    (dict(ue_height_m=0.0), "ue_height_m must be in"),
    (dict(tn_sector_beamwidth_deg=0.0), "tn_sector_beamwidth_deg must be in"),
    # finite magnitudes that overflow a float power or take log10 of 0
    (dict(tn_sector_beamwidth_deg=1e-160), "tn_sector_beamwidth_deg must be in"),
    (dict(tn_bs_height_m=1e-160), "tn_bs_height_m must be in"),
    (dict(tn_tx_power_dbm=1e300), "tn_tx_power_dbm must be in"),
    (dict(ntn_eirp_dbw_mhz=1e300), "ntn_eirp_dbw_mhz must be in"),
    (dict(ue_noise_figure_db=1e300), "ue_noise_figure_db must be in"),
    (dict(ue_height_m=1e200), "ue_height_m must be in"),
    (dict(tn_sector_gain_dbi=-1e300), "tn_sector_gain_dbi must be in"),
    (dict(carrier_ghz=1e-300), "carrier_ghz must be in"),
    # zero and negative values of the keys a range or table bounds
    (dict(tn_bs_height_m=0.0), "tn_bs_height_m must be in"),
    (dict(ue_height_m=-1.0), "ue_height_m must be in"),
    (dict(tn_sector_beamwidth_deg=-1.0), "tn_sector_beamwidth_deg must be in"),
    (dict(carrier_ghz=0.0), "carrier_ghz must be in"),
    (dict(carrier_ghz=-1.0), "carrier_ghz must be in"),
    (dict(sat_altitude_m=0.0), "sat_altitude_m must be in"),
    (dict(sat_altitude_m=-1.0), "sat_altitude_m must be in"),
    (dict(bandwidth_mhz=0.0), "bandwidth_mhz = 0.0 is not a 15 kHz"),
    (dict(bandwidth_mhz=-1.0), "bandwidth_mhz = -1.0 is not a 15 kHz"),
    # sites past the pole from a center inside the latitude bounds
    (dict(center_lat_deg=89.99, sat_epoch_lat_deg=89.0), "center_lat_deg.*pole"),
    # durations whose count of ns overflows a float; ctrl_latency_ms used to
    # pass and raise at the first reconfiguration, tn_latency_ms and a
    # never-setting satellite's sim_duration_s when the scenario was built
    ({"pdcp_reorder_timer_ms": 1e303}, "^pdcp_reorder_timer_ms overflows"),
    # the load window, a count of TTIs and never converted to ns, used to be
    # rounded half to even: 1.5 ms ran as 2 TTIs
    (dict(load_window_ms=1.5), "^load_window_ms must be a whole number"),
    *[({name: 1e303}, f"^{name} overflows") for name in (
        "eval_period_ms", "meas_period_ms", "meas_staleness_ms",
        "request_gate_ms", "add_gate_ms", "split_delta_ms", "split_toff_ms",
        "tn_latency_ms", "eval_jitter_ms", "ctrl_latency_ms",
        "sim_duration_s", "warmup_s")],
    (dict(sim_duration_s=1e300, sat_speed_ms=0.0), "^sim_duration_s overflows"),
    (dict(cbr_rate_bps=1e-300), "CBR interval .* overflows"),
    (dict(cbr_rate_bps=5e-324), "CBR interval .* overflows"),
    # magnitudes at which rounding drops the sites' east offsets (an ISD of
    # 6,495 m for 7,500) or moves the track of a heading 280 mod 360
    (dict(center_lon_deg=1e300, sat_epoch_lon_deg=1e300),
     "^center_lon_deg must be in"),
    (dict(sat_epoch_lon_deg=1e300), "^sat_epoch_lon_deg must be in"),
    (dict(sat_heading_deg=1e20), "^sat_heading_deg must be in"),
])
def test_configs_that_would_fail_mid_run_are_rejected(overrides, match):
    with pytest.raises(ConfigError, match=match):
        load_config(None, environ={}, **{**PROBE, **overrides})


@pytest.mark.parametrize("name, value", [
    ("n_ue_per_sector", 2.5), ("n_sites", 1.5), ("packet_bytes", 1500.5),
    ("n_sites", True), ("isd_m", "7500"), ("isd_m", False), ("policy", 1)])
def test_values_of_the_wrong_type_are_rejected(name, value):
    # 2.5 UEs per sector and 1.5 sites used to raise TypeError mid-run,
    # 1500.5 bytes ran with half-byte packets, "7500" a bare TypeError
    with pytest.raises(ConfigError, match=f"^{name} must be "):
        load_config(None, environ={}, **{name: value})


def test_ints_are_accepted_for_float_fields():
    assert load_config(None, environ={}, isd_m=7500).isd_m == 7500


def _bound_edges():
    """(name, value, accepted) for each finite end of each `BOUNDS` interval
    and the value just past it: the next float out, or the next int, since a
    float past an int key's end would fail the type check instead."""
    for name, interval in BOUNDS.items():
        lo, hi, lo_closed, hi_closed = interval_ends(interval)
        for end, closed, out in ((lo, lo_closed, -1), (hi, hi_closed, 1)):
            if math.isinf(end):
                continue
            if name in FLOAT_FIELDS:
                past = math.nextafter(end, out * math.inf)
            else:
                end, past = int(end), int(end) + out
            yield name, end, closed
            yield name, past, False


# 50 ms from t = 0, with one UE in each sector.
EDGE_RUN = dict(sim_duration_s=0.05, warmup_s=0.0, n_ue_per_sector=1)


@pytest.mark.parametrize("name, value, accepted", _bound_edges())
def test_every_bound_edge(name, value, accepted):
    overrides = {**EDGE_RUN, name: value}
    if not accepted:
        with pytest.raises(ConfigError, match=f"^{name} must be in"):
            load_config(None, environ={}, **overrides)
        return
    if name == "sat_epoch_lat_deg":
        # the satellite pass rule rejects a pole subpoint at the default center
        overrides["center_lat_deg"] = 0.999 * value
    elif name in ("center_lon_deg", "sat_epoch_lon_deg"):
        # and a subpoint half the globe from the center
        overrides["center_lon_deg"] = overrides["sat_epoch_lon_deg"] = value
    # an accepted value must run to the end, which checks conservation
    Scenario(load_config(None, environ={}, **overrides), 1).run_to_end()


@pytest.mark.parametrize("ms", [0.3, 2.5, 100.4])
def test_a_load_window_of_part_of_a_tti_is_rejected(ms):
    # the run used to take round(ms) TTIs, at least 1: 1, 2 and 100
    rule = ("must be in [1, inf)" if ms < 1
            else "must be a whole number of 1 ms TTIs")
    message = f"load_window_ms {rule}, got {ms}"
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
        load_config(None, environ={}, load_window_ms=ms)


@pytest.mark.parametrize("ms", [1, 100.0])
def test_a_whole_load_window_is_its_count_of_ttis(ms):
    cfg = load_config(None, environ={}, **EDGE_RUN, load_window_ms=ms)
    window = Scenario(cfg, 1).cand.window
    assert type(window) is int and window == ms


def test_cbr_flow_packetization():
    cfg = ScenarioConfig(packet_bytes=1500, cbr_rate_bps=3.2e6)
    assert cfg.packet_bits == 12000
    assert cfg.cbr_interval_ns == 3_750_000


def test_periods_at_their_floor_validate():
    cfg = load_config(None, environ={}, **PROBE, meas_period_ms=1e-3,
                      split_delta_ms=1e-3, eval_period_ms=1e-3,
                      eval_jitter_ms=0.0, packet_bytes=1,
                      cbr_rate_bps=8e6)
    assert cfg.cbr_rate_bps == 8e6
    assert load_config(None, environ={}, eval_jitter_ms=9.999)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("name", FLOAT_FIELDS)
def test_non_finite_float_rejected(name, value):
    with pytest.raises(ConfigError, match=rf"^{name} must be finite"):
        load_config(None, environ={}, **{name: value})


def test_non_finite_float_from_environment_rejected():
    with pytest.raises(ConfigError, match="isd_m must be finite"):
        load_config(None, environ={"SIM_ISD_M": "nan"})


def test_config_is_plain_dataclass():
    # campaign code relies on dataclasses.replace for per-policy variants
    cfg = load_config(None, environ={})
    alt = dataclasses.replace(cfg, policy="off")
    assert alt.policy == "off" and cfg.policy == "mcs"
    # and a validated config cannot change under a run
    with pytest.raises(dataclasses.FrozenInstanceError):
        cfg.policy = "off"
