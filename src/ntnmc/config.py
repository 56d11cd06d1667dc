"""Scenario configuration: defaults, file parsing, environment overrides.

Config files are flat ``key = value`` lines with optional ``[section]``
headers (cosmetic, keys are globally unique). Unknown keys, bad types and
out-of-range values are rejected with the offending line number so a typo in
a sweep definition fails loudly instead of silently running defaults.
Environment variables ``SIM_<KEY>`` (upper-cased field name) override both
defaults and file values; a ``SIM_`` variable that names no field is
rejected the same way.
"""

import dataclasses
import difflib
import math
import os

from .channel import MCS_EFFICIENCIES
from .engine import millis, seconds
from .geometry import (EARTH_RADIUS_M, M_PER_DEG, GroundPosition,
                       SatelliteTrack, ground_distance_m)

POLICIES = ("mcs", "rsrp", "bo", "off")
MIN_PERIOD_NS = 1000  # floor of every period, a thousandth of a TTI

# Channel bandwidth (MHz) -> transmission bandwidth in PRBs at 15 kHz
# subcarrier spacing, 3GPP TS 38.101-1 Table 5.3.2-1.
PRBS_BY_BANDWIDTH_MHZ = {5: 25, 10: 52, 15: 79, 20: 106, 25: 133, 30: 160,
                         40: 216, 50: 270}

# The interval each bounded key must lie in, written once per interval.
BOUNDS = {name: interval for interval, names in {
    "(0, inf)": """sim_duration_s isd_m cbr_rate_bps ntn_beam_radius_m
                   pdcp_reorder_timer_ms eval_period_ms meas_period_ms
                   meas_staleness_ms request_gate_ms add_gate_ms
                   split_delta_ms split_toff_ms""",
    "[0, inf)": """warmup_s ue_drop_min_m tn_latency_ms sat_speed_ms
                   eval_jitter_ms ctrl_latency_ms""",
    "[1, inf)": """n_ue_per_sector packet_bytes ue_queue_bytes
                   pdcp_reorder_buffer_pdus load_window_ms""",
    "(-90, 90)": "center_lat_deg", "[-90, 90]": "sat_epoch_lat_deg",
    # A longitude, and a heading of up to a turn either way; far past them
    # (1e300, 1e20) rounding loses the sites' east offsets and turns the track.
    "[-180, 180]": "center_lon_deg sat_epoch_lon_deg",
    "[-360, 360]": "sat_heading_deg",
    "[1, 3]": "n_sites",  # the layout's sites are one triangle's vertices
    f"[0, {len(MCS_EFFICIENCIES) - 1}]": "mcs_threshold",
    "(0, 1]": "load_ack_max bo_threshold_frac split_alpha",
    # The ranges the link-budget models are defined on. Heights, carrier and
    # the shortest link distance follow the RMa applicability of 3GPP TR
    # 38.901 Table 7.4.1-1; altitudes span LEO to GEO (TR 38.821). Powers
    # and gains stay within 100 dB of 0 dB(m/W/i), and losses, noise figure
    # and sigmas within [0, 100] dB (shadowing: 30), so that every received
    # power, with path losses of up to ~1500 dB at the layout's reach, and
    # every SINR stays a positive finite float.
    "[0.5, 30]": "carrier_ghz", "[10, 150]": "tn_bs_height_m",
    "[1, 10]": "ue_height_m", "[10, 10000]": "min_link_distance_m",
    "[300e3, 36e6]": "sat_altitude_m", "[1, 360]": "tn_sector_beamwidth_deg",
    "[-100, 100]": """tn_tx_power_dbm tn_sector_gain_dbi ntn_eirp_dbw_mhz
                      ue_ntn_gain_dbi""",
    "[0, 100]": """tn_sector_floor_db ntn_beam_floor_db ue_noise_figure_db
                   meas_error_sigma_db""",
    "[0, 30]": "shadow_sigma_los_db shadow_sigma_nlos_db",
}.items() for name in names.split()}

# Durations in ms that the 1 us floor applies to.
PERIODS_MS = ("pdcp_reorder_timer_ms", "eval_period_ms", "meas_period_ms",
              "meas_staleness_ms", "request_gate_ms", "add_gate_ms",
              "split_delta_ms", "split_toff_ms")
# Every duration a run converts to integer ns, and its converter; named
# here, not found by suffix, since `sat_speed_ms` is a speed.
DURATIONS = {**dict.fromkeys(PERIODS_MS + ("tn_latency_ms", "eval_jitter_ms",
                                           "ctrl_latency_ms"), millis),
             "sim_duration_s": seconds, "warmup_s": seconds}


def interval_ends(interval):
    """(lo, hi, lo_closed, hi_closed) of an interval written as in `BOUNDS`."""
    lo, hi = (float(end) for end in interval[1:-1].split(","))
    return lo, hi, interval[0] == "[", interval[-1] == "]"


def _limits(lo, hi, lo_closed, hi_closed):
    # `lo <= value <= hi` exactly when an int or float value lies in the
    # interval: an open end moves to the next float inward, and for an end
    # below 2**53 in magnitude no such value lies between the two.
    return (lo if lo_closed else math.nextafter(lo, math.inf),
            hi if hi_closed else math.nextafter(hi, -math.inf))


_LIMITS = [(name, *_limits(*interval_ends(interval)))
           for name, interval in BOUNDS.items()]


class ConfigError(Exception):
    pass


@dataclasses.dataclass(frozen=True)
class ScenarioConfig:
    # layout
    sim_duration_s: float = 5.0
    warmup_s: float = 2.5
    center_lat_deg: float = 41.59
    center_lon_deg: float = 1.74
    isd_m: float = 7500.0
    n_sites: int = 3
    n_ue_per_sector: int = 10
    ue_drop_min_m: float = 35.0
    ue_drop_max_m: float = 3750.0

    # traffic
    cbr_rate_bps: float = 3_200_000.0
    packet_bytes: int = 1500

    # phy, terrestrial
    carrier_ghz: float = 2.0
    bandwidth_mhz: float = 10.0
    tn_tx_power_dbm: float = 43.0
    tn_sector_gain_dbi: float = 14.0
    tn_sector_beamwidth_deg: float = 65.0
    tn_sector_floor_db: float = 30.0
    tn_bs_height_m: float = 35.0
    ue_height_m: float = 1.5
    ue_noise_figure_db: float = 7.0
    shadow_sigma_los_db: float = 4.0
    shadow_sigma_nlos_db: float = 4.0
    min_link_distance_m: float = 35.0
    tn_latency_ms: float = 0.5

    # phy, satellite
    sat_altitude_m: float = 600_000.0
    sat_speed_ms: float = 7560.0
    sat_heading_deg: float = 0.0
    sat_epoch_lat_deg: float = 41.59
    sat_epoch_lon_deg: float = 1.74
    ntn_eirp_dbw_mhz: float = 34.0
    ntn_beam_radius_m: float = 25_000.0
    ntn_beam_floor_db: float = 24.0
    ue_ntn_gain_dbi: float = -2.0

    # radio bearers / queues
    ue_queue_bytes: int = 1_400_000
    pdcp_reorder_timer_ms: float = 100.0
    pdcp_reorder_buffer_pdus: int = 1000
    load_window_ms: float = 100.0      # a whole number of 1 ms TTIs

    # secondary-node control
    policy: str = "mcs"
    eval_period_ms: float = 10.0
    eval_jitter_ms: float = 1.0
    mcs_threshold: int = 15
    rsrp_min_dbm: float = -111.0
    meas_period_ms: float = 120.0
    meas_staleness_ms: float = 120.0
    meas_error_sigma_db: float = 0.75
    request_gate_ms: float = 100.0
    add_gate_ms: float = 100.0
    ctrl_latency_ms: float = 0.0
    load_ack_max: float = 0.975
    bo_threshold_frac: float = 0.8

    # split-bearer data requests
    split_alpha: float = 0.6
    split_delta_ms: float = 25.0
    split_toff_ms: float = 25.0

    # campaign
    base_seed: int = 1

    @property
    def n_prb(self):
        """Transmission bandwidth in PRBs, fixed by `bandwidth_mhz`."""
        return PRBS_BY_BANDWIDTH_MHZ[self.bandwidth_mhz]

    @property
    def load_window_ttis(self):
        return int(self.load_window_ms)     # `validate` checks it is whole

    @property
    def packet_bits(self):
        return self.packet_bytes * 8

    @property
    def cbr_interval_ns(self):
        """Every UE's CBR interval in whole ns, so arrivals never drift
        (1500 B at 3.2 Mb/s: exactly 3.75 ms)."""
        return seconds(self.packet_bits / self.cbr_rate_bps)

    def durations_ns(self):
        """Each of `DURATIONS` in integer ns, as the run reads them."""
        ns = {}
        for name, to_ns in DURATIONS.items():
            try:
                ns[name] = to_ns(getattr(self, name))
            except OverflowError:
                raise ConfigError(f"{name} overflows a count of ns") from None
        return ns

    def validate(self):
        # A value of another type fails late or not at all: 2.5 UEs per
        # sector raise mid-run, 1500.5-byte packets run with half bytes.
        for name, f in _FIELDS.items():
            value = getattr(self, name)
            allowed = (int, float) if f.type is float else f.type
            if isinstance(value, bool) or not isinstance(value, allowed):
                raise ConfigError(
                    f"{name} must be {f.type.__name__}, got {value!r}")
        # Comparisons with NaN are all false, so no range rule below would
        # catch one; an infinite period overflows `millis`.
        for name in _FLOAT_FIELDS:
            if not math.isfinite(getattr(self, name)):
                raise ConfigError(
                    f"{name} must be finite, got {getattr(self, name)}")
        if self.policy not in POLICIES:
            raise ConfigError(f"policy must be one of {POLICIES}, got {self.policy!r}")
        for name, lo, hi in _LIMITS:
            if not lo <= getattr(self, name) <= hi:
                raise ConfigError(f"{name} must be in {BOUNDS[name]}, "
                                  f"got {getattr(self, name)!r}")
        # The load window is a count of TTIs, not a duration in ns.
        if self.load_window_ms % 1:
            raise ConfigError(f"load_window_ms must be a whole number of "
                              f"1 ms TTIs, got {self.load_window_ms!r}")
        # The durations in integer ns that the run reads. A count past the
        # float range (1e303 ms, or a CBR interval at 1e-300 b/s) is
        # rejected here, not met in the run.
        ns = self.durations_ns()
        cbr = "the CBR interval packet_bytes * 8 / cbr_rate_bps"
        try:
            ns[cbr] = self.cbr_interval_ns
        except OverflowError:
            raise ConfigError(f"{cbr} overflows a count of ns") from None
        # A period rounded to 0 ns fires forever at one instant; one of a few
        # ns (1500 B at 1e13 b/s: 1.2 ns) dispatches an event per few ns.
        for name in PERIODS_MS + (cbr,):
            if ns[name] < MIN_PERIOD_NS:
                raise ConfigError(f"{name} must be at least 1 us, got {ns[name]} ns")
        if self.eval_jitter_ms >= self.eval_period_ms:
            raise ConfigError("eval_jitter_ms must be below eval_period_ms")
        reach_m = _layout_reach_m(self)
        if abs(self.center_lat_deg) + reach_m / M_PER_DEG >= 90.0:
            raise ConfigError(
                f"center_lat_deg = {self.center_lat_deg} puts a pole within "
                f"the layout's reach of {reach_m:.0f} m from its center")
        if self.warmup_s >= self.sim_duration_s:
            raise ConfigError("warmup_s must be below sim_duration_s")
        if self.ue_drop_max_m <= self.ue_drop_min_m:
            raise ConfigError("ue_drop_max_m must exceed ue_drop_min_m")
        if self.bandwidth_mhz not in PRBS_BY_BANDWIDTH_MHZ:
            raise ConfigError(
                f"bandwidth_mhz = {self.bandwidth_mhz} is not a 15 kHz "
                f"carrier; expected one of {list(PRBS_BY_BANDWIDTH_MHZ)}")
        pass_s = _satellite_pass_s(self)
        if self.sim_duration_s >= pass_s:
            raise ConfigError(
                f"sim_duration_s = {self.sim_duration_s} outlasts the "
                f"satellite pass: a UE of this layout can lose the satellite "
                f"below the horizon after {max(pass_s, 0.0):.1f} s")
        return self


def _layout_reach_m(cfg):
    """Farthest ground distance from the center a UE can be dropped at:
    the site circumradius plus the drop radius."""
    reach_m = cfg.ue_drop_max_m
    if cfg.n_sites > 1:
        reach_m += cfg.isd_m / math.sqrt(3.0)
    return reach_m


def _satellite_pass_s(cfg):
    """Time from t = 0 for which the satellite is certain to stay above the
    horizon of every point a UE can be dropped at (inf if it never moves).

    The satellite is above a UE's horizon while their central angle is
    below acos(R / (R + h)). By the triangle inequality the UE is no farther
    from the subpoint than the epoch subpoint's distance to the center, plus
    the layout's reach (site circumradius plus drop radius), plus the ground
    track covered so far. Sites and UEs are placed on a local plane whose
    east scale is the cosine of the reference latitude, so the reach is
    inflated by the largest ratio of such cosines within the layout.
    """
    center = GroundPosition(cfg.center_lat_deg, cfg.center_lon_deg)
    epoch = GroundPosition(cfg.sat_epoch_lat_deg, cfg.sat_epoch_lon_deg)
    reach_m = _layout_reach_m(cfg)
    lat = abs(math.radians(cfg.center_lat_deg))
    spread = math.radians(reach_m / M_PER_DEG)
    reach_m *= math.cos(max(0.0, lat - spread)) / math.cos(lat + spread)
    k = EARTH_RADIUS_M / (EARTH_RADIUS_M + cfg.sat_altitude_m)
    margin_m = (EARTH_RADIUS_M * math.acos(k)
                - ground_distance_m(center, epoch) - reach_m)
    track = SatelliteTrack(epoch, cfg.sat_altitude_m, cfg.sat_speed_ms,
                           cfg.sat_heading_deg)
    if track.ground_speed_ms == 0.0:
        return math.inf if margin_m > 0.0 else 0.0
    return margin_m / track.ground_speed_ms


_FIELDS = {f.name: f for f in dataclasses.fields(ScenarioConfig)}
_FLOAT_FIELDS = [name for name, f in _FIELDS.items() if f.type is float]


def _coerce(field, raw, where):
    raw = raw.strip()
    try:
        return field.type(raw)      # every field is an int, float or str
    except ValueError:
        raise ConfigError(f"{where}: cannot parse {raw!r} as "
                          f"{field.type.__name__} for {field.name}")


def parse_config_text(text, source="<config>"):
    """Parse flat key = value text into an override dict. Strict on unknowns."""
    overrides = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        where = f"{source}:{lineno}"
        stripped = line.strip()
        if not stripped or stripped.startswith("#") or stripped.startswith(";"):
            continue
        if stripped.startswith("[") and stripped.endswith("]"):
            continue
        if "=" not in stripped:
            raise ConfigError(f"{where}: expected 'key = value', got {stripped!r}")
        key, _, value = stripped.partition("=")
        key = key.strip()
        value = value.split("#", 1)[0]
        if key not in _FIELDS:
            raise ConfigError(f"{where}: unknown key {key!r}")
        if key in overrides:
            raise ConfigError(f"{where}: duplicate key {key!r}")
        overrides[key] = _coerce(_FIELDS[key], value, where)
    return overrides


def env_overrides(environ=None):
    """`SIM_<KEY>` variables as overrides; a `SIM_` variable that names no
    field is an error, as an unknown key in a config file is."""
    environ = os.environ if environ is None else environ
    env_keys = {"SIM_" + name.upper(): name for name in _FIELDS}
    for env_key in environ:
        if env_key.startswith("SIM_") and env_key not in env_keys:
            close = difflib.get_close_matches(env_key[4:].lower(), _FIELDS,
                                              n=1)
            hint = f"; did you mean SIM_{close[0].upper()}?" if close else ""
            raise ConfigError(f"env {env_key}: unknown setting{hint}")
    return {name: _coerce(_FIELDS[name], environ[env_key], f"env {env_key}")
            for env_key, name in env_keys.items() if env_key in environ}


def load_config(path=None, environ=None, **extra):
    """Defaults, then config file, then environment, then explicit overrides."""
    values = {}
    if path is not None:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                text = fh.read()
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigError(f"cannot read {path}: {exc}") from None
        values.update(parse_config_text(text, source=str(path)))
    values.update(env_overrides(environ))
    values.update(extra)
    return ScenarioConfig(**values).validate()
