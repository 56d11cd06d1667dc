"""Link-level models: path loss, antenna patterns, RSRP/SINR, SINR-to-MCS.

The terrestrial model is a rural-macro style two-branch loss (breakpoint LOS
branch, power-law NLOS branch, NLOS >= LOS by construction) with lognormal
shadowing drawn once per UE-cell pair. The satellite link is free-space loss
only, always LOS, no fading. Interference is computed with every co-channel
transmitter always on (full-buffer interferers), so per-link SINR is static
for fixed geometry.
"""

import math
from bisect import bisect_right

from .geometry import bearing_deg, ground_distance_m, satellite_slant_m

SPEED_OF_LIGHT = 299_792_458.0
SUBCARRIER_HZ = 15_000.0
SUBCARRIERS_PER_PRB = 12
SYMBOLS_PER_TTI = 14

# Rural-macro model internals (not scenario knobs): average building height
# and street width, m, and the loss terms that depend on them alone.
_RMA_H = 5.0
_RMA_W = 20.0
_RMA_A = min(0.03 * _RMA_H ** 1.72, 10.0)
_RMA_B = min(0.044 * _RMA_H ** 1.72, 14.77)
_RMA_C = 0.002 * math.log10(_RMA_H)
_RMA_NLOS_DB = 161.04 - 7.1 * math.log10(_RMA_W) + 7.5 * math.log10(_RMA_H)


def db_to_linear(db):
    return 10.0 ** (db / 10.0)


def linear_to_db(x):
    return 10.0 * math.log10(x)


def los_probability(d2d_m):
    """Rural-macro LOS probability: certain within 10 m, exponential beyond."""
    if d2d_m <= 10.0:
        return 1.0
    return math.exp(-(d2d_m - 10.0) / 1000.0)


def tn_pathloss_db(d2d_m, fc_ghz, los, bs_height_m, ue_height_m, min_distance_m):
    """LOS: free-space-like up to the breakpoint, 40 dB/decade beyond.
    NLOS: a power law, never below the LOS loss at the same distance."""
    d2d = max(d2d_m, min_distance_m)
    dh = bs_height_m - ue_height_m
    d3d = math.sqrt(d2d * d2d + dh * dh)
    dbp = 2.0 * math.pi * bs_height_m * ue_height_m * (fc_ghz * 1e9) / SPEED_OF_LIGHT
    d1 = min(d3d, dbp)
    pl_los = (20.0 * math.log10(40.0 * math.pi * d1 * fc_ghz / 3.0)
              + _RMA_A * math.log10(d1) - _RMA_B + _RMA_C * d1)
    if d3d > dbp:
        pl_los += 40.0 * math.log10(d3d / dbp)
    if los:
        return pl_los
    pl_nlos = (_RMA_NLOS_DB
               - (24.37 - 3.7 * (_RMA_H / bs_height_m) ** 2) * math.log10(bs_height_m)
               + (43.42 - 3.1 * math.log10(bs_height_m)) * (math.log10(d3d) - 3.0)
               + 20.0 * math.log10(fc_ghz)
               - (3.2 * (math.log10(11.75 * ue_height_m)) ** 2 - 4.97))
    return max(pl_nlos, pl_los)


def ntn_fspl_db(slant_m, fc_ghz):
    """Free-space path loss, d in meters: 92.45 + 20 log10(d_km) + 20 log10(f_GHz)."""
    return 92.45 + 20.0 * math.log10(slant_m / 1000.0) + 20.0 * math.log10(fc_ghz)


def sector_pattern_db(offaxis_deg, beamwidth_deg, max_attenuation_db):
    """Horizontal tri-sector pattern: parabolic roll-off with a floor."""
    a = ((offaxis_deg + 180.0) % 360.0) - 180.0
    return -min(12.0 * (a / beamwidth_deg) ** 2, max_attenuation_db)


def beam_pattern_db(ground_offset_m, beam_radius_m, floor_db):
    """Satellite beam pattern: flat inside the 3 dB radius, floor outside."""
    return 0.0 if ground_offset_m <= beam_radius_m else -floor_db


def noise_per_re_dbm(noise_figure_db):
    return -174.0 + 10.0 * math.log10(SUBCARRIER_HZ) + noise_figure_db


# 32-step SINR-to-MCS ladder. Thresholds are 1.0 dB apart starting at -9.5 dB;
# spectral efficiencies (bits per resource element) follow the standard
# low-SE + 256QAM ladder, 0.0586 .. 7.4063. Both strictly increase, which
# `bisect` in `mcs_for_sinr` relies on.
MCS_THRESHOLDS_DB = tuple(-9.5 + 1.0 * i for i in range(32))
MCS_EFFICIENCIES = (
    0.0586, 0.0977, 0.1523, 0.1885, 0.2344, 0.3770, 0.6016, 0.8770,
    1.1758, 1.4766, 1.6953, 1.9141, 2.1602, 2.4063, 2.5703, 2.7305,
    3.0293, 3.3223, 3.6094, 3.9023, 4.2129, 4.5234, 4.8164, 5.1152,
    5.3320, 5.5547, 5.8906, 6.2266, 6.5703, 6.9141, 7.1602, 7.4063,
)


def mcs_for_sinr(sinr_db):
    """Highest MCS index whose threshold `sinr_db` meets; None below the
    first threshold (no decodable MCS), clamps at the top."""
    idx = bisect_right(MCS_THRESHOLDS_DB, sinr_db) - 1
    return idx if idx >= 0 else None


class TnChannel:
    """Static per-(UE, sector) terrestrial link state.

    LOS state and shadowing are drawn once per pair when a UE is attached and
    never redrawn (drop-time channel realization, no fast fading). SINR is
    therefore a constant, computed once at attachment.
    """

    def __init__(self, cfg, sectors, rng):
        self.cfg = cfg
        self.sectors = sectors
        self.rng = rng
        self._per_re_tx_dbm = (cfg.tn_tx_power_dbm
                               - linear_to_db(cfg.n_prb * SUBCARRIERS_PER_PRB))
        self._noise = db_to_linear(noise_per_re_dbm(cfg.ue_noise_figure_db))

    def attach_ue(self, ue_pos):
        """Draw the links of a UE at `ue_pos`; returns its SINR in dB from
        each sector, by sector id."""
        cfg = self.cfg
        powers = []
        for sec in self.sectors:
            d = ground_distance_m(ue_pos, sec.position)
            los = self.rng.random() < los_probability(max(d, cfg.min_link_distance_m))
            sigma = cfg.shadow_sigma_los_db if los else cfg.shadow_sigma_nlos_db
            shadow = self.rng.gauss(0.0, sigma)
            pl = tn_pathloss_db(d, cfg.carrier_ghz, los,
                                cfg.tn_bs_height_m, cfg.ue_height_m,
                                cfg.min_link_distance_m)
            offaxis = bearing_deg(sec.position, ue_pos) - sec.boresight_deg
            gain = cfg.tn_sector_gain_dbi + sector_pattern_db(
                offaxis, cfg.tn_sector_beamwidth_deg, cfg.tn_sector_floor_db)
            powers.append(db_to_linear(self._per_re_tx_dbm + gain - pl + shadow))
        total = sum(powers)
        return [linear_to_db(p / (total - p + self._noise)) for p in powers]


class NtnChannel:
    """Satellite link state: the serving beam `beams[0]`, every later beam
    co-channel (see `geometry.ntn_beam_grid`).

    Beam centers are earth-fixed; only the satellite moves, so RSRP/SINR vary
    (slowly) with time through the slant range.
    """

    def __init__(self, cfg, track, beams):
        self.cfg = cfg
        self.track = track
        self.beams = beams
        self._per_re_eirp_dbm = (cfg.ntn_eirp_dbw_mhz + linear_to_db(cfg.bandwidth_mhz)
                                 + 30.0 - linear_to_db(cfg.n_prb * SUBCARRIERS_PER_PRB))
        self._noise = db_to_linear(noise_per_re_dbm(cfg.ue_noise_figure_db))

    def beam_eirp_dbm(self, ue_pos):
        """The per-RE EIRP of each beam toward `ue_pos`, beam pattern
        included, in dBm. Beam centers are earth-fixed, so this is fixed
        for a UE and worked out once, when it is attached."""
        cfg = self.cfg
        return [self._per_re_eirp_dbm
                + beam_pattern_db(ground_distance_m(ue_pos, beam),
                                  cfg.ntn_beam_radius_m, cfg.ntn_beam_floor_db)
                for beam in self.beams]

    def link_state(self, ue_pos, t_ns, beam_eirp_dbm):
        """(rsrp_dbm, sinr_db, one_way_delay_ns) or None if below horizon;
        `beam_eirp_dbm` is the UE's `self.beam_eirp_dbm(ue_pos)`."""
        cfg = self.cfg
        subpoint = self.track.subpoint_at(t_ns)
        slant = satellite_slant_m(ue_pos, subpoint, self.track.altitude_m)
        if slant is None:
            return None
        # Every beam shares the satellite, so one slant and one path loss.
        fspl = ntn_fspl_db(slant, cfg.carrier_ghz)
        gain = cfg.ue_ntn_gain_dbi
        rx_dbm = [eirp - fspl + gain for eirp in beam_eirp_dbm]
        rsrp = rx_dbm[0]
        interference = sum(db_to_linear(p) for p in rx_dbm[1:])
        sinr = linear_to_db(db_to_linear(rsrp) / (interference + self._noise))
        # Transparent payload: gateway-satellite-UE, two slant hops.
        delay_ns = round(2.0 * slant / SPEED_OF_LIGHT * 1e9)
        return rsrp, sinr, delay_ns
