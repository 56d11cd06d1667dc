"""The satellite link state against a transcription of its formulas.

`reference_subpoint` and `reference_link_state` work every term out from
the positions in degrees on every call: the great-circle destination of
the subpoint, the haversine central angle, the elevation and slant, the
free-space loss of `ntn_fspl_db` and one `db_to_linear` per beam, the
interferers summed by `sum()` in beam order (from Python 3.12 `sum()` of
floats is compensated, so a plain loop of `+=` may differ). The property
requires `SatelliteTrack.subpoint_at` and `NtnChannel.link_state` to give
the same bits for UEs across the layout, times across the pass, any
heading, and subpoints that cross the antimeridian.
"""

import dataclasses
import math

from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from ntnmc.channel import (SPEED_OF_LIGHT, NtnChannel, db_to_linear,
                           linear_to_db, noise_per_re_dbm)
from ntnmc.config import ScenarioConfig
from ntnmc.engine import NS_PER_S
from ntnmc.geometry import (EARTH_RADIUS_M, GroundPosition, SatelliteTrack,
                            local_offset, ntn_beam_grid)
from ntnmc.simulation import BEAM_PITCH_OVER_RADIUS

CFG = ScenarioConfig()
R = EARTH_RADIUS_M


def reference_destination(lat_deg, lon_deg, bearing_deg, distance_m):
    delta = distance_m / R
    theta = math.radians(bearing_deg)
    la1 = math.radians(lat_deg)
    lo1 = math.radians(lon_deg)
    sin_la2 = (math.sin(la1) * math.cos(delta)
               + math.cos(la1) * math.sin(delta) * math.cos(theta))
    la2 = math.asin(max(-1.0, min(1.0, sin_la2)))
    lo2 = lo1 + math.atan2(
        math.sin(theta) * math.sin(delta) * math.cos(la1),
        math.cos(delta) - math.sin(la1) * sin_la2)
    lon = math.degrees(lo2)
    if lon > 180.0:
        lon -= 360.0
    elif lon < -180.0:
        lon += 360.0
    return math.degrees(la2), lon


def reference_central_angle(lat1_deg, lon1_deg, lat2_deg, lon2_deg):
    la1 = math.radians(lat1_deg)
    la2 = math.radians(lat2_deg)
    dla = la2 - la1
    dlo = math.radians(lon2_deg - lon1_deg)
    h = (math.sin(dla / 2.0) ** 2
         + math.cos(la1) * math.cos(la2) * math.sin(dlo / 2.0) ** 2)
    return 2.0 * math.asin(min(1.0, math.sqrt(h)))


def reference_subpoint(cfg, t_ns):
    ground_speed = cfg.sat_speed_ms * R / (R + cfg.sat_altitude_m)
    dist = ground_speed * (t_ns / NS_PER_S)
    if dist == 0.0:
        return cfg.sat_epoch_lat_deg, cfg.sat_epoch_lon_deg
    return reference_destination(cfg.sat_epoch_lat_deg, cfg.sat_epoch_lon_deg,
                                 cfg.sat_heading_deg, dist)


def reference_link_state(cfg, ue_pos, t_ns, beam_eirp_dbm):
    h = cfg.sat_altitude_m
    lat, lon = reference_subpoint(cfg, t_ns)
    psi = reference_central_angle(ue_pos.lat_deg, ue_pos.lon_deg, lat, lon)
    k = R / (R + h)
    elev = math.atan2(math.cos(psi) - k, math.sin(psi))
    if elev <= 0.0:
        return None
    rs = R * math.sin(elev)
    slant = math.sqrt(rs * rs + h * h + 2.0 * h * R) - rs
    fspl = (92.45 + 20.0 * math.log10(slant / 1000.0)
            + 20.0 * math.log10(cfg.carrier_ghz))
    rx_dbm = [eirp - fspl + cfg.ue_ntn_gain_dbi for eirp in beam_eirp_dbm]
    interference = sum(db_to_linear(p) for p in rx_dbm[1:])
    noise = db_to_linear(noise_per_re_dbm(cfg.ue_noise_figure_db))
    sinr = linear_to_db(db_to_linear(rx_dbm[0]) / (interference + noise))
    return rx_dbm[0], sinr, round(2.0 * slant / SPEED_OF_LIGHT * 1e9)


# Epoch longitudes anywhere, and within a degree of either side of the
# antimeridian, where a subpoint moving east or west wraps.
LONGITUDES = st.one_of(st.floats(-180.0, 180.0), st.floats(179.0, 180.0),
                       st.floats(-180.0, -179.0))


@settings(deadline=None, max_examples=300)
@given(lat=st.floats(-60.0, 60.0), lon=LONGITUDES,
       heading=st.floats(-360.0, 360.0), gain=st.floats(-10.0, 10.0),
       east_m=st.floats(-10_000.0, 10_000.0),
       north_m=st.floats(-10_000.0, 10_000.0),
       t_ns=st.integers(0, 600 * NS_PER_S))
@example(lat=CFG.sat_epoch_lat_deg, lon=CFG.sat_epoch_lon_deg, heading=0.0,
         gain=CFG.ue_ntn_gain_dbi, east_m=0.0, north_m=0.0, t_ns=0)
@example(lat=10.0, lon=179.9, heading=90.0, gain=0.3, east_m=3_000.0,
         north_m=-2_000.0, t_ns=0)
@example(lat=-20.0, lon=-179.9, heading=-90.0, gain=-2.0, east_m=0.0,
         north_m=0.0, t_ns=30 * NS_PER_S)
def test_link_state_matches_the_transcribed_formulas(lat, lon, heading, gain,
                                                     east_m, north_m, t_ns):
    # The beams are centered on the epoch subpoint, and the UE is dropped
    # within about 10 km of it, as the layout drops UEs around the center.
    # A UE gain that is not a whole dB makes each received power round.
    cfg = dataclasses.replace(CFG, sat_epoch_lat_deg=lat,
                              sat_epoch_lon_deg=lon, sat_heading_deg=heading,
                              ue_ntn_gain_dbi=gain)
    epoch = GroundPosition(lat, lon)
    track = SatelliteTrack(epoch, cfg.sat_altitude_m, cfg.sat_speed_ms,
                           heading)
    ch = NtnChannel(cfg, track, ntn_beam_grid(
        epoch, BEAM_PITCH_OVER_RADIUS * cfg.ntn_beam_radius_m))
    pos = local_offset(epoch, east_m, north_m)
    eirp = ch.beam_eirp_dbm(pos)

    sub = track.subpoint_at(t_ns)
    want = reference_link_state(cfg, pos, t_ns, eirp)
    event("below the horizon" if want is None else "visible")
    if abs(sub.lon_deg - lon) > 180.0:
        event("subpoint across the antimeridian")
    assert (sub.lat_deg, sub.lon_deg) == reference_subpoint(cfg, t_ns)
    assert ch.link_state(ch.ue_terms(pos), t_ns) == want
