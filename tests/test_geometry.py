import math
import random

from ntnmc.engine import seconds
from ntnmc.geometry import (EARTH_RADIUS_M, M_PER_DEG, GroundPosition,
                            SatelliteTrack, bearing_deg, build_tn_layout,
                            destination, drop_ues_in_sector, ground_distance_m,
                            ntn_beam_grid, satellite_slant_m, slant_range_m)

R = EARTH_RADIUS_M


def slant_oracle(elevation_rad, h):
    # Law of cosines in the Earth-center / ground / satellite triangle,
    # solved for the range leg.
    rs = R * math.sin(elevation_rad)
    return math.sqrt(rs * rs + h * h + 2.0 * R * h) - rs


def test_slant_range_at_thirty_degrees():
    got = slant_range_m(math.radians(30.0), 600_000.0)
    assert abs(got - slant_oracle(math.radians(30.0), 600_000.0)) < 1e-6
    assert abs(got - 1_075_100.0) <= 500.0


def test_slant_range_at_zenith_equals_altitude():
    assert slant_range_m(math.pi / 2.0, 600_000.0) == 600_000.0


def test_slant_range_grows_as_elevation_drops():
    h = 600_000.0
    angles = [math.radians(a) for a in (90, 60, 30, 10)]
    slants = [slant_range_m(a, h) for a in angles]
    assert slants == sorted(slants)


def test_satellite_slant_from_subpoint_and_below_horizon():
    sub = GroundPosition(41.59, 1.74)
    assert abs(satellite_slant_m(sub, sub, 600_000.0) - 600_000.0) < 1e-6
    # a quarter of the globe away, the satellite is below the horizon
    far = GroundPosition(41.59, 91.74)
    assert satellite_slant_m(far, sub, 600_000.0) is None


def test_ground_speed_scales_with_radius_ratio():
    track = SatelliteTrack(GroundPosition(41.59, 1.74), 600_000.0, 7560.0, 0.0)
    oracle = 7560.0 * R / (R + 600_000.0)
    assert abs(track.ground_speed_ms - oracle) < 1e-9
    assert abs(track.ground_speed_ms - 6909.3) < 1.0


def test_subpoint_advances_along_heading():
    epoch = GroundPosition(41.59, 1.74)
    track = SatelliteTrack(epoch, 600_000.0, 7560.0, heading_deg=0.0)
    later = track.subpoint_at(seconds(60.0))
    assert later.lat_deg > epoch.lat_deg
    moved = ground_distance_m(epoch, later)
    assert abs(moved - track.ground_speed_ms * 60.0) / moved < 1e-3


def test_layout_has_three_sites_with_three_sectors_each():
    center = GroundPosition(41.59, 1.74)
    sectors = build_tn_layout(center, 7500.0, 3)
    assert len(sectors) == 9
    assert [sec.sector_id for sec in sectors] == list(range(9))
    sites = {}
    for sec in sectors:
        sites.setdefault(sec.sector_id // 3, []).append(sec)
    assert len(sites) == 3
    for members in sites.values():
        assert sorted(s.boresight_deg for s in members) == [0.0, 120.0, 240.0]
        assert len({(s.position.lat_deg, s.position.lon_deg)
                    for s in members}) == 1
    circum = 7500.0 / math.sqrt(3.0)
    for sec in sectors:
        d = ground_distance_m(center, sec.position)
        assert abs(d - circum) / circum < 1e-3


def test_ue_drop_respects_distance_and_wedge():
    center = GroundPosition(41.59, 1.74)
    sector = build_tn_layout(center, 7500.0, 3)[4]
    rng = random.Random(7)
    for pos in drop_ues_in_sector(sector, rng, 200, 35.0, 3750.0):
        d = ground_distance_m(sector.position, pos)
        assert 35.0 <= d <= 3750.0 + 1e-6
        off = (bearing_deg(sector.position, pos) - sector.boresight_deg) % 360.0
        if off > 180.0:
            off -= 360.0
        assert abs(off) <= 60.0 + 1e-6


def test_destination_round_trip():
    start = GroundPosition(41.59, 1.74)
    there = destination(start, 90.0, 1000.0)
    assert abs(ground_distance_m(start, there) - 1000.0) < 1e-3
    assert abs(bearing_deg(start, there) - 90.0) < 1e-3


def _axial(center, pos, pitch):
    """Axial lattice coordinates of a beam center, inverting the local
    plane offset of `ntn_beam_grid`."""
    north = (pos.lat_deg - center.lat_deg) * M_PER_DEG
    east = ((pos.lon_deg - center.lon_deg) * M_PER_DEG
            * math.cos(math.radians(center.lat_deg)))
    r = north / (pitch * math.sqrt(3.0) / 2.0)
    return round(east / pitch - r / 2.0), round(r)


def test_beam_grid_center_and_co_channel_ring():
    center = GroundPosition(41.59, 1.74)
    pitch = 43_301.0
    beams = ntn_beam_grid(center, pitch)
    assert beams[0] == center
    axial = [_axial(center, pos, pitch) for pos in beams[1:]]
    # the second ring's beams of the serving beam's reuse-3 colour, in the
    # order the interference sum adds them
    assert axial == [(-1, 2), (1, 1), (2, -1), (1, -2), (-1, -1), (-2, 1)]
    for q, r in axial:
        assert (q - r) % 3 == 0
        assert max(abs(q), abs(r), abs(q + r)) == 2


def test_co_channel_beams_sit_at_pitch_times_sqrt3():
    center = GroundPosition(41.59, 1.74)
    pitch = 43_301.0
    for pos in ntn_beam_grid(center, pitch)[1:]:
        d = ground_distance_m(center, pos)
        assert abs(d - pitch * math.sqrt(3.0)) / d < 5e-3
