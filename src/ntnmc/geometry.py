"""Spherical-Earth geometry: satellite track, slant range, cell and beam layout.

Positions are kept as latitude/longitude on a sphere of radius EARTH_RADIUS_M.
The terrestrial layout is built on a local tangent plane around the network
center (sub-meter placement error at the ~10 km scale used here) and converted
back to lat/lon; all distances are then measured spherically.
"""

import math
from dataclasses import dataclass

from .engine import NS_PER_S

EARTH_RADIUS_M = 6_371_000.0
M_PER_DEG = EARTH_RADIUS_M * math.pi / 180.0  # ~111194.93 m per degree of arc


@dataclass(frozen=True)
class GroundPosition:
    lat_deg: float
    lon_deg: float


def _haversine(la1, cos_la1, la2, cos_la2, dlo):
    """The central angle between latitudes `la1` and `la2` (radians, with
    their cosines) that lie `dlo` radians of longitude apart."""
    dla = la2 - la1
    h = math.sin(dla / 2.0) ** 2 + cos_la1 * cos_la2 * math.sin(dlo / 2.0) ** 2
    return 2.0 * math.asin(min(1.0, math.sqrt(h)))


def ground_distance_m(a, b):
    """Great-circle distance between two ground positions (haversine)."""
    la1 = math.radians(a.lat_deg)
    la2 = math.radians(b.lat_deg)
    return EARTH_RADIUS_M * _haversine(la1, math.cos(la1), la2, math.cos(la2),
                                       math.radians(b.lon_deg - a.lon_deg))


class _GreatCircle:
    """The great circle from a start point along an initial bearing, with
    the trigonometry of both worked out once for any number of
    destinations on it."""

    __slots__ = ("lo1", "sin_la1", "cos_la1", "sin_theta", "cos_theta")

    def __init__(self, pos, bearing_deg):
        theta = math.radians(bearing_deg)
        la1 = math.radians(pos.lat_deg)
        self.lo1 = math.radians(pos.lon_deg)
        self.sin_la1, self.cos_la1 = math.sin(la1), math.cos(la1)
        self.sin_theta, self.cos_theta = math.sin(theta), math.cos(theta)

    def destination_deg(self, distance_m):
        """(lat_deg, lon_deg) of the great-circle destination `distance_m`
        along the bearing, the longitude wrapped into [-180, 180]."""
        delta = distance_m / EARTH_RADIUS_M
        sin_la1, cos_la1 = self.sin_la1, self.cos_la1
        sin_delta, cos_delta = math.sin(delta), math.cos(delta)
        sin_la2 = sin_la1 * cos_delta + cos_la1 * sin_delta * self.cos_theta
        la2 = math.asin(max(-1.0, min(1.0, sin_la2)))
        lo2 = self.lo1 + math.atan2(self.sin_theta * sin_delta * cos_la1,
                                    cos_delta - sin_la1 * sin_la2)
        lon = math.degrees(lo2)
        if lon > 180.0:
            lon -= 360.0
        elif lon < -180.0:
            lon += 360.0
        return math.degrees(la2), lon


def local_offset(ref, east_m, north_m):
    """Point at a small metric offset from `ref` (equirectangular inverse)."""
    lat = ref.lat_deg + north_m / M_PER_DEG
    lon = ref.lon_deg + east_m / (M_PER_DEG * math.cos(math.radians(ref.lat_deg)))
    return GroundPosition(lat, lon)


def bearing_deg(a, b):
    """Initial bearing from a to b, degrees clockwise from north."""
    la1 = math.radians(a.lat_deg)
    la2 = math.radians(b.lat_deg)
    dlo = math.radians(b.lon_deg - a.lon_deg)
    y = math.sin(dlo) * math.cos(la2)
    x = math.cos(la1) * math.sin(la2) - math.sin(la1) * math.cos(la2) * math.cos(dlo)
    return math.degrees(math.atan2(y, x)) % 360.0


class SatelliteTrack:
    """Circular-orbit subpoint propagation along a great circle.

    The subpoint advances at the orbital speed scaled to the ground,
    v_ground = v_orbit * R_E / (R_E + h).
    """

    def __init__(self, epoch_subpoint, altitude_m, orbital_speed_ms, heading_deg):
        self.epoch_subpoint = epoch_subpoint
        self.altitude_m = altitude_m
        self.ground_speed_ms = orbital_speed_ms * EARTH_RADIUS_M / (EARTH_RADIUS_M + altitude_m)
        # The terms that do not change with time, worked out once.
        self._path = _GreatCircle(epoch_subpoint, heading_deg)
        self._k = EARTH_RADIUS_M / (EARTH_RADIUS_M + altitude_m)

    def _subpoint_deg(self, t_ns):
        dist = self.ground_speed_ms * (t_ns / NS_PER_S)
        if dist == 0.0:
            return self.epoch_subpoint.lat_deg, self.epoch_subpoint.lon_deg
        return self._path.destination_deg(dist)

    def subpoint_at(self, t_ns):
        return GroundPosition(*self._subpoint_deg(t_ns))

    def slant_m(self, la1, cos_la1, lon_deg, t_ns):
        """Slant range (m) at `t_ns` from the ground point at latitude `la1`
        (radians, with its cosine) and longitude `lon_deg`; None when the
        satellite is at or below its horizon (elevation <= 0), where
        callers treat the link as unavailable."""
        lat, lon = self._subpoint_deg(t_ns)
        la2 = math.radians(lat)
        psi = _haversine(la1, cos_la1, la2, math.cos(la2),
                         math.radians(lon - lon_deg))
        elev = math.atan2(math.cos(psi) - self._k, math.sin(psi))
        if elev <= 0.0:
            return None
        return slant_range_m(elev, self.altitude_m)


def slant_range_m(elevation_rad, altitude_m):
    """Slant range to a satellite at altitude h seen under elevation eps.

    d = sqrt(R_E^2 sin^2(eps) + h^2 + 2 h R_E) - R_E sin(eps); reduces to
    exactly h at zenith.
    """
    rs = EARTH_RADIUS_M * math.sin(elevation_rad)
    return math.sqrt(rs * rs + altitude_m * altitude_m + 2.0 * altitude_m * EARTH_RADIUS_M) - rs


@dataclass(frozen=True)
class Sector:
    sector_id: int
    position: GroundPosition
    boresight_deg: float


def build_tn_layout(center, isd_m, n_sites):
    """Tri-sector sites with the given inter-site distance.

    One site sits at `center`; two or three sit on the vertices of an
    equilateral triangle (circumradius isd/sqrt(3)) around it. A fourth site
    would land on the first, so `ScenarioConfig.validate` rejects
    `n_sites` > 3. Sector boresights are 0/120/240 deg at every site, and
    sector ids count up from 0 in site order, so they index the list.
    """
    site_positions = []
    if n_sites == 1:
        site_positions.append(center)
    else:
        circum = isd_m / math.sqrt(3.0)
        for i in range(n_sites):
            ang = math.radians(90.0 + 120.0 * i)  # vertex angles 90, 210, 330
            east = circum * math.cos(ang)
            north = circum * math.sin(ang)
            site_positions.append(local_offset(center, east, north))

    return [Sector(3 * i + k, pos, 120.0 * k)
            for i, pos in enumerate(site_positions) for k in range(3)]


def drop_ues_in_sector(sector, rng, n_ue, min_dist_m, max_dist_m):
    """Uniform-area drop in the 120-degree wedge annulus in front of a sector."""
    out = []
    r0sq = min_dist_m * min_dist_m
    r1sq = max_dist_m * max_dist_m
    for _ in range(n_ue):
        r = math.sqrt(r0sq + (r1sq - r0sq) * rng.random())
        az = sector.boresight_deg + (rng.random() - 0.5) * 120.0
        east = r * math.sin(math.radians(az))
        north = r * math.cos(math.radians(az))
        out.append(local_offset(sector.position, east, north))
    return out


def ntn_beam_grid(center, pitch_m):
    """Earth-fixed ground positions of the serving beam, at `center`, then
    of the six beams of its reuse-3 colour in a hex lattice of adjacent-beam
    spacing `pitch_m`: the second ring's axial (q, r) with (q - r) % 3 == 0,
    sqrt(3) pitches away, in the order their interference is summed."""
    beams = [center]
    for q, r in ((-1, 2), (1, 1), (2, -1), (1, -2), (-1, -1), (-2, 1)):
        east = pitch_m * (q + r / 2.0)
        north = pitch_m * (math.sqrt(3.0) / 2.0) * r
        beams.append(local_offset(center, east, north))
    return beams
