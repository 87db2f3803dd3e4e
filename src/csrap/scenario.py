"""Scenario generation: deployments, coverage geometry and the channel model.

A scenario places targets and cameras in a square guarded area with the base
station at the center, derives each camera's coverage set from its geometry,
and maps distance-dependent SNR through an MCS table into per-subchannel
rates.  Generation is a pure function of the configuration and its seed.

The default channel numbers here (path loss ``128.1 + 37.6*log10(d_km)`` dB,
log-normal shadowing with sigma 8 dB, thermal noise -174 dBm/Hz plus a 5 dB
noise figure, and a four-tier QPSK/16QAM rate table) are implementation
choices for a plausible urban macro cell, not measured ground truth; every
value is configurable.

numpy is imported only where a random number is drawn: in
:func:`generate_scenario`, in the rate derivation behind :func:`derive_rates`,
and in :func:`load_scenario` for a camera whose document gives no ``rates``.
A document with every camera's rates (as :func:`save_scenario` writes it)
loads without numpy, so ``csrap solve``, ``verify`` and ``bounds`` do not pay
for its import.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Any, Callable, Collection, Iterable, Iterator, Mapping, Sequence, TypeVar

from .model import (
    CameraNode,
    Directional,
    FrameGrid,
    Omnidirectional,
    Scenario,
    TargetObject,
    _integer,
    _Rates,
)

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "ChannelParams",
    "GeometrySpec",
    "ScenarioConfig",
    "InvalidConfigError",
    "ScenarioFormatError",
    "DEPLOYMENTS",
    "CELL_EDGE_ANNULUS",
    "compute_coverage",
    "derive_rates",
    "generate_scenario",
    "load_scenario",
    "save_scenario",
    "config_from_document",
    "need_field",
    "known_keys",
    "read_object",
    "read_list",
    "read_objects",
    "read_number",
    "read_numbers",
    "read_integer",
    "build_field",
]

DEPLOYMENTS = ("overall_grid", "partial_random", "cell_edge")

# Cameras in the cell-edge scheme sit in the outer annulus beyond this
# fraction of the cell radius.
CELL_EDGE_ANNULUS = 0.8

THERMAL_NOISE_DBM_PER_HZ = -174.0

_T = TypeVar("_T")


class InvalidConfigError(ValueError):
    """A scenario configuration that cannot be realized."""


class ScenarioFormatError(ValueError):
    """A scenario document that violates the schema; the message names the field."""


# The fields of ChannelParams other than its MCS table, in document order.
_CHANNEL_SCALARS = (
    "tx_power_dbm",
    "pathloss_intercept_db",
    "pathloss_slope_db",
    "shadowing_sigma_db",
    "noise_figure_db",
    "rb_bandwidth_hz",
)


@dataclass(frozen=True)
class ChannelParams:
    """Parameters of the distance/shadowing/MCS channel abstraction."""

    tx_power_dbm: float = 24.0
    pathloss_intercept_db: float = 128.1
    pathloss_slope_db: float = 37.6  # dB per decade of distance in km
    shadowing_sigma_db: float = 8.0
    noise_figure_db: float = 5.0
    rb_bandwidth_hz: float = 180e3
    mcs_table: tuple[tuple[float, float], ...] = ((-1.0, 2.0), (5.0, 4.0), (11.0, 6.0), (15.0, 8.0))

    def __post_init__(self) -> None:
        for name in _CHANNEL_SCALARS:
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if not self.rb_bandwidth_hz > 0:
            raise ValueError("rb_bandwidth_hz must be positive")
        if self.shadowing_sigma_db < 0:
            raise ValueError("shadowing_sigma_db must be non-negative")
        table = tuple((float(t), float(r)) for t, r in self.mcs_table)
        if not table:
            raise ValueError("mcs_table must not be empty")
        if not all(math.isfinite(v) for pair in table for v in pair):
            raise ValueError("mcs_table entries must be finite")
        for (t0, r0), (t1, r1) in zip(table, table[1:]):
            if t1 <= t0:
                raise ValueError("mcs_table thresholds must be strictly increasing")
            if r1 < r0:
                raise ValueError("mcs_table rates must be non-decreasing")
        if any(r <= 0 for _, r in table):
            raise ValueError("mcs_table rates must be positive")
        object.__setattr__(self, "mcs_table", table)

    @property
    def noise_floor_dbm(self) -> float:
        return THERMAL_NOISE_DBM_PER_HZ + 10.0 * math.log10(self.rb_bandwidth_hz) + self.noise_figure_db


@dataclass(frozen=True)
class GeometrySpec:
    """Camera geometry family used during generation.

    ``view_distance`` is a (min, max) range sampled uniformly per camera;
    ``fov_deg`` applies to directional cameras only.
    """

    kind: str = "omnidirectional"
    view_distance: tuple[float, float] = (40.0, 40.0)
    fov_deg: float = 120.0

    def __post_init__(self) -> None:
        if self.kind not in ("omnidirectional", "directional"):
            raise ValueError("geometry kind must be 'omnidirectional' or 'directional'")
        lo, hi = float(self.view_distance[0]), float(self.view_distance[1])
        if not (0 < lo <= hi):
            raise ValueError("view_distance range must satisfy 0 < min <= max")
        if hi == math.inf:
            raise ValueError("view_distance range must be finite")
        object.__setattr__(self, "view_distance", (lo, hi))
        if not 0 < self.fov_deg <= 360:
            raise ValueError("fov_deg must lie in (0, 360]")


@dataclass(frozen=True)
class ScenarioConfig:
    """Everything needed to generate one scenario deterministically."""

    area_side: float = 500.0
    num_targets: int = 20
    num_cameras: int = 81
    deployment: str = "overall_grid"
    geometry: GeometrySpec = GeometrySpec()
    rate_requirement_range: tuple[float, float] = (4.0, 20.0)
    frame: FrameGrid = FrameGrid(num_subchannels=50, num_slots=20)
    channel: ChannelParams = ChannelParams()
    rng_seed: int = 0
    # Optional per-camera rate overrides applied after generation: either a
    # flat rate vector, or {slot: vector} for slot-varying rates.
    rate_overrides: Mapping[int, Any] | None = None

    def __post_init__(self) -> None:
        for field in ("num_targets", "num_cameras", "rng_seed"):
            object.__setattr__(self, field, _integer(getattr(self, field), field))
        if not self.area_side > 0:
            raise ValueError("area_side must be positive")
        if self.area_side == math.inf:
            raise ValueError("area_side must be finite")
        if self.num_targets < 1:
            raise ValueError("num_targets must be >= 1")
        if self.num_cameras < 1:
            raise ValueError("num_cameras must be >= 1")
        for cam_id in self.rate_overrides or ():
            if not 1 <= _integer(cam_id, "each rate_overrides key") <= self.num_cameras:
                raise ValueError(f"rate_overrides names camera {cam_id}, outside 1..{self.num_cameras}")
        if self.deployment not in DEPLOYMENTS:
            raise ValueError(f"deployment must be one of {DEPLOYMENTS}")
        lo, hi = self.rate_requirement_range
        if not (0 < lo <= hi):
            raise ValueError("rate_requirement_range must satisfy 0 < min <= max")
        if hi == math.inf:
            raise ValueError("rate_requirement_range must be finite")
        object.__setattr__(self, "rate_requirement_range", (float(lo), float(hi)))


def compute_coverage(camera: CameraNode, targets: Iterable[TargetObject]) -> frozenset[int]:
    """Target ids geometrically visible to ``camera``.

    Distance comparison is boundary inclusive.  For directional cameras the
    bearing to the target must lie within half the field of view of the
    orientation, again boundary inclusive; a target at zero distance counts
    as covered.
    """
    return _visible(camera.position, camera.geometry, _points(targets))


def _points(targets: Iterable[TargetObject]) -> list[tuple[int, float, float]]:
    """``(id, x, y)`` of each target, the form :func:`_visible` reads."""
    return [(tgt.id, *tgt.position) for tgt in targets]


def _visible(
    position: tuple[float, float], geom: Omnidirectional | Directional, points: Iterable[tuple[int, float, float]]
) -> frozenset[int]:
    """:func:`compute_coverage` for a camera not yet built, over the
    ``(id, x, y)`` triples of :func:`_points`, built once per scenario."""
    cx, cy = position
    view = geom.view_distance
    floor = -view
    # None for an omnidirectional camera.
    half_fov = geom.fov_deg / 2.0 if isinstance(geom, Directional) else None
    covered = set()
    for tid, x, y in points:
        # hypot(dx, dy) >= max(|dx|, |dy|) holds in floating point too (|dx|
        # is a float no greater than the true distance), so a target beyond
        # the view along either axis is one the distance test rejects.
        dx = x - cx
        if dx > view or dx < floor:
            continue
        dy = y - cy
        if dy > view or dy < floor:
            continue
        dist = math.hypot(dx, dy)
        if dist > view:
            continue
        if half_fov is not None and dist > 0.0:
            bearing = math.degrees(math.atan2(dy, dx)) % 360.0
            diff = (bearing - geom.orientation_deg + 180.0) % 360.0 - 180.0
            if abs(diff) > half_fov:
                continue
        covered.add(tid)
    return frozenset(covered)


def derive_rates(
    position: tuple[float, float],
    channel: ChannelParams,
    rng: np.random.Generator,
    num_subchannels: int,
    base_station: tuple[float, float] = (0.0, 0.0),
) -> tuple[float, ...]:
    """Per-subchannel rates for a camera at ``position``.

    Per subchannel the SNR is transmit power minus path loss, an i.i.d.
    log-normal shadowing draw and the noise floor; the rate is the highest
    MCS tier whose threshold the SNR meets, or 0 below the lowest tier.
    Distances under one meter are clamped to one meter.  The result is an
    immutable vector already checked as a camera's rates, so a camera built
    from it keeps it as it is.
    """
    m = _integer(num_subchannels, "num_subchannels")
    if m < 1:
        raise ValueError("num_subchannels must be >= 1")
    shadow = rng.normal(0.0, channel.shadowing_sigma_db, (1, m))
    return _channel_rates([position], channel, shadow, base_station)[0]


def _channel_rates(
    positions: Sequence[tuple[float, float]],
    channel: ChannelParams,
    shadow: np.ndarray,
    base_station: tuple[float, float],
) -> list[_Rates]:
    """:func:`derive_rates` for many cameras: row ``i`` of ``shadow`` holds
    the shadowing draws of ``positions[i]``.

    Path loss stays scalar per camera: numpy's ``hypot`` and ``log10`` may
    differ from :mod:`math`'s in the last ulp, and the rates must not.
    Cameras whose rows of MCS tier indexes are equal get one shared rate
    vector, checked once when it is built: a paper-default scenario has
    about a dozen distinct rows among its 81 cameras, and each camera keeps
    its row as it is.
    """
    import numpy as np

    bx, by = base_station
    budget = [
        channel.tx_power_dbm
        - (channel.pathloss_intercept_db + channel.pathloss_slope_db * math.log10(max(1.0, math.hypot(x - bx, y - by)) / 1000.0))
        for x, y in positions
    ]
    snr = np.array(budget).reshape(-1, 1) - shadow - channel.noise_floor_dbm
    thresholds = np.array([t for t, _ in channel.mcs_table])
    tiers = (0.0, *(r for _, r in channel.mcs_table))
    rows: dict[bytes, _Rates] = {}
    out = []
    for index in np.searchsorted(thresholds, snr, side="right"):
        # The key is the whole index row as stored, so a table of any
        # number of tiers keys exactly.
        key = index.tobytes()
        rates = rows.get(key)
        if rates is None:
            rates = rows[key] = _Rates(map(tiers.__getitem__, index.tolist()))
        out.append(rates)
    return out


def _grid_side(area_side: float, view_min: float) -> int:
    # Lattice cells of side s are fully covered by a disc of radius
    # s*sqrt(2)/2 at the center, so s <= view*sqrt(2) suffices.
    return max(1, math.ceil(area_side / (view_min * math.sqrt(2.0))))


def _between(u: Callable[[], float], lo: float, hi: float) -> float:
    # Generator.uniform(lo, hi) returns lo + (hi - lo) * u for its next double
    # u, so mapping a double of Generator.random the same way draws the same
    # number.
    return lo + (hi - lo) * u()


def _draws(rng: np.random.Generator, n: int) -> Callable[[], float]:
    """The next of ``n`` doubles drawn with one call, in draw order."""
    return iter(rng.random(n).tolist()).__next__


def _uniform_point(u: Callable[[], float], area: float) -> tuple[float, float]:
    return (_between(u, 0.0, area), _between(u, 0.0, area))


def _annulus_point(u: Callable[[], float], area: float, r_min: float) -> tuple[float, float]:
    # The cell-edge r_min is 0.4 * area and the corners lie 0.71 * area from
    # the centre, so the annulus meets the square and about half of all
    # draws land in it.
    cx = cy = area / 2.0
    while True:
        x, y = _uniform_point(u, area)
        if math.hypot(x - cx, y - cy) >= r_min:
            return (x, y)


def _clamp(p: tuple[float, float], area: float) -> tuple[float, float]:
    return (min(max(p[0], 0.0), area), min(max(p[1], 0.0), area))


def _near_point(
    u: Callable[[], float],
    anchor: tuple[float, float],
    radius: float,
    area: float,
) -> tuple[float, float]:
    """Uniform point within ``radius`` of ``anchor``, clamped into the area.

    Clamping projects onto the square, which never increases the distance to
    the anchor, so the point stays within ``radius`` of it.
    """
    rad = radius * math.sqrt(_between(u, 0.0, 1.0))
    ang = _between(u, 0.0, 2.0 * math.pi)
    return _clamp((anchor[0] + rad * math.cos(ang), anchor[1] + rad * math.sin(ang)), area)


def _bearing(src: tuple[float, float], dst: tuple[float, float]) -> float:
    return math.degrees(math.atan2(dst[1] - src[1], dst[0] - src[0])) % 360.0


def generate_scenario(config: ScenarioConfig, shadow_seed: int | None = None) -> Scenario:
    """Build a scenario from ``config``; deterministic given the seed.

    Placement draws come from one stream and shadowing draws from another, so
    passing a different ``shadow_seed`` re-rolls the channel while keeping
    every position fixed.

    Where the number of placement draws is known before the first one (the
    pinned and scattered cameras of ``partial_random``, the cameras beyond an
    ``overall_grid`` lattice), one ``Generator.random(n)`` call draws them
    all, and each double ``u`` maps to ``lo + (hi - lo) * u``, as
    ``Generator.uniform(lo, hi)`` maps it, so the numbers are those of one
    scalar draw each.  ``cell_edge`` draws per attempt, because its
    rejection loop does not know its count in advance.

    Deployments:

    * ``overall_grid`` places cameras on a square lattice dense enough that
      their discs cover the whole area (extra cameras beyond the lattice are
      scattered uniformly); requires omnidirectional geometry and enough
      cameras for the lattice.
    * ``partial_random`` scatters targets uniformly, pins one camera within
      view distance of each target (aimed at it when directional) and
      scatters the remaining cameras uniformly; requires at least as many
      cameras as targets.
    * ``cell_edge`` scatters targets uniformly but confines every camera to
      the outer annulus of the cell, where channel conditions are poorest.
      Targets out of reach of the annulus stay uncovered; the scenario is
      still returned and solvers then report infeasibility.
    """
    import numpy as np

    seed = config.rng_seed % (2**63)
    place_rng = np.random.default_rng([seed, 0])
    shadow = (shadow_seed if shadow_seed is not None else config.rng_seed) % (2**63)
    shadow_rng = np.random.default_rng([shadow, 1])

    area = config.area_side
    geom_spec = config.geometry
    directional = geom_spec.kind == "directional"
    vmin, vmax = geom_spec.view_distance
    k, y = config.num_cameras, config.num_targets
    annulus_r = CELL_EDGE_ANNULUS * area / 2.0 if config.deployment == "cell_edge" else None

    if config.deployment == "overall_grid" and directional:
        raise InvalidConfigError("overall_grid requires omnidirectional cameras")
    if config.deployment == "partial_random" and k < y:
        raise InvalidConfigError(
            f"deployment 'partial_random' needs num_cameras >= num_targets ({k} < {y})"
        )

    # One draw of 2y coordinates equals y scalar (x, y) point draws.
    coords = place_rng.uniform(0.0, area, 2 * y).tolist()
    targets = tuple(TargetObject(i + 1, (coords[2 * i], coords[2 * i + 1])) for i in range(y))

    # (position, view, orientation or None) per camera, in camera-id order.
    placements: list[tuple[tuple[float, float], float, float | None]] = []

    def orientation(u: Callable[[], float]) -> float | None:
        return _between(u, 0.0, 360.0) if directional else None

    # A scattered camera draws x, y, its view and, when directional, its
    # orientation.
    scatter_draws = 4 if directional else 3
    if config.deployment == "overall_grid":
        side = _grid_side(area, vmin)
        needed = side * side
        if needed > k:
            raise InvalidConfigError(
                f"view distance {vmin} needs a {side}x{side} lattice ({needed} cameras) "
                f"but only {k} are configured"
            )
        spacing = area / side
        # Lattice cameras are omnidirectional and draw one view each, so one
        # draw of ``needed`` equals ``needed`` scalar draws.
        views = place_rng.uniform(vmin, vmax, needed).tolist()
        for row in range(side):
            for col in range(side):
                pos = ((col + 0.5) * spacing, (row + 0.5) * spacing)
                placements.append((pos, views[row * side + col], None))
        scattered = k - needed
        u = _draws(place_rng, scatter_draws * scattered)
    elif config.deployment == "cell_edge":
        # The rejection loop does not know its number of draws in advance,
        # so every draw is a scalar one.
        u = place_rng.random
        for _ in range(k):
            placements.append((_annulus_point(u, area, annulus_r), _between(u, vmin, vmax), orientation(u)))
        scattered = 0
    else:
        # A pinned camera draws its view, then a radius fraction and an angle.
        scattered = k - y
        u = _draws(place_rng, 3 * y + scatter_draws * scattered)
        for tgt in targets:
            view = _between(u, vmin, vmax)
            pos = _near_point(u, tgt.position, view, area)
            orient = _bearing(pos, tgt.position) if directional else None
            placements.append((pos, view, orient))
    for _ in range(scattered):
        placements.append((_uniform_point(u, area), _between(u, vmin, vmax), orientation(u)))

    req_lo, req_hi = config.rate_requirement_range
    requirements = place_rng.uniform(req_lo, req_hi, k).tolist()

    positions = [pos for pos, _, _ in placements]
    geometries = [
        Directional(view, orient, geom_spec.fov_deg) if directional else Omnidirectional(view)
        for _, view, orient in placements
    ]
    overrides = [None if config.rate_overrides is None else config.rate_overrides.get(i + 1) for i in range(k)]
    # Every camera draws shadowing except those with a flat rate override;
    # one (n, M) draw equals n draws of M in camera-id order.
    drawing = [i for i, override in enumerate(overrides) if override is None or isinstance(override, Mapping)]
    m = config.frame.num_subchannels
    shadowing = shadow_rng.normal(0.0, config.channel.shadowing_sigma_db, (len(drawing), m))
    center = (area / 2.0, area / 2.0)
    derived = dict(zip(drawing, _channel_rates([positions[i] for i in drawing], config.channel, shadowing, center)))

    points = _points(targets)
    cameras = []
    for i, override in enumerate(overrides):
        rates = derived.get(i)
        if rates is None:  # a flat override replaces the drawn rates
            rates, override = override, None
        covered = _visible(positions[i], geometries[i], points)
        cameras.append(CameraNode(i + 1, positions[i], geometries[i], requirements[i], rates, covered, override))

    return Scenario(
        grid=config.frame,
        cameras=tuple(cameras),
        targets=targets,
        area_side=area,
        channel=config.channel,
        seed=config.rng_seed,
    )


# ---------------------------------------------------------------------------
# Document serialization
# ---------------------------------------------------------------------------

# The field readers below are shared by every document loader (scenarios here,
# schedules and sweeps in the harness): each raises ScenarioFormatError naming
# the field's path, and a string is never a list.


def need_field(doc: Mapping, key: str, path: str = "") -> tuple[Any, str]:
    """A required field of the object at ``path`` (the document when empty),
    with the field's own path."""
    where = f"{path}.{key}" if path else key
    if key not in doc:
        raise ScenarioFormatError(f"{where}: missing")
    return doc[key], where


def known_keys(doc: Mapping, keys: Collection[str], path: str = "") -> Mapping:
    """``doc``, the object at ``path`` (the document when empty), once every
    key of it is one of ``keys``; an unknown key is reported at its path."""
    for key in doc:
        if key not in keys:
            raise ScenarioFormatError(f"{path}.{key}: unknown key" if path else f"{key}: unknown key")
    return doc


def read_object(value: Any, path: str) -> Mapping:
    if not isinstance(value, Mapping):
        raise ScenarioFormatError(f"{path}: expected an object")
    return value


def read_list(value: Any, path: str, length: int | None = None) -> Sequence:
    if not isinstance(value, Sequence) or isinstance(value, (str, bytes)):
        raise ScenarioFormatError(f"{path}: expected a list")
    if length is not None and len(value) != length:
        raise ScenarioFormatError(f"{path}: expected a list of {length}")
    return value


def read_objects(value: Any, path: str) -> Iterator[tuple[Mapping, str]]:
    """Each object of a list with its path, checked as it is reached."""
    for i, item in enumerate(read_list(value, path)):
        where = f"{path}[{i}]"
        yield read_object(item, where), where


def read_number(value: Any, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ScenarioFormatError(f"{path}: expected a number")
    try:
        number = float(value)
    except OverflowError:  # an integer beyond the float range
        number = math.inf
    if not math.isfinite(number):
        raise ScenarioFormatError(f"{path}: expected a finite number")
    return number


def read_numbers(value: Any, path: str, length: int | None = None) -> tuple[float, ...]:
    """A list of finite numbers; an element's path is formatted only if it is bad."""
    return tuple(
        item if type(item) is float and math.isfinite(item) else read_number(item, f"{path}[{i}]")
        for i, item in enumerate(read_list(value, path, length))
    )


def read_integer(value: Any, path: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ScenarioFormatError(f"{path}: expected an integer")
    return value


def build_field(path: str, build: Callable[..., _T], *args: Any, **kwargs: Any) -> _T:
    """``build(*args, **kwargs)``, its ValueError reported at ``path`` (the
    whole document when empty)."""
    try:
        return build(*args, **kwargs)
    except ValueError as exc:
        raise ScenarioFormatError(f"{path}: {exc}" if path else str(exc)) from exc


def _channel_to_doc(channel: ChannelParams) -> dict:
    doc: dict[str, Any] = {name: getattr(channel, name) for name in _CHANNEL_SCALARS}
    doc["mcs_table"] = [[t, r] for t, r in channel.mcs_table]
    return doc


def _channel_from_doc(doc: Any, path: str) -> ChannelParams:
    doc = known_keys(read_object(doc, path), (*_CHANNEL_SCALARS, "mcs_table"), path)
    kwargs = {}
    for key in _CHANNEL_SCALARS:
        if key in doc:
            kwargs[key] = read_number(doc[key], f"{path}.{key}")
    if "mcs_table" in doc:
        table = f"{path}.mcs_table"
        kwargs["mcs_table"] = tuple(
            read_numbers(pair, f"{table}[{i}]", 2) for i, pair in enumerate(read_list(doc["mcs_table"], table))
        )
    return build_field(path, ChannelParams, **kwargs)


def _frame_from_doc(doc: Any, path: str) -> FrameGrid:
    doc = known_keys(read_object(doc, path), ("M", "T", "slot_capacity", "rho_ms"), path)
    m = read_integer(*need_field(doc, "M", path))
    t = read_integer(*need_field(doc, "T", path))
    cap = doc.get("slot_capacity")
    if cap is not None:
        caps = f"{path}.slot_capacity"
        cap = tuple(read_integer(c, f"{caps}[{i}]") for i, c in enumerate(read_list(cap, caps)))
    rho = read_number(doc.get("rho_ms", 10.0), f"{path}.rho_ms")
    return build_field(path, FrameGrid, m, t, cap, rho)


def _geometry_from_doc(doc: Any, path: str) -> Omnidirectional | Directional:
    doc = read_object(doc, path)
    kind, kind_path = need_field(doc, "kind", path)
    view = read_number(*need_field(doc, "view_distance", path))
    if kind == "omnidirectional":
        known_keys(doc, ("kind", "view_distance"), path)
        return build_field(path, Omnidirectional, view)
    if kind == "directional":
        known_keys(doc, ("kind", "view_distance", "orientation", "fov"), path)
        orientation = read_number(*need_field(doc, "orientation", path))
        fov = read_number(*need_field(doc, "fov", path))
        return build_field(path, Directional, view, orientation, fov)
    raise ScenarioFormatError(f"{kind_path}: expected 'omnidirectional' or 'directional'")


def _geometry_to_doc(geom: Omnidirectional | Directional) -> dict:
    if isinstance(geom, Omnidirectional):
        return {"kind": "omnidirectional", "view_distance": geom.view_distance}
    return {
        "kind": "directional",
        "view_distance": geom.view_distance,
        "orientation": geom.orientation_deg,
        "fov": geom.fov_deg,
    }


def save_scenario(scenario: Scenario) -> dict:
    """Serialize a scenario to its document form.

    Rates are written out explicitly for every camera, so loading the result
    reproduces the scenario exactly without consulting the channel model.
    """
    doc: dict[str, Any] = {
        "area": scenario.area_side,
        "frame": {
            "M": scenario.grid.num_subchannels,
            "T": scenario.grid.num_slots,
            "slot_capacity": list(scenario.grid.slot_capacity),
            "rho_ms": scenario.grid.frame_duration_ms,
        },
        "channel": _channel_to_doc(scenario.channel) if isinstance(scenario.channel, ChannelParams) else None,
        "cameras": [],
        "targets": [{"id": t.id, "x": t.position[0], "y": t.position[1]} for t in scenario.targets],
        "seed": scenario.seed,
    }
    for cam in scenario.cameras:
        entry: dict[str, Any] = {
            "id": cam.id,
            "x": cam.position[0],
            "y": cam.position[1],
            "geometry": _geometry_to_doc(cam.geometry),
            "rate_requirement": cam.rate_requirement,
            "rates": list(cam.per_subchannel_rate),
        }
        if cam.slot_rate_overrides:
            entry["slot_rates"] = {str(s): list(v) for s, v in sorted(cam.slot_rate_overrides.items())}
        doc["cameras"].append(entry)
    return doc


def load_scenario(doc: Mapping) -> Scenario:
    """Parse a scenario document; errors name the offending field.

    A camera without an explicit ``rates`` list gets rates from the channel
    model, seeded by the document seed and the camera id.  A null ``area``,
    ``channel`` or ``seed`` is read as None, as a hand-built scenario saves it.
    """
    doc = known_keys(read_object(doc, "document"), ("area", "frame", "channel", "cameras", "targets", "seed"))
    area, where = need_field(doc, "area")
    if area is not None and not (area := read_number(area, where)) > 0:
        raise ScenarioFormatError("area: must be positive")
    grid = _frame_from_doc(*need_field(doc, "frame"))
    channel = _channel_from_doc(doc["channel"], "channel") if doc.get("channel") is not None else None
    seed = doc.get("seed")
    if seed is not None:
        seed = read_integer(seed, "seed")

    targets = []
    for entry, path in read_objects(*need_field(doc, "targets")):
        known_keys(entry, ("id", "x", "y"), path)
        target_id = read_integer(*need_field(entry, "id", path))
        pos = (read_number(*need_field(entry, "x", path)), read_number(*need_field(entry, "y", path)))
        targets.append(TargetObject(target_id, pos))

    points = _points(targets)
    default_rng = None  # numpy's, imported for the first camera without rates
    cameras = []
    for entry, path in read_objects(*need_field(doc, "cameras")):
        known_keys(entry, ("id", "x", "y", "geometry", "rate_requirement", "rates", "slot_rates"), path)
        cam_id = read_integer(*need_field(entry, "id", path))
        pos = (read_number(*need_field(entry, "x", path)), read_number(*need_field(entry, "y", path)))
        geometry = _geometry_from_doc(*need_field(entry, "geometry", path))
        requirement = read_number(*need_field(entry, "rate_requirement", path))
        if entry.get("rates") is not None:
            rates = read_numbers(entry["rates"], f"{path}.rates", grid.num_subchannels)
        else:
            if channel is None:
                raise ScenarioFormatError(f"{path}.rates: missing and no channel model to derive from")
            if area is None:
                raise ScenarioFormatError(f"{path}.rates: missing and no area to place the base station in")
            if default_rng is None:
                from numpy.random import default_rng
            # numpy takes only non-negative seed words, and the id is one.
            rng = build_field(f"{path}.id", default_rng, [(seed or 0) % (2**63), 1, cam_id])
            rates = derive_rates(pos, channel, rng, grid.num_subchannels, (area / 2.0, area / 2.0))
        slot_overrides = None
        if entry.get("slot_rates") is not None:
            slot_rates = f"{path}.slot_rates"
            slot_overrides = {}
            for s, vec in read_object(entry["slot_rates"], slot_rates).items():
                # int() would also read "+1", " 1", "1_0" and non-ASCII digits.
                if not (isinstance(s, str) and s.isascii() and s.isdigit()):
                    raise ScenarioFormatError(f"{slot_rates}: slot keys must be decimal integers")
                slot = int(s)
                if not 1 <= slot <= grid.num_slots:
                    raise ScenarioFormatError(f"{slot_rates}[{s}]: slot must lie in 1..{grid.num_slots}")
                if slot in slot_overrides:  # keys such as "2" and "02" name one slot
                    raise ScenarioFormatError(f"{slot_rates}[{s}]: repeats slot {slot}")
                slot_overrides[slot] = read_numbers(vec, f"{slot_rates}[{s}]", grid.num_subchannels)
        covered = _visible(pos, geometry, points)
        cameras.append(build_field(path, CameraNode, cam_id, pos, geometry, requirement, rates, covered, slot_overrides))

    return build_field(
        "",
        Scenario,
        grid=grid,
        cameras=tuple(cameras),
        targets=tuple(targets),
        area_side=area,
        channel=channel,
        seed=seed,
    )


def config_from_document(doc: Mapping, path: str = "") -> ScenarioConfig:
    """Parse a generator configuration document; missing keys take
    defaults and unknown keys are rejected.

    Each value is set on its own, so a rejected one is reported at its key.
    ``path`` is the config's own path when it sits inside another document
    (``config`` in a sweep), and errors then name their keys below it.
    """
    p = f"{path}." if path else ""
    keys = ("area", "num_targets", "num_cameras", "deployment", "geometry", "rate_requirement", "frame", "channel", "seed")
    doc = known_keys(read_object(doc, path or "config"), keys, path)
    config = ScenarioConfig()
    if "area" in doc:
        config = build_field(f"{p}area", replace, config, area_side=read_number(doc["area"], f"{p}area"))
    for key in ("num_targets", "num_cameras", "deployment"):
        if key in doc:
            config = build_field(p + key, replace, config, **{key: doc[key]})
    if "geometry" in doc:
        g = known_keys(read_object(doc["geometry"], f"{p}geometry"), ("kind", "view_distance", "fov"), f"{p}geometry")
        geometry = GeometrySpec()
        if "kind" in g:
            geometry = build_field(f"{p}geometry.kind", replace, geometry, kind=g["kind"])
        if "view_distance" in g:
            where = f"{p}geometry.view_distance"
            geometry = build_field(where, replace, geometry, view_distance=read_numbers(g["view_distance"], where, 2))
        if "fov" in g:
            where = f"{p}geometry.fov"
            geometry = build_field(where, replace, geometry, fov_deg=read_number(g["fov"], where))
        config = replace(config, geometry=geometry)
    if "rate_requirement" in doc:
        where = f"{p}rate_requirement"
        config = build_field(where, replace, config, rate_requirement_range=read_numbers(doc["rate_requirement"], where, 2))
    if "frame" in doc:
        config = replace(config, frame=_frame_from_doc(doc["frame"], f"{p}frame"))
    if doc.get("channel") is not None:
        config = replace(config, channel=_channel_from_doc(doc["channel"], f"{p}channel"))
    if "seed" in doc:
        config = build_field(f"{p}seed", replace, config, rng_seed=doc["seed"])
    return config
