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
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Iterable, Mapping, Sequence

import numpy as np

from .model import (
    CameraNode,
    Directional,
    FrameGrid,
    Omnidirectional,
    Scenario,
    TargetObject,
)

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
    "read_number",
    "read_integer",
    "read_string",
]

DEPLOYMENTS = ("overall_grid", "partial_random", "cell_edge")

# Cameras in the cell-edge scheme sit in the outer annulus beyond this
# fraction of the cell radius.
CELL_EDGE_ANNULUS = 0.8

THERMAL_NOISE_DBM_PER_HZ = -174.0


class InvalidConfigError(ValueError):
    """A scenario configuration that cannot be realized."""


class ScenarioFormatError(ValueError):
    """A scenario document that violates the schema; the message names the field."""


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
        if not self.rb_bandwidth_hz > 0:
            raise ValueError("rb_bandwidth_hz must be positive")
        if self.shadowing_sigma_db < 0:
            raise ValueError("shadowing_sigma_db must be non-negative")
        table = tuple((float(t), float(r)) for t, r in self.mcs_table)
        if not table:
            raise ValueError("mcs_table must not be empty")
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
        if not self.area_side > 0:
            raise ValueError("area_side must be positive")
        if self.num_targets < 1:
            raise ValueError("num_targets must be >= 1")
        if self.num_cameras < 1:
            raise ValueError("num_cameras must be >= 1")
        if self.deployment not in DEPLOYMENTS:
            raise ValueError(f"deployment must be one of {DEPLOYMENTS}")
        lo, hi = self.rate_requirement_range
        if not (0 < lo <= hi):
            raise ValueError("rate_requirement_range must satisfy 0 < min <= max")
        object.__setattr__(self, "rate_requirement_range", (float(lo), float(hi)))


def compute_coverage(camera: CameraNode, targets: Iterable[TargetObject]) -> frozenset[int]:
    """Target ids geometrically visible to ``camera``.

    Distance comparison is boundary inclusive.  For directional cameras the
    bearing to the target must lie within half the field of view of the
    orientation, again boundary inclusive; a target at zero distance counts
    as covered.
    """
    return _visible(camera.position, camera.geometry, targets)


def _visible(
    position: tuple[float, float], geom: Omnidirectional | Directional, targets: Iterable[TargetObject]
) -> frozenset[int]:
    """:func:`compute_coverage` for a camera not yet built."""
    cx, cy = position
    covered = set()
    for tgt in targets:
        dx = tgt.position[0] - cx
        dy = tgt.position[1] - cy
        dist = math.hypot(dx, dy)
        if dist > geom.view_distance:
            continue
        if isinstance(geom, Directional) and dist > 0.0:
            bearing = math.degrees(math.atan2(dy, dx)) % 360.0
            diff = (bearing - geom.orientation_deg + 180.0) % 360.0 - 180.0
            if abs(diff) > geom.fov_deg / 2.0:
                continue
        covered.add(tgt.id)
    return frozenset(covered)


def derive_rates(
    position: tuple[float, float],
    channel: ChannelParams,
    rng: np.random.Generator,
    num_subchannels: int,
    base_station: tuple[float, float] = (0.0, 0.0),
) -> list[float]:
    """Per-subchannel rates for a camera at ``position``.

    Per subchannel the SNR is transmit power minus path loss, an i.i.d.
    log-normal shadowing draw and the noise floor; the rate is the highest
    MCS tier whose threshold the SNR meets, or 0 below the lowest tier.
    Distances under one meter are clamped to one meter.
    """
    dist_m = max(1.0, math.hypot(position[0] - base_station[0], position[1] - base_station[1]))
    pathloss = channel.pathloss_intercept_db + channel.pathloss_slope_db * math.log10(dist_m / 1000.0)
    shadow = rng.normal(0.0, channel.shadowing_sigma_db, num_subchannels)
    snr = channel.tx_power_dbm - pathloss - shadow - channel.noise_floor_dbm
    thresholds = np.array([t for t, _ in channel.mcs_table])
    tiers = np.concatenate(([0.0], [r for _, r in channel.mcs_table]))
    idx = np.searchsorted(thresholds, snr, side="right")
    return [float(r) for r in tiers[idx]]


def _grid_side(area_side: float, view_min: float) -> int:
    # Lattice cells of side s are fully covered by a disc of radius
    # s*sqrt(2)/2 at the center, so s <= view*sqrt(2) suffices.
    return max(1, math.ceil(area_side / (view_min * math.sqrt(2.0))))


def _uniform_point(rng: np.random.Generator, area: float) -> tuple[float, float]:
    return (float(rng.uniform(0.0, area)), float(rng.uniform(0.0, area)))


def _annulus_point(rng: np.random.Generator, area: float, r_min: float) -> tuple[float, float]:
    cx = cy = area / 2.0
    for _ in range(10_000):
        x, y = _uniform_point(rng, area)
        if math.hypot(x - cx, y - cy) >= r_min:
            return (x, y)
    raise InvalidConfigError("annulus rejection sampling failed; annulus is empty")


def _clamp(p: tuple[float, float], area: float) -> tuple[float, float]:
    return (min(max(p[0], 0.0), area), min(max(p[1], 0.0), area))


def _near_point(
    rng: np.random.Generator,
    anchor: tuple[float, float],
    radius: float,
    area: float,
) -> tuple[float, float]:
    """Uniform point within ``radius`` of ``anchor``, clamped into the area.

    Clamping projects onto the square, which never increases the distance to
    the anchor, so the point stays within ``radius`` of it.
    """
    rad = radius * math.sqrt(float(rng.uniform(0.0, 1.0)))
    ang = float(rng.uniform(0.0, 2.0 * math.pi))
    return _clamp((anchor[0] + rad * math.cos(ang), anchor[1] + rad * math.sin(ang)), area)


def _bearing(src: tuple[float, float], dst: tuple[float, float]) -> float:
    return math.degrees(math.atan2(dst[1] - src[1], dst[0] - src[0])) % 360.0


def generate_scenario(config: ScenarioConfig, shadow_seed: int | None = None) -> Scenario:
    """Build a scenario from ``config``; deterministic given the seed.

    Placement draws come from one stream and shadowing draws from another, so
    passing a different ``shadow_seed`` re-rolls the channel while keeping
    every position fixed.

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

    targets = tuple(TargetObject(i + 1, _uniform_point(place_rng, area)) for i in range(y))

    # (position, view, orientation or None) per camera, in camera-id order.
    placements: list[tuple[tuple[float, float], float, float | None]] = []

    def sample_view() -> float:
        return float(place_rng.uniform(vmin, vmax))

    def sample_orientation() -> float | None:
        if not directional:
            return None
        return float(place_rng.uniform(0.0, 360.0))

    if config.deployment == "overall_grid":
        side = _grid_side(area, vmin)
        needed = side * side
        if needed > k:
            raise InvalidConfigError(
                f"view distance {vmin} needs a {side}x{side} lattice ({needed} cameras) "
                f"but only {k} are configured"
            )
        spacing = area / side
        for row in range(side):
            for col in range(side):
                pos = ((col + 0.5) * spacing, (row + 0.5) * spacing)
                placements.append((pos, sample_view(), sample_orientation()))
        for _ in range(k - needed):
            placements.append((_uniform_point(place_rng, area), sample_view(), sample_orientation()))
    elif config.deployment == "cell_edge":
        for _ in range(k):
            placements.append((_annulus_point(place_rng, area, annulus_r), sample_view(), sample_orientation()))
    else:
        for tgt in targets:
            view = sample_view()
            pos = _near_point(place_rng, tgt.position, view, area)
            orient = _bearing(pos, tgt.position) if directional else None
            placements.append((pos, view, orient))
        for _ in range(k - y):
            placements.append((_uniform_point(place_rng, area), sample_view(), sample_orientation()))

    req_lo, req_hi = config.rate_requirement_range
    requirements = [float(place_rng.uniform(req_lo, req_hi)) for _ in range(k)]

    center = (area / 2.0, area / 2.0)
    m = config.frame.num_subchannels
    cameras = []
    for i, (pos, view, orient) in enumerate(placements):
        cam_id = i + 1
        geometry = (
            Directional(view, orient if orient is not None else 0.0, geom_spec.fov_deg)
            if directional
            else Omnidirectional(view)
        )
        override = None if config.rate_overrides is None else config.rate_overrides.get(cam_id)
        slot_overrides = None
        if override is None:
            rates = derive_rates(pos, config.channel, shadow_rng, m, center)
        elif isinstance(override, Mapping):
            rates = derive_rates(pos, config.channel, shadow_rng, m, center)
            slot_overrides = {int(s): tuple(float(r) for r in vec) for s, vec in override.items()}
        else:
            rates = [float(r) for r in override]
        cameras.append(
            CameraNode(
                id=cam_id,
                position=pos,
                geometry=geometry,
                rate_requirement=requirements[i],
                per_subchannel_rate=tuple(rates),
                coverage_set=_visible(pos, geometry, targets),
                slot_rate_overrides=slot_overrides,
            )
        )

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
# the field's path.


def need_field(doc: Mapping, key: str, path: str) -> Any:
    if key not in doc:
        raise ScenarioFormatError(f"{path}{key}: missing")
    return doc[key]


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


def read_integer(value: Any, path: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ScenarioFormatError(f"{path}: expected an integer")
    return value


def read_string(value: Any, path: str) -> str:
    if not isinstance(value, str):
        raise ScenarioFormatError(f"{path}: expected a string")
    return value


def _channel_to_doc(channel: ChannelParams) -> dict:
    return {
        "tx_power_dbm": channel.tx_power_dbm,
        "pathloss_intercept_db": channel.pathloss_intercept_db,
        "pathloss_slope_db": channel.pathloss_slope_db,
        "shadowing_sigma_db": channel.shadowing_sigma_db,
        "noise_figure_db": channel.noise_figure_db,
        "rb_bandwidth_hz": channel.rb_bandwidth_hz,
        "mcs_table": [[t, r] for t, r in channel.mcs_table],
    }


def _channel_from_doc(doc: Mapping, path: str) -> ChannelParams:
    if not isinstance(doc, Mapping):
        raise ScenarioFormatError(f"{path}: expected an object")
    kwargs = {}
    for key in (
        "tx_power_dbm",
        "pathloss_intercept_db",
        "pathloss_slope_db",
        "shadowing_sigma_db",
        "noise_figure_db",
        "rb_bandwidth_hz",
    ):
        if key in doc:
            kwargs[key] = read_number(doc[key], f"{path}.{key}")
    if "mcs_table" in doc:
        raw = doc["mcs_table"]
        if not isinstance(raw, Sequence) or isinstance(raw, (str, bytes)):
            raise ScenarioFormatError(f"{path}.mcs_table: expected a list of [threshold, rate] pairs")
        table = []
        for i, pair in enumerate(raw):
            if not isinstance(pair, Sequence) or len(pair) != 2:
                raise ScenarioFormatError(f"{path}.mcs_table[{i}]: expected a [threshold, rate] pair")
            table.append((read_number(pair[0], f"{path}.mcs_table[{i}][0]"), read_number(pair[1], f"{path}.mcs_table[{i}][1]")))
        kwargs["mcs_table"] = tuple(table)
    try:
        return ChannelParams(**kwargs)
    except ValueError as exc:
        raise ScenarioFormatError(f"{path}: {exc}") from exc


def _frame_from_doc(doc: Mapping, path: str = "frame") -> FrameGrid:
    if not isinstance(doc, Mapping):
        raise ScenarioFormatError(f"{path}: expected an object")
    m = read_integer(need_field(doc, "M", f"{path}."), f"{path}.M")
    t = read_integer(need_field(doc, "T", f"{path}."), f"{path}.T")
    cap = doc.get("slot_capacity")
    if cap is not None:
        if not isinstance(cap, Sequence) or isinstance(cap, (str, bytes)):
            raise ScenarioFormatError(f"{path}.slot_capacity: expected a list or null")
        cap = tuple(read_integer(c, f"{path}.slot_capacity[{i}]") for i, c in enumerate(cap))
    rho = read_number(doc.get("rho_ms", 10.0), f"{path}.rho_ms")
    try:
        return FrameGrid(m, t, cap, rho)
    except ValueError as exc:
        raise ScenarioFormatError(f"{path}: {exc}") from exc


def _geometry_from_doc(doc: Any, path: str) -> Omnidirectional | Directional:
    if not isinstance(doc, Mapping):
        raise ScenarioFormatError(f"{path}: expected an object")
    kind = need_field(doc, "kind", f"{path}.")
    view = read_number(need_field(doc, "view_distance", f"{path}."), f"{path}.view_distance")
    try:
        if kind == "omnidirectional":
            return Omnidirectional(view)
        if kind == "directional":
            orientation = read_number(need_field(doc, "orientation", f"{path}."), f"{path}.orientation")
            fov = read_number(need_field(doc, "fov", f"{path}."), f"{path}.fov")
            return Directional(view, orientation, fov)
    except ValueError as exc:
        raise ScenarioFormatError(f"{path}: {exc}") from exc
    raise ScenarioFormatError(f"{path}.kind: expected 'omnidirectional' or 'directional'")


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
    model, seeded by the document seed and the camera id.
    """
    if not isinstance(doc, Mapping):
        raise ScenarioFormatError("document: expected a JSON object")
    area = read_number(need_field(doc, "area", ""), "area")
    if not area > 0:
        raise ScenarioFormatError("area: must be positive")
    grid = _frame_from_doc(need_field(doc, "frame", ""))
    channel_doc = doc.get("channel")
    channel = _channel_from_doc(channel_doc, "channel") if channel_doc is not None else None
    seed = doc.get("seed")
    if seed is not None:
        seed = read_integer(seed, "seed")

    raw_targets = need_field(doc, "targets", "")
    if not isinstance(raw_targets, Sequence):
        raise ScenarioFormatError("targets: expected a list")
    targets = []
    for i, entry in enumerate(raw_targets):
        path = f"targets[{i}]"
        if not isinstance(entry, Mapping):
            raise ScenarioFormatError(f"{path}: expected an object")
        targets.append(
            TargetObject(
                read_integer(need_field(entry, "id", f"{path}."), f"{path}.id"),
                (read_number(need_field(entry, "x", f"{path}."), f"{path}.x"), read_number(need_field(entry, "y", f"{path}."), f"{path}.y")),
            )
        )

    raw_cameras = need_field(doc, "cameras", "")
    if not isinstance(raw_cameras, Sequence):
        raise ScenarioFormatError("cameras: expected a list")
    center = (area / 2.0, area / 2.0)
    cameras = []
    for i, entry in enumerate(raw_cameras):
        path = f"cameras[{i}]"
        if not isinstance(entry, Mapping):
            raise ScenarioFormatError(f"{path}: expected an object")
        cam_id = read_integer(need_field(entry, "id", f"{path}."), f"{path}.id")
        pos = (
            read_number(need_field(entry, "x", f"{path}."), f"{path}.x"),
            read_number(need_field(entry, "y", f"{path}."), f"{path}.y"),
        )
        geometry = _geometry_from_doc(need_field(entry, "geometry", f"{path}."), f"{path}.geometry")
        requirement = read_number(need_field(entry, "rate_requirement", f"{path}."), f"{path}.rate_requirement")
        if "rates" in entry and entry["rates"] is not None:
            raw_rates = entry["rates"]
            if not isinstance(raw_rates, Sequence) or isinstance(raw_rates, (str, bytes)):
                raise ScenarioFormatError(f"{path}.rates: expected a list of numbers")
            rates = tuple(read_number(r, f"{path}.rates[{j}]") for j, r in enumerate(raw_rates))
        else:
            if channel is None:
                raise ScenarioFormatError(f"{path}.rates: missing and no channel model to derive from")
            rng = np.random.default_rng([(seed or 0) % (2**63), 1, cam_id])
            rates = tuple(derive_rates(pos, channel, rng, grid.num_subchannels, center))
        slot_overrides = None
        if "slot_rates" in entry and entry["slot_rates"] is not None:
            raw_sr = entry["slot_rates"]
            if not isinstance(raw_sr, Mapping):
                raise ScenarioFormatError(f"{path}.slot_rates: expected an object keyed by slot")
            slot_overrides = {}
            for s, vec in raw_sr.items():
                try:
                    slot = int(s)
                except (TypeError, ValueError):
                    raise ScenarioFormatError(f"{path}.slot_rates: slot keys must be integers") from None
                if not 1 <= slot <= grid.num_slots:
                    raise ScenarioFormatError(f"{path}.slot_rates[{s}]: slot must lie in 1..{grid.num_slots}")
                if not isinstance(vec, Sequence) or isinstance(vec, (str, bytes)):
                    raise ScenarioFormatError(f"{path}.slot_rates[{s}]: expected a list of numbers")
                slot_overrides[slot] = tuple(read_number(r, f"{path}.slot_rates[{s}][{j}]") for j, r in enumerate(vec))
        try:
            cam = CameraNode(
                id=cam_id,
                position=pos,
                geometry=geometry,
                rate_requirement=requirement,
                per_subchannel_rate=rates,
                coverage_set=_visible(pos, geometry, targets),
                slot_rate_overrides=slot_overrides,
            )
        except ValueError as exc:
            raise ScenarioFormatError(f"{path}: {exc}") from exc
        cameras.append(cam)

    try:
        return Scenario(
            grid=grid,
            cameras=tuple(cameras),
            targets=tuple(targets),
            area_side=area,
            channel=channel,
            seed=seed,
        )
    except ValueError as exc:
        raise ScenarioFormatError(str(exc)) from exc


def config_from_document(doc: Mapping) -> ScenarioConfig:
    """Parse a generator configuration document; missing keys take defaults."""
    if not isinstance(doc, Mapping):
        raise ScenarioFormatError("config: expected a JSON object")
    kwargs: dict[str, Any] = {}
    if "area" in doc:
        kwargs["area_side"] = read_number(doc["area"], "area")
    if "num_targets" in doc:
        kwargs["num_targets"] = read_integer(doc["num_targets"], "num_targets")
    if "num_cameras" in doc:
        kwargs["num_cameras"] = read_integer(doc["num_cameras"], "num_cameras")
    if "deployment" in doc:
        kwargs["deployment"] = doc["deployment"]
    if "geometry" in doc:
        g = doc["geometry"]
        if not isinstance(g, Mapping):
            raise ScenarioFormatError("geometry: expected an object")
        gkw: dict[str, Any] = {}
        if "kind" in g:
            gkw["kind"] = g["kind"]
        if "view_distance" in g:
            vd = g["view_distance"]
            if not isinstance(vd, Sequence) or len(vd) != 2:
                raise ScenarioFormatError("geometry.view_distance: expected [min, max]")
            gkw["view_distance"] = (read_number(vd[0], "geometry.view_distance[0]"), read_number(vd[1], "geometry.view_distance[1]"))
        if "fov" in g:
            gkw["fov_deg"] = read_number(g["fov"], "geometry.fov")
        try:
            kwargs["geometry"] = GeometrySpec(**gkw)
        except ValueError as exc:
            raise ScenarioFormatError(f"geometry: {exc}") from exc
    if "rate_requirement" in doc:
        rr = doc["rate_requirement"]
        if not isinstance(rr, Sequence) or len(rr) != 2:
            raise ScenarioFormatError("rate_requirement: expected [min, max]")
        kwargs["rate_requirement_range"] = (read_number(rr[0], "rate_requirement[0]"), read_number(rr[1], "rate_requirement[1]"))
    if "frame" in doc:
        kwargs["frame"] = _frame_from_doc(doc["frame"])
    if "channel" in doc and doc["channel"] is not None:
        kwargs["channel"] = _channel_from_doc(doc["channel"], "channel")
    if "seed" in doc:
        kwargs["rng_seed"] = read_integer(doc["seed"], "seed")
    try:
        return ScenarioConfig(**kwargs)
    except ValueError as exc:
        raise ScenarioFormatError(str(exc)) from exc
