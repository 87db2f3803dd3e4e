"""Scenario generation, coverage geometry, channel model and document IO."""

import hashlib
import json
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from csrap import (
    CameraNode,
    ChannelParams,
    Directional,
    FrameGrid,
    GeometrySpec,
    InvalidConfigError,
    Omnidirectional,
    Scenario,
    ScenarioConfig,
    ScenarioFormatError,
    TargetObject,
    compute_coverage,
    derive_rates,
    generate_scenario,
    load_scenario,
    save_scenario,
)
from csrap import scenario as scenario_module
from csrap.model import _Rates
from csrap.scenario import CELL_EDGE_ANNULUS, DEPLOYMENTS, _channel_rates, _geometry_to_doc
from support import brute_force_coverage


class TestComputeCoverage:
    def test_distance_boundary_is_inclusive(self):
        cam = CameraNode(1, (0, 0), Omnidirectional(30.0), 5.0, (8.0,))
        tgt = TargetObject(1, (30.0, 0.0))
        assert compute_coverage(cam, [tgt]) == {1}

    def test_bearing_outside_half_fov_is_not_covered(self):
        cam = CameraNode(1, (0, 0), Directional(30.0, 0.0, 120.0), 5.0, (8.0,))
        bearing = math.radians(61.0)
        tgt = TargetObject(1, (10 * math.cos(bearing), 10 * math.sin(bearing)))
        assert compute_coverage(cam, [tgt]) == frozenset()

    def test_bearing_on_half_fov_is_covered(self):
        cam = CameraNode(1, (0, 0), Directional(30.0, 0.0, 120.0), 5.0, (8.0,))
        bearing = math.radians(60.0)
        tgt = TargetObject(1, (10 * math.cos(bearing), 10 * math.sin(bearing)))
        assert compute_coverage(cam, [tgt]) == {1}

    def test_target_at_camera_position_is_covered(self):
        cam = CameraNode(1, (5, 5), Directional(30.0, 90.0, 60.0), 5.0, (8.0,))
        assert compute_coverage(cam, [TargetObject(1, (5, 5))]) == {1}

    def test_wraparound_orientation(self):
        cam = CameraNode(1, (0, 0), Directional(30.0, 350.0, 40.0), 5.0, (8.0,))
        inside = TargetObject(1, (10 * math.cos(math.radians(5)), 10 * math.sin(math.radians(5))))
        outside = TargetObject(2, (10 * math.cos(math.radians(15)), 10 * math.sin(math.radians(15))))
        assert compute_coverage(cam, [inside, outside]) == {1}

    def test_matches_brute_force_on_generated_scenario(self):
        cfg = ScenarioConfig(
            deployment="partial_random",
            num_cameras=50,
            num_targets=40,
            geometry=GeometrySpec(kind="directional", view_distance=(30.0, 60.0), fov_deg=140.0),
            frame=FrameGrid(8, 2),
            rng_seed=3,
        )
        scn = generate_scenario(cfg)
        for cam in scn.cameras:
            assert cam.coverage_set == brute_force_coverage(cam, scn.targets)


class TestDeriveRates:
    def test_degenerate_single_entry_table(self):
        channel = ChannelParams(mcs_table=((-1e9, 4.0),), shadowing_sigma_db=0.0)
        rates = derive_rates((100.0, 0.0), channel, np.random.default_rng(0), 6)
        assert rates == (4.0,) * 6

    def test_farther_camera_never_beats_nearer_without_shadowing(self):
        channel = ChannelParams(shadowing_sigma_db=0.0)
        rng = np.random.default_rng(0)
        near = derive_rates((50.0, 0.0), channel, rng, 8)
        far = derive_rates((400.0, 0.0), channel, rng, 8)
        assert all(f <= n for n, f in zip(near, far))

    def test_outputs_are_quantized_to_table_rates_or_zero(self):
        channel = ChannelParams()
        rng = np.random.default_rng(1)
        allowed = {r for _, r in channel.mcs_table} | {0.0}
        for d in (1.0, 120.0, 900.0, 4000.0):
            for r in derive_rates((d, 0.0), channel, rng, 16):
                assert r in allowed

    def test_zero_distance_clamps_to_one_meter(self):
        channel = ChannelParams(shadowing_sigma_db=0.0)
        at_bs = derive_rates((0.0, 0.0), channel, np.random.default_rng(0), 4)
        at_1m = derive_rates((1.0, 0.0), channel, np.random.default_rng(0), 4)
        assert at_bs == at_1m

    def test_matches_straight_line_reimplementation(self):
        # Same draws, independently coded formula, 10k samples.
        channel = ChannelParams()
        rng_a = np.random.default_rng(42)
        rng_b = np.random.default_rng(42)
        n_cameras, m = 200, 50
        for i in range(n_cameras):
            pos = (13.0 * i + 1.0, 7.0 * (i % 9))
            got = derive_rates(pos, channel, rng_a, m)
            # straight-line reimplementation
            dist = max(1.0, math.sqrt(pos[0] ** 2 + pos[1] ** 2))
            pl = 128.1 + 37.6 * math.log10(dist / 1000.0)
            noise = -174.0 + 10.0 * math.log10(180e3) + 5.0
            shadows = rng_b.normal(0.0, 8.0, m)
            expected = []
            for s in shadows:
                snr = 24.0 - pl - s - noise
                rate = 0.0
                for thr, r in channel.mcs_table:
                    if snr >= thr:
                        rate = r
                expected.append(rate)
            assert got == pytest.approx(expected, abs=1e-3)


    @pytest.mark.parametrize(
        "config",
        [
            ScenarioConfig(rng_seed=11),
            ScenarioConfig(deployment="partial_random", num_cameras=30, num_targets=12, rng_seed=12),
            ScenarioConfig(
                deployment="partial_random",
                num_cameras=30,
                num_targets=12,
                geometry=GeometrySpec(kind="directional", view_distance=(30.0, 60.0)),
                channel=ChannelParams(tx_power_dbm=6.0),
                rng_seed=13,
            ),
        ],
        ids=["paper_default", "partial_random", "partial_random_weak"],
    )
    def test_generated_rates_equal_one_draw_per_camera(self, config):
        # Generation makes one (n, M) shadowing draw and shares a rate tuple
        # among cameras with equal tier rows; that must equal n draws of M,
        # camera by camera, from a fresh shadowing stream.
        scn = generate_scenario(config)
        rng = np.random.default_rng([config.rng_seed, 1])
        center = (config.area_side / 2.0, config.area_side / 2.0)
        for cam in scn.cameras:
            rates = derive_rates(cam.position, config.channel, rng, config.frame.num_subchannels, center)
            assert type(rates) is _Rates
            assert all(type(r) is float for r in rates)
            assert tuple(rates) == cam.per_subchannel_rate

    def test_cameras_with_equal_tier_rows_share_one_rate_vector(self):
        # Each distinct row is built and checked once; the cameras keep it.
        scn = generate_scenario(ScenarioConfig(rng_seed=3))
        rows = [cam.per_subchannel_rate for cam in scn.cameras]
        assert len(rows) == 81
        assert len({id(row) for row in rows}) == len(set(rows)) == 12

    def test_tier_rows_are_keyed_beyond_255_tiers(self):
        # Tier indexes 20 and 276 agree modulo 256, so a row key narrowed to
        # one byte per index would give the second camera the first's rates.
        channel = ChannelParams(mcs_table=tuple((float(t), float(t + 301)) for t in range(-300, 0)), shadowing_sigma_db=0.0)
        pos = (300.0, 400.0)  # 500 m from the base station
        budget = channel.tx_power_dbm - (channel.pathloss_intercept_db + channel.pathloss_slope_db * math.log10(0.5))
        snr = budget - channel.noise_floor_dbm
        shadow = np.array([[snr + 280.5] * 3, [snr + 24.5] * 3])
        low, high = channel.mcs_table[19][1], channel.mcs_table[275][1]
        assert _channel_rates([pos, pos], channel, shadow, (0.0, 0.0)) == [(low,) * 3, (high,) * 3]

    def test_a_camera_keeps_the_drawn_row(self):
        rates = derive_rates((100.0, 0.0), ChannelParams(), np.random.default_rng(0), 6)
        cam = CameraNode(1, (100.0, 0.0), Omnidirectional(30.0), 5.0, rates)
        assert cam.per_subchannel_rate is rates

    @pytest.mark.parametrize("num_subchannels", [0, -1, 2.5, True])
    def test_num_subchannels_must_be_a_positive_integer(self, num_subchannels):
        with pytest.raises(ValueError, match="num_subchannels"):
            derive_rates((100.0, 0.0), ChannelParams(), np.random.default_rng(0), num_subchannels)


class TestGenerateScenario:
    def test_overall_grid_covers_every_probe_point(self):
        cfg = ScenarioConfig(rng_seed=5, frame=FrameGrid(6, 2))
        scn = generate_scenario(cfg)
        probe_rng = np.random.default_rng(123)
        points = probe_rng.uniform(0.0, cfg.area_side, size=(1000, 2))
        positions = np.array([c.position for c in scn.cameras])
        for p in points:
            dists = np.hypot(positions[:, 0] - p[0], positions[:, 1] - p[1])
            assert dists.min() <= 40.0

    def test_partial_random_single_pair_is_covered(self):
        cfg = ScenarioConfig(
            deployment="partial_random",
            num_targets=1,
            num_cameras=1,
            geometry=GeometrySpec(view_distance=(30.0, 60.0)),
            frame=FrameGrid(4, 1),
            rng_seed=9,
        )
        scn = generate_scenario(cfg)
        assert scn.cameras[0].coverage_set == {1}
        assert scn.uncovered_targets() == ()

    def test_partial_random_directional_dedicated_camera_is_aimed(self):
        cfg = ScenarioConfig(
            deployment="partial_random",
            num_targets=5,
            num_cameras=8,
            geometry=GeometrySpec(kind="directional", view_distance=(30.0, 60.0), fov_deg=90.0),
            frame=FrameGrid(4, 1),
            rng_seed=10,
        )
        scn = generate_scenario(cfg)
        for i in range(5):
            assert (i + 1) in scn.cameras[i].coverage_set

    def test_same_seed_is_byte_identical(self):
        cfg = ScenarioConfig(deployment="partial_random", num_cameras=30, num_targets=20, rng_seed=77, frame=FrameGrid(10, 2))
        a = json.dumps(save_scenario(generate_scenario(cfg)), sort_keys=True)
        b = json.dumps(save_scenario(generate_scenario(cfg)), sort_keys=True)
        assert a == b

    def test_different_seed_differs(self):
        cfg = ScenarioConfig(deployment="partial_random", num_cameras=30, num_targets=20, rng_seed=77, frame=FrameGrid(10, 2))
        cfg2 = ScenarioConfig(deployment="partial_random", num_cameras=30, num_targets=20, rng_seed=78, frame=FrameGrid(10, 2))
        a = save_scenario(generate_scenario(cfg))
        b = save_scenario(generate_scenario(cfg2))
        assert a != b

    def test_shadow_seed_freezes_placement_but_not_rates(self):
        cfg = ScenarioConfig(deployment="partial_random", num_cameras=20, num_targets=10, rng_seed=4, frame=FrameGrid(10, 2))
        a = generate_scenario(cfg, shadow_seed=100)
        b = generate_scenario(cfg, shadow_seed=101)
        assert [c.position for c in a.cameras] == [c.position for c in b.cameras]
        assert [t.position for t in a.targets] == [t.position for t in b.targets]
        assert any(x.per_subchannel_rate != y.per_subchannel_rate for x, y in zip(a.cameras, b.cameras))

    def test_grid_too_small_for_view_distance_is_invalid(self):
        cfg = ScenarioConfig(num_cameras=10, geometry=GeometrySpec(view_distance=(40.0, 40.0)))
        with pytest.raises(InvalidConfigError):
            generate_scenario(cfg)

    def test_overall_grid_rejects_directional(self):
        cfg = ScenarioConfig(geometry=GeometrySpec(kind="directional", view_distance=(40.0, 40.0)))
        with pytest.raises(InvalidConfigError):
            generate_scenario(cfg)

    def test_partial_random_needs_enough_cameras(self):
        cfg = ScenarioConfig(deployment="partial_random", num_cameras=5, num_targets=10)
        with pytest.raises(InvalidConfigError):
            generate_scenario(cfg)

    # numpy's uniform draw overflows on an infinite range, so each is
    # rejected when the configuration is built.
    @pytest.mark.parametrize(
        "field, build, value",
        [
            ("area_side", ScenarioConfig, math.inf),
            ("rate_requirement_range", ScenarioConfig, (4.0, math.inf)),
            ("view_distance", GeometrySpec, (40.0, math.inf)),
        ],
    )
    def test_infinite_config_values_are_rejected(self, field, build, value):
        with pytest.raises(ValueError, match=f"^{field}.* must be finite$"):
            build(**{field: value})

    # numpy would reject each one later, at generation, with a TypeError.
    @pytest.mark.parametrize("field, value", [("num_targets", 2.5), ("num_cameras", 81.0), ("rng_seed", 1.5)])
    def test_non_integer_config_values_are_rejected(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} must be an integer, not {value}$"):
            ScenarioConfig(**{field: value})

    def test_integer_like_config_values_are_stored_as_int(self):
        cfg = ScenarioConfig(num_targets=np.int64(5), num_cameras=np.int64(81), rng_seed=np.int64(3))
        assert [type(v) for v in (cfg.num_targets, cfg.num_cameras, cfg.rng_seed)] == [int] * 3
        assert generate_scenario(cfg) == generate_scenario(ScenarioConfig(num_targets=5, rng_seed=3))

    def test_rate_override_for_a_missing_camera_is_rejected(self):
        # A key past num_cameras names no camera, so generation would ignore it.
        for key in (0, 999):
            with pytest.raises(ValueError, match=f"^rate_overrides names camera {key}, outside 1..81$"):
                ScenarioConfig(rate_overrides={key: [8.0] * 50})
        with pytest.raises(ValueError, match="rate_overrides key must be an integer"):
            ScenarioConfig(rate_overrides={"3": [8.0] * 50})

    def test_cell_edge_cameras_sit_in_the_annulus(self):
        cfg = ScenarioConfig(
            deployment="cell_edge",
            num_cameras=40,
            num_targets=10,
            area_side=500.0,
            frame=FrameGrid(8, 2),
            rng_seed=6,
        )
        scn = generate_scenario(cfg)
        r_min = CELL_EDGE_ANNULUS * 250.0
        for cam in scn.cameras:
            assert math.hypot(cam.position[0] - 250.0, cam.position[1] - 250.0) >= r_min

    def test_cell_edge_flags_unreachable_targets(self):
        # Central targets cannot be seen from the annulus with a short view.
        cfg = ScenarioConfig(
            deployment="cell_edge",
            num_cameras=40,
            num_targets=30,
            area_side=500.0,
            geometry=GeometrySpec(view_distance=(30.0, 30.0)),
            frame=FrameGrid(8, 2),
            rng_seed=6,
        )
        scn = generate_scenario(cfg)
        assert scn.uncovered_targets()

    def test_rate_override_hook(self):
        cfg = ScenarioConfig(
            deployment="partial_random",
            num_cameras=2,
            num_targets=2,
            frame=FrameGrid(3, 2),
            rng_seed=1,
            rate_overrides={1: [8.0, 4.0, 7.0], 2: {1: [2.0, 2.0, 2.0]}},
        )
        scn = generate_scenario(cfg)
        assert scn.cameras[0].per_subchannel_rate == (8.0, 4.0, 7.0)
        assert scn.cameras[1].rates_in_slot(1) == (2.0, 2.0, 2.0)
        assert scn.cameras[1].rates_in_slot(2) == scn.cameras[1].per_subchannel_rate

    def test_drawn_slot_rate_overrides_are_kept_as_drawn(self):
        # A derive_rates row per camera and slot, drawn at a weak transmit
        # power so that the rows differ: each camera keeps every row as the
        # same object, and the scenario is the one list copies give.
        cfg = ScenarioConfig(num_targets=10, frame=FrameGrid(6, 3), rng_seed=2)
        weak = replace(cfg.channel, tx_power_dbm=6.0)
        rng = np.random.default_rng(5)
        center = (cfg.area_side / 2.0, cfg.area_side / 2.0)
        overrides = {
            cam.id: {slot: derive_rates(cam.position, weak, rng, 6, center) for slot in (1, 2, 3)}
            for cam in generate_scenario(cfg).cameras
        }
        scn = generate_scenario(replace(cfg, rate_overrides=overrides))
        for cam in scn.cameras:
            for slot, row in overrides[cam.id].items():
                assert cam.slot_rate_overrides[slot] is row
        copies = {cam_id: {slot: list(row) for slot, row in rows.items()} for cam_id, rows in overrides.items()}
        assert repr(generate_scenario(replace(cfg, rate_overrides=copies))) == repr(scn)


class TestDocuments:
    def test_round_trip_is_identity(self):
        cfg = ScenarioConfig(
            deployment="cell_edge",
            num_cameras=15,
            num_targets=8,
            geometry=GeometrySpec(kind="directional", view_distance=(60.0, 100.0), fov_deg=120.0),
            frame=FrameGrid(6, 2, slot_capacity=(6, 5)),
            rng_seed=21,
        )
        scn = generate_scenario(cfg)
        doc = save_scenario(scn)
        again = load_scenario(json.loads(json.dumps(doc)))
        assert save_scenario(again) == doc
        assert again.cameras == scn.cameras
        assert again.targets == scn.targets
        assert again.grid == scn.grid

    def test_explicit_rates_pass_through_verbatim(self):
        doc = {
            "area": 100.0,
            "frame": {"M": 3, "T": 1, "slot_capacity": None, "rho_ms": 10.0},
            "channel": None,
            "cameras": [
                {
                    "id": 1,
                    "x": 10.0,
                    "y": 10.0,
                    "geometry": {"kind": "omnidirectional", "view_distance": 30.0},
                    "rate_requirement": 9.0,
                    "rates": [8, 4, 7],
                }
            ],
            "targets": [{"id": 1, "x": 12.0, "y": 10.0}],
            "seed": 0,
        }
        scn = load_scenario(doc)
        assert scn.cameras[0].per_subchannel_rate == (8.0, 4.0, 7.0)
        assert scn.cameras[0].coverage_set == {1}

    def test_missing_rate_requirement_names_the_field(self):
        doc = {
            "area": 100.0,
            "frame": {"M": 2, "T": 1},
            "channel": None,
            "cameras": [
                {
                    "id": 1,
                    "x": 0.0,
                    "y": 0.0,
                    "geometry": {"kind": "omnidirectional", "view_distance": 30.0},
                    "rates": [8, 8],
                }
            ],
            "targets": [],
            "seed": 0,
        }
        with pytest.raises(ScenarioFormatError, match="rate_requirement"):
            load_scenario(doc)

    def test_missing_rates_without_channel_is_an_error(self):
        doc = {
            "area": 100.0,
            "frame": {"M": 2, "T": 1},
            "channel": None,
            "cameras": [
                {
                    "id": 1,
                    "x": 0.0,
                    "y": 0.0,
                    "geometry": {"kind": "omnidirectional", "view_distance": 30.0},
                    "rate_requirement": 5.0,
                }
            ],
            "targets": [],
            "seed": 0,
        }
        with pytest.raises(ScenarioFormatError, match="rates"):
            load_scenario(doc)

    def test_rates_derived_from_channel_when_omitted(self):
        doc = {
            "area": 100.0,
            "frame": {"M": 4, "T": 1},
            "channel": {"shadowing_sigma_db": 0.0, "mcs_table": [[-1e9, 4.0]]},
            "cameras": [
                {
                    "id": 1,
                    "x": 0.0,
                    "y": 0.0,
                    "geometry": {"kind": "omnidirectional", "view_distance": 30.0},
                    "rate_requirement": 5.0,
                }
            ],
            "targets": [],
            "seed": 3,
        }
        scn = load_scenario(doc)
        assert scn.cameras[0].per_subchannel_rate == (4.0, 4.0, 4.0, 4.0)

    def test_bad_geometry_kind_is_an_error(self):
        doc = {
            "area": 10.0,
            "frame": {"M": 1, "T": 1},
            "channel": None,
            "cameras": [
                {
                    "id": 1,
                    "x": 0,
                    "y": 0,
                    "geometry": {"kind": "fisheye", "view_distance": 3.0},
                    "rate_requirement": 1.0,
                    "rates": [8],
                }
            ],
            "targets": [],
            "seed": 0,
        }
        with pytest.raises(ScenarioFormatError, match="kind"):
            load_scenario(doc)

    def test_slot_rates_round_trip(self):
        doc = {
            "area": 10.0,
            "frame": {"M": 2, "T": 2},
            "channel": None,
            "cameras": [
                {
                    "id": 1,
                    "x": 0,
                    "y": 0,
                    "geometry": {"kind": "omnidirectional", "view_distance": 3.0},
                    "rate_requirement": 4.0,
                    "rates": [8, 8],
                    "slot_rates": {"2": [2, 2]},
                }
            ],
            "targets": [{"id": 1, "x": 1, "y": 1}],
            "seed": 0,
        }
        scn = load_scenario(doc)
        assert scn.cameras[0].rates_in_slot(2) == (2.0, 2.0)
        assert save_scenario(scn)["cameras"][0]["slot_rates"] == {"2": [2.0, 2.0]}

    def test_hand_built_scenario_round_trips(self):
        # Without area_side, channel or seed the document holds three nulls.
        cam = CameraNode(1, (0.0, 0.0), Omnidirectional(3.0), 4.0, (8.0, 2.0), frozenset({1}), {2: (2.0, 2.0)})
        scn = Scenario(FrameGrid(2, 2), (cam,), (TargetObject(1, (1.0, 1.0)),))
        doc = json.loads(json.dumps(save_scenario(scn)))
        assert (doc["area"], doc["channel"], doc["seed"]) == (None, None, None)
        assert load_scenario(doc) == scn

    @pytest.mark.parametrize(
        "area, channel, reason",
        [
            (None, None, "no channel model to derive from"),
            (10.0, None, "no channel model to derive from"),
            (None, {}, "no area to place the base station in"),
        ],
    )
    def test_camera_without_rates_names_what_is_missing(self, area, channel, reason):
        cam = CameraNode(1, (0.0, 0.0), Omnidirectional(3.0), 4.0, (8.0, 2.0), frozenset({1}))
        doc = save_scenario(Scenario(FrameGrid(2, 1), (cam,), (TargetObject(1, (1.0, 1.0)),)))
        doc.update(area=area, channel=channel)
        del doc["cameras"][0]["rates"]
        with pytest.raises(ScenarioFormatError, match=rf"^cameras\[0\]\.rates: missing and {reason}$"):
            load_scenario(doc)

    def test_camera_without_rates_keeps_the_derived_row(self, monkeypatch):
        cfg = ScenarioConfig(deployment="partial_random", num_cameras=12, num_targets=6, frame=FrameGrid(5, 2), rng_seed=8)
        doc = json.loads(json.dumps(save_scenario(generate_scenario(cfg))))
        for cam in doc["cameras"]:
            del cam["rates"]
        drawn = []

        def recording(*args):
            drawn.append(derive_rates(*args))
            return drawn[-1]

        monkeypatch.setattr(scenario_module, "derive_rates", recording)
        cameras = load_scenario(doc).cameras
        assert len(drawn) == len(cameras)
        for cam, row in zip(cameras, drawn):
            assert cam.per_subchannel_rate is row

    def test_mcs_table_validation(self):
        with pytest.raises(ValueError):
            ChannelParams(mcs_table=((5.0, 4.0), (5.0, 6.0)))
        with pytest.raises(ValueError):
            ChannelParams(mcs_table=((5.0, 4.0), (7.0, 2.0)))
        with pytest.raises(ValueError):
            ChannelParams(rb_bandwidth_hz=0.0)

    @pytest.mark.parametrize(
        "build, message",
        [
            (lambda: ChannelParams(shadowing_sigma_db=-1.0), "shadowing_sigma_db must be non-negative"),
            (lambda: ChannelParams(mcs_table=((-1.0, 0.0), (5.0, 4.0))), "mcs_table rates must be positive"),
            (lambda: ScenarioConfig(num_cameras=0), "num_cameras must be >= 1"),
        ],
    )
    def test_out_of_range_channel_and_config_values_are_rejected(self, build, message):
        with pytest.raises(ValueError, match=message):
            build()

    # A NaN SNR sorts past every MCS threshold, so a NaN transmit power would
    # give every subchannel of every camera the top rate.
    @pytest.mark.parametrize(
        "field, kwargs",
        [
            (name, {name: bad})
            for name in (
                "tx_power_dbm",
                "pathloss_intercept_db",
                "pathloss_slope_db",
                "shadowing_sigma_db",
                "noise_figure_db",
                "rb_bandwidth_hz",
            )
            for bad in (math.nan, math.inf, -math.inf)
        ]
        + [
            ("mcs_table", {"mcs_table": table})
            for table in (((math.nan, 2.0),), ((-1.0, 2.0), (5.0, math.inf)), ((-math.inf, 2.0),))
        ],
    )
    def test_channel_rejects_non_finite_values(self, field, kwargs):
        with pytest.raises(ValueError, match=f"^{field}.* must be finite$"):
            ChannelParams(**kwargs)

    def test_first_bad_camera_in_document_order_is_reported(self):
        geometry = {"kind": "omnidirectional", "view_distance": 3.0}
        doc = {
            "area": 10.0,
            "frame": {"M": 1, "T": 1},
            "cameras": [
                {"id": 1, "x": 0, "y": 0, "geometry": geometry, "rate_requirement": -1, "rates": [8]},
                {"id": 2, "x": 0, "y": 0, "rate_requirement": 4.0, "rates": [8]},
            ],
            "targets": [{"id": 1, "x": 1, "y": 1}],
        }
        with pytest.raises(ScenarioFormatError, match=r"^cameras\[0\]: rate_requirement must be positive$"):
            load_scenario(doc)


def _directional(fov, view=(30.0, 60.0)):
    return GeometrySpec(kind="directional", view_distance=view, fov_deg=fov)


# SHA-256 of json.dumps(save_scenario(generate_scenario(config, shadow_seed)),
# sort_keys=True), recorded before generation became array-at-a-time: any
# drift in placement, shadowing, rates or coverage changes a digest.
GENERATION_DIGESTS = {
    "grid_paper_default": (
        ScenarioConfig(rng_seed=0),
        None,
        "ce659730115a18d826de7ad906cf2e35d57b1ee9c8ad382b508e5f2479f0bac2",
    ),
    "grid_view_range": (
        ScenarioConfig(num_targets=10, geometry=GeometrySpec(view_distance=(40.0, 70.0)), frame=FrameGrid(20, 4), rng_seed=7),
        None,
        "7caf18332425753a22d276e132cf5d5b6826bacd36c28eba6e8908319b645e48",
    ),
    "grid_flat_overrides": (
        ScenarioConfig(
            num_cameras=90,
            frame=FrameGrid(4, 2),
            rng_seed=11,
            rate_overrides={1: [8.0, 4.0, 0.0, 6.0], 45: [2.0, 2.0, 2.0, 2.0]},
        ),
        None,
        "5aaeac6b9014f4b274f221793a2dd0f45730e5fb72736ba898ef2754b3d7a508",
    ),
    "random_omni": (
        ScenarioConfig(deployment="partial_random", num_cameras=30, num_targets=20, frame=FrameGrid(10, 2), rng_seed=1),
        None,
        "888faf888806b9c7e78b475fb91d451a72cd8d28da3c14334d47609376d50494",
    ),
    "random_fov60": (
        ScenarioConfig(
            deployment="partial_random", num_cameras=40, num_targets=25, geometry=_directional(60.0), frame=FrameGrid(12, 3), rng_seed=2
        ),
        None,
        "c3e133cff7cfb4e3d451e8fa5eb0f6b8c8caabcfa4c0ed6dbc455f8c380d186b",
    ),
    "random_fov120": (
        ScenarioConfig(
            deployment="partial_random",
            num_cameras=40,
            num_targets=30,
            geometry=_directional(120.0, (20.0, 80.0)),
            frame=FrameGrid(12, 3),
            rng_seed=3,
        ),
        None,
        "b2f4cd9bfb384e32ac9a7a8b41444878308f871073a71016f5367d742af5d10e",
    ),
    "random_fov200": (
        ScenarioConfig(
            deployment="partial_random", num_cameras=50, num_targets=40, geometry=_directional(200.0), frame=FrameGrid(8, 2), rng_seed=4
        ),
        None,
        "2f0fc005f664ec318a5fa2f6a6990cf0a3d47ee94f84b22de17cbda82e2f4957",
    ),
    "random_fov360": (
        ScenarioConfig(
            deployment="partial_random", num_cameras=25, num_targets=25, geometry=_directional(360.0), frame=FrameGrid(8, 2), rng_seed=5
        ),
        None,
        "748f4130f3ac880aa9a967d38c806c027ce260bce607e273a3b47bd355de7bb3",
    ),
    "random_slot_overrides": (
        ScenarioConfig(
            deployment="partial_random",
            num_cameras=12,
            num_targets=8,
            frame=FrameGrid(5, 3),
            rng_seed=6,
            rate_overrides={
                2: {1: [2.0, 4.0, 6.0, 8.0, 0.0], 3: [4.0] * 5},
                5: [6.0, 6.0, 0.0, 2.0, 8.0],
                9: {2: [8.0] * 5},
            },
        ),
        None,
        "5c317417de9797bc203ff34198688285a9a91535b72855fc821d5ad693d1739b",
    ),
    "edge_omni": (
        ScenarioConfig(
            deployment="cell_edge",
            num_cameras=40,
            num_targets=15,
            geometry=GeometrySpec(view_distance=(60.0, 120.0)),
            frame=FrameGrid(10, 2),
            rng_seed=8,
        ),
        None,
        "c5e0f6a71f63366903022d70ba3b39a4748521ae1335e2f53eaed193a53e1e4d",
    ),
    "edge_fov90": (
        ScenarioConfig(
            deployment="cell_edge",
            num_cameras=30,
            num_targets=12,
            geometry=_directional(90.0, (80.0, 150.0)),
            frame=FrameGrid(6, 2, slot_capacity=(6, 4)),
            rng_seed=9,
        ),
        None,
        "9e63016b814b23098bc02c8de74117731b4d297ff696b53f429410f289897aa2",
    ),
    "edge_shadow_seed": (
        ScenarioConfig(
            deployment="cell_edge",
            num_cameras=20,
            num_targets=10,
            geometry=_directional(300.0, (100.0, 100.0)),
            frame=FrameGrid(9, 2),
            rng_seed=10,
        ),
        99,
        "56b4bac7c9de7c2ac7bfea476c3b3ad3c134b2a12b1af56e02af862c5a51a45c",
    ),
    # The shape of perfbench's larger exact_ladder rung.
    "random_ladder_rung": (
        ScenarioConfig(
            area_side=200.0,
            deployment="partial_random",
            num_cameras=10,
            num_targets=7,
            geometry=GeometrySpec(view_distance=(40.0, 60.0)),
            frame=FrameGrid(10, 2),
            rng_seed=12,
        ),
        None,
        "51192d751f837f91026d483efff5023d415a686e7b0306dbaeea14e806ddf6d1",
    ),
    # A 9x9 lattice and 19 cameras scattered beyond it.
    "grid_extra_cameras": (
        ScenarioConfig(num_cameras=100, frame=FrameGrid(10, 2), rng_seed=13),
        None,
        "9a2f43e9e00f983eba03b7ac11765e2c42bc4e7a6f742ac7b6d4d9f8467e0fc1",
    ),
}


@pytest.mark.parametrize("name", sorted(GENERATION_DIGESTS))
def test_generation_digest_is_frozen(name):
    config, shadow_seed, digest = GENERATION_DIGESTS[name]
    text = json.dumps(save_scenario(generate_scenario(config, shadow_seed=shadow_seed)), sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == digest


@pytest.mark.parametrize(
    "lo, hi",
    [(40.0, 40.0), (40.0, 60.0), (30.0, 90.0), (20.0, 80.0), (0.0, 1.0), (0.0, 2.0 * math.pi), (0.0, 200.0), (0.0, 500.0), (0.0, 360.0)],
)
def test_a_mapped_double_is_the_uniform_draw(lo, hi):
    # Generation maps each placement double of Generator.random to
    # lo + (hi - lo) * u, taking it for Generator.uniform's draw; a numpy
    # build that fuses the multiply-add in uniform breaks that.
    a, b = np.random.default_rng(17), np.random.default_rng(17)
    for u in b.random(50_000).tolist():
        assert float(a.uniform(lo, hi)) == lo + (hi - lo) * u


# ---------------------------------------------------------------------------
# Coverage edges: compute_coverage against the brute-force oracle
# ---------------------------------------------------------------------------

COORD = st.floats(0.0, 1000.0)
ANGLE = st.one_of(st.sampled_from([0.0, 1e-12, 90.0, 180.0, 270.0, 360.0 - 1e-12]), st.floats(0.0, 360.0, exclude_max=True))
FOV = st.one_of(st.sampled_from([1.0, 60.0, 90.0, 120.0, 180.0, 270.0, 360.0]), st.floats(0.01, 360.0))


def _at(origin, distance, degrees):
    rad = math.radians(degrees)
    return (origin[0] + distance * math.cos(rad), origin[1] + distance * math.sin(rad))


@st.composite
def edge_targets(draw, cameras):
    """Target points on the edges of each camera's coverage: on the view
    circle, on the camera itself, on both edges of the field of view (inside
    and at the view distance), on either side of the 0/360 wrap, and along
    each axis at the view distance and one ulp beyond it, on both sides of
    the per-axis rejection."""
    points = []
    for position, geom in cameras:
        view = geom.view_distance
        points.append(_at(position, view, draw(ANGLE)))
        points.append(position)
        points.append(_at(position, view * draw(st.floats(0.0, 1.0)), draw(st.sampled_from([-1e-9, 0.0, 1e-9, 360.0]))))
        if isinstance(geom, Directional):
            for edge in (geom.orientation_deg + geom.fov_deg / 2.0, geom.orientation_deg - geom.fov_deg / 2.0):
                points.append(_at(position, view * draw(st.floats(0.0, 1.0)), edge))
                points.append(_at(position, view, edge))
        x, y = position
        for reach in (view, math.nextafter(view, math.inf)):
            points += [(x + reach, y), (x - reach, y), (x, y + reach), (x, y - reach)]
    return [TargetObject(i + 1, p) for i, p in enumerate(points)]


@st.composite
def edge_layouts(draw):
    cameras = []
    for _ in range(draw(st.integers(1, 4))):
        view = draw(st.floats(0.5, 300.0))
        if draw(st.booleans()):
            geom = Omnidirectional(view)
        else:
            geom = Directional(view, draw(ANGLE), draw(FOV))
        cameras.append(((draw(COORD), draw(COORD)), geom))
    return cameras, draw(edge_targets(cameras))


def _built(cameras):
    return [CameraNode(i + 1, pos, geom, 1.0, (1.0,)) for i, (pos, geom) in enumerate(cameras)]


def _reference(cameras, targets):
    """The oracle's coverage per camera, in the iteration order of a set
    filled in target order and then frozen."""
    return [list(frozenset(brute_force_coverage(cam, targets))) for cam in _built(cameras)]


class TestCoverageEdges:
    @settings(max_examples=300, deadline=None)
    @given(edge_layouts())
    def test_coverage_equals_oracle_on_edges(self, layout):
        cameras, targets = layout
        got = [list(compute_coverage(cam, targets)) for cam in _built(cameras)]
        assert got == _reference(cameras, targets)

    @settings(max_examples=100, deadline=None)
    @given(edge_layouts())
    def test_loaded_documents_match_reference(self, layout):
        cameras, targets = layout
        doc = {
            "area": 1000.0,
            "frame": {"M": 1, "T": 1},
            "cameras": [
                {"id": i + 1, "x": p[0], "y": p[1], "geometry": _geometry_to_doc(g), "rate_requirement": 1.0, "rates": [1.0]}
                for i, (p, g) in enumerate(cameras)
            ],
            "targets": [{"id": t.id, "x": t.position[0], "y": t.position[1]} for t in targets],
        }
        scn = load_scenario(json.loads(json.dumps(doc)))
        assert [list(c.coverage_set) for c in scn.cameras] == _reference(cameras, scn.targets)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**32), st.sampled_from(DEPLOYMENTS), FOV, st.data())
    def test_generated_scenarios_match_reference(self, seed, deployment, fov, data):
        geometry = GeometrySpec(view_distance=(40.0, 90.0))
        if deployment != "overall_grid":
            geometry = _directional(fov, (40.0, 90.0))
        cfg = ScenarioConfig(
            area_side=300.0, num_cameras=40, num_targets=20, deployment=deployment, geometry=geometry, frame=FrameGrid(2, 1), rng_seed=seed
        )
        scn = generate_scenario(cfg)
        cameras = [(c.position, c.geometry) for c in scn.cameras]
        assert [list(c.coverage_set) for c in scn.cameras] == _reference(cameras, scn.targets)
        targets = data.draw(edge_targets(cameras))
        assert [list(compute_coverage(cam, targets)) for cam in scn.cameras] == _reference(cameras, targets)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**40),
    deployment=st.sampled_from(DEPLOYMENTS),
    directional=st.booleans(),
    overrides=st.booleans(),
    shadow_seed=st.one_of(st.none(), st.integers(0, 1000)),
)
def test_document_round_trip_reproduces_the_scenario(seed, deployment, directional, overrides, shadow_seed):
    geometry = GeometrySpec(view_distance=(50.0, 80.0))
    if directional and deployment != "overall_grid":
        geometry = _directional(150.0, (50.0, 80.0))
    rate_overrides = None
    if overrides:
        rate_overrides = {2: {1: [2.0, 0.0, 8.0], 3: [4.0, 4.0, 6.0]}, 4: [6.0, 6.0, 2.0], 7: {2: [8.0, 8.0, 8.0]}}
    cfg = ScenarioConfig(
        area_side=200.0,
        num_cameras=12,
        num_targets=8,
        deployment=deployment,
        geometry=geometry,
        frame=FrameGrid(3, 3),
        rng_seed=seed,
        rate_overrides=rate_overrides,
    )
    scn = generate_scenario(cfg, shadow_seed=shadow_seed)
    again = load_scenario(json.loads(json.dumps(save_scenario(scn))))
    assert again.cameras == scn.cameras
    assert repr(again.cameras) == repr(scn.cameras)  # coverage iteration order too
    assert again.targets == scn.targets
    assert again.grid == scn.grid
