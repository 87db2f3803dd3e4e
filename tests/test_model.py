"""Core model: candidate runs, schedules and the feasibility verifier."""

import ast
import copy
import importlib
import math
import pickle
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from csrap import (
    CameraNode,
    CandidateAllocation,
    CandidateTable,
    Directional,
    FrameGrid,
    Omnidirectional,
    Scenario,
    ScenarioConfig,
    Schedule,
    SweepSpec,
    TargetObject,
    exact_solve,
    m_mramc,
    verify_schedule,
)
from csrap.model import runs_by_length
from support import brute_force_runs, ilp_constraints_hold, random_instance, slot_runs, verify_schedule_oracle


def make_camera(rates, requirement, cam_id=1, coverage=frozenset({1})):
    return CameraNode(
        id=cam_id,
        position=(0.0, 0.0),
        geometry=Omnidirectional(1.0),
        rate_requirement=requirement,
        per_subchannel_rate=tuple(rates),
        coverage_set=coverage,
    )


def table_candidates(cam, grid):
    """Every candidate of ``cam`` by slot, start and length, read from its table."""
    table = CandidateTable([cam], grid)
    return [
        CandidateAllocation(cam.id, slot, *run)
        for slot, runs in enumerate(slot_runs(table, cam.id), 1)
        for run in runs
    ]


class TestRobustRate:
    """A run's robust rate is the minimum rate over the run."""

    def test_mixed_run(self):
        assert runs_by_length([8, 4, 7], 9.0) == {3: [(1, 4.0)]}

    def test_singleton(self):
        assert runs_by_length([5], 5.0) == {1: [(1, 5.0)]}

    def test_constant(self):
        assert runs_by_length([3, 3, 3], 9.0) == {3: [(1, 3.0)]}

    @given(
        st.lists(st.integers(min_value=0, max_value=50), min_size=1, max_size=12),
        st.integers(min_value=1, max_value=200),
    )
    def test_equals_minimum(self, rates, requirement):
        for length, runs in runs_by_length(rates, requirement).items():
            for start, robust in runs:
                assert robust == min(rates[start - 1 : start - 1 + length])


class TestEnumerateCandidates:
    def test_three_rb_run_just_achieves(self):
        # 4*2 = 8 < 9 while 4*3 = 12 >= 9, so the full-width run qualifies.
        cam = make_camera([8, 4, 7], 9.0)
        cands = table_candidates(cam, FrameGrid(3, 1))
        assert CandidateAllocation(1, 1, 1, 3, 4.0) in cands

    def test_single_rb_exact_fit(self):
        cam = make_camera([10], 10.0)
        cands = table_candidates(cam, FrameGrid(1, 1))
        assert cands == [CandidateAllocation(1, 1, 1, 1, 10.0)]

    def test_rate_drop_admits_two_lengths_from_same_start(self):
        cam = make_camera([8, 4], 8.0)
        cands = table_candidates(cam, FrameGrid(2, 1))
        assert cands == [
            CandidateAllocation(1, 1, 1, 1, 8.0),
            CandidateAllocation(1, 1, 1, 2, 4.0),
        ]
        expected = brute_force_runs([8, 4], 8.0)
        assert [(c.start, c.length, c.robust_rate) for c in cands] == expected

    def test_no_candidates_when_unachievable(self):
        cam = make_camera([1, 1], 10.0)
        assert table_candidates(cam, FrameGrid(2, 1)) == []

    def test_zero_rate_subchannels_never_appear_inside_runs(self):
        cam = make_camera([8, 0, 8], 9.0)
        cands = table_candidates(cam, FrameGrid(3, 2))
        for c in cands:
            rates = cam.per_subchannel_rate[c.start - 1 : c.start - 1 + c.length]
            assert all(r > 0 for r in rates)

    def test_matches_brute_force_on_random_rate_vectors(self):
        rng = np.random.default_rng(7)
        for _ in range(300):
            m = int(rng.integers(1, 9))
            rates = [float(rng.choice([0, 2, 3, 4, 6, 8])) for _ in range(m)]
            req = float(rng.integers(1, 20))
            cam = make_camera(rates, req)
            t = int(rng.integers(1, 3))
            grid = FrameGrid(m, t)
            got = table_candidates(cam, grid)
            expected = [
                CandidateAllocation(1, slot, start, length, rate)
                for slot in range(1, t + 1)
                for start, length, rate in brute_force_runs(rates, req)
            ]
            assert got == expected
            assert len(got) <= t * (1 + m) * m / 2

    def test_every_candidate_satisfies_membership_invariants(self):
        rng = np.random.default_rng(13)
        for _ in range(100):
            m = int(rng.integers(1, 8))
            rates = [float(rng.choice([0, 2, 4, 8])) for _ in range(m)]
            cam = make_camera(rates, float(rng.integers(2, 25)))
            for c in table_candidates(cam, FrameGrid(m, 1)):
                assert 1 <= c.start and c.start + c.length - 1 <= m
                window = rates[c.start - 1 : c.start - 1 + c.length]
                assert c.robust_rate == min(window)
                assert c.robust_rate * (c.length - 1) < cam.rate_requirement
                assert c.robust_rate * c.length >= cam.rate_requirement

    # A float ratio can miss the smallest length either way: 2.1/0.3 reads
    # 7.000000000000001, so ceil gives 8 where 0.3*7 >= 2.1; and 0.3*3 reads
    # 0.8999999999999999, so ceil(0.9/0.3) = 3 falls short of 0.9.
    @pytest.mark.parametrize("requirement, length", [(2.1, 7), (0.9, 4)])
    @pytest.mark.parametrize("rates", [[0.3] * 10, [0.3] * 9 + [0.6]], ids=["uniform", "mixed"])
    def test_float_ratio_is_settled_by_the_membership_products(self, rates, requirement, length):
        runs = runs_by_length(rates, requirement)
        got = sorted((start, n, robust) for n, found in runs.items() for start, robust in found)
        assert got == brute_force_runs(rates, requirement)
        assert min(runs) == length

    def test_deterministic_ordering(self):
        cam = make_camera([4, 4, 4, 4], 7.0)
        cands = table_candidates(cam, FrameGrid(4, 2))
        keys = [(c.slot, c.start, c.length) for c in cands]
        assert keys == sorted(keys)


class TestTypes:
    def test_frame_grid_defaults_capacity_to_full_width(self):
        grid = FrameGrid(5, 3)
        assert grid.slot_capacity == (5, 5, 5)
        assert grid.capacity(2) == 5

    def test_frame_grid_rejects_bad_shapes(self):
        with pytest.raises(ValueError):
            FrameGrid(0, 1)
        with pytest.raises(ValueError):
            FrameGrid(3, 2, slot_capacity=(1,))
        with pytest.raises(ValueError):
            FrameGrid(3, 1, slot_capacity=(4,))
        with pytest.raises(ValueError):
            FrameGrid(3, 1, frame_duration_ms=0)

    @pytest.mark.parametrize("duration", [math.inf, math.nan, 0.0, -1.0])
    def test_frame_grid_rejects_a_duration_that_is_not_positive_and_finite(self, duration):
        with pytest.raises(ValueError, match="frame_duration_ms"):
            FrameGrid(8, 2, frame_duration_ms=duration)

    @pytest.mark.parametrize(
        "args, kwargs, field",
        [
            ((4.5, 2), {}, "num_subchannels"),
            ((4, 2.0), {}, "num_slots"),
            (("4", 2), {}, "num_subchannels"),
            ((4, 1), {"slot_capacity": (2.5,)}, "slot_capacity"),
            ((4, 2), {"slot_capacity": (2, "3")}, "slot_capacity"),
        ],
    )
    def test_frame_grid_rejects_non_integer_sizes(self, args, kwargs, field):
        with pytest.raises(ValueError, match=field):
            FrameGrid(*args, **kwargs)

    def test_frame_grid_keeps_integer_sizes(self):
        grid = FrameGrid(np.int64(4), np.int64(2), slot_capacity=(np.int64(3), 4))
        assert grid == FrameGrid(4, 2, slot_capacity=(3, 4))
        assert all(type(n) is int for n in (grid.num_subchannels, grid.num_slots, *grid.slot_capacity))

    @pytest.mark.parametrize(
        "build, message",
        [
            (lambda: FrameGrid(4, 0), "num_slots must be >= 1"),
            (lambda: Directional(10.0, 0.0, 0.0), r"fov_deg must lie in \(0, 360\]"),
            (
                lambda: CameraNode(1, (0, 0), Omnidirectional(1.0), 5.0, (8.0, 8.0), slot_rate_overrides={1: (2.0,)}),
                "slot rate override length must match",
            ),
            (lambda: CandidateAllocation(1, 0, 1, 1, 8.0), "1-based and must be >= 1"),
            (lambda: CandidateAllocation(1, 1, 1, 1, 0.0), "robust_rate must be positive"),
            (
                lambda: Scenario(FrameGrid(2, 1), (make_camera([8, 8], 5.0),), (TargetObject(1, (0, 0)),) * 2),
                "target ids must be unique",
            ),
            (lambda: runs_by_length((8.0, 8.0), 0.0), "requirement must be positive"),
        ],
    )
    def test_out_of_range_inputs_are_rejected(self, build, message):
        with pytest.raises(ValueError, match=message):
            build()

    # Each caller of the integer check, with True where it wants an integer.
    @pytest.mark.parametrize(
        "build, field",
        [
            (lambda: FrameGrid(True, 2), "num_subchannels"),
            (lambda: FrameGrid(2, 1, slot_capacity=(True,)), "each slot_capacity entry"),
            (
                lambda: CameraNode(1, (0, 0), Omnidirectional(1.0), 5.0, (8.0,), slot_rate_overrides={True: (2.0,)}),
                "each slot_rate_overrides key",
            ),
            (lambda: ScenarioConfig(num_targets=True), "num_targets"),
            (lambda: ScenarioConfig(rate_overrides={True: (8.0,)}), "each rate_overrides key"),
            (lambda: SweepSpec(trials=True), "trials"),
            (lambda: m_mramc(two_camera_scenario(), {1: True}), "multiplicity of target 1"),
            (lambda: exact_solve(two_camera_scenario(), node_budget=True), "node_budget"),
        ],
    )
    def test_a_bool_is_not_an_integer(self, build, field):
        with pytest.raises(ValueError, match=f"^{field} must be an integer, not True$"):
            build()

    # Each integer field of an allocation, a camera and a target; a float
    # slot let through would fail only later, as a tuple index in the verifier.
    INTEGER_FIELDS = {
        "camera_id": lambda v: CandidateAllocation(v, 1, 1, 1, 2.0),
        "slot": lambda v: CandidateAllocation(1, v, 1, 1, 2.0),
        "start": lambda v: CandidateAllocation(1, 1, v, 1, 2.0),
        "length": lambda v: CandidateAllocation(1, 1, 1, v, 2.0),
        "CameraNode.id": lambda v: CameraNode(v, (0, 0), Omnidirectional(1.0), 5.0, (8.0,)),
        "TargetObject.id": lambda v: TargetObject(v, (0, 0)),
    }

    @pytest.mark.parametrize("field", INTEGER_FIELDS)
    @pytest.mark.parametrize("bad", [True, 1.5, "1"])
    def test_integer_fields_reject_non_integers(self, field, bad):
        with pytest.raises(ValueError, match=f"^{field.split('.')[-1]} must be an integer, not {bad!r}$"):
            self.INTEGER_FIELDS[field](bad)

    @pytest.mark.parametrize("field", INTEGER_FIELDS)
    def test_integer_fields_store_an_integer_like_value_as_int(self, field):
        built = self.INTEGER_FIELDS[field](np.int64(1))
        value = getattr(built, field.split(".")[-1])
        assert value == 1 and type(value) is int

    # frozenset() alone let a string cover nothing and True cover target 1.
    @pytest.mark.parametrize("bad", ["1", True, 1.5])
    def test_coverage_set_entries_must_be_integers(self, bad):
        with pytest.raises(ValueError, match=f"^each coverage_set entry must be an integer, not {bad!r}$"):
            make_camera([8.0, 8.0], 5.0, coverage={2, bad})

    def test_coverage_set_stores_an_integer_like_entry_as_int(self):
        cam = make_camera([8.0, 8.0], 5.0, coverage={np.int64(1), 2})
        assert cam.coverage_set == {1, 2}
        assert all(type(target) is int for target in cam.coverage_set)

    def test_camera_invariants(self):
        with pytest.raises(ValueError):
            make_camera([8, 4], 0.0)
        with pytest.raises(ValueError):
            make_camera([8, -1], 5.0)
        with pytest.raises(ValueError):
            Omnidirectional(0.0)
        # An infinite rate would make a one-RB run whose robust rate is inf.
        for bad in (float("inf"), float("nan")):
            with pytest.raises(ValueError, match="rates must be finite"):
                make_camera([bad, 2.0], 3.0)
            with pytest.raises(ValueError, match="rates must be finite"):
                CameraNode(1, (0, 0), Omnidirectional(1.0), 3.0, (2.0, 2.0), slot_rate_overrides={1: (2.0, bad)})
            with pytest.raises(ValueError, match="rate_requirement must be"):
                make_camera([8, 4], bad)

    # A NaN distance is never beyond the view, so a NaN coordinate would be
    # covered by every camera, and a NaN orientation would let a directional
    # camera see behind itself.
    @pytest.mark.parametrize(
        "build, field",
        [
            (lambda bad: TargetObject(1, (bad, 0.0)), "position"),
            (lambda bad: TargetObject(1, (0.0, bad)), "position"),
            (lambda bad: CameraNode(1, (bad, 0.0), Omnidirectional(1.0), 3.0, (2.0,)), "position"),
            (lambda bad: CameraNode(1, (0.0, bad), Omnidirectional(1.0), 3.0, (2.0,)), "position"),
            (lambda bad: Omnidirectional(bad), "view_distance"),
            (lambda bad: Directional(bad, 0.0, 90.0), "view_distance"),
            (lambda bad: Directional(10.0, bad, 90.0), "orientation_deg"),
        ],
    )
    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_geometry_is_rejected(self, build, field, bad):
        with pytest.raises(ValueError, match=field):
            build(bad)

    def test_scenario_rejects_override_slots_outside_the_frame(self):
        grid = FrameGrid(2, 1)
        for slot in (0, 2):
            cam = CameraNode(1, (0, 0), Omnidirectional(1.0), 5.0, (8.0, 8.0), slot_rate_overrides={slot: (2.0, 2.0)})
            with pytest.raises(ValueError, match=f"slot {slot}, outside 1..1"):
                Scenario(grid, (cam,), (TargetObject(1, (0, 0)),))

    def test_slot_rate_override_keys_must_be_integers(self):
        # int() would store 2.7 under slot 2 and read "3" as slot 3.
        for key in (2.7, "3"):
            with pytest.raises(ValueError, match="slot_rate_overrides key must be an integer"):
                CameraNode(1, (0, 0), Omnidirectional(1.0), 5.0, (8.0, 8.0), slot_rate_overrides={key: (2.0, 2.0)})
        cam = CameraNode(1, (0, 0), Omnidirectional(1.0), 5.0, (8.0, 8.0), slot_rate_overrides={np.int64(2): (2.0, 2.0)})
        assert cam.slot_rate_overrides == {2: (2.0, 2.0)}
        assert [type(slot) for slot in cam.slot_rate_overrides] == [int]

    def test_scenario_rejects_duplicate_ids_and_bad_rate_lengths(self):
        grid = FrameGrid(2, 1)
        cam = make_camera([8, 8], 5.0)
        with pytest.raises(ValueError):
            Scenario(grid, (cam, cam), (TargetObject(1, (0, 0)),))
        with pytest.raises(ValueError):
            Scenario(grid, (make_camera([8], 5.0),), (TargetObject(1, (0, 0)),))

    def test_slot_rate_overrides(self):
        cam = CameraNode(
            1,
            (0, 0),
            Omnidirectional(1.0),
            5.0,
            (8.0, 8.0),
            slot_rate_overrides={2: (2.0, 2.0)},
        )
        assert cam.rates_in_slot(1) == (8.0, 8.0)
        assert cam.rates_in_slot(2) == (2.0, 2.0)
        cands = table_candidates(cam, FrameGrid(2, 2))
        # Slot 1 admits single-RB runs at rate 8; slot 2 needs no run at all
        # since 2*2 = 4 < 5, so only slot-1 candidates exist.
        assert [(c.slot, c.start, c.length) for c in cands] == [(1, 1, 1), (1, 2, 1)]


class TestRateVectors:
    """A camera's rate vectors are floats, checked once when they are built,
    and a vector that is already checked is kept as it is."""

    @pytest.mark.parametrize(
        "rates",
        [[8, 4.5, 0], (8, 4, 0), np.array([8.0, 4.5, 0.0]), np.array([8, 4, 0]), (np.float32(2.5), 4.0, 0.0)],
        ids=["list", "int_tuple", "numpy_row", "numpy_int_row", "numpy_scalar"],
    )
    def test_vectors_are_stored_as_floats(self, rates):
        cam = CameraNode(1, (0, 0), Omnidirectional(1.0), 5.0, rates, slot_rate_overrides={2: rates})
        for vec in (cam.per_subchannel_rate, cam.rates_in_slot(2)):
            assert vec == tuple(map(float, rates))
            assert isinstance(vec, tuple)
            assert all(type(r) is float for r in vec)
            assert repr(vec) == repr(tuple(map(float, rates)))

    @pytest.mark.parametrize(
        "bad, message",
        [
            (math.nan, "per-subchannel rates must be finite"),
            (math.inf, "per-subchannel rates must be finite"),
            (-math.inf, "per-subchannel rates must be finite"),
            (-1.0, "per-subchannel rates must be non-negative"),
        ],
    )
    def test_bad_values_are_rejected_wherever_a_vector_enters(self, bad, message):
        cam = CameraNode(1, (0, 0), Omnidirectional(1.0), 5.0, (8.0, 8.0), slot_rate_overrides={2: (4.0, 4.0)})
        builds = [
            lambda: CameraNode(1, (0, 0), Omnidirectional(1.0), 5.0, [bad, 8.0]),
            lambda: CameraNode(1, (0, 0), Omnidirectional(1.0), 5.0, (8.0, 8.0), slot_rate_overrides={1: [8.0, bad]}),
            lambda: replace(cam, per_subchannel_rate=[bad, 8.0]),
            lambda: replace(cam, per_subchannel_rate=np.array([8.0, bad])),
            lambda: replace(cam, slot_rate_overrides={1: (bad, bad)}),
        ]
        for build in builds:
            with pytest.raises(ValueError, match=f"^{message}$"):
                build()

    def test_a_checked_vector_is_kept_as_the_same_object(self):
        cam = CameraNode(1, (0, 0), Omnidirectional(1.0), 5.0, [8, 4], slot_rate_overrides={2: [2, 2]})
        base, override = cam.per_subchannel_rate, cam.rates_in_slot(2)
        other = CameraNode(2, (1, 1), Omnidirectional(1.0), 3.0, base, slot_rate_overrides={1: override, 2: base})
        assert other.per_subchannel_rate is base
        assert other.rates_in_slot(1) is override and other.rates_in_slot(2) is base
        assert replace(cam, id=3).per_subchannel_rate is base
        assert replace(cam, id=3).rates_in_slot(2) is override

    def test_copies_and_pickles_are_equal(self):
        cam = CameraNode(1, (3, 4), Omnidirectional(1.0), 5.0, [8, 4], frozenset({1}), {2: [2, 2]})
        for copied in (copy.deepcopy(cam), pickle.loads(pickle.dumps(cam))):
            assert copied == cam
            assert repr(copied) == repr(cam)


def two_camera_scenario():
    grid = FrameGrid(3, 1)
    cams = (
        make_camera([8, 8, 8], 8.0, cam_id=1, coverage=frozenset({1})),
        make_camera([8, 8, 8], 8.0, cam_id=2, coverage=frozenset({2})),
    )
    targets = (TargetObject(1, (0, 0)), TargetObject(2, (1, 0)))
    return Scenario(grid, cams, targets)


VERIFY_RATES = st.sampled_from([0.0, 2.0, 4.0, 8.0])


@st.composite
def verify_cases(draw):
    """A scenario on a frame of at most 5x3 RBs and a schedule of up to 7
    runs of its cameras, not all valid: runs may overlap, touch (one ends
    at subchannel k and the next starts at k or k + 1), repeat a camera,
    or reach past the last slot or subchannel."""
    m = draw(st.integers(1, 5))
    t = draw(st.integers(1, 3))
    grid = FrameGrid(m, t, tuple(draw(st.integers(0, m)) for _ in range(t)))
    targets = tuple(TargetObject(i, (float(i), 0.0)) for i in range(1, draw(st.integers(1, 4)) + 1))
    vector = st.lists(VERIFY_RATES, min_size=m, max_size=m)
    cameras = tuple(
        CameraNode(
            cam_id,
            (0.0, 0.0),
            Omnidirectional(1.0),
            float(draw(st.integers(1, 16))),
            draw(vector),
            draw(st.frozensets(st.integers(1, len(targets)))),
            draw(st.one_of(st.none(), st.dictionaries(st.integers(1, t), vector, max_size=t))),
        )
        for cam_id in range(1, draw(st.integers(1, 4)) + 1)
    )
    allocs: list[CandidateAllocation] = []
    for _ in range(draw(st.integers(0, 7))):
        cam_id = draw(st.integers(1, len(cameras)))
        length = draw(st.integers(1, m))
        robust = draw(st.sampled_from([2.0, 4.0, 8.0]))
        prev = allocs[-1] if allocs else None
        how = draw(st.sampled_from(["in_frame", "at_end", "after_end", "outside"]))
        if how == "outside":
            slot, start = draw(st.sampled_from([(t + 1, 1), (1, m), (t, m + 1)]))
            length += 1
        elif prev is None or how == "in_frame":
            slot, start = draw(st.integers(1, t)), draw(st.integers(1, m))
        else:
            end = prev.start + prev.length - 1
            slot, start = prev.slot, end if how == "at_end" else end + 1
        allocs.append(CandidateAllocation(cam_id, slot, start, length, robust))
    scenario = Scenario(grid, cameras, targets)
    schedule = Schedule.build(allocs, cameras, scenario.target_ids)
    # Declared totals that may disagree with the runs.
    schedule = Schedule(
        schedule.assignments,
        schedule.total_rbs + draw(st.sampled_from([0, 0, 1])),
        draw(st.sampled_from([schedule.covered_targets, frozenset(), scenario.target_ids])),
    )
    return scenario, schedule


@settings(deadline=None)
@given(verify_cases())
def test_verify_schedule_matches_the_cell_enumeration_oracle(case):
    scenario, schedule = case
    assert verify_schedule(schedule, scenario) == verify_schedule_oracle(schedule, scenario)


class TestVerifySchedule:
    def test_empty_schedule_fails_only_coverage(self):
        scn = two_camera_scenario()
        report = verify_schedule(Schedule.empty(), scn)
        assert not report.feasible
        assert not report.check("coverage").passed
        assert report.check("coverage").violations == (1, 2)
        for name in ("slot_capacity", "rb_exclusivity", "single_allocation", "declared_totals"):
            assert report.check(name).passed

    def test_shared_rb_lists_both_cameras(self):
        scn = two_camera_scenario()
        allocs = [CandidateAllocation(1, 1, 2, 1, 8.0), CandidateAllocation(2, 1, 2, 1, 8.0)]
        schedule = Schedule.build(allocs, scn.cameras, scn.target_ids)
        report = verify_schedule(schedule, scn)
        assert not report.check("rb_exclusivity").passed
        assert report.check("rb_exclusivity").violations == ((1, 2, (1, 2)),)

    def test_unknown_camera_id_is_an_argument_error(self):
        scn = two_camera_scenario()
        bad = Schedule((CandidateAllocation(1, 1, 1, 1, 8.0), CandidateAllocation(9, 1, 2, 1, 8.0)), 2, frozenset({1}))
        with pytest.raises(ValueError, match=r"^schedule references unknown camera 9$"):
            verify_schedule(bad, scn)

    def test_an_unknown_camera_is_reported_before_unknown_targets(self):
        scn = two_camera_scenario()
        bad = Schedule((CandidateAllocation(9, 1, 1, 1, 8.0),), 1, frozenset({7}))
        with pytest.raises(ValueError, match=r"^schedule references unknown camera 9$"):
            verify_schedule(bad, scn)

    def test_unknown_covered_target_is_an_argument_error(self):
        scn = two_camera_scenario()
        bad = Schedule((CandidateAllocation(1, 1, 1, 1, 8.0),), 1, frozenset({1, 9}))
        with pytest.raises(ValueError, match=r"unknown targets \[9\]"):
            verify_schedule(bad, scn)

    def test_total_mismatch_is_flagged(self):
        scn = two_camera_scenario()
        allocs = (CandidateAllocation(1, 1, 1, 1, 8.0), CandidateAllocation(2, 1, 2, 1, 8.0))
        schedule = Schedule(allocs, 5, frozenset({1, 2}))
        report = verify_schedule(schedule, scn)
        assert not report.check("declared_totals").passed

    def test_check_of_an_unknown_name_is_a_key_error(self):
        report = verify_schedule(Schedule.empty(), two_camera_scenario())
        with pytest.raises(KeyError):
            report.check("no_such_check")

    def test_capacity_violation_detected(self):
        grid = FrameGrid(3, 1, slot_capacity=(1,))
        cams = (
            make_camera([8, 8, 8], 8.0, cam_id=1, coverage=frozenset({1})),
            make_camera([8, 8, 8], 8.0, cam_id=2, coverage=frozenset({2})),
        )
        scn = Scenario(grid, cams, (TargetObject(1, (0, 0)), TargetObject(2, (1, 0))))
        allocs = [CandidateAllocation(1, 1, 1, 1, 8.0), CandidateAllocation(2, 1, 2, 1, 8.0)]
        schedule = Schedule.build(allocs, cams, scn.target_ids)
        report = verify_schedule(schedule, scn)
        assert not report.check("slot_capacity").passed
        assert report.check("slot_capacity").violations == ((1, 2, 1),)

    def test_duplicate_camera_assignment_detected(self):
        scn = two_camera_scenario()
        allocs = (CandidateAllocation(1, 1, 1, 1, 8.0), CandidateAllocation(1, 1, 2, 1, 8.0))
        schedule = Schedule(allocs, 2, frozenset({1}))
        report = verify_schedule(schedule, scn)
        assert not report.check("single_allocation").passed
        assert not report.check("coverage").passed

    def test_bogus_robust_rate_detected(self):
        scn = two_camera_scenario()
        allocs = (
            CandidateAllocation(1, 1, 1, 1, 4.0),
            CandidateAllocation(2, 1, 2, 1, 8.0),
        )
        schedule = Schedule(allocs, 2, frozenset({1, 2}))
        report = verify_schedule(schedule, scn)
        assert not report.check("allocation_validity").passed

    def test_agrees_with_direct_constraint_reimplementation(self):
        rng = np.random.default_rng(99)
        from csrap import SolveStatus, baseline_schedule, mramc

        checked = 0
        for _ in range(120):
            scn = random_instance(rng)
            for solver in (mramc, baseline_schedule):
                result = solver(scn)
                if result.status is not SolveStatus.FEASIBLE:
                    continue
                report = verify_schedule(result.schedule, scn)
                direct = ilp_constraints_hold(result.schedule, scn)
                for name, ok in direct.items():
                    assert report.check(name).passed == ok
                assert report.feasible == all(direct.values())
                checked += 1
        assert checked > 50


class TestScenarioCoverage:
    """``Scenario.coverage``: each camera covering a target, mapped to the
    targets of the scenario it covers."""

    def scenario(self):
        cams = (
            make_camera([8], 8.0, cam_id=5, coverage=frozenset({1, 7, 9})),
            make_camera([8], 8.0, cam_id=2, coverage=frozenset()),
            make_camera([8], 8.0, cam_id=3, coverage=frozenset({8})),
            make_camera([8], 8.0, cam_id=1, coverage=frozenset({2, 1})),
        )
        targets = (TargetObject(1, (0, 0)), TargetObject(2, (1, 0)), TargetObject(4, (2, 0)))
        return Scenario(FrameGrid(1, 1), cams, targets)

    def test_ids_outside_the_scenario_are_dropped(self):
        # Camera 5 names targets 7 and 9 and camera 3 only target 8, none of
        # them in the scenario; cameras keep their scenario order.
        scn = self.scenario()
        assert list(scn.coverage.items()) == [(5, frozenset({1})), (1, frozenset({1, 2}))]
        assert scn.uncovered_targets() == (4,)

    def test_a_camera_that_covers_nothing_is_absent(self):
        scn = self.scenario()
        assert 2 not in scn.coverage
        alone = Scenario(FrameGrid(1, 1), (make_camera([8], 8.0, coverage=frozenset()),), (TargetObject(1, (0, 0)),))
        assert dict(alone.coverage) == {}
        assert alone.uncovered_targets() == (1,)

    def test_matches_each_camera_on_random_instances(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            scn = random_instance(rng, cover_all=False)
            expected = {c.id: c.coverage_set & scn.target_ids for c in scn.cameras}
            assert dict(scn.coverage) == {k: v for k, v in expected.items() if v}
            assert scn.coverage is scn.coverage

    def test_is_read_only_and_not_a_field(self):
        scn = self.scenario()
        fresh = self.scenario()
        before = repr(scn)
        with pytest.raises(TypeError):
            scn.coverage[2] = frozenset({4})
        with pytest.raises(TypeError):
            del scn.coverage[5]
        assert 2 not in scn.coverage
        assert repr(scn) == before
        assert scn == fresh


@pytest.mark.parametrize("name", ["cli", "exact", "harness", "model", "scenario", "solvers"])
def test_each_module_defines_every_name_it_exports(name):
    # A name in __all__ that a module only imports is a stale re-export.
    module = importlib.import_module(f"csrap.{name}")
    defined = set()
    for node in ast.parse(Path(module.__file__).read_text()).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            defined.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            defined.update(target.id for target in targets if isinstance(target, ast.Name))
    assert sorted(set(getattr(module, "__all__", ())) - defined) == []


def test_the_package_exports_only_names_it_has():
    import csrap

    assert [name for name in csrap.__all__ if not hasattr(csrap, name)] == []
