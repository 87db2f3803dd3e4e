"""The shared-slot candidate index and the bitmask occupancy, against
brute-force references."""

import hashlib
import json
from collections import Counter
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from csrap import (
    CameraNode,
    CandidateAllocation,
    FrameGrid,
    GeometrySpec,
    Omnidirectional,
    ScenarioConfig,
    SearchBudgetExceeded,
    SolveStatus,
    SweepSpec,
    bound_params,
    exact,
    exact_solve,
    generate_scenario,
    harness,
    m_mramc,
    mramc,
    run_sweep,
    solvers,
)
from csrap.model import run_lengths, runs_by_length, runs_of_length
from csrap.scenario import load_scenario
from csrap.solvers import BoundParams, CandidateTable, _Occupancy
from support import brute_force_runs, crowded_fading, random_instance, slot_runs

RATES = st.sampled_from([0.0, 2.0, 3.0, 4.0, 6.0, 8.0])


@st.composite
def frame_cameras(draw, max_subchannels=6):
    """A frame of 1 to 4 slots and up to three cameras whose slots keep the
    base rates, repeat them as an explicit override, or replace them."""
    m = draw(st.integers(1, max_subchannels))
    t = draw(st.integers(1, 4))
    cameras = []
    for cam_id in range(1, draw(st.integers(1, 3)) + 1):
        base = tuple(draw(st.lists(RATES, min_size=m, max_size=m)))
        overrides = {}
        for slot in range(1, t + 1):
            kind = draw(st.sampled_from(["base", "same", "own"]))
            if kind == "same":
                overrides[slot] = base
            elif kind == "own":
                overrides[slot] = tuple(draw(st.lists(RATES, min_size=m, max_size=m)))
        cameras.append(
            CameraNode(
                id=cam_id,
                position=(0.0, 0.0),
                geometry=Omnidirectional(1.0),
                rate_requirement=float(draw(st.integers(1, 20))),
                per_subchannel_rate=base,
                coverage_set=frozenset({1}),
                slot_rate_overrides=draw(st.sampled_from([overrides, None])),
            )
        )
    return FrameGrid(m, t), cameras


def brute_candidates(cam, grid):
    return [
        CandidateAllocation(cam.id, slot, start, length, rate)
        for slot in range(1, grid.num_slots + 1)
        for start, length, rate in brute_force_runs(cam.rates_in_slot(slot), cam.rate_requirement)
    ]


class TestCandidateIndex:
    @given(frame_cameras())
    def test_cost_order_is_the_sorted_enumeration(self, case):
        grid, cameras = case
        table = CandidateTable(cameras, grid)
        for cam in cameras:
            expected = sorted(brute_candidates(cam, grid), key=lambda c: (c.length, c.slot, c.start))
            assert [CandidateAllocation(cam.id, *run) for run in table.runs_by_cost(cam.id)] == expected
            assert table.min_allocation(cam.id) == (expected[0] if expected else None)

    @given(frame_cameras())
    def test_summaries_match_brute_force(self, case):
        grid, cameras = case
        table = CandidateTable(cameras, grid)
        for cam in cameras:
            cands = brute_candidates(cam, grid)
            # Read first, while only the camera's shortest runs are built.
            assert table.best_rate(cam.id) == max((c.robust_rate for c in cands), default=0.0)
            assert table.candidate_count(cam.id) == len(cands)
            assert table.min_phi(cam.id) == min((c.length for c in cands), default=None)
            assert max(table.robust_rates(cam.id), default=None) == max((c.robust_rate for c in cands), default=None)
            for slot, runs in enumerate(slot_runs(table, cam.id), 1):
                assert runs == brute_force_runs(cam.rates_in_slot(slot), cam.rate_requirement)
            # Each distinct slot rate vector counts once.
            rates = Counter()
            for vec in {cam.rates_in_slot(s) for s in range(1, grid.num_slots + 1)}:
                rates.update(r for _, _, r in brute_force_runs(vec, cam.rate_requirement))
            assert Counter(table.robust_rates(cam.id)) == rates


def test_robust_rates_read_each_distinct_vector_once():
    # Slots 2 and 3 repeat one override vector and slot 1 keeps the base
    # vector, so the table holds two run indexes for three slots.
    base = (8.0, 8.0, 8.0, 8.0, 8.0)
    override = (8.0, 4.0, 8.0, 8.0, 2.0)
    cam = CameraNode(1, (0.0, 0.0), Omnidirectional(1.0), 8.0, base, frozenset({1}), {2: override, 3: list(override)})
    table = CandidateTable([cam], FrameGrid(5, 3))
    expected = [robust for vec in (base, override) for runs in runs_by_length(vec, 8.0).values() for _, robust in runs]
    assert sorted(set(expected)) == [2.0, 4.0, 8.0]
    assert table.robust_rates(1) == expected
    assert table.robust_rates(1) == expected  # a second read answers the same


def test_bound_params_on_the_slot_rates_document():
    # Values computed before the table stored its distinct run indexes.
    doc = json.loads((Path(__file__).parent / "data" / "slot_rates.json").read_text(encoding="utf-8"))
    assert bound_params(load_scenario(doc)) == BoundParams(d_star=3, h_d_star=Fraction(11, 6), r_max=8.0, r_min=8.0)


@st.composite
def occupancy_cases(draw):
    m = draw(st.integers(1, 8))
    t = draw(st.integers(1, 3))
    capacity = tuple(draw(st.integers(0, m)) for _ in range(t))
    allocs = []
    for _ in range(draw(st.integers(0, 12))):
        slot = draw(st.integers(1, t))
        start = draw(st.integers(1, m))
        length = draw(st.integers(1, m - start + 1))
        allocs.append((CandidateAllocation(1, slot, start, length, 1.0), draw(st.booleans())))
    return FrameGrid(m, t, slot_capacity=capacity), allocs


class Reference:
    """Occupancy as a set of (slot, subchannel) cells and per-slot loads."""

    def __init__(self, grid):
        self.grid = grid
        self.cells = set()
        self.load = Counter()

    def admits(self, alloc):
        if self.load[alloc.slot] + alloc.length > self.grid.capacity(alloc.slot):
            return False
        return not self.cells & set(alloc.cells())

    def add(self, alloc):
        self.cells |= set(alloc.cells())
        self.load[alloc.slot] += alloc.length


class TestOccupancy:
    @given(occupancy_cases())
    def test_admits_matches_cell_set(self, case):
        grid, allocs = case
        occ, ref = _Occupancy(grid), Reference(grid)
        for alloc, add in allocs:
            assert occ.fits(alloc.slot, alloc.start, alloc.length) == ref.admits(alloc)
            if add:
                occ.place(alloc.slot, alloc.start, alloc.length)
                ref.add(alloc)
        for alloc, _ in allocs:
            assert occ.fits(alloc.slot, alloc.start, alloc.length) == ref.admits(alloc)

    @given(occupancy_cases())
    def test_unplace_undoes_place(self, case):
        # Admitted runs are placed one on another and unplaced in reverse,
        # as the layout search does; after each unplace every answer is the
        # cell set's for the runs still placed.
        grid, allocs = case
        occ = _Occupancy(grid)
        placed = [alloc for alloc, add in allocs if add]
        for alloc in placed:
            occ.place(alloc.slot, alloc.start, alloc.length)
        kept = len(placed)
        for alloc, _ in allocs:
            if occ.fits(alloc.slot, alloc.start, alloc.length):
                occ.place(alloc.slot, alloc.start, alloc.length)
                placed.append(alloc)
        while len(placed) > kept:
            alloc = placed.pop()
            occ.unplace(alloc.slot, alloc.start, alloc.length)
            ref = Reference(grid)
            for below in placed:
                ref.add(below)
            for other, _ in allocs:
                assert occ.fits(other.slot, other.start, other.length) == ref.admits(other)


@st.composite
def first_fit_cases(draw):
    """Cameras of :func:`frame_cameras` over up to 16 subchannels, slot
    capacities that may lie below M (0 makes a full slot), and an occupancy
    of runs placed wherever they fit."""
    grid, cameras = draw(frame_cameras(max_subchannels=16))
    m, t = grid.num_subchannels, grid.num_slots
    grid = FrameGrid(m, t, slot_capacity=tuple(draw(st.integers(0, m)) for _ in range(t)))
    occupancy = _Occupancy(grid)
    for _ in range(draw(st.integers(0, 10))):
        slot = draw(st.integers(1, t))
        start = draw(st.integers(1, m))
        length = draw(st.integers(1, m - start + 1))
        if occupancy.fits(slot, start, length):
            occupancy.place(slot, start, length)
    return grid, cameras, occupancy


@given(first_fit_cases())
def test_first_fit_is_the_first_admitted_run_by_cost(case):
    grid, cameras, occupancy = case
    table = CandidateTable(cameras, grid)
    for cam in cameras:
        admitted = [run for run in table.runs_by_cost(cam.id) if occupancy.fits(*run[:3])]
        expected = admitted[0] if admitted else None
        assert table.first_fit(cam.id, occupancy) == (None if expected is None else CandidateAllocation(cam.id, *expected))
        assert list(table.free_runs(cam.id, occupancy)) == admitted


POSITIVE = st.floats(0.01, 10.0)


@given(
    st.one_of(
        st.lists(st.one_of(st.just(0.0), POSITIVE), min_size=1, max_size=12),
        # Uniform rates take the scan's one-length shortcut.
        st.builds(lambda rate, m: [rate] * m, POSITIVE, st.integers(1, 12)),
        # MCS tiers, as the channel model draws them.
        st.lists(st.sampled_from([0.0, 2.0, 4.0, 6.0, 8.0]), min_size=1, max_size=40),
        # Monotone vectors: a start crosses a rate drop at every subchannel
        # (decreasing) or at none (increasing).
        st.lists(POSITIVE, min_size=1, max_size=40, unique=True).map(sorted),
        st.lists(POSITIVE, min_size=1, max_size=40, unique=True).map(lambda v: sorted(v, reverse=True)),
    ),
    st.one_of(
        st.floats(0.01, 60.0),
        # Beyond the whole vector's capacity (at most 40 * 10).
        st.floats(401.0, 1e6),
    ),
)
def test_candidate_runs_matches_window_scan(rates, requirement):
    by_len = {}
    for start, length, rate in brute_force_runs(rates, requirement):
        by_len.setdefault(length, []).append((start, rate))
    found = runs_by_length(rates, requirement)
    assert found == by_len
    assert list(found) == sorted(found)
    for runs in found.values():
        starts = [start for start, _ in runs]
        assert starts == sorted(starts)
    # Each admitted length's rates are the interval run_lengths reports.
    spans = run_lengths(rates, requirement, len(rates))
    assert list(spans) == sorted(spans)
    for length, (lowest, highest) in spans.items():
        admitting = {r for r in rates if r > 0 and r * (length - 1) < requirement <= r * length}
        assert {r for r in rates if lowest <= r <= highest} == admitting
    # The per-length build, for every length, with the rates that admit it;
    # a length no rate admits gets an empty range.
    for length in range(1, len(rates) + 2):
        starts, robust = runs_of_length(rates, length, *spans.get(length, (1.0, 0.0)))
        assert list(zip(starts, robust)) == by_len.get(length, [])


@given(seed=st.integers(0, 2**32 - 1))
def test_best_rate_is_the_highest_robust_rate(seed):
    # best_rate reads only a camera's shortest runs; robust_rates reads all.
    scn = random_instance(np.random.default_rng(seed))
    lazy, full = CandidateTable(scn.cameras, scn.grid), CandidateTable(scn.cameras, scn.grid)
    for cam in scn.cameras:
        assert lazy.best_rate(cam.id) == max(full.robust_rates(cam.id), default=0.0)


def test_candidate_tables_are_frozen():
    # Every run of crowded_fading-shaped and paper-default tables, seeds 0-7,
    # as the window scan that grew each run one subchannel at a time found them.
    lines = []
    for seed in range(8):
        for scn in (crowded_fading(seed), generate_scenario(ScenarioConfig(rng_seed=seed))):
            table = CandidateTable(scn.cameras, scn.grid)
            for cam in scn.cameras:
                for slot, runs in enumerate(slot_runs(table, cam.id), 1):
                    for start, length, robust in runs:
                        lines.append(f"{cam.id} {slot} {start} {length} {robust.hex()}")
    assert len(lines) == 703_588
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest()[:16] == "560548e808169bf9"


def table_reads(table, cam_id):
    """Every answer the table gives about one camera."""
    return (
        slot_runs(table, cam_id),
        table.min_phi(cam_id),
        table.robust_rates(cam_id),
        table.candidate_count(cam_id),
        list(table.runs_by_cost(cam_id)),
    )


def test_read_order_does_not_change_the_table():
    # Cameras are built on first access; a table read in a shuffled camera
    # order answers exactly as one read in id order.
    rng = np.random.default_rng(17)
    for seed in range(4):
        for scn in (crowded_fading(seed), generate_scenario(ScenarioConfig(num_targets=10, rng_seed=seed))):
            ids = sorted(cam.id for cam in scn.cameras)
            in_order = CandidateTable(scn.cameras, scn.grid)
            expected = {cam_id: table_reads(in_order, cam_id) for cam_id in ids}
            shuffled = CandidateTable(scn.cameras, scn.grid)
            for cam_id in rng.permutation(ids).tolist():
                assert table_reads(shuffled, cam_id) == expected[cam_id]


PAPER_TARGETS = (10, 20, 30, 40)


class TestLaziness:
    """Solvers set up only the cameras that cover a target, each once, and
    build their runs only up to the run lengths their walks reach;
    bound_params sets up the rest."""

    @pytest.fixture
    def builds(self, monkeypatch):
        """``(rate vector, length) -> calls`` of the table's per-vector build."""
        calls = Counter()
        build = solvers.runs_of_length

        def counted(rates, length, *span):
            calls[tuple(rates), length] += 1
            return build(rates, length, *span)

        monkeypatch.setattr(solvers, "runs_of_length", counted)
        return calls

    @pytest.fixture
    def setups(self, monkeypatch):
        """``camera id -> set-ups`` of a camera's runs in any table."""
        ids = Counter()

        class Counted(solvers._CameraRuns):
            __slots__ = ()

            def __init__(self, cam, *args):
                ids[cam.id] += 1
                super().__init__(cam, *args)

        monkeypatch.setattr(solvers, "_CameraRuns", Counted)
        return ids

    @staticmethod
    def admissible(cam):
        """``(rate vector, length)`` for each length up to the vector's size
        that a rate of ``cam`` just achieves its requirement at."""
        rates, need = cam.per_subchannel_rate, cam.rate_requirement
        lengths = {n for r in set(rates) for n in range(1, len(rates) + 1) if r > 0 and r * (n - 1) < need <= r * n}
        return [(rates, n) for n in sorted(lengths)]

    @staticmethod
    def covering(scn):
        return [cam for cam in scn.cameras if cam.coverage_set & scn.target_ids]

    @staticmethod
    def assert_built_once_per_camera(builds, cameras):
        # Cameras with equal rate vectors each build their own runs, and
        # only the cameras set up build any.
        holders = Counter(cam.per_subchannel_rate for cam in cameras)
        assert all(n <= holders[rates] for (rates, _), n in builds.items())

    @pytest.mark.parametrize("targets", PAPER_TARGETS)
    def test_sweep_builds_only_covering_cameras(self, monkeypatch, builds, setups, targets):
        generated = []

        def recorded(config, *args, **kwargs):
            generated.append(generate_scenario(config, *args, **kwargs))
            return generated[-1]

        monkeypatch.setattr(harness, "generate_scenario", recorded)
        spec = SweepSpec(
            config=ScenarioConfig(num_targets=targets),
            values=(targets,),
            trials=2,
            algorithms=("baseline", "mramc", "greedy_based", "m_mramc"),
            multiplicity=2,
        )
        run_sweep(spec)
        assert len(generated) == 2
        covering = [cam for scn in generated for cam in self.covering(scn)]
        assert setups == Counter(cam.id for cam in covering)
        assert len(covering) < sum(len(scn.cameras) for scn in generated)
        built = {rates for rates, _ in builds}
        assert built == {cam.per_subchannel_rate for cam in covering if self.admissible(cam)}
        assert len(built) < len({cam.per_subchannel_rate for scn in generated for cam in scn.cameras})
        self.assert_built_once_per_camera(builds, covering)

    @pytest.mark.parametrize("targets", PAPER_TARGETS)
    def test_exact_and_bounds(self, builds, setups, targets):
        scn = generate_scenario(ScenarioConfig(num_targets=targets, rng_seed=3))
        for mode in ("with_exclusivity", "without_exclusivity"):
            assert exact_solve(scn, mode).status is SolveStatus.FEASIBLE
        covering = self.covering(scn)
        assert setups == Counter(cam.id for cam in covering)
        assert {rates for rates, _ in builds} == {cam.per_subchannel_rate for cam in covering if self.admissible(cam)}
        self.assert_built_once_per_camera(builds, covering)
        solved = Counter(builds)
        builds.clear()
        setups.clear()
        params = bound_params(scn)
        # bound_params sets up exactly the other cameras and builds every
        # remaining length of every camera, no length twice.
        assert setups == Counter(cam.id for cam in scn.cameras if cam not in covering)
        assert solved + builds == Counter(key for cam in scn.cameras for key in self.admissible(cam))
        assert sum(builds.values()) > 0 and len(covering) < len(scn.cameras)
        # The values of an eager enumeration of every camera's runs; paper
        # default cameras keep one rate vector for every slot.
        assert not any(cam.slot_rate_overrides for cam in scn.cameras)
        rates = [r for cam in scn.cameras for *_, r in brute_force_runs(cam.per_subchannel_rate, cam.rate_requirement)]
        assert (params.r_max, params.r_min) == (max(rates), min(rates))
        assert params.d_star == max(len(cam.coverage_set & scn.target_ids) for cam in scn.cameras)

    def test_min_phi_builds_no_longer_length(self, builds):
        # A rate vector per camera and slot: most vectors admit several run
        # lengths.  Reading min_phi builds none beyond it; a full cost-order
        # walk then builds the rest and yields every run.
        scn = crowded_fading(0)
        table = CandidateTable(scn.cameras, scn.grid)
        longer = 0
        for cam in scn.cameras:
            builds.clear()
            expected = sorted(brute_candidates(cam, scn.grid), key=lambda c: (c.length, c.slot, c.start))
            phi = table.min_phi(cam.id)
            assert phi == (expected[0].length if expected else None)
            reached = max((length for _, length in builds), default=None)
            assert [CandidateAllocation(cam.id, *run) for run in table.runs_by_cost(cam.id)] == expected
            if phi is not None:
                assert reached == phi
                longer += max(length for _, length in builds) > phi
        # On this shape most cameras have runs longer than their shortest.
        assert longer > len(scn.cameras) // 2


# A small partial_random instance on which both exact modes finish quickly.
LADDER_CONFIG = ScenarioConfig(
    area_side=200.0,
    num_targets=6,
    num_cameras=8,
    deployment="partial_random",
    geometry=GeometrySpec(view_distance=(40.0, 60.0)),
    frame=FrameGrid(8, 2),
)


class TestOneTablePerScenario:
    """Every solver reads ``Scenario.table``, built once per scenario."""

    @pytest.fixture
    def built(self, monkeypatch):
        tables = []
        init = CandidateTable.__init__

        def counted(self, *args, **kwargs):
            tables.append(self)
            init(self, *args, **kwargs)

        monkeypatch.setattr(CandidateTable, "__init__", counted)
        return tables

    def test_exact_modes_and_mramc_share_one_table(self, built):
        scn = generate_scenario(replace(LADDER_CONFIG, rng_seed=3))
        for mode in ("with_exclusivity", "without_exclusivity"):
            exact_solve(scn, mode)
        mramc(scn)
        assert built == [scn.table]

    def test_sweep_builds_one_table_per_trial(self, built):
        spec = SweepSpec(config=LADDER_CONFIG, values=(6,), trials=3, algorithms=harness.ALGORITHMS, multiplicity=2)
        run_sweep(spec)
        assert len(built) == 3

    def test_table_is_kept_and_a_replaced_scenario_gets_its_own(self):
        scn = generate_scenario(replace(LADDER_CONFIG, rng_seed=4))
        assert scn.table is scn.table
        fewer = replace(scn, targets=scn.targets[:3])
        assert fewer.table is not scn.table


def _exact_outcome(scn, mode, budget):
    """A solve's result, or its overrun's fields and message."""
    try:
        return exact_solve(scn, mode, budget)
    except SearchBudgetExceeded as exc:
        return exc.nodes, exc.incumbent, exc.lower_bound, str(exc)


class TestOneRootPerScenario:
    """Both exact modes read ``Scenario.exact_root``, computed once per scenario."""

    MODES = ("with_exclusivity", "without_exclusivity")

    @pytest.fixture
    def computed(self, monkeypatch):
        roots = []
        compute = exact.exact_root

        def counted(scenario):
            roots.append(scenario)
            return compute(scenario)

        monkeypatch.setattr(exact, "exact_root", counted)
        return roots

    def test_strict_relaxed_and_strict_again_compute_one_root(self, computed):
        scn = generate_scenario(replace(LADDER_CONFIG, rng_seed=3))
        for mode in self.MODES + self.MODES[:1]:
            exact_solve(scn, mode)
        assert len(computed) == 1 and computed[0] is scn

    def test_sweep_computes_one_root_per_trial(self, computed):
        spec = SweepSpec(config=LADDER_CONFIG, values=(6,), trials=3, algorithms=("exact", "exact_relaxed"))
        run_sweep(spec)
        assert len(computed) == 3
        assert len(set(map(id, computed))) == 3

    def test_a_replaced_scenario_gets_its_own_root(self, computed):
        scn = generate_scenario(replace(LADDER_CONFIG, rng_seed=4))
        assert scn.exact_root is scn.exact_root
        fewer = replace(scn, targets=scn.targets[:3])
        assert fewer.exact_root is not scn.exact_root
        assert set(fewer.exact_root.prices) == fewer.target_ids
        assert len(computed) == 2 and computed[0] is scn and computed[1] is fewer

    @given(seed=st.integers(0, 2**32 - 1), cover_all=st.booleans())
    @example(seed=4, cover_all=False)  # targets 3 and 8 have no usable camera
    @settings(max_examples=100, deadline=None)
    def test_solve_order_and_a_fresh_scenario_give_equal_results(self, seed, cover_all):
        def build():
            return random_instance(np.random.default_rng(seed), cover_all=cover_all)

        for budget in (exact.DEFAULT_NODE_BUDGET, 1, 30):
            strict_first, relaxed_first = build(), build()
            forward = [_exact_outcome(strict_first, mode, budget) for mode in self.MODES]
            backward = [_exact_outcome(relaxed_first, mode, budget) for mode in reversed(self.MODES)][::-1]
            fresh = [_exact_outcome(build(), mode, budget) for mode in self.MODES]
            assert forward == backward == fresh


class TestOneMramcPerScenario:
    """``mramc``, ``m_mramc`` and both exact modes read ``Scenario.mramc``,
    computed once per scenario."""

    @pytest.fixture
    def computed(self, monkeypatch):
        # Every MRAMC computation runs its greedy phase once.
        scenarios = []
        phase = solvers.mramc_greedy

        def counted(scenario, table=None):
            scenarios.append(scenario)
            return phase(scenario, table)

        monkeypatch.setattr(solvers, "mramc_greedy", counted)
        return scenarios

    def test_every_reader_shares_one_result(self, computed):
        scn = generate_scenario(replace(LADDER_CONFIG, rng_seed=3))
        for mode in TestOneRootPerScenario.MODES:
            exact_solve(scn, mode)
        assert mramc(scn) is scn.mramc
        m_mramc(scn, {t.id: 2 for t in scn.targets})
        assert computed == [scn]

    def test_sweep_computes_one_result_per_trial(self, computed):
        algorithms = ("mramc", "m_mramc", "exact", "exact_relaxed")
        run_sweep(SweepSpec(config=LADDER_CONFIG, values=(6,), trials=3, algorithms=algorithms))
        assert len(computed) == 3
        assert len(set(map(id, computed))) == 3

    def test_a_replaced_scenario_gets_its_own_result(self, computed):
        scn = generate_scenario(replace(LADDER_CONFIG, rng_seed=4))
        assert mramc(scn) is scn.mramc
        fewer = replace(scn, targets=scn.targets[:3])
        assert fewer.mramc is not scn.mramc
        assert fewer.mramc.status is SolveStatus.FEASIBLE
        assert fewer.mramc.schedule.covered_targets == fewer.target_ids
        assert len(computed) == 2 and computed[0] is scn and computed[1] is fewer

    def test_a_given_table_computes_afresh(self, computed):
        scn = generate_scenario(replace(LADDER_CONFIG, rng_seed=5))
        fresh = mramc(scn, CandidateTable(scn.cameras, scn.grid))
        assert fresh == scn.mramc and fresh is not scn.mramc
        assert len(computed) == 2
