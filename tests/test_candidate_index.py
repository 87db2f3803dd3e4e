"""The shared-slot candidate index and the bitmask occupancy, against
brute-force references."""

from collections import Counter

from hypothesis import given, strategies as st

from csrap import CameraNode, CandidateAllocation, FrameGrid, Omnidirectional
from csrap.model import runs_by_length
from csrap.solvers import CandidateTable, _Occupancy
from support import brute_force_runs

RATES = st.sampled_from([0.0, 2.0, 3.0, 4.0, 6.0, 8.0])


@st.composite
def frame_cameras(draw):
    """A frame of 1 to 4 slots and up to three cameras whose slots keep the
    base rates, repeat them as an explicit override, or replace them."""
    m = draw(st.integers(1, 6))
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
            assert table.candidate_count(cam.id) == len(cands)
            assert table.min_phi(cam.id) == min((c.length for c in cands), default=None)
            assert max(table.robust_rates(cam.id), default=None) == max((c.robust_rate for c in cands), default=None)
            for slot in range(1, grid.num_slots + 1):
                runs = brute_force_runs(cam.rates_in_slot(slot), cam.rate_requirement)
                assert table.runs(cam.id, slot) == runs
            # Each distinct slot rate vector counts once.
            rates = Counter()
            for vec in {cam.rates_in_slot(s) for s in range(1, grid.num_slots + 1)}:
                rates.update(r for _, _, r in brute_force_runs(vec, cam.rate_requirement))
            assert Counter(table.robust_rates(cam.id)) == rates


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
    def test_fork_is_independent(self, case):
        grid, allocs = case
        occ, ref = _Occupancy(grid), Reference(grid)
        for alloc, add in allocs:
            if add:
                occ.place(alloc.slot, alloc.start, alloc.length)
                ref.add(alloc)
        forked, child = occ.fork(), Reference(grid)
        child.cells, child.load = set(ref.cells), Counter(ref.load)
        later = [alloc for alloc, add in allocs if not add]
        for alloc in later[::2]:
            forked.place(alloc.slot, alloc.start, alloc.length)
            child.add(alloc)
        for alloc in later[1::2]:
            occ.place(alloc.slot, alloc.start, alloc.length)
            ref.add(alloc)
        for alloc, _ in allocs:
            assert occ.fits(alloc.slot, alloc.start, alloc.length) == ref.admits(alloc)
            assert forked.fits(alloc.slot, alloc.start, alloc.length) == child.admits(alloc)


@given(
    st.one_of(
        st.lists(st.one_of(st.just(0.0), st.floats(0.01, 10.0)), min_size=1, max_size=12),
        # Uniform rates take the scan's one-length shortcut.
        st.builds(lambda rate, m: [rate] * m, st.floats(0.01, 10.0), st.integers(1, 12)),
    ),
    st.floats(0.01, 60.0),
)
def test_candidate_runs_matches_window_scan(rates, requirement):
    by_len = {}
    for start, length, rate in brute_force_runs(rates, requirement):
        by_len.setdefault(length, []).append((start, rate))
    assert runs_by_length(rates, requirement) == by_len
