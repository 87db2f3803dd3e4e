"""Shared test helpers: random instances and independent brute-force oracles.

The oracles here deliberately re-derive results from first principles (plain
loops over all possibilities) so library code is never checked against
itself.
"""

from __future__ import annotations

import math
from dataclasses import replace
from fractions import Fraction

import numpy as np

from csrap import (
    CameraNode,
    CandidateAllocation,
    FeasibilityReport,
    FrameGrid,
    Omnidirectional,
    Scenario,
    ScenarioConfig,
    TargetObject,
    generate_scenario,
)
from csrap.model import ConstraintCheck
from csrap.scenario import derive_rates

RATE_TIERS = (2.0, 4.0, 6.0, 8.0)


def random_instance(
    rng: np.random.Generator,
    max_cameras: int = 6,
    max_targets: int = 8,
    max_subchannels: int = 6,
    max_slots: int = 2,
    zero_rate_prob: float = 0.12,
    cover_all: bool = True,
) -> Scenario:
    """Small random instance with tier-quantized rates and random coverage.

    With ``cover_all`` every target is covered by at least one camera, though
    that camera may still be unable to transmit (all-zero rates), so solvers
    can legitimately report infeasibility.
    """
    k = int(rng.integers(2, max_cameras + 1))
    y = int(rng.integers(2, max_targets + 1))
    m = int(rng.integers(2, max_subchannels + 1))
    t = int(rng.integers(1, max_slots + 1))
    targets = tuple(TargetObject(i + 1, (float(i), 0.0)) for i in range(y))

    coverage: list[set[int]] = [set() for _ in range(k)]
    for cam_idx in range(k):
        size = int(rng.integers(1, min(y, 4) + 1))
        coverage[cam_idx] = set(int(v) + 1 for v in rng.choice(y, size=size, replace=False))
    if cover_all:
        for target_id in range(1, y + 1):
            if not any(target_id in cov for cov in coverage):
                coverage[int(rng.integers(0, k))].add(target_id)

    cameras = []
    for cam_idx in range(k):
        rates = []
        for _ in range(m):
            if rng.random() < zero_rate_prob:
                rates.append(0.0)
            else:
                rates.append(float(RATE_TIERS[int(rng.integers(0, len(RATE_TIERS)))]))
        requirement = float(rng.integers(3, 17))
        cameras.append(
            CameraNode(
                id=cam_idx + 1,
                position=(float(cam_idx), 1.0),
                geometry=Omnidirectional(1.0),
                rate_requirement=requirement,
                per_subchannel_rate=tuple(rates),
                coverage_set=frozenset(coverage[cam_idx]),
            )
        )
    grid = FrameGrid(m, t)
    return Scenario(grid=grid, cameras=tuple(cameras), targets=targets)


def collision_instance(rng: np.random.Generator, max_cameras: int = 4) -> Scenario:
    """Small instance whose minimum runs collide.

    Every camera watches its own target, so every camera is in every cover,
    and sends only inside a window of the 5-8-subchannel, 1-2-slot frame,
    at tier-quantized rates, with a requirement of 4-12.  Windows overlap
    often enough that a camera may have to take a longer run than its
    minimum, so the strict optimum can exceed the relaxed one.  A camera
    drawn without any run is drawn again.
    """
    m = int(rng.integers(5, 9))
    t = int(rng.integers(1, 3))
    k = int(rng.integers(2, max_cameras + 1))
    cameras: list[CameraNode] = []
    while len(cameras) < k:
        lo = int(rng.integers(0, m - 1))
        hi = int(rng.integers(lo + 2, m + 1))
        rates = [float(RATE_TIERS[int(rng.integers(0, len(RATE_TIERS)))]) if lo <= j < hi else 0.0 for j in range(m)]
        requirement = float(rng.integers(4, 13))
        if not brute_force_runs(rates, requirement):
            continue
        cam_id = len(cameras) + 1
        cameras.append(
            CameraNode(
                id=cam_id,
                position=(float(cam_id), 1.0),
                geometry=Omnidirectional(1.0),
                rate_requirement=requirement,
                per_subchannel_rate=tuple(rates),
                coverage_set=frozenset({cam_id}),
            )
        )
    targets = tuple(TargetObject(i, (float(i), 0.0)) for i in range(1, k + 1))
    return Scenario(grid=FrameGrid(m, t), cameras=tuple(cameras), targets=targets)


def brute_force_runs(rates, requirement):
    """Every (start, length, min-rate) window satisfying the just-achieves
    inequality, checked directly over all windows."""
    out = []
    m = len(rates)
    for start in range(1, m + 1):
        for length in range(1, m - start + 2):
            window = rates[start - 1 : start - 1 + length]
            rate = min(window)
            if rate > 0 and rate * (length - 1) < requirement <= rate * length:
                out.append((start, length, rate))
    return out


def slot_runs(table, camera_id: int) -> list[list[tuple[int, int, float]]]:
    """Each slot's ``(start, length, robust_rate)`` runs of one camera, by
    start then length, with slot ``s`` at index ``s - 1``; read from the
    table's ``runs_by_cost`` walk."""
    slots: list[list[tuple[int, int, float]]] = [[] for _ in range(table.grid.num_slots)]
    for slot, start, length, robust in table.runs_by_cost(camera_id):
        slots[slot - 1].append((start, length, robust))
    for runs in slots:
        runs.sort()
    return slots


def greedy_weighted_set_cover(universe, sets, weights) -> list[int]:
    """Classic weighted set cover greedy: repeatedly take the set with the
    smallest weight per newly covered element, ties to the lowest id.

    Returns the chosen set ids in selection order; raises if some element is
    in no set.
    """
    remaining = set(universe)
    families = {sid: frozenset(members) for sid, members in sets.items()}
    order: list[int] = []
    while remaining:
        best_key: Fraction | None = None
        best_id: int | None = None
        for sid in sorted(families):
            gain = len(families[sid] & remaining)
            if sid in order or gain == 0:
                continue
            key = Fraction(weights[sid]) / gain
            if best_key is None or key < best_key:
                best_key, best_id = key, sid
        if best_id is None:
            raise ValueError(f"elements not coverable by any set: {sorted(remaining)}")
        order.append(best_id)
        remaining -= families[best_id]
    return order


def brute_force_coverage(camera: CameraNode, targets) -> set[int]:
    """Direct geometric re-check of a camera's coverage set."""
    covered = set()
    for tgt in targets:
        dx = tgt.position[0] - camera.position[0]
        dy = tgt.position[1] - camera.position[1]
        dist = math.hypot(dx, dy)
        geom = camera.geometry
        if dist > geom.view_distance:
            continue
        if hasattr(geom, "fov_deg") and dist > 0:
            bearing = math.degrees(math.atan2(dy, dx)) % 360
            delta = abs((bearing - geom.orientation_deg + 180) % 360 - 180)
            if delta > geom.fov_deg / 2:
                continue
        covered.add(tgt.id)
    return covered


def _camera_candidates(camera: CameraNode, grid: FrameGrid):
    """All candidate allocations of one camera via the brute-force window scan."""
    out = []
    runs: dict[tuple[float, ...], list] = {}  # slots with the same rates have the same runs
    for slot in range(1, grid.num_slots + 1):
        rates = tuple(camera.rates_in_slot(slot))
        if rates not in runs:
            runs[rates] = brute_force_runs(rates, camera.rate_requirement)
        for start, length, rate in runs[rates]:
            out.append(CandidateAllocation(camera.id, slot, start, length, rate))
    return out


def exhaustive_optimum(scenario: Scenario, with_exclusivity: bool = True) -> int | None:
    """Minimum total RBs by enumerating camera subsets and, when exclusivity
    is on, every conflict-free candidate assignment within each subset.

    Returns None when no subset admits a feasible schedule.  Partial sums are
    pruned against the best total found so far, which never affects the
    minimum.
    """
    cameras = list(scenario.cameras)
    target_ids = set(scenario.target_ids)
    grid = scenario.grid
    candidates = {cam.id: _camera_candidates(cam, grid) for cam in cameras}
    min_len = {
        cam.id: min((c.length for c in candidates[cam.id]), default=None) for cam in cameras
    }

    best: int | None = None
    for subset_bits in range(1, 2 ** len(cameras)):
        subset = [cameras[i] for i in range(len(cameras)) if subset_bits >> i & 1]
        covered = set()
        for cam in subset:
            covered |= cam.coverage_set
        if not target_ids <= covered:
            continue
        if any(min_len[cam.id] is None for cam in subset):
            continue
        floor = sum(min_len[cam.id] for cam in subset)
        if best is not None and floor >= best:
            continue
        if not with_exclusivity:
            best = floor if best is None else min(best, floor)
            continue

        order = [cam.id for cam in subset]

        def assign(idx: int, used_cells: set, loads: dict, cost: int) -> None:
            nonlocal best
            if best is not None and cost + sum(min_len[c] for c in order[idx:]) >= best:
                return
            if idx == len(order):
                best = cost
                return
            for cand in candidates[order[idx]]:
                cells = set(cand.cells())
                if cells & used_cells:
                    continue
                if loads.get(cand.slot, 0) + cand.length > grid.capacity(cand.slot):
                    continue
                loads2 = dict(loads)
                loads2[cand.slot] = loads2.get(cand.slot, 0) + cand.length
                assign(idx + 1, used_cells | cells, loads2, cost + cand.length)

        assign(0, set(), {}, 0)
    return best


def all_subsets_cover_optimum(scenario: Scenario) -> int | None:
    """Reference for the relaxed mode: min over covering subsets of the sum
    of per-camera minimum run lengths, by plain subset enumeration."""
    return exhaustive_optimum(scenario, with_exclusivity=False)


def feasible_via_exhaustion(scenario: Scenario) -> bool:
    return exhaustive_optimum(scenario, with_exclusivity=True) is not None


def ilp_constraints_hold(schedule, scenario) -> dict[str, bool]:
    """Direct re-implementation of the four feasibility rules, independent of
    the library verifier."""
    cams = {c.id: c for c in scenario.cameras}
    covered = set()
    for alloc in schedule.assignments:
        covered |= cams[alloc.camera_id].coverage_set
    coverage_ok = set(t.id for t in scenario.targets) <= covered

    used = {}
    exclusivity_ok = True
    for alloc in schedule.assignments:
        for cell in alloc.cells():
            if cell in used:
                exclusivity_ok = False
            used[cell] = alloc.camera_id

    loads: dict[int, int] = {}
    for alloc in schedule.assignments:
        loads[alloc.slot] = loads.get(alloc.slot, 0) + alloc.length
    capacity_ok = all(n <= scenario.grid.capacity(slot) for slot, n in loads.items())

    seen = [a.camera_id for a in schedule.assignments]
    single_ok = len(seen) == len(set(seen))

    return {
        "coverage": coverage_ok,
        "slot_capacity": capacity_ok,
        "rb_exclusivity": exclusivity_ok,
        "single_allocation": single_ok,
    }


def verify_schedule_oracle(schedule, scenario) -> FeasibilityReport:
    """The report ``verify_schedule`` must give, re-derived with plain loops:
    RB exclusivity lists every (slot, subchannel) cell of the frame with the
    ids of the in-frame runs that contain it, one entry per run."""
    grid = scenario.grid
    cams = {c.id: c for c in scenario.cameras}

    def in_frame(alloc):
        return alloc.slot <= grid.num_slots and alloc.start + alloc.length - 1 <= grid.num_subchannels

    bad = []
    for alloc in schedule.assignments:
        cam = cams[alloc.camera_id]
        if not in_frame(alloc):
            bad.append((alloc.camera_id, "run outside frame"))
            continue
        window = cam.rates_in_slot(alloc.slot)[alloc.start - 1 : alloc.start - 1 + alloc.length]
        rate = alloc.robust_rate
        if min(window) != rate:
            bad.append((alloc.camera_id, "robust rate mismatch"))
        elif not (rate * (alloc.length - 1) < cam.rate_requirement <= rate * alloc.length):
            bad.append((alloc.camera_id, "run does not just achieve the requirement"))

    covered = set()
    for alloc in schedule.assignments:
        covered |= cams[alloc.camera_id].coverage_set
    uncovered = tuple(sorted(t.id for t in scenario.targets if t.id not in covered))

    over = []
    for slot in range(1, grid.num_slots + 1):
        used = sum(a.length for a in schedule.assignments if a.slot == slot)
        if used > grid.capacity(slot):
            over.append((slot, used, grid.capacity(slot)))

    clashes = []
    for slot in range(1, grid.num_slots + 1):
        for sub in range(1, grid.num_subchannels + 1):
            owners = sorted(
                a.camera_id
                for a in schedule.assignments
                if in_frame(a) and a.slot == slot and a.start <= sub < a.start + a.length
            )
            if len(owners) > 1:
                clashes.append((slot, sub, tuple(owners)))

    ids = [a.camera_id for a in schedule.assignments]
    dupes = tuple(sorted({i for i in ids if ids.count(i) > 1}))

    mismatches = []
    total = sum(a.length for a in schedule.assignments)
    if total != schedule.total_rbs:
        mismatches.append(f"total_rbs declared {schedule.total_rbs}, recomputed {total}")
    if frozenset(t.id for t in scenario.targets if t.id in covered) != schedule.covered_targets:
        mismatches.append("covered_targets does not match assigned cameras")

    checks = (
        ("allocation_validity", tuple(bad)),
        ("coverage", uncovered),
        ("slot_capacity", tuple(over)),
        ("rb_exclusivity", tuple(clashes)),
        ("single_allocation", dupes),
        ("declared_totals", tuple(mismatches)),
    )
    return FeasibilityReport(tuple(ConstraintCheck(name, not found, found) for name, found in checks))


def milp_optimum(scenario: Scenario, with_exclusivity: bool = True) -> int | None:
    """Minimum total RBs from an integer program solved by HiGHS through
    ``scipy.optimize.milp``, or None when it is infeasible.

    One binary variable per candidate allocation, weighted by its length.
    Rows: every target covered at least once and at most one allocation per
    camera; with exclusivity also at most one allocation per RB and every
    slot's load within its capacity.  Callers skip when scipy is missing.
    """
    from scipy.optimize import Bounds, LinearConstraint, milp

    grid = scenario.grid
    cands = [c for cam in scenario.cameras for c in _camera_candidates(cam, grid)]
    coverage = {cam.id: cam.coverage_set for cam in scenario.cameras}
    targets = sorted(scenario.target_ids)
    if not targets:
        return 0
    if not cands:
        return None

    rows: list[np.ndarray] = []
    lower: list[float] = []
    upper: list[float] = []

    def row(coefficients, lo, hi):
        rows.append(np.asarray(coefficients, dtype=float))
        lower.append(lo)
        upper.append(hi)

    # Columns as arrays: a row is a mask over the candidates, or a mask
    # times their lengths.
    cam_of = np.array([c.camera_id for c in cands])
    slot_of = np.array([c.slot for c in cands])
    start_of = np.array([c.start for c in cands])
    length_of = np.array([c.length for c in cands])
    for t in targets:
        row(np.isin(cam_of, [cam_id for cam_id, cov in coverage.items() if t in cov]), 1, np.inf)
    for cam in scenario.cameras:
        row(cam_of == cam.id, 0, 1)
    if with_exclusivity:
        for slot in range(1, grid.num_slots + 1):
            in_slot = slot_of == slot
            for m in range(1, grid.num_subchannels + 1):
                row(in_slot & (start_of <= m) & (m < start_of + length_of), 0, 1)
            row(in_slot * length_of, 0, grid.capacity(slot))

    res = milp(
        c=length_of.astype(float),
        integrality=np.ones(len(cands)),
        bounds=Bounds(0, 1),
        constraints=LinearConstraint(np.array(rows), lower, upper),
    )
    if res.status == 2:  # infeasible
        return None
    assert res.status == 0, res.message
    return int(round(res.fun))


def fraction_bound(coverage, min_phi, uncovered, available) -> Fraction | None:
    """The exact solver's covering bound in rationals: each uncovered target
    pays the cheapest ``min_phi / |coverage & uncovered|`` of the available
    cameras covering it; None when some target has no such camera."""
    total = Fraction(0)
    for target in uncovered:
        shares = [
            Fraction(min_phi[c], len(coverage[c] & uncovered)) for c in available if target in coverage[c]
        ]
        if not shares:
            return None
        total += min(shares)
    return total


def lagrangian_bound(coverage, min_phi, uncovered, available, prices) -> Fraction:
    """The Lagrangian bound of the residual set-covering problem in
    rationals: ``sum(u_t for t in uncovered) + sum over available cameras of
    min(0, min_phi_c - sum(u_t for t in coverage_c & uncovered))``, with
    ``prices`` mapping each target to ``u_t``."""
    total = Fraction(sum(prices[t] for t in uncovered))
    for c in available:
        reduced = min_phi[c] - sum(prices[t] for t in coverage[c] & uncovered)
        total += min(0, reduced)
    return total


def residual_cover_optimum(coverage, min_phi, uncovered, available) -> int | None:
    """Cheapest sum of ``min_phi`` over subsets of the available cameras that
    cover every uncovered target, by enumerating all subsets; None when no
    subset covers them."""
    best = None
    for bits in range(2 ** len(available)):
        subset = [c for i, c in enumerate(available) if bits >> i & 1]
        covered = set()
        for c in subset:
            covered |= coverage[c]
        if set(uncovered) <= covered:
            cost = sum(min_phi[c] for c in subset)
            best = cost if best is None else min(best, cost)
    return best


def crowded_fading(seed):
    """81 cameras in a 25x4 frame with a rate vector per camera and slot,
    drawn at 6 dBm so that nearly every slot vector is distinct."""
    config = ScenarioConfig(
        num_targets=40,
        frame=FrameGrid(num_subchannels=25, num_slots=4),
        rate_requirement_range=(8.0, 20.0),
        rng_seed=seed,
    )
    channel = replace(config.channel, tx_power_dbm=6.0)
    rng = np.random.default_rng([seed, 2])
    center = (config.area_side / 2.0, config.area_side / 2.0)
    overrides = {
        cam.id: {slot: derive_rates(cam.position, channel, rng, 25, center) for slot in range(1, 5)}
        for cam in generate_scenario(config).cameras
    }
    return generate_scenario(replace(config, rate_overrides=overrides))
