"""Experiment harness: seeded parameter sweeps over generated scenarios.

A sweep varies one axis (target count, view distance, field of view or
deployment scheme) of a base configuration, runs each requested algorithm on
freshly generated scenarios for every trial, verifies every feasible
schedule, and aggregates RB counts into plot-ready CSV.
"""

from __future__ import annotations

import math
import statistics
import time
from dataclasses import dataclass, replace
from typing import Any, Callable, Mapping, Sequence

from .exact import DEFAULT_NODE_BUDGET, exact_solve
from .model import CandidateAllocation, Scenario, Schedule, verify_schedule
from .scenario import (
    ScenarioConfig,
    ScenarioFormatError,
    config_from_document,
    generate_scenario,
    need_field,
    read_integer,
    read_number,
    read_string,
)
from .solvers import (
    CandidateTable,
    SolveStatus,
    SolverResult,
    baseline_schedule,
    greedy_based_reference,
    m_mramc,
    mramc,
)

__all__ = [
    "SWEEP_AXES",
    "SOLVERS",
    "ALGORITHMS",
    "CSV_HEADER",
    "SweepSpec",
    "SweepCell",
    "SweepResult",
    "greedy_based_reference",
    "run_sweep",
    "sweep_spec_from_document",
    "schedule_to_document",
    "schedule_from_document",
]

SWEEP_AXES = ("num_targets", "view_distance", "fov", "deployment")
CSV_HEADER = "axis,value,algorithm,mean_rbs,std_rbs,infeasible,trials"

# name -> solver(scenario, table, multiplicity, node_budget).  ``table`` may be
# None; each solver reads only the arguments it needs.
SOLVERS: dict[str, Callable[[Scenario, CandidateTable | None, int, int], SolverResult]] = {
    "baseline": lambda scn, table, mult, budget: baseline_schedule(scn, table),
    "mramc": lambda scn, table, mult, budget: mramc(scn, table),
    "m_mramc": lambda scn, table, mult, budget: m_mramc(scn, {t.id: mult for t in scn.targets}, table),
    "exact": lambda scn, table, mult, budget: exact_solve(scn, "with_exclusivity", budget, table),
    "exact_relaxed": lambda scn, table, mult, budget: exact_solve(scn, "without_exclusivity", budget, table),
    "greedy_based": lambda scn, table, mult, budget: greedy_based_reference(scn, table),
}
ALGORITHMS = tuple(SOLVERS)

# Checks a relaxed result may fail: the relaxation lets runs share RBs.
RELAXED_WAIVERS = frozenset({"rb_exclusivity", "slot_capacity"})


@dataclass(frozen=True)
class SweepSpec:
    """One experiment: a base configuration, an axis to vary, and seeding.

    Trial ``i`` uses seed ``base_seed + i``; with ``freeze_placement`` the
    placement keeps the base seed and only the shadowing draws vary between
    trials.  ``multiplicity`` is the uniform per-target camera count used
    when ``m_mramc`` is among the algorithms.
    """

    config: ScenarioConfig = ScenarioConfig()
    axis: str = "num_targets"
    values: tuple = (10, 20, 30, 40)
    trials: int = 200
    algorithms: tuple[str, ...] = ("baseline", "mramc", "greedy_based")
    base_seed: int = 0
    freeze_placement: bool = False
    multiplicity: int = 1

    def __post_init__(self) -> None:
        if self.axis not in SWEEP_AXES:
            raise ValueError(f"axis must be one of {SWEEP_AXES}")
        if not self.values:
            raise ValueError("values must not be empty")
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        object.__setattr__(self, "values", tuple(self.values))
        algos = tuple(self.algorithms)
        for name in algos:
            if name not in SOLVERS:
                raise ValueError(f"unknown algorithm '{name}'; expected one of {ALGORITHMS}")
        object.__setattr__(self, "algorithms", algos)
        if self.multiplicity < 1:
            raise ValueError("multiplicity must be >= 1")


@dataclass(frozen=True)
class SweepCell:
    """Aggregate for one (axis value, algorithm) pair.

    ``totals`` retains the per-trial RB counts (None where infeasible), so
    the mean is recomputable from raw data.
    """

    axis: str
    value: Any
    algorithm: str
    totals: tuple[int | None, ...]
    wall_clock_s: float

    @property
    def feasible_totals(self) -> tuple[int, ...]:
        return tuple(t for t in self.totals if t is not None)

    @property
    def trials(self) -> int:
        return len(self.totals)

    @property
    def infeasible(self) -> int:
        return sum(1 for t in self.totals if t is None)

    @property
    def mean_rbs(self) -> float:
        vals = self.feasible_totals
        return statistics.fmean(vals) if vals else math.nan

    @property
    def std_rbs(self) -> float:
        vals = self.feasible_totals
        if len(vals) < 2:
            return 0.0 if vals else math.nan
        return statistics.stdev(vals)

    @property
    def stderr_rbs(self) -> float:
        vals = self.feasible_totals
        return self.std_rbs / math.sqrt(len(vals)) if vals else math.nan


@dataclass(frozen=True)
class SweepResult:
    spec: SweepSpec
    cells: tuple[SweepCell, ...]

    def cell(self, value: Any, algorithm: str) -> SweepCell:
        for c in self.cells:
            if c.value == value and c.algorithm == algorithm:
                return c
        raise KeyError((value, algorithm))

    def to_csv(self, timestamp: bool = False) -> str:
        lines = []
        if timestamp:
            lines.append(f"# generated {time.strftime('%Y-%m-%dT%H:%M:%S')}")
        lines.append(CSV_HEADER)
        for c in self.cells:
            lines.append(
                f"{c.axis},{c.value},{c.algorithm},{c.mean_rbs:.4f},{c.std_rbs:.4f},{c.infeasible},{c.trials}"
            )
        return "\n".join(lines) + "\n"


def apply_axis(config: ScenarioConfig, axis: str, value: Any) -> ScenarioConfig:
    if axis == "num_targets":
        return replace(config, num_targets=int(value))
    if axis == "view_distance":
        v = float(value)
        return replace(config, geometry=replace(config.geometry, view_distance=(v, v)))
    if axis == "fov":
        return replace(config, geometry=replace(config.geometry, fov_deg=float(value)))
    if axis == "deployment":
        return replace(config, deployment=str(value))
    raise ValueError(f"axis must be one of {SWEEP_AXES}")


def run_sweep(spec: SweepSpec) -> SweepResult:
    """Run every (axis value, trial, algorithm) combination.

    Each feasible schedule is re-verified, a relaxed one without the
    checks in ``RELAXED_WAIVERS``; a verification failure is a correctness
    bug in a solver, never data, so it aborts the sweep naming the
    offending seed and algorithm.  Output is fully deterministic for a given
    spec.
    """
    totals: dict[tuple[Any, str], list[int | None]] = {
        (value, algo): [] for value in spec.values for algo in spec.algorithms
    }
    clocks: dict[tuple[Any, str], float] = {key: 0.0 for key in totals}

    for value in spec.values:
        cfg = apply_axis(spec.config, spec.axis, value)
        for trial in range(spec.trials):
            seed = spec.base_seed + trial
            if spec.freeze_placement:
                scn = generate_scenario(replace(cfg, rng_seed=spec.base_seed), shadow_seed=seed)
            else:
                scn = generate_scenario(replace(cfg, rng_seed=seed))
            table = CandidateTable(scn.cameras, scn.grid)
            for algo in spec.algorithms:
                t0 = time.perf_counter()
                result = SOLVERS[algo](scn, table, spec.multiplicity, DEFAULT_NODE_BUDGET)
                clocks[(value, algo)] += time.perf_counter() - t0
                if result.status is SolveStatus.FEASIBLE:
                    waived = RELAXED_WAIVERS if result.relaxed else frozenset()
                    report = verify_schedule(result.schedule, scn)
                    failing = [c.name for c in report.checks if not c.passed and c.name not in waived]
                    if failing:
                        raise RuntimeError(
                            f"schedule from '{algo}' failed verification on seed {seed} "
                            f"(axis {spec.axis}={value}): {failing}"
                        )
                    totals[(value, algo)].append(result.schedule.total_rbs)
                else:
                    totals[(value, algo)].append(None)

    cells = tuple(
        SweepCell(
            axis=spec.axis,
            value=value,
            algorithm=algo,
            totals=tuple(totals[(value, algo)]),
            wall_clock_s=clocks[(value, algo)],
        )
        for value in spec.values
        for algo in spec.algorithms
    )
    return SweepResult(spec=spec, cells=cells)


def _axis_value(axis: str, value: Any, path: str) -> Any:
    """Check one sweep value for ``axis``; it is kept as written, because
    the CSV prints it (a view distance of 30 stays ``30``)."""
    if axis == "num_targets":
        return read_integer(value, path)
    if axis == "deployment":
        return read_string(value, path)
    read_number(value, path)
    return value


def sweep_spec_from_document(doc: Mapping) -> SweepSpec:
    """Parse a sweep document; a malformed or unknown entry fails with its field name."""
    if not isinstance(doc, Mapping):
        raise ScenarioFormatError("sweep: expected a JSON object")
    kwargs: dict[str, Any] = {}
    if "config" in doc and doc["config"] is not None:
        kwargs["config"] = config_from_document(doc["config"])
    axis = doc.get("axis", SweepSpec.axis)
    if axis not in SWEEP_AXES:
        raise ScenarioFormatError(f"axis: expected one of {SWEEP_AXES}")
    kwargs["axis"] = axis
    if "values" in doc:
        values = doc["values"]
        if not isinstance(values, Sequence) or isinstance(values, (str, bytes)):
            raise ScenarioFormatError("values: expected a list")
        kwargs["values"] = tuple(_axis_value(axis, v, f"values[{i}]") for i, v in enumerate(values))
    if "algorithms" in doc:
        algos = doc["algorithms"]
        if not isinstance(algos, Sequence) or isinstance(algos, (str, bytes)):
            raise ScenarioFormatError("algorithms: expected a list of names")
        kwargs["algorithms"] = tuple(read_string(a, f"algorithms[{i}]") for i, a in enumerate(algos))
    for key in ("trials", "base_seed", "multiplicity"):
        if key in doc:
            kwargs[key] = read_integer(doc[key], key)
    if "freeze_placement" in doc:
        if not isinstance(doc["freeze_placement"], bool):
            raise ScenarioFormatError("freeze_placement: expected a boolean")
        kwargs["freeze_placement"] = doc["freeze_placement"]
    try:
        return SweepSpec(**kwargs)
    except ValueError as exc:
        raise ScenarioFormatError(str(exc)) from exc


def schedule_to_document(result: SolverResult) -> dict:
    return {
        "assignments": [
            {
                "camera_id": a.camera_id,
                "slot": a.slot,
                "start": a.start,
                "length": a.length,
                "robust_rate": a.robust_rate,
            }
            for a in result.schedule.assignments
        ],
        "total_rbs": result.schedule.total_rbs,
        "status": result.status.value,
    }


def schedule_from_document(doc: Mapping, scenario: Scenario) -> Schedule:
    """Rebuild a schedule document against a scenario for verification."""
    if not isinstance(doc, Mapping):
        raise ScenarioFormatError("schedule: expected a JSON object")
    raw = need_field(doc, "assignments", "")
    if not isinstance(raw, Sequence):
        raise ScenarioFormatError("assignments: expected a list")
    allocs = []
    for i, entry in enumerate(raw):
        path = f"assignments[{i}]"
        if not isinstance(entry, Mapping):
            raise ScenarioFormatError(f"{path}: expected an object")
        run = [
            read_integer(need_field(entry, key, f"{path}."), f"{path}.{key}")
            for key in ("camera_id", "slot", "start", "length")
        ]
        robust = read_number(need_field(entry, "robust_rate", f"{path}."), f"{path}.robust_rate")
        try:
            allocs.append(CandidateAllocation(*run, robust))
        except ValueError as exc:
            raise ScenarioFormatError(f"{path}: {exc}") from exc
    total = read_integer(need_field(doc, "total_rbs", ""), "total_rbs")
    covered: set[int] = set()
    cams = {c.id: c for c in scenario.cameras}
    for alloc in allocs:
        cam = cams.get(alloc.camera_id)
        if cam is None:
            raise ScenarioFormatError(f"assignments: unknown camera {alloc.camera_id}")
        covered |= cam.coverage_set
    return Schedule(
        assignments=tuple(sorted(allocs, key=CandidateAllocation.sort_key)),
        total_rbs=total,
        covered_targets=frozenset(covered & scenario.target_ids),
    )
