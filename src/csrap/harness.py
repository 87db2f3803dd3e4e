"""Experiment harness: seeded parameter sweeps over generated scenarios.

A sweep varies one axis (target count, view distance, field of view or
deployment scheme) of a base configuration, runs each requested algorithm on
freshly generated scenarios for every trial, verifies every feasible
schedule, and aggregates RB counts into plot-ready CSV.
"""

from __future__ import annotations

import math
import numbers
import statistics
import time
from dataclasses import dataclass, fields, replace
from typing import Any, Callable, Mapping

from .exact import DEFAULT_NODE_BUDGET, exact_solve
from .model import CandidateAllocation, Scenario, Schedule, _integer, verify_schedule
from .scenario import (
    ScenarioConfig,
    build_field,
    config_from_document,
    generate_scenario,
    known_keys,
    need_field,
    read_integer,
    read_number,
    read_object,
    read_objects,
)
from .solvers import (
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
    "run_sweep",
    "sweep_spec_from_document",
    "schedule_to_document",
    "schedule_from_document",
]

SWEEP_AXES = ("num_targets", "view_distance", "fov", "deployment")
CSV_HEADER = "axis,value,algorithm,mean_rbs,std_rbs,infeasible,trials"

# name -> solver(scenario, multiplicity, node_budget).  Every solver reads
# the scenario's one candidate table, ``scenario.table``, and its one MRAMC
# result, ``scenario.mramc``, when it needs them.  Each solver reads only the
# arguments it needs.
SOLVERS: dict[str, Callable[[Scenario, int, int], SolverResult]] = {
    "baseline": lambda scn, mult, budget: baseline_schedule(scn),
    "mramc": lambda scn, mult, budget: mramc(scn),
    "m_mramc": lambda scn, mult, budget: m_mramc(scn, {t.id: mult for t in scn.targets}),
    "exact": lambda scn, mult, budget: exact_solve(scn, "with_exclusivity", budget),
    "exact_relaxed": lambda scn, mult, budget: exact_solve(scn, "without_exclusivity", budget),
    "greedy_based": lambda scn, mult, budget: greedy_based_reference(scn),
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
    when ``m_mramc`` is among the algorithms.  Every field is checked here,
    and a rejected one raises a ``ValueError`` that begins with its name;
    :func:`sweep_spec_from_document` adds no check of its own.
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
        if not isinstance(self.config, ScenarioConfig):
            raise ValueError(f"config must be a ScenarioConfig, not {self.config!r}")
        if self.axis not in SWEEP_AXES:
            raise ValueError(f"axis must be one of {SWEEP_AXES}")
        for field in ("values", "algorithms"):
            if not isinstance(getattr(self, field), (list, tuple)):
                raise ValueError(f"{field} must be a list or tuple, not {getattr(self, field)!r}")
            object.__setattr__(self, field, tuple(getattr(self, field)))
            if not getattr(self, field):
                raise ValueError(f"{field} must not be empty")
        for field in ("trials", "base_seed", "multiplicity"):
            object.__setattr__(self, field, _integer(getattr(self, field), field))
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if self.multiplicity < 1:
            raise ValueError("multiplicity must be >= 1")
        if not isinstance(self.freeze_placement, bool):
            raise ValueError(f"freeze_placement must be a boolean, not {self.freeze_placement!r}")
        # A tuple lookup compares by equality, so an unhashable entry is
        # rejected here too.
        for i, name in enumerate(self.algorithms):
            if name not in ALGORITHMS:
                raise ValueError(f"algorithms[{i}]: unknown algorithm {name!r}; expected one of {ALGORITHMS}")
        # An out-of-range or repeated value fails here, naming it, before any
        # trial runs (the rows of a repeated value would pool the same seeds).
        for i, value in enumerate(self.values):
            if value in self.values[:i]:
                raise ValueError(f"values[{i}]: repeats values[{self.values.index(value)}]")
            try:
                apply_axis(self.config, self.axis, value)
            except ValueError as exc:
                raise ValueError(f"values[{i}]: {exc}") from exc


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
    """``config`` with ``axis`` set to ``value``.  A value of the wrong type
    raises ``ValueError`` rather than being coerced: a string or a ``bool``
    on a numeric axis, or a non-string deployment."""
    if axis == "deployment":
        if not isinstance(value, str):
            raise ValueError(f"deployment must be a string, not {value!r}")
        return replace(config, deployment=value)
    if axis not in SWEEP_AXES:
        raise ValueError(f"axis must be one of {SWEEP_AXES}")
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{axis} must be a number, not {value!r}")
    if axis == "num_targets":
        return replace(config, num_targets=_integer(value, "num_targets"))
    try:
        v = float(value)
    except OverflowError:  # an integer beyond the float range
        v = math.inf
    if axis == "view_distance":
        return replace(config, geometry=replace(config.geometry, view_distance=(v, v)))
    return replace(config, geometry=replace(config.geometry, fov_deg=v))


def run_sweep(spec: SweepSpec) -> SweepResult:
    """Run every (axis value, trial, algorithm) combination.

    Each feasible schedule is re-verified, a relaxed one without the
    checks in ``RELAXED_WAIVERS``; a verification failure is a correctness
    bug in a solver, never data, so it aborts the sweep naming the
    offending seed and algorithm.  Output is fully deterministic for a given
    spec.  A trial runs MRAMC at most once: every solver that needs its
    result reads the trial scenario's ``Scenario.mramc``.
    """
    totals: dict[tuple[Any, str], list[int | None]] = {
        (value, algo): [] for value in spec.values for algo in spec.algorithms
    }

    for value in spec.values:
        cfg = apply_axis(spec.config, spec.axis, value)
        for trial in range(spec.trials):
            seed = spec.base_seed + trial
            if spec.freeze_placement:
                scn = generate_scenario(replace(cfg, rng_seed=spec.base_seed), shadow_seed=seed)
            else:
                scn = generate_scenario(replace(cfg, rng_seed=seed))
            for algo in spec.algorithms:
                result = SOLVERS[algo](scn, spec.multiplicity, DEFAULT_NODE_BUDGET)
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
        )
        for value in spec.values
        for algo in spec.algorithms
    )
    return SweepResult(spec=spec, cells=cells)


def sweep_spec_from_document(doc: Mapping) -> SweepSpec:
    """Parse a sweep document.  Its keys are :class:`SweepSpec`'s fields and
    SweepSpec checks them; only ``config`` is parsed here (null keeps the
    default).  A rejected entry fails with its field name."""
    doc = known_keys(read_object(doc, "sweep"), [field.name for field in fields(SweepSpec)])
    kwargs = {key: value for key, value in doc.items() if key != "config"}
    if doc.get("config") is not None:
        kwargs["config"] = config_from_document(doc["config"], "config")
    return build_field("", SweepSpec, **kwargs)


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
    # ``status`` is written for the reader and not read back.
    doc = known_keys(read_object(doc, "schedule"), ("assignments", "total_rbs", "status"))
    allocs = []
    for entry, path in read_objects(*need_field(doc, "assignments")):
        known_keys(entry, ("camera_id", "slot", "start", "length", "robust_rate"), path)
        run = [read_integer(*need_field(entry, key, path)) for key in ("camera_id", "slot", "start", "length")]
        robust = read_number(*need_field(entry, "robust_rate", path))
        allocs.append(build_field(path, CandidateAllocation, *run, robust))
    total = read_integer(*need_field(doc, "total_rbs"))
    schedule = build_field("assignments", Schedule.build, allocs, scenario.cameras, scenario.target_ids)
    return replace(schedule, total_rbs=total)
