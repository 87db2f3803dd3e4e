"""Correctness gate and determinism digest.

Every check raises :class:`GateViolation` naming the workload, the seed and
the algorithm, so a wrong output stops the run instead of being timed.
"""

from __future__ import annotations

import hashlib
from typing import NamedTuple, Sequence

from csrap import FeasibilityReport


class Outcome(NamedTuple):
    """One solver result of one op, as it enters the digest."""

    algorithm: str
    status: str  # a SolveStatus value, "infeasible" for sweep cells, or "budget_exceeded"
    total_rbs: int | None  # None unless feasible
    nodes: int | None = None  # exact solver only


class GateViolation(RuntimeError):
    def __init__(self, workload: str, seed: int, algorithm: str, detail: str):
        super().__init__(f"correctness gate: workload {workload}, seed {seed}, algorithm {algorithm}: {detail}")


def check_report(workload: str, seed: int, algorithm: str, report: FeasibilityReport) -> None:
    if not report.feasible:
        failing = [f"{c.name}={list(c.violations)}" for c in report.checks if not c.passed]
        raise GateViolation(workload, seed, algorithm, f"schedule fails verify_schedule: {failing}")


def check_order(workload: str, seed: int, relaxed: Outcome, exact: Outcome, mramc: Outcome) -> None:
    """relaxed <= exact <= mramc in RBs wherever each is feasible."""
    chain = [o for o in (relaxed, exact, mramc) if o.status == "feasible"]
    for low, high in zip(chain, chain[1:]):
        if low.total_rbs > high.total_rbs:
            raise GateViolation(
                workload,
                seed,
                high.algorithm,
                f"{low.algorithm} needs {low.total_rbs} RBs but {high.algorithm} only {high.total_rbs}",
            )


def check_replay(workload: str, seed: int, untraced: Sequence[Outcome], traced: Sequence[Outcome]) -> None:
    """The traced replay of an op must reproduce the untraced results exactly."""
    for a, b in zip(untraced, traced):
        if a != b:
            raise GateViolation(workload, seed, a.algorithm, f"traced replay gave {tuple(b)}, untraced {tuple(a)}")
    if len(untraced) != len(traced):
        raise GateViolation(workload, seed, "-", f"traced replay gave {len(traced)} results, untraced {len(untraced)}")


def digest(ops: Sequence[Sequence[Outcome]]) -> str:
    h = hashlib.sha256()
    for i, outcomes in enumerate(ops):
        for o in outcomes:
            h.update(repr((i, tuple(o))).encode())
    return h.hexdigest()[:16]
