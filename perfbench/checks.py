"""Correctness gates that run outside every timed region."""

from __future__ import annotations

from typing import List

from repro.verify.checker import ExecutionLog

__all__ = ["ExecutionLog", "causal_violations"]


def causal_violations(log: ExecutionLog, replication, end: float,
                      visibility_bound: float) -> List[str]:
    """Causal order and session monotonicity over the whole run, plus
    completeness for updates created before ``end - visibility_bound``
    (later ones may still be in flight: runs stop without draining)."""
    problems = [f"{v.kind} at {v.dc}: {v.detail}" for v in log.check()]
    horizon = end - visibility_bound
    positions = {dc: log.visibility_positions(dc)
                 for dc in replication.datacenters}
    checked = 0
    for version, record in sorted(log.updates.items()):
        if not record.key or not record.origin or record.created_at >= horizon:
            continue
        checked += 1
        for dc in sorted(replication.replicas(record.key)):
            if version not in positions.get(dc, {}):
                problems.append(f"completeness at {dc}: update {version} "
                                f"of {record.key!r} created at "
                                f"{record.created_at:.3f} never visible")
    if checked == 0:
        problems.append("completeness: no update old enough to check")
    return problems
