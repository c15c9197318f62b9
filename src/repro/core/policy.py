"""The four DC-assignment policies behind one dispatch, shared by the
``assign`` stage (external DCs) and both nodal-decomposition passes
(internal DCs, "with the same algorithms" as the paper's Sec. 4 says)."""

from __future__ import annotations

from .assignment import Assignment
from .cfactor import DEFAULT_THRESHOLD, cfactor_assignment
from .ranking import complete_assignment, ranking_assignment
from .spec import FunctionSpec

__all__ = ["POLICIES", "apply_policy"]

POLICIES = ("conventional", "ranking", "cfactor", "complete")
"""The four assignment policies of the evaluation."""


def apply_policy(
    spec: FunctionSpec,
    policy: str,
    *,
    fraction: float = 1.0,
    threshold: float = DEFAULT_THRESHOLD,
) -> tuple[FunctionSpec, Assignment]:
    """Produce the (partially) assigned spec for a policy.

    ``cfactor`` is Fig. 7 at *threshold*, ``ranking`` assigns the top
    *fraction* of the Fig. 3 ranked list, ``complete`` assigns every DC
    and ``conventional`` none (*spec* itself is returned).

    Raises:
        ValueError: on unknown policy names.
    """
    if policy == "conventional":
        assignment = Assignment()
    elif policy == "ranking":
        assignment = ranking_assignment(spec, fraction)
    elif policy == "cfactor":
        assignment = cfactor_assignment(spec, threshold)
    elif policy == "complete":
        assignment = complete_assignment(spec)
    else:
        raise ValueError(f"unknown policy {policy!r}; choose from {POLICIES}")
    assigned = assignment.apply(spec) if len(assignment) else spec
    return assigned, assignment
