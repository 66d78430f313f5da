"""Output check: every verdict against its committed reference answer.

Three outcomes per operation:

* ``None`` — verified: reference status and objective, a design that
  passes ``verify_design(design, expected_objective=...)``, not
  degraded, no limit hit (and, where audited, a CERTIFIED audit of the
  reference objective);
* a reason string — undecided or refused (limit hit, degraded, audit
  forfeitures, a shed or failed request); counted in ``failed``;
* :class:`WrongVerdict` raised — a decided answer that contradicts the
  reference.  The run stops and names the instance.
"""

from __future__ import annotations

from typing import Mapping, Optional

DECIDED = ("optimal", "infeasible")


class WrongVerdict(Exception):
    """A decided verdict that disagrees with the reference answer."""

    def __init__(self, iid: str, detail: str) -> None:
        super().__init__(f"{iid}: {detail}")
        self.iid = iid


def _compare(iid: str, status: str, objective, ref: Mapping) -> None:
    if status != ref["status"]:
        raise WrongVerdict(
            iid, f"status {status!r}, reference {ref['status']!r}"
        )
    if status == "optimal" and objective != ref["objective"]:
        raise WrongVerdict(
            iid, f"objective {objective!r}, reference {ref['objective']!r}"
        )


def check_outcome(iid: str, outcome, ref: Mapping) -> "Optional[str]":
    """Check one in-process :class:`PartitionOutcome`."""
    from repro.core.verify import verify_design
    from repro.errors import VerificationError

    if outcome.degraded:
        return f"degraded ({outcome.degradation_cause})"
    if outcome.hit_limit:
        return f"undecided ({outcome.solve_stats.stop_reason})"
    status = outcome.status.value
    if status not in DECIDED:
        return f"undecided ({status})"
    _compare(iid, status, outcome.objective, ref)
    if status == "optimal":
        if outcome.design is None:
            raise WrongVerdict(iid, "optimal without a design")
        try:
            verify_design(outcome.design, expected_objective=ref["objective"])
        except VerificationError as exc:
            raise WrongVerdict(iid, f"design fails verification: {exc}")
    return None


def check_audit(iid: str, report, ref: Mapping) -> "Optional[str]":
    """Check the audit of a proof log against the reference."""
    if report.verdict == "REFUTED":
        raise WrongVerdict(iid, f"proof refuted: {report.reason}")
    if report.verdict != "CERTIFIED":
        return f"audit {report.verdict}"
    _compare(iid, report.claimed_status, report.certified_objective, ref)
    return None


def check_response(iid: str, http_status: int, doc: Mapping,
                   ref: Mapping) -> "Optional[str]":
    """Check one ``/v1/solve`` response of the service."""
    if http_status != 200:
        error = doc.get("error")
        code = error.get("code") if isinstance(error, Mapping) else error
        kind = "shed" if http_status in (429, 503) else "http error"
        return f"{kind} {http_status} ({code})"
    solve = doc.get("solve") or {}
    if doc.get("outcome") != "OK" or solve.get("degraded"):
        return f"outcome {doc.get('outcome')}"
    status = solve.get("status")
    if status not in DECIDED:
        return f"undecided ({status})"
    _compare(iid, status, solve.get("objective"), ref)
    return None
