"""Verdicts and law-by-law check reports shared by all checker modules.

A CheckReport is an ordered list of law results.  Each result carries
the law id, a human-readable equation anchor, the verdict, an optional
witness, the worst residual seen, and the sampler provenance, so a
report line can be reproduced exactly.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

from .expr import ExprError, worst_row

__all__ = ["Verdict", "LawResult", "CheckReport", "law_from_verdict",
           "sampled_law", "Refused"]


class Verdict(enum.Enum):
    PASS_EXACT = "pass-exact"
    PASS_NUMERIC = "pass"
    FAIL = "fail"
    UNKNOWN = "unknown"
    SKIPPED = "skipped"

    @property
    def ok(self) -> bool:
        return self in (Verdict.PASS_EXACT, Verdict.PASS_NUMERIC)

    @staticmethod
    def reduce(verdicts) -> "Verdict":
        """One verdict for many.  Skips are ignored; a single failure
        dominates, unknown dominates passes, and exact survives only
        when every verdict is exact."""
        seen = [v for v in verdicts if v is not Verdict.SKIPPED]
        if not seen:
            return Verdict.SKIPPED
        if Verdict.FAIL in seen:
            return Verdict.FAIL
        if Verdict.UNKNOWN in seen:
            return Verdict.UNKNOWN
        if all(v is Verdict.PASS_EXACT for v in seen):
            return Verdict.PASS_EXACT
        return Verdict.PASS_NUMERIC


@dataclass(frozen=True)
class LawResult:
    law_id: str
    anchor: str                     # the equation being checked
    verdict: Verdict
    witness: tuple | None = None    # (point, lhs, rhs) or similar
    max_residual: float = 0.0
    provenance: dict = field(default_factory=dict)
    note: str = ""

    def describe(self) -> str:
        parts = [f"{self.law_id:<24} {self.verdict.value:<10} {self.anchor}"]
        if self.verdict is Verdict.FAIL and self.witness is not None:
            parts.append(f"  witness {_fmt_point(self.witness[0])}")
        if self.note:
            parts.append(f"  ({self.note})")
        return "".join(parts)


def _fmt_point(x) -> str:
    arr = np.atleast_1d(np.asarray(x, dtype=float))
    return "(" + ", ".join(f"{v:.6g}" for v in arr) + ")"


@dataclass
class CheckReport:
    title: str
    entries: list = field(default_factory=list)

    def add(self, entry: LawResult) -> None:
        if any(e.law_id == entry.law_id for e in self.entries):
            raise ValueError(f"duplicate law id {entry.law_id!r}")
        self.entries.append(entry)

    def __getitem__(self, law_id: str) -> LawResult:
        for e in self.entries:
            if e.law_id == law_id:
                return e
        raise KeyError(law_id)

    @property
    def aggregate(self) -> Verdict:
        return Verdict.reduce(e.verdict for e in self.entries)

    @property
    def ok(self) -> bool:
        return self.aggregate.ok

    def failures(self) -> list:
        return [e for e in self.entries if e.verdict is Verdict.FAIL]

    def describe(self) -> str:
        lines = [f"== {self.title} [{self.aggregate.value}]"]
        lines += ["  " + e.describe() for e in self.entries]
        return "\n".join(lines)


class Refused(ExprError):
    """A construction refused at a gate, with the verdict it reports."""

    def __init__(self, message: str, verdict: Verdict = Verdict.FAIL):
        super().__init__(message)
        self.verdict = verdict

    @classmethod
    def gate(cls, universality, what: str) -> None:
        """Let `what` go on a universality verdict (a CheckReport or a
        Verdict) that passes; else raise cls, unknown after an unknown
        verdict or none (its square's check raised: nothing was refuted)
        and fail otherwise."""
        if universality is None:
            raise cls(f"{what} refused, no universality verdict was given",
                      Verdict.UNKNOWN)
        agg = getattr(universality, "aggregate", universality)
        if not agg.ok:
            raise cls(f"{what} refused, universality verdict is {agg.value}",
                      Verdict.UNKNOWN if agg is Verdict.UNKNOWN
                      else Verdict.FAIL)

    def law(self, law_id: str, anchor: str) -> LawResult:
        """The refusal as the gate's entry in a report."""
        return LawResult(law_id, anchor, self.verdict, note=str(self))


def sampled_law(law_id: str, anchor: str, gaps, inputs, tol: float,
                provenance: dict) -> LawResult:
    """A law checked on samples, from the gap and the inputs of each,
    judged by expr.worst_row: it fails at the largest gap above tol,
    reads unknown at the first NaN gap otherwise, and passes else.  The
    witness is the judged sample's inputs, flat; max_residual is the
    largest gap that is a number."""
    row, refuted, top = worst_row(gaps, tol)
    verdict = (Verdict.PASS_NUMERIC if row is None else
               Verdict.FAIL if refuted else Verdict.UNKNOWN)
    return LawResult(
        law_id, anchor, verdict, max_residual=top, provenance=provenance,
        witness=None if row is None else (np.hstack(inputs[row]).tolist(),),
        note="residual is not a number" if verdict is Verdict.UNKNOWN else "")


def law_from_verdict(law_id: str, anchor: str, v, *,
                     provenance=None) -> LawResult:
    """Translate an expr.EqVerdict v into a LawResult, with its witness."""
    verdict = {"equal": Verdict.PASS_EXACT, "numeric": Verdict.PASS_NUMERIC,
               "not-equal": Verdict.FAIL, "unknown": Verdict.UNKNOWN}[v.kind]
    return LawResult(
        law_id, anchor, verdict, witness=v.witness,
        max_residual=v.max_residual, provenance=provenance or {},
        note=v.reason if verdict is Verdict.UNKNOWN else "",
    )
