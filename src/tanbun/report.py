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

__all__ = ["Verdict", "LawResult", "CheckReport", "law_from_verdict",
           "universality_refusal"]


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

    def extend(self, other: "CheckReport") -> None:
        for e in other.entries:
            self.add(e)

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


def universality_refusal(universality, rerun=None):
    """None when a universality verdict (a PullbackVerdict, a CheckReport
    or a bare Verdict) passes, else its value, for a refusal message.

    universality=None means rerun() when rerun is given, and a pass
    otherwise.  induce_addition and induce_negation let None through;
    splitting_pair and phi rerun the rosicky square, biproduct_check the
    strong square."""
    if universality is None:
        if rerun is None:
            return None
        universality = rerun()
    agg = getattr(universality, "aggregate", universality)
    return None if getattr(agg, "ok", False) else getattr(agg, "value", agg)


def law_from_verdict(law_id: str, anchor: str, verdict_kind, *, exact_ok=True,
                     provenance=None) -> LawResult:
    """Translate an expr.EqVerdict into a LawResult."""
    v = verdict_kind
    if v.is_exact:
        verdict = Verdict.PASS_EXACT if exact_ok else Verdict.PASS_NUMERIC
        return LawResult(law_id, anchor, verdict, provenance=provenance or {})
    if v.kind == "not-equal":
        return LawResult(
            law_id, anchor, Verdict.FAIL, witness=v.witness,
            max_residual=v.max_residual, provenance=provenance or {},
        )
    if v.is_numeric_pass:
        return LawResult(
            law_id, anchor, Verdict.PASS_NUMERIC,
            max_residual=v.max_residual, provenance=provenance or {},
        )
    return LawResult(
        law_id, anchor, Verdict.UNKNOWN, max_residual=v.max_residual,
        note=v.reason, provenance=provenance or {},
    )
