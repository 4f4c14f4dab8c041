"""Independent correctness check of one written `bglb verify` report.

Every benchmark instance is a balanced sphere, so the known answer for
every row is `pass`.  A row is counted as failed unless

- it passes, or is `skipped` for a declared scope limit (generic-draw
  dimension cap, multigraded vertex limit);
- for `hilbert`, its dims equal the h-vector followed by 0, where the
  h-vector comes from brute-force face counts over the instance's facets
  (bglb's own h_vector is not used);
- for `lefschetz`, it is marked injective and its ranks satisfy the
  injectivity criterion;
- for `gorenstein` and `cm`, every face (the empty face included) was
  checked.

A requested check missing from an instance block counts as one failed row,
and a report from a run that did not exit 0 counts every row as failed.
"""
from __future__ import annotations

import re
from dataclasses import dataclass, field
from itertools import combinations
from math import comb

SCOPE_LIMITS = (
    re.compile(r"graded dimension \d+ exceeds cap \d+"),
    re.compile(r"\d+ vertices exceed limit \d+"),
)


@dataclass
class Verdict:
    attempted: int = 0
    decided: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)

    def fail(self, msg: str) -> None:
        self.failed += 1
        if len(self.problems) < 20:
            self.problems.append(msg)


def all_faces(facets) -> set[tuple[int, ...]]:
    faces = set()
    for f in facets:
        f = tuple(sorted(f))
        for k in range(len(f) + 1):
            faces.update(combinations(f, k))
    return faces


def h_vector_brute(facets, d: int) -> list[int]:
    """h_k = sum_i (-1)^(k-i) C(d-i, k-i) f_{i-1}, f counted face by face."""
    f = [0] * (d + 1)
    for face in all_faces(facets):
        f[len(face)] += 1
    return [sum((-1) ** (k - i) * comb(d - i, k - i) * f[i] for i in range(k + 1))
            for k in range(d + 1)]


class InstanceFacts:
    """What the checker derives itself from an instance's facets."""

    def __init__(self, data: dict):
        self.facets = data["facets"]
        self.d = len(set(data["coloring"]))
        self.h = h_vector_brute(self.facets, self.d)
        self.faces = len(all_faces(self.facets))


def _row_problem(row: dict, facts: InstanceFacts) -> str | None:
    status = row["status"]
    if status == "skipped":
        reason = (row.get("details") or {}).get("reason", "")
        if any(p.fullmatch(reason) for p in SCOPE_LIMITS):
            return None
        return "skipped without a scope-limit reason: %r" % reason
    if status != "pass":
        return "status %s, witness %r" % (status, row.get("witness"))
    details = row.get("details") or {}
    check = row["check"]
    if check == "hilbert":
        want = facts.h + [0]
        if details.get("dims") != want:
            return "dims %r, brute-force h-vector gives %r" % (details.get("dims"), want)
    elif check == "lefschetz":
        ranks = details.get("ranks")
        if details.get("injective") is not True or not ranks or len(ranks) != 4:
            return "not certified injective: %r" % details
        r_low, r_high, r_aug, dim_low = ranks
        if r_aug - r_high != dim_low - r_low:
            return "ranks %r do not certify injectivity" % ranks
    elif check in ("gorenstein", "cm"):
        if details.get("faces_checked") != facts.faces:
            return "checked %r faces of %d" % (details.get("faces_checked"), facts.faces)
    return None


def check_report(report: dict | None, exit_code: int | None, instances: dict[str, dict],
                 checks: list[str], rows_if_lost: int) -> Verdict:
    """Count rows attempted, decided and failed against the known answer.

    `instances` maps instance name to its JSON form (facets, coloring);
    `rows_if_lost` is charged as failed when there is no report to read."""
    v = Verdict()
    if report is None:
        v.attempted = rows_if_lost
        v.failed = rows_if_lost
        v.problems.append("no report written (exit code %r)" % exit_code)
        return v
    blocks = {b["instance"]: b for b in report.get("reports", [])}
    for name in sorted(set(instances) - set(blocks)):
        v.attempted += 1
        v.fail("%s: instance missing from the report" % name)
    for name, block in blocks.items():
        if name not in instances:
            v.attempted += 1
            v.fail("%s: instance was not asked for" % name)
            continue
        facts = InstanceFacts(instances[name])
        seen = set()
        for row in block["checks"]:
            v.attempted += 1
            seen.add(row["check"])
            if row["status"] in ("pass", "fail"):
                v.decided += 1
            problem = _row_problem(row, facts)
            if problem is not None:
                v.fail("%s %s %r: %s" % (name, row["check"], row.get("params"), problem))
        for check in checks:
            if check not in seen:
                v.attempted += 1
                v.fail("%s: no %s row" % (name, check))
    if exit_code != 0:
        v.problems.append("exit code %r" % exit_code)
        v.failed = v.attempted
    return v
