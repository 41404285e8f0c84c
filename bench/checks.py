"""Correctness checks on every operation the benchmark times.

A sweep report must have no counterexample and must be internally
consistent; on the default seed its digest (the JSON report without
`wallTime`) must match the one recorded in `digests.json`.  An `invert`
call must exit 0, echo its input, and return inverses that satisfy their
defining equations (re-checked with `verify_penrose` and `verify_group` on
the parsed output); an absent inverse must be absent by an independent rank
test.  On the default seed each call's stdout must match its digest.
"""

from __future__ import annotations

import hashlib
import json
import os

REPORT_SCHEMA = "starring-report/1"
DIGESTS_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "digests.json")


def load_digests() -> dict:
    with open(DIGESTS_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def report_digest(report_json: str) -> str:
    """sha256 of a report with `wallTime` removed, the only field allowed to vary."""
    doc = json.loads(report_json)
    doc.pop("wallTime", None)
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()


def stdout_digest(stdout: str) -> str:
    return hashlib.sha256(stdout.encode()).hexdigest()[:16]


def check_report(report_json: str, entry_ids, expected_elements: int,
                 expected_pairs: int, expected_digest: str | None) -> list[str]:
    """Problems with one sweep report; an empty list means it passed."""
    try:
        doc = json.loads(report_json)
        problems = []
        if doc["schema"] != REPORT_SCHEMA:
            problems.append(f"schema {doc['schema']!r}")
        totals, lemmas = doc["totals"], doc["lemmas"]
        per_theorem, info = doc["perTheorem"], doc["informational"]
        found = (sum(len(t["counterexamples"]) for t in per_theorem.values())
                 + sum(len(lemma["violations"]) for lemma in lemmas.values()))
        if found:
            problems.append(f"{found} counterexamples")
        if totals["generated"] != expected_elements:
            problems.append(f"{totals['generated']} elements, expected {expected_elements}")
        if sorted([*per_theorem, *info]) != sorted(entry_ids):
            problems.append("entry set differs from the registry")
        for tid, tally in per_theorem.items():
            target = totals["mpInvertible"] if tid == "X3" else totals["bothInvertible"]
            if tally["checked"] != target or tally["consistent"] != tally["checked"]:
                problems.append(f"{tid}: checked {tally['checked']}, consistent "
                                f"{tally['consistent']}, expected {target}")
        for tid, tally in info.items():
            if tally["checked"] != totals["bothInvertible"]:
                problems.append(f"{tid}: checked {tally['checked']}")
        if lemmas["L3.1"]["checked"] != expected_pairs:
            problems.append(f"L3.1 checked {lemmas['L3.1']['checked']} pairs, "
                            f"expected {expected_pairs}")
        if lemmas["L2.8"]["vacuous"] > lemmas["L2.8"]["checked"]:
            problems.append("L2.8 vacuous count exceeds checks")
    except (KeyError, TypeError, ValueError) as exc:
        return [f"malformed report: {exc!r}"]
    if expected_digest is not None and report_digest(report_json) != expected_digest:
        problems.append("report differs from the recorded digest")
    return problems


def _parse_tokens(prog, field, tokens):
    return prog.matrix.Matrix(field, [[field.parse(t) for t in row] for row in tokens])


def check_invert(prog, ring: str, n: int, text: str, stdout: str, exit_code: int,
                 expected_digest: str | None) -> list[str]:
    """Problems with one `invert --format json` call; empty means it passed."""
    if exit_code != 0:
        return [f"exit code {exit_code}"]
    try:
        doc = json.loads(stdout)
        field = prog.cli.parse_ring(ring)
        a = prog.matrix.parse_inline(field, text)
        problems = []
        if (doc["ring"], doc["p"], doc["dim"], doc["input"]) != (
                field.kind.value, field.p, n, a.to_tokens()):
            problems.append("input echo differs")
        a_star = a.star()
        rank = a.rank()
        # Independent existence tests: A^+ exists iff rank A*A = rank A = rank AA*,
        # A^# exists iff rank A^2 = rank A.
        mp_exists = (a_star * a).rank() == rank == (a * a_star).rank()
        group_exists = (a * a).rank() == rank
        for key, has_key, exists, verify in (
                ("mpInverse", "hasMpInverse", mp_exists, prog.geninv.verify_penrose),
                ("groupInverse", "hasGroupInverse", group_exists, prog.geninv.verify_group)):
            if doc[has_key] != exists or (doc[key] is None) == exists:
                shown = "none" if doc[key] is None else "a matrix"
                problems.append(f"{key}: {has_key} {doc[has_key]} with {shown} shown, "
                                f"but the rank test says exists={exists}")
            elif exists and not all(verify(a, _parse_tokens(prog, field, doc[key]))):
                problems.append(f"{key} fails its defining equations")
    except (KeyError, TypeError, ValueError) as exc:
        return [f"malformed output: {exc!r}"]
    if expected_digest is not None and stdout_digest(stdout) != expected_digest:
        problems.append("stdout differs from the recorded digest")
    return problems
