"""Element generation, sweep orchestration, and counterexample reporting.

Streams are fully deterministic: an identical GeneratorSpec (including the
seed) reproduces the identical element sequence, and sweep reports are
byte-identical apart from the wallTime field.  Counterexamples are data,
never exceptions; a correct build reports none.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import random
import time
from contextlib import ExitStack
from dataclasses import dataclass
from enum import Enum

from .classify import projection_verdicts
from .geninv import InverseBundle
from .matrix import MAX_DIMENSION, Matrix, dot_table, product_memo
from .starfield import GAUSSIAN, RATIONAL, FieldDescriptor, prime_field, quad_ext_field
from .theorems import (
    Kind,
    TheoremEntry,
    Verdict,
    check_left_right_duality,
    check_projection_sandwich,
    evaluate,
    registry,
    registry_map,
    target_holds,
)

REPORT_SCHEMA = "starring-report/1"

#: ceiling on fieldSize^(n^2) for exhaustive enumeration, on the sample count
#: of the other streams, and on the field size a constructed stream accepts
EXHAUSTIVE_BUDGET = 10**6

#: ceiling on ordered (e, a) pairs fed to the L3.1 duality check
PAIR_BUDGET = 10**4


class InvalidSpecError(ValueError):
    """The generator spec is not satisfiable."""


class BudgetExceededError(InvalidSpecError):
    """Exhaustive enumeration would exceed the configured budget."""


class UnknownEntryError(ValueError):
    """A requested theorem ID is not in the registry."""


class Mode(Enum):
    EXHAUSTIVE = "exhaustive"
    RANDOM = "random"
    CONSTRUCTED_SEP = "constructed-sep"
    CONSTRUCTED_EP = "constructed-ep"
    CONSTRUCTED_PI = "constructed-pi"


@dataclass(frozen=True)
class GeneratorSpec:
    mode: Mode
    field: FieldDescriptor
    dim: int
    sample_count: int = 0
    seed: int | None = None

    def validate(self):
        if not 1 <= self.dim <= MAX_DIMENSION:
            raise InvalidSpecError(f"dimension {self.dim} outside 1..{MAX_DIMENSION}")
        size = self.field.size()
        if self.mode is Mode.EXHAUSTIVE:
            if size is None:
                raise InvalidSpecError("exhaustive mode needs a finite field")
            if size ** (self.dim * self.dim) > EXHAUSTIVE_BUDGET:
                raise BudgetExceededError(
                    f"{size}^{self.dim * self.dim} exceeds the budget {EXHAUSTIVE_BUDGET}")
            return
        if self.seed is None:
            raise InvalidSpecError(f"{self.mode.value} mode needs a seed")
        if self.sample_count < 1:
            raise InvalidSpecError("sample count must be positive")
        if self.sample_count > EXHAUSTIVE_BUDGET:
            # a sweep holds its whole stream in memory
            raise BudgetExceededError(
                f"sample count {self.sample_count} exceeds the budget {EXHAUSTIVE_BUDGET}")
        if self.mode is not Mode.RANDOM and size is not None and size > EXHAUSTIVE_BUDGET:
            raise BudgetExceededError(
                f"{self.mode.value} mode takes fields within the budget of "
                f"{EXHAUSTIVE_BUDGET} elements, and {self.field.name} has {size}")
        if self.mode is Mode.CONSTRUCTED_EP and not self.field.has_non_unitary_scalar():
            raise InvalidSpecError(
                f"{self.field.name} has no invertible scalar of norm != 1; "
                "no strictly-EP diagonal core exists")
        if self.mode is Mode.CONSTRUCTED_PI and self.dim < 2:
            raise InvalidSpecError("shift patterns need dimension >= 2")

    def echo(self) -> dict:
        return {
            "mode": self.mode.value,
            "ring": self.field.kind.value,
            "p": self.field.p,
            "dim": self.dim,
            "sampleCount": self.sample_count,
            "seed": self.seed,
        }


_ROTATIONS = ((3, 4, 5), (5, 12, 13), (8, 15, 17))


def _random_unitary(field: FieldDescriptor, n: int, rng: random.Random,
                    units: list) -> Matrix:
    """A permutation scaled by draws from `units`; over Q and Q(i), the
    fields of unbounded size, often twisted by a rational rotation."""
    perm = list(range(n))
    rng.shuffle(perm)
    zero = field.zero()
    rows = [[zero] * n for _ in range(n)]
    for i, j in enumerate(perm):
        rows[i][j] = rng.choice(units)
    v = Matrix(field, rows)
    if field.size() is None and n >= 2 and rng.random() < 0.75:
        i, j = sorted(rng.sample(range(n), 2))
        a, b, c = _ROTATIONS[rng.randrange(len(_ROTATIONS))]
        rot_rows = [[field.one() if r == s else zero for s in range(n)]
                    for r in range(n)]
        rot_rows[i][i] = rot_rows[j][j] = field.rational(a, c)
        rot_rows[i][j] = field.rational(b, c)
        rot_rows[j][i] = field.rational(-b, c)
        v = Matrix(field, rot_rows) * v
    return v


# -- element streams -----------------------------------------------------------

def _constructed_core(spec: GeneratorSpec, rng: random.Random, units: list,
                      non_unitary: list) -> Matrix:
    """One constructed element, its scalars drawn from the stream's pools:
    `units` in every mode, `non_unitary` in EP mode only."""
    field, n = spec.field, spec.dim
    if spec.mode is Mode.CONSTRUCTED_PI:
        # nonzero strictly-upper shift pattern with unitary weights: always a
        # partial isometry, never group invertible (nonzero nilpotent)
        cells = [(i, j) for i in range(n) for j in range(i + 1, n)]
        rng.shuffle(cells)
        want = rng.randint(1, n - 1)
        zero = field.zero()
        rows = [[zero] * n for _ in range(n)]
        used_rows, used_cols = set(), set()
        for i, j in cells:
            if len(used_rows) == want:
                break
            if i in used_rows or j in used_cols:
                continue
            rows[i][j] = rng.choice(units)
            used_rows.add(i)
            used_cols.add(j)
        return Matrix(field, rows)

    if spec.mode is Mode.CONSTRUCTED_SEP:
        rank = rng.randint(0, n)
        diag = [rng.choice(units) for _ in range(rank)]
    else:
        rank = rng.randint(1, n)
        # first core entry breaks unitarity, so the element is never SEP
        diag = [rng.choice(non_unitary)]
        # the others are invertible: one draw of an index into non_unitary +
        # units, the rng call a choice from the joined list would make
        split = len(non_unitary)
        for _ in range(rank - 1):
            k = rng.choice(range(split + len(units)))
            diag.append(non_unitary[k] if k < split else units[k - split])
    diag += [spec.field.zero()] * (n - rank)
    core = Matrix.diagonal(field, diag)
    v = _random_unitary(field, n, rng, units)
    return v * core * v.star()


def generate(spec: GeneratorSpec):
    """The deterministic element stream described by the spec."""
    spec.validate()
    field, n = spec.field, spec.dim
    if spec.mode is Mode.EXHAUSTIVE:
        # lexicographic entry order, entry (0,0) the most significant digit;
        # every element shares the field's scalar objects
        for cells in itertools.product(field.elements(), repeat=n * n):
            yield Matrix(field, [cells[i * n:(i + 1) * n] for i in range(n)])
        return
    rng = random.Random(spec.seed)
    if spec.mode is Mode.RANDOM:
        for _ in range(spec.sample_count):
            yield Matrix(field, [[field.random_scalar(rng) for _ in range(n)]
                                 for _ in range(n)])
        return
    # Each scalar pool is built once per stream: over a finite field the
    # norm-1 group, generated, and the other units, served by index.
    units = field.unitary_scalars()
    non_unitary = field.non_unitary_scalars() if spec.mode is Mode.CONSTRUCTED_EP else []
    for _ in range(spec.sample_count):
        yield _constructed_core(spec, rng, units, non_unitary)


#: The verification battery: the named sweeps that scripts/run_verification.py
#: runs and the acceptance tests share.
BATTERY = {
    "exhaustive-f2-dim2": GeneratorSpec(Mode.EXHAUSTIVE, prime_field(2), 2),
    "exhaustive-f3-dim2": GeneratorSpec(Mode.EXHAUSTIVE, prime_field(3), 2),
    "exhaustive-f4-dim2": GeneratorSpec(Mode.EXHAUSTIVE, quad_ext_field(2), 2),
    "random-q-dim2": GeneratorSpec(Mode.RANDOM, RATIONAL, 2, 500, 101),
    "random-q-dim3": GeneratorSpec(Mode.RANDOM, RATIONAL, 3, 500, 102),
    "random-qi-dim2": GeneratorSpec(Mode.RANDOM, GAUSSIAN, 2, 500, 103),
    "random-qi-dim3": GeneratorSpec(Mode.RANDOM, GAUSSIAN, 3, 500, 104),
    "constructed-sep-qi-dim3": GeneratorSpec(Mode.CONSTRUCTED_SEP, GAUSSIAN, 3, 50, 301),
    "constructed-ep-qi-dim3": GeneratorSpec(Mode.CONSTRUCTED_EP, GAUSSIAN, 3, 50, 302),
    "constructed-pi-qi-dim3": GeneratorSpec(Mode.CONSTRUCTED_PI, GAUSSIAN, 3, 50, 303),
}


# -- sweeping --------------------------------------------------------------------

def resolve_entries(entry_ids) -> list[TheoremEntry]:
    """Map entry selectors to registry entries: a list of IDs, or the
    comma-separated text of `--entries`; 'all', or no ID, is every entry."""
    if isinstance(entry_ids, str):
        entry_ids = [s.strip() for s in entry_ids.split(",") if s.strip()]
    ids = list(entry_ids)
    if ids in ([], ["all"]):
        return registry()
    table = registry_map()
    out = []
    for i in ids:
        if i not in table:
            raise UnknownEntryError(f"unknown theorem entry {i!r}")
        out.append(table[i])
    return out


def _sort_key(record: dict) -> str:
    return json.dumps(record, sort_keys=True)


@dataclass
class VerificationReport:
    spec: GeneratorSpec
    entry_ids: list[str]
    totals: dict
    per_theorem: dict
    informational: dict
    lemmas: dict
    wall_time: float

    def counterexample_count(self) -> int:
        """Gated counterexamples plus lemma violations (informational entries
        never count)."""
        n = sum(len(t["counterexamples"]) for t in self.per_theorem.values())
        n += sum(len(l["violations"]) for l in self.lemmas.values())
        return n

    def to_dict(self) -> dict:
        spec_echo = self.spec.echo()
        spec_echo["entries"] = list(self.entry_ids)
        return {
            "schema": REPORT_SCHEMA,
            "spec": spec_echo,
            "totals": self.totals,
            "perTheorem": self.per_theorem,
            "informational": self.informational,
            "lemmas": self.lemmas,
            "wallTime": self.wall_time,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    def digest(self) -> str:
        """sha256 of to_json() without its wallTime line: two reports have
        the same digest exactly when they differ at most in wall time."""
        kept = "\n".join(ln for ln in self.to_json().splitlines()
                         if not ln.startswith('  "wallTime": '))
        return hashlib.sha256(kept.encode()).hexdigest()


def _l31_pairs(spec: GeneratorSpec, total: int):
    """Stream indices (i, j) of the ordered (e, a) pairs fed to L3.1, at most
    PAIR_BUDGET of them.  An exhaustive stream takes every pair, or strides
    deterministically across all total^2 of them when over budget; the other
    streams draw from a seeded generator, e before a."""
    npairs = total * total
    count = min(PAIR_BUDGET, npairs)
    if spec.mode is Mode.EXHAUSTIVE:
        return (divmod(k * npairs // count, total) for k in range(count))
    pair_rng = random.Random((spec.seed or 0) * 2654435761 + 97)
    return ((pair_rng.randrange(total), pair_rng.randrange(total))
            for _ in range(count))


#: report keys of an entry tally (agreeing, disagreeing), by entry.gated
_TALLY_KEYS = {True: ("consistent", "counterexamples"),
               False: ("agreeing", "mismatches")}


def sweep(spec: GeneratorSpec, entry_ids="all") -> VerificationReport:
    """Run every requested entry over the stream and collect the evidence.

    Elements outside R^# intersect R^+ are excluded from SEP-kind evaluation
    but still count toward membership totals, feed X3 when MP-invertible,
    and participate in both lemma checks.

    The stream is drawn once and held in memory as a list, which the
    projection table and the element loop read: about 0.2 KB per M_2 element
    over F_31 and 0.3 to 0.4 KB per M_3(F_3) or M_4(F_2) element, since an
    exhaustive stream's matrices share one raw value object per field
    element and keep no Scalar, so about 200 MB at the EXHAUSTIVE_BUDGET
    ceiling, M_2(F_31).

    The stream is walked once.  Each element's InverseBundle.compute,
    registry entries, derived elements, L2.8 checks and the L3.1 pairs
    whose e it is run inside one `product_memo()`, so every distinct
    product, difference, negation and adjoint they ask for is computed once
    for that element.  A pair of L3.1 adds nothing to the memo, so a pair
    drawn twice is decided again: without an entry table it reads e^2 from
    the memo, where the entries took it or it is taken once for all of e's
    partners, builds its difference as raw rows and reads its other
    products entry by entry; under one, it reads all four products and the
    difference from the table, in its own frame, by the row and column
    numbers that e and a keep.  A memo holds its results only until its
    element is done, and it is per thread.

    Before the loop, `projection_verdicts(stream)` tests each distinct
    stream value once for being a projection; the L2.8 projections are read
    from that table, and for the rest of the sweep every `is_projection` on
    a matrix equal to a stream value is a lookup in it.  Over an exhaustive
    stream that is every matrix the registry entries and L2.8 test, so the
    sweep makes one full projection test per ring element.  The table maps
    each distinct stream value to a bool, as the scan's deduplicating dict
    did; it is per thread, and dropped when the sweep returns or raises.

    When the stream, over F_q with n x n elements, holds at least q^(2n)
    elements, as every exhaustive stream with n >= 2 does, the projection
    table and the element loop run inside one `dot_table(field)`, which
    adopts the stream first: every matrix the sweep builds over the field
    is the stream's own object of its value (or the table's one object of a
    value outside the stream), so its hash and the numbers of its rows and
    columns are computed once for the whole sweep, and every product entry,
    row difference and row reduction is read from the table, each distinct
    one computed once: a product, and each side of a compared product, one
    pick per row of its left factor, in the frame that asks for it, by the
    numbers its factors keep.  Its planes have a slot for each of at most
    the sum of q^(2r) over r <= n pairs of rows, below 4/3 q^(2n) <= 4/3
    len(stream), for a dot and for a difference, 8 bytes each, so about
    15 MB at the M_2(F_31) ceiling.  Each matrix it numbers, about one per
    ring element, keeps about 0.25 KB of row and column numbers and a
    picker, and takes 40 bytes in the intern map (M_2(F_11): 14,892
    matrices; the table adds 3.9 MB of peak RSS to the sweep, 30.0 ->
    33.9 MB, where one keyed by pairs of raw rows added 8.0 MB), so about
    270 MB at M_2(F_31), extrapolated.  Its reductions are one per
    distinct matrix reduced: the nonzero ring elements and the r x r cores
    F* A G* and G F, at most the sum of q^(r^2) over r <= n, so about
    len(stream), at about 0.16 KB of peak RSS each and 0.25 KB counted
    object by object (M_2(F_11): 14,651 reductions), so up to about 230 MB
    more at M_2(F_31), extrapolated.  That is beside the stream's 200 MB.
    Over Q, Q(i), at n = 1 and for shorter streams there is no table,
    nothing is interned, and each element's memo keeps its own reductions.
    It is per thread, and dropped when the sweep returns or raises.

    Each bundle keeps its SEP and PI verdicts (`theorems.target_holds`), so
    the entries and the `sep` total test each class once per element.
    """
    spec.validate()
    entries = resolve_entries(entry_ids)
    t0 = time.perf_counter()

    sep_entries = [e for e in entries if e.kind is Kind.SEP]
    pi_entries = [e for e in entries if e.kind is Kind.PI]
    tallies = {}
    for e in entries:
        good, bad = _TALLY_KEYS[e.gated]
        tallies[e.id] = {"checked": 0, good: 0, bad: []}

    stream = list(generate(spec))
    totals = {"generated": len(stream), "mpInvertible": 0, "groupInvertible": 0,
              "bothInvertible": 0, "sep": 0}
    sandwich = {"checked": 0, "vacuous": 0, "violations": []}
    duality = {"checked": 0, "violations": []}

    def record(entry, bundle):
        case = evaluate(entry, bundle)
        good, bad = _TALLY_KEYS[entry.gated]
        t = tallies[entry.id]
        t["checked"] += 1
        if case.verdict is Verdict.CONSISTENT:
            t[good] += 1
        else:
            t[bad].append({
                "element": case.element.to_tokens(),
                "conditionHolds": case.condition_holds,
                "sepHolds": case.sep_holds,
            })

    partners = {}  # e's stream index -> the a indices it pairs with in L3.1
    for i, j in _l31_pairs(spec, len(stream)):
        partners.setdefault(i, []).append(j)

    # a stream with as many elements as there are pairs of rows reads each
    # pair many times
    size = spec.field.size()
    tabled = size is not None and size ** (2 * spec.dim) <= len(stream)
    with ExitStack() as blocks:
        table = blocks.enter_context(dot_table(spec.field)) if tabled else None
        if table is not None:
            # every matrix the sweep builds equal to a stream value is that value
            table.adopt(stream)
        verdicts = blocks.enter_context(projection_verdicts(stream))
        projections = [m for m, projection in verdicts.items() if projection]
        for i, m in enumerate(stream):
            with product_memo():
                bundle = InverseBundle.compute(m)
                if bundle.has_mp:
                    totals["mpInvertible"] += 1
                if bundle.has_group:
                    totals["groupInvertible"] += 1
                if bundle.has_mp and bundle.has_group:
                    totals["bothInvertible"] += 1
                    if target_holds(Kind.SEP, bundle):
                        totals["sep"] += 1
                    for entry in sep_entries:
                        record(entry, bundle)
                if bundle.has_mp:
                    for entry in pi_entries:
                        record(entry, bundle)
                    for x in projections:
                        verdict = check_projection_sandwich(bundle, x)
                        sandwich["checked"] += 1
                        if verdict is Verdict.VACUOUS:
                            sandwich["vacuous"] += 1
                        elif verdict is Verdict.COUNTEREXAMPLE:
                            sandwich["violations"].append(
                                {"a": m.to_tokens(), "x": x.to_tokens()})
                for j in partners.get(i, ()):
                    a = stream[j]
                    duality["checked"] += 1
                    if check_left_right_duality(m, a) is Verdict.COUNTEREXAMPLE:
                        duality["violations"].append({"e": m.to_tokens(), "a": a.to_tokens()})

    for entry in entries:
        tallies[entry.id][_TALLY_KEYS[entry.gated][1]].sort(key=_sort_key)
    for lemma in (sandwich, duality):
        lemma["violations"].sort(key=_sort_key)

    return VerificationReport(
        spec=spec,
        entry_ids=[e.id for e in entries],
        totals=totals,
        per_theorem={e.id: tallies[e.id] for e in entries if e.gated},
        informational={e.id: tallies[e.id] for e in entries if not e.gated},
        lemmas={"L3.1": duality, "L2.8": sandwich},
        wall_time=round(time.perf_counter() - t0, 6),
    )
