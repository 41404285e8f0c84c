"""The benchmark's workloads: inputs made from the seed, and one unit of work.

Users of starring either sweep the registry over a stream to get a verdict,
or invert and classify single matrices.  The workloads cover both and stress
different layers:

* ``sweep-f4-exhaustive`` sweeps all 256 elements of M_2(F_4) with every
  entry: 187 elements with both inverses, 25 strongly EP, 10,000 L3.1 pairs
  and 739 non-vacuous L2.8 checks.  There is no Fraction arithmetic, so the
  scalar wrapper, `Matrix.__mul__`, the three-pass stream and L2.8 dominate.
  The exhaustive stream has no seed: every seed gives the same inputs.
* ``sweep-qi-random`` sweeps seeded random streams of 20 M_3(Q(i))
  elements with every entry (400 L3.1 pairs), cycling through 8 streams
  drawn from the seed.  Gaussian-rational Fraction growth, the derived
  elements and the registry entries dominate; the streams have no
  strongly-EP element and no projection, so L2.8 is bypassed.
* ``invert-mixed`` runs ``starring invert --format json`` in-process on a
  seeded batch of 240 inline matrices: 20 for each ring q, qi, f5, f32 and
  dimension 2, 3, 6.  Parsing, elimination, `InverseBundle.compute` and token
  output, with no registry, lemma or sweep.  It is the only workload at
  n = 6, and the one on which registry and lemma work should change nothing.

A unit is one sweep (with its JSON report) or one pass over the batch.
`run_unit` times each operation with the clock it is given.
"""

from __future__ import annotations

import contextlib
import io
import random

QI_COUNT = 20
QI_STREAMS = 8
INVERT_RINGS = ("q", "qi", "f5", "f32")
INVERT_DIMS = (2, 3, 6)
INVERT_PER_CELL = 20


class OpResult:
    """One timed operation and what the checker needs to judge it.

    `op_index` names the input: the stream of a sweep, or the position of
    an invert call in the batch.
    """

    __slots__ = ("seconds", "output", "exit_code", "error", "op_index")

    def __init__(self, seconds, output, exit_code=0, error=None, op_index=0):
        self.seconds = seconds
        self.output = output
        self.exit_code = exit_code
        self.error = error
        self.op_index = op_index


class SweepWorkload:
    """One operation is `sweep(spec, "all")` followed by `to_json()`.

    A run cycles through the workload's streams, one per unit; the stream
    index is recorded so that the checker can compare repeats.
    """

    op_name = "sweep"

    def __init__(self, name: str, make_specs, seeded: bool, expected_elements: int,
                 expected_pairs: int):
        self.name = name
        self._make_specs = make_specs
        self.seeded = seeded
        self.expected_elements = expected_elements
        self.expected_pairs = expected_pairs

    def inputs(self, seed: int):
        return seed

    def set_up(self, pkg, seed):
        """Spec construction, validation and entry resolution."""
        specs = self._make_specs(pkg, seed)
        for spec in specs:
            spec.validate()
        pkg.harness.resolve_entries("all")
        return specs

    def run_unit(self, pkg, specs, clock, k: int) -> list[OpResult]:
        stream = k % len(specs)
        t0 = clock()
        try:
            report = pkg.harness.sweep(specs[stream], "all")
            output = (report, report.to_json())
        except Exception as exc:  # a failed operation is data, not the end of the run
            return [OpResult(clock() - t0, None, error=repr(exc), op_index=stream)]
        return [OpResult(clock() - t0, output, op_index=stream)]

    def elements(self, result: OpResult) -> int:
        return result.output[0].totals["generated"] if result.output else 0


def _f4_specs(pkg, seed):
    field = pkg.starfield.quad_ext_field(2)
    return [pkg.harness.GeneratorSpec(pkg.harness.Mode.EXHAUSTIVE, field, 2)]


def _qi_specs(pkg, seed):
    # Several streams per seed, so that a run's figure does not hinge on the
    # Fraction growth of one 20-element draw.
    rng = random.Random(seed)
    return [pkg.harness.GeneratorSpec(pkg.harness.Mode.RANDOM, pkg.starfield.GAUSSIAN, 3,
                                      sample_count=QI_COUNT, seed=rng.randrange(2**32))
            for _ in range(QI_STREAMS)]


def _rational(rng):
    num, den = rng.randint(-3, 3), rng.randint(1, 3)
    return f"{num}/{den}"


def _token(ring: str, rng: random.Random) -> str:
    if ring == "q":
        return _rational(rng)
    if ring == "qi":
        re_part, im_part = _rational(rng), _rational(rng)
        sign = "" if im_part.startswith("-") else "+"
        return f"{re_part}{sign}{im_part}i"
    if ring == "f5":
        return str(rng.randrange(5))
    return f"{rng.randrange(3)}+{rng.randrange(3)}w"


def invert_inputs(seed: int) -> list[tuple[str, int, str]]:
    """(ring, n, inline matrix) for the batch, in the seeded run order.

    Each (ring, n) cell holds five matrices of each shape: dense, sparse
    (half the entries drawn, the rest zero), and either of those with one
    row repeated.  Fixing the shapes keeps the batch's cost from swinging
    with the seed; the drawn entries, and so the ranks and, over the finite
    fields, the existence of the inverses, still vary.
    """
    rng = random.Random(seed)
    ops = []
    for ring in INVERT_RINGS:
        for n in INVERT_DIMS:
            for i in range(INVERT_PER_CELL):
                cells = n * n
                drawn = set(rng.sample(range(cells), cells // 2)) if i % 2 else range(cells)
                flat = [_token(ring, rng) if c in drawn else "0" for c in range(cells)]
                rows = [flat[r * n:(r + 1) * n] for r in range(n)]
                if i % 4 >= 2:
                    src, dst = rng.sample(range(n), 2)
                    rows[dst] = list(rows[src])
                ops.append((ring, n, "; ".join(" ".join(r) for r in rows)))
    rng.shuffle(ops)
    return ops


class InvertWorkload:
    """One operation is one `starring invert ... --format json` call."""

    name = "invert-mixed"
    op_name = "invert call"

    def inputs(self, seed: int):
        return invert_inputs(seed)

    def set_up(self, pkg, ops):
        """Argument parser and ring resolution, as `main` needs them."""
        pkg.cli.build_parser()
        for ring in INVERT_RINGS:
            pkg.cli.parse_ring(ring)
        return ops

    def run_unit(self, pkg, ops, clock, k: int) -> list[OpResult]:
        main = pkg.cli.main
        results = []
        for i, (ring, _, text) in enumerate(ops):
            buf = io.StringIO()
            t0 = clock()
            try:
                with contextlib.redirect_stdout(buf):
                    code = main(["invert", "--matrix", text, "--ring", ring,
                                 "--format", "json"])
            except Exception as exc:  # a failed operation is data, not the end of the run
                results.append(OpResult(clock() - t0, None, error=repr(exc), op_index=i))
                continue
            results.append(OpResult(clock() - t0, buf.getvalue(), code, op_index=i))
        return results

    def elements(self, result: OpResult) -> int:
        return 1


WORKLOADS = {
    "sweep-f4-exhaustive": SweepWorkload("sweep-f4-exhaustive", _f4_specs, seeded=False,
                                         expected_elements=256, expected_pairs=10_000),
    "sweep-qi-random": SweepWorkload("sweep-qi-random", _qi_specs, seeded=True,
                                     expected_elements=QI_COUNT,
                                     expected_pairs=QI_COUNT * QI_COUNT),
    "invert-mixed": InvertWorkload(),
}
