"""Command-line front end.

Subcommands: invert, classify, verify, enumerate, theorems.  Exit codes are
stable: 0 clean, 1 a verification sweep found counterexamples, 2 usage or
parse errors, 3 an internal error (any other exception, reported on stderr
with its traceback and an `error:` line; never 1, so a crash cannot pass
for a counterexample).  All output uses the same scalar grammar the parsers
accept, so printed matrices can be fed straight back in.

`verify` holds its whole element stream in memory and walks it once, with
one product memo per element: about 0.2 KB per M_2 element and 0.3 to
0.4 KB per M_3 or M_4 element, so about 200 MB for the largest exhaustive
stream the budget admits, M_2(F_31); a `--count` above the same budget of
10^6 exits 2.  The named sweeps of the verification battery are
`starring.harness.BATTERY`.
"""

from __future__ import annotations

import argparse
import json
import re
import sys

from .classify import classify
from .geninv import InverseBundle
from .harness import (
    GeneratorSpec,
    InvalidSpecError,
    Mode,
    UnknownEntryError,
    generate,
    sweep,
)
from .matrix import Matrix, MatrixParseError, parse_inline, parse_matrix
from .starfield import RingParseError, ScalarParseError, parse_ring
from .theorems import LEMMA_STATEMENTS, registry


class UsageError(ValueError):
    pass


def _decode(data: bytes, source: str) -> str:
    try:
        return data.decode("utf-8-sig")  # a leading byte-order mark is dropped
    except UnicodeDecodeError as exc:
        at = exc.start + len(data) - len(exc.object)  # exc.object lacks the mark
        raise MatrixParseError(f"{source} is not UTF-8 text: byte "
                               f"0x{data[at]:02x} at offset {at}") from None


def _read_matrix(args) -> Matrix:
    if args.infile:
        if args.infile == "-":
            text = _decode(sys.stdin.buffer.read(), "stdin")
        else:
            with open(args.infile, "rb") as fh:
                text = _decode(fh.read(), args.infile)
        return parse_matrix(text)
    if args.matrix:
        if not args.ring:
            raise UsageError("inline --matrix needs --ring")
        return parse_inline(parse_ring(args.ring), args.matrix)
    raise UsageError("need --in FILE or --matrix 'a b; c d'")


def _emit(text: str, out_path):
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text if text.endswith("\n") else text + "\n")
    else:
        print(text)


def _matrix_block(m: Matrix | None) -> str:
    return m.to_text() if m is not None else "does not exist"


def cmd_invert(args) -> int:
    a = _read_matrix(args)
    bundle = InverseBundle.compute(a)
    if args.format == "json":
        payload = {
            "ring": a.field.kind.value,
            "p": a.field.p,
            "dim": a.n,
            "input": a.to_tokens(),
            "mpInverse": bundle.mp.to_tokens() if bundle.has_mp else None,
            "groupInverse": bundle.group.to_tokens() if bundle.has_group else None,
            "hasMpInverse": bundle.has_mp,
            "hasGroupInverse": bundle.has_group,
        }
        _emit(json.dumps(payload, indent=2, sort_keys=True), args.out)
    else:
        parts = [
            "input:", a.to_text(), "",
            "mp_inverse:", _matrix_block(bundle.mp), "",
            "group_inverse:", _matrix_block(bundle.group),
        ]
        _emit("\n".join(parts), args.out)
    return 0


def cmd_classify(args) -> int:
    a = _read_matrix(args)
    c = classify(InverseBundle.compute(a))
    fields = [
        ("projection", c.is_projection),
        ("ep", c.is_ep),
        ("pi", c.is_pi),
        ("sep", c.is_sep),
        ("mp_invertible", c.mp_invertible),
        ("group_invertible", c.group_invertible),
    ]
    if args.format == "json":
        _emit(json.dumps(dict(fields), indent=2, sort_keys=True), args.out)
    else:
        _emit("\n".join(f"{k}: {str(v).lower()}" for k, v in fields), args.out)
    return 0


def _build_spec(args) -> GeneratorSpec:
    if not args.ring:
        raise UsageError("--ring is required")
    if args.dim is None:
        raise UsageError("--dim is required")
    field = parse_ring(args.ring)
    if args.exhaustive:
        return GeneratorSpec(Mode.EXHAUSTIVE, field, args.dim)
    if args.random:
        mode = Mode.RANDOM
    else:
        mode = {
            "sep": Mode.CONSTRUCTED_SEP,
            "ep": Mode.CONSTRUCTED_EP,
            "pi": Mode.CONSTRUCTED_PI,
        }[args.constructed]
    return GeneratorSpec(mode, field, args.dim,
                         sample_count=args.count, seed=args.seed)


def _verify_text(report) -> str:
    lines = [f"ring {report.spec.field.name} dim {report.spec.dim} "
             f"mode {report.spec.mode.value}"]
    t = report.totals
    lines.append(
        f"elements {t['generated']} | mp {t['mpInvertible']} "
        f"| group {t['groupInvertible']} | both {t['bothInvertible']} "
        f"| sep {t['sep']}")
    for tid in sorted(report.per_theorem):
        tt = report.per_theorem[tid]
        lines.append(f"{tid:<7} checked {tt['checked']:<6} "
                     f"consistent {tt['consistent']:<6} "
                     f"counterexamples {len(tt['counterexamples'])}")
    for tid in sorted(report.informational):
        tt = report.informational[tid]
        lines.append(f"{tid:<7} checked {tt['checked']:<6} "
                     f"agreeing {tt['agreeing']:<6} (informational)")
    for lid in sorted(report.lemmas):
        lt = report.lemmas[lid]
        extra = f" vacuous {lt['vacuous']:<6}" if "vacuous" in lt else ""
        lines.append(f"{lid:<7} checked {lt['checked']:<6}{extra} "
                     f"violations {len(lt['violations'])}")
    l28 = report.lemmas["L2.8"]
    nonvacuous = l28["checked"] - l28["vacuous"]
    lines.append(f"evidence: sep elements {t['sep']} | L2.8 non-vacuous {nonvacuous} "
                 f"of {l28['checked']} | L3.1 pairs {report.lemmas['L3.1']['checked']}")
    if t["sep"] == 0:
        lines.append("warning: no strongly-EP element in the stream: no entry was "
                     "checked in the direction sep => condition")
    if nonvacuous == 0:
        lines.append(f"warning: L2.8 gathered zero evidence ({l28['checked']} checks, "
                     "none non-vacuous)")
    n = report.counterexample_count()
    lines.append("counterexamples: none" if n == 0 else f"counterexamples: {n}")
    lines.append(f"wall time: {report.wall_time}s")
    return "\n".join(lines)


def cmd_verify(args) -> int:
    spec = _build_spec(args)
    report = sweep(spec, args.entries)
    if args.format == "json":
        _emit(report.to_json(), args.out)
    else:
        _emit(_verify_text(report), args.out)
    return 0 if report.counterexample_count() == 0 else 1


def cmd_enumerate(args) -> int:
    spec = _build_spec(args)
    elements = list(generate(spec))
    if args.format == "json":
        payload = {
            "spec": spec.echo(),
            "elements": [m.to_tokens() for m in elements],
        }
        _emit(json.dumps(payload, indent=2, sort_keys=True), args.out)
    else:
        _emit("\n\n".join(m.to_text() for m in elements), args.out)
    return 0


def cmd_theorems(args) -> int:
    entries = registry()
    if args.section:
        entries = [e for e in entries if e.section == args.section]
    if args.format == "json":
        payload = {
            "entries": [
                {"id": e.id, "kind": e.kind.value, "gated": e.gated,
                 "statement": e.statement}
                for e in entries
            ],
            "lemmas": [{"id": lid, "statement": s}
                       for lid, s in sorted(LEMMA_STATEMENTS.items())],
        }
        _emit(json.dumps(payload, indent=2, sort_keys=True), args.out)
        return 0
    width = max(len(e.id) for e in entries) if entries else 4
    lines = [f"{e.id:<{width}}  {e.statement}" for e in entries]
    if not args.section:
        lines += [f"{lid:<{width}}  {stmt}"
                  for lid, stmt in sorted(LEMMA_STATEMENTS.items())]
    _emit("\n".join(lines), args.out)
    return 0


def _add_io_flags(p):
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.add_argument("--out", metavar="PATH", help="write output to a file")


def _add_matrix_flags(p):
    p.add_argument("--in", dest="infile", metavar="PATH",
                   help="matrix file in the text format ('-' for stdin)")
    p.add_argument("--matrix", metavar="ROWS",
                   help="inline matrix, semicolon-separated rows")
    p.add_argument("--ring", metavar="RING",
                   help="q | qi | f<p> | f<p>2 (needed with --matrix)")


def _decimal(pattern: str):
    """An argparse type: the int of a value that fully matches pattern, whose
    digits are ASCII [0-9] (int() would also take other scripts' digits,
    underscores and surrounding spaces)."""
    form = re.compile(pattern)

    def parse(text: str) -> int:
        if form.fullmatch(text) is None:
            raise argparse.ArgumentTypeError(f"{text!r} is not a decimal number")
        return int(text)
    return parse


def _add_generator_flags(p):
    p.add_argument("--ring", metavar="RING", help="q | qi | f<p> | f<p>2")
    p.add_argument("--dim", type=_decimal("[0-9]+"), metavar="N")
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--exhaustive", action="store_true")
    mode.add_argument("--random", action="store_true")
    mode.add_argument("--constructed", choices=["sep", "ep", "pi"])
    p.add_argument("--seed", type=_decimal("-?[0-9]+"), metavar="S")
    p.add_argument("--count", type=_decimal("[0-9]+"), default=0, metavar="K")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="starring",
        description="Exact generalized inverses and strongly-EP verification "
                    "in matrix *-rings.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("invert", help="print the MP and group inverse")
    _add_matrix_flags(p)
    _add_io_flags(p)
    p.set_defaults(func=cmd_invert)

    p = sub.add_parser("classify", help="projection/EP/PI/SEP membership")
    _add_matrix_flags(p)
    _add_io_flags(p)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("verify", help="sweep theorem entries over a stream")
    _add_generator_flags(p)
    p.add_argument("--entries", default="all",
                   help="comma-separated entry IDs, or 'all'")
    _add_io_flags(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("enumerate", help="print the generated element stream")
    _add_generator_flags(p)
    _add_io_flags(p)
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("theorems", help="list the theorem registry")
    p.add_argument("--section", choices=["2", "3", "4", "5", "x"])
    _add_io_flags(p)
    p.set_defaults(func=cmd_theorems)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (UsageError, MatrixParseError, ScalarParseError, RingParseError,
            InvalidSpecError, UnknownEntryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        import traceback  # imported here: only a crash needs it, and it is slow to load
        traceback.print_exc()
        print(f"error: internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
