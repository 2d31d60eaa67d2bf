"""Command-line front end.

Exit codes: 0 all good, 1 a verification failed, 2 usage error, 3 an
input/output problem.

``main`` may be called many times in one process: the parser is built on
the first call, not at import, and reused by every later call.  Parsing
keeps no state between calls, so each call sees only its own argv.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import Counter
from collections.abc import Iterator
from functools import cache
from itertools import chain, islice

from . import identities, maps, oeis, poly, unitriangular
from .action import acting_family, orbit_representative, plus_involution
from .core import (
    LabeledSetPartition,
    StructuralError,
    UnsupportedGroundError,
    partition_from_json,
    render_ascii,
)
from .cyclotomic import is_prime
from .families import ALL_FAMILIES, FamilySpec, enumerate_family, enumerate_jsonl
from .groups import GroupError, parse_group
from .poly import FAMILY_NAMES

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_IO = 3


# The largest n `poly` prints.  A bivariate closed form has about n^2/2
# coefficients of up to about n log n digits: Bell(600) prints 109 MB of JSON.
MAX_POLY_N = 600


class UsageError(ValueError):
    pass


def _common_flags(parser, formats=()):
    """--seed, and --format limited to the formats the subcommand emits."""
    if formats:
        parser.add_argument("--format", default="table", choices=formats, help="output format")
    parser.add_argument("--seed", type=int, default=0, help="accepted; no command reads it")


def _command(sub, name, fn, help):
    """A subcommand's parser: it runs fn and reports fn's usage errors."""
    parser = sub.add_parser(name, help=help)
    parser.set_defaults(fn=fn, parser=parser)
    return parser


def _family_spec(args) -> FamilySpec:
    group, group_a, group_b = (getattr(args, k, None) for k in ("group", "groupA", "groupB"))
    if group and (group_a or group_b):
        raise UsageError("pass --group or --groupA/--groupB, not both")
    if group_b and not group_a:
        raise UsageError("--groupB needs --groupA")
    groups = [parse_group(g) for g in (group, group_a, group_b) if g]
    try:
        return FamilySpec(args.family, args.n, tuple(groups))
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def _write_json(value) -> None:
    """print(json.dumps(value)), byte for byte, where value may hold
    iterators (generators, maps) in place of lists: a dict is written field
    by field and an iterator a few items at a time, so the document is
    never held whole."""
    write = sys.stdout.write
    _emit_json(value, write)
    write("\n")


def _emit_json(value, write) -> None:
    if isinstance(value, dict):
        write("{")
        for i, (key, field) in enumerate(value.items()):
            # json.dumps writes a key that is not a string as a string
            # ("1", "true", "null"): let it write each key
            write(f"{', ' if i else ''}{json.dumps({key: 0})[1:-4]}: ")
            _emit_json(field, write)
        write("}")
    elif isinstance(value, Iterator):
        # a few items per json.dumps call: one call per small item costs
        # more than the item
        write("[")
        sep = ""
        while batch := list(islice(value, 64)):
            write(sep + json.dumps(batch)[1:-1])
            sep = ", "
        write("]")
    else:
        write(json.dumps(value))


def _write_lines(lines) -> None:
    """print() each of an iterator of lines, byte for byte, a few hundred
    lines per write: one write per line costs more than a short line."""
    write = sys.stdout.write
    while batch := list(islice(lines, 256)):
        batch.append("")
        write("\n".join(batch))


def _csv_row(p) -> str:
    blocks = "".join("{" + ",".join(map(str, b)) + "}" for b in p.blocks)
    labels = ";".join(f"({i},{j})={'/'.join(map(str, v))}" for i, j, v in p.labels)
    return f"{blocks},{labels}"


def cmd_enum(args) -> int:
    spec = _family_spec(args)
    if args.format == "jsonl":
        # each line is written from its shape's plan: no partition is built
        _write_lines(enumerate_jsonl(spec))
    elif args.format == "json":
        _write_json(p.to_json_dict() for p in enumerate_family(spec))
    elif args.format == "csv":
        _write_lines(chain(["blocks,labels"], map(_csv_row, enumerate_family(spec))))
    else:
        _write_lines(map(LabeledSetPartition.text, enumerate_family(spec)))
    return EXIT_OK


def cmd_orbits(args) -> int:
    spec = _family_spec(args)
    try:
        acting_family(spec)  # refuses the families no linear family acts on
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    # representative -> orbit size, in the order the family first reaches
    # each orbit; only the representatives are held
    orbits = Counter(orbit_representative(lam) for lam in enumerate_family(spec))
    histogram = dict(sorted(Counter(orbits.values()).items()))
    if args.format == "json":
        _write_json(
            {
                "family": spec.family,
                "n": spec.n,
                "orbits": len(orbits),
                "size_histogram": histogram,
                "representatives": (rep.to_json_dict() for rep in orbits),
            }
        )
    else:
        print(f"orbits: {len(orbits)}")
        print(f"size histogram: {histogram}")
        for rep, size in orbits.items():
            print(f"  size {size:4d}  rep {rep.text()}")
    return EXIT_OK


def cmd_poly(args) -> int:
    if args.family not in FAMILY_NAMES:
        raise UsageError(f"unknown polynomial family {args.family!r}")
    if args.n < 0:
        raise UsageError(f"--n must be at least 0, got {args.n}")
    if args.n > MAX_POLY_N:
        raise unitriangular.ScaleGuardError(
            f"{args.family}({args.n}) refused: n exceeds the poly bound {MAX_POLY_N}"
        )
    value = poly.family(args.family, args.n)
    if args.format == "latex":
        print(value.latex())
    elif args.format == "json":
        coefficients = sorted(value.coeffs.items())
        items = ({"x": dx, "y": dy, "value": c} for (dx, dy), c in coefficients)
        _write_json({"family": args.family, "n": args.n, "coefficients": items})
    else:
        print(value)
    return EXIT_OK


MAP_OPS = {
    "uncross": maps.uncross,
    "uncross_B": maps.uncross_b,
    "shift": maps.shift,
    "unshift": maps.unshift,
    "halve": maps.halve,
    "involution": plus_involution,
}


def cmd_map(args) -> int:
    if args.op not in MAP_OPS:
        raise UsageError(f"unknown map {args.op!r}; choose from {sorted(MAP_OPS)}")
    print(MAP_OPS[args.op](_read_partition(args.input)).to_json())
    return EXIT_OK


def cmd_render(args) -> int:
    print(render_ascii(_read_partition(args.input)))
    return EXIT_OK


def _read_partition(path: str):
    """The partition in a JSON file, or on stdin for "-": exit 3 if it cannot
    be read, a usage error if it is not UTF-8 text holding a valid partition."""
    try:
        if path == "-":
            text = sys.stdin.read()
        else:
            with open(path, "r", encoding="utf-8") as handle:
                text = handle.read()
        return partition_from_json(text)
    except OSError as exc:
        print(f"arcact: {exc}", file=sys.stderr)
        raise SystemExit(EXIT_IO)
    except ValueError as exc:  # UnicodeDecodeError and JSONDecodeError included
        raise UsageError(f"bad partition input: {exc}") from exc


def cmd_verify(args) -> int:
    # argparse admits exactly one of --all and --id
    if args.id:
        unknown = set(args.id) - set(identities.registry_ids())
        if unknown:
            raise UsageError(f"unknown check ids: {sorted(unknown)}")
    report = identities.run_all(profile=args.profile, ids=args.id)
    if args.format == "json":
        print(json.dumps(report.to_json_dict()))
    else:
        for r in report.results:
            line = f"{r.id:28s} {r.mode:12s} {r.status:4s} {r.millis:7d}ms"
            if r.witness:
                line += f"  witness: {r.witness}"
            print(line)
        print(f"{'ALL PASS' if report.ok else 'FAILURES PRESENT'}")
    return EXIT_OK if report.ok else EXIT_CHECK_FAILED


def cmd_chartable(args) -> int:
    if args.n < 0:
        raise UsageError(f"--n must be at least 0, got {args.n}")
    if args.p < 2:
        raise UsageError(f"--p must be a prime, got {args.p}")
    # before the primality test, whose trial division grows with p
    unitriangular.check_table_size(args.kind, args.n, args.p)
    if not is_prime(args.p):
        raise UsageError(f"--p must be a prime, got {args.p}")
    if args.p == 2 and args.kind != "A":
        raise UsageError(f"kind {args.kind} needs an odd prime --p")
    table = unitriangular.build_chartable(args.kind, args.n, args.p)
    norms = table.norms()
    degrees = table.degrees()
    if args.format == "json":
        # each distinct code is formatted once
        text = {c: str(unitriangular.decode(args.p, c)) for c in set().union(*table.values)}
        rows = (
            {
                "index": lam.to_json_dict(),
                "degree": degree,
                "norm": str(norm),
                "values": [text[code] for code in values],
            }
            for lam, values, norm, degree in zip(table.indices, table.values, norms, degrees)
        )
        _write_json(
            {
                "kind": args.kind,
                "n": args.n,
                "p": args.p,
                "group_order": table.group_order,
                "classes": (c.to_json_dict() for c in table.classes),
                "class_sizes": list(table.class_sizes),
                "characters": rows,
            }
        )
    else:
        print(f"group order {table.group_order}, {len(table.classes)} superclasses")
        for lam, norm, degree in zip(table.indices, norms, degrees):
            print(f"  deg {degree:6d}  norm {str(norm):6s}  {lam.text()}")
    return EXIT_OK


def cmd_oeis_check(args) -> int:
    if args.name not in FAMILY_NAMES:
        raise UsageError(f"unknown polynomial family {args.name!r}")
    if args.n_max < 0:
        raise UsageError(f"--n-max must be at least 0, got {args.n_max}")
    try:
        report = oeis.oeis_check(args.name, args.id, args.offset, args.n_max, args.bfile)
    except (oeis.OeisIOError, ValueError) as exc:  # BFileError is a ValueError
        print(f"arcact: {exc}", file=sys.stderr)
        return EXIT_IO
    if args.format == "json":
        print(json.dumps(report))
    else:
        status = "ok" if report["ok"] else "MISMATCH" if report["mismatches"] else "INCOMPLETE"
        print(
            f"{report['sequence']} vs {report['oeis_id']} (offset {report['offset']}):"
            f" {report['checked']} of {args.n_max + 1} terms checked, {status}"
        )
        for m in report["mismatches"]:
            print(f"  n={m['n']}: computed {m['computed']} != b-file {m['bfile']}")
    return EXIT_OK if report["ok"] else EXIT_CHECK_FAILED


@cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of the process, built on the first call: every caller
    shares it, so none may change it."""
    parser = argparse.ArgumentParser(
        prog="arcact",
        description="labeled set partitions, their linear action, and"
        " unitriangular supercharacters",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = _command(sub, "enum", cmd_enum, "list a partition family")
    p.add_argument("--family", required=True, choices=sorted(ALL_FAMILIES))
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--group", help="label group, e.g. Z3 or Z2xZ2")
    p.add_argument("--groupA", help="first label group of a two-group family")
    p.add_argument("--groupB", help="second label group of a two-group family")
    _common_flags(p, ("json", "jsonl", "csv", "table"))

    p = _command(sub, "orbits", cmd_orbits, "orbit decomposition of a two-group family")
    p.add_argument("--family", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--groupA", required=True)
    p.add_argument("--groupB", required=True)
    _common_flags(p, ("json", "table"))

    p = _command(sub, "poly", cmd_poly, "print a named counting polynomial")
    p.add_argument("--family", required=True)
    p.add_argument("--n", type=int, required=True)
    _common_flags(p, ("json", "table", "latex"))

    p = _command(sub, "map", cmd_map, "apply a structural map to a partition")
    p.add_argument("--op", required=True)
    p.add_argument("--input", default="-", help="JSON partition file, - for stdin")
    _common_flags(p)

    p = _command(sub, "render", cmd_render, "draw a partition as text")
    p.add_argument("--input", default="-", help="JSON partition file, - for stdin")
    _common_flags(p)

    p = _command(sub, "verify", cmd_verify, "run the identity and structure checks")
    which = p.add_mutually_exclusive_group(required=True)
    which.add_argument("--all", action="store_true")
    which.add_argument("--id", action="append", help="run only this check id")
    p.add_argument("--profile", default="desk", choices=identities.PROFILES)
    _common_flags(p, ("json", "table"))

    p = _command(sub, "chartable", cmd_chartable, "supercharacter value table")
    p.add_argument("--kind", required=True, choices=("A", "B", "D"))
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--p", type=int, required=True)
    _common_flags(p, ("json", "table"))

    p = _command(sub, "oeis-check", cmd_oeis_check, "compare a sequence against a b-file")
    p.add_argument("--name", required=True)
    p.add_argument("--id", required=True)
    p.add_argument("--offset", type=int, default=0)
    p.add_argument("--n-max", type=int, default=12)
    p.add_argument("--bfile", help="explicit b-file path")
    _common_flags(p, ("json", "table"))

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (UsageError, GroupError, StructuralError, UnsupportedGroundError) as exc:
        args.parser.error(str(exc))  # as argparse's own errors: exit 2
        return EXIT_USAGE
    except (unitriangular.ScaleGuardError, unitriangular.ConsistencyError) as exc:
        print(f"arcact: {exc}", file=sys.stderr)
        return EXIT_CHECK_FAILED


if __name__ == "__main__":
    sys.exit(main())
