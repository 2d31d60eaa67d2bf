"""Command-line front end.

Exit codes: 0 all good, 1 a verification failed, 2 usage error, 3 an
input/output problem.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import Counter
from functools import lru_cache

from . import identities, maps, oeis, poly, unitriangular
from .action import orbit_decomposition, plus_involution
from .core import (
    StructuralError,
    UnsupportedGroundError,
    partition_from_json,
    render_ascii,
)
from .cyclotomic import is_prime
from .families import ALL_FAMILIES, FamilySpec, enumerate_family
from .groups import GroupError, parse_group
from .poly import FAMILY_NAMES

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_IO = 3


class UsageError(ValueError):
    pass


def _common_flags(parser, formats=()):
    """--seed, and --format limited to the formats the subcommand emits."""
    if formats:
        parser.add_argument("--format", default="table", choices=formats, help="output format")
    parser.add_argument("--seed", type=int, default=0, help="accepted; no command reads it")


def _family_spec(args) -> FamilySpec:
    groups = []
    if getattr(args, "groupA", None):
        groups.append(parse_group(args.groupA))
        if getattr(args, "groupB", None):
            groups.append(parse_group(args.groupB))
    elif getattr(args, "group", None):
        groups.append(parse_group(args.group))
    try:
        return FamilySpec(args.family, args.n, tuple(groups))
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def _emit_partitions(parts, fmt):
    if fmt == "jsonl":
        for p in parts:
            print(p.to_json())
    elif fmt == "json":
        print(json.dumps([p.to_json_dict() for p in parts]))
    elif fmt == "csv":
        print("blocks,labels")
        for p in parts:
            blocks = "".join("{" + ",".join(map(str, b)) + "}" for b in p.blocks)
            labels = ";".join(f"({i},{j})={'/'.join(map(str, v))}" for i, j, v in p.labels)
            print(f"{blocks},{labels}")
    else:
        for p in parts:
            print(p.text())


def cmd_enum(args) -> int:
    spec = _family_spec(args)
    _emit_partitions(enumerate_family(spec), args.format)
    return EXIT_OK


def cmd_orbits(args) -> int:
    spec = _family_spec(args)
    try:
        orbits = orbit_decomposition(spec)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    histogram = Counter(len(members) for members in orbits.values())
    payload = {
        "family": spec.family,
        "n": spec.n,
        "orbits": len(orbits),
        "size_histogram": dict(sorted(histogram.items())),
        "representatives": [rep.to_json_dict() for rep in orbits],
    }
    if args.format == "json":
        print(json.dumps(payload))
    else:
        print(f"orbits: {payload['orbits']}")
        print(f"size histogram: {payload['size_histogram']}")
        for rep, members in orbits.items():
            print(f"  size {len(members):4d}  rep {rep.text()}")
    return EXIT_OK


def cmd_poly(args) -> int:
    if args.family not in FAMILY_NAMES:
        raise UsageError(f"unknown polynomial family {args.family!r}")
    if args.n < 0:
        raise UsageError(f"--n must be at least 0, got {args.n}")
    value = poly.family(args.family, args.n)
    if args.format == "latex":
        print(value.latex())
    elif args.format == "json":
        print(
            json.dumps(
                {
                    "family": args.family,
                    "n": args.n,
                    "coefficients": [
                        {"x": dx, "y": dy, "value": c}
                        for (dx, dy), c in sorted(value.coeffs.items())
                    ],
                }
            )
        )
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
    ids = None
    if args.id:
        unknown = set(args.id) - set(identities.registry_ids())
        if unknown:
            raise UsageError(f"unknown check ids: {sorted(unknown)}")
        ids = args.id
    elif not args.all:
        raise UsageError("pass --all or --id")
    report = identities.run_all(profile=args.profile, ids=ids)
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
    try:
        unitriangular.check_table_size(args.kind, args.n, args.p)
    except unitriangular.ScaleGuardError as exc:
        print(f"arcact: {exc}", file=sys.stderr)
        return EXIT_CHECK_FAILED
    if not is_prime(args.p):
        raise UsageError(f"--p must be a prime, got {args.p}")
    if args.p == 2 and args.kind != "A":
        raise UsageError(f"kind {args.kind} needs an odd prime --p")
    table = unitriangular.build_chartable(args.kind, args.n, args.p)
    norms = table.norms()
    degrees = table.degrees()
    text = lru_cache(maxsize=None)(str)  # each distinct value is formatted once
    rows = []
    for lam, values, norm, degree in zip(table.indices, table.values, norms, degrees):
        rows.append(
            {
                "index": lam.to_json_dict(),
                "degree": degree,
                "norm": str(norm),
                "values": [text(v) for v in values],
            }
        )
    payload = {
        "kind": args.kind,
        "n": args.n,
        "p": args.p,
        "group_order": table.group_order,
        "classes": [c.to_json_dict() for c in table.classes],
        "class_sizes": list(table.class_sizes),
        "characters": rows,
    }
    if args.format == "json":
        print(json.dumps(payload))
    else:
        print(f"group order {table.group_order}, {len(table.classes)} superclasses")
        for lam, norm, degree in zip(table.indices, norms, degrees):
            print(f"  deg {degree:6d}  norm {str(norm):6s}  {lam.text()}")
    return EXIT_OK


def cmd_oeis_check(args) -> int:
    if args.name not in FAMILY_NAMES:
        raise UsageError(f"unknown polynomial family {args.name!r}")
    try:
        report = oeis.oeis_check(args.name, args.id, args.offset, args.n_max, args.bfile)
    except (oeis.OeisIOError, ValueError) as exc:  # BFileError is a ValueError
        print(f"arcact: {exc}", file=sys.stderr)
        return EXIT_IO
    if args.format == "json":
        print(json.dumps(report))
    else:
        status = "ok" if report["ok"] else "MISMATCH"
        print(
            f"{report['sequence']} vs {report['oeis_id']} (offset {report['offset']}):"
            f" {report['checked']} terms {status}"
        )
        for m in report["mismatches"]:
            print(f"  n={m['n']}: computed {m['computed']} != b-file {m['bfile']}")
    return EXIT_OK if report["ok"] else EXIT_CHECK_FAILED


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="arcact",
        description="labeled set partitions, their linear action, and"
        " unitriangular supercharacters",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("enum", help="list a partition family")
    p.add_argument("--family", required=True, choices=sorted(ALL_FAMILIES))
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--group", help="label group, e.g. Z3 or Z2xZ2")
    p.add_argument("--groupA", help="first label group of a two-group family")
    p.add_argument("--groupB", help="second label group of a two-group family")
    _common_flags(p, ("json", "jsonl", "csv", "table"))
    p.set_defaults(fn=cmd_enum)

    p = sub.add_parser("orbits", help="orbit decomposition of a two-group family")
    p.add_argument("--family", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--groupA", required=True)
    p.add_argument("--groupB", required=True)
    _common_flags(p, ("json", "table"))
    p.set_defaults(fn=cmd_orbits)

    p = sub.add_parser("poly", help="print a named counting polynomial")
    p.add_argument("--family", required=True)
    p.add_argument("--n", type=int, required=True)
    _common_flags(p, ("json", "table", "latex"))
    p.set_defaults(fn=cmd_poly)

    p = sub.add_parser("map", help="apply a structural map to a partition")
    p.add_argument("--op", required=True)
    p.add_argument("--input", default="-", help="JSON partition file, - for stdin")
    _common_flags(p)
    p.set_defaults(fn=cmd_map)

    p = sub.add_parser("render", help="draw a partition as text")
    p.add_argument("--input", default="-", help="JSON partition file, - for stdin")
    _common_flags(p)
    p.set_defaults(fn=cmd_render)

    p = sub.add_parser("verify", help="run the identity and structure checks")
    p.add_argument("--all", action="store_true")
    p.add_argument("--id", action="append", help="run only this check id")
    p.add_argument("--profile", default="desk", choices=("desk", "quick"))
    _common_flags(p, ("json", "table"))
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("chartable", help="supercharacter value table")
    p.add_argument("--kind", required=True, choices=("A", "B", "D"))
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--p", type=int, required=True)
    _common_flags(p, ("json", "table"))
    p.set_defaults(fn=cmd_chartable)

    p = sub.add_parser("oeis-check", help="compare a sequence against a b-file")
    p.add_argument("--name", required=True)
    p.add_argument("--id", required=True)
    p.add_argument("--offset", type=int, default=0)
    p.add_argument("--n-max", type=int, default=12)
    p.add_argument("--bfile", help="explicit b-file path")
    _common_flags(p, ("json", "table"))
    p.set_defaults(fn=cmd_oeis_check)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (UsageError, GroupError, StructuralError, UnsupportedGroundError) as exc:
        parser.error(str(exc))  # exits with code 2
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
