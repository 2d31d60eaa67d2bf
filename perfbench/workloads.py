"""The four workloads: their CLI commands and the checks on their output.

Each workload is a list of ``arcact`` command lines run one after another in
one fresh process.  The seed sets the order of the commands (for ``verify``,
the order of the check ids) and is forwarded as the CLI's ``--seed``.

Outputs are checked against figures that do not come from the command under
test: sha256 digests recorded at the seed commit (``expected.json``), and
counts from independent routes (the counting polynomials for ``enum``, the
closed-form counts and group orders for ``chartable``).
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
EXPECTED = json.loads((HERE / "expected.json").read_text())

WORKLOADS = ("verify", "enum", "chartable", "poly")

ENUM = (("PI", 7, "Z3"), ("NC", 9, "Z2"), ("NC_TILDE_B", 5, "Z3"), ("P_D", 6, "Z2"))
# The polynomial whose value at x = y = |G| - 1 counts each enum family.
COUNTED_BY = {"PI": "Bell", "NC": "Cat", "NC_TILDE_B": "Cat_B", "P_D": "Bell_D"}
CHARTABLE = (("A", 4, 5), ("A", 4, 3), ("B", 2, 5), ("D", 3, 3))
POLY_N = 13
POLY_LARGE_N = 35
POLY_LARGE = ("Bell", "Cat", "Bell_B", "Bell_D", "F_B")


@dataclass(frozen=True)
class Command:
    key: str  # stable name, used to look up the pinned digest
    argv: tuple[str, ...]


class Sink:
    """Stands in for stdout: hashes what is written and counts lines.

    The text of commands whose output is parsed (see PARSERS) is also
    kept, until ``settle`` has parsed it.
    """

    def __init__(self, command: Command):
        self._hash = hashlib.sha256()
        self.lines = 0
        self._parts = [] if command.argv[0] in PARSERS else None

    def write(self, text: str) -> int:
        self._hash.update(text.encode())
        self.lines += text.count("\n")
        if self._parts is not None:
            self._parts.append(text)
        return len(text)

    def flush(self):
        pass

    def hexdigest(self) -> str:
        return self._hash.hexdigest()

    def text(self) -> str:
        return "".join(self._parts or ())

    def release(self):
        self._parts = None


@dataclass
class Outcome:
    command: Command
    sink: Sink
    exit_code: object = None
    error: str | None = None
    # Set by settle(): the output's digest and the fields the checks read.
    digest: str | None = None
    fields: dict = field(default_factory=dict)
    malformed: str | None = None


def _bfile_path(oeis_id: str) -> str:
    return f"src/arcact/data/bfiles/b{oeis_id[1:]}.txt"


def _last_index(root: Path, path: str) -> int:
    lines = (root / path).read_text().split("\n")
    return max(int(line.split()[0]) for line in lines if line.strip() and not line.startswith("#"))


def _arg(argv, flag: str) -> str:
    return argv[argv.index(flag) + 1]


def _base_commands(workload: str, root: Path) -> list[Command]:
    if workload == "enum":
        return [
            Command(
                f"enum {fam} {n} {group}",
                ("enum", "--family", fam, "--n", str(n), "--group", group, "--format", "jsonl"),
            )
            for fam, n, group in ENUM
        ]
    if workload == "chartable":
        return [
            Command(
                f"chartable {kind} {n} {p}",
                ("chartable", "--kind", kind, "--n", str(n), "--p", str(p), "--format", "json"),
            )
            for kind, n, p in CHARTABLE
        ]
    if workload == "poly":
        from arcact.oeis import KNOWN_SEQUENCES
        from arcact.poly import FAMILY_NAMES

        pairs = [(name, POLY_N) for name in FAMILY_NAMES]
        pairs += [(name, POLY_LARGE_N) for name in POLY_LARGE]
        cmds = [
            Command(f"poly {name} {n}", ("poly", "--family", name, "--n", str(n), "--format", "json"))
            for name, n in pairs
        ]
        for name, (oeis_id, offset) in sorted(KNOWN_SEQUENCES.items()):
            path = _bfile_path(oeis_id)
            n_max = _last_index(root, path) - offset
            cmds.append(
                Command(
                    f"oeis-check {name}",
                    ("oeis-check", "--name", name, "--id", oeis_id, "--offset", str(offset),
                     "--n-max", str(n_max), "--bfile", path, "--format", "json"),
                )
            )
        return cmds
    raise ValueError(f"unknown workload {workload!r}")


def commands(workload: str, seed: int, root: Path) -> list[Command]:
    """The workload's command lines, ordered by the seed."""
    rng = random.Random(seed)
    if workload == "verify":
        ids = sorted(EXPECTED["verify_ids"])
        rng.shuffle(ids)
        argv = ("verify", *(a for i in ids for a in ("--id", i)), "--format", "json")
        cmds = [Command("verify", argv)]
    else:
        cmds = _base_commands(workload, root)
        rng.shuffle(cmds)
    return [Command(c.key, c.argv + ("--seed", str(seed))) for c in cmds]


# ---------------------------------------------------------------------------
# checks


def _parse_verify(outcome: Outcome) -> dict:
    report = json.loads(outcome.sink.text())
    # The digest leaves out the timings.
    results = [{k: v for k, v in r.items() if k != "millis"} for r in report["results"]]
    text = json.dumps({"ok": report["ok"], "results": results}, sort_keys=True)
    outcome.digest = hashlib.sha256(text.encode()).hexdigest()
    return {
        "checks": len(results),
        "status": {r["id"]: (r["status"], r["mode"]) for r in results},
    }


def _parse_chartable(outcome: Outcome) -> dict:
    payload = json.loads(outcome.sink.text())
    return {
        "kind": payload["kind"],
        "n": payload["n"],
        "p": payload["p"],
        "classes": len(payload["classes"]),
        "class_size_sum": sum(payload["class_sizes"]),
        "group_order": payload["group_order"],
        "norms": [row["norm"] for row in payload["characters"]],
    }


def _parse_oeis(outcome: Outcome) -> dict:
    report = json.loads(outcome.sink.text())
    return {"ok": report["ok"], "checked": report["checked"]}


# Output parsers by subcommand; enum and poly output is only hashed.
PARSERS = {
    "verify": _parse_verify,
    "chartable": _parse_chartable,
    "oeis-check": _parse_oeis,
}


def settle(outcome: Outcome) -> None:
    """Reduce a finished command's output to its digest and the fields the
    checks read, and drop the text, so that outputs do not pile up in the
    process whose peak memory is measured.  Output that does not parse is
    recorded as malformed, never raised.
    """
    outcome.digest = outcome.sink.hexdigest()
    parse = PARSERS.get(outcome.command.argv[0])
    try:
        if parse:
            outcome.fields = parse(outcome)
    except Exception as exc:  # malformed output must not stop the harness
        outcome.digest = None
        outcome.malformed = f"{type(exc).__name__}: {exc}"
    outcome.sink.release()


def _check_verify(outcome: Outcome):
    status = outcome.fields["status"]
    for cid, mode in sorted(EXPECTED["verify_ids"].items()):
        yield f"verify {cid}", status.get(cid) == ("pass", mode), str(status.get(cid))


def _check_enum(outcome: Outcome):
    from arcact.groups import parse_group
    from arcact.poly import family

    argv = outcome.command.argv
    q = parse_group(_arg(argv, "--group")).order - 1
    expected = family(COUNTED_BY[_arg(argv, "--family")], int(_arg(argv, "--n"))).eval_int(q, q)
    yield f"{outcome.command.key} count", outcome.sink.lines == expected, f"{outcome.sink.lines} != {expected}"


def _check_chartable(outcome: Outcome):
    from arcact.unitriangular import expected_counts, subgroup_order

    f = outcome.fields
    counts = expected_counts(f["kind"], f["n"], f["p"])
    norms = f["norms"]
    key = outcome.command.key
    yield f"{key} superclasses", f["classes"] == counts["distinct"], str(f["classes"])
    yield f"{key} class sizes", f["class_size_sum"] == f["group_order"], str(f["class_size_sum"])
    order = subgroup_order(f["kind"], f["n"], f["p"])
    yield f"{key} group order", f["group_order"] == order, str(f["group_order"])
    yield f"{key} integer norms", all(norm.lstrip("-").isdigit() for norm in norms), ""
    yield f"{key} irreducibles", norms.count("1") == counts["irreducible"], str(norms.count("1"))


def _check_oeis(outcome: Outcome):
    f = outcome.fields
    n_max = int(_arg(outcome.command.argv, "--n-max"))
    ok = f["ok"] and f["checked"] == n_max + 1
    yield f"{outcome.command.key} range", ok, f"checked {f['checked']} of {n_max + 1}"


# Independent checks by subcommand; poly payloads are checked by digest only.
INDEPENDENT = {
    "verify": _check_verify,
    "enum": _check_enum,
    "chartable": _check_chartable,
    "oeis-check": _check_oeis,
}


def check(outcome: Outcome) -> list[tuple[str, bool, str]]:
    """Every check on one settled outcome, as (name, passed, detail).

    A check that cannot be evaluated, for example on output that does not
    parse, is a failed check, never an error of the harness.
    """
    key = outcome.command.key
    items = [(f"{key} exit", outcome.exit_code == 0 and outcome.error is None,
              f"exit {outcome.exit_code} {outcome.error or ''}".strip())]
    if outcome.malformed:
        items.append((f"{key} output", False, outcome.malformed))
        return items
    want = EXPECTED["digests"].get(key)
    items.append((f"{key} digest", outcome.digest == want, f"{outcome.digest} != {want}"))
    try:
        items.extend(INDEPENDENT.get(outcome.command.argv[0], lambda o: ())(outcome))
    except Exception as exc:  # a check that cannot run is a failed check
        items.append((f"{key} independent", False, f"{type(exc).__name__}: {exc}"))
    return items


def items_done(workload: str, outcomes: list[Outcome]) -> int:
    """Units of work completed, the numerator of items_per_s.

    verify: checks run; enum: partitions emitted; chartable: group elements
    reduced; poly: commands completed.  Failed or malformed commands add
    nothing.
    """
    total = 0
    for o in outcomes:
        if o.exit_code != 0 or o.error is not None or o.malformed:
            continue
        if workload == "verify":
            total += o.fields["checks"]
        elif workload == "enum":
            total += o.sink.lines
        elif workload == "chartable":
            total += o.fields["group_order"]
        else:
            total += 1
    return total
