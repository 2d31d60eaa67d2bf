"""OEIS b-file parsing and sequence cross-checks.

b-files are the two-column "index value" format.  Vendored copies live in
the package data directory; a b-file is read from an explicit path or from
that copy, never fetched.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from importlib import resources

from .poly import sequence

#: sequence name -> (OEIS id, index offset: b-file index = n + offset)
KNOWN_SEQUENCES = {
    "Bell_B": ("A007405", 0),
    "Bell_D": ("A004211", 0),
    "M_B": ("A002426", 0),
    "M_B_tilde": ("A005773", 1),
    "F": ("A000296", 0),
}


class BFileError(ValueError):
    """Malformed b-file content."""


class OeisIOError(OSError):
    """A b-file could not be read."""


@dataclass(frozen=True)
class OeisRef:
    id: str
    source: str
    values: dict


def parse_bfile(text: str) -> dict[int, int]:
    """Parse "index value" lines; '#' comments and blank lines are skipped."""
    values: dict[int, int] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        parts = stripped.split()
        if len(parts) != 2 or not all(re.fullmatch(r"-?\d+", p) for p in parts):
            raise BFileError(f"parse error at line {lineno}: {line!r}")
        index, value = int(parts[0]), int(parts[1])
        if index in values:
            raise BFileError(f"duplicate index {index} at line {lineno}")
        values[index] = value
    return values


def vendored_path(oeis_id: str):
    """Where the package data holds its copy of a b-file (it may have none)."""
    return resources.files("arcact").joinpath(f"data/bfiles/b{oeis_id[1:]}.txt")


def load_bfile(oeis_id: str, path: str | None = None) -> OeisRef:
    """Load a b-file from the explicit path, else from the package data."""
    if path is not None:
        try:
            with open(path, "r", encoding="ascii") as handle:
                return OeisRef(oeis_id, path, parse_bfile(handle.read()))
        except OSError as exc:
            raise OeisIOError(f"cannot read {path}: {exc}") from exc
    vendored = vendored_path(oeis_id)
    if not vendored.is_file():
        raise OeisIOError(f"no vendored b-file for {oeis_id}")
    return OeisRef(oeis_id, str(vendored), parse_bfile(vendored.read_text()))


def oeis_check(
    sequence_name: str,
    oeis_id: str,
    offset: int,
    n_max: int,
    path: str | None = None,
) -> dict:
    """Compare sequence(name, n) with b-file entry n + offset for n <= n_max.

    ``checked`` counts the terms the b-file has; the report is ok only if
    it has all n_max + 1 of them and each matches.  Only the b-file's own
    indices are walked, so the time does not grow with n_max.
    """
    ref = load_bfile(oeis_id, path)
    mismatches = []
    checked = 0
    for index in sorted(i for i in ref.values if offset <= i <= offset + n_max):
        n = index - offset
        checked += 1
        computed = sequence(sequence_name, n)
        if computed != ref.values[index]:
            mismatches.append(
                {"n": n, "computed": computed, "bfile": ref.values[index]}
            )
            break
    return {
        "sequence": sequence_name,
        "oeis_id": oeis_id,
        "offset": offset,
        "source": ref.source,
        "checked": checked,
        "ok": 0 < checked == n_max + 1 and not mismatches,
        "mismatches": mismatches,
    }
