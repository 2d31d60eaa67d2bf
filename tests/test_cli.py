import errno
import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from arcact import cli, families, identities, poly, unitriangular
from arcact.cli import main
from arcact.core import (
    LabeledSetPartition, StructuralError, partition_from_json, unlabeled, ground_a,
)
from arcact.families import enumerate_family
from arcact.unitriangular import expected_counts


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_enum_count_matches_catalan(capsys):
    code, out = run_cli(
        capsys, "enum", "--family", "NC", "--n", "4", "--group", "Z2",
        "--format", "jsonl",
    )
    assert code == 0
    lines = [l for l in out.splitlines() if l]
    assert len(lines) == 14
    # jsonl lines round-trip through the canonical schema
    for line in lines:
        p = partition_from_json(line)
        assert p.to_json() == line


def test_enum_ab_family(capsys):
    code, out = run_cli(
        capsys, "enum", "--family", "PI_AB", "--n", "3",
        "--groupA", "Z2", "--groupB", "Z3", "--format", "json",
    )
    assert code == 0
    assert len(json.loads(out)) == 10  # Bell_3(x,y) at x=1, y=2


def test_enum_json_streams_the_dumped_list(capsys, all_desk_specs):
    for spec in all_desk_specs:
        code, out = run_cli(
            capsys, "enum", "--family", spec.family, "--format", "json",
            *_size_and_group_flags(spec),
        )
        assert code == 0
        assert out == json.dumps([p.to_json_dict() for p in enumerate_family(spec)]) + "\n"


@pytest.mark.parametrize("fmt", ["json", "jsonl", "csv", "table"])
def test_enum_keeps_no_family(capsys, fmt):
    families._enumerated.cache_clear()
    code, _ = run_cli(
        capsys, "enum", "--family", "P_D_AB", "--n", "3", "--groupA", "Z2",
        "--groupB", "Z3", "--format", fmt,
    )
    assert code == 0
    assert families._enumerated.cache_info().currsize == 0


def test_orbits_keeps_no_family(capsys):
    families._enumerated.cache_clear()
    code, _ = run_cli(
        capsys, "orbits", "--family", "PI_AB", "--n", "4", "--groupA", "Z2",
        "--groupB", "Z3",
    )
    assert code == 0
    assert families._enumerated.cache_info().currsize == 0


def test_orbits_of_a_single_group_family_is_usage_error(capsys):
    with pytest.raises(SystemExit) as err:
        main(["orbits", "--family", "PI", "--n", "2", "--groupA", "Z2", "--groupB", "Z3"])
    assert err.value.code == 2


def test_enum_csv_and_table(capsys):
    code, out = run_cli(
        capsys, "enum", "--family", "L", "--n", "3", "--group", "Z2",
        "--format", "csv",
    )
    assert code == 0 and out.startswith("blocks,labels")
    code, out = run_cli(
        capsys, "enum", "--family", "L", "--n", "3", "--group", "Z2",
    )
    assert code == 0 and "{1}{2}{3}" in out


def test_poly_formats(capsys):
    code, out = run_cli(capsys, "poly", "--family", "Cat_B", "--n", "2",
                        "--format", "json")
    assert code == 0
    data = json.loads(out)
    coeffs = {(c["x"], c["y"]): c["value"] for c in data["coefficients"]}
    assert coeffs == {(0, 0): 1, (1, 0): 2, (0, 1): 2, (0, 2): 1}
    code, out = run_cli(capsys, "poly", "--family", "Cat_B", "--n", "2",
                        "--format", "latex")
    assert code == 0 and "y^{2}" in out


def test_map_and_render(capsys, tmp_path):
    p = unlabeled(ground_a(6), [(1, 4), (2, 5), (3, 6)])
    path = tmp_path / "p.json"
    path.write_text(p.to_json())
    code, out = run_cli(capsys, "map", "--op", "uncross", "--input", str(path))
    assert code == 0
    q = partition_from_json(out)
    assert q.blocks == ((1, 6), (2, 5), (3, 4))

    code, out = run_cli(capsys, "render", "--input", str(path))
    assert code == 0
    assert out.rstrip().endswith("1   2   3   4   5   6")


def test_render_golden_display(capsys, tmp_path):
    p = unlabeled(ground_a(7), [(1, 3, 4, 7), (2, 6), (5,)])
    path = tmp_path / "p.json"
    path.write_text(p.to_json())
    code, out = run_cli(capsys, "render", "--input", str(path))
    assert code == 0
    assert out == (
        "    .-------1-------.\n"
        ".---1---.   .-----1-----.\n"
        "        .-1-.\n"
        "1   2   3   4   5   6   7\n"
    )


@pytest.mark.parametrize("kind", ["A", "D"])
def test_render_of_an_empty_ground_names_it(capsys, monkeypatch, kind):
    data = {"ground": {"kind": kind, "n": 0}, "group": [2], "blocks": [], "labels": []}
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(data)))
    assert run_cli(capsys, "render", "--input", "-") == (0, "(empty)\n")


def test_orbits_json(capsys):
    code, out = run_cli(
        capsys, "orbits", "--family", "NC_AB", "--n", "3",
        "--groupA", "Z2", "--groupB", "Z3", "--format", "json",
    )
    assert code == 0
    data = json.loads(out)
    assert data["orbits"] == 2
    assert sum(k * v for k, v in
               ((int(a), b) for a, b in data["size_histogram"].items())) == sum(
        int(a) * b for a, b in data["size_histogram"].items()
    )


def test_write_json_writes_keys_as_json_dumps_does(capsys):
    def value(items):
        return {
            "ints": {1: 2, -3: {0: 4}},
            "bools": {True: 1, False: 0},
            "none": {None: "null"},
            "floats": {2.5: 1, 1e20: 2, float("inf"): 3, -0.0: 4},
            "items": items([{1: "a", "b": {None: True}}, {True: [{2.0: 3}]}]),
            5: items([]),
        }

    cli._write_json(value(iter))
    assert capsys.readouterr().out == json.dumps(value(list)) + "\n"


# sha256 of `arcact orbits --family PI_AB --n 6 --groupA Z2 --groupB Z3
# --format json`, recorded while the document was built whole before it was
# printed
ORBITS_PI_AB_6_SHA256 = "4170f3663c65bf094b21719096ae62ed2feebfb6a5c353e781615252c19a2104"


def test_orbits_json_streams_the_dumped_document(capsys):
    code, out = run_cli(
        capsys, "orbits", "--family", "PI_AB", "--n", "6", "--groupA", "Z2",
        "--groupB", "Z3", "--format", "json",
    )
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == ORBITS_PI_AB_6_SHA256
    assert json.loads(out)["size_histogram"] == {"1": 11, "3": 20, "9": 10, "27": 10, "243": 1}


def test_verify_single_id(capsys):
    code, out = run_cli(
        capsys, "verify", "--id", "touchard", "--profile", "quick",
        "--format", "json",
    )
    assert code == 0
    data = json.loads(out)
    assert data["ok"] and data["results"][0]["id"] == "touchard"


def test_verify_runs_a_repeated_id_once(capsys, monkeypatch):
    ran = []
    run = identities.run
    monkeypatch.setattr(identities, "run", lambda i, profile: ran.append(i) or run(i, profile))
    code, out = run_cli(
        capsys, "verify", "--id", "coker", "--id", "touchard", "--id", "coker",
        "--profile", "quick", "--format", "json",
    )
    assert code == 0 and ran == ["coker", "touchard"]
    assert [r["id"] for r in json.loads(out)["results"]] == ["coker", "touchard"]


def test_verify_reports_a_refusal_inside_a_check_as_a_failed_check(capsys, monkeypatch):
    # a map that refuses its argument inside a check is a witness, exit 1; it
    # once escaped the check as a usage error naming no check, exit 2
    def refuse_self_negative_blocks(p):
        if any(tuple(sorted(-x for x in b)) == b for b in p.blocks):
            raise StructuralError("need an even number of self-negative blocks")
        return uncross_d_inverse(p)

    uncross_d_inverse = identities.maps.uncross_d_inverse
    monkeypatch.setattr(identities.maps, "uncross_d_inverse", refuse_self_negative_blocks)
    code, out = run_cli(capsys, "verify", "--id", "uncrossB-props")
    assert code == 1
    assert out.splitlines()[0].split("witness: ")[1] == (
        "n=2 uncross: the inverse refuses {-2,2}{-1,1} (-2,2)=1 (-1,1)=1, the image of"
        " {-2,1}{-1,2} (-2,1)=1 (-1,2)=1: need an even number of self-negative blocks"
    )


def test_verify_reports_a_refusal_outside_bijection_as_a_failed_check(capsys, monkeypatch):
    # negate runs outside identities._bijection; its refusal once escaped run
    # and exited 2 as a usage error that named no check
    def refuse(p):
        raise StructuralError("refused for test")

    monkeypatch.setattr(identities, "negate", refuse)
    code, out = run_cli(capsys, "verify", "--id", "NNB-counts")
    assert code == 1
    assert out.splitlines()[0].split("witness: ")[1] == (
        "NNB-counts: StructuralError: refused for test"
    )


def test_main_builds_one_parser_per_process():
    assert cli.build_parser() is cli.build_parser()


def test_verify_ids_do_not_carry_over_between_calls(capsys):
    for cid in ("coker", "riordan"):
        code, out = run_cli(capsys, "verify", "--id", cid, "--format", "json")
        assert code == 0
        assert [r["id"] for r in json.loads(out)["results"]] == [cid]


def test_format_falls_back_to_table_after_a_json_call(capsys):
    code, out = run_cli(capsys, "poly", "--family", "Cat_B", "--n", "3", "--format", "json")
    assert code == 0 and out.startswith("{")
    code, out = run_cli(capsys, "poly", "--family", "Cat_B", "--n", "3")
    assert code == 0 and out == f"{poly.family('Cat_B', 3)}\n"


def test_usage_error_after_a_call_prints_what_a_fresh_process_prints(capsys, monkeypatch):
    argv = ["poly", "--family", "Nope", "--n", "3"]
    monkeypatch.setenv("COLUMNS", "80")  # the usage text wraps at the terminal width
    fresh = subprocess.run(
        [sys.executable, "-m", "arcact.cli", *argv],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])},
    )
    assert fresh.returncode == 2 and fresh.stdout == ""
    assert run_cli(capsys, "poly", "--family", "Cat_B", "--n", "3")[0] == 0
    with pytest.raises(SystemExit) as err:
        main(argv)
    assert err.value.code == 2
    assert capsys.readouterr().err == fresh.stderr
    # the chosen subcommand's usage and name, as in argparse's own errors
    assert fresh.stderr.startswith("usage: arcact poly ")
    assert fresh.stderr.splitlines()[-1] == "arcact poly: error: unknown polynomial family 'Nope'"


def test_verify_unknown_id_is_usage_error(capsys):
    with pytest.raises(SystemExit) as err:
        main(["verify", "--id", "bogus"])
    assert err.value.code == 2


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--id", "coker", "--all"], "argument --all: not allowed with argument --id"),
        ([], "one of the arguments --all --id is required"),
    ],
    ids=["id-and-all", "neither"],
)
def test_verify_needs_exactly_one_of_all_and_id(capsys, monkeypatch, flags, message):
    monkeypatch.setattr(identities, "run", lambda *a, **k: pytest.fail("a check ran"))
    with pytest.raises(SystemExit) as err:
        main(["verify", *flags])
    assert err.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "Traceback" not in captured.err
    assert captured.err.splitlines()[-1] == f"arcact verify: error: {message}"


def test_usage_error_exit_code(capsys):
    with pytest.raises(SystemExit) as err:
        main(["enum", "--family", "NOPE", "--n", "2", "--group", "Z2"])
    assert err.value.code == 2
    with pytest.raises(SystemExit) as err:
        main(["enum", "--family", "PI", "--n", "2", "--group", "Q8"])
    assert err.value.code == 2


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--group", "Z3", "--groupB", "Z2"], "pass --group or --groupA/--groupB, not both"),
        (["--groupA", "Z2", "--group", "Z3"], "pass --group or --groupA/--groupB, not both"),
        (["--groupB", "Z2"], "--groupB needs --groupA"),
    ],
    ids=["group-and-groupB", "groupA-and-group", "groupB-alone"],
)
def test_enum_contradictory_group_flags_are_usage_errors(capsys, flags, message):
    with pytest.raises(SystemExit) as err:
        main(["enum", "--family", "PI", "--n", "2", *flags])
    assert err.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "Traceback" not in captured.err
    # argparse's usage banner, then the one error line
    assert captured.err.splitlines()[-1] == f"arcact enum: error: {message}"


def test_oeis_check_negative_n_max_is_usage_error(capsys):
    with pytest.raises(SystemExit) as err:
        main(["oeis-check", "--name", "Bell_B", "--id", "A007405", "--n-max", "-5"])
    assert err.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "Traceback" not in captured.err
    assert captured.err.splitlines()[-1] == (
        "arcact oeis-check: error: --n-max must be at least 0, got -5"
    )


def test_oeis_check_unknown_name_is_usage_error(capsys):
    with pytest.raises(SystemExit) as err:
        main(["oeis-check", "--name", "Nope", "--id", "A007405"])
    assert err.value.code == 2


def test_poly_negative_n_is_usage_error(capsys):
    with pytest.raises(SystemExit) as err:
        main(["poly", "--family", "Cat_B", "--n", "-1"])
    assert err.value.code == 2


def test_io_error_exit_code(capsys):
    code = main(
        ["oeis-check", "--name", "Bell_B", "--id", "A999999", "--offset", "0"]
    )
    assert code == 3


def _fresh_env() -> dict:
    return {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1]), "COLUMNS": "80"}


@pytest.mark.parametrize(
    "argv",
    [
        ["enum", "--family", "PI", "--n", "4", "--group", "Z3", "--format", "jsonl"],
        ["enum", "--family", "PI", "--n", "4", "--group", "Z3", "--format", "json"],
        ["enum", "--family", "PI", "--n", "4", "--group", "Z3", "--format", "table"],
        ["orbits", "--family", "PI_AB", "--n", "3", "--groupA", "Z2", "--groupB", "Z3"],
        ["orbits", "--family", "PI_AB", "--n", "3", "--groupA", "Z2", "--groupB", "Z3",
         "--format", "json"],
        ["poly", "--family", "Bell", "--n", "5"],
        ["chartable", "--kind", "A", "--n", "3", "--p", "3", "--format", "json"],
        ["verify", "--id", "coker"],
    ],
    ids=["enum-jsonl", "enum-json", "enum-table", "orbits-table", "orbits-json", "poly",
         "chartable", "verify"],
)
def test_a_closed_pipe_exits_3_without_a_traceback(argv):
    # the pipe's read end is closed before the process starts, as by a
    # reader that stopped early, so the first write of the output fails
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "arcact.cli", *argv],
            stdout=write_end,
            stderr=subprocess.PIPE,
            text=True,
            env=_fresh_env(),
            timeout=60,
        )
    finally:
        os.close(write_end)
    assert proc.returncode == 3 and proc.stderr == ""


@pytest.mark.parametrize(
    "error, message",
    [
        (BrokenPipeError(errno.EPIPE, "Broken pipe"), ""),
        (OSError(errno.ENOSPC, "No space left on device"),
         "arcact: [Errno 28] No space left on device\n"),
    ],
    ids=["closed-pipe", "disk-full"],
)
def test_an_output_error_exits_3_with_at_most_one_line(capsys, monkeypatch, error, message):
    class Failing(io.StringIO):
        def write(self, text):
            raise error

    monkeypatch.setattr(sys, "stdout", Failing())
    assert main(["poly", "--family", "Bell", "--n", "3"]) == 3
    assert capsys.readouterr().err == message


def test_start_up_loads_neither_the_registry_nor_the_bfile_reader():
    # enum, chartable and poly run without identities and oeis; verify and
    # the package's run and run_all load identities, and with it oeis, when
    # first used
    script = """if True:
        import contextlib, io, sys
        import arcact, arcact.cli
        lazy = ("arcact.identities", "arcact.oeis")
        for argv in (
            ["enum", "--family", "PI", "--n", "4", "--group", "Z3", "--format", "jsonl"],
            ["chartable", "--kind", "B", "--n", "2", "--p", "3", "--format", "json"],
            ["poly", "--family", "Bell_B", "--n", "4", "--format", "json"],
        ):
            with contextlib.redirect_stdout(io.StringIO()):
                assert arcact.cli.main(argv) == 0, argv
        print(*[name for name in lazy if name in sys.modules], sep=",")
        with contextlib.redirect_stdout(io.StringIO()) as out:
            code = arcact.cli.main(["verify", "--id", "coker", "--profile", "quick"])
        print(code, out.getvalue().splitlines()[-1])
        print(arcact.run("touchard", "quick").status)
        print(arcact.run_all(profile="quick", ids=["riordan"]).ok)
        print(*[name for name in lazy if name in sys.modules], sep=",")
    """
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=_fresh_env(),
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "", "0 ALL PASS", "pass", "True", "arcact.identities,arcact.oeis",
    ]


def test_help_texts_do_not_need_the_registry(capsys, monkeypatch):
    # verify's --profile choices come from the one list of profiles, which
    # the parser reads without loading identities
    assert cli.PROFILES is identities.PROFILES
    monkeypatch.setenv("COLUMNS", "80")
    for argv in (["--help"], ["verify", "--help"]):
        fresh = subprocess.run(
            [sys.executable, "-m", "arcact.cli", *argv],
            capture_output=True, text=True, env=_fresh_env(), timeout=60,
        )
        with pytest.raises(SystemExit) as err:
            main(argv)
        assert err.value.code == 0 and fresh.returncode == 0
        assert capsys.readouterr().out == fresh.stdout
    assert "  --profile {desk,quick}\n" in fresh.stdout


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--all", "--format", "csv"],
        ["map", "--op", "uncross", "--format", "json"],
        ["render", "--format", "table"],
        ["poly", "--family", "Bell", "--n", "2", "--format", "csv"],
        ["enum", "--family", "NC", "--n", "2", "--format", "latex"],
        ["chartable", "--kind", "A", "--n", "2", "--p", "3", "--format", "jsonl"],
    ],
    ids=["verify-csv", "map-json", "render-table", "poly-csv", "enum-latex", "chartable-jsonl"],
)
def test_format_a_subcommand_does_not_emit_is_usage_error(capsys, argv):
    with pytest.raises(SystemExit) as err:
        main(argv)
    assert err.value.code == 2
    err_text = capsys.readouterr().err
    assert "--format" in err_text and "Traceback" not in err_text


def test_partition_input_errors(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_bytes(b"\xff\xfe{")
    for argv in (["render"], ["map", "--op", "shift"]):
        with pytest.raises(SystemExit) as err:
            main([*argv, "--input", str(bad)])
        assert err.value.code == 2
        with pytest.raises(SystemExit) as err:
            main([*argv, "--input", str(tmp_path / "missing.json")])
        assert err.value.code == 3


def test_oeis_check_cli(capsys):
    code, out = run_cli(
        capsys, "oeis-check", "--name", "Bell_B", "--id", "A007405",
        "--n-max", "10", "--format", "json",
    )
    assert code == 0 and json.loads(out)["ok"]
    code = main(
        ["oeis-check", "--name", "Bell_B", "--id", "A007405", "--offset", "3"]
    )
    assert code == 1


def test_oeis_check_past_the_bfile_is_not_ok(capsys):
    # A007405's b-file ends at n = 23: the terms past it were never checked
    argv = ["oeis-check", "--name", "Bell_B", "--id", "A007405", "--n-max"]
    code, out = run_cli(capsys, *argv, "100000")
    assert code == 1
    assert out == "Bell_B vs A007405 (offset 0): 24 of 100001 terms checked, INCOMPLETE\n"
    code, out = run_cli(capsys, *argv, "100000", "--format", "json")
    report = json.loads(out)
    assert code == 1 and not report["ok"] and report["checked"] == 24 and not report["mismatches"]
    code, out = run_cli(capsys, *argv, "23")
    assert code == 0
    assert out == "Bell_B vs A007405 (offset 0): 24 of 24 terms checked, ok\n"


def test_chartable_json(capsys):
    code, out = run_cli(
        capsys, "chartable", "--kind", "B", "--n", "1", "--p", "3",
        "--format", "json",
    )
    assert code == 0
    data = json.loads(out)
    assert data["group_order"] == 3
    assert len(data["characters"]) == 3
    assert all(row["norm"] == "1" for row in data["characters"])


def test_chartable_type_b_at_rank_zero(capsys):
    code, out = run_cli(
        capsys, "chartable", "--kind", "B", "--n", "0", "--p", "3",
        "--format", "json",
    )
    assert code == 0
    data = json.loads(out)
    expected = expected_counts("B", 0, 3)
    assert data["group_order"] == 1
    assert len(data["classes"]) == expected["distinct"] == 1
    assert data["class_sizes"] == [1]
    assert [row["norm"] for row in data["characters"]] == ["1"]


def test_chartable_table_format_builds_no_json(capsys, monkeypatch):
    # the table lists degrees, norms and index texts; only json needs dicts
    def refuse(self):
        raise AssertionError("the table format built a JSON payload")

    monkeypatch.setattr(LabeledSetPartition, "to_json_dict", refuse)
    code, out = run_cli(capsys, "chartable", "--kind", "A", "--n", "3", "--p", "3")
    assert code == 0
    assert out.startswith("group order")


def test_chartable_scale_guard(capsys):
    code = main(["chartable", "--kind", "A", "--n", "9", "--p", "3"])
    assert code == 1
    # the size bounds are fixed: there is no flag to raise them
    with pytest.raises(SystemExit) as err:
        main(["chartable", "--kind", "A", "--n", "9", "--p", "3", "--max-group-order", "5"])
    assert err.value.code == 2


@pytest.mark.parametrize(
    "kind, n, p",
    [
        ("A", 200, 3),
        ("A", 100000, 3),
        ("A", 1, 2**61 - 1),
        ("A", 3, 97),
        ("B", 1, 999983),
        ("A", 8, 2),
        ("A", 1, 2**64),
    ],
)
def test_oversized_chartables_are_refused_up_front(capsys, monkeypatch, kind, n, p):
    def refuse(*args):
        raise AssertionError("an oversized table got past the size guard")

    monkeypatch.setattr(unitriangular, "family_members", refuse)
    monkeypatch.setattr(unitriangular, "group_elements", refuse)
    monkeypatch.setattr(unitriangular, "lie_elements", refuse)
    monkeypatch.setattr(cli, "is_prime", refuse)
    code = main(["chartable", "--kind", kind, "--n", str(n), "--p", str(p)])
    err = capsys.readouterr().err
    assert code == 1
    assert len(err.splitlines()) == 1 and "Traceback" not in err


@pytest.mark.parametrize("name, n", [("Bell", cli.MAX_POLY_N + 1), ("F", 10**20), ("M", 10**6)])
def test_oversized_polys_are_refused_up_front(capsys, monkeypatch, name, n):
    def refuse(*args):
        raise AssertionError("an oversized polynomial got past the size guard")

    monkeypatch.setattr(poly, "family", refuse)
    code = main(["poly", "--family", name, "--n", str(n)])
    err = capsys.readouterr().err
    assert code == 1
    assert len(err.splitlines()) == 1 and "Traceback" not in err


@pytest.mark.parametrize(
    "argv",
    [
        ["--kind", "A", "--n", "2", "--p", "4"],
        ["--kind", "B", "--n", "2", "--p", "2"],
        ["--kind", "D", "--n", "2", "--p", "2"],
        ["--kind", "A", "--n", "-1", "--p", "3"],
    ],
    ids=["non-prime-p", "B-at-p2", "D-at-p2", "negative-n"],
)
def test_chartable_bad_parameters_are_usage_errors(capsys, argv):
    with pytest.raises(SystemExit) as err:
        main(["chartable", *argv])
    assert err.value.code == 2


def test_map_on_ineligible_partition_is_usage_error(capsys, tmp_path):
    path = tmp_path / "p.json"
    path.write_text(unlabeled(ground_a(3), [(1, 2), (3,)]).to_json())
    for op in ("halve", "uncross_B", "unshift"):
        with pytest.raises(SystemExit) as err:
            main(["map", "--op", op, "--input", str(path)])
        assert err.value.code == 2


def test_partition_json_with_bool_label_is_usage_error(capsys, tmp_path):
    data = unlabeled(ground_a(2), [(1, 2)]).to_json_dict()
    data["labels"][0]["value"] = [True]
    path = tmp_path / "p.json"
    path.write_text(json.dumps(data))
    with pytest.raises(SystemExit) as err:
        main(["render", "--input", str(path)])
    assert err.value.code == 2


def test_partition_json_with_a_repeated_arc_is_usage_error(capsys, monkeypatch):
    # the second label of (1, 2) must not silently replace the first
    data = {
        "ground": {"kind": "A", "n": 2},
        "group": [3],
        "blocks": [[1, 2]],
        "labels": [{"i": 1, "j": 2, "value": [1]}, {"i": 1, "j": 2, "value": [2]}],
    }
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(data)))
    with pytest.raises(SystemExit) as err:
        main(["map", "--op", "shift", "--input", "-"])
    assert err.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "Traceback" not in captured.err
    assert captured.err.splitlines()[-1] == (
        "arcact map: error: bad partition input: arc (1, 2) is labeled twice"
    )


@pytest.mark.parametrize("kind", ["C", "a", None, 1, ["A"], {"A": 1}], ids=repr)
def test_partition_json_with_a_bad_ground_kind_is_usage_error(capsys, monkeypatch, kind):
    data = unlabeled(ground_a(2), [(1, 2)]).to_json_dict()
    data["ground"]["kind"] = kind
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(data)))
    with pytest.raises(SystemExit) as err:
        main(["render", "--input", "-"])
    assert err.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "Traceback" not in captured.err
    assert captured.err.splitlines()[-1] == (
        f"arcact render: error: bad partition input: unknown ground kind {kind!r}"
    )


def test_partition_json_with_empty_block_is_usage_error(capsys, tmp_path):
    data = unlabeled(ground_a(2), [(1, 2)]).to_json_dict()
    data["blocks"].append([])
    path = tmp_path / "p.json"
    path.write_text(json.dumps(data))
    with pytest.raises(SystemExit) as err:
        main(["render", "--input", str(path)])
    assert err.value.code == 2
    assert "empty block" in capsys.readouterr().err


# sha256 of `arcact enum --format jsonl` per family code, over the code's
# desk-scale instances in order, each stream headed by its --n/--group flags.
# Recorded before the trusted constructor and the sparse rook key existed.
ENUM_JSONL_SHA256 = {
    "L": "c9ceef6de2ae6c42d019e2c990b15661c109830f713bf7e5f0a41f52426d2743",
    "L_AB": "0d1c9a5b58f87120382c5b33cc4925b07433482bbfea3f7180ac1b0140d9508d",
    "L_B": "20252a936fb17991c41251ec94b9f1bf1bad47330079dd6cc595cc7ceee23a72",
    "L_B_AB": "9f85aa5c40a0e468679ef6cedd5943c49df8f9ae2791be1a6cfc98f59faef245",
    "L_D": "5f933612089ecaa13c063cf3fa09e221a946180efaceee3c8a6562341288f43f",
    "L_D_AB": "69d53aa6d7cbd6b69df17e1b898dd27575953a4f362b18db126a9477c62b1561",
    "NC": "3c3bcad8eef55557710d9d085d7434742f28b58a104c8c81f327a39ba4028f12",
    "NC_AB": "1aad71b9d140f730bff62920d3974c14428d4b66d7a02a481da8494668bfcfd7",
    "NC_TILDE_B": "a7e0a869444a4a9ffa9b8703a8f695c6b96cf0aee27f13d771b353e0ff1ea1e3",
    "NC_TILDE_B_AB": "9da68aab2e92cf7e7d7fefb6c4bab7264e56926512dce57e1b4f6f407ff1fced",
    "NC_TILDE_D": "7e4f7a39484c19f29e4c7e3552a01f2769c6b92b1db08cbe4804978cac7fb2b9",
    "NC_TILDE_D_AB": "3be19e1df257dbbb2cf663f2fb341761faaad66718502134dc06d0fe3cabcd9d",
    "NN": "1a793dafc06243a034a9c1ce090797130d495236f221598ef8ed2802b717a319",
    "NN_B": "b2259ab4638b00053ebcaa8af4ae175cdc0f44160ba5922c3fb5fe7e0d2bef92",
    "PI": "3c3bcad8eef55557710d9d085d7434742f28b58a104c8c81f327a39ba4028f12",
    "PI_AB": "1aad71b9d140f730bff62920d3974c14428d4b66d7a02a481da8494668bfcfd7",
    "P_B": "9f9253333465329f0947258e4006c492af1d9874b68a8f02c60464402ea2c6d6",
    "P_B_AB": "4a74b7f0956e107a5eb427bd062a06cc23e07dac1b58941c07a7ebadb9c9a1da",
    "P_D": "afcc4820f7a100955456fa28f7dba3d453692e18bb834119476d2ca53ea26682",
    "P_D_AB": "37b85d4ff7c219b5cb193feb6fb9a66206849b5921c6fbff9098fc3abff155c5",
}


def _size_and_group_flags(spec):
    flags = ["--n", str(spec.n)]
    if spec.is_ab:
        return flags + ["--groupA", str(spec.groups[0]), "--groupB", str(spec.groups[1])]
    return flags + [f for g in spec.groups for f in ("--group", str(g))]


def test_enum_jsonl_streams_are_pinned(capsys, all_desk_specs):
    digests = {}
    for spec in all_desk_specs:
        flags = _size_and_group_flags(spec)
        code, out = run_cli(
            capsys, "enum", "--family", spec.family, "--format", "jsonl", *flags
        )
        assert code == 0
        digest = digests.setdefault(spec.family, hashlib.sha256())
        digest.update(" ".join(flags).encode() + b"\n" + out.encode())
    assert {k: d.hexdigest() for k, d in digests.items()} == ENUM_JSONL_SHA256


# sha256 of `arcact orbits` per two-group family, over n = 0..3 and the
# group pairs below, each output headed by its --n/--groupA/--groupB flags:
# the json format, then the table format.  Recorded while every orbit was
# still built by applying the whole acting family to one of its members, and
# re-recorded when the table began naming the empty partition "(empty)": the
# n = 0 table lines of the A and D families are the only outputs that moved.
ORBIT_PAIRS = (("Z2", "Z2"), ("Z2", "Z3"), ("Z3", "Z2"))
ORBITS_SHA256 = {
    "NC_AB": "d5352b81ce2c75bca6fc67ec651800d3df394999f6a5e78939c99ebd41ea870e",
    "NC_TILDE_B_AB": "ea7f2ae5a09e30490d9eeafebd0642b4e58d0439c922ad7d1074d00b51ec0011",
    "NC_TILDE_D_AB": "414446dffbf39b79244623a8f6ab2c9db1d197a77609934898d3a2e66177004d",
    "PI_AB": "aa673c19aaae6cbb2e20b658939cca323075760a02afc92038959cf933726d2a",
    "P_B_AB": "4ebb5fe8a2b70f2d93a975be7735a60551821494ed1fb1f79c33217dd2125630",
    "P_D_AB": "d2b89b64d000e0455119cf779dece463d6778e2012a487d580ecd2a1c5048c55",
}


def test_orbits_outputs_are_pinned(capsys):
    digests = {}
    for family in sorted(ORBITS_SHA256):
        digest = digests.setdefault(family, hashlib.sha256())
        for n in range(4):
            for group_a, group_b in ORBIT_PAIRS:
                flags = ["--n", str(n), "--groupA", group_a, "--groupB", group_b]
                digest.update(" ".join(flags).encode() + b"\n")
                for fmt in ("json", "table"):
                    code, out = run_cli(
                        capsys, "orbits", "--family", family, "--format", fmt, *flags
                    )
                    assert code == 0
                    digest.update(out.encode())
    assert {k: d.hexdigest() for k, d in digests.items()} == ORBITS_SHA256
