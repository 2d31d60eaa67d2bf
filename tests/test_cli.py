import json

import pytest

from arcact.cli import main
from arcact.core import partition_from_json, unlabeled, ground_a


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


def test_verify_single_id(capsys):
    code, out = run_cli(
        capsys, "verify", "--id", "touchard", "--profile", "quick",
        "--format", "json",
    )
    assert code == 0
    data = json.loads(out)
    assert data["ok"] and data["results"][0]["id"] == "touchard"


def test_verify_unknown_id_is_usage_error(capsys):
    with pytest.raises(SystemExit) as err:
        main(["verify", "--id", "bogus"])
    assert err.value.code == 2


def test_usage_error_exit_code(capsys):
    with pytest.raises(SystemExit) as err:
        main(["enum", "--family", "NOPE", "--n", "2", "--group", "Z2"])
    assert err.value.code == 2
    with pytest.raises(SystemExit) as err:
        main(["enum", "--family", "PI", "--n", "2", "--group", "Q8"])
    assert err.value.code == 2


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


def test_chartable_scale_guard(capsys):
    code = main(
        ["chartable", "--kind", "A", "--n", "9", "--p", "3",
         "--max-group-order", "1000"]
    )
    assert code == 1
