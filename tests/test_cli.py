import hashlib
import json

import pytest

from arcact import cli, unitriangular
from arcact.cli import main
from arcact.core import partition_from_json, unlabeled, ground_a
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
    ],
)
def test_oversized_chartables_are_refused_up_front(capsys, monkeypatch, kind, n, p):
    def refuse(*args):
        raise AssertionError("an oversized table got past the size guard")

    monkeypatch.setattr(unitriangular, "enumerate_family", refuse)
    monkeypatch.setattr(unitriangular, "group_elements", refuse)
    monkeypatch.setattr(cli, "is_prime", refuse)
    code = main(["chartable", "--kind", kind, "--n", str(n), "--p", str(p)])
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
# still built by applying the whole acting family to one of its members.
ORBIT_PAIRS = (("Z2", "Z2"), ("Z2", "Z3"), ("Z3", "Z2"))
ORBITS_SHA256 = {
    "NC_AB": "68150b9a015cf6c03d0e0762bcfe35f26b732cd1305133be69ad1b8ee4f3ef4b",
    "NC_TILDE_B_AB": "ea7f2ae5a09e30490d9eeafebd0642b4e58d0439c922ad7d1074d00b51ec0011",
    "NC_TILDE_D_AB": "e4eb10db1e5011991cdd682f776116f59f0fdcba4fa0d53324d94fec75cdd2d0",
    "PI_AB": "52dfc81ff525c05db779dee228c656f5b34ff7e0ba27d20c6e2932c358e72239",
    "P_B_AB": "4ebb5fe8a2b70f2d93a975be7735a60551821494ed1fb1f79c33217dd2125630",
    "P_D_AB": "37b38dbd65db352aff9e0cf8cfe074759b1487098b2ffa04b5bdf7213d2c31a9",
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
