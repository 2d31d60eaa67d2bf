import os
import subprocess
import sys

import pytest

from arcact import oeis
from arcact.poly import assoc_stirling2


def test_parse_bfile():
    assert oeis.parse_bfile("0 1\n1 1\n2 2") == {0: 1, 1: 1, 2: 2}
    assert oeis.parse_bfile("# comment\n1 5") == {1: 5}
    assert oeis.parse_bfile("") == {}
    assert oeis.parse_bfile("  3   -7  \n") == {3: -7}


def test_parse_bfile_errors():
    with pytest.raises(oeis.BFileError, match="line 1"):
        oeis.parse_bfile("1 x")
    with pytest.raises(oeis.BFileError, match="duplicate"):
        oeis.parse_bfile("1 5\n1 6")
    with pytest.raises(oeis.BFileError):
        oeis.parse_bfile("1 2 3")


def test_vendored_checks():
    for name, (oid, offset) in oeis.KNOWN_SEQUENCES.items():
        report = oeis.oeis_check(name, oid, offset, 12)
        assert report["ok"], report
        assert report["checked"] == 13


def test_wrong_offset_is_detected():
    report = oeis.oeis_check("Bell_B", "A007405", 1, 6)
    assert not report["ok"]
    assert report["mismatches"][0]["n"] == 0


def test_a_gap_or_a_wrong_term_in_the_bfile_is_reported_in_index_order(tmp_path):
    # entries out of order, a gap at index 3, a negative index below the
    # offset and a wrong term at n = 5: the first mismatch in n order is
    # reported, counted with the terms before it
    path = tmp_path / "b.txt"
    path.write_text("5 649\n0 1\n-1 7\n2 6\n1 2\n4 116\n6 4088\n")
    report = oeis.oeis_check("Bell_B", "A007405", 0, 6, str(path))
    assert (report["checked"], report["ok"]) == (5, False)
    assert report["mismatches"] == [{"n": 5, "computed": 648, "bfile": 649}]
    report = oeis.oeis_check("Bell_B", "A007405", 0, 4, str(path))
    assert (report["checked"], report["ok"], report["mismatches"]) == (4, False, [])


def test_oeis_check_time_does_not_grow_with_n_max():
    # 10^12 terms asked of a 24-entry b-file: only its entries are walked
    # (walking every n took 1.8 s at n_max = 3*10^7, so hours here)
    code = (
        "from arcact import oeis; r = oeis.oeis_check('Bell_B', 'A007405', 0, 10**12);"
        " print(r['checked'], r['ok'], r['mismatches'])"
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True,
        timeout=20,
    )
    assert out.stdout.strip() == "24 False []"


def test_missing_bfile_raises_io_error():
    with pytest.raises(oeis.OeisIOError):
        oeis.load_bfile("A999999")
    with pytest.raises(oeis.OeisIOError):
        oeis.load_bfile("A007405", path="/nonexistent/file.txt")


def test_explicit_path(tmp_path):
    path = tmp_path / "b.txt"
    path.write_text("0 1\n1 2\n2 6\n")
    report = oeis.oeis_check("Bell_B", "A007405", 0, 2, str(path))
    assert report["ok"] and report["checked"] == 3


def test_assoc_stirling_triangle_matches_vendored_file():
    ref = oeis.load_bfile("A008299")
    index = 1
    for n in range(2, 14):
        for k in range(1, n // 2 + 1):
            assert ref.values[index] == assoc_stirling2(n, k), (n, k)
            index += 1


def test_load_bfile_ignores_cache_env(tmp_path, monkeypatch):
    (tmp_path / "b007405.txt").write_text("0 1\n1 2\n2 6\n3 25\n")
    monkeypatch.setenv("ARCACT_OEIS_CACHE", str(tmp_path))
    ref = oeis.load_bfile("A007405")
    assert ref.source == str(oeis.vendored_path("A007405"))
    assert oeis.oeis_check("Bell_B", "A007405", 0, 12)["ok"]


def test_cli_import_loads_no_network_stack():
    code = "import sys, arcact.cli; print('urllib.request' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True
    )
    assert out.stdout.strip() == "False"
