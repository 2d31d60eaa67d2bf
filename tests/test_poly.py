import hashlib
import json
import random
from math import comb

import pytest

from arcact import identities, poly
from arcact.cli import main
from arcact.poly import (
    CLOSED,
    FAMILY_NAMES,
    BiPoly,
    X,
    Y,
    bell_univariate,
    cat_univariate,
    catalan,
    catb_closed,
    catd_closed,
    enumerated_family,
    family,
    feasible_closed,
    motzkin_closed,
    narayana,
    stirling2,
    transfer_family,
)


def test_arithmetic():
    one_plus_x = BiPoly.const(1) + X
    assert one_plus_x * one_plus_x == BiPoly({(0, 0): 1, (1, 0): 2, (2, 0): 1})
    p = BiPoly({(0, 0): 1, (0, 1): 2, (1, 0): 1, (0, 2): 1})
    assert p.eval_int(1, 1) == 5
    assert p * BiPoly.zero() == BiPoly.zero()
    assert (X + Y) ** 2 == X * X + 2 * X * Y + Y * Y
    assert (X - Y).eval_int(3, 5) == -2
    assert str(BiPoly.zero()) == "0"
    assert p.scale_x(2).eval_int(1, 1) == 1 + 2 + 2 + 1
    assert (X * Y).subst_y_diag() == X * X


def test_number_tables():
    assert narayana(4, 2) == 6
    assert catalan(3) == 5
    assert [stirling2(4, k) for k in range(1, 5)] == [1, 7, 6, 1]
    assert poly.assoc_stirling2(6, 2) == 25
    assert poly.whitney2_B(2, 1) == 4
    # past the end of a row every triangle is zero
    assert stirling2(3, 4) == narayana(3, 4) == poly.assoc_stirling2(4, 3) == 0
    for table in (stirling2, narayana, poly.assoc_stirling2, poly.whitney2_B):
        with pytest.raises(ValueError):
            table(-1, 0)
        with pytest.raises(ValueError):
            table(1, -1)
    with pytest.raises(ValueError):
        catalan(-1)


def test_family_examples():
    assert family("Bell", 3) == BiPoly({(0, 0): 1, (1, 0): 1, (0, 1): 2, (0, 2): 1})
    assert family("Cat_B", 2).subst_y_diag() == BiPoly(
        {(0, 0): 1, (1, 0): 4, (2, 0): 1}
    )
    assert family("M", 4) == BiPoly({(0, 0): 1, (1, 0): 6, (2, 0): 2})
    assert family("F", 4) == BiPoly({(2, 0): 3, (3, 0): 1})
    with pytest.raises(ValueError):
        family("nope", 3)
    with pytest.raises(ValueError):
        family("Bell", -1)


def test_transfer_equals_enumeration():
    for name in FAMILY_NAMES:
        n_max = 6 if name in ("Bell", "Cat", "F", "M") else 4
        for n in range(n_max + 1):
            assert transfer_family(name, n) == enumerated_family(name, n), (name, n)


def _recursions():
    """The twelve transfer recursions (one for each has_zero where a
    recursion takes one)."""
    transfers = [
        t for v in vars(poly).values() for t in (v if isinstance(v, tuple) else (v,))
        if isinstance(t, poly._Transfer)
    ]
    assert len(transfers) == 12
    return transfers


def test_recursions_do_no_polynomial_arithmetic(monkeypatch):
    """The driver adds each way's monomial into plain coefficient dicts: with
    BiPoly's arithmetic and every closed formula made to raise, every
    recursion, run cold, gives the values it gave before."""
    recursions = _recursions()
    expected = {
        (name, n): dict(transfer_family(name, n).coeffs)
        for name in FAMILY_NAMES
        for n in range(9)
    }

    def refuse(*args):
        raise AssertionError("a transfer recursion read a closed formula or did arithmetic")

    for op in ("__mul__", "__rmul__", "__add__", "__radd__"):
        monkeypatch.setattr(BiPoly, op, refuse)
    monkeypatch.setattr(poly, "CLOSED", dict.fromkeys(poly.CLOSED, refuse))
    for name in list(vars(poly)):
        if name.endswith(("_closed", "_univariate")) or name in ("catalan", "narayana"):
            monkeypatch.setattr(poly, name, refuse)
    for recursion in recursions:
        recursion.cache_clear()
    for (name, n), coeffs in expected.items():
        assert transfer_family(name, n).coeffs == coeffs, (name, n)


def test_recursions_extend_in_any_order():
    """Each recursion keeps its last states and its value at every n it has
    passed, and extends the run, so any order of requests gives the values
    of the ascending one, each order run cold."""
    ascending = [(name, n) for n in range(13) for name in FAMILY_NAMES]
    # M_B(n+2) before M_B(n+1), and so on: each request one past the last
    interleaved = [(name, m) for n in range(12) for m in (n + 1, n) for name in FAMILY_NAMES]
    shuffled = ascending[:]
    random.Random(0).shuffle(shuffled)
    values = []
    for order in (ascending, ascending[::-1], interleaved + [(name, 12) for name in FAMILY_NAMES],
                  shuffled):
        for recursion in _recursions():
            recursion.cache_clear()
        values.append({key: transfer_family(*key).coeffs for key in order})
    assert len(values[0]) == 13 * len(FAMILY_NAMES)
    assert all(v == values[0] for v in values[1:])


def _random_coeffs(rng, terms, zeros=True):
    out = {}
    for _ in range(terms):
        value = rng.randint(-3, 3) if zeros else rng.choice((-2, -1, 1, 2))
        out[(rng.randint(0, 3), rng.randint(0, 3))] = value * rng.choice((1, 10**30))
    return out


def test_internal_construction_matches_public_constructor():
    """BiPoly._clean, used by the arithmetic, against BiPoly(...) on the
    same dicts, and every operation against a dict-level reference that
    goes through the public constructor; sums that cancel included."""
    rng = random.Random(6)
    for _ in range(300):
        raw = _random_coeffs(rng, rng.randint(0, 8))
        assert BiPoly._clean(raw).coeffs == BiPoly(raw).coeffs
        p = BiPoly(raw)
        # q cancels every other term of p
        cancel = {k: -v for k, v in list(p.coeffs.items())[::2]}
        q = BiPoly({**_random_coeffs(rng, rng.randint(0, 8), zeros=False), **cancel})
        c = rng.randint(-3, 3)
        added = dict(p.coeffs)
        for key, value in q.coeffs.items():
            added[key] = added.get(key, 0) + value
        product = {}
        for (a, b), u in p.coeffs.items():
            for (e, f), v in q.coeffs.items():
                product[(a + e, b + f)] = product.get((a + e, b + f), 0) + u * v
        diagonal = {}
        for (a, b), u in p.coeffs.items():
            diagonal[(a + b, 0)] = diagonal.get((a + b, 0), 0) + u
        cases = [
            (p + q, BiPoly(added)),
            (p * q, BiPoly(product)),
            (-p, BiPoly({k: -v for k, v in p.coeffs.items()})),
            (p * c, BiPoly({k: v * c for k, v in p.coeffs.items()})),
            (p.scale_x(c), BiPoly({(a, b): v * c**a for (a, b), v in p.coeffs.items()})),
            (p.subst_y_diag(), BiPoly(diagonal)),
            (p - p, BiPoly()),
            (p + q - q, p),
            ((p + q) * (p - q), p * p - q * q),
        ]
        for got, want in cases:
            assert got.coeffs == want.coeffs
            assert all(got.coeffs.values())
            assert all(type(v) is int for v in got.coeffs.values())


def test_closed_forms_equal_transfer():
    assert set(CLOSED) == set(FAMILY_NAMES)
    for n in range(9):
        for name, closed in CLOSED.items():
            assert transfer_family(name, n).subst_y_diag() == closed(n).subst_y_diag(), (name, n)
        assert transfer_family("M", n) == motzkin_closed(n)
        assert transfer_family("F", n) == feasible_closed(n)
        assert family("M_B", n) == family("M_D", n)


BIVARIATE = ("Bell", "Cat", "Bell_B", "Bell_D", "Cat_B", "Cat_D")


def test_bivariate_closed_forms_equal_transfer():
    for name in BIVARIATE:
        n_max = 12 if name in ("Cat_B", "Cat_D") else 20
        for n in range(n_max + 1):
            assert CLOSED[name](n) == transfer_family(name, n), (name, n)


def test_family_never_runs_a_recursion(monkeypatch):
    expected = {(name, n): transfer_family(name, n) for name in FAMILY_NAMES for n in range(8)}

    def refuse(name, n):
        raise AssertionError(f"transfer recursion run for {name}[{n}]")

    monkeypatch.setattr(poly, "transfer_family", refuse)
    for (name, n), value in expected.items():
        assert family(name, n).subst_y_diag() == value.subst_y_diag(), (name, n)
        if name in BIVARIATE:
            assert family(name, n) == value, (name, n)


def test_symbolic_paired_identities_read_the_recursion(monkeypatch):
    """Each symbolic side of a paired identity that names a bivariate family
    reads transfer_family, so a wrong recursion fails every paired check."""
    paired = [
        cid for cid in identities.registry_ids()
        if f"{cid}-enum" in identities.registry_ids()
    ]
    assert len(paired) == 16
    for cid in paired:
        assert identities.run(cid, "quick").ok, cid
    right = identities.transfer_family
    monkeypatch.setattr(identities, "transfer_family", lambda name, n: right(name, n) + 1)
    for cid in paired:
        assert identities.run(cid, "quick").status == "fail", cid


def test_diagonal_specialisations():
    # Bell and Cat at y = x are the block-count generating polynomials
    for n in range(7):
        assert bell_univariate(n) == sum(
            (
                BiPoly.term(stirling2(n, k), n - k)
                for k in range(n + 1)
            ),
            BiPoly.zero(),
        )
        assert cat_univariate(n) == sum(
            (
                BiPoly.term(narayana(n, k), n - k)
                for k in range(n + 1)
            ),
            BiPoly.zero(),
        )


def test_central_binomial_evaluations():
    from math import comb

    for n in range(11):
        assert catb_closed(n).eval_int(1) == comb(2 * n, n)
    for n in range(10):
        assert catd_closed(n + 1).eval_int(1) == comb(2 * n + 1, n)


def test_latex_and_str_are_deterministic():
    p = family("Cat", 3)
    assert str(p) == "1 + 2*y + x + y^2"
    assert p.latex() == "1 + 2y + x + y^{2}"


# sha256 per family of `arcact poly` in the json, latex and table formats at
# n = 0..12, and of str(transfer_family(name, n)) at n = 0..11, one line each
POLY_CLI_SHA256 = {
    "Bell": "ee6112ef4f13d73dbbe75784aacba6152b7abfd683d30e05914fd9f249c3f01e",
    "Cat": "6cae5d1c36b3c84a06997fa5ac07c1adf029ed0ad4c49ab9979c46c95c258764",
    "F": "fde7e3abfce8f76af3266e16290dcb1bbed62a8caa4025e449c59e29798f142d",
    "M": "911e70b19b08f8853054bf537e8dbbd35063a262bc6bf0b237e47bda3d578744",
    "Bell_B": "0a5b66e927afa90e354d3c59651d2ef1cf8bd278d3d421244ea46774884f701e",
    "Bell_D": "4e6a1fbfb89d34be9619949f534bfe3ad6d902360431c90247fc48c4a44b82e2",
    "Cat_B": "6a36f8d8d207be698b7f52feb07c3241056994fc73c0348d45360f9d9f8561bc",
    "Cat_D": "76d2ce6b47c0c4b8c911b009b21feb109c4ab051164d29d113247e0e015c5b51",
    "F_B": "2e83b5710750802c46553867108e1f1f14e3f68793dc8d2a698336f2daac89cd",
    "F_D": "c52434167b4bd0cbe745fa5f06e30dec7b737c0885e16ddaa240dc91f2ee974f",
    "M_B": "f33cadf273110bd1dd0897ba69de52bfce62e4409d010d15a7b27c40a4395ad4",
    "M_D": "383bd87763aae80a498a1263692aa3c4139b6eb137a0386aa2a16785f984ce73",
    "F_B_tilde": "096909fe6d0ab5a833c7b2fe269f7cc702ee2bcf5e8fd1fdeaa9e3ecd64773c3",
    "M_B_tilde": "6f8b1cc727a47c4e8335e418fd4ba96ea10a78702541f2f17dacf8eef8474c7a",
}
TRANSFER_STR_SHA256 = {
    "Bell": "c0540bb43cb5e942a79b3f407f95d60d03f85154467a01d1b9f86705ead84a3b",
    "Cat": "5a62f25076d1d5fecf9f79d5844f7ce7ec4ea50a6fa76b8c4d91be9eacd95f18",
    "F": "1b8caa5701ad80325d003ce2eda5f1db92657e2ac512b099fcbd0299421e41d0",
    "M": "6dd78d7ab5571285f8fb44ab28fe0bcbefbfd39985a045c5c634c5cd5fa82176",
    "Bell_B": "a5bfff06a7cbdb2d6ba57e68c0f3a65f636b24d01b04f6be2c819f2954f57496",
    "Bell_D": "0af437372a921612215e156431c371aec1ee6517b8b1ed7976de6ce8b9947b20",
    "Cat_B": "bb81285fb87ef4d1718aaf96428913e858450dc7d4e05de47c04d9c86ca14c81",
    "Cat_D": "51b603b789267ac4a740dd422fa1b58c57c58fb1a8ecb280bacde8f76b60ecc2",
    "F_B": "77731ee7fd22bc941660b1c2d401bd0dda8c6b5e1cf6f5ba6b53aa57c0564375",
    "F_D": "9f10ff13515ac319b4625757e8d1bbc4f6dc8cdc0e665a03f794bcf69dc43c6d",
    "M_B": "0419059d7e91685e0e41f5e6b337f53f5df3a80ef6652d4b32003e68dab20dac",
    "M_D": "0419059d7e91685e0e41f5e6b337f53f5df3a80ef6652d4b32003e68dab20dac",
    "F_B_tilde": "7aaabee84b79e6073960909ea1661c27da28eaf18e75d3c7a94f1ac195347cfc",
    "M_B_tilde": "5173b9db2205beafec05e132edd509832fd63113365a19a6fa5811c5f95fd47b",
}


def test_poly_outputs_are_pinned(capsys):
    cli, transfer = {}, {}
    for name in FAMILY_NAMES:
        digest = hashlib.sha256()
        for n in range(13):
            for fmt in ("json", "latex", "table"):
                assert main(["poly", "--family", name, "--n", str(n), "--format", fmt]) == 0
                digest.update(capsys.readouterr().out.encode())
        cli[name] = digest.hexdigest()
        digest = hashlib.sha256()
        for n in range(12):
            digest.update(str(transfer_family(name, n)).encode() + b"\n")
        transfer[name] = digest.hexdigest()
    assert cli == POLY_CLI_SHA256
    assert transfer == TRANSFER_STR_SHA256


@pytest.mark.parametrize(
    "name, value",
    [("Cat", catalan(200)), ("Cat_B", comb(400, 200)), ("Cat_D", comb(399, 200))],
)
def test_poly_cli_at_scale(capsys, name, value):
    assert main(["poly", "--family", name, "--n", "200", "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["family"] == name and data["n"] == 200
    assert sum(c["value"] for c in data["coefficients"]) == value


@pytest.fixture
def cold_number_tables():
    tables = (poly.stirling2, poly.assoc_stirling2, poly.whitney2_B)
    for table in tables:
        table.cache_clear()
    yield
    for table in tables:
        table.cache_clear()


# a table memoised by recursion on n hit the recursion limit from n = 500 on
@pytest.mark.parametrize("name", ["F", "F_D"])
def test_poly_cli_on_cold_number_tables(capsys, cold_number_tables, name):
    assert main(["poly", "--family", name, "--n", "600", "--format", "json"]) == 0
    out, err = capsys.readouterr()
    assert err == "" and json.loads(out)["n"] == 600


def test_cold_number_tables_fill_rows_without_recursion(cold_number_tables):
    assert poly.stirling2(600, 2) == 2**599 - 1
    assert poly.whitney2_B(600, 0) == 1
