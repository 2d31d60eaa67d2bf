import ast
import inspect
from types import SimpleNamespace

import pytest

from arcact import action, core, identities
from arcact import unitriangular as ut
from arcact.core import (
    LabeledSetPartition, blocks_from_arcs, ground_a, ground_b, to_rook, unlabeled,
)
from arcact.families import family_members, family_shapes


def test_unknown_id_raises():
    with pytest.raises(ValueError):
        identities.run("no-such-check")


def test_unknown_profile_raises():
    # an unknown profile once ran the quick parameters
    with pytest.raises(ValueError, match="^unknown profile 'large'$"):
        identities.run("rank-invert-A", "large")
    with pytest.raises(ValueError, match="^unknown profile 'large'$"):
        identities.run_all("large", ids=["rank-invert-A"])


def test_failures_carry_witnesses():
    assert list(identities._eq("n=3", 5, 7)) == ["n=3: 5 != 7"]
    assert list(identities._eq("tag", 1, 1, 1)) == []


def _drained(gen):
    """The witnesses a helper yields, and what it returns."""
    witnesses = []
    while True:
        try:
            witnesses.append(next(gen))
        except StopIteration as stop:
            return witnesses, stop.value


def test_bijection_witnesses():
    a, b = unlabeled(ground_a(2), [(1,), (2,)]), unlabeled(ground_a(2), [(1, 2)])

    def refuse(p):
        raise core.StructuralError("refused")

    assert _drained(identities._bijection("t", lambda p: p, [a, b], [b, a])) == ([], {a: a, b: b})
    swap = {a: b, b: a}.get
    assert _drained(identities._bijection("t", swap, [a, b], [a, b], swap)) == ([], {b: a, a: b})
    assert _drained(identities._bijection("t", refuse, [a], None)) == (
        ["t: no image of {1}{2}: refused"], {}
    )
    assert _drained(identities._bijection("t", lambda p: a, [a, b], [a, b])) == (
        [
            "t: {1}{2} and {1,2} (1,2)=1 both map to {1}{2}",
            "t: image mismatch missing=['{1,2} (1,2)=1'] extra=[]",
        ],
        {a: a},
    )
    assert _drained(identities._bijection("t", lambda p: p, [a, b], [a], lambda q: a)) == (
        [
            "t: the inverse takes {1,2} (1,2)=1 to {1}{2}, not {1,2} (1,2)=1",
            "t: image mismatch missing=[] extra=['{1,2} (1,2)=1']",
        ],
        {a: a, b: b},
    )
    assert _drained(identities._bijection("t", lambda p: p, [a], None, refuse)) == (
        ["t: the inverse refuses {1}{2}, the image of {1}{2}: refused"], {a: a}
    )
    # an image is kept as the codomain member it equals, not as f's own copy
    copy = unlabeled(ground_a(2), [(1,), (2,)])
    (kept,) = _drained(identities._bijection("t", lambda p: copy, [a], [a]))[1]
    assert kept is a and copy is not a


def test_witness_shape_in_both_contexts():
    def wrong(c, n):
        *sides, rhs = identities._a_identities_1(c, n)
        return (*sides, rhs + 1)

    symbolic = list(identities._evaluate(wrong, (identities._SYMBOLIC,), 0, 2))
    assert symbolic[0] == "n=0: 1 != 2"
    counting = identities._counting(identities.Z2, identities.Z2)
    enumerative = list(identities._evaluate(wrong, (counting,), 0, 2))
    assert enumerative[0] == "n=0,A=Z2,B=Z2: 1 != 2"
    assert len(symbolic) == len(enumerative) == 3


def _registered(monkeypatch, fn):
    monkeypatch.setitem(
        identities._REGISTRY, "generator", identities.Check("generator", "structural", "", fn, {}, {})
    )


def test_run_stops_at_the_first_witness(monkeypatch):
    def check():
        yield "a"
        raise AssertionError("read past the first witness")

    _registered(monkeypatch, check)
    result = identities.run("generator")
    assert (result.status, result.witness) == ("fail", "a")


def test_run_drains_a_passing_check(monkeypatch):
    reached = []

    def check():
        yield from identities._eq("tag", 1, 1)
        reached.append("end")

    _registered(monkeypatch, check)
    assert identities.run("generator").ok
    assert reached == ["end"]


@pytest.mark.parametrize(
    "cid, namespace, name",
    [
        ("NNB-counts", identities, "negate"),
        ("restriction-B", identities.maps, "halve"),
        ("orbit-main", identities.maps, "unshift"),
        ("superclass-sizes-A", identities, "from_triples"),
    ],
)
def test_a_refusal_escaping_a_check_is_its_witness(monkeypatch, cid, namespace, name):
    # each map is called outside _bijection, so its refusal reaches run; it
    # once escaped run and cli.main reported a usage error naming no check
    def refuse(*args):
        raise core.StructuralError("refused for test")

    monkeypatch.setattr(namespace, name, refuse)
    result = identities.run(cid, "quick")
    assert (result.status, result.witness) == (
        "fail", f"{cid}: StructuralError: refused for test"
    )


def test_a_witness_at_n_0_names_the_empty_partition(monkeypatch):
    def refuse(p):
        raise core.StructuralError("refused for test")

    monkeypatch.setattr(identities.maps, "uncross_d_inverse", refuse)
    assert identities.run("uncrossB-props", "quick").witness == (
        "n=0 uncross: the inverse refuses (empty), the image of (empty): refused for test"
    )


# a helper that yields witnesses, called bare, builds a generator nobody reads,
# and its check passes
_WITNESS_HELPERS = {"_eq", "_evaluate", "_counted_shapes", "_orbit_checker", "_bijection"}


def test_every_witness_helper_is_drained():
    tree = ast.parse(inspect.getsource(identities))
    drained = {
        id(node.value) for node in ast.walk(tree) if isinstance(node, (ast.YieldFrom, ast.Return))
    }
    calls = [
        node
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id in _WITNESS_HELPERS
    ]
    assert {node.func.id for node in calls} == _WITNESS_HELPERS
    assert [(n.func.id, n.lineno) for n in calls if id(n) not in drained] == []


def test_run_reports_pass():
    result = identities.run("touchard", n_max=6)
    assert result.ok and result.status == "pass" and result.witness is None
    assert result.mode == "symbolic"


def test_run_override_params():
    result = identities.run("coker", n_max=3)
    assert result.params == "('n_max', 3)"


@pytest.fixture(scope="module")
def quick_report():
    """The quick profile, run once for every test in this module that reads it."""
    return identities.run_all(profile="quick")


def test_quick_profile_all_green(quick_report):
    bad = [r for r in quick_report.results if not r.ok]
    assert quick_report.ok, bad
    assert len(quick_report.results) == len(identities.registry_ids())


def test_report_json_shape():
    report = identities.run_all(profile="quick", ids=["touchard"])
    data = report.to_json_dict()
    assert data["ok"] is True
    entry = data["results"][0]
    assert {"id", "mode", "range", "status", "millis"} <= set(entry)


_Z2, _Z3, _Z2Z2 = "GroupSpec(moduli=(2,))", "GroupSpec(moduli=(3,))", "GroupSpec(moduli=(2, 2))"
_ALL_PAIRS = (
    f"(({_Z2}, {_Z2}), ({_Z2}, {_Z3}), ({_Z3}, {_Z2}), ({_Z2Z2}, {_Z2}))"
)
_TWO_PAIRS = f"(({_Z2}, {_Z2}), ({_Z2}, {_Z3}))"


def _n(n_max):
    return f"('n_max', {n_max})"


def _pairs(n_max, pairs):
    return f"{_n(n_max)}; ('pairs', {pairs})"


_SYM = ("symbolic", _n(10), _n(6))
_SYM_FULL = ("symbolic", _n(10), _n(10))
_ENUM_A = ("enumerative", _pairs(5, _ALL_PAIRS), _pairs(2, _TWO_PAIRS))
_ENUM_BD = ("enumerative", _pairs(3, _ALL_PAIRS), _pairs(2, _TWO_PAIRS))
_THREE_TERM = ("symbolic", "('n_max', 10); ('n_min', 2)", "('n_max', 10); ('n_min', 2)")

# id -> (mode, desk range, quick range), exactly as the verify report prints them
PINNED_REGISTRY = {
    "2blocks-1": ("enumerative", _n(3), _n(2)),
    "2blocks-2": ("enumerative", _n(2), _n(2)),
    "2blocks-3": ("enumerative", _n(5), _n(5)),
    "A-identities-1": _SYM,
    "A-identities-1-enum": _ENUM_A,
    "A-identities-2": _SYM,
    "A-identities-2-enum": _ENUM_A,
    "A-incl-excl-1": _SYM,
    "A-incl-excl-1-enum": _ENUM_A,
    "A-incl-excl-2": _SYM,
    "A-incl-excl-2-enum": _ENUM_A,
    "B-identities-1": _SYM,
    "B-identities-1-enum": _ENUM_BD,
    "B-identities-2": _SYM,
    "B-identities-2-enum": _ENUM_BD,
    "B-identities-3": _SYM,
    "B-identities-3-enum": _ENUM_BD,
    "B-identities-4": _SYM,
    "B-identities-4-enum": _ENUM_BD,
    "B-incl-excl-1": _SYM,
    "B-incl-excl-1-enum": _ENUM_BD,
    "B-incl-excl-2": _SYM,
    "B-incl-excl-2-enum": _ENUM_BD,
    "B-incl-excl-3": _SYM,
    "B-incl-excl-3-enum": _ENUM_BD,
    "B-incl-excl-4": _SYM,
    "B-incl-excl-4-enum": _ENUM_BD,
    "NNB-counts": ("enumerative", _n(5), _n(3)),
    "bell-binom-transform": _SYM_FULL,
    "bellD-eq": _SYM_FULL,
    "catB-closed": _SYM_FULL,
    "catD-closed": _SYM_FULL,
    "coker": _SYM_FULL,
    "hanging-1": _SYM,
    "hanging-1-enum": _ENUM_BD,
    "hanging-2": _SYM,
    "hanging-2-enum": _ENUM_BD,
    "mob-rec": _SYM_FULL,
    "motzkin-closed": _SYM_FULL,
    "motzkinB-closed": _SYM_FULL,
    "orbit-B": ("structural", _pairs(4, _ALL_PAIRS), _pairs(2, _TWO_PAIRS)),
    "orbit-D": ("structural", _pairs(4, _ALL_PAIRS), _pairs(2, _TWO_PAIRS)),
    "orbit-main": ("structural", _pairs(4, _ALL_PAIRS), _pairs(3, _TWO_PAIRS)),
    "rank-invert-A": ("structural", _n(8), _n(5)),
    "rank-invert-B": ("structural", _n(5), _n(3)),
    "rank-invert-D": ("structural", _n(5), _n(3)),
    "riordan": _SYM_FULL,
    "shift-bij-A": (
        "structural",
        f"('group', {_Z3}); {_n(5)}",
        f"('group', {_Z2}); {_n(4)}",
    ),
    "shift-bij-BD": (
        "structural",
        f"('group', {_Z3}); {_n(3)}",
        f"('group', {_Z2}); {_n(2)}",
    ),
    "spivey-1": ("symbolic", "('m_max', 4); ('n_max', 4)", "('m_max', 4); ('n_max', 4)"),
    "spivey-2": ("symbolic", "('m_max', 4); ('n_max', 4)", "('m_max', 4); ('n_max', 4)"),
    "sym-dyck": ("enumerative", _n(5), _n(3)),
    "three-term-1": _THREE_TERM,
    "three-term-1-enum": _ENUM_A,
    "three-term-2": _THREE_TERM,
    "three-term-2-enum": _ENUM_BD,
    "tilde-1": _SYM_FULL,
    "tilde-2": _SYM_FULL,
    "touchard": _SYM_FULL,
    "uncrossB-props": ("structural", _n(4), _n(3)),
    "golden-sequences": ("symbolic", _n(10), _n(4)),
    "oeis-bfiles": ("symbolic", f"{_n(22)}; ('rows', 16)", f"{_n(8)}; ('rows', 8)"),
    "supercharacters": (
        "enumerative",
        "('sizes', (('A', 3, 2), ('A', 4, 2), ('A', 5, 2), ('A', 3, 3), ('A', 4, 3),"
        " ('B', 1, 3), ('B', 2, 3), ('D', 2, 3), ('D', 3, 3)))",
        "('sizes', (('A', 3, 2), ('A', 3, 3), ('B', 1, 3), ('D', 2, 3)))",
    ),
    "superclass-sizes-A": (
        "structural",
        "('sizes', ((3, 2), (4, 2), (5, 2), (4, 3), (4, 5)))",
        "('sizes', ((3, 2), (4, 3)))",
    ),
    "superclass-sizes-BD": (
        "structural",
        "('sizes', (('B', 1, 3), ('B', 2, 3), ('B', 2, 5), ('B', 3, 3), ('D', 2, 3), ('D', 3, 3)))",
        "('sizes', (('B', 1, 3), ('D', 2, 3)))",
    ),
    "restriction-B": (
        "structural",
        "('sizes', ((1, 3), (2, 3), (3, 3), (2, 5)))",
        "('sizes', ((1, 3), (2, 3)))",
    ),
    "uncross-NN-NC": ("structural", _n(7), _n(5)),
    "plus-matrix-route": ("structural", f"{_n(4)}; ('n_max_b', 2)", f"{_n(3)}; ('n_max_b', 1)"),
    "uncross-confluence": ("structural", "('n', 7)", "('n', 5)"),
    "reduce-invariance": ("structural", "('n', 4); ('p', 3)", "('n', 3); ('p', 3)"),
    "rook-round-trip": ("structural", f"{_n(5)}; ('n_max_bd', 3)", f"{_n(3)}; ('n_max_bd', 2)"),
}


def test_registry_is_pinned(quick_report):
    assert identities.registry_ids() == tuple(sorted(PINNED_REGISTRY))
    quick = {r.id: (r.mode, r.params) for r in quick_report.results}
    for cid, (mode, desk, quick_range) in PINNED_REGISTRY.items():
        assert quick[cid] == (mode, quick_range), cid
        check = identities._REGISTRY[cid]
        assert check.mode == mode, cid
        assert "; ".join(str(p) for p in sorted(check.desk.items())) == desk, cid


# the per-n checks, the three 2blocks shape counts, the three orbit theorems,
# the three involution checks, the two shift bijections and the two Spivey
# identities, each run at quick under a fault
_FAULT_CHECKS = (
    "coker", "riordan", "motzkin-closed", "bell-binom-transform", "touchard",
    "bellD-eq", "catB-closed", "catD-closed", "mob-rec", "tilde-1", "tilde-2",
    "sym-dyck", "2blocks-1", "2blocks-2", "2blocks-3",
    "orbit-main", "orbit-B", "orbit-D",
    "rank-invert-A", "rank-invert-B", "rank-invert-D",
    "shift-bij-A", "shift-bij-BD", "spivey-1", "spivey-2",
)


def _drop_first_at_two(members):
    def fake(spec):
        it = members(spec)
        if spec.n == 2:
            next(it)
        yield from it

    return fake


def _drop_first_shape_at_two(shapes):
    def fake(family, n):
        return shapes(family, n)[1:] if n == 2 else shapes(family, n)

    return fake


def _identity_involution_at_two(action):
    def fake(p):
        return p if p.ground.n == 2 else action.plus_involution(p)

    return SimpleNamespace(**{**vars(action), "plus_involution": fake})


def _family_off_at_two(poly):
    def fake(name, n):
        return poly.family(name, n) + (1 if n == 2 else 0)

    return SimpleNamespace(**{**vars(poly), "family": fake})


def _keep_first_cover(orbit_representative):
    def fake(lam):
        rep = orbit_representative(lam)
        covers = sorted(lam.cover_arcs())
        if not covers:
            return rep
        labels = {**rep.label_map(), covers[0]: lam.label_map()[covers[0]]}
        blocks = blocks_from_arcs(lam.ground, labels)
        return LabeledSetPartition(lam.ground, lam.group, blocks, labels)

    return fake


_FAULTS = {
    "action": _identity_involution_at_two,
    "transfer_family": lambda real: lambda name, n: real(name, n) + 1,
    "family_members": _drop_first_at_two,
    "family_size": lambda real: lambda spec: real(spec) + (spec.n == 2),
    "poly": _family_off_at_two,
    "family_shapes": _drop_first_shape_at_two,
    "catalan": lambda real: lambda k: real(k) + (k == 3),
    "comb": lambda real: lambda a, b: real(a, b) + ((a, b) == (4, 2)),
    "orbit_representative": _keep_first_cover,
}
# the module each fault rebinds its name in, where it is not identities
_FAULT_MODULES = {"orbit_representative": action}

# fault -> the checks it fails, with their witnesses; every other check passes
_FAULT_WITNESSES = {
    "action": {
        "rank-invert-A": "n=2 {1}{2}: 2 != 1",
        "rank-invert-B": "n=2 {-2}{-1}{0}{1}{2}: 5 != 1",
        "rank-invert-D": "n=2 {-2}{-1}{1}{2}: 4 != 2",
    },
    "transfer_family": {
        "motzkin-closed": "n=0: 2 != 1",
        "bell-binom-transform": "n=0: 2 != 1",
        "bellD-eq": "n=0: 2 != 1",
        "catB-closed": "n=0: 2 != 1",
        "catD-closed": "n=0: 2 != 1",
        "mob-rec": "n=0: 2 + 2*x != 2 + 4*x",
        "tilde-1": "n=0: 2 != 1",
        "tilde-2": "n=0: 2 != 1",
    },
    "family_members": {
        "orbit-main": "PI n=3 A=Z2 B=Z2 representatives:"
        " image mismatch missing=['{1}{2}{3}'] extra=[]",
        "orbit-B": "P_B n=2 A=Z2 B=Z2 representatives:"
        " image mismatch missing=['{-2}{-1}{0}{1}{2}'] extra=[]",
        "shift-bij-A": "A n=1 poor-nc: image mismatch missing=[] extra=['{1}{2}']",
        "shift-bij-BD": "BD n=1 (4): image mismatch missing=[] extra=['{-2}{-1}{1}{2}']",
    },
    # the orbit checks count each two-group family by its polynomial, so no
    # check here reads a family's size
    "family_size": {},
    "poly": {
        "orbit-main": "PI n=2 A=Z2 B=Z2 partition: 2 != 3",
        "orbit-B": "P_B n=2 A=Z2 B=Z2 partition: 6 != 7",
        "orbit-D": "P_D n=2 A=Z2 B=Z2 partition: 3 != 4",
    },
    "family_shapes": {
        "2blocks-1": "n=2 NC_TILDE_D shapes: 2 != 3",
        "2blocks-3": "n=2 NC_TILDE_B shapes: 5 != 6",
        "rank-invert-A": "n=2 PI shapes: 1 != 2",
        "rank-invert-B": "n=2 NC_TILDE_B shapes: 5 != 6",
        "rank-invert-D": "n=2 NC_TILDE_D shapes: 2 != 3",
    },
    "catalan": {
        "coker": "n=6: 1 + 21*x + 105*x^2 + 175*x^3 + 105*x^4 + 21*x^5 + x^6"
        " != 1 + 21*x + 105*x^2 + 176*x^3 + 105*x^4 + 21*x^5 + x^6",
        "touchard": "n=2: 6 != 5",
    },
    "comb": {
        "coker": "n=3: 1 + 7*x + 7*x^2 + x^3 != 1 + 6*x + 6*x^2 + x^3",
        "riordan": "n=4: 1 + 16*x + 36*x^2 + 16*x^3 + x^4"
        " != 1 + 18*x + 41*x^2 + 18*x^3 + x^4",
        "bell-binom-transform": "n=4: 1 + 6*x + 7*x^2 + x^3 != 1 + 7*x + 7*x^2 + x^3",
        "touchard": "n=4: 42 != 46",
        "sym-dyck": "n=2: 6 != 7",
        "2blocks-1": "n=2: 6 != 7",
        "2blocks-3": "n=4: 6 != 7",
        "spivey-1": "m=1,n=4: 1 + 10*x + 25*x^2 + 15*x^3 + x^4"
        " != 1 + 10*x + 26*x^2 + 16*x^3 + x^4",
        "spivey-2": "m=0,n=4: 1 + 16*x + 58*x^2 + 40*x^3 + x^4"
        " != 1 + 16*x + 59*x^2 + 42*x^3 + x^4",
    },
    "orbit_representative": {
        "orbit-main": "PI n=2 A=Z2 B=Z2 orbit:"
        " image mismatch missing=[] extra=['{1,2} (1,2)=(0,1)']",
        "orbit-B": "P_B n=1 A=Z2 B=Z2 orbit:"
        " image mismatch missing=[] extra=['{-1,0,1} (-1,0)=(0,1) (0,1)=(0,1)']",
        "orbit-D": "P_D n=2 A=Z2 B=Z2 orbit:"
        " image mismatch missing=[] extra=['{-2,-1}{1,2} (-2,-1)=(0,1) (1,2)=(0,1)']",
    },
}


@pytest.mark.parametrize("name", sorted(_FAULTS))
def test_witnesses_under_faults(monkeypatch, name):
    module = _FAULT_MODULES.get(name, identities)
    monkeypatch.setattr(module, name, _FAULTS[name](getattr(module, name)))
    failing = _FAULT_WITNESSES[name]
    for cid in _FAULT_CHECKS:
        result = identities.run(cid, "quick")
        want = ("fail", failing[cid]) if cid in failing else ("pass", None)
        assert (result.status, result.witness) == want, cid


def _with_extra_shape(family, n, extra):
    def fake(shapes):
        return lambda f, m: shapes(f, m) + ((extra,) if (f, m) == (family, n) else ())

    return fake


def _without_first_member(family, n):
    def fake(members):
        def stream(spec):
            it = members(spec)
            if (spec.family, spec.n) == (family, n):
                next(it)
            yield from it

        return stream

    return fake


# checks whose witnesses no fault above reaches: the fault, and the witness
_SHAPE_WITNESSES = (
    ("NNB-counts", "family_shapes", _with_extra_shape("NN_B", 2, ((-2, 2), (-1, 1))),
     "n=2: NN_B shape {-2,2}{-1,1} (-2,2)=1 (-1,1)=1 is nesting"),
    ("NNB-counts", "family_shapes", _with_extra_shape("NN_B", 2, ((-2, 1), (-1,), (2,))),
     "n=2: NN_B shape {-2,1}{-1}{2} (-2,1)=1 is not negation-closed"),
    ("uncross-confluence", "family_shapes", _with_extra_shape("PI", 5, ((1, 3), (2, 4), (5,))),
     "n=5 crossing pool: 11 != 10"),
    ("rook-round-trip", "family_members", _without_first_member("NC", 3),
     "PI n=3 rook_noncrossing: image mismatch missing=[] extra=['{1}{2}{3}']"),
    ("uncross-NN-NC", "family_members", _without_first_member("NC", 3),
     "n=3: image mismatch missing=[] extra=['{1}{2}{3}']"),
)


@pytest.mark.parametrize("cid,name,fault,witness", _SHAPE_WITNESSES)
def test_definition_witnesses(monkeypatch, cid, name, fault, witness):
    monkeypatch.setattr(identities, name, fault(getattr(identities, name)))
    result = identities.run(cid, "quick")
    assert (result.status, result.witness) == ("fail", witness)


def _from_rook_reading_d_positions_as_b():
    # from_rook with the element at position r of D(n) read as r - n - 1, as
    # on B(n): the positions after the gap at 0 land one element low
    source = inspect.getsource(core.from_rook)
    assert source.count("at = ground.elements") == 1
    scope = {}
    wrong = 'at = tuple(range(-ground.n, ground.n)) if ground.kind == "D" else ground.elements'
    exec(source.replace("at = ground.elements", wrong), vars(core).copy(), scope)
    return scope["from_rook"]


@pytest.mark.parametrize("profile", ["desk", "quick"])
def test_rook_round_trip_witness_with_a_wrong_d_position_reading(monkeypatch, profile):
    monkeypatch.setattr(identities, "from_rook", _from_rook_reading_d_positions_as_b())
    result = identities.run("rook-round-trip", profile)
    assert (result.status, result.witness) == (
        "fail",
        "P_D n=2: the inverse refuses {1,3}{2,4} (1,3)=1 (2,4)=2, the image of"
        " {-2,1}{-1,2} (-2,1)=1 (-1,2)=2: arc (-2,0) leaves the ground D(2)",
    )


def _highest_pivot_key():
    # superclass_key with each column's pivot taken in the highest free row,
    # not the lowest: a canonical form that depends on the representative
    source = inspect.getsource(ut.superclass_key)
    assert source.count("range(c - 1, -1, -1)") == 1
    scope = {}
    exec(source.replace("range(c - 1, -1, -1)", "range(c)"), vars(ut).copy(), scope)
    return scope["superclass_key"]


@pytest.mark.parametrize(
    "profile, witness",
    [
        ("desk", "reduction of ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 1), (0, 0, 0, 1))"
         " changes under the left move (1,3)"),
        ("quick", "reduction of ((1, 0, 0), (0, 1, 1), (0, 0, 1))"
         " changes under the left move (1,2)"),
    ],
)
def test_reduce_invariance_witness_with_a_representative_dependent_key(
    monkeypatch, profile, witness
):
    monkeypatch.setattr(ut, "superclass_key", _highest_pivot_key())
    result = identities.run("reduce-invariance", profile)
    assert (result.status, result.witness) == ("fail", witness)


def test_generator_moves_multiply_by_the_generators():
    # each move is (1 + E_rs) X or X (1 + E_rs), plus 1, as matrix products
    n, p = 3, 3

    def shifted(m, d):
        # m + d times the identity
        return tuple(
            tuple((x + d * (i == j)) % p for j, x in enumerate(row)) for i, row in enumerate(m)
        )

    for g in ut.lie_elements("A", n, p):
        x = shifted(g, -1)
        moves = list(identities._generator_moves(g, p))
        assert len(moves) == n * (n - 1)
        for side, r, s, h in moves:
            e = [list(row) for row in ut.identity_matrix(n)]
            e[r - 1][s - 1] = 1
            product = ut.mat_mul(e, x, p) if side == "left" else ut.mat_mul(x, e, p)
            assert h == shifted(product, 1), (g, side, r, s)


@pytest.mark.parametrize(
    "profile, witness",
    [
        ("desk", "uncross order dependence at {1,3}{2,4,6}{5,7} (1,3)=1 (2,4)=1 (4,6)=1 (5,7)=1:"
         " (1,3) (2,4) first"),
        ("quick", "uncross order dependence at {1,3,5}{2,4} (1,3)=1 (2,4)=1 (3,5)=1:"
         " (1,3) (2,4) first"),
    ],
)
def test_uncross_confluence_witness_with_an_order_dependent_rewrite(monkeypatch, profile, witness):
    # a rewrite that stops after its first step when the least crossing
    # starts at 1 reaches different partitions from different first steps
    uncross_arcs = identities.maps.uncross_arcs

    def faulty(arcs):
        found = identities.crossings(arcs)
        if found and found[0][0][0] == 1:
            (i, k), (j, l) = found[0]
            return frozenset(set(arcs) - {(i, k), (j, l)} | {(i, l), (j, k)})
        return uncross_arcs(arcs)

    monkeypatch.setattr(identities.maps, "uncross_arcs", faulty)
    result = identities.run("uncross-confluence", profile)
    assert (result.status, result.witness) == ("fail", witness)


def test_superclass_size_bd_witness_with_exponent_one_too_high(monkeypatch):
    # a B/D size exponent one too high whenever there are two arcs first
    # misreads the mirrored arc pair of B(1,3)
    size = identities.unitriangular.superclass_size

    def faulty(c, kind):
        wrong = kind != "A" and len(c.labels) >= 2
        return size(c, kind) * c.group.moduli[0] ** wrong

    monkeypatch.setattr(identities.unitriangular, "superclass_size", faulty)
    result = identities.run("superclass-sizes-BD", "quick")
    assert (result.status, result.witness) == (
        "fail",
        "B(1,3) {1,2,3} (1,2)=1 (2,3)=2: closed 3, elements 1, rank 1",
    )


@pytest.mark.parametrize("kind, n, p", [("B", 3, 5), ("D", 4, 3)])
def test_rank_route_sizes_every_class_past_enumeration(kind, n, p):
    # 5^9 and 3^12 elements: too many to count, but the rank needs only the
    # class's labeled arcs
    for lam in family_members(ut.index_family(kind, n, p)):
        c = to_rook(lam)
        rank = identities._two_sided_rank(ut.class_representative_matrix(c, p), p, kind)
        assert p**rank == ut.superclass_size(c, kind), c.text()


def test_restriction_witness_without_reflections(monkeypatch):
    # with no reflection moves the halved index alone decides, which first
    # misreads an index of B(3,3)
    monkeypatch.setattr(identities.unitriangular, "reflection_class", lambda q: frozenset({q}))
    result = identities.run("restriction-B")
    assert (result.status, result.witness) == (
        "fail",
        "B(3,3) {-3,1}{-2,0,2}{-1,3} (-3,1)=1 (-2,0)=1 (-1,3)=2 (0,2)=2:"
        " reflection class all noncrossing True, nc_tilde False",
    )


def test_superclass_size_witness_with_one_pair_too_many(monkeypatch):
    # a closed form that counts one arc pair too many, whenever there are two
    # arcs, first misreads the one two-arc class of A(3,2)
    size = identities.unitriangular.superclass_size
    monkeypatch.setattr(
        identities.unitriangular,
        "superclass_size",
        lambda lam, kind: size(lam, kind) // lam.group.moduli[0] if len(lam.labels) > 1 else size(lam, kind),
    )
    result = identities.run("superclass-sizes-A")
    assert (result.status, result.witness) == (
        "fail",
        "A(3,2) {1,2,3} (1,2)=1 (2,3)=1: closed 1, elements 2, rank 2",
    )


def test_uncross_b_collision_witness_names_the_two_members(monkeypatch):
    # at n = 3 the last NC~_B shape goes where the first does: one short
    # line, where comparing the sorted block lists of both sides printed
    # 1,303 characters
    shapes = [unlabeled(ground_b(3), blocks) for blocks in family_shapes("NC_TILDE_B", 3)]
    uncross_b = identities.maps.uncross_b
    monkeypatch.setattr(
        identities.maps, "uncross_b", lambda p: uncross_b(shapes[0] if p == shapes[-1] else p)
    )
    result = identities.run("uncrossB-props")
    assert (result.status, result.witness) == (
        "fail",
        "n=3 uncross_b: {-3}{-2}{-1}{0}{1}{2}{3} and {-3,2}{-2,3}{-1,0,1} (-3,2)=1 (-2,3)=1"
        " (-1,0)=1 (0,1)=1 both map to {-3}{-2}{-1}{1}{2}{3}",
    )


def test_supercharacters_witness_with_two_norms_swapped(monkeypatch):
    # the first norm 1 swapped with the first other norm keeps every count,
    # and first misreads the crossing index of D(2,3)
    norms = ut.CharTable.norms

    def swapped(table):
        values = list(norms(table))
        other = [k for k, f in enumerate(values) if f != 1]
        if other:
            i = values.index(1)
            values[i], values[other[0]] = values[other[0]], values[i]
        return tuple(values)

    monkeypatch.setattr(ut.CharTable, "norms", swapped)
    result = identities.run("supercharacters", "quick")
    assert (result.status, result.witness) == (
        "fail",
        "D(2,3) irreducible: image mismatch missing=['{-2}{-1}{1}{2}']"
        " extra=['{-2,1}{-1,2} (-2,1)=1 (-1,2)=2']",
    )


@pytest.mark.parametrize(
    "cid, witness",
    [
        ("superclass-sizes-A",
         "A(3,2) superclasses: image mismatch missing=[] extra=['{1,2,3} (1,2)=1 (2,3)=1']"),
        ("superclass-sizes-BD",
         "B(1,3) superclasses: image mismatch missing=['{1,2}{3} (1,2)=1']"
         " extra=['{1,2,3} (1,2)=1 (2,3)=2']"),
    ],
)
def test_superclass_keys_witness_with_the_last_arc_dropped(monkeypatch, cid, witness):
    # a reduction that drops the last labeled arc reaches no two-arc class
    key = ut.superclass_key
    monkeypatch.setattr(ut, "superclass_key", lambda g, p: key(g, p)[:-1])
    result = identities.run(cid, "quick")
    assert (result.status, result.witness) == ("fail", witness)


def test_rank_invert_witness_with_a_shape_mapped_outside_its_family(monkeypatch):
    # acting by the top linear partition of the positive elements alone is
    # an involution, but it breaks the negation symmetry of NC~_D(2)
    def positive_half(p):
        elements = p.ground.elements
        blocks = [(x,) for x in elements if x < 0] + [tuple(x for x in elements if x > 0)]
        return action.plus(unlabeled(p.ground, blocks), p)

    monkeypatch.setattr(
        identities, "action", SimpleNamespace(**{**vars(action), "plus_involution": positive_half})
    )
    result = identities.run("rank-invert-D", "quick")
    assert (result.status, result.witness) == (
        "fail",
        "n=2: image mismatch missing=['{-2,-1}{1,2} (-2,-1)=1 (1,2)=1']"
        " extra=['{-2,-1}{1}{2} (-2,-1)=1']",
    )
