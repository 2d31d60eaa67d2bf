"""Which arcact functions the traced run wraps, and the per-layer metrics.

The layers are the modules under ``src/arcact``.  Each target below is
wrapped from outside the program; spans are named ``<module>.<function>``
and metrics ``<span>.<calls|items|self_s|total_s>``.
"""

from __future__ import annotations

import importlib

from tracer import Tracer

# (module, class or None, attribute, span name, count only)
TARGETS = (
    ("core", "LabeledSetPartition", "__init__", "core.LabeledSetPartition", False),
    ("core", "LabeledSetPartition", "to_json", "core.to_json", False),
    ("core", None, "arcs_of", "core.arcs_of", False),
    ("core", None, "canonical_blocks", "core.canonical_blocks", False),
    ("core", None, "blocks_from_arcs", "core.blocks_from_arcs", False),
    ("core", None, "rook_sort_key", "core.rook_sort_key", False),
    ("core", None, "to_rook", "core.to_rook", False),
    ("core", None, "classify", "core.classify", False),
    ("core", None, "crossings", "core.crossings", False),
    ("families", None, "family_shapes", "families.family_shapes", False),
    ("families", None, "enumerate_family", "families.enumerate_family", False),
    # Calls take well under a microsecond: a span would cost more than the call.
    ("groups", None, "add", "groups.add", True),
    ("groups", None, "neg", "groups.neg", True),
    ("action", None, "plus", "action.plus", False),
    ("action", None, "orbit", "action.orbit", False),
    ("maps", None, "shift", "maps.shift", False),
    ("maps", None, "unshift", "maps.unshift", False),
    ("maps", None, "uncross", "maps.uncross", False),
    ("maps", None, "uncross_b", "maps.uncross_b", False),
    ("maps", None, "halve", "maps.halve", False),
    ("poly", None, "transfer_family", "poly.transfer_family", False),
    ("poly", None, "family", "poly.family", False),
    ("poly", "BiPoly", "__mul__", "poly.BiPoly.mul", False),
    ("unitriangular", None, "group_elements", "unitriangular.group_elements", False),
    ("unitriangular", None, "superclass_reduce", "unitriangular.superclass_reduce", False),
    ("unitriangular", None, "chi_on_class", "unitriangular.chi_on_class", False),
    ("unitriangular", None, "inner_product", "unitriangular.inner_product", False),
    ("unitriangular", None, "build_chartable", "unitriangular.build_chartable", False),
    ("cyclotomic", "CycValue", "__init__", "cyclotomic.CycValue", True),
    ("cyclotomic", "CycValue", "__mul__", "cyclotomic.mul", False),
    ("oeis", None, "oeis_check", "oeis.oeis_check", False),
    ("oeis", None, "load_bfile", "oeis.load_bfile", False),
    ("cli", None, "main", "cli.main", False),
)

# Checks that took at least 2% of the verify workload at the seed commit.
HEAVY_CHECKS = (
    "orbit-B",
    "rank-invert-A",
    "NNB-counts",
    "orbit-D",
    "B-identities-4",
    "A-identities-1-enum",
    "shift-bij-A",
    "A-identities-2-enum",
    "hanging-1",
)

MODES = ("symbolic", "enumerative", "structural")

S, COUNT, RATIO = "s", "count", "ratio"

# name -> (unit, better)
PER_LAYER = {
    "core.LabeledSetPartition.calls": (COUNT, "lower"),
    "core.LabeledSetPartition.self_s": (S, "lower"),
    "core.arcs_of.calls": (COUNT, "lower"),
    "core.arcs_of.self_s": (S, "lower"),
    "core.canonical_blocks.self_s": (S, "lower"),
    "core.blocks_from_arcs.self_s": (S, "lower"),
    "core.rook_sort_key.calls": (COUNT, "lower"),
    "core.rook_sort_key.self_s": (S, "lower"),
    "core.to_rook.self_s": (S, "lower"),
    "core.to_json.calls": (COUNT, "lower"),
    "core.to_json.self_s": (S, "lower"),
    "core.classify.self_s": (S, "lower"),
    "core.crossings.self_s": (S, "lower"),
    "families.family_shapes.calls": (COUNT, "lower"),
    "families.family_shapes.self_s": (S, "lower"),
    "families.enumerate_family.calls": (COUNT, "lower"),
    "families.enumerate_family.items": (COUNT, "lower"),
    "families.cache.hits": (COUNT, "higher"),
    "families.cache.misses": (COUNT, "lower"),
    "families.cache.entries": (COUNT, "lower"),
    "families.cache.hit_ratio": (RATIO, "higher"),
    "groups.add.calls": (COUNT, "lower"),
    "groups.neg.calls": (COUNT, "lower"),
    "action.plus.calls": (COUNT, "lower"),
    "action.plus.self_s": (S, "lower"),
    "action.plus.total_s": (S, "lower"),
    "action.orbit.calls": (COUNT, "lower"),
    "action.orbit.total_s": (S, "lower"),
    **{
        f"maps.{fn}.{field}": unit
        for fn in ("shift", "unshift", "uncross", "uncross_b", "halve")
        for field, unit in (("calls", (COUNT, "lower")), ("total_s", (S, "lower")))
    },
    "poly.transfer_family.calls": (COUNT, "lower"),
    "poly.transfer_family.self_s": (S, "lower"),
    "poly.family.total_s": (S, "lower"),
    "poly.BiPoly.mul.calls": (COUNT, "lower"),
    "poly.BiPoly.mul.self_s": (S, "lower"),
    **{f"identities.run.{mode}.total_s": (S, "lower") for mode in MODES},
    **{f"identities.check.{cid}.total_s": (S, "lower") for cid in HEAVY_CHECKS},
    "unitriangular.group_elements.items": (COUNT, "lower"),
    "unitriangular.superclass_reduce.calls": (COUNT, "lower"),
    "unitriangular.superclass_reduce.self_s": (S, "lower"),
    "unitriangular.chi_on_class.calls": (COUNT, "lower"),
    "unitriangular.chi_on_class.self_s": (S, "lower"),
    "unitriangular.inner_product.calls": (COUNT, "lower"),
    "unitriangular.inner_product.self_s": (S, "lower"),
    "unitriangular.build_chartable.self_s": (S, "lower"),
    "cyclotomic.CycValue.constructed": (COUNT, "lower"),
    "cyclotomic.mul.calls": (COUNT, "lower"),
    "cyclotomic.mul.self_s": (S, "lower"),
    "oeis.oeis_check.total_s": (S, "lower"),
    "oeis.load_bfile.total_s": (S, "lower"),
    "cli.main.self_s": (S, "lower"),
    "trace.overhead_s": (S, "lower"),
}


def install(clock) -> Tracer:
    """Wrap every target in the imported arcact and return the tracer,
    which times spans with clock()."""
    tracer = Tracer(clock)
    identities = importlib.import_module("arcact.identities")
    tracer.patch(
        identities, "run", "identities.run", name_of=lambda args: f"identities.check.{args[0]}"
    )
    for module_name, class_name, attr, name, count_only in TARGETS:
        module = importlib.import_module(f"arcact.{module_name}")
        owner = getattr(module, class_name) if class_name else module
        tracer.patch(owner, attr, name, count_only=count_only)
    return tracer


def collect(tracer: Tracer, check_modes: dict) -> dict:
    """Per-layer metrics of one traced process, except trace.overhead_s.

    check_modes maps each check id to its mode, for the split of
    identities.run by mode.
    """
    families = importlib.import_module("arcact.families")
    stats = tracer.stats_dict()
    zero = {"calls": 0, "items": 0, "self_s": 0.0, "total_s": 0.0}
    out = {}
    for metric in PER_LAYER:
        span, _, field = metric.rpartition(".")
        if field in zero:
            out[metric] = stats.get(span, zero)[field]
    out["cyclotomic.CycValue.constructed"] = stats.get("cyclotomic.CycValue", zero)["calls"]
    for mode in MODES:
        out[f"identities.run.{mode}.total_s"] = sum(
            v["total_s"]
            for k, v in stats.items()
            if k.startswith("identities.check.")
            and check_modes.get(k[len("identities.check."):]) == mode
        )
    info = families._enumerated.cache_info()
    lookups = info.hits + info.misses
    out["families.cache.hits"] = info.hits
    out["families.cache.misses"] = info.misses
    out["families.cache.entries"] = info.currsize
    out["families.cache.hit_ratio"] = info.hits / lookups if lookups else 0.0
    return out
