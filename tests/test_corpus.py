"""Characterization corpus for the set constructions and the extremal flux.

Each construction case builds one set (a prefix arc, a shadow, a leaf list, a
stock set, a set of prescribed capacity or a calibration) and records its
resolution, its distinct node count, the ``repr`` of its float capacity and a
sha1 of its leaves, or the error text when the build raises.  The flux slice
takes the small sets among them (prefixes, leaf lists, Cantor sets) and
records, in float and exact mode, the ``repr`` of ``h_at`` and ``H_at`` at
seeded vertices down to four levels below the set's resolution and a sha1 of
the ``vertices`` and ``measure`` JSON that ``extremal`` prints.  The committed
values file holds the records, so any change to what the constructions build
or to the flux shows up as a diff against it.

Rewrite the values file after a deliberate change with::

    PYTHONPATH=src python tests/test_corpus.py --rewrite
"""

import hashlib
import json
import sys
from fractions import Fraction
from pathlib import Path
from random import Random

import pytest

from treecap import (
    BoundarySet,
    EquilibriumMeasure,
    TreecapError,
    VertexId,
    calibrated_set,
    cantor_set,
    capacity,
    equal_split,
    extremal,
    prefix_set,
    random_boundary_set,
    set_of_capacity,
)

VALUES = Path(__file__).with_name("corpus_construction.json")


def record(build) -> dict:
    """The record of one case: what ``build()`` makes, or how it fails."""
    try:
        e = build()
    except (TreecapError, ValueError) as exc:  # the error text is part of the record
        return {"error": f"{type(exc).__name__}: {exc}"}
    # indices in hex, which the interpreter prints at any size
    leaves = "\n".join(f"{n}:{j:x}" for n, j in e.full_leaves())
    return {
        "resolution": e.resolution,
        "nodes": e.node_count(),
        "capacity": repr(capacity(e)),
        "leaves": hashlib.sha1(leaves.encode()).hexdigest(),
    }


def prefix_cases():
    # every p / 2^q with q <= 8, reduced or not
    for p in range(257):
        yield f"prefix {p}/256", lambda p=p: prefix_set(Fraction(p, 256))


def shadow_cases():
    rng = Random(24)
    for _ in range(40):
        level = rng.randint(0, 300)
        v = VertexId(level, rng.getrandbits(level) if level else 0)
        yield f"shadow {v.level}:{v.index:x}", lambda v=v: BoundarySet.shadow(v)
    for v in (VertexId(14284, (1 << 14284) - 1), VertexId(80000, 2**79999 + 12345)):
        yield f"shadow {v.level}", lambda v=v: BoundarySet.shadow(v)


def leaf_list_cases():
    # nested, repeated and unsorted pairs
    for seed in range(300):
        rng = Random(seed)
        pairs = []
        for _ in range(rng.randint(0, 12)):
            n = rng.randint(0, 10)
            pairs.append((n, rng.getrandbits(n) if n else 0))
        for n, j in list(pairs[:3]):
            d = rng.randint(1, 6)
            pairs.append((n + d, (j << d) | rng.getrandbits(d)))
        pairs += pairs[:2]
        rng.shuffle(pairs)
        yield f"leaves {seed}", lambda pairs=pairs: BoundarySet.from_full_leaves(pairs)


def cantor_cases():
    for levels in range(6):
        yield f"cantor {levels}", lambda levels=levels: cantor_set(levels)


def stock_cases():
    yield from cantor_cases()
    for eps, n in ((0.25, 8), (0.4, 9)):
        yield f"carrier {eps} {n}", lambda eps=eps, n=n: equal_split(eps, n).carrier


def capacity_cases():
    rng = Random(2024)
    for _ in range(200):
        target, tol = rng.uniform(0.0, 0.5), 10.0 ** -rng.randint(4, 12)
        yield (
            f"capacity {target!r} {tol!r}",
            lambda target=target, tol=tol: set_of_capacity(target, tol),
        )
    # just above the plateau values, where the cut search takes its fallback
    for k in range(3, 8):
        for delta in (1e-3, 1e-5, 1e-7):
            yield (
                f"capacity 1/{k}+{delta!r}",
                lambda target=1 / k + delta: set_of_capacity(target, 1e-10),
            )
    # refused: outside [0, 1/2], and a subnormal target
    for target, tol in ((0.6, 1e-9), (1e-310, 1e-311)):
        yield (
            f"capacity {target!r} {tol!r}",
            lambda target=target, tol=tol: set_of_capacity(target, tol),
        )


def calibration_cases():
    for seed in range(12):
        rng = Random(seed)
        target = rng.uniform(0.05, 0.45)
        yield (
            f"calibrate {seed}",
            lambda seed=seed, target=target: calibrated_set(
                random_boundary_set(seed, 8), target, 1e-9
            ),
        )


FAMILIES = {
    "prefix": prefix_cases,
    "shadow": shadow_cases,
    "leaves": leaf_list_cases,
    "stock": stock_cases,
    "capacity": capacity_cases,
    "calibration": calibration_cases,
}


def _sha1(obj) -> str:
    return hashlib.sha1(json.dumps(obj).encode()).hexdigest()


def flux_record(name: str, e: BoundarySet, exact: bool) -> dict:
    """The flux of one set: queries at seeded vertices and its two JSON exports."""
    try:
        flux = extremal(e, exact)
    except TreecapError as exc:
        return {"error": f"{type(exc).__name__}: {exc}"}
    rng = Random(name)
    queries = []
    for _ in range(4):
        level = rng.randint(0, e.resolution + 4)
        v = VertexId(level, rng.getrandbits(level) if level else 0)
        queries.append(f"{v.level}:{v.index:x} {flux.h_at(v)!r} {flux.H_at(v)!r}")
    return {
        "queries": queries,
        "vertices": _sha1(flux.to_json_obj()),
        "measure": _sha1(EquilibriumMeasure(flux).to_json_obj()),
    }


FLUX_FAMILIES = {"prefix": prefix_cases, "leaves": leaf_list_cases, "cantor": cantor_cases}


def records(family: str) -> dict:
    return {name: record(build) for name, build in FAMILIES[family]()}


def flux_records(family: str) -> dict:
    out = {}
    for name, build in FLUX_FAMILIES[family]():
        e = build()
        for mode, exact in (("float", False), ("exact", True)):
            out[f"{name} {mode}"] = flux_record(name, e, exact)
    return out


def _changed(expected: dict, got: dict) -> list:
    return sorted(name for name in expected.keys() | got.keys()
                  if expected.get(name) != got.get(name))


@pytest.mark.parametrize("family", list(FAMILIES))
def test_constructions_match_corpus(family):
    changed = _changed(json.loads(VALUES.read_text())[family], records(family))
    assert not changed, f"{len(changed)} {family} records differ, first: {changed[:5]}"


@pytest.mark.parametrize("family", list(FLUX_FAMILIES))
def test_flux_matches_corpus(family):
    changed = _changed(json.loads(VALUES.read_text())["flux"][family], flux_records(family))
    assert not changed, f"{len(changed)} {family} flux records differ, first: {changed[:5]}"


if __name__ == "__main__":
    if sys.argv[1:] != ["--rewrite"]:
        sys.exit(f"usage: {sys.argv[0]} --rewrite")
    values = {family: records(family) for family in FAMILIES}
    values["flux"] = {family: flux_records(family) for family in FLUX_FAMILIES}
    VALUES.write_text(json.dumps(values, indent=1, sort_keys=True) + "\n")
