"""Inputs outside the design envelope.

Each case goes through the command line and must fail fast: exit code 2 and
a one-line error, without first doing the work that would not fit in time or
memory.  Where speed is the point, the slow path is made to raise instead;
the flux cases also bound their wall-clock time, with a wide margin.
"""

import importlib
import math
import time
import tracemalloc

import pytest

from treecap import (
    BoundarySet,
    MisalignedArcError,
    ResolutionError,
    VertexId,
    cli,
    equal_split,
    extremal,
)
from treecap.disc import CondenserProblem, SolverGrid, solve
from treecap.experiments import parse_set_spec

GRID = ["--grid-angular", "256", "--grid-radial", "48"]
# 2^12 Full leaves below a trie of 8,206 distinct nodes and resolution 8,204
DEEP_CARRIER = "split:0.25,12"


def refused(argv, capsys) -> str:
    """The error line of a command that must exit 2 with one line on stderr."""
    code = cli.main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    return lines[0]


@pytest.fixture
def no_leaf_lists(monkeypatch):
    """Listing leaves raises, so a refusal has to come from the trie alone."""

    def refuse(self):
        raise AssertionError("full_leaves() was called")

    monkeypatch.setattr(BoundarySet, "full_leaves", refuse)


class TestSetDeeperThanGrid:
    def test_solve_refuses_before_listing_leaves(self, no_leaf_lists):
        problem = CondenserProblem(parse_set_spec(DEEP_CARRIER), 0.5)
        with pytest.raises(MisalignedArcError):
            solve(problem, SolverGrid(256, 48))

    @pytest.mark.parametrize(
        "argv",
        [
            ["solve-disc", "--set", DEEP_CARRIER, *GRID],
            ["experiment", "compare", "--set", DEEP_CARRIER, *GRID],
            ["experiment", "blowup", "--set", DEEP_CARRIER, "--with-disc", *GRID],
        ],
        ids=["solve-disc", "compare", "blowup-with-disc"],
    )
    def test_cli_exits_two(self, argv, no_leaf_lists, capsys):
        line = refused(argv, capsys)
        assert line == (
            "error: 256 angular cells cannot tile arcs of resolution 8204; "
            "need at least 2^8205"
        )


class TestDeepExport:
    """Leaf indices that the interpreter would refuse to print in decimal."""

    @pytest.mark.parametrize(
        "argv, resolution",
        [
            (["build-set", "--eps", "0.3333334"], 54525),
            (["extremal", "--set", "cap:0.3333334"], 54525),
            (["equal-split", "--eps", "0.25", "--n", "13"], 16397),
        ],
        ids=["build-set", "extremal", "equal-split"],
    )
    def test_cli_exits_two(
        self, argv, resolution, no_leaf_lists, default_digit_limit, monkeypatch, capsys
    ):
        def refuse(*args, **kwargs):
            raise AssertionError("the trie positions were walked")

        monkeypatch.setattr(cli, "extremal", refuse)
        line = refused(argv, capsys)
        assert line.startswith(f"error: cannot export a set of resolution {resolution}: ")
        assert line.endswith("any set of resolution up to 14284 exports")


@pytest.fixture
def no_position_walk(monkeypatch):
    """Walking the trie positions raises, so an answer has to come from the DAG."""

    def refuse(*args):
        raise AssertionError("the trie positions were walked")

    monkeypatch.setattr(importlib.import_module("treecap.capacity"), "_positions", refuse)


class TestFluxOnSharedCarriers:
    """Carriers with exponentially more trie positions than distinct nodes."""

    @pytest.mark.parametrize(
        "spec, positions", [("split:0.25,10", 4_196_351), ("split:0.25,12", 67_117_055)]
    )
    def test_cli_exits_two(self, spec, positions, no_leaf_lists, no_position_walk, capsys):
        start = time.perf_counter()
        line = refused(["extremal", "--set", spec], capsys)
        assert time.perf_counter() - start < 1.0
        assert line == (
            f"error: cannot export the flux at {positions} trie positions; "
            "at most 1048576 export"
        )

    def test_queries_take_one_descent(self, no_leaf_lists, no_position_walk):
        family = equal_split(0.25, 12, 1e-9)
        deep = VertexId(10_000, (1 << 10_000) - 1)
        start = time.perf_counter()
        flux = extremal(family.carrier)
        h, H = flux.h_at(deep), flux.H_at(deep)
        assert time.perf_counter() - start < 0.1
        # the rightmost path leaves the shared piece at an Empty leaf, so h is
        # 0 there and 1 - H is the product of 1 - e_k over the 13 levels above
        assert h == 0.0
        assert abs((1.0 - H) - math.prod(1.0 - e for e in family.e)) <= 1e-12


class TestPrefixSpecs:
    def test_zero_denominator(self, capsys):
        assert "'prefix:1/0'" in refused(["cap-tree", "--set", "prefix:1/0"], capsys)

    def test_deep_power_refused_before_it_is_formed(self, capsys):
        # 2^4000000 alone takes 500 kB and 2^(10^11) would take 12.5 GB; the
        # smaller exponent goes first, so a parse that forms the power fails
        # the memory bound before it can meet the larger one
        for q in (4_000_000, 100_000_000_000):
            spec = f"prefix:1/2^{q}"
            tracemalloc.start()
            try:
                with pytest.raises(ResolutionError):
                    parse_set_spec(spec)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 64 * 1024
            line = refused(["cap-tree", "--set", spec], capsys)
            assert line == f"error: t = 1/2^{q} needs resolution {q} > maximum 30"

    def test_zero_numerator_forms_no_power(self):
        tracemalloc.start()
        try:
            zero = parse_set_spec("prefix:0/2^4000000")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024
        assert zero == BoundarySet.empty()

    def test_reduced_resolution_decides(self):
        # 2^40 / 2^64 is 2^-24: the cancelling power of two is not held against it
        assert parse_set_spec(f"prefix:{2**40}/2^64") == parse_set_spec("prefix:1/2^24")


@pytest.mark.parametrize(
    "argv",
    [
        ["cap-cond", "--set", "full"],
        ["experiment", "blowup", "--set", "prefix:1/2"],
        ["experiment", "plateau", "--eps", "0.25"],
        ["experiment", "lowerbound", "--eps", "0.2", "--samples", "1", "--seed", "1"],
        ["experiment", "compare", "--set", "prefix:1/2", *GRID],
        ["experiment", "conjecture", "--delta", "0.25"],
    ],
    ids=["cap-cond", "blowup", "plateau", "lowerbound", "compare", "conjecture"],
)
def test_negative_n_max(argv, capsys):
    line = refused([*argv, "--n-max", "-1"], capsys)
    assert line == "error: need n_max >= 0, got -1"


def test_empty_delta_list(capsys):
    # a conjecture chart without rows would pass its verdict vacuously
    line = refused(["experiment", "conjecture", "--delta", ","], capsys)
    assert line == "error: need at least one delta"
