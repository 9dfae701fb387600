import csv
import importlib
import io
import json
import math
from fractions import Fraction

import pytest

from treecap import (
    BoundarySet,
    DegenerateSetError,
    SetSpecError,
    VertexId,
    capacity,
    prefix_set,
    random_boundary_set,
)
from treecap import cli
from treecap.capacity import extremal
from treecap.cli import main
from treecap.disc import SolverGrid
from treecap.experiments import (
    parse_set_spec,
    rows_to_csv,
    run_blowup,
    run_compare,
    run_conjecture,
    run_lowerbound,
    run_plateau,
)

FAST = SolverGrid(n_angular=256, n_radial=48)


class TestSetSpecLanguage:
    def test_atoms(self):
        assert parse_set_spec("full").is_full()
        assert parse_set_spec("empty").is_empty()
        assert parse_set_spec("prefix:1/2") == prefix_set(0.5)
        assert parse_set_spec("prefix:3/2^3") == prefix_set(0.375)
        assert parse_set_spec("shadow:2,1") == BoundarySet.shadow(VertexId(2, 1))

    def test_decimal_prefix(self):
        assert parse_set_spec("prefix:0.375") == prefix_set(Fraction(3, 8))

    def test_cap_atom(self):
        e = parse_set_spec("cap:0.3", tol=1e-9)
        assert abs(capacity(e) - 0.3) <= 1e-9

    def test_split_atom(self):
        e = parse_set_spec("split:0.25,2", tol=1e-9)
        assert abs(capacity(e) - 0.25) <= 1e-9

    def test_union(self):
        got = parse_set_spec("union(shadow:2,0, shadow:2,1)")
        assert got == BoundarySet.shadow(VertexId(1, 0))
        nested = parse_set_spec("union(union(shadow:2,0, shadow:2,3), prefix:1/2)")
        assert nested == prefix_set(0.5).union(BoundarySet.shadow(VertexId(2, 3)))

    def test_file(self, tmp_path):
        e = BoundarySet.from_full_leaves([(2, 1), (3, 7)])
        text_path = tmp_path / "set.txt"
        text_path.write_text(e.to_text())
        assert parse_set_spec(f"file:{text_path}") == e
        json_path = tmp_path / "set.json"
        json_path.write_text(json.dumps(e.to_json_obj()))
        assert parse_set_spec(f"file:{json_path}") == e

    @pytest.mark.parametrize(
        "bad", ["", "blob", "prefix:1/3", "shadow:2", "cap:x", "union()", "what:1"]
    )
    def test_rejects(self, bad):
        with pytest.raises((SetSpecError, ValueError)):
            parse_set_spec(bad)


class TestReports:
    def test_blowup_full(self):
        report = run_blowup("full", 12)
        assert report.verdict
        assert [row["tree"] for row in report.rows] == [
            2.0 ** (n - 1) for n in range(13)
        ]
        assert report.params["library_version"]

    def test_blowup_prefix_half(self):
        report = run_blowup(prefix_set(0.5), 13)
        ratios = [row["ratio"] for row in report.rows if row["n"] >= 8]
        assert all(r == 2.0 for r in ratios)
        assert report.rows[-1]["tree"] > 1e3
        assert report.verdict

    def test_blowup_rejects_null_set(self):
        from treecap import DegenerateSetError

        with pytest.raises(DegenerateSetError):
            run_blowup("empty", 5)

    def test_plateau_small(self):
        report = run_plateau(0.25, 4, tol=1e-10)
        assert report.verdict
        assert report.rows[3]["closed_form"] == pytest.approx(4.0 / 9.0)
        assert all(row["computed"] <= row["ceiling"] for row in report.rows)

    def test_plateau_exact_mode(self):
        report = run_plateau(0.25, 3, tol=1e-10, exact=True)
        assert report.verdict
        assert report.rows[-1]["difference"] <= 1e-10

    def test_lowerbound_small(self):
        report = run_lowerbound(0.2, 4, samples=5, seed=11)
        assert report.verdict
        assert all(row["violations"] == 0 for row in report.rows)
        assert all(row["min_margin"] >= -1e-6 for row in report.rows)

    def test_lowerbound_draws_past_leaf_bases_only(self):
        # every non-leaf base calibrates, so the only extra draws are the
        # empty and full bases it skips
        report = run_lowerbound(0.2, 5, samples=10, seed=7)
        attempts = report.params["calibration_attempts"]
        bases = [random_boundary_set(7 * 1_000_003 + k, max_depth=8) for k in range(attempts)]
        leaves = sum(b.is_empty() or b.is_full() for b in bases)
        assert attempts == 10 + leaves
        assert not (bases[-1].is_empty() or bases[-1].is_full())

    def test_compare_small(self):
        report = run_compare(prefix_set(0.5), n_max=2, grid=FAST)
        assert report.verdict
        assert {row["n"] for row in report.rows} == {0, 1, 2}
        for row in report.rows:
            assert 0.1 <= row["ratio"] <= 10.0

    def test_compare_refuses_the_empty_set(self):
        with pytest.raises(DegenerateSetError, match="nonempty"):
            run_compare("empty", 2, grid=FAST)

    def test_compare_full_circle_columns(self):
        report = run_compare("full", n_max=3, grid=FAST)
        assert report.verdict
        for row in report.rows:
            if row["n"] >= 1:
                assert row["tree"] == 2.0 ** (row["n"] - 1)
                exact = 1.0 / math.log(1.0 / (1.0 - 2.0 ** -row["n"]))
                assert abs(row["disc"] - exact) / exact < 0.02

    def test_conjecture(self):
        report = run_conjecture([0.25, 0.0625], 10)
        assert report.verdict
        for row in report.rows:
            assert row["difference"] <= 1e-12
        knees = {row["delta"]: row["knee"] for row in report.rows}
        assert knees[0.25] == pytest.approx(2.0)
        assert knees[0.0625] == pytest.approx(4.0)

    def test_conjecture_with_disc_column(self):
        report = run_conjecture([0.25], 3, with_disc=True, grid=FAST)
        assert report.verdict
        by_n = {row["n"]: row["disc"] for row in report.rows}
        assert by_n[0] is None
        assert all(isinstance(by_n[n], float) and by_n[n] > 0.0 for n in (1, 2, 3))

    def test_blowup_with_disc_column(self):
        report = run_blowup("full", 3, with_disc=True, grid=FAST)
        by_n = {row["n"]: row["disc"] for row in report.rows}
        assert by_n[0] is None
        for n in (1, 2, 3):
            exact = 1.0 / math.log(1.0 / (1.0 - 2.0**-n))
            assert abs(by_n[n] - exact) / exact < 0.02

    def test_rows_reproducible(self):
        a = run_plateau(0.3, 5, tol=1e-10)
        b = run_plateau(0.3, 5, tol=1e-10)
        assert a.rows == b.rows

    def test_sampled_rows_reproducible(self):
        a = run_lowerbound(0.25, 3, samples=4, seed=21)
        b = run_lowerbound(0.25, 3, samples=4, seed=21)
        assert a.rows == b.rows
        assert a.params["calibration_attempts"] == b.params["calibration_attempts"]

    def test_csv_json_agree_field_for_field(self):
        report = run_blowup("full", 6)
        parsed = list(csv.DictReader(io.StringIO(rows_to_csv(report.rows))))
        json_rows = json.loads(json.dumps(report.to_json_obj()))["rows"]
        assert len(parsed) == len(json_rows)
        for csv_row, json_row in zip(parsed, json_rows):
            assert set(csv_row) == set(json_row)
            for key, value in json_row.items():
                if value is None:
                    assert csv_row[key] == ""
                else:
                    assert float(csv_row[key]) == value


class TestCli:
    def test_cap_tree_exact(self, capsys):
        assert main(["cap-tree", "--set", "union(shadow:2,0, shadow:3,6)", "--exact"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["capacity"] == "7/19"

    @pytest.mark.parametrize(
        "spec", ["full", "empty", "shadow:1,0", "union(shadow:2,0, shadow:3,6)"]
    )
    def test_exact_numbers_print_as_fractions(self, spec, capsys):
        # every exact number is str(Fraction): "7/19", and "0" or "4" when whole
        def strings(obj):
            if isinstance(obj, dict):
                return [s for k, v in obj.items() if k != "set" for s in strings(v)]
            if isinstance(obj, list):
                return [s for v in obj for s in strings(v)]
            return [obj] if isinstance(obj, str) else []

        found = []
        for command in (["cap-tree"], ["cap-cond", "--n-max", "4"], ["extremal"]):
            code = main([*command, "--set", spec, "--exact"])
            out = capsys.readouterr().out
            if command == ["extremal"] and spec == "empty":
                assert code == 2  # a null set has no extremal flux
                continue
            assert code == 0
            found += strings(json.loads(out))
        assert found
        assert all(str(Fraction(s)) == s for s in found), found

    def test_cap_cond_csv(self, capsys):
        assert main(["cap-cond", "--set", "full", "--n-max", "3", "--format", "csv"]) == 0
        rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
        assert [float(r["value"]) for r in rows] == [0.5, 1.0, 2.0, 4.0]

    def test_extremal(self, capsys):
        assert main(["extremal", "--set", "shadow:1,0"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["capacity"] == pytest.approx(1.0 / 3.0)
        assert payload["measure"][0]["arc"] == [1, 0]

    def test_extremal_walks_the_flux_once(self, monkeypatch, capsys):
        calls = []

        def counted(e, exact=False):
            calls.append(e)
            return extremal(e, exact)

        monkeypatch.setattr(cli, "extremal", counted)
        capacity_module = importlib.import_module("treecap.capacity")
        monkeypatch.setattr(capacity_module, "extremal", counted)
        assert main(["extremal", "--set", "prefix:3/8"]) == 0
        assert len(calls) == 1

    def test_build_set(self, capsys):
        assert main(["build-set", "--eps", "0.25", "--tol", "1e-10"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["capacity"] == pytest.approx(0.25, abs=1e-10)
        assert payload["set"] == [[2, 0]]

    def test_equal_split(self, capsys):
        assert main(["equal-split", "--eps", "0.25", "--n", "2", "--tol", "1e-9"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["e"] == pytest.approx([0.25, 1 / 6, 0.1])
        assert payload["bound_R"] == pytest.approx(0.5)

    def test_solve_disc_and_field_dump(self, tmp_path, capsys):
        field = tmp_path / "field.csv"
        code = main(
            [
                "solve-disc", "--set", "full", "--inner-radius", "0.5",
                "--grid-angular", "128", "--grid-radial", "24",
                "--field-out", str(field),
            ]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["capacity"] == pytest.approx(1.4427, rel=0.02)
        rows = list(csv.DictReader(field.open()))
        assert len(rows) == 25 * 128
        assert set(rows[0]) == {"rho", "theta", "u"}

    def test_experiment_pass_exit_zero(self, capsys):
        code = main(["experiment", "plateau", "--eps", "0.25", "--n-max", "3"])
        assert code == 0
        assert json.loads(capsys.readouterr().out)["verdict"] is True

    def test_experiment_fail_exit_one(self, capsys):
        # an unreachable threshold flips the blow-up verdict, not an error
        code = main(
            ["experiment", "blowup", "--set", "full", "--n-max", "6",
             "--threshold", "1e9"]
        )
        assert code == 1
        assert json.loads(capsys.readouterr().out)["verdict"] is False

    def test_input_error_exit_two(self, capsys):
        assert main(["cap-tree", "--set", "nonsense"]) == 2
        assert main(["experiment", "blowup", "--set", "empty", "--n-max", "4"]) == 2
        assert main(["build-set", "--eps", "0.9"]) == 2

    def test_cap_cond_float_overflow_exit_two(self, capsys):
        argv = ["cap-cond", "--set", "prefix:1/2", "--n-max", "1100"]
        assert main(argv) == 2
        assert "exceeds the float range" in capsys.readouterr().err
        assert main(argv + ["--exact"]) == 0
        rows = json.loads(capsys.readouterr().out)["rows"]
        assert rows[-1] == {"n": 1100, "value": str(1 << 1098)}

    def test_out_of_memory_exit_two(self, capsys, monkeypatch):
        argv = ["solve-disc", "--set", "full", "--inner-radius", "0.5"]
        # a grid over the size guard fails up front with a reason
        assert main(argv + ["--grid-angular", str(1 << 40), "--grid-radial", "4"]) == 2
        assert "smaller grid" in capsys.readouterr().err

        def exhausted(problem, grid):
            raise MemoryError

        monkeypatch.setattr(cli, "solve", exhausted)
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: out of memory") and err.count("\n") == 1

    def test_experiment_compare_cli(self, capsys):
        code = main(
            ["experiment", "compare", "--set", "shadow:1,0", "--n-max", "2",
             "--grid-angular", "256", "--grid-radial", "48"]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["verdict"] is True
        assert payload["params"]["set"] == "shadow:1,0"

    def test_experiment_lowerbound_cli(self, capsys):
        code = main(
            ["experiment", "lowerbound", "--eps", "0.2", "--n-max", "2",
             "--samples", "3", "--seed", "5"]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["verdict"] is True
        assert payload["params"]["seed"] == 5

    def test_out_file(self, tmp_path):
        out = tmp_path / "report.json"
        code = main(
            ["experiment", "conjecture", "--delta", "0.25", "--n-max", "4",
             "--out", str(out)]
        )
        assert code == 0
        assert json.loads(out.read_text())["name"] == "conjecture"

    def test_conjecture_csv(self, capsys):
        code = main(
            ["experiment", "conjecture", "--delta", "0.125", "--n-max", "3",
             "--format", "csv"]
        )
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
        assert len(rows) == 4
        assert float(rows[0]["knee"]) == 3.0

    def test_spec_is_its_own_record(self, capsys, monkeypatch):
        # a --set spec goes into the report as given; the leaf list of the
        # set it names is never built
        def refuse(self):
            raise AssertionError("leaf list built for a spec-string report")

        monkeypatch.setattr(BoundarySet, "to_json_obj", refuse)
        runs = [
            ("prefix:1/2", ["blowup", "--n-max", "3", "--threshold", "1"]),
            (
                "shadow:1,0",
                ["compare", "--n-max", "2", "--grid-angular", "256",
                 "--grid-radial", "48"],
            ),
        ]
        for spec, argv in runs:
            assert main(["experiment", *argv, "--set", spec]) == 0
            assert json.loads(capsys.readouterr().out)["params"]["set"] == spec


# stdout of five commands, byte for byte (CSV records end in \r\n, as the
# csv module writes them)
PINNED_STDOUT = [
    (
        ["cap-tree", "--set", "union(shadow:2,0, shadow:3,6)", "--exact"],
        '{\n'
        '  "set": "union(shadow:2,0, shadow:3,6)",\n'
        '  "exact": true,\n'
        '  "capacity": "7/19"\n'
        '}\n',
    ),
    (
        ["cap-cond", "--set", "full", "--n-max", "3", "--format", "csv"],
        "n,value\r\n0,0.5\r\n1,1.0\r\n2,2.0\r\n3,4.0\r\n",
    ),
    (
        ["build-set", "--eps", "0.25", "--tol", "1e-10", "--format", "csv"],
        "2:0\n",
    ),
    (
        ["equal-split", "--eps", "0.25", "--n", "2", "--format", "csv"],
        "k,e\r\n0,0.25\r\n1,0.16666666666666666\r\n2,0.09999999999999999\r\n",
    ),
    (
        ["extremal", "--set", "shadow:1,0"],
        """\
{
  "set": "shadow:1,0",
  "capacity": 0.3333333333333333,
  "energy": 0.33333333333333337,
  "vertices": [
    {
      "vertex": [
        0,
        0
      ],
      "c": 0.3333333333333333,
      "h": 0.3333333333333333,
      "H": 0.3333333333333333
    },
    {
      "vertex": [
        1,
        0
      ],
      "c": 0.5,
      "h": 0.33333333333333337,
      "H": 0.6666666666666667
    },
    {
      "vertex": [
        1,
        1
      ],
      "c": 0.0,
      "h": 0.0,
      "H": 0.3333333333333333
    }
  ],
  "measure": [
    {
      "arc": [
        1,
        0
      ],
      "mass": 0.33333333333333337
    }
  ]
}
""",
    ),
]


@pytest.mark.parametrize(
    "argv, expected", PINNED_STDOUT, ids=[argv[0] for argv, _ in PINNED_STDOUT]
)
def test_cli_stdout_bytes(argv, expected, capsys):
    assert main(argv) == 0
    assert capsys.readouterr().out == expected
