"""Experiment sweeps (determinism, persistence) and the CLI surface."""

import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from minorkit import (
    GeneratorSpec,
    Graph,
    InvariantViolation,
    VerificationReport,
    cli,
    find_minor_pipeline,
    find_subdivision_pipeline,
    sweep,
)
from minorkit.cli import main
from minorkit.graph import load_graph, to_edge_list_text
from minorkit.sweep import (
    CSV_COLUMNS,
    run_experiment_sweep,
    run_one,
    write_records_csv,
    write_records_json,
)

from conftest import blobs, gnp, petersen_graph, random_tree


class TestSweep:
    def test_empty_spec_list(self):
        assert run_experiment_sweep([], t=3, epsilon=1.0) == []

    def test_records_deterministic_apart_from_runtime(self):
        spec = GeneratorSpec(family="gnp_avg_degree", n=300, param=20.0, seed=5)
        a = run_one(spec, t=3, epsilon=1.0)
        b = run_one(spec, t=3, epsilon=1.0)
        da, db = a.to_json_dict(), b.to_json_dict()
        da.pop("runtime_ms")
        db.pop("runtime_ms")
        assert da == db
        assert a.outcome == "minor"
        assert a.verifier_valid

    def test_stalled_entry_does_not_abort_sweep(self, tmp_path):
        tree_path = tmp_path / "tree.txt"
        tree_path.write_text(to_edge_list_text(random_tree(300, seed=4)))
        specs = [
            GeneratorSpec(family="gnp_avg_degree", n=256, param=20.0, seed=1),
            GeneratorSpec(family="file", path=str(tree_path)),  # K_3-minor-free
            GeneratorSpec(family="gnp_avg_degree", n=256, param=20.0, seed=2),
        ]
        records = run_experiment_sweep(specs, t=3, epsilon=1.0)
        assert len(records) == 3
        assert records[0].outcome == "minor"
        assert records[1].outcome in ("stalled", "handoff")
        assert not records[1].verifier_valid
        assert records[2].outcome == "minor"

    def test_exception_is_recorded_as_error(self, monkeypatch, capsys):
        def broken(*args, **kwargs):
            raise InvariantViolation("injected")

        monkeypatch.setattr(sweep, "find_minor_pipeline", broken)
        spec = GeneratorSpec(family="gnp_avg_degree", n=64, param=8.0, seed=0)
        [record] = run_experiment_sweep([spec], t=3, epsilon=1.0)
        assert record.outcome == "error"
        assert record.detail == "InvariantViolation: injected"
        code = main(["sweep", "--family", "gnp_avg_degree", "--ns", "64", "--param", "8", "--t", "3"])
        assert code == 2
        assert capsys.readouterr().out.splitlines()[-1] == "summary: 1 error"

    def test_verifier_rejection_is_recorded_as_error(self, monkeypatch, capsys):
        def rejecting(g, model):
            return VerificationReport(valid=False, violations=[("injected", "model")])

        monkeypatch.setattr(sweep, "verify_minor_model", rejecting)
        spec = GeneratorSpec(family="gnp_avg_degree", n=300, param=20.0, seed=5)
        record = run_one(spec, t=3, epsilon=1.0)
        assert record.outcome == "error"
        assert record.verifier_valid is False
        assert record.detail.startswith("verifier rejected the witness:")
        code = main(["sweep", "--family", "gnp_avg_degree", "--ns", "300",
                     "--param", "20", "--seeds", "5", "--t", "3"])
        assert code == 2
        assert capsys.readouterr().out.splitlines()[-1] == "summary: 1 error"

    def test_no_success_without_verifier(self):
        specs = [GeneratorSpec(family="gnp_avg_degree", n=300, param=25.0, seed=s) for s in range(3)]
        for record in run_experiment_sweep(specs, t=4, epsilon=1.0):
            if record.outcome in ("minor", "subdivision"):
                assert record.verifier_valid

    def test_persistence(self, tmp_path):
        specs = [GeneratorSpec(family="gnp_avg_degree", n=256, param=20.0, seed=s) for s in (0, 1)]
        records = run_experiment_sweep(specs, t=3, epsilon=1.0)
        csv_path = tmp_path / "out.csv"
        json_path = tmp_path / "out.json"
        write_records_csv(records, csv_path)
        write_records_json(records, json_path)
        with open(csv_path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == CSV_COLUMNS
        assert len(rows) == 3
        data = json.loads(json_path.read_text())
        assert len(data) == 2
        assert data[0]["spec"]["seed"] == 0

    def test_search_budget_exhausted_in_records(self, tmp_path):
        spec = GeneratorSpec(family="gnp_avg_degree", n=300, param=20.0, seed=5)
        records = [run_one(spec, t=3, epsilon=1.0, budget_ops=budget) for budget in (1, None)]
        assert [r.search_budget_exhausted for r in records] == [True, False]
        write_records_csv(records, tmp_path / "out.csv")
        write_records_json(records, tmp_path / "out.json")
        rows = list(csv.DictReader((tmp_path / "out.csv").open(newline="")))
        assert [row["search_budget_exhausted"] for row in rows] == ["True", "False"]
        data = json.loads((tmp_path / "out.json").read_text())
        assert [d["search_budget_exhausted"] for d in data] == [True, False]

    def test_subdivision_mode(self):
        spec = GeneratorSpec(family="gnp_avg_degree", n=1024, param=60.0, seed=0)
        record = run_one(spec, t=3, epsilon=1.0, mode="subdivision")
        assert record.outcome == "subdivision"
        assert record.verifier_valid
        assert record.ratio == pytest.approx(record.witness_size / record.log_n)


@pytest.fixture()
def graph_file(tmp_path):
    g = gnp(400, 25, seed=3)
    path = tmp_path / "g.txt"
    path.write_text(to_edge_list_text(g))
    return path


class TestCli:
    def test_gen_writes_metadata(self, tmp_path, capsys):
        out = tmp_path / "gen.txt"
        code = main([
            "gen", "--family", "grid_torus", "--n", "16", "--out", str(out),
            "--json-out", str(tmp_path / "meta.json"),
        ])
        assert code == 0
        meta = json.loads((tmp_path / "meta.json").read_text())
        assert meta["edges"] == 32
        assert meta["girth"] == 4
        assert out.exists()

    @pytest.mark.parametrize("argv,message", [
        (["gen", "--family", "grid_torus", "--n", "4294967296"], "outside 1..2147483647"),
        (["gen", "--family", "dense_blobs", "--n", "10", "--param", "0.5",
          "--blob-count", "1000000000"], "blob_count = 1000000000 outside 1..n = 10"),
        (["sweep", "--family", "grid_torus", "--ns", "4294967296", "--t", "3"], "outside 1..2147483647"),
        (["sweep", "--family", "dense_blobs", "--ns", "10", "--param", "0.5",
          "--blob-count", "1000000000", "--t", "3"], "blob_count = 1000000000 outside 1..n = 10"),
        (["gen", "--family", "random_regular", "--n", "10", "--param", "2.5"],
         "regular degree 2.5 is not a whole number >= 0"),
        (["gen", "--family", "gnp_avg_degree", "--n", "10", "--param", "-3"], "average degree -3.0 is not >= 0"),
    ])
    def test_out_of_range_spec_exits_one(self, tmp_path, capsys, argv, message):
        # the spec rejects these before a generator allocates for n or per blob
        out = tmp_path / "g.txt"
        assert main(argv + (["--out", str(out)] if argv[0] == "gen" else [])) == 1
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_gen_determinism_flag_combo(self, tmp_path):
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        for out in (a, b):
            assert main([
                "gen", "--family", "random_regular", "--n", "100", "--param", "3",
                "--seed", "7", "--out", str(out), "--no-girth",
            ]) == 0
        assert a.read_text() == b.read_text()

    def test_find_minor_witness_and_verify(self, graph_file, tmp_path, capsys):
        wpath = tmp_path / "w.json"
        code = main([
            "find-minor", "--input", str(graph_file), "--t", "4",
            "--json-out", str(wpath),
        ])
        assert code == 0
        payload = json.loads(wpath.read_text())
        witness = tmp_path / "witness.json"
        witness.write_text(json.dumps(payload["witness"]))
        assert main(["verify", "--input", str(graph_file), "--witness", str(witness)]) == 0

    @pytest.mark.parametrize("vertex", [3 * 10**9, 10**12])
    def test_vertex_id_beyond_int32_is_an_input_error(self, tmp_path, capsys, vertex):
        path = tmp_path / "huge.txt"
        path.write_text(f"0 1\n1 {vertex}\n")
        assert main(["find-minor", "--input", str(path), "--t", "3"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "outside 0..2147483647" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("text,named", [
        ("p edge 3 1\ne 1\n", "bad edge line: 'e 1'"),
        ("0 1\n1 100000000000000000000\n", "vertex id '100000000000000000000'"),
    ])
    def test_unreadable_edge_line_is_an_input_error(self, tmp_path, capsys, text, named):
        path = tmp_path / "bad.txt"
        path.write_text(text)
        assert main(["find-minor", "--input", str(path), "--t", "3"]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot read graph from {path}:") and named in err
        assert "Traceback" not in err

    def test_find_minor_not_found_exit_code(self, tmp_path):
        tree = random_tree(300, seed=4)
        path = tmp_path / "tree.txt"
        path.write_text(to_edge_list_text(tree))
        assert main(["find-minor", "--input", str(path), "--t", "3"]) == 2

    def test_stall_diagnostics_in_json(self, tmp_path):
        path = tmp_path / "tree.txt"
        path.write_text(to_edge_list_text(random_tree(300, seed=4)))
        for command in ("find-minor", "find-subdivision"):
            out = tmp_path / f"{command}.json"
            assert main([command, "--input", str(path), "--t", "3", "--json-out", str(out)]) == 2
            payload = json.loads(out.read_text())
            assert payload["outcome"] == "stalled"
            assert payload["diagnostics"] and isinstance(payload["diagnostics"], dict)
            assert "diagnostics" not in payload["detail"]

    def test_internal_error_exit_code(self, graph_file, monkeypatch, capsys):
        def broken(*args, **kwargs):
            raise InvariantViolation("injected")

        monkeypatch.setattr(cli, "find_minor_pipeline", broken)
        assert main(["find-minor", "--input", str(graph_file), "--t", "3"]) == cli.EXIT_INTERNAL == 3
        err = capsys.readouterr().err
        assert err == "internal error: injected\n"

    def test_verify_rejects_bad_witness(self, graph_file, tmp_path):
        witness = tmp_path / "w.json"
        witness.write_text(json.dumps({"t": 2, "branch_sets": [[0], [1]],
                                       "total_vertices": 2}))
        code = main(["verify", "--input", str(graph_file), "--witness", str(witness)])
        assert code in (0, 2)  # validity depends on the random edge (0,1)

    def test_verify_unit_witness(self, tmp_path):
        g = petersen_graph()
        gpath = tmp_path / "pet.txt"
        gpath.write_text(to_edge_list_text(g))
        unit = {"corner": 0, "spokes": [[0, 1], [0, 4]], "sets": [[1], [4]],
                "centers": [1, 4], "sigma": 0.01}
        wpath = tmp_path / "unit.json"
        wpath.write_text(json.dumps(unit))
        assert main(["verify", "--input", str(gpath), "--witness", str(wpath)]) == 0

    def test_oracle_minor(self, tmp_path):
        g = petersen_graph()
        gpath = tmp_path / "pet.txt"
        gpath.write_text(to_edge_list_text(g))
        assert main(["oracle", "--input", str(gpath), "--t", "5"]) == 0
        assert main(["oracle", "--input", str(gpath), "--t", "4"]) == 0
        tree = tmp_path / "tree.txt"
        tree.write_text(to_edge_list_text(random_tree(9, 1)))
        assert main(["oracle", "--input", str(tree), "--t", "3"]) == 2

    def test_oracle_expander(self, tmp_path):
        gpath = tmp_path / "edge.txt"
        gpath.write_text("0 1\n")
        assert main(["oracle", "--input", str(gpath), "--rate", "1.0", "--eta", "0.125"]) == 0

    def test_extract_expander_json(self, graph_file, tmp_path):
        out = tmp_path / "ex.json"
        code = main([
            "extract-expander", "--input", str(graph_file), "--delta", "0.1",
            "--eta", "0.125", "--json-out", str(out), "--trace",
        ])
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["mode"] in ("plain_expander", "below_threshold")
        assert "trace" in payload

    def test_find_subdivision(self, tmp_path):
        g = gnp(1024, 60, seed=0)
        path = tmp_path / "dense.txt"
        path.write_text(to_edge_list_text(g))
        out = tmp_path / "sub.json"
        code = main([
            "find-subdivision", "--input", str(path), "--t", "3",
            "--json-out", str(out),
        ])
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["outcome"] == "subdivision"
        witness = tmp_path / "sw.json"
        witness.write_text(json.dumps(payload["witness"]))
        assert main(["verify", "--input", str(path), "--witness", str(witness)]) == 0

    def test_sweep_cli(self, tmp_path):
        csv_out = tmp_path / "sweep.csv"
        code = main([
            "sweep", "--family", "gnp_avg_degree", "--ns", "256,512", "--seeds", "0",
            "--param", "25", "--t", "3", "--mode", "minor", "--csv-out", str(csv_out),
        ])
        assert code == 0
        rows = list(csv.reader(csv_out.open()))
        assert len(rows) == 3

    def test_usage_errors_exit_one(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as err:
            main(["gen", "--family", "nope", "--n", "4", "--out", str(tmp_path / "x")])
        assert err.value.code == 1
        assert main(["find-minor", "--input", str(tmp_path / "missing"), "--t", "3"]) == 1
        with pytest.raises(SystemExit) as err:
            main(["sweep", "--t", "bad"])
        assert err.value.code == 1

    @pytest.mark.parametrize("command", ["find-minor", "find-subdivision"])
    @pytest.mark.parametrize("t,epsilon,flag", [
        ("0", "1", "--t"), ("-2", "1", "--t"),
        ("3", "0", "--epsilon"), ("3", "-1", "--epsilon"), ("3", "nan", "--epsilon"),
    ])
    def test_bad_t_or_epsilon_exits_one(self, graph_file, capsys, command, t, epsilon, flag):
        # rejected while parsing, before the graph is read or a pipeline runs
        with pytest.raises(SystemExit) as err:
            main([command, "--input", str(graph_file), "--t", t, "--epsilon", epsilon])
        assert err.value.code == 1
        bad = t if flag == "--t" else epsilon
        err_text = capsys.readouterr().err
        assert f"error: argument {flag}: must be > 0, got {bad}\n" in err_text
        assert "Traceback" not in err_text

    @pytest.mark.parametrize("value", ["0", "-1", "nan"])
    def test_bad_density_target_exits_one(self, graph_file, capsys, value):
        with pytest.raises(SystemExit) as err:
            main(["find-minor", "--input", str(graph_file), "--t", "3", "--density-target", value])
        assert err.value.code == 1
        err_text = capsys.readouterr().err
        assert f"error: argument --density-target: must be > 0, got {value}\n" in err_text
        assert "Traceback" not in err_text

    # every float flag, with the arguments its command requires; --epsilon and
    # --density-target must also be above 0, so -inf and nan fail that first
    FLOAT_FLAGS = [
        (["gen", "--family", "gnp_avg_degree", "--n", "5", "--out", os.devnull], "--param", False),
        (["extract-expander", "--input", "g", "--delta", "0.3", "--eta", "0.1"], "--delta", False),
        (["extract-expander", "--input", "g", "--delta", "0.3", "--eta", "0.1"], "--eta", False),
        (["extract-expander", "--input", "g", "--delta", "0.3", "--eta", "0.1"], "--budget-ms", False),
        (["find-minor", "--input", "g", "--t", "3"], "--epsilon", True),
        (["find-minor", "--input", "g", "--t", "3"], "--density-target", True),
        (["find-minor", "--input", "g", "--t", "3"], "--budget-ms", False),
        (["find-subdivision", "--input", "g", "--t", "3"], "--epsilon", True),
        (["find-subdivision", "--input", "g", "--t", "3"], "--degree-floor-c", False),
        (["find-subdivision", "--input", "g", "--t", "3"], "--budget-ms", False),
        (["verify", "--input", "g", "--witness", "w"], "--delta", False),
        (["oracle", "--input", "g"], "--rate", False),
        (["oracle", "--input", "g"], "--eta", False),
        (["oracle", "--input", "g"], "--small-set-delta", False),
        (["sweep", "--t", "3"], "--param", False),
        (["sweep", "--t", "3"], "--epsilon", True),
        (["sweep", "--t", "3"], "--budget-ms", False),
    ]

    @pytest.mark.parametrize("value", ["inf", "-inf", "nan"])
    @pytest.mark.parametrize("argv,flag,positive", FLOAT_FLAGS)
    def test_non_finite_float_exits_one(self, capsys, argv, flag, positive, value):
        # rejected while parsing, before any file is read
        with pytest.raises(SystemExit) as err:
            main([*argv, f"{flag}={value}"])
        assert err.value.code == 1
        rule = "must be > 0" if positive and value != "inf" else "must be finite"
        err_text = capsys.readouterr().err
        assert f"error: argument {flag}: {rule}, got {value}\n" in err_text
        assert "Traceback" not in err_text

    @pytest.mark.parametrize("text", ["", "# n = 0, m = 0\n"])
    @pytest.mark.parametrize("command", ["find-minor", "find-subdivision"])
    def test_file_without_vertices_exits_one(self, tmp_path, capsys, command, text):
        path = tmp_path / "empty.txt"
        path.write_text(text)
        assert main([command, "--input", str(path), "--t", "4"]) == 1
        err_text = capsys.readouterr().err
        assert err_text == f"error: cannot read graph from {path}: the file holds no vertices\n"

    UNIT = {"corner": 0, "spokes": [[0, 1]], "sets": [[1]], "centers": [1], "sigma": 0.01}

    @pytest.mark.parametrize("witness,flags,named", [
        ({"t": 3, "branch_sets": [[0], [1]]}, [], "ValueError: branch set count differs from t"),
        ({"branch_sets": [[0], [1]]}, [], "KeyError: 't'"),
        ({"t": 2, "corners": [0, 1], "paths": {"0-1": [0, 2, 0, 1]}}, [], "ValueError"),
        (UNIT, ["--delta", "0"], "ValueError: delta must be in (0,1)"),
        (7, [], "TypeError"),
    ])
    def test_verify_bad_witness_is_an_input_error(self, tmp_path, capsys, witness, flags, named):
        gpath = tmp_path / "g.txt"
        gpath.write_text(to_edge_list_text(gnp(60, 10, seed=0)))
        wpath = tmp_path / "w.json"
        wpath.write_text(json.dumps(witness))
        assert main(["verify", "--input", str(gpath), "--witness", str(wpath), *flags]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: bad witness: {named}")
        assert "Traceback" not in err

    def test_find_minor_payload_keys(self, graph_file, tmp_path):
        # the minor pipeline has no route, so find-minor prints no route key
        out = tmp_path / "m.json"
        assert main(["find-minor", "--input", str(graph_file), "--t", "4", "--json-out", str(out)]) == 0
        assert list(json.loads(out.read_text())) == ["outcome", "detail", "diagnostics", "witness_size",
                                                      "brute_force_answer", "witness"]

    def test_find_subdivision_writes_the_fallback_minor(self, tmp_path, capsys):
        # the golden minor-fallback spec: --json-out carries the minor itself
        path = tmp_path / "blobs.txt"
        path.write_text(to_edge_list_text(blobs(600, 0.6, 3, seed=7)))
        out = tmp_path / "fallback.json"
        assert main([
            "find-subdivision", "--input", str(path), "--t", "3",
            "--mode", "minor_or_subdivision", "--json-out", str(out),
        ]) == 0
        payload = json.loads(out.read_text())
        assert list(payload) == ["outcome", "route", "detail", "diagnostics", "witness_size",
                                 "brute_force_answer", "witness"]
        assert (payload["outcome"], payload["route"]) == ("minor", "minor-fallback")
        res = find_subdivision_pipeline(load_graph(path), 3, 1.0, mode="minor_or_subdivision")
        assert payload["witness"] == json.loads(json.dumps(res.model.to_json_dict()))
        assert "branch_sets" in payload["witness"]
        assert payload["witness_size"] == res.model.total_vertices
        printed = json.loads(capsys.readouterr().out)
        assert list(printed) == list(payload)[:-1]
        witness = tmp_path / "minor.json"
        witness.write_text(json.dumps(payload["witness"]))
        assert main(["verify", "--input", str(path), "--witness", str(witness)]) == 0

    def test_gen_impossible_regular_pairing_exits_one(self, tmp_path):
        # near-complete degrees almost never pair up simply; the retry cap
        # turns an endless loop into a usage error
        src = Path(__file__).resolve().parents[1] / "src"
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [str(src)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
        done = subprocess.run(
            [sys.executable, "-m", "minorkit.cli", "gen", "--family", "random_regular",
             "--n", "60", "--param", "57", "--out", str(tmp_path / "g.txt")],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert done.returncode == 1
        assert "no simple 57-regular pairing on 60 vertices" in done.stderr
        assert not (tmp_path / "g.txt").exists()

    def test_budget_flag_accepted(self, graph_file):
        assert main([
            "find-minor", "--input", str(graph_file), "--t", "3", "--budget-ms", "50",
        ]) in (0, 2)


@pytest.mark.parametrize("pipeline", [find_minor_pipeline, find_subdivision_pipeline])
@pytest.mark.parametrize("t,epsilon,message", [
    (0, 1.0, "t must be >= 1, got 0"),
    (3, 0.0, "epsilon must be > 0, got 0.0"),
    (3, float("nan"), "epsilon must be > 0, got nan"),
])
def test_pipelines_reject_bad_t_or_epsilon_first(pipeline, t, epsilon, message):
    # checked before any work: an empty graph would otherwise be named first
    with pytest.raises(ValueError) as err:
        pipeline(Graph(0), t, epsilon)
    assert str(err.value) == message


@pytest.mark.parametrize("density_target", [0.0, -1.0, float("nan")])
def test_minor_pipeline_rejects_bad_density_target_first(density_target):
    with pytest.raises(ValueError) as err:
        find_minor_pipeline(petersen_graph(), 3, 1.0, density_target=density_target)
    assert str(err.value) == f"density_target must be > 0, got {density_target}"
