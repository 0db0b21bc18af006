import csv
import io
import json

import pytest

from densematch import ExperimentConfig, two_cliques, write_edge_list
from densematch.cli import main
from densematch.graphs import format_edge_list, parse_edge_list


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestGen:
    def test_complete(self, capsys):
        code, out, _ = run_cli(capsys, "gen", "--family", "complete", "--n", "6")
        assert code == 0
        g = parse_edge_list(out)
        assert (g.n, g.m) == (6, 15)

    def test_two_cliques_to_file(self, tmp_path, capsys):
        path = tmp_path / "g.edges"
        code, _, _ = run_cli(capsys, "gen", "--family", "two-cliques", "--n", "10",
                             "--out", str(path))
        assert code == 0
        assert parse_edge_list(path.read_text()) == two_cliques(5)

    def test_two_cliques_odd_n(self, capsys):
        code, _, err = run_cli(capsys, "gen", "--family", "two-cliques", "--n", "9")
        assert code == 2
        assert "even" in err

    def test_rtf_deterministic(self, capsys):
        _, out1, _ = run_cli(capsys, "gen", "--family", "rtf", "--n", "20", "--seed", "3")
        _, out2, _ = run_cli(capsys, "gen", "--family", "rtf", "--n", "20", "--seed", "3")
        assert out1 == out2

    def test_rtf_negative_seed(self, capsys):
        code, _, err = run_cli(capsys, "gen", "--family", "rtf", "--n", "10", "--seed", "-1")
        assert code == 2
        assert "seed must be nonnegative (got -1)" in err

    def test_c5_parts(self, capsys):
        code, out, _ = run_cli(capsys, "gen", "--family", "c5", "--parts", "1,1,1,1,2")
        assert code == 0
        assert parse_edge_list(out).n == 6

    def test_c5_bad_parts(self, capsys):
        code, _, err = run_cli(capsys, "gen", "--family", "c5", "--parts", "1,1,x,1,1")
        assert code == 2
        assert "comma-separated" in err

    @pytest.mark.parametrize("argv, message", [
        (("--family", "c5", "--parts", "4,3,3,3,3", "--n", "5000"), "family c5 takes parts, not n"),
        (("--family", "rtf", "--n", "12", "--parts", "4,4,4"), "family rtf takes n, not parts"),
    ], ids=["c5-n", "rtf-parts"])
    def test_field_the_family_does_not_read_is_refused(self, capsys, argv, message):
        code, out, err = run_cli(capsys, "gen", *argv)
        assert code == 2
        assert out == ""
        assert message in err

    @pytest.mark.parametrize("family", ["two-cliques", "rtf", "complete"])
    def test_missing_n(self, capsys, family):
        code, _, err = run_cli(capsys, "gen", "--family", family)
        assert code == 2
        assert "needs n" in err

    @pytest.mark.parametrize("argv, cfg", [
        (("--family", "two-cliques", "--n", "12"), {"family": "two-cliques", "n": 12}),
        (("--family", "rtf", "--n", "30", "--seed", "7"),
         {"family": "rtf", "n": 30, "graph_seed": 7}),
        (("--family", "c5", "--parts", "2,1,3,1,4"), {"family": "c5", "parts": (2, 1, 3, 1, 4)}),
        (("--family", "complete", "--n", "9"), {"family": "complete", "n": 9}),
    ])
    def test_same_graph_as_experiment(self, capsys, argv, cfg):
        code, out, _ = run_cli(capsys, "gen", *argv)
        assert code == 0
        built = ExperimentConfig(c=8.0, t=1, trials=1, master_seed=0, **cfg).build_graph()
        assert out == format_edge_list(built)


class TestOracle:
    def graph_file(self, tmp_path, g):
        path = tmp_path / "g.edges"
        write_edge_list(g, path)
        return str(path)

    def test_cm(self, tmp_path, capsys):
        path = self.graph_file(tmp_path, two_cliques(5))
        code, out, _ = run_cli(capsys, "oracle", "--graph", path, "--op", "cm")
        assert code == 0
        assert json.loads(out) == {"op": "cm", "n": 10, "value": 2}

    def test_omega(self, tmp_path, capsys):
        path = self.graph_file(tmp_path, two_cliques(5))
        _, out, _ = run_cli(capsys, "oracle", "--graph", path, "--op", "omega")
        assert json.loads(out)["value"] == 5

    def test_badquads(self, tmp_path, capsys):
        path = self.graph_file(tmp_path, two_cliques(2))
        _, out, _ = run_cli(capsys, "oracle", "--graph", path, "--op", "badquads")
        doc = json.loads(out)
        assert doc["count"] == 8  # the two component edges are non-adjacent
        assert doc["bound"] is not None

    def test_minmatch(self, tmp_path, capsys):
        path = self.graph_file(tmp_path, two_cliques(3))
        code, out, _ = run_cli(capsys, "oracle", "--graph", path, "--op", "minmatch",
                               "--t", "2")
        assert code == 0
        doc = json.loads(out)
        assert doc["value"] == 1
        assert len(doc["matching"]) == 2

    def test_minmatch_needs_t(self, tmp_path, capsys):
        path = self.graph_file(tmp_path, two_cliques(3))
        code, _, err = run_cli(capsys, "oracle", "--graph", path, "--op", "minmatch")
        assert code == 2
        assert "--t" in err

    def test_audit_needs_t(self, tmp_path, capsys):
        path = self.graph_file(tmp_path, two_cliques(5))
        code, out, err = run_cli(capsys, "oracle", "--graph", path, "--op", "audit")
        assert code == 2 and out == ""
        assert "audit needs --t" in err

    def test_audit(self, tmp_path, capsys):
        path = self.graph_file(tmp_path, two_cliques(5))
        _, out, _ = run_cli(capsys, "oracle", "--graph", path, "--op", "audit", "--t", "3")
        assert json.loads(out)["value"] is True

    def test_limit_override(self, tmp_path, capsys):
        from densematch import complete_graph
        path = self.graph_file(tmp_path, complete_graph(26))
        code, _, err = run_cli(capsys, "oracle", "--graph", path, "--op", "cm")
        assert code == 2 and "limit" in err
        code, out, _ = run_cli(capsys, "oracle", "--graph", path, "--op", "cm",
                               "--limit", "26")
        assert code == 0
        assert json.loads(out)["value"] == 13

    def test_limit_zero_is_applied(self, tmp_path, capsys):
        path = self.graph_file(tmp_path, two_cliques(5))
        code, _, err = run_cli(capsys, "oracle", "--graph", path, "--op", "cm",
                               "--limit", "0")
        assert code == 2
        assert "limit 0" in err

    @pytest.mark.parametrize("op", ["badquads", "audit"])
    def test_limit_rejected_where_unused(self, tmp_path, capsys, op):
        path = self.graph_file(tmp_path, two_cliques(13))
        code, out, err = run_cli(capsys, "oracle", "--graph", path, "--op", op,
                                 "--t", "6", "--limit", "30")
        assert code == 2 and out == ""
        assert "--limit" in err and "cm, omega and minmatch" in err

    def test_missing_file(self, capsys):
        code, _, err = run_cli(capsys, "oracle", "--graph", "/no/such/file",
                               "--op", "cm")
        assert code == 2


class TestExtract:
    def test_json_document(self, tmp_path, capsys):
        from densematch import complement_of_random_triangle_free
        path = tmp_path / "g.edges"
        write_edge_list(complement_of_random_triangle_free(48, 3), path)
        code, out, _ = run_cli(capsys, "extract", "--graph", str(path),
                               "--c", "6", "--t", "2", "--trials", "4", "--seed", "9")
        assert code == 0
        doc = json.loads(out)
        assert doc["parity_vertex_deleted"] is False
        assert len(doc["reports"]) == 4
        assert len(doc["best_matching"]) == 2
        assert doc["params"]["threshold"] >= 2
        assert doc["best_nonadjacent_pairs"] == min(
            r["nonadjacent_pairs"] for r in doc["reports"])

    def test_deterministic_output(self, tmp_path, capsys):
        from densematch import complement_of_random_triangle_free
        path = tmp_path / "g.edges"
        write_edge_list(complement_of_random_triangle_free(48, 3), path)
        args = ("extract", "--graph", str(path), "--c", "6", "--t", "2",
                "--trials", "4", "--seed", "9")
        _, out1, _ = run_cli(capsys, *args)
        _, out2, _ = run_cli(capsys, *args)
        assert out1 == out2

    def test_c_at_exactly_four_rejected(self, tmp_path, capsys):
        path = tmp_path / "g.edges"
        write_edge_list(two_cliques(20), path)
        code, _, err = run_cli(capsys, "extract", "--graph", str(path),
                               "--c", "4", "--t", "10")
        assert code == 2
        assert "exceed 4" in err


class TestExperiment:
    def test_inline_flags(self, capsys):
        code, out, err = run_cli(capsys, "experiment", "--family", "complete",
                                 "--c", "8", "--t", "20", "--n", "160",
                                 "--trials", "5", "--seed", "1")
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert len(rows) == 1
        assert rows[0]["best"] == "0"
        assert "best=0" in err

    def test_config_file_with_error_row(self, tmp_path, capsys):
        config = [
            {"family": "complete", "c": 8.0, "t": 10, "trials": 3,
             "master_seed": 1, "n": 80},
            {"family": "complete", "c": 4.0, "t": 10, "trials": 3,
             "master_seed": 1, "n": 80},
        ]
        path = tmp_path / "grid.json"
        path.write_text(json.dumps(config))
        out_csv = tmp_path / "out.csv"
        out_json = tmp_path / "out.json"
        code, _, _ = run_cli(capsys, "experiment", "--config", str(path),
                             "--out-csv", str(out_csv), "--out-json", str(out_json))
        assert code == 1  # one error row
        rows = list(csv.DictReader(io.StringIO(out_csv.read_text())))
        assert rows[0]["error"] == "" and rows[1]["error"] != ""
        docs = json.loads(out_json.read_text())
        assert "error" in docs[1]

    def test_field_the_family_does_not_read_is_an_error_row(self, capsys):
        code, out, _ = run_cli(capsys, "experiment", "--family", "c5", "--c", "8", "--t", "10",
                               "--parts", "16,16,16,16,16", "--n", "5000")
        assert code == 1
        rows = list(csv.DictReader(io.StringIO(out)))
        assert [row["error"] for row in rows] == ["ValueError: family c5 takes parts, not n"]

    def test_flags_override_config(self, tmp_path, capsys):
        path = tmp_path / "one.json"
        path.write_text(json.dumps({"family": "complete", "c": 8.0, "t": 10,
                                    "trials": 3, "master_seed": 1, "n": 80}))
        code, out, _ = run_cli(capsys, "experiment", "--config", str(path),
                               "--trials", "7")
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert rows[0]["trials"] == "7"

    def test_flag_supplies_missing_key(self, tmp_path, capsys):
        path = tmp_path / "no-trials.json"
        path.write_text(json.dumps({"family": "complete", "c": 8.0, "t": 10,
                                    "master_seed": 1, "n": 80}))
        code, out, _ = run_cli(capsys, "experiment", "--config", str(path),
                               "--trials", "7")
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert rows[0]["trials"] == "7"

    def test_zero_workers_rejected(self, capsys):
        code, _, err = run_cli(capsys, "experiment", "--family", "complete",
                               "--c", "8", "--t", "5", "--n", "40", "--workers", "0")
        assert code == 2
        assert "max_workers must be at least 1" in err

    @pytest.mark.parametrize("entry, field", [
        ({"family": "complete", "c": 8.0, "t": 10, "master_seed": 1, "n": 80}, "trials"),
        ([3], "object"),
        ({"family": "complete", "c": 8.0, "t": 10, "trials": 3, "master_seed": 1, "n": "80"},
         "'n'"),
        ({"family": "complete", "c": 8.0, "t": 10, "trials": True, "master_seed": 1, "n": 80},
         "'trials'"),
        ({"family": "complete", "c": 8.0, "t": 10.5, "trials": 3, "master_seed": 1, "n": 80},
         "'t'"),
        ({"family": "c5", "c": 8.0, "t": 10, "trials": 3, "master_seed": 1,
          "parts": "16,16,16,16,16"}, "'parts'"),
        ({"family": "c5", "c": 8.0, "t": 10, "trials": 3, "master_seed": 1,
          "parts": [1.5, 16, 16, 16, 16]}, "'parts'"),
    ], ids=["missing-key", "non-object", "string-n", "bool-trials", "float-t",
            "string-parts", "float-parts"])
    def test_bad_config_names_field(self, tmp_path, capsys, entry, field):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps([entry]))
        code, out, err = run_cli(capsys, "experiment", "--config", str(path))
        assert code == 2
        assert out == ""
        assert field in err and "Traceback" not in err

    def test_inline_needs_family(self, capsys):
        code, _, err = run_cli(capsys, "experiment", "--c", "8", "--t", "5")
        assert code == 2
        assert "--family" in err
