"""Serialization formats and the command line front end."""

import json
import random
import time
import types
from pathlib import Path

import pytest

from gridlinkage import (
    Graph,
    Instance,
    build_instance,
    check_solution_matches,
    instance_digest,
    make_grid,
    parse_instance,
    parse_solution,
    random_instance,
    read_edge_list,
    serialize_instance,
    serialize_solution,
    solution_paths,
    solve,
    write_edge_list,
)
from gridlinkage import cli as cli_module
from gridlinkage.cli import (
    EXIT_ABORTED,
    EXIT_CHECK_FAILED,
    EXIT_OK,
    EXIT_UNSOLVABLE,
    EXIT_USAGE,
    build_parser,
    main,
)
from gridlinkage.construction import S0_BOTTOM_LEFT, S0_TOP_RIGHT


class TestInstanceRoundTrip:
    def test_generated_instance(self):
        inst = build_instance(2, s0_placement=S0_BOTTOM_LEFT)
        again = parse_instance(serialize_instance(inst))
        assert again == inst

    def test_plain_graph_instance(self):
        graph = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)], labels={0: "a"})
        inst = Instance.make(graph, [(0, 3)], meta={"note": "toy"})
        again = parse_instance(serialize_instance(inst))
        assert again == inst
        assert again.layout is None
        assert again.meta_map == {"note": "toy"}

    def test_serialization_is_stable_text(self):
        inst = build_instance(1, s0_placement=S0_BOTTOM_LEFT)
        assert serialize_instance(inst) == serialize_instance(inst)
        assert serialize_instance(inst).endswith("\n")

    def test_digest_shape_and_sensitivity(self):
        a = build_instance(1, s0_placement=S0_TOP_RIGHT)
        b = build_instance(1, s0_placement=S0_BOTTOM_LEFT)
        da, db = instance_digest(a), instance_digest(b)
        assert len(da) == 64 and set(da) <= set("0123456789abcdef")
        assert da != db

    def test_rejects_wrong_kind(self):
        inst = build_instance(1)
        doc = json.loads(serialize_instance(inst))
        doc["kind"] = "solution"
        with pytest.raises(ValueError):
            parse_instance(json.dumps(doc))

    def test_rejects_wrong_version(self):
        inst = build_instance(1)
        doc = json.loads(serialize_instance(inst))
        doc["format_version"] = 99
        with pytest.raises(ValueError):
            parse_instance(json.dumps(doc))


def k1_layout(edit):
    """The layout block of build_instance(1) after edit(block)."""
    block = json.loads(serialize_instance(build_instance(1)))["layout"]
    edit(block)
    return block


class TestMalformedInstanceDocuments:
    def base_doc(self):
        return json.loads(serialize_instance(build_instance(1)))

    @pytest.mark.parametrize("field", ["vertex_count", "edges", "pairs"])
    def test_missing_field(self, field):
        doc = self.base_doc()
        del doc[field]
        with pytest.raises(ValueError, match=field):
            parse_instance(json.dumps(doc))

    @pytest.mark.parametrize("layout", [
        {"rows": 3},
        {"rows": 3, "cols": 3, "cells": [], "roles": {}, "hosts": {}},
        {"rows": 3, "cols": 3, "cells": {"0": 5}, "roles": {}, "hosts": {}},
        [3, 3],
        # A vertex on a host edge, which layouts do not support.
        k1_layout(lambda block: block["hosts"].update({"9": [0, 1]})),
        k1_layout(lambda block: block.update(cells={})),
        k1_layout(lambda block: block["cells"].update({"1": [1, 1]})),
        k1_layout(lambda block: block["cells"].update({"0": [0, 1]})),
        # Terminal 8 sits on a border cell, so its role is grid-border.
        k1_layout(lambda block: block["roles"].update({"8": "arc-exterior"})),
    ])
    def test_malformed_layout(self, layout, tmp_path, capsys):
        doc = self.base_doc()
        doc["layout"] = layout
        with pytest.raises(ValueError):
            parse_instance(json.dumps(doc))
        path = tmp_path / "broken.json"
        path.write_text(json.dumps(doc))
        assert main(["solve", str(path)]) == EXIT_USAGE
        assert capsys.readouterr().err.startswith("error: ")

    def test_render_of_a_layout_that_places_no_vertex(self, tmp_path, capsys):
        # The renderer reads every vertex's cell: this must stop before it.
        doc = self.base_doc()
        doc["layout"]["cells"] = {}
        path = tmp_path / "no_cells.json"
        path.write_text(json.dumps(doc))
        fig = tmp_path / "fig.svg"
        assert main(["render", str(path), "--out", str(fig)]) == EXIT_USAGE
        assert capsys.readouterr().err.startswith("error: ")
        assert not fig.exists()

    @pytest.mark.parametrize("edit", [
        lambda doc: doc.update(edges=[[0, None]]),
        lambda doc: doc.update(pairs=5),
        lambda doc: doc.update(labels=["a"]),
        lambda doc: doc.update(meta=[1]),
    ])
    def test_malformed_values(self, edit):
        doc = self.base_doc()
        edit(doc)
        with pytest.raises(ValueError):
            parse_instance(json.dumps(doc))

    def test_cli_exits_with_usage_error(self, tmp_path, capsys):
        doc = self.base_doc()
        del doc["vertex_count"]
        path = tmp_path / "broken.json"
        path.write_text(json.dumps(doc))
        assert main(["solve", str(path)]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "vertex_count" in err


class TestSolutionDocuments:
    def fixture_pair(self):
        graph, layout = make_grid(3, 3)
        inst = Instance.make(graph, [(0, 2), (6, 8)], layout)
        out = solve(inst, mode="enumerate_all")
        return inst, out

    def test_round_trip(self):
        inst, out = self.fixture_pair()
        text = serialize_solution(inst, out, "enumerate")
        doc = parse_solution(text)
        assert doc["status"] == "solvable"
        assert len(doc["solutions"]) == 7
        assert parse_solution(serialize_solution(inst, out, "enumerate")) == doc

    def test_crossings_recorded(self):
        inst, out = self.fixture_pair()
        doc = parse_solution(serialize_solution(inst, out, "enumerate"))
        assert doc["crossing"]["per_path"] == [0, 1]
        assert doc["crossing"]["total"] == 1

    def test_linkage_reconstruction(self):
        inst, out = self.fixture_pair()
        doc = parse_solution(serialize_solution(inst, out, "enumerate"))
        link = solution_paths(inst, doc, index=3)
        assert link == out.solutions[3]
        with pytest.raises(ValueError):
            solution_paths(inst, doc, index=7)

    @pytest.mark.parametrize("edit", [
        lambda doc: doc.pop("solutions"),
        lambda doc: doc.update(solutions=5),
        lambda doc: doc.update(solutions=[5]),
        lambda doc: doc.update(solutions=[[[0, "a"]]]),
        lambda doc: doc.update(solutions=[[[99, 0]]]),
    ])
    def test_malformed_solutions(self, edit, tmp_path, capsys):
        inst, out = self.fixture_pair()
        doc = parse_solution(serialize_solution(inst, out, "decide"))
        edit(doc)
        with pytest.raises(ValueError):
            solution_paths(inst, doc)
        inst_path = tmp_path / "inst.json"
        inst_path.write_text(serialize_instance(inst))
        sol_path = tmp_path / "sol.json"
        sol_path.write_text(json.dumps(doc))
        assert main(["render", str(inst_path), str(sol_path)]) == EXIT_USAGE
        assert capsys.readouterr().err.startswith("error: ")

    def test_digest_binding(self):
        inst, out = self.fixture_pair()
        doc = parse_solution(serialize_solution(inst, out, "enumerate"))
        check_solution_matches(inst, doc)
        other = build_instance(1)
        with pytest.raises(ValueError):
            check_solution_matches(other, doc)


class TestEdgeListFormat:
    def test_round_trip(self):
        graph, _ = make_grid(3, 3)
        assert read_edge_list(write_edge_list(graph)) == graph

    def test_isolated_vertices_survive(self):
        g = Graph.from_edges(5, [(0, 1)])
        assert read_edge_list(write_edge_list(g)).vertex_count == 5

    def test_reports_line_numbers(self):
        with pytest.raises(ValueError, match="line 3"):
            read_edge_list("c comment\np edge 3 1\ne 1 9\n")

    def test_rejects_edge_before_header(self):
        with pytest.raises(ValueError):
            read_edge_list("e 1 2\np edge 3 1\n")

    def test_rejects_malformed_header(self):
        with pytest.raises(ValueError):
            read_edge_list("p edge many\ne 1 2\n")

    def test_rejects_unknown_record(self):
        with pytest.raises(ValueError):
            read_edge_list("p edge 2 1\nq 1 2\n")

    @pytest.mark.parametrize("text", [
        "p edge 3 2\ne 1 2\n",
        "p edge 3 1\ne 1 2\ne 2 3\n",
    ])
    def test_rejects_wrong_edge_count(self, text):
        with pytest.raises(ValueError, match="declares"):
            read_edge_list(text)

    def test_cli_width_rejects_wrong_edge_count(self, tmp_path, capsys):
        path = tmp_path / "g.txt"
        path.write_text("p edge 3 5\ne 1 2\ne 2 3\n")
        assert main(["width", str(path)]) == EXIT_USAGE
        assert capsys.readouterr().err.startswith("error: ")


@pytest.fixture
def instance_file(tmp_path):
    path = tmp_path / "k1.json"
    assert main(["generate", "-k", "1", "--s0", "bottom-left",
                 "--out", str(path)]) == EXIT_OK
    return path


class TestCli:
    def test_generate_writes_parseable_file(self, instance_file):
        inst = parse_instance(instance_file.read_text())
        assert inst.meta_map["k"] == 1

    def test_generate_stdout(self, capsys):
        assert main(["generate", "-k", "1"]) == EXIT_OK
        captured = capsys.readouterr()
        assert parse_instance(captured.out).meta_map["k"] == 1
        assert "digest" in captured.err

    def test_generate_rejects_k0(self):
        assert main(["generate", "-k", "0"]) == EXIT_USAGE

    def test_solve_decide(self, instance_file, tmp_path, capsys):
        out = tmp_path / "sol.json"
        code = main(["solve", str(instance_file), "--out", str(out)])
        assert code == EXIT_OK
        doc = parse_solution(out.read_text())
        assert doc["status"] == "solvable"
        summary = capsys.readouterr().out
        assert "status: solvable" in summary

    def test_solve_enumerate_summary(self, instance_file, tmp_path, capsys):
        out = tmp_path / "sol.json"
        code = main(["solve", str(instance_file), "--mode", "enumerate",
                     "--spanning", "--out", str(out)])
        assert code == EXIT_OK
        summary = capsys.readouterr().out
        assert "solutions: 1" in summary
        assert "total_crossings: 1" in summary
        doc = parse_solution(out.read_text())
        assert doc["flags"]["spanning"] is True

    def test_solve_unsolvable_exit(self, tmp_path):
        graph, layout = make_grid(3, 3)
        inst = Instance.make(graph, [(0, 8), (2, 6)], layout)
        path = tmp_path / "bad.json"
        path.write_text(serialize_instance(inst))
        assert main(["solve", str(path)]) == EXIT_UNSOLVABLE

    def test_solve_budget_abort_exit(self, instance_file):
        code = main(["solve", str(instance_file), "--mode", "enumerate",
                     "--budget-nodes", "2"])
        assert code == EXIT_ABORTED

    def test_solve_long_path(self, tmp_path, capsys):
        n = 1500
        graph = Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])
        path = tmp_path / "path.json"
        path.write_text(serialize_instance(Instance.make(graph, [(0, n - 1)])))
        assert main(["solve", str(path), "--out", str(tmp_path / "sol.json")]) == EXIT_OK
        assert "status: solvable" in capsys.readouterr().out

    def test_solve_missing_file(self, tmp_path):
        assert main(["solve", str(tmp_path / "nope.json")]) == EXIT_USAGE

    def test_verify_passes_generated(self, instance_file, capsys):
        assert main(["verify", str(instance_file)]) == EXIT_OK
        text = capsys.readouterr().out
        assert "PASS" in text and "FAIL" not in text

    @pytest.mark.parametrize("k,budget,code", [(3, "20", EXIT_OK), (4, "1", EXIT_OK),
                                               (5, "2", EXIT_ABORTED)])
    def test_verify_larger_instances(self, k, budget, code, tmp_path, capsys):
        # k = 3 and k = 4 are decided in full; the k = 5 count runs out of
        # states and says so.
        path = tmp_path / f"k{k}.json"
        assert main(["generate", "-k", str(k), "--out", str(path)]) == EXIT_OK
        capsys.readouterr()
        start = time.monotonic()
        assert main(["verify", str(path), "--budget-seconds", budget]) == code
        assert time.monotonic() - start < float(budget) + 1.5
        rows = capsys.readouterr().out.splitlines()
        verdict = "PASS" if code == EXIT_OK else "INDETERMINATE"
        assert len(rows) == 5 and all(row.startswith(verdict) for row in rows)

    def test_solve_k5_spends_one_budget(self, tmp_path, capsys):
        # The frontier count stops at its state cap, and the search that
        # follows gets only what is left of the same deadline.
        path = tmp_path / "k5.json"
        assert main(["generate", "-k", "5", "--out", str(path)]) == EXIT_OK
        capsys.readouterr()
        start = time.monotonic()
        assert main(["solve", str(path), "--budget-seconds", "2"]) == EXIT_ABORTED
        assert time.monotonic() - start < 2.5
        assert "status: aborted" in capsys.readouterr().err

    def test_verify_catches_tampering(self, instance_file, tmp_path, capsys):
        inst = parse_instance(instance_file.read_text())
        # drop the border arc; the instance loses its unique solution
        trimmed = Graph.from_edges(
            inst.graph.vertex_count,
            inst.graph.edges - {(2, 8)},
            dict(inst.graph.labels),
        )
        broken = Instance.make(trimmed, inst.pairs, inst.layout, inst.meta_map)
        path = tmp_path / "tampered.json"
        path.write_text(serialize_instance(broken))
        assert main(["verify", str(path)]) == EXIT_CHECK_FAILED
        assert "FAIL" in capsys.readouterr().out

    def test_verify_budget_indeterminate(self, instance_file, capsys):
        code = main(["verify", str(instance_file), "--budget-nodes", "2"])
        assert code == EXIT_ABORTED
        assert "INDETERMINATE" in capsys.readouterr().out

    def test_verify_requires_generator_meta(self, tmp_path):
        graph, layout = make_grid(3, 3)
        inst = Instance.make(graph, [(0, 8)], layout)
        path = tmp_path / "plain.json"
        path.write_text(serialize_instance(inst))
        assert main(["verify", str(path)]) == EXIT_USAGE

    def test_verify_requires_layout(self, tmp_path, capsys):
        inst = build_instance(1)
        bare = Instance.make(inst.graph, inst.pairs, None, {"k": 1})
        path = tmp_path / "bare.json"
        path.write_text(serialize_instance(bare))
        assert main(["verify", str(path)]) == EXIT_USAGE
        assert "layout" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["verify", "width"])
    @pytest.mark.parametrize("k", [None, [1], True, "1", -1])
    def test_malformed_meta_k(self, command, k, tmp_path, capsys):
        doc = json.loads(serialize_instance(build_instance(1, s0_placement=S0_BOTTOM_LEFT)))
        doc["meta"]["k"] = k
        path = tmp_path / "bad_k.json"
        path.write_text(json.dumps(doc))
        assert main([command, str(path)]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "meta k" in err

    def test_width_on_edge_list(self, tmp_path, capsys):
        graph, _ = make_grid(3, 3)
        path = tmp_path / "grid.col"
        path.write_text(write_edge_list(graph))
        assert main(["width", str(path)]) == EXIT_OK
        text = capsys.readouterr().out
        assert "treewidth: 3 (exact)" in text
        assert "pathwidth: 3 (exact)" in text

    def test_width_on_instance_checks_bound(self, instance_file, capsys):
        assert main(["width", str(instance_file)]) == EXIT_OK
        text = capsys.readouterr().out
        assert "bound" in text and "PASS" in text

    def test_width_budget_exit(self, tmp_path):
        graph, _ = make_grid(4, 4)
        path = tmp_path / "grid.col"
        path.write_text(write_edge_list(graph))
        assert main(["width", str(path), "--budget-nodes", "1"]) == EXIT_ABORTED

    def test_width_spends_one_budget(self, tmp_path, capsys):
        path = tmp_path / "k3.json"
        path.write_text(serialize_instance(build_instance(3)))
        start = time.monotonic()
        assert main(["width", str(path), "--budget-seconds", "1"]) == EXIT_ABORTED
        assert time.monotonic() - start < 1.5
        assert "INDETERMINATE" in capsys.readouterr().out

    @pytest.mark.parametrize("argv", [
        ["verify", "{inst}", "--budget-seconds=--"],
        ["verify", "{inst}", "--budget-nodes=--"],
        ["generate", "-k=--"],
        ["solve", "{inst}", "--out=--"],
        ["verify", "{inst}", "--budget-seconds", "nan"],
        ["verify", "{inst}", "--budget-seconds", "-1"],
        ["verify", "{inst}", "--budget-nodes", "-1"],
        ["width", "{inst}", "--budget-seconds", "-0.5"],
        ["solve", "{inst}", "--budget-seconds", "nan"],
        ["oracle", "--budget-nodes", "-5"],
    ])
    def test_bad_option_values_are_usage_errors(self, argv, instance_file, capsys):
        argv = [arg.replace("{inst}", str(instance_file)) for arg in argv]
        assert main(argv) == EXIT_USAGE
        captured = capsys.readouterr()
        assert "error: " in captured.err and "Traceback" not in captured.err
        assert captured.out == ""

    def test_infinite_budget_allowed(self, instance_file):
        assert main(["verify", str(instance_file), "--budget-seconds", "inf"]) == EXIT_OK

    def test_render_svg(self, instance_file, tmp_path):
        fig = tmp_path / "fig.svg"
        assert main(["render", str(instance_file), "--out", str(fig)]) == EXIT_OK
        assert fig.read_text().startswith("<svg")

    def test_render_solution_overlay(self, instance_file, tmp_path):
        sol = tmp_path / "sol.json"
        main(["solve", str(instance_file), "--mode", "enumerate", "--out", str(sol)])
        fig = tmp_path / "fig.svg"
        assert main(["render", str(instance_file), str(sol),
                     "--out", str(fig)]) == EXIT_OK
        assert "stroke" in fig.read_text()

    def test_render_rejects_foreign_solution(self, instance_file, tmp_path):
        sol = tmp_path / "sol.json"
        main(["solve", str(instance_file), "--out", str(sol)])
        other = tmp_path / "k2.json"
        main(["generate", "-k", "2", "--out", str(other)])
        fig = tmp_path / "fig.svg"
        assert main(["render", str(other), str(sol),
                     "--out", str(fig)]) == EXIT_CHECK_FAILED

    def test_render_dot_by_suffix(self, instance_file, tmp_path):
        fig = tmp_path / "fig.dot"
        assert main(["render", str(instance_file), "--out", str(fig)]) == EXIT_OK
        assert fig.read_text().startswith("graph")

    def test_oracle_agreement(self, capsys):
        assert main(["oracle", "--count", "10", "--max-vertices", "8"]) == EXIT_OK
        assert "agree" in capsys.readouterr().out

    def test_oracle_skips_the_reference_when_aborted(self, monkeypatch, capsys):
        # The reference has no budget, so an aborted solve must not reach
        # it: at 40 vertices one reference call can run for minutes.
        def reference(instance, require_spanning=False):
            raise AssertionError("reference called for an aborted instance")

        monkeypatch.setattr(cli_module, "brute_force_oracle", reference)
        assert main(["oracle", "--count", "3", "--max-vertices", "40",
                     "--budget-nodes", "10"]) == EXIT_OK
        captured = capsys.readouterr()
        assert captured.err.count("aborted, skipping comparison") == 3
        assert "oracle agreement: 3/3 instances" in captured.out

    def test_oracle_reports_a_mismatch(self, monkeypatch, capsys):
        # A reference that lists every solution twice disagrees wherever
        # the solver finds one: those instances are named on stderr, and
        # the agreement line still closes the run.
        real = cli_module.brute_force_oracle

        def doubled(instance, require_spanning=False):
            return types.SimpleNamespace(solutions=real(instance, require_spanning).solutions * 2)

        monkeypatch.setattr(cli_module, "brute_force_oracle", doubled)
        assert main(["oracle", "--count", "6", "--max-vertices", "8"]) == EXIT_CHECK_FAILED
        captured = capsys.readouterr()
        assert captured.err.splitlines() == [
            "instance 3: solver found 1, reference found 2",
            "instance 4: solver found 67, reference found 134",
            "instance 5: solver found 8, reference found 16",
        ]
        assert captured.out == "oracle agreement: 3/6 instances (seed 0)\n"

    @pytest.mark.parametrize("max_pairs", ["0", "-2"])
    def test_oracle_needs_one_pair(self, max_pairs, capsys):
        assert main(["oracle", "--max-pairs", max_pairs]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert "max_pairs must be at least 1" in captured.err
        assert captured.out == ""

    def test_random_instance_needs_one_pair(self):
        for max_pairs in (0, -2):
            with pytest.raises(ValueError, match="max_pairs must be at least 1"):
                random_instance(random.Random(0), max_pairs=max_pairs)

    def test_usage_errors(self):
        assert main([]) == EXIT_USAGE
        assert main(["frobnicate"]) == EXIT_USAGE
        assert main(["generate"]) == EXIT_USAGE

    def test_byte_identical_reruns(self, instance_file, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for target in (a, b):
            main(["solve", str(instance_file), "--mode", "enumerate",
                  "--out", str(target)])
        assert a.read_bytes() == b.read_bytes()


def run(argv, capsys):
    """main(argv) as (exit code, stdout, stderr)."""
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_alone(argv, capsys):
    """main(argv) on a parser built for this call only, as in a new process."""
    build_parser.cache_clear()
    return run(argv, capsys)


@pytest.fixture
def k2_top_right(tmp_path):
    # 21 linkages, none of them spanning, so a --spanning that stuck to
    # the parser would change the next document.
    path = tmp_path / "k2.json"
    assert main(["generate", "-k", "2", "--s0", "top-right", "--out", str(path)]) == EXIT_OK
    return path


class TestSharedParser:
    """main() builds its parser once per process; no call may leave
    anything behind in it for the next."""

    def test_built_once(self, instance_file, capsys):
        build_parser.cache_clear()
        parser = build_parser()
        for argv in (["verify", str(instance_file)], ["generate"],
                     ["width", str(instance_file), "--tw"]):
            main(argv)
        assert build_parser() is parser
        assert build_parser.cache_info().misses == 1

    def test_spanning_flag_does_not_stick(self, k2_top_right, tmp_path, capsys):
        spanning = ["solve", str(k2_top_right), "--mode", "enumerate", "--spanning",
                    "--out", str(tmp_path / "span.json")]
        every = ["solve", str(k2_top_right), "--mode", "enumerate",
                 "--out", str(tmp_path / "all.json")]
        alone = []
        for argv in (spanning, every):
            alone.append((run_alone(argv, capsys), Path(argv[-1]).read_bytes()))
        for argv, want in zip((spanning, every), alone):
            assert (run(argv, capsys), Path(argv[-1]).read_bytes()) == want
        assert [result[0][0] for result in alone] == [EXIT_UNSOLVABLE, EXIT_OK]
        assert "solutions: 21" in alone[1][0][1]

    def test_usage_error_then_valid_command(self, instance_file, capsys):
        valid = ["solve", str(instance_file), "--mode", "count"]
        want = run_alone(valid, capsys)
        assert want[0] == EXIT_OK and "unique: true" in want[2]
        code, out, err = run(["solve", str(instance_file), "--mode", "bogus"], capsys)
        assert code == EXIT_USAGE and out == "" and "invalid choice" in err
        assert run(valid, capsys) == want

    def test_width_flags_do_not_stick(self, instance_file, capsys):
        code, out, _ = run(["width", str(instance_file), "--tw"], capsys)
        assert code == EXIT_OK and "pathwidth" not in out
        code, out, _ = run(["width", str(instance_file)], capsys)
        assert code == EXIT_OK
        assert "treewidth: 3 (exact)" in out and "pathwidth: 3 (exact)" in out

    @pytest.mark.parametrize("columns", ["40", "200"])
    def test_help_matches_a_fresh_parser(self, columns, instance_file, monkeypatch, capsys):
        # The help formatter reads the terminal width when help is
        # printed, so a shared parser still follows COLUMNS.
        main(["solve", str(instance_file), "--spanning"])
        monkeypatch.setenv("COLUMNS", columns)
        capsys.readouterr()
        assert main(["solve", "-h"]) == EXIT_OK
        shown = capsys.readouterr().out
        fresh = build_parser.__wrapped__()
        command = next(a for a in fresh._actions if a.dest == "command")
        assert shown == command.choices["solve"].format_help()
        assert main(["-h"]) == EXIT_OK
        assert capsys.readouterr().out == fresh.format_help()


class TestGenerateDigest:
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_printed_digest_is_the_file_digest(self, k, tmp_path, capsys):
        inst, sol = tmp_path / f"k{k}.json", tmp_path / f"k{k}.sol.json"
        assert main(["generate", "-k", str(k), "--out", str(inst)]) == EXIT_OK
        lines = capsys.readouterr().out.splitlines()
        (printed,) = [line.removeprefix("digest: ") for line in lines
                      if line.startswith("digest: ")]
        assert printed == instance_digest(parse_instance(inst.read_text()))
        assert main(["solve", str(inst), "--out", str(sol)]) == EXIT_OK
        assert parse_solution(sol.read_text())["instance_digest"] == printed
