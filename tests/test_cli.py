import contextlib
import gc
import io
import json
import os
import random
import re
import shutil
import subprocess
import sys
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from beliefscope import cli, endoscopy, models, network, propagation, relational, temporal, witness
from beliefscope.endoscopy import SCENARIOS, generate_stream
from beliefscope.models import builtin_model, dynamic_to_document, semi_static_to_document
from beliefscope.network import network_spec_to_document, replace
from beliefscope.propagation import Beliefs, sig10, sig10_json
from beliefscope.relational import Region, scene_to_document
from beliefscope.temporal import Frame, FrameStream, build_dynamic_window, stream_to_jsonl

from helpers import (FUZZ_VALUES, counted_diagnostics, mutated, random_region,
                     whole_stream_command)


TWO_NODE_DOC = {
    "root": "O",
    "nodes": [
        {"id": "O", "kind": "chance", "states": ["t", "f"], "prior": [0.5, 0.5]},
        {"id": "F", "kind": "chance", "states": ["t", "f"], "parent": "O",
         "cpt": [[0.9, 0.1], [0.2, 0.8]]},
    ],
}


@pytest.fixture
def two_node_spec_file(tmp_path):
    path = tmp_path / "two_node.json"
    path.write_text(json.dumps(TWO_NODE_DOC))
    return str(path)


@pytest.fixture
def evidence_file(tmp_path):
    path = tmp_path / "evidence.json"
    path.write_text('{"assignments": {"F": "t"}}')
    return str(path)


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_captured(argv):
    """``run`` without the capsys fixture, which property tests cannot take."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


class TestValidate:
    def test_valid_spec(self, capsys, two_node_spec_file):
        code, _, err = run(capsys, "validate", "--spec", two_node_spec_file)
        assert code == 0
        assert "ok" in err

    def test_out_is_an_unknown_argument(self, capsys, tmp_path):
        """validate writes no document, so it takes no --out."""
        path = tmp_path / "report.txt"
        with pytest.raises(SystemExit) as info:
            cli.main(["validate", "--model", "bend", "--out", str(path)])
        assert info.value.code == 2
        assert "unrecognized arguments: --out" in capsys.readouterr().err
        assert not path.exists()

    def test_window_id_shared_with_the_hypothesis_exits_1(self, capsys, tmp_path):
        doc = dynamic_to_document(builtin_model("dirty_lens").model)
        doc["hypothesis"]["id"] = "spot_2"
        path = tmp_path / "model.json"
        path.write_text(json.dumps(doc))
        for argv in (["validate"], ["track", "--scenario", "static_spot", "--frames", "6"]):
            code, out, err = run(capsys, *argv, "--spec", str(path))
            assert (code, out, err) == (1, "", "duplicate node id 'spot_2'\n"), argv

    def test_static_over_differently_bound_inputs_exits_1(self, capsys, tmp_path):
        rows = [[0.8, 0.2], [0.3, 0.7]]
        per_frame = {"root": "h", "nodes": [
            {"id": "h", "kind": "chance", "states": ["t", "f"], "prior": [0.5, 0.5]},
            {"id": "d", "kind": "chance", "states": ["present", "absent"], "parent": "h",
             "cpt": rows},
            {"id": "b", "kind": "chance", "states": ["present", "absent"], "parent": "h",
             "cpt": rows},
            {"id": "s", "kind": "relation", "states": ["holds", "holds_not"], "parent": "h",
             "cpt": rows, "evaluator": "static", "inputs": ["d", "b"]},
        ], "bind": {"d": {"colour_class": "dark"}, "b": {"colour_class": "bright"}}}
        path = tmp_path / "model.json"
        path.write_text(json.dumps({"type": "semi_static", "per_frame": per_frame,
                                    "transition": [[0.9, 0.1], [0.1, 0.9]]}))
        message = "relation node s: static inputs 'd' and 'b' are bound by different predicates\n"
        for argv in (["validate"], ["track", "--scenario", "surround_scene", "--frames", "3"]):
            code, out, err = run(capsys, *argv, "--spec", str(path))
            assert (code, out, err) == (1, "", message), argv

    def test_invalid_spec_exits_1_with_diagnostics(self, capsys, tmp_path):
        doc = json.loads(json.dumps(TWO_NODE_DOC))
        doc["nodes"][1]["cpt"] = [[0.9, 0.2], [0.2, 0.8]]
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, "validate", "--spec", str(path))
        assert code == 1
        assert "row sum 1.1 != 1" in err
        assert out == ""

    def test_parse_error_exits_2(self, capsys, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        code, _, err = run(capsys, "validate", "--spec", str(path))
        assert code == 2
        assert "line 1" in err

    def test_missing_file_exits_2(self, capsys):
        code, _, _ = run(capsys, "validate", "--spec", "/nonexistent/spec.json")
        assert code == 2

    def test_builtin_models_validate(self, capsys):
        for name in ("diverticulum", "bend", "lumen_tracker", "dirty_lens"):
            code, _, _ = run(capsys, "validate", "--model", name)
            assert code == 0

    def test_dynamic_model_document_is_fully_checked(self, capsys, tmp_path):
        doc = {
            "type": "dynamic",
            "hypothesis": {"id": "h", "states": ["present", "absent"], "prior": [0.7, 0.7]},
            "feature": {"id": "s", "cpt": [[0.8, 0.2], [0.2, 0.8]],
                        "bind": {"colour_class": "maroon"}},
            "relation": {"id": "r", "evaluator": "static", "cpt": [[0.8, 0.2], [0.2, 0.8]]},
        }
        path = tmp_path / "dyn.json"
        path.write_text(json.dumps(doc))
        code, _, err = run(capsys, "validate", "--spec", str(path))
        assert code == 1
        assert "row sum 1.4" in err
        assert "unknown colour class 'maroon'" in err

    def test_semi_static_document_lists_per_frame_and_transition_diagnostics(self, capsys,
                                                                             tmp_path):
        doc = semi_static_to_document(builtin_model("lumen_tracker").model)
        doc["per_frame"]["nodes"][1]["cpt"][0] = [0.9, 0.2]
        doc["transition"][0] = [0.5, 0.6]
        path = tmp_path / "semi.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, "validate", "--spec", str(path))
        assert (code, out) == (1, "")
        assert err.splitlines() == ["node dark_region: row sum 1.1 != 1 (row 0)",
                                    "transition: row sum 1.1 != 1 (row 0)"]

    def test_ragged_transition_is_a_diagnostic_beside_the_per_frame_ones(self, capsys, tmp_path):
        doc = semi_static_to_document(builtin_model("lumen_tracker").model)
        doc["per_frame"]["nodes"][1]["cpt"][0] = [0.9, 0.2]
        doc["transition"] = [[0.9, 0.1], [0.2]]
        path = tmp_path / "semi.json"
        path.write_text(json.dumps(doc))
        assert run(capsys, "validate", "--spec", str(path)) == (
            1, "", "node dark_region: row sum 1.1 != 1 (row 0)\n"
                   "transition must be 2x2 over the hypothesis states\n")

    def test_dynamic_document_lists_evaluator_and_window_diagnostics(self, capsys, tmp_path):
        doc = dynamic_to_document(builtin_model("dirty_lens").model)
        doc["relation"]["evaluator"] = "adjacent"
        doc["feature"]["cpt"][0] = [0.9, 0.2]
        path = tmp_path / "dyn.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, "validate", "--spec", str(path))
        assert (code, out) == (1, "")
        assert err.splitlines() == [
            "dynamic relation evaluator must be static or distance, got 'adjacent'",
            "node spot_0: row sum 1.1 != 1 (row 0)",
        ]

    def test_unknown_dynamic_evaluator_keeps_the_other_diagnostics(self, capsys, tmp_path):
        doc = dynamic_to_document(builtin_model("dirty_lens").model)
        doc["relation"]["evaluator"] = "above"
        doc["feature"]["cpt"][0] = [0.9, 0.2]
        doc["feature"]["bind"]["colour_class"] = "maroon"
        path = tmp_path / "dyn.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, "validate", "--spec", str(path))
        assert (code, out) == (1, "")
        assert err.splitlines() == [
            "dynamic relation evaluator must be static or distance, got 'above'",
            "node spot_0: row sum 1.1 != 1 (row 0)",
            "bound node spot_0: unknown colour class 'maroon'",
        ]


    def test_deeply_nested_spec_exits_2_naming_the_deepest_line(self, capsys, tmp_path):
        path = tmp_path / "model.json"
        # brackets inside a string do not nest
        path.write_text('{"root": "O\\"' + "[" * 9000 + '",\n "nodes": ' + "[" * 5000
                        + "]" * 5000 + ',\n "bind": {}}')
        code, out, err = run(capsys, "validate", "--spec", str(path))
        assert (code, out, err) == (2, "", "JSON value nested too deeply (line 2, column 1)\n")


class TestCompile:
    def test_compile_emits_a_loadable_spec(self, capsys, tmp_path):
        code, out, _ = run(capsys, "compile", "--rule",
                           "IF bright region SURROUNDING dark region THEN diverticulum")
        assert code == 0
        doc = json.loads(out)
        assert doc["root"] == "diverticulum"
        path = tmp_path / "compiled.json"
        path.write_text(out)
        assert run(capsys, "validate", "--spec", str(path))[0] == 0

    def test_malformed_rule_exits_2_with_position(self, capsys):
        code, _, err = run(capsys, "compile", "--rule",
                           "IF dark region NEXTTO bright region THEN bend")
        assert code == 2
        assert "unknown relation NEXTTO" in err
        assert "position 15" in err

    def test_compile_dynamic_rule(self, capsys):
        code, out, _ = run(capsys, "compile", "--rule",
                           "IF yellow or green or brown spots & static in image THEN lens is dirty")
        assert code == 0
        assert json.loads(out)["type"] == "dynamic"

    def test_defaults_flag(self, capsys, tmp_path):
        path = tmp_path / "defaults.json"
        path.write_text('{"hypothesis_prior": 0.25}')
        code, out, _ = run(capsys, "compile", "--rule", "IF dark region THEN lumen",
                           "--defaults", str(path))
        assert code == 0
        assert json.loads(out)["nodes"][0]["prior"] == [0.25, 0.75]


    @pytest.mark.parametrize("rule", ["IF bright region THEN x",
                                      "IF yellow spots & static THEN x"])
    def test_invalid_defaults_exit_1_without_a_document(self, capsys, tmp_path, rule):
        path = tmp_path / "defaults.json"
        path.write_text('{"feature_given_present": 1.5}')
        code, out, err = run(capsys, "compile", "--rule", rule, "--defaults", str(path))
        assert (code, out) == (1, "")
        assert "cpt entry 1.5 outside [0,1] (row 0)" in err

    def test_non_numeric_default_exits_2(self, capsys, tmp_path):
        path = tmp_path / "defaults.json"
        path.write_text('{"hypothesis_prior": "x"}')
        code, out, err = run(capsys, "compile", "--rule", "IF bright region THEN x",
                             "--defaults", str(path))
        assert (code, out) == (2, "")
        assert "default 'hypothesis_prior': expected a finite number" in err


class TestInfer:
    def test_golden_two_node_posterior(self, capsys, two_node_spec_file, evidence_file):
        code, out, _ = run(capsys, "infer", "--spec", two_node_spec_file,
                           "--scene", evidence_file)
        assert code == 0
        assert "0.8181818182" in out
        assert json.loads(out)["beliefs"]["F"]["t"] == 1.0

    def test_scenario_input(self, capsys):
        code, out, _ = run(capsys, "infer", "--model", "diverticulum",
                           "--scenario", "surround_scene")
        assert code == 0
        doc = json.loads(out)
        assert doc["beliefs"]["diverticulum"]["present"] > 0.9

    def test_scene_file_input(self, capsys, tmp_path):
        scene = {"regions": [{"id": "r1", "colour_class": "dark", "centroid": [12, 9],
                              "area": 5, "bbox": [11, 8, 13, 10]}]}
        path = tmp_path / "scene.json"
        path.write_text(json.dumps(scene))
        code, out, _ = run(capsys, "infer", "--model", "bend", "--scene", str(path))
        assert code == 0
        # dark present and bright absent cancel exactly at the symmetric defaults
        assert json.loads(out)["beliefs"]["bend"]["present"] == pytest.approx(0.5)
        assert json.loads(out)["beliefs"]["bright_arc"]["absent"] == 1.0

    @pytest.mark.parametrize("scene", ['{"assignments": {"F": "t"}}', '{"regions": []}'])
    def test_each_input_document_is_decoded_once(self, capsys, monkeypatch, tmp_path,
                                                  two_node_spec_file, scene):
        decoded, real = [], network.load_json

        def counted(text, line=1):
            decoded.append(text)
            return real(text, line)

        for module in (cli, network):
            monkeypatch.setattr(module, "load_json", counted)
        (tmp_path / "scene.json").write_text(scene)
        code, _, _ = run(capsys, "infer", "--spec", two_node_spec_file,
                         "--scene", str(tmp_path / "scene.json"))
        assert code == 0 and decoded == [json.dumps(TWO_NODE_DOC), scene]

    def test_deeply_nested_scene_names_the_deepest_line(self, capsys, tmp_path,
                                                         two_node_spec_file):
        path = tmp_path / "scene.json"
        path.write_text('{\n "regions": [],\n "extra": ' + "[" * 5000 + "]" * 5000 + "\n}")
        code, out, err = run(capsys, "infer", "--spec", two_node_spec_file, "--scene", str(path))
        assert (code, out, err) == (2, "", "JSON value nested too deeply (line 3, column 1)\n")

    def test_impossible_evidence_exits_3(self, capsys, tmp_path, evidence_file):
        doc = json.loads(json.dumps(TWO_NODE_DOC))
        doc["nodes"][1]["cpt"] = [[0.0, 1.0], [0.0, 1.0]]
        path = tmp_path / "zero.json"
        path.write_text(json.dumps(doc))
        code, _, err = run(capsys, "infer", "--spec", str(path), "--scene", evidence_file)
        assert code == 3
        assert "impossible evidence" in err

    def test_wide_star_beyond_underflow_exits_0(self, capsys, tmp_path):
        k = 1000
        doc = {"root": "H", "nodes": [
            {"id": "H", "kind": "chance", "states": ["a", "b", "c"], "prior": [0.2, 0.3, 0.5]}]}
        for i in range(k):
            doc["nodes"].append({"id": f"c{i}", "kind": "chance", "states": ["present", "absent"],
                                 "parent": "H", "cpt": [[0.6, 0.4], [0.5, 0.5], [0.55, 0.45]]})
        spec = tmp_path / "star.json"
        spec.write_text(json.dumps(doc))
        evidence = tmp_path / "evidence.json"
        evidence.write_text(json.dumps({"assignments": {f"c{i}": "absent" for i in range(k)}}))
        code, out, err = run(capsys, "infer", "--spec", str(spec), "--scene", str(evidence))
        assert code == 0, err
        hub = json.loads(out)["beliefs"]["H"]
        assert [hub[s] for s in "abc"] == pytest.approx([8.2015461477e-98, 1.0, 2.9131187529e-46],
                                                        rel=1e-8)

    def test_unknown_evaluator_with_evidence_exits_1(self, capsys, tmp_path, evidence_file):
        doc = json.loads(json.dumps(TWO_NODE_DOC))
        doc["nodes"].append({"id": "R", "kind": "relation", "states": ["holds", "holds_not"],
                             "parent": "O", "cpt": [[0.8, 0.2], [0.2, 0.8]],
                             "evaluator": "above", "inputs": ["F", "F"]})
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(doc))
        _, _, diagnostics = run(capsys, "validate", "--spec", str(path))
        assert diagnostics == "relation node R: unknown evaluator 'above'\n"
        for command in ("infer", "check"):
            code, out, err = run(capsys, command, "--spec", str(path), "--scene", evidence_file)
            assert (code, out, err) == (1, "", diagnostics), command

    def test_temporal_model_rejected(self, capsys):
        code, _, err = run(capsys, "infer", "--model", "lumen_tracker",
                           "--scenario", "surround_scene")
        assert code == 2
        assert "track" in err

    def test_out_flag_writes_file(self, capsys, tmp_path, two_node_spec_file, evidence_file):
        out_path = tmp_path / "beliefs.json"
        code, out, _ = run(capsys, "infer", "--spec", two_node_spec_file,
                           "--scene", evidence_file, "--out", str(out_path))
        assert code == 0
        assert out == ""
        assert "0.8181818182" in out_path.read_text()


class TestTrackAndGenerate:
    def test_generate_deterministic_bytes(self, capsys):
        _, first, _ = run(capsys, "generate", "--scenario", "static_spot",
                          "--seed", "7", "--frames", "5")
        _, second, _ = run(capsys, "generate", "--scenario", "static_spot",
                           "--seed", "7", "--frames", "5")
        assert first == second
        assert first.splitlines()[0] == '{"dt": 0.04}'

    def test_track_semi_static(self, capsys, tmp_path):
        _, stream_text, _ = run(capsys, "generate", "--scenario", "surround_scene", "--frames", "4")
        path = tmp_path / "stream.jsonl"
        path.write_text(stream_text)
        code, out, _ = run(capsys, "track", "--model", "lumen_tracker", "--stream", str(path))
        assert code == 0
        lines = [json.loads(ln) for ln in out.splitlines()]
        assert [ln["index"] for ln in lines] == [0, 1, 2, 3]
        assert set(lines[0]) == {"index", "posterior", "effective_prior", "bindings"}
        posts = [ln["posterior"]["lumen"] for ln in lines]
        assert posts == sorted(posts)  # persistent dark region keeps reinforcing

    def test_track_reads_stdin(self, capsys, monkeypatch, tmp_path):
        _, stream_text, _ = run(capsys, "generate", "--scenario", "static_spot",
                                "--seed", "7", "--frames", "5")
        path = tmp_path / "stream.jsonl"
        path.write_text(stream_text)
        _, from_file, _ = run(capsys, "track", "--model", "dirty_lens", "--stream", str(path))
        monkeypatch.setattr(sys, "stdin", io.StringIO(stream_text))
        _, from_pipe, _ = run(capsys, "track", "--model", "dirty_lens", "--stream", "-")
        assert from_pipe == from_file

    def test_track_byte_identical_across_runs(self, capsys):
        args = ("track", "--model", "dirty_lens", "--scenario", "static_spot",
                "--seed", "7", "--frames", "6", "--window", "4")
        _, first, _ = run(capsys, *args)
        _, second, _ = run(capsys, *args)
        assert first == second

    def test_track_mode_override(self, capsys):
        base = ("track", "--model", "lumen_tracker", "--scenario", "empty", "--frames", "3")
        _, paper, _ = run(capsys, *base)
        _, filt, _ = run(capsys, *base, "--mode", "filter")
        # uniform static prior: the two modes coincide
        assert paper == filt

    def test_semi_static_model_is_validated_once(self, capsys, monkeypatch):
        calls = counted_diagnostics(monkeypatch)
        code, out, _ = run(capsys, "track", "--model", "lumen_tracker",
                           "--scenario", "surround_scene", "--frames", "6")
        assert (code, len(out.splitlines()), len(calls)) == (0, 6, 1)

    def test_track_rejects_static_model(self, capsys):
        code, _, err = run(capsys, "track", "--model", "diverticulum",
                           "--scenario", "static_spot")
        assert code == 2
        assert "infer" in err

    @pytest.mark.parametrize("replace, by", [
        pytest.param('{"dt": 0.04}', '{"dt": NaN}', id="dt-nan"),
        pytest.param('"t": 0.04', '"t": NaN', id="t-nan"),
        pytest.param('"index": 1', '"index": 0.9', id="index-float"),
        pytest.param('"index": 1', '"index": true', id="index-bool"),
        pytest.param('"centroid": [30.0', '"centroid": ["nan"', id="centroid-str"),
        pytest.param('"area": 9', '"area": 9.7', id="area-float"),
        pytest.param('"bbox": [20, 20, 40, 40]', '"bbox": [20, 20, 40, 40.0]', id="bbox-float"),
        pytest.param('"id": "ring"', '"id": ["ring"]', id="region-id-list"),
        pytest.param('{"dt": 0.04}\n', '{"dt": 0.04}\n{"index": 0, "t": 0.0, "regions": 5}\n',
                     id="regions-int"),
    ])
    def test_non_finite_or_mistyped_stream_exits_2(self, capsys, tmp_path, replace, by):
        _, stream_text, _ = run(capsys, "generate", "--scenario", "surround_scene", "--frames", "3")
        assert replace in stream_text
        path = tmp_path / "stream.jsonl"
        path.write_text(stream_text.replace(replace, by, 1))
        code, out, _ = run(capsys, "track", "--model", "lumen_tracker", "--stream", str(path))
        assert code == 2
        assert out == ""

    def test_invalid_dynamic_spec_lists_every_diagnostic(self, capsys, tmp_path):
        doc = dynamic_to_document(builtin_model("dirty_lens").model)
        doc["feature"]["cpt"][0] = [0.9, 0.2]
        path = tmp_path / "dyn.json"
        path.write_text(json.dumps(doc))
        _, _, diagnostics = run(capsys, "validate", "--spec", str(path))
        assert "row sum 1.1 != 1" in diagnostics
        for command in ("track", "check"):
            code, out, err = run(capsys, command, "--spec", str(path),
                                 "--scenario", "static_spot", "--frames", "4")
            assert (code, out, err) == (1, "", diagnostics), command

    def test_window_beyond_the_model_cap_rejected_by_track_and_check(self, capsys):
        for command in ("track", "check"):
            code, out, err = run(capsys, command, "--model", "dirty_lens", "--scenario",
                                 "static_spot", "--frames", "3", "--window", "7")
            assert (code, out) == (1, ""), command
            assert "window 7 exceeds max 5" in err

    @pytest.mark.parametrize("where, key, value", [
        pytest.param(None, "delta", "nan", id="delta-str"),
        pytest.param(None, "max_window", 3.7, id="max-window-float"),
        pytest.param(None, "max_window", True, id="max-window-bool"),
        pytest.param(None, "max_window", "5", id="max-window-str"),
        pytest.param("hypothesis", "prior", ["nan", 0.5], id="prior-str"),
        pytest.param("feature", "cpt", [[0.8, "0.2"], [0.2, 0.8]], id="feature-cpt-str"),
        pytest.param("relation", "cpt", [[0.8, 0.2], [True, 0.8]], id="relation-cpt-bool"),
        pytest.param("relation", "params", {"epsilon": "nan"}, id="param-str"),
        pytest.param("relation", "params", [], id="params-list"),
    ])
    def test_non_finite_or_mistyped_dynamic_model_exits_2(self, capsys, tmp_path,
                                                          where, key, value):
        doc = dynamic_to_document(builtin_model("dirty_lens").model)
        (doc if where is None else doc[where])[key] = value
        path = tmp_path / "dyn.json"
        path.write_text(json.dumps(doc))
        for argv in (["validate"], ["track", "--scenario", "moving_spot"]):
            code, out, _ = run(capsys, argv[0], "--spec", str(path), *argv[1:])
            assert (code, out) == (2, ""), argv

    @pytest.mark.parametrize("states", [["clean", -0.0], ["clean", None], "ab", {"a": 1}])
    def test_non_string_hypothesis_states_exit_2(self, capsys, tmp_path, states):
        doc = dynamic_to_document(builtin_model("dirty_lens").model)
        doc["hypothesis"]["states"] = states
        path = tmp_path / "dyn.json"
        path.write_text(json.dumps(doc))
        for argv in (["validate"], ["track", "--scenario", "static_spot"],
                     ["check", "--scenario", "static_spot"]):
            code, out, err = run(capsys, argv[0], "--spec", str(path), *argv[1:])
            assert (code, out) == (2, ""), argv
            assert err == "dynamic model: hypothesis 'states': expected a list of strings\n"

    @pytest.mark.parametrize("entry", ["nan", "0.1", True, None])
    def test_non_numeric_transition_entry_exits_2(self, capsys, tmp_path, entry):
        doc = semi_static_to_document(builtin_model("lumen_tracker").model)
        doc["transition"][1][0] = entry
        path = tmp_path / "semi.json"
        path.write_text(json.dumps(doc))
        for argv in (["validate"], ["track", "--scenario", "surround_scene"]):
            code, out, err = run(capsys, argv[0], "--spec", str(path), *argv[1:])
            assert (code, out) == (2, ""), argv
            assert "'transition': expected a finite number" in err

    @pytest.mark.parametrize("flag", ["--tau", "--epsilon", "--delta"])
    @pytest.mark.parametrize("value", ["nan", "inf", "-1"])
    def test_threshold_flags_must_be_finite_and_positive(self, capsys, flag, value):
        code, out, err = run(capsys, "infer", "--model", "bend", "--scenario",
                             "adjacent_scene", f"{flag}={value}")
        assert (code, out) == (2, "")
        assert f"{flag} must be a finite, strictly positive number" in err

    def test_generate_unknown_scenario_exits_2(self, capsys):
        code, _, err = run(capsys, "generate", "--scenario", "volcano")
        assert code == 2
        assert "unknown scenario" in err


ADJACENT_TRACKER = {
    "type": "semi_static", "mode": "paper", "transition": [[0.9, 0.1], [0.1, 0.9]],
    "per_frame": {
        "root": "lesion",
        "nodes": [
            {"id": "lesion", "kind": "chance", "states": ["yes", "no"], "prior": [0.5, 0.5]},
            {"id": "fold", "kind": "chance", "states": ["present", "absent"],
             "parent": "lesion", "cpt": [[0.8, 0.2], [0.3, 0.7]]},
            {"id": "rim", "kind": "chance", "states": ["present", "absent"],
             "parent": "lesion", "cpt": [[0.8, 0.2], [0.3, 0.7]]},
            {"id": "touching", "kind": "relation", "states": ["holds", "holds_not"],
             "parent": "lesion", "cpt": [[0.9, 0.1], [0.2, 0.8]],
             "evaluator": "adjacent", "inputs": ["fold", "rim"]},
        ],
        "bind": {"fold": {"colour_class": "dark"}, "rim": {"colour_class": "bright"}},
    },
}


class TestStreamInput:
    @pytest.mark.parametrize("command", ["track", "check"])
    def test_area_beyond_2_pow_53_exits_2_in_matching(self, capsys, tmp_path, command):
        _, text, _ = run(capsys, "generate", "--scenario", "static_spot", "--frames", "3")
        lines = text.splitlines()
        lines[2] = lines[2].replace('"area": 9', '"area": 1' + "0" * 400)
        path = tmp_path / "stream.jsonl"
        path.write_text("\n".join(lines) + "\n")
        code, out, err = run(capsys, command, "--model", "dirty_lens", "--stream", str(path))
        assert (code, out) == (2, "")
        assert err == "stream line 3: region 'spot': 'area' must be an integer in [-2**53, 2**53]\n"

    @pytest.mark.parametrize("command", ["track", "check"])
    def test_bbox_entry_beyond_2_pow_53_exits_2_in_adjacency(self, capsys, tmp_path, command):
        spec = tmp_path / "model.json"
        spec.write_text(json.dumps(ADJACENT_TRACKER))
        far = 10**400
        regions = [{"id": "a", "colour_class": "dark", "centroid": [1.0, 1.0], "area": 1,
                    "bbox": [1, 1, 1, 1]},
                   {"id": "b", "colour_class": "bright", "centroid": [9.0, 9.0], "area": 1,
                    "bbox": [far, 9, far, 9]}]
        path = tmp_path / "stream.jsonl"
        path.write_text('{"dt": 0.04}\n' + json.dumps({"index": 0, "t": 0.0, "regions": regions}))
        code, out, err = run(capsys, command, "--spec", str(spec), "--stream", str(path))
        assert (code, out) == (2, "")
        assert err == "stream line 2: region 'b': 'bbox' entries must be integers in [-2**53, 2**53]\n"

    def test_deeply_nested_regions_exit_2(self, capsys, tmp_path):
        _, text, _ = run(capsys, "generate", "--scenario", "static_spot", "--frames", "3")
        lines = text.splitlines()
        lines[2] = '{"index": 1, "t": 0.04, "regions": %s}' % ("[" * 100_000 + "]" * 100_000)
        path = tmp_path / "stream.jsonl"
        path.write_text("\n".join(lines) + "\n")
        code, out, err = run(capsys, "track", "--model", "dirty_lens", "--stream", str(path))
        assert (code, out, err) == (2, "", "JSON value nested too deeply (line 3, column 1)\n")

    @pytest.mark.parametrize("command", ["track", "check"])
    def test_duplicate_region_id_names_its_stream_line(self, capsys, tmp_path, command):
        _, text, _ = run(capsys, "generate", "--scenario", "static_spot", "--frames", "3")
        lines = text.splitlines()
        frame = json.loads(lines[3])
        frame["regions"] *= 2
        lines[3] = json.dumps(frame)
        path = tmp_path / "stream.jsonl"
        path.write_text("\n".join(lines) + "\n")
        code, out, err = run(capsys, command, "--model", "dirty_lens", "--stream", str(path))
        assert (code, out, err) == (1, "", "stream line 4: frame 2: duplicate region id 'spot'\n")

    @pytest.mark.parametrize("entry", ["2", "0.5", '"1"', '"a"', "true", "1e999"])
    def test_mask_entries_must_be_0_or_1(self, capsys, tmp_path, entry):
        path = tmp_path / "stream.jsonl"
        path.write_text('{"dt": 0.04}\n{"index": 0, "t": 0.0, "regions": [{"id": "p", '
                        '"colour_class": "dark", "centroid": [0.0, 0.0], "area": 1, '
                        '"bbox": [0, 0, 0, 0], "mask": [[%s]]}]}\n' % entry)
        code, out, err = run(capsys, "track", "--model", "lumen_tracker", "--stream", str(path))
        assert (code, out, err) == (2, "", "stream line 2: region 'p': mask entries must be 0 or 1\n")

    #: a 1x1 mask of area 1 with each entry: the error each entry has always given
    MASK_ENTRIES = {"1": None, "true": "mask entries must be 0 or 1",
                    "false": "mask has 0 pixels, area is 1", "1.0": "mask entries must be 0 or 1",
                    "2": "mask entries must be 0 or 1", "-1": "mask entries must be 0 or 1",
                    '"1"': "mask entries must be 0 or 1", "null": "mask has 0 pixels, area is 1",
                    "[1]": "mask shape (1, 1, 1) does not match bbox 1x1",
                    str(2**64): "mask entries must be 0 or 1"}

    @pytest.mark.parametrize("true_elsewhere", ["nowhere", "same-frame", "next-frame"])
    @pytest.mark.parametrize("entry", list(MASK_ENTRIES))
    def test_mask_entries_answer_alike_with_and_without_true_in_the_chunk(
            self, capsys, tmp_path, entry, true_elsewhere):
        """A chunk whose text holds no ``true`` or ``false`` skips the pass over the
        mask entries' types; a region id "true" elsewhere in the chunk makes it run.
        Either way each entry gives its error, as line by line does."""
        masked = ('{"id": "p", "colour_class": "dark", "centroid": [0.0, 0.0], "area": 1, '
                  '"bbox": [0, 0, 0, 0], "mask": [[%s]]}' % entry)
        named_true = ('{"id": "true", "colour_class": "other", "centroid": [5.0, 5.0], '
                      '"area": 1, "bbox": [5, 5, 5, 5]}')
        frames = [[masked] + [named_true] * (true_elsewhere == "same-frame"),
                  [named_true] * (true_elsewhere == "next-frame")]
        path = tmp_path / "stream.jsonl"
        path.write_text('{"dt": 0.04}\n' + "".join(
            '{"index": %d, "t": %s, "regions": [%s]}\n' % (i, t, ", ".join(regions))
            for i, t, regions in zip((0, 1), ("0.0", "0.04"), frames)))
        argv = ("track", "--model", "lumen_tracker", "--stream", str(path))
        code, out, err = run(capsys, *argv)
        message = self.MASK_ENTRIES[entry]
        if message is None:
            assert (code, err) == (0, "")
            return
        assert (code, out, err) == (2, "", f"stream line 2: region 'p': {message}\n")
        with mock.patch.object(temporal, "_column_frames", lambda lines: None):  # line by line
            assert run(capsys, *argv) == (code, out, err)

    @pytest.mark.parametrize("command", ["track", "check"])
    def test_a_lone_carriage_return_reads_alike_from_a_file_and_stdin(self, tmp_path, command):
        """A lone "\r" is JSON whitespace through --stream FILE and --stream -; a
        "\r\n" ends a line through both, and an error on such a line names the
        column of the line without the "\r"."""
        lines = stream_to_jsonl(generate_stream("static_spot", 5, seed=1)).splitlines()
        clean = "".join(line + "\n" for line in lines).encode()
        lines[1] = lines[1].replace(', "t": ', ',\r "t": ', 1)   # {"index": 0,\r "t": 0.0, ...
        assert "\r" in lines[1]
        argv = [command, "--model", "dirty_lens", "--window", "2", "--stream"]
        path = tmp_path / "stream.jsonl"
        path.write_bytes(clean)
        expected = run_with_stdin([*argv, str(path)], b"")
        assert expected[0] == 0
        for data, want in (
                ("".join(line + "\n" for line in lines).encode(), expected),
                (clean.replace(b"\n", b"\r\n"), expected),
                (clean + b'{"index": 9,\r\n', (2, "", "Expecting property name enclosed in "
                                                     "double quotes (line 7, column 13)\n"))):
            path.write_bytes(data)
            assert run_with_stdin([*argv, str(path)], b"") == want
            assert run_with_stdin([*argv, "-"], data) == want

    @pytest.mark.parametrize("command", ["track", "check"])
    def test_raw_line_separator_inside_a_region_id(self, capsys, tmp_path, command):
        _, text, _ = run(capsys, "generate", "--scenario", "static_spot", "--frames", "4")
        path = tmp_path / "stream.jsonl"
        path.write_text(text.replace('"id": "spot"', '"id": "sp\u2028ot"'), encoding="utf-8")
        code, out, err = run(capsys, command, "--model", "dirty_lens", "--stream", str(path))
        assert (code, err) == (0, "")
        path.write_text(text, encoding="utf-8")
        expected = run(capsys, command, "--model", "dirty_lens", "--stream", str(path))
        assert out == expected[1].replace('": "spot"', '": "sp\\u2028ot"')

    @pytest.mark.parametrize("seed", ["0", "3"])
    @pytest.mark.parametrize("scenario", sorted(SCENARIOS))
    @pytest.mark.parametrize("model", ["dirty_lens", "lumen_tracker"])
    @pytest.mark.parametrize("command", ["track", "check"])
    def test_generated_stream_file_answers_like_the_scenario(self, capsys, tmp_path, command,
                                                             model, scenario, seed):
        flags = ("--seed", seed, "--frames", "6")
        _, text, _ = run(capsys, "generate", "--scenario", scenario, *flags)
        path = tmp_path / "stream.jsonl"
        path.write_text(text)
        from_file = run(capsys, command, "--model", model, "--stream", str(path))
        internal = run(capsys, command, "--model", model, "--scenario", scenario, *flags)
        assert from_file == internal


class TestCheck:
    def test_builtin_on_scenario_exits_0(self, capsys):
        for model, scenario in [("diverticulum", "surround_scene"),
                                ("bend", "adjacent_scene"),
                                ("lumen_tracker", "surround_scene"),
                                ("dirty_lens", "static_spot")]:
            code, out, _ = run(capsys, "check", "--model", model,
                               "--scenario", scenario, "--frames", "5")
            assert code == 0, (model, scenario)
            assert "max |propagate - enumeration|" in out

    def test_check_single_scene(self, capsys, two_node_spec_file, evidence_file):
        code, out, _ = run(capsys, "check", "--spec", two_node_spec_file,
                           "--scene", evidence_file)
        assert code == 0
        assert "over 1 network(s)" in out

    @pytest.mark.parametrize("model, scenario", [("diverticulum", "surround_scene"),
                                                 ("lumen_tracker", "surround_scene")])
    def test_stream_checks_its_model_once(self, capsys, monkeypatch, model, scenario):
        calls = counted_diagnostics(monkeypatch)
        code, out, _ = run(capsys, "check", "--model", model, "--scenario", scenario,
                           "--frames", "6")
        assert (code, len(calls)) == (0, 1)
        assert "over 6 network(s)" in out

    @pytest.mark.parametrize("model, code, out, err", [
        ("diverticulum", 0, "max |propagate - enumeration| = 0 over 0 network(s)\n", ""),
        ("lumen_tracker", 1, "", "stream is empty\n"),
        ("dirty_lens", 1, "", "window >= 2 required\n"),
    ])
    def test_header_only_stream(self, capsys, tmp_path, model, code, out, err):
        path = tmp_path / "stream.jsonl"
        path.write_text('{"dt": 0.04}\n')
        assert run(capsys, "check", "--model", model, "--stream", str(path)) == (code, out, err)

    def test_temporal_model_with_scene_input_exits_2(self, capsys, evidence_file):
        code, _, err = run(capsys, "check", "--model", "lumen_tracker",
                           "--scene", evidence_file)
        assert code == 2
        assert "stream input" in err

    def test_mismatch_exits_4(self, capsys, monkeypatch, two_node_spec_file, evidence_file):
        real = witness.marginals

        def skewed(*args, **kwargs):
            return {nid: tuple(tuple(p + 1e-6 for p in vec) for vec in vecs)
                    for nid, vecs in real(*args, **kwargs).items()}

        # check imports the witness when it runs, so it is patched where it lives
        monkeypatch.setattr(witness, "marginals", skewed)
        code, _, err = run(capsys, "check", "--spec", two_node_spec_file,
                           "--scene", evidence_file)
        assert code == 4
        assert "oracle mismatch" in err


def wide_spot_spec_file(tmp_path, children, spot_cpt=((0.0, 1.0), (0.0, 1.0))):
    """A relational spec over a binary hypothesis with ``children`` unbound binary
    children and a feature bound to yellow regions, by default one that can never be
    present."""
    nodes = [{"id": "h", "kind": "chance", "states": ["yes", "no"], "prior": [0.5, 0.5]},
             {"id": "f", "kind": "chance", "states": ["present", "absent"], "parent": "h",
              "cpt": [list(row) for row in spot_cpt]}]
    nodes += [{"id": f"c{i}", "kind": "chance", "states": ["t", "f"], "parent": "h",
               "cpt": [[0.6, 0.4], [0.3, 0.7]]} for i in range(children)]
    path = tmp_path / "wide.json"
    path.write_text(json.dumps({"root": "h", "nodes": nodes, "bind": {"f": {"colour_class": "yellow"}}}))
    return str(path)


CHECK_LINE = re.compile(r"max \|propagate - enumeration\| = (\S+) over (\d+) network\(s\)\n")


class TestCheckFailures:
    """check raises what comparing each row in stream order, propagate before the
    witness, raises first, however large the joint state space."""

    @pytest.fixture
    def spot_later(self, capsys, tmp_path):
        """A stream whose spot (bound to f) shows from its second frame on."""
        _, text, _ = run(capsys, "generate", "--scenario", "static_spot", "--frames", "3")
        lines = text.splitlines()
        lines[1] = lines[1].split('"regions"')[0] + '"regions": []}'
        path = tmp_path / "stream.jsonl"
        path.write_text("\n".join(lines) + "\n")
        return str(path)

    @pytest.mark.parametrize("children", [8, 20, 79])  # 2**10, 2**22 and 2**81 joint states
    def test_a_later_impossible_frame_exits_3_past_the_old_cap(self, capsys, tmp_path,
                                                                spot_later, children):
        spec = wide_spot_spec_file(tmp_path, children)
        assert run(capsys, "check", "--spec", spec, "--stream", spot_later) == (
            3, "", "impossible evidence: support vanished at node 'f'\n")

    @pytest.mark.parametrize("semi_static", [False, True])
    def test_a_later_stream_or_frame_error_outranks_a_kernel_error(self, capsys, tmp_path,
                                                                  spot_later, semi_static):
        """The second frame's row, on a network of 2**22 joint states, is impossible; the
        error is held while the stream goes on, so a bad last line, or a later impossible
        frame that track would report, still comes first, one frame per chunk as in one
        chunk."""
        spec = wide_spot_spec_file(tmp_path, 20)
        if semi_static:
            doc = {"type": "semi_static", "transition": [[0.9, 0.1], [0.1, 0.9]],
                   "per_frame": json.loads(open(spec).read())}
            spec = tmp_path / "semi_static.json"
            spec.write_text(json.dumps(doc))
        bad_end = tmp_path / "bad_end.jsonl"
        bad_end.write_text(open(spot_later).read() + "{\n")
        expected = {spot_later: (3, "", ("frame 1: " if semi_static else "")
                                 + "impossible evidence: support vanished at node 'f'\n"),
                    str(bad_end): (2, "", "Expecting property name enclosed in double quotes "
                                          "(line 5, column 2)\n")}
        for stream, want in expected.items():
            for chunk in (1, 256):
                with mock.patch.object(temporal, "CHUNK_FRAMES", chunk):
                    assert run(capsys, "check", "--spec", str(spec), "--stream", stream) == want

    @pytest.mark.parametrize("children", [20, 79])
    def test_past_the_old_cap_every_distinct_row_is_compared(self, capsys, monkeypatch, tmp_path,
                                                             spot_later, children):
        """Past 2**20 joint states, where the enumeration oracle stopped, each distinct
        row goes through downward and then the witness, in first-seen order, as one batch."""
        calls = []
        for module, name in ((propagation, "downward"), (witness, "marginals")):
            real = getattr(module, name)
            monkeypatch.setattr(module, name, lambda *args, real=real, name=name:
                                calls.append((name, [row[1] for row in args[1]])) or real(*args))
        spec = wide_spot_spec_file(tmp_path, children, spot_cpt=((0.7, 0.3), (0.2, 0.8)))
        code, out, err = run(capsys, "check", "--spec", spec, "--stream", spot_later)
        assert (code, err) == (0, "")
        residual, compared = CHECK_LINE.fullmatch(out).groups()
        assert float(residual) < 1e-9 and compared == "3"
        # f's code: absent (1) in the first frame, present (0) in the other two
        assert calls == [("downward", [1, 0]), ("marginals", [1, 0])]

    def test_an_impossible_first_row_is_propagated_first(self, capsys, tmp_path):
        spec = wide_spot_spec_file(tmp_path, 20)
        scene = tmp_path / "evidence.json"
        scene.write_text('{"assignments": {"f": "present"}}')
        assert run(capsys, "check", "--spec", spec, "--scene", str(scene)) == (
            3, "", "impossible evidence: support vanished at node 'f'\n")


def spot_stream_file(tmp_path, n=40):
    """A dirty-lens stream whose windows repeat a few evidence sets: the spot
    drops out every 7th frame and jumps 5 px (matched, not static) every 5th."""
    spot = generate_stream("static_spot", 1, seed=7).frames[0].regions[0]
    frames = []
    for i in range(n):
        regions = () if i % 7 == 3 else (
            replace(spot, centroid=(spot.centroid[0] + 5 * (i % 5 == 4), spot.centroid[1])),)
        frames.append(Frame(i, round(i * 0.04, 6), regions))
    stream = FrameStream(tuple(frames), 0.04)
    path = tmp_path / "stream.jsonl"
    path.write_text(stream_to_jsonl(stream))
    return stream, str(path)


def dark_stream_file(tmp_path, n=20):
    """A stream whose one dark region, which lumen_tracker binds, drops out every third frame."""
    dark = Region("d", "dark", (20.0, 20.0), 9, (19, 19, 21, 21))
    frames = tuple(Frame(i, round(i * 0.04, 6), () if i % 3 == 1 else (dark,)) for i in range(n))
    path = tmp_path / "stream.jsonl"
    path.write_text(stream_to_jsonl(FrameStream(frames, 0.04)))
    return str(path)


def lumen_file(tmp_path, prior, mode, dark_cpt=((0.8, 0.2), (0.2, 0.8))):
    """lumen_tracker's document with another hypothesis prior, mode and dark-region CPT."""
    doc = semi_static_to_document(builtin_model("lumen_tracker").model)
    doc["mode"] = mode
    doc["per_frame"]["nodes"][0]["prior"] = list(prior)
    doc["per_frame"]["nodes"][1]["cpt"] = [list(row) for row in dark_cpt]
    path = tmp_path / "lumen.json"
    path.write_text(json.dumps(doc))
    return str(path)


class TestCheckRoutes:
    @pytest.mark.parametrize("chunk", [1, 3, 256])
    @pytest.mark.parametrize("mode", ["paper", "filter"])
    def test_each_distinct_semi_static_row_is_compared_once(self, monkeypatch, tmp_path, chunk,
                                                             mode):
        """A semi-static frame's row goes on the per-frame tree with a flat hypothesis prior,
        not the model's own, and each distinct row once for the whole stream, across
        chunks, through downward and then the witness: each chunk's new rows as one batch,
        in first-seen order, and a chunk with none calls neither."""
        spec, path = lumen_file(tmp_path, (0.7, 0.3), mode), dark_stream_file(tmp_path)
        calls = []
        for module, name in ((propagation, "downward"), (witness, "marginals")):
            real = getattr(module, name)
            monkeypatch.setattr(module, name, lambda *args, real=real, name=name:
                                calls.append((name, args[0], args[1])) or real(*args))
        with mock.patch.object(temporal, "CHUNK_FRAMES", chunk):
            code, out, err = run_captured(["check", "--spec", spec, "--stream", path])
        assert (code, err) == (0, "")
        residual, compared = CHECK_LINE.fullmatch(out).groups()
        assert float(residual) < 1e-9 and compared == "20"
        # the dark region's code: present (0) in the first frame, absent (1) in the second
        batches = [[0], [1]] if chunk == 1 else [[0, 1]]
        assert [(name, [row[1] for row in rows]) for name, _, rows in calls] == [
            (name, batch) for batch in batches for name in ("downward", "marginals")]
        assert {net.node("lumen").cpt[0] for _, net, _ in calls} == {(0.5, 0.5)}

    def test_a_certain_static_prior_in_filter_mode_exits_0(self, capsys, tmp_path):
        """Static prior (1, 0), and a dark region certain under the first state: every
        frame without one rules out the only state the static prior allows, yet in filter
        mode its effective prior allows the other, so track and check both exit 0."""
        spec = lumen_file(tmp_path, (1.0, 0.0), "filter", dark_cpt=((1.0, 0.0), (0.2, 0.8)))
        path = dark_stream_file(tmp_path)
        code, out, err = run(capsys, "track", "--spec", spec, "--stream", path)
        assert (code, err, len(out.splitlines())) == (0, "", 20)
        assert json.loads(out.splitlines()[1])["posterior"] == {"lumen": 0.0, "not_lumen": 1.0}
        code, out, err = run(capsys, "check", "--spec", spec, "--stream", path)
        assert (code, err) == (0, "")
        residual, compared = CHECK_LINE.fullmatch(out).groups()
        assert float(residual) < 1e-9 and compared == "20"

    def test_a_skewed_witness_on_the_semi_static_route_exits_4(self, capsys, monkeypatch, tmp_path):
        real = witness.marginals
        monkeypatch.setattr(witness, "marginals", lambda *args: {
            nid: tuple(tuple(p + 1e-6 for p in vec) for vec in vecs) for nid, vecs in real(*args).items()})
        code, out, err = run(capsys, "check", "--model", "lumen_tracker",
                             "--stream", dark_stream_file(tmp_path))
        assert code == 4
        assert out.endswith(" over 20 network(s)\n")
        assert "oracle mismatch" in err

    def test_each_distinct_window_is_compared_once(self, capsys, monkeypatch, tmp_path):
        model = builtin_model("dirty_lens").model
        stream, path = spot_stream_file(tmp_path)
        frames = stream.frames
        distinct = {frozenset(build_dynamic_window(model, frames[end - 2:end + 1])[1]
                              .assignments.items()) for end in range(2, len(frames))}
        assert 1 < len(distinct) < len(frames) - 2
        calls = {"downward": [], "marginals": [], "select_region": []}

        def counted(module, name):
            real = getattr(module, name)

            def wrapper(*args, **kwargs):
                calls[name].append(args)
                return real(*args, **kwargs)

            monkeypatch.setattr(module, name, wrapper)

        counted(propagation, "downward")
        counted(witness, "marginals")
        counted(temporal, "select_region")
        code, out, _ = run(capsys, "check", "--model", "dirty_lens", "--stream", path,
                           "--window", "3")
        assert code == 0
        assert out.endswith(f" over {len(frames) - 2} network(s)\n")
        assert len(calls.pop("select_region")) == len(frames)

        def evidence(net, row):
            return frozenset((node.id, node.states[c]) for node, c in zip(net.nodes, row) if c >= 0)

        # each evidence set once in a downward batch and then once in the same witness batch
        for name in ("downward", "marginals"):
            rows = [evidence(net, row) for net, batch, *_ in calls[name] for row in batch]
            assert len(rows) == len(distinct) and set(rows) == distinct, name
        assert [batch for _, batch, *_ in calls["downward"]] == [batch for _, batch, *_ in calls["marginals"]]

    def test_skewed_star_route_exits_4(self, capsys, monkeypatch, tmp_path):
        _, path = spot_stream_file(tmp_path)
        real = temporal.posterior
        monkeypatch.setattr(temporal, "posterior",
                            lambda prior, lam: tuple(p + 1e-6 for p in real(prior, lam)))
        code, out, err = run(capsys, "check", "--model", "dirty_lens", "--stream", path)
        assert code == 4
        assert out.startswith("max |propagate - enumeration| = 1e-06 over 36 network(s)")
        assert "oracle mismatch" in err

    def test_skewed_semi_static_route_exits_4(self, capsys, monkeypatch):
        real = temporal.posterior
        monkeypatch.setattr(temporal, "posterior",
                            lambda prior, lam: tuple(p + 1e-6 for p in real(prior, lam)))
        code, out, err = run(capsys, "check", "--model", "lumen_tracker",
                             "--scenario", "surround_scene", "--frames", "4")
        assert code == 4
        assert out.startswith("max |propagate - enumeration| = 1e-06 over 4 network(s)")
        assert "oracle mismatch" in err

    def test_impossible_window_names_its_frame_like_track(self, capsys, tmp_path):
        model = replace(builtin_model("dirty_lens").model,
                        feature_rows=((0.0, 1.0), (0.0, 1.0)))
        spot = generate_stream("static_spot", 1, seed=7).frames[0].regions
        frames = tuple(Frame(i, round(i * 0.04, 6), spot if i in (3, 4) else ())
                       for i in range(6))
        model_path, stream_path = tmp_path / "model.json", tmp_path / "stream.jsonl"
        model_path.write_text(json.dumps(dynamic_to_document(model)))
        stream_path.write_text(stream_to_jsonl(FrameStream(frames, 0.04)))
        message = "frame 3: impossible evidence: support vanished at node 'spot_2'\n"
        for command in ("track", "check"):
            code, out, err = run(capsys, command, "--spec", str(model_path),
                                 "--stream", str(stream_path), "--window", "3")
            assert (code, out, err) == (3, "", message), command


SPATIAL, TEMPORAL = ("diverticulum", "bend"), ("lumen_tracker", "dirty_lens")
SURROUNDING_RULE = "IF bright region SURROUNDING dark region THEN diverticulum"
STATIC_RULE = "IF yellow spot & STATIC THEN dirty_lens"


class TestOneCheckPerCommand:
    """Every command checks its model once, as it is loaded: neither a dynamic model's
    windows nor a semi-static model rebuilt for ``--mode`` are checked again.  (``track``
    declines a spatial model before checking it.)"""

    @pytest.mark.parametrize("argv", [
        *(["validate", "--model", m] for m in SPATIAL + TEMPORAL),
        *(["infer", "--model", m, "--scenario", "surround_scene"] for m in SPATIAL + TEMPORAL),
        *(["track", "--model", m, "--scenario", "static_spot"] for m in TEMPORAL),
        *(["check", "--model", m, "--scenario", "static_spot"] for m in SPATIAL + TEMPORAL),
        *([c, "--model", "lumen_tracker", "--scenario", "static_spot", "--mode", mode]
          for c in ("track", "check") for mode in ("paper", "filter")),
        *([c, "--model", "dirty_lens", "--scenario", "static_spot", "--window", k]
          for c in ("track", "check") for k in ("2", "3", "5")),
        *([c, "--rule", SURROUNDING_RULE, "--scenario", "surround_scene"] for c in ("infer", "check")),
        *([c, "--rule", STATIC_RULE, "--scenario", "static_spot"] for c in ("track", "check")),
        ["validate", "--rule", SURROUNDING_RULE], ["validate", "--rule", STATIC_RULE],
    ], ids=" ".join)
    def test_builtin_models_and_rules(self, capsys, monkeypatch, argv):
        calls = counted_diagnostics(monkeypatch)
        code, _, err = run(capsys, *argv, *(["--frames", "6"] if "--scenario" in argv else []))
        # infer declines a temporal model after loading it
        assert code == (2 if argv[0] == "infer" and argv[2] in TEMPORAL else 0), err
        assert len(calls) == 1

    @pytest.mark.parametrize("name, argv", [
        ("diverticulum", ["validate"]), ("diverticulum", ["infer", "--scenario", "surround_scene"]),
        ("diverticulum", ["check", "--scenario", "surround_scene"]),
        ("lumen_tracker", ["validate"]), ("lumen_tracker", ["check", "--scenario", "static_spot"]),
        ("lumen_tracker", ["track", "--scenario", "static_spot", "--mode", "filter"]),
        ("dirty_lens", ["validate"]), ("dirty_lens", ["check", "--scenario", "static_spot"]),
        ("dirty_lens", ["track", "--scenario", "static_spot", "--window", "3"]),
    ], ids=lambda v: v if isinstance(v, str) else " ".join(v))
    def test_model_documents_of_every_kind(self, capsys, monkeypatch, tmp_path, name, argv):
        model = builtin_model(name).model
        doc = (network_spec_to_document(model) if name in SPATIAL else
               semi_static_to_document(model) if name == "lumen_tracker" else dynamic_to_document(model))
        path = tmp_path / "model.json"
        path.write_text(json.dumps(doc))
        calls = counted_diagnostics(monkeypatch)
        code, _, err = run(capsys, argv[0], "--spec", str(path), *argv[1:],
                           *(["--frames", "6"] if "--scenario" in argv else []))
        assert code == 0, err
        assert len(calls) == 1


LUMEN_DOC = semi_static_to_document(builtin_model("lumen_tracker").model)
DIRTY_DOC = dynamic_to_document(builtin_model("dirty_lens").model)
BEND_DOC = network_spec_to_document(builtin_model("bend").model)


def edited(doc: dict, edit) -> str:
    """The JSON text of a copy of ``doc`` after ``edit(copy)``."""
    doc = json.loads(json.dumps(doc))
    edit(doc)
    return json.dumps(doc)


def _root_with_two_rows(doc):
    del doc["nodes"][0]["prior"]
    doc["nodes"][0]["cpt"] = [[0.5, 0.5], [0.5, 0.5]]


class TestErrorBranches:
    """Each user-facing error branch on a minimal document: its exit code and stderr.
    ``{file}`` in the arguments names a file holding the document."""

    @pytest.mark.parametrize("argv, text, code, err", [
        pytest.param(["validate", "--spec", "{file}"],
                     edited(LUMEN_DOC, lambda d: d.update(mode="smooth")),
                     1, "mode must be one of ('paper', 'filter')\n", id="semi-static-mode"),
        pytest.param(["validate", "--spec", "{file}"],
                     edited(LUMEN_DOC, lambda d: d.update(transition=[[1.5, -0.5], [0.1, 0.9]])),
                     1, "transition: entry outside [0,1] (row 0)\n", id="transition-entry"),
        pytest.param(["validate", "--spec", "{file}"],  # range-checked before the sum overflows
                     edited(LUMEN_DOC, lambda d: d.update(transition=[[1e308, 1e308], [0.1, 0.9]])),
                     1, "transition: entry outside [0,1] (row 0)\n", id="transition-entry-past-float-range"),
        pytest.param(["validate", "--spec", "{file}"],
                     edited(DIRTY_DOC, lambda d: d.update(max_window=1)),
                     1, "max_window must be >= 2\n", id="max-window-1"),
        pytest.param(["validate", "--spec", "{file}"], edited(LUMEN_DOC, lambda d: d.update(x=1)),
                     2, "semi-static model: unknown field 'x'\n", id="semi-static-field"),
        pytest.param(["validate", "--spec", "{file}"], edited(DIRTY_DOC, lambda d: d.update(x=1)),
                     2, "dynamic model: unknown field 'x'\n", id="dynamic-field"),
        pytest.param(["validate", "--spec", "{file}"],
                     edited(LUMEN_DOC, lambda d: d.update(transition=[0.9, 0.1])),
                     2, "semi-static model: 'transition' must be a list of rows\n",
                     id="transition-not-rows"),
        pytest.param(["validate", "--spec", "{file}"],
                     edited(BEND_DOC, lambda d: d["bind"]["dark_region"].update(colour_class=3)),
                     2, "bind 'dark_region': value for 'colour_class' must be a string or list of "
                        "strings\n", id="bind-value"),
        pytest.param(["validate", "--spec", "{file}"],
                     edited(BEND_DOC, lambda d: d["nodes"][3].update(params={"gamma": 1.0})),
                     1, "relation node distance_relation: unknown param 'gamma'\n", id="param-gamma"),
        pytest.param(["validate", "--spec", "{file}"], edited(BEND_DOC, _root_with_two_rows),
                     1, "node bend: 2 rows, expected 1 (root prior)\n", id="root-cpt"),
        pytest.param(["validate", "--spec", "{file}"],
                     edited(BEND_DOC, lambda d: d["nodes"][1].update(cpt="x")),
                     2, "node 'dark_region': 'cpt' must be a list of rows\n", id="cpt-string"),
        pytest.param(["track", "--model", "lumen_tracker", "--stream", "{file}"], "\n \n",
                     2, "empty stream document\n", id="blank-stream"),
        # a stream's errors name their line, the header's too (the second line below)
        pytest.param(["track", "--model", "dirty_lens", "--stream", "{file}"],
                     '{"dt": 0.04}\n{"index": 0, "t": 0.0, "regions": [], "index": 1}\n',
                     2, "stream line 2: duplicate key 'index'\n", id="frame-repeated-key"),
        pytest.param(["track", "--model", "dirty_lens", "--stream", "{file}"],
                     '{"dt": NaN}\n{"index": 0, "t": 0.0}\n',
                     2, "stream line 1: non-finite number 'NaN' is not allowed\n", id="header-nan"),
        pytest.param(["track", "--model", "dirty_lens", "--stream", "{file}"],
                     '\n{"dt": 1e999}\n{"index": 0, "t": 0.0}\n',
                     2, "stream line 2: stream header 'dt': expected a finite number\n",
                     id="header-overflow"),
        pytest.param(["track", "--model", "dirty_lens", "--stream", "{file}"],
                     '{"index": 0, "t": 0.0}\n{"index": 1, "t": 0.04}\n',
                     2, 'stream line 1: stream header must be {"dt": ...}\n', id="no-header"),
        pytest.param(["compile", "--rule", "IF dark region THEN lumen", "--defaults", "{file}"],
                     "[0.5]", 2, "defaults document must be a JSON object\n", id="defaults-list"),
        pytest.param(["compile", "--rule", "IF yellow or purple spot THEN x"], None,
                     2, "unknown colour class 'purple' (at position 13)\n", id="second-colour"),
        pytest.param(["compile", "--rule", "IF yellow spot & MOVING THEN x"], None,
                     2, "unknown relation MOVING (at position 17)\n", id="and-moving"),
        pytest.param(["compile", "--rule", "IF bright ring SURROUNDING dark hole & STATIC THEN x"],
                     None, 2, "a rule cannot combine a spatial relation with STATIC (at position 52)\n",
                     id="spatial-and-static"),
    ])
    def test_exit_code_and_stderr(self, capsys, tmp_path, argv, text, code, err):
        path = tmp_path / "input"
        if text is not None:
            path.write_text(text)
        argv = [str(path) if a == "{file}" else a for a in argv]
        got_code, out, got_err = run(capsys, *argv)
        assert (got_code, got_err) == (code, err)
        assert out == ""

    def test_a_rule_over_two_features_of_one_name_keeps_both(self, capsys):
        code, out, err = run(capsys, "compile", "--rule", "IF dark region ADJACENT dark region THEN pair")
        assert (code, err) == (0, "")
        doc = json.loads(out)
        assert [n["id"] for n in doc["nodes"]] == ["pair", "dark_region", "dark_region_2",
                                                   "distance_relation"]
        assert doc["nodes"][3]["inputs"] == ["dark_region", "dark_region_2"]


class TestCollector:
    """cli.main runs a command with the cyclic garbage collector paused and
    gives the caller its collector state back."""

    @pytest.fixture(autouse=True)
    def restore_collector(self):
        enabled = gc.isenabled()
        yield
        (gc.enable if enabled else gc.disable)()

    def test_paused_while_the_command_runs(self, capsys, monkeypatch):
        seen = []
        real = endoscopy.generate_stream

        def spy(*args, **kwargs):
            seen.append(gc.isenabled())
            return real(*args, **kwargs)

        monkeypatch.setattr(endoscopy, "generate_stream", spy)
        gc.enable()
        assert run(capsys, "track", "--model", "dirty_lens", "--scenario", "static_spot")[0] == 0
        assert seen == [False] and gc.isenabled()

    @pytest.mark.parametrize("enabled", [True, False])
    def test_state_on_entry_is_restored(self, capsys, tmp_path, enabled):
        (gc.enable if enabled else gc.disable)()
        assert run(capsys, "track", "--model", "dirty_lens", "--scenario", "static_spot")[0] == 0
        assert gc.isenabled() is enabled
        code, _, _ = run(capsys, "track", "--model", "dirty_lens",
                         "--stream", str(tmp_path / "missing.jsonl"))
        assert code == 2 and gc.isenabled() is enabled
        with pytest.raises(SystemExit):
            cli.main(["track", "--no-such-flag"])
        assert gc.isenabled() is enabled

    def test_cyclic_garbage_does_not_grow_with_the_stream(self, capsys, tmp_path):
        _, short = spot_stream_file(tmp_path, 40)
        long_dir = tmp_path / "long"
        long_dir.mkdir()
        _, long = spot_stream_file(long_dir, 400)
        gc.collect()
        gc.disable()
        found = []
        for path in (short, long, short):
            assert run(capsys, "track", "--model", "dirty_lens", "--stream", path)[0] == 0
            found.append(gc.collect())
        assert found[0] == found[1] == found[2]


def launcher():
    """The installed console script, or ``python -m beliefscope`` without one."""
    script = shutil.which("beliefscope")
    return [script] if script else [sys.executable, "-m", "beliefscope"]


#: the modules a command that checks a model loads: no numpy, no stream or propagation code
MODEL_LAYER = ["beliefscope.cli", "beliefscope.errors", "beliefscope.models", "beliefscope.network"]

#: the modules ``track`` on a stream file loads
STREAM_LAYER = ["beliefscope.cli", "beliefscope.errors", "beliefscope.models", "beliefscope.network",
                "beliefscope.propagation", "beliefscope.relational", "beliefscope.temporal"]

#: (argv, the beliefscope modules and numpy loaded once it has run)
LOADED_BY = [
    (["infer", "--spec", "spec.json", "--scene", "ev.json"],
     ["beliefscope.cli", "beliefscope.errors", "beliefscope.network", "beliefscope.propagation"]),
    (["validate", "--spec", "spec.json"], ["beliefscope.cli", "beliefscope.errors", "beliefscope.network"]),
    (["infer", "--spec", "spec.json", "--scene", "ev.json", "--tau", "3"],  # refused: no relation
     ["beliefscope.cli", "beliefscope.errors", "beliefscope.network"]),
    *((["validate", "--model", m], MODEL_LAYER) for m in SPATIAL + TEMPORAL),
    (["validate", "--spec", "semi_static.json"], MODEL_LAYER),
    (["validate", "--spec", "dynamic.json"], MODEL_LAYER),
    *(([c, "--rule", r], MODEL_LAYER)
      for c in ("validate", "compile") for r in (SURROUNDING_RULE, STATIC_RULE)),
    # streams, scenarios and scenes with masks or without: no command loads numpy
    (["track", "--model", "dirty_lens", "--stream", "stream.jsonl"], STREAM_LAYER),
    (["track", "--model", "lumen_tracker", "--scenario", "static_spot"],
     sorted(["beliefscope.endoscopy", *STREAM_LAYER])),
    (["generate", "--scenario", "moving_spot"], sorted(["beliefscope.endoscopy", *STREAM_LAYER])),
    (["track", "--spec", "semi_static.json", "--stream", "masks.jsonl"], STREAM_LAYER),
    (["infer", "--model", "diverticulum", "--scenario", "surround_scene"],
     sorted(["beliefscope.endoscopy", *STREAM_LAYER])),
    # check compares propagate with the witness, past any joint state space
    (["check", "--model", "dirty_lens", "--stream", "stream.jsonl"],
     sorted([*STREAM_LAYER, "beliefscope.witness"])),
    (["check", "--spec", "semi_static.json", "--stream", "masks.jsonl"],
     sorted([*STREAM_LAYER, "beliefscope.witness"])),
    (["check", "--spec", "spec.json", "--scene", "ev.json"],
     ["beliefscope.cli", "beliefscope.errors", "beliefscope.network", "beliefscope.propagation",
      "beliefscope.witness"]),
]


class TestEntryPoint:
    @pytest.mark.parametrize("argv, loaded", [pytest.param(a, m, id=" ".join(a)) for a, m in LOADED_BY])
    def test_each_command_loads_only_what_it_runs(self, tmp_path, argv, loaded):
        for name, doc in (("spec.json", TWO_NODE_DOC), ("ev.json", {"assignments": {"F": "t"}}),
                          ("semi_static.json", LUMEN_DOC), ("dynamic.json", DIRTY_DOC)):
            (tmp_path / name).write_text(json.dumps(doc))
        spot_stream_file(tmp_path, 12)  # stream.jsonl: a spot, no masks
        (tmp_path / "masks.jsonl").write_text(stream_to_jsonl(generate_stream("surround_scene", 12)))
        code = ("import sys; from beliefscope.cli import main; main(sys.argv[1:]); "
                "print(sorted(m for m in sys.modules if m.startswith('beliefscope.') or m == 'numpy')); "
                "print([m for m in ('dataclasses', 'inspect') if m in sys.modules])")
        done = subprocess.run([sys.executable, "-c", code, *argv], cwd=tmp_path,
                              capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)})
        assert done.returncode == 0, done.stderr
        assert done.stdout.splitlines()[-2] == str(loaded)
        assert done.stdout.splitlines()[-1] == "[]"  # the records are made without dataclasses

    def test_console_script_round_trip(self, tmp_path):
        generate = subprocess.run(
            [*launcher(), "generate", "--scenario", "adjacent_scene", "--frames", "2"],
            capture_output=True, text=True)
        assert generate.returncode == 0
        track = subprocess.run(
            [*launcher(), "track", "--model", "lumen_tracker", "--stream", "-"],
            input=generate.stdout, capture_output=True, text=True)
        assert track.returncode == 0
        assert len(track.stdout.splitlines()) == 2

    def test_usage_error_exits_2(self):
        proc = subprocess.run([*launcher(), "infer", "--model", "bend"],
                              capture_output=True, text=True)
        assert proc.returncode == 2


def dumped_beliefs(beliefs: Beliefs) -> str:
    return json.dumps(beliefs.to_document(), indent=2) + "\n"


class TestInferLayout:
    def test_awkward_ids_states_and_probabilities_are_laid_out_like_json_dumps(self):
        from test_temporal import AWKWARD_TEXT
        probabilities = [0.0, 1.0, 5e-324, 1e-5, 0.1 + 0.2]
        states = {nid: tuple(AWKWARD_TEXT[i:] + AWKWARD_TEXT[:i])[:1 + i % 5]
                  for i, nid in enumerate(AWKWARD_TEXT)}
        marginals = {nid: np.array((probabilities * 2)[i:i + len(states[nid])])
                     for i, nid in enumerate(AWKWARD_TEXT)}
        beliefs = Beliefs(marginals, states)
        assert beliefs.to_json() == dumped_beliefs(beliefs)
        assert Beliefs({}, {}).to_json() == dumped_beliefs(Beliefs({}, {}))

    @settings(max_examples=100, deadline=None)
    @given(st.dictionaries(st.text(max_size=4),
                           st.lists(st.tuples(st.text(max_size=3), st.floats(0.0, 1.0)),
                                    max_size=4, unique_by=lambda pair: pair[0]),
                           max_size=4))
    def test_any_beliefs_are_laid_out_like_json_dumps(self, nodes):
        beliefs = Beliefs({nid: np.array([p for _, p in pairs]) for nid, pairs in nodes.items()},
                          {nid: tuple(s for s, _ in pairs) for nid, pairs in nodes.items()})
        assert beliefs.to_json() == dumped_beliefs(beliefs)

    @settings(max_examples=500, deadline=None)
    @given(st.floats() | st.floats(0.0, 1.0) | st.sampled_from([5e-324, 1e-5, 0.1 + 0.2, 1e10]))
    def test_probabilities_are_written_as_the_repr_of_their_rounding(self, x):
        assert sig10_json(x) == float.__repr__(sig10(x))

    def test_infer_prints_awkward_labels_like_json_dumps(self, capsys, tmp_path):
        doc = {"root": 'r"\\', "nodes": [
            {"id": 'r"\\', "kind": "chance", "states": ["naïve", "\x00\u2028"], "prior": [0.3, 0.7]},
            {"id": "日本", "kind": "chance", "states": ["🙂", ""], "parent": 'r"\\',
             "cpt": [[1.0, 0.0], [1e-5, 1 - 1e-5]]}]}
        (tmp_path / "spec.json").write_text(json.dumps(doc))
        (tmp_path / "ev.json").write_text(json.dumps({"assignments": {"日本": "🙂"}}))
        code, out, _ = run(capsys, "infer", "--spec", str(tmp_path / "spec.json"),
                           "--scene", str(tmp_path / "ev.json"))
        assert code == 0 and out == json.dumps(json.loads(out), indent=2) + "\n"


FUZZ_SPECS = [network_spec_to_document(builtin_model(name).model) for name in ("diverticulum", "bend")]
FUZZ_SPECS.append({"root": "h", "nodes": [
    {"id": "h", "kind": "chance", "states": ["a", "b", "c"], "prior": [0.2, 0.3, 0.5]},
    *({"id": f"f{i}", "kind": "chance", "states": ["on", "off"], "parent": "h",
       "cpt": [[0.9, 0.1], [0.5, 0.5], [0.2, 0.8]]} for i in range(4))]})


FUZZ_TEMPORAL = {"lumen_tracker": semi_static_to_document(builtin_model("lumen_tracker").model),
                 "dirty_lens": dynamic_to_document(builtin_model("dirty_lens").model)}


#: one rule of each kind: a feature alone, SURROUNDING, ADJACENT, and & STATIC
COMPILE_RULES = ["IF dark region THEN lumen",
                 "IF bright region SURROUNDING dark region THEN diverticulum",
                 "IF dark region ADJACENT bright arc THEN bend",
                 "IF yellow or green spot & STATIC THEN dirty_lens"]


class TestCliFuzz:
    @settings(max_examples=150, deadline=None)
    @given(st.randoms(use_true_random=False), st.sampled_from(range(len(FUZZ_SPECS))),
           st.sampled_from(["spec", "evidence", "scene", "both"]))
    def test_validate_and_infer_exit_0_to_4_without_a_traceback(self, tmp_path_factory, rng,
                                                                 base, target):
        spec = FUZZ_SPECS[base]
        leaves = [n["id"] for n in spec["nodes"] if "cpt" in n and n["kind"] == "chance"]
        evidence = {"assignments": {leaves[0]: "present" if base < 2 else "on"}}
        if target == "scene":
            frame = generate_stream("surround_scene", 1, seed=rng.randrange(9)).frames[0]
            evidence = scene_to_document(frame.regions)
        if target in ("spec", "both"):
            spec = mutated(spec, rng)
        if target != "spec":
            evidence = mutated(evidence, rng)
        directory = tmp_path_factory.mktemp("fuzz")
        (directory / "spec.json").write_text(json.dumps(spec))
        (directory / "scene.json").write_text(json.dumps(evidence))
        for argv in (["validate", "--spec", str(directory / "spec.json")],
                     ["infer", "--spec", str(directory / "spec.json"),
                      "--scene", str(directory / "scene.json")]):
            code, _, err = run_captured(argv)
            assert code in range(5) and "Traceback" not in err, (argv, err)

    @settings(max_examples=150, deadline=None)
    @given(st.randoms(use_true_random=False), st.sampled_from(sorted(FUZZ_TEMPORAL)),
           st.sampled_from(sorted(SCENARIOS)), st.sampled_from(["model", "stream", "both"]),
           st.sampled_from(["track", "check"]),
           st.sampled_from([[], ["--window", "2"], ["--window", "3"], ["--window", "5"]]))
    def test_track_and_check_exit_0_to_4_without_a_traceback(self, tmp_path_factory, rng, name,
                                                            scenario, target, command, window):
        model = FUZZ_TEMPORAL[name]
        stream = generate_stream(scenario, 6, seed=rng.randrange(9))
        lines = [json.loads(line) for line in stream_to_jsonl(stream).splitlines()]
        if target != "stream":
            model = mutated(model, rng)
        if target != "model":
            lines = mutated(lines, rng)
        directory = tmp_path_factory.mktemp("fuzz")
        (directory / "model.json").write_text(json.dumps(model))
        (directory / "stream.jsonl").write_text("".join(json.dumps(line) + "\n" for line in lines))
        argv = [command, "--spec", str(directory / "model.json"),
                "--stream", str(directory / "stream.jsonl")]
        argv += window if name == "dirty_lens" else []  # --window on another kind exits 2
        code, _, err = run_captured(argv)
        assert code in range(5) and "Traceback" not in err, (argv, err)


    @settings(max_examples=150, deadline=None)
    @given(st.randoms(use_true_random=False), st.sampled_from(COMPILE_RULES),
           st.sampled_from(["values", "role", "top"]))
    def test_compile_defaults_exit_0_to_4_without_a_traceback(self, tmp_path_factory, rng,
                                                             rule, target):
        defaults = mutated(models.DEFAULT_PROBS, rng)
        if target == "role":  # an unknown role beside the mutated ones
            defaults[rng.choice(["gamma", "", "hypothesis prior", "0"])] = rng.choice(FUZZ_VALUES)
        elif target == "top":
            defaults = rng.choice([v for v in FUZZ_VALUES if not isinstance(v, dict)])
        path = tmp_path_factory.mktemp("fuzz") / "defaults.json"
        path.write_text(json.dumps(defaults))
        code, _, err = run_captured(["compile", "--rule", rule, "--defaults", str(path)])
        assert code in range(5) and "Traceback" not in err, (defaults, err)


def region_stream(rng, n_frames):
    """Frames of masked regions, each either new (random, or a generated scene's) or
    the previous frame's region moved by at most 3 px, so that binding, matching and
    every relation value vary."""
    frames, previous = [], ()
    for i in range(n_frames):
        regions = []
        if rng.random() < 0.3:
            scene = generate_stream(rng.choice(sorted(SCENARIOS)), 1, seed=rng.randrange(9))
            previous += scene.frames[0].regions
        for region in previous:
            if rng.random() < 0.6:
                dx, dy = rng.randint(-3, 3), rng.randint(-3, 3)
                x0, y0, x1, y1 = region.bbox
                regions.append(replace(region, id=f"r{i}_{len(regions)}",
                                       bbox=(x0 + dx, y0 + dy, x1 + dx, y1 + dy),
                                       centroid=(region.centroid[0] + dx, region.centroid[1] + dy)))
        while len(regions) < rng.randint(0, 3):
            regions.append(random_region(rng, f"r{i}_{len(regions)}", origin=(20, 20),
                                         colour=rng.choice(["dark", "bright", "yellow", "green"])))
        frames.append(Frame(i, round(i * 0.04, 6), tuple(regions)))
        previous = tuple(regions)
    return FrameStream(tuple(frames), 0.04)


class TestCheckCertifiesTrack:
    @settings(max_examples=100, deadline=None)
    @given(st.randoms(use_true_random=False), st.sampled_from(models.BUILTIN_MODELS),
           st.integers(2, 8), st.integers(2, 5), st.sampled_from(["paper", "filter"]))
    def test_check_agrees_with_what_track_prints(self, tmp_path_factory, rng, model, n_frames,
                                                 window, mode):
        path = tmp_path_factory.mktemp("stream") / "stream.jsonl"
        path.write_text(stream_to_jsonl(region_stream(rng, n_frames)))
        flags = {"dirty_lens": ["--window", str(window)], "lumen_tracker": ["--mode", mode]}
        (track_code, printed, _), (code, out, err) = (
            run_captured([command, "--model", model, "--stream", str(path), *flags.get(model, [])])
            for command in ("track", "check"))
        assert (code, err) == (0, ""), out
        residual, compared = CHECK_LINE.fullmatch(out).groups()
        assert float(residual) < 1e-9
        # track declines a single-scene model; check then compares every frame
        assert int(compared) == (len(printed.splitlines()) if track_code == 0 else n_frames)


def impossible_models(directory):
    """Model files whose every frame without a bound region is impossible: a dynamic and
    a semi-static model whose feature is present in every state."""
    lens = dynamic_to_document(builtin_model("dirty_lens").model)
    lens["feature"]["cpt"] = [[1.0, 0.0], [1.0, 0.0]]
    lumen = semi_static_to_document(builtin_model("lumen_tracker").model)
    lumen["per_frame"]["nodes"][1]["cpt"] = [[1.0, 0.0], [1.0, 0.0]]
    paths = []
    for name, doc in (("lens", lens), ("lumen", lumen)):
        path = directory / f"{name}.json"
        path.write_text(json.dumps(doc))
        paths.append(str(path))
    return paths


def edited_stream(rng, data: bytes, edit: str) -> bytes:
    """``data``, a stream's bytes, with one edit at a random place."""
    lines = data.split(b"\n")[:-1]
    at = rng.randrange(len(lines))
    if edit == "crlf":
        return data.replace(b"\n", b"\r\n")
    if edit == "line-separator":  # JSON allows U+2028 raw inside a string
        return data.replace(b'"id": "', '"id": "\u2028'.encode(), 1)
    if edit == "bad-line":
        lines[at] = rng.choice([b"{", b'{"index": 0}', lines[at] + b" x", b"[1, 2"])
    elif edit == "swap" and len(lines) > 2:
        other = rng.randrange(1, len(lines))
        lines[max(at, 1)], lines[other] = lines[other], lines[max(at, 1)]
    elif edit == "interval" and len(lines) > 1:
        at = max(at, 1)
        lines[at] = lines[at].replace(b'"t": ', b'"t": 1', 1)
    elif edit == "header":
        lines[0] = rng.choice([b'{"dt": 0}', b'{"dt": -1}', b'{"dt": 0.04, "x": 1}'])
    elif edit == "blank":
        lines.insert(at, rng.choice([b"", b"  ", b"\t"]))
    elif edit == "utf-8":
        cut = rng.randrange(len(data) + 1)
        return data[:cut] + rng.choice([b"\xff", b"\xe2\x82", b"\xc3", b"\xed\xa0\x80"]) + data[cut:]
    return b"".join(line + b"\n" for line in lines)


def run_with_stdin(argv, data: bytes, whole_stream=False):
    """``run_captured`` with ``data`` on a stdin decoded as a POSIX UTF-8 one, strictly; with
    ``whole_stream``, ``track`` and ``check`` run :func:`whole_stream_command`."""
    stdin = io.TextIOWrapper(io.BytesIO(data), encoding="utf-8", errors="strict", newline="\n")
    commands = {"track": whole_stream_command, "check": whole_stream_command} if whole_stream else {}
    with mock.patch.object(sys, "stdin", stdin), mock.patch.dict(cli._COMMANDS, commands):
        return run_captured(argv)


STREAM_EDITS = ["crlf", "line-separator", "bad-line", "swap", "interval", "header",
                "blank", "utf-8"]


class TestChunkedStreams:
    """track and check read, evaluate and emit a stream CHUNK_FRAMES frames at a time, and
    answer byte for byte as when the whole stream was read first."""

    @settings(max_examples=300, deadline=None)
    @given(st.randoms(use_true_random=False), st.sampled_from(["track", "check"]),
           st.sampled_from(["lumen_tracker", "filter", "dirty_lens", "diverticulum", "lens",
                            "lumen"]),
           st.integers(2, 5), st.integers(0, 9), st.sampled_from([1, 2, 3, 256]),
           st.lists(st.sampled_from(STREAM_EDITS), max_size=2), st.booleans())
    def test_every_chunk_size_answers_like_the_whole_stream(self, tmp_path_factory, rng, command,
                                                            model, window, n_frames, chunk, edits,
                                                            from_stdin):
        """Up to two edits, so that errors of two kinds meet in one stream."""
        directory = tmp_path_factory.mktemp("chunks")
        flags = {"lumen_tracker": ["--model", "lumen_tracker"],
                 "filter": ["--model", "lumen_tracker", "--mode", "filter"],
                 "dirty_lens": ["--model", "dirty_lens", "--window", str(window)],
                 "diverticulum": ["--model", "diverticulum"]}
        lens, lumen = impossible_models(directory)
        flags.update(lens=["--spec", lens], lumen=["--spec", lumen])
        stream = (region_stream(rng, n_frames) if n_frames else FrameStream((), 0.04))
        data = stream_to_jsonl(stream).encode()
        for edit in edits if n_frames else []:
            data = edited_stream(rng, data, edit)
        path = directory / "stream.jsonl"
        path.write_bytes(data)
        argv = [command, *flags[model], "--stream", "-" if from_stdin else str(path)]
        expected = run_with_stdin(argv, data, whole_stream=True)
        with mock.patch.object(temporal, "CHUNK_FRAMES", chunk):
            assert run_with_stdin(argv, data) == expected, (argv, data)

    @pytest.mark.parametrize("chunk", [1, 2, 3, 256])
    @pytest.mark.parametrize("command", ["track", "check"])
    @pytest.mark.parametrize("flags", [["--model", "dirty_lens", "--window", "5"],
                                       ["--model", "lumen_tracker", "--mode", "filter"]])
    def test_windows_and_scans_straddle_chunk_boundaries(self, tmp_path, command, flags, chunk):
        """A 5-frame window spans up to five chunks and the semi-static scan carries its
        posterior across every boundary, from a file and from stdin."""
        path, data = tmp_path / "stream.jsonl", stream_to_jsonl(generate_stream(
            "moving_spot", 23, seed=4)).encode()
        path.write_bytes(data)
        for stream in (str(path), "-"):
            argv = [command, *flags, "--stream", stream]
            expected = run_with_stdin(argv, data, whole_stream=True)
            assert expected[0] == 0
            with mock.patch.object(temporal, "CHUNK_FRAMES", chunk):
                assert run_with_stdin(argv, data) == expected

    @pytest.mark.parametrize("where", ["before", "at", "after"])
    @pytest.mark.parametrize("later", ["bad-line", "swap", "utf-8"])
    def test_a_later_stream_error_outranks_an_earlier_impossible_frame(self, tmp_path, where,
                                                                       later):
        """The window ending at frame 1 is impossible.  With chunks of two lines, the
        stream error comes later in that frame's chunk, in the first line of the next
        chunk, or chunks later: it still wins, and nothing is written."""
        lens = impossible_models(tmp_path)[0]
        lines = stream_to_jsonl(generate_stream("static_spot", 10, seed=1)).splitlines()
        lines[2] = json.dumps({"index": 1, "t": 0.04, "regions": []})
        path = tmp_path / "stream.jsonl"
        path.write_text("".join(line + "\n" for line in lines))
        impossible = "frame 1: impossible evidence: support vanished at node 'spot_1'\n"
        for command in ("track", "check"):
            argv = [command, "--spec", lens, "--window", "2", "--stream", str(path)]
            assert run_captured(argv) == (3, "", impossible)
        at = {"before": 3, "at": 4, "after": 9}[where]  # lines[at] is line at + 1
        if later == "bad-line":
            lines[at] = "{"
        elif later == "swap":
            lines[at], lines[at + 1] = lines[at + 1], lines[at]
        data = "".join(line + "\n" for line in lines).encode()
        if later == "utf-8":
            data = data.replace(lines[at].encode(), lines[at].encode() + b"\xff")
        path.write_bytes(data)
        for command in ("track", "check"):
            argv = [command, "--spec", lens, "--window", "2", "--stream", str(path)]
            with mock.patch.object(temporal, "CHUNK_FRAMES", 2):
                code, out, err = run_with_stdin(argv, data)
            assert (code, out, err) == run_with_stdin(argv, data, whole_stream=True)
            assert code in (1, 2) and out == "" and err != impossible, err

    def test_an_error_in_the_last_line_writes_nothing(self, tmp_path):
        """The trace of 600 frames spills to disk before the last line turns out bad."""
        path, out = tmp_path / "stream.jsonl", tmp_path / "trace.jsonl"
        path.write_text(stream_to_jsonl(generate_stream("static_spot", 600, seed=1)) + "{\n")
        for target in ([], ["--out", str(out)]):
            with mock.patch.object(cli, "SPOOL_CHARS", 4096):
                code, stdout, err = run_captured(["track", "--model", "dirty_lens",
                                                  "--stream", str(path), *target])
            assert (code, stdout, err) == (2, "", "Expecting property name enclosed in double "
                                                  "quotes (line 602, column 2)\n")
            assert not out.exists()

    @pytest.mark.parametrize("first, later, wins", [
        ("bad-line", "utf-8", "codec can't decode"),
        ("swap", "bad-line", "Expecting"),
        ("dt", "bad-line", "Expecting"),
        ("dt", "swap", "dt must be positive"),
        ("swap", "interval", "between frames 0 and 2")])
    def test_stream_errors_keep_their_rank_across_chunks(self, tmp_path, first, later, wins):
        """An error early in the stream and one of another kind chunks later: the one
        that reading the whole stream first reports still wins."""
        lines = stream_to_jsonl(generate_stream("static_spot", 12, seed=1)).splitlines()
        for kind, at in ((first, 2), (later, 10)):
            if kind == "bad-line":
                lines[at] = "{"
            elif kind == "swap":
                lines[at], lines[at + 1] = lines[at + 1], lines[at]
            elif kind == "interval":
                lines[at] = lines[at].replace('"t": ', '"t": 1', 1)
            elif kind == "dt":
                lines[0] = '{"dt": 0}'
        data = "".join(line + "\n" for line in lines).encode()
        if later == "utf-8":
            data += b"\xff\n"
        path = tmp_path / "stream.jsonl"
        path.write_bytes(data)
        for command in ("track", "check"):
            argv = [command, "--model", "lumen_tracker", "--stream", str(path)]
            expected = run_with_stdin(argv, data, whole_stream=True)
            assert expected[0] in (1, 2) and wins in expected[2]
            for chunk in (1, 2, 256):
                with mock.patch.object(temporal, "CHUNK_FRAMES", chunk):
                    assert run_with_stdin(argv, data) == expected

    @pytest.mark.parametrize("cut", [0, 7, 150, 333, -40, -1])
    @pytest.mark.parametrize("bad", [b"\xff", b"\xe2\x82", b"\xf0\x9f\x98"])
    def test_invalid_utf8_names_its_position_in_the_whole_file(self, tmp_path, cut, bad):
        good = stream_to_jsonl(generate_stream("static_spot", 6, seed=2)).encode()
        data = good[:cut] + bad + good[cut:] if cut >= 0 else good + bad + good[len(good) + cut:]
        path = tmp_path / "stream.jsonl"
        path.write_bytes(data)
        with pytest.raises(UnicodeDecodeError) as whole:
            data.decode("utf-8")
        for stream in (str(path), "-"):
            with mock.patch.object(temporal, "CHUNK_FRAMES", 1):
                code, out, err = run_with_stdin(["track", "--model", "dirty_lens",
                                                 "--stream", stream], data)
            assert (code, out, err) == (2, "", f"{whole.value}\n")

    @pytest.mark.parametrize("argv", [
        ["track", "--model", "dirty_lens"], ["check", "--model", "dirty_lens"],
        ["track", "--model", "lumen_tracker"], ["check", "--model", "lumen_tracker"],
        ["check", "--model", "diverticulum"]])
    def test_memory_stays_bounded_as_the_stream_grows(self, tmp_path, argv):
        """Ten times the frames peaks within 64 KiB of the shorter stream: each chunk's
        frames and rows are dropped before the next is read, check keeps one hypothesis
        marginal per distinct code row, of which a stream has few, and output past
        SPOOL_CHARS waits in a temporary file."""
        rng = random.Random(3)
        frames = [Frame(i, round(i * 0.04, 6), tuple(
            [Region("d", "dark", (20.0, 20.0), 9, (19, 19, 21, 21))] * (rng.random() < 0.5)
            + [Region("s", "yellow", (50 + rng.random(), 40.0), 9, (49, 39, 51, 41))]
            * (rng.random() < 0.7))) for i in range(400)]
        peaks, out = [], tmp_path / "out"
        for n in (40, 400):
            path = tmp_path / f"stream{n}.jsonl"
            path.write_text(stream_to_jsonl(FrameStream(tuple(frames[:n]), 0.04)))
            argv_n = [*argv, "--stream", str(path), "--out", str(out)]
            with mock.patch.object(temporal, "CHUNK_FRAMES", 25), \
                    mock.patch.object(cli, "SPOOL_CHARS", 2048):
                run_captured(argv_n)   # caches warmed
                tracemalloc.start()
                try:
                    code, _, _ = run_captured(argv_n)
                    peaks.append(tracemalloc.get_traced_memory()[1])
                finally:
                    tracemalloc.stop()
            assert code == 0
        assert peaks[1] < peaks[0] + 65536, peaks


class TestFlagsForTheOtherModelKind:
    """--mode is for semi-static models, --window and --delta for dynamic ones;
    any of them on another kind of model exits 2 before the stream is read."""

    @pytest.mark.parametrize("command", ["track", "check"])
    @pytest.mark.parametrize("model, flag, kind", [
        ("dirty_lens", ["--mode", "filter"], "dynamic"),
        ("dirty_lens", ["--mode", "paper"], "dynamic"),
        ("lumen_tracker", ["--window", "3"], "semi-static"),
        ("diverticulum", ["--window", "2"], "single-scene"),
        ("diverticulum", ["--mode", "filter"], "single-scene"),
        ("lumen_tracker", ["--delta", "3"], "semi-static"),
        ("diverticulum", ["--delta", "3"], "single-scene"),
        ("bend", ["--delta", "3"], "single-scene")])
    def test_exits_2_naming_the_flag_and_the_model_kind(self, capsys, command, model, flag, kind):
        code, out, err = run(capsys, command, "--model", model, *flag,
                             "--scenario", "static_spot", "--frames", "6")
        assert (code, out) == (2, "")
        assert len(err.splitlines()) == 1 and flag[0] in err and f"{kind} model" in err, err

    @pytest.mark.parametrize("model", ["diverticulum", "bend"])
    def test_delta_on_infer_exits_2(self, capsys, model):
        assert run(capsys, "infer", "--model", model, "--scenario", "static_spot",
                   "--delta", "3") == (
            2, "", "--delta applies to dynamic models only, not to a single-scene model\n")

    @pytest.mark.parametrize("command", ["track", "check"])
    def test_delta_on_a_dynamic_model_is_taken(self, capsys, command):
        argv = (command, "--model", "dirty_lens", "--scenario", "moving_spot", "--frames", "8")
        code, out, err = run(capsys, *argv, "--delta", "100")
        assert (code, err) == (0, "")
        if command == "track":   # the spot moves 15 px a frame: beyond the model's delta, not 100
            assert out != run(capsys, *argv)[1]

    def test_is_reported_before_the_stream_is_read(self, capsys, tmp_path):
        code, out, err = run(capsys, "track", "--model", "dirty_lens", "--mode", "filter",
                             "--stream", str(tmp_path / "missing.jsonl"))
        assert (code, out, err) == (
            2, "", "--mode applies to semi-static models only, not to a dynamic model\n")


_ROWS = [[0.8, 0.2], [0.3, 0.7]]
#: a single-scene spec with a static and a distance relation: --epsilon and --tau both apply
THRESHOLD_DOC = {
    "root": "H", "bind": {"a": {"colour_class": "dark"}, "b": {"colour_class": "dark"}},
    "nodes": [{"id": "H", "kind": "chance", "states": ["present", "absent"], "prior": [0.5, 0.5]},
              *({"id": f, "kind": "chance", "states": ["present", "absent"], "parent": "H",
                 "cpt": _ROWS} for f in "ab"),
              {"id": "still", "kind": "relation", "states": ["holds", "holds_not"], "parent": "H",
               "cpt": _ROWS, "evaluator": "static", "inputs": ["a", "b"]},
              {"id": "near", "kind": "relation", "states": ["near", "far"], "parent": "H",
               "cpt": _ROWS, "evaluator": "distance", "inputs": ["a", "b"]}]}


class TestFlagsForAnotherInput:
    """--seed and --frames shape a --scenario input, --tau and --epsilon the relations
    evaluated on a scene or stream; on any other input each exits 2 with one line, and
    so does --tau or --epsilon on a model none of whose relations reads it."""

    @pytest.mark.parametrize("flag", [["--seed", "9"], ["--frames", "2"], ["--seed", "0"]])
    @pytest.mark.parametrize("argv, source", [
        (["track", "--model", "dirty_lens", "--stream"], "stream"),
        (["check", "--model", "lumen_tracker", "--stream"], "stream"),
        (["infer", "--model", "bend", "--scene"], "scene"),
        (["check", "--model", "bend", "--scene"], "scene")])
    def test_generation_flags_on_a_file_input_exit_2(self, capsys, tmp_path, flag, argv, source):
        path = tmp_path / "input"
        path.write_text(stream_to_jsonl(generate_stream("static_spot", 4, seed=1)) if source == "stream"
                        else json.dumps(scene_to_document(())))
        assert run(capsys, *argv, str(path), *flag) == (
            2, "", f"{flag[0]} applies to --scenario input only, not to --{source}\n")

    @pytest.mark.parametrize("argv", [["track", "--model", "dirty_lens"],
                                      ["check", "--model", "lumen_tracker"],
                                      ["infer", "--model", "bend"], ["generate"]])
    def test_a_scenario_keeps_seed_0_and_5_frames(self, capsys, argv):
        default = run(capsys, *argv, "--scenario", "static_spot")
        assert default[0] == 0
        assert run(capsys, *argv, "--scenario", "static_spot", "--seed", "0", "--frames", "5") == default

    @pytest.mark.parametrize("frames", [str(sys.maxsize + 1), "99999999999999999999"])
    @pytest.mark.parametrize("argv", [["generate"], ["track", "--model", "lumen_tracker"],
                                      ["check", "--model", "dirty_lens"],
                                      ["check", "--model", "bend"], ["infer", "--model", "bend"]])
    def test_frames_past_any_index_exit_2(self, capsys, argv, frames):
        # only lengths no sequence can have: a smaller huge --frames would fill memory
        assert run(capsys, *argv, "--scenario", "empty", "--frames", frames) == (
            2, "", f"--frames must be at most {sys.maxsize}\n")

    @pytest.mark.parametrize("flag", ["--tau", "--epsilon"])
    @pytest.mark.parametrize("command", ["infer", "check"])
    def test_thresholds_on_an_evidence_document_exit_2(self, capsys, tmp_path, evidence_file,
                                                       command, flag):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps(THRESHOLD_DOC))
        scene = tmp_path / "scene.json"
        scene.write_text(json.dumps(scene_to_document(())))
        assert run(capsys, command, "--spec", str(spec), "--scene", str(scene), flag, "3")[0] == 0
        evidence = tmp_path / "evidence.json"
        evidence.write_text('{"assignments": {"H": "present"}}')
        assert run(capsys, command, "--spec", str(spec), "--scene", str(evidence), flag, "3") == (
            2, "", f"{flag} applies to scenes and streams only, not to an evidence document\n")

    @pytest.mark.parametrize("argv, flag", [
        (["track", "--model", "dirty_lens"], "--tau"), (["check", "--model", "dirty_lens"], "--tau"),
        (["infer", "--model", "bend"], "--epsilon"), (["check", "--model", "bend"], "--epsilon"),
        (["infer", "--model", "diverticulum"], "--tau"),
        (["infer", "--model", "diverticulum"], "--epsilon"),
        (["track", "--model", "lumen_tracker"], "--tau"),
        (["track", "--model", "lumen_tracker"], "--epsilon")])
    def test_a_threshold_no_relation_reads_exits_2(self, capsys, argv, flag):
        """adjacent and distance relations read --tau, static ones --epsilon, surrounding
        ones neither; the flag is refused before the input is read."""
        readers = "adjacent and distance" if flag == "--tau" else "static"
        assert run(capsys, *argv, "--scenario", "static_spot", flag, "50") == (
            2, "", f"{flag} applies to {readers} relations only; this model has none\n")

    @pytest.mark.parametrize("argv, flag", [
        (["track", "--model", "dirty_lens"], "--epsilon"), (["infer", "--model", "bend"], "--tau"),
        (["track", "--spec", "adjacent.json"], "--tau"),
        (["infer", "--spec", "spec.json"], "--tau"), (["infer", "--spec", "spec.json"], "--epsilon")])
    def test_a_threshold_a_relation_reads_is_taken(self, capsys, tmp_path, monkeypatch, argv, flag):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "adjacent.json").write_text(json.dumps(ADJACENT_TRACKER))
        (tmp_path / "spec.json").write_text(json.dumps(THRESHOLD_DOC))
        assert run(capsys, *argv, "--scenario", "adjacent_scene", flag, "50")[0] == 0


class TestRaggedMask:
    """A mask whose rows differ in length, or hold a list where the others hold a
    number, is named by its region and its bbox's grid, in a scene and a stream."""

    @pytest.mark.parametrize("mask", ["[[1, 1], [1]]", "[[1, [1]], [1, 0]]"])
    def test_names_the_region(self, capsys, tmp_path, mask):
        region = ('{"id": "a", "colour_class": "dark", "centroid": [0.5, 0.5], "area": 3, '
                  f'"bbox": [0, 0, 1, 1], "mask": {mask}}}')
        scene, stream = tmp_path / "scene.json", tmp_path / "stream.jsonl"
        scene.write_text(f'{{"regions": [{region}]}}')
        stream.write_text(f'{{"dt": 0.04}}\n{{"index": 0, "t": 0.0, "regions": [{region}]}}\n')
        message = "region 'a': mask is not a grid of 2 rows of 2 entries\n"
        assert run(capsys, "infer", "--model", "diverticulum", "--scene", str(scene)) == (
            2, "", message)
        assert run(capsys, "track", "--model", "lumen_tracker", "--stream", str(stream)) == (
            2, "", "stream line 2: " + message)


class TestInferScenario:
    @pytest.mark.parametrize("scenario", sorted(SCENARIOS))
    @pytest.mark.parametrize("model", ["diverticulum", "bend"])
    def test_frames_beyond_the_first_change_nothing(self, capsys, model, scenario):
        """infer reads frame 0, which a scenario generates alike for any length."""
        outputs = {run(capsys, "infer", "--model", model, "--scenario", scenario, "--seed", "3",
                       "--frames", frames) for frames in ("1", "40")}
        assert len(outputs) == 1 and next(iter(outputs))[0] == 0
        for seed in (0, 3, 5):
            assert (stream_to_jsonl(generate_stream(scenario, 1, seed=seed))
                    == stream_to_jsonl(generate_stream(scenario, 500, seed=seed)).split("\n")[0]
                    + "\n" + stream_to_jsonl(generate_stream(scenario, 500, seed=seed))
                    .split("\n")[1] + "\n")

    @pytest.mark.parametrize("frames", ["0", "-3"])
    def test_no_frames_exits_2(self, capsys, frames):
        assert run(capsys, "infer", "--model", "diverticulum", "--scenario", "static_spot",
                   "--frames", frames) == (2, "", "n_frames must be >= 1\n")
