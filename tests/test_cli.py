import io
import json
import shutil
import subprocess
import sys

from dataclasses import replace

import pytest

from beliefscope import cli, network, relational, temporal
from beliefscope.endoscopy import builtin_model, generate_stream
from beliefscope.propagation import Beliefs
from beliefscope.temporal import (
    Frame,
    FrameStream,
    build_dynamic_window,
    dynamic_to_document,
    semi_static_to_document,
    stream_to_jsonl,
)


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


class TestValidate:
    def test_valid_spec(self, capsys, two_node_spec_file):
        code, _, err = run(capsys, "validate", "--spec", two_node_spec_file)
        assert code == 0
        assert "ok" in err

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
        calls = []

        def counted(spec):
            calls.append(spec)
            return network.validate_network(spec)

        for module in (cli, relational, temporal):
            monkeypatch.setattr(module, "validate_network", counted)
        code, out, _ = run(capsys, "check", "--model", model, "--scenario", scenario,
                           "--frames", "6")
        assert (code, len(calls)) == (0, 1)
        assert "over 6 network(s)" in out

    def test_temporal_model_with_scene_input_exits_2(self, capsys, evidence_file):
        code, _, err = run(capsys, "check", "--model", "lumen_tracker",
                           "--scene", evidence_file)
        assert code == 2
        assert "stream input" in err

    def test_mismatch_exits_4(self, capsys, monkeypatch, two_node_spec_file, evidence_file):
        real = cli.brute_force_beliefs

        def skewed(inet, cap=1 << 20):
            b = real(inet, cap)
            return Beliefs({k: v + 1e-6 for k, v in b.marginals.items()}, b.states)

        monkeypatch.setattr(cli, "brute_force_beliefs", skewed)
        code, _, err = run(capsys, "check", "--spec", two_node_spec_file,
                           "--scene", evidence_file)
        assert code == 4
        assert "oracle mismatch" in err


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


class TestCheckRoutes:
    def test_each_distinct_window_is_compared_once(self, capsys, monkeypatch, tmp_path):
        model = builtin_model("dirty_lens").model
        stream, path = spot_stream_file(tmp_path)
        frames = stream.frames
        distinct = {frozenset(build_dynamic_window(model, frames[end - 2:end + 1])[1]
                              .assignments.items()) for end in range(2, len(frames))}
        assert 1 < len(distinct) < len(frames) - 2
        calls = {"propagate": 0, "brute_force_beliefs": 0, "select_region": 0}

        def counted(module, name):
            real = getattr(module, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return real(*args, **kwargs)

            monkeypatch.setattr(module, name, wrapper)

        counted(cli, "propagate")
        counted(cli, "brute_force_beliefs")
        counted(temporal, "select_region")
        code, out, _ = run(capsys, "check", "--model", "dirty_lens", "--stream", path,
                           "--window", "3")
        assert code == 0
        assert out.endswith(f" over {len(frames) - 2} network(s)\n")
        assert calls == {"propagate": len(distinct), "brute_force_beliefs": len(distinct),
                         "select_region": len(frames)}

    def test_skewed_star_route_exits_4(self, capsys, monkeypatch, tmp_path):
        _, path = spot_stream_file(tmp_path)
        real = temporal.posterior
        monkeypatch.setattr(temporal, "posterior", lambda prior, lam: real(prior, lam) + 1e-6)
        code, out, err = run(capsys, "check", "--model", "dirty_lens", "--stream", path)
        assert code == 4
        assert out.startswith("max |propagate - enumeration| = 1e-06 over 36 network(s)")
        assert "oracle mismatch" in err

    def test_skewed_semi_static_route_exits_4(self, capsys, monkeypatch):
        real = temporal.posterior
        monkeypatch.setattr(temporal, "posterior", lambda prior, lam: real(prior, lam) + 1e-6)
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


def launcher():
    """The installed console script, or ``python -m beliefscope`` without one."""
    script = shutil.which("beliefscope")
    return [script] if script else [sys.executable, "-m", "beliefscope"]


class TestEntryPoint:
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
