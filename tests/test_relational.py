import json
import math
import random
import tracemalloc

import numpy as np
import pytest

from beliefscope import cli, relational
from beliefscope.endoscopy import builtin_model, generate_stream
from beliefscope.errors import InvalidNetworkError, SpecSyntaxError
from beliefscope.network import NetworkSpec, NodeSpec, apply_evidence
from beliefscope.propagation import brute_force_beliefs, propagate
from beliefscope.relational import (
    Region,
    bind_features,
    eval_relation,
    parse_scene,
    relational_diagnostics,
    relationalize,
    scene_to_document,
    select_region,
)

from helpers import dense_min_distance, random_region


def ring_region(rid="ring", colour="bright"):
    mask = np.ones((5, 5), dtype=bool)
    mask[1:-1, 1:-1] = False
    return Region(id=rid, colour_class=colour, centroid=(2.0, 2.0), area=16,
                  bbox=(0, 0, 4, 4), mask=mask)


def pixel_region(rid, x, y, colour="dark"):
    return Region(id=rid, colour_class=colour, centroid=(float(x), float(y)), area=1,
                  bbox=(x, y, x, y), mask=np.ones((1, 1), dtype=bool))


class TestRegion:
    def test_invariants(self):
        with pytest.raises(ValueError, match="area must be >= 1"):
            Region("r", "dark", (0, 0), 0, (0, 0, 0, 0))
        with pytest.raises(ValueError, match="bbox not well-ordered"):
            Region("r", "dark", (0, 0), 1, (2, 0, 0, 0))
        with pytest.raises(ValueError, match="unknown colour class"):
            Region("r", "purple", (0, 0), 1, (0, 0, 0, 0))
        with pytest.raises(ValueError, match="mask has 2 pixels, area is 1"):
            Region("r", "dark", (0, 0), 1, (0, 0, 1, 0), mask=np.ones((1, 2), dtype=bool))
        with pytest.raises(ValueError, match="mask extent"):
            Region("r", "dark", (0, 0), 1, (0, 0, 1, 1),
                   mask=np.array([[1, 0], [0, 0]], dtype=bool))

    def test_scene_round_trip(self):
        regions = (ring_region(), pixel_region("p", 2, 2))
        text = json.dumps(scene_to_document(regions))
        parsed = parse_scene(text)
        assert [r.id for r in parsed] == ["ring", "p"]
        assert np.array_equal(parsed[0].mask, regions[0].mask)

    def test_scene_errors(self):
        with pytest.raises(SpecSyntaxError, match="unknown field"):
            parse_scene('{"regions": [{"id": "a", "colour_class": "dark", "centroid": [0,0], '
                        '"area": 1, "bbox": [0,0,0,0], "shade": 3}]}')
        with pytest.raises(SpecSyntaxError, match="duplicate region id"):
            parse_scene(json.dumps(scene_to_document((pixel_region("a", 0, 0),
                                                      pixel_region("a", 5, 5)))))


class TestEvalRelation:
    def test_ring_surrounds_centre_pixel(self):
        assert eval_relation("surrounding", ring_region(), pixel_region("p", 2, 2)) == "holds"

    def test_far_pair_neither_adjacent_nor_static(self):
        a = pixel_region("a", 0, 0)
        b = pixel_region("b", 10, 0)
        assert eval_relation("adjacent", a, b, tau=2) == "holds_not"
        assert eval_relation("static", a, b, epsilon=2) == "holds_not"

    def test_identical_region_is_static(self):
        a = pixel_region("a", 3, 3, colour="yellow")
        b = pixel_region("a", 3, 3, colour="yellow")
        assert eval_relation("static", a, b) == "holds"

    def test_touching_regions_are_adjacent(self):
        a = Region("a", "bright", (0.5, 0.5), 4, (0, 0, 1, 1))
        b = Region("b", "dark", (2.5, 0.5), 4, (2, 0, 3, 1))
        # bbox gap is 1 px; and truly touching bboxes give 0
        assert eval_relation("adjacent", a, b) == "holds"
        c = Region("c", "dark", (1.5, 0.5), 4, (1, 0, 2, 1))
        assert eval_relation("adjacent", a, c) == "holds"

    def test_open_ring_fails_the_ray_test(self):
        mask = np.ones((5, 5), dtype=bool)
        mask[1:-1, 1:-1] = False
        mask[2, 4] = False  # open the ring at the centroid row, right side
        a = Region("a", "bright", (2.0, 2.0), 15, (0, 0, 4, 4), mask=mask)
        assert eval_relation("surrounding", a, pixel_region("p", 2, 2)) == "holds_not"

    def test_overlapping_masks_do_not_surround(self):
        solid = Region("s", "bright", (2.0, 2.0), 25, (0, 0, 4, 4),
                       mask=np.ones((5, 5), dtype=bool))
        assert eval_relation("surrounding", solid, pixel_region("p", 2, 2)) == "holds_not"

    def test_bbox_fallback_without_masks(self):
        outer = Region("o", "bright", (5.0, 5.0), 20, (0, 0, 10, 10))
        inner = Region("i", "dark", (5.0, 5.0), 4, (4, 4, 6, 6))
        assert eval_relation("surrounding", outer, inner) == "holds"
        edge = Region("e", "dark", (5.0, 0.0), 4, (4, 0, 6, 2))  # shares outer's edge
        assert eval_relation("surrounding", outer, edge) == "holds_not"

    def test_distance_bins_at_tau(self):
        a = pixel_region("a", 0, 0)
        b = pixel_region("b", 2, 0)
        assert eval_relation("distance", a, b, tau=2) == "near"
        assert eval_relation("distance", a, b, tau=1.5) == "far"

    def test_static_contract_error_on_colour_mismatch(self):
        a = pixel_region("a", 0, 0, colour="yellow")
        b = pixel_region("b", 0, 0, colour="dark")
        with pytest.raises(ValueError, match="unmatched regions"):
            eval_relation("static", a, b)

    def test_unknown_evaluator_and_bad_params(self):
        a, b = pixel_region("a", 0, 0), pixel_region("b", 1, 0)
        with pytest.raises(ValueError, match="unknown evaluator"):
            eval_relation("above", a, b)
        with pytest.raises(ValueError, match="strictly positive"):
            eval_relation("adjacent", a, b, tau=0)
        for bad in (math.nan, math.inf):
            with pytest.raises(ValueError, match="strictly positive and finite"):
                eval_relation("adjacent", a, b, tau=bad)
            with pytest.raises(ValueError, match="strictly positive and finite"):
                eval_relation("static", a, b, epsilon=bad)

    def test_symmetry_of_pairwise_relations(self):
        rng = random.Random(4)
        for _ in range(50):
            a = random_region(rng, "a", colour="dark")
            b = random_region(rng, "b", colour="dark")
            for kind in ("adjacent", "distance", "static"):
                assert eval_relation(kind, a, b) == eval_relation(kind, b, a)

    def test_surrounding_antisymmetry_and_consequences(self):
        rng = random.Random(9)
        hits = 0
        for _ in range(60):
            # a random ring with a random blob in its hole: holds by construction
            size = rng.randint(7, 12)
            band = rng.randint(1, 2)
            mask = np.ones((size, size), dtype=bool)
            mask[band:-band, band:-band] = False
            a = Region("a", "bright", (size / 2, size / 2), int(mask.sum()),
                       (0, 0, size - 1, size - 1), mask=mask)
            hole = range(band + 1, size - band - 1)
            bx, by = rng.choice(list(hole)), rng.choice(list(hole))
            b = pixel_region("b", bx, by)
            if eval_relation("surrounding", a, b) == "holds":
                hits += 1
                assert eval_relation("surrounding", b, a) == "holds_not"
                ax0, ay0, ax1, ay1 = a.bbox
                bx0, by0, bx1, by1 = b.bbox
                assert ax0 < bx0 and bx1 < ax1 and ay0 < by0 and by1 < ay1
        assert hits == 60
        # random blob pairs: whenever holds comes out, the same consequences follow
        for _ in range(200):
            a = random_region(rng, "a", colour="bright", size=8)
            b = random_region(rng, "b", colour="dark", origin=(2, 2), size=4)
            if eval_relation("surrounding", a, b) == "holds":
                assert eval_relation("surrounding", b, a) == "holds_not"
                # masks genuinely disjoint, checked on raw pixel sets
                pa = {tuple(p) for p in a.pixels().astype(int).tolist()}
                pb = {tuple(p) for p in b.pixels().astype(int).tolist()}
                assert not (pa & pb)

    def test_determinism(self):
        a, b = ring_region(), pixel_region("p", 2, 2)
        assert all(eval_relation("surrounding", a, b) == "holds" for _ in range(5))


def square_region(rid, x0, y0, size, colour="dark", hole=0):
    """A solid square mask at (x0, y0), or with ``hole`` a square frame around
    a centred hole of that size."""
    mask = np.ones((size, size), dtype=bool)
    if hole:
        band = (size - hole) // 2
        mask[band:band + hole, band:band + hole] = False
    c = x0 + (size - 1) / 2, y0 + (size - 1) / 2
    return Region(rid, colour, c, int(mask.sum()), (x0, y0, x0 + size - 1, y0 + size - 1),
                  mask=mask)


ADJACENCY_SPEC = {
    "root": "lesion",
    "nodes": [
        {"id": "lesion", "kind": "chance", "states": ["present", "absent"], "prior": [0.4, 0.6]},
        {"id": "dark_fold", "kind": "chance", "states": ["present", "absent"],
         "parent": "lesion", "cpt": [[0.8, 0.2], [0.3, 0.7]]},
        {"id": "bright_rim", "kind": "chance", "states": ["present", "absent"],
         "parent": "lesion", "cpt": [[0.7, 0.3], [0.2, 0.8]]},
        {"id": "touching", "kind": "relation", "states": ["holds", "holds_not"],
         "parent": "lesion", "evaluator": "adjacent", "inputs": ["dark_fold", "bright_rim"],
         "cpt": [[0.9, 0.1], [0.25, 0.75]]},
    ],
    "bind": {"dark_fold": {"colour_class": "dark"}, "bright_rim": {"colour_class": "bright"}},
}


class TestAdjacency:
    TAUS = (0.5, 1.0, math.sqrt(2), 2.0, 3.5, 0.3, 1.7, 2.2, math.sqrt(5), 2.9, 4.25, 6.5)

    # a block of 2 makes every pair of cropped masks span several blocks
    @pytest.mark.parametrize("block", [None, 2], ids=["default-block", "block-of-2"])
    def test_decision_equals_the_dense_minimum_distance(self, monkeypatch, block):
        if block is not None:
            monkeypatch.setattr(relational, "_PAIR_BLOCK", block)
        rng = random.Random(2718)
        for i in range(400):
            a = random_region(rng, "a", size=8)
            b = random_region(rng, "b", size=8,
                              origin=(rng.randint(-12, 12), rng.randint(-12, 12)))
            d = dense_min_distance(a, b)
            for tau in self.TAUS:
                want = "holds" if d <= tau else "holds_not"
                assert eval_relation("adjacent", a, b, tau=tau) == want, (i, tau, d)
                assert eval_relation("adjacent", b, a, tau=tau) == want, (i, tau, d)

    def test_tau_exactly_at_a_pixel_distance(self):
        a = pixel_region("a", 0, 0)
        for (x, y), tau in [((1, 0), 1.0), ((1, 1), math.sqrt(2)), ((2, 1), math.sqrt(5)),
                            ((3, 0), 3.0)]:
            b = pixel_region("b", x, y, colour="bright")
            assert eval_relation("adjacent", a, b, tau=tau) == "holds"
            assert eval_relation("adjacent", a, b, tau=math.nextafter(tau, 0)) == "holds_not"

    def test_large_masks_far_apart(self, capsys, tmp_path):
        a = square_region("a", 0, 0, 300)
        b = square_region("b", 1299, 0, 300, colour="bright")
        assert eval_relation("adjacent", a, b) == "holds_not"
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps(ADJACENCY_SPEC))
        scene = tmp_path / "scene.json"
        scene.write_text(json.dumps(scene_to_document((a, b))))
        code = cli.main(["infer", "--spec", str(spec), "--scene", str(scene)])
        captured = capsys.readouterr()
        assert (code, captured.err) == (0, "")
        assert json.loads(captured.out)["beliefs"]["touching"] == {"holds": 0.0, "holds_not": 1.0}

    # the frame's hole leaves a 3 px gap around the solid square it encloses
    @pytest.mark.parametrize("a, b, tau, want", [
        pytest.param(square_region("a", 0, 0, 300), square_region("b", 150, 150, 300),
                     2.0, "holds", id="overlapping-squares"),
        pytest.param(square_region("a", 0, 0, 300), square_region("b", -13, -13, 326, hole=304),
                     3.5, "holds", id="frame-at-gap-3-within"),
        pytest.param(square_region("a", 0, 0, 300), square_region("b", -13, -13, 326, hole=304),
                     2.5, "holds_not", id="frame-at-gap-3-beyond"),
        pytest.param(square_region("a", 0, 0, 300), square_region("b", 100, 100, 150),
                     1.0, "holds", id="square-inside-square"),
    ])
    def test_large_masks_with_overlapping_bboxes_stay_small(self, a, b, tau, want):
        tracemalloc.start()
        try:
            got = (eval_relation("adjacent", a, b, tau=tau), eval_relation("adjacent", b, a, tau=tau))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert got == (want, want)
        assert peak < 16 * 2**20


def triangle_pair(n, crack):
    """Two right triangles in one n x n box, across a diagonal crack ``crack``
    pixel diagonals wide: their bboxes overlap almost entirely, their masks
    never do, and their closest pixels lie on the crack."""
    ys, xs = np.mgrid[0:n, 0:n]
    lower = xs + ys <= n - 1
    upper = (xs + ys >= n - 1 + crack)[crack:, crack:]
    return (Region("a", "dark", (n / 3, n / 3), int(lower.sum()), (0, 0, n - 1, n - 1),
                   mask=lower),
            Region("b", "bright", (2 * n / 3, 2 * n / 3), int(upper.sum()),
                   (crack, crack, n - 1, n - 1), mask=upper))


class TestAdjacencyEdges:
    @pytest.mark.parametrize("tau, want", [(4.0, "holds_not"), (math.sqrt(18), "holds")])
    def test_disjoint_masks_compare_only_their_edges(self, monkeypatch, tau, want):
        n = 60
        a, b = triangle_pair(n, 6)
        assert dense_min_distance(a, b) == math.sqrt(18)
        compared = []
        real = Region.pixels

        def counted(self, *args, **kwargs):
            out = real(self, *args, **kwargs)
            if kwargs.get("edge"):
                compared.append(len(out))
            return out

        monkeypatch.setattr(Region, "pixels", counted)
        assert eval_relation("adjacent", a, b, tau=tau) == want
        assert eval_relation("adjacent", b, a, tau=tau) == want
        # each triangle's edge is its two legs and the crack's staircase
        assert len(compared) == 4 and max(compared) <= 3 * n

    def test_edge_pixels_of_a_solid_square_are_its_border(self):
        edge = square_region("a", 0, 0, 5).pixels(edge=True)
        assert np.array_equal(edge, ring_region().pixels())
        # the window's own border counts as edge: the crop is all that is compared
        assert len(square_region("a", 0, 0, 5).pixels((0, 0, 2, 4), edge=True)) == 3 * 5 - 3


class TestRelationalize:
    def test_diverticulum_scene(self):
        spec = builtin_model("diverticulum").model
        scene = generate_stream("surround_scene", 1).frames[0].regions
        net, ev = relationalize(spec, scene)
        assert ev.assignments == {"bright_region": "present", "dark_region": "present",
                                  "topo_relation": "holds"}
        assert net.children["diverticulum"] == ("bright_region", "dark_region", "topo_relation")

    def test_unmatched_input_leaves_relation_unobserved(self):
        spec = builtin_model("diverticulum").model
        scene = (ring_region(),)  # bright only
        _, ev = relationalize(spec, scene)
        assert ev.assignments == {"bright_region": "present", "dark_region": "absent"}

    def test_bend_scene_lands_in_the_near_bin(self):
        spec = builtin_model("bend").model
        scene = generate_stream("adjacent_scene", 1).frames[0].regions
        _, ev = relationalize(spec, scene)
        assert ev.assignments["distance_relation"] == "near"

    def test_binding_prefers_largest_area_then_lowest_id(self):
        small = pixel_region("z", 0, 0)
        big = Region("a", "dark", (5.0, 5.0), 9, (4, 4, 6, 6))
        assert select_region({"colour_class": "dark"}, (small, big)).id == "a"
        other = Region("b", "dark", (9.0, 9.0), 9, (8, 8, 10, 10))
        assert select_region({"colour_class": "dark"}, (other, big)).id == "a"

    def test_colour_disjunction_predicate(self):
        pred = {"colour_class": ("yellow", "green", "brown")}
        assert select_region(pred, (pixel_region("y", 0, 0, "green"),)).id == "y"
        assert select_region(pred, (pixel_region("d", 0, 0, "dark"),)) is None

    def test_bind_features_returns_every_bound_node(self):
        spec = builtin_model("bend").model
        bound = bind_features(spec, ())
        assert bound == {"dark_region": None, "bright_arc": None}

    def test_transform_equals_conditioning(self):
        rng = random.Random(31)
        for name in ("diverticulum", "bend"):
            spec = builtin_model(name).model
            for _ in range(15):
                regions = tuple(random_region(rng, f"r{i}") for i in range(rng.randint(0, 4)))
                net, ev = relationalize(spec, regions)
                inet = apply_evidence(net, ev)
                fast = propagate(inet)
                slow = brute_force_beliefs(inet)
                diff = np.abs(fast.distribution(spec.root) - slow.distribution(spec.root)).max()
                assert diff < 1e-12

    def test_diagnostics(self):
        base = builtin_model("diverticulum").model

        def mutate(**changes):
            nodes = []
            for n in base.nodes:
                if n.id == "topo_relation":
                    kwargs = dict(id=n.id, kind=n.kind, states=n.states, parents=n.parents,
                                  rows=n.rows, evaluator=n.evaluator, inputs=n.inputs,
                                  params=n.params)
                    kwargs.update(changes)
                    n = NodeSpec(**kwargs)
                nodes.append(n)
            return NetworkSpec(base.root, tuple(nodes), base.bind)

        assert any("unknown evaluator 'above'" in d
                   for d in relational_diagnostics(mutate(evaluator="above")))
        assert any("expected 2 inputs" in d
                   for d in relational_diagnostics(mutate(inputs=("bright_region",))))
        assert any("not a feature (leaf) node" in d
                   for d in relational_diagnostics(mutate(inputs=("bright_region", "diverticulum"))))
        assert any("states must be {holds, holds_not}" in d
                   for d in relational_diagnostics(mutate(states=("yes", "no"))))
        assert any("strictly positive" in d
                   for d in relational_diagnostics(mutate(params={"tau": -1})))
        assert any("missing evaluator" in d
                   for d in relational_diagnostics(mutate(evaluator=None)))

        bad_bind = NetworkSpec(base.root, base.nodes,
                               {"bright_region": {"colour_class": "maroon"}})
        assert any("unknown colour class 'maroon'" in d for d in relational_diagnostics(bad_bind))
        bad_attr = NetworkSpec(base.root, base.nodes, {"bright_region": {"size": "big"}})
        assert any("unknown predicate attribute" in d for d in relational_diagnostics(bad_attr))

    def test_static_inputs_need_equal_predicates(self):
        def spec(bind):
            rows = ((0.8, 0.2), (0.3, 0.7))
            return NetworkSpec("h", (
                NodeSpec("h", "chance", ("t", "f"), (), ((0.5, 0.5),)),
                NodeSpec("d", "chance", ("present", "absent"), ("h",), rows),
                NodeSpec("b", "chance", ("present", "absent"), ("h",), rows),
                NodeSpec("s", "relation", ("holds", "holds_not"), ("h",), rows,
                         evaluator="static", inputs=("d", "b")),
            ), bind)

        dark, bright = {"colour_class": "dark"}, {"colour_class": "bright"}
        assert relational_diagnostics(spec({"d": dark, "b": bright})) == [
            "relation node s: static inputs 'd' and 'b' are bound by different predicates"]
        assert relational_diagnostics(spec({"d": dark, "b": dict(dark)})) == []
        assert relational_diagnostics(spec({"d": dark})) == []
        # predicates admitting the same colour classes bind the same region
        assert relational_diagnostics(spec({"d": dark, "b": {"colour_class": ["dark"]}})) == []
        either = {"colour_class": ["dark", "bright"]}
        assert relational_diagnostics(spec({"d": either, "b": {"colour_class": ["bright", "dark"]}})) == []
        assert relational_diagnostics(spec({"d": either, "b": dark})) == [
            "relation node s: static inputs 'd' and 'b' are bound by different predicates"]

    def test_relationalize_rejects_invalid_spec(self):
        base = builtin_model("diverticulum").model
        bad = NetworkSpec(base.root, base.nodes, {"bright_region": {"colour_class": "maroon"}})
        with pytest.raises(InvalidNetworkError):
            relationalize(bad, ())
