"""Shared generators and independent oracles for the test suite.

The oracles here are deliberately primitive (itertools enumeration, loop
arithmetic) and never call the code paths they are used to verify.
"""

from __future__ import annotations

import copy
import itertools
import json
import math
import sys
from fractions import Fraction

import numpy as np

from beliefscope import network
from beliefscope.errors import (
    InvalidNetworkError,
    SpecSyntaxError,
    StreamValidationError,
)
from beliefscope.models import DynamicModel
from beliefscope.network import (
    EvidenceSet,
    Network,
    NetworkSpec,
    Node,
    NodeSpec,
    finite_number,
    load_json,
    network_diagnostics,
    strict_int,
)
from beliefscope.relational import Region
from beliefscope.temporal import Frame, FrameStream


def normalized(rng, k, p_zero=0.0):
    """A random distribution over k states, entries >= 0.05 before normalising.

    With ``p_zero`` > 0 each entry is zeroed with that probability, keeping at
    least one positive entry; with the default no extra draws are made.
    """
    row = [rng.random() + 0.05 for _ in range(k)]
    if p_zero > 0.0:
        keep = rng.randrange(k)
        row = [0.0 if j != keep and rng.random() < p_zero else v for j, v in enumerate(row)]
    s = sum(row)
    return tuple(v / s for v in row)


def random_tree_spec(rng, n_nodes, max_states=4, p_zero=0.0):
    """A random tree; ``p_zero`` > 0 puts structural zeros into priors and CPT rows."""
    names = [f"n{i}" for i in range(n_nodes)]
    sizes = [rng.randint(2, max_states) for _ in range(n_nodes)]
    nodes = []
    for i, name in enumerate(names):
        states = tuple(f"s{j}" for j in range(sizes[i]))
        if i == 0:
            nodes.append(NodeSpec(name, "chance", states, (), (normalized(rng, sizes[i], p_zero),)))
        else:
            parent = rng.randrange(i)
            rows = tuple(normalized(rng, sizes[i], p_zero) for _ in range(sizes[parent]))
            nodes.append(NodeSpec(name, "chance", states, (names[parent],), rows))
    return NetworkSpec("n0", tuple(nodes))


def random_evidence(rng, spec, p_observe=0.4):
    assignments = {}
    for node in spec.nodes:
        if rng.random() < p_observe:
            assignments[node.id] = rng.choice(node.states)
    return EvidenceSet(assignments)


def loop_enumerate(spec: NetworkSpec, evidence: EvidenceSet):
    """Assignment-by-assignment enumeration over a spec's raw rows.

    Returns {node id: [probability, ...]} in declared state order.  Slow and
    dumb on purpose; only for tiny networks.
    """
    nodes = list(spec.nodes)
    index = {n.id: i for i, n in enumerate(nodes)}
    totals = {n.id: [0.0] * len(n.states) for n in nodes}
    choices = []
    for n in nodes:
        if n.id in evidence.assignments:
            choices.append([n.states.index(evidence.assignments[n.id])])
        else:
            choices.append(list(range(len(n.states))))
    for assign in itertools.product(*choices):
        p = 1.0
        for n, si in zip(nodes, assign):
            row = 0 if not n.parents else assign[index[n.parents[0]]]
            p *= n.rows[row][si]
        for n, si in zip(nodes, assign):
            totals[n.id][si] += p
    out = {}
    for nid, vec in totals.items():
        s = sum(vec)
        out[nid] = [v / s for v in vec]
    return out


def per_evidence_enumeration(net: Network, observed) -> dict[str, np.ndarray] | None:
    """Every node's marginals for one evidence set, {node id: vector} in
    ``net.nodes`` order, or None when the evidence has no joint mass: one
    dense table of CPT-entry products built for this evidence alone, in node
    order, each observed node then clamped by an indicator factor."""
    sizes = [len(n.states) for n in net.nodes]
    axis = {n.id: i for i, n in enumerate(net.nodes)}
    joint = np.ones(sizes)
    for n in net.nodes:
        shape = [1] * len(sizes)
        shape[axis[n.id]] = len(n.states)
        cpt = np.array(n.cpt)
        if n.parent is None:
            joint = joint * cpt[0].reshape(shape)
        else:
            pa = axis[n.parent]
            shape[pa] = len(net.node(n.parent).states)
            table = cpt if pa < axis[n.id] else cpt.T
            joint = joint * table.reshape(shape)
    for nid, label in observed.items():
        node = net.node(nid)
        ind = np.zeros(len(node.states))
        ind[node.states.index(label)] = 1.0
        shape = [1] * len(sizes)
        shape[axis[nid]] = len(node.states)
        joint = joint * ind.reshape(shape)
    if joint.sum() <= 0.0:
        return None
    marginals = {}
    for n in net.nodes:
        m = joint.sum(axis=tuple(i for i in range(len(sizes)) if i != axis[n.id]))
        marginals[n.id] = m / m.sum()
    return marginals


def exact_beliefs(net: Network, assignments) -> dict[str, list[Fraction]] | None:
    """Every node's posterior marginals in breadth-first order, in exact rational
    arithmetic over the network's renormalised CPT rows, or None when the evidence has
    probability zero: the sum-product recursion on the tree, unnormalised until each
    marginal is formed, with no log domain, no scaling and no order of summation."""
    cpt = {n.id: [[Fraction(v) for v in row] for row in n.cpt] for n in net.nodes}
    own = {n.id: [Fraction(assignments.get(n.id, s) == s) for s in n.states] for n in net.nodes}
    order = [net.root]
    for nid in order:
        order.extend(net.children[nid])
    lam, message = {}, {}
    for nid in reversed(order):
        lam[nid] = own[nid]
        for child in net.children[nid]:
            lam[nid] = [v * m for v, m in zip(lam[nid], message[child])]
        message[nid] = [sum(p * v for p, v in zip(row, lam[nid])) for row in cpt[nid]]
    pi = {net.root: cpt[net.root][0]}
    marginals = {}
    for nid in order:
        belief = [p * v for p, v in zip(pi[nid], lam[nid])]
        total = sum(belief)
        if total == 0:
            return None
        marginals[nid] = [b / total for b in belief]
        for child in net.children[nid]:
            to_child = [p * e for p, e in zip(pi[nid], own[nid])]
            for sibling in net.children[nid]:
                if sibling != child:
                    to_child = [v * m for v, m in zip(to_child, message[sibling])]
            pi[child] = [sum(v * row[j] for v, row in zip(to_child, cpt[child]))
                         for j in range(len(cpt[child][0]))]
    return marginals


def first_vanished(spec: NetworkSpec, assignments) -> str | None:
    """The first node, in reversed breadth-first order, where the evidence in
    its subtree has probability zero under each of its states, or whose
    message to its parent is zero under each parent state; None when no node
    is.  Unnormalised loop arithmetic over the spec's raw rows."""
    children: dict[str, list[str]] = {n.id: [] for n in spec.nodes}
    for n in spec.nodes:
        if n.parents:
            children[n.parents[0]].append(n.id)
    order = [spec.root]
    for nid in order:
        order.extend(children[nid])
    message = {}
    for nid in reversed(order):
        node = spec.node(nid)
        subtree = [1.0 if assignments.get(nid, s) == s else 0.0 for s in node.states]
        for c in children[nid]:
            subtree = [v * m for v, m in zip(subtree, message[c])]
        if not any(subtree):
            return nid
        if node.parents:
            message[nid] = [sum(p * v for p, v in zip(row, subtree)) for row in node.rows]
            if not any(message[nid]):
                return nid
    return None


def star_posterior(prior, rows, observed):
    """Closed-form hub log-posterior of a star whose children are all observed.

    ``rows[c]`` is child c's CPT (one row per hub state) and ``observed[c]``
    the index of its observed state; the prior and observed entries must be
    positive.  Sums log-likelihoods with math.fsum, so
    it reaches fan-in far beyond what enumeration can hold.  Returns the list
    of log P(hub state | evidence).
    """
    log_joint = []
    for h, p in enumerate(prior):
        terms = [math.log(p)] + [math.log(cpt[h][s]) for cpt, s in zip(rows, observed)]
        log_joint.append(math.fsum(terms))
    top = max(log_joint)
    log_evidence = top + math.log(math.fsum(math.exp(v - top) for v in log_joint))
    return [v - log_evidence for v in log_joint]


def mask_grid(r: Region) -> np.ndarray:
    """r's int mask as its numpy bool grid, indexed [y - ymin, x - xmin]: bit
    ``(y - ymin) * w + (x - xmin)`` read off the int's binary digits."""
    xmin, ymin, xmax, ymax = r.bbox
    h, w = ymax - ymin + 1, xmax - xmin + 1
    digits = format(r.mask, "b").zfill(h * w)[::-1]
    return (np.frombuffer(digits.encode(), dtype=np.uint8) == ord("1")).reshape(h, w)


def mask_pixels(r: Region) -> set[tuple[int, int]]:
    """The absolute (x, y) of r's set mask pixels."""
    ys, xs = np.nonzero(mask_grid(r))
    return set(zip((xs + r.bbox[0]).tolist(), (ys + r.bbox[1]).tolist()))


def dense_min_distance(a: Region, b: Region) -> float:
    """Minimum distance between two masked regions over every pixel pair at
    once: the dense |A| x |B| formula, memory quadratic in the mask areas."""
    def pixels(r):
        ys, xs = np.nonzero(mask_grid(r))
        return np.stack([xs + r.bbox[0], ys + r.bbox[1]], axis=1).astype(float)

    pa, pb = pixels(a), pixels(b)
    d2 = ((pa[:, None, :] - pb[None, :, :]) ** 2).sum(axis=-1)
    return float(np.sqrt(d2.min()))


# The mask evaluators on numpy bool grids (crops, pixel tables, edge pixels in
# blocks): the references the int bitset evaluators of ``relational`` must agree with.


def _reference_crop(r: Region, window):
    """r's grid inside ``window`` (inclusive bounds, like ``bbox``; all of it
    without one) and the absolute (x, y) of the crop's first pixel; an empty
    crop when the window misses the bbox."""
    grid = mask_grid(r)
    x0, y0, xx, yx = r.bbox
    xn, yn = x0, y0
    if window is not None:
        xn, yn = max(xn, window[0]), max(yn, window[1])
        xx, yx = min(xx, window[2]), min(yx, window[3])
        if xn > xx or yn > yx:
            return grid[:0, :0], xn, yn
    return grid[yn - y0: yx - y0 + 1, xn - x0: xx - x0 + 1], xn, yn


def _reference_pixels(r: Region, window=None, edge=False) -> np.ndarray:
    """Absolute (x, y) of the set pixels in the crop, as floats; with ``edge``
    only those with a 4-neighbour outside the (cropped) mask."""
    mask, xn, yn = _reference_crop(r, window)
    if edge:
        inner = np.zeros_like(mask)
        inner[1:-1, 1:-1] = (mask[1:-1, 1:-1] & mask[:-2, 1:-1] & mask[2:, 1:-1]
                             & mask[1:-1, :-2] & mask[1:-1, 2:])
        mask = mask & ~inner
    ys, xs = np.nonzero(mask)
    return np.stack([xs + xn, ys + yn], axis=1).astype(float)


def reference_masks_overlap(a: Region, b: Region) -> bool:
    axn, ayn, axx, ayx = a.bbox
    bxn, byn, bxx, byx = b.bbox
    xn, xx = max(axn, bxn), min(axx, bxx)
    yn, yx = max(ayn, byn), min(ayx, byx)
    if xn > xx or yn > yx:
        return False
    sa = mask_grid(a)[yn - ayn: yx - ayn + 1, xn - axn: xx - axn + 1]
    sb = mask_grid(b)[yn - byn: yx - byn + 1, xn - bxn: xx - bxn + 1]
    return bool((sa & sb).any())


def reference_four_rays_hit(a: Region, b: Region) -> bool:
    axn, ayn, axx, ayx = a.bbox
    px, py = int(round(b.centroid[0])), int(round(b.centroid[1]))
    if not (axn <= px <= axx and ayn <= py <= ayx):
        return False
    grid = mask_grid(a)
    row, col = grid[py - ayn], grid[:, px - axn]
    return bool(row[: px - axn + 1].any() and row[px - axn:].any()
                and col[: py - ayn + 1].any() and col[py - ayn:].any())


def reference_within(a: Region, b: Region, tau: float, block: int = 256) -> bool:
    """The minimum inter-mask distance <= tau, as numpy decided it: the masks
    cropped to each other's bbox grown by floor(tau), then one table of
    squared distances when the crops make at most ``block``² pairs, else the
    overlap test and the edge pixels compared ``block`` by ``block``."""
    (axn, ayn, axx, ayx), (bxn, byn, bxx, byx) = a.bbox, b.bbox
    gap = math.hypot(max(0, bxn - axx, axn - bxx), max(0, byn - ayx, ayn - byx))
    if gap > tau or a.mask is None or b.mask is None:
        return gap <= tau
    r = math.floor(tau)
    near_b = (b.bbox[0] - r, b.bbox[1] - r, b.bbox[2] + r, b.bbox[3] + r)
    near_a = (a.bbox[0] - r, a.bbox[1] - r, a.bbox[2] + r, a.bbox[3] + r)
    (crop_a, xa, ya), (crop_b, xb, yb) = _reference_crop(a, near_b), _reference_crop(b, near_a)
    (ys_a, xs_a), (ys_b, xs_b) = np.nonzero(crop_a), np.nonzero(crop_b)
    pairs = len(xs_a) * len(xs_b)
    if not pairs:
        return False
    if pairs <= block ** 2:
        dx = np.subtract.outer(np.add(xs_a, xa, dtype=float), np.add(xs_b, xb, dtype=float))
        dy = np.subtract.outer(np.add(ys_a, ya, dtype=float), np.add(ys_b, yb, dtype=float))
        return math.sqrt((dx * dx + dy * dy).min()) <= tau
    if reference_masks_overlap(a, b):
        return True
    pa, pb = _reference_pixels(a, near_b, edge=True), _reference_pixels(b, near_a, edge=True)
    for i in range(0, len(pa), block):
        for j in range(0, len(pb), block):
            d2 = ((pa[i:i + block, None, :] - pb[None, j:j + block, :]) ** 2).sum(axis=-1)
            if math.sqrt(d2.min()) <= tau:
                return True
    return False


def per_field_region(obj) -> Region:
    """A region document decoded field by field, one checking call per value,
    as ``region_from_document`` did before its inline checks: the reference
    they must agree with.  It takes any integer area or bbox entry and any
    mask numpy reads as a bool grid; the other fields are checked before the
    mask, and a mask numpy cannot read as an array names its region and the
    bbox's grid."""
    if not isinstance(obj, dict):
        raise SpecSyntaxError("region entries must be objects")
    for key in obj:
        if key not in ("id", "colour_class", "centroid", "area", "bbox", "mask"):
            raise SpecSyntaxError(f"region: unknown field '{key}'")
    try:
        if not isinstance(obj["id"], str):
            raise SpecSyntaxError("region: 'id' must be a string")
        fields = dict(
            id=obj["id"],
            colour_class=obj["colour_class"],
            centroid=(finite_number(obj["centroid"][0], "region: 'centroid'"),
                      finite_number(obj["centroid"][1], "region: 'centroid'")),
            area=strict_int(obj["area"], "region: 'area'"),
            bbox=tuple(strict_int(v, "region: 'bbox' entry") for v in obj["bbox"]),
        )
        region = Region(**fields)
        if obj.get("mask") is None:
            return region
        try:
            mask = np.asarray(obj["mask"], dtype=bool)
        except ValueError:
            xmin, ymin, xmax, ymax = region.bbox
            raise SpecSyntaxError(f"region '{region.id}': mask is not a grid of "
                                  f"{ymax - ymin + 1} rows of {xmax - xmin + 1} entries") from None
        return Region(**fields, mask=mask)
    except (KeyError, TypeError, IndexError) as exc:
        raise SpecSyntaxError(f"malformed region entry: {exc}") from None
    except ValueError as exc:
        raise SpecSyntaxError(str(exc)) from None


def reference_region(obj) -> Region:
    """:func:`per_field_region` plus the integer range and 0/1 mask rules,
    each checked on its own: region documents as streams and scenes decoded
    them before the column passes."""
    region = per_field_region(obj)
    if region.area > 2**53:
        raise SpecSyntaxError(f"region '{region.id}': 'area' must be an integer in [-2**53, 2**53]")
    if not all(-2**53 <= v <= 2**53 for v in region.bbox):
        raise SpecSyntaxError(f"region '{region.id}': 'bbox' entries must be integers in [-2**53, 2**53]")
    if region.mask is not None and not all(
            type(v) is int and v in (0, 1) for row in obj["mask"] for v in row):
        raise SpecSyntaxError(f"region '{region.id}': mask entries must be 0 or 1")
    return region


def reference_parse_stream(text: str) -> FrameStream:
    """A JSONL stream parsed line by line and region by region, every line
    decoded by ``load_json`` and every frame built eagerly: ``parse_stream``
    as it was before its column passes, except that lines end at "\n" only
    and every error without a position of its own (a repeated key, a NaN or
    Infinity token, the header's) names its line."""
    lines = ((lineno, line) for lineno, line in enumerate(text.split("\n"), start=1)
             if line.strip())
    first = next(lines, None)
    if first is None:
        raise SpecSyntaxError("empty stream document")
    header = _reference_line_json(*first)
    where = f"stream line {first[0]}: "
    if not (isinstance(header, dict) and set(header) == {"dt"}):
        raise SpecSyntaxError(where + 'stream header must be {"dt": ...}')
    dt = finite_number(header["dt"], where + "stream header 'dt'")
    frames = []
    for lineno, line in lines:
        obj = _reference_line_json(lineno, line)
        if not (isinstance(obj, dict) and set(obj) <= {"index", "t", "regions"}
                and {"index", "t"} <= set(obj)):
            raise SpecSyntaxError(f"stream line {lineno}: expected index, t, regions")
        index = strict_int(obj["index"], f"stream line {lineno}: 'index'")
        t = finite_number(obj["t"], f"stream line {lineno}: 't'")
        regions = obj.get("regions", [])
        if not isinstance(regions, list):
            raise SpecSyntaxError(f"stream line {lineno}: 'regions' must be a list")
        try:
            frame_regions = tuple(map(reference_region, regions))
        except SpecSyntaxError as exc:
            raise SpecSyntaxError(f"stream line {lineno}: {exc}") from None
        try:
            frames.append(Frame(index, t, frame_regions))
        except StreamValidationError as exc:
            raise StreamValidationError(f"stream line {lineno}: {exc}") from None
    return FrameStream(tuple(frames), dt)


def _reference_line_json(lineno: int, line: str):
    """A stream line decoded by ``load_json``; an error the decoder cannot position
    names the line."""
    try:
        return load_json(line, line=lineno)
    except SpecSyntaxError as exc:
        if exc.line is not None:
            raise
        raise SpecSyntaxError(f"stream line {lineno}: {exc}") from None


def reference_load_json(text: str, line: int = 1):
    """``load_json`` as it was before its colon count: every object of the text
    goes through the duplicate-key hook."""
    try:
        return network._DECODER.decode(text)
    except json.JSONDecodeError as exc:
        raise SpecSyntaxError(exc.msg, line=exc.lineno + line - 1, column=exc.colno) from None


# ---------------------------------------------------------------------------
# network spec references


def reference_network_spec(doc) -> NetworkSpec:
    """``network_spec_from_document`` as it was before its column passes:
    every node entry through ``_parse_node``, the source of every message."""
    if not isinstance(doc, dict):
        raise SpecSyntaxError("network document must be a JSON object")
    for key in doc:
        if key not in ("root", "nodes", "bind"):
            raise SpecSyntaxError(f"document: unknown field '{key}'")
    if not isinstance(doc.get("root"), str):
        raise SpecSyntaxError("document: 'root' must be a node id")
    if not isinstance(doc.get("nodes"), list):
        raise SpecSyntaxError("document: 'nodes' must be a list")
    nodes = tuple(network._parse_node(obj) for obj in doc["nodes"])
    ids = set()
    for n in nodes:
        if n.id in ids:
            raise SpecSyntaxError(f"duplicate node id '{n.id}'")
        ids.add(n.id)
    for n in nodes:
        for p in n.parents:
            if p not in ids:
                raise SpecSyntaxError(f"node '{n.id}': undeclared parent '{p}'")
        for i in n.inputs:
            if i not in ids:
                raise SpecSyntaxError(f"node '{n.id}': undeclared input '{i}'")
    if doc["root"] not in ids:
        raise SpecSyntaxError(f"undeclared root '{doc['root']}'")
    return NetworkSpec(doc["root"], nodes, network._parse_bind(doc.get("bind", {}), ids))


def exact_sum(values) -> float:
    """The exact rational sum of ``values``, rounded once to the nearest float: what
    :func:`math.fsum` promises, computed without it."""
    return float(sum(map(Fraction, values)))


def reference_validate_network(spec: NetworkSpec) -> Network:
    """``validate_network`` as it was before its column passes and its cache: every
    diagnostic of the per-node loops, then each node's rows each divided by its
    :func:`exact_sum`, and kept as tuples of floats."""
    diags = network_diagnostics(spec)
    if diags:
        raise InvalidNetworkError(diags)
    nodes = []
    for n in spec.nodes:
        totals = map(exact_sum, n.rows)
        rows = tuple(tuple(v / total for v in row) for row, total in zip(n.rows, totals))
        nodes.append(Node(n.id, n.kind, n.states, n.parent, rows, n.evaluator, n.inputs, dict(n.params)))
    children: dict[str, list[str]] = {n.id: [] for n in nodes}
    for n in nodes:
        if n.parent is not None:
            children[n.parent].append(n.id)
    return Network(spec.root, tuple(nodes), {n.id: n for n in nodes},
                   {k: tuple(v) for k, v in children.items()})


def hex_rows(rows) -> list[list[str]]:
    """Rows of floats, each float as its exact hex text: compared bit for bit."""
    return [[float(v).hex() for v in row] for row in rows]


# ---------------------------------------------------------------------------
# temporal oracles


def all_pairs_matching(prev: Frame, cur: Frame, delta: float, area_ratio) -> dict[str, str]:
    """Greedy cross-frame matching over every pair of the two frames at once,
    colour classes mixed, as ``match_regions`` did before it matched each
    class on its own: sort all admissible (distance, prev id, cur id) and
    take each pair whose regions are both still free."""
    candidates = sorted(
        (math.hypot(p.centroid[0] - c.centroid[0], p.centroid[1] - c.centroid[1]), p.id, c.id)
        for p in prev.regions for c in cur.regions
        if p.colour_class == c.colour_class and area_ratio[0] <= c.area / p.area <= area_ratio[1])
    matched: dict[str, str] = {}
    for d, pid, cid in candidates:
        if d <= delta and pid not in matched and cid not in matched.values():
            matched[pid] = cid
    return matched


def eq3_step(prior, transition, prev, likelihood, mode="paper"):
    """One rollover step evaluated directly from the formula, loop arithmetic only.

    Returns (effective_prior, posterior) as plain lists.
    """
    k = len(prior)
    mixed = [sum(prev[j] * transition[j][i] for j in range(k)) for i in range(k)]
    eff = [prior[i] * mixed[i] for i in range(k)] if mode == "paper" else list(mixed)
    s = sum(eff)
    eff = [v / s for v in eff]
    post = [eff[i] * likelihood[i] for i in range(k)]
    s = sum(post)
    return eff, [v / s for v in post]


def exact_mixed_prior(prior, transition, prev, paper: bool) -> list[float] | None:
    """The semi-static effective prior, or None where it has no mass: per state, the
    :func:`exact_sum` of the previous posterior's products with the transition column,
    times the prior in paper mode, over its own :func:`exact_sum`."""
    mixed = [exact_sum([p * t for p, t in zip(prev, column)]) for column in zip(*transition)]
    eff = [p * m for p, m in zip(prior, mixed)] if paper else mixed
    total = exact_sum(eff)
    return [e / total for e in eff] if total > 0.0 else None


def exact_posterior(prior, lam) -> list[float] | None:
    """Prior times likelihood over its :func:`exact_sum`, or None where that has no mass
    or the likelihood is NaN."""
    bel = [p * q for p, q in zip(prior, lam)]
    if any(map(math.isnan, bel)):
        return None
    total = exact_sum(bel)
    return [b / total for b in bel] if total > 0.0 else None


def chain_model(rng, n_features=2):
    """Random binary-hypothesis per-frame net with colour-bound features.

    Returns (per-frame NetworkSpec, transition rows, feature colour order).
    """
    colours = rng.sample(["dark", "bright", "yellow", "green", "brown"], n_features)
    nodes = [NodeSpec("hyp", "chance", ("present", "absent"), (), (normalized(rng, 2),))]
    bind = {}
    for i, colour in enumerate(colours):
        fid = f"f{i}"
        nodes.append(NodeSpec(fid, "chance", ("present", "absent"), ("hyp",),
                              (normalized(rng, 2), normalized(rng, 2))))
        bind[fid] = {"colour_class": colour}
    spec = NetworkSpec("hyp", tuple(nodes), bind)
    transition = (normalized(rng, 2), normalized(rng, 2))
    return spec, transition, colours


def pattern_frames(rng, colours, n_frames, dt=0.04):
    """Frames carrying a 1-px region per present feature; returns (frames, pattern)."""
    frames = []
    pattern = []
    for i in range(n_frames):
        present = tuple(rng.random() < 0.6 for _ in colours)
        regions = []
        for j, (colour, on) in enumerate(zip(colours, present)):
            if on:
                regions.append(Region(id=f"r{j}", colour_class=colour,
                                      centroid=(10.0 * j, 0.0), area=1,
                                      bbox=(10 * j, 0, 10 * j, 0)))
        frames.append(Frame(i, round(i * dt, 6), tuple(regions)))
        pattern.append(present)
    return tuple(frames), pattern


def frame_likelihood(spec: NetworkSpec, present) -> list[float]:
    """P(frame evidence | hypothesis state), straight product over feature CPT rows."""
    feats = [n for n in spec.nodes if n.id != spec.root]
    k = len(spec.node(spec.root).states)
    like = []
    for h in range(k):
        p = 1.0
        for n, on in zip(feats, present):
            p *= n.rows[h][0] if on else n.rows[h][1]
        like.append(p)
    return like


def unrolled_chain_spec(spec: NetworkSpec, transition, pattern):
    """The fully unrolled K-frame network for a chain model, plus its evidence.

    Built with straight-line code on purpose: this is the enumeration route of
    the filtering-exactness check and must not share construction logic with
    the recursive filter.
    """
    hyp = spec.node(spec.root)
    feats = [n for n in spec.nodes if n.id != spec.root]
    nodes = []
    assignments = {}
    for t in range(len(pattern)):
        hid = f"hyp_t{t}"
        if t == 0:
            nodes.append(NodeSpec(hid, "chance", hyp.states, (), hyp.rows))
        else:
            rows = tuple(tuple(float(v) for v in row) for row in transition)
            nodes.append(NodeSpec(hid, "chance", hyp.states, (f"hyp_t{t - 1}",), rows))
        for j, f in enumerate(feats):
            fid = f"{f.id}_t{t}"
            nodes.append(NodeSpec(fid, "chance", f.states, (hid,), f.rows))
            assignments[fid] = "present" if pattern[t][j] else "absent"
    return NetworkSpec("hyp_t0", tuple(nodes)), EvidenceSet(assignments)


# ---------------------------------------------------------------------------
# structure fingerprints and random scenes


def _colours_of(pred):
    if pred is None:
        return None
    value = pred.get("colour_class")
    if isinstance(value, (list, tuple)):
        return tuple(sorted(value))
    return (value,)


def structure_key(model):
    """Canonical structural form: node kinds, states, edges and bound colours,
    with node ids erased."""
    if isinstance(model, DynamicModel):
        return ("dynamic", tuple(model.hypothesis_states),
                _colours_of(model.predicate), model.relation_evaluator)
    children: dict[str, list[str]] = {}
    for n in model.nodes:
        if n.parent:
            children.setdefault(n.parent, []).append(n.id)

    def key(nid):
        n = model.node(nid)
        inputs = tuple(sorted(key(i) for i in n.inputs)) if n.inputs else ()
        kids = tuple(sorted(key(c) for c in children.get(nid, ())))
        return (n.kind, tuple(n.states), n.evaluator, _colours_of(model.bind.get(nid)),
                inputs, kids)

    return ("network", key(model.root))


def random_region(rng, rid, colour=None, origin=(0, 0), size=6, with_mask=True):
    """A consistent random region: mask trimmed to its extent, centroid at the
    pixel mean."""
    colour = colour or rng.choice(["dark", "bright", "yellow", "green", "brown", "other"])
    w = rng.randint(1, size)
    h = rng.randint(1, size)
    mask = np.zeros((h, w), dtype=bool)
    for _ in range(rng.randint(1, w * h)):
        mask[rng.randrange(h), rng.randrange(w)] = True
    ys, xs = np.nonzero(mask)
    mask = mask[ys.min(): ys.max() + 1, xs.min(): xs.max() + 1]
    x0 = origin[0] + rng.randint(0, 10)
    y0 = origin[1] + rng.randint(0, 10)
    ys, xs = np.nonzero(mask)
    centroid = (float(xs.mean()) + x0, float(ys.mean()) + y0)
    bbox = (x0, y0, x0 + mask.shape[1] - 1, y0 + mask.shape[0] - 1)
    area = int(mask.sum())
    return Region(id=rid, colour_class=colour, centroid=centroid, area=area,
                  bbox=bbox, mask=mask if with_mask else None)


#: JSON values a mutated document may hold: signs, zeros, huge and inexact integers,
#: wrong types and empty containers; all small to decode and to act on
FUZZ_VALUES = [-1, 0, 1, 0.5, 1e308, 10**30, 2**53 + 1, -0.0, "x", "", [], {}, [[0.5]], None, True]


def mutated(doc, rng):
    """A copy of ``doc`` with one or two of its values replaced by a FUZZ_VALUES value,
    or its key deleted."""
    doc = copy.deepcopy(doc)
    for _ in range(rng.randint(1, 2)):
        places = []

        def walk(value):
            items = value.items() if isinstance(value, dict) else enumerate(value)
            for key, child in items:
                places.append((value, key))
                if isinstance(child, (dict, list)):
                    walk(child)

        walk(doc)
        if not places:
            break
        container, key = rng.choice(places)
        if isinstance(container, dict) and rng.random() < 0.2:
            del container[key]
        else:
            container[key] = copy.deepcopy(rng.choice(FUZZ_VALUES))
    return doc


def counted_diagnostics(monkeypatch) -> list:
    """The specs every later ``network_diagnostics`` call checks, however it is reached."""
    calls, real = [], network.network_diagnostics

    def counted(spec):
        calls.append(spec)
        return real(spec)

    for module in list(sys.modules.values()):
        if module.__name__.startswith("beliefscope") and \
                getattr(module, "network_diagnostics", None) is real:
            monkeypatch.setattr(module, "network_diagnostics", counted)
    return calls


def read_whole_stream(path: str) -> str:
    """A whole stream input as text, as ``track`` and ``check`` read it: a file
    as UTF-8, stdin in its own encoding, and on both a "\r\n" read as "\n"
    while a lone "\r" stays."""
    if path == "-":
        text = sys.stdin.read()
    else:
        with open(path, encoding="utf-8", newline="") as fh:
            text = fh.read()
    return text.replace("\r\n", "\n")


def whole_stream_command(args) -> int:
    """``track`` or ``check`` as they ran before a stream was read a chunk at a
    time: the whole input read (:func:`read_whole_stream`) and parsed
    (:func:`reference_parse_stream`) before anything is evaluated, every frame
    evaluated as one batch (``filter_chunks``, ``dynamic_chunks`` over one chunk), the whole
    output made before it is written, and ``check``'s distinct rows compared
    over the whole stream at once.  Errors therefore come in that order: the
    stream's own, then evaluation, then the kernels'."""
    from beliefscope import cli
    from beliefscope.endoscopy import generate_stream
    from beliefscope.propagation import downward, observation_codes, sig10
    from beliefscope.relational import relation_evidence
    from beliefscope.models import TemporalModel
    from beliefscope.temporal import bind_frame, dynamic_chunks, filter_chunks
    from beliefscope.witness import marginals

    model = cli._load_model(args)
    stream = (generate_stream(args.scenario, args.frames, seed=args.seed)
              if args.scenario is not None else reference_parse_stream(read_whole_stream(args.stream)))
    semi_static = isinstance(model, TemporalModel)
    if semi_static:
        net, codes, trace = next(filter_chunks(cli._with_mode(model, args.mode), [stream.frames],
                                               tau=args.tau, epsilon=args.epsilon))
        spec = model.per_frame  # every frame's rows on the per-frame tree with a flat prior
        net = network._build_network(spec.with_root_prior([1.0] * len(spec.node(spec.root).states)))
    elif isinstance(model, DynamicModel):
        net, codes, trace = next(dynamic_chunks(model, [stream.frames], args.window, tau=args.tau,
                                                epsilon=args.epsilon, delta=args.delta))
    elif args.command == "track":
        print("track requires a temporal or dynamic model; use infer for single scenes",
              file=sys.stderr)
        return 2
    else:
        net = network.validate_network(model)
        codes, trace = observation_codes(net, [
            relation_evidence(model, bind_frame(model, frame), tau=args.tau, epsilon=args.epsilon)
            for frame in stream.frames]), None
    if args.command == "track":
        sys.stdout.write(trace.to_jsonl())
        return 0
    roots, worst = {}, 0.0
    for row in codes:  # each distinct row once, propagate before the witness
        if row in roots:
            continue
        fast, slow = downward(net, row), marginals(net, row)
        worst = max([worst] + [abs(a - b) for nid in slow for a, b in zip(fast[nid], slow[nid])])
        roots[row] = slow[net.root]
    for belief, row in zip(trace.frames if trace is not None else (), codes):
        root = roots[row]
        if semi_static:  # the printed effective prior times the frame's likelihood
            bel = [p * q for p, q in zip(belief.effective_prior, root)]
            total = sum(bel)
            root = [b / total for b in bel] if total else [math.inf] * len(bel)
        worst = max([worst] + [abs(a - b) for a, b in zip(belief.posterior, root)])
    sys.stdout.write(f"max |propagate - enumeration| = {sig10(worst):.10g} "
                     f"over {len(codes)} network(s)\n")
    if worst >= cli.ORACLE_TOLERANCE:
        print(f"oracle mismatch: {worst:.3e} >= {cli.ORACLE_TOLERANCE:.0e}", file=sys.stderr)
        return 4
    return 0
