"""Shared generators and independent oracles for the test suite.

The oracles here are deliberately primitive (itertools enumeration, loop
arithmetic) and never call the code paths they are used to verify.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from beliefscope.network import EvidenceSet, NetworkSpec, NodeSpec
from beliefscope.relational import Region
from beliefscope.temporal import DynamicModel, Frame


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


def dense_min_distance(a: Region, b: Region) -> float:
    """Minimum distance between two masked regions over every pixel pair at
    once: the dense |A| x |B| formula, memory quadratic in the mask areas."""
    def pixels(r):
        ys, xs = np.nonzero(r.mask)
        return np.stack([xs + r.bbox[0], ys + r.bbox[1]], axis=1).astype(float)

    pa, pb = pixels(a), pixels(b)
    d2 = ((pa[:, None, :] - pb[None, :, :]) ** 2).sum(axis=-1)
    return float(np.sqrt(d2.min()))


# ---------------------------------------------------------------------------
# temporal oracles


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
