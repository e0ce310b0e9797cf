"""Closed-form posteriors for the benchmark's planted inputs, and output checks.

Each workload's tree is a star or a two-level tree under the hypothesis, so
its posterior has a closed form over the planted evidence.  Everything is
computed in log space with plain Python floats, from the model's CPT rows
(renormalised as the program renormalises them on load), and never through
the program's ``propagate`` or ``relationalize``.

Each ``check_*`` function takes the program's output text and returns ``None``
when it agrees with the oracle, or a one-line reason when it does not.
"""

from __future__ import annotations

import json
import math
import re

TOLERANCE = 1e-9


def sig10(x: float) -> float:
    return float(f"{x:.10g}")


def _norm(row) -> list[float]:
    s = sum(row)
    return [v / s for v in row]


def _logsumexp(xs) -> float:
    m = max(xs)
    return m + math.log(sum(math.exp(x - m) for x in xs))


def _normalise_log(logs) -> list[float]:
    z = _logsumexp(logs)
    return [math.exp(v - z) for v in logs]


def _close(got: dict, states, want) -> bool:
    return (isinstance(got, dict) and list(got) == list(states)
            and all(isinstance(got[s], (int, float))
                    and abs(got[s] - sig10(w)) <= TOLERANCE for s, w in zip(states, want)))


# ---------------------------------------------------------------------------
# semi-static rollover


def _column_loglik(node: dict, label: str) -> list[float]:
    """log P(node = label | parent state), one entry per parent state."""
    col = node["states"].index(label)
    return [math.log(_norm(row)[col]) for row in node["cpt"]]


def frame_posterior(per_frame: dict, prior, observed: dict) -> list[float]:
    """Hypothesis posterior for one frame: prior times the observed children's
    likelihoods (the tree is a star under the root)."""
    logs = [math.log(p) for p in prior]
    for node in per_frame["nodes"]:
        label = observed.get(node["id"])
        if label is not None:
            logs = [a + b for a, b in zip(logs, _column_loglik(node, label))]
    return _normalise_log(logs)


def semi_static_observed(frame: dict) -> dict:
    """Planted frame -> evidence: each bound feature present/absent and the
    relation only when both inputs are bound."""
    obs = {fid: ("present" if frame[fid] is not None else "absent")
           for fid in ("dark_fold", "bright_rim")}
    if frame["touching"] is not None:
        obs["touching"] = frame["touching"]
    return obs


def semi_static_trace(model: dict, frames: list[dict]) -> list[dict]:
    """Expected trace records under the rollover formula.

    paper mode: prior_t ∝ static_prior · (posterior_{t-1} @ T);
    filter mode drops the static prior factor.
    """
    per_frame = model["per_frame"]
    root = next(n for n in per_frame["nodes"] if n["id"] == per_frame["root"])
    static = _norm(root["prior"])
    trans = [_norm(row) for row in model["transition"]]
    k = len(static)
    out, prev = [], None
    for i, frame in enumerate(frames):
        if prev is None:
            eff = static
        else:
            mixed = [sum(prev[j] * trans[j][s] for j in range(k)) for s in range(k)]
            logs = [math.log(m) for m in mixed]
            if model["mode"] == "paper":
                logs = [a + math.log(p) for a, p in zip(logs, static)]
            eff = _normalise_log(logs)
        post = frame_posterior(per_frame, eff, semi_static_observed(frame))
        out.append({"index": i, "posterior": post, "effective_prior": eff,
                    "bindings": {"dark_fold": frame["dark_fold"], "bright_rim": frame["bright_rim"]}})
        prev = post
    return out


# ---------------------------------------------------------------------------
# dynamic windows


def window_evidence(model: dict, window: list[dict]) -> dict:
    """Planted window frames -> evidence on the window tree's node ids."""
    feature, relation = model["feature"]["id"], model["relation"]["id"]
    obs = {f"{feature}_{i}": ("present" if f["spot"] is not None else "absent")
           for i, f in enumerate(window)}
    for i in range(1, len(window)):
        if window[i]["static"] is not None:
            obs[f"{relation}_{i - 1}_{i}"] = window[i]["static"]
    return obs


def window_posterior(model: dict, window: list[dict]) -> list[float]:
    """Hypothesis posterior of one window tree: a star of presence and
    relation nodes under the hypothesis."""
    logs = [math.log(p) for p in _norm(model["hypothesis"]["prior"])]
    feature = {"states": ["present", "absent"], "cpt": model["feature"]["cpt"]}
    relation = {"states": ["holds", "holds_not"], "cpt": model["relation"]["cpt"]}
    for nid, label in window_evidence(model, window).items():
        node = relation if nid.startswith(model["relation"]["id"] + "_") else feature
        logs = [a + b for a, b in zip(logs, _column_loglik(node, label))]
    return _normalise_log(logs)


def dynamic_trace(model: dict, frames: list[dict], k: int) -> list[dict]:
    prior = _norm(model["hypothesis"]["prior"])
    feature = model["feature"]["id"]
    out = []
    for end in range(k - 1, len(frames)):
        window = frames[end - k + 1: end + 1]
        # the first frame of a window has no predecessor inside it
        window = [dict(window[0], static=None)] + window[1:]
        out.append({"index": end, "posterior": window_posterior(model, window),
                    "effective_prior": prior,
                    "bindings": {f"{feature}_{i}": f["spot"] for i, f in enumerate(window)}})
    return out


# ---------------------------------------------------------------------------
# two-level tree


def wide_tree_beliefs(spec: dict, evidence: dict) -> dict[str, list[float]]:
    """Marginals of root -> hubs -> leaves with evidence on leaves only."""
    nodes = {n["id"]: n for n in spec["nodes"]}
    root = nodes[spec["root"]]
    hubs = [n for n in spec["nodes"] if n.get("parent") == root["id"]]
    leaves = {h["id"]: [n for n in spec["nodes"] if n.get("parent") == h["id"]] for h in hubs}
    r_states = range(len(root["states"]))

    # upward: log λ_hub(s) and log message to the root m_hub(r)
    log_lam, log_msg = {}, {}
    for h in hubs:
        lam = [0.0] * len(h["states"])
        for leaf in leaves[h["id"]]:
            label = evidence.get(leaf["id"])
            if label is not None:
                lam = [a + b for a, b in zip(lam, _column_loglik(leaf, label))]
        log_lam[h["id"]] = lam
        cpt = [_norm(row) for row in h["cpt"]]
        log_msg[h["id"]] = [_logsumexp([math.log(cpt[r][s]) + lam[s] for s in range(len(lam))])
                            for r in r_states]

    prior = [math.log(p) for p in _norm(root["prior"])]
    beliefs = {root["id"]: _normalise_log(
        [prior[r] + sum(log_msg[h["id"]][r] for h in hubs) for r in r_states])}
    for h in hubs:
        cpt = [_norm(row) for row in h["cpt"]]
        # π at the root excluding this hub, then pushed through the hub's CPT
        pi_root = _normalise_log([prior[r] + sum(log_msg[o["id"]][r] for o in hubs if o is not h)
                                  for r in r_states])
        pi_hub = [sum(pi_root[r] * cpt[r][s] for r in r_states) for s in range(len(h["states"]))]
        post = _normalise_log([math.log(p) + lam for p, lam in zip(pi_hub, log_lam[h["id"]])])
        beliefs[h["id"]] = post
        for leaf in leaves[h["id"]]:
            label = evidence.get(leaf["id"])
            if label is not None:
                beliefs[leaf["id"]] = [1.0 if s == label else 0.0 for s in leaf["states"]]
            else:
                lcpt = [_norm(row) for row in leaf["cpt"]]
                beliefs[leaf["id"]] = [sum(post[s] * lcpt[s][c] for s in range(len(post)))
                                       for c in range(len(leaf["states"]))]
    return beliefs


# ---------------------------------------------------------------------------
# output checks


def _check_trace(text: str, expected: list[dict], states) -> str | None:
    lines = text.splitlines()
    if len(lines) != len(expected):
        return f"trace has {len(lines)} lines, expected {len(expected)}"
    for line, want in zip(lines, expected):
        try:
            got = json.loads(line)
        except json.JSONDecodeError as exc:
            return f"trace line is not JSON: {exc}"
        if not isinstance(got, dict):
            return f"trace line is not an object: {line[:80]!r}"
        if got.get("index") != want["index"]:
            return f"index {got.get('index')} where {want['index']} was expected"
        if got.get("bindings") != want["bindings"]:
            return f"frame {want['index']}: bindings {got.get('bindings')} != {want['bindings']}"
        for key in ("posterior", "effective_prior"):
            if not _close(got.get(key), states, want[key]):
                return f"frame {want['index']}: {key} {got.get(key)} != {want[key]}"
    return None


def check_semi_static(text: str, truth: dict) -> str | None:
    model = truth["model"]
    root = model["per_frame"]["root"]
    states = next(n["states"] for n in model["per_frame"]["nodes"] if n["id"] == root)
    return _check_trace(text, semi_static_trace(model, truth["frames"]), states)


def check_dynamic_track(text: str, truth: dict) -> str | None:
    model = truth["model"]
    expected = dynamic_trace(model, truth["frames"], truth["window"])
    return _check_trace(text, expected, model["hypothesis"]["states"])


_CHECK_LINE = re.compile(r"max \|propagate - enumeration\| = (\S+) over (\d+) network\(s\)")


def check_dynamic_check(text: str, truth: dict) -> str | None:
    m = _CHECK_LINE.fullmatch(text.strip())
    try:
        diff, networks = float(m.group(1)), int(m.group(2))
    except (AttributeError, ValueError):
        return f"unexpected check output {text[:80]!r}"
    windows = len(truth["frames"]) - truth["window"] + 1
    if networks != windows:
        return f"{networks} networks checked, expected {windows} windows"
    if not diff < TOLERANCE:
        return f"oracle difference {diff} is not below {TOLERANCE}"
    return None


def check_wide_infer(text: str, truth: dict) -> str | None:
    try:
        got = json.loads(text)["beliefs"]
    except (json.JSONDecodeError, KeyError, TypeError) as exc:
        return f"not a beliefs document: {exc}"
    want = wide_tree_beliefs(truth["spec"], truth["evidence"])
    if set(got) != set(want):
        return "beliefs name other nodes than the tree has"
    states = {n["id"]: n["states"] for n in truth["spec"]["nodes"]}
    for nid, vec in want.items():
        if not _close(got[nid], states[nid], vec):
            return f"node {nid}: {got[nid]} != {vec}"
    return None


CHECKS = {
    "semi_static_masks": check_semi_static,
    "dynamic_window": check_dynamic_track,
    "dynamic_check": check_dynamic_check,
    "wide_infer": check_wide_infer,
}


def check(workload: str, text: str, truth: dict) -> str | None:
    """None when ``text``, the output of one op of ``workload``, is correct."""
    return CHECKS[workload](text, truth)
