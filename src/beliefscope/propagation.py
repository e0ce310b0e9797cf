"""Exact posteriors on tree networks.

Two routes with identical contracts: two-pass message passing (upward
likelihood, downward prior) and a joint-enumeration oracle that materialises
the full joint table.  The oracle exists to verify the fast path and is kept
algorithmically independent of it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .errors import ImpossibleEvidenceError, StateSpaceCapError
from .network import InstantiatedNetwork, Network

ENUMERATION_CAP = 1 << 20


def sig10(x: float) -> float:
    """Round to 10 significant digits, the documented output precision."""
    return float(f"{x:.10g}")


@dataclass(frozen=True, eq=False)
class Beliefs:
    """Per-node posteriors, each a probability vector in declared state order."""

    marginals: Mapping[str, np.ndarray]
    states: Mapping[str, tuple[str, ...]]

    def distribution(self, node_id: str) -> np.ndarray:
        return self.marginals[node_id]

    def probability(self, node_id: str, state: str) -> float:
        return float(self.marginals[node_id][self.states[node_id].index(state)])

    def to_document(self) -> dict:
        return {
            "beliefs": {
                nid: {s: sig10(p) for s, p in zip(self.states[nid], vec)}
                for nid, vec in self.marginals.items()
            }
        }


def _topological(net: Network) -> list[str]:
    order = [net.root]
    i = 0
    while i < len(order):
        order.extend(net.children[order[i]])
        i += 1
    return order


def _indicators(inet: InstantiatedNetwork) -> dict[str, np.ndarray]:
    out = {}
    for nid, label in inet.observed.items():
        node = inet.net.node(nid)
        vec = np.zeros(len(node.states))
        vec[node.state_index(label)] = 1.0
        out[nid] = vec
    return out


def _log_message(cpt: np.ndarray, lam: np.ndarray) -> np.ndarray | None:
    """A child's normalised log λ-message to its parent, from the child's CPT
    and λ; None when the child's evidence has probability zero under every
    parent state.  Callers ignore numpy's divide warning for log(0)."""
    msg = cpt @ lam
    total = msg.sum()
    if total <= 0.0:
        return None
    return np.log(msg / total)


def leaf_messages(cpt: np.ndarray) -> np.ndarray:
    """The log λ-message of a leaf child with this CPT for every observation:
    row i for state i observed, the last row for unobserved.  An observation
    of probability zero gets a NaN row."""
    n_parent, n = cpt.shape
    rows = []
    with np.errstate(divide="ignore"):
        for lam in [*np.eye(n), np.full(n, 1.0 / n)]:
            msg = _log_message(cpt, lam)
            rows.append(np.full(n_parent, np.nan) if msg is None else msg)
    return np.array(rows)


def star_posteriors(prior: np.ndarray, children: Sequence[np.ndarray]
                    ) -> tuple[np.ndarray, np.ndarray]:
    """Root posteriors of many stars at once, with the arithmetic of :func:`propagate`.

    Every star has an unobserved root with ``prior`` and only leaf children;
    ``children[j]`` holds child j's log λ-message for every star, shape
    (n_stars, s), in the root's child order.  The rows are added in that
    order, the same additions as propagate's cumsum.  Returns the posteriors
    and a mask of the stars on which propagate would not raise
    ImpossibleEvidenceError (no NaN message, some finite λ, nonzero belief);
    rows outside the mask are meaningless.
    """
    log_lam = children[0].copy()
    for rows in children[1:]:
        log_lam += rows
    with np.errstate(divide="ignore", invalid="ignore"):
        top = log_lam.max(axis=1, keepdims=True)
        vec = np.exp(log_lam - top)
        bel = prior * (vec / vec.sum(axis=1, keepdims=True))
        total = bel.sum(axis=1, keepdims=True)
        posteriors = bel / total
    # NaN compares False, so a NaN message also lands outside the mask
    possible = (top[:, 0] > -np.inf) & (total[:, 0] > 0.0)
    return posteriors, possible


def _upward(net: Network, indicator: Mapping[str, np.ndarray]
            ) -> tuple[dict[str, np.ndarray], dict[str, tuple[np.ndarray, np.ndarray]]]:
    """The upward pass of :func:`propagate`: every node's normalised λ, and
    for every parent its children's stacked log λ-messages with their
    exclusive prefix sums.  The root's prior is never read.  Callers ignore
    numpy's divide warning for log(0)."""
    lam: dict[str, np.ndarray] = {}
    log_msg: dict[str, np.ndarray] = {}
    fan_in: dict[str, tuple[np.ndarray, np.ndarray]] = {}
    for nid in reversed(_topological(net)):
        node = net.node(nid)
        own = indicator.get(nid)
        kids = net.children[nid]
        if kids:
            rows = np.array([log_msg[c] for c in kids])
            prefix = np.zeros((len(kids) + 1, rows.shape[1]))
            rows.cumsum(axis=0, out=prefix[1:])
            fan_in[nid] = rows, prefix
            log_lam = prefix[-1] if own is None else prefix[-1] + np.log(own)
            top = log_lam.max()
            if top == -np.inf:
                raise ImpossibleEvidenceError(nid)
            vec = np.exp(log_lam - top)
            lam[nid] = vec / vec.sum()
        else:
            lam[nid] = np.full(len(node.states), 1.0 / len(node.states)) if own is None else own
        if nid != net.root:
            msg = _log_message(node.cpt, lam[nid])
            if msg is None:
                raise ImpossibleEvidenceError(nid)
            log_msg[nid] = msg
    return lam, fan_in


def _belief(nid: str, pi: np.ndarray, lam: np.ndarray) -> np.ndarray:
    bel = pi * lam
    total = bel.sum()
    if total <= 0.0:
        raise ImpossibleEvidenceError(nid)
    return bel / total


def root_posterior(inet: InstantiatedNetwork, prior) -> np.ndarray:
    """The root's posterior when its prior row is ``prior`` (normalised here,
    as :func:`~beliefscope.network.validate_network` would): :func:`propagate`'s
    upward pass and root belief alone, bitwise equal to its root marginal on
    the tree with that prior.  λ at the root does not depend on the root's
    prior, so one validated network serves every prior.

    Raises ImpossibleEvidenceError at the same node as propagate.
    """
    prior = np.asarray(prior, dtype=float)
    with np.errstate(divide="ignore"):
        lam, _ = _upward(inet.net, _indicators(inet))
    return _belief(inet.net.root, prior / prior.sum(), lam[inet.net.root])


def propagate(inet: InstantiatedNetwork) -> Beliefs:
    """Exact per-node posteriors given all evidence, in time linear in the nodes.

    Upward pass collects likelihood messages from the leaves, downward pass
    distributes prior messages from the root; each node's posterior is the
    normalised product of the two.  Fan-in is combined in the log domain: the
    normalised log λ-messages of a node's k children form one (k, s) array.
    Its column sum gives the node's λ, and its exclusive prefix and suffix
    sums give all k "every sibling but one" π messages at once.  Log-messages
    are only added, never subtracted, so a structural zero stays an exact
    -inf.  Every combined message is max-shifted before it leaves the log
    domain and is then renormalised, so neither wide fan-in nor long chains
    can underflow (posteriors are invariant to this).

    Raises ImpossibleEvidenceError, naming the node where support vanished,
    when the evidence has probability zero under the model.
    """
    net = inet.net
    indicator = _indicators(inet)

    with np.errstate(divide="ignore"):
        lam, fan_in = _upward(net, indicator)

        pi: dict[str, np.ndarray] = {net.root: net.node(net.root).cpt[0]}
        marginals: dict[str, np.ndarray] = {}
        for nid in _topological(net):
            marginals[nid] = _belief(nid, pi[nid], lam[nid])

            if nid not in fan_in:
                continue
            rows, prefix = fan_in[nid]
            suffix = np.zeros(prefix.shape)
            rows[::-1].cumsum(axis=0, out=suffix[1:])
            log_base = np.log(pi[nid])
            own = indicator.get(nid)
            if own is not None:
                log_base += np.log(own)
            # Row i excludes child i.  Some state has pi > 0 and lam > 0 here,
            # so no row is all -inf and no further impossibility check is needed.
            excluded = log_base + prefix[:-1] + suffix[-2::-1]
            excluded -= excluded.max(axis=1, keepdims=True)
            vec = np.exp(excluded)
            msgs = vec / vec.sum(axis=1, keepdims=True)
            for child, msg in zip(net.children[nid], msgs):
                pi[child] = net.node(child).cpt.T @ msg

    return Beliefs(marginals, {n.id: n.states for n in net.nodes})


def brute_force_beliefs(inet: InstantiatedNetwork, cap: int = ENUMERATION_CAP) -> Beliefs:
    """Joint-enumeration oracle: same contract as :func:`propagate`.

    Accumulates the probability of every joint assignment consistent with the
    evidence (as a dense table of CPT-entry products) and normalises the
    per-node marginals.  Refuses joint state spaces larger than ``cap``.
    """
    net = inet.net
    sizes = [len(n.states) for n in net.nodes]
    total_states = math.prod(sizes)
    if total_states > cap:
        raise StateSpaceCapError(f"joint state space {total_states} exceeds cap {cap}")

    axis = {n.id: i for i, n in enumerate(net.nodes)}
    joint = np.ones(sizes)
    for n in net.nodes:
        shape = [1] * len(sizes)
        shape[axis[n.id]] = len(n.states)
        if n.parent is None:
            joint = joint * n.cpt[0].reshape(shape)
        else:
            pa = axis[n.parent]
            shape[pa] = len(net.node(n.parent).states)
            table = n.cpt if pa < axis[n.id] else n.cpt.T
            joint = joint * table.reshape(shape)
    for nid, label in inet.observed.items():
        node = net.node(nid)
        ind = np.zeros(len(node.states))
        ind[node.state_index(label)] = 1.0
        shape = [1] * len(sizes)
        shape[axis[nid]] = len(node.states)
        joint = joint * ind.reshape(shape)

    if joint.sum() <= 0.0:
        raise ImpossibleEvidenceError(None, "impossible evidence: total joint mass is zero")

    marginals = {}
    for n in net.nodes:
        other = tuple(i for i in range(len(sizes)) if i != axis[n.id])
        m = joint.sum(axis=other)
        marginals[n.id] = m / m.sum()
    return Beliefs(marginals, {n.id: n.states for n in net.nodes})


def map_assignment(beliefs: Beliefs) -> dict[str, str]:
    """Per-node argmax state; ties go to the lowest declared state index."""
    return {
        nid: beliefs.states[nid][int(np.argmax(vec))]
        for nid, vec in beliefs.marginals.items()
    }
