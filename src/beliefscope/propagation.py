"""Exact posteriors on tree networks.

One upward kernel, :func:`upward`, computes every node's likelihood (λ) for a
batch of observation rows.  :func:`propagate` runs it on one row and adds the
downward (prior) pass; ``track`` runs it on every frame or window of a stream
and takes each hypothesis posterior from :func:`posterior`.  A joint-enumeration
oracle verifies this path and is kept algorithmically independent of it.
"""

from __future__ import annotations

import functools
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


@functools.cache
def _own_evidence(s: int) -> np.ndarray:
    """An s-state node's λ from its own evidence by code: state i observed, or uniform at -1."""
    table = np.vstack([np.eye(s), np.full((1, s), 1.0 / s)])
    table.flags.writeable = False  # shared by every caller
    return table


def _messages(lams: np.ndarray, cpts: np.ndarray) -> np.ndarray:
    """Normalised log λ-messages (g, n, s) of children with CPTs (g, s, size) and λ (g, n, size):
    products summed over the child's states, never matrix products, whose rounding changes with n."""
    msg = (lams[:, :, None, :] * cpts[:, None]).sum(axis=-1)
    return np.log(msg / msg.sum(axis=-1, keepdims=True))


def _plan(net: Network) -> tuple[list[str], dict[str, int], list]:
    """What :func:`upward` takes from the network alone, kept in ``net.memo``: the breadth-first
    order, node columns, and per parent (or lone root) its children grouped by state count; a
    leaf's message depends only on its code, so leaf groups keep it for every code."""
    if "upward" in net.memo:
        return net.memo["upward"]
    order = [net.root]
    for nid in order:
        order.extend(net.children[nid])
    column = {node.id: j for j, node in enumerate(net.nodes)}
    steps = []
    for nid in reversed([nid for nid in order if net.children[nid]] or order):  # or a lone root
        kids = net.children[nid]
        groups: dict[tuple[int, bool], list[int]] = {}
        for j, child in enumerate(kids):
            groups.setdefault((len(net.by_id[child].states), not net.children[child]), []).append(j)
        leaves, inner = [], []
        for (size, leaf), slots in groups.items():
            ids = [kids[j] for j in slots]
            cpts = np.array([net.by_id[c].cpt for c in ids])
            if leaf:
                with np.errstate(divide="ignore", invalid="ignore"):
                    table = _messages(_own_evidence(size)[None], cpts)
                leaves.append((slots, ids, [column[c] for c in ids], size,
                               table.reshape(-1, table.shape[-1]), (size + 1) * np.arange(len(ids))[:, None]))
            else:
                inner.append((slots, ids, cpts))
        steps.append((nid, len(net.by_id[nid].states), len(kids), leaves, inner))
    net.memo["upward"] = order, column, steps
    return net.memo["upward"]


def observation_codes(net: Network, observed: Sequence[Mapping[str, str]]) -> np.ndarray:
    """Observation rows for :func:`upward`, one per mapping of node ids to observed labels."""
    column = _plan(net)[1]
    codes = np.full((len(observed), len(net.nodes)), -1, dtype=np.intp)
    for row, assignments in zip(codes, observed):
        for nid, label in assignments.items():
            row[column[nid]] = net.by_id[nid].state_index(label)
    return codes


def upward(net: Network, codes: np.ndarray) -> tuple[dict, dict, tuple[int, str] | None]:
    """The upward (likelihood) pass over a batch of observation rows.

    ``codes`` (:func:`observation_codes`) has a row per observation set and a column per
    node of ``net.nodes``: the observed state's index, or -1.  Returns every node's
    normalised λ, shape (n, s); per parent its children's log λ-messages (:func:`_messages`),
    shape (k, n, s), with their exclusive prefix sums; and the first row whose support
    vanished with the node where it did, or None.  The root's prior is never read, and a
    row is bitwise equal to its batch of one.  Only vanished support makes a NaN.
    """
    order, column, steps = _plan(net)
    lam: dict[str, np.ndarray] = {}
    fan_in: dict[str, tuple[np.ndarray, np.ndarray]] = {}
    with np.errstate(divide="ignore", invalid="ignore"):
        for nid, s, k, leaves, inner in steps:  # each leaf's λ is formed with its siblings'
            own = np.take(_own_evidence(s), codes[:, column[nid]], axis=0)
            rows = np.empty((k, len(codes), s))
            for slots, ids, cols, size, table, offsets in leaves:
                code = codes[:, cols].T  # np.take gathers rows far faster than fancy indexing
                lam.update(zip(ids, np.take(_own_evidence(size), code, axis=0)))
                rows[slots] = np.take(table, code + offsets, axis=0)
            for slots, ids, cpts in inner:
                rows[slots] = _messages(np.array([lam[c] for c in ids]), cpts)
            prefix = np.zeros((len(rows) + 1, len(codes), s))
            rows.cumsum(axis=0, out=prefix[1:])
            fan_in[nid] = rows, prefix
            log_lam = np.where(own == 0, -np.inf, prefix[-1])  # observed: other states ruled out
            vec = np.exp(log_lam - log_lam.max(axis=-1, keepdims=True))
            lam[nid] = vec / vec.sum(axis=-1, keepdims=True)
    if not np.isnan(lam[net.root]).any():
        return lam, fan_in, None
    row = int(np.isnan(lam[net.root]).any(axis=-1).argmax())
    # the first node with a NaN λ-message there in reversed breadth-first order, else the root
    for parent in reversed(order):
        if parent in fan_in:
            nan = np.isnan(fan_in[parent][0][::-1, row]).any(axis=-1)
            if nan.any():
                return lam, fan_in, (row, net.children[parent][::-1][int(nan.argmax())])
    return lam, fan_in, (row, net.root)


def posterior(prior: np.ndarray, lam: np.ndarray) -> np.ndarray:
    """Prior (π) times likelihood (λ), normalised over the last axis; zero mass gives NaN."""
    bel = prior * lam
    with np.errstate(invalid="ignore"):
        return bel / bel.sum(axis=-1, keepdims=True)


def propagate(inet: InstantiatedNetwork) -> Beliefs:
    """Exact per-node posteriors given all evidence, in time linear in the nodes.

    The upward pass (:func:`upward` on one observation row) collects
    likelihood messages from the leaves, the downward pass distributes prior
    messages from the root; each node's posterior is the normalised product
    of the two.  Fan-in is combined in the log domain: the column sum of a
    node's k stacked child log λ-messages is its λ, and their exclusive
    prefix and suffix sums give all k "every sibling but one" π messages.
    Log-messages are only added, so a structural zero stays an exact -inf,
    and every combined message is max-shifted before it leaves the log
    domain, so neither wide fan-in nor long chains can underflow.

    Raises ImpossibleEvidenceError, naming the node where support vanished,
    when the evidence has probability zero under the model.
    """
    net = inet.net
    lam, fan_in, vanished = upward(net, observation_codes(net, [inet.observed]))
    if vanished is not None:
        raise ImpossibleEvidenceError(vanished[1])

    with np.errstate(divide="ignore"):
        pi: dict[str, np.ndarray] = {net.root: net.node(net.root).cpt[0]}
        marginals: dict[str, np.ndarray] = {}
        for nid in _plan(net)[0]:
            bel = pi[nid] * lam[nid][0]
            total = bel.sum()
            if total <= 0.0:
                raise ImpossibleEvidenceError(nid)
            marginals[nid] = bel / total
            if nid not in fan_in:
                continue
            rows, prefix = (stack[:, 0] for stack in fan_in[nid])
            suffix = np.zeros(prefix.shape)
            rows[::-1].cumsum(axis=0, out=suffix[1:])
            log_base = np.log(pi[nid])
            if nid in inet.observed:  # an observed node rules out its other states
                log_base[np.array(net.node(nid).states) != inet.observed[nid]] = -np.inf
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
