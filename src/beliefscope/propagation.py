"""Exact posteriors on tree networks.

One upward kernel, :func:`upward`, computes every node's likelihood (λ) for a
batch of observation rows, and :func:`downward` adds the prior (π) pass to give
every node's marginals for the same batch.  :func:`propagate` is their batch of
one; ``track`` runs the upward kernel on every frame or window of a stream and
takes each hypothesis posterior from :func:`posterior`.  A joint-enumeration
oracle, :func:`enumerate_beliefs`, verifies this path over a batch too and is
kept algorithmically independent of it.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii
from typing import Mapping, Sequence

import numpy as np

from .errors import ImpossibleEvidenceError, StateSpaceCapError
from .network import InstantiatedNetwork, Network

ENUMERATION_CAP = 1 << 20

#: the most joint-table entries :func:`enumerate_beliefs` holds for one chunk of rows
ENUMERATION_CHUNK = 1 << 16


def sig10(x: float) -> float:
    """Round to 10 significant digits, the documented output precision."""
    return float(f"{x:.10g}")


def sig10_json(x: float) -> str:
    """``float.__repr__(sig10(x))``, as json writes it, mostly without the round trip.
    A ``.10g`` text of a normal double is the shortest text that reads back as that
    double, so repr writes the same digits, and below 1e10 in the same notation, adding
    ".0" to a whole number; other texts take the round trip."""
    text = f"{x:.10g}"
    if "e+" in text or "e-3" in text or "n" in text:  # large, maybe subnormal, inf or nan
        return float.__repr__(float(text))
    return text if "." in text or "e" in text else text + ".0"


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

    def to_json(self) -> str:
        """``json.dumps(self.to_document(), indent=2) + "\n"``, byte for byte, laid out
        here: ids and state names go through the encoder's own escaper, and each
        probability is written by :func:`sig10_json`."""
        nodes = []
        for nid, vec in self.marginals.items():
            entries = ",\n".join([f"      {encode_basestring_ascii(s)}: {sig10_json(p)}"
                                  for s, p in zip(self.states[nid], vec.tolist())])
            nodes.append(f"    {encode_basestring_ascii(nid)}: "
                         + (f"{{\n{entries}\n    }}" if entries else "{}"))
        body = ",\n".join(nodes)
        return f'{{\n  "beliefs": {{\n{body}\n  }}\n}}\n' if nodes else '{\n  "beliefs": {}\n}\n'


@functools.cache
def _own_evidence(s: int) -> np.ndarray:
    """An s-state node's λ from its own evidence by code: state i observed, or uniform at -1."""
    table = np.vstack([np.eye(s), np.full((1, s), 1.0 / s)])
    table.flags.writeable = False  # shared by every caller
    return table


def _contract(vecs: np.ndarray, tables: np.ndarray) -> np.ndarray:
    """Σ_j vecs[g, n, j] · tables[g, i, j], shape (g, n, i): products summed over the last
    axis, never matrix products, whose rounding changes with n."""
    return (vecs[:, :, None, :] * tables[:, None]).sum(axis=-1)


def _messages(lams: np.ndarray, cpts: np.ndarray) -> np.ndarray:
    """Normalised log λ-messages (g, n, s) of children with CPTs (g, s, size) and λ (g, n, size)."""
    msg = _contract(lams, cpts)
    return np.log(msg / msg.sum(axis=-1, keepdims=True))


def _plan(net: Network) -> tuple[list[str], dict[str, int], list]:
    """What :func:`upward` and :func:`downward` take from the network alone, kept in
    ``net.memo``: the breadth-first order, node columns, and per parent (or lone root) its
    children grouped by state count, each group with its stacked CPTs and their transposes;
    a leaf's message depends only on its code, so leaf groups keep it for every code."""
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
            table = net.stacked[ids[0]][0]  # children of one parent with one size share a stack
            cpts = np.take(table, [net.stacked[c][1] for c in ids], axis=0)
            down = np.ascontiguousarray(cpts.transpose(0, 2, 1))
            if leaf:
                with np.errstate(divide="ignore", invalid="ignore"):
                    table = _messages(_own_evidence(size)[None], cpts)
                leaves.append((slots, ids, [column[c] for c in ids], size, down,
                               table.reshape(-1, table.shape[-1]), (size + 1) * np.arange(len(ids))[:, None]))
            else:
                inner.append((slots, ids, cpts, down))
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
            for slots, ids, cols, size, _, table, offsets in leaves:
                code = codes[:, cols].T  # np.take gathers rows far faster than fancy indexing
                lam.update(zip(ids, np.take(_own_evidence(size), code, axis=0)))
                rows[slots] = np.take(table, code + offsets, axis=0)
            for slots, ids, cpts, _ in inner:
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


def downward(net: Network, codes: np.ndarray, priors: np.ndarray | None = None,
             ) -> dict[str, np.ndarray]:
    """Every node's posterior marginals, shape (n, s) in breadth-first order, for a batch of
    observation rows (:func:`observation_codes`).

    :func:`upward` collects likelihood (λ) messages from the leaves; this pass sends prior
    (π) messages down from the root, and each node's marginal is the normalised product of
    the two (:func:`posterior`).  ``priors``, one row per observation row, replaces the root's
    prior, renormalised as :func:`validate_network` renormalises a prior row.  A parent's message
    to child i excludes child i's own λ-message: the exclusive prefix sums of the stacked
    child log λ-messages that ``upward`` returns, with the matching suffix sums, give all k
    "every sibling but one" messages at once.  Log-messages are only added, so a structural
    zero stays an exact -inf, and every combined message is max-shifted before it leaves the
    log domain, so neither wide fan-in nor long chains can underflow.  A child's π is its
    CPT weighted by that message, products summed (:func:`_contract`), never a matrix
    product, so a row is bitwise equal to its batch of one.

    Raises ImpossibleEvidenceError for the first row whose evidence has probability zero,
    naming the node :func:`propagate` names for that row alone: where support vanished on
    the way up, else the first node in breadth-first order whose π and λ share no state.
    """
    order, column, steps = _plan(net)
    lam, fan_in, vanished = upward(net, codes)
    root = net.root
    if priors is None:
        prior = net.by_id[root].cpt[:1]  # broadcast over the rows
    else:
        prior = priors / priors.sum(axis=1, keepdims=True)
    pi = {root: prior}
    marginals = {root: posterior(prior, lam[root])}
    failed = np.isnan(marginals[root]).any(axis=-1)  # only zero mass makes a NaN
    with np.errstate(divide="ignore", invalid="ignore"):
        for nid, s, _, leaves, inner in reversed(steps):  # parents top-down
            rows, prefix = fan_in[nid]
            suffix = np.zeros(prefix.shape)
            rows[::-1].cumsum(axis=0, out=suffix[1:])
            own = np.take(_own_evidence(s), codes[:, column[nid]], axis=0)
            # observed: other states ruled out; row i of the stack excludes child i
            excluded = np.where(own == 0, -np.inf, np.log(pi[nid])) + prefix[:-1] + suffix[-2::-1]
            excluded -= excluded.max(axis=-1, keepdims=True)
            vec = np.exp(excluded)
            msgs = vec / vec.sum(axis=-1, keepdims=True)
            groups = [(slots, ids, down, np.take(_own_evidence(size), codes[:, cols].T, axis=0))
                      for slots, ids, cols, size, down, *_ in leaves]
            groups += [(slots, ids, down, np.array([lam[c] for c in ids]))
                       for slots, ids, _, down in inner]
            for slots, ids, down, child_lam in groups:
                child_pi = _contract(msgs[slots], down)
                pi.update(zip(ids, child_pi))
                child = posterior(child_pi, child_lam)
                failed |= np.isnan(child).any(axis=(0, 2))
                marginals.update(zip(ids, child))
    if failed.any():
        row = int(failed.argmax())
        if vanished is not None and vanished[0] == row:
            raise ImpossibleEvidenceError(vanished[1])
        raise ImpossibleEvidenceError(next(nid for nid in order
                                           if np.isnan(marginals[nid][row]).any()))
    return {nid: marginals[nid] for nid in order}


def propagate(inet: InstantiatedNetwork) -> Beliefs:
    """Exact per-node posteriors given all evidence, in time linear in the nodes:
    :func:`downward` on one observation row.

    Raises ImpossibleEvidenceError, naming the node where support vanished,
    when the evidence has probability zero under the model.
    """
    net = inet.net
    marginals = downward(net, observation_codes(net, [inet.observed]))
    return Beliefs({nid: vec[0] for nid, vec in marginals.items()},
                   {n.id: n.states for n in net.nodes})


def _state_count(n: int) -> str:
    """A count of joint states for a message: in full up to 15 digits, else
    its leading three digits and its power of ten, as in ``2.41e+24``
    (truncated, not rounded).  No decimal string of ``n`` is made, so a count
    of any size can be written."""
    if n < 10**15:
        return str(n)
    exponent = (n.bit_length() - 1) * 30102 // 100000  # log10(2) rounded down: not above
    while 10 ** (exponent + 1) <= n:
        exponent += 1
    lead = n // 10 ** (exponent - 2)
    return f"{lead // 100}.{lead % 100:02d}e+{exponent}"


def enumerate_beliefs(net: Network, codes: np.ndarray, priors: np.ndarray | None = None,
                      cap: int = ENUMERATION_CAP) -> dict[str, np.ndarray]:
    """Joint-enumeration oracle with the contract of :func:`downward`: every node's
    marginals, shape (n, s), in ``net.nodes`` order.

    The product of CPT entries over the whole joint state space is built once per call, as a
    dense table.  Each row's evidence, and its root prior when ``priors`` is given, multiply a
    copy of it as indicator factors, and each node's marginal sums that copy over every other
    node.  Rows are copied in chunks of at most ENUMERATION_CHUNK table entries (one row when
    a table is larger) into one buffer, so memory stays within two tables or two chunks.
    Refuses joint state spaces larger than ``cap``, and raises ImpossibleEvidenceError when
    a row's evidence has no joint mass.
    """
    sizes = [len(n.states) for n in net.nodes]
    total_states = math.prod(sizes)
    if total_states > cap:
        raise StateSpaceCapError(f"joint state space {_state_count(total_states)} exceeds cap "
                                 f"{_state_count(cap)}")

    def factor(j: int, rows: np.ndarray) -> np.ndarray:
        """Rows (m, s_j) of node j's factor, shaped to multiply m joint tables."""
        return rows.reshape([len(rows)] + [size if i == j else 1 for i, size in enumerate(sizes)])

    axis = {n.id: i for i, n in enumerate(net.nodes)}
    joint = np.ones(sizes)
    for n in net.nodes:
        shape = [1] * len(sizes)
        shape[axis[n.id]] = len(n.states)
        if n.parent is None:
            if priors is None:  # else each row's own prior multiplies its copy
                joint *= n.cpt[0].reshape(shape)
        else:
            pa = axis[n.parent]
            shape[pa] = len(net.node(n.parent).states)
            joint *= (n.cpt if pa < axis[n.id] else n.cpt.T).reshape(shape)

    marginals = {n.id: np.empty((len(codes), size)) for n, size in zip(net.nodes, sizes)}
    step = max(1, ENUMERATION_CHUNK // total_states)
    buffer = np.empty((min(step, len(codes)), *sizes))
    for start in range(0, len(codes), step):
        chunk = codes[start:start + step]
        tables = buffer[:len(chunk)]
        tables[...] = joint
        for j, size in enumerate(sizes):
            code = chunk[:, j:j + 1]
            if (code >= 0).any():
                tables *= factor(j, (code < 0) | (code == np.arange(size)))
        if priors is not None:
            rows = priors[start:start + step]
            tables *= factor(axis[net.root], rows / rows.sum(axis=1, keepdims=True))
        if (tables.sum(axis=tuple(range(1, tables.ndim))) <= 0.0).any():
            raise ImpossibleEvidenceError(None, "impossible evidence: total joint mass is zero")
        for j, n in enumerate(net.nodes):
            m = tables.sum(axis=tuple(i + 1 for i in range(len(sizes)) if i != j))
            marginals[n.id][start:start + len(chunk)] = m / m.sum(axis=-1, keepdims=True)
    return marginals


def brute_force_beliefs(inet: InstantiatedNetwork, cap: int = ENUMERATION_CAP) -> Beliefs:
    """Joint-enumeration oracle with the contract of :func:`propagate`:
    :func:`enumerate_beliefs` on one observation row.  Refuses joint state
    spaces larger than ``cap``.
    """
    net = inet.net
    marginals = enumerate_beliefs(net, observation_codes(net, [inet.observed]), cap=cap)
    return Beliefs({nid: vec[0] for nid, vec in marginals.items()},
                   {n.id: n.states for n in net.nodes})


def map_assignment(beliefs: Beliefs) -> dict[str, str]:
    """Per-node argmax state; ties go to the lowest declared state index."""
    return {
        nid: beliefs.states[nid][int(np.argmax(vec))]
        for nid, vec in beliefs.marginals.items()
    }
