"""Exact posteriors on tree networks.

One upward kernel, :func:`upward`, computes every node's likelihood (λ) for one
observation row, and :func:`downward` adds the prior (π) pass to give every node's
marginals for that row.  Both run on Python floats, a few operations per node, and sum
every probability vector with :func:`math.fsum`, the exact sum rounded once.  ``track``
runs the upward kernel once per distinct row of a stream and takes each hypothesis
posterior from its root λ through :func:`posterior`, the π·λ step :func:`downward` takes
at every node; :func:`propagate` is the downward kernel on one evidence set.  ``check`` certifies
:func:`downward` against :mod:`beliefscope.witness`, which shares no code with it.  A
joint-enumeration oracle, :func:`brute_force_beliefs`, kept for the tests, the demos and
the benchmark, gives :func:`propagate`'s marginals by summing the whole joint table, on
joint state spaces up to ENUMERATION_CAP.  Nothing here imports numpy.
"""

from __future__ import annotations

import math
from functools import cache, reduce
from itertools import accumulate, chain
from json.encoder import encode_basestring_ascii
from operator import add
from typing import Mapping, Sequence

from .errors import ImpossibleEvidenceError, StateSpaceCapError
from .network import InstantiatedNetwork, Network, record

#: the most joint states :func:`brute_force_beliefs` enumerates
ENUMERATION_CAP = 1 << 20

#: the most node λs of code rows :func:`_upward` keeps on one Network at a time
ROW_MEMO = 1 << 15

Row = tuple[int, ...]
Vector = tuple[float, ...]


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


@record
class Beliefs:
    """Per-node posteriors, each a tuple of probabilities in declared state order."""

    marginals: Mapping[str, Vector]
    states: Mapping[str, tuple[str, ...]]

    def distribution(self, node_id: str) -> Vector:
        return self.marginals[node_id]

    def probability(self, node_id: str, state: str) -> float:
        return float(self.marginals[node_id][self.states[node_id].index(state)])

    def to_document(self) -> dict:
        return {"beliefs": {nid: {s: sig10(p) for s, p in zip(self.states[nid], vec)}
                            for nid, vec in self.marginals.items()}}

    def to_json(self) -> str:
        """``json.dumps(self.to_document(), indent=2) + "\n"``, byte for byte, laid out
        here: ids and state names go through the encoder's own escaper, and each
        probability is written by :func:`sig10_json`."""
        nodes = []
        for nid, vec in self.marginals.items():
            entries = ",\n".join([f"      {encode_basestring_ascii(s)}: {sig10_json(p)}"
                                  for s, p in zip(self.states[nid], vec)])
            nodes.append(f"    {encode_basestring_ascii(nid)}: "
                         + (f"{{\n{entries}\n    }}" if entries else "{}"))
        body = ",\n".join(nodes)
        return f'{{\n  "beliefs": {{\n{body}\n  }}\n}}\n' if nodes else '{\n  "beliefs": {}\n}\n'


@cache
def _own_evidence(s: int) -> tuple[Vector, ...]:
    """An s-state node's λ from its own evidence by code: state i observed, or uniform at -1."""
    return tuple(tuple(float(i == j) for j in range(s)) for i in range(s)) + ((1.0 / s,) * s,)


def _normalised_exp(logs: Sequence[float]) -> Vector | None:
    """exp(logs), max-shifted before it leaves the log domain, normalised; None where
    every entry is -inf."""
    top = max(logs)
    if top == -math.inf:
        return None
    vec = [math.exp(v - top) for v in logs]
    total = math.fsum(vec)
    return tuple([v / total for v in vec])


def _message(lam: Vector | None, cpt: tuple[Vector, ...]) -> Vector | None:
    """A child's normalised log λ-message, per parent state i log Σ_j lam[j] · cpt[i][j]
    (-inf at 0), products summed; None where support vanished at or below the child."""
    if lam is None:
        return None
    msg = [math.fsum([a * b for a, b in zip(lam, row)]) for row in cpt]
    total = math.fsum(msg)
    return tuple([math.log(q) if q else -math.inf for q in [m / total for m in msg]]) if total else None


def _plan(net: Network) -> tuple[list[str], dict[str, int], list]:
    """What :func:`upward` and :func:`downward` take from the network alone, kept in
    ``net.memo``: the breadth-first order, node columns, and per parent (or lone root),
    deepest first, its column, state count and children, each with its column, CPT,
    transposed CPT, λ by code (:func:`_own_evidence`) and, for a leaf, its message by code."""
    if "plan" in net.memo:
        return net.memo["plan"]
    order = [net.root]
    for nid in order:
        order.extend(net.children[nid])
    column = {node.id: j for j, node in enumerate(net.nodes)}
    steps = []
    for nid in reversed([nid for nid in order if net.children[nid]] or order):  # or a lone root
        kids = []
        for child in net.children[nid]:
            cpt = net.by_id[child].cpt
            kids.append((child, column[child], cpt, tuple(zip(*cpt)),
                         None if net.children[child] else {}, _own_evidence(len(cpt[0]))))
        steps.append((nid, column[nid], len(net.by_id[nid].states), kids))
    net.memo["plan"] = order, column, steps
    return net.memo["plan"]


def observation_codes(net: Network, observed: Sequence[Mapping[str, str]]) -> list[Row]:
    """Observation rows for :func:`upward` and :func:`downward`, one per mapping of node ids
    to observed labels: per node of ``net.nodes`` the observed state's index, or -1."""
    column = _plan(net)[1]
    rows = []
    for assignments in observed:
        row = [-1] * len(net.nodes)
        for nid, label in assignments.items():
            row[column[nid]] = net.by_id[nid].states.index(label)
        rows.append(tuple(row))
    return rows


def _upward(net: Network, row: Row) -> tuple[dict, dict, str | None]:
    """Every node's normalised λ for one code row (None where no state keeps support), each
    parent's children's log λ-messages, and where support vanished, or None: at the last
    child with a None message of the first parent, deepest first, that has one, else at a
    root with a None λ.  Each distinct row is computed once and kept on the network, up to
    ROW_MEMO node λs at a time."""
    memo = net.memo.setdefault("rows", {})
    if row in memo:
        return memo[row]
    if (len(memo) + 1) * len(net.nodes) > ROW_MEMO:
        memo.clear()
    lam, fan_in, vanished = {}, {}, None
    for nid, col, s, kids in _plan(net)[2]:  # each leaf's λ is set with its siblings'
        msgs = fan_in[nid] = []
        for child, child_col, cpt, _, leaf, own in kids:
            if leaf is None:
                msg = _message(lam[child], cpt)
            else:
                code = row[child_col]
                msg = leaf[code] if code in leaf else leaf.setdefault(code, _message(own[code], cpt))
                lam[child] = own[code]
            if msg is None:
                vanished = child
            msgs.append(msg)
        if vanished is not None:
            break
        # sums of logs, not of probabilities: added left to right, as downward's running sums
        totals = [reduce(add, v) for v in zip(*msgs)] or [0.0] * s
        code = row[col]
        if code >= 0:  # observed: other states ruled out
            totals = [t if i == code else -math.inf for i, t in enumerate(totals)]
        lam[nid] = _normalised_exp(totals)
    else:
        vanished = net.root if lam[net.root] is None else None
    memo[row] = lam, fan_in, vanished
    return memo[row]


def upward(net: Network, codes: Sequence[Row]) -> tuple[list[Vector], list[str | None]]:
    """The root's normalised λ for each code row (:func:`observation_codes`), NaN where
    support vanished, and where it vanished, or None.  The root's prior is never read."""
    passes = [_upward(net, row) for row in codes]
    nan = (math.nan,) * len(net.by_id[net.root].states)
    return [nan if at else lam[net.root] for lam, _, at in passes], [at for _, _, at in passes]


def posterior(prior: Sequence[float], lam: Sequence[float]) -> Vector | None:
    """Prior (π) times likelihood (λ), normalised; None where that has no mass, or λ
    is NaN (support vanished below)."""
    bel = [p * q for p, q in zip(prior, lam)]
    total = math.fsum(bel)
    return tuple([b / total for b in bel]) if total > 0.0 else None


def downward(net: Network, row: Row) -> dict[str, Vector]:
    """Every node's posterior marginals for one observation row (:func:`observation_codes`),
    in breadth-first order: :func:`_upward` collects likelihood (λ) messages from the
    leaves, this pass sends prior (π) messages down from the root, and each marginal is
    their normalised product (:func:`posterior`).  A parent's message to child i
    excludes child i's own λ-message: running sums of the children's log λ-messages from
    the left and from the right give all k "every sibling but one" messages at once.  Log
    messages are only added, so a structural zero stays an exact -inf, and each is
    max-shifted before it leaves the log domain, so neither wide fan-in nor long chains
    underflow.  A child's π is its CPT weighted by that message, products summed.

    Raises ImpossibleEvidenceError when the evidence has probability zero, naming where
    support vanished on the way up, else the first node in breadth-first order whose π and
    λ share no state."""
    order, _, steps = _plan(net)
    lam, fan_in, vanished = _upward(net, row)
    if vanished is not None:
        raise ImpossibleEvidenceError(vanished)
    root = net.root
    pi = {root: net.by_id[root].cpt[0]}
    marginals = {root: posterior(pi[root], lam[root])}
    if marginals[root] is None:
        raise ImpossibleEvidenceError(root)
    for nid, col, _, kids in reversed(steps):  # parents top-down
        code = row[col]
        base = [math.log(p) if p else -math.inf for p in pi[nid]]
        if code >= 0:  # observed: other states ruled out
            base = [b if i == code else -math.inf for i, b in enumerate(base)]
        states, zero = list(zip(*fan_in[nid])), (0.0,) * len(base)
        before = [zero, *zip(*[accumulate(v) for v in states])]  # [i]: children before i
        after = [zero, *zip(*[accumulate(reversed(v)) for v in states])]  # [j]: the last j
        last = len(kids) - 1
        for i, (child, _, _, down, _, _) in enumerate(kids):
            message = _normalised_exp([b + p + q for b, p, q in zip(base, before[i], after[last - i])])
            if message is None:  # no state of the parent keeps support without this child
                raise ImpossibleEvidenceError(child)
            pi[child] = [math.fsum([m * c for m, c in zip(message, column)]) for column in down]
            marginals[child] = posterior(pi[child], lam[child])
            if marginals[child] is None:
                raise ImpossibleEvidenceError(child)
    return {nid: marginals[nid] for nid in order}


# kept for infer, the demos and bench/tracing.py
def propagate(inet: InstantiatedNetwork) -> Beliefs:
    """Exact per-node posteriors given all evidence, in time linear in the nodes:
    :func:`downward` on its observation row, which names where support vanished when
    the evidence has probability zero."""
    net = inet.net
    return Beliefs(downward(net, observation_codes(net, [inet.observed])[0]),
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


# kept for the tests, demos/single_scene_relations.py, bench/tests/test_oracle.py and
# bench/tracing.py
def brute_force_beliefs(inet: InstantiatedNetwork) -> Beliefs:
    """Joint-enumeration oracle with the contract of :func:`propagate`, sharing none of
    its code: every node's marginals, in ``net.nodes`` order, summed over the whole joint
    state space on Python floats.

    The joint table is one flat list, built a node at a time in parents-first order, the
    newest node varying fastest: each entry is multiplied by the node's CPT row for the
    entry's parent state, with the states other than an observed one set to 0.0.  A node
    whose states each span ``stride`` entries takes its marginal as :func:`math.fsum`
    over strided slices, which rounds once whatever the order, and each marginal is
    normalised by its own sum.  Refuses joint state spaces larger than ENUMERATION_CAP,
    and raises ImpossibleEvidenceError when the evidence has no joint mass.
    """
    net = inet.net
    total_states = math.prod([len(n.states) for n in net.nodes])
    if total_states > ENUMERATION_CAP:
        raise StateSpaceCapError(f"joint state space {_state_count(total_states)} exceeds cap "
                                 f"{_state_count(ENUMERATION_CAP)}")
    order = [net.root]
    for nid in order:
        order.extend(net.children[nid])
    strides = {}  # per node in the table so far, how many entries each of its states spans
    for nid in order:
        node = net.by_id[nid]
        code = node.states.index(inet.observed[nid]) if nid in inet.observed else -1
        rows = [[p if code in (-1, j) else 0.0 for j, p in enumerate(row)] for row in node.cpt]
        if node.parent is None:
            table = rows[0]
        else:
            stride, size = strides[node.parent], len(net.by_id[node.parent].states)
            table = [e * p for i, e in enumerate(table) for p in rows[i // stride % size]]
        strides = {n: k * len(node.states) for n, k in strides.items()}
        strides[nid] = 1
    if not math.fsum(table) > 0.0:
        raise ImpossibleEvidenceError(None, "impossible evidence: total joint mass is zero")
    marginals = {}
    for node in net.nodes:
        stride, size = strides[node.id], len(node.states)
        period = stride * size  # state j's entries: an extended slice per offset within a run
        m = [math.fsum(chain.from_iterable(table[j * stride + r::period] for r in range(stride)))
             for j in range(size)]
        total = math.fsum(m)
        marginals[node.id] = tuple([v / total for v in m])
    return Beliefs(marginals, {n.id: n.states for n in net.nodes})


# kept for demos/single_scene_relations.py, which prints a MAP state the CLI cannot
def map_assignment(beliefs: Beliefs) -> dict[str, str]:
    """Per-node argmax state; ties go to the lowest declared state index."""
    return {nid: beliefs.states[nid][max(range(len(vec)), key=vec.__getitem__)]
            for nid, vec in beliefs.marginals.items()}
