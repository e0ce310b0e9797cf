"""Exact posteriors on tree networks.

One upward kernel, :func:`upward`, computes every node's likelihood (λ) for a batch of
observation rows, and :func:`downward` adds the prior (π) pass to give every node's
marginals for each row.  A batch is held per parent and per group of its children with
one state count, the vectors of every (child, row) pair of a group one after another in
one flat list, so each step is a few C-level passes over a list, however many rows and
children it holds, not some ten Python passes per child of each row.  Each row still
takes, in the same order, the floating-point operations it takes alone.  Both run on
Python floats and sum every probability vector with :func:`math.fsum`, the exact sum
rounded once.  ``track`` runs the upward kernel on each chunk's distinct rows and
takes each hypothesis posterior from its root λ through :func:`posterior`, the π·λ
step :func:`downward` takes at every node; :func:`propagate` is the downward kernel on
a batch of one evidence set.  ``check`` certifies :func:`downward` against
:mod:`beliefscope.witness`, which shares no code with it.  A joint-enumeration oracle,
:func:`brute_force_beliefs`, kept for the tests, the demos and the benchmark, gives
:func:`propagate`'s marginals by summing the whole joint table, on joint state spaces
up to ENUMERATION_CAP.  Nothing here imports numpy.
"""

from __future__ import annotations

import math
from functools import cache, reduce
from itertools import accumulate, chain, cycle, repeat, starmap
from json.encoder import encode_basestring_ascii
from operator import add, itemgetter, mul, sub, truediv
from typing import Mapping, Sequence

from .errors import ImpossibleEvidenceError, StateSpaceCapError
from .network import InstantiatedNetwork, Network, record

#: the most joint states :func:`brute_force_beliefs` enumerates
ENUMERATION_CAP = 1 << 20

#: the most node λs' worth of code rows :func:`upward` keeps on one Network at a time, and
#: the most node-states of code rows one batch of the kernels holds
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
def _own_evidence(t: int) -> tuple[Vector, ...]:
    """A t-state leaf's λ from its own evidence by code: state i observed, or uniform at -1."""
    return tuple(tuple(float(i == j) for j in range(t)) for i in range(t)) + ((1.0 / t,) * t,)


def _logs(values: list[float]) -> list[float]:
    """The log of each value, -inf at 0.0."""
    if 0.0 not in values:
        return list(map(math.log, values))
    return [math.log(v) if v else -math.inf for v in values]


def _sums(flat: list[float], k: int) -> list[float]:
    """:func:`math.fsum` of each run of ``k`` entries.  Of two non-negative floats that is
    their sum, which IEEE 754 rounds once from the exact one."""
    if k == 2:
        return list(map(add, *[iter(flat)] * 2))
    return list(map(math.fsum, zip(*[iter(flat)] * k)))


def _each(values: list, k: int):
    """Each of ``values`` ``k`` times in a row."""
    return values * k if len(values) == 1 else chain.from_iterable(zip(*[values] * k))


def _tiled(vectors: list[float], k: int, times: int):
    """Each run of ``k`` entries ``times`` times in a row."""
    if len(vectors) == k:
        return vectors * times
    return chain.from_iterable(map(mul, zip(*[iter(vectors)] * k), repeat(times)))


def _for_rows(blocks: tuple[tuple[float, ...], ...], flat: tuple[float, ...], n: int) -> Sequence[float]:
    """A group's per-child blocks, each once for each of ``n`` rows: ``flat`` at one row."""
    return flat if n == 1 else list(chain.from_iterable(map(mul, blocks, repeat(n))))


def _codes(rows: Sequence[Row], cols: list[int]) -> list[int]:
    """The codes of ``cols`` in each row, column after column."""
    if len(cols) == 1:
        return list(map(itemgetter(cols[0]), rows))
    return list(chain.from_iterable(zip(*map(itemgetter(*cols), rows))))


def _plan(net: Network) -> tuple[list[str], dict[str, int], list, int]:
    """What :func:`upward` and :func:`downward` take from the network alone, kept in
    ``net.memo``: the breadth-first order, node columns, per parent (or lone root),
    deepest first, its id, column, state count, children, groups of children and
    regrouping, and the most rows a batch holds, ROW_MEMO node-states.

    A group is an internal child alone, or every leaf child with one state count.  It
    holds a vector of each (child, row) pair, child after child, as one flat list of
    their entries.  Per group: its children's positions, ids, code columns (None for an
    internal child), state count, and per child its CPT entries [i][j] (up) and [j][i]
    (down), with each of the two flattened over the children.  Regrouping is None where
    the groups keep the children's own order, else a getter from the children's order
    into the groups', one back, and the children's positions in the groups' order."""
    if "plan" in net.memo:
        return net.memo["plan"]
    order = [net.root]
    for nid in order:
        order.extend(net.children[nid])
    column = {node.id: j for j, node in enumerate(net.nodes)}
    cpts = [node.cpt for node in net.nodes]
    # per node: its state count, and its CPT entries [i][j] (up) and [j][i] (down), flattened
    states = dict(zip(column, map(len, map(itemgetter(0), cpts))))
    up = dict(zip(column, map(tuple, map(chain.from_iterable, cpts))))
    down = dict(zip(column, map(tuple, map(chain.from_iterable, starmap(zip, cpts)))))
    steps = []
    for nid in reversed([nid for nid in order if net.children[nid]] or order):  # or a lone root
        kids, groups, leaves = net.children[nid], [], {}
        for k, child in enumerate(kids):
            if net.children[child]:
                groups.append([k])
            elif states[child] in leaves:
                leaves[states[child]].append(k)
            else:
                leaves[states[child]] = [k]
                groups.append(leaves[states[child]])
        built = []
        for positions in groups:
            ids = [kids[k] for k in positions]
            ups, downs = tuple(map(up.__getitem__, ids)), tuple(map(down.__getitem__, ids))
            built.append((positions, ids, None if net.children[ids[0]] else list(map(column.__getitem__, ids)),
                          states[ids[0]], ups, ups[0] if len(ids) == 1 else tuple(chain.from_iterable(ups)),
                          downs, downs[0] if len(ids) == 1 else tuple(chain.from_iterable(downs))))
        regroup, concat = None, list(chain.from_iterable(groups))
        if len(groups) > 1 and concat != sorted(concat):
            regroup = (itemgetter(*concat), itemgetter(*sorted(range(len(concat)), key=concat.__getitem__)),
                       concat)
        steps.append((nid, column[nid], states[nid], kids, built, regroup))
    size = max(1, ROW_MEMO // sum(states.values()))
    net.memo["plan"] = order, column, steps, size
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


def _up(net: Network, rows: Sequence[Row]) -> tuple[dict, dict, list[str | None]]:
    """The λ pass over a batch of code rows: every node's normalised λ, the children's log
    λ-messages of each parent of more than one child, and per row where support
    vanished, or None.

    λ is kept per internal node over its rows, and per group of leaves under the id of its
    first leaf over (child, row) pairs, one vector after another in a flat list, all zero
    where no state keeps support.  A parent's messages are kept per row and parent state
    as a tuple in the order of its children; a message is all -inf where its child keeps
    no support.  Support vanished at the last child with such a message of the first
    parent, deepest first, that has one, else at a root with no support."""
    n, root = len(rows), net.root
    lam, fan_in, vanished = {}, {}, [None] * n
    for nid, col, s, kids, groups, regroup in _plan(net)[2]:  # each leaf's λ is set with its group's
        logs: list[float] = []  # each (child, row) pair's message, group after group
        lost: dict[int, int] = {}  # per row: the last child at this parent without support
        for positions, ids, cols, t, up, up_flat, _, _ in groups:
            if cols is not None:
                lam[ids[0]] = list(chain.from_iterable(map(_own_evidence(t).__getitem__, _codes(rows, cols))))
            # per pair and parent state i: Σ_j λ[j] · cpt[i][j], products summed
            msg = _sums(list(map(mul, _tiled(lam[ids[0]], t, s), _for_rows(up, up_flat, n))), t)
            total = _sums(msg, s)
            if 0.0 in total:  # no state of the child keeps support: its logs stay -inf
                for x, v in enumerate(total):
                    if not v:
                        lost[x % n] = max(lost.get(x % n, -1), positions[x // n])
                total = [v or 1.0 for v in total]
            logs += _logs(list(map(truediv, msg, _each(total, s))))
        for r, k in lost.items():
            if vanished[r] is None:
                vanished[r] = kids[k]
        if len(kids) == 1:  # a lone child's messages are the totals
            totals = logs
        elif kids:  # per row and parent state, the children's messages in their own order
            fan_in[nid] = list(zip(*zip(*[iter(logs)] * (n * s))))
            if regroup is not None:
                fan_in[nid] = list(map(regroup[1], fan_in[nid]))
            # sums of logs, not of probabilities: added left to right, as downward's running sums
            totals = list(map(reduce, repeat(add), fan_in[nid]))
        else:
            totals = [0.0] * (n * s)
        codes = list(map(itemgetter(col), rows))
        if max(codes) >= 0:  # observed: other states ruled out
            totals = [v if c < 0 or c == i else -math.inf
                      for v, c, i in zip(totals, _each(codes, s), cycle(range(s)))]
        top = list(map(max, *[iter(totals)] * s))  # max-shifted before leaving the log domain
        exps = list(map(math.exp, map(sub, totals, _each(top, s))))
        lam[nid] = list(map(truediv, exps, _each(_sums(exps, s), s)))
        if -math.inf in top:  # no state keeps support
            for r, v in enumerate(top):
                if v == -math.inf:
                    lam[nid][r * s:(r + 1) * s] = [0.0] * s
                    if nid == root and vanished[r] is None:
                        vanished[r] = root
    return lam, fan_in, vanished


def upward(net: Network, codes: Sequence[Row]) -> tuple[list[Vector], list[str | None]]:
    """The root's normalised λ for each code row (:func:`observation_codes`), NaN where
    support vanished, and where it vanished, or None.  The root's prior is never read.
    The rows not in the network's row memo go through :func:`_up` as batches of up to
    ROW_MEMO node-states; the memo keeps each distinct row's result, up to ROW_MEMO
    node λs' worth of rows at a time."""
    memo = net.memo.setdefault("rows", {})
    size = _plan(net)[3]
    found = {row: memo[row] for row in codes if row in memo}
    new = [row for row in dict.fromkeys(codes) if row not in found]
    nan = (math.nan,) * len(net.by_id[net.root].states)
    for start in range(0, len(new), size):
        rows = new[start:start + size]
        lam, _, vanished = _up(net, rows)
        roots = zip(*[iter(lam[net.root])] * len(nan))
        found.update(zip(rows, [(nan if at else vec, at) for vec, at in zip(roots, vanished)]))
    for row in new:
        if (len(memo) + 1) * len(net.nodes) > ROW_MEMO:
            memo.clear()
        memo[row] = found[row]
    passes = list(map(found.__getitem__, codes))
    return [lam for lam, _ in passes], [at for _, at in passes]


def posterior(prior: Sequence[float], lam: Sequence[float]) -> Vector | None:
    """Prior (π) times likelihood (λ), normalised; None where that has no mass, or λ
    is NaN (support vanished below)."""
    bel = [p * q for p, q in zip(prior, lam)]
    total = math.fsum(bel)
    return tuple([b / total for b in bel]) if total > 0.0 else None


def _beliefs(pi: list[float], lam: list[float], t: int, n: int) -> tuple[list, list[int]]:
    """π times λ, normalised, for each (child, row) pair: per child a tuple of a vector per
    row; or none, and the pairs where the two share no state (NaN where the π message
    already failed)."""
    bel = list(map(mul, pi, lam))
    total = _sums(bel, t)
    if 0.0 in total:
        return [], [x for x, v in enumerate(total) if not v > 0.0]
    vectors = list(zip(*[iter(list(map(truediv, bel, _each(total, t))))] * t))
    return list(zip(*[iter(vectors)] * n)), []


def _down(net: Network, rows: Sequence[Row]) -> dict[str, tuple[Vector, ...]]:
    """:func:`downward` on one batch of rows; on an impossible row it raises for some
    impossible row, and for a batch of one it names the node :func:`downward` names."""
    order, _, steps, _ = _plan(net)
    n, root = len(rows), net.root
    lam, fan_in, vanished = _up(net, rows)
    for at in vanished:
        if at is not None:
            raise ImpossibleEvidenceError(at)
    pi = {root: list(net.by_id[root].cpt[0] * n)}
    beliefs, failed = _beliefs(pi[root], lam[root], len(net.by_id[root].states), n)
    if failed:
        raise ImpossibleEvidenceError(root)
    marginals = {root: beliefs[0]}
    for nid, col, s, kids, groups, regroup in reversed(steps):  # parents top-down
        if not kids:
            continue
        base = _logs(pi[nid])
        codes = list(map(itemgetter(col), rows))
        if max(codes) >= 0:  # observed: other states ruled out
            base = [b if c < 0 or c == i else -math.inf for b, c, i in zip(base, _each(codes, s), cycle(range(s)))]
        if len(kids) == 1:  # no sibling: adding the empty sums, 0.0, would change no log (none is -0.0)
            logs = base
        else:  # per child, every sibling's message but its own: running sums from the left
            # and from the right, per row and parent state
            before = [(0.0, *accumulate(v[:-1])) for v in fan_in[nid]]
            after = [(*accumulate(reversed(v[1:])),)[::-1] + (0.0,) for v in fan_in[nid]]
            if regroup is not None:
                before, after = list(map(regroup[0], before)), list(map(regroup[0], after))
            logs = list(map(add, map(add, base * len(kids), chain.from_iterable(zip(*before))),
                            chain.from_iterable(zip(*after))))  # over (child, row) pairs, group after group
        top = list(map(max, *[iter(logs)] * s))
        failed = []  # (row, child position) where no state keeps support
        if -math.inf in top:  # no state of the parent keeps support without this child
            failed = [(x % n, regroup[2][x // n] if regroup else x // n)
                      for x, v in enumerate(top) if v == -math.inf]
        exps = list(map(math.exp, map(sub, logs, _each(top, s))))
        message = list(map(truediv, exps, _each(_sums(exps, s), s)))
        start = 0
        for positions, ids, cols, t, _, _, down, down_flat in groups:
            stop = start + n * len(ids) * s
            # a child's π: its CPT weighted by the message, products summed
            child_pi = _sums(list(map(mul, _tiled(message[start:stop], s, t), _for_rows(down, down_flat, n))), s)
            beliefs, lost = _beliefs(child_pi, lam[ids[0]], t, n)
            failed += [(x % n, positions[x // n]) for x in lost]
            marginals.update(zip(ids, beliefs))
            if cols is None:
                pi[ids[0]] = child_pi
            start = stop
        if failed:
            raise ImpossibleEvidenceError(kids[min(failed)[1]])
    return {nid: marginals[nid] for nid in order}


def downward(net: Network, codes: Sequence[Row]) -> dict[str, tuple[Vector, ...]]:
    """Every node's posterior marginals for each observation row (:func:`observation_codes`),
    per node in breadth-first order, a vector per row: :func:`_up` collects likelihood (λ)
    messages from the leaves, this pass sends prior (π) messages down from the root, and
    each marginal is their normalised product, as :func:`posterior` takes it.  A parent's
    message to child i excludes child i's own λ-message: running sums of the children's
    log λ-messages from the left and from the right give all k "every sibling but one"
    messages at once.  Log messages are only added, so a structural zero stays an exact
    -inf, and each is max-shifted before it leaves the log domain, so neither wide fan-in
    nor long chains underflow.  A child's π is its CPT weighted by that message, products
    summed.

    The rows go as batches of up to ROW_MEMO node-states, each held per parent and group
    of children as one flat list of the vectors of its (child, row) pairs, so every step
    is a few C-level passes over a list, however many rows and children it holds.  Each
    row takes the floating-point operations, in the order, that it takes alone.

    Raises ImpossibleEvidenceError when a row's evidence has probability zero, naming where
    support vanished on the way up, else the first node in breadth-first order whose π and
    λ share no state.  A batch with such a row goes again a row at a time, so the first
    impossible row in order raises what it raises alone."""
    size = _plan(net)[3]
    try:
        parts = [_down(net, codes[start:start + size]) for start in range(0, len(codes), size)]
    except ImpossibleEvidenceError:
        if len(codes) > 1:
            for row in codes:
                _down(net, [row])  # alone, the first impossible row names its own node
        raise
    if len(parts) == 1:
        return parts[0]
    return {nid: tuple(chain.from_iterable(part[nid] for part in parts)) for nid in _plan(net)[0]}


# kept for infer, the demos and bench/tracing.py
def propagate(inet: InstantiatedNetwork) -> Beliefs:
    """Exact per-node posteriors given all evidence, in time linear in the nodes:
    :func:`downward` on its observation row, which names where support vanished when
    the evidence has probability zero."""
    net = inet.net
    return Beliefs({nid: vecs[0] for nid, vecs in downward(net, observation_codes(net, [inet.observed])).items()},
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
