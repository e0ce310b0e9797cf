"""A second, independent computation of tree posteriors, against which ``check``
certifies :func:`~beliefscope.propagation.downward`.

:func:`marginals` runs sum-product on plain probabilities over each node's CPT: leaves
are eliminated first, each sending its parent, per parent state, the sum over its own
states of CPT entry times its likelihood (λ), and prior (π) messages are then sent back
down from the root.  Every message and running product is rescaled by its largest
entry, so wide fan-in and long chains do not underflow, and only the marginals are
normalised.  Every sum is :func:`math.fsum`, the package's one summation rule.  It
works in time linear in the nodes, with no cap on the joint state space, and shares no
code with ``propagation``: no log domain, no numpy.

It takes a batch of code rows at once.  Under each parent, an internal child alone and
the leaves of each state count together form a group, whose vectors, one per (child,
row) pair, child after child, are held one after another in one flat list; the running
products along a parent's children step a child at a time, each step one list of a
vector per row.  So each step is a few C-level passes over a list, and each row takes
the floating-point operations it takes alone.
"""

from __future__ import annotations

import math
from functools import cache
from itertools import chain, repeat, starmap
from operator import add, itemgetter, mul, truediv
from typing import Sequence

from .errors import ImpossibleEvidenceError
from .network import Network

#: the most node-states of code rows :func:`marginals` holds at once
BATCH = 1 << 15


def _each(values: list[float], k: int):
    """Each of ``values`` ``k`` times in a row."""
    return values * k if len(values) == 1 else chain.from_iterable(zip(*[values] * k))


def _scaled(flat: list[float], k: int) -> list[float]:
    """Each run of ``k`` entries, one vector, divided by its largest entry;
    ImpossibleEvidenceError where every entry of one is 0, as then the evidence has no
    mass."""
    tops = [max(flat)] if len(flat) == k else list(map(max, *[iter(flat)] * k))
    if not min(tops) > 0.0:
        raise ImpossibleEvidenceError(None, "impossible evidence: total mass is zero")
    return list(map(truediv, flat, _each(tops, k)))


def _product(a: Sequence[float], b: Sequence[float], k: int) -> list[float]:
    return _scaled(list(map(mul, a, b)), k)


def _contract(flat: list[float], k: int, blocks, n: int, out: int) -> list[float]:
    """For each run of ``k`` entries, one vector over a child's source states, Σ over them
    of vector entry times CPT entry, per target state: ``out`` entries.  ``blocks`` holds
    each child's CPT entries, target state after target state, one block per child of
    the group, for each of ``n`` rows."""
    if len(flat) == k:  # one vector
        vectors = flat * out
    else:
        vectors = chain.from_iterable(map(mul, zip(*[iter(flat)] * k), repeat(out)))
    products = map(mul, vectors, chain.from_iterable(map(mul, blocks, repeat(n))))
    if k == 2:  # the sum of two non-negative floats is rounded once, as fsum's
        return list(map(add, products, products))
    return list(map(math.fsum, zip(*[products] * k)))


@cache
def _own_table(states: int) -> tuple[tuple[float, ...], ...]:
    """λ from a node's own evidence by code: 1.0 at the observed state, or everywhere at -1."""
    return tuple(tuple(float(c == i) for i in range(states)) for c in range(states)) + ((1.0,) * states,)


def _own(codes: list[int], states: int) -> list[float]:
    """λ from each pair's own evidence, vector after vector."""
    return list(chain.from_iterable(map(_own_table(states).__getitem__, codes)))


def _tree(net: Network) -> tuple[list[str], list]:
    """The breadth-first order, and per parent (or lone root), root first: its id, column,
    state count, children, groups of children, and the children's positions group after
    group, or None where that is their order.  A group is its children's positions, ids,
    code columns (None for an internal child), state count, and per child its CPT
    entries both ways round: [i][j] for the message up, [j][i] for π down."""
    if "witness" in net.memo:
        return net.memo["witness"]
    order = [net.root]
    for nid in order:
        order.extend(net.children[nid])
    column = {node.id: j for j, node in enumerate(net.nodes)}
    cpts = [node.cpt for node in net.nodes]
    # per node: its state count, and its CPT entries [i][j] (up) and [j][i] (down), flattened
    size = dict(zip(column, map(len, map(itemgetter(0), cpts))))
    up = dict(zip(column, map(tuple, map(chain.from_iterable, cpts))))
    down = dict(zip(column, map(tuple, map(chain.from_iterable, starmap(zip, cpts)))))
    parents = []
    for nid in [nid for nid in order if net.children[nid]] or order:
        kids, groups, leaves = net.children[nid], [], {}
        for k, child in enumerate(kids):
            if net.children[child]:
                groups.append([k])
            elif size[child] in leaves:
                leaves[size[child]].append(k)
            else:
                leaves[size[child]] = [k]
                groups.append(leaves[size[child]])
        built = []
        for positions in groups:
            ids = [kids[k] for k in positions]
            built.append((positions, ids, None if net.children[ids[0]] else list(map(column.__getitem__, ids)),
                          size[ids[0]], list(map(up.__getitem__, ids)), list(map(down.__getitem__, ids))))
        concat = list(chain.from_iterable(groups))
        parents.append((nid, column[nid], size[nid], kids, built,
                        None if len(groups) == 1 or concat == sorted(concat) else concat))
    net.memo["witness"] = order, parents
    return net.memo["witness"]


def _codes(rows: Sequence[Sequence[int]], cols: list[int]) -> list[int]:
    """The codes of ``cols`` in each row, column after column."""
    if len(cols) == 1:
        return list(map(itemgetter(cols[0]), rows))
    return list(chain.from_iterable(zip(*map(itemgetter(*cols), rows))))


def _beliefs(pi: list[float], lam: list[float], k: int, n: int) -> list[tuple]:
    """π times λ, rescaled and then normalised: per child, a tuple of one vector per row."""
    belief = _product(pi, lam, k)
    total = list(map(math.fsum, zip(*[iter(belief)] * k)))
    vectors = list(zip(*[iter(list(map(truediv, belief, _each(total, k))))] * k))
    return list(zip(*[iter(vectors)] * n))


def marginals(net: Network, rows: Sequence[Sequence[int]]) -> dict[str, tuple[tuple[float, ...], ...]]:
    """Every node's posterior marginals for each observation row (a state index per node of
    ``net.nodes``, -1 where unobserved), per node in breadth-first order, a vector per
    row, as :func:`~beliefscope.propagation.downward` gives them.  The rows go as batches
    of up to BATCH node-states.  Raises ImpossibleEvidenceError when a row's evidence has
    probability zero."""
    n = len(rows)
    order, parents = _tree(net)
    size = max(1, BATCH // sum([len(node.states) for node in net.nodes]))
    if n > size:
        parts = [marginals(net, rows[start:start + size]) for start in range(0, n, size)]
        return {nid: tuple(chain.from_iterable(part[nid] for part in parts)) for nid in order}
    own, lam, up = {}, {}, {}
    for nid, col, s, kids, groups, concat in reversed(parents):  # deepest first
        msgs: list[tuple] = []  # per child, group after group: its message for each row
        for positions, ids, cols, t, cpt, _ in groups:
            if cols is not None:
                lam[ids[0]] = _own(_codes(rows, cols), t)
            msgs += zip(*[iter(_scaled(_contract(lam[ids[0]], t, cpt, n, s), s))] * (n * s))
        if concat is not None:
            msgs = list(map(msgs.__getitem__, sorted(range(len(concat)), key=concat.__getitem__)))
        own[nid] = vec = _own(_codes(rows, [col]), s)
        # λ takes the messages from the left, and the downward pass takes, per child, the
        # product of those to its right, from the right: one running product over 2n rows
        # takes both, the first message paired with the last
        trail = [vec + [1.0] * (n * s)]
        for pair in map(add, msgs[:-1], reversed(msgs[1:])):
            trail.append(_product(trail[-1], pair, s))
        up[nid] = msgs, trail[::-1]  # per child: its message, and a product whose right half is to its right
        lam[nid] = _product(trail[-1][:n * s], msgs[-1], s) if msgs else vec
    root = net.root
    pi = {root: _scaled(list(net.by_id[root].cpt[0] * n), len(net.by_id[root].states))}
    beliefs = {root: _beliefs(pi[root], lam[root], len(net.by_id[root].states), n)[0]}
    for nid, _, s, kids, groups, concat in parents:  # root first
        if not kids:
            continue
        # the message to each child leaves out that child's own: the product of its
        # siblings' messages to the left of it times the product of those to the right
        msgs, trail = up[nid]
        left = [_product(pi[nid], own[nid], s)]
        for msg in msgs[:-1]:
            left.append(_product(left[-1], msg, s))
        if concat is not None:
            left, trail = list(map(left.__getitem__, concat)), list(map(trail.__getitem__, concat))
        if len(kids) == 1:  # no sibling: times all ones, a rescaled product (largest entry 1.0) is itself
            to_child = left[0]
        else:
            to_child = _product(list(chain.from_iterable(left)),
                                list(chain.from_iterable(map(itemgetter(slice(n * s, None)), trail))), s)
        start = 0
        for positions, ids, cols, t, _, cpt in groups:
            stop = start + n * len(ids) * s
            child_pi = _contract(to_child[start:stop], s, cpt, n, t)
            beliefs.update(zip(ids, _beliefs(child_pi, lam[ids[0]], t, n)))
            if cols is None:
                pi[ids[0]] = child_pi
            start = stop
    return {nid: beliefs[nid] for nid in order}
