"""A second, independent computation of tree posteriors, against which ``check``
certifies :func:`~beliefscope.propagation.downward`.

:func:`marginals` runs sum-product on plain probabilities over each node's CPT: leaves
are eliminated first, each sending its parent, per parent state, the sum over its own
states of CPT entry times its likelihood (λ), and prior (π) messages are then sent back
down from the root.  Every message and running product is rescaled by its largest
entry, so wide fan-in and long chains do not underflow, and only the marginals are
normalised.  It works in time linear in the nodes, with no cap on the joint state
space, and shares no code with ``propagation``: no log domain, no numpy-order sums, no
numpy.
"""

from __future__ import annotations

from typing import Sequence

from .errors import ImpossibleEvidenceError
from .network import Network, Node


def _scaled(vec: Sequence[float]) -> list[float]:
    """``vec`` divided by its largest entry; ImpossibleEvidenceError where every entry
    is 0, as then the evidence has no mass."""
    top = max(vec)
    if not top > 0.0:
        raise ImpossibleEvidenceError(None, "impossible evidence: total mass is zero")
    return [v / top for v in vec]


def _message(node: Node, lam: Sequence[float]) -> list[float]:
    """``node``'s λ-message to its parent: per parent state, Σ_j CPT entry · λ[j]."""
    return _scaled([sum([p * q for p, q in zip(row, lam)]) for row in node.cpt])


def _product(a: Sequence[float], b: Sequence[float]) -> list[float]:
    return _scaled([x * y for x, y in zip(a, b)])


def marginals(net: Network, row: Sequence[int]) -> dict[str, tuple[float, ...]]:
    """Every node's posterior marginals for one observation row (a state index per node
    of ``net.nodes``, -1 where unobserved), in breadth-first order, as
    :func:`~beliefscope.propagation.downward` gives them.  Raises ImpossibleEvidenceError
    when the evidence has probability zero."""
    order = [net.root]
    for nid in order:
        order.extend(net.children[nid])
    code = {node.id: c for node, c in zip(net.nodes, row)}
    own, lam, up = {}, {}, {}
    for nid in reversed(order):  # leaves first
        node = net.by_id[nid]
        own[nid] = vec = [float(code[nid] < 0 or code[nid] == i) for i in range(len(node.states))]
        for child in net.children[nid]:
            vec = _product(vec, up[child])
        lam[nid] = vec
        if node.parent is not None:
            up[nid] = _message(node, vec)
    pi = {net.root: _scaled(net.by_id[net.root].cpt[0])}
    beliefs = {}
    for nid in order:  # root first
        belief = _product(pi[nid], lam[nid])
        total = sum(belief)
        beliefs[nid] = tuple([b / total for b in belief])
        kids = net.children[nid]
        if not kids:
            continue
        # the message to each child leaves out that child's own: the product of its
        # siblings' messages to the left of it times the product of those to the right
        left = [_product(pi[nid], own[nid])]
        for child in kids[:-1]:
            left.append(_product(left[-1], up[child]))
        right = [1.0] * len(lam[nid])
        for i in reversed(range(len(kids))):
            to_child = _product(left[i], right)
            cpt = net.by_id[kids[i]].cpt
            pi[kids[i]] = [sum([t * cpt_row[j] for t, cpt_row in zip(to_child, cpt)])
                           for j in range(len(cpt[0]))]
            if i:
                right = _product(right, up[kids[i]])
    return beliefs
