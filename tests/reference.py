"""Slow oracles written from the definitions, plus input generators.

Nothing here reuses the library's kernels: the word sort is the
recursive L n R definition, and the diagram sort recurses on blocks held
as frozensets of signed nodes (+i top, -i bottom).
"""

from __future__ import annotations

import random
from itertools import combinations

from diagramsort.core import PartitionDiagram, canonicalize


def sort_word_by_definition(word):
    """sort(L n R) = sort(L) sort(R) n, where n is the largest letter."""
    w = tuple(word)
    if not w:
        return ()
    i = w.index(max(w))
    return sort_word_by_definition(w[:i]) + sort_word_by_definition(w[i + 1 :]) + (w[i],)


def _tops(block):
    return {x for x in block if x > 0}


def _bottoms(block):
    return {-x for x in block if x < 0}


def _middle_groups(blocks, n):
    """Connected components of 'extents intersect', ordered by least node.

    A node's position is i for the bottom node i' and n + i for the top
    node i; a block's extent is the interval between its least and
    greatest positions.
    """
    pos = lambda x: n + x if x > 0 else -x
    groups = [([blk], min(map(pos, blk)), max(map(pos, blk))) for blk in blocks]
    merged = True
    while merged:
        merged = False
        for i, j in combinations(range(len(groups)), 2):
            (gi, lo_i, hi_i), (gj, lo_j, hi_j) = groups[i], groups[j]
            if lo_i <= hi_j and lo_j <= hi_i:
                groups[i] = (gi + gj, min(lo_i, lo_j), max(hi_i, hi_j))
                del groups[j]
                merged = True
                break
    return [g for g, _, _ in sorted(groups, key=lambda g: g[1])]


def _factors(blocks, n):
    """Factor list: a leaf (list of blocks, none propagating) or a chosen block."""
    props = [blk for blk in blocks if _tops(blk) and _bottoms(blk)]
    if not props:
        return [blocks]
    chosen = max(props, key=lambda blk: max(_bottoms(blk)))
    left, middle, right = [], [], []
    for blk in blocks:
        if blk == chosen:
            continue
        own, ref = (_tops(blk), _tops(chosen)) if _tops(blk) else (_bottoms(blk), _bottoms(chosen))
        if max(own) < min(ref):
            left.append(blk)
        elif min(own) > max(ref):
            right.append(blk)
        else:
            middle.append(blk)
    out = _factors(left, n)
    for group in _middle_groups(middle, n):
        out += _factors(group, n)
    return out + _factors(right, n) + [chosen]


def sort_diagram_by_definition(diagram: PartitionDiagram) -> PartitionDiagram:
    """The diagram stack-sort, recursively: split, sort the parts, relabel tops.

    Chosen blocks get consecutive top labels in factor order, then each
    leaf's top-only blocks (least top node first) continue the count;
    bottom labels never move.
    """
    n = diagram.order
    blocks = [blk for blk in diagram.block_sets() if len(blk) > 1]
    if not any(_tops(blk) and _bottoms(blk) for blk in blocks):
        return diagram
    factors = _factors(blocks, n)
    chosen = [f for f in factors if isinstance(f, frozenset)]
    leaves = [blk for f in factors if not isinstance(f, frozenset) for blk in f]
    top_only = []
    for f in factors:
        if not isinstance(f, frozenset):
            top_only += sorted((blk for blk in f if not _bottoms(blk)), key=min)
    out = []
    next_top = 1
    for blk in chosen + top_only:
        width = len(_tops(blk))
        out.append(set(range(next_top, next_top + width)) | {-i for i in _bottoms(blk)})
        next_top += width
    out += [blk for blk in leaves if not _tops(blk)]
    return canonicalize(out, n)


def _avoiding_231(rng: random.Random, k: int) -> list[int]:
    """A random 231-avoiding permutation of 0..k-1.

    Pushing 0..k-1 through a stack with random pops gives a 312-avoiding
    word; its inverse avoids 231.
    """
    out, stack, nxt = [], [], 0
    while len(out) < k:
        if nxt < k and (not stack or rng.random() < 0.5):
            stack.append(nxt)
            nxt += 1
        else:
            out.append(stack.pop())
    inverse = [0] * k
    for pos, v in enumerate(out):
        inverse[v] = pos
    return inverse


def structural_candidate(rng: random.Random, n: int, mode: str) -> PartitionDiagram:
    """A diagram meeting the first three structural sortability conditions.

    Every block propagates with equally many top and bottom nodes and has
    consecutive bottom indices.  ``mode`` places the tops: "scatter"
    draws them at random; "avoid" gives each block a top interval, with
    the blocks in a 231-avoiding order (always sortable); "swap" does the
    same, then swaps the places of two blocks in that order.
    """
    sizes = []
    while sum(sizes) < n:
        sizes.append(rng.randint(1, min(4, n - sum(sizes))))
    starts = [sum(sizes[:j]) for j in range(len(sizes))]
    bottoms = [((1 << s) - 1) << lo for s, lo in zip(sizes, starts)]
    if mode == "scatter":
        nodes = list(range(n))
        rng.shuffle(nodes)
        tops = [sum(1 << i for i in nodes[lo : lo + s]) for s, lo in zip(sizes, starts)]
        return PartitionDiagram(n, zip(tops, bottoms))
    order = _avoiding_231(rng, len(sizes))
    if mode == "swap" and len(order) > 1:
        i, j = rng.sample(range(len(order)), 2)
        order[i], order[j] = order[j], order[i]
    blocks = []
    lo = 0
    for j in order:
        blocks.append((((1 << sizes[j]) - 1) << lo, bottoms[j]))
        lo += sizes[j]
    return PartitionDiagram(n, blocks)
