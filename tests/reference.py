"""Slow oracles written from the definitions, plus input generators.

Nothing here reuses the library's kernels: the diagram sort and the
structural sortability test recurse on blocks held as frozensets of
signed nodes (+i top, -i bottom), composition walks the stacked 3n-node
graph (the algebra product sums those walks over every term pair), and
the stretch inflates signed-node sets and pads them with ``delta_k``.
The recursive word sort, s(L) s(M) s(R) k...k (sort(L) sort(R) n on a
permutation), is ``diagramsort.analysis._sort_packed``.
"""

from __future__ import annotations

import random
from itertools import combinations

from diagramsort.core import AlgebraElement, PartitionDiagram, XiPoly, canonicalize, identity_diagram
from diagramsort.stretch import delta_k


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


def _split_by_definition(blocks, n):
    """(chosen, left, middle groups, right), or None when no block propagates."""
    props = [blk for blk in blocks if _tops(blk) and _bottoms(blk)]
    if not props:
        return None
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
    return chosen, left, _middle_groups(middle, n), right


def _factors(blocks, n):
    """Factor list: a leaf (list of blocks, none propagating) or a chosen block."""
    split = _split_by_definition(blocks, n)
    if split is None:
        return [blocks]
    chosen, left, groups, right = split
    out = []
    for piece in (left, *groups, right):
        out += _factors(piece, n)
    return out + [chosen]


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


def trace_by_definition(diagram: PartitionDiagram) -> list[tuple[frozenset, dict]]:
    """The split steps of the sort in pre-order: (bottom indices of C, factor of every other block).

    A factor is ("L", 0), ("M", j) for the j-th middle group, or ("R", 0);
    pieces without a propagating block make no step.
    """
    n = diagram.order
    events = []

    def walk(piece) -> None:
        split = _split_by_definition(piece, n)
        if split is None:
            return
        chosen, left, groups, right = split
        tags = [("L", 0), *(("M", j) for j in range(1, len(groups) + 1)), ("R", 0)]
        factors = (left, *groups, right)
        events.append((frozenset(_bottoms(chosen)), {blk: tag for tag, f in zip(tags, factors) for blk in f}))
        for f in factors:
            if f:
                walk(f)

    walk([blk for blk in diagram.block_sets() if len(blk) > 1])
    return events


def structural_failure_by_definition(diagram: PartitionDiagram) -> str | None:
    """The first structural sortability condition a diagram breaks, or None.

    Blocks are checked in canonical order (top-row blocks by least top
    node, then the rest by least bottom node), each for: propagating,
    equal top and bottom sizes, consecutive bottom indices.  Then the
    split recursion is walked depth first, nonempty factors left,
    middle groups, right; step k breaks when a factor's least bottom
    node lies below the greatest bottom node of the factor before it.
    """
    n = diagram.order
    canonical = lambda blk: (0, min(_tops(blk))) if _tops(blk) else (1, min(_bottoms(blk)))
    blocks = sorted(diagram.block_sets(), key=canonical)
    for blk in blocks:
        tops, bottoms = _tops(blk), _bottoms(blk)
        if not (tops and bottoms):
            return "non-propagating block"
        if len(tops) != len(bottoms):
            return "unequal top and bottom sizes"
        if max(bottoms) - min(bottoms) + 1 != len(bottoms):
            return "non-interval bottom"
    step = 0

    def broken(piece) -> bool:
        nonlocal step
        step += 1
        _, left, groups, right = _split_by_definition(piece, n)
        factors = [f for f in (left, *groups, right) if f]
        nodes = [set().union(*map(_bottoms, f)) for f in factors]
        if any(min(b) < max(a) for a, b in zip(nodes, nodes[1:])):
            return True
        return any(broken(f) for f in factors)

    return f"split step {step}: factor order broken" if blocks and broken(blocks) else None


def compose_by_graph_walk(d1: PartitionDiagram, d2: PartitionDiagram) -> tuple[PartitionDiagram, int]:
    """The monoid product and its middle-only component count, node by node.

    Builds the stacked graph explicitly: nodes 0..n-1 are d1's top row,
    n..2n-1 the shared middle row and 2n..3n-1 d2's bottom row.  Each
    component is walked from a start node; its outer nodes form a block of
    the product, and a component with none counts as middle-only.
    """
    n = d1.order
    adj: dict[int, set[int]] = {x: set() for x in range(3 * n)}

    def link(nodes):
        for a in nodes:
            for b in nodes:
                if a != b:
                    adj[a].add(b)

    for block in d1.block_sets():
        link([x - 1 if x > 0 else n - x - 1 for x in block])
    for block in d2.block_sets():
        link([n + x - 1 if x > 0 else 2 * n - x - 1 for x in block])

    seen: set[int] = set()
    blocks = []
    middle_only = 0
    for start in range(3 * n):
        if start in seen:
            continue
        queue, comp = [start], {start}
        while queue:
            cur = queue.pop()
            for nxt in adj[cur]:
                if nxt not in comp:
                    comp.add(nxt)
                    queue.append(nxt)
        seen |= comp
        outer = [x + 1 for x in comp if x < n] + [2 * n - x - 1 for x in comp if x >= 2 * n]
        if outer:
            blocks.append(outer)
        else:
            middle_only += 1
    return canonicalize(blocks, n), middle_only


def algebra_multiply_by_pairs(a: AlgebraElement, b: AlgebraElement) -> AlgebraElement:
    """The algebra product summed over every term pair, each composite by the graph walk.

    Coefficients are multiplied out as lists of integers; composites keep
    the order in which they are first met, d1 outer and d2 inner.
    """
    sums: dict[PartitionDiagram, list[int]] = {}
    for d1, p1 in a.terms.items():
        for d2, p2 in b.terms.items():
            composite, middle = compose_by_graph_walk(d1, d2)
            coeffs = sums.setdefault(composite, [])
            for i, c1 in enumerate(p1.coeffs):
                for j, c2 in enumerate(p2.coeffs):
                    k = i + j + middle
                    coeffs += [0] * (k + 1 - len(coeffs))
                    coeffs[k] += c1 * c2
    return AlgebraElement(a.order, {d: XiPoly(coeffs) for d, coeffs in sums.items()})


def stretch_by_nodes(alpha, k: int, diagram: PartitionDiagram) -> PartitionDiagram:
    """The stretch image from signed-node sets: node +-i becomes +-x for each x in alpha[i-1]."""
    parts = [set(part) for part in alpha]
    if len(parts) != diagram.order:
        raise ValueError("set composition length must equal the diagram order")
    inflated = [
        {x for i in block if i > 0 for x in parts[i - 1]} | {-x for i in block if i < 0 for x in parts[-i - 1]}
        for block in diagram.block_sets()
    ]
    return delta_k(inflated, k)


def random_composition(rng: random.Random, k: int, parts: int) -> list[list[int]]:
    """``parts`` disjoint nonempty subsets of 1..k in random order, leaving gaps.

    The support leaves out about a third of 1..k, at random places;
    requires ``parts`` <= k.
    """
    pool = list(range(1, k + 1))
    rng.shuffle(pool)
    size = max(parts, 2 * k // 3)
    cuts = sorted(rng.sample(range(1, size), parts - 1)) if parts > 1 else []
    return [pool[i:j] for i, j in zip([0, *cuts], [*cuts, size])] if parts else []


def sparse_diagram(rng: random.Random, n: int, classes: int) -> PartitionDiagram:
    """Each of the 2n nodes joins one of ``classes`` labels at random.

    With ``classes`` near n, many blocks lie in one row, so products of
    such diagrams lose components in the middle row.
    """
    tops, bottoms = [0] * classes, [0] * classes
    for i in range(n):
        tops[rng.randrange(classes)] |= 1 << i
        bottoms[rng.randrange(classes)] |= 1 << i
    return PartitionDiagram(n, [blk for blk in zip(tops, bottoms) if blk != (0, 0)])


def block_walk_fault(order: int, blocks) -> str | None:
    """The first fault met walking mask blocks one by one, or None if valid.

    Top-row blocks come first by least top node, then the rest by least
    bottom node; each block is checked for emptiness, range and overlap
    with the blocks before it, and the union must cover both rows.
    """
    full = (1 << order) - 1
    low = lambda m: (m & -m).bit_length()
    seen_t = seen_b = 0
    for t, b in sorted(blocks, key=lambda blk: (0, low(blk[0])) if blk[0] else (1, low(blk[1]))):
        if t == 0 and b == 0:
            return "empty block"
        if t & ~full or b & ~full:
            return f"node index out of range 1..{order}"
        if t & seen_t or b & seen_b:
            return "blocks overlap"
        seen_t |= t
        seen_b |= b
    return None if seen_t == full and seen_b == full else "blocks do not cover all 2n nodes"


def block_faults(order: int, blocks) -> list[str]:
    """The message of every fault a list of mask blocks has, each tested on its own.

    Messages come in the order the constructor ranks them: empty block,
    range, overlap, cover.
    """
    full = (1 << order) - 1
    faults = []
    if (0, 0) in blocks:
        faults.append("empty block")
    if any(t & ~full or b & ~full for t, b in blocks):
        faults.append(f"node index out of range 1..{order}")
    if any(x[0] & y[0] or x[1] & y[1] for x, y in combinations(blocks, 2)):
        faults.append("blocks overlap")
    top = bottom = 0
    for t, b in blocks:
        top |= t
        bottom |= b
    if top & full != full or bottom & full != full:
        faults.append("blocks do not cover all 2n nodes")
    return faults


def stretched_identity(rng: random.Random, n: int) -> PartitionDiagram:
    """A random stretch of an identity diagram to order n, built by the node oracle."""
    m = rng.randint(1, max(1, n // 4))
    return stretch_by_nodes(random_composition(rng, n, m), n, identity_diagram(m))


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


def chain_diagram(rng: random.Random, n: int, base: str, plant: str | None) -> PartitionDiagram:
    """A diagram whose split recursion is a chain of one-block clusters, plus one cluster.

    Top i joins bottom n + 1 - i ("decreasing") or bottom i ("increasing"),
    so no two top intervals overlap and the largest bottoms, the root of
    the chain, lie at the left or the right end.  Positions 3 and 4 mod 7
    become a top-only block on their tops and a bottom-only block on their
    bottoms.  ``plant`` ("root", "middle" or "leaf") deals the 24 nodes of
    a window of 12 positions out at random to 6 blocks, whose tops
    interleave into a cluster of several blocks.
    """
    w = 12
    bottom = (lambda i: n - 1 - i) if base == "decreasing" else (lambda i: i)
    at_root = 0 if base == "decreasing" else n - w
    start = {None: -n, "root": at_root, "middle": n // 2, "leaf": n - w - at_root}[plant]
    blocks = []
    i = 0
    while i < n:
        if i == start:
            tops, bottoms = [0] * (w // 2), [0] * (w // 2)
            for j in range(i, i + w):
                tops[rng.randrange(w // 2)] |= 1 << j
                bottoms[rng.randrange(w // 2)] |= 1 << bottom(j)
            blocks += [blk for blk in zip(tops, bottoms) if blk != (0, 0)]
            i += w
        elif i % 7 == 3 and i + 1 < n and i + 1 != start:
            blocks += [(3 << i, 0), (0, (1 << bottom(i)) | (1 << bottom(i + 1)))]
            i += 2
        else:
            blocks.append((1 << i, 1 << bottom(i)))
            i += 1
    return PartitionDiagram(n, blocks)


def stretched_chain(rng: random.Random, sizes: list[int], reverse: bool, scramble: tuple[int, int] | None) -> PartitionDiagram:
    """A structural candidate whose split recursion is a chain of one-block clusters.

    Block j has the j-th bottom interval of the given sizes and a top
    interval of the same size; the top intervals run left to right (a
    stretched identity) or, with ``reverse``, right to left.  ``scramble``
    = (a, b) deals the top nodes of blocks a..b-1 out again at random,
    which plants one cluster of several blocks.
    """
    n = sum(sizes)
    starts = [sum(sizes[:j]) for j in range(len(sizes))]
    bottoms = [((1 << s) - 1) << lo for s, lo in zip(sizes, starts)]
    tops = [((1 << s) - 1) << (n - lo - s if reverse else lo) for s, lo in zip(sizes, starts)]
    if scramble:
        a, b = scramble
        nodes = [x for j in range(a, b) for x in range(n) if tops[j] >> x & 1]
        rng.shuffle(nodes)
        for j in range(a, b):
            tops[j] = sum(1 << x for x in nodes[: sizes[j]])
            del nodes[: sizes[j]]
    return PartitionDiagram(n, list(zip(tops, bottoms)))


def common_point_diagram(rng: random.Random, n: int) -> PartitionDiagram:
    """A diagram whose blocks with top nodes, singletons aside, all span one top node p.

    Block 0 holds p; each other block takes a top node on each side of p
    and maybe more.  Bottom nodes are dealt out in sets of one to three to
    those blocks or to bottom-only blocks, so top-only, propagating and
    bottom-only blocks mix.  Top nodes left over stay singletons.
    """
    p = rng.randint(1, n)
    left, right = list(range(1, p)), list(range(p + 1, n + 1))
    rng.shuffle(left)
    rng.shuffle(right)
    blocks = [{p}] + [{left.pop(), right.pop()} for _ in range(rng.randint(0, min(len(left), len(right))))]
    for node in left + right:
        if rng.random() < 0.5:
            rng.choice(blocks).add(node)
    bottoms = list(range(1, n + 1))
    rng.shuffle(bottoms)
    while bottoms:
        run = {-bottoms.pop() for _ in range(min(len(bottoms), rng.randint(1, 3)))}
        j = rng.randrange(len(blocks) + 2)
        if j < len(blocks):
            blocks[j] |= run
        else:
            blocks.append(run)
    return canonicalize(blocks, n)


def one_item_cluster_diagram(rng: random.Random, n: int) -> PartitionDiagram:
    """A diagram whose blocks with top nodes, singletons aside, have disjoint top intervals.

    Top nodes are cut into runs of one to four.  Each run's first and last
    nodes, and maybe some between, are one block's tops; the rest stay
    singletons.  About a third of these blocks get no bottom node (on one
    top node, a singleton).  Bottom nodes are dealt out in sets of one to
    three to the other blocks or to bottom-only blocks.  So every
    top-overlap cluster holds one block, and top-only, propagating and
    bottom-only blocks mix.
    """
    blocks, open_blocks, i = [], [], 1
    while i <= n:
        k = min(rng.randint(1, 4), n + 1 - i)
        blocks.append({i, i + k - 1} | {x for x in range(i + 1, i + k - 1) if rng.random() < 0.5})
        if rng.random() < 0.7:
            open_blocks.append(blocks[-1])
        i += k
    bottoms = list(range(1, n + 1))
    rng.shuffle(bottoms)
    while bottoms:
        run = {-bottoms.pop() for _ in range(min(len(bottoms), rng.randint(1, 3)))}
        j = rng.randrange(len(open_blocks) + 2)
        if j < len(open_blocks):
            open_blocks[j] |= run
        else:
            blocks.append(run)
    return canonicalize(blocks, n)


def cluster_chain_diagram(clusters: int) -> PartitionDiagram:
    """A chain of 4-block top-overlap clusters, each sending two blocks into the long subtree.

    Cluster k holds top and bottom nodes p..p+4, p = 5k + 1: blocks
    {p+1, p'}, {p+2, (p+1)'}, {p, p+4, (p+2)', (p+3)'} and C = {p+3, (p+4)'}.
    C has the cluster's largest bottom and bottoms rise from cluster to
    cluster, so the Cartesian tree over the clusters is a left path, and C
    sends {p+1} and {p+2} left, into the subtree of every cluster before it,
    and {p, p+4} to the middle.  Every block propagates with an interval
    bottom as large as its top, so the diagram is a structural candidate.
    """
    blocks = []
    for p in range(1, 5 * clusters, 5):
        blocks += [{p + 1, -p}, {p + 2, -p - 1}, {p, p + 4, -p - 2, -p - 3}, {p + 3, -p - 4}]
    return canonicalize(blocks, 5 * clusters)


def widened_permutation(rng: random.Random, n: int, p: int, q: int) -> PartitionDiagram:
    """A seeded permutation diagram of order n whose block on top p also takes top q > p.

    The block that held top q keeps only its bottom node, a singleton.  For
    q > p + 1 the top intervals are disjoint up to p and the item at p + 1
    overlaps {p, q}.
    """
    word = rng.sample(range(1, n + 1), n)
    blocks = [{i, -word[i - 1]} for i in range(1, n + 1)]
    blocks[p - 1].add(q)
    blocks[q - 1].discard(q)
    return canonicalize(blocks, n)


def nested_top_candidate(rng: random.Random, blocks: int, nested: int, rotate: int | None) -> PartitionDiagram:
    """A structural candidate with ``nested`` nested blocks over a stretched identity.

    Block j < nested takes top nodes j + 1 and n - j and the two bottom
    nodes below those of block j - 1, the largest for j = 0, so its top
    interval holds every later block's tops and its bottoms lie above
    theirs.  The other blocks form a stretched identity, with sizes of one
    to three, on the top and bottom nodes left in between; their tops share
    no point.  ``rotate`` = j moves the top interval of the j-th of them
    behind those of the next two, a 231 pattern that breaks the factor
    order.
    """
    sizes = [rng.randint(1, 3) for _ in range(blocks - nested)]
    m = sum(sizes)
    n = m + 2 * nested
    order = list(range(len(sizes)))
    if rotate is not None:
        order[rotate : rotate + 3] = order[rotate + 1 : rotate + 3] + [rotate]
    starts = [sum(sizes[:j]) for j in range(len(sizes))]
    tops, lo = [0] * len(sizes), nested
    for j in order:
        tops[j] = ((1 << sizes[j]) - 1) << lo
        lo += sizes[j]
    out = [(t, ((1 << s) - 1) << start) for t, s, start in zip(tops, sizes, starts)]
    out += [((1 << j) | (1 << (n - 1 - j)), 3 << (n - 2 - 2 * j)) for j in range(nested)]
    return PartitionDiagram(n, out)
