"""Independent reference answers and output checks for the benchmark.

Every check here returns True or False and never raises on a wrong or
malformed result, so a bad output is counted as a failure instead of
stopping the run.  Nothing in this file calls the library's sorting or
census code: the references are written out from their definitions.
"""

from __future__ import annotations

from collections import Counter

# Sortable diagrams per order, computed, not from paper: the package's own
# exhaustive census at orders 0..5.  Kept here so the benchmark does not
# depend on where the package pins its copy.
SORTABLE_COUNTS = {0: 1, 1: 1, 2: 3, 3: 12, 4: 56, 5: 297}


def bell(m: int) -> int:
    """Bell number B(m), the number of set partitions of m points."""
    row = [1]
    for _ in range(m):
        nxt = [row[-1]]
        for x in row:
            nxt.append(nxt[-1] + x)
        row = nxt
    return row[0]


def stack_sort(word) -> tuple[int, ...]:
    """One left-to-right pass through a stack that pops smaller tops first."""
    stack: list[int] = []
    out: list[int] = []
    for x in word:
        while stack and stack[-1] < x:
            out.append(stack.pop())
        stack.append(x)
    out.extend(reversed(stack))
    return tuple(out)


def signature(blocks) -> Counter:
    """Multiset of (top size, bottom size) over the blocks."""
    return Counter((t.bit_count(), b.bit_count()) for t, b in blocks)


def check_census(row, n: int) -> bool:
    """A census row must examine Bell(2n) diagrams and find the pinned count."""
    try:
        return row.n == n and row.total == bell(2 * n) and row.sortable == SORTABLE_COUNTS[n]
    except (AttributeError, KeyError):
        return False


def check_sorted_diagram(source, image) -> bool:
    """Structural facts every sort image keeps.

    The order and the multiset of block signatures are unchanged, no
    non-singleton bottom set moves, and a diagram with no propagating block
    is returned as it was.
    """
    try:
        if image.order != source.order:
            return False
        if signature(image.blocks) != signature(source.blocks):
            return False
        bottoms = {b for _, b in source.blocks}
        for t, b in image.blocks:
            if b and (t | b).bit_count() > 1 and b not in bottoms:
                return False
        if not any(t and b for t, b in source.blocks):
            return image == source
        return True
    except (AttributeError, TypeError):
        return False


def check_sorted_permutation(ds, word, image) -> bool:
    """The diagram image of a permutation is the embedded stack-sorted word."""
    try:
        return image == ds.embed_permutation(stack_sort(word))
    except (AttributeError, TypeError, ValueError):
        return False


def stretch_masks(small_blocks, parts: list[list[int]], order: int) -> list[tuple[int, int]]:
    """Blocks of the stretch of a diagram, built straight from the masks.

    Index i of the small diagram becomes the set ``parts[i - 1]`` on both
    rows, and every index up to ``order`` that no part uses becomes the
    vertical block {i, i'}.
    """
    part_masks = [sum(1 << (x - 1) for x in p) for p in parts]
    out = []
    for t, b in small_blocks:
        tm = bm = 0
        for i, pm in enumerate(part_masks):
            if t >> i & 1:
                tm |= pm
            if b >> i & 1:
                bm |= pm
        out.append((tm, bm))
    used = 0
    for pm in part_masks:
        used |= pm
    for i in range(order):
        if not used >> i & 1:
            out.append((1 << i, 1 << i))
    return out


def check_compose_triple(ds, a, b, c, product) -> bool:
    """Associativity and middle-component balance, starting from ``product``.

    ``product`` is the timed output of compose(a, b); the other three
    products are computed here.
    """
    try:
        ab, l_ab = product
        bc, l_bc = ds.compose(b, c)
        left, l_left = ds.compose(ab, c)
        right, l_right = ds.compose(a, bc)
        return left == right and l_ab + l_left == l_bc + l_right
    except (AttributeError, TypeError, ValueError):
        return False


def check_multiply_triple(ds, a, b, c, product) -> bool:
    """Associativity of the algebra product, starting from ``product`` = a * b."""
    try:
        return ds.algebra_multiply(product, c) == ds.algebra_multiply(a, ds.algebra_multiply(b, c))
    except (AttributeError, TypeError, ValueError):
        return False
