"""Partition diagrams and the partition monoid/algebra.

A partition diagram of order n is a set-partition of the 2n nodes
{1, ..., n, 1', ..., n'}, drawn with 1..n on a top row and the primed
copies 1'..n' on a bottom row.  The parts of the set-partition are called
blocks.  Two diagrams are equal exactly when they induce the same
set-partition; no drawing data is kept.

Node convention used throughout the package: a node is a nonzero integer,
where +i means top node i and -i means bottom node i'.  So the block
{2, 3, 4', 5'} is written in Python as {2, 3, -4, -5}.  The text format
writes bottom nodes with a trailing apostrophe, e.g. "{1,4|2,3,4',5'}",
and the parser accepts "-4" as a synonym for "4'".

Internally a block is a pair of bit masks (top_mask, bottom_mask), bit i-1
set when index i belongs to the block.  Python integers put no cap on the
order.  The kernels, the text parser included, work on masks, not node
lists; the constructor checks validity by OR and sum.  Signed nodes are
checked in one place, ``_block_masks``, which names the first zero,
out-of-range or repeated node of a block.  The text layer reads node
names and their bits from cached tables, one per power of two to 1024:
``format_diagram`` looks names up, and ``parse_diagram`` sums a block's
name bits, reading token by token only other spellings ("-4", "04"),
larger indices and faulty blocks.  Every block read off the table hands
its signed nodes to ``_block_masks``; the token reader names only an
empty block or a malformed token.
``compose`` maps the middle row to d2's blocks once per call;
``algebra_multiply`` does so once per right-hand term.
Blocks are kept in a canonical order (sorted by least node, all top nodes
before all bottom nodes), so equal diagrams compare and hash equal.
"""

from __future__ import annotations

from functools import cache
from typing import Callable, Iterable, Iterator, Mapping

__all__ = [
    "PartitionDiagram",
    "canonicalize",
    "compose",
    "identity_diagram",
    "embed_permutation",
    "enumerate_diagrams",
    "parse_diagram",
    "format_diagram",
    "to_dot",
    "XiPoly",
    "AlgebraElement",
    "algebra_multiply",
]


def _mask(indices: Iterable[int]) -> int:
    m = 0
    for i in indices:
        m |= 1 << (i - 1)
    return m


def _bits(mask: int) -> Iterator[int]:
    """Yield the 1-based indices of the set bits, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length()
        mask ^= low


def _signed(block: tuple[int, int]) -> frozenset[int]:
    t, b = block
    return frozenset(_bits(t)) | frozenset(-i for i in _bits(b))


def _block_key(order: int) -> Callable[[tuple[int, int]], int]:
    # Canonical node order is top 1 < ... < top n < bottom 1 < ... < bottom n.
    return lambda blk: blk[0] & -blk[0] or (blk[1] & -blk[1]) << order


def _pad_blocks(blocks: Iterable[tuple[int, int]], order: int) -> list[tuple[int, int]]:
    """Extend a partial block list with singletons for every uncovered node; the order is checked first."""
    if order < 0:
        raise ValueError("order must be nonnegative")
    out = list(blocks)
    seen_t = seen_b = 0
    for t, b in out:
        seen_t |= t
        seen_b |= b
    full = (1 << order) - 1
    for i in _bits(full & ~seen_t):
        out.append((1 << (i - 1), 0))
    for i in _bits(full & ~seen_b):
        out.append((0, 1 << (i - 1)))
    return out


# Writes the slots in __init__ and the hash on first use, past the __setattr__ that forbids it.
_set = object.__setattr__


class PartitionDiagram:
    """An immutable partition diagram of a fixed order.

    ``blocks`` is a tuple of (top_mask, bottom_mask) pairs in canonical
    order.  Construct diagrams through :func:`canonicalize`,
    :func:`parse_diagram`, or the generators in this module rather than
    assembling masks by hand.  The constructor is the one validator: it
    raises ``ValueError`` on an empty block, a node index out of range,
    overlapping blocks, or nodes left uncovered, naming the first of these
    faults in that order.  A row passes when its masks both OR and sum to
    the full row: only disjoint masks in range do.
    """

    __slots__ = ("order", "blocks", "_hash")

    def __init__(self, order: int, blocks: Iterable[tuple[int, int]]):
        if order < 0:
            raise ValueError("order must be nonnegative")
        full = (1 << order) - 1
        blist = sorted(blocks, key=_block_key(order))
        seen_t = seen_b = sum_t = sum_b = 0
        for t, b in blist:
            seen_t |= t
            seen_b |= b
            sum_t += t
            sum_b += b
        if (0, 0) in blist:
            raise ValueError("empty block")
        if (seen_t | seen_b) & ~full:  # a negative mask sets the sign bit
            raise ValueError(f"node index out of range 1..{order}")
        if sum_t != seen_t or sum_b != seen_b:  # masks in range sum to their OR iff disjoint
            raise ValueError("blocks overlap")
        if seen_t != full or seen_b != full:
            raise ValueError("blocks do not cover all 2n nodes")
        canonical = tuple(blist)
        _set(self, "order", order)
        _set(self, "blocks", canonical)
        _set(self, "_hash", None)  # filled by the first __hash__

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"PartitionDiagram is immutable; cannot set {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"PartitionDiagram is immutable; cannot delete {name!r}")

    def __reduce__(self):
        # Pickle and copy rebuild through __init__, which may write the slots.
        return PartitionDiagram, (self.order, self.blocks)

    def block_sets(self) -> tuple[frozenset[int], ...]:
        """Blocks as frozensets of signed nodes (+i top, -i bottom)."""
        return tuple(map(_signed, self.blocks))

    def propagation_number(self) -> int:
        """Number of blocks containing nodes of both rows."""
        return sum(1 for t, b in self.blocks if t and b)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PartitionDiagram):
            return NotImplemented
        return self.order == other.order and self.blocks == other.blocks

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = hash((self.order, self.blocks))
            _set(self, "_hash", h)
        return h

    def __str__(self) -> str:
        return format_diagram(self)

    def __repr__(self) -> str:
        return f"parse_diagram({format_diagram(self)!r}, order={self.order})"


def canonicalize(raw_blocks: Iterable[Iterable[int]], order: int) -> PartitionDiagram:
    """Build the canonical diagram from blocks of signed nodes.

    Nodes not mentioned by any block become singletons.  Raises
    ``ValueError`` if the order is negative (checked first), if a node
    repeats, is zero, or lies outside 1..order, or if a block is empty.

    >>> canonicalize([{2, -1}, {1, 2}], 2)
    Traceback (most recent call last):
        ...
    ValueError: blocks overlap
    """
    return PartitionDiagram(order, _pad_blocks((_block_masks(raw, order) for raw in raw_blocks), order))


def _block_masks(nodes: Iterable[int], order: int) -> tuple[int, int]:
    """One block's (top_mask, bottom_mask), or the ``ValueError`` naming its first bad or repeated node."""
    t = b = 0
    for node in nodes:
        if node == 0:
            raise ValueError("node 0 is not valid; nodes are +i (top) or -i (bottom)")
        i = abs(node)
        if i > order:
            raise ValueError(f"node index {i} out of range 1..{order}")
        bit = 1 << (i - 1)
        if node > 0:
            if t == (t := t | bit):  # the bit was set already
                raise ValueError(f"duplicate node {i} in block")
        elif b == (b := b | bit):
            raise ValueError(f"duplicate node {i}' in block")
    return t, b


def identity_diagram(order: int) -> PartitionDiagram:
    """The diagram with blocks {i, i'} for every i."""
    return PartitionDiagram(order, [(1 << i, 1 << i) for i in range(order)])


def _permutation(word: Iterable[int]) -> tuple[int, ...]:
    w = tuple(word)
    if sorted(w) != list(range(1, len(w) + 1)):
        raise ValueError("word is not a permutation of 1..n")
    return w


def embed_permutation(word: Iterable[int]) -> PartitionDiagram:
    """Diagram of a permutation p: blocks {i, p(i)'} for i = 1..n."""
    w = _permutation(word)
    n = len(w)
    return PartitionDiagram(n, [(1 << i, 1 << (w[i] - 1)) for i in range(n)])


def compose(d1: PartitionDiagram, d2: PartitionDiagram) -> tuple[PartitionDiagram, int]:
    """Monoid product d1 after stacking on top of d2.

    d1's bottom row is identified with d2's top row, connected components
    are read off, and the middle row is discarded.  Returns the resulting
    diagram together with the number of components lying entirely in the
    middle row (the exponent of the parameter in the algebra product).
    """
    if d1.order != d2.order:
        raise ValueError("diagrams must have the same order")
    return _compose(d1, d2, _owner(d2))


def _owner(d2: PartitionDiagram) -> list[int]:
    """Middle position -> the index of the d2 block whose top holds it."""
    owner = [0] * d2.order
    for j, (t, _) in enumerate(d2.blocks):
        while t:
            low = t & -t
            owner[low.bit_length() - 1] = j
            t ^= low
    return owner


def _compose(d1: PartitionDiagram, d2: PartitionDiagram, owner: list[int]) -> tuple[PartitionDiagram, int]:
    """:func:`compose` given ``_owner(d2)``, which ``algebra_multiply`` builds once per right factor."""
    # Union-find over d2's blocks, each root holding its component's outer masks;
    # a d1 block joins the d2 blocks its bottom meets, one step per block met.
    tops = [t for t, _ in d2.blocks]
    up = [0] * len(tops)
    down = [b for _, b in d2.blocks]
    parent = list(range(len(tops)))
    blocks = []
    for t, b in d1.blocks:
        if not b:
            blocks.append((t, 0))
            continue
        root = -1
        while b:
            j = owner[(b & -b).bit_length() - 1]
            b &= ~tops[j]
            while parent[j] != j:
                parent[j] = j = parent[parent[j]]  # path halving
            if root < 0:
                root = j
                up[root] |= t
            elif j != root:
                parent[j] = root
                up[root] |= up[j]
                down[root] |= down[j]
    roots = [(up[j], down[j]) for j, r in enumerate(parent) if r == j]
    blocks += [blk for blk in roots if blk != (0, 0)]
    return PartitionDiagram(d1.order, blocks), roots.count((0, 0))


def _rgs_strings(length: int, prefix: tuple[int, ...] = ()) -> Iterator[tuple[int, ...]]:
    """Restricted growth strings of the given length extending ``prefix``.

    A restricted growth string satisfies a[0] == 0 and
    a[i] <= max(a[:i]) + 1; each one encodes a set-partition of
    {0, ..., length-1} by assigning every element its class id.
    """
    if len(prefix) > length:
        raise ValueError("prefix longer than the string")
    used = 0  # classes used so far; the next letter is at most this
    for v in prefix:
        if not 0 <= v <= used:
            raise ValueError("invalid restricted growth prefix")
        used = max(used, v + 1)
    if len(prefix) == length:
        yield tuple(prefix)
        return
    last = length - 1
    stack = [(tuple(prefix), used)]
    while stack:
        word, used = stack.pop()
        if len(word) == last:
            for v in range(used + 1):
                yield word + (v,)
        else:  # pushed in reverse, so they pop in lexicographic order
            for v in range(used, -1, -1):
                stack.append((word + (v,), max(used, v + 1)))


def _diagram_from_rgs(order: int, rgs: tuple[int, ...]) -> PartitionDiagram:
    t_masks: list[int] = []
    b_masks: list[int] = []
    for pos, cls in enumerate(rgs):
        if cls == len(t_masks):
            t_masks.append(0)
            b_masks.append(0)
        if pos < order:
            t_masks[cls] |= 1 << pos
        else:
            b_masks[cls] |= 1 << (pos - order)
    return PartitionDiagram(order, zip(t_masks, b_masks))


def enumerate_diagrams(order: int, prefix: tuple[int, ...] = ()) -> Iterator[PartitionDiagram]:
    """Yield every diagram of the order exactly once.

    Enumeration runs over restricted growth strings on the 2n nodes taken
    in canonical order (top 1..n, then bottom 1..n), so there are
    Bell(2n) diagrams in total.  ``prefix`` restricts the run to strings
    extending it, which partitions the space for parallel scans.
    """
    if order < 0:
        raise ValueError("order must be nonnegative")
    for rgs in _rgs_strings(2 * order, prefix):
        yield _diagram_from_rgs(order, rgs)


# --- text format ----------------------------------------------------------
#
#   diagram  ::=  "{" "}"  |  "{" block ("|" block)* "}"
#   block    ::=  node ("," node)*
#   node     ::=  INT  |  INT "'"  |  "-" INT
#
# Whitespace is ignored everywhere.  "{}" denotes the all-singleton
# diagram; singleton blocks may be omitted and are restored on parse.


# A bottom bit is an int of about 2*capacity bits, so a table's bytes grow
# as capacity squared; nodes past this limit are named and read one by one.
_NAMES_LIMIT = 1024


@cache
def _node_names(capacity: int) -> tuple[int, list[str], list[str], dict[str, int]]:
    """Names for indices 1..capacity and their bits, as ``(capacity, tops, bottoms, bits)``.

    ``tops[i]`` is ``"i"`` and ``bottoms[i]`` is ``"i'"`` (index 0 is
    unused).  ``bits`` maps ``"i"`` to ``1 << (i-1)`` and ``"i'"`` to
    ``1 << (capacity+i-1)``, so the sum over a block's names holds its
    top mask below bit ``capacity`` and its bottom mask above.  No caller
    may change the cached lists or dict.
    """
    tops = [str(i) for i in range(capacity + 1)]
    bottoms = [f"{i}'" for i in range(capacity + 1)]
    bits = {tops[i]: 1 << (i - 1) for i in range(1, capacity + 1)}
    bits.update((bottoms[i], 1 << (capacity + i - 1)) for i in range(1, capacity + 1))
    return capacity, tops, bottoms, bits


def _names_for(order: int) -> tuple[int, list[str], list[str], dict[str, int]]:
    """The name table of the least power of two at least ``order``, capped at the limit."""
    return _node_names(min(1 << max(order - 1, 0).bit_length(), _NAMES_LIMIT))


def parse_diagram(text: str, order: int) -> PartitionDiagram:
    """Parse the text form of a diagram at the given order.

    On bad text, the ``ValueError`` names the fault of the first faulty
    block in reading order; within a block, a malformed token is named
    before a bad or repeated index.  Overlap between blocks is named only
    when every block reads well.

    >>> parse_diagram("{1,2 | 2'}", 2) == parse_diagram("{1,2|1'|2'}", 2)
    True
    """
    if order < 0:
        raise ValueError("order must be nonnegative")
    compact = "".join(text.split())
    if not (compact.startswith("{") and compact.endswith("}")):
        raise ValueError("diagram text must be enclosed in braces")
    body = compact[1:-1]
    capacity, _, _, bits = _names_for(order)
    full = (1 << min(order, capacity)) - 1
    rows = full | full << capacity  # the bits of the names of nodes up to the order
    bit = bits.__getitem__
    blocks = []
    for part in body.split("|") if body else ():
        tokens = part.split(",")
        try:
            s = sum(map(bit, tokens))
        except KeyError:
            s = -1  # not a table name; -1 never lies inside rows
        # Only distinct powers of two sum to as many bits as there are terms.
        if s | rows == rows and s.bit_count() == len(tokens):
            blocks.append((s & full, s >> capacity))
        else:
            blocks.append(_read_block(part, order))
    return PartitionDiagram(order, _pad_blocks(blocks, order))


def _read_block(part: str, order: int) -> tuple[int, int]:
    """One block's masks read token by token, or the ``ValueError`` naming its fault.

    This is the path for the spellings the name table lacks (``-i``,
    leading zeros, indices past its capacity) and for every faulty block.
    A malformed token is named at once; once every token reads well, the
    block's signed nodes go to :func:`_block_masks`, which names a zero,
    out-of-range or repeated node.
    """
    if not part:
        raise ValueError("empty block in diagram text")
    nodes = []
    for token in part.split(","):
        digits = token.removesuffix("'")
        if digits == token:
            digits = token.removeprefix("-")
        if not (digits.isascii() and digits.isdigit()):
            raise ValueError(f"bad node token {token!r}")
        nodes.append(int(digits) if digits == token else -int(digits))
    return _block_masks(nodes, order)


def _read_int(text: str) -> int:
    """``int(text)`` for an optional ``-`` then ASCII digits, as node tokens are read; else ``ValueError``."""
    digits = text.removeprefix("-")
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(f"bad integer {text!r}")
    return int(text)


def format_diagram(diagram: PartitionDiagram) -> str:
    """Canonical text form; inverse of :func:`parse_diagram` on its output."""
    order = diagram.order
    capacity, tops, bottoms, _ = _names_for(order)
    if order > capacity:  # past the tables' limit: name the rest for this call
        tops = tops + [str(i) for i in range(capacity + 1, order + 1)]
        bottoms = bottoms + [f"{i}'" for i in range(capacity + 1, order + 1)]
    parts = []
    for t, b in diagram.blocks:
        names = []
        while t:
            low = t & -t
            names.append(tops[low.bit_length()])
            t ^= low
        while b:
            low = b & -b
            names.append(bottoms[low.bit_length()])
            b ^= low
        parts.append(",".join(names))
    return "{" + "|".join(parts) + "}"


def to_dot(diagram: PartitionDiagram) -> str:
    """Graphviz source: two ranked rows, each block drawn as a chain."""
    n = diagram.order
    lines = [
        "graph diagram {",
        "  node [shape=circle];",
        "  edge [dir=none];",
    ]
    tops = " ".join(f't{i} [label="{i}"];' for i in range(1, n + 1))
    bots = " ".join(f"b{i} [label=\"{i}'\"];" for i in range(1, n + 1))
    lines.append("  { rank=source; " + tops + " }")
    lines.append("  { rank=sink; " + bots + " }")
    if n > 1:
        order_top = " -- ".join(f"t{i}" for i in range(1, n + 1))
        order_bot = " -- ".join(f"b{i}" for i in range(1, n + 1))
        lines.append(f"  {order_top} [style=invis];")
        lines.append(f"  {order_bot} [style=invis];")
    for t, b in diagram.blocks:
        chain = [f"t{i}" for i in _bits(t)] + [f"b{i}" for i in _bits(b)]
        if len(chain) > 1:
            lines.append("  " + " -- ".join(chain) + ";")
    lines.append("}")
    return "\n".join(lines) + "\n"


class XiPoly:
    """A polynomial in the algebra parameter xi, exact integer coefficients.

    ``coeffs[k]`` is the coefficient of xi**k; trailing zeros are stripped,
    so the zero polynomial has an empty coefficient tuple.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[int] = ()):
        cs = list(coeffs)
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs: tuple[int, ...] = tuple(cs)

    @classmethod
    def xi_power(cls, exponent: int) -> "XiPoly":
        if exponent < 0:
            raise ValueError("exponent must be nonnegative")
        return cls([0] * exponent + [1])

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __add__(self, other: "XiPoly") -> "XiPoly":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return XiPoly(out)

    def __mul__(self, other: "XiPoly") -> "XiPoly":
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return XiPoly()
        out = [0] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            for j, cb in enumerate(b):
                out[i + j] += ca * cb
        return XiPoly(out)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, XiPoly):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __repr__(self) -> str:
        return f"XiPoly({self.coeffs!r})"

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        terms = []
        for k, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if k == 0:
                terms.append(str(c))
            else:
                base = "xi" if k == 1 else f"xi^{k}"
                terms.append(base if c == 1 else f"{c}*{base}")
        return " + ".join(terms)


def _as_poly(coeff: "XiPoly | int") -> XiPoly:
    if isinstance(coeff, XiPoly):
        return coeff
    return XiPoly([coeff])


class AlgebraElement:
    """A finite xi-polynomial combination of diagrams of one order.

    The product of two diagrams is xi**l times their monoid composite,
    where l counts the components removed from the middle row; it extends
    bilinearly to sums.
    """

    __slots__ = ("order", "terms")

    def __init__(self, order: int, terms: Mapping[PartitionDiagram, "XiPoly | int"]):
        clean: dict[PartitionDiagram, XiPoly] = {}
        for diagram, coeff in terms.items():
            if diagram.order != order:
                raise ValueError("term order does not match element order")
            poly = _as_poly(coeff)
            if poly:
                clean[diagram] = poly
        self.order = order
        self.terms = clean

    @classmethod
    def from_diagram(cls, diagram: PartitionDiagram, coeff: "XiPoly | int" = 1) -> "AlgebraElement":
        return cls(diagram.order, {diagram: coeff})

    def __add__(self, other: "AlgebraElement") -> "AlgebraElement":
        if self.order != other.order:
            raise ValueError("elements must have the same order")
        merged = dict(self.terms)
        for diagram, poly in other.terms.items():
            merged[diagram] = merged.get(diagram, XiPoly()) + poly
        return AlgebraElement(self.order, merged)

    def __mul__(self, other: "AlgebraElement") -> "AlgebraElement":
        return algebra_multiply(self, other)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, AlgebraElement):
            return NotImplemented
        return self.order == other.order and self.terms == other.terms

    def __repr__(self) -> str:
        if not self.terms:
            return f"AlgebraElement({self.order}, {{}})"
        parts = [
            f"({poly})*{format_diagram(d)}"
            for d, poly in sorted(self.terms.items(), key=lambda kv: format_diagram(kv[0]))
        ]
        return " + ".join(parts)


def algebra_multiply(a: AlgebraElement, b: AlgebraElement) -> AlgebraElement:
    """Bilinear extension of the diagram product xi**l * (d1 composed d2)."""
    if a.order != b.order:
        raise ValueError("elements must have the same order")
    out: dict[PartitionDiagram, XiPoly] = {}
    right = [(d2, p2, _owner(d2)) for d2, p2 in b.terms.items()]
    for d1, p1 in a.terms.items():
        for d2, p2, owner in right:
            composite, middle = _compose(d1, d2, owner)
            contribution = p1 * p2 * XiPoly.xi_power(middle)
            if composite in out:
                out[composite] = out[composite] + contribution
            else:
                out[composite] = contribution
    return AlgebraElement(a.order, out)
