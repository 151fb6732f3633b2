"""Stack-sort permutations, then whole partition diagrams.

Run: python3 demos/02_stack_sorting.py
"""

from diagramsort import (
    embed_permutation,
    format_diagram,
    parse_diagram,
    sort_diagram,
    sort_diagram_traced,
    sort_word,
)

# The classic map on words: everything left of the largest letter, then
# everything right of it, then the letter itself, recursively.
print("sort 2 3 1   ->", sort_word((2, 3, 1)))
print("sort 5 4 3 2 1 6 ->", sort_word((5, 4, 3, 2, 1, 6)))

# Permutations embed as diagrams: i in the top row joins p(i)' below.
p = (3, 1, 2)
dp = embed_permutation(p)
print("embed", p, "=", format_diagram(dp))

# Sorting the diagram agrees with sorting the word and embedding the result.
assert sort_diagram(dp) == embed_permutation(sort_word(p))
print("sorted      =", format_diagram(sort_diagram(dp)))

# The same map runs on arbitrary diagrams.  Each step picks the block B
# whose bottom reaches farthest right, splits the rest into left, middle
# and right factors, recurses, and reassembles with fresh top labels.
big = parse_diagram("{1,2|3,5,7,2',4',6'|4,3'|6,7'|5',8'}", 8)
result, trace = sort_diagram_traced(big)
print("input  =", format_diagram(big))
# Each event holds the diagram's own blocks, (top_mask, bottom_mask)
# pairs with bit i-1 set when node i (or i') is in the block.
for event in trace:
    bottoms = event.block[1]
    chosen = "{" + ",".join(f"{i}'" for i in range(1, big.order + 1) if bottoms >> (i - 1) & 1) + "}"
    counts = [len(event.left), *map(len, event.middles), len(event.right)]
    print("  split at B with bottom", chosen, "- blocks per factor L, M1..Mk, R:", counts)
print("output =", format_diagram(result))

# Identity diagrams are fixed points, like already-sorted words.
assert sort_diagram(embed_permutation((1, 2, 3, 4))) == embed_permutation((1, 2, 3, 4))
