"""Which diagrams sort to a stretched identity?  Count them all.

Run: python3 demos/04_sortability_census.py
"""

from diagramsort import (
    census_stretch_sortable,
    count_t_stack_sortable,
    format_diagram,
    is_sss_direct,
    is_sss_theorem,
    parse_diagram,
    sort_diagram,
)

# Two predicates answer the same question.  The direct one sorts the
# diagram and inspects the image; the structural one reads the answer off
# the blocks and the split trace without building the image.
good = parse_diagram("{1,3,2',3'|2,1'}", 3)
bad = parse_diagram("{1,2,3,4',5',6'|4,6,7,1',2',3'|5,8,9,7',8',9'}", 9)
for d in (good, bad):
    print(format_diagram(d))
    print("  sorts to", format_diagram(sort_diagram(d)))
    print("  direct:", is_sss_direct(d), " structural:", is_sss_theorem(d))
    assert is_sss_direct(d) == is_sss_theorem(d)

# The census counts sortable diagrams among all Bell(2n) of each order.
# Only the structural candidates, Fubini(n) of them, can be sortable, and
# the census counts those by an exact recursion on packed words, without
# building or sorting any; "states" is the size of its memo.  check=True
# also sorts every diagram as a brute-force oracle.  The sortable counts
# below (1, 1, 3, 12, 56, ...) are computed, not from paper.
print("n\ttotal\tcandidates\tsortable\tstates")
for n in range(21):
    row = census_stretch_sortable(n)
    print(f"{row.n}\t{row.total}\t{row.candidates}\t{row.sortable}\t{row.states}")
oracle = census_stretch_sortable(4, check=True)
print(f"brute-force oracle at order 4: {oracle.sortable} of {oracle.total} diagrams sorted")

# For comparison, the classical counts on permutations alone: sortable in
# one pass (Catalan) and in two passes.
one = [count_t_stack_sortable(n, 1) for n in range(1, 8)]
two = [count_t_stack_sortable(n, 2) for n in range(1, 8)]
print("1-pass sortable permutations:", one)
print("2-pass sortable permutations:", two)
