"""How the map moves basis words: carry arithmetic made visible."""

import numpy as np

from odolab import Symbol, build_wl, predecessor, successor
from odolab.fock import enumerate_basis

n, d, depth = 2, 1, 3

# counting in base n with least significant digit first:
# bump the first letter that is not n, reset the prefix to 1s
print("successor chains over the alphabet {1, 2}:")
word = (1, 1)
for _ in range(4):
    try:
        nxt = successor(word, n)
    except Exception as exc:
        print("  %-8s -> refused: %s" % (word, exc))
        break
    print("  %-8s -> %s" % (word, nxt))
    word = nxt

print("predecessor undoes it:")
print("  %-8s -> %s" % ((1, 1, 2), predecessor((1, 1, 2), n)))

# a symbol with a constant part and a one-step part
sym = Symbol(n, d, {((), 1, 1): 0.6, ((1,), 1, 1): 0.8})
w = build_wl(sym, depth)
basis = w.domain
codomain = w.codomain

print("\ncolumns of the map at depth %d (n=%d, d=%d):" % (depth, n, d))
for col in range(min(basis.size, 8)):
    word, slot = basis.pair(col)
    column = w.to_csr()[:, [col]].tocoo()
    entries = sorted(zip(column.row.tolist(), column.data.tolist()))
    targets = ", ".join(
        "%.2f at %s" % (val.real, codomain.pair(row)[0]) for row, val in entries
    )
    print("  %-12s -> %s" % (str(word), targets))

# vacuum column carries the symbol itself; plain words hop to their successor
print("\ncolumn norms (all equal the symbol column norm, nothing truncated):")
print(" ", np.round(w.column_norms(), 6))

print("\nbasis growth with depth (words times slots):")
for dd in range(5):
    print("  depth %d: %d" % (dd, enumerate_basis(n, dd, d).size))
