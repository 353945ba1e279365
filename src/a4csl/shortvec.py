"""The enumeration budget, charged by counting.prime_class_reps, and the
Gram matrix of integer rows.  The exact short-vector search lives in the
tests, as the oracle of the generator search."""

from __future__ import annotations

from .errors import BudgetError


class NodeBudget:
    """Mutable unit counter shared by the searches of one enumeration."""

    __slots__ = ("limit", "used")

    def __init__(self, limit: int):
        self.limit = limit
        self.used = 0

    def charge(self) -> None:
        """Count one unit; BudgetError once the count passes the limit."""
        self.used += 1
        if self.used > self.limit:
            raise BudgetError(f"enumeration exceeded {self.limit} units")


def gram_of_basis(gram, rows):
    """Gram matrix B G B^T of lattice vectors given as integer rows, for a
    symmetric G.  Each row is read by its nonzero entries only, and only the
    upper triangle is summed."""
    n = len(rows)
    nonzero = [[(j, x) for j, x in enumerate(r) if x] for r in rows]
    gb = [[sum(x * gi[j] for j, x in nz) for gi in gram] for nz in nonzero]
    out = [[0] * n for _ in range(n)]
    for a in range(n):
        ga, oa = gb[a], out[a]
        for b in range(a, n):
            oa[b] = out[b][a] = sum(ga[j] * x for j, x in nonzero[b])
    return tuple(map(tuple, out))
