"""Index bookkeeping for exterior and symmetric monomial bases.

Exterior monomials are strictly increasing index tuples; symmetric monomials
are exponent tuples.  All sign conventions for wedging and slot-removal live
here so every module agrees on them.
"""

from __future__ import annotations

from itertools import combinations


def ext_basis(n: int, k: int) -> list:
    """Strictly increasing k-tuples from range(n), lexicographic."""
    return [tuple(c) for c in combinations(range(n), k)]


def remove_slot(j: int, idx: tuple):
    """First-slot contraction: coefficient of removing j from lambda_idx.
    Returns (sign, tuple) or None if j not in idx."""
    if j not in idx:
        return None
    pos = idx.index(j)
    sign = -1 if pos % 2 else 1
    return sign, idx[:pos] + idx[pos + 1:]


def remove_slots(s: tuple, idx: tuple):
    """Contract lambda_s out of lambda_idx (both strictly increasing):
    sign(s, idx minus s) and the remaining indices, or None unless s is a
    subset of idx.  remove_slot(j, idx) is the case s = (j,)."""
    if not set(s) <= set(idx):
        return None
    rest = tuple(i for i in idx if i not in set(s))
    inversions = sum(1 for a in s for b in rest if a > b)
    return (-1) ** inversions, rest


def wedge_merge(a: tuple, b: tuple):
    """lambda_a wedge lambda_b for strictly increasing tuples a and b.
    Returns (sign, tuple) or None on repeats.  The sign is the parity of the
    shuffle sorting the concatenation, i.e. of the pairs x in a, y in b with
    x > y."""
    if set(a) & set(b):
        return None
    inversions = sum(1 for x in a for y in b if x > y)
    return (-1) ** inversions, tuple(sorted(a + b))


def sym_basis(n: int, m: int) -> list:
    """Exponent tuples of total degree m in n variables, lexicographic."""
    if n == 0:
        return [()] if m == 0 else []
    out = []

    def rec(prefix, rem, slots):
        if slots == 1:
            out.append(prefix + (rem,))
            return
        for e in range(rem, -1, -1):
            rec(prefix + (e,), rem - e, slots - 1)
    rec((), m, n)
    return sorted(out, reverse=True)


def sym_mul(e1: tuple, e2: tuple) -> tuple:
    return tuple(a + b for a, b in zip(e1, e2))


def unit_exp(n: int, j: int) -> tuple:
    return tuple(1 if i == j else 0 for i in range(n))
