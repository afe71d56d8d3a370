"""The reference for `groebner._reduce_full`: its earlier body, kept verbatim.

That version pushed every term of its input onto the heap, reducible or
not.  `_reduce_full` now passes the leading terms that no basis lead
divides straight to the remainder, and returns a copy of the input when no
lead divides any term; the tests compare the two, remainder and scale, on
seeded inputs and on every chart's basis run.  Call it as
`reduce_full(terms, basis, codec, q, bud)`.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from math import gcd

from starquiver.groebner import _exponent_overflow


def reduce_full(terms, basis, codec, q: int, bud):
    """Full multivariate division of `terms` by `basis`: (remainder, scale).

    The remainder is descending, and it is the remainder of scale * terms:
    each ZZ step multiplies the work polynomial by a positive integer, whose
    product is scale (always 1 over F_q).  `basis` holds elements made by
    `_normalize`.
    """
    if not terms:
        return [], 1
    guard = codec.guard
    coeffs = dict(terms)
    heap = [-m for m, _ in terms]
    heapify(heap)
    out = []
    steps = 0
    scale = 1
    while heap:
        m = -heappop(heap)
        c = coeffs.pop(m, None)
        if c is None:
            continue
        for lead, lc, tail in basis:
            if lead <= m and ((m | guard) - lead) & guard == guard:
                break
        else:
            out.append((m, c))
            continue
        steps += 1
        if steps % 1024 == 0:
            bud.check_time()
        f = m - lead
        if not q:
            # scale the work polynomial so the lead cancels in ZZ; basis
            # leads are positive, so d > 0 and mult > 0
            d = gcd(c, lc)
            mult = lc // d
            c //= d
            if mult != 1:
                scale *= mult
                for k in coeffs:
                    coeffs[k] *= mult
                if out:
                    out = [(om, ov * mult) for om, ov in out]
        for t, tc in tail:
            k = t + f
            cur = coeffs.get(k, 0)  # stored coefficients are never 0
            v = cur - c * tc
            if q:
                v %= q
            if v:
                if not cur:
                    if k & guard:
                        _exponent_overflow(max(codec.decode(k)))
                    heappush(heap, -k)
                coeffs[k] = v
            elif cur:
                del coeffs[k]
    return out, scale
