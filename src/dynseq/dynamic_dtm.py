"""Dynamic and sequential distance to monotonicity.

The 2-approximation maintains a maximal set of disjoint inversion pairs S:
|S| <= DTM <= 2|S|.  The unmatched elements are increasing in both index
and value, so one value-ordered tree serves every neighbor query.

From a cover (a set of elements whose removal leaves the array increasing)
the exact DTM is recovered two ways: the vertex-cover route forces
high-degree elements and solves a quadratic-size residual, and the label
route groups unmatched elements by which cover elements they invert with
(at most 2k+1 classes), collapses each class to one weighted super-element,
and solves a weighted instance of size O(k).

The dynamic (1+eps) engine recomputes the exact value d at the start of
each block generation and reports d + a after a inserts.  An insert raises
the optimum by at most one and a delete never raises it, so d + a is an
upper bound, and a generation of floor(eps*d/(1+eps)) operations keeps it
within (1+eps) of the optimum (``_DtmBlock`` gives the proof).  The report
is capped at the array length, which the optimum never exceeds.  The
recompute, ``InversionMatching.exact_dtm``, runs the label route on the
live matching in O(k log n) for k matched elements, in the ranks of the
unmatched tree: it never visits the n - k unmatched ones one by one, and
looks up no positions.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from operator import attrgetter, itemgetter
from typing import Optional, Sequence

from .block_scheduler import GeneratorBlock, WrappedEstimator
from .classic import heaviest_increasing, lis_length, weighted_his
from .indexed_sequence import INSERT, IndexedSeq, Node, Operation, Seq
from .work import WorkMeter


class CoverContractError(ValueError):
    """The provided element set does not leave an increasing remainder."""


# ---------------------------------------------------------------------------
# maximal disjoint inversion pairs


class InversionMatching:
    """Maximal set of disjoint inversion pairs under inserts and deletes.

    State: the live array (order-statistic tree), the unmatched elements in
    a value-ordered tree, and the pairing.  A new element needs only two
    probes: its value predecessor and successor among unmatched elements.
    Every live element is either unmatched or matched, never both, so the
    pairing dict holds the matched set, live, with no scan of the array.

    It is also the DTM engine's mirror: a generation reads the live
    matching once, when it is built, and keeps no copy.
    """

    def __init__(self, meter: Optional[WorkMeter] = None, seed: int = 0) -> None:
        self.meter = meter if meter is not None else WorkMeter()
        self.backing = IndexedSeq(meter=self.meter, seed=seed)
        self.tn = Seq(meter=self.meter)
        self._tn_node: dict[int, Node] = {}  # id(unmatched handle) -> its tn node
        self._mate: dict[int, Node] = {}     # id(matched handle) -> partner handle
        self.s_count = 0

    def __len__(self) -> int:
        return len(self.backing)

    def apply(self, op: Operation):
        """Apply one update; a rejected one changes nothing."""
        if op.kind == INSERT:
            h = self.backing.apply(op)
            self._place(h)
            return None
        h = self.backing._pop(op)
        node = self._tn_node.pop(id(h), None)
        if node is not None:
            self.tn.unlink(node)
        else:
            partner = self._mate.pop(id(h))
            del self._mate[id(partner)]
            self.s_count -= 1
            self._place(partner)
        return h.value

    def _place(self, h) -> None:
        """Match h against the unmatched set or add it there."""
        v = h.value
        tn = self.tn
        i, pred, succ = tn.value_neighbours(v)
        if pred is not None and pred.extra.label > h.label:
            mate_node = pred
        elif succ is not None and succ.extra.label < h.label:
            mate_node = succ
        else:
            mate_node = None
        if mate_node is not None:
            mate = mate_node.extra
            tn.unlink(mate_node)
            del self._tn_node[id(mate)]
            self._mate[id(h)] = mate
            self._mate[id(mate)] = h
            self.s_count += 1
        else:
            self._tn_node[id(h)] = tn.insert(i, v, extra=h)

    def approx2_query(self) -> tuple[int, int]:
        return self.s_count, 2 * self.s_count

    def matched_handles(self) -> list:
        return list(self._mate.values())

    def unmatched_double_monotone(self) -> bool:
        prev_pos = 0
        prev_val = None
        for node in self.tn.nodes():
            p = self.backing.position_of(node.extra)
            if p <= prev_pos or (prev_val is not None and node.value <= prev_val):
                return False
            prev_pos, prev_val = p, node.value
        return True

    def exact_dtm(self) -> int:
        """Exact DTM of the live array from the matching state, via labels.

        O(k log n) for k matched elements, in unmatched-rank space: two
        descents of the unmatched tree per matched element, one by order
        label and one by value, and no position lookup.  The unmatched
        elements increase in both position and value, so one rank orders
        them both ways; a label class [lo, hi) is keyed by its rank lo,
        and a matched element of value v by (sigma, v), sigma being the
        number of unmatched values below v.
        """
        tn = self.tn
        nlen = len(tn)
        matched = sorted(self.matched_handles(), key=attrgetter("label"))
        cuts = set()
        items = []
        for h in matched:
            v = h.value
            # unmatched elements before h, and below it in value
            rho = tn.rank_after(h.label) - 1
            sigma = tn.value_neighbours(v)[0] - 1
            if rho != sigma:
                cuts.add(rho)
                cuts.add(sigma)
            # just before the unmatched element of 0-based rank rho
            items.append((rho, 0, (sigma, 0, v), 1))
        bounds = sorted(cuts | {0, nlen})
        for a, b in zip(bounds, bounds[1:]):
            items.append((a, 1, (a, 1, 0), b - a))
        # stable: matched elements of equal rho keep their label order
        items.sort(key=itemgetter(0, 1))
        # keys are distinct and weights positive: the unchecked core serves
        best = heaviest_increasing([item[2] for item in items],
                                   [item[3] for item in items])
        return len(matched) + nlen - best


# ---------------------------------------------------------------------------
# exact DTM from a cover (pure-array forms)


def _split_cover(values: Sequence[int], cover_idx: Sequence[int]):
    n = len(values)
    k = len(cover_idx)
    in_cover = [False] * n
    for i in cover_idx:
        if not 0 <= i < n:
            raise CoverContractError(f"cover index {i} out of range")
        if in_cover[i]:
            raise CoverContractError(f"cover index {i} repeated")
        in_cover[i] = True
    n_idx = [i for i in range(n) if not in_cover[i]]
    n_vals = [values[i] for i in n_idx]
    for a, b in zip(n_vals, n_vals[1:]):
        if a >= b:
            raise CoverContractError("remainder is not increasing")
    return n_idx, n_vals


def _inversion_interval(n_idx, n_vals, i_s: int, v_s: int) -> tuple[int, int]:
    """Half-open range of unmatched ranks inverting with the cover element
    at index i_s, value v_s.  One side of (index cut, value cut) is empty."""
    rho = bisect_left(n_idx, i_s)
    sigma = bisect_left(n_vals, v_s)
    return (rho, sigma) if rho <= sigma else (sigma, rho)


def labels_reduction(values: Sequence[int], cover_idx: Sequence[int]):
    """Weighted reduced instance [(index, value, weight)] plus the number of
    label classes among the unmatched elements."""
    n_idx, n_vals = _split_cover(values, cover_idx)
    cuts = set()
    for s in cover_idx:
        lo, hi = _inversion_interval(n_idx, n_vals, s, values[s])
        if lo < hi:
            cuts.add(lo)
            cuts.add(hi)
    bounds = sorted(cuts | {0, len(n_idx)})
    items = [(s, values[s], 1) for s in cover_idx]
    classes = 0
    for a, b in zip(bounds, bounds[1:]):
        if a < b:
            classes += 1
            items.append((n_idx[a], n_vals[a], b - a))
    items.sort()
    return items, classes


def exact_from_cover_labels(values: Sequence[int], cover_idx: Sequence[int]) -> int:
    """Exact DTM given a cover; O(k log n) after the cover is known."""
    items, _ = labels_reduction(values, cover_idx)
    return len(values) - weighted_his([(v, w) for _, v, w in items])


def exact_from_cover_vc(values: Sequence[int], cover_idx: Sequence[int]) -> int:
    """Exact DTM given a cover, via the vertex-cover kernel: force elements
    of degree above k, then solve the remaining quadratic-size residual."""
    n_idx, n_vals = _split_cover(values, cover_idx)
    k = len(cover_idx)
    cover = list(cover_idx)

    def inverts(i: int, j: int) -> bool:
        if i > j:
            i, j = j, i
        return values[i] > values[j]

    deg = []
    spans = []
    for s in cover:
        lo, hi = _inversion_interval(n_idx, n_vals, s, values[s])
        spans.append((lo, hi))
        d = hi - lo
        for t in cover:
            if t != s and inverts(s, t):
                d += 1
        deg.append(d)
    forced = [s for s, d in zip(cover, deg) if d > k]
    forced_set = set(forced)
    keep_idx = set()
    for s, (lo, hi) in zip(cover, spans):
        if s in forced_set:
            continue
        keep_idx.add(s)
        for r in range(lo, hi):
            keep_idx.add(n_idx[r])
    residual = sorted(keep_idx)
    res_vals = [values[i] for i in residual]
    return len(forced) + (len(res_vals) - lis_length(res_vals))


# ---------------------------------------------------------------------------
# dynamic (1+eps) engine


class _DtmBlock(GeneratorBlock):
    """One generation: exact value d when it is built, then report d + a for
    the a inserts since.

    An insert raises the DTM by at most one; a delete never raises it and
    lowers it by at most one.  After a inserts and b deletes the DTM lies in
    [d - b, d + a], so d + a never underestimates it, and while
    a + b <= eps*d/(1+eps) it overestimates it by at most a factor 1 + eps:
    (1+eps)(d - b) - (d + a) = eps*d - (1+eps)*b - a
    >= eps*d - (1+eps)(a + b) >= 0.  Hence the capacity
    g = floor(eps*d/(1+eps)), and at least one, which keeps a zero exact.

    The scheduler builds the successor after s of this
    generation's g operations (nine tenths; all of them when g = 1), and
    the successor takes over having applied the other g - s.  Its own d is
    at least d - s, and g - s <= eps*d/(1+eps) - s <= eps*(d - s)/(1+eps),
    so those operations fit its capacity too.
    """

    def __init__(self, matching: InversionMatching, epsilon: float) -> None:
        super().__init__()
        # computed here, when the successor is built, in O(k log n), so the
        # block is built done: spreading it across the generation would need
        # a frozen copy of the matching, since the live one keeps moving,
        # and none is kept; so this step, not the plain updates, sets the
        # worst-case update time
        self.done = True
        self.d = matching.exact_dtm()
        self.a = 0
        self.capacity = max(1, math.floor(epsilon * self.d / (1.0 + epsilon)))

    def apply(self, op: Operation, ctx) -> None:
        if op.kind == INSERT:
            self.a += 1

    def query(self) -> int:
        return self.d + self.a


class DtmDynamic:
    """(1+eps)-approximate dynamic DTM.

    An update costs O(log n), except that one step per generation, the one
    that builds the successor, runs an O(k log n) ``exact_dtm`` for k
    matched elements; it is not yet spread over the generation.
    """

    def __init__(self, epsilon: float, meter: Optional[WorkMeter] = None,
                 seed: int = 0) -> None:
        if epsilon <= 0:
            raise ValueError("epsilon must be positive")
        self.epsilon = epsilon
        self.meter = meter if meter is not None else WorkMeter()
        # the factory closes over the local, not self: no reference cycle
        matching = self.matching = InversionMatching(meter=self.meter, seed=seed)
        self._wrapped = WrappedEstimator(
            lambda: _DtmBlock(matching, epsilon), matching)

    def __len__(self) -> int:
        return len(self.matching)

    def apply(self, op: Operation) -> None:
        self._wrapped.apply(op)

    def query(self) -> int:
        return min(self._wrapped.query(), len(self))

    def approx2_query(self) -> tuple[int, int]:
        return self.matching.approx2_query()

    def extract(self):
        raise NotImplementedError("the DTM engine reports values only")


# ---------------------------------------------------------------------------
# sequential algorithm


def stack_matching(values: Sequence[int]) -> list[tuple[int, int]]:
    """One linear pass: maximal disjoint inversion pairs as index pairs."""
    stack: list[int] = []
    pairs: list[tuple[int, int]] = []
    for j, v in enumerate(values):
        if stack and values[stack[-1]] > v:
            pairs.append((stack.pop(), j))
        else:
            stack.append(j)
    return pairs


def sequential_dtm(values: Sequence[int]) -> int:
    """Linear-pass 2-approximation refined to the exact value.

    The stack pass yields the cover; when it is small (at most sqrt(n)
    pairs) the label route is the intended fast path, and at this scale the
    same exact route also serves the large-cover branch.
    """
    pairs = stack_matching(values)
    cover = [i for p in pairs for i in p]
    return exact_from_cover_labels(values, cover)
