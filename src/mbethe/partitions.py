"""Ordered partitions of an index set into 2 or 3 labeled subsets, and the
engine that sums a term over them.

Splits are encoded as tuples of disjoint bitmasks covering a ground set and
are streamed in a fixed deterministic order, so sums over partitions are
reproducible and can be range-partitioned across workers (exact rational
addition is associative and commutative, hence any reduction order yields the
identical total).

A term returns either an unreduced integer pair (numerator, nonzero
denominator) or a rational (an int counts as one). The engine adds every term
into one integer pair per sum (per key, for keyed sums) and builds one
rational at the end, so a term pays no gcd unless it brings a new factor into
the sum's denominator.

The engine holds no formula: it imports no kernel, and every term it sums,
with the kernels and tables the term reads, comes from its caller.
"""

from __future__ import annotations

import multiprocessing
from dataclasses import dataclass
from itertools import islice
from math import gcd, lcm
from typing import Callable, Iterator, Sequence

from .errors import ConstraintError, WorkerExitError
from .scalars import Rat, SpectralSet

MAX_GROUND = 63  # bitmask encoding cap; desk experiments stay far below
# the largest cost (`actions.scalar_cost`) of a scalar sum the CLI runs:
# that of SPfin at n = m = 10, 2^20 splits and 2^22 block-table entries. A
# serial `run_bench` took 2.6 s and 72 MB at n+m = 18 and 17.8 s and 239 MB
# at n+m = 20 (Python 3.11, fractions, 2 cores; BENCH_spfin_terms.json)
MAX_SUM_COST = (1 << 20) + (1 << 22)


@dataclass(frozen=True)
class GroundSet:
    """Indices 0..n-1, each tagged with its source set label and source index."""

    origin: tuple = ()

    @staticmethod
    def from_sets(*sets: SpectralSet) -> "GroundSet":
        tags = []
        for s in sets:
            label = s.label or "x"
            tags.extend((label, i) for i in range(len(s)))
        return GroundSet(tuple(tags))

    @property
    def size(self) -> int:
        return len(self.origin)

    def tags(self, mask: int) -> list[str]:
        """Serialized sorted origin tags for a subset mask, e.g. ['u[0]', 'v[2]']."""
        return sorted(f"{lab}[{idx}]" for bit, (lab, idx)
                      in enumerate(self.origin) if mask >> bit & 1)


Split = tuple  # ordered tuple of 2 or 3 disjoint bitmasks covering the ground set


def _subsets_ascending(universe: int, card: int | None) -> Iterator[int]:
    """Subsets of a bitmask universe in ascending mask order.

    With a cardinality constraint, masks of that popcount are emitted in the
    same ascending order (Gosper's hack over a compacted universe).
    """
    if card is None and universe & (universe + 1) == 0:
        # bits 0..n-1: every mask is its own packed form
        yield from range(universe + 1)
        return
    bits = [b for b in range(universe.bit_length()) if universe >> b & 1]
    n = len(bits)
    if card is None:
        for packed in range(1 << n):
            yield _unpack(packed, bits)
        return
    if card < 0 or card > n:
        return
    if card == 0:
        yield 0
        return
    packed = (1 << card) - 1
    limit = 1 << n
    while packed < limit:
        yield _unpack(packed, bits)
        low = packed & -packed
        ripple = packed + low
        packed = ripple | ((packed ^ ripple) >> (low.bit_length() + 1))


def _unpack(packed: int, bits: list[int]) -> int:
    mask = 0
    b = 0
    while packed:
        if packed & 1:
            mask |= 1 << bits[b]
        packed >>= 1
        b += 1
    return mask


def _checked_cards(n: int, parts: int, cards: Sequence[int] | None):
    """`cards` as a tuple (or None), or ConstraintError for a bad split shape."""
    if n > MAX_GROUND:
        raise ConstraintError(f"ground set size {n} exceeds {MAX_GROUND}")
    if parts not in (2, 3):
        raise ConstraintError("only 2- or 3-part splits are supported")
    if cards is not None:
        cards = tuple(cards)
        if len(cards) != parts:
            raise ConstraintError("one cardinality per part is required")
        if any(k < 0 for k in cards) or sum(cards) != n:
            raise ConstraintError(
                f"cardinalities {cards} do not sum to ground size {n}")
    return cards


def count_splits(n: int, parts: int, cards: Sequence[int] | None = None) -> int:
    cards = _checked_cards(n, parts, cards)
    if cards is None:
        return parts ** n
    from math import comb
    total, remaining = 1, n
    for k in cards:
        total *= comb(remaining, k)
        remaining -= k
    return total


def enumerate_splits(ground: GroundSet | int, parts: int,
                     cards: Sequence[int] | None = None) -> Iterator[Split]:
    """Stream every ordered split of the ground set into `parts` subsets.

    Emission order is deterministic: ascending lexicographic in the masks of
    the non-first parts, so the all-in-part-one split comes first. With
    `cards` given, only splits with those per-part cardinalities are emitted
    (cards must sum to the ground size).
    """
    n = ground if isinstance(ground, int) else ground.size
    cards = _checked_cards(n, parts, cards)
    full = (1 << n) - 1
    if parts == 2:
        for m2 in _subsets_ascending(full, None if cards is None else cards[1]):
            yield (full ^ m2, m2)
    else:
        for m2 in _subsets_ascending(full, None if cards is None else cards[1]):
            rest = full ^ m2
            for m3 in _subsets_ascending(rest, None if cards is None else cards[2]):
                yield (rest ^ m3, m2, m3)


# below this many splits, forking a child costs more than it saves. An
# SPfin split costs about 5 us serially; on 2 cores, jobs=2 beat jobs=1 in
# 10 of 10 alternated pairs at 2^12 and 2^13 splits (median 1.38-1.53x) and
# in 5-6 of 10 at 2^11 (BENCH_spfin_terms.json)
MIN_POOL_SPLITS = 4096
# the most workers a sum may ask for: `split_sum` forks all but one of them
# at once, each a copy of the caller, so a mistyped count would start
# hundreds of processes; 64 is far above the cores of any machine this runs on
MAX_JOBS = 64


def split_sum(p: int, parts: int, term: Callable, cards: Sequence[int] | None = None,
              jobs: int = 1, keyed: bool = False):
    """Exact sum of term(*split) over enumerate_splits(p, parts, cards).

    `term` returns an unreduced integer pair (numerator, denominator) or a
    rational; a zero denominator raises ZeroDivisionError. With `keyed`, each
    term is added under the split's last mask, and a CoefficientMap of the
    nonzero sums is returned. With jobs > 1 and at least MIN_POOL_SPLITS
    splits, the split ranks are cut into `jobs` contiguous ranges: the caller
    sums the first, and one forked child per other range sums that range and
    sends its partial back through a pipe. A child inherits `term`, so
    nothing is pickled on the way in; its partial, or the error its range
    raised, is pickled on the way back. An error is re-raised in the caller
    as it is, and a child that exits without a reply raises WorkerExitError
    with its exit code; no child outlives the call. Exact addition makes the
    result identical at every worker count. More than MAX_JOBS workers
    raise ConstraintError before any split is summed.
    """
    if jobs > MAX_JOBS:
        raise ConstraintError(f"at most {MAX_JOBS} workers, got {jobs}")
    count = count_splits(p, parts, cards)
    if jobs <= 1 or count < MIN_POOL_SPLITS:
        return _range_sum(p, parts, term, cards, keyed, 0, None)
    jobs = min(jobs, count)
    bounds = [count * k // jobs for k in range(jobs + 1)]
    chunks = [(p, parts, term, cards, keyed, bounds[k], bounds[k + 1])
              for k in range(jobs)]
    # fork, named: the children must inherit the parent's module state, and
    # Python 3.14 moves the Linux default start method away from fork
    context = multiprocessing.get_context("fork")
    children = []
    try:
        for chunk in chunks[1:]:
            receiver, sender = context.Pipe(duplex=False)
            child = context.Process(target=_send_range_sum, args=(sender, chunk))
            child.start()
            sender.close()  # the child holds the only sender: EOF if it dies
            children.append((child, receiver))
        partials = [_range_sum(*chunks[0])]
        partials += [_receive(child, receiver) for child, receiver in children]
    except BaseException:
        for child, _ in children:
            child.terminate()
        raise
    finally:
        for child, receiver in children:
            receiver.close()
            child.join()
    if keyed:
        return CoefficientMap(item for part in partials for item in part.items())
    return sum(partials, Rat(0))


def _send_range_sum(sender, chunk) -> None:
    """In a child: send (True, the range's partial), or (False, the error
    its range raised)."""
    try:
        reply = True, _range_sum(*chunk)
    except Exception as exc:
        reply = False, exc
    sender.send(reply)


def _receive(child, receiver):
    """The partial a child sent; the error it sent, raised as it is; or
    WorkerExitError if it exited without sending."""
    try:
        ok, value = receiver.recv()
    except EOFError:
        child.join()
        raise WorkerExitError(child.exitcode) from None
    if not ok:
        raise value
    return value


def _range_sum(p, parts, term, cards, keyed, lo, hi):
    """split_sum over the splits ranked lo..hi-1 in emission order, as one
    rational (or one CoefficientMap)."""
    splits = islice(enumerate_splits(p, parts, cards), lo, hi)
    if keyed:
        sums = {}
        for split in splits:
            key = split[-1]
            sums[key] = _add_term(sums.get(key, (0, 1)), term(*split))
        return CoefficientMap((key, Rat(*total)) for key, total in sums.items())
    total = (0, 1)
    for split in splits:
        total = _add_term(total, term(*split))
    return Rat(*total)


def _add_term(total, value) -> tuple:
    """total + value, where total = (num, den) with den > 0 and value is an
    integer pair or a rational. When the term times den is an integer (the
    remainder says so), that integer is added to num; otherwise the term is
    reduced once, and den grows to the lcm of den and its denominator."""
    num, den = total
    tn, td = value if type(value) is tuple else (value.numerator, value.denominator)
    q, r = divmod(tn * den, td)
    if not r:
        return num + q, den
    g = gcd(tn, td) if td > 0 else -gcd(tn, td)
    tn, td = tn // g, td // g
    grown = lcm(den, td)
    return num * (grown // den) + tn * (grown // td), grown


def bits_of(mask: int) -> Iterator[int]:
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def mask_values(values: Sequence, mask: int) -> tuple:
    return tuple(values[b] for b in bits_of(mask))


class CoefficientMap:
    """Map from a surviving-subset bitmask to an exact rational coefficient.

    Absent keys mean coefficient 0; merging adds exactly. Equality ignores
    entries that are exactly zero.
    """

    def __init__(self, items=None):
        self._data: dict[int, Rat] = {}
        if items:
            for k, v in (items.items() if isinstance(items, dict) else items):
                self.add(k, v)

    def add(self, key: int, value) -> None:
        value = Rat(value)
        cur = self._data.get(key)
        new = value if cur is None else cur + value
        if new == 0:
            self._data.pop(key, None)
        else:
            self._data[key] = new

    def __getitem__(self, key: int) -> Rat:
        return self._data.get(key, Rat(0))

    def __iter__(self):
        return iter(sorted(self._data))

    def items(self):
        return [(k, self._data[k]) for k in sorted(self._data)]

    def __len__(self) -> int:
        return len(self._data)

    def __eq__(self, other) -> bool:
        if not isinstance(other, CoefficientMap):
            return NotImplemented
        return self._data == other._data

    def __repr__(self) -> str:
        inner = ", ".join(f"{k:#x}: {v}" for k, v in self.items())
        return f"CoefficientMap({{{inner}}})"
