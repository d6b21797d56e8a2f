"""Batched replica placement: vectorized Algorithm 1 and §VII variants.

The one vectorized form of each placement rule; the scalar placers are
its oracle, and the two agree bit for bit:

* :class:`~repro.hashing.rehash.GuidPlacer` — hash, longest-prefix match
  through the table's :class:`~repro.bgp.interval_index.IntervalIndex`
  snapshot (exact vs. the trie by construction), re-hash the IP-hole
  residue with the same function index, deputy-AS fallback for
  exhausted chains;
* the :class:`~repro.hashing.asnum_placer.RosterPlacer` variants — hash
  modulo the participant roster (``ASNumberPlacer``) or through the
  cumulative weight distribution (``WeightedASPlacer``), each with its
  own ``slots`` rule.

The hash layer dispatches on the family: :class:`FastHasher` uses its
native ``hash_batch``; any other :class:`HashFamily` (e.g. the salted
SHA-256 reference family the resolver defaults to) falls back to a
per-value loop, which is still cheap because each GUID is hashed once
per replica chain instead of once per *lookup*.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple, Union

import numpy as np

from ..bgp.interval_index import HOLE
from ..hashing.asnum_placer import RosterPlacer
from ..hashing.hashers import FastHasher, HashFamily
from ..hashing.rehash import GuidPlacer

#: Loose GUID input: raw integer identifier values.
GuidValues = Union[Sequence[int], np.ndarray]

#: The shipped placement schemes: Algorithm 1 and the §VII roster variants.
Placer = Union[GuidPlacer, RosterPlacer]


def _hash_many(family: HashFamily, values: GuidValues, index: int) -> np.ndarray:
    """Apply hash function ``index`` to every value; returns ``uint64``.

    Bit-identical to looping :meth:`HashFamily.hash_one`; the
    :class:`FastHasher` branch uses the vectorized kernel.
    """
    if isinstance(family, FastHasher):
        arr = np.asarray(values)
        if arr.dtype == np.uint64:
            folded = arr  # already 64-bit: folding is the identity
        else:
            folded = FastHasher.fold_guids([int(v) for v in values])
        return family.hash_batch(folded, index)
    return np.asarray(
        [family.hash_one(int(v), index) for v in values], dtype=np.uint64
    )


def _rehash_many(
    family: HashFamily, addresses: np.ndarray, index: int
) -> np.ndarray:
    """Vectorized :meth:`HashFamily.rehash` over an address array."""
    if isinstance(family, FastHasher):
        return family.rehash_batch(addresses, index)
    return np.asarray(
        [family.rehash(int(v), index) for v in addresses], dtype=np.uint64
    )


def resolve_batch(
    placer: GuidPlacer, guid_values: GuidValues
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Vectorized :meth:`GuidPlacer.resolve_all` over many GUIDs.

    Returns ``(asns, attempts, via_deputy)`` of shape ``(n, K)`` — the
    hosting AS per replica chain, the number of hash applications used,
    and the deputy-fallback flag, exactly as the scalar placer computes
    them against ``placer.table`` as it stands now (its
    :meth:`~repro.bgp.table.GlobalPrefixTable.interval_index`); the batch
    is only valid until the table next mutates (BGP churn requires the
    scalar oracle).
    """
    index = placer.table.interval_index()
    values = (
        guid_values
        if isinstance(guid_values, np.ndarray)
        else list(guid_values)
    )
    n = len(values)
    k = placer.k
    family = placer.hash_family
    max_rehashes = placer.max_rehashes
    asns = np.full((n, k), HOLE, dtype=np.int64)
    attempts = np.zeros((n, k), dtype=np.int64)
    via_deputy = np.zeros((n, k), dtype=bool)

    for i in range(k):
        addresses = _hash_many(family, values, i)
        unresolved = np.arange(n)
        for attempt in range(1, max_rehashes + 1):
            owners = index.lookup_batch(addresses[unresolved])
            hit = owners != HOLE
            hit_rows = unresolved[hit]
            asns[hit_rows, i] = owners[hit]
            attempts[hit_rows, i] = attempt
            unresolved = unresolved[~hit]
            if len(unresolved) == 0:
                break
            if attempt < max_rehashes:
                addresses[unresolved] = _rehash_many(
                    family, addresses[unresolved], i
                )
        # Deputy fallback (≈0.03% of chains at M=10): the scalar
        # nearest-prefix trie search is fine at this volume.
        for row in unresolved.tolist():
            announcement, _dist = placer.table.nearest(int(addresses[row]))
            asns[row, i] = announcement.asn
            attempts[row, i] = max_rehashes
            via_deputy[row, i] = True
    return asns, attempts, via_deputy


def _roster_batch(placer: RosterPlacer, values: List[int]) -> np.ndarray:
    """Vectorized :meth:`RosterPlacer.hosting_asns`: one hash, one slot."""
    roster = np.asarray(placer.asns, dtype=np.int64)
    out = np.empty((len(values), placer.k), dtype=np.int64)
    for i in range(placer.k):
        out[:, i] = roster[placer.slots(_hash_many(placer.hash_family, values, i))]
    return out


def batch_resolutions(
    placer: Placer, guid_values: GuidValues
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(asns, hash_attempts, via_deputy)`` for many GUIDs, shape ``(n, K)``.

    The batched :meth:`resolve_all` of any shipped placer.  Roster
    placers (§VII variants) resolve every chain in one hash application
    and never need a deputy, so their provenance planes are constant.
    """
    values = [int(v) for v in guid_values]
    if isinstance(placer, GuidPlacer):
        return resolve_batch(placer, values)
    asns = _roster_batch(placer, values)
    return asns, np.ones_like(asns), np.zeros(asns.shape, dtype=bool)
