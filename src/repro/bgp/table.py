"""The global BGP prefix table.

Models the Internet default-free-zone routing table that every DMap border
gateway consults: which AS announces which prefix (§III-A).  The paper uses
the APNIC DIX-IE snapshot (~330,000 prefixes covering ~52% of the IPv4
space, §IV-B.1); :mod:`repro.bgp.allocation` synthesizes an equivalent
table offline.

The table supports dynamic announce/withdraw so BGP-churn experiments
(§III-D.1, Fig. 5) can mutate it mid-simulation.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Optional, Set, Tuple, Union

from ..core.guid import ADDRESS_BITS, NetworkAddress
from ..errors import PrefixTableError
from .interval_index import IntervalIndex
from .prefix import Announcement, Prefix
from .trie import PrefixTrie


class GlobalPrefixTable:
    """Set of BGP announcements with LPM and nearest-prefix queries.

    Internally a :class:`~repro.bgp.trie.PrefixTrie` plus per-AS indexes.
    :meth:`interval_index` serves a frozen
    :class:`~repro.bgp.interval_index.IntervalIndex` snapshot of the
    current announcements for vectorized bulk LPM.
    """

    def __init__(
        self,
        announcements: Iterable[Announcement] = (),
        bits: int = ADDRESS_BITS,
    ) -> None:
        self.bits = bits
        self._trie = PrefixTrie(bits)
        self._by_asn: Dict[int, Set[Prefix]] = {}
        self._interval: Optional[IntervalIndex] = None
        for ann in announcements:
            self.announce(ann)

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def announce(self, announcement: Announcement) -> None:
        """Add an origination.  Re-announcing a prefix from a different AS
        moves it (the old origin loses it), mirroring BGP origin changes."""
        self._interval = None
        previous = self._trie.insert(announcement)
        if previous is not None:
            owned = self._by_asn.get(previous.asn)
            if owned is not None:
                owned.discard(previous.prefix)
                if not owned:
                    del self._by_asn[previous.asn]
        self._by_asn.setdefault(announcement.asn, set()).add(announcement.prefix)

    def withdraw(self, prefix: Prefix) -> Announcement:
        """Remove an origination; raises if the prefix is not announced."""
        removed = self._trie.withdraw(prefix)
        if removed is None:
            raise PrefixTableError(f"prefix {prefix} is not announced")
        self._interval = None
        owned = self._by_asn.get(removed.asn)
        if owned is not None:
            owned.discard(prefix)
            if not owned:
                del self._by_asn[removed.asn]
        return removed

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._trie)

    def __iter__(self) -> Iterator[Announcement]:
        return iter(self._trie)

    def __contains__(self, prefix: Prefix) -> bool:
        return self._trie.exact_match(prefix) is not None

    def resolve(
        self, address: Union[int, NetworkAddress]
    ) -> Optional[Announcement]:
        """Longest-prefix match; ``None`` when the address is an IP hole."""
        return self._trie.longest_prefix_match(address)

    def owner_asn(self, address: Union[int, NetworkAddress]) -> Optional[int]:
        """AS that would host a mapping hashed to ``address`` (or ``None``)."""
        ann = self.resolve(address)
        return None if ann is None else ann.asn

    def nearest(
        self, address: Union[int, NetworkAddress]
    ) -> Tuple[Announcement, int]:
        """Nearest announced prefix under the XOR IP-distance metric —
        the deputy-AS selection of Algorithm 1."""
        return self._trie.nearest_prefix(address)

    def prefixes_of(self, asn: int) -> List[Prefix]:
        """All prefixes currently originated by ``asn`` (sorted)."""
        return sorted(self._by_asn.get(asn, ()))

    def asns(self) -> List[int]:
        """All ASs currently announcing at least one prefix (sorted)."""
        return sorted(self._by_asn)

    def announced_span(self) -> int:
        """Addresses covered by at least one announcement (overlaps counted
        once)."""
        return self._trie.announced_span()

    def announcement_ratio(self) -> float:
        """Fraction of the address space that is announced.

        The paper reports 55% for the full IPv4 space (§III-B) and ~52%
        for the DIX-IE snapshot used in simulation (§IV-B.1).
        """
        return self.announced_span() / float(1 << self.bits)

    def representative_address(self, asn: int) -> NetworkAddress:
        """A canonical address inside ``asn``'s announced space — the base
        of its lowest prefix.  Used to mint locators for hosts attached to
        that AS in examples and simulations."""
        prefixes = self.prefixes_of(asn)
        if not prefixes:
            raise PrefixTableError(f"AS {asn} announces no prefixes")
        return NetworkAddress(prefixes[0].base, self.bits)

    def build_interval_index(self) -> IntervalIndex:
        """Frozen vectorized snapshot for bulk LPM.

        The snapshot does not track later announce/withdraw calls.
        """
        return IntervalIndex(list(self), bits=self.bits)

    def interval_index(self) -> IntervalIndex:
        """The snapshot of the current table version, built on first use.

        Every announce/withdraw drops it, so the next call rebuilds.
        """
        if self._interval is None:
            self._interval = self.build_interval_index()
        return self._interval

    def copy(self) -> "GlobalPrefixTable":
        """Independent copy (used to model inconsistent BGP views)."""
        return GlobalPrefixTable(list(self), bits=self.bits)
