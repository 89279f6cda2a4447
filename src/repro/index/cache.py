"""Client-side index caches (§3.5.1).

Two policies, matching the paper's factor analysis:

* ``value_only`` (FUSEE's cache) — remembers only the slot *value* (the KV
  pair's address and size).  When the slot has changed, the client cannot
  tell where the slot lives and must re-query the index from the buckets.
* ``addr_value`` (Aceso's cache) — remembers the slot's *address* as well,
  so a changed slot costs just one extra 16 B read of the current slot and
  a re-read of the new KV, never a bucket query (unless the slot address
  itself changed, e.g. after resizing).

Entries are LRU-bounded; the cache is local client memory, so hits cost no
fabric traffic by themselves.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Optional

__all__ = ["CacheEntry", "IndexCache"]


class CacheEntry:
    """What a client remembers about one key's slot.

    ``atomic_word`` and ``meta_word`` are always a *coherent pair* — read
    from the slot in one access — so a successful commit CAS against the
    cached Atomic word guarantees the cached Meta (epoch) is still current
    (any intervening update would have changed the Atomic word's version
    bits and failed the CAS).

    Entries live as long as the client's cache, so the class uses
    ``__slots__`` (no per-entry ``__dict__`` for the collector to walk).
    """

    __slots__ = ("atomic_word", "len_units", "meta_word", "slot_node",
                 "slot_offset", "bucket", "slot")

    def __init__(self, atomic_word: int, len_units: int, meta_word: int = 0,
                 slot_node: int = -1, slot_offset: int = -1,
                 bucket: int = -1, slot: int = -1):
        self.atomic_word = atomic_word  # last-seen Atomic (or compact) word
        self.len_units = len_units      # KV size class (64 B units)
        self.meta_word = meta_word      # last-seen Meta word (wide slots)
        self.slot_node = slot_node      # where the slot lives
        self.slot_offset = slot_offset  # Atomic-word offset
        self.bucket = bucket
        self.slot = slot

    def __repr__(self) -> str:
        return "CacheEntry(" + ", ".join(
            f"{name}={getattr(self, name)!r}" for name in self.__slots__) + ")"


class IndexCache:
    """LRU map: key -> :class:`CacheEntry`."""

    def __init__(self, policy: str, capacity: int = 1 << 16):
        if policy not in ("addr_value", "value_only", "none"):
            raise ValueError(f"unknown cache policy {policy!r}")
        self.policy = policy
        #: Whether the cache is in use (fixed by the policy).
        self.enabled = policy != "none"
        self.capacity = capacity
        self._entries: "OrderedDict[bytes, CacheEntry]" = OrderedDict()
        self.hits = 0
        self.misses = 0

    def lookup(self, key: bytes) -> Optional[CacheEntry]:
        if not self.enabled:
            return None
        entries = self._entries
        entry = entries.get(key)
        if entry is None:
            self.misses += 1
            return None
        entries.move_to_end(key)
        self.hits += 1
        return entry

    def store(self, key: bytes, entry: CacheEntry) -> None:
        """Remember a slot.

        Both policies retain the slot position (writes CAS the commit
        word directly from the cache in FUSEE too); the policies differ
        on the *read* path — value_only cannot validate a read with a
        single slot read and must re-query the candidate buckets
        (§3.5.1), which is what the addr+value cache removes.
        """
        if not self.enabled:
            return
        entries = self._entries
        entries[key] = entry
        entries.move_to_end(key)
        if len(entries) > self.capacity:
            entries.popitem(last=False)

    def invalidate(self, key: bytes) -> None:
        self._entries.pop(key, None)

    def clear(self) -> None:
        self._entries.clear()

    def __len__(self) -> int:
        return len(self._entries)
