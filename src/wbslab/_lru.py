"""The package's one eviction rule: least recently used out first, under a budget of bytes."""

from collections import OrderedDict


class ByteLRU:
    """Values by key in LRU order, with the byte size each was stored with.

    A count of entries would not bound memory, as the values' sizes vary
    by orders of magnitude.  A value larger than the whole budget is
    evicted, with every older one, as soon as it is stored.
    """

    def __init__(self, maxbytes: int):
        self.maxbytes = maxbytes
        self.clear()

    def get(self, key):
        """The value kept under key, now the most recent, or None; counted as a hit or a miss."""
        item = self._entries.get(key)
        if item is None:
            self.misses += 1
            return None
        self.hits += 1
        self._entries.move_to_end(key)
        return item[0]

    def put(self, key, value, nbytes: int) -> None:
        """Keep value under key as the most recent, then evict the least recent until the sizes fit."""
        self.nbytes += nbytes - self._entries.pop(key, (None, 0))[1]
        self._entries[key] = value, nbytes
        while self.nbytes > self.maxbytes:
            self.nbytes -= self._entries.popitem(last=False)[1][1]

    def clear(self) -> None:
        self._entries = OrderedDict()
        self.hits = self.misses = self.nbytes = 0
