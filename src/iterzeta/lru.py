"""A size-capped dict for the package's process-wide caches."""

from __future__ import annotations

from collections import OrderedDict


class LRUDict(OrderedDict):
    """A dict of at most `cap` entries: storing one more drops the least
    recently used.  A lookup through get_or_set counts as a use."""

    def __init__(self, cap: int):
        super().__init__()
        self.cap = cap

    def get_or_set(self, key, make):
        """The value at key; if absent, make() is stored there first."""
        if key in self:
            self.move_to_end(key)
            return self[key]
        value = self[key] = make()
        if len(self) > self.cap:
            self.popitem(last=False)
        return value
