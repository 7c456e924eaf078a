"""Deterministic area -> shard assignment for the paging controller.

A long-running controller serves many location areas concurrently; the
shard map decides which per-shard cache and batch queue owns each area.
The assignment must be a *pure function of the area id* — never of
arrival order, process start time, or ``PYTHONHASHSEED`` — so that a
restarted controller or a test reproduces the same layout.
Python's built-in ``hash`` on strings is salted per process and is
therefore exactly the wrong tool; we hash the area id's canonical string
form with BLAKE2b instead.
"""

from __future__ import annotations

from hashlib import blake2b
from typing import Dict

#: Digest width for the area hash; 8 bytes is far beyond any shard count.
_DIGEST_SIZE = 8


def shard_for_area(area: object, num_shards: int) -> int:
    """The shard index (``0 <= shard < num_shards``) that owns ``area``.

    Deterministic across processes and platforms: BLAKE2b of
    ``repr(area)`` reduced modulo ``num_shards``.  Integer and string
    area ids hash by value (``repr(7) == '7'``), so a topology's cell or
    LA index and its string form land on the same shard.
    """
    if num_shards < 1:
        raise ValueError(f"num_shards must be >= 1, got {num_shards}")
    if isinstance(area, str):
        canonical = area
    else:
        canonical = repr(area)
    digest = blake2b(canonical.encode("utf-8"), digest_size=_DIGEST_SIZE).digest()
    return int.from_bytes(digest, "big") % int(num_shards)


class ShardMap:
    """A memoizing view of :func:`shard_for_area` for one shard count.

    The controller resolves every request's shard through one of these;
    the memo turns the per-request BLAKE2b into a dict lookup once an
    area has been seen, which matters at 10k+ requests/sec.
    """

    __slots__ = ("num_shards", "_memo")

    def __init__(self, num_shards: int) -> None:
        if num_shards < 1:
            raise ValueError(f"num_shards must be >= 1, got {num_shards}")
        self.num_shards = int(num_shards)
        self._memo: Dict[object, int] = {}

    def __call__(self, area: object) -> int:
        memo = self._memo
        shard = memo.get(area)
        if shard is None:
            shard = shard_for_area(area, self.num_shards)
            memo[area] = shard
        return shard

