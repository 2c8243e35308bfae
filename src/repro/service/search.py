"""The three decisions every 1:N search path shares.

The serving gallery keys each search by ``(device, identity)``: a bare
identity within one device scope, ``device/identity`` across devices
(the paper's enrollment-device axis, kept explicit in every key).  The
in-process gallery, each worker's shard and the pool's merge all
build, split, rank and merge those keys through the functions here, so
the single-process and sharded answers cannot drift apart:

* :func:`candidate_key` / :func:`split_candidate_key` — the key
  convention;
* :func:`rank_top` — the ``(-score, key)`` rank-and-truncate;
* :func:`prefilter_by_device` — per-device descriptor top-K plus the
  exact :func:`~repro.core.prefilter.merge_shard_candidates` merge.
"""

from __future__ import annotations

from typing import Iterable, List, Mapping, Optional, Tuple

import numpy as np

from ..core.prefilter import (
    PrefilterCandidate,
    PrefilterIndex,
    merge_shard_candidates,
)


def candidate_key(device: str, identity: str, scope: Optional[str]) -> str:
    """The search key of one enrollment: bare within a device ``scope``,
    ``device/identity`` when the search spans every device."""
    return identity if scope is not None else f"{device}/{identity}"


def split_candidate_key(key: str, scope: Optional[str]) -> Tuple[str, str]:
    """``(device, identity)`` of a key built by :func:`candidate_key`."""
    if scope is not None:
        return scope, key
    device, _, identity = key.partition("/")
    return device, identity


def rank_top(
    scored: Iterable[Tuple[str, float]], limit: int
) -> List[Tuple[str, float]]:
    """The best ``limit`` ``(key, score)`` pairs, ordered by
    ``(-score, key)``.

    A total order, so ties break on the key and the result does not
    depend on input order — which is also why reducing per-shard
    top-``limit`` lists with this same function is exact.
    """
    return sorted(
        ((key, float(score)) for key, score in scored),
        key=lambda item: (-item[1], item[0]),
    )[: max(0, limit)]


def prefilter_by_device(
    indexes: Mapping[str, PrefilterIndex],
    vector: np.ndarray,
    device: Optional[str],
    k: int,
) -> Tuple[int, List[PrefilterCandidate]]:
    """Coarse top-``k`` over per-device descriptor indexes.

    Returns ``(scope_size, candidates)``: how many enrollments the
    search scope holds, and the nearest ``k`` of them keyed by
    :func:`candidate_key`.  Across devices every device's local top-K
    is merged into the exact global top-K.
    """
    if device is not None:
        index = indexes.get(device)
        if index is None:
            return 0, []
        return len(index), index.top_k(vector, k)
    per_device = [
        [
            PrefilterCandidate(
                key=candidate_key(dev, c.key, None),
                distance=c.distance,
                rank=c.rank,
            )
            for c in indexes[dev].top_k(vector, k)
        ]
        for dev in sorted(indexes)
    ]
    scope_size = sum(len(index) for index in indexes.values())
    return scope_size, merge_shard_candidates(per_device, k)


__all__ = [
    "candidate_key",
    "split_candidate_key",
    "rank_top",
    "prefilter_by_device",
]
