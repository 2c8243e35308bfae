"""Shard-merge invariants of the serving search path (hypothesis).

Sharded serving is only bit-identical to the in-process search if
reducing per-shard results loses nothing.  These properties pin that
for any keys, scores, distances and shard assignment — ties included,
since the strategies draw from small value sets on purpose.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.prefilter import PrefilterIndex, merge_shard_candidates
from repro.service.search import (
    candidate_key,
    prefilter_by_device,
    rank_top,
    split_candidate_key,
)

#: Keys are distinct identities; the tiny coordinate and score ranges
#: make equal distances and equal scores common.
_KEYS = st.lists(
    st.from_regex(r"[a-z0-9]{1,6}", fullmatch=True),
    min_size=1, max_size=24, unique=True,
)


@st.composite
def _scattered_points(draw):
    """Keys with small integer 2-d points, each assigned to a shard."""
    keys = draw(_KEYS)
    n_shards = draw(st.integers(min_value=1, max_value=4))
    points = draw(st.lists(
        st.tuples(st.integers(-2, 2), st.integers(-2, 2)),
        min_size=len(keys), max_size=len(keys),
    ))
    shards = draw(st.lists(
        st.integers(0, n_shards - 1), min_size=len(keys), max_size=len(keys),
    ))
    probe = draw(st.tuples(st.integers(-2, 2), st.integers(-2, 2)))
    k = draw(st.integers(min_value=1, max_value=len(keys) + 2))
    return list(zip(keys, points, shards)), n_shards, np.array(probe, float), k


@st.composite
def _scattered_scores(draw):
    """Keys with small integer scores, each assigned to a shard."""
    keys = draw(_KEYS)
    n_shards = draw(st.integers(min_value=1, max_value=4))
    scores = draw(st.lists(
        st.integers(0, 3).map(float), min_size=len(keys), max_size=len(keys),
    ))
    shards = draw(st.lists(
        st.integers(0, n_shards - 1), min_size=len(keys), max_size=len(keys),
    ))
    limit = draw(st.integers(min_value=0, max_value=len(keys) + 2))
    return list(zip(keys, scores, shards)), n_shards, limit


def _index(items):
    return PrefilterIndex.from_items(
        {key: np.array(point, float) for key, point in items}, dim=2
    )


class TestPrefilterMerge:
    @given(_scattered_points())
    @settings(max_examples=200, deadline=None)
    def test_merged_shard_top_k_is_the_global_top_k(self, case):
        points, n_shards, probe, k = case
        per_shard = [
            _index([(key, p) for key, p, s in points if s == shard])
            .top_k(probe, k)
            for shard in range(n_shards)
        ]
        merged = merge_shard_candidates(per_shard, k)
        expected = _index([(key, p) for key, p, _ in points]).top_k(probe, k)
        assert merged == expected

    @given(_scattered_points())
    @settings(max_examples=200, deadline=None)
    def test_per_device_merge_is_the_global_top_k(self, case):
        # Shards play devices: the cross-device search over per-device
        # indexes equals one index holding every device/identity key.
        points, n_shards, probe, k = case
        indexes = {
            f"D{shard}": _index(
                [(key, p) for key, p, s in points if s == shard]
            )
            for shard in range(n_shards)
        }
        size, merged = prefilter_by_device(indexes, probe, None, k)
        flat = _index([
            (candidate_key(f"D{s}", key, None), p) for key, p, s in points
        ])
        assert size == len(points)
        assert merged == flat.top_k(probe, k)


class TestRankReduce:
    @given(_scattered_scores())
    @settings(max_examples=200, deadline=None)
    def test_reduce_of_shard_tops_is_the_global_top(self, case):
        scored, n_shards, limit = case
        per_shard = [
            rank_top(((key, score) for key, score, s in scored
                      if s == shard), limit)
            for shard in range(n_shards)
        ]
        reduced = rank_top(
            (pair for shard in per_shard for pair in shard), limit
        )
        expected = sorted(
            ((key, score) for key, score, _ in scored),
            key=lambda pair: (-pair[1], pair[0]),
        )[:limit]
        assert reduced == expected


class TestCandidateKeys:
    @given(
        st.from_regex(r"[A-Za-z0-9._-]{1,8}", fullmatch=True),
        st.from_regex(r"[A-Za-z0-9._-]{1,8}", fullmatch=True),
        st.booleans(),
    )
    @settings(max_examples=100, deadline=None)
    def test_split_inverts_build(self, device, identity, scoped):
        scope = device if scoped else None
        key = candidate_key(device, identity, scope)
        assert split_candidate_key(key, scope) == (device, identity)
