"""In-process timings of single layers' public functions (traced runs).

Each function is timed over a list of the workload's own templates, so
the per-layer numbers describe the same inputs the end-to-end phases
sent.  Imports of the program happen inside the functions: the
benchmark's entry point puts the checkout's ``src`` on the path first.
"""

from __future__ import annotations

import time
from typing import Callable, Dict, Sequence, Tuple

from harness import metric


def ms_per_item(func: Callable, items: Sequence) -> float:
    """Mean wall milliseconds of ``func(item)`` over ``items``."""
    started = time.perf_counter()
    for item in items:
        func(item)
    return (time.perf_counter() - started) * 1000.0 / len(items)


def template_layers(templates: Sequence, pairs: Sequence[Tuple]) -> Dict[str, dict]:
    """quality / io / prefilter-descriptor / matcher timings.

    ``pairs`` are ``(probe, gallery)`` templates never matched before in
    this process: the first pass over a fresh matcher pays for building
    both frames (cold), the second reuses the cached frames (warm).
    """
    from repro.api import (
        BioEngineMatcher,
        assess_template,
        decode,
        descriptor_vector,
        encode,
    )

    matcher = BioEngineMatcher()
    cold = ms_per_item(lambda pair: matcher.match(*pair), pairs)
    warm = ms_per_item(lambda pair: matcher.match(*pair), pairs)
    return {
        "quality.assess_ms": metric(ms_per_item(assess_template, templates), "ms"),
        "io.incits_roundtrip_ms": metric(
            ms_per_item(lambda t: decode(encode(t)), templates), "ms"
        ),
        "prefilter.descriptor_ms": metric(
            ms_per_item(descriptor_vector, templates), "ms"
        ),
        "matcher.cold_ms_per_pair": metric(cold, "ms"),
        "matcher.warm_ms_per_pair": metric(warm, "ms"),
    }


def batch_ms_per_pair(pairs: Sequence[Tuple]) -> float:
    """``score_pairs`` on a fresh matcher, per pair."""
    from repro.api import BioEngineMatcher

    matcher = BioEngineMatcher()
    started = time.perf_counter()
    matcher.score_pairs(list(pairs))
    return (time.perf_counter() - started) * 1000.0 / len(pairs)
