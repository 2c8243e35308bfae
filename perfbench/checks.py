"""Correctness checks against the program's in-tree oracles.

Each check returns a list of human-readable errors; an empty list means
the outputs are correct.  A wrong answer makes the whole run incorrect
(``"correct": false``); it is never folded into the error rate, which
counts only failed, refused or timed-out operations.
"""

from __future__ import annotations

from typing import Callable, List, Mapping, Sequence

#: The server rounds every returned score to this many decimals.
SCORE_DECIMALS = 4


def check_verify(responses: Sequence[dict], oracle: Sequence[float],
                 threshold: float) -> List[str]:
    """Every ``/v1/verify`` score equals the scalar matcher's, and the
    decision follows from it."""
    errors = []
    for index, (response, expected) in enumerate(zip(responses, oracle)):
        if response is None:
            continue  # a failed op; counted in the error rate
        if response.get("score") != round(expected, SCORE_DECIMALS):
            errors.append(
                f"verify #{index}: score {response.get('score')} != "
                f"oracle {expected!r}"
            )
        decision = "accept" if expected >= threshold else "reject"
        if response.get("decision") != decision:
            errors.append(
                f"verify #{index}: decision {response.get('decision')} "
                f"!= {decision}"
            )
    return errors


def check_identify(responses: Sequence[dict], mates: Sequence[str],
                   sample: Sequence[int],
                   rescore: Callable[[int, str], float]) -> List[str]:
    """Every genuine probe's top-1 is its mate; sampled candidate scores
    equal ``rescore(op_index, identity)`` (the scalar matcher)."""
    errors = []
    for index, (response, mate) in enumerate(zip(responses, mates)):
        if response is None:
            continue
        best = response.get("best") or {}
        if best.get("identity") != mate:
            errors.append(
                f"identify #{index}: top-1 {best.get('identity')!r} is "
                f"not the mate {mate!r}"
            )
    for index in sample:
        response = responses[index]
        if response is None:
            continue
        for candidate in response.get("candidates", []):
            expected = round(rescore(index, candidate["identity"]),
                             SCORE_DECIMALS)
            if candidate["score"] != expected:
                errors.append(
                    f"identify #{index}: candidate {candidate['identity']} "
                    f"score {candidate['score']} != oracle {expected}"
                )
    return errors


def check_enroll(responses: Sequence[dict],
                 identities: Sequence[str]) -> List[str]:
    """Every accepted ``/v1/enroll`` echoes the identity it enrolled."""
    errors = []
    for index, (response, identity) in enumerate(zip(responses, identities)):
        if response is not None and response.get("identity") != identity:
            errors.append(
                f"enroll #{index}: identity {response.get('identity')!r} "
                f"!= {identity!r}"
            )
    return errors


def check_study(counts: Mapping[str, int], expected: Mapping[str, int],
                sampled: Sequence[tuple]) -> List[str]:
    """Score counts equal ``expected_counts(config)``; every sampled
    ``(label, stored_score, scalar_score)`` is bit-identical."""
    errors = []
    for scenario, want in expected.items():
        if counts.get(scenario) != want:
            errors.append(
                f"{scenario}: {counts.get(scenario)} scores, expected {want}"
            )
    for label, stored, scalar in sampled:
        if stored != scalar:
            errors.append(f"{label}: stored {stored!r} != scalar {scalar!r}")
    return errors
