"""Custom job execution and the signature ablation path."""

import numpy as np
import pytest

from repro.api import InteroperabilityStudy, StudyConfig
from repro.core.scores import GALLERY_SET, PROBE_SET
from repro.sensors import ProtocolSettings


class TestCustomScores:
    def test_second_finger_scores(self, tiny_study, tiny_config):
        jobs = [
            (s, "D0", GALLERY_SET, s, "D0", PROBE_SET)
            for s in range(tiny_config.n_subjects)
        ]
        index = tiny_study.custom_scores("DMG-custom-idx", jobs)
        middle = tiny_study.custom_scores(
            "DMG-custom-mid", jobs, finger="right_middle"
        )
        assert len(index) == len(middle) == tiny_config.n_subjects
        # Different fingers -> different scores for the same jobs.
        assert not np.array_equal(index.scores, middle.scores)
        # Both are genuine same-device comparisons: high scores.
        assert index.scores.mean() > 10
        assert middle.scores.mean() > 10

    def test_custom_scores_cached_by_label_and_finger(self, tmp_path):
        from repro.runtime import ScoreCache

        config = StudyConfig(n_subjects=3, master_seed=4)
        cache = ScoreCache(tmp_path)
        study = InteroperabilityStudy(config, cache=cache)
        jobs = [(s, "D0", 0, s, "D0", 1) for s in range(3)]
        first = study.custom_scores("DMG-z", jobs)

        fresh = InteroperabilityStudy(config, cache=cache)
        second = fresh.custom_scores("DMG-z", jobs)
        np.testing.assert_array_equal(first.scores, second.scores)
        assert fresh._collection is None  # served from cache


class TestSignatureAblation:
    def test_ablation_collapses_cross_device_penalty(self):
        config = StudyConfig(n_subjects=12, master_seed=31)
        normal = InteroperabilityStudy(config)
        ablated = InteroperabilityStudy(
            config, protocol=ProtocolSettings(disable_device_signatures=True)
        )

        def penalty(study):
            sets = study.score_sets()
            return sets["DMG"].scores.mean() - sets["DDMG"].select(
                sets["DDMG"].device_probe != "D4"
            ).scores.mean()

        penalty_on = penalty(normal)
        penalty_off = penalty(ablated)
        assert penalty_on > 1.0
        assert penalty_off < penalty_on

    def test_protocol_fingerprint_distinguishes_settings(self):
        default = ProtocolSettings().fingerprint()
        ablated = ProtocolSettings(disable_device_signatures=True).fingerprint()
        gated = ProtocolSettings(quality_gating=True).fingerprint()
        assert len({default, ablated, gated}) == 3

    def test_cache_keys_respect_protocol(self, tmp_path):
        from repro.runtime import ScoreCache

        config = StudyConfig(n_subjects=3, master_seed=10)
        cache = ScoreCache(tmp_path)
        normal = InteroperabilityStudy(config, cache=cache)
        normal.score_sets()
        ablated = InteroperabilityStudy(
            config,
            cache=cache,
            protocol=ProtocolSettings(disable_device_signatures=True),
        )
        ablated_sets = ablated.score_sets()
        # Must not have loaded the normal study's cached scores.
        assert not np.array_equal(
            normal.score_sets()["DDMG"].scores, ablated_sets["DDMG"].scores
        )
