"""The ``repro.api`` facade: entry points, re-exports, the top-level surface."""

import warnings

import numpy as np
import pytest

import repro
import repro.api as api
from repro.api import (
    StudyConfig,
    compare_devices,
    load_scores,
    run_study,
)


@pytest.fixture(scope="module")
def facade_result(tmp_path_factory):
    cfg = StudyConfig(
        n_subjects=4,
        master_seed=13,
        cache_dir=str(tmp_path_factory.mktemp("api-cache")),
    )
    return cfg, run_study(cfg)


class TestRunStudy:
    def test_returns_all_scenarios(self, facade_result):
        _, result = facade_result
        assert sorted(result.score_sets) == ["DDMG", "DDMI", "DMG", "DMI"]
        for scores in result.score_sets.values():
            assert len(scores) > 0

    def test_analysis_methods_delegate(self, facade_result):
        _, result = facade_result
        matrix = result.fnmr_matrix()
        assert matrix.shape == (5, 5)
        assert result.demographics()
        assert result.kendall_matrix()

    def test_matches_study_engine_exactly(self, facade_result):
        cfg, result = facade_result
        from repro.api import InteroperabilityStudy

        direct = InteroperabilityStudy(cfg).score_sets()
        for scenario, scores in direct.items():
            np.testing.assert_array_equal(
                scores.scores, result.score_sets[scenario].scores
            )


class TestLoadScores:
    def test_round_trips_cached_scores(self, facade_result):
        cfg, result = facade_result
        cached = load_scores(cfg, "DMG")
        np.testing.assert_array_equal(
            cached.scores, result.score_sets["DMG"].scores
        )
        everything = load_scores(cfg)
        assert sorted(everything) == sorted(result.score_sets)

    def test_returns_none_on_miss(self, tmp_path):
        cfg = StudyConfig(
            n_subjects=3, master_seed=99, cache_dir=str(tmp_path)
        )
        assert load_scores(cfg, "DMG") is None
        assert load_scores(cfg) == {}


class TestCompareDevices:
    def test_cross_device_cell(self, facade_result):
        _, result = facade_result
        comparison = compare_devices(result, "D0", "D1")
        assert comparison.cross_device
        assert comparison.mean_genuine_score > comparison.mean_impostor_score
        assert 0.0 <= comparison.fnmr <= 1.0
        np.testing.assert_array_equal(
            comparison.genuine.scores,
            result.genuine_scores("D0", "D1").scores,
        )

    def test_same_device_cell(self, facade_result):
        _, result = facade_result
        assert not compare_devices(result, "D2", "D2").cross_device


class TestScoreSetFilters:
    def test_for_subjects_composes_with_select(self, facade_result):
        _, result = facade_result
        scores = result.score_sets["DDMI"]
        subset = scores.for_subjects([0, 1])
        assert len(subset) > 0
        assert set(subset.subject_gallery) <= {0, 1}
        assert set(subset.subject_probe) <= {0, 1}
        chained = subset.for_pair("D0", "D1")
        mask = (scores.device_gallery == "D0") & (scores.device_probe == "D1")
        mask &= np.isin(scores.subject_gallery, [0, 1]) & np.isin(
            scores.subject_probe, [0, 1]
        )
        np.testing.assert_array_equal(
            chained.scores, scores.select(mask).scores
        )


class TestImportSurface:
    def test_api_exports_resolve(self):
        missing = [name for name in api.__all__ if not hasattr(api, name)]
        assert missing == []

    def test_legacy_top_level_import_raises(self):
        with pytest.raises(AttributeError):
            getattr(repro, "InteroperabilityStudy")

    def test_facade_names_do_not_warn(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            assert repro.run_study is api.run_study
            assert repro.StudyResult is api.StudyResult

    def test_legacy_names_resolve_to_api_objects(self):
        # The retired top-level names live on repro.api only.
        for name in ("InteroperabilityStudy", "StudyConfig", "ScoreSet"):
            assert getattr(api, name) is not None
            with pytest.raises(AttributeError):
                getattr(repro, name)
