"""Failure injection: the library must fail loudly and precisely.

A dependable-systems reproduction should practice what it studies — no
silent partial results, errors that carry the failing key.
"""

import numpy as np
import pytest

from repro.api import InteroperabilityStudy, StudyConfig
from repro.core.scores import run_jobs
from repro.runtime.errors import AcquisitionError, ConfigurationError
from repro.sensors.protocol import Collection


class TestMissingDataFails:
    def test_run_jobs_names_the_missing_key(self, tiny_collection, matcher):
        jobs = [(9999, "D0", 0, 9999, "D0", 1)]  # subject never acquired
        with pytest.raises(AcquisitionError, match="9999"):
            run_jobs(jobs, tiny_collection, matcher, "right_index", "DMG")

    def test_empty_collection_fails_immediately(self, matcher):
        jobs = [(0, "D0", 0, 0, "D0", 1)]
        with pytest.raises(AcquisitionError):
            run_jobs(jobs, Collection(), matcher, "right_index", "DMG")

    def test_unknown_finger_fails(self, tiny_collection, matcher):
        jobs = [(0, "D0", 0, 0, "D0", 1)]
        with pytest.raises(AcquisitionError, match="left_pinky"):
            run_jobs(jobs, tiny_collection, matcher, "left_pinky", "DMG")


class TestConfigFile:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "study.json"
        path.write_text('{"n_subjects": 12, "master_seed": 77}')
        config = StudyConfig.from_file(path)
        assert config.n_subjects == 12
        assert config.master_seed == 77

    def test_overrides_beat_file(self, tmp_path):
        path = tmp_path / "study.json"
        path.write_text('{"n_subjects": 12}')
        assert StudyConfig.from_file(path, n_subjects=5).n_subjects == 5

    def test_unknown_key_named(self, tmp_path):
        path = tmp_path / "study.json"
        path.write_text('{"n_subjcts": 12}')  # typo
        with pytest.raises(ConfigurationError, match="n_subjcts"):
            StudyConfig.from_file(path)

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "study.json"
        path.write_text("{not json")
        with pytest.raises(ConfigurationError, match="invalid JSON"):
            StudyConfig.from_file(path)

    def test_non_object(self, tmp_path):
        path = tmp_path / "study.json"
        path.write_text("[1, 2]")
        with pytest.raises(ConfigurationError, match="object"):
            StudyConfig.from_file(path)

    def test_file_values_still_validated(self, tmp_path):
        path = tmp_path / "study.json"
        path.write_text('{"n_subjects": 1}')
        with pytest.raises(ConfigurationError):
            StudyConfig.from_file(path)


class TestStudyErrorPropagation:
    def test_bad_device_in_genuine_scores(self, tiny_study):
        with pytest.raises(Exception):
            tiny_study.genuine_scores("D9", "D0")

    def test_nan_scores_never_emitted(self, tiny_study):
        for score_set in tiny_study.score_sets().values():
            assert np.all(np.isfinite(score_set.scores))
            assert np.all(score_set.scores >= 0)
