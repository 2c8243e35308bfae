"""The documented public API surface works as advertised."""

import numpy as np

import repro
from repro import api


class TestTopLevelImports:
    def test_version(self):
        assert repro.__version__

    def test_all_names_resolve(self):
        for name in repro.__all__:
            assert getattr(repro, name) is not None

    def test_quickstart_snippet(self):
        """The README / module docstring snippet, executed verbatim."""
        from repro.api import InteroperabilityStudy, StudyConfig

        study = InteroperabilityStudy(StudyConfig(n_subjects=4))
        score_sets = study.score_sets()
        table5 = study.fnmr_matrix(1e-4)
        table4 = study.kendall_matrix()
        assert set(score_sets) == {"DMG", "DMI", "DDMG", "DDMI"}
        assert table5.shape == (5, 5)
        assert len(table4) == 20


class TestSubpackageFacades:
    def test_matcher_facade(self, genuine_template_pair):
        matcher = api.BioEngineMatcher()
        score = matcher.match(*genuine_template_pair)
        assert score > 0

    def test_sensor_facade(self, tiny_population):
        sensor = api.build_sensor("D2")
        impression = sensor.acquire(
            tiny_population.subject(0), "right_index", np.random.default_rng(0)
        )
        assert impression.device_id == "D2"

    def test_device_constants(self):
        assert api.DEVICE_ORDER == ("D0", "D1", "D2", "D3", "D4")
        assert len(api.DEVICE_PROFILES) == 5
        assert len(api.LIVESCAN_DEVICES) == 4

    def test_incits_via_io(self, genuine_template_pair):
        from repro.io import decode, encode

        template = genuine_template_pair[0]
        restored, __ = decode(encode(template))
        assert len(restored) == len(template)
