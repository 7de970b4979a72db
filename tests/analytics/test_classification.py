"""Tests for Tahoma-style classification cascades."""

import pytest

from repro.analytics.classification import CascadeClassifier
from repro.codecs.formats import FULL_JPEG
from repro.errors import QueryError
from repro.inference.perfmodel import EngineConfig
from repro.nn.zoo import ModelProfile, resnet_profile


@pytest.fixture(scope="module")
def classifier(perf_model):
    return CascadeClassifier(perf_model, EngineConfig(num_producers=4))


@pytest.fixture(scope="module")
def proxy_profile():
    return ModelProfile(name="proxy", gflops=0.05, t4_throughput=150_000.0,
                        imagenet_top1=None)


class TestCascadeAccuracy:
    def test_accuracy_between_proxy_and_target(self, classifier):
        accuracy = classifier.simulate_accuracy(
            proxy_accuracy=0.8, target_accuracy=0.95, pass_through_rate=0.5,
            num_classes=2,
        )
        assert 0.8 <= accuracy <= 0.96

    def test_forwarding_more_improves_accuracy(self, classifier):
        strict = classifier.simulate_accuracy(0.7, 0.95, 0.1, 2)
        lenient = classifier.simulate_accuracy(0.7, 0.95, 0.9, 2)
        assert lenient > strict

    def test_invalid_rates_rejected(self, classifier):
        with pytest.raises(QueryError):
            classifier.simulate_accuracy(0.7, 0.95, 0.0, 2)
        with pytest.raises(QueryError):
            classifier.simulate_accuracy(1.4, 0.95, 0.5, 2)


class TestCascadeEvaluation:
    def test_evaluation_is_preprocessing_bound_on_full_res(self, classifier,
                                                           proxy_profile):
        evaluation = classifier.evaluate(
            proxy_profile, resnet_profile(50), FULL_JPEG,
            proxy_accuracy=0.85, target_accuracy=0.95, pass_through_rate=0.2,
            num_classes=2,
        )
        assert evaluation.throughput == pytest.approx(
            evaluation.preprocessing_throughput
        )
        assert evaluation.dnn_throughput > evaluation.preprocessing_throughput

    def test_higher_pass_through_lowers_dnn_throughput(self, classifier,
                                                       proxy_profile):
        low = classifier.evaluate(proxy_profile, resnet_profile(50), FULL_JPEG,
                                  0.85, 0.95, 0.05, 2)
        high = classifier.evaluate(proxy_profile, resnet_profile(50), FULL_JPEG,
                                   0.85, 0.95, 0.8, 2)
        assert high.dnn_throughput < low.dnn_throughput

    def test_sweep_size(self, classifier, proxy_profile):
        evaluations = classifier.sweep(
            proxies=[(proxy_profile, 0.8), (proxy_profile, 0.9)],
            target=resnet_profile(50), target_accuracy=0.95, fmt=FULL_JPEG,
            num_classes=2,
        )
        assert len(evaluations) == 2 * 5
