"""Tahoma-style classification cascades (Section 3.2, Figure 4 baseline).

Tahoma answers classification queries with a cascade: a cheap specialized NN
scores every image, confident predictions short-circuit, and the remainder are
forwarded to an accurate target DNN.  The cascade's accuracy and throughput
depend on the confidence threshold, the specialized NN's quality, and --
critically, the paper argues -- on preprocessing, because every image must be
decoded regardless of which models run, and forwarded images pay extra copy
and resize costs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.analytics.scan import TwoPassEngine
from repro.codecs.formats import InputFormatSpec
from repro.core.plans import Plan
from repro.errors import QueryError
from repro.nn.zoo import ModelProfile
from repro.utils.rng import deterministic_rng


@dataclass(frozen=True)
class CascadeEvaluation:
    """Accuracy/throughput of one cascade configuration."""

    proxy_name: str
    target_name: str
    pass_through_rate: float
    accuracy: float
    throughput: float
    preprocessing_throughput: float
    dnn_throughput: float

    def objectives(self) -> tuple[float, float]:
        """(throughput, accuracy) vector for Pareto-frontier computation."""
        return (self.throughput, self.accuracy)


# Overhead factor for images forwarded through the cascade: they are copied
# again and re-resized when the proxy and target input resolutions differ
# (Section 8.3's explanation of why Tahoma underperforms when preprocessing
# bound).
CASCADE_FORWARD_OVERHEAD = 1.25


class CascadeClassifier(TwoPassEngine):
    """Evaluates specialized-NN / target-DNN cascades."""

    def simulate_accuracy(self, proxy_accuracy: float, target_accuracy: float,
                          pass_through_rate: float, num_classes: int,
                          num_examples: int = 20_000,
                          seed: int = 0) -> float:
        """Monte-Carlo accuracy of a confidence-thresholded cascade.

        Images the proxy handles itself are correct with probability equal to
        the proxy's accuracy on its confident subset (which is higher than
        its overall accuracy); forwarded images are correct with the target's
        accuracy.  The confident-subset boost shrinks as the pass-through
        rate falls, reflecting that aggressive short-circuiting keeps harder
        images with the proxy.
        """
        if not 0 < pass_through_rate <= 1:
            raise QueryError("pass_through_rate must be in (0, 1]")
        for name, value in (("proxy", proxy_accuracy), ("target", target_accuracy)):
            if not 0 <= value <= 1:
                raise QueryError(f"{name} accuracy must be in [0, 1]")
        rng = deterministic_rng("cascade-accuracy", seed)
        forwarded = rng.random(num_examples) < pass_through_rate
        confident_boost = (1.0 - proxy_accuracy) * (1.0 - pass_through_rate) * 0.7
        proxy_confident_accuracy = min(1.0, proxy_accuracy + confident_boost)
        correct_proxy = rng.random(num_examples) < proxy_confident_accuracy
        correct_target = rng.random(num_examples) < target_accuracy
        correct = np.where(forwarded, correct_target, correct_proxy)
        return float(correct.mean())

    def evaluate(self, proxy: ModelProfile, target: ModelProfile,
                 fmt: InputFormatSpec, proxy_accuracy: float,
                 target_accuracy: float, pass_through_rate: float,
                 num_classes: int) -> CascadeEvaluation:
        """Throughput and accuracy of one cascade configuration."""
        plan = Plan.cascade(proxy, target, pass_through_rate, fmt)
        # DNN-side throughput of the cascade (Equation 2), with the forwarded
        # images paying the extra copy/resize overhead.
        proxy_est = self._perf.estimate(proxy, fmt, self._config)
        target_est = self._perf.estimate(target, fmt, self._config)
        per_image_us = 1e6 / proxy_est.dnn_throughput
        per_image_us += (pass_through_rate * CASCADE_FORWARD_OVERHEAD
                         * 1e6 / target_est.dnn_throughput)
        dnn_throughput = 1e6 / per_image_us
        preproc_throughput = proxy_est.preprocessing_throughput
        throughput = min(preproc_throughput, dnn_throughput)
        accuracy = self.simulate_accuracy(
            proxy_accuracy, target_accuracy, pass_through_rate, num_classes
        )
        return CascadeEvaluation(
            proxy_name=proxy.name,
            target_name=target.name,
            pass_through_rate=pass_through_rate,
            accuracy=accuracy,
            throughput=throughput,
            preprocessing_throughput=preproc_throughput,
            dnn_throughput=dnn_throughput,
        )

    def sweep(self, proxies: list[tuple[ModelProfile, float]],
              target: ModelProfile, target_accuracy: float,
              fmt: InputFormatSpec, num_classes: int,
              pass_through_rates: tuple[float, ...] = (0.05, 0.15, 0.3, 0.5, 0.8),
              ) -> list[CascadeEvaluation]:
        """Evaluate a family of cascades over proxies and thresholds."""
        evaluations = []
        for proxy, proxy_accuracy in proxies:
            for rate in pass_through_rates:
                evaluations.append(
                    self.evaluate(proxy, target, fmt, proxy_accuracy,
                                  target_accuracy, rate, num_classes)
                )
        return evaluations
