"""Tests for the Smol facade."""

import pytest

from repro import Smol
from repro.core.planner import PlannerFeatures
from repro.datasets.images import load_image_dataset
from repro.errors import InfeasibleConstraintError


@pytest.fixture(scope="module")
def smol_imagenet():
    return Smol(dataset_name="imagenet")


class TestSmolFacade:
    def test_frontier_nonempty_and_sorted(self, smol_imagenet):
        frontier = smol_imagenet.pareto_frontier()
        assert len(frontier) >= 3
        throughputs = [e.throughput for e in frontier]
        assert throughputs == sorted(throughputs)

    def test_best_plan_accuracy_floor(self, smol_imagenet):
        best = smol_imagenet.best_plan(accuracy_floor=0.74)
        assert best.accuracy >= 0.74
        assert not best.plan.input_format.is_full_resolution

    def test_best_plan_infeasible_raises(self, smol_imagenet):
        with pytest.raises(InfeasibleConstraintError):
            smol_imagenet.best_plan(accuracy_floor=0.999)

    def test_run_simulated_plan(self, smol_imagenet):
        best = smol_imagenet.best_plan(accuracy_floor=0.70)
        result = smol_imagenet.run(best, limit=1024)
        assert result.num_images == 1024
        assert result.throughput > 0
        # Simulated throughput should be within ~20% of the cost model's
        # pipelined estimate (Section 8.2 reports a 16% worst-case overhead).
        assert result.throughput >= best.throughput * 0.75

    def test_report_describe(self, smol_imagenet):
        report = smol_imagenet.report(accuracy_floor=0.72)
        text = report.describe()
        assert "Pareto frontier" in text
        assert "Selected" in text

    def test_for_dataset_constructor(self):
        dataset = load_image_dataset("bike-bird")
        smol = Smol.for_dataset(dataset)
        frontier = smol.pareto_frontier()
        assert len(frontier) >= 1
        # Easy binary task: accuracy stays high even on cheap formats.
        assert max(e.accuracy for e in frontier) > 0.98

    def test_for_dataset_rejects_a_non_dataset_at_construction(self):
        # name / available_formats are declared by both dataset classes;
        # anything else fails loudly here rather than planning over None.
        with pytest.raises(AttributeError):
            Smol.for_dataset("bike-bird")

    def test_feature_flags_disable_preproc_optimizations(self):
        smol = Smol(dataset_name="imagenet",
                    features=PlannerFeatures().without("preproc-opt"))
        assert not smol.engine_config.optimize_dag

    def test_instance_by_name(self):
        smol = Smol(instance="g4dn.2xlarge", dataset_name="imagenet")
        assert smol.performance_model.instance.vcpus == 8

    def test_speedup_over_naive_baseline_at_fixed_accuracy(self, smol_imagenet):
        # The paper's headline image result: Smol improves throughput at no
        # loss of accuracy versus naive full-resolution ResNet-50.
        naive = [e for e in smol_imagenet.planner.score(
            smol_imagenet.planner.generate())
            if e.plan.input_format.is_full_resolution
            and e.plan.primary_model.name == "resnet-50"]
        best = smol_imagenet.best_plan(accuracy_floor=0.745)
        assert best.throughput / naive[0].throughput > 1.5
