from __future__ import annotations

import pytest

from fedmesh import run_scenario
from fedmesh.experiments import scale_workloads
from fedmesh.workloads import (
    SWEEP_SIZES,
    DemandDistribution,
    MetricsSink,
    WorkloadSpec,
    generate_units,
    job_share_percent,
)


def spec(rows=5, cols=5, model="task", demand=None, app_id=None):
    return WorkloadSpec(
        model=model,
        rows=rows,
        cols=cols,
        unit_demand=demand or DemandDistribution(3.0, 6.0),
        submit_cloud="cloud-1",
        app_id=app_id,
    )


class TestGenerateUnits:
    def test_unit_count_is_rows_times_cols(self):
        assert len(generate_units(spec(5, 5), seed=1)) == 25
        assert len(generate_units(spec(13, 13), seed=1)) == 169

    def test_constant_demand(self):
        units = generate_units(spec(demand=DemandDistribution.constant(4.8)), seed=1)
        assert {u.demand_ghz_s for u in units} == {4.8}

    def test_uniform_demand_within_bounds_and_seeded(self):
        a = generate_units(spec(), seed=7)
        b = generate_units(spec(), seed=7)
        c = generate_units(spec(), seed=8)
        assert a == b
        assert [u.demand_ghz_s for u in a] != [u.demand_ghz_s for u in c]
        assert all(3.0 <= u.demand_ghz_s < 6.0 for u in a)

    def test_unit_ids_carry_app_and_index(self):
        units = generate_units(spec(2, 2, app_id="my-app"), seed=1)
        assert [u.unit_id for u in units] == [f"my-app#{k}" for k in range(4)]

    def test_distinct_apps_draw_distinct_streams(self):
        a = generate_units(spec(app_id="app-a"), seed=1)
        b = generate_units(spec(app_id="app-b"), seed=1)
        assert [u.demand_ghz_s for u in a] != [u.demand_ghz_s for u in b]


class TestGranularitySweep:
    def test_five_observation_points(self):
        assert SWEEP_SIZES == (5, 7, 9, 11, 13)

    def test_sizes_strictly_increasing(self, melbourne_scenario):
        sizes = [
            {w.unit_count for w in scale_workloads(melbourne_scenario, ("task",), s).workloads
             if w.model == "task"}
            for s in SWEEP_SIZES
        ]
        assert sizes == [{25}, {49}, {81}, {121}, {169}]

    def test_model_override(self, melbourne_scenario):
        scaled = scale_workloads(melbourne_scenario, ("thread",), 7)
        for base, s in zip(melbourne_scenario.workloads, scaled.workloads):
            assert (s.rows, s.cols) == ((7, 7) if base.model == "thread" else (base.rows, base.cols))

    def test_specs_differ_only_in_partitioning(self, melbourne_scenario):
        for size in SWEEP_SIZES:
            scaled = scale_workloads(melbourne_scenario, ("task",), size)
            for base, s in zip(melbourne_scenario.workloads, scaled.workloads):
                if base.model != "task":
                    assert s == base  # a model outside the sweep is left untouched
                    continue
                assert (s.rows, s.cols) == (size, size)
                assert type(s) is WorkloadSpec
                assert s._replace(rows=base.rows, cols=base.cols) == base


class TestJobShare:
    def sink_with(self, counts):
        sink = MetricsSink()
        for (cloud, model), n in counts.items():
            for _ in range(n):
                sink.record_completion(cloud, model)
        return sink

    def test_single_cloud_takes_everything(self):
        sink = self.sink_with({("c1", "task"): 7, ("c1", "thread"): 3})
        share = job_share_percent(sink, ("c1", "c2"))
        assert share.shares["c1"] == (100.0, 100.0)
        assert share.shares["c2"] == (0.0, 0.0)
        assert share.zero_models == ()

    def test_each_model_sums_to_hundred(self):
        sink = self.sink_with(
            {("c1", "task"): 5, ("c2", "task"): 15, ("c1", "thread"): 2, ("c2", "thread"): 2}
        )
        share = job_share_percent(sink, ("c1", "c2"))
        assert sum(s[0] for s in share.shares.values()) == pytest.approx(100.0)
        assert sum(s[1] for s in share.shares.values()) == pytest.approx(100.0)

    def test_model_with_no_jobs_reports_zero_and_flag(self):
        sink = self.sink_with({("c1", "task"): 4})
        share = job_share_percent(sink, ("c1",))
        assert share.shares["c1"] == (100.0, 0.0)
        assert share.zero_models == ("thread",)


class TestConservation:
    def test_completed_equals_submitted_at_quiescence(self, melbourne_scenario):
        result = run_scenario(melbourne_scenario)
        sink = result.state.metrics
        for model in ("task", "thread"):
            done = sum(n for (_, m), n in sink.completed_by_model.items() if m == model)
            submitted = sum(a.unit_count for a in result.state.apps.values() if a.model == model)
            assert done == submitted == 125
        assert sink.completed_per_model() == {"task": 125, "thread": 125}
        by_cloud = sum(sink.completed_by_model.values())
        assert by_cloud == 250

    def test_response_metric_single_source_of_truth(self, melbourne_scenario):
        from fedmesh.federation import response_time

        result = run_scenario(melbourne_scenario)
        for app_id, recorded in result.state.metrics.response_times.items():
            assert recorded == response_time(result.state.apps[app_id])
