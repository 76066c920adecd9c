"""Tests of the benchmark itself, on tiny workload sizes."""

import dataclasses
import inspect
import json
import os
import sys

import pytest

BENCH_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, BENCH_DIR)

import bench  # noqa: E402
import tracer  # noqa: E402
from iekf_kit import config, filters  # noqa: E402
from iekf_kit.exceptions import SingularInnovation  # noqa: E402

with open(os.path.join(os.path.dirname(BENCH_DIR), "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)

# durations that keep each operation well under a second yet exercise every
# layer of the workload (the window needs tracks that end inside the run)
TINY = {"study": 0.4, "dense": 0.2, "window": 2.6}


def loaded(name):
    wl = bench.WORKLOADS[name]
    return wl, bench.prepare(wl, config.load_config(bench.config_path(wl)))


def tiny(name):
    wl, cfg = loaded(name)
    cfg.scenario = dataclasses.replace(cfg.scenario, duration=TINY[name])
    cfg.runs = 2
    return wl, cfg


def attribute_snapshot():
    """Every attribute of the traced modules and their classes."""
    snap = {}
    for module in tracer.LAYERS.values():
        for attr, obj in vars(module).items():
            snap[(module.__name__, attr)] = obj
            if inspect.isclass(obj) and obj.__module__ == module.__name__:
                for cattr, cobj in vars(obj).items():
                    snap[(module.__name__, attr, cattr)] = cobj
    return snap


@pytest.mark.parametrize("name", sorted(bench.WORKLOADS))
def test_every_metric_is_emitted_with_its_unit(name, tmp_path):
    wl, cfg = tiny(name)
    p, write_s = bench.measure(wl, cfg, 0, 0.0, out_dir=tmp_path)
    metrics, _ = bench.end_to_end(wl, cfg, p, write_s, setup_s=0.5)
    assert {k: u for k, (_, u) in metrics.items()} == {
        m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    p, stats, write_stats, size, overhead, _ = bench.measure_traced(
        wl, cfg, 0, 0.0, tracer.Tracer(), out_dir=tmp_path)
    metrics = bench.per_layer(stats, write_stats, tracer.LayerStats(), size,
                              overhead)
    assert {k: u for k, (_, u) in metrics.items()} == {
        m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert p.failed == 0
    assert metrics["sim.camera_epochs"][0] == bench.camera_epochs(cfg)


@pytest.mark.parametrize("name", sorted(bench.WORKLOADS))
def test_traced_records_are_bit_identical(name):
    wl, cfg = tiny(name)
    plain = bench.run_operation(wl, cfg, 3, 1)
    t = tracer.Tracer()
    with t.installed():
        traced = bench.run_operation(wl, cfg, 3, 1)
    stats = tracer.LayerStats()
    t.collect(stats)
    assert traced == plain
    assert stats.calls["imu.propagate_mean"] > 0


def test_patched_attributes_are_restored():
    before = attribute_snapshot()
    t = tracer.Tracer()
    wl, cfg = tiny("window")
    with t.installed():
        assert filters.FilterInstance.predict is not before[
            ("iekf_kit.filters", "FilterInstance", "predict")]
        bench.run_operation(wl, cfg, 0, 0)
    with pytest.raises(RuntimeError):
        with t.installed():
            raise RuntimeError("operation aborted")
    after = attribute_snapshot()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    # aliases bound with ``from .filters import ...`` are traced too
    assert ("iekf_kit.sim", "invariant_initial_covariance") in {
        (owner.__name__, attr) for owner, attr, _ in t.targets}


@pytest.mark.parametrize("traced", [False, True])
def test_injected_singular_innovation_fails_one_operation(traced, monkeypatch,
                                                          tmp_path):
    original = filters.FilterInstance.update_raw
    calls = []

    def update_raw(self, residual, H, N):
        calls.append(1)
        if len(calls) == 1:
            raise SingularInnovation("injected")
        return original(self, residual, H, N)

    monkeypatch.setattr(filters.FilterInstance, "update_raw", update_raw)
    wl, cfg = tiny("study")
    if traced:
        p, stats, *_ = bench.measure_traced(wl, cfg, 0, 0.0, tracer.Tracer(),
                                            out_dir=tmp_path)
    else:
        p, _ = bench.measure(wl, cfg, 0, 0.0, out_dir=tmp_path)
    assert (p.attempted, p.failed, p.incorrect) == (2, 1, 0)
    assert "SingularInnovation" in p.failures[0][1]


def test_failed_checks_are_counted():
    wl, cfg = tiny("dense")
    records = bench.run_operation(wl, cfg, 0, 0)
    ref = bench.summarize(wl, cfg, records)
    p = bench.Pass(wl, cfg, 0, reference=[ref, ref])
    assert p.settle(0, records)
    bad_ref = json.loads(json.dumps(ref))
    bad_ref["iekf"]["mean_pos_nees"] *= 1 + 1e-5
    p.reference = [bad_ref, bad_ref]
    assert not p.settle(1, records)
    short = {k: v[:-1] for k, v in records.items()}
    assert not p.settle(1, short)
    assert (p.attempted, p.failed, p.incorrect) == (3, 2, 2)


@pytest.mark.parametrize("name", sorted(bench.WORKLOADS))
def test_reference_matches_the_default_seed(name):
    wl, cfg = loaded(name)
    reference = bench.load_reference(wl, cfg, cfg.seed)
    assert len(reference) == cfg.runs
    assert bench.load_reference(wl, cfg, cfg.seed + 1) is None
    records = bench.run_operation(wl, cfg, cfg.seed, 1)
    assert bench.check(wl, cfg, records, reference[1]) == []


def test_tail_percentile_keeps_ten_samples_beyond():
    assert bench.tail(list(range(39)))[0] == 50
    assert bench.tail(list(range(40)))[0] == 75
    assert bench.tail(list(range(200))) == (75, 149.25)
