"""Tests of the benchmark's own code: inputs, tracing and declarations.

Run with ``python3 -m pytest perfbench/tests`` from the repository root.
"""

import itertools
import json
import os
import re
import shutil
import subprocess
import sys

import pytest

import env
import inputs
import spans

BENCHMARK = os.path.join(env.ROOT, "BENCHMARK.json")
NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def _cli_inputs(seed):
    return [inputs.cli_argv(axis, seed) for axis in inputs.CLI_AXES]


def _wide_head(seed):
    from repro.workloads.source import SyntheticTraceSource

    source = SyntheticTraceSource(4096, seed=inputs.wide_trace_seed(seed))
    return b"".join(source.chunks())


def _requests(seed, client=0, count=60):
    return list(itertools.islice(inputs.client_requests(seed, client),
                                 count))


GENERATORS = {
    "cli-cold": _cli_inputs,
    "replay-wide": _wide_head,
    "replay-narrow-tracked": lambda seed: inputs.phased_trace(
        seed, n_bytes=4096, segment_bytes=1024),
    "service-mixed": lambda seed: (inputs.warm_requests(seed),
                                   _requests(seed)),
}


@pytest.mark.parametrize("workload", sorted(GENERATORS))
def test_generators_are_deterministic_per_seed(workload):
    generate = GENERATORS[workload]
    assert generate(3) == generate(3)


@pytest.mark.parametrize("workload", sorted(GENERATORS))
def test_generators_differ_across_seeds(workload):
    generate = GENERATORS[workload]
    made = [generate(seed) for seed in range(inputs.VARIANTS)]
    assert all(a != b for a, b in itertools.combinations(made, 2))


def test_service_sequence_has_cold_and_warm_requests():
    warm_seeds = tuple(request["seed"]
                       for request in inputs.warm_requests(5)
                       if request["op"] == "sweep")
    kinds = []
    for client in range(inputs.CLIENTS):
        mine = [inputs.request_kind(request, warm_seeds)
                for request in _requests(5, client, count=200)]
        assert mine.count("cold") > 0
        assert mine.count("replay") > 0
        kinds += mine
    assert kinds.count("warm") > kinds.count("cold")


def test_clients_send_distinct_cold_seeds():
    cold = [request["seed"]
            for client in range(inputs.CLIENTS)
            for request in _requests(9, client, count=300)
            if request["op"] == "sweep" and request["seed"] >= 1 << 40]
    assert len(cold) == len(set(cold))


def test_phased_trace_makes_the_tracker_switch():
    from repro.ctrl.adaptive import OperatingPoint, TrackingConfig
    from repro.ctrl.controller import MemoryController
    from repro.phy.power import GBPS, PICOFARAD
    from repro.workloads.source import BytesTraceSource

    params = inputs.NARROW
    tracker = TrackingConfig(points=tuple(
        OperatingPoint(interface=name, data_rate_hz=gbps * GBPS,
                       c_load_farads=params["c_load_pf"] * PICOFARAD)
        for name, gbps in params["points"])).build()
    controller = MemoryController(
        channels=params["channels"], byte_lanes=params["byte_lanes"],
        window=params["window"], backend="vector", tracker=tracker)
    trace = inputs.phased_trace(0, n_bytes=4 * params["segment_bytes"])
    controller.submit_source(
        BytesTraceSource(trace, chunk_bytes=params["chunk_bytes"]))
    controller.flush()
    assert len(tracker.switches) >= 1


def test_pins_cover_every_variant_and_tracked_pins_switch():
    import workload_replay

    pins = workload_replay.load_pins()
    for workload in ("replay-wide", "replay-narrow-tracked"):
        entry = pins[workload]
        assert entry["descriptor"] == inputs.replay_descriptor(workload)
        assert sorted(entry["variants"], key=int) == [
            str(variant) for variant in range(inputs.VARIANTS)]
        assert entry["reference_checked"] == list(range(inputs.VARIANTS))
    for totals in pins["replay-narrow-tracked"]["variants"].values():
        assert len(totals["switches"]) >= 1


def _declared():
    with open(BENCHMARK, encoding="utf-8") as handle:
        return json.load(handle)


def test_declared_metrics_are_well_formed():
    declared = _declared()
    end_to_end, per_layer = declared["end_to_end"], declared["per_layer"]
    assert 1 <= len(end_to_end) <= 16
    assert 1 <= len(per_layer) <= 128
    names = [metric["name"] for metric in end_to_end + per_layer]
    assert len(names) == len(set(names))
    assert all(NAME_RE.match(name) for name in names)
    for metric in end_to_end:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    setup = [metric for metric in end_to_end if metric["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    for metric in per_layer:
        assert set(metric) == {"name", "unit", "better"}


def test_declared_workloads_match_the_runner():
    import run

    declared = [workload["name"] for workload in _declared()["workloads"]]
    assert tuple(declared) == run.WORKLOADS


def test_span_self_time_excludes_children():
    tracer = spans.Tracer()
    with tracer.span("outer"):
        with tracer.span("inner"):
            sum(range(20000))
    table = tracer.summary()
    inner = table["inner"]["s"]
    assert table["outer"]["self_s"] == pytest.approx(
        table["outer"]["s"] - inner)
    assert table["inner"]["self_s"] == table["inner"]["s"]


def test_generator_spans_time_each_resumption():
    tracer = spans.Tracer()

    def numbers():
        yield from range(3)

    wrapped = spans._wrap_gen(tracer, "gen", numbers)
    assert list(wrapped()) == [0, 1, 2]
    assert tracer.summary()["gen"]["calls"] == 4  # three items + the end


def test_install_wraps_then_restores_every_original():
    import importlib

    originals = []
    for module_name, path, *__ in spans.TARGETS:
        owner, attribute = spans._owner(module_name, path)
        originals.append((owner, attribute, owner.__dict__[attribute]
                          if isinstance(owner, type)
                          else getattr(owner, attribute)))
    tracer = spans.Tracer()
    restore = spans.install(tracer)
    try:
        for owner, attribute, original in originals:
            assert getattr(owner, attribute) is not original
        from repro.core.costs import CostModel
        from repro.core.streaming import BatchStreamingEncoder

        encoder = BatchStreamingEncoder(CostModel.fixed(), rows=2, window=4)
        encoder.push([bytes(range(8)), bytes(8)])
        encoder.flush()
    finally:
        restore()
    for owner, attribute, original in originals:
        current = (owner.__dict__[attribute] if isinstance(owner, type)
                   else getattr(owner, attribute))
        assert current is original
    layers = spans.layer_metrics(tracer.summary(), tracer.counts)
    assert layers["core.BatchStreamingEncoder.push.calls"] == 1
    assert layers["core.BatchStreamingEncoder.push.bytes"] == 16
    assert importlib.import_module("repro.cli").run_experiment \
        is importlib.import_module("repro.sim.experiments").run_experiment


def test_quantile_interpolates_like_a_sorted_rank():
    assert env.quantile([4.0, 1.0, 3.0, 2.0], 0.5) == 2.5
    assert env.quantile([1.0, 2.0, 3.0, 4.0, 5.0], 0.9) == pytest.approx(4.6)
    assert env.quantile([7.0], 0.9) == 7.0


def test_child_env_clears_repro_overrides(monkeypatch):
    monkeypatch.setenv("REPRO_BACKEND", "reference")
    monkeypatch.setenv("REPRO_CACHE_DIR", "/nonexistent")
    monkeypatch.setenv("PYTHONPATH", "/elsewhere")
    child = env.child_env()
    assert not any(key.startswith("REPRO_") for key in child)
    assert child["PYTHONPATH"] == env.SRC


def test_runner_refuses_a_checkout_without_the_program(tmp_path):
    shutil.copy(BENCHMARK, tmp_path / "BENCHMARK.json")
    shutil.copytree(env.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "replay-wide",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout == ""
