"""Tests for the per-frame serving path: the scheduler's per-run timing
lookup, frame-geometry admission and the whole-call ``wall_clock_s``."""

import time

import numpy as np
import pytest

from repro.engine import ControlPlane, FrameRequest, FrameServer
from repro.engine.failover import BrownoutConfig
from repro.engine.scheduler import FrameScheduler
from repro.engine.server import _ModelEntry
from repro.engine.workloads import ModelSpec, build_scenario
from repro.nn.models import build_lenet, build_mlp


@pytest.fixture
def timing_calls(monkeypatch):
    """Record every ``_ModelEntry.timing_for`` call as
    ``(model key, pipeline, frame shape)``."""
    calls = []
    original = _ModelEntry.timing_for

    def spy(self, pipeline, frame_shape):
        calls.append((self.key, pipeline, tuple(frame_shape)))
        return original(self, pipeline, frame_shape)

    monkeypatch.setattr(_ModelEntry, "timing_for", spy)
    return calls


def _mlp(seed):
    return build_mlp(in_features=64, hidden=(16,), num_classes=4, seed=seed)


def _timing(server, node_id, key, shape, pipeline=None):
    """The (steady, remap, steady J, remap J) tables ``key`` serves with."""
    entry = server._models[key]
    if pipeline is None:
        pipeline = server.nodes[node_id].pipelines[key]
    return entry.timing_for(pipeline, shape)


def _assert_event_timings(response, steady, remap):
    timing = remap if response.event.remapped else steady
    assert response.event.finish_s == (
        response.event.start_s + timing.sequential_s
    )


# ----------------------------------------------------------------------
# Timing lookup
# ----------------------------------------------------------------------
def test_alternating_models_use_exact_steady_and_remap_timings(timing_calls):
    server = FrameServer(num_nodes=1, micro_batch=4, seed=0)
    server.register_model("a", _mlp(0))
    server.register_model("b", _mlp(1))
    frames = np.random.default_rng(0).uniform(0, 1, (12, 1, 8, 8))
    requests = [
        FrameRequest(frame, "ab"[index // 2 % 2])
        for index, frame in enumerate(frames)
    ]
    report = server.serve(requests, offered_fps=100.0)
    assert report.delivered == len(requests)
    # One lookup per (node, model) for the whole run.
    assert [(key, shape) for key, _, shape in timing_calls] == [
        ("a", (1, 8, 8)),
        ("b", (1, 8, 8)),
    ]
    assert all(
        pipeline is server.nodes[0].pipelines[key]
        for key, pipeline, _ in timing_calls
    )

    tables = {key: _timing(server, 0, key, (1, 8, 8)) for key in "ab"}
    energy = 0.0
    for response in report.responses:
        steady, remap, steady_j, remap_j = tables[response.model_key]
        _assert_event_timings(response, steady, remap)
        energy += remap_j if response.event.remapped else steady_j
    # Pairs of frames alternate: every other frame swaps kernels.
    assert [r.event.remapped for r in report.responses] == [
        index % 2 == 0 for index in range(len(requests))
    ]
    assert report.stream.total_energy_j == energy
    assert server.nodes[0].free_at == (
        report.responses[-1].event.start_s
        + tables["b"][0].pipelined_s
    )


def test_brownout_reduced_bits_dispatch_uses_variant_timing(timing_calls):
    scenario = build_scenario("chaos", frames=200, offered_fps=2400.0, seed=0)
    server = FrameServer(
        num_nodes=2,
        micro_batch=8,
        seed=0,
        policy="slo",
        brownout=BrownoutConfig(
            enter_pressure=(0.01, 0.02, 0.03, 1e9),
            dwell_s=1e-4,
            capacity_weight=0.0,
            pressure_ref_s=1e-5,
        ),
    )
    server.adopt_models(scenario.models)
    server.warmup()
    del timing_calls[:]
    report = server.serve_scenario(scenario)
    reduced = [
        r for r in report.responses
        if r.served_model is not None and not r.dropped
    ]
    assert reduced and report.brownout.reduced_bits_frames == len(reduced)
    lookups = [(key, id(pipeline)) for key, pipeline, _ in timing_calls]
    assert len(set(lookups)) == len(lookups)  # once per (node, key)
    for response in reduced:
        # Looked up on the variant's own entry and pipeline.
        variant = response.served_model
        pipeline = server.nodes[response.node_id].pipelines[variant]
        assert (variant, id(pipeline)) in lookups
    assert any(r.event.remapped for r in reduced)
    energy = []
    for response in report.responses:
        if response.dropped:
            continue
        key = response.served_model or response.model_key
        shape = np.shape(scenario.requests[response.index].frame)
        steady, remap, steady_j, remap_j = _timing(
            server, response.node_id, key, shape
        )
        _assert_event_timings(response, steady, remap)
        energy.append(remap_j if response.event.remapped else steady_j)
    # A variant's remap energy differs from its full-precision model's by
    # ~10x, far beyond the summation-order slack of this comparison.
    assert report.stream.total_energy_j == pytest.approx(sum(energy), rel=1e-12)


def test_warm_spare_gets_its_own_timing_entry(timing_calls):
    scenario = build_scenario("chaos", frames=120, offered_fps=2400.0, seed=0)
    server = FrameServer(
        num_nodes=2,
        micro_batch=8,
        seed=0,
        policy="slo",
        chaos_plan="node-loss",
        retry_policy="deadline",
        spares=1,
    )
    server.adopt_models(scenario.models)
    server.warmup()
    primaries = {id(pipeline) for node in server.nodes
                 for pipeline in node.pipelines.values()}
    report = server.serve_scenario(scenario)
    assert report.resilience.spares_activated == 1
    on_spare = [r for r in report.responses if r.node_id == 2 and not r.dropped]
    assert on_spare

    lookups = [(key, id(pipeline)) for key, pipeline, _ in timing_calls]
    assert len(set(lookups)) == len(lookups)  # once per (node, key)
    spare_pipelines = {
        key: pipeline
        for key, pipeline, _ in timing_calls
        if id(pipeline) not in primaries
    }
    assert spare_pipelines
    for response in on_spare:
        pipeline = spare_pipelines[response.model_key]
        steady, remap, _, _ = _timing(
            server,
            2,
            response.model_key,
            np.shape(scenario.requests[response.index].frame),
            pipeline=pipeline,
        )
        # The node-loss plan injects no latency spike: timings unscaled.
        _assert_event_timings(response, steady, remap)


def test_each_call_looks_up_its_own_frame_shape(timing_calls):
    server = FrameServer(num_nodes=1, micro_batch=4, seed=0)
    server.register_model("stem", ModelSpec("vgg16", 1).build(seed=0))
    rng = np.random.default_rng(1)
    durations = []
    for shape in ((3, 16, 16), (3, 20, 20)):
        del timing_calls[:]
        report = server.serve_frames(
            rng.uniform(0, 1, (4,) + shape), "stem", offered_fps=100.0
        )
        assert [call[2] for call in timing_calls] == [shape]
        steady, remap, _, _ = _timing(server, 0, "stem", shape)
        for response in report.responses:
            _assert_event_timings(response, steady, remap)
        durations.append(steady.sequential_s)
    assert durations[0] != durations[1]
    assert len(server._models["stem"]._timed) == 2


# ----------------------------------------------------------------------
# Frame geometry at admission
# ----------------------------------------------------------------------
def _node_state(servers):
    return [
        (node.free_at, node.active_model, node.programmed_model, node.frames)
        for server in servers
        for node in server.nodes
    ]


def _cache_counters(cache):
    return (cache.stats.hits, cache.stats.misses, cache.stats.lookups)


_RNG = np.random.default_rng(3)
_MLP_FRAME = _RNG.uniform(0, 1, (1, 28, 28))
_LENET_FRAME = _RNG.uniform(0, 1, (1, 28, 28))

#: (request index, bad frame, model key, message pattern) per geometry
#: fault; the stream alternates lenet (even) and mlp (odd) frames, so
#: indices 0 and 1 are each model's first frame.
_BAD_FRAMES = [
    (1, np.zeros((1, 27, 27)), "mlp", r"expects frames of 784 features"),
    (0, np.zeros((28, 28)), "lenet", r"expects \(C, H, W\) frames"),
    (0, np.zeros((3, 28, 28)), "lenet", r"expects 1-channel frames, got 3"),
    (5, np.zeros((1, 30, 30)), "lenet", r"one frame shape per model"),
    (6, np.zeros((1, 27, 27)), "mlp", r"one frame shape per model"),
]


def _stream(bad_index=None, bad_frame=None, bad_key=None):
    requests = [
        FrameRequest(_MLP_FRAME if index % 2 else _LENET_FRAME,
                     "mlp" if index % 2 else "lenet")
        for index in range(8)
    ]
    if bad_index is not None:
        requests[bad_index] = FrameRequest(bad_frame, bad_key)
    return requests


def _models():
    return {
        "mlp": ModelSpec("mlp", 2).build(seed=0),
        "lenet": build_lenet(seed=0),
    }


@pytest.mark.parametrize("index, bad_frame, key, message", _BAD_FRAMES)
def test_server_rejects_bad_geometry_before_any_state_change(
    index, bad_frame, key, message
):
    server = FrameServer(num_nodes=2, micro_batch=4, seed=0)
    server.adopt_models(_models())
    served = server.serve(_stream(), offered_fps=500.0)
    assert served.delivered == 8
    state, counters = _node_state([server]), _cache_counters(server.cache)
    assert any(free_at > 0.0 for free_at, *_ in state)

    with pytest.raises(ValueError, match=rf"^request {index}: .*{message}"):
        server.serve(_stream(index, bad_frame, key), offered_fps=500.0)
    assert _node_state([server]) == state
    assert _cache_counters(server.cache) == counters


@pytest.mark.parametrize("index, bad_frame, key, message", _BAD_FRAMES)
def test_controlplane_rejects_bad_geometry_before_routing(
    index, bad_frame, key, message
):
    plane = ControlPlane(shards=2, micro_batch=4, seed=0)
    for model_key, model in _models().items():
        plane.register_model(model_key, model)
    assert plane.serve(_stream(), offered_fps=500.0).delivered == 8
    servers = [shard.server for shard in plane.shards]
    state, counters = _node_state(servers), _cache_counters(plane.cache)
    routes = dict(plane._route_of)

    with pytest.raises(ValueError, match=rf"^request {index}: .*{message}"):
        plane.serve(_stream(index, bad_frame, key), offered_fps=500.0)
    assert _node_state(servers) == state
    assert _cache_counters(plane.cache) == counters
    assert plane._route_of == routes


# ----------------------------------------------------------------------
# Whole-call wall clock
# ----------------------------------------------------------------------
def test_wall_clock_times_the_whole_serve_call(monkeypatch):
    server = FrameServer(num_nodes=2, micro_batch=4, seed=0)
    server.adopt_models(_models())
    server.warmup()
    started = time.perf_counter()
    report = server.serve(_stream(), offered_fps=500.0)
    elapsed = time.perf_counter() - started
    assert 0.0 < report.wall_clock_s <= elapsed
    assert report.wall_clock_fps == report.delivered / report.wall_clock_s

    # Scheduling counts too, not only compute.
    run = FrameScheduler.run

    def slow_run(self, *args):
        time.sleep(0.05)
        return run(self, *args)

    monkeypatch.setattr(FrameScheduler, "run", slow_run)
    assert server.serve(_stream(), offered_fps=500.0).wall_clock_s >= 0.05


def test_controlplane_wall_clock_sums_shard_calls():
    plane = ControlPlane(shards=2, micro_batch=4, seed=0)
    for model_key, model in _models().items():
        plane.register_model(model_key, model)
    started = time.perf_counter()
    report = plane.serve(_stream(), offered_fps=500.0)
    elapsed = time.perf_counter() - started
    assert 0.0 < report.wall_clock_s <= elapsed
