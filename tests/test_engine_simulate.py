"""``FrameServer.simulate`` is ``serve`` without the compute step.

Twin servers — built identically — take the same stream, one through
:meth:`~repro.engine.FrameServer.simulate` and one through
:meth:`~repro.engine.FrameServer.serve`; every simulated-time field of
the two reports must be equal, across the scheduling policies,
``node_limit`` and the whole resilience stack, while ``simulate`` never
runs a hardware-pipeline forward.
"""

import numpy as np
import pytest

from repro.core.pipeline import HardwareFirstLayerPipeline
from repro.engine import FrameRequest, FrameServer, build_scenario
from repro.engine.admission import AdmissionController
from repro.engine.failover import BrownoutConfig

#: A floor-level brownout ladder: forces tier 3, so frames dispatch as
#: reduced-bits variants (``served_model`` tags).
HARSH_BROWNOUT = BrownoutConfig(
    enter_pressure=(0.01, 0.02, 0.03, 1e9),
    dwell_s=1e-4,
    capacity_weight=0.0,
    pressure_ref_s=1e-5,
)


def _simulated_fields(report) -> dict:
    """Everything a report carries except outputs, host time and the
    cache counters.  ``repr`` keeps NaN clocks of dropped frames equal."""
    return {
        "events": repr(report.stream.events),
        "total_energy_j": report.stream.total_energy_j,
        "placements": [
            (r.index, r.model_key, r.node_id, r.served_model, r.degraded)
            for r in report.responses
        ],
        "response_events": repr([r.event for r in report.responses]),
        "slo": repr(report.slo),
        "health": repr(report.health),
        "resilience": repr(report.resilience),
        "brownout": repr(report.brownout),
        "node_frames": report.node_frames,
        "payload_bytes": report.payload_bytes,
        "radio_energy_j": report.radio_energy_j,
    }


def _resilient_server(brownout) -> FrameServer:
    return FrameServer(
        num_nodes=2,
        micro_batch=8,
        seed=0,
        policy="slo",
        fault_profile="transient",
        chaos_plan="node-loss",
        retry_policy="deadline",
        spares=1,
        brownout=brownout,
    )


@pytest.fixture
def forward_calls(monkeypatch):
    """Count every ``HardwareFirstLayerPipeline.forward`` call."""
    calls = []
    original = HardwareFirstLayerPipeline.forward

    def spy(self, *args, **kwargs):
        calls.append(len(args[0]))
        return original(self, *args, **kwargs)

    monkeypatch.setattr(HardwareFirstLayerPipeline, "forward", spy)
    return calls


@pytest.mark.parametrize("policy", ["greedy", "edf", "slo"])
def test_simulate_matches_serve_per_policy(policy, forward_calls):
    scenario = build_scenario(
        "mixed-tenants", frames=48, offered_fps=1500.0, seed=0
    )
    twins = [
        FrameServer(num_nodes=2, micro_batch=8, seed=0, policy=policy)
        for _ in range(2)
    ]
    for server in twins:
        server.adopt_models(scenario.models)
        server.admission = AdmissionController(scenario.slo_classes)
    simulating, serving = twins
    # Two calls each: simulated kernel residency carries over alike.
    for _ in range(2):
        simulated = simulating.simulate(
            scenario.requests, offered_fps=scenario.offered_fps
        )
        assert forward_calls == []
        served = serving.serve(
            scenario.requests, offered_fps=scenario.offered_fps
        )
        assert forward_calls
        forward_calls.clear()
        assert _simulated_fields(simulated) == _simulated_fields(served)
        assert all(r.output is None for r in simulated.responses)
        assert all(
            (r.output is None) == r.dropped for r in served.responses
        )
        assert simulated.delivered == served.delivered > 0
        # Timing programs are a subset of what serving touches.
        assert simulated.cache_misses <= served.cache_misses
        assert simulated.cache_hits <= served.cache_hits


def test_simulate_matches_serve_under_node_limit(forward_calls):
    scenario = build_scenario("zoo", frames=48, offered_fps=1500.0, seed=0)
    simulating, serving = (
        FrameServer(num_nodes=3, micro_batch=8, seed=0) for _ in range(2)
    )
    for server in (simulating, serving):
        server.adopt_models(scenario.models)
    for limit in (2, 1, 3):
        simulated = simulating.simulate(
            scenario.requests, offered_fps=scenario.offered_fps, node_limit=limit
        )
        served = serving.serve(
            scenario.requests, offered_fps=scenario.offered_fps, node_limit=limit
        )
        assert set(simulated.node_frames) == set(range(limit))
        assert _simulated_fields(simulated) == _simulated_fields(served)
    with pytest.raises(ValueError, match="node_limit"):
        simulating.simulate(scenario.requests, node_limit=4)


@pytest.mark.parametrize("brownout", ["standard", HARSH_BROWNOUT])
def test_simulate_matches_serve_under_the_resilience_stack(
    brownout, forward_calls
):
    scenario = build_scenario("chaos", frames=120, offered_fps=2400.0, seed=0)
    simulating, serving = (_resilient_server(brownout) for _ in range(2))
    for server in (simulating, serving):
        server.adopt_models(scenario.models)
        server.admission = AdmissionController(scenario.slo_classes)
    simulated = simulating.simulate(
        scenario.requests, offered_fps=scenario.offered_fps
    )
    assert forward_calls == []
    served = serving.serve(scenario.requests, offered_fps=scenario.offered_fps)
    assert _simulated_fields(simulated) == _simulated_fields(served)
    # The stack actually fired: upsets, brownout tiers and, under the
    # standard ladder, a node loss covered by a spare and a retry; the
    # harsh ladder dispatches reduced-bits variants.
    assert simulated.health.events
    assert any(r.degraded for r in simulated.responses)
    assert simulated.brownout.peak_tier >= 1
    if brownout == "standard":
        assert simulated.resilience.spares_activated > 0
        assert simulated.resilience.retries_scheduled > 0
    else:
        assert simulated.brownout.reduced_bits_frames > 0
        assert any(r.served_model for r in simulated.responses)
    # Spares live for one call on both paths.
    assert len(simulating.nodes) == len(serving.nodes) == 2


def _frames_of(report) -> list[bytes | None]:
    return [
        None if r.output is None else np.asarray(r.output).tobytes()
        for r in report.responses
    ]


def test_serve_after_simulate_matches_a_fresh_server():
    scenario = build_scenario("zoo", frames=48, offered_fps=1500.0, seed=0)

    def server(enable_noise):
        built = FrameServer(
            num_nodes=2, micro_batch=8, seed=0, enable_noise=enable_noise
        )
        built.adopt_models(scenario.models)
        return built

    def serve(target):
        return target.serve(scenario.requests, offered_fps=scenario.offered_fps)

    # Noise-free optics: outputs and events equal a fresh server's
    # second call (simulate carried the kernel residency a serve would).
    after, fresh = server(False), server(False)
    after.simulate(scenario.requests, offered_fps=scenario.offered_fps)
    serve(fresh)
    second, reference = serve(after), serve(fresh)
    assert _frames_of(second) == _frames_of(reference)
    assert _simulated_fields(second) == _simulated_fields(reference)

    # With read noise the stream is consumed only by compute, so the
    # outputs equal a fresh server's first call, byte for byte.
    after, fresh = server(True), server(True)
    after.simulate(scenario.requests, offered_fps=scenario.offered_fps)
    assert _frames_of(serve(after)) == _frames_of(serve(fresh))


def test_simulate_validates_like_serve():
    server = FrameServer(num_nodes=1, seed=0)
    scenario = build_scenario("default", frames=4, offered_fps=500.0, seed=0)
    server.adopt_models(scenario.models)
    with pytest.raises(ValueError, match="unknown model key"):
        server.simulate([FrameRequest(np.zeros(3), "nope")])
    first = scenario.requests[0]
    bad = [FrameRequest(first.frame, first.model_key, arrival_s=float("nan"))]
    with pytest.raises(ValueError, match=r"request 0: arrival_s"):
        server.simulate(bad)
    assert server.cache.stats.lookups == 0
