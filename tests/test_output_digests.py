"""Recorded-digest pins of the serving engine's outputs.

The serving engine has one compute path, the per-(node, model) chunk loop
of :class:`~repro.engine.server.FrameServer`.  Its observable outcome is
pinned by ``tests/goldens/output_digests.json``: a SHA-256 per report over
every response's placement, simulated-time event, degradation flag,
served model and output bytes, plus the stream energy and any health
events, together with the report's cache hit/miss counters.  The digests
were recorded from the engine that still carried a second, vectorized
compute path and a per-call kernel-swap key derivation, so they pin that
both were removed without changing a single output byte or cache count.

Covered:

* every registered scenario, served twice on one two-node server (the
  second call runs entirely on the warm kernel-swap path), plus the
  ``slo`` queueing policy on the mixed-tenant stream;
* the resilience stack (transient faults, node loss, retry, a warm spare
  and brownout) over three calls, so recalibration invalidates cached
  programs and the next activation reprograms them;
* the hardware pipeline's chunked ``forward`` for every stem family at
  every weight bit width.

Regenerate only after an *intentional* behaviour change with::

    PYTHONPATH=src python tests/test_output_digests.py --write

and review the diff: this file changing is the review event.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os

import numpy as np
import pytest

GOLDEN_PATH = os.path.join(
    os.path.dirname(__file__), "goldens", "output_digests.json"
)

#: Scenario keys pinned (``repro.engine.workloads.scenario_registry()``);
#: ``test_every_registered_scenario_is_pinned`` keeps the two in step.
SCENARIOS = (
    "default",
    "poisson",
    "poisson-burst",
    "diurnal",
    "mixed-tenants",
    "zoo",
    "chaos",
    "diurnal-regions",
)
STEM_FAMILIES = ("vgg16", "mlp", "lenet")
STEM_BITS = (1, 2, 3, 4)


def report_digest(report) -> str:
    """SHA-256 over everything a ServeReport observed in simulated time."""
    digest = hashlib.sha256()
    for resp in report.responses:
        event = resp.event
        digest.update(
            repr(
                (
                    resp.index,
                    resp.model_key,
                    resp.node_id,
                    event.arrival_s,
                    event.start_s,
                    event.finish_s,
                    event.dropped,
                    event.remapped,
                    resp.degraded,
                    resp.served_model,
                )
            ).encode()
        )
        if resp.output is not None:
            output = np.ascontiguousarray(resp.output, dtype=float)
            digest.update(repr(output.shape).encode())
            digest.update(output.tobytes())
    digest.update(repr(report.stream.total_energy_j).encode())
    if report.health is not None:
        for event in report.health.events:
            digest.update(
                repr((event.time_s, event.node_id, event.kind)).encode()
            )
    return digest.hexdigest()


def _record(report) -> dict:
    return {
        "digest": report_digest(report),
        "cache_hits": report.cache_hits,
        "cache_misses": report.cache_misses,
    }


@functools.lru_cache(maxsize=None)
def _scenario_records(key: str, policy: str) -> tuple[dict, ...]:
    """Two serves of one scenario on a fresh two-node server."""
    from repro.engine import FrameServer, build_scenario

    server = FrameServer(num_nodes=2, micro_batch=8, seed=0, policy=policy)
    scenario = build_scenario(key, frames=48, offered_fps=1500.0, seed=0)
    return tuple(_record(server.serve_scenario(scenario)) for _ in range(2))


@functools.lru_cache(maxsize=None)
def _resilient_records() -> tuple[dict, ...]:
    """Three serves of the chaos stream under the whole resilience stack."""
    from repro.engine import FrameServer, build_scenario

    server = FrameServer(
        num_nodes=2,
        micro_batch=8,
        seed=0,
        policy="slo",
        fault_profile="transient",
        chaos_plan="node-loss",
        retry_policy="deadline",
        spares=1,
        brownout="standard",
    )
    scenario = build_scenario("chaos", frames=120, offered_fps=2400.0, seed=0)
    return tuple(_record(server.serve_scenario(scenario)) for _ in range(3))


def _stem_digest(family: str, bits: int) -> str:
    """Chunked hardware-pipeline forward of one stem at one bit width."""
    from repro.core.opc import OpticalProcessingCore
    from repro.core.pipeline import HardwareFirstLayerPipeline
    from repro.engine.workloads import ModelSpec

    spec = ModelSpec(family, bits)
    rng = np.random.default_rng(3)
    frames = rng.uniform(0.0, 1.0, (20,) + spec.frame_shape)
    pipeline = HardwareFirstLayerPipeline(
        spec.build(seed=7), OpticalProcessingCore(seed=5)
    )
    logits = np.ascontiguousarray(pipeline.forward(frames, batch_size=8))
    digest = hashlib.sha256(repr(logits.shape).encode())
    digest.update(logits.tobytes())
    return digest.hexdigest()


def _capture() -> dict:
    return {
        "scenarios": {
            key: list(_scenario_records(key, "greedy")) for key in SCENARIOS
        },
        "slo": {
            "mixed-tenants": list(_scenario_records("mixed-tenants", "slo"))
        },
        "resilient": list(_resilient_records()),
        "stems": {
            f"{family}-{bits}": _stem_digest(family, bits)
            for family in STEM_FAMILIES
            for bits in STEM_BITS
        },
    }


@pytest.fixture(scope="module")
def golden() -> dict:
    with open(GOLDEN_PATH) as handle:
        return json.load(handle)


def test_every_registered_scenario_is_pinned():
    from repro.engine.workloads import scenario_registry

    assert sorted(scenario_registry()) == sorted(SCENARIOS)


@pytest.mark.parametrize("key", SCENARIOS)
def test_scenario_serving_matches_recorded_digest(golden, key):
    """Outputs and events of both calls are byte-identical to the record."""
    recorded = [call["digest"] for call in golden["scenarios"][key]]
    assert [call["digest"] for call in _scenario_records(key, "greedy")] == (
        recorded
    )


def test_slo_policy_serving_matches_recorded_digest(golden):
    """The queueing policy's schedule computes to the recorded bytes too."""
    recorded = golden["slo"]["mixed-tenants"]
    assert list(_scenario_records("mixed-tenants", "slo")) == recorded


@pytest.mark.parametrize("key", ["zoo", "chaos"])
def test_kernel_swap_cache_counters_match_recorded(golden, key):
    """The memoized swap path counts every hit and miss the per-call key
    derivation counted: cold construction misses on the first call, and
    none on the warm second call."""
    recorded = golden["scenarios"][key]
    served = _scenario_records(key, "greedy")
    for ours, theirs in zip(served, recorded):
        assert (ours["cache_hits"], ours["cache_misses"]) == (
            theirs["cache_hits"],
            theirs["cache_misses"],
        )
    assert served[1]["cache_misses"] == 0


def test_resilient_serving_matches_recorded_digest(golden):
    """Recalibrations invalidate programs mid-stream; the reprogrammed
    swaps reproduce the recorded outputs, events and cache counters."""
    served = list(_resilient_records())
    assert served == golden["resilient"]
    assert any(call["cache_misses"] for call in served[1:])


@pytest.mark.parametrize("bits", STEM_BITS)
@pytest.mark.parametrize("family", STEM_FAMILIES)
def test_pipeline_forward_matches_recorded_digest_per_stem(
    golden, family, bits
):
    """Chunked forward, conv and dense stems, at every weight bit width."""
    assert _stem_digest(family, bits) == golden["stems"][f"{family}-{bits}"]


def write_golden() -> None:
    with open(GOLDEN_PATH, "w") as handle:
        json.dump(_capture(), handle, indent=2)
        handle.write("\n")
    print(f"wrote {GOLDEN_PATH}")


if __name__ == "__main__":
    import sys

    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    from golden_cli import golden_main

    golden_main(write_golden, __doc__)
