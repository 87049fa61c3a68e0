"""The benchmark's named workloads, built only through the public engine API.

Each workload is one seeded request stream served by one server or
control plane in its default configuration: no ``compute_mode``, no
``parallel``/``ParallelConfig``, no ``shm_min_bytes`` and no program
store are set, so removing those knobs needs no edit here.  The seed
feeds the scenario generator only (model weights, frames, Poisson
arrivals); the server keeps its default die seed, so the fleet and any
injected chaos timeline are the same on every seed.

``setup(seed)`` builds the scenario and the server, registers and warms
the models, and serves the stream once (untimed), which absorbs lazy
set-up such as the autoscaler's capacity search.  ``Served.call``
then serves the same stream again.  Kernel residency carries over from
call to call, so from then on the simulated outcome repeats in a cycle
of one or two calls.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable


@dataclass
class Served:
    """A set-up workload: its stream, the object serving it, one call."""

    requests: list
    #: Serves the whole stream once and returns the ``ServeReport``.
    call: Callable
    #: The program cache the calls run against (stats are read around calls).
    cache: object
    #: Admission controller holding the stream's SLO classes.
    admission: object
    #: Report of the untimed first call that closed the set-up.
    first: object


@dataclass(frozen=True)
class Workload:
    """A named workload; why each exists is recorded in ``BENCHMARK.json``."""

    name: str
    #: Whether timed calls must program nothing (set-up holds all programming).
    steady: bool
    setup: Callable[[int], Served]


def _frame_server(scenario, **server_kwargs) -> Served:
    from repro.engine import FrameServer

    server = FrameServer(**server_kwargs)
    server.adopt_models(scenario.models, origin=f"scenario {scenario.name!r}")
    server.warmup()
    # serve_scenario adopts the stream's SLO classes; later calls go
    # straight to serve() with the same requests and rate.
    first = server.serve_scenario(scenario)
    return Served(
        requests=scenario.requests,
        call=lambda: server.serve(
            scenario.requests, offered_fps=scenario.offered_fps
        ),
        cache=server.cache,
        admission=server.admission,
        first=first,
    )


def _mlp_steady(seed: int) -> Served:
    from repro.engine import models_scenario

    scenario = models_scenario("mlp:2", frames=512, offered_fps=1800.0, seed=seed)
    return _frame_server(scenario, num_nodes=2)


def _zoo_swap(seed: int) -> Served:
    from repro.engine import build_scenario

    scenario = build_scenario("zoo", frames=64, offered_fps=1000.0, seed=seed)
    return _frame_server(scenario, num_nodes=2)


def _chaos_failover(seed: int) -> Served:
    from repro.engine import build_scenario

    scenario = build_scenario("chaos", frames=360, offered_fps=2400.0, seed=seed)
    return _frame_server(
        scenario,
        num_nodes=2,
        policy="slo",
        fault_profile="transient",
        chaos_plan="node-loss",
        retry_policy="deadline",
        spares=1,
        brownout="standard",
    )


def _regions_autoscale(seed: int) -> Served:
    from repro.engine import AutoscalerConfig, ControlPlane, build_scenario

    scenario = build_scenario(
        "diurnal-regions", frames=600, offered_fps=800.0, seed=seed
    )
    plane = ControlPlane(
        shards=3,
        policy="slo",
        autoscaler=AutoscalerConfig(window_s=0.01, min_nodes=1, max_nodes=3),
    )

    # serve_scenario, not serve: the autoscaler looks its measured
    # per-node capacity up by the scenario being served.
    def call():
        return plane.serve_scenario(scenario, placement="partition")

    first = call()
    return Served(
        requests=scenario.requests,
        call=call,
        cache=plane.cache,
        admission=plane.shards[0].server.admission,
        first=first,
    )


WORKLOADS: dict[str, Workload] = {
    workload.name: workload
    for workload in (
        Workload("mlp-steady", steady=True, setup=_mlp_steady),
        Workload("zoo-swap", steady=True, setup=_zoo_swap),
        Workload("regions-autoscale", steady=True, setup=_regions_autoscale),
        Workload("chaos-failover", steady=False, setup=_chaos_failover),
    )
}
