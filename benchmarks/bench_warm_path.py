"""Warm-path serving bench: steady-state frame throughput.

The serving engine computes admitted frames on one path: each node's
same-model runs go through the hardware pipeline in ``micro_batch``
chunks, and a kernel swap is a lookup of the node's memoized program key.
This bench measures that path on two streams (see
:func:`repro.analysis.perf.bench_warm_path`):

* **engine-limited** — a long drop-free MLP-stem stream where per-frame
  engine overhead bounds throughput; carries the headline
  ``wall_clock_fps``;
* **compute-bound** — the kernel-swapping two-LeNet stream, where the
  off-chip head dominates.

Each stream reports whole-``serve()`` throughput (``serve_fps``) and
asserts its outputs hash to the digest recorded before the engine's
second compute path was removed.  The run writes ``BENCH_warm_path.json``
at the repo root through the guarded
:func:`~repro.analysis.perf.write_bench` — a ``REPRO_BENCH_QUICK=1``
smoke run (shorter stream, one repeat) never clobbers a full-mode
trajectory entry, and the payload must parse as *strict* JSON (no
``NaN``/``Infinity`` constants).
"""

import json
import os

import pytest

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_JSON = os.path.join(REPO_ROOT, "BENCH_warm_path.json")
QUICK = os.environ.get("REPRO_BENCH_QUICK", "") == "1"


@pytest.fixture(scope="module")
def bench_result(save_artifact):
    from repro.analysis.perf import (
        run_warm_path_bench,
        would_clobber_full_bench,
        write_bench,
    )

    result = run_warm_path_bench(quick=QUICK)
    kept = would_clobber_full_bench(BENCH_JSON, result)
    write_bench(BENCH_JSON, result)
    save_artifact("warm_path.txt", json.dumps(result, indent=2))
    if kept:
        print(f"[full-mode trajectory entry at {BENCH_JSON} kept]")
    else:
        print(f"[warm-path trajectory entry written to {BENCH_JSON}]")
    return result


def test_streams_match_recorded_digests(bench_result):
    """Both bench streams serve the recorded output bytes."""
    assert bench_result["engine_limited"]["digest_matches"] is True
    assert bench_result["compute_bound"]["digest_matches"] is True


def test_headline_stream_is_drop_free(bench_result):
    """The FPS claim must measure a steady state, not a shedding server."""
    limited = bench_result["engine_limited"]
    assert limited["delivered"] == limited["frames"]


def test_whole_call_throughput_is_positive(bench_result):
    """Both streams report whole-``serve()`` throughput, which can never
    exceed the report's own (partial-call) figure."""
    for stream in ("engine_limited", "compute_bound"):
        measured = bench_result[stream]
        assert 0.0 < measured["serve_fps"] <= measured["wall_clock_fps"]


def test_warm_path_json_is_strict_json(bench_result):
    """The payload on disk parses with NaN/Infinity rejected."""

    def reject(name):
        raise AssertionError(f"non-JSON constant {name!r} in {BENCH_JSON}")

    assert os.path.exists(BENCH_JSON)
    with open(BENCH_JSON) as handle:
        payload = json.load(handle, parse_constant=reject)
    assert payload["bench"] == "warm_path"
    assert payload["engine_limited"]["serve_fps"] > 0
