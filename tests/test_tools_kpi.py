"""Tests for tools/kpi_check.py — the BENCH_*.json trajectory gate."""

import importlib.util
import json
import os
import sys

import pytest

CHECKER_PATH = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "tools",
    "kpi_check.py",
)

spec = importlib.util.spec_from_file_location("kpi_check", CHECKER_PATH)
kpi_check = importlib.util.module_from_spec(spec)
# dataclass processing resolves the defining module through sys.modules,
# so register before exec (plain spec_from_file_location skips this).
sys.modules["kpi_check"] = kpi_check
spec.loader.exec_module(kpi_check)


def _full(payload):
    return {"quick": False, **payload}


# --------------------------------------------------------------------------
# Plumbing
# --------------------------------------------------------------------------
def test_lookup_dotted_paths():
    payload = {"a": {"b": {"c": 3}}, "x": 1}
    assert kpi_check.lookup(payload, "a.b.c") == 3
    assert kpi_check.lookup(payload, "x") == 1
    assert kpi_check.lookup(payload, "a.missing") is None
    assert kpi_check.lookup(payload, "x.too.deep") is None


def test_load_strict_rejects_nan():
    with pytest.raises(ValueError, match="NaN"):
        kpi_check.load_strict('{"v": NaN}')
    assert kpi_check.load_strict('{"v": 1.5}') == {"v": 1.5}


def test_every_registered_kpi_names_a_known_kind():
    for name, kpis in kpi_check.KPIS.items():
        for kpi in kpis:
            assert kpi.kind in ("invariant_true", "higher"), (name, kpi)


# --------------------------------------------------------------------------
# Invariants
# --------------------------------------------------------------------------
def _identical_parallel_payload():
    """Every schema-2 parallel invariant satisfied."""
    return {
        "zoo_warmup": {"bit_identical": True},
        "capacity_grid": {"bit_identical": True},
        "pool_reuse": {"bit_identical": True},
        "shm_transport": {"bit_identical": True},
        "warm_store": {
            "bit_identical": True,
            "warm_programs_zero": True,
            "restored_bit_identical": True,
        },
    }


def test_invariant_failure_reported_in_quick_mode_too():
    fresh = {"quick": True, **_identical_parallel_payload()}
    fresh["zoo_warmup"] = {"bit_identical": False}
    failures = kpi_check.check_invariants("parallel", fresh)
    assert len(failures) == 1
    assert "zoo_warmup.bit_identical" in failures[0]


def test_warm_store_invariants_gated():
    fresh = {"quick": False, **_identical_parallel_payload()}
    assert kpi_check.check_invariants("parallel", fresh) == []
    fresh["warm_store"] = {
        "bit_identical": True,
        "warm_programs_zero": False,
        "restored_bit_identical": True,
    }
    failures = kpi_check.check_invariants("parallel", fresh)
    assert len(failures) == 1
    assert "warm_store.warm_programs_zero" in failures[0]


def test_missing_invariant_counts_as_failure():
    failures = kpi_check.check_invariants("parallel", {"quick": False})
    assert len(failures) == 7  # all schema-2 exact claims absent


def test_warm_path_digest_invariants_gated():
    """Each warm-path stream must match its recorded output digest; a
    legacy payload carrying only the two-mode flags fails both."""
    fresh = {
        "quick": True,
        "engine_limited": {"digest_matches": True},
        "compute_bound": {"digest_matches": True},
    }
    assert kpi_check.check_invariants("warm_path", fresh) == []
    fresh["compute_bound"] = {"digest_matches": False}
    failures = kpi_check.check_invariants("warm_path", fresh)
    assert len(failures) == 1
    assert "compute_bound.digest_matches" in failures[0]
    legacy = {
        "engine_limited": {"bit_identical": True},
        "compute_bound": {"bit_identical": True},
    }
    assert len(kpi_check.check_invariants("warm_path", legacy)) == 2


# --------------------------------------------------------------------------
# Trajectory comparisons
# --------------------------------------------------------------------------
def test_regression_beyond_rel_tol_fails():
    baseline = _full({"recovery_ratio": 1.0})
    ok = kpi_check.compare_payloads(
        "degraded_serving", _full({"recovery_ratio": 0.96}), baseline
    )
    assert ok == []
    bad = kpi_check.compare_payloads(
        "degraded_serving", _full({"recovery_ratio": 0.90}), baseline
    )
    assert len(bad) == 1 and "recovery_ratio" in bad[0]


def test_abs_slack_gates_small_differences():
    baseline = _full({"slo_vs_greedy_hit_gain": 0.05})
    ok = kpi_check.compare_payloads(
        "serving_policies", _full({"slo_vs_greedy_hit_gain": 0.04}), baseline
    )
    assert ok == []
    bad = kpi_check.compare_payloads(
        "serving_policies", _full({"slo_vs_greedy_hit_gain": 0.02}), baseline
    )
    assert len(bad) == 1


def test_quick_payloads_never_compared():
    baseline = _full({"recovery_ratio": 1.0})
    fresh = {"quick": True, "recovery_ratio": 0.1}
    assert kpi_check.compare_payloads("degraded_serving", fresh, baseline) == []
    # ... and a quick *baseline* is equally non-binding.
    assert (
        kpi_check.compare_payloads(
            "degraded_serving",
            _full({"recovery_ratio": 0.1}),
            {"quick": True, "recovery_ratio": 1.0},
        )
        == []
    )


def test_min_cores_gates_parallel_speedups():
    few_cores = _full(
        {
            "cores": 1,
            "zoo_warmup": {"bit_identical": True, "speedup": 0.4},
            "capacity_grid": {"bit_identical": True, "speedup": 0.5},
        }
    )
    baseline = _full(
        {
            "cores": 8,
            "zoo_warmup": {"bit_identical": True, "speedup": 3.0},
            "capacity_grid": {"bit_identical": True, "speedup": 2.5},
        }
    )
    # 1-core fresh payload: speedups are IPC overhead, not gated.
    assert kpi_check.compare_payloads("parallel", few_cores, baseline) == []
    # 8-core fresh payload vs 8-core baseline: gated normally.
    regressed = _full(
        {
            "cores": 8,
            "zoo_warmup": {"bit_identical": True, "speedup": 1.0},
            "capacity_grid": {"bit_identical": True, "speedup": 2.4},
        }
    )
    failures = kpi_check.compare_payloads("parallel", regressed, baseline)
    assert len(failures) == 1 and "zoo_warmup.speedup" in failures[0]


def test_absent_metric_is_not_gated():
    baseline = _full({"recovery_ratio": 1.0})
    assert kpi_check.compare_payloads("degraded_serving", _full({}), baseline) == []
    assert (
        kpi_check.compare_payloads(
            "degraded_serving", _full({"recovery_ratio": 1.0}), _full({})
        )
        == []
    )


def test_chaos_invariants_gated():
    """The resilience flags are exact claims, checked in quick mode too."""
    fresh = {
        "quick": True,
        "default_bit_identical": False,
        "deterministic": True,
    }
    failures = kpi_check.check_invariants("chaos", fresh)
    assert len(failures) == 1
    assert "default_bit_identical" in failures[0]
    fresh["default_bit_identical"] = True
    assert kpi_check.check_invariants("chaos", fresh) == []


def test_controlplane_invariants_gated():
    """The control-plane flags are exact claims, checked in quick mode too."""
    fresh = {
        "quick": True,
        "default_bit_identical": True,
        "deterministic": False,
    }
    failures = kpi_check.check_invariants("controlplane", fresh)
    assert len(failures) == 1
    assert "deterministic" in failures[0]
    fresh["deterministic"] = True
    assert kpi_check.check_invariants("controlplane", fresh) == []


def test_controlplane_savings_and_hit_rate_gated():
    """Node-seconds savings and the deadline-hit rate are trajectory KPIs."""
    baseline = _full(
        {
            "autoscaled_interactive_hit_rate": 1.0,
            "node_seconds_saved_frac": 0.45,
        }
    )
    ok = kpi_check.compare_payloads(
        "controlplane",
        _full(
            {
                "autoscaled_interactive_hit_rate": 0.995,
                "node_seconds_saved_frac": 0.42,
            }
        ),
        baseline,
    )
    assert ok == []
    bad = kpi_check.compare_payloads(
        "controlplane",
        _full(
            {
                "autoscaled_interactive_hit_rate": 0.90,
                "node_seconds_saved_frac": 0.20,
            }
        ),
        baseline,
    )
    assert len(bad) == 2
    assert any("autoscaled_interactive_hit_rate" in f for f in bad)
    assert any("node_seconds_saved_frac" in f for f in bad)


# --------------------------------------------------------------------------
# Core-gated skip annotations
# --------------------------------------------------------------------------
def test_core_gated_skips_are_annotated():
    """A 1-core host's excused speedup KPIs produce explicit SKIP notes."""
    few_cores = _full(
        {
            "cores": 1,
            "zoo_warmup": {"bit_identical": True, "speedup": 0.4},
            "capacity_grid": {"bit_identical": True, "speedup": 0.5},
        }
    )
    baseline = _full(
        {
            "cores": 8,
            "zoo_warmup": {"bit_identical": True, "speedup": 3.0},
            "capacity_grid": {"bit_identical": True, "speedup": 2.5},
        }
    )
    skips = kpi_check.core_gated_skips("parallel", few_cores, baseline)
    # zoo_warmup, capacity_grid, pool_reuse and shm_transport speedups
    # are core-gated; warm_store.speedup is not (it is no parallelism
    # claim) and must never appear here.
    assert len(skips) == 4
    assert "zoo_warmup.speedup" in skips[0] and "fresh host has 1" in skips[0]
    assert not any("warm_store" in note for note in skips)
    # Capable hosts on both sides: nothing excused, nothing annotated.
    assert kpi_check.core_gated_skips("parallel", baseline, baseline) == []


def test_warm_store_speedup_gated_on_any_host():
    """The store-restore KPI carries no core gate: a 1-core container
    still fails the gate when the warm-store speedup collapses."""
    baseline = _full({"cores": 8, "warm_store": {"speedup": 40.0}})
    fresh = _full({"cores": 1, "warm_store": {"speedup": 5.0}})
    failures = kpi_check.compare_payloads("parallel", fresh, baseline)
    assert len(failures) == 1 and "warm_store.speedup" in failures[0]


def test_quick_payloads_produce_no_skip_notes():
    """Quick-mode runs compare nothing, so no core gate ever fires."""
    quick = {"quick": True, "cores": 1}
    assert kpi_check.core_gated_skips("parallel", quick, _full({})) == []


def test_controlplane_kpis_hold_on_any_host():
    """Simulated-time control-plane KPIs carry no ``min_cores`` gate, so a
    1-core CI container gates them fully and annotates no skips."""
    assert all(
        not kpi.min_cores for kpi in kpi_check.KPIS["controlplane"]
    )
    one_core = _full({"cores": 1, "node_seconds_saved_frac": 0.45})
    assert kpi_check.core_gated_skips("controlplane", one_core, one_core) == []


# --------------------------------------------------------------------------
# File-level behavior
# --------------------------------------------------------------------------
def test_unknown_bench_passes(tmp_path):
    path = tmp_path / "BENCH_novel.json"
    path.write_text(json.dumps({"bench": "novel", "quick": False}))
    assert kpi_check.check_file(str(path), "HEAD") == []


def test_malformed_json_fails(tmp_path):
    path = tmp_path / "BENCH_bad.json"
    path.write_text('{"bench": "parallel", "v": NaN}')
    failures = kpi_check.check_file(str(path), "HEAD")
    assert len(failures) == 1 and "not strict JSON" in failures[0]


def test_committed_benches_pass_the_gate():
    """The working tree must always hold its own committed trajectory."""
    assert kpi_check.main([]) == 0
