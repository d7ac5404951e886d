"""Self-test of the benchmark harness at tiny trial counts.

    python3 -m pytest -q bench/test_bench.py
"""

import copy
import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402

TINY = {
    "opnorm": (1, (("hsbound", 1), ("thm32", 1), ("thm22", 1))),
    "sections": (2, (("fact31", 1), ("prop41", 1), ("prop42", 1))),
    "geometry": (1, (("lemmaD", 1), ("corC", 1))),
}


@pytest.fixture
def tiny(monkeypatch):
    for name, spec in TINY.items():
        monkeypatch.setitem(run.WORKLOADS, name, spec)
    monkeypatch.setattr(run, "SETUP_PROBES", 1)


def _bench(capsys, workload: str, seed: int, trace: int) -> tuple[list[str], dict]:
    assert run.main(["--workload", workload, "--seed", str(seed), "--seconds", "0",
                     "--trace", str(trace)]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    return lines, json.loads(lines[-1])


def test_benchmark_json_matches_harness():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.LAYER_METRICS


def test_recorded_verdicts_cover_every_suite_at_its_trial_count():
    recorded = json.loads(run.EXPECTED.read_text())
    assert recorded["seed"] == run.DEFAULT_SEED
    used = {s: t for _, suites in run.WORKLOADS.values() for s, t in suites}
    assert {s: r["trials"] for s, r in recorded["reports"].items()} == used


@pytest.mark.parametrize("workload,seed", [("opnorm", 7), ("sections", 12), ("geometry", 12)])
def test_untraced_run_prints_every_metric_with_its_unit(tiny, capsys, workload, seed):
    lines, result = _bench(capsys, workload, seed, 0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert {k: m["unit"] for k, m in result["metrics"].items()} == run.END_TO_END
    assert all(m["value"] > 0 for m in result["metrics"].values())
    for name, unit in run.END_TO_END.items():
        assert any(ln.startswith(f"{workload} {name} ") and ln.endswith(f" {unit}")
                   for ln in lines)
    assert f"{workload} failed_share 0 1" in lines
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0


def test_traced_runs_repeat_exact_work_counts(tiny, capsys):
    runs = [_bench(capsys, "opnorm", 12, 1) for _ in range(2)]
    for lines, result in runs:
        assert result["correct"] and result["failed"] == 0
        assert {k: m["unit"] for k, m in result["metrics"].items()} == run.LAYER_METRICS
        for name, unit in run.LAYER_METRICS.items():
            assert any(ln.startswith(f"opnorm {name} ") and ln.endswith(f" {unit}")
                       for ln in lines)
    counts = [{k: r["metrics"][k]["value"] for k in run.COUNT_METRICS} for _, r in runs]
    assert counts[0] == counts[1]
    assert counts[0]["linprog.solve_lp.calls"] > 0
    assert counts[0]["body.solves_per_gauge"] == 1.0  # full-LP path only


def test_reference_check_flags_an_injected_wrong_value(tiny, tmp_path):
    cli = run.set_up()
    import reference  # needs the genquot sources set_up puts on sys.path

    cycle = run.run_cycle(cli, "opnorm", 12, tmp_path)
    hsbound = next(r for r in cycle.runs if r.suite == "hsbound")
    payload = hsbound.payload
    checks = reference.check_report("hsbound", payload, 12)
    assert checks and all(c["ok"] for c in checks)

    wrong = copy.deepcopy(payload)
    rec = next(r for r in wrong["trials"] if r["cell"] == "8x64" and r["trial"] == 0)
    rec["hs"] *= 1 + 1e-6
    flagged = [c for c in reference.check_report("hsbound", wrong, 12) if not c["ok"]]
    assert [(c["cell"], c["quantity"]) for c in flagged] == [("8x64", "operator_norm")]
