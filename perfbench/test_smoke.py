"""Smoke test of the benchmark at toy size.

Run from the repository root:

    python3 -m pytest perfbench/test_smoke.py -q

Checks that every metric BENCHMARK.json declares is emitted with its unit,
and that a perturbed network output fails the correctness checks.
"""

from __future__ import annotations

import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import run  # noqa: E402
import workloads  # noqa: E402
from nisf.model import FieldModel, ModelConfig  # noqa: E402

TINY = workloads.Scale(model=ModelConfig(latent_dim=4, hidden_width=8, num_res_layers=1),
                       overfit_steps=3, overfit_loss_fall=1.0, infer_steps=3,
                       grid_counts=(8, 8, 2, 1), plane_tilts_deg=(35.0,))

with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), encoding="utf-8") as f:
    SPEC = json.load(f)


def _declared(kind: str) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in SPEC[kind]}


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
@pytest.mark.parametrize("trace", [False, True])
def test_every_declared_metric_is_emitted_with_its_unit(name, trace):
    result = run.run_workload(name, seed=1, seconds=0.0, trace=trace, scale=TINY)
    assert result["correct"], result["problems"]
    assert result["attempted"] >= 1 and result["failed"] == 0
    want = _declared("per_layer" if trace else "end_to_end")
    got = {m: v["unit"] for m, v in result["metrics"].items()}
    assert got == want
    for metric in got:
        value = result["metrics"][metric]["value"]
        assert isinstance(value, float) and value >= 0.0
    if not trace:
        assert all(v["value"] > 0.0 for v in result["metrics"].values())


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_perturbed_output_fails_the_checks(name, monkeypatch, capsys):
    forward = FieldModel.forward

    def perturbed(self, coords, latent):
        out = forward(self, coords, latent)
        out.intensity.values = out.intensity.values + 1e-6
        return out

    monkeypatch.setattr(FieldModel, "forward", perturbed)
    result = run.run_workload(name, seed=1, seconds=0.0, trace=False, scale=TINY)
    assert not result["correct"]
    assert result["failed"] == result["attempted"] >= 1
    assert run.finish({name: result}, machine={}) == 1
    last = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is False
