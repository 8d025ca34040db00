"""BENCHMARK.json must list exactly the metrics the benchmark prints.

Run with:  python3 -m pytest perfbench
"""

import json
from pathlib import Path

from run import END_TO_END
from tracing import LAYER_METRICS

SPEC = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())


def test_end_to_end_metrics_match():
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == END_TO_END


def test_per_layer_metrics_match():
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]] == list(LAYER_METRICS)
