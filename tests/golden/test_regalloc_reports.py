"""Allocator report snapshot: what the register allocator decided.

The golden-IR snapshots stop at the ``optimized`` stage and never show a
coloring, so a change in select order — which colors a register gets, and
hence which registers spill once K runs out — would go unseen there.
This snapshot pins, for every function of the 14 workloads under the
``full`` and ``pointer`` configurations, the :class:`RegAllocReport`
fields ``rounds``, ``copies_coalesced``, ``spilled_registers``,
``spill_loads``, ``spill_stores``, ``colors_used`` and a digest of
``coloring``.

Regenerate after an *intended* allocator change with::

    pytest tests/golden --update-goldens
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from repro.pipeline import compile_source
from repro.workloads import get_workload, workload_names
from tests.golden.test_golden_ir import CONFIGS

SNAPSHOT = Path(__file__).parent / "regalloc_reports.json"

REPORT_CONFIGS = ("full", "pointer")


def coloring_digest(coloring: dict[int, int]) -> str:
    text = ",".join(f"{reg}:{color}" for reg, color in sorted(coloring.items()))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def capture_reports(workload_name: str, config: str) -> dict[str, dict]:
    wl = get_workload(workload_name)
    result = compile_source(
        wl.source, CONFIGS[config], name=wl.name, defines=wl.defines or None
    )
    return {
        name: {
            "rounds": report.rounds,
            "copies_coalesced": report.copies_coalesced,
            "spilled_registers": list(report.spilled_registers),
            "spill_loads": report.spill_loads,
            "spill_stores": report.spill_stores,
            "colors_used": report.colors_used,
            "coloring": coloring_digest(report.coloring),
        }
        for name, report in sorted(result.regalloc_reports.items())
    }


def _load() -> dict:
    return json.loads(SNAPSHOT.read_text()) if SNAPSHOT.exists() else {}


def _render(snapshot: dict) -> str:
    """JSON with one line per function, so a diff names each function
    whose allocation changed."""
    parts = []
    for key, reports in sorted(snapshot.items()):
        rows = ",\n".join(
            f"  {json.dumps(name)}: {json.dumps(report)}"
            for name, report in reports.items()
        )
        parts.append(f" {json.dumps(key)}: {{\n{rows}\n }}")
    return "{\n" + ",\n".join(parts) + "\n}\n"


@pytest.mark.parametrize("config", REPORT_CONFIGS)
@pytest.mark.parametrize("workload_name", workload_names())
def test_regalloc_reports_match_golden(workload_name, config, request):
    key = f"{workload_name}__{config}"
    got = capture_reports(workload_name, config)

    if request.config.getoption("--update-goldens"):
        snapshot = _load()
        snapshot[key] = got
        SNAPSHOT.write_text(_render(snapshot))
        return

    want = _load().get(key)
    if want is None:
        pytest.fail(
            f"missing allocator report snapshot for {key}; generate with "
            f"`pytest tests/golden --update-goldens` and commit it"
        )
    for name in sorted(set(want) | set(got)):
        assert got.get(name) == want.get(name), (
            f"{key}: allocator report of {name} diverged from "
            f"{SNAPSHOT.name}"
        )
