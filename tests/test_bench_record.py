"""``scripts/bench_record.py`` and the ``BENCH_*.json`` files it writes."""

import importlib.util
import json
import re
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location(
    "bench_record", ROOT / "scripts" / "bench_record.py"
)
bench_record = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_record)

END_TO_END = {m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]}
HEX16 = re.compile(r"[0-9a-f]{16}")


def test_seed_list_expands_ranges_and_single_seeds(tmp_path):
    assert bench_record.seed_list("8501-8503,8601") == [8501, 8502, 8503, 8601]
    assert bench_record.seed_list("7") == [7]
    out = tmp_path / "BENCH.json"
    for text in ("8503-8501", "", ","):  # no seed to record is a usage error
        with pytest.raises(SystemExit) as exc:
            bench_record.main(["--out", str(out), "--seeds", text])
        assert exc.value.code == 2
    assert not out.exists()


# Prints what perfbench/run.py prints: a digest line, then the result JSON last.
_STUB = """
import json, sys
args = dict(zip(sys.argv[1::2], sys.argv[2::2]))
print("round 0 wall_s=0.5")
print(f"digest workload={args['--workload']} seed={args['--seed']} round=0 "
      "csv=0123456789abcdef runs=fedcba9876543210")
print(json.dumps({"correct": True, "attempted": 12, "failed": 1, "metrics": {
    "wall_s": {"value": 0.5, "unit": "s"}, "cpu_s": {"value": 0.4, "unit": "s"}}}))
"""


def test_record_run_reads_the_digest_line_and_the_result_json():
    run = bench_record.record_run([sys.executable, "-c", _STUB], "gp-order", 8501)
    assert run == {
        "workload": "gp-order",
        "seed": 8501,
        "correct": True,
        "attempted": 12,
        "failed": 1,
        "metrics": {"wall_s": 0.5, "cpu_s": 0.4},
        "digest_round0": {"csv": "0123456789abcdef", "runs": "fedcba9876543210"},
    }


@pytest.mark.parametrize("path", sorted(ROOT.glob("BENCH_*.json")), ids=lambda p: p.name)
def test_committed_bench_record_schema(path):
    record = json.loads(path.read_text())
    assert isinstance(record["command"], str) and record["command"]
    assert isinstance(record["box"], dict) and record["box"]
    assert record["runs"]
    for run in record["runs"]:
        assert isinstance(run["correct"], bool)
        assert set(run["metrics"]) == END_TO_END
        assert HEX16.fullmatch(run["digest_round0"]["csv"])
        assert HEX16.fullmatch(run["digest_round0"]["runs"])
