import importlib.util
import json
from pathlib import Path

_PATH = Path(__file__).resolve().parent.parent / "tools" / "same_records.py"
_SPEC = importlib.util.spec_from_file_location("same_records", _PATH)
same_records = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(same_records)


def jsonl(*records):
    return "".join(json.dumps(r) + "\n" for r in records)


def test_records_equal_apart_from_wall_time_are_the_same():
    a = jsonl({"quantity": "eta", "value": 0.1 + 0.2, "wall_time": 0.5},
              {"quantity": "sf", "value": 2, "wall_time": 0.1})
    b = jsonl({"wall_time": 9.0, "value": 0.30000000000000004, "quantity": "eta"},
              {"quantity": "sf", "value": 2, "wall_time": 0.2})
    assert same_records.same_records(a, b)


def test_records_differing_in_one_value_are_not_the_same():
    a = jsonl({"quantity": "eta", "value": 0.1 + 0.2, "wall_time": 0.5})
    b = jsonl({"quantity": "eta", "value": 0.3, "wall_time": 0.5})
    assert not same_records.same_records(a, b)
    assert not same_records.same_records(a, a + a)
