import importlib.util
import json
from pathlib import Path

import pytest

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


def test_a_difference_is_measured_against_the_smaller_bound():
    a = jsonl({"quantity": "eta", "value": 0.5, "error_bound": 1e-10, "converged": True},
              {"quantity": "sf", "value": 2, "error_bound": 0.0, "converged": True})
    b = jsonl({"quantity": "eta", "value": 0.5 + 4e-13, "error_bound": 2e-10, "converged": True},
              {"quantity": "sf", "value": 2, "error_bound": 0.0, "converged": True})
    worst, flipped = same_records.difference(a, b)
    assert worst == pytest.approx(4e-3, rel=1e-3) and not flipped
    assert same_records.difference(a, a) == (0.0, False)
    flip = b.replace('"converged": true}', '"converged": false}', 1)
    assert same_records.difference(a, flip)[1]
    # a changed quantity, or a missing record, is not a tolerated difference
    assert same_records.difference(a, b.replace('"sf"', '"xi"')) is None
    assert same_records.difference(a, a + a) is None
    assert "exit code changed" in same_records._describe(0, a, 3, flip)


def test_bound_change_reports_identical_values_and_the_largest_bound_ratio():
    a = jsonl({"quantity": "eta", "value": 0.5, "error_bound": 2e-10, "converged": True},
              {"quantity": "xi", "value": 0.25, "error_bound": 1e-10, "converged": True},
              {"quantity": "sf", "value": 2, "error_bound": 0.0, "converged": True})
    b = jsonl({"quantity": "eta", "value": 0.5, "error_bound": 1e-10, "converged": True},
              {"quantity": "xi", "value": 0.25, "error_bound": 0.9e-10, "converged": True},
              {"quantity": "sf", "value": 2, "error_bound": 0.0, "converged": True})
    same_values, ratio = same_records.bound_change(a, b)
    assert same_values and ratio == pytest.approx(0.9)
    assert same_records.bound_change(b, a)[1] == pytest.approx(2.0)
    assert not same_records.bound_change(a, b.replace('"value": 0.5', '"value": 0.5000001'))[0]
    assert not same_records.bound_change(a, b.replace('"value": 2', '"value": -0.0'))[0]
    assert same_records.bound_change(a, b.replace('"error_bound": 0.0', '"error_bound": 1.0'))[1] \
        == float("inf")
    line = same_records._describe(0, a, 0, b)
    assert "values bit-identical, max error_bound ratio 0.9" in line


def test_changed_quantities_name_the_records_that_differ():
    a = jsonl({"quantity": "eta", "value": 0.5, "error_bound": 1e-10, "converged": True},
              {"quantity": "sf", "value": 2, "error_bound": 0.0, "converged": True})
    b = jsonl({"quantity": "eta", "value": 0.5, "error_bound": 2e-10, "converged": True},
              {"quantity": "sf", "value": 2, "error_bound": 0.0, "converged": True})
    assert same_records.changed_quantities(a, a) == []
    assert same_records.changed_quantities(a, b) == ["eta"]
    # a record without a partner counts as changed
    assert same_records.changed_quantities(a, b + jsonl({"quantity": "xi", "value": 0.1})) \
        == ["eta", "xi"]
    assert same_records._describe(0, a, 0, b).endswith("changed quantities eta")
    # a paired record whose quantity itself changed is named under both names
    renamed = b.replace('"quantity": "eta"', '"quantity": "xi"')
    assert same_records.changed_quantities(a, renamed) == ["eta", "xi"]
    assert same_records.changed_quantities(renamed, a) == ["eta", "xi"]


def test_summary_gives_the_largest_difference_and_bound_ratio_of_a_workload():
    a = jsonl({"quantity": "eta", "value": 0.5, "error_bound": 1e-10, "converged": True})
    b = jsonl({"quantity": "eta", "value": 0.5 + 2e-11, "error_bound": 3e-10, "converged": True})
    c = jsonl({"quantity": "eta", "value": 0.5 - 5e-11, "error_bound": 0.5e-10,
               "converged": True})
    heat = jsonl({"quantity": "eta", "value": 9.0, "error_bound": 1e-3, "converged": True,
                  "method": "heat_kernel"})
    line = same_records.summary("sweeps", [(0, a, 0, a), (0, a, 0, b), (0, a, 0, c),
                                           (0, a, 3, heat)])
    # |dvalue|/bound over a-b (0.2) and a-c (1.0); bound ratios 3 and 0.5;
    # the operation whose records differ beyond value and bound is not measured
    assert line == ("sweeps: 1 of 4 operation(s) identical, max |dvalue|/error_bound 1, "
                    "max error_bound ratio 3, changed quantities eta")
    assert same_records.summary("lw", [(0, a, 0, a)]) == (
        "lw: 1 of 1 operation(s) identical, no measured difference, changed quantities none")
