"""Check that two checkouts of twisteta write the same records for the
benchmark's operations.

    python3 tools/same_records.py BASE [--head HEAD] [--workloads W ...] [--seeds N ...]

BASE and HEAD are source checkouts (HEAD defaults to the one holding this
script).  The operations are those of ``bench/workloads.py`` beside this
script, so both sides run the same configs.  Each checkout runs every
operation of each workload and seed once through ``twisteta.cli.main``, in its
own subprocess with its own ``src/`` first on ``sys.path``.  An operation is
identical when its exit code and its records match after ``wall_time`` is
dropped from every record.  One line per operation says ``identical`` or
``different``; the exit status is 1 if any operation differs.  A line that
says ``different`` also measures the difference: whether the exit code or a
``converged`` flag changed, and the largest ``|delta value| / error_bound``
over its records (the smaller of the two bounds), whether every ``value`` is
bit-identical and the largest ratio of HEAD's ``error_bound`` to BASE's, or
that the records differ in more than ``value``, ``error_bound`` and
``converged``; it ends with the ``quantity`` names of the records that
differ.  Each workload closes with a summary line: how many of its
operations are identical, the largest ``|delta value| / error_bound`` and
the largest ``error_bound`` ratio over its differing operations, and every
quantity that changed in any of them.
"""

from __future__ import annotations

import argparse
import json
import math
import subprocess
import sys
import tempfile
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("heat_eta", "sweeps", "lw_torus")


def canonical(text: str) -> list[str]:
    """The records of one JSONL file, ``wall_time`` dropped, as sorted-key
    JSON lines (floats keep their repr, so equal lines mean equal bits)."""
    out = []
    for line in text.splitlines():
        if line.strip():
            record = json.loads(line)
            record.pop("wall_time", None)
            out.append(json.dumps(record, sort_keys=True))
    return out


def same_records(a: str, b: str) -> bool:
    """Whether two JSONL record texts are equal apart from ``wall_time``."""
    return canonical(a) == canonical(b)


def difference(a: str, b: str) -> tuple[float, bool] | None:
    """For two JSONL record texts: the largest ``|delta value| / error_bound``
    over records paired in order, taking the smaller of the two bounds, and
    whether any ``converged`` flag differs.  ``None`` when the texts differ
    in more than ``value``, ``error_bound`` and ``converged``."""
    ra, rb = ([json.loads(line) for line in canonical(text)] for text in (a, b))
    if len(ra) != len(rb):
        return None
    worst, flipped = 0.0, False
    measured = {"value", "error_bound", "converged"}
    for x, y in zip(ra, rb):
        if any(x.get(k) != y.get(k) for k in (x.keys() | y.keys()) - measured):
            return None
        if x["value"] != y["value"]:
            bound = min(x["error_bound"], y["error_bound"])
            worst = max(worst, abs(x["value"] - y["value"]) / bound if bound > 0 else math.inf)
        flipped |= x["converged"] != y["converged"]
    return worst, flipped


def bound_change(a: str, b: str) -> tuple[bool, float]:
    """For two JSONL record texts paired in order: whether every ``value`` is
    bit-identical, and the largest ratio of the second text's ``error_bound``
    to the first's over the records where either bound is nonzero (1 if
    there are none)."""
    ra, rb = ([json.loads(line) for line in canonical(text)] for text in (a, b))
    same_values = all(json.dumps(x["value"]) == json.dumps(y["value"]) for x, y in zip(ra, rb))
    bounds = [(x["error_bound"], y["error_bound"]) for x, y in zip(ra, rb)]
    return same_values, max((y / x if x > 0 else math.inf for x, y in bounds if x or y),
                            default=1.0)


def changed_quantities(a: str, b: str) -> list[str]:
    """The ``quantity`` names, sorted, of the records paired in order that
    differ apart from ``wall_time``, both sides' where a pair's names differ
    (a record without a partner counts)."""
    ra, rb = ([json.loads(line) for line in canonical(text)] for text in (a, b))
    names = {r.get("quantity") for x, y in zip(ra, rb) if x != y for r in (x, y)}
    names |= {r.get("quantity") for r in ra[len(rb):] + rb[len(ra):]}
    return sorted(str(n) for n in names)


def _describe(code_a, text_a: str, code_b, text_b: str) -> str:
    """How one differing operation differs, for its report line."""
    measured = difference(text_a, text_b)
    if measured is None:
        records = "records differ beyond value, error_bound and converged"
    else:
        worst, flipped = measured
        same_values, ratio = bound_change(text_a, text_b)
        records = (f"max |dvalue|/error_bound {worst:.2g}, "
                   f"converged {'changed' if flipped else 'unchanged'}, "
                   f"values {'bit-identical' if same_values else 'changed'}, "
                   f"max error_bound ratio {ratio:.3g}")
    return (f"exit code {'changed' if code_a != code_b else 'unchanged'}, {records}, "
            f"changed quantities {', '.join(changed_quantities(text_a, text_b)) or 'none'}")


def summary(workload: str, outcomes: list[tuple[int | None, str, int | None, str]]) -> str:
    """The closing line of a workload from the ``(exit code, records text)``
    pairs of BASE and HEAD for each of its operations: how many are
    identical; over the differing ones whose records differ only in
    ``value``, ``error_bound`` and ``converged``, the largest ``|delta
    value| / error_bound`` and the largest ``error_bound`` ratio; and every
    quantity that changed."""
    same, worst, ratios = 0, [], []
    changed: set[str] = set()
    for code_a, text_a, code_b, text_b in outcomes:
        changed.update(changed_quantities(text_a, text_b))
        if code_a == code_b and same_records(text_a, text_b):
            same += 1
        elif (measured := difference(text_a, text_b)) is not None:
            worst.append(measured[0])
            ratios.append(bound_change(text_a, text_b)[1])
    sizes = (f"max |dvalue|/error_bound {max(worst):.2g}, max error_bound ratio "
             f"{max(ratios):.3g}" if worst else "no measured difference")
    return (f"{workload}: {same} of {len(outcomes)} operation(s) identical, {sizes}, "
            f"changed quantities {', '.join(sorted(changed)) or 'none'}")


def _run_checkout(root: Path, workload: str, seed: int, out: Path) -> int:
    """Run every operation in this process; write ``exit_codes.json``."""
    sys.path.insert(0, str(ROOT / "bench"))
    sys.path.insert(0, str(root / "src"))
    import workloads
    from twisteta import cli

    if not Path(cli.__file__).resolve().is_relative_to(root.resolve() / "src"):
        raise ImportError(f"twisteta imported from {cli.__file__}, not from {root}")
    ops = workloads.generate(workload, seed)
    configs = workloads.write_configs(ops, out / "configs")
    codes = {}
    for op, cfg in zip(ops, configs):
        argv = [op.command, "--config", str(cfg), "--out", str(out / f"{op.label}.jsonl")]
        try:
            codes[op.label] = cli.main(argv)
        except Exception:
            traceback.print_exc()
            codes[op.label] = 1
    (out / "exit_codes.json").write_text(json.dumps(codes))
    return 0


def _outcomes(root: Path, workload: str, seed: int, out: Path) -> dict[str, tuple[int, str]]:
    """label -> (exit code, records text) of one checkout, from a subprocess."""
    out.mkdir(parents=True)
    subprocess.run([sys.executable, __file__, "--run", str(root), str(out),
                    workload, str(seed)], check=True, stdout=subprocess.DEVNULL)
    outcomes = {}
    for label, code in json.loads((out / "exit_codes.json").read_text()).items():
        path = out / f"{label}.jsonl"  # absent when the command wrote nothing
        outcomes[label] = (code, path.read_text() if path.is_file() else "")
    return outcomes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base", type=Path, help="checkout to compare against")
    parser.add_argument("--head", type=Path, default=ROOT, help="checkout under test")
    parser.add_argument("--workloads", nargs="+", default=list(WORKLOADS), choices=WORKLOADS)
    parser.add_argument("--seeds", nargs="+", type=int, default=[1, 2, 3])
    args = parser.parse_args(argv)

    differ = 0
    with tempfile.TemporaryDirectory() as tmp:
        for workload in args.workloads:
            outcomes = []
            for seed in args.seeds:
                where = Path(tmp) / f"{workload}-{seed}"
                base = _outcomes(args.base, workload, seed, where / "base")
                head = _outcomes(args.head, workload, seed, where / "head")
                for label in sorted(base.keys() | head.keys()):
                    (code_a, text_a), (code_b, text_b) = (
                        side.get(label, (None, "")) for side in (base, head))
                    same = code_a == code_b and same_records(text_a, text_b)
                    differ += not same
                    outcomes.append((code_a, text_a, code_b, text_b))
                    print(f"{workload} seed {seed} {label}: exit {code_a}/{code_b}, "
                          f"{len(canonical(text_b))} records, "
                          + ("identical" if same else
                             "different: " + _describe(code_a, text_a, code_b, text_b)))
            print(summary(workload, outcomes))
    print(f"{differ} operation(s) differ")
    return 1 if differ else 0


if __name__ == "__main__":
    if sys.argv[1:2] == ["--run"]:
        root, out, workload, seed = sys.argv[2:]
        raise SystemExit(_run_checkout(Path(root), workload, int(seed), Path(out)))
    raise SystemExit(main())
