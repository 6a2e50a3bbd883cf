#!/usr/bin/env python3
"""The repo benchmark: one command, six workloads, every metric by name.

    python benchmarks/e2e/run.py [--workload NAME]... [--seed N] [--seconds S]
                                 [--trace [0|1]] [--smoke] [--out FILE]
    python benchmarks/e2e/run.py --compare A.json B.json

Each workload runs in a fresh subprocess pinned to one CPU, with every BLAS
pool pinned to one thread; this process only orchestrates, prints and writes
the result.  The driver gates the four workloads ``BENCHMARK.json`` names, one
per call, with ``--seconds run_seconds``; without ``--workload`` all six run.
With no ``--trace`` both passes run (end-to-end numbers with tracing off, then
the traced per-layer pass); ``--trace 0`` / ``--trace 1`` run one of them.
With exactly one ``--workload`` the last line of standard output is the
one-line JSON object the benchmark contract asks for.  See README.md beside
this file.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from e2ebench import metrics  # noqa: E402 - needs the path line above
from e2ebench.environment import OUT_DIR, REPO_ROOT, pin_to_one_cpu, pinned_env, require_pinned_blas  # noqa: E402

SRC = REPO_ROOT / "src"
CHILD_TIMEOUT_S = 170.0
#: Measuring window when ``--seconds`` is not given (the driver always gives it).
DEFAULT_SECONDS = 10.0
DEFAULT_OUT = OUT_DIR / "result.json"
RESULT_SCHEMA = 1


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", action="append", metavar="NAME", help="repeatable; default: all six")
    parser.add_argument("--seed", type=int, default=0, help="every random input derives from it")
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS, help="measuring window per workload")
    parser.add_argument(
        "--trace", nargs="?", const="1", choices=("0", "1"),
        help="0: end-to-end pass only; 1 (or bare): traced per-layer pass only; absent: both",
    )
    parser.add_argument("--smoke", action="store_true", help="toy sizes, one round: checks plumbing, not speed")
    parser.add_argument("--out", type=Path, help="add this run to FILE (default: a fresh out/result.json)")
    parser.add_argument("--compare", nargs=2, type=Path, metavar=("A.json", "B.json"))
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


# ---------------------------------------------------------------------------
# Child: one workload, measured in this process
# ---------------------------------------------------------------------------


def child_main(args) -> int:
    pin_to_one_cpu()
    require_pinned_blas()
    sys.path.insert(0, str(SRC))
    from e2ebench.runner import run_workload

    (name,) = args.workload
    record = run_workload(
        name, args.seed, args.seconds, e2e=args.trace != "1", trace=args.trace != "0", smoke=args.smoke
    )
    print(json.dumps(record))
    return 0


# ---------------------------------------------------------------------------
# Parent: orchestrate, print, write
# ---------------------------------------------------------------------------


def run_child(name: str, args) -> dict:
    command = [
        sys.executable, str(HERE / "run.py"), "--child", "--workload", name,
        "--seed", str(args.seed), "--seconds", str(args.seconds),
    ]
    if args.trace is not None:
        command += ["--trace", args.trace]
    if args.smoke:
        command.append("--smoke")
    failure = {"workload": name, "seed": args.seed, "correct": False, "attempted": 1, "failed": 1, "failed_frac": 1.0}
    try:
        done = subprocess.run(
            command, env=pinned_env(), stdout=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S, check=False
        )
    except subprocess.TimeoutExpired:
        return {**failure, "error": f"timed out after {CHILD_TIMEOUT_S:.0f} s"}
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        return {**failure, "error": f"workload subprocess exited with code {done.returncode}"}
    return json.loads(lines[-1])


def print_record(record: dict) -> None:
    status = "correct" if record["correct"] else "INCORRECT"
    print(
        f"== {record['workload']}  seed {record['seed']}  {status}  attempted {record['attempted']}  "
        f"failed {record['failed']}  failed_frac {record['failed_frac']:.6g}"
    )
    if "error" in record:
        print(record["error"], file=sys.stderr)
        return
    print(f"   check: {json.dumps(record['check'])}")
    if "end_to_end" in record:
        print(f"   end-to-end (tracing off, {record['rounds']} rounds; median [q1, q3])")
        for name, m in record["end_to_end"].items():
            print(f"     {name:<44} {m['value']:>14.6g} {m['unit']:<6} [{m['q1']:.6g}, {m['q3']:.6g}]  n={m['n']}")
        for name, value in record["derived"].items():
            print(f"     {name:<44} {value:>14.6g}        (derived, ungated)")
    if "per_layer" in record:
        print(f"   per-layer (traced pass; spans in {record['trace_file']})")
        for name, m in record["per_layer"].items():
            print(f"     {name:<44} {m['value']:>14.6g} {m['unit']}")


def contract_line(record: dict, declaration: dict, trace: str | None) -> str:
    """The contract's one-line result: every declared metric of the pass.

    A layer this workload never enters reports 0 — no time spent there, no
    work done — so the line always carries every declared per-layer name.
    """
    out = {}
    if trace != "1":
        for name in declaration["end_to_end_by_name"]:
            m = record["end_to_end"][name]
            out[name] = {"value": m["value"], "unit": m["unit"]}
    if trace != "0":
        measured = record["per_layer"]
        for name, declared in declaration["per_layer_by_name"].items():
            out[name] = {"value": measured[name]["value"] if name in measured else 0.0, "unit": declared["unit"]}
    return json.dumps(
        {"correct": record["correct"], "attempted": record["attempted"], "failed": record["failed"], "metrics": out}
    )


def write_result(path: Path, run: dict, fresh: bool) -> None:
    document = {"schema": RESULT_SCHEMA, "runs": []}
    if not fresh and path.exists():
        document = json.loads(path.read_text())
        if document.get("schema") != RESULT_SCHEMA:
            raise SystemExit(f"{path}: not a result file of schema {RESULT_SCHEMA}")
    document["runs"].append(run)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(document, indent=1))


def parent_main(args) -> int:
    if not (SRC / "repro").is_dir():
        print(f"error: {SRC / 'repro'} not found: the benchmark measures this repository's src/", file=sys.stderr)
        return 2
    declaration = metrics.load_declaration()
    names = args.workload or list(metrics.ALL)
    unknown = sorted(set(names) - set(metrics.ALL))
    if unknown:
        print(f"error: unknown workload(s) {unknown}; known: {list(metrics.ALL)}", file=sys.stderr)
        return 2

    records = {}
    for name in names:
        records[name] = record = run_child(name, args)
        print_record(record)
    # every workload subprocess sees the same environment: keep one copy
    environments = [record.pop("env") for record in records.values() if "env" in record]
    run = {
        "seed": args.seed,
        "seconds": args.seconds,
        "smoke": args.smoke,
        "trace": args.trace,
        "env": environments[0] if environments else None,
        "workloads": records,
    }
    out = args.out or DEFAULT_OUT
    write_result(out, run, fresh=args.out is None)
    print(f"wrote {out}")

    all_correct = all(r["correct"] for r in records.values())
    if len(names) == 1 and "error" not in records[names[0]]:
        print(contract_line(records[names[0]], declaration, args.trace))
    return 0 if all_correct else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.compare:
        from e2ebench.compare import compare

        return compare(*args.compare)
    if args.child:
        return child_main(args)
    return parent_main(args)


if __name__ == "__main__":
    sys.exit(main())
