"""Entry point: ``python3 -m perfbench`` from the repository root.

``--workload NAME --seed N --seconds S --trace 0|1`` is one run (what
``BENCHMARK.json`` names); with no ``--workload`` every workload runs
untraced and then traced, each in a child process of its own so that
peak memory is per workload.  ``--compare``, ``--repeat``, ``--quick``
and ``--selftest`` are described in ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")


def _load_engine() -> None:
    """Put this checkout's ``src`` first and refuse any other ``repro``."""
    if not os.path.isdir(os.path.join(SRC, "repro")):
        sys.exit(f"perfbench: no engine source at {SRC}")
    for path in (SRC, ROOT):
        if path not in sys.path:
            sys.path.insert(0, path)
    import repro

    if not os.path.abspath(repro.__file__).startswith(SRC + os.sep):
        sys.exit(f"perfbench: imported repro from {repro.__file__}, not {SRC}")


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="python3 -m perfbench")
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1, 2), default=0,
                        help="0 end-to-end, 1 per-layer, 2 both")
    parser.add_argument("--quick", action="store_true")
    parser.add_argument("--repeat", type=int, default=1)
    parser.add_argument("--out")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    parser.add_argument("--selftest", action="store_true")
    return parser


def _print_run(workload, trace, result) -> None:
    kind = ("end-to-end", "per-layer (traced)", "end-to-end, then traced")
    print(f"== {workload}: {kind[trace]}; attempted {result['attempted']}, "
          f"failed {result['failed']}")
    for name, entry in result["metrics"].items():
        print(f"  {name:36s} {entry['value']:14.4f} {entry['unit']}")
    if result.get("missing_targets"):
        print(f"  trace.missing_targets: {result['missing_targets']}")
    if "generator_lag_p99_ms" in result:
        print(f"  generator lag p99: {result['generator_lag_p99_ms']:.2f} ms")
    if not result.get("valid", True):
        print("  INVALID: the load generator ran late; rerun on a quiet box")
    if result.get("first_error"):
        print(f"  first error: {result['first_error']}")


def _one_run(args) -> int:
    from perfbench import runner

    spec = _spec()
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        sys.exit(f"perfbench: unknown workload {args.workload!r}")
    seconds = args.seconds if args.seconds is not None else (
        spec["run_seconds"]
    )
    result = runner.run(
        args.workload, args.seed, seconds, args.trace, quick=args.quick
    )
    _print_run(args.workload, args.trace, result)
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(result, fh)
    # Last line: exactly the keys the benchmark contract names.
    print(json.dumps({
        key: result[key]
        for key in ("correct", "attempted", "failed", "metrics")
    }))
    return 0


def _spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def _full_set(args, tag) -> tuple[dict, bool]:
    """Every workload, untraced window then traced, one child each."""
    spec = _spec()
    seconds = args.seconds or (0.5 if args.quick else spec["run_seconds"])
    out_dir = os.path.join(HERE, "out")
    os.makedirs(out_dir, exist_ok=True)
    runs, good = {}, True
    for workload in [w["name"] for w in spec["workloads"]]:
        path = os.path.join(out_dir, f"run-{tag}-{workload}.json")
        command = [
            sys.executable, "-m", "perfbench", "--workload", workload,
            "--seed", str(args.seed), "--seconds", str(seconds),
            "--trace", "2", "--out", path,
        ] + (["--quick"] if args.quick else [])
        done = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True)
        # All but the child's last line, which is the machine-read one.
        sys.stdout.write(done.stdout.rsplit("\n", 2)[0] + "\n")
        if done.returncode != 0:
            print(f"== {workload}: run failed ({done.returncode})")
            good = False
            continue
        with open(path) as fh:
            result = json.load(fh)
        os.remove(path)
        good = good and result["correct"] and result["valid"]
        runs[workload] = {
            name: entry["value"]
            for name, entry in result["metrics"].items()
        }
    return runs, good


def _main(argv=None) -> int:
    args = _parser().parse_args(argv)
    _load_engine()
    if args.selftest:
        from perfbench.selftest import selftest

        return selftest()
    if args.compare:
        from perfbench.compare import compare_files

        return compare_files(*args.compare, spec=_spec())
    if args.workload:
        return _one_run(args)

    from perfbench.compare import compare_sets

    sets, good = [], True
    for index in range(args.repeat):
        runs, ok = _full_set(args, f"{os.getpid()}-{index}")
        sets.append(runs)
        good = good and ok
    path = args.out or os.path.join(HERE, "out", "result.json")
    with open(path, "w") as fh:
        json.dump({"seed": args.seed, "runs": sets}, fh, indent=1)
    print(f"wrote {path}")
    if args.repeat >= 2 and not args.quick:
        disagree = compare_sets(sets[:1], sets[1:], _spec())
        good = good and not disagree
    return 0 if good else 1


if __name__ == "__main__":
    sys.exit(_main())
