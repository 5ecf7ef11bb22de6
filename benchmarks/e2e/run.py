"""The repo's benchmark, one command.

Two ways in:

``python3 benchmarks/e2e/run.py [--seed S] [--workload W] [--smoke] [--aa]``
    The suite: every workload (or just ``W``) in a fresh child process,
    one after the other, untraced rounds first and the traced round
    after; prints every metric by name with its unit, checks outputs
    against the ``naive`` oracle, and (full scale only) records
    ``results/baseline.json`` and regenerates ``BENCHMARK.json``.
    ``--aa`` runs the untraced part twice on the same commit and stores
    the relative differences as the noise floor.

``… --workload W --seed N --seconds S --trace 0|1``
    One run, the form the pipeline's driver calls (and the suite's own
    children): the last line of stdout is one JSON object with
    ``correct``, ``attempted``, ``failed`` and ``metrics`` — the
    end-to-end metrics with ``--trace 0``, the per-layer metrics of the
    traced round with ``--trace 1``.

The system under test is imported from ``src/`` next to this checkout's
``benchmarks/``; no ``PYTHONPATH`` is needed.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
RESULTS = HERE / "results"

sys.path.insert(0, str(ROOT / "src"))

import spec  # noqa: E402  (sibling module; the script directory is on sys.path)


def environment(seed: str, smoke: bool) -> dict:
    """Where and how the numbers were taken."""
    try:
        commit = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = ""
    return {
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "commit": commit or "unknown",
        "seed": seed,
        "scale": "smoke" if smoke else "full",
        "system": 'PEMS(engine="shared", backend="row"), default observe mode, '
        "built by repro.city.build_city behind SubscriptionServer("
        f"queue_depth={spec.QUEUE_DEPTH})",
        "oracle": f'engine="naive", first {spec.ORACLE_INSTANTS} instants',
        "loop": "closed, 1 driver (1 process, 1 thread, 1 event loop), "
        "<=2 TCP connections",
        "rounds": 2 if smoke else spec.ROUNDS,
        "warmup_ticks": spec.WARMUP_TICKS,
        "settle_ticks": spec.SETTLE_TICKS,
        "assumptions": list(spec.ASSUMPTIONS),
    }


def _print_environment(env: dict) -> None:
    for key, value in env.items():
        if isinstance(value, list):
            print(f"# {key}:")
            for item in value:
                print(f"#   - {item}")
        else:
            print(f"# {key}: {value}")


# -- one run ---------------------------------------------------------------------


def single(args) -> int:
    """One workload, traced or not; the driver contract's output."""
    if not (ROOT / "src" / "repro").is_dir():  # nothing to measure
        print(f"no system under test at {ROOT / 'src'}", file=sys.stderr)
        return 2
    import harness
    import measure
    import trace as tracing

    workload = spec.WORKLOADS[args.workload].sized(args.seconds, args.smoke)
    rounds = 2 if args.smoke else spec.ROUNDS
    env = environment(args.seed, args.smoke)
    env["workload"] = {
        "name": workload.name,
        "devices": workload.devices,
        "ticks_per_round": workload.ticks,
        "traced_ticks": workload.traced_ticks,
        "config_digest": harness.city_config(workload, f"{args.seed}-r0").digest(),
    }
    _print_environment(env)
    tally = harness.Tally()
    detail: dict = {}

    async def run():
        nonlocal detail
        if args.trace:
            metrics, records, spans = await measure.trace_layers(
                workload, f"{args.seed}-r0", tally
            )
            RESULTS.mkdir(exist_ok=True)
            tracing.write_trace(
                RESULTS / f"trace-{workload.name}.jsonl", records, spans
            )
            units = spec.PER_LAYER
        else:
            metrics, detail = await measure.measure(workload, args.seed, tally, rounds)
            units = {m.name: m.unit for m in spec.END_TO_END}
        await measure.oracle(workload, f"{args.seed}-r0", tally)
        return {
            name: {"value": value, "unit": units[name]}
            for name, value in metrics.items()
        }

    metrics = asyncio.run(run())
    for name, entry in metrics.items():
        extra = ""
        if name in detail:
            d = detail[name]
            extra = f"  n={d['n']}  rounds {min(d['rounds']):.4g}..{max(d['rounds']):.4g}"
            if "pooled" in d:
                extra += f"  pooled {d['pooled']:.4g}"
        print(f"{workload.name}  {name:<40} {entry['value']:>14.4f} {entry['unit']}{extra}")
    share = tally.failed / tally.attempted
    print(
        f"{workload.name}  {'ops_failed_share':<40} {share:>14.6f} ratio"
        f"  ({tally.failed} of {tally.attempted} operations)"
    )
    for note in tally.notes:
        print(f"FAILED: {note}")
    print("DETAIL " + json.dumps({"environment": env, "detail": detail}))
    print(
        json.dumps(
            {
                "correct": tally.failed == 0,
                "attempted": tally.attempted,
                "failed": tally.failed,
                "metrics": metrics,
            }
        )
    )
    return 0 if tally.failed == 0 else 1


# -- the suite -------------------------------------------------------------------


def _child(workload: str, args, trace: int) -> dict:
    """Run one workload in a fresh process; returns its result object
    plus ``detail``/``environment`` (and echoes its report lines)."""
    command = [
        sys.executable, str(HERE / "run.py"), "--workload", workload,
        "--seed", args.seed, "--seconds", str(args.seconds), "--trace", str(trace),
    ] + (["--smoke"] if args.smoke else [])
    done = subprocess.run(command, capture_output=True, text=True, timeout=900)
    lines = done.stdout.splitlines()
    if not lines or not lines[-1].startswith("{"):
        sys.stdout.write(done.stdout)
        sys.stderr.write(done.stderr)
        raise SystemExit(f"{workload} --trace {trace}: no result (exit {done.returncode})")
    result = json.loads(lines[-1])
    for line in lines[:-1]:
        if line.startswith("DETAIL "):
            result.update(json.loads(line[len("DETAIL "):]))
        elif line.startswith(workload) or line.startswith("FAILED"):
            print(line)
    return result


def suite(args) -> int:
    names = [args.workload] if args.workload else list(spec.WORKLOADS)
    env = environment(args.seed, args.smoke)
    _print_environment(env)
    results: dict[str, dict] = {}
    ok = True
    for name in names:
        print(f"\n== {name}: {spec.WORKLOADS[name].why}")
        runs = [_child(name, args, 0)]
        if args.aa:
            runs.append(_child(name, args, 0))
        layers = _child(name, args, 1)
        ok = ok and all(r["correct"] for r in runs + [layers])
        results[name] = {
            "environment": runs[0]["environment"]["workload"],
            "end_to_end": runs[0]["metrics"],
            "detail": runs[0]["detail"],
            "per_layer": layers["metrics"],
            "attempted": runs[0]["attempted"] + layers["attempted"],
            "failed": sum(r["failed"] for r in runs + [layers]),
        }
        if args.aa:
            floor = results[name]["noise_floor"] = {}
            print(f"-- A/A on {name}: same commit, two sets")
            for metric in spec.END_TO_END:
                a, b = (r["metrics"][metric.name]["value"] for r in runs)
                diff = (b - a) / a
                floor[metric.name] = {"first": a, "second": b, "rel_diff": diff}
                verdict = "pass" if abs(diff) <= metric.bound else "FAIL"
                if args.smoke:  # too few samples for the bounds to mean anything
                    verdict = "(smoke)"
                print(
                    f"{name}  {metric.name:<20} {a:>12.4f} {b:>12.4f} {metric.unit:<4}"
                    f" diff {100 * diff:+6.2f}%  bound {100 * metric.bound:.0f}%"
                    f"  {verdict}"
                )
    if not args.smoke and not args.workload:
        RESULTS.mkdir(exist_ok=True)
        with open(RESULTS / "baseline.json", "w", encoding="utf-8") as out:
            json.dump({"environment": env, "workloads": results}, out, indent=1)
            out.write("\n")
        with open(ROOT / "BENCHMARK.json", "w", encoding="utf-8") as out:
            json.dump(spec.manifest(), out, indent=2)
            out.write("\n")
    print("\nall outputs correct" if ok else "\nFAILED: see the lines above")
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=list(spec.WORKLOADS))
    parser.add_argument("--seed", default="0")
    parser.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--aa", action="store_true")
    args = parser.parse_args(argv)
    if args.trace is None:
        return suite(args)
    if args.workload is None:
        parser.error("--trace needs --workload")
    return single(args)


if __name__ == "__main__":
    sys.exit(main())
