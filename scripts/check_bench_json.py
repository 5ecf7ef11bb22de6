#!/usr/bin/env python
"""CI guard: every committed ``BENCH_*.json`` artifact is well-formed.

The benchmark suite writes machine-readable result artifacts to the
repository root (one JSON object per experiment).  This script validates
each one: it must parse as a single JSON object and carry the required
metadata keys — ``mode`` ("smoke" or "full") and an integer ``ticks`` —
so a bench refactor cannot silently commit an artifact downstream
tooling can no longer read.  Exits non-zero listing every violation.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

#: Keys every benchmark artifact must record.
REQUIRED_KEYS = ("mode", "ticks")
MODES = ("smoke", "full")

#: Per-client latency aggregates every server speed class must carry.
SERVER_CLASS_KEYS = (
    "clients",
    "cadence",
    "delivered",
    "coalesced",
    "dropped",
    "p50_ms_median",
    "p99_ms_median",
)


def check_server(payload: dict, name: str) -> list[str]:
    """``BENCH_server.json`` additionally pins the acceptance shape: a
    ≥1000-subscriber full run with per-class delivery p50/p99 and
    coalesce counts (and a slow class that actually coalesced)."""
    problems: list[str] = []
    subscribers = payload.get("subscribers")
    if not isinstance(subscribers, int):
        problems.append(f"{name}: subscribers is not an integer")
    elif payload.get("mode") == "full" and subscribers < 1000:
        problems.append(
            f"{name}: full-mode run has only {subscribers} subscribers "
            "(the committed artifact must record >= 1000)"
        )
    for key in ("delivery_p50_ms", "delivery_p99_ms"):
        if not isinstance(payload.get(key), (int, float)):
            problems.append(f"{name}: missing numeric {key!r}")
    classes = payload.get("speed_classes")
    if not isinstance(classes, dict) or not classes:
        return problems + [f"{name}: missing 'speed_classes' object"]
    for cls_name, cls in classes.items():
        if not isinstance(cls, dict):
            problems.append(f"{name}: speed class {cls_name!r} is not an object")
            continue
        for key in SERVER_CLASS_KEYS:
            if not isinstance(cls.get(key), (int, float)):
                problems.append(
                    f"{name}: speed class {cls_name!r} missing numeric {key!r}"
                )
    slow = classes.get("slow")
    if isinstance(slow, dict) and not slow.get("coalesced"):
        problems.append(
            f"{name}: slow class never coalesced — the overflow path "
            "was not exercised"
        )
    return problems


#: Per-rebind fields the substitution artifact must carry.
SUBSTITUTION_REBIND_KEYS = (
    "crash_at",
    "rebound_at",
    "rebind_latency_ticks",
    "quarantine_backoff",
    "missed_ticks",
)


def check_substitution(payload: dict, name: str) -> list[str]:
    """``BENCH_substitution.json`` pins the ISSUE 9 acceptance numbers:
    the fault-free overhead of carrying the machinery stays within 5%
    and the rebind happened within the policy backoff + 1 tick with no
    missed readings."""
    problems: list[str] = []
    overhead = payload.get("fault_free_overhead")
    if not isinstance(overhead, (int, float)):
        problems.append(f"{name}: missing numeric 'fault_free_overhead'")
    elif payload.get("mode") == "full" and overhead > 0.05:
        problems.append(
            f"{name}: full-mode fault-free overhead {overhead:.1%} exceeds "
            "the 5% acceptance bound"
        )
    rebind = payload.get("rebind")
    if not isinstance(rebind, dict):
        return problems + [f"{name}: missing 'rebind' object"]
    for key in SUBSTITUTION_REBIND_KEYS:
        if not isinstance(rebind.get(key), (int, float)):
            problems.append(f"{name}: rebind missing numeric {key!r}")
            return problems
    if rebind["rebind_latency_ticks"] > rebind["quarantine_backoff"] + 1:
        problems.append(
            f"{name}: rebind latency {rebind['rebind_latency_ticks']} ticks "
            f"exceeds quarantine_backoff + 1 ({rebind['quarantine_backoff']} + 1)"
        )
    if rebind["missed_ticks"]:
        problems.append(
            f"{name}: {rebind['missed_ticks']} missed readings — the "
            "failover/rebind path did not keep the query reporting"
        )
    return problems


#: Per-scale fields of the city sweep.
CITY_SCALE_KEYS = ("devices", "zones", "queries", "seconds_per_tick")


def check_city(payload: dict, name: str) -> list[str]:
    """``BENCH_city.json`` pins the ISSUE 10 sweep shape: a device-scale
    axis topping out above 2000 devices in full mode, the ± cascade
    axis with zero missed station readings, and a churn sweep."""
    problems: list[str] = []
    scales = payload.get("scales")
    if not isinstance(scales, list) or not scales:
        problems.append(f"{name}: missing non-empty 'scales' list")
    else:
        for index, scale in enumerate(scales):
            if not isinstance(scale, dict):
                problems.append(f"{name}: scales[{index}] is not an object")
                continue
            for key in CITY_SCALE_KEYS:
                if not isinstance(scale.get(key), (int, float)):
                    problems.append(
                        f"{name}: scales[{index}] missing numeric {key!r}"
                    )
        top = scales[-1]
        if (
            payload.get("mode") == "full"
            and isinstance(top, dict)
            and isinstance(top.get("devices"), int)
            and top["devices"] < 2000
        ):
            problems.append(
                f"{name}: full-mode top scale has only {top['devices']} "
                "devices (the committed artifact must record >= 2000)"
            )
    cascade = payload.get("cascade")
    if not isinstance(cascade, dict):
        problems.append(f"{name}: missing 'cascade' object")
    else:
        for key in ("quiet_seconds_per_tick", "cascade_seconds_per_tick", "rebinds"):
            if not isinstance(cascade.get(key), (int, float)):
                problems.append(f"{name}: cascade missing numeric {key!r}")
        if cascade.get("missed_station_readings") != 0:
            problems.append(
                f"{name}: cascade recorded "
                f"{cascade.get('missed_station_readings')!r} missed station "
                "readings — the substitution failover did not keep the "
                "telemetry flowing"
            )
    churn = payload.get("churn")
    if not isinstance(churn, list) or not churn:
        problems.append(f"{name}: missing non-empty 'churn' list")
    else:
        for index, point in enumerate(churn):
            if not isinstance(point, dict) or not isinstance(
                point.get("seconds_per_tick"), (int, float)
            ):
                problems.append(
                    f"{name}: churn[{index}] missing numeric 'seconds_per_tick'"
                )
    return problems


#: Artifact-specific validators beyond the common metadata keys.
EXTRA_CHECKS = {
    "BENCH_server.json": check_server,
    "BENCH_substitution.json": check_substitution,
    "BENCH_city.json": check_city,
}


def check_file(path: Path) -> list[str]:
    problems: list[str] = []
    try:
        payload = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as error:
        return [f"{path.name}: does not parse — {error}"]
    if not isinstance(payload, dict):
        return [f"{path.name}: top level is {type(payload).__name__}, not an object"]
    for key in REQUIRED_KEYS:
        if key not in payload:
            problems.append(f"{path.name}: missing required key {key!r}")
    mode = payload.get("mode")
    if "mode" in payload and mode not in MODES:
        problems.append(f"{path.name}: mode {mode!r} not in {MODES}")
    if "ticks" in payload and not isinstance(payload["ticks"], int):
        problems.append(f"{path.name}: ticks is not an integer")
    extra = EXTRA_CHECKS.get(path.name)
    if extra is not None and not problems:
        problems.extend(extra(payload, path.name))
    return problems


def main() -> int:
    root = Path(__file__).resolve().parent.parent
    artifacts = sorted(root.glob("BENCH_*.json"))
    if not artifacts:
        print("no BENCH_*.json artifacts found at the repository root")
        return 1
    problems: list[str] = []
    for path in artifacts:
        problems.extend(check_file(path))
    for problem in problems:
        print(problem)
    if not problems:
        names = ", ".join(p.name for p in artifacts)
        print(f"ok: {len(artifacts)} artifacts valid ({names})")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
