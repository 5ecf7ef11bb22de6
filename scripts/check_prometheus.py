#!/usr/bin/env python
"""CI guard: the Prometheus text exposition PEMS produces actually parses.

Runs the §5.2 temperature scenario for a few instants with full
observability, renders ``PEMS.obs.to_prometheus()`` and re-parses it with
a strict line grammar (the relevant subset of the Prometheus exposition
format spec): HELP/TYPE comments, sample lines with escaped label values,
histogram ``_bucket``/``_sum``/``_count`` consistency and cumulative
bucket monotonicity.  Exits non-zero on the first violation.
"""

from __future__ import annotations

import re
import sys

SAMPLE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>[^{}]*)\})?"
    r" (?P<value>[0-9.eE+-]+|\+Inf|-Inf|NaN)$"
)
LABEL = re.compile(r'^([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\.)*)"$')


def split_labels(body: str) -> dict[str, str]:
    """Split a label body on commas outside quoted values."""
    labels: dict[str, str] = {}
    if not body:
        return labels
    parts: list[str] = []
    current: list[str] = []
    in_quotes = False
    escaped = False
    for char in body:
        if escaped:
            current.append(char)
            escaped = False
            continue
        if char == "\\":
            current.append(char)
            escaped = True
            continue
        if char == '"':
            in_quotes = not in_quotes
        if char == "," and not in_quotes:
            parts.append("".join(current))
            current = []
        else:
            current.append(char)
    parts.append("".join(current))
    for part in parts:
        match = LABEL.match(part)
        if match is None:
            raise ValueError(f"malformed label pair {part!r}")
        labels[match.group(1)] = match.group(2)
    return labels


def check(text: str) -> list[str]:
    """All format violations found in ``text`` (empty = clean)."""
    errors: list[str] = []
    types: dict[str, str] = {}
    buckets: dict[str, list[tuple[float, float]]] = {}
    sums: dict[str, bool] = {}
    counts: dict[str, bool] = {}
    samples = 0
    for number, line in enumerate(text.splitlines(), start=1):
        if not line:
            errors.append(f"line {number}: blank line")
            continue
        if line.startswith("# HELP "):
            continue
        if line.startswith("# TYPE "):
            fields = line.split(" ", 3)
            if len(fields) != 4 or fields[3] not in (
                "counter", "gauge", "histogram"
            ):
                errors.append(f"line {number}: malformed TYPE: {line!r}")
            else:
                types[fields[2]] = fields[3]
            continue
        if line.startswith("#"):
            errors.append(f"line {number}: unknown comment: {line!r}")
            continue
        match = SAMPLE.match(line)
        if match is None:
            errors.append(f"line {number}: malformed sample: {line!r}")
            continue
        samples += 1
        name = match.group("name")
        try:
            labels = split_labels(match.group("labels") or "")
        except ValueError as exc:
            errors.append(f"line {number}: {exc}")
            continue
        value = float(match.group("value").replace("Inf", "inf"))
        base = re.sub(r"_(bucket|sum|count)$", "", name)
        if types.get(base) == "histogram":
            series = base + "{" + ",".join(
                f"{k}={v}" for k, v in sorted(labels.items()) if k != "le"
            ) + "}"
            if name.endswith("_bucket"):
                if "le" not in labels:
                    errors.append(f"line {number}: bucket without le label")
                    continue
                bound = float(labels["le"].replace("+Inf", "inf"))
                buckets.setdefault(series, []).append((bound, value))
            elif name.endswith("_sum"):
                sums[series] = True
            elif name.endswith("_count"):
                counts[series] = True
            continue
        if name not in types:
            errors.append(f"line {number}: sample {name!r} has no TYPE")
    for series, pairs in buckets.items():
        if pairs != sorted(pairs):
            errors.append(f"{series}: buckets out of bound order")
        values = [count for _, count in pairs]
        if values != sorted(values):
            errors.append(f"{series}: bucket counts not cumulative")
        if not pairs or pairs[-1][0] != float("inf"):
            errors.append(f"{series}: missing +Inf bucket")
        if not sums.get(series):
            errors.append(f"{series}: missing _sum")
        if not counts.get(series):
            errors.append(f"{series}: missing _count")
    if samples == 0:
        errors.append("no samples rendered at all")
    return errors


def main() -> int:
    from repro.devices.scenario import build_temperature_surveillance

    scenario = build_temperature_surveillance(engine="shared")
    scenario.sensors["sensor06"].heat(2, 6, peak=15.0)
    scenario.run(8)
    text = scenario.pems.obs.to_prometheus()
    errors = check(text)
    if errors:
        for error in errors:
            print(f"FAIL: {error}", file=sys.stderr)
        return 1
    families = len({
        line.split(" ")[2] for line in text.splitlines()
        if line.startswith("# TYPE ")
    })
    print(
        f"ok: {families} metric families, "
        f"{sum(1 for l in text.splitlines() if not l.startswith('#'))} samples "
        "— exposition format clean"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
