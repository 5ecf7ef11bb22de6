"""Differential test: observation never changes evaluation.

The acceptance criterion of the observability subsystem (DESIGN.md §9):
running the §5.2 temperature scenario for 55 ticks with full tracing and
metrics enabled produces results, emissions, actions and messages
byte-identical to the observe-off run — on all three engines.

The scenario's devices are pure functions of (seed, reference, instant),
so two identically-built scenarios see the same world; the only varying
input is the observability mode.
"""

import pytest

from repro.devices.scenario import build_temperature_surveillance

INSTANTS = 55


def build(engine: str, observe: str):
    scenario = build_temperature_surveillance(engine=engine, observe=observe)
    # Exercise alerts (heat), photos (cold) and dynamic discovery so the
    # instrumented paths — invocations, memo hits, scheduler skips,
    # discovery events — all actually run during the window.
    scenario.sensors["sensor06"].heat(3, 20, peak=15.0)
    scenario.sensors["sensor22"].heat(10, 30, peak=-25.0)
    return scenario


def run_fingerprint(scenario) -> str:
    """A byte-exact transcript of everything the run produced."""
    lines: list[str] = []
    for step in range(INSTANTS):
        if step == 20:
            scenario.add_sensor("sensor99", "office", base=21.0)
        if step == 35:
            scenario.remove_sensor("sensor99")
        instant = scenario.pems.tick()
        for name in sorted(scenario.queries):
            continuous = scenario.queries[name]
            result = continuous.last_result
            tuples = sorted(repr(t) for t in result.relation)
            lines.append(f"τ={instant} {name}: {tuples}")
    for name in sorted(scenario.queries):
        continuous = scenario.queries[name]
        lines.append(
            f"{name} actions: {[a.describe() for a in continuous.action_log]}"
        )
        lines.append(f"{name} emitted: {continuous.emitted!r}")
    lines.append(f"messages: {[repr(m) for m in scenario.outbox.messages]}")
    return "\n".join(lines)


@pytest.mark.parametrize("engine", ["naive", "shared"])
def test_full_observation_is_invisible_to_results(engine):
    baseline = build(engine, observe="off")
    observed = build(engine, observe="full")
    assert run_fingerprint(baseline) == run_fingerprint(observed)
    # ...and the observed run really did observe.
    obs = observed.pems.obs
    assert obs.tracer.recorded > 0
    assert obs.metrics.value("serena_ticks_total") == INSTANTS
    assert obs.metrics.family_total("serena_invocations_total") > 0
    # The baseline recorded no engine-level series.
    base_obs = baseline.pems.obs
    assert base_obs.metrics.value("serena_ticks_total") == 0
    assert len(base_obs.tracer) == 0


def test_metrics_mode_matches_off_mode_too():
    """The always-on default perturbs nothing either."""
    baseline = build("shared", observe="off")
    observed = build("shared", observe="metrics")
    assert run_fingerprint(baseline) == run_fingerprint(observed)
