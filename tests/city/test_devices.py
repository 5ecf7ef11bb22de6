"""City device simulators: one draw per reading."""

import repro.city.devices as city_devices
from repro.city.devices import CHECK_RELAY, GridRelay


def test_check_relay_draws_once_and_its_status_matches_its_throughput(
    monkeypatch,
):
    calls = []
    draw = city_devices.stable_unit

    def counting_unit(*parts, prefix=b""):
        calls.append(parts)
        return draw(*parts, prefix=prefix)

    monkeypatch.setattr(city_devices, "stable_unit", counting_unit)
    relay = GridRelay("relay-z00-00", "z00", rating=150.0)
    check_relay = relay.as_service().handler(CHECK_RELAY)
    for instant in range(1, 41):
        calls.clear()
        [(status, throughput)] = check_relay((), instant)
        assert len(calls) == 1
        assert throughput == relay.throughput(instant)
        assert status == ("closed" if throughput < relay.rating else "open")
