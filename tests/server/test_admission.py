"""Admission-control caps and their rejection metrics."""

import pytest

from repro.server.admission import AdmissionControl, AdmissionError


def control(**kwargs):
    return AdmissionControl(**kwargs)


class TestClients:
    def test_admits_below_cap(self):
        admission = control(max_clients=2)
        admission.admit_client(0)
        admission.admit_client(1)

    def test_rejects_at_cap(self):
        admission = control(max_clients=2)
        with pytest.raises(AdmissionError) as info:
            admission.admit_client(2)
        assert info.value.reason == "clients"
        assert admission.rejected("clients") == 1


class TestSubscriptions:
    def test_per_client_cap(self):
        admission = control(max_queries_per_client=3)
        admission.admit_subscription(2, 0, shared=False)
        with pytest.raises(AdmissionError) as info:
            admission.admit_subscription(3, 0, shared=False)
        assert info.value.reason == "client_queries"
        assert admission.rejected("client_queries") == 1

    def test_total_queries_cap(self):
        admission = control(max_total_queries=5)
        admission.admit_subscription(0, 4, shared=False)
        with pytest.raises(AdmissionError) as info:
            admission.admit_subscription(0, 5, shared=False)
        assert info.value.reason == "total_queries"

    def test_shared_subscription_bypasses_total_cap(self):
        """Joining an already-registered query adds no tick-loop load, so
        only the per-client cap applies."""
        admission = control(max_total_queries=1)
        admission.admit_subscription(0, 1, shared=True)
        with pytest.raises(AdmissionError):
            admission.admit_subscription(0, 1, shared=False)

    def test_rejections_accumulate_per_reason(self):
        admission = control(max_clients=0, max_total_queries=0)
        for _ in range(3):
            with pytest.raises(AdmissionError):
                admission.admit_client(0)
        with pytest.raises(AdmissionError):
            admission.admit_subscription(0, 0, shared=False)
        assert admission.rejected("clients") == 3
        assert admission.rejected("total_queries") == 1
        assert admission.rejected("client_queries") == 0
