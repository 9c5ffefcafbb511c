"""Tests for BenchmarkData caching and helpers."""

import pytest

from repro.harness import BenchmarkData
from repro.machines import exemplar


@pytest.fixture(scope="module")
def data():
    return BenchmarkData(threat_scale=0.01, terrain_scale=0.025)


def test_scenarios_are_memoized(data):
    assert data.threat_scenarios is data.threat_scenarios
    assert data.terrain_scenarios is data.terrain_scenarios
    assert data.threat_sequential is data.threat_sequential


def test_jobs_are_memoized(data):
    assert data.threat_chunked_job(16) is data.threat_chunked_job(16)
    assert data.threat_chunked_job(16) is not data.threat_chunked_job(32)
    assert (data.threat_chunked_job(16, thread_kind="hw")
            is not data.threat_chunked_job(16, thread_kind="os"))
    job = data.threat_chunked_job(16).build()
    assert job is data.threat_chunked_job(16).build()
    assert job is not data.threat_chunked_job(32).build()
    assert (data.threat_chunked_job(16, thread_kind="hw").build()
            is not job)


def test_runs_are_memoized(data):
    job = data.threat_sequential_job()
    a = data.exemplar(1, job)
    b = data.exemplar(1, job)
    assert a == b
    assert data.run_conventional(exemplar(1), job) == a


def test_run_shorthands_agree(data):
    job = data.threat_sequential_job()
    assert data.exemplar(4, job) == data.run_conventional(exemplar(4),
                                                          job)


def test_mta_runs_distinct_by_processors(data):
    job = data.threat_chunked_job(64, thread_kind="hw")
    t1 = data.run_mta(1, job)
    t2 = data.run_mta(2, job)
    assert t1 != t2


def test_seed_offset_produces_different_data():
    a = BenchmarkData(threat_scale=0.01, seed_offset=0)
    b = BenchmarkData(threat_scale=0.01, seed_offset=1)
    assert a.threat_scenarios[0].threats != b.threat_scenarios[0].threats
