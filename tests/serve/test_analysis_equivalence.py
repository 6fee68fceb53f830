"""Served /analysis/* responses are bit-identical to in-process analysis.

The service must be a transparent window onto the analysis layer: the
JSON a client decodes equals what calling the analysis functions
directly returns — float-for-float (JSON shortest-repr round-trips
doubles exactly).  This holds for a collected dataset (``columnar``)
and for the same dataset rebuilt from its ``BlockObservation`` objects
(``object``), and the two serve byte-identical bodies.
"""

from __future__ import annotations

import dataclasses
import json

import pytest

from repro.analysis.builders import daily_builder_shares
from repro.analysis.censorship import (
    daily_compliant_relay_share,
    daily_sanctioned_share,
    overall_sanctioned_shares,
)
from repro.analysis.concentration import daily_hhi_series
from repro.analysis.relays import daily_relay_shares
from repro.analysis.rewards import daily_user_payment_shares
from repro.datasets.collector import collect_study_dataset
from repro.datasets.columnar import BlockTable
from repro.serve.schema import encode_series
from repro.serve.service import QueryService
from repro.simulation.config import small_test_config
from repro.simulation.world import build_world

ANALYSIS_PATHS = ["/analysis/hhi", "/analysis/value_split", "/analysis/censorship"]


@pytest.fixture(scope="module")
def services():
    config = small_test_config(num_days=5, blocks_per_day=8)
    columnar = collect_study_dataset(build_world(config).run())
    assert len(columnar.table) > 0
    assert columnar.inventory.relay_data_entries > 0
    object_backed = dataclasses.replace(
        columnar,
        table=BlockTable.from_observations(columnar.table.to_observations()),
    )
    return {
        "columnar": (columnar, QueryService(columnar)),
        "object": (object_backed, QueryService(object_backed)),
    }


@pytest.mark.parametrize("variant", ["columnar", "object"])
def test_hhi_matches_in_process(services, variant):
    dataset, service = services[variant]
    served = json.loads(service.handle("/analysis/hhi", {}).body)
    assert served == {
        "relay": encode_series(
            daily_hhi_series("relay HHI", daily_relay_shares(dataset))
        ),
        "builder": encode_series(
            daily_hhi_series("builder HHI", daily_builder_shares(dataset))
        ),
    }


@pytest.mark.parametrize("variant", ["columnar", "object"])
def test_value_split_matches_in_process(services, variant):
    dataset, service = services[variant]
    served = json.loads(service.handle("/analysis/value_split", {}).body)
    base, priority, direct = daily_user_payment_shares(dataset)
    assert served == {
        "base_fee": encode_series(base),
        "priority_fee": encode_series(priority),
        "direct_transfer": encode_series(direct),
    }


@pytest.mark.parametrize("variant", ["columnar", "object"])
def test_censorship_matches_in_process(services, variant):
    dataset, service = services[variant]
    served = json.loads(service.handle("/analysis/censorship", {}).body)
    pbs, non_pbs = daily_sanctioned_share(dataset)
    assert served == {
        "compliant_relay_share": encode_series(
            daily_compliant_relay_share(dataset)
        ),
        "sanctioned_share": {
            "pbs": encode_series(pbs),
            "non_pbs": encode_series(non_pbs),
        },
        "overall": overall_sanctioned_shares(dataset),
    }


@pytest.mark.parametrize("path", ANALYSIS_PATHS)
def test_backends_serve_identical_bytes(services, path):
    _, columnar_service = services["columnar"]
    _, object_service = services["object"]
    columnar = columnar_service.handle(path, {})
    object_backed = object_service.handle(path, {})
    assert columnar.status == object_backed.status == 200
    assert columnar.body == object_backed.body


@pytest.mark.parametrize("path", ANALYSIS_PATHS)
def test_repeated_requests_are_stable(services, path):
    _, service = services["columnar"]
    assert service.handle(path, {}).body == service.handle(path, {}).body

