"""Golden event streams: the SHA-256 of every full ``tiny`` run journal.

Makespans cannot show a same-time reordering of spans, causal edges or
blame charges; the journal records every one of them in emission order,
so its bytes pin the whole event stream of a run. The hashes below were
computed with the journal header's ``commit`` fixed to ``"pinned"``
(``REPRO_GIT_COMMIT`` set and the runner's commit cache cleared), so they
do not depend on the checkout.

A change that moves any of these hashes changes the simulated behaviour.
Re-pin one only in a change that names the affected runs and argues why
the new event stream is the right one; a host-time optimisation never
moves them.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.evaluation import runner
from repro.evaluation.workloads import workload_by_name

GOLDEN = {
    "wordcount": (
        "907d6e4ad1b78fd24865c0f94b073d36337373dc24ccc4aaa702503502ff1165",
        "8ece700704a39b41501b843b61cb0ce72fd17eb8a4ca76efe0d7634972c8b2db",
    ),
    "histogram_ratings": (
        "2fc6467925f6606706e86d35aa78cd4a6a619ec7569286b0ec41ea1bbb06365b",
        "1a71cc97f4c188b4a26363620ef86e8790692d4ceb86da967803ffc2d64440b7",
    ),
    "naive_bayes": (
        "3e57208241ca3f687083ff54cbaaf8c90dd077e0f6ab7ae7932274f1477b1b22",
        "9e01716800ae0ed4b19ca7da05624d2af6197fa92c6ff199d22241251249fd39",
    ),
    "kmeans": (
        "3cab516d00380587133bb2e659ef4791c31b7cecf8f67dfa8fe0338ea7c4c074",
        "e3606ee0c50c266251012c4c9e78da21bed4adfdd07707c477a6055f5466bbcd",
    ),
    "classification": (
        "f20d211691bbe01a2b3e819e6d6f513c7f18d1be0d3a2c21584b1d826cee6f59",
        "75426e0f732fb00c96541694f681ba422c72988ab8f8ff5780acedce54c5e18f",
    ),
    "histogram_movies": (
        "30cfb01127e6b67630a75acfc9c32257fe69e3461f1b96e76e6b0539f5942a57",
        "278d49da2877c1fbfb6315bce180e3b958c93a8285c9bbd56cfb19e16684e427",
    ),
    "kcliques": (
        "1b8e8625c0227ae57d4aa13665f7cc0493f15c696982704898f93f69e491a0e7",
        "cc2d628c7b2a2bdb758ea890d8a529d35a01957a155fef197318fde2c6d98d7b",
    ),
}


def _sha256(writer) -> str:
    return hashlib.sha256(writer.getvalue().encode("utf-8")).hexdigest()


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_tiny_journal_bytes_are_pinned(name, monkeypatch):
    monkeypatch.setenv("REPRO_GIT_COMMIT", "pinned")
    monkeypatch.setattr(runner, "_COMMIT_CACHE", [])
    row = runner.run_workload(workload_by_name(name, "tiny"), engines="both", journal=True)
    hamr, hadoop = GOLDEN[name]
    assert _sha256(row.hamr_journal) == hamr, f"{name}/hamr event stream moved"
    assert _sha256(row.hadoop_journal) == hadoop, f"{name}/hadoop event stream moved"
