"""The ensemble manifest pins the submitting JobSpec by digest.

``repro ensemble run`` records ``JobSpec.digest()`` of the campaign it
was asked to run; ``status`` surfaces it, and a rerun recomputes the
digest from the manifest parameters against the campaign as *currently
defined* and refuses on a mismatch — a directory produced by a
different spec (edited catalog, changed scale semantics) cannot be
silently extended.
"""

import json
import os

import pytest

from repro.ensemble import ensemble_status, run_ensemble
from repro.ensemble.manifest import load_manifest, save_manifest
from repro.exceptions import ExperimentError
from repro.jobspec import JobSpec

CAMPAIGN = "ag_corrupt_recover"


def run_small(out_dir, **overrides):
    kwargs = dict(
        campaign_id=CAMPAIGN,
        scale="smoke",
        total_runs=4,
        shard_size=2,
        seed=17,
        workers=None,
    )
    kwargs.update(overrides)
    return run_ensemble(str(out_dir), **kwargs)


def expected_digest(total_runs=4, seed=17):
    return JobSpec.from_campaign(
        CAMPAIGN, scale="smoke", seed=seed, repetitions=total_runs
    ).digest()


class TestManifestDigest:
    def test_fresh_run_records_the_submitting_digest(self, tmp_path):
        run_small(tmp_path / "a")
        manifest = load_manifest(str(tmp_path / "a"))
        assert manifest["jobspec_digest"] == expected_digest()

    def test_status_surfaces_the_digest(self, tmp_path):
        run_small(tmp_path / "a")
        status = ensemble_status(str(tmp_path / "a"))
        assert status["jobspec_digest"] == expected_digest()

    def test_rerun_refuses_a_drifted_spec(self, tmp_path):
        out = tmp_path / "a"
        run_small(out)
        manifest = load_manifest(str(out))
        manifest["jobspec_digest"] = "0" * 64
        save_manifest(str(out), manifest)
        os.remove(os.path.join(str(out), "aggregates.json"))
        with pytest.raises(ExperimentError, match="spec changed"):
            run_small(out)

    def test_rerun_accepts_a_matching_digest(self, tmp_path):
        out = tmp_path / "a"
        run_small(out)
        os.remove(os.path.join(str(out), "aggregates.json"))
        resumed = run_small(out)
        assert resumed["aggregates"]["runs"] == 4

    def test_predigest_manifests_still_rerun(self, tmp_path):
        """Directories from before the digest existed keep working."""
        out = tmp_path / "a"
        run_small(out)
        path = os.path.join(str(out), "manifest.json")
        manifest = json.load(open(path))
        del manifest["jobspec_digest"]
        save_manifest(str(out), manifest)
        os.remove(os.path.join(str(out), "aggregates.json"))
        resumed = run_small(out)
        assert resumed["aggregates"]["runs"] == 4
