"""Dry-parse validation of the CI pipeline definition.

actionlint is not part of the toolchain here, so these tests do the next
best thing: parse ``.github/workflows/ci.yml`` with PyYAML and assert the
structural contract the repo relies on — the three gating jobs exist, run
the documented commands, and the nightly full-suite job stays off the
push/PR critical path.  The commands themselves are exercised for real by
the suite (everything ``tests`` runs is this suite; ``bench-smoke`` is
covered by ``benchmarks/smoke.py``'s own gates).
"""

from __future__ import annotations

import pathlib

import pytest

yaml = pytest.importorskip("yaml")

WORKFLOW = pathlib.Path(__file__).resolve().parent.parent / ".github/workflows/ci.yml"


@pytest.fixture(scope="module")
def workflow():
    return yaml.safe_load(WORKFLOW.read_text())


def job_commands(job) -> list[str]:
    return [step["run"] for step in job["steps"] if "run" in step]


class TestWorkflowStructure:
    def test_parses_and_names(self, workflow):
        assert workflow["name"] == "ci"
        # PyYAML parses the bare `on:` key as boolean True (YAML 1.1)
        triggers = workflow.get("on", workflow.get(True))
        assert "push" in triggers and "pull_request" in triggers
        assert "schedule" in triggers and "workflow_dispatch" in triggers

    def test_the_three_gating_jobs_exist(self, workflow):
        assert {"lint", "tests", "bench-smoke"} <= set(workflow["jobs"])

    def test_pythonpath_matches_local_invocation(self, workflow):
        assert workflow["env"]["PYTHONPATH"] == "src"

    def test_lint_job_commands(self, workflow):
        commands = job_commands(workflow["jobs"]["lint"])
        assert any(cmd.startswith("ruff check") for cmd in commands)
        assert "python -m compileall src" in commands

    def test_tests_job_excludes_slow(self, workflow):
        commands = job_commands(workflow["jobs"]["tests"])
        suite = [cmd for cmd in commands if "python -m pytest" in cmd]
        assert suite and 'not slow' in suite[0]

    def test_pipeline_quick_gates_every_push(self, workflow):
        """The canonical pipeline benchmark runs on every push/PR at its
        quick sizes: its output checks gate, its numbers do not (so no
        artifact is uploaded)."""
        job = workflow["jobs"]["pipeline-quick"]
        assert "if" not in job, "the quick pipeline run must gate PRs"
        assert "python -m benchmarks.pipeline --quick" in job_commands(job)
        assert not any("upload-artifact" in s.get("uses", "") for s in job["steps"])

    def test_bench_smoke_uploads_reports(self, workflow):
        job = workflow["jobs"]["bench-smoke"]
        assert "python -m benchmarks.smoke" in job_commands(job)
        uploads = [
            step for step in job["steps"]
            if "upload-artifact" in step.get("uses", "")
        ]
        assert uploads and uploads[0]["with"]["path"] == "BENCH_pr*.json"

    def test_bench_scale_leg_uploads_pr7_report(self, workflow):
        """The PR 7 leg: the scale-out gate runs in isolation via
        ``--scale-only`` and always uploads BENCH_pr7.json."""
        job = workflow["jobs"]["bench-scale"]
        assert "python -m benchmarks.smoke --scale-only" in job_commands(job)
        uploads = [
            step for step in job["steps"]
            if "upload-artifact" in step.get("uses", "")
        ]
        assert uploads and uploads[0]["with"]["path"] == "BENCH_pr7.json"
        assert uploads[0]["if"] == "always()"
        assert uploads[0]["with"]["if-no-files-found"] == "error"

    def test_bench_durability_leg_uploads_pr8_report(self, workflow):
        """The PR 8 leg: the storage-engine gate runs in isolation via
        ``--durability-only`` and always uploads BENCH_pr8.json."""
        job = workflow["jobs"]["bench-durability"]
        assert "python -m benchmarks.smoke --durability-only" in job_commands(job)
        uploads = [
            step for step in job["steps"]
            if "upload-artifact" in step.get("uses", "")
        ]
        assert uploads and uploads[0]["with"]["path"] == "BENCH_pr8.json"
        assert uploads[0]["if"] == "always()"
        assert uploads[0]["with"]["if-no-files-found"] == "error"

    def test_bench_soak_leg_uploads_pr9_report(self, workflow):
        """The PR 9 leg: the paged-MST soak is nightly/dispatch-only (it
        builds a million-UTXO tree twice), runs via ``--soak-only`` and
        always uploads BENCH_pr9.json."""
        job = workflow["jobs"]["bench-soak"]
        assert "schedule" in job["if"] and "workflow_dispatch" in job["if"]
        assert "python -m benchmarks.smoke --soak-only" in job_commands(job)
        uploads = [
            step for step in job["steps"]
            if "upload-artifact" in step.get("uses", "")
        ]
        assert uploads and uploads[0]["with"]["path"] == "BENCH_pr9.json"
        assert uploads[0]["if"] == "always()"
        assert uploads[0]["with"]["if-no-files-found"] == "error"

    def test_no_job_selects_a_field_backend(self, workflow):
        """The field has one implementation: no job picks another one or
        installs the accelerator wheels the deleted backends used."""
        for name, job in workflow["jobs"].items():
            assert not [key for key in job.get("env", {}) if "FIELD" in key], name
            for command in job_commands(job):
                assert "gmpy2" not in command and "numpy" not in command, name
        assert "backend-parity" not in workflow["jobs"]

    def test_full_suite_gated_to_schedule_and_dispatch(self, workflow):
        job = workflow["jobs"]["full-suite"]
        assert "schedule" in job["if"] and "workflow_dispatch" in job["if"]
        suite = [cmd for cmd in job_commands(job) if "python -m pytest" in cmd]
        assert suite and "not slow" not in suite[0]

    def test_scenario_adversarial_leg_uploads_pr10_report(self, workflow):
        """The PR 10 leg: the proof-market red-team suite runs on every
        push/PR via ``--adversarial-only`` and always uploads
        BENCH_pr10.json."""
        job = workflow["jobs"]["scenario-adversarial"]
        assert "if" not in job, "the quick attack suite must gate PRs"
        assert "python -m benchmarks.smoke --adversarial-only" in job_commands(job)
        uploads = [
            step for step in job["steps"]
            if "upload-artifact" in step.get("uses", "")
        ]
        assert uploads and uploads[0]["with"]["path"] == "BENCH_pr10.json"
        assert uploads[0]["if"] == "always()"
        assert uploads[0]["with"]["if-no-files-found"] == "error"

    def test_scenario_adversarial_full_sweep_is_nightly_gated(self, workflow):
        """REPRO_ADVERSARIAL_FULL flips to 1 only for schedule/dispatch
        events — PRs run the quick shape, the nightly the full red-team."""
        env = workflow["jobs"]["scenario-adversarial"]["env"]
        gate = env["REPRO_ADVERSARIAL_FULL"]
        assert "schedule" in gate and "workflow_dispatch" in gate
        assert "'1'" in gate and "'0'" in gate

    def test_concurrency_cancels_superseded_runs(self, workflow):
        """A new push cancels the superseded run of the same ref; nightly
        runs are keyed by run_id so they can never cancel each other."""
        concurrency = workflow["concurrency"]
        assert "github.ref" in concurrency["group"]
        assert "github.run_id" in concurrency["group"]
        assert "schedule" in str(concurrency["cancel-in-progress"])

    def test_every_job_has_a_timeout(self, workflow):
        for name, job in workflow["jobs"].items():
            assert isinstance(job.get("timeout-minutes"), int), (
                f"job {name!r} has no timeout-minutes"
            )

    def test_every_upload_errors_on_missing_files(self, workflow):
        """Every artifact upload in every job must fail loudly when the
        bench produced nothing (a silent empty artifact hides a broken
        gate)."""
        for name, job in workflow["jobs"].items():
            for step in job["steps"]:
                if "upload-artifact" not in step.get("uses", ""):
                    continue
                assert step["with"]["if-no-files-found"] == "error", (
                    f"upload in job {name!r} tolerates missing files"
                )
                assert step["if"] == "always()", (
                    f"upload in job {name!r} is skipped on failure"
                )

    def test_every_job_checks_out_and_sets_up_python(self, workflow):
        for name, job in workflow["jobs"].items():
            uses = [step.get("uses", "") for step in job["steps"]]
            assert any(u.startswith("actions/checkout@") for u in uses), name
            assert any(u.startswith("actions/setup-python@") for u in uses), name

    def test_slow_marker_is_registered(self):
        # the tests job's `-m "not slow"` selection silently matches nothing
        # if the marker ever drops out of pyproject
        pyproject = (WORKFLOW.parent.parent.parent / "pyproject.toml").read_text()
        assert 'slow:' in pyproject
