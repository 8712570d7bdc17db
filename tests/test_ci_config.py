"""Dry-parse validation of the CI pipeline definition.

actionlint is not part of the toolchain here, so these tests do the next
best thing: parse ``.github/workflows/ci.yml`` with PyYAML and assert the
structural contract the repo relies on — the three gating jobs exist, run
the documented commands, and the nightly jobs stay off the push/PR critical
path.  The commands themselves are exercised for real elsewhere (everything
``tests`` runs is this suite; ``pipeline-quick`` and the soak fail on their
own output checks).  There is one benchmark generation: the pipeline, whose
record is the only artifact a job uploads.
"""

from __future__ import annotations

import ast
import pathlib

import pytest

yaml = pytest.importorskip("yaml")

ROOT = pathlib.Path(__file__).resolve().parent.parent
WORKFLOW = ROOT / ".github/workflows/ci.yml"


@pytest.fixture(scope="module")
def workflow():
    return yaml.safe_load(WORKFLOW.read_text())


def job_commands(job) -> list[str]:
    return [step["run"] for step in job["steps"] if "run" in step]


def uploads(job) -> list[dict]:
    return [step for step in job["steps"] if "upload-artifact" in step.get("uses", "")]


def nightly(job) -> bool:
    return "schedule" in job["if"] and "workflow_dispatch" in job["if"]


class TestWorkflowStructure:
    def test_parses_and_names(self, workflow):
        assert workflow["name"] == "ci"
        # PyYAML parses the bare `on:` key as boolean True (YAML 1.1)
        triggers = workflow.get("on", workflow.get(True))
        assert "push" in triggers and "pull_request" in triggers
        assert "schedule" in triggers and "workflow_dispatch" in triggers

    def test_the_three_gating_jobs_exist(self, workflow):
        gating = ("lint", "tests", "pipeline-quick")
        assert set(gating) <= set(workflow["jobs"])
        assert not [name for name in gating if "if" in workflow["jobs"][name]]

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
        assert not uploads(job)

    def test_pipeline_nightly_uploads_the_record(self, workflow):
        """The full-size traced pipeline runs nightly and keeps its record."""
        job = workflow["jobs"]["pipeline-nightly"]
        assert nightly(job)
        assert "python -m benchmarks.pipeline --traced" in job_commands(job)
        (upload,) = uploads(job)
        assert upload["with"]["path"] == "benchmarks/pipeline/out/pipeline-*.json"

    def test_bench_soak_leg_asserts_its_gates_nightly(self, workflow):
        """The paged-MST soak is nightly/dispatch-only (it builds a
        million-UTXO tree twice); ``benchmarks.soak_mst`` asserts its gates
        and exits non-zero, so there is no report to upload."""
        job = workflow["jobs"]["bench-soak"]
        assert nightly(job)
        assert "python -m benchmarks.soak_mst" in job_commands(job)
        assert not uploads(job)

    def test_one_benchmark_generation(self, workflow):
        """No job runs the deleted smoke harness or uploads a per-PR report,
        and no such report is committed."""
        for name, job in workflow["jobs"].items():
            assert not [c for c in job_commands(job) if "benchmarks.smoke" in c], name
            assert not [u for u in uploads(job) if "BENCH_pr" in u["with"]["path"]], name
        assert not (ROOT / "benchmarks" / "smoke.py").exists()
        assert not sorted(ROOT.glob("BENCH_pr*.json"))

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
        assert nightly(job)
        suite = [cmd for cmd in job_commands(job) if "python -m pytest" in cmd]
        assert suite and "not slow" not in suite[0]

    def test_scenario_adversarial_full_sweep_is_nightly_gated(self, workflow):
        """PRs run the quick red-team shape inside ``tests``; the full-epoch
        sweep is slow-marked, so only the nightly/dispatch full suite runs
        it."""
        source = (ROOT / "tests" / "test_adversarial_market.py").read_text()
        (sweep,) = [
            node
            for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.FunctionDef) and node.name == "test_full_sweep_passes"
        ]
        assert "pytest.mark.slow" in [ast.unparse(d) for d in sweep.decorator_list]
        assert "not slow" in " ".join(job_commands(workflow["jobs"]["tests"]))
        assert nightly(workflow["jobs"]["full-suite"])

    @pytest.mark.parametrize(
        "path, name",
        [
            ("test_faults.py", "test_chaos_sweep_converges_and_reproduces"),
            ("test_storage.py", "test_mixed_recovery_sweep"),
        ],
    )
    def test_chaos_sweeps_are_nightly_gated(self, workflow, path, name):
        """The 16-seed chaos sweeps of the harness deployment are
        slow-marked: PRs run one seeded chaos run of each kind, the
        nightly/dispatch full suite runs every seed."""
        source = (ROOT / "tests" / path).read_text()
        (sweep,) = [
            node
            for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.FunctionDef) and node.name == name
        ]
        decorators = [ast.unparse(d) for d in sweep.decorator_list]
        assert "pytest.mark.slow" in decorators
        assert "pytest.mark.parametrize('seed', range(16))" in decorators
        assert "not slow" in " ".join(job_commands(workflow["jobs"]["tests"]))
        assert nightly(workflow["jobs"]["full-suite"])

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
            for step in uploads(job):
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
        pyproject = (ROOT / "pyproject.toml").read_text()
        assert 'slow:' in pyproject
