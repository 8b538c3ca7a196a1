"""Jobs: validated submissions, states, and the dedup content address.

A job is one accepted experiment submission — a registry experiment
name plus runner kwargs, validated against the :class:`ExperimentSpec`
before it is ever queued, so a typo'd benchmark name fails at submit
time with the same message the CLI would print, not minutes later in a
worker.

Deduplication identity: :func:`job_key` reuses the *exact* key function
the registry's result cache uses (experiment + determinism-relevant
kwargs, ``jobs`` excluded, content-addressed through the store), so
"two submissions are the same work" and "this result is already cached"
are, by construction, the same predicate.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.errors import CampaignServiceError, ConfigError, StoreError

__all__ = [
    "Job",
    "STATE_CANCELLED",
    "STATE_DONE",
    "STATE_FAILED",
    "STATE_POISONED",
    "STATE_QUEUED",
    "STATE_RUNNING",
    "TERMINAL_STATES",
    "job_key",
    "validate_submission",
]

STATE_QUEUED = "queued"
STATE_RUNNING = "running"
STATE_DONE = "done"
STATE_FAILED = "failed"
STATE_CANCELLED = "cancelled"
#: Terminal quarantine: the job's worker died (crashed or was killed by
#: the watchdog) more times than the server's kill budget allows.  A
#: poisoned job never re-enters the queue — one pathological submission
#: must not monopolize the worker pool forever — but stays in the
#: ledger and listings so operators can see it and resubmit after a fix.
STATE_POISONED = "poisoned"

#: States a job never leaves.
TERMINAL_STATES = frozenset(
    {STATE_DONE, STATE_FAILED, STATE_CANCELLED, STATE_POISONED}
)

#: Default scheduling priority (lower runs sooner; FIFO within a tier).
DEFAULT_PRIORITY = 100


def validate_submission(experiment: str, kwargs: Optional[dict]) -> Tuple:
    """Validate a submission against the experiment registry.

    Returns ``(spec, normalized_kwargs)``.  Raises
    :class:`CampaignServiceError` for an unknown experiment, a keyword
    the runner does not take, or benchmark names outside the
    experiment's universe — the same checks the CLI applies, performed
    server-side so every client gets them.
    """
    from repro.experiments.registry import get_spec

    try:
        spec = get_spec(experiment)
    except ConfigError as exc:
        raise CampaignServiceError(str(exc)) from exc
    kwargs = dict(kwargs or {})
    allowed = {"jobs"} if spec.supports_jobs else set()
    if spec.supports_benchmarks:
        allowed.add("benchmarks")
    if spec.benchmark_option is not None:
        allowed.add("benchmark")
    if spec.supports_sampler:
        allowed.update(("sampler", "sampler_params"))
    unknown = sorted(set(kwargs) - allowed)
    if unknown:
        raise CampaignServiceError(
            f"experiment {experiment!r} does not take keyword(s) "
            f"{', '.join(unknown)}; allowed: {', '.join(sorted(allowed)) or 'none'}"
        )
    benchmarks = kwargs.get("benchmarks")
    if benchmarks is not None:
        if not isinstance(benchmarks, (list, tuple)) or not all(
            isinstance(name, str) for name in benchmarks
        ):
            raise CampaignServiceError(
                "benchmarks must be a list of benchmark names"
            )
        bad = spec.unknown_benchmarks(benchmarks)
        if bad:
            raise CampaignServiceError(
                f"unknown benchmarks: {', '.join(bad)}"
            )
        kwargs["benchmarks"] = list(benchmarks)
    benchmark = kwargs.get("benchmark")
    if benchmark is not None:
        if not isinstance(benchmark, str):
            raise CampaignServiceError("benchmark must be a string")
        bad = spec.unknown_benchmarks([benchmark])
        if bad:
            raise CampaignServiceError(f"unknown benchmark: {benchmark}")
    jobs = kwargs.get("jobs")
    if jobs is not None and (
        isinstance(jobs, bool) or not isinstance(jobs, int) or jobs < 0
    ):
        raise CampaignServiceError(
            f"jobs must be a non-negative integer, got {jobs!r}"
        )
    sampler_name = kwargs.get("sampler")
    sampler_params = kwargs.get("sampler_params")
    if sampler_name is not None or sampler_params is not None:
        from repro.sampling.registry import get_sampler

        if not isinstance(sampler_name, str):
            raise CampaignServiceError(
                "sampler must be a registered sampler name"
            )
        if sampler_params is not None and not isinstance(
            sampler_params, dict
        ):
            raise CampaignServiceError(
                "sampler_params must be a mapping of declared parameters"
            )
        try:
            sampler_spec = get_sampler(sampler_name)
            coerced = sampler_spec.coerce_params(sampler_params)
        except ConfigError as exc:
            raise CampaignServiceError(str(exc)) from exc
        if sampler_params is not None:
            kwargs["sampler_params"] = coerced
    return spec, kwargs


def result_params(experiment: str, kwargs: dict) -> dict:
    """The registry result-cache parameter document for a submission."""
    return {
        "experiment": experiment,
        "kwargs": {k: v for k, v in kwargs.items() if k != "jobs"},
    }


def job_key(store, experiment: str, kwargs: dict) -> Optional[str]:
    """Dedup content address of a submission, or None when unkeyable.

    Same key function as the registry result cache: two submissions with
    the same key are the same work, and a stored ``result`` artifact
    under this key *is* the submission's answer.
    """
    if store is None:
        return None
    try:
        return store.key("result", result_params(experiment, kwargs))
    except StoreError:
        return None


@dataclass
class Job:
    """One accepted submission and everything the server knows about it."""

    id: str
    experiment: str
    kwargs: Dict = field(default_factory=dict)
    priority: int = DEFAULT_PRIORITY
    key: Optional[str] = None
    state: str = STATE_QUEUED
    resume: bool = False
    cached: bool = False
    error: Optional[str] = None
    submitted_ns: int = 0
    started_ns: int = 0
    finished_ns: int = 0
    reused_items: int = 0
    completed_items: int = 0
    total_items: int = 0
    degraded: bool = False
    cancel_requested: bool = False
    #: How many times this job's worker died without a status document
    #: (crash or watchdog kill).  Doubles as the run generation handed
    #: to the child, and drives the poison decision at max_kills.
    kills: int = 0

    @property
    def terminal(self) -> bool:
        return self.state in TERMINAL_STATES

    def describe(self) -> dict:
        """JSON-safe status payload (wire + ledger representation)."""
        return {
            "id": self.id,
            "experiment": self.experiment,
            "kwargs": dict(self.kwargs),
            "priority": self.priority,
            "key": self.key,
            "state": self.state,
            "resume": self.resume,
            "cached": self.cached,
            "error": self.error,
            "submitted_ns": self.submitted_ns,
            "started_ns": self.started_ns,
            "finished_ns": self.finished_ns,
            "reused_items": self.reused_items,
            "completed_items": self.completed_items,
            "total_items": self.total_items,
            "degraded": self.degraded,
            "kills": self.kills,
        }

    @classmethod
    def from_record(cls, record: dict) -> "Job":
        """Rebuild a job from a :meth:`describe` dict (ledger replay)."""
        known = {
            "id", "experiment", "kwargs", "priority", "key", "state",
            "resume", "cached", "error", "submitted_ns", "started_ns",
            "finished_ns", "reused_items", "completed_items",
            "total_items", "degraded", "kills",
        }
        fields = {k: v for k, v in record.items() if k in known}
        missing = {"id", "experiment"} - set(fields)
        if missing:
            raise CampaignServiceError(
                f"job record is missing field(s): {', '.join(sorted(missing))}"
            )
        return cls(**fields)


def summarize_jobs(jobs: List[Job]) -> List[dict]:
    """Compact listing payload for the ``ls`` op, in submission order."""
    return [
        {
            "id": job.id,
            "experiment": job.experiment,
            "state": job.state,
            "priority": job.priority,
            "cached": job.cached,
            "reused_items": job.reused_items,
            "completed_items": job.completed_items,
            "kills": job.kills,
            "error": job.error,
        }
        for job in jobs
    ]
