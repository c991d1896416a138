"""Outside-in tracer for fewstep.

The tracer replaces public functions at the module or class attributes where
their callers look them up, records one span per call in memory, and puts
every original back on ``restore``. No file of fewstep changes.
"""

from __future__ import annotations

import itertools
import time
from collections import Counter
from typing import Any, Callable, Optional

from summary import Span

Hook = Callable[["Tracer", tuple, dict, Any], Any]


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self.call = 0
        self._stack: list[int] = []
        self._ids = itertools.count()
        self._patched: list[tuple[Any, str, Any]] = []

    def wrap(self, fn: Callable, name: str, layer: str, hook: Optional[Hook] = None) -> Callable:
        """Return ``fn`` recording a span; ``hook`` may count or wrap the result."""
        spans, stack, ids, counts = self.spans, self._stack, self._ids, self.counts
        clock = time.perf_counter

        def traced(*args, **kwargs):
            sid = next(ids)
            parent = stack[-1] if stack else None
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append(Span(sid, name, layer, start, end, parent, self.call))
                counts[name] += 1
            return result if hook is None else hook(self, args, kwargs, result)

        traced.__wrapped__ = fn
        return traced

    def patch(self, owner: Any, attr: str, layer: str, hook: Optional[Hook] = None) -> None:
        original = vars(owner)[attr]
        label = owner.__name__ if attr == "__post_init__" else attr
        setattr(owner, attr, self.wrap(original, f"{layer}.{label}", layer, hook))
        self._patched.append((owner, attr, original))

    def restore(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)

    def unrestored(self) -> list[str]:
        """Patched attributes that do not hold their original value."""
        return [
            f"{owner.__name__}.{attr}"
            for owner, attr, original in self._patched
            if vars(owner)[attr] is not original
        ]

    def take(self) -> list[Span]:
        """Hand over the spans recorded so far and start a new list."""
        taken = self.spans[:]
        self.spans.clear()
        return taken


def _count_oracle_rows(tracer: Tracer, args: tuple, kwargs: dict, result: Any) -> Any:
    # epsilon_prediction(self, schedule, x, t, condition=None)
    model, x = args[0], args[2]
    condition = kwargs.get("condition", args[4] if len(args) > 4 else None)
    rows = x.shape[0] if getattr(x, "ndim", 1) == 2 else 1
    tracer.counts["mixture.rows_x_components"] += rows * (1 if condition is not None else model.num_components)
    return result


def _count_metric_rows(tracer: Tracer, args: tuple, kwargs: dict, result: Any) -> Any:
    tracer.counts["metrics.rows"] += len(args[0]) + len(args[1])
    return result


def _wrap_clip(tracer: Tracer, args: tuple, kwargs: dict, result: Any) -> Any:
    return None if result is None else tracer.wrap(result, "postprocess.clip", "postprocess")


def fewstep_targets() -> list[tuple[Any, str, str, Optional[Hook]]]:
    """Every (owner, attribute, layer, hook) the traced run patches."""
    from fewstep import cli, importance, metrics, sampling, timesteps
    from fewstep.config import ExperimentConfig
    from fewstep.guidance import GuidanceConfig
    from fewstep.metrics import RunReport
    from fewstep.mixture import MixtureModel
    from fewstep.sampling import SamplerConfig

    return [
        (ExperimentConfig, "to_dict", "config", None),
        (cli, "build_schedule", "schedules", None),
        (cli, "compute_importance", "importance", None),
        (importance, "schedule_fingerprint", "importance", None),
        (timesteps, "schedule_fingerprint", "importance", None),
        (sampling, "schedule_fingerprint", "importance", None),
        (cli, "adaptive_schedule", "timesteps", None),
        (cli, "mixture_preset", "mixture", None),
        (MixtureModel, "__post_init__", "mixture", None),
        (MixtureModel, "component", "mixture", None),
        (MixtureModel, "epsilon_prediction", "mixture", _count_oracle_rows),
        (MixtureModel, "sample_ground_truth", "mixture", None),
        (cli, "guide_interpolate", "guidance", None),
        (cli, "guide_negative", "guidance", None),
        (cli, "compounding_scale", "guidance", None),
        (GuidanceConfig, "__post_init__", "guidance", None),
        (cli, "batch_clip", "postprocess", _wrap_clip),
        (cli, "run_sampler", "sampling", None),
        (sampling, "noisify", "sampling", None),
        (SamplerConfig, "__post_init__", "sampling", None),
        (cli, "moments_error", "metrics", None),
        (cli, "wasserstein_1d", "metrics", _count_metric_rows),
        (cli, "sliced_wasserstein", "metrics", _count_metric_rows),
        (cli, "saturation_fraction", "metrics", None),
        (RunReport, "__post_init__", "metrics", None),
        (cli, "stream", "seeding", None),
        (sampling, "stream", "seeding", None),
        (metrics, "stream", "seeding", None),
    ]


def install(tracer: Tracer) -> None:
    for owner, attr, layer, hook in fewstep_targets():
        tracer.patch(owner, attr, layer, hook)
