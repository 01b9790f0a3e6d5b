"""Call spans for the traced benchmark run.

A span is (name, start, end, parent, job): ``name`` is ``module.function``
of the public ospkit call, ``parent`` is the index of the enclosing job
span (None for a job span itself) and ``job`` is the job id.  Spans stay
in memory and are written out once, when the run ends.
"""

from __future__ import annotations

import json
import time

# span name -> per-layer metric that accumulates its self time
LAYER_OF_SPAN = {
    "io.loads_mechanism": "io.loads_ms",
    "io.loads_instance": "io.loads_ms",
    "io.dumps_mechanism": "io.dumps_ms",
    "io.render_report": "io.render_ms",
    "io.render_csv": "io.render_ms",
    "greedy.extract_tree": "greedy.extract_ms",
    "greedy.approx_ratio": "greedy.approx_ms",
    "greedy.compress": "greedy.compress_ms",
    "greedy.run_two_way_greedy": "greedy.run_ms",
    "greedy.search_two_way_greedy": "greedy.search_ms",
    "verifier.check_k_step_osp": "verifier.check_ms",
    "verifier.is_k_limited": "verifier.k_limited_ms",
    "verifier.is_almost_ordered": "verifier.almost_ordered_ms",
    "verifier.taxation_diagnostics": "verifier.taxation_ms",
    "verifier.strong_ineffectiveness_check": "verifier.ineffective_ms",
    "cmon.build_k_osp_graph": "cmon.graph_ms",
    "cmon.has_negative_cycle": "cmon.cycle_ms",
    "cmon.synthesize_payments": "cmon.synthesize_ms",
}

COUNTS = (
    "io.bytes_in",
    "model.nodes",
    "model.leaves",
    "model.profiles",
    "greedy.raw_nodes",
    "greedy.search_explored",
    "verifier.pairs_checked",
    "verifier.violations",
    "verifier.truncated",
    "cmon.vertices",
    "cmon.edges",
    "cmon.agents_tried",
    "cmon.agents_payable",
)


class NoTrace:
    """Untraced mode: every call goes straight through."""

    def call(self, fn, *args, **kwargs):
        return fn(*args, **kwargs)

    def count(self, name: str, n: int = 1) -> None:
        pass


class Tracer(NoTrace):
    def __init__(self, clock=time.perf_counter) -> None:
        self.clock = clock
        self.spans: list[list] = []
        self.counts: dict[str, int] = {}
        self._job_span: int | None = None
        self._job_id: str | None = None

    def open_job(self, job_id: str) -> None:
        self._job_span = len(self.spans)
        self._job_id = job_id
        self.spans.append(["job", self.clock(), None, None, job_id])

    def close_job(self) -> None:
        self.spans[self._job_span][2] = self.clock()
        self._job_span = self._job_id = None

    def call(self, fn, *args, **kwargs):
        name = f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"
        start = self.clock()
        try:
            return fn(*args, **kwargs)
        finally:
            self.spans.append(
                [name, start, self.clock(), self._job_span, self._job_id]
            )

    def count(self, name: str, n: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    def write(self, path: str) -> None:
        origin = self.spans[0][1] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, job in self.spans:
                fh.write(json.dumps({
                    "name": name,
                    "start_s": start - origin,
                    "end_s": end - origin,
                    "parent": parent,
                    "job": job,
                }) + "\n")


def layer_metrics(spans, counts: dict[str, int], factors: dict[str, float]
                  ) -> dict[str, float]:
    """Per-layer figures for one pass: self milliseconds per layer, the
    job time no call span covers, and the pass's counts.

    Call spans never nest (the benchmark wraps only the calls a job makes
    itself), so a call span's self time is its whole duration.  Each span
    is corrected for the host's speed by its job's factor (see
    hostspeed.py); a job that raised has none and is left out."""
    out = {metric: 0.0 for metric in sorted(set(LAYER_OF_SPAN.values()))}
    job_total = covered = 0.0
    for name, start, end, parent, job in spans:
        ms = (end - start) * factors.get(job, 0.0) * 1000.0
        if parent is None:
            job_total += ms
            continue
        covered += ms
        metric = LAYER_OF_SPAN.get(name)
        if metric is not None:
            out[metric] += ms
    out["job.self_ms"] = job_total - covered
    for name in COUNTS:
        out[name] = counts.get(name, 0)
    payable = out.pop("cmon.agents_payable")
    tried = out["cmon.agents_tried"]
    out["cmon.payable_ratio"] = payable / tried if tried else 0.0
    return out
