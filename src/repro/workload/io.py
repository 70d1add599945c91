"""Trace (de)serialization: one JSON object per line, like the paper's
artifact workload files (``azure.ar=0.5.jsonl``)."""

from __future__ import annotations

import json
from typing import List

from .spec import Trace, TraceRequest

__all__ = ["save_trace", "load_trace"]


def save_trace(trace: Trace, path: str) -> None:
    with open(path, "w") as f:
        header = {"model_ids": trace.model_ids,
                  "duration_s": trace.duration_s}
        f.write(json.dumps({"__header__": header}) + "\n")
        for req in trace:
            row = {
                "request_id": req.request_id,
                "model_id": req.model_id,
                "arrival_s": req.arrival_s,
                "prompt_tokens": req.prompt_tokens,
                "output_tokens": req.output_tokens,
            }
            # untenanted/undeadlined traces keep the exact legacy byte format
            if req.tenant_id is not None:
                row["tenant_id"] = req.tenant_id
            if req.deadline_s is not None:
                row["deadline_s"] = req.deadline_s
            if req.conversation_id is not None:
                row["conversation_id"] = req.conversation_id
            if req.shared_prefix_id is not None:
                row["shared_prefix_id"] = req.shared_prefix_id
            if req.shared_prefix_tokens:
                row["shared_prefix_tokens"] = req.shared_prefix_tokens
            f.write(json.dumps(row) + "\n")


def load_trace(path: str) -> Trace:
    """Read a trace written by :func:`save_trace`.  A malformed row is a
    ``ValueError`` naming ``path`` and the row's 1-based file line."""
    requests: List[TraceRequest] = []
    model_ids: List[str] = []
    duration = 0.0
    with open(path) as f:
        for lineno, line in enumerate(f, 1):
            line = line.strip()
            if not line:
                continue
            where = f"{path} line {lineno}"
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as e:
                raise ValueError(f"{where}: {e.msg} at column {e.colno}") \
                    from None
            if not isinstance(obj, dict):
                raise ValueError(f"{where}: expected a JSON object, got "
                                 f"{type(obj).__name__}")
            if "__header__" in obj:
                model_ids = obj["__header__"]["model_ids"]
                duration = obj["__header__"]["duration_s"]
                continue
            try:
                requests.append(TraceRequest(**obj))
            except (TypeError, ValueError) as e:
                raise ValueError(f"{where}: {e}") from e
    if not model_ids:
        model_ids = sorted({r.model_id for r in requests})
    if duration == 0.0 and requests:
        duration = max(r.arrival_s for r in requests)
    return Trace(requests=requests, model_ids=model_ids,
                 duration_s=duration)
