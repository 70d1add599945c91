"""CLI workflow, model checkpoints, and trace serialization."""

import json
import os

import numpy as np
import pytest

from repro.cli import build_parser, main
from repro.nn import TransformerConfig, TransformerModel
from repro.nn.checkpoint import load_model, save_model
from repro.workload import synthetic_trace
from repro.workload.io import load_trace, save_trace


class TestCheckpoint:
    def test_roundtrip(self, tmp_path, rng):
        model = TransformerModel(TransformerConfig.small(), seed=3)
        path = str(tmp_path / "m.ckpt")
        save_model(model, path)
        loaded = load_model(path)
        assert loaded.config == model.config
        toks = rng.integers(0, 128, size=(1, 8))
        np.testing.assert_allclose(model(toks), loaded(toks), atol=1e-6)

    def test_gqa_config_preserved(self, tmp_path):
        model = TransformerModel(TransformerConfig.tiny_gqa(), seed=0)
        path = str(tmp_path / "g.ckpt")
        save_model(model, path)
        assert load_model(path).config.n_kv_heads == 2


class TestTraceIO:
    def test_roundtrip(self, tmp_path):
        trace = synthetic_trace(4, rate=2.0, duration_s=30.0, seed=5)
        path = str(tmp_path / "t.jsonl")
        save_trace(trace, path)
        loaded = load_trace(path)
        assert loaded.model_ids == trace.model_ids
        assert loaded.duration_s == trace.duration_s
        assert len(loaded) == len(trace)
        for a, b in zip(trace, loaded):
            assert (a.request_id, a.model_id, a.arrival_s,
                    a.prompt_tokens, a.output_tokens) == \
                (b.request_id, b.model_id, b.arrival_s,
                 b.prompt_tokens, b.output_tokens)

    def test_headerless_file(self, tmp_path):
        path = str(tmp_path / "t.jsonl")
        with open(path, "w") as f:
            f.write('{"request_id": 0, "model_id": "m0", "arrival_s": 1.0, '
                    '"prompt_tokens": 8, "output_tokens": 4}\n')
        trace = load_trace(path)
        assert trace.model_ids == ["m0"]
        assert trace.duration_s == 1.0

    def test_tenant_tags_roundtrip(self, tmp_path):
        from repro.workload import TenantWorkload, multi_tenant_trace
        trace = multi_tenant_trace(
            [TenantWorkload("a", rate=1.0), TenantWorkload("b", rate=1.0)],
            duration_s=20.0, seed=3)
        path = str(tmp_path / "t.jsonl")
        save_trace(trace, path)
        loaded = load_trace(path)
        assert [r.tenant_id for r in loaded] == \
            [r.tenant_id for r in trace]
        assert loaded.tenant_ids == ["a", "b"]

    @pytest.mark.parametrize("row, reason", [
        ('{"request_id": 2, "model_id": "m0", "arrival_s": 1.0, '
         '"prompt_tokens": 8', "Expecting ',' delimiter at column 73"),
        ('{"request_id": 2, "model_id": "m0", "arrival_s": 1.0, '
         '"prompt_tokens": 8, "output_tokens": 4, "colour": "red"}',
         "unexpected keyword argument 'colour'"),
        ('{"request_id": 2, "model_id": "m0", "arrival_s": 1.0, '
         '"prompt_tokens": 8}', "missing 1 required positional argument"),
        ('[2, "m0", 1.0, 8, 4]', "expected a JSON object, got list"),
        ('{"request_id": 2, "model_id": "m0", "arrival_s": 1.0, '
         '"prompt_tokens": 0, "output_tokens": 4}', "prompt_tokens"),
    ], ids=["truncated", "unknown-field", "missing-field", "not-an-object",
            "invalid-request"])
    def test_a_bad_row_names_its_file_line(self, tmp_path, row, reason):
        """A malformed row is a ValueError naming the file and the row's
        1-based line: the header is line 1, a blank line is counted."""
        trace = synthetic_trace(1, rate=1.0, duration_s=2.0, seed=0)
        trace.requests = trace.requests[:1]
        path = str(tmp_path / "t.jsonl")
        save_trace(trace, path)
        with open(path, "a") as f:
            f.write("\n" + row + "\n")
        with pytest.raises(ValueError) as info:
            load_trace(path)
        message = str(info.value)
        assert message.startswith(f"{path} line 4: ")
        assert reason in message

    def test_untenanted_byte_format_unchanged(self, tmp_path):
        """Legacy trace files never mention tenant_id (old readers and
        diff-based fixtures stay valid)."""
        trace = synthetic_trace(2, rate=1.0, duration_s=10.0, seed=0)
        path = str(tmp_path / "t.jsonl")
        save_trace(trace, path)
        with open(path) as f:
            assert "tenant_id" not in f.read()


#: ``vars(parse_args(...))`` of the serving modes with every default taken
#: (``func`` by name), recorded while each mode declared its own flags
SERVING_DEFAULTS = {
    "simulate": {
        "command": "simulate", "func": "_cmd_simulate", "trace": "t.jsonl",
        "model": "llama-13b", "gpu": "a800", "gpus": 4, "tp": 4,
        "batch": 32, "deltas": 8, "ratio": 10.0, "prefix_cache": False,
        "prefix_block": 32, "prefill_workers": 1, "decode_workers": 1,
        "tp_degree": None, "systems": "both", "verbose": False},
    "cluster": {
        "command": "cluster", "func": "_cmd_cluster", "trace": "t.jsonl",
        "model": "llama-13b", "engine": "deltazip", "replicas": "1,2,4",
        "balancer": "least-outstanding", "autoscale": False,
        "min_replicas": 1, "max_replicas": 8, "high_queue": 8.0,
        "low_queue": 1.0, "gpu": "a800", "gpus": 4, "tp": 4, "batch": 32,
        "deltas": 8, "ratio": 10.0, "prefix_cache": False,
        "prefix_block": 32, "trace_out": None, "telemetry_interval": None,
        "verbose": False},
    "tenancy": {
        "command": "tenancy", "func": "_cmd_tenancy",
        "tenants": "agg:3.0:1.0:batch,gold:0.3:2.0:interactive,"
                   "silver:0.3:1.0:standard",
        "policy": "both", "shed": False, "depth": None, "duration": 120.0,
        "seed": 0, "model": "llama-13b", "engine": "deltazip",
        "gpu": "a800", "gpus": 4, "tp": 4, "batch": 32, "deltas": 8,
        "ratio": 10.0, "telemetry_interval": None, "trace_out": None},
}
#: the flag family all three share, each set away from its default
SHARED_FLAGS = (["--model", "llama-7b", "--gpu", "rtx3090", "--gpus", "2",
                 "--tp", "2", "--batch", "16", "--deltas", "3",
                 "--ratio", "5.5"],
                {"model": "llama-7b", "gpu": "rtx3090", "gpus": 2, "tp": 2,
                 "batch": 16, "deltas": 3, "ratio": 5.5})
#: every other flag of each mode, set away from its default
MODE_FLAGS = {
    "simulate": (["--prefix-cache", "--prefix-block", "16",
                  "--prefill-workers", "2", "--decode-workers", "3",
                  "--tp-degree", "8", "--systems", "all", "--verbose"],
                 {"prefix_cache": True, "prefix_block": 16,
                  "prefill_workers": 2, "decode_workers": 3,
                  "tp_degree": 8, "systems": "all", "verbose": True}),
    "cluster": (["--engine", "disagg", "--replicas", "1,3",
                 "--balancer", "lineage", "--autoscale",
                 "--min-replicas", "2", "--max-replicas", "5",
                 "--high-queue", "4", "--low-queue", "0.5",
                 "--prefix-cache", "--prefix-block", "16",
                 "--trace-out", "x.json", "--telemetry-interval", "2",
                 "--verbose"],
                {"engine": "disagg", "replicas": "1,3",
                 "balancer": "lineage", "autoscale": True,
                 "min_replicas": 2, "max_replicas": 5, "high_queue": 4.0,
                 "low_queue": 0.5, "prefix_cache": True, "prefix_block": 16,
                 "trace_out": "x.json", "telemetry_interval": 2.0,
                 "verbose": True}),
    "tenancy": (["--tenants", "a:1.0", "--policy", "vtc", "--shed",
                 "--depth", "4", "--duration", "30", "--seed", "3",
                 "--engine", "vllm-scb", "--telemetry-interval", "2",
                 "--trace-out", "x.json"],
                {"tenants": "a:1.0", "policy": "vtc", "shed": True,
                 "depth": 4, "duration": 30.0, "seed": 3,
                 "engine": "vllm-scb", "telemetry_interval": 2.0,
                 "trace_out": "x.json"}),
}


def _parsed(argv):
    args = vars(build_parser().parse_args(argv))
    args["func"] = args["func"].__name__
    return args


class TestCLI:
    @pytest.mark.parametrize("mode", sorted(SERVING_DEFAULTS))
    def test_serving_flags_parse_as_recorded(self, mode):
        head = [mode] if mode == "tenancy" else [mode, "--trace", "t.jsonl"]
        assert _parsed(head) == SERVING_DEFAULTS[mode]
        shared_argv, shared = SHARED_FLAGS
        own_argv, own = MODE_FLAGS[mode]
        assert _parsed(head + shared_argv + own_argv) == \
            {**SERVING_DEFAULTS[mode], **shared, **own}

    def test_parser_subcommands(self):
        parser = build_parser()
        args = parser.parse_args(["trace", "--out", "x.jsonl"])
        assert args.command == "trace"
        with pytest.raises(SystemExit):
            parser.parse_args(["unknown"])

    def test_trace_and_simulate(self, tmp_path):
        trace_path = str(tmp_path / "t.jsonl")
        assert main(["trace", "--distribution", "uniform", "--models", "4",
                     "--rate", "1.0", "--duration", "20",
                     "--out", trace_path]) == 0
        assert os.path.exists(trace_path)
        assert main(["simulate", "--trace", trace_path,
                     "--model", "llama-7b", "--gpus", "1", "--tp", "1",
                     "--systems", "deltazip", "--verbose"]) == 0

    def test_cluster_mode(self, tmp_path, capsys):
        trace_path = str(tmp_path / "t.jsonl")
        assert main(["trace", "--distribution", "uniform", "--models", "4",
                     "--rate", "2.0", "--duration", "20",
                     "--out", trace_path]) == 0
        assert main(["cluster", "--trace", trace_path,
                     "--model", "llama-7b", "--gpus", "1", "--tp", "1",
                     "--replicas", "1,2", "--balancer", "lineage"]) == 0
        lines = [ln for ln in capsys.readouterr().out.splitlines()
                 if ln.strip() and not ln.startswith("replicas")]
        assert len(lines) >= 2  # one row per swept replica count

    def test_cluster_trace_out_draws_one_slice_per_request(self, tmp_path):
        """The journal alone, no telemetry: every request's lifecycle."""
        trace_path = str(tmp_path / "t.jsonl")
        out = str(tmp_path / "trace.json")
        assert main(["trace", "--distribution", "uniform", "--models", "4",
                     "--rate", "2.0", "--duration", "20",
                     "--out", trace_path]) == 0
        assert main(["cluster", "--trace", trace_path,
                     "--model", "llama-7b", "--gpus", "1", "--tp", "1",
                     "--replicas", "2", "--trace-out", out]) == 0
        with open(out) as f:
            events = json.load(f)["traceEvents"]
        outers = {e["args"]["request_id"] for e in events
                  if e["tid"].startswith("req:") and "status" in e["args"]}
        assert outers == {r.request_id for r in load_trace(trace_path)}
        assert any(e["name"] == "iteration" for e in events)

    def test_cluster_mode_autoscale(self, tmp_path, capsys):
        trace_path = str(tmp_path / "t.jsonl")
        assert main(["trace", "--distribution", "uniform", "--models", "4",
                     "--rate", "4.0", "--duration", "30",
                     "--out", trace_path]) == 0
        assert main(["cluster", "--trace", trace_path,
                     "--model", "llama-7b", "--gpus", "1", "--tp", "1",
                     "--replicas", "1", "--autoscale",
                     "--max-replicas", "3", "--high-queue", "2",
                     "--verbose"]) == 0
        assert "peak" in capsys.readouterr().out

    def test_pretrain_finetune_compress_evaluate(self, tmp_path):
        base = str(tmp_path / "base.ckpt")
        ft = str(tmp_path / "ft.ckpt")
        calib = str(tmp_path / "calib.npy")
        dzip = str(tmp_path / "ft.dzip")
        assert main(["pretrain", "--size", "tiny", "--sequences", "96",
                     "--epochs", "3", "--out", base]) == 0
        assert main(["finetune", "--base", base, "--task", "review",
                     "--samples", "96", "--epochs", "3",
                     "--calibration-out", calib, "--out", ft]) == 0
        assert main(["compress", "--base", base, "--finetuned", ft,
                     "--preset", "deltazip-2bit", "--calibration", calib,
                     "--out", dzip]) == 0
        assert main(["evaluate", "--model", base, "--delta", dzip,
                     "--task", "review", "--examples", "20"]) == 0
        assert main(["evaluate", "--model", ft, "--task", "review",
                     "--examples", "20"]) == 0

    def test_lora_finetune_path(self, tmp_path):
        base = str(tmp_path / "base.ckpt")
        out = str(tmp_path / "lora.ckpt")
        assert main(["pretrain", "--size", "tiny", "--sequences", "64",
                     "--epochs", "2", "--out", base]) == 0
        assert main(["finetune", "--base", base, "--task", "review",
                     "--method", "lora", "--samples", "64", "--epochs", "2",
                     "--out", out]) == 0
        assert os.path.exists(out)
