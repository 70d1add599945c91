"""Hardware cost models: rooflines, SBMM orderings, memory, transfers."""

import numpy as np
import pytest

from repro.hardware import (A100, A800, GemmShape, GPUNode,
                            InterconnectModel, MemoryPool,
                            OutOfMemoryError, RTX3090, SBMM_IMPLEMENTATIONS,
                            Tier, TransferModel, achieved_flops_ratio,
                            allreduce_time, dense_gemm_time, node_from_name,
                            quantized_gemm_time, sbmm_time,
                            sparse_quantized_gemm_time)


class TestGemmModels:
    def test_time_positive_and_monotone_in_m(self):
        times = [dense_gemm_time(GemmShape(m, 1024, 1024), A800)
                 for m in (1, 16, 256, 4096)]
        assert all(t > 0 for t in times)
        assert times == sorted(times)

    def test_decode_is_memory_bound(self):
        """At m=1, quantized weights cut time by roughly the byte ratio."""
        fp16 = dense_gemm_time(GemmShape(1, 4096, 4096), A800,
                               include_launch=False)
        int4 = quantized_gemm_time(GemmShape(1, 4096, 4096), A800, 4,
                                   include_launch=False)
        assert 2.5 < fp16 / int4 < 4.5

    def test_sparse_int4_beats_fp16_at_decode(self):
        shape = GemmShape(1, 4096, 4096)
        fp16 = dense_gemm_time(shape, A800, include_launch=False)
        sparse = sparse_quantized_gemm_time(shape, A800, 4,
                                            include_launch=False)
        assert sparse < fp16 / 3

    def test_fig6_sparse_exceeds_dense_peak_at_large_m(self):
        """Fig 6's headline: sparse tensor cores push past dense FP16 peak
        at prefill-scale inputs; quant-only plateaus at dense peak."""
        shape = GemmShape(4096, 4096, 4096)
        dense_peak = achieved_flops_ratio(shape, A800, "fp16")
        quant = achieved_flops_ratio(shape, A800, "quant", 4)
        sparse = achieved_flops_ratio(shape, A800, "sparse_quant", 4)
        assert sparse > 1.4 * dense_peak
        assert quant == pytest.approx(dense_peak, rel=0.05)

    def test_fig6_small_input_order(self):
        """At decode sizes, lower-precision kernels achieve more flops."""
        shape = GemmShape(2, 4096, 4096)
        fp16 = achieved_flops_ratio(shape, A800, "fp16")
        int4 = achieved_flops_ratio(shape, A800, "quant", 4)
        int2 = achieved_flops_ratio(shape, A800, "quant", 2)
        assert int2 > int4 > fp16

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            achieved_flops_ratio(GemmShape(1, 8, 8), A800, "int1???")


class TestSBMM:
    COUNTS = [3, 1, 4, 2]

    def test_fig7_ordering(self):
        """Fig 7: SBMM < reorder-only < naive for-loop <= fp16 for-loop."""
        kw = dict(shape_k=2048, shape_n=2048, gpu=A800)
        t = {impl: sbmm_time(self.COUNTS, impl=impl, **kw).total
             for impl in SBMM_IMPLEMENTATIONS}
        assert t["sbmm"] < t["sbmm_reorder"]
        assert t["sbmm_reorder"] < t["naive_forloop"]
        assert t["naive_forloop"] < t["fp16_forloop"]

    def test_bmm_pays_stacking(self):
        kw = dict(shape_k=2048, shape_n=2048, gpu=A800)
        bmm = sbmm_time(self.COUNTS, impl="fp16_bmm", **kw).total
        loop = sbmm_time(self.COUNTS, impl="fp16_forloop", **kw).total
        assert bmm > loop  # stacking weight copies dominates

    def test_empty_batch_is_free(self):
        b = sbmm_time([], 1024, 1024, A800)
        assert b.total == 0.0 and b.compute == 0.0

    def test_zero_count_deltas_skipped(self):
        a = sbmm_time([2, 0, 0, 3], 1024, 1024, A800)
        b = sbmm_time([2, 3], 1024, 1024, A800)
        assert a.total == pytest.approx(b.total)

    def test_overhead_nonnegative(self):
        b = sbmm_time([1, 1, 1], 1024, 1024, A800)
        assert b.overhead >= 0

    def test_unknown_impl_rejected(self):
        with pytest.raises(ValueError):
            sbmm_time([1], 8, 8, A800, impl="magic")

    def test_fig17_scaling_with_models(self):
        """Fixed total requests, more models: SBMM degrades gently, the
        for-loop degrades linearly."""
        total_requests = 64
        def counts(n_models):
            per = total_requests // n_models
            return [per] * n_models
        sbmm_4 = sbmm_time(counts(4), 2048, 2048, A800, impl="sbmm").total
        sbmm_64 = sbmm_time(counts(64), 2048, 2048, A800, impl="sbmm").total
        loop_4 = sbmm_time(counts(4), 2048, 2048, A800,
                           impl="naive_forloop").total
        loop_64 = sbmm_time(counts(64), 2048, 2048, A800,
                            impl="naive_forloop").total
        # absolute latency growth per added model is several times smaller
        assert (sbmm_64 - sbmm_4) < (loop_64 - loop_4) / 3
        assert sbmm_64 < loop_64 / 3


class TestSpecs:
    def test_registry_lookup(self):
        node = node_from_name("a800", 4)
        assert node.gpu.name == "A800-80G"
        with pytest.raises(KeyError):
            node_from_name("h100")

    def test_memory_bytes(self):
        assert A800.memory_bytes == 80 * (1 << 30)

    def test_3090_has_no_nvlink(self):
        assert RTX3090.nvlink_gbps == 0.0


class TestAllreduce:
    def test_single_gpu_free(self):
        assert allreduce_time(1e9, 1, A800) == 0.0

    def test_grows_with_size(self):
        assert allreduce_time(1e9, 4, A800) > allreduce_time(1e6, 4, A800)

    def test_nvlink_faster_than_pcie(self):
        assert allreduce_time(1e8, 2, A800) < allreduce_time(1e8, 2, RTX3090)

    # the two ring bodies the tree carried before they became one
    # (hardware.cluster.allreduce_time, kv_transfer.InterconnectModel)
    @staticmethod
    def old_intra_node(nbytes, n_gpus, gpu):
        if n_gpus <= 1:
            return 0.0
        link_gbps = gpu.nvlink_gbps if gpu.nvlink_gbps > 0 else gpu.pcie_gbps
        latency = 5e-6 if gpu.nvlink_gbps > 0 else 15e-6
        volume = 2.0 * (n_gpus - 1) / n_gpus * nbytes
        return latency * 2 * (n_gpus - 1) + volume / (link_gbps * 1e9)

    @staticmethod
    def old_inter_node(link, nbytes, n_participants):
        if n_participants <= 1 or nbytes <= 0:
            return 0.0
        steps = 2 * (n_participants - 1)
        volume = steps / n_participants * nbytes
        return link.latency_s * steps + volume / (link.gbps * 1e9)

    @pytest.mark.parametrize("n", [1, 2, 4, 8])
    @pytest.mark.parametrize("nbytes", [0, 1, 1e6, 1e9])
    def test_one_ring_formula_keeps_both_old_floats(self, n, nbytes):
        """``==`` on floats, not ``approx``: records are bit-pinned."""
        for gpu in (A800, A100, RTX3090):
            assert allreduce_time(nbytes, n, gpu) == \
                self.old_intra_node(nbytes, n, gpu)
        for link in (InterconnectModel(),
                     InterconnectModel(gbps=12.5, latency_s=3e-6)):
            assert link.allreduce_time(nbytes, n) == \
                self.old_inter_node(link, nbytes, n)
        # an empty buffer still pays the intra-node hop latency, and is
        # never sent between nodes: both pre-existing, both kept
        if nbytes == 0 and n > 1:
            assert allreduce_time(0, n, A800) > 0.0
            assert InterconnectModel().allreduce_time(0, n) == 0.0


class TestInterconnectValidation:
    @pytest.mark.parametrize("kwargs, named", [
        ({"gbps": 0.0}, "gbps must be > 0, got 0.0"),
        ({"gbps": -1.0}, "gbps must be > 0, got -1.0"),
        ({"gbps": float("nan")}, "gbps must be > 0, got nan"),
        ({"latency_s": -1}, "latency_s must be >= 0, got -1"),
    ])
    def test_non_physical_links_are_rejected(self, kwargs, named):
        with pytest.raises(ValueError, match=named):
            InterconnectModel(**kwargs)

    def test_a_zero_latency_link_is_legal(self):
        assert InterconnectModel(latency_s=0.0).transfer_time(25e9) == 1.0


class TestMemoryPool:
    def test_allocate_release(self):
        pool = MemoryPool("t", capacity=100)
        pool.allocate("a", 60)
        assert pool.used == 60 and pool.free == 40
        assert pool.contains("a")
        assert pool.release("a") == 60
        assert pool.used == 0

    def test_oom(self):
        pool = MemoryPool("t", capacity=100)
        pool.allocate("a", 60)
        with pytest.raises(OutOfMemoryError):
            pool.allocate("b", 50)

    def test_double_allocate_rejected(self):
        pool = MemoryPool("t", capacity=100)
        pool.allocate("a", 10)
        with pytest.raises(KeyError):
            pool.allocate("a", 10)

    def test_resize(self):
        pool = MemoryPool("t", capacity=100)
        pool.allocate("kv", 10)
        pool.resize("kv", 80)
        assert pool.used == 80
        with pytest.raises(OutOfMemoryError):
            pool.resize("kv", 101)

    def test_negative_allocation_rejected(self):
        pool = MemoryPool("t", capacity=10)
        with pytest.raises(ValueError):
            pool.allocate("a", -1)


class TestTransfers:
    def test_same_tier_free(self):
        node = node_from_name("a800")
        tm = TransferModel(node)
        assert tm.time(1e9, Tier.GPU, Tier.GPU) == 0.0

    def test_disk_slower_than_pcie(self):
        tm = TransferModel(node_from_name("a800"))
        nbytes = 10e9
        assert tm.time(nbytes, Tier.DISK, Tier.CPU) > \
            tm.time(nbytes, Tier.CPU, Tier.GPU)

    def test_decompression_can_dominate(self):
        tm = TransferModel(node_from_name("a800"))
        fast = tm.time(1e9, Tier.DISK, Tier.CPU, decompress_gbps=100.0)
        slow = tm.time(1e9, Tier.DISK, Tier.CPU, decompress_gbps=0.5)
        assert slow > fast

    def test_node_helpers(self):
        node = GPUNode(node_from_name("a800", 4))
        assert len(node.gpus) == 4
        assert len(node.tp_group(2)) == 2
        with pytest.raises(ValueError):
            node.tp_group(5)
        assert node.allreduce(1e6, 2) > 0
