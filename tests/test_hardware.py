"""Tests for the GPU catalog, profiles and pricing tables."""

import pytest

from repro.hardware import (
    GPU_CATALOG,
    GPUProfile,
    aws_like_pricing,
    default_profiles,
    get_gpu,
    list_gpus,
    parse_profile,
    PricingTable,
)


class TestGPUCatalog:
    def test_catalog_has_the_paper_gpu_types(self):
        for name in ("H100-80GB", "A100-40GB", "A10-24GB", "T4-16GB", "V100-16GB"):
            assert name in GPU_CATALOG

    def test_a100_80gb_present_for_table1(self):
        assert get_gpu("A100-80GB").memory_gb == 80.0

    def test_get_gpu_unknown_raises_with_suggestions(self):
        with pytest.raises(KeyError, match="known types"):
            get_gpu("B200")

    def test_memory_ordering(self):
        assert get_gpu("H100-80GB").memory_gb > get_gpu("T4-16GB").memory_gb

    def test_bandwidth_ordering_matches_datasheets(self):
        # V100 HBM2 is faster than T4 GDDR6 and A10 GDDR6.
        assert get_gpu("V100-16GB").memory_bandwidth_gbps > get_gpu("T4-16GB").memory_bandwidth_gbps
        assert get_gpu("V100-16GB").memory_bandwidth_gbps > get_gpu("A10-24GB").memory_bandwidth_gbps

    def test_compute_capabilities(self):
        assert get_gpu("V100-16GB").compute_capability == 7.0
        assert get_gpu("T4-16GB").compute_capability == 7.5
        assert get_gpu("H100-80GB").compute_capability == 9.0

    def test_interconnect_bandwidth_nvlink(self):
        h100 = get_gpu("H100-80GB")
        assert h100.interconnect_bandwidth_gbps() == h100.nvlink_bandwidth_gbps

    def test_interconnect_bandwidth_pcie_fallback(self):
        t4 = get_gpu("T4-16GB")
        assert t4.interconnect_bandwidth_gbps() == t4.pcie_bandwidth_gbps

    def test_feature_dict_complete_and_numeric(self):
        for name in list_gpus():
            feats = get_gpu(name).feature_dict()
            assert all(isinstance(v, float) for v in feats.values())
            assert "gpu_memory_gb" in feats and "gpu_fp16_tflops" in feats


class TestGPUProfile:
    def test_default_profiles_count_matches_table3(self):
        assert len(default_profiles()) == 14

    def test_default_profiles_unique_names(self):
        names = [p.name for p in default_profiles()]
        assert len(set(names)) == len(names)

    def test_aggregate_memory(self):
        p = GPUProfile(gpu=get_gpu("A100-40GB"), count=4)
        assert p.total_memory_gb == 160.0

    def test_aggregate_bandwidth_and_tflops(self):
        p = GPUProfile(gpu=get_gpu("T4-16GB"), count=2)
        assert p.total_memory_bandwidth_gbps == 640.0
        assert p.total_fp16_tflops == 130.0

    def test_tensor_parallel_flag(self):
        assert not GPUProfile(gpu=get_gpu("T4-16GB"), count=1).is_tensor_parallel
        assert GPUProfile(gpu=get_gpu("T4-16GB"), count=2).is_tensor_parallel

    def test_invalid_count_raises(self):
        with pytest.raises(ValueError, match="count"):
            GPUProfile(gpu=get_gpu("T4-16GB"), count=0)

    def test_parse_profile_roundtrip(self):
        for p in default_profiles():
            assert parse_profile(p.name) == p

    def test_parse_profile_bad_format(self):
        with pytest.raises(ValueError):
            parse_profile("A100-40GB")
        with pytest.raises(ValueError):
            parse_profile("twoxA100-40GB")

    def test_feature_dict_includes_count(self):
        feats = GPUProfile(gpu=get_gpu("A10-24GB"), count=2).feature_dict()
        assert feats["gpu_count"] == 2.0
        assert feats["profile_total_memory_gb"] == 48.0


class TestPricing:
    def test_pod_cost_scales_with_count(self):
        pricing = aws_like_pricing()
        p1 = parse_profile("1xA100-40GB")
        p4 = parse_profile("4xA100-40GB")
        assert pricing.pod_cost(p4) == pytest.approx(4 * pricing.pod_cost(p1))

    def test_h100_most_expensive_per_gpu(self):
        pricing = aws_like_pricing()
        h100 = pricing.gpu_price("H100-80GB")
        assert all(
            h100 >= pricing.gpu_price(g) for g in pricing.per_gpu_hourly
        )

    def test_t4_cheapest(self):
        pricing = aws_like_pricing()
        t4 = pricing.gpu_price("T4-16GB")
        assert all(t4 <= pricing.gpu_price(g) for g in pricing.per_gpu_hourly)

    def test_unknown_gpu_raises(self):
        with pytest.raises(KeyError, match="priced types"):
            aws_like_pricing().gpu_price("TPU-v5")

    def test_negative_price_rejected(self):
        with pytest.raises(ValueError):
            PricingTable(per_gpu_hourly={"X": -1.0})

    def test_zero_price_is_valid(self):
        # A free tier (e.g. on-prem sunk cost) is a legitimate table.
        table = PricingTable(per_gpu_hourly={"T4-16GB": 0.0})
        assert table.gpu_price("T4-16GB") == 0.0
        assert table.pod_cost(parse_profile("4xT4-16GB")) == 0.0

    def test_empty_table_reports_no_priced_types(self):
        with pytest.raises(KeyError, match="priced types"):
            PricingTable().gpu_price("H100-80GB")

    def test_all_default_profiles_are_priced(self):
        # Every profile the recommender can emit must have a c(G).
        pricing = aws_like_pricing()
        for profile in default_profiles():
            assert pricing.pod_cost(profile) > 0
            assert pricing.pod_cost(profile) == pytest.approx(
                profile.count * pricing.gpu_price(profile.gpu.name)
            )
