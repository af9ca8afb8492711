"""Unit tests for Table 1 model configs and the FLOPs cost model."""
import numpy as np
import pytest

from repro.sim import models as M


class TestConfigs:
    def test_table1_encoders(self):
        assert M.ENCODERS["vit-1b"].layers == 39
        assert M.ENCODERS["vit-1b"].hidden == 1408
        assert M.ENCODERS["vit-2b"].layers == 48
        assert M.ENCODERS["vit-2b"].hidden == 1664

    def test_table1_backbones(self):
        assert M.BACKBONES["llama-12b"].layers == 45
        assert M.BACKBONES["llama-12b"].heads == 36
        assert M.BACKBONES["tmoe-25b"].topk == 2
        assert M.BACKBONES["mixtral-8x7b"].hidden == 4096

    def test_moe_flag(self):
        assert not M.BACKBONES["llama-12b"].is_moe
        assert M.BACKBONES["mixtral-8x7b"].is_moe

    def test_moe_linear_cost_higher_per_layer_hidden(self):
        dense = M.ModelConfig("d", layers=10, heads=8, hidden=1024)
        moe = M.ModelConfig("m", layers=10, heads=8, hidden=1024, topk=2)
        assert M.linear_coeff(moe) > M.linear_coeff(dense)


class TestBackboneFlops:
    """Properties of the backbone cost the planner balances: a packed
    sequence costs the sum of its samples' costs (segment masks)."""

    def test_quadratic_in_length(self):
        cfg = M.BACKBONES["llama-12b"]
        f1, f2 = M.sample_backbone_cost(cfg, np.array([1000, 2000]), np.zeros(2))
        # doubling one subsequence more than doubles cost (quadratic term)
        assert f2 > 2 * f1

    def test_segmented_vs_monolithic(self):
        cfg = M.BACKBONES["llama-12b"]
        packed = M.sample_backbone_cost(cfg, np.array([50, 50]), np.zeros(2)).sum()
        mono = M.sample_backbone_cost(cfg, np.array([100]), np.zeros(1)).sum()
        assert packed < mono  # segment masks cut attention cost

    def test_paper_30_70_example(self):
        # §1: (30,70) costs 16% more attention than (50,50)
        cfg = M.BACKBONES["llama-12b"]
        att = M.attention_coeff(cfg)
        unbal = att * (30**2 + 70**2)
        bal = att * (50**2 + 50**2)
        assert unbal / bal == pytest.approx(1.16)

    def test_empty(self):
        cfg = M.BACKBONES["llama-12b"]
        assert M.sample_backbone_cost(cfg, np.array([]), np.array([])).sum() == 0.0


class TestEncoderFlops:
    def test_monotone_in_patches(self):
        small, large = M.sample_encoder_cost(M.ENCODERS["vit-1b"], np.array([256, 1024]))
        assert small < large

    def test_vit2b_costs_more(self):
        p = np.array([256, 256])
        assert (
            M.sample_encoder_cost(M.ENCODERS["vit-2b"], p).sum()
            > M.sample_encoder_cost(M.ENCODERS["vit-1b"], p).sum()
        )

    def test_per_image_attention(self):
        cfg = M.ENCODERS["vit-1b"]
        two = M.sample_encoder_cost(cfg, np.array([100, 100])).sum()
        one = M.sample_encoder_cost(cfg, np.array([200])).sum()
        assert two < one


class TestSampleCosts:
    def test_backbone_cost_fuses_modalities(self):
        cfg = M.BACKBONES["llama-12b"]
        c = M.sample_backbone_cost(cfg, np.array([10]), np.array([20]))
        expected = M.linear_coeff(cfg) * 30 + M.attention_coeff(cfg) * 900
        assert c[0] == pytest.approx(expected)

    def test_encoder_cost_vectorised(self):
        cfg = M.ENCODERS["vit-1b"]
        c = M.sample_encoder_cost(cfg, np.array([16, 32, 64]))
        assert c.shape == (3,)
        assert (np.diff(c) > 0).all()

    def test_costs_nonnegative(self):
        cfg = M.BACKBONES["tmoe-25b"]
        c = M.sample_backbone_cost(cfg, np.zeros(5), np.zeros(5))
        assert (c >= 0).all()
