"""Crossbar mapping, the energy/latency/EDP model, and device variation."""

import dataclasses
from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dtsnn.config import parse_config
from dtsnn.errors import ConfigError, ShapeError
from dtsnn.hardware import (
    ArchConfig,
    CostReport,
    apply_device_variation,
    LayerMapping,
    calibrate_energy_coefficients,
    component_energy_matrix,
    cost_of_inference,
    dataset_cost_fn,
    energy_per_timestep,
    inference_costs,
    load_reference_trace,
    map_layer,
    map_network,
    perturbed_instance,
    reference_mapping,
)
from dtsnn.network import LayerSpec, NetworkSpec, build_instance, scan_timesteps

from oracles import (
    component_energy_matrix_reference,
    cost_of_inference_reference,
    crossbar_mapping_reference,
    energy_reference,
    inference_costs_reference,
)

rng = np.random.default_rng(1234)


def small_spec():
    return NetworkSpec(
        input_shape=(1, 8, 8),
        num_classes=4,
        t_max=4,
        layers=(
            LayerSpec("conv", out_channels=4, kernel=3, stride=1, padding=1),
            LayerSpec("lif"),
            LayerSpec("pool", window=2),
            LayerSpec("classifier"),
        ),
    )


def constant_run_costs(chosen_t, arch, dynamic=True, t_max=8):
    """inference_costs of len(chosen_t) samples that each present [13, 5]
    spikes to small_spec()'s two mapped layers at every one of t_max steps."""
    activity = np.tile([13.0, 5.0], (len(chosen_t), t_max, 1))
    steps = component_energy_matrix(activity, map_network(small_spec(), arch), arch)
    return inference_costs(steps, chosen_t, arch, dynamic)


class TestMapping:
    def test_fc_128_to_10(self):
        arch = ArchConfig()
        m = map_layer(0, "fc", 128, 10, arch)
        assert m.bit_slices == 2
        assert m.row_blocks == 2
        assert m.col_blocks == 1  # ceil(20 / 64)
        assert m.crossbar_count == 2
        assert m.tile_count == 1

    def test_fc_64_to_32_fits_one_crossbar(self):
        m = map_layer(0, "fc", 64, 32, ArchConfig())
        assert m.cols_needed == 64
        assert m.crossbar_count == 1

    def test_conv_3_to_16(self):
        m = map_layer(0, "conv", 27, 16, ArchConfig())
        assert m.crossbar_count == 1

    def test_zero_size_layer_rejected(self):
        with pytest.raises(ShapeError, match="zero-size"):
            map_layer(0, "fc", 0, 10, ArchConfig())

    def test_against_ceiling_oracle_on_random_layers(self):
        arch = ArchConfig()
        for _ in range(100):
            fan_in = int(rng.integers(1, 5000))
            fan_out = int(rng.integers(1, 2000))
            m = map_layer(0, "fc", fan_in, fan_out, arch)
            slices, rows, cols, xbars, tiles = crossbar_mapping_reference(
                fan_in, fan_out, arch.weight_bits, arch.device_bits,
                arch.crossbar_size, arch.crossbars_per_tile,
            )
            assert (m.bit_slices, m.row_blocks, m.col_blocks) == (slices, rows, cols)
            assert m.crossbar_count == xbars
            assert m.tile_count == tiles

    def test_map_network_covers_weighted_layers(self):
        mapping = map_network(small_spec(), ArchConfig())
        assert [l.kind for l in mapping.layers] == ["conv", "classifier"]
        assert mapping.layers[0].fan_in == 9  # 1 channel * 3 * 3
        assert mapping.layers[1].fan_in == 4 * 4 * 4

    @pytest.mark.parametrize("spec", [
        parse_config(Path(__file__).resolve().parents[1] / "configs" / "mnist.yaml").network,
        NetworkSpec(
            input_shape=(3, 12, 12),
            num_classes=5,
            t_max=2,
            layers=(
                LayerSpec("conv", out_channels=6, kernel=5, padding=2),
                LayerSpec("lif"),
                LayerSpec("conv", out_channels=4, stride=2, bias=True),
                LayerSpec("lif"),
                LayerSpec("fc", out_features=7),
                LayerSpec("lif"),
                LayerSpec("classifier"),
            ),
        ),
    ], ids=["mnist", "fc_bias_stride2_k5"])
    def test_mapping_matches_weight_matrices(self, spec):
        net = build_instance(spec)
        mapping = map_network(spec, ArchConfig())
        weights = [p["w"] for p in net.params if p is not None and "w" in p]
        assert [(l.fan_in, l.fan_out) for l in mapping.layers] == [
            (int(np.prod(w.shape[1:])), w.shape[0]) for w in weights
        ]
        assert [l.index for l in mapping.layers] == [
            i for i, p in enumerate(net.params) if p is not None and "w" in p
        ]

    def test_weight_bits_must_divide(self):
        with pytest.raises(ConfigError, match="divisible"):
            ArchConfig(device_bits=3)


class TestEnergy:
    def test_zero_activity_fixed_terms_only(self):
        arch = ArchConfig()
        mapping = map_network(small_spec(), arch)
        total, comps = energy_per_timestep(mapping, [0, 0], arch)
        assert total > 0
        assert comps["crossbar_adc"] == 0.0
        npt.assert_allclose(total, comps["digital"] + comps["buffer_interconnect"])

    def test_doubling_activity_doubles_activity_component(self):
        arch = ArchConfig()
        mapping = map_network(small_spec(), arch)
        _, c1 = energy_per_timestep(mapping, [100, 7], arch)
        _, c2 = energy_per_timestep(mapping, [200, 14], arch)
        npt.assert_allclose(c2["crossbar_adc"], 2.0 * c1["crossbar_adc"], rtol=1e-12)
        assert c2["digital"] == c1["digital"]

    def test_activity_length_checked(self):
        arch = ArchConfig()
        mapping = map_network(small_spec(), arch)
        with pytest.raises(ValueError, match="entries"):
            energy_per_timestep(mapping, [1.0], arch)

    def test_energy_matrix_matches_scalar_path(self):
        arch = ArchConfig()
        mapping = map_network(small_spec(), arch)
        activity = rng.integers(0, 50, size=(5, 3, 2)).astype(float)
        mat = component_energy_matrix(activity, mapping, arch)["total"]
        for i in range(5):
            for t in range(3):
                e, _ = energy_per_timestep(mapping, activity[i, t], arch)
                npt.assert_allclose(mat[i, t], e, rtol=1e-12)

    def test_constant_activity_is_exactly_linear_in_t(self):
        arch = ArchConfig()
        mapping = map_network(small_spec(), arch)
        e1, _ = energy_per_timestep(mapping, [13, 5], arch)
        rows = [[13, 5]] * 6
        report = cost_of_inference(rows, mapping, arch, dynamic=False)
        npt.assert_allclose(report.total_energy, 6 * e1, rtol=1e-12)


class TestLatency:
    def test_single_step(self):
        arch = ArchConfig(latency_per_timestep=2.5)
        assert constant_run_costs([1], arch)["latency"][0] == 2.5

    def test_eight_steps_exactly_eightfold(self):
        lat = constant_run_costs([1, 8], ArchConfig())["latency"]
        assert lat[1] == 8 * lat[0]

    def test_additive(self):
        lat = constant_run_costs([3, 4, 7], ArchConfig(latency_per_timestep=1.7))["latency"]
        npt.assert_allclose(lat[0] + lat[1], lat[2])

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            constant_run_costs([0], ArchConfig())


class TestSigmaE:
    """The exit module: sigma_e_ratio (2e-5) of the first step's energy per
    executed timestep, none on a static run."""

    def test_zero_invocations(self):
        assert constant_run_costs([3], ArchConfig(), dynamic=False)["sigma_e"][0] == 0.0

    def test_single_invocation_ratio(self):
        costs = constant_run_costs([1], ArchConfig())
        e1 = costs["energy"][0] - costs["sigma_e"][0]
        npt.assert_allclose(costs["sigma_e"][0], 2e-5 * e1, rtol=1e-12)

    def test_linear_in_invocations(self):
        costs = constant_run_costs([1, 4], ArchConfig())
        e1 = costs["energy"][0] - costs["sigma_e"][0]
        npt.assert_allclose(costs["sigma_e"][1], 8e-5 * e1, rtol=1e-12)

    def test_negative_invocations_rejected(self):
        with pytest.raises(ValueError):
            constant_run_costs([-1], ArchConfig())


class TestEdp:
    def test_product(self):
        arch = ArchConfig()
        activity = rng.integers(0, 50, size=(5, 4, 2)).astype(float)
        mean_e, mean_l, product = dataset_cost_fn(map_network(small_spec(), arch), arch)(
            np.array([1, 4, 2, 3, 4]), activity
        )
        assert product == mean_e * mean_l

    def test_zero_energy(self):
        free = {k: 0.0 for k in ("e_mac", "e_adc", "e_crossbar_digital", "e_crossbar_buffer",
                                 "e_step_digital", "e_step_buffer")}
        report = cost_of_inference([[64, 10], [30, 8]], map_network(small_spec(), ArchConfig()),
                                   ArchConfig(**free))
        assert report.total_energy == 0.0 and report.edp == 0.0
        assert report.total_latency == 2.0


class TestCostReport:
    def make_report(self):
        arch = ArchConfig()
        mapping = map_network(small_spec(), arch)
        rows = [[64, 10], [30, 8], [20, 6]]
        return cost_of_inference(rows, mapping, arch), mapping, arch

    def test_total_is_sum_of_steps_plus_overhead(self):
        report, _, _ = self.make_report()
        npt.assert_allclose(
            report.total_energy,
            sum(report.per_timestep_energy) + report.components["sigma_e"],
            rtol=1e-12,
        )

    def test_edp_invariant(self):
        report, _, _ = self.make_report()
        npt.assert_allclose(report.edp, report.total_energy * report.total_latency, rtol=1e-12)

    def test_single_timestep_composition(self):
        arch = ArchConfig()
        mapping = map_network(small_spec(), arch)
        report = cost_of_inference([[64, 10]], mapping, arch)
        e1, _ = energy_per_timestep(mapping, [64, 10], arch)
        npt.assert_allclose(report.total_energy, e1 + arch.sigma_e_ratio * e1, rtol=1e-12)
        assert report.total_latency == arch.latency_per_timestep

    def test_missing_activity_rejected(self):
        arch = ArchConfig()
        mapping = map_network(small_spec(), arch)
        with pytest.raises(ValueError, match="at least one timestep"):
            cost_of_inference([], mapping, arch)

    @pytest.mark.parametrize("rows", [
        [64.0, 10.0],          # a flat (L,) row
        [[[64.0, 10.0]]],      # (1, 1, L)
        [[]],                  # (1, 0)
        [[64.0, 10.0, 3.0]],   # a row of three layers
    ])
    def test_activity_of_another_shape_rejected(self, rows):
        arch = ArchConfig()
        mapping = map_network(small_spec(), arch)
        with pytest.raises(ValueError, match=r"shape \(t, 2\)"):
            cost_of_inference(rows, mapping, arch)

    @pytest.mark.parametrize("bad", [np.nan, -1.0, np.inf])
    def test_a_nan_negative_or_infinite_count_rejected(self, bad):
        arch = ArchConfig()
        mapping = map_network(small_spec(), arch)
        rows = [[64.0, 10.0], [30.0, bad]]
        with pytest.raises(ValueError, match=rf"got {bad} at timestep 2, layer 1"):
            cost_of_inference(rows, mapping, arch)

    def test_energy_ratio_bounded_by_timesteps(self):
        arch = ArchConfig()
        mapping = map_network(small_spec(), arch)
        for _ in range(20):
            t_used = int(rng.integers(2, 8))
            rows = rng.integers(0, 80, size=(t_used, 2)).astype(float)
            report = cost_of_inference(rows, mapping, arch, dynamic=False)
            e1 = report.per_timestep_energy[0]
            assert 1.0 <= report.total_energy / e1 <= t_used * max(
                report.per_timestep_energy
            ) / e1 + 1e-9


class TestCalibration:
    def test_default_coefficients_hit_anchor_ratios(self):
        arch = ArchConfig()
        trace = load_reference_trace()
        mapping = reference_mapping(trace, arch)
        spikes = np.asarray(trace["spikes"])
        energies = []
        comps4 = {"crossbar_adc": 0.0, "digital": 0.0, "buffer_interconnect": 0.0}
        for t in range(8):
            e, c = energy_per_timestep(mapping, spikes[t], arch)
            energies.append(e)
            if t < 4:
                for k in comps4:
                    comps4[k] += c[k]
        ratio = sum(energies) / energies[0]
        assert abs(ratio - 4.9) / 4.9 < 0.05
        total4 = sum(comps4.values())
        assert abs(comps4["digital"] / total4 - 0.45) < 0.03
        assert abs(comps4["crossbar_adc"] / total4 - 0.25) < 0.03
        npt.assert_allclose(energies[0], 1.0, rtol=1e-9)  # normalized units

    def test_recalibration_reproduces_defaults(self):
        arch = ArchConfig()
        coeffs = calibrate_energy_coefficients(load_reference_trace(), arch)
        for name, value in coeffs.items():
            npt.assert_allclose(value, getattr(arch, name), rtol=1e-9)

    def test_latency_anchor(self):
        lat = constant_run_costs([1, 8], ArchConfig())["latency"]
        assert lat[1] / lat[0] == 8.0


class TestDeviceVariation:
    def test_zero_sigma_is_bit_exact(self):
        w = rng.standard_normal((8, 8)).astype(np.float32)
        out = apply_device_variation(w, 0.0, seed=3)
        npt.assert_array_equal(out, w)
        assert out is not w

    def test_same_seed_same_perturbation(self):
        w = rng.standard_normal((16, 4)).astype(np.float32)
        a = apply_device_variation(w, 0.2, seed=11)
        b = apply_device_variation(w, 0.2, seed=11)
        npt.assert_array_equal(a, b)

    def test_empirical_std_matches_sigma(self):
        w = np.ones(1_000_000, dtype=np.float64)
        out = apply_device_variation(w, 0.2, seed=0)
        eps = out - 1.0
        assert abs(eps.std() - 0.2) / 0.2 < 0.02
        assert abs(eps.mean()) < 1e-3

    def test_list_structure_preserved(self):
        ws = [rng.standard_normal((3, 3)), rng.standard_normal(5)]
        out = apply_device_variation(ws, 0.1, seed=1)
        assert isinstance(out, list) and len(out) == 2
        assert out[0].shape == (3, 3) and out[1].shape == (5,)

    @pytest.mark.parametrize("sigma", [-0.1, np.inf, np.nan])
    def test_non_finite_or_negative_sigma_rejected(self, sigma):
        with pytest.raises(ValueError, match="finite"):
            apply_device_variation(np.ones(4), sigma, seed=0)

    def test_perturbed_instance_keeps_norm_and_bias(self):
        net = build_instance(small_spec(), seed=0)
        noisy = perturbed_instance(net, 0.2, seed=5)
        assert not np.array_equal(noisy.params[0]["w"], net.params[0]["w"])
        npt.assert_array_equal(noisy.params[-1]["b"], net.params[-1]["b"])
        x = rng.standard_normal((2, 1, 8, 8)).astype(np.float32)
        a = scan_timesteps(net, x, 2)["mean_logits"][:, 1]
        b = scan_timesteps(noisy, x, 2)["mean_logits"][:, 1]
        assert a.shape == b.shape  # both instances remain functional


class TestDatasetCost:
    def test_sweep_cost_fn_matches_per_sample_reports(self):
        arch = ArchConfig()
        mapping = map_network(small_spec(), arch)
        activity = rng.integers(1, 50, size=(6, 4, 2)).astype(float)
        chosen = np.array([1, 2, 4, 3, 1, 2])
        cost = dataset_cost_fn(mapping, arch)
        mean_e, mean_l, product = cost(chosen, activity)
        reports = [
            cost_of_inference(activity[i, : chosen[i]], mapping, arch)
            for i in range(6)
        ]
        npt.assert_allclose(mean_e, np.mean([r.total_energy for r in reports]), rtol=1e-12)
        npt.assert_allclose(mean_l, np.mean([r.total_latency for r in reports]), rtol=1e-12)
        npt.assert_allclose(product, mean_e * mean_l, rtol=1e-12)

    @pytest.mark.parametrize("chosen", [[9, 9], [0, 0], [2], [2.5, 2.5]],
                             ids=["beyond_t_max", "zero_steps", "not_one_per_sample",
                                  "fractional_steps"])
    def test_impossible_exit_times_rejected(self, chosen):
        # Two samples over 4 steps: a run has 1..4 steps and each sample its own.
        arch = ArchConfig()
        activity = rng.integers(1, 50, size=(2, 4, 2)).astype(float)
        with pytest.raises(ValueError, match="chosen_t"):
            dataset_cost_fn(map_network(small_spec(), arch), arch)(np.array(chosen), activity)

    @pytest.mark.parametrize("chosen", [
        np.array([1, 0], np.uint8),
        np.array([1, -1], np.int8),
        np.array([1, 5], np.int64),
        np.array([1, np.iinfo(np.int64).min], np.int64),
        np.array([1, np.iinfo(np.int64).max], np.int64),
        np.array([1, 2**64 - 1], np.uint64),
        np.array([1, 2**63], np.uint64),
        np.array([True, True]),
    ])
    def test_counts_outside_one_to_t_of_any_integer_type_rejected(self, chosen):
        # Four steps: of each pair the second count lies outside [1, 4],
        # at either end of the range of its dtype.
        arch = ArchConfig()
        steps = component_energy_matrix(np.ones((2, 4, 2)), map_network(small_spec(), arch), arch)
        with pytest.raises(ValueError, match=r"chosen_t must hold \(2,\) integers in \[1, 4\]"):
            inference_costs(steps, chosen, arch)


def bits(value):
    """value with every float as its hex string and every array as its
    dtype, shape and bytes, so == compares bit for bit."""
    if isinstance(value, dict):
        return [(k, bits(v)) for k, v in value.items()]
    if isinstance(value, (tuple, list)):
        return [bits(v) for v in value]
    if isinstance(value, np.ndarray):
        return value.dtype.str, value.shape, value.tobytes()
    assert type(value) is float, type(value)
    return value.hex()


@st.composite
def pricing_cases(draw):
    """(arch, mapping, activity (N, T, L), chosen_t (N,)) with random
    geometry and coefficients, integer counts or fractional means, and
    chosen_t of a random integer dtype."""
    unit = st.floats(1e-9, 1.0)
    arch = ArchConfig(
        crossbar_size=draw(st.sampled_from([16, 32, 64, 128])),
        device_bits=draw(st.sampled_from([1, 2, 4, 8])),
        e_mac=draw(unit) * 1e-6,
        e_adc=draw(unit) * 1e-5,
        e_crossbar_digital=draw(unit) * 1e-3,
        e_crossbar_buffer=draw(unit) * 1e-3,
        e_step_digital=draw(unit),
        e_step_buffer=draw(unit),
        sigma_e_ratio=draw(st.sampled_from([0.0, 2e-5])) + draw(unit) * 1e-3,
        latency_per_timestep=draw(st.floats(0.01, 10.0)),
    )
    fans = draw(st.lists(st.tuples(st.integers(1, 5000), st.integers(1, 600)),
                         min_size=1, max_size=9))
    mapping = LayerMapping(layers=tuple(
        map_layer(i, "fc", fan_in, fan_out, arch) for i, (fan_in, fan_out) in enumerate(fans)
    ))
    n, t_max = draw(st.integers(1, 6)), draw(st.integers(1, 12))
    gen = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shape = (n, t_max, len(mapping.layers))
    if draw(st.booleans()):
        activity = gen.integers(0, 5000, size=shape).astype(np.float64)
    else:
        activity = gen.uniform(0.0, draw(st.floats(1e-3, 1e4)), size=shape)
    dtype = draw(st.sampled_from([np.int64, np.int32, np.int8, np.uint8, np.uint64]))
    chosen_t = gen.integers(1, t_max + 1, size=n).astype(dtype)
    return arch, mapping, activity, chosen_t


class TestPricingIsTheReferenceBitForBit:
    """Every pricing route equals the first numpy version of the rule,
    `oracles.component_energy_matrix_reference` and
    `oracles.inference_costs_reference`, bit for bit: a rewrite that
    reordered a sum would change the last bits of some energy."""

    @settings(max_examples=200, deadline=None)
    @given(pricing_cases(), st.booleans())
    def test_every_array_and_report_field_equals_the_reference(self, case, dynamic):
        arch, mapping, activity, chosen_t = case
        steps = component_energy_matrix(activity, mapping, arch)
        ref_steps = component_energy_matrix_reference(activity, mapping, arch)
        assert bits(steps) == bits(ref_steps)
        costs = inference_costs(steps, chosen_t, arch, dynamic)
        ref_costs = inference_costs_reference(ref_steps, chosen_t, arch, dynamic)
        assert bits(costs) == bits(ref_costs)
        mean_e = float(ref_costs["energy"].mean())
        mean_l = float(ref_costs["latency"].mean())
        assert bits(dataset_cost_fn(mapping, arch, dynamic)(chosen_t, activity)) == bits(
            (mean_e, mean_l, mean_e * mean_l))
        for sample, t in zip(activity, chosen_t):
            report = cost_of_inference(sample[:t], mapping, arch, dynamic)
            ref = cost_of_inference_reference(sample[:t], mapping, arch, dynamic)
            assert bits(dataclasses.asdict(report)) == bits(ref)
        for row in activity[0]:
            total, comps = energy_per_timestep(mapping, row, arch)
            ref = component_energy_matrix_reference(row, mapping, arch)
            assert bits([total, comps]) == bits(
                [float(ref.pop("total")), {k: float(v) for k, v in ref.items()}])


class TestEnergyOracle:
    """Every pricing route against the per-layer loop of the module formula."""

    def random_case(self):
        arch = ArchConfig(
            crossbar_size=int(rng.choice([16, 32, 64, 128])),
            device_bits=int(rng.choice([1, 2, 4])),
            e_mac=float(rng.uniform(1e-9, 1e-6)),
            e_adc=float(rng.uniform(1e-8, 1e-5)),
            e_crossbar_digital=float(rng.uniform(1e-6, 1e-3)),
            e_crossbar_buffer=float(rng.uniform(1e-6, 1e-3)),
            e_step_digital=float(rng.uniform(0.01, 0.2)),
            e_step_buffer=float(rng.uniform(0.01, 0.2)),
            sigma_e_ratio=float(rng.uniform(0.0, 1e-3)),
            latency_per_timestep=float(rng.uniform(0.5, 2.0)),
        )
        mapping = LayerMapping(layers=tuple(
            map_layer(i, "fc", int(rng.integers(1, 3000)), int(rng.integers(1, 500)), arch)
            for i in range(int(rng.integers(1, 7)))
        ))
        n, t_max = int(rng.integers(1, 9)), int(rng.integers(1, 9))
        activity = rng.integers(0, 3000, size=(n, t_max, len(mapping.layers))).astype(float)
        return arch, mapping, activity

    def test_all_routes_match_reference(self):
        for _ in range(25):
            arch, mapping, activity = self.random_case()
            n, t_max, _ = activity.shape
            ref = np.array([[energy_reference(row, mapping, arch) for row in sample]
                            for sample in activity])
            comps = component_energy_matrix(activity, mapping, arch)
            npt.assert_allclose(comps["total"], ref, rtol=1e-12)
            npt.assert_allclose(
                comps["crossbar_adc"] + comps["digital"] + comps["buffer_interconnect"],
                ref, rtol=1e-12,
            )
            for row, e in zip(activity[0], ref[0]):
                npt.assert_allclose(energy_per_timestep(mapping, row, arch)[0], e, rtol=1e-12)

            chosen = rng.integers(1, t_max + 1, size=n)
            static = np.array([ref[i, : chosen[i]].sum() for i in range(n)])
            sigma = arch.sigma_e_ratio * ref[:, 0] * chosen
            for i in range(n):
                rows = activity[i, : chosen[i]]
                report = cost_of_inference(rows, mapping, arch, dynamic=False)
                npt.assert_allclose(report.total_energy, static[i], rtol=1e-12)
                report = cost_of_inference(rows, mapping, arch)
                npt.assert_allclose(report.total_energy, static[i] + sigma[i], rtol=1e-12)

            lat = (chosen * arch.latency_per_timestep).mean()
            for dynamic, energies in ((False, static), (True, static + sigma)):
                mean_e, mean_l, product = dataset_cost_fn(mapping, arch, dynamic)(
                    chosen, activity
                )
                npt.assert_allclose(mean_e, energies.mean(), rtol=1e-12)
                npt.assert_allclose(mean_l, lat, rtol=1e-12)
                npt.assert_allclose(product, energies.mean() * lat, rtol=1e-12)

    def test_inference_costs_match_reference(self):
        for _ in range(25):
            arch, mapping, activity = self.random_case()
            n, t_max, _ = activity.shape
            chosen = rng.integers(1, t_max + 1, size=n)
            steps = component_energy_matrix(activity, mapping, arch)
            for dynamic in (False, True):
                costs = inference_costs(steps, chosen, arch, dynamic)
                for i in range(n):
                    executed = [energy_reference(row, mapping, arch)
                                for row in activity[i, : chosen[i]]]
                    sigma = dynamic * arch.sigma_e_ratio * executed[0] * chosen[i]
                    npt.assert_allclose(costs["sigma_e"][i], sigma, rtol=1e-12)
                    npt.assert_allclose(costs["energy"][i], sum(executed) + sigma, rtol=1e-12)
                    parts = sum(costs[k][i] for k in (
                        "crossbar_adc", "digital", "buffer_interconnect", "sigma_e"))
                    npt.assert_allclose(parts, costs["energy"][i], rtol=1e-12)
                    assert costs["latency"][i] == chosen[i] * arch.latency_per_timestep
