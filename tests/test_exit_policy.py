"""Softmax, normalized entropy, and the dynamic-timestep exit rule."""

import numpy as np
import numpy.testing as npt
import pytest

from dtsnn.errors import DataFormatError, ShapeError
from dtsnn.exit_policy import (
    ExitPolicy,
    dynamic_infer,
    evaluate_policy,
    exit_times,
    normalized_entropy,
    scan_with_entropy,
    should_exit,
    softmax,
    summarize_policy,
    threshold_sweep,
    write_trace_csv,
)
from dtsnn.network import (
    LayerSpec,
    NetworkSpec,
    build_instance,
    static_forward,
)

from oracles import normalized_entropy_reference, softmax_reference

rng = np.random.default_rng(4242)


def make_net(seed=0, t_max=4, num_classes=4):
    spec = NetworkSpec(
        input_shape=(1, 8, 8),
        num_classes=num_classes,
        t_max=t_max,
        layers=(
            LayerSpec("conv", out_channels=4, kernel=3, stride=1, padding=1),
            LayerSpec("norm"),
            LayerSpec("lif"),
            LayerSpec("pool", window=2),
            LayerSpec("classifier"),
        ),
    )
    return build_instance(spec, seed=seed)


class TestSoftmax:
    def test_uniform_logits(self):
        npt.assert_allclose(softmax(np.zeros(4)), np.full(4, 0.25), rtol=1e-12)

    def test_shift_invariance(self):
        z = rng.standard_normal(6)
        npt.assert_allclose(softmax(z + 123.456), softmax(z), atol=1e-7)

    def test_hand_computed_triple(self):
        got = softmax(np.array([1.0, 2.0, 3.0]))
        npt.assert_allclose(got, [0.09003, 0.24473, 0.66524], atol=1e-5)
        npt.assert_allclose(got, softmax_reference([1.0, 2.0, 3.0]), atol=1e-12)

    def test_rows_sum_to_one(self):
        z = rng.standard_normal((50, 7)) * 20
        p = softmax(z)
        npt.assert_allclose(p.sum(axis=1), 1.0, atol=1e-6)

    def test_extreme_logits_stable(self):
        p = softmax(np.array([1000.0, 0.0, -1000.0]))
        assert np.isfinite(p).all() and abs(p.sum() - 1.0) < 1e-9


class TestNormalizedEntropy:
    @pytest.mark.parametrize("k", [2, 10, 100])
    def test_uniform_is_one(self, k):
        assert abs(normalized_entropy(np.full(k, 1.0 / k), k) - 1.0) < 1e-12

    def test_one_hot_is_zero(self):
        pi = np.zeros(5)
        pi[2] = 1.0
        assert normalized_entropy(pi, 5) == 0.0

    def test_skewed_vector_matches_scalar_oracle(self):
        pi = np.array([0.7, 0.1, 0.1, 0.1])
        expected = normalized_entropy_reference(pi)  # = 0.678389...
        npt.assert_allclose(normalized_entropy(pi, 4), expected, atol=1e-3)
        npt.assert_allclose(expected, 0.678389, atol=1e-6)

    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError, match="sum to 1"):
            normalized_entropy(np.array([0.5, 0.4]), 2)

    def test_rejects_wrong_length(self):
        with pytest.raises(ValueError, match="length"):
            normalized_entropy(np.array([0.5, 0.5]), 3)

    def test_range_and_uniform_maximum(self):
        for _ in range(200):
            k = int(rng.integers(2, 12))
            p = rng.dirichlet(np.ones(k) * rng.uniform(0.2, 5.0))
            e = normalized_entropy(p, k)
            assert 0.0 <= e <= 1.0 + 1e-12
            if abs(e - 1.0) < 1e-9:
                npt.assert_allclose(p, 1.0 / k, atol=1e-4)


class TestShouldExit:
    def test_below_threshold_exits(self):
        assert should_exit(0.4, ExitPolicy(theta=0.5, t_max=4))

    def test_tie_does_not_exit(self):
        assert not should_exit(0.5, ExitPolicy(theta=0.5, t_max=4))

    def test_theta_zero_never_exits(self):
        policy = ExitPolicy(theta=0.0, t_max=4)
        assert not any(should_exit(e, policy) for e in [0.0, 0.1, 0.5, 1.0])

    def test_policy_validation(self):
        with pytest.raises(ValueError, match="theta"):
            ExitPolicy(theta=1.2, t_max=4)
        with pytest.raises(ValueError, match="t_max"):
            ExitPolicy(theta=0.5, t_max=0)


class TestExitTimes:
    def test_first_qualifying_timestep(self):
        entropy = np.array([[0.8, 0.45, 0.2, 0.1]])
        assert exit_times(entropy, ExitPolicy(theta=0.5, t_max=4))[0] == 2

    def test_fallback_to_t_max(self):
        entropy = np.array([[0.8, 0.45, 0.2, 0.1]])
        assert exit_times(entropy, ExitPolicy(theta=0.05, t_max=4))[0] == 4

    def test_monotone_in_theta_per_sample(self):
        entropy = rng.uniform(0, 1, size=(300, 6))
        thetas = np.sort(rng.uniform(0, 1, size=12))
        prev = None
        for theta in thetas:
            t_hat = exit_times(entropy, ExitPolicy(theta=float(theta), t_max=6))
            assert ((t_hat >= 1) & (t_hat <= 6)).all()
            if prev is not None:
                assert (t_hat <= prev).all()
            prev = t_hat


class TestDynamicInfer:
    def test_theta_zero_matches_static_forward_bit_exact(self):
        net = make_net(seed=3)
        policy = ExitPolicy(theta=0.0, t_max=4)
        for _ in range(20):
            x = rng.standard_normal((1, 1, 8, 8)).astype(np.float32)
            trace = dynamic_infer(net, x, policy)
            ref = static_forward(net, x, 4)
            assert trace.chosen_t == 4
            npt.assert_array_equal(trace.mean_logits, ref[0])
            assert trace.prediction == int(np.argmax(ref[0]))

    def test_trace_length_equals_chosen_t(self):
        net = make_net(seed=5)
        for theta in (0.0, 0.3, 0.9, 1.0):
            x = rng.standard_normal((1, 1, 8, 8)).astype(np.float32)
            trace = dynamic_infer(net, x, ExitPolicy(theta=theta, t_max=4))
            assert len(trace.entropies) == trace.chosen_t
            assert 1 <= trace.chosen_t <= 4

    def test_accepts_unbatched_input(self):
        net = make_net(seed=5)
        x = rng.standard_normal((1, 8, 8)).astype(np.float32)
        trace = dynamic_infer(net, x, ExitPolicy(theta=0.5, t_max=4))
        assert trace.probabilities.shape == (4,)

    def test_confident_net_exits_immediately(self):
        net = make_net(seed=1)
        net.params[-1]["b"][:] = np.array([30.0, 0.0, 0.0, 0.0], dtype=np.float32)
        x = rng.standard_normal((1, 1, 8, 8)).astype(np.float32)
        trace = dynamic_infer(net, x, ExitPolicy(theta=0.5, t_max=4))
        assert trace.chosen_t == 1
        assert trace.prediction == 0

    def test_matches_batched_scan(self):
        net = make_net(seed=9)
        images = rng.standard_normal((10, 1, 8, 8)).astype(np.float32)
        scan = scan_with_entropy(net, images, 4, batch_size=10)
        for i in range(10):
            trace = dynamic_infer(net, images[i : i + 1], ExitPolicy(theta=0.0, t_max=4))
            npt.assert_allclose(trace.entropies, scan["entropy"][i], atol=1e-5)
            assert trace.prediction == scan["predictions"][i, trace.chosen_t - 1]


    def test_rejects_a_batch(self):
        net = make_net(seed=5)
        x = rng.standard_normal((3, 1, 8, 8)).astype(np.float32)
        with pytest.raises(ShapeError, match=r"\(3, 1, 8, 8\)"):
            dynamic_infer(net, x, ExitPolicy(theta=0.5, t_max=4))

    def test_rejects_non_finite_input(self):
        net = make_net(seed=5)
        x = np.full((1, 8, 8), np.nan, dtype=np.float32)
        with pytest.raises(DataFormatError, match="64 non-finite"):
            dynamic_infer(net, x, ExitPolicy(theta=0.5, t_max=4))


class TestEvaluatePolicy:
    def test_theta_zero_equals_static_accuracy(self):
        net = make_net(seed=7)
        images = rng.standard_normal((40, 1, 8, 8)).astype(np.float32)
        labels = rng.integers(0, 4, size=40)
        summary = evaluate_policy(net, images, labels, ExitPolicy(theta=0.0, t_max=4))
        assert summary.mean_t == 4.0
        static_logits = np.concatenate(
            [static_forward(net, images[i : i + 1], 4) for i in range(40)]
        )
        static_acc = float((static_logits.argmax(axis=1) == labels).mean())
        assert summary.accuracy == static_acc

    def test_histogram_partitions_dataset(self):
        net = make_net(seed=7)
        images = rng.standard_normal((25, 1, 8, 8)).astype(np.float32)
        labels = rng.integers(0, 4, size=25)
        for theta in (0.0, 0.5, 0.99):
            s = evaluate_policy(net, images, labels, ExitPolicy(theta=theta, t_max=4))
            assert s.histogram.sum() == 25
            assert ((s.chosen_t >= 1) & (s.chosen_t <= 4)).all()

    def test_empty_dataset_raises(self):
        net = make_net(seed=7)
        with pytest.raises(ValueError, match="non-empty"):
            evaluate_policy(
                net, np.zeros((0, 1, 8, 8), np.float32), np.zeros(0, int),
                ExitPolicy(theta=0.5, t_max=4),
            )


class TestScanWithEntropy:
    def test_rejects_non_finite_input(self):
        net = make_net(seed=5)
        images = rng.standard_normal((6, 1, 8, 8)).astype(np.float32)
        images[4, 0, 3, 3] = np.inf
        with pytest.raises(DataFormatError, match="1 non-finite"):
            scan_with_entropy(net, images, 4, batch_size=4)


class TestThresholdSweep:
    def test_grid_with_zero_reproduces_static_point(self):
        net = make_net(seed=2)
        images = rng.standard_normal((30, 1, 8, 8)).astype(np.float32)
        labels = rng.integers(0, 4, size=30)
        rows, scan = threshold_sweep(net, images, labels, [0.0, 0.5, 0.9], 4)
        assert rows[0]["mean_t"] == 4.0
        summary = summarize_policy(scan, labels, ExitPolicy(theta=0.0, t_max=4))
        assert rows[0]["accuracy"] == summary.accuracy

    def test_mean_t_non_increasing_in_theta(self):
        net = make_net(seed=2)
        images = rng.standard_normal((30, 1, 8, 8)).astype(np.float32)
        labels = rng.integers(0, 4, size=30)
        thetas = np.linspace(0, 1, 10)
        rows, _ = threshold_sweep(net, images, labels, list(thetas), 4)
        means = [r["mean_t"] for r in rows]
        assert all(a >= b for a, b in zip(means, means[1:]))

    def test_edp_column_is_energy_times_latency(self):
        net = make_net(seed=2)
        images = rng.standard_normal((12, 1, 8, 8)).astype(np.float32)
        labels = rng.integers(0, 4, size=12)

        def cost_fn(chosen_t, activity):
            energy = float(chosen_t.sum()) * 1.5
            latency = float(chosen_t.mean())
            return energy, latency, energy * latency

        rows, _ = threshold_sweep(net, images, labels, [0.0, 0.7], 4, cost_fn=cost_fn)
        for row in rows:
            assert row["edp"] == row["energy"] * row["latency"]

    def test_empty_grid_raises(self):
        net = make_net(seed=2)
        with pytest.raises(ValueError, match="theta"):
            threshold_sweep(net, np.zeros((1, 1, 8, 8), np.float32), [0], [], 4)


class TestTraceCsv(object):
    def test_rows_follow_schema(self, tmp_path):
        net = make_net(seed=8)
        images = rng.standard_normal((6, 1, 8, 8)).astype(np.float32)
        labels = rng.integers(0, 4, size=6)
        scan = scan_with_entropy(net, images, 4)
        policy = ExitPolicy(theta=0.6, t_max=4)
        path = tmp_path / "traces.csv"
        write_trace_csv(path, scan, labels, policy)
        lines = path.read_text().strip().splitlines()
        assert lines[0].startswith("sample_id,label,prediction,chosen_t,entropy_t1")
        t_hat = exit_times(scan["entropy"], policy)
        for i, line in enumerate(lines[1:]):
            fields = line.split(",")
            assert int(fields[3]) == t_hat[i]
            assert len(fields) == 4 + t_hat[i]  # entropy list length == chosen_t
