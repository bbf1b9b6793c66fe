"""Softmax, normalized entropy, and the dynamic-timestep exit rule."""

import warnings

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dtsnn import exit_policy, kernels, network
from dtsnn.checkpoint import instance_from_checkpoint, load_checkpoint
from dtsnn.config import DEFAULT_THETA_GRID, parse_config
from dtsnn.datasets import synth_dataset
from dtsnn.errors import DataFormatError, ShapeError
from dtsnn.exit_policy import (
    ExitPolicy,
    dynamic_infer,
    exit_times,
    normalized_entropy,
    scan_with_entropy,
    softmax,
    summarize_policy,
    threshold_sweep,
    write_trace_csv,
)
from dtsnn.network import (
    LayerSpec,
    NetworkSpec,
    build_instance,
    forward_timestep,
    reset_states,
    scan_timesteps,
)

from conftest import BENCH_CKPT, INPUT_FORMS, input_form
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

    @pytest.mark.parametrize("pi", [
        [np.nan, 1.0],   # sums to NaN, which no tolerance check rejects
        [1.5, -0.5],     # sums to 1 but lies outside [0, 1]
        [0.5, np.nan],
        [-0.0, 1.0 + 1e-5, 0.0],  # within the sum tolerance, above 1
    ])
    def test_rejects_entries_outside_the_unit_interval(self, pi):
        with pytest.raises(ValueError, match=r"in \[0, 1\]"):
            normalized_entropy(np.array(pi), len(pi))

    def test_range_and_uniform_maximum(self):
        for _ in range(200):
            k = int(rng.integers(2, 12))
            p = rng.dirichlet(np.ones(k) * rng.uniform(0.2, 5.0))
            e = normalized_entropy(p, k)
            assert 0.0 <= e <= 1.0 + 1e-12
            if abs(e - 1.0) < 1e-9:
                npt.assert_allclose(p, 1.0 / k, atol=1e-4)


# (theta, entropy after each of 4 timesteps, chosen_t): exit at the first
# entropy strictly below theta, else at t_max; theta 0 never exits.
EXIT_CASES = [
    (0.5, [0.4, 0.9, 0.9, 0.9], 1),  # below the threshold exits
    (0.5, [0.5, 0.5, 0.5, 0.5], 4),  # a tie does not exit
    (0.5, [0.5, 0.49, 0.1, 0.1], 2),
    (0.0, [0.0, 0.0, 0.0, 0.0], 4),  # theta 0 never exits
]


class TestExitRule:
    @pytest.mark.parametrize("theta, entropies, chosen_t", EXIT_CASES)
    def test_exit_times(self, theta, entropies, chosen_t):
        policy = ExitPolicy(theta=theta, t_max=4)
        assert exit_times(np.array([entropies]), policy).tolist() == [chosen_t]

    @pytest.mark.parametrize("theta, entropies, chosen_t", EXIT_CASES)
    def test_dynamic_infer(self, theta, entropies, chosen_t, monkeypatch):
        steps = iter(entropies)
        monkeypatch.setattr(exit_policy, "_entropy_rows", lambda probs: np.array([next(steps)]))
        x = rng.standard_normal((1, 1, 8, 8)).astype(np.float32)
        trace = dynamic_infer(make_net(seed=5), x, ExitPolicy(theta=theta, t_max=4))
        assert trace.chosen_t == chosen_t
        assert trace.entropies == entropies[:chosen_t]

    def test_entropy_is_taken_on_the_running_mean(self):
        net = make_net(seed=5)
        x = rng.standard_normal((1, 1, 8, 8)).astype(np.float32)
        trace = dynamic_infer(net, x, ExitPolicy(theta=0.0, t_max=4))
        reset_states(net)
        logits = np.array([forward_timestep(net, x)[0] for _ in range(4)], dtype=np.float64)
        means = np.cumsum(logits, axis=0) / np.arange(1, 5)[:, None]

        def entropies(rows):
            return [normalized_entropy_reference(softmax_reference(r)) for r in rows]

        npt.assert_allclose(trace.entropies, entropies(means), rtol=1e-5, atol=1e-6)
        assert not np.allclose(trace.entropies, entropies(logits), rtol=1e-5, atol=1e-6)

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

    def test_policy_beyond_scan_rejected(self, tmp_path):
        scan = {"entropy": rng.uniform(0, 1, size=(5, 4)),
                "predictions": rng.integers(0, 4, size=(5, 4))}
        labels = np.zeros(5, dtype=int)
        policy = ExitPolicy(theta=0.5, t_max=6)
        with pytest.raises(ValueError, match=r"t_max=6 .* 4 timesteps"):
            exit_times(scan["entropy"], policy)
        with pytest.raises(ValueError, match=r"t_max=6 .* 4 timesteps"):
            summarize_policy(scan, labels, policy)
        path = tmp_path / "traces.csv"
        with pytest.raises(ValueError, match=r"t_max=6 .* 4 timesteps"):
            write_trace_csv(path, scan, labels, policy)
        assert not path.exists()


class TestDynamicInfer:
    def test_theta_zero_matches_a_one_row_scan_bit_exact(self):
        net = make_net(seed=3)
        policy = ExitPolicy(theta=0.0, t_max=4)
        for _ in range(20):
            x = rng.standard_normal((1, 1, 8, 8)).astype(np.float32)
            trace = dynamic_infer(net, x, policy)
            ref = scan_timesteps(net, x, 4)["mean_logits"][0, 3]
            assert trace.chosen_t == 4
            npt.assert_array_equal(trace.mean_logits, ref)
            assert trace.prediction == int(np.argmax(ref))

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

    @pytest.mark.parametrize("form", INPUT_FORMS)
    def test_input_is_taken_as_an_array_of_real_numbers(self, form):
        net = make_net(seed=5)
        policy = ExitPolicy(theta=0.5, t_max=4)
        x = input_form(rng.standard_normal((1, 1, 8, 8)).astype(np.float32), form)
        if form != "list":
            with pytest.raises(DataFormatError):
                dynamic_infer(net, x, policy)
            return
        got, want = dynamic_infer(net, x, policy), dynamic_infer(net, np.asarray(x), policy)
        assert got.chosen_t == want.chosen_t
        npt.assert_array_equal(got.mean_logits, want.mean_logits)

    def test_rejects_policy_beyond_network_t_max(self):
        # theta 1.0 exits at t=1 on any input, so the check must come first.
        net = make_net(seed=5, t_max=4)
        x = rng.standard_normal((1, 1, 8, 8)).astype(np.float32)
        for theta in (0.0, 1.0):
            with pytest.raises(ValueError, match=r"t_max=6 .* t_max=4"):
                dynamic_infer(net, x, ExitPolicy(theta=theta, t_max=6))
            assert net.t == 0


class TestSummarizePolicy:
    def test_theta_zero_equals_static_accuracy(self):
        net = make_net(seed=7)
        images = rng.standard_normal((40, 1, 8, 8)).astype(np.float32)
        labels = rng.integers(0, 4, size=40)
        policy = ExitPolicy(theta=0.0, t_max=4)
        summary = summarize_policy(scan_with_entropy(net, images, 4), labels, policy)
        assert summary.mean_t == 4.0
        static_logits = np.concatenate(
            [scan_timesteps(net, images[i : i + 1], 4)["mean_logits"][:, 3] for i in range(40)]
        )
        static_acc = float((static_logits.argmax(axis=1) == labels).mean())
        assert summary.accuracy == static_acc

    def test_histogram_partitions_dataset(self):
        net = make_net(seed=7)
        images = rng.standard_normal((25, 1, 8, 8)).astype(np.float32)
        labels = rng.integers(0, 4, size=25)
        scan = scan_with_entropy(net, images, 4)
        for theta in (0.0, 0.5, 0.99):
            s = summarize_policy(scan, labels, ExitPolicy(theta=theta, t_max=4))
            assert s.histogram.sum() == 25
            assert ((s.chosen_t >= 1) & (s.chosen_t <= 4)).all()

    def test_empty_dataset_raises(self):
        net = make_net(seed=7)
        with pytest.raises(ValueError, match="non-empty"):
            scan_with_entropy(net, np.zeros((0, 1, 8, 8), np.float32), 4)


class TestScanWithEntropy:
    def test_rejects_non_finite_input(self):
        net = make_net(seed=5)
        images = rng.standard_normal((6, 1, 8, 8)).astype(np.float32)
        images[4, 0, 3, 3] = np.inf
        with pytest.raises(DataFormatError, match="1 non-finite"):
            scan_with_entropy(net, images, 4, batch_size=4)

    @pytest.mark.parametrize("form", INPUT_FORMS)
    def test_images_are_taken_as_an_array_of_real_numbers(self, form):
        net = make_net(seed=5)
        images = input_form(rng.standard_normal((6, 1, 8, 8)).astype(np.float32), form)
        if form != "list":
            with pytest.raises(DataFormatError):
                scan_with_entropy(net, images, 4)
            return
        got, want = scan_with_entropy(net, images, 4), scan_with_entropy(net, np.asarray(images), 4)
        npt.assert_array_equal(got["entropy"], want["entropy"])
        npt.assert_array_equal(got["mean_logits"], want["mean_logits"])


TILING_N = 24


class TestScanTiling:
    """A scan's result does not depend on how its samples are tiled, nor on
    how many workers run the tiles."""

    @settings(max_examples=50, deadline=None)
    @given(st.integers(1, TILING_N), st.permutations(range(TILING_N)), st.integers(1, 3))
    def test_tiles_match_single_tile_scan(self, cap, order, workers):
        net = make_net(seed=3)
        net.record_activity = True
        images = np.random.default_rng(9).standard_normal((TILING_N, 1, 8, 8)).astype(np.float32)
        order = np.asarray(order)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(kernels, "_scan_workers", lambda: 1)
            ref = scan_with_entropy(net, images, 4, batch_size=TILING_N)  # one tile
            alone = scan_with_entropy(net, images[order], 4, batch_size=cap)
            mp.setattr(kernels, "_scan_workers", lambda: workers)
            got = scan_with_entropy(net, images[order], 4, batch_size=cap)
        npt.assert_array_equal(got["activity"], alone["activity"])
        npt.assert_array_equal(got["mean_logits"], alone["mean_logits"])
        npt.assert_array_equal(got["activity"], ref["activity"][order])
        npt.assert_array_equal(got["predictions"], ref["predictions"][order])
        npt.assert_allclose(got["mean_logits"], ref["mean_logits"][order], atol=1e-6)
        for theta in DEFAULT_THETA_GRID:
            near = (np.abs(ref["entropy"][order] - theta) <= 1e-6).any(axis=1)
            if near.any():
                warnings.warn(f"theta {theta}: samples {order[near].tolist()} have an "
                              "entropy within 1e-6 of theta; exit times not compared")
            policy = ExitPolicy(theta=theta, t_max=4)
            npt.assert_array_equal(exit_times(got["entropy"], policy)[~near],
                                   exit_times(ref["entropy"][order], policy)[~near])


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

    @pytest.mark.parametrize("form", INPUT_FORMS)
    def test_images_are_taken_as_an_array_of_real_numbers(self, form):
        net = make_net(seed=2)
        images = input_form(rng.standard_normal((8, 1, 8, 8)).astype(np.float32), form)
        labels = rng.integers(0, 4, size=8).tolist()
        if form != "list":
            with pytest.raises(DataFormatError):
                threshold_sweep(net, images, labels, [0.0, 0.5], 4)
            return
        got, _ = threshold_sweep(net, images, labels, [0.0, 0.5], 4)
        want, _ = threshold_sweep(net, np.asarray(images), np.asarray(labels), [0.0, 0.5], 4)
        for g, w in zip(got, want, strict=True):
            assert g.keys() == w.keys()
            for key in w:
                npt.assert_array_equal(g[key], w[key])

    def test_empty_grid_raises(self):
        net = make_net(seed=2)
        with pytest.raises(ValueError, match="theta"):
            threshold_sweep(net, np.zeros((1, 1, 8, 8), np.float32), [0], [], 4)

    def test_empty_dataset_raises(self):
        net = make_net(seed=2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no mean-of-empty RuntimeWarning first
            with pytest.raises(ValueError, match="non-empty"):
                threshold_sweep(net, np.zeros((0, 1, 8, 8), np.float32), np.zeros(0, int),
                                [0.0, 0.5], 4)


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


def test_dynamic_infer_matches_scan_on_bench_model():
    # The benchmark's correctness check: the mnist.yaml architecture with the
    # pinned bench/model.ckpt on hard `stripes` inputs, at every default theta.
    ckpt = load_checkpoint(BENCH_CKPT)
    assert ckpt.spec == parse_config(BENCH_CKPT.parents[1] / "configs" / "mnist.yaml").network
    net = instance_from_checkpoint(ckpt)
    ds = synth_dataset("stripes", 64, ckpt.spec.num_classes, seed=7, noise=1.3)
    scan = scan_with_entropy(net, ds.images, ckpt.spec.t_max)
    # The bench model's 27-row tiles round the logits differently from one
    # row in their last bits, so the bits are compared with one-row tiles.
    rows = scan_with_entropy(net, ds.images, ckpt.spec.t_max, batch_size=1)
    for theta in DEFAULT_THETA_GRID:
        policy = ExitPolicy(theta=theta, t_max=ckpt.spec.t_max)
        ref = summarize_policy(scan, ds.labels, policy)
        traces = [dynamic_infer(net, image, policy) for image in ds.images]
        npt.assert_array_equal([t.chosen_t for t in traces], ref.chosen_t)
        npt.assert_array_equal([t.prediction for t in traces], ref.predictions)
        # Bit for bit: the gate runs softmax and _entropy_rows on a (1, K)
        # running mean as the scan runs them on its (N*T, K) rows.
        for i, trace in enumerate(traces):
            t = trace.chosen_t
            assert [e.hex() for e in trace.entropies] == [
                e.hex() for e in rows["entropy"][i, :t].tolist()]
            row = rows["mean_logits"][i, t - 1]
            assert trace.mean_logits.dtype == row.dtype
            assert trace.mean_logits.tobytes() == row.tobytes()
            assert trace.probabilities.tobytes() == softmax(row[None])[0].tobytes()
