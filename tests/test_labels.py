"""Labels are checked where they enter: one integer class index per image."""

import numpy as np
import numpy.testing as npt
import pytest

from dtsnn import exit_policy, training
from dtsnn.errors import ShapeError
from dtsnn.exit_policy import (
    ExitPolicy,
    scan_with_entropy,
    summarize_policy,
    threshold_sweep,
    write_trace_csv,
)
from dtsnn.network import LayerSpec, NetworkSpec, as_labels, build_instance
from dtsnn.training import TrainConfig, evaluate_per_timestep, train

N, K = 8, 4
rng = np.random.default_rng(17)

# name -> (labels for N images of K classes, the error they raise)
BAD_LABELS = {
    "one": (np.zeros(1, dtype=int), ShapeError),
    "n-1": (np.arange(N - 1) % K, ShapeError),
    "out of range": (np.full(N, K), ValueError),
    "negative": (np.full(N, -1), ValueError),
    "float": (np.arange(N) % K + 0.0, ValueError),
}


def make_net():
    spec = NetworkSpec(
        input_shape=(1, 8, 8),
        num_classes=K,
        t_max=2,
        layers=(
            LayerSpec("conv", out_channels=2, kernel=3, stride=1, padding=1),
            LayerSpec("norm"),
            LayerSpec("lif"),
            LayerSpec("pool", window=2),
            LayerSpec("classifier"),
        ),
    )
    return build_instance(spec, seed=3)


IMAGES = rng.standard_normal((N, 1, 8, 8)).astype(np.float32)
GOOD = np.arange(N) % K
CFG = TrainConfig(epochs=1, batch_size=4, t_train=2)


def call_summarize_policy(net, labels, tmp_path):
    summarize_policy(scan_with_entropy(net, IMAGES, 2), labels, ExitPolicy(theta=0.5, t_max=2))


def call_threshold_sweep(net, labels, tmp_path):
    threshold_sweep(net, IMAGES, labels, [0.0, 0.5], 2)


def call_write_trace_csv(net, labels, tmp_path):
    write_trace_csv(tmp_path / "traces.csv", scan_with_entropy(net, IMAGES, 2), labels,
                    ExitPolicy(theta=0.5, t_max=2))


def call_evaluate_per_timestep(net, labels, tmp_path):
    evaluate_per_timestep(net, IMAGES, labels, 2)


def call_train_training_split(net, labels, tmp_path):
    train(net, IMAGES, labels, IMAGES, GOOD, CFG)


def call_train_evaluation_split(net, labels, tmp_path):
    train(net, IMAGES, GOOD, IMAGES, labels, CFG)


ENTRY_POINTS = [call_summarize_policy, call_threshold_sweep, call_write_trace_csv,
                call_evaluate_per_timestep, call_train_training_split,
                call_train_evaluation_split]


@pytest.mark.parametrize("bad", list(BAD_LABELS))
@pytest.mark.parametrize("entry", ENTRY_POINTS, ids=lambda f: f.__name__[len("call_"):])
def test_entry_points_reject_bad_labels(entry, bad, tmp_path, monkeypatch):
    labels, error = BAD_LABELS[bad]
    steps = []
    monkeypatch.setattr(training, "forward_with_tape", lambda *a, **kw: steps.append(a))
    with pytest.raises(error, match="labels") as caught:
        entry(make_net(), labels, tmp_path)
    assert (caught.type is ShapeError) == (error is ShapeError)
    assert steps == []  # train checks both splits before its first step
    assert not (tmp_path / "traces.csv").exists()


@pytest.mark.parametrize("bad", list(BAD_LABELS))
def test_sweep_rejects_bad_labels_before_it_scans(bad, monkeypatch):
    labels, error = BAD_LABELS[bad]

    def scan(*args, **kwargs):
        raise AssertionError("the scan ran before the labels were checked")

    monkeypatch.setattr(exit_policy, "scan_timesteps", scan)
    with pytest.raises(error, match="labels"):
        threshold_sweep(make_net(), IMAGES, labels, [0.0, 0.5], 2)


@pytest.mark.parametrize("entry", ENTRY_POINTS, ids=lambda f: f.__name__[len("call_"):])
def test_entry_points_take_a_list_of_labels(entry, tmp_path):
    entry(make_net(), GOOD.tolist(), tmp_path)


class TestAsLabels:
    def test_returns_the_labels_as_an_array(self):
        got = as_labels([0, 3, 1], 3, K)
        assert isinstance(got, np.ndarray)
        npt.assert_array_equal(got, [0, 3, 1])

    def test_unsigned_labels_pass(self):
        labels = np.array([0, 3], dtype=np.uint8)
        assert as_labels(labels, 2, K) is labels

    def test_empty_set_passes(self):
        assert as_labels(np.zeros(0, dtype=int), 0, K).shape == (0,)

    @pytest.mark.parametrize("labels, pattern", [
        (np.zeros((N, 1), dtype=int), r"expected 8 labels, one per image, got shape \(8, 1\)"),
        (np.int64(2), r"expected 8 labels, one per image, got shape \(\)"),
    ])
    def test_shape_errors(self, labels, pattern):
        with pytest.raises(ShapeError, match=pattern):
            as_labels(labels, N, K)

    @pytest.mark.parametrize("labels, pattern", [
        (np.array([0, 4]), r"labels must lie in \[0, 4\), got range \[0, 4\]"),
        (np.array([-1, 2]), r"labels must lie in \[0, 4\), got range \[-1, 2\]"),
        (np.array([0.0, 1.0]), r"labels must lie in \[0, 4\) as integers, got dtype float64"),
        (np.array([True, False]), r"as integers, got dtype bool"),
        (np.array(["0", "1"]), r"as integers, got dtype <U1"),
    ])
    def test_value_errors(self, labels, pattern):
        with pytest.raises(ValueError, match=pattern) as caught:
            as_labels(labels, 2, K)
        assert caught.type is ValueError
