"""Command-line interface: artifacts, schemas, exit codes, reproducibility."""

import csv
import json

import numpy as np
import pytest
import yaml

from dtsnn.checkpoint import instance_from_checkpoint, load_checkpoint
from dtsnn.cli import main
from dtsnn.config import load_dataset_pair, parse_config
from dtsnn.exit_policy import scan_with_entropy
from dtsnn.hardware import dataset_cost_fn, map_network

CONFIG = {
    "model": {
        "input_shape": [1, 8, 8],
        "num_classes": 3,
        "t_max": 4,
        "layers": [
            {"kind": "conv", "out_channels": 6, "kernel": 3, "stride": 1, "padding": 1},
            {"kind": "norm"},
            {"kind": "lif"},
            {"kind": "pool", "window": 2},
            {"kind": "classifier"},
        ],
    },
    "train": {"epochs": 3, "batch_size": 32, "lr0": 0.05, "t_train": 4, "seed": 3},
    "exit": {"theta": 0.2},
    "data": {"kind": "synth", "synth_kind": "stripes", "n_train": 240,
             "n_test": 90, "image_size": 8, "noise": 0.35},
}


def read_csv(path):
    with open(path) as fh:
        return list(csv.reader(fh))


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    config_path = root / "run.yaml"
    config_path.write_text(yaml.safe_dump(CONFIG))
    out = root / "train"
    code = main(["train", "--config", str(config_path), "--out", str(out), "--quiet"])
    assert code == 0
    return {"config": config_path, "out": out, "ckpt": out / "checkpoint.ckpt",
            "root": root}


class TestTrain:
    def test_artifacts_exist(self, trained):
        assert trained["ckpt"].exists()
        assert (trained["out"] / "training_log.csv").exists()
        manifest = json.loads((trained["out"] / "manifest.json").read_text())
        assert manifest["command"] == "train"
        assert manifest["seed"] == 3
        assert "checkpoint.ckpt" in manifest["outputs"]
        assert manifest["config"]["model"]["num_classes"] == 3

    def test_log_schema(self, trained):
        rows = read_csv(trained["out"] / "training_log.csv")
        assert rows[0][:3] == ["epoch", "lr", "train_loss"]
        assert rows[0][3:7] == [f"eval_acc_t{t}" for t in range(1, 5)]
        assert len(rows) == 1 + 3

    def test_rerun_same_seed_identical_log(self, trained, tmp_path):
        out2 = tmp_path / "again"
        code = main(["train", "--config", str(trained["config"]),
                     "--out", str(out2), "--quiet"])
        assert code == 0
        first = (trained["out"] / "training_log.csv").read_text()
        second = (out2 / "training_log.csv").read_text()
        assert first == second

    def test_missing_dataset_path_exit_2(self, tmp_path, capsys):
        bad = dict(CONFIG)
        bad["data"] = {"kind": "idx", "train_images": str(tmp_path / "absent.idx"),
                       "train_labels": "x", "test_images": "y", "test_labels": "z"}
        config_path = tmp_path / "bad.yaml"
        config_path.write_text(yaml.safe_dump(bad))
        code = main(["train", "--config", str(config_path),
                     "--out", str(tmp_path / "o"), "--quiet"])
        assert code == 2
        assert "absent.idx" in capsys.readouterr().err


class TestEval:
    def test_theta_zero_duplicates_static_row(self, trained, tmp_path):
        out = tmp_path / "eval0"
        code = main(["eval", "--config", str(trained["config"]),
                     "--checkpoint", str(trained["ckpt"]),
                     "--theta", "0.0", "--out", str(out), "--quiet"])
        assert code == 0
        rows = read_csv(out / "eval_summary.csv")
        header, static, dt = rows
        assert static[0] == "static" and dt[0] == "dt"
        assert float(static[4]) == 1.0  # static energy column is the 1.00x anchor
        assert dt[3] == static[3]  # same accuracy
        assert float(dt[2]) == 4.0  # full timesteps
        # theta=0 energy ratio: static plus the exit-module overhead only
        assert 1.0 < float(dt[4]) < 1.0 + 1e-3
        # histogram: all samples at t_max
        assert int(dt[-1]) == 90 and int(static[-1]) == 90

    def test_moderate_theta_reduces_cost(self, trained, tmp_path):
        out = tmp_path / "eval_mid"
        code = main(["eval", "--config", str(trained["config"]),
                     "--checkpoint", str(trained["ckpt"]),
                     "--theta", "0.9", "--out", str(out), "--quiet"])
        assert code == 0
        rows = read_csv(out / "eval_summary.csv")
        dt = rows[2]
        assert float(dt[2]) < 4.0
        assert float(dt[4]) < 1.0
        assert sum(int(c) for c in dt[7:]) == 90

    def test_invalid_theta_exit_2(self, trained, tmp_path, capsys):
        code = main(["eval", "--config", str(trained["config"]),
                     "--checkpoint", str(trained["ckpt"]),
                     "--theta", "1.5", "--out", str(tmp_path / "x"), "--quiet"])
        assert code == 2
        assert "theta" in capsys.readouterr().err


class TestSweep:
    def test_sweep_tables(self, trained, tmp_path):
        out = tmp_path / "sweep"
        code = main(["sweep", "--config", str(trained["config"]),
                     "--checkpoint", str(trained["ckpt"]),
                     "--theta-grid", "0.0,0.3,0.6,0.9", "--traces",
                     "--out", str(out), "--quiet"])
        assert code == 0
        rows = read_csv(out / "sweep.csv")
        assert rows[0] == ["theta", "accuracy", "mean_timesteps", "energy",
                           "latency", "edp", "edp_vs_static1"]
        data = rows[1:]
        assert float(data[0][2]) == 4.0  # theta 0 is the static endpoint
        means = [float(r[2]) for r in data]
        assert all(a >= b for a, b in zip(means, means[1:]))
        for r in data:
            assert abs(float(r[5]) - float(r[3]) * float(r[4])) < 1e-9
        dist = read_csv(out / "t_distribution.csv")
        for row in dist[1:]:
            assert sum(int(c) for c in row[1:]) == 90
        traces = read_csv(out / "traces.csv")
        assert len(traces) == 1 + 90

    def test_empty_grid_rejected(self, trained, tmp_path, capsys):
        code = main(["sweep", "--config", str(trained["config"]),
                     "--checkpoint", str(trained["ckpt"]),
                     "--theta-grid", "1.7", "--out", str(tmp_path / "s"), "--quiet"])
        assert code == 2


class TestAblate:
    def test_paired_runs(self, trained, tmp_path):
        out = tmp_path / "ablate"
        code = main(["ablate", "--config", str(trained["config"]),
                     "--out", str(out), "--quiet"])
        assert code == 0
        rows = read_csv(out / "ablation.csv")
        assert rows[0][0] == "loss_mode"
        assert {rows[1][0], rows[2][0]} == {"standard", "per_timestep"}
        assert (out / "training_log_standard.csv").exists()
        assert (out / "training_log_per_timestep.csv").exists()
        # both arms trained on identical batch orders
        a = read_csv(out / "training_log_standard.csv")
        b = read_csv(out / "training_log_per_timestep.csv")
        assert [r[-1] for r in a[1:]] == [r[-1] for r in b[1:]]


class TestHwReport:
    def test_component_shares_sum_to_one(self, trained, tmp_path):
        out = tmp_path / "hw"
        code = main(["hwreport", "--config", str(trained["config"]),
                     "--checkpoint", str(trained["ckpt"]),
                     "--out", str(out), "--quiet"])
        assert code == 0
        rows = read_csv(out / "hw_components.csv")
        assert len(rows) == 1 + 4
        for row in rows[1:]:
            shares = [float(v) for v in row[1:5]]
            assert abs(sum(shares) - 1.0) < 1e-9

    def test_sigma_e_priced_like_dataset_cost_fn(self, trained, tmp_path):
        out = tmp_path / "hs"
        code = main(["hwreport", "--config", str(trained["config"]),
                     "--checkpoint", str(trained["ckpt"]),
                     "--out", str(out), "--quiet"])
        assert code == 0
        cfg = parse_config(trained["config"])
        _, test_ds = load_dataset_pair(cfg.data, cfg.network.num_classes)
        net = instance_from_checkpoint(load_checkpoint(trained["ckpt"]))
        net.record_activity = True
        activity = scan_with_entropy(net, test_ds.images, 4)["activity"]
        cost = dataset_cost_fn(map_network(net.spec, cfg.arch), cfg.arch)
        for row in read_csv(out / "hw_components.csv")[1:]:
            t = int(row[0])
            shares = [float(v) for v in row[1:5]]
            assert shares[3] > 0.0
            assert abs(sum(shares) - 1.0) < 3e-6  # four values rounded to 6 places
            expected = cost(np.full(len(test_ds), t), activity)[0]
            assert abs(float(row[5]) - expected) <= 5e-7

    def test_zero_variation_matches_clean(self, trained, tmp_path):
        out = tmp_path / "hv"
        code = main(["hwreport", "--config", str(trained["config"]),
                     "--checkpoint", str(trained["ckpt"]),
                     "--sigma-mu", "0.0", "--variation-seeds", "2",
                     "--out", str(out), "--quiet"])
        assert code == 0
        rows = read_csv(out / "variation.csv")
        clean = rows[1]
        seeds = [r for r in rows[2:] if r[1] not in ("mean", "std")]
        for row in seeds:
            assert row[2] == clean[2] and row[3] == clean[3] and row[4] == clean[4]


class TestUsage:
    @pytest.mark.parametrize("argv", [
        ["eval", "--theta", "1.5"],
        ["sweep", "--traces", "--theta", "1.5"],
        ["ablate", "--theta", "1.5"],
        ["hwreport", "--sigma-mu", "-0.1"],
        ["hwreport", "--sigma-mu", "0.1", "--variation-seeds", "0"],
    ])
    def test_bad_flag_exit_2_before_any_output(self, trained, tmp_path, capsys, argv):
        out = tmp_path / "out"
        ckpt = [] if argv[0] == "ablate" else ["--checkpoint", str(trained["ckpt"])]
        code = main(argv + ckpt + ["--config", str(trained["config"]),
                                   "--out", str(out), "--quiet"])
        assert code == 2
        assert argv[-2].lstrip("-") in capsys.readouterr().err
        assert not list(tmp_path.rglob("*.csv"))

    def test_unknown_command_exit_2(self):
        assert main(["frobnicate"]) == 2

    def test_missing_required_flag_exit_2(self):
        assert main(["train"]) == 2
