"""Command-line entry point.

Subcommands:
  train     train a network per the config, write checkpoint + training log
  eval      static vs dynamic-timestep comparison at one threshold
  sweep     threshold grid -> accuracy / mean timesteps / energy / EDP table
  ablate    paired training runs with both loss functions, same data order
  hwreport  per-component energy shares per timestep budget, optional
            device-variation accuracy table

Every command reads one YAML config (--config), writes all outputs under
--out together with a manifest.json echoing the config, seed, command line
and library versions.  Exit codes: 0 success, 1 runtime failure, 2
usage/validation error.
"""

import argparse
import csv
import dataclasses
import json
import math
import platform
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .checkpoint import Checkpoint, instance_from_checkpoint, load_checkpoint, save_checkpoint
from .config import ExitSettings, config_to_dict, load_dataset_pair, parse_config
from .errors import ConfigError, DtsnnError
from .exit_policy import (
    ExitPolicy,
    scan_with_entropy,
    summarize_policy,
    threshold_sweep,
    write_trace_csv,
)
from .hardware import (
    component_energy_matrix,
    dataset_cost_fn,
    inference_costs,
    map_network,
    perturbed_instance,
)
from .network import build_instance
from .training import train


def _write_csv(path, rows):
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows(rows)


def _write_manifest(out_dir, args, cfg, outputs):
    manifest = {
        "command": args.command,
        "argv": args.argv,
        "seed": cfg.train.seed,
        "config": config_to_dict(cfg),
        "versions": {
            "dtsnn": __version__,
            "python": platform.python_version(),
            "numpy": np.__version__,
        },
        "outputs": sorted(outputs),
    }
    with open(Path(out_dir) / "manifest.json", "w") as fh:
        json.dump(manifest, fh, indent=1)


def _prepare(args):
    """Config and output path; a command creates the path once its inputs load.
    A command's --theta falls back to the config's exit.theta."""
    cfg = parse_config(args.config)
    if args.seed is not None:
        try:
            cfg.train = dataclasses.replace(cfg.train, seed=args.seed)
        except ValueError as exc:
            raise ConfigError(f"--seed: {exc}") from exc
    if "theta" in args and args.theta is None:
        args.theta = cfg.exit.theta
    return cfg, Path(args.out or f"runs/{args.command}")


def _progress_printer(quiet):
    if quiet:
        return None

    def show(record):
        accs = " ".join(f"{a:.4f}" for a in record.eval_acc)
        print(
            f"epoch {record.epoch:3d}  lr {record.lr:.5f}  "
            f"loss {record.train_loss:.4f}  acc@t [{accs}]"
        )

    return show


def cmd_train(args):
    cfg, out_dir = _prepare(args)
    train_ds, test_ds = load_dataset_pair(cfg.data, cfg.network.num_classes)
    out_dir.mkdir(parents=True, exist_ok=True)
    net = build_instance(cfg.network, seed=cfg.train.seed)
    log = train(
        net, train_ds.images, train_ds.labels, test_ds.images, test_ds.labels,
        cfg.train, progress=_progress_printer(args.quiet),
    )
    ckpt_path = out_dir / "checkpoint.ckpt"
    save_checkpoint(
        ckpt_path,
        Checkpoint(
            spec=cfg.network,
            params=net.params,
            train_config=dataclasses.asdict(cfg.train),
            seed=cfg.train.seed,
        ),
    )
    log_path = out_dir / "training_log.csv"
    _write_csv(log_path, log.csv_rows())
    _write_manifest(out_dir, args, cfg, [ckpt_path.name, log_path.name])
    if not args.quiet:
        final = log.records[-1]
        print(f"checkpoint: {ckpt_path}")
        print(f"final eval acc@t: {[round(a, 4) for a in final.eval_acc]}")
    return 0


def _load_net(args, cfg):
    ckpt = load_checkpoint(args.checkpoint)
    if ckpt.spec != cfg.network:
        print("note: checkpoint architecture differs from config; using checkpoint",
              file=sys.stderr)
    return instance_from_checkpoint(ckpt)


def _static_vs_dynamic(net, ds, theta, arch):
    """Scan `ds` for all t_max timesteps and apply the exit policy at theta.

    Returns the policy summary, the static t_max-step accuracy, and the
    (mean energy, mean latency, EDP) of the static and of the dynamic run.
    """
    t_max = net.spec.t_max
    net.record_activity = True
    scan = scan_with_entropy(net, ds.images, t_max)
    summary = summarize_policy(scan, ds.labels, ExitPolicy(theta=theta, t_max=t_max))
    static_acc = float((scan["predictions"][:, t_max - 1] == ds.labels).mean())
    mapping = map_network(net.spec, arch)
    activity = scan["activity"]
    static = dataset_cost_fn(mapping, arch, dynamic=False)(np.full(len(ds), t_max), activity)
    dynamic = dataset_cost_fn(mapping, arch)(summary.chosen_t, activity)
    return summary, static_acc, static, dynamic


def cmd_eval(args):
    cfg, out_dir = _prepare(args)
    _, test_ds = load_dataset_pair(cfg.data, cfg.network.num_classes)
    net = _load_net(args, cfg)
    out_dir.mkdir(parents=True, exist_ok=True)
    t_max = net.spec.t_max
    summary, static_acc, static, dynamic = _static_vs_dynamic(net, test_ds, args.theta, cfg.arch)
    ratios = [d / s for d, s in zip(dynamic, static)]  # energy, latency, EDP
    header = (
        ["method", "theta", "mean_timesteps", "accuracy",
         "energy_ratio", "latency_ratio", "edp_ratio"]
        + [f"count_t{t}" for t in range(1, t_max + 1)]
    )
    static_hist = [0] * t_max
    static_hist[-1] = len(test_ds)
    rows = [
        header,
        ["static", "", t_max, f"{static_acc:.6f}", f"{1.0:.6f}", f"{1.0:.6f}",
         f"{1.0:.6f}"] + static_hist,
        ["dt", f"{args.theta:.4f}", f"{summary.mean_t:.4f}", f"{summary.accuracy:.6f}"]
        + [f"{r:.6f}" for r in ratios] + list(summary.histogram),
    ]
    out_path = out_dir / "eval_summary.csv"
    _write_csv(out_path, rows)
    _write_manifest(out_dir, args, cfg, [out_path.name])
    if not args.quiet:
        print(f"static T={t_max}: acc {static_acc:.4f}")
        print(
            f"dt theta={args.theta}: acc {summary.accuracy:.4f} "
            f"mean_t {summary.mean_t:.3f} energy {ratios[0]:.3f}x "
            f"edp {ratios[2]:.3f}x"
        )
    return 0


def cmd_sweep(args):
    cfg, out_dir = _prepare(args)
    thetas = args.theta_grid if args.theta_grid else list(cfg.exit.theta_grid)
    _, test_ds = load_dataset_pair(cfg.data, cfg.network.num_classes)
    net = _load_net(args, cfg)
    out_dir.mkdir(parents=True, exist_ok=True)
    t_max = net.spec.t_max
    mapping = map_network(net.spec, cfg.arch)
    net.record_activity = True
    rows, scan = threshold_sweep(
        net, test_ds.images, test_ds.labels, thetas, t_max,
        cost_fn=dataset_cost_fn(mapping, cfg.arch),
    )
    # Normalization anchor: the 1-timestep static run of the same checkpoint.
    edp_static1 = dataset_cost_fn(mapping, cfg.arch, dynamic=False)(
        np.ones(len(test_ds), dtype=np.int64), scan["activity"]
    )[2]
    sweep_rows = [[
        "theta", "accuracy", "mean_timesteps", "energy", "latency", "edp",
        "edp_vs_static1",
    ]]
    dist_rows = [["theta"] + [f"count_t{t}" for t in range(1, t_max + 1)]]
    for row in rows:
        # energy/latency/edp at full precision so edp == energy * latency
        # holds exactly on the emitted values
        sweep_rows.append([
            f"{row['theta']:.4f}", f"{row['accuracy']:.6f}", f"{row['mean_t']:.4f}",
            repr(row["energy"]), repr(row["latency"]), repr(row["edp"]),
            f"{row['edp'] / edp_static1:.6f}",
        ])
        dist_rows.append([f"{row['theta']:.4f}"] + list(row["histogram"]))
    sweep_path = out_dir / "sweep.csv"
    dist_path = out_dir / "t_distribution.csv"
    _write_csv(sweep_path, sweep_rows)
    _write_csv(dist_path, dist_rows)
    outputs = [sweep_path.name, dist_path.name]
    if args.traces:
        trace_path = out_dir / "traces.csv"
        policy = ExitPolicy(theta=args.theta, t_max=t_max)
        write_trace_csv(trace_path, scan, test_ds.labels, policy)
        outputs.append(trace_path.name)
    _write_manifest(out_dir, args, cfg, outputs)
    if not args.quiet:
        for line in sweep_rows[1:]:
            print("theta", line[0], "acc", line[1], "mean_t", line[2], "edp", line[5])
    return 0


def cmd_ablate(args):
    cfg, out_dir = _prepare(args)
    train_ds, test_ds = load_dataset_pair(cfg.data, cfg.network.num_classes)
    out_dir.mkdir(parents=True, exist_ok=True)
    results = {}
    hashes = {}
    for mode in ("standard", "per_timestep"):
        run_cfg = dataclasses.replace(cfg.train, loss_mode=mode)
        net = build_instance(cfg.network, seed=run_cfg.seed)
        log = train(
            net, train_ds.images, train_ds.labels, test_ds.images, test_ds.labels,
            run_cfg, progress=_progress_printer(args.quiet),
        )
        _write_csv(out_dir / f"training_log_{mode}.csv", log.csv_rows())
        summary, _, static, dynamic = _static_vs_dynamic(net, test_ds, args.theta, cfg.arch)
        results[mode] = {
            "acc_per_t": log.records[-1].eval_acc,
            "dt_acc": summary.accuracy,
            "dt_mean_t": summary.mean_t,
            "dt_edp_ratio": dynamic[2] / static[2],
        }
        hashes[mode] = [r.batch_hash for r in log.records]
    if hashes["standard"] != hashes["per_timestep"]:
        raise DtsnnError("ablation arms saw different batch orders")
    t_train = cfg.train.t_train
    rows = [["loss_mode"] + [f"acc_t{t}" for t in range(1, t_train + 1)]
            + ["dt_theta", "dt_accuracy", "dt_mean_timesteps", "dt_edp_ratio"]]
    for mode in ("standard", "per_timestep"):
        r = results[mode]
        rows.append(
            [mode] + [f"{a:.6f}" for a in r["acc_per_t"]]
            + [f"{args.theta:.4f}", f"{r['dt_acc']:.6f}", f"{r['dt_mean_t']:.4f}",
               f"{r['dt_edp_ratio']:.6f}"]
        )
    out_path = out_dir / "ablation.csv"
    _write_csv(out_path, rows)
    _write_manifest(
        out_dir, args, cfg,
        [out_path.name, "training_log_standard.csv", "training_log_per_timestep.csv"],
    )
    if not args.quiet:
        for mode in ("standard", "per_timestep"):
            print(mode, "acc@t:", [round(a, 4) for a in results[mode]["acc_per_t"]])
    return 0


def cmd_hwreport(args):
    cfg, out_dir = _prepare(args)
    _, test_ds = load_dataset_pair(cfg.data, cfg.network.num_classes)
    net = _load_net(args, cfg)
    out_dir.mkdir(parents=True, exist_ok=True)
    t_max = net.spec.t_max
    arch = cfg.arch
    mapping = map_network(net.spec, arch)
    net.record_activity = True
    scan = scan_with_entropy(net, test_ds.images, t_max)
    steps = component_energy_matrix(scan["activity"], mapping, arch)
    parts = ("crossbar_adc", "digital", "buffer_interconnect", "sigma_e")
    comp_rows = [["timesteps"] + [f"{k}_share" for k in parts] + ["mean_energy"]]
    # Each row prices a t-step run on the dynamic-timestep hardware, so the
    # exit module runs once per executed timestep.
    for t in range(1, t_max + 1):
        costs = inference_costs(steps, np.full(len(test_ds), t), arch)
        means = [float(costs[k].mean()) for k in parts]
        total = sum(means)
        comp_rows.append([t] + [f"{v / total:.6f}" for v in means] + [f"{total:.6f}"])
    comp_path = out_dir / "hw_components.csv"
    _write_csv(comp_path, comp_rows)
    outputs = [comp_path.name]

    if args.sigma_mu is not None:
        policy = ExitPolicy(theta=args.theta, t_max=t_max)
        var_rows = [["sigma_mu", "seed", "static_accuracy", "dt_accuracy",
                     "dt_mean_timesteps"]]
        labels = test_ds.labels
        clean_summary = summarize_policy(scan, labels, policy)
        clean_static = float(
            (scan["predictions"][:, t_max - 1] == labels).mean()
        )
        var_rows.append(["0.0", "clean", f"{clean_static:.6f}",
                         f"{clean_summary.accuracy:.6f}",
                         f"{clean_summary.mean_t:.4f}"])
        stats = []
        for seed in range(args.variation_seeds):
            noisy = perturbed_instance(net, args.sigma_mu, seed=1000 + seed)
            noisy.record_activity = False
            nscan = scan_with_entropy(noisy, test_ds.images, t_max)
            nsummary = summarize_policy(nscan, labels, policy)
            nstatic = float((nscan["predictions"][:, t_max - 1] == labels).mean())
            stats.append((nstatic, nsummary.accuracy, nsummary.mean_t))
            var_rows.append([
                f"{args.sigma_mu:.4f}", seed, f"{nstatic:.6f}",
                f"{nsummary.accuracy:.6f}", f"{nsummary.mean_t:.4f}",
            ])
        arr = np.array(stats)
        var_rows.append([
            f"{args.sigma_mu:.4f}", "mean",
            f"{arr[:, 0].mean():.6f}", f"{arr[:, 1].mean():.6f}",
            f"{arr[:, 2].mean():.4f}",
        ])
        var_rows.append([
            f"{args.sigma_mu:.4f}", "std",
            f"{arr[:, 0].std():.6f}", f"{arr[:, 1].std():.6f}",
            f"{arr[:, 2].std():.4f}",
        ])
        var_path = out_dir / "variation.csv"
        _write_csv(var_path, var_rows)
        outputs.append(var_path.name)
        if not args.quiet:
            print(
                f"variation sigma/mu={args.sigma_mu}: dt acc "
                f"{arr[:, 1].mean():.4f} +/- {arr[:, 1].std():.4f} "
                f"(clean {clean_summary.accuracy:.4f})"
            )
    _write_manifest(out_dir, args, cfg, outputs)
    return 0


def _add_common(sub, checkpoint=False):
    sub.add_argument("--config", required=True, help="YAML run configuration")
    sub.add_argument("--out", default=None, help="output directory (created if absent)")
    sub.add_argument("--seed", type=int, default=None, help="override train.seed")
    sub.add_argument("--quiet", action="store_true", help="suppress progress output")
    if checkpoint:
        sub.add_argument("--checkpoint", required=True, help="trained model file")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="dtsnn",
        description="Spiking-network training, dynamic-timestep inference and "
                    "in-memory-computing cost reports.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("train", help="train a model from a config")
    _add_common(p)
    p.set_defaults(func=cmd_train)

    p = subs.add_parser("eval", help="static vs dynamic comparison at one theta")
    _add_common(p, checkpoint=True)
    p.add_argument("--theta", type=float, default=None)
    p.set_defaults(func=cmd_eval)

    p = subs.add_parser("sweep", help="threshold sweep with hardware costs")
    _add_common(p, checkpoint=True)
    p.add_argument("--theta", type=float, default=None,
                   help="theta for the optional per-sample trace export")
    p.add_argument("--theta-grid", type=lambda s: [float(v) for v in s.split(",")],
                   default=None, help="comma-separated thresholds")
    p.add_argument("--traces", action="store_true",
                   help="also write per-sample exit traces")
    p.set_defaults(func=cmd_sweep)

    p = subs.add_parser("ablate", help="paired runs with both loss functions")
    _add_common(p)
    p.add_argument("--theta", type=float, default=None)
    p.set_defaults(func=cmd_ablate)

    p = subs.add_parser("hwreport", help="component shares and device variation")
    _add_common(p, checkpoint=True)
    p.add_argument("--sigma-mu", type=float, default=None,
                   help="device conductance variation sigma/mu")
    p.add_argument("--variation-seeds", type=int, default=5)
    p.add_argument("--theta", type=float, default=None)
    p.set_defaults(func=cmd_hwreport)
    return parser


def _check_flags(args):
    """Reject out-of-range flag values before any work is done; thresholds
    get the range ExitSettings declares, as the config file's do."""
    flags = vars(args)
    ExitSettings(flags.get("theta") or 0.0, flags.get("theta_grid") or (0.0,))
    sigma_mu = flags.get("sigma_mu")
    if sigma_mu is not None and not 0.0 <= sigma_mu < math.inf:
        raise ConfigError(f"--sigma-mu must be finite and >= 0, got {sigma_mu}")
    if flags.get("variation_seeds", 1) < 1:
        raise ConfigError(
            f"--variation-seeds must be >= 1, got {flags['variation_seeds']}"
        )


def main(argv=None):
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    args.argv = argv  # recorded in manifest.json
    try:
        _check_flags(args)
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except FileNotFoundError as exc:
        print(f"error: missing file: {exc.filename or exc}", file=sys.stderr)
        return 2
    except DtsnnError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
