"""Train the fixed model that the `sweep` and `dynamic` workloads load.

The inference workloads read bench/model.ckpt instead of training their own
model, so a change to training code cannot move inference numbers.  This
script regenerates that file: the configs/mnist.yaml architecture (T=4),
trained for three epochs on seeded synthetic `stripes` images at noise 0.45.

    python3 bench/train_model.py [--out bench/model.ckpt]

Regenerating the checkpoint changes the pinned sha256 in workloads.py and
resets every inference baseline.
"""

import argparse
import dataclasses
import hashlib
import sys
import time

import common

TRAIN_SAMPLES = 8000
DATA_SEED = 1234
NOISE = 0.45
EPOCHS = 3


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default=str(common.MODEL_PATH))
    args = parser.parse_args(argv)
    common.pin_blas_threads()
    common.import_dtsnn()
    from dtsnn import (Checkpoint, build_instance, parse_config, save_checkpoint,
                       synth_dataset, train)

    cfg = parse_config(common.CONFIG_PATH)
    spec = cfg.network
    tcfg = dataclasses.replace(cfg.train, epochs=EPOCHS)
    train_ds = synth_dataset(
        "stripes", TRAIN_SAMPLES, spec.num_classes,
        seed=DATA_SEED, noise=NOISE,
    )
    eval_ds = synth_dataset(
        "stripes", 500, spec.num_classes,
        seed=DATA_SEED + 1, noise=NOISE,
    )
    net = build_instance(spec, seed=tcfg.seed)
    t0 = time.perf_counter()
    log = train(
        net, train_ds.images, train_ds.labels, eval_ds.images, eval_ds.labels, tcfg,
        progress=lambda r: print(
            f"epoch {r.epoch}: loss {r.train_loss:.4f} eval_acc {r.eval_acc}",
            file=sys.stderr,
        ),
    )
    print(f"trained in {time.perf_counter() - t0:.1f} s", file=sys.stderr)
    save_checkpoint(
        args.out,
        Checkpoint(spec=spec, params=net.params,
                   train_config=dataclasses.asdict(tcfg), seed=tcfg.seed),
    )
    with open(args.out, "rb") as fh:
        digest = hashlib.sha256(fh.read()).hexdigest()
    print(f"wrote {args.out} sha256 {digest} final loss {log.records[-1].train_loss:.6f}")


if __name__ == "__main__":
    main()
