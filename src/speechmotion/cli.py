"""Command-line entry point.

Subcommands: make-toy, preprocess, train, generate, evaluate, swap-demo.
The commands that build their config (make-toy, preprocess, train and
swap-demo) take --config (JSON mirroring RunConfig) and repeatable --set
dotted.key=value overrides; precedence is defaults < file < flags.
generate and evaluate run from the config stored in their checkpoint.
Output locations honor the SPEECHMOTION_OUTPUT_ROOT environment variable
when relative.

Exit codes: 0 success, 1 usage error, 2 data error, 3 numeric failure.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import sys
from collections import Counter
from pathlib import Path

import numpy as np

from .audio import check_coverage, motion_features
from .config import RunConfig
from .data import DatasetSplit
from .errors import DataError, NumericError
from .evaluation import evaluate_checkpoint
from .generation import generate_sequence, interval_schedule, keyword_schedule
from .metrics import diversity
from .motion import normalize_skeleton, swap_dynamics, temporal_mean
from .toydata import make_toy_dataset
from .training import build_dataset, train
from . import io

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERIC = 3


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on bad flags by default; the contract reserves 2 for
    # data errors, so route usage problems through exit code 1 instead.
    def error(self, message):
        self.print_usage(sys.stderr)
        raise _UsageError(message)


def _out_path(path: str | Path) -> Path:
    path = Path(path)
    root = os.environ.get("SPEECHMOTION_OUTPUT_ROOT")
    if root and not path.is_absolute():
        return Path(root) / path
    return path


def _set_override(tree: dict, dotted: str, raw: str) -> None:
    keys = dotted.split(".")
    node = tree
    for key in keys[:-1]:
        if not isinstance(node.get(key), dict):
            raise _UsageError(f"--set {dotted}: no config section {key!r}")
        node = node[key]
    try:
        value = json.loads(raw)
    except json.JSONDecodeError:
        value = [v for v in raw.split(",") if v] if "," in raw else raw
    node[keys[-1]] = value


def _load_config(args) -> RunConfig:
    try:
        config = RunConfig.load(args.config) if args.config else RunConfig()
        tree = config.to_dict()
        for item in args.set or []:
            if "=" not in item:
                raise _UsageError(f"--set expects key=value, got {item!r}")
            dotted, raw = item.split("=", 1)
            _set_override(tree, dotted, raw)
        return RunConfig.from_dict(tree)
    except OSError as exc:
        raise _UsageError(f"--config {args.config}: {exc.strerror}") from None
    except (TypeError, ValueError) as exc:
        raise _UsageError(str(exc)) from None


def _meta(config: RunConfig, seed: int, **extra) -> dict:
    return {"seed": seed, "config_hash": config.config_hash(), **extra}


# -- subcommand bodies ---------------------------------------------------------


def cmd_make_toy(args) -> int:
    config = _load_config(args)
    seed = args.seed if args.seed is not None else config.train.seed
    out = _out_path(args.out)
    manifest = make_toy_dataset(out, config, seed)
    n = len(manifest["segments"])
    print(f"wrote {n} segments under {out} (seed {seed}, config {config.config_hash()})")
    return EXIT_OK


def cmd_preprocess(args) -> int:
    config = _load_config(args)
    landmark_dir = Path(args.landmarks)
    audio_dir = Path(args.audio)
    landmark_files = sorted(landmark_dir.glob("*.npz"))
    audio_files = sorted(list(audio_dir.glob("*.wav")) + list(audio_dir.glob("*.npz")))
    if not landmark_files:
        raise DataError(f"no .npz landmark files under {landmark_dir}")
    split, errors = build_dataset(landmark_files, audio_files, config)
    out = _out_path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    seed = config.train.seed
    meta = _meta(config, seed)
    counts = {}
    for name in ("train", "val", "test"):
        samples = getattr(split, name)
        if samples:
            io.save_split(out / f"{name}.npz", samples, config, meta)
        per_speaker = dict(Counter(samples.speaker.tolist()))  # in order of first appearance
        counts[name] = {"total": len(samples), "per_speaker": per_speaker}
    io.save_stats(out / "stats.npz", split.feature_stats, meta)
    io.save_json(out / "manifest.json", {"format": "manifest/1", **meta, "counts": counts, "errors": errors})
    for line in errors:
        print(f"skipped: {line}", file=sys.stderr)
    print(
        "splits: "
        + ", ".join(f"{k}={v['total']}" for k, v in counts.items())
        + f"; {len(errors)} file error(s); wrote {out}"
    )
    return EXIT_OK


def _load_split_dir(path: Path, config: RunConfig) -> DatasetSplit:
    """The splits preprocess wrote under `path`, each checked against `config`."""
    train_path = path / "train.npz"
    if not train_path.exists():
        raise DataError(f"{path}: missing train.npz (run preprocess first)")
    train = io.load_split(train_path, config)
    val, test = (
        io.load_split(p, config) if p.exists() else train[:0]
        for p in (path / "val.npz", path / "test.npz")
    )
    stats = io.load_stats(path / "stats.npz")
    return DatasetSplit(train=train, val=val, test=test, feature_stats=stats)


def cmd_train(args) -> int:
    config = _load_config(args)
    dataset = _load_split_dir(_out_path(args.data), config)
    out = _out_path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    result = train(dataset, config, log_path=out / "train_log.jsonl", progress=not args.quiet)
    io.save_checkpoint(out / "checkpoint_final.npz", result.final)
    io.save_checkpoint(out / "checkpoint_best.npz", result.best)
    last = result.history[-1]
    print(
        f"trained {config.train.epochs} epochs; final loss {last['total']:.5f};"
        f" best val_lvd {result.best.val_lvd if result.best.val_lvd is not None else float('nan'):.5f};"
        f" wrote {out}"
    )
    return EXIT_OK


def _initial_pose(args, ckpt) -> np.ndarray:
    config = ckpt.config
    if args.initial_pose:
        normalized, _ = io.load_normalized_landmarks(args.initial_pose, config)
        if len(normalized) < config.t_frames:
            raise DataError(f"{args.initial_pose}: too short for one clip")
        return normalized[: config.t_frames]
    return np.tile(ckpt.rest_posture, (config.t_frames, 1))


def _schedule_for(args, config: RunConfig, n_steps: int, transcript) -> tuple[tuple[int, ...], str]:
    """The run's mode labels and the policy that chose them."""
    if args.labels:
        text = args.labels
        if text == "zeros":
            text = "0" * n_steps
        elif text == "ones":
            text = "1" * n_steps
        if set(text) - {"0", "1"}:
            raise _UsageError(f"--labels must be 0/1 digits or zeros/ones, got {args.labels!r}")
        if len(text) != n_steps:
            raise _UsageError(f"--labels gives {len(text)} labels but the audio has {n_steps} steps")
        return tuple(int(ch) for ch in text), "explicit"
    if args.policy == "keyword":
        if transcript is None:
            raise _UsageError("--policy keyword needs --transcript")
        clip_s = config.t_frames / config.fps
        return keyword_schedule(transcript, n_steps, clip_s, config.generate.keywords), "keyword"
    return interval_schedule(n_steps, args.interval), "fixed-interval"


def cmd_generate(args) -> int:
    if args.num_seeds < 1:
        raise _UsageError(f"--num-seeds must be at least 1, got {args.num_seeds}")
    if args.interval < 1:
        raise _UsageError(f"--interval must be at least 1, got {args.interval}")
    ckpt = io.load_checkpoint(_out_path(args.checkpoint))
    config = ckpt.config
    wave, rate = io.load_waveform(args.audio)
    duration_s = len(wave) / rate
    # round to the nearest frame so sample-level jitter in the audio length
    # cannot drop a clip; check_coverage still checks the features reach it
    n_steps = int(round(duration_s * config.fps)) // config.t_frames
    n_frames = n_steps * config.t_frames
    if n_steps < 1:
        raise DataError(f"{args.audio}: audio of {duration_s:.2f}s yields no full clip of {config.t_frames} frames")
    transcript = io.load_transcript(args.transcript) if args.transcript else None
    schedule, provenance = _schedule_for(args, config, n_steps, transcript)
    try:
        aligned, n_audio = motion_features(wave, rate, config.mfcc, config.fps, n_frames)
        check_coverage(n_audio, config.mfcc.hop_s, config.fps, n_frames)
    except DataError as exc:
        raise DataError(f"{args.audio}: {exc}") from None
    standardized = ckpt.feature_stats.transform(aligned, args.speaker)
    initial = _initial_pose(args, ckpt)

    out = _out_path(args.out)
    seeds = [args.seed + i for i in range(args.num_seeds)]
    results = generate_sequence(
        initial,
        standardized.reshape(n_steps, config.t_frames, -1),
        schedule,
        config,
        ckpt.params,
        seeds=seeds,
    )
    if len(seeds) > 1:
        out.mkdir(parents=True, exist_ok=True)
    for result in results:
        meta = _meta(
            config,
            result.seed,
            schedule=list(schedule),
            schedule_provenance=provenance,
            checkpoint_epoch=ckpt.epoch,
        )
        target = out / f"motion_seed{result.seed}.npz" if len(seeds) > 1 else out
        io.save_landmarks(target, result.motion, config.fps, config.joint_spec, meta)
        sidecar = Path(str(target).removesuffix(".npz") + ".meta.json")
        io.save_json(sidecar, {"format": "generation-meta/1", **meta})
    msg = f"generated {n_steps} step(s) x {len(seeds)} seed(s); schedule {provenance}"
    if len(seeds) > 1:
        spread = diversity(np.stack([r.motion for r in results]))
        io.save_json(out / "batch_summary.json",
                     {"format": "generation-batch/1", "seeds": seeds, "diversity": spread,
                      **_meta(config, args.seed)})
        msg += f"; diversity {spread:.4f}"
    print(msg + f"; wrote {out}")
    return EXIT_OK


def cmd_evaluate(args) -> int:
    ckpt = io.load_checkpoint(_out_path(args.checkpoint))
    data_dir = _out_path(args.data)
    path = data_dir / f"{args.split}.npz"
    samples = io.load_split(path, ckpt.config)
    report = evaluate_checkpoint(ckpt, samples, seed=args.seed, meta={"split": args.split})
    payload = report.to_dict()
    out = _out_path(args.out)
    io.save_json(out, payload)
    for row in payload["per_speaker"]:
        print(
            f"{row['speaker_id']}: n={row['n_samples']} lvd={row['lvd_model']:.4f}"
            f" last-step={row['lvd_last_step']:.4f} mean-vel={row['lvd_mean_velocity']:.4f}"
            f" diversity={row['diversity']:.4f} quality={row['quality']:.3f}"
        )
    overall = payload["overall"]
    print(f"overall: lvd={overall['lvd_model']:.4f} quality={overall['quality']:.3f}; wrote {out}")
    return EXIT_OK


def cmd_swap_demo(args) -> int:
    config = _load_config(args)
    frames_a, fps_a, spec_a, _ = io.load_landmarks(args.a)
    frames_b, fps_b, spec_b, _ = io.load_landmarks(args.b)
    if spec_a.names != spec_b.names:
        raise DataError("swap-demo inputs use different joint sets")
    if abs(fps_a - fps_b) > 1e-9:
        raise DataError(f"swap-demo inputs disagree on fps: {fps_a} vs {fps_b}")
    n = min(len(frames_a), len(frames_b))
    if n < 2:
        raise DataError("swap-demo needs at least two overlapping frames")

    def clip(path, frames, spec) -> np.ndarray:
        try:
            return normalize_skeleton(frames[:n], spec)
        except DataError as exc:
            raise DataError(f"{path}: {exc}") from None

    clips = np.stack([clip(args.a, frames_a, spec_a), clip(args.b, frames_b, spec_b)])
    swapped, _ = swap_dynamics(clips, clips[::-1])  # a with b's offsets, b with a's
    out = _out_path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    # file names only, so the bytes do not depend on the working directory
    meta = _meta(config, config.train.seed, source_a=Path(args.a).name,
                 source_b=Path(args.b).name)
    io.save_landmarks(out / "a_with_b_rhythm.npz", swapped[0], fps_a, spec_a, meta)
    io.save_landmarks(out / "b_with_a_rhythm.npz", swapped[1], fps_b, spec_b, meta)
    drift = float(np.abs(temporal_mean(swapped) - temporal_mean(clips)).max())
    print(f"swapped rhythm between {args.a} and {args.b} over {n} frames;"
          f" max mean-posture drift {drift:.2e}; wrote {out}")
    return EXIT_OK


# -- wiring ---------------------------------------------------------------------


def _build_parser() -> _Parser:
    parser = _Parser(prog="speechmotion", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def seed(text: str) -> int:
        value = int(text)
        if value < 0:
            raise argparse.ArgumentTypeError(f"must be non-negative, got {value}")
        return value

    def common(p):
        p.add_argument("--config", help="JSON config file mirroring RunConfig")
        p.add_argument("--set", action="append", metavar="KEY=VALUE",
                       help="override one config key (dotted path), repeatable")

    p = sub.add_parser("make-toy", help="write the synthetic corpus")
    common(p)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=seed, default=None)
    p.set_defaults(func=cmd_make_toy)

    p = sub.add_parser("preprocess", help="build dataset splits from raw files")
    common(p)
    p.add_argument("--landmarks", required=True, help="directory of landmark .npz files")
    p.add_argument("--audio", required=True, help="directory of .wav / waveform .npz files")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_preprocess)

    p = sub.add_parser("train", help="train both branches on a preprocessed dataset")
    common(p)
    p.add_argument("--data", required=True, help="directory written by preprocess")
    p.add_argument("--out", required=True)
    p.add_argument("--quiet", action="store_true")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("generate", help="generate motion for an audio file")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--audio", required=True, help=".wav or waveform .npz")
    p.add_argument("--out", required=True, help="output .npz (or directory with --num-seeds > 1)")
    p.add_argument("--transcript", help="word timing file for the keyword policy")
    p.add_argument("--policy", choices=["keyword", "fixed-interval"])
    p.add_argument("--interval", type=int, default=4)
    p.add_argument("--labels", help="explicit 0/1 schedule string, or zeros/ones")
    p.add_argument("--seed", type=seed, default=0)
    p.add_argument("--num-seeds", type=int, default=1)
    p.add_argument("--speaker", default=None, help="speaker id for feature standardization")
    p.add_argument("--initial-pose", help="landmark file seeding the first clip")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("evaluate", help="write a metric report for a checkpoint")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True, help="directory written by preprocess")
    p.add_argument("--split", choices=["train", "val", "test"], default="test")
    p.add_argument("--out", required=True, help="report JSON path")
    p.add_argument("--seed", type=seed, default=0)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("swap-demo", help="swap rhythmic offsets between two landmark files")
    common(p)
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_swap_demo)

    return parser


# glibc's mallopt parameters (malloc.h)
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3


def _keep_freed_heap() -> None:
    """Keep freed heap pages in the process instead of returning them to the kernel.

    A paper-size training step allocates and frees tens of MB of arrays. With
    glibc's defaults their pages go back to the kernel and fault in again on
    the next step, thousands of minor faults per step. Serving arrays below
    32 MiB from the heap and trimming it only past 128 MiB free avoids that.
    The numbers computed are the same either way. Does nothing where libc has
    no mallopt (not glibc).
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, 32 << 20)
    mallopt(_M_TRIM_THRESHOLD, 128 << 20)


def main(argv=None) -> int:
    _keep_freed_heap()
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        return args.func(args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except (NumericError, FloatingPointError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except ValueError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
