"""The three workloads, run in-process through `speechmotion.cli.main`.

A run repeats whole rounds until `--seconds` have passed. A round starts
with a set-up from an empty directory: `make-toy` and `preprocess`, plus,
for generate-long, training the checkpoint it generates from. It then runs
the workload's own commands. So that every workload reports every
end-to-end metric from samples spread over the window, every round runs at
least one `train`, `evaluate` and `generate`: the train workloads generate
over one toy segment (9 steps), and generate-long's set-up training is its
`train` sample. The short commands (`evaluate`, and `generate` over one
segment) run two or three times a round, between the long ones, so that
each of their rates rests on 10-20 samples spread over the run.

Each rate is the work of all its samples over their summed wall time, and
`setup_s` the median set-up. Every command's output is checked (see
`checks`); a command that exits non-zero aborts the run. Each command
starts from a collected and trimmed heap, as a fresh process would, so
`peak_rss_mb` does not depend on how many rounds ran before.
"""

from __future__ import annotations

import contextlib
import ctypes
import gc
import hashlib
import io
import json
import resource
import shutil
import statistics
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np
from scipy.io import wavfile

import checks
import machine
import reference
import speechmotion
import tracing
from speechmotion import cli

# The program's default frame rate and keyword list, restated here so that the
# reference schedule does not come from the code it checks.
FPS = 15.0
KEYWORDS = ("so", "now", "but", "next", "first", "then", "okay", "well")
N_SEEDS = 8
SMALL_MODEL = ("model.d_e=32", "model.d_z=16", "model.enc_hidden=[128,64]",
               "model.latent_hidden=[32]", "model.rhythm_hidden=64", "model.rhythm_layers=4",
               "train.batch_size=16", "train.lr=1e-3")
ABLATIONS = (("full", ()), ("no_rhythm", ("train.lambda_rhythm=0",)),
             ("no_reg", ("train.lambda_reg=0",)))
DEFAULT_WEIGHTS = {"rec": 1.0, "vae": 0.01, "rhythm": 1.0, "reg": 1.0}
_LIBC = ctypes.CDLL(None)
_LIBC.malloc_trim.argtypes = [ctypes.c_size_t]
_LIBC.malloc_trim.restype = ctypes.c_int


@dataclass(frozen=True)
class Size:
    corpus: tuple[str, ...]  # --set overrides shared by every command
    paper_model: tuple[str, ...]
    small_model: tuple[str, ...]
    t_frames: int
    paper_epochs: int
    small_epochs: int
    setup_epochs: int  # generate-long's set-up checkpoint


FULL = Size(corpus=(), paper_model=(), small_model=SMALL_MODEL, t_frames=64, paper_epochs=4,
            small_epochs=8, setup_epochs=2)
TINY = Size(
    corpus=("t_frames=16", "toy.segments_per_speaker=5", "toy.clips_per_segment=6",
            "evaluate.quality_epochs=10", "evaluate.diversity_samples=8"),
    paper_model=("model.d_e=8", "model.d_z=4", "model.enc_hidden=[16]", "model.latent_hidden=[8]",
                 "model.rhythm_hidden=8", "model.rhythm_layers=2", "train.lr=1e-3"),
    small_model=("model.d_e=6", "model.d_z=3", "model.enc_hidden=[12]", "model.latent_hidden=[6]",
                 "model.rhythm_hidden=6", "model.rhythm_layers=2", "train.batch_size=16",
                 "train.lr=1e-3"),
    t_frames=16, paper_epochs=3, small_epochs=3, setup_epochs=2)


class CommandFailed(RuntimeError):
    pass


@dataclass
class Audio:
    """A generate input: files for the program, labels and features for the reference."""

    name: str
    wav: Path
    transcript: Path
    labels: list[int]
    features: np.ndarray  # reference MFCC at the motion frame rate, unstandardized


@dataclass
class Measurements:
    """Wall times of one phase; train/evaluate/generate entries are (work, seconds[, flops])."""

    setup: list[float] = field(default_factory=list)
    train: list[tuple[float, float, float]] = field(default_factory=list)
    evaluate: list[tuple[float, float]] = field(default_factory=list)
    generate: list[tuple[float, float]] = field(default_factory=list)


class Session:
    """One run's working directory, seed, operation counts and check results."""

    def __init__(self, work: Path, seed: int, size: Size):
        self.work, self.seed, self.size = work, seed, size
        self.toy, self.data = work / "toy", work / "data"
        self.attempted = self.failed = 0
        self.problems: list[str] = []
        self.config_hashes: dict[str, str] = {}
        self.flops_per_sample: dict[str, float] = {}

    def command(self, *argv, sets=()) -> float:
        argv = [str(a) for a in argv] + [x for s in sets for x in ("--set", s)]
        self.attempted += 1
        captured = io.StringIO()
        gc.collect()
        _LIBC.malloc_trim(0)
        start = time.perf_counter()
        with contextlib.redirect_stdout(captured):
            code = cli.main(argv)
        elapsed = time.perf_counter() - start
        if code != 0:
            self.failed += 1
            raise CommandFailed(f"exit {code}: speechmotion {' '.join(argv)}\n{captured.getvalue()}")
        return elapsed

    def check(self, name: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems += [f"{name}: {p}" for p in problems[:5]]

    # -- operations -----------------------------------------------------------------

    def set_up(self, checkpoint: bool, m: Measurements) -> None:
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        elapsed = self.command("make-toy", "--out", self.toy, "--seed", self.seed,
                               sets=self.size.corpus)
        # preprocess keeps the default split seed: which segments land in the
        # test split sets how many speakers `evaluate` scores, and so its work
        elapsed += self.command("preprocess", "--landmarks", self.toy / "landmarks", "--audio",
                                self.toy / "audio", "--out", self.data, sets=self.size.corpus)
        if checkpoint:  # its training is also a train sample
            m.train.append(self.train("setup", self.size.paper_model, self.size.setup_epochs))
            elapsed += m.train[-1][1]
        m.setup.append(elapsed)

    def train(self, run: str, model: tuple[str, ...], epochs: int) -> tuple[float, float, float]:
        out = self.work / run
        sets = self.size.corpus + model + (f"train.epochs={epochs}", f"train.seed={self.seed}")
        elapsed = self.command("train", "--data", self.data, "--out", out, "--quiet", sets=sets)
        log = [json.loads(line) for line in (out / "train_log.jsonl").read_text().splitlines()]
        self.check(f"train {run}", checks.train_log(log, epochs))
        with np.load(self.data / "train.npz") as split:
            samples = split["c"].size * epochs
        if run not in self.flops_per_sample:
            with np.load(out / "checkpoint_final.npz") as ckpt:
                pose, rhythm = _params(ckpt)
                self.config_hashes[run] = json.loads(str(ckpt["meta"]))["config_hash"]
            weights = dict(DEFAULT_WEIGHTS)
            for item in model:
                key, _, value = item.partition("=")
                if key.startswith("train.lambda_"):
                    weights[key.removeprefix("train.lambda_")] = float(value)
            self.flops_per_sample[run] = reference.train_flops_per_sample(
                pose, rhythm, self.size.t_frames, weights)
        return samples, elapsed, samples * self.flops_per_sample[run]

    def evaluate(self, run: str) -> tuple[float, float]:
        out = self.work / "report.json"
        elapsed = self.command("evaluate", "--checkpoint", self.work / run / "checkpoint_best.npz",
                               "--data", self.data, "--out", out, "--seed", self.seed)
        with np.load(self.data / "test.npz") as test:
            m_prev, m_cur, speakers = test["m_prev"], test["m_cur"], test["speaker"]
        self.check(f"evaluate {run}",
                   checks.report(json.loads(out.read_text()), m_prev, m_cur, speakers))
        return len(speakers), elapsed

    def generate(self, run: str, audio: Audio) -> tuple[float, float]:
        out = self.work / "motion"
        shutil.rmtree(out, ignore_errors=True)
        ckpt = self.work / run / "checkpoint_best.npz"
        elapsed = self.command("generate", "--checkpoint", ckpt, "--audio", audio.wav,
                               "--transcript", audio.transcript, "--policy", "keyword",
                               "--num-seeds", N_SEEDS, "--seed", self.seed, "--out", out)
        written = []
        for i in range(N_SEEDS):
            with np.load(out / f"motion_seed{self.seed + i}.npz") as npz:
                written.append(npz["frames"])
        # recomputed every time: training writes a new checkpoint each round
        expected, t = self.reference_motion(run, audio), self.size.t_frames
        self.check(f"generate {audio.name} motion", checks.motion(written, expected, t))
        self.check(f"generate {audio.name} prefix", checks.shared_prefix(written, audio.labels, t))
        return N_SEEDS * len(audio.labels) * t / FPS, elapsed

    def reference_motion(self, run: str, audio: Audio) -> np.ndarray:
        """The motion of every seed as the reference forward computes it from `run`'s checkpoint."""
        with np.load(self.work / run / "checkpoint_best.npz") as ckpt:
            pose, rhythm = _params(ckpt)
            feats = reference.standardize(audio.features, ckpt["stats.pooled_mean"],
                                          ckpt["stats.pooled_std"])
            rest = ckpt["rest_posture"]
        seeds = [self.seed + i for i in range(N_SEEDS)]
        return reference.generate(pose, rhythm, rest, feats, audio.labels, seeds)

    # -- generate inputs ----------------------------------------------------------------

    def segment_audio(self) -> Audio:
        """The first toy segment as it is on disk."""
        wav = sorted((self.toy / "audio").glob("*.wav"))[0]
        transcript = self.toy / "transcripts" / f"{wav.stem}.txt"
        return self._audio("segment", wav, transcript)

    def long_audio(self) -> Audio:
        """Every toy segment joined in name order into one wav and one transcript."""
        parts, lines, offset = [], [], 0.0
        for wav in sorted((self.toy / "audio").glob("*.wav")):
            rate, samples = wavfile.read(wav)
            parts.append(samples)
            for word, start, end in _read_transcript(self.toy / "transcripts" / f"{wav.stem}.txt"):
                lines.append(f"{word} {start + offset:.3f} {end + offset:.3f}")
            offset += len(samples) / rate
        wav, transcript = self.work / "long.wav", self.work / "long.txt"
        wavfile.write(wav, rate, np.concatenate(parts))
        transcript.write_text("\n".join(lines) + "\n")
        return self._audio("long", wav, transcript)

    def _audio(self, name: str, wav: Path, transcript: Path) -> Audio:
        rate, samples = wavfile.read(wav)
        t = self.size.t_frames
        n_steps = int(round(len(samples) / rate * FPS)) // t
        feats = reference.mfcc(samples.astype(np.float64) / 32768.0, rate)
        tokens = [(word, start) for word, start, _ in _read_transcript(transcript)]
        return Audio(name, wav, transcript,
                     reference.keyword_labels(tokens, n_steps, t / FPS, KEYWORDS),
                     reference.motion_rate_features(feats, n_steps * t, FPS))


def _params(ckpt) -> tuple[dict, dict]:
    pose = {k.removeprefix("param.pose."): ckpt[k] for k in ckpt.files if k.startswith("param.pose.")}
    rhythm = {k.removeprefix("param.rhythm."): ckpt[k] for k in ckpt.files
              if k.startswith("param.rhythm.")}
    return pose, rhythm


def _read_transcript(path: Path) -> list[tuple[str, float, float]]:
    rows = []
    for line in path.read_text().splitlines():
        line = line.split("#", 1)[0].strip()
        if line:
            word, start, end = line.split()
            rows.append((word, float(start), float(end)))
    return rows


# -- the workloads ------------------------------------------------------------------------


class Workload:
    """The commands of one round after its set-up."""

    setup_checkpoint = False

    def prepare(self, s: Session) -> Audio:
        """The generate input of this set-up, with its reference features (not timed)."""
        return s.segment_audio()

    def round(self, s: Session, m: Measurements, audio: Audio) -> None:
        raise NotImplementedError


class TrainPaper(Workload):
    def round(self, s, m, audio):
        m.train.append(s.train("paper", s.size.paper_model, s.size.paper_epochs))
        for _ in range(2):
            m.generate.append(s.generate("paper", audio))
            m.evaluate.append(s.evaluate("paper"))
        m.generate.append(s.generate("paper", audio))


class TrainSmall(Workload):
    def round(self, s, m, audio):
        for name, extra in ABLATIONS:
            m.train.append(s.train(name, s.size.small_model + extra, s.size.small_epochs))
            m.generate.append(s.generate(name, audio))
            if name != "no_rhythm":
                m.evaluate.append(s.evaluate("full"))


class GenerateLong(Workload):
    setup_checkpoint = True

    def prepare(self, s):
        return s.long_audio()

    def round(self, s, m, audio):
        m.evaluate.append(s.evaluate("setup"))
        m.generate.append(s.generate("setup", audio))
        m.evaluate.append(s.evaluate("setup"))


WORKLOADS = {"train-paper": TrainPaper, "train-small": TrainSmall, "generate-long": GenerateLong}


# -- runs ----------------------------------------------------------------------------------


def _rate(entries) -> float:
    return sum(e[0] for e in entries) / sum(e[1] for e in entries)


def end_to_end(m: Measurements) -> dict:
    return {
        "setup_s": (statistics.median(m.setup), "s"),
        "train_samples_per_s": (_rate(m.train), "samples/s"),
        "evaluate_samples_per_s": (_rate(m.evaluate), "samples/s"),
        "generate_motion_s_per_s": (_rate(m.generate), "s/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def _window(seconds: float, step) -> None:
    """Call step() in whole rounds until `seconds` have passed (at least once)."""
    start = time.perf_counter()
    step()
    while time.perf_counter() - start < seconds:
        step()


def _round(workload: Workload, s: Session, m: Measurements, tracer=None) -> float:
    """Set up and run one round; returns its seconds, reference work left out.

    With a tracer, the set-up is recorded as phase "setup" and the rest as "round".
    """
    def phase(name):
        return tracer.recording(name) if tracer else contextlib.nullcontext()

    with phase("setup"):
        start = time.perf_counter()
        s.set_up(workload.setup_checkpoint, m)
        elapsed = time.perf_counter() - start
    audio = workload.prepare(s)
    with phase("round"):
        start = time.perf_counter()
        workload.round(s, m, audio)
        return elapsed + time.perf_counter() - start


def run(name: str, seed: int, seconds: float, trace: bool, work: Path, size: Size = FULL,
        spans_path: Path | None = None):
    """Run one workload; returns (session, metrics {name: (value, unit)}, record).

    A traced run writes its spans to `spans_path` when one is given.
    """
    workload = WORKLOADS[name]()
    s = Session(work, seed, size)
    record = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
        "size": asdict(size),
        "workload_hash": hashlib.sha256(
            json.dumps([name, asdict(size)], sort_keys=True).encode()).hexdigest()[:16],
        "env": machine.environment(),
        "gemm": machine.gemm_rates(),
    }
    if not trace:
        m = Measurements()
        _window(seconds, lambda: _round(workload, s, m))
        metrics = end_to_end(m)
        record["measurements"] = asdict(m)
    else:
        tracer = tracing.Tracer(speechmotion)
        plain, traced = Measurements(), Measurements()
        plain_s, traced_s = [], []

        def pair():
            plain_s.append(_round(workload, s, plain))
            traced_s.append(_round(workload, s, traced, tracer))

        _window(seconds, pair)
        overhead = statistics.median(traced_s) - statistics.median(plain_s)
        train_entries = plain.train
        metrics = layer_metrics(tracer.totals("setup"), tracer.totals("round"), len(traced_s))
        metrics.update({
            "train.flops_per_sample": (
                sum(e[2] for e in train_entries) / sum(e[0] for e in train_entries), "flop"),
            "train.achieved_gflops_per_s": (
                sum(e[2] for e in train_entries) / sum(e[1] for e in train_entries) / 1e9,
                "GFLOP/s"),
            "ref.gemm_gflops_per_s": (record["gemm"]["gemm_gflops_per_s"], "GFLOP/s"),
            "ref.conv_gemm_gflops_per_s": (record["gemm"]["conv_gemm_gflops_per_s"], "GFLOP/s"),
            "trace.overhead_s": (overhead, "s"),
        })
        record["round_seconds"] = {"untraced": plain_s, "traced": traced_s}
        record["spans"] = {"setup": tracer.totals("setup"), "round": tracer.totals("round")}
        if spans_path is not None:
            tracer.save(spans_path)
    record["config_hashes"] = s.config_hashes
    record["train_flops_per_sample"] = s.flops_per_sample
    record["metrics"] = metrics
    record["problems"] = s.problems
    return s, metrics, record


# -- per-layer metrics ------------------------------------------------------------------------

TIMED = {  # metric stem -> span name; each gives <stem>_s
    "autodiff.backward": "autodiff.Var.backward",
    "autodiff.conv1d_fwd": "autodiff.conv1d_same",
    "nn.adam_step": "nn.Adam.step",
    "posemode.encode_v": "posemode.PoseModeBranch.encode_v",
    "posemode.decode_v": "posemode.PoseModeBranch.decode_v",
    "posemode.decode_transition_v": "posemode.PoseModeBranch.decode_transition_v",
    "posemode.posterior_v": "posemode.PoseModeBranch.posterior_v",
    "rhythm.forward_v": "rhythm.RhythmBranch.forward_v",
    "training.validation_lvd": "training.validation_lvd",
    "training.build_dataset": "training.build_dataset",
    "generation.generate_sequence": "generation.generate_sequence",
    "audio.extract_mfcc": "audio.extract_mfcc",
    "evaluation.evaluate_checkpoint": "evaluation.evaluate_checkpoint",
    "evaluation.sample_diversity": "evaluation.sample_diversity",
    "metrics.quality_score": "metrics.quality_score",
    "io.load_checkpoint": "io.load_checkpoint",
    "io.save_checkpoint": "io.save_checkpoint",
    "io.save_landmarks": "io.save_landmarks",
    "io.save_split": "io.save_split",
    "io.load_split": "io.load_split",
    "toydata.make_toy_dataset": "toydata.make_toy_dataset",
}
CALLED = {
    "autodiff.backward_calls": ("autodiff.Var.backward",),
    "autodiff.conv1d_calls": ("autodiff.conv1d_same",),
    "nn.adam_step_calls": ("nn.Adam.step",),
    "rhythm.forward_v_calls": ("rhythm.RhythmBranch.forward_v",),
    "posemode.calls": tuple(TIMED[f"posemode.{m}"] for m in
                            ("encode_v", "decode_v", "decode_transition_v", "posterior_v")),
}
COUNTED = {"autodiff.vars_created": "count", "generation.steps": "count",
           "audio.mfcc_audio_s": "s", "io.split_bytes": "B"}


def layer_metrics(setup: dict, rounds: dict, n_rounds: int) -> dict:
    """Layer figures for one set-up plus one round, averaged over the traced rounds."""
    def per_unit(name: str, key: str) -> float:
        return (setup.get(name, {}).get(key, 0.0) + rounds.get(name, {}).get(key, 0.0)) / n_rounds

    out = {f"{stem}_s": (per_unit(span, "s"), "s") for stem, span in TIMED.items()}
    out.update({name: (sum(per_unit(span, "calls") for span in spans), "count")
                for name, spans in CALLED.items()})
    out.update({name: (per_unit(name, "count"), unit) for name, unit in COUNTED.items()})
    steps = out["generation.steps"][0]
    out["generation.step_ms"] = (
        1000.0 * out["generation.generate_sequence_s"][0] / steps if steps else 0.0, "ms")
    return out
