"""End-to-end command-line workflow on a miniature corpus."""

import dataclasses
import json
import re
import shutil
import subprocess
import sys
import warnings

import numpy as np
import pytest

from speechmotion import Checkpoint, DataError, FeatureStats, JointSpec, RunConfig, cli, evaluate_checkpoint, io, nn
from speechmotion.cli import main
from speechmotion.config import plain_hash
from speechmotion.model import param_shapes


def _small_config() -> RunConfig:
    base = RunConfig()
    return base.replace(
        t_frames=16,
        toy=dataclasses.replace(base.toy, speakers=2, segments_per_speaker=5, clips_per_segment=5),
        model=dataclasses.replace(
            base.model,
            d_e=8,
            d_z=4,
            enc_hidden=(16,),
            latent_hidden=(8,),
            rhythm_hidden=8,
            rhythm_layers=2,
        ),
        train=dataclasses.replace(base.train, epochs=2, batch_size=8, lr=1e-3),
    )


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """make-toy -> preprocess -> train, shared by the read-only tests below."""
    root = tmp_path_factory.mktemp("cli")
    config_path = root / "config.json"
    _small_config().save(config_path)
    paths = {
        "root": root,
        "config": config_path,
        "toy": root / "toy",
        "data": root / "data",
        "run": root / "run",
    }
    common = ["--config", str(config_path)]
    assert main(["make-toy", *common, "--out", str(paths["toy"]), "--seed", "3"]) == 0
    assert (
        main(
            [
                "preprocess",
                *common,
                "--landmarks",
                str(paths["toy"] / "landmarks"),
                "--audio",
                str(paths["toy"] / "audio"),
                "--out",
                str(paths["data"]),
            ]
        )
        == 0
    )
    assert main(["train", *common, "--data", str(paths["data"]), "--out", str(paths["run"]), "--quiet"]) == 0
    paths["checkpoint"] = paths["run"] / "checkpoint_final.npz"
    paths["audio"] = paths["toy"] / "audio" / "spk0_seg00.wav"
    paths["transcript"] = paths["toy"] / "transcripts" / "spk0_seg00.txt"
    return paths


def test_workspace_artifacts(workspace):
    assert workspace["checkpoint"].exists()
    assert (workspace["run"] / "checkpoint_best.npz").exists()
    assert (workspace["run"] / "train_log.jsonl").exists()
    manifest = json.loads((workspace["data"] / "manifest.json").read_text())
    counts = manifest["counts"]
    # 10 segments x 4 transition pairs, split 0.8/0.1/0.1 by segment
    assert counts["train"]["total"] == 32
    assert counts["val"]["total"] == 4
    assert counts["test"]["total"] == 4
    assert manifest["errors"] == []


def test_generate_is_reproducible(workspace, tmp_path):
    args = [
        "generate",
        "--checkpoint",
        str(workspace["checkpoint"]),
        "--audio",
        str(workspace["audio"]),
        "--labels",
        "ones",
        "--seed",
        "9",
        "--speaker",
        "spk0",
    ]
    assert main([*args, "--out", str(tmp_path / "a.npz")]) == 0
    assert main([*args, "--out", str(tmp_path / "b.npz")]) == 0
    a, fps_a, _, meta_a = io.load_landmarks(tmp_path / "a.npz")
    b, _, _, _ = io.load_landmarks(tmp_path / "b.npz")
    np.testing.assert_array_equal(a, b)
    assert fps_a == 15.0
    assert meta_a["schedule"] == [1, 1, 1, 1, 1]
    assert (tmp_path / "a.meta.json").exists()


def test_generate_zero_schedule_ignores_seed(workspace, tmp_path):
    outs = []
    for seed in ("1", "2"):
        out = tmp_path / f"s{seed}.npz"
        assert (
            main(
                [
                    "generate",
                    "--checkpoint",
                    str(workspace["checkpoint"]),
                    "--audio",
                    str(workspace["audio"]),
                    "--labels",
                    "zeros",
                    "--seed",
                    seed,
                    "--out",
                    str(out),
                ]
            )
            == 0
        )
        outs.append(io.load_landmarks(out)[0])
    np.testing.assert_array_equal(outs[0], outs[1])


def test_generate_num_seeds_batch(workspace, tmp_path):
    out = tmp_path / "batch"
    assert (
        main(
            [
                "generate",
                "--checkpoint",
                str(workspace["checkpoint"]),
                "--audio",
                str(workspace["audio"]),
                "--labels",
                "ones",
                "--num-seeds",
                "3",
                "--out",
                str(out),
            ]
        )
        == 0
    )
    for seed in range(3):
        assert (out / f"motion_seed{seed}.npz").exists()
    summary = json.loads((out / "batch_summary.json").read_text())
    assert summary["seeds"] == [0, 1, 2]
    assert summary["diversity"] > 0.0


def test_generate_num_seeds_matches_single_seed_runs(workspace, tmp_path):
    common = [
        "generate",
        "--checkpoint",
        str(workspace["checkpoint"]),
        "--audio",
        str(workspace["audio"]),
        "--labels",
        "01101",
    ]
    assert main([*common, "--num-seeds", "3", "--out", str(tmp_path / "batch")]) == 0
    for seed in range(3):
        single = tmp_path / f"single{seed}.npz"
        assert main([*common, "--seed", str(seed), "--out", str(single)]) == 0
        batched = io.load_landmarks(tmp_path / "batch" / f"motion_seed{seed}.npz")[0]
        alone = io.load_landmarks(single)[0]
        assert np.abs(batched - alone).max() <= 1e-12 * np.abs(alone).max()


def test_generate_keyword_policy(workspace, tmp_path):
    out = tmp_path / "kw.npz"
    assert (
        main(
            [
                "generate",
                "--checkpoint",
                str(workspace["checkpoint"]),
                "--audio",
                str(workspace["audio"]),
                "--policy",
                "keyword",
                "--transcript",
                str(workspace["transcript"]),
                "--out",
                str(out),
            ]
        )
        == 0
    )
    meta = json.loads((tmp_path / "kw.meta.json").read_text())
    assert meta["schedule_provenance"] == "keyword"
    # the toy transcript plants a keyword at every posture switch
    assert sum(meta["schedule"]) >= 1
    assert meta["schedule"][0] == 0  # first clip has no predecessor to switch from


def test_evaluate_writes_report(workspace, tmp_path, capsys):
    out = tmp_path / "report.json"
    code = main(
        [
            "evaluate",
            "--checkpoint",
            str(workspace["checkpoint"]),
            "--data",
            str(workspace["data"]),
            "--split",
            "val",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    report = json.loads(out.read_text())
    assert {"per_speaker", "overall"} <= set(report)
    assert report["overall"]["lvd_model"] > 0.0
    assert "overall:" in capsys.readouterr().out


def test_swap_demo(workspace, tmp_path, capsys, monkeypatch):
    a = workspace["toy"] / "landmarks" / "spk0_seg00.npz"
    b = workspace["toy"] / "landmarks" / "spk1_seg01.npz"
    out = tmp_path / "swap"
    assert main(["swap-demo", "--a", str(a), "--b", str(b), "--out", str(out)]) == 0
    assert (out / "a_with_b_rhythm.npz").exists()
    assert (out / "b_with_a_rhythm.npz").exists()
    text = capsys.readouterr().out
    drift = float(text.split("drift")[1].split(";")[0])
    assert drift < 1e-9  # swapping offsets must not move mean postures
    # the same swap named relative to another working directory writes the same bytes
    monkeypatch.chdir(a.parent)
    assert main(["swap-demo", "--a", a.name, "--b", b.name, "--out", str(tmp_path / "rel")]) == 0
    for name in ("a_with_b_rhythm.npz", "b_with_a_rhythm.npz"):
        assert (tmp_path / "rel" / name).read_bytes() == (out / name).read_bytes()


def test_set_override_changes_output(tmp_path):
    out = tmp_path / "toy"
    code = main(
        [
            "make-toy",
            "--set",
            "t_frames=16",
            "--set",
            "toy.speakers=1",
            "--set",
            "toy.segments_per_speaker=2",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    manifest = json.loads((out / "toy_script.json").read_text())
    assert len(manifest["segments"]) == 2
    assert all(s["speaker"] == "spk0" for s in manifest["segments"])


def test_set_number_hashes_alike_typed_as_int_or_float(tmp_path, capsys):
    hashes = []
    for setting in ("fps=15", "fps=15.0", "t_frames=16.0"):
        code = main(["make-toy", "--set", "t_frames=16", "--set", "toy.speakers=1",
                     "--set", "toy.segments_per_speaker=1", "--set", setting,
                     "--out", str(tmp_path / setting)])
        assert code == 0
        hashes.append(json.loads((tmp_path / setting / "toy_script.json").read_text())["config_hash"])
    assert hashes[0] == hashes[1] == hashes[2]


# a value for t_frames, or a whole setting, and what the usage error says of its key
@pytest.mark.parametrize("value, problem", [("NaN", "must be finite, got nan"),
                                            ("16.5", "must be a whole number, got 16.5"),
                                            ("true", "must be a number, got true"),
                                            ("train.epochs=abc", 'must be a number, got "abc"'),
                                            ("mfcc.sample_rate=true", "must be a number, got true"),
                                            ("train.lr=true", "must be a number, got true"),
                                            ("model.enc_hidden=[true]", "must be a number, got true")])
def test_int_setting_takes_only_whole_numbers(tmp_path, capsys, value, problem):
    setting = value if "=" in value else f"t_frames={value}"
    out = tmp_path / "toy"
    code = main(["make-toy", "--set", setting, "--set", "toy.speakers=1",
                 "--set", "toy.segments_per_speaker=2", "--out", str(out)])
    assert code == 1
    assert f"config key {setting.split('=')[0]} {problem}" in capsys.readouterr().err
    assert not out.exists()


def test_output_root_env(tmp_path, monkeypatch):
    monkeypatch.setenv("SPEECHMOTION_OUTPUT_ROOT", str(tmp_path))
    code = main(
        [
            "make-toy",
            "--set",
            "t_frames=16",
            "--set",
            "toy.speakers=1",
            "--set",
            "toy.segments_per_speaker=1",
            "--out",
            "nested/toy",
        ]
    )
    assert code == 0
    assert (tmp_path / "nested" / "toy" / "toy_script.json").exists()


# -- exit codes ---------------------------------------------------------------------------


def test_usage_errors_exit_1(tmp_path, capsys):
    assert main(["make-toy", "--out", str(tmp_path), "--bogus-flag"]) == 1
    assert main(["make-toy", "--out", str(tmp_path), "--set", "no_such.key=1"]) == 1
    assert main(["make-toy", "--out", str(tmp_path), "--set", "t_frames"]) == 1
    assert main(["make-toy", "--out", str(tmp_path), "--set", "model.d_z=0"]) == 1
    assert main(["make-toy", "--out", str(tmp_path), "--set", "mfcc.n_mfcc=0"]) == 1
    assert main(["make-toy", "--out", str(tmp_path), "--config", str(tmp_path / "none.json")]) == 1
    assert f"--config {tmp_path / 'none.json'}: No such file" in capsys.readouterr().err
    assert main(["no-such-command"]) == 1
    generate = ["generate", "--checkpoint", "x.npz", "--audio", "x.wav",
                "--out", str(tmp_path / "g.npz")]
    assert main([*generate, "--num-seeds", "0"]) == 1
    assert main([*generate, "--interval", "0"]) == 1
    # generate and evaluate run from the checkpoint's config and take no config flags
    evaluate = ["evaluate", "--checkpoint", "x.npz", "--data", str(tmp_path),
                "--out", str(tmp_path / "r.json")]
    for command in (generate, evaluate):
        assert main([*command, "--set", "no_such.key=1"]) == 1
        assert main([*command, "--config", str(tmp_path / "none.json")]) == 1


# a bad train setting or a retired key at another value, and what its usage error names
BAD_SETTINGS = {
    "train.lambda_reg=-1": "train.lambda_reg",
    "train.kl_anneal_frac=-0.1": "train.kl_anneal_frac",
    "train.split_train=0": "train.split_train",
    "train.split_val=0.3": "train.split_val",
    "train.split_val=-0.1": "train.split_val",
    "train.lambda_vae=-0.01": "train.lambda_vae",
    "train.kl_anneal=false": "train.kl_anneal_frac",
    "train.kl_anneal=1": "train.kl_anneal",
    "model.activation=relu": "model.activation",
    "generate.condition_on_composed=true": "generate.condition_on_composed",
    "generate.recenter_offsets=true": "generate.recenter_offsets",
    "train.split_test=0.2": "train.split_test",
    "train.split_test=0.100000002": "train.split_test",
    "generate.interval=2": "generate.interval",
    "evaluate.diversity_audios=8": "evaluate.diversity_audios",
    "evaluate.quality_hidden=16": "evaluate.quality_hidden",
    "evaluate.quality_layers=3": "evaluate.quality_layers",
    "evaluate.quality_lr=0.001": "evaluate.quality_lr",
    "evaluate.quality_train_frac=0.5": "evaluate.quality_train_frac",
    "toy.n_postures=2": "toy.n_postures",
    "toy.rhythm_amp=0.1": "toy.rhythm_amp",
    "toy.wander_amp=0": "toy.wander_amp",
    "toy.beat_choices=[2.0]": "toy.beat_choices",
}


# every retired key at the one value a config may still hold it at
RETIRED_SETTINGS = [
    "model.activation=tanh", "train.kl_anneal=true", "train.split_test=0.1",
    "generate.condition_on_composed=false", "generate.recenter_offsets=false",
    "generate.interval=4", "evaluate.diversity_audios=4", "evaluate.quality_hidden=8",
    "evaluate.quality_layers=2", "evaluate.quality_lr=0.01", "evaluate.quality_train_frac=0.7",
    "toy.n_postures=3", "toy.rhythm_amp=0.08", "toy.wander_amp=0.01",
    "toy.beat_choices=[1.25,2.0,3.0]",
]


@pytest.mark.parametrize("source", ["--set", "--config"])
@pytest.mark.parametrize("setting", sorted(BAD_SETTINGS))
def test_bad_setting_is_usage_error_naming_it(tmp_path, capsys, setting, source):
    if source == "--set":
        flag = setting
    else:
        dotted, raw = setting.split("=")
        section, key = dotted.split(".")
        tree = RunConfig().to_dict()
        tree[section][key] = raw if raw == "relu" else json.loads(raw)
        flag = str(tmp_path / "config.json")
        (tmp_path / "config.json").write_text(json.dumps(tree))
    assert main(["make-toy", source, flag, "--out", str(tmp_path / "toy")]) == 1
    assert BAD_SETTINGS[setting] in capsys.readouterr().err


# settings out of the range the layers below need, and the usage error naming the key
CONFIG_TIME_SETTINGS = [
    (["model.rhythm_kernel=4"], "model.rhythm_kernel must be odd"),
    (['joint_names=["a","b"]', 'hand_joints=["a"]'], "config key joint_names: joint 'neck' not in joint names"),
    (["toy.speakers=0"], "toy.speakers must be at least 1, got 0"),
    (["toy.segments_per_speaker=0"], "toy.segments_per_speaker must be at least 1, got 0"),
    (["toy.clips_per_segment=0"], "toy.clips_per_segment must be at least 1, got 0"),
    (["evaluate.diversity_samples=1"], "evaluate.diversity_samples must be at least 2, got 1"),
    (["evaluate.quality_epochs=0"], "evaluate.quality_epochs must be at least 1, got 0"),
    (["train.seed=-3"], "train.seed must be at least 0, got -3"),
    (["generate.keywords=[]"], "generate.keywords must be one or more words without whitespace, got []"),
    (['generate.keywords=[""]'], 'generate.keywords must be one or more words without whitespace, got [""]'),
    (['generate.keywords=["a b"]'],
     'generate.keywords must be one or more words without whitespace, got ["a b"]'),
]


@pytest.mark.parametrize("command", ["make-toy", "preprocess", "train", "swap-demo"])
@pytest.mark.parametrize("sets, message", CONFIG_TIME_SETTINGS)
def test_config_time_setting_is_usage_error_before_any_output(tmp_path, capsys, sets, message, command):
    flags = [arg for item in sets for arg in ("--set", item)]
    inputs = {"make-toy": [], "preprocess": ["--landmarks", "lm", "--audio", "au"],
              "train": ["--data", str(tmp_path)], "swap-demo": ["--a", "a.npz", "--b", "b.npz"]}
    out = tmp_path / "out"
    assert main([command, *flags, *inputs[command], "--out", str(out)]) == 1
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command, inputs", [
    ("make-toy", []),
    ("generate", ["--checkpoint", "x.npz", "--audio", "x.wav"]),
    ("evaluate", ["--checkpoint", "x.npz", "--data", "data"]),
])
def test_negative_seed_is_usage_error_before_any_output(tmp_path, capsys, command, inputs):
    out = tmp_path / "out"
    assert main([command, *inputs, "--seed", "-1", "--out", str(out)]) == 1
    assert "argument --seed: must be non-negative, got -1" in capsys.readouterr().err
    assert not out.exists()


def test_stored_config_out_of_range_is_data_error_naming_checkpoint(workspace, tmp_path, capsys):
    with np.load(workspace["checkpoint"]) as npz:
        arrays = dict(npz)
    tree = json.loads(str(arrays["config"]))
    tree["model"]["rhythm_kernel"] = 4
    arrays["config"] = np.array(json.dumps(tree, sort_keys=True))
    arrays["meta"] = np.array(json.dumps({**json.loads(str(arrays["meta"])), "config_hash": plain_hash(tree)}))
    path = tmp_path / "even_kernel.npz"
    np.savez(path, **arrays)
    assert main(["generate", "--checkpoint", str(path), "--audio", str(workspace["audio"]),
                 "--out", str(tmp_path / "g.npz")]) == 2
    assert f"{path}: stored config is invalid: model.rhythm_kernel must be odd" in capsys.readouterr().err


def test_retired_keys_at_their_one_value_leave_the_config_alone(tmp_path):
    hashes = []
    for name, retired in (("plain", []), ("retired", RETIRED_SETTINGS)):
        sets = [arg for item in retired for arg in ("--set", item)]
        code = main(["make-toy", "--set", "t_frames=16", "--set", "toy.speakers=1",
                     "--set", "toy.segments_per_speaker=1", *sets, "--out", str(tmp_path / name)])
        assert code == 0
        hashes.append(json.loads((tmp_path / name / "toy_script.json").read_text())["config_hash"])
    assert hashes[0] == hashes[1]


def test_checkpoint_with_retired_keys_generates_the_same_motion(tmp_path):
    # the default config as stored before fifteen settings were retired
    tree = RunConfig().to_dict()
    tree["model"]["activation"] = "tanh"
    tree["train"].update(kl_anneal=True, split_test=0.1)
    tree["generate"].update(condition_on_composed=False, recenter_offsets=False, interval=4)
    tree["evaluate"].update(diversity_audios=4, quality_hidden=8, quality_layers=2,
                            quality_lr=0.01, quality_train_frac=0.7)
    tree["toy"].update(n_postures=3, rhythm_amp=0.08, wander_amp=0.01, beat_choices=[1.25, 2.0, 3.0])
    assert plain_hash(tree) == "ce1a7f48eccb236f"

    config = RunConfig()
    rng = np.random.default_rng(2)
    new = tmp_path / "new.npz"
    io.save_checkpoint(new, Checkpoint(
        params=nn.init_params(param_shapes(config), rng),
        config=config,
        feature_stats=FeatureStats.fit({"a": rng.normal(size=(40, config.mfcc.d_s))}),
        rest_posture=rng.normal(size=config.d_m),
        seed=0,
        epoch=1,
    ))
    arrays = dict(np.load(new, allow_pickle=False))
    meta = json.loads(str(arrays["meta"]))
    meta["config_hash"] = plain_hash(tree)
    arrays["config"], arrays["meta"] = json.dumps(tree, sort_keys=True), json.dumps(meta)
    old = tmp_path / "old.npz"
    np.savez(old, **arrays)
    assert io.load_checkpoint(old).config == config

    audio = tmp_path / "a.wav"
    io.save_wav(audio, 0.3 * np.sin(np.linspace(0, 2000, 16000 * 9)), 16000)
    for ckpt in (new, old):
        code = main(["generate", "--checkpoint", str(ckpt), "--audio", str(audio),
                     "--policy", "fixed-interval", "--interval", "2", "--num-seeds", "2",
                     "--out", str(tmp_path / ckpt.stem)])
        assert code == 0
    for seed in (0, 1):
        with np.load(tmp_path / "new" / f"motion_seed{seed}.npz") as a, \
                np.load(tmp_path / "old" / f"motion_seed{seed}.npz") as b:
            np.testing.assert_array_equal(a["frames"], b["frames"])
            assert json.loads(str(a["meta"])) == json.loads(str(b["meta"]))


@pytest.mark.parametrize("n_samples, message", [
    # too short for a window and for a clip: extraction's check comes first
    (300, "waveform of 300 samples is shorter than one window (400)"),
    (8000, "audio of 0.50s yields no full clip of 16 frames"),
])
def test_short_audio_generate_names_file(workspace, tmp_path, capsys, n_samples, message):
    audio = tmp_path / "short.wav"
    io.save_wav(audio, 0.3 * np.sin(np.arange(n_samples) / 8.0), 16000)
    code = main(["generate", "--checkpoint", str(workspace["checkpoint"]), "--audio", str(audio),
                 "--out", str(tmp_path / "x.npz")])
    assert code == 2
    assert f"data error: {audio}: {message}" in capsys.readouterr().err


def test_uncovered_audio_generate_is_data_error(tmp_path, capsys):
    # a 0.2 s window leaves the last 0.2 s of audio without a frame, and the
    # last clip of this audio ends 67 ms before its end
    config = _small_config()
    config = config.replace(mfcc=dataclasses.replace(config.mfcc, window_s=0.2))
    rng = np.random.default_rng(4)
    checkpoint = tmp_path / "wide_window.npz"
    io.save_checkpoint(checkpoint, Checkpoint(
        params=nn.init_params(param_shapes(config), rng),
        config=config,
        feature_stats=FeatureStats.fit({"a": rng.normal(size=(40, config.mfcc.d_s))}),
        rest_posture=rng.normal(size=config.d_m),
        seed=0,
        epoch=1,
    ))
    audio = tmp_path / "a.wav"
    io.save_wav(audio, 0.3 * np.sin(np.arange(136533) / 8.0), 16000)  # 8 clips of 16 frames
    code = main(["generate", "--checkpoint", str(checkpoint), "--audio", str(audio),
                 "--out", str(tmp_path / "x.npz")])
    assert code == 2
    err = capsys.readouterr().err
    assert "audio covers 8.340s but motion runs to 8.467s" in err
    assert str(audio) in err


def test_uncovered_audio_preprocess_skips_naming_file(workspace, tmp_path, capsys):
    audio_dir = tmp_path / "audio"
    audio_dir.mkdir()
    for src in sorted((workspace["toy"] / "audio").glob("*.wav")):
        (audio_dir / src.name).write_bytes(src.read_bytes())
    short = audio_dir / "spk0_seg00.wav"
    samples, rate = io.load_waveform(short)
    io.save_wav(short, samples[: 3 * rate], rate)
    code = main(["preprocess", "--config", str(workspace["config"]), "--landmarks",
                 str(workspace["toy"] / "landmarks"), "--audio", str(audio_dir),
                 "--out", str(tmp_path / "out")])
    assert code == 0
    skipped = [line for line in capsys.readouterr().err.splitlines() if line.startswith("skipped:")]
    assert len(skipped) == 1
    assert skipped[0].endswith(f"{short}: audio covers 2.980s but motion runs to 5.267s")


def test_bad_labels_exit_1(workspace, tmp_path):
    code = main(
        [
            "generate",
            "--checkpoint",
            str(workspace["checkpoint"]),
            "--audio",
            str(workspace["audio"]),
            "--labels",
            "01x",
            "--out",
            str(tmp_path / "x.npz"),
        ]
    )
    assert code == 1


def test_data_errors_exit_2(tmp_path):
    empty = tmp_path / "empty"
    empty.mkdir()
    assert (
        main(
            [
                "preprocess",
                "--landmarks",
                str(empty),
                "--audio",
                str(empty),
                "--out",
                str(tmp_path / "out"),
            ]
        )
        == 2
    )
    assert (
        main(
            [
                "generate",
                "--checkpoint",
                str(tmp_path / "missing.npz"),
                "--audio",
                str(tmp_path / "missing.wav"),
                "--out",
                str(tmp_path / "x.npz"),
            ]
        )
        == 2
    )


def test_set_without_equals_names_the_flag(tmp_path, capsys):
    assert main(["make-toy", "--set", "t_frames", "--out", str(tmp_path / "toy")]) == 1
    assert "--set expects key=value, got 't_frames'" in capsys.readouterr().err
    assert not (tmp_path / "toy").exists()


def test_preprocess_without_landmarks_names_directory(tmp_path, capsys):
    assert main(["preprocess", "--landmarks", str(tmp_path), "--audio", str(tmp_path),
                 "--out", str(tmp_path / "out")]) == 2
    assert f"no .npz landmark files under {tmp_path}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_train_without_train_split_names_directory(workspace, tmp_path, capsys):
    shutil.copy(workspace["data"] / "stats.npz", tmp_path)
    assert main(["train", "--config", str(workspace["config"]), "--data", str(tmp_path),
                 "--out", str(tmp_path / "run")]) == 2
    assert f"{tmp_path}: missing train.npz (run preprocess first)" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


def _resaved_landmarks(workspace, path, rows=slice(None), fps=None, names=None):
    frames, file_fps, spec, meta = io.load_landmarks(workspace["toy"] / "landmarks" / "spk0_seg01.npz")
    if names is not None:
        spec = JointSpec(names=names, hand_indices=spec.hand_indices)
    io.save_landmarks(path, frames[rows], file_fps if fps is None else fps, spec, meta)
    return path


def test_initial_pose_shorter_than_a_clip_names_file(workspace, tmp_path, capsys):
    short = _resaved_landmarks(workspace, tmp_path / "short.npz", rows=slice(15))  # clips are 16 frames
    assert main(["generate", "--checkpoint", str(workspace["checkpoint"]), "--audio", str(workspace["audio"]),
                 "--initial-pose", str(short), "--out", str(tmp_path / "g.npz")]) == 2
    assert f"{short}: too short for one clip" in capsys.readouterr().err
    assert not (tmp_path / "g.npz").exists()


def test_keyword_policy_without_transcript_is_usage_error(workspace, tmp_path, capsys):
    assert main(["generate", "--checkpoint", str(workspace["checkpoint"]), "--audio", str(workspace["audio"]),
                 "--policy", "keyword", "--out", str(tmp_path / "g.npz")]) == 1
    assert "--policy keyword needs --transcript" in capsys.readouterr().err
    assert not (tmp_path / "g.npz").exists()


@pytest.mark.parametrize("case, message", [
    ("joints", "swap-demo inputs use different joint sets"),
    ("fps", "swap-demo inputs disagree on fps: 15.0 vs 30.0"),
    ("one_frame", "swap-demo needs at least two overlapping frames"),
])
def test_swap_demo_inputs_that_do_not_pair_are_data_errors(workspace, tmp_path, capsys, case, message):
    a = workspace["toy"] / "landmarks" / "spk0_seg00.npz"
    renamed = (*RunConfig().joint_names[:-1], "left_thumb")
    b = {"joints": lambda p: _resaved_landmarks(workspace, p, names=renamed),
         "fps": lambda p: _resaved_landmarks(workspace, p, fps=30.0),
         "one_frame": lambda p: _resaved_landmarks(workspace, p, rows=slice(1))}[case](tmp_path / "b.npz")
    assert main(["swap-demo", "--a", str(a), "--b", str(b), "--out", str(tmp_path / "swap")]) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "swap").exists()


def _write_waveform_npz(path, samples, sample_rate):
    np.savez(path, format="waveform/1", samples=samples, sample_rate=np.int64(sample_rate), meta="{}")


BAD_WAVEFORMS = {
    "nan_samples": (np.full(16000, np.nan), 16000),
    "two_d_samples": (np.zeros((16000, 2)), 16000),
    "zero_sample_rate": (np.zeros(16000), 0),
    "shorter_than_window": (np.zeros(100), 16000),
}


@pytest.mark.parametrize("case", sorted(BAD_WAVEFORMS))
def test_bad_waveform_generate_names_file(workspace, tmp_path, capsys, case):
    audio = tmp_path / "bad.npz"
    _write_waveform_npz(audio, *BAD_WAVEFORMS[case])
    code = main(["generate", "--checkpoint", str(workspace["checkpoint"]), "--audio", str(audio),
                 "--out", str(tmp_path / "x.npz")])
    assert code == 2
    assert str(audio) in capsys.readouterr().err


@pytest.mark.parametrize("case", sorted(BAD_WAVEFORMS))
def test_bad_waveform_preprocess_names_file(workspace, tmp_path, capsys, case):
    landmarks, audio_dir = tmp_path / "landmarks", tmp_path / "audio"
    landmarks.mkdir()
    audio_dir.mkdir()
    source = workspace["toy"] / "landmarks" / "spk0_seg00.npz"
    (landmarks / source.name).write_bytes(source.read_bytes())
    audio = audio_dir / source.name
    _write_waveform_npz(audio, *BAD_WAVEFORMS[case])
    code = main(["preprocess", "--config", str(workspace["config"]), "--landmarks", str(landmarks),
                 "--audio", str(audio_dir), "--out", str(tmp_path / "out")])
    assert code == 2
    assert str(audio) in capsys.readouterr().err


# a retired key at a value other than the one it is accepted at
RETIRED_VALUES = {
    "kl_anneal": ("train", "kl_anneal", False),
    "activation": ("model", "activation", "relu"),
    "condition_on_composed": ("generate", "condition_on_composed", True),
    "recenter_offsets": ("generate", "recenter_offsets", True),
    "split_test": ("train", "split_test", 0.1 + 2e-9),
    "interval": ("generate", "interval", 2),
    "diversity_audios": ("evaluate", "diversity_audios", 8),
    "quality_hidden": ("evaluate", "quality_hidden", 16),
    "quality_layers": ("evaluate", "quality_layers", 3),
    "quality_lr": ("evaluate", "quality_lr", 0.001),
    "quality_train_frac": ("evaluate", "quality_train_frac", 0.5),
    "n_postures": ("toy", "n_postures", 2),
    "rhythm_amp": ("toy", "rhythm_amp", 0.1),
    "wander_amp": ("toy", "wander_amp", 0.0),
    "beat_choices": ("toy", "beat_choices", [2.0]),
}


def _write_bad_checkpoint(source, path, case) -> str:
    """Copy a checkpoint with one part broken; returns what the error must name."""
    arrays = dict(np.load(source, allow_pickle=False))
    tree = json.loads(str(arrays["config"]))
    if case == "t_frames":
        tree["t_frames"] = 1
        arrays["config"], key = json.dumps(tree), "t_frames must be at least 2"
    elif case == "d_z":
        tree["model"]["d_z"] = 0
        arrays["config"], key = json.dumps(tree), "model.d_z must be at least 1, got 0"
    elif case in RETIRED_VALUES:
        section, name, value = RETIRED_VALUES[case]
        tree[section][name] = value
        arrays["config"], key = json.dumps(tree), f"{section}.{name} is retired"
    elif case == "config_json":
        arrays["config"], key = "{not json", "stored config is invalid"
    elif case == "no_config":
        key = "no field 'config'"
        del arrays["config"]
    elif case == "config_hash":
        stored = json.loads(str(arrays["meta"]))["config_hash"]
        tree["train"]["seed"] += 1  # same parameter shapes, different config
        arrays["config"] = json.dumps(tree, sort_keys=True)
        key = f"{stored} does not match {RunConfig.from_dict(tree).config_hash()}"
    elif case == "missing":
        key = "pose.h_dec.w1"
        del arrays[f"param.{key}"]
    elif case == "extra":
        key = "pose.f_enc.w9"
        arrays[f"param.{key}"] = np.zeros((2, 2))
    elif case == "wrong_shape":
        key = "rhythm.head.w"
        arrays[f"param.{key}"] = arrays[f"param.{key}"][:, :-1]
    else:
        key = "pose.f_enc.w0"
        arrays[f"param.{key}"][0, 0] = np.nan
    np.savez(path, **arrays)
    return key


@pytest.mark.parametrize("command", ["generate", "evaluate"])
@pytest.mark.parametrize("case", ["config_hash", "missing", "extra", "wrong_shape", "non_finite",
                                  "t_frames", "d_z", "config_json", "no_config", *RETIRED_VALUES])
def test_bad_checkpoint_names_file(workspace, tmp_path, capsys, case, command):
    checkpoint = tmp_path / "bad.npz"
    key = _write_bad_checkpoint(workspace["checkpoint"], checkpoint, case)
    if command == "generate":
        rest = ["--audio", str(workspace["audio"]), "--out", str(tmp_path / "x.npz")]
    else:
        rest = ["--data", str(workspace["data"]), "--out", str(tmp_path / "report.json")]
    code = main([command, "--checkpoint", str(checkpoint), *rest])
    assert code == 2
    err = capsys.readouterr().err
    assert str(checkpoint) in err
    assert key in err


@pytest.mark.parametrize("case", ["nan", "wide"])
def test_bad_rest_posture_names_file(workspace, tmp_path, capsys, case):
    arrays = dict(np.load(workspace["checkpoint"], allow_pickle=False))
    rest = arrays["rest_posture"]
    if case == "nan":
        rest[3] = np.nan
    else:
        arrays["rest_posture"] = np.concatenate([rest, [0.0, 0.0]])
    checkpoint = tmp_path / "bad.npz"
    np.savez(checkpoint, **arrays)
    code = main(["generate", "--checkpoint", str(checkpoint), "--audio", str(workspace["audio"]),
                 "--out", str(tmp_path / "x.npz")])
    assert code == 2
    err = capsys.readouterr().err
    assert str(checkpoint) in err
    assert "rest posture" in err


def test_train_on_split_of_other_clip_length_names_file(workspace, tmp_path, capsys):
    # the workspace split holds 16-frame clips; the default config asks for 64
    code = main(["train", "--data", str(workspace["data"]), "--out", str(tmp_path / "run"), "--quiet"])
    assert code == 2
    err = capsys.readouterr().err
    assert str(workspace["data"] / "train.npz") in err
    assert "clip frames 16, the config needs 64" in err


def test_train_at_other_fps_names_file(workspace, tmp_path, capsys):
    code = main(["train", "--set", "t_frames=16", "--set", "fps=30", "--data", str(workspace["data"]),
                 "--out", str(tmp_path / "run"), "--quiet"])
    assert code == 2
    err = capsys.readouterr().err
    assert str(workspace["data"] / "train.npz") in err
    assert "fps 15.0, the config needs 30" in err
    assert not (tmp_path / "run").exists()


def test_evaluate_checkpoint_of_other_clip_length_names_file(workspace, tmp_path, capsys):
    config = _small_config().replace(t_frames=64)
    checkpoint = tmp_path / "t64.npz"
    io.save_checkpoint(checkpoint, Checkpoint(
        params=nn.init_params(param_shapes(config), np.random.default_rng(0)),
        config=config,
        feature_stats=io.load_checkpoint(workspace["checkpoint"]).feature_stats,
        rest_posture=np.zeros(config.d_m),
        seed=0,
        epoch=1,
    ))
    code = main(["evaluate", "--checkpoint", str(checkpoint), "--data", str(workspace["data"]),
                 "--out", str(tmp_path / "report.json")])
    assert code == 2
    err = capsys.readouterr().err
    assert str(workspace["data"] / "test.npz") in err
    assert "clip frames 16, the config needs 64" in err


def test_evaluate_no_samples_is_data_error(workspace):
    ckpt = io.load_checkpoint(workspace["checkpoint"])
    empty = io.load_split(workspace["data"] / "test.npz", ckpt.config)[:0]
    with pytest.raises(DataError, match="no samples to evaluate"):
        evaluate_checkpoint(ckpt, empty)


def _nan_landmarks(workspace, path):
    # save_landmarks refuses non-finite frames, so write the landmarks/1 keys directly
    with np.load(workspace["toy"] / "landmarks" / "spk0_seg00.npz") as npz:
        arrays = dict(npz)
    arrays["frames"][3, 1] = np.nan
    np.savez(path, **arrays)


def test_non_finite_landmarks_preprocess_names_file(workspace, tmp_path, capsys):
    landmarks, audio_dir = tmp_path / "landmarks", tmp_path / "audio"
    landmarks.mkdir()
    audio_dir.mkdir()
    bad = landmarks / "spk0_seg00.npz"
    _nan_landmarks(workspace, bad)
    (audio_dir / "spk0_seg00.wav").write_bytes(workspace["audio"].read_bytes())
    code = main(["preprocess", "--config", str(workspace["config"]), "--landmarks", str(landmarks),
                 "--audio", str(audio_dir), "--out", str(tmp_path / "out")])
    assert code == 2
    assert str(bad) in capsys.readouterr().err


def _zero_bone_landmarks(workspace, path):
    # the nose on the neck in every frame: the reference bone has no length to scale by
    frames, fps, spec, meta = io.load_landmarks(workspace["toy"] / "landmarks" / "spk0_seg00.npz")
    frames[:, spec.xy("nose")] = frames[:, spec.xy("neck")]
    io.save_landmarks(path, frames, fps, spec, meta)


def _nose_hand_landmarks(workspace, path):
    # the nose as the one hand joint: mode labels would follow the head, not the hands
    frames, fps, spec, meta = io.load_landmarks(workspace["toy"] / "landmarks" / "spk0_seg00.npz")
    nose = JointSpec(names=spec.names, hand_indices=(spec.names.index("nose"),))
    io.save_landmarks(path, frames, fps, nose, meta)


def _preprocess_skipping_one(workspace, tmp_path, capsys, write_bad) -> str:
    """Preprocess the toy landmarks with spk0_seg00 rewritten by `write_bad`;
    returns the one skipped line, which stderr and the manifest must both give."""
    landmarks, audio_dir = tmp_path / "landmarks", workspace["toy"] / "audio"
    landmarks.mkdir()
    for src in sorted((workspace["toy"] / "landmarks").glob("*.npz")):
        (landmarks / src.name).write_bytes(src.read_bytes())
    bad = landmarks / "spk0_seg00.npz"
    write_bad(workspace, bad)
    code = main(["preprocess", "--config", str(workspace["config"]), "--landmarks", str(landmarks),
                 "--audio", str(audio_dir), "--out", str(tmp_path / "out")])
    assert code == 0
    skipped = [line for line in capsys.readouterr().err.splitlines() if line.startswith("skipped:")]
    assert len(skipped) == 1 and str(bad) in skipped[0]
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert manifest["errors"] == [skipped[0].removeprefix("skipped: ")]
    return skipped[0]


def test_zero_bone_landmarks_preprocess_skips_naming_file(workspace, tmp_path, capsys):
    skipped = _preprocess_skipping_one(workspace, tmp_path, capsys, _zero_bone_landmarks)
    assert "degenerate reference bone" in skipped


def test_other_hand_joints_preprocess_skips_naming_file(workspace, tmp_path, capsys):
    skipped = _preprocess_skipping_one(workspace, tmp_path, capsys, _nose_hand_landmarks)
    assert "hand joints ['nose']" in skipped


def test_zero_bone_swap_demo_input_names_file(workspace, tmp_path, capsys):
    good = workspace["toy"] / "landmarks" / "spk1_seg01.npz"
    bad = tmp_path / "pose.npz"
    _zero_bone_landmarks(workspace, bad)
    for a, b in ((bad, good), (good, bad)):
        code = main(["swap-demo", "--a", str(a), "--b", str(b), "--out", str(tmp_path / "swap")])
        assert code == 2
        assert f"{bad}: degenerate reference bone" in capsys.readouterr().err


def _fps_landmarks(fps):
    """A writer of the toy landmarks with their fps set to `fps`."""
    def write(workspace, path):
        # save_landmarks refuses a bad fps, so write the landmarks/1 keys directly
        with np.load(workspace["toy"] / "landmarks" / "spk0_seg00.npz") as npz:
            arrays = dict(npz)
        np.savez(path, **{**arrays, "fps": np.float64(fps)})

    return write


BAD_FPS = [np.nan, 0.0, -15.0]


def _fps_error(fps) -> str:
    if fps == 30.0:
        return "fps 30.0 does not match configured 15.0"
    return f"fps must be finite and positive, got {fps}"


@pytest.mark.parametrize("fps", BAD_FPS)
def test_bad_fps_swap_demo_input_names_file(workspace, tmp_path, capsys, fps):
    good = workspace["toy"] / "landmarks" / "spk1_seg01.npz"
    bad = tmp_path / "pose.npz"
    _fps_landmarks(fps)(workspace, bad)
    for a, b in ((bad, good), (good, bad), (bad, bad)):
        code = main(["swap-demo", "--a", str(a), "--b", str(b), "--out", str(tmp_path / "swap")])
        assert code == 2
        assert f"{bad}: {_fps_error(fps)}" in capsys.readouterr().err


@pytest.mark.parametrize("fps", [*BAD_FPS, 30.0])
def test_bad_fps_landmarks_preprocess_skips_naming_file(workspace, tmp_path, capsys, fps):
    skipped = _preprocess_skipping_one(workspace, tmp_path, capsys, _fps_landmarks(fps))
    assert skipped.endswith(f"spk0_seg00.npz: {_fps_error(fps)}")


@pytest.mark.parametrize("fps", [*BAD_FPS, 30.0])
def test_bad_fps_initial_pose_names_file(workspace, tmp_path, capsys, fps):
    bad = tmp_path / "pose.npz"
    _fps_landmarks(fps)(workspace, bad)
    code = main(["generate", "--checkpoint", str(workspace["checkpoint"]), "--audio",
                 str(workspace["audio"]), "--initial-pose", str(bad), "--out", str(tmp_path / "x.npz")])
    assert code == 2
    assert f"{bad}: {_fps_error(fps)}" in capsys.readouterr().err


@pytest.mark.parametrize("case", ["non_finite", "other_joints", "zero_bone", "other_hands"])
def test_bad_initial_pose_names_file(workspace, tmp_path, capsys, case):
    bad = tmp_path / "pose.npz"
    if case == "non_finite":
        _nan_landmarks(workspace, bad)
    elif case == "zero_bone":
        _zero_bone_landmarks(workspace, bad)
    elif case == "other_hands":
        _nose_hand_landmarks(workspace, bad)
    else:
        spec = JointSpec(names=("nose", "neck", "right_palm"), hand_indices=(2,))
        io.save_landmarks(bad, np.random.default_rng(0).normal(size=(40, spec.d_m)), 15.0, spec)
    code = main(["generate", "--checkpoint", str(workspace["checkpoint"]), "--audio",
                 str(workspace["audio"]), "--initial-pose", str(bad), "--out", str(tmp_path / "x.npz")])
    assert code == 2
    assert str(bad) in capsys.readouterr().err


@pytest.mark.parametrize("text, message", [
    ("so nan 1.0\n", "bad token timing for 'so': [nan, 1.0]"),
    ("now 2.0 2.5\nso 1.0 1.2\n", "transcript tokens are not sorted by start time"),
])
def test_bad_transcript_generate_names_file(workspace, tmp_path, capsys, text, message):
    transcript = tmp_path / "words.txt"
    transcript.write_text(text)
    code = main(["generate", "--checkpoint", str(workspace["checkpoint"]), "--audio", str(workspace["audio"]),
                 "--policy", "keyword", "--transcript", str(transcript), "--out", str(tmp_path / "x.npz")])
    assert code == 2
    assert f"data error: {transcript}: {message}" in capsys.readouterr().err


# -- every bad field of every npz format, derived from the formats io declares ------------


def _mutations(field) -> list[str]:
    names = ["drop", "0d_string", "0d_nan", "0d_number", "extra_axis", "zero_rows"]
    return names + (["non_finite"] if field.kind == "float" and field.shape else [])


def _mutated(value: np.ndarray, mutation: str):
    if mutation == "0d_string":  # a number as text, which no writer stores
        return np.array(str(value.item()) if value.ndim == 0 and value.dtype.kind in "iuf" else "1")
    if mutation == "non_finite":
        bad = value.copy()
        bad.flat[-1] = np.nan
        return bad
    return {"0d_nan": np.float64(np.nan), "0d_number": np.float64(-1.0), "extra_axis": value[None],
            "zero_rows": value[:0] if value.ndim else np.zeros(0, dtype=value.dtype)}[mutation]


def _field_cases():
    layout = param_shapes(_small_config())
    for fmt, table in io._FORMATS.items():
        fields = {"format": io._Field("str"), **table}
        if fmt == "checkpoint/1":  # the first field of the stored config's layout
            key = next(iter(layout))
            fields[f"param.{key}"] = io._Field("float", layout[key])
        for key, field in fields.items():
            for mutation in _mutations(field):
                yield pytest.param(fmt, key, field.label or key, mutation, id=f"{fmt}-{key}-{mutation}")


def _readers(workspace, tmp_path, fmt):
    """A good file of format `fmt`, where to write it broken, and every command that reads it."""
    data, out = tmp_path / "data", str(tmp_path / "out")
    shutil.copytree(workspace["data"], data)

    def generate(checkpoint=workspace["checkpoint"], audio=workspace["audio"]):
        return ["generate", "--checkpoint", str(checkpoint), "--audio", str(audio), "--out", f"{out}.npz"]

    def evaluate(checkpoint=workspace["checkpoint"]):
        return ["evaluate", "--checkpoint", str(checkpoint), "--data", str(data), "--out", f"{out}.json"]

    train = ["train", "--config", str(workspace["config"]), "--data", str(data), "--out", out, "--quiet"]
    if fmt == "landmarks/1":
        good, bad = workspace["toy"] / "landmarks" / "spk0_seg01.npz", tmp_path / "pose.npz"
        return good, bad, [[*generate(), "--initial-pose", str(bad)],
                           ["swap-demo", "--a", str(bad), "--b", str(good), "--out", out]]
    if fmt == "waveform/1":
        good, bad = tmp_path / "good.npz", tmp_path / "audio.npz"
        _write_waveform_npz(good, *io.load_waveform(workspace["audio"]))
        return good, bad, [generate(audio=bad)]
    if fmt == "checkpoint/1":
        bad = tmp_path / "checkpoint.npz"
        return workspace["checkpoint"], bad, [generate(checkpoint=bad), evaluate(checkpoint=bad)]
    if fmt == "stats/1":
        return workspace["data"] / "stats.npz", data / "stats.npz", [train]
    return workspace["data"] / "test.npz", data / "test.npz", [evaluate(), train]


@pytest.mark.parametrize("fmt, key, name, mutation", _field_cases())
def test_every_bad_field_is_data_error_naming_file_and_field(workspace, tmp_path, capsys, fmt, key, name,
                                                              mutation):
    good, bad, commands = _readers(workspace, tmp_path, fmt)
    arrays = dict(np.load(good, allow_pickle=False))
    value = arrays.pop(key)
    if mutation != "drop":
        arrays[key] = _mutated(value, mutation)
    np.savez(bad, **arrays)
    for command in commands:
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no numpy warning before the error
            code = main(command)
        lines = capsys.readouterr().err.splitlines()
        assert code == 2, (command[0], lines)
        assert len(lines) == 1 and lines[0].startswith(f"data error: {bad}: "), (command[0], lines)
        named = (re.search(rf"(?<![\w.]){re.escape(n)}(?!\w)", lines[0]) for n in (key, name))
        assert any(named), (command[0], lines)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # overflow is the point
def test_numeric_error_exit_3(workspace, tmp_path, capsys):
    code = main(
        [
            "train",
            "--config",
            str(workspace["config"]),
            "--set",
            "train.lr=1e8",
            "--set",
            "train.epochs=1",
            "--data",
            str(workspace["data"]),
            "--out",
            str(tmp_path / "run"),
            "--quiet",
        ]
    )
    assert code == 3
    assert "diverged" in capsys.readouterr().err


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # overflow is the point
def test_non_finite_generation_exit_3(workspace, tmp_path, capsys):
    # a finite checkpoint whose pose decoder output, 1.7e308 + 16 tanh(1) 1e307, overflows
    arrays = dict(np.load(workspace["checkpoint"], allow_pickle=False))
    arrays["param.pose.f_dec.w0"][:] = 0.0
    arrays["param.pose.f_dec.b0"][:] = 1.0
    arrays["param.pose.f_dec.w1"][:] = 1e307
    arrays["param.pose.f_dec.b1"][:] = 1.7e308
    checkpoint = tmp_path / "overflow.npz"
    np.savez(checkpoint, **arrays)
    code = main(["generate", "--checkpoint", str(checkpoint), "--audio", str(workspace["audio"]),
                 "--out", str(tmp_path / "x.npz")])
    assert code == 3
    assert "non-finite motion at step 0" in capsys.readouterr().err


# `train` through the Python API alone: the process keeps glibc's default allocator
_LIBRARY_TRAIN = """
import sys
from pathlib import Path
from speechmotion import DatasetSplit, RunConfig, io, train
config, data, out = RunConfig.load(sys.argv[1]), Path(sys.argv[2]), Path(sys.argv[3])
splits = [io.load_split(data / f"{name}.npz", config) for name in ("train", "val", "test")]
split = DatasetSplit(*splits, feature_stats=io.load_stats(data / "stats.npz"))
out.mkdir()
result = train(split, config, log_path=out / "train_log.jsonl", progress=False)
io.save_checkpoint(out / "checkpoint_final.npz", result.final)
io.save_checkpoint(out / "checkpoint_best.npz", result.best)
"""


def test_cli_allocator_setting_leaves_training_output_unchanged(workspace, tmp_path):
    config, data = str(workspace["config"]), str(workspace["data"])
    for command in (
        ["-m", "speechmotion", "train", "--config", config, "--data", data,
         "--out", str(tmp_path / "cli"), "--quiet"],
        ["-c", _LIBRARY_TRAIN, config, data, str(tmp_path / "library")],
    ):
        proc = subprocess.run([sys.executable, *command], capture_output=True, text=True,
                              timeout=600)
        assert proc.returncode == 0, proc.stderr
    for name in ("checkpoint_final.npz", "checkpoint_best.npz", "train_log.jsonl"):
        assert (tmp_path / "cli" / name).read_bytes() == (tmp_path / "library" / name).read_bytes()


def _no_libc(name):
    raise OSError("no C library")


@pytest.mark.parametrize("cdll", [lambda name: object(), _no_libc], ids=["no-mallopt", "no-libc"])
def test_keep_freed_heap_without_mallopt_does_nothing(monkeypatch, capsys, cdll):
    monkeypatch.setattr(cli.ctypes, "CDLL", cdll)
    cli._keep_freed_heap()
    assert capsys.readouterr() == ("", "")


def test_module_entry_point(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "speechmotion", "--help"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "make-toy" in proc.stdout
