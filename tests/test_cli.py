import csv
import json
import os
import re
import zlib
from pathlib import Path

import numpy as np
import pytest

from rdecomp import checkpoint, cli, config as config_mod, decomposer, oracle, recipes
from rdecomp.policies import CategoricalPolicy
from rdecomp.trajectory import Trajectory, from_record, read_jsonl, to_record, write_jsonl

BASE_CONFIG = {
    "schema_version": 1,
    "env": "chain",
    "env_params": {"n_states": 4, "horizon": 5},
    "iterations": 2,
    "ppo_batch": 40,
    "minibatch": 20,
    "buffer_capacity": 8,
    "regression_minibatch": 4,
    "seeds": [1, 2],
    "output_dir": "exp",
}


def write_config(tmp_path, **overrides):
    doc = {**BASE_CONFIG, **overrides}
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    return str(path)


# ---------------------------------------------------------------------------
# config schema


def test_config_round_trip(tmp_path):
    exp = config_mod.load(write_config(tmp_path))
    assert exp.train.env == "chain" and exp.seeds == [1, 2]
    out = tmp_path / "copy.json"
    config_mod.save(str(out), exp)
    again = config_mod.load(str(out))
    assert again.train == exp.train and again.seeds == exp.seeds


def test_unknown_keys_rejected(tmp_path):
    with pytest.raises(config_mod.ConfigError, match="unknown config keys.*pop_batch"):
        config_mod.load(write_config(tmp_path, pop_batch=7))


def test_schema_version_required(tmp_path):
    with pytest.raises(config_mod.ConfigError, match="schema_version"):
        config_mod.load(write_config(tmp_path, schema_version=99))


def test_type_checked_fields(tmp_path):
    with pytest.raises(config_mod.ConfigError, match="iterations"):
        config_mod.load(write_config(tmp_path, iterations="many"))
    with pytest.raises(config_mod.ConfigError, match="boolean"):
        config_mod.load(write_config(tmp_path, bias_correction="yes"))
    with pytest.raises(config_mod.ConfigError, match="seeds"):
        config_mod.load(write_config(tmp_path, seeds=["a"]))


@pytest.mark.parametrize("key,value", [
    ("iterations", True), ("policy_lr", True), ("hidden", [True, 3]), ("hidden", [64, 0]),
    ("hidden", [64, 1.5]), ("seeds", [True]),
])
def test_booleans_and_bad_elements_rejected(key, value):
    with pytest.raises(config_mod.ConfigError, match=key):
        config_mod.from_dict({**BASE_CONFIG, key: value})


@pytest.mark.parametrize("overrides,message", [
    ({"architecture": "ff", "interval_kind": "prefixes"},
     "ff predictor does not support 'prefixes' intervals"),
    ({"architecture": "mlp"}, "unknown architecture 'mlp'"),
    # what the config.json of a recurrent run on singletons, which earlier versions built, holds
    ({"architecture": "recurrent", "interval_kind": "singletons"},
     "recurrent predictor does not support 'singletons' intervals"),
])
def test_unbuildable_predictor_rejected_before_training(tmp_path, monkeypatch, capsys,
                                                         overrides, message):
    with pytest.raises(config_mod.ConfigError, match=message):
        config_mod.from_dict({"schema_version": 1, **overrides})
    monkeypatch.setenv("RDECOMP_OUTPUT_ROOT", str(tmp_path / "runs"))
    assert cli.main(["train", "--config", write_config(tmp_path, **overrides)]) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "runs").exists()


def test_domain_validation_surfaces(tmp_path):
    with pytest.raises(config_mod.ConfigError, match="clip"):
        config_mod.load(write_config(tmp_path, clip=1.5))
    with pytest.raises(config_mod.ConfigError, match="reward_optimizer"):
        config_mod.load(write_config(tmp_path, reward_optimizer="Adam"))
    with pytest.raises(config_mod.ConfigError, match="interval_kind"):
        config_mod.load(write_config(tmp_path, interval_kind="pairs"))


@pytest.mark.parametrize("key,value", [
    ("ppo_batch", 0), ("minibatch", 0), ("epochs", 0), ("buffer_capacity", 0),
    ("reservoir_capacity", -1), ("regression_epochs", 0), ("regression_minibatch", 0),
    ("gamma", -3.0), ("gamma", 1.5), ("lam", -0.1), ("lam", 2.0),
])
def test_train_rejects_bad_sizes(tmp_path, monkeypatch, capsys, key, value):
    monkeypatch.setenv("RDECOMP_OUTPUT_ROOT", str(tmp_path / "runs"))
    assert cli.main(["train", "--config", write_config(tmp_path, **{key: value})]) == 2
    assert capsys.readouterr().err.startswith(f"invalid config: {key} must be")
    assert not (tmp_path / "runs").exists()


def test_train_rejects_the_baseline_without_bias_correction(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("RDECOMP_OUTPUT_ROOT", str(tmp_path / "runs"))
    cfg = write_config(tmp_path, use_decomposer=False, bias_correction=False)
    assert cli.main(["train", "--config", cfg]) == 2
    assert capsys.readouterr().err.startswith("invalid config: bias_correction")
    assert not (tmp_path / "runs").exists()


@pytest.mark.parametrize("overrides,message", [
    ({"env": "chian"}, "unknown environment 'chian'"),
    ({"env_params": {"n_state": 5}}, "unexpected keyword argument 'n_state'"),
    ({"env": "grid", "env_params": {"size": 4.5}}, "size must be an integer >= 2"),
    ({"env": "point_mass", "env_params": {"horizon": 0}}, "horizon must be an integer >= 1"),
    ({"seeds": []}, "seeds must be a non-empty list of distinct integers"),
    ({"seeds": [3, 1, 3]}, "seeds must be a non-empty list of distinct integers"),
])
def test_train_rejects_a_bad_env_or_seed_list(tmp_path, monkeypatch, capsys, overrides,
                                              message):
    monkeypatch.setenv("RDECOMP_OUTPUT_ROOT", str(tmp_path / "runs"))
    assert cli.main(["train", "--config", write_config(tmp_path, **overrides)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("invalid config: ") and message in err
    assert not (tmp_path / "runs").exists()


def test_train_rejects_a_name_that_is_not_a_string(tmp_path, monkeypatch, capsys):
    with pytest.raises(config_mod.ConfigError, match="name must be a string"):
        config_mod.from_dict({"schema_version": 1, "name": 5})
    monkeypatch.setenv("RDECOMP_OUTPUT_ROOT", str(tmp_path / "runs"))
    assert cli.main(["train", "--config", write_config(tmp_path, name=5)]) == 2
    assert capsys.readouterr().err.startswith("invalid config: name must be a string")
    assert not (tmp_path / "runs").exists()


# A config.json as `rdecomp train` wrote it before five switches were
# retired: every TrainConfig field of that version, the retired ones at the
# values the trainer still implements.
CONFIG_WITH_RETIRED_KEYS = {
    "architecture": "attention", "bias_correction": True, "buffer_capacity": 8,
    "buffer_scheme": "HO", "clip": 0.2, "entropy_coef": 0.0, "env": "chain",
    "env_params": {"horizon": 5, "n_states": 4}, "epochs": 5, "gamma": 0.99,
    "hidden": [64, 64], "interval_kind": "prefixes", "iterations": 2, "lam": 0.95,
    "minibatch": 20, "model_scale": "desk", "name": "experiment",
    "normalize_targets": True, "output_dir": "exp", "policy_lr": 0.0001,
    "positional": True, "ppo_batch": 40, "regression_epochs": 5,
    "regression_minibatch": 4, "reservoir_capacity": 500, "reward_lr": 0.001,
    "reward_optimizer": "adam", "schema_version": 1, "seeds": [1],
    "two_value_heads": True, "use_decomposer": True,
}


def test_config_with_retired_keys_at_their_values_loads():
    exp = config_mod.from_dict(CONFIG_WITH_RETIRED_KEYS)
    kept = {k: v for k, v in CONFIG_WITH_RETIRED_KEYS.items()
            if k not in config_mod.RETIRED_KEYS}
    assert exp.to_dict() == kept


@pytest.mark.parametrize("key,value", [
    ("model_scale", "paper"), ("model_scale", "Desk"),
    ("positional", False), ("positional", 1),
    ("two_value_heads", False), ("two_value_heads", 1),
    ("normalize_targets", False), ("normalize_targets", 1),
    ("reward_optimizer", "sgd"), ("reward_optimizer", "Adam"),
])
def test_retired_key_at_another_value_rejected(key, value):
    with pytest.raises(config_mod.ConfigError, match=f"{key!r} is retired"):
        config_mod.from_dict({**CONFIG_WITH_RETIRED_KEYS, key: value})


def test_train_with_retired_key_at_another_value_exits_2(tmp_path, capsys):
    assert cli.main(["train", "--config", write_config(tmp_path, positional=False)]) == 2
    assert "invalid config: field 'positional' is retired" in capsys.readouterr().err


def test_readme_training_config_loads_and_ships():
    root = Path(__file__).parent.parent
    readme = (root / "README.md").read_text()
    block = re.search(r"A minimal training config[^\n]*\n\s*```json\n(.*?)```", readme, re.S)
    doc = json.loads(block.group(1))
    exp = config_mod.from_dict(doc)
    assert exp.train.env == doc["env"] and exp.seeds == doc["seeds"]
    assert json.loads((root / "configs" / "grid-full.json").read_text()) == doc


# ---------------------------------------------------------------------------
# trajectory records


def test_trajectory_record_round_trips_at_full_precision():
    rng = np.random.default_rng(0)
    traj = Trajectory(
        states=rng.normal(size=(3, 2)) * 1e-7,
        actions=rng.normal(size=(3, 2)),
        episodic_return=0.1 + 0.2,  # a value with no short decimal form
    )
    rec = json.loads(json.dumps(to_record(traj)))
    # a line as earlier versions wrote it, with null seed and iteration keys
    for back in (from_record(rec), from_record({**rec, "seed": None, "iteration": None})):
        np.testing.assert_array_equal(back.states, traj.states)
        np.testing.assert_array_equal(back.actions, traj.actions)
        assert back.episodic_return == traj.episodic_return


# ---------------------------------------------------------------------------
# train command


def test_train_writes_per_seed_artifacts(tmp_path, monkeypatch):
    monkeypatch.setenv("RDECOMP_OUTPUT_ROOT", str(tmp_path))
    code = cli.main(["train", "--config", write_config(tmp_path)])
    assert code == 0
    out = tmp_path / "exp"
    for seed in (1, 2):
        metrics = out / f"metrics_seed{seed}.csv"
        assert metrics.exists()
        rows = list(csv.DictReader(metrics.open()))
        assert len(rows) == 2
        assert list(rows[0]) == list(cli.trainer.METRIC_COLUMNS)
        assert (out / f"policy_seed{seed}.json").exists()
        assert (out / f"reward_model_seed{seed}.json").exists()
        assert (out / f"buffer_seed{seed}.jsonl").exists()
    assert (out / "config.json").exists()


def test_train_rerun_is_bit_identical(tmp_path, monkeypatch):
    monkeypatch.setenv("RDECOMP_OUTPUT_ROOT", str(tmp_path))
    cfg = write_config(tmp_path, seeds=[3], output_dir="a")
    assert cli.main(["train", "--config", cfg]) == 0
    first = (tmp_path / "a" / "metrics_seed3.csv").read_bytes()
    cfg2 = write_config(tmp_path, seeds=[3], output_dir="b")
    assert cli.main(["train", "--config", cfg2]) == 0
    second = (tmp_path / "b" / "metrics_seed3.csv").read_bytes()
    assert first == second


def test_train_resume_continues(tmp_path, monkeypatch):
    monkeypatch.setenv("RDECOMP_OUTPUT_ROOT", str(tmp_path))
    cfg = write_config(tmp_path, seeds=[4], output_dir="r", iterations=2)
    assert cli.main(["train", "--config", cfg]) == 0
    cfg_more = write_config(tmp_path, seeds=[4], output_dir="r", iterations=4)
    assert cli.main(["train", "--config", cfg_more, "--resume"]) == 0
    rows = list(csv.DictReader((tmp_path / "r" / "metrics_seed4.csv").open()))
    assert [int(r["iteration"]) for r in rows] == [0, 1, 2, 3]


@pytest.mark.parametrize("crash_call", [1, 3])
def test_resume_after_crash_mid_step_is_bit_identical(tmp_path, monkeypatch, crash_call):
    monkeypatch.setenv("RDECOMP_OUTPUT_ROOT", str(tmp_path))
    assert cli.main(["train", "--config", write_config(
        tmp_path, seeds=[4], output_dir="straight", iterations=4)]) == 0
    cfg = write_config(tmp_path, seeds=[4], output_dir="crashed", iterations=4)
    real_update = cli.trainer.ppo_update
    calls = []

    def crash_in_ppo(*args, **kwargs):
        # rollout, buffer insert and regression of this step have already run
        calls.append(1)
        if len(calls) == crash_call:
            raise RuntimeError("crash mid-step")
        return real_update(*args, **kwargs)

    with monkeypatch.context() as patch:
        patch.setattr(cli.trainer, "ppo_update", crash_in_ppo)
        with pytest.raises(RuntimeError, match="crash mid-step"):
            cli.main(["train", "--config", cfg])
    rows = list(csv.DictReader((tmp_path / "crashed" / "metrics_seed4.csv").open()))
    assert len(rows) == crash_call - 1
    assert cli.main(["train", "--config", cfg, "--resume"]) == 0
    assert ((tmp_path / "crashed" / "metrics_seed4.csv").read_bytes()
            == (tmp_path / "straight" / "metrics_seed4.csv").read_bytes())


def test_resume_after_crash_in_save_keeps_one_row_per_iteration(tmp_path, monkeypatch):
    monkeypatch.setenv("RDECOMP_OUTPUT_ROOT", str(tmp_path))
    assert cli.main(["train", "--config", write_config(
        tmp_path, seeds=[4], output_dir="straight", iterations=4)]) == 0
    cfg = write_config(tmp_path, seeds=[4], output_dir="crashed", iterations=4)
    real_save = cli.trainer.Trainer.save

    def crash_in_save(self, out_dir, suffix=""):
        # iteration 1's row is written, no file of its save yet
        if self.iteration == 2:
            raise RuntimeError("crash in save")
        return real_save(self, out_dir, suffix)

    with monkeypatch.context() as patch:
        patch.setattr(cli.trainer.Trainer, "save", crash_in_save)
        with pytest.raises(RuntimeError, match="crash in save"):
            cli.main(["train", "--config", cfg])
    assert cli.main(["train", "--config", cfg, "--resume"]) == 0
    assert ((tmp_path / "crashed" / "metrics_seed4.csv").read_bytes()
            == (tmp_path / "straight" / "metrics_seed4.csv").read_bytes())


# A save writes 10 files: the policy, value, reward model and optimizer
# checkpoints (blob, then manifest), the buffer, and the state last.
@pytest.mark.parametrize("written", range(10))
def test_crash_between_files_of_one_save_never_resumes_a_mix(tmp_path, monkeypatch, capsys,
                                                             written):
    monkeypatch.setenv("RDECOMP_OUTPUT_ROOT", str(tmp_path))
    assert cli.main(["train", "--config", write_config(
        tmp_path, seeds=[4], output_dir="straight", iterations=2)]) == 0
    cfg = write_config(tmp_path, seeds=[4], output_dir="crashed", iterations=2)
    real_write = checkpoint.write_atomic
    calls = []

    def crash_in_second_save(path, data):
        # the config, the metrics header and the 10 files of the first save
        # come first
        calls.append(os.path.basename(path))
        if len(calls) == 2 + 10 + written + 1:
            raise RuntimeError("crash in save")
        real_write(path, data)

    with monkeypatch.context() as patch:
        patch.setattr(checkpoint, "write_atomic", crash_in_second_save)
        with pytest.raises(RuntimeError, match="crash in save"):
            cli.main(["train", "--config", cfg])
    assert calls[:3] == ["config.json", "metrics_seed4.csv", "policy_seed4.bin"]
    assert calls[11:13] == ["state_seed4.json", "policy_seed4.bin"]
    capsys.readouterr()
    code = cli.main(["train", "--config", cfg, "--resume"])
    if written == 0:
        # every file is still the first save's: the resume is exact
        assert code == 0
        assert ((tmp_path / "crashed" / "metrics_seed4.csv").read_bytes()
                == (tmp_path / "straight" / "metrics_seed4.csv").read_bytes())
    else:
        assert code == 2
        assert capsys.readouterr().err.startswith("cannot resume: ")


def test_resume_without_flat_optimizer_state_exits_2(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("RDECOMP_OUTPUT_ROOT", str(tmp_path))
    cfg = write_config(tmp_path, seeds=[4], output_dir="r", iterations=1)
    assert cli.main(["train", "--config", cfg]) == 0
    path = str(tmp_path / "r" / "optimizer_seed4.json")
    arrays, meta = checkpoint.load(path)
    del arrays["policy/m"]
    checkpoint.save(path, arrays, meta)
    capsys.readouterr()
    assert cli.main(["train", "--config", cfg, "--resume"]) == 2
    err = capsys.readouterr().err
    assert "policy/m" in err and len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("field,value", [("architecture", "ff"), ("hidden", [32]),
                                         ("env_params", {"n_states": 5, "horizon": 5})])
def test_resume_with_a_config_that_reshapes_the_run_exits_2(tmp_path, monkeypatch, capsys,
                                                            field, value):
    monkeypatch.setenv("RDECOMP_OUTPUT_ROOT", str(tmp_path))
    assert cli.main(["train", "--config", write_config(
        tmp_path, seeds=[4], output_dir="r", iterations=1)]) == 0
    run_dir = tmp_path / "r"
    before = {p.name: p.read_bytes() for p in run_dir.iterdir()}
    capsys.readouterr()
    cfg = write_config(tmp_path, seeds=[4], output_dir="r", iterations=2, **{field: value})
    assert cli.main(["train", "--config", cfg, "--resume"]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"cannot resume: {field} ") and len(err.strip().splitlines()) == 1
    assert {p.name: p.read_bytes() for p in run_dir.iterdir()} == before


def test_invalid_config_exits_nonzero(tmp_path, capsys):
    code = cli.main(["train", "--config", write_config(tmp_path, bogus=1)])
    assert code == 2
    assert "unknown config keys" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# verify command


def test_verify_builtin_passes(tmp_path):
    out = tmp_path / "report.json"
    code = cli.main(["verify", "--mdp", "chain3", "--inits", "3", "--out", str(out)])
    assert code == 0
    report = json.loads(out.read_text())
    assert report["pass"]
    for rep in report["mdps"]["chain3"]:
        for check in rep["checks"].values():
            assert "max_abs_error" in check and check["max_abs_error"] <= 1e-8


@pytest.mark.parametrize("inits", ["0", "-2"])
def test_verify_rejects_fewer_than_one_init(capsys, inits):
    assert cli.main(["verify", "--mdp", "chain3", "--inits", inits]) == 2
    out = capsys.readouterr()
    assert "--inits must be at least 1" in out.err and "overall" not in out.out


def test_verify_unknown_mdp(capsys):
    assert cli.main(["verify", "--mdp", "nope"]) == 2
    assert "builtin" in capsys.readouterr().err


SPEC = {
    "name": "custom2",
    "n_states": 2,
    "n_actions": 2,
    "horizon": 3,
    "transition": [[[1.0, 0.0], [0.0, 1.0]], [[0.5, 0.5], [1.0, 0.0]]],
    "initial_dist": [1.0, 0.0],
    "step_rewards": [[0.0, 1.0], [0.5, -0.25]],
}


def test_verify_custom_spec(tmp_path):
    path = tmp_path / "mdp.json"
    path.write_text(json.dumps(SPEC))
    assert cli.main(["verify", "--spec", str(path), "--inits", "2"]) == 0


@pytest.mark.parametrize("text,error", [
    (None, "FileNotFoundError"),
    ("{not json", "JSONDecodeError"),
    (json.dumps({k: v for k, v in SPEC.items() if k != "step_rewards"}), "'step_rewards'"),
    (json.dumps({**SPEC, "horizon": 9}), "capped at horizon 6"),
    (json.dumps({**SPEC, "step_rewards": [[0.0, 1.0]]}), "step_rewards has shape (1, 2)"),
    (json.dumps([SPEC]), "TypeError"),
], ids=["missing", "corrupt", "no-step-rewards", "horizon-9", "rewards-shape", "not-an-object"])
def test_verify_rejects_bad_spec(tmp_path, capsys, text, error):
    path = tmp_path / "mdp.json"
    if text is not None:
        path.write_text(text)
    assert cli.main(["verify", "--spec", str(path)]) == 2
    out = capsys.readouterr()
    assert out.err.startswith(f"cannot load the MDP spec {path}: ") and error in out.err
    assert len(out.err.strip().splitlines()) == 1 and out.out == ""


def test_default_sweep_predictor_labels():
    """The labels of the default `rdecomp verify` sweep, as its reports
    record them: each model's architecture and its interval kind."""
    mdps = [factory() for factory in oracle.BUILTIN_MDPS.values()]
    report = cli.run_verification(mdps)
    assert report["pass"]
    want = ["attention-prefixes-0", "recurrent-prefixes-1", "ff-singletons-2",
            "attention-prefixes-blown-3", "recurrent-prefixes-4", "chaotic-4",
            "ff-singletons-5"]
    for mdp in mdps:
        assert [r["predictor"] for r in report["mdps"][mdp.name]] == want


def test_chaotic_adversary_is_causal():
    """Perturbing states or actions from step k on leaves the chaotic
    predictor's values for intervals 0..k-1 bit-identical."""
    mdp = oracle.chain3_mdp()
    chaotic = [fn for label, fn in cli.make_verify_predictors(mdp, 10) if "chaotic" in label]
    assert len(chaotic) == 2
    rng = np.random.default_rng(5)
    for case in range(50):
        t_len = int(rng.integers(2, 10))
        cut = int(rng.integers(1, t_len))
        traj = Trajectory(
            states=rng.normal(size=(t_len, 3)),
            actions=rng.integers(0, 2, size=t_len),
            episodic_return=float(rng.normal()),
        )
        states, actions = traj.states.copy(), traj.actions.copy()
        if case % 2:
            states[cut:] += rng.normal(size=(t_len - cut, 3))
        else:
            actions[cut:] = 1 - actions[cut:]
        bumped = Trajectory(states=states, actions=actions, episodic_return=traj.episodic_return + 1.0)
        for fn in chaotic:
            base, after = (dec.per_interval for dec in fn([traj, bumped]))
            assert np.array_equal(base[:cut], after[:cut])
            assert not np.array_equal(base[cut:], after[cut:])


def test_chaotic_values_are_the_draws_of_the_running_crc():
    """Each value is the draw seeded by the CRC of its prefix, on the first
    call and on a later one that finds every prefix already drawn."""
    for factory in oracle.BUILTIN_MDPS.values():
        mdp = factory()
        policy = CategoricalPolicy(np.random.default_rng(0), mdp.state_dim, mdp.n_actions,
                                   hidden=(8,))
        ctx = oracle.OracleContext(mdp, policy)
        for label, fn in cli.make_verify_predictors(mdp, 10):
            if not label.startswith("chaotic-"):
                continue
            base = int(label.split("-")[1])
            for _ in range(2):
                for traj, dec in zip(ctx.trajectories, fn(ctx.trajectories), strict=True):
                    digest = zlib.crc32(bytes([base % 256]))
                    for t in range(traj.length):
                        digest = zlib.crc32(
                            traj.states[t].tobytes() + traj.actions[t].tobytes(), digest)
                        want = np.random.default_rng(digest).normal(0.0, 25.0)
                        assert dec.per_interval[t] == want


def test_repeated_verification_sweeps_report_the_same():
    mdps = [factory() for factory in oracle.BUILTIN_MDPS.values()]
    assert cli.run_verification(mdps, seed=2) == cli.run_verification(mdps, seed=2)


def test_verify_out_that_fails_to_serialize_keeps_the_earlier_report(tmp_path, monkeypatch):
    out = tmp_path / "report.json"
    out.write_text('{"pass": true}')
    monkeypatch.setattr(cli, "run_verification", lambda mdps, n_inits, tol: {
        "pass": True, "tolerance": tol, "mdps": {}, "unserializable": object()})
    with pytest.raises(TypeError):
        cli.main(["verify", "--mdp", "chain3", "--out", str(out)])
    assert out.read_text() == '{"pass": true}'
    assert [p.name for p in tmp_path.iterdir()] == ["report.json"]


# ---------------------------------------------------------------------------
# export-attention command


def make_attention_checkpoint(tmp_path, t_len=5, n_actions=2, state_dim=4, normalizer=None,
                              **hyperparams):
    model = decomposer.make_predictor(
        "attention", state_dim + n_actions, np.random.default_rng(0)
    )
    ckpt = tmp_path / "model.json"
    meta = {"architecture": "attention",
            "hyperparams": {"input_dim": model.input_dim, **hyperparams}}
    if normalizer is not None:
        meta["normalizer"] = normalizer.state()
    checkpoint.save(str(ckpt), model.params, meta=meta)
    rng = np.random.default_rng(1)
    traj = Trajectory(
        states=rng.normal(size=(t_len, state_dim)),
        actions=rng.integers(0, n_actions, size=t_len),
        episodic_return=1.0,
    )
    traj_path = tmp_path / "trajs.jsonl"
    write_jsonl(str(traj_path), [traj])
    return ckpt, traj_path


def test_export_attention_outputs(tmp_path):
    ckpt, traj_path = make_attention_checkpoint(tmp_path, t_len=5)
    out = tmp_path / "attn.csv"
    code = cli.main(
        ["export-attention", "--ckpt", str(ckpt), "--traj", str(traj_path), "--out", str(out)]
    )
    assert code == 0
    rows = list(csv.DictReader(out.open()))
    assert [r["t"] for r in rows] == ["0", "1", "2", "3", "4"]
    z = np.array([float(r["z"]) for r in rows])
    assert np.all((z > 0) & (z < 1))
    heads = sorted(tmp_path.glob("attn_head*.csv"))
    assert len(heads) == 4
    for head in heads:
        attn = np.loadtxt(head, delimiter=",")
        assert attn.shape == (5, 5)
        np.testing.assert_allclose(attn.sum(axis=1), 1.0, atol=1e-6)
        assert np.array_equal(np.triu(attn, 1), np.zeros((5, 5)))


def test_export_attention_r_hat_is_the_destandardized_prediction(tmp_path):
    norm = decomposer.ReturnNormalizer()
    norm.update([4.0, -1.5, 9.25, 0.5])
    ckpt, traj_path = make_attention_checkpoint(tmp_path, t_len=7, normalizer=norm)
    out = tmp_path / "attn.csv"
    assert cli.main(
        ["export-attention", "--ckpt", str(ckpt), "--traj", str(traj_path), "--out", str(out)]
    ) == 0
    r_hat = np.array([float(r["r_hat"]) for r in csv.DictReader(out.open())])
    model = decomposer.predictor_from_checkpoint(*checkpoint.load(str(ckpt)))
    trajectories = read_jsonl(str(traj_path))
    assert np.array_equal(r_hat, decomposer.predict(model, trajectories, norm)[0].per_interval)
    assert not np.array_equal(r_hat, decomposer.predict(model, trajectories)[0].per_interval)


def test_export_attention_single_step(tmp_path):
    ckpt, traj_path = make_attention_checkpoint(tmp_path, t_len=1)
    out = tmp_path / "one.csv"
    assert cli.main(
        ["export-attention", "--ckpt", str(ckpt), "--traj", str(traj_path), "--out", str(out)]
    ) == 0
    rows = list(csv.DictReader(out.open()))
    assert len(rows) == 1
    attn = np.loadtxt(tmp_path / "one_head0.csv", delimiter=",")
    assert attn.reshape(1, 1)[0, 0] == 1.0


def test_export_that_raises_midway_keeps_the_earlier_files(tmp_path, monkeypatch):
    ckpt, traj_path = make_attention_checkpoint(tmp_path, normalizer=decomposer.ReturnNormalizer())
    out = tmp_path / "attn.csv"
    earlier = [out] + [tmp_path / f"attn_head{h}.csv" for h in range(4)]
    for path in earlier:
        path.write_text("earlier\n")
    # r_hat for the first two steps only: the row of step 2 raises IndexError
    monkeypatch.setattr(cli.decomposer, "destandardize", lambda values, *_: values[:2])
    with pytest.raises(IndexError):
        cli.main(["export-attention", "--ckpt", str(ckpt), "--traj", str(traj_path),
                  "--out", str(out)])
    assert [path.read_text() for path in earlier] == ["earlier\n"] * 5
    assert not list(tmp_path.glob("*.tmp"))


@pytest.mark.parametrize("index", ["1", "-1"])
def test_export_attention_rejects_index_outside_the_file(tmp_path, capsys, index):
    ckpt, traj_path = make_attention_checkpoint(tmp_path)
    out = tmp_path / "attn.csv"
    code = cli.main(["export-attention", "--ckpt", str(ckpt), "--traj", str(traj_path),
                     "--out", str(out), "--index", index])
    assert code == 2
    assert f"--index {index} is out of range" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("retired", [{"positional": False}, {"scale": "paper"}])
def test_export_attention_rejects_retired_checkpoint(tmp_path, capsys, retired):
    ckpt, traj_path = make_attention_checkpoint(tmp_path, **retired)
    code = cli.main(["export-attention", "--ckpt", str(ckpt), "--traj", str(traj_path),
                     "--out", str(tmp_path / "attn.csv")])
    assert code == 2
    err = capsys.readouterr().err
    assert "cannot rebuild the predictor" in err and next(iter(retired)) in err


@pytest.mark.parametrize("damage", ["missing", "corrupt-manifest", "short-blob"])
def test_export_attention_rejects_unreadable_checkpoint(tmp_path, capsys, damage):
    ckpt, traj_path = make_attention_checkpoint(tmp_path)
    if damage == "missing":
        ckpt.unlink()
    elif damage == "corrupt-manifest":
        ckpt.write_text(ckpt.read_text()[:40])
    else:
        blob = ckpt.with_suffix(".bin")
        blob.write_bytes(blob.read_bytes()[:-8])
    out = tmp_path / "attn.csv"
    code = cli.main(["export-attention", "--ckpt", str(ckpt), "--traj", str(traj_path),
                     "--out", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"cannot load the checkpoint {ckpt}: ")
    assert len(err.strip().splitlines()) == 1 and not out.exists()


def test_export_attention_rejects_missing_trajectories(tmp_path, capsys):
    ckpt, _ = make_attention_checkpoint(tmp_path)
    missing = tmp_path / "none.jsonl"
    code = cli.main(["export-attention", "--ckpt", str(ckpt), "--traj", str(missing),
                     "--out", str(tmp_path / "attn.csv")])
    assert code == 2
    assert capsys.readouterr().err.startswith(f"cannot load the trajectories {missing}: ")


def test_export_attention_rejects_ff_checkpoint(tmp_path, capsys):
    model = decomposer.make_predictor("ff", 6, np.random.default_rng(0))
    ckpt = tmp_path / "ff.json"
    checkpoint.save(
        str(ckpt), model.params,
        meta={"architecture": "ff", "hyperparams": {"input_dim": model.input_dim}},
    )
    _, traj_path = make_attention_checkpoint(tmp_path)
    code = cli.main(
        ["export-attention", "--ckpt", str(ckpt), "--traj", str(traj_path),
         "--out", str(tmp_path / "x.csv")]
    )
    assert code == 2
    assert "attention" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# recipes and bench


def test_ablation_grid_covers_every_combination():
    pairs = recipes.expand("ablation-grid")
    names = [name for name, _ in pairs]
    assert len(pairs) == 27
    for scheme in ("O", "HO", "S"):
        for arch in ("ff", "recurrent", "attention"):
            assert any(n.startswith(f"{scheme}-{arch}-bias") for n in names)
            assert any(n.startswith(f"{scheme}-{arch}-nobias") for n in names)
    # bias-corrected cells exist at both regression learning rates
    assert any(n.endswith("lr0.01") for n in names)
    assert any(n.endswith("lr0.001") for n in names)
    for _, exp in pairs:
        if exp.train.architecture == "ff":
            assert exp.train.interval_kind == "singletons"


def test_buffers_recipe_varies_only_scheme():
    pairs = recipes.expand("buffers")
    schemes = {exp.train.buffer_scheme for _, exp in pairs}
    assert schemes == {"O", "HO", "S"}
    archs = {exp.train.architecture for _, exp in pairs}
    assert len(archs) == 1


def test_expand_applies_overrides():
    pairs = recipes.expand("networks", seeds=[7], iterations=1)
    for _, exp in pairs:
        assert exp.seeds == [7] and exp.train.iterations == 1


def test_unknown_recipe():
    with pytest.raises(ValueError, match="unknown recipe"):
        recipes.expand("figure-everything")


def test_bench_rejects_malformed_seeds(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("RDECOMP_OUTPUT_ROOT", str(tmp_path))
    assert cli.main(["bench", "--recipe", "buffers", "--seeds", "1,,2"]) == 2
    assert "--seeds takes comma-separated integers" in capsys.readouterr().err
    # a repeated seed would rerun into the same files
    assert cli.main(["bench", "--recipe", "buffers", "--seeds", "1,2,1"]) == 2
    assert "seeds must be a non-empty list of distinct integers" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("env_root", [None, "out"])
def test_bench_under_a_relative_output_root_nests_it_once(tmp_path, monkeypatch, env_root):
    monkeypatch.chdir(tmp_path)
    if env_root is None:
        monkeypatch.delenv("RDECOMP_OUTPUT_ROOT", raising=False)
    else:
        monkeypatch.setenv("RDECOMP_OUTPUT_ROOT", env_root)
    root = env_root or "runs"
    assert cli.main(["bench", "--recipe", "buffers", "--seeds", "1", "--iterations", "1",
                     "--ppo-batch", "20"]) == 0
    assert [p.name for p in tmp_path.iterdir()] == [root]
    assert [p.name for p in (tmp_path / root).iterdir()] == ["buffers"]
    for scheme in ("O", "HO", "S"):
        assert (tmp_path / root / "buffers" / f"buffer-{scheme}" / "metrics_seed1.csv").exists()


def test_bench_command_runs_tiny(tmp_path, monkeypatch):
    monkeypatch.setenv("RDECOMP_OUTPUT_ROOT", str(tmp_path))
    code = cli.main(
        ["bench", "--recipe", "networks", "--seeds", "1", "--iterations", "1",
         "--ppo-batch", "30"]
    )
    assert code == 0
    for arch in ("ff", "recurrent", "attention"):
        metrics = tmp_path / "networks" / f"network-{arch}" / "metrics_seed1.csv"
        assert metrics.exists()
        rows = list(csv.DictReader(metrics.open()))
        assert len(rows) == 1


# ---------------------------------------------------------------------------
# output paths: only run directories resolve under the output root


def test_out_files_resolve_against_the_working_directory(tmp_path, monkeypatch):
    root, work = tmp_path / "root", tmp_path / "work"
    work.mkdir()
    monkeypatch.setenv("RDECOMP_OUTPUT_ROOT", str(root))
    monkeypatch.chdir(work)
    assert cli.main(["verify", "--mdp", "chain3", "--inits", "1", "--out", "report.json"]) == 0
    ckpt, traj_path = make_attention_checkpoint(tmp_path)
    assert cli.main(["export-attention", "--ckpt", str(ckpt), "--traj", str(traj_path),
                     "--out", "attn.csv"]) == 0
    assert json.loads((work / "report.json").read_text())
    assert (work / "attn.csv").is_file() and (work / "attn_head0.csv").is_file()
    assert not root.exists()
