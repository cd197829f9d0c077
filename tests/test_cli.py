import copy
import json
import subprocess
import sys

import numpy as np
import pytest

import authverify.cli
from authverify.cli import main
from authverify.embeddings import load_embeddings
from authverify.encoder import init_encoder_params
from authverify.evaluate import Model, save_checkpoint, verify_pair
from authverify.numeric import make_rng
from authverify.preprocess import load_corpus, save_corpus
from authverify.siamese import SAME_AUTHOR
from authverify.train import TrainConfig


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """A small synthetic corpus plus its embeddings, shared by CLI tests."""
    root = tmp_path_factory.mktemp("cli")
    corpus = root / "corpus.jsonl"
    emb = root / "embeddings.txt"
    rc = main(
        [
            "synthetic",
            "--corpus", str(corpus),
            "--embeddings", str(emb),
            "--instances", "60",
            "--seed", "3",
        ]
    )
    assert rc == 0
    return root, corpus, emb


def fast_config(root):
    path = root / "config.json"
    path.write_text(
        json.dumps(
            {
                "d_w": 20, "d_s": 4, "d_d": 3, "max_words": 12,
                "max_sentences": 15, "batch_size": 16, "max_epochs": 1,
                "patience": 0, "dropout_rate": 0.0, "seed": 5,
            }
        )
    )
    return path


class TestSynthetic:
    def test_corpus_loads(self, workspace):
        _, corpus, _ = workspace
        instances = load_corpus(str(corpus))
        assert len(instances) == 60

    @pytest.mark.parametrize(
        "flag, value, low",
        [("--instances", "0", 1), ("--instances", "-5", 1),
         ("--authors", "1", 2), ("--authors", "0", 2)],
    )
    def test_counts_below_their_least_rejected(
        self, tmp_path, flag, value, low, capsys
    ):
        corpus, emb = tmp_path / "corpus.jsonl", tmp_path / "embeddings.txt"
        with pytest.raises(SystemExit) as exc:
            main(["synthetic", "--corpus", str(corpus), "--embeddings", str(emb),
                  flag, value])
        assert exc.value.code == 2
        assert f"{flag}: must be at least {low}" in capsys.readouterr().err
        assert not corpus.exists() and not emb.exists()

    def test_spec_rejection_is_a_usage_error(self, tmp_path, capsys):
        # 50 authors x 4 support words do not fit the default 199 content words
        corpus, emb = tmp_path / "corpus.jsonl", tmp_path / "embeddings.txt"
        with pytest.raises(SystemExit) as exc:
            main(["synthetic", "--corpus", str(corpus), "--embeddings", str(emb),
                  "--authors", "50"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "usage: authverify synthetic" in err
        assert "author supports cannot partition the content vocabulary" in err
        assert not corpus.exists() and not emb.exists()


class TestTrainVerify:
    def test_train_then_verify(self, workspace):
        root, corpus, emb = workspace
        checkpoint = root / "model.npz"
        log = root / "log.jsonl"
        rc = main(
            [
                "train",
                "--corpus", str(corpus),
                "--embeddings", str(emb),
                "--config", str(fast_config(root)),
                "--checkpoint", str(checkpoint),
                "--out", str(log),
            ]
        )
        assert rc == 0
        entries = [json.loads(line) for line in log.read_text().splitlines()]
        assert len(entries) == 1  # patience 0: one epoch
        assert {"epoch", "train_loss", "dev_loss", "dev_accuracy"} <= set(entries[0])

        doc = root / "doc.txt"
        doc.write_text("W000 w001 w002. W003 w004.")
        out = root / "decision.json"
        rc = main(
            [
                "verify",
                "--checkpoint", str(checkpoint),
                "--embeddings", str(emb),
                str(doc), str(doc),
                "--out", str(out),
            ]
        )
        assert rc == 0
        decision = json.loads(out.read_text())
        assert decision["decision"] == SAME_AUTHOR
        assert decision["distance"] == 0.0
        assert "tau" in decision


class TestVerifyExplain:
    def test_explain_counts_and_default_output_unchanged(self, workspace):
        root, _, emb = workspace
        config = TrainConfig(d_w=20, d_s=4, d_d=3, max_words=4, max_sentences=2)
        params = init_encoder_params(20, 4, 3, rng=make_rng(0))
        checkpoint = root / "explain.npz"
        save_checkpoint(str(checkpoint), params, config)
        doc_a, doc_b = root / "explain_a.txt", root / "explain_b.txt"
        # three sentences, the first over the word cap, one OOV word
        doc_a.write_text("w000 w000 w001 w002.\nzzz w003.\nw004 w005.")
        doc_b.write_text("w006 w007.")

        def verify(*flags):
            out = root / "explain.json"
            rc = main([
                "verify", "--checkpoint", str(checkpoint), "--embeddings", str(emb),
                str(doc_a), str(doc_b), "--out", str(out), *flags,
            ])
            assert rc == 0
            return out.read_text()

        plain, explained = verify(), verify("--explain")
        model = Model(params, config, load_embeddings(str(emb), 20))
        score = verify_pair(model, doc_a.read_text(), doc_b.read_text())
        # without the flag: the decision and tau alone, in the same bytes
        assert plain == json.dumps(
            {**score.to_json_dict(), "tau": config.thresholds.midpoint}, indent=2
        ) + "\n"
        payload = json.loads(explained)
        assert payload.pop("explain") == {
            # kept: "w000 w000 w001 w002" and "zzz w003 ."; cut: the first
            # sentence's "." and the third sentence, "w004 w005 ."
            "doc_a": {"sentences": 2, "tokens": 7, "distinct_tokens": 6,
                      "oov_tokens": 1, "sentences_cut": 1, "tokens_cut": 4},
            "doc_b": {"sentences": 1, "tokens": 3, "distinct_tokens": 3,
                      "oov_tokens": 0, "sentences_cut": 0, "tokens_cut": 0},
        }
        assert json.dumps(payload, indent=2) + "\n" == plain


class TestTrainSeeding:
    def test_split_and_fit_draw_independent_streams(self, workspace, monkeypatch):
        root, corpus, emb = workspace
        seen = {}
        real_splits, real_fit = authverify.cli.make_cv_splits, authverify.cli.fit

        def splits(n, k, rng):
            seen["split"] = copy.deepcopy(rng)
            return real_splits(n, k=k, rng=rng)

        def fit(*args, rng=None):
            seen["fit"] = copy.deepcopy(rng)
            return real_fit(*args, rng=rng)

        monkeypatch.setattr(authverify.cli, "make_cv_splits", splits)
        monkeypatch.setattr(authverify.cli, "fit", fit)
        rc = main(
            [
                "train",
                "--corpus", str(corpus),
                "--embeddings", str(emb),
                "--config", str(fast_config(root)),
                "--checkpoint", str(root / "seeded.npz"),
                "--out", str(root / "seeded.jsonl"),
            ]
        )
        assert rc == 0
        assert seen["fit"] is not None
        assert seen["split"].random() != seen["fit"].random()


class TestGradcheckCommand:
    def test_passes_with_few_configs(self, capsys):
        rc = main(["gradcheck", "--configs", "3", "--seed", "1"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "ok" in out

    def test_negative_configs_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["gradcheck", "--configs", "-3"])
        assert exc.value.code == 2
        assert "--configs: must be at least 0" in capsys.readouterr().err


class TestCrossValidateCommand:
    def test_report_written(self, workspace):
        root, corpus, emb = workspace
        out = root / "report.json"
        rc = main(
            [
                "cross-validate",
                "--corpus", str(corpus),
                "--embeddings", str(emb),
                "--config", str(fast_config(root)),
                "--folds", "3",
                "--out", str(out),
            ]
        )
        assert rc == 0
        report = json.loads(out.read_text())
        assert report["num_folds"] == 3
        assert len(report["folds"]) == 3

    @pytest.mark.parametrize("threads", ["0", "-1"])
    def test_threads_below_one_rejected(self, workspace, threads, capsys):
        root, corpus, emb = workspace
        with pytest.raises(SystemExit) as exc:
            main(
                [
                    "cross-validate",
                    "--corpus", str(corpus),
                    "--embeddings", str(emb),
                    "--threads", threads,
                ]
            )
        assert exc.value.code == 2
        assert "--threads: must be at least 1" in capsys.readouterr().err


    @pytest.mark.parametrize("folds", ["1", "0"])
    def test_folds_below_two_rejected(self, workspace, folds, capsys):
        root, corpus, emb = workspace
        with pytest.raises(SystemExit) as exc:
            main(
                [
                    "cross-validate",
                    "--corpus", str(corpus),
                    "--embeddings", str(emb),
                    "--config", str(fast_config(root)),
                    "--folds", folds,
                ]
            )
        assert exc.value.code == 2
        assert "--folds: must be at least 2" in capsys.readouterr().err


class TestCorpusTooSmallForItsSplit:
    def small_corpus(self, workspace, tmp_path, n):
        _, corpus, _ = workspace
        path = tmp_path / f"corpus_{n}.jsonl"
        save_corpus(load_corpus(str(corpus))[:n], str(path))
        return path

    @pytest.mark.parametrize("command", ["cross-validate", "train"])
    def test_fewer_instances_than_folds_is_a_usage_error(
        self, workspace, tmp_path, command, capsys
    ):
        root, _, emb = workspace
        corpus = self.small_corpus(workspace, tmp_path, 6)
        out = tmp_path / "out.json"
        flags = {"cross-validate": ["--folds", "10"],
                 "train": ["--checkpoint", str(tmp_path / "model.npz")]}[command]
        with pytest.raises(SystemExit) as exc:
            main([command, *flags, "--corpus", str(corpus), "--embeddings", str(emb),
                  "--config", str(fast_config(root)), "--out", str(out)])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"usage: authverify {command}" in err
        assert "corpus size 6 is smaller than k = 10" in err
        assert not out.exists() and not (tmp_path / "model.npz").exists()

    def test_empty_train_set_is_a_usage_error(self, workspace, tmp_path, capsys):
        root, _, emb = workspace
        corpus = self.small_corpus(workspace, tmp_path, 2)
        out = tmp_path / "report.json"
        with pytest.raises(SystemExit) as exc:
            main(["cross-validate", "--corpus", str(corpus), "--embeddings", str(emb),
                  "--config", str(fast_config(root)), "--folds", "2",
                  "--out", str(out)])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "usage: authverify cross-validate" in err
        assert "empty train set" in err
        assert not out.exists()


class TestRejectedInputs:
    """An input file the program rejects as it reads it is a usage error of
    the subcommand, its message kept, and nothing is written."""

    def run(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"usage: authverify {argv[0]}" in err
        return err

    def test_embeddings_narrower_than_the_config(self, workspace, tmp_path, capsys):
        # no --config: TrainConfig()'s 300-d words against the 20-d file
        _, corpus, emb = workspace
        checkpoint = tmp_path / "model.npz"
        err = self.run(["train", "--corpus", str(corpus), "--embeddings", str(emb),
                        "--checkpoint", str(checkpoint)], capsys)
        assert "expected 300 values, got 20 at line 1" in err
        assert "d_w is 300" in err
        assert not checkpoint.exists()

    def test_corpus_label_outside_zero_one(self, workspace, tmp_path, capsys):
        root, _, emb = workspace
        corpus = tmp_path / "corpus.jsonl"
        corpus.write_text(json.dumps({"known": ["A b."], "unknown": "C d.", "label": 2}))
        checkpoint = tmp_path / "model.npz"
        err = self.run(["train", "--corpus", str(corpus), "--embeddings", str(emb),
                        "--config", str(fast_config(root)),
                        "--checkpoint", str(checkpoint)], capsys)
        assert "`label` must be the integer 0 or 1, got 2" in err
        assert not checkpoint.exists()

    def test_config_with_an_unknown_key(self, workspace, tmp_path, capsys):
        _, corpus, emb = workspace
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"d_w": 20, "not_a_field": 1}))
        out = tmp_path / "report.json"
        err = self.run(["cross-validate", "--corpus", str(corpus), "--embeddings",
                        str(emb), "--config", str(config), "--out", str(out)], capsys)
        assert "unknown config keys: ['not_a_field']" in err
        assert not out.exists()

    def test_verify_text_without_a_sentence(self, workspace, tmp_path, capsys):
        _, _, emb = workspace
        checkpoint = tmp_path / "model.npz"
        config = TrainConfig(d_w=20, d_s=4, d_d=3, max_words=12, max_sentences=15)
        save_checkpoint(str(checkpoint), init_encoder_params(20, 4, 3, rng=make_rng(0)),
                        config)
        text, blank = tmp_path / "text.txt", tmp_path / "blank.txt"
        text.write_text("w000 w001.")
        blank.write_text("  \n")
        out = tmp_path / "decision.json"
        err = self.run(["verify", "--checkpoint", str(checkpoint), "--embeddings",
                        str(emb), str(text), str(blank), "--out", str(out)], capsys)
        assert "empty document" in err
        assert not out.exists()

    def test_config_value_of_the_wrong_type(self, workspace, tmp_path, capsys):
        _, corpus, emb = workspace
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"d_w": 20, "d_s": "x"}))
        checkpoint = tmp_path / "model.npz"
        err = self.run(["train", "--corpus", str(corpus), "--embeddings", str(emb),
                        "--config", str(config), "--checkpoint", str(checkpoint)],
                       capsys)
        assert "config field 'd_s' must be of type int, got 'x'" in err
        assert not checkpoint.exists()

    @pytest.mark.parametrize("missing", ["--corpus", "--embeddings", "--config"])
    def test_missing_input_file_named(self, workspace, tmp_path, capsys, missing):
        root, corpus, emb = workspace
        paths = {"--corpus": str(corpus), "--embeddings": str(emb),
                 "--config": str(fast_config(root))}
        paths[missing] = str(tmp_path / "absent.file")
        argv = ["train", "--checkpoint", str(tmp_path / "model.npz")]
        for flag, path in paths.items():
            argv += [flag, path]
        err = self.run(argv, capsys)
        assert f"{tmp_path / 'absent.file'}: No such file or directory" in err

    @pytest.mark.parametrize("value", [3, [1, 2]], ids=["number", "array"])
    def test_config_that_is_not_an_object(self, workspace, tmp_path, capsys, value):
        _, corpus, emb = workspace
        config = tmp_path / "config.json"
        config.write_text(json.dumps(value))
        checkpoint = tmp_path / "model.npz"
        err = self.run(["train", "--corpus", str(corpus), "--embeddings", str(emb),
                        "--config", str(config), "--checkpoint", str(checkpoint)],
                       capsys)
        assert f"{config}: a config must be a JSON object, got {value!r}" in err
        assert not checkpoint.exists()

    @pytest.mark.parametrize("invalid", ["--corpus", "--embeddings"])
    def test_input_that_is_not_utf8_named(self, workspace, tmp_path, capsys, invalid):
        root, corpus, emb = workspace
        paths = {"--corpus": str(corpus), "--embeddings": str(emb),
                 "--config": str(fast_config(root))}
        paths[invalid] = str(tmp_path / "latin1.txt")
        (tmp_path / "latin1.txt").write_bytes("caf\xe9 1.0\n".encode("latin-1"))
        checkpoint = tmp_path / "model.npz"
        argv = ["train", "--checkpoint", str(checkpoint)]
        for flag, path in paths.items():
            argv += [flag, path]
        err = self.run(argv, capsys)
        assert f"{tmp_path / 'latin1.txt'}: 'utf-8' codec can't decode" in err
        assert not checkpoint.exists()

    def verify_argv(self, emb, tmp_path, checkpoint):
        text = tmp_path / "text.txt"
        text.write_text("w000 w001.")
        return ["verify", "--checkpoint", str(checkpoint), "--embeddings", str(emb),
                str(text), str(text), "--out", str(tmp_path / "decision.json")]

    def test_missing_verify_text_named(self, workspace, tmp_path, capsys):
        _, _, emb = workspace
        checkpoint = tmp_path / "model.npz"
        save_checkpoint(str(checkpoint), init_encoder_params(20, 4, 3, rng=make_rng(0)),
                        TrainConfig(d_w=20, d_s=4, d_d=3))
        argv = self.verify_argv(emb, tmp_path, checkpoint)
        argv[-3] = str(tmp_path / "absent.txt")
        err = self.run(argv, capsys)
        assert f"{tmp_path / 'absent.txt'}: No such file or directory" in err
        assert not (tmp_path / "decision.json").exists()

    def test_verify_text_that_is_not_utf8_named(self, workspace, tmp_path, capsys):
        _, _, emb = workspace
        checkpoint = tmp_path / "model.npz"
        save_checkpoint(str(checkpoint), init_encoder_params(20, 4, 3, rng=make_rng(0)),
                        TrainConfig(d_w=20, d_s=4, d_d=3))
        argv = self.verify_argv(emb, tmp_path, checkpoint)
        latin1 = tmp_path / "latin1.txt"
        latin1.write_bytes("w000 caf\xe9.".encode("latin-1"))
        argv[-3] = str(latin1)
        err = self.run(argv, capsys)
        assert f"{latin1}: 'utf-8' codec can't decode" in err
        assert not (tmp_path / "decision.json").exists()

    def test_file_that_is_not_a_checkpoint(self, workspace, tmp_path, capsys):
        _, _, emb = workspace
        checkpoint = tmp_path / "notnpz.npz"
        checkpoint.write_text("hello")
        err = self.run(self.verify_argv(emb, tmp_path, checkpoint), capsys)
        assert f"{checkpoint}: not a checkpoint" in err
        assert not (tmp_path / "decision.json").exists()

    def test_checkpoint_without_scale(self, workspace, tmp_path, capsys):
        _, _, emb = workspace
        checkpoint = tmp_path / "model.npz"
        save_checkpoint(str(checkpoint), init_encoder_params(20, 4, 3, rng=make_rng(0)),
                        TrainConfig(d_w=20, d_s=4, d_d=3))
        with np.load(checkpoint) as archive:
            payload = {k: a for k, a in archive.items() if k != "scale"}
        np.savez(checkpoint, **payload)
        err = self.run(self.verify_argv(emb, tmp_path, checkpoint), capsys)
        assert "not a checkpoint" in err and "scale" in err
        assert not (tmp_path / "decision.json").exists()

    def test_checkpoint_config_that_is_not_an_object(self, workspace, tmp_path, capsys):
        _, _, emb = workspace
        checkpoint = tmp_path / "model.npz"
        save_checkpoint(str(checkpoint), init_encoder_params(20, 4, 3, rng=make_rng(0)),
                        TrainConfig(d_w=20, d_s=4, d_d=3))
        with np.load(checkpoint) as archive:
            payload = dict(archive)
        payload["config_json"] = np.array("[1, 2]")
        np.savez(checkpoint, **payload)
        err = self.run(self.verify_argv(emb, tmp_path, checkpoint), capsys)
        assert f"{checkpoint}: a config must be a JSON object, got [1, 2]" in err
        assert not (tmp_path / "decision.json").exists()


class TestEntryPoint:
    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "authverify.cli", "--help"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert "authverify" in proc.stdout
