import dataclasses
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import namelink.cli
import namelink.training
from namelink.cli import build_parser, main
from namelink.model import load_checkpoint, save_checkpoint
from namelink.records import DBLP_KINDS, DEFAULT_KINDS, AuthorId, AuthorMention, BibRecord
from namelink.store import load_corpus, write_corpus_store
from namelink.synth import SynthConfig, gen_synth

FIXTURE_XML = str(Path(__file__).parent / "data" / "dblp_fixture.xml")
README = Path(__file__).resolve().parent.parent / "README.md"
SRC = str(Path(__file__).resolve().parent.parent / "src")


def resave(src, dst, class_index=None):
    """Copy a checkpoint, optionally with other classes."""
    bundle = load_checkpoint(src)
    save_checkpoint(dst, bundle.params, class_index or bundle.class_index, bundle.extra)
    return str(dst)


def rewrite_meta(src, dst, edit):
    """Copy a checkpoint member by member with ``edit`` applied to its parsed
    ``meta``, so the copy may hold what save_checkpoint refuses to write."""
    with np.load(src) as archive:
        arrays = dict(archive)
    meta = json.loads(bytes(arrays["meta"]).decode("utf-8"))
    edit(meta)
    arrays["meta"] = np.frombuffer(json.dumps(meta).encode("utf-8"), dtype=np.uint8)
    np.savez(dst, **arrays)
    return str(dst)


def manifest_entries(path):
    return [json.loads(line) for line in Path(path).read_text("utf-8").splitlines()]


def assert_operational_error(rc, capsys, manifest):
    """Exit 1, an ``error:`` line and one manifest entry with status error."""
    assert rc == 1
    assert "error:" in capsys.readouterr().err
    (entry,) = manifest_entries(manifest)
    assert entry["status"] == "error"


@pytest.fixture(scope="module")
def ws(tmp_path_factory):
    """Shared workspace: a small synthetic corpus plus a briefly trained
    checkpoint, built through the CLI itself."""
    root = tmp_path_factory.mktemp("cli")
    paths = {
        "root": root,
        "corpus": str(root / "synth.ndjson"),
        "truth": str(root / "synth.ndjson.truth.tsv"),
        "ckpt": str(root / "ckpt.npz"),
        "manifest": str(root / "runs.ndjson"),
    }
    rc = main(
        [
            "gen-synth",
            "--out", paths["corpus"],
            "--authors", "3",
            "--clique", "3",
            "--records-per-author", "6",
            "--vocab", "6",
            "--manifest", paths["manifest"],
        ]
    )
    assert rc == 0
    rc = main(
        [
            "train",
            "--corpus", paths["corpus"],
            "--block", "Y Chen",
            "--out", paths["ckpt"],
            "--max-epochs", "2",
            "--patience", "5",
            "--batch-size", "32",
            "--manifest", paths["manifest"],
        ]
    )
    assert rc == 0
    return paths


def write_table(path, keys, dim):
    """An embedding table with one arbitrary vector per key."""
    rng = np.random.default_rng(len(keys))
    lines = [k + "\t" + " ".join(f"{v:.6f}" for v in rng.normal(size=dim)) for k in keys]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return str(path)


@pytest.fixture(scope="module")
def tables(ws):
    """A name table none of the corpus's names is in, a text table holding
    the title of record synth/a/0000, and a checkpoint trained with both."""
    root = ws["root"]
    record = next(r for r in load_corpus(ws["corpus"]) if r.record_key == "synth/a/0000")
    paths = {
        "name_table": write_table(root / "names.tsv", ["Nobody Here"], 200),
        "text_table": write_table(root / "texts.tsv", [record.title], 768),
        "ckpt": str(root / "tables.npz"),
        "record": record,
    }
    rc = main(
        [
            "train",
            "--corpus", ws["corpus"],
            "--block", "Y Chen",
            "--out", paths["ckpt"],
            "--max-epochs", "2",
            "--batch-size", "32",
            "--name-table", paths["name_table"],
            "--text-table", paths["text_table"],
            "--manifest", str(root / "tables.ndjson"),
        ]
    )
    assert rc == 0
    return paths


class TestGenSynth:
    def test_outputs_exist(self, ws, capsys):
        assert Path(ws["corpus"]).exists()
        assert Path(ws["truth"]).exists()
        assert len(Path(ws["truth"]).read_text("utf-8").splitlines()) == 18

    def test_byte_identical_rerun(self, ws, tmp_path, capsys):
        out = tmp_path / "again.ndjson"
        rc = main(
            [
                "gen-synth",
                "--out", str(out),
                "--authors", "3",
                "--clique", "3",
                "--records-per-author", "6",
                "--vocab", "6",
                "--manifest", str(tmp_path / "m.ndjson"),
            ]
        )
        assert rc == 0
        assert out.read_bytes() == Path(ws["corpus"]).read_bytes()
        assert (tmp_path / "again.ndjson.truth.tsv").read_bytes() == Path(ws["truth"]).read_bytes()

    def test_summary_lines(self, ws, tmp_path, capsys):
        rc = main(
            [
                "gen-synth",
                "--out", str(tmp_path / "c.ndjson"),
                "--authors", "2",
                "--records-per-author", "3",
                "--manifest", str(tmp_path / "m.ndjson"),
            ]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "records\t6" in out
        assert "authors\t2" in out

    def test_flag_defaults_are_the_config_defaults(self):
        # each gen-synth flag and the SynthConfig field it sets
        fields = {
            "block": "variate_key",
            "clique": "clique_size",
            "records_per_author": "records_per_author",
            "vocab": "vocab_size",
            "seed": "seed",
            "share_full_name": "share_full_name",
            "coauthors_per_record": "coauthors_per_record",
        }
        defaults = {f.name: f.default for f in dataclasses.fields(SynthConfig) if f.default is not dataclasses.MISSING}
        assert set(fields.values()) == set(defaults)
        flags = {action.dest: action.default for action in build_parser()[1]["gen-synth"]._actions}
        assert {flag: flags[flag] for flag in fields} == {flag: defaults[field] for flag, field in fields.items()}


class TestStats:
    def test_corpus_table(self, ws, capsys):
        rc = main(["stats", "--corpus", ws["corpus"], "--manifest", ws["manifest"]])
        out = capsys.readouterr().out
        assert rc == 0
        assert "# of records\t18" in out
        assert "# of unique authors\t12" in out

    def test_block_table(self, ws, capsys):
        rc = main(
            ["stats", "--corpus", ws["corpus"], "--block", "Y Chen", "--manifest", ws["manifest"]]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "# ANV\tY Chen" in out
        assert "# UTA\t3" in out
        assert "# RCD\t18" in out

    def test_out_file_mirrors_stdout(self, ws, tmp_path, capsys):
        table = tmp_path / "stats.tsv"
        rc = main(
            [
                "stats",
                "--corpus", ws["corpus"],
                "--out", str(table),
                "--manifest", ws["manifest"],
            ]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert table.read_text("utf-8") == out

    def test_missing_corpus_is_operational_error(self, tmp_path, capsys):
        rc = main(
            ["stats", "--corpus", str(tmp_path / "absent.ndjson"), "--manifest", str(tmp_path / "m")]
        )
        assert rc == 1
        assert "error:" in capsys.readouterr().err


class TestIngest:
    def test_kinds_help_reads_the_default_kinds(self, monkeypatch):
        """The help names ``records.DEFAULT_KINDS``, so it follows that list."""
        for kinds in (DEFAULT_KINDS, frozenset({"phdthesis", "article"})):
            monkeypatch.setattr(namelink.cli, "DEFAULT_KINDS", kinds)
            _, subs = build_parser()
            (action,) = [a for a in subs["ingest"]._actions if "--kinds" in a.option_strings]
            assert action.help.endswith(f"(default {','.join(sorted(kinds))})")

    def test_fixture_round_trip(self, tmp_path, capsys):
        out = tmp_path / "corpus.ndjson"
        rc = main(
            ["ingest", "--xml", FIXTURE_XML, "--out", str(out), "--manifest", str(tmp_path / "m")]
        )
        stdout = capsys.readouterr().out
        assert rc == 0
        assert "records\t50" in stdout
        rc = main(["stats", "--corpus", str(out), "--manifest", str(tmp_path / "m")])
        assert rc == 0
        assert "# of records\t50" in capsys.readouterr().out

    def test_kinds_widening(self, tmp_path, capsys):
        out = tmp_path / "corpus.ndjson"
        rc = main(
            [
                "ingest",
                "--xml", FIXTURE_XML,
                "--out", str(out),
                "--kinds", "article,inproceedings,phdthesis",
                "--manifest", str(tmp_path / "m"),
            ]
        )
        stdout = capsys.readouterr().out
        assert rc == 0
        assert "records\t51" in stdout

    @pytest.mark.parametrize("kinds", [",", " , ", ""])
    def test_kinds_naming_no_kind_refused(self, tmp_path, capsys, kinds):
        out, manifest = tmp_path / "c.ndjson", tmp_path / "m"
        out.write_text("old store", "utf-8")
        rc = main(["ingest", "--xml", FIXTURE_XML, "--out", str(out), "--kinds", kinds, "--manifest", str(manifest)])
        assert rc == 1
        assert capsys.readouterr().err.startswith("error: --kinds")
        assert out.read_text("utf-8") == "old store"
        assert [e["status"] for e in manifest_entries(manifest)] == ["error"]

    # a misspelt kind, and the fixture's own <masterthesis>, which dblp.dtd spells mastersthesis
    @pytest.mark.parametrize("kinds", ["artcle", "article,masterthesis"])
    def test_kinds_dblp_does_not_have_refused(self, tmp_path, capsys, kinds):
        out, manifest = tmp_path / "c.ndjson", tmp_path / "m"
        out.write_text("old store", "utf-8")
        rc = main(["ingest", "--xml", FIXTURE_XML, "--out", str(out), "--kinds", kinds, "--manifest", str(manifest)])
        assert rc == 1
        err = capsys.readouterr().err
        unknown = kinds.split(",")[-1]
        assert err.startswith(f"error: --kinds {kinds!r} names {unknown},")
        assert all(kind in err for kind in DBLP_KINDS)
        assert out.read_text("utf-8") == "old store"
        (entry,) = manifest_entries(manifest)
        assert entry["status"] == "error" and unknown in entry["result"]["error"]

    def test_every_dblp_kind_accepted(self, tmp_path, capsys):
        assert DEFAULT_KINDS <= DBLP_KINDS
        out, kinds = tmp_path / "c.ndjson", ",".join(sorted(DBLP_KINDS))
        rc = main(["ingest", "--xml", FIXTURE_XML, "--out", str(out), "--kinds", kinds, "--manifest", str(tmp_path / "m")])
        assert rc == 0
        # of the fixture's 57 top-level elements, four lack a title, an
        # author or a key, and only its <masterthesis> is of no DBLP kind
        stdout = capsys.readouterr().out
        assert "records\t52" in stdout and "skipped other kinds\t1" in stdout

    def test_author_normalizing_to_nothing_dropped(self, tmp_path, capsys):
        xml = tmp_path / "dash.xml"
        xml.write_text(
            '<?xml version="1.0"?>\n<dblp>'
            '<article key="k/1"><author>-</author><author>Ann Lee</author><title>T</title></article>'
            '<article key="k/2"><author>.</author><title>U</title></article>'
            "</dblp>",
            "utf-8",
        )
        out, manifest = tmp_path / "c.ndjson", tmp_path / "m"
        assert main(["ingest", "--xml", str(xml), "--out", str(out), "--manifest", str(manifest)]) == 0
        assert "dropped author mentions\t2" in capsys.readouterr().out
        (entry,) = manifest_entries(manifest)
        assert entry["result"]["records"] == 1
        assert entry["result"]["skipped"] == 1
        assert entry["result"]["dropped_author_mentions"] == 2
        # every later command on the store works
        assert main(["stats", "--corpus", str(out), "--manifest", str(manifest)]) == 0
        assert "# of records\t1" in capsys.readouterr().out
        assert main(["predict", "--corpus", str(out), "--name", "Ann Lee", "--manifest", str(manifest)]) == 0
        assert capsys.readouterr().out.startswith("UNIQUE\tAnn Lee")

    def test_failed_ingest_keeps_old_store(self, tmp_path, capsys):
        out = tmp_path / "corpus.ndjson"
        assert main(["ingest", "--xml", FIXTURE_XML, "--out", str(out), "--manifest", str(tmp_path / "m")]) == 0
        before = out.read_bytes()
        bad = tmp_path / "bad.xml"
        text = Path(FIXTURE_XML).read_text("utf-8")
        # a bad tag halfway through: the records before it parse, then the run fails
        cut = text.index("<article", len(text) // 2)
        bad.write_text(text[:cut] + '<article key="x/1"><title>t</titel></article>\n' + text[cut:], "utf-8")
        rc = main(["ingest", "--xml", str(bad), "--out", str(out), "--manifest", str(tmp_path / "m2")])
        assert_operational_error(rc, capsys, tmp_path / "m2")
        assert out.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["bad.xml", "corpus.ndjson", "m", "m2"]

    def test_missing_xml(self, tmp_path, capsys):
        rc = main(
            [
                "ingest",
                "--xml", str(tmp_path / "absent.xml"),
                "--out", str(tmp_path / "c.ndjson"),
                "--manifest", str(tmp_path / "m"),
            ]
        )
        assert rc == 1


class TestSplit:
    def test_assignment_lines_and_counts(self, ws, capsys):
        rc = main(
            ["split", "--corpus", ws["corpus"], "--block", "Y Chen", "--manifest", ws["manifest"]]
        )
        captured = capsys.readouterr()
        assert rc == 0
        lines = captured.out.strip().splitlines()
        assert len(lines) == 18
        author, key, part = lines[0].split("\t")
        assert author == "Ya Chen"
        assert key.startswith("synth/a/")
        assert part in ("TRAIN", "VAL", "TEST")
        # 6 records per author cut 4/1/1
        assert "TRAIN/VAL/TEST records\t12/3/3" in captured.err

    def test_deterministic_under_seed(self, ws, capsys):
        argv = ["split", "--corpus", ws["corpus"], "--block", "Y Chen", "--manifest", ws["manifest"]]
        main(argv)
        first = capsys.readouterr().out
        main(argv)
        assert capsys.readouterr().out == first

    def test_out_file(self, ws, tmp_path, capsys):
        table = tmp_path / "split.tsv"
        rc = main(
            [
                "split",
                "--corpus", ws["corpus"],
                "--block", "Y Chen",
                "--out", str(table),
                "--manifest", ws["manifest"],
            ]
        )
        capsys.readouterr()
        assert rc == 0
        assert len(table.read_text("utf-8").splitlines()) == 18


class TestTrain:
    def test_flag_defaults_are_the_run_config_defaults(self):
        parser, _ = build_parser()
        args = parser.parse_args(["train"])
        assert namelink.cli._train_config(args) == namelink.training.TrainRunConfig()

    def test_checkpoint_and_history_written(self, ws):
        assert Path(ws["ckpt"]).exists()
        history = Path(ws["ckpt"] + ".history.ndjson")
        assert history.exists()
        entries = [json.loads(line) for line in history.read_text("utf-8").splitlines()]
        assert len(entries) == 2
        assert {"epoch", "train_loss", "val_loss", "val_accuracy"} <= set(entries[0])

    def test_summary_line(self, ws, tmp_path, capsys):
        rc = main(
            [
                "train",
                "--corpus", ws["corpus"],
                "--block", "Y Chen",
                "--out", str(tmp_path / "t.npz"),
                "--max-epochs", "1",
                "--manifest", str(tmp_path / "m"),
            ]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "Y Chen\tclasses 3\tepochs 1\t" in out

    def test_manifest_reports_training_time_rate_and_stop_reason(self, ws, tmp_path, capsys):
        manifest = tmp_path / "m"
        rc = main(
            [
                "train",
                "--corpus", ws["corpus"],
                "--block", "Y Chen",
                "--out", str(tmp_path / "t.npz"),
                "--max-epochs", "1",
                "--manifest", str(manifest),
            ]
        )
        capsys.readouterr()
        assert rc == 0
        (entry,) = manifest_entries(manifest)
        (block,) = entry["result"]["blocks"]
        assert block["epochs_run"] == 1
        assert block["stop_reason"] == "max_epochs"
        assert "stopped_early" not in block
        assert 0.0 < block["train_s"] <= entry["duration_s"] + 1e-3
        assert block["train_samples_per_s"] == pytest.approx(block["train_samples"] / block["train_s"])

    def test_manifest_reports_the_input_columns_of_the_train_block_shape(self, tmp_path, capsys):
        """The benchmark's train-block corpus at seed 1: its records set 140
        of the 200 name columns and 433 of the 768 text columns, the input
        columns the block's model trains on."""
        corpus, manifest = str(tmp_path / "a7.nd"), str(tmp_path / "m")
        shape = ["--authors", "20", "--clique", "5", "--records-per-author", "40", "--vocab", "30"]
        assert main(["gen-synth", "--out", corpus, "--block", "Y Chen", *shape, "--seed", "1", "--manifest", manifest]) == 0
        rc = main(
            [
                "train", "--corpus", corpus, "--block", "Y Chen", "--out", str(tmp_path / "t.npz"),
                "--max-epochs", "1", "--seed", "1", "--manifest", manifest,
            ]
        )
        capsys.readouterr()
        assert rc == 0
        (block,) = manifest_entries(manifest)[-1]["result"]["blocks"]
        assert block["input_columns"] == {"name": 140, "text": 433}

    def test_manifest_reports_epoch_times_and_run_identity(self, ws, tmp_path, capsys):
        manifest, ckpt = tmp_path / "m", tmp_path / "t.npz"
        rc = main(
            [
                "train",
                "--corpus", ws["corpus"],
                "--block", "Y Chen",
                "--out", str(ckpt),
                "--max-epochs", "3",
                "--manifest", str(manifest),
            ]
        )
        capsys.readouterr()
        assert rc == 0
        (entry,) = manifest_entries(manifest)
        (block,) = entry["result"]["blocks"]
        assert block["epochs_after_best"] == block["epochs_run"] - block["best_epoch"] >= 0
        assert 0.0 < block["epoch_s_p50"] <= block["epoch_s_max"] <= block["train_s"]
        identity = {"dtype": "float32", "numpy": np.__version__, "blas": block["blas"]}
        assert {k: block[k] for k in identity} == identity
        assert block["blas"].strip()
        extra = load_checkpoint(ckpt).extra
        assert {k: extra[k] for k in identity} == identity
        assert extra["stopped_early"] is False
        # wall times stay out of the history, which reruns reproduce byte for byte
        history = (tmp_path / "t.npz.history.ndjson").read_text("utf-8").splitlines()
        keys = {"epoch", "train_loss", "val_loss", "val_accuracy", "checkpointed"}
        assert all(set(json.loads(line)) == keys for line in history)

    @pytest.mark.parametrize("build_config", ["absent", "without_blas"])
    def test_unknown_blas_still_writes_checkpoint(self, ws, tmp_path, capsys, monkeypatch, build_config):
        """numpy releases before 1.25 keep no build-config record, and a build
        may record no BLAS: the run identity says "unknown" and train goes on."""
        if build_config == "absent":
            monkeypatch.delattr(np.__config__, "CONFIG", raising=False)
        else:
            monkeypatch.setattr(np.__config__, "CONFIG", {"Build Dependencies": {}}, raising=False)
        manifest, ckpt = tmp_path / "m", tmp_path / "t.npz"
        rc = main(
            [
                "train",
                "--corpus", ws["corpus"],
                "--block", "Y Chen",
                "--out", str(ckpt),
                "--max-epochs", "1",
                "--manifest", str(manifest),
            ]
        )
        capsys.readouterr()
        assert rc == 0
        (entry,) = manifest_entries(manifest)
        (block,) = entry["result"]["blocks"]
        assert block["blas"] == "unknown"
        assert load_checkpoint(ckpt).extra["blas"] == "unknown"

    def test_multi_block_directory_output(self, ws, tmp_path, capsys):
        out_dir = tmp_path / "models"
        rc = main(
            [
                "train",
                "--corpus", ws["corpus"],
                "--block", "Y Chen",
                "--block", "Acoa Leea",
                "--out", str(out_dir),
                "--max-epochs", "1",
                "--manifest", str(tmp_path / "m"),
            ]
        )
        capsys.readouterr()
        assert rc == 0
        names = sorted(p.name for p in out_dir.glob("*.npz"))
        assert len(names) == 2

    def test_multi_block_reads_corpus_once_and_matches_single_block_runs(self, ws, tmp_path, capsys, monkeypatch):
        calls = {"load_corpus": 0, "build_author_registry": 0}
        for name in calls:

            def counted(*args, _name=name, _real=getattr(namelink.cli, name), **kwargs):
                calls[_name] += 1
                return _real(*args, **kwargs)

            monkeypatch.setattr(namelink.cli, name, counted)
        argv = ["train", "--corpus", ws["corpus"], "--max-epochs", "2", "--seed", "7", "--manifest", str(tmp_path / "m")]
        rc = main(argv + ["--block", "Y Chen", "--block", "Acoa Leea", "--out", str(tmp_path / "models")])
        assert rc == 0
        assert calls == {"load_corpus": 1, "build_author_registry": 1}
        for variate, name in (("Y Chen", "y_chen.npz"), ("Acoa Leea", "acoa_leea.npz")):
            single = tmp_path / name
            assert main(argv + ["--block", variate, "--out", str(single)]) == 0
            multi = tmp_path / "models" / name
            for suffix in ("", ".history.ndjson"):
                assert Path(f"{multi}{suffix}").read_bytes() == Path(f"{single}{suffix}").read_bytes()
        capsys.readouterr()

    def test_unknown_block_refused_before_any_training(self, ws, tmp_path, capsys):
        out_dir = tmp_path / "models"
        manifest = tmp_path / "m"
        rc = main(
            [
                "train",
                "--corpus", ws["corpus"],
                "--block", "Y Chen",
                "--block", "No Such",
                "--out", f"{out_dir}/",
                "--max-epochs", "1",
                "--manifest", str(manifest),
            ]
        )
        assert_operational_error(rc, capsys, manifest)
        assert not out_dir.exists()

    def test_distinct_blocks_get_distinct_checkpoints(self, tmp_path, capsys):
        # blocks whose names differ only outside ASCII
        records = []
        for variate in ("Ä Lee", "Ö Lee", "李 王"):
            synth = gen_synth(SynthConfig(n_authors=2, variate_key=variate, records_per_author=6, vocab_size=6))
            records += [dataclasses.replace(r, record_key=f"{variate}/{r.record_key}") for r in synth.records]
        corpus = tmp_path / "corpus.ndjson"
        write_corpus_store(records, corpus)
        out_dir = tmp_path / "models"
        manifest = str(tmp_path / "m")
        argv = ["train", "--corpus", str(corpus), "--out", str(out_dir), "--max-epochs", "1", "--manifest", manifest]
        rc = main(argv + ["--block", "Ä Lee", "--block", "Ö Lee", "--block", "李 王"])
        assert rc == 0
        assert sorted(p.name for p in out_dir.glob("*.npz")) == ["ä_lee.npz", "ö_lee.npz", "李_王.npz"]
        for variate, name in (("Ä Lee", "ä_lee.npz"), ("Ö Lee", "ö_lee.npz"), ("李 王", "李_王.npz")):
            rc = main(
                ["evaluate", "--corpus", str(corpus), "--block", variate, "--checkpoint", str(out_dir / name),
                 "--manifest", manifest]
            )
            assert rc == 0

    def test_blocks_sharing_a_checkpoint_path_rejected(self, ws, tmp_path, capsys):
        out_dir = tmp_path / "models"
        manifest = tmp_path / "m"
        rc = main(
            [
                "train",
                "--corpus", ws["corpus"],
                "--block", "Y Chen",
                "--block", "y chen",
                "--out", str(out_dir),
                "--manifest", str(manifest),
            ]
        )
        assert_operational_error(rc, capsys, manifest)
        assert not out_dir.exists()

    def test_non_finite_gradient_is_operational_error(self, ws, tmp_path, capsys, monkeypatch):
        real = namelink.training.loss_and_gradients_batch

        def nan_gradient(*args, **kwargs):
            loss, grad = real(*args, **kwargs)
            return loss, np.full_like(grad, np.nan)

        monkeypatch.setattr(namelink.training, "loss_and_gradients_batch", nan_gradient)
        manifest = tmp_path / "m"
        rc = main(
            [
                "train",
                "--corpus", ws["corpus"],
                "--block", "Y Chen",
                "--out", str(tmp_path / "t.npz"),
                "--max-epochs", "1",
                "--manifest", str(manifest),
            ]
        )
        assert_operational_error(rc, capsys, manifest)
        assert not (tmp_path / "t.npz").exists()

    def test_name_table_with_an_empty_key_refused(self, ws, tmp_path, capsys):
        table = tmp_path / "names.tsv"
        table.write_text("\t" + " ".join(["0.1"] * 200) + "\n", "utf-8")
        manifest = tmp_path / "m"
        rc = main(
            [
                "train",
                "--corpus", ws["corpus"],
                "--block", "Y Chen",
                "--out", str(tmp_path / "t.npz"),
                "--max-epochs", "1",
                "--name-table", str(table),
                "--manifest", str(manifest),
            ]
        )
        assert rc == 1
        assert f"{table}:1: empty key" in capsys.readouterr().err
        (entry,) = manifest_entries(manifest)
        assert entry["status"] == "error"
        assert not (tmp_path / "t.npz").exists()

    @pytest.mark.parametrize("rate", ["nan", "inf"])
    def test_non_finite_learning_rate_rejected(self, ws, tmp_path, capsys, rate):
        manifest = tmp_path / "m"
        rc = main(
            [
                "train",
                "--corpus", ws["corpus"],
                "--block", "Y Chen",
                "--out", str(tmp_path / "t.npz"),
                "--max-epochs", "1",
                "--learning-rate", rate,
                "--manifest", str(manifest),
            ]
        )
        assert rc == 1
        assert "learning_rate must be finite and positive" in capsys.readouterr().err
        (entry,) = manifest_entries(manifest)
        assert entry["status"] == "error"
        assert not (tmp_path / "t.npz").exists()

    def test_run_identity_records_blas_threads(self, ws):
        """The OpenBLAS thread count, or null where it cannot be read, in the
        manifest and in the checkpoint."""
        trained = next(e for e in manifest_entries(ws["manifest"]) if e["command"] == "train")
        (block,) = trained["result"]["blocks"]
        threads = block["blas_threads"]
        assert threads is None or (type(threads) is int and threads >= 1)
        assert load_checkpoint(ws["ckpt"]).extra["blas_threads"] == threads

    def test_reported_checkpoint_path_is_the_written_file(self, ws, tmp_path, capsys):
        manifest = tmp_path / "m"
        rc = main(
            [
                "train",
                "--corpus", ws["corpus"],
                "--block", "Y Chen",
                "--out", str(tmp_path / "x.ckpt"),
                "--max-epochs", "1",
                "--manifest", str(manifest),
            ]
        )
        assert rc == 0
        (entry,) = [json.loads(line) for line in manifest.read_text("utf-8").splitlines()]
        checkpoint = entry["result"]["blocks"][0]["checkpoint"]
        assert checkpoint == str(tmp_path / "x.ckpt.npz")
        assert checkpoint in capsys.readouterr().out
        assert Path(checkpoint).exists()
        assert Path(checkpoint + ".history.ndjson").exists()
        rc = main(
            [
                "evaluate",
                "--corpus", ws["corpus"],
                "--block", "Y Chen",
                "--checkpoint", checkpoint,
                "--manifest", str(manifest),
            ]
        )
        assert rc == 0


class TestEvaluate:
    def test_all_mode_report(self, ws, capsys):
        rc = main(
            [
                "evaluate",
                "--corpus", ws["corpus"],
                "--block", "Y Chen",
                "--checkpoint", ws["ckpt"],
                "--manifest", ws["manifest"],
            ]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "MiAF1 (All)\t" in out
        assert "instances\t6" in out  # 3 TEST records, scored twice in ALL

    def test_anv_mode_half_instances(self, ws, capsys):
        rc = main(
            [
                "evaluate",
                "--corpus", ws["corpus"],
                "--block", "Y Chen",
                "--checkpoint", ws["ckpt"],
                "--mode", "ANV",
                "--manifest", ws["manifest"],
            ]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "MiAF1 (ANV)\t" in out
        assert "instances\t3" in out

    def test_missing_checkpoint_file(self, ws, tmp_path, capsys):
        rc = main(
            [
                "evaluate",
                "--corpus", ws["corpus"],
                "--block", "Y Chen",
                "--checkpoint", str(tmp_path / "absent.npz"),
                "--manifest", str(tmp_path / "m"),
            ]
        )
        assert rc == 1
        assert "error:" in capsys.readouterr().err

    def test_seed_other_than_training_rejected(self, ws, tmp_path, capsys):
        rc = main(
            [
                "evaluate",
                "--corpus", ws["corpus"],
                "--block", "Y Chen",
                "--checkpoint", ws["ckpt"],
                "--seed", "5",
                "--manifest", str(tmp_path / "m"),
            ]
        )
        captured = capsys.readouterr()
        assert rc == 1
        assert "--seed 0" in captured.err and "--seed 5" in captured.err
        assert "MiAF1" not in captured.out

    def test_checkpoint_without_master_seed_refused(self, ws, tmp_path, capsys):
        """A file that does not say which seed drew its split cannot pass the
        seed check by leaving the seed out."""
        ckpt = rewrite_meta(ws["ckpt"], tmp_path / "old.npz", lambda meta: meta["extra"].pop("master_seed"))
        manifest = tmp_path / "m"
        rc = main(
            [
                "evaluate",
                "--corpus", ws["corpus"],
                "--block", "Y Chen",
                "--checkpoint", ckpt,
                "--seed", "5",
                "--manifest", str(manifest),
            ]
        )
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.err.startswith(f"error: checkpoint {ckpt}: extra.master_seed is missing")
        assert "retrained" in captured.err and "MiAF1" not in captured.out
        assert [e["status"] for e in manifest_entries(manifest)] == ["error"]


    def test_encoders_other_than_training_rejected(self, ws, tables, tmp_path, capsys):
        manifest = tmp_path / "m"
        rc = main(
            [
                "evaluate",
                "--corpus", ws["corpus"],
                "--block", "Y Chen",
                "--checkpoint", ws["ckpt"],
                "--name-table", tables["name_table"],
                "--manifest", str(manifest),
            ]
        )
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.err.startswith("error:")
        assert '"kind": "hashing"' in captured.err and '"kind": "table"' in captured.err
        assert [e["status"] for e in manifest_entries(manifest)] == ["error"]
        assert "MiAF1" not in captured.out

    def test_checkpoint_without_encoder_fingerprint_refused(self, ws, tables, tmp_path, capsys):
        ckpt = rewrite_meta(ws["ckpt"], tmp_path / "old.npz", lambda meta: meta["extra"].pop("encoders"))
        manifest = tmp_path / "m"
        rc = main(
            [
                "evaluate",
                "--corpus", ws["corpus"],
                "--block", "Y Chen",
                "--checkpoint", ckpt,
                "--name-table", tables["name_table"],
                "--manifest", str(manifest),
            ]
        )
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.err.startswith(f"error: checkpoint {ckpt}: extra.encoders is missing")
        assert "MiAF1" not in captured.out
        assert [e["status"] for e in manifest_entries(manifest)] == ["error"]

    @pytest.mark.parametrize(
        "command, args",
        [("evaluate", ["--block", "Y Chen"]), ("predict", ["--name", "Y Chen", "--record-key", "synth/a/0000"])],
    )
    def test_checkpoint_with_non_finite_params_refused(self, ws, tmp_path, capsys, command, args):
        with np.load(ws["ckpt"]) as archive:
            arrays = dict(archive)
        arrays["params"] = np.full_like(arrays["params"], np.nan)
        ckpt = tmp_path / "nan.npz"
        np.savez(ckpt, **arrays)
        manifest = tmp_path / "m"
        rc = main([command, "--corpus", ws["corpus"], *args, "--checkpoint", str(ckpt), "--manifest", str(manifest)])
        captured = capsys.readouterr()
        assert rc == 1
        n = arrays["params"].size
        assert captured.err.startswith(f"error: checkpoint {ckpt}: {n} of {n} params are not finite")
        assert "MiAF1" not in captured.out and "nan" not in captured.out
        assert [e["status"] for e in manifest_entries(manifest)] == ["error"]

    def test_manifest_reports_table_misses(self, ws, tables, tmp_path, capsys):
        manifest = tmp_path / "m"
        for extra in ([], ["--name-table", tables["name_table"], "--text-table", tables["text_table"]]):
            rc = main(
                [
                    "evaluate",
                    "--corpus", ws["corpus"],
                    "--block", "Y Chen",
                    "--checkpoint", tables["ckpt"] if extra else ws["ckpt"],
                    *extra,
                    "--manifest", str(manifest),
                ]
            )
            assert rc == 0
        plain, with_tables = (e["result"] for e in manifest_entries(manifest))
        assert "name_table_misses" not in plain and "text_table_misses" not in plain
        # ALL mode scores 3 TEST records twice; no name is in the table
        assert with_tables["name_table_misses"] > 0
        assert 0 < with_tables["text_table_misses"] <= 2 * 6

    @pytest.mark.parametrize("key", ["config", "classes", "extra", "master_seed", "encoders"])
    def test_checkpoint_metadata_missing_key(self, ws, tmp_path, capsys, key):
        """``meta`` without ``key``; ``master_seed`` and ``encoders`` go from
        ``extra``, and ``extra`` stays as a list of its items."""

        def edit(meta):
            if key == "extra":
                meta["extra"] = list(meta["extra"].items())
            elif key in meta:
                del meta[key]
            else:
                del meta["extra"][key]

        ckpt = rewrite_meta(ws["ckpt"], tmp_path / "broken.npz", edit)
        manifest = tmp_path / "m"
        rc = main(
            [
                "evaluate",
                "--corpus", ws["corpus"],
                "--block", "Y Chen",
                "--checkpoint", ckpt,
                "--manifest", str(manifest),
            ]
        )
        assert_operational_error(rc, capsys, manifest)

    def test_checkpoint_of_another_block_rejected(self, ws, tmp_path, capsys):
        other = tmp_path / "acoa.npz"
        argv = ["--corpus", ws["corpus"], "--manifest", str(tmp_path / "train.ndjson")]
        assert main(["train", *argv, "--block", "Acoa Leea", "--out", str(other), "--max-epochs", "1"]) == 0
        capsys.readouterr()
        manifest = tmp_path / "m"
        rc = main(
            [
                "evaluate",
                "--corpus", ws["corpus"],
                "--block", "Y Chen",
                "--checkpoint", str(other),
                "--manifest", str(manifest),
            ]
        )
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith("error:")
        assert "has 1 classes" in err and "has 3" in err
        assert [e["status"] for e in manifest_entries(manifest)] == ["error"]

    def test_checkpoint_with_other_classes_rejected(self, ws, tmp_path, capsys):
        others = [AuthorId("Other Person", k) for k in range(3)]
        ckpt = resave(ws["ckpt"], tmp_path / "other.npz", class_index=others)
        manifest = tmp_path / "m"
        rc = main(
            ["evaluate", "--corpus", ws["corpus"], "--block", "Y Chen", "--checkpoint", ckpt, "--manifest", str(manifest)]
        )
        err = capsys.readouterr().err
        assert rc == 1
        assert "or their order" in err
        assert [e["status"] for e in manifest_entries(manifest)] == ["error"]


class TestCheckpointCompatibility:
    def legacy_checkpoint(self, src, dst, fingerprint=True):
        """``src`` rewritten in the older layout that also stored the Adam
        moments: ``adam_m``, ``adam_v`` and ``meta.adam``.  Without
        ``fingerprint`` it is a file from before the encoder fingerprint was
        stored: no ``extra.encoders``, and ``dropout_branches`` in its config."""
        with np.load(src) as archive:
            meta = json.loads(bytes(archive["meta"]).decode("utf-8"))
            params = archive["params"]
        meta["adam"] = {"t": 12, "lr": 1e-3, "beta1": 0.9, "beta2": 0.999, "eps": 1e-8}
        if not fingerprint:
            del meta["extra"]["encoders"]
            meta["config"]["dropout_branches"] = False
        rng = np.random.default_rng(0)
        np.savez(
            dst,
            meta=np.frombuffer(json.dumps(meta, ensure_ascii=False).encode("utf-8"), dtype=np.uint8),
            params=params,
            adam_m=rng.normal(size=params.size).astype(params.dtype),
            adam_v=rng.random(params.size).astype(params.dtype),
        )
        return str(dst)

    def test_checkpoint_with_adam_moments_scores_like_its_resave(self, ws, tmp_path, capsys):
        legacy = self.legacy_checkpoint(ws["ckpt"], tmp_path / "legacy.npz")
        with np.load(legacy) as archive:
            assert {"adam_m", "adam_v"} <= set(archive.files)
        resaved = resave(legacy, tmp_path / "resaved.npz")
        with np.load(resaved) as archive:
            assert set(archive.files) == {"meta", "params"}
        manifest = str(tmp_path / "m")
        outputs = []
        for ckpt in (legacy, resaved):
            runs = (
                ["evaluate", "--corpus", ws["corpus"], "--block", "Y Chen", "--checkpoint", ckpt],
                ["predict", "--corpus", ws["corpus"], "--name", "Y Chen", "--record-key", "synth/a/0000",
                 "--checkpoint", ckpt],
            )
            for argv in runs:
                assert main(argv + ["--manifest", manifest]) == 0
            outputs.append(capsys.readouterr().out)
        assert "MiAF1 (All)" in outputs[0] and "chosen\t" in outputs[0]
        assert outputs[0] == outputs[1]

    def test_checkpoint_without_fingerprint_refused_by_evaluate_and_predict(self, ws, tmp_path, capsys):
        legacy = self.legacy_checkpoint(ws["ckpt"], tmp_path / "legacy.npz", fingerprint=False)
        runs = (
            ["evaluate", "--corpus", ws["corpus"], "--block", "Y Chen", "--checkpoint", legacy],
            ["predict", "--corpus", ws["corpus"], "--name", "Y Chen", "--record-key", "synth/a/0000",
             "--checkpoint", legacy],
        )
        for argv in runs:
            manifest = tmp_path / f"{argv[0]}.ndjson"
            rc = main(argv + ["--manifest", str(manifest)])
            captured = capsys.readouterr()
            assert rc == 1
            assert f"error: checkpoint {legacy}: extra.encoders is missing" in captured.err
            assert "must be retrained" in captured.err
            assert "MiAF1" not in captured.out and "chosen\t" not in captured.out
            assert [e["status"] for e in manifest_entries(manifest)] == ["error"]


class TestPredict:
    def test_new_name(self, ws, capsys):
        rc = main(
            ["predict", "--corpus", ws["corpus"], "--name", "Unseen Person", "--manifest", ws["manifest"]]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert out.startswith("NEW\tUnseen Person")

    def test_unique_name_needs_no_model(self, ws, capsys):
        rc = main(
            ["predict", "--corpus", ws["corpus"], "--name", "Acoa Leea", "--manifest", ws["manifest"]]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert out.startswith("UNIQUE\tAcoa Leea\tAcoa Leea")

    def test_ambiguous_without_checkpoint(self, ws, capsys):
        rc = main(
            ["predict", "--corpus", ws["corpus"], "--name", "Y Chen", "--manifest", ws["manifest"]]
        )
        captured = capsys.readouterr()
        assert rc == 1
        assert "AMBIGUOUS\tY Chen\t3 candidates" in captured.out
        assert "checkpoint" in captured.err

    def test_variate_that_is_not_its_own_anv_without_checkpoint(self, tmp_path, capsys):
        # the registry's variate of "ßen Li" and "ßa Li" is "SS Li"; the anv
        # of the query "SS Li" is "S Li", which no author has
        corpus, manifest = tmp_path / "c.ndjson", tmp_path / "m"
        records = [
            BibRecord(f"k/{i}", "article", "T", "J.", 2012, (AuthorMention.from_raw(name),))
            for i, name in enumerate(["ßen Li", "ßa Li"])
        ]
        write_corpus_store(records, corpus)
        rc = main(["predict", "--corpus", str(corpus), "--name", "SS Li", "--manifest", str(manifest)])
        captured = capsys.readouterr()
        assert captured.out.startswith("AMBIGUOUS\tSS Li\t2 candidates\tblock SS Li")
        assert rc == 1
        assert "a trained checkpoint is required" in captured.err
        assert [e["status"] for e in manifest_entries(manifest)] == ["error"]

    def test_ambiguous_full_flow(self, ws, capsys):
        rc = main(
            [
                "predict",
                "--corpus", ws["corpus"],
                "--name", "Y Chen",
                "--record-key", "synth/a/0000",
                "--checkpoint", ws["ckpt"],
                "--manifest", ws["manifest"],
            ]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "pairs\t6" in out  # 3 authors + target -> C(4, 2)
        assert "chosen\t" in out

    def test_unknown_record_key(self, ws, capsys):
        rc = main(
            [
                "predict",
                "--corpus", ws["corpus"],
                "--name", "Y Chen",
                "--record-key", "synth/zz/9999",
                "--checkpoint", ws["ckpt"],
                "--manifest", ws["manifest"],
            ]
        )
        assert rc == 1
        assert "not in corpus" in capsys.readouterr().err

    def test_record_that_lists_no_candidate_rejected(self, tmp_path, capsys):
        corpus, manifest, ckpt = tmp_path / "c.ndjson", tmp_path / "m", tmp_path / "w.npz"
        records = [
            BibRecord(f"k/{name[-1]}{i}", "article", f"T {i}", "J.", 2012, (AuthorMention.from_raw(name),))
            for name in ("Wei Wang 0001", "Wei Wang 0002")
            for i in range(8)
        ]
        records.append(BibRecord("other", "article", "T", "J.", 2012, (AuthorMention.from_raw("Ann Lee"),)))
        write_corpus_store(records, corpus)
        train = ["train", "--corpus", str(corpus), "--block", "W Wang", "--out", str(ckpt), "--max-epochs", "1"]
        assert main([*train, "--manifest", str(manifest)]) == 0
        capsys.readouterr()
        rc = main(
            [
                "predict",
                "--corpus", str(corpus),
                "--name", "Wei Wang",
                "--record-key", "other",
                "--checkpoint", str(ckpt),
                "--manifest", str(manifest),
            ]
        )
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.err.startswith("error: record 'other' lists none of the candidates")
        assert "chosen" not in captured.out
        assert [e["status"] for e in manifest_entries(manifest)] == ["ok", "error"]

    def test_checkpoint_missing_candidates_rejected(self, ws, tmp_path, capsys):
        others = [AuthorId("Other Person", k) for k in range(3)]
        ckpt = resave(ws["ckpt"], tmp_path / "other.npz", class_index=others)
        rc = main(
            [
                "predict",
                "--corpus", ws["corpus"],
                "--name", "Y Chen",
                "--record-key", "synth/a/0000",
                "--checkpoint", ckpt,
                "--manifest", str(tmp_path / "m"),
            ]
        )
        captured = capsys.readouterr()
        assert rc == 1
        assert "does not cover" in captured.err
        assert "chosen" not in captured.out


    def test_encoders_other_than_training_rejected(self, ws, tables, tmp_path, capsys):
        manifest = tmp_path / "m"
        rc = main(
            [
                "predict",
                "--corpus", ws["corpus"],
                "--name", "Y Chen",
                "--record-key", "synth/a/0000",
                "--checkpoint", tables["ckpt"],
                "--name-table", tables["name_table"],
                "--manifest", str(manifest),
            ]
        )
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.err.startswith("error:")
        assert '"kind": "hashing"' in captured.err and '"kind": "table"' in captured.err
        assert [e["status"] for e in manifest_entries(manifest)] == ["error"]
        assert "chosen" not in captured.out

    def test_manifest_reports_table_misses(self, ws, tables, tmp_path, capsys):
        manifest = tmp_path / "m"
        rc = main(
            [
                "predict",
                "--corpus", ws["corpus"],
                "--name", "Y Chen",
                "--record-key", "synth/a/0000",
                "--checkpoint", tables["ckpt"],
                "--name-table", tables["name_table"],
                "--text-table", tables["text_table"],
                "--manifest", str(manifest),
            ]
        )
        assert rc == 0
        (entry,) = manifest_entries(manifest)
        n_pool = len(tables["record"].authors) + 1
        # the target's first name and every pool name miss; of title and source only the source does
        assert entry["result"]["name_table_misses"] == 1 + n_pool
        assert entry["result"]["text_table_misses"] == 1


class TestUsageErrors:
    def test_no_command(self, capsys):
        with pytest.raises(SystemExit) as err:
            main([])
        assert err.value.code == 2

    def test_missing_required_flag(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as err:
            main(["stats", "--manifest", str(tmp_path / "m")])
        assert err.value.code == 2
        assert "--corpus" in capsys.readouterr().err

    def test_bad_choice(self, ws, capsys):
        with pytest.raises(SystemExit) as err:
            main(
                [
                    "evaluate",
                    "--corpus", ws["corpus"],
                    "--block", "Y Chen",
                    "--checkpoint", ws["ckpt"],
                    "--mode", "FULL",
                ]
            )
        assert err.value.code == 2


class TestConfigFile:
    def test_config_supplies_required_flags(self, ws, tmp_path, capsys):
        cfg = tmp_path / "stats.cfg"
        cfg.write_text(f"# corpus statistics\ncorpus={ws['corpus']}\n", "utf-8")
        rc = main(["stats", "--config", str(cfg), "--manifest", str(tmp_path / "m")])
        out = capsys.readouterr().out
        assert rc == 0
        assert "# of records\t18" in out

    def test_flag_beats_config(self, tmp_path, capsys):
        cfg = tmp_path / "gen.cfg"
        cfg.write_text("authors=5\nrecords-per-author=2\n", "utf-8")
        rc = main(
            [
                "gen-synth",
                "--out", str(tmp_path / "c.ndjson"),
                "--authors", "3",
                "--config", str(cfg),
                "--manifest", str(tmp_path / "m"),
            ]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "authors\t3" in out  # flag value
        assert "records\t6" in out  # config value: 3 authors x 2 records

    def test_flag_equal_to_its_default_beats_config(self, tmp_path, capsys):
        cfg = tmp_path / "gen.cfg"
        cfg.write_text("authors=3\n", "utf-8")
        rc = main(
            [
                "gen-synth",
                "--out", str(tmp_path / "c.ndjson"),
                "--authors", "20",
                "--config", str(cfg),
                "--manifest", str(tmp_path / "m"),
            ]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "authors\t20" in out
        assert "records\t800" in out  # 20 authors x 40 records each

    def test_unknown_key_rejected(self, ws, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("no_such_flag=1\n", "utf-8")
        rc = main(["stats", "--corpus", ws["corpus"], "--config", str(cfg), "--manifest", str(tmp_path / "m")])
        assert rc == 1
        assert "not a flag" in capsys.readouterr().err

    def test_parallel_key_rejected(self, ws, tmp_path, capsys):
        """train has no parallel option: it trains its blocks one after another."""
        cfg = tmp_path / "train.cfg"
        cfg.write_text("parallel=2\n", "utf-8")
        out = tmp_path / "t.npz"
        argv = ["train", "--corpus", ws["corpus"], "--block", "Y Chen", "--out", str(out), "--config", str(cfg)]
        rc = main(argv + ["--manifest", str(tmp_path / "m")])
        assert rc == 1
        assert "not a flag" in capsys.readouterr().err
        assert not out.exists()

    def test_value_of_wrong_type_names_file_key_and_value(self, ws, tmp_path, capsys):
        cfg = tmp_path / "stats.cfg"
        cfg.write_text("seed=abc\n", "utf-8")
        rc = main(["stats", "--corpus", ws["corpus"], "--config", str(cfg), "--manifest", str(tmp_path / "m")])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith("error:")
        assert str(cfg) in err and "'seed'" in err and "'abc'" in err

    def test_value_outside_choices_names_file_key_value_and_choices(self, ws, tmp_path, capsys):
        cfg = tmp_path / "predict.cfg"
        cfg.write_text("mode=anv\n", "utf-8")
        argv = ["predict", "--corpus", ws["corpus"], "--name", "Y Chen", "--config", str(cfg)]
        rc = main(argv + ["--manifest", str(tmp_path / "m")])
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.err.startswith(f"error: {cfg}:1: config key 'mode' has bad value 'anv': ")
        assert "ALL, ANV" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize(("raw", "value"), [("1", True), ("Yes", True), ("ON", True), ("0", False), ("off", False), ("FALSE", False)])
    def test_boolean_values(self, tmp_path, capsys, raw, value):
        cfg = tmp_path / "gen.cfg"
        cfg.write_text(f"share-full-name={raw}\n", "utf-8")
        manifest = tmp_path / "m"
        argv = ["gen-synth", "--out", str(tmp_path / "c.nd"), "--authors", "2", "--records-per-author", "1"]
        assert main(argv + ["--config", str(cfg), "--manifest", str(manifest)]) == 0
        (entry,) = manifest_entries(manifest)
        assert entry["config"]["share_full_name"] is value

    def test_boolean_value_not_a_boolean_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "gen.cfg"
        cfg.write_text("# typo\nshare_full_name=ture\n", "utf-8")
        out = tmp_path / "c.nd"
        rc = main(["gen-synth", "--out", str(out), "--config", str(cfg), "--manifest", str(tmp_path / "m")])
        assert rc == 1
        assert capsys.readouterr().err.startswith(f"error: {cfg}:2: config key 'share_full_name' has bad value 'ture': ")
        assert not out.exists()

    def test_repeated_key_names_file_and_both_lines(self, ws, tmp_path, capsys):
        cfg = tmp_path / "train.cfg"
        cfg.write_text("max-epochs=2\nseed=1\nmax_epochs=3\n", "utf-8")
        out = tmp_path / "t.npz"
        argv = ["train", "--corpus", ws["corpus"], "--block", "Y Chen", "--out", str(out), "--config", str(cfg)]
        rc = main(argv + ["--manifest", str(tmp_path / "m")])
        assert rc == 1
        assert capsys.readouterr().err == f"error: {cfg}:3: config key 'max_epochs' is already set on line 1\n"
        assert not out.exists()

    def test_config_error_appends_an_error_entry(self, ws, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("seed=abc\n", "utf-8")
        manifest = tmp_path / "m.ndjson"
        rc = main(["stats", "--corpus", ws["corpus"], "--config", str(cfg), "--manifest", str(manifest)])
        err = capsys.readouterr().err
        assert rc == 1
        (entry,) = manifest_entries(manifest)
        assert entry["command"] == "stats"
        assert entry["status"] == "error"
        assert err == f"error: {entry['result']['error']}\n"
        assert str(cfg) in entry["result"]["error"] and "'seed'" in entry["result"]["error"]
        assert entry["config"]["corpus"] == ws["corpus"]

    def test_missing_config_file_appends_an_error_entry(self, ws, tmp_path, capsys):
        manifest = tmp_path / "m.ndjson"
        rc = main(["stats", "--config", str(tmp_path / "absent.cfg"), "--manifest", str(manifest)])
        capsys.readouterr()
        assert rc == 1
        (entry,) = manifest_entries(manifest)
        assert entry["status"] == "error" and "absent.cfg" in entry["result"]["error"]

    def test_malformed_line_rejected(self, ws, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("just a line without equals\n", "utf-8")
        rc = main(["stats", "--corpus", ws["corpus"], "--config", str(cfg), "--manifest", str(tmp_path / "m")])
        assert rc == 1
        assert "key=value" in capsys.readouterr().err

    def test_line_not_utf8_names_file_and_line(self, ws, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_bytes(b"# seed follows\nseed=\xff\n")
        rc = main(["stats", "--corpus", ws["corpus"], "--config", str(cfg), "--manifest", str(tmp_path / "m")])
        assert rc == 1
        assert capsys.readouterr().err.startswith(f"error: {cfg}:2: not UTF-8: ")

    def test_config_error_goes_to_the_files_own_manifest(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("seed=abc\nmanifest=wanted.ndjson\n", "utf-8")
        rc = main(["stats", "--config", str(cfg)])
        assert_operational_error(rc, capsys, tmp_path / "wanted.ndjson")
        assert not (tmp_path / "runs.ndjson").exists()

    def test_config_that_does_not_parse_goes_to_the_default_manifest(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("manifest=wanted.ndjson\nseed=1\nseed=2\n", "utf-8")
        rc = main(["stats", "--config", str(cfg)])
        assert_operational_error(rc, capsys, tmp_path / "runs.ndjson")
        assert not (tmp_path / "wanted.ndjson").exists()

    def test_manifest_flag_beats_the_files_manifest(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("seed=abc\nmanifest=wanted.ndjson\n", "utf-8")
        rc = main(["stats", "--config", str(cfg), "--manifest", "flag.ndjson"])
        assert_operational_error(rc, capsys, tmp_path / "flag.ndjson")
        assert not (tmp_path / "wanted.ndjson").exists()


class TestManifest:
    def test_every_run_appends_one_entry(self, ws, tmp_path, capsys):
        manifest = tmp_path / "m.ndjson"
        main(["stats", "--corpus", ws["corpus"], "--manifest", str(manifest)])
        main(["stats", "--corpus", ws["corpus"], "--block", "Y Chen", "--manifest", str(manifest)])
        capsys.readouterr()
        entries = [json.loads(line) for line in manifest.read_text("utf-8").splitlines()]
        assert len(entries) == 2
        assert [e["command"] for e in entries] == ["stats", "stats"]
        assert all(e["status"] == "ok" for e in entries)
        assert entries[0]["config"]["corpus"] == ws["corpus"]
        assert "manifest" not in entries[0]["config"]
        assert entries[1]["result"]["uta"] == 3

    def test_operational_errors_logged(self, tmp_path, capsys):
        manifest = tmp_path / "m.ndjson"
        rc = main(["stats", "--corpus", str(tmp_path / "absent"), "--manifest", str(manifest)])
        capsys.readouterr()
        assert rc == 1
        (entry,) = [json.loads(line) for line in manifest.read_text("utf-8").splitlines()]
        assert entry["status"] == "error"
        assert "error" in entry["result"]

    @pytest.mark.parametrize("field, value", [("title", 5), ("authors", "Li"), ("year", "x")])
    def test_store_field_of_the_wrong_type_is_operational_error(self, tmp_path, capsys, field, value):
        corpus = tmp_path / "bad.nd"
        payload = {"key": "k", "kind": "article", "title": "T", "source": "", "year": 2004, "authors": ["Lei Wang"]}
        payload[field] = value
        corpus.write_text("ndcorpus/1\n" + json.dumps(payload) + "\n", "utf-8")
        manifest = tmp_path / "m.ndjson"
        rc = main(["stats", "--corpus", str(corpus), "--manifest", str(manifest)])
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.err.startswith("error:") and f"{corpus}:2" in captured.err
        (entry,) = manifest_entries(manifest)
        assert entry["status"] == "error" and repr(field) in entry["result"]["error"]

    def test_encoder_cache_hit_rates(self, ws, tables, tmp_path, capsys):
        manifest = tmp_path / "m.ndjson"
        common = ["--corpus", ws["corpus"], "--manifest", str(manifest)]
        assert main(["evaluate", *common, "--block", "Y Chen", "--checkpoint", ws["ckpt"]]) == 0
        assert main(
            ["predict", *common, "--name", "Y Chen", "--record-key", "synth/a/0000", "--checkpoint", ws["ckpt"]]
        ) == 0
        capsys.readouterr()
        evaluated, predicted = (e["result"] for e in manifest_entries(manifest))
        trained = next(e for e in manifest_entries(ws["manifest"]) if e["command"] == "train")["result"]
        (with_tables,) = (e["result"] for e in manifest_entries(ws["root"] / "tables.ndjson"))
        for result in (trained, evaluated, predicted, with_tables):
            # the text encoder keeps no cache
            assert "text_cache_hit_rate" not in result
        for result in (evaluated, predicted):
            assert 0.0 <= result["name_cache_hit_rate"] <= 1.0
        # a sample bank encodes each name uncached, so training never calls
        # the cached form, with or without a table in front of it
        assert trained["name_cache_hit_rate"] is None and with_tables["name_cache_hit_rate"] is None
        assert predicted["route"] == "AMBIGUOUS"

    def test_unwritable_manifest_is_operational_error(self, ws, tmp_path, capsys):
        rc = main(["stats", "--corpus", ws["corpus"], "--manifest", str(tmp_path / "missing" / "m.ndjson")])
        captured = capsys.readouterr()
        assert rc == 1
        assert "# of records\t18" in captured.out
        assert captured.err.startswith("error:")

    @pytest.mark.parametrize("command", [["split", "--block", "Y Chen"], ["stats"]])
    def test_closed_stdout_does_not_fail_a_finished_command(self, ws, tmp_path, capsys, command):
        """The console script with its stdout a pipe whose read end is closed
        before it writes, as ``namelink split | head -1`` leaves it once head
        has its line: exit 0, nothing on stderr but the command's own notes,
        and the run logged ok with the result an open stdout gives."""
        closed, piped = tmp_path / "closed.ndjson", tmp_path / "open.ndjson"
        argv = [*command, "--corpus", ws["corpus"]]
        assert main([*argv, "--manifest", str(piped)]) == 0
        capsys.readouterr()
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            child = subprocess.run(
                [sys.executable, "-m", "namelink.cli", *argv, "--manifest", str(closed)],
                stdout=write_end,
                stderr=subprocess.PIPE,
                env={**os.environ, "PYTHONPATH": os.pathsep.join([SRC, os.environ.get("PYTHONPATH", "")])},
                text=True,
                timeout=120,
            )
        finally:
            os.close(write_end)
        assert child.returncode == 0, child.stderr
        for noise in ("error", "Broken pipe", "Traceback", "Exception ignored"):
            assert noise not in child.stderr
        (entry,) = manifest_entries(closed)
        (reference,) = manifest_entries(piped)
        assert entry["status"] == "ok" and entry["result"] == reference["result"]


def test_readme_cli_notes_name_exactly_the_parser_flags():
    notes = README.read_text("utf-8").split("\n## CLI notes\n", 1)[1].split("\n## ", 1)[0]
    named = set(re.findall(r"--[a-z]+(?:-[a-z]+)*", notes))
    _, subs = build_parser()
    flags = {opt for p in subs.values() for action in p._actions for opt in action.option_strings}
    assert named == {opt for opt in flags if opt.startswith("--")} - {"--help"}
