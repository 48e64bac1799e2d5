"""End-to-end checks of the command-line driver via main(argv)."""

import csv
import json
import os
import stat
import struct
import warnings

import numpy as np
import pytest

import nisaclab.training as training_module
import nisaclab.workers as workers_module
from nisaclab.cli import EVAL_COLUMNS, SWEEP_COLUMNS, TRACE_COLUMNS, TRAIN_LOG_COLUMNS, main
from nisaclab.dataset import load_dataset
from nisaclab.snn import SnnModel, forward, init_model, load_model, save_model


def _read_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """One tiny gen+train pipeline shared by the read-only tests."""
    root = tmp_path_factory.mktemp("cli")
    paths = {
        "train": root / "train.nisd",
        "test": root / "test.nisd",
        "model": root / "model.nism",
        "log": root / "train_log.csv",
    }
    assert main([
        "gen", "--n-train", "12", "--n-test", "6", "--L", "8", "--Lb", "1",
        "--out-train", str(paths["train"]), "--out-test", str(paths["test"]),
    ]) == 0
    assert main([
        "train", "--data", str(paths["train"]), "--out", str(paths["model"]),
        "--log", str(paths["log"]), "--hidden", "4", "--epochs", "2",
    ]) == 0
    paths["root"] = root
    return paths


class TestGen:
    def test_writes_both_splits_with_offset_seeds(self, workdir):
        train = load_dataset(workdir["train"])
        test = load_dataset(workdir["test"])
        assert (train.example_count, test.example_count) == (12, 6)
        assert train.master_seed == 0 and test.master_seed == 1
        assert train.slot_count == 8 and train.L_b == 1
        assert train.snr_db == 10.0

    def test_rerun_is_byte_identical(self, workdir, tmp_path):
        a, b = tmp_path / "a.nisd", tmp_path / "b.nisd"
        assert main([
            "gen", "--n-train", "12", "--n-test", "6", "--L", "8", "--Lb", "1",
            "--out-train", str(a), "--out-test", str(b),
        ]) == 0
        assert a.read_bytes() == workdir["train"].read_bytes()
        assert b.read_bytes() == workdir["test"].read_bytes()

    @pytest.mark.parametrize("flags", [
        ["--n-train", "3", "--n-test", "0"],
        ["--n-train", "3", "--n-test", "2", "--seed", str(2**64 - 1)],  # test seed overflows u64
    ])
    def test_bad_test_split_leaves_no_train_file(self, tmp_path, flags):
        train = tmp_path / "train.nisd"
        code = main([
            "gen", *flags, "--L", "4", "--out-train", str(train), "--out-test", str(tmp_path / "t.nisd"),
        ])
        assert code == 2
        assert not train.exists()

    def test_seed_overflow_names_the_split_seed(self, tmp_path, capsys):
        code = main([
            "gen", "--n-train", "3", "--n-test", "2", "--L", "4", "--seed", str(2**64 - 1),
            "--out-train", str(tmp_path / "a.nisd"), "--out-test", str(tmp_path / "b.nisd"),
        ])
        assert code == 2
        assert f"split seed {2**64}" in capsys.readouterr().err  # the test split's seed+1
        assert list(tmp_path.iterdir()) == []

    def test_seed_overflow_exits_2_before_drawing(self, tmp_path, monkeypatch):
        for name in ("stream_dataset", "generate_dataset"):
            monkeypatch.setattr(f"nisaclab.cli.{name}", lambda *a, **k: pytest.fail("drew a split"))
        code = main([
            "gen", "--n-train", "3", "--n-test", "2", "--L", "4", "--seed", str(2**64 - 1),
            "--out-train", str(tmp_path / "a.nisd"), "--out-test", str(tmp_path / "b.nisd"),
        ])
        assert code == 2
        assert list(tmp_path.iterdir()) == []

    def test_unwritable_test_path_leaves_no_file(self, tmp_path):
        out = tmp_path / "out"
        out.mkdir()
        code = main([
            "gen", "--n-train", "3", "--n-test", "2", "--L", "4",
            "--out-train", str(out / "a.nisd"), "--out-test", str(out / "nodir" / "b.nisd"),
        ])
        assert code == 3
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("linked", [False, True], ids=["plain", "symlink"])
    def test_one_file_for_both_splits_exits_2_before_drawing(self, tmp_path, capsys, monkeypatch, linked):
        for name in ("stream_dataset", "generate_dataset"):
            monkeypatch.setattr(f"nisaclab.cli.{name}", lambda *a, **k: pytest.fail("drew a split"))
        same = tmp_path / "same.nisd"
        test = tmp_path / "link.nisd" if linked else same
        if linked:
            test.symlink_to(same)
        code = main([
            "gen", "--n-train", "5", "--n-test", "3", "--L", "8",
            "--out-train", str(same), "--out-test", str(test),
        ])
        assert code == 2
        assert "--out-train and --out-test name the same file" in capsys.readouterr().err
        assert not same.exists()

    @pytest.mark.skipif(not os.path.exists(os.devnull), reason="needs a null device")
    def test_null_device_may_take_both_splits(self):
        # a non-regular file is written in place, so naming it twice loses nothing
        assert main([
            "gen", "--n-train", "2", "--n-test", "2", "--L", "4",
            "--out-train", os.devnull, "--out-test", os.devnull,
        ]) == 0

    def test_ssac_requires_alpha(self, tmp_path):
        code = main([
            "gen", "--n-train", "2", "--n-test", "2", "--L", "4", "--mode", "ssac",
            "--out-train", str(tmp_path / "a"), "--out-test", str(tmp_path / "b"),
        ])
        assert code == 2


class TestTrain:
    def test_model_and_log(self, workdir):
        model = load_model(workdir["model"])
        assert model.hidden_count == 4
        assert model.input_width == 4
        header, rows = _read_csv(workdir["log"])
        assert header == TRAIN_LOG_COLUMNS
        assert [r[0] for r in rows] == ["1", "2"]
        assert all(r[6] == "isac" for r in rows)
        assert all(r[7] == "0" for r in rows)

    def test_rejects_beta_out_of_range(self, workdir, tmp_path):
        code = main([
            "train", "--data", str(workdir["train"]), "--out", str(tmp_path / "m.nism"),
            "--beta", "1.2", "--epochs", "1",
        ])
        assert code == 2

    def test_ssac_writes_model_pair(self, workdir, tmp_path):
        out, log = tmp_path / "pair.nism", tmp_path / "pair_log.csv"
        assert main([
            "train", "--data", str(workdir["train"]), "--out", str(out),
            "--mode", "ssac", "--alpha", "0.5", "--hidden", "3", "--epochs", "2",
            "--log", str(log),
        ]) == 0
        comm = load_model(tmp_path / "pair.comm.nism")
        sense = load_model(tmp_path / "pair.sense.nism")
        assert comm.hidden_count == sense.hidden_count == 3
        header, rows = _read_csv(log)
        assert header == TRAIN_LOG_COLUMNS
        assert [r[6] for r in rows] == ["comm", "comm", "sense", "sense"]

    # the log names the model file: directly, through a symlink, or as ssac's <out>.sense
    @pytest.mark.parametrize("out, log, flags", [
        ("m.nism", "m.nism", []),
        ("m.nism", "link.csv", []),
        ("pair.nism", "pair.sense.nism", ["--mode", "ssac", "--alpha", "0.5"]),
    ], ids=["plain", "symlink", "ssac"])
    def test_log_on_a_model_path_exits_2_before_training(self, workdir, tmp_path, capsys,
                                                         monkeypatch, out, log, flags):
        monkeypatch.setattr("nisaclab.cli.train", lambda *a, **k: pytest.fail("trained"))
        (tmp_path / "link.csv").symlink_to(tmp_path / "m.nism")
        code = main([
            "train", "--data", str(workdir["train"]), "--out", str(tmp_path / out),
            "--log", str(tmp_path / log), "--epochs", "1", *flags,
        ])
        assert code == 2
        assert "--out and --log name the same file" in capsys.readouterr().err
        assert [p.name for p in tmp_path.iterdir()] == ["link.csv"]

    @pytest.mark.parametrize("fails", [False, True], ids=["fits", "error"])
    def test_each_fit_runs_on_one_blas_thread(self, workdir, tmp_path, monkeypatch, fails):
        # a stand-in for OpenBLAS's thread control, at 3 threads, so a restore cannot pass by resetting;
        # the spy reads it inside train, once per batch: one batch per fit of the 12 frames
        threads, seen, real_forward = [3], [], training_module.forward_batch
        monkeypatch.setattr(workers_module, "_openblas_threads",
                            lambda: (lambda: threads[0], lambda k: threads.__setitem__(0, k)))

        def spy(model, inputs):
            seen.append(threads[0])
            if fails:
                raise FloatingPointError("non-finite loss")
            return real_forward(model, inputs)

        monkeypatch.setattr(training_module, "forward_batch", spy)
        code = main(["train", "--data", str(workdir["train"]), "--out", str(tmp_path / "m.nism"),
                     "--mode", "ssac", "--alpha", "0.5", "--hidden", "3", "--epochs", "1"])
        assert code == (2 if fails else 0)
        assert seen == ([1] if fails else [1, 1])
        assert threads == [3]

    def test_missing_dataset_is_io_error(self, tmp_path):
        code = main([
            "train", "--data", str(tmp_path / "absent.nisd"),
            "--out", str(tmp_path / "m.nism"), "--epochs", "1",
        ])
        assert code == 3

    def test_zero_count_header_is_format_error(self, tmp_path, capsys):
        bad = tmp_path / "zero.nisd"
        bad.write_bytes(struct.pack("<4sIIIIdQ", b"NISD", 1, 0, 2**31, 1, 10.0, 0))  # n = 0, L = 2**31
        code = main(["train", "--data", str(bad), "--out", str(tmp_path / "m.nism"), "--epochs", "1"])
        assert code == 3
        assert "invalid dataset" in capsys.readouterr().err
        assert not (tmp_path / "m.nism").exists()


class TestEval:
    def test_writes_one_row(self, workdir, tmp_path):
        out = tmp_path / "eval.csv"
        assert main([
            "eval", "--data", str(workdir["test"]), "--model", str(workdir["model"]),
            "--out", str(out),
        ]) == 0
        header, rows = _read_csv(out)
        assert header == EVAL_COLUMNS
        assert len(rows) == 1
        assert rows[0][0] == "isac"
        assert rows[0][2:7] == ["6", "8", "1", "10.0", "1"]
        assert 0.0 <= float(rows[0][7]) <= 1.0

    def test_rerun_is_byte_identical(self, workdir, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for out in (a, b):
            assert main([
                "eval", "--data", str(workdir["test"]), "--model", str(workdir["model"]),
                "--out", str(out),
            ]) == 0
        assert a.read_bytes() == b.read_bytes()

    # the model of each role in turn has L_b=2 against the L_b=1 test set
    @pytest.mark.parametrize("what, models", [
        ("model", ["--model", "{wide}"]),
        ("decode model", ["--mode", "ssac", "--alpha", "0.5",
                          "--model", "{wide}", "--model-sense", "{model}"]),
        ("detection model", ["--mode", "ssac", "--alpha", "0.5",
                             "--model", "{model}", "--model-sense", "{wide}"]),
    ], ids=["isac", "decode", "detection"])
    def test_width_mismatch(self, workdir, tmp_path, capsys, what, models):
        wide = tmp_path / "wide.nism"
        save_model(SnnModel(input_weights=np.zeros((2, 8)), readout_weights=np.zeros((2, 2))), wide)
        paths = {"wide": wide, "model": workdir["model"]}
        out = tmp_path / "e.csv"
        code = main([
            "eval", "--data", str(workdir["test"]), *[arg.format(**paths) for arg in models],
            "--out", str(out),
        ])
        assert code == 2
        assert capsys.readouterr().err.startswith(f"error: {what} ")
        assert not out.exists()

    def test_has_no_seed_flag(self, workdir, tmp_path):
        # the seed column is the dataset's master seed; eval draws nothing
        with pytest.raises(SystemExit) as exc:
            main(["eval", "--data", str(workdir["test"]), "--model", str(workdir["model"]),
                  "--out", str(tmp_path / "e.csv"), "--seed", "3"])
        assert exc.value.code == 2
        assert not (tmp_path / "e.csv").exists()

    def test_ssac_needs_sense_model_and_alpha(self, workdir, tmp_path):
        base = [
            "eval", "--data", str(workdir["test"]), "--model", str(workdir["model"]),
            "--mode", "ssac", "--out", str(tmp_path / "e.csv"),
        ]
        assert main(base + ["--alpha", "0.5"]) == 2  # no --model-sense
        assert main(base + ["--model-sense", str(workdir["model"])]) == 2  # no --alpha

    def test_corrupt_model_is_format_error(self, workdir, tmp_path):
        bad = tmp_path / "bad.nism"
        bad.write_bytes(b"not a model at all")
        code = main([
            "eval", "--data", str(workdir["test"]), "--model", str(bad),
            "--out", str(tmp_path / "e.csv"),
        ])
        assert code == 3

    # a NaN in the first input weight (after the 16-byte header), or one of
    # the five float64 scalars that end the file other than its constant
    @pytest.mark.parametrize("offset, value, message", [
        pytest.param(16, np.nan, "finite", id="input_weight"),
        pytest.param(-40, np.nan, "hidden_threshold nan; it must be 0.75", id="hidden_threshold"),
        pytest.param(-40, 1.0, "hidden_threshold 1.0; it must be 0.75", id="hidden_threshold_1.0"),
        pytest.param(-32, np.nan, "readout_threshold nan; it must be 0.0", id="readout_threshold"),
        pytest.param(-32, 0.6, "readout_threshold 0.6; it must be 0.0", id="readout_threshold_0.6"),
        pytest.param(-24, np.nan, "tau_mem nan; it must be 1.0", id="tau_mem"),
        pytest.param(-24, 2.0, "tau_mem 2.0; it must be 1.0", id="tau_mem_2.0"),
        pytest.param(-16, np.nan, "tau_syn nan; it must be 0.5", id="tau_syn"),
        pytest.param(-8, np.nan, "tau_ref nan; it must be 0.5", id="tau_ref"),
        pytest.param(-8, 0.25, "tau_ref 0.25; it must be 0.5", id="tau_ref_0.25"),
    ])
    def test_nan_model_is_format_error(self, workdir, tmp_path, capsys, offset, value, message):
        bad = tmp_path / "bad.nism"
        raw = bytearray(workdir["model"].read_bytes())
        raw[offset : offset + 8 or None] = np.float64(value).tobytes()
        bad.write_bytes(bytes(raw))
        code = main([
            "eval", "--data", str(workdir["test"]), "--model", str(bad),
            "--out", str(tmp_path / "e.csv"),
        ])
        assert code == 3
        assert message in capsys.readouterr().err

    def test_nan_dataset_is_format_error(self, workdir, tmp_path, capsys):
        bad = tmp_path / "nan.nisd"
        raw = bytearray(workdir["test"].read_bytes())
        first_input = 36 + 1 + 8  # header, then example 0's target byte and its L=8 bits
        raw[first_input : first_input + 4] = np.float32(np.nan).tobytes()
        bad.write_bytes(bytes(raw))
        code = main([
            "eval", "--data", str(bad), "--model", str(workdir["model"]),
            "--out", str(tmp_path / "e.csv"),
        ])
        assert code == 3
        assert "finite" in capsys.readouterr().err

    @pytest.mark.parametrize("snr_db", [np.nan, np.inf, 1000.0], ids=["nan", "inf", "1000"])
    def test_snr_out_of_range_is_format_error(self, workdir, tmp_path, capsys, snr_db):
        bad = tmp_path / "snr.nisd"
        raw = bytearray(workdir["test"].read_bytes())
        raw[20:28] = np.float64(snr_db).tobytes()  # header snr_db field
        bad.write_bytes(bytes(raw))
        code = main([
            "eval", "--data", str(bad), "--model", str(workdir["model"]),
            "--out", str(tmp_path / "e.csv"),
        ])
        assert code == 3
        assert "snr_db" in capsys.readouterr().err
        assert not (tmp_path / "e.csv").exists()

    @pytest.mark.parametrize("offset, value", [(36, 9), (36 + 1, 7)], ids=["target", "bit"])
    def test_non_binary_label_byte_is_format_error(self, workdir, tmp_path, capsys, offset, value):
        bad = tmp_path / "labels.nisd"
        raw = bytearray(workdir["test"].read_bytes())
        raw[offset] = value  # example 0's target byte, then its first bit byte
        bad.write_bytes(bytes(raw))
        code = main([
            "eval", "--data", str(bad), "--model", str(workdir["model"]),
            "--out", str(tmp_path / "e.csv"),
        ])
        assert code == 3
        assert "0 or 1" in capsys.readouterr().err

    def test_missing_dataset_is_io_error(self, workdir, tmp_path):
        code = main([
            "eval", "--data", str(tmp_path / "absent.nisd"),
            "--model", str(workdir["model"]), "--out", str(tmp_path / "e.csv"),
        ])
        assert code == 3

    @pytest.mark.parametrize("which, field, value", [
        ("model", slice(8, 16), (2**32 - 1).to_bytes(4, "little") * 2),  # H = D = 2^32 - 1
        ("test", slice(12, 20), (2**31).to_bytes(4, "little") * 2),  # L = L_b = 2^31
    ], ids=["nism", "nisd"])
    def test_oversized_header_is_format_error(self, workdir, tmp_path, capsys, which, field, value):
        bad = tmp_path / f"big{workdir[which].suffix}"
        raw = bytearray(workdir[which].read_bytes())
        raw[field] = value
        bad.write_bytes(bytes(raw))
        paths = {"model": workdir["model"], "test": workdir["test"], which: bad}
        code = main([
            "eval", "--data", str(paths["test"]), "--model", str(paths["model"]),
            "--out", str(tmp_path / "e.csv"),
        ])
        assert code == 3
        assert "header promises" in capsys.readouterr().err


    @pytest.mark.parametrize("H, D", [(0, 4), (3, 0)], ids=["no_hidden", "no_input"])
    @pytest.mark.parametrize("command", ["eval", "trace"])
    def test_empty_model_is_format_error(self, workdir, tmp_path, capsys, H, D, command):
        bad = tmp_path / "empty.nism"
        bad.write_bytes(
            struct.pack("<4sIII", b"NISM", 1, H, D)
            + np.zeros(H * D + 2 * H).tobytes()
            + np.array([0.75, 0.0, 1.0, 0.5, 0.5]).tobytes()
        )
        out = tmp_path / "out.csv"
        args = {
            "eval": ["eval", "--data", str(workdir["test"]), "--model", str(bad)],
            "trace": ["trace", "--model", str(bad)],
        }[command]
        assert main(args + ["--out", str(out)]) == 3
        assert "at least one hidden neuron" in capsys.readouterr().err
        assert not out.exists()


@pytest.mark.skipif(workers_module._openblas_threads() is None,
                    reason="forked evaluation needs OpenBLAS's thread control")
class TestForkedEval:
    def test_forked_eval_writes_the_serial_bytes(self, tmp_path, monkeypatch):
        # the golden eval pins score 1,200 frames (5 blocks), which one process
        # scores; here a process may score one block, so 600 frames fork
        monkeypatch.chdir(tmp_path)
        ssac = ["--mode", "ssac", "--alpha", "0.5"]
        commands = {
            "isac": ["eval", "--data", "isac.test.nisd", "--model", "isac.nism"],
            "ssac": ["eval", "--data", "ssac.test.nisd", "--model", "ssac.comm.nism",
                     "--model-sense", "ssac.sense.nism", *ssac],
        }
        for mode, flags in (("isac", []), ("ssac", ssac)):
            assert main(["gen", "--n-train", "12", "--n-test", "600", "--L", "8", *flags,
                         "--out-train", f"{mode}.train.nisd", "--out-test", f"{mode}.test.nisd"]) == 0
            assert main(["train", "--data", f"{mode}.train.nisd", "--out", f"{mode}.nism",
                         "--hidden", "4", "--epochs", "2", *flags]) == 0

        def scores(tag):
            for mode, argv in commands.items():
                assert main([*argv, "--out", f"{mode}.{tag}.csv"]) == 0
            return [(tmp_path / f"{mode}.{tag}.csv").read_bytes() for mode in commands]

        real_fork, forks = os.fork, []
        monkeypatch.setattr(workers_module, "_FORK_BLOCKS", 1)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        monkeypatch.setattr(os, "fork", lambda: pytest.fail("forked with one CPU"))
        serial = scores("serial")
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        monkeypatch.setattr(os, "fork", lambda: forks.append(1) or real_fork())
        assert scores("forked") == serial
        assert len(forks) == 2  # one child per eval


class TestSsacAlphaRule:
    # ceil(0.995 * 8) = 8: no slot is left for sensing
    @pytest.mark.parametrize("command", [
        ["gen", "--n-train", "2", "--n-test", "2", "--L", "8",
         "--out-train", "{root}/a.nisd", "--out-test", "{root}/b.nisd"],
        ["train", "--data", "{train}", "--out", "{root}/m.nism", "--epochs", "1"],
        ["eval", "--data", "{test}", "--model", "{model}", "--model-sense", "{model}",
         "--out", "{root}/e.csv"],
    ])
    def test_alpha_leaving_no_sensing_slot_exits_2(self, workdir, tmp_path, capsys, command):
        paths = {"root": tmp_path, "train": workdir["train"], "test": workdir["test"],
                 "model": workdir["model"]}
        argv = [arg.format(**paths) for arg in command] + ["--mode", "ssac", "--alpha", "0.995"]
        assert main(argv) == 2
        assert "no sensing slot" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []


class TestOutputFiles:
    @staticmethod
    def _eval(workdir, out):
        return main(["eval", "--data", str(workdir["test"]), "--model", str(workdir["model"]), "--out", str(out)])

    def test_symlink_target_is_replaced_not_the_link(self, workdir, tmp_path):
        target = tmp_path / "target.csv"
        target.write_text("old")
        link = tmp_path / "link.csv"
        link.symlink_to(target)
        assert self._eval(workdir, link) == 0
        assert link.is_symlink()
        assert target.read_text().startswith(",".join(EVAL_COLUMNS))
        assert sorted(p.name for p in tmp_path.iterdir()) == ["link.csv", "target.csv"]

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
    def test_pipe_is_written_in_place(self, workdir, tmp_path):
        # a pipe or device (say /dev/stdout) cannot be renamed over
        pipe = tmp_path / "out.csv"
        os.mkfifo(pipe)
        reader = os.open(pipe, os.O_RDONLY | os.O_NONBLOCK)
        try:
            assert self._eval(workdir, pipe) == 0
            data = os.read(reader, 1 << 16)
        finally:
            os.close(reader)
        assert stat.S_ISFIFO(os.stat(pipe).st_mode)
        assert data.decode().startswith(",".join(EVAL_COLUMNS))


class TestOutputNamesAnInput:
    """An output that names one of the command's inputs, directly or through
    a symlink, exits 2 before anything is read, drawn or trained."""

    @pytest.mark.parametrize("linked", [False, True], ids=["plain", "symlink"])
    @pytest.mark.parametrize("argv, inp, out", [
        (["train", "--data", "{data}", "--out", "{same}"], "--data", "--out"),
        (["train", "--data", "{data}", "--out", "{root}/m.nism", "--log", "{same}"], "--data", "--log"),
        (["eval", "--data", "{data}", "--model", "{model}", "--out", "{same}"], "--data", "--out"),
        (["eval", "--data", "{data}", "--model", "{model}", "--out", "{same}"], "--model", "--out"),
        (["eval", "--mode", "ssac", "--alpha", "0.5", "--data", "{data}", "--model", "{model}",
          "--model-sense", "{sense}", "--out", "{same}"], "--model-sense", "--out"),
        (["trace", "--model", "{model}", "--out", "{same}"], "--model", "--out"),
        (["--config", "{config}", "gen", "--n-train", "2", "--n-test", "2", "--L", "4",
          "--out-train", "{same}", "--out-test", "{root}/b.nisd"], "--config", "--out-train"),
        (["--config", "{config}", "train", "--data", "{data}", "--out", "{root}/m.nism",
          "--log", "{same}"], "--config", "--log"),
        (["--config", "{config}", "sweep", "--param", "beta", "--values", "0.5",
          "--n-train", "2", "--n-test", "2", "--L", "4", "--out", "{same}"], "--config", "--out"),
    ], ids=["train-out-data", "train-log-data", "eval-out-data", "eval-out-model",
            "eval-out-model-sense", "trace-out-model", "gen-out-config", "train-log-config",
            "sweep-out-config"])
    def test_exits_2_before_reading(self, workdir, tmp_path, capsys, monkeypatch, argv, inp, out, linked):
        for name in ("load_dataset", "load_model", "stream_dataset", "generate_dataset", "train"):
            monkeypatch.setattr(f"nisaclab.cli.{name}", lambda *a, **k: pytest.fail("read, drew or trained"))
        files = {"data": tmp_path / "data.nisd", "model": tmp_path / "model.nism",
                 "sense": tmp_path / "sense.nism", "config": tmp_path / "cfg.json"}
        files["data"].write_bytes(workdir["train"].read_bytes())
        files["model"].write_bytes(workdir["model"].read_bytes())
        files["sense"].write_bytes(workdir["model"].read_bytes())
        files["config"].write_text(json.dumps({"seed": 0}))
        before = {path: path.read_bytes() for path in files.values()}
        target = files[{"--data": "data", "--model": "model", "--model-sense": "sense",
                        "--config": "config"}[inp]]
        same = tmp_path / "link" if linked else target
        if linked:
            same.symlink_to(target)
        code = main([arg.format(root=tmp_path, same=same, **files) for arg in argv])
        assert code == 2
        assert f"{inp} and {out} name the same file" in capsys.readouterr().err
        assert {path: path.read_bytes() for path in files.values()} == before
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
            [p.name for p in files.values()] + (["link"] if linked else []))

    def test_model_and_sense_model_may_be_one_file(self, workdir, tmp_path):
        # inputs may repeat: only an output may not name an input
        assert main([
            "eval", "--mode", "ssac", "--alpha", "0.5", "--data", str(workdir["test"]),
            "--model", str(workdir["model"]), "--model-sense", str(workdir["model"]),
            "--out", str(tmp_path / "e.csv"),
        ]) == 0


class TestSweep:
    COMMON = [
        "--n-train", "8", "--n-test", "4", "--L", "4",
        "--hidden", "2", "--epochs", "1",
    ]

    def test_beta_grid(self, tmp_path):
        out = tmp_path / "sweep.csv"
        assert main([
            "sweep", "--param", "beta", "--values", "0.3,0.7", *self.COMMON,
            "--out", str(out),
        ]) == 0
        header, rows = _read_csv(out)
        assert header == SWEEP_COLUMNS
        assert [(r[0], r[1]) for r in rows] == [("isac", "0.3"), ("isac", "0.7")]

    def test_lb_grid_runs_both_modes(self, tmp_path):
        out = tmp_path / "sweep.csv"
        assert main([
            "sweep", "--param", "lb", "--values", "1,2", "--alpha", "0.5",
            *self.COMMON, "--out", str(out),
        ]) == 0
        _, rows = _read_csv(out)
        assert [(r[0], r[4]) for r in rows] == [
            ("isac", "1"), ("ssac", "1"), ("isac", "2"), ("ssac", "2"),
        ]

    @pytest.mark.parametrize("flags, message", [
        (["--seed", str(2**64 - 1)], f"split seed {2**64}"),  # the test split's seed+1
        (["--n-train", "0"], "split sizes must be positive"),
    ], ids=["seed", "size"])
    def test_checks_splits_before_generating(self, tmp_path, capsys, monkeypatch, flags, message):
        def generate(*args, **kwargs):
            raise AssertionError("a split was generated before both were checked")

        monkeypatch.setattr("nisaclab.cli.generate_dataset", generate)
        code = main([
            "sweep", "--param", "beta", "--values", "0.5", *self.COMMON, *flags,
            "--out", str(tmp_path / "s.csv"),
        ])
        assert code == 2
        assert message in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("flags, message", [
        (["--param", "beta", "--values", "0.5,1.5"], "beta must lie in [0, 1], got 1.5"),
        (["--param", "alpha", "--values", "0.3,0.995", "--L", "8"],
         "alpha=0.995 leaves no sensing slot at L=8"),
        (["--param", "lb", "--values", "1,0", "--alpha", "0.5"], "L, L_b and n must all be positive"),
        (["--param", "beta", "--values", "0.5", "--lr", "0"], "learning_rate must be positive and finite, got 0.0"),
        (["--param", "beta", "--values", "0.5", "--epochs", "0"], "epochs must be positive and finite, got 0"),
        (["--param", "beta", "--values", "0.5", "--batch", "0"], "batch_size must be positive and finite, got 0"),
        (["--param", "beta", "--values", "0.5", "--hidden", "0"], "need at least one hidden neuron"),
    ], ids=["beta", "alpha", "lb", "lr", "epochs", "batch", "hidden"])
    def test_checks_every_grid_point_before_generating(self, tmp_path, capsys, monkeypatch,
                                                       flags, message):
        def run(*args, **kwargs):
            raise AssertionError("a grid point ran before every point was checked")

        monkeypatch.setattr("nisaclab.cli.generate_dataset", run)
        monkeypatch.setattr("nisaclab.cli.train", run)
        code = main(["sweep", *self.COMMON, *flags, "--out", str(tmp_path / "s.csv")])
        assert code == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert list(tmp_path.iterdir()) == []

    def test_lb_grid_requires_alpha(self, tmp_path):
        code = main([
            "sweep", "--param", "lb", "--values", "1", *self.COMMON,
            "--out", str(tmp_path / "s.csv"),
        ])
        assert code == 2

    def test_empty_grid(self, tmp_path):
        code = main([
            "sweep", "--param", "beta", "--values", ",", *self.COMMON,
            "--out", str(tmp_path / "s.csv"),
        ])
        assert code == 2

    def test_bad_grid_token(self, tmp_path):
        code = main([
            "sweep", "--param", "lb", "--values", "1,two", "--alpha", "0.5",
            *self.COMMON, "--out", str(tmp_path / "s.csv"),
        ])
        assert code == 2


class TestTrace:
    @pytest.fixture()
    def silent_model_path(self, tmp_path):
        model = SnnModel(input_weights=np.zeros((2, 4)), readout_weights=np.zeros((2, 2)))
        path = tmp_path / "silent.nism"
        save_model(model, path)
        return path

    def test_segments_and_counts(self, silent_model_path, tmp_path):
        out = tmp_path / "trace.csv"
        assert main([
            "trace", "--model", str(silent_model_path), "--frame-slots", "5",
            "--idle-slots", "3", "--seed", "9", "--out", str(out),
        ]) == 0
        header, rows = _read_csv(out)
        assert header == TRACE_COLUMNS
        assert [r[0] for r in rows] == [str(i) for i in range(13)]
        assert [r[1] for r in rows] == ["active1"] * 5 + ["idle"] * 3 + ["active2"] * 5
        assert all(r[2] == "0" for r in rows)  # zero weights never spike
        assert all(r[3] == "9" for r in rows)

    def test_counts_sum_both_layers(self, monkeypatch, tmp_path):
        # a random model spikes; each row counts the hidden and readout spikes of its step
        model, traces = init_model(6, 1, np.random.default_rng(15)), []
        save_model(model, tmp_path / "m.nism")
        monkeypatch.setattr("nisaclab.cli.forward", lambda m, frame: traces.append(forward(m, frame)) or traces[0])
        out = tmp_path / "trace.csv"
        assert main(["trace", "--model", str(tmp_path / "m.nism"), "--frame-slots", "10",
                     "--idle-slots", "4", "--out", str(out)]) == 0
        (trace,) = traces
        want = trace.hidden_spikes.sum(1).astype(int) + trace.readout_spikes.sum(1).astype(int)
        assert [r[2] for r in _read_csv(out)[1]] == [str(c) for c in want]
        assert trace.readout_spikes.any() and want.max() > 1 and (want <= 6 + 2).all()

    def test_zero_idle_slots(self, silent_model_path, tmp_path):
        out = tmp_path / "trace.csv"
        assert main([
            "trace", "--model", str(silent_model_path), "--frame-slots", "4",
            "--idle-slots", "0", "--out", str(out),
        ]) == 0
        _, rows = _read_csv(out)
        assert len(rows) == 8
        assert {r[1] for r in rows} == {"active1", "active2"}

    def test_empty_trace_names_both_flags(self, silent_model_path, tmp_path, capsys):
        out = tmp_path / "trace.csv"
        assert main([
            "trace", "--model", str(silent_model_path), "--frame-slots", "0",
            "--idle-slots", "0", "--out", str(out),
        ]) == 2
        err = capsys.readouterr().err
        assert "--frame-slots" in err and "--idle-slots" in err
        assert not out.exists()


    def test_width_not_a_multiple_of_four(self, tmp_path, capsys):
        odd = tmp_path / "odd.nism"
        save_model(SnnModel(input_weights=np.zeros((2, 6)), readout_weights=np.zeros((2, 2))), odd)
        out = tmp_path / "trace.csv"
        assert main(["trace", "--model", str(odd), "--out", str(out)]) == 2
        assert "multiple of 4" in capsys.readouterr().err
        assert not out.exists()


class TestConfigFile:
    def _write(self, tmp_path, payload) -> str:
        path = tmp_path / "cfg.json"
        path.write_text(payload if isinstance(payload, str) else json.dumps(payload))
        return str(path)

    def test_config_supplies_defaults(self, workdir, tmp_path):
        cfg = self._write(tmp_path, {"epochs": 1, "hidden": 2})
        log = tmp_path / "log.csv"
        assert main([
            "--config", cfg, "train", "--data", str(workdir["train"]),
            "--out", str(tmp_path / "m.nism"), "--log", str(log),
        ]) == 0
        _, rows = _read_csv(log)
        assert len(rows) == 1
        assert load_model(tmp_path / "m.nism").hidden_count == 2

    def test_flag_overrides_config(self, workdir, tmp_path):
        cfg = self._write(tmp_path, {"epochs": 1})
        log = tmp_path / "log.csv"
        assert main([
            "--config", cfg, "train", "--data", str(workdir["train"]),
            "--out", str(tmp_path / "m.nism"), "--log", str(log), "--epochs", "2",
        ]) == 0
        _, rows = _read_csv(log)
        assert len(rows) == 2

    def test_config_satisfies_required_flags(self, tmp_path):
        cfg = self._write(tmp_path, {
            "n_train": 3, "n_test": 2, "L": 4,
            "out_train": str(tmp_path / "a.nisd"), "out_test": str(tmp_path / "b.nisd"),
        })
        assert main(["--config", cfg, "gen"]) == 0
        assert load_dataset(tmp_path / "a.nisd").example_count == 3

    def test_key_of_another_subcommand_is_accepted(self, tmp_path):
        # the README's example: gen reads no epochs, train and sweep do
        cfg = self._write(tmp_path, {"n_train": 4, "n_test": 2, "epochs": 50})
        assert main([
            "--config", cfg, "gen", "--L", "4",
            "--out-train", str(tmp_path / "a.nisd"), "--out-test", str(tmp_path / "b.nisd"),
        ]) == 0
        assert load_dataset(tmp_path / "a.nisd").example_count == 4

    def test_unknown_key_is_named_before_values_are_parsed(self, tmp_path, capsys):
        cfg = self._write(tmp_path, {"epoochs": 1, "n_train": 4.5})
        with pytest.raises(SystemExit) as exc:
            main(["--config", cfg, "gen", "--n-test", "2",
                  "--out-train", str(tmp_path / "a.nisd"), "--out-test", str(tmp_path / "b.nisd")])
        assert exc.value.code == 2
        assert "unknown config keys: ['epoochs']" in capsys.readouterr().err

    def test_unknown_key_rejected(self, workdir, tmp_path):
        cfg = self._write(tmp_path, {"epoochs": 1})
        with pytest.raises(SystemExit) as exc:
            main(["--config", cfg, "train", "--data", str(workdir["train"]),
                  "--out", str(tmp_path / "m.nism")])
        assert exc.value.code == 2

    @pytest.mark.parametrize("key", ["slope", "target"])
    def test_fixed_setting_is_an_unknown_key(self, tmp_path, capsys, key):
        # the surrogate slope and the trace's target are constants, not flags
        cfg = self._write(tmp_path, {key: 1})
        with pytest.raises(SystemExit) as exc:
            main(["--config", cfg, "trace", "--model", "m.nism", "--out", "t.csv"])
        assert exc.value.code == 2
        assert f"unknown config keys: ['{key}']" in capsys.readouterr().err

    def test_invalid_json_rejected(self, workdir, tmp_path):
        cfg = self._write(tmp_path, "{not json")
        with pytest.raises(SystemExit) as exc:
            main(["--config", cfg, "train", "--data", str(workdir["train"]),
                  "--out", str(tmp_path / "m.nism")])
        assert exc.value.code == 2

    def test_non_object_json_rejected(self, workdir, tmp_path):
        cfg = self._write(tmp_path, [1, 2, 3])
        with pytest.raises(SystemExit):
            main(["--config", cfg, "train", "--data", str(workdir["train"]),
                  "--out", str(tmp_path / "m.nism")])

    @pytest.mark.parametrize("payload, command", [
        ({"n_train": 4.5}, ["gen", "--n-test", "2", "--out-train", "{root}/a.nisd",
                            "--out-test", "{root}/b.nisd"]),
        ({"epochs": [3]}, ["train", "--data", "{train}", "--out", "{root}/a.nisd"]),
        ({"out_train": 3}, ["gen", "--n-train", "2", "--n-test", "2", "--out-test", "{root}/b.nisd"]),
        ({"mode": "both"}, ["gen", "--n-train", "2", "--n-test", "2", "--out-train", "{root}/a.nisd",
                            "--out-test", "{root}/b.nisd"]),
    ], ids=["float-for-int", "list-for-int", "int-for-path", "outside-choices"])
    def test_wrong_type_exits_2_before_writing(self, workdir, tmp_path, capsys, payload, command):
        cfg = self._write(tmp_path, payload)
        paths = {"root": tmp_path, "train": workdir["train"]}
        with pytest.raises(SystemExit) as exc:
            main(["--config", cfg] + [arg.format(**paths) for arg in command])
        assert exc.value.code == 2
        assert "Traceback" not in capsys.readouterr().err
        assert not (tmp_path / "a.nisd").exists() and not (tmp_path / "b.nisd").exists()

    def test_missing_config_is_io_error(self, tmp_path):
        assert main(["--config", str(tmp_path / "absent.json"), "gen",
                     "--n-train", "1", "--n-test", "1",
                     "--out-train", "a", "--out-test", "b"]) == 3


SEED_CASES = [
    pytest.param(["train", "--data", "{train}", "--out", "{root}/m.nism", "--seed=-1"], id="command19"),
    pytest.param(["train", "--data", "{train}", "--out", "{root}/m.nism", f"--seed={2**64}"], id="command20"),
    pytest.param(["trace", "--model", "{model}", "--out", "{root}/t.csv", "--seed=-1"], id="command21"),
    pytest.param(["trace", "--model", "{model}", "--out", "{root}/t.csv", f"--seed={2**64}"], id="command22"),
]


class TestOutOfRangeValues:
    # each case carries its id, so adding or removing a case renames no other
    @pytest.mark.parametrize("command", [
        pytest.param(["gen", "--n-train", "0", "--n-test", "2", "--out-train", "{root}/a",
                      "--out-test", "{root}/b"], id="command0"),
        pytest.param(["train", "--data", "{train}", "--out", "{root}/m.nism", "--epochs", "0"], id="command1"),
        pytest.param(["train", "--data", "{train}", "--out", "{root}/m.nism", "--lr", "0"], id="command2"),
        pytest.param(["eval", "--data", "{test}", "--model", "{model}", "--model-sense", "{model}",
                      "--mode", "ssac", "--alpha", "1.5", "--out", "{root}/e.csv"], id="command3"),
        pytest.param(["trace", "--model", "{model}", "--idle-slots", "-3", "--out", "{root}/t.csv"],
                     id="command4"),
        pytest.param(["trace", "--model", "{model}", "--frame-slots", "0", "--idle-slots", "0",
                      "--out", "{root}/t.csv"], id="command5"),
        # SNRs outside [-100, 100] dB, NaN included
        pytest.param(["trace", "--model", "{model}", "--snr-db", "nan", "--out", "{root}/t.csv"], id="command6"),
        pytest.param(["trace", "--model", "{model}", "--snr-db=-inf", "--out", "{root}/t.csv"], id="command7"),
        pytest.param(["trace", "--model", "{model}", "--snr-db=-4000", "--out", "{root}/t.csv"], id="command8"),
        pytest.param(["trace", "--model", "{model}", "--snr-db", "4000", "--out", "{root}/t.csv"], id="command9"),
        pytest.param(["gen", "--n-train", "2", "--n-test", "2", "--snr-db=-inf",
                      "--out-train", "{root}/a", "--out-test", "{root}/b"], id="command10"),
        pytest.param(["gen", "--n-train", "2", "--n-test", "2", "--snr-db=-4000",
                      "--out-train", "{root}/a", "--out-test", "{root}/b"], id="command11"),
        pytest.param(["gen", "--n-train", "2", "--n-test", "2", "--snr-db", "4000",
                      "--out-train", "{root}/a", "--out-test", "{root}/b"], id="command12"),
        # non-finite rates are refused before the first step
        pytest.param(["train", "--data", "{train}", "--out", "{root}/m.nism", "--lr", "nan"], id="command13"),
        pytest.param(["train", "--data", "{train}", "--out", "{root}/m.nism", "--lr", "inf"], id="command14"),
        pytest.param(["train", "--data", "{train}", "--out", "{root}/m.nism", "--lr=-inf"], id="command15"),
        pytest.param(["sweep", "--param", "beta", "--values", "0.5", "--n-train", "12", "--n-test", "6",
                      "--L", "8", "--hidden", "4", "--epochs", "2", "--lr", "nan", "--out", "{root}/s.csv"],
                     id="command16"),
        # a finite rate so large that the loss diverges to NaN in epoch 2
        pytest.param(["train", "--data", "{train}", "--out", "{root}/m.nism", "--hidden", "4",
                      "--epochs", "2", "--lr", "1.7e308"], id="command17"),
        pytest.param(["sweep", "--param", "beta", "--values", "0.5", "--n-train", "12", "--n-test", "6",
                      "--L", "8", "--hidden", "4", "--epochs", "2", "--lr", "1.7e308", "--out", "{root}/s.csv"],
                     id="command18"),
        # seeds outside an unsigned 64-bit integer
        *SEED_CASES,
    ])
    def test_exit_2_without_traceback(self, workdir, tmp_path, capsys, command):
        paths = {"root": tmp_path, "train": workdir["train"], "test": workdir["test"],
                 "model": workdir["model"]}
        assert main([arg.format(**paths) for arg in command]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "Traceback" not in err

    @pytest.mark.parametrize("command", SEED_CASES)
    def test_bad_seed_is_named_and_nothing_is_written(self, workdir, tmp_path, capsys, command):
        paths = {"root": tmp_path, "train": workdir["train"], "test": workdir["test"],
                 "model": workdir["model"]}
        assert main([arg.format(**paths) for arg in command]) == 2
        seed = command[-1].removeprefix("--seed=")
        flag = "--seed" if command[0] == "trace" else "seed"
        assert capsys.readouterr().err == f"error: {flag} {seed} does not fit an unsigned 64-bit integer\n"
        assert list(tmp_path.iterdir()) == []

    def test_diverging_train_prints_one_line(self, workdir, tmp_path, capsys):
        # numpy warns when it overflows; the run must print only its error line
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(["train", "--data", str(workdir["train"]), "--out", str(tmp_path / "m.nism"),
                         "--hidden", "4", "--epochs", "2", "--lr", "1.7e308"])
        assert code == 2
        assert [w for w in caught if issubclass(w.category, RuntimeWarning)] == []
        err = capsys.readouterr().err
        assert err.startswith("error: non-finite loss") and err.count("\n") == 1


class TestArgparseErrors:
    def test_missing_required_flag(self):
        with pytest.raises(SystemExit) as exc:
            main(["train"])
        assert exc.value.code == 2

    def test_unknown_subcommand(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("command", [
        ["train", "--data", "d.nisd", "--out", "m.nism", "--slope", "1"],
        ["trace", "--model", "m.nism", "--out", "t.csv", "--target", "0"],
    ], ids=["train-slope", "trace-target"])
    def test_fixed_setting_is_not_a_flag(self, command, capsys):
        with pytest.raises(SystemExit) as exc:
            main(command)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err
