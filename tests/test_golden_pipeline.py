"""The whole command-line pipeline is pinned byte for byte: gen, train, eval
and trace for isac and for ssac at alpha=0.5, at L_b = 1 and 4, plus a beta
sweep.  The SHA-256 of every file written and of every command's stdout is
fixed, so any drift in the arithmetic, the draws or the file formats fails
here.  The test sets hold more than 1000 frames, so evaluation spans two
blocks.

Like the dataset pins in test_dataset.py, these digests hold for the numpy
and BLAS build they were computed with, on the CPU kernels they dispatch to
here (numpy's AVX-512 loops, OpenBLAS's SkylakeX kernels).  Under AVX2
kernels only the trained models and the training logs that print their
losses move; a second run in a child process under that dispatch holds every
other pin.  A change that alters the arithmetic on purpose updates them and
says why; a change that claims identical outputs leaves them alone."""

import contextlib
import ctypes
import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import nisaclab
from nisaclab.cli import main


def _pipeline():
    """(name, argv) of each command, in the order they run."""
    for mode in ("isac", "ssac"):
        for L_b in (1, 4):
            tag = f"{mode}-lb{L_b}"
            alpha = ["--mode", mode] + (["--alpha", "0.5"] if mode == "ssac" else [])
            models = (["--model", f"{tag}.nism"] if mode == "isac" else
                      ["--model", f"{tag}.comm.nism", "--model-sense", f"{tag}.sense.nism"])
            yield f"gen {tag}", [
                "gen", "--n-train", "600", "--n-test", "1200", "--Lb", str(L_b), *alpha,
                "--out-train", f"{tag}.train.nisd", "--out-test", f"{tag}.test.nisd",
            ]
            yield f"train {tag}", [
                "train", "--data", f"{tag}.train.nisd", *alpha, "--epochs", "3",
                "--out", f"{tag}.nism", "--log", f"{tag}.log.csv",
            ]
            yield f"eval {tag}", [
                "eval", "--data", f"{tag}.test.nisd", *models, *alpha, "--out", f"{tag}.eval.csv",
            ]
            yield f"trace {tag}", [
                "trace", "--model", models[1], "--frame-slots", "40", "--idle-slots", "10",
                "--seed", "3", "--out", f"{tag}.trace.csv",
            ]
    yield "sweep beta", [
        "sweep", "--param", "beta", "--values", "0.2,0.8", "--n-train", "300",
        "--n-test", "1100", "--epochs", "3", "--out", "sweep.csv",
    ]


def _digests(root):
    """{output file or 'stdout: <command>': SHA-256} of one pipeline run in the directory root."""
    out = {}
    cwd = os.getcwd()
    os.chdir(root)  # relative paths keep the printed file names fixed
    try:
        for name, argv in _pipeline():
            stdout = io.StringIO()
            with contextlib.redirect_stdout(stdout):
                assert main(argv) == 0, name
            out[f"stdout: {name}"] = hashlib.sha256(stdout.getvalue().encode()).hexdigest()
    finally:
        os.chdir(cwd)
    for path in sorted(root.iterdir()):
        out[path.name] = hashlib.sha256(path.read_bytes()).hexdigest()
    return out


@pytest.fixture(scope="module")
def digests(tmp_path_factory):
    return _digests(tmp_path_factory.mktemp("golden"))


GOLDEN = {
    "stdout: gen isac-lb1":
        "6b1c2d546ff2265edf75b9915a530bc463d069f0fdb4db393fd12acff7b2ffc6",
    "stdout: train isac-lb1":
        "5a216217961d34ed999a4ada819c389aeebc13a1f945586991678f2bd0c7d581",
    "stdout: eval isac-lb1":
        "2081d7ab9e51b49dbc1e6234e72343dfe8ac8b2e6a4dfed7fc5cdb497f693faa",
    "stdout: trace isac-lb1":
        "9a654ca888c9e8c616ecc8643002455346dd1b9a2a78ba6f5f0155dbe364e4f6",
    "stdout: gen isac-lb4":
        "005578e40d7b54b08db09bec2e1b4a2e2f30c749e3d61dafdca574b644b0f384",
    "stdout: train isac-lb4":
        "36887bf3d386fe05c6e2437c65a066d966f4565242cc322480a04592fb9ec087",
    "stdout: eval isac-lb4":
        "134196e0350015699c205f84e3eae6d3cbce8a6387d525d25d12af04674bcf17",
    "stdout: trace isac-lb4":
        "e5d99e88010f3eaabbbb76b640d7191b03c62845592c21cf98416d58b33c1879",
    "stdout: gen ssac-lb1":
        "79d6bb833d0a8fc77d719dce65a47388f74d149d9ec64d6e460109fe659498fb",
    "stdout: train ssac-lb1":
        "ff295bb84de087c7303e917029e572268ce542e9553560e67b14584d12d5b968",
    "stdout: eval ssac-lb1":
        "d70a4c56cc39e80cd9b66d6ca0e79f9cc078a6f9cecc4804e106c7f8689546c5",
    "stdout: trace ssac-lb1":
        "615004b43a5dd5a044d04d23e68224be18c969b3866f6e45dffdd046f155214a",
    "stdout: gen ssac-lb4":
        "f4011e1291d6a4f598e7c0c9137576dd0d416b75f95f9eb477f0957eac5b0052",
    "stdout: train ssac-lb4":
        "a0b87f23d8d74b685a9434702dde2142c7ebf6b0338822ec143ac79d4b00a501",
    "stdout: eval ssac-lb4":
        "c23d2b75f801da039bda50831ea66187a68556ef6a656bcce638618eebd3c20f",
    "stdout: trace ssac-lb4":
        "8f5d820bb1c57ddf7fe6d596f31c3cb1f4f03acfa3403b8ec62a68e5fa82a40e",
    "stdout: sweep beta":
        "013716a99bc8edb1cea7c907760a2c800813165d192cfaa7d0007ef8b3128e95",
    "isac-lb1.eval.csv":
        "27b22a374a4bc405db22f17f3ae88b3d52e610ba47716d082ea456716de2616f",
    "isac-lb1.log.csv":
        "43fa0ba59f5b67eea4e21a30cc6f2c802f417e7a62a8cb9982abb59c5822c601",
    "isac-lb1.nism":
        "f2e6ee8997ba8fa56ab2f3361bcd56e833abc5a75771beb12de7234dce03e146",
    "isac-lb1.test.nisd":
        "27e2368c13fab0f61125ed02296d2532564f56ec5c8c5646468375fd64e9e706",
    "isac-lb1.trace.csv":
        "b49ecdc918b921ff4dce5cbb0c5c5f6cf1cfe6451acb1d0cb95a418827c34da9",
    "isac-lb1.train.nisd":
        "5b42680724a3f387f9d83ee6952f27230ba5f8b1e20a1a84e0af5afcb0c4c3bf",
    "isac-lb4.eval.csv":
        "40a487e9d67ff615ad50430b5514d163652edaa8731f6032db834776d5bc57c4",
    "isac-lb4.log.csv":
        "09e8c43b35b3511fcdc6bcd6d488a5495a76a9370582c68cab3d97d9d407b291",
    "isac-lb4.nism":
        "ce9a9f7d2510a692c0c506419e99380b481bce0a5ce2935a6ddc20d350997bfc",
    "isac-lb4.test.nisd":
        "7a24f0167746865cd9e09d031d5c62f77f282cf6af830040f9178f27b21bcbe8",
    "isac-lb4.trace.csv":
        "2b7c4b0ca0eceabeb505a8777ae30ff32438ceddeb2168f5c6bb1bbdf541a89f",
    "isac-lb4.train.nisd":
        "0f5da4e0d4532082a213789a9f9095ff5a397e4f758972630ecdd99609ef9513",
    "ssac-lb1.comm.nism":
        "39c761964fa44d757bacfb5ee674911700dcce4a5983faeae27494ff0cfe7224",
    "ssac-lb1.eval.csv":
        "c702b6ceec0247a3e7d082e5b25b4f53a73adc85a23c829f7af0f466e43b3019",
    "ssac-lb1.log.csv":
        "8071e674f547c268b6b7d91d02ddf781b04542d712e6ce3261923066cc316e31",
    "ssac-lb1.sense.nism":
        "1bcefe27e7a18e51606e31d9406345e0031742358eeb2146c6207b6a3e0374fb",
    "ssac-lb1.test.nisd":
        "3ff32b92c4d9f607ef3f0f62303f3200077ee43a41cac0a475ed52141538ebb3",
    "ssac-lb1.trace.csv":
        "4498d2e88fcea62398da0ac06362398fa75a7243e1e242438ab504fa954ba566",
    "ssac-lb1.train.nisd":
        "4b72bc11cfbe69c8cfd0041795a0873cb7d6e9f2f0f7b51d13f5c1238efb4c1d",
    "ssac-lb4.comm.nism":
        "516a5955911375d43274879c54a809ad77d2d65a9b2c42c8c8eb996bb5586224",
    "ssac-lb4.eval.csv":
        "c95a08baa1ede52391b633e89e87c02b22c3f30b186bdacf47343877ba773a3e",
    "ssac-lb4.log.csv":
        "f494a47758ee8764ec4a9782327564ce378071cca15841d66d63c4fe357402dd",
    "ssac-lb4.sense.nism":
        "1886aa51836016592693f74bc048e0bb974c689538b7a9afec7ae0d21259561d",
    "ssac-lb4.test.nisd":
        "bb029af92cf905e0c03f1a7b8fc318bf534046df6478ce9019db2e3d5fe3dba1",
    "ssac-lb4.trace.csv":
        "490358b90aa4a51c3e4012b73946e4fbb204f77f4a84a45e346cb0dabf36baa6",
    "ssac-lb4.train.nisd":
        "a2d6be4065516dbc25319e5ec32ceeec7211b65ce8806b76c4359ddd200882eb",
    "sweep.csv":
        "0d34a4dd3e191c5fc0d1133a413aa2f70909d81671eb4913f8f1bfae7240f7ae",
}


def test_pipeline_outputs_match_pins(digests):
    assert digests == GOLDEN


# AVX2 kernels in place of numpy's AVX-512 loops and OpenBLAS's SkylakeX kernels
OTHER_DISPATCH = {"OPENBLAS_CORETYPE": "Haswell", "NPY_DISABLE_CPU_FEATURES": "X86_V4 AVX512_ICL AVX512_SPR"}


def _openblas_core():
    """The name of the kernel set OpenBLAS runs, or None where it cannot be read."""
    try:  # the handle of numpy's extension module finds its dependencies' symbols too
        corename = ctypes.CDLL(np._core._multiarray_umath.__file__).scipy_openblas_get_corename64_
    except (AttributeError, OSError):
        return None
    corename.restype = ctypes.c_char_p
    return corename().decode()


def _can_dispatch_avx2():
    """The CPU runs AVX2 and FMA3, and numpy dispatches the features OTHER_DISPATCH switches off."""
    umath = np._core._multiarray_umath
    return (umath.__cpu_features__.get("AVX2", False) and umath.__cpu_features__.get("FMA3", False)
            and set(OTHER_DISPATCH["NPY_DISABLE_CPU_FEATURES"].split()) <= set(umath.__cpu_dispatch__))


@pytest.mark.skipif(_openblas_core() is None or not _can_dispatch_avx2(),
                    reason="needs OpenBLAS's kernel name, AVX2 and FMA3, and numpy's AVX-512 dispatch")
def test_pipeline_outputs_hold_under_another_cpu_dispatch(tmp_path):
    script = (
        "import json, pathlib, sys\n"
        "import numpy as np\n"
        "from test_golden_pipeline import _digests, _openblas_core\n"
        "features = np._core._multiarray_umath.__cpu_features__\n"
        "print(json.dumps([_openblas_core(), features.get('X86_V4', False), _digests(pathlib.Path(sys.argv[1]))]))\n"
    )
    paths = [str(Path(nisaclab.__file__).parents[1]), str(Path(__file__).parent)]
    env = {**os.environ, **OTHER_DISPATCH, "PYTHONPATH": os.pathsep.join(paths)}
    run = subprocess.run([sys.executable, "-c", script, str(tmp_path)], env=env,
                         capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    core, x86_v4, got = json.loads(run.stdout)
    assert core == "Haswell" and not x86_v4  # the dispatch did change
    # the six models and the four training logs move with the kernels; the other 34 pins hold
    want = {k: v for k, v in GOLDEN.items() if not k.endswith((".nism", ".log.csv"))}
    assert len(want) == 34
    assert {k: got[k] for k in want} == want
