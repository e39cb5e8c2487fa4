"""Golden outputs: the sha256 of every output file except manifest.json from
small in-process CLI runs, pinned so a refactor cannot silently change a
number. Each manifest is pinned separately, without argv (which records
--out): the sha256 of its command, config, config_sha256, outputs, seed,
counters and inputs, so the recorded run cannot drift either.

The digests were taken with numpy NUMPY_VERSION. PCG64 streams and the
ziggurat normal/exponential samplers belong to numpy, so another numpy
version may legitimately produce other bytes; a change that alters a digest
on the same numpy must say why.

To print the digests of the current code: PYTHONPATH=src python tests/test_golden.py
"""

import hashlib
import json
import os
from pathlib import Path

import numpy as np
import pytest

from eprblab import domain
from eprblab.cli import main

NUMPY_VERSION = "2.4.6"
SMALL = ("--seed", "11", "--n", "2000")
SCAN = ("--steps", "5", "--pairs", "2000", "--seed", "12")
GEN = ("events", "gen", "--rate", "2000", "--jitter", "10e-9", "--duration", "0.5",
       "--tb", "0.75", "--seed", "15")
# Relative paths: `events match` fingerprints its input paths into summary.txt.
MATCH = ("events", "match", "--a", "gen/events_a.csv", "--b", "gen/events_b.csv",
         "--window", "100")
# A run that leaves one setting pair without coincidences, so E and s read nan.
GEN_NAN = ("events", "gen", "--rate", "2000", "--duration", "0.05", "--seed", "0")

RUNS = {
    "disk-demo-1": ("disk-demo", "--figure", "1", *SMALL),
    "disk-demo-2": ("disk-demo", "--figure", "2", *SMALL),
    "disk-demo-3": ("disk-demo", "--figure", "3", *SMALL),
    "disk-demo-4": ("disk-demo", "--figure", "4", "--alpha", "0.39269908169872414", *SMALL),
    "disk-demo-5-assume-zero": ("disk-demo", "--figure", "5", "--alpha", "0.39269908169872414",
                                *SMALL),
    "disk-demo-5-assume-random": ("disk-demo", "--figure", "5", "--policy", "assume-random",
                                  "--alpha", "0.39269908169872414", *SMALL),
    "disk-demo-5-random-a": ("disk-demo", "--figure", "5", "--policy-a", "assume-random",
                             "--policy-b", "assume-fixed", "--policy-value", "0.3", *SMALL),
    "disk-demo-5-integrate-correlated": ("disk-demo", "--figure", "5", "--policy", "integrate",
                                         "--kind", "correlated", *SMALL),
    "disk-demo-special": ("disk-demo", "--figure", "special", "--alpha",
                          "0.7853981633974483", *SMALL),
    "scan-figure6": ("scan", "--preset", "figure6", *SCAN),
    "scan-figure7": ("scan", "--preset", "figure7", *SCAN),
    "scan-figure8-left": ("scan", "--preset", "figure8-left", *SCAN),
    "scan-figure8-right": ("scan", "--preset", "figure8-right", *SCAN),
    "chsh": ("chsh", "--tb", "0.75", "--pairs", "2000", "--seed", "13"),
    "pathology": ("pathology", "--steps", "4", "--pairs", "1000", "--seed", "14"),
    "events-gen": GEN,
    "events-match": MATCH,
    # Thresholds of 1 detect nothing: every match_prob, E and singles_ratio is nan.
    "scan-nan": ("scan", "--ta", "1", "--tb", "1", "--steps", "3", "--pairs", "100",
                 "--seed", "12"),
    "events-match-nan": (*MATCH[:-1], "0"),
    # Noise and losses, over more than one block of pairs: pinned before
    # optics._count_pairs took over every stream.
    "scan-noisy-lossy": ("scan", "--ta", "0.75", "--tb", "0.75", "--noise-b", "0.05",
                         "--efficiency-b", "0.3", "--steps", "3", "--pairs", "40000",
                         "--seed", "12"),
    "chsh-noisy-lossy": ("chsh", "--noise-a", "0.02", "--efficiency-a", "0.5", "--pairs", "20000",
                         "--seed", "16"),
    "scan-fixed-hv-lossy": ("scan", "--source", "fixed-hv", "--efficiency-b", "0.5", "--steps",
                            "3", "--pairs", "20000", "--seed", "12"),
    # Noise and losses in `events gen`, over more than two blocks of pairs:
    # pinned while it still measured through emit_phis and measure_many.
    "events-gen-noisy-lossy": ("events", "gen", "--rate", "100000", "--duration", "0.4",
                               "--tb", "0.75", "--noise-a", "0.02", "--efficiency-b", "0.5",
                               "--seed", "17"),
    "events-gen-fixed-hv-lossy": ("events", "gen", "--rate", "100000", "--duration", "0.4",
                                  "--source", "fixed-hv", "--basis", "0.3", "--noise-b", "0.05",
                                  "--efficiency-a", "0.7", "--angles-a",
                                  "0.7853981633974483,0.7853981633974483", "--seed", "18"),
}

#: Golden case -> the `events gen` run whose streams it reads from gen/.
INPUTS = {"events-match": GEN, "events-match-nan": GEN_NAN}

GOLDEN = {
    "chsh-noisy-lossy": {
        "chsh.csv": "28da5901dc372520bd5a5946adf0953b8452466336482e7b03b0036173c38576",
        "summary.txt": "c4c8d804e7a4248e97396806eccabae68d3e0fa0dde35f1099a5f83afcb08f25",
    },
    "chsh": {
        "chsh.csv": "3b9a04ed5c9c3ee26777d865390c496f8f20d9b2ff5052c50f1fc62fe817103a",
        "summary.txt": "feb357ca303a9fbbd421f6ca4ca4d97d9e6a375ac84edb4e2f11b27f57617641",
    },
    "disk-demo-1": {
        "disk.txt": "d3d14158d9b3e1768102ab65280f52dc2d84f37ed761426f2832119d296104e4",
        "summary.txt": "6693acefe6069bc650a980eff150bccc1c4f6d7c0ec87a7dc671bb22e4de01ed",
    },
    "disk-demo-2": {
        "disk_a.txt": "ceb85d53c2c43304553bdb02f23043c7085f03639f730ed7509bed50cc4b0fdb",
        "disk_b.txt": "00c01747bea2a4dcd16dc04c90acf74e7fd6119668a73ead19b947c51c7bf1e5",
        "summary.txt": "d9214373f34b336a823c466021c7772f9531bf1b77d75199f0d0ddc4411a3f11",
    },
    "disk-demo-3": {
        "disk_a.txt": "ceb85d53c2c43304553bdb02f23043c7085f03639f730ed7509bed50cc4b0fdb",
        "disk_b.txt": "00c01747bea2a4dcd16dc04c90acf74e7fd6119668a73ead19b947c51c7bf1e5",
        "summary.txt": "59672a57a446d4b969f91daabd1d50fbe30af348656b902e7701e5df9d03b0d3",
    },
    "disk-demo-4": {
        "disk_a.txt": "ceb85d53c2c43304553bdb02f23043c7085f03639f730ed7509bed50cc4b0fdb",
        "disk_b.txt": "00c01747bea2a4dcd16dc04c90acf74e7fd6119668a73ead19b947c51c7bf1e5",
        "summary.txt": "7a883c354bfedf6dee0d2d860f43599b7899067c3312b6dee3a718f750fd3daf",
    },
    "disk-demo-5-assume-random": {
        "summary.txt": "6632c18cb0da00541bc7c594c0e86c38373e4e2be1ed249c42f4ca5c6ab71a38",
    },
    "disk-demo-5-assume-zero": {
        "disk_a.txt": "ceb85d53c2c43304553bdb02f23043c7085f03639f730ed7509bed50cc4b0fdb",
        "disk_b.txt": "d43cbb76dcb22fc32eb0b94f742edd2903749203b62a25460583cdaca96258eb",
        "summary.txt": "0958bb45d5fc8d50761d975f373fa0bd9bb92c395cecf9f8757a287543f32cdf",
    },
    "disk-demo-5-integrate-correlated": {
        "summary.txt": "991da685afbb087a88060c1b44950506a1e7dc6e76ef9d7529c6cf993cbafc15",
    },
    "disk-demo-5-random-a": {
        "summary.txt": "e7e479e89f359715e130cddb019653c01fc170ee797205c6eafcc549b1fa6633",
    },
    "disk-demo-special": {
        "disk_a.txt": "a8765b979d84586892760c9117d871763d8f39144c77e3c80512d02703180387",
        "disk_b.txt": "132348e51f21e3594de508ec8f0c4917f9fbb1f32f35c14e5e36d01a115dac4f",
        "summary.txt": "00911596ec4b7012175746b3ff6a0d94ae8b1c6899680d8e2e49a7598cbc9a52",
    },
    "events-gen": {
        "events_a.csv": "e36b0078e06dc5b294ffd91c41cf93c8a4b9e4b9b12056b0cb73d63baf022834",
        "events_b.csv": "cad4938dfc3e07f20ca727294f051d72804382cd7e0d8ba85e6f73766c0276b2",
        "summary.txt": "e09c464ff71422792b7939cb60145249e54e65f0e278a199bcd43d0730da61f0",
        "truth.csv": "af4ac3503bcb8a1ac697f9911746e9981a6d21dd9bd0a17e3e8fa869c26651e3",
    },
    "events-gen-fixed-hv-lossy": {
        "events_a.csv": "75fbc425f87fe7dd59aff757d108897b7af014301f09c9eab908c9321dbb1480",
        "events_b.csv": "33827574436706200227ed63dbd6386667533a659a9b12375f2443f97ee89b97",
        "summary.txt": "d34649ab2645cca950df1a75840d4590b49d6909dd290d649faad9db9d188e05",
        "truth.csv": "241d6ab288cad899c9374d0fe50d9d27e57f71ca1bf1d4e20c9d227c10695fa6",
    },
    "events-gen-noisy-lossy": {
        "events_a.csv": "cfd7aae7778fc61b332e06ae3dc9421352869184dfc75f333bb6a2357835cfe5",
        "events_b.csv": "bc4ceac1eb6b3e7f0c2272e76b09d91058383f2781b5a4c8db4583c60a87949e",
        "summary.txt": "2247ad02e2b5d643d5df3da67533bfec97e5907bc64e42346894a097f630b9f7",
        "truth.csv": "2c760849a0d36f95d323c9038a1c99eb2c3d36afcd18890ea99934e976fae84d",
    },
    "events-match-nan": {
        "matched.csv": "9d70381b12cf80ed21f2ac2e4f692fad8651143217cd99364894b58b9aa26395",
        "summary.txt": "3ad9a9a749360828fc9bfbf55c6e94f66fd93fdb7e6942e8c0a1d99aabaec0b4",
    },
    "events-match": {
        "matched.csv": "25d971a493029a61a0f03e4908ce9521923cb726c68b62fde43207b65d559063",
        "summary.txt": "3a89dfb5150c17d1622ec7a69ff224337590000c6977bb232badd9aa981e7d80",
    },
    "pathology": {
        "pathology.csv": "8f76f3db15bbd8055a54d4aca53036f97d55bbcaec985a713ea6b5a7c4b8d468",
        "summary.txt": "46eb7d00638dc7bb4dfd2cd7716d17531168ed510a5df315f39d421f454eccd9",
    },
    "scan-nan": {
        "scan.csv": "2f710b22b4bc5b0f2b1bd36fde9a51195116639a8042909eb1e293a704783c0a",
        "summary.txt": "f6fa8bd146ebf3ec52a638cee308f0bdc7b4fb2698a4831ce5fc3a3d605ebb45",
    },
    "scan-fixed-hv-lossy": {
        "scan.csv": "3f72701787664ef5409a96a097c716d595e7f44603eaf2ca9fc2866f9df39b1a",
        "summary.txt": "b7ee3f0583eb06a869ec85f5389cceeea01a7f986650659b5254b2ee42a26f05",
    },
    "scan-noisy-lossy": {
        "scan.csv": "6caccfb4cc43e1910b9d99f39638cf2764d09f41e7fa9a83d6dda670b4d9a880",
        "summary.txt": "cad1ac05f3dca2e70eaf63e8fa72ca11e2a72624ad0a8b3dd27f28a5ceb40889",
    },
    "scan-figure6": {
        "scan.csv": "c579028562f7930901f977d64bf6823fb6c5f45ec9abf60e2ae51c6dcaf657a2",
        "summary.txt": "0d163c7f5ec40388eaf9abe88f9718a3788b63faf6653c33f6d5586cfaeae285",
    },
    "scan-figure7": {
        "scan.csv": "a3e59c33c8cddc127d7288d961e6b03b7cda1447672d5f89e774fe9315ad6673",
        "summary.txt": "543b8f1e2fafd4dfc56d4fe436bd470055a3daa1a3add1281a41615996e0b25f",
    },
    "scan-figure8-left": {
        "scan.csv": "5017782a8973c762e0a745a06154164280ab36c7ea99ca9477ec4034f79bdd86",
        "summary.txt": "cecad06ca8fbdc999178ded526acff3ac17dd014304a3feee6dace182b095fca",
    },
    "scan-figure8-right": {
        "scan.csv": "bf6b98283dd41dd06d2fceff32a34bc586fdaf4404b5f4bc2fc0ced77f532bbb",
        "summary.txt": "e97a61574ffb382037acd50799e0ca94321e68b36b737ec66593cadcefd6da0d",
    },
}

MANIFEST_KEYS = ("command", "config", "config_sha256", "counters", "inputs", "outputs", "seed")

MANIFESTS = {
    "chsh-noisy-lossy": "08fe48ee049831c00ffa3073d3e1e67090db8aae3ce10fdc5d34c8f527bc2eb5",
    "chsh": "6052cde7d9c2a1ef1b639bac41655f2a0b229a560ed776c93d5e6ed7f920bdcb",
    "disk-demo-1": "53a94a46d6a443aae8a9a1a755d5e185804ba934b11ee02960c297c1121aa4b4",
    "disk-demo-2": "6bfc363e65401ce01e01951e25cdea0ff0e1bf3db154c02ee06a5760226d5c2d",
    "disk-demo-3": "cdc567df44a2dbdfc453dedf0312e75dc7a017e92e2eaff2067ec028b5d95f04",
    "disk-demo-4": "e181049acfd69fbb1d56bdbe6e7a86940fb972d441c4f1cc3bb381ea5c78a1c4",
    "disk-demo-5-assume-random": "5cbf0b556690b75cec69ac111072b4ca3f04f68a6118e909e4d3a728a77a08ff",
    "disk-demo-5-assume-zero": "2c72c1e2817e346926d255d0a9deba151a9c639600651fb3669504395665d4ba",
    "disk-demo-5-integrate-correlated":
        "81873fc36f3b2eefb376948f90df9f42a30fb973b6b474b4b32dd8b0e51b11f1",
    "disk-demo-5-random-a": "0a76e96d074033ee3c7170715cd441f4366728ab59216e44ce2ff18bd4b3ae00",
    "disk-demo-special": "0ab672ee5017ed9372a475a40d0b3786ba491ce670082744f10ef813784c8d58",
    "events-gen": "76c4a03b482ba85fb540d7851d0c13704f82d7a1755666defe6242f6b86b2a72",
    "events-gen-fixed-hv-lossy": "caa818f548fd3910b7c2e96b2b0bdb2e4c761f7ab22a73cb9fe843e350552155",
    "events-gen-noisy-lossy": "5655a494aa44faefbf7627b1de9a155058c0411024875325a0b17f29c7680875",
    "events-match-nan": "9bbb00d74ca73e34135b4358d4323dedcf5968bc90e46269a1855e9a005e2488",
    "events-match": "8db23fc9c556bceb417b363fb9eb2570c8678384aa5e4b32ec96bd982379bcf3",
    "pathology": "b8b8ee7254fd0d06363fdcbd67271cd19c09d42ef3ceaf63325af5e0d0f83a5d",
    "scan-nan": "c060955d2a493cee378a8b692e648154e8628595ad38fe0c9036b2f879417f0f",
    "scan-fixed-hv-lossy": "8e1a901d8c8886c21953656a1138656d49ec7aba7e9ce8492aac5f40e56da3a9",
    "scan-noisy-lossy": "4f280e649b8d9634266c3a28ae44c9a63bdc6773358da059b5ed391051e3804c",
    "scan-figure6": "90a3431d1f3202b7b047a961ae6289c77a111afaac89eb328088ef60821e47f8",
    "scan-figure7": "7b1a190607e44a239857facf5005c40949007c92cbb6c48b8112b17aec195dc4",
    "scan-figure8-left": "6eb708476075ab4b7785f8b41d012f47dc222c7d0f6994dd7aee5b3430b8a7d3",
    "scan-figure8-right": "769999af266c11c440ae9078fd57e8c2067e856298fa1f6a423cb5cd1c40c5ef",
}


def run_case(name: str, workdir: Path) -> Path:
    """Run one golden case inside workdir; return its output directory."""
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        if name in INPUTS:
            assert main([*INPUTS[name], "--out", "gen"]) == 0
        assert main([*RUNS[name], "--out", "out"]) == 0
    finally:
        os.chdir(cwd)
    return workdir / "out"


def run_digests(name: str, workdir: Path) -> dict[str, str]:
    """Run one golden case inside workdir and hash its outputs."""
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(run_case(name, workdir).iterdir())
        if p.name != "manifest.json"
    }


def manifest_digest(name: str, workdir: Path) -> str:
    """Run one golden case inside workdir and hash its manifest's MANIFEST_KEYS."""
    manifest = json.loads((run_case(name, workdir) / "manifest.json").read_text())
    pinned = {key: manifest[key] for key in MANIFEST_KEYS if key in manifest}
    text = json.dumps(pinned, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


#: Every golden case at the default block size, and again with every blocked
#: pass (domain._blocks) cut into 64-row blocks, so each output byte also holds
#: across block edges.
BLOCKED_RUNS = [*(pytest.param(name, None, id=name) for name in sorted(RUNS)),
                *(pytest.param(name, 64, id=f"{name}-64-row-blocks") for name in sorted(RUNS))]


@pytest.mark.parametrize("name, block_rows", BLOCKED_RUNS)
def test_golden_digests(name, block_rows, tmp_path, monkeypatch):
    if block_rows is not None:
        monkeypatch.setattr(domain, "_BLOCK_ROWS", block_rows)
    assert run_digests(name, tmp_path) == GOLDEN[name], (
        f"digests were taken with numpy {NUMPY_VERSION}; this is numpy {np.__version__}"
    )


@pytest.mark.parametrize("name", sorted(RUNS))
def test_manifest_digests(name, tmp_path):
    assert manifest_digest(name, tmp_path) == MANIFESTS[name]


if __name__ == "__main__":
    import tempfile

    for name in sorted(RUNS):
        with tempfile.TemporaryDirectory() as tmp:
            print(f"    {name!r}: {run_digests(name, Path(tmp))!r},")
    for name in sorted(RUNS):
        with tempfile.TemporaryDirectory() as tmp:
            print(f"    {name!r}: {manifest_digest(name, Path(tmp))!r},")
