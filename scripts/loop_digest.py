"""Print the loop digest of a cohort: one sha256 per test subject and their
combination.

    PYTHONPATH=src python3 scripts/loop_digest.py COHORT/manifest.json [--set KEY=VALUE ...]

For each test subject of the manifest, in manifest order, the adaptation
loop runs on its protocol-B image against the cohort's atlases, with the
built-in defaults and the --set overrides, as ``camelion run`` would. The
subject's digest is a sha256 over, in this order: the MVF bytes of every
``LoopResult`` volume (the final labels, the label history, then every
synthesized atlas image of every iteration), the SYNM bytes of every
synthesis model, the ``repr`` of the iteration records and of
``converged``, and the MVF bytes of the ``run_direct`` and ``run_nhm``
labels. The combined digest is a sha256 over the subject digests' 32-byte
values, in manifest order. Two checkouts produce the same bytes on a
cohort when they print the same combined digest.
"""

from __future__ import annotations

import argparse
import hashlib
import sys
import tempfile
from pathlib import Path

from camelion import config as cfgmod
from camelion.cli import _load_atlases
from camelion.errors import CamelionError
from camelion.phantom import load_manifest
from camelion.pipeline import run, run_direct, run_nhm
from camelion.synth import save_synth_model
from camelion.volumes import encode_mvf, read_mvf


def subject_digest(input_image, atlases, loop_cfg, reference_atlas: int, scratch: Path) -> bytes:
    result = run(input_image, atlases, loop_cfg)
    digest = hashlib.sha256()
    volumes = [result.final_labels, *result.labels_history,
               *(img for images in result.atlas_images_history for img in images)]
    for volume in volumes:
        digest.update(encode_mvf(volume))
    for model in result.synth_models:
        save_synth_model(model, scratch / "synth.bin")
        digest.update((scratch / "synth.bin").read_bytes())
    digest.update(repr(result.records).encode())
    digest.update(repr(result.converged).encode())
    digest.update(encode_mvf(run_direct(input_image, atlases, loop_cfg)))
    digest.update(encode_mvf(run_nhm(input_image, atlases, reference_atlas, loop_cfg)))
    return digest.digest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("manifest", help="cohort manifest (from 'camelion phantom')")
    parser.add_argument("--set", metavar="KEY=VALUE", action="append", default=[],
                        dest="set_pairs", help="override one config value (repeatable)")
    args = parser.parse_args(argv)

    try:
        cfg = cfgmod.load_config(None, args.set_pairs)
        loop_cfg = cfgmod.loop_config(cfg)
        manifest = load_manifest(args.manifest)
        atlases = _load_atlases(manifest)
    except CamelionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    root = Path(manifest["_dir"])
    combined = hashlib.sha256()
    with tempfile.TemporaryDirectory() as scratch:
        for entry in manifest["subjects"]:
            if entry["role"] != "test":
                continue
            input_image = read_mvf(root / entry["image_b"])
            sub = subject_digest(input_image, atlases, loop_cfg, cfg["nhm.reference_atlas"],
                                 Path(scratch))
            combined.update(sub)
            print(f"{entry['id']} {sub.hex()}")
    print(f"combined {combined.hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
