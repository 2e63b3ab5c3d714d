"""Print the loop digest of a cohort: one sha256 per test subject, a
volumes digest and their combination.

    PYTHONPATH=src python3 scripts/loop_digest.py COHORT/manifest.json [--set KEY=VALUE ...]

For each test subject of the manifest, in manifest order, the adaptation
loop runs on its protocol-B image against the cohort's atlases, with the
built-in defaults and the --set overrides, as ``camelion run`` would. The
subject's digest is a sha256 over, in this order: the MVF bytes of every
``LoopResult`` volume (the final labels, the label history, then every
synthesized atlas image of every iteration), the ``repr`` of the list of
(change fraction, synthesis training error) pairs, one per iteration
record, the ``repr`` of ``converged``, and the MVF bytes of the
``run_direct`` and ``run_nhm`` labels. The volumes digest is a sha256 over the MVF bytes alone, every
subject's in the same order; the combined digest is a sha256 over the
subject digests' 32-byte values, in manifest order. Two checkouts produce
the same bytes on a cohort when they print the same combined digest, and
the same volumes when they print the same volumes digest.
"""

from __future__ import annotations

import argparse
import hashlib
import sys
from pathlib import Path

from camelion import config as cfgmod
from camelion.cli import _load_atlases
from camelion.errors import CamelionError
from camelion.phantom import load_manifest
from camelion.pipeline import run, run_direct, run_nhm
from camelion.volumes import encode_mvf, read_mvf


def subject_digest(input_image, atlases, loop_cfg, reference_atlas: int, volumes_digest) -> bytes:
    """The subject's digest; its MVF bytes also go into volumes_digest."""
    result = run(input_image, atlases, loop_cfg)
    digest = hashlib.sha256()

    def add_volume(volume):
        blob = encode_mvf(volume)
        digest.update(blob)
        volumes_digest.update(blob)

    for volume in [result.final_labels, *result.labels_history,
                   *(img for images in result.atlas_images_history for img in images)]:
        add_volume(volume)
    digest.update(repr([(r.change_fraction, r.synth.train_mse) for r in result.records]).encode())
    digest.update(repr(result.converged).encode())
    add_volume(run_direct(input_image, atlases, loop_cfg))
    add_volume(run_nhm(input_image, atlases, reference_atlas, loop_cfg))
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
    volumes = hashlib.sha256()
    combined = hashlib.sha256()
    for entry in manifest["subjects"]:
        if entry["role"] != "test":
            continue
        input_image = read_mvf(root / entry["image_b"])
        sub = subject_digest(input_image, atlases, loop_cfg, cfg["nhm.reference_atlas"], volumes)
        combined.update(sub)
        print(f"{entry['id']} {sub.hex()}")
    print(f"volumes {volumes.hexdigest()}")
    print(f"combined {combined.hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
