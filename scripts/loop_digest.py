"""Print the loop digest of a cohort: a cohort digest, one sha256 per test
subject, an arms digest, a volumes digest and their combination.

    PYTHONPATH=src python3 scripts/loop_digest.py COHORT/manifest.json [--set KEY=VALUE ...]

For each test subject of the manifest, in manifest order, the adaptation
loop runs on its protocol-B image against the cohort's atlases, with the
built-in defaults and the --set overrides, as ``camelion run`` would, and
always keeps the synthesized atlas images (``loop.atlas_images``). The
subject's digest is a sha256 over, in this order: the MVF bytes of every
``LoopResult`` volume (the final labels, the label history, then every
synthesized atlas image of every iteration), the ``repr`` of the list of
(change fraction, synthesis training error) pairs, one per iteration
record, the ``repr`` of ``converged``, and the MVF bytes of the
``run_direct`` and ``run_nhm`` labels. The arms digest is a sha256 over
the ``run_direct`` and ``run_nhm`` MVF bytes alone, every subject's in
the same order; the volumes digest is a sha256 over all the MVF bytes,
every subject's in the same order; the combined digest is a sha256 over
the subject digests' 32-byte values, in manifest order. Two checkouts
produce the same bytes on a cohort when they print the same combined
digest, and the same volumes when they print the same volumes digest. A
change that alters the loop's bytes by design leaves the comparison arms
alone when the arms digest stays the same.

The cohort digest is a sha256 over the bytes of every file the manifest
lists, subject by subject in manifest order and, within a subject, its
``image_a``, ``image_b`` and ``labels`` files. It covers what the loop
never reads: the test subjects' truth labels and protocol-A images and
the atlases' protocol-B images.

The lines are, in order: ``cohort <hex>``, one ``<subject id> <hex>``
line per test subject, then ``arms <hex>``, ``volumes <hex>`` and
``combined <hex>``.
"""

from __future__ import annotations

import argparse
import hashlib
import sys
from dataclasses import replace
from pathlib import Path

from camelion import config as cfgmod
from camelion.cli import _load_atlases
from camelion.errors import CamelionError, PersistenceError
from camelion.phantom import load_manifest
from camelion.pipeline import run, run_direct, run_nhm
from camelion.volumes import encode_mvf, read_mvf


def subject_digest(input_image, atlases, loop_cfg, reference_atlas: int, volumes_digest,
                   arms_digest) -> bytes:
    """The subject's digest; its MVF bytes also go into volumes_digest, and
    those of its comparison arms into arms_digest."""
    result = run(input_image, atlases, loop_cfg)
    digest = hashlib.sha256()

    def add_volume(volume, *others):
        blob = encode_mvf(volume)
        for target in (digest, volumes_digest, *others):
            target.update(blob)

    for volume in [result.final_labels, *result.labels_history,
                   *(img for images in result.atlas_images_history for img in images)]:
        add_volume(volume)
    digest.update(repr([(r.change_fraction, r.synth.train_mse) for r in result.records]).encode())
    digest.update(repr(result.converged).encode())
    add_volume(run_direct(input_image, atlases, loop_cfg), arms_digest)
    add_volume(run_nhm(input_image, atlases, reference_atlas, loop_cfg), arms_digest)
    return digest.digest()


def cohort_digest(manifest) -> str:
    """sha256 hex over the bytes of every file the manifest lists, in
    manifest order."""
    root = Path(manifest["_dir"])
    digest = hashlib.sha256()
    for entry in manifest["subjects"]:
        for key in ("image_a", "image_b", "labels"):
            path = root / entry[key]
            try:
                digest.update(path.read_bytes())
            except OSError as exc:
                raise PersistenceError(f"cannot read {path}: {exc}") from exc
    return digest.hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("manifest", help="cohort manifest (from 'camelion phantom')")
    parser.add_argument("--set", metavar="KEY=VALUE", action="append", default=[],
                        dest="set_pairs", help="override one config value (repeatable)")
    args = parser.parse_args(argv)

    try:
        cfg = cfgmod.load_config(None, args.set_pairs)
        loop_cfg = replace(cfgmod.loop_config(cfg), atlas_images=True)
        manifest = load_manifest(args.manifest)
        atlases = _load_atlases(manifest)
        cohort = cohort_digest(manifest)
    except CamelionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(f"cohort {cohort}")
    root = Path(manifest["_dir"])
    arms = hashlib.sha256()
    volumes = hashlib.sha256()
    combined = hashlib.sha256()
    for entry in manifest["subjects"]:
        if entry["role"] != "test":
            continue
        input_image = read_mvf(root / entry["image_b"])
        sub = subject_digest(input_image, atlases, loop_cfg, cfg["nhm.reference_atlas"], volumes,
                             arms)
        combined.update(sub)
        print(f"{entry['id']} {sub.hex()}")
    print(f"arms {arms.hexdigest()}")
    print(f"volumes {volumes.hexdigest()}")
    print(f"combined {combined.hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
