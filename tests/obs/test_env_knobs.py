"""Manifest knob audit: ENV_KNOBS is exactly the ``REPRO_*`` set src/ reads.

A run manifest is only useful provenance if it records *every*
environment knob that could have changed the run.  This test greps the
source tree for ``REPRO_*`` literals so a new knob cannot be added
without also landing in :data:`repro.obs.manifest.ENV_KNOBS` -- the
failure message names the missing knob and the file that reads it --
and, the other way round, a deleted knob cannot linger in
``ENV_KNOBS``.
"""

import re
from pathlib import Path

from repro.obs.manifest import ENV_KNOBS

SRC = Path(__file__).resolve().parents[2] / "src"
MANIFEST = Path("repro") / "obs" / "manifest.py"

KNOB_RE = re.compile(r'"(REPRO_[A-Z][A-Z0-9_]*)"')

#: ``REPRO_*`` literals in src/ that are not environment knobs.
NOT_KNOBS = {
    # The fault-injection *clause prefix* grep would also match any
    # plain-prose mentions; currently everything matched is a knob.
}


def _knobs_read_in_src(skip=()):
    """``{knob: first file naming it}`` over src/, minus ``skip`` files."""
    found = {}
    for path in sorted(SRC.rglob("*.py")):
        relative = path.relative_to(SRC)
        if relative in skip:
            continue
        for match in KNOB_RE.finditer(path.read_text(encoding="utf-8")):
            knob = match.group(1)
            if knob not in NOT_KNOBS:
                found.setdefault(knob, relative)
    return found


def test_every_repro_knob_is_in_the_manifest():
    found = _knobs_read_in_src()
    assert found, "grep found no REPRO_* knobs under src/ -- regex rot?"
    missing = {knob: str(path) for knob, path in found.items()
               if knob not in ENV_KNOBS}
    assert not missing, (
        "REPRO_* knobs read in src/ but absent from "
        f"repro.obs.manifest.ENV_KNOBS: {missing}")


def test_live_family_is_manifested():
    """The PR-8 observability knobs specifically (regression anchor)."""
    for knob in ("REPRO_LIVE", "REPRO_LIVE_INTERVAL",
                 "REPRO_FLIGHT", "REPRO_FLIGHT_DIR"):
        assert knob in ENV_KNOBS, knob


def test_serve_family_is_manifested():
    """The serve-daemon knobs specifically (regression anchor)."""
    for knob in ("REPRO_SERVE_TTL", "REPRO_SERVE_CACHE_MAX",
                 "REPRO_SERVE_COALESCE", "REPRO_SERVE_GATHER",
                 "REPRO_SERVE_LANES"):
        assert knob in ENV_KNOBS, knob


def test_manifest_has_no_stale_knobs():
    """Knobs listed in ENV_KNOBS but read nowhere under src/ are stale
    provenance -- they record environment that cannot affect the run.
    The manifest's own list does not count as a read."""
    found = _knobs_read_in_src(skip={MANIFEST})
    stale = [knob for knob in ENV_KNOBS if knob not in found]
    assert not stale, f"ENV_KNOBS entries no code reads: {stale}"
