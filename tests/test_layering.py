"""Factor kinds and payload layouts are known to factors.py alone.

Every other module reaches factor groups through ``FactorSpec`` and
``FactorElement`` methods, so adding or changing a kind touches one file.
``matching.BoundaryHomeo`` may still compare kinds while it validates a
configured rule.
"""

import re
from pathlib import Path

import morse_forge

SRC = Path(morse_forge.__file__).parent
OTHERS = sorted(p for p in SRC.glob("*.py") if p.name != "factors.py")

PAYLOAD = re.compile(r"\.payload\b")
PRIVATE = re.compile(r"\bfactors\._\w+")
KIND = re.compile(r"\bfactors\.(LINE|LATTICE|FREE|FINITE)\b")


def _hits(pattern, paths):
    return [
        f"{p.name}:{n}: {line.strip()}"
        for p in paths
        for n, line in enumerate(p.read_text(encoding="utf-8").splitlines(), start=1)
        if pattern.search(line)
    ]


def test_sources_found():
    assert {"checks.py", "rays.py", "matching.py", "cli.py"} <= {p.name for p in OTHERS}


def test_no_payload_reads_outside_factors():
    assert _hits(PAYLOAD, OTHERS) == []


def test_no_private_factor_names_outside_factors():
    assert _hits(PRIVATE, OTHERS) == []


def test_checks_and_rays_name_no_factor_kind():
    assert _hits(KIND, [SRC / "checks.py", SRC / "rays.py"]) == []
